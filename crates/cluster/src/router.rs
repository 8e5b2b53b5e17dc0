//! Mailbox-style message passing between cluster nodes.
//!
//! Every node owns an [`Endpoint`]: a receiver for its mailbox plus a
//! handle to the [`Router`] for sending. All traffic flows through
//! [`Router::send`], which meters payload + envelope bytes in the shared
//! [`TrafficStats`] — nothing can cross a node boundary unmetered, which
//! is what makes the communication claims of the reproduction checkable.
//! Metering happens *before* hand-off, so neither the receiver nor the
//! driver thread can ever observe a delivered message whose bytes are not
//! yet in the meter.
//!
//! Channels are unbounded crossbeam channels; worker nodes typically run
//! `loop { endpoint.recv() }` on their own OS thread while the master
//! drives supersteps from the test/bench thread.
//!
//! # Fault injection and recovery
//!
//! A router can carry a [`ChaosSpec`]: once [`Router::arm_chaos`] is
//! called, every *data-plane* [`Router::send`] is subject to seeded
//! drop/duplicate/delay faults. Control-plane traffic (recovery streams,
//! probes, shutdown) goes through [`Router::send_reliable`], which meters
//! identically but bypasses injection — mirroring the reliable control
//! channel of a real scheduler. [`Router::reregister`] replaces a dead
//! node's mailbox so a respawned worker can rejoin, and [`spawn_guarded`]
//! converts a worker panic into a failure message to the master instead
//! of a silently dead thread.

#![expect(clippy::disallowed_types, reason = "point lookups, never iterated")]

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use columnsgd_telemetry::{CommFault, FaultRecord, Plane, Recorder};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use crate::chaos::{ChaosSpec, WireFault};
use crate::node::NodeId;
use crate::traffic::TrafficStats;
use crate::transport::{ChannelTransport, Transport};
use crate::wire::{Wire, ENVELOPE_BYTES};

/// A routed message: payload plus its source and destination.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub payload: M,
}

/// Errors surfaced by the messaging layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination node was never registered.
    UnknownNode(NodeId),
    /// The destination node's endpoint was dropped (node is dead).
    NodeDown(NodeId),
    /// A receive timed out.
    Timeout,
    /// All senders were dropped; no message can ever arrive.
    Disconnected,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::NodeDown(n) => write!(f, "node {n} is down"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Disconnected => write!(f, "channel disconnected"),
        }
    }
}

impl std::error::Error for NetError {}

/// Chaos machinery shared by all clones of one router.
struct ChaosState<M> {
    spec: ChaosSpec,
    /// Injection only applies once armed (after the load phase: losing a
    /// load message would model an HDFS failure, which is outside the
    /// paper's fault model).
    armed: AtomicBool,
    /// Per-link data-plane sequence numbers — the chaos decision
    /// coordinate. A link's sender is one thread, so the numbering is
    /// independent of cross-thread interleaving.
    seq: Mutex<HashMap<(NodeId, NodeId), u64>>,
    /// Per-link held-back message; released behind the *next* send on the
    /// same link (reordering).
    held: Mutex<HashMap<(NodeId, NodeId), Envelope<M>>>,
}

/// The metering/chaos/telemetry layer over a pluggable [`Transport`].
pub struct Router<M> {
    transport: Arc<dyn Transport<M>>,
    ids: Arc<Vec<NodeId>>,
    traffic: TrafficStats,
    chaos: Option<Arc<ChaosState<M>>>,
    recorder: Recorder,
}

impl<M> std::fmt::Debug for Router<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("transport", &self.transport.label())
            .field("nodes", &self.ids.len())
            .field("chaos", &self.chaos.as_ref().map(|c| c.spec))
            .finish()
    }
}

// Manual impl: `Router` is clonable regardless of whether `M` is.
impl<M> Clone for Router<M> {
    fn clone(&self) -> Self {
        Self {
            transport: Arc::clone(&self.transport),
            ids: Arc::clone(&self.ids),
            traffic: self.traffic.clone(),
            chaos: self.chaos.clone(),
            recorder: self.recorder.clone(),
        }
    }
}

/// Stable 64-bit encoding of a link for chaos decisions.
fn link_hash(from: NodeId, to: NodeId) -> u64 {
    let enc = |n: NodeId| -> u64 {
        match n {
            NodeId::Master => 0,
            NodeId::Worker(k) => 1 << 32 | k as u64,
            NodeId::Server(p) => 2 << 32 | p as u64,
        }
    };
    enc(from).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ enc(to)
}

impl<M: Wire> Router<M> {
    /// Creates a router for the given set of nodes, returning one
    /// [`Endpoint`] per node (in the same order as `ids`).
    ///
    /// # Panics
    /// Panics if `ids` contains duplicates.
    pub fn new(ids: &[NodeId], traffic: TrafficStats) -> (Router<M>, Vec<Endpoint<M>>)
    where
        M: Send + 'static,
    {
        Self::with_chaos(ids, traffic, None)
    }

    /// Like [`Router::new`] but with optional chaos injection (disarmed
    /// until [`Router::arm_chaos`] is called).
    pub fn with_chaos(
        ids: &[NodeId],
        traffic: TrafficStats,
        chaos: Option<ChaosSpec>,
    ) -> (Router<M>, Vec<Endpoint<M>>)
    where
        M: Send + 'static,
    {
        Self::with_recorder(ids, traffic, chaos, Recorder::disabled())
    }

    /// The full constructor: chaos injection plus a telemetry [`Recorder`]
    /// that receives one `CommRecord` per metered message. With the
    /// default [`Recorder::disabled`] the telemetry path costs one branch.
    pub fn with_recorder(
        ids: &[NodeId],
        traffic: TrafficStats,
        chaos: Option<ChaosSpec>,
        recorder: Recorder,
    ) -> (Router<M>, Vec<Endpoint<M>>)
    where
        M: Send + 'static,
    {
        let (transport, receivers) = ChannelTransport::new(ids);
        let router = Router::with_transport(Arc::new(transport), ids, traffic, chaos, recorder);
        let endpoints = receivers
            .into_iter()
            .map(|(id, rx, generation)| Endpoint {
                id,
                rx,
                generation,
                router: router.clone(),
            })
            .collect();
        (router, endpoints)
    }

    /// Assembles a router over an externally built [`Transport`] — the
    /// entry point for the TCP backend, where mailboxes live in other
    /// processes and endpoints are created per-process.
    pub fn with_transport(
        transport: Arc<dyn Transport<M>>,
        ids: &[NodeId],
        traffic: TrafficStats,
        chaos: Option<ChaosSpec>,
        recorder: Recorder,
    ) -> Router<M> {
        Router {
            transport,
            ids: Arc::new(ids.to_vec()),
            traffic,
            chaos: chaos.map(|spec| {
                Arc::new(ChaosState {
                    spec,
                    armed: AtomicBool::new(false),
                    seq: Mutex::new(HashMap::new()),
                    held: Mutex::new(HashMap::new()),
                })
            }),
            recorder,
        }
    }

    /// Wraps a locally hosted mailbox receiver into an [`Endpoint`] on
    /// this router (TCP assembly: the hub hosts the master's mailbox, a
    /// worker process hosts its own).
    pub fn endpoint_from_parts(
        &self,
        id: NodeId,
        rx: Receiver<Envelope<M>>,
        generation: u64,
    ) -> Endpoint<M> {
        Endpoint {
            id,
            rx,
            generation,
            router: self.clone(),
        }
    }

    /// Arms chaos injection (no-op for a router without a [`ChaosSpec`]).
    /// Called after the load phase so initial data dispatch is never
    /// injected.
    pub fn arm_chaos(&self) {
        if let Some(c) = &self.chaos {
            c.armed.store(true, Ordering::Release);
        }
    }

    /// The chaos spec, if this router injects faults.
    pub fn chaos_spec(&self) -> Option<ChaosSpec> {
        self.chaos.as_ref().map(|c| c.spec)
    }

    /// Replaces `id`'s mailbox for a respawn and returns the new
    /// [`Endpoint`] — `Some` when this router's transport hosts the
    /// mailbox locally (in-process workers), `None` when the mailbox
    /// lived in a remote process (TCP workers; the host respawns the
    /// process, whose fresh hello re-registers the connection).
    ///
    /// Messages still queued in the dead mailbox are lost, exactly like a
    /// process restart — but not *silently*: each one is recorded in the
    /// [`TrafficStats`] dead-letter ledger and as a telemetry
    /// `FaultRecord` (they were metered at send time, so the send-side
    /// meter and trace totals remain reconciled; the ledger says which of
    /// those bytes died undelivered). `iteration` stamps the fault
    /// records with the recovery's training iteration.
    ///
    /// # Panics
    /// Panics if `id` was never registered.
    pub fn reregister(&self, id: NodeId, iteration: u64) -> Option<Endpoint<M>> {
        let re = self.transport.reregister(id);
        let mut dead_letters = re.dead_letters;
        // A message held back mid-delay for the dead node belongs to the
        // lost mailbox too; drain it along with everything queued there.
        if let Some(c) = &self.chaos {
            let mut held = c.held.lock();
            let stuck: Vec<(NodeId, NodeId)> =
                held.keys().filter(|&&(_, to)| to == id).copied().collect();
            for key in stuck {
                if let Some(env) = held.remove(&key) {
                    dead_letters.push(env);
                }
            }
        }
        for env in &dead_letters {
            let bytes = env.payload.wire_size() + ENVELOPE_BYTES;
            self.traffic.record_dropped(env.from, env.to, bytes);
            self.recorder.fault(FaultRecord {
                iteration,
                worker: match id {
                    NodeId::Worker(w) => w as u64,
                    _ => u64::MAX,
                },
                fault: format!("dead-letter:{}", env.payload.kind()),
                detection: "mailbox drain on reregister".to_string(),
                detection_latency_s: 0.0,
                recovery_cost_s: 0.0,
                attempt: 0,
                fatal: false,
            });
        }
        re.rx.map(|rx| Endpoint {
            id,
            rx,
            generation: re.generation,
            router: self.clone(),
        })
    }

    /// Mirrors one metered message into telemetry. Called exactly once per
    /// `TrafficStats::record`, so a trace's byte totals reconcile with the
    /// meter by construction — the engines assert this after training.
    #[inline]
    fn record_comm(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        kind: &str,
        plane: Plane,
        fault: Option<CommFault>,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let modeled_s = self.recorder.pricing().map_or(0.0, |p| {
            p.latency_s + bytes as f64 / p.bandwidth_bytes_per_s
        });
        self.recorder.comm(
            kind,
            from.into(),
            to.into(),
            bytes as u64,
            modeled_s,
            plane,
            fault,
        );
    }

    fn push(&self, env: Envelope<M>, plane: Plane) -> Result<(), NetError> {
        self.transport.deliver(env, plane)
    }

    /// Admits a frame received off a socket into the metering layer — the
    /// hub-side entry point for worker-originated traffic on the TCP
    /// backend. The frame's physical length is asserted against the
    /// analytic footprint *at the metering site*, so `TrafficStats` and
    /// telemetry `CommRecord`s reconcile with real bytes by construction,
    /// then the message is dispatched through the exact same
    /// send/send_reliable/send_unmetered paths in-process traffic takes
    /// (metering, chaos, and telemetry included).
    ///
    /// # Panics
    /// Panics if `frame_len` disagrees with
    /// `payload.wire_size() + ENVELOPE_BYTES` — a codec/model drift that
    /// would silently skew the paper's byte accounting.
    pub fn ingress(&self, env: Envelope<M>, frame_len: usize, plane: Plane) -> Result<(), NetError>
    where
        M: Clone,
    {
        let expected = env.payload.wire_size() + ENVELOPE_BYTES;
        assert_eq!(
            frame_len,
            expected,
            "frame length {frame_len} != wire_size + envelope = {expected} for {}",
            env.payload.kind()
        );
        match plane {
            Plane::Data => self.send(env.from, env.to, env.payload),
            Plane::Control => self.send_reliable(env.from, env.to, env.payload),
            Plane::Virtual => self.send_unmetered(env.from, env.to, env.payload),
        }
    }

    /// Sends `payload` from `from` to `to`, metering its wire footprint.
    /// Subject to chaos injection once armed.
    ///
    /// Self-sends (`from == to`) are delivered but **not metered**: local
    /// hand-offs on one machine cross no network, which matters when a
    /// worker dispatches a workset to itself during the row-to-column
    /// transformation.
    ///
    /// Injected faults are invisible to the sender: a dropped message
    /// still returns `Ok` — the loss must be *detected* by the receiver's
    /// deadline — and its bytes are still metered, because it crossed the
    /// wire. A duplicate is metered twice.
    pub fn send(&self, from: NodeId, to: NodeId, payload: M) -> Result<(), NetError>
    where
        M: Clone,
    {
        let bytes = payload.wire_size() + ENVELOPE_BYTES;
        let chaos = self
            .chaos
            .as_ref()
            .filter(|c| from != to && c.spec.is_active() && c.armed.load(Ordering::Acquire));
        let fault = match chaos {
            Some(c) => {
                let seq = {
                    let mut seqs = c.seq.lock();
                    let s = seqs.entry((from, to)).or_insert(0);
                    let cur = *s;
                    *s += 1;
                    cur
                };
                c.spec.wire_fault(link_hash(from, to), seq)
            }
            None => WireFault::Deliver,
        };
        if from != to {
            self.traffic.record(from, to, bytes);
            let observed = match fault {
                WireFault::Deliver => None,
                WireFault::Drop => Some(CommFault::Dropped),
                WireFault::Duplicate => Some(CommFault::Duplicated),
                WireFault::Delay => Some(CommFault::Delayed),
            };
            self.record_comm(from, to, bytes, payload.kind(), Plane::Data, observed);
        }
        // Any message held back on this link is released by this send
        // (delivered behind the current message — that is the reordering).
        let released = chaos.and_then(|c| c.held.lock().remove(&(from, to)));
        let env = Envelope { from, to, payload };
        match fault {
            WireFault::Deliver => self.push(env, Plane::Data)?,
            WireFault::Drop => {
                // Metered, never enqueued. The sender cannot tell.
            }
            WireFault::Duplicate => {
                if from != to {
                    self.traffic.record(from, to, bytes);
                    self.record_comm(
                        from,
                        to,
                        bytes,
                        env.payload.kind(),
                        Plane::Data,
                        Some(CommFault::Duplicated),
                    );
                }
                self.push(env.clone(), Plane::Data)?;
                self.push(env, Plane::Data)?;
            }
            WireFault::Delay => {
                if let Some(c) = chaos {
                    c.held.lock().insert((from, to), env);
                }
            }
        }
        if let Some(held) = released {
            self.push(held, Plane::Data)?;
        }
        Ok(())
    }

    /// Sends on the reliable control plane: metered exactly like
    /// [`Router::send`] but never subject to chaos injection. Use for
    /// recovery streams, probes, and shutdown — traffic whose loss the
    /// reliable control channel of a real scheduler would mask.
    pub fn send_reliable(&self, from: NodeId, to: NodeId, payload: M) -> Result<(), NetError> {
        let bytes = payload.wire_size() + ENVELOPE_BYTES;
        if from != to {
            self.traffic.record(from, to, bytes);
            self.record_comm(from, to, bytes, payload.kind(), Plane::Control, None);
        }
        self.push(Envelope { from, to, payload }, Plane::Control)
    }

    /// Delivers `payload` physically but records its bytes on a different
    /// *logical* link.
    ///
    /// The RowSGD parameter-server baselines host their P servers on the
    /// driver process (one OS thread) while modelling them as distinct
    /// nodes: a model shard that logically travels `Server(p) → Worker(w)`
    /// is physically delivered from the master endpoint, and this method
    /// meters it on the logical link so per-server traffic (and therefore
    /// per-server-link pricing) stays exact.
    pub fn send_via(
        &self,
        physical_from: NodeId,
        logical_from: NodeId,
        to: NodeId,
        payload: M,
    ) -> Result<(), NetError> {
        let bytes = payload.wire_size() + ENVELOPE_BYTES;
        if logical_from != to {
            self.traffic.record(logical_from, to, bytes);
            self.record_comm(
                logical_from,
                to,
                bytes,
                payload.kind(),
                Plane::Virtual,
                None,
            );
        }
        self.push(
            Envelope {
                from: physical_from,
                to,
                payload,
            },
            Plane::Data,
        )
    }

    /// Delivers `payload` without recording any traffic. Only for payloads
    /// whose bytes are metered separately via [`Router::meter_only`] on
    /// logical links (e.g. a model pull that logically arrives from P
    /// parameter servers but is physically one message from the driver).
    pub fn send_unmetered(&self, from: NodeId, to: NodeId, payload: M) -> Result<(), NetError> {
        self.push(Envelope { from, to, payload }, Plane::Virtual)
    }

    /// Records traffic on a logical link without a physical delivery (the
    /// receiving logic runs in-process, e.g. a virtual server receiving a
    /// push that the driver thread handles directly).
    pub fn meter_only(&self, from: NodeId, to: NodeId, bytes: usize) {
        self.meter_as(from, to, bytes, "meter");
    }

    /// Like [`Router::meter_only`] but with an explicit message-kind label
    /// for telemetry (the RowSGD baselines label their virtual
    /// parameter-server traffic: pulls, pushes, shuffles).
    pub fn meter_as(&self, from: NodeId, to: NodeId, bytes: usize, kind: &str) {
        if from != to {
            self.traffic.record(from, to, bytes);
            self.record_comm(from, to, bytes, kind, Plane::Virtual, None);
        }
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The telemetry recorder this router reports to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// All registered node ids, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.ids.as_ref().clone();
        v.sort();
        v
    }

    /// The backend label of the underlying transport (`"inproc"`,
    /// `"tcp-hub"`, `"tcp-client"`).
    pub fn transport_label(&self) -> &'static str {
        self.transport.label()
    }
}

/// One node's mailbox plus send capability.
///
/// Dropping an endpoint marks its node dead on the transport (the node's
/// mailbox owner is gone — the thread exited or the process died), so
/// later sends fail with [`NetError::NodeDown`]. The mark is
/// generation-guarded: an endpoint of a since-reregistered node cannot
/// kill its successor's mailbox.
#[derive(Debug)]
pub struct Endpoint<M> {
    id: NodeId,
    rx: Receiver<Envelope<M>>,
    generation: u64,
    router: Router<M>,
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        self.router.transport.mark_dead(self.id, self.generation);
    }
}

impl<M: Wire> Endpoint<M> {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends a data-plane message from this node (chaos applies).
    pub fn send(&self, to: NodeId, payload: M) -> Result<(), NetError>
    where
        M: Clone,
    {
        self.router.send(self.id, to, payload)
    }

    /// Sends a control-plane message from this node (chaos never applies).
    pub fn send_reliable(&self, to: NodeId, payload: M) -> Result<(), NetError> {
        self.router.send_reliable(self.id, to, payload)
    }

    /// Blocks until a message arrives.
    pub fn recv(&self) -> Result<Envelope<M>, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, NetError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => NetError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok()
    }

    /// The router (e.g. for broadcast loops).
    pub fn router(&self) -> &Router<M> {
        &self.router
    }
}

/// Thread-name prefix marking a panic as supervised: suppressed from
/// stderr and converted into a failure message instead.
const GUARDED_PREFIX: &str = "guarded:";

fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let guarded = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(GUARDED_PREFIX));
            if !guarded {
                previous(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Spawns a supervised node thread: runs `body` with the endpoint and, if
/// the body panics, converts the panic into `on_panic(message)` sent to
/// the master over the reliable control plane — the "panic → worker
/// failure" conversion an executor runtime performs in a real cluster.
/// The panic backtrace is suppressed from stderr.
///
/// If the master is already gone the failure notice is silently dropped
/// (the run is over; nobody is listening).
pub fn spawn_guarded<M, F, P>(name: String, ep: Endpoint<M>, body: F, on_panic: P) -> JoinHandle<()>
where
    M: Wire + Send + 'static,
    F: FnOnce(Endpoint<M>) + Send + 'static,
    P: FnOnce(String) -> M + Send + 'static,
{
    install_quiet_panic_hook();
    let id = ep.id();
    let router = ep.router().clone();
    std::thread::Builder::new()
        .name(format!("{GUARDED_PREFIX}{name}"))
        .spawn(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(ep))) {
                let info = panic_message(payload.as_ref());
                let _ = router.send_reliable(id, NodeId::Master, on_panic(info));
            }
        })
        .expect("spawn guarded node thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ENVELOPE_BYTES;

    #[test]
    fn point_to_point_delivery_and_metering() {
        let traffic = TrafficStats::new();
        let (_router, mut eps) =
            Router::<Vec<f64>>::new(&[NodeId::Master, NodeId::Worker(0)], traffic.clone());
        let w0 = eps.pop().unwrap();
        let master = eps.pop().unwrap();

        master.send(NodeId::Worker(0), vec![1.0, 2.0, 3.0]).unwrap();
        let env = w0.recv().unwrap();
        assert_eq!(env.from, NodeId::Master);
        assert_eq!(env.payload, vec![1.0, 2.0, 3.0]);

        let link = traffic.link(NodeId::Master, NodeId::Worker(0));
        assert_eq!(link.messages, 1);
        assert_eq!(link.bytes as usize, 8 + 24 + ENVELOPE_BYTES);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let (router, _eps) = Router::<u64>::new(&[NodeId::Master], TrafficStats::new());
        assert_eq!(
            router.send(NodeId::Master, NodeId::Worker(9), 1),
            Err(NetError::UnknownNode(NodeId::Worker(9)))
        );
    }

    #[test]
    fn dead_node_is_an_error() {
        let (router, mut eps) =
            Router::<u64>::new(&[NodeId::Master, NodeId::Worker(0)], TrafficStats::new());
        // Drop worker 0's endpoint: the node is "dead".
        let _master = eps.remove(0);
        drop(eps);
        assert_eq!(
            router.send(NodeId::Master, NodeId::Worker(0), 1),
            Err(NetError::NodeDown(NodeId::Worker(0)))
        );
    }

    #[test]
    fn cross_thread_roundtrip() {
        let (_router, mut eps) =
            Router::<u64>::new(&[NodeId::Master, NodeId::Worker(0)], TrafficStats::new());
        let w0 = eps.pop().unwrap();
        let master = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            // Echo server: double whatever arrives, until 0.
            loop {
                let env = w0.recv().unwrap();
                if env.payload == 0 {
                    break;
                }
                w0.send(env.from, env.payload * 2).unwrap();
            }
        });
        for x in [1u64, 5, 21] {
            master.send(NodeId::Worker(0), x).unwrap();
            assert_eq!(master.recv().unwrap().payload, 2 * x);
        }
        master.send(NodeId::Worker(0), 0).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_r, mut eps) = Router::<u64>::new(&[NodeId::Master], TrafficStats::new());
        let master = eps.pop().unwrap();
        assert_eq!(
            master.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn mailbox_queues_in_send_order() {
        let (router, mut eps) =
            Router::<u64>::new(&[NodeId::Master, NodeId::Worker(0)], TrafficStats::new());
        let w0 = eps.pop().unwrap();
        for i in 0..4 {
            router.send(NodeId::Master, NodeId::Worker(0), i).unwrap();
        }
        let queued: Vec<u64> = std::iter::from_fn(|| w0.try_recv())
            .map(|e| e.payload)
            .collect();
        assert_eq!(queued, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn duplicate_ids_rejected() {
        let _ = Router::<u64>::new(&[NodeId::Master, NodeId::Master], TrafficStats::new());
    }

    #[test]
    fn metering_is_visible_before_delivery() {
        // The meter must already contain a message's bytes by the time the
        // receiver can observe it: metering after enqueue would let the
        // driver read the traffic right after the last expected reply and
        // undercount.
        let traffic = TrafficStats::new();
        let (_router, mut eps) =
            Router::<u64>::new(&[NodeId::Master, NodeId::Worker(0)], traffic.clone());
        let w0 = eps.pop().unwrap();
        let master = eps.pop().unwrap();
        let t = std::thread::spawn(move || {
            for i in 0..200u64 {
                w0.send(NodeId::Master, i).unwrap();
            }
        });
        for i in 0..200u64 {
            let _ = master.recv().unwrap();
            let seen = traffic.link(NodeId::Worker(0), NodeId::Master).messages;
            assert!(seen > i, "meter lags delivery: {seen} < {}", i + 1);
        }
        t.join().unwrap();
    }

    #[test]
    fn chaos_drop_is_metered_but_not_delivered() {
        let spec = ChaosSpec {
            seed: 1,
            drop_p: 1.0,
            ..ChaosSpec::default()
        };
        let traffic = TrafficStats::new();
        let (router, mut eps) = Router::<u64>::with_chaos(
            &[NodeId::Master, NodeId::Worker(0)],
            traffic.clone(),
            Some(spec),
        );
        let w0 = eps.pop().unwrap();
        let _master = eps.pop().unwrap();

        // Disarmed: delivered normally.
        router.send(NodeId::Master, NodeId::Worker(0), 7).unwrap();
        assert_eq!(w0.recv().unwrap().payload, 7);

        router.arm_chaos();
        router.send(NodeId::Master, NodeId::Worker(0), 8).unwrap();
        assert!(w0.try_recv().is_none(), "dropped message must not arrive");
        // Both messages metered regardless.
        assert_eq!(traffic.link(NodeId::Master, NodeId::Worker(0)).messages, 2);

        // The reliable plane bypasses injection.
        router
            .send_reliable(NodeId::Master, NodeId::Worker(0), 9)
            .unwrap();
        assert_eq!(w0.recv().unwrap().payload, 9);
        assert_eq!(traffic.link(NodeId::Master, NodeId::Worker(0)).messages, 3);
    }

    #[test]
    fn chaos_duplicate_delivers_twice_and_meters_twice() {
        let spec = ChaosSpec {
            seed: 1,
            dup_p: 1.0,
            ..ChaosSpec::default()
        };
        let traffic = TrafficStats::new();
        let (router, mut eps) = Router::<u64>::with_chaos(
            &[NodeId::Master, NodeId::Worker(0)],
            traffic.clone(),
            Some(spec),
        );
        let w0 = eps.pop().unwrap();
        router.arm_chaos();
        router.send(NodeId::Master, NodeId::Worker(0), 5).unwrap();
        assert_eq!(w0.recv().unwrap().payload, 5);
        assert_eq!(w0.recv().unwrap().payload, 5);
        assert_eq!(traffic.link(NodeId::Master, NodeId::Worker(0)).messages, 2);
    }

    #[test]
    fn chaos_delay_reorders_behind_next_message() {
        let spec = ChaosSpec {
            seed: 1,
            delay_p: 1.0,
            ..ChaosSpec::default()
        };
        let (router, mut eps) = Router::<u64>::with_chaos(
            &[NodeId::Master, NodeId::Worker(0)],
            TrafficStats::new(),
            Some(spec),
        );
        let w0 = eps.pop().unwrap();
        router.arm_chaos();
        // Every message is delayed: each send holds the new message and
        // releases the previously held one.
        router.send(NodeId::Master, NodeId::Worker(0), 1).unwrap();
        assert!(w0.try_recv().is_none());
        router.send(NodeId::Master, NodeId::Worker(0), 2).unwrap();
        assert_eq!(w0.recv().unwrap().payload, 1);
        router.send(NodeId::Master, NodeId::Worker(0), 3).unwrap();
        assert_eq!(w0.recv().unwrap().payload, 2);
    }

    #[test]
    fn telemetry_comm_records_reconcile_with_meter_under_chaos() {
        // Every metered byte — including drops and double-metered
        // duplicates — must appear as a CommRecord, on every plane.
        let spec = ChaosSpec {
            seed: 3,
            drop_p: 0.3,
            dup_p: 0.3,
            ..ChaosSpec::default()
        };
        let traffic = TrafficStats::new();
        let recorder = Recorder::new();
        let (router, _eps) = Router::<Vec<f64>>::with_recorder(
            &[NodeId::Master, NodeId::Worker(0)],
            traffic.clone(),
            Some(spec),
            recorder.clone(),
        );
        router.arm_chaos();
        for i in 0..100 {
            router
                .send(NodeId::Master, NodeId::Worker(0), vec![0.0; i % 7])
                .unwrap();
        }
        router
            .send_reliable(NodeId::Worker(0), NodeId::Master, vec![1.0])
            .unwrap();
        router.meter_as(NodeId::Worker(0), NodeId::Server(0), 640, "SparsePull");
        let summary = recorder.summary();
        let total = traffic.total();
        assert_eq!(summary.comm_bytes, total.bytes);
        assert_eq!(summary.comm_messages, total.messages);
        assert!(summary.comm_faults > 0, "chaos faults must be recorded");
        assert!(summary.by_kind.iter().any(|k| k.kind == "SparsePull"));
    }

    #[test]
    fn reregister_replaces_a_dead_mailbox() {
        let (router, mut eps) =
            Router::<u64>::new(&[NodeId::Master, NodeId::Worker(0)], TrafficStats::new());
        let w0 = eps.pop().unwrap();
        let _master = eps.pop().unwrap();
        drop(w0); // the worker dies
        assert_eq!(
            router.send(NodeId::Master, NodeId::Worker(0), 1),
            Err(NetError::NodeDown(NodeId::Worker(0)))
        );
        let w0b = router.reregister(NodeId::Worker(0), 0).unwrap();
        router.send(NodeId::Master, NodeId::Worker(0), 2).unwrap();
        assert_eq!(w0b.recv().unwrap().payload, 2);
    }

    #[test]
    #[should_panic(expected = "cannot reregister unknown node")]
    fn reregister_unknown_node_rejected() {
        let (router, _eps) = Router::<u64>::new(&[NodeId::Master], TrafficStats::new());
        let _ = router.reregister(NodeId::Worker(3), 0);
    }

    #[test]
    fn reregister_records_drained_mailbox_as_dead_letters() {
        // Regression: messages queued to a worker that dies before
        // consuming them used to vanish silently on reregister. They must
        // be drained and surfaced — in the TrafficStats dead-letter
        // ledger and as FaultRecords — so trace-vs-meter reconciliation
        // still explains every byte after a crash.
        let traffic = TrafficStats::new();
        let recorder = Recorder::new();
        let (router, mut eps) = Router::<u64>::with_recorder(
            &[NodeId::Master, NodeId::Worker(0)],
            traffic.clone(),
            None,
            recorder.clone(),
        );
        let w0 = eps.pop().unwrap();
        let _master = eps.pop().unwrap();
        for i in 0..3 {
            router.send(NodeId::Master, NodeId::Worker(0), i).unwrap();
        }
        drop(w0); // dies with 3 messages queued
        let sent = traffic.total();
        let w0b = router.reregister(NodeId::Worker(0), 7).unwrap();
        // Send-side meter unchanged (those bytes did cross the wire)…
        assert_eq!(traffic.total(), sent);
        // …but the dead-letter ledger explains what never arrived.
        let dropped = traffic.dropped_total();
        assert_eq!(dropped.messages, 3);
        assert_eq!(dropped.bytes as usize, 3 * (8 + ENVELOPE_BYTES));
        let faults = columnsgd_telemetry::Summary::fault_records(&recorder.events());
        let dead: Vec<_> = faults
            .iter()
            .filter(|f| f.fault.starts_with("dead-letter:"))
            .collect();
        assert_eq!(dead.len(), 3);
        assert!(dead.iter().all(|f| f.iteration == 7 && f.worker == 0));
        // The fresh mailbox starts empty and works.
        assert!(w0b.try_recv().is_none());
        router.send(NodeId::Master, NodeId::Worker(0), 9).unwrap();
        assert_eq!(w0b.recv().unwrap().payload, 9);
    }

    #[test]
    fn guarded_spawn_converts_panic_to_message() {
        let (_router, mut eps) =
            Router::<String>::new(&[NodeId::Master, NodeId::Worker(0)], TrafficStats::new());
        let w0 = eps.pop().unwrap();
        let master = eps.pop().unwrap();
        let h = spawn_guarded(
            "w0".to_string(),
            w0,
            |_ep| panic!("worker exploded"),
            |info| format!("FAILED: {info}"),
        );
        let env = master.recv().unwrap();
        assert_eq!(env.from, NodeId::Worker(0));
        assert_eq!(env.payload, "FAILED: worker exploded");
        h.join().unwrap();
    }

    #[test]
    fn guarded_spawn_normal_exit_sends_nothing() {
        let (_router, mut eps) =
            Router::<String>::new(&[NodeId::Master, NodeId::Worker(0)], TrafficStats::new());
        let w0 = eps.pop().unwrap();
        let master = eps.pop().unwrap();
        let h = spawn_guarded(
            "w0".to_string(),
            w0,
            |ep| {
                ep.send(NodeId::Master, "done".to_string()).unwrap();
            },
            |info| format!("FAILED: {info}"),
        );
        assert_eq!(master.recv().unwrap().payload, "done");
        h.join().unwrap();
        assert!(master.try_recv().is_none());
    }
}
