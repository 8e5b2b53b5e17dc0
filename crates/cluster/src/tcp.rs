//! The multi-process TCP backend: real frames over loopback sockets.
//!
//! Topology is hub-and-spoke. The master process runs a [`TcpHub`]: it
//! hosts the master's mailbox locally, accepts one TCP connection per
//! worker process, and switches worker↔worker traffic. Each worker
//! process runs a [`TcpClient`]: a single connection to the hub, a local
//! loopback mailbox, and a reader thread feeding it.
//!
//! ## Where metering happens
//!
//! All metering authority stays with the **master's** router:
//!
//! * master-originated sends are metered in `Router::send` as always,
//!   then framed and written by [`TcpHub`]'s `deliver`;
//! * worker-originated frames are decoded by the hub's per-connection
//!   reader thread and admitted through [`Router::ingress`], which
//!   asserts `frame_len == wire_size() + ENVELOPE_BYTES` and then calls
//!   the exact same `send`/`send_reliable` paths in-process traffic
//!   takes — metering, chaos injection, and telemetry included.
//!
//! Worker-side routers carry a private meter and no chaos; their numbers
//! are never read. Chaos therefore fires exactly once per message, at the
//! hub, with the same per-link sequence numbers as the in-process backend
//! (TCP preserves per-connection order, and each link has a single
//! sending thread), so seeded fault schedules are bit-identical across
//! backends.
//!
//! ## Death and respawn
//!
//! A worker process exiting closes its socket; the hub's reader thread
//! observes EOF and marks the connection dead, so later sends fail with
//! `NodeDown` — the same signal a dropped in-process endpoint produces.
//! Respawning re-runs the hello handshake: the host kills the old
//! process, calls [`TcpHub::disconnect`], spawns a fresh process, and
//! [`TcpHub::await_workers`] for the new connection.

#![expect(clippy::disallowed_methods, reason = "connect deadlines")]
#![expect(clippy::disallowed_types, reason = "the metered TCP transport")]

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::codec::{
    decode_body_checked, decode_envelope_header, decode_telemetry_body, encode_clock_echo,
    encode_clock_probe, encode_envelope, encode_hello, encode_telemetry_events, read_frame,
    write_frame, FrameKind, TelemetryPayload,
};
use crate::node::NodeId;
use crate::router::{Endpoint, Envelope, NetError, Router};
use crate::telemetry::{Plane, ProfScope, Recorder};
use crate::traffic::TrafficStats;
use crate::transport::{Reregistered, Transport};
use crate::WireCodec;

/// A locally hosted mailbox (the master's, on the hub side).
struct LocalSlot<M> {
    tx: Sender<Envelope<M>>,
    drain: Receiver<Envelope<M>>,
    alive: bool,
    generation: u64,
}

/// One worker process's connection state.
struct Conn {
    /// The writing half (reads happen on the per-connection thread).
    /// `None` until the worker's hello arrives, and after disconnect.
    writer: Option<Arc<Mutex<TcpStream>>>,
    alive: bool,
    generation: u64,
}

struct HubInner<M> {
    listener: TcpListener,
    addr: SocketAddr,
    local: RwLock<HashMap<NodeId, LocalSlot<M>>>,
    conns: Mutex<HashMap<NodeId, Conn>>,
    /// Router used by reader threads to admit worker-originated frames.
    router: Mutex<Option<Router<M>>>,
    /// The master's monotonic origin: clock probes and echoes are
    /// expressed as nanoseconds since this instant, so worker timelines
    /// can be aligned to the master's.
    origin: Instant,
    shutting_down: AtomicBool,
    /// Handles of the accept loop and every connection thread, joined by
    /// [`TcpHub::shutdown`] so the hub quiesces deterministically — no
    /// detached thread can still be switching a frame (and charging
    /// profiler samples) after shutdown returns.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// The master-side transport: local master mailbox + one socket per
/// worker process + ingress switching. Cheap to clone (shared state).
pub struct TcpHub<M> {
    inner: Arc<HubInner<M>>,
}

impl<M> Clone for TcpHub<M> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> std::fmt::Debug for TcpHub<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHub")
            .field("addr", &self.inner.addr)
            .finish()
    }
}

impl<M: WireCodec + Clone + Send + 'static> TcpHub<M> {
    /// Binds a loopback listener and prepares slots: `local_ids` get
    /// in-process mailboxes (the master), `remote_ids` get connection
    /// slots filled in when the worker processes dial in.
    pub fn bind(local_ids: &[NodeId], remote_ids: &[NodeId]) -> io::Result<TcpHub<M>> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut local = HashMap::new();
        for &id in local_ids {
            let (tx, rx) = unbounded();
            local.insert(
                id,
                LocalSlot {
                    tx,
                    drain: rx.clone(),
                    alive: true,
                    generation: 0,
                },
            );
        }
        let mut conns = HashMap::new();
        for &id in remote_ids {
            conns.insert(
                id,
                Conn {
                    writer: None,
                    alive: false,
                    generation: 0,
                },
            );
        }
        Ok(TcpHub {
            inner: Arc::new(HubInner {
                listener,
                addr,
                local: RwLock::new(local),
                conns: Mutex::new(conns),
                router: Mutex::new(None),
                origin: Instant::now(),
                shutting_down: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
            }),
        })
    }

    /// The address worker processes should dial.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Takes the mailbox receiver of a locally hosted node (the master)
    /// as an [`Endpoint`] on `router`.
    pub fn local_endpoint(&self, id: NodeId, router: &Router<M>) -> Endpoint<M> {
        let local = self.inner.local.read();
        let slot = local
            .get(&id)
            .unwrap_or_else(|| panic!("node {id} is not hub-local"));
        router.endpoint_from_parts(id, slot.drain.clone(), slot.generation)
    }

    /// Installs the router reader threads dispatch into and starts the
    /// accept loop. Must be called before worker processes dial in.
    pub fn start(&self, router: Router<M>) {
        *self.inner.router.lock() = Some(router);
        let hub = self.clone();
        let handle = std::thread::Builder::new()
            .name("tcp-hub-accept".to_string())
            .spawn(move || hub.accept_loop())
            .expect("spawn hub accept thread");
        self.inner.threads.lock().push(handle);
    }

    fn accept_loop(&self) {
        loop {
            let stream = match self.inner.listener.accept() {
                Ok((s, _)) => s,
                Err(_) => return,
            };
            if self.inner.shutting_down.load(Ordering::Acquire) {
                return;
            }
            let hub = self.clone();
            let handle = std::thread::Builder::new()
                .name("tcp-hub-conn".to_string())
                .spawn(move || hub.serve_conn(stream))
                .expect("spawn hub connection thread");
            self.inner.threads.lock().push(handle);
        }
    }

    /// Handles one worker connection: hello handshake, registration,
    /// then the ingress read loop.
    fn serve_conn(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // Hello: the first frame names the connecting worker.
        let hello = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            _ => return,
        };
        let header = match decode_envelope_header(&hello) {
            Ok(h) if h.kind == FrameKind::Hello => h,
            _ => return, // not a worker of ours; drop the connection
        };
        let who = header.from;
        let (generation, writer) = {
            let mut conns = self.inner.conns.lock();
            let Some(conn) = conns.get_mut(&who) else {
                return; // unknown worker id
            };
            if let Some(old) = conn.writer.take() {
                let _ = old.lock().shutdown(Shutdown::Both);
            }
            conn.generation += 1;
            conn.alive = true;
            let writer = Arc::new(Mutex::new(
                stream.try_clone().expect("clone hub-side stream"),
            ));
            conn.writer = Some(Arc::clone(&writer));
            (conn.generation, writer)
        };
        let router = self
            .inner
            .router
            .lock()
            .clone()
            .expect("hub started before workers dial in");
        // Clock alignment: probe the fresh connection with the master's
        // monotonic timeline; the worker echoes with its own clock and the
        // offset estimate lands in the recorder (telemetry plane — never
        // metered).
        {
            let master_nanos = self.inner.origin.elapsed().as_nanos() as u64;
            let probe = encode_clock_probe(NodeId::Master, who, master_nanos);
            // lint: allow(blocking-under-lock) the writer mutex IS the per-connection write serialization point; frames must not interleave
            let _ = write_frame(&mut *writer.lock(), &probe);
        }
        drop(writer);
        // Ingress loop: worker-originated frames enter the metering layer
        // here, through the exact same Router paths as in-process sends.
        // EOF or a read error ends the loop: the worker process is gone.
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            // Per-frame switching cost (header decode, telemetry
            // interception, body decode, ingress) under one profiler
            // frame; the guard drops on every `continue`/`break` path.
            let _prof = ProfScope::enter("hub_switch");
            let Ok(header) = decode_envelope_header(&frame) else {
                break; // corrupt stream: treat as death
            };
            let plane = match header.kind {
                FrameKind::Message(plane) => plane,
                // Telemetry frames are intercepted *before* the decode /
                // `Router::ingress` path: they never touch `TrafficStats`,
                // so trace shipping cannot skew trace↔meter reconciliation.
                FrameKind::Telemetry => {
                    match decode_telemetry_body(&frame) {
                        Ok(TelemetryPayload::ClockEcho {
                            master_nanos,
                            client_nanos,
                        }) => {
                            let now = self.inner.origin.elapsed().as_nanos() as u64;
                            let rtt = now.saturating_sub(master_nanos);
                            let midpoint = master_nanos + rtt / 2;
                            let offset_s = (client_nanos as f64 - midpoint as f64) / 1e9;
                            if let NodeId::Worker(w) = who {
                                router.recorder().set_clock_offset(w as u64, offset_s);
                            }
                        }
                        Ok(TelemetryPayload::Events(events)) => {
                            router.recorder().ingest(events);
                        }
                        // A probe is master → worker; arriving here it is
                        // misdirected. Corrupt telemetry must not kill the
                        // data path — skip the frame.
                        Ok(TelemetryPayload::ClockProbe { .. }) | Err(_) => {}
                    }
                    continue;
                }
                FrameKind::Hello => continue,
            };
            let Ok(payload) = decode_body_checked::<M>(&frame) else {
                break;
            };
            let env = Envelope {
                from: header.from,
                to: header.to,
                payload,
            };
            // Close the switching frame *before* ingress: the hand-off
            // unblocks the master, which may immediately drain the
            // profiler (end of training) — charging this frame's sample
            // after ingress would race that drain and make the folded
            // calls nondeterministic for the run's final ack.
            drop(_prof);
            // A NodeDown/UnknownNode here mirrors the error the
            // sending worker would have seen in-process; over a
            // socket the sender is remote, so the hub absorbs it
            // (the loss is detected by deadlines, like any drop).
            let _ = router.ingress(env, frame.len(), plane);
        }
        self.mark_conn_dead(who, generation);
    }

    fn mark_conn_dead(&self, id: NodeId, generation: u64) {
        let mut conns = self.inner.conns.lock();
        if let Some(conn) = conns.get_mut(&id) {
            if conn.generation == generation {
                conn.alive = false;
                if let Some(w) = conn.writer.take() {
                    let _ = w.lock().shutdown(Shutdown::Both);
                }
            }
        }
    }

    /// Blocks until every worker in `ids` has completed its hello
    /// handshake, or the timeout expires. Polls: connections arrive at
    /// process-spawn granularity, so millisecond latency is irrelevant.
    pub fn await_workers(&self, ids: &[NodeId], timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let missing: Vec<NodeId> = {
                let conns = self.inner.conns.lock();
                ids.iter()
                    .filter(|id| !conns.get(id).is_some_and(|c| c.alive))
                    .copied()
                    .collect()
            };
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "workers did not connect within {timeout:?}: {missing:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Severs a worker's connection (respawn path): the old socket is
    /// shut down and the slot marked dead until a new hello arrives.
    pub fn disconnect(&self, id: NodeId) {
        let mut conns = self.inner.conns.lock();
        if let Some(conn) = conns.get_mut(&id) {
            conn.alive = false;
            if let Some(w) = conn.writer.take() {
                let _ = w.lock().shutdown(Shutdown::Both);
            }
        }
    }

    /// Stops accepting new connections, severs all workers, and joins
    /// every hub thread: when this returns, no hub thread is switching
    /// frames any more, so recorder ingests and profiler samples have
    /// quiesced (a deterministic boundary for the profiling layer).
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        let ids: Vec<NodeId> = self.inner.conns.lock().keys().copied().collect();
        for id in ids {
            self.disconnect(id);
        }
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.inner.addr);
        // Joining the accept thread guarantees no further connection
        // threads are spawned; re-take the vec until it stays empty in
        // case one was pushed while the first batch was being joined.
        loop {
            let threads: Vec<_> = std::mem::take(&mut *self.inner.threads.lock());
            if threads.is_empty() {
                return;
            }
            for t in threads {
                let _ = t.join();
            }
        }
    }
}

impl<M: WireCodec + Clone + Send + 'static> Transport<M> for TcpHub<M> {
    fn deliver(&self, env: Envelope<M>, plane: Plane) -> Result<(), NetError> {
        // Locally hosted node (the master): hand off on the channel.
        // Clone the sender out of the slot map and release the read
        // guard before sending — a send under `local` would serialize
        // every local deliver against `reregister`'s write lock.
        let local_tx = {
            let local = self.inner.local.read();
            match local.get(&env.to) {
                Some(slot) if !slot.alive => return Err(NetError::NodeDown(env.to)),
                Some(slot) => Some(slot.tx.clone()),
                None => None,
            }
        };
        if let Some(tx) = local_tx {
            let to = env.to;
            return tx.send(env).map_err(|_| NetError::NodeDown(to));
        }
        // Remote worker: frame and write. The encoder re-asserts the
        // metering invariant (frame len == wire_size + ENVELOPE_BYTES).
        let writer = {
            let conns = self.inner.conns.lock();
            let conn = conns.get(&env.to).ok_or(NetError::UnknownNode(env.to))?;
            if !conn.alive {
                return Err(NetError::NodeDown(env.to));
            }
            conn.writer.clone().ok_or(NetError::NodeDown(env.to))?
        };
        let frame = encode_envelope(env.from, env.to, &env.payload, plane)
            .expect("protocol payload must encode within its wire_size");
        let mut stream = writer.lock();
        // lint: allow(blocking-under-lock) the writer mutex IS the write serialization point: concurrent deliver()s must not interleave frame bytes
        write_frame(&mut *stream, &frame).map_err(|_| NetError::NodeDown(env.to))
    }

    fn reregister(&self, id: NodeId) -> Reregistered<M> {
        // Local slot: same semantics as the in-process transport.
        {
            let mut local = self.inner.local.write();
            if let Some(slot) = local.get_mut(&id) {
                let mut dead_letters = Vec::new();
                while let Ok(env) = slot.drain.try_recv() {
                    dead_letters.push(env);
                }
                let (tx, rx) = unbounded();
                slot.tx = tx;
                slot.drain = rx.clone();
                slot.alive = true;
                slot.generation += 1;
                return Reregistered {
                    rx: Some(rx),
                    generation: slot.generation,
                    dead_letters,
                };
            }
        }
        // Remote worker: the mailbox lives in the (dead) worker process;
        // there is nothing to drain on this side. Sever the connection
        // and wait for the respawned process's hello.
        let mut conns = self.inner.conns.lock();
        let conn = conns
            .get_mut(&id)
            .unwrap_or_else(|| panic!("cannot reregister unknown node {id}"));
        conn.alive = false;
        if let Some(w) = conn.writer.take() {
            let _ = w.lock().shutdown(Shutdown::Both);
        }
        Reregistered {
            rx: None,
            generation: conn.generation,
            dead_letters: Vec::new(),
        }
    }

    fn mark_dead(&self, id: NodeId, generation: u64) {
        {
            let mut local = self.inner.local.write();
            if let Some(slot) = local.get_mut(&id) {
                if slot.generation == generation {
                    slot.alive = false;
                }
                return;
            }
        }
        self.mark_conn_dead(id, generation);
    }

    fn label(&self) -> &'static str {
        "tcp-hub"
    }
}

// ---------------------------------------------------------------------------
// Worker-process side
// ---------------------------------------------------------------------------

struct ClientInner<M> {
    me: NodeId,
    /// Shared with [`TelemetryTx`] and the reader thread's echo path:
    /// `write_frame` issues two writes, so every frame producer must
    /// serialize on this one lock or frames interleave on the socket.
    writer: Arc<Mutex<TcpStream>>,
    /// Loopback for self-sends (a worker dispatching a workset to itself
    /// crosses no wire, in either backend).
    local_tx: Sender<Envelope<M>>,
}

/// The worker-side transport: one socket to the hub plus a local
/// loopback mailbox.
pub struct TcpClient<M> {
    inner: Arc<ClientInner<M>>,
}

impl<M> std::fmt::Debug for TcpClient<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("me", &self.inner.me)
            .finish()
    }
}

impl<M: WireCodec + Clone + Send + 'static> TcpClient<M> {
    /// Dials the hub, sends the hello, and assembles this process's
    /// router + endpoint. `ids` is the full node set of the cluster (for
    /// `Router::nodes`). The worker-side router meters into a private
    /// `TrafficStats` and records no telemetry: metering authority lives
    /// at the hub.
    ///
    /// The returned endpoint's mailbox is fed by a reader thread; when
    /// the hub closes the connection the mailbox disconnects, which a
    /// worker loop observes as `NetError::Disconnected` — the same way an
    /// in-process worker observes the master dropping its channel.
    pub fn connect(
        addr: SocketAddr,
        me: NodeId,
        ids: &[NodeId],
    ) -> io::Result<(Router<M>, Endpoint<M>)> {
        let (router, endpoint, _tx) = Self::connect_traced(addr, me, ids)?;
        Ok((router, endpoint))
    }

    /// [`TcpClient::connect`] plus a [`TelemetryTx`] for shipping locally
    /// recorded telemetry events back to the hub on the (unmetered)
    /// telemetry plane. The handle is returned unconditionally — callers
    /// that do not trace simply drop it.
    pub fn connect_traced(
        addr: SocketAddr,
        me: NodeId,
        ids: &[NodeId],
    ) -> io::Result<(Router<M>, Endpoint<M>, TelemetryTx)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // The worker's monotonic origin: echoes (and any future local
        // timestamps) are nanoseconds since this instant.
        let origin = Instant::now();
        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        // lint: allow(blocking-under-lock) hello precedes the reader thread and any sharing of `writer`; the lock is uncontended by construction
        write_frame(&mut *writer.lock(), &encode_hello(me))?;
        let (local_tx, local_rx) = unbounded();
        let client = TcpClient {
            inner: Arc::new(ClientInner {
                me,
                writer: Arc::clone(&writer),
                local_tx: local_tx.clone(),
            }),
        };
        let telemetry_tx = TelemetryTx {
            me,
            writer: Arc::clone(&writer),
            cursor: Arc::new(Mutex::new(0)),
        };
        let router = Router::with_transport(
            Arc::new(client),
            ids,
            TrafficStats::new(),
            None,
            Recorder::disabled(),
        );
        let endpoint = router.endpoint_from_parts(me, local_rx, 0);
        let mut read_half = stream;
        let echo_writer = Arc::clone(&writer);
        std::thread::Builder::new()
            .name(format!("tcp-client-read-{me}"))
            .spawn(move || {
                // Feed incoming frames into the local mailbox. Dropping
                // `local_tx` on exit disconnects the mailbox.
                loop {
                    match read_frame(&mut read_half) {
                        Ok(Some(frame)) => {
                            let Ok(header) = decode_envelope_header(&frame) else {
                                return;
                            };
                            let plane_ok = match header.kind {
                                FrameKind::Message(_) => true,
                                FrameKind::Telemetry => {
                                    match decode_telemetry_body(&frame) {
                                        Ok(TelemetryPayload::ClockProbe { master_nanos }) => {
                                            let client_nanos = origin.elapsed().as_nanos() as u64;
                                            let echo = encode_clock_echo(
                                                me,
                                                NodeId::Master,
                                                master_nanos,
                                                client_nanos,
                                            );
                                            // lint: allow(blocking-under-lock) the writer mutex IS the write serialization point; echoes must not interleave with data frames
                                            let _ = write_frame(&mut *echo_writer.lock(), &echo);
                                        }
                                        // Echoes and event batches flow
                                        // worker → master; arriving here
                                        // they are misdirected. Telemetry
                                        // noise must not kill the data
                                        // path — drop the frame.
                                        Ok(TelemetryPayload::ClockEcho { .. })
                                        | Ok(TelemetryPayload::Events(_))
                                        | Err(_) => {}
                                    }
                                    false
                                }
                                FrameKind::Hello => false,
                            };
                            if !plane_ok {
                                continue;
                            }
                            let Ok(payload) = decode_body_checked::<M>(&frame) else {
                                return;
                            };
                            let env = Envelope {
                                from: header.from,
                                to: header.to,
                                payload,
                            };
                            if local_tx.send(env).is_err() {
                                return;
                            }
                        }
                        _ => return,
                    }
                }
            })
            .expect("spawn client reader thread");
        Ok((router, endpoint, telemetry_tx))
    }
}

/// A worker-process handle for shipping locally recorded telemetry events
/// to the hub as [`FrameKind::Telemetry`] frames. Cloneable (the panic
/// path flushes from a clone); clones share the send cursor, so each event
/// ships at most once.
#[derive(Clone)]
pub struct TelemetryTx {
    me: NodeId,
    writer: Arc<Mutex<TcpStream>>,
    /// How many recorder events have been shipped already.
    cursor: Arc<Mutex<usize>>,
}

impl std::fmt::Debug for TelemetryTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryTx").field("me", &self.me).finish()
    }
}

impl TelemetryTx {
    /// Ships every event recorded since the last flush as one batched
    /// telemetry frame. Called at superstep boundaries and on shutdown;
    /// a send failure is ignored (the hub is gone — the run is over and
    /// the loss is visible as missing worker records, not a hang).
    pub fn flush(&self, recorder: &Recorder) {
        let events = recorder.events();
        let mut cursor = self.cursor.lock();
        if *cursor >= events.len() {
            return;
        }
        let frame = encode_telemetry_events(self.me, NodeId::Master, &events[*cursor..]);
        // lint: allow(blocking-under-lock) cursor must stay locked across the write so clones cannot double-ship a batch; writer is the write serialization point
        let _ = write_frame(&mut *self.writer.lock(), &frame);
        *cursor = events.len();
    }
}

impl<M: WireCodec + Clone + Send + 'static> Transport<M> for TcpClient<M> {
    fn deliver(&self, env: Envelope<M>, plane: Plane) -> Result<(), NetError> {
        if env.to == self.inner.me {
            let to = env.to;
            return self
                .inner
                .local_tx
                .send(env)
                .map_err(|_| NetError::NodeDown(to));
        }
        let frame = encode_envelope(env.from, env.to, &env.payload, plane)
            .expect("protocol payload must encode within its wire_size");
        let mut stream = self.inner.writer.lock();
        // lint: allow(blocking-under-lock) the writer mutex IS the write serialization point: deliver and telemetry flush share one socket
        write_frame(&mut *stream, &frame).map_err(|_| NetError::NodeDown(env.to))
    }

    fn reregister(&self, id: NodeId) -> Reregistered<M> {
        // Protocol misuse, not a runtime fault: reregistration is a
        // master-side operation by construction.
        panic!("cannot reregister {id} on a worker-side transport");
    }

    fn mark_dead(&self, _id: NodeId, _generation: u64) {
        // A worker endpoint dropping means this process is exiting; the
        // socket closing tells the hub.
    }

    fn label(&self) -> &'static str {
        "tcp-client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ENVELOPE_BYTES;

    /// Spins a 2-worker hub + clients in one process (threads standing in
    /// for worker processes) and checks delivery, metering parity, and
    /// worker↔worker switching.
    #[test]
    fn loopback_hub_switches_and_meters() {
        let ids = [NodeId::Master, NodeId::Worker(0), NodeId::Worker(1)];
        let workers = [NodeId::Worker(0), NodeId::Worker(1)];
        let traffic = TrafficStats::new();
        let hub: TcpHub<Vec<f64>> = TcpHub::bind(&[NodeId::Master], &workers).unwrap();
        let router = Router::with_transport(
            Arc::new(hub.clone()),
            &ids,
            traffic.clone(),
            None,
            Recorder::disabled(),
        );
        let master = hub.local_endpoint(NodeId::Master, &router);
        hub.start(router.clone());
        let addr = hub.addr();

        let spawn_worker = |w: usize| {
            std::thread::spawn(move || {
                let (_r, ep) = TcpClient::<Vec<f64>>::connect(
                    addr,
                    NodeId::Worker(w),
                    &[NodeId::Master, NodeId::Worker(0), NodeId::Worker(1)],
                )
                .unwrap();
                loop {
                    let Ok(env) = ep.recv() else { return };
                    if env.payload.is_empty() {
                        if w == 0 {
                            // Forward the poison pill to the peer to
                            // exercise worker→worker switching.
                            ep.send(NodeId::Worker(1), vec![9.0]).unwrap();
                        }
                        return;
                    }
                    let doubled: Vec<f64> = env.payload.iter().map(|x| 2.0 * x).collect();
                    ep.send(NodeId::Master, doubled).unwrap();
                }
            })
        };
        let h0 = spawn_worker(0);
        let h1 = spawn_worker(1);
        hub.await_workers(&workers, Duration::from_secs(10))
            .unwrap();

        master.send(NodeId::Worker(0), vec![1.0, 2.0]).unwrap();
        let reply = master.recv().unwrap();
        assert_eq!(reply.from, NodeId::Worker(0));
        assert_eq!(reply.payload, vec![2.0, 4.0]);

        // Metering parity: both directions carry wire_size + envelope.
        let down = traffic.link(NodeId::Master, NodeId::Worker(0));
        assert_eq!(down.bytes as usize, (8 + 16) + ENVELOPE_BYTES);
        let up = traffic.link(NodeId::Worker(0), NodeId::Master);
        assert_eq!(up.bytes as usize, (8 + 16) + ENVELOPE_BYTES);

        // Worker 0 forwards to worker 1 through the hub switch; worker 1
        // doubles it back to the master.
        master.send(NodeId::Worker(0), vec![]).unwrap();
        let from_w1 = master.recv().unwrap();
        assert_eq!(from_w1.from, NodeId::Worker(1));
        assert_eq!(from_w1.payload, vec![18.0]);
        let cross = traffic.link(NodeId::Worker(0), NodeId::Worker(1));
        assert_eq!(cross.messages, 1);

        master.send(NodeId::Worker(1), vec![]).unwrap();
        h0.join().unwrap();
        h1.join().unwrap();
        // Worker death is observable as NodeDown once EOF lands.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match router.send(NodeId::Master, NodeId::Worker(0), vec![1.0]) {
                Err(NetError::NodeDown(_)) => break,
                Ok(_) | Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("expected NodeDown, got {other:?}"),
            }
        }
        hub.shutdown();
    }

    #[test]
    fn chaos_fires_once_at_the_hub_with_inproc_identical_schedule() {
        use crate::chaos::ChaosSpec;
        // Same seed, same link, same sequence: the hub's chaos decisions
        // must match the in-process backend's exactly.
        let spec = ChaosSpec {
            seed: 11,
            drop_p: 0.5,
            ..ChaosSpec::default()
        };
        // In-process reference: which of 20 sends survive?
        let (r_ref, mut eps) = Router::<u64>::with_chaos(
            &[NodeId::Master, NodeId::Worker(0)],
            TrafficStats::new(),
            Some(spec),
        );
        let w0 = eps.pop().unwrap();
        let _m = eps.pop().unwrap();
        r_ref.arm_chaos();
        let mut survived_ref = Vec::new();
        for i in 0..20u64 {
            r_ref.send(NodeId::Master, NodeId::Worker(0), i).unwrap();
            while let Some(env) = w0.try_recv() {
                survived_ref.push(env.payload);
            }
        }

        // TCP: a real worker process is overkill here — what matters is
        // that the hub's Router applies the same schedule on the same
        // link. Use the hub-side router directly.
        let hub: TcpHub<u64> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
        let traffic = TrafficStats::new();
        let router = Router::with_transport(
            Arc::new(hub.clone()),
            &[NodeId::Master, NodeId::Worker(0)],
            traffic.clone(),
            Some(spec),
            Recorder::disabled(),
        );
        hub.start(router.clone());
        let (_r_client, ep) = TcpClient::<u64>::connect(
            hub.addr(),
            NodeId::Worker(0),
            &[NodeId::Master, NodeId::Worker(0)],
        )
        .unwrap();
        hub.await_workers(&[NodeId::Worker(0)], Duration::from_secs(10))
            .unwrap();
        router.arm_chaos();
        let mut survived_tcp = Vec::new();
        for i in 0..20u64 {
            router.send(NodeId::Master, NodeId::Worker(0), i).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while survived_tcp.len() < survived_ref.len() && Instant::now() < deadline {
            if let Ok(env) = ep.recv_timeout(Duration::from_millis(100)) {
                survived_tcp.push(env.payload);
            }
        }
        assert_eq!(survived_tcp, survived_ref);
        assert_eq!(traffic.total().messages, 20, "drops are metered too");
        hub.shutdown();
    }
}
