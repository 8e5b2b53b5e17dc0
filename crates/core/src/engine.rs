//! The ColumnSGD master/driver: data loading, the BSP training loop,
//! straggler handling, and detection-based fault tolerance.
//!
//! # Reactive fault tolerance
//!
//! The master never *interprets* the failure plan during training — faults
//! are injected at the workers (panics, thrown tasks) and at the wire
//! (seeded chaos in the router), and the master only learns about them by
//! **detection**:
//!
//! * an explicit error reply (`StatsReply { task_failed: true }`),
//! * a [`ColMsg::WorkerPanic`] report from the guarded node runtime,
//! * a send failing because the worker's mailbox is gone, or
//! * the per-iteration receive deadline expiring, after which the master
//!   probes the silent worker to classify the fault: alive-and-loaded
//!   means a lost task (re-issue), anything else means a lost worker
//!   (respawn and stream the partition reload).
//!
//! Every detected-and-recovered fault is logged as a [`RecoveryEvent`] on
//! the [`TrainOutcome`], so experiments report recovery behaviour from
//! observed events rather than from the injection script.

#![expect(clippy::disallowed_methods, reason = "phase timing and deadlines")]
#![expect(clippy::disallowed_types, reason = "point lookups, never iterated")]

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columnsgd_cluster::clock::IterationTime;
use columnsgd_cluster::telemetry::{
    KernelRecord, MetricsRegistry, Phase, ProfScope, RunStamp, SuperstepSpan,
};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    ClusterConfig, Diagnostics, Endpoint, Envelope, FailurePlan, Monitor, NetError, NetworkModel,
    NodeId, Recorder, Router, SimClock, SuperstepObs, TcpHub, TrafficStats, TransportKind,
};
use columnsgd_data::block::Block;
use columnsgd_data::{Dataset, TwoPhaseIndex};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
use crate::host::{spawn_worker_process, spawn_worker_thread, BootSpec, WorkerHost};
use crate::msg::ColMsg;
use crate::worker::WorkerScript;

/// Serialization cost charged per shipped object when pricing data loading
/// (the Figure 7 effect: many small objects are expensive even when their
/// total bytes are modest).
pub const PER_OBJECT_S: f64 = 20e-6;

/// Cost report for the row-to-column transformation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Serialized objects shipped over the network.
    pub objects: u64,
    /// Total bytes shipped.
    pub bytes: u64,
    /// Simulated loading time: the slowest node's
    /// `bytes/bandwidth + objects × PER_OBJECT_S` lane (pipelined stages
    /// overlap, so the max lane bounds the makespan).
    pub sim_time_s: f64,
}

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Batch-loss convergence curve (iteration, simulated time, loss).
    pub curve: Curve,
    /// The simulated clock (per-iteration breakdown).
    pub clock: SimClock,
    /// Every fault the master detected and recovered from, in detection
    /// order.
    pub recovery: Vec<RecoveryEvent>,
    /// The run's identity stamp (config hash, seeds, pool width) — the
    /// same stamp telemetry writes on every trace line, so repro JSON
    /// derived from this outcome is self-describing.
    pub run: RunStamp,
    /// End-of-run diagnostics from the online [`Monitor`] (empty unless
    /// one was attached with [`ColumnSgdEngine::attach_monitor`]).
    pub diagnostics: Diagnostics,
}

impl TrainOutcome {
    /// Mean per-iteration simulated time over the final `n` iterations —
    /// the Tables IV/V statistic.
    pub fn mean_iteration_s(&self, n: usize) -> f64 {
        self.clock.mean_iteration_s(n)
    }
}

/// Outcome of probing a silent worker after a deadline expired.
enum Probed {
    /// The worker answered the probe.
    Alive {
        /// Whether its partitions are loaded (true ⇒ task failure;
        /// false ⇒ its data is gone and must be reloaded).
        loaded: bool,
    },
    /// No answer (or the probe could not even be sent): the worker is gone.
    Dead,
    /// Direct evidence about the worker (a reply or panic report) arrived
    /// while probing and was buffered; the main loop will resolve it.
    Deferred,
}

/// The ColumnSGD driver: one master endpoint plus K supervised workers —
/// guarded threads (in-process transport) or child processes (TCP
/// transport), chosen by [`ClusterConfig`].
pub struct ColumnSgdEngine {
    cfg: ColumnSgdConfig,
    k: usize,
    net: NetworkModel,
    plan: FailurePlan,
    master: Endpoint<ColMsg>,
    router: Router<ColMsg>,
    host: WorkerHost,
    traffic: TrafficStats,
    recorder: Recorder,
    monitor: Monitor,
    /// Prometheus-style exposition registry (off unless
    /// [`ColumnSgdEngine::attach_metrics`] was called). Fed once per
    /// superstep from already-collected observations, so the data plane
    /// pays nothing for it.
    metrics: Option<MetricsRegistry>,
    /// Cumulative (bytes, messages) already exported to the metrics
    /// counters; `TrafficStats::total` is cumulative and counters only
    /// accept deltas.
    metrics_last_traffic: (u64, u64),
    /// Messages received while waiting for something more specific
    /// (probe acks, reload acks); drained before the mailbox.
    pending: VecDeque<Envelope<ColMsg>>,
    /// The master's copy of the blocks (the "HDFS" source): used for the
    /// initial dispatch, worker-failure recovery, and label lookup.
    blocks: Vec<Block>,
    /// Master-side replica of the two-phase index (for label lookup when
    /// reporting batch loss; the master knows the layout because it built
    /// the block queue).
    index: TwoPhaseIndex,
    /// Model dimension m.
    dim: u64,
    load_report: LoadReport,
}

impl ColumnSgdEngine {
    /// Spawns K workers, runs the block-based column dispatch of §IV-A,
    /// and waits for every worker to finish loading.
    ///
    /// # Errors
    /// Returns [`TrainError::InvalidPlan`] if the failure plan names
    /// out-of-range workers or carries invalid chaos probabilities, and
    /// [`TrainError::LoadFailed`] if loading does not complete.
    ///
    /// # Panics
    /// Panics if the dataset is empty or the backup factor does not divide
    /// K (configuration bugs, not runtime faults).
    pub fn new(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
    ) -> Result<Self, TrainError> {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        Self::new_traced(dataset, k, cfg, net, plan, Recorder::disabled())
    }

    /// [`ColumnSgdEngine::new`] with a telemetry [`Recorder`] attached:
    /// every router send, superstep phase, kernel launch, and fault is
    /// recorded on `recorder` for JSONL export or in-process summary.
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::new`].
    ///
    /// # Panics
    /// Same contract as [`ColumnSgdEngine::new`].
    pub fn new_traced(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
    ) -> Result<Self, TrainError> {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let queue = dataset.into_block_queue(cfg.block_size);
        let blocks: Vec<Block> = queue.iter().cloned().collect();
        Self::from_blocks_traced(blocks, dataset.dimension(), k, cfg, net, plan, recorder)
    }

    /// [`ColumnSgdEngine::new_traced`] with an explicit transport backend
    /// (see [`ColumnSgdEngine::from_blocks_clustered`]).
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::from_blocks_clustered`].
    ///
    /// # Panics
    /// Same contract as [`ColumnSgdEngine::new`].
    pub fn new_clustered(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let queue = dataset.into_block_queue(cfg.block_size);
        let blocks: Vec<Block> = queue.iter().cloned().collect();
        Self::from_blocks_clustered(
            blocks,
            dataset.dimension(),
            k,
            cfg,
            net,
            plan,
            recorder,
            cluster,
        )
    }

    /// Builds an engine from pre-cut blocks — the streaming loading path:
    /// feed blocks from `columnsgd_data::libsvm::BlockReader` without ever
    /// materializing a [`Dataset`].
    ///
    /// `dim` must cover every feature index in the blocks (use the
    /// reader's `dimension_bound` after exhaustion, or a known dimension).
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::new`].
    pub fn from_blocks(
        blocks: Vec<Block>,
        dim: u64,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
    ) -> Result<Self, TrainError> {
        Self::from_blocks_traced(blocks, dim, k, cfg, net, plan, Recorder::disabled())
    }

    /// [`ColumnSgdEngine::from_blocks`] with a telemetry [`Recorder`]
    /// attached (see [`ColumnSgdEngine::new_traced`]).
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::new`].
    ///
    /// # Panics
    /// Same contract as [`ColumnSgdEngine::from_blocks`].
    pub fn from_blocks_traced(
        blocks: Vec<Block>,
        dim: u64,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
    ) -> Result<Self, TrainError> {
        Self::from_blocks_clustered(
            blocks,
            dim,
            k,
            cfg,
            net,
            plan,
            recorder,
            &ClusterConfig::in_proc(),
        )
    }

    /// [`ColumnSgdEngine::from_blocks_traced`] with an explicit transport
    /// backend: in-process channels (threads) or loopback TCP (one child
    /// process per worker, spawned from the `columnsgd-worker` binary).
    ///
    /// Both backends run the identical protocol with identical seeding, so
    /// the loss curve, final model, and `TrafficStats` byte totals are
    /// bit-identical across them; only wall-clock behaviour differs.
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::new`], plus
    /// [`TrainError::LoadFailed`] when the TCP backend cannot spawn or
    /// connect its worker processes.
    #[expect(
        clippy::too_many_arguments,
        reason = "one backend knob on a wide constructor"
    )]
    pub fn from_blocks_clustered(
        blocks: Vec<Block>,
        dim: u64,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        assert!(!blocks.is_empty(), "cannot train on an empty block set");
        let mut cfg = cfg;
        if cfg.threads_per_worker == 0 {
            // Auto: one kernel thread per simulated core of the cluster
            // preset (2 on the paper's Cluster 1, 8 on Cluster 2).
            cfg.threads_per_worker = net.cores.max(1);
        }
        let _ = cfg.num_groups(k); // validate (S+1) | K early
        plan.validate(k).map_err(TrainError::InvalidPlan)?;
        recorder.set_pricing(net.link_pricing());
        recorder.begin(RunStamp {
            config_hash: cfg.fingerprint(),
            seed: cfg.seed,
            chaos_seed: plan.chaos.map(|c| c.seed),
            pool_width: cfg.threads_per_worker as u64,
            workers: k as u64,
        });
        // Backend identity rides on the trace meta line, *not* the
        // RunStamp: the run id must stay backend-agnostic so inproc and
        // TCP traces of the same run compare equal in `inspect diff`.
        match cluster.transport {
            TransportKind::InProc => recorder.set_backend("inproc", 0),
            TransportKind::Tcp => recorder.set_backend("tcp", k as u64),
        }
        let traced = recorder.is_enabled();
        let worker_recorder = recorder.clone();
        let traffic = TrafficStats::new();
        let mut ids = vec![NodeId::Master];
        ids.extend((0..k).map(NodeId::Worker));
        let (master, router, host) = match cluster.transport {
            TransportKind::InProc => {
                let (router, mut endpoints): (Router<ColMsg>, Vec<Endpoint<ColMsg>>) =
                    Router::with_recorder(&ids, traffic.clone(), plan.chaos, recorder);
                let master = endpoints.remove(0);
                let handles = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(w, ep)| {
                        Some(spawn_worker_thread(
                            ep,
                            w,
                            k,
                            dim,
                            cfg,
                            &plan,
                            worker_recorder.clone(),
                        ))
                    })
                    .collect();
                (master, router, WorkerHost::Threads { handles })
            }
            TransportKind::Tcp => {
                let workers: Vec<NodeId> = (0..k).map(NodeId::Worker).collect();
                let hub = TcpHub::<ColMsg>::bind(&[NodeId::Master], &workers)
                    .map_err(|e| TrainError::LoadFailed(format!("hub bind: {e}")))?;
                let router = Router::with_transport(
                    Arc::new(hub.clone()),
                    &ids,
                    traffic.clone(),
                    plan.chaos,
                    recorder,
                );
                let master = hub.local_endpoint(NodeId::Master, &router);
                hub.start(router.clone());
                let worker_bin = cluster
                    .worker_bin
                    .clone()
                    .map_or_else(default_worker_bin, Ok)
                    .map_err(TrainError::LoadFailed)?;
                let mut children = Vec::with_capacity(k);
                for w in 0..k {
                    let boot = BootSpec {
                        addr: hub.addr().to_string(),
                        worker: w,
                        k,
                        dim,
                        cfg,
                        script: WorkerScript::from_plan(&plan, w),
                        traced,
                    };
                    let child = spawn_worker_process(&worker_bin, &boot)
                        .map_err(|e| TrainError::LoadFailed(format!("worker {w}: {e}")))?;
                    children.push(Some(child));
                }
                let connect_wait = Duration::from_millis(cfg.deadline_ms.saturating_mul(10));
                hub.await_workers(&workers, connect_wait)
                    .map_err(TrainError::LoadFailed)?;
                (
                    master,
                    router,
                    WorkerHost::Processes {
                        hub,
                        children,
                        worker_bin,
                    },
                )
            }
        };
        Self::spawned(
            cfg, k, net, plan, master, router, host, traffic, blocks, dim,
        )
    }

    #[expect(clippy::too_many_arguments, reason = "internal assembly step")]
    fn spawned(
        cfg: ColumnSgdConfig,
        k: usize,
        net: NetworkModel,
        plan: FailurePlan,
        master: Endpoint<ColMsg>,
        router: Router<ColMsg>,
        host: WorkerHost,
        traffic: TrafficStats,
        blocks: Vec<Block>,
        dim: u64,
    ) -> Result<Self, TrainError> {
        // The master's label lookup indexes blocks by id; both producers
        // (Dataset::into_block_queue and libsvm::BlockReader) emit dense
        // sequential ids, and arbitrary ids would silently misattribute
        // batch labels — reject them loudly.
        for (pos, b) in blocks.iter().enumerate() {
            assert_eq!(
                b.id(),
                pos as u64,
                "blocks must carry dense sequential ids (0, 1, …)"
            );
        }
        let index = TwoPhaseIndex::new(blocks.iter().map(|b| (b.id(), b.nrows())), cfg.seed);
        let recorder = router.recorder().clone();
        let mut engine = Self {
            cfg,
            k,
            net,
            plan,
            master,
            router,
            host,
            traffic,
            recorder,
            monitor: Monitor::disabled(),
            metrics: None,
            metrics_last_traffic: (0, 0),
            pending: VecDeque::new(),
            blocks,
            index,
            dim,
            load_report: LoadReport {
                objects: 0,
                bytes: 0,
                sim_time_s: 0.0,
            },
        };
        engine.load_report = engine.load()?;
        // Chaos only applies from here on: losing a load message would
        // model an HDFS failure, outside the paper's fault model.
        engine.router.arm_chaos();
        Ok(engine)
    }

    /// The per-receive detection deadline.
    fn deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms)
    }

    /// The (longer) deadline for bulk transfers: loading and reloading
    /// move whole datasets, not single replies.
    fn bulk_deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms.saturating_mul(10))
    }

    /// Pops a buffered message, or waits on the mailbox until the
    /// *absolute* deadline.
    ///
    /// The deadline is an [`Instant`], not a per-call budget: callers set
    /// it once when they start (or make progress on) a barrier and pass
    /// the same value back on every retry. The old per-call `Duration`
    /// form restarted the full detection window on every received
    /// message, so a trickle of stray traffic (chaos duplicates, late
    /// replies from earlier iterations) could postpone fault detection
    /// indefinitely.
    fn recv_next(&mut self, deadline: Instant) -> Result<Envelope<ColMsg>, NetError> {
        if let Some(env) = self.pending.pop_front() {
            return Ok(env);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Timeout);
        }
        self.master.recv_timeout(left)
    }

    /// Runs the block-based dispatch: every block goes to a splitting
    /// worker (round-robin over idle workers), which shuffles CSR worksets
    /// to their owners; then barriers on every worker's LoadAck.
    fn load(&mut self) -> Result<LoadReport, TrainError> {
        self.traffic.reset();
        // Keep the trace reconciled with the meter: load-phase comm
        // records describe bytes the reset just forgot.
        self.recorder.clear_comm();
        for (i, block) in self.blocks.iter().enumerate() {
            let splitter = NodeId::Worker(i % self.k);
            self.master
                .send(splitter, ColMsg::LoadBlock(block.clone()))
                .map_err(|e| TrainError::LoadFailed(format!("block dispatch: {e}")))?;
        }
        for w in 0..self.k {
            self.master
                .send(
                    NodeId::Worker(w),
                    ColMsg::LoadDone {
                        blocks_total: self.blocks.len(),
                    },
                )
                .map_err(|e| TrainError::LoadFailed(format!("load-done marker: {e}")))?;
        }
        // Absolute deadline, refreshed on every acknowledged worker:
        // progress resets the clock, stray messages do not.
        let mut deadline = Instant::now() + self.bulk_deadline();
        let mut acks = 0;
        let mut reference_layout: Option<Vec<(u64, usize)>> = None;
        while acks < self.k {
            let env = self.recv_next(deadline).map_err(|e| {
                TrainError::LoadFailed(format!(
                    "only {acks}/{} workers acknowledged loading: {e}",
                    self.k
                ))
            })?;
            match env.payload {
                ColMsg::LoadAck { layout, .. } => {
                    // Every partition must expose the identical (block →
                    // rows) layout or two-phase sampling would diverge.
                    match &reference_layout {
                        None => reference_layout = Some(layout),
                        Some(r) if r == &layout => {}
                        Some(_) => {
                            return Err(TrainError::LoadFailed(
                                "divergent workset layouts across workers".to_string(),
                            ))
                        }
                    }
                    acks += 1;
                    deadline = Instant::now() + self.bulk_deadline();
                }
                other => {
                    eprintln!("master: dropping unexpected {} during load", other.name());
                }
            }
        }
        Ok(self.price_load())
    }

    /// Prices the metered loading traffic into a simulated makespan.
    ///
    /// The master's outgoing block stream models the HDFS read; HDFS is a
    /// *distributed* store whose datanodes serve the K workers in
    /// parallel, so the source is not a serial lane — only worker lanes
    /// (their HDFS share plus the workset shuffle) bound the makespan.
    fn price_load(&self) -> LoadReport {
        let total = self.traffic.total();
        let mut worst = 0.0f64;
        for node in (0..self.k).map(NodeId::Worker) {
            let sent = self.traffic.sent_by(node);
            let recv = self.traffic.received_by(node);
            let lane = (sent.bytes + recv.bytes) as f64 / self.net.bandwidth_bytes_per_s
                + (sent.messages + recv.messages) as f64 * PER_OBJECT_S;
            worst = worst.max(lane);
        }
        LoadReport {
            objects: total.messages,
            bytes: total.bytes,
            sim_time_s: worst + self.net.latency_s,
        }
    }

    /// The loading cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.k
    }

    /// Labels of the iteration-`t` batch, computed master-side from its
    /// replica of the two-phase index (free: the master built the blocks).
    fn batch_labels(&self, iteration: u64) -> Vec<f64> {
        self.index
            .sample_batch(iteration, self.cfg.batch_size)
            .into_iter()
            .map(|addr| self.blocks[addr.block as usize].csr().label(addr.offset))
            .collect()
    }

    /// Increments a worker's attempt counter, failing when the retry
    /// budget (`max_task_retries`) is exhausted.
    fn bump_attempts(&self, t: u64, w: usize, attempts: &mut [u64]) -> Result<(), TrainError> {
        attempts[w] += 1;
        if attempts[w] > self.cfg.max_task_retries {
            return Err(TrainError::RetriesExhausted {
                iteration: t,
                worker: w,
                attempts: attempts[w],
            });
        }
        Ok(())
    }

    /// Sends `ComputeStats` to worker `w`. A dead mailbox is a detected
    /// worker failure: respawn, reload, log, and retry the send.
    fn issue_compute(
        &mut self,
        t: u64,
        w: usize,
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
    ) -> Result<(), TrainError> {
        loop {
            let msg = ColMsg::ComputeStats {
                iteration: t,
                batch_size: self.cfg.batch_size,
                attempt: attempts[w],
            };
            if self.master.send(NodeId::Worker(w), msg).is_ok() {
                return Ok(());
            }
            let cost = self.respawn_worker(t, w)?;
            *charge += cost;
            self.note_recovery(
                RecoveryEvent {
                    iteration: t,
                    worker: w,
                    fault: FaultKind::WorkerFailure,
                    detection: DetectionMethod::SendFailure,
                    detection_latency_s: issued.elapsed().as_secs_f64(),
                    recovery_cost_s: cost,
                    attempt: attempts[w],
                },
                recovery,
            );
            self.bump_attempts(t, w, attempts)?;
        }
    }

    /// Whether the pending buffer already carries direct evidence about
    /// worker `w` at iteration `t` (so probing it would be redundant).
    fn pending_has_evidence(&self, t: u64, w: usize) -> bool {
        self.pending.iter().any(|env| match &env.payload {
            ColMsg::StatsReply {
                iteration, worker, ..
            }
            | ColMsg::UpdateAck {
                iteration, worker, ..
            } => *iteration == t && *worker == w,
            ColMsg::WorkerPanic { worker, .. } => *worker == w,
            _ => false,
        })
    }

    /// Probes a silent worker over the reliable control plane to classify
    /// the missing reply: task failure (alive and loaded) or worker
    /// failure (unloaded, unreachable, or silent).
    fn probe_worker(&mut self, t: u64, w: usize) -> Result<Probed, TrainError> {
        if self
            .master
            .send_reliable(NodeId::Worker(w), ColMsg::Probe { iteration: t })
            .is_err()
        {
            return Ok(Probed::Dead);
        }
        let wait = self.deadline();
        let start = Instant::now();
        loop {
            let left = wait.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Ok(Probed::Dead);
            }
            match self.master.recv_timeout(left) {
                Ok(env) => match &env.payload {
                    ColMsg::ProbeAck {
                        worker,
                        iteration,
                        loaded,
                    } if *worker == w && *iteration == t => {
                        return Ok(Probed::Alive { loaded: *loaded });
                    }
                    // A stale probe answer from an earlier round: drop.
                    ColMsg::ProbeAck { .. } => {}
                    ColMsg::WorkerPanic { worker, .. } if *worker == w => {
                        self.pending.push_back(env);
                        return Ok(Probed::Deferred);
                    }
                    ColMsg::StatsReply {
                        iteration, worker, ..
                    }
                    | ColMsg::UpdateAck {
                        iteration, worker, ..
                    } if *iteration == t && *worker == w => {
                        // The answer was merely slow; let the main loop
                        // consume it.
                        self.pending.push_back(env);
                        return Ok(Probed::Deferred);
                    }
                    _ => self.pending.push_back(env),
                },
                Err(NetError::Timeout) => return Ok(Probed::Dead),
                Err(e) => {
                    return Err(TrainError::Network {
                        iteration: t,
                        source: e,
                    })
                }
            }
        }
    }

    /// Runs the full training loop (Algorithm 3) and returns the outcome.
    ///
    /// # Errors
    /// Returns [`TrainError::RetriesExhausted`] when one worker's task
    /// keeps failing past the retry budget, [`TrainError::WorkerLost`]
    /// when a worker cannot be brought back, and [`TrainError::Network`]
    /// if the master's own mailbox fails.
    pub fn train(&mut self) -> Result<TrainOutcome, TrainError> {
        let out = self.train_inner();
        if let Err(e) = &out {
            // Terminal errors join the telemetry fault stream as
            // `fatal: true` records — one unified vocabulary for
            // recovered and unrecoverable faults.
            self.recorder.fault(e.to_fault_record());
        }
        out
    }

    /// Logs a recovered fault on both ledgers: the outcome's recovery log
    /// and the telemetry fault stream.
    fn note_recovery(&self, ev: RecoveryEvent, recovery: &mut Vec<RecoveryEvent>) {
        self.recorder.fault(ev.to_fault_record());
        recovery.push(ev);
    }

    fn train_inner(&mut self) -> Result<TrainOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new("ColumnSGD");
        let mut recovery: Vec<RecoveryEvent> = Vec::new();
        let width = self.cfg.model.stats_width();
        let stats_len = self.cfg.batch_size * width;
        let detect = self.deadline();

        for t in 0..self.cfg.iterations {
            let issued = Instant::now();
            let mut attempts = vec![0u64; self.k];
            // Simulated seconds spent on detection waits and reloads this
            // iteration, charged to the clock as pure overhead.
            let mut charge = 0.0f64;

            // --- step 1: computeStatistics -----------------------------
            {
                let _prof = ProfScope::enter("issue");
                for w in 0..self.k {
                    self.issue_compute(t, w, &mut attempts, &issued, &mut recovery, &mut charge)?;
                }
            }

            // --- step 2: gather + reduce -------------------------------
            let mut partials: HashMap<usize, Vec<f64>> = HashMap::new();
            let mut compute_times = vec![0.0f64; self.k];
            // Telemetry-only: the sampling/assembly slice of each worker's
            // compute time. Barrier and straggler math stay on the totals.
            let mut sample_times = vec![0.0f64; self.k];
            // S-backup lets the master *excuse* a crashed group member from
            // the gather barrier: a surviving replica's reply covers the
            // whole group (§IV-B), so the superstep completes without
            // waiting for the respawned worker's redundant answer — and
            // without ever reaching the deadline path.
            let backed_up = self.cfg.backup_s > 0;
            let mut excused = vec![false; self.k];
            // Absolute detection deadline: reset on progress (a folded
            // reply, a handled panic, a completed recovery), never on
            // stray traffic. Wall-clock across the whole barrier is kept
            // as the *measured* gather time for transport cross-checks.
            let prof_gather = ProfScope::enter("gather");
            let gather_started = Instant::now();
            let mut wait_until = gather_started + detect;
            while (0..self.k).any(|w| !excused[w] && !partials.contains_key(&w)) {
                match self.recv_next(wait_until) {
                    Ok(env) => match env.payload {
                        ColMsg::StatsReply {
                            iteration,
                            worker,
                            partial,
                            compute_s,
                            sample_s,
                            task_failed,
                        } if iteration == t => {
                            wait_until = Instant::now() + detect;
                            let failed = fold_stats_reply(
                                &mut partials,
                                &mut compute_times,
                                &mut sample_times,
                                worker,
                                partial,
                                compute_s,
                                sample_s,
                                task_failed,
                            );
                            if failed {
                                // §X task failure: "start a new task … no
                                // additional work on data loading is
                                // required."
                                self.note_recovery(
                                    RecoveryEvent {
                                        iteration: t,
                                        worker,
                                        fault: FaultKind::TaskFailure,
                                        detection: DetectionMethod::ErrorReply,
                                        detection_latency_s: issued.elapsed().as_secs_f64(),
                                        recovery_cost_s: 0.0,
                                        attempt: attempts[worker],
                                    },
                                    &mut recovery,
                                );
                                self.bump_attempts(t, worker, &mut attempts)?;
                                self.issue_compute(
                                    t,
                                    worker,
                                    &mut attempts,
                                    &issued,
                                    &mut recovery,
                                    &mut charge,
                                )?;
                            }
                        }
                        // A late reply from an earlier iteration: drop.
                        ColMsg::StatsReply { .. } => {}
                        ColMsg::WorkerPanic { worker, .. } => {
                            wait_until = Instant::now() + detect;
                            let cost = self.respawn_worker(t, worker)?;
                            charge += cost;
                            self.note_recovery(
                                RecoveryEvent {
                                    iteration: t,
                                    worker,
                                    fault: FaultKind::WorkerFailure,
                                    detection: DetectionMethod::PanicReport,
                                    detection_latency_s: issued.elapsed().as_secs_f64(),
                                    recovery_cost_s: cost,
                                    attempt: attempts[worker],
                                },
                                &mut recovery,
                            );
                            self.bump_attempts(t, worker, &mut attempts)?;
                            // Its model partition was re-initialized; any
                            // pre-crash partial no longer matches it — and
                            // neither does its charged compute time (only
                            // the attempt actually counted may be billed).
                            discard_partial(
                                &mut partials,
                                &mut compute_times,
                                &mut sample_times,
                                worker,
                            );
                            let r = self.cfg.backup_s + 1;
                            let g = worker / r;
                            if backed_up && (g * r..(g + 1) * r).any(|m| m != worker && !excused[m])
                            {
                                // A surviving replica answers for the group;
                                // don't hold the barrier for the respawn.
                                // The fresh task below still runs so the
                                // worker can apply this iteration's update.
                                excused[worker] = true;
                            }
                            self.issue_compute(
                                t,
                                worker,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                            )?;
                        }
                        // Stray control answers from resolved recoveries.
                        ColMsg::ProbeAck { .. } | ColMsg::UpdateAck { .. } => {}
                        other => {
                            eprintln!("master: dropping unexpected {} during gather", other.name());
                        }
                    },
                    Err(NetError::Timeout) => {
                        // Detection: deadline expired with replies missing.
                        charge += detect.as_secs_f64();
                        let missing: Vec<usize> = (0..self.k)
                            .filter(|&w| !excused[w] && !partials.contains_key(&w))
                            .collect();
                        for w in missing {
                            if self.pending_has_evidence(t, w) {
                                continue;
                            }
                            self.recover_silent(
                                t,
                                w,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                                None,
                            )?;
                        }
                        wait_until = Instant::now() + detect;
                    }
                    Err(e) => {
                        return Err(TrainError::Network {
                            iteration: t,
                            source: e,
                        })
                    }
                }
            }

            let gather_wall = gather_started.elapsed().as_secs_f64();
            drop(prof_gather);

            // Straggler injection (§V-C methodology). StragglerLevel is
            // "the ratio between the extra time a straggler needs to
            // finish a task and the time that a non-straggler worker
            // needs" — a *task* pays both compute and the per-task
            // executor overhead, so the inflation applies to their sum
            // (the extra time then lands on the barrier).
            let straggler = self.plan.straggler.map(|s| {
                let victim = s.pick(t, self.k);
                let task = compute_times[victim] + self.net.scheduling_overhead_s;
                compute_times[victim] += (s.factor() - 1.0) * task;
                victim
            });

            // Effective statistics-phase time under S-backup: the master
            // can proceed once the *fastest replica of every group* has
            // answered; slower replicas (stragglers) are killed (§IV-B).
            // Extension: without backup, stale-statistics mode lets the
            // master abandon the straggler's partial entirely.
            let stale_victim = match (self.cfg.staleness, straggler) {
                (Some(mode), Some(v)) if !backed_up => Some((mode, v)),
                _ => None,
            };
            let prof_reduce = ProfScope::enter("reduce");
            let groups = self.cfg.num_groups(self.k);
            let mut stat_phase = 0.0f64;
            let mut counted: Vec<usize> = Vec::with_capacity(self.k);
            for g in 0..groups {
                let members: Vec<usize> =
                    (g * (self.cfg.backup_s + 1)..(g + 1) * (self.cfg.backup_s + 1)).collect();
                if let Some((_, v)) = stale_victim {
                    if members == [v] {
                        continue; // abandoned; neither waited for nor counted
                    }
                }
                let fastest = members
                    .iter()
                    .copied()
                    .filter(|m| partials.contains_key(m))
                    .min_by(|&a, &b| compute_times[a].total_cmp(&compute_times[b]))
                    .ok_or_else(|| {
                        TrainError::Internal(format!("backup group {g} has no surviving partial"))
                    })?;
                stat_phase = stat_phase.max(compute_times[fastest]);
                // Everyone who is not a killed straggler transmits; an
                // excused crash never answered, so it transmits nothing.
                for &m in &members {
                    if !partials.contains_key(&m) {
                        continue;
                    }
                    if backed_up && straggler == Some(m) && m != fastest {
                        continue; // killed before transmitting
                    }
                    counted.push(m);
                }
            }

            // Aggregate: one replica per group (they are bit-identical).
            let mut agg = vec![0.0; stats_len];
            for g in 0..groups {
                let rep = self.group_representative(g, &compute_times, &partials);
                if let Some((_, v)) = stale_victim {
                    if rep == v {
                        continue;
                    }
                }
                let partial = partials.get(&rep).ok_or_else(|| {
                    TrainError::Internal(format!(
                        "group {g} representative {rep} has no partial at iteration {t}"
                    ))
                })?;
                reduce_stats(&mut agg, partial);
            }
            if let Some((crate::config::StaleStats::DropRescaled, _)) = stale_victim {
                // Compensate the missing partition: unbiased in expectation
                // under round-robin partitioning.
                let scale = self.k as f64 / (self.k - 1).max(1) as f64;
                for v in agg.iter_mut() {
                    *v *= scale;
                }
            }
            drop(prof_reduce);

            // --- step 3: broadcast + updateModel ------------------------
            // In stale mode the abandoned straggler also skips the update
            // (its partition goes stale for this iteration).
            let prof_bcast = ProfScope::enter("broadcast");
            let updaters: Vec<usize> = (0..self.k)
                .filter(|&w| stale_victim.is_none_or(|(_, v)| v != w))
                .collect();
            for &w in &updaters {
                self.issue_update(
                    t,
                    w,
                    &agg,
                    &mut attempts,
                    &issued,
                    &mut recovery,
                    &mut charge,
                )?;
            }
            let mut update_times = vec![0.0f64; self.k];
            let mut acked = vec![false; self.k];
            let mut acks = 0;
            let bcast_started = Instant::now();
            let mut wait_until = bcast_started + detect;
            while acks < updaters.len() {
                match self.recv_next(wait_until) {
                    Ok(env) => match env.payload {
                        ColMsg::UpdateAck {
                            iteration,
                            worker,
                            compute_s,
                        } if iteration == t => {
                            if !acked[worker] {
                                acked[worker] = true;
                                update_times[worker] = compute_s;
                                acks += 1;
                                wait_until = Instant::now() + detect;
                            }
                        }
                        // Stale acks, rebuild replies, stray probe answers.
                        ColMsg::UpdateAck { .. }
                        | ColMsg::StatsReply { .. }
                        | ColMsg::ProbeAck { .. } => {}
                        ColMsg::WorkerPanic { worker, .. } => {
                            wait_until = Instant::now() + detect;
                            let cost = self.respawn_worker(t, worker)?;
                            charge += cost;
                            self.note_recovery(
                                RecoveryEvent {
                                    iteration: t,
                                    worker,
                                    fault: FaultKind::WorkerFailure,
                                    detection: DetectionMethod::PanicReport,
                                    detection_latency_s: issued.elapsed().as_secs_f64(),
                                    recovery_cost_s: cost,
                                    attempt: attempts[worker],
                                },
                                &mut recovery,
                            );
                            self.bump_attempts(t, worker, &mut attempts)?;
                            if !acked[worker] {
                                self.resequence_update(t, worker, &agg, attempts[worker]);
                            }
                            // If the ack was already counted, the applied
                            // update died with the worker — exactly the §X
                            // data-loss semantics; nothing to re-await.
                        }
                        other => {
                            eprintln!("master: dropping unexpected {} during update", other.name());
                        }
                    },
                    Err(NetError::Timeout) => {
                        charge += detect.as_secs_f64();
                        let silent: Vec<usize> =
                            updaters.iter().copied().filter(|&w| !acked[w]).collect();
                        for w in silent {
                            if self.pending_has_evidence(t, w) {
                                continue;
                            }
                            self.recover_silent(
                                t,
                                w,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                                Some(&agg),
                            )?;
                        }
                        wait_until = Instant::now() + detect;
                    }
                    Err(e) => {
                        return Err(TrainError::Network {
                            iteration: t,
                            source: e,
                        })
                    }
                }
            }
            let bcast_wall = bcast_started.elapsed().as_secs_f64();
            drop(prof_bcast);
            if let (Some(victim), Some(s)) = (straggler, self.plan.straggler) {
                if !backed_up {
                    update_times[victim] *= s.factor();
                }
                // With backup the straggler was killed; its model partition
                // is also held by its replicas, so nobody waits for it.
            }
            let upd_phase = if backed_up {
                // Per group, the fastest replica's update suffices.
                (0..groups)
                    .map(|g| {
                        (g * (self.cfg.backup_s + 1)..(g + 1) * (self.cfg.backup_s + 1))
                            .filter(|&m| Some(m) != straggler)
                            .map(|m| update_times[m])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .fold(0.0, f64::max)
            } else {
                update_times.iter().copied().fold(0.0, f64::max)
            };

            // --- pricing -------------------------------------------------
            // Analytic wire sizes: every counted reply carries stats_len
            // scalars, so no throwaway message (or clone of `agg`) is ever
            // materialized just to measure it. The analytic helpers are
            // pinned equal to `wire_size()` by test.
            let reply_bytes = (ColMsg::stats_reply_wire_size(stats_len) + ENVELOPE_BYTES) as u64;
            let bcast_bytes = (ColMsg::update_wire_size(agg.len()) + ENVELOPE_BYTES) as u64;
            let gather_s = self.net.gather_time_uniform(reply_bytes, counted.len());
            let bcast_s = self.net.broadcast_time(bcast_bytes, updaters.len());
            let comm = gather_s + bcast_s;

            if self.recorder.is_enabled() {
                self.emit_superstep(
                    t,
                    &sample_times,
                    &compute_times,
                    stat_phase,
                    (gather_s, gather_wall),
                    (bcast_s, bcast_wall),
                    &update_times,
                    upd_phase,
                    charge,
                    counted.len(),
                );
            }

            let loss = self.cfg.model.loss_from_stats(&self.batch_labels(t), &agg);
            if charge > 0.0 {
                clock.charge(charge);
            }
            clock.record(IterationTime {
                compute_s: stat_phase + upd_phase,
                comm_s: comm,
                overhead_s: self.net.scheduling_overhead_s,
            });
            curve.push(t, clock.elapsed_s(), loss);
            if self.metrics.is_some() {
                self.export_metrics(loss, clock.elapsed_s(), &compute_times, stat_phase);
            }
            // Live tail: append this superstep's merged events to the
            // attached trace file (no-op unless a sink is attached). A full
            // disk must not kill training.
            let _ = self.recorder.flush_live();

            if self.monitor.is_enabled() {
                // The straggler detector sees the post-injection compute
                // times (what the barrier actually paid); the comm gauge
                // sees cumulative sent bytes and differences them itself.
                let sent: Vec<u64> = self
                    .traffic
                    .per_worker_sent(self.k)
                    .iter()
                    .map(|s| s.bytes)
                    .collect();
                self.monitor.observe_superstep(SuperstepObs {
                    iteration: t,
                    compute: &compute_times,
                    sent_bytes: &sent,
                    loss,
                    sim_elapsed_s: clock.elapsed_s(),
                });
                if let Some(reason) = self.monitor.should_stop() {
                    // The loss guard tripped: surface it through the typed
                    // error machinery so callers and telemetry see one
                    // unified fatal-fault vocabulary.
                    return Err(TrainError::Diverged {
                        iteration: t,
                        reason,
                    });
                }
            }
        }

        // Fold the master-side profiler accumulation (engine phases, codec,
        // kernel scopes on hub threads) into the trace as `prof` events.
        // Worker-side samples already arrived through the telemetry channel,
        // causally ordered before each superstep's barrier replies. A no-op
        // unless both tracing and profiling are enabled.
        self.recorder.prof_drain(None);

        if self.recorder.is_enabled() {
            // Tentpole invariant: the trace's comm records must reconcile
            // *exactly* with the router's byte meter — one `CommRecord`
            // per metered delivery, by construction.
            let s = self.recorder.summary();
            let total = self.traffic.total();
            assert_eq!(
                (s.comm_bytes, s.comm_messages),
                (total.bytes, total.messages),
                "telemetry comm records diverge from router metering"
            );
        }

        Ok(TrainOutcome {
            curve,
            clock,
            recovery,
            run: self.run_stamp(),
            diagnostics: self.monitor.report(),
        })
    }

    /// The identity stamp describing this engine's run (also written on
    /// every telemetry record when tracing is enabled).
    pub fn run_stamp(&self) -> RunStamp {
        RunStamp {
            config_hash: self.cfg.fingerprint(),
            seed: self.cfg.seed,
            chaos_seed: self.plan.chaos.map(|c| c.seed),
            pool_width: self.cfg.threads_per_worker as u64,
            workers: self.k as u64,
        }
    }

    /// The attached telemetry recorder (disabled unless the engine was
    /// built with a `*_traced` constructor).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attaches an online diagnostics [`Monitor`]: every superstep's
    /// post-barrier observations (per-worker compute, cumulative sent
    /// bytes, batch loss) are fed through its streaming detectors, and a
    /// stop request becomes [`TrainError::Diverged`].
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.monitor = monitor;
    }

    /// The attached diagnostics monitor (disabled unless
    /// [`ColumnSgdEngine::attach_monitor`] was called).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Attaches a [`MetricsRegistry`]: registers the engine's metric
    /// families and, from then on, exports one sample set per superstep
    /// from observations the engine already collects — the data plane is
    /// never metered twice.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        metrics.register_counter("columnsgd_supersteps_total", "Completed supersteps.");
        metrics.register_gauge("columnsgd_loss", "Batch loss at the latest superstep.");
        metrics.register_gauge(
            "columnsgd_sim_elapsed_seconds",
            "Simulated seconds elapsed on the cost-model clock.",
        );
        metrics.register_gauge(
            "columnsgd_worker_compute_seconds",
            "Latest statistics-phase compute seconds, per worker.",
        );
        metrics.register_gauge(
            "columnsgd_monitor_alarms_total",
            "Diagnostics alarms raised so far (0 unless a monitor is attached).",
        );
        metrics.register_counter(
            "columnsgd_comm_bytes_total",
            "Bytes metered by the router across all deliveries.",
        );
        metrics.register_counter(
            "columnsgd_comm_messages_total",
            "Messages metered by the router across all deliveries.",
        );
        metrics.register_histogram(
            "columnsgd_superstep_compute_seconds",
            "Effective statistics-phase (barrier) seconds per superstep.",
            &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
        );
        self.metrics = Some(metrics);
    }

    /// Per-superstep metrics export. Counters take deltas against the
    /// cumulative router meter; everything else is a point sample of
    /// state the superstep already computed.
    fn export_metrics(
        &mut self,
        loss: f64,
        sim_elapsed_s: f64,
        compute_times: &[f64],
        stat_phase: f64,
    ) {
        let Some(m) = &self.metrics else { return };
        m.counter_add("columnsgd_supersteps_total", &[], 1.0);
        m.gauge_set("columnsgd_loss", &[], loss);
        m.gauge_set("columnsgd_sim_elapsed_seconds", &[], sim_elapsed_s);
        for (w, &c) in compute_times.iter().enumerate() {
            let label = w.to_string();
            m.gauge_set("columnsgd_worker_compute_seconds", &[("worker", &label)], c);
        }
        m.histogram_observe("columnsgd_superstep_compute_seconds", &[], stat_phase);
        let total = self.traffic.total();
        let (last_bytes, last_msgs) = self.metrics_last_traffic;
        m.counter_add(
            "columnsgd_comm_bytes_total",
            &[],
            total.bytes.saturating_sub(last_bytes) as f64,
        );
        m.counter_add(
            "columnsgd_comm_messages_total",
            &[],
            total.messages.saturating_sub(last_msgs) as f64,
        );
        self.metrics_last_traffic = (total.bytes, total.messages);
        if self.monitor.is_enabled() {
            m.gauge_set(
                "columnsgd_monitor_alarms_total",
                &[],
                self.monitor.report().total() as f64,
            );
        }
    }

    /// Emits the six per-iteration [`SuperstepSpan`]s plus the
    /// [`KernelRecord`] for the statistics kernel. Sample is an
    /// informational *subset* of compute (same timer); gather/broadcast
    /// carry both the modeled time (from metered bytes) and the measured
    /// wall-clock the master actually spent on the barrier — the
    /// `transport_xval` experiment compares the two across backends;
    /// overhead folds in the scheduling constant plus this iteration's
    /// recovery charge, so the six spans sum to exactly the clock's delta
    /// for the iteration.
    #[expect(clippy::too_many_arguments, reason = "iteration-local measurements")]
    fn emit_superstep(
        &self,
        t: u64,
        sample_times: &[f64],
        compute_times: &[f64],
        stat_phase: f64,
        gather: (f64, f64),
        bcast: (f64, f64),
        update_times: &[f64],
        upd_phase: f64,
        charge: f64,
        counted_workers: usize,
    ) {
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
        let spans = [
            (Phase::Sample, max(sample_times), 0.0, sample_times),
            (Phase::Compute, stat_phase, 0.0, compute_times),
            (Phase::Gather, gather.0, gather.1, &[] as &[f64]),
            (Phase::Broadcast, bcast.0, bcast.1, &[]),
            (Phase::Update, upd_phase, 0.0, update_times),
            (
                Phase::Overhead,
                self.net.scheduling_overhead_s + charge,
                0.0,
                &[],
            ),
        ];
        for (phase, sim_s, wall_s, per_worker) in spans {
            self.recorder.superstep(SuperstepSpan {
                iteration: t,
                phase,
                sim_s,
                measured_s: if phase.is_timer_derived() {
                    sim_s
                } else {
                    wall_s
                },
                per_worker: per_worker.to_vec(),
            });
        }
        self.recorder.kernel(KernelRecord {
            iteration: t,
            model: self.cfg.model.label().to_string(),
            batch_size: self.cfg.batch_size as u64,
            pool_width: self.cfg.threads_per_worker as u64,
            flops_proxy: self
                .cfg
                .model
                .flops_proxy(self.cfg.batch_size, counted_workers),
            worker: None,
        });
    }

    /// Probe-classify-recover for one silent worker. `agg` is `Some`
    /// during the update phase (recovery must re-drive the update) and
    /// `None` during the gather phase (recovery re-issues the task).
    #[expect(clippy::too_many_arguments, reason = "iteration-local recovery state")]
    fn recover_silent(
        &mut self,
        t: u64,
        w: usize,
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
        agg: Option<&[f64]>,
    ) -> Result<(), TrainError> {
        let (fault, cost) = match self.probe_worker(t, w)? {
            Probed::Deferred => return Ok(()),
            Probed::Alive { loaded: true } => (FaultKind::TaskFailure, 0.0),
            Probed::Alive { loaded: false } => {
                let cost = self.reload_worker(t, w)? + self.restore_params(t, w)?;
                *charge += cost;
                (FaultKind::WorkerFailure, cost)
            }
            Probed::Dead => {
                let cost = self.respawn_worker(t, w)?;
                *charge += cost;
                (FaultKind::WorkerFailure, cost)
            }
        };
        self.note_recovery(
            RecoveryEvent {
                iteration: t,
                worker: w,
                fault,
                detection: DetectionMethod::Timeout,
                detection_latency_s: issued.elapsed().as_secs_f64(),
                recovery_cost_s: cost,
                attempt: attempts[w],
            },
            recovery,
        );
        self.bump_attempts(t, w, attempts)?;
        match agg {
            None => self.issue_compute(t, w, attempts, issued, recovery, charge)?,
            Some(agg) => self.resequence_update(t, w, agg, attempts[w]),
        }
        Ok(())
    }

    /// Re-drives worker `w` through iteration `t`'s update: a fresh
    /// `ComputeStats` (idempotently re-samples the batch; its reply is
    /// discarded) followed by the `Update`. A worker that already applied
    /// the update simply re-acks.
    fn resequence_update(&mut self, t: u64, w: usize, agg: &[f64], attempt: u64) {
        // Send failures here mean the worker died between the probe and
        // now; the next deadline round detects and handles it.
        let _ = self.master.send(
            NodeId::Worker(w),
            ColMsg::ComputeStats {
                iteration: t,
                batch_size: self.cfg.batch_size,
                attempt,
            },
        );
        let _ = self.master.send(
            NodeId::Worker(w),
            ColMsg::Update {
                iteration: t,
                stats: agg.to_vec(),
            },
        );
    }

    /// Sends `Update` to worker `w`; a dead mailbox is detected, the
    /// worker respawned and re-driven through the iteration.
    #[expect(clippy::too_many_arguments, reason = "iteration-local recovery state")]
    fn issue_update(
        &mut self,
        t: u64,
        w: usize,
        agg: &[f64],
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
    ) -> Result<(), TrainError> {
        let msg = ColMsg::Update {
            iteration: t,
            stats: agg.to_vec(),
        };
        if self.master.send(NodeId::Worker(w), msg).is_ok() {
            return Ok(());
        }
        let cost = self.respawn_worker(t, w)?;
        *charge += cost;
        self.note_recovery(
            RecoveryEvent {
                iteration: t,
                worker: w,
                fault: FaultKind::WorkerFailure,
                detection: DetectionMethod::SendFailure,
                detection_latency_s: issued.elapsed().as_secs_f64(),
                recovery_cost_s: cost,
                attempt: attempts[w],
            },
            recovery,
        );
        self.bump_attempts(t, w, attempts)?;
        self.resequence_update(t, w, agg, attempts[w]);
        Ok(())
    }

    /// Deterministic group representative: the fastest member *that
    /// answered* (ties break to the lowest id) — an excused crash has no
    /// partial and can never represent its group. `total_cmp` keeps the
    /// ordering total even if a simulated time were NaN, so no panic path
    /// exists here; the empty set cannot occur (the gather barrier
    /// guarantees a partial per group) but falls back to the group's first
    /// slot rather than unwrapping.
    fn group_representative(
        &self,
        g: usize,
        times: &[f64],
        partials: &HashMap<usize, Vec<f64>>,
    ) -> usize {
        let r = self.cfg.backup_s + 1;
        (g * r..(g + 1) * r)
            .filter(|m| partials.contains_key(m))
            .min_by(|&a, &b| times[a].total_cmp(&times[b]).then(a.cmp(&b)))
            .unwrap_or(g * r)
    }

    /// Brings a dead worker back: replaces its mailbox (draining any
    /// abandoned queued messages into the drop ledger), reaps the dead
    /// thread or child process, discards its stale panic notice, spawns a
    /// fresh supervised incarnation, and streams the partition reload.
    /// Returns the priced reload time.
    fn respawn_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let respawn_wait = self.bulk_deadline();
        self.host.respawn(
            &self.router,
            t,
            w,
            self.k,
            self.dim,
            &self.cfg,
            &self.plan,
            respawn_wait,
        )?;
        // The dead incarnation exited before respawn returned, so any
        // panic notice it sent is already queued — drop it, it describes
        // the old incarnation. The fresh one cannot have panicked yet (it
        // has not been handed a compute task).
        let stale = |env: &Envelope<ColMsg>| matches!(&env.payload, ColMsg::WorkerPanic { worker, .. } if *worker == w);
        self.pending.retain(|env| !stale(env));
        let mut kept = Vec::new();
        while let Some(env) = self.master.try_recv() {
            if !stale(&env) {
                kept.push(env);
            }
        }
        self.pending.extend(kept);

        let reload = self.reload_worker(t, w)?;
        let restore = self.restore_params(t, w)?;
        Ok(reload + restore)
    }

    /// After a crash reload, the worker's data is back but its model
    /// partitions are re-initialized (§X: the reload rebuilds data, not
    /// parameters). Under S-backup a surviving replica of the group holds
    /// the *current* parameters for the same partitions — fetch them and
    /// install them on the respawned worker, so it rejoins at the group's
    /// trained state instead of drifting from init. Without backup there is
    /// no surviving copy and the paper's restart-from-reset semantics
    /// stand. Returns the priced restore time (0 when no donor exists).
    fn restore_params(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        if self.cfg.backup_s == 0 {
            return Ok(0.0);
        }
        let r = self.cfg.backup_s + 1;
        let g = w / r;
        for donor in (g * r..(g + 1) * r).filter(|&m| m != w) {
            if self
                .master
                .send_reliable(NodeId::Worker(donor), ColMsg::FetchModel)
                .is_err()
            {
                continue;
            }
            let wait = self.bulk_deadline();
            let start = Instant::now();
            let parts = loop {
                let left = wait.saturating_sub(start.elapsed());
                if left.is_zero() {
                    break None;
                }
                match self.master.recv_timeout(left) {
                    Ok(env) => match env.payload {
                        ColMsg::ModelReply { worker, parts } if worker == donor => {
                            break Some(parts)
                        }
                        // In-flight training traffic; keep for the caller.
                        _ => self.pending.push_back(env),
                    },
                    Err(NetError::Timeout) => break None,
                    Err(e) => {
                        return Err(TrainError::Network {
                            iteration: t,
                            source: e,
                        })
                    }
                }
            };
            let Some(parts) = parts else {
                continue; // this donor is wedged; try the next replica
            };
            // Priced analytically from the protocol's wire sizes: the
            // fetch request, the donor's reply, and the install push.
            let parts_bytes: usize = parts.iter().map(|(_, p)| 8 + p.wire_size()).sum();
            let bytes = (1 + ENVELOPE_BYTES) // FetchModel is a bare tag
                + (1 + 8 + 8 + parts_bytes + ENVELOPE_BYTES)
                + (1 + 8 + parts_bytes + ENVELOPE_BYTES);
            self.master
                .send_reliable(NodeId::Worker(w), ColMsg::InstallParams { parts })
                .map_err(|e| TrainError::WorkerLost {
                    worker: w,
                    iteration: t,
                    detail: format!("parameter restore failed: {e}"),
                })?;
            return Ok(bytes as f64 / self.net.bandwidth_bytes_per_s
                + 3.0 * PER_OBJECT_S
                + 2.0 * self.net.latency_s);
        }
        // Every replica of the group is unreachable: keep the reset
        // parameters (the no-backup semantics) rather than failing the run.
        eprintln!(
            "master: no replica of group {g} answered FetchModel; \
             worker {w} rejoins with reset parameters"
        );
        Ok(0.0)
    }

    /// Worker-failure recovery (§X): wipe the worker, stream every block
    /// back to it for re-splitting, and return the priced reload time.
    /// Runs on the reliable control plane — recovery of a fault must not
    /// itself be chaos-injected, or injection and recovery never converge.
    fn reload_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let node = NodeId::Worker(w);
        let lost = |e: NetError| TrainError::WorkerLost {
            worker: w,
            iteration: t,
            detail: format!("reload stream failed: {e}"),
        };
        let before = self.traffic.received_by(node);
        self.master.send_reliable(node, ColMsg::Die).map_err(lost)?;
        for block in &self.blocks {
            self.master
                .send_reliable(node, ColMsg::ReloadBlock(block.clone()))
                .map_err(lost)?;
        }
        self.master
            .send_reliable(
                node,
                ColMsg::ReloadDone {
                    blocks_total: self.blocks.len(),
                },
            )
            .map_err(lost)?;
        let wait = self.bulk_deadline();
        let start = Instant::now();
        loop {
            let left = wait.saturating_sub(start.elapsed());
            if left.is_zero() {
                return Err(TrainError::WorkerLost {
                    worker: w,
                    iteration: t,
                    detail: "reload never acknowledged".to_string(),
                });
            }
            match self.master.recv_timeout(left) {
                Ok(env) => match &env.payload {
                    ColMsg::ReloadAck { worker } if *worker == w => break,
                    // In-flight training traffic from the other workers.
                    _ => self.pending.push_back(env),
                },
                Err(NetError::Timeout) => {
                    return Err(TrainError::WorkerLost {
                        worker: w,
                        iteration: t,
                        detail: "reload never acknowledged".to_string(),
                    })
                }
                Err(e) => {
                    return Err(TrainError::Network {
                        iteration: t,
                        source: e,
                    })
                }
            }
        }
        let after = self.traffic.received_by(node);
        let bytes = after.bytes - before.bytes;
        let objects = after.messages - before.messages;
        Ok(bytes as f64 / self.net.bandwidth_bytes_per_s
            + objects as f64 * PER_OBJECT_S
            + self.net.latency_s)
    }

    /// Gathers every model partition and reassembles the full model —
    /// an inspection path for tests/examples, not part of the paper's
    /// training protocol (ColumnSGD never materializes the full model).
    /// Runs on the reliable plane so chaos cannot wedge it.
    ///
    /// # Errors
    /// Returns [`TrainError::Network`] when a worker cannot answer within
    /// the bulk deadline — after a successful `train()` every worker is
    /// alive, so this only fires when the cluster is already broken.
    pub fn collect_model(&mut self) -> Result<ParamSet, TrainError> {
        let iteration = self.cfg.iterations;
        let net_err = |source| TrainError::Network { iteration, source };
        for w in 0..self.k {
            self.master
                .send_reliable(NodeId::Worker(w), ColMsg::FetchModel)
                .map_err(net_err)?;
        }
        let mut deadline = Instant::now() + self.bulk_deadline();
        let dim = self.dim() as usize;
        let part = self.cfg.partitioner(self.k, self.dim());
        let mut full = self.cfg.model.init_params(dim, self.cfg.seed, |s| s as u64);
        full.reset();
        let widths = self.cfg.model.widths();
        let mut seen = std::collections::HashSet::new();
        let mut replied = std::collections::HashSet::new();
        while replied.len() < self.k {
            let env = self.recv_next(deadline).map_err(net_err)?;
            let ColMsg::ModelReply { worker, parts } = env.payload else {
                // Leftover training traffic (stale acks, late replies).
                continue;
            };
            if !replied.insert(worker) {
                continue;
            }
            // Progress: a fresh worker answered; restart the clock.
            deadline = Instant::now() + self.bulk_deadline();
            for (pid, local) in parts {
                if !seen.insert(pid) {
                    continue; // replicas carry identical copies
                }
                let local_dim = part.local_dim(pid, self.dim());
                for slot in 0..local_dim {
                    let j = part.global_index(pid, slot) as usize;
                    for (b, &w) in widths.iter().enumerate() {
                        for f in 0..w {
                            full.blocks[b][j * w + f] = local.blocks[b][slot * w + f];
                        }
                    }
                }
            }
        }
        Ok(full)
    }

    /// The model dimension m.
    pub fn dim(&self) -> u64 {
        self.dim
    }
}

/// Folds one `StatsReply` into the gather state. Returns whether the reply
/// reported a task failure (caller retries).
///
/// Only the attempt whose partial is actually *kept* is billed to
/// `compute_times`: failed attempts burn wall-clock the master already
/// accounts as recovery charge, and duplicate replies (chaos, redundant
/// re-issues) carry identical statistics and must not inflate the compute
/// phase. The old `+=` here double-billed every retried attempt.
#[expect(clippy::too_many_arguments, reason = "gather-local fold state")]
fn fold_stats_reply(
    partials: &mut HashMap<usize, Vec<f64>>,
    compute_times: &mut [f64],
    sample_times: &mut [f64],
    worker: usize,
    partial: Vec<f64>,
    compute_s: f64,
    sample_s: f64,
    task_failed: bool,
) -> bool {
    if task_failed {
        return true;
    }
    if let std::collections::hash_map::Entry::Vacant(slot) = partials.entry(worker) {
        slot.insert(partial);
        compute_times[worker] = compute_s;
        sample_times[worker] = sample_s;
    }
    false
}

/// Forgets a worker's partial *and* its billed compute time — used when a
/// crash invalidates the pre-crash reply (the respawned incarnation's
/// reply, and only it, may be counted).
fn discard_partial(
    partials: &mut HashMap<usize, Vec<f64>>,
    compute_times: &mut [f64],
    sample_times: &mut [f64],
    worker: usize,
) {
    partials.remove(&worker);
    compute_times[worker] = 0.0;
    sample_times[worker] = 0.0;
}

/// Default path of the `columnsgd-worker` binary: a sibling of the
/// currently running executable (Cargo places all workspace binaries in
/// the same `target/<profile>/` directory).
fn default_worker_bin() -> Result<std::path::PathBuf, String> {
    crate::host::locate_worker_bin("columnsgd-worker")
}

impl Drop for ColumnSgdEngine {
    fn drop(&mut self) {
        for w in 0..self.k {
            // Reliable plane: a chaos-dropped Shutdown would hang the join.
            // Workers may already be gone; ignore errors.
            let _ = self
                .master
                .send_reliable(NodeId::Worker(w), ColMsg::Shutdown);
        }
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_charges_only_the_counted_attempt() {
        // Regression: a scripted TaskFailure used to leave its compute
        // time accumulated (`+=`) on top of the successful retry's, so a
        // worker that failed once was billed for both attempts.
        let mut partials: HashMap<usize, Vec<f64>> = HashMap::new();
        let mut times = vec![0.0f64; 2];
        let mut samples = vec![0.0f64; 2];

        // Attempt 0 throws after burning 5 s: retry requested, nothing
        // billed, no partial kept.
        assert!(fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            1,
            Vec::new(),
            5.0,
            1.0,
            true
        ));
        assert_eq!(times[1], 0.0);
        assert_eq!(samples[1], 0.0);
        assert!(!partials.contains_key(&1));

        // Attempt 1 succeeds in 2 s: kept and billed exactly 2 s.
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            1,
            vec![1.0],
            2.0,
            0.5,
            false
        ));
        assert_eq!(times[1], 2.0);
        assert_eq!(samples[1], 0.5);
        assert_eq!(partials[&1], vec![1.0]);

        // A duplicate reply (chaos) must change neither the partial nor
        // the bill.
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            1,
            vec![9.0],
            9.0,
            9.0,
            false
        ));
        assert_eq!(times[1], 2.0);
        assert_eq!(samples[1], 0.5);
        assert_eq!(partials[&1], vec![1.0]);
    }

    #[test]
    fn crash_discards_partial_and_its_bill() {
        let mut partials: HashMap<usize, Vec<f64>> = HashMap::new();
        let mut times = vec![0.0f64; 2];
        let mut samples = vec![0.0f64; 2];
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            0,
            vec![3.0],
            4.0,
            0.25,
            false
        ));
        discard_partial(&mut partials, &mut times, &mut samples, 0);
        assert!(partials.is_empty());
        assert_eq!(times[0], 0.0);
        assert_eq!(samples[0], 0.0);
        // The respawned incarnation's reply is then billed normally.
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            0,
            vec![7.0],
            1.0,
            0.125,
            false
        ));
        assert_eq!(times[0], 1.0);
        assert_eq!(samples[0], 0.125);
        assert_eq!(partials[&0], vec![7.0]);
    }
}
