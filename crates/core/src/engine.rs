//! The ColumnSGD master/driver: data loading, the BSP training loop,
//! straggler handling, detection-based fault tolerance, and elastic
//! membership.
//!
//! One master runs every configuration. A run's *shape* is an
//! [`ElasticConfig`]: the paper's static cluster is the fixed shape
//! `ElasticConfig::new(cfg, K, K)` with nothing else set, and shapes that
//! can change membership (fewer initial workers than slots, a join / leave
//! / crash schedule, replication, speculation, a scale policy) add the
//! machinery of [`crate::elastic`].
//!
//! # Supersteps as task lists
//!
//! Each superstep builds a list of `(worker, pids)` statistics tasks: one
//! per primary partition, the whole replica group per worker under
//! S-backup (§IV-B), plus speculative duplicates for armed stragglers.
//! Tasks over the same pid set *race*: the fastest replica is charged to
//! the barrier, one primary reply per pid set is folded (in pid order, so
//! the aggregate never depends on who owns what), and every reply except a
//! killed S-backup straggler's is priced on the wire.
//!
//! # Reactive fault tolerance
//!
//! The master never *interprets* the failure plan during training — faults
//! are injected at the workers (panics, thrown tasks) and at the wire
//! (seeded chaos in the router), and the master only learns about them by
//! **detection**:
//!
//! * an explicit error reply (`StatsReplyFor { task_failed: true }`),
//! * a [`ColMsg::WorkerPanic`] report from the guarded node runtime,
//! * a send failing because the worker's mailbox is gone, or
//! * the absolute receive deadline expiring (it resets on progress, never
//!   on stray traffic), after which the master probes the silent worker
//!   to classify the fault: alive-and-loaded means a lost task (re-issue),
//!   anything else means a lost worker.
//!
//! A lost worker gets one of two repairs, chosen by the run's shape: the
//! fixed shape respawns it in place and streams its partitions back
//! (`ReloadBlock`, then `InstallParams` from a live S-backup replica —
//! §X / Figure 13); a shape that can change membership drops it and
//! promotes, rebuilds or migrates its shards instead.
//!
//! Every detected-and-recovered fault is logged as a [`RecoveryEvent`] on
//! the [`TrainOutcome`], so experiments report recovery behaviour from
//! observed events rather than from the injection script.

#![expect(clippy::disallowed_methods, reason = "phase timing and deadlines")]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use columnsgd_cluster::clock::IterationTime;
use columnsgd_cluster::telemetry::{
    KernelRecord, MetricsRegistry, Phase, ProfScope, RunStamp, SuperstepSpan,
};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    ClusterConfig, Diagnostics, Endpoint, Envelope, FailurePlan, Membership, MembershipEvent,
    Monitor, NetError, NetworkModel, NodeId, RebalancePlan, Recorder, Router, SimClock,
    SuperstepObs, TcpHub, TrafficStats, TransportKind, WorkerState,
};
use columnsgd_data::block::Block;
use columnsgd_data::{Dataset, TwoPhaseIndex};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::ParamSet;

use crate::config::{ColumnSgdConfig, StaleStats};
use crate::elastic::{ElasticConfig, ElasticState};
use crate::error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
use crate::host::{BootSpec, WorkerHost};
use crate::msg::ColMsg;

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
    /// The membership transition log (joins, leaves, deaths, epochs);
    /// empty for the fixed shape.
    pub membership_log: Vec<MembershipEvent>,
    /// Shard migrations executed (moves, not drops).
    pub migrations: u64,
    /// Bytes of migration traffic, as metered on the wire.
    pub migration_bytes: u64,
    /// Speculative races won by a backup replica (primary was slower).
    pub speculative_wins: u64,
    /// Speculative duplicate replies dropped after losing the race.
    pub speculative_losses: u64,
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
        /// false ⇒ its data is gone and must be restored).
        loaded: bool,
    },
    /// No answer (or the probe could not even be sent): the worker is gone.
    Dead,
    /// Direct evidence about the worker (a reply or panic report) arrived
    /// while probing and was buffered; the main loop will resolve it.
    Deferred,
}

/// One statistics task of a superstep.
pub(crate) struct Task {
    pub(crate) worker: usize,
    pub(crate) pids: Vec<usize>,
    /// A speculative duplicate: races the primary copy of the same pids
    /// for the barrier time, never folded.
    pub(crate) spec: bool,
    reply: Option<TaskReply>,
    /// The barrier no longer waits for this task: its worker died and a
    /// live replica (or a re-issued task) covers its pids.
    pub(crate) excused: bool,
}

struct TaskReply {
    partial: Vec<f64>,
    compute_s: f64,
    sample_s: f64,
}

impl Task {
    pub(crate) fn new(worker: usize, pids: Vec<usize>, spec: bool) -> Self {
        Self {
            worker,
            pids,
            spec,
            reply: None,
            excused: false,
        }
    }

    /// Whether the gather barrier still waits for this task.
    pub(crate) fn pending(&self) -> bool {
        self.reply.is_none() && !self.excused
    }
}

/// Iteration-local superstep state shared by the detection front end and
/// the repair actions.
pub(crate) struct Step {
    pub(crate) t: u64,
    issued: Instant,
    pub(crate) attempts: Vec<u64>,
    /// Simulated seconds spent on detection waits, reloads and migrations
    /// this iteration, charged to the clock as pure overhead.
    pub(crate) charge: f64,
    pub(crate) tasks: Vec<Task>,
    acked: Vec<bool>,
    /// Replication repairs deferred until after the update barrier.
    pub(crate) deferred: Vec<RebalancePlan>,
}

/// The statistics phase of one superstep, reduced.
struct Reduced {
    agg: Vec<f64>,
    /// Effective statistics-phase time: the slowest worker lane, each race
    /// charged at its fastest replica.
    stat_phase: f64,
    /// Wire bytes of every reply that transmitted.
    reply_bytes: Vec<u64>,
    /// Per-worker compute seconds of its primary tasks (post-injection).
    compute_times: Vec<f64>,
    /// Telemetry-only: the sampling/assembly slice of each worker's compute.
    sample_times: Vec<f64>,
    /// The injected straggler and its slowdown factor.
    straggler: Option<(usize, f64)>,
    /// The straggler abandoned by stale-statistics mode.
    stale_victim: Option<usize>,
    /// Workers whose every partition a speculative replica covered.
    raced: BTreeSet<usize>,
}

/// The ColumnSGD driver: one master endpoint plus its supervised workers —
/// guarded threads (in-process transport) or child processes (TCP
/// transport), chosen by [`ClusterConfig`].
pub struct ColumnSgdEngine {
    pub(crate) cfg: ElasticConfig,
    pub(crate) net: NetworkModel,
    pub(crate) plan: FailurePlan,
    pub(crate) master: Endpoint<ColMsg>,
    pub(crate) router: Router<ColMsg>,
    pub(crate) host: WorkerHost,
    pub(crate) membership: Membership,
    pub(crate) traffic: TrafficStats,
    pub(crate) recorder: Recorder,
    pub(crate) monitor: Monitor,
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
    /// (probe acks, reload acks, shard installs); drained before the
    /// mailbox.
    pub(crate) pending: VecDeque<Envelope<ColMsg>>,
    /// The master's copy of the blocks (the "HDFS" source): used for the
    /// initial dispatch, worker-failure recovery, shard rebuilds, and
    /// label lookup.
    pub(crate) blocks: Vec<Block>,
    /// Master-side replica of the two-phase index (for label lookup when
    /// reporting batch loss; the master knows the layout because it built
    /// the block queue).
    index: TwoPhaseIndex,
    /// Model dimension m.
    pub(crate) dim: u64,
    load_report: LoadReport,
    recovery: Vec<RecoveryEvent>,
    pub(crate) elastic: ElasticState,
}

impl ColumnSgdEngine {
    /// Spawns K workers, runs the block-based column dispatch of §IV-A,
    /// and waits for every worker to finish loading — the fixed shape of
    /// [`ColumnSgdEngine::from_blocks`] on the in-process transport.
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::from_blocks`].
    pub fn new(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
    ) -> Result<Self, TrainError> {
        Self::new_clustered(
            dataset,
            k,
            cfg,
            net,
            plan,
            Recorder::disabled(),
            &ClusterConfig::in_proc(),
        )
    }

    /// [`ColumnSgdEngine::new`] with a telemetry [`Recorder`] (every router
    /// send, superstep phase, kernel launch, and fault is recorded on it)
    /// and an explicit transport backend.
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::from_blocks`].
    pub fn new_clustered(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        let blocks = dataset
            .into_block_queue(cfg.block_size)
            .iter()
            .cloned()
            .collect();
        let shape = ElasticConfig::new(cfg, k, k);
        Self::from_blocks(
            blocks,
            dataset.dimension(),
            shape,
            net,
            plan,
            recorder,
            cluster,
        )
    }

    /// Builds an engine of any shape from pre-cut blocks — the streaming
    /// loading path too: feed blocks from `columnsgd_data::libsvm::BlockReader`
    /// without ever materializing a [`Dataset`]. `dim` must cover every
    /// feature index in the blocks.
    ///
    /// Both transports — in-process channels (threads) or loopback TCP (one
    /// child process per worker, spawned from the `columnsgd-worker`
    /// binary) — run the identical protocol with identical seeding, so the
    /// loss curve, final model, and `TrafficStats` byte totals are
    /// bit-identical across them; only wall-clock behaviour differs.
    ///
    /// # Errors
    /// [`TrainError::InvalidPlan`] for impossible or unsupported shapes
    /// (see [`ColumnSgdEngine`]'s validation: zero workers, `(S+1) ∤ K`,
    /// backup groups outside the fixed shape, speculation without
    /// replication, scale features over TCP, out-of-range failure plans or
    /// schedules), and [`TrainError::LoadFailed`] for an empty or
    /// non-dense block set, workers that cannot be spawned or connected,
    /// or loading that does not complete.
    pub fn from_blocks(
        blocks: Vec<Block>,
        dim: u64,
        cfg: ElasticConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        let mut cfg = cfg;
        if cfg.base.threads_per_worker == 0 {
            // Auto: one kernel thread per simulated core of the cluster
            // preset (2 on the paper's Cluster 1, 8 on Cluster 2).
            cfg.base.threads_per_worker = net.cores.max(1);
        }
        let membership = validate(&blocks, &cfg, &plan, cluster)?;
        let k = cfg.max_workers;
        recorder.set_pricing(net.link_pricing());
        recorder.begin(RunStamp {
            config_hash: cfg.base.fingerprint(),
            seed: cfg.base.seed,
            chaos_seed: plan.chaos.map(|c| c.seed),
            pool_width: cfg.base.threads_per_worker as u64,
            workers: k as u64,
        });
        // Backend identity rides on the trace meta line, *not* the
        // RunStamp: the run id must stay backend-agnostic so inproc and
        // TCP traces of the same run compare equal in `inspect diff`.
        match cluster.transport {
            TransportKind::InProc => recorder.set_backend("inproc", 0),
            TransportKind::Tcp => recorder.set_backend("tcp", k as u64),
        }
        let traffic = TrafficStats::new();
        let mut ids = vec![NodeId::Master];
        ids.extend((0..k).map(NodeId::Worker));
        let (master, router, host) = match cluster.transport {
            TransportKind::InProc => {
                let (router, mut endpoints): (Router<ColMsg>, Vec<Endpoint<ColMsg>>) =
                    Router::with_recorder(&ids, traffic.clone(), plan.chaos, recorder);
                let master = endpoints.remove(0);
                let host = WorkerHost::Threads {
                    handles: (0..k).map(|_| None).collect(),
                    spares: endpoints.into_iter().map(Some).collect(),
                };
                (master, router, host)
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
                    .map_or_else(|| crate::host::locate_worker_bin("columnsgd-worker"), Ok)
                    .map_err(TrainError::LoadFailed)?;
                let host = WorkerHost::Processes {
                    hub,
                    children: (0..k).map(|_| None).collect(),
                    worker_bin,
                };
                (master, router, host)
            }
        };
        let index = TwoPhaseIndex::new(blocks.iter().map(|b| (b.id(), b.nrows())), cfg.base.seed);
        let recorder = router.recorder().clone();
        let mut engine = Self {
            cfg,
            net,
            plan,
            master,
            router,
            host,
            membership,
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
            recovery: Vec::new(),
            elastic: ElasticState::default(),
        };
        let active = engine.membership.active();
        for &w in &active {
            let boot = engine.boot(w);
            engine
                .host
                .start(&engine.router, boot)
                .map_err(|e| TrainError::LoadFailed(format!("worker {w}: {e}")))?;
        }
        engine
            .host
            .await_ready(&active, engine.bulk_deadline())
            .map_err(TrainError::LoadFailed)?;
        engine.load_report = engine.load()?;
        // Chaos only applies from here on: losing a load message would
        // model an HDFS failure, outside the paper's fault model.
        engine.router.arm_chaos();
        Ok(engine)
    }

    /// Worker `w`'s bootstrap: the run's shape, its failure script, and
    /// the current partition placement (`addr` is filled in by the TCP
    /// host; threads ignore it).
    pub(crate) fn boot(&self, w: usize) -> BootSpec {
        BootSpec {
            addr: String::new(),
            worker: w,
            k: self.cfg.max_workers,
            dim: self.dim,
            cfg: self.cfg.base,
            script: self.script_for(w),
            traced: self.recorder.is_enabled(),
            placement: self.placement(),
        }
    }

    /// Partition → holders: the S-backup groups of §IV-B under backup,
    /// else each partition's primary and (replicated) backup.
    fn placement(&self) -> Vec<Vec<usize>> {
        let base = &self.cfg.base;
        (0..self.cfg.max_workers)
            .map(|pid| {
                if base.backup_s > 0 {
                    base.replicas_of(pid)
                } else {
                    let primary = self.membership.primary_of(pid);
                    primary
                        .into_iter()
                        .chain(self.membership.backup_of(pid))
                        .collect()
                }
            })
            .collect()
    }

    /// The per-receive detection deadline.
    fn deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.base.deadline_ms)
    }

    /// The (longer) deadline for bulk transfers: loading, reloading, and
    /// shard migration move whole datasets, not single replies.
    pub(crate) fn bulk_deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.base.deadline_ms.saturating_mul(10))
    }

    /// Pops a buffered message, or waits on the mailbox until the
    /// *absolute* deadline.
    ///
    /// The deadline is an [`Instant`], not a per-call budget: callers set
    /// it once when they start (or make progress on) a barrier and pass
    /// the same value back on every retry. A per-call `Duration` would
    /// restart the full detection window on every received message, so a
    /// trickle of stray traffic (chaos duplicates, late replies from
    /// earlier iterations) could postpone fault detection indefinitely.
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
    /// worker (round-robin over the active workers), which shuffles CSR
    /// worksets to their partitions' holders; then barriers on every
    /// worker's LoadAck.
    fn load(&mut self) -> Result<LoadReport, TrainError> {
        self.traffic.reset();
        // Keep the trace reconciled with the meter: load-phase comm
        // records describe bytes the reset just forgot.
        self.recorder.clear_comm();
        let active = self.membership.active();
        for (i, block) in self.blocks.iter().enumerate() {
            let splitter = NodeId::Worker(active[i % active.len()]);
            self.master
                .send(splitter, ColMsg::LoadBlock(block.clone()))
                .map_err(|e| TrainError::LoadFailed(format!("block dispatch: {e}")))?;
        }
        for &w in &active {
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
        while acks < active.len() {
            let env = self.recv_next(deadline).map_err(|e| {
                TrainError::LoadFailed(format!(
                    "only {acks}/{} workers acknowledged loading: {e}",
                    active.len()
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
        for node in (0..self.cfg.max_workers).map(NodeId::Worker) {
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

    /// The membership state machine (read-only). In the fixed shape every
    /// slot stays active for the whole run.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The model dimension m.
    pub fn dim(&self) -> u64 {
        self.dim
    }

    /// Labels of the iteration-`t` batch, computed master-side from its
    /// replica of the two-phase index (free: the master built the blocks).
    fn batch_labels(&self, iteration: u64) -> Vec<f64> {
        self.index
            .sample_batch(iteration, self.cfg.base.batch_size)
            .into_iter()
            .map(|addr| self.blocks[addr.block as usize].csr().label(addr.offset))
            .collect()
    }

    /// Logs a recovered fault on both ledgers: the outcome's recovery log
    /// and the telemetry fault stream.
    pub(crate) fn note(
        &mut self,
        st: &Step,
        w: usize,
        fault: FaultKind,
        detection: DetectionMethod,
        cost: f64,
    ) {
        let ev = RecoveryEvent {
            iteration: st.t,
            worker: w,
            fault,
            detection,
            detection_latency_s: st.issued.elapsed().as_secs_f64(),
            recovery_cost_s: cost,
            attempt: st.attempts[w],
        };
        self.recorder.fault(ev.to_fault_record());
        self.recovery.push(ev);
    }

    /// Increments a worker's attempt counter, failing when the retry
    /// budget (`max_task_retries`) is exhausted.
    pub(crate) fn bump(&self, st: &mut Step, w: usize) -> Result<(), TrainError> {
        st.attempts[w] += 1;
        if st.attempts[w] > self.cfg.base.max_task_retries {
            return Err(TrainError::RetriesExhausted {
                iteration: st.t,
                worker: w,
                attempts: st.attempts[w],
            });
        }
        Ok(())
    }

    /// This superstep's tasks: one per primary partition (as Spark
    /// schedules one task per RDD partition), the whole group per replica
    /// under S-backup (§IV-B), plus speculative duplicates. Single-pid
    /// tasks make bit-determinism structural: the master's fold is the
    /// per-pid sorted sum no matter which worker owns which partitions.
    fn plan_tasks(&self, t: u64) -> Result<Vec<Task>, TrainError> {
        let mut tasks = Vec::new();
        for w in self.membership.active() {
            let pids = self.membership.primaries_of(w);
            if pids.is_empty() {
                return Err(TrainError::Internal(format!(
                    "active worker {w} owns no partition at iteration {t}"
                )));
            }
            if self.cfg.base.backup_s > 0 {
                tasks.push(Task::new(w, self.cfg.base.partitions_of(w), false));
            } else {
                tasks.extend(pids.into_iter().map(|pid| Task::new(w, vec![pid], false)));
            }
        }
        tasks.extend(self.speculative_tasks());
        Ok(tasks)
    }

    /// Sends task `i`'s `ComputeStats`. A dead mailbox is a detected
    /// worker failure, repaired before returning.
    pub(crate) fn issue(&mut self, st: &mut Step, i: usize) -> Result<(), TrainError> {
        let w = st.tasks[i].worker;
        let msg = ColMsg::ComputeStats {
            iteration: st.t,
            batch_size: self.cfg.base.batch_size,
            attempt: st.attempts[w],
            pids: st.tasks[i].pids.clone(),
        };
        if self.master.send(NodeId::Worker(w), msg).is_ok() {
            return Ok(());
        }
        self.worker_failed(st, w, DetectionMethod::SendFailure, false, None)
    }

    /// Re-sends every unanswered task of worker `w`.
    fn reissue(&mut self, st: &mut Step, w: usize) -> Result<(), TrainError> {
        for i in 0..st.tasks.len() {
            if st.tasks[i].worker == w && st.tasks[i].reply.is_none() {
                self.issue(st, i)?;
            }
        }
        Ok(())
    }

    /// Whether the pending buffer already carries direct evidence about
    /// worker `w` at iteration `t` (so probing it would be redundant).
    fn pending_has_evidence(&self, t: u64, w: usize) -> bool {
        self.pending.iter().any(|env| match &env.payload {
            ColMsg::StatsReplyFor {
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
        let deadline = Instant::now() + self.deadline();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
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
                    ColMsg::StatsReplyFor {
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

    /// Probe-classify-recover for one silent worker. `agg` is `Some`
    /// during the update phase (recovery must re-drive the update) and
    /// `None` during the gather (recovery re-issues the tasks).
    fn recover_silent(
        &mut self,
        st: &mut Step,
        w: usize,
        agg: Option<&[f64]>,
    ) -> Result<(), TrainError> {
        if self.pending_has_evidence(st.t, w) {
            return Ok(());
        }
        let unloaded = match self.probe_worker(st.t, w)? {
            Probed::Deferred => return Ok(()),
            Probed::Alive { loaded: true } => {
                // A lost task, not a lost worker: retry it.
                self.note(st, w, FaultKind::TaskFailure, DetectionMethod::Timeout, 0.0);
                self.bump(st, w)?;
                return match agg {
                    None => self.reissue(st, w),
                    Some(agg) => {
                        self.resequence_update(st, w, agg);
                        Ok(())
                    }
                };
            }
            Probed::Alive { loaded: false } => true,
            Probed::Dead => false,
        };
        self.worker_failed(st, w, DetectionMethod::Timeout, unloaded, agg)
    }

    /// Repairs worker `w`, detected dead (or alive but wiped: `unloaded`).
    /// The one place the two repair actions split, by the run's shape: the
    /// fixed shape respawns the worker in place and streams its partitions
    /// back (§X), restoring S-backup parameters from a live replica; any
    /// other shape drops it from the membership and promotes, rebuilds or
    /// migrates its shards. `agg` is `Some` during the update phase.
    fn worker_failed(
        &mut self,
        st: &mut Step,
        w: usize,
        detection: DetectionMethod,
        unloaded: bool,
        agg: Option<&[f64]>,
    ) -> Result<(), TrainError> {
        if !self.cfg.is_fixed() {
            return self.lose_worker(st, w, detection, agg.is_none());
        }
        let cost = if unloaded {
            self.reload_worker(st.t, w)? + self.restore_params(st.t, w)?
        } else {
            self.respawn_worker(st.t, w)?
        };
        st.charge += cost;
        self.note(st, w, FaultKind::WorkerFailure, detection, cost);
        self.bump(st, w)?;
        let Some(agg) = agg else {
            // Only a panic report excuses an S-backup member (§IV-B): a
            // worker found by a deadline or a failed send is waited for.
            restart_tasks(&mut st.tasks, w, detection == DetectionMethod::PanicReport);
            return self.reissue(st, w);
        };
        // If the ack was already counted, the applied update died with the
        // worker — exactly the §X data-loss semantics; nothing to re-await.
        if !st.acked[w] {
            self.resequence_update(st, w, agg);
        }
        Ok(())
    }

    /// Runs the full training loop (Algorithm 3) and returns the outcome.
    ///
    /// # Errors
    /// Returns [`TrainError::RetriesExhausted`] when one worker's task
    /// keeps failing past the retry budget, [`TrainError::WorkerLost`]
    /// when a worker cannot be brought back (or, in an elastic shape, the
    /// last active worker dies or a shard migration fails from every
    /// source), [`TrainError::Diverged`] when an attached monitor halts
    /// the run, and [`TrainError::Network`] if the master's own mailbox
    /// fails.
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

    fn train_inner(&mut self) -> Result<TrainOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new("ColumnSGD");
        self.recovery.clear();
        let slots = self.cfg.max_workers;
        let stats_len = self.cfg.base.batch_size * self.cfg.base.model.stats_width();

        for t in 0..self.cfg.base.iterations {
            let mut st = Step {
                t,
                issued: Instant::now(),
                attempts: vec![0; slots],
                charge: 0.0,
                tasks: Vec::new(),
                acked: vec![false; slots],
                deferred: Vec::new(),
            };

            // --- membership transitions + policy hooks -----------------
            self.apply_schedule(&mut st)?;
            self.consume_gauges(&mut st)?;

            // --- step 1: computeStatistics -----------------------------
            {
                let _prof = ProfScope::enter("issue");
                st.tasks = self.plan_tasks(t)?;
                for i in 0..st.tasks.len() {
                    self.issue(&mut st, i)?;
                }
            }

            // --- step 2: gather + reduce -------------------------------
            // Wall-clock across the whole barrier is kept as the
            // *measured* gather time for transport cross-checks.
            let gather_wall = {
                let _prof = ProfScope::enter("gather");
                let started = Instant::now();
                self.gather(&mut st)?;
                started.elapsed().as_secs_f64()
            };
            let r = {
                let _prof = ProfScope::enter("reduce");
                self.reduce(&mut st, stats_len)?
            };

            // --- step 3: broadcast + updateModel ------------------------
            // In stale mode the abandoned straggler also skips the update
            // (its partition goes stale for this iteration).
            let updaters: Vec<usize> = self
                .membership
                .active()
                .into_iter()
                .filter(|&w| Some(w) != r.stale_victim)
                .collect();
            let (mut update_times, bcast_wall) = {
                let _prof = ProfScope::enter("broadcast");
                self.broadcast(&mut st, &updaters, &r.agg)?
            };
            let upd_phase = self.update_phase(&mut update_times, &r);

            // --- deferred replication repairs ---------------------------
            for plan in std::mem::take(&mut st.deferred) {
                st.charge += self.execute_plan(t, &plan)?;
            }

            // --- pricing -------------------------------------------------
            // Analytic wire sizes: no throwaway message (or clone of the
            // aggregate) is ever materialized just to measure it. The
            // analytic helpers are pinned equal to `wire_size()` by test.
            let bcast_bytes = (ColMsg::update_wire_size(stats_len) + ENVELOPE_BYTES) as u64;
            let gather_s = self.net.gather_time(&r.reply_bytes);
            let bcast_s = self.net.broadcast_time(bcast_bytes, updaters.len());

            if self.recorder.is_enabled() {
                self.emit_superstep(
                    t,
                    &r,
                    (gather_s, gather_wall),
                    (bcast_s, bcast_wall),
                    &update_times,
                    upd_phase,
                    st.charge,
                );
            }

            let loss = self
                .cfg
                .base
                .model
                .loss_from_stats(&self.batch_labels(t), &r.agg);
            if st.charge > 0.0 {
                clock.charge(st.charge);
            }
            clock.record(IterationTime {
                compute_s: r.stat_phase + upd_phase,
                comm_s: gather_s + bcast_s,
                overhead_s: self.net.scheduling_overhead_s,
            });
            curve.push(t, clock.elapsed_s(), loss);
            if self.metrics.is_some() {
                self.export_metrics(loss, clock.elapsed_s(), &r.compute_times, r.stat_phase);
            }
            // Live tail: append this superstep's merged events to the
            // attached trace file (no-op unless a sink is attached). A full
            // disk must not kill training.
            let _ = self.recorder.flush_live();
            if self.monitor.is_enabled() {
                self.observe(t, r.compute_times, loss, clock.elapsed_s())?;
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
            // per metered delivery (migrations included), by construction.
            let s = self.recorder.summary();
            let total = self.traffic.total();
            if (s.comm_bytes, s.comm_messages) != (total.bytes, total.messages) {
                return Err(TrainError::Internal(format!(
                    "telemetry comm records diverge from router metering: \
                     trace {}B/{} vs meter {}B/{}",
                    s.comm_bytes, s.comm_messages, total.bytes, total.messages
                )));
            }
        }

        Ok(TrainOutcome {
            curve,
            clock,
            recovery: std::mem::take(&mut self.recovery),
            run: self.run_stamp(),
            diagnostics: self.monitor.report(),
            membership_log: self.membership.log().to_vec(),
            migrations: self.elastic.migrations,
            migration_bytes: self.elastic.migration_bytes,
            speculative_wins: self.elastic.spec_wins,
            speculative_losses: self.elastic.spec_losses,
        })
    }

    /// The statistics barrier: waits until every task has a reply or is
    /// excused, detecting and repairing faults on the way. The detection
    /// deadline is absolute and resets on progress only (a reply, a
    /// handled panic, a completed recovery round), never on stray traffic.
    fn gather(&mut self, st: &mut Step) -> Result<(), TrainError> {
        let detect = self.deadline();
        let mut wait_until = Instant::now() + detect;
        while st.tasks.iter().any(Task::pending) {
            // Every ColMsg variant gets an explicit arm: a new variant
            // must not land without a decision here.
            #[deny(
                clippy::wildcard_enum_match_arm,
                clippy::match_wildcard_for_single_variants
            )]
            match self.recv_next(wait_until) {
                Ok(env) => match env.payload {
                    ColMsg::StatsReplyFor {
                        iteration,
                        worker,
                        pids,
                        partial,
                        compute_s,
                        sample_s,
                        task_failed,
                    } if iteration == st.t => {
                        wait_until = Instant::now() + detect;
                        if self.membership.state(worker) != Some(WorkerState::Active) {
                            continue; // a dead worker's late reply
                        }
                        let reply = (!task_failed).then_some(TaskReply {
                            partial,
                            compute_s,
                            sample_s,
                        });
                        let Some(i) = match_reply(&mut st.tasks, worker, &pids, reply) else {
                            continue;
                        };
                        if task_failed {
                            // §X task failure: "start a new task … no
                            // additional work on data loading is required."
                            self.note(
                                st,
                                worker,
                                FaultKind::TaskFailure,
                                DetectionMethod::ErrorReply,
                                0.0,
                            );
                            self.bump(st, worker)?;
                            self.issue(st, i)?;
                        }
                    }
                    // A late reply from an earlier iteration: drop.
                    ColMsg::StatsReplyFor { .. } => {}
                    ColMsg::WorkerPanic { worker, .. } => {
                        wait_until = Instant::now() + detect;
                        self.worker_failed(st, worker, DetectionMethod::PanicReport, false, None)?;
                    }
                    // Stray control answers from resolved recoveries.
                    ColMsg::ProbeAck { .. }
                    | ColMsg::UpdateAck { .. }
                    | ColMsg::ShardInstalled { .. } => {}
                    // Worker-bound commands echoed back (chaos, a
                    // misrouted frame) or stale loading-phase acks: noise
                    // on the master's mailbox.
                    other @ (ColMsg::LoadBlock(..)
                    | ColMsg::ReloadBlock(..)
                    | ColMsg::Workset { .. }
                    | ColMsg::LoadDone { .. }
                    | ColMsg::ReloadDone { .. }
                    | ColMsg::LoadAck { .. }
                    | ColMsg::ReloadAck { .. }
                    | ColMsg::ComputeStats { .. }
                    | ColMsg::StatsReply { .. }
                    | ColMsg::Update { .. }
                    | ColMsg::InstallParams { .. }
                    | ColMsg::Probe { .. }
                    | ColMsg::ModelReply { .. }
                    | ColMsg::Die
                    | ColMsg::FetchModel
                    | ColMsg::Shutdown
                    | ColMsg::ShardRequest { .. }
                    | ColMsg::ShardData { .. }
                    | ColMsg::DropShard { .. }) => {
                        eprintln!("master: dropping unexpected {} during gather", other.name());
                    }
                },
                Err(NetError::Timeout) => {
                    // Detection: deadline expired with replies missing.
                    st.charge += detect.as_secs_f64();
                    let silent: BTreeSet<usize> = st
                        .tasks
                        .iter()
                        .filter(|k| k.pending())
                        .map(|k| k.worker)
                        .collect();
                    for w in silent {
                        self.recover_silent(st, w, None)?;
                    }
                    wait_until = Instant::now() + detect;
                }
                Err(e) => {
                    return Err(TrainError::Network {
                        iteration: st.t,
                        source: e,
                    })
                }
            }
        }
        Ok(())
    }

    /// Post-barrier accounting of the statistics phase: straggler
    /// injection, the replica races, and the canonical aggregation.
    fn reduce(&mut self, st: &mut Step, stats_len: usize) -> Result<Reduced, TrainError> {
        let slots = self.cfg.max_workers;
        // Straggler injection (§V-C methodology). StragglerLevel is "the
        // ratio between the extra time a straggler needs to finish a task
        // and the time that a non-straggler worker needs" — a *task* pays
        // both compute and the per-task executor overhead, so the
        // inflation applies to their sum (the extra time then lands on the
        // barrier).
        let overhead = self.net.scheduling_overhead_s;
        let straggler = self.plan.straggler.map(|s| {
            let v = s.pick(st.t, slots);
            for task in st.tasks.iter_mut().filter(|k| k.worker == v) {
                if let Some(r) = &mut task.reply {
                    r.compute_s += (s.factor() - 1.0) * (r.compute_s + overhead);
                }
            }
            (v, s.factor())
        });
        let victim = straggler.map(|(v, _)| v);
        // Extension: without backup, stale-statistics mode lets the master
        // abandon the straggler's partial entirely.
        let base = self.cfg.base;
        let stale = base.staleness.filter(|_| base.backup_s == 0).zip(victim);

        // Tasks over the same pids race; pid order is the fold order.
        let mut races: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
        for (i, task) in st.tasks.iter().enumerate() {
            races.entry(task.pids.clone()).or_default().push(i);
        }
        let tasks = &st.tasks;
        let time = |i: usize| {
            tasks[i]
                .reply
                .as_ref()
                .map_or(f64::INFINITY, |r| r.compute_s)
        };
        let mut out = Reduced {
            agg: vec![0.0; stats_len],
            stat_phase: 0.0,
            reply_bytes: Vec::new(),
            compute_times: vec![0.0; slots],
            sample_times: vec![0.0; slots],
            straggler,
            stale_victim: stale.map(|(_, v)| v),
            raced: BTreeSet::new(),
        };
        // Tasks serialize on a worker's lane: per-worker time is the sum of
        // its races' charged times, and the phase is the slowest lane.
        let mut lanes = vec![0.0f64; slots];
        let mut primaries = vec![0usize; slots];
        let mut covered = vec![0usize; slots];
        let mut outcomes: Vec<(usize, Option<f64>)> = Vec::new();
        let mut abandoned = 0usize;
        for (pids, idxs) in &races {
            if stale.is_some_and(|(_, v)| idxs.iter().all(|&i| tasks[i].worker == v)) {
                abandoned += 1;
                continue; // abandoned; neither waited for nor counted
            }
            let replied = || idxs.iter().copied().filter(|&i| tasks[i].reply.is_some());
            // The fastest primary reply represents the race (replicas hold
            // identical parameters; ties break to the lowest worker id).
            let rep = replied()
                .filter(|&i| !tasks[i].spec)
                .min_by(|&a, &b| {
                    time(a)
                        .total_cmp(&time(b))
                        .then(tasks[a].worker.cmp(&tasks[b].worker))
                })
                .ok_or_else(|| {
                    TrainError::Internal(format!(
                        "partitions {pids:?} have no surviving partial at iteration {}",
                        st.t
                    ))
                })?;
            let owner = tasks[rep].worker;
            primaries[owner] += 1;
            let mut charged = time(rep);
            // Speculation: a faster warm replica wins the barrier time;
            // the fold still uses the primary copy.
            let duplicates: Vec<usize> = replied().filter(|&i| tasks[i].spec).collect();
            if let Some(cover) = duplicates.iter().map(|&i| time(i)).reduce(f64::max) {
                covered[owner] += 1;
                if cover < charged {
                    outcomes.push((owner, Some(charged - cover)));
                    charged = cover;
                } else {
                    outcomes.extend(duplicates.iter().map(|&i| (tasks[i].worker, None)));
                }
            }
            lanes[owner] += charged;
            // Everyone transmits except a killed straggler: under S-backup
            // it is killed once a faster replica answered (§IV-B).
            for i in replied() {
                if !tasks[i].spec && Some(tasks[i].worker) == victim && i != rep {
                    continue;
                }
                let bytes = ColMsg::stats_reply_wire_size(tasks[i].pids.len(), stats_len);
                out.reply_bytes.push((bytes + ENVELOPE_BYTES) as u64);
            }
            if let Some(r) = &tasks[rep].reply {
                reduce_stats(&mut out.agg, &r.partial);
            }
        }
        if let Some((StaleStats::DropRescaled, _)) = stale {
            // Compensate the missing partition: unbiased in expectation
            // under round-robin partitioning.
            let scale = races.len() as f64 / (races.len() - abandoned).max(1) as f64;
            for v in out.agg.iter_mut() {
                *v *= scale;
            }
        }
        out.stat_phase = lanes.iter().copied().fold(0.0, f64::max);
        for task in tasks {
            if let Some(r) = &task.reply {
                // A worker's primary tasks add up on its lane; the batch is
                // sampled once and cached, so only the first pays for it.
                // Speculative duplicates overlap on idle pool slots and are
                // excluded — billing them would make the backup look like
                // a straggler to the monitor and cascade the arming.
                if !task.spec {
                    out.compute_times[task.worker] += r.compute_s;
                }
                let sample = &mut out.sample_times[task.worker];
                *sample = sample.max(r.sample_s);
            }
        }
        // A worker raced only if a warm replica covered *every* one of its
        // partitions this superstep.
        out.raced = (0..slots)
            .filter(|&w| primaries[w] > 0 && covered[w] == primaries[w])
            .collect();
        for (w, saved) in outcomes {
            self.note_race(st.t, w, saved);
        }
        Ok(out)
    }

    /// Broadcasts the aggregated statistics (Algorithm 3 line 7) and
    /// waits for every updater's ack. Returns the per-worker update
    /// seconds and the barrier's measured wall time.
    fn broadcast(
        &mut self,
        st: &mut Step,
        updaters: &[usize],
        agg: &[f64],
    ) -> Result<(Vec<f64>, f64), TrainError> {
        let detect = self.deadline();
        for &w in updaters {
            let msg = ColMsg::Update {
                iteration: st.t,
                stats: agg.to_vec(),
            };
            if self.master.send(NodeId::Worker(w), msg).is_err() {
                self.worker_failed(st, w, DetectionMethod::SendFailure, false, Some(agg))?;
            }
        }
        let mut update_times = vec![0.0f64; self.cfg.max_workers];
        let started = Instant::now();
        let mut wait_until = started + detect;
        let waiting = |st: &Step, m: &Membership, w: usize| {
            !st.acked[w] && m.state(w) == Some(WorkerState::Active)
        };
        while updaters.iter().any(|&w| waiting(st, &self.membership, w)) {
            match self.recv_next(wait_until) {
                Ok(env) => match env.payload {
                    ColMsg::UpdateAck {
                        iteration,
                        worker,
                        compute_s,
                    } if iteration == st.t => {
                        if !st.acked[worker] {
                            st.acked[worker] = true;
                            update_times[worker] = compute_s;
                            wait_until = Instant::now() + detect;
                        }
                    }
                    // Stale acks, re-driven statistics, stray control answers.
                    ColMsg::UpdateAck { .. }
                    | ColMsg::StatsReplyFor { .. }
                    | ColMsg::ProbeAck { .. }
                    | ColMsg::ShardInstalled { .. } => {}
                    ColMsg::WorkerPanic { worker, .. } => {
                        wait_until = Instant::now() + detect;
                        self.worker_failed(
                            st,
                            worker,
                            DetectionMethod::PanicReport,
                            false,
                            Some(agg),
                        )?;
                    }
                    other => {
                        eprintln!("master: dropping unexpected {} during update", other.name());
                    }
                },
                Err(NetError::Timeout) => {
                    st.charge += detect.as_secs_f64();
                    let silent: Vec<usize> = updaters
                        .iter()
                        .copied()
                        .filter(|&w| waiting(st, &self.membership, w))
                        .collect();
                    for w in silent {
                        self.recover_silent(st, w, Some(agg))?;
                    }
                    wait_until = Instant::now() + detect;
                }
                Err(e) => {
                    return Err(TrainError::Network {
                        iteration: st.t,
                        source: e,
                    })
                }
            }
        }
        Ok((update_times, started.elapsed().as_secs_f64()))
    }

    /// The update phase's barrier time after straggler accounting: an
    /// S-backup straggler was killed (its replicas hold its partitions), a
    /// straggler whose partitions a speculative replica covered applies
    /// its update off the critical path, and any other straggler pays the
    /// inflation. Per replica group the fastest member's update suffices.
    fn update_phase(&self, update_times: &mut [f64], r: &Reduced) -> f64 {
        let s = self.cfg.base.backup_s;
        let victim = r.straggler.map(|(v, _)| v);
        if let (Some((v, f)), 0) = (r.straggler, s) {
            update_times[v] = if r.raced.contains(&v) {
                0.0
            } else {
                update_times[v] * f
            };
        }
        (0..update_times.len())
            .step_by(s + 1)
            .map(|g| {
                (g..g + s + 1)
                    .filter(|&m| s == 0 || Some(m) != victim)
                    .map(|m| update_times[m])
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(0.0, f64::max)
    }

    /// Re-drives worker `w` through this superstep's update: the `Update`,
    /// preceded in the fixed shape by a fresh `ComputeStats` per task
    /// (idempotently re-samples the batch; the replies are discarded) —
    /// only the fixed shape respawns workers in place, so only there can a
    /// live updater lack the batch. A worker that already applied the
    /// update simply re-acks.
    fn resequence_update(&mut self, st: &Step, w: usize, agg: &[f64]) {
        // Send failures here mean the worker died again; the next deadline
        // round detects and handles it.
        let respawns = self.cfg.is_fixed();
        for task in st.tasks.iter().filter(|k| respawns && k.worker == w) {
            let msg = ColMsg::ComputeStats {
                iteration: st.t,
                batch_size: self.cfg.base.batch_size,
                attempt: st.attempts[w],
                pids: task.pids.clone(),
            };
            let _ = self.master.send(NodeId::Worker(w), msg);
        }
        let _ = self.master.send(
            NodeId::Worker(w),
            ColMsg::Update {
                iteration: st.t,
                stats: agg.to_vec(),
            },
        );
    }

    /// Feeds the online monitor one superstep and surfaces its stop
    /// request as [`TrainError::Diverged`].
    fn observe(
        &mut self,
        t: u64,
        mut compute: Vec<f64>,
        loss: f64,
        sim_elapsed_s: f64,
    ) -> Result<(), TrainError> {
        let active = self.membership.active();
        if active.len() < compute.len() {
            // Inactive slots observe the active median so the
            // sliding-window median is not dragged toward zero by empty
            // slots (which would alarm on everything).
            let mut times: Vec<f64> = active.iter().map(|&w| compute[w]).collect();
            times.sort_by(f64::total_cmp);
            let median = times.get(times.len() / 2).copied().unwrap_or(0.0);
            for (w, slot) in compute.iter_mut().enumerate() {
                if !active.contains(&w) {
                    *slot = median;
                }
            }
        }
        // The straggler detector sees the post-injection compute times
        // (what the barrier actually paid); the comm gauge sees cumulative
        // sent bytes and differences them itself.
        let sent: Vec<u64> = self
            .traffic
            .per_worker_sent(compute.len())
            .iter()
            .map(|s| s.bytes)
            .collect();
        self.monitor.observe_superstep(SuperstepObs {
            iteration: t,
            compute: &compute,
            sent_bytes: &sent,
            loss,
            sim_elapsed_s,
        });
        match self.monitor.should_stop() {
            // The loss guard tripped: surface it through the typed error
            // machinery so callers and telemetry see one unified
            // fatal-fault vocabulary.
            Some(reason) => Err(TrainError::Diverged {
                iteration: t,
                reason,
            }),
            None => Ok(()),
        }
    }

    /// The identity stamp describing this engine's run (also written on
    /// every telemetry record when tracing is enabled).
    pub fn run_stamp(&self) -> RunStamp {
        RunStamp {
            config_hash: self.cfg.base.fingerprint(),
            seed: self.cfg.base.seed,
            chaos_seed: self.plan.chaos.map(|c| c.seed),
            pool_width: self.cfg.base.threads_per_worker as u64,
            workers: self.cfg.max_workers as u64,
        }
    }

    /// The attached telemetry recorder (disabled unless the engine was
    /// built with an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attaches an online diagnostics [`Monitor`]: every superstep's
    /// post-barrier observations (per-worker compute, cumulative sent
    /// bytes, batch loss) are fed through its streaming detectors, a stop
    /// request becomes [`TrainError::Diverged`], and its straggler alarm
    /// arms speculative backup execution in a speculating shape.
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
        r: &Reduced,
        gather: (f64, f64),
        bcast: (f64, f64),
        update_times: &[f64],
        upd_phase: f64,
        charge: f64,
    ) {
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
        let spans = [
            (
                Phase::Sample,
                max(&r.sample_times),
                0.0,
                &r.sample_times[..],
            ),
            (Phase::Compute, r.stat_phase, 0.0, &r.compute_times[..]),
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
        let base = &self.cfg.base;
        self.recorder.kernel(KernelRecord {
            iteration: t,
            model: base.model.label().to_string(),
            batch_size: base.batch_size as u64,
            pool_width: base.threads_per_worker as u64,
            flops_proxy: base.model.flops_proxy(base.batch_size, r.reply_bytes.len()),
            worker: None,
        });
    }

    /// Brings a dead worker back in place: replaces its mailbox (draining
    /// any abandoned queued messages into the drop ledger), reaps the dead
    /// thread or child process, discards its stale panic notice, spawns a
    /// fresh supervised incarnation, and streams the partition reload.
    /// Returns the priced reload time.
    fn respawn_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let boot = self.boot(w);
        let respawn_wait = self.bulk_deadline();
        self.host.respawn(&self.router, t, boot, respawn_wait)?;
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
        let r = self.cfg.base.backup_s + 1;
        if r == 1 {
            return Ok(0.0);
        }
        let g = w / r;
        for donor in (g * r..(g + 1) * r).filter(|&m| m != w) {
            if self
                .master
                .send_reliable(NodeId::Worker(donor), ColMsg::FetchModel)
                .is_err()
            {
                continue;
            }
            let deadline = Instant::now() + self.bulk_deadline();
            let parts = loop {
                let left = deadline.saturating_duration_since(Instant::now());
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
        let lost = |detail: String| TrainError::WorkerLost {
            worker: w,
            iteration: t,
            detail,
        };
        let before = self.traffic.received_by(node);
        let stream_err = |e: NetError| lost(format!("reload stream failed: {e}"));
        self.master
            .send_reliable(node, ColMsg::Die)
            .map_err(stream_err)?;
        for block in &self.blocks {
            self.master
                .send_reliable(node, ColMsg::ReloadBlock(block.clone()))
                .map_err(stream_err)?;
        }
        self.master
            .send_reliable(
                node,
                ColMsg::ReloadDone {
                    blocks_total: self.blocks.len(),
                },
            )
            .map_err(stream_err)?;
        let deadline = Instant::now() + self.bulk_deadline();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(lost("reload never acknowledged".to_string()));
            }
            match self.master.recv_timeout(left) {
                Ok(env) => match &env.payload {
                    ColMsg::ReloadAck { worker } if *worker == w => break,
                    // In-flight training traffic from the other workers.
                    _ => self.pending.push_back(env),
                },
                Err(NetError::Timeout) => {
                    return Err(lost("reload never acknowledged".to_string()))
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

    /// Gathers every model partition from the active workers and
    /// reassembles the full model — an inspection path for tests/examples,
    /// not part of the paper's training protocol (ColumnSGD never
    /// materializes the full model). Runs on the reliable plane so chaos
    /// cannot wedge it; a partition's primary copy wins over its replicas
    /// (they are in sync after a clean run anyway).
    ///
    /// # Errors
    /// Returns [`TrainError::Network`] when a worker cannot answer within
    /// the bulk deadline — after a successful `train()` every active
    /// worker is alive, so this only fires when the cluster is already
    /// broken.
    pub fn collect_model(&mut self) -> Result<ParamSet, TrainError> {
        let iteration = self.cfg.base.iterations;
        let net_err = |source| TrainError::Network { iteration, source };
        let active = self.membership.active();
        for &w in &active {
            self.master
                .send_reliable(NodeId::Worker(w), ColMsg::FetchModel)
                .map_err(net_err)?;
        }
        let mut deadline = Instant::now() + self.bulk_deadline();
        let dim = self.dim;
        let base = self.cfg.base;
        let part = base.partitioner(self.cfg.max_workers, dim);
        let mut full = base
            .model
            .init_params(dim as usize, base.seed, |s| s as u64);
        full.reset();
        let widths = base.model.widths();
        let mut filled = BTreeSet::new();
        let mut replied = BTreeSet::new();
        while replied.len() < active.len() {
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
                let primary = self.membership.primary_of(pid) == Some(worker);
                if !filled.insert(pid) && !primary {
                    continue;
                }
                for slot in 0..part.local_dim(pid, dim) {
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
}

/// Matches a statistics reply to its task — the unanswered task of
/// `worker` over exactly `pids` — and records `reply` there. A failed
/// attempt (`reply` is `None`) never fills the slot and a duplicate never
/// overwrites the first counted reply, so only the attempt actually kept
/// is billed. Returns the task's index, or `None` for a reply no task
/// awaits (a chaos duplicate, or a cover raced by a migration).
fn match_reply(
    tasks: &mut [Task],
    worker: usize,
    pids: &[usize],
    reply: Option<TaskReply>,
) -> Option<usize> {
    let i = tasks
        .iter()
        .position(|k| k.worker == worker && k.pids == pids && k.reply.is_none())?;
    tasks[i].reply = reply;
    Some(i)
}

/// Restarts worker `w`'s tasks after it was respawned: its model partition
/// was re-initialized or restored, so a pre-crash partial no longer
/// counts, nor does its billed compute time. With `excuse`, under S-backup
/// a live peer replica answers for the group (§IV-B), so the barrier stops
/// waiting for a task that peer covers; the re-issued task still runs so
/// the worker can apply the update, and its reply still counts if it
/// arrives.
fn restart_tasks(tasks: &mut [Task], w: usize, excuse: bool) {
    for i in 0..tasks.len() {
        if tasks[i].worker != w {
            continue;
        }
        let pids = &tasks[i].pids;
        let covered = excuse
            && tasks
                .iter()
                .any(|o| o.worker != w && &o.pids == pids && !o.excused);
        tasks[i].reply = None;
        tasks[i].excused |= covered;
    }
}

/// The one validation site: every impossible or unsupported run shape is a
/// typed error before any worker starts. Returns the initial membership.
fn validate(
    blocks: &[Block],
    cfg: &ElasticConfig,
    plan: &FailurePlan,
    cluster: &ClusterConfig,
) -> Result<Membership, TrainError> {
    let invalid = |msg: String| Err(TrainError::InvalidPlan(msg));
    if blocks.is_empty() {
        return Err(TrainError::LoadFailed(
            "cannot train on an empty block set".to_string(),
        ));
    }
    // The master's label lookup indexes blocks by id; both producers
    // (Dataset::into_block_queue and libsvm::BlockReader) emit dense
    // sequential ids, and arbitrary ids would silently misattribute batch
    // labels.
    if blocks
        .iter()
        .enumerate()
        .any(|(pos, b)| b.id() != pos as u64)
    {
        return Err(TrainError::LoadFailed(
            "blocks must carry dense sequential ids (0, 1, …)".to_string(),
        ));
    }
    let k = cfg.max_workers;
    let feature = cfg.scale_feature();
    if let (TransportKind::Tcp, Some(f)) = (cluster.transport, feature) {
        return invalid(format!(
            "the scale feature `{f}` requires the in-process transport (got `{}`): \
             dynamic membership hands locally hosted mailboxes across scale events",
            cluster.transport
        ));
    }
    let s = cfg.base.backup_s;
    if s > 0 {
        if let Some(f) = feature {
            return invalid(format!(
                "backup_s = {s} builds static replica groups, which cannot change \
                 membership (`{f}`); set backup_s = 0 and use ElasticConfig::replicate"
            ));
        }
        if !k.is_multiple_of(s + 1) {
            return invalid(format!("backup factor S={s} requires (S+1) | K, got K={k}"));
        }
    }
    if cfg.speculate && !cfg.replicate {
        return invalid("speculation requires replication (a backup holder to race)".to_string());
    }
    plan.validate(k).map_err(TrainError::InvalidPlan)?;
    if let Some(ev) = cfg.schedule.iter().find(|ev| ev.worker >= k) {
        return invalid(format!(
            "schedule names worker {} outside the {k} slots",
            ev.worker
        ));
    }
    Membership::new(k, k, cfg.initial_workers, cfg.replicate).ok_or_else(|| {
        TrainError::InvalidPlan(format!(
            "impossible shape: {} initial of {k} slots (replicate: {})",
            cfg.initial_workers, cfg.replicate
        ))
    })
}

impl Drop for ColumnSgdEngine {
    fn drop(&mut self) {
        for w in self.membership.active() {
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

    fn reply(partial: Vec<f64>, compute_s: f64, sample_s: f64) -> Option<TaskReply> {
        Some(TaskReply {
            partial,
            compute_s,
            sample_s,
        })
    }

    fn billed(task: &Task) -> Option<(Vec<f64>, f64, f64)> {
        task.reply
            .as_ref()
            .map(|r| (r.partial.clone(), r.compute_s, r.sample_s))
    }

    #[test]
    fn compute_time_charges_only_the_counted_attempt() {
        // Regression: a scripted TaskFailure used to leave its compute
        // time accumulated on top of the successful retry's, so a worker
        // that failed once was billed for both attempts.
        let mut tasks = vec![Task::new(0, vec![0], false), Task::new(1, vec![1], false)];

        // Attempt 0 throws after burning 5 s: retry requested, nothing
        // billed, no partial kept.
        assert_eq!(match_reply(&mut tasks, 1, &[1], None), Some(1));
        assert_eq!(billed(&tasks[1]), None);

        // Attempt 1 succeeds in 2 s: kept and billed exactly 2 s.
        let ok = reply(vec![1.0], 2.0, 0.5);
        assert_eq!(match_reply(&mut tasks, 1, &[1], ok), Some(1));
        assert_eq!(billed(&tasks[1]), Some((vec![1.0], 2.0, 0.5)));

        // A duplicate reply (chaos) must change neither the partial nor
        // the bill.
        let dup = reply(vec![9.0], 9.0, 9.0);
        assert_eq!(match_reply(&mut tasks, 1, &[1], dup), None);
        assert_eq!(billed(&tasks[1]), Some((vec![1.0], 2.0, 0.5)));

        // A cover over another pid set (a reply that raced a migration)
        // fills no task.
        let cover = reply(vec![5.0], 1.0, 0.0);
        assert_eq!(match_reply(&mut tasks, 0, &[0, 1], cover), None);
        assert!(tasks[0].pending(), "worker 0's task still awaits its reply");
    }

    #[test]
    fn crash_discards_partial_and_its_bill() {
        // An S-backup group {0, 1} and a lone worker 2.
        let mut tasks = vec![
            Task::new(0, vec![0, 1], false),
            Task::new(1, vec![0, 1], false),
            Task::new(2, vec![2], false),
        ];
        for (w, pids) in [(0, vec![0, 1]), (2, vec![2])] {
            assert!(match_reply(&mut tasks, w, &pids, reply(vec![3.0], 4.0, 0.25)).is_some());
        }
        restart_tasks(&mut tasks, 0, true);
        assert_eq!(
            billed(&tasks[0]),
            None,
            "the pre-crash partial is discarded"
        );
        assert!(tasks[0].excused, "a live replica covers the group");
        restart_tasks(&mut tasks, 2, true);
        assert_eq!(billed(&tasks[2]), None);
        assert!(
            tasks[2].pending(),
            "no replica: the barrier waits for the respawn"
        );
        // The respawned incarnation's reply is then billed normally.
        let fresh = reply(vec![7.0], 1.0, 0.125);
        assert_eq!(match_reply(&mut tasks, 0, &[0, 1], fresh), Some(0));
        assert_eq!(billed(&tasks[0]), Some((vec![7.0], 1.0, 0.125)));
    }
}
