//! The ColumnSGD worker node.
//!
//! A worker owns one or more *partitions*: a column-partitioned slice of
//! the training data (a [`WorksetStore`]), the collocated model partition,
//! and its optimizer state. Without backup computation a worker owns
//! exactly one partition; with S-backup it owns the S+1 partitions of its
//! replica group (§IV-B, Figure 6).
//!
//! The worker runs a mailbox loop ([`run_worker`]) on its own OS thread and
//! communicates with the master exclusively through [`ColMsg`] messages.
//!
//! # Fault injection and resilience
//!
//! Faults originate *here*, not at the master: a [`WorkerScript`] carries
//! the worker's slice of the failure plan, and scripted worker failures
//! (plus probabilistic chaos crashes) are real `panic!`s that the guarded
//! spawn converts into a [`ColMsg::WorkerPanic`] report. The master only
//! ever learns about a fault by *detecting* it. Conversely the worker is
//! resilient to a faulty wire: unexpected or stale messages are logged
//! and dropped, duplicate updates are acknowledged idempotently, and
//! every reply carries its iteration tag so the master can discard
//! stragglers' late answers.

#![expect(clippy::disallowed_methods, reason = "per-task compute timing")]

use std::time::Instant;

use columnsgd_cluster::telemetry::{FaultRecord, KernelRecord, ProfScope};
use columnsgd_cluster::{
    ChaosSpec, Endpoint, FailureEvent, FailurePlan, NodeId, Recorder, TelemetryTx,
};
use columnsgd_data::block::Block;
use columnsgd_data::index::RowAddr;
use columnsgd_data::workset::{split_block, WorksetStore};
use columnsgd_data::{ColumnPartitioner, TwoPhaseIndex, Workset};
use columnsgd_linalg::CsrMatrix;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::{OptimizerState, ParamSet};

use columnsgd_ml::UpdateScratch;

use crate::config::ColumnSgdConfig;
use crate::msg::ColMsg;
use crate::pool::WorkerPool;

/// The worker-local slice of a failure plan: which of *this* worker's
/// compute attempts fail, and how. Serializable because the
/// multi-process backend ships it to worker processes in the stdin
/// bootstrap line.
#[derive(Debug, Clone, Default)]
pub struct WorkerScript {
    /// Iterations whose first attempt throws a task exception.
    pub task_failures: Vec<u64>,
    /// Iterations whose first attempt panics the whole worker.
    pub crashes: Vec<u64>,
    /// Probabilistic chaos (crash decisions; wire faults are applied by
    /// the router, not here).
    pub chaos: Option<ChaosSpec>,
}

impl WorkerScript {
    /// Extracts worker `w`'s script from a failure plan.
    pub fn from_plan(plan: &FailurePlan, w: usize) -> Self {
        let mut script = WorkerScript {
            chaos: plan.chaos,
            ..WorkerScript::default()
        };
        for ev in plan.events_for(w) {
            match ev {
                FailureEvent::TaskFailure { iteration, .. } => script.task_failures.push(iteration),
                FailureEvent::WorkerFailure { iteration, .. } => script.crashes.push(iteration),
            }
        }
        script
    }

    /// Whether this compute attempt throws a task exception. Scripted
    /// failures hit only attempt 0, so the retry succeeds (§X: "start a
    /// new task … no additional work on data loading is required").
    pub fn task_fails(&self, iteration: u64, attempt: u64) -> bool {
        attempt == 0 && self.task_failures.contains(&iteration)
    }

    /// Whether this compute attempt kills the worker — scripted crashes on
    /// attempt 0, plus seeded chaos crashes on any attempt (keyed by
    /// attempt, so a respawned worker is not doomed).
    pub fn crashes(&self, worker: usize, iteration: u64, attempt: u64) -> bool {
        if attempt == 0 && self.crashes.contains(&iteration) {
            return true;
        }
        self.chaos
            .is_some_and(|c| c.crash_decision(worker, iteration, attempt))
    }
}

/// One (data partition, model partition, optimizer state) triple, plus the
/// per-partition reusable buffers of the superstep hot path: the batch CSR
/// (storage reused across iterations via [`CsrMatrix::clear`]), the partial
/// statistics vector, and the update kernel's [`UpdateScratch`].
struct Partition {
    pid: usize,
    store: WorksetStore,
    params: ParamSet,
    opt: OptimizerState,
    index: Option<TwoPhaseIndex>,
    batch: CsrMatrix,
    stats: Vec<f64>,
    scratch: UpdateScratch,
    /// Membership epoch of the install that produced this partition copy
    /// (always 0 in the static engine). A migration stamped with an older
    /// epoch can never overwrite a newer copy.
    epoch: u64,
    /// Set when the last `rebuild_batch` hit a missing block (kernels run
    /// on the pool, so the error is parked here and collected by
    /// `ensure_batch` instead of panicking on a pool thread).
    batch_error: Option<String>,
}

impl Partition {
    fn new(pid: usize, cfg: &ColumnSgdConfig, part: &ColumnPartitioner, dim: u64) -> Self {
        let local_dim = part.local_dim(pid, dim);
        let params = cfg
            .model
            .init_params(local_dim, cfg.seed, |slot| part.global_index(pid, slot));
        let opt = OptimizerState::for_params(cfg.optimizer, &params);
        Self {
            pid,
            store: WorksetStore::new(),
            params,
            opt,
            index: None,
            batch: CsrMatrix::new(),
            stats: Vec::new(),
            scratch: UpdateScratch::new(),
            epoch: 0,
            batch_error: None,
        }
    }

    /// Rebuilds the batch CSR for this partition from sampled row
    /// addresses, reusing the matrix's storage. A missing block (a sample
    /// raced a partial reload) parks the error in `batch_error` for
    /// `ensure_batch` to surface as a task failure.
    fn rebuild_batch(&mut self, addrs: &[RowAddr]) {
        self.batch.clear();
        self.batch_error = None;
        for addr in addrs {
            let Some(ws) = self.store.get(addr.block) else {
                self.batch_error = Some(format!(
                    "partition {} missing block {}",
                    self.pid, addr.block
                ));
                return;
            };
            let (idx, val) = ws.data.row(addr.offset);
            self.batch
                .push_raw_row(ws.data.label(addr.offset), idx, val);
        }
    }
}

/// The worker's full state.
pub struct WorkerNode {
    id: usize,
    cfg: ColumnSgdConfig,
    part: ColumnPartitioner,
    dim: u64,
    partitions: Vec<Partition>,
    received_worksets: usize,
    /// Batch-cache key: the `(iteration, batch_size)` whose batches are
    /// currently materialized in the partitions. A re-issued task for the
    /// same key (deadline retry, straggler re-race) reuses the cached
    /// batches instead of re-sampling and rebuilding.
    cached_batch: Option<(u64, usize)>,
    /// Reusable sampled-address buffer (one per superstep, all partitions
    /// share the same logical batch).
    addrs: Vec<RowAddr>,
    /// Kernel pool fanning the per-partition loops out over
    /// `threads_per_worker` threads.
    pool: WorkerPool,
    /// Iteration of the last applied `Update` (for idempotent re-acks
    /// when an unreliable wire duplicates the broadcast).
    applied_iteration: Option<u64>,
}

impl WorkerNode {
    fn new(id: usize, k: usize, dim: u64, cfg: ColumnSgdConfig) -> Self {
        let part = cfg.partitioner(k, dim);
        let partitions = cfg
            .partitions_of(id)
            .into_iter()
            .map(|pid| Partition::new(pid, &cfg, &part, dim))
            .collect();
        Self {
            id,
            cfg,
            part,
            dim,
            partitions,
            received_worksets: 0,
            cached_batch: None,
            addrs: Vec::new(),
            pool: WorkerPool::new(cfg.threads_per_worker),
            applied_iteration: None,
        }
    }

    /// An elastic worker: partitioned over `parts_total` logical partitions
    /// but holding nothing until shards arrive as [`ColMsg::ShardData`].
    fn new_dynamic(id: usize, parts_total: usize, dim: u64, cfg: ColumnSgdConfig) -> Self {
        let part = cfg.partitioner(parts_total, dim);
        Self {
            id,
            cfg,
            part,
            dim,
            partitions: Vec::new(),
            received_worksets: 0,
            cached_batch: None,
            addrs: Vec::new(),
            pool: WorkerPool::new(cfg.threads_per_worker),
            applied_iteration: None,
        }
    }

    /// The iteration whose batch is currently materialized, if any.
    fn batch_iteration(&self) -> Option<u64> {
        self.cached_batch.map(|(t, _)| t)
    }

    fn holds(&self, pid: usize) -> Option<usize> {
        self.partitions.iter().position(|p| p.pid == pid)
    }

    /// Whether loading finished and the worker can compute.
    fn loaded(&self) -> bool {
        self.partitions.first().is_some_and(|p| p.index.is_some())
    }

    /// Splits a block and dispatches each workset to the replicas of its
    /// partition (§IV-A step 3). Self-deliveries are inserted directly.
    fn dispatch_block(&mut self, ep: &Endpoint<ColMsg>, block: &Block) {
        let worksets = split_block(block, &self.part);
        for (pid, ws) in worksets.into_iter().enumerate() {
            for replica in self.cfg.replicas_of(pid) {
                if replica == self.id {
                    self.accept_workset(pid, ws.clone());
                } else if let Err(e) = ep.send(
                    NodeId::Worker(replica),
                    ColMsg::Workset {
                        pid,
                        ws: ws.clone(),
                    },
                ) {
                    // Undeliverable workset: the replica's master-side load
                    // deadline will see the gap; dying here would turn one
                    // lost peer into a second worker failure.
                    eprintln!(
                        "worker {}: workset for partition {pid} undeliverable to \
                         worker {replica}: {e}",
                        self.id
                    );
                }
            }
        }
    }

    /// Re-splits a recovery block, keeping only this worker's partitions
    /// (worker-failure recovery: peers keep their data, §X).
    fn reload_block(&mut self, block: &Block) {
        let worksets = split_block(block, &self.part);
        for (pid, ws) in worksets.into_iter().enumerate() {
            if self.holds(pid).is_some() {
                self.accept_workset(pid, ws);
            }
        }
    }

    fn accept_workset(&mut self, pid: usize, ws: Workset) {
        let Some(slot) = self.holds(pid) else {
            // A misrouted workset cannot be stored; drop it rather than
            // dying — the sender's master will detect any resulting gap.
            eprintln!(
                "worker {}: dropping workset for foreign partition {pid}",
                self.id
            );
            return;
        };
        self.partitions[slot].store.insert(ws);
        self.received_worksets += 1;
    }

    /// Builds the per-partition two-phase indexes once loading finishes.
    fn finalize_load(&mut self) {
        for p in &mut self.partitions {
            let layout: Vec<(u64, usize)> = p
                .store
                .cumulative_rows()
                .iter()
                .scan(0usize, |prev, &(bid, cum)| {
                    let rows = cum - *prev;
                    *prev = cum;
                    Some((bid, rows))
                })
                .collect();
            p.index = Some(TwoPhaseIndex::new(layout, self.cfg.seed));
        }
    }

    /// Materializes the batch CSRs for `iteration` in every partition,
    /// unless the batch cache already holds them (a re-issued task after a
    /// deadline or straggler race hits the cache and pays nothing).
    fn ensure_batch(&mut self, iteration: u64) -> Result<(), String> {
        let _prof = ProfScope::enter("batch_sample");
        let key = (iteration, self.cfg.batch_size);
        if self.cached_batch == Some(key) {
            return Ok(());
        }
        {
            let index = self
                .partitions
                .first()
                .and_then(|p| p.index.as_ref())
                .ok_or_else(|| "batch requested before loading finished".to_string())?;
            index.sample_batch_into(iteration, self.cfg.batch_size, &mut self.addrs);
        }
        let addrs = &self.addrs;
        self.pool
            .for_each_mut(&mut self.partitions, |_, p| p.rebuild_batch(addrs));
        for p in &mut self.partitions {
            if let Some(e) = p.batch_error.take() {
                return Err(e);
            }
        }
        self.cached_batch = Some(key);
        Ok(())
    }

    /// `computeStatistics` (Algorithm 3 lines 14-16): samples the batch via
    /// the shared two-phase index and returns the summed partial statistics
    /// of every held partition (the group aggregate under backup).
    ///
    /// Partition kernels run on the worker pool; the reduction folds in
    /// fixed partition order, so the result is bit-identical at any pool
    /// width.
    fn compute_stats(&mut self, iteration: u64) -> Result<Vec<f64>, String> {
        let _prof = ProfScope::enter("worker_stats");
        self.ensure_batch(iteration)?;
        let model = self.cfg.model;
        self.pool.for_each_mut(&mut self.partitions, |_, p| {
            model.compute_stats(&p.params, &p.batch, &mut p.stats);
        });
        let mut agg = vec![0.0; self.cfg.batch_size * model.stats_width()];
        for p in &self.partitions {
            reduce_stats(&mut agg, &p.stats);
        }
        Ok(agg)
    }

    /// `updateModel` (Algorithm 3 lines 17-20): recovers the local gradient
    /// from the aggregated statistics and steps every held partition.
    /// Partitions update in parallel on the worker pool — they own disjoint
    /// model slices, and each partition's kernel is deterministic, so pool
    /// width never changes the resulting model.
    fn update(&mut self, iteration: u64, stats: &[f64]) {
        let _prof = ProfScope::enter("worker_update");
        debug_assert_eq!(
            Some(iteration),
            self.batch_iteration(),
            "update for an iteration whose batch was never sampled"
        );
        let model = self.cfg.model;
        let up = self.cfg.update;
        let total_batch = self.cfg.batch_size;
        self.pool.for_each_mut(&mut self.partitions, |_, p| {
            model.update_from_stats_with(
                &mut p.params,
                &mut p.opt,
                &p.batch,
                stats,
                &up,
                total_batch,
                &mut p.scratch,
            );
        });
        self.applied_iteration = Some(iteration);
    }

    /// Worker-failure injection: lose everything (§X — "both partitions of
    /// the model and the training data on this worker are lost").
    fn die(&mut self) {
        for p in &mut self.partitions {
            p.store.clear();
            p.params.reset();
            p.opt = OptimizerState::for_params(self.cfg.optimizer, &p.params);
            p.index = None;
            p.batch.clear();
            p.stats.clear();
        }
        self.received_worksets = 0;
        self.cached_batch = None;
        self.applied_iteration = None;
    }

    /// Installs a migrated shard: a fresh [`Partition`] built from the
    /// shipped worksets and parameters, stamped with the migration epoch.
    /// Returns `true` when the caller should acknowledge (fresh install or
    /// an idempotent duplicate of the same epoch), `false` for a stale
    /// epoch that must be dropped unacknowledged.
    fn install_shard(
        &mut self,
        pid: usize,
        epoch: u64,
        worksets: Vec<Workset>,
        params: ParamSet,
    ) -> bool {
        if let Some(slot) = self.holds(pid) {
            if self.partitions[slot].epoch >= epoch {
                // Same epoch: a duplicated ShardData (chaos); the install
                // already happened, re-ack. Older epoch: a delayed
                // migration from a superseded plan; never overwrite.
                return self.partitions[slot].epoch == epoch;
            }
            self.partitions.remove(slot);
        }
        let mut p = Partition::new(pid, &self.cfg, &self.part, self.dim);
        p.epoch = epoch;
        p.opt = OptimizerState::for_params(self.cfg.optimizer, &params);
        p.params = params;
        for ws in worksets {
            p.store.insert(ws);
        }
        let layout: Vec<(u64, usize)> = p
            .store
            .cumulative_rows()
            .iter()
            .scan(0usize, |prev, &(bid, cum)| {
                let rows = cum - *prev;
                *prev = cum;
                Some((bid, rows))
            })
            .collect();
        p.index = Some(TwoPhaseIndex::new(layout, self.cfg.seed));
        self.partitions.push(p);
        self.partitions.sort_unstable_by_key(|p| p.pid);
        // The held set changed: cached batches no longer cover it.
        self.cached_batch = None;
        true
    }

    /// Drops a shard that migrated elsewhere. A newer-epoch copy survives a
    /// stale drop order.
    fn drop_shard(&mut self, pid: usize, epoch: u64) {
        if let Some(slot) = self.holds(pid) {
            if self.partitions[slot].epoch <= epoch {
                self.partitions.remove(slot);
                self.cached_batch = None;
            }
        }
    }

    /// Overwrites the parameters of held partitions (crash recovery: the
    /// master restores the current model from a surviving replica).
    fn install_params(&mut self, parts: Vec<(usize, ParamSet)>) {
        for (pid, params) in parts {
            if let Some(slot) = self.holds(pid) {
                let p = &mut self.partitions[slot];
                p.opt = OptimizerState::for_params(self.cfg.optimizer, &params);
                p.params = params;
            }
        }
    }

    /// `computeStatistics` over an explicit partition subset (elastic
    /// engine). The batch is materialized for *every* held partition — so a
    /// backup that computed only the straggler's partitions can still apply
    /// the broadcast update to all its shards — but kernels run only for
    /// the requested pids. Returns `(covered pids, partial)`.
    fn compute_stats_for(
        &mut self,
        iteration: u64,
        pids: &[usize],
    ) -> Result<(Vec<usize>, Vec<f64>), String> {
        let _prof = ProfScope::enter("worker_stats");
        self.ensure_batch(iteration)?;
        let model = self.cfg.model;
        let wanted = |pid: usize| pids.contains(&pid);
        self.pool.for_each_mut(&mut self.partitions, |_, p| {
            if wanted(p.pid) {
                model.compute_stats(&p.params, &p.batch, &mut p.stats);
            } else {
                p.stats.clear();
            }
        });
        let mut agg = vec![0.0; self.cfg.batch_size * model.stats_width()];
        let mut covered = Vec::new();
        for p in &self.partitions {
            if wanted(p.pid) {
                reduce_stats(&mut agg, &p.stats);
                covered.push(p.pid);
            }
        }
        Ok((covered, agg))
    }

    /// The worksets of shard `pid` in block-id order plus its current
    /// parameters — the migration payload.
    fn shard_payload(&self, pid: usize) -> Option<(Vec<Workset>, ParamSet)> {
        let slot = self.holds(pid)?;
        let p = &self.partitions[slot];
        let mut worksets: Vec<Workset> = p.store.iter().map(|(_, ws)| ws.clone()).collect();
        worksets.sort_unstable_by_key(|ws| ws.block_id);
        Some((worksets, p.params.clone()))
    }

    /// The first partition's `(block, rows)` layout for the LoadAck, in
    /// canonical (block-id) order — workset *arrival* order differs across
    /// workers, but the two-phase index sorts by block id, so the canonical
    /// layout is what must agree.
    fn layout(&self) -> Vec<(u64, usize)> {
        let mut prev = 0usize;
        let mut layout: Vec<(u64, usize)> = self.partitions[0]
            .store
            .cumulative_rows()
            .iter()
            .map(|&(bid, cum)| {
                let rows = cum - prev;
                prev = cum;
                (bid, rows)
            })
            .collect();
        layout.sort_unstable_by_key(|&(bid, _)| bid);
        layout
    }
}

/// The worker mailbox loop. Runs until [`ColMsg::Shutdown`] or the master
/// disappears; panics (scripted, chaos, or genuine bugs) unwind out of
/// here and are converted into [`ColMsg::WorkerPanic`] by the guarded
/// spawn in the engine.
///
/// `recorder` receives this worker's kernel and guard records: a clone of
/// the master's shared recorder in-process, or a worker-local recorder in
/// a worker process. `ship` (TCP mode only, when the master traces) flushes
/// the local recorder to the master as telemetry frames; flushes happen
/// *before* the protocol reply they describe, so a master barrier that saw
/// the reply has already ingested the matching worker events.
#[expect(
    clippy::too_many_arguments,
    reason = "the worker loop carries the full worker bootstrap"
)]
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn run_worker(
    ep: Endpoint<ColMsg>,
    id: usize,
    k: usize,
    dim: u64,
    cfg: ColumnSgdConfig,
    script: WorkerScript,
    recorder: Recorder,
    ship: Option<TelemetryTx>,
) {
    let flush_telemetry = || {
        if let Some(tx) = &ship {
            // Fold this process's profiler accumulation into the outgoing
            // event batch first: the samples ride the same socket as the
            // barrier reply that follows, so the master ingests them before
            // the superstep completes. No-op unless profiling is enabled.
            recorder.prof_drain(Some(id as u64));
            tx.flush(&recorder);
        }
    };
    let mut w = WorkerNode::new(id, k, dim, cfg);
    let held = w.partitions.len();
    let mut load_done_total: Option<usize> = None;
    let mut reload_done_total: Option<usize> = None;
    let mut reload_received = 0usize;

    loop {
        let env = match ep.recv() {
            Ok(env) => env,
            // Master gone: shut down quietly (end of test/bench).
            Err(_) => return,
        };
        match env.payload {
            ColMsg::LoadBlock(block) => w.dispatch_block(&ep, &block),
            ColMsg::Workset { pid, ws } => w.accept_workset(pid, ws),
            ColMsg::LoadDone { blocks_total } => load_done_total = Some(blocks_total),
            ColMsg::ComputeStats {
                iteration,
                batch_size,
                attempt,
            } => {
                #[expect(clippy::panic, reason = "injected fault, reported as WorkerPanic")]
                if script.crashes(id, iteration, attempt) {
                    panic!("injected worker failure at iteration {iteration} attempt {attempt}");
                }
                if batch_size != w.cfg.batch_size {
                    // A malformed task: computing on a differently-sized
                    // batch would ship statistics the master cannot reduce
                    // (and silently train on the wrong data in release
                    // builds). Report a task failure and let the master's
                    // retry logic decide.
                    eprintln!(
                        "worker {id}: ComputeStats t={iteration} carries batch_size \
                         {batch_size}, configured {}; refusing task",
                        w.cfg.batch_size
                    );
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::StatsReply {
                            iteration,
                            worker: id,
                            partial: Vec::new(),
                            compute_s: 0.0,
                            sample_s: 0.0,
                            task_failed: true,
                        },
                    );
                    continue;
                }
                if !w.loaded() {
                    // Can't compute without data (e.g. a stale re-issue
                    // raced a respawn). The master's deadline will fire
                    // and its probe will see loaded=false.
                    eprintln!("worker {id}: dropping ComputeStats t={iteration} before loading");
                    continue;
                }
                let start = Instant::now();
                if script.task_fails(iteration, attempt) {
                    // Task failure: the task throws; report the exception
                    // and let the master decide (Figure 13a).
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::StatsReply {
                            iteration,
                            worker: id,
                            partial: Vec::new(),
                            compute_s: start.elapsed().as_secs_f64(),
                            sample_s: 0.0,
                            task_failed: true,
                        },
                    );
                } else {
                    // Time the sampling/assembly sub-phase separately for
                    // telemetry; `compute_stats` below hits the batch
                    // cache, so the work is not repeated. A batch that
                    // cannot be assembled (block lost in a reload race) is
                    // a task failure, not a worker death: report it and
                    // let the master's retry logic decide.
                    let sampled = w.ensure_batch(iteration);
                    let sample_s = start.elapsed().as_secs_f64();
                    match sampled.and_then(|()| w.compute_stats(iteration)) {
                        Ok(partial) => {
                            recorder.kernel(KernelRecord {
                                iteration,
                                model: w.cfg.model.label().to_string(),
                                batch_size: w.cfg.batch_size as u64,
                                pool_width: w.cfg.threads_per_worker as u64,
                                flops_proxy: w.cfg.model.flops_proxy(w.cfg.batch_size, 1),
                                worker: Some(id as u64),
                            });
                            // Worker-side NaN guard: a diverged kernel is
                            // recorded here even when the statistics never
                            // reach the master intact (e.g. a dropped
                            // reply), so TCP traces keep the evidence.
                            if partial.iter().any(|v| !v.is_finite()) {
                                recorder.fault(FaultRecord {
                                    iteration,
                                    worker: id as u64,
                                    fault: "non-finite statistics".to_string(),
                                    detection: "worker guard".to_string(),
                                    detection_latency_s: start.elapsed().as_secs_f64(),
                                    recovery_cost_s: 0.0,
                                    attempt: attempt + 1,
                                    fatal: false,
                                });
                            }
                            flush_telemetry();
                            let _ = ep.send(
                                NodeId::Master,
                                ColMsg::StatsReply {
                                    iteration,
                                    worker: id,
                                    partial,
                                    compute_s: start.elapsed().as_secs_f64(),
                                    sample_s,
                                    task_failed: false,
                                },
                            );
                        }
                        Err(e) => {
                            eprintln!(
                                "worker {id}: ComputeStats t={iteration} failed: {e}; \
                                 reporting task failure"
                            );
                            let _ = ep.send(
                                NodeId::Master,
                                ColMsg::StatsReply {
                                    iteration,
                                    worker: id,
                                    partial: Vec::new(),
                                    compute_s: start.elapsed().as_secs_f64(),
                                    sample_s,
                                    task_failed: true,
                                },
                            );
                        }
                    }
                }
            }
            ColMsg::Update { iteration, stats } => {
                if w.applied_iteration == Some(iteration) {
                    // Duplicate broadcast (chaos): the update is already
                    // in; re-ack idempotently so a lost ack also heals.
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::UpdateAck {
                            iteration,
                            worker: id,
                            compute_s: 0.0,
                        },
                    );
                } else if Some(iteration) == w.batch_iteration() {
                    let start = Instant::now();
                    w.update(iteration, &stats);
                    flush_telemetry();
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::UpdateAck {
                            iteration,
                            worker: id,
                            compute_s: start.elapsed().as_secs_f64(),
                        },
                    );
                } else {
                    // Stale or unsampled iteration: applying would corrupt
                    // the model. Drop; the master's deadline recovers.
                    eprintln!(
                        "worker {id}: dropping Update t={iteration} (batch is t={:?})",
                        w.batch_iteration()
                    );
                }
            }
            ColMsg::Probe { iteration } => {
                let _ = ep.send_reliable(
                    NodeId::Master,
                    ColMsg::ProbeAck {
                        worker: id,
                        iteration,
                        loaded: w.loaded(),
                    },
                );
            }
            ColMsg::Die => {
                w.die();
                reload_received = 0;
                reload_done_total = None;
            }
            ColMsg::ReloadBlock(block) => {
                w.reload_block(&block);
                reload_received += 1;
                maybe_finish_reload(&mut w, &ep, reload_done_total, reload_received);
            }
            ColMsg::ReloadDone { blocks_total } => {
                reload_done_total = Some(blocks_total);
                maybe_finish_reload(&mut w, &ep, reload_done_total, reload_received);
            }
            ColMsg::FetchModel => {
                let parts = w
                    .partitions
                    .iter()
                    .map(|p| (p.pid, p.params.clone()))
                    .collect();
                // Reliable: the inspection path must work even under chaos.
                let _ = ep.send_reliable(NodeId::Master, ColMsg::ModelReply { worker: id, parts });
            }
            // Crash recovery under S-backup: the master restores the
            // group-current parameters fetched from a surviving replica.
            ColMsg::InstallParams { parts } => w.install_params(parts),
            ColMsg::Shutdown => {
                // Final drain: ship any events the last superstep's replies
                // did not cover before the connection goes away.
                flush_telemetry();
                return;
            }
            // Master-bound replies and elastic-only shard traffic are
            // protocol noise on a static worker: log and drop instead of
            // panicking. Named variant-by-variant (not a wildcard) so a
            // new ColMsg variant fails both the compiler's exhaustiveness
            // check and protocol-conformance until a decision is made.
            other @ (ColMsg::LoadAck { .. }
            | ColMsg::StatsReply { .. }
            | ColMsg::UpdateAck { .. }
            | ColMsg::ReloadAck { .. }
            | ColMsg::ModelReply { .. }
            | ColMsg::ProbeAck { .. }
            | ColMsg::WorkerPanic { .. }
            | ColMsg::ComputeStatsFor { .. }
            | ColMsg::StatsReplyFor { .. }
            | ColMsg::ShardRequest { .. }
            | ColMsg::ShardData { .. }
            | ColMsg::ShardInstalled { .. }
            | ColMsg::DropShard { .. }) => {
                eprintln!(
                    "worker {id}: dropping unexpected {} from {}",
                    other.name(),
                    env.from
                );
            }
        }

        // Finalize loading when both the done-marker and all worksets have
        // arrived (they race on different links).
        if let Some(total) = load_done_total {
            if w.received_worksets == total * held && !w.loaded() {
                w.finalize_load();
                if ep
                    .send_reliable(
                        NodeId::Master,
                        ColMsg::LoadAck {
                            worker: id,
                            layout: w.layout(),
                        },
                    )
                    .is_err()
                {
                    // Master gone mid-load: nothing left to serve.
                    return;
                }
                load_done_total = None;
            }
        }
    }
}

/// The elastic worker mailbox loop. Unlike [`run_worker`] there is no bulk
/// load phase: shards arrive individually as [`ColMsg::ShardData`] (from
/// the master at startup, from a peer during migration), compute requests
/// name explicit partition subsets, and the held set changes over the
/// worker's lifetime.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn run_worker_dynamic(
    ep: Endpoint<ColMsg>,
    id: usize,
    parts_total: usize,
    dim: u64,
    cfg: ColumnSgdConfig,
    script: WorkerScript,
) {
    let mut w = WorkerNode::new_dynamic(id, parts_total, dim, cfg);

    loop {
        let env = match ep.recv() {
            Ok(env) => env,
            Err(_) => return,
        };
        match env.payload {
            ColMsg::ShardData {
                pid,
                epoch,
                worksets,
                params,
            } => {
                if w.install_shard(pid, epoch, worksets, params) {
                    let _ = ep.send_reliable(
                        NodeId::Master,
                        ColMsg::ShardInstalled {
                            pid,
                            epoch,
                            worker: id,
                        },
                    );
                } else {
                    eprintln!(
                        "worker {id}: dropping stale ShardData for partition {pid} \
                         (epoch {epoch})"
                    );
                }
            }
            ColMsg::ShardRequest { pid, epoch, to } => {
                match w.shard_payload(pid) {
                    // The shard travels the *data* plane so chaos can hit
                    // it and the meter prices it like any other payload.
                    Some((worksets, params)) => {
                        if let Err(e) = ep.send(
                            NodeId::Worker(to),
                            ColMsg::ShardData {
                                pid,
                                epoch,
                                worksets,
                                params,
                            },
                        ) {
                            eprintln!("worker {id}: shard {pid} undeliverable to worker {to}: {e}");
                        }
                    }
                    None => eprintln!(
                        "worker {id}: ShardRequest for partition {pid} not held; dropping"
                    ),
                }
            }
            ColMsg::DropShard { pid, epoch } => w.drop_shard(pid, epoch),
            ColMsg::InstallParams { parts } => w.install_params(parts),
            ColMsg::ComputeStatsFor {
                iteration,
                batch_size,
                attempt,
                pids,
            } => {
                #[expect(clippy::panic, reason = "injected fault, reported as WorkerPanic")]
                if script.crashes(id, iteration, attempt) {
                    panic!("injected worker failure at iteration {iteration} attempt {attempt}");
                }
                let fail = |reason: &str, compute_s: f64, sample_s: f64| {
                    eprintln!("worker {id}: ComputeStatsFor t={iteration}: {reason}");
                    ColMsg::StatsReplyFor {
                        iteration,
                        worker: id,
                        pids: Vec::new(),
                        partial: Vec::new(),
                        compute_s,
                        sample_s,
                        task_failed: true,
                    }
                };
                if batch_size != w.cfg.batch_size {
                    let _ = ep.send(NodeId::Master, fail("batch size mismatch", 0.0, 0.0));
                    continue;
                }
                if !w.loaded() || pids.iter().all(|&pid| w.holds(pid).is_none()) {
                    // No requested shard installed here (a request raced a
                    // migration): report failure so the master re-plans.
                    let _ = ep.send(NodeId::Master, fail("no requested shard held", 0.0, 0.0));
                    continue;
                }
                let start = Instant::now();
                if script.task_fails(iteration, attempt) {
                    let elapsed = start.elapsed().as_secs_f64();
                    let _ = ep.send(NodeId::Master, fail("injected task failure", elapsed, 0.0));
                    continue;
                }
                let sampled = w.ensure_batch(iteration);
                let sample_s = start.elapsed().as_secs_f64();
                match sampled.and_then(|()| w.compute_stats_for(iteration, &pids)) {
                    Ok((covered, partial)) => {
                        let _ = ep.send(
                            NodeId::Master,
                            ColMsg::StatsReplyFor {
                                iteration,
                                worker: id,
                                pids: covered,
                                partial,
                                compute_s: start.elapsed().as_secs_f64(),
                                sample_s,
                                task_failed: false,
                            },
                        );
                    }
                    Err(e) => {
                        let elapsed = start.elapsed().as_secs_f64();
                        let _ = ep.send(NodeId::Master, fail(&e, elapsed, sample_s));
                    }
                }
            }
            ColMsg::Update { iteration, stats } => {
                if w.applied_iteration == Some(iteration) {
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::UpdateAck {
                            iteration,
                            worker: id,
                            compute_s: 0.0,
                        },
                    );
                } else if Some(iteration) == w.batch_iteration() {
                    let start = Instant::now();
                    w.update(iteration, &stats);
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::UpdateAck {
                            iteration,
                            worker: id,
                            compute_s: start.elapsed().as_secs_f64(),
                        },
                    );
                } else {
                    eprintln!(
                        "worker {id}: dropping Update t={iteration} (batch is t={:?})",
                        w.batch_iteration()
                    );
                }
            }
            ColMsg::Probe { iteration } => {
                let _ = ep.send_reliable(
                    NodeId::Master,
                    ColMsg::ProbeAck {
                        worker: id,
                        iteration,
                        loaded: w.loaded(),
                    },
                );
            }
            ColMsg::FetchModel => {
                let parts = w
                    .partitions
                    .iter()
                    .map(|p| (p.pid, p.params.clone()))
                    .collect();
                let _ = ep.send_reliable(NodeId::Master, ColMsg::ModelReply { worker: id, parts });
            }
            ColMsg::Die => w.die(),
            ColMsg::Shutdown => return,
            // Static-protocol loading/compute traffic and master-bound
            // replies are noise on a dynamic worker: log and drop. Named
            // explicitly so new variants force a decision here (compiler
            // exhaustiveness + protocol-conformance both fail otherwise).
            other @ (ColMsg::LoadBlock(..)
            | ColMsg::ReloadBlock(..)
            | ColMsg::Workset { .. }
            | ColMsg::LoadDone { .. }
            | ColMsg::ReloadDone { .. }
            | ColMsg::ComputeStats { .. }
            | ColMsg::LoadAck { .. }
            | ColMsg::StatsReply { .. }
            | ColMsg::StatsReplyFor { .. }
            | ColMsg::UpdateAck { .. }
            | ColMsg::ReloadAck { .. }
            | ColMsg::ModelReply { .. }
            | ColMsg::ProbeAck { .. }
            | ColMsg::WorkerPanic { .. }
            | ColMsg::ShardInstalled { .. }) => {
                eprintln!(
                    "worker {id}: dropping unexpected {} from {}",
                    other.name(),
                    env.from
                );
            }
        }
    }
}

fn maybe_finish_reload(
    w: &mut WorkerNode,
    ep: &Endpoint<ColMsg>,
    total: Option<usize>,
    received_blocks: usize,
) {
    if let Some(total) = total {
        if received_blocks == total && !w.loaded() {
            w.finalize_load();
            let _ = ep.send_reliable(NodeId::Master, ColMsg::ReloadAck { worker: w.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::FailurePlan;

    #[test]
    fn script_extracts_this_workers_events() {
        let plan = FailurePlan {
            events: vec![
                FailureEvent::TaskFailure {
                    iteration: 3,
                    worker: 1,
                },
                FailureEvent::WorkerFailure {
                    iteration: 7,
                    worker: 1,
                },
                FailureEvent::TaskFailure {
                    iteration: 5,
                    worker: 0,
                },
            ],
            ..FailurePlan::default()
        };
        let s = WorkerScript::from_plan(&plan, 1);
        assert_eq!(s.task_failures, vec![3]);
        assert_eq!(s.crashes, vec![7]);
        assert!(s.task_fails(3, 0));
        assert!(!s.task_fails(3, 1), "retry must succeed");
        assert!(s.crashes(1, 7, 0));
        assert!(!s.crashes(1, 7, 1), "respawned worker must survive");
        let s0 = WorkerScript::from_plan(&plan, 0);
        assert_eq!(s0.task_failures, vec![5]);
        assert!(s0.crashes.is_empty());
    }

    #[test]
    fn chaos_crashes_flow_through_script() {
        let spec = ChaosSpec {
            seed: 3,
            crash_p: 1.0,
            ..ChaosSpec::default()
        };
        let s = WorkerScript {
            chaos: Some(spec),
            ..WorkerScript::default()
        };
        assert!(s.crashes(0, 0, 0));
        let none = WorkerScript::default();
        assert!(!none.crashes(0, 0, 0));
    }
}
