//! Elastic membership for the ColumnSGD master: the run *shape*, dynamic
//! worker join/leave, live shard migration, speculative backup execution,
//! and the gauge-driven scale policy.
//!
//! There is one master ([`ColumnSgdEngine`]); an [`ElasticConfig`] is the
//! shape it runs. The *fixed* shape — `ElasticConfig::new(cfg, K, K)` with
//! nothing else set — is the paper's static cluster. Any other shape can
//! change membership: the feature space is split once into `max_workers`
//! logical column partitions, and the master-side `Membership` state
//! machine maps partitions onto whichever workers are currently active:
//!
//! * **Join**: a registered-but-inactive worker slot is started and
//!   admitted; the planner levels primary load by migrating whole column
//!   shards to the joiner as metered [`ColMsg::ShardData`] traffic.
//! * **Leave** (graceful): the leaver's shards migrate away first, then it
//!   shuts down.
//! * **Crash**: scripted panics (or seeded chaos) kill the worker; the
//!   master only learns by *detection* (panic report, send failure, or
//!   deadline probe), then promotes surviving replicas or rebuilds lost
//!   shards from its block store.
//!
//! Every migration travels the ordinary data plane through the router —
//! never shared memory — so `TrafficStats` and telemetry `CommRecord`s
//! price migration by construction, and seeded wire chaos can hit a shard
//! transfer exactly like any other message (epoch-fenced installs keep
//! retries and stale deliveries safe).
//!
//! **Speculative backup execution**: when the online monitor's
//! sliding-window straggler alarm names a worker, the next superstep also
//! issues that worker's tasks to the backup holders of its partitions.
//! First result wins the superstep's simulated clock; the loser's reply is
//! logged as a telemetry fault record. Statistics are always aggregated
//! from the primary copy, so speculation changes *timing*, never the
//! trained bits.
//!
//! Panic hygiene: faults surface as typed [`TrainError`]s, never panics —
//! clippy's panic lints are denied crate-wide (`lib.rs`).

#![expect(clippy::disallowed_methods, reason = "migration deadlines")]

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use columnsgd_cluster::telemetry::FaultRecord;
use columnsgd_cluster::{
    DiagnosticKind, MembershipError, NetError, NodeId, RebalancePlan, ShardMove, ShardRole,
    WorkerState,
};
use columnsgd_data::workset::split_block;
use columnsgd_data::Workset;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::engine::{ColumnSgdEngine, Step, Task, PER_OBJECT_S};
use crate::error::{DetectionMethod, FaultKind, TrainError};
use crate::msg::ColMsg;
use crate::worker::WorkerScript;

/// A scheduled membership transition, applied at the start of the named
/// iteration (between supersteps, when no task is in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticEvent {
    /// Iteration at whose start the transition applies.
    pub iteration: u64,
    /// The worker slot concerned.
    pub worker: usize,
    /// What happens to it.
    pub action: ElasticAction,
}

/// The membership transitions an [`ElasticEvent`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticAction {
    /// Start and admit an inactive slot; shards migrate *to* it.
    Join,
    /// Gracefully drain an active worker; shards migrate *away* first.
    Leave,
    /// Kill the worker mid-superstep (a real scripted panic at the
    /// worker). The master is *not* told — it must detect the crash and
    /// re-plan reactively, exactly like an unscripted fault.
    Crash,
}

/// Scale policy hook: deterministic rules consuming the monitor's
/// straggler/skew gauges. Disabled by default — policy actions depend on
/// measured alarms, so seeded-determinism experiments leave this off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScalePolicy {
    /// After this many straggler/skew alarms against one worker, admit the
    /// lowest inactive spare (scale-up) and drain the flagged worker
    /// (scale-down) — a rolling replacement. `None` disables the hook.
    pub replace_flagged_after: Option<u64>,
}

/// The shape of a training run: how many worker slots exist, how many
/// start active, and which membership features are on.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The base training configuration. `backup_s > 0` (the static
    /// replica groups of §IV-B) needs the fixed shape; elastic shapes own
    /// replica placement through `replicate`.
    pub base: ColumnSgdConfig,
    /// Registered worker slots — also the number of logical column
    /// partitions (repartitioning moves whole shards, never re-splits).
    pub max_workers: usize,
    /// Slots active from the start (`1..=max_workers`).
    pub initial_workers: usize,
    /// Keep one passive backup replica of every shard on a second worker
    /// (enables promotion-on-crash and speculative execution).
    pub replicate: bool,
    /// Launch duplicate tasks on backup holders when the straggler alarm
    /// names a worker (requires `replicate`).
    pub speculate: bool,
    /// Scripted membership transitions.
    pub schedule: Vec<ElasticEvent>,
    /// Gauge-driven scale hook.
    pub policy: ScalePolicy,
}

impl ElasticConfig {
    /// A run over `max_workers` slots with `initial_workers` active, no
    /// replication, no speculation, empty schedule.
    pub fn new(base: ColumnSgdConfig, max_workers: usize, initial_workers: usize) -> Self {
        Self {
            base,
            max_workers,
            initial_workers,
            replicate: false,
            speculate: false,
            schedule: Vec::new(),
            policy: ScalePolicy::default(),
        }
    }

    /// Builder-style replication toggle.
    pub fn with_replication(mut self) -> Self {
        self.replicate = true;
        self
    }

    /// Builder-style speculation toggle (implies replication).
    pub fn with_speculation(mut self) -> Self {
        self.replicate = true;
        self.speculate = true;
        self
    }

    /// Builder-style schedule.
    pub fn with_schedule(mut self, schedule: Vec<ElasticEvent>) -> Self {
        self.schedule = schedule;
        self
    }

    /// The first membership (scale) feature this shape uses, named after
    /// its field — `None` for the fixed shape, whose membership never
    /// changes and whose dead workers are respawned in place (§X).
    pub fn scale_feature(&self) -> Option<&'static str> {
        if self.initial_workers < self.max_workers {
            Some("initial_workers")
        } else if !self.schedule.is_empty() {
            Some("schedule")
        } else if self.speculate {
            Some("speculate")
        } else if self.replicate {
            Some("replicate")
        } else if self.policy != ScalePolicy::default() {
            Some("policy")
        } else {
            None
        }
    }

    /// Whether this is the fixed shape (see [`ElasticConfig::scale_feature`]).
    pub fn is_fixed(&self) -> bool {
        self.scale_feature().is_none()
    }
}

/// Migration and speculation accounting plus the policy hook's state.
#[derive(Debug, Default)]
pub(crate) struct ElasticState {
    /// Shard migrations executed (moves, not drops).
    pub(crate) migrations: u64,
    /// Bytes of migration traffic, as metered on the wire.
    pub(crate) migration_bytes: u64,
    /// Speculative races won by a backup replica (primary was slower).
    pub(crate) spec_wins: u64,
    /// Speculative duplicate replies dropped after losing the race.
    pub(crate) spec_losses: u64,
    /// Workers with a straggler alarm against them (sticky). Drives
    /// speculation — which affects timing only, never trained bits.
    armed: BTreeSet<usize>,
    /// Per-worker straggler/skew alarm counts consumed by the policy hook.
    alarm_counts: BTreeMap<usize, u64>,
    /// Monitor events already consumed by the policy scan.
    seen_events: usize,
}

impl ColumnSgdEngine {
    /// The worker's failure script: its slice of the failure plan plus any
    /// scheduled [`ElasticAction::Crash`] against it (a real panic — the
    /// master detects it, it is never told).
    pub(crate) fn script_for(&self, w: usize) -> WorkerScript {
        let mut script = WorkerScript::from_plan(&self.plan, w);
        for ev in &self.cfg.schedule {
            if ev.worker == w && ev.action == ElasticAction::Crash {
                script.crashes.push(ev.iteration);
            }
        }
        script
    }

    /// Speculative duplicates for this superstep: each armed worker's
    /// partitions, one task per partition, on their backup holders.
    pub(crate) fn speculative_tasks(&self) -> Vec<Task> {
        let mut tasks = Vec::new();
        if !self.cfg.speculate {
            return tasks;
        }
        for &v in &self.elastic.armed {
            if self.membership.state(v) != Some(WorkerState::Active) {
                continue;
            }
            for pid in self.membership.primaries_of(v) {
                if let Some(b) = self.membership.backup_of(pid) {
                    tasks.push(Task::new(b, vec![pid], true));
                }
            }
        }
        tasks
    }

    /// Logs one speculative race outcome (telemetry only; the fold always
    /// uses the primary copy): a win against `worker`'s slower primary
    /// (`saved_s` of barrier time), or `worker`'s dropped duplicate.
    pub(crate) fn note_race(&mut self, t: u64, worker: usize, saved_s: Option<f64>) {
        let (fault, detection) = match saved_s {
            Some(_) => {
                self.elastic.spec_wins += 1;
                ("speculation win", "straggler alarm")
            }
            None => {
                self.elastic.spec_losses += 1;
                ("speculation loss", "duplicate dropped")
            }
        };
        self.recorder.fault(FaultRecord {
            iteration: t,
            worker: worker as u64,
            fault: fault.to_string(),
            detection: detection.to_string(),
            detection_latency_s: 0.0,
            recovery_cost_s: saved_s.unwrap_or(0.0),
            attempt: 0,
            fatal: false,
        });
    }

    /// Fresh model parameters for partition `pid` — identical to what a
    /// worker initializes at load (same seed, same global index mapping).
    fn init_params_for(&self, pid: usize) -> ParamSet {
        let part = self.cfg.base.partitioner(self.cfg.max_workers, self.dim);
        let local_dim = part.local_dim(pid, self.dim);
        self.cfg
            .base
            .model
            .init_params(local_dim, self.cfg.base.seed, |slot| {
                part.global_index(pid, slot)
            })
    }

    /// Rebuilds partition `pid`'s worksets from the master's block store
    /// (the "HDFS" source), in block order.
    fn shard_worksets(&self, pid: usize) -> Vec<Workset> {
        let part = self.cfg.base.partitioner(self.cfg.max_workers, self.dim);
        self.blocks
            .iter()
            .map(|b| {
                let mut sets = split_block(b, &part);
                sets.swap_remove(pid)
            })
            .collect()
    }

    /// Executes a rebalance plan: every move becomes metered `ShardData`
    /// traffic (peer-to-peer on a live source, master rebuild otherwise),
    /// then superseded copies are dropped. Returns the priced migration
    /// time (the traffic delta over the cluster's links).
    pub(crate) fn execute_plan(&mut self, t: u64, plan: &RebalancePlan) -> Result<f64, TrainError> {
        if plan.is_empty() {
            return Ok(0.0);
        }
        let before = self.traffic.total();
        for mv in &plan.moves {
            self.transfer_shard(t, *mv, plan.epoch)?;
        }
        for d in &plan.drops {
            // Best-effort: a leaver may already be gone; stale drops are
            // epoch-fenced at the worker.
            let _ = self.master.send_reliable(
                NodeId::Worker(d.on),
                ColMsg::DropShard {
                    pid: d.pid,
                    epoch: plan.epoch,
                },
            );
        }
        let after = self.traffic.total();
        let bytes = after.bytes - before.bytes;
        let objects = after.messages - before.messages;
        self.elastic.migrations += plan.moves.len() as u64;
        self.elastic.migration_bytes += bytes;
        Ok(bytes as f64 / self.net.bandwidth_bytes_per_s
            + objects as f64 * PER_OBJECT_S
            + self.net.latency_s)
    }

    /// Moves one shard copy to `mv.to`, trying sources in order: the
    /// planned source, any other live holder, then a master rebuild from
    /// the block store. Each attempt is awaited with the bulk deadline;
    /// chaos-dropped transfers time out and fall through to the next
    /// source (installs are epoch-fenced, so a late duplicate is safe).
    fn transfer_shard(&mut self, t: u64, mv: ShardMove, epoch: u64) -> Result<(), TrainError> {
        let mut sources: Vec<Option<usize>> = vec![mv.from];
        let holders = [
            self.membership.primary_of(mv.pid),
            self.membership.backup_of(mv.pid),
        ];
        for holder in holders.into_iter().flatten().filter(|&h| h != mv.to) {
            if !sources.contains(&Some(holder)) {
                sources.push(Some(holder));
            }
        }
        if !sources.contains(&None) {
            sources.push(None);
        }

        for source in sources {
            let sent = match source {
                Some(src) => self
                    .master
                    .send_reliable(
                        NodeId::Worker(src),
                        ColMsg::ShardRequest {
                            pid: mv.pid,
                            epoch,
                            to: mv.to,
                        },
                    )
                    .is_ok(),
                None => {
                    // Master rebuild: the data comes back from the block
                    // store; with no live copy the parameters are lost and
                    // reset to init (the paper's §X crash semantics).
                    let worksets = self.shard_worksets(mv.pid);
                    let params = self.init_params_for(mv.pid);
                    self.master
                        .send(
                            NodeId::Worker(mv.to),
                            ColMsg::ShardData {
                                pid: mv.pid,
                                epoch,
                                worksets,
                                params,
                            },
                        )
                        .is_ok()
                }
            };
            if sent && self.await_install(t, mv.pid, epoch, mv.to)? {
                return Ok(());
            }
        }
        Err(TrainError::WorkerLost {
            worker: mv.to,
            iteration: t,
            detail: format!(
                "shard {} ({}) migration to worker {} failed from every source",
                mv.pid, mv.role, mv.to
            ),
        })
    }

    /// Waits for `ShardInstalled {pid, epoch}` from `to`, buffering
    /// unrelated traffic. Returns `false` on timeout (caller falls back to
    /// the next source).
    fn await_install(
        &mut self,
        t: u64,
        pid: usize,
        epoch: u64,
        to: usize,
    ) -> Result<bool, TrainError> {
        let deadline = Instant::now() + self.bulk_deadline();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            match self.master.recv_timeout(left) {
                Ok(env) => match &env.payload {
                    ColMsg::ShardInstalled {
                        pid: p,
                        epoch: e,
                        worker,
                    } if *p == pid && *e == epoch && *worker == to => return Ok(true),
                    // A stale install ack from a superseded plan: drop.
                    ColMsg::ShardInstalled { .. } => {}
                    _ => self.pending.push_back(env),
                },
                Err(NetError::Timeout) => return Ok(false),
                Err(e) => {
                    return Err(TrainError::Network {
                        iteration: t,
                        source: e,
                    })
                }
            }
        }
    }

    /// Maps a membership-transition error onto the training vocabulary.
    fn membership_err(t: u64, w: usize, e: MembershipError) -> TrainError {
        match e {
            MembershipError::LastWorker { .. } => TrainError::WorkerLost {
                worker: w,
                iteration: t,
                detail: "no other active worker can own its shards".to_string(),
            },
            other => TrainError::InvalidPlan(format!("membership: {other}")),
        }
    }

    /// Applies the scheduled membership transitions for this superstep.
    pub(crate) fn apply_schedule(&mut self, st: &mut Step) -> Result<(), TrainError> {
        let events: Vec<ElasticEvent> = self
            .cfg
            .schedule
            .iter()
            .copied()
            .filter(|ev| ev.iteration == st.t)
            .collect();
        for ev in events {
            match ev.action {
                ElasticAction::Join => st.charge += self.admit_worker(st.t, ev.worker)?,
                ElasticAction::Leave => st.charge += self.drain_worker(st.t, ev.worker)?,
                // Crashes are injected at the worker (script_for) and
                // handled purely by detection.
                ElasticAction::Crash => {}
            }
        }
        Ok(())
    }

    /// Starts and admits slot `w`, executing the planner's migrations.
    fn admit_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let boot = self.boot(w);
        self.host
            .start(&self.router, boot)
            .map_err(TrainError::Internal)?;
        let plan = self
            .membership
            .admit(w)
            .map_err(|e| Self::membership_err(t, w, e))?;
        self.execute_plan(t, &plan)
    }

    /// Drains worker `w` gracefully: migrations first, then shutdown.
    fn drain_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let plan = self
            .membership
            .drain(w)
            .map_err(|e| Self::membership_err(t, w, e))?;
        let cost = self.execute_plan(t, &plan)?;
        let _ = self
            .master
            .send_reliable(NodeId::Worker(w), ColMsg::Shutdown);
        self.host.stop(w);
        Ok(cost)
    }

    /// Scans new monitor events, arming speculation and feeding the scale
    /// policy's per-worker alarm counters.
    pub(crate) fn consume_gauges(&mut self, st: &mut Step) -> Result<(), TrainError> {
        if !self.monitor.is_enabled() {
            return Ok(());
        }
        let events = self.monitor.events();
        for ev in &events[self.elastic.seen_events.min(events.len())..] {
            let (Some(worker), true) = (
                ev.worker,
                matches!(
                    ev.kind,
                    DiagnosticKind::StragglerAlarm | DiagnosticKind::PartitionSkew
                ),
            ) else {
                continue;
            };
            let w = worker as usize;
            if self.membership.state(w) != Some(WorkerState::Active) {
                continue;
            }
            if ev.kind == DiagnosticKind::StragglerAlarm && self.cfg.speculate {
                self.elastic.armed.insert(w);
            }
            *self.elastic.alarm_counts.entry(w).or_insert(0) += 1;
        }
        self.elastic.seen_events = events.len();

        if let Some(limit) = self.cfg.policy.replace_flagged_after {
            let flagged: Vec<usize> = self
                .elastic
                .alarm_counts
                .iter()
                .filter(|&(&w, &n)| {
                    n >= limit && self.membership.state(w) == Some(WorkerState::Active)
                })
                .map(|(&w, _)| w)
                .collect();
            for w in flagged {
                let Some(spare) = (0..self.cfg.max_workers)
                    .find(|&s| self.membership.state(s) == Some(WorkerState::Inactive))
                else {
                    break; // no capacity left to rotate onto
                };
                self.recorder.fault(FaultRecord {
                    iteration: st.t,
                    worker: w as u64,
                    fault: "policy scale".to_string(),
                    detection: "straggler/skew gauge".to_string(),
                    detection_latency_s: 0.0,
                    recovery_cost_s: 0.0,
                    attempt: 0,
                    fatal: false,
                });
                st.charge += self.admit_worker(st.t, spare)?;
                st.charge += self.drain_worker(st.t, w)?;
                self.elastic.alarm_counts.remove(&w);
                self.elastic.armed.remove(&w);
            }
        }
        Ok(())
    }

    /// The membership repair for a dead worker: marks `w` dead, promotes or
    /// rebuilds its primaries *now* (the superstep needs them), defers
    /// replication repairs to after the update barrier, excuses its
    /// outstanding tasks, and — during the gather (`reissue`) — re-issues
    /// the orphaned partitions to their new primaries.
    pub(crate) fn lose_worker(
        &mut self,
        st: &mut Step,
        w: usize,
        detection: DetectionMethod,
        reissue: bool,
    ) -> Result<(), TrainError> {
        if self.membership.state(w) != Some(WorkerState::Active) {
            return Ok(()); // stale evidence about an already-handled death
        }
        let plan = self
            .membership
            .mark_dead(w)
            .map_err(|e| Self::membership_err(st.t, w, e))?;
        self.host.stop(w);
        // Primary re-owning cannot wait (the superstep needs the shard);
        // replication repair can.
        let (now, later): (Vec<ShardMove>, Vec<ShardMove>) = plan
            .moves
            .into_iter()
            .partition(|mv| mv.role == ShardRole::Primary);
        let now = RebalancePlan {
            epoch: plan.epoch,
            moves: now,
            drops: Vec::new(),
        };
        let cost = self.execute_plan(st.t, &now)?;
        st.charge += cost;
        st.deferred.push(RebalancePlan {
            epoch: plan.epoch,
            moves: later,
            drops: plan.drops,
        });

        let mut lost: Vec<usize> = Vec::new();
        for task in st.tasks.iter_mut().filter(|k| k.worker == w && k.pending()) {
            task.excused = true;
            if !task.spec {
                lost.extend(task.pids.iter().copied());
            }
        }
        self.note(st, w, FaultKind::WorkerFailure, detection, cost);
        st.attempts[w] += 1;
        self.elastic.armed.remove(&w);
        if !reissue {
            return Ok(());
        }
        // Re-issue the orphaned partitions to their new primaries: one
        // task per partition (the invariant task shape), attempts bumped
        // once per new owner so re-owning several shards does not burn
        // the retry budget.
        lost.sort_unstable();
        let mut by_owner: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for pid in lost {
            let np = self.membership.primary_of(pid).ok_or_else(|| {
                TrainError::Internal(format!("partition {pid} lost its primary after crash"))
            })?;
            by_owner.entry(np).or_default().push(pid);
        }
        for (np, pids) in by_owner {
            self.bump(st, np)?;
            for pid in pids {
                st.tasks.push(Task::new(np, vec![pid], false));
                self.issue(st, st.tasks.len() - 1)?;
            }
        }
        Ok(())
    }
}
