//! Elastic cluster membership: the master-side state machine that admits
//! dynamic worker join/leave (graceful and crash) and plans the shard
//! migrations that keep every logical partition owned.
//!
//! The model follows DeepSpark-style membership-tolerant execution on
//! commodity clusters: the feature space is split into a *fixed* number of
//! logical partitions (so repartitioning never re-splits data — it moves
//! whole column shards), and the membership layer maps partitions onto the
//! currently-active workers. Every transition produces a deterministic
//! [`RebalancePlan`] of shard moves; the engine executes the moves as
//! metered `ShardData` traffic through the router, so migration is priced
//! by construction.
//!
//! Panic hygiene: this module is on the migration path, so the clippy
//! panic lints are denied here — no `unwrap`/`expect`/`panic!`; every
//! fallible transition returns a typed [`MembershipError`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::fmt;

/// Lifecycle state of a worker slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Registered endpoint, never admitted (spare capacity).
    Inactive,
    /// Admitted and serving shards.
    Active,
    /// Crashed; its shards were lost and must be re-owned elsewhere.
    Dead,
    /// Gracefully drained and departed; its shards migrated away first.
    Left,
}

/// Role of a shard copy on a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRole {
    /// The copy that computes statistics and applies updates every
    /// iteration.
    Primary,
    /// A passive replica kept warm for speculation and crash promotion.
    Backup,
}

impl fmt::Display for ShardRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardRole::Primary => write!(f, "primary"),
            ShardRole::Backup => write!(f, "backup"),
        }
    }
}

/// One planned shard migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// The logical partition being moved.
    pub pid: usize,
    /// Source holder. `None` means no live copy exists — the master must
    /// rebuild the shard from the original blocks.
    pub from: Option<usize>,
    /// Destination worker.
    pub to: usize,
    /// Role the copy assumes at the destination.
    pub role: ShardRole,
}

/// One planned shard drop (the copy at `on` is superseded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDrop {
    /// The logical partition to drop.
    pub pid: usize,
    /// The worker holding the superseded copy.
    pub on: usize,
}

/// The deterministic output of a membership transition: execute `moves`
/// (in order), then `drops`, all stamped with `epoch`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalancePlan {
    /// Migration epoch of this plan; installs and drops carry it so stale
    /// deliveries can never overwrite newer state.
    pub epoch: u64,
    /// Shard copies to create.
    pub moves: Vec<ShardMove>,
    /// Shard copies to retire once the moves land.
    pub drops: Vec<ShardDrop>,
}

impl RebalancePlan {
    /// Whether the plan does anything.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty() && self.drops.is_empty()
    }
}

/// Typed membership errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// The worker id is outside the registered slot range.
    UnknownWorker {
        /// The offending worker id.
        worker: usize,
        /// Number of registered slots.
        slots: usize,
    },
    /// The transition is illegal from the worker's current state.
    BadTransition {
        /// The worker id.
        worker: usize,
        /// Its current state.
        state: WorkerState,
        /// The attempted transition.
        attempted: &'static str,
    },
    /// Removing the worker would leave no active worker to own its shards.
    LastWorker {
        /// The worker id.
        worker: usize,
    },
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::UnknownWorker { worker, slots } => {
                write!(f, "worker {worker} is outside the {slots} registered slots")
            }
            MembershipError::BadTransition {
                worker,
                state,
                attempted,
            } => write!(f, "cannot {attempted} worker {worker} in state {state:?}"),
            MembershipError::LastWorker { worker } => write!(
                f,
                "cannot remove worker {worker}: no other active worker can own its shards"
            ),
        }
    }
}

impl std::error::Error for MembershipError {}

/// A membership log entry — the auditable history of transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Epoch after the transition.
    pub epoch: u64,
    /// The worker the transition concerns.
    pub worker: usize,
    /// What happened: "join", "leave", "dead".
    pub action: &'static str,
    /// Shards moved by the accompanying plan.
    pub moves: usize,
}

/// The master's membership state machine.
///
/// `partitions` logical partitions map onto `slots` registered worker
/// endpoints, of which some subset is [`WorkerState::Active`]. Each
/// partition has exactly one primary holder and (when `replicate` is on)
/// at most one backup holder on a different worker. All planning is
/// deterministic: lowest pid first, least-loaded destination, lowest id on
/// ties.
#[derive(Debug, Clone)]
pub struct Membership {
    states: Vec<WorkerState>,
    /// `primary[pid]` = the worker computing partition `pid`.
    primary: Vec<usize>,
    /// `backup[pid]` = the worker holding the passive replica, if any.
    backup: Vec<Option<usize>>,
    replicate: bool,
    epoch: u64,
    log: Vec<MembershipEvent>,
}

impl Membership {
    /// A membership over `slots` registered endpoints with the first
    /// `initial` admitted, owning `partitions` logical partitions spread
    /// round-robin. With `replicate`, each partition also gets a backup on
    /// the next active worker.
    ///
    /// Returns `None` when the shape is impossible: zero partitions, zero
    /// initial workers, or more initial workers than slots.
    pub fn new(
        slots: usize,
        partitions: usize,
        initial: usize,
        replicate: bool,
    ) -> Option<Membership> {
        if partitions == 0 || initial == 0 || initial > slots {
            return None;
        }
        if replicate && initial < 2 {
            return None; // a backup must live on a different worker
        }
        let mut states = vec![WorkerState::Inactive; slots];
        for s in states.iter_mut().take(initial) {
            *s = WorkerState::Active;
        }
        let primary: Vec<usize> = (0..partitions).map(|pid| pid % initial).collect();
        let backup: Vec<Option<usize>> = (0..partitions)
            .map(|pid| replicate.then(|| (pid + 1) % initial))
            .collect();
        Some(Membership {
            states,
            primary,
            backup,
            replicate,
            epoch: 0,
            log: Vec::new(),
        })
    }

    /// Current epoch (bumped by every transition that produces a plan).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// State of worker `w`.
    pub fn state(&self, w: usize) -> Option<WorkerState> {
        self.states.get(w).copied()
    }

    /// Ids of the currently active workers, ascending.
    pub fn active(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&w| self.states[w] == WorkerState::Active)
            .collect()
    }

    /// The primary holder of partition `pid`.
    pub fn primary_of(&self, pid: usize) -> Option<usize> {
        self.primary.get(pid).copied()
    }

    /// The backup holder of partition `pid`, if one exists.
    pub fn backup_of(&self, pid: usize) -> Option<usize> {
        self.backup.get(pid).copied().flatten()
    }

    /// Partitions for which `w` is the primary, ascending.
    pub fn primaries_of(&self, w: usize) -> Vec<usize> {
        (0..self.primary.len())
            .filter(|&pid| self.primary[pid] == w)
            .collect()
    }

    /// Partitions for which `w` holds the backup, ascending.
    pub fn backups_of(&self, w: usize) -> Vec<usize> {
        (0..self.backup.len())
            .filter(|&pid| self.backup[pid] == Some(w))
            .collect()
    }

    /// The transition log.
    pub fn log(&self) -> &[MembershipEvent] {
        &self.log
    }

    fn check_slot(&self, w: usize) -> Result<(), MembershipError> {
        if w < self.states.len() {
            Ok(())
        } else {
            Err(MembershipError::UnknownWorker {
                worker: w,
                slots: self.states.len(),
            })
        }
    }

    /// Primaries held per active worker — the load gauge the planner
    /// balances.
    fn primary_load(&self, w: usize) -> usize {
        self.primary.iter().filter(|&&p| p == w).count()
    }

    /// The least-loaded active worker other than `not`, lowest id on ties.
    fn least_loaded(&self, not: Option<usize>) -> Option<usize> {
        self.active()
            .into_iter()
            .filter(|&w| Some(w) != not)
            .min_by_key(|&w| (self.primary_load(w), w))
    }

    /// Admits worker `w` (join). Rebalances by moving primaries from the
    /// most-loaded workers onto the joiner until loads level; each moved
    /// partition's old primary copy is retained as the new backup (the
    /// cheapest way to keep replication — no extra transfer), displacing
    /// any previous backup, which is dropped.
    pub fn admit(&mut self, w: usize) -> Result<RebalancePlan, MembershipError> {
        self.check_slot(w)?;
        if self.states[w] != WorkerState::Inactive {
            return Err(MembershipError::BadTransition {
                worker: w,
                state: self.states[w],
                attempted: "admit",
            });
        }
        self.states[w] = WorkerState::Active;
        self.epoch += 1;
        let mut plan = RebalancePlan {
            epoch: self.epoch,
            ..RebalancePlan::default()
        };

        // Fair share for the joiner: partitions / active workers, at least
        // one. Take from the most-loaded workers, lowest pid first.
        let active = self.active().len();
        let share = (self.primary.len() / active).max(1);
        for _ in 0..share {
            let donor = match self
                .active()
                .into_iter()
                .filter(|&d| d != w && self.primary_load(d) > 1)
                .max_by_key(|&d| (self.primary_load(d), usize::MAX - d))
            {
                Some(d) => d,
                None => break, // nobody can spare a partition
            };
            let pid = match (0..self.primary.len()).find(|&p| self.primary[p] == donor) {
                Some(p) => p,
                None => break,
            };
            plan.moves.push(ShardMove {
                pid,
                from: Some(donor),
                to: w,
                role: ShardRole::Primary,
            });
            if self.replicate {
                // The donor's copy becomes the backup in place; the old
                // backup (if on a third worker) is superseded.
                if let Some(old) = self.backup[pid] {
                    if old != donor {
                        plan.drops.push(ShardDrop { pid, on: old });
                    }
                }
                self.backup[pid] = Some(donor);
            } else {
                plan.drops.push(ShardDrop { pid, on: donor });
            }
            self.primary[pid] = w;
        }
        self.log.push(MembershipEvent {
            epoch: self.epoch,
            worker: w,
            action: "join",
            moves: plan.moves.len(),
        });
        Ok(plan)
    }

    /// Gracefully drains worker `w` (leave). Every shard it holds migrates
    /// away first: primaries are promoted from their backup when one exists
    /// (no data moves — the replica is already warm) or moved to the
    /// least-loaded survivor; backups are re-homed likewise.
    pub fn drain(&mut self, w: usize) -> Result<RebalancePlan, MembershipError> {
        self.check_slot(w)?;
        if self.states[w] != WorkerState::Active {
            return Err(MembershipError::BadTransition {
                worker: w,
                state: self.states[w],
                attempted: "drain",
            });
        }
        if self.active().len() <= 1 {
            return Err(MembershipError::LastWorker { worker: w });
        }
        self.states[w] = WorkerState::Left;
        self.epoch += 1;
        let mut plan = RebalancePlan {
            epoch: self.epoch,
            ..RebalancePlan::default()
        };
        self.evacuate(w, true, &mut plan);
        self.log.push(MembershipEvent {
            epoch: self.epoch,
            worker: w,
            action: "leave",
            moves: plan.moves.len(),
        });
        Ok(plan)
    }

    /// Marks worker `w` dead (crash). Its copies are *lost*: primaries
    /// promote their surviving backup instantly (`from: None` never occurs
    /// for them — promotion is a role flip, not a transfer), or are rebuilt
    /// by the master (`from: None`) when no replica survives. Replication
    /// repairs follow as ordinary moves.
    pub fn mark_dead(&mut self, w: usize) -> Result<RebalancePlan, MembershipError> {
        self.check_slot(w)?;
        if self.states[w] != WorkerState::Active {
            return Err(MembershipError::BadTransition {
                worker: w,
                state: self.states[w],
                attempted: "mark dead",
            });
        }
        if self.active().len() <= 1 {
            return Err(MembershipError::LastWorker { worker: w });
        }
        self.states[w] = WorkerState::Dead;
        self.epoch += 1;
        let mut plan = RebalancePlan {
            epoch: self.epoch,
            ..RebalancePlan::default()
        };
        self.evacuate(w, false, &mut plan);
        self.log.push(MembershipEvent {
            epoch: self.epoch,
            worker: w,
            action: "dead",
            moves: plan.moves.len(),
        });
        Ok(plan)
    }

    /// Re-homes every copy held by `w`. With `alive`, the departing worker
    /// can still serve as a migration source; otherwise its copies are
    /// gone and transfers must come from a surviving replica (or `None` =
    /// master rebuild).
    fn evacuate(&mut self, w: usize, alive: bool, plan: &mut RebalancePlan) {
        for pid in 0..self.primary.len() {
            if self.primary[pid] == w {
                match self.backup[pid] {
                    Some(b) if b != w && self.states[b] == WorkerState::Active => {
                        // Promote the warm replica: a role flip, no bytes.
                        self.primary[pid] = b;
                        self.backup[pid] = None;
                        if alive {
                            plan.drops.push(ShardDrop { pid, on: w });
                        }
                    }
                    _ => {
                        let to = match self.least_loaded(Some(w)) {
                            Some(t) => t,
                            None => continue, // guarded by LastWorker above
                        };
                        plan.moves.push(ShardMove {
                            pid,
                            from: if alive { Some(w) } else { None },
                            to,
                            role: ShardRole::Primary,
                        });
                        self.primary[pid] = to;
                        self.backup[pid] = None;
                        if alive {
                            plan.drops.push(ShardDrop { pid, on: w });
                        }
                    }
                }
            } else if self.backup[pid] == Some(w) {
                self.backup[pid] = None;
                if alive {
                    plan.drops.push(ShardDrop { pid, on: w });
                }
            }
        }
        // Replication repair: every partition deserves a backup on a
        // worker other than its primary.
        if self.replicate && self.active().len() >= 2 {
            for pid in 0..self.primary.len() {
                if self.backup[pid].is_none() {
                    let p = self.primary[pid];
                    if let Some(to) = self.least_loaded(Some(p)) {
                        plan.moves.push(ShardMove {
                            pid,
                            from: Some(p),
                            to,
                            role: ShardRole::Backup,
                        });
                        self.backup[pid] = Some(to);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holders(m: &Membership) -> Vec<(usize, Option<usize>)> {
        (0..m.primary.len())
            .map(|pid| (m.primary[pid], m.backup[pid]))
            .collect()
    }

    /// Every partition always has an active primary, and backups never
    /// collocate with their primary.
    fn check_invariants(m: &Membership) {
        for (pid, &(p, b)) in holders(m).iter().enumerate() {
            assert_eq!(
                m.state(p),
                Some(WorkerState::Active),
                "partition {pid} primary {p} not active"
            );
            if let Some(b) = b {
                assert_ne!(b, p, "partition {pid} backup collocated with primary");
                assert_eq!(
                    m.state(b),
                    Some(WorkerState::Active),
                    "partition {pid} backup {b} not active"
                );
            }
        }
    }

    #[test]
    fn initial_layout_is_round_robin() {
        let m = Membership::new(8, 8, 4, true).unwrap();
        assert_eq!(m.active(), vec![0, 1, 2, 3]);
        assert_eq!(m.primary_of(5), Some(1));
        assert_eq!(m.backup_of(5), Some(2));
        assert_eq!(m.primaries_of(0), vec![0, 4]);
        assert_eq!(m.backups_of(0), vec![3, 7]);
        check_invariants(&m);
    }

    #[test]
    fn impossible_shapes_are_rejected() {
        assert!(Membership::new(4, 0, 2, false).is_none());
        assert!(Membership::new(4, 8, 0, false).is_none());
        assert!(Membership::new(2, 8, 3, false).is_none());
        assert!(
            Membership::new(4, 8, 1, true).is_none(),
            "replication needs 2 workers"
        );
    }

    #[test]
    fn admit_levels_load_and_keeps_replication() {
        let mut m = Membership::new(4, 8, 2, true).unwrap();
        let plan = m.admit(2).unwrap();
        assert_eq!(plan.epoch, 1);
        assert!(!plan.moves.is_empty());
        assert!(plan.moves.iter().all(|mv| mv.to == 2));
        // The donor keeps its copy as the new backup: every move's source
        // becomes the partition's backup holder.
        for mv in &plan.moves {
            assert_eq!(m.primary_of(mv.pid), Some(2));
            assert_eq!(m.backup_of(mv.pid), mv.from);
        }
        check_invariants(&m);
        // Loads are leveled within one partition.
        let loads: Vec<usize> = m.active().iter().map(|&w| m.primary_load(w)).collect();
        let (lo, hi) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(hi - lo <= 1, "unbalanced after join: {loads:?}");
    }

    #[test]
    fn admit_rejects_active_or_unknown() {
        let mut m = Membership::new(4, 8, 2, false).unwrap();
        assert!(matches!(
            m.admit(0),
            Err(MembershipError::BadTransition { .. })
        ));
        assert!(matches!(
            m.admit(9),
            Err(MembershipError::UnknownWorker { .. })
        ));
    }

    #[test]
    fn drain_promotes_backups_without_moving_bytes() {
        let mut m = Membership::new(4, 8, 4, true).unwrap();
        let before = holders(&m);
        let plan = m.drain(1).unwrap();
        // Partitions whose backup survived the drain flip roles: no move
        // for them, just a drop on the leaver.
        for (pid, &(p, b)) in before.iter().enumerate() {
            if p == 1 {
                if let Some(b) = b {
                    assert_eq!(m.primary_of(pid), Some(b), "backup must be promoted");
                    assert!(
                        !plan
                            .moves
                            .iter()
                            .any(|mv| mv.pid == pid && mv.role == ShardRole::Primary),
                        "promotion must not move bytes"
                    );
                }
            }
        }
        assert!(plan.drops.iter().all(|d| d.on == 1));
        assert_eq!(m.state(1), Some(WorkerState::Left));
        check_invariants(&m);
    }

    #[test]
    fn crash_rebuilds_only_when_no_replica_survives() {
        // Without replication every crashed shard needs a master rebuild.
        let mut m = Membership::new(4, 8, 4, false).unwrap();
        let lost = m.primaries_of(2);
        let plan = m.mark_dead(2).unwrap();
        let rebuilt: Vec<usize> = plan
            .moves
            .iter()
            .filter(|mv| mv.from.is_none())
            .map(|mv| mv.pid)
            .collect();
        assert_eq!(rebuilt, lost, "all lost shards rebuilt by the master");
        // A dead worker's copies are gone: nothing can be dropped on it.
        assert!(plan.drops.is_empty());
        check_invariants(&m);

        // With replication the backup promotes and only repair moves flow.
        let mut m = Membership::new(4, 8, 4, true).unwrap();
        let plan = m.mark_dead(2).unwrap();
        assert!(
            plan.moves.iter().all(|mv| mv.from.is_some()),
            "no master rebuild when a replica survives: {:?}",
            plan.moves
        );
        check_invariants(&m);
    }

    #[test]
    fn last_worker_cannot_be_removed() {
        let mut m = Membership::new(2, 4, 2, false).unwrap();
        m.drain(0).unwrap();
        assert!(matches!(
            m.drain(1),
            Err(MembershipError::LastWorker { .. })
        ));
        assert!(matches!(
            m.mark_dead(1),
            Err(MembershipError::LastWorker { .. })
        ));
    }

    #[test]
    fn transitions_are_logged_with_epochs() {
        let mut m = Membership::new(4, 8, 2, false).unwrap();
        m.admit(2).unwrap();
        m.admit(3).unwrap();
        m.mark_dead(0).unwrap();
        let log = m.log();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(log[2].action, "dead");
        assert_eq!(m.epoch(), 3);
    }

    #[test]
    fn planning_is_deterministic() {
        let run = || {
            let mut m = Membership::new(6, 12, 3, true).unwrap();
            let mut plans = vec![m.admit(3).unwrap(), m.admit(4).unwrap()];
            plans.push(m.mark_dead(1).unwrap());
            plans.push(m.drain(0).unwrap());
            (plans, holders(&m))
        };
        assert_eq!(run(), run(), "same transitions must plan identically");
    }
}
