//! Straggler and failure injection.
//!
//! * **Stragglers** follow the paper's own methodology (§V-C): "we randomly
//!   pick one worker in each iteration and let it sleep for some time
//!   according to StragglerLevel, which is defined as the ratio between the
//!   extra time a straggler needs to finish a task and the time that a
//!   non-straggler worker needs." We inflate the chosen worker's *simulated*
//!   compute time by `1 + level` instead of physically sleeping, so
//!   experiments stay fast and deterministic.
//! * **Failures** follow §X: a *task failure* (thrown exception; retried on
//!   the same worker, no data loss) and a *worker failure* (worker dies;
//!   its data and model partitions are lost and must be reloaded).

use columnsgd_linalg::rng::{self, DetRng};
use rand::Rng;

use crate::chaos::ChaosSpec;

/// Straggler injection specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// StragglerLevel: extra-time ratio (1 = twice as slow, 5 = six times).
    pub level: f64,
    /// Seed for the per-iteration straggler choice.
    pub seed: u64,
    /// Pin the straggler to one worker for the whole run instead of the
    /// paper's random per-iteration pick. Sliding-window detectors (the
    /// telemetry monitor's straggler alarm) need a *persistent* victim to
    /// converge on; the elastic engine's speculative execution uses this.
    pub pinned: Option<usize>,
}

impl StragglerSpec {
    /// A random-victim spec (the paper's §V-C methodology).
    pub fn new(level: f64, seed: u64) -> Self {
        Self {
            level,
            seed,
            pinned: None,
        }
    }

    /// A spec whose victim is always `worker`.
    pub fn pinned(level: f64, worker: usize) -> Self {
        Self {
            level,
            seed: 0,
            pinned: Some(worker),
        }
    }

    /// Picks the straggling worker for `iteration` out of `k` workers.
    pub fn pick(&self, iteration: u64, k: usize) -> usize {
        if let Some(w) = self.pinned {
            return w.min(k.saturating_sub(1));
        }
        let mut r: DetRng = rng::iteration_rng(self.seed ^ 0x5757_5757, iteration);
        r.gen_range(0..k)
    }

    /// The multiplicative compute-time factor for the straggler.
    pub fn factor(&self) -> f64 {
        1.0 + self.level
    }

    /// Applies the straggler to a per-worker compute-time vector in place.
    pub fn inflate(&self, iteration: u64, times: &mut [f64]) -> usize {
        let s = self.pick(iteration, times.len());
        times[s] *= self.factor();
        s
    }
}

/// A scripted failure event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureEvent {
    /// A task on `worker` throws at `iteration`; Spark-style retry on the
    /// same worker (data and model partitions survive in memory).
    TaskFailure {
        /// Iteration at which the task throws.
        iteration: u64,
        /// The worker whose task fails.
        worker: usize,
    },
    /// `worker` dies at `iteration`: its partitions are lost; the engine
    /// reloads its data and zero-initializes its model partition.
    WorkerFailure {
        /// Iteration at which the worker dies.
        iteration: u64,
        /// The worker that dies.
        worker: usize,
    },
}

/// The full injection plan for one training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailurePlan {
    /// Optional straggler injection.
    pub straggler: Option<StragglerSpec>,
    /// Scripted failures, in any order.
    pub events: Vec<FailureEvent>,
    /// Optional seeded probabilistic chaos, applied at the wire by the
    /// router and at compute-attempt boundaries by the workers.
    pub chaos: Option<ChaosSpec>,
}

impl FailurePlan {
    /// A plan with no injection at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with only straggler injection.
    pub fn with_straggler(level: f64, seed: u64) -> Self {
        Self {
            straggler: Some(StragglerSpec::new(level, seed)),
            ..Self::default()
        }
    }

    /// A plan whose straggler is pinned to one worker for the whole run.
    pub fn with_pinned_straggler(level: f64, worker: usize) -> Self {
        Self {
            straggler: Some(StragglerSpec::pinned(level, worker)),
            ..Self::default()
        }
    }

    /// A plan with only probabilistic chaos injection.
    pub fn with_chaos(spec: ChaosSpec) -> Self {
        Self {
            chaos: Some(spec),
            ..Self::default()
        }
    }

    /// Failure events scheduled for `iteration`.
    pub fn events_at(&self, iteration: u64) -> impl Iterator<Item = FailureEvent> + '_ {
        self.events.iter().copied().filter(move |e| match e {
            FailureEvent::TaskFailure { iteration: i, .. }
            | FailureEvent::WorkerFailure { iteration: i, .. } => *i == iteration,
        })
    }

    /// Scripted failure events that target `worker`.
    pub fn events_for(&self, worker: usize) -> impl Iterator<Item = FailureEvent> + '_ {
        self.events.iter().copied().filter(move |e| match e {
            FailureEvent::TaskFailure { worker: w, .. }
            | FailureEvent::WorkerFailure { worker: w, .. } => *w == worker,
        })
    }

    /// Checks the plan against a cluster of `k` workers: every scripted
    /// event must name a worker in `0..k`, and chaos probabilities must be
    /// valid (each in `[0, 1]`, wire faults summing to at most 1).
    ///
    /// Engines call this at construction so a bad plan fails fast with a
    /// descriptive message instead of silently never firing (or panicking
    /// deep inside a training loop).
    pub fn validate(&self, k: usize) -> Result<(), String> {
        for e in &self.events {
            let (kind, iteration, worker) = match *e {
                FailureEvent::TaskFailure { iteration, worker } => {
                    ("TaskFailure", iteration, worker)
                }
                FailureEvent::WorkerFailure { iteration, worker } => {
                    ("WorkerFailure", iteration, worker)
                }
            };
            if worker >= k {
                return Err(format!(
                    "failure plan {kind} at iteration {iteration} names worker {worker}, \
                     but the cluster has only {k} workers (valid: 0..{k})"
                ));
            }
        }
        if let Some(c) = &self.chaos {
            let probs = [
                ("drop_p", c.drop_p),
                ("dup_p", c.dup_p),
                ("delay_p", c.delay_p),
                ("crash_p", c.crash_p),
            ];
            for (name, p) in probs {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("chaos {name} = {p} is not a probability in [0, 1]"));
                }
            }
            let wire_sum = c.drop_p + c.dup_p + c.delay_p;
            if wire_sum > 1.0 {
                return Err(format!(
                    "chaos drop_p + dup_p + delay_p = {wire_sum} exceeds 1; \
                     the wire faults are mutually exclusive per message"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_pick_is_deterministic_and_in_range() {
        let s = StragglerSpec::new(1.0, 9);
        for it in 0..50 {
            let a = s.pick(it, 8);
            let b = s.pick(it, 8);
            assert_eq!(a, b);
            assert!(a < 8);
        }
    }

    #[test]
    fn straggler_moves_around() {
        let s = StragglerSpec::new(5.0, 3);
        let picks: Vec<usize> = (0..20).map(|it| s.pick(it, 8)).collect();
        let first = picks[0];
        assert!(
            picks.iter().any(|&p| p != first),
            "straggler never moved: {picks:?}"
        );
    }

    #[test]
    fn inflate_scales_exactly_one_worker() {
        let s = StragglerSpec::new(1.0, 1);
        let mut times = vec![1.0; 4];
        let victim = s.inflate(7, &mut times);
        assert_eq!(times[victim], 2.0);
        assert_eq!(times.iter().filter(|&&t| t == 1.0).count(), 3);
    }

    #[test]
    fn plan_filters_events_by_iteration() {
        let plan = FailurePlan {
            events: vec![
                FailureEvent::TaskFailure {
                    iteration: 5,
                    worker: 1,
                },
                FailureEvent::WorkerFailure {
                    iteration: 9,
                    worker: 2,
                },
            ],
            ..FailurePlan::default()
        };
        assert_eq!(plan.events_at(5).count(), 1);
        assert_eq!(plan.events_at(6).count(), 0);
        assert!(matches!(
            plan.events_at(9).next(),
            Some(FailureEvent::WorkerFailure { worker: 2, .. })
        ));
        assert_eq!(plan.events_for(1).count(), 1);
        assert_eq!(plan.events_for(0).count(), 0);
    }

    #[test]
    fn validate_rejects_out_of_range_worker() {
        let plan = FailurePlan {
            events: vec![FailureEvent::WorkerFailure {
                iteration: 3,
                worker: 4,
            }],
            ..FailurePlan::default()
        };
        assert!(plan.validate(8).is_ok());
        let err = plan.validate(4).unwrap_err();
        assert!(err.contains("worker 4"), "unhelpful message: {err}");
        assert!(err.contains("4 workers"), "unhelpful message: {err}");
    }

    #[test]
    fn validate_rejects_bad_chaos_probabilities() {
        let plan = FailurePlan::with_chaos(ChaosSpec::uniform(1, 0.5, 0.0));
        let err = plan.validate(4).unwrap_err();
        assert!(err.contains("exceeds 1"), "unhelpful message: {err}");
        let plan = FailurePlan::with_chaos(ChaosSpec {
            seed: 1,
            drop_p: -0.1,
            ..ChaosSpec::default()
        });
        assert!(plan.validate(4).is_err());
        let plan = FailurePlan::with_chaos(ChaosSpec::uniform(1, 0.05, 0.01));
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn level5_means_six_times_slower() {
        let s = StragglerSpec::new(5.0, 0);
        assert_eq!(s.factor(), 6.0);
    }

    #[test]
    fn pinned_straggler_never_moves() {
        let s = StragglerSpec::pinned(5.0, 2);
        for it in 0..50 {
            assert_eq!(s.pick(it, 8), 2);
        }
        // Out-of-range pins clamp instead of indexing past the cluster.
        let s = StragglerSpec::pinned(5.0, 9);
        assert_eq!(s.pick(0, 4), 3);
    }
}
