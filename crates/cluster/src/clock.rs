//! Simulated-time accounting under BSP semantics.
//!
//! Training engines drive the clock explicitly: for every iteration they
//! report the per-worker compute times (measured with real timers, possibly
//! inflated by straggler injection) and the priced communication phases.
//! The clock folds them with BSP barrier semantics — an iteration takes as
//! long as its slowest participant — and keeps the full per-iteration
//! trace so convergence-vs-time curves (Figure 8) can be replayed.

/// Breakdown of one iteration's simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationTime {
    /// Slowest worker's compute time (after straggler inflation), seconds.
    pub compute_s: f64,
    /// Priced communication time, seconds.
    pub comm_s: f64,
    /// Fixed scheduling overhead, seconds.
    pub overhead_s: f64,
}

impl IterationTime {
    /// Total simulated seconds for the iteration.
    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s + self.overhead_s
    }
}

/// The accumulating simulated clock.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    elapsed_s: f64,
    iterations: Vec<IterationTime>,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one iteration and advances the clock.
    pub fn record(&mut self, it: IterationTime) {
        self.elapsed_s += it.total();
        self.iterations.push(it);
    }

    /// Advances the clock by a one-off cost (e.g. data reloading after a
    /// worker failure, Figure 13(b)) attributed to the current iteration
    /// trace as a pure-overhead entry.
    pub fn charge(&mut self, seconds: f64) {
        self.record(IterationTime {
            overhead_s: seconds,
            ..Default::default()
        });
    }

    /// Simulated seconds since the start of training.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Number of recorded iterations (including `charge` entries).
    pub fn num_records(&self) -> usize {
        self.iterations.len()
    }

    /// The per-iteration trace.
    pub fn trace(&self) -> &[IterationTime] {
        &self.iterations
    }

    /// Mean per-iteration total over the last `n` records (all, if fewer),
    /// the statistic Tables IV and V report.
    pub fn mean_iteration_s(&self, n: usize) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        let tail = &self.iterations[self.iterations.len().saturating_sub(n)..];
        tail.iter().map(IterationTime::total).sum::<f64>() / tail.len() as f64
    }

    /// Combines per-worker compute times with BSP barrier semantics: the
    /// barrier waits for the slowest worker.
    pub fn bsp_compute(worker_times: &[f64]) -> f64 {
        worker_times.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_iterations() {
        let mut c = SimClock::new();
        c.record(IterationTime {
            compute_s: 0.2,
            comm_s: 0.1,
            overhead_s: 0.05,
        });
        c.record(IterationTime {
            compute_s: 0.1,
            comm_s: 0.1,
            overhead_s: 0.05,
        });
        assert!((c.elapsed_s() - 0.6).abs() < 1e-12);
        assert_eq!(c.num_records(), 2);
    }

    #[test]
    fn bsp_takes_the_slowest() {
        assert_eq!(SimClock::bsp_compute(&[0.1, 0.5, 0.2]), 0.5);
        assert_eq!(SimClock::bsp_compute(&[]), 0.0);
    }

    #[test]
    fn mean_iteration_over_tail() {
        let mut c = SimClock::new();
        for t in [1.0, 1.0, 3.0, 3.0] {
            c.record(IterationTime {
                compute_s: t,
                ..Default::default()
            });
        }
        assert_eq!(c.mean_iteration_s(2), 3.0);
        assert_eq!(c.mean_iteration_s(100), 2.0);
        assert_eq!(SimClock::new().mean_iteration_s(5), 0.0);
    }

    #[test]
    fn charge_advances_clock() {
        let mut c = SimClock::new();
        c.charge(23.0); // the paper's measured data-reload pause
        assert_eq!(c.elapsed_s(), 23.0);
        assert_eq!(c.trace()[0].overhead_s, 23.0);
    }
}
