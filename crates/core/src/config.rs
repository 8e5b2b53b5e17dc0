//! Training configuration for ColumnSGD.

use columnsgd_data::ColumnPartitioner;
use columnsgd_ml::{ModelSpec, OptimizerKind, UpdateParams};

/// Which column-partitioning scheme to use (the "predefined partitioning
/// scheme" of Algorithm 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionScheme {
    /// Round-robin (the paper's example; robust to index-popularity skew).
    #[default]
    RoundRobin,
    /// Contiguous index ranges.
    Range,
}

/// Full configuration of a ColumnSGD training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnSgdConfig {
    /// The model to train.
    pub model: ModelSpec,
    /// Mini-batch size B (the paper's default for all experiments: 1000).
    pub batch_size: usize,
    /// Number of training iterations T.
    pub iterations: u64,
    /// Learning rate and regularization.
    pub update: UpdateParams,
    /// SGD variant.
    pub optimizer: OptimizerKind,
    /// Experiment seed (drives block sampling, FM init, straggler picks).
    pub seed: u64,
    /// Rows per block in the block-based column dispatch (§IV-A).
    pub block_size: usize,
    /// Backup factor S for straggler tolerance (§IV-B): 0 disables backup
    /// computation; S > 0 requires `(S+1) | K`.
    pub backup_s: usize,
    /// Column-partitioning scheme.
    pub scheme: PartitionScheme,
    /// Maximum re-issues of one iteration's task on one worker before
    /// training aborts with `TrainError::RetriesExhausted` (Spark's
    /// `spark.task.maxFailures` analogue; default 3).
    pub max_task_retries: u64,
    /// Master receive deadline in wall-clock milliseconds. A reply missing
    /// past this deadline is *detected* as a failure and classified by
    /// probing the worker. Generous by default — local compute is
    /// sub-millisecond, so 2 s only fires when something is actually gone.
    pub deadline_ms: u64,
    /// **Extension** — stale-statistics mode, probing the question the
    /// paper leaves open (§IV-B: "It is unclear whether ColumnSGD can use
    /// staled statistics (due to stragglers) to update the model without
    /// affecting the convergence of SGD"). When set and a straggler is
    /// injected without backup replicas, the master aggregates only the
    /// on-time partials instead of waiting: the straggler's feature
    /// partition contributes nothing that iteration, optionally
    /// compensated by rescaling the aggregate by `K/(K-1)`.
    pub staleness: Option<StaleStats>,
    /// Size of the worker-local thread pool running the per-partition
    /// statistics/update kernels (§IV-B: with S-backup a worker holds S+1
    /// independent partitions). `0` means auto: use the cluster preset's
    /// per-machine core count. Thread count never changes results — the
    /// kernels are deterministic per partition and reduced in partition
    /// order.
    pub threads_per_worker: usize,
}

/// Stale-statistics policy (extension; see [`ColumnSgdConfig::staleness`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleStats {
    /// Use the K-1 on-time partials as-is (biased toward zero on the
    /// missing partition's features).
    Drop,
    /// Rescale the partial sum by `K/(K-1)` — unbiased in expectation
    /// under round-robin partitioning, where every partition carries a
    /// similar share of each dot product.
    DropRescaled,
}

impl ColumnSgdConfig {
    /// A sensible default configuration for `model`: B = 1000, plain SGD,
    /// η = 0.1, 100 iterations, 4096-row blocks, no backup.
    pub fn new(model: ModelSpec) -> Self {
        Self {
            model,
            batch_size: 1000,
            iterations: 100,
            update: UpdateParams::plain(0.1),
            optimizer: OptimizerKind::Sgd,
            seed: 42,
            block_size: 4096,
            backup_s: 0,
            scheme: PartitionScheme::RoundRobin,
            max_task_retries: 3,
            deadline_ms: 2_000,
            staleness: None,
            threads_per_worker: 0,
        }
    }

    /// Builder-style batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Builder-style iteration count.
    pub fn with_iterations(mut self, t: u64) -> Self {
        self.iterations = t;
        self
    }

    /// Builder-style learning rate (keeps the regularizer).
    pub fn with_learning_rate(mut self, eta: f64) -> Self {
        self.update.learning_rate = eta;
        self
    }

    /// Builder-style seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style backup factor.
    pub fn with_backup(mut self, s: usize) -> Self {
        self.backup_s = s;
        self
    }

    /// Builder-style stale-statistics mode (extension).
    pub fn with_staleness(mut self, mode: StaleStats) -> Self {
        self.staleness = Some(mode);
        self
    }

    /// Builder-style task-retry budget.
    pub fn with_max_task_retries(mut self, retries: u64) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// Builder-style detection deadline (wall-clock milliseconds).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Builder-style worker kernel-pool size (`0` = auto from the cluster
    /// preset's core count).
    pub fn with_threads_per_worker(mut self, threads: usize) -> Self {
        self.threads_per_worker = threads;
        self
    }

    /// Number of replica groups for `k` workers.
    ///
    /// # Panics
    /// Panics if `S+1` does not divide `k` (the paper requires disjoint
    /// groups of S+1 workers).
    pub fn num_groups(&self, k: usize) -> usize {
        let r = self.backup_s + 1;
        assert!(
            k.is_multiple_of(r),
            "backup factor S={} requires (S+1)|K, got K={k}",
            self.backup_s
        );
        k / r
    }

    /// The replica group of worker `w`.
    pub fn group_of(&self, w: usize) -> usize {
        w / (self.backup_s + 1)
    }

    /// The partition ids held by worker `w` (its group's S+1 partitions).
    pub fn partitions_of(&self, w: usize) -> Vec<usize> {
        let r = self.backup_s + 1;
        let g = w / r;
        (g * r..(g + 1) * r).collect()
    }

    /// The workers holding partition `p` (all members of its group).
    pub fn replicas_of(&self, p: usize) -> Vec<usize> {
        let r = self.backup_s + 1;
        let g = p / r;
        (g * r..(g + 1) * r).collect()
    }

    /// Materializes the column partitioner for `k` logical partitions over
    /// a `dim`-dimensional feature space.
    pub fn partitioner(&self, k: usize, dim: u64) -> ColumnPartitioner {
        match self.scheme {
            PartitionScheme::RoundRobin => ColumnPartitioner::round_robin(k),
            PartitionScheme::Range => ColumnPartitioner::range(k, dim),
        }
    }

    /// A stable FNV-1a fingerprint of the full configuration, stamped on
    /// telemetry traces (`RunStamp::config_hash`) so repro artifacts are
    /// self-describing. Hashes the `Debug` rendering: every field is
    /// `Debug`, and any new field automatically perturbs the hash.
    pub fn fingerprint(&self) -> u64 {
        columnsgd_cluster::telemetry::fnv::hash_bytes(format!("{self:?}").as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(64)
            .with_iterations(10)
            .with_learning_rate(0.5)
            .with_seed(7)
            .with_backup(1)
            .with_max_task_retries(5)
            .with_deadline_ms(500)
            .with_threads_per_worker(4);
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.iterations, 10);
        assert_eq!(c.update.learning_rate, 0.5);
        assert_eq!(c.seed, 7);
        assert_eq!(c.backup_s, 1);
        assert_eq!(c.max_task_retries, 5);
        assert_eq!(c.deadline_ms, 500);
        assert_eq!(c.threads_per_worker, 4);
    }

    #[test]
    fn retry_and_deadline_defaults() {
        let c = ColumnSgdConfig::new(ModelSpec::Lr);
        assert_eq!(c.max_task_retries, 3);
        assert_eq!(c.deadline_ms, 2_000);
    }

    #[test]
    fn grouping_matches_figure6() {
        // Figure 6(b): K workers, 1-backup ⇒ K/2 groups; worker1/worker2
        // replicate partitions {1, 2} (0-based: workers 0,1 hold 0,1).
        let c = ColumnSgdConfig::new(ModelSpec::Lr).with_backup(1);
        assert_eq!(c.num_groups(8), 4);
        assert_eq!(c.partitions_of(0), vec![0, 1]);
        assert_eq!(c.partitions_of(1), vec![0, 1]);
        assert_eq!(c.partitions_of(2), vec![2, 3]);
        assert_eq!(c.replicas_of(3), vec![2, 3]);
        assert_eq!(c.group_of(7), 3);
    }

    #[test]
    fn no_backup_is_identity() {
        let c = ColumnSgdConfig::new(ModelSpec::Lr);
        assert_eq!(c.num_groups(4), 4);
        assert_eq!(c.partitions_of(2), vec![2]);
        assert_eq!(c.replicas_of(2), vec![2]);
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = ColumnSgdConfig::new(ModelSpec::Lr);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), a.with_batch_size(64).fingerprint());
        assert_ne!(a.fingerprint(), a.with_seed(9).fingerprint());
    }

    #[test]
    #[should_panic(expected = "requires (S+1)|K")]
    fn rejects_indivisible_groups() {
        let _ = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_backup(1)
            .num_groups(5);
    }
}
