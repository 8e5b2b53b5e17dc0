//! The ColumnSGD wire protocol.
//!
//! Message payload sizes follow the conventions of `columnsgd-cluster`'s
//! [`Wire`] trait: 8 bytes per scalar, 8-byte length headers, plus the
//! router's fixed envelope. Control messages are tiny; the only payloads
//! that matter quantitatively are [`ColMsg::Workset`] during loading and
//! the statistics vectors during training — exactly the two traffic classes
//! the paper analyzes.

use columnsgd_cluster::Wire;
use columnsgd_data::block::{Block, BlockId};
use columnsgd_data::Workset;
use columnsgd_ml::ParamSet;

/// Messages exchanged between the ColumnSGD master and workers.
#[derive(Debug, Clone)]
pub enum ColMsg {
    /// Master → worker: transform this row block (§IV-A step 2; carrying
    /// the block body models the HDFS read of the assigned block ID).
    LoadBlock(Block),
    /// Worker → worker: a column-partitioned workset for partition `pid`
    /// (§IV-A step 3).
    Workset {
        /// Logical partition the workset belongs to.
        pid: usize,
        /// The CSR-encoded workset.
        ws: Workset,
    },
    /// Master → worker: the block stream ended after `blocks_total` blocks;
    /// finalize once all expected worksets arrived.
    LoadDone {
        /// Total number of blocks dispatched.
        blocks_total: usize,
    },
    /// Worker → master: loading finished; reports the (block, rows) layout
    /// of one held partition so the master can sanity-check alignment.
    LoadAck {
        /// Reporting worker.
        worker: usize,
        /// `(block id, rows)` pairs of the worker's first partition.
        layout: Vec<(BlockId, usize)>,
    },
    /// Master → worker: run `computeStatistics` for this iteration
    /// (Algorithm 3 line 5).
    ComputeStats {
        /// Iteration number (doubles as the shared sampling seed input).
        iteration: u64,
        /// Global batch size B.
        batch_size: usize,
        /// Attempt number (0 = original task, >0 = re-issue after a
        /// detected failure). Injection scripts key off it so a retried
        /// task is not doomed to fail forever.
        attempt: u64,
    },
    /// Worker → master: partial statistics (Algorithm 3 step 2).
    StatsReply {
        /// Iteration these statistics belong to.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Partial statistics, length `B × stats_width` (the group
        /// aggregate when the worker holds backup partitions).
        partial: Vec<f64>,
        /// Measured local compute seconds.
        compute_s: f64,
        /// Measured batch sampling/assembly seconds — a telemetry-visible
        /// *subset* of `compute_s` (the batch is drawn inside the timed
        /// statistics task).
        sample_s: f64,
        /// The task threw (fault-injection); statistics are absent.
        task_failed: bool,
    },
    /// Master → workers: the aggregated statistics (Algorithm 3 line 7).
    Update {
        /// Iteration number.
        iteration: u64,
        /// Complete statistics, length `B × stats_width`.
        stats: Vec<f64>,
    },
    /// Worker → master: local model updated.
    UpdateAck {
        /// Iteration number.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Measured local compute seconds.
        compute_s: f64,
    },
    /// Master → worker: die (worker-failure injection, §X). The worker
    /// wipes all partitions, models, and optimizer state.
    Die,
    /// Master → worker: recovery stream — re-split this block and keep
    /// only your own partitions' worksets.
    ReloadBlock(Block),
    /// Master → worker: recovery stream finished.
    ReloadDone {
        /// Total number of blocks in the recovery stream.
        blocks_total: usize,
    },
    /// Worker → master: recovery finished.
    ReloadAck {
        /// Reporting worker.
        worker: usize,
    },
    /// Master → worker: send back your model partitions (test/inspection
    /// path; not part of the paper's protocol).
    FetchModel,
    /// Worker → master: the requested model partitions.
    ModelReply {
        /// Reporting worker.
        worker: usize,
        /// `(partition id, parameters)` for every held partition.
        parts: Vec<(usize, ParamSet)>,
    },
    /// Master → worker (reliable): are you alive, and is your data loaded?
    /// Sent when the iteration deadline expires to classify a missing
    /// reply as a task failure (alive + loaded) or a worker failure.
    Probe {
        /// Iteration the master is trying to complete.
        iteration: u64,
    },
    /// Worker → master (reliable): probe response.
    ProbeAck {
        /// Responding worker.
        worker: usize,
        /// Echoed iteration tag.
        iteration: u64,
        /// Whether the worker's partitions are loaded and trainable.
        loaded: bool,
    },
    /// Supervisor → master (reliable): the worker's thread panicked; the
    /// node runtime caught it and reports the panic message.
    WorkerPanic {
        /// The worker that died.
        worker: usize,
        /// The panic message.
        info: String,
    },
    /// Master → worker: shut down the mailbox loop.
    Shutdown,
    /// Master → worker (reliable): overwrite the parameters of the listed
    /// held partitions. Used after a crash respawn to restore the current
    /// model from a surviving replica, so the respawned worker does not
    /// rejoin with stale init-time parameters.
    InstallParams {
        /// `(partition id, parameters)` to install.
        parts: Vec<(usize, ParamSet)>,
    },
    /// Master → worker: run `computeStatistics` over an explicit partition
    /// subset (elastic engine). The primary request names the worker's own
    /// primaries; a speculative duplicate names a straggler's primaries
    /// that this worker holds as backups.
    ComputeStatsFor {
        /// Iteration number (shared sampling seed input).
        iteration: u64,
        /// Global batch size B.
        batch_size: usize,
        /// Attempt number (0 = original, >0 = re-issue or speculation).
        attempt: u64,
        /// Partitions to compute; intersected with what the worker holds.
        pids: Vec<usize>,
    },
    /// Worker → master: partial statistics for an explicit partition set
    /// (elastic engine; mirrors [`ColMsg::StatsReply`]).
    StatsReplyFor {
        /// Iteration these statistics belong to.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Partitions actually covered (requested ∩ held, in pid order).
        pids: Vec<usize>,
        /// Partial statistics summed over `pids`.
        partial: Vec<f64>,
        /// Measured local compute seconds.
        compute_s: f64,
        /// Measured batch sampling/assembly seconds.
        sample_s: f64,
        /// The task threw (fault-injection); statistics are absent.
        task_failed: bool,
    },
    /// Master → worker: stream your copy of shard `pid` (worksets + current
    /// parameters) to worker `to` over the data plane (shard migration).
    ShardRequest {
        /// Partition to migrate.
        pid: usize,
        /// Membership epoch stamping the migration.
        epoch: u64,
        /// Destination worker.
        to: usize,
    },
    /// Worker → worker (or master → worker on rebuild): one full column
    /// shard — the migration payload, priced like any other data traffic.
    ShardData {
        /// Partition being installed.
        pid: usize,
        /// Membership epoch stamping the migration.
        epoch: u64,
        /// The shard's worksets, sorted by block id.
        worksets: Vec<Workset>,
        /// Current parameters of the shard's model partition.
        params: ParamSet,
    },
    /// Worker → master (reliable): shard installed and trainable.
    ShardInstalled {
        /// Partition installed.
        pid: usize,
        /// Echoed membership epoch.
        epoch: u64,
        /// Reporting worker.
        worker: usize,
    },
    /// Master → worker: drop shard `pid` (it moved elsewhere).
    DropShard {
        /// Partition to drop.
        pid: usize,
        /// Membership epoch of the drop decision.
        epoch: u64,
    },
}

impl ColMsg {
    /// Analytic wire size of a [`ColMsg::StatsReply`] carrying `stats_len`
    /// statistics scalars — equal to `wire_size()` of the materialized
    /// message, so the pricing path never has to construct (or clone the
    /// payload of) a throwaway reply.
    pub fn stats_reply_wire_size(stats_len: usize) -> usize {
        // tag + iteration + worker + compute_s + sample_s + task_failed
        // + Vec<f64>.
        1 + 8 + 8 + 8 + 8 + 1 + (8 + 8 * stats_len)
    }

    /// Analytic wire size of a [`ColMsg::StatsReplyFor`] naming `npids`
    /// partitions and carrying `stats_len` statistics scalars — equal to
    /// `wire_size()` of the materialized message (elastic pricing path).
    pub fn stats_reply_for_wire_size(npids: usize, stats_len: usize) -> usize {
        // tag + iteration + worker + compute_s + sample_s + task_failed
        // + Vec<usize> pids + Vec<f64>.
        1 + 8 + 8 + 8 + 8 + 1 + (8 + 8 * npids) + (8 + 8 * stats_len)
    }

    /// Analytic wire size of a [`ColMsg::Update`] carrying `stats_len`
    /// statistics scalars — equal to `wire_size()` of the materialized
    /// message.
    pub fn update_wire_size(stats_len: usize) -> usize {
        // tag + iteration + Vec<f64>.
        1 + 8 + (8 + 8 * stats_len)
    }

    /// Short variant name for log lines (avoids dumping block payloads).
    pub fn name(&self) -> &'static str {
        match self {
            ColMsg::LoadBlock(_) => "LoadBlock",
            ColMsg::Workset { .. } => "Workset",
            ColMsg::LoadDone { .. } => "LoadDone",
            ColMsg::LoadAck { .. } => "LoadAck",
            ColMsg::ComputeStats { .. } => "ComputeStats",
            ColMsg::StatsReply { .. } => "StatsReply",
            ColMsg::Update { .. } => "Update",
            ColMsg::UpdateAck { .. } => "UpdateAck",
            ColMsg::Die => "Die",
            ColMsg::ReloadBlock(_) => "ReloadBlock",
            ColMsg::ReloadDone { .. } => "ReloadDone",
            ColMsg::ReloadAck { .. } => "ReloadAck",
            ColMsg::FetchModel => "FetchModel",
            ColMsg::ModelReply { .. } => "ModelReply",
            ColMsg::Probe { .. } => "Probe",
            ColMsg::ProbeAck { .. } => "ProbeAck",
            ColMsg::WorkerPanic { .. } => "WorkerPanic",
            ColMsg::Shutdown => "Shutdown",
            ColMsg::InstallParams { .. } => "InstallParams",
            ColMsg::ComputeStatsFor { .. } => "ComputeStatsFor",
            ColMsg::StatsReplyFor { .. } => "StatsReplyFor",
            ColMsg::ShardRequest { .. } => "ShardRequest",
            ColMsg::ShardData { .. } => "ShardData",
            ColMsg::ShardInstalled { .. } => "ShardInstalled",
            ColMsg::DropShard { .. } => "DropShard",
        }
    }
}

impl Wire for ColMsg {
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn wire_size(&self) -> usize {
        match self {
            ColMsg::LoadBlock(b) | ColMsg::ReloadBlock(b) => 1 + b.wire_size(),
            ColMsg::Workset { ws, .. } => 1 + 8 + ws.wire_size(),
            ColMsg::LoadDone { .. } | ColMsg::ReloadDone { .. } => 1 + 8,
            ColMsg::LoadAck { layout, .. } => 1 + 8 + 8 + 16 * layout.len(),
            ColMsg::ComputeStats { .. } => 1 + 8 + 8 + 8,
            ColMsg::StatsReply { partial, .. } => 1 + 8 + 8 + 8 + 8 + 1 + partial.wire_size(),
            ColMsg::Update { stats, .. } => 1 + 8 + stats.wire_size(),
            ColMsg::UpdateAck { .. } => 1 + 8 + 8 + 8,
            ColMsg::Die | ColMsg::Shutdown | ColMsg::FetchModel => 1,
            ColMsg::ReloadAck { .. } => 1 + 8,
            ColMsg::ModelReply { parts, .. } => {
                1 + 8 + 8 + parts.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            ColMsg::Probe { .. } => 1 + 8,
            ColMsg::ProbeAck { .. } => 1 + 8 + 8 + 1,
            ColMsg::WorkerPanic { info, .. } => 1 + 8 + info.wire_size(),
            ColMsg::InstallParams { parts } => {
                1 + 8 + parts.iter().map(|(_, p)| 8 + p.wire_size()).sum::<usize>()
            }
            ColMsg::ComputeStatsFor { pids, .. } => 1 + 8 + 8 + 8 + (8 + 8 * pids.len()),
            ColMsg::StatsReplyFor { pids, partial, .. } => {
                1 + 8 + 8 + 8 + 8 + 1 + (8 + 8 * pids.len()) + partial.wire_size()
            }
            ColMsg::ShardRequest { .. } => 1 + 8 + 8 + 8,
            ColMsg::ShardData {
                worksets, params, ..
            } => {
                1 + 8
                    + 8
                    + (8 + worksets.iter().map(|ws| ws.wire_size()).sum::<usize>())
                    + params.wire_size()
            }
            ColMsg::ShardInstalled { .. } => 1 + 8 + 8 + 8,
            ColMsg::DropShard { .. } => 1 + 8 + 8,
        }
    }

    fn kind(&self) -> &'static str {
        self.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_linalg::SparseVector;

    #[test]
    fn stats_reply_size_tracks_batch() {
        let small = ColMsg::StatsReply {
            iteration: 0,
            worker: 0,
            partial: vec![0.0; 10],
            compute_s: 0.0,
            sample_s: 0.0,
            task_failed: false,
        };
        let big = ColMsg::StatsReply {
            iteration: 0,
            worker: 0,
            partial: vec![0.0; 1000],
            compute_s: 0.0,
            sample_s: 0.0,
            task_failed: false,
        };
        assert_eq!(big.wire_size() - small.wire_size(), 8 * 990);
    }

    #[test]
    fn analytic_sizes_match_serialized_sizes() {
        for stats_len in [0usize, 1, 10, 1_000, 123_457] {
            let reply = ColMsg::StatsReply {
                iteration: 7,
                worker: 3,
                partial: vec![1.5; stats_len],
                compute_s: 0.25,
                sample_s: 0.05,
                task_failed: false,
            };
            assert_eq!(
                ColMsg::stats_reply_wire_size(stats_len),
                reply.wire_size(),
                "StatsReply, stats_len={stats_len}"
            );
            let update = ColMsg::Update {
                iteration: 7,
                stats: vec![1.5; stats_len],
            };
            assert_eq!(
                ColMsg::update_wire_size(stats_len),
                update.wire_size(),
                "Update, stats_len={stats_len}"
            );
        }
    }

    #[test]
    fn analytic_elastic_reply_size_matches_serialized_size() {
        for (npids, stats_len) in [(1usize, 0usize), (1, 1_000), (7, 10), (16, 123_457)] {
            let reply = ColMsg::StatsReplyFor {
                iteration: 7,
                worker: 3,
                pids: vec![2; npids],
                partial: vec![1.5; stats_len],
                compute_s: 0.25,
                sample_s: 0.05,
                task_failed: false,
            };
            assert_eq!(
                ColMsg::stats_reply_for_wire_size(npids, stats_len),
                reply.wire_size(),
                "StatsReplyFor, npids={npids}, stats_len={stats_len}"
            );
        }
    }

    #[test]
    fn control_messages_are_tiny() {
        assert!(ColMsg::Shutdown.wire_size() < 8);
        assert!(ColMsg::Die.wire_size() < 8);
        assert!(
            (ColMsg::ComputeStats {
                iteration: 9,
                batch_size: 1000,
                attempt: 0
            })
            .wire_size()
                < 32
        );
        assert!(ColMsg::Probe { iteration: 9 }.wire_size() < 16);
        assert!(
            (ColMsg::ProbeAck {
                worker: 3,
                iteration: 9,
                loaded: true
            })
            .wire_size()
                < 32
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ColMsg::Shutdown.name(), "Shutdown");
        assert_eq!(
            ColMsg::WorkerPanic {
                worker: 0,
                info: "boom".into()
            }
            .name(),
            "WorkerPanic"
        );
    }

    #[test]
    fn elastic_messages_follow_wire_conventions() {
        let m = ColMsg::ComputeStatsFor {
            iteration: 3,
            batch_size: 64,
            attempt: 0,
            pids: vec![1, 5],
        };
        assert_eq!(m.wire_size(), 1 + 8 + 8 + 8 + 8 + 16);
        assert_eq!(
            ColMsg::ShardRequest {
                pid: 1,
                epoch: 2,
                to: 3
            }
            .wire_size(),
            25
        );
        assert_eq!(ColMsg::DropShard { pid: 1, epoch: 2 }.wire_size(), 17);
        // ShardData's size = headers + worksets + params, so migration bytes
        // scale with the shard payload like any other data traffic.
        let rows: Vec<(f64, SparseVector)> = (0..20)
            .map(|i| (1.0, SparseVector::from_pairs(vec![(i, 1.0)])))
            .collect();
        let block = Block::from_rows(0, &rows);
        let parts = columnsgd_data::workset::split_block(
            &block,
            &columnsgd_data::ColumnPartitioner::round_robin(2),
        );
        let params = ParamSet::zeros(4, &[1]);
        let small = ColMsg::ShardData {
            pid: 0,
            epoch: 1,
            worksets: vec![],
            params: params.clone(),
        };
        let full = ColMsg::ShardData {
            pid: 0,
            epoch: 1,
            worksets: vec![parts[0].clone()],
            params,
        };
        assert_eq!(full.wire_size() - small.wire_size(), parts[0].wire_size());
    }

    #[test]
    fn workset_size_dominated_by_csr() {
        let rows: Vec<(f64, SparseVector)> = (0..100)
            .map(|i| (1.0, SparseVector::from_pairs(vec![(i, 1.0)])))
            .collect();
        let block = Block::from_rows(0, &rows);
        let parts = columnsgd_data::workset::split_block(
            &block,
            &columnsgd_data::ColumnPartitioner::round_robin(2),
        );
        let msg = ColMsg::Workset {
            pid: 0,
            ws: parts[0].clone(),
        };
        assert!(msg.wire_size() > parts[0].wire_size());
        assert!(msg.wire_size() < parts[0].wire_size() + 32);
    }
}
