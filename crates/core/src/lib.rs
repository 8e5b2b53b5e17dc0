//! The ColumnSGD framework — the paper's primary contribution.
//!
//! ColumnSGD partitions **both the training data and the model by columns**
//! with the same partitioning scheme, collocating each model partition with
//! the data partition covering the same features (Figure 1b). Training then
//! follows Algorithm 3:
//!
//! 1. every worker computes *partial statistics* from its local data and
//!    model partitions (`computeStatistics`),
//! 2. the master aggregates them element-wise and broadcasts the result
//!    (`reduceStatistics`),
//! 3. every worker recovers the gradient for its own columns from the
//!    aggregated statistics and updates its local model partition
//!    (`updateModel`) — **no gradient or model ever crosses the network**.
//!
//! This crate implements the full framework on the message-passing runtime
//! of `columnsgd-cluster`:
//!
//! * [`config`]: training configuration ([`ColumnSgdConfig`]),
//! * [`msg`]: the wire protocol between master and workers,
//! * [`worker`]: the worker node — workset storage, two-phase-index batch
//!   sampling, statistics computation, local model updates, S-backup
//!   replica groups, shard migration,
//! * [`engine`]: the one master/driver ([`ColumnSgdEngine`]) — block-based
//!   column dispatch (§IV-A), the BSP training loop over per-superstep
//!   task lists, straggler recovery via backup computation (§IV-B), and
//!   detection-based recovery from the failures of §X,
//! * [`elastic`]: the run shape ([`ElasticConfig`]; the paper's static
//!   cluster is its fixed shape) and the membership machinery elastic
//!   shapes add — join/leave schedules, shard migration, speculative
//!   backup execution, and the scale policy,
//! * [`error`]: typed training errors ([`TrainError`]) and the
//!   recovery-event log ([`RecoveryEvent`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// panic-hygiene (DESIGN.md §10): faults surface as typed errors, not panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod codec;
pub mod config;
pub mod elastic;
pub mod engine;
pub mod error;
pub mod host;
pub mod mlp;
pub mod msg;
pub mod pool;
pub mod worker;

pub use config::{ColumnSgdConfig, PartitionScheme};
pub use elastic::{ElasticAction, ElasticConfig, ElasticEvent, ScalePolicy};
pub use engine::{ColumnSgdEngine, LoadReport, TrainOutcome, PER_OBJECT_S};
pub use error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
pub use pool::WorkerPool;
