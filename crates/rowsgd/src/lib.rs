//! RowSGD baselines: the four row-oriented systems the paper compares
//! ColumnSGD against (§V-A), re-implemented on the same message-passing
//! runtime so that every difference in the experiments is attributable to
//! the parallelization strategy, not to implementation accidents.
//!
//! * **MLlib** ([`RowSgdVariant::MLlib`]): the Algorithm 2 architecture —
//!   a single master holds the model; workers pull the *full dense* model
//!   and push *dense* gradients every iteration (Spark's `treeAggregate`
//!   materializes dense gradient vectors).
//! * **MLlib\*** ([`RowSgdVariant::MLlibStar`]): the ICDE'19 optimization
//!   \[26\] — model averaging: every worker keeps a local model replica,
//!   takes a local SGD step, then the replicas are averaged with a ring
//!   AllReduce \[27\]; no master-side model.
//! * **Petuum-style dense-pull PS** ([`RowSgdVariant::PsDense`]): the model
//!   is range-partitioned over P parameter servers; workers pull **all**
//!   dimensions ("MLlib and Petuum have to pull all dimensions", §V-B2)
//!   and push sparse gradients to the owning servers.
//! * **MXNet-style sparse-pull PS** ([`RowSgdVariant::PsSparse`]): same
//!   sharding, but workers pull only the dimensions present in their local
//!   batch ("sparse pull").
//!
//! ## Virtual servers
//!
//! The parameter servers are *logical* nodes hosted on the driver thread:
//! their state is exact (one shard of the model + optimizer per server)
//! and every byte that logically crosses a `Server(p) ↔ Worker(w)` link is
//! metered on that link (see `Router::send_via` / `Router::meter_only`),
//! so traffic accounting and time pricing are identical to running them on
//! separate threads. Only the *compute* of servers runs on the driver —
//! and server compute is priced analytically (the per-key cost model),
//! not measured, for exactly this reason.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// panic-hygiene (DESIGN.md §10): faults surface as typed errors, not panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod codec;
pub mod config;
pub mod engine;
pub mod host;
pub mod memory;
pub mod msg;
pub mod worker;

pub use config::{RowSgdConfig, RowSgdVariant};
pub use engine::RowSgdEngine;
pub use memory::MemoryEstimate;
// The baseline speaks the same typed-error vocabulary as the ColumnSGD
// engine, so callers match on one error type across both paradigms.
pub use columnsgd_core::TrainError;
