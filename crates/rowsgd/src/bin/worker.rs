//! `rowsgd-worker`: one RowSGD baseline worker as an OS process.
//!
//! Spawned by the baseline engine's TCP backend, one process per worker.
//! The bootstrap — hub address, worker id, cluster shape, and the full
//! training config — arrives as a single hex-armored line on stdin (see
//! `columnsgd_rowsgd::host::RowBootSpec`).
//!
//! The process connects to the master's `TcpHub` and runs the ordinary
//! `run_row_worker` mailbox loop until the master shuts the run down
//! (clean `Shutdown` message or hub disconnect). RowSGD workers never
//! panic by contract — protocol trouble logs and exits the loop, and the
//! master's deadline converts the silence into a typed error — so there
//! is no panic-forwarding machinery here.

// panic-hygiene (DESIGN.md §10): faults surface as typed errors, not panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::io::BufRead;
use std::process::exit;

use columnsgd_cluster::{NodeId, Recorder, TcpClient};
use columnsgd_rowsgd::host::RowBootSpec;
use columnsgd_rowsgd::msg::RowMsg;
use columnsgd_rowsgd::worker::run_row_worker;

fn main() {
    // Same opt-in contract as the ColumnSGD worker: profiling rides the
    // inherited `COLUMNSGD_PROFILE` environment variable.
    columnsgd_cluster::telemetry::profile::enable_from_env();
    let mut line = String::new();
    if let Err(e) = std::io::stdin().lock().read_line(&mut line) {
        eprintln!("rowsgd-worker: failed to read bootstrap from stdin: {e}");
        exit(2);
    }
    let boot = match RowBootSpec::from_hex_line(&line) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("rowsgd-worker: bad bootstrap: {e}");
            exit(2);
        }
    };
    let RowBootSpec {
        addr,
        worker,
        k,
        dim,
        cfg,
    } = boot;

    let hub: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rowsgd-worker: bad hub address {addr:?}: {e}");
            exit(2);
        }
    };
    let mut ids = vec![NodeId::Master];
    ids.extend((0..k).map(NodeId::Worker));
    let (_router, ep) = match TcpClient::<RowMsg>::connect(hub, NodeId::Worker(worker), &ids) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("rowsgd-worker: cannot reach hub at {addr}: {e}");
            exit(3);
        }
    };
    // A live worker-local recorder even though the baseline ships nothing
    // home: the NaN/divergence guards fire (and log) in TCP mode exactly
    // as they do for thread-hosted workers.
    run_row_worker(ep, worker, k, dim, cfg, Recorder::new());
}
