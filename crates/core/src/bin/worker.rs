//! `columnsgd-worker`: one ColumnSGD worker as an OS process.
//!
//! Spawned by the engine's TCP backend, one process per worker. The
//! bootstrap — hub address, worker id, cluster shape, full training
//! config, and this worker's scripted-failure schedule — arrives as a
//! single hex-armored line on stdin (see `columnsgd_core::host::BootSpec`;
//! the workspace has no serialization framework, so the encoding is
//! hand-rolled).
//!
//! The process connects to the master's `TcpHub`, runs the ordinary
//! `run_worker` mailbox loop, and exits when the master shuts the run
//! down (clean `Shutdown` message or hub disconnect). Panics inside the
//! worker loop are caught and forwarded to the master as
//! `ColMsg::WorkerPanic` over the still-open socket — the same contract
//! `spawn_guarded` provides for thread-hosted workers — and the process
//! then exits nonzero.

// panic-hygiene (DESIGN.md §10): faults surface as typed errors, not panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

use columnsgd_cluster::{panic_message, NodeId, Recorder, TcpClient};
use columnsgd_core::host::BootSpec;
use columnsgd_core::msg::ColMsg;
use columnsgd_core::worker::run_worker;

fn main() {
    // Profiling is opt-in per run: the master sets `COLUMNSGD_PROFILE`
    // in its own environment before spawning us, and the child inherits
    // it — no BootSpec change, and unprofiled runs pay nothing.
    columnsgd_cluster::telemetry::profile::enable_from_env();
    let mut line = String::new();
    if let Err(e) = std::io::stdin().lock().read_line(&mut line) {
        eprintln!("columnsgd-worker: failed to read bootstrap from stdin: {e}");
        exit(2);
    }
    let boot = match BootSpec::from_hex_line(&line) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("columnsgd-worker: bad bootstrap: {e}");
            exit(2);
        }
    };
    let BootSpec {
        addr,
        worker,
        k,
        dim,
        cfg,
        script,
        traced,
    } = boot;

    let hub: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("columnsgd-worker: bad hub address {addr:?}: {e}");
            exit(2);
        }
    };
    let mut ids = vec![NodeId::Master];
    ids.extend((0..k).map(NodeId::Worker));
    let (router, ep, telemetry_tx) =
        match TcpClient::<ColMsg>::connect_traced(hub, NodeId::Worker(worker), &ids) {
            Ok(triple) => triple,
            Err(e) => {
                eprintln!("columnsgd-worker: cannot reach hub at {addr}: {e}");
                exit(3);
            }
        };

    // The recorder is live even when the master is not tracing (satellite
    // fix: worker-side NaN/divergence guards must still fire in TCP mode);
    // shipping the events home is what `traced` gates.
    let recorder = Recorder::new();
    let ship = traced.then(|| telemetry_tx.clone());
    let panic_flush = (recorder.clone(), telemetry_tx);

    // Panics are expected under scripted failure plans; a one-line notice
    // on stderr replaces the default backtrace spew (parity with the
    // quiet hook the in-process guarded threads install).
    std::panic::set_hook(Box::new(|info| {
        eprintln!("columnsgd-worker: {info}");
    }));

    // Same contract as the engine's guarded threads: a panic anywhere in
    // the worker loop becomes a WorkerPanic to the master, then we die.
    let result = catch_unwind(AssertUnwindSafe(move || {
        run_worker(ep, worker, k, dim, cfg, script, recorder, ship)
    }));
    if let Err(payload) = result {
        let info = panic_message(payload.as_ref());
        if traced {
            // Ship whatever the dying worker recorded before the panic
            // report; the master's trace keeps the evidence.
            let (recorder, tx) = &panic_flush;
            tx.flush(recorder);
        }
        let _ = router.send_reliable(
            NodeId::Worker(worker),
            NodeId::Master,
            ColMsg::WorkerPanic { worker, info },
        );
        exit(101);
    }
}
