//! `rowsgd-train` — train a model on a LIBSVM file with one of the RowSGD
//! baselines (the mirror image of `columnsgd-train`, so the two sides of a
//! comparison are driven identically).
//!
//! ```text
//! rowsgd-train <file.libsvm> [options]
//!
//!   --variant mllib|mllib*|petuum|mxnet  baseline system          [mllib]
//!   --model lr|svm|lsq|fm:<F>|mlr:<C>    model to train           [lr]
//!   --workers K                          simulated workers        [4]
//!   --batch B                            mini-batch size          [1000]
//!   --iters T                            iterations               [200]
//!   --eta E                              learning rate            [0.1]
//!   --seed S                             experiment seed          [42]
//!   --transport inproc|tcp               transport backend        [inproc]
//!   --worker-bin PATH                    rowsgd-worker binary (tcp)
//!   --trace-out PATH                     write telemetry JSONL trace
//!   --metrics-out PATH                   stream monitor snapshots (JSONL)
//!   --profile                            phase profiler on (prof events
//!                                        land in the trace)
//! ```
//!
//! Example:
//!
//! ```text
//! rowsgd-train data/a9a --variant mxnet --workers 8 --iters 500
//! ```

// panic-hygiene (DESIGN.md §10): faults surface as typed errors, not panics.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::fs::File;
use std::io::BufReader;
use std::process::exit;

use columnsgd_cluster::{ClusterConfig, Monitor, MonitorConfig, Recorder, TransportKind};
use columnsgd_data::libsvm;
use columnsgd_ml::{serial, ModelSpec};
use columnsgd_rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};

use columnsgd_cluster::NetworkModel;

struct Args {
    path: String,
    variant: RowSgdVariant,
    model: ModelSpec,
    workers: usize,
    batch: usize,
    iters: u64,
    eta: f64,
    seed: u64,
    cluster: ClusterConfig,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rowsgd-train <file.libsvm> [--variant mllib|mllib*|petuum|mxnet] \
         [--model lr|svm|lsq|fm:<F>|mlr:<C>] [--workers K] [--batch B] [--iters T] \
         [--eta E] [--seed S] [--transport inproc|tcp] [--worker-bin PATH] \
         [--trace-out PATH] [--metrics-out PATH] [--profile]"
    );
    exit(2)
}

fn parse_variant(s: &str) -> Option<RowSgdVariant> {
    match s {
        "mllib" => Some(RowSgdVariant::MLlib),
        "mllib*" | "mllibstar" => Some(RowSgdVariant::MLlibStar),
        "petuum" | "ps-dense" => Some(RowSgdVariant::PsDense),
        "mxnet" | "ps-sparse" => Some(RowSgdVariant::PsSparse),
        _ => None,
    }
}

fn parse_model(s: &str) -> Option<ModelSpec> {
    match s {
        "lr" => Some(ModelSpec::Lr),
        "svm" => Some(ModelSpec::Svm),
        "lsq" => Some(ModelSpec::LeastSquares),
        _ => {
            if let Some(f) = s.strip_prefix("fm:") {
                return f.parse().ok().map(|factors| ModelSpec::Fm { factors });
            }
            if let Some(c) = s.strip_prefix("mlr:") {
                return c.parse().ok().map(|classes| ModelSpec::Mlr { classes });
            }
            None
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        variant: RowSgdVariant::MLlib,
        model: ModelSpec::Lr,
        workers: 4,
        batch: 1000,
        iters: 200,
        eta: 0.1,
        seed: 42,
        cluster: ClusterConfig::in_proc(),
        trace_out: None,
        metrics_out: None,
        profile: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--variant" => {
                let v = value("--variant");
                args.variant = parse_variant(&v).unwrap_or_else(|| usage());
            }
            "--model" => {
                let v = value("--model");
                args.model = parse_model(&v).unwrap_or_else(|| usage());
            }
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value("--batch").parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--eta" => args.eta = value("--eta").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--transport" => {
                args.cluster.transport = TransportKind::parse(&value("--transport"))
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        usage()
                    });
            }
            "--worker-bin" => {
                args.cluster.worker_bin = Some(value("--worker-bin").into());
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--profile" => args.profile = true,
            "--help" | "-h" => usage(),
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string();
            }
            _ => usage(),
        }
    }
    if args.path.is_empty() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();

    let file = File::open(&args.path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", args.path);
        exit(1)
    });
    let reader = BufReader::new(file);
    let dataset = match args.model {
        ModelSpec::Mlr { .. } => libsvm::read_multiclass(reader),
        _ => libsvm::read_binary(reader),
    }
    .unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    if dataset.is_empty() {
        eprintln!("{} contains no examples", args.path);
        exit(1);
    }
    eprintln!(
        "loaded {}: {} rows x {} features ({:.1} nnz/row)",
        args.path,
        dataset.len(),
        dataset.dimension(),
        dataset.avg_nnz()
    );

    let config = RowSgdConfig::new(args.model, args.variant)
        .with_batch_size(args.batch.min(dataset.len() * 4))
        .with_iterations(args.iters)
        .with_learning_rate(args.eta)
        .with_seed(args.seed);

    if args.profile {
        // Mirrors columnsgd-train: enable here and export the opt-in via
        // the environment for spawned rowsgd-worker processes.
        columnsgd_cluster::telemetry::profile::set_enabled(true);
        std::env::set_var(columnsgd_cluster::telemetry::profile::PROFILE_ENV, "1");
    }
    let recorder = if args.trace_out.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    if args.cluster.transport == TransportKind::Tcp {
        eprintln!("transport: loopback tcp, one worker process per worker");
    }
    let mut engine = RowSgdEngine::new_clustered(
        &dataset,
        args.workers,
        config,
        NetworkModel::CLUSTER1,
        recorder.clone(),
        &args.cluster,
    )
    .unwrap_or_else(|e| {
        eprintln!("engine setup failed: {e}");
        eprintln!("hint: {}", e.advice());
        exit(e.exit_code())
    });

    let monitor = Monitor::new(MonitorConfig::default());
    if let Some(path) = &args.metrics_out {
        monitor
            .attach_metrics_out(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot open metrics sink {path}: {e}");
                exit(1)
            });
    }
    engine.attach_monitor(monitor);

    let outcome = engine.train().unwrap_or_else(|e| {
        eprintln!("training failed: {e}");
        eprintln!("hint: {}", e.advice());
        exit(e.exit_code())
    });
    if let Some(path) = &args.trace_out {
        recorder
            .write_jsonl(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write trace {path}: {e}");
                exit(1)
            });
        eprintln!("trace written to {path} (run {})", outcome.run.run_id_hex());
    }
    if let Some(path) = &args.metrics_out {
        eprintln!("metrics streamed to {path}");
    }

    let rows: Vec<_> = dataset.iter().cloned().collect();
    let model = engine.collect_model().unwrap_or_else(|e| {
        eprintln!("model collection failed: {e}");
        eprintln!("hint: {}", e.advice());
        exit(e.exit_code())
    });
    let loss = serial::full_loss(args.model, &model, &rows);
    let acc = serial::full_accuracy(args.model, &model, &rows);
    println!(
        "trained {:?} with {} in {} iterations ({:.4} s/iter simulated on Cluster 1)",
        args.model,
        engine.label(),
        args.iters,
        outcome.mean_iteration_s(args.iters as usize)
    );
    println!("train loss {loss:.6} | train accuracy {:.2}%", acc * 100.0);

    let diag = &outcome.diagnostics;
    if diag.total() > 0 || diag.halted.is_some() {
        println!(
            "diagnostics: {} alarms (straggler {}, divergence {}, nan {}, comm {}, skew {})",
            diag.total(),
            diag.straggler_alarms,
            diag.divergence_alarms,
            diag.nan_alarms,
            diag.comm_alarms,
            diag.skew_alarms
        );
        for ev in &diag.events {
            println!("  [{}] iter {} {}", ev.kind, ev.iteration, ev.detail);
        }
        if let Some(reason) = &diag.halted {
            println!("  run halted early: {reason}");
        }
    } else {
        println!("diagnostics: clean run, no detector firings");
    }
}
