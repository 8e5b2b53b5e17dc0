//! `perfbench`: the measured training benchmark.
//!
//! ```text
//! perfbench --workload <lr_inproc|fm_tcp|rowsgd_ps> --seed N --seconds S --trace 0|1
//! ```
//!
//! Trains real engines through their public API on inputs generated from
//! the seed. `--trace 0` repeats whole jobs (set up, train, collect) for
//! the given seconds with tracing off and reports the end-to-end metrics
//! as medians over the jobs. `--trace 1` reports the per-layer rows:
//! spans around the benchmark's own calls into each layer, plus the
//! engines' measured phase spans read back from their `Recorder`.
//!
//! The last line of standard output is the result object; a line before
//! it records the host and run facts. Any error prints no result and
//! exits nonzero.

mod layers;
mod stats;
mod sys;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use columnsgd::cluster::telemetry::Phase;
use columnsgd::cluster::TransportKind;
use columnsgd::data::Dataset;
use columnsgd::ml::ModelSpec;

use layers::{phase_ms, Spans};
use stats::{median, percentiles, render, Values};
use workload::{
    run_job, EngineKind, Job, JobSpec, Shape, Workload, BATCH, POOL_WIDTH, ROWS, WORKERS,
};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("total_s", "s"),
    ("cpu_s_per_1k_samples", "s"),
    ("peak_rss_mb", "MiB"),
    ("wire_bytes_per_iter", "bytes"),
    ("final_loss", "nats"),
    ("success_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A `_us`/`_ms` row
/// is a median; its `.p99` and `.n` siblings give the tail and the
/// sample count.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("data.block_queue_s", "s"),
    ("data.column_split_s", "s"),
    ("data.load_objects", "count"),
    ("data.load_bytes", "bytes"),
    ("data.sample_batch_us", "us"),
    ("data.sample_batch_us.p99", "us"),
    ("data.sample_batch_us.n", "count"),
    ("linalg.batch_build_us", "us"),
    ("linalg.batch_build_us.p99", "us"),
    ("linalg.batch_build_us.n", "count"),
    ("ml.compute_stats_us", "us"),
    ("ml.compute_stats_us.p99", "us"),
    ("ml.compute_stats_us.n", "count"),
    ("ml.update_us", "us"),
    ("ml.update_us.p99", "us"),
    ("ml.update_us.n", "count"),
    ("cluster.encode_us", "us"),
    ("cluster.encode_us.p99", "us"),
    ("cluster.encode_us.n", "count"),
    ("cluster.decode_us", "us"),
    ("cluster.decode_us.p99", "us"),
    ("cluster.decode_us.n", "count"),
    ("cluster.frame_bytes", "bytes"),
    ("cluster.roundtrip_us", "us"),
    ("cluster.roundtrip_us.p99", "us"),
    ("cluster.roundtrip_us.n", "count"),
    ("cluster.msgs_per_iter", "count"),
    ("cluster.bytes_per_iter", "bytes"),
    ("core.phase.sample_ms", "ms"),
    ("core.phase.sample_ms.p99", "ms"),
    ("core.phase.sample_ms.n", "count"),
    ("core.phase.compute_ms", "ms"),
    ("core.phase.compute_ms.p99", "ms"),
    ("core.phase.compute_ms.n", "count"),
    ("core.phase.update_ms", "ms"),
    ("core.phase.update_ms.p99", "ms"),
    ("core.phase.update_ms.n", "count"),
    ("core.superstep_ms", "ms"),
    ("core.wait_ms", "ms"),
    ("core.collect_s", "s"),
    ("core.recoveries", "count"),
    ("rowsgd.phase.compute_ms", "ms"),
    ("rowsgd.phase.compute_ms.p99", "ms"),
    ("rowsgd.phase.compute_ms.n", "count"),
    ("rowsgd.phase.update_ms", "ms"),
    ("rowsgd.phase.update_ms.p99", "ms"),
    ("rowsgd.phase.update_ms.n", "count"),
    ("rowsgd.superstep_ms", "ms"),
    ("rowsgd.wait_ms", "ms"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.events", "count"),
];

/// Job processes in an end-to-end run at least.
const MIN_PROCESSES: usize = 2;
/// Timed jobs per job process, after its warm-up job.
const TIMED_PER_PROCESS: usize = 2;
/// Host steal share up to which a timed job counts as undisturbed.
const CALM_STEAL: f64 = 0.03;
/// Repetitions of the row → column transform in a traced run.
const TRANSFORM_REPS: usize = 3;
/// Kernel-loop iterations and round trips in a traced run at most.
const MAX_KERNEL_ITERS: u64 = 2000;
const ROUNDTRIPS: u64 = 2000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one job in this process and print it as a job line.
    job: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut job = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" | "--job" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--job" {
                    job = on;
                } else {
                    trace = Some(on);
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        job,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    // Fail before any work when the TCP workload has no worker binary.
    let worker_bin = match w.transport() {
        TransportKind::Tcp => Some(workload::worker_bin()?),
        TransportKind::InProc => None,
    };
    let spec = JobSpec {
        engine: w.engine(),
        model: w.model(),
        transport: w.transport(),
        iterations: w.iterations(),
        seed: args.seed,
        worker_bin,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    if args.job {
        // A job process: one warm-up job, then the timed ones.
        let data = workload::generate(w, ROWS, args.seed);
        let mut lines = Vec::new();
        for i in 0..=TIMED_PER_PROCESS {
            lines.push(run_job(&spec, &data, false)?.to_line(Shape::of(&data), i > 0));
        }
        return Ok(lines.join("\n"));
    }
    let host0 = sys::host_ticks()?;
    let (correct, attempted, failed, values, declared, shape) = if args.trace {
        let data = workload::generate(w, ROWS, args.seed);
        let (ok, a, f, v) = per_layer(w, &spec, &data, budget)?;
        (ok, a, f, v, &PER_LAYER[..], Shape::of(&data))
    } else {
        let (ok, a, f, v, shape) = end_to_end(args, budget)?;
        (ok, a, f, v, &END_TO_END[..], shape)
    };
    print_facts(args, shape, sys::steal_share_since(host0)?);
    render(correct, attempted, failed, declared, &values)
}

/// The output check: a job of a seed must reproduce the bits of the
/// first job's whole loss curve and its metered train traffic, and must
/// not recover from any fault.
struct Check {
    /// (loss-curve hash, train bytes, final loss) of the first job.
    reference: Option<(u64, u64, f64)>,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn new() -> Check {
        Check {
            reference: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one job; returns it when it passed.
    fn admit(&mut self, what: &str, job: Result<Job, String>) -> Option<Job> {
        self.attempted += 1;
        let verdict = job.and_then(|j| {
            let key = (j.curve_hash, j.wire_bytes, j.final_loss);
            let reference = *self.reference.get_or_insert(key);
            if key.0 != reference.0 || key.1 != reference.1 {
                Err(format!(
                    "output mismatch: loss curve {:016x} (final {}) and {} train bytes, \
                     first job {:016x} (final {}) and {}",
                    key.0, key.2, key.1, reference.0, reference.2, reference.1
                ))
            } else if j.recoveries > 0 {
                Err(format!("{} recovery events", j.recoveries))
            } else {
                Ok(j)
            }
        });
        match verdict {
            Ok(j) => {
                eprintln!(
                    "perfbench: {what} job {}: setup {:.4} s, train {:.4} s, collect {:.4} s, \
                     cpu {:.2} s, peak {:.1} MiB, steal {:.3}",
                    self.attempted,
                    j.setup_s,
                    j.train_s,
                    j.collect_s,
                    j.cpu_s,
                    j.peak_rss_mb,
                    j.steal_share
                );
                Some(j)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} job {} failed: {e}", self.attempted);
                None
            }
        }
    }
}

/// Starts one job process of this binary and returns its jobs, each
/// with the input shape and whether it was timed. Every process starts
/// cold and warms up once, so allocator and cache state never carries
/// from one process into the next; a run's medians pool several.
fn job_process(exe: &std::path::Path, args: &Args) -> Result<Vec<(Job, Shape, bool)>, String> {
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--job", "1"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("job process exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(Job::from_line)
        .collect()
}

fn end_to_end(args: &Args, budget: Duration) -> Result<(bool, u64, u64, Values, Shape), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let mut check = Check::new();
    let mut jobs = Vec::new();
    let mut shape = None;
    let (mut processes, mut longest) = (0, Duration::ZERO);
    // Start another process only while it should end within the budget.
    while processes < MIN_PROCESSES || start.elapsed() + longest < budget {
        processes += 1;
        let began = Instant::now();
        let done = job_process(&exe, args);
        longest = longest.max(began.elapsed());
        match done {
            Ok(done) => {
                for (job, s, timed) in done {
                    shape.get_or_insert(s);
                    let what = if timed { "timed" } else { "warm-up" };
                    if let Some(j) = check.admit(what, Ok(job)) {
                        if timed {
                            jobs.push(j);
                        }
                    }
                }
            }
            Err(e) => {
                check.admit("process", Err(e));
            }
        }
    }
    let (Some(shape), Some(first)) = (shape, jobs.first()) else {
        return Err(format!(
            "{} of {} jobs failed",
            check.failed, check.attempted
        ));
    };
    let t = first.iterations;
    let calm = calm_jobs(&jobs);
    let each = |f: &dyn Fn(&Job) -> f64| median(&calm.iter().map(|j| f(j)).collect::<Vec<_>>());
    let mut v = Values::default();
    v.set("setup_s", each(&|j| j.setup_s));
    v.set("samples_per_s", each(&|j| j.samples() / j.train_s));
    v.set("total_s", each(&|j| j.setup_s + j.train_s + j.collect_s));
    v.set(
        "cpu_s_per_1k_samples",
        each(&|j| j.cpu_s / (j.samples() / 1000.0)),
    );
    v.set("peak_rss_mb", each(&|j| j.peak_rss_mb));
    v.set("wire_bytes_per_iter", first.wire_bytes as f64 / t as f64);
    v.set("final_loss", first.final_loss);
    v.set(
        "success_share",
        (check.attempted - check.failed) as f64 / check.attempted as f64,
    );
    Ok((check.failed == 0, check.attempted, check.failed, v, shape))
}

/// The timed jobs during which the hypervisor stole at most
/// [`CALM_STEAL`] of the host's CPU time, or, if those are fewer, the
/// half of them (rounded up) with the least steal. On a shared virtual
/// machine a neighbour's load can take a large share of this machine's
/// CPU for minutes; the jobs it hits measure the neighbour, not the
/// program.
fn calm_jobs(jobs: &[Job]) -> Vec<&Job> {
    let mut by_steal: Vec<&Job> = jobs.iter().collect();
    by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let calm = by_steal
        .iter()
        .filter(|j| j.steal_share <= CALM_STEAL)
        .count();
    by_steal.truncate(calm.max(jobs.len().div_ceil(2)));
    by_steal
}

fn per_layer(
    w: Workload,
    spec: &JobSpec,
    data: &Dataset,
    budget: Duration,
) -> Result<(bool, u64, u64, Values), String> {
    let start = Instant::now();
    let cfg = spec.column_cfg();
    let mut spans = Spans::default();
    let mut v = Values::default();

    let (blocks, split) = layers::transform(data, &cfg, TRANSFORM_REPS, &mut spans);
    v.set(
        "data.block_queue_s",
        median(spans.get("data.block_queue_s")),
    );
    v.set(
        "data.column_split_s",
        median(spans.get("data.column_split_s")),
    );

    // Untraced twice (the first warms up), then traced: same bits and
    // bytes are required of all three.
    let mut check = Check::new();
    let warm = check.admit("warm-up", run_job(spec, data, false));
    let plain = check.admit("untraced", run_job(spec, data, false));
    let traced = check.admit("traced", run_job(spec, data, true));
    // The other engine on the same data and model, in-process and
    // traced, fills the other engine's phase rows.
    let other_spec = JobSpec {
        engine: spec.engine.other(),
        transport: TransportKind::InProc,
        iterations: w.other_iterations(),
        worker_bin: None,
        ..spec.clone()
    };
    let mut other_check = Check::new();
    let other = other_check.admit("other-engine", run_job(&other_spec, data, true));
    let (Some(_), Some(plain), Some(traced), Some(other)) = (warm, plain, traced, other) else {
        return Err("a training job failed".to_string());
    };

    let t = spec.iterations;
    v.set("data.load_objects", traced.load.0 as f64);
    v.set("data.load_bytes", traced.load.1 as f64);
    v.set("cluster.msgs_per_iter", traced.wire_msgs as f64 / t as f64);
    v.set(
        "cluster.bytes_per_iter",
        traced.wire_bytes as f64 / t as f64,
    );
    v.set(
        "telemetry.trace_overhead",
        (traced.samples() / traced.train_s) / (plain.samples() / plain.train_s),
    );
    v.set("telemetry.events", traced.events.len() as f64);
    let (column, row) = match spec.engine {
        EngineKind::Column => (&traced, &other),
        EngineKind::RowPsSparse => (&other, &traced),
    };
    let phases = [Phase::Sample, Phase::Compute, Phase::Update];
    engine_rows(&mut v, "core", column, &phases);
    v.set("core.collect_s", column.collect_s);
    v.set("core.recoveries", column.recoveries as f64);
    engine_rows(&mut v, "rowsgd", row, &phases[1..]);

    let left = budget
        .saturating_sub(start.elapsed())
        .max(Duration::from_secs(1));
    let frame_bytes = layers::kernels(
        data,
        &cfg,
        spec.engine,
        &blocks,
        &split,
        left,
        MAX_KERNEL_ITERS,
        &mut spans,
    )?;
    v.set("cluster.frame_bytes", frame_bytes as f64);
    layers::roundtrip_for(spec.engine, spec.transport, ROUNDTRIPS, &mut spans)?;
    for name in [
        "data.sample_batch_us",
        "linalg.batch_build_us",
        "ml.compute_stats_us",
        "ml.update_us",
        "cluster.encode_us",
        "cluster.decode_us",
        "cluster.roundtrip_us",
    ] {
        v.set_percentiles(name, percentiles(spans.get(name)));
    }
    let attempted = check.attempted + other_check.attempted;
    let failed = check.failed + other_check.failed;
    Ok((failed == 0, attempted, failed, v))
}

/// One engine's phase decomposition from its recorder: each measured
/// phase's percentiles, wall time per superstep, and the rest of the
/// superstep (hand-off plus barrier wait). The sample phase is a subset
/// of compute, so only compute and update are subtracted.
fn engine_rows(v: &mut Values, prefix: &str, job: &Job, phases: &[Phase]) {
    let superstep_ms = job.train_s * 1e3 / job.iterations as f64;
    let mut busy_ms = 0.0;
    for &phase in phases {
        let ms = phase_ms(&job.events, phase);
        if phase != Phase::Sample && !ms.is_empty() {
            busy_ms += stats::mean(&ms);
        }
        v.set_percentiles(
            &format!("{prefix}.phase.{}_ms", phase.as_str()),
            percentiles(&ms),
        );
    }
    v.set(&format!("{prefix}.superstep_ms"), superstep_ms);
    v.set(&format!("{prefix}.wait_ms"), superstep_ms - busy_ms);
}

/// Prints the host and run facts as one JSON line.
fn print_facts(args: &Args, shape: Shape, steal_share: f64) {
    let w = args.workload;
    println!(
        "{{\"facts\": {{\"workload\": \"{}\", \"engine\": \"{}\", \"transport\": \"{}\", \
         \"nproc\": {}, \"k\": {WORKERS}, \"pool_width\": {POOL_WIDTH}, \"batch\": {BATCH}, \
         \"rows\": {}, \"dim\": {}, \"nnz\": {}, \"model\": \"{}\", \"iterations\": {}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"net\": \"CLUSTER1\", \"commit\": \"{}\", \
         \"host_steal_share\": {steal_share}, \
         \"peak_rss\": \"this process only; TCP worker processes excluded\"}}}}",
        w.name(),
        w.engine().label(),
        w.transport().label(),
        sys::nproc(),
        shape.rows,
        shape.dim,
        shape.nnz,
        model_label(w.model()),
        w.iterations(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
    );
}

/// Model label with its width (`lr`, `fm8`).
fn model_label(m: ModelSpec) -> String {
    match m {
        ModelSpec::Fm { factors } => format!("fm{factors}"),
        other => other.label().to_string(),
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| Some(l.strip_suffix(r)?.trim().to_string()))
            }),
        None => Some(head.to_string()),
    };
    match id {
        Some(id) if id.len() == 40 && id.chars().all(|c| c.is_ascii_hexdigit()) => id,
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric names");
    }

    #[test]
    fn calm_jobs_drop_the_stolen_ones() {
        let job = |steal_share| Job {
            iterations: 1,
            setup_s: 0.0,
            train_s: 0.0,
            collect_s: 0.0,
            cpu_s: 0.0,
            peak_rss_mb: 0.0,
            steal_share,
            final_loss: 0.0,
            curve_hash: 0,
            wire_bytes: 0,
            wire_msgs: 0,
            recoveries: 0,
            load: (0, 0),
            events: Vec::new(),
        };
        let steals =
            |jobs: &[Job]| -> Vec<f64> { calm_jobs(jobs).iter().map(|j| j.steal_share).collect() };
        let quiet = [job(0.0), job(0.02), job(0.01), job(0.03)];
        assert_eq!(steals(&quiet), [0.0, 0.01, 0.02, 0.03]);
        let mixed = [job(0.0), job(0.5), job(0.01), job(0.9), job(0.02)];
        assert_eq!(steals(&mixed), [0.0, 0.01, 0.02]);
        let stormy = [job(0.4), job(0.1), job(0.3), job(0.2)];
        assert_eq!(steals(&stormy), [0.1, 0.2]);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
