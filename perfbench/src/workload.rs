//! The three workloads, their seeded inputs, and one measured training
//! job (set up, train, collect, drop) through the engines' public API.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use columnsgd::cluster::telemetry::{fnv, Event};
use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder, TransportKind};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine, TrainError};
use columnsgd::data::{Dataset, DatasetPreset, SynthConfig};
use columnsgd::ml::{ModelSpec, ParamSet};
use columnsgd::rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};

use crate::sys;

/// Mini-batch size B (the paper's default).
pub const BATCH: usize = 1000;
/// Workers K.
pub const WORKERS: usize = 2;
/// Kernel threads per worker, pinned: the auto setting resolves to the
/// cluster preset's 2 cores, which would put four kernel threads on a
/// 2-core host.
pub const POOL_WIDTH: usize = 1;
/// Feature-dimension scale applied to the Table II presets.
pub const SCALE: f64 = 0.02;
/// Rows generated per workload.
pub const ROWS: usize = 200_000;

/// Which training engine a job drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `ColumnSgdEngine`.
    Column,
    /// `RowSgdEngine` with `RowSgdVariant::PsSparse` (MXNet-style sparse
    /// pull and push).
    RowPsSparse,
}

impl EngineKind {
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Column => "columnsgd",
            EngineKind::RowPsSparse => "rowsgd-ps-sparse",
        }
    }

    /// The other engine: a traced run measures both on the workload's
    /// data, so every per-layer row has a value on every workload.
    pub fn other(self) -> EngineKind {
        match self {
            EngineKind::Column => EngineKind::RowPsSparse,
            EngineKind::RowPsSparse => EngineKind::Column,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LrInproc,
    FmTcp,
    RowsgdPs,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LrInproc, Workload::FmTcp, Workload::RowsgdPs];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LrInproc => "lr_inproc",
            Workload::FmTcp => "fm_tcp",
            Workload::RowsgdPs => "rowsgd_ps",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn preset(self) -> DatasetPreset {
        match self {
            Workload::LrInproc | Workload::RowsgdPs => DatasetPreset::Kdd12,
            Workload::FmTcp => DatasetPreset::Kddb,
        }
    }

    pub fn model(self) -> ModelSpec {
        match self {
            Workload::LrInproc | Workload::RowsgdPs => ModelSpec::Lr,
            Workload::FmTcp => ModelSpec::Fm { factors: 8 },
        }
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::LrInproc | Workload::FmTcp => EngineKind::Column,
            Workload::RowsgdPs => EngineKind::RowPsSparse,
        }
    }

    pub fn transport(self) -> TransportKind {
        match self {
            Workload::FmTcp => TransportKind::Tcp,
            Workload::LrInproc | Workload::RowsgdPs => TransportKind::InProc,
        }
    }

    /// Iterations per training job: fixed, so the final loss and the
    /// traffic of a seed repeat exactly, and sized so one job trains for
    /// roughly one to two seconds.
    pub fn iterations(self) -> u64 {
        match self {
            Workload::LrInproc => 1500,
            Workload::FmTcp => 250,
            Workload::RowsgdPs => 500,
        }
    }

    /// Iterations of the other engine's job in a traced run, sized to
    /// about one and a half seconds.
    pub fn other_iterations(self) -> u64 {
        match self {
            Workload::LrInproc => 500,
            Workload::FmTcp => 60,
            Workload::RowsgdPs => 1500,
        }
    }
}

/// The workload's synthetic input: `rows` rows shaped like the scaled
/// Table II preset, drawn from `seed`.
pub fn generate(w: Workload, rows: usize, seed: u64) -> Dataset {
    let meta = w.preset().meta().scaled(SCALE);
    SynthConfig::from_meta(&meta, rows, seed).generate()
}

/// What one job trains: engine, model, transport, length, seed.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub engine: EngineKind,
    pub model: ModelSpec,
    pub transport: TransportKind,
    pub iterations: u64,
    pub seed: u64,
    /// The `columnsgd-worker` binary, required for the TCP transport.
    pub worker_bin: Option<PathBuf>,
}

impl JobSpec {
    /// The ColumnSGD configuration of this job (also the shape the
    /// per-layer kernels run at).
    pub fn column_cfg(&self) -> ColumnSgdConfig {
        ColumnSgdConfig::new(self.model)
            .with_batch_size(BATCH)
            .with_iterations(self.iterations)
            .with_seed(self.seed)
            .with_threads_per_worker(POOL_WIDTH)
    }
}

/// Measurements of one job.
#[derive(Debug, Clone)]
pub struct Job {
    pub iterations: u64,
    pub setup_s: f64,
    pub train_s: f64,
    pub collect_s: f64,
    /// Process + reaped-children CPU over the whole job, drop included.
    pub cpu_s: f64,
    /// `VmHWM` of this process over the job (TCP workers excluded).
    pub peak_rss_mb: f64,
    /// Share of host CPU time the hypervisor stole during the job.
    pub steal_share: f64,
    /// Mean batch loss over the last tenth of the iterations.
    pub final_loss: f64,
    /// Hash of the bits of every batch loss, in iteration order.
    pub curve_hash: u64,
    /// Metered `TrafficStats` deltas over `train()`.
    pub wire_bytes: u64,
    pub wire_msgs: u64,
    pub recoveries: usize,
    /// The engine's load report: (objects, bytes).
    pub load: (u64, u64),
    /// The engine's telemetry events (empty unless traced).
    pub events: Vec<Event>,
}

/// The generated input's shape, for the run facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub rows: usize,
    pub dim: u64,
    pub nnz: usize,
}

impl Shape {
    pub fn of(data: &Dataset) -> Shape {
        Shape {
            rows: data.len(),
            dim: data.dimension(),
            nnz: data.total_nnz(),
        }
    }
}

impl Job {
    /// Samples trained: B × iterations.
    pub fn samples(&self) -> f64 {
        (BATCH as u64 * self.iterations) as f64
    }

    /// One line of `key=value` pairs carrying a job (without its load
    /// report and events), the input shape, and whether the job was timed
    /// from a job process to the run that started it. Floats print in
    /// their shortest round-trip form, so every bit survives.
    pub fn to_line(&self, shape: Shape, timed: bool) -> String {
        format!(
            "job timed={} iterations={} setup_s={} train_s={} collect_s={} cpu_s={} \
             peak_rss_mb={} steal_share={} final_loss={} curve_hash={} wire_bytes={} \
             wire_msgs={} recoveries={} rows={} dim={} nnz={}",
            u8::from(timed),
            self.iterations,
            self.setup_s,
            self.train_s,
            self.collect_s,
            self.cpu_s,
            self.peak_rss_mb,
            self.steal_share,
            self.final_loss,
            self.curve_hash,
            self.wire_bytes,
            self.wire_msgs,
            self.recoveries,
            shape.rows,
            shape.dim,
            shape.nnz,
        )
    }

    /// Parses a line written by [`Job::to_line`].
    pub fn from_line(line: &str) -> Result<(Job, Shape, bool), String> {
        let body = line
            .strip_prefix("job ")
            .ok_or_else(|| format!("not a job line: {line:?}"))?;
        let fields: HashMap<&str, &str> = body
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .collect();
        fn get<T: FromStr>(f: &HashMap<&str, &str>, key: &str) -> Result<T, String> {
            f.get(key)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("job line lacks a valid {key}"))
        }
        let job = Job {
            iterations: get(&fields, "iterations")?,
            setup_s: get(&fields, "setup_s")?,
            train_s: get(&fields, "train_s")?,
            collect_s: get(&fields, "collect_s")?,
            cpu_s: get(&fields, "cpu_s")?,
            peak_rss_mb: get(&fields, "peak_rss_mb")?,
            steal_share: get(&fields, "steal_share")?,
            final_loss: get(&fields, "final_loss")?,
            curve_hash: get(&fields, "curve_hash")?,
            wire_bytes: get(&fields, "wire_bytes")?,
            wire_msgs: get(&fields, "wire_msgs")?,
            recoveries: get(&fields, "recoveries")?,
            load: (0, 0),
            events: Vec::new(),
        };
        let shape = Shape {
            rows: get(&fields, "rows")?,
            dim: get(&fields, "dim")?,
            nnz: get(&fields, "nnz")?,
        };
        let timed = get::<u8>(&fields, "timed")? == 1;
        Ok((job, shape, timed))
    }
}

enum Trainer {
    Column(ColumnSgdEngine),
    Row(RowSgdEngine),
}

impl Trainer {
    fn build(spec: &JobSpec, data: &Dataset, recorder: Recorder) -> Result<Trainer, TrainError> {
        let mut cluster = ClusterConfig {
            transport: spec.transport,
            worker_bin: None,
        };
        if let Some(bin) = &spec.worker_bin {
            cluster = cluster.with_worker_bin(bin.clone());
        }
        let net = NetworkModel::CLUSTER1;
        Ok(match spec.engine {
            EngineKind::Column => Trainer::Column(ColumnSgdEngine::new_clustered(
                data,
                WORKERS,
                spec.column_cfg(),
                net,
                FailurePlan::none(),
                recorder,
                &cluster,
            )?),
            EngineKind::RowPsSparse => {
                let cfg = RowSgdConfig::new(spec.model, RowSgdVariant::PsSparse)
                    .with_batch_size(BATCH)
                    .with_iterations(spec.iterations)
                    .with_seed(spec.seed);
                Trainer::Row(RowSgdEngine::new_clustered(
                    data, WORKERS, cfg, net, recorder, &cluster,
                )?)
            }
        })
    }

    /// Trains; returns the batch-loss curve and the recovery count.
    fn train(&mut self) -> Result<(Vec<f64>, usize), TrainError> {
        let (curve, recoveries) = match self {
            Trainer::Column(e) => {
                let out = e.train()?;
                (out.curve, out.recovery.len())
            }
            Trainer::Row(e) => (e.train()?.curve, 0),
        };
        Ok((curve.points.iter().map(|p| p.loss).collect(), recoveries))
    }

    fn collect(&mut self) -> Result<ParamSet, TrainError> {
        match self {
            Trainer::Column(e) => e.collect_model(),
            Trainer::Row(e) => e.collect_model(),
        }
    }

    fn traffic_total(&self) -> (u64, u64) {
        let t = match self {
            Trainer::Column(e) => e.traffic().total(),
            Trainer::Row(e) => e.traffic().total(),
        };
        (t.bytes, t.messages)
    }

    fn load(&self) -> (u64, u64) {
        match self {
            Trainer::Column(e) => (e.load_report().objects, e.load_report().bytes),
            Trainer::Row(e) => (e.load_report().objects, e.load_report().bytes),
        }
    }

    fn events(&self) -> Vec<Event> {
        match self {
            Trainer::Column(e) => e.recorder().events(),
            Trainer::Row(e) => e.recorder().events(),
        }
    }
}

/// Resolves the `columnsgd-worker` binary next to this executable. There
/// is no fallback: a TCP workload without it must fail, not quietly run
/// in-process.
pub fn worker_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = me
        .parent()
        .ok_or("current_exe has no parent directory")?
        .join("columnsgd-worker");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "columnsgd-worker not found at {} (build it with the benchmark)",
            bin.display()
        ))
    }
}

fn expect_children(n: usize, when: &str, bin: Option<&Path>) -> Result<(), String> {
    let kids = sys::child_pids();
    if kids.len() == n {
        return Ok(());
    }
    Err(format!(
        "{when}: expected {n} child processes ({}), found {kids:?}",
        bin.map_or("none".to_string(), |b| b.display().to_string())
    ))
}

/// Runs one job: set up, train, collect, drop. Checks the transport's
/// process shape before and after, the collected model's size and
/// finiteness, and that the loss is finite and fell.
pub fn run_job(spec: &JobSpec, data: &Dataset, traced: bool) -> Result<Job, String> {
    let tcp = spec.transport == TransportKind::Tcp;
    if tcp && spec.worker_bin.is_none() {
        return Err("the TCP transport needs the columnsgd-worker binary".to_string());
    }
    let bin = spec.worker_bin.as_deref();
    expect_children(0, "before set-up", bin)?;
    // The peak covers this job only: set-up, training and collection
    // over the resident input.
    sys::reset_peak_rss()?;
    let host0 = sys::host_ticks()?;
    let cpu0 = sys::cpu_s()?;
    let recorder = if traced {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let t0 = Instant::now();
    let mut trainer = Trainer::build(spec, data, recorder).map_err(|e| format!("set-up: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    expect_children(if tcp { WORKERS } else { 0 }, "after set-up", bin)?;

    let (bytes0, msgs0) = trainer.traffic_total();
    let t1 = Instant::now();
    let (losses, recoveries) = trainer.train().map_err(|e| format!("train: {e}"))?;
    let train_s = t1.elapsed().as_secs_f64();
    let (bytes1, msgs1) = trainer.traffic_total();

    let t2 = Instant::now();
    let model = trainer.collect().map_err(|e| format!("collect: {e}"))?;
    let collect_s = t2.elapsed().as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mb()?;

    let load = trainer.load();
    let events = trainer.events();
    drop(trainer);
    let cpu_s = sys::cpu_s()? - cpu0;
    let steal_share = sys::steal_share_since(host0)?;
    expect_children(0, "after the engine dropped", bin)?;

    check_model(spec.model, data.dimension(), &model)?;
    let (final_loss, curve_hash) = check_losses(&losses, spec.iterations)?;
    Ok(Job {
        iterations: spec.iterations,
        setup_s,
        train_s,
        collect_s,
        cpu_s,
        peak_rss_mb,
        steal_share,
        final_loss,
        curve_hash,
        wire_bytes: bytes1 - bytes0,
        wire_msgs: msgs1 - msgs0,
        recoveries,
        load,
        events,
    })
}

fn check_model(model: ModelSpec, dim: u64, params: &ParamSet) -> Result<(), String> {
    let want = model.num_params(dim);
    if params.num_params() as u64 != want {
        return Err(format!(
            "collected {} parameters, the model has {want}",
            params.num_params()
        ));
    }
    if !params
        .blocks
        .iter()
        .all(|b| b.as_slice().iter().all(|v| v.is_finite()))
    {
        return Err("collected model has non-finite parameters".to_string());
    }
    Ok(())
}

/// Checks one loss per iteration, all finite, and that the mean of the
/// last tenth is below the mean of the first tenth. Returns that last
/// tenth's mean and a hash of every loss's bits.
fn check_losses(losses: &[f64], iterations: u64) -> Result<(f64, u64), String> {
    if losses.len() as u64 != iterations {
        return Err(format!(
            "{} losses for {iterations} iterations",
            losses.len()
        ));
    }
    if !losses.iter().all(|l| l.is_finite()) {
        return Err("non-finite batch loss".to_string());
    }
    let tenth = (losses.len() / 10).max(1);
    let head = crate::stats::mean(&losses[..tenth]);
    let tail = crate::stats::mean(&losses[losses.len() - tenth..]);
    if tail >= head {
        return Err(format!(
            "loss did not fall: first tenth {head}, last {tail}"
        ));
    }
    let hash = losses
        .iter()
        .fold(fnv::OFFSET, |h, l| fnv::mix(h, l.to_bits()));
    Ok((tail, hash))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(d: &Dataset) -> Vec<u64> {
        d.iter()
            .flat_map(|(y, x)| {
                std::iter::once(y.to_bits())
                    .chain(x.indices().iter().copied())
                    .chain(x.values().iter().map(|v| v.to_bits()))
            })
            .collect()
    }

    #[test]
    fn generator_is_deterministic_for_a_seed() {
        for w in Workload::ALL {
            let a = generate(w, 300, 7);
            let b = generate(w, 300, 7);
            let c = generate(w, 300, 8);
            assert_eq!(a.dimension(), b.dimension());
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", w.name());
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", w.name());
        }
    }

    #[test]
    fn job_lines_round_trip_every_bit() {
        let job = Job {
            iterations: 250,
            setup_s: 0.1 + 0.2,
            train_s: 1.0 / 3.0,
            collect_s: 1e-9,
            cpu_s: 2.5,
            peak_rss_mb: 398.171875,
            steal_share: 0.125,
            final_loss: std::f64::consts::LN_2,
            curve_hash: u64::MAX - 1,
            wire_bytes: 72_118_500,
            wire_msgs: 2000,
            recoveries: 0,
            load: (0, 0),
            events: Vec::new(),
        };
        let shape = Shape {
            rows: 200_000,
            dim: 597_802,
            nnz: 5_264_960,
        };
        let (back, back_shape, timed) = Job::from_line(&job.to_line(shape, true)).unwrap();
        assert_eq!(back_shape, shape);
        assert!(timed);
        assert!(!Job::from_line(&job.to_line(shape, false)).unwrap().2);
        assert_eq!(back.setup_s.to_bits(), job.setup_s.to_bits());
        assert_eq!(back.train_s.to_bits(), job.train_s.to_bits());
        assert_eq!(back.final_loss.to_bits(), job.final_loss.to_bits());
        assert_eq!(back.curve_hash, job.curve_hash);
        assert_eq!(back.wire_bytes, job.wire_bytes);
        assert!(Job::from_line("job iterations=1").is_err());
        assert!(Job::from_line("nonsense").is_err());
    }

    #[test]
    fn workloads_have_the_stated_shapes() {
        let kdd12 = generate(Workload::LrInproc, 1, 1).dimension();
        let kddb = generate(Workload::FmTcp, 1, 1).dimension();
        assert!((1_000_000..1_200_000).contains(&kdd12), "{kdd12}");
        assert!((550_000..650_000).contains(&kddb), "{kddb}");
        assert_eq!(Workload::FmTcp.model().stats_width(), 9);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
