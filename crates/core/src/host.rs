//! Worker hosting: threads in this process, or one OS process per worker.
//!
//! The engine is agnostic to where its workers run. [`WorkerHost`] hides
//! the difference between the two backends selected by
//! [`ClusterConfig`](columnsgd_cluster::ClusterConfig):
//!
//! * **Threads** (`TransportKind::InProc`): workers are guarded threads
//!   sharing the master's [`Router`] over in-process channels — the
//!   original single-process runtime.
//! * **Processes** (`TransportKind::Tcp`): workers are child processes
//!   running the `columnsgd-worker` binary, connected to the master's
//!   [`TcpHub`] over loopback TCP with length-prefixed frames.
//!
//! Both backends meter at the same site ([`Router::send`] /
//! [`Router::ingress`]), so `TrafficStats` and telemetry reconcile by
//! construction regardless of where the workers live.
//!
//! # Bootstrap wire format
//!
//! The workspace carries no serialization framework, so the worker
//! bootstrap is hand-encoded with the same primitives as the message codec
//! ([`columnsgd_cluster::codec`]): a [`BootSpec`] is serialized to bytes,
//! hex-armored, and written as a single line on the child's stdin. Hex
//! keeps the channel line-oriented and immune to platform newline
//! translation; bootstrap happens once per process, so the 2x size is
//! irrelevant.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use columnsgd_cluster::codec::{put_bool, put_f64, put_str, put_u64, put_u64s, put_u8, put_usize};
use columnsgd_cluster::{
    spawn_guarded, ChaosSpec, CodecError, Endpoint, FailurePlan, NodeId, Recorder, Router, TcpHub,
    WireReader,
};
use columnsgd_ml::{ModelSpec, OptimizerKind, Regularizer, UpdateParams};

use crate::config::{ColumnSgdConfig, PartitionScheme, StaleStats};
use crate::error::TrainError;
use crate::msg::ColMsg;
use crate::worker::{run_worker, WorkerScript};

/// Everything a worker process needs to join a training run: where the
/// hub listens, who the worker is, and the full (deterministic) config.
#[derive(Debug, Clone)]
pub struct BootSpec {
    /// `host:port` of the master's [`TcpHub`].
    pub addr: String,
    /// This worker's index in `0..k`.
    pub worker: usize,
    /// Cluster size K.
    pub k: usize,
    /// Model dimension d.
    pub dim: u64,
    /// The training configuration (identical on every node).
    pub cfg: ColumnSgdConfig,
    /// This worker's scripted-failure schedule.
    pub script: WorkerScript,
    /// Whether the master is recording a trace: when set, the worker
    /// ships its local telemetry events back over the hub connection.
    /// The worker installs a live [`Recorder`] either way so its
    /// NaN/divergence guards still fire (the events just stay local).
    pub traced: bool,
}

const BOOT_VERSION: u8 = 2;

/// Encodes a [`ModelSpec`] (tag + payload, variant-declaration order).
pub fn put_model(out: &mut Vec<u8>, m: &ModelSpec) {
    match m {
        ModelSpec::Lr => put_u8(out, 0),
        ModelSpec::Svm => put_u8(out, 1),
        ModelSpec::LeastSquares => put_u8(out, 2),
        ModelSpec::Mlr { classes } => {
            put_u8(out, 3);
            put_usize(out, *classes);
        }
        ModelSpec::Fm { factors } => {
            put_u8(out, 4);
            put_usize(out, *factors);
        }
    }
}

/// Decodes a [`ModelSpec`] written by [`put_model`].
pub fn read_model(r: &mut WireReader<'_>) -> Result<ModelSpec, CodecError> {
    Ok(match r.u8("model tag")? {
        0 => ModelSpec::Lr,
        1 => ModelSpec::Svm,
        2 => ModelSpec::LeastSquares,
        3 => ModelSpec::Mlr {
            classes: r.usize("mlr classes")?,
        },
        4 => ModelSpec::Fm {
            factors: r.usize("fm factors")?,
        },
        t => return Err(CodecError::Malformed(format!("unknown model tag {t}"))),
    })
}

/// Encodes an [`OptimizerKind`] (tag + payload).
pub fn put_optimizer(out: &mut Vec<u8>, o: &OptimizerKind) {
    match o {
        OptimizerKind::Sgd => put_u8(out, 0),
        OptimizerKind::AdaGrad { eps } => {
            put_u8(out, 1);
            put_f64(out, *eps);
        }
        OptimizerKind::Adam { beta1, beta2, eps } => {
            put_u8(out, 2);
            put_f64(out, *beta1);
            put_f64(out, *beta2);
            put_f64(out, *eps);
        }
    }
}

/// Decodes an [`OptimizerKind`] written by [`put_optimizer`].
pub fn read_optimizer(r: &mut WireReader<'_>) -> Result<OptimizerKind, CodecError> {
    Ok(match r.u8("optimizer tag")? {
        0 => OptimizerKind::Sgd,
        1 => OptimizerKind::AdaGrad {
            eps: r.f64("adagrad eps")?,
        },
        2 => OptimizerKind::Adam {
            beta1: r.f64("adam beta1")?,
            beta2: r.f64("adam beta2")?,
            eps: r.f64("adam eps")?,
        },
        t => return Err(CodecError::Malformed(format!("unknown optimizer tag {t}"))),
    })
}

/// Encodes a [`Regularizer`] (tag + payload).
pub fn put_regularizer(out: &mut Vec<u8>, reg: &Regularizer) {
    match reg {
        Regularizer::None => put_u8(out, 0),
        Regularizer::L2(l) => {
            put_u8(out, 1);
            put_f64(out, *l);
        }
        Regularizer::L1(l) => {
            put_u8(out, 2);
            put_f64(out, *l);
        }
    }
}

/// Decodes a [`Regularizer`] written by [`put_regularizer`].
pub fn read_regularizer(r: &mut WireReader<'_>) -> Result<Regularizer, CodecError> {
    Ok(match r.u8("regularizer tag")? {
        0 => Regularizer::None,
        1 => Regularizer::L2(r.f64("l2 lambda")?),
        2 => Regularizer::L1(r.f64("l1 lambda")?),
        t => {
            return Err(CodecError::Malformed(format!(
                "unknown regularizer tag {t}"
            )))
        }
    })
}

/// Encodes an optional [`ChaosSpec`] (presence tag + fields).
pub fn put_chaos(out: &mut Vec<u8>, c: &Option<ChaosSpec>) {
    match c {
        None => put_u8(out, 0),
        Some(c) => {
            put_u8(out, 1);
            put_u64(out, c.seed);
            put_f64(out, c.drop_p);
            put_f64(out, c.dup_p);
            put_f64(out, c.delay_p);
            put_f64(out, c.crash_p);
        }
    }
}

/// Decodes an optional [`ChaosSpec`] written by [`put_chaos`].
pub fn read_chaos(r: &mut WireReader<'_>) -> Result<Option<ChaosSpec>, CodecError> {
    Ok(match r.u8("chaos tag")? {
        0 => None,
        1 => Some(ChaosSpec {
            seed: r.u64("chaos seed")?,
            drop_p: r.f64("chaos drop_p")?,
            dup_p: r.f64("chaos dup_p")?,
            delay_p: r.f64("chaos delay_p")?,
            crash_p: r.f64("chaos crash_p")?,
        }),
        t => return Err(CodecError::Malformed(format!("unknown chaos tag {t}"))),
    })
}

impl BootSpec {
    /// Serializes the bootstrap to bytes (field order is the struct
    /// declaration order; enums are `u8` tags in variant order).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u8(&mut out, BOOT_VERSION);
        put_str(&mut out, &self.addr);
        put_usize(&mut out, self.worker);
        put_usize(&mut out, self.k);
        put_u64(&mut out, self.dim);
        let cfg = &self.cfg;
        put_model(&mut out, &cfg.model);
        put_usize(&mut out, cfg.batch_size);
        put_u64(&mut out, cfg.iterations);
        put_f64(&mut out, cfg.update.learning_rate);
        put_regularizer(&mut out, &cfg.update.regularizer);
        put_optimizer(&mut out, &cfg.optimizer);
        put_u64(&mut out, cfg.seed);
        put_usize(&mut out, cfg.block_size);
        put_usize(&mut out, cfg.backup_s);
        put_u8(
            &mut out,
            match cfg.scheme {
                PartitionScheme::RoundRobin => 0,
                PartitionScheme::Range => 1,
            },
        );
        put_u64(&mut out, cfg.max_task_retries);
        put_u64(&mut out, cfg.deadline_ms);
        put_u8(
            &mut out,
            match cfg.staleness {
                None => 0,
                Some(StaleStats::Drop) => 1,
                Some(StaleStats::DropRescaled) => 2,
            },
        );
        put_usize(&mut out, cfg.threads_per_worker);
        put_u64s(&mut out, &self.script.task_failures);
        put_u64s(&mut out, &self.script.crashes);
        put_chaos(&mut out, &self.script.chaos);
        put_bool(&mut out, self.traced);
        out
    }

    /// Decodes a bootstrap serialized by [`BootSpec::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(buf);
        let v = r.u8("boot version")?;
        if v != BOOT_VERSION {
            return Err(CodecError::Malformed(format!(
                "bootstrap version {v}, expected {BOOT_VERSION}"
            )));
        }
        let addr = r.str("hub addr")?;
        let worker = r.usize("worker id")?;
        let k = r.usize("cluster size")?;
        let dim = r.u64("dimension")?;
        let cfg = ColumnSgdConfig {
            model: read_model(&mut r)?,
            batch_size: r.usize("batch_size")?,
            iterations: r.u64("iterations")?,
            update: UpdateParams {
                learning_rate: r.f64("learning_rate")?,
                regularizer: read_regularizer(&mut r)?,
            },
            optimizer: read_optimizer(&mut r)?,
            seed: r.u64("seed")?,
            block_size: r.usize("block_size")?,
            backup_s: r.usize("backup_s")?,
            scheme: match r.u8("scheme tag")? {
                0 => PartitionScheme::RoundRobin,
                1 => PartitionScheme::Range,
                t => return Err(CodecError::Malformed(format!("unknown scheme tag {t}"))),
            },
            max_task_retries: r.u64("max_task_retries")?,
            deadline_ms: r.u64("deadline_ms")?,
            staleness: match r.u8("staleness tag")? {
                0 => None,
                1 => Some(StaleStats::Drop),
                2 => Some(StaleStats::DropRescaled),
                t => return Err(CodecError::Malformed(format!("unknown staleness tag {t}"))),
            },
            threads_per_worker: r.usize("threads_per_worker")?,
        };
        let script = WorkerScript {
            task_failures: r.u64s("task_failures")?,
            crashes: r.u64s("crashes")?,
            chaos: read_chaos(&mut r)?,
        };
        let traced = r.bool("traced")?;
        r.finish("bootstrap")?;
        Ok(BootSpec {
            addr,
            worker,
            k,
            dim,
            cfg,
            script,
            traced,
        })
    }

    /// Hex-armored single-line form, as written to the child's stdin.
    pub fn to_hex_line(&self) -> String {
        hex_armor(&self.encode())
    }

    /// Parses the hex line produced by [`BootSpec::to_hex_line`].
    pub fn from_hex_line(line: &str) -> Result<Self, CodecError> {
        Self::decode(&hex_dearmor(line)?)
    }
}

/// Hex-armors `bytes` into a single newline-free line (the bootstrap
/// stdin format shared by all worker binaries).
pub fn hex_armor(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + 1);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_armor`]; rejects odd lengths and non-hex bytes.
pub fn hex_dearmor(line: &str) -> Result<Vec<u8>, CodecError> {
    let line = line.trim();
    if !line.len().is_multiple_of(2) {
        return Err(CodecError::Malformed("bootstrap hex has odd length".into()));
    }
    let mut bytes = Vec::with_capacity(line.len() / 2);
    for i in (0..line.len()).step_by(2) {
        let pair = &line[i..i + 2];
        let b = u8::from_str_radix(pair, 16).map_err(|_| {
            CodecError::Malformed(format!("bootstrap hex byte {pair:?} is not hex"))
        })?;
        bytes.push(b);
    }
    Ok(bytes)
}

/// Finds a workspace worker binary named `name` next to the currently
/// running executable (Cargo places all workspace binaries in the same
/// `target/<profile>/` directory; test binaries live one level deeper).
pub fn locate_worker_bin(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "current_exe has no parent directory".to_string())?;
    for dir in [dir, dir.parent().unwrap_or(dir)] {
        let candidate = dir.join(name);
        if candidate.is_file() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "{name} binary not found next to {} — build it \
         (`cargo build --bin {name}`) or set ClusterConfig::worker_bin",
        me.display()
    ))
}

/// Where the engine's workers live, and how to (re)start one.
pub enum WorkerHost {
    /// Guarded threads over in-process channels.
    Threads {
        /// One join handle per worker (`None` once joined).
        handles: Vec<Option<JoinHandle<()>>>,
    },
    /// One OS process per worker over loopback TCP.
    Processes {
        /// The master-side hub the children connect to.
        hub: TcpHub<ColMsg>,
        /// One child process per worker (`None` once reaped).
        children: Vec<Option<Child>>,
        /// Path to the `columnsgd-worker` binary for respawns.
        worker_bin: PathBuf,
    },
}

/// Spawns worker `w` as a child process of `worker_bin`, feeding the
/// bootstrap over stdin. The child inherits stderr so panics are visible.
pub fn spawn_worker_process(worker_bin: &PathBuf, boot: &BootSpec) -> Result<Child, String> {
    spawn_boot_process(worker_bin, &boot.to_hex_line())
}

/// Spawns `worker_bin` and feeds it one hex-armored bootstrap line over
/// stdin (the generic half of [`spawn_worker_process`], shared with the
/// RowSGD baseline's worker binary).
pub fn spawn_boot_process(worker_bin: &PathBuf, line: &str) -> Result<Child, String> {
    let mut child = Command::new(worker_bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", worker_bin.display()))?;
    let mut stdin = child
        .stdin
        .take()
        .ok_or_else(|| "child stdin missing despite piped spawn".to_string())?;
    writeln!(stdin, "{line}").map_err(|e| format!("write bootstrap: {e}"))?;
    // Dropping stdin closes the pipe; the worker reads exactly one line.
    Ok(child)
}

impl WorkerHost {
    /// Restarts worker `w` at iteration `t` after a crash.
    ///
    /// Reregistration happens on the shared [`Router`] in both backends so
    /// abandoned queued messages are drained and metered as drops at the
    /// same site. Threads get a fresh endpoint + guarded thread; processes
    /// get a fresh child that must reconnect to the hub within `deadline`.
    #[expect(
        clippy::too_many_arguments,
        reason = "a respawn carries the full worker bootstrap"
    )]
    pub fn respawn(
        &mut self,
        router: &Router<ColMsg>,
        t: u64,
        w: usize,
        k: usize,
        dim: u64,
        cfg: &ColumnSgdConfig,
        plan: &FailurePlan,
        deadline: Duration,
    ) -> Result<(), TrainError> {
        let ep = router.reregister(NodeId::Worker(w), t);
        match self {
            WorkerHost::Threads { handles } => {
                let Some(ep) = ep else {
                    return Err(TrainError::Internal(
                        "thread-hosted worker lost its local mailbox on reregister".to_string(),
                    ));
                };
                if let Some(h) = handles[w].take() {
                    let _ = h.join();
                }
                handles[w] = Some(spawn_worker_thread(
                    ep,
                    w,
                    k,
                    dim,
                    *cfg,
                    plan,
                    router.recorder().clone(),
                ));
                Ok(())
            }
            WorkerHost::Processes {
                hub,
                children,
                worker_bin,
            } => {
                debug_assert!(ep.is_none(), "TCP workers are not hub-local");
                if let Some(mut c) = children[w].take() {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                let boot = BootSpec {
                    addr: hub.addr().to_string(),
                    worker: w,
                    k,
                    dim,
                    cfg: *cfg,
                    script: WorkerScript::from_plan(plan, w),
                    traced: router.recorder().is_enabled(),
                };
                let child = spawn_worker_process(worker_bin, &boot).map_err(|detail| {
                    TrainError::WorkerLost {
                        worker: w,
                        iteration: t,
                        detail,
                    }
                })?;
                children[w] = Some(child);
                hub.await_workers(&[NodeId::Worker(w)], deadline)
                    .map_err(|detail| TrainError::WorkerLost {
                        worker: w,
                        iteration: t,
                        detail,
                    })
            }
        }
    }

    /// Tears the backend down after Shutdown messages have been sent:
    /// joins threads, or severs hub connections and reaps children.
    pub fn shutdown(&mut self) {
        match self {
            WorkerHost::Threads { handles } => {
                for h in handles.iter_mut() {
                    if let Some(h) = h.take() {
                        let _ = h.join();
                    }
                }
            }
            WorkerHost::Processes { hub, children, .. } => {
                hub.shutdown();
                for c in children.iter_mut() {
                    if let Some(mut c) = c.take() {
                        let _ = c.wait();
                    }
                }
            }
        }
    }
}

/// Spawns worker `w` as a guarded thread on endpoint `ep` (the in-process
/// backend). Panics unwind into a [`ColMsg::WorkerPanic`] to the master.
///
/// The thread shares the master's `recorder`, so worker-side kernel and
/// guard records land directly in the merged trace with no shipping.
pub fn spawn_worker_thread(
    ep: Endpoint<ColMsg>,
    w: usize,
    k: usize,
    dim: u64,
    cfg: ColumnSgdConfig,
    plan: &FailurePlan,
    recorder: Recorder,
) -> JoinHandle<()> {
    let script = WorkerScript::from_plan(plan, w);
    spawn_guarded(
        format!("colsgd-worker{w}"),
        ep,
        move |ep| run_worker(ep, w, k, dim, cfg, script, recorder, None),
        move |info| ColMsg::WorkerPanic { worker: w, info },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::FailureEvent;

    fn full_cfg() -> ColumnSgdConfig {
        ColumnSgdConfig {
            model: ModelSpec::Mlr { classes: 5 },
            batch_size: 37,
            iterations: 11,
            update: UpdateParams {
                learning_rate: 0.125,
                regularizer: Regularizer::L2(0.03125),
            },
            optimizer: OptimizerKind::Adam {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            seed: 0xDEAD_BEEF,
            block_size: 64,
            backup_s: 1,
            scheme: PartitionScheme::Range,
            max_task_retries: 3,
            deadline_ms: 1500,
            staleness: Some(StaleStats::DropRescaled),
            threads_per_worker: 2,
        }
    }

    #[test]
    fn bootstrap_roundtrips_through_the_hex_line() {
        let plan = FailurePlan {
            straggler: None,
            events: vec![
                FailureEvent::TaskFailure {
                    iteration: 2,
                    worker: 1,
                },
                FailureEvent::WorkerFailure {
                    iteration: 4,
                    worker: 1,
                },
            ],
            chaos: Some(ChaosSpec {
                seed: 7,
                drop_p: 0.1,
                dup_p: 0.0,
                delay_p: 0.25,
                crash_p: 0.0,
            }),
        };
        let boot = BootSpec {
            addr: "127.0.0.1:45123".into(),
            worker: 1,
            k: 4,
            dim: 1000,
            cfg: full_cfg(),
            script: WorkerScript::from_plan(&plan, 1),
            traced: true,
        };
        let back = BootSpec::from_hex_line(&boot.to_hex_line()).expect("roundtrip");
        assert_eq!(back.addr, boot.addr);
        assert_eq!(back.worker, 1);
        assert_eq!(back.k, 4);
        assert_eq!(back.dim, 1000);
        assert_eq!(back.cfg, boot.cfg);
        assert_eq!(back.script.task_failures, vec![2]);
        assert_eq!(back.script.crashes, vec![4]);
        assert_eq!(back.script.chaos, plan.chaos);
        assert!(back.traced);
    }

    #[test]
    fn bootstrap_rejects_corruption() {
        let boot = BootSpec {
            addr: "127.0.0.1:1".into(),
            worker: 0,
            k: 1,
            dim: 4,
            cfg: ColumnSgdConfig::new(ModelSpec::Lr),
            script: WorkerScript::default(),
            traced: false,
        };
        let mut line = boot.to_hex_line();
        line.pop();
        assert!(BootSpec::from_hex_line(&line).is_err());
        assert!(BootSpec::from_hex_line("zz00").is_err());
        let mut bytes = boot.encode();
        bytes[0] = 99; // bad version
        assert!(BootSpec::decode(&bytes).is_err());
        bytes[0] = BOOT_VERSION;
        bytes.push(0); // trailing garbage
        assert!(BootSpec::decode(&bytes).is_err());
    }
}
