//! Worker hosting for the RowSGD baselines: in-process threads or one OS
//! process per worker over loopback TCP.
//!
//! Mirrors `columnsgd_core::host` (and reuses its bootstrap codecs and
//! process plumbing), minus the respawn machinery: RowSGD is the baseline,
//! it detects faults but never recovers, so a host here only spawns and
//! shuts down.

use std::path::PathBuf;
use std::process::Child;
use std::thread::JoinHandle;

use columnsgd_cluster::codec::{put_f64, put_str, put_u64, put_u8, put_usize};
use columnsgd_cluster::{CodecError, TcpHub, WireReader};
use columnsgd_core::host::{
    hex_armor, hex_dearmor, put_model, put_optimizer, put_regularizer, read_model, read_optimizer,
    read_regularizer,
};
use columnsgd_ml::UpdateParams;

use crate::config::{RowSgdConfig, RowSgdVariant};
use crate::msg::RowMsg;

pub use columnsgd_core::host::{locate_worker_bin, spawn_boot_process};

/// Everything a `rowsgd-worker` process needs to join the run, shipped as
/// one hex line on the child's stdin (same armor as the ColumnSGD
/// bootstrap; the workspace has no serialization framework, so this is
/// hand-encoded).
#[derive(Debug, Clone)]
pub struct RowBootSpec {
    /// The hub's loopback address, `ip:port`.
    pub addr: String,
    /// This worker's id.
    pub worker: usize,
    /// Total number of workers.
    pub k: usize,
    /// Feature dimension of the dataset.
    pub dim: u64,
    /// The training configuration (identical on every node).
    pub cfg: RowSgdConfig,
}

const BOOT_VERSION: u8 = 1;

fn put_variant(out: &mut Vec<u8>, v: RowSgdVariant) {
    put_u8(
        out,
        match v {
            RowSgdVariant::MLlib => 0,
            RowSgdVariant::MLlibStar => 1,
            RowSgdVariant::PsDense => 2,
            RowSgdVariant::PsSparse => 3,
        },
    );
}

fn read_variant(r: &mut WireReader<'_>) -> Result<RowSgdVariant, CodecError> {
    Ok(match r.u8("variant tag")? {
        0 => RowSgdVariant::MLlib,
        1 => RowSgdVariant::MLlibStar,
        2 => RowSgdVariant::PsDense,
        3 => RowSgdVariant::PsSparse,
        t => return Err(CodecError::Malformed(format!("unknown variant tag {t}"))),
    })
}

impl RowBootSpec {
    /// Binary form: version byte, then fields in declaration order.
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
        put_variant(&mut out, cfg.variant);
        put_usize(&mut out, cfg.servers);
        put_f64(&mut out, cfg.ps_scheduling_s);
        put_f64(&mut out, cfg.ps_per_key_s);
        put_u64(&mut out, cfg.deadline_ms);
        out
    }

    /// Decodes a bootstrap serialized by [`RowBootSpec::encode`].
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
        let cfg = RowSgdConfig {
            model: read_model(&mut r)?,
            batch_size: r.usize("batch_size")?,
            iterations: r.u64("iterations")?,
            update: UpdateParams {
                learning_rate: r.f64("learning_rate")?,
                regularizer: read_regularizer(&mut r)?,
            },
            optimizer: read_optimizer(&mut r)?,
            seed: r.u64("seed")?,
            variant: read_variant(&mut r)?,
            servers: r.usize("servers")?,
            ps_scheduling_s: r.f64("ps_scheduling_s")?,
            ps_per_key_s: r.f64("ps_per_key_s")?,
            deadline_ms: r.u64("deadline_ms")?,
        };
        r.finish("bootstrap")?;
        Ok(RowBootSpec {
            addr,
            worker,
            k,
            dim,
            cfg,
        })
    }

    /// Hex-armored single-line form, as written to the child's stdin.
    pub fn to_hex_line(&self) -> String {
        hex_armor(&self.encode())
    }

    /// Parses the hex line produced by [`RowBootSpec::to_hex_line`].
    pub fn from_hex_line(line: &str) -> Result<Self, CodecError> {
        Self::decode(&hex_dearmor(line)?)
    }
}

/// Where the baseline's workers live. No respawn path: RowSGD surfaces
/// faults as typed errors instead of recovering.
pub enum RowHost {
    /// Plain threads over in-process channels.
    Threads(Vec<JoinHandle<()>>),
    /// One OS process per worker over loopback TCP.
    Processes {
        /// The master-side hub the children connect to.
        hub: TcpHub<RowMsg>,
        /// One child process per worker.
        children: Vec<Child>,
    },
}

impl RowHost {
    /// Tears the host down. The caller has already sent `Shutdown` to
    /// every worker; this joins threads or severs sockets and reaps
    /// children.
    pub fn shutdown(&mut self) {
        match self {
            RowHost::Threads(handles) => {
                for h in handles.drain(..) {
                    let _ = h.join();
                }
            }
            RowHost::Processes { hub, children } => {
                // Shutdown messages are already in the kernel buffers;
                // severing the sockets after them gives each child
                // Shutdown-then-EOF, either of which ends its loop.
                hub.shutdown();
                for mut c in children.drain(..) {
                    let _ = c.wait();
                }
            }
        }
    }
}

/// Default path of the `rowsgd-worker` binary (sibling of the running
/// executable).
pub fn default_worker_bin() -> Result<PathBuf, String> {
    locate_worker_bin("rowsgd-worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_ml::{ModelSpec, OptimizerKind, Regularizer};

    #[test]
    fn bootstrap_roundtrips_through_the_hex_line() {
        let mut cfg = RowSgdConfig::new(ModelSpec::Mlr { classes: 3 }, RowSgdVariant::PsSparse)
            .with_batch_size(64)
            .with_iterations(12)
            .with_learning_rate(0.05)
            .with_seed(77)
            .with_deadline_ms(1234);
        cfg.update.regularizer = Regularizer::L2(0.01);
        cfg.optimizer = OptimizerKind::AdaGrad { eps: 1e-8 };
        cfg.servers = 2;
        let boot = RowBootSpec {
            addr: "127.0.0.1:40123".to_string(),
            worker: 1,
            k: 4,
            dim: 100,
            cfg,
        };
        let back = RowBootSpec::from_hex_line(&boot.to_hex_line()).expect("roundtrip");
        assert_eq!(back.addr, boot.addr);
        assert_eq!(back.worker, boot.worker);
        assert_eq!(back.k, boot.k);
        assert_eq!(back.dim, boot.dim);
        assert_eq!(back.cfg, boot.cfg);
    }

    #[test]
    fn bootstrap_rejects_corruption() {
        let boot = RowBootSpec {
            addr: "127.0.0.1:1".to_string(),
            worker: 0,
            k: 1,
            dim: 4,
            cfg: RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib),
        };
        let line = boot.to_hex_line();
        assert!(RowBootSpec::from_hex_line(&line[..line.len() - 1]).is_err());
        assert!(RowBootSpec::from_hex_line("zz").is_err());
        let mut bad = line.clone();
        bad.replace_range(0..2, "07");
        assert!(RowBootSpec::from_hex_line(&bad).is_err());
        assert!(RowBootSpec::from_hex_line(&format!("{line}00")).is_err());
    }
}
