//! Per-layer measurements: wall-clock spans the benchmark records around
//! its own calls into each layer's public functions, at the workload's
//! shape. Nothing here instruments the program itself; the engines'
//! phase rows come from their existing `Recorder` (see [`phase_ms`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use columnsgd::cluster::codec::{decode_body_checked, encode_envelope};
use columnsgd::cluster::telemetry::{Event, Phase, Plane};
use columnsgd::cluster::{
    Endpoint, NodeId, Recorder, Router, TcpClient, TcpHub, TrafficStats, TransportKind, WireCodec,
};
use columnsgd::core::msg::ColMsg;
use columnsgd::core::ColumnSgdConfig;
use columnsgd::data::block::Block;
use columnsgd::data::index::RowAddr;
use columnsgd::data::workset::split_block;
use columnsgd::data::{Dataset, TwoPhaseIndex, Workset};
use columnsgd::linalg::CsrMatrix;
use columnsgd::ml::{OptimizerKind, OptimizerState, UpdateParams, UpdateScratch};
use columnsgd::rowsgd::msg::RowMsg;

use crate::workload::{EngineKind, BATCH, WORKERS};

/// Durations by span name, in the unit the name ends with.
#[derive(Debug, Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    /// Times `f` and records the duration under `name`, in seconds times
    /// `scale` (1e6 for a `_us` name).
    pub fn time<R>(&mut self, name: &'static str, scale: f64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed().as_secs_f64() * scale;
        self.0.entry(name).or_default().push(d);
        r
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The row → column transform, timed layer by layer (median of
/// `reps`): `Dataset::into_block_queue`, then `split_block` of every
/// block with the engine's partitioner. Returns the blocks and the
/// last split's worksets, indexed `[block][worker]`.
pub fn transform(
    data: &Dataset,
    cfg: &ColumnSgdConfig,
    reps: usize,
    spans: &mut Spans,
) -> (Vec<Block>, Vec<Vec<Workset>>) {
    let part = cfg.partitioner(WORKERS, data.dimension());
    let mut blocks = Vec::new();
    let mut split = Vec::new();
    for _ in 0..reps {
        blocks = spans.time("data.block_queue_s", 1.0, || {
            data.into_block_queue(cfg.block_size)
                .iter()
                .cloned()
                .collect()
        });
        split = spans.time("data.column_split_s", 1.0, || {
            blocks
                .iter()
                .map(|b| split_block(b, &part))
                .collect::<Vec<_>>()
        });
    }
    (blocks, split)
}

/// One worker's superstep kernels in a loop, each call its own span:
/// batch sampling, batch CSR assembly, the statistics and update
/// kernels, and the codec on this workload's own per-iteration reply and
/// broadcast. Runs until `budget` is spent or `max_iters` are done.
/// Returns the bytes of one reply frame plus one broadcast frame.
#[allow(clippy::too_many_arguments)] // one workload's full shape
pub fn kernels(
    data: &Dataset,
    cfg: &ColumnSgdConfig,
    engine: EngineKind,
    blocks: &[Block],
    split: &[Vec<Workset>],
    budget: Duration,
    max_iters: u64,
    spans: &mut Spans,
) -> Result<usize, String> {
    let model = cfg.model;
    let dim = data.dimension();
    let part = cfg.partitioner(WORKERS, dim);
    let index = TwoPhaseIndex::new(blocks.iter().map(|b| (b.id(), b.nrows())), cfg.seed);
    let mine: Vec<&Workset> = split.iter().map(|ws| &ws[0]).collect();
    let mut params = model.init_params(part.local_dim(0, dim), cfg.seed, |slot| {
        part.global_index(0, slot)
    });
    let mut opt = OptimizerState::for_params(OptimizerKind::Sgd, &params);
    let mut scratch = UpdateScratch::new();
    let up = UpdateParams::plain(cfg.update.learning_rate);
    let mut row_params = None;
    let (mut addrs, mut batch, mut stats): (Vec<RowAddr>, _, _) =
        (Vec::new(), CsrMatrix::new(), Vec::new());
    let mut frame_bytes = 0;
    let start = Instant::now();
    let mut t = 0u64;
    while t < max_iters && (t < 10 || start.elapsed() < budget) {
        spans.time("data.sample_batch_us", 1e6, || {
            index.sample_batch_into(t, BATCH, &mut addrs)
        });
        spans.time("linalg.batch_build_us", 1e6, || {
            batch.clear();
            for a in &addrs {
                let ws = &mine[a.block as usize].data;
                let (idx, val) = ws.row(a.offset);
                batch.push_raw_row(ws.label(a.offset), idx, val);
            }
        });
        spans.time("ml.compute_stats_us", 1e6, || {
            model.compute_stats(&params, &batch, &mut stats)
        });
        // The update consumes this worker's partial as the aggregate:
        // its cost follows the batch shape, not the values.
        spans.time("ml.update_us", 1e6, || {
            model.update_from_stats_with(
                &mut params,
                &mut opt,
                &batch,
                &stats,
                &up,
                BATCH,
                &mut scratch,
            )
        });
        frame_bytes = match engine {
            EngineKind::Column => {
                let reply = ColMsg::StatsReply {
                    iteration: t,
                    worker: 0,
                    partial: stats.clone(),
                    compute_s: 0.0,
                    sample_s: 0.0,
                    task_failed: false,
                };
                let bcast = ColMsg::Update {
                    iteration: t,
                    stats: stats.clone(),
                };
                codec(&reply, &bcast, spans)?
            }
            EngineKind::RowPsSparse => {
                // A RowSGD worker's share: B/K rows of the raw data, its
                // sparse gradient pushed, the same keys pulled back.
                let mut rows = CsrMatrix::new();
                for a in &addrs[..BATCH / WORKERS] {
                    let global = a.block as usize * cfg.block_size + a.offset;
                    let (y, x) = data.row(global);
                    rows.push_raw_row(*y, x.indices(), x.values());
                }
                let full = row_params
                    .get_or_insert_with(|| model.init_params(dim as usize, cfg.seed, |j| j as u64));
                let grad = model.row_gradient(full, &rows);
                let reply = RowMsg::GradReplySparse {
                    iteration: t,
                    worker: 0,
                    grad: grad.clone(),
                    loss: 0.0,
                    compute_s: 0.0,
                };
                let bcast = RowMsg::SparseModelGrad {
                    iteration: t,
                    values: grad,
                };
                codec(&reply, &bcast, spans)?
            }
        };
        t += 1;
    }
    Ok(frame_bytes)
}

/// Encodes and decodes one reply and one broadcast frame; returns the
/// bytes of both frames.
fn codec<M: WireCodec>(reply: &M, bcast: &M, spans: &mut Spans) -> Result<usize, String> {
    let err = |e| format!("codec: {e}");
    let (a, b) = spans
        .time("cluster.encode_us", 1e6, || {
            Ok::<_, columnsgd::cluster::CodecError>((
                encode_envelope(NodeId::Worker(0), NodeId::Master, reply, Plane::Data)?,
                encode_envelope(NodeId::Master, NodeId::Worker(0), bcast, Plane::Data)?,
            ))
        })
        .map_err(err)?;
    spans
        .time("cluster.decode_us", 1e6, || {
            decode_body_checked::<M>(&a)?;
            decode_body_checked::<M>(&b)
        })
        .map_err(err)?;
    Ok(a.len() + b.len())
}

/// How long either side of a round trip waits for the other.
const REPLY_WAIT: Duration = Duration::from_secs(10);

/// Times `n` round trips of a small control message between a master
/// endpoint and an echoing peer on `transport`: channels in-process, or
/// loopback TCP through a `TcpHub` with the peer dialling in as a
/// `TcpClient` from a thread of this process.
pub fn roundtrip<M>(
    transport: TransportKind,
    msg: impl Fn(u64) -> M,
    n: u64,
    spans: &mut Spans,
) -> Result<(), String>
where
    M: WireCodec + Clone + Send + 'static,
{
    let ids = [NodeId::Master, NodeId::Worker(0)];
    let peer = NodeId::Worker(0);
    let echo = move |ep: Endpoint<M>| -> Result<(), String> {
        for _ in 0..n {
            // Bounded, so a failed ping side cannot leave this thread
            // (and the scope joining it) waiting forever.
            let env = ep
                .recv_timeout(REPLY_WAIT)
                .map_err(|e| format!("echo recv: {e}"))?;
            ep.send(NodeId::Master, env.payload)
                .map_err(|e| format!("echo send: {e}"))?;
        }
        Ok(())
    };
    let ping = |master: &Endpoint<M>, spans: &mut Spans| -> Result<(), String> {
        for i in 0..n {
            spans
                .time("cluster.roundtrip_us", 1e6, || {
                    master.send(peer, msg(i))?;
                    master.recv_timeout(REPLY_WAIT).map(drop)
                })
                .map_err(|e| format!("round trip {i}: {e}"))?;
        }
        Ok(())
    };
    match transport {
        TransportKind::InProc => {
            let (_router, mut eps) = Router::<M>::new(&ids, TrafficStats::new());
            let peer_ep = eps.pop().expect("two endpoints");
            let master = eps.pop().expect("two endpoints");
            thread::scope(|s| {
                let h = s.spawn(move || echo(peer_ep));
                let pinged = ping(&master, spans);
                let echoed = h.join().map_err(|_| "echo thread panicked".to_string())?;
                pinged.and(echoed)
            })
        }
        TransportKind::Tcp => {
            let hub = TcpHub::<M>::bind(&[NodeId::Master], &[peer])
                .map_err(|e| format!("hub bind: {e}"))?;
            let router = Router::with_transport(
                Arc::new(hub.clone()),
                &ids,
                TrafficStats::new(),
                None,
                Recorder::disabled(),
            );
            let master = hub.local_endpoint(NodeId::Master, &router);
            hub.start(router);
            let addr = hub.addr();
            let out = thread::scope(|s| {
                let h = s.spawn(move || {
                    let (_client_router, ep) = TcpClient::<M>::connect(addr, peer, &ids)
                        .map_err(|e| format!("dial hub: {e}"))?;
                    echo(ep)
                });
                let pinged = hub
                    .await_workers(&[peer], Duration::from_secs(20))
                    .and_then(|()| ping(&master, spans));
                let echoed = h.join().map_err(|_| "echo thread panicked".to_string())?;
                pinged.and(echoed)
            });
            hub.shutdown();
            out
        }
    }
}

/// The messages a round trip carries for this engine's protocol.
pub fn roundtrip_for(
    engine: EngineKind,
    transport: TransportKind,
    n: u64,
    spans: &mut Spans,
) -> Result<(), String> {
    match engine {
        EngineKind::Column => roundtrip(transport, |i| ColMsg::Probe { iteration: i }, n, spans),
        EngineKind::RowPsSparse => roundtrip(
            transport,
            |i| RowMsg::RequestIndices { iteration: i },
            n,
            spans,
        ),
    }
}

/// The measured milliseconds of every `phase` span an engine's
/// `Recorder` emitted, in iteration order.
pub fn phase_ms(events: &[Event], phase: Phase) -> Vec<f64> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Superstep(s) if s.phase == phase => Some(s.measured_s * 1e3),
            _ => None,
        })
        .collect()
}
