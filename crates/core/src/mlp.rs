//! **Extension** — distributed MLP training with column-partitioned FC
//! layers (the §III-C sketch, runnable).
//!
//! [`DistributedMlp`] drives K logical workers through the per-layer
//! synchronization pattern the paper describes: every forward layer
//! gathers partial pre-activations (`B × n_l` statistics) at the master
//! and broadcasts the aggregate; every backward layer all-gathers the
//! delta pieces. The input layer's weight rows are collocated with the
//! column-partitioned training data exactly as for GLMs, so the (often
//! enormous) first-layer weight matrix never crosses the network.
//!
//! Unlike [`crate::engine::ColumnSgdEngine`], the workers here are
//! *driver-hosted* (no threads): this is a feasibility study of the
//! paper's discussion section, not a production engine, and what it
//! measures — statistics volume and priced communication per layer — does
//! not depend on physical placement. Every logical transfer is metered on
//! the corresponding `Worker(w) ↔ Master` link via
//! [`columnsgd_cluster::Router::meter_only`]-style accounting directly on
//! [`TrafficStats`].

#![expect(clippy::disallowed_methods, reason = "per-layer timing")]

use columnsgd_cluster::clock::IterationTime;
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{NetworkModel, NodeId, SimClock, TrafficStats};
use columnsgd_data::workset::split_block;
use columnsgd_data::{block::Block, ColumnPartitioner, Dataset, TwoPhaseIndex};
use columnsgd_linalg::CsrMatrix;
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::mlp::{self, LayerPartition, MlpSpec};

/// Configuration of a distributed MLP run.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden widths.
    pub spec: MlpSpec,
    /// Mini-batch size B.
    pub batch_size: usize,
    /// Iterations T.
    pub iterations: u64,
    /// Learning rate η (plain SGD).
    pub learning_rate: f64,
    /// Seed (sampling + init).
    pub seed: u64,
}

/// One logical worker: its input-layer data + per-layer weight partitions.
struct MlpWorker {
    /// Column partition of the training data (local slots).
    data: CsrMatrix,
    /// Weight partitions, layer by layer (layer 0 rows = local data slots).
    layers: Vec<LayerPartition>,
}

/// The driver-hosted distributed MLP.
pub struct DistributedMlp {
    cfg: MlpConfig,
    k: usize,
    workers: Vec<MlpWorker>,
    labels: Vec<f64>,
    index: TwoPhaseIndex,
    net: NetworkModel,
    traffic: TrafficStats,
}

impl DistributedMlp {
    /// Column-partitions `dataset` over `k` workers (round-robin, like the
    /// GLM engine) and initializes every layer partition.
    pub fn new(dataset: &Dataset, k: usize, cfg: MlpConfig, net: NetworkModel) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let dim = dataset.dimension();
        let part = ColumnPartitioner::round_robin(k);
        // One block: the driver-hosted study doesn't exercise the block
        // protocol (the GLM engine does); it reuses the same splitter.
        let rows: Vec<_> = dataset.iter().cloned().collect();
        let block = Block::from_rows(0, &rows);
        let worksets = split_block(&block, &part);
        let labels: Vec<f64> = rows.iter().map(|(y, _)| *y).collect();

        let outputs = cfg.spec.layer_outputs();
        let workers = worksets
            .into_iter()
            .enumerate()
            .map(|(w, ws)| {
                let mut layers = Vec::with_capacity(outputs.len());
                // Layer 1: rows = this worker's data slots (collocated).
                let local_dim = part.local_dim(w, dim);
                layers.push(LayerPartition::init(
                    0,
                    // Global identities are the global feature ids, so the
                    // init is partition-invariant.
                    (0..local_dim)
                        .map(|s| part.global_index(w, s) as usize)
                        .collect(),
                    dim as usize,
                    outputs[0],
                    cfg.seed,
                ));
                // Hidden layers: units round-robin over workers.
                for (li, &out) in outputs.iter().enumerate().skip(1) {
                    let n_prev = outputs[li - 1];
                    let rows: Vec<usize> = (0..n_prev).filter(|r| r % k == w).collect();
                    layers.push(LayerPartition::init(li, rows, n_prev, out, cfg.seed));
                }
                MlpWorker {
                    data: ws.data,
                    layers,
                }
            })
            .collect();

        let index = TwoPhaseIndex::new([(0u64, rows.len())], cfg.seed);
        Self {
            cfg,
            k,
            workers,
            labels,
            index,
            net,
            traffic: TrafficStats::new(),
        }
    }

    /// Layer-1 weight rows use *global feature ids* as identity but the
    /// workset CSR uses local slots; rebuild the per-worker batch.
    fn worker_batch(&self, w: usize, addrs: &[columnsgd_data::index::RowAddr]) -> CsrMatrix {
        let mut batch = CsrMatrix::new();
        for addr in addrs {
            let (idx, val) = self.workers[w].data.row(addr.offset);
            batch.push_raw_row(self.workers[w].data.label(addr.offset), idx, val);
        }
        batch
    }

    /// Meters one gather (all workers → master) and one broadcast of a
    /// `floats`-sized statistic, returning the priced communication time.
    fn sync_cost(&self, floats: usize) -> f64 {
        let bytes = (8 * floats + ENVELOPE_BYTES) as u64;
        for w in 0..self.k {
            self.traffic
                .record(NodeId::Worker(w), NodeId::Master, bytes as usize);
            self.traffic
                .record(NodeId::Master, NodeId::Worker(w), bytes as usize);
        }
        self.net.gather_time(&vec![bytes; self.k]) + self.net.broadcast_time(bytes, self.k)
    }

    /// Runs training; returns the loss curve over simulated time.
    #[expect(clippy::needless_range_loop, reason = "`w` is the worker id")]
    pub fn train(&mut self) -> (Curve, SimClock) {
        let mut clock = SimClock::new();
        let mut curve = Curve::new("ColumnSGD-MLP");
        let outputs = self.cfg.spec.layer_outputs();
        let b = self.cfg.batch_size;
        let eta = self.cfg.learning_rate;

        for t in 0..self.cfg.iterations {
            let addrs = self.index.sample_batch(t, b);
            let labels: Vec<f64> = addrs.iter().map(|a| self.labels[a.offset]).collect();
            let batches: Vec<CsrMatrix> =
                (0..self.k).map(|w| self.worker_batch(w, &addrs)).collect();

            let start = std::time::Instant::now();
            let mut comm = 0.0;

            // ---- forward ------------------------------------------------
            // acts[l] = full activations of layer l (post-ReLU), B × n_l;
            // zs[l] = full pre-activations.
            let mut acts: Vec<Vec<f64>> = Vec::with_capacity(outputs.len());
            let mut zs: Vec<Vec<f64>> = Vec::with_capacity(outputs.len());
            for (li, &out) in outputs.iter().enumerate() {
                let mut z = vec![0.0; b * out];
                for w in 0..self.k {
                    let partial = if li == 0 {
                        mlp::forward_partial_input(&self.workers[w].layers[0], &batches[w])
                    } else {
                        mlp::forward_partial_dense(
                            &self.workers[w].layers[li],
                            &acts[li - 1],
                            outputs[li - 1],
                            b,
                        )
                    };
                    for (acc, p) in z.iter_mut().zip(&partial) {
                        *acc += p;
                    }
                }
                comm += self.sync_cost(z.len());
                let a = if li + 1 == outputs.len() {
                    z.clone()
                } else {
                    z.iter().map(|&v| mlp::relu(v)).collect()
                };
                zs.push(z);
                acts.push(a);
            }

            #[expect(
                clippy::expect_used,
                reason = "zs gets one push per layer in the forward loop above and MlpSpec validates depth >= 1, so last() cannot be empty"
            )]
            let loss = mlp::output_loss(zs.last().expect("output layer"), &labels);

            // ---- backward -----------------------------------------------
            #[expect(clippy::expect_used, reason = "same invariant as above")]
            let mut delta = mlp::output_delta(zs.last().expect("output layer"), &labels);
            for li in (1..outputs.len()).rev() {
                let n_prev = outputs[li - 1];
                let mut delta_prev = vec![0.0; b * n_prev];
                for w in 0..self.k {
                    let piece = mlp::backward_dense(
                        &mut self.workers[w].layers[li],
                        &acts[li - 1],
                        &zs[li - 1],
                        n_prev,
                        &delta,
                        b,
                        eta,
                    );
                    for (acc, p) in delta_prev.iter_mut().zip(&piece) {
                        *acc += p;
                    }
                }
                // Delta pieces are all-gathered (disjoint supports).
                comm += self.sync_cost(delta_prev.len());
                delta = delta_prev;
            }
            // Input layer: local sparse update, no further delta needed.
            for w in 0..self.k {
                mlp::backward_input(&mut self.workers[w].layers[0], &batches[w], &delta, eta);
            }

            // Driver hosts all K workers sequentially; an even split
            // approximates one worker's share.
            let compute = start.elapsed().as_secs_f64() / self.k as f64;
            clock.record(IterationTime {
                compute_s: compute,
                comm_s: comm,
                overhead_s: self.net.scheduling_overhead_s,
            });
            curve.push(t, clock.elapsed_s(), loss);
        }
        (curve, clock)
    }

    /// The traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Statistics floats shipped per iteration (both directions, all
    /// layers) — `2 · B · (Σ forward widths + Σ backward widths)`.
    pub fn stats_floats_per_iteration(&self) -> usize {
        self.cfg.batch_size * self.cfg.spec.stats_per_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_data::synth::SynthConfig;

    /// A dataset whose labels need a nonlinear boundary: y = sign of a
    /// quadratic form of two dense features.
    fn xorish(rows: usize, extra_dim: u64, seed: u64) -> Dataset {
        use columnsgd_linalg::SparseVector;
        let base = SynthConfig {
            rows,
            dim: extra_dim,
            avg_nnz: 4.0,
            noise: 0.0,
            seed,
            ..SynthConfig::default()
        }
        .generate();
        let rows: Vec<(f64, SparseVector)> = base
            .into_rows()
            .into_iter()
            .enumerate()
            .map(|(i, (_, x))| {
                // Two "dense" coordinates at indices 0 and 1 in {-1, +1}.
                let a = if i % 2 == 0 { 1.0 } else { -1.0 };
                let bcoord = if (i / 2) % 2 == 0 { 1.0 } else { -1.0 };
                let y = a * bcoord; // XOR: not linearly separable
                let mut pairs: Vec<(u64, f64)> = x.iter().map(|(j, v)| (j + 2, v * 0.01)).collect();
                pairs.push((0, a));
                pairs.push((1, bcoord));
                (y, SparseVector::from_pairs(pairs))
            })
            .collect();
        Dataset::with_dimension(rows, extra_dim + 2)
    }

    #[test]
    fn distributed_mlp_solves_xor() {
        let ds = xorish(400, 30, 3);
        let cfg = MlpConfig {
            spec: MlpSpec { hidden: vec![16] },
            batch_size: 64,
            iterations: 400,
            learning_rate: 0.5,
            seed: 9,
        };
        let mut net = DistributedMlp::new(&ds, 4, cfg, NetworkModel::INSTANT);
        let (curve, _) = net.train();
        let first = curve.points[..10].iter().map(|p| p.loss).sum::<f64>() / 10.0;
        let last = curve.points[curve.points.len() - 10..]
            .iter()
            .map(|p| p.loss)
            .sum::<f64>()
            / 10.0;
        assert!(
            last < first * 0.5,
            "MLP must learn the nonlinear boundary: {first} -> {last}"
        );
        assert!(last < 0.35, "final loss {last}");
    }

    #[test]
    fn distributed_matches_single_worker() {
        // K workers and K=1 must produce the same loss trajectory — the
        // per-layer decomposition is exact.
        let ds = xorish(200, 20, 5);
        let cfg = MlpConfig {
            spec: MlpSpec { hidden: vec![8] },
            batch_size: 32,
            iterations: 30,
            learning_rate: 0.2,
            seed: 4,
        };
        let run = |k: usize| {
            let mut net = DistributedMlp::new(&ds, k, cfg.clone(), NetworkModel::INSTANT);
            let (curve, _) = net.train();
            curve.points.iter().map(|p| p.loss).collect::<Vec<_>>()
        };
        let serial = run(1);
        for k in [2usize, 3, 4] {
            let dist = run(k);
            for (i, (a, b)) in serial.iter().zip(&dist).enumerate() {
                assert!((a - b).abs() < 1e-9, "K={k} iter {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn traffic_independent_of_input_dimension() {
        let cfg = MlpConfig {
            spec: MlpSpec { hidden: vec![8] },
            batch_size: 32,
            iterations: 4,
            learning_rate: 0.1,
            seed: 1,
        };
        let measure = |dim: u64| {
            let ds = xorish(100, dim, 7);
            let mut net = DistributedMlp::new(&ds, 4, cfg.clone(), NetworkModel::INSTANT);
            let _ = net.train();
            net.traffic().total().bytes
        };
        assert_eq!(measure(50), measure(5_000));
    }

    #[test]
    fn traffic_scales_with_hidden_width() {
        let measure = |h: usize| {
            let cfg = MlpConfig {
                spec: MlpSpec { hidden: vec![h] },
                batch_size: 32,
                iterations: 4,
                learning_rate: 0.1,
                seed: 1,
            };
            let ds = xorish(100, 50, 7);
            let mut net = DistributedMlp::new(&ds, 4, cfg, NetworkModel::INSTANT);
            let _ = net.train();
            net.traffic().total().bytes
        };
        let narrow = measure(8);
        let wide = measure(64);
        assert!(
            wide > 4 * narrow,
            "width must drive traffic: {narrow} vs {wide}"
        );
    }
}
