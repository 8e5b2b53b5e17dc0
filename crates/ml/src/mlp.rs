//! **Extension** — multi-layer perceptrons with column-partitioned fully
//! connected layers (§III-C of the paper).
//!
//! The paper sketches DNN support: "For fully connected (FC) layers,
//! ColumnSGD can support it by partitioning the FC layer and the
//! corresponding weight matrix across workers … It needs to aggregate the
//! dot products at each layer and broadcast the aggregated statistics
//! (e.g., the result of activation functions) back to workers." This
//! module makes that sketch concrete:
//!
//! * every weight matrix `W_l ∈ R^{n_{l-1} × n_l}` is partitioned **by
//!   input rows**: the layer-1 rows follow the data's column partitioning
//!   (collocation, as for GLMs), and each hidden layer's rows are
//!   round-robin over the workers;
//! * **forward**: worker w computes the partial pre-activation
//!   `Z_l^w = A_{l-1}[:, R_w] · W_l[R_w, :]` from the rows it owns; the
//!   aggregated `Z_l = Σ_w Z_l^w` (a `B × n_l` statistic!) is broadcast and
//!   every worker applies the activation locally;
//! * **backward**: the output delta is computable everywhere (statistics +
//!   labels are local); each worker computes its rows' weight gradients
//!   locally (it has the broadcast activations) and its *piece* of the
//!   previous delta `δ_{l-1}[:, R_w]`, which is all-gathered (sum with
//!   zero-extension) before the next layer down.
//!
//! Per iteration the network ships `O(B · Σ_l n_l)` statistics — still
//! independent of the input dimension m, but proportional to the hidden
//! widths, which is exactly the paper's caveat that ColumnSGD for DNNs
//! "may not be very beneficial" when layers are narrow.
//!
//! Hidden activations are ReLU; the single output unit uses logistic loss
//! with ±1 labels. Biases are folded into an always-on input feature by
//! callers that want them (kept out of the math for clarity).

use columnsgd_linalg::{ops, CsrMatrix};

/// Architecture of the MLP: hidden widths; input dim and the single output
/// are implicit.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpSpec {
    /// Hidden-layer widths, e.g. `[64, 32]`.
    pub hidden: Vec<usize>,
}

impl MlpSpec {
    /// Layer output widths including the final scalar: `[h_1, …, h_L, 1]`.
    pub fn layer_outputs(&self) -> Vec<usize> {
        let mut v = self.hidden.clone();
        v.push(1);
        v
    }

    /// Statistics (floats) shipped per data point per iteration:
    /// forward aggregates of every layer plus backward deltas of the
    /// hidden layers, each both gathered and broadcast.
    pub fn stats_per_point(&self) -> usize {
        let forward: usize = self.layer_outputs().iter().sum();
        let backward: usize = self.hidden.iter().sum();
        2 * (forward + backward)
    }
}

/// One worker's partition of one layer: the rows (input units) it owns.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPartition {
    /// Global input-unit ids of the owned rows (sorted).
    pub rows: Vec<usize>,
    /// Output width n_l.
    pub out: usize,
    /// Row-major weights: `w[r * out + j]` for local row index r.
    pub w: Vec<f64>,
}

impl LayerPartition {
    /// Deterministic He-style init keyed by *global* (layer, row, col), so
    /// any partitioning initializes identically to a serial network.
    pub fn init(layer: usize, rows: Vec<usize>, fan_in: usize, out: usize, seed: u64) -> Self {
        let scale = (2.0 / fan_in.max(1) as f64).sqrt();
        let mut w = Vec::with_capacity(rows.len() * out);
        for &r in &rows {
            for j in 0..out {
                w.push(hash_unit(seed, layer as u64, r as u64, j as u64) * scale);
            }
        }
        Self { rows, out, w }
    }
}

fn hash_unit(seed: u64, layer: u64, row: u64, col: u64) -> f64 {
    let mut z = seed
        ^ layer.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ row.wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ col.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^= z >> 32;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// ReLU.
pub fn relu(z: f64) -> f64 {
    z.max(0.0)
}

/// ReLU derivative (subgradient 0 at 0).
pub fn relu_prime(z: f64) -> f64 {
    if z > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Forward partial for the **input layer** from a column-partitioned
/// sparse batch (indices are local slots aligned with `part.rows` order):
/// returns `B × out`, `z[b*out + j] = Σ_slot x[b,slot] · w[slot*out + j]`.
pub fn forward_partial_input(part: &LayerPartition, batch: &CsrMatrix) -> Vec<f64> {
    let out = part.out;
    let mut z = vec![0.0; batch.nrows() * out];
    for (b, (_, idx, val)) in batch.iter_rows().enumerate() {
        let zrow = &mut z[b * out..(b + 1) * out];
        for (&slot, &x) in idx.iter().zip(val) {
            let wrow = &part.w[slot as usize * out..(slot as usize + 1) * out];
            for (zj, wj) in zrow.iter_mut().zip(wrow) {
                *zj += x * wj;
            }
        }
    }
    z
}

/// Forward partial for a **hidden layer** from the full previous
/// activations (`B × n_prev`, broadcast): only the owned rows contribute.
pub fn forward_partial_dense(
    part: &LayerPartition,
    a_prev: &[f64],
    n_prev: usize,
    batch: usize,
) -> Vec<f64> {
    let out = part.out;
    let mut z = vec![0.0; batch * out];
    for b in 0..batch {
        let arow = &a_prev[b * n_prev..(b + 1) * n_prev];
        let zrow = &mut z[b * out..(b + 1) * out];
        for (local, &r) in part.rows.iter().enumerate() {
            let a = arow[r];
            if a == 0.0 {
                continue; // ReLU sparsity
            }
            let wrow = &part.w[local * out..(local + 1) * out];
            for (zj, wj) in zrow.iter_mut().zip(wrow) {
                *zj += a * wj;
            }
        }
    }
    z
}

/// Output-layer delta for logistic loss with ±1 labels:
/// `δ_L[b] = -y_b · σ(-y_b · z_b)`.
pub fn output_delta(z_out: &[f64], labels: &[f64]) -> Vec<f64> {
    z_out
        .iter()
        .zip(labels)
        .map(|(&z, &y)| -y * ops::sigmoid(-y * z))
        .collect()
}

/// Mean logistic loss of the output layer.
pub fn output_loss(z_out: &[f64], labels: &[f64]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    z_out
        .iter()
        .zip(labels)
        .map(|(&z, &y)| ops::log1p_exp(-y * z))
        .sum::<f64>()
        / labels.len() as f64
}

/// Backward step for a layer with dense previous activations:
/// applies the SGD update to the owned rows and returns this worker's
/// **piece of the previous delta**, zero-extended to `B × n_prev` so
/// pieces aggregate by summation (disjoint supports).
///
/// `delta` is the full `B × out` delta of this layer; `z_prev` the full
/// pre-activations of the previous layer (needed for ReLU').
pub fn backward_dense(
    part: &mut LayerPartition,
    a_prev: &[f64],
    z_prev: &[f64],
    n_prev: usize,
    delta: &[f64],
    batch: usize,
    eta: f64,
) -> Vec<f64> {
    let out = part.out;
    let inv_b = 1.0 / batch.max(1) as f64;
    let mut delta_prev = vec![0.0; batch * n_prev];
    for (local, &r) in part.rows.iter().enumerate() {
        let wrow_start = local * out;
        // δ_prev piece first (uses the pre-update weights, as backprop
        // requires).
        for b in 0..batch {
            let drow = &delta[b * out..(b + 1) * out];
            let mut acc = 0.0;
            for (j, &d) in drow.iter().enumerate() {
                acc += part.w[wrow_start + j] * d;
            }
            delta_prev[b * n_prev + r] = acc * relu_prime(z_prev[b * n_prev + r]);
        }
        // Weight gradient: grad[r, j] = (1/B) Σ_b a_prev[b, r] · δ[b, j].
        for j in 0..out {
            let mut g = 0.0;
            for b in 0..batch {
                g += a_prev[b * n_prev + r] * delta[b * out + j];
            }
            part.w[wrow_start + j] -= eta * g * inv_b;
        }
    }
    delta_prev
}

/// Backward step for the **input layer**: sparse activations, no previous
/// delta needed. Updates the owned rows in place.
pub fn backward_input(part: &mut LayerPartition, batch_csr: &CsrMatrix, delta: &[f64], eta: f64) {
    let out = part.out;
    let inv_b = 1.0 / batch_csr.nrows().max(1) as f64;
    for (b, (_, idx, val)) in batch_csr.iter_rows().enumerate() {
        let drow = &delta[b * out..(b + 1) * out];
        for (&slot, &x) in idx.iter().zip(val) {
            let wrow = &mut part.w[slot as usize * out..(slot as usize + 1) * out];
            for (wj, &d) in wrow.iter_mut().zip(drow) {
                *wj -= eta * x * d * inv_b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_linalg::SparseVector;

    fn dense_layer(layer: usize, n_in: usize, out: usize, seed: u64) -> LayerPartition {
        LayerPartition::init(layer, (0..n_in).collect(), n_in, out, seed)
    }

    /// Serial forward through a full (unpartitioned) network.
    fn serial_forward(layers: &[LayerPartition], x: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut a = x.to_vec();
        let mut zs = Vec::new();
        let mut acts = vec![a.clone()];
        for (li, l) in layers.iter().enumerate() {
            let z = forward_partial_dense(l, &a, a.len(), 1);
            a = if li + 1 == layers.len() {
                z.clone()
            } else {
                z.iter().map(|&v| relu(v)).collect()
            };
            zs.push(z);
            acts.push(a.clone());
        }
        (zs, acts)
    }

    #[test]
    fn forward_decomposes_over_row_partitions() {
        // Z = Σ_w Z^w for any partitioning of the rows.
        let n_in = 10;
        let out = 4;
        let full = dense_layer(0, n_in, out, 7);
        let a_prev: Vec<f64> = (0..2 * n_in)
            .map(|i| (i as f64 * 0.37).sin().abs())
            .collect();
        let z_full = forward_partial_dense(&full, &a_prev, n_in, 2);

        for k in [2usize, 3] {
            let mut agg = vec![0.0; z_full.len()];
            for w in 0..k {
                let rows: Vec<usize> = (0..n_in).filter(|r| r % k == w).collect();
                let part = LayerPartition::init(0, rows, n_in, out, 7);
                let zp = forward_partial_dense(&part, &a_prev, n_in, 2);
                for (a, b) in agg.iter_mut().zip(&zp) {
                    *a += b;
                }
            }
            for (a, b) in agg.iter().zip(&z_full) {
                assert!((a - b).abs() < 1e-12, "K={k}");
            }
        }
    }

    #[test]
    fn input_layer_matches_dense_path() {
        let n_in = 6;
        let out = 3;
        let part = dense_layer(0, n_in, out, 3);
        let x = SparseVector::from_pairs(vec![(0, 1.0), (2, -2.0), (5, 0.5)]);
        let batch = CsrMatrix::from_rows(&[(1.0, x.clone())]);
        let z_sparse = forward_partial_input(&part, &batch);
        let mut dense_x = vec![0.0; n_in];
        for (i, v) in x.iter() {
            dense_x[i as usize] = v;
        }
        let z_dense = forward_partial_dense(&part, &dense_x, n_in, 1);
        for (a, b) in z_sparse.iter().zip(&z_dense) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[expect(clippy::needless_range_loop, reason = "`c` is a weight coordinate id")]
    fn backward_matches_finite_differences() {
        // 2-layer net: 5 → 4 → 1, one example; check every weight's
        // gradient numerically.
        let n_in = 5;
        let h = 4;
        let mk = || vec![dense_layer(1, n_in, h, 11), dense_layer(2, h, 1, 11)];
        let x: Vec<f64> = vec![0.5, -1.0, 2.0, 0.0, 1.5];
        let y = -1.0;

        let loss_of = |layers: &[LayerPartition]| {
            let (zs, _) = serial_forward(layers, &x);
            output_loss(&zs[1], &[y])
        };

        // Analytic gradients via one backward pass with eta = 1 (weights
        // move by exactly -grad, so grad = w_before - w_after).
        let mut layers = mk();
        let (zs, acts) = serial_forward(&layers, &x);
        let delta2 = output_delta(&zs[1], &[y]);
        let before1 = layers[1].w.clone();
        let delta1 = backward_dense(&mut layers[1], &acts[1], &zs[0], h, &delta2, 1, 1.0);
        let grad1: Vec<f64> = before1
            .iter()
            .zip(&layers[1].w)
            .map(|(a, b)| a - b)
            .collect();
        let before0 = layers[0].w.clone();
        let _ = backward_dense(
            &mut layers[0],
            &acts[0],
            &vec![1.0; n_in],
            n_in,
            &delta1,
            1,
            1.0,
        );
        let grad0: Vec<f64> = before0
            .iter()
            .zip(&layers[0].w)
            .map(|(a, b)| a - b)
            .collect();
        // NOTE: layer 0's "z_prev" is the raw input (identity activation);
        // we passed all-positive ones so relu_prime = 1 and delta_prev is
        // unused.

        let eps = 1e-6;
        let base = loss_of(&mk());
        for (li, grads) in [(0usize, &grad0), (1, &grad1)] {
            for c in 0..grads.len() {
                let mut pert = mk();
                pert[li].w[c] += eps;
                let numeric = (loss_of(&pert) - base) / eps;
                assert!(
                    (numeric - grads[c]).abs() < 1e-4,
                    "layer {li} coord {c}: numeric {numeric} vs analytic {}",
                    grads[c]
                );
            }
        }
    }

    #[test]
    fn delta_pieces_have_disjoint_support() {
        let n_prev = 8;
        let h = 3;
        let batch = 2;
        let a_prev: Vec<f64> = (0..batch * n_prev)
            .map(|i| (i as f64 * 0.11).cos().abs())
            .collect();
        let z_prev = a_prev.clone();
        let delta: Vec<f64> = (0..batch * h).map(|i| 0.1 * i as f64 - 0.2).collect();
        let k = 3;
        let mut pieces = Vec::new();
        for w in 0..k {
            let rows: Vec<usize> = (0..n_prev).filter(|r| r % k == w).collect();
            let mut part = LayerPartition::init(1, rows, n_prev, h, 5);
            pieces.push(backward_dense(
                &mut part, &a_prev, &z_prev, n_prev, &delta, batch, 0.0,
            ));
        }
        // Every coordinate is nonzero in at most one piece.
        for c in 0..batch * n_prev {
            let nonzero = pieces.iter().filter(|p| p[c] != 0.0).count();
            assert!(nonzero <= 1, "coordinate {c} set by {nonzero} pieces");
        }
        // Sum of pieces equals the full-partition delta.
        let mut full = LayerPartition::init(1, (0..n_prev).collect(), n_prev, h, 5);
        let reference = backward_dense(&mut full, &a_prev, &z_prev, n_prev, &delta, batch, 0.0);
        for c in 0..batch * n_prev {
            let sum: f64 = pieces.iter().map(|p| p[c]).sum();
            assert!((sum - reference[c]).abs() < 1e-12);
        }
    }

    #[test]
    fn init_is_partition_invariant() {
        let full = dense_layer(2, 10, 4, 9);
        let rows: Vec<usize> = vec![1, 4, 7];
        let part = LayerPartition::init(2, rows.clone(), 10, 4, 9);
        for (local, &r) in rows.iter().enumerate() {
            for j in 0..4 {
                assert_eq!(part.w[local * 4 + j], full.w[r * 4 + j]);
            }
        }
    }

    #[test]
    fn stats_per_point_formula() {
        let spec = MlpSpec {
            hidden: vec![64, 32],
        };
        assert_eq!(spec.layer_outputs(), vec![64, 32, 1]);
        // forward: 64+32+1, backward deltas: 64+32, both directions.
        assert_eq!(spec.stats_per_point(), 2 * (97 + 96));
    }
}
