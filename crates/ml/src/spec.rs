//! [`ModelSpec`]: the model abstraction implementing the paper's
//! programming interface (§IX) for both parallelization strategies.
//!
//! The four functions of Figure 12 map onto this type as follows:
//!
//! | Paper (`Figure 12`)   | Here                                        |
//! |-----------------------|---------------------------------------------|
//! | `initModel(K)`        | [`ModelSpec::init_params`]                  |
//! | `computeStat(batch)`  | [`ModelSpec::compute_stats`]                |
//! | `reduceStat(s1, s2)`  | [`reduce_stats`] (element-wise sum)         |
//! | `updateModel(stat,…)` | [`ModelSpec::update_from_stats`]            |
//!
//! The same type also exposes the *horizontal* path used by the RowSGD
//! baselines ([`ModelSpec::row_gradient`] / [`ModelSpec::apply_gradient`]),
//! so every system in the evaluation shares one implementation of the
//! model mathematics — differences in the experiments are attributable to
//! the parallelization strategy alone.

use std::collections::{BTreeMap, BTreeSet};

use columnsgd_linalg::{CsrMatrix, FeatureIndex, SparseVector};
use columnsgd_telemetry::ProfScope;

use crate::fm;
use crate::glm::{self, GlmKind};
use crate::mlr;
use crate::optimizer::OptimizerState;
use crate::params::{ParamSet, SparseGrad, UpdateParams};

/// Which ML model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Logistic regression (binary, labels ±1).
    Lr,
    /// Linear SVM with hinge loss (binary, labels ±1).
    Svm,
    /// Least-squares regression.
    LeastSquares,
    /// Multinomial logistic regression with `classes` classes (labels
    /// `0..classes` as f64).
    Mlr {
        /// Number of classes C ≥ 2.
        classes: usize,
    },
    /// Degree-2 factorization machine with `factors` latent factors and
    /// logistic loss (binary, labels ±1).
    Fm {
        /// Number of latent factors F ≥ 1.
        factors: usize,
    },
}

impl ModelSpec {
    /// Values per feature in each parameter block.
    pub fn widths(&self) -> Vec<usize> {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => vec![1],
            ModelSpec::Mlr { classes } => vec![1; classes],
            ModelSpec::Fm { factors } => vec![1, factors],
        }
    }

    /// Statistics values shipped per data point: 1 for GLMs, C for MLR,
    /// F+1 for FM (§III-C).
    pub fn stats_width(&self) -> usize {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => 1,
            ModelSpec::Mlr { classes } => classes,
            ModelSpec::Fm { factors } => factors + 1,
        }
    }

    /// Total scalar parameters for a model over `dim` features.
    pub fn num_params(&self, dim: u64) -> u64 {
        self.widths().iter().map(|&w| dim * w as u64).sum()
    }

    /// Stable lowercase label for reports and telemetry (`lr`, `svm`,
    /// `lsq`, `mlr`, `fm`).
    pub fn label(&self) -> &'static str {
        match self {
            ModelSpec::Lr => "lr",
            ModelSpec::Svm => "svm",
            ModelSpec::LeastSquares => "lsq",
            ModelSpec::Mlr { .. } => "mlr",
            ModelSpec::Fm { .. } => "fm",
        }
    }

    /// Work proxy for one superstep's statistics kernels: statistics slots
    /// produced per counted worker — `B × stats_width` — times the number
    /// of counted workers. A unitless volume (not FLOPs), comparable
    /// across models and batch sizes; telemetry stamps it on every
    /// `KernelRecord`.
    pub fn flops_proxy(&self, batch_size: usize, counted_workers: usize) -> u64 {
        (batch_size * self.stats_width() * counted_workers) as u64
    }

    fn glm_kind(&self) -> Option<GlmKind> {
        match self {
            ModelSpec::Lr => Some(GlmKind::Logistic),
            ModelSpec::Svm => Some(GlmKind::Hinge),
            ModelSpec::LeastSquares => Some(GlmKind::Squares),
            _ => None,
        }
    }

    /// Initializes a parameter set covering `dim` feature slots.
    ///
    /// `global_of` maps a local slot to its global feature index; a full
    /// (RowSGD/serial) model passes the identity. Linear weights start at
    /// zero; FM factor matrices use the functional initializer
    /// [`fm::init_v`] keyed by *global* index, so any column partitioning
    /// of the model initializes identically to the serial model.
    pub fn init_params<G: Fn(usize) -> u64>(
        &self,
        dim: usize,
        seed: u64,
        global_of: G,
    ) -> ParamSet {
        let mut params = ParamSet::zeros(dim, &self.widths());
        if let ModelSpec::Fm { factors } = *self {
            let v = &mut params.blocks[1];
            for slot in 0..dim {
                let j = global_of(slot);
                for f in 0..factors {
                    v[slot * factors + f] = fm::init_v(seed, j, f, factors);
                }
            }
        }
        params
    }

    /// Computes this node's partial statistics for a batch
    /// (`computeStat`). `out` is resized to `batch.nrows() *
    /// stats_width()` and overwritten.
    pub fn compute_stats(&self, params: &ParamSet, batch: &CsrMatrix, out: &mut Vec<f64>) {
        let _prof = ProfScope::enter("kernel_stats");
        out.clear();
        out.resize(batch.nrows() * self.stats_width(), 0.0);
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                glm::partial_stats(params, batch, out);
            }
            ModelSpec::Mlr { classes } => mlr::partial_stats(classes, params, batch, out),
            ModelSpec::Fm { factors } => fm::partial_stats(factors, params, batch, out),
        }
    }

    /// Accumulates the (summed, unaveraged) batch gradient given complete
    /// statistics.
    pub fn accumulate_grad(
        &self,
        params: &ParamSet,
        batch: &CsrMatrix,
        stats: &[f64],
        accum: &mut impl GradSink,
    ) {
        let mut probs = Vec::new();
        self.accumulate_grad_into(params, batch, stats, &mut probs, accum);
    }

    /// [`ModelSpec::accumulate_grad`] with every scratch buffer supplied by
    /// the caller (`probs` is the MLR softmax buffer; the other models
    /// ignore it).
    fn accumulate_grad_into(
        &self,
        params: &ParamSet,
        batch: &CsrMatrix,
        stats: &[f64],
        probs: &mut Vec<f64>,
        accum: &mut impl GradSink,
    ) {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                glm::accumulate_grad(self.glm_kind().expect("glm"), batch, stats, accum);
            }
            ModelSpec::Mlr { classes } => {
                mlr::accumulate_grad_with(classes, batch, stats, probs, accum);
            }
            ModelSpec::Fm { factors } => fm::accumulate_grad(factors, params, batch, stats, accum),
        }
    }

    /// The ColumnSGD `updateModel`: computes the local gradient from the
    /// aggregated statistics and applies one optimizer step.
    ///
    /// `total_batch` is the global batch size B (gradients are averaged
    /// over the whole batch, matching Figure 12 line 25).
    pub fn update_from_stats(
        &self,
        params: &mut ParamSet,
        opt: &mut OptimizerState,
        batch: &CsrMatrix,
        stats: &[f64],
        up: &UpdateParams,
        total_batch: usize,
    ) {
        let mut accum = GradAccum::new(&self.widths());
        self.accumulate_grad(params, batch, stats, &mut accum);
        opt.begin_step();
        let inv_b = 1.0 / total_batch.max(1) as f64;
        for (block, coord, g_sum) in accum.iter_coords() {
            let w = params.blocks[block][coord];
            let g = g_sum * inv_b + up.regularizer.subgradient(w);
            opt.apply(block, &mut params.blocks[block], coord, g, up.learning_rate);
        }
    }

    /// Allocation-free [`ModelSpec::update_from_stats`]: identical
    /// mathematics and bit-identical results, but the gradient accumulator
    /// and every scratch buffer live in the caller-owned
    /// [`UpdateScratch`], so the per-iteration hot path performs no heap
    /// allocation after the first call at a given model shape.
    ///
    /// Equivalence holds because both paths fold the same per-coordinate
    /// `+=` sequence and apply each touched coordinate exactly once
    /// through per-coordinate optimizer state; only the application
    /// *order* differs (arrival order here, sorted order there), which
    /// cannot change any coordinate's result. The kernel-equivalence
    /// proptest suite pins this down for GLM, MLR, and FM.
    #[expect(
        clippy::too_many_arguments,
        reason = "mirrors update_from_stats + scratch"
    )]
    pub fn update_from_stats_with(
        &self,
        params: &mut ParamSet,
        opt: &mut OptimizerState,
        batch: &CsrMatrix,
        stats: &[f64],
        up: &UpdateParams,
        total_batch: usize,
        scratch: &mut UpdateScratch,
    ) {
        let _prof = ProfScope::enter("kernel_update");
        scratch.spa.ensure(params);
        self.accumulate_grad_into(params, batch, stats, &mut scratch.probs, &mut scratch.spa);
        opt.begin_step();
        let inv_b = 1.0 / total_batch.max(1) as f64;
        scratch.spa.drain(|block, coord, g_sum| {
            let w = params.blocks[block][coord];
            let g = g_sum * inv_b + up.regularizer.subgradient(w);
            opt.apply(block, &mut params.blocks[block], coord, g, up.learning_rate);
        });
    }

    /// Mean loss over a batch given the complete statistics.
    pub fn loss_from_stats(&self, labels: &[f64], stats: &[f64]) -> f64 {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                self.glm_kind().expect("glm").loss(labels, stats)
            }
            ModelSpec::Mlr { classes } => mlr::loss(classes, labels, stats),
            ModelSpec::Fm { factors } => fm::loss(factors, labels, stats),
        }
    }

    /// Classification accuracy over a batch given complete statistics.
    pub fn accuracy_from_stats(&self, labels: &[f64], stats: &[f64]) -> f64 {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                self.glm_kind().expect("glm").accuracy(labels, stats)
            }
            ModelSpec::Mlr { classes } => mlr::accuracy(classes, labels, stats),
            ModelSpec::Fm { factors } => fm::accuracy(factors, labels, stats),
        }
    }

    /// The RowSGD worker step (Algorithm 2, `computeGradients`): computes
    /// the summed gradient of `batch` against a *full* model, as a sparse
    /// message for the master/servers.
    pub fn row_gradient(&self, params: &ParamSet, batch: &CsrMatrix) -> SparseGrad {
        let mut stats = Vec::new();
        // With the full model, the "partial" statistics are already
        // complete — the horizontal path is the vertical path with K=1.
        self.compute_stats(params, batch, &mut stats);
        let mut accum = GradAccum::new(&self.widths());
        self.accumulate_grad(params, batch, &stats, &mut accum);
        accum.to_sparse_grad()
    }

    /// The RowSGD master/server step (Algorithm 2, line 7): applies an
    /// aggregated sparse gradient to (a shard of) the full model.
    ///
    /// `grad` indices must be *local* to `params` (callers shift indices
    /// when the model is sharded over parameter servers).
    pub fn apply_gradient(
        &self,
        params: &mut ParamSet,
        opt: &mut OptimizerState,
        grad: &SparseGrad,
        up: &UpdateParams,
        total_batch: usize,
    ) {
        opt.begin_step();
        let inv_b = 1.0 / total_batch.max(1) as f64;
        let widths = self.widths();
        for (pos, &j) in grad.indices.iter().enumerate() {
            let j = j as usize;
            for (block, &width) in widths.iter().enumerate() {
                for f in 0..width {
                    let g_sum = grad.blocks[block][pos * width + f];
                    if g_sum == 0.0 {
                        continue;
                    }
                    let coord = j * width + f;
                    let w = params.blocks[block][coord];
                    let g = g_sum * inv_b + up.regularizer.subgradient(w);
                    opt.apply(block, &mut params.blocks[block], coord, g, up.learning_rate);
                }
            }
        }
    }

    /// Model output for a single example against a full model: the margin
    /// for GLMs, `ŷ` for FM, and the argmax class (as f64) for MLR.
    pub fn predict(&self, params: &ParamSet, x: &SparseVector) -> f64 {
        let batch = CsrMatrix::from_rows(&[(0.0, x.clone())]);
        let mut stats = Vec::new();
        self.compute_stats(params, &batch, &mut stats);
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => stats[0],
            ModelSpec::Mlr { classes } => stats
                .iter()
                .take(classes)
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(c, _)| c as f64)
                .expect("classes >= 1"),
            ModelSpec::Fm { factors } => fm::predict_from_stats(factors, &stats),
        }
    }
}

/// The master's `reduceStat`: element-wise sum of partial statistics
/// (Algorithm 3 line 10; Figure 12 lines 28-33).
pub fn reduce_stats(acc: &mut [f64], partial: &[f64]) {
    assert_eq!(acc.len(), partial.len(), "statistics length mismatch");
    for (a, p) in acc.iter_mut().zip(partial) {
        *a += p;
    }
}

/// Destination for accumulated gradient coordinates.
///
/// The model kernels emit `(block, coordinate, value)` triples in a
/// deterministic order (row by row, nonzero by nonzero); a sink folds them
/// however it likes. Two implementations exist: [`GradAccum`] (sorted,
/// sparse — the reference, and the RowSGD message builder) and the dense
/// sparse-accumulator inside [`UpdateScratch`] (the allocation-free hot
/// path). Because both fold the identical `+=` sequence per coordinate,
/// their per-coordinate sums are bit-identical.
pub trait GradSink {
    /// Adds `val` to coordinate `coord` of block `block`.
    fn add(&mut self, block: usize, coord: usize, val: f64);
}

impl GradSink for GradAccum {
    fn add(&mut self, block: usize, coord: usize, val: f64) {
        GradAccum::add(self, block, coord, val);
    }
}

/// Dense sparse-accumulator (SPA): per-block dense gradient buffers sized
/// to the parameter blocks, plus a touched-coordinate list and a mark
/// array so only touched entries are visited and cleared. Replaces the
/// `BTreeMap`-backed [`GradAccum`] in the update hot path: accumulation is
/// an array `+=` instead of a tree insert, and nothing allocates after the
/// first use at a given model shape.
#[derive(Debug, Default)]
struct SparseAccum {
    grad: Vec<Vec<f64>>,
    touched: Vec<Vec<usize>>,
    mark: Vec<Vec<bool>>,
}

impl SparseAccum {
    /// Sizes the buffers for `params`, reallocating only on shape growth.
    fn ensure(&mut self, params: &ParamSet) {
        self.grad.resize_with(params.blocks.len(), Vec::new);
        self.touched.resize_with(params.blocks.len(), Vec::new);
        self.mark.resize_with(params.blocks.len(), Vec::new);
        for (b, block) in params.blocks.iter().enumerate() {
            if self.grad[b].len() < block.len() {
                self.grad[b].resize(block.len(), 0.0);
                self.mark[b].resize(block.len(), false);
            }
        }
    }

    /// Visits every touched coordinate in arrival order, skipping exact
    /// zeros (the [`GradAccum::iter_coords`] contract), and resets the
    /// visited entries so the accumulator is clean for the next batch.
    fn drain(&mut self, mut f: impl FnMut(usize, usize, f64)) {
        for (block, touched) in self.touched.iter_mut().enumerate() {
            let grad = &mut self.grad[block];
            let mark = &mut self.mark[block];
            for &coord in touched.iter() {
                let g = grad[coord];
                grad[coord] = 0.0;
                mark[coord] = false;
                if g != 0.0 {
                    f(block, coord, g);
                }
            }
            touched.clear();
        }
    }
}

impl GradSink for SparseAccum {
    fn add(&mut self, block: usize, coord: usize, val: f64) {
        if !self.mark[block][coord] {
            self.mark[block][coord] = true;
            self.touched[block].push(coord);
        }
        self.grad[block][coord] += val;
    }
}

/// Caller-owned scratch space for [`ModelSpec::update_from_stats_with`]
/// (and any other kernel that wants reusable buffers). Holds the dense
/// gradient sparse-accumulator and the MLR softmax buffer; after the first
/// update at a given model shape, the kernel path performs no further heap
/// allocation.
#[derive(Debug, Default)]
pub struct UpdateScratch {
    spa: SparseAccum,
    probs: Vec<f64>,
}

impl UpdateScratch {
    /// A fresh, empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sparse gradient accumulator keyed by (block, feature).
#[derive(Debug, Clone, Default)]
pub struct GradAccum {
    widths: Vec<usize>,
    maps: Vec<BTreeMap<usize, Vec<f64>>>,
}

impl GradAccum {
    /// A fresh accumulator for blocks with the given widths.
    pub fn new(widths: &[usize]) -> Self {
        Self {
            widths: widths.to_vec(),
            maps: widths.iter().map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Adds `val` to coordinate `coord` (= feature·width + component) of
    /// block `block`.
    pub fn add(&mut self, block: usize, coord: usize, val: f64) {
        let width = self.widths[block];
        let feature = coord / width;
        let comp = coord % width;
        self.maps[block]
            .entry(feature)
            .or_insert_with(|| vec![0.0; width])[comp] += val;
    }

    /// Whether nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(BTreeMap::is_empty)
    }

    /// Iterates all `(block, coordinate, value)` triples, skipping exact
    /// zeros.
    pub fn iter_coords(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.maps.iter().enumerate().flat_map(move |(b, map)| {
            let width = self.widths[b];
            map.iter().flat_map(move |(&feature, vals)| {
                vals.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(move |(f, &v)| (b, feature * width + f, v))
            })
        })
    }

    /// Materializes the accumulator as a [`SparseGrad`] over the union of
    /// touched features.
    pub fn to_sparse_grad(&self) -> SparseGrad {
        let features: BTreeSet<usize> = self.maps.iter().flat_map(|m| m.keys().copied()).collect();
        let indices: Vec<FeatureIndex> = features.iter().map(|&f| f as FeatureIndex).collect();
        let blocks = self
            .maps
            .iter()
            .enumerate()
            .map(|(b, map)| {
                let width = self.widths[b];
                let mut vals = Vec::with_capacity(indices.len() * width);
                for &f in &features {
                    match map.get(&f) {
                        Some(v) => vals.extend_from_slice(v),
                        None => vals.extend(std::iter::repeat_n(0.0, width)),
                    }
                }
                vals
            })
            .collect();
        SparseGrad {
            indices,
            blocks,
            widths: self.widths.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerKind;

    fn lr_batch() -> CsrMatrix {
        CsrMatrix::from_rows(&[
            (1.0, SparseVector::from_pairs(vec![(0, 1.0), (2, 1.0)])),
            (-1.0, SparseVector::from_pairs(vec![(1, 1.0), (2, 1.0)])),
        ])
    }

    #[test]
    fn widths_and_stats_width() {
        assert_eq!(ModelSpec::Lr.widths(), vec![1]);
        assert_eq!(ModelSpec::Mlr { classes: 3 }.widths(), vec![1, 1, 1]);
        assert_eq!(ModelSpec::Fm { factors: 10 }.widths(), vec![1, 10]);
        assert_eq!(ModelSpec::Fm { factors: 10 }.stats_width(), 11);
        assert_eq!(ModelSpec::Svm.stats_width(), 1);
        assert_eq!(
            ModelSpec::Fm { factors: 50 }.num_params(54_686_452),
            54_686_452 * 51
        );
    }

    #[test]
    fn reduce_stats_is_elementwise_sum() {
        let mut acc = vec![1.0, 2.0];
        reduce_stats(&mut acc, &[10.0, 20.0]);
        assert_eq!(acc, vec![11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_stats_rejects_mismatch() {
        reduce_stats(&mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    fn grad_accum_roundtrip() {
        let mut a = GradAccum::new(&[1, 2]);
        assert!(a.is_empty());
        a.add(0, 3, 1.0);
        a.add(0, 3, 2.0);
        a.add(1, 7, 5.0); // feature 3, comp 1
        let g = a.to_sparse_grad();
        assert_eq!(g.indices, vec![3]);
        assert_eq!(g.blocks[0], vec![3.0]);
        assert_eq!(g.blocks[1], vec![0.0, 5.0]);
        let coords: Vec<_> = a.iter_coords().collect();
        assert_eq!(coords, vec![(0, 3, 3.0), (1, 7, 5.0)]);
    }

    #[test]
    fn update_from_stats_descends() {
        let spec = ModelSpec::Lr;
        let mut p = spec.init_params(3, 0, |s| s as u64);
        let mut opt = OptimizerState::for_params(OptimizerKind::Sgd, &p);
        let batch = lr_batch();
        let up = UpdateParams::plain(0.5);
        let mut last = f64::INFINITY;
        let mut stats = Vec::new();
        for _ in 0..50 {
            spec.compute_stats(&p, &batch, &mut stats);
            let l = spec.loss_from_stats(batch.labels(), &stats);
            assert!(l <= last + 1e-9, "loss must not increase: {l} > {last}");
            last = l;
            spec.update_from_stats(&mut p, &mut opt, &batch, &stats.clone(), &up, 2);
        }
        assert!(last < 0.3, "final loss {last}");
        // Separating direction learned: w0 > 0, w1 < 0.
        assert!(p.blocks[0][0] > 0.0 && p.blocks[0][1] < 0.0);
    }

    #[test]
    fn row_path_equals_vertical_path_for_k1() {
        // With the full model, applying row_gradient must produce exactly
        // the same parameters as update_from_stats.
        for spec in [ModelSpec::Lr, ModelSpec::Svm, ModelSpec::Fm { factors: 3 }] {
            let batch = lr_batch();
            let up = UpdateParams::plain(0.1);

            let mut p1 = spec.init_params(3, 9, |s| s as u64);
            let mut o1 = OptimizerState::for_params(OptimizerKind::Sgd, &p1);
            let mut stats = Vec::new();
            spec.compute_stats(&p1, &batch, &mut stats);
            let mut p2 = p1.clone();
            let mut o2 = OptimizerState::for_params(OptimizerKind::Sgd, &p2);

            spec.update_from_stats(&mut p1, &mut o1, &batch, &stats, &up, 2);
            let g = spec.row_gradient(&p2, &batch);
            spec.apply_gradient(&mut p2, &mut o2, &g, &up, 2);

            for (b1, b2) in p1.blocks.iter().zip(&p2.blocks) {
                for (x, y) in b1.as_slice().iter().zip(b2.as_slice()) {
                    assert!((x - y).abs() < 1e-12, "{spec:?}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn fm_init_matches_partitioned_init() {
        let spec = ModelSpec::Fm { factors: 4 };
        let full = spec.init_params(10, 77, |s| s as u64);
        // "Worker" owning features {1, 4, 7} via a slot→global map.
        let feats = [1u64, 4, 7];
        let local = spec.init_params(3, 77, |s| feats[s]);
        for (slot, &j) in feats.iter().enumerate() {
            for f in 0..4 {
                assert_eq!(
                    local.blocks[1][slot * 4 + f],
                    full.blocks[1][j as usize * 4 + f]
                );
            }
        }
    }

    #[test]
    fn predict_shapes() {
        let mut p = ModelSpec::Lr.init_params(3, 0, |s| s as u64);
        p.blocks[0] = vec![1.0, -2.0, 0.0].into();
        let x = SparseVector::from_pairs(vec![(0, 2.0), (1, 1.0)]);
        assert_eq!(ModelSpec::Lr.predict(&p, &x), 0.0);

        let spec = ModelSpec::Mlr { classes: 2 };
        let mut p = spec.init_params(2, 0, |s| s as u64);
        p.blocks[1] = vec![5.0, 5.0].into();
        assert_eq!(
            spec.predict(&p, &SparseVector::from_pairs(vec![(0, 1.0)])),
            1.0
        );
    }

    use columnsgd_linalg::SparseVector;
}
