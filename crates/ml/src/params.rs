//! Parameter containers, sparse gradients, and update hyper-parameters.

use columnsgd_linalg::{DenseVector, FeatureIndex};

use crate::regularizer::Regularizer;

/// A set of parameter blocks.
///
/// Every model is a list of dense blocks with a fixed number of values per
/// feature ("width"):
///
/// * GLMs: one block, width 1 (the weight vector `w`);
/// * MLR with C classes: C blocks of width 1 (`w_1 … w_C`);
/// * FM with F factors: block 0 is `w` (width 1), block 1 is `V` stored
///   row-major per feature (width F: `V[j*F + f]`).
///
/// The same type represents a *full* model (dimension m, RowSGD) and a
/// *local partition* (dimension `local_dim`, ColumnSGD) — the layout is
/// identical, only the feature→slot mapping differs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSet {
    /// The parameter blocks.
    pub blocks: Vec<DenseVector>,
    /// Values per feature in each block (parallel to `blocks`).
    pub widths: Vec<usize>,
}

impl ParamSet {
    /// Allocates zeroed blocks for `dim` features with the given widths.
    pub fn zeros(dim: usize, widths: &[usize]) -> Self {
        Self {
            blocks: widths.iter().map(|w| DenseVector::zeros(dim * w)).collect(),
            widths: widths.to_vec(),
        }
    }

    /// Number of features this set covers (slots per width-1 block).
    pub fn dim(&self) -> usize {
        match (self.blocks.first(), self.widths.first()) {
            (Some(b), Some(&w)) if w > 0 => b.len() / w,
            _ => 0,
        }
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.blocks.iter().map(DenseVector::len).sum()
    }

    /// Zeroes every block in place (worker-failure recovery: "randomly
    /// assign some values (e.g., all zeros) to this model partition", §X).
    pub fn reset(&mut self) {
        for b in &mut self.blocks {
            b.fill_zero();
        }
    }

    /// Bytes on the simulated wire.
    pub fn wire_size(&self) -> usize {
        8 + self
            .blocks
            .iter()
            .map(DenseVector::wire_size)
            .sum::<usize>()
    }
}

/// A sparse gradient over a set of (global or local) feature indices.
///
/// `indices` are sorted and unique; `blocks[b]` holds
/// `indices.len() * widths[b]` values, laid out per feature then per
/// width-component — the message RowSGD workers push (Algorithm 2 line 15).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseGrad {
    /// Touched feature indices, sorted, unique.
    pub indices: Vec<FeatureIndex>,
    /// Per-block gradient values.
    pub blocks: Vec<Vec<f64>>,
    /// Values per feature per block.
    pub widths: Vec<usize>,
}

impl SparseGrad {
    /// Number of touched features.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Element-wise sum with another gradient (union of indices).
    ///
    /// This is the master-side aggregation of Algorithm 2 (line 6):
    /// `g_t <- Σ_k g_t^k`.
    #[expect(
        clippy::needless_range_loop,
        reason = "`blk` is a block id shared by three arrays"
    )]
    pub fn merge(&self, other: &SparseGrad) -> SparseGrad {
        if self.indices.is_empty() {
            return other.clone();
        }
        if other.indices.is_empty() {
            return self.clone();
        }
        assert_eq!(self.widths, other.widths, "gradient width mismatch");
        let nb = self.widths.len();
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut blocks: Vec<Vec<f64>> = self
            .widths
            .iter()
            .map(|w| Vec::with_capacity((self.nnz() + other.nnz()) * w))
            .collect();
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.nnz() || b < other.nnz() {
            let take_a =
                b >= other.nnz() || (a < self.nnz() && self.indices[a] <= other.indices[b]);
            let take_b =
                a >= self.nnz() || (b < other.nnz() && other.indices[b] <= self.indices[a]);
            let idx = if take_a {
                self.indices[a]
            } else {
                other.indices[b]
            };
            indices.push(idx);
            for blk in 0..nb {
                let w = self.widths[blk];
                for f in 0..w {
                    let mut v = 0.0;
                    if take_a {
                        v += self.blocks[blk][a * w + f];
                    }
                    if take_b && (!take_a || other.indices[b] == idx) {
                        v += other.blocks[blk][b * w + f];
                    }
                    blocks[blk].push(v);
                }
            }
            if take_a {
                a += 1;
            }
            if take_b {
                b += 1;
            }
        }
        SparseGrad {
            indices,
            blocks,
            widths: self.widths.clone(),
        }
    }

    /// Scales every value in place (e.g. dividing by the batch size).
    pub fn scale(&mut self, factor: f64) {
        for blk in &mut self.blocks {
            for v in blk.iter_mut() {
                *v *= factor;
            }
        }
    }

    /// Bytes on the simulated wire: indices + values + headers.
    pub fn wire_size(&self) -> usize {
        16 + 8 * self.indices.len() + 8 * self.blocks.iter().map(Vec::len).sum::<usize>()
    }
}

/// Hyper-parameters for one model update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateParams {
    /// Learning rate η.
    pub learning_rate: f64,
    /// Regularization term Ω(w).
    pub regularizer: Regularizer,
}

impl UpdateParams {
    /// Plain SGD with learning rate η and no regularization.
    pub fn plain(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            regularizer: Regularizer::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_layout() {
        let p = ParamSet::zeros(10, &[1, 4]);
        assert_eq!(p.dim(), 10);
        assert_eq!(p.num_params(), 10 + 40);
        assert_eq!(p.blocks[1].len(), 40);
    }

    #[test]
    fn reset_zeroes_all() {
        let mut p = ParamSet::zeros(3, &[1]);
        p.blocks[0].set(1, 5.0);
        p.reset();
        assert_eq!(p.blocks[0].as_slice(), &[0.0; 3]);
    }

    #[test]
    fn merge_unions_indices() {
        let a = SparseGrad {
            indices: vec![1, 5],
            blocks: vec![vec![1.0, 2.0]],
            widths: vec![1],
        };
        let b = SparseGrad {
            indices: vec![5, 9],
            blocks: vec![vec![10.0, 20.0]],
            widths: vec![1],
        };
        let m = a.merge(&b);
        assert_eq!(m.indices, vec![1, 5, 9]);
        assert_eq!(m.blocks[0], vec![1.0, 12.0, 20.0]);
        // merge with empty is identity
        let e = SparseGrad::default();
        assert_eq!(a.merge(&e), a);
        assert_eq!(e.merge(&b), b);
    }

    #[test]
    fn merge_multiblock_widths() {
        let a = SparseGrad {
            indices: vec![2],
            blocks: vec![vec![1.0], vec![1.0, 2.0]],
            widths: vec![1, 2],
        };
        let b = SparseGrad {
            indices: vec![2, 3],
            blocks: vec![vec![5.0, 6.0], vec![10.0, 20.0, 30.0, 40.0]],
            widths: vec![1, 2],
        };
        let m = a.merge(&b);
        assert_eq!(m.indices, vec![2, 3]);
        assert_eq!(m.blocks[0], vec![6.0, 6.0]);
        assert_eq!(m.blocks[1], vec![11.0, 22.0, 30.0, 40.0]);
    }

    #[test]
    fn scale_divides_by_batch() {
        let mut g = SparseGrad {
            indices: vec![0, 1],
            blocks: vec![vec![4.0, 8.0]],
            widths: vec![1],
        };
        g.scale(0.25);
        assert_eq!(g.blocks[0], vec![1.0, 2.0]);
    }

    #[test]
    fn wire_sizes() {
        let g = SparseGrad {
            indices: vec![0, 1],
            blocks: vec![vec![4.0, 8.0]],
            widths: vec![1],
        };
        assert_eq!(g.wire_size(), 16 + 16 + 16);
        let p = ParamSet::zeros(4, &[1]);
        assert_eq!(p.wire_size(), 8 + (8 + 32));
    }
}
