//! Dense vectors: the representation of (partitions of) model parameters.

use crate::{SparseVector, Value};

/// A dense `f64` vector.
///
/// Model partitions in ColumnSGD, the full model at the RowSGD master, and
/// per-server model shards in the parameter-server baselines are all
/// `DenseVector`s. The newtype carries the handful of BLAS-1 style kernels
/// SGD needs, keeps call sites readable, and gives us one place to meter
/// wire sizes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseVector(Vec<Value>);

impl DenseVector {
    /// A vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self(vec![0.0; len])
    }

    /// Wraps an existing `Vec`.
    pub fn from_vec(v: Vec<Value>) -> Self {
        Self(v)
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has zero dimensions.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read-only view of the underlying storage.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [Value] {
        &mut self.0
    }

    /// Consumes the wrapper and returns the underlying `Vec`.
    pub fn into_vec(self) -> Vec<Value> {
        self.0
    }

    /// `self[i]`, panicking on out of range like slice indexing.
    pub fn get(&self, i: usize) -> Value {
        self.0[i]
    }

    /// Sets `self[i] = v`.
    pub fn set(&mut self, i: usize, v: Value) {
        self.0[i] = v;
    }

    /// Resets every component to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.0.fill(0.0);
    }

    /// Dense dot product. Panics if lengths differ.
    pub fn dot(&self, other: &DenseVector) -> Value {
        assert_eq!(self.len(), other.len(), "dense dot dimension mismatch");
        self.0.iter().zip(&other.0).map(|(a, b)| a * b).sum()
    }

    /// `self += alpha * x` for dense `x`. Panics if lengths differ.
    pub fn axpy(&mut self, alpha: Value, x: &DenseVector) {
        assert_eq!(self.len(), x.len(), "axpy dimension mismatch");
        for (a, b) in self.0.iter_mut().zip(&x.0) {
            *a += alpha * b;
        }
    }

    /// `self[i] += alpha * x[i]` for every nonzero of sparse `x`.
    ///
    /// Indices at or beyond `self.len()` are ignored so that a partial model
    /// can absorb an update expressed against global feature indices.
    pub fn axpy_sparse(&mut self, alpha: Value, x: &SparseVector) {
        for (i, v) in x.iter() {
            if let Some(slot) = self.0.get_mut(i as usize) {
                *slot += alpha * v;
            }
        }
    }

    /// Scales every component in place.
    pub fn scale(&mut self, factor: Value) {
        for v in &mut self.0 {
            *v *= factor;
        }
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> Value {
        self.0.iter().map(|v| v * v).sum()
    }

    /// L1 norm.
    pub fn norm_l1(&self) -> Value {
        self.0.iter().map(|v| v.abs()).sum()
    }

    /// Element-wise sum of a slice of equal-length vectors.
    ///
    /// This is the `reduceStat` aggregation shape the ColumnSGD master uses:
    /// partial statistics vectors arrive from workers and are summed
    /// component-wise (Algorithm 3, line 10).
    pub fn sum_all(vectors: &[DenseVector]) -> DenseVector {
        let mut iter = vectors.iter();
        let Some(first) = iter.next() else {
            return DenseVector::default();
        };
        let mut acc = first.clone();
        for v in iter {
            acc.axpy(1.0, v);
        }
        acc
    }

    /// Extracts the values at the given (global) indices, i.e. a "sparse
    /// pull" of the model, the MXNet optimization the paper describes in §V-B.
    pub fn gather(&self, indices: &[crate::FeatureIndex]) -> SparseVector {
        let pairs = indices
            .iter()
            .filter_map(|&i| self.0.get(i as usize).map(|&v| (i, v)))
            .collect();
        SparseVector::from_pairs(pairs)
    }

    /// Wire size: 8 bytes per component plus an 8-byte length header.
    pub fn wire_size(&self) -> usize {
        8 + 8 * self.len()
    }
}

impl From<Vec<Value>> for DenseVector {
    fn from(v: Vec<Value>) -> Self {
        Self(v)
    }
}

impl std::ops::Index<usize> for DenseVector {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, i: usize) -> &mut Value {
        &mut self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = DenseVector::zeros(4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.as_slice(), &[0.0; 4]);
    }

    #[test]
    fn dot_and_axpy() {
        let a = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.as_slice(), &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn axpy_sparse_ignores_out_of_range() {
        let mut w = DenseVector::zeros(3);
        let g = SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0), (7, 100.0)]);
        w.axpy_sparse(-0.5, &g);
        assert_eq!(w.as_slice(), &[-0.5, 0.0, -1.0]);
    }

    #[test]
    fn sum_all_matches_manual() {
        let vs = vec![
            DenseVector::from_vec(vec![1.0, 2.0]),
            DenseVector::from_vec(vec![10.0, 20.0]),
            DenseVector::from_vec(vec![100.0, 200.0]),
        ];
        assert_eq!(DenseVector::sum_all(&vs).as_slice(), &[111.0, 222.0]);
        assert!(DenseVector::sum_all(&[]).is_empty());
    }

    #[test]
    fn gather_is_sparse_pull() {
        let w = DenseVector::from_vec(vec![0.5, 1.5, 2.5]);
        let pulled = w.gather(&[0, 2, 9]);
        assert_eq!(pulled.indices(), &[0, 2]);
        assert_eq!(pulled.values(), &[0.5, 2.5]);
    }

    #[test]
    fn norms() {
        let v = DenseVector::from_vec(vec![3.0, -4.0]);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.norm_l1(), 7.0);
    }
}
