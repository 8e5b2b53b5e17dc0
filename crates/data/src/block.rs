//! Row blocks and the master-side block queue (§IV-A, Figure 5).
//!
//! The master "organizes the row-based training data into a queue of
//! blocks, each with a predefined block size", then assigns block IDs to
//! idle workers which read, split, and shuffle them. Rows inside a block
//! are addressed by their ordinal offset, which combined with the block ID
//! forms the composite row identifier the paper uses instead of a global
//! row id (avoiding a full scan, §IV-A1 "Row Identification").

use std::collections::VecDeque;

use columnsgd_linalg::{CsrMatrix, SparseVector, Value};

/// Identifier of a row block (and of the worksets derived from it).
pub type BlockId = u64;

/// A row-oriented block: a contiguous group of labelled rows in CSR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    id: BlockId,
    data: CsrMatrix,
}

impl Block {
    /// Builds a block from labelled sparse rows.
    pub fn from_rows(id: BlockId, rows: &[(Value, SparseVector)]) -> Self {
        Self {
            id,
            data: CsrMatrix::from_rows(rows),
        }
    }

    /// Wraps an existing CSR matrix as a block.
    pub fn from_csr(id: BlockId, data: CsrMatrix) -> Self {
        Self { id, data }
    }

    /// This block's ID.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Number of rows in the block.
    pub fn nrows(&self) -> usize {
        self.data.nrows()
    }

    /// The underlying CSR matrix.
    pub fn csr(&self) -> &CsrMatrix {
        &self.data
    }

    /// Row `r` of the block as `(label, features)`.
    pub fn row(&self, r: usize) -> (Value, SparseVector) {
        (self.data.label(r), self.data.row_vector(r))
    }

    /// Bytes on the simulated wire (block ID + CSR payload).
    pub fn wire_size(&self) -> usize {
        8 + self.data.wire_size()
    }
}

/// The master-side FIFO queue of blocks awaiting transformation.
///
/// §IV-A step 2: "When a worker is idle, the master assigns one block to it
/// by sending it a block ID." [`BlockQueue::pop`] models that hand-out.
#[derive(Debug, Clone, Default)]
pub struct BlockQueue {
    blocks: VecDeque<Block>,
}

impl BlockQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a block.
    pub fn push(&mut self, block: Block) {
        self.blocks.push_back(block);
    }

    /// Hands the next block to an idle worker; `None` when the queue drains.
    pub fn pop(&mut self) -> Option<Block> {
        self.blocks.pop_front()
    }

    /// Number of blocks still queued.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates the queued blocks without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<(Value, SparseVector)> {
        (0..n)
            .map(|i| (1.0, SparseVector::from_pairs(vec![(i as u64, 1.0)])))
            .collect()
    }

    #[test]
    fn block_roundtrips_rows() {
        let rs = rows(3);
        let b = Block::from_rows(7, &rs);
        assert_eq!(b.id(), 7);
        assert_eq!(b.nrows(), 3);
        for (i, (y, x)) in rs.iter().enumerate() {
            let (y2, x2) = b.row(i);
            assert_eq!(*y, y2);
            assert_eq!(*x, x2);
        }
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = BlockQueue::new();
        for id in 0..3 {
            q.push(Block::from_rows(id, &rows(1)));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().id(), 0);
        assert_eq!(q.pop().unwrap().id(), 1);
        assert_eq!(q.pop().unwrap().id(), 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn wire_size_includes_id_header() {
        let b = Block::from_rows(1, &rows(2));
        assert_eq!(b.wire_size(), 8 + b.csr().wire_size());
    }
}
