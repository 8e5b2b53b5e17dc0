//! Worksets: column-partitioned block pieces, and the dispatch schemes.
//!
//! §IV-A: a worker that receives a block "reads in the block, and splits it
//! into K worksets. Each workset contains a column-based partition of the
//! rows in this block as well as the block ID", encoded in CSR, and ships
//! each workset to its destination worker, where all received worksets are
//! organized as a hash map keyed by block ID (Algorithm 4 line 7).
//!
//! Feature indices inside a workset are **remapped to the owner's local
//! model slots** at split time, so that statistics computation is a plain
//! CSR×dense product against the local model partition with no per-nonzero
//! translation during training.

#![expect(clippy::disallowed_types, reason = "point lookups, never iterated")]

use std::collections::HashMap;

use columnsgd_linalg::{CsrMatrix, FeatureIndex, Value};

use crate::block::{Block, BlockId};
use crate::partition::ColumnPartitioner;

/// One column-partition of one block, destined for a single worker.
///
/// Invariant: `data.nrows()` equals the source block's row count — rows with
/// no features in this partition are present but empty, so the (block,
/// offset) addressing of the two-phase index stays aligned across workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Workset {
    /// ID of the source block.
    pub block_id: BlockId,
    /// Column-partitioned rows; indices are *local model slots*.
    pub data: CsrMatrix,
}

impl Workset {
    /// Number of rows (equals the source block's row count).
    pub fn nrows(&self) -> usize {
        self.data.nrows()
    }

    /// Bytes on the simulated wire (block ID + CSR payload).
    pub fn wire_size(&self) -> usize {
        8 + self.data.wire_size()
    }
}

/// Splits a block into one workset per worker (Algorithm 4, lines 2-6).
///
/// Every output workset has the same number of rows as the block; global
/// feature indices are remapped to the owner's local slots.
pub fn split_block(block: &Block, part: &ColumnPartitioner) -> Vec<Workset> {
    let k = part.num_workers();
    let mut csrs: Vec<CsrMatrix> = vec![CsrMatrix::new(); k];
    // Reusable per-row scratch, one (slots, values) pair list per worker.
    let mut scratch: Vec<Vec<(FeatureIndex, Value)>> = vec![Vec::new(); k];
    for (label, idx, val) in block.csr().iter_rows() {
        for s in &mut scratch {
            s.clear();
        }
        for (&i, &v) in idx.iter().zip(val) {
            let w = part.owner(i);
            scratch[w].push((part.local_slot(i) as FeatureIndex, v));
        }
        for (w, s) in scratch.iter_mut().enumerate() {
            // Local slots inherit the global ordering within one worker for
            // both partitioner kinds, so each row's slots arrive sorted.
            debug_assert!(s.windows(2).all(|p| p[0].0 < p[1].0));
            let (is, vs): (Vec<_>, Vec<_>) = s.iter().copied().unzip();
            csrs[w].push_raw_row(label, &is, &vs);
        }
    }
    csrs.into_iter()
        .map(|data| Workset {
            block_id: block.id(),
            data,
        })
        .collect()
}

/// Metering counts for a dispatch strategy, consumed by the Figure 7
/// reproduction: how many discrete objects were serialized and shipped, and
/// how many payload bytes they carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchStats {
    /// Number of serialized objects sent over the network.
    pub objects: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

impl DispatchStats {
    /// Accumulates another stats record.
    pub fn add(&mut self, other: DispatchStats) {
        self.objects += other.objects;
        self.bytes += other.bytes;
    }
}

/// Block-based dispatch of one block: K CSR workset objects.
pub fn block_dispatch_stats(block: &Block, part: &ColumnPartitioner) -> DispatchStats {
    let worksets = split_block(block, part);
    DispatchStats {
        objects: worksets.len() as u64,
        bytes: worksets.iter().map(|w| w.wire_size() as u64).sum(),
    }
}

/// Naive dispatch of one block: each *row* is split and its K pieces are
/// sent as individual objects ("Naive-ColumnSGD", §IV-A1: partitioning each
/// row "on the fly" transfers K× more objects through the network).
///
/// Every piece pays its own label, block id, offset, and length header —
/// the serialization overhead Figure 7 measures.
pub fn naive_dispatch_stats(block: &Block, part: &ColumnPartitioner) -> DispatchStats {
    let k = part.num_workers();
    let mut stats = DispatchStats::default();
    for r in 0..block.nrows() {
        let (_, row) = block.row(r);
        let pieces = row.split_by(k, |i| part.owner(i));
        for piece in pieces {
            stats.objects += 1;
            // block id + offset + label + sparse payload
            stats.bytes += (8 + 8 + 8 + piece.wire_size()) as u64;
        }
    }
    stats
}

/// The per-worker store of received worksets (Algorithm 4 line 7:
/// "Organize all worksets in each worker as a hash map").
#[derive(Debug, Clone, Default)]
pub struct WorksetStore {
    map: HashMap<BlockId, Workset>,
    /// Block IDs in insertion order with cumulative row counts, kept for
    /// O(log #blocks) row addressing by the two-phase index.
    order: Vec<(BlockId, usize)>,
    total_rows: usize,
}

impl WorksetStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a received workset.
    ///
    /// # Panics
    /// Panics if a workset with the same block ID was already inserted —
    /// each (block, worker) pair is shipped exactly once.
    pub fn insert(&mut self, ws: Workset) {
        let rows = ws.nrows();
        let bid = ws.block_id;
        let prev = self.map.insert(bid, ws);
        assert!(prev.is_none(), "duplicate workset for block {bid}");
        self.total_rows += rows;
        let prior = self.order.last().map_or(0, |&(_, cum)| cum);
        self.order.push((bid, prior + rows));
    }

    /// Number of worksets held.
    pub fn num_blocks(&self) -> usize {
        self.map.len()
    }

    /// Total rows across all worksets.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// The workset for `block_id`, if present.
    pub fn get(&self, block_id: BlockId) -> Option<&Workset> {
        self.map.get(&block_id)
    }

    /// Removes every workset (worker-failure recovery path).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.total_rows = 0;
    }

    /// Iterates `(block_id, workset)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &Workset)> {
        self.map.iter()
    }

    /// Block IDs with cumulative row counts in insertion order — the
    /// phase-one lookup table of the two-phase index.
    pub fn cumulative_rows(&self) -> &[(BlockId, usize)] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_linalg::SparseVector;

    fn block(id: BlockId, n: usize, dim: u64) -> Block {
        let rows: Vec<(Value, SparseVector)> = (0..n)
            .map(|r| {
                let pairs = (0..dim)
                    .filter(|i| (i + r as u64).is_multiple_of(3))
                    .map(|i| (i, (i + 1) as f64))
                    .collect();
                (
                    if r % 2 == 0 { 1.0 } else { -1.0 },
                    SparseVector::from_pairs(pairs),
                )
            })
            .collect();
        Block::from_rows(id, &rows)
    }

    #[test]
    fn split_preserves_row_count_and_nnz() {
        let b = block(3, 5, 20);
        let p = ColumnPartitioner::round_robin(4);
        let ws = split_block(&b, &p);
        assert_eq!(ws.len(), 4);
        for w in &ws {
            assert_eq!(w.nrows(), 5);
            assert_eq!(w.block_id, 3);
            w.data.validate().unwrap();
        }
        let total: usize = ws.iter().map(|w| w.data.nnz()).sum();
        assert_eq!(total, b.csr().nnz());
    }

    #[test]
    fn split_remaps_to_local_slots_losslessly() {
        let b = block(0, 4, 15);
        for p in [
            ColumnPartitioner::round_robin(3),
            ColumnPartitioner::range(3, 15),
        ] {
            let ws = split_block(&b, &p);
            // Reconstruct each row from the worksets and compare.
            for r in 0..b.nrows() {
                let (label, orig) = b.row(r);
                let mut pairs = Vec::new();
                for (w, wset) in ws.iter().enumerate() {
                    assert_eq!(wset.data.label(r), label);
                    let (slots, vals) = wset.data.row(r);
                    for (&s, &v) in slots.iter().zip(vals) {
                        pairs.push((p.global_index(w, s as usize), v));
                    }
                }
                assert_eq!(SparseVector::from_pairs(pairs), orig);
            }
        }
    }

    #[test]
    fn naive_sends_k_objects_per_row() {
        let b = block(0, 6, 12);
        let p = ColumnPartitioner::round_robin(4);
        let naive = naive_dispatch_stats(&b, &p);
        let blocked = block_dispatch_stats(&b, &p);
        assert_eq!(naive.objects, 6 * 4);
        assert_eq!(blocked.objects, 4);
        assert!(
            naive.bytes > blocked.bytes,
            "naive {naive:?} vs blocked {blocked:?}"
        );
    }

    #[test]
    fn store_tracks_rows_and_blocks() {
        let p = ColumnPartitioner::round_robin(2);
        let mut store = WorksetStore::new();
        for id in 0..3u64 {
            let ws = split_block(&block(id, 4, 8), &p);
            store.insert(ws.into_iter().next().unwrap());
        }
        assert_eq!(store.num_blocks(), 3);
        assert_eq!(store.total_rows(), 12);
        assert!(store.get(1).is_some());
        assert!(store.get(9).is_none());
        let cum = store.cumulative_rows();
        assert_eq!(cum.len(), 3);
        assert_eq!(cum[2].1, 12);
        store.clear();
        assert_eq!(store.total_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate workset")]
    fn store_rejects_duplicates() {
        let p = ColumnPartitioner::round_robin(2);
        let mut store = WorksetStore::new();
        let ws = split_block(&block(0, 2, 4), &p);
        store.insert(ws[0].clone());
        store.insert(ws[0].clone());
    }
}
