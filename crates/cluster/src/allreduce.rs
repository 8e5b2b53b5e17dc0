//! Ring all-reduce over dense buffers.
//!
//! The MLlib* baseline (Zhang et al., ICDE 2019, cited as \[26\]) replaces
//! the master-centric gradient aggregation with model averaging over an
//! AllReduce, the MPICH-style ring algorithm of Thakur et al. \[27\]. This
//! module provides a correct in-memory ring all-reduce whose communication
//! is metered per link, plus the closed-form time model lives in
//! [`crate::netmodel::NetworkModel::allreduce_time`].
//!
//! The implementation is the classic two-phase ring: `k-1` reduce-scatter
//! steps followed by `k-1` all-gather steps, each moving one 1/k chunk per
//! participant per step. We execute it synchronously step by step (the
//! engines call it between supersteps, which is exactly when Spark's
//! barrier would run it), metering every chunk transfer.

use std::time::Duration;

use columnsgd_linalg::DenseVector;

use crate::node::NodeId;
use crate::router::{Endpoint, NetError};
use crate::traffic::TrafficStats;
use crate::wire::{Wire, ENVELOPE_BYTES};

/// Chunk boundaries: splits `len` into `k` nearly-equal ranges.
///
/// Public because distributed ring implementations (e.g. the MLlib*
/// baseline's worker-side ring) must agree on the same chunking.
pub fn chunk_bounds(len: usize, k: usize) -> Vec<(usize, usize)> {
    let base = len / k;
    let extra = len % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let sz = base + usize::from(i < extra);
        out.push((start, start + sz));
        start += sz;
    }
    out
}

/// In-place ring all-reduce (sum) over `buffers`, one per worker.
///
/// After the call every buffer contains the element-wise sum of all inputs.
/// Traffic is recorded on the worker→worker ring links.
///
/// # Panics
/// Panics if the buffers differ in length or `buffers` is empty.
#[expect(
    clippy::needless_range_loop,
    reason = "`w` is the worker id of a simultaneous exchange step"
)]
pub fn ring_allreduce_sum(buffers: &mut [DenseVector], traffic: &TrafficStats) {
    let k = buffers.len();
    assert!(k > 0, "allreduce needs at least one participant");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "allreduce buffers must have equal length"
    );
    if k == 1 {
        return;
    }
    let bounds = chunk_bounds(len, k);
    let record = |from: usize, to: usize, elems: usize, traffic: &TrafficStats| {
        traffic.record(
            NodeId::Worker(from),
            NodeId::Worker(to),
            8 * elems + ENVELOPE_BYTES,
        );
    };

    // Phase 1: reduce-scatter. After step s, worker w has accumulated chunk
    // (w - s) into a partial sum. After k-1 steps worker w owns the complete
    // sum of chunk (w + 1) mod k.
    for step in 0..k - 1 {
        // Gather the chunks to send first (simultaneous exchange).
        let mut outgoing: Vec<Vec<f64>> = Vec::with_capacity(k);
        for w in 0..k {
            let chunk_id = (w + k - step) % k;
            let (lo, hi) = bounds[chunk_id];
            outgoing.push(buffers[w].as_slice()[lo..hi].to_vec());
        }
        for w in 0..k {
            let dst = (w + 1) % k;
            let chunk_id = (w + k - step) % k;
            let (lo, hi) = bounds[chunk_id];
            record(w, dst, hi - lo, traffic);
            let dst_slice = &mut buffers[dst].as_mut_slice()[lo..hi];
            for (d, s) in dst_slice.iter_mut().zip(&outgoing[w]) {
                *d += s;
            }
        }
    }

    // Phase 2: all-gather. Worker w owns the final chunk (w + 1) mod k and
    // circulates it.
    for step in 0..k - 1 {
        let mut outgoing: Vec<Vec<f64>> = Vec::with_capacity(k);
        for w in 0..k {
            let chunk_id = (w + 1 + k - step) % k;
            let (lo, hi) = bounds[chunk_id];
            outgoing.push(buffers[w].as_slice()[lo..hi].to_vec());
        }
        for w in 0..k {
            let dst = (w + 1) % k;
            let chunk_id = (w + 1 + k - step) % k;
            let (lo, hi) = bounds[chunk_id];
            record(w, dst, hi - lo, traffic);
            buffers[dst].as_mut_slice()[lo..hi].copy_from_slice(&outgoing[w]);
        }
    }
}

/// One chunk transfer in the distributed ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RingMsg {
    /// Global step index, `0..2(k-1)`; guards against stale deliveries.
    pub step: u64,
    /// The chunk payload.
    pub chunk: Vec<f64>,
}

impl Wire for RingMsg {
    fn wire_size(&self) -> usize {
        8 + self.chunk.wire_size()
    }
}

/// Ring all-reduce (sum) executed *by* a worker over its [`Endpoint`].
///
/// Unlike [`ring_allreduce_sum`], which the driver computes in-memory,
/// this runs the actual message exchange: each participant sends its
/// chunk to `rank + 1` and receives from `rank - 1`, step by step, with
/// every receive bounded by `step_timeout`. A dead successor surfaces as
/// [`NetError::NodeDown`] on the send; a dead predecessor surfaces as
/// [`NetError::Timeout`] on the receive — the ring degrades into an
/// error, never a hang.
///
/// On success `buffer` contains the element-wise sum of all `k` inputs.
///
/// # Panics
/// Panics if `rank >= k` or `k == 0`.
pub fn ring_allreduce_worker(
    ep: &Endpoint<RingMsg>,
    rank: usize,
    k: usize,
    buffer: &mut DenseVector,
    step_timeout: Duration,
) -> Result<(), NetError> {
    assert!(k > 0, "allreduce needs at least one participant");
    assert!(rank < k, "rank {rank} out of range for {k} participants");
    if k == 1 {
        return Ok(());
    }
    let bounds = chunk_bounds(buffer.len(), k);
    let next = NodeId::Worker((rank + 1) % k);
    let prev_rank = (rank + k - 1) % k;

    let exchange = |step: u64,
                    send_chunk: usize,
                    recv_chunk: usize,
                    buffer: &mut DenseVector,
                    reduce: bool|
     -> Result<(), NetError> {
        let (lo, hi) = bounds[send_chunk];
        ep.send(
            next,
            RingMsg {
                step,
                chunk: buffer.as_slice()[lo..hi].to_vec(),
            },
        )?;
        // Receive the matching-step chunk from the predecessor, skipping
        // any stale duplicates an unreliable wire may have injected.
        let msg = loop {
            let env = ep.recv_timeout(step_timeout)?;
            if env.from == NodeId::Worker(prev_rank) && env.payload.step == step {
                break env.payload;
            }
        };
        let (lo, hi) = bounds[recv_chunk];
        if msg.chunk.len() != hi - lo {
            return Err(NetError::Disconnected);
        }
        let dst = &mut buffer.as_mut_slice()[lo..hi];
        if reduce {
            for (d, s) in dst.iter_mut().zip(&msg.chunk) {
                *d += s;
            }
        } else {
            dst.copy_from_slice(&msg.chunk);
        }
        Ok(())
    };

    // Phase 1: reduce-scatter.
    for step in 0..k - 1 {
        let send_chunk = (rank + k - step) % k;
        let recv_chunk = (rank + k - 1 - step) % k;
        exchange(step as u64, send_chunk, recv_chunk, buffer, true)?;
    }
    // Phase 2: all-gather.
    for step in 0..k - 1 {
        let send_chunk = (rank + 1 + k - step) % k;
        let recv_chunk = (rank + k - step) % k;
        exchange((k - 1 + step) as u64, send_chunk, recv_chunk, buffer, false)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Router;

    fn check_sum(k: usize, len: usize) {
        let mut buffers: Vec<DenseVector> = (0..k)
            .map(|w| DenseVector::from_vec((0..len).map(|i| (w * len + i) as f64).collect()))
            .collect();
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..k).map(|w| (w * len + i) as f64).sum())
            .collect();
        let traffic = TrafficStats::new();
        ring_allreduce_sum(&mut buffers, &traffic);
        for b in &buffers {
            for (got, want) in b.as_slice().iter().zip(&expected) {
                assert!((got - want).abs() < 1e-9, "k={k} len={len}");
            }
        }
    }

    #[test]
    fn sums_correctly_various_shapes() {
        for k in [1, 2, 3, 4, 7, 8] {
            for len in [1, 2, 7, 16, 100] {
                if len >= 1 {
                    check_sum(k, len);
                }
            }
        }
    }

    #[test]
    fn traffic_matches_ring_volume() {
        let k = 4;
        let len = 100;
        let mut buffers: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(len)).collect();
        let traffic = TrafficStats::new();
        ring_allreduce_sum(&mut buffers, &traffic);
        let total = traffic.total();
        // 2(k-1) steps, k messages per step.
        assert_eq!(total.messages, (2 * (k - 1) * k) as u64);
        // Each worker sends ~2(k-1)/k of the buffer: total data bytes =
        // 2(k-1) * len * 8.
        let data_bytes = total.bytes - total.messages * ENVELOPE_BYTES as u64;
        assert_eq!(data_bytes, (2 * (k - 1) * len * 8) as u64);
    }

    #[test]
    fn single_participant_is_noop() {
        let mut buffers = vec![DenseVector::from_vec(vec![1.0, 2.0])];
        let traffic = TrafficStats::new();
        ring_allreduce_sum(&mut buffers, &traffic);
        assert_eq!(buffers[0].as_slice(), &[1.0, 2.0]);
        assert_eq!(traffic.total().messages, 0);
    }

    #[test]
    fn uneven_chunks_handled() {
        check_sum(3, 10); // 10 = 4 + 3 + 3
        check_sum(8, 5); // more workers than elements
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_mismatched_lengths() {
        let mut buffers = vec![DenseVector::zeros(3), DenseVector::zeros(4)];
        ring_allreduce_sum(&mut buffers, &TrafficStats::new());
    }

    #[test]
    fn distributed_ring_matches_in_memory() {
        let k = 4;
        let len = 10;
        let ids: Vec<NodeId> = (0..k).map(NodeId::Worker).collect();
        let traffic = TrafficStats::new();
        let (_router, eps) = Router::<RingMsg>::new(&ids, traffic.clone());
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                std::thread::spawn(move || {
                    let mut buf =
                        DenseVector::from_vec((0..len).map(|i| (rank * len + i) as f64).collect());
                    ring_allreduce_worker(&ep, rank, k, &mut buf, Duration::from_secs(5)).unwrap();
                    buf
                })
            })
            .collect();
        let expected: Vec<f64> = (0..len)
            .map(|i| (0..k).map(|w| (w * len + i) as f64).sum())
            .collect();
        for h in handles {
            let buf = h.join().unwrap();
            for (got, want) in buf.as_slice().iter().zip(&expected) {
                assert!((got - want).abs() < 1e-9);
            }
        }
        // Same volume as the in-memory version.
        assert_eq!(traffic.total().messages, (2 * (k - 1) * k) as u64);
    }

    #[test]
    fn dead_worker_surfaces_node_down_not_a_hang() {
        let k = 4;
        let dead = 2usize;
        let ids: Vec<NodeId> = (0..k).map(NodeId::Worker).collect();
        let (_router, eps) = Router::<RingMsg>::new(&ids, TrafficStats::new());
        // Worker `dead` dies before the collective starts: its endpoint
        // (and therefore its mailbox) is gone.
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .filter(|&(rank, _)| rank != dead)
            .map(|(rank, ep)| {
                std::thread::spawn(move || {
                    let mut buf = DenseVector::zeros(8);
                    let res =
                        ring_allreduce_worker(&ep, rank, k, &mut buf, Duration::from_millis(200));
                    (rank, res)
                })
            })
            .collect();
        let mut results = std::collections::BTreeMap::new();
        for h in handles {
            let (rank, res) = h.join().unwrap();
            results.insert(rank, res);
        }
        // The dead worker's predecessor sees NodeDown on its send; the
        // successor sees Timeout waiting for the chunk. Nobody hangs.
        assert_eq!(
            results[&((dead + k - 1) % k)],
            Err(NetError::NodeDown(NodeId::Worker(dead)))
        );
        assert_eq!(results[&((dead + 1) % k)], Err(NetError::Timeout));
    }
}
