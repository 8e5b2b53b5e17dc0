//! The frame-length identity for the RowSGD baseline protocol: every
//! `RowMsg` kind serializes to exactly `wire_size() + ENVELOPE_BYTES`
//! envelope bytes — under randomized payloads (proptest), and across a
//! real loopback-TCP socket per message kind (the hub's ingress
//! re-asserts the identity on every admitted frame).

use std::sync::Arc;
use std::time::Duration;

use columnsgd_cluster::codec::{decode_body_checked, decode_envelope_header, WireCodec};
use columnsgd_cluster::telemetry::{Plane, Recorder};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{NodeId, Router, TcpClient, TcpHub, TrafficStats, Wire};
use columnsgd_linalg::{CsrMatrix, SparseVector};
use columnsgd_ml::params::{ParamSet, SparseGrad};
use columnsgd_rowsgd::msg::RowMsg;
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [-500, 500) from an integer stream.
fn noise(seed: u64, i: u64) -> f64 {
    (((seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % 1000) as f64 - 500.0
}

fn sample_rows(seed: u64, nrows: usize) -> CsrMatrix {
    let rows: Vec<(f64, SparseVector)> = (0..nrows)
        .map(|r| {
            let label = if (seed + r as u64).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let pairs: Vec<(u64, f64)> = (0..1 + (seed + r as u64) % 4)
                .map(|j| (r as u64 * 13 + j * 2, noise(seed, r as u64 * 5 + j)))
                .collect();
            (label, SparseVector::from_pairs(pairs))
        })
        .collect();
    CsrMatrix::from_rows(&rows)
}

fn sample_params(seed: u64, dim: usize, widths: &[usize]) -> ParamSet {
    let mut p = ParamSet::zeros(dim, widths);
    for (bi, b) in p.blocks.iter_mut().enumerate() {
        for i in 0..b.len() {
            b.set(i, noise(seed, (bi * 1000 + i) as u64));
        }
    }
    p
}

fn sample_grad(seed: u64, nnz: usize, widths: &[usize]) -> SparseGrad {
    SparseGrad {
        indices: (0..nnz as u64).map(|i| i * 3 + seed % 7).collect(),
        blocks: widths
            .iter()
            .map(|w| (0..nnz * w).map(|i| noise(seed, i as u64)).collect())
            .collect(),
        widths: widths.to_vec(),
    }
}

/// One randomized instance of every `RowMsg` variant.
fn all_variants(seed: u64, nrows: usize, data: Vec<f64>) -> Vec<RowMsg> {
    let widths = match seed % 3 {
        0 => vec![1],
        1 => vec![1, 1 + (seed % 8) as usize],
        _ => vec![1; 2 + (seed % 6) as usize],
    };
    let dim = 2 + (seed % 7) as usize;
    let msgs = vec![
        RowMsg::LoadRows(sample_rows(seed, nrows)),
        RowMsg::LoadAck {
            worker: (seed % 16) as usize,
        },
        RowMsg::FullModelGrad {
            iteration: seed,
            params: sample_params(seed, dim, &widths),
        },
        RowMsg::RequestIndices { iteration: seed },
        RowMsg::IndicesReply {
            iteration: seed,
            worker: (seed % 16) as usize,
            indices: (0..nrows as u64).map(|i| i * 5 + seed % 11).collect(),
            compute_s: noise(seed, 1).abs(),
        },
        RowMsg::SparseModelGrad {
            iteration: seed,
            values: sample_grad(seed, nrows, &widths),
        },
        RowMsg::GradReplySparse {
            iteration: seed,
            worker: (seed % 16) as usize,
            grad: sample_grad(seed.wrapping_add(1), nrows, &widths),
            loss: noise(seed, 2),
            compute_s: noise(seed, 3).abs(),
        },
        RowMsg::GradReplyDense {
            iteration: seed,
            worker: (seed % 16) as usize,
            grad: sample_params(seed.wrapping_add(2), dim, &widths),
            loss: noise(seed, 4),
            compute_s: noise(seed, 5).abs(),
        },
        RowMsg::LocalStep { iteration: seed },
        RowMsg::RingChunk {
            phase: (seed % 2) as u8,
            step: (seed % 100) as u32,
            data: data.clone(),
        },
        RowMsg::StepDone {
            iteration: seed,
            worker: (seed % 16) as usize,
            loss: noise(seed, 6),
            compute_s: noise(seed, 7).abs(),
        },
        RowMsg::FetchModel,
        RowMsg::ModelReply {
            worker: (seed % 16) as usize,
            params: sample_params(seed.wrapping_add(3), dim, &widths),
        },
        RowMsg::Shutdown,
    ];
    msgs
}

/// Position of `m`'s variant in declaration order. Wildcard-free on
/// purpose: a new `RowMsg` variant does not compile here until it gets
/// an index, and then `all_variants_has_one_sample_per_variant` fails
/// until `all_variants` carries a sample of it.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn variant_index(m: &RowMsg) -> usize {
    match m {
        RowMsg::LoadRows(..) => 0,
        RowMsg::LoadAck { .. } => 1,
        RowMsg::FullModelGrad { .. } => 2,
        RowMsg::RequestIndices { .. } => 3,
        RowMsg::IndicesReply { .. } => 4,
        RowMsg::SparseModelGrad { .. } => 5,
        RowMsg::GradReplySparse { .. } => 6,
        RowMsg::GradReplyDense { .. } => 7,
        RowMsg::LocalStep { .. } => 8,
        RowMsg::RingChunk { .. } => 9,
        RowMsg::StepDone { .. } => 10,
        RowMsg::FetchModel => 11,
        RowMsg::ModelReply { .. } => 12,
        RowMsg::Shutdown => 13,
    }
}

/// Number of `RowMsg` variants: one past the largest `variant_index`.
const VARIANTS: usize = 14;

/// Every variant has exactly one sample in `all_variants`, so the codec
/// properties in this file cover the whole protocol.
#[test]
fn all_variants_has_one_sample_per_variant() {
    let mut counts = [0usize; VARIANTS];
    for m in all_variants(1, 2, vec![0.5]) {
        counts[variant_index(&m)] += 1;
    }
    assert_eq!(counts, [1; VARIANTS], "samples per variant index");
}

fn body_bytes(m: &RowMsg) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_body(&mut out).expect("encode");
    out
}

proptest! {
    /// For every message kind, under randomized payloads: the full
    /// envelope frame is exactly `wire_size() + ENVELOPE_BYTES` bytes,
    /// the header decodes, and decode∘encode is the identity (compared
    /// via re-encoded bytes — `RowMsg` is not `PartialEq`).
    #[test]
    fn every_kind_frames_at_wire_size(
        seed in 0u64..1_000_000,
        nrows in 1usize..6,
        data in prop::collection::vec(0u64..100_000, 0..12),
    ) {
        let data: Vec<f64> = data.iter().map(|&x| x as f64 * 0.25 - 12_500.0).collect();
        for msg in all_variants(seed, nrows, data) {
            let frame = columnsgd_cluster::codec::encode_envelope(
                NodeId::Worker(0),
                NodeId::Master,
                &msg,
                Plane::Data,
            )
            .expect("encodable");
            prop_assert_eq!(
                frame.len(),
                msg.wire_size() + ENVELOPE_BYTES,
                "frame length != wire_size + envelope for {}",
                msg.name()
            );
            let header = decode_envelope_header(&frame).expect("header");
            prop_assert_eq!(header.body_len, msg.wire_size());
            let back: RowMsg = decode_body_checked(&frame).expect("decode");
            prop_assert_eq!(body_bytes(&back), body_bytes(&msg), "roundtrip for {}", msg.name());
        }
    }
}

/// Every message kind survives a real loopback-TCP round trip via an
/// echo worker thread; the hub's ingress asserts the frame-length
/// identity on every admitted frame, and the meter records exactly
/// `wire_size + ENVELOPE_BYTES` per crossing.
#[test]
fn every_kind_roundtrips_over_loopback_tcp() {
    let ids = [NodeId::Master, NodeId::Worker(0)];
    let traffic = TrafficStats::new();
    let hub: TcpHub<RowMsg> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
    let router = Router::with_transport(
        Arc::new(hub.clone()),
        &ids,
        traffic.clone(),
        None,
        Recorder::disabled(),
    );
    let master = hub.local_endpoint(NodeId::Master, &router);
    hub.start(router);
    let addr = hub.addr();
    let echo = std::thread::spawn(move || {
        let (_r, ep) = TcpClient::<RowMsg>::connect(
            addr,
            NodeId::Worker(0),
            &[NodeId::Master, NodeId::Worker(0)],
        )
        .unwrap();
        loop {
            let Ok(env) = ep.recv() else { return };
            let stop = matches!(env.payload, RowMsg::Shutdown);
            ep.send(NodeId::Master, env.payload).unwrap();
            if stop {
                return;
            }
        }
    });
    hub.await_workers(&[NodeId::Worker(0)], Duration::from_secs(10))
        .unwrap();

    let msgs = all_variants(11, 4, vec![0.5, -3.75, 1e300]);
    // Shutdown doubles as the echo loop's stop signal; send it last.
    let mut msgs: Vec<RowMsg> = msgs
        .into_iter()
        .filter(|m| !matches!(m, RowMsg::Shutdown))
        .collect();
    msgs.push(RowMsg::Shutdown);
    let mut expect_bytes = 0u64;
    for msg in &msgs {
        master.send(NodeId::Worker(0), msg.clone()).unwrap();
        let env = master.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(env.from, NodeId::Worker(0));
        assert_eq!(
            body_bytes(&env.payload),
            body_bytes(msg),
            "echo mutated {} on the wire",
            msg.name()
        );
        expect_bytes += 2 * (msg.wire_size() + ENVELOPE_BYTES) as u64;
    }
    echo.join().unwrap();
    let total = traffic.total();
    assert_eq!(total.messages as usize, 2 * msgs.len());
    assert_eq!(total.bytes, expect_bytes);
    hub.shutdown();
}
