//! The frame-length identity the TCP backend's byte accounting rests on:
//! for **every** `ColMsg` kind, the serialized envelope frame is exactly
//! `payload.wire_size() + ENVELOPE_BYTES` bytes — under randomized
//! payload contents (proptest), and across a real loopback-TCP socket
//! per message kind (the hub's ingress re-asserts the identity on every
//! frame it admits, so an echo of each kind proves it on the wire).

use std::sync::Arc;
use std::time::Duration;

use columnsgd_cluster::codec::{
    decode_body_checked, decode_envelope_header, decode_telemetry_body, encode_telemetry_events,
    FrameKind, WireCodec,
};
use columnsgd_cluster::telemetry::{Event, FaultRecord, KernelRecord, Plane, Recorder};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::TelemetryPayload;
use columnsgd_cluster::{NodeId, Router, TcpClient, TcpHub, TrafficStats, Wire};
use columnsgd_core::msg::ColMsg;
use columnsgd_data::{workset::split_block, Block, ColumnPartitioner, Workset};
use columnsgd_linalg::SparseVector;
use columnsgd_ml::params::ParamSet;
use proptest::prelude::*;

/// Deterministic pseudo-random f64 in [-500, 500) from an integer stream.
fn noise(seed: u64, i: u64) -> f64 {
    (((seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) % 1000) as f64 - 500.0
}

fn sample_block(seed: u64, nrows: usize) -> Block {
    let rows: Vec<(f64, SparseVector)> = (0..nrows)
        .map(|r| {
            let label = if (seed + r as u64).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            let pairs: Vec<(u64, f64)> = (0..1 + (seed + r as u64) % 4)
                .map(|j| (r as u64 * 11 + j * 3, noise(seed, r as u64 * 7 + j)))
                .collect();
            (label, SparseVector::from_pairs(pairs))
        })
        .collect();
    Block::from_rows(seed % 64, &rows)
}

fn sample_workset(seed: u64, nrows: usize) -> Workset {
    split_block(
        &sample_block(seed, nrows),
        &ColumnPartitioner::round_robin(2),
    )[(seed % 2) as usize]
        .clone()
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

/// One randomized instance of every `ColMsg` variant.
fn all_variants(seed: u64, nrows: usize, stats: Vec<f64>, pids: Vec<usize>) -> Vec<ColMsg> {
    let widths = match seed % 3 {
        0 => vec![1],
        1 => vec![1, 1 + (seed % 8) as usize],
        _ => vec![1; 2 + (seed % 6) as usize],
    };
    let msgs = vec![
        ColMsg::LoadBlock(sample_block(seed, nrows)),
        ColMsg::Workset {
            pid: (seed % 32) as usize,
            ws: sample_workset(seed, nrows),
        },
        ColMsg::LoadDone {
            blocks_total: nrows,
        },
        ColMsg::LoadAck {
            worker: (seed % 16) as usize,
            layout: (0..nrows as u64).map(|b| (b, nrows)).collect(),
        },
        ColMsg::ComputeStats {
            iteration: seed,
            batch_size: 1 + (seed % 1000) as usize,
            attempt: seed % 5,
        },
        ColMsg::StatsReply {
            iteration: seed,
            worker: (seed % 16) as usize,
            partial: stats.clone(),
            compute_s: noise(seed, 1).abs(),
            sample_s: noise(seed, 2).abs(),
            task_failed: seed.is_multiple_of(2),
        },
        ColMsg::Update {
            iteration: seed,
            stats: stats.clone(),
        },
        ColMsg::UpdateAck {
            iteration: seed,
            worker: (seed % 16) as usize,
            compute_s: noise(seed, 3),
        },
        ColMsg::Die,
        ColMsg::ReloadBlock(sample_block(seed.wrapping_add(1), nrows)),
        ColMsg::ReloadDone {
            blocks_total: nrows,
        },
        ColMsg::ReloadAck {
            worker: (seed % 16) as usize,
        },
        ColMsg::FetchModel,
        ColMsg::ModelReply {
            worker: (seed % 16) as usize,
            parts: pids
                .iter()
                .map(|&p| (p, sample_params(seed ^ p as u64, 1 + p % 7, &widths)))
                .collect(),
        },
        ColMsg::Probe { iteration: seed },
        ColMsg::ProbeAck {
            worker: (seed % 16) as usize,
            iteration: seed,
            loaded: seed % 2 == 1,
        },
        ColMsg::WorkerPanic {
            worker: (seed % 16) as usize,
            info: format!("panic £{seed} α"),
        },
        ColMsg::Shutdown,
        ColMsg::InstallParams {
            parts: pids
                .iter()
                .map(|&p| (p, sample_params(seed ^ p as u64, 1 + p % 5, &widths)))
                .collect(),
        },
        ColMsg::ComputeStatsFor {
            iteration: seed,
            batch_size: 1 + (seed % 1000) as usize,
            attempt: seed % 5,
            pids: pids.clone(),
        },
        ColMsg::StatsReplyFor {
            iteration: seed,
            worker: (seed % 16) as usize,
            pids: pids.clone(),
            partial: stats,
            compute_s: noise(seed, 4).abs(),
            sample_s: noise(seed, 5).abs(),
            task_failed: seed.is_multiple_of(3),
        },
        ColMsg::ShardRequest {
            pid: (seed % 32) as usize,
            epoch: seed % 100,
            to: (seed % 16) as usize,
        },
        ColMsg::ShardData {
            pid: (seed % 32) as usize,
            epoch: seed % 100,
            worksets: (0..1 + seed % 3)
                .map(|b| sample_workset(seed ^ b, nrows))
                .collect(),
            params: sample_params(seed, 2 + (seed % 6) as usize, &widths),
        },
        ColMsg::ShardInstalled {
            pid: (seed % 32) as usize,
            epoch: seed % 100,
            worker: (seed % 16) as usize,
        },
        ColMsg::DropShard {
            pid: (seed % 32) as usize,
            epoch: seed % 100,
        },
    ];
    msgs
}

/// Position of `m`'s variant in declaration order. Wildcard-free on
/// purpose: a new `ColMsg` variant does not compile here until it gets
/// an index, and then `all_variants_has_one_sample_per_variant` fails
/// until `all_variants` carries a sample of it.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn variant_index(m: &ColMsg) -> usize {
    match m {
        ColMsg::LoadBlock(..) => 0,
        ColMsg::Workset { .. } => 1,
        ColMsg::LoadDone { .. } => 2,
        ColMsg::LoadAck { .. } => 3,
        ColMsg::ComputeStats { .. } => 4,
        ColMsg::StatsReply { .. } => 5,
        ColMsg::Update { .. } => 6,
        ColMsg::UpdateAck { .. } => 7,
        ColMsg::Die => 8,
        ColMsg::ReloadBlock(..) => 9,
        ColMsg::ReloadDone { .. } => 10,
        ColMsg::ReloadAck { .. } => 11,
        ColMsg::FetchModel => 12,
        ColMsg::ModelReply { .. } => 13,
        ColMsg::Probe { .. } => 14,
        ColMsg::ProbeAck { .. } => 15,
        ColMsg::WorkerPanic { .. } => 16,
        ColMsg::Shutdown => 17,
        ColMsg::InstallParams { .. } => 18,
        ColMsg::ComputeStatsFor { .. } => 19,
        ColMsg::StatsReplyFor { .. } => 20,
        ColMsg::ShardRequest { .. } => 21,
        ColMsg::ShardData { .. } => 22,
        ColMsg::ShardInstalled { .. } => 23,
        ColMsg::DropShard { .. } => 24,
    }
}

/// Number of `ColMsg` variants: one past the largest `variant_index`.
const VARIANTS: usize = 25;

/// Every variant has exactly one sample in `all_variants`, so the codec
/// properties in this file cover the whole protocol.
#[test]
fn all_variants_has_one_sample_per_variant() {
    let mut counts = [0usize; VARIANTS];
    for m in all_variants(1, 2, vec![0.5], vec![1]) {
        counts[variant_index(&m)] += 1;
    }
    assert_eq!(counts, [1; VARIANTS], "samples per variant index");
}

fn body_bytes(m: &ColMsg) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode_body(&mut out).expect("encode");
    out
}

proptest! {
    /// For every message kind, under randomized payloads: the full
    /// envelope frame is exactly `wire_size() + ENVELOPE_BYTES` bytes,
    /// the header decodes, and decode∘encode is the identity (compared
    /// via re-encoded bytes — `ColMsg` is not `PartialEq`).
    #[test]
    fn every_kind_frames_at_wire_size(
        seed in 0u64..1_000_000,
        nrows in 1usize..6,
        stats in prop::collection::vec(0u64..100_000, 0..12),
        pids in prop::collection::vec(0usize..32, 0..5),
    ) {
        let stats: Vec<f64> = stats.iter().map(|&x| x as f64 * 0.25 - 12_500.0).collect();
        for msg in all_variants(seed, nrows, stats, pids) {
            let frame = columnsgd_cluster::codec::encode_envelope(
                NodeId::Master,
                NodeId::Worker(1),
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
            let back: ColMsg = decode_body_checked(&frame).expect("decode");
            prop_assert_eq!(body_bytes(&back), body_bytes(&msg), "roundtrip for {}", msg.name());
        }
    }
}

/// Every message kind survives a real loopback-TCP round trip: an echo
/// worker (a client thread standing in for a worker process) returns
/// each payload verbatim, and the hub's ingress asserts the frame-length
/// identity on every admitted frame. Bytes are compared after the double
/// socket crossing.
#[test]
fn every_kind_roundtrips_over_loopback_tcp() {
    let ids = [NodeId::Master, NodeId::Worker(0)];
    let traffic = TrafficStats::new();
    let hub: TcpHub<ColMsg> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
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
        let (_r, ep) = TcpClient::<ColMsg>::connect(
            addr,
            NodeId::Worker(0),
            &[NodeId::Master, NodeId::Worker(0)],
        )
        .unwrap();
        loop {
            let Ok(env) = ep.recv() else { return };
            let stop = matches!(env.payload, ColMsg::Shutdown);
            ep.send(NodeId::Master, env.payload).unwrap();
            if stop {
                return;
            }
        }
    });
    hub.await_workers(&[NodeId::Worker(0)], Duration::from_secs(10))
        .unwrap();

    let msgs = all_variants(7, 3, vec![1.5, -2.25, 1e300], vec![0, 3, 9]);
    // Shutdown doubles as the echo loop's stop signal; send it last.
    let mut msgs: Vec<ColMsg> = msgs
        .into_iter()
        .filter(|m| !matches!(m, ColMsg::Shutdown))
        .collect();
    msgs.push(ColMsg::Shutdown);
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
    // Each kind was metered at exactly wire_size + envelope, both ways.
    let total = traffic.total();
    assert_eq!(total.messages as usize, 2 * msgs.len());
    assert_eq!(total.bytes, expect_bytes);
    hub.shutdown();
}

fn sample_telemetry_events() -> Vec<Event> {
    vec![
        Event::Kernel(KernelRecord {
            iteration: 4,
            model: "lr".to_string(),
            batch_size: 32,
            pool_width: 1,
            flops_proxy: 12_345,
            worker: Some(1),
        }),
        Event::Fault(FaultRecord {
            iteration: 5,
            worker: 1,
            fault: "non-finite statistics".to_string(),
            detection: "worker guard".to_string(),
            detection_latency_s: 0.25,
            recovery_cost_s: 0.0,
            attempt: 2,
            fatal: false,
        }),
    ]
}

/// A telemetry event batch survives the frame codec verbatim and its
/// header carries [`FrameKind::Telemetry`] (the discriminator `serve_conn`
/// uses to divert the frame *before* data-plane metering).
#[test]
fn telemetry_event_batch_roundtrips_through_the_frame_codec() {
    let events = sample_telemetry_events();
    let frame = encode_telemetry_events(NodeId::Worker(1), NodeId::Master, &events);
    let header = decode_envelope_header(&frame).expect("telemetry header");
    assert_eq!(header.kind, FrameKind::Telemetry);
    assert_eq!(header.from, NodeId::Worker(1));
    assert_eq!(header.body_len, frame.len() - ENVELOPE_BYTES);
    let TelemetryPayload::Events(back) = decode_telemetry_body(&frame).expect("telemetry body")
    else {
        panic!("event batch decoded as a clock frame");
    };
    let render = |evs: &[Event]| -> Vec<_> { evs.iter().map(|e| e.to_value("x")).collect() };
    assert_eq!(render(&back), render(&events), "events mutated by codec");
}

/// Telemetry frames advance **zero** data-plane meter bytes: a traced
/// client ships a worker-side recorder's events through a live hub, the
/// master's recorder ingests them (and a clock offset lands from the
/// hello-time probe), yet `TrafficStats` stays untouched — so the
/// trace ↔ meter reconciliation the engine asserts cannot be perturbed
/// by how much telemetry a run ships.
#[test]
#[expect(clippy::disallowed_methods, reason = "polls to a wall-clock deadline")]
fn telemetry_frames_advance_zero_data_plane_meter_bytes() {
    let ids = [NodeId::Master, NodeId::Worker(0)];
    let traffic = TrafficStats::new();
    let hub: TcpHub<ColMsg> = TcpHub::bind(&[NodeId::Master], &[NodeId::Worker(0)]).unwrap();
    let master_recorder = Recorder::new();
    let router = Router::with_transport(
        Arc::new(hub.clone()),
        &ids,
        traffic.clone(),
        None,
        master_recorder.clone(),
    );
    let _master = hub.local_endpoint(NodeId::Master, &router);
    hub.start(router);

    let (_r, _ep, tx) = TcpClient::<ColMsg>::connect_traced(hub.addr(), NodeId::Worker(0), &ids)
        .expect("traced connect");
    hub.await_workers(&[NodeId::Worker(0)], Duration::from_secs(10))
        .unwrap();

    let local = Recorder::new();
    let events = sample_telemetry_events();
    for e in &events {
        match e.clone() {
            Event::Kernel(k) => local.kernel(k),
            Event::Fault(f) => local.fault(f),
            other => panic!("unexpected sample event {other:?}"),
        }
    }
    tx.flush(&local);

    // Ingestion is async (hub reader thread); poll with a deadline.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while master_recorder.events().len() < events.len()
        || master_recorder.clock_offsets().is_empty()
    {
        assert!(
            std::time::Instant::now() < deadline,
            "telemetry never arrived: {} events, offsets {:?}",
            master_recorder.events().len(),
            master_recorder.clock_offsets()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(master_recorder.events().len(), events.len());
    assert_eq!(master_recorder.clock_offsets().len(), 1);
    assert_eq!(master_recorder.clock_offsets()[0].0, 0, "offset is for w0");

    // The heart of the invariant: everything above crossed the socket,
    // and the data-plane meter never moved.
    let total = traffic.total();
    assert_eq!(
        (total.bytes, total.messages),
        (0, 0),
        "telemetry frames were metered as data-plane traffic"
    );
    hub.shutdown();
}
