//! End-to-end per-iteration wall-clock of the two engines (the micro view
//! behind Tables IV/V), plus the flat-vs-tree aggregation ablation.

#![expect(clippy::disallowed_methods, reason = "iter_custom times the engine")]

use columnsgd::cluster::{FailurePlan, NetworkModel};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::synth;
use columnsgd::linalg::DenseVector;
use columnsgd::ml::ModelSpec;
use columnsgd::rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_columnsgd_iteration(c: &mut Criterion) {
    let ds = synth::small_test_dataset(5_000, 100_000, 13);
    let mut g = c.benchmark_group("engine_iteration");
    g.bench_function("columnsgd_lr_k4_b1000", |b| {
        b.iter_custom(|iters| {
            let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
                .with_batch_size(1000)
                .with_iterations(iters);
            let mut e =
                ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
                    .expect("engine");
            let start = std::time::Instant::now();
            black_box(e.train().expect("train"));
            start.elapsed()
        })
    });
    g.bench_function("ps_sparse_lr_k4_b1000", |b| {
        b.iter_custom(|iters| {
            let cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::PsSparse)
                .with_batch_size(1000)
                .with_iterations(iters);
            let mut e = RowSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT).expect("engine");
            let start = std::time::Instant::now();
            black_box(e.train().expect("train"));
            start.elapsed()
        })
    });
    g.finish();
}

/// Ablation: flat gather (the paper's single master summing K partials)
/// vs a binary-tree reduction of the same partial-statistics vectors.
/// ColumnSGD's statistics are so small that the flat master wins on
/// latency; this bench quantifies the compute side of that choice.
fn bench_aggregation(c: &mut Criterion) {
    let k = 8;
    let partials: Vec<DenseVector> = (0..k)
        .map(|w| DenseVector::from_vec((0..1000).map(|i| (w * i) as f64).collect()))
        .collect();
    let mut g = c.benchmark_group("stats_aggregation");
    g.bench_function("flat_sum_k8_b1000", |b| {
        b.iter(|| black_box(DenseVector::sum_all(&partials)))
    });
    g.bench_function("tree_sum_k8_b1000", |b| {
        b.iter(|| {
            let mut level: Vec<DenseVector> = partials.clone();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let mut acc = pair[0].clone();
                        if let Some(second) = pair.get(1) {
                            acc.axpy(1.0, second);
                        }
                        acc
                    })
                    .collect();
            }
            black_box(level.pop())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_columnsgd_iteration, bench_aggregation
}
criterion_main!(benches);
