//! Criterion bench behind Sec. IV-G: model construction / training time.
//!
//! The paper: GraphEx builds in under a minute, Graphite in 1–6 minutes,
//! fastText in hours. At reproduction scale the absolute numbers shrink but
//! the ordering must hold (GraphEx < Graphite << fastText).

use criterion::{criterion_group, criterion_main, Criterion};
use graphex_baselines::fasttext::FastTextConfig;
use graphex_baselines::{FastTextLike, Graphite};
use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_marketsim::{CategoryDataset, CategorySpec};

fn bench_construction(c: &mut Criterion) {
    let ds = CategoryDataset::generate(CategorySpec::cat3());
    let threshold = default_threshold(&ds);

    let mut group = c.benchmark_group("construction_cat3");
    group.sample_size(10);
    group.bench_function("GraphEx_build", |b| {
        b.iter(|| std::hint::black_box(build_graphex(&ds, threshold)))
    });
    group.bench_function("Graphite_train", |b| {
        b.iter(|| std::hint::black_box(Graphite::train(&ds, 512)))
    });
    group.bench_function("fastText_train_1epoch", |b| {
        b.iter(|| {
            std::hint::black_box(FastTextLike::train(
                &ds,
                FastTextConfig {
                    epochs: 1,
                    ..Default::default()
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
