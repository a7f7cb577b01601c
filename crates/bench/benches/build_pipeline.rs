//! Criterion bench behind the build pipeline (paper Sec. IV-G):
//! sequential `GraphExBuilder` vs the sharded pipeline (1 and 2 workers)
//! vs an incremental delta rebuild after one day of churn, at the cat1
//! and cat2 scales.
//!
//! Two workers is what a 2-vCPU machine can fan out to; past the core
//! count the workers only share cores. Only the shard phase runs in
//! parallel — the merge, fallback and serialize stages are one thread —
//! so `graphex build`'s `stages:` line says how much of a build can
//! scale. The delta-vs-full gap is the portable signal, since it comes
//! from *skipping* leaf construction, not from parallelism. The repo
//! benchmark's `model_refresh` workload reports the same builds end to
//! end (`core.builder.build_ms`, `pipeline.build.{full_ms, delta_ms}`).

use criterion::{criterion_group, criterion_main, Criterion};
use graphex_core::{GraphExBuilder, GraphExConfig};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildPlan, DeltaBase, VecSource};

fn config() -> GraphExConfig {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    config
}

fn bench_scale(c: &mut Criterion, name: &str, spec: CategorySpec) {
    // Day 0 snapshot (the delta base), then one churn step to "today".
    let dir = std::env::temp_dir().join(format!("graphex-bench-buildpipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join(format!("{name}.gexm"));
    let mut corpus = ChurnCorpus::new(spec, 0.02);
    let gen0 = build(
        &BuildPlan::new(config()).jobs(1),
        vec![Box::new(VecSource::new("gen0", corpus.records()))],
    )
    .unwrap();
    gen0.write_to(&snapshot).unwrap();
    corpus.advance();
    let records = corpus.records();
    let delta_plan = BuildPlan::new(config())
        .jobs(1)
        .delta(DeltaBase::load(&snapshot).unwrap());

    let mut group = c.benchmark_group(format!("build_pipeline_{name}"));
    group.sample_size(10);
    group.bench_function("sequential_builder", |b| {
        b.iter(|| {
            std::hint::black_box(
                GraphExBuilder::new(config())
                    .add_records(records.clone())
                    .build()
                    .unwrap(),
            )
        })
    });
    for jobs in [1usize, 2] {
        let plan = BuildPlan::new(config()).jobs(jobs);
        group.bench_function(format!("pipeline_{jobs}_workers"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    build(
                        &plan,
                        vec![Box::new(VecSource::new("bench", records.clone()))],
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.bench_function("delta_rebuild", |b| {
        b.iter(|| {
            std::hint::black_box(
                build(
                    &delta_plan,
                    vec![Box::new(VecSource::new("bench", records.clone()))],
                )
                .unwrap(),
            )
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_build_pipeline(c: &mut Criterion) {
    bench_scale(c, "cat2", CategorySpec::cat2());
    bench_scale(c, "cat1", CategorySpec::cat1());
}

criterion_group!(benches, bench_build_pipeline);
criterion_main!(benches);
