//! Criterion bench behind Fig. 6a: amortized per-record inference latency
//! of the three latency-comparable models (fastText, Graphite, GraphEx).
//!
//! Runs on the CAT_3-sized preset so `cargo bench` stays in CI budget; the
//! full-scale numbers come from `repro_all --only fig6`.
//!
//! A second group times the GraphEx kernel alone on the repo benchmark's
//! marketplace (`bench200k`, `benchmark/src/data.rs`): the request the
//! `batch_full` workload sends per item — `k = 10`, texts resolved —
//! through a pooled session over the loaded snapshot, with no store and
//! no HTTP around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphex_baselines::fasttext::FastTextConfig;
use graphex_baselines::{FastTextLike, GraphExRecommender, Graphite, ItemRef, Recommender};
use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::{serialize, Engine, GraphExBuilder, GraphExConfig, InferRequest};
use graphex_marketsim::{CategoryDataset, CategorySpec};

fn bench_inference(c: &mut Criterion) {
    let ds = CategoryDataset::generate(CategorySpec::cat3());
    let graphex: Box<dyn Recommender> =
        Box::new(GraphExRecommender::new(build_graphex(&ds, default_threshold(&ds))));
    let graphite: Box<dyn Recommender> = Box::new(Graphite::train(&ds, 512));
    let fasttext: Box<dyn Recommender> = Box::new(FastTextLike::train(
        &ds,
        FastTextConfig { epochs: 3, ..Default::default() }, // latency, not quality
    ));

    let items = ds.test_items(64, 7);
    let mut group = c.benchmark_group("inference_latency_cat3");
    for model in [&graphex, &graphite, &fasttext] {
        group.bench_function(BenchmarkId::from_parameter(model.name()), |b| {
            let mut idx = 0usize;
            b.iter(|| {
                let item = items[idx % items.len()];
                idx += 1;
                std::hint::black_box(
                    model.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 20),
                )
            });
        });
    }
    group.finish();
}

fn bench_kernel(c: &mut Criterion) {
    let ds = CategoryDataset::generate(CategorySpec {
        name: "bench200k".into(),
        seed: 3,
        num_leaves: 48,
        products_per_leaf: 400,
        num_items: 200_000,
        num_sessions: 1_000_000,
        leaf_id_base: 1_000,
    });
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let built = GraphExBuilder::new(config).add_records(ds.keyphrase_records()).build().unwrap();
    // Serve what a registry would: the snapshot loaded back, arrays borrowed.
    let engine = Engine::from_model(serialize::to_bytes(&built).parse().unwrap());
    let items = &ds.marketplace.items;

    let mut group = c.benchmark_group("inference_kernel_bench200k");
    // The shim times about a second of calls, at most `sample_size × 100`:
    // with the cap raised the loop walks tens of thousands of different
    // items, so the model does not stay in cache as it would over a few.
    group.sample_size(items.len() / 100);
    group.bench_function(BenchmarkId::from_parameter("GraphEx/k10"), |b| {
        let mut session = engine.session();
        let mut idx = 0usize;
        b.iter(|| {
            let item = &items[idx % items.len()];
            idx += 1;
            session.infer(&InferRequest::new(&item.title, item.leaf).k(10).resolve_texts(true))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_inference, bench_kernel);
criterion_main!(benches);
