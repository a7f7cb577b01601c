//! Snapshot lifecycle bench: zero-copy load across model sizes, plus
//! hot-swap (publish-to-live) latency under serving load.
//!
//! The loader borrows all integer arrays straight out of the load
//! buffer, so load cost is dominated by the checksum scan plus the
//! O(strings + words) tables — what keeps the Fig. 6b model-size
//! pressure, multiplied by the registry's daily republish cadence,
//! affordable.
//!
//! `make bench-snapshot` runs each body once as a smoke test; the repo
//! benchmark's `model_refresh` workload reports the same two costs end to
//! end (`core.serialize.load_ms`, `publish_to_live_ms`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::{serialize, GraphExModel, InferRequest, LeafId};
use graphex_marketsim::{CategoryDataset, CategorySpec};
use graphex_serving::{KvStore, ModelRegistry, ServingApi};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn sized_models() -> Vec<(&'static str, GraphExModel)> {
    let tiny = CategoryDataset::generate(CategorySpec::tiny(0xBEEF));
    let cat3 = CategoryDataset::generate(CategorySpec::cat3());
    let cat1 = CategoryDataset::generate(CategorySpec::cat1());
    vec![
        ("tiny", build_graphex(&tiny, default_threshold(&tiny))),
        ("cat3", build_graphex(&cat3, default_threshold(&cat3))),
        ("cat1", build_graphex(&cat1, default_threshold(&cat1))),
    ]
}

/// Zero-copy deserialization, per model size.
fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_load");
    for (size, model) in sized_models() {
        // The raw buffer: what is timed is the load of bytes nobody has
        // hashed yet, one pass included.
        let bytes = serialize::to_bytes(&model).into_bytes();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_function(BenchmarkId::new("zero_copy", size), |b| {
            b.iter(|| serialize::from_shared(std::hint::black_box(bytes.clone())).expect("load"))
        });
    }
    group.finish();
}

/// Publish-to-live latency: one `ModelRegistry::activate` (disk read →
/// checksum → zero-copy parse → warm-up → pointer swap) while 2 threads
/// continuously serve from a watch-backed `ServingApi`. This is the
/// full admission pipeline a daily republish pays, not just the `Arc`
/// flip (which is nanoseconds).
fn bench_swap_under_load(c: &mut Criterion) {
    let ds = CategoryDataset::generate(CategorySpec::tiny(0xD00D));
    let model = build_graphex(&ds, default_threshold(&ds));
    let root = std::env::temp_dir().join(format!("graphex-bench-swap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Arc::new(ModelRegistry::open(&root).expect("open"));
    registry.publish(&model, "bench v1").expect("publish 1");
    registry.publish(&model, "bench v2").expect("publish 2");
    let api = Arc::new(ServingApi::with_watch(
        registry.watch().expect("watch"),
        Arc::new(KvStore::new()),
        10,
    ));
    let titles: Vec<(String, LeafId)> =
        ds.test_items(64, 7).iter().map(|i| (i.title.clone(), i.leaf)).collect();

    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..2)
        .map(|_| {
            let api = Arc::clone(&api);
            let stop = Arc::clone(&stop);
            let titles = titles.clone();
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (title, leaf) = &titles[i % titles.len()];
                    // Id-less: always computed, so the load keeps touching
                    // the active model rather than the KV store.
                    std::hint::black_box(
                        api.serve_request(&InferRequest::new(title, *leaf).k(10)),
                    );
                    i += 1;
                }
            })
        })
        .collect();

    let mut group = c.benchmark_group("snapshot_swap");
    group.sample_size(20);
    let mut target = 1u64;
    group.bench_function("activate_under_load", |b| {
        b.iter(|| {
            registry.activate(std::hint::black_box(target)).expect("swap");
            target = if target == 1 { 2 } else { 1 };
        })
    });
    group.finish();

    stop.store(true, Ordering::Relaxed);
    for handle in load {
        handle.join().expect("load thread");
    }
    std::fs::remove_dir_all(&root).ok();
}

criterion_group!(benches, bench_load, bench_swap_under_load);
criterion_main!(benches);
