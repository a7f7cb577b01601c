//! Serving read-path bench: store-hit vs. read-through, 1 vs. 8 threads.
//!
//! This is the measurement behind the `ServingApi` redesign: the old
//! implementation funnelled every read-through inference through a single
//! global `Mutex<Scratch>`, so concurrent misses serialized; the new one
//! draws scratches from the shared engine pool. `read_through/8_threads`
//! vs. `read_through/1_thread` is the scaling that lock destroyed.
//!
//! Each iteration serves one batch of `BATCH` requests, split evenly
//! across the worker threads (Throughput::Elements(BATCH) → requests/s in
//! the report). Store-hit batches reuse prepopulated ids; read-through
//! batches draw ids from an atomic counter so every request misses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::LeafId;
use graphex_marketsim::{CategoryDataset, CategorySpec};
use graphex_serving::{KvStore, ServingApi};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const BATCH: usize = 512;

struct Setup {
    model: Arc<graphex_core::GraphExModel>,
    titles: Vec<(String, LeafId)>,
    fresh_id: AtomicU64,
}

fn setup() -> Setup {
    let ds = CategoryDataset::generate(CategorySpec::cat3());
    let model = Arc::new(build_graphex(&ds, default_threshold(&ds)));
    let titles: Vec<(String, LeafId)> = ds
        .test_items(BATCH, 7)
        .iter()
        .map(|i| (i.title.clone(), i.leaf))
        .collect();
    Setup {
        model,
        titles,
        fresh_id: AtomicU64::new(1 << 32),
    }
}

impl Setup {
    /// A fresh api + store per bench function, so read-through insertions
    /// from one configuration never pollute another's store. (Within one
    /// read-through run the store still grows — that's inherent to
    /// measuring cold misses — but every function starts from the same
    /// BATCH-entry state.)
    fn fresh_api(&self) -> Arc<ServingApi> {
        let api = Arc::new(ServingApi::new(
            self.model.clone(),
            Arc::new(KvStore::new()),
            10,
        ));
        // Prepopulate ids 0..BATCH so the store-hit benches never miss.
        for (i, (title, leaf)) in self.titles.iter().enumerate() {
            api.serve(i as u64, title, *leaf);
        }
        api
    }
}

/// Serves one batch, chunked across `threads` workers.
fn serve_batch(
    api: &ServingApi,
    titles: &[(String, LeafId)],
    threads: usize,
    id_for: &(dyn Fn(usize) -> u64 + Sync),
) {
    if threads <= 1 {
        for (i, (title, leaf)) in titles.iter().enumerate() {
            std::hint::black_box(api.serve(id_for(i), title, *leaf));
        }
        return;
    }
    let chunk = titles.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, part) in titles.chunks(chunk).enumerate() {
            scope.spawn(move || {
                for (j, (title, leaf)) in part.iter().enumerate() {
                    std::hint::black_box(api.serve(id_for(c * chunk + j), title, *leaf));
                }
            });
        }
    });
}

fn bench_read_path(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("serving_read_path");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH as u64));

    for threads in [1usize, 8] {
        let api = s.fresh_api();
        group.bench_function(
            BenchmarkId::new("store_hit", format!("{threads}_threads")),
            |b| {
                b.iter(|| serve_batch(&api, &s.titles, threads, &|i| i as u64));
            },
        );
    }
    for threads in [1usize, 8] {
        let api = s.fresh_api();
        group.bench_function(
            BenchmarkId::new("read_through", format!("{threads}_threads")),
            |b| {
                b.iter(|| {
                    serve_batch(&api, &s.titles, threads, &|_| {
                        s.fresh_id.fetch_add(1, Ordering::Relaxed)
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_read_path);
criterion_main!(benches);
