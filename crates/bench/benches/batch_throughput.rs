//! Batch-inference throughput scaling (Sec. IV-H: 200 M items in 1.5 h on a
//! 70-core node). Measures items/second of `batch_infer` at 1, 2, 4 and all
//! threads on the CAT_3 preset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::parallel::batch_infer;
use graphex_core::InferRequest;
use graphex_marketsim::{CategoryDataset, CategorySpec};

fn bench_batch(c: &mut Criterion) {
    let ds = CategoryDataset::generate(CategorySpec::cat3());
    let model = build_graphex(&ds, default_threshold(&ds));
    let items: Vec<(String, graphex_core::LeafId)> = ds
        .marketplace
        .items
        .iter()
        .take(2_000)
        .map(|i| (i.title.clone(), i.leaf))
        .collect();
    let requests: Vec<InferRequest<'_>> = items
        .iter()
        .map(|(t, l)| InferRequest::new(t, *l).k(20))
        .collect();

    let mut group = c.benchmark_group("batch_throughput_cat3");
    group.sample_size(10);
    group.throughput(Throughput::Elements(requests.len() as u64));
    for threads in [1usize, 2, 4, 0] {
        let label = if threads == 0 {
            "all".to_string()
        } else {
            threads.to_string()
        };
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| std::hint::black_box(batch_infer(&model, &requests, threads)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
