//! Ablation micro-benches for the design choices DESIGN.md calls out:
//!
//! 1. **Count-array enumeration vs hash-map `DC(·)`** — the Sec. III-F
//!    optimization replacing the naive de-duplicate-and-count.
//! 2. **Group pruning vs full sort** — pruning by count group before
//!    ranking vs ranking every candidate.
//! 3. **Alignment functions** — LTA vs WMR vs JAC comparison cost.
//! 4. **Per-leaf graphs vs one meta-category graph** — inference against a
//!    small leaf graph vs the union fallback graph.
//! 5. **Scratch reuse vs fresh allocation** per call.

use criterion::{criterion_group, criterion_main, Criterion};
use graphex_bench::experiments::{build_graphex, default_threshold};
use graphex_core::{Alignment, GraphExModel, InferRequest, Scratch};
use graphex_marketsim::{CategoryDataset, CategorySpec};
use std::collections::HashMap;

struct Setup {
    model: GraphExModel,
    titles: Vec<(String, graphex_core::LeafId)>,
}

fn setup() -> Setup {
    let ds = CategoryDataset::generate(CategorySpec::cat3());
    let model = build_graphex(&ds, default_threshold(&ds));
    let titles: Vec<(String, graphex_core::LeafId)> = ds
        .test_items(64, 3)
        .iter()
        .map(|i| (i.title.clone(), i.leaf))
        .collect();
    Setup { model, titles }
}

/// Hash-map variant of the enumeration step (the naive `DC(·)`), driven
/// through the public adjacency API — the baseline the count-array design
/// is measured against.
fn enumerate_with_hashmap(model: &GraphExModel, title: &str, leaf: graphex_core::LeafId) -> usize {
    let Some(graph) = model.leaf_graph(leaf) else {
        return 0;
    };
    let mut tokens: Vec<u32> = model
        .tokenize_title(title)
        .iter()
        .filter_map(|t| model.token_id(t))
        .collect();
    tokens.sort_unstable();
    tokens.dedup();
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for tok in tokens {
        for &label in graph.labels_of_token(tok) {
            *counts.entry(label).or_insert(0) += 1;
        }
    }
    counts.len()
}

fn bench_enumeration_strategy(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("enumeration_strategy");
    group.bench_function("count_array_scratch_reuse", |b| {
        let mut scratch = Scratch::new();
        let mut idx = 0usize;
        b.iter(|| {
            let (title, leaf) = &s.titles[idx % s.titles.len()];
            idx += 1;
            let req = InferRequest::new(title, *leaf).k(20);
            std::hint::black_box(s.model.infer_request(&req, &mut scratch))
        });
    });
    group.bench_function("fresh_scratch_every_call", |b| {
        let mut idx = 0usize;
        b.iter(|| {
            let mut scratch = Scratch::new();
            let (title, leaf) = &s.titles[idx % s.titles.len()];
            idx += 1;
            let req = InferRequest::new(title, *leaf).k(20);
            std::hint::black_box(s.model.infer_request(&req, &mut scratch))
        });
    });
    group.bench_function("hashmap_dc_baseline", |b| {
        let mut idx = 0usize;
        b.iter(|| {
            let (title, leaf) = &s.titles[idx % s.titles.len()];
            idx += 1;
            std::hint::black_box(enumerate_with_hashmap(&s.model, title, *leaf))
        });
    });
    group.finish();
}

fn bench_pruning(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("pruning");
    // k=20 with pruning vs rank-everything.
    group.bench_function("group_pruned_k20", |b| {
        let mut scratch = Scratch::new();
        let mut idx = 0usize;
        b.iter(|| {
            let (title, leaf) = &s.titles[idx % s.titles.len()];
            idx += 1;
            let req = InferRequest::new(title, *leaf).k(20);
            std::hint::black_box(s.model.infer_request(&req, &mut scratch))
        });
    });
    group.bench_function("rank_all_candidates", |b| {
        let mut scratch = Scratch::new();
        let mut idx = 0usize;
        b.iter(|| {
            let (title, leaf) = &s.titles[idx % s.titles.len()];
            idx += 1;
            let req = InferRequest::new(title, *leaf)
                .k(usize::MAX)
                .keep_threshold_group(true);
            std::hint::black_box(s.model.infer_request(&req, &mut scratch))
        });
    });
    group.finish();
}

fn bench_alignment(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("alignment");
    for alignment in Alignment::ALL {
        group.bench_function(alignment.name(), |b| {
            let mut scratch = Scratch::new();
            let mut idx = 0usize;
            b.iter(|| {
                let (title, leaf) = &s.titles[idx % s.titles.len()];
                idx += 1;
                let req = InferRequest::new(title, *leaf).k(20).alignment(alignment);
                std::hint::black_box(s.model.infer_request(&req, &mut scratch))
            });
        });
    }
    group.finish();
}

fn bench_leaf_granularity(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("leaf_granularity");
    group.bench_function("per_leaf_graph", |b| {
        let mut scratch = Scratch::new();
        let mut idx = 0usize;
        b.iter(|| {
            let (title, leaf) = &s.titles[idx % s.titles.len()];
            idx += 1;
            let req = InferRequest::new(title, *leaf).k(20);
            std::hint::black_box(s.model.infer_request(&req, &mut scratch))
        });
    });
    group.bench_function("meta_fallback_graph", |b| {
        let mut scratch = Scratch::new();
        let unknown = graphex_core::LeafId(u32::MAX); // forces the fallback
        let mut idx = 0usize;
        b.iter(|| {
            let (title, _) = &s.titles[idx % s.titles.len()];
            idx += 1;
            let req = InferRequest::new(title, unknown).k(20);
            std::hint::black_box(s.model.infer_request(&req, &mut scratch))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_enumeration_strategy,
    bench_pruning,
    bench_alignment,
    bench_leaf_granularity
);
criterion_main!(benches);
