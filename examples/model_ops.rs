//! Model operations: the production lifecycle of Sec. IV-G/IV-H — build,
//! publish into a versioned snapshot registry, serve through a watch,
//! hot-swap a daily refresh, roll back, and run full + differential batch
//! and NRT read-throughs against the live model.
//!
//! ```bash
//! cargo run --release -p graphex-suite --example model_ops
//! ```

use graphex_core::{GraphExBuilder, GraphExConfig, LeafId};
use graphex_marketsim::{CategoryDataset, CategorySpec};
use graphex_serving::batch::BatchItem;
use graphex_serving::{BatchPipeline, KvStore, ModelRegistry, ServingApi};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let ds = CategoryDataset::generate(CategorySpec::tiny(0xD0D0));

    // --- construct + publish (the "daily model refresh") ------------------
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let t0 = Instant::now();
    let model = GraphExBuilder::new(config.clone())
        .add_records(ds.keyphrase_records())
        .build()
        .expect("build");
    println!(
        "construction: {:?} ({} keyphrases)",
        t0.elapsed(),
        model.num_keyphrases()
    );

    let root = std::env::temp_dir().join("graphex_model_ops_registry");
    let _ = std::fs::remove_dir_all(&root);
    let registry = ModelRegistry::open(&root).expect("open registry");
    let meta = registry
        .publish(&model, "daily batch, cat=tiny")
        .expect("publish");
    println!(
        "published snapshot v{} ({} bytes, GEXM v{}, checksum {:016x})",
        meta.version, meta.size_bytes, meta.format, meta.checksum
    );

    // Everything downstream consumes the watch, not the model directly.
    let watch = registry.watch().expect("watch");
    println!(
        "reloaded zero-copy OK (alignment {})",
        watch.current().engine.model().alignment()
    );

    // --- full batch over the catalog --------------------------------------
    let store = KvStore::new();
    let pipeline = BatchPipeline::with_watch(watch.clone(), &store, 20, 0);
    let items: Vec<BatchItem> = ds
        .marketplace
        .items
        .iter()
        .map(|i| BatchItem {
            id: i.id,
            title: i.title.clone(),
            leaf: i.leaf,
        })
        .collect();
    let report = pipeline.run_full(&items);
    println!(
        "full batch: {} items in {} ms ({} with recommendations, scored by snapshot v{})",
        report.items_processed,
        report.elapsed_ms,
        report.items_with_recommendations,
        report.snapshot_version
    );

    // --- daily refresh: republish + hot swap under a live api -------------
    let api = ServingApi::with_watch(watch.clone(), Arc::new(KvStore::new()), 10);
    let probe = &ds.marketplace.items[3];
    let before = api.serve(u64::from(probe.id), &probe.title, probe.leaf);
    let refreshed = GraphExBuilder::new(config)
        .add_records(ds.keyphrase_records())
        .build()
        .expect("rebuild");
    registry
        .publish(&refreshed, "daily batch, refreshed")
        .expect("republish");
    let after = api.serve(9_999_999, &probe.title, probe.leaf);
    let stats = api.stats();
    println!(
        "hot swap: served {} then {} keyphrases; api now on snapshot v{} ({} swap observed)",
        before.keyphrases.len(),
        after.keyphrases.len(),
        stats.snapshot_version,
        stats.model_swaps
    );

    // --- differential batch against the refreshed snapshot ----------------
    let mut revised = vec![items[0].clone(), items[1].clone()];
    revised[0].title = format!("{} premium edition", revised[0].title);
    let diff = pipeline.run_differential(&revised);
    println!(
        "differential batch: {} items in {} ms (snapshot v{})",
        diff.items_processed, diff.elapsed_ms, diff.snapshot_version
    );
    println!(
        "item 0 now at version {}",
        store.get(0).map(|r| r.version).unwrap_or_default()
    );

    // --- NRT: a just-created listing, then its seller's revision ----------
    // Both are plain requests: a title the store has no answer for reads
    // through, and the write-back replaces the old title's answer.
    let new_item = &ds.marketplace.items[7];
    // The seller retitles the listing as another product of its leaf.
    let revised = ds
        .marketplace
        .items
        .iter()
        .find(|i| i.leaf == new_item.leaf && i.product != new_item.product)
        .expect("another product in the leaf");
    for (event, title) in [("created", &new_item.title), ("revised", &revised.title)] {
        let served = api.serve(9_000_001, title, new_item.leaf);
        println!(
            "NRT ({event}): {:?} → {} keyphrases via {:?} (snapshot v{}), e.g. {:?}",
            title,
            served.keyphrases.len(),
            served.source,
            served.snapshot_version,
            served.keyphrases.first().map(String::as_str).unwrap_or("-"),
        );
    }

    // --- rollback: yesterday's model comes back with one pointer flip -----
    let (from, to) = registry.rollback().expect("rollback");
    println!(
        "rollback: v{from} → v{to}; api serves v{}",
        api.stats().snapshot_version
    );

    // Unknown leaf? Falls back to the meta-category graph (never a panic),
    // and the response outcome says the fallback answered.
    let engine = watch.current().engine.clone();
    let fallback =
        engine.infer(&graphex_core::InferRequest::new(&new_item.title, LeafId(u32::MAX)).k(5));
    println!(
        "fallback-graph inference for an unknown leaf: {} keyphrases (outcome: {})",
        fallback.len(),
        fallback.outcome.name()
    );
    std::fs::remove_dir_all(&root).ok();
}
