//! Seller onboarding over the live upsert path: a brand-new listing in
//! a brand-new leaf category becomes servable on the very next request
//! — no nightly rebuild in the loop — then nightly compaction folds the
//! overlay back into an immutable snapshot that answers identically.
//! This is the NRT overlay lifecycle end to end: upsert → serve →
//! journal → delta compaction → publish (hot-swap) → drain.
//!
//! ```bash
//! cargo run --release -p graphex-suite --example seller_onboarding
//! ```

use graphex_core::{Engine, GraphExConfig, InferRequest, KeyphraseRecord, LeafId};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, overlay_journal_source, BuildPlan, DeltaBase, MarketsimSource};
use graphex_serving::{KvStore, ModelRegistry, OverlayStore, ServingApi, SwapPolicy};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A simulated marketplace with real search-log dynamics, built into
    // last night's immutable snapshot and published to a registry.
    println!("generating marketplace + nightly snapshot ...");
    let corpus = ChurnCorpus::new(CategorySpec::tiny(0xFACE), 0.0);
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let plan = BuildPlan::new(config.clone()).jobs(2);
    let mut nightly =
        build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).expect("nightly build");

    let root =
        std::env::temp_dir().join(format!("graphex-seller-onboarding-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = ModelRegistry::open(&root).expect("registry");
    nightly.publish(&registry, "nightly").expect("publish");

    // The serving stack: registry watch (hot-swaps on publish) plus a
    // mutable overlay for seconds-latency onboarding.
    let api = ServingApi::with_watch(
        registry.watch().expect("watch"),
        Arc::new(KvStore::new()),
        10,
    )
    .swap_policy(SwapPolicy::Invalidate)
    .with_overlay(Arc::new(OverlayStore::new()));

    // A seller opens a leaf category the marketplace has never seen and
    // lists three items. None of this exists in the nightly snapshot.
    let leaf = LeafId(77_000);
    let listings = [
        ("handmade walnut chess set", 64u32),
        ("travel magnetic chess board", 41),
        ("weighted tournament chess pieces", 28),
    ];
    let records: Vec<KeyphraseRecord> = listings
        .iter()
        .map(|(text, searches)| KeyphraseRecord::new((*text).to_string(), leaf, *searches, 3))
        .collect();

    let started = Instant::now();
    let ack = api.apply_upsert(&records).expect("upsert");
    let title = "handmade walnut chess set with weighted pieces";
    let served = api.serve_request(&InferRequest::new(title, leaf).k(5).resolve_texts(true));
    let elapsed = started.elapsed();
    println!(
        "\nupsert ack: seq {} / {} records / overlay depth {} — servable in {elapsed:.3?}",
        ack.seq, ack.applied, ack.depth
    );
    assert!(
        served
            .keyphrases
            .iter()
            .any(|k| k == "handmade walnut chess set"),
        "the new listing must be servable on the very next request: {:?}",
        served.keyphrases
    );

    // Interpretability carries over: every recommendation still traces
    // back to title-token overlap, straight from the overlay mini graph.
    println!(
        "\n{:<40} {:>6} {:>10}  token overlap",
        "recommended keyphrase", "LTA", "searches"
    );
    for (p, text) in served.predictions.iter().zip(&served.keyphrases) {
        println!(
            "{:<40} {:>6.2} {:>10}  {} of {} keyphrase tokens in title",
            text,
            p.lta(),
            p.search_count,
            p.matched,
            p.label_len,
        );
    }

    // Nightly compaction: export the journal, fold it into a delta build
    // over the published base (untouched leaves are borrowed), publish.
    // The in-process watch hot-swaps the serving stack; the drain then
    // empties the overlay of everything the new snapshot covers.
    let journal = api.export_overlay_journal().expect("journal");
    let mut compacted = build(
        &BuildPlan::new(config.clone())
            .jobs(2)
            .delta(DeltaBase::load(&root).expect("delta base")),
        vec![
            Box::new(MarketsimSource::new(&corpus)),
            Box::new(overlay_journal_source(&journal)),
        ],
    )
    .expect("compaction build");
    let meta = compacted
        .publish(&registry, "overlay compaction")
        .expect("publish v2");
    let drained = api.drain_overlay(journal.upto).expect("drain");
    let status = api.overlay_status().expect("overlay status");
    println!(
        "\ncompacted into snapshot v{} ({} leaves borrowed), drained {} — overlay depth {}",
        meta.version, compacted.report.leaves_reused, drained.drained, status.depth
    );
    assert_eq!(status.depth, 0, "compaction must empty the overlay");

    // The compacted snapshot answers exactly like the overlay did — and
    // exactly like a from-scratch rebuild of the union corpus would.
    let after = api.serve_request(&InferRequest::new(title, leaf).k(5).resolve_texts(true));
    assert_eq!(
        after.snapshot_version, meta.version,
        "serve must ride the hot-swapped snapshot"
    );
    assert_eq!(
        after.keyphrases, served.keyphrases,
        "compaction must not change answers"
    );

    let direct = build(
        &BuildPlan::new(config).jobs(1),
        vec![
            Box::new(MarketsimSource::new(&corpus)),
            Box::new(graphex_pipeline::VecSource::new("union", records)),
        ],
    )
    .expect("direct rebuild");
    assert_eq!(
        compacted.bytes.as_ref(),
        direct.bytes.as_ref(),
        "overlay-then-compact must be byte-identical to the direct rebuild"
    );
    let oracle = Engine::from_model(direct.model.clone());
    let expected = oracle.infer(&InferRequest::new(title, leaf).k(5).resolve_texts(true));
    assert_eq!(
        after.keyphrases, expected.texts,
        "served answers must match the direct engine"
    );
    println!("\ncompacted snapshot is byte-identical to a direct rebuild; answers unchanged ✓");

    std::fs::remove_dir_all(&root).ok();
}
