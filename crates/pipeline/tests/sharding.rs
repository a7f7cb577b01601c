//! Per-shard snapshot emission properties, over seeded marketsim
//! corpora:
//!
//! * `shard(leaf, N)` partitioning covers every leaf **exactly once**
//!   for N ∈ {1, 2, 3, 8} — no leaf lost, none duplicated;
//! * the union of per-shard `BUILDINFO` leaf-fingerprint tables equals
//!   the monolithic manifest's table;
//! * emitting **one** shard reproduces the monolithic snapshot byte for
//!   byte (shard emission is exact, not approximate);
//! * every shard answers its own leaves identically to the monolith,
//!   including `MetaFallback` answers (the global fallback rides along);
//! * a shard snapshot survives a registry publish → load round trip,
//!   `BUILDINFO` and all;
//! * an empty shard (more shards than residue classes) is a build-time
//!   error, not an unservable snapshot.

use graphex_core::{serialize, Engine, GraphExConfig, InferRequest, LeafId};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{
    build, shard_of, BuildManifest, BuildOutput, BuildPlan, MarketsimSource, PipelineError,
};
use graphex_serving::ModelRegistry;
use std::collections::BTreeMap;

fn spec(seed: u64) -> CategorySpec {
    CategorySpec {
        name: "SHARD".into(),
        seed,
        num_leaves: 24,
        products_per_leaf: 8,
        num_items: 500,
        num_sessions: 3_000,
        leaf_id_base: 4_000,
    }
}

fn monolith(seed: u64) -> (ChurnCorpus, BuildOutput) {
    let corpus = ChurnCorpus::new(spec(seed), 0.01);
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let plan = BuildPlan::new(config).jobs(2);
    let output = build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).unwrap();
    (corpus, output)
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-shard-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn partition_covers_every_leaf_exactly_once() {
    for seed in [0x5A1, 0x5A2] {
        let (_, output) = monolith(seed);
        let all: Vec<LeafId> = output.model.leaf_ids().collect();
        assert!(all.len() > 8, "spec produced {} leaves — too few to shard", all.len());
        for shards in [1u32, 2, 3, 8] {
            let snapshots = output.emit_shards(shards).unwrap();
            assert_eq!(snapshots.len(), shards as usize);

            let mut seen: BTreeMap<u32, u32> = BTreeMap::new();
            for snapshot in &snapshots {
                assert_eq!(snapshot.shards, shards);
                assert_eq!(snapshot.manifest.shard, Some((snapshot.index, shards)));
                for leaf in snapshot.model.leaf_ids() {
                    assert_eq!(
                        shard_of(leaf, shards),
                        snapshot.index,
                        "leaf {leaf:?} landed on the wrong shard"
                    );
                    *seen.entry(leaf.0).or_default() += 1;
                }
            }
            for leaf in &all {
                assert_eq!(
                    seen.get(&leaf.0),
                    Some(&1),
                    "seed {seed:#x} N={shards}: leaf {leaf:?} not covered exactly once"
                );
            }
            assert_eq!(seen.len(), all.len(), "no extra leaves invented");
        }
    }
}

#[test]
fn manifest_union_equals_monolith() {
    let (_, output) = monolith(0x5A3);
    for shards in [2u32, 3, 8] {
        let snapshots = output.emit_shards(shards).unwrap();
        let mut union: BTreeMap<u32, u64> = BTreeMap::new();
        for snapshot in &snapshots {
            // Per-shard manifests keep the whole-build provenance so a
            // shard can stand in as a delta base / audit subject.
            assert_eq!(snapshot.manifest.config_fingerprint, output.manifest.config_fingerprint);
            assert_eq!(snapshot.manifest.records_in, output.manifest.records_in);
            assert_eq!(
                snapshot.manifest.snapshot_checksum,
                serialize::checksum(&snapshot.bytes),
                "per-shard checksum describes the shard's own bytes"
            );
            for (leaf, fp) in &snapshot.manifest.leaves {
                assert!(
                    union.insert(*leaf, *fp).is_none(),
                    "leaf {leaf} fingerprinted by two shards"
                );
            }
        }
        assert_eq!(union, output.manifest.leaves, "N={shards}: fingerprint union != monolith");
    }
}

#[test]
fn single_shard_is_byte_identical_to_monolith() {
    let (_, output) = monolith(0x5A4);
    let snapshots = output.emit_shards(1).unwrap();
    assert_eq!(snapshots[0].bytes, output.bytes, "N=1 emission must be exact");
    assert_eq!(snapshots[0].manifest.leaves, output.manifest.leaves);
    assert_eq!(snapshots[0].manifest.shard, Some((0, 1)));
    // Same bytes → same checksum as the monolith records.
    assert_eq!(snapshots[0].manifest.snapshot_checksum, output.manifest.snapshot_checksum);
}

#[test]
fn shards_answer_their_leaves_like_the_monolith() {
    let (corpus, output) = monolith(0x5A5);
    let engine = Engine::new(std::sync::Arc::new(output.model.clone()));
    let shards = 3u32;
    let snapshots = output.emit_shards(shards).unwrap();
    let shard_engines: Vec<Engine> =
        snapshots.iter().map(|s| Engine::new(std::sync::Arc::new(s.model.clone()))).collect();

    // Keyphrase ids are vocab-local (each shard re-interns its own
    // vocabulary), so equality is over the resolved *texts*.
    let texts = |engine: &Engine, response: &graphex_core::InferResponse| -> Vec<String> {
        response
            .predictions
            .iter()
            .map(|p| engine.model().keyphrase_text(p.keyphrase).unwrap().to_string())
            .collect()
    };

    let mut checked = 0usize;
    for item in corpus.marketplace().items.iter().take(120) {
        let request = InferRequest::new(&item.title, item.leaf).k(10);
        let want = engine.infer(&request);
        let shard = shard_of(item.leaf, shards) as usize;
        let got = shard_engines[shard].infer(&request);
        assert_eq!(got.outcome, want.outcome, "{}", item.title);
        assert_eq!(
            texts(&shard_engines[shard], &got),
            texts(&engine, &want),
            "title {:?} (leaf {:?}) differs on shard {shard}",
            item.title,
            item.leaf
        );
        checked += 1;
    }
    assert!(checked >= 100);

    // Unknown leaf → the global fallback, identically on every shard.
    let request = InferRequest::new("wireless noise cancelling headphones", LeafId(1)).k(10);
    let want = engine.infer(&request);
    for (i, shard_engine) in shard_engines.iter().enumerate() {
        let got = shard_engine.infer(&request);
        assert_eq!(got.outcome, want.outcome, "shard {i} fallback outcome");
        assert_eq!(
            texts(shard_engine, &got),
            texts(&engine, &want),
            "shard {i} fallback answers differ from monolith"
        );
    }
}

#[test]
fn shard_publish_roundtrips_through_registry() {
    let (_, output) = monolith(0x5A6);
    let root = tempdir("publish");
    let snapshots = output.emit_shards(2).unwrap();
    let metas =
        graphex_pipeline::publish_shards(&snapshots, &root, "shard smoke").unwrap();
    assert_eq!(metas.len(), 2);
    for snapshot in &snapshots {
        let shard_dir = graphex_pipeline::shard_root(&root, snapshot.index);
        let registry = ModelRegistry::open(&shard_dir).unwrap();
        let current = registry.current_version().unwrap();
        let loaded = BuildManifest::load(
            registry.root().join(current.to_string()).join(graphex_pipeline::BUILDINFO_FILE),
        )
        .unwrap();
        assert_eq!(&loaded, &snapshot.manifest, "BUILDINFO survived the publish");
        assert_eq!(loaded.shard, Some((snapshot.index, 2)));
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn empty_shard_is_an_error_not_a_snapshot() {
    let (_, output) = monolith(0x5A7);
    // All leaf ids share the base offset; a shard count exceeding the
    // number of leaves guarantees at least one empty residue class.
    let leaves = output.model.leaf_ids().count() as u32;
    match output.emit_shards(leaves + 7) {
        Err(PipelineError::Shard(message)) => {
            assert!(message.contains("owns no leaves"), "unhelpful error: {message}");
        }
        other => panic!("expected Shard error, got {other:?}"),
    }
    assert!(matches!(output.emit_shards(0), Err(PipelineError::Shard(_))));
}
