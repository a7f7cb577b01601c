//! Incremental (delta) builds: drive `marketsim` churn over several
//! generations and pin `delta build ≡ full rebuild` — same bytes, same
//! inference answers — while asserting real leaf reuse happened.

use graphex_core::{Engine, GraphExConfig, InferRequest};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{
    build, BuildOutput, BuildPlan, DeltaBase, MarketsimSource, PipelineError,
};

fn config() -> GraphExConfig {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    config
}

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-pipeline-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn full_build(corpus: &ChurnCorpus, jobs: usize) -> BuildOutput {
    let plan = BuildPlan::new(config()).jobs(jobs);
    build(&plan, vec![Box::new(MarketsimSource::new(corpus))]).unwrap()
}

fn infer_answers(engine: &Engine, corpus: &ChurnCorpus) -> Vec<(String, Vec<u32>)> {
    corpus
        .marketplace()
        .items
        .iter()
        .take(40)
        .map(|item| {
            let resp = engine.infer(&InferRequest::new(&item.title, item.leaf).k(10));
            (item.title.clone(), resp.predictions.iter().map(|p| p.keyphrase).collect())
        })
        .collect()
}

/// A small many-leaf spec: churn must touch *some* leaves while leaving
/// most untouched, so delta reuse is observable (the 3-leaf tiny preset
/// gets fully dirtied by any churn step).
fn many_leaves(seed: u64) -> CategorySpec {
    CategorySpec {
        name: "DELTA".into(),
        seed,
        num_leaves: 24,
        products_per_leaf: 8,
        num_items: 500,
        num_sessions: 3_000,
        leaf_id_base: 5_000,
    }
}

#[test]
fn delta_build_equals_full_rebuild_across_generations() {
    let dir = tempdir("generations");
    // ~1% churn over 24 leaves: every generation changes *some* leaves
    // while reliably sparing most, so reuse is observable.
    let mut corpus = ChurnCorpus::new(many_leaves(0xD1), 0.01);

    // Generation 0: full build, persisted with its BUILDINFO.
    let gen0 = full_build(&corpus, 2);
    let snapshot = dir.join("model.gexm");
    gen0.write_to(&snapshot).unwrap();

    let mut reused_any = false;
    for generation in 1..=3u32 {
        let report = corpus.advance();
        assert!(report.removed + report.added > 0, "gen {generation}: churn was a no-op");

        let full = full_build(&corpus, 2);
        let delta_plan = BuildPlan::new(config())
            .jobs(4)
            .delta(DeltaBase::load(&snapshot).unwrap());
        let delta = build(&delta_plan, vec![Box::new(MarketsimSource::new(&corpus))]).unwrap();

        // The tentpole invariant: same bytes …
        assert_eq!(
            delta.bytes.as_ref(),
            full.bytes.as_ref(),
            "gen {generation}: delta build diverges from full rebuild"
        );
        assert_eq!(delta.manifest, full.manifest, "gen {generation}: manifests diverge");
        // … and same answers.
        let full_engine = Engine::from_model(full.model);
        let delta_engine = Engine::from_model(delta.model.clone());
        assert_eq!(
            infer_answers(&full_engine, &corpus),
            infer_answers(&delta_engine, &corpus),
            "gen {generation}: inference answers diverge"
        );

        // Low-rate churn over many leaves leaves most untouched: any
        // reconstruction must be accounted as built-or-reused, exactly.
        assert_eq!(
            delta.report.leaves_built + delta.report.leaves_reused,
            delta.report.leaves_total
        );
        if delta.report.leaves_reused > 0 {
            reused_any = true;
        }
        assert_eq!(delta.report.delta_base, Some(gen_checksum(&snapshot)));
        assert!(delta.report.delta_discarded.is_none());

        // Next generation deltas against this one.
        delta.write_to(&snapshot).unwrap();
    }
    assert!(reused_any, "no generation reused a single leaf — delta path never engaged");
    std::fs::remove_dir_all(&dir).ok();
}

fn gen_checksum(snapshot: &std::path::Path) -> u64 {
    graphex_core::serialize::checksum(&std::fs::read(snapshot).unwrap())
}

#[test]
fn unchanged_corpus_reuses_every_leaf() {
    let dir = tempdir("unchanged");
    let corpus = ChurnCorpus::new(CategorySpec::tiny(0xD2), 0.0);
    let first = full_build(&corpus, 2);
    let snapshot = dir.join("model.gexm");
    first.write_to(&snapshot).unwrap();

    let plan = BuildPlan::new(config()).jobs(2).delta(DeltaBase::load(&snapshot).unwrap());
    let again = build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).unwrap();
    assert_eq!(again.bytes.as_ref(), first.bytes.as_ref());
    assert_eq!(again.report.leaves_reused, again.report.leaves_total);
    assert_eq!(again.report.leaves_built, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds used to write a corpus fingerprint for the fallback into
/// `BUILDINFO` (`fallback <hex>`, after `snapshot_checksum`). A base
/// carrying that line still loads and lends every leaf; the delta's own
/// manifest no longer has it.
#[test]
fn a_buildinfo_with_a_fallback_line_still_serves_as_a_delta_base() {
    let dir = tempdir("fallback-line");
    let corpus = ChurnCorpus::new(CategorySpec::tiny(0xD6), 0.0);
    let first = full_build(&corpus, 2);
    let snapshot = dir.join("model.gexm");
    let buildinfo = first.write_to(&snapshot).unwrap();
    let text = std::fs::read_to_string(&buildinfo).unwrap();
    assert!(!text.contains("fallback"), "{text}");
    let (head, tail) = text.split_at(text.find("records_in ").unwrap());
    std::fs::write(&buildinfo, format!("{head}fallback 5f3e2a9c0d41b877\n{tail}")).unwrap();

    let plan = BuildPlan::new(config()).jobs(2).delta(DeltaBase::load(&snapshot).unwrap());
    let again = build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).unwrap();
    assert_eq!(again.bytes.as_ref(), first.bytes.as_ref());
    assert_eq!(again.report.leaves_reused, again.report.leaves_total);
    assert_eq!(again.manifest, first.manifest);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn config_change_discards_the_delta_base() {
    let dir = tempdir("config-change");
    let corpus = ChurnCorpus::new(CategorySpec::tiny(0xD3), 0.0);
    let first = full_build(&corpus, 2);
    let snapshot = dir.join("model.gexm");
    first.write_to(&snapshot).unwrap();

    let mut changed = config();
    changed.curation.min_search_count += 1;
    let plan = BuildPlan::new(changed.clone()).jobs(2).delta(DeltaBase::load(&snapshot).unwrap());
    let rebuilt = build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).unwrap();
    assert_eq!(rebuilt.report.leaves_reused, 0, "config changed: nothing may be borrowed");
    assert!(rebuilt.report.delta_discarded.is_some());
    // What it built instead is the full build under the changed config.
    let plan = BuildPlan::new(changed).jobs(2);
    let full = build(&plan, vec![Box::new(MarketsimSource::new(&corpus))]).unwrap();
    assert_eq!(rebuilt.bytes.as_ref(), full.bytes.as_ref());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_buildinfo_is_rejected() {
    let dir = tempdir("stale");
    let corpus = ChurnCorpus::new(CategorySpec::tiny(0xD4), 0.0);
    let output = full_build(&corpus, 1);
    let snapshot = dir.join("model.gexm");
    let buildinfo = output.write_to(&snapshot).unwrap();

    // Tamper with the snapshot so the manifest no longer describes it.
    let mut bytes = std::fs::read(&snapshot).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&snapshot, &bytes).unwrap();
    let err = DeltaBase::load(&snapshot);
    assert!(matches!(err, Err(PipelineError::Delta(_))), "stale BUILDINFO accepted: {err:?}");
    assert!(buildinfo.is_file());

    // A base an older build wrote (version word 2 under a trailer this
    // build's checksum does not match) mismatches the same way, and is
    // named.
    bytes[4] = 2;
    std::fs::write(&snapshot, &bytes).unwrap();
    match DeltaBase::load(&snapshot) {
        Err(PipelineError::Delta(why)) => {
            assert!(why.contains("a GEXM v2 snapshot predates the v3 checksum — rebuild it"), "{why}")
        }
        other => panic!("expected a delta error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_buildinfo_is_a_delta_error() {
    let dir = tempdir("missing-info");
    let corpus = ChurnCorpus::new(CategorySpec::tiny(0xD5), 0.0);
    let output = full_build(&corpus, 1);
    let snapshot = dir.join("model.gexm");
    graphex_core::serialize::write_bytes_to(&output.bytes, &snapshot).unwrap();
    let err = DeltaBase::load(&snapshot);
    assert!(matches!(err, Err(PipelineError::Delta(_))));
    std::fs::remove_dir_all(&dir).ok();
}
