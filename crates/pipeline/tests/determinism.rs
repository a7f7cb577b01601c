//! The pipeline's headline invariant: parallel sharded construction is
//! **byte-identical** to the sequential [`GraphExBuilder`] — for any
//! worker count and any record arrival order — on seeded marketsim
//! corpora.
//!
//! This is the property the whole delta-build design rests on: if
//! scheduling or sharding could leak into the bytes, fingerprint-based
//! leaf reuse could never be exact.

use graphex_core::{serialize, GraphExBuilder, GraphExConfig, KeyphraseRecord};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildPlan, VecSource};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn config() -> GraphExConfig {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    config
}

fn corpus_records(seed: u64) -> Vec<KeyphraseRecord> {
    // Duplicate a slice of the records so the curation merge path is
    // exercised (not just distinct rows).
    let corpus = ChurnCorpus::new(CategorySpec::tiny(seed), 0.0);
    let mut records = corpus.records();
    let dupes: Vec<KeyphraseRecord> = records.iter().take(25).cloned().collect();
    records.extend(dupes);
    records
}

fn pipeline_bytes(
    records: Vec<KeyphraseRecord>,
    jobs: usize,
) -> (Vec<u8>, graphex_pipeline::BuildReport) {
    let plan = BuildPlan::new(config()).jobs(jobs);
    let output = build(&plan, vec![Box::new(VecSource::new("test", records))]).unwrap();
    (output.bytes.to_vec(), output.report)
}

#[test]
fn parallel_build_is_byte_identical_to_sequential_builder() {
    for seed in [11u64, 4242] {
        let records = corpus_records(seed);
        let (reference, ref_stats) = GraphExBuilder::new(config())
            .add_records(records.clone())
            .build_with_stats()
            .unwrap();
        let reference_bytes = serialize::to_bytes(&reference);

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF00D);
        for jobs in [1usize, 2, 8] {
            // Shuffle differently per worker count: neither arrival order
            // nor scheduling may reach the bytes.
            let mut shuffled = records.clone();
            shuffled.shuffle(&mut rng);
            let (bytes, report) = pipeline_bytes(shuffled, jobs);
            assert_eq!(
                bytes,
                reference_bytes.as_ref(),
                "jobs={jobs} seed={seed}: pipeline bytes diverge from sequential builder"
            );
            assert_eq!(
                report.curation, ref_stats,
                "jobs={jobs}: curation stats diverge"
            );
            assert_eq!(report.jobs, jobs);
            assert_eq!(report.leaves_built, report.leaves_total);
            assert_eq!(report.leaves_reused, 0);
            assert_eq!(report.snapshot_checksum, serialize::checksum(&bytes));
        }
    }
}

#[test]
fn multi_source_ingest_equals_single_source() {
    let records = corpus_records(99);
    let (all, _) = pipeline_bytes(records.clone(), 3);

    let mid = records.len() / 2;
    let (a, b) = records.split_at(mid);
    let plan = BuildPlan::new(config()).jobs(3);
    let output = build(
        &plan,
        vec![
            Box::new(VecSource::new("first-half", a.to_vec())),
            Box::new(VecSource::new("second-half", b.to_vec())),
        ],
    )
    .unwrap();
    assert_eq!(
        output.bytes.as_ref(),
        all,
        "source splitting leaked into the bytes"
    );
    assert_eq!(output.report.sources.len(), 2);
    assert_eq!(
        output.report.records_in,
        records.len() as u64,
        "per-source accounting lost records"
    );
}

#[test]
fn built_snapshot_round_trips_and_serves() {
    let records = corpus_records(7);
    let (bytes, report) = pipeline_bytes(records, 4);
    let model = serialize::from_bytes(&bytes).unwrap();
    assert_eq!(model.leaf_ids().count(), report.leaves_total);
    assert_eq!(model.num_keyphrases(), report.keyphrases);
    assert!(model.has_fallback());
}

#[test]
fn empty_corpus_fails_like_the_builder() {
    let plan = BuildPlan::new(GraphExConfig::default()).jobs(2);
    let err = build(&plan, vec![Box::new(VecSource::new("empty", Vec::new()))]);
    assert!(
        matches!(err, Err(graphex_pipeline::PipelineError::Model(_))),
        "empty corpus must fail admission, got {err:?}"
    );
}
