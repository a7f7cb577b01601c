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

#[test]
fn zero_batch_builds_like_batch_one() {
    let records = corpus_records(5);
    let bytes_with = |batch: usize| {
        let mut plan = BuildPlan::new(config()).jobs(2);
        plan.batch = batch;
        let source = VecSource::new("test", records.clone());
        build(&plan, vec![Box::new(source)]).unwrap().bytes.to_vec()
    };
    assert_eq!(
        bytes_with(0),
        bytes_with(1),
        "batch 0 must build as batch 1"
    );
}

/// Yields its records one per batch, then fails like a read error.
struct FailingSource {
    records: Vec<KeyphraseRecord>,
    stats: graphex_pipeline::SourceStats,
}

impl graphex_pipeline::RecordSource for FailingSource {
    fn name(&self) -> &str {
        "failing"
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<KeyphraseRecord>) -> Result<(), String> {
        out.clear();
        if self.records.is_empty() {
            return Err("disk went away".into());
        }
        let keep = self.records.len().saturating_sub(max);
        out.extend(self.records.drain(keep..));
        Ok(())
    }

    fn stats(&self) -> &graphex_pipeline::SourceStats {
        &self.stats
    }
}

/// A source error ends the build with that error, even while ingest is
/// blocked on full shard channels: the workers must be released, not
/// left waiting for batches that will never come.
#[test]
fn ingest_error_under_backpressure_returns_instead_of_hanging() {
    let records: Vec<KeyphraseRecord> = (0..20_000u32)
        .map(|i| {
            let text = format!("wireless noise cancelling headphones model {i} black");
            KeyphraseRecord::new(text, graphex_core::LeafId(i % 4), 50, 10)
        })
        .collect();
    let source = FailingSource {
        records,
        stats: graphex_pipeline::SourceStats::default(),
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut plan = BuildPlan::new(config()).jobs(2);
        plan.batch = 1;
        let _ = done_tx.send(build(&plan, vec![Box::new(source)]).map(|_| ()));
    });
    let result = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("build hung after its source failed");
    assert!(
        matches!(&result, Err(graphex_pipeline::PipelineError::Source(e)) if e == "disk went away"),
        "got {result:?}"
    );
}
