//! Batch inference pipeline: the full pass and the daily differential.
//!
//! Paper Sec. IV-H: "The batch inference is done in two parts: 1) for all
//! items in eBay, and 2) daily differential, i.e. the difference of all new
//! items created/revised and then merged with the old existing items."
//! Results land in the KV store the serving API reads. The pipeline rides
//! [`graphex_core::parallel::batch_infer_with`] with one [`InferRequest`]
//! envelope per item: each worker scores its chunk of the items, writes
//! every servable answer into the (sharded) store itself and keeps its
//! own tally, so no per-item vector is ever built and nothing is stored
//! serially. Each record carries the [`kv::fingerprint`] of the item's
//! title and leaf, so the serving API answers from it exactly the requests
//! it was computed for. The report tallies every item's
//! [`graphex_core::Outcome`] so a batch run says *why* items were skipped,
//! not just how many.

use crate::kv::{self, KvStore, Tags};
use crate::registry::ModelWatch;
use graphex_core::parallel::batch_infer_with;
use graphex_core::{
    GraphExModel, InferRequest, InferResponse, LeafId, OutcomeCounts, ScratchPool,
};

/// A batch work item (owned so pipelines can be fed from any source).
#[derive(Debug, Clone)]
pub struct BatchItem {
    pub id: u32,
    pub title: String,
    pub leaf: LeafId,
}

/// What a batch run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    pub items_processed: usize,
    pub items_with_recommendations: usize,
    pub total_keyphrases: usize,
    /// Per-outcome tallies (`unknown_leaf` + `empty` = skipped items).
    pub outcomes: OutcomeCounts,
    pub elapsed_ms: u128,
    /// Registry version of the snapshot this run scored with (0 when the
    /// pipeline was built over a borrowed model instead of a watch).
    pub snapshot_version: u64,
}

/// The model a pipeline scores with: borrowed directly, or resolved from
/// a registry watch at the start of each run (so a long-lived pipeline
/// picks up republished snapshots between runs, while any single run is
/// scored by exactly one snapshot).
enum PipelineModel<'a> {
    Borrowed(&'a GraphExModel),
    Watched(ModelWatch),
}

/// Batch executor over a GraphEx model writing into a [`KvStore`].
pub struct BatchPipeline<'a> {
    model: PipelineModel<'a>,
    store: &'a KvStore,
    k: usize,
    threads: usize,
}

impl<'a> BatchPipeline<'a> {
    /// `threads = 0` uses all cores (the paper's batch node uses 70).
    pub fn new(model: &'a GraphExModel, store: &'a KvStore, k: usize, threads: usize) -> Self {
        Self { model: PipelineModel::Borrowed(model), store, k, threads }
    }

    /// Pipeline over a registry watch (see [`crate::ModelRegistry`]):
    /// each run resolves the active snapshot at its start.
    pub fn with_watch(watch: ModelWatch, store: &'a KvStore, k: usize, threads: usize) -> Self {
        Self { model: PipelineModel::Watched(watch), store, k, threads }
    }

    /// Full pass over `items` ("for all items in eBay").
    pub fn run_full(&self, items: &[BatchItem]) -> BatchReport {
        self.run(items)
    }

    /// Differential pass ("all new items created/revised, merged with the
    /// old existing items"): identical compute, but by contract callers pass
    /// only the changed items. Existing entries for other items are left
    /// untouched; changed items are overwritten (version bump). Ids within
    /// one batch must be distinct: workers store concurrently, so of two
    /// items with one id either may be the record that stays.
    pub fn run_differential(&self, changed: &[BatchItem]) -> BatchReport {
        self.run(changed)
    }

    fn run(&self, items: &[BatchItem]) -> BatchReport {
        let start = std::time::Instant::now();
        // Resolve once per run: the held `Arc` pins the snapshot for the
        // entire pass even if a publish lands mid-run.
        let (active, snapshot_version);
        let model: &GraphExModel = match &self.model {
            PipelineModel::Borrowed(m) => {
                snapshot_version = 0;
                m
            }
            PipelineModel::Watched(watch) => {
                active = watch.current();
                snapshot_version = active.version;
                active.engine.model()
            }
        };
        let request = |i: usize| {
            let item = &items[i];
            InferRequest::new(&item.title, item.leaf)
                .k(self.k)
                .id(u64::from(item.id))
                .resolve_texts(true)
        };
        let store = |tally: &mut BatchReport, i: usize, response: InferResponse| {
            tally.items_processed += 1;
            tally.outcomes.record(response.outcome);
            if !response.is_servable() {
                return;
            }
            tally.items_with_recommendations += 1;
            tally.total_keyphrases += response.texts.len();
            let item = &items[i];
            let tags = Tags {
                snapshot_version,
                overlay_epoch: 0,
                fingerprint: kv::fingerprint(item.leaf, &item.title),
            };
            self.store.put_tagged(u64::from(item.id), &response.texts, response.outcome, tags);
        };
        let workers =
            batch_infer_with(model, items.len(), request, self.threads, &ScratchPool::new(), store);
        let mut report = BatchReport { snapshot_version, ..BatchReport::default() };
        for worker in workers {
            report.items_processed += worker.items_processed;
            report.items_with_recommendations += worker.items_with_recommendations;
            report.total_keyphrases += worker.total_keyphrases;
            report.outcomes += worker.outcomes;
        }
        report.elapsed_ms = start.elapsed().as_millis();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, Outcome};

    fn model() -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records((0..20).map(|i| {
                KeyphraseRecord::new(format!("brand{i} gadget model{i}"), LeafId(i % 4), 50 + i, 5)
            }))
            .build()
            .unwrap()
    }

    fn items(n: u32) -> Vec<BatchItem> {
        (0..n)
            .map(|i| BatchItem {
                id: i,
                title: format!("brand{} gadget model{} pro", i % 20, i % 20),
                leaf: LeafId(i % 4),
            })
            .collect()
    }

    #[test]
    fn full_batch_fills_store() {
        let model = model();
        let store = KvStore::new();
        let pipeline = BatchPipeline::new(&model, &store, 10, 2);
        let batch = items(50);
        let report = pipeline.run_full(&batch);
        assert_eq!(report.items_processed, 50);
        assert_eq!(report.items_with_recommendations, 50);
        assert_eq!(report.outcomes.exact_leaf, 50);
        assert_eq!(store.len(), 50);
        assert!(report.total_keyphrases >= 50);
        for item in &batch {
            let recs = store.get(u64::from(item.id)).unwrap();
            assert!(!recs.keyphrases.is_empty());
            assert_eq!(recs.outcome, Outcome::ExactLeaf);
        }
    }

    /// One worker or four: the same report (but for the clock) and the
    /// same records under the same versions, after a full pass and after a
    /// second one that overwrites every record.
    #[test]
    fn thread_count_changes_neither_report_nor_store() {
        let model = model();
        // Every fifth item sits in a leaf the model lacks: skipped, tallied.
        let mut batch = items(203);
        for item in batch.iter_mut().step_by(5) {
            item.leaf = LeafId(77);
        }
        let run = |threads| {
            let store = KvStore::new();
            let pipeline = BatchPipeline::new(&model, &store, 10, threads);
            pipeline.run_full(&batch);
            let report = BatchReport { elapsed_ms: 0, ..pipeline.run_full(&batch) };
            let records: Vec<_> = batch.iter().map(|item| store.get(u64::from(item.id))).collect();
            (report, records)
        };
        let (one, stored_by_one) = run(1);
        assert_eq!(one.items_processed, 203);
        assert_eq!(one.outcomes.total(), 203);
        assert!(one.outcomes.meta_fallback + one.outcomes.unknown_leaf > 0);
        assert!(stored_by_one.iter().flatten().all(|record| record.version == 2));
        assert_eq!((one, stored_by_one), run(4));
    }

    #[test]
    fn differential_touches_only_changed() {
        let model = model();
        let store = KvStore::new();
        let pipeline = BatchPipeline::new(&model, &store, 10, 2);
        let batch = items(20);
        pipeline.run_full(&batch);
        let v_before: Vec<u32> =
            batch.iter().map(|i| store.get(u64::from(i.id)).unwrap().version).collect();

        // Revise items 0 and 1.
        let mut changed = vec![batch[0].clone(), batch[1].clone()];
        changed[0].title = "brand3 gadget model3 deluxe".into();
        changed[0].leaf = LeafId(3);
        let report = pipeline.run_differential(&changed);
        assert_eq!(report.items_processed, 2);

        assert_eq!(store.get(0).unwrap().version, v_before[0] + 1);
        assert_eq!(store.get(1).unwrap().version, v_before[1] + 1);
        for item in &batch[2..] {
            assert_eq!(store.get(u64::from(item.id)).unwrap().version, 1, "untouched item re-written");
        }
        // Revised title → revised keyphrases.
        assert!(store.get(0).unwrap().keyphrases.iter().any(|k| k.contains("model3")));
    }

    #[test]
    fn unknown_leaf_items_are_skipped_not_stored() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        let model = GraphExBuilder::new(config)
            .add_record(KeyphraseRecord::new("known phrase", LeafId(1), 10, 1))
            .build()
            .unwrap();
        let store = KvStore::new();
        let pipeline = BatchPipeline::new(&model, &store, 10, 1);
        let report = pipeline.run_full(&[BatchItem {
            id: 9,
            title: "known phrase item".into(),
            leaf: LeafId(99),
        }]);
        assert_eq!(report.items_with_recommendations, 0);
        assert_eq!(report.outcomes.unknown_leaf, 1);
        assert!(store.get(9).is_none());
    }

    #[test]
    fn empty_batch_report() {
        let model = model();
        let store = KvStore::new();
        let pipeline = BatchPipeline::new(&model, &store, 10, 0);
        let report = pipeline.run_full(&[]);
        assert_eq!(report.items_processed, 0);
        assert_eq!(report.total_keyphrases, 0);
        assert_eq!(report.outcomes.total(), 0);
    }
}
