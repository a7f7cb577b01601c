//! One fully materialized experiment dataset: catalog + query universe +
//! training-window log + evaluation-window log.
//!
//! This mirrors the paper's setup (Sec. IV-B): GraphEx curates keyphrases
//! from the long training window *without click associations*; the XMC
//! baselines consume the click log; test-time search counts come from a
//! separate short window "different from the one year duration for the
//! training set" to remove training-data bias.

use crate::catalog::{CategorySpec, Item, Marketplace};
use crate::oracle::RelevanceOracle;
use crate::queries::{build_index, generate_queries, Query, QueryIndex};
use crate::sessions::{simulate, SearchLog, SessionConfig};
use graphex_core::{KeyphraseRecord, LeafId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A generated category with everything experiments need.
#[derive(Debug)]
pub struct CategoryDataset {
    pub marketplace: Marketplace,
    pub queries: Vec<Query>,
    pub index: QueryIndex,
    /// Long training window (the paper: 6 months for GraphEx, 1 year for
    /// XMC models — we use one window for both, the distinction the paper
    /// draws is about *what* is consumed, not *how long*).
    pub train_log: SearchLog,
    /// Short evaluation window for unbiased test-time search counts
    /// (the paper's 15-day window).
    pub eval_log: SearchLog,
}

impl CategoryDataset {
    /// Generates a dataset from a spec. The evaluation window simulates
    /// 1/12 of the training sessions (≈ 15 days vs 6 months).
    pub fn generate(spec: CategorySpec) -> Self {
        let marketplace = Marketplace::generate(spec);
        let queries = generate_queries(&marketplace);
        let index = build_index(&marketplace, &queries);
        let config = SessionConfig::default();
        let spec = &marketplace.spec;
        let train_log = simulate(
            &marketplace,
            &queries,
            &index,
            spec.num_sessions as u64,
            spec.seed ^ 0x11AA,
            &config,
        );
        let eval_sessions = (spec.num_sessions as u64 / 12).max(100);
        let eval_log = simulate(
            &marketplace,
            &queries,
            &index,
            eval_sessions,
            spec.seed ^ 0x22BB,
            &config,
        );
        Self {
            marketplace,
            queries,
            index,
            train_log,
            eval_log,
        }
    }

    /// Raw keyphrase rows for GraphEx construction: query text, Cassini
    /// leaf, **observed** search count from the training window, recall
    /// count from the engine. Queries never searched in the window don't
    /// exist in the log and are not emitted.
    pub fn keyphrase_records(&self) -> Vec<KeyphraseRecord> {
        self.queries
            .iter()
            .filter(|q| self.train_log.search_counts[q.id as usize] > 0)
            .map(|q| KeyphraseRecord {
                text: q.text.clone(),
                leaf: q.leaf,
                search_count: self.train_log.search_counts[q.id as usize],
                recall_count: self.train_log.recall_counts[q.id as usize],
            })
            .collect()
    }

    /// The relevance oracle over this dataset.
    pub fn oracle(&self) -> RelevanceOracle<'_> {
        RelevanceOracle::new(&self.marketplace, &self.queries)
    }

    /// Samples `n` test items uniformly (the paper samples 1000/400/200
    /// actively listed items per category).
    pub fn test_items(&self, n: usize, seed: u64) -> Vec<&Item> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..self.marketplace.items.len()).collect();
        ids.shuffle(&mut rng);
        ids.truncate(n);
        ids.into_iter()
            .map(|i| &self.marketplace.items[i])
            .collect()
    }

    /// Evaluation-window search count for a query text (0 if never searched
    /// or unknown). Used for head/tail classification at evaluation time.
    pub fn eval_search_count(&self, text: &str) -> u32 {
        self.oracle()
            .query_by_text(text)
            .map(|q| self.eval_log.search_counts[q.id as usize])
            .unwrap_or(0)
    }

    /// Distinct leaves present in the dataset.
    pub fn leaf_ids(&self) -> Vec<LeafId> {
        self.marketplace.leaves.iter().map(|l| l.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CategoryDataset {
        CategoryDataset::generate(CategorySpec::tiny(41))
    }

    #[test]
    fn keyphrase_records_use_observed_counts() {
        let ds = tiny();
        let records = ds.keyphrase_records();
        assert!(!records.is_empty());
        for rec in &records {
            let q = ds
                .oracle()
                .query_by_text(&rec.text)
                .expect("record text is a real query");
            assert_eq!(rec.search_count, ds.train_log.search_counts[q.id as usize]);
            assert!(rec.search_count > 0);
            assert_eq!(rec.leaf, q.leaf);
        }
    }

    #[test]
    fn eval_window_differs_from_train_window() {
        let ds = tiny();
        assert_ne!(ds.train_log.search_counts, ds.eval_log.search_counts);
        assert!(ds.eval_log.sessions < ds.train_log.sessions);
    }

    #[test]
    fn test_items_sampling_is_deterministic_and_sized() {
        let ds = tiny();
        let a = ds.test_items(50, 7);
        let b = ds.test_items(50, 7);
        assert_eq!(a.len(), 50);
        assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id));
        let c = ds.test_items(50, 8);
        assert!(a.iter().zip(&c).any(|(x, y)| x.id != y.id));
    }

    #[test]
    fn graphex_builds_from_dataset() {
        // End-to-end smoke: the dataset's records feed straight into the
        // builder with a relaxed threshold.
        let ds = tiny();
        let mut config = graphex_core::GraphExConfig::default();
        config.curation.min_search_count = 2;
        let model = graphex_core::GraphExBuilder::new(config)
            .add_records(ds.keyphrase_records())
            .build()
            .unwrap();
        let item = &ds.marketplace.items[0];
        let mut scratch = graphex_core::Scratch::new();
        let response = model.infer_request(
            &graphex_core::InferRequest::new(&item.title, item.leaf).k(10),
            &mut scratch,
        );
        assert!(!response.is_empty(), "no predictions for {:?}", item.title);
    }

    #[test]
    fn eval_search_count_unknown_is_zero() {
        let ds = tiny();
        assert_eq!(ds.eval_search_count("definitely not a query"), 0);
    }
}
