//! Churn-driven keyphrase corpus: the build pipeline's synthetic data
//! source.
//!
//! The paper's operational story (Sec. I-A4, IV-G) is a *daily rebuild*
//! against a query universe that churns ~2 % per day. [`ChurnCorpus`]
//! materializes exactly that: a seeded marketplace whose query universe
//! evolves generation over generation via [`crate::churn::evolve_queries`],
//! emitting the keyphrase records a search-log aggregation job would hand
//! the builder each day.
//!
//! Counts are derived deterministically from stable query properties
//! (demand weight and text), **not** from re-simulated sessions, so a
//! query that survives a churn step emits an *identical* record the next
//! generation. That is the property incremental (delta) builds exercise:
//! only the leaves actually touched by churn change fingerprints, and a
//! delta build must reconstruct exactly those.

use crate::catalog::{CategorySpec, Marketplace};
use crate::churn::{evolve_queries, ChurnReport};
use crate::queries::{generate_queries, Query};
use graphex_core::KeyphraseRecord;

/// A query universe evolving by daily churn, emitting per-generation
/// keyphrase records.
#[derive(Debug)]
pub struct ChurnCorpus {
    marketplace: Marketplace,
    queries: Vec<Query>,
    rate: f64,
    generation: u32,
    last_report: Option<ChurnReport>,
}

impl ChurnCorpus {
    /// Generation 0 of a corpus: the spec's full query universe, before
    /// any churn. `rate` is the per-generation churn fraction (the paper
    /// cites 2 % daily; tests often use more to touch more leaves).
    pub fn new(spec: CategorySpec, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "churn rate must be in [0,1]");
        let marketplace = Marketplace::generate(spec);
        let queries = generate_queries(&marketplace);
        Self {
            marketplace,
            queries,
            rate,
            generation: 0,
            last_report: None,
        }
    }

    /// The generation this corpus is at (0 = pre-churn).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// What the most recent [`ChurnCorpus::advance`] did.
    pub fn last_report(&self) -> Option<ChurnReport> {
        self.last_report
    }

    /// The backing marketplace (for oracles and serving traffic).
    pub fn marketplace(&self) -> &Marketplace {
        &self.marketplace
    }

    /// Evolves the universe by one generation ("day"). Deterministic: the
    /// churn seed is derived from the marketplace seed and the generation
    /// number, so generation `n` of two identically-specced corpora is
    /// identical.
    pub fn advance(&mut self) -> ChurnReport {
        self.generation += 1;
        let seed = self.marketplace.spec.seed ^ (0x0C0D_u64 << 16) ^ u64::from(self.generation);
        let (evolved, report) = evolve_queries(&self.marketplace, &self.queries, self.rate, seed);
        self.queries = evolved;
        self.last_report = Some(report);
        report
    }

    /// Advances until the corpus reaches `generation` (no-op if already
    /// there or past).
    pub fn advance_to(&mut self, generation: u32) {
        while self.generation < generation {
            self.advance();
        }
    }

    /// The current generation's keyphrase records — what the daily
    /// aggregation job would feed the build pipeline.
    ///
    /// Search counts scale the query's demand weight; recall counts hash
    /// the query text. Both are functions of properties churn preserves
    /// for surviving queries, so an untouched query yields a bit-identical
    /// record every generation.
    pub fn records(&self) -> Vec<KeyphraseRecord> {
        self.queries
            .iter()
            .map(|q| {
                KeyphraseRecord::new(
                    q.text.clone(),
                    q.leaf,
                    search_count_of(q),
                    recall_count_of(&q.text),
                )
            })
            .collect()
    }

    /// Number of queries in the current universe.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

fn search_count_of(q: &Query) -> u32 {
    // Zipf-shaped weights land roughly in (0, 20]; scale into a
    // plausible 6-month search-count range.
    (q.weight * 40.0).ceil().max(1.0) as u32
}

fn recall_count_of(text: &str) -> u32 {
    // FNV-1a of the text: stable across generations and re-ids.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    (hash % 5000) as u32 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_are_deterministic() {
        let mut a = ChurnCorpus::new(CategorySpec::tiny(77), 0.1);
        let mut b = ChurnCorpus::new(CategorySpec::tiny(77), 0.1);
        a.advance_to(3);
        b.advance();
        b.advance();
        b.advance();
        assert_eq!(a.generation(), 3);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn surviving_queries_emit_identical_records() {
        let mut corpus = ChurnCorpus::new(CategorySpec::tiny(78), 0.1);
        let before = corpus.records();
        let report = corpus.advance();
        assert!(report.removed + report.added > 0, "churn did nothing");
        let after = corpus.records();
        let index: std::collections::HashMap<&str, &KeyphraseRecord> =
            before.iter().map(|r| (r.text.as_str(), r)).collect();
        let mut survived = 0usize;
        for rec in &after {
            if let Some(prev) = index.get(rec.text.as_str()) {
                assert_eq!(&rec, prev, "surviving query changed its record");
                survived += 1;
            }
        }
        assert!(survived > 0);
        assert!(survived < after.len(), "no new queries appeared");
    }

    #[test]
    fn records_are_buildable() {
        let corpus = ChurnCorpus::new(CategorySpec::tiny(79), 0.05);
        let mut config = graphex_core::GraphExConfig::default();
        config.curation.min_search_count = 1;
        let model = graphex_core::GraphExBuilder::new(config)
            .add_records(corpus.records())
            .build()
            .unwrap();
        assert!(model.num_keyphrases() > 0);
    }
}
