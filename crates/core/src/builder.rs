//! Construction phase (paper Sec. III-D).
//!
//! Builds one bipartite CSR graph per leaf category from curated keyphrase
//! records. Construction is deterministic, single-pass, and involves no
//! weight updates or hyper-parameter training — the property that lets
//! GraphEx refresh daily ("completes in under 1 minute", Sec. IV-G).

use crate::alignment::Alignment;
use crate::assembly::{assemble_model, canonicalize};
use crate::curation::{curate, CurationConfig, CurationStats};
use crate::error::{GraphExError, Result};
use crate::model::GraphExModel;
use crate::types::KeyphraseRecord;

/// Model construction options.
#[derive(Debug, Clone)]
pub struct GraphExConfig {
    /// Curation thresholds (Sec. III-B / Table VII).
    pub curation: CurationConfig,
    /// Default ranking alignment (Sec. III-E2 / Table VI). LTA unless
    /// ablating.
    pub alignment: Alignment,
    /// Stem tokens on both the keyphrase and title side (Sec. IV-F1's
    /// "proprietary stemming function to increase the reach of token
    /// matches"). On by default.
    pub stemming: bool,
    /// Also build a meta-category-wide fallback graph used for items whose
    /// leaf has no dedicated graph (cold leaves). On by default.
    pub build_meta_fallback: bool,
}

impl GraphExConfig {
    /// Paper-default configuration.
    pub fn new() -> Self {
        Self {
            curation: CurationConfig::default(),
            alignment: Alignment::Lta,
            stemming: true,
            build_meta_fallback: true,
        }
    }
}

// `Default` must match `new` (derive would give stemming=false).
impl std::default::Default for GraphExConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Accumulates keyphrase records and builds a [`GraphExModel`].
#[derive(Debug, Default)]
pub struct GraphExBuilder {
    config: GraphExConfig,
    records: Vec<KeyphraseRecord>,
}

impl GraphExBuilder {
    pub fn new(config: GraphExConfig) -> Self {
        Self {
            config,
            records: Vec::new(),
        }
    }

    /// Adds one raw keyphrase row.
    pub fn add_record(mut self, record: KeyphraseRecord) -> Self {
        self.records.push(record);
        self
    }

    /// Adds many raw keyphrase rows.
    pub fn add_records(mut self, records: impl IntoIterator<Item = KeyphraseRecord>) -> Self {
        self.records.extend(records);
        self
    }

    /// Number of raw records staged so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Builds the model; see [`GraphExBuilder::build_with_stats`].
    pub fn build(self) -> Result<GraphExModel> {
        self.build_with_stats().map(|(m, _)| m)
    }

    /// Builds the model and reports what curation did.
    ///
    /// Construction is canonical: curated records are sorted into the
    /// [`crate::assembly::canonicalize`] order before assembly, so the
    /// resulting model — and its serialized bytes — depend only on the
    /// record *multiset*, never on arrival order. The parallel build
    /// pipeline (`graphex-pipeline`) is pinned byte-identical to this
    /// sequential reference.
    ///
    /// Fails with [`GraphExError::EmptyModel`] if nothing survives curation
    /// (e.g. threshold too strict for a small category — the situation the
    /// paper hit with CAT 3).
    pub fn build_with_stats(self) -> Result<(GraphExModel, CurationStats)> {
        let GraphExBuilder { config, records } = self;
        let (mut curated, stats) = curate(records, &config.curation);
        if curated.is_empty() {
            return Err(GraphExError::EmptyModel);
        }
        canonicalize(&mut curated);
        Ok((assemble_model(&config, &curated), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::InferenceParams;
    use crate::inference::Scratch;
    use crate::types::LeafId;

    fn rec(text: &str, leaf: u32, s: u32, r: u32) -> KeyphraseRecord {
        KeyphraseRecord::new(text, LeafId(leaf), s, r)
    }

    fn no_curation() -> GraphExConfig {
        let mut c = GraphExConfig::default();
        c.curation.min_search_count = 0;
        c
    }

    #[test]
    fn empty_build_fails() {
        let err = GraphExBuilder::new(GraphExConfig::default()).build();
        assert!(matches!(err, Err(GraphExError::EmptyModel)));
    }

    #[test]
    fn all_below_threshold_fails() {
        let err = GraphExBuilder::new(GraphExConfig::default())
            .add_record(rec("rare phrase", 1, 3, 1))
            .build();
        assert!(matches!(err, Err(GraphExError::EmptyModel)));
    }

    #[test]
    fn builds_one_graph_per_leaf_plus_fallback() {
        let model = GraphExBuilder::new(no_curation())
            .add_records(vec![
                rec("phone case", 1, 10, 1),
                rec("phone charger", 2, 10, 1),
            ])
            .build()
            .unwrap();
        assert_eq!(model.leaf_ids().count(), 2);
        assert!(model.has_fallback());
        let stats = model.stats();
        // "phone" interned once globally, rows exist in both leaves.
        assert_eq!(stats.num_keyphrases, 2);
    }

    #[test]
    fn stemming_bridges_title_and_keyphrase_forms() {
        let model = GraphExBuilder::new(no_curation())
            .add_record(rec("gaming headphone", 1, 10, 1))
            .build()
            .unwrap();
        // Title uses the plural; keyphrase the singular. Stemming unifies.
        let mut scratch = crate::Scratch::new();
        let preds = model
            .infer_request(
                &crate::InferRequest::new("gaming headphones bundle", LeafId(1)).k(5),
                &mut scratch,
            )
            .predictions;
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].matched, 2);
        // Output text preserves the original (normalized) query form.
        assert_eq!(
            model.keyphrase_text(preds[0].keyphrase),
            Some("gaming headphone")
        );
    }

    #[test]
    fn duplicate_normalized_keyphrases_merge() {
        let model = GraphExBuilder::new(no_curation())
            .add_records(vec![
                rec("Phone Case!", 1, 10, 5),
                rec("phone case", 1, 7, 9),
            ])
            .build()
            .unwrap();
        let g = model.leaf_graph(LeafId(1)).unwrap();
        assert_eq!(g.num_labels(), 1);
        assert_eq!(g.search_count(0), 17);
        assert_eq!(g.recall_count(0), 9);
    }

    #[test]
    fn repeated_word_in_keyphrase_counts_once() {
        let model = GraphExBuilder::new(no_curation())
            .add_record(rec("case case case", 1, 10, 1))
            .build()
            .unwrap();
        let g = model.leaf_graph(LeafId(1)).unwrap();
        assert_eq!(g.num_words(), 1);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.label_len(0), 1);
    }

    #[test]
    fn punctuation_only_keyphrase_is_skipped() {
        let model = GraphExBuilder::new(no_curation())
            .add_records(vec![rec("!!!", 1, 10, 1), rec("real phrase", 1, 10, 1)])
            .build()
            .unwrap();
        assert_eq!(model.num_keyphrases(), 1);
    }

    #[test]
    fn no_fallback_when_disabled() {
        let mut config = no_curation();
        config.build_meta_fallback = false;
        let model = GraphExBuilder::new(config)
            .add_record(rec("a b", 1, 10, 1))
            .build()
            .unwrap();
        assert!(!model.has_fallback());
    }

    #[test]
    fn leaf_isolation() {
        // Same word in two leaves must not leak labels across graphs.
        let model = GraphExBuilder::new(no_curation())
            .add_records(vec![
                rec("apple iphone", 1, 10, 1),
                rec("apple juice", 2, 10, 1),
            ])
            .build()
            .unwrap();
        let mut scratch = Scratch::new();
        let preds = model
            .infer(
                "fresh apple crate",
                LeafId(2),
                &InferenceParams::with_k(10),
                &mut scratch,
            )
            .unwrap();
        let texts: Vec<&str> = preds
            .iter()
            .map(|p| model.keyphrase_text(p.keyphrase).unwrap())
            .collect();
        assert_eq!(texts, ["apple juice"]);
    }

    #[test]
    fn build_with_stats_reports_curation() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 100;
        let (_, stats) = GraphExBuilder::new(config)
            .add_records(vec![
                rec("kept phrase", 1, 500, 1),
                rec("dropped phrase", 1, 3, 1),
            ])
            .build_with_stats()
            .unwrap();
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.dropped_low_search, 1);
    }
}
