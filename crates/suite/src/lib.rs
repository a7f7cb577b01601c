//! # suite — repository-level integration tests and examples
//!
//! This crate carries no library logic of its own; it wires the top-level
//! `tests/` and `examples/` directories (which span every crate in the
//! workspace) into cargo targets, and provides small shared fixtures.

use graphex_core::{GraphExBuilder, GraphExConfig, GraphExModel, KeyphraseRecord, LeafId};
use graphex_marketsim::{CategoryDataset, CategorySpec};

/// The Figure 3 keyphrase set from the paper, as curation-ready records.
pub fn figure3_records() -> (LeafId, Vec<KeyphraseRecord>) {
    let leaf = LeafId(7);
    let records = vec![
        KeyphraseRecord::new("audeze maxwell", leaf, 900, 120),
        KeyphraseRecord::new("audeze headphones", leaf, 450, 300),
        KeyphraseRecord::new("gaming headphones xbox", leaf, 800, 700),
        KeyphraseRecord::new("wireless headphones xbox", leaf, 650, 800),
        KeyphraseRecord::new("bluetooth wireless headphones", leaf, 300, 900),
    ];
    (leaf, records)
}

/// A GraphEx model over the Figure 3 set (no curation threshold).
///
/// This is the paper's canonical worked example: for the title
/// *"Audeze Maxwell gaming headphones for Xbox"*, the fully-matched
/// keyphrase ranks first (LTA 3/1 = 3.0) and the two 2-token matches are
/// ordered by search count.
///
/// ```
/// use graphex_core::{Engine, InferRequest};
/// use graphex_suite::figure3_model;
///
/// let (leaf, model) = figure3_model();
/// let engine = Engine::from_model(model);
/// let request = InferRequest::new("Audeze Maxwell gaming headphones for Xbox", leaf)
///     .k(3)
///     .resolve_texts(true);
/// let response = engine.infer(&request);
/// assert_eq!(response.texts, ["gaming headphones xbox", "audeze maxwell", "audeze headphones"]);
/// ```
pub fn figure3_model() -> (LeafId, GraphExModel) {
    let (leaf, records) = figure3_records();
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let model = GraphExBuilder::new(config)
        .add_records(records)
        .build()
        .expect("figure 3 model");
    (leaf, model)
}

/// A small but fully-featured synthetic dataset for integration tests.
pub fn tiny_dataset(seed: u64) -> CategoryDataset {
    CategoryDataset::generate(CategorySpec::tiny(seed))
}

/// A GraphEx model trained on a tiny dataset with a mild threshold.
pub fn tiny_model(ds: &CategoryDataset) -> GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    GraphExBuilder::new(config)
        .add_records(ds.keyphrase_records())
        .build()
        .expect("tiny dataset model")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the paper's Figure 3 ranking end to end: full match first by
    /// LTA, then the two 2-token matches ordered by search count.
    #[test]
    fn figure3_top3_matches_paper() {
        let (leaf, model) = figure3_model();
        let engine = graphex_core::Engine::from_model(model);
        let request =
            graphex_core::InferRequest::new("Audeze Maxwell gaming headphones for Xbox", leaf)
                .k(3)
                .resolve_texts(true);
        let response = engine.infer(&request);
        assert_eq!(response.outcome, graphex_core::Outcome::ExactLeaf);
        assert_eq!(
            response.texts,
            [
                "gaming headphones xbox",
                "audeze maxwell",
                "audeze headphones"
            ]
        );
    }

    #[test]
    fn fixtures_build() {
        let (leaf, model) = figure3_model();
        assert_eq!(model.num_keyphrases(), 5);
        let mut scratch = graphex_core::Scratch::new();
        let req = graphex_core::InferRequest::new("audeze maxwell", leaf).k(5);
        assert!(!model.infer_request(&req, &mut scratch).is_empty());
        let ds = tiny_dataset(1);
        let model = tiny_model(&ds);
        assert!(model.num_keyphrases() > 0);
    }
}
