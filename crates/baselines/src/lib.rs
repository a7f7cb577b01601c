//! # baselines — the production models GraphEx is compared against
//!
//! Faithful-in-kind reimplementations of the five eBay production systems
//! from the paper's Sec. II, trained on the simulated click log (the same
//! data diet the originals have):
//!
//! | Model | Kind | Data | Cold-start? |
//! |-------|------|------|-------------|
//! | [`RulesEngine`] | 100 %-recall click lookup | item→query clicks | no |
//! | [`SlQuery`] | similar listings share queries | co-click graph | no |
//! | [`SlEmb`] | title embeddings + ANN over clicked listings | titles + clicks | yes |
//! | [`FastTextLike`] | hashed bag-of-features linear classifier | titles + clicks | yes |
//! | [`Graphite`] | token→item→label bipartite mapping | titles + clicks | yes |
//!
//! All expose the [`Recommender`] trait so the evaluation harness treats
//! every model (including GraphEx via [`GraphExRecommender`]) uniformly.
//!
//! The implementations intentionally keep the originals' *relationship to
//! the training data*: the click-trained models inherit the click log's
//! exposure/popularity/MNAR biases, which is precisely the phenomenon the
//! paper's evaluation quantifies.

#![forbid(unsafe_code)]

pub mod embedding;
pub mod fasttext;
pub mod graphex_rec;
pub mod graphite;
pub mod rules_engine;
pub mod sl_emb;
pub mod sl_query;

pub use fasttext::FastTextLike;
pub use graphex_rec::{GraphExRecommender, ServiceRecommender};
pub use graphite::Graphite;
pub use rules_engine::RulesEngine;
pub use sl_emb::SlEmb;
pub use sl_query::SlQuery;

use graphex_core::LeafId;

/// A test item as the recommenders see it.
#[derive(Debug, Clone, Copy)]
pub struct ItemRef<'a> {
    /// Item id within the dataset, if the item is a known listing. Cold
    /// (new) items have `None` — only cold-start-capable models can serve
    /// them.
    pub id: Option<u32>,
    pub title: &'a str,
    pub leaf: LeafId,
}

impl<'a> ItemRef<'a> {
    pub fn known(id: u32, title: &'a str, leaf: LeafId) -> Self {
        Self {
            id: Some(id),
            title,
            leaf,
        }
    }

    pub fn cold(title: &'a str, leaf: LeafId) -> Self {
        Self {
            id: None,
            title,
            leaf,
        }
    }
}

/// One recommendation: the keyphrase text and a model-specific score
/// (higher = better; comparable within one model only).
#[derive(Debug, Clone, PartialEq)]
pub struct Rec {
    pub text: String,
    pub score: f64,
}

/// Common interface over every keyphrase recommender in the study.
pub trait Recommender: Send + Sync {
    /// Model name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Up to `k` keyphrases for `item`, best first. Models may return fewer
    /// (RE/SL return nothing for cold items).
    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec>;

    /// Serialized/estimated model size in bytes (Fig. 6b).
    fn size_bytes(&self) -> usize;

    /// Can the model recommend for never-before-seen items?
    fn cold_start_capable(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_ref_constructors() {
        let known = ItemRef::known(7, "a title", LeafId(1));
        assert_eq!(known.id, Some(7));
        let cold = ItemRef::cold("a title", LeafId(1));
        assert_eq!(cold.id, None);
        assert_eq!(cold.title, "a title");
    }
}
