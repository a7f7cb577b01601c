//! The built GraphEx model: per-leaf graphs + vocabularies + inference API.

use crate::alignment::Alignment;
use crate::error::{GraphExError, Result};
use crate::inference::{collect_title_tokens, infer_on_graph, InferenceParams, Prediction, Scratch};
use crate::leaf_graph::LeafGraph;
use crate::service::{InferRequest, InferResponse, Outcome};
use crate::types::{KeyphraseId, LeafId};
use graphex_textkit::{FxHashMap, Tokenizer, TokenizerBuilder, Vocab};

/// A constructed GraphEx model (output of [`crate::GraphExBuilder::build`]).
///
/// Immutable and `Sync`: share it across threads by reference; each thread
/// owns a [`Scratch`].
#[derive(Debug, Clone)]
pub struct GraphExModel {
    pub(crate) tokens: Vocab,
    pub(crate) keyphrases: Vocab,
    pub(crate) leaves: FxHashMap<LeafId, LeafGraph>,
    /// Meta-category fallback graph for unknown leaves (union of all
    /// curated keyphrases), if configured.
    pub(crate) fallback: Option<Box<LeafGraph>>,
    pub(crate) alignment: Alignment,
    pub(crate) stemming: bool,
    pub(crate) tokenizer: Tokenizer,
}

/// Aggregate model statistics (Table II's "# GraphEx Keyphrases" column,
/// Fig. 6b size accounting, DESIGN.md ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelStats {
    pub num_leaves: usize,
    /// Distinct tokens across all leaves (global vocabulary).
    pub num_tokens: usize,
    /// Distinct keyphrase strings (global).
    pub num_keyphrases: usize,
    /// Sum of per-leaf label counts (a phrase duplicated across leaves
    /// counts once per leaf).
    pub total_labels: usize,
    /// Sum of per-leaf edge counts.
    pub total_edges: usize,
    /// Mean of per-leaf average degrees, weighted by words.
    pub avg_degree: f64,
    /// Approximate in-memory footprint in bytes.
    pub heap_bytes: usize,
}

impl GraphExModel {
    pub(crate) fn make_tokenizer(stemming: bool) -> Tokenizer {
        TokenizerBuilder::new().stemming(stemming).build()
    }

    /// Recommends keyphrases for `title` in leaf category `leaf`.
    ///
    /// Falls back to the meta-category graph when the leaf is unknown and a
    /// fallback was built; otherwise returns [`GraphExError::UnknownLeaf`].
    /// Thin `Result` view over [`GraphExModel::infer_request`] (the single
    /// inference entry point), for callers that own explicit
    /// [`InferenceParams`].
    pub fn infer(
        &self,
        title: &str,
        leaf: LeafId,
        params: &InferenceParams,
        scratch: &mut Scratch,
    ) -> Result<Vec<Prediction>> {
        let request = InferRequest {
            title,
            leaf,
            k: params.k,
            alignment: params.alignment,
            keep_threshold_group: params.keep_threshold_group,
            id: None,
            resolve_texts: false,
        };
        let response = self.infer_request(&request, scratch);
        match response.outcome {
            Outcome::UnknownLeaf => Err(GraphExError::UnknownLeaf(leaf)),
            _ => Ok(response.predictions),
        }
    }

    /// Answers one typed [`InferRequest`], reporting provenance through
    /// [`InferResponse::outcome`] instead of an error or a silent empty vec.
    ///
    /// This is the single entry point behind every inference frontend; the
    /// pooled [`crate::Engine`] wraps it for `&self` callers, and
    /// [`crate::parallel::batch_infer`] fans it across threads.
    pub fn infer_request(&self, request: &InferRequest<'_>, scratch: &mut Scratch) -> InferResponse {
        let (graph, exact) = match self.leaves.get(&request.leaf) {
            Some(g) => (g, true),
            None => match &self.fallback {
                Some(g) => (&**g, false),
                None => return InferResponse::empty(request.id, Outcome::UnknownLeaf),
            },
        };
        collect_title_tokens(&self.tokenizer, |word| self.tokens.get(word), request.title, scratch);
        let alignment = request.alignment.unwrap_or(self.alignment);
        let predictions = infer_on_graph(graph, alignment, &request.params(), scratch);
        let outcome = if predictions.is_empty() {
            Outcome::Empty
        } else if exact {
            Outcome::ExactLeaf
        } else {
            Outcome::MetaFallback
        };
        let texts = if request.resolve_texts {
            predictions
                .iter()
                .map(|p| self.keyphrase_text(p.keyphrase).unwrap_or_default().to_string())
                .collect()
        } else {
            Vec::new()
        };
        InferResponse { id: request.id, outcome, predictions, texts }
    }

    /// The text of a keyphrase id (normalized query text).
    pub fn keyphrase_text(&self, id: KeyphraseId) -> Option<&str> {
        self.keyphrases.resolve(id)
    }

    /// Id of a keyphrase text, if present in the model.
    pub fn keyphrase_id(&self, text: &str) -> Option<KeyphraseId> {
        self.keyphrases.get(text)
    }

    /// Global token id of a (stemmed, normalized) word, if any keyphrase
    /// contains it. Exposed for diagnostics and ablation benches that drive
    /// [`crate::leaf_graph::LeafGraph`] adjacency directly.
    pub fn token_id(&self, token: &str) -> Option<graphex_textkit::TokenId> {
        self.tokens.get(token)
    }

    /// Tokenizes a title exactly the way inference does (normalization +
    /// optional stemming), for external consumers replicating the pipeline.
    pub fn tokenize_title(&self, title: &str) -> Vec<String> {
        self.tokenizer.tokenize(title).collect()
    }

    /// The leaf categories with a dedicated graph.
    pub fn leaf_ids(&self) -> impl Iterator<Item = LeafId> + '_ {
        self.leaves.keys().copied()
    }

    /// The graph of one leaf, if present.
    pub fn leaf_graph(&self, leaf: LeafId) -> Option<&LeafGraph> {
        self.leaves.get(&leaf)
    }

    /// Whether a meta-category fallback graph exists.
    pub fn has_fallback(&self) -> bool {
        self.fallback.is_some()
    }

    /// The meta-category fallback graph, if one was built.
    pub fn fallback_graph(&self) -> Option<&LeafGraph> {
        self.fallback.as_deref()
    }

    /// The ranking alignment this model defaults to.
    pub fn alignment(&self) -> Alignment {
        self.alignment
    }

    /// Whether titles/keyphrases are stemmed.
    pub fn stemming(&self) -> bool {
        self.stemming
    }

    /// Number of distinct keyphrase strings.
    pub fn num_keyphrases(&self) -> usize {
        self.keyphrases.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ModelStats {
        let total_labels: usize = self.leaves.values().map(|g| g.num_labels() as usize).sum();
        let total_edges: usize = self.leaves.values().map(|g| g.num_edges()).sum();
        let total_words: usize = self.leaves.values().map(|g| g.num_words() as usize).sum();
        let heap: usize = self.leaves.values().map(|g| g.heap_bytes()).sum::<usize>()
            + self.fallback.as_ref().map_or(0, |g| g.heap_bytes())
            + self.tokens.heap_bytes()
            + self.keyphrases.heap_bytes();
        ModelStats {
            num_leaves: self.leaves.len(),
            num_tokens: self.tokens.len(),
            num_keyphrases: self.keyphrases.len(),
            total_labels,
            total_edges,
            avg_degree: if total_words == 0 { 0.0 } else { total_edges as f64 / total_words as f64 },
            heap_bytes: heap,
        }
    }

    /// Serialized size in bytes (the paper's Fig. 6b model-size metric).
    pub fn size_bytes(&self) -> usize {
        crate::serialize::to_bytes(self).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::types::KeyphraseRecord;

    fn sample_model(fallback: bool) -> GraphExModel {
        let leaf = LeafId(7);
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = fallback;
        GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", leaf, 900, 120),
                KeyphraseRecord::new("audeze headphones", leaf, 450, 300),
                KeyphraseRecord::new("gaming headphones xbox", leaf, 800, 700),
                KeyphraseRecord::new("wireless headphones xbox", leaf, 650, 800),
                KeyphraseRecord::new("bluetooth wireless headphones", leaf, 300, 900),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn infer_end_to_end_figure3() {
        let model = sample_model(false);
        let mut scratch = Scratch::new();
        let req = InferRequest::new("Audeze Maxwell gaming headphones for Xbox", LeafId(7))
            .k(5)
            .resolve_texts(true);
        let resp = model.infer_request(&req, &mut scratch);
        assert_eq!(resp.outcome, Outcome::ExactLeaf);
        assert_eq!(resp.texts[0], "gaming headphones xbox"); // full match, LTA 3.0
        assert_eq!(resp.texts[1], "audeze maxwell"); // LTA 2.0, S=900
        assert_eq!(resp.texts[2], "audeze headphones");
    }

    #[test]
    fn unknown_leaf_errors_without_fallback() {
        let model = sample_model(false);
        let mut scratch = Scratch::new();
        let err = model.infer("anything", LeafId(999), &InferenceParams::default(), &mut scratch);
        assert!(matches!(err, Err(GraphExError::UnknownLeaf(LeafId(999)))));
        // The envelope reports it as an outcome instead of an error.
        let resp = model.infer_request(&InferRequest::new("anything", LeafId(999)), &mut scratch);
        assert_eq!(resp.outcome, Outcome::UnknownLeaf);
        assert!(resp.is_empty());
    }

    #[test]
    fn unknown_leaf_uses_fallback_when_built() {
        let model = sample_model(true);
        assert!(model.has_fallback());
        let mut scratch = Scratch::new();
        let resp = model
            .infer_request(&InferRequest::new("audeze maxwell headphones", LeafId(999)).k(5), &mut scratch);
        assert_eq!(resp.outcome, Outcome::MetaFallback);
        assert!(!resp.predictions.is_empty());
    }

    #[test]
    fn keyphrase_text_id_roundtrip() {
        let model = sample_model(false);
        let id = model.keyphrase_id("audeze maxwell").unwrap();
        assert_eq!(model.keyphrase_text(id), Some("audeze maxwell"));
        assert_eq!(model.keyphrase_text(u32::MAX), None);
    }

    #[test]
    fn stats_shape() {
        let model = sample_model(false);
        let stats = model.stats();
        assert_eq!(stats.num_leaves, 1);
        assert_eq!(stats.num_keyphrases, 5);
        assert_eq!(stats.total_labels, 5);
        assert!(stats.num_tokens >= 7);
        assert!(stats.total_edges >= 13);
        assert!(stats.heap_bytes > 0);
        assert!(stats.avg_degree > 1.0);
    }

    #[test]
    fn model_is_sync_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<GraphExModel>();
    }
}
