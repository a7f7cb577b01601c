//! Interpretability (paper Sec. III-G).
//!
//! GraphEx is transparent by construction: every prediction traces to the
//! exact title tokens that reached it through the bipartite graph. This
//! module materializes that trace as data, so UIs and audits don't have to
//! re-derive it (the paper contrasts this with post-hoc LIME/SHAP on
//! neural models).

use crate::error::Result;
use crate::inference::{InferenceParams, Prediction, Scratch};
use crate::model::GraphExModel;
use crate::types::LeafId;

/// A prediction with its full token-level provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainedPrediction {
    pub prediction: Prediction,
    /// The keyphrase text.
    pub text: String,
    /// Keyphrase tokens present in the title (the `c` tokens driving the
    /// recommendation).
    pub matched_tokens: Vec<String>,
    /// Keyphrase tokens *not* in the title — the "risk" tokens LTA
    /// penalizes (each could change the product).
    pub missing_tokens: Vec<String>,
    /// The alignment score under the model's configured alignment.
    pub score: f64,
}

impl ExplainedPrediction {
    /// One-line human-readable rationale.
    pub fn rationale(&self) -> String {
        let mut s = format!(
            "{:?} scores {:.2}: {} of {} tokens come from the title ({})",
            self.text,
            self.score,
            self.prediction.matched,
            self.prediction.label_len,
            self.matched_tokens.join(", "),
        );
        if !self.missing_tokens.is_empty() {
            s.push_str(&format!(
                "; risky tokens not in title: {}",
                self.missing_tokens.join(", ")
            ));
        }
        s.push_str(&format!(
            "; searched {} times, {} items recalled",
            self.prediction.search_count, self.prediction.recall_count
        ));
        s
    }
}

impl GraphExModel {
    /// Like [`GraphExModel::infer`], but each prediction carries its full
    /// token-level explanation. Not allocation-free — use on the
    /// seller-facing/debugging path, not in batch loops.
    pub fn explain(
        &self,
        title: &str,
        leaf: LeafId,
        params: &InferenceParams,
        scratch: &mut Scratch,
    ) -> Result<Vec<ExplainedPrediction>> {
        let preds = self.infer(title, leaf, params, scratch)?;
        let title_tokens: Vec<String> = {
            let mut t = self.tokenize_title(title);
            t.sort_unstable();
            t.dedup();
            t
        };
        let alignment = params.alignment.unwrap_or(self.alignment());
        Ok(preds
            .into_iter()
            .map(|prediction| {
                let text = self
                    .keyphrase_text(prediction.keyphrase)
                    .unwrap_or_default()
                    .to_string();
                let mut kp_tokens = self.tokenize_title(&text);
                kp_tokens.sort_unstable();
                kp_tokens.dedup();
                let (matched_tokens, missing_tokens): (Vec<String>, Vec<String>) = kp_tokens
                    .into_iter()
                    .partition(|t| title_tokens.binary_search(t).is_ok());
                let score = prediction.score(alignment);
                ExplainedPrediction {
                    prediction,
                    text,
                    matched_tokens,
                    missing_tokens,
                    score,
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::types::KeyphraseRecord;

    fn model() -> GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", LeafId(7), 900, 120),
                KeyphraseRecord::new("wireless headphones xbox", LeafId(7), 650, 800),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn explanation_partitions_tokens() {
        let model = model();
        let mut scratch = Scratch::new();
        let explained = model
            .explain(
                "audeze maxwell gaming headphones",
                LeafId(7),
                &InferenceParams::with_k(5),
                &mut scratch,
            )
            .unwrap();
        assert_eq!(explained.len(), 2);
        let full = explained
            .iter()
            .find(|e| e.text == "audeze maxwell")
            .unwrap();
        assert_eq!(full.matched_tokens, ["audeze", "maxwell"]);
        assert!(full.missing_tokens.is_empty());
        let partial = explained
            .iter()
            .find(|e| e.text == "wireless headphones xbox")
            .unwrap();
        // stemming: "headphones" → "headphone" on both sides
        assert_eq!(partial.matched_tokens, ["headphone"]);
        assert_eq!(partial.missing_tokens, ["wireless", "xbox"]);
    }

    #[test]
    fn matched_count_agrees_with_prediction() {
        let model = model();
        let mut scratch = Scratch::new();
        for e in model
            .explain(
                "audeze wireless xbox",
                LeafId(7),
                &InferenceParams::with_k(5),
                &mut scratch,
            )
            .unwrap()
        {
            assert_eq!(e.matched_tokens.len(), usize::from(e.prediction.matched));
            assert_eq!(
                e.matched_tokens.len() + e.missing_tokens.len(),
                usize::from(e.prediction.label_len)
            );
        }
    }

    #[test]
    fn rationale_is_complete() {
        let model = model();
        let mut scratch = Scratch::new();
        let explained = model
            .explain(
                "audeze maxwell",
                LeafId(7),
                &InferenceParams::with_k(1),
                &mut scratch,
            )
            .unwrap();
        let r = explained[0].rationale();
        assert!(r.contains("audeze maxwell"));
        assert!(r.contains("2 of 2"));
        assert!(r.contains("900"));
    }

    #[test]
    fn explain_matches_infer_order() {
        let model = model();
        let mut scratch = Scratch::new();
        let params = InferenceParams::with_k(5);
        let preds = model
            .infer(
                "audeze wireless headphones",
                LeafId(7),
                &params,
                &mut scratch,
            )
            .unwrap();
        let explained = model
            .explain(
                "audeze wireless headphones",
                LeafId(7),
                &params,
                &mut scratch,
            )
            .unwrap();
        assert_eq!(preds.len(), explained.len());
        for (p, e) in preds.iter().zip(&explained) {
            assert_eq!(*p, e.prediction);
        }
    }
}
