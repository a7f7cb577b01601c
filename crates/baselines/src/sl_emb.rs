//! SL-emb: dense-retrieval recommender over similar listings.
//!
//! Paper Sec. II: "uses embeddings of the item's title to compare and find
//! similar listings, and then recommend the related queries … inference is
//! implemented in two stages, namely, embedding generation and ANN."
//! It is cold-start capable (only the *title* is needed) but its
//! candidates still come from clicked listings, so the click-log biases
//! flow through.
//!
//! Our ANN stage is an exact top-m scan over the clicked-listing corpus —
//! at reproduction scale (≤ ~20 k clicked listings × 32 dims) brute force
//! beats index structures, and exactness removes one confound from the
//! evaluation.

use crate::embedding::{dot, embed, DIM};
use crate::{ItemRef, Rec, Recommender};
use graphex_marketsim::CategoryDataset;
use graphex_textkit::{FxHashMap, FxHashSet, Tokenizer};

/// Embedding + ANN recommender.
#[derive(Debug)]
pub struct SlEmb {
    tokenizer: Tokenizer,
    /// Embeddings of training listings that have click associations.
    corpus: Vec<[f32; DIM]>,
    /// Clicked queries of each corpus listing: (query text index, clicks).
    corpus_queries: Vec<Vec<(u32, u32)>>,
    query_texts: Vec<String>,
    /// Number of nearest listings to aggregate.
    neighbors: usize,
    /// Token-Jaccard threshold between title and candidate keyphrase
    /// (the paper's truncation rule "to ensure relevance").
    jaccard_threshold: f64,
}

impl SlEmb {
    /// Embeds every clicked listing in the training log.
    pub fn train(ds: &CategoryDataset, neighbors: usize, jaccard_threshold: f64) -> Self {
        let tokenizer = Tokenizer::default();
        let mut corpus = Vec::new();
        let mut corpus_queries = Vec::new();
        for (item_id, assoc) in ds.train_log.item_clicks.iter().enumerate() {
            if assoc.is_empty() {
                continue;
            }
            let item = &ds.marketplace.items[item_id];
            corpus.push(embed(&tokenizer, &item.title));
            corpus_queries.push(assoc.clone());
        }
        let query_texts: Vec<String> = ds.queries.iter().map(|q| q.text.clone()).collect();
        Self {
            tokenizer,
            corpus,
            corpus_queries,
            query_texts,
            neighbors,
            jaccard_threshold,
        }
    }

    /// Exact top-m cosine neighbors (indices into the corpus).
    fn top_neighbors(&self, query_vec: &[f32; DIM]) -> Vec<(usize, f32)> {
        let mut scored: Vec<(usize, f32)> = self
            .corpus
            .iter()
            .enumerate()
            .map(|(i, v)| (i, dot(query_vec, v)))
            .collect();
        let m = self.neighbors.min(scored.len());
        if m == 0 {
            return Vec::new();
        }
        scored.select_nth_unstable_by(m - 1, |a, b| b.1.partial_cmp(&a.1).unwrap());
        scored.truncate(m);
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        scored
    }

    fn token_jaccard(title_tokens: &FxHashSet<String>, phrase: &str, tokenizer: &Tokenizer) -> f64 {
        let phrase_tokens: FxHashSet<String> = tokenizer.tokenize(phrase).collect();
        if phrase_tokens.is_empty() || title_tokens.is_empty() {
            return 0.0;
        }
        let inter = phrase_tokens.intersection(title_tokens).count();
        inter as f64 / (phrase_tokens.len() + title_tokens.len() - inter) as f64
    }

    /// Corpus size (clicked listings embedded).
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }
}

impl Recommender for SlEmb {
    fn name(&self) -> &'static str {
        "SL-emb"
    }

    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
        let vec = embed(&self.tokenizer, item.title);
        if vec.iter().all(|&x| x == 0.0) {
            return Vec::new();
        }
        let title_tokens: FxHashSet<String> = self.tokenizer.tokenize(item.title).collect();

        // Aggregate neighbor queries, weighted by neighbor similarity and
        // log-damped clicks.
        let mut scores: FxHashMap<u32, f64> = FxHashMap::default();
        for (idx, sim) in self.top_neighbors(&vec) {
            if sim <= 0.0 {
                continue;
            }
            for &(q, clicks) in &self.corpus_queries[idx] {
                *scores.entry(q).or_insert(0.0) += f64::from(sim) * (1.0 + f64::from(clicks)).ln();
            }
        }

        let mut ranked: Vec<(u32, f64)> = scores
            .into_iter()
            .filter(|&(q, _)| {
                Self::token_jaccard(
                    &title_tokens,
                    &self.query_texts[q as usize],
                    &self.tokenizer,
                ) >= self.jaccard_threshold
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        ranked
            .into_iter()
            .take(k)
            .map(|(q, score)| Rec {
                text: self.query_texts[q as usize].clone(),
                score,
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.corpus.len() * DIM * 4
            + self
                .corpus_queries
                .iter()
                .map(|v| v.len() * 8 + 16)
                .sum::<usize>()
            + self.query_texts.iter().map(|t| t.len() + 8).sum::<usize>()
    }

    fn cold_start_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_marketsim::CategorySpec;

    fn setup() -> (CategoryDataset, SlEmb) {
        let ds = CategoryDataset::generate(CategorySpec::tiny(71));
        let sl = SlEmb::train(&ds, 10, 0.05);
        (ds, sl)
    }

    #[test]
    fn corpus_is_clicked_listings_only() {
        let (ds, sl) = setup();
        let clicked = ds
            .train_log
            .item_clicks
            .iter()
            .filter(|a| !a.is_empty())
            .count();
        assert_eq!(sl.corpus_len(), clicked);
    }

    #[test]
    fn cold_start_works_from_title_alone() {
        let (ds, sl) = setup();
        // Take a clicked item's title as a "new" listing: similar listings
        // exist by construction.
        let clicked_item = ds
            .train_log
            .item_clicks
            .iter()
            .position(|a| !a.is_empty())
            .unwrap();
        let title = &ds.marketplace.items[clicked_item].title;
        let recs = sl.recommend(
            &ItemRef::cold(title, ds.marketplace.items[clicked_item].leaf),
            10,
        );
        assert!(!recs.is_empty(), "no recs for {title:?}");
        assert!(sl.cold_start_capable());
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_title_yields_nothing() {
        let (ds, sl) = setup();
        assert!(sl
            .recommend(&ItemRef::cold("", ds.marketplace.leaves[0].id), 10)
            .is_empty());
    }

    #[test]
    fn jaccard_threshold_truncates() {
        let ds = CategoryDataset::generate(CategorySpec::tiny(71));
        let loose = SlEmb::train(&ds, 10, 0.0);
        let strict = SlEmb::train(&ds, 10, 0.5);
        let mut loose_total = 0;
        let mut strict_total = 0;
        for item in ds.test_items(60, 3) {
            let r = ItemRef::known(item.id, &item.title, item.leaf);
            loose_total += loose.recommend(&r, 40).len();
            strict_total += strict.recommend(&r, 40).len();
        }
        assert!(
            strict_total < loose_total,
            "{strict_total} !< {loose_total}"
        );
    }

    #[test]
    fn recommendations_come_from_neighbor_click_sets() {
        let (ds, sl) = setup();
        let item = ds.test_items(1, 9)[0];
        let recs = sl.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 20);
        let all_clicked: FxHashSet<&str> = ds
            .train_log
            .item_clicks
            .iter()
            .flatten()
            .map(|&(q, _)| ds.queries[q as usize].text.as_str())
            .collect();
        for rec in recs {
            assert!(
                all_clicked.contains(rec.text.as_str()),
                "{} not from click log",
                rec.text
            );
        }
    }
}
