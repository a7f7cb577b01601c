//! Graphite: the graph-based XMC predecessor of GraphEx (paper ref. \[6\]).
//!
//! Graphite maps words/tokens → training items, then items → the labels
//! (clicked queries) associated with them, both as bipartite graphs; it
//! ranks with the Word Match Ratio (WMR, Sec. IV-F1). Crucially it is
//! *click-trained*: its label space is the clicked-query set, so it
//! inherits the click-log biases — that is exactly the contrast with
//! GraphEx the paper draws.
//!
//! The two-hop structure makes it cold-start capable (any title with known
//! tokens reaches some training items), with inference cost proportional to
//! the token→item fan-out — hence the paper's Fig. 6a showing it slower
//! than GraphEx on the large category.

use crate::{ItemRef, Rec, Recommender};
use graphex_core::Alignment;
use graphex_marketsim::CategoryDataset;
use graphex_textkit::{FxHashMap, Tokenizer, Vocab};

/// Two-hop bipartite recommender.
#[derive(Debug)]
pub struct Graphite {
    tokenizer: Tokenizer,
    /// Global token vocabulary over training titles.
    tokens: Vocab,
    /// token id → training row indices whose title contains the token.
    token_items: Vec<Vec<u32>>,
    /// training row → (label id, clicks).
    item_labels: Vec<Vec<(u32, u32)>>,
    /// training row → distinct title token count.
    item_token_len: Vec<u16>,
    /// label id → (query text, distinct token count).
    labels: Vec<(String, u16)>,
    /// Per-token fan-out cap (keeps very common tokens from exploding the
    /// candidate set; Graphite's implementation prunes similarly).
    max_fanout: usize,
}

impl Graphite {
    /// Trains over the clicked listings of the log.
    pub fn train(ds: &CategoryDataset, max_fanout: usize) -> Self {
        let tokenizer = Tokenizer::default();
        let mut tokens = Vocab::new();
        let mut token_items: Vec<Vec<u32>> = Vec::new();
        let mut item_labels: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut item_token_len: Vec<u16> = Vec::new();
        let mut label_of_query: FxHashMap<u32, u32> = FxHashMap::default();
        let mut labels: Vec<(String, u16)> = Vec::new();
        let mut buf: Vec<String> = Vec::new();

        for (item_id, assoc) in ds.train_log.item_clicks.iter().enumerate() {
            if assoc.is_empty() {
                continue;
            }
            let row = item_labels.len() as u32;
            let item = &ds.marketplace.items[item_id];
            buf.clear();
            buf.extend(tokenizer.tokenize(&item.title));
            buf.sort_unstable();
            buf.dedup();
            item_token_len.push(buf.len().min(u16::MAX as usize) as u16);
            for tok in &buf {
                let id = tokens.intern(tok) as usize;
                if id == token_items.len() {
                    token_items.push(Vec::new());
                }
                token_items[id].push(row);
            }
            let lab: Vec<(u32, u32)> = assoc
                .iter()
                .map(|&(q, clicks)| {
                    let label = *label_of_query.entry(q).or_insert_with(|| {
                        let text = ds.queries[q as usize].text.clone();
                        let len = tokenizer.tokenize(&text).count().min(u16::MAX as usize) as u16;
                        labels.push((text, len));
                        (labels.len() - 1) as u32
                    });
                    (label, clicks)
                })
                .collect();
            item_labels.push(lab);
        }

        Self {
            tokenizer,
            tokens,
            token_items,
            item_labels,
            item_token_len,
            labels,
            max_fanout,
        }
    }

    /// Number of training rows (clicked listings).
    pub fn num_rows(&self) -> usize {
        self.item_labels.len()
    }

    /// Number of labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }
}

impl Recommender for Graphite {
    fn name(&self) -> &'static str {
        "Graphite"
    }

    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
        // Hop 1: title tokens → training items, counting shared tokens.
        let mut title_tokens: Vec<u32> = self
            .tokenizer
            .tokenize(item.title)
            .filter_map(|t| self.tokens.get(&t))
            .collect();
        title_tokens.sort_unstable();
        title_tokens.dedup();
        if title_tokens.is_empty() {
            return Vec::new();
        }
        let title_len = title_tokens.len() as f64;

        let mut item_hits: FxHashMap<u32, u32> = FxHashMap::default();
        for &tok in &title_tokens {
            let rows = &self.token_items[tok as usize];
            // fan-out cap: common tokens contribute their head rows only
            for &row in rows.iter().take(self.max_fanout) {
                *item_hits.entry(row).or_insert(0) += 1;
            }
        }

        // Keep the most-aligned training items (WMR over the title side).
        let mut ranked_items: Vec<(u32, f64)> = item_hits
            .into_iter()
            .map(|(row, c)| {
                let denom = f64::from(self.item_token_len[row as usize].max(1)) + title_len;
                (row, f64::from(c) * 2.0 / denom) // dice-style match of titles
            })
            .collect();
        ranked_items
            .sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        ranked_items.truncate(32);

        // Hop 2: items → labels, scored by carrier match and clicks, then
        // rank labels by WMR against the input title.
        let mut label_scores: FxHashMap<u32, f64> = FxHashMap::default();
        for &(row, item_score) in &ranked_items {
            for &(label, clicks) in &self.item_labels[row as usize] {
                *label_scores.entry(label).or_insert(0.0) +=
                    item_score * (1.0 + f64::from(clicks)).ln();
            }
        }

        let wmr = Alignment::Wmr;
        let mut out: Vec<(u32, f64, f64)> = label_scores
            .into_iter()
            .filter_map(|(label, carrier)| {
                let (text, len) = &self.labels[label as usize];
                let c = self
                    .tokenizer
                    .tokenize(text)
                    .filter(|t| {
                        self.tokens
                            .get(t)
                            .is_some_and(|id| title_tokens.binary_search(&id).is_ok())
                    })
                    .count() as u32;
                let score = wmr.score(
                    c.min(u32::from(*len)),
                    u32::from((*len).max(1)),
                    title_len as u32,
                );
                // Relevance truncation: labels sharing under half their
                // tokens with the title are dropped (the production model
                // truncates its candidate set the same way; without this
                // the two-hop expansion floods the output with carrier
                // co-clicks unrelated to the input).
                (score >= 0.5).then_some((label, score, carrier))
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap()
                .then_with(|| b.2.partial_cmp(&a.2).unwrap())
                .then_with(|| a.0.cmp(&b.0))
        });
        out.into_iter()
            .take(k)
            .map(|(label, score, _)| Rec {
                text: self.labels[label as usize].0.clone(),
                score,
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.token_items
            .iter()
            .map(|v| v.len() * 4 + 16)
            .sum::<usize>()
            + self
                .item_labels
                .iter()
                .map(|v| v.len() * 8 + 16)
                .sum::<usize>()
            + self.item_token_len.len() * 2
            + self.labels.iter().map(|(t, _)| t.len() + 10).sum::<usize>()
            + self.tokens.heap_bytes()
    }

    fn cold_start_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_marketsim::{CategoryDataset, CategorySpec};

    fn setup() -> (CategoryDataset, Graphite) {
        let ds = CategoryDataset::generate(CategorySpec::tiny(91));
        let g = Graphite::train(&ds, 256);
        (ds, g)
    }

    #[test]
    fn trains_on_clicked_rows_only() {
        let (ds, g) = setup();
        let clicked = ds
            .train_log
            .item_clicks
            .iter()
            .filter(|a| !a.is_empty())
            .count();
        assert_eq!(g.num_rows(), clicked);
        assert!(g.num_labels() > 0);
    }

    #[test]
    fn predicts_for_training_item() {
        let (ds, g) = setup();
        let row_item = ds
            .train_log
            .item_clicks
            .iter()
            .position(|a| !a.is_empty())
            .unwrap();
        let item = &ds.marketplace.items[row_item];
        let recs = g.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 10);
        assert!(!recs.is_empty());
        // Own clicked query should be among candidates (it shares the title
        // tokens of its own carrier row).
        let own: Vec<&str> = ds.train_log.item_clicks[row_item]
            .iter()
            .map(|&(q, _)| ds.queries[q as usize].text.as_str())
            .collect();
        assert!(
            recs.iter().any(|r| own.contains(&r.text.as_str())),
            "own clicked queries {own:?} missing from {recs:?}"
        );
    }

    #[test]
    fn cold_start_via_shared_tokens() {
        let (ds, g) = setup();
        let row_item = ds
            .train_log
            .item_clicks
            .iter()
            .position(|a| !a.is_empty())
            .unwrap();
        let title = &ds.marketplace.items[row_item].title;
        let recs = g.recommend(
            &ItemRef::cold(title, ds.marketplace.items[row_item].leaf),
            10,
        );
        assert!(!recs.is_empty());
        assert!(g.cold_start_capable());
    }

    #[test]
    fn unknown_tokens_yield_nothing() {
        let (ds, g) = setup();
        assert!(g
            .recommend(
                &ItemRef::cold("zzzz yyyy xxxx unseen tokens", ds.marketplace.leaves[0].id),
                10
            )
            .is_empty());
    }

    #[test]
    fn labels_are_click_queries_only() {
        let (ds, g) = setup();
        let clicked: std::collections::BTreeSet<&str> = ds
            .train_log
            .query_clicks
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(q, _)| ds.queries[q].text.as_str())
            .collect();
        for item in ds.test_items(40, 5) {
            for rec in g.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 20) {
                assert!(
                    clicked.contains(rec.text.as_str()),
                    "{} not a clicked query",
                    rec.text
                );
            }
        }
    }

    #[test]
    fn ranking_is_sorted_by_wmr() {
        let (ds, g) = setup();
        let item = ds.test_items(1, 2)[0];
        let recs = g.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 20);
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
    }
}
