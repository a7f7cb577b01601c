//! Rules Engine (RE): the 100 %-recall production heuristic.
//!
//! Paper Sec. II: "stores item-keyphrase associations based on their
//! co-occurrences (associated with buyer activity) in the search logs during
//! the last 30 days … recommends keyphrases only for items in which buyers
//! have shown interest and not for any new items. This is a 100 % recall
//! model in which buyers' interest is reflected back to them."
//!
//! Item coverage is therefore exactly the click coverage of the log
//! (~13 % at eBay; see [`RulesEngine::item_coverage`]).

use crate::{ItemRef, Rec, Recommender};
use graphex_marketsim::CategoryDataset;
use graphex_textkit::FxHashMap;

/// Click-lookup recommender.
#[derive(Debug)]
pub struct RulesEngine {
    /// item id → (keyphrase text, clicks), sorted by clicks desc.
    associations: FxHashMap<u32, Vec<(String, u32)>>,
    total_items: usize,
    bytes: usize,
}

impl RulesEngine {
    /// Builds the lookup from the dataset's training click log, keeping
    /// associations with at least `min_clicks` buyer clicks.
    pub fn train(ds: &CategoryDataset, min_clicks: u32) -> Self {
        let mut associations: FxHashMap<u32, Vec<(String, u32)>> = FxHashMap::default();
        let mut bytes = 0usize;
        for (item_id, assoc) in ds.train_log.item_clicks.iter().enumerate() {
            if assoc.is_empty() {
                continue;
            }
            let mut entries: Vec<(String, u32)> = assoc
                .iter()
                .filter(|&&(_, clicks)| clicks >= min_clicks)
                .map(|&(query, clicks)| (ds.queries[query as usize].text.clone(), clicks))
                .collect();
            if entries.is_empty() {
                continue;
            }
            entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            bytes += entries.iter().map(|(t, _)| t.len() + 12).sum::<usize>() + 16;
            associations.insert(item_id as u32, entries);
        }
        Self {
            associations,
            total_items: ds.marketplace.items.len(),
            bytes,
        }
    }

    /// Fraction of items this model can serve at all.
    pub fn item_coverage(&self) -> f64 {
        if self.total_items == 0 {
            0.0
        } else {
            self.associations.len() as f64 / self.total_items as f64
        }
    }

    /// The raw associations of an item (ground-truth view used by the
    /// paper's Table V, where RE recommendations act as labels).
    pub fn associations(&self, item_id: u32) -> Option<&[(String, u32)]> {
        self.associations.get(&item_id).map(Vec::as_slice)
    }
}

impl Recommender for RulesEngine {
    fn name(&self) -> &'static str {
        "RE"
    }

    fn recommend(&self, item: &ItemRef<'_>, k: usize) -> Vec<Rec> {
        let Some(id) = item.id else { return Vec::new() };
        let Some(entries) = self.associations.get(&id) else {
            return Vec::new();
        };
        entries
            .iter()
            .take(k)
            .map(|(text, clicks)| Rec {
                text: text.clone(),
                score: f64::from(*clicks),
            })
            .collect()
    }

    fn size_bytes(&self) -> usize {
        self.bytes
    }

    fn cold_start_capable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_marketsim::CategorySpec;

    fn dataset() -> CategoryDataset {
        CategoryDataset::generate(CategorySpec::tiny(51))
    }

    #[test]
    fn recommends_exactly_the_clicked_queries() {
        let ds = dataset();
        let re = RulesEngine::train(&ds, 1);
        let clicked_item = ds
            .train_log
            .item_clicks
            .iter()
            .position(|a| a.len() >= 2)
            .expect("an item with 2+ clicked queries") as u32;
        let item = &ds.marketplace.items[clicked_item as usize];
        let recs = re.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 40);
        let expected: std::collections::BTreeSet<String> = ds.train_log.item_clicks
            [clicked_item as usize]
            .iter()
            .map(|&(q, _)| ds.queries[q as usize].text.clone())
            .collect();
        let got: std::collections::BTreeSet<String> = recs.iter().map(|r| r.text.clone()).collect();
        assert_eq!(got, expected);
        // sorted by clicks desc
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn cold_items_get_nothing() {
        let ds = dataset();
        let re = RulesEngine::train(&ds, 1);
        assert!(re
            .recommend(
                &ItemRef::cold("brand new listing", ds.marketplace.leaves[0].id),
                10
            )
            .is_empty());
        assert!(!re.cold_start_capable());
    }

    #[test]
    fn unclicked_items_get_nothing() {
        let ds = dataset();
        let re = RulesEngine::train(&ds, 1);
        let unclicked = ds
            .train_log
            .item_clicks
            .iter()
            .position(Vec::is_empty)
            .unwrap() as u32;
        let item = &ds.marketplace.items[unclicked as usize];
        assert!(re
            .recommend(&ItemRef::known(item.id, &item.title, item.leaf), 10)
            .is_empty());
    }

    #[test]
    fn coverage_matches_click_stats() {
        let ds = dataset();
        let re = RulesEngine::train(&ds, 1);
        let stats = ds.train_log.click_stats();
        assert!((re.item_coverage() - stats.coverage).abs() < 1e-9);
        assert!(re.item_coverage() > 0.0);
        assert!(re.size_bytes() > 0);
    }

    #[test]
    fn min_clicks_filters() {
        let ds = dataset();
        let permissive = RulesEngine::train(&ds, 1);
        let strict = RulesEngine::train(&ds, 3);
        assert!(strict.item_coverage() <= permissive.item_coverage());
    }
}
