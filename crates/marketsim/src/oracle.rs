//! Ground-truth relevance oracle.
//!
//! Because every query in the simulator carries its generative
//! [`crate::QueryConstraint`], relevance between an item and a query is a
//! *decidable fact*, not a judgement: the item's product archetype either
//! satisfies the constraint or it doesn't. The evaluation crate wraps this
//! oracle with configurable noise to play the role of the paper's
//! Mixtral-8x7B judge (which itself agreed with human judgement "more than
//! 90%" of the time).

use crate::catalog::{Item, Marketplace};
use crate::queries::{matches, Query};
use graphex_textkit::FxHashMap;

/// Exact relevance oracle over a marketplace and its query universe.
#[derive(Debug)]
pub struct RelevanceOracle<'a> {
    mp: &'a Marketplace,
    queries: &'a [Query],
    by_text: FxHashMap<&'a str, u32>,
}

impl<'a> RelevanceOracle<'a> {
    pub fn new(mp: &'a Marketplace, queries: &'a [Query]) -> Self {
        let mut by_text = FxHashMap::with_capacity_and_hasher(queries.len(), Default::default());
        for q in queries {
            by_text.insert(q.text.as_str(), q.id);
        }
        Self {
            mp,
            queries,
            by_text,
        }
    }

    /// Looks a query up by its exact text.
    pub fn query_by_text(&self, text: &str) -> Option<&'a Query> {
        self.by_text.get(text).map(|&id| &self.queries[id as usize])
    }

    /// Is `query_id` relevant to `item`?
    pub fn is_relevant_id(&self, item: &Item, query_id: u32) -> bool {
        matches(self.mp, &self.queries[query_id as usize], item.product)
    }

    /// Is the keyphrase `text` relevant to `item`? Unknown texts (not in the
    /// buyer-query universe) are irrelevant by definition — nobody searches
    /// them (this mirrors the paper's "keyphrase should be in the universe
    /// of queries that buyers are searching for").
    pub fn is_relevant(&self, item: &Item, text: &str) -> bool {
        match self.query_by_text(text) {
            Some(q) => matches(self.mp, q, item.product),
            None => false,
        }
    }

    /// All queries relevant to `item` (used by diagnostics and tests; not on
    /// any hot path).
    pub fn relevant_queries(&self, item: &Item) -> Vec<&'a Query> {
        self.queries
            .iter()
            .filter(|q| matches(self.mp, q, item.product))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CategorySpec, Marketplace};
    use crate::queries::generate_queries;

    fn setup() -> (Marketplace, Vec<Query>) {
        let mp = Marketplace::generate(CategorySpec::tiny(31));
        let qs = generate_queries(&mp);
        (mp, qs)
    }

    #[test]
    fn text_lookup_roundtrip() {
        let (mp, qs) = setup();
        let oracle = RelevanceOracle::new(&mp, &qs);
        for q in qs.iter().take(20) {
            assert_eq!(oracle.query_by_text(&q.text).unwrap().id, q.id);
        }
        assert!(oracle.query_by_text("no such query text").is_none());
    }

    #[test]
    fn unknown_text_is_irrelevant() {
        let (mp, qs) = setup();
        let oracle = RelevanceOracle::new(&mp, &qs);
        assert!(!oracle.is_relevant(&mp.items[0], "completely invented phrase"));
    }

    #[test]
    fn own_product_queries_are_relevant() {
        let (mp, qs) = setup();
        let oracle = RelevanceOracle::new(&mp, &qs);
        // For each pinned query, every item of that product must be relevant.
        for q in qs
            .iter()
            .filter(|q| q.constraint.product.is_some())
            .take(20)
        {
            let pid = q.constraint.product.unwrap();
            for &iid in &mp.product_items[pid as usize] {
                assert!(oracle.is_relevant(&mp.items[iid as usize], &q.text));
            }
        }
    }

    #[test]
    fn cross_product_pinned_queries_are_irrelevant() {
        let (mp, qs) = setup();
        let oracle = RelevanceOracle::new(&mp, &qs);
        let pinned: Vec<&Query> = qs
            .iter()
            .filter(|q| q.constraint.product.is_some())
            .collect();
        let qa = pinned[0];
        let qb = pinned
            .iter()
            .find(|q| q.constraint.product != qa.constraint.product)
            .expect("a second pinned product exists");
        let item_of_b = mp
            .items
            .iter()
            .find(|i| Some(i.product) == qb.constraint.product)
            .expect("product with items");
        assert!(!oracle.is_relevant(item_of_b, &qa.text));
    }

    #[test]
    fn relevant_queries_is_consistent_with_is_relevant() {
        let (mp, qs) = setup();
        let oracle = RelevanceOracle::new(&mp, &qs);
        let item = &mp.items[0];
        let rel = oracle.relevant_queries(item);
        assert!(
            !rel.is_empty(),
            "every item has at least its generic type query"
        );
        for q in rel {
            assert!(oracle.is_relevant(item, &q.text));
        }
    }
}
