//! Query-universe churn (paper Sec. I-A4).
//!
//! "The XMC tagging models are required to be regularly updated (preferably
//! daily) to keep up with the churn of new queries (2 % churn every day)."
//! This module evolves a query universe day over day — tail queries fade,
//! fresh variants appear — so daily-refresh behaviour (the reason GraphEx's
//! minutes-long construction matters) can be exercised in tests, examples
//! and benches.

use crate::catalog::Marketplace;
use crate::queries::{Query, QueryConstraint};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What one churn step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnReport {
    pub retained: usize,
    pub removed: usize,
    pub added: usize,
}

/// Evolves the query universe by one "day": roughly `rate` of the queries
/// are replaced — removals biased toward the tail (head demand is stable),
/// additions are fresh attribute/brand variants of existing products.
///
/// Ids are reassigned densely in the returned universe (queries are a
/// snapshot, not an identity), which mirrors the daily re-aggregation of
/// the search logs.
pub fn evolve_queries(
    mp: &Marketplace,
    queries: &[Query],
    rate: f64,
    seed: u64,
) -> (Vec<Query>, ChurnReport) {
    assert!((0.0..=1.0).contains(&rate), "churn rate must be in [0,1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let target_changes = ((queries.len() as f64) * rate).round() as usize;

    // Removal probability inversely proportional to demand weight: the
    // median-weight query is ~2x more likely to fade than a 2x-weight one.
    let mut weights: Vec<f64> = queries.iter().map(|q| q.weight).collect();
    weights.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
    let median = weights[weights.len() / 2].max(1e-9);

    let mut retained: Vec<Query> = Vec::with_capacity(queries.len());
    let mut removed = 0usize;
    for q in queries {
        let fade = (median / q.weight.max(1e-9)).min(4.0) * rate;
        if removed < target_changes && rng.gen_bool(fade.clamp(0.0, 1.0)) {
            removed += 1;
        } else {
            retained.push(q.clone());
        }
    }

    // Additions: new attribute-qualified variants of random products (the
    // realistic source of new queries: sellers/buyers discover new facets).
    let existing: std::collections::HashSet<String> =
        retained.iter().map(|q| q.text.clone()).collect();
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < target_changes && attempts < target_changes * 20 {
        attempts += 1;
        let product = &mp.products[rng.gen_range(0..mp.products.len())];
        if product.attrs.is_empty() {
            continue;
        }
        let attr = &product.attrs[rng.gen_range(0..product.attrs.len())];
        let brand = mp.brand_token(product);
        let type_tokens = mp.type_tokens(product).join(" ");
        let (text, constraint) = if rng.gen_bool(0.5) {
            (
                format!("{attr} {} {type_tokens}", product.line.join(" ")),
                QueryConstraint {
                    product: Some(product.id),
                    type_idx: None,
                    brand: None,
                    attrs: vec![],
                },
            )
        } else {
            (
                format!("{brand} {attr} {type_tokens}"),
                QueryConstraint {
                    product: None,
                    type_idx: Some(product.type_idx),
                    brand: Some(product.brand),
                    attrs: vec![attr.clone()],
                },
            )
        };
        if existing.contains(&text) || retained.iter().any(|q| q.text == text) {
            continue;
        }
        retained.push(Query {
            id: 0, // reassigned below
            text,
            leaf: product.leaf,
            constraint,
            weight: (0.2 + product.popularity) * rng.gen_range(0.5..2.0),
        });
        added += 1;
    }

    // Dense re-id.
    for (i, q) in retained.iter_mut().enumerate() {
        q.id = i as u32;
    }
    let report = ChurnReport {
        retained: retained.len() - added,
        removed,
        added,
    };
    (retained, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CategorySpec;
    use crate::queries::generate_queries;

    fn setup() -> (Marketplace, Vec<Query>) {
        let mp = Marketplace::generate(CategorySpec::tiny(121));
        let qs = generate_queries(&mp);
        (mp, qs)
    }

    #[test]
    fn churn_rate_is_approximately_respected() {
        let (mp, qs) = setup();
        let (evolved, report) = evolve_queries(&mp, &qs, 0.02, 1);
        let rate = report.removed as f64 / qs.len() as f64;
        assert!(rate <= 0.03, "removed too many: {rate}");
        assert!(report.added <= (qs.len() as f64 * 0.02).round() as usize);
        assert_eq!(report.retained + report.added, evolved.len());
    }

    #[test]
    fn removals_bias_toward_tail() {
        let (mp, qs) = setup();
        let (evolved, _) = evolve_queries(&mp, &qs, 0.2, 2);
        let surviving: std::collections::HashSet<&str> =
            evolved.iter().map(|q| q.text.as_str()).collect();
        let (mut head_removed, mut tail_removed) = (0usize, 0usize);
        let mut weights: Vec<f64> = qs.iter().map(|q| q.weight).collect();
        weights.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let median = weights[weights.len() / 2];
        for q in &qs {
            if !surviving.contains(q.text.as_str()) {
                if q.weight >= median {
                    head_removed += 1;
                } else {
                    tail_removed += 1;
                }
            }
        }
        assert!(
            tail_removed > head_removed,
            "tail {tail_removed} vs head {head_removed}"
        );
    }

    #[test]
    fn ids_stay_dense_and_unique_texts() {
        let (mp, qs) = setup();
        let (evolved, _) = evolve_queries(&mp, &qs, 0.1, 3);
        for (i, q) in evolved.iter().enumerate() {
            assert_eq!(q.id as usize, i);
        }
        let texts: std::collections::HashSet<&str> =
            evolved.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(texts.len(), evolved.len());
    }

    #[test]
    fn zero_rate_is_identity() {
        let (mp, qs) = setup();
        let (evolved, report) = evolve_queries(&mp, &qs, 0.0, 4);
        assert_eq!(evolved.len(), qs.len());
        assert_eq!(report.removed, 0);
        assert_eq!(report.added, 0);
    }

    #[test]
    fn new_queries_are_oracle_decidable() {
        // Added queries must carry valid constraints so the oracle keeps
        // working after churn.
        let (mp, qs) = setup();
        let (evolved, report) = evolve_queries(&mp, &qs, 0.3, 5);
        assert!(report.added > 0);
        let oracle_queries = evolved.clone();
        let oracle = crate::oracle::RelevanceOracle::new(&mp, &oracle_queries);
        // Every query relevant to at least the items of a matching product.
        let mut decidable = 0usize;
        for q in evolved.iter().rev().take(report.added) {
            let any_relevant = mp
                .items
                .iter()
                .take(500)
                .any(|i| oracle.is_relevant(i, &q.text));
            if any_relevant {
                decidable += 1;
            }
        }
        assert!(decidable > 0, "no new query matches any item");
    }

    #[test]
    fn daily_refresh_cycle_with_graphex() {
        // Day 0 → churn → Day 1: rebuilding GraphEx picks up the new
        // queries (the paper's daily-refresh story).
        use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord};
        let (mp, qs) = setup();
        let (evolved, report) = evolve_queries(&mp, &qs, 0.25, 6);
        assert!(report.added > 0);
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let records: Vec<KeyphraseRecord> = evolved
            .iter()
            .map(|q| KeyphraseRecord::new(q.text.clone(), q.leaf, q.weight.ceil() as u32, 10))
            .collect();
        let model = GraphExBuilder::new(config)
            .add_records(records)
            .build()
            .unwrap();
        // A brand-new query is recommendable the same day.
        let new_q = &evolved[evolved.len() - 1];
        assert!(
            model.keyphrase_id(&new_q.text).is_some() || {
                // normalization may alter the text; check via inference instead
                let mut scratch = graphex_core::Scratch::new();
                let req = graphex_core::InferRequest::new(&new_q.text, new_q.leaf).k(5);
                !model.infer_request(&req, &mut scratch).is_empty()
            }
        );
    }
}
