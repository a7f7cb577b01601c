//! Property-based tests for the marketplace simulator.

use graphex_marketsim::catalog::{CategorySpec, Marketplace};
use graphex_marketsim::churn::evolve_queries;
use graphex_marketsim::queries::{build_index, generate_queries, matches};
use graphex_marketsim::sessions::simulate_window;
use proptest::prelude::*;

/// Small random spec: keeps each case fast while varying every dimension.
fn spec_strategy() -> impl Strategy<Value = CategorySpec> {
    (1u64..1000, 1usize..4, 2usize..6, 20usize..120).prop_map(|(seed, leaves, products, items)| {
        CategorySpec {
            name: format!("P{seed}"),
            seed,
            num_leaves: leaves,
            products_per_leaf: products,
            num_items: items,
            num_sessions: 400,
            leaf_id_base: 100,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Structural integrity of any generated marketplace.
    #[test]
    fn marketplace_referential_integrity(spec in spec_strategy()) {
        let mp = Marketplace::generate(spec.clone());
        prop_assert_eq!(mp.items.len(), spec.num_items);
        prop_assert_eq!(mp.leaves.len(), spec.num_leaves);
        for item in &mp.items {
            let product = &mp.products[item.product as usize];
            prop_assert_eq!(product.leaf, item.leaf);
            prop_assert!(!item.title.is_empty());
            prop_assert!(item.popularity > 0.0);
        }
        // product_items partition covers all items exactly once.
        let covered: usize = mp.product_items.iter().map(Vec::len).sum();
        prop_assert_eq!(covered, mp.items.len());
    }

    /// Every query matches at least one product archetype of its own leaf
    /// (queries derive from products, so a matchless query is a generator
    /// bug), and SRP pages contain only matching items.
    #[test]
    fn queries_match_their_origin(spec in spec_strategy()) {
        let mp = Marketplace::generate(spec);
        let queries = generate_queries(&mp);
        prop_assert!(!queries.is_empty());
        let index = build_index(&mp, &queries);
        for q in &queries {
            let any_product = mp.products.iter().any(|p| matches(&mp, q, p.id));
            prop_assert!(any_product, "query {:?} matches nothing", q.text);
            for &item in &index.srp[q.id as usize] {
                prop_assert!(matches(&mp, q, mp.items[item as usize].product));
            }
        }
    }

    /// Search-count conservation and click provenance hold for any seed.
    #[test]
    fn log_conservation(spec in spec_strategy(), sessions in 50u64..500, seed in 0u64..50) {
        let mp = Marketplace::generate(spec);
        let queries = generate_queries(&mp);
        let log = simulate_window(&mp, &queries, sessions, seed);
        let total: u64 = log.search_counts.iter().map(|&c| u64::from(c)).sum();
        prop_assert_eq!(total, sessions);
        let item_sum: u64 = log.item_clicks.iter().flatten().map(|&(_, n)| u64::from(n)).sum();
        prop_assert_eq!(item_sum, log.total_clicks);
    }

    /// Churn never loses constraint validity and respects the rate bound.
    #[test]
    fn churn_bounds(spec in spec_strategy(), rate in 0.0f64..0.5, seed in 0u64..50) {
        let mp = Marketplace::generate(spec);
        let queries = generate_queries(&mp);
        let (evolved, report) = evolve_queries(&mp, &queries, rate, seed);
        let budget = ((queries.len() as f64) * rate).round() as usize;
        prop_assert!(report.removed <= budget);
        prop_assert!(report.added <= budget);
        prop_assert_eq!(report.retained + report.added, evolved.len());
        // Every evolved query still matches some product.
        for q in &evolved {
            prop_assert!(mp.products.iter().any(|p| matches(&mp, q, p.id)));
        }
    }
}
