//! Buyer session simulation and the resulting search log.
//!
//! This is the biased logging pipeline of the paper's Sec. I-A2, built
//! explicitly so its biases are *by construction*, not by accident:
//!
//! * **Exposure bias** — only the top [`crate::queries::SRP_LEN`] ranked
//!   items are ever shown; everything below the fold can't be clicked.
//! * **Position bias** — click probability decays with rank.
//! * **Popularity bias** — the ranker orders by item popularity, and
//!   popular items also convert better.
//! * **MNAR** — an item without clicks for a query is *not* evidence of
//!   irrelevance; it may simply never have been exposed.
//!
//! The output [`SearchLog`] carries observed per-query search counts (what
//! GraphEx curates on) and per-item click associations (what XMC baselines
//! and the Rules Engine train on).

use crate::catalog::{cumsum, sample_cumulative, Marketplace};
use crate::queries::{build_index, Query, QueryIndex};
use graphex_textkit::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Aggregated search log over one simulation window.
#[derive(Debug, Clone)]
pub struct SearchLog {
    /// Observed searches per query in this window.
    pub search_counts: Vec<u32>,
    /// Recall count per query (items the engine matches; window-independent).
    pub recall_counts: Vec<u32>,
    /// Clicks per item: `(query_id, clicks)` pairs, item-major.
    pub item_clicks: Vec<Vec<(u32, u32)>>,
    /// Clicks per query: `(item_id, clicks)` pairs, query-major.
    pub query_clicks: Vec<Vec<(u32, u32)>>,
    /// Total sessions simulated.
    pub sessions: u64,
    /// Total clicks recorded.
    pub total_clicks: u64,
}

/// Summary statistics of the click log (drives the Fig. 2 reproduction).
#[derive(Debug, Clone, PartialEq)]
pub struct ClickStats {
    pub num_items: usize,
    pub items_with_clicks: usize,
    /// Fraction of items with at least one click ("item coverage"; the
    /// paper reports ~4 % get clicks / RE covers ~13 %).
    pub coverage: f64,
    /// `histogram[k]` = number of items associated with exactly `k` distinct
    /// queries (k ≥ 1); index 0 unused.
    pub queries_per_item_histogram: Vec<u32>,
    /// Share of clicked items with exactly one associated query (the paper's
    /// "90% of such items" claim in Fig. 2).
    pub single_query_share: f64,
}

/// Tunables of the click model.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Base click-through probability at rank 0 for a perfectly matching,
    /// maximally popular item.
    pub base_ctr: f64,
    /// Position-bias decay exponent (higher = steeper).
    pub position_decay: f64,
    /// Max clicks a single session can produce.
    pub max_clicks_per_session: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        // Tuned so the large presets land near the paper's click sparsity
        // (~96 % of items without clicks, Sec. I-A2) while still producing
        // enough click mass for the XMC baselines to train on.
        Self {
            base_ctr: 0.18,
            position_decay: 1.6,
            max_clicks_per_session: 2,
        }
    }
}

/// Simulates `num_sessions` buyer sessions over the query universe.
///
/// Each session: sample a query by latent demand weight, walk its SRP page,
/// click with position- and popularity-dependent probability.
pub fn simulate(
    mp: &Marketplace,
    queries: &[Query],
    index: &QueryIndex,
    num_sessions: u64,
    seed: u64,
    config: &SessionConfig,
) -> SearchLog {
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights: Vec<f64> = queries.iter().map(|q| q.weight).collect();
    let cumulative = cumsum(&weights);

    let mut search_counts = vec![0u32; queries.len()];
    let mut click_pairs: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut total_clicks = 0u64;

    for _ in 0..num_sessions {
        let q = sample_cumulative(&cumulative, &mut rng) as u32;
        search_counts[q as usize] += 1;
        let page = &index.srp[q as usize];
        let mut clicks_left = config.max_clicks_per_session;
        for (pos, &item_id) in page.iter().enumerate() {
            if clicks_left == 0 {
                break;
            }
            let item = &mp.items[item_id as usize];
            let position_bias = 1.0 / (1.0 + pos as f64).powf(config.position_decay);
            // Superlinear in popularity: unpopular items convert poorly even
            // when exposed — the popularity bias the paper calls out.
            let quality = 0.05 + 0.95 * item.popularity.powf(1.5);
            let p = config.base_ctr * position_bias * quality;
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                *click_pairs.entry((q, item_id)).or_insert(0) += 1;
                total_clicks += 1;
                clicks_left -= 1;
            }
        }
    }

    // Pivot the click map both ways.
    let mut item_clicks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); mp.items.len()];
    let mut query_clicks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); queries.len()];
    let mut pairs: Vec<((u32, u32), u32)> = click_pairs.into_iter().collect();
    pairs.sort_unstable(); // determinism independent of hash order
    for ((q, item), n) in pairs {
        item_clicks[item as usize].push((q, n));
        query_clicks[q as usize].push((item, n));
    }

    SearchLog {
        search_counts,
        recall_counts: index.recall.clone(),
        item_clicks,
        query_clicks,
        sessions: num_sessions,
        total_clicks,
    }
}

/// Convenience: build the index and simulate in one call.
pub fn simulate_window(
    mp: &Marketplace,
    queries: &[Query],
    num_sessions: u64,
    seed: u64,
) -> SearchLog {
    let index = build_index(mp, queries);
    simulate(
        mp,
        queries,
        &index,
        num_sessions,
        seed,
        &SessionConfig::default(),
    )
}

impl SearchLog {
    /// Click statistics (Fig. 2 inputs).
    pub fn click_stats(&self) -> ClickStats {
        let num_items = self.item_clicks.len();
        let mut items_with_clicks = 0usize;
        let mut max_queries = 0usize;
        for assoc in &self.item_clicks {
            if !assoc.is_empty() {
                items_with_clicks += 1;
                max_queries = max_queries.max(assoc.len());
            }
        }
        let mut histogram = vec![0u32; max_queries + 1];
        let mut single = 0usize;
        for assoc in &self.item_clicks {
            if assoc.is_empty() {
                continue;
            }
            histogram[assoc.len()] += 1;
            if assoc.len() == 1 {
                single += 1;
            }
        }
        ClickStats {
            num_items,
            items_with_clicks,
            coverage: if num_items == 0 {
                0.0
            } else {
                items_with_clicks as f64 / num_items as f64
            },
            queries_per_item_histogram: histogram,
            single_query_share: if items_with_clicks == 0 {
                0.0
            } else {
                single as f64 / items_with_clicks as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CategorySpec;
    use crate::queries::generate_queries;

    fn setup() -> (Marketplace, Vec<Query>, SearchLog) {
        let mp = Marketplace::generate(CategorySpec::tiny(21));
        let qs = generate_queries(&mp);
        let log = simulate_window(&mp, &qs, 3_000, 77);
        (mp, qs, log)
    }

    #[test]
    fn deterministic_given_seed() {
        let mp = Marketplace::generate(CategorySpec::tiny(21));
        let qs = generate_queries(&mp);
        let a = simulate_window(&mp, &qs, 1_000, 5);
        let b = simulate_window(&mp, &qs, 1_000, 5);
        assert_eq!(a.search_counts, b.search_counts);
        assert_eq!(a.total_clicks, b.total_clicks);
        assert_eq!(a.item_clicks, b.item_clicks);
        let c = simulate_window(&mp, &qs, 1_000, 6);
        assert_ne!(a.search_counts, c.search_counts);
    }

    #[test]
    fn search_counts_sum_to_sessions() {
        let (_, _, log) = setup();
        let total: u64 = log.search_counts.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(total, log.sessions);
    }

    #[test]
    fn clicks_only_on_exposed_matching_items() {
        let (mp, qs, log) = setup();
        let index = build_index(&mp, &qs);
        for (q, items) in log.query_clicks.iter().enumerate() {
            for &(item, n) in items {
                assert!(n > 0);
                assert!(
                    index.srp[q].contains(&item),
                    "clicked item {item} was not on query {q}'s SRP page"
                );
            }
        }
    }

    #[test]
    fn pivots_agree() {
        let (_, _, log) = setup();
        let from_items: u64 = log
            .item_clicks
            .iter()
            .flatten()
            .map(|&(_, n)| u64::from(n))
            .sum();
        let from_queries: u64 = log
            .query_clicks
            .iter()
            .flatten()
            .map(|&(_, n)| u64::from(n))
            .sum();
        assert_eq!(from_items, from_queries);
        assert_eq!(from_items, log.total_clicks);
    }

    #[test]
    fn click_sparsity_and_single_query_skew() {
        // The properties Fig. 2 is about: most items get no clicks, and
        // clicked items overwhelmingly have few distinct queries.
        let (_, _, log) = setup();
        let stats = log.click_stats();
        assert!(
            stats.coverage < 0.45,
            "coverage too high: {}",
            stats.coverage
        );
        assert!(stats.items_with_clicks > 0);
        assert!(
            stats.single_query_share > 0.45,
            "single-query share too low: {}",
            stats.single_query_share
        );
        let total_hist: u32 = stats.queries_per_item_histogram.iter().sum();
        assert_eq!(total_hist as usize, stats.items_with_clicks);
    }

    #[test]
    fn head_queries_get_searched_more() {
        let (_, qs, log) = setup();
        // Correlation check: the top-weight decile should collect far more
        // searches than the bottom decile.
        let mut by_weight: Vec<usize> = (0..qs.len()).collect();
        by_weight.sort_unstable_by(|&a, &b| qs[b].weight.partial_cmp(&qs[a].weight).unwrap());
        let decile = qs.len() / 10;
        let head: u64 = by_weight[..decile]
            .iter()
            .map(|&i| u64::from(log.search_counts[i]))
            .sum();
        let tail: u64 = by_weight[qs.len() - decile..]
            .iter()
            .map(|&i| u64::from(log.search_counts[i]))
            .sum();
        assert!(head > tail * 5, "head {head} vs tail {tail}");
    }

    #[test]
    fn empty_simulation() {
        let mp = Marketplace::generate(CategorySpec::tiny(3));
        let qs = generate_queries(&mp);
        let log = simulate_window(&mp, &qs, 0, 1);
        assert_eq!(log.total_clicks, 0);
        assert_eq!(log.click_stats().items_with_clicks, 0);
        assert_eq!(log.click_stats().coverage, 0.0);
    }
}
