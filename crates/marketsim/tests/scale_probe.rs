//! Scale probes: verify the paper-shaped dataset statistics at the real
//! preset scales. Run explicitly (release recommended):
//! `cargo test -p graphex-marketsim --release -- --ignored --nocapture`

use graphex_marketsim::{CategoryDataset, CategorySpec};

#[test]
#[ignore = "slow: generates the full CAT_2 preset"]
fn cat2_click_log_shape_matches_paper() {
    let ds = CategoryDataset::generate(CategorySpec::cat2());
    let stats = ds.train_log.click_stats();
    println!(
        "CAT_2: items={} queries={} coverage={:.2}% single_query_share={:.2}% clicks={}",
        stats.num_items,
        ds.queries.len(),
        stats.coverage * 100.0,
        stats.single_query_share * 100.0,
        ds.train_log.total_clicks
    );
    // Paper Sec. I-A2: ~96 % of items have no clicks; Fig. 2: ~90 % of
    // clicked items have one query. Synthetic scale won't match exactly —
    // we require the same regime.
    assert!(
        stats.coverage < 0.35,
        "click coverage too high: {:.3}",
        stats.coverage
    );
    assert!(
        stats.single_query_share > 0.55,
        "single-query share: {:.3}",
        stats.single_query_share
    );
    // Enough signal left for click-trained baselines.
    assert!(ds.train_log.total_clicks > 1_000);

    // Curated keyphrases: observed search counts exist and heads dominate.
    let records = ds.keyphrase_records();
    assert!(
        records.len() > 1_000,
        "too few searched keyphrases: {}",
        records.len()
    );
}

#[test]
#[ignore = "slow: generates the full CAT_1 preset"]
fn cat1_generation_within_budget() {
    let t0 = std::time::Instant::now();
    let ds = CategoryDataset::generate(CategorySpec::cat1());
    let elapsed = t0.elapsed();
    let stats = ds.train_log.click_stats();
    println!(
        "CAT_1: generated in {elapsed:?}; items={} queries={} coverage={:.2}% single={:.2}%",
        stats.num_items,
        ds.queries.len(),
        stats.coverage * 100.0,
        stats.single_query_share * 100.0,
    );
    assert!(stats.coverage < 0.30);
    assert!(elapsed.as_secs() < 120, "generation too slow: {elapsed:?}");
}
