//! Marketplace pipeline: the full study in miniature — simulate a category,
//! train GraphEx *and* the production baselines, run the paper's judged
//! evaluation, and print an RP/HP comparison (a small Table III).
//!
//! ```bash
//! cargo run --release -p graphex-suite --example marketplace_pipeline
//! ```

use graphex_baselines::fasttext::FastTextConfig;
use graphex_baselines::{
    FastTextLike, GraphExRecommender, Graphite, Recommender, RulesEngine, SlEmb, SlQuery,
};
use graphex_core::{GraphExBuilder, GraphExConfig};
use graphex_eval::{Evaluation, RelevanceJudge};
use graphex_marketsim::{CategoryDataset, CategorySpec};

fn main() {
    println!("simulating category (catalog, queries, biased click log) ...");
    let ds = CategoryDataset::generate(CategorySpec::tiny(0xBEEF));
    let stats = ds.train_log.click_stats();
    println!(
        "  items: {}  queries: {}  clicks: {}  item coverage: {:.1}%",
        ds.marketplace.items.len(),
        ds.queries.len(),
        ds.train_log.total_clicks,
        stats.coverage * 100.0
    );

    println!("training the six models of the paper's comparison ...");
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let graphex = GraphExBuilder::new(config)
        .add_records(ds.keyphrase_records())
        .build()
        .expect("model");
    let models: Vec<Box<dyn Recommender>> = vec![
        Box::new(FastTextLike::train(
            &ds,
            FastTextConfig {
                epochs: 12,
                ..Default::default()
            },
        )),
        Box::new(SlEmb::train(&ds, 25, 0.05)),
        Box::new(SlQuery::train(&ds, 0.2)),
        Box::new(Graphite::train(&ds, 512)),
        Box::new(RulesEngine::train(&ds, 1)),
        Box::new(GraphExRecommender::new(graphex)),
    ];

    println!("running the judged evaluation (k = 40) ...\n");
    let judge = RelevanceJudge::new(&ds);
    let items = ds.test_items(60, 11);
    let refs: Vec<&dyn Recommender> = models.iter().map(|m| m.as_ref()).collect();
    let eval = Evaluation::run(&ds, &refs, &items, 40, &judge);

    println!(
        "{:<10} {:>6} {:>9} {:>6} {:>6} {:>6} {:>6}",
        "model", "preds", "relevant", "head", "RP", "HP", "RRR"
    );
    for m in &eval.models {
        println!(
            "{:<10} {:>6} {:>9} {:>6} {:>5.1}% {:>5.1}% {:>6.2}",
            m.name,
            m.total_predictions(),
            m.relevant(),
            m.relevant_head(),
            m.rp() * 100.0,
            m.hp() * 100.0,
            eval.rrr(&m.name, "GraphEx"),
        );
    }
    println!("\n(RRR is relative to GraphEx — the paper's Table III convention)");
}
