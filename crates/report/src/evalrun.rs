//! A small judged evaluation for the report's quality section.
//!
//! The full six-model study lives in `graphex-bench`; the report only
//! needs a fast, deterministic quality snapshot, so it trains the two
//! poles of the paper's comparison — GraphEx and the 100%-recall Rules
//! Engine — on a tiny simulated category and runs the judged harness
//! once. RP/HP plus the top-k diversity/redundancy perception metrics
//! land in the page; same seed ⇒ same numbers.

use graphex_baselines::{GraphExRecommender, Recommender, RulesEngine};
use graphex_core::{GraphExBuilder, GraphExConfig};
use graphex_eval::{topk_diversity, Evaluation, RelevanceJudge, TopkDiversity};
use graphex_marketsim::{CategoryDataset, CategorySpec};

/// One model's quality row.
#[derive(Debug, Clone)]
pub struct EvalRow {
    pub model: String,
    pub predictions: usize,
    pub rp: f64,
    pub hp: f64,
}

/// The report's eval section: RP/HP per model plus the top-k
/// perception metrics.
#[derive(Debug, Clone)]
pub struct EvalSection {
    pub dataset: String,
    pub test_items: usize,
    pub rows: Vec<EvalRow>,
    pub diversity: Vec<TopkDiversity>,
}

/// Trains GraphEx + the Rules Engine on `CategorySpec::tiny(seed)` and
/// evaluates both over `test_n` judged items (k = 40, as in the paper).
pub fn run_eval(seed: u64, test_n: usize) -> EvalSection {
    let ds = CategoryDataset::generate(CategorySpec::tiny(seed));
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let model = GraphExBuilder::new(config)
        .add_records(ds.keyphrase_records())
        .build()
        .expect("tiny dataset produced zero curated keyphrases");
    let models: Vec<Box<dyn Recommender>> = vec![
        Box::new(GraphExRecommender::new(model)),
        Box::new(RulesEngine::train(&ds, 1)),
    ];
    let refs: Vec<&dyn Recommender> = models.iter().map(|m| m.as_ref()).collect();
    let judge = RelevanceJudge::new(&ds);
    let test_items = ds.test_items(test_n, 0xE57);
    let evaluation = Evaluation::run(&ds, &refs, &test_items, 40, &judge);
    let rows = evaluation
        .models
        .iter()
        .map(|outcome| EvalRow {
            model: outcome.name.clone(),
            predictions: outcome.total_predictions(),
            rp: outcome.rp(),
            hp: outcome.hp(),
        })
        .collect();
    EvalSection {
        dataset: format!("tiny(seed {seed})"),
        test_items: test_items.len(),
        rows,
        diversity: topk_diversity(&evaluation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_section_is_deterministic_and_populated() {
        let a = run_eval(0x9E, 8);
        let b = run_eval(0x9E, 8);
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.diversity.len(), 2);
        assert_eq!(a.test_items, 8);
        let graphex = a.rows.iter().find(|r| r.model == "GraphEx").unwrap();
        assert!(graphex.predictions > 0, "GraphEx predicted nothing");
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.model, y.model);
            assert!((x.rp - y.rp).abs() < 1e-12 && (x.hp - y.hp).abs() < 1e-12);
        }
    }
}
