//! Study orchestration: generate a category, train all six models, run the
//! judged evaluation once, measure execution characteristics — then let the
//! per-table renderers (`render` module) format the paper's outputs from it.

pub mod render;

use graphex_baselines::fasttext::FastTextConfig;
use graphex_baselines::{
    FastTextLike, GraphExRecommender, Graphite, ItemRef, Recommender, RulesEngine, SlEmb, SlQuery,
};
use graphex_core::{GraphExBuilder, GraphExConfig, GraphExModel};
use graphex_eval::{Evaluation, RelevanceJudge};
use graphex_marketsim::{CategoryDataset, CategorySpec};
use std::time::{Duration, Instant};

/// Model order used everywhere (matches the paper's table rows).
pub const MODEL_ORDER: [&str; 6] = [
    "fastText", "SL-emb", "SL-query", "Graphite", "RE", "GraphEx",
];

/// One fully evaluated category.
pub struct Study {
    pub name: String,
    pub ds: CategoryDataset,
    /// The curation threshold used for GraphEx on this dataset.
    pub graphex_threshold: u32,
    /// A clone of the GraphEx model for ablation experiments.
    pub graphex_model: GraphExModel,
    pub models: Vec<Box<dyn Recommender>>,
    /// Judged evaluation over the test set (k = 40, paper Sec. IV-B).
    pub evaluation: Evaluation,
    /// Test item ids (indices into `ds.marketplace.items`).
    pub test_item_ids: Vec<u32>,
    /// (model, construction/training wall time).
    pub construction_times: Vec<(String, Duration)>,
    /// (model, amortized per-record inference latency) for the latency
    /// models of Fig. 6a.
    pub latencies: Vec<(String, Duration)>,
    /// (model, size in bytes) for Fig. 6b.
    pub sizes: Vec<(String, usize)>,
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// GraphEx curation threshold for a simulated dataset.
///
/// The paper's production rule is "searched at least once per day" (180
/// over 6 months, Sec. IV-F2); our simulated windows are far shorter, so we
/// translate the rule scale-invariantly: the 70th percentile of positive
/// search counts (keeping roughly the same head-heavy fraction the paper's
/// thresholds keep), floored at 2 to drop single-search noise queries.
pub fn default_threshold(ds: &CategoryDataset) -> u32 {
    percentile_threshold(ds, 0.70)
}

/// Threshold at an arbitrary percentile of positive search counts.
pub fn percentile_threshold(ds: &CategoryDataset, pct: f64) -> u32 {
    let mut counts: Vec<u32> = ds
        .train_log
        .search_counts
        .iter()
        .copied()
        .filter(|&c| c > 0)
        .collect();
    if counts.is_empty() {
        return 2;
    }
    counts.sort_unstable();
    let idx = ((counts.len() as f64 * pct) as usize).min(counts.len() - 1);
    counts[idx].max(2)
}

/// Builds the GraphEx model for a dataset with an explicit threshold.
pub fn build_graphex(ds: &CategoryDataset, min_search_count: u32) -> GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = min_search_count;
    GraphExBuilder::new(config)
        .add_records(ds.keyphrase_records())
        .build()
        .expect("dataset produced zero curated keyphrases")
}

/// Runs the full study for one category spec.
pub fn run_study(spec: CategorySpec, test_n: usize) -> Study {
    let name = spec.name.clone();
    let ds = CategoryDataset::generate(spec);

    // --- train all six models, timing the Fig. 6 trio --------------------
    let threshold = default_threshold(&ds);
    let (graphex_model, graphex_time) = time(|| build_graphex(&ds, threshold));
    let (graphite, graphite_time) = time(|| Graphite::train(&ds, 512));
    let (fasttext, fasttext_time) = time(|| FastTextLike::train(&ds, FastTextConfig::default()));
    let rules_engine = RulesEngine::train(&ds, 1);
    let sl_query = SlQuery::train(&ds, 0.2);
    let sl_emb = SlEmb::train(&ds, 25, 0.05);

    let construction_times = vec![
        ("fastText".to_string(), fasttext_time),
        ("Graphite".to_string(), graphite_time),
        ("GraphEx".to_string(), graphex_time),
    ];

    let models: Vec<Box<dyn Recommender>> = vec![
        Box::new(fasttext),
        Box::new(sl_emb),
        Box::new(sl_query),
        Box::new(graphite),
        Box::new(rules_engine),
        Box::new(GraphExRecommender::new(graphex_model.clone())),
    ];

    // --- evaluation (judged, k = 40) --------------------------------------
    let judge = RelevanceJudge::new(&ds);
    let test_items = ds.test_items(test_n, 0xE57);
    let refs: Vec<&dyn Recommender> = models.iter().map(|m| m.as_ref()).collect();
    let evaluation = Evaluation::run(&ds, &refs, &test_items, 40, &judge);
    let test_item_ids: Vec<u32> = test_items.iter().map(|i| i.id).collect();

    // --- execution metrics -------------------------------------------------
    let latency_models = ["fastText", "Graphite", "GraphEx"];
    let mut latencies = Vec::new();
    for name in latency_models {
        let model = models
            .iter()
            .find(|m| m.name() == name)
            .expect("model present");
        latencies.push((
            name.to_string(),
            measure_latency(model.as_ref(), &ds, &test_item_ids),
        ));
    }
    let sizes: Vec<(String, usize)> = models
        .iter()
        .map(|m| (m.name().to_string(), m.size_bytes()))
        .collect();

    Study {
        name,
        graphex_threshold: threshold,
        graphex_model,
        models,
        evaluation,
        test_item_ids,
        construction_times,
        latencies,
        sizes,
        ds,
    }
}

/// Amortized per-record inference latency over the test items (paper
/// Fig. 6a: "amortizing the time taken for prediction over the entire test
/// set"), k = 20.
pub fn measure_latency(
    model: &dyn Recommender,
    ds: &CategoryDataset,
    item_ids: &[u32],
) -> Duration {
    // Warm-up pass so lazy allocations don't pollute the measurement.
    for &id in item_ids.iter().take(10) {
        let item = &ds.marketplace.items[id as usize];
        std::hint::black_box(model.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 20));
    }
    let start = Instant::now();
    for &id in item_ids {
        let item = &ds.marketplace.items[id as usize];
        std::hint::black_box(model.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 20));
    }
    start.elapsed() / item_ids.len().max(1) as u32
}

/// Runs all categories of a scale.
pub fn run_studies(scale: crate::Scale) -> Vec<Study> {
    let sizes = scale.test_set_sizes();
    scale
        .specs()
        .into_iter()
        .zip(sizes)
        .map(|(spec, n)| {
            eprintln!("[bench] generating + evaluating {} ...", spec.name);
            run_study(spec, n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_marketsim::CategorySpec;

    fn quick_study() -> Study {
        let mut spec = CategorySpec::tiny(0x57);
        spec.name = "TEST_CAT".into();
        run_study(spec, 30)
    }

    #[test]
    fn study_has_all_models_in_order() {
        let study = quick_study();
        let names: Vec<&str> = study.models.iter().map(|m| m.name()).collect();
        assert_eq!(names, MODEL_ORDER);
        assert_eq!(study.evaluation.models.len(), 6);
        assert_eq!(study.test_item_ids.len(), 30);
        assert_eq!(study.sizes.len(), 6);
        assert_eq!(study.latencies.len(), 3);
    }

    #[test]
    fn graphex_produces_predictions_in_study() {
        let study = quick_study();
        let graphex = study.evaluation.model("GraphEx").unwrap();
        assert!(graphex.total_predictions() > 0, "GraphEx predicted nothing");
        assert!(
            graphex.relevant() > 0,
            "GraphEx has zero judged-relevant predictions"
        );
    }

    #[test]
    fn threshold_is_data_driven() {
        let ds = CategoryDataset::generate(CategorySpec::tiny(0x58));
        let t = default_threshold(&ds);
        assert!(t >= 2);
        let stricter = percentile_threshold(&ds, 0.9);
        assert!(stricter >= t);
    }
}
