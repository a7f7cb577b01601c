//! Evaluation-framework integration: the judged evaluation pipeline holds
//! its invariants on a real (simulated) dataset with real models.

use graphex_baselines::{GraphExRecommender, Recommender, RulesEngine};
use graphex_eval::metrics::{exclusive_relevant_head, fig4_rows, precision_recall_vs, venn_counts};
use graphex_eval::{Evaluation, HeadThreshold, RelevanceJudge};
use graphex_suite::{tiny_dataset, tiny_model};

fn run_eval(
    seed: u64,
) -> (
    graphex_marketsim::CategoryDataset,
    Vec<Box<dyn Recommender>>,
) {
    let ds = tiny_dataset(seed);
    let models: Vec<Box<dyn Recommender>> = vec![
        Box::new(RulesEngine::train(&ds, 1)),
        Box::new(GraphExRecommender::new(tiny_model(&ds))),
    ];
    (ds, models)
}

#[test]
fn evaluation_invariants_hold() {
    let (ds, models) = run_eval(0xEF1);
    let judge = RelevanceJudge::new(&ds);
    let items = ds.test_items(50, 3);
    let refs: Vec<&dyn Recommender> = models.iter().map(|m| m.as_ref()).collect();
    let eval = Evaluation::run(&ds, &refs, &items, 40, &judge);

    for m in &eval.models {
        // Counting identities.
        assert_eq!(m.relevant(), m.relevant_head() + m.relevant_tail());
        assert_eq!(m.total_predictions(), m.relevant() + m.irrelevant());
        assert!(m.rp() <= 1.0 && m.hp() <= m.rp() + 1e-12);
        assert_eq!(m.per_item.len(), items.len());
        // k cap respected.
        assert!(m.per_item.iter().all(|p| p.len() <= 40));
    }
    // Self-ratios are exactly 1 when the model has any relevant prediction.
    let graphex = eval.model("GraphEx").unwrap();
    if graphex.relevant() > 0 {
        assert!((eval.rrr("GraphEx", "GraphEx") - 1.0).abs() < 1e-12);
    }
}

#[test]
fn evaluation_is_deterministic() {
    let (ds, models) = run_eval(0xEF2);
    let judge = RelevanceJudge::new(&ds);
    let items = ds.test_items(30, 4);
    let refs: Vec<&dyn Recommender> = models.iter().map(|m| m.as_ref()).collect();
    let a = Evaluation::run(&ds, &refs, &items, 20, &judge);
    let b = Evaluation::run(&ds, &refs, &items, 20, &judge);
    for (ma, mb) in a.models.iter().zip(&b.models) {
        assert_eq!(
            ma.per_item, mb.per_item,
            "evaluation not reproducible for {}",
            ma.name
        );
    }
}

#[test]
fn metrics_are_internally_consistent() {
    let (ds, models) = run_eval(0xEF3);
    let judge = RelevanceJudge::new(&ds);
    let items = ds.test_items(40, 5);
    let refs: Vec<&dyn Recommender> = models.iter().map(|m| m.as_ref()).collect();
    let eval = Evaluation::run(&ds, &refs, &items, 40, &judge);

    // Fig. 4 averages times item count reproduce the totals.
    for row in fig4_rows(&eval) {
        let m = eval.model(&row.model).unwrap();
        let n = items.len() as f64;
        assert!((row.avg_total * n - m.total_predictions() as f64).abs() < 1e-6);
        assert!(
            (row.avg_irrelevant + row.avg_relevant_tail + row.avg_relevant_head - row.avg_total)
                .abs()
                < 1e-9
        );
    }
    // Exclusive head counts can never exceed the model's relevant-head.
    for (name, avg_exclusive) in exclusive_relevant_head(&eval) {
        let m = eval.model(&name).unwrap();
        assert!(avg_exclusive * items.len() as f64 <= m.relevant_head() as f64 + 1e-9);
    }
    // Venn region sizes add up.
    for (name, unique, shared) in venn_counts(&eval) {
        assert_eq!(
            unique + shared,
            eval.model(&name).unwrap().total_predictions()
        );
    }
    // RE scores perfectly against itself.
    let self_pr = precision_recall_vs(&eval, "RE", "RE");
    assert!((self_pr.precision - 1.0).abs() < 1e-12);
    assert!((self_pr.recall - 1.0).abs() < 1e-12);
}

#[test]
fn judge_noise_shifts_but_does_not_dominate() {
    // With 8% noise, measured RP must stay within a few points of exact-
    // oracle RP — the property that makes the AI-judge methodology sound.
    let ds = tiny_dataset(0xEF4);
    let graphex: Box<dyn Recommender> = Box::new(GraphExRecommender::new(tiny_model(&ds)));
    let items = ds.test_items(60, 6);
    let refs = [graphex.as_ref()];

    let noisy = RelevanceJudge::with_noise(&ds, 0.08, 99);
    let exact = RelevanceJudge::with_noise(&ds, 0.0, 99);
    let e_noisy = Evaluation::run(&ds, &refs, &items, 20, &noisy);
    let e_exact = Evaluation::run(&ds, &refs, &items, 20, &exact);
    let rp_noisy = e_noisy.model("GraphEx").unwrap().rp();
    let rp_exact = e_exact.model("GraphEx").unwrap().rp();
    assert!(
        (rp_noisy - rp_exact).abs() < 0.10,
        "noise changed RP too much: {rp_exact:.3} → {rp_noisy:.3}"
    );
}

#[test]
fn head_threshold_consistency_with_eval_window() {
    let ds = tiny_dataset(0xEF5);
    let threshold = HeadThreshold::from_dataset(&ds);
    // Nothing below/equal the cut is head; something above it exists.
    let mut above = 0;
    for &c in &ds.eval_log.search_counts {
        if c > 0 && threshold.is_head(c) {
            above += 1;
            assert!(c > threshold.min_search_count);
        }
    }
    assert!(above > 0, "no head keyphrases at all");
}

/// The evaluation harness can score any [`graphex_core::KeyphraseService`]
/// — the raw engine and the whole store-backed serving stack — through
/// `ServiceRecommender`, and all GraphEx frontends agree on the metrics
/// (they serve the same texts for the same requests).
#[test]
fn serving_stack_is_evaluable_as_a_service() {
    use graphex_baselines::ServiceRecommender;
    use graphex_core::Engine;
    use graphex_serving::{KvStore, ServingApi};
    use std::sync::Arc;

    let ds = tiny_dataset(0xEF7);
    let model = tiny_model(&ds);
    let engine = Engine::from_model(model.clone());
    let direct = GraphExRecommender::new(model);
    let via_engine = ServiceRecommender::new("GraphEx(engine)", engine.clone());
    let via_serving = ServiceRecommender::new(
        "GraphEx(serving)",
        ServingApi::with_engine(engine, Arc::new(KvStore::new()), 20),
    );

    let judge = RelevanceJudge::new(&ds);
    let items = ds.test_items(30, 5);
    let refs: Vec<&dyn Recommender> = vec![&direct, &via_engine, &via_serving];
    let eval = Evaluation::run(&ds, &refs, &items, 20, &judge);

    let a = eval.model("GraphEx").unwrap();
    let b = eval.model("GraphEx(engine)").unwrap();
    let c = eval.model("GraphEx(serving)").unwrap();
    assert!(a.total_predictions() > 0, "nothing predicted");
    // Same model behind all three frontends → identical judged metrics.
    assert_eq!(a.relevant(), b.relevant());
    assert_eq!(b.relevant(), c.relevant());
    assert_eq!(a.total_predictions(), c.total_predictions());
    assert_eq!(a.relevant_head(), c.relevant_head());

    // The serving facade actually exercised the read-through path once per
    // item and tallied every outcome.
    let stats = via_serving.service().stats();
    assert_eq!(stats.read_throughs + stats.unservable, items.len() as u64);
    assert_eq!(stats.outcomes.total(), items.len() as u64);
}
