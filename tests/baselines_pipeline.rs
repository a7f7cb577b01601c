//! Integration across baselines + core: all six models trained on one
//! simulated category behave per their paper-documented contracts.

use graphex_baselines::fasttext::FastTextConfig;
use graphex_baselines::{
    FastTextLike, GraphExRecommender, Graphite, ItemRef, Recommender, RulesEngine, SlEmb, SlQuery,
};
use graphex_suite::{tiny_dataset, tiny_model};

fn all_models(ds: &graphex_marketsim::CategoryDataset) -> Vec<Box<dyn Recommender>> {
    vec![
        Box::new(FastTextLike::train(
            ds,
            FastTextConfig {
                epochs: 10,
                ..Default::default()
            },
        )),
        Box::new(SlEmb::train(ds, 25, 0.05)),
        Box::new(SlQuery::train(ds, 0.2)),
        Box::new(Graphite::train(ds, 512)),
        Box::new(RulesEngine::train(ds, 1)),
        Box::new(GraphExRecommender::new(tiny_model(ds))),
    ]
}

#[test]
fn every_model_produces_output_for_clicked_items() {
    let ds = tiny_dataset(0xB1);
    let models = all_models(&ds);
    // A clicked item with enough history that even the co-click models work.
    let item_id = ds
        .train_log
        .item_clicks
        .iter()
        .position(|a| a.len() >= 2)
        .expect("clicked item") as u32;
    let item = &ds.marketplace.items[item_id as usize];
    let item_ref = ItemRef::known(item.id, &item.title, item.leaf);
    for model in &models {
        let recs = model.recommend(&item_ref, 20);
        assert!(
            !recs.is_empty(),
            "{} produced nothing for a well-clicked item",
            model.name()
        );
        assert!(recs.len() <= 20, "{} exceeded k", model.name());
        // Scores are non-increasing.
        for w in recs.windows(2) {
            assert!(w[0].score >= w[1].score, "{} unsorted", model.name());
        }
    }
}

#[test]
fn cold_start_contract_matches_paper_table1() {
    // RE and SL-query cannot serve new items; fastText, Graphite, SL-emb
    // and GraphEx can (cold-start capability, paper Sec. II).
    let ds = tiny_dataset(0xB2);
    let models = all_models(&ds);
    let template = &ds.marketplace.items[10];
    let cold = ItemRef::cold(&template.title, template.leaf);
    for model in &models {
        let recs = model.recommend(&cold, 20);
        match model.name() {
            "RE" | "SL-query" => {
                assert!(!model.cold_start_capable());
                assert!(recs.is_empty(), "{} served a cold item", model.name());
            }
            _ => {
                assert!(model.cold_start_capable());
                assert!(!recs.is_empty(), "{} failed on a cold item", model.name());
            }
        }
    }
}

#[test]
fn model_size_ordering_matches_figure6b() {
    // fastText's dense matrices dwarf GraphEx's integer CSR model.
    let ds = tiny_dataset(0xB3);
    let models = all_models(&ds);
    let size = |name: &str| {
        models
            .iter()
            .find(|m| m.name() == name)
            .map(|m| m.size_bytes())
            .unwrap_or(0)
    };
    assert!(
        size("fastText") > 3 * size("GraphEx"),
        "fastText {} should dwarf GraphEx {}",
        size("fastText"),
        size("GraphEx")
    );
}

#[test]
fn graphex_recommends_unclicked_head_queries() {
    // The de-biasing claim: GraphEx can recommend a head query that has
    // *zero* clicks for the item (MNAR blind spot of click-trained models).
    let ds = tiny_dataset(0xB4);
    let graphex = GraphExRecommender::new(tiny_model(&ds));
    let oracle = ds.oracle();
    let mut found = false;
    for item in ds.test_items(80, 9) {
        let clicked: Vec<&str> = ds.train_log.item_clicks[item.id as usize]
            .iter()
            .map(|&(q, _)| ds.queries[q as usize].text.as_str())
            .collect();
        for rec in graphex.recommend(&ItemRef::known(item.id, &item.title, item.leaf), 10) {
            if !clicked.contains(&rec.text.as_str()) && oracle.is_relevant(item, &rec.text) {
                found = true;
                break;
            }
        }
        if found {
            break;
        }
    }
    assert!(
        found,
        "GraphEx never expanded beyond the click associations"
    );
}

#[test]
fn click_trained_models_cannot_leave_the_click_vocabulary() {
    // The structural limitation GraphEx avoids: every fastText/Graphite/RE
    // prediction is a query someone already clicked.
    let ds = tiny_dataset(0xB5);
    let models = all_models(&ds);
    let clicked: std::collections::BTreeSet<&str> = ds
        .train_log
        .query_clicks
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(q, _)| ds.queries[q].text.as_str())
        .collect();
    for item in ds.test_items(30, 5) {
        let item_ref = ItemRef::known(item.id, &item.title, item.leaf);
        for model in &models {
            if !matches!(model.name(), "fastText" | "Graphite" | "RE") {
                continue;
            }
            for rec in model.recommend(&item_ref, 20) {
                assert!(
                    clicked.contains(rec.text.as_str()),
                    "{} predicted outside the click vocabulary: {}",
                    model.name(),
                    rec.text
                );
            }
        }
    }
}
