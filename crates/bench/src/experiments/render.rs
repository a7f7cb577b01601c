//! Renderers: one function per paper table/figure, each producing the same
//! rows/series the paper reports, from a set of [`Study`]s.

use super::{percentile_threshold, Study, MODEL_ORDER};
use crate::tables::{fmt_bytes, fmt_pct, fmt_ratio, render};
use graphex_core::Scratch;
use graphex_eval::judge::RelevanceJudge;
use graphex_eval::metrics::{exclusive_relevant_head, fig4_rows, precision_recall_vs, venn_counts};
use graphex_eval::framework_capabilities;
use graphex_serving::{BatchPipeline, KvStore, ServeSource, ServingApi};
use std::sync::Arc;

/// Table I: capability matrix of the framework families.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = framework_capabilities()
        .into_iter()
        .map(|r| {
            vec![
                r.framework.to_string(),
                r.feasible_latency.symbol().into(),
                r.click_debiasing.symbol().into(),
                r.survives_re_dedup.symbol().into(),
                r.full_targeting.symbol().into(),
                r.head_focus.symbol().into(),
            ]
        })
        .collect();
    format!(
        "Table I — framework capabilities (yes / - / ?)\n\n{}",
        render(
            &["Framework", "Latency OK", "Click debias", "Survives RE dedup", "100% targeting", "Head focus"],
            &rows,
        )
    )
}

/// Table II: dataset details per category.
pub fn table2(studies: &[Study]) -> String {
    let rows: Vec<Vec<String>> = studies
        .iter()
        .map(|s| {
            let searched = s.ds.keyphrase_records().len();
            vec![
                s.name.clone(),
                s.ds.marketplace.items.len().to_string(),
                searched.to_string(),
                s.graphex_model.num_keyphrases().to_string(),
                s.graphex_threshold.to_string(),
            ]
        })
        .collect();
    format!(
        "Table II — category datasets (synthetic; paper scales ÷1000)\n\n{}",
        render(&["MetaCat", "# Items", "# Keyphrases", "# GraphEx Keyphrases", "curation threshold"], &rows)
    )
}

/// Figure 2: distribution of click data — items vs number of associated
/// queries, on the largest category.
pub fn fig2(study: &Study) -> String {
    let stats = study.ds.train_log.click_stats();
    let hist = &stats.queries_per_item_histogram;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut six_plus = 0u32;
    for (k, &count) in hist.iter().enumerate().skip(1) {
        if k <= 5 {
            rows.push(vec![k.to_string(), count.to_string()]);
        } else {
            six_plus += count;
        }
    }
    rows.push(vec!["6+".into(), six_plus.to_string()]);
    format!(
        "Figure 2 — click-data distribution ({})\n\n\
         items total: {}   items with clicks: {} ({:.1}% coverage; paper: ~4%)\n\
         clicked items with exactly 1 query: {} (paper: ~90%)\n\n{}",
        study.name,
        stats.num_items,
        stats.items_with_clicks,
        stats.coverage * 100.0,
        fmt_pct(stats.single_query_share),
        render(&["# queries per item", "# items"], &rows)
    )
}

/// Figure 4: average relevant head/tail and irrelevant keyphrases per item.
pub fn fig4(studies: &[Study]) -> String {
    let mut out = String::from("Figure 4 — avg keyphrases per item (irrelevant / relevant-tail / relevant-head)\n");
    for study in studies {
        let rows: Vec<Vec<String>> = fig4_rows(&study.evaluation)
            .into_iter()
            .map(|r| {
                vec![
                    r.model,
                    format!("{:.2}", r.avg_irrelevant),
                    format!("{:.2}", r.avg_relevant_tail),
                    format!("{:.2}", r.avg_relevant_head),
                    format!("{:.2}", r.avg_total),
                ]
            })
            .collect();
        out.push_str(&format!(
            "\n[{}]\n{}",
            study.name,
            render(&["Model", "irrelevant", "rel tail", "rel head", "total"], &rows)
        ));
    }
    out
}

/// Table III: RP / HP / RRR / RHR (RRR/RHR w.r.t. GraphEx).
pub fn table3(studies: &[Study]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for name in MODEL_ORDER {
        let mut row = vec![name.to_string()];
        for study in studies {
            let m = study.evaluation.model(name).expect("model evaluated");
            row.push(fmt_pct(m.rp()));
        }
        for study in studies {
            let m = study.evaluation.model(name).expect("model evaluated");
            row.push(fmt_pct(m.hp()));
        }
        for study in studies {
            row.push(fmt_ratio(study.evaluation.rrr(name, "GraphEx")));
        }
        for study in studies {
            row.push(fmt_ratio(study.evaluation.rhr(name, "GraphEx")));
        }
        rows.push(row);
    }
    let mut header: Vec<String> = vec!["Models".into()];
    for metric in ["RP", "HP", "RRR", "RHR"] {
        for study in studies {
            header.push(format!("{metric} {}", study.name));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    format!("Table III — RP, HP, RRR, RHR (RRR/RHR relative to GraphEx)\n\n{}", render(&header_refs, &rows))
}

/// Table IV: GraphEx's exclusive relevant-head diversity relative to every
/// other model (values > 1 mean GraphEx recommends more exclusive relevant
/// head keyphrases).
pub fn table4(studies: &[Study]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for name in MODEL_ORDER.iter().filter(|&&n| n != "GraphEx") {
        let mut row = vec![name.to_string()];
        for study in studies {
            let ex = exclusive_relevant_head(&study.evaluation);
            let get = |model: &str| ex.iter().find(|(n, _)| n == model).map(|&(_, v)| v).unwrap_or(0.0);
            let graphex = get("GraphEx");
            let other = get(name);
            // Show the ratio plus the raw per-item averages so degenerate
            // denominators stay interpretable.
            row.push(if other == 0.0 {
                format!("all ({graphex:.3} vs 0)")
            } else {
                format!("{:.2}x ({graphex:.3} vs {other:.3})", graphex / other)
            });
        }
        rows.push(row);
    }
    let mut header = vec!["Models".to_string()];
    header.extend(studies.iter().map(|s| s.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    format!(
        "Table IV — GraphEx exclusive relevant-head keyphrases relative to each model\n\
         (per-item averages in parentheses: GraphEx vs model)\n\n{}",
        render(&header_refs, &rows)
    )
}

/// Figure 5: per-model unique vs shared prediction counts (the Venn regions).
pub fn fig5(study: &Study) -> String {
    let rows: Vec<Vec<String>> = venn_counts(&study.evaluation)
        .into_iter()
        .map(|(name, unique, shared)| {
            vec![name, unique.to_string(), shared.to_string(), (unique + shared).to_string()]
        })
        .collect();
    format!(
        "Figure 5 — recall-source overlap ({}): unique vs shared predictions\n\n{}",
        study.name,
        render(&["Model", "unique", "shared", "total"], &rows)
    )
}

/// Table V: precision/recall relative to GraphEx, RE as ground truth.
pub fn table5(studies: &[Study]) -> String {
    let mut out = String::from(
        "Table V — relative precision/recall vs GraphEx (RE recommendations as ground truth)\n",
    );
    for study in studies {
        let graphex = precision_recall_vs(&study.evaluation, "GraphEx", "RE");
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut precision_row = vec!["Precision".to_string()];
        let mut recall_row = vec!["Recall".to_string()];
        let models = ["fastText", "Graphite", "SL-emb", "SL-query"];
        for m in models {
            let pr = precision_recall_vs(&study.evaluation, m, "RE");
            precision_row.push(if graphex.precision > 0.0 {
                fmt_ratio(pr.precision / graphex.precision)
            } else {
                "n/a".into()
            });
            recall_row.push(if graphex.recall > 0.0 {
                fmt_ratio(pr.recall / graphex.recall)
            } else {
                "n/a".into()
            });
        }
        rows.push(precision_row);
        rows.push(recall_row);
        out.push_str(&format!(
            "\n[{}] (GraphEx absolute: P={:.4} R={:.4})\n{}",
            study.name,
            graphex.precision,
            graphex.recall,
            render(&["Metrics", "fastText", "Graphite", "SL-emb", "SL-query"], &rows)
        ));
    }
    out
}

/// Table VI: alignment-function ablation — RP of WMR / JAC / LTA.
///
/// Ranked with a *binding* budget (k = 10): the alignment function only
/// changes the output set through the truncation, so a budget larger than
/// the candidate pool would show identical RPs (at eBay scale the candidate
/// pool dwarfs the 40-cap; at simulation scale k = 10 restores the same
/// regime).
pub fn table6(studies: &[Study]) -> String {
    use graphex_core::Alignment;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for study in studies {
        let judge = RelevanceJudge::new(&study.ds);
        let mut row = vec![study.name.clone()];
        for alignment in [Alignment::Wmr, Alignment::Jac, Alignment::Lta] {
            let mut scratch = Scratch::new();
            let mut relevant = 0usize;
            let mut total = 0usize;
            for &id in &study.test_item_ids {
                let item = &study.ds.marketplace.items[id as usize];
                let request = graphex_core::InferRequest::new(&item.title, item.leaf)
                    .k(10)
                    .alignment(alignment)
                    .resolve_texts(true);
                let response = study.graphex_model.infer_request(&request, &mut scratch);
                for text in &response.texts {
                    total += 1;
                    if judge.judge(item, text) {
                        relevant += 1;
                    }
                }
            }
            row.push(if total == 0 { "n/a".into() } else { fmt_pct(relevant as f64 / total as f64) });
        }
        rows.push(row);
    }
    format!(
        "Table VI — relevant proportion (RP) by alignment function in GraphEx\n\n{}",
        render(&["Category", "WMR", "JAC", "LTA"], &rows)
    )
}

/// Table VII: data-curation ablation — two search-count thresholds (the
/// paper's 90 vs 180), exclusive relevant / relevant-head percentages.
pub fn table7(study: &Study) -> String {
    let low = percentile_threshold(&study.ds, 0.45);
    let high = (low * 2).max(low + 1); // the paper's pair differs by 2×
    let model_low = super::build_graphex(&study.ds, low);
    let model_high = super::build_graphex(&study.ds, high);
    let judge = RelevanceJudge::new(&study.ds);
    let head = graphex_eval::HeadThreshold::from_dataset(&study.ds);

    let mut scratch = Scratch::new();
    let mut identical = 0usize;
    let mut same_relevant = 0usize;
    let mut same_relevant_head = 0usize;
    // exclusive prediction tallies: (total, relevant, relevant head)
    let mut ex_low = (0usize, 0usize, 0usize);
    let mut ex_high = (0usize, 0usize, 0usize);

    let items = &study.test_item_ids;
    for &id in items {
        let item = &study.ds.marketplace.items[id as usize];
        let texts = |model: &graphex_core::GraphExModel, scratch: &mut Scratch| -> Vec<String> {
            let request =
                graphex_core::InferRequest::new(&item.title, item.leaf).k(20).resolve_texts(true);
            model.infer_request(&request, scratch).texts
        };
        let a = texts(&model_low, &mut scratch);
        let b = texts(&model_high, &mut scratch);
        let sa: std::collections::BTreeSet<&String> = a.iter().collect();
        let sb: std::collections::BTreeSet<&String> = b.iter().collect();
        if sa == sb {
            identical += 1;
            continue;
        }
        let rel = |texts: &[String]| -> std::collections::BTreeSet<String> {
            texts.iter().filter(|t| judge.judge(item, t)).cloned().collect()
        };
        let (ra, rb) = (rel(&a), rel(&b));
        if ra == rb {
            same_relevant += 1;
        }
        let heads = |set: &std::collections::BTreeSet<String>| -> std::collections::BTreeSet<String> {
            set.iter().filter(|t| head.is_head(study.ds.eval_search_count(t))).cloned().collect()
        };
        if heads(&ra) == heads(&rb) {
            same_relevant_head += 1;
        }
        for t in sa.difference(&sb) {
            ex_low.0 += 1;
            if judge.judge(item, t) {
                ex_low.1 += 1;
                if head.is_head(study.ds.eval_search_count(t)) {
                    ex_low.2 += 1;
                }
            }
        }
        for t in sb.difference(&sa) {
            ex_high.0 += 1;
            if judge.judge(item, t) {
                ex_high.1 += 1;
                if head.is_head(study.ds.eval_search_count(t)) {
                    ex_high.2 += 1;
                }
            }
        }
    }

    let pct = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let rows = vec![
        vec![
            low.to_string(),
            fmt_pct(pct(ex_low.1, ex_low.0.max(1))),
            fmt_pct(pct(ex_low.2, ex_low.0.max(1))),
        ],
        vec![
            high.to_string(),
            fmt_pct(pct(ex_high.1, ex_high.0.max(1))),
            fmt_pct(pct(ex_high.2, ex_high.0.max(1))),
        ],
    ];
    format!(
        "Table VII — curation threshold ablation ({}; thresholds {} vs {})\n\n\
         identical recommendation sets: {}\n\
         same relevant sets (of differing): {}\n\
         same relevant-head sets (of differing): {}\n\n{}",
        study.name,
        low,
        high,
        fmt_pct(pct(identical, items.len())),
        fmt_pct(pct(same_relevant, items.len().saturating_sub(identical))),
        fmt_pct(pct(same_relevant_head, items.len().saturating_sub(identical))),
        render(&["Search Count Threshold", "% Relevant (exclusive)", "% Relevant Head (exclusive)"], &rows)
    )
}

/// Figure 6 (a+b) and the Sec. IV-G training-time comparison.
pub fn fig6(studies: &[Study]) -> String {
    let mut latency_rows: Vec<Vec<String>> = Vec::new();
    for name in ["fastText", "Graphite", "GraphEx"] {
        let mut row = vec![name.to_string()];
        for study in studies {
            let lat = study.latencies.iter().find(|(n, _)| n == name).map(|(_, d)| *d).unwrap_or_default();
            row.push(format!("{:.3} ms", lat.as_secs_f64() * 1e3));
        }
        latency_rows.push(row);
    }
    let mut size_rows: Vec<Vec<String>> = Vec::new();
    for name in ["fastText", "Graphite", "GraphEx"] {
        let mut row = vec![name.to_string()];
        for study in studies {
            let sz = study.sizes.iter().find(|(n, _)| n == name).map(|&(_, s)| s).unwrap_or(0);
            row.push(fmt_bytes(sz));
        }
        size_rows.push(row);
    }
    let mut train_rows: Vec<Vec<String>> = Vec::new();
    for name in ["fastText", "Graphite", "GraphEx"] {
        let mut row = vec![name.to_string()];
        for study in studies {
            let t = study
                .construction_times
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| *d)
                .unwrap_or_default();
            row.push(format!("{:.2} s", t.as_secs_f64()));
        }
        train_rows.push(row);
    }
    let mut header = vec!["Model".to_string()];
    header.extend(studies.iter().map(|s| s.name.clone()));
    let href: Vec<&str> = header.iter().map(String::as_str).collect();
    format!(
        "Figure 6a — amortized per-record inference latency\n\n{}\n\
         Figure 6b — model sizes\n\n{}\
         (GraphEx: its serialized snapshot. Graphite: estimated heap, of which its token\n\
         vocabulary is now exact — `Vocab::heap_bytes` is the capacities of its three\n\
         buffers, no longer an estimate of two boxed copies per string — so that row\n\
         differs from runs made before the vocabulary was flattened.)\n\n\
         Sec. IV-G — construction/training time\n\n{}",
        render(&href, &latency_rows),
        render(&href, &size_rows),
        render(&href, &train_rows)
    )
}

/// Sec. IV-H: batch + NRT serving demo with a consistency check. NRT is
/// the serving API's read-through: a request whose title the store holds
/// no answer for is computed and written back.
pub fn serving_demo(study: &Study) -> String {
    let model = Arc::new(study.graphex_model.clone());
    let batch_store = KvStore::new();
    let pipeline = BatchPipeline::new(&model, &batch_store, 20, 0);

    // Full batch over (up to) 50k items.
    let items: Vec<graphex_serving::batch::BatchItem> = study
        .ds
        .marketplace
        .items
        .iter()
        .take(50_000)
        .map(|i| graphex_serving::batch::BatchItem { id: i.id, title: i.title.clone(), leaf: i.leaf })
        .collect();
    let report = pipeline.run_full(&items);
    let throughput = if report.elapsed_ms == 0 {
        f64::INFINITY
    } else {
        report.items_processed as f64 / (report.elapsed_ms as f64 / 1000.0)
    };

    // NRT over a sample of the same items, read through on an empty store
    // with the batch pass's k; then check both paths agree.
    let api = ServingApi::new(model, Arc::new(KvStore::new()), 20);
    let mut consistent = 0usize;
    let mut compared = 0usize;
    for item in items.iter().take(500) {
        let served = api.serve(u64::from(item.id), &item.title, item.leaf);
        match batch_store.get(u64::from(item.id)) {
            Some(batch) => {
                compared += 1;
                if batch.keyphrases == served.keyphrases {
                    consistent += 1;
                }
            }
            None if served.source == ServeSource::None => {}
            None => compared += 1,
        }
    }
    let stats = api.stats();

    format!(
        "Sec. IV-H — serving architecture demo ({})\n\n\
         batch: {} items in {} ms → {:.0} items/s ({} with recommendations, {} keyphrases)\n\
         extrapolation to the paper's 200M items at this rate: {:.1} h (paper: 1.5 h on 70 cores)\n\
         NRT: {} requests read through, {} unservable\n\
         batch/NRT consistency: {}/{} items identical\n",
        study.name,
        report.items_processed,
        report.elapsed_ms,
        throughput,
        report.items_with_recommendations,
        report.total_keyphrases,
        200_000_000.0 / throughput.max(1.0) / 3600.0,
        stats.read_throughs,
        stats.unservable,
        consistent,
        compared,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_marketsim::CategorySpec;

    fn quick_studies() -> Vec<Study> {
        let mut spec = CategorySpec::tiny(0x71);
        spec.name = "QCAT".into();
        vec![super::super::run_study(spec, 25)]
    }

    #[test]
    fn all_renderers_produce_output() {
        let studies = quick_studies();
        assert!(table1().contains("GraphEx"));
        assert!(table2(&studies).contains("QCAT"));
        assert!(fig2(&studies[0]).contains("queries per item"));
        assert!(fig4(&studies).contains("rel head"));
        assert!(table3(&studies).contains("RRR"));
        assert!(table4(&studies).contains("x"));
        assert!(fig5(&studies[0]).contains("unique"));
        assert!(table5(&studies).contains("Precision"));
        assert!(table6(&studies).contains("LTA"));
        assert!(table7(&studies[0]).contains("Threshold"));
        assert!(fig6(&studies).contains("ms"));
        let demo = serving_demo(&studies[0]);
        assert!(demo.contains("batch/NRT consistency"));
        // Consistency must be perfect: same model, same items.
        let line = demo.lines().find(|l| l.contains("consistency")).unwrap();
        let nums: Vec<usize> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(nums[0], nums[1], "batch and NRT disagree: {line}");
    }

    #[test]
    fn graphex_rrr_is_one_against_itself() {
        let studies = quick_studies();
        let t3 = table3(&studies);
        let graphex_line = t3.lines().find(|l| l.starts_with("GraphEx")).unwrap();
        assert!(graphex_line.contains("1.00"), "{graphex_line}");
    }
}
