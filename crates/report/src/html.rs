//! Single-page HTML assembly. One `<style>` block, inline SVG charts,
//! no scripts, no external references of any kind — the self-containment
//! test below greps the rendered page for anything that would reach off
//! the file.

use crate::bench::{group_runs, BenchDoc};
use crate::evalrun::EvalSection;
use crate::svg;
use graphex_server::json::Json;
use std::fmt::Write as _;

/// Maximum trace records rendered as waterfalls (the flight recorder
/// ring can hold hundreds; the page shows the most recent few).
const MAX_WATERFALLS: usize = 8;

/// Everything the page is compiled from. `history` and `traces` are the
/// raw `/debug/history` and `/debug/traces` payloads when a live (or
/// in-process) server was available.
#[derive(Debug, Default)]
pub struct ReportInputs {
    /// Human-readable generation stamp (the CLI passes a date).
    pub generated: String,
    /// Where the live sections came from (server address or "in-process").
    pub source: String,
    /// Where the benchmark documents were looked for (`--bench-dir`).
    pub bench_dir: String,
    pub benches: Vec<BenchDoc>,
    pub history: Option<Json>,
    pub traces: Option<Json>,
    pub eval: Option<EvalSection>,
}

/// HTML-escapes text content and attribute values.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders the full self-contained page.
pub fn render(inputs: &ReportInputs) -> String {
    let mut page = String::with_capacity(64 * 1024);
    page.push_str("<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    page.push_str("<title>graphex observability report</title>\n");
    page.push_str(STYLE);
    page.push_str("</head><body>\n<h1>graphex observability report</h1>\n");
    let _ = writeln!(
        page,
        "<p class=\"meta\">generated {} &middot; live telemetry: {}</p>",
        escape(&inputs.generated),
        escape(if inputs.source.is_empty() { "none" } else { &inputs.source }),
    );
    history_section(&mut page, inputs.history.as_ref());
    traces_section(&mut page, inputs.traces.as_ref());
    eval_section(&mut page, inputs.eval.as_ref());
    bench_section(&mut page, &inputs.bench_dir, &inputs.benches);
    page.push_str("<p class=\"meta\">self-contained page: inline CSS + SVG, no scripts, \
                   no external assets.</p>\n</body></html>\n");
    page
}

const STYLE: &str = "<style>\n\
    body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:60em;\
         padding:0 1em;color:#222}\n\
    h1{font-size:1.5em} h2{font-size:1.2em;border-bottom:1px solid #ddd;\
         padding-bottom:.2em;margin-top:1.6em} h3{font-size:1em;margin-bottom:.3em}\n\
    table{border-collapse:collapse;margin:.5em 0}\n\
    th,td{border:1px solid #ddd;padding:.25em .6em;text-align:left;\
         font-variant-numeric:tabular-nums}\n\
    th{background:#f6f8fa}\n\
    .meta{color:#666;font-size:.9em}\n\
    .desc{color:#444;max-width:52em}\n\
    code{background:#f6f8fa;padding:.1em .3em;border-radius:3px}\n\
    svg.spark,svg.bar{vertical-align:middle}\n\
    </style>\n";

/// "Live telemetry history": one sparkline row per ring series.
fn history_section(page: &mut String, history: Option<&Json>) {
    page.push_str("<h2>Telemetry history</h2>\n");
    let Some(history) = history else {
        page.push_str("<p class=\"meta\">no live server was sampled for this report.</p>\n");
        return;
    };
    let samples = history.get("samples").and_then(Json::as_u64).unwrap_or(0);
    let interval = history.get("interval_ms").and_then(Json::as_u64).unwrap_or(0);
    let recorded = history.get("recorded").and_then(Json::as_u64).unwrap_or(0);
    let _ = writeln!(
        page,
        "<p class=\"meta\">{samples} samples in window ({recorded} recorded since boot, \
         one every {interval}&thinsp;ms)</p>"
    );
    let Some(series) = history.get("series").and_then(Json::as_obj) else {
        page.push_str("<p class=\"meta\">history payload carries no series.</p>\n");
        return;
    };
    page.push_str(
        "<table><tr><th>series</th><th>trend</th><th>last</th><th>rate/s</th></tr>\n",
    );
    for (key, entry) in series {
        let points: Vec<Option<f64>> = entry
            .get("points")
            .and_then(Json::as_arr)
            .map(|arr| arr.iter().map(Json::as_f64).collect())
            .unwrap_or_default();
        let last = entry.get("last").and_then(Json::as_f64);
        let rate = entry.get("rate_per_s").and_then(Json::as_f64);
        let _ = writeln!(
            page,
            "<tr><td><code>{}</code></td><td>{}</td><td>{}</td><td>{}</td></tr>",
            escape(key),
            svg::sparkline(&points, 160, 22),
            fmt_opt(last),
            fmt_opt(rate),
        );
    }
    page.push_str("</table>\n");
}

/// "Trace waterfalls": the most recent flight-recorder records.
fn traces_section(page: &mut String, traces: Option<&Json>) {
    page.push_str("<h2>Trace waterfalls</h2>\n");
    let records = traces.and_then(|t| t.get("traces")).and_then(Json::as_arr).unwrap_or(&[]);
    if records.is_empty() {
        page.push_str("<p class=\"meta\">no trace records were captured.</p>\n");
        return;
    }
    // The recorder returns oldest-first; show the most recent few.
    for record in records.iter().rev().take(MAX_WATERFALLS) {
        let id = record.get("id").and_then(Json::as_str).unwrap_or("?");
        let status = record.get("status").and_then(Json::as_u64).unwrap_or(0);
        let total_us = record.get("total_us").and_then(Json::as_f64).unwrap_or(0.0);
        let mut spans = span_rows("", record);
        if let Some(backends) = record.get("backends").and_then(Json::as_arr) {
            for backend in backends {
                let shard = backend.get("shard").and_then(Json::as_u64).unwrap_or(0);
                spans.extend(span_rows(&format!("shard{shard}/"), backend));
            }
        }
        let _ = writeln!(
            page,
            "<h3><code>{}</code> &middot; HTTP {status} &middot; {total_us:.0}&thinsp;&micro;s</h3>\n{}",
            escape(id),
            svg::waterfall(&spans, total_us, 640),
        );
    }
}

/// Extracts `(label, start_us, us)` rows from a record's `spans` array.
fn span_rows(prefix: &str, record: &Json) -> Vec<(String, f64, f64)> {
    record
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|span| {
            let stage = span.get("stage").and_then(Json::as_str)?;
            let start = span.get("start_us").and_then(Json::as_f64).unwrap_or(0.0);
            let us = span.get("us").and_then(Json::as_f64).unwrap_or(0.0);
            Some((format!("{prefix}{stage}"), start, us))
        })
        .collect()
}

/// "Prediction quality": RP/HP plus the top-k perception metrics.
fn eval_section(page: &mut String, eval: Option<&EvalSection>) {
    page.push_str("<h2>Prediction quality</h2>\n");
    let Some(eval) = eval else {
        page.push_str("<p class=\"meta\">evaluation was skipped for this report.</p>\n");
        return;
    };
    let _ = writeln!(
        page,
        "<p class=\"meta\">judged evaluation over {} test items of {} (k = 40)</p>",
        eval.test_items,
        escape(&eval.dataset),
    );
    page.push_str(
        "<table><tr><th>model</th><th>predictions</th><th>RP</th><th>HP</th></tr>\n",
    );
    for row in &eval.rows {
        let _ = writeln!(
            page,
            "<tr><td>{}</td><td>{}</td><td>{:.3} {}</td><td>{:.3} {}</td></tr>",
            escape(&row.model),
            row.predictions,
            row.rp,
            svg::hbar(row.rp, 80, 9),
            row.hp,
            svg::hbar(row.hp, 80, 9),
        );
    }
    page.push_str("</table>\n");
    page.push_str(
        "<p class=\"desc\">Top-k perception metrics: <em>diversity</em> is the mean pairwise \
         token-Jaccard distance inside one item's list (higher = less repetitive), \
         <em>redundancy</em> the mean maximum similarity of a prediction to anything ranked \
         above it (lower is better).</p>\n\
         <table><tr><th>model</th><th>diversity</th><th>redundancy</th>\
         <th>distinct-token ratio</th></tr>\n",
    );
    for row in &eval.diversity {
        let _ = writeln!(
            page,
            "<tr><td>{}</td><td>{:.3} {}</td><td>{:.3} {}</td><td>{:.3}</td></tr>",
            escape(&row.model),
            row.diversity,
            svg::hbar(row.diversity, 80, 9),
            row.redundancy,
            svg::hbar(row.redundancy, 80, 9),
            row.distinct_token_ratio,
        );
    }
    page.push_str("</table>\n");
}

/// "Recorded benchmarks": one subsection per workload × traced × side,
/// one row per metric with its median and quartiles over the counted
/// runs; disturbed runs and runs with failed operations are named, not
/// counted.
fn bench_section(page: &mut String, bench_dir: &str, benches: &[BenchDoc]) {
    page.push_str("<h2>Recorded benchmarks</h2>\n");
    if benches.is_empty() {
        let _ = writeln!(
            page,
            "<p class=\"meta\">no benchmark documents (*.json) were found in {}.</p>",
            escape(bench_dir),
        );
        return;
    }
    for group in group_runs(benches) {
        let head = group[0];
        let (counted, left_out): (Vec<&BenchDoc>, Vec<&BenchDoc>) =
            group.iter().partition(|doc| doc.counted());
        let _ = writeln!(
            page,
            "<h3>{} <span class=\"meta\">({}{}{})</span></h3>",
            escape(&head.workload),
            if head.traced { "per-layer, --trace 1" } else { "end-to-end" },
            if head.side.is_empty() { "" } else { ", " },
            escape(&head.side),
        );
        for doc in left_out {
            let _ = writeln!(
                page,
                "<p class=\"meta\">left out: <code>{}</code> (seed {}): disturbed: {}, \
                 {} of {} operations failed</p>",
                escape(&doc.file),
                doc.seed,
                doc.disturbed,
                doc.failed,
                doc.attempted,
            );
        }
        let Some(first) = counted.first() else { continue };
        let seeds: Vec<String> = counted.iter().map(|doc| doc.seed.to_string()).collect();
        let _ = writeln!(
            page,
            "<p class=\"meta\">runs counted: {}, {}&thinsp;s each; seeds: {}</p>",
            counted.len(),
            head.seconds,
            seeds.join(", "),
        );
        page.push_str(
            "<table><tr><th>metric</th><th>runs</th><th>median</th><th>q1</th><th>q3</th>\
             <th>unit</th></tr>\n",
        );
        for (name, _, unit) in &first.metrics {
            let values: Vec<f64> = counted
                .iter()
                .filter_map(|doc| doc.metrics.iter().find(|(n, ..)| n == name).map(|m| m.1))
                .collect();
            let (q1, median, q3) = quartiles(&values);
            let _ = writeln!(
                page,
                "<tr><td><code>{}</code></td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td></tr>",
                escape(name),
                values.len(),
                fmt_sig(median),
                fmt_sig(q1),
                fmt_sig(q3),
                escape(unit),
            );
        }
        page.push_str("</table>\n");
    }
}

/// `(q1, median, q3)` of a non-empty sample, by linear interpolation over
/// the sorted values — the rule `scripts/bench_pair.sh` prints with.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let h = (sorted.len() - 1) as f64 * q;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Four significant digits, as `scripts/bench_pair.sh` prints.
fn fmt_sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return v.to_string();
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) => format!("{v:.2}"),
        None => "&ndash;".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_server::json;

    fn sample_inputs() -> ReportInputs {
        use crate::bench::tests::run;
        // Five counted pairs, one disturbed base run, one traced run.
        let mut benches = Vec::new();
        for (pair, p50) in [40.0, 10.0, 30.0, 20.0, 60.0].into_iter().enumerate() {
            benches.push(run(&format!("{pair}.base.json"), "edge_<hot>", false, false, p50));
            benches.push(run(&format!("{pair}.change.json"), "edge_<hot>", false, false, p50 / 4.0));
        }
        benches.push(run("5.base.json", "edge_<hot>", false, true, 9000.0));
        benches.push(run("trace.base.json", "edge_<hot>", true, false, 77.0));
        let history = json::parse(
            r#"{"interval_ms": 1000, "ring": 512, "recorded": 3, "samples": 3,
                "span_ms": 2000, "ticks": [1,2,3],
                "series": {"http/requests": {"points": [1, 2, 4], "last": 4,
                           "rate_per_s": 1.5},
                           "queue/depth": {"points": [null, 0, 1], "last": 1,
                           "rate_per_s": 0.5}}}"#,
        )
        .unwrap();
        let traces = json::parse(
            r#"{"traces": [{"id": "00000000deadbeef", "status": 200, "entries": 1,
                "total_us": 120.0,
                "spans": [{"stage": "parse", "start_us": 0.0, "us": 20.0, "detail": 0},
                          {"stage": "retrieve", "start_us": 20.0, "us": 90.0, "detail": 3}],
                "backends": [{"shard": 1, "addr": "127.0.0.1:1", "total_us": 80.0,
                "spans": [{"stage": "retrieve", "start_us": 5.0, "us": 70.0, "detail": 2}]}]}]}"#,
        )
        .unwrap();
        ReportInputs {
            generated: "2026-08-07".into(),
            source: "in-process".into(),
            bench_dir: "runs".into(),
            benches,
            history: Some(history),
            traces: Some(traces),
            eval: Some(crate::evalrun::run_eval(0x9E, 4)),
        }
    }

    #[test]
    fn page_embeds_every_section() {
        let page = render(&sample_inputs());
        for needle in [
            "Telemetry history",
            "http/requests",
            "queue/depth",
            "Trace waterfalls",
            "00000000deadbeef",
            "shard1/retrieve",
            "Prediction quality",
            "GraphEx",
            "redundancy",
            "Recorded benchmarks",
            "edge_&lt;hot&gt; <span class=\"meta\">(end-to-end, base)",
            "(end-to-end, change)",
            "(per-layer, --trace 1, base)",
            "runs counted: 5, 10&thinsp;s each; seeds: 7, 7, 7, 7, 7",
            // p50_us over the five counted base runs: median, q1, q3 —
            // the disturbed 9000 is named and left out.
            "<td><code>p50_us</code></td><td>5</td><td>30.00</td><td>20.00</td><td>40.00</td><td>us</td>",
            "<td><code>p50_us</code></td><td>5</td><td>7.500</td><td>5.000</td><td>10.00</td><td>us</td>",
            "left out: <code>5.base.json</code> (seed 7): disturbed: true, 0 of 400 operations failed",
            "<td><code>p50_us</code></td><td>1</td><td>77.00</td>",
        ] {
            assert!(page.contains(needle), "page missing {needle:?}");
        }
    }

    #[test]
    fn page_is_self_contained() {
        let page = render(&sample_inputs());
        // Nothing that reaches off the file: no scripts, no external
        // URLs, no asset references of any kind.
        for forbidden in
            ["http://", "https://", "<script", "src=", "href=", "@import", "url(", "<link", "<img"]
        {
            assert!(!page.contains(forbidden), "page contains forbidden {forbidden:?}");
        }
    }

    #[test]
    fn empty_inputs_still_render() {
        let page = render(&ReportInputs { bench_dir: "some/dir".into(), ..Default::default() });
        assert!(page.contains("no live server was sampled"));
        assert!(page.contains("no trace records"));
        assert!(page.contains("evaluation was skipped"));
        assert!(page.contains("no benchmark documents (*.json) were found in some/dir."));
    }

    #[test]
    fn escape_covers_html_metachars() {
        assert_eq!(escape(r#"<a href="x">&'"#), "&lt;a href=&quot;x&quot;&gt;&amp;&#39;");
    }
}
