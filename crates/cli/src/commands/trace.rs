//! `graphex trace` — fetch the flight recorder of a running server or
//! router (`GET /debug/traces`) and render each trace as an aligned
//! waterfall: one row per stage span, positioned and scaled against the
//! request's end-to-end time. `--slow` reads the slow ring instead of
//! the recent ring; router traces additionally show the per-backend
//! breakdowns the router parsed out of its sub-responses.

use crate::args::ParsedArgs;
use graphex_server::Json;
use std::fmt::Write as _;

/// Width of the waterfall bar, in characters.
const BAR_WIDTH: usize = 40;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let addr = args.require("server")?;
    let mut query = Vec::new();
    if args.switch("slow") {
        query.push("slow=1".to_string());
    }
    if let Some(min_us) = args.get("min-us") {
        query.push(format!("min_us={min_us}"));
    }
    query.push(format!("limit={}", args.get_num::<usize>("limit", 8)?));
    let path = format!("/debug/traces?{}", query.join("&"));

    let mut client =
        graphex_server::HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client.get(&path).map_err(|e| format!("GET {path}: {e}"))?;
    if response.status == 404 {
        return Err(format!("tracing is disabled on {addr}"));
    }
    if response.status != 200 {
        return Err(format!("GET {path}: HTTP {}", response.status));
    }
    let doc = graphex_server::json::parse(&response.text())
        .map_err(|e| format!("debug/traces payload: {e}"))?;
    Ok(render(addr, &doc))
}

fn render(addr: &str, doc: &Json) -> String {
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder on {addr}: ring {}  recorded {:.0}  slow {:.0} (threshold {:.0}\u{b5}s)",
        doc.get("ring").and_then(Json::as_str).unwrap_or("recent"),
        num("recorded"),
        num("slow"),
        num("slow_threshold_us"),
    );
    let Some(traces) = doc.get("traces").and_then(Json::as_arr) else {
        let _ = writeln!(out, "(malformed payload: no traces array)");
        return out;
    };
    if traces.is_empty() {
        let _ = writeln!(out, "(no traces on this ring yet)");
        return out;
    }
    for trace in traces {
        let _ = writeln!(out);
        render_one(&mut out, trace);
    }
    out
}

/// One trace: a header line, the stage waterfall, and (router traces)
/// each backend's embedded breakdown scaled against the same axis.
fn render_one(out: &mut String, trace: &Json) {
    let total_us = trace.get("total_us").and_then(Json::as_f64).unwrap_or(0.0);
    let _ = write!(
        out,
        "trace {}  status {}  entries {}",
        trace.get("id").and_then(Json::as_str).unwrap_or("?"),
        trace.get("status").and_then(Json::as_u64).unwrap_or(0),
        trace.get("entries").and_then(Json::as_u64).unwrap_or(0),
    );
    if let Some(tenant) = trace.get("tenant").and_then(Json::as_str) {
        let _ = write!(out, "  tenant {tenant}");
    }
    let _ = writeln!(out, "  total {total_us:.1}\u{b5}s");
    if let Some(spans) = trace.get("spans").and_then(Json::as_arr) {
        for span in spans {
            span_row(out, "  ", span, total_us);
        }
    }
    let Some(backends) = trace.get("backends").and_then(Json::as_arr) else {
        return;
    };
    for backend in backends {
        let _ = writeln!(
            out,
            "  backend shard={} {}  total {:.1}\u{b5}s",
            backend.get("shard").and_then(Json::as_u64).unwrap_or(0),
            backend.get("addr").and_then(Json::as_str).unwrap_or("?"),
            backend
                .get("total_us")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        if let Some(spans) = backend.get("spans").and_then(Json::as_arr) {
            for span in spans {
                // Backend spans are offsets from the *backend's* origin;
                // the shared axis still orders them usefully because the
                // fanout dominates the router's timeline.
                span_row(out, "    ", span, total_us);
            }
        }
    }
}

/// One aligned span row: stage, start offset, duration, waterfall bar.
fn span_row(out: &mut String, indent: &str, span: &Json, total_us: f64) {
    let stage = span.get("stage").and_then(Json::as_str).unwrap_or("?");
    let start_us = span.get("start_us").and_then(Json::as_f64).unwrap_or(0.0);
    let us = span.get("us").and_then(Json::as_f64).unwrap_or(0.0);
    let detail = span.get("detail").and_then(Json::as_u64).unwrap_or(0);
    let _ = write!(
        out,
        "{indent}{stage:<18} @{start_us:>9.1}\u{b5}s  +{us:>9.1}\u{b5}s  |{}|",
        bar(start_us, us, total_us),
    );
    if detail != 0 {
        let _ = write!(out, "  detail={detail}");
    }
    let _ = writeln!(out);
}

/// The waterfall bar: `·` padding, `#` for the span's extent (always at
/// least one cell so instantaneous spans stay visible).
fn bar(start_us: f64, us: f64, total_us: f64) -> String {
    let scale = |v: f64| {
        if total_us <= 0.0 {
            0
        } else {
            ((v / total_us) * BAR_WIDTH as f64).round() as usize
        }
    };
    let lead = scale(start_us).min(BAR_WIDTH.saturating_sub(1));
    let body = scale(us).clamp(1, BAR_WIDTH - lead);
    let mut cells = String::with_capacity(BAR_WIDTH);
    for _ in 0..lead {
        cells.push('\u{b7}');
    }
    for _ in 0..body {
        cells.push('#');
    }
    while cells.chars().count() < BAR_WIDTH {
        cells.push('\u{b7}');
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_positions_and_clamps() {
        // Span covering the whole request fills the bar.
        assert_eq!(bar(0.0, 100.0, 100.0), "#".repeat(BAR_WIDTH));
        // Zero-length spans still paint one cell.
        let b = bar(50.0, 0.0, 100.0);
        assert_eq!(b.chars().count(), BAR_WIDTH);
        assert_eq!(b.chars().filter(|&c| c == '#').count(), 1);
        // Degenerate totals never panic or divide by zero.
        assert_eq!(bar(10.0, 10.0, 0.0).chars().count(), BAR_WIDTH);
        // A span that extends past the end (clock skew) clamps in-bar.
        assert_eq!(bar(90.0, 50.0, 100.0).chars().count(), BAR_WIDTH);
    }

    #[test]
    fn renders_waterfall_with_backends() {
        let doc = graphex_server::json::parse(
            r#"{"ring":"recent","recorded":1,"slow":0,"slow_threshold_us":25000,
                "traces":[{"id":"00000000deadbeef","status":200,"entries":2,"total_us":100.0,
                  "spans":[{"stage":"parse","start_us":1.0,"us":5.0,"detail":0},
                           {"stage":"fanout","start_us":10.0,"us":80.0,"detail":1}],
                  "backends":[{"shard":1,"addr":"127.0.0.1:9","total_us":60.0,
                    "spans":[{"stage":"traversal","start_us":2.0,"us":40.0,"detail":0}]}]}]}"#,
        )
        .unwrap();
        let text = render("127.0.0.1:0", &doc);
        assert!(text.contains("trace 00000000deadbeef"), "{text}");
        assert!(text.contains("parse"), "{text}");
        assert!(text.contains("backend shard=1"), "{text}");
        assert!(text.contains("detail=1"), "{text}");
        // Every span row carries a bar of the fixed width.
        for line in text.lines().filter(|l| l.contains('|')) {
            let bar: String = line
                .chars()
                .skip_while(|&c| c != '|')
                .skip(1)
                .take_while(|&c| c != '|')
                .collect();
            assert_eq!(bar.chars().count(), BAR_WIDTH, "{line}");
        }
    }

    #[test]
    fn empty_ring_reports_cleanly() {
        let doc = graphex_server::json::parse(
            r#"{"ring":"slow","recorded":0,"slow":0,"slow_threshold_us":25000,"traces":[]}"#,
        )
        .unwrap();
        assert!(render("x", &doc).contains("no traces"));
    }
}
