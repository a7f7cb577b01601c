//! `graphex report` — compile every observability artifact into one
//! self-contained `report.html`: the repo benchmark's run documents
//! (`benchmark --out`, every `*.json` under `--bench-dir`), a live
//! server's `/debug/history` ring and `/debug/traces` flight
//! recorder, and a judged evaluation run (RP/HP + top-k
//! diversity). With `--server` the live sections come from a running
//! deployment; without it the command boots an in-process demo server,
//! drives traffic, and samples it — so CI produces a page with real
//! sparklines and waterfalls on every run.

use crate::args::ParsedArgs;
use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};
use graphex_report::{run_eval, BenchDoc, ReportInputs};
use graphex_server::json::Json;
use graphex_server::{HttpClient, ServerConfig};
use graphex_serving::{KvStore, OverlayStore, ServingApi};
use std::path::Path;
use std::sync::Arc;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    let out_path = args.get("out").unwrap_or("report.html").to_string();
    let bench_dir = args.get("bench-dir").unwrap_or(".").to_string();

    let mut benches = Vec::new();
    for path in graphex_report::discover_bench_files(Path::new(&bench_dir))? {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        benches.push(BenchDoc::parse(&name, &text)?);
    }

    let (history, traces, source) = if let Some(addr) = args.get("server") {
        let (history, traces) = capture_from(addr)?;
        (history, traces, addr.to_string())
    } else if args.switch("no-live") {
        (None, None, String::new())
    } else {
        let (history, traces) = capture_in_process()?;
        (history, traces, "in-process demo server".to_string())
    };

    let eval = if args.switch("no-eval") {
        None
    } else {
        Some(run_eval(args.get_num("eval-seed", 0x9E)?, args.get_num("eval-items", 12)?))
    };

    let inputs =
        ReportInputs { generated: today(), source, bench_dir, benches, history, traces, eval };
    let page = graphex_report::render(&inputs);
    std::fs::write(&out_path, &page).map_err(|e| format!("write {out_path}: {e}"))?;
    Ok(format!(
        "wrote {out_path}: {} bytes, {} bench docs, live telemetry: {}, eval: {}\n",
        page.len(),
        inputs.benches.len(),
        if inputs.history.is_some() { "captured" } else { "none" },
        if inputs.eval.is_some() { "run" } else { "skipped" },
    ))
}

/// Fetches `/debug/history` and `/debug/traces` from a running server or
/// router. A 404 (surface disabled) yields `None` for that section, not
/// an error — the rest of the report is still worth producing.
fn capture_from(addr: &str) -> Result<(Option<Json>, Option<Json>), String> {
    let mut client =
        HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut fetch = |path: &str| -> Result<Option<Json>, String> {
        let response = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
        match response.status {
            200 => graphex_server::json::parse(&response.text())
                .map(Some)
                .map_err(|e| format!("{path} payload: {e}")),
            404 => Ok(None),
            other => Err(format!("GET {path}: HTTP {other}")),
        }
    };
    let history = fetch("/debug/history")?;
    let traces = fetch("/debug/traces?limit=8")?;
    Ok((history, traces))
}

/// A small servable model (no files needed), with an overlay attached so
/// the captured history carries the `overlay/*` series too.
fn demo_api() -> Result<Arc<ServingApi>, String> {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let model = GraphExBuilder::new(config)
        .add_records((0..8u32).map(|i| {
            KeyphraseRecord::new(format!("acme widget model{i}"), LeafId(i % 2), 50 + i, 5)
        }))
        .build()
        .map_err(|e| format!("demo model: {e}"))?;
    Ok(Arc::new(
        ServingApi::new(Arc::new(model), Arc::new(KvStore::new()), 10)
            .with_overlay(Arc::new(OverlayStore::new())),
    ))
}

/// Boots the demo server on an ephemeral port, drives a few batches of
/// infer traffic with a forced history sample between batches (so the
/// sparklines have a real trajectory), captures both debug surfaces,
/// and shuts down.
fn capture_in_process() -> Result<(Option<Json>, Option<Json>), String> {
    let api = demo_api()?;
    let config = ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() };
    let server = graphex_server::start(config, api).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let io = |e: std::io::Error| format!("report client: {e}");

    let result = (|| {
        let mut client = HttpClient::connect(&addr).map_err(io)?;
        for batch in 0..6u32 {
            for i in 0..10u32 {
                let title = format!("acme widget model{}", (batch + i) % 8);
                let body =
                    format!(r#"{{"title":{:?},"leaf":{},"k":5}}"#, title, (batch + i) % 2);
                let response = client.post_json("/v1/infer", &body).map_err(io)?;
                if response.status != 200 {
                    return Err(format!("demo infer: HTTP {}", response.status));
                }
            }
            // One ring sample per batch → a multi-point trajectory.
            server.sample_history_now();
        }
        drop(client);
        capture_from(&addr)
    })();
    server.shutdown();
    result
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Gregorian).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { year + 1 } else { year };
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn today_is_plausible_iso_date() {
        let date = today();
        assert_eq!(date.len(), 10, "{date}");
        let parts: Vec<&str> = date.split('-').collect();
        assert_eq!(parts.len(), 3, "{date}");
        let year: i64 = parts[0].parse().unwrap();
        let month: u32 = parts[1].parse().unwrap();
        let day: u32 = parts[2].parse().unwrap();
        assert!((2024..3000).contains(&year), "{date}");
        assert!((1..=12).contains(&month), "{date}");
        assert!((1..=31).contains(&day), "{date}");
    }

    #[test]
    fn report_end_to_end_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("graphex-report-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("1.base.json"),
            r#"{"workload": "edge_hot", "seed": 1, "seconds": 1, "traced": false,
                "attempted": 9, "failed": 0, "disturbed": false,
                "metrics": {"p50_us": {"value": 3.5, "unit": "us"}}}"#,
        )
        .unwrap();
        let out = dir.join("report.html");
        let args = crate::args::ParsedArgs::parse(&[
            "--out".into(),
            out.to_str().unwrap().to_string(),
            "--bench-dir".into(),
            dir.to_str().unwrap().to_string(),
            "--eval-items".into(),
            "4".into(),
        ])
        .unwrap();
        let summary = run(&args).unwrap();
        assert!(summary.contains("live telemetry: captured"), "{summary}");
        let page = std::fs::read_to_string(&out).unwrap();
        // Real live sections: the in-process server's series and at
        // least one trace waterfall made it into the page.
        assert!(page.contains("http/requests"), "missing history series");
        assert!(page.contains("Trace waterfalls"));
        assert!(page.contains("edge_hot") && page.contains("3.500"), "missing bench section");
        assert!(page.contains("GraphEx"), "missing eval section");
        for forbidden in ["http://", "https://", "<script", "src="] {
            assert!(!page.contains(forbidden), "page contains {forbidden:?}");
        }

        // A document of any other shape fails the command, naming the
        // file; so does a --bench-dir that cannot be read.
        std::fs::write(dir.join("2.base.json"), r#"{"bench": "demo"}"#).unwrap();
        assert!(run(&args).unwrap_err().starts_with("2.base.json: not a benchmark document"));
        std::fs::remove_dir_all(&dir).ok();
        let err = run(&args).unwrap_err();
        assert!(err.contains("--bench-dir") && err.contains("graphex-report-cli-"), "{err}");
    }
}
