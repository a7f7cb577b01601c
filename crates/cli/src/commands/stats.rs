//! `graphex stats` — model inventory: global stats plus a per-leaf table.
//! With `--server <addr>` it instead queries a running `graphex serve`
//! frontend's `/statusz` and renders the live serving counters, including
//! the admission-control gauges (shed / deadline-exceeded / in-flight).
//!
//! A comma-separated `--server a,b,c` (or `--map <shard map file>`)
//! aggregates across a backend cluster: one row per backend plus a
//! cluster rollup, with unreachable backends reported as `down` instead
//! of failing the whole command.

use super::load_model;
use crate::args::ParsedArgs;
use graphex_server::Json;
use std::fmt::Write as _;

pub fn run(args: &ParsedArgs) -> Result<String, String> {
    if args.get("map").is_some() {
        let map = super::route::map_from(args)?;
        return cluster_stats(map.backends());
    }
    if let Some(addr) = args.get("server") {
        let addrs: Vec<String> = addr
            .split(',')
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if addrs.len() > 1 {
            return cluster_stats(&addrs);
        }
        return server_stats(addr);
    }
    let model = load_model(args)?;
    let stats = model.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "alignment: {}  stemming: {}  fallback: {}",
        model.alignment(),
        model.stemming(),
        model.has_fallback()
    );
    let _ = writeln!(
        out,
        "leaves: {}  keyphrases: {}  tokens: {}  labels: {}  edges: {}  avg degree: {:.2}",
        stats.num_leaves,
        stats.num_keyphrases,
        stats.num_tokens,
        stats.total_labels,
        stats.total_edges,
        stats.avg_degree,
    );
    let _ = writeln!(
        out,
        "heap: {} bytes  serialized: {} bytes",
        stats.heap_bytes,
        model.size_bytes()
    );
    if let Some(path) = args.get("model") {
        render_buildinfo(std::path::Path::new(path), &mut out);
    }

    render_leaf_table(&model, &mut out);
    Ok(out)
}

/// If the snapshot was produced by the build pipeline, its `BUILDINFO`
/// sits next to it — surface what curation did to the corpus (the stats
/// `build_with_stats` reports in-process, persisted for tooling).
fn render_buildinfo(model_path: &std::path::Path, out: &mut String) {
    let info_path = graphex_pipeline::buildinfo_path_for(model_path);
    if !info_path.is_file() {
        return;
    }
    match graphex_pipeline::BuildManifest::load(&info_path) {
        Ok(manifest) => {
            let c = &manifest.curation;
            let _ = writeln!(
                out,
                "curation ({}): {} records in, {} parse errors → {} kept \
                 ({} below threshold, {} token bounds, {} over leaf cap, {} duplicates merged)",
                info_path.display(),
                manifest.records_in,
                manifest.parse_errors,
                c.kept,
                c.dropped_low_search,
                c.dropped_token_bounds,
                c.dropped_leaf_cap,
                c.merged_duplicates,
            );
        }
        Err(e) => {
            let _ = writeln!(out, "buildinfo: unreadable ({e})");
        }
    }
}

/// Live serving counters from a running frontend's `/statusz`.
fn server_stats(addr: &str) -> Result<String, String> {
    let mut client =
        graphex_server::HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let response = client
        .get("/statusz")
        .map_err(|e| format!("GET /statusz: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET /statusz: HTTP {}", response.status));
    }
    let stats = graphex_server::json::parse(&response.text())
        .map_err(|e| format!("statusz payload: {e}"))?;
    let num = |key: &str| stats.get(key).and_then(|v| v.as_u64()).unwrap_or(0);

    let mut out = String::new();
    let _ = writeln!(out, "server: http://{addr}");
    let _ = writeln!(
        out,
        "model: snapshot_version {}  swaps {}",
        num("snapshot_version"),
        num("model_swaps")
    );
    let _ = writeln!(
        out,
        "admission: in-flight {}  shed {}  deadline-exceeded {}  queue depth {}",
        num("in_flight"),
        num("shed"),
        num("deadline_exceeded"),
        num("queue_depth")
    );
    if let Some(latency) = stats.get("latency") {
        let q = |key: &str| latency.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "latency: {} inferences  p50 {:.0}µs  p90 {:.0}µs  p99 {:.0}µs",
            latency.get("count").and_then(|v| v.as_u64()).unwrap_or(0),
            q("p50_us"),
            q("p90_us"),
            q("p99_us"),
        );
    }
    if let Some(trace) = stats.get("trace") {
        if trace.get("enabled").and_then(|v| v.as_bool()) == Some(true) {
            let tn = |key: &str| trace.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
            let _ = writeln!(
                out,
                "tracing: recorded {}  slow {} (threshold {}µs)  — `graphex trace --server {addr}`",
                tn("recorded"),
                tn("slow"),
                tn("slow_threshold_us"),
            );
        }
    }
    let _ = writeln!(
        out,
        "serving: store hits {}  read-throughs {}  coalesced {}  direct {}  unservable {}  invalidated {}",
        num("store_hits"),
        num("read_throughs"),
        num("coalesced"),
        num("direct"),
        num("unservable"),
        num("invalidated")
    );
    if let Some(outcomes) = stats.get("outcomes") {
        let of = |key: &str| outcomes.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        let _ = writeln!(
            out,
            "outcomes: exact_leaf {}  meta_fallback {}  unknown_leaf {}  empty {}",
            of("exact_leaf"),
            of("meta_fallback"),
            of("unknown_leaf"),
            of("empty")
        );
    }
    Ok(out)
}

/// One `/statusz` fetch for the cluster table; `None` = unreachable.
fn fetch_statusz(addr: &str) -> Option<Json> {
    let mut client = graphex_server::HttpClient::connect(addr).ok()?;
    let response = client.get("/statusz").ok()?;
    if response.status != 200 {
        return None;
    }
    graphex_server::json::parse(&response.text()).ok()
}

/// Per-backend rows + a cluster rollup across a shard map. Backends that
/// cannot be reached (or answer garbage) show as `down` — an operator
/// pointing `stats` at a half-up cluster still gets the full picture.
fn cluster_stats(addrs: &[String]) -> Result<String, String> {
    const COUNTERS: [&str; 6] = [
        "in_flight",
        "shed",
        "deadline_exceeded",
        "store_hits",
        "read_throughs",
        "unservable",
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5}  {:<21} {:>6} {:>9} {:>9} {:>6} {:>9} {:>11} {:>13} {:>11}",
        "shard",
        "backend",
        "state",
        "snapshot",
        "in-flight",
        "shed",
        "deadline",
        "store-hits",
        "read-through",
        "unservable"
    );
    let mut up = 0usize;
    let mut totals = [0u64; COUNTERS.len()];
    let mut versions: Vec<u64> = Vec::new();
    for (shard, addr) in addrs.iter().enumerate() {
        match fetch_statusz(addr) {
            Some(stats) => {
                up += 1;
                let num = |key: &str| stats.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
                versions.push(num("snapshot_version"));
                let mut row = [0u64; COUNTERS.len()];
                for (slot, key) in COUNTERS.iter().enumerate() {
                    row[slot] = num(key);
                    totals[slot] += row[slot];
                }
                let _ = writeln!(
                    out,
                    "{shard:>5}  {addr:<21} {:>6} {:>9} {:>9} {:>6} {:>9} {:>11} {:>13} {:>11}",
                    "up",
                    num("snapshot_version"),
                    row[0],
                    row[1],
                    row[2],
                    row[3],
                    row[4],
                    row[5]
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{shard:>5}  {addr:<21} {:>6} {:>9} {:>9} {:>6} {:>9} {:>11} {:>13} {:>11}",
                    "down", "-", "-", "-", "-", "-", "-", "-"
                );
            }
        }
    }
    versions.sort_unstable();
    versions.dedup();
    let version_note = match versions.as_slice() {
        [] => "none".to_string(),
        [one] => one.to_string(),
        many => format!(
            "MIXED ({})",
            many.iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
    };
    let _ = writeln!(
        out,
        "cluster: {up}/{} up  snapshot {version_note}  in-flight {}  shed {}  \
         deadline-exceeded {}  store-hits {}  read-throughs {}  unservable {}",
        addrs.len(),
        totals[0],
        totals[1],
        totals[2],
        totals[3],
        totals[4],
        totals[5],
    );
    Ok(out)
}

fn render_leaf_table(model: &graphex_core::GraphExModel, out: &mut String) {
    let mut leaves: Vec<_> = model.leaf_ids().collect();
    leaves.sort_unstable();
    let _ = writeln!(
        out,
        "\n{:>10} {:>8} {:>8} {:>8} {:>10}",
        "leaf", "words", "labels", "edges", "avg deg"
    );
    for leaf in leaves {
        let g = model.leaf_graph(leaf).expect("listed leaf");
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>8} {:>8} {:>10.2}",
            leaf.0,
            g.num_words(),
            g.num_labels(),
            g.num_edges(),
            g.avg_degree(),
        );
    }
}
