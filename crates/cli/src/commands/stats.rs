//! `graphex stats` — model inventory: global stats plus a per-leaf table.
//! With `--server <addr>` it instead queries a running `graphex serve`
//! frontend's `/statusz` and renders the live serving counters, including
//! the admission-control gauges (in-flight / deadline-exceeded per serving
//! row, one block per tenant on a fleet server; connections shed with 429,
//! once for the whole server).
//!
//! A comma-separated `--server a,b,c` (or `--map <shard map file>`)
//! aggregates across a backend cluster: one row per backend plus a
//! cluster rollup, with unreachable backends reported as `down` instead
//! of failing the whole command.

use super::{fetch_statusz, load_model, num, statusz_rows};
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

/// Live serving counters from a running frontend's `/statusz`: the
/// server's own lines, then each serving row's block — a single server's
/// one row, or one per fleet tenant.
fn server_stats(addr: &str) -> Result<String, String> {
    let stats = fetch_statusz(addr)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "server: http://{addr}  queue depth {}  shed {}",
        num(&stats, "queue_depth"),
        num(&stats, "connections_shed")
    );
    if let Some(latency) = stats.get("latency") {
        let q = |key: &str| latency.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "latency: {} inferences  p50 {:.0}µs  p90 {:.0}µs  p99 {:.0}µs",
            num(latency, "count"),
            q("p50_us"),
            q("p90_us"),
            q("p99_us"),
        );
    }
    if let Some(trace) = stats.get("trace") {
        if trace.get("enabled").and_then(|v| v.as_bool()) == Some(true) {
            let _ = writeln!(
                out,
                "tracing: recorded {}  slow {} (threshold {}µs)  — `graphex trace --server {addr}`",
                num(trace, "recorded"),
                num(trace, "slow"),
                num(trace, "slow_threshold_us"),
            );
        }
    }
    // An empty fleet has no rows: the server's own lines are the answer.
    for (tenant, row) in statusz_rows(&stats, None).unwrap_or_default() {
        let indent = match tenant {
            Some(name) => {
                let _ = writeln!(out, "tenant {name}:");
                "  "
            }
            None => "",
        };
        render_row(row, indent, &mut out);
    }
    Ok(out)
}

/// One serving row's counters.
fn render_row(row: &Json, indent: &str, out: &mut String) {
    let field = |key: &str| num(row, key);
    let _ = writeln!(
        out,
        "{indent}model: snapshot_version {}  swaps {}",
        field("snapshot_version"),
        field("model_swaps")
    );
    let _ = writeln!(
        out,
        "{indent}admission: in-flight {}  deadline-exceeded {}",
        field("in_flight"),
        field("deadline_exceeded"),
    );
    let _ = writeln!(
        out,
        "{indent}serving: store hits {}  read-throughs {}  coalesced {}  direct {}  unservable {}  invalidated {}",
        field("store_hits"),
        field("read_throughs"),
        field("coalesced"),
        field("direct"),
        field("unservable"),
        field("invalidated")
    );
    if let Some(outcomes) = row.get("outcomes") {
        let of = |key: &str| num(outcomes, key);
        let _ = writeln!(
            out,
            "{indent}outcomes: exact_leaf {}  meta_fallback {}  unknown_leaf {}  empty {}",
            of("exact_leaf"),
            of("meta_fallback"),
            of("unknown_leaf"),
            of("empty")
        );
    }
}

/// Per-backend rows + a cluster rollup across a shard map. Backends that
/// cannot be reached (or answer garbage) show as `down` — an operator
/// pointing `stats` at a half-up cluster still gets the full picture.
fn cluster_stats(addrs: &[String]) -> Result<String, String> {
    const COUNTERS: [&str; 6] = [
        "in_flight",
        "connections_shed",
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
            Ok(stats) => {
                up += 1;
                let num = |key: &str| num(&stats, key);
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
            Err(_) => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};
    use graphex_serving::{FleetConfig, TenantFleet};
    use std::sync::Arc;

    fn args(s: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Against a fleet server, `stats --server` prints each tenant's row
    /// with the reader a single server's row goes through, and `overlay
    /// status` / `tenant stats` read the same rows.
    #[test]
    fn server_stats_prints_one_block_per_fleet_tenant() {
        let root =
            std::env::temp_dir().join(format!("graphex-cli-stats-fleet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let fleet = TenantFleet::open(&root, FleetConfig::default()).unwrap();
        for (tenant, tag) in [("alpha", 1u32), ("beta", 2)] {
            let mut config = GraphExConfig::default();
            config.curation.min_search_count = 0;
            let model = GraphExBuilder::new(config)
                .add_records((0..4u32).map(|i| {
                    KeyphraseRecord::new(format!("tenant{tag} widget v{i}"), LeafId(1), 100, 10)
                }))
                .build()
                .unwrap();
            fleet.publish_model(tenant, &model, "seed").unwrap();
        }
        let config = graphex_server::ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..Default::default()
        };
        let server = graphex_server::start_fleet(config, Arc::new(fleet)).unwrap();
        let addr = server.addr().to_string();
        let mut client = graphex_server::HttpClient::connect(&addr).unwrap();
        for _ in 0..2 {
            let body = r#"{"title":"tenant1 widget v0","leaf":1,"id":5}"#;
            let reply = client.post_json("/v1/t/alpha/infer", body).unwrap();
            assert_eq!(reply.status, 200, "{}", reply.text());
        }
        drop(client);

        let out = run(&args(&["--server", &addr])).unwrap();
        let alpha = out.split("tenant alpha:\n").nth(1).expect("alpha block");
        assert!(
            alpha.starts_with("  model: snapshot_version 1  swaps 0\n"),
            "{out}"
        );
        assert!(
            alpha.contains("  serving: store hits 1  read-throughs 1  "),
            "{out}"
        );
        assert!(alpha.contains("  outcomes: exact_leaf 2  "), "{out}");
        let beta = out.split("tenant beta:\n").nth(1).expect("beta block");
        assert!(beta.contains("  outcomes: exact_leaf 0  "), "{out}");

        let overlay = super::super::overlay::run(&[
            "status".into(),
            "--server".into(),
            addr.clone(),
            "--name".into(),
            "beta".into(),
        ])
        .unwrap();
        assert_eq!(overlay, "tenant beta: overlay not enabled\n");
        let table = super::super::tenant::run(&[
            "stats".into(),
            "--server".into(),
            addr.clone(),
            "--name".into(),
            "alpha".into(),
        ])
        .unwrap();
        assert!(table.contains("\nalpha\ttrue\t1\t"), "{table}");
        assert!(table.contains("\t2\t1\t0\n"), "{table}");

        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}
