//! Prometheus exposition conformance (the PR-9 satellite gate): every
//! `/metrics` surface — single server (overlay attached), tenant fleet,
//! and the scatter-gather router — renders
//!
//! * exactly one `# TYPE` line per metric family,
//! * no duplicate series (name + label set appears once per scrape),
//! * every series under a declared family (histogram `_bucket`/`_sum`/
//!   `_count` suffixes resolve to their base family),
//! * parseable sample values on every line,
//!
//! and counters (plus histogram cumulative series) are monotone across
//! consecutive scrapes with traffic in between.

use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};
use graphex_serving::{FleetConfig, KvStore, OverlayStore, ServingApi, TenantFleet};
use graphex_server::{start_router, HttpClient, RouterConfig, ServerConfig, ShardMap};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One parsed scrape: family kinds plus every series' value.
struct Scrape {
    families: BTreeMap<String, String>,
    series: BTreeMap<String, f64>,
}

/// Parses an exposition and asserts the per-scrape conformance rules.
fn check_exposition(text: &str, context: &str) -> Scrape {
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut series: BTreeMap<String, f64> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_else(|| panic!("{context}:{lineno}: bare # TYPE"));
            let kind = parts.next().unwrap_or_else(|| panic!("{context}:{lineno}: TYPE {name} has no kind"));
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "{context}:{lineno}: unknown kind {kind:?}"
            );
            assert!(
                families.insert(name.to_string(), kind.to_string()).is_none(),
                "{context}:{lineno}: duplicate # TYPE for {name}"
            );
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "{context}:{lineno}: unexpected comment {line:?} (only # TYPE is emitted)"
        );
        let (key, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("{context}:{lineno}: no sample value in {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "{context}:{lineno}: unparseable sample value {value:?}"
        );
        assert!(
            series.insert(key.to_string(), value.parse().unwrap()).is_none(),
            "{context}:{lineno}: duplicate series {key}"
        );
        // The series must belong to a declared family; histogram
        // sub-series resolve through their suffix.
        let name = key.split('{').next().unwrap();
        let declared = families.contains_key(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| families.get(base).map(String::as_str) == Some("histogram"))
            });
        assert!(declared, "{context}:{lineno}: series {name} has no # TYPE family");
    }
    assert!(!families.is_empty(), "{context}: no families rendered");
    Scrape { families, series }
}

/// Counters — and histogram cumulative sub-series — never move backwards
/// between scrapes.
fn check_monotone(before: &Scrape, after: &Scrape, context: &str) {
    for (key, &was) in &before.series {
        let name = key.split('{').next().unwrap();
        let cumulative = before.families.get(name).map(String::as_str) == Some("counter")
            || ["_bucket", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix).is_some_and(|base| {
                    before.families.get(base).map(String::as_str) == Some("histogram")
                })
            });
        if !cumulative {
            continue;
        }
        let now = *after
            .series
            .get(key)
            .unwrap_or_else(|| panic!("{context}: series {key} vanished between scrapes"));
        assert!(now >= was, "{context}: counter {key} moved backwards ({was} -> {now})");
    }
}

fn scrape(client: &mut HttpClient, context: &str) -> Scrape {
    let response = client.get("/metrics").unwrap();
    assert_eq!(response.status, 200, "{context}: {}", response.text());
    check_exposition(&response.text(), context)
}

fn drive_infer(client: &mut HttpClient, path: &str, title: &str, leaf: u32, n: usize) {
    for _ in 0..n {
        let body = format!(r#"{{"title":"{title}","leaf":{leaf},"k":5}}"#);
        let response = client.post_json(path, &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }
}

#[test]
fn single_server_with_overlay_exposition_is_conformant() {
    let ds = graphex_suite::tiny_dataset(0x9201);
    let model = graphex_suite::tiny_model(&ds);
    let api = Arc::new(
        ServingApi::new(Arc::new(model), Arc::new(KvStore::new()), 10)
            .with_overlay(Arc::new(OverlayStore::new())),
    );
    let server = graphex_server::start(
        ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
        api,
    )
    .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (title, leaf) = {
        let item = &ds.marketplace.items[0];
        (item.title.clone(), item.leaf.0)
    };
    drive_infer(&mut client, "/v1/infer", &title, leaf, 8);
    let ack = client
        .post_json("/v1/upsert", r#"{"text":"prom conformance phrase","leaf":77,"search":40,"recall":4}"#)
        .unwrap();
    assert_eq!(ack.status, 200, "{}", ack.text());

    let before = scrape(&mut client, "single");
    // The mode-specific families are all present in one scrape: HTTP,
    // serving, overlay, and trace.
    for family in [
        "graphex_http_requests_total",
        "graphex_serve_outcome_total",
        "graphex_overlay_depth",
        "graphex_overlay_apply_micros_total",
        "graphex_stage_latency_seconds",
        "graphex_traces_recorded_total",
    ] {
        assert!(before.families.contains_key(family), "single scrape lacks {family}");
    }

    drive_infer(&mut client, "/v1/infer", &title, leaf, 8);
    // A second accepted upsert moves the pair the mean apply time is
    // read from: one more batch, and no less time inside `apply`.
    let ack = client
        .post_json("/v1/upsert", r#"{"text":"prom conformance sequel","leaf":77,"search":41,"recall":4}"#)
        .unwrap();
    assert_eq!(ack.status, 200, "{}", ack.text());
    let after = scrape(&mut client, "single");
    check_monotone(&before, &after, "single");
    let moved = |name: &str| after.series[name] - before.series[name];
    assert_eq!(moved("graphex_overlay_upserts_total"), 1.0);
    assert!(after.series["graphex_overlay_apply_micros_total"] > 0.0, "two applies take time");
    server.shutdown();
}

#[test]
fn fleet_exposition_is_conformant() {
    let root =
        std::env::temp_dir().join(format!("graphex-prom-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fleet = Arc::new(TenantFleet::open(&root, FleetConfig::default()).unwrap());
    for tenant in ["alpha", "beta"] {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let model = GraphExBuilder::new(config)
            .add_records((0..6u32).map(|i| {
                KeyphraseRecord::new(
                    format!("{tenant} widget edition{i}"),
                    LeafId(i % 2),
                    100 + i,
                    10,
                )
            }))
            .build()
            .unwrap();
        fleet.publish_model(tenant, &model, "v1").unwrap();
    }
    let server = graphex_server::start_fleet(
        ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
        fleet,
    )
    .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for tenant in ["alpha", "beta"] {
        drive_infer(
            &mut client,
            &format!("/v1/t/{tenant}/infer"),
            &format!("{tenant} widget edition0"),
            0,
            6,
        );
    }
    let before = scrape(&mut client, "fleet");
    for family in
        ["graphex_tenant_resident", "graphex_tenant_serve_outcome_total", "graphex_stage_latency_seconds"]
    {
        assert!(before.families.contains_key(family), "fleet scrape lacks {family}");
    }

    drive_infer(&mut client, "/v1/t/alpha/infer", "alpha widget edition0", 0, 6);
    let after = scrape(&mut client, "fleet");
    check_monotone(&before, &after, "fleet");
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn router_exposition_is_conformant() {
    let ds = graphex_suite::tiny_dataset(0x9203);
    let model = graphex_suite::tiny_model(&ds);
    let api = Arc::new(ServingApi::new(Arc::new(model), Arc::new(KvStore::new()), 10));
    let backend = graphex_server::start(
        ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() },
        api,
    )
    .unwrap();
    let map = ShardMap::from_backends(vec![backend.addr().to_string()]).unwrap();
    let router =
        start_router(RouterConfig { addr: "127.0.0.1:0".into(), ..Default::default() }, map)
            .unwrap();
    let mut client = HttpClient::connect(router.addr()).unwrap();

    let (title, leaf) = {
        let item = &ds.marketplace.items[0];
        (item.title.clone(), item.leaf.0)
    };
    drive_infer(&mut client, "/v1/infer", &title, leaf, 8);
    let before = scrape(&mut client, "router");
    for family in [
        "graphex_router_requests_total",
        "graphex_router_backend_healthy",
        "graphex_stage_latency_seconds",
    ] {
        assert!(before.families.contains_key(family), "router scrape lacks {family}");
    }

    drive_infer(&mut client, "/v1/infer", &title, leaf, 8);
    let after = scrape(&mut client, "router");
    check_monotone(&before, &after, "router");

    // Backend scrapes stay conformant when serving forwarded traffic.
    let mut backend_client = HttpClient::connect(backend.addr()).unwrap();
    scrape(&mut backend_client, "router-backend");

    router.shutdown();
    backend.shutdown();
}
