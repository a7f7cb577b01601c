//! Telemetry-history gates (the PR-10 CI gate): the ring must tell the
//! truth across the events that restructure the serving backend.
//!
//! 1. **History under hot-swap** — a registry-backed server samples
//!    under traffic, hot-swaps to a republished snapshot, and samples
//!    again: ticks stay contiguous, cumulative series stay monotone
//!    (counters never reset on swap), the final `serve/requests` equals
//!    the exact request count (no loss, no double-count), and
//!    `model/snapshot_version` / `model/swaps` step at the swap.
//! 2. **History under eviction** — a resident-cap-1 fleet evicts and
//!    re-admits tenants under per-tenant traffic: the per-tenant series
//!    survive eviction (the fleet folds evicted tenants' lifetime
//!    counters), stay monotone, and land on the exact totals.
//! 3. **Off switch** — a server booted with history disabled exposes no
//!    ring: `/debug/history` is 404 and the statusz block is `null`.
//!
//! The first two also read the ring over HTTP, as a dashboard does:
//! `/debug/history` (JSON, per-tenant `?series=` filter in fleet mode)
//! and the `/statusz` sparklines.

use graphex_core::{GraphExBuilder, GraphExConfig, GraphExModel, KeyphraseRecord, LeafId};
use graphex_server::{HistoryConfig, HttpClient, Json, ServerConfig};
use graphex_serving::{FleetConfig, KvStore, ModelRegistry, ServingApi, TenantFleet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-history-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn widget_model(tag: &str) -> GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    GraphExBuilder::new(config)
        .add_records(
            (0..6u32)
                .map(|i| KeyphraseRecord::new(format!("{tag} widget {i}"), LeafId(1), 40 + i, 5)),
        )
        .build()
        .unwrap()
}

/// Server config with an effectively-manual sampler: the interval is an
/// hour, so every ring sample in these tests comes from an explicit
/// `sample_history_now()` — deterministic sample counts. No request
/// deadline: these gates check counter truth, not latency, and a loaded
/// CI machine must not turn a slow accept into a 503.
fn manual_history_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        history: HistoryConfig {
            interval: Duration::from_secs(3600),
            ..Default::default()
        },
        deadline: None,
        keep_alive_timeout: Duration::from_secs(60),
        ..Default::default()
    }
}

/// Takes one history sample that counts every request `client` has been
/// answered. The edge tallies a response after writing it, so a peer that
/// has its answer may be one ahead of the counters — but the worker that
/// wrote it tallies before it reads from the connection again: one more
/// exchange on `client` orders the tally before the sample.
fn sample_after_tally(server: &graphex_server::ServerHandle, client: &mut HttpClient) {
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);
    server.sample_history_now();
}

/// `GET /debug/history` is JSON holding the samples taken so far and an
/// `http/requests` series, and `/statusz` carries their sparklines.
fn assert_history_over_http(client: &mut HttpClient) {
    let response = client.get("/debug/history").expect("debug/history");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.header("content-type"), Some("application/json"));
    let body = graphex_server::json::parse(&response.text()).unwrap();
    assert!(
        body.get("samples").and_then(Json::as_u64).unwrap_or(0) > 0,
        "debug/history holds no samples: {}",
        response.text()
    );
    assert!(
        body.get("series")
            .and_then(|s| s.get("http/requests"))
            .is_some(),
        "debug/history has no http/requests series: {}",
        response.text()
    );
    let status = client.get("/statusz").expect("statusz");
    let parsed = graphex_server::json::parse(&status.text()).unwrap();
    let sparklines = parsed
        .get("history")
        .and_then(|h| h.get("sparklines"))
        .and_then(Json::as_obj);
    assert!(
        sparklines.is_some_and(|s| !s.is_empty()),
        "statusz history block has no sparklines: {}",
        status.text()
    );
}

fn infer(client: &mut HttpClient, path: &str, title: &str) {
    let body = format!(r#"{{"title":{title:?},"leaf":1,"k":3}}"#);
    let response = client.post_json(path, &body).expect("infer request");
    assert_eq!(response.status, 200, "{}", response.text());
}

/// Ticks must be contiguous and increasing: a gap means a sample was
/// lost, a repeat means one was double-recorded.
fn assert_contiguous_ticks(history: &graphex_server::MetricsHistory) {
    let samples = history.samples(usize::MAX);
    assert!(!samples.is_empty());
    for pair in samples.windows(2) {
        assert_eq!(pair[1].tick, pair[0].tick + 1, "ticks must be contiguous");
    }
}

fn assert_monotone(series: &[f64], key: &str) {
    for pair in series.windows(2) {
        assert!(pair[1] >= pair[0], "{key} regressed: {series:?}");
    }
}

#[test]
fn history_survives_registry_hot_swap_without_losing_or_double_counting() {
    let root = tempdir("swap");
    let registry = Arc::new(ModelRegistry::open(&root).unwrap());
    registry.publish(&widget_model("alpha"), "v1").unwrap();
    let api = Arc::new(ServingApi::with_watch(
        registry.watch().unwrap(),
        Arc::new(KvStore::new()),
        10,
    ));
    let server = graphex_server::start(manual_history_config(), Arc::clone(&api)).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Phase 1: traffic on snapshot v1, then a forced sample.
    for i in 0..4 {
        infer(&mut client, "/v1/infer", &format!("alpha widget {i}"));
    }
    sample_after_tally(&server, &mut client);

    // Hot-swap: publishing v2 activates it under the live server (the
    // watch observes the new snapshot on its next resolution).
    let meta = registry.publish(&widget_model("alpha"), "v2").unwrap();
    assert_eq!(meta.version, 2);

    // Phase 2: more traffic on v2, then two more samples.
    for i in 0..3 {
        infer(&mut client, "/v1/infer", &format!("alpha widget {i}"));
    }
    sample_after_tally(&server, &mut client);
    server.sample_history_now();
    assert_history_over_http(&mut client);

    let history = server.history().expect("history enabled").clone();
    assert_contiguous_ticks(&history);
    assert_eq!(history.recorded(), 3);

    // Cumulative serve counter: monotone across the swap, exact total —
    // a swap that reset the counter would show 4 → 3, a double-count
    // 4 → 11.
    let requests = history.series("serve/requests", usize::MAX);
    assert_eq!(requests.len(), 3);
    assert_monotone(&requests, "serve/requests");
    assert_eq!(requests[0], 4.0);
    assert_eq!(*requests.last().unwrap(), 7.0);

    // The swap itself is visible in the ring.
    let versions = history.series("model/snapshot_version", usize::MAX);
    assert_eq!(versions[0], 1.0, "phase 1 served snapshot v1");
    assert_eq!(*versions.last().unwrap(), 2.0, "phase 2 served snapshot v2");
    let swaps = history.series("model/swaps", usize::MAX);
    assert_eq!(swaps[0], 0.0);
    assert_eq!(*swaps.last().unwrap(), 1.0);

    // The HTTP layer saw all 7 requests too.
    let http = history.series("http/requests", usize::MAX);
    assert_eq!(*http.last().unwrap(), 7.0);

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn per_tenant_history_survives_eviction_and_readmission() {
    let root = tempdir("evict");
    let fleet = Arc::new(
        TenantFleet::open(
            &root,
            FleetConfig {
                resident_cap: 1,
                ..FleetConfig::default()
            },
        )
        .unwrap(),
    );
    fleet.publish_model("a", &widget_model("a"), "v1").unwrap();
    fleet.publish_model("b", &widget_model("b"), "v1").unwrap();
    let server = graphex_server::start_fleet(manual_history_config(), Arc::clone(&fleet)).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Phase 1: tenant a serves 3 requests (admitting a).
    for i in 0..3 {
        infer(&mut client, "/v1/t/a/infer", &format!("a widget {i}"));
    }
    sample_after_tally(&server, &mut client);

    // Phase 2: tenant b serves 2 (cap 1 → a is evicted).
    for i in 0..2 {
        infer(&mut client, "/v1/t/b/infer", &format!("b widget {i}"));
    }
    sample_after_tally(&server, &mut client);

    // Phase 3: tenant a again (re-admitted, b evicted).
    for i in 0..2 {
        infer(&mut client, "/v1/t/a/infer", &format!("a widget {i}"));
    }
    sample_after_tally(&server, &mut client);
    assert_history_over_http(&mut client);
    // `?series=` narrows the ring to one tenant's keys.
    let filtered = client
        .get("/debug/history?series=tenant/a")
        .expect("debug/history");
    assert_eq!(filtered.status, 200, "{}", filtered.text());
    let body = graphex_server::json::parse(&filtered.text()).unwrap();
    let keys: Vec<&str> = body
        .get("series")
        .and_then(Json::as_obj)
        .map(|series| series.iter().map(|(key, _)| key.as_str()).collect())
        .unwrap_or_default();
    assert!(keys.contains(&"tenant/a/serve/requests"), "{keys:?}");
    assert!(
        !keys.iter().any(|key| key.starts_with("tenant/b/")),
        "{keys:?}"
    );

    let history = server.history().expect("history enabled").clone();
    assert_contiguous_ticks(&history);
    assert_eq!(history.recorded(), 3);

    // Tenant a's cumulative counter must survive the eviction between
    // samples 1 and 3: monotone, exact final total (an eviction that
    // dropped the folded counters would show 3 → 2; a double-fold
    // 3 → 8).
    let a = history.series("tenant/a/serve/requests", usize::MAX);
    assert_eq!(a, vec![3.0, 3.0, 5.0]);
    let b = history.series("tenant/b/serve/requests", usize::MAX);
    assert_eq!(*b.last().unwrap(), 2.0);
    assert_monotone(&a, "tenant/a/serve/requests");
    assert_monotone(&b, "tenant/b/serve/requests");

    // Residency actually churned: a was resident, evicted, re-admitted.
    let resident = history.series("tenant/a/resident", usize::MAX);
    assert_eq!(
        resident,
        vec![1.0, 0.0, 1.0],
        "cap-1 fleet must evict a for b"
    );

    // Fleet-level residency never exceeds the cap in any sample.
    for sample in history.samples(usize::MAX) {
        let resident = sample.value("fleet/resident").unwrap();
        assert!(resident <= 1.0, "resident {resident} exceeds cap 1");
    }

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn disabled_history_exposes_no_surface() {
    let api = Arc::new(ServingApi::new(
        Arc::new(widget_model("solo")),
        Arc::new(KvStore::new()),
        10,
    ));
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        history: HistoryConfig {
            enabled: false,
            ..Default::default()
        },
        deadline: None,
        keep_alive_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let server = graphex_server::start(config, api).unwrap();
    assert!(server.history().is_none());
    server.sample_history_now(); // must be a no-op, not a panic

    let mut client = HttpClient::connect(server.addr()).unwrap();
    infer(&mut client, "/v1/infer", "solo widget 1");
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client.get("/debug/history").unwrap();
    assert_eq!(response.status, 404, "disabled history must 404");

    let mut client = HttpClient::connect(server.addr()).unwrap();
    let status = client.get("/statusz").unwrap();
    let parsed = graphex_server::json::parse(&status.text()).unwrap();
    assert!(
        matches!(parsed.get("history"), Some(Json::Null)),
        "statusz history block must be null when disabled: {}",
        status.text()
    );
    server.shutdown();
}
