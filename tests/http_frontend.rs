//! Network-frontend integration: concurrent clients drive `POST
//! /v1/infer` over loopback while the model registry publishes, swaps,
//! and rolls back underneath — the acceptance gate for the HTTP edge.
//!
//! Invariants pinned here:
//! * zero 5xx across a full publish → activate → rollback cycle
//!   (hot swap never fails a request);
//! * the `snapshot_version` echoed in responses is monotone per
//!   connection while only publishes happen (swaps move forward);
//! * after a rollback with `SwapPolicy::Invalidate`, cached answers from
//!   the withdrawn snapshot are recomputed, not served;
//! * malformed requests map to 4xx — never a panic, hang, or 5xx.

use graphex_serving::{KvStore, ModelRegistry, ServingApi, SwapPolicy};
use graphex_server::{HttpClient, Json, ServerConfig, ServerHandle};
use graphex_suite::{tiny_dataset, tiny_model};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-http-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Fixture {
    registry: Arc<ModelRegistry>,
    server: ServerHandle,
    api: Arc<ServingApi>,
    /// (title, leaf) pool for request traffic.
    titles: Vec<(String, u32)>,
    root: std::path::PathBuf,
}

impl Fixture {
    fn boot(name: &str, workers: usize, policy: SwapPolicy) -> Self {
        let ds = tiny_dataset(0xE46E);
        let model = tiny_model(&ds);
        let root = tempdir(name);
        let registry = Arc::new(ModelRegistry::open(&root).unwrap());
        registry.publish(&model, "v1").unwrap();
        let api = Arc::new(
            ServingApi::with_watch(registry.watch().unwrap(), Arc::new(KvStore::new()), 10)
                .swap_policy(policy),
        );
        let server = graphex_server::start(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers,
                queue_depth: 64,
                max_body_bytes: 1 << 16,
                deadline: None, // zero-5xx gate must not race a timer
                keep_alive_timeout: Duration::from_secs(5),
                trace: Default::default(),
                history: Default::default(),
            },
            Arc::clone(&api),
        )
        .unwrap();
        let titles: Vec<(String, u32)> = ds
            .marketplace
            .items
            .iter()
            .take(64)
            .map(|i| (i.title.clone(), i.leaf.0))
            .collect();
        Self { registry, server, api, titles, root }
    }

    fn finish(self) {
        self.server.shutdown();
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn infer_body(title: &str, leaf: u32, id: u64) -> String {
    Json::obj(vec![
        ("title", Json::str(title)),
        ("leaf", Json::uint(u64::from(leaf))),
        ("k", Json::uint(5)),
        ("id", Json::uint(id)),
    ])
    .render()
}

/// The tentpole acceptance test: N concurrent keep-alive clients, two
/// live publishes and one rollback underneath, zero 5xx anywhere.
#[test]
fn hot_swap_and_rollback_under_concurrent_load_zero_5xx() {
    let clients = 6usize;
    let fixture = Fixture::boot("swap", clients, SwapPolicy::Invalidate);
    let addr = fixture.server.addr();
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..clients)
        .map(|t| {
            let titles = fixture.titles.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut versions_seen = Vec::new();
                let mut requests = 0u64;
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let index = (t + round as usize) % titles.len();
                    let (title, leaf) = &titles[index];
                    // Overlapping id space across threads: mixes store
                    // hits, read-throughs, and coalesced answers. One
                    // title per id: another title would be a revision.
                    let id = index as u64;
                    let response = if round % 7 == 0 {
                        // Periodically exercise the batch envelope too.
                        let body = format!(
                            r#"{{"requests":[{},{}]}}"#,
                            infer_body(title, *leaf, id),
                            infer_body(title, *leaf, id + 1000)
                        );
                        client.post_json("/v1/infer", &body).unwrap()
                    } else {
                        client.post_json("/v1/infer", &infer_body(title, *leaf, id)).unwrap()
                    };
                    assert!(
                        response.status < 500,
                        "thread {t} round {round}: got 5xx {}: {}",
                        response.status,
                        response.text()
                    );
                    assert_eq!(response.status, 200, "{}", response.text());
                    // Keep-alive pinning is bounded (MAX_KEEPALIVE_REQUESTS):
                    // the server announces `Connection: close`; honour it.
                    if response.header("Connection") == Some("close") {
                        client = HttpClient::connect(addr).unwrap();
                    }
                    let body = graphex_server::json::parse(&response.text()).unwrap();
                    let (version, source) = match body.get("responses") {
                        // Batch envelope: the top-level field is the
                        // currently-serving snapshot.
                        Some(_) => (
                            body.get("snapshot_version").unwrap().as_u64().unwrap(),
                            "envelope".to_string(),
                        ),
                        None => (
                            body.get("snapshot_version").unwrap().as_u64().unwrap(),
                            body.get("source").unwrap().as_str().unwrap().to_string(),
                        ),
                    };
                    versions_seen.push((version, source));
                    requests += 1;
                }
                (requests, versions_seen)
            })
        })
        .collect();

    // Two hot swaps while traffic is flowing.
    std::thread::sleep(Duration::from_millis(100));
    let model = tiny_model(&tiny_dataset(0xE46E));
    fixture.registry.publish(&model, "v2").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    fixture.registry.publish(&model, "v3").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut total_requests = 0u64;
    for worker in workers {
        let (requests, versions) = worker.join().unwrap();
        assert!(requests > 0, "every client made progress");
        total_requests += requests;
        // While only publishes happen, the *producing* version a
        // connection observes may only move forward — except coalesced
        // answers, which are attributed to a leader that may have begun
        // computing before this connection's previous request.
        let monotone: Vec<u64> = versions
            .iter()
            .filter(|(_, source)| source != "coalesced")
            .map(|(v, _)| *v)
            .collect();
        for pair in monotone.windows(2) {
            assert!(pair[0] <= pair[1], "snapshot_version went backwards: {pair:?}");
        }
        assert!(
            versions.iter().all(|(v, _)| (1..=3).contains(v)),
            "unknown version in {versions:?}"
        );
    }

    let stats = fixture.api.stats();
    assert_eq!(stats.snapshot_version, 3);
    assert_eq!(stats.model_swaps, 2);
    assert_eq!(
        stats.outcomes.total(),
        stats.store_hits
            + stats.read_throughs
            + stats.coalesced
            + stats.direct
            + stats.unservable,
        "every request is accounted for exactly once"
    );
    assert_eq!(fixture.server.metrics().server_errors(), 0, "zero 5xx through two hot swaps");

    // Rollback (3 → 2) under a fresh request wave: still zero 5xx, and
    // the invalidate policy recomputes answers cached by snapshot 3.
    let invalidated_before = stats.invalidated;
    fixture.registry.rollback().unwrap();
    let mut client = HttpClient::connect(addr).unwrap();
    for (i, (title, leaf)) in fixture.titles.iter().take(24).enumerate() {
        let response = client.post_json("/v1/infer", &infer_body(title, *leaf, i as u64)).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let body = graphex_server::json::parse(&response.text()).unwrap();
        assert_eq!(body.get("snapshot_version").unwrap().as_u64(), Some(2));
    }
    let stats = fixture.api.stats();
    assert_eq!(stats.snapshot_version, 2, "rollback swapped the serving model");
    assert_eq!(stats.model_swaps, 3);
    assert!(
        stats.invalidated > invalidated_before,
        "rollback must invalidate answers cached by the withdrawn snapshot"
    );
    assert_eq!(fixture.server.metrics().server_errors(), 0);
    drop(client);
    assert!(total_requests >= 100, "meaningful concurrency: {total_requests} requests");
    fixture.finish();
}

/// Malformed traffic: wrong shapes map to 400/404/405/413 and the server
/// keeps serving — never a panic, never a 5xx, never a hang.
#[test]
fn malformed_requests_never_panic_or_5xx() {
    let fixture = Fixture::boot("malformed", 2, SwapPolicy::Serve);
    let addr = fixture.server.addr();

    let post_cases: &[(&str, u16)] = &[
        ("{not json", 400),
        ("", 400),
        ("[1,2,3]", 400),                                  // valid JSON, wrong shape
        (r#"{"title":"x"}"#, 400),                         // missing leaf
        (r#"{"title":"x","leaf":"one"}"#, 400),            // non-integer leaf
        (r#"{"title":"x","leaf":4294967296}"#, 400),       // leaf > u32
        (r#"{"title":"x","leaf":1,"alignment":"bogus"}"#, 400),
        (r#"{"requests":{}}"#, 400),
        (r#"{"title":"\ud800","leaf":1}"#, 400),           // lone surrogate
    ];
    for (body, expected) in post_cases {
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client.post_json("/v1/infer", body).unwrap();
        assert_eq!(response.status, *expected, "body {body:?} → {}", response.text());
    }

    // Framing a client library would never send: a `Content-Length` that
    // is not plain digits, or two that disagree, is a 400 — the body is
    // never guessed at. Two that agree are one.
    let body = r#"{"title":"x","leaf":1}"#;
    let framing_cases: &[(String, u16)] = &[
        (format!("Content-Length: +{}", body.len()), 400),
        (format!("Content-Length: {} {}", body.len(), body.len()), 400),
        ("Content-Length: 0x16".into(), 400),
        (format!("Content-Length: {}\r\nContent-Length: {}", body.len(), body.len() - 1), 400),
        (format!("Content-Length: {}\r\ncontent-length: 0{}", body.len(), body.len()), 200),
    ];
    for (headers, expected) in framing_cases {
        use std::io::{Read as _, Write as _};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let request =
            format!("POST /v1/infer HTTP/1.1\r\nConnection: close\r\n{headers}\r\n\r\n{body}");
        raw.write_all(request.as_bytes()).unwrap();
        // A refusal closes with the body unread, which may reset the
        // connection behind the reply: what was read is what counts.
        let mut reply = String::new();
        let _ = raw.read_to_string(&mut reply);
        assert!(reply.starts_with(&format!("HTTP/1.1 {expected} ")), "{headers:?} → {reply}");
    }

    // Unknown path → 404; wrong method → 405; oversized body → 413.
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/v2/wrong").unwrap().status, 404);
    assert_eq!(client.get("/v1/infer").unwrap().status, 405);
    let mut client = HttpClient::connect(addr).unwrap();
    let big = format!(r#"{{"title":"{}","leaf":1}}"#, "x".repeat(1 << 17));
    assert_eq!(client.post_json("/v1/infer", &big).unwrap().status, 413);

    // After all of that, the server still answers healthily and has
    // recorded zero 5xx.
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    let (title, leaf) = &fixture.titles[0];
    let ok = client.post_json("/v1/infer", &infer_body(title, *leaf, 7)).unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(fixture.server.metrics().server_errors(), 0);
    drop(client);
    fixture.finish();
}

/// `/statusz` and `/metrics` agree with each other and with the counters
/// the api reports.
#[test]
fn statusz_and_metrics_are_consistent() {
    let fixture = Fixture::boot("statusz", 2, SwapPolicy::Serve);
    let addr = fixture.server.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let (title, leaf) = &fixture.titles[0];
    for id in 0..5u64 {
        assert_eq!(
            client.post_json("/v1/infer", &infer_body(title, *leaf, id % 2)).unwrap().status,
            200
        );
    }
    let statusz = graphex_server::json::parse(&client.get("/statusz").unwrap().text()).unwrap();
    let stats = fixture.api.stats();
    assert_eq!(statusz.get("store_hits").unwrap().as_u64(), Some(stats.store_hits));
    assert_eq!(statusz.get("read_throughs").unwrap().as_u64(), Some(stats.read_throughs));
    assert_eq!(statusz.get("snapshot_version").unwrap().as_u64(), Some(1));
    for key in ["in_flight", "shed", "deadline_exceeded"] {
        assert!(statusz.get(key).and_then(Json::as_u64).is_some(), "statusz lacks {key}");
    }
    assert_eq!(statusz.get("latency").and_then(|l| l.get("count")).and_then(Json::as_u64), Some(5));
    let recorded = statusz.get("trace").and_then(|t| t.get("recorded")).and_then(Json::as_u64);
    assert!(recorded.is_some_and(|n| n > 0), "statusz trace block recorded nothing");

    let metrics = client.get("/metrics").unwrap().text();
    assert!(metrics.contains(&format!(
        "graphex_serve_source_total{{source=\"store_hit\"}} {}",
        stats.store_hits
    )));
    assert!(metrics.contains("graphex_request_duration_seconds_count 5"));
    assert!(metrics.contains("graphex_model_snapshot_version 1"));
    drop(client);
    fixture.finish();
}

/// The single server, the fleet server and the router stand on one edge
/// (`server/src/edge.rs`), so they must agree on everything
/// connection-shaped: the `(method, path) → (status, Allow)` table, a
/// `queue_wait` span on a connection's first traced request, and a
/// shutdown that does not wait out idle keep-alive peers.
#[test]
fn three_frontends_share_one_edge() {
    use graphex_server::{start_router, RouterConfig, ShardMap};
    use graphex_serving::{FleetConfig, TenantFleet};

    let model = tiny_model(&tiny_dataset(0xE46E));
    // Idle peers must be woken by shutdown, not timed out.
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 5,
        keep_alive_timeout: Duration::from_secs(60),
        ..Default::default()
    };
    let api = Arc::new(ServingApi::new(Arc::new(model.clone()), Arc::new(KvStore::new()), 10));
    let single = graphex_server::start(config.clone(), api).unwrap();
    let fleet_root = tempdir("parity-fleet");
    let fleet = TenantFleet::open(&fleet_root, FleetConfig::default()).unwrap();
    fleet.publish_model("default", &model, "seed").unwrap();
    let fleet = graphex_server::start_fleet(config, Arc::new(fleet)).unwrap();
    let router = start_router(
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            workers: 5,
            keep_alive_timeout: Duration::from_secs(60),
            ..Default::default()
        },
        ShardMap::from_backends(vec![single.addr().to_string()]).unwrap(),
    )
    .unwrap();

    // (method, path, answer on a server, answer on the router). The
    // router has no overlay or tenant routes, so those paths are unknown
    // to it; everything else is answered identically.
    type Answer = (u16, Option<&'static str>);
    const POST_ONLY: Answer = (405, Some("POST"));
    const GET_ONLY: Answer = (405, Some("GET"));
    const UNKNOWN: Answer = (404, None);
    let table: &[(&str, &str, Answer, Answer)] = &[
        ("GET", "/healthz", (200, None), (200, None)),
        ("POST", "/healthz", GET_ONLY, GET_ONLY),
        ("POST", "/statusz", GET_ONLY, GET_ONLY),
        ("POST", "/metrics", GET_ONLY, GET_ONLY),
        ("POST", "/debug/traces", GET_ONLY, GET_ONLY),
        ("POST", "/debug/history", GET_ONLY, GET_ONLY),
        ("GET", "/v1/infer", POST_ONLY, POST_ONLY),
        ("GET", "/nope", UNKNOWN, UNKNOWN),
        ("POST", "/v2/infer", UNKNOWN, UNKNOWN),
        ("GET", "/v1/upsert", POST_ONLY, UNKNOWN),
        ("POST", "/v1/overlay/journal", GET_ONLY, UNKNOWN),
        ("GET", "/v1/overlay/drain", POST_ONLY, UNKNOWN),
        ("GET", "/v1/t/acme/infer", POST_ONLY, UNKNOWN),
        ("POST", "/v1/t/acme/overlay/journal", GET_ONLY, UNKNOWN),
    ];
    let frontends = [("single", single.addr()), ("fleet", fleet.addr()), ("router", router.addr())];
    for (name, addr) in frontends {
        let mut client = HttpClient::connect(addr).unwrap();
        for (method, path, on_server, on_router) in table {
            let response = match *method {
                "GET" => client.get(path),
                _ => client.post_json(path, "{}"),
            }
            .unwrap();
            let expected = if name == "router" { on_router } else { on_server };
            assert_eq!(
                (response.status, response.header("allow")),
                *expected,
                "{name}: {method} {path}"
            );
        }
    }

    // A fresh connection's first infer carries its accept-queue wait as a
    // span — on the router exactly as on the backend behind it.
    for (name, addr) in [("single", single.addr()), ("router", router.addr())] {
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client.post_json("/v1/infer", r#"{"title":"x","leaf":1}"#).unwrap();
        assert_eq!(response.status, 200, "{name}: {}", response.text());
        let traces = client.get("/debug/traces?limit=1").unwrap().text();
        let traces = graphex_server::json::parse(&traces).unwrap();
        let newest = &traces.get("traces").unwrap().as_arr().unwrap()[0];
        let spans = newest.get("spans").unwrap().as_arr().unwrap();
        assert!(
            spans.iter().any(|s| s.get("stage").unwrap().as_str() == Some("queue_wait")),
            "{name}: no queue_wait span in {spans:?}"
        );
    }

    // Four idle keep-alive peers per frontend, 60 s timeouts: shutdown
    // must wake them rather than wait. The router goes first — its
    // backend is still up.
    let mut idle = Vec::new();
    for (_, addr) in frontends {
        for _ in 0..4 {
            let mut client = HttpClient::connect(addr).unwrap();
            assert_eq!(client.get("/healthz").unwrap().status, 200);
            idle.push(client);
        }
    }
    fn timed(shutdown: impl FnOnce()) -> Duration {
        let began = std::time::Instant::now();
        shutdown();
        began.elapsed()
    }
    for (name, took) in [
        ("router", timed(|| router.shutdown())),
        ("single", timed(|| single.shutdown())),
        ("fleet", timed(|| fleet.shutdown())),
    ] {
        assert!(took < Duration::from_millis(250), "{name} shutdown took {took:?}");
    }
    drop(idle);
    std::fs::remove_dir_all(&fleet_root).ok();
}
