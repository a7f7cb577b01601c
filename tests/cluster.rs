//! Scale-out serving integration: per-shard snapshot emission → a local
//! backend cluster behind the scatter-gather router → the cluster-wide
//! acceptance gates.
//!
//! Invariants pinned here:
//! * **sharded ≡ monolith** — the router's responses are byte-identical
//!   to a single-process server over the unsharded model, for single and
//!   cross-shard batch envelopes alike;
//! * **zero 5xx across a rolling cluster-wide hot swap** — concurrent
//!   keep-alive clients drive the router while every backend republishes
//!   one shard at a time; afterwards the router's `/statusz` shows every
//!   backend healthy and every node's `/debug/history` carries its series;
//! * **chaos** — a misbehaving backend is ejected after K consecutive
//!   failures, fails fast while ejected (degraded `Outcome`s inside 200
//!   envelopes, never a 5xx storm), and is re-admitted by the half-open
//!   probe once it recovers;
//! * **wire fuzz** — malformed/truncated/oversized/wrong-shape backend
//!   responses degrade cleanly; malformed client traffic 400s exactly
//!   like a single backend; ids past 2^53 ride decimal strings through
//!   the scatter-gather unchanged;
//! * **gather ≡ tree merge** — entries pass through the router as the
//!   backends' bytes, and its body still parses to exactly the merge of
//!   the backends' parsed answers (batch, single, id > 2^53, degraded,
//!   traced);
//! * **framing** — a backend answer whose head the edge would refuse
//!   (two lengths, a signed length, a transfer coding beside a length,
//!   a header line past `MAX_HEADER_BYTES`, more than `MAX_HEADERS`
//!   headers) degrades that shard's entries inside a 200, and only
//!   those;
//! * **one deadline per round** — two hung shards cost an envelope
//!   `(retries + 1) × backend_timeout`, not that per shard, and the
//!   healthy shard read after them is still served. (That the scatter
//!   spawns no thread is `tests/router_threads.rs`, a process of its own.)

use graphex_core::{Engine, GraphExConfig, InferRequest};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildOutput, BuildPlan, MarketsimSource, BUILDINFO_FILE};
use graphex_server::{
    start_router, ChaosBackend, ChaosMode, ClusterConfig, HttpClient, Json, LocalCluster,
    RouterConfig, ServerConfig, ShardMap, TraceConfig, OUTCOME_BACKEND_UNAVAILABLE,
};
use graphex_serving::{KvStore, ModelRegistry, ServingApi};
use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u32 = 3;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64) -> CategorySpec {
    CategorySpec {
        name: "CLUSTER".into(),
        seed,
        num_leaves: 24,
        products_per_leaf: 8,
        num_items: 400,
        num_sessions: 2_500,
        leaf_id_base: 6_000,
    }
}

fn build_gen(corpus: &ChurnCorpus) -> BuildOutput {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    let plan = BuildPlan::new(config).jobs(2);
    build(&plan, vec![Box::new(MarketsimSource::new(corpus))]).unwrap()
}

/// A 3-shard cluster and a monolith server over the same gen-0 build.
struct Fixture {
    corpus: ChurnCorpus,
    cluster: LocalCluster,
    monolith: graphex_server::ServerHandle,
    root: PathBuf,
    monolith_root: PathBuf,
}

impl Fixture {
    fn boot(name: &str, seed: u64) -> Self {
        let corpus = ChurnCorpus::new(spec(seed), 0.05);
        let gen0 = build_gen(&corpus);

        let root = tempdir(name);
        let snapshots = gen0.emit_shards(SHARDS).unwrap();
        graphex_pipeline::publish_shards(&snapshots, &root, "gen0").unwrap();
        let roots: Vec<PathBuf> = (0..SHARDS)
            .map(|i| graphex_pipeline::shard_root(&root, i))
            .collect();
        // Trace ids are minted per process, so traced responses can never
        // be byte-identical across servers — the sharded≡monolith byte
        // gates run with tracing off on every frontend. (The trace gate
        // lives in tests/trace.rs.)
        let untraced = TraceConfig {
            enabled: false,
            ..TraceConfig::default()
        };
        let config = ClusterConfig {
            backend: ServerConfig {
                addr: "127.0.0.1:0".into(),
                trace: untraced.clone(),
                ..Default::default()
            },
            router: RouterConfig {
                addr: "127.0.0.1:0".into(),
                trace: untraced.clone(),
                ..Default::default()
            },
            ..Default::default()
        };
        let cluster = LocalCluster::boot(&roots, &config).unwrap();

        // The monolith control arm goes through its own registry so both
        // sides serve snapshot_version 1 — responses can then be compared
        // byte for byte.
        let monolith_root = tempdir(&format!("{name}-monolith"));
        let registry = ModelRegistry::open(&monolith_root).unwrap();
        registry.publish(&gen0.model, "gen0").unwrap();
        let api = Arc::new(ServingApi::with_watch(
            registry.watch().unwrap(),
            Arc::new(KvStore::new()),
            10,
        ));
        let monolith = graphex_server::start(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                trace: untraced,
                ..Default::default()
            },
            api,
        )
        .unwrap();

        Self {
            corpus,
            cluster,
            monolith,
            root,
            monolith_root,
        }
    }

    /// (title, leaf) probe pool from the corpus.
    fn probes(&self, n: usize) -> Vec<(String, u32)> {
        self.corpus
            .marketplace()
            .items
            .iter()
            .take(n)
            .map(|item| (item.title.clone(), item.leaf.0))
            .collect()
    }

    fn finish(self) {
        self.cluster.shutdown();
        self.monolith.shutdown();
        std::fs::remove_dir_all(&self.root).ok();
        std::fs::remove_dir_all(&self.monolith_root).ok();
    }
}

fn single_body(title: &str, leaf: u32) -> String {
    Json::obj(vec![
        ("title", Json::str(title)),
        ("leaf", Json::uint(u64::from(leaf))),
        ("k", Json::uint(8)),
    ])
    .render()
}

/// The tentpole gate: equality with the monolith, then zero 5xx across a
/// rolling cluster-wide hot swap under concurrent keep-alive traffic.
#[test]
fn sharded_cluster_equals_monolith_and_rolls_with_zero_5xx() {
    let mut fixture = Fixture::boot("e2e", 0xC1);
    let router_addr = fixture.cluster.router_addr();
    let monolith_addr = fixture.monolith.addr();

    // --- Gate 1: byte-identical responses, single envelopes. -----------
    let mut via_router = HttpClient::connect(router_addr).unwrap();
    let mut via_monolith = HttpClient::connect(monolith_addr).unwrap();
    let probes = fixture.probes(80);
    for (title, leaf) in &probes {
        let body = single_body(title, *leaf);
        let sharded = via_router.post_json("/v1/infer", &body).unwrap();
        let monolith = via_monolith.post_json("/v1/infer", &body).unwrap();
        assert_eq!(sharded.status, 200, "{}", sharded.text());
        assert_eq!(monolith.status, 200);
        assert_eq!(
            sharded.body,
            monolith.body,
            "sharded ≠ monolith for {title:?} (leaf {leaf}):\n  cluster:  {}\n  monolith: {}",
            sharded.text(),
            monolith.text()
        );
    }

    // --- Gate 1b: cross-shard batch envelopes merge in caller order. ---
    // Consecutive corpus items hit different residues, so each batch
    // scatters across several backends and must reassemble byte-equal.
    for window in probes.chunks(9).take(5) {
        let entries: Vec<String> = window
            .iter()
            .map(|(title, leaf)| single_body(title, *leaf))
            .collect();
        let body = format!(r#"{{"requests":[{}]}}"#, entries.join(","));
        let sharded = via_router.post_json("/v1/infer", &body).unwrap();
        let monolith = via_monolith.post_json("/v1/infer", &body).unwrap();
        assert_eq!(sharded.status, 200, "{}", sharded.text());
        assert_eq!(
            sharded.body,
            monolith.body,
            "cross-shard batch diverged:\n  cluster:  {}\n  monolith: {}",
            sharded.text(),
            monolith.text()
        );
    }
    drop(via_monolith);

    // --- Gate 2: rolling cluster-wide swap, zero 5xx. -------------------
    let stop = Arc::new(AtomicBool::new(false));
    let titles = fixture.probes(48);
    let clients = 4usize;
    let workers: Vec<_> = (0..clients)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let titles = titles.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(router_addr).unwrap();
                let mut requests = 0u64;
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let (title, leaf) = &titles[(t + round) % titles.len()];
                    let response = if round % 5 == 0 {
                        // Cross-shard batches mid-swap too.
                        let body = format!(
                            r#"{{"requests":[{},{}]}}"#,
                            single_body(title, *leaf),
                            single_body(title, leaf + 1)
                        );
                        client.post_json("/v1/infer", &body).unwrap()
                    } else {
                        client
                            .post_json("/v1/infer", &single_body(title, *leaf))
                            .unwrap()
                    };
                    assert!(
                        response.status < 500,
                        "client {t} round {round}: HTTP {} during the roll: {}",
                        response.status,
                        response.text()
                    );
                    // The edge caps keep-alive; reconnect when told to.
                    if response
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                    {
                        client = HttpClient::connect(router_addr).unwrap();
                    }
                    requests += 1;
                }
                requests
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    fixture.corpus.advance_to(1);
    let gen1 = build_gen(&fixture.corpus);
    let next = gen1.emit_shards(SHARDS).unwrap();
    let payloads: Vec<graphex_server::ShardPayload> = next
        .iter()
        .map(|s| {
            (
                s.bytes.to_vec(),
                vec![(BUILDINFO_FILE.to_string(), s.manifest.render().into_bytes())],
            )
        })
        .collect();
    let rolled = fixture
        .cluster
        .rolling_publish(&payloads, "gen1", Duration::from_secs(10))
        .expect("rolling publish");
    assert_eq!(rolled.len(), SHARDS as usize);
    std::thread::sleep(Duration::from_millis(150));
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(
        total >= 100,
        "meaningful concurrency across the roll: {total} requests"
    );

    assert_eq!(
        fixture.cluster.server_errors(),
        0,
        "zero-5xx gate across the rolling swap"
    );
    assert_eq!(
        fixture.cluster.router().degraded(),
        0,
        "no degradation during a clean roll"
    );
    for backend in fixture.cluster.backends() {
        assert_eq!(
            backend.api.snapshot_version(),
            2,
            "shard {} rolled",
            backend.shard
        );
    }

    // --- Gate 3: after the roll, the cluster serves gen1's answers. ----
    let engine = Engine::new(Arc::new(gen1.model.clone()));
    let mut checked = 0usize;
    for item in fixture.corpus.marketplace().items.iter().take(40) {
        let request = InferRequest::new(&item.title, item.leaf).k(8);
        let want: Vec<String> = engine
            .infer(&request)
            .predictions
            .iter()
            .map(|p| {
                engine
                    .model()
                    .keyphrase_text(p.keyphrase)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let response = via_router
            .post_json("/v1/infer", &single_body(&item.title, item.leaf.0))
            .unwrap();
        assert_eq!(response.status, 200);
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        assert_eq!(
            parsed.get("snapshot_version").and_then(Json::as_u64),
            Some(2)
        );
        let got: Vec<String> = parsed
            .get("keyphrases")
            .and_then(|k| k.as_arr())
            .map(|arr| {
                arr.iter()
                    .filter_map(|k| k.as_str().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        assert_eq!(
            got, want,
            "post-roll answer for {:?} is not gen1's",
            item.title
        );
        checked += 1;
    }
    assert!(checked >= 30);

    // --- Gate 4: the router's /statusz sees every backend healthy after
    // the clean roll, and every node's history ring is live. -----------
    let status = graphex_server::json::parse(&via_router.get("/statusz").unwrap().text()).unwrap();
    let backends = status
        .get("backends")
        .and_then(Json::as_arr)
        .expect("statusz backends table");
    assert_eq!(backends.len(), SHARDS as usize);
    for backend in backends {
        assert_eq!(
            backend.get("state").and_then(Json::as_str),
            Some("healthy"),
            "after a clean roll: {}",
            backend.render()
        );
    }
    fixture.cluster.sample_history_now();
    let history_keys = |client: &mut HttpClient| {
        let response = client.get("/debug/history").unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let body = graphex_server::json::parse(&response.text()).unwrap();
        body.get("series")
            .and_then(Json::as_obj)
            .map(|series| {
                series
                    .iter()
                    .map(|(key, _)| key.clone())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    };
    let router_keys = history_keys(&mut via_router);
    for key in ["router/requests_in", "router/backends_healthy"] {
        assert!(
            router_keys.iter().any(|k| k == key),
            "router history lacks {key}: {router_keys:?}"
        );
    }
    for backend in fixture.cluster.backends() {
        let keys = history_keys(&mut HttpClient::connect(backend.addr()).unwrap());
        assert!(
            keys.iter().any(|k| k == "serve/requests"),
            "shard {} history lacks serve/requests: {keys:?}",
            backend.shard
        );
    }
    drop(via_router);
    fixture.finish();
}

/// Chaos fixture: shard 0 is a real backend, shard 1 is the chaos
/// backend. Short timeouts/backoffs so the state machine is observable
/// in test time.
struct ChaosFixture {
    real: graphex_server::ServerHandle,
    chaos: ChaosBackend,
    router: graphex_server::RouterHandle,
}

impl ChaosFixture {
    fn boot() -> Self {
        let ds = graphex_suite::tiny_dataset(0xC4A0);
        let model = graphex_suite::tiny_model(&ds);
        let api = Arc::new(ServingApi::new(
            Arc::new(model),
            Arc::new(KvStore::new()),
            10,
        ));
        let real = graphex_server::start(
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            },
            api,
        )
        .unwrap();
        let chaos = ChaosBackend::start_with_hang_cap(Duration::from_secs(2)).unwrap();
        let map = ShardMap::from_backends(vec![real.addr().to_string(), chaos.addr().to_string()])
            .unwrap();
        let router = start_router(
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                backend_timeout: Duration::from_millis(300),
                retries: 1,
                eject_after: 2,
                backoff_initial: Duration::from_millis(200),
                backoff_max: Duration::from_secs(1),
                ..Default::default()
            },
            map,
        )
        .unwrap();
        Self {
            real,
            chaos,
            router,
        }
    }

    fn statusz_backend(&self, client: &mut HttpClient, shard: usize) -> Json {
        let status = client.get("/statusz").unwrap();
        assert_eq!(status.status, 200);
        let parsed = graphex_server::json::parse(&status.text()).unwrap();
        parsed.get("backends").unwrap().as_arr().unwrap()[shard].clone()
    }

    fn finish(self) {
        self.router.shutdown();
        self.real.shutdown();
        self.chaos.shutdown();
    }
}

/// Leaf 1 routes to the chaos backend (1 mod 2); leaf 0 to the real one.
fn chaos_body() -> String {
    single_body("chaos probe title", 1)
}

#[test]
fn chaos_backend_is_ejected_fails_fast_and_readmitted() {
    let fixture = ChaosFixture::boot();
    let addr = fixture.router.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    // Healthy chaos shard answers through the router.
    let ok = client.post_json("/v1/infer", &chaos_body()).unwrap();
    assert_eq!(ok.status, 200);
    let parsed = graphex_server::json::parse(&ok.text()).unwrap();
    assert_eq!(
        parsed.get("keyphrases").unwrap().as_arr().unwrap()[0].as_str(),
        Some(graphex_server::chaos::CHAOS_KEYPHRASE)
    );

    // 500s: each request degrades (200 envelope, backend_unavailable),
    // and after eject_after=2 consecutive failures the shard is ejected.
    fixture.chaos.set_mode(ChaosMode::Error500);
    for round in 0..3 {
        let degraded = client.post_json("/v1/infer", &chaos_body()).unwrap();
        assert_eq!(
            degraded.status, 200,
            "degradation is never a 5xx (round {round})"
        );
        let parsed = graphex_server::json::parse(&degraded.text()).unwrap();
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some(OUTCOME_BACKEND_UNAVAILABLE),
            "round {round}: {}",
            degraded.text()
        );
        assert_eq!(parsed.get("keyphrases").unwrap().as_arr().unwrap().len(), 0);
    }
    let backend = fixture.statusz_backend(&mut client, 1);
    assert_eq!(backend.get("state").and_then(Json::as_str), Some("ejected"));
    assert!(backend.get("ejections").and_then(Json::as_u64).unwrap() >= 1);
    let calls_at_ejection = backend.get("calls").and_then(Json::as_u64).unwrap();

    // While ejected: fail fast — degraded answers without backend calls.
    let fast = client.post_json("/v1/infer", &chaos_body()).unwrap();
    assert_eq!(fast.status, 200);
    let parsed = graphex_server::json::parse(&fast.text()).unwrap();
    assert_eq!(
        parsed.get("outcome").and_then(Json::as_str),
        Some(OUTCOME_BACKEND_UNAVAILABLE)
    );
    let backend = fixture.statusz_backend(&mut client, 1);
    assert_eq!(
        backend.get("calls").and_then(Json::as_u64).unwrap(),
        calls_at_ejection,
        "ejected backends must not be called"
    );
    assert!(backend.get("fast_failures").and_then(Json::as_u64).unwrap() >= 1);

    // The healthy shard is unaffected throughout.
    let healthy = client
        .post_json("/v1/infer", &single_body("some real title", 0))
        .unwrap();
    assert_eq!(healthy.status, 200);
    let parsed = graphex_server::json::parse(&healthy.text()).unwrap();
    assert!(
        parsed.get("outcome").and_then(Json::as_str) != Some(OUTCOME_BACKEND_UNAVAILABLE),
        "one sick shard must not degrade the others"
    );

    // Recovery: once the backend behaves and the backoff expires, the
    // half-open probe re-admits it and traffic resumes.
    fixture.chaos.set_mode(ChaosMode::Healthy);
    let mut recovered = false;
    for _ in 0..20 {
        std::thread::sleep(Duration::from_millis(120));
        let response = client.post_json("/v1/infer", &chaos_body()).unwrap();
        assert_eq!(response.status, 200);
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        if parsed.get("outcome").and_then(Json::as_str) != Some(OUTCOME_BACKEND_UNAVAILABLE) {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "backend was never re-admitted after recovery");
    let backend = fixture.statusz_backend(&mut client, 1);
    assert_eq!(backend.get("state").and_then(Json::as_str), Some("healthy"));
    assert!(backend.get("readmissions").and_then(Json::as_u64).unwrap() >= 1);

    assert_eq!(
        fixture.router.metrics().server_errors(),
        0,
        "no 5xx through the whole storm"
    );
    drop(client);
    fixture.finish();
}

/// Every number in a `/statusz` backend row is on all three surfaces,
/// with one value: its `graphex_router_backend_*{shard="<i>"}` sample and
/// its `backend/<i>/…` history series (a yes/no member as 1/0). The chaos
/// shard is driven through every counter first: failures, an ejection,
/// fast failures, a failed half-open probe, then a readmission.
#[test]
fn router_backend_rows_agree_on_every_surface() {
    let fixture = ChaosFixture::boot();
    let mut client = HttpClient::connect(fixture.router.addr()).unwrap();
    let mut infer = |body: &str| {
        let response = client.post_json("/v1/infer", body).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        graphex_server::json::parse(&response.text()).unwrap()
    };
    infer(&single_body("some real title", 0));
    fixture.chaos.set_mode(ChaosMode::Error500);
    for _ in 0..3 {
        infer(&chaos_body());
    }
    // Past the 200 ms backoff the next call probes, and the probe fails.
    std::thread::sleep(Duration::from_millis(250));
    infer(&chaos_body());
    fixture.chaos.set_mode(ChaosMode::Healthy);
    let readmitted = (0..20).any(|_| {
        std::thread::sleep(Duration::from_millis(120));
        let answer = infer(&chaos_body());
        answer.get("outcome").and_then(Json::as_str) != Some(OUTCOME_BACKEND_UNAVAILABLE)
    });
    assert!(readmitted, "backend was never re-admitted after recovery");

    fixture.router.sample_history_now();
    let history = fixture.router.history().unwrap().samples(1).pop().unwrap();
    let status = graphex_server::json::parse(&client.get("/statusz").unwrap().text()).unwrap();
    let metrics = client.get("/metrics").unwrap().text();
    let samples: std::collections::BTreeMap<&str, f64> = metrics
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' '))
        .map(|(key, value)| (key, value.parse().unwrap()))
        .collect();
    let rows = status.get("backends").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);
    let mut checked = Vec::new();
    for (shard, row) in rows.iter().enumerate() {
        let Json::Obj(members) = row else {
            panic!("backend row is no object: {}", row.render());
        };
        for (member, value) in members {
            let value = match value {
                Json::Num(n) => *n,
                Json::Bool(b) => f64::from(u8::from(*b)),
                _ => continue,
            };
            if member == "shard" {
                // The row's key: its label and its series prefix.
                assert_eq!(value, shard as f64);
                continue;
            }
            let sample = [
                format!("graphex_router_backend_{member}_total{{shard=\"{shard}\"}}"),
                format!("graphex_router_backend_{member}{{shard=\"{shard}\"}}"),
            ]
            .iter()
            .find_map(|key| samples.get(key.as_str()).copied());
            assert_eq!(sample, Some(value), "{member} of shard {shard} on /metrics");
            let series = format!("backend/{shard}/{member}");
            assert_eq!(history.value(&series), Some(value), "{series}");
            checked.push(member.clone());
        }
    }
    let chaos = &rows[1];
    for counter in ["calls", "failures", "retries", "ejections", "readmissions"] {
        assert!(
            chaos.get(counter).and_then(Json::as_u64) > Some(0),
            "{counter}"
        );
    }
    for counter in ["fast_failures", "last_probe_tick"] {
        assert!(
            chaos.get(counter).and_then(Json::as_u64) > Some(0),
            "{counter}"
        );
    }
    checked.sort();
    checked.dedup();
    assert_eq!(
        checked,
        [
            "calls",
            "consecutive_failures",
            "ejections",
            "failures",
            "fast_failures",
            "healthy",
            "last_probe_tick",
            "readmissions",
            "retries"
        ]
    );
    assert_eq!(fixture.router.metrics().server_errors(), 0);
    drop(client);
    fixture.finish();
}

/// What the repo benchmark reads off a running program at run time, by
/// name (`benchmark/` is a package of its own, built against the public
/// API, so a rename here would only show when the benchmark runs): the
/// router's `requests_in`, `fanout_subrequests` and `backends[].retries`,
/// `trace.stages.<stage>.p50_us` for the stages it reports, and the
/// `HttpMetrics` connection counters of both handles.
#[test]
fn names_the_repo_benchmark_reads_are_served() {
    use graphex_server::HttpMetrics;

    let ds = graphex_suite::tiny_dataset(0xBE7C);
    let model = graphex_suite::tiny_model(&ds);
    let api = Arc::new(ServingApi::new(
        Arc::new(model),
        Arc::new(KvStore::new()),
        10,
    ));
    let backend = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        api,
    )
    .unwrap();
    let router = start_router(
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        ShardMap::from_backends(vec![backend.addr().to_string()]).unwrap(),
    )
    .unwrap();
    let entries: Vec<Json> = ds.marketplace.items[..4]
        .iter()
        .enumerate()
        .map(|(id, item)| {
            Json::obj(vec![
                ("title", Json::str(item.title.clone())),
                ("leaf", Json::uint(u64::from(item.leaf.0))),
                ("id", Json::uint(id as u64)),
            ])
        })
        .collect();
    let envelope = Json::obj(vec![("requests", Json::Arr(entries))]).render();
    for addr in [router.addr(), backend.addr()] {
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client.post_json("/v1/infer", &envelope).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }

    let statusz = |addr| {
        let mut client = HttpClient::connect(addr).unwrap();
        graphex_server::json::parse(&client.get("/statusz").unwrap().text()).unwrap()
    };
    let routed = statusz(router.addr());
    assert_eq!(routed.get("requests_in").and_then(Json::as_u64), Some(1));
    assert_eq!(
        routed.get("fanout_subrequests").and_then(Json::as_u64),
        Some(1)
    );
    let backends = routed.get("backends").and_then(Json::as_arr).unwrap();
    assert_eq!(backends[0].get("retries").and_then(Json::as_u64), Some(0));
    let served = statusz(backend.addr());
    let p50 = |doc: &Json, stage: &str| {
        let stages = doc.get("trace").and_then(|t| t.get("stages"));
        stages
            .and_then(|s| s.get(stage))
            .and_then(|s| s.get("p50_us"))
            .and_then(Json::as_f64)
    };
    for stage in [
        "queue_wait",
        "parse",
        "kv_lookup",
        "traversal",
        "ranking",
        "serialize",
    ] {
        assert!(p50(&served, stage) > Some(0.0), "backend stage {stage}");
        assert!(p50(&routed, stage) > Some(0.0), "router stage {stage}");
    }
    assert!(p50(&routed, "fanout") > Some(0.0), "router stage fanout");

    let connections = |metrics: &HttpMetrics| {
        (
            metrics.connections_accepted.load(Ordering::Relaxed),
            metrics.connections_shed.load(Ordering::Relaxed),
        )
    };
    let (accepted, shed) = connections(backend.metrics());
    assert!(accepted >= 3 && shed == 0, "{accepted} {shed}");
    let (accepted, shed) = connections(router.metrics());
    assert!(accepted >= 2 && shed == 0, "{accepted} {shed}");
    router.shutdown();
    backend.shutdown();
}

#[test]
fn retries_ride_out_keepalive_deaths_and_hangs_degrade_not_5xx() {
    let fixture = ChaosFixture::boot();
    let addr = fixture.router.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    // ServeThenDie: the backend answers one request per connection, then
    // closes. The router's pooled connection dies between requests; the
    // bounded retry on a fresh connection makes that invisible.
    fixture.chaos.set_mode(ChaosMode::ServeThenDie);
    for round in 0..4 {
        let response = client.post_json("/v1/infer", &chaos_body()).unwrap();
        assert_eq!(response.status, 200);
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        assert_ne!(
            parsed.get("outcome").and_then(Json::as_str),
            Some(OUTCOME_BACKEND_UNAVAILABLE),
            "round {round}: a dead keep-alive with retries left must not degrade"
        );
    }

    // Hang: the backend reads the request and goes silent. The router's
    // backend deadline fires; the entry degrades inside a 200.
    fixture.chaos.set_mode(ChaosMode::Hang);
    let hung = client.post_json("/v1/infer", &chaos_body()).unwrap();
    assert_eq!(hung.status, 200, "a hung backend degrades, never 5xxs");
    let parsed = graphex_server::json::parse(&hung.text()).unwrap();
    assert_eq!(
        parsed.get("outcome").and_then(Json::as_str),
        Some(OUTCOME_BACKEND_UNAVAILABLE)
    );

    assert_eq!(fixture.router.metrics().server_errors(), 0);
    drop(client);
    fixture.finish();
}

/// Wire fuzz: a backend that answers garbage/truncations/oversized
/// bodies/wrong shapes degrades cleanly, and malformed *client* traffic
/// gets the same 4xx map a single backend produces — never a panic.
#[test]
fn router_wire_fuzz_never_panics() {
    let fixture = ChaosFixture::boot();
    let addr = fixture.router.addr();

    for mode in [
        ChaosMode::Garbage,
        ChaosMode::Truncated,
        ChaosMode::Oversized,
        ChaosMode::WrongShape,
    ] {
        fixture.chaos.set_mode(mode);
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client.post_json("/v1/infer", &chaos_body()).unwrap();
        assert_eq!(
            response.status, 200,
            "{mode:?}: wire garbage must degrade, not error"
        );
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some(OUTCOME_BACKEND_UNAVAILABLE),
            "{mode:?}: {}",
            response.text()
        );
        // Wait out the ejection this mode caused before the next one.
        fixture.chaos.set_mode(ChaosMode::Healthy);
        let mut healthy_again = false;
        for _ in 0..20 {
            std::thread::sleep(Duration::from_millis(100));
            let probe = client.post_json("/v1/infer", &chaos_body()).unwrap();
            let parsed = graphex_server::json::parse(&probe.text()).unwrap();
            if parsed.get("outcome").and_then(Json::as_str) != Some(OUTCOME_BACKEND_UNAVAILABLE) {
                healthy_again = true;
                break;
            }
        }
        assert!(healthy_again, "{mode:?}: no recovery between fuzz modes");
    }

    // Malformed client traffic: the router 400s with the backend's rules.
    let cases: &[(&str, u16)] = &[
        ("{not json", 400),
        (r#"{"title":"x"}"#, 400),
        (r#"{"title":"x","leaf":4294967296}"#, 400),
        (r#"{"requests":{}}"#, 400),
        (
            r#"{"requests":[{"title":"x","leaf":1},{"title":"y"}]}"#,
            400,
        ),
    ];
    for (body, expected) in cases {
        let mut client = HttpClient::connect(addr).unwrap();
        let response = client.post_json("/v1/infer", body).unwrap();
        assert_eq!(response.status, *expected, "{body:?} → {}", response.text());
    }
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/v1/infer").unwrap().status, 405);
    let err = graphex_server::json::parse(
        &client
            .post_json(
                "/v1/infer",
                r#"{"requests":[{"title":"x","leaf":1},{"title":"y"}]}"#,
            )
            .unwrap()
            .text(),
    )
    .unwrap();
    assert!(
        err.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("requests[1]:"),
        "batch errors must be indexed like a backend's"
    );

    // Ids past 2^53 travel as decimal strings both ways, through the
    // scatter-gather and back.
    let big = u64::MAX.to_string();
    let body = format!(r#"{{"title":"big id","leaf":1,"id":"{big}"}}"#);
    let response = client.post_json("/v1/infer", &body).unwrap();
    assert_eq!(response.status, 200);
    let parsed = graphex_server::json::parse(&response.text()).unwrap();
    assert_eq!(parsed.get("id").and_then(Json::as_str), Some(big.as_str()));

    assert_eq!(
        fixture.router.metrics().server_errors(),
        0,
        "fuzz produced no 5xx"
    );
    drop(client);
    fixture.finish();
}

/// Three shards for the gather gates: real backends on 0 and 2, a
/// `ChaosBackend` on 1, tracing on (the default), and an ejection
/// threshold no test reaches — a failing shard keeps being called.
struct GatherFixture {
    real: Vec<graphex_server::ServerHandle>,
    chaos: Vec<ChaosBackend>,
    addrs: Vec<String>,
    router: graphex_server::RouterHandle,
}

impl GatherFixture {
    /// `chaos_shards` become chaos backends, the rest real ones.
    fn boot(chaos_shards: &[usize], backend_timeout: Duration) -> Self {
        let ds = graphex_suite::tiny_dataset(0xC4A0);
        let model = Arc::new(graphex_suite::tiny_model(&ds));
        let (mut real, mut chaos, mut addrs) = (Vec::new(), Vec::new(), Vec::new());
        for shard in 0..SHARDS as usize {
            if chaos_shards.contains(&shard) {
                let backend = ChaosBackend::start_with_hang_cap(Duration::from_secs(2)).unwrap();
                addrs.push(backend.addr().to_string());
                chaos.push(backend);
            } else {
                let api = Arc::new(ServingApi::new(
                    Arc::clone(&model),
                    Arc::new(KvStore::new()),
                    10,
                ));
                let config = ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    ..Default::default()
                };
                let backend = graphex_server::start(config, api).unwrap();
                addrs.push(backend.addr().to_string());
                real.push(backend);
            }
        }
        let router = start_router(
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                backend_timeout,
                retries: 1,
                eject_after: 1_000_000,
                ..Default::default()
            },
            ShardMap::from_backends(addrs.clone()).unwrap(),
        )
        .unwrap();
        Self {
            real,
            chaos,
            addrs,
            router,
        }
    }

    fn finish(self) {
        self.router.shutdown();
        self.real.into_iter().for_each(|b| b.shutdown());
        self.chaos.into_iter().for_each(|b| b.shutdown());
    }

    /// What the router must answer for `entries`, built the long way: each
    /// shard's sub-envelope sent straight to its backend, the answers
    /// parsed into trees, and the entries merged in the caller's order
    /// under the highest snapshot version. A backend that answers non-200
    /// degrades its entries the way the router words it.
    fn reference_merge(&self, entries: &[Json], batch: bool) -> Json {
        let shard_of = |entry: &Json| {
            entry.get("leaf").and_then(Json::as_u64).unwrap() as usize % self.addrs.len()
        };
        let mut merged: Vec<Option<Json>> = vec![None; entries.len()];
        let mut snapshot_version = 0;
        for (shard, addr) in self.addrs.iter().enumerate() {
            let owned: Vec<usize> = (0..entries.len())
                .filter(|&i| shard_of(&entries[i]) == shard)
                .collect();
            if owned.is_empty() {
                continue;
            }
            let sub = Json::obj(vec![(
                "requests",
                Json::Arr(owned.iter().map(|&i| entries[i].clone()).collect()),
            )]);
            let answer = HttpClient::connect(addr)
                .unwrap()
                .post_json("/v1/infer", &sub.render())
                .unwrap();
            if answer.status != 200 {
                for &i in &owned {
                    let mut members = vec![
                        ("outcome", Json::str(OUTCOME_BACKEND_UNAVAILABLE)),
                        ("source", Json::str("router_degraded")),
                        ("keyphrases", Json::Arr(Vec::new())),
                        ("snapshot_version", Json::uint(0)),
                        ("shard", Json::uint(shard as u64)),
                        (
                            "error",
                            Json::str(format!("backend {addr}: HTTP {}", answer.status)),
                        ),
                    ];
                    if let Some(id) = entries[i].get("id") {
                        members.insert(0, ("id", id.clone()));
                    }
                    merged[i] = Some(Json::obj(members));
                }
                continue;
            }
            let answer = graphex_server::json::parse(&answer.text()).unwrap();
            let version = answer
                .get("snapshot_version")
                .and_then(Json::as_u64)
                .unwrap();
            snapshot_version = snapshot_version.max(version);
            let responses = answer.get("responses").and_then(Json::as_arr).unwrap();
            assert_eq!(responses.len(), owned.len());
            for (&i, response) in owned.iter().zip(responses) {
                merged[i] = Some(response.clone());
            }
        }
        let mut merged: Vec<Json> = merged.into_iter().map(Option::unwrap).collect();
        if batch {
            Json::obj(vec![
                ("responses", Json::Arr(merged)),
                ("snapshot_version", Json::uint(snapshot_version)),
            ])
        } else {
            merged.pop().unwrap()
        }
    }
}

/// Splits a router body into what the backends said and the trace stamp
/// (`trace_id`, then `trace`) the router appended after it.
fn split_stamp(body: Json) -> (Json, Vec<(String, Json)>) {
    let Json::Obj(mut members) = body else {
        panic!("router body is not an object: {body:?}")
    };
    let at = members
        .iter()
        .position(|(k, _)| k == "trace_id")
        .unwrap_or(members.len());
    let stamp = members.split_off(at);
    (Json::Obj(members), stamp)
}

/// Entries pass through the router as the backend's own bytes, so its body
/// must still be, value for value and key for key, the merge of the
/// backends' parsed answers — for every shape of request and reply.
#[test]
fn router_body_equals_the_merge_of_the_backends_parsed_answers() {
    let fixture = GatherFixture::boot(&[1], Duration::from_millis(500));
    let mut client = HttpClient::connect(fixture.router.addr()).unwrap();
    let entry = |title: &str, leaf: u64, id: Option<Json>| {
        let mut members = vec![("title", Json::str(title)), ("leaf", Json::uint(leaf))];
        members.extend(id.map(|id| ("id", id)));
        Json::obj(members)
    };
    let big = Json::str(u64::MAX.to_string());
    let title = "gialket mioktiar pro case";
    let batch: Vec<Json> = vec![
        entry(title, 9002, Some(Json::uint(11))),      // shard 2
        entry("chaos first", 1, Some(Json::uint(12))), // shard 1
        entry(title, 9000, None),                      // shard 0
        entry(title, 9001, Some(big.clone())),         // shard 1, id > 2^53
        entry(
            "escapes \"quoted\" \\ \u{e9}\u{1f600}\n",
            9003,
            Some(Json::uint(13)),
        ), // shard 0
        entry(title, 9005, Some(Json::uint(14))),      // shard 2
    ];
    let envelope = |entries: &[Json]| Json::obj(vec![("requests", Json::Arr(entries.to_vec()))]);
    let pinned = "00000000feedf00d";

    let mut check = |what: &str, entries: &[Json], is_batch: bool, traced: bool| {
        let body = if is_batch {
            envelope(entries).render()
        } else {
            entries[0].render()
        };
        // Once unrecorded, so keyed entries are store hits on both paths.
        assert_eq!(
            client.post_json("/v1/infer", &body).unwrap().status,
            200,
            "{what}"
        );
        let headers: &[(&str, &str)] = if traced {
            &[("x-graphex-trace", pinned)]
        } else {
            &[]
        };
        let response = client
            .post_json_with_headers("/v1/infer", &body, headers)
            .unwrap();
        assert_eq!(response.status, 200, "{what}: {}", response.text());
        let parsed = graphex_server::json::parse(&response.text()).unwrap_or_else(|e| {
            panic!(
                "{what}: router body does not parse ({e}): {}",
                response.text()
            )
        });
        let (said, stamp) = split_stamp(parsed);
        assert_eq!(
            said,
            fixture.reference_merge(entries, is_batch),
            "{what}: {}",
            response.text()
        );
        // The stamp: always the id; the breakdown only for a caller that
        // sent the header.
        let keys: Vec<&str> = stamp.iter().map(|(k, _)| k.as_str()).collect();
        if traced {
            assert_eq!(keys, ["trace_id", "trace"], "{what}");
            assert_eq!(stamp[0].1.as_str(), Some(pinned), "{what}");
            assert_eq!(
                stamp[1].1.get("id").and_then(Json::as_str),
                Some(pinned),
                "{what}"
            );
            let spans = stamp[1].1.get("spans").and_then(Json::as_arr).unwrap();
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("stage").and_then(Json::as_str) == Some("fanout")),
                "{what}: {spans:?}"
            );
        } else {
            assert_eq!(keys, ["trace_id"], "{what}");
            assert_eq!(stamp[0].1.as_str().map(str::len), Some(16), "{what}");
        }
    };

    check("batch over three shards", &batch, true, false);
    check("batch, traced", &batch, true, true);
    check("batch of one", &batch[..1], true, false);
    check("single object", &batch[..1], false, false);
    check("single object without id", &batch[2..3], false, false);
    check("single object, traced", &batch[5..], false, true);
    check("single object, id > 2^53", &batch[3..4], false, false);

    // One shard answering 500: its entries degrade in place, the others'
    // pass through, and the envelope's version is the healthy shards'.
    fixture.chaos[0].set_mode(ChaosMode::Error500);
    check("mixed healthy + degraded batch", &batch, true, false);
    check("mixed, traced", &batch, true, true);
    check(
        "degraded single object, id > 2^53",
        &batch[3..4],
        false,
        true,
    );
    assert!(fixture.router.degraded() >= 6);

    assert_eq!(fixture.router.metrics().server_errors(), 0);
    drop(client);
    fixture.finish();
}

/// Two of three shards hang. A round sends to all three and its reads
/// share one deadline, so the envelope costs `(retries + 1) ×
/// backend_timeout`, not that per hung shard — and the healthy shard,
/// though read last, is served.
#[test]
fn two_hung_shards_cost_one_deadline_per_round_and_spare_the_healthy_one() {
    let backend_timeout = Duration::from_millis(200);
    let fixture = GatherFixture::boot(&[0, 1], backend_timeout);
    for chaos in &fixture.chaos {
        chaos.set_mode(ChaosMode::Hang);
    }
    let body = format!(
        r#"{{"requests":[{},{},{},{}]}}"#,
        single_body("hung a", 0),
        single_body("gialket mioktiar pro case", 9002),
        single_body("hung b", 1),
        single_body("gialket mioktiar case", 9002),
    );
    let mut client = HttpClient::connect(fixture.router.addr()).unwrap();
    let started = std::time::Instant::now();
    let response = client.post_json("/v1/infer", &body).unwrap();
    let took = started.elapsed();
    assert_eq!(response.status, 200, "{}", response.text());
    // retries = 1: two rounds. One retry loop per shard after the other
    // would take twice this.
    assert!(
        took < backend_timeout * 2 + Duration::from_millis(250),
        "two hung shards took {took:?}"
    );
    assert!(
        took >= backend_timeout * 2,
        "both rounds wait out the deadline: {took:?}"
    );
    let parsed = graphex_server::json::parse(&response.text()).unwrap();
    let outcomes: Vec<&str> = parsed
        .get("responses")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| r.get("outcome").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(outcomes[0], OUTCOME_BACKEND_UNAVAILABLE);
    assert_eq!(outcomes[2], OUTCOME_BACKEND_UNAVAILABLE);
    assert_ne!(
        outcomes[1],
        OUTCOME_BACKEND_UNAVAILABLE,
        "{}",
        response.text()
    );
    assert_ne!(
        outcomes[3],
        OUTCOME_BACKEND_UNAVAILABLE,
        "{}",
        response.text()
    );
    assert_eq!(fixture.router.degraded(), 2);

    // Per-shard accounting is what it was: two calls, one of them a retry,
    // both failed, on each hung shard; one clean call on the healthy one.
    let status = graphex_server::json::parse(&client.get("/statusz").unwrap().text()).unwrap();
    let rows = status.get("backends").and_then(Json::as_arr).unwrap();
    let row = |shard: usize, key: &str| rows[shard].get(key).and_then(Json::as_u64).unwrap();
    for hung in [0, 1] {
        assert_eq!(
            (
                row(hung, "calls"),
                row(hung, "retries"),
                row(hung, "failures")
            ),
            (2, 1, 2)
        );
    }
    assert_eq!(
        (row(2, "calls"), row(2, "retries"), row(2, "failures")),
        (1, 0, 0)
    );
    assert_eq!(
        status.get("fanout_subrequests").and_then(Json::as_u64),
        Some(3)
    );

    assert_eq!(fixture.router.metrics().server_errors(), 0);
    drop(client);
    fixture.finish();
}

/// The head a [`FramingFake`] writes for a body of the given length.
type FramingHead = fn(usize) -> String;

/// A backend on a raw listener: it answers every request with a
/// well-formed `/v1/infer` body — one entry per request it was sent —
/// under the head `head` writes for the body's length.
struct FramingFake {
    addr: String,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
}

impl FramingFake {
    fn start(head: FramingHead) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        std::thread::spawn(move || Self::answer(stream, head));
                    }
                }
            })
        };
        Self {
            addr,
            stop,
            acceptor,
        }
    }

    fn answer(stream: TcpStream, head: FramingHead) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        while let Ok(request) = graphex_server::http::read_request(&mut reader, 1 << 20) {
            let sent = std::str::from_utf8(request.body())
                .ok()
                .and_then(|body| graphex_server::json::parse(body).ok())
                .and_then(|body| Some(body.get("requests")?.as_arr()?.len()))
                .unwrap_or(0);
            let entry = r#"{"outcome":"exact_leaf","source":"direct","keyphrases":["fake"]}"#;
            let body = format!(
                r#"{{"responses":[{}],"snapshot_version":1}}"#,
                vec![entry; sent].join(",")
            );
            let wire = head(body.len()) + &body;
            if writer.write_all(wire.as_bytes()).is_err() {
                return;
            }
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr);
        self.acceptor.join().unwrap();
    }
}

/// One HTTP/1.1 reader frames both directions, so a backend answer the
/// edge would refuse as a request is a failed call at the router: each
/// flawed head below — complete, with a body that would otherwise be
/// served — degrades the fake shard's entries inside a 200, while the
/// real shards around it answer normally and nothing 5xxes.
#[test]
fn router_refuses_ambiguous_backend_framing() {
    use graphex_server::http::{MAX_HEADERS, MAX_HEADER_BYTES};
    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n";
    let flaws: [(&str, FramingHead); 5] = [
        ("two lengths", |n| {
            format!(
                "{OK}Content-Length: {n}\r\nContent-Length: {}\r\n\r\n",
                n + 1
            )
        }),
        ("a signed length", |n| {
            format!("{OK}Content-Length: +{n}\r\n\r\n")
        }),
        ("chunked beside a length", |n| {
            format!("{OK}Transfer-Encoding: chunked\r\nContent-Length: {n}\r\n\r\n")
        }),
        ("a header line past the cap", |n| {
            let pad = "p".repeat(MAX_HEADER_BYTES);
            format!("{OK}Content-Length: {n}\r\nX-Pad: {pad}\r\n\r\n")
        }),
        ("too many headers", |n| {
            let extra = "X-H: v\r\n".repeat(MAX_HEADERS);
            format!("{OK}Content-Length: {n}\r\n{extra}\r\n")
        }),
    ];
    let model = Arc::new(graphex_suite::tiny_model(&graphex_suite::tiny_dataset(
        0xC4A0,
    )));
    let real: Vec<_> = (0..2)
        .map(|_| {
            let api = Arc::new(ServingApi::new(
                Arc::clone(&model),
                Arc::new(KvStore::new()),
                10,
            ));
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..Default::default()
            };
            graphex_server::start(config, api).unwrap()
        })
        .collect();
    // Leaves 9000–9002 land on shards 0, 1 (the fake) and 2.
    let body = format!(
        r#"{{"requests":[{},{},{},{}]}}"#,
        single_body("gialket mioktiar pro case", 9000),
        single_body("gialket mioktiar pro case", 9001),
        single_body("gialket mioktiar case", 9002),
        single_body("gialket mioktiar case", 9001),
    );
    for (flaw, head) in flaws {
        let fake = FramingFake::start(head);
        let addrs = vec![
            real[0].addr().to_string(),
            fake.addr.clone(),
            real[1].addr().to_string(),
        ];
        let router = start_router(
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                backend_timeout: Duration::from_millis(500),
                ..Default::default()
            },
            ShardMap::from_backends(addrs).unwrap(),
        )
        .unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let response = client.post_json("/v1/infer", &body).unwrap();
        assert_eq!(response.status, 200, "{flaw}: {}", response.text());
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        let outcomes: Vec<&str> = parsed
            .get("responses")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|entry| entry.get("outcome").and_then(Json::as_str).unwrap())
            .collect();
        let degraded = OUTCOME_BACKEND_UNAVAILABLE;
        assert_eq!(outcomes[1], degraded, "{flaw}: {}", response.text());
        assert_eq!(outcomes[3], degraded, "{flaw}: {}", response.text());
        assert_ne!(outcomes[0], degraded, "{flaw}: {}", response.text());
        assert_ne!(outcomes[2], degraded, "{flaw}: {}", response.text());
        assert_eq!(router.degraded(), 2, "{flaw}");
        assert_eq!(router.metrics().server_errors(), 0, "{flaw}");
        drop(client);
        router.shutdown();
        fake.stop();
    }
    real.into_iter().for_each(|backend| backend.shutdown());
}
