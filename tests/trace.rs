//! End-to-end request tracing gates (the PR-9 CI gate):
//!
//! 1. **Cross-layer propagation** — concurrent traffic through the
//!    scatter-gather router into overlay-enabled sharded backends, with
//!    live upserts mid-run: every response carries a trace id (header +
//!    body), every id is retrievable from the router's `/debug/traces`,
//!    router records embed per-backend stage breakdowns under the same
//!    id, and the same id appears in the owning backend's own ring.
//! 2. **Stage-sum consistency** — spans on the serving path never
//!    overlap, so per-record `sum(spans)` stays within slack of the
//!    end-to-end latency (upper bound always; a coverage lower bound
//!    once the request is long enough for the clock to resolve it).
//! 3. **Overlay attribution** — a request served from an overlaid leaf
//!    records an `overlay_consult` span whose detail is the leaf id.
//! 4. **Tenant attribution** — fleet-mode traces carry the tenant name.
//! 5. **Off switch** — a server booted with tracing disabled exposes no
//!    trace surface at all: no ids, no `/debug/traces`, no stage
//!    metrics, and a `null` statusz block.

use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId, Stage};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildOutput, BuildPlan, MarketsimSource};
use graphex_server::{
    start_router, HttpClient, Json, RouterConfig, ServerConfig, ServerHandle, ShardMap,
    TraceConfig, TRACE_HEADER,
};
use graphex_serving::{FleetConfig, KvStore, ModelRegistry, OverlayStore, ServingApi, TenantFleet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u32 = 3;

/// Slack for the stage-sum gates: per record, the sum of spans may
/// overshoot the end-to-end total by at most [`SUM_SLACK_US`] (clock
/// reads bracket the total from inside); across all audited records the
/// spans must cover at least [`MIN_COVERAGE`] of the summed totals. The
/// coverage bound is aggregate, not per record, because a preemption
/// between two spans inflates one record's total without touching its
/// spans — scheduler noise, not a tracing gap.
const SUM_SLACK_US: f64 = 1_000.0;
const MIN_COVERAGE: f64 = 0.25;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-trace-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(seed: u64) -> CategorySpec {
    CategorySpec {
        name: "TRACE".into(),
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

/// Three overlay-enabled sharded backends behind a traced router. Unlike
/// `LocalCluster`, every backend gets an `OverlayStore`, so upserts land
/// mid-run and the overlay read path shows up in the traces.
struct Fixture {
    corpus: ChurnCorpus,
    backends: Vec<ServerHandle>,
    map: ShardMap,
    router: graphex_server::RouterHandle,
    root: PathBuf,
}

impl Fixture {
    fn boot(name: &str, seed: u64) -> Self {
        let corpus = ChurnCorpus::new(spec(seed), 0.05);
        let gen0 = build_gen(&corpus);
        let root = tempdir(name);
        let snapshots = gen0.emit_shards(SHARDS).unwrap();
        graphex_pipeline::publish_shards(&snapshots, &root, "gen0").unwrap();

        let mut backends = Vec::new();
        for shard in 0..SHARDS {
            let registry = ModelRegistry::open(graphex_pipeline::shard_root(&root, shard)).unwrap();
            let api = Arc::new(
                ServingApi::with_watch(registry.watch().unwrap(), Arc::new(KvStore::new()), 10)
                    .with_overlay(Arc::new(OverlayStore::new())),
            );
            backends.push(
                graphex_server::start(
                    ServerConfig {
                        addr: "127.0.0.1:0".into(),
                        ..Default::default()
                    },
                    api,
                )
                .unwrap(),
            );
        }
        let map = ShardMap::from_backends(backends.iter().map(|b| b.addr().to_string()).collect())
            .unwrap();
        let router = start_router(
            RouterConfig {
                addr: "127.0.0.1:0".into(),
                // A zero-ish slow threshold so the slow ring is provably
                // fed under loopback latencies.
                trace: TraceConfig {
                    slow_threshold: Duration::from_micros(1),
                    ..TraceConfig::default()
                },
                ..Default::default()
            },
            map.clone(),
        )
        .unwrap();
        Self {
            corpus,
            backends,
            map,
            router,
            root,
        }
    }

    fn probes(&self, n: usize) -> Vec<(String, u32)> {
        self.corpus
            .marketplace()
            .items
            .iter()
            .take(n)
            .map(|item| (item.title.clone(), item.leaf.0))
            .collect()
    }

    fn shutdown(self) {
        self.router.shutdown();
        for backend in self.backends {
            backend.shutdown();
        }
        std::fs::remove_dir_all(&self.root).ok();
    }
}

fn infer_body(title: &str, leaf: u32) -> String {
    Json::obj(vec![
        ("title", Json::str(title)),
        ("leaf", Json::uint(u64::from(leaf))),
        ("k", Json::uint(5)),
    ])
    .render()
}

/// Fetches and parses a ring. Returns the `traces` array.
fn debug_traces(client: &mut HttpClient, query: &str) -> Vec<Json> {
    let response = client.get(&format!("/debug/traces{query}")).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let doc = graphex_server::json::parse(&response.text()).unwrap();
    doc.get("traces").unwrap().as_arr().unwrap().to_vec()
}

fn span_sum_us(spans: &[Json]) -> f64 {
    spans
        .iter()
        .map(|s| s.get("us").unwrap().as_f64().unwrap())
        .sum()
}

/// Every span names a stage the current vocabulary knows.
fn assert_spans_well_formed(spans: &[Json], context: &str) {
    assert!(!spans.is_empty(), "{context}: empty span list");
    for span in spans {
        let stage = span.get("stage").unwrap().as_str().unwrap();
        assert!(
            Stage::from_name(stage).is_some(),
            "{context}: unknown stage {stage:?}"
        );
        assert!(
            span.get("us").unwrap().as_f64().is_some(),
            "{context}: span without us"
        );
        assert!(
            span.get("start_us").unwrap().as_f64().is_some(),
            "{context}: span without start"
        );
    }
}

/// The per-record stage-sum gate for one non-overlapping span list:
/// spans can never sum past the end-to-end total. Returns the
/// `(sum, total)` pair for the aggregate coverage gate.
fn assert_sum_bounded(spans: &[Json], total_us: f64, context: &str) -> (f64, f64) {
    let sum = span_sum_us(spans);
    assert!(
        sum <= total_us + SUM_SLACK_US,
        "{context}: span sum {sum:.1}µs exceeds total {total_us:.1}µs + slack"
    );
    (sum, total_us)
}

/// Gates 1-3: concurrent router traffic over overlay-enabled sharded
/// backends, upserts mid-run, then the flight-recorder audits.
#[test]
fn trace_ids_propagate_router_to_backends_with_overlay_upserts_midrun() {
    let fixture = Fixture::boot("gate", 0x7ACE);
    let router_addr = fixture.router.addr();
    let probes = fixture.probes(48);

    // --- Deterministic propagation: a caller-supplied id is honoured,
    // echoed in the header and body, and unlocks the embedded trace.
    let pinned = "00000000deadbeef";
    let mut client = HttpClient::connect(router_addr).unwrap();
    let (title, leaf) = &probes[0];
    let response = client
        .post_json_with_headers(
            "/v1/infer",
            &infer_body(title, *leaf),
            &[(TRACE_HEADER, pinned)],
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.header(TRACE_HEADER), Some(pinned));
    let body = graphex_server::json::parse(&response.text()).unwrap();
    assert_eq!(body.get("trace_id").unwrap().as_str(), Some(pinned));
    let embedded = body
        .get("trace")
        .expect("header-carrying request embeds its trace");
    assert_eq!(embedded.get("id").unwrap().as_str(), Some(pinned));
    assert_spans_well_formed(embedded.get("spans").unwrap().as_arr().unwrap(), "embedded");

    // --- Concurrent traffic: three clients mix singles and cross-shard
    // batches while the main thread onboards brand-new leaves via
    // overlay upserts and reads them back through the router.
    let collected: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let probes = &probes;
                scope.spawn(move || {
                    let mut client = HttpClient::connect(router_addr).unwrap();
                    let mut ids = Vec::new();
                    for r in 0..40usize {
                        let response = if r % 5 == 4 {
                            // A batch spanning several shards.
                            let entries: Vec<String> = (0..3)
                                .map(|j| {
                                    let (title, leaf) =
                                        &probes[(t * 13 + r + j * 7) % probes.len()];
                                    infer_body(title, *leaf)
                                })
                                .collect();
                            client
                                .post_json(
                                    "/v1/infer",
                                    &format!(r#"{{"requests":[{}]}}"#, entries.join(",")),
                                )
                                .unwrap()
                        } else {
                            let (title, leaf) = &probes[(t * 13 + r) % probes.len()];
                            client
                                .post_json("/v1/infer", &infer_body(title, *leaf))
                                .unwrap()
                        };
                        assert_eq!(response.status, 200, "{}", response.text());
                        let body = graphex_server::json::parse(&response.text()).unwrap();
                        let id = body.get("trace_id").unwrap().as_str().unwrap().to_string();
                        // Header and body always agree on the id.
                        assert_eq!(response.header(TRACE_HEADER), Some(id.as_str()));
                        ids.push(id);
                    }
                    ids
                })
            })
            .collect();

        // Overlay upserts to brand-new leaves, interleaved with the
        // reader threads; each must be servable through the router on
        // the very next request, with the overlay consult traced. Fresh
        // connections per step: the ring queries in between can outlast
        // a keep-alive window under load.
        for i in 0..6u32 {
            let leaf = 9_000 + i;
            let text = format!("trace onboard item {i} gadget");
            let shard = fixture.map.shard_for_leaf(leaf);
            let upsert = Json::obj(vec![
                ("text", Json::str(text.clone())),
                ("leaf", Json::uint(u64::from(leaf))),
                ("search", Json::uint(40)),
                ("recall", Json::uint(4)),
            ])
            .render();
            let ack = HttpClient::connect(fixture.backends[shard].addr())
                .unwrap()
                .post_json("/v1/upsert", &upsert)
                .unwrap();
            assert_eq!(ack.status, 200, "upsert {i}: {}", ack.text());

            let read = HttpClient::connect(router_addr)
                .unwrap()
                .post_json("/v1/infer", &infer_body(&text, leaf))
                .unwrap();
            assert_eq!(read.status, 200, "overlaid read {i}: {}", read.text());
            let body = graphex_server::json::parse(&read.text()).unwrap();
            assert!(
                !body.get("keyphrases").unwrap().as_arr().unwrap().is_empty(),
                "upserted leaf {leaf} not servable: {}",
                read.text()
            );
            let id = body.get("trace_id").unwrap().as_str().unwrap().to_string();

            // Overlay attribution: the owning backend's record for this
            // id carries an overlay_consult span with detail == leaf.
            let mut backend = HttpClient::connect(fixture.backends[shard].addr()).unwrap();
            let record = debug_traces(&mut backend, "")
                .into_iter()
                .find(|t| t.get("id").unwrap().as_str() == Some(id.as_str()))
                .unwrap_or_else(|| panic!("backend {shard} ring is missing trace {id}"));
            let consult = record
                .get("spans")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .find(|s| s.get("stage").unwrap().as_str() == Some("overlay_consult"))
                .unwrap_or_else(|| panic!("trace {id} has no overlay_consult span: {record:?}"));
            assert_eq!(
                consult.get("detail").unwrap().as_u64(),
                Some(u64::from(leaf))
            );
        }

        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // --- The router ring holds every id the clients were handed.
    let mut client = HttpClient::connect(router_addr).unwrap();
    let ring = debug_traces(&mut client, "");
    let ring_ids: std::collections::HashSet<String> = ring
        .iter()
        .map(|t| t.get("id").unwrap().as_str().unwrap().to_string())
        .collect();
    for ids in &collected {
        for id in ids {
            assert!(ring_ids.contains(id), "router ring lost trace {id}");
        }
    }
    assert!(
        ring_ids.contains(pinned),
        "router ring lost the pinned trace"
    );

    // --- Structural + stage-sum audit of every router record.
    let mut saw_multi_backend = false;
    let mut coverage: Vec<(f64, f64)> = Vec::new();
    for record in &ring {
        let id = record.get("id").unwrap().as_str().unwrap();
        assert_eq!(id.len(), 16, "trace id {id:?} is not 16 hex digits");
        assert!(
            id.bytes().all(|b| b.is_ascii_hexdigit()),
            "trace id {id:?} is not hex"
        );
        assert_eq!(record.get("status").unwrap().as_u64(), Some(200));
        let total_us = record.get("total_us").unwrap().as_f64().unwrap();
        let spans = record.get("spans").unwrap().as_arr().unwrap();
        assert_spans_well_formed(spans, id);
        assert!(
            spans
                .iter()
                .any(|s| s.get("stage").unwrap().as_str() == Some("fanout")),
            "router trace {id} has no fanout span"
        );

        // Every infer went to at least one healthy backend, and each
        // involved backend answered with its own breakdown.
        let backends = record
            .get("backends")
            .unwrap_or_else(|| panic!("router trace {id} embeds no backends"))
            .as_arr()
            .unwrap();
        assert!(
            !backends.is_empty(),
            "router trace {id}: empty backends array"
        );
        saw_multi_backend |= backends.len() > 1;
        for backend in backends {
            let backend_total = backend.get("total_us").unwrap().as_f64().unwrap();
            let backend_spans = backend.get("spans").unwrap().as_arr().unwrap();
            assert_spans_well_formed(backend_spans, &format!("{id} backend"));
            // The sub-request ran strictly inside the router request.
            assert!(
                backend_total <= total_us + SUM_SLACK_US,
                "{id}: backend total {backend_total:.1}µs exceeds router total {total_us:.1}µs"
            );
            coverage.push(assert_sum_bounded(
                backend_spans,
                backend_total,
                &format!("{id} backend"),
            ));
        }

        // Router spans never overlap when a single backend is involved
        // (parse → one fanout → serialize); with several, the fanout
        // spans run concurrently by design, so only the per-backend
        // sums above are audited.
        if backends.len() == 1 {
            coverage.push(assert_sum_bounded(spans, total_us, id));
        }
    }
    assert!(
        saw_multi_backend,
        "no batch ever spanned more than one shard"
    );
    let (span_total, e2e_total) = coverage
        .iter()
        .fold((0.0, 0.0), |(s, t), &(sum, total)| (s + sum, t + total));
    assert!(
        span_total >= MIN_COVERAGE * e2e_total,
        "across {} records, spans cover {span_total:.0}µs of {e2e_total:.0}µs end-to-end \
         (<{MIN_COVERAGE} coverage)",
        coverage.len()
    );

    // --- Cross-layer id propagation: the newest collected id is also on
    // its owning backend's ring (the router forwarded the header).
    let newest = collected
        .iter()
        .flat_map(|ids| ids.last())
        .next_back()
        .unwrap();
    let found = fixture.backends.iter().any(|b| {
        let mut backend = HttpClient::connect(b.addr()).unwrap();
        debug_traces(&mut backend, "")
            .iter()
            .any(|t| t.get("id").unwrap().as_str() == Some(newest.as_str()))
    });
    assert!(found, "trace {newest} never reached a backend ring");

    // --- Ring filters: the slow ring is fed (1µs threshold) and min_us
    // prunes everything at an absurd floor.
    assert!(
        !debug_traces(&mut client, "?slow").is_empty(),
        "slow ring never fed"
    );
    assert!(
        debug_traces(&mut client, "?min_us=10000000").is_empty(),
        "min_us filter inert"
    );
    let limited = debug_traces(&mut client, "?limit=3");
    assert_eq!(limited.len(), 3);

    // --- Observability surfaces: statusz latency + trace blocks, stage
    // metrics, and the satellite backend-health columns.
    let status = client.get("/statusz").unwrap();
    assert_eq!(status.status, 200);
    let status = graphex_server::json::parse(&status.text()).unwrap();
    let latency = status
        .get("latency")
        .expect("router statusz lacks latency block");
    assert!(latency.get("count").unwrap().as_u64().unwrap() > 0);
    let trace_block = status
        .get("trace")
        .expect("router statusz lacks trace block");
    assert_eq!(trace_block.get("enabled").unwrap().as_bool(), Some(true));
    assert!(trace_block.get("recorded").unwrap().as_u64().unwrap() > 0);
    let stages = trace_block.get("stages").unwrap();
    assert!(
        stages.get("fanout").is_some(),
        "no fanout stage aggregates: {stages:?}"
    );
    for row in status.get("backends").unwrap().as_arr().unwrap() {
        assert!(row.get("last_error").unwrap().as_str().is_some());
        // Healthy backends were never probed: the tick stays at 0.
        assert_eq!(row.get("last_probe_tick").unwrap().as_u64(), Some(0));
    }

    let metrics = client.get("/metrics").unwrap().text();
    assert!(
        metrics.contains("graphex_stage_latency_seconds_count{stage=\"fanout\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("graphex_traces_recorded_total"),
        "{metrics}"
    );

    // --- Zero 5xx across every layer, as always.
    assert_eq!(fixture.router.metrics().server_errors(), 0);
    for backend in &fixture.backends {
        assert_eq!(backend.metrics().server_errors(), 0);
    }
    fixture.shutdown();
}

/// Gate 4: fleet-mode traces attribute the tenant that served them.
#[test]
fn fleet_traces_carry_tenant_attribution() {
    let root = tempdir("fleet");
    let fleet = Arc::new(TenantFleet::open(&root, FleetConfig::default()).unwrap());
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let model = GraphExBuilder::new(config)
        .add_records((0..6u32).map(|i| {
            KeyphraseRecord::new(
                format!("acme widget edition{i}"),
                LeafId(i % 2),
                100 + i,
                10,
            )
        }))
        .build()
        .unwrap();
    fleet.publish_model("acme", &model, "v1").unwrap();
    let server = graphex_server::start_fleet(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..Default::default()
        },
        fleet,
    )
    .unwrap();

    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client
        .post_json(
            "/v1/t/acme/infer",
            r#"{"title":"acme widget edition0","leaf":0,"k":3}"#,
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let body = graphex_server::json::parse(&response.text()).unwrap();
    let id = body.get("trace_id").unwrap().as_str().unwrap().to_string();

    let record = debug_traces(&mut client, "")
        .into_iter()
        .find(|t| t.get("id").unwrap().as_str() == Some(id.as_str()))
        .expect("fleet ring is missing the trace");
    assert_eq!(record.get("tenant").unwrap().as_str(), Some("acme"));
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Gate 5: the off switch removes the whole trace surface.
#[test]
fn debug_traces_content_type_and_stage_filter() {
    let ds = graphex_suite::tiny_dataset(0x51A);
    let model = graphex_suite::tiny_model(&ds);
    let api = Arc::new(ServingApi::new(
        Arc::new(model),
        Arc::new(KvStore::new()),
        10,
    ));
    let server = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            deadline: None,
            keep_alive_timeout: Duration::from_secs(60),
            ..Default::default()
        },
        api,
    )
    .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for item in ds.marketplace.items.iter().take(3) {
        let response = client
            .post_json("/v1/infer", &infer_body(&item.title, item.leaf.0))
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }

    // The debug surface is JSON and says so — report tooling and
    // browsers both key off the header.
    let response = client.get("/debug/traces").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("application/json"));
    let all = graphex_server::json::parse(&response.text())
        .unwrap()
        .get("traces")
        .unwrap()
        .as_arr()
        .unwrap()
        .len();
    assert_eq!(all, 3);

    // `?stage=` keeps only traces carrying a span of that stage. Every
    // served infer runs the traversal stage; none runs fanout (that is
    // a router-only stage); an unknown name filters everything rather
    // than erroring.
    assert_eq!(debug_traces(&mut client, "?stage=traversal").len(), 3);
    for trace in debug_traces(&mut client, "?stage=traversal") {
        let spans = trace.get("spans").unwrap().as_arr().unwrap();
        assert!(
            spans
                .iter()
                .any(|s| s.get("stage").unwrap().as_str() == Some("traversal")),
            "filtered trace lacks the requested stage: {trace:?}"
        );
    }
    assert_eq!(debug_traces(&mut client, "?stage=fanout").len(), 0);
    assert_eq!(debug_traces(&mut client, "?stage=no_such_stage").len(), 0);
    // The filter composes with limit.
    assert_eq!(
        debug_traces(&mut client, "?stage=traversal&limit=1").len(),
        1
    );
    server.shutdown();
}

#[test]
fn disabled_tracing_exposes_no_surface() {
    let ds = graphex_suite::tiny_dataset(0x0FF);
    let model = graphex_suite::tiny_model(&ds);
    let api = Arc::new(ServingApi::new(
        Arc::new(model),
        Arc::new(KvStore::new()),
        10,
    ));
    let server = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            trace: TraceConfig {
                enabled: false,
                ..TraceConfig::default()
            },
            ..Default::default()
        },
        api,
    )
    .unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (title, leaf) = {
        let item = &ds.marketplace.items[0];
        (item.title.clone(), item.leaf.0)
    };
    // Even a caller-supplied id is ignored: no echo, no body stamp.
    let response = client
        .post_json_with_headers(
            "/v1/infer",
            &infer_body(&title, leaf),
            &[(TRACE_HEADER, "00000000deadbeef")],
        )
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.header(TRACE_HEADER), None);
    let body = graphex_server::json::parse(&response.text()).unwrap();
    assert!(body.get("trace_id").is_none(), "{}", response.text());
    assert!(body.get("trace").is_none(), "{}", response.text());

    assert_eq!(client.get("/debug/traces").unwrap().status, 404);
    let status = graphex_server::json::parse(&client.get("/statusz").unwrap().text()).unwrap();
    assert!(
        matches!(status.get("trace"), Some(Json::Null)),
        "trace block should be null"
    );
    let metrics = client.get("/metrics").unwrap().text();
    assert!(
        !metrics.contains("graphex_stage_latency_seconds"),
        "{metrics}"
    );
    server.shutdown();
}
