//! End-to-end loopback for the build pipeline: churn a marketsim corpus,
//! run incremental pipeline builds, publish each generation straight
//! into the registry a live HTTP frontend serves from, and pin **zero
//! 5xx** across every live swap — the full
//! ingest → build → publish → hot-swap → serve loop of the ROADMAP
//! north star.
//!
//! Also pinned here: the delta build each generation publishes is
//! byte-identical to a from-scratch rebuild (the CI delta-equivalence
//! gate at the HTTP edge, not just at the byte level), and the frontend
//! observes every published snapshot version in order.

use graphex_core::GraphExConfig;
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{build, BuildOutput, BuildPlan, DeltaBase, MarketsimSource};
use graphex_server::{HttpClient, Json, ServerConfig};
use graphex_serving::{KvStore, ModelRegistry, ServingApi, SwapPolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-buildpipe-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> GraphExConfig {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    config
}

/// Churn must dirty some leaves and spare others, so delta reuse is
/// observable under serving traffic.
fn spec(seed: u64) -> CategorySpec {
    CategorySpec {
        name: "LOOP".into(),
        seed,
        num_leaves: 24,
        products_per_leaf: 8,
        num_items: 400,
        num_sessions: 2_000,
        leaf_id_base: 4_000,
    }
}

fn pipeline_build(corpus: &ChurnCorpus, delta: Option<DeltaBase>) -> BuildOutput {
    let mut plan = BuildPlan::new(config()).jobs(3);
    if let Some(base) = delta {
        plan = plan.delta(base);
    }
    build(&plan, vec![Box::new(MarketsimSource::new(corpus))]).unwrap()
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

#[test]
fn churn_build_publish_serve_loopback_zero_5xx() {
    let root = tempdir("loop");
    // ~1% churn over 24 leaves: a couple of dozen record changes leave
    // most leaves untouched, so delta reuse is reliably observable.
    let mut corpus = ChurnCorpus::new(spec(0xB007), 0.01);

    // Generation 0: full pipeline build, published through admission.
    let registry = Arc::new(ModelRegistry::open(&root).unwrap());
    let mut gen0 = pipeline_build(&corpus, None);
    let meta = gen0.publish(&registry, "gen0 full build").unwrap();
    assert_eq!(meta.version, 1);
    assert!(root.join("1").join("BUILDINFO").is_file());

    // Live HTTP frontend over the registry watch.
    let clients = 4usize;
    let api = Arc::new(
        ServingApi::with_watch(registry.watch().unwrap(), Arc::new(KvStore::new()), 10)
            .swap_policy(SwapPolicy::Invalidate),
    );
    let server = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: clients,
            queue_depth: 64,
            max_body_bytes: 1 << 16,
            deadline: None, // the zero-5xx gate must not race a timer
            keep_alive_timeout: Duration::from_secs(5),
            trace: Default::default(),
            history: Default::default(),
        },
        Arc::clone(&api),
    )
    .unwrap();
    let addr = server.addr();

    let titles: Vec<(String, u32)> = corpus
        .marketplace()
        .items
        .iter()
        .take(48)
        .map(|i| (i.title.clone(), i.leaf.0))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..clients)
        .map(|t| {
            let titles = titles.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut versions = Vec::new();
                let mut requests = 0u64;
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let (title, leaf) = &titles[(t as u64 + round) as usize % titles.len()];
                    let body = infer_body(title, *leaf, (t as u64 + round) % 64);
                    let response = client.post_json("/v1/infer", &body).unwrap();
                    // Keep-alive pinning is bounded (MAX_KEEPALIVE_REQUESTS):
                    // the server announces `Connection: close`; honour it.
                    if response.header("Connection") == Some("close") {
                        client = HttpClient::connect(addr).unwrap();
                    }
                    assert_eq!(
                        response.status,
                        200,
                        "thread {t} round {round}: HTTP {} — {}",
                        response.status,
                        response.text()
                    );
                    let parsed = graphex_server::json::parse(&response.text()).unwrap();
                    versions.push(parsed.get("snapshot_version").unwrap().as_u64().unwrap());
                    requests += 1;
                }
                (requests, versions)
            })
        })
        .collect();

    // Generations 1..=2: churn → delta build from the registry's pinned
    // snapshot → publish → in-process watch hot-swaps the live server.
    let mut reused_total = 0usize;
    for generation in 1..=2u32 {
        std::thread::sleep(Duration::from_millis(60));
        corpus.advance();

        let delta_base = DeltaBase::load(&root).unwrap();
        let mut delta = pipeline_build(&corpus, Some(delta_base));
        // Delta ≡ full, at the published-bytes level.
        let full = pipeline_build(&corpus, None);
        assert_eq!(
            delta.bytes.as_ref(),
            full.bytes.as_ref(),
            "gen {generation}: published delta diverges from full rebuild"
        );
        reused_total += delta.report.leaves_reused;

        let meta = delta
            .publish(&registry, &format!("gen{generation} delta"))
            .unwrap();
        assert_eq!(meta.version, u64::from(generation) + 1);
    }
    std::thread::sleep(Duration::from_millis(80));
    stop.store(true, Ordering::Relaxed);

    let mut total = 0u64;
    for worker in workers {
        let (requests, versions) = worker.join().unwrap();
        assert!(requests > 0, "every client made progress");
        total += requests;
        assert!(
            versions.iter().all(|v| (1..=3).contains(v)),
            "unknown snapshot_version in {versions:?}"
        );
    }
    assert!(
        reused_total > 0,
        "no leaf was ever reused — delta path never engaged live"
    );
    assert_eq!(
        server.metrics().server_errors(),
        0,
        "zero 5xx across {total} requests + 2 swaps"
    );
    let stats = api.stats();
    assert_eq!(
        stats.snapshot_version, 3,
        "frontend finished on the last published snapshot"
    );
    assert_eq!(stats.model_swaps, 2);

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// The registry admission path must reject a pipeline output whose
/// snapshot bytes were tampered with after the build — the publish loop
/// is only safe end-to-end because admission re-validates.
#[test]
fn tampered_pipeline_snapshot_fails_admission() {
    let root = tempdir("tamper");
    let corpus = ChurnCorpus::new(spec(0xBAD), 0.0);
    let output = pipeline_build(&corpus, None);
    let registry = ModelRegistry::open(&root).unwrap();

    let mut bytes = output.bytes.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    let err = registry.publish_with_files(&bytes, "tampered", &[("BUILDINFO", b"x" as &[u8])]);
    assert!(err.is_err(), "corrupt snapshot must fail admission");
    assert!(
        registry.versions().unwrap().is_empty(),
        "rejected publish must not linger"
    );
    std::fs::remove_dir_all(&root).ok();
}
