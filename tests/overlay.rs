//! NRT overlay serving gates (the PR-8 CI gate):
//!
//! 1. **Compaction equivalence** — applying upserts to an overlay and
//!    then compacting them (journal → delta build over the base
//!    snapshot) yields a snapshot **byte-identical** to a direct
//!    rebuild of the union corpus. The overlay is a latency shortcut,
//!    never a semantic fork.
//! 2. **Live overlay under fire** — concurrent upserts and reads over
//!    HTTP with zero 5xx; every upserted leaf is servable on the very
//!    next request after its ack; a mid-run compaction publish
//!    hot-swaps the base under traffic, and the final answers for
//!    every upserted leaf are identical to a direct rebuild's.

use graphex_core::{Engine, GraphExConfig, InferRequest, LeafId};
use graphex_marketsim::{CategorySpec, ChurnCorpus};
use graphex_pipeline::{
    build, overlay_journal_source, BuildOutput, BuildPlan, DeltaBase, MarketsimSource, VecSource,
};
use graphex_server::{HttpClient, Json, ServerConfig};
use graphex_serving::{
    KvStore, ModelRegistry, OverlayJournal, OverlayStore, ServingApi, SwapPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-overlay-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> GraphExConfig {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 2;
    config
}

fn spec(seed: u64) -> CategorySpec {
    CategorySpec {
        name: "NRT".into(),
        seed,
        num_leaves: 16,
        products_per_leaf: 6,
        num_items: 200,
        num_sessions: 1_200,
        leaf_id_base: 2_000,
    }
}

fn pipeline_build(
    corpus: &ChurnCorpus,
    journal: Option<&OverlayJournal>,
    delta: Option<DeltaBase>,
    jobs: usize,
) -> BuildOutput {
    let mut plan = BuildPlan::new(config()).jobs(jobs);
    if let Some(base) = delta {
        plan = plan.delta(base);
    }
    let mut sources: Vec<Box<dyn graphex_pipeline::RecordSource>> =
        vec![Box::new(MarketsimSource::new(corpus))];
    if let Some(journal) = journal {
        sources.push(Box::new(overlay_journal_source(journal)));
    }
    build(&plan, sources).unwrap()
}

/// Upsert records for brand-new leaves (unknown to the base corpus)
/// plus extra content on existing leaves — both composition modes.
fn upsert_records(corpus: &ChurnCorpus, count: usize) -> Vec<graphex_core::KeyphraseRecord> {
    let existing = corpus.marketplace().items[0].leaf;
    (0..count)
        .map(|i| {
            let (text, leaf) = if i % 3 == 2 {
                (format!("nrt extra phrase {i} widget"), existing)
            } else {
                (
                    format!("nrt onboard item {i} gadget"),
                    LeafId(9_000 + i as u32),
                )
            };
            graphex_core::KeyphraseRecord::new(text, leaf, 40 + i as u32, 4)
        })
        .collect()
}

/// Gate 1: overlay-then-compact ≡ direct rebuild of the union corpus,
/// byte for byte — including through the journal's text interchange
/// format and across different worker counts.
#[test]
fn overlay_compaction_is_byte_identical_to_direct_rebuild() {
    let root = tempdir("compact");
    let corpus = ChurnCorpus::new(spec(0x0EE1), 0.0);

    // Base snapshot, published so the delta build has a registry base.
    let registry = ModelRegistry::open(&root).unwrap();
    let mut base = pipeline_build(&corpus, None, None, 2);
    base.publish(&registry, "base").unwrap();
    let base_model = Arc::new(base.model.clone());

    // Live writes: three upsert batches into an overlay over the base.
    let store = OverlayStore::new();
    let records = upsert_records(&corpus, 9);
    for chunk in records.chunks(3) {
        store.apply(&base_model, chunk).unwrap();
    }
    let journal = store.export_journal();
    assert_eq!(journal.entries.len(), 9);

    // The journal survives its own interchange format.
    let reparsed = OverlayJournal::parse(&journal.to_text()).unwrap();
    assert_eq!(reparsed, journal);

    // Compaction: delta build over the base, journal as one more source.
    let compacted = pipeline_build(
        &corpus,
        Some(&reparsed),
        Some(DeltaBase::load(&root).unwrap()),
        3,
    );
    assert!(
        compacted.report.leaves_reused > 0,
        "delta must borrow untouched leaves"
    );

    // Direct rebuild of the union corpus: no overlay ever existed.
    let direct_plan = BuildPlan::new(config()).jobs(1);
    let direct = build(
        &direct_plan,
        vec![
            Box::new(MarketsimSource::new(&corpus)),
            Box::new(VecSource::new("direct-union", records)),
        ],
    )
    .unwrap();

    assert_eq!(
        compacted.bytes.as_ref(),
        direct.bytes.as_ref(),
        "overlay-then-compact diverged from the direct union rebuild"
    );
    std::fs::remove_dir_all(&root).ok();
}

fn infer_body(title: &str, leaf: u32) -> String {
    Json::obj(vec![
        ("title", Json::str(title)),
        ("leaf", Json::uint(u64::from(leaf))),
        ("k", Json::uint(5)),
    ])
    .render()
}

fn upsert_body(record: &graphex_core::KeyphraseRecord) -> String {
    Json::obj(vec![
        ("text", Json::str(record.text.clone())),
        ("leaf", Json::uint(u64::from(record.leaf.0))),
        ("search", Json::uint(u64::from(record.search_count))),
        ("recall", Json::uint(u64::from(record.recall_count))),
    ])
    .render()
}

/// Gate 2: concurrent upserts + reads over HTTP, zero 5xx; each upsert
/// servable within one request of its ack; a mid-run compaction publish
/// hot-swaps under load; final answers match a direct rebuild.
#[test]
fn live_upserts_with_midrun_compaction_zero_5xx() {
    let root = tempdir("live");
    let corpus = ChurnCorpus::new(spec(0x11FE), 0.0);

    let registry = Arc::new(ModelRegistry::open(&root).unwrap());
    let mut base = pipeline_build(&corpus, None, None, 2);
    base.publish(&registry, "base").unwrap();

    let api = Arc::new(
        ServingApi::with_watch(registry.watch().unwrap(), Arc::new(KvStore::new()), 10)
            .swap_policy(SwapPolicy::Invalidate)
            .with_overlay(Arc::new(OverlayStore::new())),
    );
    let server = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
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

    // Background readers hammer base titles for the whole run.
    let titles: Vec<(String, u32)> = corpus
        .marketplace()
        .items
        .iter()
        .take(32)
        .map(|i| (i.title.clone(), i.leaf.0))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3usize)
        .map(|t| {
            let titles = titles.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut requests = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (title, leaf) = &titles[(t + requests as usize) % titles.len()];
                    let response = client
                        .post_json("/v1/infer", &infer_body(title, *leaf))
                        .unwrap();
                    if response.header("Connection") == Some("close") {
                        client = HttpClient::connect(addr).unwrap();
                    }
                    assert_eq!(response.status, 200, "reader {t}: {}", response.text());
                    requests += 1;
                }
                requests
            })
        })
        .collect();

    // The writer: upsert → (next request) serve, for every record.
    let records = upsert_records(&corpus, 12);
    let mut writer = HttpClient::connect(addr).unwrap();
    let serve_now = |client: &mut HttpClient, record: &graphex_core::KeyphraseRecord| {
        let response = client
            .post_json("/v1/infer", &infer_body(&record.text, record.leaf.0))
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        let phrases = parsed.get("keyphrases").unwrap().as_arr().unwrap();
        assert!(
            phrases
                .iter()
                .any(|p| p.as_str() == Some(record.text.as_str())),
            "{:?} not servable right after its ack: {phrases:?}",
            record.text
        );
    };
    let (first_half, second_half) = records.split_at(6);
    for record in first_half {
        let ack = writer
            .post_json("/v1/upsert", &upsert_body(record))
            .unwrap();
        assert_eq!(ack.status, 200, "{}", ack.text());
        serve_now(&mut writer, record);
    }

    // Mid-run compaction: journal export → union delta build → publish
    // (the in-process watch hot-swaps the live server) → drain.
    let exported = writer.get("/v1/overlay/journal").unwrap();
    assert_eq!(exported.status, 200);
    let journal = OverlayJournal::parse(&exported.text()).unwrap();
    assert_eq!(journal.entries.len(), 6);
    let mut compacted = pipeline_build(
        &corpus,
        Some(&journal),
        Some(DeltaBase::load(&root).unwrap()),
        3,
    );
    let meta = compacted.publish(&registry, "compaction").unwrap();
    assert_eq!(meta.version, 2);
    let drained = writer
        .post_json(
            "/v1/overlay/drain",
            &format!(r#"{{"upto":{}}}"#, journal.upto),
        )
        .unwrap();
    assert_eq!(drained.status, 200, "{}", drained.text());
    let drained = graphex_server::json::parse(&drained.text()).unwrap();
    assert_eq!(drained.get("drained").unwrap().as_u64(), Some(6));

    // Upserts keep landing (and serving) on the swapped base.
    for record in second_half {
        let ack = writer
            .post_json("/v1/upsert", &upsert_body(record))
            .unwrap();
        assert_eq!(ack.status, 200, "{}", ack.text());
        serve_now(&mut writer, record);
    }

    std::thread::sleep(Duration::from_millis(40));
    stop.store(true, Ordering::Relaxed);
    let mut reads = 0u64;
    for reader in readers {
        reads += reader.join().unwrap();
    }
    assert!(reads > 0);

    // Every upserted leaf — compacted-into-base or still overlaid —
    // answers exactly like a from-scratch rebuild of the union corpus.
    let direct = build(
        &BuildPlan::new(config()).jobs(2),
        vec![
            Box::new(MarketsimSource::new(&corpus)),
            Box::new(VecSource::new("direct-union", records.clone())),
        ],
    )
    .unwrap();
    let oracle = Engine::from_model(direct.model.clone());
    for record in &records {
        let expected = oracle.infer(
            &InferRequest::new(&record.text, record.leaf)
                .k(5)
                .resolve_texts(true),
        );
        let response = writer
            .post_json("/v1/infer", &infer_body(&record.text, record.leaf.0))
            .unwrap();
        let parsed = graphex_server::json::parse(&response.text()).unwrap();
        let served: Vec<&str> = parsed
            .get("keyphrases")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        let expected: Vec<&str> = expected.texts.iter().map(String::as_str).collect();
        assert_eq!(
            served, expected,
            "{:?}: overlay answer diverged from direct rebuild",
            record.text
        );
    }

    assert_eq!(
        server.metrics().server_errors(),
        0,
        "zero 5xx across {reads} reads + upserts"
    );
    let stats = api.stats();
    assert_eq!(
        stats.model_swaps, 1,
        "the compaction publish must have hot-swapped"
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
