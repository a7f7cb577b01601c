//! Model lifecycle integration: the acceptance criteria of the snapshot
//! subsystem.
//!
//! * a model round-trips through its snapshot bytes to a **byte fixpoint
//!   with identical inference results**, loaded zero-copy (this is also
//!   the CI round-trip gate — see `.github/workflows/ci.yml`),
//! * the registry hot-swaps under concurrent request load with **zero
//!   failed requests**, and `rollback` restores the prior version,
//! * batch runs and read-throughs follow the watch across republishes.

use graphex_core::{
    serialize, GraphExBuilder, GraphExConfig, GraphExModel, InferRequest, KeyphraseRecord, LeafId,
};
use graphex_serving::batch::BatchItem;
use graphex_serving::{BatchPipeline, KvStore, ModelRegistry, ServeSource, ServingApi};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn build_model(extra_phrases: &[(&str, u32)]) -> GraphExModel {
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let mut records = vec![
        KeyphraseRecord::new("alpha widget pro", LeafId(1), 900, 100),
        KeyphraseRecord::new("alpha widget max", LeafId(1), 700, 200),
        KeyphraseRecord::new("beta gadget pro", LeafId(2), 800, 150),
        KeyphraseRecord::new("beta gadget case", LeafId(2), 500, 300),
        KeyphraseRecord::new("gamma gizmo charger", LeafId(3), 400, 250),
    ];
    records.extend(
        extra_phrases
            .iter()
            .map(|&(text, leaf)| KeyphraseRecord::new(text, LeafId(leaf), 300, 50)),
    );
    GraphExBuilder::new(config)
        .add_records(records)
        .build()
        .unwrap()
}

fn probe_requests() -> Vec<(String, LeafId)> {
    vec![
        ("alpha widget pro max edition".into(), LeafId(1)),
        ("beta gadget pro with case".into(), LeafId(2)),
        ("gamma gizmo usb charger".into(), LeafId(3)),
        ("alpha widget unknown words".into(), LeafId(1)),
    ]
}

fn infer_all(model: &GraphExModel) -> Vec<(Vec<graphex_core::Prediction>, Vec<String>)> {
    let mut scratch = graphex_core::Scratch::new();
    probe_requests()
        .iter()
        .map(|(title, leaf)| {
            let req = InferRequest::new(title, *leaf).k(10).resolve_texts(true);
            let resp = model.infer_request(&req, &mut scratch);
            (resp.predictions, resp.texts)
        })
        .collect()
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphex-lifecycle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// save → load → save: the second save is byte-identical to the first,
/// and inference outputs are identical at every hop (`Prediction` is
/// `Eq`, so this compares every ranking attribute, not just the texts).
#[test]
fn snapshot_roundtrip_is_a_byte_fixpoint_and_inference_identical() {
    let original = build_model(&[]);
    let expected = infer_all(&original);

    let bytes = serialize::to_bytes(&original);
    let loaded = bytes.parse().expect("load");
    assert_eq!(
        expected,
        infer_all(&loaded),
        "round-trip changed inference results"
    );
    assert_eq!(
        bytes,
        serialize::to_bytes(&loaded),
        "save → load → save is not a fixpoint"
    );

    // And the load really borrowed its arrays.
    assert!(loaded
        .leaf_ids()
        .all(|l| loaded.leaf_graph(l).unwrap().is_zero_copy()));
}

/// The same equality through the registry: `publish_file` of a snapshot
/// *file* — the CLI path (`graphex model publish --input m.gexm`) — is
/// `publish` of the model it holds.
#[test]
fn registry_serves_published_files_and_models_identically() {
    let root = tempdir("file-and-model");
    let model = build_model(&[]);
    let expected = infer_all(&model);

    let path = root.join("incoming.gexm");
    serialize::save_to(&model, &path).unwrap();

    let registry = ModelRegistry::open(root.join("registry")).unwrap();
    let from_file = registry.publish_file(&path, "from a file").unwrap();
    let served_file = infer_all(registry.current().unwrap().engine.model());

    let from_model = registry.publish(&model, "from a model").unwrap();
    let served_model = infer_all(registry.current().unwrap().engine.model());

    assert_eq!(
        (from_file.format, from_file.checksum),
        (3, from_model.checksum)
    );
    assert_eq!(from_model.format, 3);
    assert_eq!(expected, served_file);
    assert_eq!(expected, served_model);
    std::fs::remove_dir_all(&root).ok();
}

/// Hot swap under concurrent request load: worker threads hammer a
/// watch-backed `ServingApi` while the main thread flips the registry
/// between two published versions. Every single request must be served
/// (zero unservable answers, no panics), and afterwards `rollback`
/// restores the prior version.
#[test]
fn hot_swap_under_load_has_zero_failed_requests() {
    let root = tempdir("swap-load");
    let registry = Arc::new(ModelRegistry::open(&root).unwrap());
    registry.publish(&build_model(&[]), "v1").unwrap();
    registry
        .publish(&build_model(&[("alpha widget deluxe", 1)]), "v2")
        .unwrap();
    let api = Arc::new(ServingApi::with_watch(
        registry.watch().unwrap(),
        Arc::new(KvStore::new()),
        10,
    ));

    let done = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for t in 0..4u64 {
        let api = Arc::clone(&api);
        workers.push(std::thread::spawn(move || {
            let probes = probe_requests();
            let mut failed = 0usize;
            for i in 0..400u64 {
                let (title, leaf) = &probes[(i % 3) as usize]; // servable probes only
                                                               // Mix store-path requests (cycling ids → hits + misses)
                                                               // and id-less direct computations.
                let served = if i % 3 == 0 {
                    api.serve_request(&InferRequest::new(title, *leaf).k(5).resolve_texts(true))
                } else {
                    api.serve(t * 10_000 + (i % 50), title, *leaf)
                };
                if served.source == ServeSource::None || served.keyphrases.is_empty() {
                    failed += 1;
                }
            }
            failed
        }));
    }

    // Swap continuously until every worker finished its loop.
    let swapper = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            let mut target = 1u64;
            // At least a handful of swaps even if the workers race ahead,
            // then keep flipping until they are done.
            while swaps < 6 || !done.load(Ordering::Acquire) {
                registry.activate(target).expect("swap during load");
                swaps += 1;
                target = if target == 1 { 2 } else { 1 };
            }
            swaps
        })
    };

    let failed: usize = workers
        .into_iter()
        .map(|w| w.join().expect("worker panicked"))
        .sum();
    done.store(true, Ordering::Release);
    let swaps = swapper.join().expect("swapper panicked");

    assert_eq!(failed, 0, "requests failed during hot swaps");
    assert!(
        swaps >= 1,
        "load test finished before a single swap happened"
    );
    let stats = api.stats();
    assert_eq!(
        stats.store_hits + stats.read_throughs + stats.coalesced + stats.direct,
        4 * 400,
        "every request accounted for"
    );
    assert_eq!(stats.unservable, 0);
    assert!(stats.model_swaps >= swaps, "api missed swaps: {stats:?}");

    // Rollback restores the prior version (whatever the swapper left
    // active, rollback lands on the older snapshot).
    registry.activate(2).unwrap();
    let (from, to) = registry.rollback().unwrap();
    assert_eq!((from, to), (2, 1));
    assert_eq!(registry.current_version(), Some(1));
    assert_eq!(api.stats().snapshot_version, 1);
    std::fs::remove_dir_all(&root).ok();
}

/// Batch runs and read-throughs resolve the watch per run / per request:
/// a republish changes the snapshot version they report, without
/// rebuilding either component.
#[test]
fn batch_and_read_through_follow_republishes() {
    let root = tempdir("consumers");
    let registry = ModelRegistry::open(&root).unwrap();
    registry.publish(&build_model(&[]), "").unwrap();
    let watch = registry.watch().unwrap();

    let store = KvStore::new();
    let pipeline = BatchPipeline::with_watch(watch.clone(), &store, 10, 2);
    let items: Vec<BatchItem> = (0..20)
        .map(|i| BatchItem {
            id: i,
            title: "alpha widget pro max".into(),
            leaf: LeafId(1),
        })
        .collect();
    let report = pipeline.run_full(&items);
    assert_eq!(report.snapshot_version, 1);
    assert_eq!(report.items_with_recommendations, 20);

    registry
        .publish(&build_model(&[("alpha widget deluxe", 1)]), "")
        .unwrap();
    let report = pipeline.run_differential(&items[..5]);
    assert_eq!(
        report.snapshot_version, 2,
        "pipeline did not follow the publish"
    );

    // New listings read through on the republished snapshot, and every
    // one is stored under it.
    let read_through_store = Arc::new(KvStore::new());
    let api = ServingApi::with_watch(watch.clone(), read_through_store.clone(), 10);
    for i in 0..10u64 {
        let served = api.serve(i, "beta gadget pro", LeafId(2));
        assert_eq!(
            (served.source, served.snapshot_version),
            (ServeSource::ReadThrough, 2)
        );
        assert_eq!(read_through_store.get(i).unwrap().tags.snapshot_version, 2);
    }
    assert_eq!(api.stats().snapshot_version, 2);
    std::fs::remove_dir_all(&root).ok();
}
