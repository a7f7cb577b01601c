//! Serving-architecture integration: the batch path and the read-through
//! path must produce identical recommendations for identical items (the
//! invariant that makes the Fig. 7 split safe to operate), and every
//! answer the serving API gives is the kernel's answer for the request's
//! own title and leaf — through revisions, hot swaps and upserts.

use graphex_core::{
    Engine, GraphExBuilder, GraphExConfig, GraphExModel, InferRequest, KeyphraseRecord, LeafId,
};
use graphex_serving::batch::BatchItem;
use graphex_serving::{
    BatchPipeline, KvStore, ModelRegistry, OverlayStore, ServeSource, ServingApi, SwapPolicy,
};
use graphex_suite::{tiny_dataset, tiny_model};
use std::sync::Arc;

fn batch_items(ds: &graphex_marketsim::CategoryDataset, n: usize) -> Vec<BatchItem> {
    ds.marketplace
        .items
        .iter()
        .take(n)
        .map(|i| BatchItem {
            id: i.id,
            title: i.title.clone(),
            leaf: i.leaf,
        })
        .collect()
}

/// The `k` the serving APIs of the freshness tests answer with.
const K: usize = 10;

/// The kernel's answer for a request, as a serving API with [`K`] asks
/// for it.
fn kernel(
    engine: &Engine,
    overlay: Option<&OverlayStore>,
    title: &str,
    leaf: LeafId,
) -> Vec<String> {
    let request = InferRequest::new(title, leaf).k(K).resolve_texts(true);
    let view = overlay.map(OverlayStore::view);
    engine.infer_with_overlay(&request, view.as_deref()).texts
}

#[test]
fn batch_precompute_equals_read_through() {
    let ds = tiny_dataset(0x5C1);
    let model = Arc::new(tiny_model(&ds));
    let items = batch_items(&ds, 200);

    // Batch path.
    let batch_store = Arc::new(KvStore::new());
    BatchPipeline::new(&model, &batch_store, 15, 4).run_full(&items);

    // Read-through path over the same items, on an empty store (same k).
    let read_through = ServingApi::new(model.clone(), Arc::new(KvStore::new()), 15);
    let mut compared = 0usize;
    for item in &items {
        let served = read_through.serve(u64::from(item.id), &item.title, item.leaf);
        match batch_store.get(u64::from(item.id)) {
            Some(batch) => {
                assert_eq!(served.source, ServeSource::ReadThrough, "item {}", item.id);
                assert_eq!(
                    batch.keyphrases, served.keyphrases,
                    "divergence on item {}",
                    item.id
                );
                compared += 1;
            }
            // Both paths skipped it (no candidates).
            None => assert_eq!(served.source, ServeSource::None, "item {}", item.id),
        }
    }
    assert!(compared > 100, "too few comparable items: {compared}");

    // The batch pass fingerprinted what it stored with the items' own
    // titles: the same requests are all store hits.
    let prewarmed = ServingApi::new(model, batch_store, 15);
    for item in &items {
        prewarmed.serve(u64::from(item.id), &item.title, item.leaf);
    }
    let stats = prewarmed.stats();
    assert_eq!(
        (stats.store_hits as usize, stats.read_throughs),
        (compared, 0)
    );
}

#[test]
fn differential_refresh_after_revision() {
    let ds = tiny_dataset(0x5C2);
    let model = Arc::new(tiny_model(&ds));
    let store = KvStore::new();
    let pipeline = BatchPipeline::new(&model, &store, 15, 2);

    let mut items = batch_items(&ds, 50);
    pipeline.run_full(&items);
    let before = store.get(u64::from(items[0].id));

    // Seller revises item 0's title to a different product in the same leaf.
    let donor = ds
        .marketplace
        .items
        .iter()
        .find(|i| {
            i.leaf == items[0].leaf
                && i.product != ds.marketplace.items[items[0].id as usize].product
        })
        .expect("another product in the leaf");
    items[0].title = donor.title.clone();
    pipeline.run_differential(&items[..1]);
    let after = store.get(u64::from(items[0].id));

    match (before, after) {
        (Some(b), Some(a)) => {
            assert!(a.version > b.version, "version must bump on refresh");
            assert_ne!(
                a.keyphrases, b.keyphrases,
                "revision should change recommendations"
            );
        }
        _ => panic!("item lost from store"),
    }
}

/// 1000 revisions over 100 items, each a request with the revised title:
/// every item ends at the kernel's answer for its last title.
#[test]
fn read_through_serves_the_latest_revision() {
    let ds = tiny_dataset(0x5C3);
    let model = Arc::new(tiny_model(&ds));
    let engine = Engine::new(model.clone());
    let api = ServingApi::new(model, Arc::new(KvStore::new()), K);
    let items = &ds.marketplace.items;
    // Revision `round` of item `i` takes the title of another item in its
    // leaf.
    let revision = |i: usize, round: usize| {
        let leaf = items[i].leaf;
        let titles: Vec<&str> = items
            .iter()
            .filter(|o| o.leaf == leaf)
            .map(|o| o.title.as_str())
            .collect();
        titles[(i + round) % titles.len()]
    };
    for round in 0..10 {
        for (i, item) in items.iter().take(100).enumerate() {
            api.serve(u64::from(item.id), revision(i, round), item.leaf);
        }
    }
    let mut stored = 0;
    for (i, item) in items.iter().take(100).enumerate() {
        let last = revision(i, 9);
        let served = api.serve(u64::from(item.id), last, item.leaf);
        let fresh = kernel(&engine, None, last, item.leaf);
        assert_eq!(served.keyphrases, fresh, "item {}", item.id);
        // The last revision's answer is the stored one, unless there is
        // none to store.
        let expected = if fresh.is_empty() {
            ServeSource::None
        } else {
            ServeSource::Store
        };
        assert_eq!(served.source, expected, "item {}", item.id);
        stored += usize::from(!fresh.is_empty());
    }
    assert!(stored >= 50, "only {stored}/100 last revisions servable");
}

/// Eight threads ask for one id under two titles, alternating: each
/// answer is its own title's, never the other's, and the run ends.
#[test]
fn two_titles_under_one_id_each_get_their_own_answer() {
    let ds = tiny_dataset(0x5C4);
    let model = Arc::new(tiny_model(&ds));
    let engine = Engine::new(model.clone());
    let first = &ds.marketplace.items[0];
    let other = ds
        .marketplace
        .items
        .iter()
        .find(|i| {
            i.leaf == first.leaf
                && kernel(&engine, None, &i.title, i.leaf)
                    != kernel(&engine, None, &first.title, first.leaf)
        })
        .expect("a title in the same leaf with another answer");
    let titles = [first.title.clone(), other.title.clone()];
    let answers = titles
        .clone()
        .map(|title| kernel(&engine, None, &title, first.leaf));

    let api = Arc::new(ServingApi::new(model, Arc::new(KvStore::new()), K));
    let (done, finished) = std::sync::mpsc::channel();
    for thread in 0..8usize {
        let (api, titles, answers, done) =
            (api.clone(), titles.clone(), answers.clone(), done.clone());
        let leaf = first.leaf;
        std::thread::spawn(move || {
            let run = (0..2000).try_for_each(|step| {
                let which = (thread + step) % 2;
                let served = api.serve(42, &titles[which], leaf);
                match served.keyphrases == answers[which] {
                    true => Ok(()),
                    false => Err(format!("thread {thread}, step {step}: {served:?}")),
                }
            });
            done.send(run).unwrap();
        });
    }
    for _ in 0..8 {
        let run = finished.recv_timeout(std::time::Duration::from_secs(120));
        run.expect("a serving thread never finished")
            .unwrap_or_else(|wrong| panic!("{wrong}"));
    }
    assert_eq!(api.stats().unservable, 0);
}

/// One step of a generated serving script.
enum Step {
    /// Serve item `item` as one of its variants: its own title, another
    /// item's title in its leaf (a revision), its title in another leaf.
    Serve { item: usize, variant: usize },
    /// Activate the other published snapshot.
    Swap,
    /// Upsert a keyphrase made of two words of item `item`'s title.
    Upsert { item: usize },
    /// Upsert into item `item`'s leaf a keyphrase made of two words of
    /// its leaf-mates' titles that its own title lacks.
    UpsertBeside { item: usize },
}

/// A deterministic script: mostly serves, with swaps (only where asked
/// for) and upserts mixed in.
fn script(seed: u64, items: usize, steps: usize, swaps: bool) -> Vec<Step> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    (0..steps)
        .map(|_| match next(10) {
            0 if swaps => Step::Swap,
            1 | 2 => Step::Upsert { item: next(items) },
            3 => Step::UpsertBeside { item: next(items) },
            _ => Step::Serve {
                item: next(items),
                variant: next(3),
            },
        })
        .collect()
}

/// The ROADMAP's NRT freshness gate: under generated serve / revise /
/// hot-swap / upsert scripts, every answer equals a fresh kernel answer
/// for that request's own title and leaf, over the serving snapshot and
/// the upserts so far. Hot swaps run under `SwapPolicy::Invalidate` only:
/// under `Serve` an answer may, by design, come from an older snapshot.
#[test]
fn generated_scripts_serve_the_kernel_answer_for_each_request() {
    let ds = tiny_dataset(0x5C5);
    let models: [Arc<GraphExModel>; 2] = [Arc::new(tiny_model(&ds)), {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 4;
        Arc::new(
            GraphExBuilder::new(config)
                .add_records(ds.keyphrase_records())
                .build()
                .unwrap(),
        )
    }];
    let items = batch_items(&ds, 24);
    let leaves: Vec<LeafId> = items.iter().map(|i| i.leaf).collect();
    let root = std::env::temp_dir().join(format!("graphex-consistency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let (mut hits, mut misses, mut retagged) = (0, 0, 0);
    for policy in [SwapPolicy::Serve, SwapPolicy::Invalidate] {
        for seed in 1..=6u64 {
            let registry = ModelRegistry::open(root.join(format!("{policy:?}-{seed}"))).unwrap();
            let versions = [
                registry.publish(&models[0], "a").unwrap().version,
                registry.publish(&models[1], "b").unwrap().version,
            ];
            let mut active = 1;
            // A store the batch path pre-warmed with every item's own title.
            let store = KvStore::new();
            BatchPipeline::with_watch(registry.watch().unwrap(), &store, K, 1).run_full(&items);
            let api = ServingApi::with_watch(registry.watch().unwrap(), Arc::new(store), K)
                .swap_policy(policy)
                .with_overlay(Arc::new(OverlayStore::new()));
            let mut upserts: Vec<KeyphraseRecord> = Vec::new();
            // The reference overlay: the upserts so far, applied afresh
            // over the serving snapshot.
            let mut reference = OverlayStore::new();

            let swaps = policy == SwapPolicy::Invalidate;
            for (n, step) in script(seed, items.len(), 120, swaps)
                .into_iter()
                .enumerate()
            {
                match step {
                    Step::Swap => {
                        active = 1 - active;
                        registry.activate(versions[active]).unwrap();
                        reference = OverlayStore::new();
                        for record in &upserts {
                            reference
                                .apply(&models[active], std::slice::from_ref(record))
                                .unwrap();
                        }
                    }
                    Step::Upsert { item } | Step::UpsertBeside { item } => {
                        let own: Vec<&str> = items[item].title.split(' ').collect();
                        let mut words = own.clone();
                        if matches!(step, Step::UpsertBeside { .. }) {
                            words.clear();
                            let mates = items.iter().filter(|mate| mate.leaf == leaves[item]);
                            for word in mates.flat_map(|mate| mate.title.split(' ')) {
                                if !own.contains(&word) && !words.contains(&word) {
                                    words.push(word);
                                }
                            }
                        }
                        let text = format!(
                            "{} {} nrt{seed}x{n}",
                            words.first().unwrap_or(&"x"),
                            words.get(1).unwrap_or(&"y")
                        );
                        let record = KeyphraseRecord::new(text, items[item].leaf, 50, 4);
                        api.apply_upsert(std::slice::from_ref(&record)).unwrap();
                        reference
                            .apply(&models[active], std::slice::from_ref(&record))
                            .unwrap();
                        upserts.push(record);
                    }
                    Step::Serve { item, variant } => {
                        let (title, leaf) = match variant {
                            0 => (&items[item].title, leaves[item]),
                            1 => (&items[(item + 1) % items.len()].title, leaves[item]),
                            _ => (&items[item].title, leaves[(item + 5) % leaves.len()]),
                        };
                        let served = api.serve(u64::from(items[item].id), title, leaf);
                        let engine = Engine::new(models[active].clone());
                        assert_eq!(
                            served.keyphrases,
                            kernel(&engine, Some(&reference), title, leaf),
                            "{policy:?}, seed {seed}, step {n}: item {item} as {title:?} in {leaf}"
                        );
                        match served.source {
                            ServeSource::Store => hits += 1,
                            _ => misses += 1,
                        }
                    }
                }
            }
            retagged += api.stats().overlay_retagged;
        }
    }
    assert!(
        hits > 100 && misses > 100,
        "scripts too one-sided: {hits} hits, {misses} misses"
    );

    // Upserts beside an item leave its stored answer serving, verified
    // and re-tagged rather than recomputed.
    assert!(
        retagged > 0,
        "no store hit was verified fresh after an upsert to its leaf"
    );
    std::fs::remove_dir_all(&root).ok();
}
