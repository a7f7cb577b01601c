//! End-to-end integration: simulator → curation → construction → inference
//! → oracle, across crate boundaries.

use graphex_core::parallel::batch_infer;
use graphex_core::{serialize, Engine, InferRequest, Outcome, Scratch};
use graphex_suite::{tiny_dataset, tiny_model};

#[test]
fn dataset_to_predictions_to_relevance() {
    let ds = tiny_dataset(0xE2E);
    let model = tiny_model(&ds);
    let oracle = ds.oracle();

    // Over a sample of items, GraphEx's top predictions must be mostly
    // oracle-relevant: the whole point of constrained extraction.
    let mut relevant = 0usize;
    let mut total = 0usize;
    let mut scratch = Scratch::new();
    for item in ds.test_items(60, 1) {
        let request = InferRequest::new(&item.title, item.leaf)
            .k(5)
            .resolve_texts(true);
        let response = model.infer_request(&request, &mut scratch);
        assert_ne!(
            response.outcome,
            Outcome::UnknownLeaf,
            "test items come from known leaves"
        );
        for text in &response.texts {
            total += 1;
            if oracle.is_relevant(item, text) {
                relevant += 1;
            }
        }
    }
    assert!(total > 50, "too few predictions to judge: {total}");
    let rp = relevant as f64 / total as f64;
    assert!(rp > 0.35, "top-5 relevance too low end-to-end: {rp:.3}");
}

#[test]
fn predictions_are_real_buyer_queries() {
    // Every GraphEx output must be a phrase buyers actually searched —
    // the in-vocabulary guarantee (paper Sec. I-A4).
    let ds = tiny_dataset(0xE2F);
    let engine = Engine::from_model(tiny_model(&ds));
    let oracle = ds.oracle();
    for item in ds.test_items(40, 2) {
        let request = InferRequest::new(&item.title, item.leaf)
            .k(10)
            .resolve_texts(true);
        for text in &engine.infer(&request).texts {
            assert!(
                oracle.query_by_text(text).is_some(),
                "prediction {text:?} is not in the query universe"
            );
        }
    }
}

#[test]
fn serialization_roundtrip_mid_pipeline() {
    let ds = tiny_dataset(0xE30);
    let model = tiny_model(&ds);
    let bytes = serialize::to_bytes(&model);
    let restored = serialize::from_bytes(&bytes).expect("roundtrip");
    let mut scratch = Scratch::new();
    for item in ds.test_items(25, 3) {
        let request = InferRequest::new(&item.title, item.leaf)
            .k(10)
            .resolve_texts(true);
        let a = model.infer_request(&request, &mut scratch);
        let b = restored.infer_request(&request, &mut scratch);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.texts, b.texts);
    }
}

#[test]
fn parallel_batch_equals_sequential() {
    let ds = tiny_dataset(0xE31);
    let model = tiny_model(&ds);
    let items = ds.test_items(80, 4);
    // Mixed per-request budgets: the batch path must honour each envelope.
    let requests: Vec<InferRequest<'_>> = items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            InferRequest::new(&item.title, item.leaf)
                .k(5 + (i % 3) * 5)
                .id(i as u64)
        })
        .collect();
    let seq = batch_infer(&model, &requests, 1);
    let par = batch_infer(&model, &requests, 8);
    assert_eq!(seq, par);
    // Engine::infer_batch rides the same machinery and must agree too.
    let engine = Engine::from_model(model);
    assert_eq!(engine.infer_batch(&requests, 8), seq);
}

#[test]
fn curation_threshold_monotonicity_end_to_end() {
    // Stricter curation ⇒ never more keyphrases, and the surviving ones are
    // higher-volume.
    use graphex_core::{GraphExBuilder, GraphExConfig};
    let ds = tiny_dataset(0xE32);
    let build = |threshold: u32| {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = threshold;
        GraphExBuilder::new(config)
            .add_records(ds.keyphrase_records())
            .build()
    };
    let loose = build(1).expect("loose model");
    let strict = build(8).expect("strict model");
    assert!(strict.num_keyphrases() <= loose.num_keyphrases());
}

#[test]
fn corrupt_model_fails_loudly_never_silently() {
    let ds = tiny_dataset(0xE33);
    let model = tiny_model(&ds);
    let bytes = serialize::to_bytes(&model).to_vec();
    for (i, _) in bytes.iter().enumerate().step_by(bytes.len() / 37 + 1) {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0x5A;
        match serialize::from_bytes(&corrupted) {
            Err(_) => {}
            Ok(_) => panic!("bitflip at byte {i} silently accepted"),
        }
    }
}
