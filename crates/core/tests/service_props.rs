//! Property tests for the request/response inference API: the batched
//! engine path must be indistinguishable from sequential per-request
//! inference, for any mix of per-request parameters.

use graphex_core::{
    Alignment, Engine, GraphExBuilder, GraphExConfig, InferRequest, LeafId, Outcome,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared engine: building the model is ~10^3 slower than inferring,
/// so every proptest case reuses it (the model is immutable + Sync).
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = true;
        let model = GraphExBuilder::new(config)
            .add_records((0..60).map(|i| {
                graphex_core::KeyphraseRecord::new(
                    format!("brand{} widget model{} pro", i % 12, i % 7),
                    LeafId(i % 4),
                    100 + i,
                    10 + (i * 3) % 40,
                )
            }))
            .build()
            .expect("model builds");
        Engine::from_model(model)
    })
}

/// Strategy for one request's worth of inputs: a title assembled from the
/// model's token universe (plus noise words), a leaf that may or may not
/// exist, and per-request parameter overrides.
fn request_inputs() -> impl Strategy<Value = (String, u32, usize, u8, bool, bool)> {
    let vocab: Vec<String> = (0..12)
        .map(|i| format!("brand{i}"))
        .chain((0..7).map(|i| format!("model{i}")))
        .chain([
            "widget".to_string(),
            "pro".to_string(),
            "unrelated".to_string(),
        ])
        .collect();
    (
        prop::collection::vec(prop::sample::select(vocab), 0..6).prop_map(|words| words.join(" ")),
        0u32..6, // leaves 4,5 are unknown → fallback
        1usize..25,
        0u8..4, // 0 = model default, 1..3 = explicit alignment
        any::<bool>(),
        any::<bool>(),
    )
}

fn build_request(inputs: &(String, u32, usize, u8, bool, bool), idx: usize) -> InferRequest<'_> {
    let (title, leaf, k, alignment, keep_group, resolve) = inputs;
    let mut req = InferRequest::new(title, LeafId(*leaf))
        .k(*k)
        .keep_threshold_group(*keep_group)
        .resolve_texts(*resolve)
        .id(idx as u64);
    if *alignment > 0 {
        req = req.alignment(Alignment::ALL[(*alignment - 1) as usize]);
    }
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Engine::infer_batch` ≡ sequential `Engine::infer`, request by
    /// request, under mixed per-request k / alignment / threshold-group /
    /// resolve-texts settings and any thread count.
    #[test]
    fn batch_equals_sequential(
        inputs in proptest::collection::vec(request_inputs(), 0..24),
        threads in 0usize..9,
    ) {
        let engine = engine();
        let requests: Vec<InferRequest<'_>> =
            inputs.iter().enumerate().map(|(i, inp)| build_request(inp, i)).collect();
        let batched = engine.infer_batch(&requests, threads);
        let sequential: Vec<_> = requests.iter().map(|r| engine.infer(r)).collect();
        prop_assert_eq!(batched, sequential);
    }

    /// Outcome provenance invariants hold for arbitrary requests: servable
    /// outcomes carry predictions, non-servable ones are empty, resolved
    /// texts stay parallel to predictions, and ids echo.
    #[test]
    fn response_invariants(inputs in request_inputs()) {
        let engine = engine();
        let request = build_request(&inputs, 7);
        let response = engine.infer(&request);
        prop_assert_eq!(response.id, Some(7));
        match response.outcome {
            Outcome::ExactLeaf | Outcome::MetaFallback => {
                prop_assert!(!response.predictions.is_empty());
                if !request.keep_threshold_group {
                    prop_assert!(response.predictions.len() <= request.k);
                }
            }
            Outcome::UnknownLeaf | Outcome::Empty => {
                prop_assert!(response.predictions.is_empty());
            }
        }
        if request.resolve_texts {
            prop_assert_eq!(response.texts.len(), response.predictions.len());
        } else {
            prop_assert!(response.texts.is_empty());
        }
        // Fallback provenance: outcome matches whether the leaf has a graph.
        let exact_leaf_exists = engine.model().leaf_graph(request.leaf).is_some();
        match response.outcome {
            Outcome::ExactLeaf => prop_assert!(exact_leaf_exists),
            Outcome::MetaFallback | Outcome::UnknownLeaf => prop_assert!(!exact_leaf_exists),
            Outcome::Empty => {}
        }
    }
}
