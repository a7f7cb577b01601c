//! The request/response inference API: typed envelopes, pooled sessions,
//! and the [`KeyphraseService`] seam every frontend plugs into.
//!
//! The paper's production dataflow (Sec. IV-H, Fig. 7) exposes *one*
//! inference API behind NuKV; this module is that seam for the
//! reproduction. A caller builds an [`InferRequest`] (title + leaf plus
//! per-request overrides), hands it to anything implementing
//! [`KeyphraseService`], and gets back an [`InferResponse`] whose
//! [`Outcome`] says *why* the answer is what it is — exact-leaf hit,
//! meta-graph fallback, unknown leaf, or an empty candidate set — instead
//! of every layer collapsing errors into `Vec::new()`.
//!
//! Two services live here:
//!
//! * [`Engine`] — a cheap-to-clone handle over `Arc<GraphExModel>` with a
//!   [`ScratchPool`], so `&self` callers get steady-state inference that
//!   allocates only its answer without owning a [`Scratch`].
//!   [`Engine::session`] checks a scratch out for a run of calls;
//!   [`Engine::infer_batch`] fans a request slice across threads with
//!   *per-request* parameters.
//! * `graphex-serving`'s `ServingApi` — the store-backed implementation
//!   (KV hit, else read-through), sharing this exact interface.

use crate::alignment::Alignment;
use crate::inference::{InferenceParams, Prediction, Scratch};
use crate::model::GraphExModel;
use crate::types::LeafId;
use std::sync::{Arc, Mutex, PoisonError};

/// Why an [`InferResponse`] contains what it contains.
///
/// This is the provenance the serving stack exposes to operators (counter
/// labels) and to callers deciding whether to fall back to another
/// recommendation source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The leaf category has a dedicated graph and it produced predictions.
    ExactLeaf,
    /// The leaf was unknown; the meta-category fallback graph answered.
    MetaFallback,
    /// The leaf was unknown and no fallback graph was built: the model
    /// cannot serve this request (predictions are empty).
    UnknownLeaf,
    /// A graph was consulted (exact or fallback) but no candidate keyphrase
    /// shared a word with the title.
    Empty,
}

impl Outcome {
    /// All variants, for counter registries and exhaustive sweeps.
    pub const ALL: [Outcome; 4] =
        [Outcome::ExactLeaf, Outcome::MetaFallback, Outcome::UnknownLeaf, Outcome::Empty];

    /// Stable snake_case label (counter/metric key).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::ExactLeaf => "exact_leaf",
            Outcome::MetaFallback => "meta_fallback",
            Outcome::UnknownLeaf => "unknown_leaf",
            Outcome::Empty => "empty",
        }
    }

    /// Dense index (for counter arrays); inverse of `ALL[i]`.
    pub fn index(self) -> usize {
        match self {
            Outcome::ExactLeaf => 0,
            Outcome::MetaFallback => 1,
            Outcome::UnknownLeaf => 2,
            Outcome::Empty => 3,
        }
    }

    /// Whether the response carries predictions a caller can serve.
    pub fn is_servable(self) -> bool {
        matches!(self, Outcome::ExactLeaf | Outcome::MetaFallback)
    }
}

/// Per-[`Outcome`] tallies, used by batch reports and serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    pub exact_leaf: u64,
    pub meta_fallback: u64,
    pub unknown_leaf: u64,
    pub empty: u64,
}

impl OutcomeCounts {
    /// Records one response outcome.
    pub fn record(&mut self, outcome: Outcome) {
        *self.slot(outcome) += 1;
    }

    /// The tally for one outcome.
    pub fn of(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::ExactLeaf => self.exact_leaf,
            Outcome::MetaFallback => self.meta_fallback,
            Outcome::UnknownLeaf => self.unknown_leaf,
            Outcome::Empty => self.empty,
        }
    }

    /// Sum over all outcomes.
    pub fn total(&self) -> u64 {
        Outcome::ALL.iter().map(|&o| self.of(o)).sum()
    }

    fn slot(&mut self, outcome: Outcome) -> &mut u64 {
        match outcome {
            Outcome::ExactLeaf => &mut self.exact_leaf,
            Outcome::MetaFallback => &mut self.meta_fallback,
            Outcome::UnknownLeaf => &mut self.unknown_leaf,
            Outcome::Empty => &mut self.empty,
        }
    }
}

impl std::ops::AddAssign for OutcomeCounts {
    /// Folds another tally in (per-worker tallies of one batch).
    fn add_assign(&mut self, other: Self) {
        for outcome in Outcome::ALL {
            *self.slot(outcome) += other.of(outcome);
        }
    }
}

/// One inference request: the title/leaf pair plus everything a caller may
/// override per request.
///
/// Build with [`InferRequest::new`] and chain the builder methods; every
/// knob has a production default (`k = 20`, model-default alignment, strict
/// truncation, no id, ids-only predictions).
///
/// ```
/// use graphex_core::{Alignment, InferRequest, LeafId};
///
/// let req = InferRequest::new("audeze maxwell gaming headphones", LeafId(7))
///     .k(10)                      // per-request budget
///     .alignment(Alignment::Jac)  // override the model's ranking function
///     .keep_threshold_group(true) // paper pruning semantics: keep ties
///     .id(42)                     // correlate with the response / KV key
///     .resolve_texts(true);       // materialize keyphrase strings
/// assert_eq!(req.k, 10);
/// assert_eq!(req.id, Some(42));
/// assert_eq!(req.params().alignment, Some(Alignment::Jac));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InferRequest<'a> {
    /// Item title (raw; the model tokenizes/normalizes internally).
    pub title: &'a str,
    /// Leaf category the item is listed in.
    pub leaf: LeafId,
    /// Requested number of predictions.
    pub k: usize,
    /// Ranking alignment override; `None` uses the model default.
    pub alignment: Option<Alignment>,
    /// Keep the whole threshold count-group even when it exceeds `k`.
    pub keep_threshold_group: bool,
    /// Caller-chosen id, echoed on the response. Store-backed services use
    /// it as the item key; requests without an id bypass the store.
    pub id: Option<u64>,
    /// Resolve predictions to keyphrase strings in
    /// [`InferResponse::texts`] (parallel to `predictions`).
    pub resolve_texts: bool,
}

impl<'a> InferRequest<'a> {
    /// A request with production defaults (`k = 20`, model alignment).
    pub fn new(title: &'a str, leaf: LeafId) -> Self {
        Self {
            title,
            leaf,
            k: InferenceParams::default().k,
            alignment: None,
            keep_threshold_group: false,
            id: None,
            resolve_texts: false,
        }
    }

    /// Sets the per-request prediction budget.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Overrides the ranking alignment for this request only.
    pub fn alignment(mut self, alignment: Alignment) -> Self {
        self.alignment = Some(alignment);
        self
    }

    /// Keeps the whole threshold count-group (paper pruning semantics).
    pub fn keep_threshold_group(mut self, keep: bool) -> Self {
        self.keep_threshold_group = keep;
        self
    }

    /// Attaches a request/item id, echoed on the response.
    pub fn id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Asks the service to resolve keyphrase texts into the response.
    pub fn resolve_texts(mut self, resolve: bool) -> Self {
        self.resolve_texts = resolve;
        self
    }

    /// The low-level [`InferenceParams`] this envelope encodes.
    pub fn params(&self) -> InferenceParams {
        InferenceParams {
            k: self.k,
            alignment: self.alignment,
            keep_threshold_group: self.keep_threshold_group,
        }
    }
}

/// A typed inference response: predictions plus the [`Outcome`] that
/// explains them.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Echo of [`InferRequest::id`].
    pub id: Option<u64>,
    /// Why the predictions are what they are.
    pub outcome: Outcome,
    /// Ranked predictions, best first. Empty for `UnknownLeaf`/`Empty`.
    /// Store-backed services may serve texts without prediction attributes
    /// (see [`InferResponse::texts`]).
    pub predictions: Vec<Prediction>,
    /// Resolved keyphrase strings, parallel to `predictions`, filled when
    /// the request set [`InferRequest::resolve_texts`] (or the response was
    /// served from a KV store, which holds texts only).
    pub texts: Vec<String>,
}

impl InferResponse {
    /// A response with no predictions (unknown leaf or empty candidates).
    pub fn empty(id: Option<u64>, outcome: Outcome) -> Self {
        Self { id, outcome, predictions: Vec::new(), texts: Vec::new() }
    }

    /// Number of served keyphrases (predictions, or texts when the service
    /// returned strings only).
    pub fn len(&self) -> usize {
        self.predictions.len().max(self.texts.len())
    }

    /// True when nothing was served.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the outcome carries servable recommendations.
    pub fn is_servable(&self) -> bool {
        self.outcome.is_servable()
    }
}

/// The one interface every inference frontend speaks (Fig. 7's "inference
/// API" box).
///
/// Implemented by the raw [`Engine`] (pure model inference) and by
/// `graphex-serving`'s store-backed `ServingApi` (KV hit, else
/// read-through), so batch jobs, the CLI, the evaluation harness, and any
/// future async frontend are written once against this trait.
pub trait KeyphraseService: Send + Sync {
    /// Answers one request.
    fn infer(&self, request: &InferRequest<'_>) -> InferResponse;

    /// Answers a slice of requests, in order. The default loops over
    /// [`KeyphraseService::infer`]; implementations override it to batch
    /// (the [`Engine`] fans out across threads).
    fn infer_batch(&self, requests: &[InferRequest<'_>]) -> Vec<InferResponse> {
        requests.iter().map(|r| self.infer(r)).collect()
    }
}

/// Reusable pool of [`Scratch`] workspaces for `&self` inference surfaces.
///
/// The mutex guards only the push/pop, never an inference, so contention is
/// negligible next to graph-walk work. Bounded so a burst of concurrent
/// callers cannot pin unbounded scratch memory.
#[derive(Debug, Default)]
pub struct ScratchPool {
    pool: Mutex<Vec<Scratch>>,
}

/// Retained scratches cap; extras returned past this are dropped.
const SCRATCH_POOL_CAP: usize = 64;

impl ScratchPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops a pooled scratch, or allocates a fresh one.
    pub fn take(&self) -> Scratch {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns a scratch to the pool (dropped if the pool is full).
    pub fn give(&self, scratch: Scratch) {
        let mut pool = self.lock();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }

    /// Currently pooled (idle) scratches.
    pub fn idle(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Scratch>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared, cheap-to-clone inference handle: `Arc<GraphExModel>` plus a
/// [`ScratchPool`].
///
/// This is the in-process [`KeyphraseService`]: no store, no counters, just
/// inference over pooled scratches. Clone it freely across threads; all
/// clones share the model and the pool.
#[derive(Debug, Clone)]
pub struct Engine {
    model: Arc<GraphExModel>,
    pool: Arc<ScratchPool>,
}

impl Engine {
    /// Engine over an already-shared model.
    pub fn new(model: Arc<GraphExModel>) -> Self {
        Self { model, pool: Arc::new(ScratchPool::new()) }
    }

    /// Engine that takes ownership of a freshly built model.
    pub fn from_model(model: GraphExModel) -> Self {
        Self::new(Arc::new(model))
    }

    /// The underlying model.
    pub fn model(&self) -> &GraphExModel {
        &self.model
    }

    /// The shared model handle (for wiring other services to it).
    pub fn shared_model(&self) -> Arc<GraphExModel> {
        Arc::clone(&self.model)
    }

    /// The engine's scratch pool (shared with all clones).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Checks a scratch out of the pool for a run of calls; the scratch
    /// returns to the pool when the [`Session`] drops.
    pub fn session(&self) -> Session<'_> {
        Session { engine: self, scratch: Some(self.pool.take()) }
    }

    /// One-shot inference through a pooled session.
    pub fn infer(&self, request: &InferRequest<'_>) -> InferResponse {
        self.session().infer(request)
    }

    /// One-shot inference composed with an overlay view: an overlaid leaf
    /// answers from its composed mini graph, everything else falls
    /// through to the base model. Same pooled scratch either way.
    pub fn infer_with_overlay(
        &self,
        request: &InferRequest<'_>,
        overlay: Option<&crate::overlay::OverlayView>,
    ) -> InferResponse {
        self.session().infer_with_overlay(request, overlay)
    }

    /// [`Engine::infer_with_overlay`] with stage spans recorded into
    /// `trace` (traversal/ranking split, overlay consult attribution).
    /// With a disabled trace this is the plain untraced path.
    pub fn infer_traced(
        &self,
        request: &InferRequest<'_>,
        overlay: Option<&crate::overlay::OverlayView>,
        trace: &mut crate::trace::StageTrace,
    ) -> InferResponse {
        self.session().infer_traced(request, overlay, trace)
    }

    /// Answers every request, in order, using up to `threads` workers
    /// (`0` = all cores). Each request carries its own `k`/alignment; each
    /// worker checks one scratch out of the engine's pool, so repeated
    /// batches reuse warm buffers.
    ///
    /// Equivalent to sequential [`Engine::infer`] per request (pinned by a
    /// property test in `crates/core/tests/service_props.rs`).
    pub fn infer_batch(&self, requests: &[InferRequest<'_>], threads: usize) -> Vec<InferResponse> {
        crate::parallel::batch_infer_pooled(&self.model, requests, threads, &self.pool)
    }
}

impl KeyphraseService for Engine {
    fn infer(&self, request: &InferRequest<'_>) -> InferResponse {
        Engine::infer(self, request)
    }

    fn infer_batch(&self, requests: &[InferRequest<'_>]) -> Vec<InferResponse> {
        Engine::infer_batch(self, requests, 0)
    }
}

/// A pooled-scratch inference session (see [`Engine::session`]).
///
/// Holds one [`Scratch`] for its lifetime, so a loop of `infer` calls
/// allocates, at steady state, only the answers it returns (one
/// `Vec<Prediction>` each; with texts, their `Vec` and one `String` per
/// keyphrase) and touches the pool lock only twice (checkout + return on
/// drop).
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    scratch: Option<Scratch>,
}

impl Session<'_> {
    /// Answers one request with this session's scratch.
    pub fn infer(&mut self, request: &InferRequest<'_>) -> InferResponse {
        let scratch = self.scratch.as_mut().expect("scratch present until drop");
        self.engine.model.infer_request(request, scratch)
    }

    /// [`Session::infer`] composed with an overlay view (see
    /// [`Engine::infer_with_overlay`]).
    pub fn infer_with_overlay(
        &mut self,
        request: &InferRequest<'_>,
        overlay: Option<&crate::overlay::OverlayView>,
    ) -> InferResponse {
        let scratch = self.scratch.as_mut().expect("scratch present until drop");
        if let Some(view) = overlay {
            if let Some(response) = view.infer_request(request, scratch) {
                return response;
            }
        }
        self.engine.model.infer_request(request, scratch)
    }

    /// [`Session::infer_with_overlay`] recording stage spans into `trace`.
    ///
    /// The caller's trace is swapped into the pooled scratch for the call,
    /// so the inference internals record into it without any extra
    /// plumbing, then swapped back out — the swap allocates nothing. An
    /// overlay consult that answers the request is reported as a single
    /// [`crate::trace::Stage::OverlayConsult`] span (detail = leaf id);
    /// the mini graph's nested traversal/ranking spans are suppressed so
    /// top-level spans never overlap.
    pub fn infer_traced(
        &mut self,
        request: &InferRequest<'_>,
        overlay: Option<&crate::overlay::OverlayView>,
        trace: &mut crate::trace::StageTrace,
    ) -> InferResponse {
        let scratch = self.scratch.as_mut().expect("scratch present until drop");
        std::mem::swap(&mut scratch.trace, trace);
        let mut answered = None;
        if let Some(view) = overlay {
            let start = scratch.trace.clock();
            let saved = scratch.trace.suspend();
            let consulted = view.infer_request(request, scratch);
            scratch.trace.resume(saved);
            if consulted.is_some() {
                scratch.trace.record_detail(
                    crate::trace::Stage::OverlayConsult,
                    start,
                    u64::from(request.leaf.0),
                );
                answered = consulted;
            }
        }
        let response = match answered {
            Some(response) => response,
            None => self.engine.model.infer_request(request, scratch),
        };
        std::mem::swap(&mut scratch.trace, trace);
        response
    }

    /// The engine this session belongs to.
    pub fn engine(&self) -> &Engine {
        self.engine
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.engine.pool.give(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphExBuilder, GraphExConfig};
    use crate::types::KeyphraseRecord;

    fn model(fallback: bool) -> GraphExModel {
        let leaf = LeafId(7);
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = fallback;
        GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("audeze maxwell", leaf, 900, 120),
                KeyphraseRecord::new("audeze headphones", leaf, 450, 300),
                KeyphraseRecord::new("gaming headphones xbox", leaf, 800, 700),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn engine_infer_matches_model_infer_request() {
        let engine = Engine::from_model(model(false));
        let req = InferRequest::new("audeze maxwell gaming headphones xbox", LeafId(7))
            .k(5)
            .resolve_texts(true);
        let via_engine = engine.infer(&req);
        let mut scratch = Scratch::new();
        let direct = engine.model().infer_request(&req, &mut scratch);
        assert_eq!(via_engine, direct);
        assert_eq!(via_engine.outcome, Outcome::ExactLeaf);
        assert_eq!(via_engine.texts.len(), via_engine.predictions.len());
        assert_eq!(via_engine.texts[0], "gaming headphones xbox");
    }

    #[test]
    fn session_reuses_one_scratch_and_returns_it() {
        let engine = Engine::from_model(model(false));
        {
            let mut session = engine.session();
            let req = InferRequest::new("audeze maxwell", LeafId(7)).k(3);
            let first = session.infer(&req);
            for _ in 0..5 {
                assert_eq!(session.infer(&req), first);
            }
            assert_eq!(session.engine().scratch_pool().idle(), 0);
        }
        assert_eq!(engine.scratch_pool().idle(), 1);
        // The next session reuses the pooled scratch instead of allocating.
        drop(engine.session());
        assert_eq!(engine.scratch_pool().idle(), 1);
    }

    #[test]
    fn scratch_pool_is_bounded() {
        let pool = ScratchPool::new();
        for _ in 0..100 {
            pool.give(Scratch::new());
        }
        assert_eq!(pool.idle(), SCRATCH_POOL_CAP);
        let _ = pool.take();
        assert_eq!(pool.idle(), SCRATCH_POOL_CAP - 1);
    }

    #[test]
    fn outcome_provenance_is_exhaustive() {
        // Exact leaf with matches → ExactLeaf.
        let with_fb = Engine::from_model(model(true));
        let exact = with_fb.infer(&InferRequest::new("audeze maxwell", LeafId(7)));
        assert_eq!(exact.outcome, Outcome::ExactLeaf);
        assert!(exact.is_servable());

        // Unknown leaf, fallback built → MetaFallback (still servable).
        let fb = with_fb.infer(&InferRequest::new("audeze maxwell", LeafId(999)));
        assert_eq!(fb.outcome, Outcome::MetaFallback);
        assert!(fb.is_servable());
        assert!(!fb.predictions.is_empty());

        // Unknown leaf, no fallback → UnknownLeaf, empty.
        let no_fb = Engine::from_model(model(false));
        let unknown = no_fb.infer(&InferRequest::new("audeze maxwell", LeafId(999)));
        assert_eq!(unknown.outcome, Outcome::UnknownLeaf);
        assert!(!unknown.is_servable());
        assert!(unknown.is_empty());

        // Known leaf, nothing matches → Empty.
        let empty = no_fb.infer(&InferRequest::new("zzz qqq", LeafId(7)));
        assert_eq!(empty.outcome, Outcome::Empty);
        assert!(!empty.is_servable());
        assert!(empty.is_empty());

        // Fallback consulted but nothing matches → also Empty.
        let fb_empty = with_fb.infer(&InferRequest::new("zzz qqq", LeafId(999)));
        assert_eq!(fb_empty.outcome, Outcome::Empty);

        // Every variant observed above; ALL and index() agree.
        for (i, o) in Outcome::ALL.into_iter().enumerate() {
            assert_eq!(o.index(), i);
            assert!(!o.name().is_empty());
        }
    }

    #[test]
    fn outcome_counts_tally() {
        let mut counts = OutcomeCounts::default();
        counts.record(Outcome::ExactLeaf);
        counts.record(Outcome::ExactLeaf);
        counts.record(Outcome::Empty);
        assert_eq!(counts.of(Outcome::ExactLeaf), 2);
        assert_eq!(counts.of(Outcome::Empty), 1);
        assert_eq!(counts.of(Outcome::UnknownLeaf), 0);
        assert_eq!(counts.total(), 3);
    }

    #[test]
    fn request_id_is_echoed() {
        let engine = Engine::from_model(model(false));
        let resp = engine.infer(&InferRequest::new("audeze maxwell", LeafId(7)).id(77));
        assert_eq!(resp.id, Some(77));
        let resp = engine.infer(&InferRequest::new("audeze maxwell", LeafId(7)));
        assert_eq!(resp.id, None);
    }

    #[test]
    fn trait_object_dispatch() {
        let engine = Engine::from_model(model(true));
        let service: &dyn KeyphraseService = &engine;
        let reqs = [
            InferRequest::new("audeze maxwell", LeafId(7)).k(2),
            InferRequest::new("gaming headphones xbox", LeafId(999)).k(1),
        ];
        let responses = service.infer_batch(&reqs);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].outcome, Outcome::ExactLeaf);
        assert_eq!(responses[1].outcome, Outcome::MetaFallback);
        assert_eq!(responses[1].predictions.len(), 1);
    }
}
