//! The serving read path: eBay's "inference API" over the KV store
//! (Fig. 7's right edge), with a read-through fallback.
//!
//! Sellers request keyphrases for an item; the API answers from the KV
//! store. A miss (item listed seconds ago, or a cold path after a store
//! wipe) triggers synchronous inference and a write-back, so the caller
//! never sees an empty answer for a servable item. Requests are
//! [`InferRequest`] envelopes — per-request `k` and alignment ride through
//! to inference — and every response carries the [`Outcome`] that
//! explains it; counters are keyed by both source and outcome.
//!
//! This is also Sec. IV-H's near-real-time path. Every record carries the
//! [`kv::fingerprint`] of the title and leaf it was computed for, and a
//! request whose fingerprint differs is a miss: an item created or
//! revised by its seller is computed on its next request, and the
//! write-back replaces the old answer. The keyed store is the dedup
//! window — the latest revision wins, and a revision nobody reads costs
//! nothing.
//!
//! Two concurrency properties the old design lacked, both load-bearing at
//! production fan-in:
//!
//! * **No global scratch lock.** Read-through inference draws a scratch
//!   from the shared [`Engine`] pool per call; concurrent misses infer in
//!   parallel instead of serializing behind one `Mutex<Scratch>` (measured
//!   by `crates/bench/benches/serving_read_path.rs`).
//! * **Single-flight read-through.** Concurrent misses on the *same* item
//!   and title coalesce: one caller (the leader) runs inference and writes
//!   back exactly once; the rest wait for the leader's answer. The KV
//!   version therefore bumps once per item, not once per concurrent
//!   caller. A request carrying another title never joins that flight.

use crate::kv::{self, KvStore, PackedRecs, Tags};
use crate::overlay::{
    DrainReport, Freshness, OverlayError, OverlayStatus, OverlayStore, TitleWords, UpsertAck,
};
use crate::registry::ModelWatch;
use crate::sync::lock;
use graphex_core::{
    Engine, GraphExModel, InferRequest, InferResponse, KeyphraseRecord, KeyphraseService, LeafId,
    Outcome,
};
use graphex_textkit::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Where a response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// Precomputed for this title and leaf by a batch pass or an earlier
    /// read-through, read from the store.
    Store,
    /// Computed synchronously on miss and written back.
    ReadThrough,
    /// Another caller's in-flight read-through produced a servable answer
    /// for this request (single-flight coalescing; nothing was recomputed
    /// or rewritten). An unservable leader answer keeps
    /// [`ServeSource::None`] for every coalesced caller too.
    Coalesced,
    /// Computed for a request whose answer is never stored: an id-less
    /// one, or one that overrides the alignment or keeps the threshold
    /// group (served, not written back, not shared with other callers).
    Direct,
    /// No recommendations derivable (unknown leaf without fallback, or no
    /// candidate keyphrases).
    None,
}

/// A served response.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub keyphrases: Vec<String>,
    pub source: ServeSource,
    /// Inference provenance (echoed from the store on a hit).
    pub outcome: Outcome,
    /// Per-keyphrase ranking attributes, parallel to `keyphrases`, for
    /// responses computed by this call (read-through / coalesced /
    /// direct). Empty on store hits — the KV store holds texts only.
    pub predictions: Vec<graphex_core::Prediction>,
    /// Registry version of the model snapshot that *produced* these
    /// keyphrases: the computing snapshot for fresh answers, the stored
    /// record's tag for store hits (which may predate the serving
    /// snapshot under [`SwapPolicy::Serve`]). 0 = fixed engine without a
    /// registry, or an unservable answer.
    pub snapshot_version: u64,
    /// Overlay sequence the answer is known fresh through: the computing
    /// view's for a computed answer, the record's tag for a store hit (0
    /// when the api serves without an overlay, or on store hits written
    /// by overlay-blind writers). Write-backs tag the KV record with this
    /// so that later upserts that can change the answer invalidate it.
    pub overlay_epoch: u64,
}

/// A response as [`ServingApi::serve_with`] hands it to its sink. A
/// store hit stays the store's own record — a sink that writes the answer
/// out copies no keyphrase — and anything computed arrives owned, so the
/// materialising sink ([`Answer::into_served`]) moves it through.
pub enum Answer<'a> {
    /// A fresh store hit, to be cut to the request's `k`.
    Hit { record: &'a PackedRecs, k: usize },
    /// Computed by this call, or by the single-flight leader it joined.
    Computed(Served),
}

impl Answer<'_> {
    pub fn source(&self) -> ServeSource {
        match self {
            Answer::Hit { .. } => ServeSource::Store,
            Answer::Computed(served) => served.source,
        }
    }

    pub fn outcome(&self) -> Outcome {
        match self {
            Answer::Hit { record, .. } => record.outcome(),
            Answer::Computed(served) => served.outcome,
        }
    }

    /// See [`Served::snapshot_version`].
    pub fn snapshot_version(&self) -> u64 {
        match self {
            Answer::Hit { record, .. } => record.snapshot_version(),
            Answer::Computed(served) => served.snapshot_version,
        }
    }

    /// Calls `each` with every keyphrase, in rank order.
    pub fn for_each_keyphrase(&self, mut each: impl FnMut(&str)) {
        match self {
            Answer::Hit { record, k } => record.keyphrases().take(*k).for_each(each),
            Answer::Computed(served) => served.keyphrases.iter().for_each(|text| each(text)),
        }
    }

    /// The materialising sink: the response as owned fields.
    pub fn into_served(self) -> Served {
        match self {
            Answer::Hit { record, k } => Served {
                keyphrases: record.keyphrases().take(k).map(str::to_string).collect(),
                source: ServeSource::Store,
                outcome: record.outcome(),
                predictions: Vec::new(),
                snapshot_version: record.snapshot_version(),
                overlay_epoch: record.overlay_epoch(),
            },
            Answer::Computed(served) => served,
        }
    }
}

/// One in-flight read-through; followers block on `ready` until the leader
/// publishes the result.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<Served>>,
    ready: Condvar,
}

impl Flight {
    fn publish(&self, served: Served) {
        *lock(&self.result) = Some(served);
        self.ready.notify_all();
    }

    fn wait(&self) -> Served {
        let mut guard = lock(&self.result);
        loop {
            if let Some(served) = &*guard {
                return served.clone();
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What to do with KV records computed by a *different* model snapshot
/// than the one serving now (after a hot swap or rollback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwapPolicy {
    /// Serve cached answers regardless of the snapshot that computed them
    /// (the paper's Fig. 7 behaviour: refresh rides the next batch pass or
    /// revision). This is the default.
    #[default]
    Serve,
    /// Treat a store hit tagged with another `snapshot_version` as a miss
    /// and recompute through the single-flight read-through, so cached
    /// keyphrases cannot outlive a model rollback indefinitely. Records
    /// tagged 0 (fixed-engine writes) are always served.
    Invalidate,
}

/// Read-through serving facade: a [`KeyphraseService`] backed by the KV
/// store with an [`Engine`] behind it.
///
/// The engine is resolved through a [`ModelWatch`] per computation, so an
/// api constructed over a [`crate::ModelRegistry`] picks up hot-swapped
/// snapshots without restart — requests already inside `compute` finish
/// on the model they started with ([`ServeStats::snapshot_version`] says
/// which model is serving now).
pub struct ServingApi {
    watch: ModelWatch,
    store: Arc<KvStore>,
    /// NRT overlay: mutable per-leaf deltas consulted by the read path
    /// (None = classic snapshot-only serving).
    overlay: Option<Arc<OverlayStore>>,
    /// Registry version the overlay's views were last composed against;
    /// a hot swap triggers a rebase so overlay answers always layer over
    /// the *serving* snapshot.
    overlay_base: AtomicU64,
    default_k: usize,
    swap_policy: SwapPolicy,
    store_hits: AtomicU64,
    read_throughs: AtomicU64,
    coalesced: AtomicU64,
    direct: AtomicU64,
    unservable: AtomicU64,
    /// Store hits bypassed because their snapshot tag was stale
    /// ([`SwapPolicy::Invalidate`] only).
    invalidated: AtomicU64,
    /// Store hits bypassed because an overlay upsert after the record
    /// could change it.
    overlay_invalidated: AtomicU64,
    /// Store hits served after verifying that the overlay upserts to
    /// their leaf since the record could not change it.
    overlay_retagged: AtomicU64,
    /// Requests answered with a deadline-exceeded error upstream
    /// (recorded via [`ServingApi::note_deadline_exceeded`]).
    deadline_exceeded: AtomicU64,
    /// Requests currently executing (gauge; see
    /// [`ServingApi::begin_request`]).
    in_flight_gauge: AtomicU64,
    /// Responses by [`Outcome::index`].
    outcomes: [AtomicU64; 4],
    /// (item id, fingerprint) → in-flight read-through (single-flight).
    inflight: Mutex<FxHashMap<FlightKey, Arc<Flight>>>,
}

/// Counters snapshot, keyed by source and by [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    pub store_hits: u64,
    pub read_throughs: u64,
    /// Requests answered by another caller's in-flight inference.
    pub coalesced: u64,
    /// Requests computed and never stored: id-less ones, and keyed ones
    /// under an override that missed the store.
    pub direct: u64,
    pub unservable: u64,
    /// Store hits recomputed because their record was tagged with a
    /// different model snapshot ([`SwapPolicy::Invalidate`] only).
    pub invalidated: u64,
    /// Store hits recomputed because an overlay upsert after the record
    /// could change it — it carried a word of the title or created the
    /// leaf (overlay serving only).
    pub overlay_invalidated: u64,
    /// Store hits served although their leaf was upserted after the
    /// record was written: none of those upserts carried a word of the
    /// title, so the record was verified fresh and re-tagged.
    pub overlay_retagged: u64,
    /// Requests that missed their deadline (e.g. HTTP 503).
    pub deadline_exceeded: u64,
    /// Requests executing right now (gauge, not a counter).
    pub in_flight: u64,
    /// Every response tallied by its inference outcome.
    pub outcomes: graphex_core::OutcomeCounts,
    /// Registry version of the model serving right now (0 when the api
    /// was built over a fixed model instead of a registry watch).
    pub snapshot_version: u64,
    /// Hot swaps observed since the api's model source went live.
    pub model_swaps: u64,
}

impl ServeStats {
    /// Folds another snapshot's counters into this one — how the tenant
    /// fleet carries stats across evict/re-admit cycles (each resident
    /// incarnation gets a fresh `ServingApi`, so its counters restart
    /// from zero).
    ///
    /// All counters (including per-outcome tallies and `model_swaps`)
    /// add; `in_flight` adds too, which is only meaningful when `other`
    /// is a *live* snapshot (an evicted incarnation's gauge has
    /// drained to ~0); `snapshot_version` takes `other`'s value when it
    /// has one, since "latest incarnation" is the version that matters.
    pub fn absorb(&mut self, other: &ServeStats) {
        self.store_hits += other.store_hits;
        self.read_throughs += other.read_throughs;
        self.coalesced += other.coalesced;
        self.direct += other.direct;
        self.unservable += other.unservable;
        self.invalidated += other.invalidated;
        self.overlay_invalidated += other.overlay_invalidated;
        self.overlay_retagged += other.overlay_retagged;
        self.deadline_exceeded += other.deadline_exceeded;
        self.in_flight += other.in_flight;
        self.outcomes.exact_leaf += other.outcomes.exact_leaf;
        self.outcomes.meta_fallback += other.outcomes.meta_fallback;
        self.outcomes.unknown_leaf += other.outcomes.unknown_leaf;
        self.outcomes.empty += other.outcomes.empty;
        self.model_swaps += other.model_swaps;
        if other.snapshot_version != 0 {
            self.snapshot_version = other.snapshot_version;
        }
    }
}

/// What one [`ServingApi`] reports: its counters, its store's footprint
/// and its overlay's accounting. `/statusz`, `/metrics` and the history
/// ring all read this one row — a single server has one, a tenant fleet
/// one per tenant ([`TenantStatus::report`](crate::TenantStatus::report)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    pub stats: ServeStats,
    /// Items in the [`KvStore`] and the heap bytes of their records
    /// ([`KvStore::record_bytes`]).
    pub store_items: u64,
    pub store_bytes: u64,
    /// Overlay depth and counters (`None` when no overlay is attached).
    pub overlay: Option<OverlayStatus>,
}

impl ServingApi {
    /// Serving facade over a shared model; `default_k` applies to
    /// [`ServingApi::serve`] calls (envelope requests carry their own `k`).
    pub fn new(model: Arc<GraphExModel>, store: Arc<KvStore>, default_k: usize) -> Self {
        Self::with_engine(Engine::new(model), store, default_k)
    }

    /// Serving facade sharing an existing engine (and its scratch pool).
    pub fn with_engine(engine: Engine, store: Arc<KvStore>, default_k: usize) -> Self {
        Self::with_watch(ModelWatch::fixed(engine), store, default_k)
    }

    /// Serving facade over a registry watch: republished snapshots swap in
    /// live (get one from [`crate::ModelRegistry::watch`]).
    pub fn with_watch(watch: ModelWatch, store: Arc<KvStore>, default_k: usize) -> Self {
        Self {
            watch,
            store,
            overlay: None,
            overlay_base: AtomicU64::new(0),
            default_k,
            swap_policy: SwapPolicy::default(),
            store_hits: AtomicU64::new(0),
            read_throughs: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            direct: AtomicU64::new(0),
            unservable: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            overlay_invalidated: AtomicU64::new(0),
            overlay_retagged: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            in_flight_gauge: AtomicU64::new(0),
            outcomes: Default::default(),
            inflight: Mutex::new(FxHashMap::default()),
        }
    }

    /// Sets the [`SwapPolicy`] (builder style; call before sharing the
    /// api). The default is [`SwapPolicy::Serve`].
    pub fn swap_policy(mut self, policy: SwapPolicy) -> Self {
        self.swap_policy = policy;
        self
    }

    /// Attaches an [`OverlayStore`] (builder style; call before sharing
    /// the api): upserts become servable through
    /// [`ServingApi::apply_upsert`], and the read path consults the
    /// overlay view alongside the base snapshot.
    pub fn with_overlay(mut self, overlay: Arc<OverlayStore>) -> Self {
        self.overlay_base = AtomicU64::new(self.watch.version());
        // An overlay handed over with pending entries (tenant re-admit
        // after eviction) was composed against whatever model served
        // last; recompose over the snapshot *this* api watches.
        if !overlay.view().is_empty() {
            overlay.rebase(self.watch.current().engine.model());
        }
        self.overlay = Some(overlay);
        self
    }

    /// The store this api reads through (its item count and record
    /// bytes are what `/statusz` and `/metrics` report).
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// The attached overlay store, if overlay serving is enabled.
    pub fn overlay(&self) -> Option<&Arc<OverlayStore>> {
        self.overlay.as_ref()
    }

    /// Applies an upsert batch to the overlay: records become servable
    /// before this returns (the swapped-in view is what the next request
    /// reads), and every cached KV answer the batch can change — one
    /// whose title shares a stemmed word with an upserted record, or in a
    /// leaf the batch creates — is invalidated lazily via its overlay
    /// epoch tag (see `ServingApi::staleness`).
    ///
    /// Errors with [`OverlayError::CapExceeded`] when the journal is at
    /// its byte cap (HTTP frontends translate this to 429 +
    /// `Retry-After`) and [`OverlayError::Invalid`] for malformed
    /// records or when no overlay is attached.
    pub fn apply_upsert(&self, records: &[KeyphraseRecord]) -> Result<UpsertAck, OverlayError> {
        let overlay = self
            .overlay
            .as_ref()
            .ok_or_else(|| OverlayError::Invalid("overlay serving is not enabled".into()))?;
        let active = self.watch.current();
        self.rebase_overlay_if_swapped(overlay, &active);
        overlay.apply(active.engine.model(), records)
    }

    /// Overlay counters and depth (None when no overlay is attached).
    pub fn overlay_status(&self) -> Option<OverlayStatus> {
        self.overlay.as_ref().map(|o| o.status())
    }

    /// Exports the overlay journal for compaction (None when no overlay
    /// is attached): the serialized records a delta build folds into the
    /// next snapshot.
    pub fn export_overlay_journal(&self) -> Option<crate::overlay::OverlayJournal> {
        self.overlay.as_ref().map(|o| o.export_journal())
    }

    /// Drains overlay entries with sequence ≤ `upto` after a compaction
    /// publish absorbed them into the base snapshot (None when no
    /// overlay is attached). Late upserts that raced the compaction stay
    /// in the overlay and keep serving.
    pub fn drain_overlay(&self, upto: u64) -> Option<DrainReport> {
        let overlay = self.overlay.as_ref()?;
        let active = self.watch.current();
        // Record the base version *before* draining so a publish that
        // raced in is treated as already-rebased (drain recomposes
        // against it anyway).
        self.overlay_base.store(active.version, Ordering::Relaxed);
        Some(overlay.drain(active.engine.model(), upto))
    }

    /// Recomposes overlay views over the current snapshot if a hot swap
    /// landed since they were last built. Cheap when nothing changed
    /// (one relaxed load); the compare-exchange makes concurrent
    /// detectors rebase once.
    fn rebase_overlay_if_swapped(
        &self,
        overlay: &OverlayStore,
        active: &crate::registry::ActiveModel,
    ) {
        let seen = self.overlay_base.load(Ordering::Relaxed);
        if seen != active.version
            && self
                .overlay_base
                .compare_exchange(seen, active.version, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            overlay.rebase(active.engine.model());
        }
    }

    /// Records one deadline-exceeded refusal.
    pub fn note_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Registry version of the model serving right now (one watch read;
    /// cheaper than assembling a full [`ServeStats`] snapshot).
    pub fn snapshot_version(&self) -> u64 {
        self.watch.version()
    }

    /// Marks one request as executing until the returned guard drops;
    /// [`ServeStats::in_flight`] is the number of live guards.
    pub fn begin_request(&self) -> InFlightGuard<'_> {
        self.in_flight_gauge.fetch_add(1, Ordering::Relaxed);
        InFlightGuard { api: self }
    }

    /// The engine serving read-through inference *right now* (a cheap
    /// clone of the watched model's engine; holders keep that snapshot
    /// alive across swaps).
    pub fn engine(&self) -> Engine {
        self.watch.current().engine.clone()
    }

    /// Serves keyphrases for an item, computing on store miss — the
    /// classic three-argument entry, now a thin wrapper over
    /// [`ServingApi::serve_request`].
    pub fn serve(&self, item_id: u64, title: &str, leaf: LeafId) -> Served {
        self.serve_request(
            &InferRequest::new(title, leaf)
                .k(self.default_k)
                .id(item_id)
                .resolve_texts(true),
        )
    }

    /// Serves one envelope request.
    ///
    /// Requests with an [`InferRequest::id`] use it as the KV key: store
    /// hit when the stored answer is fresh for this title and leaf (module
    /// doc), else single-flight read-through with write-back. Requests
    /// without an id are computed directly and never stored (there is no
    /// key to store them under).
    ///
    /// Cache semantics for per-request overrides: the store holds *one*
    /// precomputed answer per item, ranked the way the model ranks, so a
    /// store hit (or a coalesced answer) serves that answer truncated to
    /// the request's `k`; a `k` larger than what was stored, or an
    /// alignment override, cannot re-rank a cached answer. On a miss, an
    /// answer computed under an alignment override or with the threshold
    /// group kept is served but never stored. Send the request id-less
    /// to force a fresh computation with full override fidelity.
    pub fn serve_request(&self, request: &InferRequest<'_>) -> Served {
        self.serve_request_traced(request, &mut graphex_core::StageTrace::disabled())
    }

    /// [`ServingApi::serve_request`] with stage spans recorded into
    /// `trace` (see [`ServingApi::serve_with`]). A disabled trace makes
    /// this the plain untraced path.
    pub fn serve_request_traced(
        &self,
        request: &InferRequest<'_>,
        trace: &mut graphex_core::StageTrace,
    ) -> Served {
        self.serve_with(request, trace, |answer| answer.into_served())
    }

    /// The serving routine: answers `request` as
    /// [`ServingApi::serve_request`] documents and hands the answer to
    /// `sink`, borrowed — a store hit reaches the sink as the store's own
    /// record, so a sink that writes the answer out copies nothing.
    ///
    /// Stage spans are recorded into `trace`: KV lookup (detail 1 = fresh
    /// hit served, 0 = miss/stale), single-flight wait, and the inference
    /// stages via [`graphex_core::Engine::infer_traced`].
    pub fn serve_with<R>(
        &self,
        request: &InferRequest<'_>,
        trace: &mut graphex_core::StageTrace,
        sink: impl FnOnce(Answer<'_>) -> R,
    ) -> R {
        let Some(item) = request.id else {
            let served = self.compute_traced(request, trace);
            self.count(served.source, served.outcome);
            return sink(Answer::Computed(served));
        };

        // One hash of the title per request: it decides every store read
        // below, keys the single flight and tags the write-back.
        let fingerprint = kv::fingerprint(request.leaf, request.title);
        let key = (item, fingerprint);
        // The title's words, hashed on first need: every freshness check
        // of this request shares them.
        let mut words = TitleWords::new(request.title);

        // Miss path: elect a leader for this item and title, or join an
        // existing flight. The loop re-enters only when the double-check
        // sees a completed leader, in which case the next store read hits.
        enum Role {
            Leader(Arc<Flight>),
            Follower(Arc<Flight>),
        }
        loop {
            // Resolve the serving version once per pass (and only under
            // the invalidate policy), so the freshness check below never
            // touches the watch's RwLock inside the inflight mutex.
            let wanted = Wanted {
                snapshot: match self.swap_policy {
                    SwapPolicy::Serve => None,
                    SwapPolicy::Invalidate => Some(self.watch.version()),
                },
                fingerprint,
                leaf: request.leaf,
            };
            let kv_start = trace.clock();
            let mut fresh_hit = None;
            if let Some(stored) = self.store.record(item) {
                // Anything stale falls through to the read-through path,
                // which overwrites the record (and re-tags it).
                match self.staleness(stored.tags(), &wanted, &mut words) {
                    Verdict::Fresh => fresh_hit = Some(stored),
                    Verdict::Verified(seq) => {
                        // Fresh through `seq`: say so on the record, so
                        // the next read takes the fast path.
                        self.store.retag(item, &stored, seq);
                        self.overlay_retagged.fetch_add(1, Ordering::Relaxed);
                        fresh_hit = Some(stored);
                    }
                    Verdict::Stale(Stale::Snapshot) => {
                        self.invalidated.fetch_add(1, Ordering::Relaxed);
                    }
                    Verdict::Stale(Stale::Overlay) => {
                        self.overlay_invalidated.fetch_add(1, Ordering::Relaxed);
                    }
                    Verdict::Stale(Stale::Revised) => {}
                }
            }
            match fresh_hit {
                Some(stored) => {
                    trace.record_detail(graphex_core::Stage::KvLookup, kv_start, 1);
                    self.count(ServeSource::Store, stored.outcome());
                    return sink(Answer::Hit {
                        record: &stored,
                        k: request.k,
                    });
                }
                None => trace.record_detail(graphex_core::Stage::KvLookup, kv_start, 0),
            }
            if !Self::stores(request) {
                // Computed under an override: served, never stored, and
                // never shared through a flight — a later plain request
                // must not be answered with another ranking.
                let served = self.compute_traced(request, trace);
                self.count(served.source, served.outcome);
                return sink(Answer::Computed(served));
            }
            let role = {
                let mut inflight = lock(&self.inflight);
                // Double-check under the map lock: the leader writes the
                // store *before* clearing its flight entry, so a concurrent
                // completion is visible here. Only a tag probe runs under
                // the global lock — the record fetch happens lock-free on
                // the next pass, so concurrent misses on distinct items
                // don't serialize on the store. The check is the same one
                // the read above made: a present-but-stale record does
                // *not* `continue` (the next pass would see it stale again
                // and loop forever); it proceeds to leader election so it
                // gets overwritten. The title's words hashed by the read
                // above are reused here.
                let tags = self.store.probe_tags(item);
                let fresh =
                    |tags| !matches!(self.staleness(tags, &wanted, &mut words), Verdict::Stale(_));
                if tags.is_some_and(fresh) {
                    continue;
                }
                if let Some(flight) = inflight.get(&key) {
                    Role::Follower(Arc::clone(flight))
                } else {
                    let flight = Arc::new(Flight::default());
                    inflight.insert(key, Arc::clone(&flight));
                    Role::Leader(flight)
                }
            };

            let served = match role {
                Role::Follower(flight) => {
                    let wait_start = trace.clock();
                    let mut served = flight.wait();
                    trace.record(graphex_core::Stage::SingleFlightWait, wait_start);
                    // Only a servable answer counts as coalescing;
                    // unservable stays `None` so callers' fallback logic is
                    // deterministic.
                    if served.source != ServeSource::None {
                        served.source = ServeSource::Coalesced;
                    }
                    // The leader computed with its own k; honour this
                    // request's budget where possible (see docs above).
                    served.keyphrases.truncate(request.k);
                    served.predictions.truncate(request.k);
                    served
                }
                Role::Leader(flight) => {
                    // Panic safety: if inference panics, the guard clears
                    // the flight entry and publishes an unservable answer,
                    // so followers unblock and later requests retry instead
                    // of joining a wedged flight forever.
                    let mut guard = LeaderGuard {
                        api: self,
                        key,
                        flight: &flight,
                        armed: true,
                    };
                    let served = self.compute_traced(request, trace);
                    if served.outcome.is_servable() {
                        let tags = Tags {
                            snapshot_version: served.snapshot_version,
                            overlay_epoch: served.overlay_epoch,
                            fingerprint,
                        };
                        self.store
                            .put_tagged(item, &served.keyphrases, served.outcome, tags);
                    }
                    // Store write is published; only now may new callers
                    // miss the flight entry (they re-check the store under
                    // the lock).
                    lock(&self.inflight).remove(&key);
                    // Followers cloned the handle under that lock and
                    // nobody can find the flight any more: a count of one
                    // means nobody waits, and the answer is not copied.
                    if Arc::strong_count(&flight) > 1 {
                        flight.publish(served.clone());
                    }
                    guard.armed = false;
                    served
                }
            };
            self.count(served.source, served.outcome);
            return sink(Answer::Computed(served));
        }
    }

    /// Serves a slice of requests, in order (Fig. 7's multi-item inference
    /// API call). Store hits are answered inline; the misses ride the same
    /// single-flight read-through path as [`ServingApi::serve_request`].
    pub fn serve_batch(&self, requests: &[InferRequest<'_>]) -> Vec<Served> {
        requests.iter().map(|r| self.serve_request(r)).collect()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServeStats {
            store_hits: load(&self.store_hits),
            read_throughs: load(&self.read_throughs),
            coalesced: load(&self.coalesced),
            direct: load(&self.direct),
            unservable: load(&self.unservable),
            invalidated: load(&self.invalidated),
            overlay_invalidated: load(&self.overlay_invalidated),
            overlay_retagged: load(&self.overlay_retagged),
            deadline_exceeded: load(&self.deadline_exceeded),
            in_flight: load(&self.in_flight_gauge),
            outcomes: graphex_core::OutcomeCounts {
                exact_leaf: load(&self.outcomes[Outcome::ExactLeaf.index()]),
                meta_fallback: load(&self.outcomes[Outcome::MetaFallback.index()]),
                unknown_leaf: load(&self.outcomes[Outcome::UnknownLeaf.index()]),
                empty: load(&self.outcomes[Outcome::Empty.index()]),
            },
            snapshot_version: self.watch.version(),
            model_swaps: self.watch.swap_count(),
        }
    }

    /// This api's report row: [`ServingApi::stats`], the store's
    /// footprint and [`ServingApi::overlay_status`].
    pub fn report(&self) -> ServeReport {
        ServeReport {
            stats: self.stats(),
            store_items: self.store.len() as u64,
            store_bytes: self.store.record_bytes() as u64,
            overlay: self.overlay_status(),
        }
    }

    /// The freshness rule: whether a record with these tags may answer a
    /// request. It may not, in order, when:
    ///
    /// * its fingerprint is another title's or leaf's — a revision;
    /// * under [`SwapPolicy::Invalidate`], another snapshot computed it
    ///   (records tagged 0, fixed-engine writes, are exempt);
    /// * an overlay upsert after its epoch can change it: one that created
    ///   the request's leaf, or one whose record carried a stemmed word of
    ///   the title ([`OverlayStore::freshness`]).
    ///
    /// An upsert to the leaf that carried no word of the title cannot
    /// change the answer (an overlaid leaf answers such a title exactly
    /// as before). So a record whose epoch predates only such upserts is
    /// served, and [`Verdict::Verified`] names the sequence it is now
    /// known fresh through. The overlay's records are monotone and
    /// survive drains, so records written by overlay-blind writers (epoch
    /// 0) go stale the moment an upsert that can change them lands, and
    /// never before. The fast path — no upsert to the leaf since the
    /// epoch — reads one sequence and tokenizes nothing; past it the
    /// title is tokenized once per request, into `words`.
    fn staleness(&self, tags: Tags, wanted: &Wanted, words: &mut TitleWords<'_>) -> Verdict {
        if tags.fingerprint != wanted.fingerprint {
            return Verdict::Stale(Stale::Revised);
        }
        if let Some(current) = wanted.snapshot {
            if tags.snapshot_version != 0 && tags.snapshot_version != current {
                return Verdict::Stale(Stale::Snapshot);
            }
        }
        let Some(overlay) = &self.overlay else {
            return Verdict::Fresh;
        };
        match overlay.freshness(wanted.leaf, tags.overlay_epoch, words) {
            Freshness::Fresh => Verdict::Fresh,
            Freshness::Verified(seq) => Verdict::Verified(seq),
            Freshness::Stale => Verdict::Stale(Stale::Overlay),
        }
    }

    /// Whether the answer to `request` goes to the store: a keyed
    /// request's, ranked the way the model ranks. An answer under an
    /// alignment override or with the whole threshold group kept would
    /// otherwise be served to every later plain request for the item.
    fn stores(request: &InferRequest<'_>) -> bool {
        request.id.is_some() && request.alignment.is_none() && !request.keep_threshold_group
    }

    /// Pure inference through the engine pool (no store interaction).
    /// Text resolution is forced for keyed requests (the store holds
    /// texts, and a keyed caller is served texts whether or not its
    /// answer is stored); id-less requests keep the caller's
    /// `resolve_texts` choice, matching the `Engine` trait behaviour.
    /// The returned [`Served::snapshot_version`] is the snapshot the
    /// inference actually ran on, so the write-back tags the record with
    /// the producing model even if a swap lands between compute and put.
    fn compute_traced(
        &self,
        request: &InferRequest<'_>,
        trace: &mut graphex_core::StageTrace,
    ) -> Served {
        let request = if request.id.is_some() {
            request.resolve_texts(true)
        } else {
            *request
        };
        // Resolve the model per computation: this is the hot-swap seam.
        // The `Arc` held here pins the snapshot for the whole inference.
        let active = self.watch.current();
        // Capture the overlay view (and its epoch) *before* inferring:
        // the epoch tags the write-back, and tagging with a view captured
        // after inference could claim upserts the answer never saw.
        let (view, overlay_epoch) = match &self.overlay {
            Some(overlay) => {
                self.rebase_overlay_if_swapped(overlay, &active);
                let view = overlay.view();
                let epoch = view.seq();
                (Some(view), epoch)
            }
            None => (None, 0),
        };
        let response = active.engine.infer_traced(&request, view.as_deref(), trace);
        let source = if !response.outcome.is_servable() {
            ServeSource::None
        } else if Self::stores(&request) {
            ServeSource::ReadThrough
        } else {
            ServeSource::Direct
        };
        Served {
            keyphrases: response.texts,
            source,
            outcome: response.outcome,
            predictions: response.predictions,
            snapshot_version: active.version,
            overlay_epoch,
        }
    }

    fn count(&self, source: ServeSource, outcome: Outcome) {
        let counter = match source {
            ServeSource::Store => &self.store_hits,
            ServeSource::ReadThrough => &self.read_throughs,
            ServeSource::Coalesced => &self.coalesced,
            ServeSource::Direct => &self.direct,
            ServeSource::None => &self.unservable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.outcomes[outcome.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// What a keyed request needs of a stored record to be answered from it
/// (see [`ServingApi::staleness`]).
struct Wanted {
    /// The serving snapshot under [`SwapPolicy::Invalidate`]; `None` under
    /// [`SwapPolicy::Serve`], which serves any snapshot's record.
    snapshot: Option<u64>,
    fingerprint: u64,
    leaf: LeafId,
}

/// Whether a stored record may answer a request (see
/// [`ServingApi::staleness`]).
enum Verdict {
    /// Serve it.
    Fresh,
    /// Serve it, and re-tag it with this overlay sequence: upserts to its
    /// leaf came after it, and none of them can change it.
    Verified(u64),
    /// Do not.
    Stale(Stale),
}

/// Why a stored record may not answer a request.
enum Stale {
    /// Computed for another title or leaf.
    Revised,
    /// Computed by another snapshot ([`SwapPolicy::Invalidate`] only).
    Snapshot,
    /// An upsert since can change it.
    Overlay,
}

/// A single flight's key: the item id and the request's
/// [`kv::fingerprint`], so a request never takes an answer computed for
/// another title of the same item.
type FlightKey = (u64, u64);

/// RAII marker for one executing request (see
/// [`ServingApi::begin_request`]): decrements the in-flight gauge on drop,
/// including on unwind.
pub struct InFlightGuard<'a> {
    api: &'a ServingApi,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.api.in_flight_gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Unwinding-safety net for the single-flight leader (see
/// [`ServingApi::serve_request`]): on panic, clear the in-flight entry and
/// wake followers with an unservable answer rather than wedging the item.
struct LeaderGuard<'a> {
    api: &'a ServingApi,
    key: FlightKey,
    flight: &'a Flight,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(&self.api.inflight).remove(&self.key);
            self.flight.publish(Served {
                keyphrases: Vec::new(),
                source: ServeSource::None,
                outcome: Outcome::Empty,
                predictions: Vec::new(),
                snapshot_version: 0,
                overlay_epoch: 0,
            });
        }
    }
}

impl KeyphraseService for ServingApi {
    /// Store-backed inference: freshly computed answers (read-through /
    /// coalesced / direct) carry full prediction attributes; store hits
    /// carry texts only — the KV store holds strings, not
    /// [`graphex_core::Prediction`]s.
    fn infer(&self, request: &InferRequest<'_>) -> InferResponse {
        let served = self.serve_request(request);
        InferResponse {
            id: request.id,
            outcome: served.outcome,
            predictions: served.predictions,
            texts: served.keyphrases,
        }
    }

    fn infer_batch(&self, requests: &[InferRequest<'_>]) -> Vec<InferResponse> {
        requests.iter().map(|r| self.infer(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphex_core::{Alignment, GraphExBuilder, GraphExConfig, KeyphraseRecord};

    fn model() -> Arc<GraphExModel> {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        Arc::new(
            GraphExBuilder::new(config)
                .add_record(KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5))
                .build()
                .unwrap(),
        )
    }

    /// What a precomputing writer (a batch pass) stores for a title.
    fn precomputed(store: &KvStore, item: u64, keyphrases: &[&str], title: &str, leaf: LeafId) {
        let keyphrases: Vec<String> = keyphrases.iter().map(|k| k.to_string()).collect();
        let tags = Tags {
            fingerprint: kv::fingerprint(leaf, title),
            ..Tags::default()
        };
        store.put_tagged(item, &keyphrases, Outcome::ExactLeaf, tags);
    }

    #[test]
    fn store_hit_is_served_verbatim() {
        let store = Arc::new(KvStore::new());
        precomputed(&store, 7, &["precomputed"], "widget gadget", LeafId(1));
        let api = ServingApi::new(model(), store, 10);
        let served = api.serve(7, "widget gadget", LeafId(1));
        assert_eq!(served.source, ServeSource::Store);
        assert_eq!(served.outcome, Outcome::ExactLeaf);
        assert_eq!(served.keyphrases, ["precomputed"]);
        assert_eq!(api.stats().store_hits, 1);
        assert_eq!(api.stats().outcomes.exact_leaf, 1);
        // A plain `put` carries no fingerprint, so no request is answered
        // from it.
        api.store()
            .put(8, vec!["unfingerprinted".into()], Outcome::ExactLeaf, 0);
        assert_eq!(
            api.serve(8, "widget gadget", LeafId(1)).source,
            ServeSource::ReadThrough
        );
    }

    #[test]
    fn miss_read_through_computes_and_writes_back() {
        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model(), store.clone(), 10);
        let served = api.serve(9, "widget gadget pro thing", LeafId(1));
        assert_eq!(served.source, ServeSource::ReadThrough);
        assert_eq!(served.outcome, Outcome::ExactLeaf);
        assert!(!served.keyphrases.is_empty());
        // Written back: second call hits the store with identical payload.
        let again = api.serve(9, "widget gadget pro thing", LeafId(1));
        assert_eq!(again.source, ServeSource::Store);
        assert_eq!(again.keyphrases, served.keyphrases);
        assert_eq!(again.outcome, served.outcome);
        let stats = api.stats();
        assert_eq!((stats.store_hits, stats.read_throughs), (1, 1));
        assert_eq!(stats.outcomes.exact_leaf, 2);
    }

    #[test]
    fn unservable_items_do_not_pollute_the_store() {
        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model(), store.clone(), 10);
        let served = api.serve(3, "no tokens match here", LeafId(999));
        assert_eq!(served.source, ServeSource::None);
        assert_eq!(served.outcome, Outcome::UnknownLeaf);
        assert!(served.keyphrases.is_empty());
        assert!(store.get(3).is_none());
        let stats = api.stats();
        assert_eq!(stats.unservable, 1);
        assert_eq!(stats.outcomes.unknown_leaf, 1);
    }

    #[test]
    fn per_request_k_overrides_the_default() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let model = Arc::new(
            GraphExBuilder::new(config)
                .add_records(vec![
                    KeyphraseRecord::new("widget gadget", LeafId(1), 90, 5),
                    KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5),
                    KeyphraseRecord::new("widget gadget pro max", LeafId(1), 30, 5),
                ])
                .build()
                .unwrap(),
        );
        let api = ServingApi::new(model, Arc::new(KvStore::new()), 10);
        let one = api.serve_request(
            &InferRequest::new("widget gadget pro max", LeafId(1))
                .k(1)
                .id(1),
        );
        assert_eq!(one.keyphrases.len(), 1);
        let all = api.serve_request(
            &InferRequest::new("widget gadget pro max", LeafId(1))
                .k(10)
                .id(2),
        );
        assert_eq!(all.keyphrases.len(), 3);
    }

    #[test]
    fn store_hit_truncates_to_request_k() {
        let store = Arc::new(KvStore::new());
        precomputed(&store, 7, &["a", "b", "c"], "ignored", LeafId(1));
        let api = ServingApi::new(model(), store, 10);
        let one = api.serve_request(&InferRequest::new("ignored", LeafId(1)).k(1).id(7));
        assert_eq!(one.source, ServeSource::Store);
        assert_eq!(one.keyphrases, ["a"]);
        // k larger than what was stored serves everything stored.
        let all = api.serve_request(&InferRequest::new("ignored", LeafId(1)).k(10).id(7));
        assert_eq!(all.keyphrases, ["a", "b", "c"]);
    }

    #[test]
    fn computed_answers_carry_prediction_attributes() {
        let api = ServingApi::new(model(), Arc::new(KvStore::new()), 10);
        let fresh =
            api.serve_request(&InferRequest::new("widget gadget pro", LeafId(1)).k(5).id(4));
        assert_eq!(fresh.source, ServeSource::ReadThrough);
        assert_eq!(fresh.predictions.len(), fresh.keyphrases.len());
        assert!(fresh.predictions[0].matched > 0);
        // The same item served again comes from the store: texts only.
        let hit = api.serve_request(&InferRequest::new("widget gadget pro", LeafId(1)).k(5).id(4));
        assert_eq!(hit.source, ServeSource::Store);
        assert!(hit.predictions.is_empty());
        assert_eq!(hit.keyphrases, fresh.keyphrases);
    }

    #[test]
    fn idless_requests_are_served_but_never_stored() {
        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model(), store.clone(), 10);
        let served = api.serve_request(
            &InferRequest::new("widget gadget pro", LeafId(1))
                .k(5)
                .resolve_texts(true),
        );
        assert_eq!(served.source, ServeSource::Direct);
        assert!(!served.keyphrases.is_empty());
        assert!(store.is_empty());
        assert_eq!(api.stats().direct, 1);
        // Without resolve_texts, id-less requests honour the caller's
        // choice (same contract as the raw Engine): predictions only.
        let ids_only = api.serve_request(&InferRequest::new("widget gadget pro", LeafId(1)).k(5));
        assert!(ids_only.keyphrases.is_empty());
        assert!(!ids_only.predictions.is_empty());
        assert_eq!(ids_only.outcome, Outcome::ExactLeaf);
    }

    #[test]
    fn serve_batch_mixes_hits_and_read_throughs() {
        let store = Arc::new(KvStore::new());
        precomputed(&store, 1, &["stored"], "irrelevant title", LeafId(1));
        let api = ServingApi::new(model(), store, 10);
        let requests = [
            InferRequest::new("irrelevant title", LeafId(1)).k(5).id(1), // hit
            InferRequest::new("widget gadget pro", LeafId(1)).k(5).id(2), // read-through
            InferRequest::new("nothing matches", LeafId(999)).k(5).id(3), // unservable
        ];
        let served = api.serve_batch(&requests);
        assert_eq!(served[0].source, ServeSource::Store);
        assert_eq!(served[0].keyphrases, ["stored"]);
        assert_eq!(served[1].source, ServeSource::ReadThrough);
        assert_eq!(served[2].source, ServeSource::None);
        let stats = api.stats();
        assert_eq!(
            (stats.store_hits, stats.read_throughs, stats.unservable),
            (1, 1, 1)
        );
    }

    #[test]
    fn keyphrase_service_trait_surface() {
        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model(), store, 10);
        let service: &dyn KeyphraseService = &api;
        let responses = service.infer_batch(&[
            InferRequest::new("widget gadget pro", LeafId(1))
                .k(5)
                .id(11),
            InferRequest::new("nothing", LeafId(999)).k(5).id(12),
        ]);
        assert_eq!(responses[0].outcome, Outcome::ExactLeaf);
        assert_eq!(responses[0].id, Some(11));
        assert!(!responses[0].texts.is_empty());
        assert_eq!(responses[1].outcome, Outcome::UnknownLeaf);
        assert!(responses[1].is_empty());
    }

    #[test]
    fn concurrent_serving() {
        let store = Arc::new(KvStore::new());
        let api = Arc::new(ServingApi::new(model(), store, 10));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let api = api.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let id = (t * 1000 + i) % 50; // force hit/miss mixture
                    let s = api.serve(id, "widget gadget pro", LeafId(1));
                    assert_ne!(s.source, ServeSource::None);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = api.stats();
        assert_eq!(
            stats.store_hits + stats.read_throughs + stats.coalesced,
            800,
            "every request answered from store, read-through, or coalescing"
        );
        assert_eq!(stats.outcomes.exact_leaf, 800);
    }

    /// Single-flight regression: a stampede of concurrent misses on one
    /// item must run inference and write the store exactly once — the KV
    /// version stays 1 no matter how many callers raced.
    #[test]
    fn read_through_stampede_bumps_version_once() {
        for _round in 0..20 {
            let store = Arc::new(KvStore::new());
            let api = Arc::new(ServingApi::new(model(), store.clone(), 10));
            let barrier = Arc::new(std::sync::Barrier::new(8));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let api = api.clone();
                let barrier = barrier.clone();
                handles.push(std::thread::spawn(move || {
                    barrier.wait();
                    api.serve(42, "widget gadget pro", LeafId(1))
                }));
            }
            let answers: Vec<Served> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // One write, no matter how the 8 callers interleaved.
            assert_eq!(
                store.get(42).unwrap().version,
                1,
                "stampede bumped the version"
            );
            // Everyone got the same keyphrases, each from a valid source.
            for s in &answers {
                assert_eq!(s.keyphrases, answers[0].keyphrases);
                assert_ne!(s.source, ServeSource::None);
            }
            let stats = api.stats();
            assert_eq!(stats.read_throughs, 1, "exactly one leader ran inference");
            assert_eq!(
                stats.read_throughs + stats.coalesced + stats.store_hits,
                8,
                "all callers accounted for"
            );
        }
    }

    /// Operators can see which model is serving: fixed apis report
    /// version 0; registry-backed apis follow publishes live.
    #[test]
    fn stats_expose_snapshot_version_and_swaps() {
        let fixed = ServingApi::new(model(), Arc::new(KvStore::new()), 10);
        assert_eq!(fixed.stats().snapshot_version, 0);
        assert_eq!(fixed.stats().model_swaps, 0);

        let root =
            std::env::temp_dir().join(format!("graphex-api-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let registry = crate::ModelRegistry::open(&root).unwrap();
        registry.publish(&model(), "first").unwrap();
        let api = ServingApi::with_watch(registry.watch().unwrap(), Arc::new(KvStore::new()), 10);
        let served = api.serve(1, "widget gadget pro", LeafId(1));
        assert_ne!(served.source, ServeSource::None);
        assert_eq!(api.stats().snapshot_version, 1);
        assert_eq!(api.stats().model_swaps, 0);

        // Republish: the api observes the swap without reconstruction.
        registry.publish(&model(), "second").unwrap();
        let served = api.serve(2, "widget gadget pro", LeafId(1));
        assert_ne!(served.source, ServeSource::None);
        assert_eq!(api.stats().snapshot_version, 2);
        assert_eq!(api.stats().model_swaps, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    /// PR 3 gotcha fix: under [`SwapPolicy::Invalidate`], a cached answer
    /// computed by a withdrawn snapshot is recomputed on the next request
    /// instead of being served forever; the default policy keeps the
    /// Fig. 7 serve-stale behaviour.
    #[test]
    fn invalidate_policy_recomputes_after_swap_and_rollback() {
        let root =
            std::env::temp_dir().join(format!("graphex-api-swap-policy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let registry = crate::ModelRegistry::open(&root).unwrap();
        registry.publish(&model(), "v1").unwrap();

        let store = Arc::new(KvStore::new());
        let api = ServingApi::with_watch(registry.watch().unwrap(), store.clone(), 10)
            .swap_policy(SwapPolicy::Invalidate);

        // Read-through under snapshot 1 tags the record.
        let first = api.serve(5, "widget gadget pro", LeafId(1));
        assert_eq!(first.source, ServeSource::ReadThrough);
        assert_eq!(store.get(5).unwrap().tags.snapshot_version, 1);
        // Same snapshot: a plain store hit.
        assert_eq!(
            api.serve(5, "widget gadget pro", LeafId(1)).source,
            ServeSource::Store
        );

        // Hot swap to snapshot 2: the cached record is stale, so the next
        // request recomputes and re-tags it.
        registry.publish(&model(), "v2").unwrap();
        let after_swap = api.serve(5, "widget gadget pro", LeafId(1));
        assert_eq!(after_swap.source, ServeSource::ReadThrough);
        assert_eq!(store.get(5).unwrap().tags.snapshot_version, 2);
        assert_eq!(
            store.get(5).unwrap().version,
            2,
            "record was overwritten once"
        );

        // Rollback to snapshot 1: the version-2 record is stale again —
        // a rollback cannot leave withdrawn-model answers serving.
        registry.rollback().unwrap();
        let after_rollback = api.serve(5, "widget gadget pro", LeafId(1));
        assert_eq!(after_rollback.source, ServeSource::ReadThrough);
        assert_eq!(store.get(5).unwrap().tags.snapshot_version, 1);
        let stats = api.stats();
        assert_eq!(stats.invalidated, 2);
        assert_eq!(stats.store_hits, 1);
        assert_eq!(stats.read_throughs, 3);

        // The default policy serves the cached answer across a swap.
        let lax_store = Arc::new(KvStore::new());
        let lax = ServingApi::with_watch(registry.watch().unwrap(), lax_store.clone(), 10);
        lax.serve(5, "widget gadget pro", LeafId(1));
        registry.publish(&model(), "v3").unwrap();
        assert_eq!(
            lax.serve(5, "widget gadget pro", LeafId(1)).source,
            ServeSource::Store
        );
        assert_eq!(lax.stats().invalidated, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// The frontend gauges ride `ServeStats`: the deadline-exceeded
    /// counter and the in-flight gauge with its RAII guard.
    #[test]
    fn frontend_gauges_are_recorded() {
        let api = ServingApi::new(model(), Arc::new(KvStore::new()), 10);
        assert_eq!(api.stats().in_flight, 0);
        {
            let _a = api.begin_request();
            let _b = api.begin_request();
            assert_eq!(api.stats().in_flight, 2);
        }
        assert_eq!(api.stats().in_flight, 0);
        api.note_deadline_exceeded();
        assert_eq!(api.stats().deadline_exceeded, 1);
    }

    /// The tentpole read-path property: an upsert is servable on the very
    /// next request, including for an item whose answer was already
    /// cached (the overlay epoch tag invalidates it), and for a leaf the
    /// base snapshot has never seen.
    #[test]
    fn upsert_is_servable_and_invalidates_cached_answers() {
        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model(), store.clone(), 10)
            .with_overlay(Arc::new(crate::overlay::OverlayStore::new()));

        // Cache an answer for item 7 before any upsert, under the title it
        // is asked for afterwards (so only the upsert can make it stale).
        let before = api.serve(7, "widget gadget ultra", LeafId(1));
        assert_eq!(before.source, ServeSource::ReadThrough);
        assert_eq!(store.get(7).unwrap().tags.overlay_epoch, 0);

        // Upsert a new keyphrase into leaf 1: the cached record is stale.
        let ack = api
            .apply_upsert(&[KeyphraseRecord::new(
                "widget gadget ultra",
                LeafId(1),
                999,
                1,
            )])
            .unwrap();
        assert_eq!(ack.seq, 1);
        let after = api.serve(7, "widget gadget ultra", LeafId(1));
        assert_eq!(
            after.source,
            ServeSource::ReadThrough,
            "cached answer was invalidated"
        );
        assert!(after.keyphrases.iter().any(|k| k == "widget gadget ultra"));
        assert_eq!(
            store.get(7).unwrap().tags.overlay_epoch,
            1,
            "write-back re-tagged the record"
        );
        assert_eq!(api.stats().overlay_invalidated, 1);

        // The re-tagged record is a plain store hit now.
        assert_eq!(
            api.serve(7, "widget gadget ultra", LeafId(1)).source,
            ServeSource::Store
        );

        // A brand-new leaf the snapshot never saw serves from the overlay.
        api.apply_upsert(&[KeyphraseRecord::new("quantum doohickey", LeafId(42), 50, 5)])
            .unwrap();
        let novel = api.serve(8, "quantum doohickey deluxe", LeafId(42));
        assert_eq!(novel.outcome, Outcome::ExactLeaf);
        assert_eq!(novel.keyphrases, ["quantum doohickey"]);
    }

    /// An upsert to a leaf stales only the cached answers whose titles
    /// share a stemmed word with it: any other is served from the store
    /// — verified once, re-tagged, and a plain fast-path hit after that.
    #[test]
    fn upsert_leaves_answers_it_cannot_change_in_the_store() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let model = Arc::new(
            GraphExBuilder::new(config)
                .add_records(vec![
                    KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5),
                    KeyphraseRecord::new("sprocket cog", LeafId(1), 70, 5),
                ])
                .build()
                .unwrap(),
        );
        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model, store.clone(), 10)
            .with_overlay(Arc::new(crate::overlay::OverlayStore::new()));
        let (widget, sprocket) = ("widget gadget pro", "sprocket cog");
        assert_eq!(
            api.serve(1, widget, LeafId(1)).source,
            ServeSource::ReadThrough
        );
        assert_eq!(
            api.serve(2, sprocket, LeafId(1)).source,
            ServeSource::ReadThrough
        );

        // A phrase of two words of item 1's title: item 2's answer stands.
        let ack = api
            .apply_upsert(&[KeyphraseRecord::new("gadget pro nrt1", LeafId(1), 999, 1)])
            .unwrap();
        let kept = api.serve(2, sprocket, LeafId(1));
        assert_eq!(kept.source, ServeSource::Store);
        assert_eq!(
            store.get(2).unwrap().tags.overlay_epoch,
            ack.seq,
            "re-tagged"
        );
        assert_eq!(store.get(2).unwrap().version, 1, "a re-tag is no write");
        assert_eq!(api.stats().overlay_retagged, 1);
        assert_eq!(api.serve(2, sprocket, LeafId(1)).source, ServeSource::Store);
        assert_eq!(
            api.stats().overlay_retagged,
            1,
            "the second hit takes the fast path"
        );

        let changed = api.serve(1, widget, LeafId(1));
        assert_eq!(changed.source, ServeSource::ReadThrough);
        assert!(changed.keyphrases.iter().any(|k| k == "gadget pro nrt1"));
        assert_eq!(api.stats().overlay_invalidated, 1);
    }

    /// An upsert that creates a leaf the base has no graph for changes
    /// every title's outcome in it: a cached meta-fallback answer goes
    /// stale though the upsert shares no word with its title.
    #[test]
    fn upsert_creating_a_leaf_stales_every_answer_in_it() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        let model = Arc::new(
            GraphExBuilder::new(config)
                .add_record(KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5))
                .build()
                .unwrap(),
        );
        let engine = Engine::new(model.clone());
        let overlay = Arc::new(crate::overlay::OverlayStore::new());
        let api =
            ServingApi::new(model, Arc::new(KvStore::new()), 10).with_overlay(overlay.clone());
        let title = "widget gadget pro";
        let fallback = api.serve(7, title, LeafId(42));
        assert_eq!(fallback.outcome, Outcome::MetaFallback);
        assert_eq!(api.serve(7, title, LeafId(42)).source, ServeSource::Store);

        api.apply_upsert(&[KeyphraseRecord::new("quantum doohickey", LeafId(42), 50, 5)])
            .unwrap();
        let after = api.serve(7, title, LeafId(42));
        let kernel = engine.infer_with_overlay(
            &InferRequest::new(title, LeafId(42))
                .k(10)
                .resolve_texts(true),
            Some(&overlay.view()),
        );
        assert_ne!(after.source, ServeSource::Store);
        assert_eq!(
            (after.outcome, &after.keyphrases),
            (kernel.outcome, &kernel.texts)
        );
        assert_eq!(after.outcome, Outcome::Empty);
    }

    /// An answer computed under an override is served but never stored: a
    /// JAC read-through for an item must not become the answer its later
    /// plain requests are served.
    #[test]
    fn override_answers_are_served_but_never_stored() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        // Title words widget, gadget, pro, max: "widget gadget" matches 2
        // of 2 (LTA 2, JAC 2/4), "widget pro max ultra" 3 of 4 (LTA 1.5,
        // JAC 3/5) — the two alignments rank them apart.
        let model = Arc::new(
            GraphExBuilder::new(config)
                .add_records(vec![
                    KeyphraseRecord::new("widget gadget", LeafId(1), 50, 5),
                    KeyphraseRecord::new("widget pro max ultra", LeafId(1), 50, 5),
                ])
                .build()
                .unwrap(),
        );
        let engine = Engine::new(model.clone());
        let title = "widget gadget pro max";
        let kernel = |request: InferRequest<'_>| engine.infer(&request.resolve_texts(true)).texts;
        let plain = kernel(InferRequest::new(title, LeafId(1)).k(10));
        let jac = kernel(
            InferRequest::new(title, LeafId(1))
                .k(10)
                .alignment(Alignment::Jac),
        );
        assert_eq!(plain.len(), 2);
        assert_ne!(
            plain, jac,
            "the title must rank differently under the two alignments"
        );

        let store = Arc::new(KvStore::new());
        let api = ServingApi::new(model, store.clone(), 10);
        let jac_served = api.serve_request(
            &InferRequest::new(title, LeafId(1))
                .k(10)
                .id(5)
                .alignment(Alignment::Jac),
        );
        assert_eq!(jac_served.keyphrases, jac);
        // The plain request that follows is answered the plain way.
        let served = api.serve(5, title, LeafId(1));
        assert_eq!(served.keyphrases, plain);
        assert_eq!(served.source, ServeSource::ReadThrough);
        assert_eq!(jac_served.source, ServeSource::Direct);
        // Keeping the threshold group is an override too.
        let grouped = api.serve_request(
            &InferRequest::new(title, LeafId(1))
                .k(1)
                .id(6)
                .keep_threshold_group(true),
        );
        assert_eq!(grouped.source, ServeSource::Direct);
        assert!(
            store.get(6).is_none(),
            "an override's answer reached the store"
        );
    }

    /// Draining after a compaction publish keeps answers stable: entries
    /// absorbed by the new snapshot leave the overlay, late upserts stay.
    #[test]
    fn drain_after_publish_keeps_late_upserts_serving() {
        let root =
            std::env::temp_dir().join(format!("graphex-api-overlay-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let registry = crate::ModelRegistry::open(&root).unwrap();
        registry.publish(&model(), "base").unwrap();
        let api = ServingApi::with_watch(registry.watch().unwrap(), Arc::new(KvStore::new()), 10)
            .with_overlay(Arc::new(crate::overlay::OverlayStore::new()));

        api.apply_upsert(&[KeyphraseRecord::new("quantum doohickey", LeafId(42), 50, 5)])
            .unwrap();
        let journal = api.export_overlay_journal().unwrap();
        assert_eq!(journal.upto, 1);

        // Compact: rebuild the union corpus and publish it, then drain.
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        let compacted = Arc::new(
            GraphExBuilder::new(config)
                .add_record(KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5))
                .add_records(journal.records())
                .build()
                .unwrap(),
        );
        // A late upsert races the publish; it must survive the drain.
        api.apply_upsert(&[KeyphraseRecord::new("late arrival", LeafId(42), 10, 1)])
            .unwrap();
        registry.publish(&compacted, "compacted").unwrap();
        let report = api.drain_overlay(journal.upto).unwrap();
        assert_eq!((report.drained, report.remaining), (1, 1));

        // Absorbed entry serves from the base snapshot now; the late one
        // still serves from the overlay.
        let absorbed = api.serve(1, "quantum doohickey", LeafId(42));
        assert_eq!(absorbed.keyphrases, ["quantum doohickey"]);
        let late = api.serve(2, "late arrival", LeafId(42));
        assert!(late.keyphrases.iter().any(|k| k == "late arrival"));
        assert_eq!(api.overlay_status().unwrap().depth, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Upserting through an api without an overlay is a typed error, and
    /// a full overlay sheds with the retryable cap error.
    #[test]
    fn upsert_errors_are_typed() {
        let api = ServingApi::new(model(), Arc::new(KvStore::new()), 10);
        assert!(matches!(
            api.apply_upsert(&[KeyphraseRecord::new("x y", LeafId(1), 1, 1)]),
            Err(OverlayError::Invalid(_))
        ));

        let tiny = ServingApi::new(model(), Arc::new(KvStore::new()), 10)
            .with_overlay(Arc::new(crate::overlay::OverlayStore::with_cap(16)));
        tiny.apply_upsert(&[KeyphraseRecord::new("fits", LeafId(1), 1, 1)])
            .ok();
        assert!(matches!(
            tiny.apply_upsert(&[KeyphraseRecord::new("over the cap now", LeafId(1), 1, 1)]),
            Err(OverlayError::CapExceeded { .. })
        ));
    }

    /// Sec. IV-H's NRT case: a seller revises an item's title, or moves
    /// it to another leaf, and the next request for the same id answers
    /// for the revision — under either swap policy, whether the old answer
    /// came from a read-through or from a batch pass.
    #[test]
    fn revised_title_or_leaf_is_served_fresh() {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        let model = Arc::new(
            GraphExBuilder::new(config)
                .add_records(vec![
                    KeyphraseRecord::new("widget gadget", LeafId(1), 90, 5),
                    KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5),
                    KeyphraseRecord::new("sprocket cog", LeafId(1), 70, 5),
                    KeyphraseRecord::new("sprocket cog deluxe", LeafId(2), 60, 5),
                ])
                .build()
                .unwrap(),
        );
        let engine = Engine::new(model.clone());
        let fresh = |title: &str, leaf: u32| {
            engine
                .infer(
                    &InferRequest::new(title, LeafId(leaf))
                        .k(10)
                        .resolve_texts(true),
                )
                .texts
        };
        let (original, revised) = ("widget gadget pro", "sprocket cog deluxe");
        assert_ne!(fresh(original, 1), fresh(revised, 1));
        assert_ne!(fresh(revised, 1), fresh(revised, 2));
        let script = [
            (original, 1),
            (revised, 1),
            (revised, 2),
            (original, 1),
            (original, 3),
        ];
        for policy in [SwapPolicy::Serve, SwapPolicy::Invalidate] {
            for prewarmed in [false, true] {
                let store = Arc::new(KvStore::new());
                if prewarmed {
                    let item = crate::batch::BatchItem {
                        id: 42,
                        title: original.into(),
                        leaf: LeafId(1),
                    };
                    crate::BatchPipeline::new(&model, &store, 10, 1).run_full(&[item]);
                }
                let api = ServingApi::new(model.clone(), store, 10).swap_policy(policy);
                for (step, &(title, leaf)) in script.iter().enumerate() {
                    let served = api.serve(42, title, LeafId(leaf));
                    assert_eq!(
                        served.keyphrases,
                        fresh(title, leaf),
                        "{policy:?}, prewarmed {prewarmed}, step {step}: {title:?} in leaf {leaf}"
                    );
                    // The batch pass fingerprinted its record the way the
                    // request does: the first ask is a store hit.
                    if prewarmed && step == 0 {
                        assert_eq!(served.source, ServeSource::Store);
                    }
                    // Asked again unchanged, the answer is the stored one.
                    let again = api.serve(42, title, LeafId(leaf));
                    assert_eq!(again.keyphrases, served.keyphrases);
                    if served.outcome.is_servable() {
                        assert_eq!(again.source, ServeSource::Store);
                    }
                }
            }
        }
    }

    /// Unservable single-flight: coalesced followers of an unservable
    /// leader also see an unservable answer, and nothing is stored.
    #[test]
    fn stampede_on_unservable_item_stores_nothing() {
        let store = Arc::new(KvStore::new());
        let api = Arc::new(ServingApi::new(model(), store.clone(), 10));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let api = api.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    api.serve(13, "zz qq", LeafId(999))
                })
            })
            .collect();
        for h in handles {
            let served = h.join().unwrap();
            assert!(served.keyphrases.is_empty());
            assert_eq!(served.outcome, Outcome::UnknownLeaf);
            // Unservable stays `None` even for coalesced followers, so
            // caller fallback logic never depends on race timing.
            assert_eq!(served.source, ServeSource::None);
        }
        assert!(store.is_empty());
        let stats = api.stats();
        assert_eq!(stats.unservable, 4);
        assert_eq!(stats.coalesced, 0);
    }
}
