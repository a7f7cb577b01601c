//! Stage-level request tracing: the span vocabulary and the pooled,
//! allocation-free span buffer threaded through the inference hot path.
//!
//! The serving stack (router → HTTP frontend → `ServingApi` → engine →
//! overlay) records one [`SpanRec`] per *stage* of a request into a
//! [`StageTrace`] that lives inside the pooled [`crate::Scratch`] — so a
//! traced request allocates nothing extra at steady state (the span `Vec`
//! reaches its high-water mark after a handful of requests, exactly like
//! the other scratch buffers). A disabled `StageTrace` records nothing and
//! never reads the clock, so untraced paths pay a single branch per stage.
//!
//! Stages are strictly **non-overlapping** at the top level: when the
//! overlay path runs the mini-graph inference, the nested traversal and
//! ranking spans are suppressed ([`StageTrace::suspend`]) and the whole
//! consult is reported as one [`Stage::OverlayConsult`] span. That
//! invariant is what lets the flight recorder assert
//! `sum(stage spans) ≈ end-to-end latency` per trace.

use std::time::{Duration, Instant};

/// The request stages a trace can attribute time to, in rough hot-path
/// order. The wire names (snake_case, [`Stage::name`]) are the label
/// values of the `graphex_stage_latency_seconds` Prometheus family and
/// the `stage` fields under `/debug/traces`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Time the connection sat in the bounded accept queue before a
    /// worker picked it up (first request on a connection only).
    QueueWait,
    /// HTTP body UTF-8 + JSON parse + envelope decode.
    Parse,
    /// KV store lookup including freshness checks. `detail` is 1 when the
    /// lookup produced a fresh hit that was served, 0 on miss/stale.
    KvLookup,
    /// Follower blocked on a leader's in-flight computation.
    SingleFlightWait,
    /// Overlay mini-graph consult that answered the request. `detail` is
    /// the overlaid leaf id.
    OverlayConsult,
    /// Graph enumeration: token → label fan-out plus count-group pruning
    /// and candidate generation (Algorithm 1).
    Traversal,
    /// Candidate ranking: ranking keys, selection of the `k` returned,
    /// their sort, and the copy out (Sec. III-E2).
    Ranking,
    /// Response envelope construction and JSON rendering.
    Serialize,
    /// Router-side scatter-gather dispatch to one backend shard.
    /// `detail` is the shard index.
    Fanout,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 9] = [
        Stage::QueueWait,
        Stage::Parse,
        Stage::KvLookup,
        Stage::SingleFlightWait,
        Stage::OverlayConsult,
        Stage::Traversal,
        Stage::Ranking,
        Stage::Serialize,
        Stage::Fanout,
    ];

    /// Dense index into per-stage arrays (histograms, counters).
    pub fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Parse => 1,
            Stage::KvLookup => 2,
            Stage::SingleFlightWait => 3,
            Stage::OverlayConsult => 4,
            Stage::Traversal => 5,
            Stage::Ranking => 6,
            Stage::Serialize => 7,
            Stage::Fanout => 8,
        }
    }

    /// Wire name (Prometheus label value / JSON `stage` field).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Parse => "parse",
            Stage::KvLookup => "kv_lookup",
            Stage::SingleFlightWait => "single_flight_wait",
            Stage::OverlayConsult => "overlay_consult",
            Stage::Traversal => "traversal",
            Stage::Ranking => "ranking",
            Stage::Serialize => "serialize",
            Stage::Fanout => "fanout",
        }
    }

    /// Inverse of [`Stage::name`]; used when parsing embedded backend
    /// traces out of a router response.
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// One recorded span: a stage, its start offset (as an [`Instant`], later
/// rebased against the trace origin), its duration, and a stage-specific
/// detail word (hit/miss flag, leaf id, shard index — see [`Stage`]).
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub stage: Stage,
    pub start: Instant,
    pub nanos: u64,
    pub detail: u64,
}

/// Upper bound on spans per trace — a safety valve against a pathological
/// batch; far above anything a `MAX_BATCH`-sized envelope can produce.
const MAX_SPANS: usize = 8192;

/// The pooled span buffer.
///
/// Disabled by default (and after [`Default`]); the serving layer arms it
/// per request when tracing is on. All record paths are `#[inline]` and
/// reduce to one branch when disabled.
#[derive(Debug, Default)]
pub struct StageTrace {
    enabled: bool,
    t0: Option<Instant>,
    spans: Vec<SpanRec>,
}

impl StageTrace {
    /// A trace that records nothing — the untraced hot path.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Arms the buffer for a new request whose origin is `t0`. Clears any
    /// previous spans; capacity is retained (pooled, allocation-free at
    /// steady state).
    pub fn arm(&mut self, t0: Instant) {
        self.enabled = true;
        self.t0 = Some(t0);
        self.spans.clear();
    }

    /// Disarms without dropping capacity, returning the buffer to its
    /// pooled idle state.
    pub fn disarm(&mut self) {
        self.enabled = false;
        self.t0 = None;
        self.spans.clear();
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Trace origin, if armed.
    pub fn origin(&self) -> Option<Instant> {
        self.t0
    }

    /// Reads the clock only when armed. Stage hooks call this once at the
    /// stage boundary and pass the result to [`StageTrace::record`], so a
    /// disabled trace costs two branches and zero syscalls per stage.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.enabled { Some(Instant::now()) } else { None }
    }

    /// Records `stage` as spanning `start ..= now`.
    #[inline]
    pub fn record(&mut self, stage: Stage, start: Option<Instant>) {
        self.record_detail(stage, start, 0);
    }

    /// [`StageTrace::record`] with a stage-specific detail word.
    #[inline]
    pub fn record_detail(&mut self, stage: Stage, start: Option<Instant>, detail: u64) {
        if let Some(start) = start {
            if self.enabled {
                let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.push(SpanRec { stage, start, nanos, detail });
            }
        }
    }

    /// Records a span with an explicit duration — used to back-date the
    /// accept-queue wait, which ended before the trace was armed.
    #[inline]
    pub fn record_span(&mut self, stage: Stage, start: Instant, duration: Duration, detail: u64) {
        if self.enabled {
            let nanos = duration.as_nanos().min(u128::from(u64::MAX)) as u64;
            self.push(SpanRec { stage, start, nanos, detail });
        }
    }

    fn push(&mut self, span: SpanRec) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        }
    }

    /// Temporarily disables recording (for nested work already covered by
    /// an enclosing span). Returns the previous state for
    /// [`StageTrace::resume`].
    #[inline]
    pub fn suspend(&mut self) -> bool {
        std::mem::replace(&mut self.enabled, false)
    }

    /// Restores the recording state captured by [`StageTrace::suspend`].
    #[inline]
    pub fn resume(&mut self, was_enabled: bool) {
        self.enabled = was_enabled;
    }

    /// The spans recorded so far, in record order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_skips_clock() {
        let mut t = StageTrace::disabled();
        assert!(t.clock().is_none());
        t.record(Stage::Parse, Some(Instant::now()));
        t.record_span(Stage::QueueWait, Instant::now(), Duration::from_millis(1), 0);
        assert!(t.spans().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn armed_trace_records_spans_with_detail() {
        let mut t = StageTrace::disabled();
        let t0 = Instant::now();
        t.arm(t0);
        assert!(t.is_enabled());
        assert_eq!(t.origin(), Some(t0));
        let start = t.clock();
        assert!(start.is_some());
        t.record_detail(Stage::KvLookup, start, 1);
        t.record_span(Stage::QueueWait, t0, Duration::from_micros(250), 0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].stage, Stage::KvLookup);
        assert_eq!(t.spans()[0].detail, 1);
        assert_eq!(t.spans()[1].nanos, 250_000);
    }

    #[test]
    fn rearm_clears_previous_spans() {
        let mut t = StageTrace::disabled();
        t.arm(Instant::now());
        t.record(Stage::Parse, t.clock());
        assert_eq!(t.spans().len(), 1);
        t.arm(Instant::now());
        assert!(t.spans().is_empty());
        t.disarm();
        assert!(!t.is_enabled());
    }

    #[test]
    fn suspend_suppresses_nested_spans() {
        let mut t = StageTrace::disabled();
        t.arm(Instant::now());
        let saved = t.suspend();
        assert!(saved);
        t.record(Stage::Traversal, Some(Instant::now()));
        assert!(t.spans().is_empty());
        t.resume(saved);
        t.record(Stage::Ranking, t.clock());
        assert_eq!(t.spans().len(), 1);
        // Suspending a disabled trace stays disabled on resume.
        let mut d = StageTrace::disabled();
        let saved = d.suspend();
        d.resume(saved);
        assert!(!d.is_enabled());
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::from_name(stage.name()), Some(stage));
            assert_eq!(Stage::ALL[stage.index()], stage);
        }
        assert_eq!(Stage::from_name("bogus"), None);
    }
}
