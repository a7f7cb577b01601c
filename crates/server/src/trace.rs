//! The flight recorder: per-request trace ids, completed-trace retention,
//! and the trace expositions (`/debug/traces`, the `/statusz` block, the
//! `graphex_stage_latency_seconds` families).
//!
//! The hot-path recording itself lives in [`graphex_core::StageTrace`]
//! (pooled inside `Scratch`); this module is the *sink*. A request checks
//! a span buffer out of the recorder's pool ([`TraceRecorder::begin`]),
//! the serving layers fill it, and [`TraceRecorder::finish`] converts it
//! into an immutable [`TraceRecord`]: spans rebased to offsets from the
//! request origin, per-stage latency histograms fed, and the record
//! pushed onto two fixed-size rings — every completed trace on the
//! recent ring, plus a second ring holding only requests that crossed
//! the slow threshold (so one traffic burst cannot evict the evidence of
//! a tail-latency incident).
//!
//! Trace ids travel as 16-hex-digit strings in the `x-graphex-trace`
//! header: the scatter-gather router mints one per edge request and
//! sends it to every involved backend, so a router-level record embeds
//! each backend's stage breakdown under the same id.

use crate::json::Json;
use crate::metrics::LatencyHistogram;
use graphex_core::{Stage, StageTrace};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The request header (and response echo) carrying the trace id.
pub const TRACE_HEADER: &str = "x-graphex-trace";

/// Flight-recorder knobs.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master switch: `false` turns the whole layer off (requests carry
    /// no ids, record nothing, and skip every clock read).
    pub enabled: bool,
    /// Completed traces retained on the recent ring.
    pub ring: usize,
    /// Traces retained on the slow ring.
    pub slow_ring: usize,
    /// End-to-end latency at or above which a trace also lands on the
    /// slow ring.
    pub slow_threshold: Duration,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            ring: 256,
            slow_ring: 64,
            slow_threshold: Duration::from_millis(25),
        }
    }
}

/// One completed span, rebased to nanosecond offsets from the request
/// origin.
#[derive(Debug, Clone)]
pub struct OwnedSpan {
    pub stage: Stage,
    /// Offset of the span start from the request origin, in nanoseconds.
    pub start_nanos: u64,
    pub nanos: u64,
    pub detail: u64,
}

/// One backend's stage breakdown, embedded in a router-level trace.
#[derive(Debug, Clone)]
pub struct BackendTrace {
    pub shard: usize,
    pub addr: String,
    pub total_nanos: u64,
    pub spans: Vec<OwnedSpan>,
}

/// An immutable completed trace on the rings.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    pub id: u64,
    /// Fleet mode: the tenant the request resolved to.
    pub tenant: Option<String>,
    pub status: u16,
    /// Envelope entries answered (1 for single, batch size for batch).
    pub entries: usize,
    pub total_nanos: u64,
    pub spans: Vec<OwnedSpan>,
    pub backends: Vec<BackendTrace>,
}

impl TraceRecord {
    /// The wire form of the trace id (16 hex digits, as carried in the
    /// [`TRACE_HEADER`]).
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }

    /// Renders this record as the `/debug/traces` JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::str(self.id_hex())),
            ("status", Json::uint(u64::from(self.status))),
            ("entries", Json::uint(self.entries as u64)),
            ("total_us", Json::num(self.total_nanos as f64 / 1e3)),
            ("spans", spans_json(&self.spans)),
        ];
        if let Some(tenant) = &self.tenant {
            fields.insert(1, ("tenant", Json::str(tenant.clone())));
        }
        if !self.backends.is_empty() {
            fields.push((
                "backends",
                Json::Arr(
                    self.backends
                        .iter()
                        .map(|b| {
                            Json::obj(vec![
                                ("shard", Json::uint(b.shard as u64)),
                                ("addr", Json::str(b.addr.clone())),
                                ("total_us", Json::num(b.total_nanos as f64 / 1e3)),
                                ("spans", spans_json(&b.spans)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }
}

fn spans_json(spans: &[OwnedSpan]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("stage", Json::str(s.stage.name())),
                    ("start_us", Json::num(s.start_nanos as f64 / 1e3)),
                    ("us", Json::num(s.nanos as f64 / 1e3)),
                    ("detail", Json::uint(s.detail)),
                ])
            })
            .collect(),
    )
}

/// Parses a `"trace"` object (as produced by [`TraceRecord::to_json`],
/// minus the ring bookkeeping) embedded in a backend's response into a
/// [`BackendTrace`]. Unknown stages are skipped, not errors — a rolling
/// deploy may briefly mix span vocabularies across the cluster.
pub fn backend_trace_from_json(shard: usize, addr: &str, trace: &Json) -> Option<BackendTrace> {
    let total_nanos = (trace.get("total_us")?.as_f64()? * 1e3) as u64;
    let mut spans = Vec::new();
    if let Some(arr) = trace.get("spans").and_then(Json::as_arr) {
        for span in arr {
            let Some(stage) = span
                .get("stage")
                .and_then(Json::as_str)
                .and_then(Stage::from_name)
            else {
                continue;
            };
            spans.push(OwnedSpan {
                stage,
                start_nanos: (span.get("start_us").and_then(Json::as_f64).unwrap_or(0.0) * 1e3)
                    as u64,
                nanos: (span.get("us").and_then(Json::as_f64).unwrap_or(0.0) * 1e3) as u64,
                detail: span.get("detail").and_then(Json::as_u64).unwrap_or(0),
            });
        }
    }
    Some(BackendTrace {
        shard,
        addr: addr.to_string(),
        total_nanos,
        spans,
    })
}

/// Renders an in-progress trace as the embeddable `"trace"` object a
/// backend attaches to its response when the request carried a
/// [`TRACE_HEADER`] (id + end-to-end so far + spans so far). The router
/// parses it back with [`backend_trace_from_json`].
pub fn trace_json_inline(trace: &StageTrace, id: u64, total: Duration) -> Json {
    let t0 = trace.origin();
    let spans: Vec<Json> = trace
        .spans()
        .iter()
        .map(|s| {
            let start_nanos = t0
                .and_then(|t0| s.start.checked_duration_since(t0))
                .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64);
            Json::obj(vec![
                ("stage", Json::str(s.stage.name())),
                ("start_us", Json::num(start_nanos as f64 / 1e3)),
                ("us", Json::num(s.nanos as f64 / 1e3)),
                ("detail", Json::uint(s.detail)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("id", Json::str(format!("{id:016x}"))),
        ("total_us", Json::num(total.as_nanos() as f64 / 1e3)),
        ("spans", Json::Arr(spans)),
    ])
}

/// Parses a [`TRACE_HEADER`] value (16 hex digits) into a trace id.
pub fn parse_trace_id(value: &str) -> Option<u64> {
    let value = value.trim();
    if value.is_empty() || value.len() > 16 {
        return None;
    }
    u64::from_str_radix(value, 16).ok()
}

/// splitmix64: cheap, well-mixed id stream from a counter.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-process trace sink (one per server, one per router).
#[derive(Debug)]
pub struct TraceRecorder {
    config: TraceConfig,
    seed: u64,
    counter: AtomicU64,
    recorded: AtomicU64,
    slow: AtomicU64,
    stage_hist: [LatencyHistogram; Stage::ALL.len()],
    ring: Mutex<VecDeque<Arc<TraceRecord>>>,
    slow_ring: Mutex<VecDeque<Arc<TraceRecord>>>,
    /// Span-buffer pool for request paths with no `Scratch` of their own
    /// (the router, the frontend's outer loop).
    pool: Mutex<Vec<StageTrace>>,
}

impl TraceRecorder {
    pub fn new(config: TraceConfig) -> Self {
        // Seed the id stream per process so two backends never mint the
        // same ids (the router's ids still win end-to-end: backends echo
        // the header when present).
        let seed = mix(u64::from(std::process::id())
            ^ (std::ptr::addr_of!(BUCKET_SEED_ANCHOR) as u64).rotate_left(17));
        Self {
            config,
            seed,
            counter: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            stage_hist: std::array::from_fn(|_| LatencyHistogram::default()),
            ring: Mutex::new(VecDeque::new()),
            slow_ring: Mutex::new(VecDeque::new()),
            pool: Mutex::new(Vec::new()),
        }
    }

    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Mints a fresh trace id.
    pub fn mint_id(&self) -> u64 {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // Never 0: 0 reads as "no trace" in rendered output.
        mix(self.seed ^ n) | 1
    }

    /// Checks an armed span buffer out of the pool for a request whose
    /// origin is `t0`, minting an id unless the caller propagates one
    /// from the [`TRACE_HEADER`].
    pub fn begin(&self, t0: Instant, header_id: Option<u64>) -> (StageTrace, u64) {
        let mut trace = self.lock_pool().pop().unwrap_or_default();
        trace.arm(t0);
        (trace, header_id.unwrap_or_else(|| self.mint_id()))
    }

    /// Completes a trace: rebases spans to offsets from the origin, feeds
    /// the per-stage histograms, pushes the record onto the rings, and
    /// returns the span buffer to the pool. Returns the record so the
    /// caller can embed it in the response.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        mut trace: StageTrace,
        id: u64,
        tenant: Option<String>,
        status: u16,
        entries: usize,
        total: Duration,
        backends: Vec<BackendTrace>,
    ) -> Arc<TraceRecord> {
        let t0 = trace.origin().unwrap_or_else(Instant::now);
        let spans: Vec<OwnedSpan> = trace
            .spans()
            .iter()
            .map(|s| OwnedSpan {
                stage: s.stage,
                start_nanos: s
                    .start
                    .checked_duration_since(t0)
                    .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64),
                nanos: s.nanos,
                detail: s.detail,
            })
            .collect();
        for span in &spans {
            self.stage_hist[span.stage.index()].record(Duration::from_nanos(span.nanos));
        }
        for backend in &backends {
            for span in &backend.spans {
                self.stage_hist[span.stage.index()].record(Duration::from_nanos(span.nanos));
            }
        }
        trace.disarm();
        self.lock_pool().push(trace);

        let record = Arc::new(TraceRecord {
            id,
            tenant,
            status,
            entries,
            total_nanos: total.as_nanos().min(u128::from(u64::MAX)) as u64,
            spans,
            backends,
        });
        self.recorded.fetch_add(1, Ordering::Relaxed);
        push_ring(&self.ring, Arc::clone(&record), self.config.ring);
        if total >= self.config.slow_threshold {
            self.slow.fetch_add(1, Ordering::Relaxed);
            push_ring(&self.slow_ring, Arc::clone(&record), self.config.slow_ring);
        }
        record
    }

    /// Traces completed since boot.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Traces that crossed the slow threshold since boot.
    pub fn slow_count(&self) -> u64 {
        self.slow.load(Ordering::Relaxed)
    }

    /// Snapshot of a ring, newest first.
    pub fn recent(&self, slow: bool) -> Vec<Arc<TraceRecord>> {
        let ring = if slow { &self.slow_ring } else { &self.ring };
        let guard = ring.lock().unwrap_or_else(PoisonError::into_inner);
        guard.iter().rev().cloned().collect()
    }

    /// The `GET /debug/traces` body. Query grammar: `slow` selects the
    /// slow ring, `min_us=N` keeps traces at least that long end-to-end,
    /// `stage=<name>` keeps traces carrying a span of that stage (own or
    /// embedded backend spans — so a router waterfall query can target
    /// one hot stage), `limit=N` caps the count (newest first).
    pub fn render_debug(&self, query: Option<&str>) -> String {
        let mut slow = false;
        let mut min_us = 0u64;
        let mut limit = usize::MAX;
        let mut stage: Option<Stage> = None;
        let mut stage_raw = String::new();
        for part in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            match key {
                "slow" => slow = value.is_empty() || value == "1" || value == "true",
                "min_us" => min_us = value.parse().unwrap_or(0),
                "limit" => limit = value.parse().unwrap_or(usize::MAX),
                "stage" => {
                    stage = Stage::from_name(value);
                    stage_raw = value.to_string();
                }
                _ => {}
            }
        }
        // An unknown stage name filters everything (an empty, honest
        // answer) rather than silently ignoring the filter.
        let unknown_stage = !stage_raw.is_empty() && stage.is_none();
        let traces: Vec<Json> = self
            .recent(slow)
            .into_iter()
            .filter(|t| t.total_nanos >= min_us.saturating_mul(1000))
            .filter(|t| match stage {
                None => !unknown_stage,
                Some(stage) => {
                    t.spans.iter().any(|s| s.stage == stage)
                        || t.backends
                            .iter()
                            .any(|b| b.spans.iter().any(|s| s.stage == stage))
                }
            })
            .take(limit)
            .map(|t| t.to_json())
            .collect();
        Json::obj(vec![
            ("ring", Json::str(if slow { "slow" } else { "recent" })),
            ("recorded", Json::uint(self.recorded())),
            ("slow", Json::uint(self.slow_count())),
            (
                "slow_threshold_us",
                Json::num(self.config.slow_threshold.as_nanos() as f64 / 1e3),
            ),
            ("traces", Json::Arr(traces)),
        ])
        .render()
    }

    /// The `/statusz` trace block: ring occupancy plus per-stage count
    /// and quantile estimates.
    pub fn statusz_json(&self) -> Json {
        let ring_len = self
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        let slow_len = self
            .slow_ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        let stages: Vec<(&str, Json)> = Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let hist = &self.stage_hist[stage.index()];
                if hist.count() == 0 {
                    return None;
                }
                Some((
                    stage.name(),
                    Json::obj(vec![
                        ("count", Json::uint(hist.count())),
                        ("p50_us", Json::num(hist.quantile(0.50) * 1e6)),
                        ("p90_us", Json::num(hist.quantile(0.90) * 1e6)),
                        ("p99_us", Json::num(hist.quantile(0.99) * 1e6)),
                    ]),
                ))
            })
            .collect();
        Json::obj(vec![
            ("enabled", Json::Bool(self.config.enabled)),
            ("recorded", Json::uint(self.recorded())),
            ("slow", Json::uint(self.slow_count())),
            ("ring", Json::uint(ring_len as u64)),
            ("slow_ring", Json::uint(slow_len as u64)),
            (
                "slow_threshold_us",
                Json::num(self.config.slow_threshold.as_nanos() as f64 / 1e3),
            ),
            ("stages", Json::obj(stages)),
        ])
    }

    /// Per-stage `(name, count, p50 secs, p99 secs)` summaries for every
    /// stage that has recorded at least one span — what the history
    /// sampler snapshots into its ring each tick.
    pub fn stage_summaries(&self) -> Vec<(&'static str, u64, f64, f64)> {
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let hist = &self.stage_hist[stage.index()];
                let count = hist.count();
                (count > 0).then(|| {
                    (
                        stage.name(),
                        count,
                        hist.quantile(0.50),
                        hist.quantile(0.99),
                    )
                })
            })
            .collect()
    }

    /// Appends the trace metric families to a `/metrics` exposition: the
    /// recorder counters plus one `graphex_stage_latency_seconds`
    /// histogram family with a `stage` label per recorded stage.
    pub fn render_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE graphex_traces_recorded_total counter");
        let _ = writeln!(out, "graphex_traces_recorded_total {}", self.recorded());
        let _ = writeln!(out, "# TYPE graphex_traces_slow_total counter");
        let _ = writeln!(out, "graphex_traces_slow_total {}", self.slow_count());
        let _ = writeln!(out, "# TYPE graphex_stage_latency_seconds histogram");
        for stage in Stage::ALL {
            let hist = &self.stage_hist[stage.index()];
            if hist.count() == 0 {
                continue;
            }
            hist.render_series(
                "graphex_stage_latency_seconds",
                &format!("stage=\"{}\"", stage.name()),
                out,
            );
        }
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<StageTrace>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Address anchor for the id seed (see [`TraceRecorder::new`]).
static BUCKET_SEED_ANCHOR: u8 = 0;

fn push_ring(ring: &Mutex<VecDeque<Arc<TraceRecord>>>, record: Arc<TraceRecord>, cap: usize) {
    if cap == 0 {
        return;
    }
    let mut guard = ring.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.len() >= cap {
        guard.pop_front();
    }
    guard.push_back(record);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(slow_ms: u64) -> TraceRecorder {
        TraceRecorder::new(TraceConfig {
            enabled: true,
            ring: 4,
            slow_ring: 2,
            slow_threshold: Duration::from_millis(slow_ms),
        })
    }

    fn finish_one(r: &TraceRecorder, total: Duration) -> Arc<TraceRecord> {
        let t0 = Instant::now();
        let (mut trace, id) = r.begin(t0, None);
        trace.record_span(Stage::Parse, t0, Duration::from_micros(10), 0);
        trace.record_span(Stage::Serialize, t0, Duration::from_micros(5), 0);
        r.finish(trace, id, None, 200, 1, total, Vec::new())
    }

    #[test]
    fn ids_are_unique_nonzero_and_hex_round_trip() {
        let r = recorder(25);
        let a = r.mint_id();
        let b = r.mint_id();
        assert_ne!(a, b);
        assert_ne!(a, 0);
        let hex = format!("{a:016x}");
        assert_eq!(parse_trace_id(&hex), Some(a));
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("zz"), None);
        assert_eq!(parse_trace_id("00000000000000001"), None); // 17 digits
    }

    #[test]
    fn rings_cap_and_order_newest_first() {
        let r = recorder(1000);
        let ids: Vec<u64> = (0..6)
            .map(|_| finish_one(&r, Duration::from_micros(100)).id)
            .collect();
        let recent = r.recent(false);
        assert_eq!(recent.len(), 4); // capped
        assert_eq!(recent[0].id, ids[5]); // newest first
        assert_eq!(recent[3].id, ids[2]);
        assert!(r.recent(true).is_empty()); // nothing crossed 1s
        assert_eq!(r.recorded(), 6);
        assert_eq!(r.slow_count(), 0);
    }

    #[test]
    fn slow_ring_captures_threshold_crossers() {
        let r = recorder(1);
        finish_one(&r, Duration::from_micros(100)); // fast
        let slow = finish_one(&r, Duration::from_millis(5));
        assert_eq!(r.slow_count(), 1);
        let ring = r.recent(true);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].id, slow.id);
    }

    #[test]
    fn debug_rendering_filters_by_min_us_and_limit() {
        let r = recorder(1);
        finish_one(&r, Duration::from_micros(50));
        finish_one(&r, Duration::from_millis(10));
        let all = r.render_debug(None);
        assert_eq!(all.matches("\"id\"").count(), 2, "{all}");
        let filtered = r.render_debug(Some("min_us=1000"));
        assert_eq!(filtered.matches("\"id\"").count(), 1, "{filtered}");
        let slow = r.render_debug(Some("slow&limit=1"));
        assert_eq!(slow.matches("\"id\"").count(), 1, "{slow}");
        assert!(
            slow.contains("\"ring\": \"slow\"") || slow.contains("\"ring\":\"slow\""),
            "{slow}"
        );
        // Valid JSON end to end.
        assert!(crate::json::parse(&all).is_ok());
    }

    #[test]
    fn finish_feeds_stage_histograms_and_statusz() {
        let r = recorder(25);
        finish_one(&r, Duration::from_micros(200));
        let block = r.statusz_json().render();
        assert!(block.contains("\"parse\""), "{block}");
        assert!(block.contains("\"serialize\""), "{block}");
        assert!(!block.contains("\"traversal\""), "{block}"); // unrecorded stage omitted
        let mut metrics = String::new();
        r.render_metrics(&mut metrics);
        assert_eq!(
            metrics
                .matches("# TYPE graphex_stage_latency_seconds")
                .count(),
            1
        );
        assert!(
            metrics.contains("graphex_stage_latency_seconds_count{stage=\"parse\"} 1"),
            "{metrics}"
        );
    }

    #[test]
    fn backend_trace_round_trips_through_json() {
        let r = recorder(25);
        let t0 = Instant::now();
        let (mut trace, id) = r.begin(t0, parse_trace_id("00000000000000ab"));
        assert_eq!(id, 0xab);
        trace.record_span(Stage::Traversal, t0, Duration::from_micros(40), 0);
        let record = r.finish(
            trace,
            id,
            None,
            200,
            1,
            Duration::from_micros(90),
            Vec::new(),
        );
        let json = record.to_json();
        let parsed = backend_trace_from_json(2, "127.0.0.1:9", &json).expect("parsable");
        assert_eq!(parsed.shard, 2);
        assert_eq!(parsed.total_nanos, 90_000);
        assert_eq!(parsed.spans.len(), 1);
        assert_eq!(parsed.spans[0].stage, Stage::Traversal);
        assert_eq!(parsed.spans[0].nanos, 40_000);
    }
}
