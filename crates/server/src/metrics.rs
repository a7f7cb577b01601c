//! Server-side observability: request/outcome counters, a fixed-bucket
//! latency histogram, and the `/metrics` Prometheus text rendering.
//!
//! Everything is lock-free on the hot path except the per-response status
//! tally (one short mutexed map update per request — noise next to an
//! inference). The serving-layer counters (store hits, outcomes, shed,
//! in-flight) live in [`graphex_serving::ServeStats`] and are merged in at
//! render time, so `/metrics` and `/statusz` agree by construction.

use graphex_serving::{OverlayStatus, ServeStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Histogram bucket upper bounds, in seconds (Prometheus `le` labels).
/// Spans 100 µs (a warm store hit) to 1 s (pathological queueing).
pub const BUCKET_BOUNDS: [f64; 11] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 1.0,
];

/// Cumulative-style latency histogram (buckets are recorded sparse and
/// accumulated at render time, like Prometheus expects).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1], // last = +Inf
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    pub fn record(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| secs <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (0..=1) in seconds by linear
    /// interpolation inside the bucket the target rank falls in — the
    /// same estimate Prometheus' `histogram_quantile` computes. Returns 0
    /// for an empty histogram; observations past the last bound clamp to
    /// it (the estimate cannot exceed the largest finite bucket bound).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            let before = cumulative;
            cumulative += in_bucket;
            if cumulative >= target {
                let lower = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
                let upper = BUCKET_BOUNDS
                    .get(i)
                    .copied()
                    .unwrap_or(BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]);
                if in_bucket == 0 || upper <= lower {
                    return upper;
                }
                let frac = (target - before) as f64 / in_bucket as f64;
                return lower + (upper - lower) * frac;
            }
        }
        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]
    }

    fn render(&self, name: &str, out: &mut String) {
        let _ = writeln!(out, "# TYPE {name} histogram");
        self.render_series(name, "", out);
    }

    /// Renders this histogram's `_bucket`/`_sum`/`_count` series with
    /// `labels` spliced into every brace set (empty for an unlabeled
    /// family) — no `# TYPE` header, so several labeled histograms can
    /// share one family (e.g. `graphex_stage_latency_seconds{stage=...}`).
    pub fn render_series(&self, name: &str, labels: &str, out: &mut String) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.buckets[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        if labels.is_empty() {
            let _ = writeln!(out, "{name}_sum {sum}");
            let _ = writeln!(out, "{name}_count {}", self.count.load(Ordering::Relaxed));
        } else {
            let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
            let _ = writeln!(
                out,
                "{name}_count{{{labels}}} {}",
                self.count.load(Ordering::Relaxed)
            );
        }
    }
}

/// The endpoint label a response is tallied under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    Infer,
    /// `POST /v1/upsert` (and tenant-scoped variants): the NRT overlay
    /// write path.
    Upsert,
    /// Overlay maintenance: journal export and post-compaction drain.
    Overlay,
    Healthz,
    Statusz,
    Metrics,
    /// `GET /debug/traces`: the flight-recorder dump.
    Traces,
    /// `GET /debug/history`: the telemetry-history ring dump.
    History,
    /// Unknown paths/methods (404/405/parse errors).
    Other,
}

impl Endpoint {
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Infer => "infer",
            Endpoint::Upsert => "upsert",
            Endpoint::Overlay => "overlay",
            Endpoint::Healthz => "healthz",
            Endpoint::Statusz => "statusz",
            Endpoint::Metrics => "metrics",
            Endpoint::Traces => "traces",
            Endpoint::History => "history",
            Endpoint::Other => "other",
        }
    }
}

/// The overlay metric families: `(name, prometheus type, extractor)`.
/// One table shared by the single-tenant and fleet expositions so the
/// family names cannot drift apart.
type OverlayFamily = (&'static str, &'static str, fn(&OverlayStatus) -> u64);
const OVERLAY_FAMILIES: [OverlayFamily; 11] = [
    ("graphex_overlay_depth", "gauge", |s| s.depth as u64),
    ("graphex_overlay_journal_bytes", "gauge", |s| {
        s.journal_bytes as u64
    }),
    ("graphex_overlay_cap_bytes", "gauge", |s| s.cap_bytes as u64),
    ("graphex_overlay_leaves", "gauge", |s| s.leaves as u64),
    ("graphex_overlay_seq", "gauge", |s| s.seq),
    ("graphex_overlay_drained_upto", "gauge", |s| s.drained_upto),
    ("graphex_overlay_upserts_total", "counter", |s| {
        s.upserts_applied
    }),
    ("graphex_overlay_records_total", "counter", |s| {
        s.records_applied
    }),
    ("graphex_overlay_shed_total", "counter", |s| s.upserts_shed),
    ("graphex_overlay_drains_total", "counter", |s| s.drains),
    // rate(apply_micros_total) / rate(upserts_total) = mean apply time.
    ("graphex_overlay_apply_micros_total", "counter", |s| {
        s.apply_micros_total
    }),
];

/// Appends the overlay gauge/counter families for a set of labeled
/// [`OverlayStatus`] rows. Each row's label string is spliced verbatim
/// inside the braces (empty for single-tenant mode, `tenant="acme"` in
/// fleet mode); all rows of a family render under one `# TYPE` header.
pub fn render_overlay_families(rows: &[(String, OverlayStatus)], out: &mut String) {
    if rows.is_empty() {
        return;
    }
    for (name, kind, extract) in OVERLAY_FAMILIES {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, status) in rows {
            if labels.is_empty() {
                let _ = writeln!(out, "{name} {}", extract(status));
            } else {
                let _ = writeln!(out, "{name}{{{labels}}} {}", extract(status));
            }
        }
    }
}

/// Mutable server metrics, shared across workers.
#[derive(Debug, Default)]
pub struct HttpMetrics {
    /// (endpoint, status) → responses sent.
    responses: Mutex<BTreeMap<(Endpoint, u16), u64>>,
    /// End-to-end request latency (read complete → response written),
    /// inference endpoints only.
    pub infer_latency: LatencyHistogram,
    /// Connections accepted (including ones later shed).
    pub connections_accepted: AtomicU64,
    /// Connections refused 429 at admission.
    pub connections_shed: AtomicU64,
}

impl HttpMetrics {
    pub fn record_response(&self, endpoint: Endpoint, status: u16) {
        let mut map = self
            .responses
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *map.entry((endpoint, status)).or_insert(0) += 1;
    }

    /// Total responses with a 5xx status (the "failed requests" gate).
    pub fn server_errors(&self) -> u64 {
        let map = self
            .responses
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.iter()
            .filter(|((_, s), _)| (500..600).contains(s))
            .map(|(_, n)| n)
            .sum()
    }

    /// Responses tallied for one (endpoint, status) pair.
    pub fn responses_for(&self, endpoint: Endpoint, status: u16) -> u64 {
        let map = self
            .responses
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.get(&(endpoint, status)).copied().unwrap_or(0)
    }

    /// Renders the HTTP-layer metric families only (request tallies,
    /// connection counters, queue gauge, latency histogram) — the part
    /// shared by the backend frontend and the cluster router, which has
    /// no [`ServeStats`] of its own.
    pub fn render_http_families(&self, queue_depth: usize, out: &mut String) {
        let _ = writeln!(out, "# TYPE graphex_http_requests_total counter");
        {
            let map = self
                .responses
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for ((endpoint, status), n) in map.iter() {
                let _ = writeln!(
                    out,
                    "graphex_http_requests_total{{endpoint=\"{}\",code=\"{status}\"}} {n}",
                    endpoint.label()
                );
            }
        }
        let _ = writeln!(
            out,
            "# TYPE graphex_http_connections_accepted_total counter"
        );
        let _ = writeln!(
            out,
            "graphex_http_connections_accepted_total {}",
            self.connections_accepted.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE graphex_http_shed_total counter");
        let _ = writeln!(
            out,
            "graphex_http_shed_total {}",
            self.connections_shed.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "# TYPE graphex_http_queue_depth gauge");
        let _ = writeln!(out, "graphex_http_queue_depth {queue_depth}");

        self.infer_latency
            .render("graphex_request_duration_seconds", out);
    }
}

/// Appends the fleet-mode serving families: per-tenant serving counters
/// (every family carries a `tenant` label; cold tenants keep exporting
/// their folded lifetime counters so eviction never zeroes a time
/// series).
pub fn render_fleet_families(fleet: &graphex_serving::TenantFleet, out: &mut String) {
    let tenants = fleet.list();
    let _ = writeln!(out, "# TYPE graphex_fleet_resident gauge");
    let _ = writeln!(
        out,
        "graphex_fleet_resident {}",
        tenants.iter().filter(|t| t.resident).count()
    );
    let _ = writeln!(out, "# TYPE graphex_fleet_resident_cap gauge");
    let _ = writeln!(
        out,
        "graphex_fleet_resident_cap {}",
        fleet.config().resident_cap
    );
    let _ = writeln!(out, "# TYPE graphex_fleet_resident_bytes gauge");
    let _ = writeln!(
        out,
        "graphex_fleet_resident_bytes {}",
        tenants.iter().map(|t| t.resident_bytes).sum::<u64>()
    );

    let _ = writeln!(out, "# TYPE graphex_tenant_resident gauge");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_tenant_resident{{tenant=\"{}\"}} {}",
            t.name,
            u8::from(t.resident)
        );
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_resident_bytes gauge");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_tenant_resident_bytes{{tenant=\"{}\"}} {}",
            t.name, t.resident_bytes
        );
    }
    let _ = writeln!(out, "# TYPE graphex_store_items gauge");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_store_items{{tenant=\"{}\"}} {}",
            t.name, t.store_items
        );
    }
    let _ = writeln!(out, "# TYPE graphex_store_bytes gauge");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_store_bytes{{tenant=\"{}\"}} {}",
            t.name, t.store_bytes
        );
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_snapshot_version gauge");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_tenant_snapshot_version{{tenant=\"{}\"}} {}",
            t.name, t.snapshot_version
        );
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_admissions_total counter");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_tenant_admissions_total{{tenant=\"{}\"}} {}",
            t.name, t.admissions
        );
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_evictions_total counter");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_tenant_evictions_total{{tenant=\"{}\"}} {}",
            t.name, t.evictions
        );
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_serve_source_total counter");
    for t in &tenants {
        for (label, n) in [
            ("store_hit", t.stats.store_hits),
            ("read_through", t.stats.read_throughs),
            ("coalesced", t.stats.coalesced),
            ("direct", t.stats.direct),
            ("unservable", t.stats.unservable),
        ] {
            let _ = writeln!(
                out,
                "graphex_tenant_serve_source_total{{tenant=\"{}\",source=\"{label}\"}} {n}",
                t.name
            );
        }
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_serve_outcome_total counter");
    for t in &tenants {
        for outcome in graphex_core::Outcome::ALL {
            let _ = writeln!(
                out,
                "graphex_tenant_serve_outcome_total{{tenant=\"{}\",outcome=\"{}\"}} {}",
                t.name,
                outcome.name(),
                t.stats.outcomes.of(outcome)
            );
        }
    }
    let _ = writeln!(out, "# TYPE graphex_tenant_model_swaps_total counter");
    for t in &tenants {
        let _ = writeln!(
            out,
            "graphex_tenant_model_swaps_total{{tenant=\"{}\"}} {}",
            t.name, t.stats.model_swaps
        );
    }
    let overlay_rows: Vec<(String, OverlayStatus)> = tenants
        .iter()
        .filter_map(|t| t.overlay.map(|o| (format!("tenant=\"{}\"", t.name), o)))
        .collect();
    render_overlay_families(&overlay_rows, out);
}

/// Appends the single-api KV store gauges: items held and the heap bytes
/// of their records (`/statusz` reports the same pair as `store`).
pub fn render_store_families(store: &graphex_serving::KvStore, out: &mut String) {
    let _ = writeln!(out, "# TYPE graphex_store_items gauge");
    let _ = writeln!(out, "graphex_store_items {}", store.len());
    let _ = writeln!(out, "# TYPE graphex_store_bytes gauge");
    let _ = writeln!(out, "graphex_store_bytes {}", store.record_bytes());
}

/// Appends the single-api serving families: the serving-layer
/// [`ServeStats`] passed in (same numbers `/statusz` reports).
pub fn render_serve_families(serve: &ServeStats, out: &mut String) {
    let _ = writeln!(out, "# TYPE graphex_serve_source_total counter");
    for (label, n) in [
        ("store_hit", serve.store_hits),
        ("read_through", serve.read_throughs),
        ("coalesced", serve.coalesced),
        ("direct", serve.direct),
        ("unservable", serve.unservable),
    ] {
        let _ = writeln!(out, "graphex_serve_source_total{{source=\"{label}\"}} {n}");
    }
    let _ = writeln!(out, "# TYPE graphex_serve_outcome_total counter");
    for outcome in graphex_core::Outcome::ALL {
        let _ = writeln!(
            out,
            "graphex_serve_outcome_total{{outcome=\"{}\"}} {}",
            outcome.name(),
            serve.outcomes.of(outcome)
        );
    }
    let _ = writeln!(out, "# TYPE graphex_serve_invalidated_total counter");
    let _ = writeln!(out, "graphex_serve_invalidated_total {}", serve.invalidated);
    let _ = writeln!(
        out,
        "# TYPE graphex_serve_overlay_invalidated_total counter"
    );
    let _ = writeln!(
        out,
        "graphex_serve_overlay_invalidated_total {}",
        serve.overlay_invalidated
    );
    let _ = writeln!(out, "# TYPE graphex_serve_overlay_retagged_total counter");
    let _ = writeln!(
        out,
        "graphex_serve_overlay_retagged_total {}",
        serve.overlay_retagged
    );
    let _ = writeln!(out, "# TYPE graphex_shed_total counter");
    let _ = writeln!(out, "graphex_shed_total {}", serve.shed);
    let _ = writeln!(out, "# TYPE graphex_deadline_exceeded_total counter");
    let _ = writeln!(
        out,
        "graphex_deadline_exceeded_total {}",
        serve.deadline_exceeded
    );
    let _ = writeln!(out, "# TYPE graphex_in_flight gauge");
    let _ = writeln!(out, "graphex_in_flight {}", serve.in_flight);
    let _ = writeln!(out, "# TYPE graphex_model_snapshot_version gauge");
    let _ = writeln!(
        out,
        "graphex_model_snapshot_version {}",
        serve.snapshot_version
    );
    let _ = writeln!(out, "# TYPE graphex_model_swaps_total counter");
    let _ = writeln!(out, "graphex_model_swaps_total {}", serve.model_swaps);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_stats() -> ServeStats {
        ServeStats {
            store_hits: 3,
            read_throughs: 2,
            coalesced: 0,
            direct: 0,
            unservable: 1,
            invalidated: 0,
            overlay_invalidated: 0,
            overlay_retagged: 6,
            shed: 4,
            deadline_exceeded: 0,
            in_flight: 2,
            outcomes: Default::default(),
            snapshot_version: 7,
            model_swaps: 1,
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(50)); // first bucket
        h.record(Duration::from_micros(300)); // <=0.0005
        h.record(Duration::from_secs(5)); // +Inf
        let mut out = String::new();
        h.render("x", &mut out);
        assert!(out.contains("x_bucket{le=\"0.0001\"} 1"), "{out}");
        assert!(out.contains("x_bucket{le=\"0.0005\"} 2"), "{out}");
        assert!(out.contains("x_bucket{le=\"1\"} 2"), "{out}");
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("x_count 3"), "{out}");
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for _ in 0..100 {
            h.record(Duration::from_micros(50)); // first bucket: (0, 0.0001]
        }
        let p50 = h.quantile(0.5);
        assert!(p50 > 0.0 && p50 <= 0.0001, "{p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 > p50 && p99 <= 0.0001, "{p99}");
        h.record(Duration::from_secs(5)); // lands in +Inf
        assert!(h.quantile(1.0) <= 1.0); // clamps to the last finite bound
    }

    #[test]
    fn labeled_series_share_one_type_header() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(50));
        let mut out = String::new();
        out.push_str("# TYPE stage_seconds histogram\n");
        h.render_series("stage_seconds", "stage=\"parse\"", &mut out);
        h.render_series("stage_seconds", "stage=\"ranking\"", &mut out);
        assert_eq!(out.matches("# TYPE").count(), 1);
        assert!(
            out.contains("stage_seconds_bucket{stage=\"parse\",le=\"0.0001\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("stage_seconds_count{stage=\"ranking\"} 1"),
            "{out}"
        );
    }

    #[test]
    fn prometheus_rendering_includes_all_families() {
        let m = HttpMetrics::default();
        m.record_response(Endpoint::Infer, 200);
        m.record_response(Endpoint::Infer, 200);
        m.record_response(Endpoint::Other, 404);
        m.record_response(Endpoint::Infer, 503);
        m.connections_accepted.fetch_add(5, Ordering::Relaxed);
        m.connections_shed.fetch_add(1, Ordering::Relaxed);
        let mut text = String::new();
        m.render_http_families(3, &mut text);
        render_serve_families(&empty_stats(), &mut text);
        assert!(text.contains("graphex_http_requests_total{endpoint=\"infer\",code=\"200\"} 2"));
        assert!(text.contains("graphex_http_requests_total{endpoint=\"other\",code=\"404\"} 1"));
        assert!(text.contains("graphex_http_shed_total 1"));
        assert!(text.contains("graphex_http_queue_depth 3"));
        assert!(text.contains("graphex_serve_source_total{source=\"store_hit\"} 3"));
        assert!(text.contains("graphex_serve_outcome_total{outcome=\"exact_leaf\"} 0"));
        assert!(text.contains("graphex_shed_total 4"));
        assert!(text.contains("graphex_in_flight 2"));
        assert!(text.contains("graphex_model_snapshot_version 7"));
        assert_eq!(m.server_errors(), 1);
        assert_eq!(m.responses_for(Endpoint::Infer, 503), 1);
        assert!(text.contains("graphex_serve_overlay_invalidated_total 0"));
        assert!(text.contains("graphex_serve_overlay_retagged_total 6"));
    }

    #[test]
    fn overlay_families_render_bare_and_tenant_labelled() {
        let status = OverlayStatus {
            seq: 9,
            depth: 4,
            journal_bytes: 128,
            cap_bytes: 1024,
            upserts_applied: 3,
            apply_micros_total: 450,
            ..Default::default()
        };
        let mut bare = String::new();
        render_overlay_families(&[(String::new(), status)], &mut bare);
        assert!(
            bare.contains("# TYPE graphex_overlay_depth gauge"),
            "{bare}"
        );
        assert!(bare.contains("graphex_overlay_depth 4"), "{bare}");
        assert!(bare.contains("graphex_overlay_upserts_total 3"), "{bare}");
        assert!(
            bare.contains("# TYPE graphex_overlay_apply_micros_total counter"),
            "{bare}"
        );
        assert!(
            bare.contains("graphex_overlay_apply_micros_total 450"),
            "{bare}"
        );

        let mut fleet = String::new();
        render_overlay_families(
            &[
                ("tenant=\"acme\"".into(), status),
                ("tenant=\"bob\"".into(), OverlayStatus::default()),
            ],
            &mut fleet,
        );
        assert!(
            fleet.contains("graphex_overlay_seq{tenant=\"acme\"} 9"),
            "{fleet}"
        );
        assert!(
            fleet.contains("graphex_overlay_seq{tenant=\"bob\"} 0"),
            "{fleet}"
        );
        assert!(
            fleet.contains("graphex_overlay_apply_micros_total{tenant=\"acme\"} 450"),
            "{fleet}"
        );
        // One TYPE header per family, not per row.
        assert_eq!(fleet.matches("# TYPE graphex_overlay_seq gauge").count(), 1);

        let mut empty = String::new();
        render_overlay_families(&[], &mut empty);
        assert!(empty.is_empty());
    }
}
