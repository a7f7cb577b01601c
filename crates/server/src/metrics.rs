//! Server-side observability: request/outcome counters, a fixed-bucket
//! latency histogram, and the `/metrics` Prometheus text rendering.
//!
//! Everything is lock-free on the hot path except the per-response status
//! tally (one short mutexed map update per request — noise next to an
//! inference). The serving-layer numbers (store hits, outcomes, shed,
//! in-flight, the store's footprint, the overlay's accounting) are one
//! [`ServeReport`] row per [`graphex_serving::ServingApi`], read at render
//! time. One field table per row type (`SERVE_FIELDS`,
//! `OVERLAY_FIELDS`) names each number's `/statusz` member, metric
//! family and history series, and `row_statusz`, `render_rows` and
//! `sample_row` walk it: a single server renders its one row with no
//! label, a fleet each tenant's under `tenant="…"` (and `tenant/<n>/`),
//! so the surfaces, and the two frontends, agree by construction.

use crate::json::Json;
use graphex_serving::{OverlayStatus, ServeReport};
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

/// One number a serving row reports, on every surface that shows it.
/// An empty name means the surface does not show the field.
struct Field<T> {
    /// `/statusz` member; `group/key` nests it in the `group` object.
    statusz: &'static str,
    /// Metric family and its Prometheus type.
    family: &'static str,
    kind: &'static str,
    /// The label that tells this field's samples from the family's other
    /// fields' (`source="store_hit"`); empty when the field is the family.
    label: &'static str,
    /// History series, behind the row's prefix.
    series: &'static str,
    get: fn(&T) -> u64,
}

const fn field<T>(
    statusz: &'static str,
    family: &'static str,
    kind: &'static str,
    label: &'static str,
    series: &'static str,
    get: fn(&T) -> u64,
) -> Field<T> {
    Field {
        statusz,
        family,
        kind,
        label,
        series,
        get,
    }
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";

/// The fields of a [`ServeReport`], in [`field`]'s argument order:
/// `/statusz` member, metric family, type, label, history series,
/// extractor. A family's fields are adjacent, so each family renders
/// under one `# TYPE` header.
#[rustfmt::skip]
const SERVE_FIELDS: [Field<ServeReport>; 20] = [
    field("snapshot_version",        "graphex_model_snapshot_version",           GAUGE,    "",                           "model/snapshot_version",  |r| r.stats.snapshot_version),
    field("model_swaps",             "graphex_model_swaps_total",                COUNTER,  "",                           "model/swaps",             |r| r.stats.model_swaps),
    field("in_flight",               "graphex_in_flight",                        GAUGE,    "",                           "serve/in_flight",         |r| r.stats.in_flight),
    field("shed",                    "graphex_shed_total",                       COUNTER,  "",                           "serve/shed",              |r| r.stats.shed),
    field("deadline_exceeded",       "graphex_deadline_exceeded_total",          COUNTER,  "",                           "serve/deadline_exceeded", |r| r.stats.deadline_exceeded),
    field("store_hits",              "graphex_serve_source_total",               COUNTER,  "source=\"store_hit\"",       "serve/store_hits",        |r| r.stats.store_hits),
    field("read_throughs",           "graphex_serve_source_total",               COUNTER,  "source=\"read_through\"",    "serve/read_throughs",     |r| r.stats.read_throughs),
    field("coalesced",               "graphex_serve_source_total",               COUNTER,  "source=\"coalesced\"",       "",                        |r| r.stats.coalesced),
    field("direct",                  "graphex_serve_source_total",               COUNTER,  "source=\"direct\"",          "",                        |r| r.stats.direct),
    field("unservable",              "graphex_serve_source_total",               COUNTER,  "source=\"unservable\"",      "",                        |r| r.stats.unservable),
    field("invalidated",             "graphex_serve_invalidated_total",          COUNTER,  "",                           "",                        |r| r.stats.invalidated),
    field("overlay_invalidated",     "graphex_serve_overlay_invalidated_total",  COUNTER,  "",                           "",                        |r| r.stats.overlay_invalidated),
    field("overlay_retagged",        "graphex_serve_overlay_retagged_total",     COUNTER,  "",                           "",                        |r| r.stats.overlay_retagged),
    field("store/items",             "graphex_store_items",                      GAUGE,    "",                           "",                        |r| r.store_items),
    field("store/bytes",             "graphex_store_bytes",                      GAUGE,    "",                           "",                        |r| r.store_bytes),
    field("outcomes/exact_leaf",     "graphex_serve_outcome_total",              COUNTER,  "outcome=\"exact_leaf\"",     "",                        |r| r.stats.outcomes.exact_leaf),
    field("outcomes/meta_fallback",  "graphex_serve_outcome_total",              COUNTER,  "outcome=\"meta_fallback\"",  "",                        |r| r.stats.outcomes.meta_fallback),
    field("outcomes/unknown_leaf",   "graphex_serve_outcome_total",              COUNTER,  "outcome=\"unknown_leaf\"",   "",                        |r| r.stats.outcomes.unknown_leaf),
    field("outcomes/empty",          "graphex_serve_outcome_total",              COUNTER,  "outcome=\"empty\"",          "",                        |r| r.stats.outcomes.empty),
    field("",                        "",                                         "",       "",                           "serve/requests",          |r| r.stats.outcomes.total()),
];

/// The fields of an [`OverlayStatus`]: a row's `overlay` object on
/// `/statusz`, its `graphex_overlay_*` families and `overlay/*` series.
#[rustfmt::skip]
const OVERLAY_FIELDS: [Field<OverlayStatus>; 11] = [
    field("seq",              "graphex_overlay_seq",                 GAUGE,    "",  "overlay/seq",          |s| s.seq),
    field("drained_upto",     "graphex_overlay_drained_upto",        GAUGE,    "",  "",                     |s| s.drained_upto),
    field("depth",            "graphex_overlay_depth",               GAUGE,    "",  "overlay/depth",        |s| s.depth as u64),
    field("journal_bytes",    "graphex_overlay_journal_bytes",       GAUGE,    "",  "",                     |s| s.journal_bytes as u64),
    field("cap_bytes",        "graphex_overlay_cap_bytes",           GAUGE,    "",  "",                     |s| s.cap_bytes as u64),
    field("leaves",           "graphex_overlay_leaves",              GAUGE,    "",  "",                     |s| s.leaves as u64),
    field("upserts_applied",  "graphex_overlay_upserts_total",       COUNTER,  "",  "",                     |s| s.upserts_applied),
    field("records_applied",  "graphex_overlay_records_total",       COUNTER,  "",  "",                     |s| s.records_applied),
    field("upserts_shed",     "graphex_overlay_shed_total",          COUNTER,  "",  "",                     |s| s.upserts_shed),
    field("drains",           "graphex_overlay_drains_total",        COUNTER,  "",  "",                     |s| s.drains),
    // rate(apply_micros_total) / rate(upserts_total) = mean apply time;
    // `/statusz` shows the mean itself as `apply_us_mean`.
    field("",                 "graphex_overlay_apply_micros_total",  COUNTER,  "",  "overlay/apply_micros", |s| s.apply_micros_total),
];

/// The `/statusz` members of one serving row: the [`ServeReport`]
/// fields, then `overlay` (`null` without one).
pub(crate) fn row_statusz(row: &ServeReport) -> Vec<(&'static str, Json)> {
    let mut members = statusz_members(&SERVE_FIELDS, row);
    let overlay = row.overlay.map_or(Json::Null, |status| {
        let mut members = statusz_members(&OVERLAY_FIELDS, &status);
        let mean = status.apply_micros_total as f64 / status.upserts_applied.max(1) as f64;
        members.push(("apply_us_mean", Json::num(mean)));
        Json::obj(members)
    });
    members.push(("overlay", overlay));
    members
}

fn statusz_members<T>(fields: &[Field<T>], value: &T) -> Vec<(&'static str, Json)> {
    let mut members: Vec<(&'static str, Json)> = Vec::new();
    for field in fields.iter().filter(|f| !f.statusz.is_empty()) {
        let v = Json::uint((field.get)(value));
        let Some((group, key)) = field.statusz.split_once('/') else {
            members.push((field.statusz, v));
            continue;
        };
        match members.iter_mut().find(|(name, _)| *name == group) {
            Some((_, Json::Obj(inner))) => inner.push((key.to_string(), v)),
            _ => members.push((group, Json::obj(vec![(key, v)]))),
        }
    }
    members
}

/// Appends every serving row's families. Each row's label string is
/// spliced into its samples' braces ahead of the field's own label:
/// empty for a single api's one row, `tenant="acme"` for a fleet's.
pub(crate) fn render_rows(rows: &[(String, ServeReport)], out: &mut String) {
    let serve: Vec<_> = rows
        .iter()
        .map(|(label, row)| (label.as_str(), row))
        .collect();
    render_families(&SERVE_FIELDS, &serve, out);
    let overlay: Vec<_> = rows
        .iter()
        .filter_map(|(label, row)| Some((label.as_str(), row.overlay.as_ref()?)))
        .collect();
    render_families(&OVERLAY_FIELDS, &overlay, out);
}

fn render_families<T>(fields: &[Field<T>], rows: &[(&str, &T)], out: &mut String) {
    if rows.is_empty() {
        return;
    }
    for family in fields.chunk_by(|a, b| a.family == b.family) {
        let (name, kind) = (family[0].family, family[0].kind);
        if name.is_empty() {
            continue;
        }
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (labels, value) in rows {
            for field in family {
                let v = (field.get)(value);
                let sep = if labels.is_empty() || field.label.is_empty() {
                    ""
                } else {
                    ","
                };
                let _ = if labels.is_empty() && field.label.is_empty() {
                    writeln!(out, "{name} {v}")
                } else {
                    writeln!(out, "{name}{{{labels}{sep}{}}} {v}", field.label)
                };
            }
        }
    }
}

/// Appends one serving row's history series, each behind `prefix`
/// (empty for a single api, `tenant/<name>/` for a fleet's tenant).
pub(crate) fn sample_row(prefix: &str, row: &ServeReport, values: &mut Vec<(String, f64)>) {
    sample_fields(&SERVE_FIELDS, prefix, row, values);
    if let Some(status) = &row.overlay {
        sample_fields(&OVERLAY_FIELDS, prefix, status, values);
    }
}

fn sample_fields<T>(fields: &[Field<T>], prefix: &str, value: &T, values: &mut Vec<(String, f64)>) {
    for field in fields.iter().filter(|f| !f.series.is_empty()) {
        values.push((
            format!("{prefix}{}", field.series),
            (field.get)(value) as f64,
        ));
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
    /// no [`ServeReport`] of its own.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_stats() -> graphex_serving::ServeStats {
        graphex_serving::ServeStats {
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
        let row = ServeReport {
            stats: empty_stats(),
            ..Default::default()
        };
        render_rows(&[(String::new(), row)], &mut text);
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
        let row = |overlay| ServeReport {
            overlay,
            ..Default::default()
        };
        let mut bare = String::new();
        render_rows(&[(String::new(), row(Some(status)))], &mut bare);
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
        render_rows(
            &[
                ("tenant=\"acme\"".into(), row(Some(status))),
                ("tenant=\"bob\"".into(), row(Some(OverlayStatus::default()))),
                ("tenant=\"cold\"".into(), row(None)),
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

        assert!(
            !fleet.contains("graphex_overlay_seq{tenant=\"cold\"}"),
            "{fleet}"
        );
        assert!(
            fleet.contains("graphex_store_items{tenant=\"cold\"} 0"),
            "{fleet}"
        );

        let mut bare = String::new();
        render_rows(&[(String::new(), row(None))], &mut bare);
        assert!(!bare.contains("graphex_overlay"), "{bare}");
        let mut empty = String::new();
        render_rows(&[], &mut empty);
        assert!(empty.is_empty());
    }

    /// The table's outcome fields are [`Outcome::ALL`], each read off its
    /// own counter, on `/statusz` and `/metrics` alike.
    #[test]
    fn every_outcome_is_a_field() {
        let mut row = ServeReport::default();
        for (i, outcome) in graphex_core::Outcome::ALL.iter().enumerate() {
            let n = 10 + i as u64;
            match outcome {
                graphex_core::Outcome::ExactLeaf => row.stats.outcomes.exact_leaf = n,
                graphex_core::Outcome::MetaFallback => row.stats.outcomes.meta_fallback = n,
                graphex_core::Outcome::UnknownLeaf => row.stats.outcomes.unknown_leaf = n,
                graphex_core::Outcome::Empty => row.stats.outcomes.empty = n,
            }
        }
        let statusz = Json::obj(row_statusz(&row));
        let mut text = String::new();
        render_rows(&[(String::new(), row)], &mut text);
        for outcome in graphex_core::Outcome::ALL {
            let n = row.stats.outcomes.of(outcome);
            let member = statusz.get("outcomes").and_then(|o| o.get(outcome.name()));
            assert_eq!(member.and_then(Json::as_u64), Some(n), "{outcome:?}");
            let sample = format!(
                "graphex_serve_outcome_total{{outcome=\"{}\"}} {n}\n",
                outcome.name()
            );
            assert!(text.contains(&sample), "{text}");
        }
    }
}
