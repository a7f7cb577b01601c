//! Server-side observability: request/outcome counters, a fixed-bucket
//! latency histogram, and the one renderer of every report.
//!
//! Everything is lock-free on the hot path except the per-response status
//! tally (one short mutexed map update per request — noise next to an
//! inference). Every number a frontend reports is a `Field` in a table
//! beside the type it is read from: `SERVE_FIELDS` and `OVERLAY_FIELDS`
//! (a [`ServeReport`] row) and `HTTP_FIELDS` here, the router's counters
//! and backend table in `router.rs`, a fleet's residency in `server.rs`,
//! the flight recorder's in `trace.rs`, the history ring's in
//! `history.rs`. A field names its `/statusz` member, its metric family
//! with type and label, and its history series; one extractor reads it.
//! A histogram field writes its `{count, p50_us, p90_us, p99_us}` object,
//! its `_bucket`/`_sum`/`_count` family and its `count`/`p50_us`/`p99_us`
//! series from the same snapshot.
//!
//! A report is a list of `Row`s — one or more tables read off one value,
//! placed in `/statusz` (the top level, a nested block, or one element of
//! a table such as `tenants` or `backends`) and labelled on `/metrics` and
//! in the history ring (`tenant="acme"` and `tenant/acme/`). The edge asks
//! its handler for rows, adds its own, and walks them once per surface
//! with `statusz`, `render_metrics` and `sample_history`: the
//! surfaces, and the three frontends, agree by construction, and nothing
//! else in the crate writes a `# TYPE` line.

use crate::json::Json;
use graphex_serving::{OverlayStatus, ServeReport};
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use Get::{Counter, Gauge, Hist, Real, Tally};

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
    /// interpolation inside the bucket the target rank falls in (the
    /// estimate Prometheus' `histogram_quantile` computes); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// The histogram as one report reads it.
    pub(crate) fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A [`LatencyHistogram`]'s counts, read once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Histogram {
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
    sum_nanos: u64,
    count: u64,
}

impl Histogram {
    /// Estimates the `q`-quantile (0..=1) in seconds by linear
    /// interpolation inside the bucket the target rank falls in — the
    /// same estimate Prometheus' `histogram_quantile` computes. Returns 0
    /// for an empty histogram; observations past the last bound clamp to
    /// it (the estimate cannot exceed the largest finite bucket bound).
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let last = BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1];
        let mut cumulative = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            let before = cumulative;
            cumulative += in_bucket;
            if cumulative >= target {
                let lower = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
                let upper = BUCKET_BOUNDS.get(i).copied().unwrap_or(last);
                if in_bucket == 0 || upper <= lower {
                    return upper;
                }
                let frac = (target - before) as f64 / in_bucket as f64;
                return lower + (upper - lower) * frac;
            }
        }
        last
    }

    fn statusz(&self) -> Json {
        Json::obj(vec![
            ("count", Json::uint(self.count)),
            ("p50_us", Json::num(self.quantile(0.50) * 1e6)),
            ("p90_us", Json::num(self.quantile(0.90) * 1e6)),
            ("p99_us", Json::num(self.quantile(0.99) * 1e6)),
        ])
    }

    /// The `_bucket`/`_sum`/`_count` series, `labels` spliced into every
    /// brace set (empty for an unlabelled histogram).
    fn render(&self, name: &str, labels: &str, out: &mut String) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            cumulative += in_bucket;
            let le = BUCKET_BOUNDS.get(i).map_or("+Inf".into(), f64::to_string);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
        sample(
            out,
            &format!("{name}_sum"),
            labels,
            self.sum_nanos as f64 / 1e9,
        );
        sample(out, &format!("{name}_count"), labels, self.count);
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

/// Where one field shows. An empty name means the surface does not show
/// the field.
pub(crate) struct Meta {
    /// `/statusz` member, within the row's place; `a/b` nests it as `b`
    /// in the row's `a` object.
    statusz: &'static str,
    /// Metric family; its Prometheus type follows from the [`Get`].
    family: &'static str,
    kind: &'static str,
    /// The label that tells this field's samples from the family's other
    /// fields' (`source="store_hit"`); empty when the field is the family.
    label: &'static str,
    /// History series, behind the row's prefix. A histogram's names its
    /// count; its `p50_us` and `p99_us` series sit beside it.
    series: &'static str,
}

/// What a field is, and how it is read.
pub(crate) enum Get<T> {
    Counter(fn(&T) -> u64),
    Gauge(fn(&T) -> u64),
    /// A derived number (a mean, a threshold); `/statusz` only.
    Real(fn(&T) -> f64),
    /// A gauge that is `true`/`false` on `/statusz`, 1/0 elsewhere.
    Flag(fn(&T) -> bool),
    Hist(fn(&T) -> Histogram),
    /// A counter family with one sample per label set read at report time
    /// (the HTTP responses by endpoint and code); `/metrics` only.
    Tally(fn(&T) -> Vec<(String, u64)>),
}

/// One number a frontend reports, on every surface that shows it.
pub(crate) struct Field<T> {
    meta: Meta,
    get: Get<T>,
}

/// A field: `/statusz` member, metric family, label, history series,
/// and what it is.
pub(crate) const fn field<T>(
    statusz: &'static str,
    family: &'static str,
    label: &'static str,
    series: &'static str,
    get: Get<T>,
) -> Field<T> {
    let kind = match &get {
        Get::Counter(_) | Get::Tally(_) => "counter",
        Get::Gauge(_) | Get::Flag(_) | Get::Real(_) => "gauge",
        Get::Hist(_) => "histogram",
    };
    let meta = Meta {
        statusz,
        family,
        kind,
        label,
        series,
    };
    Field { meta, get }
}

/// The fields of a [`ServeReport`], in [`field`]'s argument order:
/// `/statusz` member, metric family, label, history series, and what it
/// is with its extractor.
#[rustfmt::skip]
static SERVE_FIELDS: [Field<ServeReport>; 19] = [
    field("snapshot_version",        "graphex_model_snapshot_version",           "",                           "model/snapshot_version",   Gauge(|r| r.stats.snapshot_version)),
    field("model_swaps",             "graphex_model_swaps_total",                "",                           "model/swaps",              Counter(|r| r.stats.model_swaps)),
    field("in_flight",               "graphex_in_flight",                        "",                           "serve/in_flight",          Gauge(|r| r.stats.in_flight)),
    field("deadline_exceeded",       "graphex_deadline_exceeded_total",          "",                           "serve/deadline_exceeded",  Counter(|r| r.stats.deadline_exceeded)),
    field("store_hits",              "graphex_serve_source_total",               "source=\"store_hit\"",       "serve/store_hits",         Counter(|r| r.stats.store_hits)),
    field("read_throughs",           "graphex_serve_source_total",               "source=\"read_through\"",    "serve/read_throughs",      Counter(|r| r.stats.read_throughs)),
    field("coalesced",               "graphex_serve_source_total",               "source=\"coalesced\"",       "",                         Counter(|r| r.stats.coalesced)),
    field("direct",                  "graphex_serve_source_total",               "source=\"direct\"",          "",                         Counter(|r| r.stats.direct)),
    field("unservable",              "graphex_serve_source_total",               "source=\"unservable\"",      "",                         Counter(|r| r.stats.unservable)),
    field("invalidated",             "graphex_serve_invalidated_total",          "",                           "",                         Counter(|r| r.stats.invalidated)),
    field("overlay_invalidated",     "graphex_serve_overlay_invalidated_total",  "",                           "",                         Counter(|r| r.stats.overlay_invalidated)),
    field("overlay_retagged",        "graphex_serve_overlay_retagged_total",     "",                           "",                         Counter(|r| r.stats.overlay_retagged)),
    field("store/items",             "graphex_store_items",                      "",                           "",                         Gauge(|r| r.store_items)),
    field("store/bytes",             "graphex_store_bytes",                      "",                           "",                         Gauge(|r| r.store_bytes)),
    field("outcomes/exact_leaf",     "graphex_serve_outcome_total",              "outcome=\"exact_leaf\"",     "",                         Counter(|r| r.stats.outcomes.exact_leaf)),
    field("outcomes/meta_fallback",  "graphex_serve_outcome_total",              "outcome=\"meta_fallback\"",  "",                         Counter(|r| r.stats.outcomes.meta_fallback)),
    field("outcomes/unknown_leaf",   "graphex_serve_outcome_total",              "outcome=\"unknown_leaf\"",   "",                         Counter(|r| r.stats.outcomes.unknown_leaf)),
    field("outcomes/empty",          "graphex_serve_outcome_total",              "outcome=\"empty\"",          "",                         Counter(|r| r.stats.outcomes.empty)),
    field("",                        "",                                         "",                           "serve/requests",           Gauge(|r| r.stats.outcomes.total())),
];

/// The fields of an [`OverlayStatus`]: a row's `overlay` object on
/// `/statusz`, its `graphex_overlay_*` families and `overlay/*` series.
#[rustfmt::skip]
static OVERLAY_FIELDS: [Field<OverlayStatus>; 12] = [
    field("overlay/seq",              "graphex_overlay_seq",                 "",  "overlay/seq",           Gauge(|s| s.seq)),
    field("overlay/drained_upto",     "graphex_overlay_drained_upto",        "",  "",                      Gauge(|s| s.drained_upto)),
    field("overlay/depth",            "graphex_overlay_depth",               "",  "overlay/depth",         Gauge(|s| s.depth as u64)),
    field("overlay/journal_bytes",    "graphex_overlay_journal_bytes",       "",  "",                      Gauge(|s| s.journal_bytes as u64)),
    field("overlay/cap_bytes",        "graphex_overlay_cap_bytes",           "",  "",                      Gauge(|s| s.cap_bytes as u64)),
    field("overlay/leaves",           "graphex_overlay_leaves",              "",  "",                      Gauge(|s| s.leaves as u64)),
    field("overlay/upserts_applied",  "graphex_overlay_upserts_total",       "",  "",                      Counter(|s| s.upserts_applied)),
    field("overlay/records_applied",  "graphex_overlay_records_total",       "",  "",                      Counter(|s| s.records_applied)),
    field("overlay/upserts_shed",     "graphex_overlay_shed_total",          "",  "",                      Counter(|s| s.upserts_shed)),
    field("overlay/drains",           "graphex_overlay_drains_total",        "",  "",                      Counter(|s| s.drains)),
    // rate(apply_micros_total) / rate(upserts_total) = mean apply time;
    // `/statusz` shows the mean itself as `apply_us_mean`.
    field("",                         "graphex_overlay_apply_micros_total",  "",  "overlay/apply_micros",  Counter(|s| s.apply_micros_total)),
    field("overlay/apply_us_mean",    "",                                    "",  "",                      Real(|s| s.apply_micros_total as f64 / s.upserts_applied.max(1) as f64)),
];

/// What the edge's HTTP layer reports, read once per report.
pub(crate) struct HttpReport {
    /// `endpoint="…",code="…"` → responses sent.
    responses: Vec<(String, u64)>,
    accepted: u64,
    shed: u64,
    queue_depth: u64,
    latency: Histogram,
}

/// The fields of an [`HttpReport`]: the edge's own, on every frontend.
#[rustfmt::skip]
static HTTP_FIELDS: [Field<HttpReport>; 5] = [
    field("",                      "graphex_http_requests_total",              "",  "",               Tally(|r| r.responses.clone())),
    field("connections_accepted",  "graphex_http_connections_accepted_total",  "",  "http/accepted",  Counter(|r| r.accepted)),
    field("connections_shed",      "graphex_http_shed_total",                  "",  "http/shed",      Counter(|r| r.shed)),
    field("queue_depth",           "graphex_http_queue_depth",                 "",  "queue/depth",    Gauge(|r| r.queue_depth)),
    field("latency",               "graphex_request_duration_seconds",         "",  "http/requests",  Hist(|r| r.latency)),
];

/// A field's value as one report read it.
enum Value {
    Int(u64),
    Real(f64),
    Flag(bool),
    Hist(Histogram),
    Tally(Vec<(String, u64)>),
}

/// Where a row's `/statusz` members go.
enum Place {
    /// The object at this `/`-separated path (`""` is the top level),
    /// created if absent.
    Object(&'static str),
    /// A new element of the top-level array of this name.
    Element(&'static str),
}

/// One block of a report: tables read off one value, placed in
/// `/statusz`, labelled on `/metrics` and prefixed in the history ring.
pub(crate) struct Row {
    place: Place,
    /// Spliced into every sample's braces ahead of the field's own label.
    label: String,
    /// Ahead of every history series.
    prefix: String,
    /// The members listed by hand: strings, and the empty or `null`
    /// blocks a table's fields fill or stand in for.
    members: Vec<(&'static str, Json)>,
    values: Vec<(&'static Meta, Value)>,
}

impl Row {
    /// A row at the top level of `/statusz`, unlabelled and unprefixed.
    pub(crate) fn top() -> Self {
        Self::at("")
    }

    /// A row whose `/statusz` members fill the object at `path`.
    pub(crate) fn at(path: &'static str) -> Self {
        Self {
            place: Place::Object(path),
            label: String::new(),
            prefix: String::new(),
            members: Vec::new(),
            values: Vec::new(),
        }
    }

    /// One element of the `/statusz` array `table` (`tenants`,
    /// `backends`), its samples labelled `label` and its series behind
    /// `prefix`.
    pub(crate) fn element(table: &'static str, label: String, prefix: String) -> Self {
        Self {
            place: Place::Element(table),
            label,
            prefix,
            ..Self::top()
        }
    }

    /// A `/statusz` member listed by hand.
    pub(crate) fn member(mut self, key: &'static str, value: Json) -> Self {
        self.members.push((key, value));
        self
    }

    /// Reads every field of `fields` off `value`.
    pub(crate) fn fields<T>(mut self, fields: &'static [Field<T>], value: &T) -> Self {
        self.values.extend(fields.iter().map(|f| {
            let read = match f.get {
                Get::Counter(get) | Get::Gauge(get) => Value::Int(get(value)),
                Get::Real(get) => Value::Real(get(value)),
                Get::Flag(get) => Value::Flag(get(value)),
                Get::Hist(get) => Value::Hist(get(value)),
                Get::Tally(get) => Value::Tally(get(value)),
            };
            (&f.meta, read)
        }));
        self
    }

    /// A serving row: the report's fields, then its overlay's (`overlay:
    /// null` without one).
    pub(crate) fn serving(self, report: &ServeReport) -> Self {
        let row = self.fields(&SERVE_FIELDS, report);
        match &report.overlay {
            Some(status) => row.fields(&OVERLAY_FIELDS, status),
            None => row.member("overlay", Json::Null),
        }
    }

    /// The edge's HTTP layer.
    pub(crate) fn http(self, report: &HttpReport) -> Self {
        self.fields(&HTTP_FIELDS, report)
    }
}

/// A labelled histogram — one of a family's several, like a stage's — is
/// left out of every surface while it has recorded nothing.
fn shown(meta: &Meta, value: &Value) -> bool {
    !matches!(value, Value::Hist(h) if h.count == 0 && !meta.label.is_empty())
}

/// The `/statusz` document of `rows`.
pub(crate) fn statusz(rows: &[Row]) -> Json {
    let mut top = Vec::new();
    for row in rows {
        match row.place {
            Place::Object(path) => fill(object_at(&mut top, path), row),
            Place::Element(table) => {
                let mut element = Vec::new();
                fill(&mut element, row);
                let at = member_at(&mut top, table, || Json::Arr(Vec::new()));
                let Json::Arr(elements) = &mut top[at].1 else {
                    panic!("/statusz member {table} is not an array");
                };
                elements.push(Json::Obj(element));
            }
        }
    }
    Json::Obj(top)
}

fn fill(object: &mut Vec<(String, Json)>, row: &Row) {
    for (key, value) in &row.members {
        object.push((key.to_string(), value.clone()));
    }
    for (meta, value) in &row.values {
        if meta.statusz.is_empty() || !shown(meta, value) {
            continue;
        }
        let json = match value {
            Value::Int(n) => Json::uint(*n),
            Value::Real(x) => Json::num(*x),
            Value::Flag(b) => Json::Bool(*b),
            Value::Hist(h) => h.statusz(),
            Value::Tally(_) => continue,
        };
        let (parent, key) = meta.statusz.rsplit_once('/').unwrap_or(("", meta.statusz));
        object_at(object, parent).push((key.to_string(), json));
    }
}

/// The index of member `key`, appended as `new()` when absent.
fn member_at(object: &mut Vec<(String, Json)>, key: &str, new: fn() -> Json) -> usize {
    object
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| {
            object.push((key.to_string(), new()));
            object.len() - 1
        })
}

/// The object at `path` inside `object`, creating those on the way.
fn object_at<'a>(
    mut object: &'a mut Vec<(String, Json)>,
    path: &str,
) -> &'a mut Vec<(String, Json)> {
    for key in path.split('/').filter(|k| !k.is_empty()) {
        let at = member_at(object, key, || Json::Obj(Vec::new()));
        let Json::Obj(inner) = &mut object[at].1 else {
            panic!("/statusz member {key} is not an object");
        };
        object = inner;
    }
    object
}

/// The `/metrics` exposition of `rows`: each family's `# TYPE` line once,
/// then its samples from every row, in the order the rows came.
pub(crate) fn render_metrics(rows: &[Row], out: &mut String) {
    let mut families: Vec<(&Meta, String)> = Vec::new();
    for row in rows {
        for (meta, value) in &row.values {
            if meta.family.is_empty() {
                continue;
            }
            let at = match families.iter().position(|(m, _)| m.family == meta.family) {
                Some(at) => at,
                None => {
                    families.push((meta, String::new()));
                    families.len() - 1
                }
            };
            if !shown(meta, value) {
                continue;
            }
            let (out, name) = (&mut families[at].1, meta.family);
            let labels = join(&row.label, meta.label);
            match value {
                Value::Int(n) => sample(out, name, &labels, n),
                Value::Real(x) => sample(out, name, &labels, x),
                Value::Flag(b) => sample(out, name, &labels, u8::from(*b)),
                Value::Hist(h) => h.render(name, &labels, out),
                Value::Tally(counts) => {
                    for (own, n) in counts {
                        sample(out, name, &join(&labels, own), n);
                    }
                }
            }
        }
    }
    for (meta, samples) in families {
        let _ = writeln!(out, "# TYPE {} {}", meta.family, meta.kind);
        out.push_str(&samples);
    }
}

fn join(outer: &str, inner: &str) -> String {
    match (outer.is_empty(), inner.is_empty()) {
        (_, true) => outer.to_string(),
        (true, false) => inner.to_string(),
        (false, false) => format!("{outer},{inner}"),
    }
}

fn sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

/// Appends every history series of `rows`.
pub(crate) fn sample_history(rows: &[Row], values: &mut Vec<(String, f64)>) {
    for row in rows {
        for (meta, value) in &row.values {
            if meta.series.is_empty() || !shown(meta, value) {
                continue;
            }
            let key = format!("{}{}", row.prefix, meta.series);
            match value {
                Value::Int(n) => values.push((key, *n as f64)),
                Value::Real(x) => values.push((key, *x)),
                Value::Flag(b) => values.push((key, f64::from(u8::from(*b)))),
                Value::Hist(h) => {
                    if h.count > 0 {
                        let stem = &key[..key.rfind('/').map_or(0, |i| i + 1)];
                        values.push((format!("{stem}p50_us"), h.quantile(0.50) * 1e6));
                        values.push((format!("{stem}p99_us"), h.quantile(0.99) * 1e6));
                    }
                    values.push((key, h.count as f64));
                }
                Value::Tally(_) => {}
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
        let mut map = self.lock_responses();
        *map.entry((endpoint, status)).or_insert(0) += 1;
    }

    /// Total responses with a 5xx status (the "failed requests" gate).
    pub fn server_errors(&self) -> u64 {
        let map = self.lock_responses();
        map.iter()
            .filter(|((_, s), _)| (500..600).contains(s))
            .map(|(_, n)| n)
            .sum()
    }

    /// Responses tallied for one (endpoint, status) pair.
    pub fn responses_for(&self, endpoint: Endpoint, status: u16) -> u64 {
        let map = self.lock_responses();
        map.get(&(endpoint, status)).copied().unwrap_or(0)
    }

    /// Everything the HTTP layer reports, with the accept queue's depth.
    pub(crate) fn report(&self, queue_depth: usize) -> HttpReport {
        let responses = self
            .lock_responses()
            .iter()
            .map(|((endpoint, code), n)| {
                let labels = format!("endpoint=\"{}\",code=\"{code}\"", endpoint.label());
                (labels, *n)
            })
            .collect();
        HttpReport {
            responses,
            accepted: self.connections_accepted.load(Ordering::Relaxed),
            shed: self.connections_shed.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
            latency: self.infer_latency.snapshot(),
        }
    }

    fn lock_responses(&self) -> std::sync::MutexGuard<'_, BTreeMap<(Endpoint, u16), u64>> {
        self.responses
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Get::Flag;

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
        h.snapshot().render("x", "", &mut out);
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

    /// Two labelled histograms of one family, and a third that has
    /// recorded nothing: one header, the empty one's series left out.
    #[test]
    fn labeled_series_share_one_type_header() {
        #[rustfmt::skip]
        static STAGES: [Field<[LatencyHistogram; 3]>; 3] = [
            field("stages/parse",    "stage_seconds",  "stage=\"parse\"",    "stage/parse/count",    Hist(|h| h[0].snapshot())),
            field("stages/ranking",  "stage_seconds",  "stage=\"ranking\"",  "stage/ranking/count",  Hist(|h| h[1].snapshot())),
            field("stages/fanout",   "stage_seconds",  "stage=\"fanout\"",   "stage/fanout/count",   Hist(|h| h[2].snapshot())),
        ];
        let h: [LatencyHistogram; 3] = Default::default();
        h[0].record(Duration::from_micros(50));
        h[1].record(Duration::from_micros(50));
        let rows = [Row::at("trace").fields(&STAGES, &h)];
        let mut out = String::new();
        render_metrics(&rows, &mut out);
        assert_eq!(out.matches("# TYPE").count(), 1);
        assert!(out.contains("# TYPE stage_seconds histogram\n"), "{out}");
        assert!(!out.contains("fanout"), "{out}");
        let status = statusz(&rows);
        let stages = status.get("trace").and_then(|t| t.get("stages")).unwrap();
        assert!(stages.get("parse").is_some() && stages.get("fanout").is_none());
        let mut series = Vec::new();
        sample_history(&rows, &mut series);
        let names: Vec<&str> = series.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "stage/parse/p50_us",
                "stage/parse/p99_us",
                "stage/parse/count",
                "stage/ranking/p50_us",
                "stage/ranking/p99_us",
                "stage/ranking/count"
            ]
        );
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
        let row = ServeReport {
            stats: empty_stats(),
            ..Default::default()
        };
        let mut text = String::new();
        render_metrics(
            &[Row::top().http(&m.report(3)), Row::top().serving(&row)],
            &mut text,
        );
        assert!(text.contains("graphex_http_requests_total{endpoint=\"infer\",code=\"200\"} 2"));
        assert!(text.contains("graphex_http_requests_total{endpoint=\"other\",code=\"404\"} 1"));
        assert!(text.contains("graphex_http_shed_total 1"));
        assert!(text.contains("graphex_http_queue_depth 3"));
        assert!(text.contains("graphex_serve_source_total{source=\"store_hit\"} 3"));
        assert!(text.contains("graphex_serve_outcome_total{outcome=\"exact_leaf\"} 0"));
        assert!(!text.contains("graphex_shed_total"), "a shed is the edge's");
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
        // A fleet's rows, one per tenant; a single api's, one unlabelled.
        let render = |rows: &[(&str, ServeReport)]| {
            let rows: Vec<Row> = rows
                .iter()
                .map(|(tenant, report)| match tenant {
                    &"" => Row::top().serving(report),
                    name => {
                        let label = format!("tenant=\"{name}\"");
                        Row::element("tenants", label, format!("tenant/{name}/")).serving(report)
                    }
                })
                .collect();
            let mut text = String::new();
            render_metrics(&rows, &mut text);
            text
        };
        let bare = render(&[("", row(Some(status)))]);
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

        let fleet = render(&[
            ("acme", row(Some(status))),
            ("bob", row(Some(OverlayStatus::default()))),
            ("cold", row(None)),
        ]);
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

        let bare = render(&[("", row(None))]);
        assert!(!bare.contains("graphex_overlay"), "{bare}");
        assert!(render(&[]).is_empty());
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
        let rows = [Row::top().serving(&row)];
        let statusz = statusz(&rows);
        let mut text = String::new();
        render_metrics(&rows, &mut text);
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

    /// Rows land where they say: the top level, a nested block, or one
    /// element each of a table the parent row opened; labels and prefixes
    /// follow the row.
    #[test]
    fn rows_place_members_labels_and_series() {
        #[rustfmt::skip]
        static COUNTS: [Field<u64>; 3] = [
            field("n",        "graphex_n_total",  "",            "n",   Counter(|n| *n)),
            field("group/m",  "graphex_m",        "kind=\"m\"",  "",    Gauge(|n| n + 1)),
            field("up",       "graphex_up",       "",            "up",  Flag(|n| *n > 1)),
        ];
        let rows = [
            Row::top()
                .member("role", Json::str("toy"))
                .member("items", Json::Arr(Vec::new()))
                .fields(&COUNTS, &1),
            Row::element("items", "item=\"a\"".into(), "item/a/".into()).fields(&COUNTS, &2),
            Row::element("items", "item=\"b\"".into(), "item/b/".into()).fields(&COUNTS, &3),
            Row::at("block/inner").fields(&COUNTS, &4),
        ];
        let status = statusz(&rows).render();
        assert_eq!(
            status,
            concat!(
                r#"{"role":"toy","items":[{"n":2,"group":{"m":3},"up":true},"#,
                r#"{"n":3,"group":{"m":4},"up":true}],"n":1,"group":{"m":2},"up":false,"#,
                r#""block":{"inner":{"n":4,"group":{"m":5},"up":true}}}"#
            )
        );
        let mut text = String::new();
        render_metrics(&rows, &mut text);
        assert!(
            text.starts_with(concat!(
                "# TYPE graphex_n_total counter\n",
                "graphex_n_total 1\n",
                "graphex_n_total{item=\"a\"} 2\n",
                "graphex_n_total{item=\"b\"} 3\n",
                "graphex_n_total 4\n",
                "# TYPE graphex_m gauge\n",
                "graphex_m{kind=\"m\"} 2\n",
                "graphex_m{item=\"a\",kind=\"m\"} 3\n",
            )),
            "{text}"
        );
        assert!(text.contains("graphex_up{item=\"b\"} 1\n"), "{text}");
        let mut series = Vec::new();
        sample_history(&rows, &mut series);
        assert!(series.contains(&("item/b/up".into(), 1.0)), "{series:?}");
        assert!(series.contains(&("n".into(), 1.0)), "{series:?}");
    }
}
