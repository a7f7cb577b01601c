//! The serving handler: what a backend server adds to the shared HTTP
//! edge (`edge.rs`).
//!
//! The edge owns the socket side — accept queue, worker pool, keep-alive
//! loop, shedding, the shared debug routes, tracing and history plumbing.
//! This file owns the domain side: the `/v1/infer`, `/v1/upsert` and
//! `/v1/overlay/*` routes (each also answering at `/v1/t/<tenant>/…`),
//! the per-request deadline, and the serving-layer members of
//! `/statusz`, `/metrics` and the history ring, over either one
//! [`ServingApi`] or a [`TenantFleet`].
//!
//! The model behind the [`ServingApi`] hot-swaps under live traffic: each
//! inference resolves the current snapshot through the api's `ModelWatch`,
//! so a registry publish/rollback propagates to the next request with
//! in-flight requests finishing on the model they started with.

pub use crate::edge::MAX_KEEPALIVE_REQUESTS;
use crate::edge::{self, Cx, EdgeConfig, EdgeHandle, Handler, Route, Routed};
use crate::history::{HistoryConfig, MetricsHistory};
use crate::http::Request;
use crate::json::{self, Json};
use crate::metrics::{
    render_fleet_families, render_overlay_families, render_serve_families, render_store_families,
    Endpoint, HttpMetrics,
};
use crate::trace::{TraceConfig, TraceRecorder};
use graphex_core::{Alignment, InferRequest, KeyphraseRecord, LeafId, Stage};
use graphex_serving::{
    Answer, FleetError, OverlayError, OverlayStatus, ServeSource, ServingApi, TenantFleet,
};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most requests accepted in one `/v1/infer` batch envelope.
pub const MAX_BATCH: usize = 1024;

/// Frontend tuning. `Default` is sized for a laptop demo; production
/// callers set every field explicitly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Accept-queue capacity; connections beyond it are shed with 429.
    pub queue_depth: usize,
    /// Cap on a request body's declared `Content-Length` (413 beyond it).
    pub max_body_bytes: usize,
    /// Per-request deadline over server-induced delay: accept-queue wait
    /// (charged to a connection's first request) plus processing; the
    /// peer's own think-time between requests is never counted. `None`
    /// disables. An expired deadline answers 503 without running
    /// inference.
    pub deadline: Option<Duration>,
    /// Idle read timeout on keep-alive connections. Shutdown does not
    /// wait it out: idle peers are woken on drain.
    pub keep_alive_timeout: Duration,
    /// Flight-recorder knobs; `trace.enabled = false` turns the whole
    /// trace layer off (no ids, no rings, no clock reads).
    pub trace: TraceConfig,
    /// Telemetry-history knobs; `history.enabled = false` spawns no
    /// sampler thread and 404s `/debug/history`.
    pub history: HistoryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            deadline: Some(Duration::from_secs(2)),
            keep_alive_timeout: Duration::from_secs(5),
            trace: TraceConfig::default(),
            history: HistoryConfig::default(),
        }
    }
}

/// What answers inference behind this frontend: one serving api, or a
/// tenant fleet multiplexed by request path (`POST /v1/t/<name>/infer`;
/// the legacy un-prefixed path serves the fleet's default tenant).
enum Backend {
    Single(Arc<ServingApi>),
    Fleet(Arc<TenantFleet>),
}

/// The serving [`Handler`].
struct ServeHandler {
    backend: Backend,
    deadline: Option<Duration>,
    workers: usize,
}

/// A running server; dropping it shuts down gracefully.
pub struct ServerHandle {
    edge: EdgeHandle,
    handler: Arc<ServeHandler>,
}

/// Binds and starts the frontend over a shared [`ServingApi`].
pub fn start(config: ServerConfig, api: Arc<ServingApi>) -> std::io::Result<ServerHandle> {
    start_backend(config, Backend::Single(api))
}

/// Binds and starts the frontend over a [`TenantFleet`]: requests to
/// `POST /v1/t/<tenant>/infer` route (and lazily admit) per tenant,
/// the legacy `POST /v1/infer` path serves the fleet's default tenant,
/// `/statusz` carries the fleet table, and `/metrics` exports
/// per-tenant counters.
pub fn start_fleet(config: ServerConfig, fleet: Arc<TenantFleet>) -> std::io::Result<ServerHandle> {
    start_backend(config, Backend::Fleet(fleet))
}

fn start_backend(config: ServerConfig, backend: Backend) -> std::io::Result<ServerHandle> {
    let handler = Arc::new(ServeHandler {
        backend,
        deadline: config.deadline,
        workers: config.workers,
    });
    let edge = edge::start(
        EdgeConfig {
            addr: config.addr,
            workers: config.workers,
            queue_depth: config.queue_depth,
            max_body_bytes: config.max_body_bytes,
            keep_alive_timeout: config.keep_alive_timeout,
            trace: config.trace,
            history: config.history,
        },
        Arc::clone(&handler) as Arc<dyn Handler>,
    )?;
    Ok(ServerHandle { edge, handler })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.edge.addr()
    }

    /// The serving facade behind a single-api frontend (counter
    /// access), or `None` on a fleet-mode server — per-tenant apis live
    /// behind [`ServerHandle::fleet`].
    pub fn api(&self) -> Option<&Arc<ServingApi>> {
        match &self.handler.backend {
            Backend::Single(api) => Some(api),
            Backend::Fleet(_) => None,
        }
    }

    /// The tenant fleet behind a fleet-mode frontend.
    pub fn fleet(&self) -> Option<&Arc<TenantFleet>> {
        match &self.handler.backend {
            Backend::Single(_) => None,
            Backend::Fleet(fleet) => Some(fleet),
        }
    }

    /// HTTP-layer metrics (what `/metrics` renders).
    pub fn metrics(&self) -> &HttpMetrics {
        self.edge.metrics()
    }

    /// The flight recorder, or `None` when tracing is disabled.
    pub fn traces(&self) -> Option<&Arc<TraceRecorder>> {
        self.edge.traces()
    }

    /// The telemetry-history ring, or `None` when history is disabled.
    pub fn history(&self) -> Option<&Arc<MetricsHistory>> {
        self.edge.history()
    }

    /// Takes one history sample immediately (in addition to the periodic
    /// sampler), so tests and report capture don't have to wait out the
    /// interval. No-op when history is disabled.
    pub fn sample_history_now(&self) {
        self.edge.sample_history_now();
    }

    /// Graceful shutdown: stop accepting, drain admitted connections,
    /// finish in-flight requests, join every thread.
    pub fn shutdown(self) {
        self.edge.shutdown();
    }
}

/// The domain routes; each also answers at `/v1/t/<tenant>/<action>`.
static ROUTES: [Route; 4] = [
    Route {
        method: "POST",
        path: "/v1/infer",
        scoped: true,
        endpoint: Endpoint::Infer,
    },
    Route {
        method: "POST",
        path: "/v1/upsert",
        scoped: true,
        endpoint: Endpoint::Upsert,
    },
    Route {
        method: "GET",
        path: "/v1/overlay/journal",
        scoped: true,
        endpoint: Endpoint::Overlay,
    },
    Route {
        method: "POST",
        path: "/v1/overlay/drain",
        scoped: true,
        endpoint: Endpoint::Overlay,
    },
];

impl Handler for ServeHandler {
    fn routes(&self) -> &'static [Route] {
        &ROUTES
    }

    fn handle(
        &self,
        route: &Route,
        tenant: Option<&str>,
        request: &Request,
        cx: &mut Cx,
        out: &mut String,
    ) -> Routed {
        let api = match self.resolve_api(tenant, out) {
            Ok(api) => api,
            Err(routed) => return routed,
        };
        match route.path {
            "/v1/infer" => self.infer(&api, request, cx, out),
            "/v1/upsert" => upsert(&api, request, out),
            "/v1/overlay/journal" => overlay_journal(&api, out),
            _ => overlay_drain(&api, request, out),
        }
    }

    /// [`ServeStats`](graphex_serving::ServeStats) plus config gauges for
    /// a single-api server; the fleet table in fleet mode.
    fn statusz(&self) -> Vec<(&'static str, Json)> {
        let mut members = match &self.backend {
            Backend::Single(api) => statusz_single(api),
            Backend::Fleet(fleet) => statusz_fleet(fleet),
        };
        members.push(("workers", Json::uint(self.workers as u64)));
        members
    }

    fn render_metrics(&self, out: &mut String) {
        match &self.backend {
            Backend::Single(api) => {
                render_serve_families(&api.stats(), out);
                render_store_families(api.store(), out);
                if let Some(status) = api.overlay_status() {
                    render_overlay_families(&[(String::new(), status)], out);
                }
            }
            Backend::Fleet(fleet) => render_fleet_families(fleet, out),
        }
    }

    /// Serving-layer cumulative counters (monotone across hot-swaps; the
    /// fleet folds evicted tenants' counters, so these survive eviction).
    fn sample_history(&self, values: &mut Vec<(String, f64)>) {
        match &self.backend {
            Backend::Single(api) => {
                serve_series(values, "", &api.stats());
                if let Some(status) = api.overlay_status() {
                    values.push(("overlay/depth".into(), status.depth as f64));
                    values.push(("overlay/seq".into(), status.seq as f64));
                    values.push((
                        "overlay/apply_micros".into(),
                        status.apply_micros_total as f64,
                    ));
                }
            }
            Backend::Fleet(fleet) => {
                let tenants = fleet.list();
                values.push((
                    "fleet/resident".into(),
                    tenants.iter().filter(|t| t.resident).count() as f64,
                ));
                values.push((
                    "fleet/resident_bytes".into(),
                    tenants.iter().map(|t| t.resident_bytes).sum::<u64>() as f64,
                ));
                for t in &tenants {
                    serve_series(values, &format!("tenant/{}/", t.name), &t.stats);
                    let resident = if t.resident { 1.0 } else { 0.0 };
                    values.push((format!("tenant/{}/resident", t.name), resident));
                }
            }
        }
    }

    /// Connection-level shed (429 before any routing): in single mode
    /// the one api's counter takes it; in fleet mode no tenant can be
    /// blamed yet, so only the HTTP-layer `connections_shed` counter
    /// (recorded by the edge) sees it.
    fn note_shed(&self) {
        if let Backend::Single(api) = &self.backend {
            api.note_shed();
        }
    }
}

/// The per-[`ServeStats`] series (shared by single mode, with an empty
/// prefix, and fleet mode, prefixed `tenant/<name>/`).
fn serve_series(
    values: &mut Vec<(String, f64)>,
    prefix: &str,
    stats: &graphex_serving::ServeStats,
) {
    let mut push = |key: &str, v: f64| values.push((format!("{prefix}{key}"), v));
    push("serve/requests", stats.outcomes.total() as f64);
    push("serve/store_hits", stats.store_hits as f64);
    push("serve/read_throughs", stats.read_throughs as f64);
    push("serve/shed", stats.shed as f64);
    push("serve/deadline_exceeded", stats.deadline_exceeded as f64);
    push("serve/in_flight", stats.in_flight as f64);
    push("model/snapshot_version", stats.snapshot_version as f64);
    push("model/swaps", stats.model_swaps as f64);
}

/// The `/statusz` shape of one [`OverlayStatus`] snapshot (shared by
/// the single-mode top-level object and the fleet table rows).
fn overlay_status_json(status: &OverlayStatus) -> Json {
    Json::obj(vec![
        ("seq", Json::uint(status.seq)),
        ("drained_upto", Json::uint(status.drained_upto)),
        ("depth", Json::uint(status.depth as u64)),
        ("journal_bytes", Json::uint(status.journal_bytes as u64)),
        ("cap_bytes", Json::uint(status.cap_bytes as u64)),
        ("leaves", Json::uint(status.leaves as u64)),
        ("upserts_applied", Json::uint(status.upserts_applied)),
        ("records_applied", Json::uint(status.records_applied)),
        ("upserts_shed", Json::uint(status.upserts_shed)),
        ("drains", Json::uint(status.drains)),
        (
            "apply_us_mean",
            Json::num(status.apply_micros_total as f64 / status.upserts_applied.max(1) as f64),
        ),
    ])
}

/// The `/statusz` shape of a KV store's footprint: how many items it
/// holds and the heap bytes of their records — the per-item figure the
/// paper's "billions of items" turns on, read rather than inferred.
fn store_json(items: u64, bytes: u64) -> Json {
    Json::obj(vec![
        ("items", Json::uint(items)),
        ("bytes", Json::uint(bytes)),
    ])
}

fn statusz_single(api: &ServingApi) -> Vec<(&'static str, Json)> {
    let stats = api.stats();
    let stats = &stats;
    vec![
        ("snapshot_version", Json::uint(stats.snapshot_version)),
        ("model_swaps", Json::uint(stats.model_swaps)),
        ("in_flight", Json::uint(stats.in_flight)),
        ("shed", Json::uint(stats.shed)),
        ("deadline_exceeded", Json::uint(stats.deadline_exceeded)),
        ("store_hits", Json::uint(stats.store_hits)),
        ("read_throughs", Json::uint(stats.read_throughs)),
        ("coalesced", Json::uint(stats.coalesced)),
        ("direct", Json::uint(stats.direct)),
        ("unservable", Json::uint(stats.unservable)),
        ("invalidated", Json::uint(stats.invalidated)),
        ("overlay_invalidated", Json::uint(stats.overlay_invalidated)),
        ("overlay_retagged", Json::uint(stats.overlay_retagged)),
        (
            "store",
            store_json(api.store().len() as u64, api.store().record_bytes() as u64),
        ),
        (
            "overlay",
            match api.overlay_status() {
                Some(status) => overlay_status_json(&status),
                None => Json::Null,
            },
        ),
        (
            "outcomes",
            Json::obj(
                graphex_core::Outcome::ALL
                    .iter()
                    .map(|o| (o.name(), Json::uint(stats.outcomes.of(*o))))
                    .collect(),
            ),
        ),
    ]
}

/// Fleet-mode `/statusz`: residency gauges plus one table row per
/// tenant (cold tenants included — their folded lifetime counters
/// survive eviction).
fn statusz_fleet(fleet: &TenantFleet) -> Vec<(&'static str, Json)> {
    let tenants = fleet.list();
    let rows: Vec<Json> = tenants
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("name", Json::str(t.name.clone())),
                ("resident", Json::Bool(t.resident)),
                ("snapshot_version", Json::uint(t.snapshot_version)),
                (
                    "load_mode",
                    match t.load_mode {
                        Some(mode) => Json::str(mode.as_str()),
                        None => Json::str("cold"),
                    },
                ),
                ("resident_bytes", Json::uint(t.resident_bytes)),
                ("store", store_json(t.store_items, t.store_bytes)),
                ("admissions", Json::uint(t.admissions)),
                ("evictions", Json::uint(t.evictions)),
                (
                    "admitted_in_us",
                    Json::uint(t.admitted_in.map_or(0, |d| d.as_micros() as u64)),
                ),
                ("requests", Json::uint(t.stats.outcomes.total())),
                ("store_hits", Json::uint(t.stats.store_hits)),
                ("read_throughs", Json::uint(t.stats.read_throughs)),
                ("in_flight", Json::uint(t.stats.in_flight)),
                ("model_swaps", Json::uint(t.stats.model_swaps)),
                (
                    "overlay",
                    match &t.overlay {
                        Some(status) => overlay_status_json(status),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    vec![
        ("mode", Json::str("fleet")),
        ("default_tenant", Json::str(fleet.default_tenant())),
        (
            "resident_cap",
            Json::uint(fleet.config().resident_cap as u64),
        ),
        (
            "resident",
            Json::uint(tenants.iter().filter(|t| t.resident).count() as u64),
        ),
        (
            "resident_bytes",
            Json::uint(tenants.iter().map(|t| t.resident_bytes).sum()),
        ),
        ("tenants", Json::Arr(rows)),
    ]
}

impl ServeHandler {
    /// Resolves the serving api a request addresses: single backend, or
    /// per-tenant lookup (with lazy admission) through the fleet. Tenant
    /// routing failures are client errors (404) — an unknown or invalid
    /// tenant name must never count against the 5xx budget — while an
    /// admission failure of a *known* tenant (corrupt snapshot) is a 503:
    /// retrying after a fixed publish succeeds.
    fn resolve_api(
        &self,
        tenant: Option<&str>,
        out: &mut String,
    ) -> Result<Arc<ServingApi>, Routed> {
        match (&self.backend, tenant) {
            (Backend::Single(api), None) => Ok(Arc::clone(api)),
            (Backend::Single(_), Some(_)) => {
                Err(Routed::error(out, 404, "no tenant fleet configured"))
            }
            (Backend::Fleet(fleet), tenant) => {
                let name = tenant.unwrap_or(fleet.default_tenant());
                fleet.api(name).map_err(|e| match e {
                    FleetError::InvalidName(_) | FleetError::UnknownTenant(_) => {
                        Routed::error(out, 404, e.to_string())
                    }
                    FleetError::Tenant { .. } => {
                        Routed::error(out, 503, e.to_string()).with_header("Retry-After", "1")
                    }
                })
            }
        }
    }

    /// `POST /v1/infer` (and tenant variants): one request object or a
    /// `{"requests":[...]}` batch. Each entry is served and written to
    /// `out` in turn — a store hit goes from the store's record to the
    /// response bytes with nothing built in between. A request carrying a
    /// trace header (the router is upstream) gets the full span breakdown
    /// embedded in the response body so the router can fold it into its
    /// own trace.
    fn infer(&self, api: &ServingApi, request: &Request, cx: &mut Cx, out: &mut String) -> Routed {
        // Deadline check happens before any parsing or inference: a request
        // that waited out its budget in the accept queue is refused cheaply.
        if self
            .deadline
            .is_some_and(|deadline| cx.started.elapsed() > deadline)
        {
            api.note_deadline_exceeded();
            return Routed::error(out, 503, "deadline exceeded").with_header("Retry-After", "1");
        }
        let parse_start = cx.trace.clock();
        let _guard = api.begin_request();
        let (decoded, batch) = match decode_envelope(request.body(), "requests", decode_one) {
            Ok(envelope) => envelope,
            Err(message) => return Routed::error(out, 400, message),
        };
        cx.trace.record(Stage::Parse, parse_start);
        if batch {
            open_envelope(out);
        }
        // One `Serialize` span for the request: from the first entry's
        // write, as long as the writes took together.
        let tracing = cx.trace.is_enabled();
        let mut serialize: Option<(Instant, Duration)> = None;
        for (i, entry) in decoded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            api.serve_with(&entry.request(), &mut cx.trace, |answer| {
                let start = tracing.then(Instant::now);
                write_entry(out, &answer, entry.id);
                if let Some(start) = start {
                    serialize.get_or_insert((start, Duration::ZERO)).1 += start.elapsed();
                }
            });
        }
        if batch {
            // Envelope-level: the snapshot *serving* right now (the
            // per-response field is the snapshot that produced each
            // answer, which can be older on cached store hits).
            close_envelope(out, api.snapshot_version());
        }
        if let Some((start, took)) = serialize {
            cx.trace.record_span(Stage::Serialize, start, took, 0);
        }
        // Into the envelope — or the one entry that is the whole reply.
        cx.stamp_trace(out);
        cx.entries = decoded.len();
        Routed::new(200, edge::JSON)
    }
}

/// `POST /v1/upsert` (and `/v1/t/<tenant>/upsert`): the NRT overlay
/// write path. Accepts one record object or a `{"records":[...]}`
/// batch; an accepted batch is servable before the ack is written.
/// No overlay attached → 404; a full journal → 429 + `Retry-After`
/// (write shedding, mirroring the accept-queue policy); a malformed
/// record → 400. None of these count against the 5xx budget.
fn upsert(api: &ServingApi, request: &Request, out: &mut String) -> Routed {
    if api.overlay().is_none() {
        return Routed::error(
            out,
            404,
            "overlay serving is not enabled; start the server with --overlay",
        );
    }
    let records = match decode_envelope(request.body(), "records", decode_record) {
        Ok((records, _)) if records.is_empty() => {
            return Routed::error(out, 400, "\"records\" must not be empty")
        }
        Ok((records, _)) => records,
        Err(message) => return Routed::error(out, 400, message),
    };
    match api.apply_upsert(&records) {
        Ok(ack) => Routed::json(
            out,
            200,
            &Json::obj(vec![
                ("seq", Json::uint(ack.seq)),
                ("applied", Json::uint(ack.applied as u64)),
                ("depth", Json::uint(ack.depth as u64)),
                ("journal_bytes", Json::uint(ack.journal_bytes as u64)),
                ("snapshot_version", Json::uint(api.snapshot_version())),
            ]),
        ),
        Err(
            e @ OverlayError::CapExceeded {
                retry_after_secs, ..
            },
        ) => Routed::error(out, 429, e.to_string())
            .with_header("Retry-After", retry_after_secs.to_string()),
        Err(e @ OverlayError::Invalid(_)) => Routed::error(out, 400, e.to_string()),
    }
}

/// `GET /v1/overlay/journal`: exports the uncompacted journal in the
/// line-oriented interchange format `graphex build --overlay-journal`
/// ingests. The compactor fetches this, rebuilds, publishes, then
/// `POST /v1/overlay/drain`s up to the journal's high-water mark.
fn overlay_journal(api: &ServingApi, out: &mut String) -> Routed {
    match api.export_overlay_journal() {
        Some(journal) => Routed::text(out, 200, &journal.to_text()),
        None => Routed::error(out, 404, "overlay serving is not enabled"),
    }
}

/// `POST /v1/overlay/drain` with `{"upto": N}`: drops journal entries
/// absorbed by a published compaction. Entries that arrived after the
/// journal export survive and keep serving.
fn overlay_drain(api: &ServingApi, request: &Request, out: &mut String) -> Routed {
    let envelope =
        body_text(request.body()).and_then(|text| json::parse(text).map_err(invalid_json));
    let envelope = match envelope {
        Ok(value) => value,
        Err(message) => return Routed::error(out, 400, message),
    };
    let Some(upto) = envelope.get("upto").and_then(Json::as_u64) else {
        return Routed::error(out, 400, "missing or non-integer \"upto\"");
    };
    match api.drain_overlay(upto) {
        Some(report) => Routed::json(
            out,
            200,
            &Json::obj(vec![
                ("drained", Json::uint(report.drained as u64)),
                ("remaining", Json::uint(report.remaining as u64)),
            ]),
        ),
        None => Routed::error(out, 404, "overlay serving is not enabled"),
    }
}

fn body_text(body: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".into())
}

fn invalid_json(e: json::ParseError) -> String {
    format!("invalid JSON: {e}")
}

/// One JSON object as the scanner reports it (`json::members`): which
/// members it has and where their values lie in its text. Nothing is
/// built; a decoder reads the few values it wants off the spans.
pub(crate) struct Fields<'a> {
    /// The object's own text.
    pub(crate) text: &'a str,
    members: Vec<json::Member<'a>>,
}

impl<'a> Fields<'a> {
    /// `None` when `text` is a document of another kind.
    fn scan(text: &'a str) -> Result<Option<Self>, String> {
        let members = json::members(text).map_err(invalid_json)?;
        Ok(members.map(|members| Self { text, members }))
    }

    /// The value of the first member named `key`, as written.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, span)| &self.text[span.clone()])
    }

    /// [`Fields::get`] as `Json::as_u64` would read it.
    fn u64(&self, key: &str) -> Option<Option<u64>> {
        self.get(key).map(|span| json::parse(span).ok()?.as_u64())
    }
}

/// Decodes a request body that is either one entry object or a
/// `{"<key>": [entry, ...]}` batch of at most [`MAX_BATCH`], returning
/// the entries and whether the batch form was used. `decode` is handed
/// each entry's [`Fields`] (`None` for an entry that is no object) and
/// may borrow from the body. Batch entry errors are prefixed `<key>[i]:`.
/// `pub(crate)` (with [`decode_one`]) so the router validates client
/// envelopes with exactly the backend's rules — a request the router
/// forwards is never one a backend would 400.
pub(crate) fn decode_envelope<'a, T>(
    body: &'a [u8],
    key: &str,
    decode: impl Fn(Option<&Fields<'a>>) -> Result<T, String>,
) -> Result<(Vec<T>, bool), String> {
    let envelope = Fields::scan(body_text(body)?)?;
    let Some(entries) = envelope.as_ref().and_then(|envelope| envelope.get(key)) else {
        return Ok((vec![decode(envelope.as_ref())?], false));
    };
    let spans = json::elements(entries)
        .map_err(invalid_json)?
        .ok_or_else(|| format!("\"{key}\" must be an array"))?;
    if spans.len() > MAX_BATCH {
        return Err(format!(
            "batch of {} exceeds cap of {MAX_BATCH}",
            spans.len()
        ));
    }
    let mut decoded = Vec::with_capacity(spans.len());
    for (i, span) in spans.into_iter().enumerate() {
        let entry = Fields::scan(&entries[span])?;
        decoded.push(decode(entry.as_ref()).map_err(|message| format!("{key}[{i}]: {message}"))?);
    }
    Ok((decoded, true))
}

/// A request id as JSON: ids past 2^53 travel as decimal strings,
/// mirroring what the decoder accepts — an f64 JSON number cannot carry
/// them exactly.
pub(crate) fn id_json(id: u64) -> Json {
    if id <= 1 << 53 {
        Json::uint(id)
    } else {
        Json::str(id.to_string())
    }
}

/// Decodes one upsert record: `{"text": "...", "leaf": N, "search": N,
/// "recall": N}` (recall optional, defaulting to 0). Validation beyond
/// shape — empty text, reserved bytes — happens in the overlay store so
/// HTTP and in-process writers are refused identically.
fn decode_record(fields: Option<&Fields<'_>>) -> Result<KeyphraseRecord, String> {
    let fields = fields.ok_or("record must be a JSON object")?;
    let text = fields
        .get("text")
        .and_then(json::unquote)
        .ok_or("missing or non-string \"text\"")?
        .into_owned();
    let leaf = fields
        .u64("leaf")
        .flatten()
        .ok_or("missing or non-integer \"leaf\"")?;
    let leaf = u32::try_from(leaf).map_err(|_| "\"leaf\" exceeds u32 range".to_string())?;
    let search = fields
        .u64("search")
        .flatten()
        .ok_or("missing or non-integer \"search\"")?;
    let search = u32::try_from(search).map_err(|_| "\"search\" exceeds u32 range".to_string())?;
    let recall = match fields.u64("recall") {
        None => 0,
        Some(recall) => {
            let recall = recall.ok_or("\"recall\" must be a non-negative integer")?;
            u32::try_from(recall).map_err(|_| "\"recall\" exceeds u32 range".to_string())?
        }
    };
    Ok(KeyphraseRecord::new(text, LeafId(leaf), search, recall))
}

/// One decoded infer entry; the title is the body's own bytes unless it
/// carried an escape.
pub(crate) struct Decoded<'a> {
    title: Cow<'a, str>,
    pub(crate) leaf: u32,
    k: Option<usize>,
    pub(crate) id: Option<u64>,
    alignment: Option<Alignment>,
}

impl Decoded<'_> {
    fn request(&self) -> InferRequest<'_> {
        let mut request =
            InferRequest::new(&self.title, graphex_core::LeafId(self.leaf)).resolve_texts(true);
        if let Some(k) = self.k {
            request = request.k(k);
        }
        if let Some(id) = self.id {
            request = request.id(id);
        }
        if let Some(alignment) = self.alignment {
            request = request.alignment(alignment);
        }
        request
    }
}

pub(crate) fn decode_one<'a>(fields: Option<&Fields<'a>>) -> Result<Decoded<'a>, String> {
    let fields = fields.ok_or("request must be a JSON object")?;
    let title = fields
        .get("title")
        .and_then(json::unquote)
        .ok_or("missing or non-string \"title\"")?;
    let leaf = fields
        .u64("leaf")
        .flatten()
        .ok_or("missing or non-integer \"leaf\"")?;
    let leaf = u32::try_from(leaf).map_err(|_| "\"leaf\" exceeds u32 range".to_string())?;
    let k = match fields.u64("k") {
        None => None,
        Some(k) => Some(
            k.filter(|k| (1..=10_000).contains(k))
                .ok_or("\"k\" must be an integer in 1..=10000")? as usize,
        ),
    };
    // KV keys are full u64 (PR 2); JSON numbers are f64 and lose
    // exactness past 2^53, so large ids are accepted as decimal strings.
    let id = match fields.get("id").map(|span| (span, json::unquote(span))) {
        None => None,
        Some((_, Some(raw))) => Some(
            raw.parse::<u64>()
                .map_err(|_| "\"id\" string must be a decimal u64")?,
        ),
        Some((_, None)) => Some(
            fields
                .u64("id")
                .flatten()
                .ok_or("\"id\" must be a non-negative integer (< 2^53) or a decimal string")?,
        ),
    };
    let alignment = match fields.get("alignment").map(json::unquote) {
        None => None,
        Some(Some(name)) if name == "lta" => Some(Alignment::Lta),
        Some(Some(name)) if name == "wmr" => Some(Alignment::Wmr),
        Some(Some(name)) if name == "jac" => Some(Alignment::Jac),
        Some(_) => return Err("\"alignment\" must be one of lta|wmr|jac".into()),
    };
    Ok(Decoded {
        title,
        leaf,
        k,
        id,
        alignment,
    })
}

fn source_label(source: ServeSource) -> &'static str {
    match source {
        ServeSource::Store => "store_hit",
        ServeSource::ReadThrough => "read_through",
        ServeSource::Coalesced => "coalesced",
        ServeSource::Direct => "direct",
        ServeSource::None => "none",
    }
}

/// A batch reply up to its first entry ([`write_entry`]s follow,
/// comma-separated, then [`close_envelope`]).
fn open_envelope(out: &mut String) {
    out.push_str("{\"responses\":[");
}

fn close_envelope(out: &mut String, snapshot_version: u64) {
    out.push_str("],\"snapshot_version\":");
    json::write_num(snapshot_version as f64, out);
    out.push('}');
}

/// One response entry, written as `Json` would render it (`render_served`
/// in the tests is that rendering, and the reference this is held to; the
/// id follows [`id_json`]).
fn write_entry(out: &mut String, answer: &Answer<'_>, id: Option<u64>) {
    out.push('{');
    match id {
        None => {}
        Some(id) if id <= 1 << 53 => {
            out.push_str("\"id\":");
            json::write_num(id as f64, out);
            out.push(',');
        }
        Some(id) => {
            let _ = write!(out, "\"id\":\"{id}\",");
        }
    }
    out.push_str("\"outcome\":");
    json::write_escaped(answer.outcome().name(), out);
    out.push_str(",\"source\":");
    json::write_escaped(source_label(answer.source()), out);
    out.push_str(",\"keyphrases\":[");
    let mut written = 0;
    answer.for_each_keyphrase(|keyphrase| {
        if written > 0 {
            out.push(',');
        }
        json::write_escaped(keyphrase, out);
        written += 1;
    });
    out.push_str("],\"snapshot_version\":");
    json::write_num(answer.snapshot_version() as f64, out);
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};
    use graphex_serving::{KvStore, OverlayStore, Served, Tags};

    /// The reference [`write_entry`] is held to: the entry as a `Json`
    /// tree, rendered.
    fn render_served(served: &Served, id: Option<u64>) -> Json {
        let mut members = vec![
            ("outcome", Json::str(served.outcome.name())),
            ("source", Json::str(source_label(served.source))),
            (
                "keyphrases",
                Json::Arr(
                    served
                        .keyphrases
                        .iter()
                        .map(|k| Json::str(k.clone()))
                        .collect(),
                ),
            ),
            ("snapshot_version", Json::uint(served.snapshot_version)),
        ];
        if let Some(id) = id {
            members.insert(0, ("id", id_json(id)));
        }
        Json::obj(members)
    }

    fn model() -> Arc<graphex_core::GraphExModel> {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        config.build_meta_fallback = false;
        let model = GraphExBuilder::new(config)
            .add_records(vec![
                KeyphraseRecord::new("widget gadget", LeafId(1), 90, 5),
                KeyphraseRecord::new("widget gadget pro", LeafId(1), 50, 5),
                KeyphraseRecord::new("widget gadget pro max", LeafId(1), 30, 5),
            ])
            .build()
            .unwrap();
        Arc::new(model)
    }

    fn api() -> Arc<ServingApi> {
        Arc::new(ServingApi::new(model(), Arc::new(KvStore::new()), 10))
    }

    fn api_with_overlay(cap_bytes: usize) -> Arc<ServingApi> {
        Arc::new(
            ServingApi::new(model(), Arc::new(KvStore::new()), 10)
                .with_overlay(Arc::new(OverlayStore::with_cap(cap_bytes))),
        )
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_depth: 16,
            max_body_bytes: 4096,
            deadline: None,
            keep_alive_timeout: Duration::from_secs(2),
            trace: TraceConfig::default(),
            history: HistoryConfig::default(),
        }
    }

    #[test]
    fn serves_all_four_endpoints_over_keep_alive() {
        let server = crate::start(test_config(), api()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();

        let health = client.get("/healthz").unwrap();
        assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));

        let single = client
            .post_json(
                "/v1/infer",
                r#"{"title":"widget gadget pro max","leaf":1,"k":2,"id":7}"#,
            )
            .unwrap();
        assert_eq!(single.status, 200);
        let body = json::parse(&single.text()).unwrap();
        assert_eq!(body.get("outcome").unwrap().as_str(), Some("exact_leaf"));
        assert_eq!(body.get("source").unwrap().as_str(), Some("read_through"));
        assert_eq!(body.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(body.get("keyphrases").unwrap().as_arr().unwrap().len(), 2);

        // Same id again: a store hit over the same connection.
        let again = client
            .post_json(
                "/v1/infer",
                r#"{"title":"widget gadget pro max","leaf":1,"k":2,"id":7}"#,
            )
            .unwrap();
        assert_eq!(
            json::parse(&again.text())
                .unwrap()
                .get("source")
                .unwrap()
                .as_str(),
            Some("store_hit")
        );

        let batch = client
            .post_json(
                "/v1/infer",
                r#"{"requests":[{"title":"widget gadget","leaf":1},{"title":"zz","leaf":999}]}"#,
            )
            .unwrap();
        assert_eq!(batch.status, 200);
        let body = json::parse(&batch.text()).unwrap();
        let responses = body.get("responses").unwrap().as_arr().unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(
            responses[0].get("outcome").unwrap().as_str(),
            Some("exact_leaf")
        );
        assert_eq!(
            responses[1].get("outcome").unwrap().as_str(),
            Some("unknown_leaf")
        );

        let status = client.get("/statusz").unwrap();
        assert_eq!(status.status, 200);
        let stats = json::parse(&status.text()).unwrap();
        assert_eq!(stats.get("store_hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("snapshot_version").unwrap().as_u64(), Some(0));
        // The store's footprint is read, not inferred: item 7 and nothing
        // else (id-less answers are never stored).
        let store = server.api().unwrap().store();
        assert_eq!(
            (store.len(), store.record_bytes()),
            (1, store.record(7).unwrap().heap_bytes())
        );
        let footprint = stats.get("store").unwrap();
        assert_eq!(footprint.get("items").unwrap().as_u64(), Some(1));
        assert_eq!(
            footprint.get("bytes").unwrap().as_u64(),
            Some(store.record_bytes() as u64)
        );

        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let text = metrics.text();
        assert!(text.contains("graphex_http_requests_total{endpoint=\"infer\",code=\"200\"} 3"));
        assert!(text.contains("graphex_request_duration_seconds_count 3"));
        assert!(text.contains("graphex_serve_source_total{source=\"store_hit\"} 1"));
        assert!(text.contains("graphex_store_items 1\n"), "{text}");
        assert!(
            text.contains(&format!("graphex_store_bytes {}\n", store.record_bytes())),
            "{text}"
        );

        drop(client); // close the keep-alive so shutdown doesn't wait it out
        server.shutdown();
    }

    /// A revised title, then a changed leaf, under one id over HTTP: each
    /// answer is the kernel's for that request, not the stored one —
    /// whether the first answer was a read-through or a batch pass's.
    #[test]
    fn revised_item_is_served_fresh_over_http() {
        for prewarmed in [false, true] {
            let store = KvStore::new();
            if prewarmed {
                let item = graphex_serving::batch::BatchItem {
                    id: 7,
                    title: "widget gadget pro max".into(),
                    leaf: LeafId(1),
                };
                graphex_serving::BatchPipeline::new(&model(), &store, 10, 1).run_full(&[item]);
            }
            revise_over_http(Arc::new(ServingApi::new(model(), Arc::new(store), 10)));
        }
    }

    fn revise_over_http(api: Arc<ServingApi>) {
        let engine = graphex_core::Engine::new(model());
        let server = crate::start(test_config(), api).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let mut previous = None;
        for (title, leaf) in [
            ("widget gadget pro max", 1),
            ("widget gadget", 1),
            ("widget gadget", 2),
        ] {
            let body = format!(r#"{{"title":"{title}","leaf":{leaf},"k":10,"id":7}}"#);
            let reply = client.post_json("/v1/infer", &body).unwrap();
            assert_eq!(reply.status, 200, "{}", reply.text());
            let reply = json::parse(&reply.text()).unwrap();
            let served: Vec<&str> = reply
                .get("keyphrases")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|k| k.as_str().unwrap())
                .collect();
            let fresh = engine.infer(
                &graphex_core::InferRequest::new(title, LeafId(leaf))
                    .k(10)
                    .resolve_texts(true),
            );
            assert_eq!(served, fresh.texts, "{title:?} in leaf {leaf}");
            assert_ne!(
                Some(fresh.texts.clone()),
                previous,
                "each step asks something new"
            );
            previous = Some(fresh.texts);
        }
        drop(client);
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_never_a_hang() {
        let server = crate::start(test_config(), api()).unwrap();
        let addr = server.addr();

        // Each malformed case desyncs the stream, so use a fresh
        // connection per probe (the server closes after an error).
        type Probe = Box<dyn Fn(&mut HttpClient) -> std::io::Result<crate::Response>>;
        let cases: Vec<(u16, Probe)> = vec![
            (
                400,
                Box::new(|c| c.post_json("/v1/infer", "this is not json")),
            ),
            (400, Box::new(|c| c.post_json("/v1/infer", r#"{"leaf":1}"#))),
            (
                400,
                Box::new(|c| c.post_json("/v1/infer", r#"{"title":"x","leaf":-3}"#)),
            ),
            (
                400,
                Box::new(|c| c.post_json("/v1/infer", r#"{"title":"x","leaf":1,"k":0}"#)),
            ),
            (
                400,
                Box::new(|c| c.post_json("/v1/infer", r#"{"requests":7}"#)),
            ),
            (
                400,
                Box::new(|c| c.post_json("/v1/infer", r#"{"requests":[{"title":1,"leaf":1}]}"#)),
            ),
            (404, Box::new(|c| c.get("/nope"))),
            (405, Box::new(|c| c.get("/v1/infer"))),
            (405, Box::new(|c| c.post_json("/healthz", "{}"))),
        ];
        for (expected, probe) in cases {
            let mut client = HttpClient::connect(addr).unwrap();
            let response = probe(&mut client).unwrap();
            assert_eq!(response.status, expected, "{}", response.text());
        }

        // The server still serves normal traffic afterwards.
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        server.shutdown();
    }

    /// The serving handler's half of shedding (the edge's half is tested
    /// in `edge.rs`): a connection-level 429 lands in `ServeStats::shed`.
    #[test]
    fn full_accept_queue_sheds_with_429() {
        let config = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..test_config()
        };
        let server = crate::start(config, api()).unwrap();
        let addr = server.addr();
        // One connection pins the single worker, the next fills the queue
        // (the acceptor admits in connect order), so a third is shed.
        let mut held = HttpClient::connect(addr).unwrap();
        assert_eq!(held.get("/healthz").unwrap().status, 200);
        let queued = std::net::TcpStream::connect(addr).unwrap();
        let response = HttpClient::connect(addr).unwrap().get("/healthz").unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(server.api().unwrap().stats().shed, 1);
        drop((held, queued));
        server.shutdown();
    }

    #[test]
    fn expired_deadline_answers_503_without_inference() {
        let config = ServerConfig {
            deadline: Some(Duration::from_nanos(1)),
            ..test_config()
        };
        let server = crate::start(config, api()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let response = client
            .post_json("/v1/infer", r#"{"title":"widget gadget","leaf":1}"#)
            .unwrap();
        assert_eq!(response.status, 503);
        let stats = server.api().unwrap().stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.outcomes.total(), 0, "no inference ran");
        // Health/stats endpoints are exempt from the inference deadline.
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        drop(client);
        server.shutdown();
    }

    /// KV keys are full u64; ids past 2^53 travel as decimal strings in
    /// both directions (JSON numbers are f64).
    #[test]
    fn large_ids_roundtrip_as_strings() {
        let server = crate::start(test_config(), api()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let big = u64::MAX;
        let body = format!(r#"{{"title":"widget gadget","leaf":1,"id":"{big}"}}"#);
        let response = client.post_json("/v1/infer", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        let parsed = json::parse(&response.text()).unwrap();
        assert_eq!(
            parsed.get("id").unwrap().as_str(),
            Some(big.to_string().as_str())
        );
        // Small ids keep the plain-number form.
        let response = client
            .post_json("/v1/infer", r#"{"title":"widget gadget","leaf":1,"id":12}"#)
            .unwrap();
        let parsed = json::parse(&response.text()).unwrap();
        assert_eq!(parsed.get("id").unwrap().as_u64(), Some(12));
        // A number past 2^53 is a 400, not silent precision loss.
        let response = client
            .post_json(
                "/v1/infer",
                r#"{"title":"widget gadget","leaf":1,"id":18446744073709551615}"#,
            )
            .unwrap();
        assert_eq!(response.status, 400);
        drop(client);
        server.shutdown();
    }

    /// The deadline budget covers server-induced delay only: a client
    /// that connects, thinks for longer than the deadline, and then
    /// sends on an idle server must be served, not 503'd.
    #[test]
    fn client_think_time_does_not_consume_the_deadline() {
        let config = ServerConfig {
            deadline: Some(Duration::from_millis(150)),
            ..test_config()
        };
        let server = crate::start(config, api()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(400)); // > deadline, pure think-time
        let response = client
            .post_json("/v1/infer", r#"{"title":"widget gadget","leaf":1}"#)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(server.api().unwrap().stats().deadline_exceeded, 0);
        drop(client);
        server.shutdown();
    }

    fn tenant_model(tag: u32) -> graphex_core::GraphExModel {
        let mut config = GraphExConfig::default();
        config.curation.min_search_count = 0;
        GraphExBuilder::new(config)
            .add_records((0..4u32).map(|i| {
                KeyphraseRecord::new(format!("tenant{tag} widget v{i}"), LeafId(1), 100 + i, 10)
            }))
            .build()
            .unwrap()
    }

    fn fleet_fixture(
        label: &str,
        tenants: &[(&str, u32)],
    ) -> (std::path::PathBuf, Arc<TenantFleet>) {
        let root = std::env::temp_dir().join(format!(
            "graphex-server-fleet-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let fleet = TenantFleet::open(
            &root,
            graphex_serving::FleetConfig {
                resident_cap: 2,
                ..Default::default()
            },
        )
        .unwrap();
        for &(name, tag) in tenants {
            fleet
                .publish_model(name, &tenant_model(tag), "seed")
                .unwrap();
        }
        (root, Arc::new(fleet))
    }

    #[test]
    fn fleet_mode_multiplexes_tenants_by_path() {
        let (root, fleet) = fleet_fixture("mux", &[("default", 0), ("alpha", 1), ("beta", 2)]);
        let server = crate::start_fleet(test_config(), fleet).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();

        // Tenant paths reach the right tenant's model.
        for (tenant, tag) in [("alpha", 1), ("beta", 2)] {
            let body = format!(r#"{{"title":"tenant{tag} widget v0","leaf":1,"k":2}}"#);
            let response = client
                .post_json(&format!("/v1/t/{tenant}/infer"), &body)
                .unwrap();
            assert_eq!(response.status, 200, "{tenant}: {}", response.text());
            let parsed = json::parse(&response.text()).unwrap();
            assert_eq!(parsed.get("outcome").unwrap().as_str(), Some("exact_leaf"));
            let phrases = parsed.get("keyphrases").unwrap().as_arr().unwrap();
            assert!(
                phrases
                    .iter()
                    .all(|p| p.as_str().unwrap().contains(&format!("tenant{tag}"))),
                "{tenant} answered with another tenant's phrases: {phrases:?}"
            );
        }

        // The legacy path serves the default tenant.
        let legacy = client
            .post_json(
                "/v1/infer",
                r#"{"title":"tenant0 widget v0","leaf":1,"k":2}"#,
            )
            .unwrap();
        assert_eq!(legacy.status, 200);
        let parsed = json::parse(&legacy.text()).unwrap();
        assert_eq!(parsed.get("outcome").unwrap().as_str(), Some("exact_leaf"));

        // Unknown and invalid tenants are client errors, not 5xx.
        let unknown = client
            .post_json("/v1/t/ghost/infer", r#"{"title":"x","leaf":1}"#)
            .unwrap();
        assert_eq!(unknown.status, 404);
        let invalid = client
            .post_json("/v1/t/..%2fescape/infer", r#"{"title":"x","leaf":1}"#)
            .unwrap();
        assert_eq!(invalid.status, 404);
        // GET on a tenant infer path is a 405 like the legacy path.
        assert_eq!(client.get("/v1/t/alpha/infer").unwrap().status, 405);

        // /statusz reports the fleet table.
        let status = json::parse(&client.get("/statusz").unwrap().text()).unwrap();
        assert_eq!(status.get("mode").unwrap().as_str(), Some("fleet"));
        assert_eq!(
            status.get("default_tenant").unwrap().as_str(),
            Some("default")
        );
        let rows = status.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 3);
        let alpha = rows
            .iter()
            .find(|row| row.get("name").unwrap().as_str() == Some("alpha"))
            .expect("alpha row");
        assert_eq!(alpha.get("requests").unwrap().as_u64(), Some(1));

        // /metrics carries per-tenant families and zero server errors.
        // Three tenants took traffic under a cap of 2, so the first one
        // (alpha) has been LRU-evicted — but its counters keep exporting.
        let metrics = client.get("/metrics").unwrap().text();
        assert!(metrics.contains("graphex_tenant_resident{tenant=\"default\"} 1"));
        assert!(metrics.contains("graphex_tenant_resident{tenant=\"alpha\"} 0"));
        assert!(metrics.contains(
            "graphex_tenant_serve_outcome_total{tenant=\"alpha\",outcome=\"exact_leaf\"} 1"
        ));
        assert!(metrics.contains("graphex_fleet_resident_cap 2"));
        // A tenant's store goes with its incarnation: the evicted one
        // reads empty, a resident one holds what it answered.
        assert!(
            metrics.contains("graphex_store_items{tenant=\"alpha\"} 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("graphex_store_bytes{tenant=\"alpha\"} 0"),
            "{metrics}"
        );
        let default_row = rows
            .iter()
            .find(|row| row.get("name").unwrap().as_str() == Some("default"))
            .expect("default row");
        assert_eq!(
            default_row
                .get("store")
                .unwrap()
                .get("items")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert!(metrics.contains(
            "graphex_tenant_serve_outcome_total{tenant=\"beta\",outcome=\"exact_leaf\"} 1"
        ));
        assert_eq!(server.metrics().server_errors(), 0);

        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// The NRT write path end to end over HTTP: an acked upsert is
    /// servable on the very next request, the journal exports, and a
    /// drain drops exactly the absorbed prefix.
    #[test]
    fn upsert_round_trip_serves_new_leaf_immediately() {
        let server = crate::start(test_config(), api_with_overlay(1 << 20)).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();

        // Onboard a brand-new leaf.
        let ack = client
            .post_json(
                "/v1/upsert",
                r#"{"text":"solar panel kit","leaf":42,"search":120,"recall":9}"#,
            )
            .unwrap();
        assert_eq!(ack.status, 200, "{}", ack.text());
        let ack = json::parse(&ack.text()).unwrap();
        assert_eq!(ack.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(ack.get("applied").unwrap().as_u64(), Some(1));

        // The very next request serves it.
        let served = client
            .post_json(
                "/v1/infer",
                r#"{"title":"solar panel kit","leaf":42,"k":3}"#,
            )
            .unwrap();
        assert_eq!(served.status, 200, "{}", served.text());
        let served = json::parse(&served.text()).unwrap();
        let phrases = served.get("keyphrases").unwrap().as_arr().unwrap();
        assert!(
            phrases
                .iter()
                .any(|p| p.as_str() == Some("solar panel kit")),
            "upserted phrase must serve: {phrases:?}"
        );

        // Batch envelope onto an existing leaf: composes with base content.
        let batch = client
            .post_json(
                "/v1/upsert",
                r#"{"records":[{"text":"widget gadget ultra","leaf":1,"search":80}]}"#,
            )
            .unwrap();
        assert_eq!(batch.status, 200, "{}", batch.text());
        let augmented = client
            .post_json(
                "/v1/infer",
                r#"{"title":"widget gadget ultra","leaf":1,"k":5}"#,
            )
            .unwrap();
        let augmented = json::parse(&augmented.text()).unwrap();
        let phrases = augmented.get("keyphrases").unwrap().as_arr().unwrap();
        assert!(
            phrases
                .iter()
                .any(|p| p.as_str() == Some("widget gadget ultra")),
            "{phrases:?}"
        );
        assert!(
            phrases.iter().any(|p| p.as_str() == Some("widget gadget")),
            "base content kept: {phrases:?}"
        );

        // The journal exports both records in interchange form.
        let journal = client.get("/v1/overlay/journal").unwrap();
        assert_eq!(journal.status, 200);
        let text = journal.text();
        assert!(text.contains("solar panel kit"), "{text}");
        assert!(text.contains("widget gadget ultra"), "{text}");

        // /statusz and /metrics surface the overlay.
        let status = json::parse(&client.get("/statusz").unwrap().text()).unwrap();
        let overlay = status.get("overlay").unwrap();
        assert_eq!(overlay.get("depth").unwrap().as_u64(), Some(2));
        assert_eq!(overlay.get("upserts_applied").unwrap().as_u64(), Some(2));
        let metrics = client.get("/metrics").unwrap().text();
        assert!(metrics.contains("graphex_overlay_depth 2"), "{metrics}");
        assert!(metrics.contains("graphex_http_requests_total{endpoint=\"upsert\",code=\"200\"} 2"));

        // Drain the first entry (as a compaction that absorbed seq 1 would).
        let drained = client
            .post_json("/v1/overlay/drain", r#"{"upto":1}"#)
            .unwrap();
        assert_eq!(drained.status, 200, "{}", drained.text());
        let drained = json::parse(&drained.text()).unwrap();
        assert_eq!(drained.get("drained").unwrap().as_u64(), Some(1));
        assert_eq!(drained.get("remaining").unwrap().as_u64(), Some(1));

        assert_eq!(server.metrics().server_errors(), 0);
        drop(client);
        server.shutdown();
    }

    /// Write-path refusals are all client errors: no overlay → 404, a
    /// full journal → 429 with `Retry-After`, a bad record → 400.
    #[test]
    fn upsert_refusals_are_404_429_400() {
        // No overlay attached.
        let server = crate::start(test_config(), api()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let refused = client
            .post_json("/v1/upsert", r#"{"text":"x","leaf":1,"search":1}"#)
            .unwrap();
        assert_eq!(refused.status, 404);
        assert!(refused.text().contains("--overlay"), "{}", refused.text());
        assert_eq!(client.get("/v1/overlay/journal").unwrap().status, 404);
        // Wrong methods on overlay paths are 405s, not 404s.
        assert_eq!(client.get("/v1/upsert").unwrap().status, 405);
        assert_eq!(
            client
                .post_json("/v1/overlay/journal", "{}")
                .unwrap()
                .status,
            405
        );
        drop(client);
        server.shutdown();

        // A tiny cap sheds the write with 429 + Retry-After.
        let server = crate::start(test_config(), api_with_overlay(8)).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let shed = client
            .post_json(
                "/v1/upsert",
                r#"{"text":"a phrase far larger than the cap","leaf":7,"search":10}"#,
            )
            .unwrap();
        assert_eq!(shed.status, 429, "{}", shed.text());
        assert_eq!(shed.header("retry-after"), Some("5"));

        // Malformed records are 400s.
        for body in [
            r#"{"text":"","leaf":1,"search":1}"#,
            r#"{"leaf":1,"search":1}"#,
            r#"{"text":"x","leaf":1}"#,
            r#"{"records":[]}"#,
            r#"{"records":7}"#,
        ] {
            let mut fresh = HttpClient::connect(server.addr()).unwrap();
            let response = fresh.post_json("/v1/upsert", body).unwrap();
            assert_eq!(response.status, 400, "{body}: {}", response.text());
        }
        assert_eq!(server.metrics().server_errors(), 0);
        drop(client);
        server.shutdown();
    }

    /// Fleet mode: upserts route per tenant, land in that tenant's
    /// overlay only, and export under its `tenant` metrics label.
    #[test]
    fn fleet_upserts_are_tenant_scoped() {
        let root = std::env::temp_dir().join(format!(
            "graphex-server-fleet-upsert-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let fleet = TenantFleet::open(
            &root,
            graphex_serving::FleetConfig {
                resident_cap: 2,
                overlay: true,
                ..Default::default()
            },
        )
        .unwrap();
        fleet
            .publish_model("default", &tenant_model(0), "seed")
            .unwrap();
        fleet
            .publish_model("alpha", &tenant_model(1), "seed")
            .unwrap();
        let server = crate::start_fleet(test_config(), Arc::new(fleet)).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();

        let ack = client
            .post_json(
                "/v1/t/alpha/upsert",
                r#"{"text":"alpha exclusive phrase","leaf":9,"search":60}"#,
            )
            .unwrap();
        assert_eq!(ack.status, 200, "{}", ack.text());

        // Alpha serves it; the default tenant does not know the leaf.
        let alpha = client
            .post_json(
                "/v1/t/alpha/infer",
                r#"{"title":"alpha exclusive phrase","leaf":9}"#,
            )
            .unwrap();
        let alpha = json::parse(&alpha.text()).unwrap();
        let phrases = alpha.get("keyphrases").unwrap().as_arr().unwrap();
        assert!(
            phrases
                .iter()
                .any(|p| p.as_str() == Some("alpha exclusive phrase")),
            "{phrases:?}"
        );
        let other = client
            .post_json(
                "/v1/infer",
                r#"{"title":"alpha exclusive phrase","leaf":9}"#,
            )
            .unwrap();
        let other = json::parse(&other.text()).unwrap();
        let leaked = other.get("keyphrases").unwrap().as_arr().unwrap();
        assert!(
            leaked
                .iter()
                .all(|p| p.as_str() != Some("alpha exclusive phrase")),
            "alpha's upsert leaked into the default tenant: {leaked:?}"
        );

        // Observability carries the tenant label.
        let metrics = client.get("/metrics").unwrap().text();
        assert!(
            metrics.contains("graphex_overlay_depth{tenant=\"alpha\"} 1"),
            "{metrics}"
        );
        let status = json::parse(&client.get("/statusz").unwrap().text()).unwrap();
        let rows = status.get("tenants").unwrap().as_arr().unwrap();
        let alpha_row = rows
            .iter()
            .find(|row| row.get("name").unwrap().as_str() == Some("alpha"))
            .unwrap();
        assert_eq!(
            alpha_row
                .get("overlay")
                .unwrap()
                .get("depth")
                .unwrap()
                .as_u64(),
            Some(1)
        );

        assert_eq!(server.metrics().server_errors(), 0);
        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn single_mode_rejects_tenant_paths() {
        let server = crate::start(test_config(), api()).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let response = client
            .post_json("/v1/t/alpha/infer", r#"{"title":"widget gadget","leaf":1}"#)
            .unwrap();
        assert_eq!(response.status, 404);
        assert!(
            response.text().contains("no tenant fleet"),
            "{}",
            response.text()
        );
        drop(client);
        server.shutdown();
    }

    #[test]
    fn fleet_eviction_under_traffic_never_5xxes() {
        let (root, fleet) = fleet_fixture("evict", &[("default", 0), ("a", 1), ("b", 2), ("c", 3)]);
        let server = crate::start_fleet(test_config(), Arc::clone(&fleet)).unwrap();
        let addr = server.addr();

        // Round-robin across more tenants than the residency cap (2), so
        // every request cycle forces admissions and LRU evictions.
        let names = ["a", "b", "c", "default"];
        let tags = [1u32, 2, 3, 0];
        let mut client = HttpClient::connect(addr).unwrap();
        for round in 0..6 {
            for (tenant, tag) in names.iter().zip(tags) {
                let body = format!(r#"{{"title":"tenant{tag} widget v0","leaf":1,"k":2}}"#);
                let response = client
                    .post_json(&format!("/v1/t/{tenant}/infer"), &body)
                    .unwrap();
                assert_eq!(
                    response.status,
                    200,
                    "round {round} {tenant}: {}",
                    response.text()
                );
            }
        }
        assert!(fleet.resident_count() <= 2, "cap must hold under churn");
        let evictions: u64 = fleet.list().iter().map(|t| t.evictions).sum();
        assert!(evictions > 0, "test must actually exercise eviction");
        assert_eq!(server.metrics().server_errors(), 0, "evictions caused 5xx");

        drop(client);
        server.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// Answers grown from a byte script: keyphrases over everything the
    /// string writer treats specially (and the empty string), ids and
    /// snapshot versions on both sides of 2^53.
    fn phrases(script: &mut impl FnMut() -> u8) -> Vec<String> {
        const PALETTE: [char; 16] = [
            'a',
            'z',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{1}',
            '\u{1f}',
            '\u{7f}',
            '\u{e9}',
            '\u{20ac}',
            '\u{1f600}',
            '}',
        ];
        (0..script() % 9)
            .map(|_| {
                (0..script() % 7)
                    .map(|_| PALETTE[usize::from(script()) % 16])
                    .collect()
            })
            .collect()
    }

    fn edge_u64(script: &mut impl FnMut() -> u8) -> u64 {
        match script() % 7 {
            0 => 0,
            1 => u64::from(script()),
            2 => 1 << 53,
            3 => (1 << 53) + 1,
            4 => u64::MAX,
            5 => (1 << 53) - 1,
            _ => (0..8).fold(0, |n, _| n << 8 | u64::from(script())),
        }
    }

    const SOURCES: [ServeSource; 5] = [
        ServeSource::Store,
        ServeSource::ReadThrough,
        ServeSource::Coalesced,
        ServeSource::Direct,
        ServeSource::None,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The direct writer against the tree render, byte for byte: one
        /// entry for every `Outcome` × `ServeSource`, computed and as a
        /// store hit cut at every `k`, alone and inside an envelope, with
        /// and without the trace stamp.
        #[test]
        fn direct_writer_matches_the_tree_render(
            script in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            let mut bytes = script.iter();
            let mut script = || bytes.next().copied().unwrap_or(0);
            let keyphrases = phrases(&mut script);
            let id = (script() % 4 > 0).then(|| edge_u64(&mut script));
            let snapshot_version = edge_u64(&mut script);
            let stamp: Vec<(&'static str, Json)> = match script() % 3 {
                0 => Vec::new(),
                1 => vec![("trace_id", Json::str("00000000deadbeef"))],
                _ => vec![
                    ("trace_id", Json::str("00000000deadbeef")),
                    ("trace", Json::obj(vec![
                        ("total_us", Json::num(12.5)),
                        ("stages", Json::Arr(vec![Json::str("kv \"lookup\""), Json::Null])),
                    ])),
                ],
            };

            // The reference: the tree, the stamp appended to its members.
            let stamped = |mut tree: Json| {
                if let Json::Obj(members) = &mut tree {
                    members.extend(stamp.iter().map(|(k, v)| (k.to_string(), v.clone())));
                }
                tree.render()
            };
            let mut entries = String::new();
            let mut trees = Vec::new();
            let mut check = |answer: Answer<'_>, served: &Served| {
                let tree = render_served(served, id);
                let mut direct = String::new();
                write_entry(&mut direct, &answer, id);
                assert_eq!(direct, tree.render());
                edge::stamp_members(&mut direct, &stamp);
                assert_eq!(direct, stamped(tree.clone()), "one entry as the whole reply");
                if !trees.is_empty() {
                    entries.push(',');
                }
                write_entry(&mut entries, &answer, id);
                trees.push(tree);
            };

            let store = KvStore::new();
            for outcome in graphex_core::Outcome::ALL {
                for source in SOURCES {
                    let served = Served {
                        keyphrases: keyphrases.clone(),
                        source,
                        outcome,
                        predictions: Vec::new(),
                        snapshot_version,
                        overlay_epoch: 0,
                    };
                    check(Answer::Computed(served.clone()), &served);
                }
                // A store hit: the packed record, cut to `k`.
                let tags = Tags { snapshot_version, overlay_epoch: 3, fingerprint: 1 };
                store.put_tagged(9, &keyphrases, outcome, tags);
                assert_eq!(store.get(9).expect("just put").keyphrases, keyphrases);
                let record = store.record(9).expect("just put");
                for k in [0, 1, keyphrases.len().saturating_sub(1), keyphrases.len(), 10_000] {
                    let served = Served {
                        keyphrases: keyphrases.iter().take(k).cloned().collect(),
                        source: ServeSource::Store,
                        outcome,
                        predictions: Vec::new(),
                        snapshot_version,
                        overlay_epoch: 3,
                    };
                    check(Answer::Hit { record: &record, k }, &served);
                }
            }

            // The same entries as a batch reply.
            let envelope_version = edge_u64(&mut script);
            let mut direct = String::new();
            open_envelope(&mut direct);
            direct.push_str(&entries);
            close_envelope(&mut direct, envelope_version);
            edge::stamp_members(&mut direct, &stamp);
            let tree = Json::obj(vec![
                ("responses", Json::Arr(trees)),
                ("snapshot_version", Json::uint(envelope_version)),
            ]);
            assert_eq!(direct, stamped(tree));
        }
    }
}
