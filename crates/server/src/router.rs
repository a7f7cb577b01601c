//! The scatter-gather router: the shared HTTP edge (`edge.rs`) with a
//! scatter-gather handler, in front of a leaf-sharded backend cluster.
//!
//! ```text
//!                        ┌─► backend 0  (leaves ≡ 0 mod N)
//! clients ──► router ────┼─► backend 1  (leaves ≡ 1 mod N)
//!            (this file) └─► backend 2  (leaves ≡ 2 mod N)
//! ```
//!
//! The router speaks the same `/v1/infer` protocol as a single backend —
//! clients cannot tell whether they are talking to a monolith or a
//! cluster. Each request entry is validated with the backend's own
//! decoder (`crate::server::decode_one`), routed by
//! `leaf % shards` through the [`ShardMap`], scattered as per-backend
//! batch sub-envelopes over pooled keep-alive connections, and the
//! responses are merged back in the caller's order with per-request ids
//! (including the >2^53 decimal-string form) passed through verbatim.
//!
//! **Partial failure degrades, it does not storm.** A backend call that
//! exhausts its bounded retries yields per-request `Outcome`-level
//! degradation — `"outcome": "backend_unavailable"` with empty
//! keyphrases inside a 200 envelope — never a router 5xx, so one sick
//! shard cannot fail requests whose leaves live elsewhere.
//!
//! **Ejection state machine** (per backend):
//!
//! ```text
//!             K consecutive failures
//!   Healthy ──────────────────────────► Ejected(backoff)
//!      ▲                                   │ backoff elapsed
//!      │ /healthz probe ok                 ▼
//!      └──────────────────────────── half-open probe
//!                                          │ probe failed
//!                                          ▼
//!                                    Ejected(2·backoff, capped)
//! ```
//!
//! While ejected, calls fail fast (no connect attempt, no retry burn);
//! exactly one thread runs the half-open probe when the backoff expires.


use crate::client::HttpClient;
use crate::edge::{self, Cx, EdgeConfig, EdgeHandle, Handler, Route, Routed};
use crate::history::{HistoryConfig, MetricsHistory};
use crate::http::Request;
use crate::json::{self, Json};
use crate::metrics::{Endpoint, HttpMetrics};
use crate::server::{decode_envelope, decode_one, id_json, Decoded};
use crate::shardmap::ShardMap;
use crate::trace::{backend_trace_from_json, TraceConfig, TraceRecorder, TRACE_HEADER};
use graphex_core::Stage;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Outcome label for a request whose shard was unreachable: router-level
/// degradation, not one of the model's [`graphex_core::Outcome`]s.
pub const OUTCOME_BACKEND_UNAVAILABLE: &str = "backend_unavailable";
/// `source` label accompanying [`OUTCOME_BACKEND_UNAVAILABLE`].
pub const SOURCE_ROUTER_DEGRADED: &str = "router_degraded";
/// Most pooled keep-alive connections kept per backend.
const POOL_SIZE: usize = 8;

/// Router tuning. `Default` is sized for a local cluster; production
/// callers set every field explicitly.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one client connection at a time).
    pub workers: usize,
    /// Accept-queue capacity; connections beyond it are shed with 429.
    pub queue_depth: usize,
    /// Cap on a client request body's declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Idle read timeout on client keep-alive connections.
    pub keep_alive_timeout: Duration,
    /// Connect + read/write timeout for each backend call (a hung
    /// backend costs at most this per attempt).
    pub backend_timeout: Duration,
    /// Extra attempts after a failed backend call (total = retries + 1),
    /// each on a fresh connection.
    pub retries: u32,
    /// Consecutive failed calls before a backend is ejected.
    pub eject_after: u32,
    /// First ejection backoff; doubles per failed half-open probe.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Cap on a backend response body's declared `Content-Length`; a
    /// larger declaration is a backend failure, not an allocation.
    pub max_response_bytes: usize,
    /// Request tracing (stage spans, `/debug/traces`, slow ring). The
    /// router's traces embed per-backend breakdowns parsed from the
    /// sub-responses.
    pub trace: TraceConfig,
    /// Telemetry history (periodic counter samples, `/debug/history`).
    pub history: HistoryConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7900".into(),
            workers: 4,
            queue_depth: 64,
            max_body_bytes: 1 << 20,
            keep_alive_timeout: Duration::from_secs(5),
            backend_timeout: Duration::from_secs(2),
            retries: 2,
            eject_after: 3,
            backoff_initial: Duration::from_millis(200),
            backoff_max: Duration::from_secs(5),
            max_response_bytes: 8 << 20,
            trace: TraceConfig::default(),
            history: HistoryConfig::default(),
        }
    }
}

/// Per-backend health, behind a mutex.
#[derive(Debug, Clone)]
enum Health {
    Healthy { consecutive_failures: u32 },
    Ejected { until: Instant, backoff: Duration },
}

/// One backend: address, connection pool, health, counters.
struct Backend {
    addr: String,
    pool: Mutex<Vec<HttpClient>>,
    health: Mutex<Health>,
    /// Backend calls attempted (each retry counts).
    calls: AtomicU64,
    /// Failed calls (each failed attempt counts).
    failures: AtomicU64,
    /// Retry attempts (calls beyond a sub-batch's first).
    retries: AtomicU64,
    /// Healthy → Ejected transitions (including failed-probe re-ejects).
    ejections: AtomicU64,
    /// Successful half-open probes.
    readmissions: AtomicU64,
    /// Calls refused locally because the backend was ejected.
    fast_failures: AtomicU64,
    /// Most recent failure message (sticky — survives recovery so
    /// `/statusz` can explain *why* the last ejection happened).
    last_error: Mutex<String>,
    /// Monotone tick of the most recent half-open probe (0 = never
    /// probed). Ticks come from the router-wide probe counter, so rows
    /// order probes across backends.
    last_probe_tick: AtomicU64,
}

impl Backend {
    fn new(addr: String) -> Self {
        Self {
            addr,
            pool: Mutex::new(Vec::new()),
            health: Mutex::new(Health::Healthy { consecutive_failures: 0 }),
            calls: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            fast_failures: AtomicU64::new(0),
            last_error: Mutex::new(String::new()),
            last_probe_tick: AtomicU64::new(0),
        }
    }

    fn note_error(&self, message: &str) {
        let mut last = self.last_error.lock().unwrap_or_else(PoisonError::into_inner);
        last.clear();
        last.push_str(message);
    }

    fn last_error_snapshot(&self) -> String {
        self.last_error.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn lock_health(&self) -> std::sync::MutexGuard<'_, Health> {
        self.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admission decision for one sub-batch. `Ok(())` means "go call
    /// it"; `Err` is an immediate local refusal. When an ejection
    /// backoff has expired, the *calling thread* runs the half-open
    /// probe — and pessimistically re-ejects first, so concurrent
    /// callers fail fast instead of queueing behind the probe.
    fn admit(&self, config: &RouterConfig, probe_ticks: &AtomicU64) -> Result<(), String> {
        let probe_backoff = {
            let mut health = self.lock_health();
            match &*health {
                Health::Healthy { .. } => return Ok(()),
                Health::Ejected { until, backoff } => {
                    if Instant::now() < *until {
                        self.fast_failures.fetch_add(1, Ordering::Relaxed);
                        return Err(format!("backend {} ejected", self.addr));
                    }
                    // Claim the probe: double the backoff in place so
                    // only this thread probes this expiry.
                    let doubled = (*backoff * 2).min(config.backoff_max);
                    *health = Health::Ejected { until: Instant::now() + doubled, backoff: doubled };
                    doubled
                }
            }
        };
        // Half-open probe, outside the lock.
        self.last_probe_tick.store(probe_ticks.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let probe = HttpClient::connect_with_timeouts(
            &self.addr,
            config.backend_timeout,
            config.backend_timeout,
        )
        .and_then(|mut client| client.get("/healthz"));
        match probe {
            Ok(response) if response.status == 200 => {
                *self.lock_health() = Health::Healthy { consecutive_failures: 0 };
                self.readmissions.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            _ => {
                self.ejections.fetch_add(1, Ordering::Relaxed);
                self.fast_failures.fetch_add(1, Ordering::Relaxed);
                let reason = format!(
                    "backend {} still unhealthy (probe failed, backing off {probe_backoff:?})",
                    self.addr
                );
                self.note_error(&reason);
                Err(reason)
            }
        }
    }

    fn record_success(&self) {
        *self.lock_health() = Health::Healthy { consecutive_failures: 0 };
    }

    fn record_failure(&self, config: &RouterConfig) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut health = self.lock_health();
        if let Health::Healthy { consecutive_failures } = &mut *health {
            *consecutive_failures += 1;
            if *consecutive_failures >= config.eject_after {
                *health = Health::Ejected {
                    until: Instant::now() + config.backoff_initial,
                    backoff: config.backoff_initial,
                };
                self.ejections.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn take_pooled(&self) -> Option<HttpClient> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner).pop()
    }

    fn return_pooled(&self, client: HttpClient) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < POOL_SIZE {
            pool.push(client);
        }
    }

    fn drop_pool(&self) {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    fn health_label(&self) -> (&'static str, u64) {
        match &*self.lock_health() {
            Health::Healthy { consecutive_failures } => {
                ("healthy", u64::from(*consecutive_failures))
            }
            Health::Ejected { .. } => ("ejected", 0),
        }
    }
}

/// The scatter-gather [`Handler`]: shard map, backends, fan-out counters.
struct ScatterHandler {
    map: ShardMap,
    backends: Vec<Backend>,
    config: RouterConfig,
    /// Client envelopes handled (single or batch).
    requests_in: AtomicU64,
    /// Sub-batches scattered to backends.
    fanout: AtomicU64,
    /// Individual request entries answered with degradation.
    degraded: AtomicU64,
    /// Router-wide half-open probe counter; feeds each backend's
    /// `last_probe_tick`.
    probe_ticks: AtomicU64,
}

/// A running router; dropping it shuts down gracefully.
pub struct RouterHandle {
    edge: EdgeHandle,
    handler: Arc<ScatterHandler>,
}

/// Binds and starts the router over a validated shard map.
pub fn start_router(config: RouterConfig, map: ShardMap) -> std::io::Result<RouterHandle> {
    let edge_config = EdgeConfig {
        addr: config.addr.clone(),
        workers: config.workers,
        queue_depth: config.queue_depth,
        max_body_bytes: config.max_body_bytes,
        keep_alive_timeout: config.keep_alive_timeout,
        trace: config.trace.clone(),
        history: config.history.clone(),
    };
    let handler = Arc::new(ScatterHandler {
        backends: map.backends().iter().map(|a| Backend::new(a.clone())).collect(),
        map,
        config,
        requests_in: AtomicU64::new(0),
        fanout: AtomicU64::new(0),
        degraded: AtomicU64::new(0),
        probe_ticks: AtomicU64::new(0),
    });
    let edge = edge::start(edge_config, Arc::clone(&handler) as Arc<dyn Handler>)?;
    Ok(RouterHandle { edge, handler })
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.edge.addr()
    }

    /// HTTP-layer metrics (what `/metrics` renders; `server_errors()` is
    /// the zero-5xx gate).
    pub fn metrics(&self) -> &HttpMetrics {
        self.edge.metrics()
    }

    /// The shard map this router routes by.
    pub fn map(&self) -> &ShardMap {
        &self.handler.map
    }

    /// Request entries answered with router-level degradation so far.
    pub fn degraded(&self) -> u64 {
        self.handler.degraded.load(Ordering::Relaxed)
    }

    /// The trace recorder, when tracing is enabled.
    pub fn traces(&self) -> Option<&Arc<TraceRecorder>> {
        self.edge.traces()
    }

    /// The telemetry-history ring, or `None` when history is disabled.
    pub fn history(&self) -> Option<&Arc<MetricsHistory>> {
        self.edge.history()
    }

    /// Takes one history sample immediately (tests and report capture
    /// don't wait out the interval). No-op when history is disabled.
    pub fn sample_history_now(&self) {
        self.edge.sample_history_now();
    }

    /// Graceful shutdown: stop accepting, drain admitted connections,
    /// join every thread.
    pub fn shutdown(self) {
        self.edge.shutdown();
    }
}

static ROUTES: [Route; 1] =
    [Route { method: "POST", path: "/v1/infer", scoped: false, endpoint: Endpoint::Infer }];

impl Handler for ScatterHandler {
    fn routes(&self) -> &'static [Route] {
        &ROUTES
    }

    fn handle(&self, _: &Route, _: Option<&str>, request: &Request, cx: &mut Cx) -> Routed {
        self.infer(request, cx)
    }

    /// Fan-out counters plus the per-backend health table.
    fn statusz(&self) -> Vec<(&'static str, Json)> {
        let backends: Vec<Json> = self
            .backends
            .iter()
            .enumerate()
            .map(|(shard, b)| {
                let (state, consecutive_failures) = b.health_label();
                Json::obj(vec![
                    ("shard", Json::uint(shard as u64)),
                    ("addr", Json::str(b.addr.clone())),
                    ("state", Json::str(state)),
                    ("consecutive_failures", Json::uint(consecutive_failures)),
                    ("calls", Json::uint(b.calls.load(Ordering::Relaxed))),
                    ("failures", Json::uint(b.failures.load(Ordering::Relaxed))),
                    ("retries", Json::uint(b.retries.load(Ordering::Relaxed))),
                    ("ejections", Json::uint(b.ejections.load(Ordering::Relaxed))),
                    ("readmissions", Json::uint(b.readmissions.load(Ordering::Relaxed))),
                    ("fast_failures", Json::uint(b.fast_failures.load(Ordering::Relaxed))),
                    ("last_error", Json::str(b.last_error_snapshot())),
                    ("last_probe_tick", Json::uint(b.last_probe_tick.load(Ordering::Relaxed))),
                ])
            })
            .collect();
        vec![
            ("role", Json::str("router")),
            ("shards", Json::uint(u64::from(self.map.shards()))),
            ("requests_in", Json::uint(self.requests_in.load(Ordering::Relaxed))),
            ("fanout_subrequests", Json::uint(self.fanout.load(Ordering::Relaxed))),
            ("degraded", Json::uint(self.degraded.load(Ordering::Relaxed))),
            ("backends", Json::Arr(backends)),
        ]
    }

    fn render_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (name, counter) in [
            ("requests", &self.requests_in),
            ("fanout", &self.fanout),
            ("degraded", &self.degraded),
        ] {
            let _ = writeln!(out, "# TYPE graphex_router_{name}_total counter");
            let _ = writeln!(out, "graphex_router_{name}_total {}", counter.load(Ordering::Relaxed));
        }
        for family in ["calls", "failures", "retries", "ejections", "readmissions"] {
            let _ = writeln!(out, "# TYPE graphex_router_backend_{family}_total counter");
            for (shard, backend) in self.backends.iter().enumerate() {
                let value = match family {
                    "calls" => backend.calls.load(Ordering::Relaxed),
                    "failures" => backend.failures.load(Ordering::Relaxed),
                    "retries" => backend.retries.load(Ordering::Relaxed),
                    "ejections" => backend.ejections.load(Ordering::Relaxed),
                    _ => backend.readmissions.load(Ordering::Relaxed),
                };
                let _ = writeln!(
                    out,
                    "graphex_router_backend_{family}_total{{shard=\"{shard}\"}} {value}"
                );
            }
        }
        let _ = writeln!(out, "# TYPE graphex_router_backend_healthy gauge");
        for (shard, backend) in self.backends.iter().enumerate() {
            let healthy = matches!(&*backend.lock_health(), Health::Healthy { .. });
            let _ = writeln!(
                out,
                "graphex_router_backend_healthy{{shard=\"{shard}\"}} {}",
                u8::from(healthy)
            );
        }
    }

    /// Fan-out counters and per-backend call/failure/health series.
    fn sample_history(&self, values: &mut Vec<(String, f64)>) {
        let mut push = |key: String, v: f64| values.push((key, v));
        push("router/requests_in".into(), self.requests_in.load(Ordering::Relaxed) as f64);
        push("router/fanout".into(), self.fanout.load(Ordering::Relaxed) as f64);
        push("router/degraded".into(), self.degraded.load(Ordering::Relaxed) as f64);
        let mut healthy = 0u64;
        for (shard, backend) in self.backends.iter().enumerate() {
            let is_healthy = matches!(&*backend.lock_health(), Health::Healthy { .. });
            healthy += u64::from(is_healthy);
            push(format!("backend/{shard}/calls"), backend.calls.load(Ordering::Relaxed) as f64);
            push(
                format!("backend/{shard}/failures"),
                backend.failures.load(Ordering::Relaxed) as f64,
            );
            push(format!("backend/{shard}/healthy"), if is_healthy { 1.0 } else { 0.0 });
        }
        push("router/backends_healthy".into(), healthy as f64);
    }

    fn on_shutdown(&self) {
        for backend in &self.backends {
            backend.drop_pool();
        }
    }
}

/// What one scattered sub-batch resolved to.
enum SubResult {
    /// Per-entry response objects, in sub-batch order, plus the
    /// backend's envelope snapshot version and the backend's embedded
    /// trace object (present when the router propagated a trace id).
    Ok(Vec<Json>, u64, Option<Json>),
    /// The whole sub-batch degrades with this reason.
    Degraded(String),
}

impl ScatterHandler {
    /// `POST /v1/infer`: validate, scatter by shard, gather in the
    /// caller's order.
    fn infer(&self, request: &Request, cx: &mut Cx) -> Routed {
        let parse_start = cx.trace.clock();
        // Validate with the backend's own decoder so the router 400s exactly
        // what a backend would — a forwarded entry is never refused
        // downstream, which would otherwise surface as a degradation. Each
        // entry's JSON rides along to be forwarded verbatim.
        let decode = |entry: &Json| decode_one(entry).map(|d| (d, entry.clone()));
        let (envelope, batch) = match decode_envelope(&request.body, "requests", decode) {
            Ok(envelope) => envelope,
            Err(message) => return Routed::error(400, message),
        };
        let (decoded, mut entries): (Vec<Decoded>, Vec<Json>) = envelope.into_iter().unzip();
        self.requests_in.fetch_add(1, Ordering::Relaxed);
        cx.trace.record(Stage::Parse, parse_start);

        // Scatter: group entry indices by owning shard, preserving order.
        let shards = self.map.shards() as usize;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, d) in decoded.iter().enumerate() {
            groups[self.map.shard_for_leaf(d.leaf)].push(i);
        }
        let involved: Vec<usize> = (0..shards).filter(|s| !groups[*s].is_empty()).collect();

        let mut results: Vec<Option<SubResult>> = Vec::new();
        results.resize_with(shards, || None);
        // The forwarded trace id, as the backends will see it. The header
        // rides on every sub-request so backend records correlate with the
        // router record, and backends answer with an embedded breakdown.
        let forwarded_id = cx.forwarded_trace_id();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(involved.len());
            for &shard in &involved {
                let forwarded: Vec<Json> = groups[shard]
                    .iter()
                    .map(|&i| std::mem::replace(&mut entries[i], Json::Null))
                    .collect();
                let body = Json::obj(vec![("requests", Json::Arr(forwarded))]).render();
                let backend = &self.backends[shard];
                let expected = groups[shard].len();
                let config = &self.config;
                let probe_ticks = &self.probe_ticks;
                let trace_header = forwarded_id.as_deref();
                self.fanout.fetch_add(1, Ordering::Relaxed);
                // The span clock starts at the caller's dispatch point and
                // stops when the join returns, so a Fanout span covers the
                // whole window the router held this request open for the
                // shard — spawn and scheduling latency included, not just
                // the wire time the dispatcher thread itself observed.
                let dispatched = Instant::now();
                handles.push((
                    shard,
                    dispatched,
                    scope.spawn(move || {
                        dispatch(backend, config, probe_ticks, &body, expected, trace_header)
                    }),
                ));
            }
            for (shard, dispatched, handle) in handles {
                results[shard] = Some(match handle.join() {
                    Ok(sub) => {
                        // One Fanout span per involved shard (detail = shard
                        // index), recorded post-join: StageTrace is owned by
                        // this thread, never shared with the dispatchers.
                        cx.trace.record_span(
                            Stage::Fanout,
                            dispatched,
                            dispatched.elapsed(),
                            shard as u64,
                        );
                        sub
                    }
                    Err(_) => SubResult::Degraded("router dispatch panicked".into()),
                });
            }
        });

        // Gather: merge per-entry responses back into the caller's order.
        let mut merged: Vec<Option<Json>> = vec![None; decoded.len()];
        let mut snapshot_version = 0u64;
        for shard in involved {
            let result = results[shard].take().expect("scattered shard has a result");
            match result {
                SubResult::Ok(responses, version, sub_trace) => {
                    snapshot_version = snapshot_version.max(version);
                    if let Some(sub_trace) = &sub_trace {
                        if let Some(parsed) =
                            backend_trace_from_json(shard, &self.backends[shard].addr, sub_trace)
                        {
                            cx.backends.push(parsed);
                        }
                    }
                    for (&i, response) in groups[shard].iter().zip(responses) {
                        merged[i] = Some(response);
                    }
                }
                SubResult::Degraded(reason) => {
                    self.degraded.fetch_add(groups[shard].len() as u64, Ordering::Relaxed);
                    for &i in &groups[shard] {
                        merged[i] = Some(degraded_entry(decoded[i].id, shard, &reason));
                    }
                }
            }
        }
        let mut merged: Vec<Json> = merged
            .into_iter()
            .map(|r| r.expect("every entry was grouped onto exactly one shard"))
            .collect();

        let serialize_start = cx.trace.clock();
        let mut body = if batch {
            Json::obj(vec![
                ("responses", Json::Arr(merged)),
                ("snapshot_version", Json::uint(snapshot_version)),
            ])
        } else {
            merged.pop().expect("a single-request envelope decodes to one entry")
        };
        cx.stamp_trace(&mut body);
        let routed = Routed::json(200, &body);
        cx.trace.record(Stage::Serialize, serialize_start);
        cx.entries = decoded.len();
        routed
    }
}

/// The degraded per-request answer: same shape as a served response so
/// batch consumers index it uniformly, with the outcome/source labels
/// marking router-level unavailability.
fn degraded_entry(id: Option<u64>, shard: usize, reason: &str) -> Json {
    let mut members = vec![
        ("outcome", Json::str(OUTCOME_BACKEND_UNAVAILABLE)),
        ("source", Json::str(SOURCE_ROUTER_DEGRADED)),
        ("keyphrases", Json::Arr(Vec::new())),
        ("snapshot_version", Json::uint(0)),
        ("shard", Json::uint(shard as u64)),
        ("error", Json::str(reason)),
    ];
    if let Some(id) = id {
        members.insert(0, ("id", id_json(id)));
    }
    Json::obj(members)
}

/// Sends one sub-batch to `backend` with bounded retries, validating the
/// response down to per-entry objects. Every exit path updates the
/// health state machine.
fn dispatch(
    backend: &Backend,
    config: &RouterConfig,
    probe_ticks: &AtomicU64,
    body: &str,
    expected: usize,
    trace_header: Option<&str>,
) -> SubResult {
    if let Err(reason) = backend.admit(config, probe_ticks) {
        return SubResult::Degraded(reason);
    }
    let mut last_error = String::new();
    for attempt in 0..=config.retries {
        if attempt > 0 {
            backend.retries.fetch_add(1, Ordering::Relaxed);
        }
        backend.calls.fetch_add(1, Ordering::Relaxed);
        match dispatch_once(backend, config, body, expected, attempt > 0, trace_header) {
            Ok((responses, version, sub_trace)) => {
                backend.record_success();
                return SubResult::Ok(responses, version, sub_trace);
            }
            Err(reason) => {
                backend.record_failure(config);
                backend.note_error(&reason);
                last_error = reason;
                // Ejection mid-retry-loop stops further attempts: the
                // state machine has spoken.
                if matches!(&*backend.lock_health(), Health::Ejected { .. }) {
                    break;
                }
            }
        }
    }
    SubResult::Degraded(format!("backend {}: {last_error}", backend.addr))
}

/// One attempt: pooled connection first (unless `fresh`), falling back
/// to a new connect. A pooled connection that fails is simply dropped —
/// the backend may have closed it between requests (keep-alive cap,
/// restart), which must never surface to the client while retries
/// remain.
fn dispatch_once(
    backend: &Backend,
    config: &RouterConfig,
    body: &str,
    expected: usize,
    fresh: bool,
    trace_header: Option<&str>,
) -> Result<(Vec<Json>, u64, Option<Json>), String> {
    let mut client = match if fresh { None } else { backend.take_pooled() } {
        Some(client) => client,
        None => {
            let mut client = HttpClient::connect_with_timeouts(
                &backend.addr,
                config.backend_timeout,
                config.backend_timeout,
            )
            .map_err(|e| format!("connect: {e}"))?;
            client.set_max_response_bytes(config.max_response_bytes);
            client
        }
    };
    let response = match trace_header {
        Some(id) => client.post_json_with_headers("/v1/infer", body, &[(TRACE_HEADER, id)]),
        None => client.post_json("/v1/infer", body),
    }
    .map_err(|e| format!("call: {e}"))?;
    let reusable =
        response.header("connection").map_or(true, |v| !v.eq_ignore_ascii_case("close"));
    if response.status != 200 {
        return Err(format!("HTTP {}", response.status));
    }
    let parsed = json::parse(&response.text())
        .map_err(|e| format!("unparsable backend response: {e}"))?;
    let responses = parsed
        .get("responses")
        .and_then(Json::as_arr)
        .ok_or("backend response missing \"responses\"")?;
    if responses.len() != expected {
        // A shard-map/backend mismatch shows up exactly here: the
        // backend answered a different number of entries than asked.
        return Err(format!(
            "backend answered {} responses for {expected} requests (mismatched shard map?)",
            responses.len()
        ));
    }
    let version = parsed.get("snapshot_version").and_then(Json::as_u64).unwrap_or(0);
    let out = responses.to_vec();
    // The backend's embedded breakdown (present exactly when this call
    // carried the trace header) rides back for the router's record.
    let sub_trace = parsed.get("trace").cloned();
    if reusable {
        backend.return_pooled(client);
    }
    Ok((out, version, sub_trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> RouterConfig {
        RouterConfig {
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_millis(400),
            eject_after: 2,
            ..RouterConfig::default()
        }
    }

    #[test]
    fn ejection_after_k_consecutive_failures_then_fast_fail() {
        // Point at a dead port: record_failure drives the state machine
        // without any network.
        let backend = Backend::new("127.0.0.1:1".into());
        let config = test_config();
        let ticks = AtomicU64::new(0);
        assert!(backend.admit(&config, &ticks).is_ok());
        backend.record_failure(&config);
        assert!(backend.admit(&config, &ticks).is_ok(), "one failure is not ejection");
        backend.record_failure(&config);
        assert!(matches!(&*backend.lock_health(), Health::Ejected { .. }));
        assert_eq!(backend.ejections.load(Ordering::Relaxed), 1);
        assert!(backend.admit(&config, &ticks).is_err(), "ejected backends fail fast");
        assert_eq!(backend.fast_failures.load(Ordering::Relaxed), 1);
        assert_eq!(
            backend.last_probe_tick.load(Ordering::Relaxed),
            0,
            "fast-fail admits never probe"
        );
    }

    #[test]
    fn expired_backoff_probes_and_reejects_with_doubled_backoff() {
        let backend = Backend::new("127.0.0.1:1".into()); // nothing listens
        let config = test_config();
        let ticks = AtomicU64::new(0);
        backend.record_failure(&config);
        backend.record_failure(&config);
        std::thread::sleep(config.backoff_initial + Duration::from_millis(20));
        // Backoff expired → this call runs the half-open probe, which
        // fails (dead port) → re-ejected with doubled backoff.
        assert!(backend.admit(&config, &ticks).is_err());
        assert_eq!(backend.readmissions.load(Ordering::Relaxed), 0);
        assert_eq!(backend.ejections.load(Ordering::Relaxed), 2);
        assert_eq!(backend.last_probe_tick.load(Ordering::Relaxed), 1, "probe consumed a tick");
        assert!(
            backend.last_error_snapshot().contains("probe failed"),
            "failed probe leaves a last_error"
        );
        match &*backend.lock_health() {
            Health::Ejected { backoff, .. } => {
                assert_eq!(*backoff, config.backoff_initial * 2);
            }
            other => panic!("expected ejected, got {other:?}"),
        };
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let backend = Backend::new("127.0.0.1:1".into());
        let config = test_config();
        backend.record_failure(&config);
        backend.record_success();
        backend.record_failure(&config);
        assert!(
            matches!(&*backend.lock_health(), Health::Healthy { consecutive_failures: 1 }),
            "failures must be consecutive to eject"
        );
    }

    #[test]
    fn degraded_entry_shape_and_id_rules() {
        let small = degraded_entry(Some(7), 2, "down");
        assert_eq!(small.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(
            small.get("outcome").unwrap().as_str(),
            Some(OUTCOME_BACKEND_UNAVAILABLE)
        );
        assert_eq!(small.get("source").unwrap().as_str(), Some(SOURCE_ROUTER_DEGRADED));
        assert_eq!(small.get("keyphrases").unwrap().as_arr().unwrap().len(), 0);
        let big = degraded_entry(Some(u64::MAX), 0, "down");
        assert_eq!(big.get("id").unwrap().as_str(), Some(u64::MAX.to_string().as_str()));
        assert!(degraded_entry(None, 0, "down").get("id").is_none());
    }
}
