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
//! `leaf % shards` through the [`ShardMap`], and scattered as per-backend
//! batch sub-envelopes over pooled keep-alive connections.
//!
//! **Scatter in rounds, on the worker's own thread.** A round sends the
//! sub-request to every shard still pending and only then reads the
//! answers, in shard order: the backends work in parallel, the router
//! spends one thread and spawns none, and reading in a fixed order costs
//! what the slowest shard costs. Round 0 uses pooled connections; each
//! later round is one retry, on fresh ones. The reads of a round share
//! one deadline (`backend_timeout` after the round's first send).
//!
//! **Gather by span, not by tree.** A backend's answer is checked in full
//! (200, UTF-8, one grammatical document, the entry count) but never
//! built: `json::members`/`json::elements` give the byte range of each
//! entry, and the reply is written once, the entries' own bytes in the
//! caller's order — ids (including the >2^53 decimal-string form) and
//! everything else exactly as the backend rendered them.
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
use crate::server::{decode_envelope, decode_one, id_json, Decoded, Fields};
use crate::shardmap::ShardMap;
use crate::trace::{backend_trace_from_json, TraceConfig, TraceRecorder, TRACE_HEADER};
use graphex_core::Stage;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Outcome label for a request whose shard was unreachable: router-level
/// degradation, not one of the model's [`graphex_core::Outcome`]s.
pub const OUTCOME_BACKEND_UNAVAILABLE: &str = "backend_unavailable";
/// `source` label accompanying [`OUTCOME_BACKEND_UNAVAILABLE`].
pub const SOURCE_ROUTER_DEGRADED: &str = "router_degraded";
/// What a read gets when its round's deadline has already passed.
const LATE_READ: Duration = Duration::from_millis(1);

/// Router tuning. `Default` is sized for a local cluster; production
/// callers set every field explicitly.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one client connection at a time, and
    /// scatters its envelopes itself — so this is also the most
    /// connections ever out to one backend, and its pool's bound).
    pub workers: usize,
    /// Accept-queue capacity; connections beyond it are shed with 429.
    pub queue_depth: usize,
    /// Cap on a client request body's declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Idle read timeout on client keep-alive connections.
    pub keep_alive_timeout: Duration,
    /// Connect and write timeout for each backend call, and the read
    /// deadline the sub-requests of one round share: however many shards
    /// hang, an envelope waits at most this per attempt.
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

    /// A connection for one attempt: pooled first (unless `fresh`), falling
    /// back to a new connect.
    fn connection(&self, config: &RouterConfig, fresh: bool) -> Result<HttpClient, String> {
        if !fresh {
            if let Some(client) = self.pool.lock().unwrap_or_else(PoisonError::into_inner).pop() {
                return Ok(client);
            }
        }
        let mut client = HttpClient::connect_with_timeouts(
            &self.addr,
            config.backend_timeout,
            config.backend_timeout,
        )
        .map_err(|e| format!("connect: {e}"))?;
        client.set_max_response_bytes(config.max_response_bytes);
        Ok(client)
    }

    /// Reads and checks the answer to a sent sub-batch, waiting at most
    /// `within` per read. A connection that fails is simply dropped — the
    /// backend may have closed a pooled one between requests (keep-alive
    /// cap, restart), which must never surface to the client while retries
    /// remain. One that worked goes back to the pool, unless the backend
    /// asked to close it or the pool holds one per router worker already
    /// (scatter runs on the worker's thread, so no more are ever out).
    fn receive(
        &self,
        config: &RouterConfig,
        mut client: HttpClient,
        expected: usize,
        within: Duration,
    ) -> Result<Answer, String> {
        let response = client
            .set_read_timeout(within)
            .and_then(|()| client.recv())
            .map_err(|e| format!("call: {e}"))?;
        let reusable =
            response.header("connection").map_or(true, |v| !v.eq_ignore_ascii_case("close"));
        let answer = validate_answer(response.status, response.body, expected)?;
        if reusable {
            let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
            if pool.len() < config.workers.max(1) {
                pool.push(client);
            }
        }
        Ok(answer)
    }

    /// One failed attempt at `sub`: counted, remembered, and final when it
    /// was the last one allowed or it ejected the backend — the state
    /// machine has spoken, and further attempts stop for this shard only.
    fn fail(&self, config: &RouterConfig, sub: &mut Sub, reason: String, last: bool) {
        self.record_failure(config);
        self.note_error(&reason);
        if last || matches!(&*self.lock_health(), Health::Ejected { .. }) {
            sub.resolve(Err(format!("backend {}: {reason}", self.addr)));
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

    fn handle(
        &self,
        _: &Route,
        _: Option<&str>,
        request: &Request,
        cx: &mut Cx,
        out: &mut String,
    ) -> Routed {
        self.infer(request, cx, out)
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

/// A backend's answer to one sub-batch, checked but not built: the body
/// as the backend wrote it, and where in it each entry lies.
struct Answer {
    body: String,
    /// Byte ranges of the `responses` elements, in sub-batch order.
    entries: Vec<Range<usize>>,
    snapshot_version: u64,
    /// The backend's embedded span breakdown (present exactly when the
    /// call carried the trace header).
    trace: Option<Json>,
}

/// Checks one backend answer: 200, UTF-8, one grammatical JSON document,
/// whose `responses` is an array of exactly `expected` elements. Entries
/// stay bytes; only `snapshot_version` and `trace` are parsed.
fn validate_answer(status: u16, body: Vec<u8>, expected: usize) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("HTTP {status}"));
    }
    let body =
        String::from_utf8(body).map_err(|_| "unparsable backend response: not UTF-8")?;
    let members = json::members(&body)
        .map_err(|e| format!("unparsable backend response: {e}"))?
        .unwrap_or_default();
    let member = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, r)| r.clone());
    let parsed = |key: &str| member(key).and_then(|range| json::parse(&body[range]).ok());
    let (offset, mut entries) = member("responses")
        .and_then(|range| Some((range.start, json::elements(&body[range]).ok()??)))
        .ok_or("backend response missing \"responses\"")?;
    if entries.len() != expected {
        // A shard-map/backend mismatch shows up exactly here: the
        // backend answered a different number of entries than asked.
        return Err(format!(
            "backend answered {} responses for {expected} requests (mismatched shard map?)",
            entries.len()
        ));
    }
    for entry in &mut entries {
        *entry = entry.start + offset..entry.end + offset;
    }
    let snapshot_version = parsed("snapshot_version").and_then(|v| v.as_u64()).unwrap_or(0);
    let trace = parsed("trace");
    Ok(Answer { body, entries, snapshot_version, trace })
}

/// One shard's sub-batch on its way through the rounds.
struct Sub {
    shard: usize,
    /// The sub-request body.
    body: String,
    /// Entries asked for, so entries owed.
    expected: usize,
    /// Sent this round, answer not yet read.
    in_flight: Option<HttpClient>,
    /// A `Fanout` span runs from here to the shard's answer validated (or
    /// its last attempt failed).
    dispatched: Instant,
    /// How it ended (`Err` = the whole sub-batch degrades, with this
    /// reason), and how long after `dispatched`.
    outcome: Option<(Result<Answer, String>, Duration)>,
}

impl Sub {
    fn resolve(&mut self, outcome: Result<Answer, String>) {
        self.outcome = Some((outcome, self.dispatched.elapsed()));
    }
}

impl ScatterHandler {
    /// `POST /v1/infer`: validate, scatter by shard, gather in the
    /// caller's order.
    fn infer(&self, request: &Request, cx: &mut Cx, body: &mut String) -> Routed {
        let parse_start = cx.trace.clock();
        // Validate with the backend's own decoder so the router 400s exactly
        // what a backend would — a forwarded entry is never refused
        // downstream, which would otherwise surface as a degradation. Each
        // entry's JSON rides along to be forwarded.
        fn decode<'a>(entry: Option<&Fields<'a>>) -> Result<(Decoded<'a>, Json), String> {
            let decoded = decode_one(entry)?;
            let forwarded = entry.and_then(|entry| json::parse(entry.text).ok());
            Ok((decoded, forwarded.ok_or("request must be a JSON object")?))
        }
        let (envelope, batch) = match decode_envelope(request.body(), "requests", decode) {
            Ok(envelope) => envelope,
            Err(message) => return Routed::error(body, 400, message),
        };
        let (decoded, mut entries): (Vec<Decoded<'_>>, Vec<Json>) = envelope.into_iter().unzip();
        self.requests_in.fetch_add(1, Ordering::Relaxed);
        cx.trace.record(Stage::Parse, parse_start);

        // Scatter: group entry indices by owning shard, preserving order.
        let shards = self.map.shards() as usize;
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, d) in decoded.iter().enumerate() {
            groups[self.map.shard_for_leaf(d.leaf)].push(i);
        }
        let mut subs: Vec<Option<Sub>> = groups
            .iter()
            .enumerate()
            .map(|(shard, group)| {
                if group.is_empty() {
                    return None;
                }
                let forwarded: Vec<Json> = group
                    .iter()
                    .map(|&i| std::mem::replace(&mut entries[i], Json::Null))
                    .collect();
                Some(Sub {
                    shard,
                    body: Json::obj(vec![("requests", Json::Arr(forwarded))]).render(),
                    expected: group.len(),
                    in_flight: None,
                    dispatched: Instant::now(),
                    outcome: None,
                })
            })
            .collect();
        // The forwarded trace id, as the backends will see it. The header
        // rides on every sub-request so backend records correlate with the
        // router record, and backends answer with an embedded breakdown.
        let forwarded_id = cx.forwarded_trace_id();
        self.scatter(&mut subs, forwarded_id.as_deref());

        // Gather: the reply is written once, entries in the caller's order;
        // a served entry is the backend's own bytes.
        let mut snapshot_version = 0u64;
        let mut capacity = 64;
        for sub in subs.iter().flatten() {
            let (outcome, took) = sub.outcome.as_ref().expect("scatter resolves every sub-batch");
            cx.trace.record_span(Stage::Fanout, sub.dispatched, *took, sub.shard as u64);
            match outcome {
                Ok(answer) => {
                    snapshot_version = snapshot_version.max(answer.snapshot_version);
                    capacity += answer.body.len();
                    let addr = &self.backends[sub.shard].addr;
                    cx.backends.extend(
                        answer
                            .trace
                            .as_ref()
                            .and_then(|trace| backend_trace_from_json(sub.shard, addr, trace)),
                    );
                }
                Err(_) => {
                    self.degraded.fetch_add(sub.expected as u64, Ordering::Relaxed);
                }
            }
        }

        let serialize_start = cx.trace.clock();
        body.reserve(capacity);
        if batch {
            body.push_str("{\"responses\":[");
        }
        // Groups keep the caller's order, so entry i is the next one its
        // shard's answer has not yet given out.
        let mut given = vec![0usize; shards];
        for (i, d) in decoded.iter().enumerate() {
            let shard = self.map.shard_for_leaf(d.leaf);
            let sub = subs[shard].as_ref().expect("every entry was grouped onto its shard");
            if i > 0 {
                body.push(',');
            }
            match &sub.outcome.as_ref().expect("resolved above").0 {
                Ok(answer) => body.push_str(&answer.body[answer.entries[given[shard]].clone()]),
                Err(reason) => body.push_str(&degraded_entry(d.id, shard, reason).render()),
            }
            given[shard] += 1;
        }
        if batch {
            let _ = write!(body, "],\"snapshot_version\":{snapshot_version}}}");
        }
        // Into the envelope — or the one entry that is the whole
        // single-request reply.
        cx.stamp_trace(body);
        cx.trace.record(Stage::Serialize, serialize_start);
        cx.entries = decoded.len();
        Routed::new(200, edge::JSON)
    }

    /// Resolves every sub-batch in rounds, on this thread (module doc): a
    /// round sends to each shard still pending, then reads in shard order
    /// under one deadline, so an envelope's wait stays within
    /// `(retries + 1) × backend_timeout` however many shards hang.
    fn scatter(&self, subs: &mut [Option<Sub>], trace_header: Option<&str>) {
        let config = &self.config;
        let mut pending: Vec<&mut Sub> = subs.iter_mut().flatten().collect();
        for sub in &mut pending {
            self.fanout.fetch_add(1, Ordering::Relaxed);
            // Admission first, for all: a half-open probe takes a while, and
            // must not eat a deadline other shards are already under.
            if let Err(reason) = self.backends[sub.shard].admit(config, &self.probe_ticks) {
                sub.resolve(Err(reason));
            }
        }
        let header = trace_header.map(|id| (TRACE_HEADER, id));
        for attempt in 0..=config.retries {
            pending.retain(|sub| sub.outcome.is_none());
            let last = attempt == config.retries;
            let mut first_send = None;
            for sub in &mut pending {
                let backend = &self.backends[sub.shard];
                if attempt > 0 {
                    backend.retries.fetch_add(1, Ordering::Relaxed);
                }
                backend.calls.fetch_add(1, Ordering::Relaxed);
                let sent = backend.connection(config, attempt > 0).and_then(|mut client| {
                    first_send.get_or_insert_with(Instant::now);
                    client
                        .send("POST", "/v1/infer", Some(sub.body.as_bytes()), header.as_slice())
                        .map_err(|e| format!("call: {e}"))?;
                    Ok(client)
                });
                match sent {
                    Ok(client) => sub.in_flight = Some(client),
                    Err(reason) => backend.fail(config, sub, reason, last),
                }
            }
            for sub in &mut pending {
                let Some(client) = sub.in_flight.take() else {
                    continue;
                };
                let backend = &self.backends[sub.shard];
                let spent = first_send.map_or(Duration::ZERO, |at: Instant| at.elapsed());
                // Past the deadline a read still gets a moment: an answer
                // that arrived while the router waited on a slower shard is
                // there to be taken, and a hung shard costs only this.
                let left = config.backend_timeout.saturating_sub(spent).max(LATE_READ);
                match backend.receive(config, client, sub.expected, left) {
                    Ok(answer) => {
                        backend.record_success();
                        sub.resolve(Ok(answer));
                    }
                    Err(reason) => backend.fail(config, sub, reason, last),
                }
            }
        }
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

    const GOOD: &str = concat!(
        r#"{"responses":[{"id":1,"keyphrases":["a b"]},{"id":"18446744073709551615"}],"#,
        r#""snapshot_version":7,"trace":{"total_us":5}}"#
    );

    #[test]
    fn valid_answer_keeps_entries_as_the_backends_bytes() {
        let answer = validate_answer(200, GOOD.into(), 2).unwrap();
        let entries: Vec<&str> = answer.entries.iter().map(|r| &answer.body[r.clone()]).collect();
        assert_eq!(
            entries,
            [r#"{"id":1,"keyphrases":["a b"]}"#, r#"{"id":"18446744073709551615"}"#]
        );
        assert_eq!(answer.snapshot_version, 7);
        assert_eq!(answer.trace.unwrap().get("total_us").unwrap().as_u64(), Some(5));
        // Whitespace and key order are the backend's business; a missing
        // version reads 0, as it always has.
        let spaced =
            validate_answer(200, b" { \"responses\" : [ 1 , [2] ] } ".to_vec(), 2).unwrap();
        let entries: Vec<&str> = spaced.entries.iter().map(|r| &spaced.body[r.clone()]).collect();
        assert_eq!(entries, ["1", "[2]"]);
        assert_eq!((spaced.snapshot_version, spaced.trace), (0, None));
        let empty = validate_answer(200, br#"{"responses":[]}"#.to_vec(), 0).unwrap();
        assert!(empty.entries.is_empty());
    }

    #[test]
    fn invalid_answers_are_refused_naming_the_cause() {
        let refused = |status: u16, body: &[u8], expected: usize| -> String {
            validate_answer(status, body.to_vec(), expected).err().expect("refused")
        };
        assert_eq!(refused(500, GOOD.as_bytes(), 2), "HTTP 500");
        assert_eq!(
            refused(200, GOOD.as_bytes(), 3),
            "backend answered 2 responses for 3 requests (mismatched shard map?)"
        );
        let missing = "backend response missing \"responses\"";
        assert_eq!(refused(200, br#"{"responses":{"0":1}}"#, 1), missing, "not an array");
        assert_eq!(refused(200, br#"{"surprise":[1]}"#, 1), missing);
        assert_eq!(refused(200, br#"[{"responses":[1]}]"#, 1), missing, "not an object");
        // Strictly UTF-8: an invalid byte inside a keyphrase is not repaired
        // into U+FFFD and forwarded.
        let mut bad = GOOD.as_bytes().to_vec();
        let at = GOOD.find("a b").unwrap();
        bad[at] = 0xff;
        assert_eq!(refused(200, &bad, 2), "unparsable backend response: not UTF-8");
        let truncated = refused(200, &GOOD.as_bytes()[..GOOD.len() - 9], 2);
        assert!(truncated.starts_with("unparsable backend response: "), "{truncated}");
        let trailing = refused(200, format!("{GOOD}]").as_bytes(), 2);
        assert!(
            trailing.starts_with("unparsable backend response: trailing characters"),
            "{trailing}"
        );
        // A defect below the top level fails the whole answer, as a full
        // parse would.
        let deep = refused(200, br#"{"responses":[{"k":["\ud800"]}]}"#, 1);
        assert!(deep.starts_with("unparsable backend response: lone leading surrogate"), "{deep}");
    }

    #[test]
    fn oversize_answer_is_refused_at_the_response_cap() {
        let chaos = crate::chaos::ChaosBackend::start().unwrap();
        chaos.set_mode(crate::chaos::ChaosMode::Oversized);
        let config = RouterConfig { max_response_bytes: 1 << 20, ..test_config() };
        let backend = Backend::new(chaos.addr().to_string());
        let mut client = backend.connection(&config, false).unwrap();
        client.send("POST", "/v1/infer", Some(b"{}"), &[]).unwrap();
        let refused =
            backend.receive(&config, client, 1, config.backend_timeout).err().expect("refused");
        assert_eq!(refused, "call: response body exceeds cap");
        chaos.shutdown();
    }

    #[test]
    fn pool_holds_one_connection_per_worker() {
        let chaos = crate::chaos::ChaosBackend::start().unwrap();
        let config = RouterConfig { workers: 2, ..test_config() };
        let backend = Backend::new(chaos.addr().to_string());
        let body = br#"{"requests":[{"title":"x","leaf":1}]}"#;
        let mut out: Vec<HttpClient> =
            (0..3).map(|_| backend.connection(&config, false).unwrap()).collect();
        for client in &mut out {
            client.send("POST", "/v1/infer", Some(body), &[]).unwrap();
        }
        for client in out {
            backend.receive(&config, client, 1, config.backend_timeout).unwrap();
        }
        assert_eq!(backend.pool.lock().unwrap().len(), 2, "the third return is surplus");
        backend.drop_pool();
        chaos.shutdown();
    }
}
