//! The one HTTP edge: everything connection-shaped, written once.
//!
//! ```text
//! clients ──► acceptor ──► Bounded accept queue ──► worker pool ──► Handler
//!                │  full?                │ drained on shutdown
//!                └─► HTTP 429 (shed)     └─► idle peers woken, in-flight answered
//! ```
//!
//! One acceptor thread admits connections into a bounded queue; a full
//! queue is **load shed** — the acceptor answers `429 Too Many Requests`
//! and closes, so overload degrades into fast refusals instead of
//! unbounded buffering or hangs. Workers pop connections and speak
//! HTTP/1.1 keep-alive until the peer closes, errors, idles past the
//! read timeout, or shutdown begins. A worker parses every request into
//! the same `Request`, hands every route the same body buffer and sends
//! every response — head and body in one `write` — from the same wire
//! buffer, so a request in steady state allocates only what its handler
//! does.
//!
//! The edge owns the listener, the queue, the workers, the keep-alive
//! request loop, [`HttpMetrics`], the optional flight recorder and
//! history ring (with their sampler thread), the five shared `GET`
//! routes, the 404/405 answers and the trace bracket. What differs
//! between the backend server and the router — domain routes and the
//! numbers they report — enters through the [`Handler`] trait. A handler
//! renders no report: it returns its rows (`metrics::Row`), the edge adds
//! its own (HTTP, trace, history), and `/statusz`, `/metrics` and each
//! history sample are one walk over the same rows (`metrics.rs`).
//!
//! [`EdgeHandle::shutdown`] is graceful and prompt: stop accepting, drain
//! every admitted connection, answer requests already read or buffered
//! (with `Connection: close`), wake peers parked idle between requests,
//! then join all threads.

use crate::history::{HistoryConfig, MetricsHistory};
use crate::http::{self, ReadError, Request};
use crate::json::{self, Json};
use crate::metrics::{self, Endpoint, HttpMetrics, Row};
use crate::queue::Bounded;
use crate::trace::{
    parse_trace_id, trace_json_inline, BackendTrace, TraceConfig, TraceRecorder, TRACE_HEADER,
};
use graphex_core::{Stage, StageTrace};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Requests served on one keep-alive connection before the server closes
/// it (`Connection: close` on the last response). Thread-per-connection
/// means a chatty peer pins a worker; this cap bounds that pinning so
/// connections waiting in the accept queue are never starved forever —
/// a reconnect immediately re-admits the peer.
pub const MAX_KEEPALIVE_REQUESTS: u64 = 1024;

const TEXT: &str = "text/plain; charset=utf-8";
pub(crate) const JSON: &str = "application/json";

/// The seven knobs `ServerConfig` and `RouterConfig` share (their field
/// docs are the reference).
pub(crate) struct EdgeConfig {
    pub(crate) addr: String,
    pub(crate) workers: usize,
    pub(crate) queue_depth: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) keep_alive_timeout: Duration,
    pub(crate) trace: TraceConfig,
    pub(crate) history: HistoryConfig,
}

/// One row of the route table. 404s, 405s and their `Allow` header are
/// derived from the rows, never written out per path.
pub(crate) struct Route {
    pub(crate) method: &'static str,
    pub(crate) path: &'static str,
    /// A `/v1/<action>` row that also answers at `/v1/t/<scope>/<action>`.
    pub(crate) scoped: bool,
    /// The tally label. `Endpoint::Infer` rows are additionally traced
    /// and feed the end-to-end latency histogram; the five shared
    /// endpoints are the edge's own rows.
    pub(crate) endpoint: Endpoint,
}

impl Route {
    /// `Some(scope)` when `path` addresses this row. The scope segment is
    /// not validated here — the handler refuses bad names with a 404.
    fn matches<'p>(&self, path: &'p str) -> Option<Option<&'p str>> {
        if path == self.path {
            return Some(None);
        }
        if !self.scoped {
            return None;
        }
        let action = self.path.strip_prefix("/v1")?;
        let scope = path.strip_prefix("/v1/t/")?.strip_suffix(action)?;
        (!scope.is_empty() && !scope.contains('/')).then_some(Some(scope))
    }
}

const fn shared_route(path: &'static str, endpoint: Endpoint) -> Route {
    Route {
        method: "GET",
        path,
        scoped: false,
        endpoint,
    }
}

/// The routes every frontend answers itself.
static SHARED_ROUTES: [Route; 5] = [
    shared_route("/healthz", Endpoint::Healthz),
    shared_route("/statusz", Endpoint::Statusz),
    shared_route("/metrics", Endpoint::Metrics),
    shared_route("/debug/traces", Endpoint::Traces),
    shared_route("/debug/history", Endpoint::History),
];

/// One response on its way to the wire: everything but the body, which
/// is whatever the worker's body buffer (the `out` every route is handed)
/// holds when the route returns.
pub(crate) struct Routed {
    pub(crate) status: u16,
    content_type: &'static str,
    extra_headers: Vec<(&'static str, String)>,
}

impl Routed {
    /// The answer is what the route has written to `out`.
    pub(crate) fn new(status: u16, content_type: &'static str) -> Self {
        Self {
            status,
            content_type,
            extra_headers: Vec::new(),
        }
    }

    /// The answer is `body`, whatever `out` held.
    pub(crate) fn text(out: &mut String, status: u16, body: &str) -> Self {
        out.clear();
        out.push_str(body);
        Self::new(status, TEXT)
    }

    /// The answer is `value`, whatever `out` held.
    pub(crate) fn json(out: &mut String, status: u16, value: &Json) -> Self {
        out.clear();
        value.render_into(out);
        Self::new(status, JSON)
    }

    pub(crate) fn error(out: &mut String, status: u16, message: impl Into<String>) -> Self {
        Self::json(
            out,
            status,
            &Json::obj(vec![("error", Json::str(message.into()))]),
        )
    }

    pub(crate) fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }
}

/// What the edge hands a domain route besides the request.
pub(crate) struct Cx {
    /// Deadline and latency basis: read completion, back-dated by the
    /// accept-queue wait for a connection's first request.
    pub(crate) started: Instant,
    /// Armed on traced routes when tracing is on, disabled otherwise.
    pub(crate) trace: StageTrace,
    trace_id: u64,
    /// The request carried a trace header (a router is upstream), so the
    /// response embeds the full span breakdown for it to fold in.
    embed: bool,
    /// Envelope entries answered, for the trace record.
    pub(crate) entries: usize,
    /// Per-backend breakdowns, for the trace record (router only).
    pub(crate) backends: Vec<BackendTrace>,
}

impl Cx {
    /// The trace id as sub-requests carry it, when tracing is on.
    pub(crate) fn forwarded_trace_id(&self) -> Option<String> {
        self.trace
            .is_enabled()
            .then(|| format!("{:016x}", self.trace_id))
    }

    /// What a successful body is stamped with: the trace id and, when the
    /// request propagated one, the span breakdown so far. Empty with
    /// tracing off.
    pub(crate) fn trace_members(&self) -> Vec<(&'static str, Json)> {
        if !self.trace.is_enabled() {
            return Vec::new();
        }
        let mut members = vec![("trace_id", Json::str(format!("{:016x}", self.trace_id)))];
        if self.embed {
            let breakdown = trace_json_inline(&self.trace, self.trace_id, self.started.elapsed());
            members.push(("trace", breakdown));
        }
        members
    }

    /// Stamps a successful body with [`Cx::trace_members`].
    pub(crate) fn stamp_trace(&self, body: &mut String) {
        stamp_members(body, &self.trace_members());
    }
}

/// Writes `members` inside the closing brace `body` ends with — the
/// envelope's, or that of the one entry that is a whole single-request
/// reply — as `Json` would render them there.
pub(crate) fn stamp_members(body: &mut String, members: &[(&'static str, Json)]) {
    if members.is_empty() || !body.ends_with('}') {
        return;
    }
    body.pop();
    for (key, value) in members {
        if !body.trim_end().ends_with('{') {
            body.push(',');
        }
        json::write_escaped(key, body);
        body.push(':');
        value.render_into(body);
    }
    body.push('}');
}

/// What a frontend adds to the edge. Two production implementations: the
/// serving handler (`server.rs`) and the scatter-gather handler
/// (`router.rs`).
pub(crate) trait Handler: Send + Sync {
    /// Domain rows of the route table.
    fn routes(&self) -> &'static [Route];
    /// Answers a request that matched `route` (one of [`Handler::routes`]),
    /// writing the body to `out` (handed over empty).
    fn handle(
        &self,
        route: &Route,
        scope: Option<&str>,
        request: &Request,
        cx: &mut Cx,
        out: &mut String,
    ) -> Routed;
    /// Everything the frontend reports, read once per report: the edge
    /// walks these rows, then its own, for `/statusz`, `/metrics` and
    /// each history sample.
    fn rows(&self) -> Vec<Row>;
    /// Every edge thread has been joined.
    fn on_shutdown(&self) {}
}

/// One admitted connection, stamped for deadline accounting.
struct Conn {
    stream: TcpStream,
    enqueued_at: Instant,
}

/// A worker's handle on the connection it is serving, so shutdown can
/// wake a read parked between requests.
type Slot = Mutex<Option<TcpStream>>;

fn lock_slot(slot: &Slot) -> MutexGuard<'_, Option<TcpStream>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    handler: Arc<dyn Handler>,
    config: EdgeConfig,
    metrics: HttpMetrics,
    queue: Bounded<Conn>,
    shutdown: AtomicBool,
    /// The flight recorder; `None` when tracing is disabled.
    traces: Option<Arc<TraceRecorder>>,
    /// The telemetry-history ring; `None` when history is disabled.
    history: Option<Arc<MetricsHistory>>,
    slots: Vec<Slot>,
}

/// A running edge; dropping it shuts down gracefully.
pub(crate) struct EdgeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Binds and starts acceptor, workers and (when history is on) sampler.
pub(crate) fn start(config: EdgeConfig, handler: Arc<dyn Handler>) -> std::io::Result<EdgeHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let traces = config
        .trace
        .enabled
        .then(|| Arc::new(TraceRecorder::new(config.trace.clone())));
    let history = config
        .history
        .enabled
        .then(|| Arc::new(MetricsHistory::new(config.history.clone())));
    let shared = Arc::new(Shared {
        handler,
        metrics: HttpMetrics::default(),
        queue: Bounded::new(config.queue_depth),
        shutdown: AtomicBool::new(false),
        traces,
        history,
        slots: (0..workers).map(|_| Slot::default()).collect(),
        config,
    });

    let mut threads = Vec::with_capacity(workers + 2);
    threads.push(spawn(&shared, "graphex-accept".into(), move |shared| {
        accept_loop(listener, shared)
    })?);
    for i in 0..workers {
        threads.push(spawn(
            &shared,
            format!("graphex-worker-{i}"),
            move |shared| worker_loop(shared, &shared.slots[i]),
        )?);
    }
    if shared.history.is_some() {
        threads.push(spawn(&shared, "graphex-history".into(), sampler_loop)?);
    }
    Ok(EdgeHandle {
        addr,
        shared,
        threads,
    })
}

fn spawn(
    shared: &Arc<Shared>,
    name: String,
    body: impl FnOnce(&Shared) + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || body(&shared))
}

impl EdgeHandle {
    /// The bound address (resolves port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn metrics(&self) -> &HttpMetrics {
        &self.shared.metrics
    }

    pub(crate) fn traces(&self) -> Option<&Arc<TraceRecorder>> {
        self.shared.traces.as_ref()
    }

    pub(crate) fn history(&self) -> Option<&Arc<MetricsHistory>> {
        self.shared.history.as_ref()
    }

    /// Takes one history sample immediately; no-op when history is
    /// disabled.
    pub(crate) fn sample_history_now(&self) {
        sample_history(&self.shared);
    }

    /// Graceful shutdown — what dropping the handle does.
    pub(crate) fn shutdown(self) {}
}

impl Drop for EdgeHandle {
    /// Stop accepting, drain admitted connections, finish in-flight
    /// requests, wake idle peers, join every thread.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection; the
        // acceptor closes the queue on exit, so workers drain it and stop.
        let _ = TcpStream::connect(self.addr);
        // Wake reads parked between requests: they return EOF and the
        // worker moves on. A request already read or buffered is still
        // answered in full. A worker that registers its connection after
        // this sweep sees the flag (set above) and does the same itself.
        for slot in &self.shared.slots {
            if let Some(stream) = &*lock_slot(slot) {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        self.shared.handler.on_shutdown();
    }
}

/// The history sampler: one sample per configured interval until
/// shutdown. Sleeps in short slices so shutdown joins promptly even
/// with a multi-second interval.
fn sampler_loop(shared: &Shared) {
    let interval = shared.config.history.interval;
    let slice = interval.min(Duration::from_millis(25));
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(slice);
        if last.elapsed() >= interval {
            sample_history(shared);
            last = Instant::now();
        }
    }
}

/// Collects one history sample: the series of every row. The reads are
/// the relaxed atomic loads `/metrics` performs — the request path is
/// never touched.
fn sample_history(shared: &Shared) {
    let Some(history) = &shared.history else {
        return;
    };
    let mut values: Vec<(String, f64)> = Vec::with_capacity(48);
    metrics::sample_history(&rows(shared), &mut values);
    history.record(values);
}

/// The handler's rows, then the edge's: flight recorder, history ring,
/// HTTP layer and accept queue (`trace`/`history` are `null` when off).
fn rows(shared: &Shared) -> Vec<Row> {
    let mut rows = shared.handler.rows();
    let mut edge = Row::top().http(&shared.metrics.report(shared.queue.len()));
    match &shared.traces {
        Some(recorder) => rows.push(recorder.row()),
        None => edge = edge.member("trace", Json::Null),
    }
    match &shared.history {
        Some(history) => rows.push(history.row()),
        None => edge = edge.member("history", Json::Null),
    }
    rows.push(edge);
    rows
}

/// How long a shed connection stays open after its 429 is written, and
/// how many may wait at once. A client connects, then writes: closing
/// before its request arrives makes the kernel answer the request with a
/// reset, and a reset can discard the refusal the peer has not read yet.
const SHED_LINGER: Duration = Duration::from_millis(100);
const SHED_PARKED_MAX: usize = 64;

fn accept_loop(listener: TcpListener, shared: &Shared) {
    // Refused connections, write side shut, oldest first; dropping one
    // closes it. Checked once per accept, so the loop never waits on it.
    let mut parked: VecDeque<(Instant, TcpStream)> = VecDeque::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        while parked
            .front()
            .is_some_and(|(shed_at, _)| shed_at.elapsed() >= SHED_LINGER)
        {
            parked.pop_front();
        }
        let Ok((stream, _peer)) = accepted else {
            // Transient accept failure (EMFILE, aborted handshake): keep
            // serving; a poisoned listener would spin, but every error
            // std reports here is per-connection, not per-listener.
            continue;
        };
        shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let conn = Conn {
            stream,
            enqueued_at: Instant::now(),
        };
        if let Err(refused) = shared.queue.try_push(conn) {
            // Admission control: the queue is full (or shutting down) —
            // shed with 429 instead of buffering or hanging.
            shared
                .metrics
                .connections_shed
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = refused.stream;
            // The refusal is ~200 bytes into a fresh connection's empty
            // send buffer, so this write practically never blocks; the
            // short timeout is a backstop so a pathological peer cannot
            // stall the accept loop during the very overload that causes
            // sheds.
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let _ = http::write_response(
                &mut stream,
                429,
                TEXT,
                b"shed: accept queue full\n",
                false,
                &[("Retry-After", "1")],
            );
            // End of response now; the close waits until the peer has
            // had time to read it.
            let _ = stream.shutdown(Shutdown::Write);
            if parked.len() == SHED_PARKED_MAX {
                parked.pop_front();
            }
            parked.push_back((Instant::now(), stream));
        }
    }
    shared.queue.close();
}

/// What a worker keeps from one request, and one connection, to the
/// next, so that in steady state serving allocates nothing of its own: the
/// request it parses into, the body its routes write, and the response as
/// it goes to the wire. None outgrows `http`'s retained capacity for long.
#[derive(Default)]
struct Buffers {
    request: Request,
    body: String,
    wire: Vec<u8>,
}

fn worker_loop(shared: &Shared, slot: &Slot) {
    let mut buffers = Buffers::default();
    while let Some(conn) = shared.queue.pop() {
        // A panic must cost one connection, not one worker: an unwinding
        // thread would silently shrink the pool toward a server that
        // accepts and queues but never serves. Connection state is owned
        // by the call and the buffers are overwritten by each request, so
        // unwind safety holds; handler-side invariants are restored by
        // its own guards (LeaderGuard, InFlightGuard).
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(conn, shared, slot, &mut buffers);
        }));
        // The slot's clone would otherwise hold the socket open.
        *lock_slot(slot) = None;
        if caught.is_err() {
            shared.metrics.record_response(Endpoint::Other, 500);
        }
    }
}

fn handle_connection(conn: Conn, shared: &Shared, slot: &Slot, buffers: &mut Buffers) {
    let Conn {
        stream,
        enqueued_at,
    } = conn;
    let Buffers {
        request,
        body,
        wire,
    } = buffers;
    // Server-induced delay so far: time spent waiting in the accept
    // queue. The first request's deadline budget is charged this wait
    // (plus its own processing) but NOT the peer's think-time between
    // connecting and sending — an idle client on an idle server must
    // never eat its own deadline.
    let queue_wait = enqueued_at.elapsed();
    let _ = stream.set_read_timeout(Some(shared.config.keep_alive_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.keep_alive_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(waker) = stream.try_clone() else {
        return;
    };
    *lock_slot(slot) = Some(waker);
    if shared.shutdown.load(Ordering::SeqCst) {
        // Popped after shutdown swept the slots: serve what the peer has
        // already sent, then see EOF instead of parking.
        let _ = stream.shutdown(Shutdown::Read);
    }
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    let mut requests_served = 0u64;

    loop {
        match http::read_request_into(&mut reader, shared.config.max_body_bytes, request) {
            Ok(()) => {}
            // Includes idle timeouts and the shutdown wake.
            Err(ReadError::Closed | ReadError::Io(_)) => return,
            Err(error) => {
                // Malformed input: answer the right 4xx/5xx and close —
                // a desynced byte stream cannot be trusted for reuse.
                let status = match error {
                    ReadError::BodyTooLarge { .. } => 413,
                    ReadError::UnsupportedTransferEncoding => 501,
                    _ => 400,
                };
                shared.metrics.record_response(Endpoint::Other, status);
                let message = format!("{error}\n").into_bytes();
                let _ = http::write_response(&mut writer, status, TEXT, &message, false, &[]);
                return;
            }
        };

        // Deadline basis: read completion, back-dated by the accept-queue
        // wait for the connection's first request — so queue pressure
        // counts against the budget but client think-time never does.
        let charged_wait = if requests_served == 0 {
            queue_wait
        } else {
            Duration::ZERO
        };
        let now = Instant::now();
        let started = now.checked_sub(charged_wait).unwrap_or(now);
        requests_served += 1;

        body.clear();
        body.shrink_to(http::RETAINED_BUFFER_BYTES);
        let (endpoint, routed) = route(shared, request, started, charged_wait, body);
        // Decided after the handler ran, so a request in flight when
        // shutdown begins is answered `Connection: close`.
        let keep_alive = request.keep_alive()
            && !shared.shutdown.load(Ordering::SeqCst)
            && requests_served < MAX_KEEPALIVE_REQUESTS;
        let written = http::write_response_via(
            wire,
            &mut writer,
            routed.status,
            routed.content_type,
            body.as_bytes(),
            keep_alive,
            &routed.extra_headers,
        );
        // Tallied after the write, so the peer is never kept waiting on
        // bookkeeping: a client that has its answer may find the counters
        // one behind, but never after its next exchange on this
        // connection — the same worker tallies before it reads again.
        shared.metrics.record_response(endpoint, routed.status);
        if endpoint == Endpoint::Infer {
            shared.metrics.infer_latency.record(started.elapsed());
        }
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// Resolves the request against the route table: the first row matching
/// path and method answers, its body written to `out`; a path that only
/// matches under another method is a 405 naming that method; anything
/// else is a 404.
fn route(
    shared: &Shared,
    request: &Request,
    started: Instant,
    queue_wait: Duration,
    out: &mut String,
) -> (Endpoint, Routed) {
    let (method, path) = (request.method(), request.path());
    let mut allow = None;
    for route in shared.handler.routes().iter().chain(&SHARED_ROUTES) {
        let Some(scope) = route.matches(path) else {
            continue;
        };
        if route.method != method {
            allow = Some(route.method);
            continue;
        }
        let routed = match route.endpoint {
            Endpoint::Healthz => Routed::text(out, 200, "ok\n"),
            Endpoint::Statusz => Routed::json(out, 200, &metrics::statusz(&rows(shared))),
            Endpoint::Metrics => {
                metrics::render_metrics(&rows(shared), out);
                Routed::new(200, "text/plain; version=0.0.4; charset=utf-8")
            }
            Endpoint::Traces => match &shared.traces {
                Some(recorder) => {
                    out.push_str(&recorder.render_debug(request.query()));
                    Routed::new(200, JSON)
                }
                None => Routed::error(out, 404, "tracing is disabled"),
            },
            Endpoint::History => match &shared.history {
                Some(history) => {
                    out.push_str(&history.render_debug(request.query()));
                    Routed::new(200, JSON)
                }
                None => Routed::error(out, 404, "history is disabled"),
            },
            _ => handle_traced(shared, route, scope, request, started, queue_wait, out),
        };
        return (route.endpoint, routed);
    }
    let routed = match allow {
        Some(method) => Routed::error(out, 405, "method not allowed").with_header("Allow", method),
        None => Routed::error(out, 404, format!("no route for {path}")),
    };
    (Endpoint::Other, routed)
}

/// Runs a domain route. On a traced route with tracing on, the request
/// checks a span buffer out of the flight recorder (honouring a
/// propagated `x-graphex-trace` id), charges the accept-queue wait as
/// the first span, and on completion files the trace and echoes the id
/// as a response header.
fn handle_traced(
    shared: &Shared,
    route: &Route,
    scope: Option<&str>,
    request: &Request,
    started: Instant,
    queue_wait: Duration,
    out: &mut String,
) -> Routed {
    let mut cx = Cx {
        started,
        trace: StageTrace::disabled(),
        trace_id: 0,
        embed: false,
        entries: 0,
        backends: Vec::new(),
    };
    let recorder = shared
        .traces
        .as_ref()
        .filter(|_| route.endpoint == Endpoint::Infer);
    let Some(recorder) = recorder else {
        return shared.handler.handle(route, scope, request, &mut cx, out);
    };
    let header_id = request.header(TRACE_HEADER).and_then(parse_trace_id);
    (cx.trace, cx.trace_id) = recorder.begin(started, header_id);
    cx.embed = header_id.is_some();
    if !queue_wait.is_zero() {
        cx.trace
            .record_span(Stage::QueueWait, started, queue_wait, 0);
    }
    let routed = shared.handler.handle(route, scope, request, &mut cx, out);
    recorder.finish(
        cx.trace,
        cx.trace_id,
        scope.map(str::to_string),
        routed.status,
        cx.entries,
        started.elapsed(),
        cx.backends,
    );
    routed.with_header(TRACE_HEADER, format!("{:016x}", cx.trace_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use std::io::{Read as _, Write as _};
    use std::sync::mpsc;

    /// A handler with no domain behind it: echo, panic, and a gate that
    /// holds a request in flight until the test releases it.
    struct Toy {
        stopped: AtomicBool,
        entered: Mutex<mpsc::Sender<()>>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    static TOY_ROUTES: [Route; 3] = [
        Route {
            method: "POST",
            path: "/v1/echo",
            scoped: true,
            endpoint: Endpoint::Infer,
        },
        Route {
            method: "POST",
            path: "/v1/panic",
            scoped: false,
            endpoint: Endpoint::Upsert,
        },
        Route {
            method: "POST",
            path: "/v1/gate",
            scoped: false,
            endpoint: Endpoint::Upsert,
        },
    ];

    impl Handler for Toy {
        fn routes(&self) -> &'static [Route] {
            &TOY_ROUTES
        }

        fn handle(
            &self,
            route: &Route,
            scope: Option<&str>,
            request: &Request,
            cx: &mut Cx,
            out: &mut String,
        ) -> Routed {
            match route.path {
                "/v1/echo" => {
                    cx.entries = 1;
                    let body = String::from_utf8_lossy(request.body());
                    Routed::text(out, 200, &format!("{}:{body}", scope.unwrap_or("-")))
                }
                "/v1/panic" => panic!("toy handler panic (expected by the test)"),
                _ => {
                    self.entered.lock().unwrap().send(()).unwrap();
                    self.release.lock().unwrap().recv().unwrap();
                    Routed::text(out, 200, "released\n")
                }
            }
        }

        fn rows(&self) -> Vec<Row> {
            static TOY_FIELDS: [metrics::Field<Toy>; 1] = [metrics::field(
                "",
                "toy_family",
                "",
                "toy/series",
                metrics::Get::Gauge(|_| 1),
            )];
            vec![Row::top()
                .member("role", Json::str("toy"))
                .fields(&TOY_FIELDS, self)]
        }

        fn on_shutdown(&self) {
            self.stopped.store(true, Ordering::SeqCst);
        }
    }

    /// The running edge, its toy, and the test's ends of the gate:
    /// `entered` fires when a `/v1/gate` request is in the handler,
    /// `release` lets it answer.
    struct Fixture {
        edge: EdgeHandle,
        toy: Arc<Toy>,
        entered: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    fn boot(workers: usize, queue_depth: usize) -> Fixture {
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let toy = Arc::new(Toy {
            stopped: AtomicBool::new(false),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        });
        let config = EdgeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth,
            max_body_bytes: 4096,
            // Far beyond any bound asserted below: nothing here may pass
            // by waiting the timeout out.
            keep_alive_timeout: Duration::from_secs(60),
            trace: TraceConfig::default(),
            history: HistoryConfig::default(),
        };
        let edge = start(config, Arc::clone(&toy) as Arc<dyn Handler>).unwrap();
        Fixture {
            edge,
            toy,
            entered,
            release,
        }
    }

    /// Polls the queue gauge rather than sleeping a fixed time: the
    /// acceptor thread admits a connection when it gets to it.
    fn await_queued(edge: &EdgeHandle, n: usize) {
        for _ in 0..400 {
            if edge.shared.queue.len() == n {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("queue never reached {n} (at {})", edge.shared.queue.len());
    }

    /// Sends raw bytes on a fresh connection and reads the reply to EOF.
    fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(bytes).unwrap();
        let mut reply = String::new();
        raw.read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn route_table_derives_404_405_and_allow() {
        let f = boot(2, 16);
        let mut client = HttpClient::connect(f.edge.addr()).unwrap();

        let echoed = client.post_json("/v1/echo", "hi").unwrap();
        assert_eq!((echoed.status, echoed.text().as_str()), (200, "-:hi"));
        assert!(
            echoed.header(TRACE_HEADER).is_some(),
            "infer routes are traced"
        );
        let scoped = client.post_json("/v1/t/acme/echo", "hi").unwrap();
        assert_eq!((scoped.status, scoped.text().as_str()), (200, "acme:hi"));
        // Unscoped rows do not answer under a scope; nor do nested scopes.
        assert_eq!(client.post_json("/v1/t/acme/gate", "").unwrap().status, 404);
        assert_eq!(client.post_json("/v1/t/a/b/echo", "").unwrap().status, 404);
        assert_eq!(client.get("/nope").unwrap().status, 404);

        for (path, allow) in [("/v1/echo", "POST"), ("/v1/t/acme/echo", "POST")] {
            let refused = client.get(path).unwrap();
            assert_eq!(
                (refused.status, refused.header("allow")),
                (405, Some(allow)),
                "{path}"
            );
        }
        for path in [
            "/healthz",
            "/statusz",
            "/metrics",
            "/debug/traces",
            "/debug/history",
        ] {
            let refused = client.post_json(path, "{}").unwrap();
            assert_eq!(
                (refused.status, refused.header("allow")),
                (405, Some("GET")),
                "{path}"
            );
            assert_eq!(client.get(path).unwrap().status, 200, "{path}");
        }

        // The handler's contributions land inside the edge's envelopes.
        let status = crate::json::parse(&client.get("/statusz").unwrap().text()).unwrap();
        assert_eq!(status.get("role").unwrap().as_str(), Some("toy"));
        assert_eq!(
            status
                .get("latency")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert!(status.get("queue_depth").is_some());
        let metrics = client.get("/metrics").unwrap().text();
        assert!(metrics.contains("toy_family 1"), "{metrics}");
        assert!(metrics.contains("graphex_http_requests_total{endpoint=\"other\",code=\"405\"} 7"));
        f.edge.sample_history_now();
        let sample = f.edge.history().unwrap().samples(1).pop().unwrap();
        assert_eq!(sample.value("toy/series"), Some(1.0));
        assert!(sample.value("http/requests").is_some());

        drop(client);
        f.edge.shutdown();
        assert!(f.toy.stopped.load(Ordering::SeqCst), "on_shutdown ran");
    }

    #[test]
    fn malformed_framing_gets_4xx_never_a_hang() {
        let f = boot(2, 16);
        let addr = f.edge.addr();
        // Each case desyncs the stream, so the server closes after the
        // error and `raw_exchange` reads to EOF.
        let oversized = format!(
            "POST /v1/echo HTTP/1.1\r\nContent-Length: 5000\r\n\r\n{}",
            "x".repeat(5000)
        );
        for (expected, bytes) in [
            ("HTTP/1.1 400", b"NONSENSE\r\n\r\n".as_slice()),
            (
                "HTTP/1.1 400",
                b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n".as_slice(),
            ),
            ("HTTP/1.1 413", oversized.as_bytes()),
            (
                "HTTP/1.1 501",
                b"POST /v1/echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
            ),
        ] {
            let reply = raw_exchange(addr, bytes);
            assert!(
                reply.starts_with(expected),
                "wanted {expected}, got {reply}"
            );
            assert!(reply.contains("Connection: close"), "{reply}");
        }
        // The server still serves normal traffic afterwards.
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(f.edge.metrics().server_errors(), 1, "only the 501");
        drop(client);
        f.edge.shutdown();
    }

    #[test]
    fn full_accept_queue_sheds_with_429() {
        let f = boot(1, 1);
        let addr = f.edge.addr();
        // Occupy the single worker with a held keep-alive connection.
        let mut held = HttpClient::connect(addr).unwrap();
        assert_eq!(held.get("/healthz").unwrap().status, 200);
        // Fill the queue with a second (idle) connection.
        let queued = TcpStream::connect(addr).unwrap();
        await_queued(&f.edge, 1);

        // A third connection must be shed immediately: 429, no hang.
        let mut shed = HttpClient::connect(addr).unwrap();
        let response = shed.get("/healthz").unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(f.edge.metrics().connections_shed.load(Ordering::Relaxed), 1);
        drop((held, queued, shed));
        f.edge.shutdown();
    }

    /// A client connects, then writes, and the acceptor may run on
    /// either side of that write. When the request is already unread in
    /// the socket as the acceptor closes, the close is a reset, which
    /// takes whatever of the refusal is not on the wire yet with it; when
    /// it arrives after the close, it draws one. Every shed peer must
    /// still read the whole 429, then EOF.
    #[test]
    fn shed_refusal_is_read_in_full_whenever_the_request_lands() {
        let f = boot(1, 1);
        let addr = f.edge.addr();
        let mut held = HttpClient::connect(addr).unwrap();
        assert_eq!(held.get("/healthz").unwrap().status, 200);
        let queued = TcpStream::connect(addr).unwrap();
        await_queued(&f.edge, 1);

        // More than the acceptor parks at once, so the oldest are closed
        // to make room while the loop runs.
        for i in 0..3 * SHED_PARKED_MAX {
            let reply = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            assert!(reply.starts_with("HTTP/1.1 429 "), "shed {i}: {reply:?}");
            assert!(
                reply.ends_with("shed: accept queue full\n"),
                "shed {i}: {reply:?}"
            );
        }
        drop((held, queued));
        f.edge.shutdown();
    }

    /// Worker pinning is bounded: after `MAX_KEEPALIVE_REQUESTS` on one
    /// connection the server closes it, so a chatty peer cannot starve
    /// queued connections forever.
    #[test]
    fn keep_alive_connections_are_capped() {
        let f = boot(2, 16);
        let mut client = HttpClient::connect(f.edge.addr()).unwrap();
        for i in 1..MAX_KEEPALIVE_REQUESTS {
            let response = client.get("/healthz").unwrap();
            assert_eq!(response.status, 200);
            assert_ne!(
                response.header("connection"),
                Some("close"),
                "closed early at {i}"
            );
        }
        let last = client.get("/healthz").unwrap();
        assert_eq!(last.status, 200);
        assert_eq!(
            last.header("connection"),
            Some("close"),
            "cap must close the connection"
        );
        assert!(
            client.get("/healthz").is_err(),
            "server hung up after the cap"
        );
        // A reconnect is admitted immediately.
        let mut fresh = HttpClient::connect(f.edge.addr()).unwrap();
        assert_eq!(fresh.get("/healthz").unwrap().status, 200);
        drop(fresh);
        f.edge.shutdown();
    }

    /// A connection admitted before shutdown but still queued when it
    /// begins is answered (with `Connection: close`), not dropped — and
    /// afterwards the port no longer accepts.
    #[test]
    fn graceful_shutdown_drains_queued_connections() {
        let Fixture {
            edge,
            entered,
            release,
            ..
        } = boot(1, 8);
        let addr = edge.addr();
        let shared = Arc::clone(&edge.shared);
        // Hold the only worker inside the handler...
        let gated = std::thread::spawn(move || {
            HttpClient::connect(addr)
                .unwrap()
                .post_json("/v1/gate", "")
                .unwrap()
        });
        entered.recv().unwrap();
        // ...so this connection, request already sent, waits in the queue.
        let queued = std::thread::spawn(move || {
            raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        });
        await_queued(&edge, 1);

        let stopper = std::thread::spawn(move || edge.shutdown());
        while !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        release.send(()).unwrap();

        assert_eq!(gated.join().unwrap().text(), "released\n");
        let reply = queued.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(
            reply.contains("Connection: close") && reply.ends_with("ok\n"),
            "{reply}"
        );
        stopper.join().unwrap();
        // A TIME_WAIT race can let connect succeed; the exchange must
        // then fail.
        assert!(HttpClient::connect(addr)
            .and_then(|mut c| c.get("/healthz"))
            .is_err());
    }

    #[test]
    fn handler_panic_costs_one_connection_not_the_worker() {
        let f = boot(1, 8);
        let addr = f.edge.addr();
        let mut doomed = HttpClient::connect(addr).unwrap();
        assert!(
            doomed.post_json("/v1/panic", "").is_err(),
            "the connection is dropped"
        );
        // The only worker survived and keeps serving.
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(f.edge.metrics().responses_for(Endpoint::Other, 500), 1);
        assert_eq!(f.edge.metrics().server_errors(), 1);
        drop(client);
        f.edge.shutdown();
    }

    /// Shutdown does not wait out `keep_alive_timeout` (60 s here) on
    /// peers parked between requests, and a request in the handler when
    /// shutdown begins still gets its whole response.
    #[test]
    fn shutdown_wakes_idle_peers_and_finishes_in_flight_requests() {
        let Fixture {
            edge,
            entered,
            release,
            ..
        } = boot(6, 16);
        let addr = edge.addr();
        let mut idle: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    .unwrap();
                // One whole keep-alive response, however it is segmented.
                let mut reply = Vec::new();
                while !reply.ends_with(b"ok\n") {
                    let mut chunk = [0u8; 512];
                    let n = stream.read(&mut chunk).unwrap();
                    assert_ne!(n, 0, "server closed a keep-alive connection");
                    reply.extend_from_slice(&chunk[..n]);
                }
                stream
            })
            .collect();
        let in_flight = std::thread::spawn(move || {
            HttpClient::connect(addr)
                .unwrap()
                .post_json("/v1/gate", "")
                .unwrap()
        });
        entered.recv().unwrap();

        let began = Instant::now();
        let stopper = std::thread::spawn(move || edge.shutdown());
        // Every idle peer sees the server hang up while the gated request
        // is still in the handler...
        for stream in &mut idle {
            assert_eq!(
                stream.read(&mut [0u8; 16]).unwrap(),
                0,
                "idle peer woken with EOF"
            );
        }
        // ...and only then is that request allowed to finish.
        release.send(()).unwrap();
        let response = in_flight.join().unwrap();
        assert_eq!(
            (response.status, response.text().as_str()),
            (200, "released\n")
        );
        assert_eq!(response.header("connection"), Some("close"));
        stopper.join().unwrap();
        assert!(
            began.elapsed() < Duration::from_millis(250),
            "took {:?}",
            began.elapsed()
        );
    }
}
