//! Fault-injection chaos backend for cluster tests: a TCP listener that
//! misbehaves **on demand**, so router ejection, retry exhaustion, and
//! re-admission become deterministic test subjects instead of hoped-for
//! production behaviours.
//!
//! The mode is runtime-switchable — a test boots one [`ChaosBackend`]
//! into a shard map, flips it through failure modes, and asserts the
//! router's `/statusz` health table and degradation counters at each
//! step. In [`ChaosMode::Healthy`] the backend speaks enough of the
//! `/v1/infer` protocol to satisfy the router: a valid batch envelope
//! echoing each request's id with canned keyphrases.
//!
//! This module is compiled into the library (not `#[cfg(test)]`) because
//! the cluster integration tests live out-of-crate; it has no place in a
//! production deployment, which is fine — nothing routes to it unless a
//! shard map says so.

use crate::http::{self, ReadError};
use crate::json::Json;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How the backend treats the next connection/request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Answer correctly: `/healthz` ok, `/v1/infer` echoes ids with
    /// canned keyphrases.
    Healthy,
    /// Accept and immediately close every connection (connection-refused
    /// as seen from a pooled client: EOF before any response byte).
    Refuse,
    /// Read the request, then hang without responding until the mode
    /// changes or `hang_cap` elapses — the caller's read timeout fires.
    Hang,
    /// Answer every request with HTTP 500.
    Error500,
    /// Serve one request correctly, then close the connection —
    /// keep-alive dies between requests.
    ServeThenDie,
    /// HTTP 200 with a body that is not JSON.
    Garbage,
    /// Declare a Content-Length larger than the bytes actually sent,
    /// then close (truncated body).
    Truncated,
    /// Declare an enormous Content-Length (tests the client-side
    /// response cap; no body of that size is ever sent).
    Oversized,
    /// Valid JSON, wrong shape (no `responses` array).
    WrongShape,
}

struct Shared {
    mode: Mutex<ChaosMode>,
    shutdown: AtomicBool,
    /// Requests that reached a handler (any mode).
    requests: AtomicU64,
    /// How long `Hang` holds a request before giving up.
    hang_cap: Duration,
}

impl Shared {
    fn mode(&self) -> ChaosMode {
        *self.mode.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running chaos backend.
pub struct ChaosBackend {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ChaosBackend {
    /// Starts on an ephemeral loopback port in [`ChaosMode::Healthy`].
    pub fn start() -> std::io::Result<Self> {
        Self::start_with_hang_cap(Duration::from_secs(5))
    }

    /// [`start`](Self::start) with an explicit cap on how long `Hang`
    /// mode holds a request (keep it above the router's backend timeout,
    /// below the test's patience).
    pub fn start_with_hang_cap(hang_cap: Duration) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            mode: Mutex::new(ChaosMode::Healthy),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            hang_cap,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("graphex-chaos".into())
                .spawn(move || accept_loop(listener, &shared))?
        };
        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound loopback address (for a shard map).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Switches the failure mode; takes effect for new requests (and for
    /// in-flight `Hang`s, which re-check the mode while waiting).
    pub fn set_mode(&self, mode: ChaosMode) {
        *self
            .shared
            .mode
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = mode;
    }

    /// Requests that reached a handler so far.
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stops the listener and joins the acceptor (per-connection threads
    /// die with their sockets).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ChaosBackend {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _peer)) = accepted else {
            continue;
        };
        if shared.mode() == ChaosMode::Refuse {
            drop(stream); // EOF before any response byte
            continue;
        }
        let shared = Arc::clone(shared);
        // Thread-per-connection: chaos scale is a handful of router
        // workers, not production traffic.
        let _ = std::thread::Builder::new()
            .name("graphex-chaos-conn".into())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;

    loop {
        let request = match http::read_request(&mut reader, 1 << 20) {
            Ok(request) => request,
            Err(ReadError::Closed | ReadError::Io(_)) => return,
            Err(_) => return,
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let mode = shared.mode();
        match mode {
            ChaosMode::Refuse => return, // flipped mid-connection: just die
            ChaosMode::Hang => {
                // Hold until the mode changes, shutdown, or the cap —
                // the caller's read timeout is what's under test.
                let start = std::time::Instant::now();
                while shared.mode() == ChaosMode::Hang
                    && !shared.shutdown.load(Ordering::SeqCst)
                    && start.elapsed() < shared.hang_cap
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                return; // close without responding
            }
            ChaosMode::Error500 => {
                let _ = http::write_response(
                    &mut write_half,
                    500,
                    "text/plain; charset=utf-8",
                    b"chaos: injected failure\n",
                    true,
                    &[],
                );
            }
            ChaosMode::Garbage => {
                let _ =
                    write_half.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nnot json!");
                let _ = write_half.flush();
            }
            ChaosMode::Truncated => {
                // Declares 1000 body bytes, sends 4, closes.
                let _ =
                    write_half.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\noops");
                let _ = write_half.flush();
                return;
            }
            ChaosMode::Oversized => {
                let _ = write_half.write_all(
                    format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", 1u64 << 40).as_bytes(),
                );
                let _ = write_half.flush();
                return;
            }
            ChaosMode::WrongShape => {
                let body = Json::obj(vec![("surprise", Json::str("no responses here"))]).render();
                let _ = http::write_response(
                    &mut write_half,
                    200,
                    "application/json",
                    body.as_bytes(),
                    true,
                    &[],
                );
            }
            ChaosMode::Healthy | ChaosMode::ServeThenDie => {
                let body = healthy_response(&request);
                let keep_alive = mode == ChaosMode::Healthy;
                let written = http::write_response(
                    &mut write_half,
                    200,
                    body.1,
                    body.0.as_bytes(),
                    keep_alive,
                    &[],
                );
                if written.is_err() || !keep_alive {
                    return; // ServeThenDie: one good answer, then gone
                }
            }
        }
    }
}

/// The canned keyphrase every healthy chaos answer carries.
pub const CHAOS_KEYPHRASE: &str = "chaos keyphrase";

fn healthy_response(request: &http::Request) -> (String, &'static str) {
    match (request.method(), request.path()) {
        ("GET", "/healthz") => ("ok\n".into(), "text/plain; charset=utf-8"),
        ("POST", "/v1/infer") => {
            let entry = |id: Option<&Json>| {
                let mut members = vec![
                    ("outcome", Json::str("exact_leaf")),
                    ("source", Json::str("direct")),
                    ("keyphrases", Json::Arr(vec![Json::str(CHAOS_KEYPHRASE)])),
                    ("snapshot_version", Json::uint(1)),
                ];
                if let Some(id) = id {
                    members.insert(0, ("id", id.clone()));
                }
                Json::obj(members)
            };
            let parsed = std::str::from_utf8(request.body())
                .ok()
                .and_then(|text| crate::json::parse(text).ok());
            let body = match parsed
                .as_ref()
                .and_then(|p| p.get("requests"))
                .and_then(Json::as_arr)
            {
                Some(requests) => Json::obj(vec![
                    (
                        "responses",
                        Json::Arr(requests.iter().map(|r| entry(r.get("id"))).collect()),
                    ),
                    ("snapshot_version", Json::uint(1)),
                ]),
                None => entry(parsed.as_ref().and_then(|p| p.get("id"))),
            };
            (body.render(), "application/json")
        }
        _ => ("{}".into(), "application/json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;

    #[test]
    fn healthy_mode_speaks_the_infer_protocol() {
        let chaos = ChaosBackend::start().unwrap();
        let mut client = HttpClient::connect(chaos.addr()).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        let response = client
            .post_json(
                "/v1/infer",
                r#"{"requests":[{"title":"x","leaf":1,"id":9}]}"#,
            )
            .unwrap();
        assert_eq!(response.status, 200);
        let body = crate::json::parse(&response.text()).unwrap();
        let responses = body.get("responses").unwrap().as_arr().unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].get("id").unwrap().as_u64(), Some(9));
        assert_eq!(
            responses[0].get("keyphrases").unwrap().as_arr().unwrap()[0].as_str(),
            Some(CHAOS_KEYPHRASE)
        );
        assert_eq!(chaos.requests(), 2);
        drop(client);
        chaos.shutdown();
    }

    #[test]
    fn failure_modes_fail_the_way_they_claim() {
        let chaos = ChaosBackend::start_with_hang_cap(Duration::from_millis(500)).unwrap();

        chaos.set_mode(ChaosMode::Refuse);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        assert!(
            c.get("/healthz").is_err(),
            "refuse mode must yield no response"
        );

        chaos.set_mode(ChaosMode::Error500);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        assert_eq!(c.get("/healthz").unwrap().status, 500);

        chaos.set_mode(ChaosMode::Garbage);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        let garbage = c.get("/healthz").unwrap();
        assert!(crate::json::parse(&garbage.text()).is_err());

        chaos.set_mode(ChaosMode::Truncated);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        assert!(
            c.get("/healthz").is_err(),
            "truncated body must be an IO error"
        );

        chaos.set_mode(ChaosMode::Oversized);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        c.set_max_response_bytes(1 << 20);
        assert!(
            c.get("/healthz").is_err(),
            "oversized declaration must hit the cap"
        );

        chaos.set_mode(ChaosMode::ServeThenDie);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        assert_eq!(c.get("/healthz").unwrap().status, 200);
        assert!(
            c.get("/healthz").is_err(),
            "second request on the connection must fail"
        );

        chaos.set_mode(ChaosMode::Hang);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        let hung = c.get("/healthz");
        assert!(hung.is_err(), "hang mode answered: {hung:?}");

        chaos.set_mode(ChaosMode::Healthy);
        let mut c = HttpClient::connect(chaos.addr()).unwrap();
        assert_eq!(
            c.get("/healthz").unwrap().status,
            200,
            "recovery after chaos"
        );
        chaos.shutdown();
    }
}
