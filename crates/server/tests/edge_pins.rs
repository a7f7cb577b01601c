//! What a store-hit request costs the process, pinned: at most
//! [`ALLOCATION_BUDGET`] heap allocations from socket read to socket
//! write, and one `write` per response. A binary of its own because it
//! replaces the global allocator with a counting one — process-wide, since
//! the request is served on the server's threads, not the test's.

use graphex_core::{GraphExBuilder, GraphExConfig, KeyphraseRecord, LeafId};
use graphex_server::{http, HistoryConfig, ServerConfig, TraceConfig};
use graphex_serving::{KvStore, ServingApi};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Allocations (and reallocations) made by any thread of the process.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic integer
// and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations a keep-alive store hit may make, everything in the
/// process counted. Before the request path kept its buffers it made 73
/// (a `String` per header, a JSON tree each way, a `String` per keyphrase
/// twice over); what is left is the scan of the request body's members,
/// the one-entry decode, and slack for a reallocation of either.
const ALLOCATION_BUDGET: usize = 4;
const WARM_UP: usize = 24;
const COUNTED: usize = 500;
const ITEMS: usize = 40;

/// A client that allocates nothing per exchange: the request is bytes
/// rendered beforehand, the response lands in a fixed buffer.
struct Client {
    stream: TcpStream,
    buf: [u8; 4096],
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        Self { stream, buf: [0; 4096] }
    }

    /// One exchange; the response's bytes, head and body.
    fn round_trip(&mut self, request: &[u8]) -> &[u8] {
        fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
            haystack.windows(needle.len()).position(|window| window == needle)
        }
        self.stream.write_all(request).expect("send");
        let mut filled = 0;
        loop {
            let n = self.stream.read(&mut self.buf[filled..]).expect("receive");
            assert_ne!(n, 0, "server hung up");
            filled += n;
            let Some(head) = find(&self.buf[..filled], b"\r\n\r\n") else {
                continue;
            };
            let at = find(&self.buf[..head], b"Content-Length: ").expect("framed") + 16;
            let length = self.buf[at..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .fold(0usize, |n, b| n * 10 + usize::from(b - b'0'));
            if filled >= head + 4 + length {
                return &self.buf[..filled];
            }
        }
    }
}

#[test]
fn a_store_hit_request_stays_within_its_allocation_budget() {
    let words = ["battery", "case", "leather", "wireless", "charger", "cable", "mini", "pro"];
    let mut config = GraphExConfig::default();
    config.curation.min_search_count = 0;
    let records = (0..240usize).map(|i| {
        let text =
            format!("{} {} {} model{}", words[i % 8], words[i / 8 % 8], words[i * 3 % 8], i % 30);
        KeyphraseRecord::new(text, LeafId(i as u32 % 3), 10 + i as u32 % 17, 1 + i as u32 % 5)
    });
    let model = GraphExBuilder::new(config).add_records(records).build().expect("model");
    let api = Arc::new(ServingApi::new(Arc::new(model), Arc::new(KvStore::new()), 10));
    let server = graphex_server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            deadline: None,
            keep_alive_timeout: Duration::from_secs(10),
            trace: TraceConfig { enabled: false, ..Default::default() },
            history: HistoryConfig { enabled: false, ..Default::default() },
            ..Default::default()
        },
        Arc::clone(&api),
    )
    .expect("bind");

    // The requests, rendered once; the first pass fills the store.
    let requests: Vec<Vec<u8>> = (0..ITEMS)
        .map(|i| {
            let body = format!(
                r#"{{"title":"{} {} model{}","leaf":{},"k":10,"id":{}}}"#,
                words[i % 8],
                words[(i + 3) % 8],
                i % 30,
                i % 3,
                1000 + i
            );
            format!(
                "POST /v1/infer HTTP/1.1\r\nHost: pin\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let mut client = Client::connect(server.addr());
    for request in &requests {
        let reply = client.round_trip(request);
        assert!(reply.starts_with(b"HTTP/1.1 200 "), "{}", String::from_utf8_lossy(reply));
    }
    assert_eq!(api.stats().read_throughs as usize, ITEMS, "every item computed once");
    drop(client);

    // Three windows, the least counted: anything else the process does
    // meanwhile (the harness reporting another test) can only add.
    let mut least = usize::MAX;
    for _ in 0..3 {
        let mut client = Client::connect(server.addr());
        for i in 0..WARM_UP {
            client.round_trip(&requests[i % ITEMS]);
        }
        let hits_before = api.stats().store_hits;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for i in 0..COUNTED {
            let reply = client.round_trip(&requests[i % ITEMS]);
            assert!(reply.starts_with(b"HTTP/1.1 200 "));
        }
        let counted = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!((api.stats().store_hits - hits_before) as usize, COUNTED, "all store hits");
        least = least.min(counted);
    }
    let per_request = least as f64 / COUNTED as f64;
    println!("allocations per keep-alive store hit, process-wide: {per_request:.2}");
    assert!(
        least <= ALLOCATION_BUDGET * COUNTED,
        "{per_request:.2} allocations per store-hit request exceed the budget of {ALLOCATION_BUDGET}"
    );
    server.shutdown();
}

/// A `Write` that counts the calls it gets.
#[derive(Default)]
struct CountedWrites {
    writes: usize,
    bytes: Vec<u8>,
}

impl Write for CountedWrites {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Head and body leave together: on a `TCP_NODELAY` socket each `write`
/// is a segment of its own and a wake-up of its own for the peer.
#[test]
fn a_response_is_one_write() {
    let body = br#"{"outcome":"exact_leaf","keyphrases":["a","b"]}"#;
    for (keep_alive, extra) in
        [(true, &[][..]), (false, &[("Retry-After", "1"), ("Allow", "GET")][..])]
    {
        let mut stream = CountedWrites::default();
        http::write_response(&mut stream, 200, "application/json", body, keep_alive, extra)
            .expect("in-memory");
        assert_eq!(stream.writes, 1, "head and body in one write");
        assert!(stream.bytes.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(stream.bytes.ends_with(body));
        let head = String::from_utf8_lossy(&stream.bytes[..stream.bytes.len() - body.len()]);
        assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{head}");
        assert!(head.ends_with("\r\n\r\n"), "{head}");
    }
    // A body of megabytes still leaves in as few writes as the stream
    // takes: here, one.
    let big = vec![b'x'; 3 << 20];
    let mut stream = CountedWrites::default();
    http::write_response(&mut stream, 200, "text/plain", &big, true, &[]).expect("in-memory");
    assert_eq!(stream.writes, 1);
}
