//! The in-place request parser against a slow reference, by generated
//! input: `http::read_request` finds each head line where the stream
//! buffered it and copies nothing but the head; the reference below reads
//! a byte at a time into a fresh `String` per line, the way the parser
//! used to. Over heads with LF and CRLF line ends, 0–65 headers, header
//! bytes around `MAX_HEADER_BYTES`, non-UTF-8 bytes, bodies around the
//! cap, and a second request pipelined behind — delivered whole and split
//! across reads at every byte — the two agree on every field or on the
//! error variant, the bytes behind the request stay in the stream, and
//! neither panics.

use graphex_server::http::{self, ReadError, MAX_HEADERS, MAX_HEADER_BYTES};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read};

/// What a request parsed to, owned.
#[derive(Debug, PartialEq)]
struct Parsed {
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// The reference: one byte per `read`, one `String` per line, every rule
/// spelled out in order.
fn reference(stream: &mut &[u8], max_body: usize) -> Result<Parsed, ReadError> {
    fn line(stream: &mut &[u8], consumed: &mut usize) -> Result<String, ReadError> {
        let mut line = Vec::new();
        loop {
            let mut byte = [0u8; 1];
            if stream.read(&mut byte).map_err(ReadError::Io)? == 0 {
                return Err(if *consumed == 0 {
                    ReadError::Closed
                } else {
                    ReadError::Bad("unexpected end of headers")
                });
            }
            *consumed += 1;
            if *consumed > MAX_HEADER_BYTES {
                return Err(ReadError::Bad("headers too large"));
            }
            if byte[0] == b'\n' {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return String::from_utf8(line).map_err(|_| ReadError::Bad("non-UTF-8"));
            }
            line.push(byte[0]);
        }
    }

    let mut consumed = 0;
    let request_line = line(stream, &mut consumed)?;
    if request_line.is_empty() {
        return Err(ReadError::Bad("empty request line"));
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or(ReadError::Bad("missing target"))?.to_string();
    let version = parts.next().ok_or(ReadError::Bad("missing version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad("malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ReadError::Bad("malformed method"));
    }
    if !target.starts_with('/') {
        return Err(ReadError::Bad("relative target"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target, None),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let header = line(stream, &mut consumed)?;
        if header.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Bad("too many headers"));
        }
        let (name, value) = header.split_once(':').ok_or(ReadError::Bad("no colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Bad("malformed header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let named = |wanted: &'static str| {
        headers.iter().filter(move |(k, _)| k.eq_ignore_ascii_case(wanted)).map(|(_, v)| v.as_str())
    };
    if named("transfer-encoding").next().is_some_and(|te| !te.eq_ignore_ascii_case("identity")) {
        return Err(ReadError::UnsupportedTransferEncoding);
    }
    let mut content_length = None;
    for raw in named("content-length") {
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ReadError::Bad("bad content-length"));
        }
        let length = raw.parse::<usize>().map_err(|_| ReadError::Bad("bad content-length"))?;
        if content_length.is_some_and(|first| first != length) {
            return Err(ReadError::Bad("conflicting content-length"));
        }
        content_length = Some(length);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge { declared: content_length, max: max_body });
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(ReadError::Io)?;
    Ok(Parsed { method, path, query, headers, body })
}

/// A reader that hands `wire` over in two pieces, the first `cut` bytes
/// long, never more than `step` bytes per `read`.
struct Pieces<'a> {
    wire: &'a [u8],
    at: usize,
    cut: usize,
    step: usize,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = if self.at < self.cut { self.cut } else { self.wire.len() };
        let n = (end - self.at).min(self.step).min(buf.len());
        buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What comparing two outcomes comes down to: the fields, or which error.
fn outcome(result: Result<Parsed, ReadError>) -> Result<Parsed, String> {
    result.map_err(|e| match e {
        ReadError::Closed => "closed".into(),
        ReadError::Io(e) => format!("io {:?}", e.kind()),
        ReadError::Bad(_) => "bad".into(),
        ReadError::BodyTooLarge { declared, max } => format!("too large {declared}>{max}"),
        ReadError::UnsupportedTransferEncoding => "transfer-encoding".into(),
    })
}

/// The property, for one wire image under one delivery: the parser under
/// test agrees with the reference, and on success leaves exactly the
/// bytes behind the request in the stream.
fn assert_agrees(wire: &[u8], max_body: usize, capacity: usize, cut: usize, step: usize) {
    let mut rest = wire;
    let want = outcome(reference(&mut rest, max_body));
    let mut stream = BufReader::with_capacity(capacity, Pieces { wire, at: 0, cut, step });
    let got = http::read_request(&mut stream, max_body).map(|request| Parsed {
        method: request.method().to_string(),
        path: request.path().to_string(),
        query: request.query().map(str::to_string),
        headers: request.headers().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        body: request.body().to_vec(),
    });
    let got = outcome(got);
    let delivery = format!("capacity {capacity}, cut {cut}, step {step}");
    assert_eq!(got, want, "{delivery}: {:?}", String::from_utf8_lossy(wire));
    if want.is_ok() {
        let mut behind = Vec::new();
        stream.read_to_end(&mut behind).expect("in-memory");
        assert_eq!(behind, rest, "{delivery}: bytes behind {:?}", String::from_utf8_lossy(wire));
    }
}

/// Every delivery worth its time for `wire`: whole; a byte at a time;
/// and cut in two at each byte (each `stride`-th for long images), through
/// a buffer smaller than a line, about a head, and larger than the cap.
fn assert_agrees_however_delivered(wire: &[u8], max_body: usize) {
    assert_agrees(wire, max_body, 8192, 0, usize::MAX);
    assert_agrees(wire, max_body, 32 * 1024, 0, usize::MAX);
    assert_agrees(wire, max_body, 1, 0, 1);
    assert_agrees(wire, max_body, 7, 0, 3);
    let stride = (wire.len() / 300).max(1);
    for cut in (0..=wire.len()).step_by(stride) {
        assert_agrees(wire, max_body, 8192, cut, usize::MAX);
    }
}

const MAX_BODY: usize = 48;

/// A wire image grown from a byte script: a request line and headers
/// built from palettes where every malformation has a seat, a body sized
/// around the cap, and often a second request behind.
fn grow(script: &[u8]) -> Vec<u8> {
    let mut bytes = script.iter();
    let mut next = move || usize::from(bytes.next().copied().unwrap_or(0));
    const METHODS: [&str; 6] = ["GET", "POST", "DELETE", "get", "", "P0ST"];
    const TARGETS: [&str; 7] =
        ["/", "/v1/infer", "/a?b=c", "/a?b?c", "noslash", "/sp ace", "/caf\u{e9}?q=\u{1f600}"];
    const VERSIONS: [&str; 5] = ["HTTP/1.1", "HTTP/1.0", "HTTP/2", "SPDY/3", ""];
    const NAMES: [&str; 9] = [
        "Host", "X-A", "content-length", "Content-Length", "Transfer-Encoding", "Connection",
        "bad name", "", "X-\u{e9}",
    ];
    const VALUES: [&str; 12] = [
        "x", "", " padded \t", "a:b", "close", "identity", "chunked", "0", "5", "+5", "05",
        "18446744073709551616",
    ];
    let mut wire = Vec::new();
    let end_line = |wire: &mut Vec<u8>, pick: usize| {
        wire.extend_from_slice([&b"\r\n"[..], b"\n", b"\r\r\n", b"\r\n"][pick % 4]);
    };
    match next() % 8 {
        0 => wire.extend_from_slice(b"GARBAGE"),
        1 => {}
        _ => {
            let line = [METHODS[next() % 6], TARGETS[next() % 7], VERSIONS[next() % 5]];
            wire.extend_from_slice(line.join(" ").as_bytes());
            if next() % 16 == 0 {
                wire.extend_from_slice(b" extra");
            }
        }
    }
    end_line(&mut wire, next());
    // 0–65 headers; most requests carry a few, some probe the count cap.
    let count = match next() % 8 {
        0 => 63 + next() % 3,
        _ => next() % 6,
    };
    let body_len = [0, 1, MAX_BODY - 1, MAX_BODY, MAX_BODY + 1][next() % 5];
    for i in 0..count {
        match next() % 16 {
            0 => wire.extend_from_slice(b"no colon here"),
            1 => wire.extend_from_slice(b"X-Bin: \xff\xfe"),
            2 | 3 => wire.extend_from_slice(format!("Content-Length: {body_len}").as_bytes()),
            _ if count > 60 => wire.extend_from_slice(format!("X-{i}: v").as_bytes()),
            _ => {
                let (name, value) = (NAMES[next() % 9], VALUES[next() % 12]);
                wire.extend_from_slice(format!("{name}:{value}").as_bytes());
            }
        }
        end_line(&mut wire, next());
    }
    if next() % 8 > 0 {
        end_line(&mut wire, next()); // the blank line; sometimes the head just stops
    }
    wire.extend(std::iter::repeat(b'b').take([body_len, body_len / 2, 0][next() % 3]));
    if next() % 2 == 0 {
        wire.extend_from_slice(b"GET /second HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Generated requests, however delivered.
    #[test]
    fn parser_agrees_with_the_reference(script in prop::collection::vec(any::<u8>(), 0..96)) {
        assert_agrees_however_delivered(&grow(&script), MAX_BODY);
    }

    /// A generated request with one byte replaced or one inserted.
    #[test]
    fn parser_agrees_on_mutations(
        script in prop::collection::vec(any::<u8>(), 0..96),
        at in any::<u16>(),
        byte in prop::sample::select(b"\r\n :?/\x00\x7f\xff\xc3A0".to_vec()),
        insert in any::<bool>(),
    ) {
        let mut wire = grow(&script);
        let at = usize::from(at) % (wire.len() + 1);
        if insert || at == wire.len() {
            wire.insert(at, byte);
        } else {
            wire[at] = byte;
        }
        assert_agrees_however_delivered(&wire, MAX_BODY);
    }

    /// Arbitrary bytes never panic either parser, and they agree.
    #[test]
    fn parser_agrees_on_arbitrary_bytes(wire in prop::collection::vec(any::<u8>(), 0..200)) {
        assert_agrees_however_delivered(&wire, MAX_BODY);
    }
}

/// The header-byte cap falls on the same byte for both: a head of
/// `MAX_HEADER_BYTES` bytes is read, one more is refused — whether the
/// excess is in a header value, is the final line end, or is never
/// terminated at all — and the body behind a head exactly at the cap is
/// still framed right.
#[test]
fn header_byte_cap_falls_on_the_same_byte() {
    let prefix = "POST /v1/infer HTTP/1.1\r\nContent-Length: 4\r\nX-Pad: ";
    let suffix = "\r\n\r\n";
    for excess in [-2isize, -1, 0, 1, 2] {
        let head = (MAX_HEADER_BYTES as isize + excess) as usize;
        let pad = head - prefix.len() - suffix.len();
        let mut wire = format!("{prefix}{}{suffix}body", "p".repeat(pad)).into_bytes();
        wire.extend_from_slice(b"GET /second HTTP/1.1\r\n\r\n");
        assert_eq!(reference(&mut &wire[..], 64).is_ok(), excess <= 0, "excess {excess}");
        assert_agrees_however_delivered(&wire, 64);
        // LF-only line ends shift where the cap falls by one per line.
        let lf_only: Vec<u8> = String::from_utf8(wire).unwrap().replace("\r\n", "\n").into_bytes();
        assert_agrees_however_delivered(&lf_only, 64);
    }
    // Never terminated: refused at the cap, not buffered without bound.
    let endless = format!("GET / HTTP/1.1\r\nX-Pad: {}", "p".repeat(2 * MAX_HEADER_BYTES));
    assert_agrees_however_delivered(endless.as_bytes(), 64);
    let endless_line = "G".repeat(2 * MAX_HEADER_BYTES);
    assert_agrees_however_delivered(endless_line.as_bytes(), 64);
    // Ends, unterminated, exactly at and around the cap.
    for len in [MAX_HEADER_BYTES - 1, MAX_HEADER_BYTES, MAX_HEADER_BYTES + 1] {
        let cut_short = format!("GET / HTTP/1.1\r\nX-Pad: {}", "p".repeat(len));
        assert_agrees_however_delivered(&cut_short.as_bytes()[..len], 64);
    }
}

/// The corners the generator may visit rarely, named — each split at
/// every byte.
#[test]
fn named_corners() {
    let corners: [&[u8]; 14] = [
        b"",
        b"\r\n",
        b"\n",
        b"GET / HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\n\n",
        b"GET / HTTP/1.1\r\n",
        b"GET / HTTP/1.1\r\nHost: x",
        b"GET / HTTP/1.1\r\nHost: x\r\n\r",
        b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET / HTTP/1.1\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel",
        b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"GET /caf\xc3\xa9 HTTP/1.1\r\nX: \xc3\r\n\r\n",
    ];
    for wire in corners {
        for cut in 0..=wire.len() {
            assert_agrees(wire, 64, 8192, cut, usize::MAX);
            assert_agrees(wire, 64, 4, cut, 2);
        }
    }
}

/// One `BufRead` serves request after request: what a request leaves
/// behind is the next one's, to the last byte.
#[test]
fn pipelined_requests_are_read_one_after_another() {
    let wire = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b?x=1 HTTP/1.1\n\nPOST /c HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    for capacity in [1, 16, 8192] {
        let mut stream = BufReader::with_capacity(capacity, &wire[..]);
        let paths: Vec<String> = std::iter::from_fn(|| http::read_request(&mut stream, 64).ok())
            .map(|request| format!("{} {}", request.method(), request.path()))
            .collect();
        assert_eq!(paths, ["POST /a", "GET /b", "POST /c"]);
        assert!(stream.fill_buf().expect("in-memory").is_empty());
    }
}
