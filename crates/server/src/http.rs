//! HTTP/1.1 wire format over blocking sockets: one reader for requests
//! (the edge) and responses (the client, so the router's backend calls)
//! that differ only in a head's first line, and response writing. Both
//! directions share the hard limits (header bytes and count, body size),
//! and a message two parsers could frame differently is refused, not
//! guessed at. Every malformed input maps to a typed error — the edge
//! turns those into 4xx responses; nothing here panics.

use std::io::{BufRead, Write};
use std::ops::Range;

/// Hard cap on start-line + header bytes (a hostile peer can't make the
/// reader buffer unboundedly before the body limit even applies).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Hard cap on header count.
pub const MAX_HEADERS: usize = 64;
/// The most capacity a buffer reused between requests keeps: one that
/// grew for a multi-megabyte body drops back instead of pinning it.
pub(crate) const RETAINED_BUFFER_BYTES: usize = 64 * 1024;

/// A message head as received — each line sans line end, appended to one
/// string — and its header fields as spans of it, so a head that is read
/// into again reuses everything it holds.
#[derive(Debug, Default)]
struct Head {
    text: String,
    headers: Vec<(Range<usize>, Range<usize>)>,
}

impl Head {
    /// Copies `text` onto the head and returns where it lies.
    fn keep(&mut self, text: &str) -> Range<usize> {
        let start = self.text.len();
        self.text.push_str(text);
        start..self.text.len()
    }

    fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers
            .iter()
            .map(|(name, value)| (&self.text[name.clone()], &self.text[value.clone()]))
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    fn header_line(&mut self, line: &str) -> Result<(), ReadError> {
        if self.headers.len() >= MAX_HEADERS {
            return Err(ReadError::Bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Bad("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Bad("malformed header name"));
        }
        let header = (self.keep(name), self.keep(value.trim()));
        self.headers.push(header);
        Ok(())
    }

    /// The body length the headers declare, if any. Every
    /// `Content-Length` must be ASCII digits only (`usize::from_str` alone
    /// would take `+5`), and all of them must agree.
    fn declared_length(&self) -> Result<Option<usize>, ReadError> {
        let mut declared = None;
        for (_, value) in self
            .headers()
            .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ReadError::Bad("bad content-length"));
            }
            let length = value
                .parse::<usize>()
                .map_err(|_| ReadError::Bad("bad content-length"))?;
            if declared.is_some_and(|first| first != length) {
                return Err(ReadError::Bad("conflicting content-length headers"));
            }
            declared = Some(length);
        }
        Ok(declared)
    }
}

/// Where a request line's parts lie in its [`Head`].
#[derive(Debug, Default)]
struct RequestLine {
    method: Range<usize>,
    path: Range<usize>,
    query: Option<Range<usize>>,
}

fn request_line(line: &str, head: &mut Head) -> Result<RequestLine, ReadError> {
    if line.is_empty() {
        return Err(ReadError::Bad("empty request line"));
    }
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts
        .next()
        .ok_or(ReadError::Bad("missing request target"))?;
    let version = parts.next().ok_or(ReadError::Bad("missing HTTP version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad("malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ReadError::Bad("malformed method"));
    }
    if !target.starts_with('/') {
        return Err(ReadError::Bad("request target must be absolute path"));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    };
    Ok(RequestLine {
        method: head.keep(method),
        path: head.keep(path),
        query: query.map(|query| head.keep(query)),
    })
}

/// `HTTP/1.x <3 digits>[ <reason>]`: the code is all that is kept.
fn status_line(line: &str, _: &mut Head) -> Result<u16, ReadError> {
    let (version, rest) = line.split_once(' ').unwrap_or((line, ""));
    let code = rest.split_once(' ').map_or(rest, |(code, _)| code);
    // Three digits: `u16::from_str` alone would take `+20`.
    let digits = code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit());
    match code.parse() {
        Ok(status) if digits && version.starts_with("HTTP/1.") => Ok(status),
        _ => Err(ReadError::Bad("malformed status line")),
    }
}

/// One parsed request. The head is kept as one string and the fields are
/// spans of it, so a `Request` that is read into again (the edge keeps
/// one per worker) reuses everything it holds.
#[derive(Debug, Default)]
pub struct Request {
    head: Head,
    line: RequestLine,
    body: Vec<u8>,
}

impl Request {
    pub fn method(&self) -> &str {
        &self.head.text[self.line.method.clone()]
    }

    /// Path only (query strings are split off into [`Request::query`]).
    pub fn path(&self) -> &str {
        &self.head.text[self.line.path.clone()]
    }

    /// Raw query string (without `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.line.query.clone().map(|span| &self.head.text[span])
    }

    /// `(name, value)` of every header, in order; values are trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.head.headers()
    }

    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.header(name)
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Whether the client asked to keep the connection open after this
    /// request (HTTP/1.1 default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// One parsed response: the status code, the head as one string with the
/// headers as spans of it, and the body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    head: Head,
}

impl Response {
    /// `(name, value)` of every header, in order; values are trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.head.headers()
    }

    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.header(name)
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why a message could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before sending a message
    /// (normal end of a keep-alive session).
    Closed,
    /// Socket error (including read timeouts on idle keep-alive
    /// connections).
    Io(std::io::Error),
    /// Syntactically invalid or ambiguously framed head → 400.
    Bad(&'static str),
    /// Declared body larger than the configured cap → 413.
    BodyTooLarge { declared: usize, max: usize },
    /// `Transfer-Encoding` other than identity → 501.
    UnsupportedTransferEncoding,
}

/// The refusal's wording, whichever way the message travelled: the body
/// of the edge's 4xx, and the client's `InvalidData` error.
impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Closed => write!(f, "connection closed"),
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Bad(what) => write!(f, "malformed head: {what}"),
            Self::BodyTooLarge { declared, max } => {
                write!(f, "body of {declared} bytes exceeds cap of {max}")
            }
            Self::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding not supported; send content-length")
            }
        }
    }
}

/// Reads one request from a buffered stream. `max_body` caps the declared
/// `Content-Length`.
pub fn read_request<S: BufRead>(stream: &mut S, max_body: usize) -> Result<Request, ReadError> {
    let mut request = Request::default();
    read_request_into(stream, max_body, &mut request).map(|()| request)
}

/// [`read_request`] into a `Request` the caller keeps: a connection's
/// requests are all read into the same one, which after the first holds
/// every buffer it needs.
pub(crate) fn read_request_into<S: BufRead>(
    stream: &mut S,
    max_body: usize,
    request: &mut Request,
) -> Result<(), ReadError> {
    let Request { head, line, body } = request;
    *line = read_message(stream, max_body, head, body, request_line)?;
    Ok(())
}

/// Reads one response from a buffered stream. `max_body` caps the
/// declared `Content-Length`, which a response must carry.
pub fn read_response<S: BufRead>(stream: &mut S, max_body: usize) -> Result<Response, ReadError> {
    let (mut head, mut body) = (Head::default(), Vec::new());
    let status = read_message(stream, max_body, &mut head, &mut body, status_line)?;
    head.header("content-length")
        .ok_or(ReadError::Bad("no content-length"))?;
    Ok(Response { status, body, head })
}

/// The one reader: a head whose first line `start_line` parses, then its
/// body, into `head` and `body` (what they held is overwritten).
///
/// The head is parsed where the stream buffered it, a line at a time as
/// lines complete — so a malformed line is refused when it arrives, not
/// when the head ends — and nothing but the head is taken off the stream
/// before the body: bytes of a pipelined message stay where they are.
fn read_message<S: BufRead, L>(
    stream: &mut S,
    max_body: usize,
    head: &mut Head,
    body: &mut Vec<u8>,
    start_line: fn(&str, &mut Head) -> Result<L, ReadError>,
) -> Result<L, ReadError> {
    head.text.clear();
    head.headers.clear();
    body.clear();
    body.shrink_to(RETAINED_BUFFER_BYTES);

    // Head bytes the cap still allows, and the start of a line that a
    // read cut short (empty unless the head arrives in pieces).
    let mut allowed = MAX_HEADER_BYTES;
    let mut partial: Vec<u8> = Vec::new();
    let mut first = None;
    let start = 'head: loop {
        let chunk = match stream.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        };
        if chunk.is_empty() {
            return Err(if allowed == MAX_HEADER_BYTES {
                ReadError::Closed
            } else {
                ReadError::Bad("unexpected end of headers")
            });
        }
        let mut used = 0;
        loop {
            let rest = &chunk[used..];
            let window = &rest[..rest.len().min(allowed)];
            let Some(end) = window.iter().position(|&b| b == b'\n') else {
                if window.len() < rest.len() {
                    return Err(ReadError::Bad("headers too large"));
                }
                partial.extend_from_slice(window);
                allowed -= window.len();
                let taken = chunk.len();
                stream.consume(taken);
                continue 'head;
            };
            used += end + 1;
            allowed -= end + 1;
            let line = if partial.is_empty() {
                &window[..end]
            } else {
                partial.extend_from_slice(&window[..end]);
                &partial[..]
            };
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let line =
                std::str::from_utf8(line).map_err(|_| ReadError::Bad("non-UTF-8 header bytes"))?;
            match first {
                None => first = Some(start_line(line, head)?),
                Some(start) if line.is_empty() => {
                    stream.consume(used);
                    break 'head start;
                }
                Some(_) => head.header_line(line)?,
            }
            partial.clear();
        }
    };

    if let Some(te) = head.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(ReadError::UnsupportedTransferEncoding);
        }
    }
    let content_length = head.declared_length()?.unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge {
            declared: content_length,
            max: max_body,
        });
    }
    body.resize(content_length, 0);
    stream.read_exact(body).map_err(ReadError::Io)?;
    Ok(start)
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one response. `extra_headers` are written verbatim (e.g.
/// `("Retry-After", "1")`). When `keep_alive` is false a
/// `Connection: close` header is sent, telling the client not to reuse
/// the connection. Head and body leave in one `write` (when the stream
/// takes them in one): on a socket with `TCP_NODELAY` a second write is a
/// second segment, and a second wake-up for the peer.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let wire = &mut Vec::new();
    write_response_via(
        wire,
        stream,
        status,
        content_type,
        body,
        keep_alive,
        extra_headers,
    )
}

/// [`write_response`], assembled in `wire`: a buffer the caller keeps
/// between responses for its capacity (what it held is overwritten).
#[allow(clippy::too_many_arguments)]
pub(crate) fn write_response_via<W: Write, V: AsRef<str>>(
    wire: &mut Vec<u8>,
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, V)],
) -> std::io::Result<()> {
    wire.clear();
    wire.reserve(128 + body.len());
    write!(
        wire,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(wire, "{name}: {}\r\n", value.as_ref())?;
    }
    if !keep_alive {
        wire.extend_from_slice(b"Connection: close\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    let written = stream.write_all(wire).and_then(|()| stream.flush());
    wire.clear();
    wire.shrink_to(RETAINED_BUFFER_BYTES);
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_get_and_post() {
        let get = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(
            (get.method(), get.path(), get.query()),
            ("GET", "/healthz", None)
        );
        assert!(get.body().is_empty());
        assert!(get.keep_alive());

        let post = parse(
            "POST /v1/infer?debug=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(post.path(), "/v1/infer");
        assert_eq!(post.query(), Some("debug=1"));
        assert_eq!(post.body(), b"abcd");
        assert!(!post.keep_alive());
        assert_eq!(post.header("CONTENT-length"), Some("4"));
        let headers: Vec<_> = post.headers().collect();
        assert_eq!(headers, [("Content-Length", "4"), ("Connection", "close")]);
    }

    /// A `Request` read into again holds the new request only, and a
    /// pipelined request behind a body stays in the stream.
    #[test]
    fn a_reused_request_is_overwritten_and_pipelined_bytes_stay() {
        let wire = "POST /a?q=1 HTTP/1.1\nX-One: 1\nContent-Length: 2\n\nhiGET /b HTTP/1.1\r\n\r\n";
        let mut stream = BufReader::new(wire.as_bytes());
        let mut request = Request::default();
        read_request_into(&mut stream, 1024, &mut request).unwrap();
        assert_eq!(
            (request.method(), request.path(), request.query()),
            ("POST", "/a", Some("q=1"))
        );
        assert_eq!(
            (request.header("x-one"), request.body()),
            (Some("1"), b"hi".as_slice())
        );
        read_request_into(&mut stream, 1024, &mut request).unwrap();
        assert_eq!(
            (request.method(), request.path(), request.query()),
            ("GET", "/b", None)
        );
        assert_eq!(
            (request.headers().count(), request.body()),
            (0, b"".as_slice())
        );
        assert!(matches!(
            read_request_into(&mut stream, 1024, &mut request),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
        assert!(matches!(parse("GARBAGE\r\n\r\n"), Err(ReadError::Bad(_))));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ReadError::Bad(_))
        ));
        // Digits only, and every Content-Length agreeing.
        for bad in [
            "+5",
            "-0",
            "5 5",
            "0x5",
            "",
            "5,5",
            "99999999999999999999999",
        ] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            assert!(
                matches!(parse(&raw), Err(ReadError::Bad(_))),
                "accepted {bad:?}"
            );
        }
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 4\r\n\r\nhello"),
            Err(ReadError::Bad(_))
        ));
        let agreeing =
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 05\r\n\r\nhello");
        assert_eq!(agreeing.unwrap().body(), b"hello");
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            Err(ReadError::BodyTooLarge {
                declared: 9999,
                max: 1024
            })
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::UnsupportedTransferEncoding)
        ));
    }

    #[test]
    fn header_limits_are_enforced() {
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(parse(&many), Err(ReadError::Bad(_))));

        let huge = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "a".repeat(MAX_HEADER_BYTES)
        );
        assert!(matches!(parse(&huge), Err(ReadError::Bad(_))));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            429,
            "text/plain",
            b"shed",
            false,
            &[("Retry-After", "1")],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nshed"));
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true, &[]).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        );
    }

    /// The assembly buffer is reusable and does not keep a large body's
    /// capacity.
    #[test]
    fn the_wire_buffer_drops_back_after_a_large_body() {
        let (mut wire, mut out) = (Vec::new(), Vec::new());
        let none: &[(&str, &str)] = &[];
        let big = vec![b'x'; 4 * RETAINED_BUFFER_BYTES];
        write_response_via(&mut wire, &mut out, 200, "text/plain", &big, true, none).unwrap();
        assert!(out.ends_with(&big));
        assert!(
            wire.capacity() <= RETAINED_BUFFER_BYTES,
            "kept {}",
            wire.capacity()
        );
        out.clear();
        write_response_via(&mut wire, &mut out, 200, "text/plain", b"ok", true, none).unwrap();
        assert!(out.ends_with(b"\r\n\r\nok"));
    }
}
