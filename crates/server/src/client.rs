//! Minimal blocking HTTP/1.1 client for loopback tooling: `graphex
//! report`, the overhead bench, `graphex stats --server`, and the suite's
//! integration tests — and the router's backend connections, which use the
//! crate-private split `send` / `recv` pair to have a request in flight on
//! several connections at once. Keep-alive by default; one
//! in-flight request per connection (no pipelining).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Default cap on a response body's declared `Content-Length`. Generous
/// for loopback tooling (a `/metrics` scrape is kilobytes); the router
/// sets a tighter cap per backend connection.
pub const DEFAULT_MAX_RESPONSE_BYTES: usize = 64 << 20;

/// One persistent connection to a server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
    max_response_bytes: usize,
    /// The outgoing request, head and body, assembled here so it leaves
    /// in one write; kept between requests for its capacity.
    out: Vec<u8>,
}

impl HttpClient {
    /// Connects with a timeout on connect, read, and write.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> std::io::Result<Self> {
        Self::connect_with_timeouts(addr, Duration::from_secs(5), Duration::from_secs(10))
    }

    /// [`connect`](Self::connect) with explicit connect and read/write
    /// timeouts (the router's backend deadline).
    pub fn connect_with_timeouts(
        addr: impl ToSocketAddrs + std::fmt::Display,
        connect_timeout: Duration,
        rw_timeout: Duration,
    ) -> std::io::Result<Self> {
        let host = addr.to_string();
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let stream = TcpStream::connect_timeout(&resolved, connect_timeout)?;
        stream.set_read_timeout(Some(rw_timeout))?;
        stream.set_write_timeout(Some(rw_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            host,
            max_response_bytes: DEFAULT_MAX_RESPONSE_BYTES,
            out: Vec::new(),
        })
    }

    /// Caps the declared `Content-Length` this client will buffer for a
    /// response; a larger declaration errors instead of allocating. The
    /// cap protects against a misbehaving or hijacked server — the body
    /// allocation happens *before* any byte of it is read.
    pub fn set_max_response_bytes(&mut self, cap: usize) {
        self.max_response_bytes = cap.max(1);
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None, &[])
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, Some(body.as_bytes()), &[])
    }

    /// [`post_json`](Self::post_json) with extra request headers — how
    /// the router forwards `x-graphex-trace` to its backends.
    pub fn post_json_with_headers(
        &mut self,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<Response> {
        self.request("POST", path, Some(body.as_bytes()), headers)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<Response> {
        self.send(method, path, body, headers)?;
        self.recv()
    }

    /// Writes one request — head and body in a single write — without
    /// waiting for the answer. One in-flight request per connection still
    /// holds: the caller owes exactly one [`recv`](Self::recv) before the
    /// next `send`.
    pub(crate) fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\n",
            self.host
        )?;
        for (name, value) in headers {
            write!(self.out, "{name}: {value}\r\n")?;
        }
        if let Some(body) = body {
            write!(
                self.out,
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            )?;
        }
        self.out.extend_from_slice(b"\r\n");
        self.out.extend_from_slice(body.unwrap_or_default());
        self.writer.write_all(&self.out)
    }

    /// Reads the answer to the request [`send`](Self::send) wrote.
    pub(crate) fn recv(&mut self) -> std::io::Result<Response> {
        read_response(&mut self.reader, self.max_response_bytes)
    }

    /// Replaces the read timeout set at connect (the router's per-round
    /// deadline: what is left of it when this connection's turn comes).
    pub(crate) fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))
    }
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

fn read_response<S: BufRead>(stream: &mut S, max_body: usize) -> std::io::Result<Response> {
    let mut status_line = String::new();
    if stream.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed before responding",
        ));
    }
    let mut parts = status_line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("not an HTTP/1.x response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status code"))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if stream.read_line(&mut line)? == 0 {
            return Err(bad("truncated headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }

    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| bad("response without content-length"))?;
    if content_length > max_body {
        // Refuse before allocating: an untrusted Content-Length must not
        // size a buffer.
        return Err(bad("response body exceeds cap"));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_wire_format() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain\r\nRetry-After: 1\r\nContent-Length: 5\r\n\r\nshed\n";
        let response = read_response(&mut BufReader::new(raw.as_bytes()), 1024).unwrap();
        assert_eq!(response.status, 429);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.text(), "shed\n");
    }

    #[test]
    fn rejects_garbage() {
        let parse = |raw: &[u8]| read_response(&mut BufReader::new(raw), 1024);
        assert!(parse(b"SPDY/9 lol\r\n\r\n").is_err());
        assert!(parse(b"").is_err());
        assert!(
            parse(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
            "missing content-length"
        );
    }

    #[test]
    fn oversized_declared_body_errors_before_allocating() {
        // A hostile Content-Length must not size a buffer: usize::MAX
        // here would abort the process if the allocation were attempted.
        let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        let err = read_response(&mut BufReader::new(raw.as_bytes()), 1024).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // At the cap is fine, one past it is not.
        let ok = "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody";
        assert!(read_response(&mut BufReader::new(ok.as_bytes()), 4).is_ok());
        assert!(read_response(&mut BufReader::new(ok.as_bytes()), 3).is_err());
    }
}
