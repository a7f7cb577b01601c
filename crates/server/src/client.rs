//! Minimal blocking HTTP/1.1 client for loopback tooling: `graphex
//! report`, the overhead bench, `graphex stats --server`, and the suite's
//! integration tests — and the router's backend connections, which use the
//! crate-private split `send` / `recv` pair to have a request in flight on
//! several connections at once. Keep-alive by default; one
//! in-flight request per connection (no pipelining).
//! An answer is read by the edge's own head reader, [`http::read_response`].

pub use crate::http::Response;
use crate::http::{self, ReadError};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
        self.send("GET", path, None, &[])?;
        self.recv()
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.post_json_with_headers(path, body, &[])
    }

    /// [`post_json`](Self::post_json) with extra request headers — how
    /// the router forwards `x-graphex-trace` to its backends.
    pub fn post_json_with_headers(
        &mut self,
        path: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<Response> {
        self.send("POST", path, Some(body.as_bytes()), headers)?;
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
        http::read_response(&mut self.reader, self.max_response_bytes).map_err(io_error)
    }

    /// Replaces the read timeout set at connect (the router's per-round
    /// deadline: what is left of it when this connection's turn comes).
    pub(crate) fn set_read_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.writer.set_read_timeout(Some(timeout))
    }
}

/// A refused answer as an `io::Error`: a socket error keeps its kind, a
/// connection closed before any byte is `UnexpectedEof`, and a head or
/// body the reader refuses is `InvalidData`.
fn io_error(e: ReadError) -> std::io::Error {
    use std::io::{Error, ErrorKind};
    match e {
        ReadError::Io(e) => e,
        ReadError::Closed => {
            Error::new(ErrorKind::UnexpectedEof, "server closed before responding")
        }
        e => Error::new(ErrorKind::InvalidData, format!("response {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_response(stream: &mut impl std::io::BufRead, max: usize) -> std::io::Result<Response> {
        http::read_response(stream, max).map_err(io_error)
    }

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
