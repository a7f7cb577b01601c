//! The benchmark's own load client: a raw `TcpStream`, request bytes
//! rendered by the caller, one reusable read buffer. It is deliberately
//! not `graphex_server::HttpClient` — that is also the router's backend
//! client, so a change to the program would change the instrument.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No exchange in any workload should take this long; a stuck server
/// fails the op instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first (server-requested closes and
    /// I/O errors both land here).
    pub reconnects: u64,
}

pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

fn bad(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut conn = Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            reconnects: 0,
        };
        conn.open()?;
        Ok(conn)
    }

    fn open(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one pre-rendered request and reads one response. The server
    /// closes a keep-alive connection every 1024 requests
    /// (`Connection: close`); the next call reconnects. An I/O error
    /// drops the connection and is the caller's one failed op.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply<'_>> {
        if self.stream.is_none() {
            self.open()?;
            self.reconnects += 1;
        }
        match self.exchange(request) {
            Ok((status, body_start, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(Reply {
                    status,
                    body: &self.buf[body_start..],
                })
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, usize, bool)> {
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let scan_from = self.buf.len().saturating_sub(3);
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(at) = find(&self.buf[scan_from..], b"\r\n\r\n") {
                break scan_from + at + 4;
            }
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .get(9..12)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
        let total = head_end + length.ok_or_else(|| bad("no content-length"))?;
        while self.buf.len() < total {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.buf.truncate(total);
        Ok((status, head_end, close))
    }
}

/// Renders `POST <path>` with a JSON body into `out` (cleared first).
pub fn render_post(path: &str, body: &[u8], out: &mut Vec<u8>) {
    out.clear();
    write!(
        out,
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write to Vec");
    out.extend_from_slice(body);
}

pub fn render_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}
