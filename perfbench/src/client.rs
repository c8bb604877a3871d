//! A minimal HTTP/1.1 keep-alive client, kept apart from the service's
//! own client so the benchmark's framing checks are independent of it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The exact bytes [`Conn::request`] writes.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first body byte (the first chunk, if chunked) arrived.
    pub first_body: Instant,
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(&request_bytes(method, path, body))?;
        self.receive()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Consume one `\r\n`-terminated line from the buffer.
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
                self.buf.drain(..pos + 2);
                return Ok(line);
            }
            self.fill()?;
        }
    }

    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    fn receive(&mut self) -> io::Result<Reply> {
        let status_line = self.line()?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let header = self.line()?;
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((&header, ""));
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            }
        }
        if !chunked {
            let body = self.take(length.unwrap_or(0))?;
            return Ok(Reply {
                status,
                body,
                first_body: Instant::now(),
            });
        }
        let mut body = Vec::new();
        let mut first_body = None;
        loop {
            let size_line = self.line()?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                while !self.line()?.is_empty() {}
                break;
            }
            let payload = self.take(size)?;
            first_body.get_or_insert_with(Instant::now);
            body.extend_from_slice(&payload);
            if !self.line()?.is_empty() {
                return Err(bad("chunk not followed by CRLF"));
            }
        }
        Ok(Reply {
            status,
            body,
            first_body: first_body.unwrap_or_else(Instant::now),
        })
    }
}
