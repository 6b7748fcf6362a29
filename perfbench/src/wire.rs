//! A polling HTTP/1.1 client for the single-state latency phase.
//!
//! `MiniClient` blocks on its socket until the answer arrives, so every
//! request waits for two thread wake-ups, the server's and then the
//! client's.  On a shared host an idle core wakes late by a varying amount.
//! This client polls its non-blocking socket instead and sends each request
//! in one write, so a round trip waits for the server's wake-up alone.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vrl_runtime::frame;

/// Longest a [`PollClient`] waits for its socket before giving up.
const PATIENCE: Duration = Duration::from_secs(10);

/// One keep-alive connection.
pub struct PollClient {
    stream: TcpStream,
    /// Bytes read and not yet part of a whole response.
    buf: Vec<u8>,
    /// Request bytes being assembled.
    head: Vec<u8>,
}

/// Retries `f` while the non-blocking socket would block, for at most
/// [`PATIENCE`].
fn spin<T>(mut f: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let start = Instant::now();
    loop {
        match f() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if start.elapsed() > PATIENCE {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                std::hint::spin_loop()
            }
            other => return other,
        }
    }
}

/// Index just past the `\r\n\r\n` that ends a response head, if buffered.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// The status code, `content-length`, and whether the body is a binary
/// frame, of a response head.
pub fn parse_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let headers: Vec<(&str, &str)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
        .collect();
    let header = |wanted: &str| {
        headers
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(wanted))
            .map(|(_, value)| *value)
    };
    let length = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("no content-length"))?;
    let binary =
        header("content-type").is_some_and(|v| v.eq_ignore_ascii_case(frame::CONTENT_TYPE_FRAME));
    Ok((status, length, binary))
}

impl PollClient {
    /// Connects to `addr` with Nagle off and the socket non-blocking.
    pub fn connect(addr: SocketAddr) -> io::Result<PollClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(PollClient {
            stream,
            buf: Vec::with_capacity(1 << 16),
            head: Vec::with_capacity(256),
        })
    }

    /// `POST`s `body` to `path` in a single write and reads the answer;
    /// returns its status and whether it is a binary frame, and puts its
    /// body into `out`.
    pub fn post(
        &mut self,
        path: &str,
        content_type: &str,
        body: &[u8],
        out: &mut Vec<u8>,
    ) -> io::Result<(u16, bool)> {
        use std::fmt::Write as _;
        let mut head = String::new();
        let _ = write!(
            head,
            "POST {path} HTTP/1.1\r\nhost: vrl\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.head.clear();
        self.head.extend_from_slice(head.as_bytes());
        self.head.extend_from_slice(body);
        let mut sent = 0;
        while sent < self.head.len() {
            let (stream, bytes) = (&mut self.stream, &self.head[sent..]);
            let n = spin(|| stream.write(bytes))?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            sent += n;
        }
        loop {
            if let Some(end) = head_end(&self.buf) {
                let (status, length, binary) = parse_head(&self.buf[..end])?;
                if self.buf.len() >= end + length {
                    out.clear();
                    out.extend_from_slice(&self.buf[end..end + length]);
                    self.buf.drain(..end + length);
                    return Ok((status, binary));
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            let stream = &mut self.stream;
            let n = spin(|| stream.read(&mut chunk))?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_heads_parse() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: x\r\nContent-Length: 42\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (200, 42, false));
        let head =
            b"HTTP/1.1 422 X\r\ncontent-length: 0\r\ncontent-type: application/x-vrl-frame\r\n\r\n";
        assert_eq!(parse_head(head).unwrap(), (422, 0, true));
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n"), None);
        assert!(parse_head(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
