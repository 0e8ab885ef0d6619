//! A minimal HTTP/1.1 shim over `std::net`, consistent with the
//! workspace's no-external-deps rule.
//!
//! Implements exactly the slice of the protocol the sweep server and
//! its clients use: one request per connection (`Connection: close`
//! semantics), `Content-Length`-framed bodies, and JSON payloads. No
//! chunked encoding, no keep-alive, no TLS — a sweep submission is a
//! single short exchange, so the simplest correct framing wins.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on an accepted request body, in bytes. A sweep template
/// is a few KiB; anything near this limit is a client bug or abuse,
/// and bounding it keeps a misbehaving client from ballooning server
/// memory before admission control even sees the job.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without the query string (`/jobs/7`).
    pub path: String,
    /// Decoded query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when none was sent).
    pub body: String,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// A human-readable message for malformed request lines, missing or
/// unparsable `Content-Length`, over-limit bodies, and I/O failures.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line missing a target")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length '{}'", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Writes one `Connection: close` response with an explicit content
/// type: `application/json` for the job API, `text/plain;
/// version=0.0.4` for the Prometheus `/metrics` endpoint.
pub fn write_response_typed(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A blocking one-shot HTTP client: sends `method path` with an
/// optional JSON body and returns `(status, body)`.
///
/// # Errors
///
/// A human-readable message for connect/read/write failures or a
/// malformed status line.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send request: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{}'", status_line.trim()))?;
    let mut content_length = None;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            body = String::from_utf8(buf).map_err(|_| "response is not UTF-8".to_string())?;
        }
        None => {
            reader
                .read_to_string(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_round_trips_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.query_value("client"), Some("alice"));
            assert_eq!(req.body, "{\"x\":1}");
            write_response_typed(&mut stream, 202, "application/json", "{\"ok\":true}").unwrap();
        });
        let (status, body) =
            request(&addr, "POST", "/jobs?client=alice", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream).unwrap_err().contains("limit"));
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!("POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 1 << 30).as_bytes(),
            )
            .unwrap();
        server.join().unwrap();
    }
}
