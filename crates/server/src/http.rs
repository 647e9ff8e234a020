//! A minimal, bounded HTTP/1.1 codec over `std::io` streams.
//!
//! The build environment is offline, so there is no hyper/axum; the
//! server needs only the subset of HTTP/1.1 that `curl` and the bench
//! client speak: request line + headers + optional `Content-Length`
//! body, keep-alive by default, `Connection: close` honored. Everything
//! read off the socket is bounded — request-line length, header count
//! and size, body size — so a hostile peer cannot make the server
//! allocate without limit.

use std::io::{self, BufRead, Write};

/// Read-side bounds. Exceeding any of them is a typed [`ReadError`], and
/// the connection is closed after the error response.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes in the request line or any single header line.
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits {
            max_line: 8 * 1024,
            max_headers: 64,
            max_body: 256 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path as sent, query string included.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection at a request boundary — not an
    /// error, the keep-alive loop just ends.
    Closed,
    /// Malformed request line, header, or unsupported HTTP version.
    BadSyntax(String),
    /// A line exceeded [`HttpLimits::max_line`].
    LineTooLong,
    /// More than [`HttpLimits::max_headers`] headers.
    TooManyHeaders,
    /// `Content-Length` exceeded [`HttpLimits::max_body`].
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::BadSyntax(msg) => write!(f, "bad request: {msg}"),
            ReadError::LineTooLong => write!(f, "request line or header too long"),
            ReadError::TooManyHeaders => write!(f, "too many headers"),
            ReadError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds limit {limit}")
            }
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Read one `\r\n`- (or `\n`-) terminated line, bounded by `max_line`.
/// Returns `None` on clean EOF before any byte.
fn read_line(r: &mut impl BufRead, max_line: usize) -> Result<Option<String>, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ReadError::BadSyntax("unexpected end of stream".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| ReadError::BadSyntax("non-UTF-8 header bytes".into()));
                }
                if line.len() >= max_line {
                    return Err(ReadError::LineTooLong);
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A read timeout (the socket's SO_RCVTIMEO firing on a
            // silent peer) ends the keep-alive loop like a clean close:
            // no error response, just drop the connection.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ReadError::Closed)
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// Read one request. `Ok(None)` never occurs — a clean EOF is
/// [`ReadError::Closed`] so the keep-alive loop can distinguish it from
/// a malformed exchange.
pub fn read_request(r: &mut impl BufRead, limits: &HttpLimits) -> Result<Request, ReadError> {
    let Some(start) = read_line(r, limits.max_line)? else {
        return Err(ReadError::Closed);
    };
    let mut parts = start.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(ReadError::BadSyntax(format!(
                "malformed request line {start:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::BadSyntax(format!(
            "unsupported version {version}"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(r, limits.max_line)? else {
            return Err(ReadError::BadSyntax("eof inside headers".into()));
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(ReadError::TooManyHeaders);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::BadSyntax(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::BadSyntax(format!("bad content-length {v:?}")))
        })
        .transpose()?;
    if let Some(n) = content_length {
        if n > limits.max_body {
            return Err(ReadError::BodyTooLarge {
                declared: n,
                limit: limits.max_body,
            });
        }
        body.resize(n, 0);
        r.read_exact(&mut body).map_err(ReadError::Io)?;
    }
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// A response to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Send `Connection: close` and end the keep-alive loop.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            close: false,
        }
    }

    /// A Prometheus text-exposition response (`GET /metrics`).
    pub fn prometheus(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            body: body.into(),
            content_type: "text/plain; version=0.0.4",
            close: false,
        }
    }
}

/// Reason phrase for the handful of codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize `resp` onto the stream in one `write_all`: the status line
/// and headers are formatted into a buffer ahead of the body, so a
/// response costs one `send` on a socket instead of one per format piece.
/// Every response takes this path, the error and overload closes too.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut out = Vec::with_capacity(128 + resp.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if resp.close { "close" } else { "keep-alive" },
    )?;
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(text.as_bytes()), &HttpLimits::default())
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nX-Agcm-Tenant: alice\r\nContent-Length: 4\r\n\r\n{\"a\"",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.header("x-agcm-tenant"), Some("alice"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_closed_not_error_text() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
    }

    #[test]
    fn oversized_declared_body_is_typed() {
        let text = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            usize::MAX / 2
        );
        assert!(matches!(parse(&text), Err(ReadError::BodyTooLarge { .. })));
    }

    #[test]
    fn header_flood_is_bounded() {
        let mut text = "GET / HTTP/1.1\r\n".to_string();
        for i in 0..100 {
            text.push_str(&format!("X-H{i}: v\r\n"));
        }
        text.push_str("\r\n");
        assert!(matches!(parse(&text), Err(ReadError::TooManyHeaders)));
    }

    #[test]
    fn long_line_is_bounded() {
        let text = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100_000));
        assert!(matches!(parse(&text), Err(ReadError::LineTooLong)));
    }

    #[test]
    fn bad_version_and_garbage_are_syntax_errors() {
        for bad in [
            "GET / HTTP/2\r\n\r\n",
            "GET\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(ReadError::BadSyntax(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(429, "{\"error\":\"quota\"}")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 17\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"error\":\"quota\"}"));
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_is_one_write() {
        let mut overloaded = Response::json(503, "{\"error\":\"overloaded\"}");
        overloaded.close = true;
        for (resp, head) in [
            (
                Response::json(200, "{\"ok\":true}"),
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 11\r\nConnection: keep-alive\r\n\r\n",
            ),
            (
                Response::json(409, "{}"),
                "HTTP/1.1 409 Conflict\r\nContent-Type: application/json\r\n\
                 Content-Length: 2\r\nConnection: keep-alive\r\n\r\n",
            ),
            (
                overloaded,
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 22\r\nConnection: close\r\n\r\n",
            ),
        ] {
            let mut sink = CountingWriter::default();
            write_response(&mut sink, &resp).unwrap();
            assert_eq!(sink.writes, 1, "status {}", resp.status);
            let mut expected = head.as_bytes().to_vec();
            expected.extend_from_slice(&resp.body);
            assert_eq!(sink.bytes, expected, "status {}", resp.status);
        }
    }
}
