//! A minimal HTTP/1.1 request parser on `std` only.
//!
//! The service speaks exactly the HTTP subset its API needs (`docs/API.md`):
//! `GET`/`POST`, `Content-Length` bodies, one request per connection
//! (`Connection: close` on every response). The parser is defensive — every
//! malformed, oversized or truncated input maps to a named [`HttpError`]
//! carrying its HTTP status code, and nothing panics (pinned by the
//! property tests in `tests/http_props.rs`, which feed it arbitrary bytes).

use std::io::{BufRead, Read};

/// Parser limits. Every bound is enforced with a named error rather than
/// unbounded buffering, so a misbehaving client cannot balloon the server.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line (method + target + version), bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, bytes.
    pub max_header_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_request_line: 8 * 1024,
            max_header_bytes: 8 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// The request methods the API uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// A parsed request: method, split target, lowercased headers, raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The path component of the target (before any `?`), as sent — no
    /// percent-decoding is performed (API paths and job ids never need it).
    pub path: String,
    /// Query parameters, split on `&` and `=` in order of appearance
    /// (values are not percent-decoded).
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are ASCII-lowercased, values
    /// trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless a `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (lowercase lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// First value of the named query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Everything that can go wrong reading one request. Each variant maps to
/// an HTTP status via [`HttpError::status`]; the `Display` text is the
/// response body the server sends back.
#[derive(Debug)]
pub enum HttpError {
    /// The connection closed before any request byte arrived (a normal
    /// client hang-up, not an error worth a response).
    ConnectionClosed,
    /// An I/O error while reading the request.
    Io(std::io::Error),
    /// The request line was not `METHOD TARGET HTTP/1.x`.
    MalformedRequestLine(String),
    /// The request line exceeded [`Limits::max_request_line`].
    RequestLineTooLong {
        /// The enforced limit, bytes.
        limit: usize,
    },
    /// A method other than `GET`/`POST`.
    UnsupportedMethod(String),
    /// An HTTP version other than 1.x.
    UnsupportedVersion(String),
    /// A header line without a `:` or with a non-UTF-8 byte sequence.
    MalformedHeader(String),
    /// One header line exceeded [`Limits::max_header_bytes`].
    HeaderTooLarge {
        /// The enforced limit, bytes.
        limit: usize,
    },
    /// More header lines than [`Limits::max_headers`].
    TooManyHeaders {
        /// The enforced limit.
        limit: usize,
    },
    /// The connection closed in the middle of the header block.
    TruncatedHeaders,
    /// A `Transfer-Encoding` the server does not implement (chunked).
    UnsupportedTransferEncoding(String),
    /// A `Content-Length` that does not parse as an integer.
    InvalidContentLength(String),
    /// A `POST` without a `Content-Length`.
    LengthRequired,
    /// The declared body length exceeded [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// The declared `Content-Length`.
        length: usize,
        /// The enforced limit, bytes.
        limit: usize,
    },
    /// The connection closed before `Content-Length` bytes arrived.
    TruncatedBody {
        /// The declared `Content-Length`.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
}

impl HttpError {
    /// The HTTP status code this error maps to (its reason phrase is
    /// [`reason_phrase`]).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::ConnectionClosed
            | HttpError::Io(_)
            | HttpError::MalformedRequestLine(_)
            | HttpError::MalformedHeader(_)
            | HttpError::TruncatedHeaders
            | HttpError::InvalidContentLength(_)
            | HttpError::TruncatedBody { .. } => 400,
            HttpError::RequestLineTooLong { .. } => 414,
            HttpError::UnsupportedMethod(_) => 405,
            HttpError::UnsupportedVersion(_) => 505,
            HttpError::HeaderTooLarge { .. } | HttpError::TooManyHeaders { .. } => 431,
            HttpError::UnsupportedTransferEncoding(_) => 501,
            HttpError::LengthRequired => 411,
            HttpError::BodyTooLarge { .. } => 413,
        }
    }
}

/// The reason phrase of every status the server sends, the one table both
/// status lines and error bodies read. Any other code has none (an empty
/// phrase is valid HTTP/1.1).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed before a request arrived"),
            HttpError::Io(e) => write!(f, "i/o error reading request: {e}"),
            HttpError::MalformedRequestLine(line) => {
                write!(f, "malformed request line {line:?} (want \"METHOD TARGET HTTP/1.x\")")
            }
            HttpError::RequestLineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            HttpError::UnsupportedMethod(m) => {
                write!(f, "unsupported method {m:?} (this API serves GET and POST)")
            }
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            HttpError::MalformedHeader(line) => write!(f, "malformed header line {line:?}"),
            HttpError::HeaderTooLarge { limit } => write!(f, "header line exceeds {limit} bytes"),
            HttpError::TooManyHeaders { limit } => write!(f, "more than {limit} header lines"),
            HttpError::TruncatedHeaders => {
                write!(f, "connection closed in the middle of the header block")
            }
            HttpError::UnsupportedTransferEncoding(te) => {
                write!(f, "unsupported transfer-encoding {te:?} (send a Content-Length body)")
            }
            HttpError::InvalidContentLength(v) => write!(f, "invalid content-length {v:?}"),
            HttpError::LengthRequired => write!(f, "POST requires a Content-Length"),
            HttpError::BodyTooLarge { length, limit } => {
                write!(f, "declared body of {length} bytes exceeds the {limit}-byte limit")
            }
            HttpError::TruncatedBody { expected, got } => {
                write!(f, "connection closed after {got} of {expected} body bytes")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Outcome of reading one CRLF/LF-terminated line under a byte limit.
enum Line {
    /// A complete line (terminator stripped).
    Full(String),
    /// End of stream with no bytes read.
    Eof,
    /// End of stream mid-line (bytes read, no terminator).
    Truncated,
    /// The line exceeded the limit before a terminator appeared.
    TooLong,
}

/// Reads one line of at most `limit` bytes. Non-UTF-8 content surfaces as
/// a [`HttpError::MalformedHeader`]-shaped `Err` at the call sites via the
/// lossless byte check here.
fn read_line<R: BufRead>(reader: &mut R, limit: usize) -> Result<Line, HttpError> {
    let mut buf = Vec::with_capacity(128.min(limit));
    // `take` bounds how much one line may consume; +1 distinguishes
    // "exactly limit bytes then newline" from "over the limit".
    let mut bounded = reader.take(limit as u64 + 1);
    match bounded.read_until(b'\n', &mut buf) {
        Ok(0) => return Ok(Line::Eof),
        Ok(_) => {}
        Err(e) => return Err(HttpError::Io(e)),
    }
    if buf.last() != Some(&b'\n') {
        return if buf.len() > limit { Ok(Line::TooLong) } else { Ok(Line::Truncated) };
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    if buf.len() > limit {
        return Ok(Line::TooLong);
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Line::Full(s)),
        Err(e) => {
            let lossy = String::from_utf8_lossy(e.as_bytes()).into_owned();
            Err(HttpError::MalformedHeader(lossy))
        }
    }
}

/// Splits a request target into its path and parsed query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    (path.to_string(), pairs)
}

/// Reads and parses one HTTP/1.1 request from `reader`.
///
/// Bodies are read if and only if a `Content-Length` header is present
/// (mandatory for `POST`); `Transfer-Encoding` is rejected with a named
/// error. The parser never panics — every malformed input becomes an
/// [`HttpError`].
pub fn parse_request<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<Request, HttpError> {
    // --- Request line -----------------------------------------------------
    let line = match read_line(reader, limits.max_request_line)? {
        Line::Full(l) => l,
        Line::Eof => return Err(HttpError::ConnectionClosed),
        Line::Truncated => return Err(HttpError::MalformedRequestLine(String::new())),
        Line::TooLong => {
            return Err(HttpError::RequestLineTooLong { limit: limits.max_request_line })
        }
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::MalformedRequestLine(line.clone())),
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(HttpError::UnsupportedMethod(other.to_string())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }
    let (path, query) = split_target(target);

    // --- Headers ----------------------------------------------------------
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(reader, limits.max_header_bytes)? {
            Line::Full(l) => l,
            Line::Eof | Line::Truncated => return Err(HttpError::TruncatedHeaders),
            Line::TooLong => {
                return Err(HttpError::HeaderTooLarge { limit: limits.max_header_bytes })
            }
        };
        if line.is_empty() {
            break;
        }
        if headers.len() == limits.max_headers {
            return Err(HttpError::TooManyHeaders { limit: limits.max_headers });
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::MalformedHeader(line));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // --- Body -------------------------------------------------------------
    let req = Request { method, path, query, headers, body: Vec::new() };
    if let Some(te) = req.header("transfer-encoding") {
        return Err(HttpError::UnsupportedTransferEncoding(te.to_string()));
    }
    let length = match req.header("content-length") {
        Some(v) => match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => return Err(HttpError::InvalidContentLength(v.to_string())),
        },
        None if req.method == Method::Post => return Err(HttpError::LengthRequired),
        None => None,
    };
    let mut req = req;
    if let Some(expected) = length {
        if expected > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge { length: expected, limit: limits.max_body_bytes });
        }
        let mut body = vec![0u8; expected];
        let mut got = 0;
        while got < expected {
            match reader.read(&mut body[got..]) {
                Ok(0) => return Err(HttpError::TruncatedBody { expected, got }),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
        req.body = body;
    }
    Ok(req)
}

/// Renders a complete HTTP/1.1 response with a `Content-Length` body and
/// `Connection: close` (the server speaks one request per connection).
/// The status line's reason phrase is [`reason_phrase`]; `extra_headers`
/// lines are spliced in verbatim (no terminators).
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[&str],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason_phrase(status),
        body.len()
    );
    for extra in extra_headers {
        head.push_str(extra);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        parse_request(&mut std::io::BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse(
            b"GET /jobs/3/events?format=jsonl&tenant=acme HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n",
        )
        .expect("parse");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/jobs/3/events");
        assert_eq!(req.query_param("format"), Some("jsonl"));
        assert_eq!(req.query_param("tenant"), Some("acme"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_exactly() {
        let req =
            parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\":1}\r\n").expect("parse");
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"{\"a\":1}\r\n");
    }

    #[test]
    fn named_errors_for_malformed_inputs() {
        assert!(matches!(parse(b""), Err(HttpError::ConnectionClosed)));
        assert!(matches!(parse(b"GARBAGE\r\n\r\n"), Err(HttpError::MalformedRequestLine(_))));
        assert!(matches!(parse(b"PUT / HTTP/1.1\r\n\r\n"), Err(HttpError::UnsupportedMethod(_))));
        assert!(matches!(parse(b"GET / HTTP/2\r\n\r\n"), Err(HttpError::UnsupportedVersion(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbad\r\n\r\n"),
            Err(HttpError::MalformedHeader(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: x\r\n"),
            Err(HttpError::TruncatedHeaders)
        ));
        assert!(matches!(parse(b"POST /jobs HTTP/1.1\r\n\r\n"), Err(HttpError::LengthRequired)));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::InvalidContentLength(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::TruncatedBody { expected: 10, got: 3 })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::UnsupportedTransferEncoding(_))
        ));
    }

    #[test]
    fn limits_are_enforced_with_named_errors() {
        let limits = Limits {
            max_request_line: 32,
            max_header_bytes: 24,
            max_headers: 2,
            max_body_bytes: 8,
        };
        let parse = |bytes: &[u8]| parse_request(&mut std::io::BufReader::new(bytes), &limits);

        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        assert!(matches!(
            parse(long_line.as_bytes()),
            Err(HttpError::RequestLineTooLong { limit: 32 })
        ));

        let long_header = format!("GET / HTTP/1.1\r\nA: {}\r\n\r\n", "y".repeat(64));
        assert!(matches!(
            parse(long_header.as_bytes()),
            Err(HttpError::HeaderTooLarge { limit: 24 })
        ));

        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n"),
            Err(HttpError::TooManyHeaders { limit: 2 })
        ));

        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n"),
            Err(HttpError::BodyTooLarge { length: 99, limit: 8 })
        ));
    }

    #[test]
    fn error_statuses_are_stable() {
        assert_eq!(HttpError::LengthRequired.status(), 411);
        assert_eq!(HttpError::UnsupportedMethod("PUT".into()).status(), 405);
        assert_eq!(HttpError::BodyTooLarge { length: 9, limit: 8 }.status(), 413);
        assert_eq!(HttpError::TooManyHeaders { limit: 2 }.status(), 431);
        assert_eq!(HttpError::MalformedRequestLine(String::new()).status(), 400);
        assert_eq!(reason_phrase(431), "Request Header Fields Too Large");
    }

    #[test]
    fn response_renderer_emits_content_length_and_close() {
        let bytes = render_response(202, "application/json", &[], b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 202 Accepted\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
