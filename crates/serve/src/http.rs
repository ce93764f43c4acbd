//! A minimal, dependency-free HTTP/1.1 subset: incremental request
//! parsing and response encoding.
//!
//! The parser is a byte-stream state machine built for a blocking
//! socket loop: [`RequestParser::feed`] appends whatever `read` returned
//! (any split, any size, including one byte at a time) and
//! [`RequestParser::poll`] yields complete requests in order, which
//! gives pipelining for free. Every malformed input maps to a typed
//! [`HttpError`] carrying its HTTP status — the parser never panics and
//! never silently resynchronises (after an error the connection is
//! poisoned and must be closed, matching RFC 9112 §2.2).
//!
//! Scope: request line + headers + `Content-Length` bodies. Chunked
//! transfer encoding is deliberately rejected with `501` — no client in
//! this workspace produces it, and accepting it would widen the attack
//! surface of a hand-rolled parser for no benefit.

use std::fmt;

/// Hard cap on the request head (request line + headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// How long a request head may take to arrive, from its first byte;
/// a peer still sending it after that is answered 408.
pub const HEAD_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);
/// Hard cap on the number of header fields.
pub const MAX_HEADERS: usize = 64;
/// Default cap on `Content-Length` bodies (overridable per parser).
pub const DEFAULT_MAX_BODY_BYTES: usize = 64 << 20;

/// Typed protocol violation, each with a deterministic response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine {
        /// What was malformed.
        detail: String,
    },
    /// The HTTP version is not 1.0 or 1.1.
    UnsupportedVersion {
        /// The version token received.
        got: String,
    },
    /// A header field violates `name: value` with a token name.
    BadHeader {
        /// What was malformed.
        detail: String,
    },
    /// More than [`MAX_HEADERS`] header fields.
    TooManyHeaders,
    /// The head exceeds [`MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge,
    /// The head was not complete [`HEAD_TIMEOUT`] after its first byte.
    HeadTimeout,
    /// `Content-Length` is absent where required, unparsable, or listed
    /// twice with conflicting values.
    BadContentLength {
        /// What was malformed.
        detail: String,
    },
    /// The declared body exceeds the parser's body cap.
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// Configured cap.
        max: usize,
    },
    /// `Transfer-Encoding` is outside this server's subset.
    UnsupportedTransferEncoding,
}

impl HttpError {
    /// The HTTP status this protocol error is reported as.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequestLine { .. }
            | HttpError::BadHeader { .. }
            | HttpError::BadContentLength { .. } => 400,
            HttpError::HeadTimeout => 408,
            HttpError::UnsupportedVersion { .. } => 505,
            HttpError::TooManyHeaders | HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnsupportedTransferEncoding => 501,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine { detail } => write!(f, "bad request line: {detail}"),
            HttpError::UnsupportedVersion { got } => write!(f, "unsupported version {got:?}"),
            HttpError::BadHeader { detail } => write!(f, "bad header: {detail}"),
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::HeadTooLarge => write!(f, "head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::HeadTimeout => write!(f, "head not complete within {HEAD_TIMEOUT:?}"),
            HttpError::BadContentLength { detail } => write!(f, "bad content-length: {detail}"),
            HttpError::BodyTooLarge { declared, max } => {
                write!(f, "declared body {declared} exceeds cap {max}")
            }
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding not supported (use content-length)")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Request method within the served subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
    /// Any other valid token (the router answers 405).
    Other(String),
}

impl Method {
    fn from_token(tok: &str) -> Self {
        match tok {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_string()),
        }
    }
}

/// One fully-received request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Parsed method.
    pub method: Method,
    /// Raw request target (path + optional query), undecoded.
    pub target: String,
    /// Header fields in wire order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length` body (empty when the header is absent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// First header value for `name` (already lower-cased keys).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (query stripped).
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }

    /// The target's query string (without the `?`), when present.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The `X-Peb-Deadline-Us` budget in microseconds, when the header
    /// is present.
    ///
    /// # Errors
    ///
    /// A value that is not a microsecond count is a
    /// [`HttpError::BadHeader`] (400), never a silently unbounded request.
    pub fn deadline_us(&self) -> Result<Option<u64>, HttpError> {
        let Some(v) = self.header("x-peb-deadline-us") else {
            return Ok(None);
        };
        v.trim()
            .parse()
            .map(Some)
            .map_err(|_| HttpError::BadHeader {
                detail: format!("x-peb-deadline-us {v:?} is not a microsecond count"),
            })
    }
}

/// Parsed head, cached between polls while the body streams in.
#[derive(Debug, Clone)]
struct Head {
    method: Method,
    target: String,
    headers: Vec<(String, String)>,
    head_len: usize,
    body_len: usize,
    keep_alive: bool,
}

/// Incremental request parser for one connection.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    head: Option<Head>,
    max_body: usize,
    poisoned: bool,
}

impl RequestParser {
    /// Parser with the default body cap.
    pub fn new() -> Self {
        Self::with_max_body(DEFAULT_MAX_BODY_BYTES)
    }

    /// Parser with a custom body cap (the serve config derives it from
    /// the model grid).
    pub fn with_max_body(max_body: usize) -> Self {
        RequestParser {
            buf: Vec::new(),
            head: None,
            max_body,
            poisoned: false,
        }
    }

    /// Appends raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes currently buffered and not yet consumed by a request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether part of a request head is buffered but not yet parsed.
    pub(crate) fn head_pending(&self) -> bool {
        self.head.is_none() && !self.buf.is_empty()
    }

    /// Yields the next complete request, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns the first [`HttpError`] the stream violates; the parser
    /// is then poisoned and every later poll repeats an error (the
    /// connection must be closed).
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        if self.poisoned {
            return Err(HttpError::BadRequestLine {
                detail: "parser poisoned by an earlier protocol error".into(),
            });
        }
        match self.poll_inner() {
            Ok(r) => Ok(r),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn poll_inner(&mut self) -> Result<Option<Request>, HttpError> {
        if self.head.is_none() {
            let window = &self.buf[..self.buf.len().min(MAX_HEAD_BYTES)];
            let Some(head_end) = find_crlfcrlf(window) else {
                if self.buf.len() >= MAX_HEAD_BYTES {
                    return Err(HttpError::HeadTooLarge);
                }
                return Ok(None);
            };
            let head = parse_head(&self.buf[..head_end], head_end + 4, self.max_body)?;
            self.head = Some(head);
        }
        let Some(head) = &self.head else {
            return Ok(None);
        };
        let total = head.head_len + head.body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let head = match self.head.take() {
            Some(h) => h,
            None => return Ok(None),
        };
        let body = self.buf[head.head_len..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Request {
            method: head.method,
            target: head.target,
            headers: head.headers,
            body,
            keep_alive: head.keep_alive,
        }))
    }
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the first `\r\n\r\n` (start of the terminator).
fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn header_name_is_token(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

fn parse_head(head: &[u8], head_len: usize, max_body: usize) -> Result<Head, HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::BadHeader {
        detail: "head is not valid UTF-8".into(),
    })?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method_tok, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequestLine {
                detail: format!("expected `METHOD SP TARGET SP VERSION`, got {request_line:?}"),
            })
        }
    };
    if method_tok.is_empty() || !header_name_is_token(method_tok) {
        return Err(HttpError::BadRequestLine {
            detail: format!("invalid method token {method_tok:?}"),
        });
    }
    if target.is_empty() || target.bytes().any(|b| b <= b' ' || b == 0x7f) {
        return Err(HttpError::BadRequestLine {
            detail: format!("invalid target {target:?}"),
        });
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::UnsupportedVersion { got: other.into() });
        }
    };

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader {
                detail: format!("no colon in {line:?}"),
            });
        };
        if !header_name_is_token(name) {
            return Err(HttpError::BadHeader {
                detail: format!("invalid field name {name:?}"),
            });
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                let n: usize = value.parse().map_err(|_| HttpError::BadContentLength {
                    detail: format!("unparsable value {value:?}"),
                })?;
                if let Some(prev) = content_length {
                    if prev != n {
                        return Err(HttpError::BadContentLength {
                            detail: format!("conflicting values {prev} and {n}"),
                        });
                    }
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return Err(HttpError::UnsupportedTransferEncoding);
            }
            "connection" => connection = Some(value.to_ascii_lowercase()),
            _ => {}
        }
        headers.push((name, value));
    }

    let body_len = content_length.unwrap_or(0);
    if body_len > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: body_len,
            max: max_body,
        });
    }
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => keep_alive_default,
    };
    Ok(Head {
        method: Method::from_token(method_tok),
        target: target.to_string(),
        headers,
        head_len,
        body_len,
        keep_alive,
    })
}

/// Encodes a complete response with `Content-Length` framing.
pub fn encode_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let reason = reason_phrase(status);
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
    out
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Vec<Request>, HttpError> {
        let mut p = RequestParser::new();
        p.feed(bytes);
        let mut out = Vec::new();
        while let Some(r) = p.poll()? {
            out.push(r);
        }
        Ok(out)
    }

    #[test]
    fn parses_a_simple_get() {
        let reqs = parse_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").expect("parses");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, Method::Get);
        assert_eq!(reqs[0].path(), "/healthz");
        assert!(reqs[0].keep_alive);
        assert!(reqs[0].body.is_empty());
    }

    #[test]
    fn parses_post_with_body_split_across_feeds() {
        let wire = b"POST /infer HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        for cut in 0..wire.len() {
            let mut p = RequestParser::new();
            p.feed(&wire[..cut]);
            let early = p.poll().expect("no error on prefix");
            p.feed(&wire[cut..]);
            let req = p.poll().expect("parses").or(early).expect("complete");
            assert_eq!(req.body, b"hello");
            assert_eq!(req.method, Method::Post);
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let reqs = parse_all(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nxyGET /c HTTP/1.1\r\n\r\n",
        )
        .expect("parses");
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].target, "/a");
        assert_eq!(reqs[1].body, b"xy");
        assert_eq!(reqs[2].target, "/c");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let reqs = parse_all(b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n").expect("parses");
        assert!(!reqs[0].keep_alive);
        let reqs = parse_all(b"GET / HTTP/1.0\r\n\r\n").expect("parses");
        assert!(!reqs[0].keep_alive);
    }

    #[test]
    fn oversized_head_is_a_431() {
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\n");
        p.feed(&vec![b'a'; MAX_HEAD_BYTES]);
        let err = p.poll().expect_err("must reject");
        assert_eq!(err, HttpError::HeadTooLarge);
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn oversized_body_is_a_413() {
        let mut p = RequestParser::with_max_body(10);
        p.feed(b"POST / HTTP/1.1\r\ncontent-length: 11\r\n\r\n");
        let err = p.poll().expect_err("must reject");
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn garbage_is_typed_not_a_panic() {
        for bad in [
            &b"\0\0\0\0\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET /with space HTTP/1.1\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse_all(bad).expect_err("typed error");
            assert!(err.status() >= 400, "{err}");
        }
    }

    #[test]
    fn parser_poisons_after_an_error() {
        let mut p = RequestParser::new();
        p.feed(b"BAD\r\n\r\n");
        assert!(p.poll().is_err());
        p.feed(b"GET / HTTP/1.1\r\n\r\n");
        assert!(p.poll().is_err(), "poisoned parser must not resync");
    }

    #[test]
    fn head_pending_tracks_an_unparsed_head() {
        let mut p = RequestParser::new();
        assert!(!p.head_pending());
        p.feed(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n");
        assert_eq!(p.poll(), Ok(None));
        assert!(p.head_pending());
        p.feed(b"\r\n");
        assert_eq!(p.poll(), Ok(None));
        assert!(!p.head_pending(), "a streaming body is not a pending head");
    }

    #[test]
    fn deadline_header_is_a_count_or_a_400() {
        let req = |wire: &[u8]| parse_all(wire).expect("parses").remove(0);
        assert_eq!(req(b"GET / HTTP/1.1\r\n\r\n").deadline_us(), Ok(None));
        let r = req(b"GET / HTTP/1.1\r\nX-Peb-Deadline-Us: 250\r\n\r\n");
        assert_eq!(r.deadline_us(), Ok(Some(250)));
        let r = req(b"GET / HTTP/1.1\r\nx-peb-deadline-us: soon\r\n\r\n");
        assert_eq!(r.deadline_us().map_err(|e| e.status()), Err(400));
    }

    #[test]
    fn response_roundtrips_framing() {
        let wire = encode_response(200, "text/plain", b"ok\n", true);
        let text = String::from_utf8(wire).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }
}
