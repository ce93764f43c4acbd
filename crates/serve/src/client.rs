//! A minimal blocking HTTP client for the serve wire format.
//!
//! This exists for the load generators (`benchmark/`'s serving workloads)
//! and the integration tests — it exercises the server over a real TCP
//! socket with the same keep-alive connection reuse a production
//! client would use. It is intentionally tiny: one connection, one
//! request in flight, `Content-Length` framing only.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use peb_tensor::Tensor;

use crate::clip;
use crate::error::ServeError;
use crate::http::MAX_HEAD_BYTES;
use crate::stats::ModelVersion;

/// Socket timeouts a [`Client`] applies at each phase. `None` means
/// block indefinitely (the OS default for that phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// TCP connect timeout.
    pub connect: Option<Duration>,
    /// Per-`read` timeout while waiting for response bytes.
    pub read: Option<Duration>,
    /// Per-`write` timeout while sending the request.
    pub write: Option<Duration>,
}

impl Default for ClientTimeouts {
    /// The historical defaults: 5 s connect, 30 s read, 30 s write.
    fn default() -> Self {
        ClientTimeouts {
            connect: Some(Duration::from_secs(5)),
            read: Some(Duration::from_secs(30)),
            write: Some(Duration::from_secs(30)),
        }
    }
}

impl ClientTimeouts {
    /// Uniform timeouts across all three phases — probes and routers
    /// that want one latency budget per upstream exchange.
    pub fn uniform(d: Duration) -> Self {
        ClientTimeouts {
            connect: Some(d),
            read: Some(d),
            write: Some(d),
        }
    }
}

/// One keep-alive client connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A parsed response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// Client-side failure (socket or framing).
#[derive(Debug)]
pub enum ClientError {
    /// A configured timeout elapsed — distinguishable from other io
    /// failures so callers (the fleet router, bench loops) can treat a
    /// slow upstream differently from a dead one.
    Timeout {
        /// Which phase timed out (`"connect"`, `"read"` or `"write"`).
        phase: &'static str,
    },
    /// Socket-level failure (connection refused/reset, EOF, …).
    Io(std::io::Error),
    /// The server's response violated `Content-Length` framing.
    BadResponse(String),
    /// The server answered with a non-200 status.
    Status(u16, String),
}

impl ClientError {
    /// Whether this failure means the upstream did not durably process
    /// the request from this client's point of view — i.e. a retry on
    /// another shard is safe and warranted (inference is idempotent).
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Timeout { .. } | ClientError::Io(_) | ClientError::BadResponse(_) => true,
            // 429 (shed) and 5xx are retryable elsewhere; 4xx client
            // errors are deterministic and would fail identically.
            ClientError::Status(code, _) => *code == 429 || *code >= 500,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout { phase } => write!(f, "{phase} timeout"),
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::BadResponse(d) => write!(f, "bad response: {d}"),
            ClientError::Status(s, body) => write!(f, "status {s}: {}", body.trim_end()),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Folds a phase's io error into the typed timeout when its kind says
/// the configured deadline elapsed.
fn phase_error(phase: &'static str, e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ClientError::Timeout { phase }
        }
        _ => ClientError::Io(e),
    }
}

impl Client {
    /// Connects to a running server with the default timeouts
    /// ([`ClientTimeouts::default`]).
    ///
    /// # Errors
    ///
    /// Propagates connect failures; a connect that exceeds the default
    /// 5 s budget is a typed [`ClientError::Timeout`].
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientTimeouts::default())
    }

    /// Connects with explicit per-phase timeouts. The read/write
    /// budgets stick to the connection; [`Client::set_read_timeout`]
    /// can tighten the read budget per request afterwards (the fleet
    /// router re-arms it with each request's remaining deadline).
    ///
    /// # Errors
    ///
    /// [`ClientError::Timeout`] when the connect budget elapses,
    /// [`ClientError::Io`] for other socket failures.
    pub fn connect_with(addr: SocketAddr, timeouts: ClientTimeouts) -> Result<Self, ClientError> {
        let stream = match timeouts.connect {
            Some(d) => TcpStream::connect_timeout(&addr, d).map_err(|e| phase_error("connect", e)),
            None => TcpStream::connect(addr).map_err(ClientError::Io),
        }?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Re-arms the per-`read` timeout (e.g. to a request's remaining
    /// deadline). `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&mut self, d: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(d)?;
        Ok(())
    }

    /// Sends one request and reads its complete response.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on socket failure (including the server
    /// dropping the connection mid-response — the chaos `disconnect`
    /// fault surfaces here), [`ClientError::BadResponse`] on framing
    /// violations.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        self.request_with_headers(method, path, &[], body)
    }

    /// [`Client::request`] with extra header fields (e.g. the fleet
    /// router's `x-peb-deadline-us` propagation).
    ///
    /// # Errors
    ///
    /// Same as [`Client::request`]; a write that exceeds the write
    /// budget is a typed [`ClientError::Timeout`].
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: peb-serve\r\n");
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        self.stream
            .write_all(head.as_bytes())
            .map_err(|e| phase_error("write", e))?;
        self.stream
            .write_all(body)
            .map_err(|e| phase_error("write", e))?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<ClientResponse, ClientError> {
        // Scan only what arrived since the last look (minus the three
        // bytes a terminator split across reads could start in), and give
        // up on a head the server's own parser would refuse.
        let mut scanned = 0;
        let head_end = loop {
            let window = &self.buf[..self.buf.len().min(MAX_HEAD_BYTES)];
            if let Some(i) = window[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
                break scanned + i;
            }
            if self.buf.len() >= MAX_HEAD_BYTES {
                return Err(ClientError::BadResponse(format!(
                    "response head exceeds {MAX_HEAD_BYTES} bytes"
                )));
            }
            scanned = window.len().saturating_sub(3);
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::BadResponse(format!("bad status line {status_line:?}")))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v
                        .trim()
                        .parse()
                        .map_err(|_| ClientError::BadResponse(format!("bad length {v:?}")))?;
                }
            }
        }
        let body_start = head_end + 4;
        let body_end = body_start.checked_add(content_length).ok_or_else(|| {
            ClientError::BadResponse(format!("content-length {content_length} overflows"))
        })?;
        while self.buf.len() < body_end {
            self.fill()?;
        }
        let body = self.buf[body_start..body_end].to_vec();
        self.buf.drain(..body_end);
        Ok(ClientResponse { status, body })
    }

    fn fill(&mut self) -> Result<(), ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self
            .stream
            .read(&mut chunk)
            .map_err(|e| phase_error("read", e))?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// `POST /infer`: one clip in, one prediction out.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] carries the server's typed error body on
    /// any non-200 (e.g. `429` when shed).
    pub fn infer(&mut self, clip: &Tensor) -> Result<Tensor, ClientError> {
        let r = self.request("POST", "/infer", &clip::encode_clip(clip))?;
        if r.status != 200 {
            return Err(ClientError::Status(
                r.status,
                String::from_utf8_lossy(&r.body).to_string(),
            ));
        }
        clip::decode_resp(&r.body).map_err(|e: ServeError| ClientError::BadResponse(e.to_string()))
    }

    /// `POST /swap`: points the server at a new checkpoint.
    ///
    /// # Errors
    ///
    /// [`ClientError::Status`] on rejection (409 keeps the old model).
    pub fn swap(&mut self, ckpt_path: &str) -> Result<ModelVersion, ClientError> {
        let r = self.request("POST", "/swap", ckpt_path.as_bytes())?;
        if r.status != 200 {
            return Err(ClientError::Status(
                r.status,
                String::from_utf8_lossy(&r.body).to_string(),
            ));
        }
        let text = String::from_utf8_lossy(&r.body).to_string();
        parse_version_json(&text)
            .ok_or_else(|| ClientError::BadResponse(format!("unparsable version {text:?}")))
    }
}

/// Parses the server's `/version`-shape JSON without a JSON library
/// (fields are flat and numeric except `source`).
pub fn parse_version_json(s: &str) -> Option<ModelVersion> {
    let num = |key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let i = s.find(&pat)? + pat.len();
        let rest = &s[i..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    };
    let source = {
        let pat = "\"source\":\"";
        let i = s.find(pat)? + pat.len();
        let rest = &s[i..];
        let end = rest.find('"')?;
        rest[..end].to_string()
    };
    Some(ModelVersion {
        version: num("version")?,
        epoch: num("epoch")?,
        source,
        crc: num("crc")? as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::version_json;

    #[test]
    fn version_json_roundtrips() {
        let v = ModelVersion {
            version: 3,
            epoch: 17,
            source: "/tmp/ckpt_17.peb".into(),
            crc: 0x1234_5678,
        };
        let parsed = parse_version_json(&version_json(&v)).expect("parses");
        assert_eq!(parsed, v);
    }
}
