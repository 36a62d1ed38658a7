//! Minimal blocking HTTP/1.1 client for the edge server.
//!
//! One request per connection, mirroring the server's `Connection:
//! close` policy. Like `server.rs` this is runtime code — it touches
//! real sockets and wall-clock timeouts and is exempt from the
//! determinism lint that binds the model half.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::compress::MAX_SNAPSHOT;
use crate::protocol::{BatchRequest, BatchResponse, DecodeError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The server answered `503` — shed the batch or fall back.
    Overloaded,
    /// A non-200, non-503 status.
    Http {
        /// The status code the server returned.
        status: u16,
        /// The response body, lossily decoded.
        body: String,
    },
    /// The response bytes did not parse.
    Decode(DecodeError),
    /// The response head was not valid HTTP.
    Malformed(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Overloaded => write!(f, "server overloaded (503)"),
            ClientError::Http { status, body } => {
                write!(f, "http {status}: {}", body.trim_end())
            }
            ClientError::Decode(e) => write!(f, "response decode error: {e}"),
            ClientError::Malformed(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking client bound to one server address.
#[derive(Debug, Clone)]
pub struct EdgeClient {
    addr: String,
    timeout: Duration,
}

/// One parsed HTTP response.
#[derive(Debug)]
struct RawResponse {
    status: u16,
    body: Vec<u8>,
}

impl EdgeClient {
    /// A client for `addr` (`host:port`) with a 5 s default timeout.
    pub fn new(addr: impl Into<String>) -> EdgeClient {
        EdgeClient {
            addr: addr.into(),
            timeout: Duration::from_secs(5),
        }
    }

    /// Replaces the connect/read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> EdgeClient {
        self.timeout = timeout;
        self
    }

    /// Sends one batch and returns the server's replies.
    pub fn batch(&self, request: &BatchRequest) -> Result<BatchResponse, ClientError> {
        let wire = request.encode();
        let raw = self.request("POST", "/batch", &wire)?;
        match raw.status {
            200 => BatchResponse::decode(&raw.body).map_err(ClientError::Decode),
            503 => Err(ClientError::Overloaded),
            status => Err(ClientError::Http {
                status,
                body: String::from_utf8_lossy(&raw.body).into_owned(),
            }),
        }
    }

    /// Fetches the server's one-line health/counter summary.
    pub fn health(&self) -> Result<String, ClientError> {
        let raw = self.request("GET", "/health", &[])?;
        if raw.status == 200 {
            Ok(String::from_utf8_lossy(&raw.body).into_owned())
        } else {
            Err(ClientError::Http {
                status: raw.status,
                body: String::from_utf8_lossy(&raw.body).into_owned(),
            })
        }
    }

    /// Fetches the compressed snapshot blob (feed it to
    /// [`EdgeCache::restore_blob`](crate::cache::EdgeCache::restore_blob)).
    pub fn snapshot(&self) -> Result<Vec<u8>, ClientError> {
        let raw = self.request("GET", "/snapshot", &[])?;
        if raw.status == 200 {
            Ok(raw.body)
        } else {
            Err(ClientError::Http {
                status: raw.status,
                body: String::from_utf8_lossy(&raw.body).into_owned(),
            })
        }
    }

    /// Asks the server to shut down (needs
    /// [`ServerConfig::allow_shutdown`](crate::server::ServerConfig::allow_shutdown)).
    pub fn shutdown(&self) -> Result<(), ClientError> {
        let raw = self.request("POST", "/shutdown", &[])?;
        if raw.status == 200 {
            Ok(())
        } else {
            Err(ClientError::Http {
                status: raw.status,
                body: String::from_utf8_lossy(&raw.body).into_owned(),
            })
        }
    }

    fn request(&self, method: &str, path: &str, body: &[u8]) -> Result<RawResponse, ClientError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.addr,
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(ClientError::Malformed("status line"))?;
        let mut content_length: Option<usize> = None;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header)?;
            let trimmed = header.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    let parsed = value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ClientError::Malformed("content-length"))?;
                    // The largest snapshot is the biggest body the server sends.
                    if parsed > MAX_SNAPSHOT {
                        return Err(ClientError::Malformed("body too large"));
                    }
                    content_length = Some(parsed);
                }
            }
        }
        let body = match content_length {
            Some(len) => {
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body)?;
                body
            }
            None => {
                // `Connection: close` responses without a length run to
                // EOF (bounded by MAX_SNAPSHOT).
                let mut body = Vec::new();
                reader.take(MAX_SNAPSHOT as u64).read_to_end(&mut body)?;
                body
            }
        };
        Ok(RawResponse { status, body })
    }
}
