//! Minimal blocking HTTP/1.1 client for the edge server.
//!
//! One request per connection, mirroring the server's `Connection:
//! close` policy. Like `server.rs` this is runtime code — it touches
//! real sockets and wall-clock timeouts and is exempt from the
//! determinism lint that binds the model half.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::{BatchRequest, BatchResponse, DecodeError};
use crate::server::{read_head_line, HeadError, MAX_HEAD};

/// Largest response body the client will read.
const MAX_RESPONSE_BODY: usize = 64 * 1024 * 1024;

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

impl From<HeadError> for ClientError {
    fn from(e: HeadError) -> Self {
        match e {
            HeadError::Io(e) => ClientError::Io(e),
            HeadError::Malformed(what) => ClientError::Malformed(what),
        }
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
        // Status line and headers go through one `take`, as on the
        // server: a peer that never ends a line cannot make the client
        // buffer without bound. `by_ref` keeps buffered body bytes.
        let mut head = reader.by_ref().take(MAX_HEAD as u64);
        let mut line = String::new();
        read_head_line(&mut head, &mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(ClientError::Malformed("status line"))?;
        let mut content_length: Option<usize> = None;
        loop {
            read_head_line(&mut head, &mut line)?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    let parsed = value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| ClientError::Malformed("content-length"))?;
                    if parsed > MAX_RESPONSE_BODY {
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
                // EOF (bounded by MAX_RESPONSE_BODY).
                let mut body = Vec::new();
                reader
                    .take(MAX_RESPONSE_BODY as u64)
                    .read_to_end(&mut body)?;
                body
            }
        };
        Ok(RawResponse { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A one-shot fake server: reads the request head, writes `response`
    /// and holds the socket open until the client hangs up.
    fn serve_once(response: Vec<u8>) -> (EdgeClient, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            while reader.read_line(&mut line).is_ok_and(|n| n > 0) && line != "\r\n" {
                line.clear();
            }
            let _ = stream.write_all(&response);
            let _ = stream.read_to_end(&mut Vec::new());
        });
        let client = EdgeClient::new(addr).with_timeout(Duration::from_secs(10));
        (client, server)
    }

    #[test]
    fn a_declared_body_over_the_cap_is_refused_unread() {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_RESPONSE_BODY + 1
        );
        let (client, server) = serve_once(head.into_bytes());
        let err = client.health().expect_err("over the cap");
        assert!(
            matches!(err, ClientError::Malformed("body too large")),
            "{err}"
        );
        server.join().expect("fake server");
    }

    #[test]
    fn a_header_line_without_end_is_cut_off_at_the_cap() {
        let mut response = b"HTTP/1.1 200 OK\r\nX-Filler: ".to_vec();
        response.resize(MAX_HEAD + 1, b'a');
        let (client, server) = serve_once(response);
        let err = client.health().expect_err("endless header");
        assert!(
            matches!(err, ClientError::Malformed("head too large")),
            "{err}"
        );
        server.join().expect("fake server");
    }
}
