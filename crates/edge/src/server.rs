//! A hand-rolled threaded HTTP/1.1 server over `std::net::TcpListener`.
//!
//! Vendoring rules out axum/tokio, so the service half is a fixed worker
//! pool draining a *bounded* connection queue — the same explicit-
//! backpressure stance as [`EdgeCache`]: when either the queue or the
//! cache is full the server answers `503` immediately instead of letting
//! latency pile up invisibly.
//!
//! Routes:
//!
//! | route            | body                                   | answers |
//! |------------------|----------------------------------------|---------|
//! | `POST /batch`    | [`BatchRequest`] wire bytes            | `200` [`BatchResponse`](crate::protocol::BatchResponse) wire bytes, `400` on a codec error or a key of the wrong dimension, `503` on overload |
//! | `GET /health`    | —                                      | `200` one-line counter summary |
//! | `POST /shutdown` | — (only with [`ServerConfig::allow_shutdown`]) | `200`, then the server drains and exits |
//!
//! Every connection gets read/write timeouts so one stalled client can
//! never wedge a worker, and each request/response cycle closes the
//! connection (`Connection: close`) — edge batches are coarse enough
//! that keep-alive would buy little and cost a slow-loris surface.
//!
//! This file (with `client.rs`) is the runtime half of the crate: it
//! touches the wall clock and real sockets, and is exempt from the
//! determinism lint the model half is held to.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simcore::SimTime;

use crate::cache::{BatchError, EdgeCache};
use crate::protocol::BatchRequest;

/// Largest request body the server will read.
const MAX_BODY: usize = 8 * 1024 * 1024;
/// Largest HTTP head (request or status line plus headers) the server
/// and the client will read.
pub const MAX_HEAD: usize = 16 * 1024;

/// Tuning of an [`EdgeServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Connections allowed to wait for a worker before `503`.
    pub pending_limit: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Whether `POST /shutdown` is honoured (CI smoke runs enable it;
    /// a real deployment stops the process instead).
    pub allow_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            pending_limit: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            allow_shutdown: false,
        }
    }
}

/// A running edge server; dropping the handle shuts it down.
#[derive(Debug)]
pub struct EdgeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EdgeServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop plus the worker pool over `cache`.
    pub fn start(
        addr: &str,
        cache: EdgeCache,
        config: ServerConfig,
    ) -> std::io::Result<EdgeServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let started = Instant::now();

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.pending_limit.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let cache = cache.clone();
                let config = config.clone();
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || worker_loop(&rx, &cache, &config, &shutdown, started))
            })
            .collect();

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let config = config.clone();
            std::thread::spawn(move || accept_loop(&listener, &tx, &shutdown, &config))
        };

        Ok(EdgeServer {
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Blocks until the server shuts down (via `POST /shutdown`).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Queue full: shed load here, on the accept thread, so
                // the client learns immediately instead of queueing.
                let _ = stream.set_write_timeout(Some(config.write_timeout));
                let _ = write_response(&mut stream, 503, "application/octet-stream", b"");
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    cache: &EdgeCache,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    started: Instant,
) {
    loop {
        let stream = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(_) => return,
            };
            match guard.recv_timeout(Duration::from_millis(200)) {
                Ok(stream) => Some(stream),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        match stream {
            Some(mut stream) => {
                let _ = stream.set_read_timeout(Some(config.read_timeout));
                let _ = stream.set_write_timeout(Some(config.write_timeout));
                handle_connection(&mut stream, cache, config, shutdown, started);
            }
            None => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// One parsed request head.
struct RequestHead {
    method: String,
    path: String,
    content_length: usize,
}

fn read_head(reader: &mut BufReader<&TcpStream>) -> Result<RequestHead, &'static str> {
    // The whole head goes through one `take`, so a peer that never sends
    // a newline costs MAX_HEAD bytes, not a worker until its read timeout.
    // `by_ref` leaves any body bytes already buffered in `reader`.
    let mut head = reader.by_ref().take(MAX_HEAD as u64);
    let mut line = String::new();
    read_head_line(&mut head, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let version = parts.next().ok_or("missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err("unsupported protocol version");
    }
    let mut content_length = 0usize;
    loop {
        read_head_line(&mut head, &mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| "bad content-length")?;
                if content_length > MAX_BODY {
                    return Err("body too large");
                }
            }
        }
    }
    Ok(RequestHead {
        method,
        path,
        content_length,
    })
}

/// Why one line of an HTTP head could not be read.
#[derive(Debug)]
pub(crate) enum HeadError {
    /// The socket failed (or timed out).
    Io(std::io::Error),
    /// The line had no newline: "head too large" when the `MAX_HEAD` cap
    /// cut it, "truncated head" when the peer closed mid-line.
    Malformed(&'static str),
}

impl From<HeadError> for &'static str {
    fn from(e: HeadError) -> &'static str {
        match e {
            HeadError::Io(_) => "read request head",
            HeadError::Malformed(what) => what,
        }
    }
}

/// Reads one line of an HTTP head into `line` from `head`, a reader
/// capped by `take(MAX_HEAD)`; a line without its newline is refused.
pub(crate) fn read_head_line<R: BufRead>(
    head: &mut Take<R>,
    line: &mut String,
) -> Result<(), HeadError> {
    line.clear();
    head.read_line(line).map_err(HeadError::Io)?;
    if line.ends_with('\n') {
        Ok(())
    } else if head.limit() == 0 {
        Err(HeadError::Malformed("head too large"))
    } else {
        Err(HeadError::Malformed("truncated head"))
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn handle_connection(
    stream: &mut TcpStream,
    cache: &EdgeCache,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    started: Instant,
) {
    let mut reader = BufReader::new(&*stream);
    let head = match read_head(&mut reader) {
        Ok(head) => head,
        Err(_) => {
            let _ = write_response(stream, 400, "text/plain", b"bad request\n");
            return;
        }
    };
    let mut body = vec![0u8; head.content_length];
    if reader.read_exact(&mut body).is_err() {
        let _ = write_response(stream, 400, "text/plain", b"short body\n");
        return;
    }
    // Wall-clock time since server start stands in for sim time: the
    // cache only needs a monotonically advancing recency clock.
    let elapsed = started.elapsed().as_nanos();
    let now = SimTime::from_nanos(u64::try_from(elapsed).unwrap_or(u64::MAX));

    match (head.method.as_str(), head.path.as_str()) {
        ("POST", "/batch") => match BatchRequest::decode(&body) {
            Ok(request) => match cache.apply_batch(&request, now) {
                Ok(response) => {
                    let wire = response.encode();
                    let _ = write_response(stream, 200, "application/octet-stream", &wire);
                }
                Err(BatchError::Overloaded) => {
                    let _ = write_response(stream, 503, "text/plain", b"overloaded\n");
                }
                Err(e @ (BatchError::KeyDimension { .. } | BatchError::Confidence { .. })) => {
                    let msg = format!("bad batch: {e}\n");
                    let _ = write_response(stream, 400, "text/plain", msg.as_bytes());
                }
            },
            Err(e) => {
                let msg = format!("decode error: {e}\n");
                let _ = write_response(stream, 400, "text/plain", msg.as_bytes());
            }
        },
        ("GET", "/health") => {
            let body = format!("ok: {}\n", cache.counters());
            let _ = write_response(stream, 200, "text/plain", body.as_bytes());
        }
        ("POST", "/shutdown") if config.allow_shutdown => {
            let _ = write_response(stream, 200, "text/plain", b"shutting down\n");
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so `wait()` returns promptly.
            if let Ok(local) = stream.local_addr() {
                let _ = TcpStream::connect(local);
            }
        }
        ("POST", _) | ("GET", _) => {
            let _ = write_response(stream, 404, "text/plain", b"not found\n");
        }
        _ => {
            let _ = write_response(stream, 405, "text/plain", b"method not allowed\n");
        }
    }
}
