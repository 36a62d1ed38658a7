//! The two edge workloads: `edge-lookup` and `edge-ingest`, both against
//! the real `edge-server` binary over loopback.
//!
//! Closed loop, on purpose: an edge query sits on a frame's critical
//! path and the device waits for the reply before it falls back to
//! inference, so callers that wait are the right model. A client sends
//! its next request when the previous one has been answered; latency is
//! timed around `EdgeClient::batch`.
//!
//! A measured phase is cut into slots, and a slot is a block of the
//! run (`outcome::Pace`). In even slots all `W` clients
//! (`host::load_width`) send: those give the throughput. In odd slots
//! client 0 sends alone: those give the latency. With `W` callers that
//! wait, latency under load is just `W` over the throughput, and on a
//! server that serves one batch at a time its percentiles flip between
//! two values with how the clients happen to interleave; the latency of
//! a request that has the server to itself is a quantity of its own, and
//! one that repeats. `edge-ingest` runs on one CPU (`host::OneCpu`), so
//! its `W` is 1 and every slot gives both.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use edge::{
    BatchRequest, BatchResponse, ClientError, EdgeCache, EdgeCacheConfig, EdgeClient, EdgeCounters,
    Frame, Reply,
};
use simcore::{SimRng, SimTime};

use crate::gen::{self, Expect, IngestStream, KeySet, LookupStream, RequestStream};
use crate::host;
use crate::names::{EDGE_INGEST, EDGE_LOOKUP};
use crate::outcome::{self, Block, Checks, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use crate::Plan;

/// Frames per preload batch: a quarter of the server's default queue
/// limit, so a preload can never trip backpressure.
const PRELOAD_BATCH: usize = 256;
/// `/health` round trips timed for the empty-request floor.
const HEALTH_PROBES: usize = 200;
/// How long a server may take to exit after `/shutdown`.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Which edge workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    Lookup,
    Ingest,
}

impl EdgeKind {
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Lookup => EDGE_LOOKUP,
            EdgeKind::Ingest => EDGE_INGEST,
        }
    }

    /// `--capacity` of the server, filled by the preload.
    fn capacity(self) -> usize {
        match self {
            EdgeKind::Lookup => 8192,
            EdgeKind::Ingest => 1024,
        }
    }

    fn preload(self, rng: &SimRng) -> KeySet {
        let mut rng = rng.split("preload");
        match self {
            EdgeKind::Lookup => gen::clustered_keys(self.capacity(), &mut rng),
            EdgeKind::Ingest => gen::scattered_keys(self.capacity(), &mut rng),
        }
    }

    /// `edge-ingest` runs on one CPU — server child, clients and all —
    /// for as long as the guard lives (`host::OneCpu` says why);
    /// `edge-lookup`, whose request is 2.5 ms of scanning against 0.1 ms
    /// of hand-overs and whose lock two clients on two CPUs contend for,
    /// keeps every CPU. Where the host refuses, the run goes on
    /// unconfined and says so.
    fn confine(self, out: &mut Outcome) -> Option<host::OneCpu> {
        if self == EdgeKind::Lookup {
            return None;
        }
        match host::OneCpu::confine() {
            Ok(one) => {
                out.note(format!("{}: confined to CPU {}", self.name(), one.cpu));
                Some(one)
            }
            Err(e) => {
                out.note(format!("{}: not confined to one CPU: {e}", self.name()));
                None
            }
        }
    }

    fn stream<'a>(
        self,
        rng: &SimRng,
        client: usize,
        cached: &'a KeySet,
    ) -> Box<dyn RequestStream + Send + 'a> {
        match self {
            EdgeKind::Lookup => Box::new(LookupStream::new(rng, client, cached)),
            EdgeKind::Ingest => Box::new(IngestStream::new(rng, client)),
        }
    }
}

// ---------------------------------------------------------------------
// The server child
// ---------------------------------------------------------------------

/// `edge-server` next to this executable: `run.sh` builds both into one
/// target directory.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let bin = exe.with_file_name("edge-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; benchmark/run.sh builds it",
            bin.display()
        ))
    }
}

/// A running `edge-server --addr 127.0.0.1:0 --allow-shutdown`. Dropping
/// the handle kills the process, so no error path leaves a listener
/// behind; [`shutdown`](Self::shutdown) is the clean way out.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerChild {
    pub fn spawn(bin: &Path, capacity: usize) -> Result<ServerChild, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--allow-shutdown", "--capacity"])
            .arg(capacity.to_string())
            // `run.sh` sets this for the benchmark's own process; the
            // server runs on the allocator's defaults, as deployed.
            .env_remove("MALLOC_ARENA_MAX")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("edge-server: no stdout pipe".to_owned());
        };
        let mut server = ServerChild {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("edge-server: read stdout: {e}"))?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => server.addr = addr.to_owned(),
            None => {
                return Err(format!(
                    "edge-server: expected `listening on`, got {line:?}"
                ))
            }
        }
        Ok(server)
    }

    pub fn client(&self) -> EdgeClient {
        EdgeClient::new(self.addr.clone())
    }

    /// Reads the child's peak memory (MiB, the return value), posts
    /// `/shutdown`, waits for the process and requires its `shut down
    /// cleanly` line.
    pub fn shutdown(mut self) -> Result<f64, String> {
        let peak_rss_mib = host::peak_rss_mib(Some(self.child.id()))?;
        self.client()
            .shutdown()
            .map_err(|e| format!("edge-server: /shutdown: {e}"))?;
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("edge-server: still running after /shutdown".to_owned()),
                Err(e) => return Err(format!("edge-server: wait: {e}")),
            }
        };
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("edge-server: read stdout: {e}"))?;
        if !status.success() || !rest.contains("shut down cleanly") {
            return Err(format!(
                "edge-server: unclean exit ({status}), said {rest:?}"
            ));
        }
        Ok(peak_rss_mib)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // After a clean shutdown the child is already reaped and both
        // calls are no-ops; on every other path this is the kill.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------

/// What the generator put on the wire and got answered, to hold against
/// the server's own `/health` books.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sent {
    batches: u64,
    lookups: u64,
    inserts: u64,
    gossip: u64,
}

impl Sent {
    fn count(&mut self, request: &BatchRequest) {
        self.batches += 1;
        for frame in &request.frames {
            match frame {
                Frame::Lookup { .. } => self.lookups += 1,
                Frame::Insert { .. } => self.inserts += 1,
                Frame::GossipAd { .. } => self.gossip += 1,
            }
        }
    }

    fn add(&mut self, other: &Sent) {
        self.batches += other.batches;
        self.lookups += other.lookups;
        self.inserts += other.inserts;
        self.gossip += other.gossip;
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Slot the request was sent in.
    slot: u32,
    /// Completion time since the phase started, seconds.
    done_s: f64,
    latency_ms: f64,
    frames: u32,
}

/// Length of a slot of a measured phase, seconds. Even slots belong to
/// every client, odd slots to client 0 alone.
const SLOT_S: f64 = 0.5;

/// The slot at `at_s`, if client `client` is to send then.
fn sending_slot(client: usize, at_s: f64) -> Option<u32> {
    let slot = (at_s / SLOT_S) as u32;
    (slot.is_multiple_of(2) || client == 0).then_some(slot)
}

/// Seconds from `at_s` to the start of the next slot.
fn until_next_slot(at_s: f64) -> f64 {
    ((at_s / SLOT_S).floor() + 1.0) * SLOT_S - at_s
}

/// What one client (or several, merged) saw over a phase.
#[derive(Debug, Default)]
struct Tally {
    samples: Vec<Sample>,
    sent: Sent,
    attempted: u64,
    failed: u64,
    overloaded: u64,
    /// Replies of the wrong kind or count: a broken server, not a miss.
    malformed: u64,
    /// Lookup replies, and how many matched the generator's expectation.
    lookups_answered: u64,
    lookups_as_expected: u64,
    hits: u64,
    first_error: Option<String>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.sent.add(&other.sent);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.overloaded += other.overloaded;
        self.malformed += other.malformed;
        self.lookups_answered += other.lookups_answered;
        self.lookups_as_expected += other.lookups_as_expected;
        self.hits += other.hits;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// Holds `response` against what the generator expected.
    fn judge(&mut self, request: &BatchRequest, expect: &[Expect], response: &BatchResponse) {
        if response.replies.len() != request.frames.len() {
            self.malformed += 1;
            return;
        }
        for (reply, want) in response.replies.iter().zip(expect) {
            match (reply, want) {
                (Reply::Accepted, Expect::Accepted) => {}
                (Reply::Hit(hit), Expect::Hit(label)) => {
                    self.lookups_answered += 1;
                    self.hits += 1;
                    self.lookups_as_expected += u64::from(hit.label == *label);
                }
                (Reply::Miss, Expect::Miss) => {
                    self.lookups_answered += 1;
                    self.lookups_as_expected += 1;
                }
                (Reply::Hit(_), Expect::Miss) => {
                    self.lookups_answered += 1;
                    self.hits += 1;
                }
                (Reply::Miss, Expect::Hit(_)) => self.lookups_answered += 1,
                _ => self.malformed += 1,
            }
        }
    }

    fn send(
        &mut self,
        client: &EdgeClient,
        request: &BatchRequest,
        expect: &[Expect],
    ) -> Option<f64> {
        self.attempted += 1;
        let start = Instant::now();
        let result = client.batch(request);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(response) => {
                self.sent.count(request);
                self.judge(request, expect, &response);
                Some(latency_ms)
            }
            Err(e) => {
                self.failed += 1;
                if matches!(e, ClientError::Overloaded) {
                    self.overloaded += 1;
                }
                self.first_error.get_or_insert_with(|| e.to_string());
                None
            }
        }
    }
}

/// Closed-loop client number `index`: sends from `stream` in the slots
/// that are its own until `seconds` have passed since `started`, with
/// an `edge.client_batch` span per request when `tracer` is on.
fn drive_client(
    client: &EdgeClient,
    index: usize,
    stream: &mut dyn RequestStream,
    started: Instant,
    seconds: f64,
    tracer: &mut Tracer,
) -> Tally {
    let mut tally = Tally::default();
    let mut op = (index as u32) << 24;
    loop {
        let at_s = started.elapsed().as_secs_f64();
        if at_s >= seconds {
            break;
        }
        let Some(slot) = sending_slot(index, at_s) else {
            let rest_s = until_next_slot(at_s).min(seconds - at_s);
            std::thread::sleep(Duration::from_secs_f64(rest_s));
            stream.rested();
            continue;
        };
        let (request, expect) = stream.next_request();
        op += 1;
        let span = tracer.enter("edge.client_batch", SpanId::NONE, op);
        let latency_ms = tally.send(client, &request, &expect);
        tracer.exit(span);
        if let Some(latency_ms) = latency_ms {
            tally.samples.push(Sample {
                slot,
                done_s: started.elapsed().as_secs_f64(),
                latency_ms,
                frames: request.frames.len() as u32,
            });
        }
    }
    tally
}

/// Runs every client's stream against the server for `seconds`, one
/// thread each, and merges what they saw. With a `trace_origin`, each
/// thread records spans timed from it into a tracer of its own; the
/// merged tracer comes back beside the tally.
fn drive_clients(
    server: &ServerChild,
    streams: &mut [Box<dyn RequestStream + Send + '_>],
    seconds: f64,
    trace_origin: Option<Instant>,
) -> (Tally, Tracer) {
    let started = Instant::now();
    let results: Vec<(Tally, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(index, stream)| {
                let client = server.client();
                scope.spawn(move || {
                    // ~5 k requests/s is the most one client reaches.
                    let mut own = match trace_origin {
                        Some(origin) => Tracer::on(origin, (seconds * 8_000.0) as usize + 64),
                        None => Tracer::off(),
                    };
                    let tally =
                        drive_client(&client, index, stream.as_mut(), started, seconds, &mut own);
                    (tally, own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut merged = Tally::default();
    let mut tracer = Tracer::off();
    for (tally, own) in results {
        merged.merge(tally);
        tracer.absorb(own);
    }
    (merged, tracer)
}

/// The blocks of a phase, one a slot: those in which every client sent
/// and those in which client 0 sent alone — with a single client, every
/// slot is both. A block lasts from the start of its slot to the last
/// completion of a request sent in it.
#[derive(Debug, Default)]
struct SlotBlocks {
    loaded: Vec<Block>,
    alone: Vec<Block>,
}

fn blocks_of(samples: &[Sample], clients: usize) -> SlotBlocks {
    let mut blocks = SlotBlocks::default();
    let count = samples.iter().map(|s| s.slot + 1).max().unwrap_or(0);
    for slot in 0..count {
        let own: Vec<&Sample> = samples.iter().filter(|s| s.slot == slot).collect();
        let end_s = own.iter().map(|s| s.done_s).fold(0.0, f64::max);
        let block = Block {
            frames: own.iter().map(|s| u64::from(s.frames)).sum(),
            seconds: end_s - f64::from(slot) * SLOT_S,
            latencies_ms: own.iter().map(|s| s.latency_ms).collect(),
        };
        if clients == 1 {
            blocks.loaded.push(block.clone());
            blocks.alone.push(block);
        } else if slot % 2 == 0 {
            blocks.loaded.push(block);
        } else {
            blocks.alone.push(block);
        }
    }
    blocks
}

/// Requests per second of each block that answered any.
fn request_rates(blocks: &[Block]) -> Vec<f64> {
    blocks
        .iter()
        .filter(|b| b.seconds > 0.0 && !b.latencies_ms.is_empty())
        .map(|b| b.latencies_ms.len() as f64 / b.seconds)
        .collect()
}

fn parse_health(line: &str) -> Option<EdgeCounters> {
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    // "ok: B batches (O overloaded), H/L lookups hit, A adopted,
    //  I inserts, G gossip, T timeouts"
    match numbers[..] {
        [batches, overloads, hits, lookups, hits_adopted, inserts, gossip_entries, query_timeouts] => {
            Some(EdgeCounters {
                batches,
                lookups,
                hits,
                inserts,
                gossip_entries,
                overloads,
                queries_sent: 0,
                query_timeouts,
                hits_adopted,
            })
        }
        _ => None,
    }
}

/// Holds the server's `/health` totals against what the generator sent.
fn check_health(
    kind: EdgeKind,
    server: &ServerChild,
    sent: &Sent,
    overloaded: u64,
    checks: &mut Checks,
) -> Option<EdgeCounters> {
    let line = match server.client().health() {
        Ok(line) => line,
        Err(e) => {
            checks.fail(format!("{}: /health: {e}", kind.name()));
            return None;
        }
    };
    let Some(mut books) = parse_health(&line) else {
        checks.fail(format!(
            "{}: cannot parse /health line {line:?}",
            kind.name()
        ));
        return None;
    };
    let theirs = Sent {
        batches: books.batches,
        lookups: books.lookups,
        inserts: books.inserts,
        gossip: books.gossip_entries,
    };
    checks.require(theirs == *sent && books.overloads == overloaded, || {
        format!(
            "{}: /health says {theirs:?} with {} overloads, the generator sent {sent:?} and saw {overloaded}",
            kind.name(),
            books.overloads
        )
    });
    // The device-side half of the books: every lookup the server saw is
    // one this generator sent.
    books.queries_sent = sent.lookups;
    checks.require(books.reconciles(), || {
        format!(
            "{}: /health counters do not reconcile: {books}",
            kind.name()
        )
    });
    Some(books)
}

/// A freshly spawned, preloaded server with the books of what was sent.
struct Loaded {
    server: ServerChild,
    sent: Sent,
}

/// Spawns a server, fills it to capacity and checks that an exact copy
/// of a preloaded key comes back as a hit with its label.
fn spawn_loaded(kind: EdgeKind, cached: &KeySet, checks: &mut Checks) -> Result<Loaded, String> {
    let server = ServerChild::spawn(&server_binary()?, kind.capacity())?;
    let client = server.client();
    let mut tally = Tally::default();
    for request in gen::preload_requests(cached, PRELOAD_BATCH) {
        let expect = vec![Expect::Accepted; request.frames.len()];
        tally.send(&client, &request, &expect);
    }
    let probe = BatchRequest {
        device: 0,
        frames: vec![Frame::Lookup {
            key: cached.keys[0].clone(),
        }],
    };
    tally.send(&client, &probe, &[Expect::Hit(cached.labels[0])]);
    if let Some(e) = &tally.first_error {
        return Err(format!("{}: preload: {e}", kind.name()));
    }
    checks.require(
        tally.malformed == 0 && tally.lookups_as_expected == 1,
        || {
            format!(
                "{}: an exact copy of a preloaded key did not hit with its label",
                kind.name()
            )
        },
    );
    Ok(Loaded {
        server,
        sent: tally.sent,
    })
}

/// What the device gains from asking this server: a lookup costs the
/// request's latency, plus a local inference when it misses, against a
/// local inference for every frame with no cache at all.
fn latency_reduction_pct(hit_share: f64, request_ms: f64) -> f64 {
    let infer_ms = approxcache::PipelineConfig::new()
        .model
        .base_latency
        .value();
    100.0 * (hit_share - request_ms / infer_ms)
}

fn tally_into(kind: EdgeKind, tally: &Tally, out: &mut Outcome) {
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    out.checks.require(tally.failed == 0, || {
        format!(
            "{}: {} of {} requests failed, first: {}",
            kind.name(),
            tally.failed,
            tally.attempted,
            tally.first_error.as_deref().unwrap_or("?")
        )
    });
    out.checks.require(tally.malformed == 0, || {
        format!(
            "{}: {} replies of the wrong kind or count",
            kind.name(),
            tally.malformed
        )
    });
}

/// The timed run of an edge workload.
pub fn edge_timed(kind: EdgeKind, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let rng = gen::workload_rng(plan.seed, kind.name());
    let cached = kind.preload(&rng);
    let _one_cpu = kind.confine(&mut out);
    let width = host::load_width();

    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..plan.setup_repeats() {
        if let Some(Loaded { server, .. }) = loaded.take() {
            if let Err(e) = ServerChild::shutdown(server) {
                out.checks.fail(e);
            }
        }
        let start = Instant::now();
        match spawn_loaded(kind, &cached, &mut out.checks) {
            Ok(fresh) => loaded = Some(fresh),
            Err(e) => {
                out.checks.fail(e);
                return out;
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Some(Loaded { server, mut sent }) = loaded else {
        out.checks.fail(format!("{}: no set-up ran", kind.name()));
        return out;
    };

    let mut streams: Vec<_> = (0..width).map(|c| kind.stream(&rng, c, &cached)).collect();
    let (tally, _) = drive_clients(&server, &mut streams, plan.seconds, None);
    drop(streams);
    tally_into(kind, &tally, &mut out);
    sent.add(&tally.sent);
    check_health(kind, &server, &sent, tally.overloaded, &mut out.checks);
    match server.shutdown() {
        Ok(peak_rss_mib) => out.set("peak_rss_mb", peak_rss_mib),
        Err(e) => out.checks.fail(e),
    }

    let blocks = blocks_of(&tally.samples, width);
    // A run shorter than two slots has no slot of client 0 alone.
    let latency_blocks = if blocks.alone.is_empty() {
        &blocks.loaded
    } else {
        &blocks.alone
    };
    match outcome::pace(&blocks.loaded, latency_blocks) {
        Some(pace) => {
            out.set("frames_per_s", pace.frames_per_s);
            out.set("latency_p50_ms", pace.latency_p50_ms);
            out.set("latency_p90_ms", pace.latency_p90_ms);
            out.notes.extend(pace.describe());
            let hit_share = tally.hits as f64 / (tally.lookups_answered as f64).max(1.0);
            out.set(
                "latency_reduction_pct",
                latency_reduction_pct(hit_share, pace.latency_p50_ms),
            );
        }
        None => out
            .checks
            .fail(format!("{}: no request completed", kind.name())),
    }
    out.set(
        "accuracy_pct",
        100.0 * tally.lookups_as_expected as f64 / (tally.lookups_answered as f64).max(1.0),
    );
    out.set("setup_s", stats::median(&setup_s));

    let rates = request_rates(&blocks.loaded);
    if !rates.is_empty() {
        out.note(outcome::describe("requests_per_s", "req/s", &rates));
    }
    out.note(format!("{}: closed-loop clients: {width}", kind.name()));
    out
}

// ---------------------------------------------------------------------
// The traced pass
// ---------------------------------------------------------------------

fn in_process_cache(kind: EdgeKind, cached: &KeySet) -> Result<EdgeCache, String> {
    let cache = EdgeCache::new(EdgeCacheConfig {
        capacity: kind.capacity(),
        ..EdgeCacheConfig::default()
    })
    .map_err(str::to_owned)?;
    for (i, request) in gen::preload_requests(cached, PRELOAD_BATCH)
        .iter()
        .enumerate()
    {
        cache
            .apply_batch(request, SimTime::from_nanos(1_000 * i as u64))
            .map_err(|e| format!("in-process preload: {e}"))?;
    }
    Ok(cache)
}

/// `apply_batch` calls per second that `threads` threads reach together
/// on one shared in-process cache, each on a stream of its own.
fn apply_rate(
    kind: EdgeKind,
    cache: &EdgeCache,
    cached: &KeySet,
    rng: &SimRng,
    threads: usize,
    seconds: f64,
) -> f64 {
    let origin = Instant::now();
    let calls: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|c| {
                let mut stream = kind.stream(rng, c, cached);
                scope.spawn(move || {
                    let mut calls = 0u64;
                    while origin.elapsed().as_secs_f64() < seconds {
                        let (request, _) = stream.next_request();
                        let now =
                            SimTime::from_nanos(1_000_000_000 + origin.elapsed().as_nanos() as u64);
                        std::hint::black_box(cache.apply_batch(&request, now).ok());
                        calls += 1;
                    }
                    calls
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .sum()
    });
    calls as f64 / origin.elapsed().as_secs_f64()
}

/// The traced pass of an edge workload over about `budget_s` seconds:
/// the live server with an `edge.client_batch` span per request, the
/// same phase again untraced, the `/health` floor, then the in-process
/// replica (`edge.encode` → `edge.decode` → `edge.apply_batch` →
/// response codec) on client 0's request stream.
pub fn edge_pass(
    kind: EdgeKind,
    seed: u64,
    budget_s: f64,
    trace_to: Option<&Path>,
    out: &mut Outcome,
) {
    let rng = gen::workload_rng(seed, kind.name());
    let cached = kind.preload(&rng);
    // A phase shorter than this can end before a client thread has
    // started (a smoke run's thirty-second of 0.2 s would be 1.6 ms).
    let phase_s = (budget_s / 4.0).max(0.05);
    // Confined, where the workload is, for as long as the server lives;
    // the in-process replica after it has every CPU again.
    let one_cpu = kind.confine(out);
    let width = host::load_width();

    let Loaded { server, mut sent } = match spawn_loaded(kind, &cached, &mut out.checks) {
        Ok(loaded) => loaded,
        Err(e) => {
            out.checks.fail(e);
            return;
        }
    };
    let origin = Instant::now();
    let mut streams: Vec<_> = (0..width).map(|c| kind.stream(&rng, c, &cached)).collect();
    let (traced, mut tracer) = drive_clients(&server, &mut streams, phase_s, Some(origin));
    let (timed, _) = drive_clients(&server, &mut streams, phase_s, None);
    drop(streams);
    tally_into(kind, &traced, out);
    tally_into(kind, &timed, out);
    sent.add(&traced.sent);
    sent.add(&timed.sent);

    let client = server.client();
    let mut health_us = Vec::with_capacity(HEALTH_PROBES);
    for _ in 0..HEALTH_PROBES {
        let start = Instant::now();
        if client.health().is_ok() {
            health_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let books = check_health(
        kind,
        &server,
        &sent,
        traced.overloaded + timed.overloaded,
        &mut out.checks,
    );
    if let Err(e) = server.shutdown() {
        out.checks.fail(e);
    }
    drop(one_cpu);

    let request_rate = |tally: &Tally| {
        stats::fastest_rate(&request_rates(&blocks_of(&tally.samples, width).loaded))
    };
    let live_ms = stats::sorted(
        &traced
            .samples
            .iter()
            .chain(&timed.samples)
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    );
    if traced.samples.is_empty() || timed.samples.is_empty() || health_us.is_empty() {
        out.checks.fail(format!(
            "{}: a live phase completed no request",
            kind.name()
        ));
        return;
    }
    let requests = (traced.attempted + timed.attempted) as f64;
    out.set("edge.requests_per_s", request_rate(&timed));
    out.set("edge.request_p99_ms", stats::percentile(&live_ms, 99.0));
    out.set(
        "edge.overload_ratio",
        (traced.overloaded + timed.overloaded) as f64 / requests.max(1.0),
    );
    out.set("edge.health_rtt_us", stats::median(&health_us));
    if let Some(books) = books {
        out.set(
            "edge.hit_ratio",
            books.hits as f64 / (books.lookups as f64).max(1.0),
        );
    }

    // The replica: the same cache contents and client 0's requests, in
    // process, so codec and cache time can be told from socket time.
    let cache = match in_process_cache(kind, &cached) {
        Ok(cache) => cache,
        Err(e) => {
            out.checks.fail(e);
            return;
        }
    };
    let mut stream = kind.stream(&rng, 0, &cached);
    // Six spans a request; no request takes under some 15 us in process.
    let mut replica = Tracer::on(origin, (phase_s * 70_000.0 * 6.0) as usize + 64);
    let mut op_us = Vec::new();
    let mut bytes = 0usize;
    let mut op = 1u32 << 30;
    let started = Instant::now();
    while op_us.is_empty() || started.elapsed().as_secs_f64() < phase_s {
        let (request, expect) = stream.next_request();
        op += 1;
        let start = Instant::now();
        let root = replica.enter("edge.replica", SpanId::NONE, op);
        let span = replica.enter("edge.encode", root, op);
        let wire = request.encode();
        replica.exit(span);
        let span = replica.enter("edge.decode", root, op);
        let decoded = BatchRequest::decode(&wire);
        replica.exit(span);
        let now = SimTime::from_nanos(1_000_000_000 + started.elapsed().as_nanos() as u64);
        let span = replica.enter("edge.apply_batch", root, op);
        let response = decoded.ok().and_then(|r| cache.apply_batch(&r, now).ok());
        replica.exit(span);
        let span = replica.enter("edge.encode", root, op);
        let reply_wire = response.as_ref().map(BatchResponse::encode);
        replica.exit(span);
        let span = replica.enter("edge.decode", root, op);
        let reply = reply_wire.as_deref().map(BatchResponse::decode);
        replica.exit(span);
        replica.exit(root);
        op_us.push(start.elapsed().as_secs_f64() * 1e6);
        bytes += wire.len();
        let answered = matches!(&reply, Some(Ok(r)) if r.replies.len() == expect.len());
        out.checks.require(answered, || {
            format!("{}: the in-process replica lost a request", kind.name())
        });
        if !answered {
            return;
        }
    }
    let ops = op_us.len() as f64;
    let layers = replica.layers();
    let per_op = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / ops);
    out.set("edge.request_bytes", bytes as f64 / ops);
    out.set("edge.encode_ns", per_op("edge.encode"));
    out.set("edge.decode_ns", per_op("edge.decode"));
    out.set("edge.apply_ns", per_op("edge.apply_batch"));
    // Requests that had the server to themselves, when the phase was
    // long enough to have any: those waited for no lock.
    let unloaded_ms: Vec<f64> = traced
        .samples
        .iter()
        .chain(&timed.samples)
        .filter(|s| width == 1 || s.slot % 2 == 1)
        .map(|s| s.latency_ms)
        .collect();
    let request_us = if unloaded_ms.is_empty() {
        stats::percentile(&live_ms, 50.0) * 1e3
    } else {
        stats::median(&unloaded_ms) * 1e3
    };
    out.set(
        "edge.server_overhead_us",
        request_us - stats::median(&op_us),
    );
    let alone = apply_rate(kind, &cache, &cached, &rng, 1, phase_s / 2.0);
    let together = apply_rate(
        kind,
        &cache,
        &cached,
        &rng,
        host::load_width(),
        phase_s / 2.0,
    );
    out.set("edge.apply_concurrency_speedup", together / alone);

    if let Some(path) = trace_to {
        let (timed_rate, traced_rate) = (request_rate(&timed), request_rate(&traced));
        out.set(
            "benchmark.trace_overhead_pct",
            100.0 * (timed_rate / traced_rate - 1.0),
        );
        let coverage = replica.coverage("edge.replica");
        out.checks.require(coverage >= 0.95, || {
            format!(
                "{}: spans cover only {:.1} % of a replica request",
                kind.name(),
                coverage * 100.0
            )
        });
        tracer.absorb(replica);
        out.checks.require(tracer.dropped() == 0, || {
            format!("{}: {} spans dropped", kind.name(), tracer.dropped())
        });
        out.note(format!(
            "trace {}: {} spans, layers cover {:.2} % of a replica request, {timed_rate:.0} req/s timed, {traced_rate:.0} traced, {width} clients, {ops:.0} replica requests",
            kind.name(),
            tracer.spans().len(),
            coverage * 100.0
        ));
        if let Err(e) = tracer.write_json(path, kind.name()) {
            out.checks.fail(format!("write {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_line_parses_into_counters() {
        let books = EdgeCounters {
            batches: 40,
            lookups: 96,
            hits: 67,
            inserts: 8192,
            gossip_entries: 5,
            overloads: 1,
            ..EdgeCounters::default()
        };
        let parsed = parse_health(&format!("ok: {books}\n")).expect("parses");
        assert_eq!(parsed, books);
        assert!(parse_health("ok: nothing to see").is_none());
    }

    #[test]
    fn even_slots_are_everybodys_and_odd_slots_client_zeros() {
        assert_eq!(sending_slot(0, 0.2), Some(0));
        assert_eq!(sending_slot(1, 0.2), Some(0));
        // Slot 1 is client 0's alone.
        assert_eq!(sending_slot(0, 0.6), Some(1));
        assert_eq!(sending_slot(1, 0.6), None);
        assert_eq!(sending_slot(1, 1.2), Some(2));
        assert!((until_next_slot(0.6) - 0.4).abs() < 1e-12);
        assert!((until_next_slot(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_phase_has_one_block_a_slot() {
        let sample = |slot, done_s, latency_ms| Sample {
            slot,
            done_s,
            latency_ms,
            frames: 2,
        };
        // The last request of slot 0 is answered after the slot ended;
        // slot 2 is handed over out of order.
        let samples = [
            sample(0, 0.1, 1.0),
            sample(0, 0.51, 2.0),
            sample(1, 0.55, 3.0),
            sample(1, 0.65, 4.0),
            sample(2, 1.2, 6.0),
            sample(2, 1.1, 5.0),
        ];
        let blocks = blocks_of(&samples, 2);
        assert_eq!((blocks.loaded.len(), blocks.alone.len()), (2, 1));
        assert_eq!(blocks.loaded[0].frames, 4);
        assert!((blocks.loaded[0].seconds - 0.51).abs() < 1e-9);
        assert!((blocks.loaded[1].seconds - 0.2).abs() < 1e-9);
        assert_eq!(blocks.alone[0].latencies_ms, vec![3.0, 4.0]);
        assert!((blocks.alone[0].seconds - 0.15).abs() < 1e-9);
        let rates = request_rates(&blocks.loaded);
        assert!((rates[1] - 10.0).abs() < 1e-9);
        assert!(blocks_of(&[], 2).loaded.is_empty());
        // A single client's slots are loaded and alone at once.
        let blocks = blocks_of(&samples, 1);
        assert_eq!((blocks.loaded.len(), blocks.alone.len()), (3, 3));
    }

    #[test]
    fn replies_are_judged_against_expectations() {
        let key = gen::uniform_key(&mut SimRng::seed(1));
        let request = BatchRequest {
            device: 1,
            frames: vec![
                Frame::Lookup { key: key.clone() },
                Frame::Lookup { key: key.clone() },
                Frame::Insert {
                    key,
                    label: 3,
                    confidence: 0.9,
                },
            ],
        };
        let hit = |label| {
            Reply::Hit(edge::EdgeHit {
                label,
                confidence: 0.9,
                distance: 0.0,
            })
        };
        let expect = [Expect::Hit(3), Expect::Hit(3), Expect::Accepted];
        let mut tally = Tally::default();
        tally.judge(
            &request,
            &expect,
            &BatchResponse {
                replies: vec![hit(3), hit(4), Reply::Accepted],
            },
        );
        assert_eq!((tally.lookups_answered, tally.lookups_as_expected), (2, 1));
        assert_eq!((tally.hits, tally.malformed), (2, 0));
        // A short reply vector and a lookup answered `Accepted` are a
        // broken server, not a miss.
        tally.judge(&request, &expect, &BatchResponse { replies: vec![] });
        tally.judge(
            &request,
            &expect,
            &BatchResponse {
                replies: vec![Reply::Accepted, Reply::Miss, Reply::Accepted],
            },
        );
        assert_eq!(tally.malformed, 2);
    }
}
