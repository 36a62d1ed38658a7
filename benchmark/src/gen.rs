//! Seeded input generators: the scenarios of the sim workloads and the
//! key sets and request streams of the edge workloads.
//!
//! Everything a workload feeds the program under test comes from here and
//! from `--seed`; the program sees only the generated scenarios and
//! requests. The same seed gives byte-identical inputs (self-tested).

use approxcache::Scenario;
use edge::{BatchRequest, Frame};
use features::FeatureVector;
use imu::MotionProfile;
use simcore::{SimDuration, SimRng};

/// Key dimension of every edge key: `PipelineConfig::key_dim`.
pub const KEY_DIM: usize = 64;
/// Near-duplicate keys per recognized item in a preloaded cache — the
/// A-kNN homogeneity premise (several views of one object, one label).
const CLUSTER_SIZE: usize = 8;
/// Per-component spread inside a cluster. Members end up ~0.57 apart:
/// outside the store's 0.25 dedup distance (so every one is stored) and
/// inside the 1.0 hit threshold (so they vote together).
const CLUSTER_SIGMA: f64 = 0.05;
/// Per-component noise of a "near" query: ~0.16 from its source key.
const QUERY_SIGMA: f64 = 0.02;
/// Confidence attached to generated inserts and ads; above both
/// admission floors (0.75 local, 0.8 peer), so none is refused.
const CONFIDENCE: f64 = 0.9;
/// Lookup frames per `edge-lookup` request.
const LOOKUPS_PER_REQUEST: usize = 8;
/// Share of `edge-lookup` queries drawn near a cached key.
const NEAR_SHARE: f64 = 0.7;
/// Share of near queries that are exact copies of the cached key.
const EXACT_SHARE: f64 = 0.125;
/// Frames of an `edge-ingest` request: this many or one more. The sim's
/// devices, the only callers of the edge tier in the repo, send one frame
/// a request, so what a request costs is connect, HTTP parse, codec and
/// worker hand-off around some 80 us of cache work; keep-alive or an
/// async server must show here.
const INGEST_FRAMES_MIN: usize = 1;

/// The random stream of one workload under one seed.
pub fn workload_rng(seed: u64, workload: &str) -> SimRng {
    SimRng::seed(seed).split("benchmark").split(workload)
}

/// The paper's four headline single-device profiles, easiest first, each
/// `secs` simulated seconds long.
pub fn solo_scenarios(secs: u64) -> Vec<Scenario> {
    workloads::video::headline_set()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(secs)))
        .collect()
}

/// `devices` slow-panning phones on a 20 m grid, so each has about eight
/// neighbours inside WiFi-Direct range whatever the population.
pub fn fleet_scenario(devices: usize, duration: SimDuration) -> Scenario {
    let mut scenario =
        Scenario::multi_device(MotionProfile::SlowPan { deg_per_sec: 20.0 }, devices)
            .with_duration(duration);
    scenario.spawn_spacing = 20.0;
    scenario
}

fn key_from(components: Vec<f32>) -> FeatureVector {
    match FeatureVector::from_vec(components) {
        Ok(key) => key,
        Err(e) => unreachable!("generated components are finite: {e}"),
    }
}

/// A key uniform in `[-1, 1]^KEY_DIM`: ~6.5 from any other such key, far
/// beyond every threshold in play.
pub fn uniform_key(rng: &mut SimRng) -> FeatureVector {
    key_from(
        (0..KEY_DIM)
            .map(|_| rng.uniform(-1.0, 1.0) as f32)
            .collect(),
    )
}

/// `center` with independent normal noise of `sigma` on each component.
pub fn near(center: &FeatureVector, sigma: f64, rng: &mut SimRng) -> FeatureVector {
    key_from(
        center
            .as_slice()
            .iter()
            .map(|&c| c + rng.normal(0.0, sigma) as f32)
            .collect(),
    )
}

/// Keys with the label each was stored under.
#[derive(Debug, Clone)]
pub struct KeySet {
    pub keys: Vec<FeatureVector>,
    pub labels: Vec<u32>,
}

/// `n` keys in clusters of [`CLUSTER_SIZE`], one label per cluster: what
/// a cache that has recognized `n / 8` objects a few times each holds.
pub fn clustered_keys(n: usize, rng: &mut SimRng) -> KeySet {
    let clusters = n.div_ceil(CLUSTER_SIZE).max(1);
    let centers: Vec<FeatureVector> = (0..clusters).map(|_| uniform_key(rng)).collect();
    let keys = (0..n)
        .map(|i| near(&centers[i % clusters], CLUSTER_SIGMA, rng))
        .collect();
    let labels = (0..n).map(|i| (i % clusters) as u32).collect();
    KeySet { keys, labels }
}

/// `n` unrelated keys with arbitrary labels (the `edge-ingest` preload).
pub fn scattered_keys(n: usize, rng: &mut SimRng) -> KeySet {
    KeySet {
        keys: (0..n).map(|_| uniform_key(rng)).collect(),
        labels: (0..n).map(|_| rng.index(1000) as u32).collect(),
    }
}

/// `Insert` batches that load `set` into a cache, `per_batch` at a time.
pub fn preload_requests(set: &KeySet, per_batch: usize) -> Vec<BatchRequest> {
    let frames: Vec<Frame> = set
        .keys
        .iter()
        .zip(&set.labels)
        .map(|(key, &label)| Frame::Insert {
            key: key.clone(),
            label,
            confidence: CONFIDENCE,
        })
        .collect();
    frames
        .chunks(per_batch.max(1))
        .map(|chunk| BatchRequest {
            device: 0,
            frames: chunk.to_vec(),
        })
        .collect()
}

/// The reply a generated frame must get from a correct server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Hit(u32),
    Miss,
    Accepted,
}

/// What the edge workloads' generators have in common: an endless,
/// seeded stream of requests with the replies each must get.
pub trait RequestStream {
    fn next_request(&mut self) -> (BatchRequest, Vec<Expect>);

    /// Told when the client resumes after a slot it sat out: whatever it
    /// wrote before may have been evicted by the others since.
    fn rested(&mut self) {}
}

/// `edge-lookup` traffic of one client: eight lookups a request, 70 %
/// near a preloaded key (an eighth of those exact copies), 30 % far.
#[derive(Debug)]
pub struct LookupStream<'a> {
    client: u64,
    rng: SimRng,
    cached: &'a KeySet,
}

impl<'a> LookupStream<'a> {
    pub fn new(workload: &SimRng, client: usize, cached: &'a KeySet) -> LookupStream<'a> {
        LookupStream {
            client: client as u64,
            rng: workload.split_index("client", client as u64),
            cached,
        }
    }
}

impl RequestStream for LookupStream<'_> {
    fn next_request(&mut self) -> (BatchRequest, Vec<Expect>) {
        let mut frames = Vec::with_capacity(LOOKUPS_PER_REQUEST);
        let mut expect = Vec::with_capacity(LOOKUPS_PER_REQUEST);
        for _ in 0..LOOKUPS_PER_REQUEST {
            if self.rng.chance(NEAR_SHARE) {
                let i = self.rng.index(self.cached.keys.len());
                let source = &self.cached.keys[i];
                let key = if self.rng.chance(EXACT_SHARE) {
                    source.clone()
                } else {
                    near(source, QUERY_SIGMA, &mut self.rng)
                };
                frames.push(Frame::Lookup { key });
                expect.push(Expect::Hit(self.cached.labels[i]));
            } else {
                frames.push(Frame::Lookup {
                    key: uniform_key(&mut self.rng),
                });
                expect.push(Expect::Miss);
            }
        }
        (
            BatchRequest {
                device: self.client,
                frames,
            },
            expect,
        )
    }
}

/// `edge-ingest` traffic of one client: one or two frames a request,
/// 45 % `Insert`, 45 % `GossipAd`, 10 % `Lookup`. Every written key is
/// new, so on a full cache every write evicts. Lookups ask in turn for
/// the key this client wrote last (still cached: while the client keeps
/// sending, nothing can push 1024 newer entries in between) and for a key
/// nobody wrote, so that half of them hit whatever the seed.
#[derive(Debug)]
pub struct IngestStream {
    client: u64,
    rng: SimRng,
    last_written: Option<(FeatureVector, u32)>,
    next_lookup_hits: bool,
}

impl IngestStream {
    pub fn new(workload: &SimRng, client: usize) -> IngestStream {
        IngestStream {
            client: client as u64,
            rng: workload.split_index("client", client as u64),
            last_written: None,
            next_lookup_hits: true,
        }
    }
}

impl RequestStream for IngestStream {
    fn rested(&mut self) {
        self.last_written = None;
    }

    fn next_request(&mut self) -> (BatchRequest, Vec<Expect>) {
        let count = INGEST_FRAMES_MIN + self.rng.index(2);
        let mut frames = Vec::with_capacity(count);
        let mut expect = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = self.rng.uniform(0.0, 1.0);
            if kind < 0.9 {
                let key = uniform_key(&mut self.rng);
                let label = self.rng.index(1000) as u32;
                self.last_written = Some((key.clone(), label));
                frames.push(if kind < 0.45 {
                    Frame::Insert {
                        key,
                        label,
                        confidence: CONFIDENCE,
                    }
                } else {
                    Frame::GossipAd {
                        key,
                        label,
                        confidence: CONFIDENCE,
                    }
                });
                expect.push(Expect::Accepted);
            } else {
                // A hit's turn with nothing written yet stays a hit's turn.
                let written = self.last_written.clone().filter(|_| self.next_lookup_hits);
                self.next_lookup_hits = written.is_none();
                match written {
                    Some((key, label)) => {
                        frames.push(Frame::Lookup { key });
                        expect.push(Expect::Hit(label));
                    }
                    None => {
                        frames.push(Frame::Lookup {
                            key: uniform_key(&mut self.rng),
                        });
                        expect.push(Expect::Miss);
                    }
                }
            }
        }
        (
            BatchRequest {
                device: self.client,
                frames,
            },
            expect,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup_bytes(seed: u64) -> Vec<u8> {
        let rng = workload_rng(seed, "edge-lookup");
        let cached = clustered_keys(64, &mut rng.split("preload"));
        let mut stream = LookupStream::new(&rng, 0, &cached);
        (0..20)
            .flat_map(|_| stream.next_request().0.encode().to_vec())
            .collect()
    }

    fn ingest_bytes(seed: u64) -> Vec<u8> {
        let rng = workload_rng(seed, "edge-ingest");
        let mut stream = IngestStream::new(&rng, 1);
        (0..50)
            .flat_map(|_| stream.next_request().0.encode().to_vec())
            .collect()
    }

    #[test]
    fn same_seed_same_request_bytes_other_seed_other_bytes() {
        assert_eq!(lookup_bytes(42), lookup_bytes(42));
        assert_ne!(lookup_bytes(42), lookup_bytes(7));
        assert_eq!(ingest_bytes(42), ingest_bytes(42));
        assert_ne!(ingest_bytes(42), ingest_bytes(7));
    }

    #[test]
    fn clients_of_one_workload_get_different_streams() {
        let rng = workload_rng(42, "edge-ingest");
        let a = IngestStream::new(&rng, 0)
            .next_request()
            .0
            .encode()
            .to_vec();
        let b = IngestStream::new(&rng, 1)
            .next_request()
            .0
            .encode()
            .to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn scenarios_do_not_depend_on_anything_but_their_arguments() {
        assert_eq!(solo_scenarios(100), solo_scenarios(100));
        assert_eq!(solo_scenarios(100).len(), 4);
        let fleet = fleet_scenario(1000, SimDuration::from_secs(1));
        assert_eq!(fleet, fleet_scenario(1000, SimDuration::from_secs(1)));
        assert_eq!(fleet.devices, 1000);
    }

    #[test]
    fn expectations_line_up_with_frames() {
        let rng = workload_rng(3, "edge-lookup");
        let cached = clustered_keys(128, &mut rng.split("preload"));
        assert_eq!(cached.keys.len(), 128);
        assert_eq!(cached.labels[0], cached.labels[16]);
        let (request, expect) = LookupStream::new(&rng, 0, &cached).next_request();
        assert_eq!(request.frames.len(), LOOKUPS_PER_REQUEST);
        assert_eq!(expect.len(), LOOKUPS_PER_REQUEST);
        let preload = preload_requests(&cached, 50);
        assert_eq!(preload.len(), 3);
        assert_eq!(preload.iter().map(|r| r.frames.len()).sum::<usize>(), 128);
    }
}
