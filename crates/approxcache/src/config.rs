//! System configuration and threshold calibration.

use serde::{Deserialize, Serialize};

use ann::AknnConfig;
use dnnsim::{DeviceClass, ModelProfile};
use features::RandomProjection;
use imu::{ImuGate, MotionCursor, MotionProfile, MotionTrace};
use p2pnet::LinkSpec;
use reuse::{CacheConfig, EvictionPolicy};
use scene::{ClassUniverse, FrameRenderer, SceneConfig, World};
use simcore::{SimDuration, SimRng, SimTime};

use crate::sim::Scenario;

/// CPU-side costs of the caching machinery itself (charged on every frame
/// that reaches the respective stage). Values are typical for a mid-range
/// phone: a downsample + small matrix multiply for features, and a short
/// in-memory scan for the lookup.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Extracting the cache key from a frame.
    pub feature_extract: SimDuration,
    /// Fixed cost of a cache lookup.
    pub lookup_base: SimDuration,
    /// Additional lookup cost per cached entry (linear index).
    pub lookup_per_entry: SimDuration,
    /// Cost of evaluating the IMU gate.
    pub gate_check: SimDuration,
    /// Cost of the cheap scene-change check guarding the fast path (a
    /// low-dimensional sketch of the frame, the simulator's analogue of
    /// frame differencing).
    pub scene_check: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            feature_extract: SimDuration::from_millis(4),
            lookup_base: SimDuration::from_micros(150),
            lookup_per_entry: SimDuration::from_micros(2),
            gate_check: SimDuration::from_micros(80),
            scene_check: SimDuration::from_micros(300),
        }
    }
}

impl CostModel {
    /// The lookup cost at a given cache occupancy.
    pub fn lookup_cost(&self, entries: usize) -> SimDuration {
        self.lookup_base + self.lookup_per_entry * entries as u64
    }
}

/// Peer-collaboration parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PeerConfig {
    /// The radio technology used between devices.
    pub link: LinkSpec,
    /// Maximum peers queried per miss (nearest first, sequentially, until
    /// one answers).
    pub max_peers_queried: usize,
    /// Latency budget for peer querying, as a fraction of the model's
    /// nominal inference latency. Querying stops once the expected next
    /// round-trip would push the frame past the budget — the economics
    /// guard that keeps slow radios (BLE) from costing more than the
    /// inference they try to avoid.
    pub query_budget_fraction: f64,
    /// How many nearest neighbours receive each advertisement.
    pub advertise_fanout: usize,
    /// `None`: the simulation gives devices oracle knowledge of who is in
    /// radio range. `Some`: devices discover each other with periodic
    /// beacons (see [`p2pnet::discovery`]) — what a real deployment runs;
    /// freshly arrived peers are invisible until a beacon lands and
    /// beaconing costs radio bytes.
    pub discovery: Option<p2pnet::DiscoveryConfig>,
    /// Resilience machinery (advertisement retry, dead-peer circuit
    /// breaker, dark-peer fallback — see [`p2pnet::faults`]). `None`
    /// disables all of it: the hardened pipeline is byte-identical to the
    /// pre-resilience one until this is set.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub resilience: Option<p2pnet::ResilienceConfig>,
}

impl PeerConfig {
    /// Validates the link and the optional discovery and resilience
    /// parameters.
    ///
    /// # Errors
    ///
    /// The first invalid field, as the owning `p2pnet` type reports it.
    pub fn validate(&self) -> Result<(), p2pnet::ConfigError> {
        self.link.validate()?;
        if let Some(discovery) = &self.discovery {
            discovery.validate()?;
        }
        if let Some(resilience) = &self.resilience {
            resilience.validate()?;
        }
        Ok(())
    }
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            link: LinkSpec::wifi_direct(),
            max_peers_queried: 3,
            query_budget_fraction: 0.5,
            advertise_fanout: 2,
            discovery: None,
            resilience: None,
        }
    }
}

/// Edge-tier parameters: one shared cache a WAN hop away from every
/// device (the third tier between the local cache and the P2P
/// neighbourhood — see `crates/edge`).
///
/// `None` on [`PipelineConfig::edge`] (the default) keeps the pipeline
/// byte-identical to the edge-free system; when set, a device that
/// missed both its local cache and its peers batches a lookup to the
/// edge before falling back to inference, and pushes fresh inference
/// results (plus optional gossip ads) back up.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeConfig {
    /// The WAN link between a device and the edge server.
    pub link: LinkSpec,
    /// Edge cache capacity in entries.
    pub capacity: usize,
    /// Most request frames the edge admits in flight before shedding
    /// with an overload rejection.
    pub queue_limit: usize,
    /// Latency budget for the edge round-trip, as a fraction of the
    /// model's nominal inference latency — the same economics guard as
    /// [`PeerConfig::query_budget_fraction`], but permissive by default
    /// because one WAN round-trip replaces an entire inference.
    pub query_budget_fraction: f64,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            link: LinkSpec::wan(),
            capacity: 4_096,
            queue_limit: 4_096,
            query_budget_fraction: 0.8,
        }
    }
}

/// Periodic age-based cache expiry.
///
/// In a drifting environment (lighting change, object churn) old entries
/// stop matching anything yet still occupy capacity and dilute k-NN
/// votes; a periodic sweep drops them. Disabled by default — the standard
/// scenarios are stationary in appearance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheExpiry {
    /// Time between sweeps.
    pub interval: SimDuration,
    /// Entries older than this are dropped by a sweep.
    pub max_age: SimDuration,
}

/// The full configuration of one deployment.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The network being accelerated (the *big* model when a cascade is
    /// configured).
    pub model: ModelProfile,
    /// Optional big/little cascade: the little profile plus the
    /// confidence below which it escalates to [`model`](Self::model).
    pub cascade_little: Option<(ModelProfile, f64)>,
    /// The phone class it runs on.
    pub device_class: DeviceClass,
    /// Dimension of cache keys (projection output).
    pub key_dim: usize,
    /// Seed of the shared random projection (all devices must agree).
    pub projection_seed: u64,
    /// The cache configuration (capacity, hit test, eviction, admission).
    pub cache: CacheConfig,
    /// The inertial gate.
    pub gate: ImuGate,
    /// Peer collaboration (None disables the mechanism).
    pub peer: Option<PeerConfig>,
    /// CPU cost model of the caching machinery.
    pub costs: CostModel,
    /// Periodic age-based cache expiry (None disables sweeps).
    pub expiry: Option<CacheExpiry>,
    /// Runtime threshold adaptation via sampled audits (None disables).
    pub adaptive: Option<crate::adaptive::AdaptiveConfig>,
    /// Per-device decision-trace ring capacity (None disables tracing;
    /// the disabled path costs one branch per frame).
    pub trace_capacity: Option<usize>,
    /// Edge cache tier over a WAN link (None — the default — disables
    /// the tier entirely, preserving golden-result byte identity).
    pub edge: Option<EdgeConfig>,
}

impl PipelineConfig {
    /// A configuration with uncalibrated defaults: MobileNetV2 on a
    /// mid-range phone, 64-dim keys, 256-entry LRU cache, default gate and
    /// WiFi-Direct peers. The A-kNN distance threshold defaults to 1.0 and
    /// generally **should be calibrated** — see
    /// [`calibrated`](Self::calibrated).
    pub fn new() -> PipelineConfig {
        PipelineConfig {
            model: dnnsim::zoo::mobilenet_v2(),
            cascade_little: None,
            device_class: DeviceClass::MidRange,
            key_dim: 64,
            projection_seed: 0xcafe,
            cache: CacheConfig::new(256),
            gate: ImuGate::default(),
            peer: Some(PeerConfig::default()),
            costs: CostModel::default(),
            expiry: None,
            adaptive: None,
            trace_capacity: None,
            edge: None,
        }
    }

    /// A configuration whose distance threshold has been calibrated for
    /// the scenario's scene statistics (see [`calibrate_threshold_for`]).
    pub fn calibrated(scenario: &Scenario, seed: u64) -> PipelineConfig {
        let mut config = PipelineConfig::new();
        let threshold = calibrate_threshold_for(
            &scenario.scene,
            config.key_dim,
            config.projection_seed,
            seed,
        );
        config.cache = config.cache.with_aknn(AknnConfig {
            distance_threshold: threshold,
            ..AknnConfig::default()
        });
        config
    }

    /// Replaces the model profile.
    pub fn with_model(mut self, model: ModelProfile) -> PipelineConfig {
        self.model = model;
        self
    }

    /// Configures a big/little cascade: `little` answers when its
    /// confidence is at least `escalation_threshold`, otherwise the
    /// configured [`model`](Self::model) also runs.
    pub fn with_cascade(
        mut self,
        little: ModelProfile,
        escalation_threshold: f64,
    ) -> PipelineConfig {
        self.cascade_little = Some((little, escalation_threshold));
        self
    }

    /// Replaces the cache configuration.
    pub fn with_cache(mut self, cache: CacheConfig) -> PipelineConfig {
        self.cache = cache;
        self
    }

    /// Replaces the gate.
    pub fn with_gate(mut self, gate: ImuGate) -> PipelineConfig {
        self.gate = gate;
        self
    }

    /// Replaces or disables peer collaboration.
    pub fn with_peer(mut self, peer: Option<PeerConfig>) -> PipelineConfig {
        self.peer = peer;
        self
    }

    /// Replaces the eviction policy, keeping everything else.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> PipelineConfig {
        self.cache = self.cache.clone().with_eviction(eviction);
        self
    }

    /// Enables or disables periodic cache expiry.
    pub fn with_expiry(mut self, expiry: Option<CacheExpiry>) -> PipelineConfig {
        self.expiry = expiry;
        self
    }

    /// Enables or disables runtime threshold adaptation.
    pub fn with_adaptive(
        mut self,
        adaptive: Option<crate::adaptive::AdaptiveConfig>,
    ) -> PipelineConfig {
        self.adaptive = adaptive;
        self
    }

    /// Enables per-frame decision tracing with the given ring capacity
    /// per device (None disables).
    pub fn with_trace_capacity(mut self, capacity: Option<usize>) -> PipelineConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Enables or disables the edge cache tier.
    pub fn with_edge(mut self, edge: Option<EdgeConfig>) -> PipelineConfig {
        self.edge = edge;
        self
    }

    /// Builds the shared projection for this configuration over raw
    /// descriptors of `descriptor_dim`.
    pub fn build_projection(&self, descriptor_dim: usize) -> RandomProjection {
        RandomProjection::new(descriptor_dim, self.key_dim, self.projection_seed)
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::new()
    }
}

/// Calibrates the A-kNN distance threshold for a scene configuration by
/// sampling same-subject re-render distances vs cross-class distances in
/// the *projected key space* and running the error-minimizing cut from
/// [`reuse::calibrate`].
///
/// This is what a real deployment does with a small labelled warm-up set.
pub fn calibrate_threshold_for(
    scene_config: &SceneConfig,
    key_dim: usize,
    projection_seed: u64,
    seed: u64,
) -> f64 {
    let mut rng = SimRng::seed(seed).split("threshold-calibration");
    let universe = ClassUniverse::generate(scene_config, &mut rng);
    let world = World::generate(&universe, scene_config, &mut rng);
    let renderer = FrameRenderer::new(scene_config);
    let projection = RandomProjection::new(scene_config.descriptor_dim, key_dim, projection_seed);

    let mut same = Vec::new();
    let mut cross = Vec::new();
    let objects: Vec<_> = world.objects().iter().take(24).cloned().collect();
    for (i, obj) in objects.iter().enumerate() {
        // Two slightly different views of the same object.
        let base_pose = imu::Pose {
            x: obj.x - 4.0,
            y: obj.y,
            yaw: 0.0,
            pitch: 0.0,
        };
        let nudged_pose = imu::Pose {
            yaw: 1.0f64.to_radians(),
            ..base_pose
        };
        let a = renderer.render(&world, &base_pose, SimTime::ZERO, &mut rng);
        let b = renderer.render(&world, &nudged_pose, SimTime::ZERO, &mut rng);
        if a.subject != obj.id || b.subject != a.subject {
            continue; // camera resolved something else; skip the pair
        }
        let ka = projection.project(&a.descriptor);
        let kb = projection.project(&b.descriptor);
        same.push(features::distance::euclidean(&ka, &kb));
        // Cross-class pair: this object vs the next object of a different
        // class.
        if let Some(other) = objects.iter().skip(i + 1).find(|o| o.class != obj.class) {
            let other_pose = imu::Pose {
                x: other.x - 4.0,
                y: other.y,
                yaw: 0.0,
                pitch: 0.0,
            };
            let c = renderer.render(&world, &other_pose, SimTime::ZERO, &mut rng);
            if c.truth != a.truth {
                let kc = projection.project(&c.descriptor);
                cross.push(features::distance::euclidean(&ka, &kc));
            }
        }
    }
    if same.is_empty() || cross.is_empty() {
        // Degenerate scene (e.g. one class): fall back to a permissive cut.
        return 1.0;
    }
    reuse::calibrate::calibrate_threshold(&same, &cross).threshold
}

/// Derives a per-device spawn position so that `count` devices share the
/// world without stacking on one point: a grid with `spacing` metres
/// between neighbours, centred on the origin.
pub fn spawn_position(device: usize, count: usize, spacing: f64) -> (f64, f64) {
    let cols = (count as f64).sqrt().ceil() as usize;
    let col = device % cols;
    let row = device / cols;
    let offset = (cols as f64 - 1.0) / 2.0;
    (
        (col as f64 - offset) * spacing,
        (row as f64 - offset) * spacing,
    )
}

/// Convenience: per-device motion traces for a scenario (same profile,
/// independent randomness, shifted spawn points): each device's
/// [`MotionCursor`] run out, the same motion the simulation loops
/// stream.
pub fn device_traces(
    profile: MotionProfile,
    devices: usize,
    duration: SimDuration,
    imu_rate_hz: f64,
    spacing: f64,
    rng: &SimRng,
) -> Vec<MotionTrace> {
    (0..devices)
        .map(|d| {
            device_motion(profile, d, devices, duration, imu_rate_hz, spacing, rng).into_trace()
        })
        .collect()
}

/// Device `d` of `devices`' ground-truth motion, on its own stream
/// (`split_index("motion-trace", d)`) and shifted to its spawn point.
pub(crate) fn device_motion(
    profile: MotionProfile,
    d: usize,
    devices: usize,
    duration: SimDuration,
    imu_rate_hz: f64,
    spacing: f64,
    rng: &SimRng,
) -> MotionCursor {
    let (dx, dy) = spawn_position(d, devices, spacing);
    MotionCursor::new(
        profile,
        duration,
        imu_rate_hz,
        rng.split_index("motion-trace", d as u64),
    )
    .with_offset(dx, dy)
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_coherent() {
        let config = PipelineConfig::new();
        assert_eq!(config.model.name, "mobilenet_v2");
        assert_eq!(config.key_dim, 64);
        config.cache.validate();
        let projection = config.build_projection(256);
        assert_eq!(projection.dim_out(), 64);
    }

    #[test]
    fn builders_replace_fields() {
        let config = PipelineConfig::new()
            .with_model(dnnsim::zoo::resnet50())
            .with_peer(None)
            .with_eviction(EvictionPolicy::Lfu);
        assert_eq!(config.model.name, "resnet50");
        assert!(config.peer.is_none());
        assert_eq!(config.cache.eviction.name(), "lfu");
    }

    #[test]
    fn cost_model_scales_with_entries() {
        let costs = CostModel::default();
        let empty = costs.lookup_cost(0);
        let full = costs.lookup_cost(1000);
        assert!(full > empty);
        assert_eq!(
            (full - empty).as_micros(),
            2_000,
            "1000 entries at 2 µs each"
        );
    }

    #[test]
    fn calibrated_threshold_separates_scene_scales() {
        let scene = SceneConfig::default();
        let threshold = calibrate_threshold_for(&scene, 64, 0xcafe, 7);
        // Same-view distances in key space are ~noise scale; cross-class
        // are ~spread scale. The cut must sit strictly between.
        assert!(threshold > 0.5, "threshold {threshold} too tight");
        assert!(threshold < 14.0, "threshold {threshold} too loose");
    }

    #[test]
    fn calibration_is_deterministic_in_seed() {
        let scene = SceneConfig::default();
        let a = calibrate_threshold_for(&scene, 64, 1, 9);
        let b = calibrate_threshold_for(&scene, 64, 1, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn spawn_positions_are_distinct_and_centred() {
        let positions: Vec<(f64, f64)> = (0..9).map(|d| spawn_position(d, 9, 4.0)).collect();
        let mut unique = positions.clone();
        unique.sort_by(|a, b| a.partial_cmp(b).unwrap());
        unique.dedup();
        assert_eq!(unique.len(), 9);
        let cx: f64 = positions.iter().map(|p| p.0).sum::<f64>() / 9.0;
        let cy: f64 = positions.iter().map(|p| p.1).sum::<f64>() / 9.0;
        assert!(cx.abs() < 1e-9 && cy.abs() < 1e-9);
    }

    #[test]
    fn device_traces_are_offset_and_independent() {
        let rng = SimRng::seed(3);
        let traces = device_traces(
            MotionProfile::Stationary,
            4,
            SimDuration::from_secs(1),
            50.0,
            5.0,
            &rng,
        );
        assert_eq!(traces.len(), 4);
        let starts: Vec<(f64, f64)> = traces
            .iter()
            .map(|t| (t.poses()[0].x, t.poses()[0].y))
            .collect();
        let mut unique = starts.clone();
        unique.sort_by(|a, b| a.partial_cmp(b).unwrap());
        unique.dedup();
        assert_eq!(unique.len(), 4, "devices must not stack");
    }
}
