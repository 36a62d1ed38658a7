//! One smartphone running the reuse pipeline.

use serde::{Deserialize, Serialize};

use ann::MissReason;
use dnnsim::{CascadeModel, DnnModel, EnergyModel, InferenceBackend, Radio};
use features::{FeatureVector, RandomProjection};
use imu::{GateDecision, ImuSample, MotionEstimator};
use p2pnet::{P2pMessage, RemoteHit, ResilienceConfig, ResilienceCounters, Transport, WireEntry};
use reuse::{EntrySource, LookupResult, LookupScratch, PeerLookup, SharedCache};
use scene::{ClassId, Frame};
use simcore::units::Millijoules;
use simcore::{
    FrameTrace, SimDuration, SimRng, SimTime, TraceGate, TraceLookup, TraceMissReason, TracePath,
    TracePeer, TraceRing,
};
use std::sync::Arc;

use crate::baseline::{ExactCache, SystemVariant};
use crate::config::PipelineConfig;

/// Seed of the scene-change sketch projection. Deliberately a constant
/// distinct from any key-projection seed: the sketch is a private
/// change detector, not a shared key space.
const SCENE_SKETCH_SEED: u64 = 0x5ce_17e;

/// Dimension of the scene-change sketch: small, so the check stays much
/// cheaper than feature extraction.
const SCENE_SKETCH_DIM: usize = 16;

/// Sketch distance above which the scene counts as changed. Same-subject
/// re-renders of the default scene sit well below 10; subject changes sit
/// well above 15.
const SCENE_CHANGE_DISTANCE: f64 = 12.0;

/// Identifier of a device within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device-{}", self.0)
    }
}

/// How a frame's label was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResolutionPath {
    /// The IMU fast path echoed the previous result.
    ImuReuse,
    /// The local approximate cache answered.
    LocalCache,
    /// A nearby device's cache answered.
    PeerCache,
    /// The full DNN ran.
    FullInference,
}

impl ResolutionPath {
    /// Short name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            ResolutionPath::ImuReuse => "imu-reuse",
            ResolutionPath::LocalCache => "local-cache",
            ResolutionPath::PeerCache => "peer-cache",
            ResolutionPath::FullInference => "inference",
        }
    }

    /// All paths, cheapest first.
    pub fn all() -> [ResolutionPath; 4] {
        [
            ResolutionPath::ImuReuse,
            ResolutionPath::LocalCache,
            ResolutionPath::PeerCache,
            ResolutionPath::FullInference,
        ]
    }
}

impl std::fmt::Display for ResolutionPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything recorded about one processed frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameOutcome {
    /// When the frame arrived.
    pub at: SimTime,
    /// The label the pipeline emitted.
    pub label: ClassId,
    /// The ground-truth label (never read by the pipeline itself).
    pub truth: ClassId,
    /// End-to-end frame latency.
    pub latency: SimDuration,
    /// Energy charged to this frame.
    #[serde(rename = "energy_mj")]
    pub energy: Millijoules,
    /// Which tier answered.
    pub path: ResolutionPath,
}

impl FrameOutcome {
    /// Whether the emitted label matches the ground truth.
    pub fn is_correct(&self) -> bool {
        self.label == self.truth
    }
}

/// The state one device carries across frames.
///
/// # Example
///
/// Drive a device frame by frame (the simulator in [`crate::sim`] does
/// exactly this, plus peers and advertisements):
///
/// ```
/// use approxcache::{DeviceBuilder, DeviceId, PipelineConfig, SystemVariant};
/// use scene::{ClassUniverse, FrameRenderer, SceneConfig, World};
/// use simcore::{SimRng, SimTime};
///
/// let mut rng = SimRng::seed(1);
/// let scene = SceneConfig::default();
/// let universe = ClassUniverse::generate(&scene, &mut rng);
/// let world = World::generate(&universe, &scene, &mut rng);
/// let renderer = FrameRenderer::new(&scene);
/// let config = PipelineConfig::new().with_peer(None);
/// let mut device = DeviceBuilder::new(DeviceId(0), &config, &universe, scene.descriptor_dim, 1)
///     .variant(SystemVariant::Full)
///     .build();
///
/// let frame = renderer.render(&world, &imu::Pose::default(), SimTime::ZERO, &mut rng);
/// let outcome = device.process_frame(&frame, &[], &[], SimTime::ZERO);
/// assert_eq!(outcome.path, approxcache::ResolutionPath::FullInference);
/// ```
pub struct Device {
    id: DeviceId,
    variant: SystemVariant,
    projection: Arc<RandomProjection>,
    cache: SharedCache<ClassId>,
    exact_cache: ExactCache,
    dnn: Box<dyn InferenceBackend>,
    energy: EnergyModel,
    gate: imu::ImuGate,
    estimator: MotionEstimator,
    costs: crate::config::CostModel,
    peer: Option<crate::config::PeerConfig>,
    expiry: Option<crate::config::CacheExpiry>,
    last_expiry_sweep: SimTime,
    adaptive: Option<crate::adaptive::AdaptiveController>,
    transport: Transport,
    /// Last emitted label plus the instant it was last *validated* (by a
    /// cache hit, a peer answer or an inference — not by the fast path
    /// itself, which would let one result echo forever).
    last_result: Option<(ClassId, SimTime)>,
    /// Accumulated motion score since the last validated result: the
    /// quantity the fast path thresholds (a device that turned and stopped
    /// is instantaneously still but has a stale previous result).
    motion_since_validation: f64,
    next_query_id: u64,
    rng: SimRng,
    outcomes: Vec<FrameOutcome>,
    /// Entries queued for advertisement after the current frame.
    pending_advertisement: Option<WireEntry>,
    /// The sketch projection backing the scene-change check (None when
    /// the variant has no fast path to guard).
    scene_sketch: Option<Arc<RandomProjection>>,
    /// Sketch taken when the previous result was last validated.
    validated_sketch: Option<FeatureVector>,
    /// Sketch of the frame currently being processed.
    frame_sketch: Option<FeatureVector>,
    /// Per-frame decision traces (disabled ring unless configured).
    trace: TraceRing,
    /// Resilience machinery configuration (all members `None` by default,
    /// in which case the device behaves exactly like the pre-resilience
    /// pipeline).
    resilience: ResilienceConfig,
    /// Whether the simulation marked this device's radio inside an
    /// injected outage for the current frame.
    radio_dark: bool,
    /// Consecutive peer-tier frames that produced no reply (every
    /// exchange timed out, or the radio was dark while peers were
    /// wanted). Drives the dark-peer fallback.
    dark_streak: u32,
    /// While set, the dark-peer fallback suppresses the peer tier
    /// entirely — graceful degradation without paying peer-wait latency.
    fallback_until: Option<SimTime>,
    /// Fault events seen and resilience actions taken.
    counters: ResilienceCounters,
    /// Peer query outcomes of the current frame, as `(slice index,
    /// delivered)` pairs; drained by the simulation for circuit-breaker
    /// feedback. Only recorded when a breaker is configured.
    peer_outcomes: Vec<(usize, bool)>,
    /// The buffers this device's peer lookups run in, so asking a frozen
    /// view allocates nothing once they are warm.
    peer_scratch: LookupScratch<ClassId>,
    /// Edge-tier state (None — the default — keeps the device
    /// byte-identical to the edge-free pipeline). Boxed: most devices
    /// (every fleet phone) have none and carry one pointer.
    edge: Option<Box<EdgeState>>,
}

/// Per-device edge-tier state: the shared cache handle, the WAN
/// transport to reach it, and the device-side counters the simulation
/// reconciles against the server's.
struct EdgeState {
    config: crate::config::EdgeConfig,
    cache: edge::EdgeCache,
    transport: Transport,
    counters: edge::EdgeCounters,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("id", &self.id)
            .field("variant", &self.variant)
            .field("frames", &self.outcomes.len())
            .finish()
    }
}

/// The key and scene-sketch matrices the devices of one simulation share.
///
/// Both are pure functions of the configuration, the variant and the
/// descriptor width, so [`run`](crate::sim::run) and
/// [`run_fleet`](crate::fleet::run_fleet) build them once per call and
/// hand every device an `Arc` to the same two. A [`DeviceBuilder`] given
/// none builds its own with the same routine.
#[derive(Debug, Clone)]
pub(crate) struct Projections {
    key: Arc<RandomProjection>,
    scene_sketch: Option<Arc<RandomProjection>>,
}

impl Projections {
    /// Builds the matrices a device running `variant` under `config`
    /// projects raw descriptors of `descriptor_dim` with: the key
    /// projection, plus the scene sketch when the variant has an IMU fast
    /// path to guard.
    pub(crate) fn new(
        config: &PipelineConfig,
        variant: SystemVariant,
        descriptor_dim: usize,
    ) -> Projections {
        Projections {
            key: Arc::new(config.build_projection(descriptor_dim)),
            scene_sketch: variant.imu_enabled().then(|| {
                Arc::new(RandomProjection::new(
                    descriptor_dim,
                    SCENE_SKETCH_DIM,
                    SCENE_SKETCH_SEED,
                ))
            }),
        }
    }

    /// Whether these are the matrices [`new`](Self::new) would build for
    /// the same arguments. Each matrix is a pure function of its
    /// `(dim_in, dim_out, seed)`, so comparing those suffices.
    fn built_for(
        &self,
        config: &PipelineConfig,
        variant: SystemVariant,
        descriptor_dim: usize,
    ) -> bool {
        let shape = |p: &RandomProjection| (p.dim_in(), p.dim_out(), p.seed());
        let sketch_fits = match &self.scene_sketch {
            None => !variant.imu_enabled(),
            Some(sketch) => {
                variant.imu_enabled()
                    && shape(sketch) == (descriptor_dim, SCENE_SKETCH_DIM, SCENE_SKETCH_SEED)
            }
        };
        sketch_fits && shape(&self.key) == (descriptor_dim, config.key_dim, config.projection_seed)
    }
}

/// Typed constructor for [`Device`].
///
/// The builder names every required input up front and keeps the
/// optional knobs chainable:
///
/// ```
/// # use approxcache::{DeviceBuilder, DeviceId, PipelineConfig, SystemVariant};
/// # use simcore::SimRng;
/// # let mut rng = SimRng::seed(1);
/// # let universe = scene::ClassUniverse::generate(&scene::SceneConfig::default(), &mut rng);
/// let config = PipelineConfig::new();
/// let device = DeviceBuilder::new(DeviceId(0), &config, &universe, 256, 99)
///     .variant(SystemVariant::LocalApprox)
///     .device_class(dnnsim::DeviceClass::Budget)
///     .build();
/// assert_eq!(device.variant(), SystemVariant::LocalApprox);
/// ```
#[derive(Debug)]
pub struct DeviceBuilder<'a> {
    id: DeviceId,
    config: &'a PipelineConfig,
    universe: &'a scene::ClassUniverse,
    descriptor_dim: usize,
    seed: u64,
    variant: SystemVariant,
    device_class: Option<dnnsim::DeviceClass>,
    edge_cache: Option<edge::EdgeCache>,
    projections: Option<Projections>,
}

impl<'a> DeviceBuilder<'a> {
    /// Starts a builder from the inputs every device needs: its identity,
    /// the pipeline configuration, the label universe the DNN classifies
    /// over, the raw frame-descriptor dimension the shared projection
    /// compresses, and the simulation seed. The variant defaults to
    /// [`SystemVariant::Full`].
    pub fn new(
        id: DeviceId,
        config: &'a PipelineConfig,
        universe: &'a scene::ClassUniverse,
        descriptor_dim: usize,
        seed: u64,
    ) -> DeviceBuilder<'a> {
        DeviceBuilder {
            id,
            config,
            universe,
            descriptor_dim,
            seed,
            variant: SystemVariant::Full,
            device_class: None,
            edge_cache: None,
            projections: None,
        }
    }

    /// Selects the system variant this device runs (default `Full`).
    pub fn variant(mut self, variant: SystemVariant) -> DeviceBuilder<'a> {
        self.variant = variant;
        self
    }

    /// Overrides the phone class for this one device (heterogeneous
    /// fleets), leaving the shared configuration untouched.
    pub fn device_class(mut self, class: dnnsim::DeviceClass) -> DeviceBuilder<'a> {
        self.device_class = Some(class);
        self
    }

    /// Injects the fleet-shared edge cache handle. The simulation wires
    /// one [`edge::EdgeCache`] into every device so they all talk to the
    /// same server; a standalone device with an edge config but no
    /// injected handle gets a private cache instead. Ignored unless the
    /// configuration enables the edge tier.
    pub fn edge_cache(mut self, cache: edge::EdgeCache) -> DeviceBuilder<'a> {
        self.edge_cache = Some(cache);
        self
    }

    /// Injects the key and scene-sketch matrices the simulation built
    /// once for all its devices. A set built for another descriptor
    /// width, key width, seed or scene guard is not used: the device
    /// builds its own, as it does when nothing is injected.
    pub(crate) fn projections(mut self, projections: Projections) -> DeviceBuilder<'a> {
        self.projections = Some(projections);
        self
    }

    /// Builds the device.
    pub fn build(self) -> Device {
        let variant = self.variant;
        let mut config = self.config.clone();
        if let Some(class) = self.device_class {
            config.device_class = class;
        }
        let effective = variant.apply(&config);
        let projections = match self.projections {
            Some(shared) if shared.built_for(&effective, variant, self.descriptor_dim) => shared,
            _ => Projections::new(&effective, variant, self.descriptor_dim),
        };
        let device_rng = SimRng::seed(self.seed).split_index("device", self.id.0 as u64);
        let cache = SharedCache::new(effective.cache.clone());
        let dnn: Box<dyn InferenceBackend> = match &effective.cascade_little {
            None => Box::new(DnnModel::new(
                effective.model.clone(),
                effective.device_class,
                self.universe,
            )),
            Some((little, threshold)) => Box::new(CascadeModel::new(
                little.clone(),
                effective.model.clone(),
                *threshold,
                effective.device_class,
                self.universe,
            )),
        };
        let energy = EnergyModel::new(effective.device_class);
        let link = effective
            .peer
            .as_ref()
            .map_or_else(p2pnet::LinkSpec::ideal, |p| p.link);
        let trace = effective
            .trace_capacity
            .map_or_else(TraceRing::disabled, TraceRing::new);
        let resilience = effective
            .peer
            .as_ref()
            .and_then(|p| p.resilience)
            .unwrap_or_default();
        // The edge tier speaks the approximate key space: exact-match
        // and cache-less variants never construct it. An invalid edge
        // config degrades to "edge off" instead of panicking mid-build
        // (the simulation validates up front and reports a typed error).
        let injected_edge_cache = self.edge_cache;
        let edge = effective
            .edge
            .clone()
            .filter(|_| variant.local_cache_enabled() && !variant.exact_match_only())
            .and_then(|cfg| {
                cfg.link.validate().ok()?;
                let cache = match injected_edge_cache {
                    Some(handle) => handle,
                    None => edge::EdgeCache::new(edge::EdgeCacheConfig {
                        capacity: cfg.capacity,
                        distance_threshold: effective.cache.aknn.distance_threshold,
                        queue_limit: cfg.queue_limit,
                    })
                    .ok()?,
                };
                Some(Box::new(EdgeState {
                    transport: Transport::new(cfg.link),
                    cache,
                    counters: edge::EdgeCounters::default(),
                    config: cfg,
                }))
            });
        Device {
            id: self.id,
            variant,
            projection: projections.key,
            cache,
            exact_cache: ExactCache::new(effective.key_dim, effective.projection_seed),
            dnn,
            energy,
            gate: effective.gate,
            estimator: MotionEstimator::default(),
            costs: effective.costs,
            peer: effective.peer.clone(),
            expiry: effective.expiry,
            last_expiry_sweep: SimTime::ZERO,
            adaptive: effective
                .adaptive
                .map(crate::adaptive::AdaptiveController::new),
            transport: Transport::new(link),
            last_result: None,
            motion_since_validation: 0.0,
            next_query_id: 0,
            rng: device_rng,
            outcomes: Vec::new(),
            pending_advertisement: None,
            scene_sketch: projections.scene_sketch,
            validated_sketch: None,
            frame_sketch: None,
            trace,
            resilience,
            radio_dark: false,
            dark_streak: 0,
            fallback_until: None,
            counters: ResilienceCounters::default(),
            peer_outcomes: Vec::new(),
            peer_scratch: LookupScratch::default(),
            edge,
        }
    }
}

impl Device {
    /// This device's id.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The variant the device runs.
    pub fn variant(&self) -> SystemVariant {
        self.variant
    }

    /// The shared handle to this device's cache (what peers query).
    pub fn cache(&self) -> &SharedCache<ClassId> {
        &self.cache
    }

    /// Network counters so far.
    pub fn transport_counters(&self) -> p2pnet::TransportCounters {
        *self.transport.counters()
    }

    /// All frame outcomes so far.
    pub fn outcomes(&self) -> &[FrameOutcome] {
        &self.outcomes
    }

    /// The key projection. Peers must use an identical one; the devices
    /// of one [`run`](crate::sim::run) or
    /// [`run_fleet`](crate::fleet::run_fleet) call all hold the same
    /// matrix.
    pub fn projection(&self) -> &RandomProjection {
        &self.projection
    }

    /// The adaptive-threshold controller state, if adaptation is enabled.
    pub fn adaptive(&self) -> Option<&crate::adaptive::AdaptiveController> {
        self.adaptive.as_ref()
    }

    /// The cache's current A-kNN distance threshold.
    pub fn current_threshold(&self) -> f64 {
        self.cache.distance_threshold()
    }

    /// Takes the advertisement queued by the last processed frame, if any.
    pub fn take_advertisement(&mut self) -> Option<WireEntry> {
        self.pending_advertisement.take()
    }

    /// The per-frame decision trace ring (empty unless
    /// [`PipelineConfig::trace_capacity`](crate::config::PipelineConfig::trace_capacity)
    /// enabled it).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Fault events seen and resilience actions taken so far.
    pub fn resilience_counters(&self) -> &ResilienceCounters {
        &self.counters
    }

    /// Device-side edge-tier counters (queries sent, timeouts, hits
    /// adopted); `None` when the edge tier is off for this device.
    pub fn edge_counters(&self) -> Option<&edge::EdgeCounters> {
        self.edge.as_ref().map(|e| &e.counters)
    }

    /// The edge cache handle this device queries, if any.
    pub fn edge_cache(&self) -> Option<&edge::EdgeCache> {
        self.edge.as_ref().map(|e| &e.cache)
    }

    /// Marks the radio as inside (or out of) an injected outage. While
    /// dark, the device records outage frames and never queries peers,
    /// whatever the caller passes as `peers`.
    pub fn set_radio_dark(&mut self, dark: bool) {
        self.radio_dark = dark;
    }

    /// Applies (or clears, with `None`) a degraded-link episode to this
    /// device's transport: latency ×`latency_factor`, loss ×`loss_factor`.
    pub fn set_link_degradation(&mut self, degradation: Option<(f64, f64)>) {
        match degradation {
            Some((latency_factor, loss_factor)) => {
                self.transport.set_degradation(latency_factor, loss_factor);
            }
            None => self.transport.clear_degradation(),
        }
    }

    /// Simulates a process crash and restart: everything held in device
    /// memory is lost — both caches, the validated last result, the
    /// pending advertisement and the fallback state. The run's accounting
    /// (outcome log, transport and resilience counters) survives, because
    /// it models the experiment's books, not the phone's RAM.
    pub fn crash(&mut self) {
        self.cache.clear();
        self.exact_cache.clear();
        self.last_result = None;
        self.motion_since_validation = 0.0;
        self.validated_sketch = None;
        self.frame_sketch = None;
        self.pending_advertisement = None;
        self.dark_streak = 0;
        self.fallback_until = None;
        self.peer_outcomes.clear();
        self.counters.record_crash();
    }

    /// Drains the peer query outcomes of the last processed frame, as
    /// `(peer slice index, delivered)` pairs — the feedback stream the
    /// simulation routes into the discovery circuit breaker. Empty unless
    /// [`ResilienceConfig::breaker`] is configured.
    pub fn take_peer_outcomes(&mut self) -> Vec<(usize, bool)> {
        std::mem::take(&mut self.peer_outcomes)
    }

    /// Processes one frame. `imu_window` holds the samples since the
    /// previous frame; `peers` are the caches of in-range devices, nearest
    /// first: live handles, or frozen views of them. Returns the recorded
    /// outcome.
    pub fn process_frame(
        &mut self,
        frame: &Frame,
        imu_window: &[ImuSample],
        peers: &[&dyn PeerLookup<ClassId>],
        now: SimTime,
    ) -> FrameOutcome {
        let mut latency = SimDuration::ZERO;
        let mut energy = Millijoules::ZERO;

        // Housekeeping: periodic age-based expiry (runs off the frame
        // path in a real app; the sweep itself is microseconds).
        if let Some(expiry) = self.expiry {
            if now.saturating_duration_since(self.last_expiry_sweep) >= expiry.interval {
                self.cache.expire_older_than(now, expiry.max_age);
                self.last_expiry_sweep = now;
            }
        }

        // Sketch for the scene-change guard: computed once per frame; the
        // cost is charged to scene_check on the fast path and rides inside
        // the feature-extraction budget everywhere else.
        self.frame_sketch = self
            .scene_sketch
            .as_ref()
            .map(|p| p.project(&frame.descriptor));

        // Per-frame trace draft (cheap scalars; only materialized into the
        // ring when tracing is enabled).
        let mut draft = TraceDraft {
            motion_score: 0.0,
            cumulative_motion: 0.0,
            gate: TraceGate::Disabled,
            scene_changed: None,
            local: TraceLookup::NotAttempted,
            peer_attempts: 0,
            peer_timeouts: 0,
            peer_bytes_before: self.transport.counters().bytes_sent,
            radio_dark: self.radio_dark,
            peer_fallback: false,
            edge_hit: false,
        };
        if self.radio_dark {
            self.counters.record_outage_frame();
        }

        // Tier 0: inertial gate.
        let mut decision = if self.variant.imu_enabled() {
            latency += self.costs.gate_check;
            energy += self.energy.compute_energy(self.costs.gate_check);
            let estimate = self.estimator.estimate(imu_window);
            self.motion_since_validation += estimate.motion_score();
            draft.motion_score = estimate.motion_score();
            let age = self
                .last_result
                .map(|(_, at)| now.saturating_duration_since(at));
            self.gate
                .decide_with_history(&estimate, self.motion_since_validation, age)
        } else {
            GateDecision::LookupLocal
        };
        draft.cumulative_motion = self.motion_since_validation;
        draft.gate = trace_gate(decision, self.variant.imu_enabled());

        // Scene-change guard: "inertially still" does not imply "scene
        // unchanged" — an occluder can walk into a stationary view. A
        // cheap sketch comparison against the last *validated* frame
        // demotes the fast path to a real lookup when the view moved.
        if decision == GateDecision::ReusePrevious {
            latency += self.costs.scene_check;
            energy += self.energy.compute_energy(self.costs.scene_check);
            let changed = match (&self.validated_sketch, &self.frame_sketch) {
                (Some(prev), Some(current)) => {
                    features::distance::euclidean(prev, current) > SCENE_CHANGE_DISTANCE
                }
                _ => false,
            };
            draft.scene_changed = Some(changed);
            if changed {
                decision = GateDecision::LookupLocal;
            }
        }

        if decision == GateDecision::ReusePrevious {
            if let Some((label, _)) = self.last_result {
                let outcome = FrameOutcome {
                    at: now,
                    label,
                    truth: frame.truth,
                    latency,
                    energy,
                    path: ResolutionPath::ImuReuse,
                };
                self.finish(outcome, label, now, draft);
                return outcome;
            }
            // The gate only votes to echo after a validated result exists;
            // if that invariant ever breaks, a real lookup is the safe
            // degradation, not a panic mid-stream.
            decision = GateDecision::LookupLocal;
        }

        // Feature extraction (needed by every remaining tier).
        latency += self.costs.feature_extract;
        energy += self.energy.compute_energy(self.costs.feature_extract);
        let key = self.projection.project(&frame.descriptor);

        // Tier 1: local cache (approximate or exact depending on variant).
        if decision != GateDecision::SkipLocal {
            let (hit, lookup_trace) = self.local_lookup(&key, now);
            draft.local = lookup_trace;
            if let Some((label, cost)) = hit {
                latency += cost;
                energy += self.energy.compute_energy(cost);
                // Sampled audit: run the DNN anyway and use the
                // disagreement signal to adapt the distance threshold.
                let audit_due = self
                    .adaptive
                    .as_ref()
                    .is_some_and(|c| self.rng.chance(c.config().audit_prob));
                if audit_due {
                    let inference = self.dnn.infer(&frame.descriptor, &mut self.rng);
                    latency += inference.latency;
                    energy += inference.energy;
                    if let Some(controller) = self.adaptive.as_mut() {
                        let agreed = inference.label == label;
                        let updated = controller.on_audit(agreed, self.cache.distance_threshold());
                        self.cache.set_distance_threshold(updated);
                    }
                    // The audit's inference is authoritative for this
                    // frame (it was paid for) and refreshes the cache.
                    self.store_result(&key, inference.label, inference.confidence, now);
                    let outcome = FrameOutcome {
                        at: now,
                        label: inference.label,
                        truth: frame.truth,
                        latency,
                        energy,
                        path: ResolutionPath::FullInference,
                    };
                    self.finish(outcome, inference.label, now, draft);
                    return outcome;
                }
                let outcome = FrameOutcome {
                    at: now,
                    label,
                    truth: frame.truth,
                    latency,
                    energy,
                    path: ResolutionPath::LocalCache,
                };
                self.finish(outcome, label, now, draft);
                return outcome;
            } else {
                let cost = self.local_lookup_cost();
                latency += cost;
                energy += self.energy.compute_energy(cost);
            }
        }

        // Tier 2: peers. A dark radio cannot reach anyone; an active
        // dark-peer fallback window skips the tier outright — graceful
        // degradation to Local/Infer without paying peer-wait latency.
        let fallback_active = self.fallback_until.is_some_and(|until| now < until);
        if fallback_active
            && self.variant.peers_enabled()
            && self.peer.is_some()
            && !self.radio_dark
        {
            draft.peer_fallback = true;
            self.counters.record_peer_fallback();
        }
        if let Some(peer_config) = self.peer.clone().filter(|_| {
            self.variant.peers_enabled()
                && !peers.is_empty()
                && !self.radio_dark
                && !fallback_active
        }) {
            let radio = radio_of(&peer_config.link);
            // Peer economics: querying only makes sense while the expected
            // radio time stays well below the inference it might avoid.
            let budget = self
                .dnn
                .nominal_latency()
                .mul_f64(peer_config.query_budget_fraction.max(0.0));
            let expected_rtt = peer_config.link.base_latency * 2;
            let mut peer_latency_spent = SimDuration::ZERO;
            for (slot, peer_cache) in peers.iter().enumerate().take(peer_config.max_peers_queried) {
                if peer_latency_spent + expected_rtt > budget {
                    break;
                }
                let query = P2pMessage::Query {
                    query_id: self.next_query_id,
                    key: key.clone(),
                };
                self.next_query_id += 1;
                draft.peer_attempts += 1;
                let hit = remote_lookup(*peer_cache, &key, now, &mut self.peer_scratch);
                let reply = P2pMessage::Reply { query_id: 0, hit };
                let rtt = self.transport.round_trip(
                    query.encoded_len(),
                    reply.encoded_len(),
                    &mut self.rng,
                );
                energy += self
                    .energy
                    .radio_energy(radio, query.encoded_len() + reply.encoded_len());
                if self.resilience.breaker.is_some() {
                    self.peer_outcomes.push((slot, rtt.is_some()));
                }
                match rtt {
                    None => {
                        // A lost exchange still consumed the expected
                        // air time from the budget's perspective.
                        peer_latency_spent += expected_rtt;
                        draft.peer_timeouts += 1;
                        continue; // counts as a peer miss
                    }
                    Some(rtt) => {
                        // A delivered exchange proves the peer tier is
                        // alive: clear any dark-fallback momentum.
                        self.dark_streak = 0;
                        self.fallback_until = None;
                        latency += rtt;
                        peer_latency_spent += rtt;
                        if let Some(hit) = hit {
                            let label = ClassId(hit.label);
                            // Adopt the peer's entry locally so the next
                            // frame hits without the radio.
                            self.cache.insert(
                                key.clone(),
                                label,
                                hit.confidence,
                                EntrySource::Peer,
                                now,
                            );
                            // Relay the peer-learned answer up to the
                            // edge so devices outside this neighbourhood
                            // benefit too (fire-and-forget). Without an
                            // edge tier the key is not even cloned.
                            if self.edge.is_some() {
                                self.edge_push(
                                    edge::Frame::GossipAd {
                                        key: key.clone(),
                                        label: label.0,
                                        confidence: hit.confidence,
                                    },
                                    now,
                                );
                            }
                            let outcome = FrameOutcome {
                                at: now,
                                label,
                                truth: frame.truth,
                                latency,
                                energy,
                                path: ResolutionPath::PeerCache,
                            };
                            self.finish(outcome, label, now, draft);
                            return outcome;
                        }
                    }
                }
            }
        }

        // Dark-peer fallback bookkeeping: a frame that wanted peers but
        // got nothing back (radio dark, or every exchange timed out)
        // advances the streak; enough consecutive dark frames open the
        // fallback window. Delivered exchanges reset it (above).
        if let Some(fallback) = self.resilience.dark_fallback {
            let peers_wanted = self.variant.peers_enabled() && self.peer.is_some();
            let frame_dark = peers_wanted
                && !draft.peer_fallback
                && (self.radio_dark
                    || (draft.peer_attempts > 0 && draft.peer_timeouts == draft.peer_attempts));
            if frame_dark {
                self.dark_streak += 1;
                if self.dark_streak >= fallback.threshold {
                    self.fallback_until = Some(now + fallback.cooldown);
                    self.dark_streak = 0;
                }
            }
        }

        // Tier 2½: the shared edge cache, one WAN round-trip away. Runs
        // only when configured (default off), after peers missed —
        // closer answers are cheaper — and never while the radio is
        // dark. The same budget guard as the peer tier applies: the
        // expected round-trip must undercut the inference it replaces.
        let mut edge_adopt: Option<edge::EdgeHit> = None;
        if let Some(edge) = self.edge.as_mut().filter(|_| !self.radio_dark) {
            let budget = self
                .dnn
                .nominal_latency()
                .mul_f64(edge.config.query_budget_fraction.max(0.0));
            let expected_rtt = edge.config.link.base_latency * 2;
            if expected_rtt <= budget {
                let request = edge::BatchRequest {
                    device: self.id.0 as u64,
                    frames: vec![edge::Frame::Lookup { key: key.clone() }],
                };
                let out_bytes = request.encoded_len();
                edge.counters.record_queries_sent(1);
                // The server sees every query — losses are modelled on
                // the reply leg — and a server that is overloaded, or
                // cannot take the key, turns the batch away instead of
                // answering (a 503 or a 400 is a handful of header bytes
                // on the wire).
                let (reply, back_bytes) = match edge.cache.apply_batch(&request, now) {
                    Ok(response) => {
                        let bytes = response.encoded_len();
                        (response.replies.into_iter().next(), bytes)
                    }
                    Err(_) => (None, 64),
                };
                let rtt = edge
                    .transport
                    .round_trip(out_bytes, back_bytes, &mut self.rng);
                // The radio burned energy whether or not the answer made
                // it back.
                energy += self.energy.radio_energy(Radio::Wan, out_bytes + back_bytes);
                match rtt {
                    // Like a lost peer exchange: counts as a miss, adds
                    // no frame latency.
                    None => edge.counters.record_query_timeout(),
                    Some(rtt) => {
                        // A delivered answer — hit or miss — was waited
                        // for.
                        latency += rtt;
                        if let Some(edge::Reply::Hit(hit)) = reply {
                            edge.counters.record_hit_adopted();
                            edge_adopt = Some(hit);
                        }
                    }
                }
            }
        }
        if let Some(hit) = edge_adopt {
            let label = ClassId(hit.label);
            // Adopt the edge's entry locally so the next frame hits
            // without waking the modem.
            self.cache
                .insert(key.clone(), label, hit.confidence, EntrySource::Peer, now);
            draft.edge_hit = true;
            let outcome = FrameOutcome {
                at: now,
                label,
                truth: frame.truth,
                latency,
                energy,
                path: ResolutionPath::PeerCache,
            };
            self.finish(outcome, label, now, draft);
            return outcome;
        }

        // Tier 3: full inference.
        let inference = self.dnn.infer(&frame.descriptor, &mut self.rng);
        latency += inference.latency;
        energy += inference.energy;
        // Free adaptation evidence: a same-label entry just beyond the
        // threshold means this inference was a spurious miss.
        if let Some(controller) = &mut self.adaptive {
            if self.variant.local_cache_enabled() && !self.variant.exact_match_only() {
                if let Some((distance, label)) = self.cache.peek_nearest(&key) {
                    let updated = controller.on_near_miss(
                        distance,
                        label == inference.label,
                        self.cache.distance_threshold(),
                    );
                    self.cache.set_distance_threshold(updated);
                }
            }
        }
        self.store_result(&key, inference.label, inference.confidence, now);
        // Freshly inferred results go up to the edge so the whole fleet
        // can reuse them (fire-and-forget, nothing on the frame path).
        if self.edge.is_some() {
            self.edge_push(
                edge::Frame::Insert {
                    key: key.clone(),
                    label: inference.label.0,
                    confidence: inference.confidence,
                },
                now,
            );
        }
        if self.peer.is_some() && self.variant.peers_enabled() {
            self.pending_advertisement = Some(WireEntry {
                key: key.clone(),
                label: inference.label.0,
                confidence: inference.confidence,
            });
        }
        let outcome = FrameOutcome {
            at: now,
            label: inference.label,
            truth: frame.truth,
            latency,
            energy,
            path: ResolutionPath::FullInference,
        };
        self.finish(outcome, inference.label, now, draft);
        outcome
    }

    /// Accepts an advertisement pushed by a neighbour (already delivered
    /// by the network). Charges nothing to frame latency — reception is
    /// asynchronous — but admission control still applies.
    pub fn receive_advertisement(&mut self, entry: &WireEntry, now: SimTime) {
        if !self.variant.peers_enabled() {
            return;
        }
        self.cache.insert(
            entry.key.clone(),
            ClassId(entry.label),
            entry.confidence,
            EntrySource::Peer,
            now,
        );
    }

    /// Records the radio cost of sending one advertisement (called by the
    /// simulation when it actually transmits).
    pub fn charge_advertisement(&mut self, message: &P2pMessage) -> Option<SimDuration> {
        let radio = self.peer.as_ref().map(|p| radio_of(&p.link))?;
        let delay = match self.resilience.ad_retry {
            // Fire-and-forget: the pre-resilience behaviour, bit for bit.
            None => self.transport.send_message(message, &mut self.rng),
            Some(policy) => {
                let outcome = self
                    .transport
                    .send_with_retry(message, &policy, &mut self.rng);
                self.counters.record_ad_retries(outcome.retries);
                if outcome.delay.is_none() {
                    self.counters.record_ad_abandoned();
                }
                outcome.delay
            }
        };
        // Radio energy is charged to the device battery, not to any frame.
        let _ = self.energy.radio_energy(radio, message.encoded_len());
        delay
    }

    /// Fire-and-forget upload of one frame to the edge: samples the
    /// uplink for loss (a lost upload simply never lands), charges the
    /// radio to the battery rather than the frame, and applies the
    /// batch to the shared cache on delivery. Skipped while the radio
    /// is dark.
    fn edge_push(&mut self, frame: edge::Frame, now: SimTime) {
        if self.radio_dark {
            return;
        }
        let Some(edge) = self.edge.as_mut() else {
            return;
        };
        let request = edge::BatchRequest {
            device: self.id.0 as u64,
            frames: vec![frame],
        };
        let bytes = request.encoded_len();
        let delivered = edge.transport.send_one_way(bytes, &mut self.rng).is_some();
        let _ = self.energy.radio_energy(Radio::Wan, bytes);
        if delivered {
            // An overloaded server sheds the upload; the device neither
            // learns nor cares — it was fire-and-forget.
            let _ = edge.cache.apply_batch(&request, now);
        }
    }

    fn local_lookup(
        &mut self,
        key: &FeatureVector,
        now: SimTime,
    ) -> (Option<(ClassId, SimDuration)>, TraceLookup) {
        if !self.variant.local_cache_enabled() {
            return (None, TraceLookup::NotAttempted);
        }
        if self.variant.exact_match_only() {
            let cost = self.costs.lookup_base;
            return match self.exact_cache.lookup(key) {
                Some(label) => (Some((label, cost)), TraceLookup::Hit { distance: 0.0 }),
                None => {
                    let reason = if self.exact_cache.is_empty() {
                        TraceMissReason::EmptyIndex
                    } else {
                        // No in-threshold neighbour exists by definition:
                        // an exact cache's threshold is zero.
                        TraceMissReason::TooFar
                    };
                    (None, TraceLookup::Miss(reason))
                }
            };
        }
        let cost = self.local_lookup_cost();
        match self.cache.lookup(key, now) {
            LookupResult::Hit {
                label,
                nearest_distance,
                ..
            } => (
                Some((label, cost)),
                TraceLookup::Hit {
                    distance: nearest_distance,
                },
            ),
            LookupResult::Miss(reason) => (None, TraceLookup::Miss(trace_miss(reason))),
        }
    }

    fn local_lookup_cost(&self) -> SimDuration {
        if self.variant.exact_match_only() {
            self.costs.lookup_base
        } else {
            self.costs.lookup_cost(self.cache.len())
        }
    }

    fn store_result(&mut self, key: &FeatureVector, label: ClassId, confidence: f64, now: SimTime) {
        if !self.variant.local_cache_enabled() {
            return;
        }
        if self.variant.exact_match_only() {
            self.exact_cache.insert(key, label);
        } else {
            self.cache.insert(
                key.clone(),
                label,
                confidence,
                EntrySource::LocalInference,
                now,
            );
        }
    }

    fn finish(&mut self, outcome: FrameOutcome, label: ClassId, now: SimTime, draft: TraceDraft) {
        if outcome.path == ResolutionPath::ImuReuse {
            // Echoing does not re-validate: keep the previous validation
            // instant so max_reuse_age eventually forces a real lookup.
            let validated_at = self.last_result.map_or(now, |(_, at)| at);
            self.last_result = Some((label, validated_at));
        } else {
            self.last_result = Some((label, now));
            self.motion_since_validation = 0.0;
            // The scene reference follows validation, not echoes: the
            // guard compares against the view the label was earned on.
            if self.frame_sketch.is_some() {
                self.validated_sketch = self.frame_sketch.take();
            }
        }
        if self.trace.is_enabled() {
            // Peer bytes come from the transport's own counters — the
            // same registry the run report aggregates — so the trace can
            // never disagree with the counters.
            let bytes = self.transport.counters().bytes_sent - draft.peer_bytes_before;
            self.trace.record(FrameTrace {
                at: outcome.at,
                motion_score: draft.motion_score,
                cumulative_motion: draft.cumulative_motion,
                gate: draft.gate,
                scene_changed: draft.scene_changed,
                local: draft.local,
                peer: TracePeer {
                    attempts: draft.peer_attempts,
                    timeouts: draft.peer_timeouts,
                    bytes,
                },
                radio_dark: draft.radio_dark,
                peer_fallback: draft.peer_fallback,
                // The outcome vocabulary folds edge hits into the peer
                // path (both are remote caches); the trace keeps them
                // apart.
                path: if draft.edge_hit {
                    TracePath::EdgeHit
                } else {
                    trace_path(outcome.path)
                },
                latency: outcome.latency,
                energy: outcome.energy,
            });
        }
        self.outcomes.push(outcome);
    }
}

/// The per-frame trace fields accumulated while a frame walks the tiers.
struct TraceDraft {
    motion_score: f64,
    cumulative_motion: f64,
    gate: TraceGate,
    scene_changed: Option<bool>,
    local: TraceLookup,
    peer_attempts: u32,
    peer_timeouts: u32,
    peer_bytes_before: u64,
    radio_dark: bool,
    peer_fallback: bool,
    edge_hit: bool,
}

fn trace_gate(decision: GateDecision, imu_enabled: bool) -> TraceGate {
    if !imu_enabled {
        return TraceGate::Disabled;
    }
    match decision {
        GateDecision::ReusePrevious => TraceGate::ReusePrevious,
        GateDecision::LookupLocal => TraceGate::LookupLocal,
        GateDecision::SkipLocal => TraceGate::SkipLocal,
    }
}

fn trace_miss(reason: MissReason) -> TraceMissReason {
    match reason {
        MissReason::EmptyIndex => TraceMissReason::EmptyIndex,
        MissReason::TooFar => TraceMissReason::TooFar,
        MissReason::NotHomogeneous => TraceMissReason::NotHomogeneous,
        MissReason::InsufficientSupport => TraceMissReason::InsufficientSupport,
    }
}

/// Maps the pipeline's resolution vocabulary onto the trace substrate's.
pub fn trace_path(path: ResolutionPath) -> TracePath {
    match path {
        ResolutionPath::ImuReuse => TracePath::ImuFastPath,
        ResolutionPath::LocalCache => TracePath::LocalHit,
        ResolutionPath::PeerCache => TracePath::PeerHit,
        ResolutionPath::FullInference => TracePath::Infer,
    }
}

fn radio_of(link: &p2pnet::LinkSpec) -> Radio {
    match link.name {
        "ble" => Radio::Ble,
        "wan" => Radio::Wan,
        _ => Radio::WifiDirect,
    }
}

/// Runs the remote side of a peer query against `cache`.
fn remote_lookup(
    cache: &dyn PeerLookup<ClassId>,
    key: &FeatureVector,
    now: SimTime,
    scratch: &mut LookupScratch<ClassId>,
) -> Option<RemoteHit> {
    match cache.lookup(key, now, scratch) {
        LookupResult::Hit {
            label,
            confidence,
            nearest_distance,
            ..
        } => Some(RemoteHit {
            label: label.0,
            confidence,
            distance: nearest_distance,
        }),
        LookupResult::Miss(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scene::{ClassUniverse, SceneConfig};

    fn universe() -> ClassUniverse {
        let mut rng = SimRng::seed(1);
        ClassUniverse::generate(&SceneConfig::default(), &mut rng)
    }

    fn frame_for(universe: &ClassUniverse, class: u32, at: SimTime) -> Frame {
        Frame {
            at,
            descriptor: universe.center(ClassId(class)).clone(),
            truth: ClassId(class),
            subject: scene::ObjectId(class as u64),
            geometry: scene::camera::ViewGeometry {
                bearing_offset: 0.0,
                distance: 3.0,
            },
        }
    }

    fn still_window(at_ms: u64) -> Vec<ImuSample> {
        (0..10)
            .map(|i| ImuSample {
                at: SimTime::from_millis(at_ms + i * 10),
                gyro: [0.0; 3],
                accel: [0.0; 3],
            })
            .collect()
    }

    fn moving_window(at_ms: u64) -> Vec<ImuSample> {
        (0..10)
            .map(|i| ImuSample {
                at: SimTime::from_millis(at_ms + i * 10),
                gyro: [0.0, 0.0, 1.5],
                accel: [0.5, 0.0, 0.0],
            })
            .collect()
    }

    fn device(variant: SystemVariant, universe: &ClassUniverse) -> Device {
        let config = PipelineConfig::new();
        DeviceBuilder::new(DeviceId(0), &config, universe, 256, 99)
            .variant(variant)
            .build()
    }

    #[test]
    fn first_frame_runs_inference() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        let outcome = d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &still_window(0),
            &[],
            SimTime::ZERO,
        );
        assert_eq!(outcome.path, ResolutionPath::FullInference);
        assert!(outcome.latency.as_millis() > 20, "DNN latency dominates");
    }

    #[test]
    fn still_device_takes_imu_fast_path() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let t1 = SimTime::from_millis(100);
        let outcome = d.process_frame(&frame_for(&u, 0, t1), &still_window(100), &[], t1);
        assert_eq!(outcome.path, ResolutionPath::ImuReuse);
        assert!(outcome.latency < SimDuration::from_millis(1));
        assert!(outcome.is_correct());
    }

    #[test]
    fn moving_device_hits_local_cache() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        // Moving (so no fast path) but looking at the same subject.
        let t1 = SimTime::from_millis(100);
        let outcome = d.process_frame(&frame_for(&u, 0, t1), &moving_window(100), &[], t1);
        assert_eq!(outcome.path, ResolutionPath::LocalCache);
        assert!(outcome.latency < SimDuration::from_millis(10));
    }

    #[test]
    fn peer_cache_answers_before_inference() {
        let u = universe();
        let mut warm = device(SystemVariant::Full, &u);
        warm.process_frame(
            &frame_for(&u, 3, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let config = PipelineConfig::new();
        let mut cold = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99).build();
        let t1 = SimTime::from_millis(100);
        let warm_cache = warm.cache().clone();
        let outcome = cold.process_frame(
            &frame_for(&u, 3, t1),
            &moving_window(100),
            &[&warm_cache],
            t1,
        );
        assert_eq!(outcome.path, ResolutionPath::PeerCache);
        // A peer answer costs a WiFi RTT, far below inference.
        assert!(outcome.latency < SimDuration::from_millis(30));
        // The adopted entry serves the next frame locally.
        let t2 = SimTime::from_millis(200);
        let outcome2 = cold.process_frame(&frame_for(&u, 3, t2), &moving_window(200), &[], t2);
        assert_eq!(outcome2.path, ResolutionPath::LocalCache);
    }

    #[test]
    fn no_cache_variant_always_infers() {
        let u = universe();
        let mut d = device(SystemVariant::NoCache, &u);
        for i in 0..5u64 {
            let t = SimTime::from_millis(i * 100);
            let outcome = d.process_frame(&frame_for(&u, 0, t), &still_window(i * 100), &[], t);
            assert_eq!(outcome.path, ResolutionPath::FullInference);
        }
    }

    #[test]
    fn inference_queues_an_advertisement() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        d.process_frame(
            &frame_for(&u, 2, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let ad = d.take_advertisement().expect("inference advertises");
        assert_eq!(ad.key.dim(), 64);
        assert!(d.take_advertisement().is_none(), "taken once");
    }

    #[test]
    fn received_advertisement_warms_cache() {
        let u = universe();
        let mut producer = device(SystemVariant::Full, &u);
        producer.process_frame(
            &frame_for(&u, 4, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let ad = producer.take_advertisement().unwrap();
        let config = PipelineConfig::new();
        let mut consumer = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99).build();
        consumer.receive_advertisement(&ad, SimTime::from_millis(50));
        let t = SimTime::from_millis(100);
        let outcome = consumer.process_frame(&frame_for(&u, 4, t), &moving_window(100), &[], t);
        assert_eq!(outcome.path, ResolutionPath::LocalCache);
    }

    #[test]
    fn outcomes_accumulate() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        for i in 0..3u64 {
            let t = SimTime::from_millis(i * 100);
            d.process_frame(&frame_for(&u, 0, t), &moving_window(i * 100), &[], t);
        }
        assert_eq!(d.outcomes().len(), 3);
        assert_eq!(d.id(), DeviceId(0));
        assert_eq!(d.variant(), SystemVariant::Full);
    }

    #[test]
    fn peer_query_budget_follows_model_economics() {
        // Over BLE (≈50 ms RTT) querying peers is a bad trade for a 75 ms
        // model (budget 37.5 ms) but a good one for a 380 ms model
        // (budget 190 ms). The budget guard must make that call.
        let u = universe();
        let mut warm = device(SystemVariant::Full, &u);
        warm.process_frame(
            &frame_for(&u, 3, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let warm_cache = warm.cache().clone();

        let mut ble_config = PipelineConfig::new();
        ble_config.peer.as_mut().expect("peers").link = p2pnet::LinkSpec::ble();

        // Fast model: no peer traffic at all.
        let mut fast = DeviceBuilder::new(DeviceId(1), &ble_config, &u, 256, 99).build();
        let t = SimTime::from_millis(100);
        let outcome =
            fast.process_frame(&frame_for(&u, 3, t), &moving_window(100), &[&warm_cache], t);
        assert_eq!(outcome.path, ResolutionPath::FullInference);
        assert_eq!(
            fast.transport_counters().messages_sent,
            0,
            "BLE query skipped"
        );

        // Heavy model: the same query is worth it.
        let heavy_config = ble_config.clone().with_model(dnnsim::zoo::resnet50());
        let mut heavy = DeviceBuilder::new(DeviceId(2), &heavy_config, &u, 256, 99).build();
        let outcome =
            heavy.process_frame(&frame_for(&u, 3, t), &moving_window(100), &[&warm_cache], t);
        assert_eq!(outcome.path, ResolutionPath::PeerCache);
        assert!(heavy.transport_counters().messages_sent >= 2);
    }

    #[test]
    fn audits_tighten_a_grossly_loose_threshold() {
        // Start with a threshold so loose that cross-class keys hit, and a
        // high audit rate: the controller must pull it down. k = 1
        // disables the homogeneity vote (which would otherwise mask the
        // loose threshold as NotHomogeneous misses), so wrong hits — the
        // audit's target — actually occur.
        let u = universe();
        let mut config = PipelineConfig::new();
        config.cache = config.cache.clone().with_aknn(ann::AknnConfig {
            distance_threshold: 1e3,
            k: 1,
            ..ann::AknnConfig::default()
        });
        config.adaptive = Some(crate::adaptive::AdaptiveConfig {
            audit_prob: 0.5,
            ..crate::adaptive::AdaptiveConfig::default()
        });
        let mut d = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 7).build();
        let start_threshold = d.current_threshold();
        for i in 0..200u64 {
            let t = SimTime::from_millis(i * 100);
            // Rotate subjects so loose-threshold hits are usually wrong.
            d.process_frame(
                &frame_for(&u, (i % 20) as u32, t),
                &moving_window(i * 100),
                &[],
                t,
            );
        }
        let controller = d.adaptive().expect("adaptation enabled");
        assert!(controller.audits > 10, "audits {}", controller.audits);
        assert!(
            controller.false_hits > 0,
            "loose threshold must produce disagreeing audits"
        );
        assert!(
            d.current_threshold() < start_threshold / 4.0,
            "threshold {} barely moved from {start_threshold}",
            d.current_threshold()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceId(3).to_string(), "device-3");
        assert_eq!(ResolutionPath::ImuReuse.to_string(), "imu-reuse");
        assert_eq!(ResolutionPath::all().len(), 4);
    }

    #[test]
    fn trace_is_disabled_by_default() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &still_window(0),
            &[],
            SimTime::ZERO,
        );
        assert!(!d.trace().is_enabled());
        assert!(d.trace().is_empty());
    }

    #[test]
    fn stationary_run_traces_infer_then_imu_fast_path() {
        let u = universe();
        let config = PipelineConfig::new().with_trace_capacity(Some(16));
        let mut d = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 99).build();
        for i in 0..3u64 {
            let t = SimTime::from_millis(i * 100);
            d.process_frame(&frame_for(&u, 0, t), &still_window(i * 100), &[], t);
        }
        let traces = d.trace().to_vec();
        let paths: Vec<simcore::TracePath> = traces.iter().map(|t| t.path).collect();
        assert_eq!(
            paths,
            vec![
                simcore::TracePath::Infer,
                simcore::TracePath::ImuFastPath,
                simcore::TracePath::ImuFastPath,
            ]
        );
        // The first frame has no model to reuse: the gate demands a
        // lookup and the empty cache reports an empty-index miss.
        assert_eq!(traces[0].gate, simcore::TraceGate::LookupLocal);
        assert_eq!(
            traces[0].local,
            simcore::TraceLookup::Miss(simcore::TraceMissReason::EmptyIndex)
        );
        assert!(traces[0].latency.as_millis() > 20);
        // Fast-path frames skip the lookup entirely but pass the
        // scene-change check.
        for t in &traces[1..] {
            assert_eq!(t.gate, simcore::TraceGate::ReusePrevious);
            assert_eq!(t.scene_changed, Some(false));
            assert_eq!(t.local, simcore::TraceLookup::NotAttempted);
            assert_eq!(t.peer, simcore::TracePeer::default());
        }
    }

    #[test]
    fn trace_records_local_hit_distance_and_peer_attempts() {
        let u = universe();
        let config = PipelineConfig::new().with_trace_capacity(Some(16));
        let mut d = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 99).build();
        d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let t1 = SimTime::from_millis(100);
        d.process_frame(&frame_for(&u, 0, t1), &moving_window(100), &[], t1);
        let traces = d.trace().to_vec();
        assert_eq!(traces.len(), 2);
        match traces[1].local {
            simcore::TraceLookup::Hit { distance } => assert!(distance >= 0.0),
            other => panic!("second frame should hit locally, got {other:?}"),
        }
        assert_eq!(traces[1].path, simcore::TracePath::LocalHit);

        // A cold device with a warm peer records the peer attempt and
        // the bytes it cost.
        let mut warm = device(SystemVariant::Full, &u);
        warm.process_frame(
            &frame_for(&u, 3, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let warm_cache = warm.cache().clone();
        let mut cold = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99).build();
        let outcome = cold.process_frame(
            &frame_for(&u, 3, t1),
            &moving_window(100),
            &[&warm_cache],
            t1,
        );
        assert_eq!(outcome.path, ResolutionPath::PeerCache);
        let trace = cold.trace().to_vec()[0];
        assert_eq!(trace.path, simcore::TracePath::PeerHit);
        assert_eq!(trace.peer.attempts, 1);
        assert_eq!(trace.peer.timeouts, 0);
        assert!(
            trace.peer.bytes > 0,
            "peer bytes must come from the transport counters"
        );
        assert!(!trace.radio_dark);
        assert!(!trace.peer_fallback);
    }

    #[test]
    fn radio_dark_frames_never_query_peers() {
        let u = universe();
        let mut warm = device(SystemVariant::Full, &u);
        warm.process_frame(
            &frame_for(&u, 3, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let warm_cache = warm.cache().clone();
        let config = PipelineConfig::new().with_trace_capacity(Some(16));
        let mut cold = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99).build();
        cold.set_radio_dark(true);
        let t1 = SimTime::from_millis(100);
        let outcome = cold.process_frame(
            &frame_for(&u, 3, t1),
            &moving_window(100),
            &[&warm_cache],
            t1,
        );
        // The peer held the answer, but the radio was dark.
        assert_eq!(outcome.path, ResolutionPath::FullInference);
        assert_eq!(cold.transport_counters().messages_sent, 0);
        assert_eq!(cold.resilience_counters().outage_frames, 1);
        let trace = cold.trace().to_vec()[0];
        assert!(trace.radio_dark);
        assert_eq!(trace.peer.attempts, 0);

        // Out of the outage, the same query goes through again.
        cold.set_radio_dark(false);
        let t2 = SimTime::from_millis(200);
        let outcome = cold.process_frame(
            &frame_for(&u, 3, t2),
            &moving_window(200),
            &[&warm_cache],
            t2,
        );
        assert_eq!(outcome.path, ResolutionPath::PeerCache);
    }

    #[test]
    fn dark_fallback_opens_after_consecutive_timeouts() {
        let u = universe();
        let mut warm = device(SystemVariant::Full, &u);
        warm.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let warm_cache = warm.cache().clone();

        // Every exchange is lost, so every peer-tier frame is a timeout.
        let mut config = PipelineConfig::new().with_trace_capacity(Some(64));
        let peer = config.peer.as_mut().expect("peers enabled");
        peer.link.loss_prob = 1.0;
        peer.resilience = Some(p2pnet::ResilienceConfig {
            dark_fallback: Some(p2pnet::DarkFallback {
                threshold: 2,
                cooldown: SimDuration::from_secs(30),
            }),
            ..p2pnet::ResilienceConfig::default()
        });
        let mut d = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99).build();
        // Distinct subjects so the local cache never short-circuits the
        // peer tier.
        for i in 0..6u64 {
            let t = SimTime::from_millis((i + 1) * 100);
            d.process_frame(
                &frame_for(&u, (i % 20) as u32, t),
                &moving_window((i + 1) * 100),
                &[&warm_cache],
                t,
            );
        }
        let counters = d.resilience_counters();
        assert!(
            counters.peer_fallbacks >= 3,
            "fallback must suppress the peer tier after 2 dark frames: {counters:?}"
        );
        let traces = d.trace().to_vec();
        let fallback_frames = traces.iter().filter(|t| t.peer_fallback).count() as u64;
        assert_eq!(fallback_frames, counters.peer_fallbacks);
        // Suppressed frames really skipped the radio.
        for t in traces.iter().filter(|t| t.peer_fallback) {
            assert_eq!(t.peer.attempts, 0);
        }
    }

    #[test]
    fn edge_tier_is_off_by_default() {
        let u = universe();
        let d = device(SystemVariant::Full, &u);
        assert!(d.edge_counters().is_none());
        assert!(d.edge_cache().is_none());
    }

    #[test]
    fn edge_cache_answers_after_peers_and_warms_local() {
        let u = universe();
        let shared = edge::EdgeCache::new(edge::EdgeCacheConfig::default()).unwrap();
        let config = PipelineConfig::new()
            .with_peer(None)
            .with_edge(Some(crate::config::EdgeConfig::default()))
            .with_trace_capacity(Some(8));

        // A device somewhere else in the fleet infers once and pushes
        // the result up to the edge.
        let mut warm = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 99)
            .edge_cache(shared.clone())
            .build();
        let first = warm.process_frame(
            &frame_for(&u, 3, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        assert_eq!(first.path, ResolutionPath::FullInference);
        assert_eq!(
            shared.counters().inserts,
            1,
            "inference uploads to the edge"
        );

        // Whether that upload was *admitted* depends on the sampled
        // inference confidence (the edge applies the same 0.75 floor as
        // any cache). Seed one entry that clears it so the lookup half
        // of the test is deterministic.
        let key = warm.projection().project(u.center(ClassId(3)));
        shared
            .apply_batch(
                &edge::BatchRequest {
                    device: 7,
                    frames: vec![edge::Frame::Insert {
                        key,
                        label: 3,
                        confidence: 0.95,
                    }],
                },
                SimTime::ZERO,
            )
            .expect("seed batch");

        // A cold device with no peers in range resolves the same subject
        // over the WAN.
        let mut cold = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99)
            .edge_cache(shared.clone())
            .build();
        let t1 = SimTime::from_millis(100);
        let outcome = cold.process_frame(&frame_for(&u, 3, t1), &moving_window(100), &[], t1);
        assert_eq!(outcome.path, ResolutionPath::PeerCache);
        // One WAN round-trip (~50 ms) undercuts MobileNet's 75 ms.
        assert!(outcome.latency < SimDuration::from_millis(75));
        let counters = cold.edge_counters().expect("edge configured");
        assert_eq!(counters.queries_sent, 1);
        assert_eq!(counters.hits_adopted, 1);
        assert_eq!(cold.trace().to_vec()[0].path, simcore::TracePath::EdgeHit);

        // The adopted entry serves the next frame without the modem.
        let t2 = SimTime::from_millis(200);
        let outcome2 = cold.process_frame(&frame_for(&u, 3, t2), &moving_window(200), &[], t2);
        assert_eq!(outcome2.path, ResolutionPath::LocalCache);
        assert_eq!(
            cold.edge_counters().expect("edge configured").queries_sent,
            1,
            "local hits never wake the modem"
        );
    }

    #[test]
    fn peer_hit_relays_a_gossip_ad_to_the_edge() {
        let u = universe();
        let mut warm = device(SystemVariant::Full, &u);
        warm.process_frame(
            &frame_for(&u, 3, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let warm_cache = warm.cache().clone();

        let shared = edge::EdgeCache::new(edge::EdgeCacheConfig::default()).unwrap();
        let config = PipelineConfig::new().with_edge(Some(crate::config::EdgeConfig::default()));
        let mut cold = DeviceBuilder::new(DeviceId(1), &config, &u, 256, 99)
            .edge_cache(shared.clone())
            .build();
        let t1 = SimTime::from_millis(100);
        let outcome = cold.process_frame(
            &frame_for(&u, 3, t1),
            &moving_window(100),
            &[&warm_cache],
            t1,
        );
        // The nearby peer wins (cheaper than the WAN), and the answer is
        // relayed up so the rest of the fleet can find it.
        assert_eq!(outcome.path, ResolutionPath::PeerCache);
        assert_eq!(shared.counters().gossip_entries, 1);
        assert_eq!(
            cold.edge_counters().expect("edge configured").queries_sent,
            0,
            "a peer hit never reaches the edge lookup"
        );
    }

    #[test]
    fn radio_dark_suppresses_the_edge_tier_too() {
        let u = universe();
        let shared = edge::EdgeCache::new(edge::EdgeCacheConfig::default()).unwrap();
        let config = PipelineConfig::new()
            .with_peer(None)
            .with_edge(Some(crate::config::EdgeConfig::default()));
        let mut d = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 99)
            .edge_cache(shared.clone())
            .build();
        d.set_radio_dark(true);
        d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        assert_eq!(d.edge_counters().expect("edge configured").queries_sent, 0);
        assert_eq!(shared.counters().batches, 0, "dark frames upload nothing");
    }

    #[test]
    fn crash_loses_cache_and_last_result() {
        let u = universe();
        let mut d = device(SystemVariant::Full, &u);
        d.process_frame(
            &frame_for(&u, 0, SimTime::ZERO),
            &moving_window(0),
            &[],
            SimTime::ZERO,
        );
        let t1 = SimTime::from_millis(100);
        let hit = d.process_frame(&frame_for(&u, 0, t1), &moving_window(100), &[], t1);
        assert_eq!(hit.path, ResolutionPath::LocalCache);

        d.crash();
        assert_eq!(d.resilience_counters().crashes, 1);
        // Even a perfectly still device must re-infer: the validated
        // result died with the process.
        let t2 = SimTime::from_millis(200);
        let cold = d.process_frame(&frame_for(&u, 0, t2), &still_window(200), &[], t2);
        assert_eq!(cold.path, ResolutionPath::FullInference);
    }

    #[test]
    fn ad_retry_recovers_lost_advertisements() {
        let u = universe();
        let mut config = PipelineConfig::new();
        let peer = config.peer.as_mut().expect("peers enabled");
        peer.link.loss_prob = 0.6;
        peer.resilience = Some(p2pnet::ResilienceConfig {
            ad_retry: Some(p2pnet::RetryPolicy::default()),
            ..p2pnet::ResilienceConfig::default()
        });
        let mut d = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 99).build();
        let mut attempts = 0u32;
        let mut delivered = 0u32;
        for i in 0..60u64 {
            let t = SimTime::from_millis((i + 1) * 100);
            d.process_frame(
                &frame_for(&u, (i % 20) as u32, t),
                &moving_window((i + 1) * 100),
                &[],
                t,
            );
            if let Some(entry) = d.take_advertisement() {
                let message = P2pMessage::Advertise {
                    entries: vec![entry],
                };
                attempts += 1;
                if d.charge_advertisement(&message).is_some() {
                    delivered += 1;
                }
            }
        }
        let counters = d.resilience_counters();
        assert!(counters.ad_retries > 0, "60% loss must trigger retries");
        // 2 retries turn p=0.4 per attempt into ~78% delivery — well
        // above the 40% a single attempt would manage.
        assert!(attempts >= 20, "only {attempts} ads attempted");
        assert!(
            delivered * 2 > attempts,
            "delivered {delivered}/{attempts}; retries should beat 50%"
        );
    }

    fn bits(v: &FeatureVector) -> Vec<u32> {
        v.as_slice().iter().map(|c| c.to_bits()).collect()
    }

    fn sketch(d: &Device) -> &RandomProjection {
        d.scene_sketch
            .as_deref()
            .expect("Full runs the scene guard")
    }

    #[test]
    fn devices_built_from_one_projection_set_share_its_matrices() {
        let u = universe();
        let config = PipelineConfig::new();
        let shared = Projections::new(&config, SystemVariant::Full, 256);
        let with_shared =
            |id| DeviceBuilder::new(DeviceId(id), &config, &u, 256, 99).projections(shared.clone());
        let a = with_shared(0).build();
        let b = with_shared(1).build();
        let standalone = DeviceBuilder::new(DeviceId(2), &config, &u, 256, 99).build();
        assert!(std::ptr::eq(a.projection(), b.projection()));
        assert!(std::ptr::eq(a.projection(), &*shared.key));
        assert!(std::ptr::eq(sketch(&a), sketch(&b)));
        assert!(!std::ptr::eq(a.projection(), standalone.projection()));
        for class in 0..8 {
            let x = u.center(ClassId(class));
            let key = bits(&standalone.projection().project(x));
            assert_eq!(bits(&a.projection().project(x)), key);
            assert_eq!(bits(&b.projection().project(x)), key);
            let sketched = bits(&sketch(&standalone).project(x));
            assert_eq!(bits(&sketch(&a).project(x)), sketched);
        }
    }

    #[test]
    fn a_projection_set_built_for_another_shape_is_not_used() {
        let u = universe();
        let config = PipelineConfig::new();
        let narrower = PipelineConfig {
            key_dim: 32,
            ..config.clone()
        };
        let reseeded = PipelineConfig {
            projection_seed: 7,
            ..config.clone()
        };
        let foreign = [
            Projections::new(&narrower, SystemVariant::Full, 256),
            Projections::new(&reseeded, SystemVariant::Full, 256),
            Projections::new(&config, SystemVariant::Full, 128),
            // Built for a variant without the scene guard: no sketch.
            Projections::new(&config, SystemVariant::NoImu, 256),
        ];
        let own = Projections::new(&config, SystemVariant::Full, 256);
        for set in foreign {
            let d = DeviceBuilder::new(DeviceId(0), &config, &u, 256, 99)
                .projections(set.clone())
                .build();
            assert!(!std::ptr::eq(d.projection(), &*set.key));
            let sketch_rebuilt = set
                .scene_sketch
                .as_deref()
                .is_none_or(|s| !std::ptr::eq(sketch(&d), s));
            assert!(sketch_rebuilt, "a foreign set must be rebuilt whole");
            let x = u.center(ClassId(1));
            assert_eq!(bits(&d.projection().project(x)), bits(&own.key.project(x)));
            assert_eq!(
                bits(&sketch(&d).project(x)),
                bits(&own.scene_sketch.as_deref().expect("Full").project(x))
            );
        }
    }
}
