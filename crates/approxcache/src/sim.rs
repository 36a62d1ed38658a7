//! The multi-device collaborative simulation driver.
//!
//! A scenario fixes the world, the devices' motion and the stream
//! parameters; [`run`] plays it out frame by frame:
//!
//! 1. every device renders its frame from its own pose (all devices share
//!    one [`World`], so nearby devices see the same objects);
//! 2. each device runs the pipeline, querying in-range neighbours'
//!    caches (nearest first) on local misses;
//! 3. advertisement pushes are delivered with sampled link delay;
//! 4. optional churn replaces world objects at fixed intervals;
//! 5. optional deterministic fault injection (radio outages, partitions,
//!    degraded links, crashes, advertisement poisoning — see
//!    [`p2pnet::faults`]) gates every radio interaction above.

use serde::{Deserialize, Serialize};

use imu::{DeviceStream, ImuSynthesizer, MotionProfile};
use p2pnet::{
    FaultConfig, FaultSchedule, P2pMessage, ProximityModel, ResilienceCounters, WireEntry,
};
use scene::{ClassUniverse, FrameRenderer, SceneConfig, World};
use simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::baseline::SystemVariant;
use crate::config::{device_motion, PipelineConfig};
use crate::device::{Device, DeviceBuilder, DeviceId, FrameOutcome, Projections};
use crate::error::ConfigError;
use crate::report::RunReport;

/// Periodic world churn: every `interval`, replace `fraction` of objects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Time between churn events.
    pub interval: SimDuration,
    /// Fraction of objects replaced per event, `[0, 1]`.
    pub fraction: f64,
}

/// A complete experiment scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Name used in reports.
    pub name: String,
    /// Device motion regime (all devices share the profile; their traces
    /// are independent).
    pub profile: MotionProfile,
    /// Number of collaborating devices.
    pub devices: usize,
    /// Simulated stream length.
    pub duration: SimDuration,
    /// Camera frame rate, frames per second.
    pub fps: f64,
    /// IMU sample rate, Hz.
    pub imu_rate_hz: f64,
    /// The synthetic world.
    pub scene: SceneConfig,
    /// Optional object churn.
    pub churn: Option<ChurnSpec>,
    /// Metres between device spawn points.
    pub spawn_spacing: f64,
    /// Per-device phone classes for heterogeneous fleets. `None` gives
    /// every device the pipeline config's class; a non-empty vector is
    /// cycled over devices (`device i` gets `classes[i % len]`).
    pub device_classes: Option<Vec<dnnsim::DeviceClass>>,
    /// Deterministic fault injection (radio outages, partitions, degraded
    /// links, crashes, advertisement poisoning). The default injects
    /// nothing, and an idle config is provably zero-impact: it is skipped
    /// from serialized scenarios and consumes no randomness.
    #[serde(default, skip_serializing_if = "FaultConfig::is_idle")]
    pub faults: FaultConfig,
}

impl Scenario {
    /// A one-device scenario with default world and stream parameters
    /// (30 s at 10 fps, 100 Hz IMU).
    pub fn single_device(profile: MotionProfile) -> Scenario {
        Scenario {
            name: profile.name().to_owned(),
            profile,
            devices: 1,
            duration: SimDuration::from_secs(30),
            fps: 10.0,
            imu_rate_hz: 100.0,
            scene: SceneConfig::default(),
            churn: None,
            spawn_spacing: 4.0,
            device_classes: None,
            faults: FaultConfig::default(),
        }
    }

    /// A multi-device scenario in one shared world.
    pub fn multi_device(profile: MotionProfile, devices: usize) -> Scenario {
        Scenario {
            name: format!("{}-x{}", profile.name(), devices),
            devices,
            ..Scenario::single_device(profile)
        }
    }

    /// Device `d`'s sensor inputs, produced as the clock reaches them:
    /// its ground-truth motion (`device_motion`) and an IMU whose noise
    /// is drawn from `imu_rng`.
    pub(crate) fn device_stream(&self, d: usize, root: &SimRng, imu_rng: SimRng) -> DeviceStream {
        let motion = device_motion(
            self.profile,
            d,
            self.devices,
            self.duration,
            self.imu_rate_hz,
            self.spawn_spacing,
            root,
        );
        DeviceStream::new(motion, ImuSynthesizer::default(), imu_rng)
    }

    /// Overrides the name.
    pub fn with_name(mut self, name: &str) -> Scenario {
        self.name = name.to_owned();
        self
    }

    /// Overrides the duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Scenario {
        self.duration = duration;
        self
    }

    /// Overrides the frame rate.
    pub fn with_fps(mut self, fps: f64) -> Scenario {
        self.fps = fps;
        self
    }

    /// Adds churn.
    pub fn with_churn(mut self, churn: ChurnSpec) -> Scenario {
        self.churn = Some(churn);
        self
    }

    /// Overrides the scene.
    pub fn with_scene(mut self, scene: SceneConfig) -> Scenario {
        self.scene = scene;
        self
    }

    /// Makes the fleet heterogeneous: device `i` runs on
    /// `classes[i % classes.len()]`.
    pub fn with_device_classes(mut self, classes: Vec<dnnsim::DeviceClass>) -> Scenario {
        self.device_classes = Some(classes);
        self
    }

    /// Adds fault injection.
    pub fn with_faults(mut self, faults: FaultConfig) -> Scenario {
        self.faults = faults;
        self
    }

    /// Validates the scenario's ranges: zero devices, non-positive rates,
    /// invalid churn and invalid fault configs are all rejected with a
    /// typed error naming the field.
    ///
    /// # Panics
    ///
    /// Panics on an invalid *scene* config ([`SceneConfig::validate`] is
    /// owned by the `scene` crate and still asserts).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.devices == 0 {
            return Err(ConfigError::NotPositive {
                context: "Scenario",
                field: "devices",
            });
        }
        if self.fps <= 0.0 || self.fps.is_nan() {
            return Err(ConfigError::NotPositive {
                context: "Scenario",
                field: "fps",
            });
        }
        if self.imu_rate_hz <= 0.0 || self.imu_rate_hz.is_nan() {
            return Err(ConfigError::NotPositive {
                context: "Scenario",
                field: "imu_rate_hz",
            });
        }
        if self.duration.is_zero() {
            return Err(ConfigError::NotPositive {
                context: "Scenario",
                field: "duration",
            });
        }
        if let Some(churn) = &self.churn {
            if !(0.0..=1.0).contains(&churn.fraction) {
                return Err(ConfigError::OutOfRange {
                    context: "Scenario",
                    field: "churn fraction",
                    min: 0.0,
                    max: 1.0,
                });
            }
            if churn.interval.is_zero() {
                return Err(ConfigError::NotPositive {
                    context: "Scenario",
                    field: "churn interval",
                });
            }
        }
        if let Some(classes) = &self.device_classes {
            if classes.is_empty() {
                return Err(ConfigError::Inconsistent {
                    context: "Scenario",
                    message: "device_classes must be non-empty",
                });
            }
        }
        self.faults.validate()?;
        self.scene.validate();
        Ok(())
    }
}

/// The detailed result of a run: the aggregate report plus per-device
/// outcome logs (for per-device analyses).
#[derive(Debug)]
pub struct SimResult {
    /// Aggregate over all devices.
    pub report: RunReport,
    /// Each device's per-frame log.
    pub per_device: Vec<Vec<FrameOutcome>>,
    /// Each device's decision trace (empty unless the pipeline config
    /// sets a `trace_capacity`).
    pub traces: Vec<Vec<simcore::FrameTrace>>,
}

/// How much per-frame detail [`run`] retains.
///
/// `Summary` drops the per-device outcome and trace logs (the aggregate
/// [`RunReport`] is always produced); `Full` keeps both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detail {
    /// Aggregate report only; `per_device` and `traces` come back empty.
    Summary,
    /// Keep every device's outcome log and decision trace.
    Full,
}

/// Plays `scenario` out frame by frame under `variant` and returns the
/// result, rejecting invalid scenario or network configuration up front
/// instead of panicking mid-run.
///
/// `detail` picks how much per-frame data survives: [`Detail::Summary`]
/// keeps only the aggregate report, [`Detail::Full`] also the per-device
/// outcome logs and decision traces.
pub fn run(
    scenario: &Scenario,
    config: &PipelineConfig,
    variant: SystemVariant,
    seed: u64,
    detail: Detail,
) -> Result<SimResult, ConfigError> {
    scenario.validate()?;
    if let Some(peer) = &config.peer {
        peer.validate()?;
    }
    // One edge cache is shared by the whole fleet; its hit test reuses
    // the pipeline's (possibly calibrated) distance threshold so edge
    // and local answers agree about what counts as "the same scene".
    let edge_cache = match &config.edge {
        None => None,
        Some(edge_config) => {
            edge_config.link.validate()?;
            if !edge_config.query_budget_fraction.is_finite()
                || edge_config.query_budget_fraction < 0.0
            {
                return Err(ConfigError::Inconsistent {
                    context: "EdgeConfig",
                    message: "query_budget_fraction must be finite and non-negative",
                });
            }
            let cache_config = edge::EdgeCacheConfig {
                capacity: edge_config.capacity,
                distance_threshold: config.cache.aknn.distance_threshold,
                queue_limit: edge_config.queue_limit,
            };
            match edge::EdgeCache::new(cache_config) {
                Ok(cache) => Some(cache),
                Err(message) => {
                    return Err(ConfigError::Inconsistent {
                        context: "EdgeConfig",
                        message,
                    })
                }
            }
        }
    };
    let root = SimRng::seed(seed);
    // Fault timeline: materialized only when the scenario injects
    // anything; splits are non-consuming, so an idle scenario draws the
    // exact same random stream as before this layer existed.
    let faults_rng = root.split("faults");
    let schedule = if scenario.faults.is_idle() {
        FaultSchedule::idle()
    } else {
        FaultSchedule::generate(
            &scenario.faults,
            scenario.devices,
            scenario.duration,
            &faults_rng,
        )
    };
    let mut poison_rng = faults_rng.split("poison");
    let mut fault_totals = ResilienceCounters::default();
    let mut world_rng = root.split("world");
    let universe = ClassUniverse::generate(&scenario.scene, &mut world_rng);
    let mut world = World::generate(&universe, &scenario.scene, &mut world_rng);
    let renderer = FrameRenderer::new(&scenario.scene);
    let projections = Projections::new(config, variant, scenario.scene.descriptor_dim);

    // Motion: ground truth + per-device noisy IMU, produced as the clock
    // reaches them.
    let mut streams: Vec<DeviceStream> = (0..scenario.devices)
        .map(|d| scenario.device_stream(d, &root, root.split_index("imu", d as u64)))
        .collect();

    let mut devices: Vec<Device> = (0..scenario.devices)
        .map(|d| {
            let mut builder = DeviceBuilder::new(
                DeviceId(d),
                config,
                &universe,
                scenario.scene.descriptor_dim,
                seed,
            )
            .variant(variant)
            .projections(projections.clone());
            if let Some(classes) = &scenario.device_classes {
                if let Some(&class) = classes.get(d % classes.len()) {
                    builder = builder.device_class(class);
                }
            }
            if let Some(shared) = &edge_cache {
                builder = builder.edge_cache(shared.clone());
            }
            builder.build()
        })
        .collect();

    let proximity = config
        .peer
        .as_ref()
        .map(|p| ProximityModel::new(p.link.range_m.min(1e6)));
    let fanout = config.peer.as_ref().map_or(0, |p| p.advertise_fanout);

    // Optional beacon-based discovery (instead of oracle proximity),
    // breaker-armed when the resilience config asks for it.
    let breaker_config = config
        .peer
        .as_ref()
        .and_then(|p| p.resilience)
        .and_then(|r| r.breaker);
    let mut discoveries: Option<Vec<p2pnet::Discovery>> = config
        .peer
        .as_ref()
        .and_then(|p| p.discovery)
        .filter(|_| variant.peers_enabled() && scenario.devices > 1)
        .map(|d| {
            (0..scenario.devices)
                .map(|_| match breaker_config {
                    Some(breaker) => p2pnet::Discovery::with_breaker(d, breaker),
                    None => p2pnet::Discovery::new(d),
                })
                .collect()
        });
    let mut beacon_rng = root.split("beacons");

    let frame_interval = SimDuration::from_secs_f64(1.0 / scenario.fps);
    let total_frames = (scenario.duration.as_secs_f64() * scenario.fps).floor() as usize;

    // Pending advertisement deliveries: (target device, entry).
    let mut ad_queue: EventQueue<(usize, WireEntry)> = EventQueue::new();
    let mut frame_rng = root.split("frames");
    let mut churn_rng = root.split("churn");
    let mut next_churn = scenario.churn.map(|c| SimTime::ZERO + c.interval);

    let mut prev_frame_time = SimTime::ZERO;
    for frame_index in 1..=total_frames {
        let now = SimTime::ZERO + frame_interval * frame_index as u64;

        // Fault bookkeeping: crash devices whose crash instant fell inside
        // this frame window (the discovery table dies with the process),
        // and propagate the degraded-link factor to every transport.
        if !schedule.is_idle() {
            for (d, device) in devices.iter_mut().enumerate() {
                if schedule.crash_between(d, prev_frame_time, now) {
                    device.crash();
                    if let Some(discoveries) = &mut discoveries {
                        if let Some(disc) = discoveries.get_mut(d) {
                            disc.reset();
                        }
                    }
                }
            }
            let degradation = schedule.degradation(now);
            for device in devices.iter_mut() {
                device.set_link_degradation(degradation);
            }
        }

        // Deliver due advertisements.
        while ad_queue.peek_time().is_some_and(|at| at <= now) {
            let Some((at, (target, entry))) = ad_queue.pop() else {
                break;
            };
            if let Some(device) = devices.get_mut(target) {
                device.receive_advertisement(&entry, at);
            }
        }

        // Churn the world on schedule.
        if let (Some(churn), Some(due)) = (scenario.churn, next_churn) {
            if now >= due {
                world.churn(churn.fraction, &mut churn_rng);
                next_churn = Some(due + churn.interval);
            }
        }

        // Positions of every device at this instant (for proximity).
        let positions: Vec<(f64, f64)> = streams
            .iter_mut()
            .map(|s| {
                let pose = s.pose_at(now);
                (pose.x, pose.y)
            })
            .collect();

        // Beacon exchange: every due transmitter reaches every device
        // currently in physical range; reception applies the configured
        // delivery probability.
        if let (Some(discoveries), Some(model)) = (&mut discoveries, &proximity) {
            for sender in 0..scenario.devices {
                if schedule.radio_dark(sender, now) {
                    continue;
                }
                let due = discoveries
                    .get_mut(sender)
                    .is_some_and(|d| d.should_beacon(now));
                if due {
                    for receiver in model.neighbors(&positions, sender) {
                        if !schedule.reachable(sender, receiver, now) {
                            continue;
                        }
                        if let Some(d) = discoveries.get_mut(receiver) {
                            d.receive_beacon(sender as u64, now, &mut beacon_rng);
                        }
                    }
                }
            }
        }

        for (d, stream) in streams.iter_mut().enumerate() {
            let pose = stream.pose_at(now);
            let frame = renderer.render(&world, &pose, now, &mut frame_rng);
            let window = stream.window(prev_frame_time, now);

            let dark = schedule.radio_dark(d, now);

            // Neighbour caches: from the discovery table when configured
            // (freshest beacon first, filtered to devices actually still
            // in range), otherwise from the proximity oracle (nearest
            // first). A dark radio reaches nobody, and partitioned
            // neighbours drop out.
            let mut neighbor_indices: Vec<usize> = match (&mut discoveries, &proximity) {
                _ if dark => Vec::new(),
                (Some(discoveries), Some(model)) => {
                    let in_range = model.neighbors(&positions, d);
                    discoveries[d]
                        .neighbors(now)
                        .into_iter()
                        .map(|id| id as usize)
                        .filter(|n| in_range.contains(n))
                        .collect()
                }
                (None, Some(model)) if variant.peers_enabled() => model.neighbors(&positions, d),
                _ => Vec::new(),
            };
            if !schedule.is_idle() {
                neighbor_indices.retain(|&n| schedule.reachable(d, n, now));
            }
            let neighbor_caches: Vec<reuse::SharedCache<scene::ClassId>> = neighbor_indices
                .iter()
                .map(|&n| devices[n].cache().clone())
                .collect();
            let cache_refs: Vec<&reuse::SharedCache<scene::ClassId>> =
                neighbor_caches.iter().collect();

            let device = &mut devices[d];
            device.set_radio_dark(dark);
            device.process_frame(&frame, window, &cache_refs, now);

            // Feed this frame's per-peer delivery outcomes to the
            // device's breaker (slots map back through neighbor_indices).
            let peer_outcomes = device.take_peer_outcomes();
            if let Some(discoveries) = &mut discoveries {
                for (slot, delivered) in peer_outcomes {
                    if let Some(&peer) = neighbor_indices.get(slot) {
                        discoveries[d].record_query_outcome(peer as u64, delivered, now);
                    }
                }
            }

            // Advertise fresh inference results to the nearest neighbours.
            if let Some(entry) = device.take_advertisement() {
                let message = P2pMessage::Advertise {
                    entries: vec![entry.clone()],
                };
                for &target in neighbor_indices.iter().take(fanout) {
                    if let Some(delay) = device.charge_advertisement(&message) {
                        let mut entry = entry.clone();
                        // Adversarial ad poisoning: corrupt the label so
                        // the receiver caches a wrong answer.
                        if schedule.poison_prob() > 0.0 && poison_rng.chance(schedule.poison_prob())
                        {
                            entry.label = entry.label.wrapping_add(1);
                            fault_totals.record_poisoned_ad();
                        }
                        ad_queue.schedule(now + delay, (target, entry));
                    }
                }
            }
        }
        prev_frame_time = now;
    }

    let all_outcomes: Vec<FrameOutcome> = devices
        .iter()
        .flat_map(|d| d.outcomes().iter().copied())
        .collect();
    let mut cache = reuse::CacheStats::default();
    let mut network = p2pnet::TransportCounters::default();
    let mut edge_totals = edge::EdgeCounters::default();
    for d in &devices {
        cache.merge(&d.cache().stats());
        network.merge(&d.transport_counters());
        fault_totals.merge(d.resilience_counters());
        if let Some(device_edge) = d.edge_counters() {
            edge_totals.merge(device_edge);
        }
    }
    // The server's books join the devices' query-side tallies: one
    // registry, reconcilable (`hits_adopted ≤ hits ≤ lookups ≤
    // queries_sent`).
    if let Some(shared) = &edge_cache {
        edge_totals.merge(&shared.counters());
    }
    // Beacon traffic is network cost too.
    if let Some(discoveries) = &discoveries {
        for disc in discoveries {
            network.record_beacons(disc.beacons_sent(), disc.beacon_bytes_sent());
            if let Some(breaker) = disc.breaker() {
                fault_totals.record_breaker(breaker);
            }
        }
    }
    let mut report = RunReport::from_outcomes(
        &scenario.name,
        variant.name(),
        scenario.devices,
        &all_outcomes,
        cache,
        network,
    );
    report.faults = fault_totals;
    report.edge = edge_totals;
    let (per_device, traces) = match detail {
        Detail::Summary => (Vec::new(), Vec::new()),
        Detail::Full => (
            devices.iter().map(|d| d.outcomes().to_vec()).collect(),
            devices.iter().map(|d| d.trace().to_vec()).collect(),
        ),
    };
    Ok(SimResult {
        report,
        per_device,
        traces,
    })
}

#[cfg(test)]
// Tests compare exactly-constructed floats; exact equality is intentional.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::device::ResolutionPath;

    fn quick(profile: MotionProfile) -> Scenario {
        Scenario::single_device(profile).with_duration(SimDuration::from_secs(8))
    }

    fn summary(
        scenario: &Scenario,
        config: &PipelineConfig,
        variant: SystemVariant,
        seed: u64,
    ) -> RunReport {
        run(scenario, config, variant, seed, Detail::Summary)
            .expect("valid scenario")
            .report
    }

    fn detailed(
        scenario: &Scenario,
        config: &PipelineConfig,
        variant: SystemVariant,
        seed: u64,
    ) -> SimResult {
        run(scenario, config, variant, seed, Detail::Full).expect("valid scenario")
    }

    #[test]
    fn stationary_full_system_reuses_heavily() {
        let scenario = quick(MotionProfile::Stationary);
        let config = PipelineConfig::calibrated(&scenario, 1);
        let report = summary(&scenario, &config, SystemVariant::Full, 1);
        assert_eq!(report.frames, 80);
        assert!(report.reuse_rate() > 0.85, "reuse {}", report.reuse_rate());
        assert!(
            report.path_fraction(ResolutionPath::ImuReuse) > 0.5,
            "imu fast path should dominate a stationary stream: {report}"
        );
    }

    #[test]
    fn edge_tier_counters_reconcile_and_assist() {
        let scenario = Scenario::multi_device(MotionProfile::SlowPan { deg_per_sec: 15.0 }, 6)
            .with_duration(SimDuration::from_secs(6));
        let config = PipelineConfig::calibrated(&scenario, 11);

        // Edge off (the default): the report carries no edge section.
        let baseline = summary(&scenario, &config, SystemVariant::NoPeer, 11);
        assert!(baseline.edge.is_idle());
        assert!(!baseline.to_json().contains("\"edge\""));

        // Edge on, same peerless fleet: devices query the shared cache
        // and the merged books reconcile (adopted ≤ hits ≤ lookups ≤
        // queries sent).
        let edge_config = config
            .clone()
            .with_edge(Some(crate::config::EdgeConfig::default()));
        let assisted = summary(&scenario, &edge_config, SystemVariant::NoPeer, 11);
        assert!(!assisted.edge.is_idle());
        assert!(assisted.edge.queries_sent > 0, "{}", assisted.edge);
        assert!(assisted.edge.inserts > 0, "{}", assisted.edge);
        assert!(assisted.edge.reconciles(), "{}", assisted.edge);
        assert!(assisted.to_json().contains("\"edge\""));
        // The tier can only add reuse opportunities, never remove them.
        assert!(
            assisted.reuse_rate() >= baseline.reuse_rate(),
            "edge-assisted {} vs local-only {}",
            assisted.reuse_rate(),
            baseline.reuse_rate()
        );
    }

    #[test]
    fn invalid_edge_config_is_rejected_up_front() {
        let scenario = quick(MotionProfile::Stationary);
        let edge = crate::config::EdgeConfig {
            capacity: 0,
            ..crate::config::EdgeConfig::default()
        };
        let config = PipelineConfig::new().with_edge(Some(edge));
        let err = run(&scenario, &config, SystemVariant::Full, 1, Detail::Summary)
            .expect_err("zero-capacity edge cache");
        assert!(err.to_string().contains("EdgeConfig"), "{err}");
    }

    #[test]
    fn no_cache_baseline_always_infers() {
        let scenario = quick(MotionProfile::Stationary);
        let config = PipelineConfig::calibrated(&scenario, 2);
        let report = summary(&scenario, &config, SystemVariant::NoCache, 2);
        assert_eq!(report.reuse_rate(), 0.0);
        assert!(report.latency_ms.mean > 50.0);
    }

    #[test]
    fn full_system_is_much_faster_than_no_cache() {
        let scenario = quick(MotionProfile::SlowPan { deg_per_sec: 10.0 });
        let config = PipelineConfig::calibrated(&scenario, 3);
        let base = summary(&scenario, &config, SystemVariant::NoCache, 3);
        let full = summary(&scenario, &config, SystemVariant::Full, 3);
        let reduction = full.latency_reduction_vs(&base);
        assert!(reduction > 0.5, "latency reduction {reduction}");
        // And accuracy stays close.
        assert!(
            full.accuracy_delta_vs(&base) > -0.12,
            "{}",
            full.accuracy_delta_vs(&base)
        );
    }

    #[test]
    fn peers_help_a_cold_device() {
        let scenario = Scenario::multi_device(MotionProfile::SlowPan { deg_per_sec: 15.0 }, 4)
            .with_duration(SimDuration::from_secs(8));
        let config = PipelineConfig::calibrated(&scenario, 4);
        let full = summary(&scenario, &config, SystemVariant::Full, 4);
        let solo = summary(&scenario, &config, SystemVariant::NoPeer, 4);
        let peer_frac = full.path_fraction(ResolutionPath::PeerCache);
        assert!(peer_frac > 0.0, "some frames must be answered by peers");
        assert!(
            full.reuse_rate() >= solo.reuse_rate() - 0.02,
            "collaboration must not hurt reuse: full {} vs solo {}",
            full.reuse_rate(),
            solo.reuse_rate()
        );
        assert!(full.network.bytes_sent > 0);
    }

    #[test]
    fn churn_lowers_reuse() {
        let calm = quick(MotionProfile::SlowPan { deg_per_sec: 10.0 });
        let config = PipelineConfig::calibrated(&calm, 5);
        let churny = calm
            .clone()
            .with_churn(ChurnSpec {
                interval: SimDuration::from_secs(2),
                fraction: 0.5,
            })
            .with_name("churn");
        let calm_report = summary(&calm, &config, SystemVariant::Full, 5);
        let churn_report = summary(&churny, &config, SystemVariant::Full, 5);
        assert!(
            churn_report.reuse_rate() < calm_report.reuse_rate(),
            "churn {} !< calm {}",
            churn_report.reuse_rate(),
            calm_report.reuse_rate()
        );
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let scenario = quick(MotionProfile::Walking { speed_mps: 1.4 });
        let config = PipelineConfig::calibrated(&scenario, 6);
        let a = summary(&scenario, &config, SystemVariant::Full, 6);
        let b = summary(&scenario, &config, SystemVariant::Full, 6);
        assert_eq!(a.latencies_ms, b.latencies_ms);
        assert_eq!(a.path_counts, b.path_counts);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn detailed_result_splits_devices() {
        let scenario = Scenario::multi_device(MotionProfile::Stationary, 3)
            .with_duration(SimDuration::from_secs(4));
        let config = PipelineConfig::calibrated(&scenario, 7);
        let result = detailed(&scenario, &config, SystemVariant::Full, 7);
        assert_eq!(result.per_device.len(), 3);
        let per_device_total: usize = result.per_device.iter().map(|d| d.len()).sum();
        assert_eq!(per_device_total, result.report.frames);
    }

    #[test]
    fn zero_devices_rejected() {
        let mut scenario = quick(MotionProfile::Stationary);
        scenario.devices = 0;
        let err = scenario.validate().expect_err("zero devices");
        assert_eq!(err.to_string(), "Scenario: devices must be positive");
    }

    #[test]
    fn invalid_faults_rejected_before_running() {
        let mut scenario = quick(MotionProfile::Stationary);
        scenario.faults.outage_fraction = 1.5;
        let config = PipelineConfig::calibrated(&scenario, 40);
        let err = run(&scenario, &config, SystemVariant::Full, 40, Detail::Summary)
            .expect_err("invalid fault config");
        assert!(
            err.to_string().contains("outage_fraction"),
            "error must name the field: {err}"
        );
    }

    #[test]
    fn idle_faults_leave_no_counter_residue() {
        let scenario = quick(MotionProfile::Stationary);
        let config = PipelineConfig::calibrated(&scenario, 41);
        let report = summary(&scenario, &config, SystemVariant::Full, 41);
        assert!(report.faults.is_idle(), "idle run recorded faults");
        assert!(
            !report.to_json().contains("\"faults\""),
            "idle runs must serialize without a faults section"
        );
    }

    #[test]
    fn fault_runs_are_deterministic_in_seed() {
        let scenario = Scenario::multi_device(MotionProfile::Stationary, 4)
            .with_duration(SimDuration::from_secs(8))
            .with_faults(FaultConfig {
                outage_fraction: 0.3,
                outage_mean: SimDuration::from_secs(2),
                crashes_per_device_minute: 2.0,
                poison_prob: 0.1,
                ..FaultConfig::default()
            });
        let mut config = PipelineConfig::calibrated(&scenario, 42);
        if let Some(peer) = config.peer.as_mut() {
            peer.resilience = Some(p2pnet::ResilienceConfig::recommended());
        }
        let a = summary(&scenario, &config, SystemVariant::Full, 42);
        let b = summary(&scenario, &config, SystemVariant::Full, 42);
        assert_eq!(a.to_json(), b.to_json(), "fault runs must be reproducible");
        assert!(
            !a.faults.is_idle(),
            "a 30% outage run must record fault activity"
        );
        assert!(a.faults.outage_frames > 0, "outage frames must be counted");
    }

    #[test]
    fn summary_detail_drops_per_device_logs() {
        let scenario = quick(MotionProfile::Stationary);
        let config = PipelineConfig::calibrated(&scenario, 43).with_trace_capacity(Some(4096));
        let lean = run(&scenario, &config, SystemVariant::Full, 43, Detail::Summary)
            .expect("valid scenario");
        assert!(lean.per_device.is_empty());
        assert!(lean.traces.is_empty());
        let full = detailed(&scenario, &config, SystemVariant::Full, 43);
        assert_eq!(full.per_device.len(), 1);
        assert_eq!(full.traces[0].len(), full.report.frames);
        // The retained detail level must not perturb the run.
        assert_eq!(lean.report.to_json(), full.report.to_json());
    }

    #[test]
    fn cascade_backend_cheapens_misses() {
        // Cache + cascade composition inside the full pipeline: the
        // walking tour's misses become cheaper with a little model in
        // front of the big one, at comparable accuracy.
        let scenario = Scenario::single_device(MotionProfile::Walking { speed_mps: 1.4 })
            .with_duration(SimDuration::from_secs(10));
        let big_only =
            PipelineConfig::calibrated(&scenario, 15).with_model(dnnsim::zoo::inception_v3());
        let cascaded = big_only
            .clone()
            .with_cascade(dnnsim::zoo::squeezenet(), 0.8);
        let single = summary(&scenario, &big_only, SystemVariant::Full, 15);
        let cascade = summary(&scenario, &cascaded, SystemVariant::Full, 15);
        // Miss-path latency must drop materially.
        let single_miss = single.path_mean_latency(ResolutionPath::FullInference);
        let cascade_miss = cascade.path_mean_latency(ResolutionPath::FullInference);
        assert!(
            cascade_miss < single_miss * 0.8,
            "cascade miss {cascade_miss} !< 0.8 × {single_miss}"
        );
        assert!(cascade.accuracy > single.accuracy - 0.1);
    }

    #[test]
    fn heterogeneous_fleet_helps_slow_devices_most() {
        // Museum of alternating budget and flagship phones: peers mean a
        // budget phone's misses are often answered by someone else's
        // (cheap) inference instead of its own (expensive) one.
        use dnnsim::DeviceClass;
        let scenario = Scenario::multi_device(
            MotionProfile::TurnAndLook {
                dwell_secs: 3.0,
                turn_deg: 45.0,
            },
            6,
        )
        .with_duration(SimDuration::from_secs(8))
        .with_device_classes(vec![DeviceClass::Budget, DeviceClass::Flagship]);
        let config = PipelineConfig::calibrated(&scenario, 13);
        let full = detailed(&scenario, &config, SystemVariant::Full, 13);
        let solo = detailed(&scenario, &config, SystemVariant::NoPeer, 13);
        let budget_mean = |result: &SimResult| {
            let frames: Vec<f64> = result
                .per_device
                .iter()
                .step_by(2) // devices 0, 2, 4 are Budget
                .flatten()
                .map(|o| o.latency.as_millis_f64())
                .collect();
            frames.iter().sum::<f64>() / frames.len() as f64
        };
        let with_peers = budget_mean(&full);
        let without = budget_mean(&solo);
        assert!(
            with_peers < without,
            "budget devices with peers {with_peers} !< solo {without}"
        );
    }

    #[test]
    fn beacon_discovery_finds_peers_and_costs_bytes() {
        let scenario = Scenario::multi_device(
            MotionProfile::TurnAndLook {
                dwell_secs: 3.0,
                turn_deg: 45.0,
            },
            4,
        )
        .with_duration(SimDuration::from_secs(8));
        let mut config = PipelineConfig::calibrated(&scenario, 8);
        let peer = config.peer.as_mut().expect("peers enabled");
        peer.discovery = Some(p2pnet::DiscoveryConfig::default());
        let report = summary(&scenario, &config, SystemVariant::Full, 8);
        // Discovery still enables collaboration…
        assert!(
            report.path_fraction(ResolutionPath::PeerCache) > 0.0,
            "discovered peers must serve hits: {report}"
        );
        // …and the beacon traffic is visible in the network counters: at
        // 500 ms intervals over 8 s, 4 devices send ≥ 60 beacons.
        assert!(
            report.network.messages_sent >= 60,
            "beacons must be accounted ({} messages)",
            report.network.messages_sent
        );
    }

    #[test]
    fn oracle_and_discovery_agree_when_beacons_are_perfect() {
        // With instant, lossless beacons, discovery converges to the
        // oracle neighbour set after one interval; reuse totals must be
        // close (initial invisibility window aside).
        let scenario = Scenario::multi_device(MotionProfile::Stationary, 4)
            .with_duration(SimDuration::from_secs(8));
        let mut config = PipelineConfig::calibrated(&scenario, 9);
        let oracle = summary(&scenario, &config, SystemVariant::Full, 9);
        config.peer.as_mut().expect("peers").discovery = Some(p2pnet::DiscoveryConfig {
            beacon_delivery_prob: 1.0,
            ..p2pnet::DiscoveryConfig::default()
        });
        let discovered = summary(&scenario, &config, SystemVariant::Full, 9);
        assert!(
            (oracle.reuse_rate() - discovered.reuse_rate()).abs() < 0.05,
            "oracle {} vs discovered {}",
            oracle.reuse_rate(),
            discovered.reuse_rate()
        );
    }

    #[test]
    fn traces_are_empty_unless_enabled() {
        let scenario = quick(MotionProfile::Stationary);
        let config = PipelineConfig::calibrated(&scenario, 30);
        let plain = detailed(&scenario, &config, SystemVariant::Full, 30);
        assert_eq!(plain.traces.len(), 1);
        assert!(plain.traces[0].is_empty());

        let traced_config = config.with_trace_capacity(Some(4096));
        let traced = detailed(&scenario, &traced_config, SystemVariant::Full, 30);
        assert_eq!(traced.traces[0].len(), traced.report.frames);
        // Tracing must not perturb the run itself.
        assert_eq!(traced.report.path_counts, plain.report.path_counts);
        assert_eq!(traced.report.latencies_ms, plain.report.latencies_ms);
    }
}
