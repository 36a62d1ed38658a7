//! Fleet-scale simulation: sharded device populations, deterministic
//! parallel execution.
//!
//! The legacy driver ([`sim::run`](crate::sim::run)) threads shared RNG
//! streams through a sequential device loop, so its results depend on
//! processing order — correct, reproducible, and impossible to
//! parallelize. This engine re-derives the same scenario semantics in a
//! *shard-count-invariant* form:
//!
//! - **Per-device randomness is keyed by global device id.** Frame
//!   rendering, beacon reception and ad poisoning draw from
//!   `split_index` streams owned by the device (or its sender), never
//!   from a stream shared across devices, so no device's draw depends
//!   on when another device ran.
//! - **Rounds alternate a sequential barrier with a parallel phase.**
//!   At the barrier the coordinator churns the single shared world,
//!   rebuilds the proximity grid from the devices' positions and drains
//!   due gossip. In the parallel phase each shard processes its device
//!   range; devices mutate only themselves and read only frozen shared
//!   state, and each ends its step by advancing its own input stream to
//!   the next round's position.
//! - **Peer queries hit frozen per-round views.** Each device exposes a
//!   [`frozen_view`](reuse::SharedCache::frozen_view) of its cache — a
//!   lock-free copy of its rows with the owner's ids — rebuilt only when
//!   its [`contents_version`](reuse::SharedCache::contents_version)
//!   moved. Shards read the views side by side; a view has no statistics
//!   or recency, so being queried does not disturb the owner.
//! - **All gossip crosses the round barrier.** Beacons and
//!   advertisements — in-shard and out — are collected into per-shard
//!   outboxes, posted to a [`BoundaryExchange`], and applied at a later
//!   barrier in canonical `(deliver_at, receiver, sender, seq)` order.
//!
//! Consequently an N-shard run on any worker count produces a
//! [`RunReport`] byte-for-byte identical to the 1-shard run on the same
//! population (pinned by test), and per-shard results merge by plain
//! concatenation in device order. Each shard also owns a
//! `seed.split_index("shard", s)` stream used to *shuffle* its intra-
//! round processing order — a built-in adversary: any hidden order
//! dependence would break the invariance tests immediately.

use std::num::NonZeroUsize;

use imu::{DeviceStream, Pose};
use p2pnet::{
    BoundaryExchange, Discovery, Envelope, FaultSchedule, P2pMessage, ProximityGrid,
    ProximityModel, ResilienceCounters, WireEntry,
};
use reuse::{FrozenView, PeerLookup};
use scene::{ClassId, ClassUniverse, FrameRenderer, World};
use simcore::parallel::{default_threads, run_labeled_jobs_on};
use simcore::{SimDuration, SimRng, SimTime};

use crate::baseline::SystemVariant;
use crate::config::PipelineConfig;
use crate::device::{Device, DeviceBuilder, DeviceId, FrameOutcome, Projections};
use crate::error::ConfigError;
use crate::report::RunReport;
use crate::sim::Scenario;

/// How to partition and schedule a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOptions {
    /// Number of population shards (clamped to `1..=devices`). Shards
    /// are contiguous device-index ranges; since spawn positions are
    /// row-major in device index, contiguous ranges are also spatially
    /// coherent.
    pub shards: usize,
    /// Worker threads for the parallel phases. The report is identical
    /// for every value; only wall-clock changes.
    pub threads: NonZeroUsize,
}

impl FleetOptions {
    /// One shard on one thread — the reference execution every other
    /// configuration must reproduce byte-for-byte.
    pub fn single() -> FleetOptions {
        FleetOptions {
            shards: 1,
            threads: NonZeroUsize::MIN,
        }
    }

    /// `shards` shards on up to one worker per available core.
    pub fn sharded(shards: usize) -> FleetOptions {
        FleetOptions {
            shards,
            threads: default_threads(),
        }
    }

    /// Same sharding, explicit worker count.
    pub fn with_threads(mut self, threads: NonZeroUsize) -> FleetOptions {
        self.threads = threads;
        self
    }
}

/// Everything one device owns across the whole run.
struct Slot {
    device: Device,
    discovery: Option<Discovery>,
    /// Ground-truth motion and IMU samples, produced as the clock
    /// reaches them (IMU noise on `split_index("fleet-imu", d)`).
    stream: DeviceStream,
    /// Where the device is this round: computed at the end of its
    /// previous round's step (at setup for round 1), read by the
    /// coordinator for the proximity grid and by the device to render.
    pose: Pose,
    /// Per-device frame-noise stream (`split_index("fleet-frame", d)`).
    frame_rng: SimRng,
    /// Receiver-side beacon-delivery stream
    /// (`split_index("fleet-beacon-rx", d)`).
    beacon_rng: SimRng,
    /// Sender-side ad-poisoning stream
    /// (`split_index("fleet-poison-tx", d)`).
    poison_rng: SimRng,
    ad_seq: u64,
    beacon_seq: u64,
}

/// Per-shard scratch that persists across rounds.
struct Lane {
    /// The shard's own RNG stream (`split_index("shard", s)`): shuffles
    /// the intra-round processing order, which the engine's invariants
    /// say cannot affect results.
    rng: SimRng,
    /// Reused neighbour buffer.
    scratch: Vec<usize>,
}

/// What one shard's round hands back to the coordinator.
#[derive(Default)]
struct Outbox {
    ads: Vec<Envelope<WireEntry>>,
    beacons: Vec<Envelope<()>>,
    poisoned: u64,
}

/// Read-only state shared by every shard during one round.
struct RoundCtx<'a> {
    variant: SystemVariant,
    schedule: &'a FaultSchedule,
    renderer: &'a FrameRenderer,
    world: &'a World,
    views: &'a [Option<FrozenView<ClassId>>],
    grid: Option<&'a ProximityGrid>,
    fanout: usize,
    now: SimTime,
    prev: SimTime,
    /// The next round's clock: each device steps its stream there at the
    /// end of its step.
    next: SimTime,
}

/// Contiguous `[floor(s·n/S), floor((s+1)·n/S))` device ranges.
fn shard_bounds(devices: usize, shards: usize) -> Vec<(usize, usize)> {
    (0..shards)
        .map(|s| (s * devices / shards, (s + 1) * devices / shards))
        .collect()
}

/// Plays `scenario` out on a sharded population and returns the merged
/// report. For any `(shards, threads)` the report is byte-for-byte the
/// report of `FleetOptions::single()` on the same arguments; see the
/// [module docs](self) for why.
///
/// # Errors
///
/// Rejects invalid scenario or network configuration, like
/// [`sim::run`](crate::sim::run).
pub fn run_fleet(
    scenario: &Scenario,
    config: &PipelineConfig,
    variant: SystemVariant,
    seed: u64,
    options: &FleetOptions,
) -> Result<RunReport, ConfigError> {
    scenario.validate()?;
    if let Some(peer) = &config.peer {
        peer.validate()?;
    }
    // The edge tier is one *shared mutable* cache: sharding the fleet
    // would split it into per-shard caches and break the byte-identity
    // contract above. Run edge experiments through `sim::run`.
    if config.edge.is_some() {
        return Err(ConfigError::Inconsistent {
            context: "FleetOptions",
            message: "the edge tier shares one cache across devices; run_fleet cannot shard it — use sim::run",
        });
    }
    let devices = scenario.devices;
    let shards = options.shards.clamp(1, devices.max(1));
    let threads = options.threads;
    let bounds = shard_bounds(devices, shards);

    let root = SimRng::seed(seed);
    let faults_rng = root.split("fleet-faults");
    let schedule = if scenario.faults.is_idle() {
        FaultSchedule::idle()
    } else {
        FaultSchedule::generate(&scenario.faults, devices, scenario.duration, &faults_rng)
    };
    let mut fault_totals = ResilienceCounters::default();
    let mut world_rng = root.split("fleet-world");
    let universe = ClassUniverse::generate(&scenario.scene, &mut world_rng);
    let mut world = World::generate(&universe, &scenario.scene, &mut world_rng);
    let renderer = FrameRenderer::new(&scenario.scene);
    let projections = Projections::new(config, variant, scenario.scene.descriptor_dim);

    let frame_interval = SimDuration::from_secs_f64(1.0 / scenario.fps);
    let total_frames = (scenario.duration.as_secs_f64() * scenario.fps).floor() as usize;
    let first_frame = SimTime::ZERO + frame_interval;

    let proximity = config
        .peer
        .as_ref()
        .map(|p| ProximityModel::new(p.link.range_m.min(1e6)));
    let fanout = config.peer.as_ref().map_or(0, |p| p.advertise_fanout);
    let breaker_config = config
        .peer
        .as_ref()
        .and_then(|p| p.resilience)
        .and_then(|r| r.breaker);
    let discovery_config = config
        .peer
        .as_ref()
        .and_then(|p| p.discovery)
        .filter(|_| variant.peers_enabled() && devices > 1);
    let peer_tier = proximity.is_some() && variant.peers_enabled() && devices > 1;

    // Build every shard's slots (devices, input streams at round 1's
    // pose, per-device RNG streams) in parallel — all derivations are
    // keyed by global device id, so the result is independent of which
    // worker built what.
    let built: Vec<Vec<Slot>> = run_labeled_jobs_on(
        threads,
        bounds
            .iter()
            .enumerate()
            .map(|(s, &(lo, hi))| {
                let root = &root;
                let universe = &universe;
                let projections = &projections;
                let job = move || {
                    let mut slots = Vec::with_capacity(hi - lo);
                    for d in lo..hi {
                        let mut builder = DeviceBuilder::new(
                            DeviceId(d),
                            config,
                            universe,
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
                        let discovery = discovery_config.map(|dc| match breaker_config {
                            Some(breaker) => Discovery::with_breaker(dc, breaker),
                            None => Discovery::new(dc),
                        });
                        let mut stream = scenario.device_stream(
                            d,
                            root,
                            root.split_index("fleet-imu", d as u64),
                        );
                        let pose = stream.pose_at(first_frame);
                        slots.push(Slot {
                            device: builder.build(),
                            discovery,
                            stream,
                            pose,
                            frame_rng: root.split_index("fleet-frame", d as u64),
                            beacon_rng: root.split_index("fleet-beacon-rx", d as u64),
                            poison_rng: root.split_index("fleet-poison-tx", d as u64),
                            ad_seq: 0,
                            beacon_seq: 0,
                        });
                    }
                    slots
                };
                (format!("fleet-setup-shard-{s}"), job)
            })
            .collect(),
    );
    let mut slots: Vec<Slot> = built.into_iter().flatten().collect();

    // Frozen peer views, one per device, rebuilt lazily when a cache's
    // contents version moves. The sentinel version builds every view in
    // round 1's view phase; without a peer tier none is built or asked.
    let mut views: Vec<Option<FrozenView<ClassId>>> = (0..devices).map(|_| None).collect();
    let mut view_versions: Vec<u64> = vec![u64::MAX; devices];

    let mut lanes: Vec<Lane> = (0..shards)
        .map(|s| Lane {
            rng: root.split_index("shard", s as u64),
            scratch: Vec::new(),
        })
        .collect();

    let mut ad_exchange: BoundaryExchange<WireEntry> = BoundaryExchange::new();
    let mut beacon_exchange: BoundaryExchange<()> = BoundaryExchange::new();
    let mut churn_rng = root.split("fleet-churn");
    let mut next_churn = scenario.churn.map(|c| SimTime::ZERO + c.interval);

    let mut prev_frame_time = SimTime::ZERO;
    for frame_index in 1..=total_frames {
        let now = SimTime::ZERO + frame_interval * frame_index as u64;

        // ---- Barrier: coordinator-owned shared state. ----
        if let (Some(churn), Some(due)) = (scenario.churn, next_churn) {
            if now >= due {
                world.churn(churn.fraction, &mut churn_rng);
                next_churn = Some(due + churn.interval);
            }
        }
        let positions: Vec<(f64, f64)> = slots.iter().map(|s| (s.pose.x, s.pose.y)).collect();
        let grid = match (&proximity, peer_tier || variant.peers_enabled()) {
            (Some(model), true) => Some(ProximityGrid::build(*model, &positions)),
            _ => None,
        };

        // Due gossip, in canonical order, bucketed per shard.
        let mut ad_batches: Vec<Vec<Envelope<WireEntry>>> =
            (0..shards).map(|_| Vec::new()).collect();
        for envelope in ad_exchange.drain_due(now) {
            let shard = shard_of(&bounds, envelope.receiver as usize);
            if let Some(batch) = ad_batches.get_mut(shard) {
                batch.push(envelope);
            }
        }
        let mut beacon_batches: Vec<Vec<Envelope<()>>> = (0..shards).map(|_| Vec::new()).collect();
        for envelope in beacon_exchange.drain_due(now) {
            let shard = shard_of(&bounds, envelope.receiver as usize);
            if let Some(batch) = beacon_batches.get_mut(shard) {
                batch.push(envelope);
            }
        }

        // ---- Parallel phase V: refresh dirty frozen views. ----
        // Views snapshot each cache as of the *previous* round's end —
        // before this round's gossip application — so every shard sees
        // the same peer state no matter when it runs.
        if peer_tier {
            let refreshed: Vec<Vec<(usize, FrozenView<ClassId>, u64)>> = run_labeled_jobs_on(
                threads,
                bounds
                    .iter()
                    .enumerate()
                    .map(|(s, &(lo, hi))| {
                        let slots = &slots;
                        let view_versions = &view_versions;
                        let job = move || {
                            let mut out = Vec::new();
                            for (d, slot) in slots.iter().enumerate().take(hi).skip(lo) {
                                let version = slot.device.cache().contents_version();
                                if view_versions.get(d).copied() != Some(version) {
                                    out.push((d, slot.device.cache().frozen_view(), version));
                                }
                            }
                            out
                        };
                        (format!("fleet-views-shard-{s}"), job)
                    })
                    .collect(),
            );
            for (d, view, version) in refreshed.into_iter().flatten() {
                if let (Some(slot), Some(stamp)) = (views.get_mut(d), view_versions.get_mut(d)) {
                    *slot = Some(view);
                    *stamp = version;
                }
            }
        }

        // ---- Parallel phase F: each shard runs its device range. ----
        let ctx = RoundCtx {
            variant,
            schedule: &schedule,
            renderer: &renderer,
            world: &world,
            views: &views,
            grid: grid.as_ref(),
            fanout,
            now,
            prev: prev_frame_time,
            next: SimTime::ZERO + frame_interval * (frame_index as u64 + 1),
        };
        let mut jobs: Vec<(String, Box<dyn FnOnce() -> Outbox + Send + '_>)> = Vec::new();
        {
            let ctx = &ctx;
            let mut rest = slots.as_mut_slice();
            let mut ad_iter = ad_batches.into_iter();
            let mut beacon_iter = beacon_batches.into_iter();
            for (s, lane) in lanes.iter_mut().enumerate() {
                let (lo, hi) = bounds.get(s).copied().unwrap_or((0, 0));
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                let ads_in = ad_iter.next().unwrap_or_default();
                let beacons_in = beacon_iter.next().unwrap_or_default();
                jobs.push((
                    format!("fleet-round-{frame_index}-shard-{s}"),
                    Box::new(move || shard_round(ctx, lo, head, lane, ads_in, beacons_in)),
                ));
            }
        }
        let outboxes = run_labeled_jobs_on(threads, jobs);

        // ---- Barrier: merge outboxes into the exchanges. ----
        for outbox in outboxes {
            ad_exchange.extend(outbox.ads);
            beacon_exchange.extend(outbox.beacons);
            for _ in 0..outbox.poisoned {
                fault_totals.record_poisoned_ad();
            }
        }
        prev_frame_time = now;
    }

    // Merge: concatenate outcomes in canonical device order (exactly
    // what the 1-shard run would have produced) and fold the
    // order-independent counters.
    let all_outcomes: Vec<FrameOutcome> = slots
        .iter()
        .flat_map(|s| s.device.outcomes().iter().copied())
        .collect();
    let mut cache = reuse::CacheStats::default();
    let mut network = p2pnet::TransportCounters::default();
    for slot in &slots {
        cache.merge(&slot.device.cache().stats());
        network.merge(&slot.device.transport_counters());
        fault_totals.merge(slot.device.resilience_counters());
        if let Some(disc) = &slot.discovery {
            network.record_beacons(disc.beacons_sent(), disc.beacon_bytes_sent());
            if let Some(breaker) = disc.breaker() {
                fault_totals.record_breaker(breaker);
            }
        }
    }
    let mut report = RunReport::from_outcomes(
        &scenario.name,
        variant.name(),
        devices,
        &all_outcomes,
        cache,
        network,
    );
    report.faults = fault_totals;
    Ok(report)
}

/// The shard owning global device index `d`.
fn shard_of(bounds: &[(usize, usize)], d: usize) -> usize {
    bounds
        .iter()
        .position(|&(lo, hi)| d >= lo && d < hi)
        .unwrap_or(0)
}

/// One shard's round: apply inbound gossip, process every device's
/// frame, collect outbound gossip. Devices mutate only themselves (and
/// the shard-local outbox, whose order is canonicalized downstream), so
/// the processing order — deliberately shuffled by the shard's RNG
/// stream — cannot affect any result.
fn shard_round(
    ctx: &RoundCtx<'_>,
    lo: usize,
    slots: &mut [Slot],
    lane: &mut Lane,
    ads_in: Vec<Envelope<WireEntry>>,
    beacons_in: Vec<Envelope<()>>,
) -> Outbox {
    let len = slots.len();
    let mut outbox = Outbox::default();

    // Bucket inbound gossip per device, preserving canonical order.
    let mut ad_inbox: Vec<Vec<Envelope<WireEntry>>> = (0..len).map(|_| Vec::new()).collect();
    for envelope in ads_in {
        let local = (envelope.receiver as usize).saturating_sub(lo);
        if let Some(inbox) = ad_inbox.get_mut(local) {
            inbox.push(envelope);
        }
    }
    let mut beacon_inbox: Vec<Vec<Envelope<()>>> = (0..len).map(|_| Vec::new()).collect();
    for envelope in beacons_in {
        let local = (envelope.receiver as usize).saturating_sub(lo);
        if let Some(inbox) = beacon_inbox.get_mut(local) {
            inbox.push(envelope);
        }
    }

    // Shuffled processing order: an in-engine adversary for hidden
    // order dependence.
    let mut order: Vec<usize> = (0..len).collect();
    lane.rng.shuffle(&mut order);

    for local in order {
        let d = lo + local;
        let Some(slot) = slots.get_mut(local) else {
            continue;
        };

        // Fault bookkeeping (same frame-window semantics as the legacy
        // driver, but self-contained per device).
        if !ctx.schedule.is_idle() {
            if ctx.schedule.crash_between(d, ctx.prev, ctx.now) {
                slot.device.crash();
                if let Some(disc) = slot.discovery.as_mut() {
                    disc.reset();
                }
            }
            slot.device
                .set_link_degradation(ctx.schedule.degradation(ctx.now));
        }

        // Due advertisements (delivered with their scheduled timestamp).
        if let Some(inbox) = ad_inbox.get_mut(local) {
            for envelope in inbox.drain(..) {
                slot.device
                    .receive_advertisement(&envelope.payload, envelope.deliver_at);
            }
        }

        // Beacons raised last round, received with this round's clock
        // and the receiver's own delivery stream.
        if let Some(inbox) = beacon_inbox.get_mut(local) {
            for envelope in inbox.drain(..) {
                if let Some(disc) = slot.discovery.as_mut() {
                    disc.receive_beacon(envelope.sender, ctx.now, &mut slot.beacon_rng);
                }
            }
        }

        let dark = ctx.schedule.radio_dark(d, ctx.now);

        // In-range neighbours, nearest first (shared by beacon fanout
        // and the peer tier).
        match ctx.grid {
            Some(grid) => grid.neighbors_into(d, &mut lane.scratch),
            None => lane.scratch.clear(),
        }

        // Outbound beacons: decided now, applied at the next barrier.
        if let Some(disc) = slot.discovery.as_mut() {
            if !dark && disc.should_beacon(ctx.now) {
                for &receiver in &lane.scratch {
                    if ctx.schedule.reachable(d, receiver, ctx.now) {
                        outbox.beacons.push(Envelope {
                            deliver_at: ctx.now,
                            receiver: receiver as u64,
                            sender: d as u64,
                            seq: slot.beacon_seq,
                            payload: (),
                        });
                        slot.beacon_seq += 1;
                    }
                }
            }
        }

        // Frame processing against frozen peer views.
        let frame = ctx
            .renderer
            .render(ctx.world, &slot.pose, ctx.now, &mut slot.frame_rng);
        let window = slot.stream.window(ctx.prev, ctx.now);

        let mut neighbor_indices: Vec<usize> = if dark {
            Vec::new()
        } else if let Some(disc) = slot.discovery.as_mut() {
            disc.neighbors(ctx.now)
                .into_iter()
                .map(|id| id as usize)
                .filter(|n| lane.scratch.contains(n))
                .collect()
        } else if ctx.grid.is_some() && ctx.variant.peers_enabled() {
            lane.scratch.clone()
        } else {
            Vec::new()
        };
        if !ctx.schedule.is_idle() {
            neighbor_indices.retain(|&n| ctx.schedule.reachable(d, n, ctx.now));
        }
        let peer_views: Vec<&dyn PeerLookup<ClassId>> = neighbor_indices
            .iter()
            .filter_map(|&n| Some(ctx.views.get(n)?.as_ref()? as &dyn PeerLookup<ClassId>))
            .collect();

        slot.device.set_radio_dark(dark);
        slot.device
            .process_frame(&frame, window, &peer_views, ctx.now);

        // Per-peer delivery outcomes feed the device's breaker.
        let peer_outcomes = slot.device.take_peer_outcomes();
        if let Some(disc) = slot.discovery.as_mut() {
            for (idx, delivered) in peer_outcomes {
                if let Some(&peer) = neighbor_indices.get(idx) {
                    disc.record_query_outcome(peer as u64, delivered, ctx.now);
                }
            }
        }

        // Advertise fresh inference results toward the nearest
        // neighbours; delivery happens at a later barrier.
        if let Some(entry) = slot.device.take_advertisement() {
            let message = P2pMessage::Advertise {
                entries: vec![entry.clone()],
            };
            for &target in neighbor_indices.iter().take(ctx.fanout) {
                if let Some(delay) = slot.device.charge_advertisement(&message) {
                    let mut payload = entry.clone();
                    if ctx.schedule.poison_prob() > 0.0
                        && slot.poison_rng.chance(ctx.schedule.poison_prob())
                    {
                        payload.label = payload.label.wrapping_add(1);
                        outbox.poisoned += 1;
                    }
                    outbox.ads.push(Envelope {
                        deliver_at: ctx.now + delay,
                        receiver: target as u64,
                        sender: d as u64,
                        seq: slot.ad_seq,
                        payload,
                    });
                    slot.ad_seq += 1;
                }
            }
        }

        // Step the device's inputs to the next round's pose here, in
        // the parallel phase, so the coordinator only reads positions.
        slot.pose = slot.stream.pose_at(ctx.next);
    }
    outbox
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{ChurnSpec, Scenario};
    use imu::MotionProfile;

    fn threads(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("positive")
    }

    fn fleet_scenario(devices: usize) -> Scenario {
        Scenario::multi_device(MotionProfile::SlowPan { deg_per_sec: 15.0 }, devices)
            .with_duration(SimDuration::from_secs(6))
    }

    #[test]
    fn shard_bounds_cover_the_population_exactly() {
        for (n, s) in [(10, 3), (7, 7), (10_000, 16), (5, 1)] {
            let bounds = shard_bounds(n, s);
            assert_eq!(bounds.len(), s);
            assert_eq!(bounds.first().map(|b| b.0), Some(0));
            assert_eq!(bounds.last().map(|b| b.1), Some(n));
            for w in bounds.windows(2) {
                if let [a, b] = w {
                    assert_eq!(a.1, b.0, "ranges must be contiguous");
                }
            }
        }
    }

    #[test]
    fn n_shard_report_is_byte_identical_to_single_shard() {
        let scenario = fleet_scenario(8);
        let config = PipelineConfig::calibrated(&scenario, 42);
        let reference = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            42,
            &FleetOptions::single(),
        )
        .expect("valid scenario")
        .to_json();
        for shards in [2usize, 4, 7] {
            let report = run_fleet(
                &scenario,
                &config,
                SystemVariant::Full,
                42,
                &FleetOptions {
                    shards,
                    threads: threads(4),
                },
            )
            .expect("valid scenario")
            .to_json();
            assert_eq!(
                report, reference,
                "{shards}-shard report must match the 1-shard run byte-for-byte"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let scenario = fleet_scenario(6);
        let config = PipelineConfig::calibrated(&scenario, 7);
        let opts = |t: usize| FleetOptions {
            shards: 3,
            threads: threads(t),
        };
        let one = run_fleet(&scenario, &config, SystemVariant::Full, 7, &opts(1))
            .expect("valid scenario")
            .to_json();
        let many = run_fleet(&scenario, &config, SystemVariant::Full, 7, &opts(8))
            .expect("valid scenario")
            .to_json();
        assert_eq!(one, many);
    }

    #[test]
    fn invariance_holds_under_churn_and_faults() {
        let scenario = fleet_scenario(8)
            .with_churn(ChurnSpec {
                interval: SimDuration::from_secs(2),
                fraction: 0.3,
            })
            .with_faults(p2pnet::FaultConfig {
                outage_fraction: 0.25,
                outage_mean: SimDuration::from_secs(2),
                crashes_per_device_minute: 2.0,
                poison_prob: 0.15,
                ..p2pnet::FaultConfig::default()
            });
        let config = PipelineConfig::calibrated(&scenario, 11);
        let reference = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            11,
            &FleetOptions::single(),
        )
        .expect("valid scenario")
        .to_json();
        let sharded = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            11,
            &FleetOptions {
                shards: 4,
                threads: threads(4),
            },
        )
        .expect("valid scenario")
        .to_json();
        assert_eq!(sharded, reference, "fault-storm run must stay invariant");
    }

    #[test]
    fn dense_crowd_on_two_workers_matches_the_single_shard_run() {
        // 64 phones 3 m apart: every phone has a crowd in radio range, so
        // shards on two workers read the same frozen views at once.
        let mut scenario = fleet_scenario(64).with_duration(SimDuration::from_secs(3));
        scenario.spawn_spacing = 3.0;
        let config = PipelineConfig::calibrated(&scenario, 99);
        let run = |options: FleetOptions| {
            run_fleet(&scenario, &config, SystemVariant::Full, 99, &options)
                .expect("valid scenario")
        };
        let reference = run(FleetOptions::single());
        assert!(
            reference.path_fraction(crate::device::ResolutionPath::PeerCache) > 0.0,
            "peers must answer: {reference}"
        );
        let sharded = run(FleetOptions {
            shards: 8,
            threads: threads(2),
        });
        assert_eq!(sharded.to_json(), reference.to_json());
    }

    #[test]
    fn fleet_population_actually_collaborates() {
        let scenario = fleet_scenario(8);
        let config = PipelineConfig::calibrated(&scenario, 5);
        let report = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            5,
            &FleetOptions {
                shards: 4,
                threads: threads(2),
            },
        )
        .expect("valid scenario");
        assert_eq!(report.devices, 8);
        assert!(report.frames > 0);
        assert!(
            report.network.bytes_sent > 0,
            "peer traffic must flow across shard boundaries"
        );
        assert!(
            report.path_fraction(crate::device::ResolutionPath::PeerCache) > 0.0,
            "some frames must be answered by peers: {report}"
        );
    }

    #[test]
    fn edge_tier_is_rejected_up_front() {
        let scenario = fleet_scenario(4);
        let config = PipelineConfig::calibrated(&scenario, 3)
            .with_edge(Some(crate::config::EdgeConfig::default()));
        let err = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            3,
            &FleetOptions::single(),
        )
        .expect_err("a shared edge cache cannot be sharded");
        assert!(err.to_string().contains("edge"), "{err}");
    }

    #[test]
    fn invalid_scenario_is_rejected_up_front() {
        let mut scenario = fleet_scenario(2);
        scenario.fps = 0.0;
        let config = PipelineConfig::new();
        let err = run_fleet(
            &scenario,
            &config,
            SystemVariant::Full,
            1,
            &FleetOptions::single(),
        );
        assert!(err.is_err());
    }
}
