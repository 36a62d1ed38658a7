//! The two simulation workloads: `solo-video` (one phone, the paper's
//! own setting) and `fleet-grid` (the sharded fleet engine).
//!
//! Timed runs call `approxcache::run` / `run_fleet` and nothing else.
//! The traced passes wrap the same calls — and, for `solo-video`, a
//! frame loop of the benchmark's own that must reproduce `run`'s report
//! byte for byte — in spans.

use std::num::NonZeroUsize;
use std::time::Instant;

use approxcache::{
    run, run_fleet, Detail, DeviceBuilder, DeviceId, FleetOptions, PipelineConfig, ResolutionPath,
    RunReport, Scenario, SystemVariant,
};
use imu::{ImuSample, ImuSynthesizer};
use scene::{ClassUniverse, Frame, FrameRenderer, World};
use simcore::{SimDuration, SimRng, SimTime};

use crate::gen;
use crate::host;
use crate::names::{FLEET_GRID, SOLO_VIDEO};
use crate::outcome::{self, Block, Checks, Outcome};
use crate::spans::{SpanId, Tracer};
use crate::stats;
use crate::Plan;

/// Simulated seconds of one `solo-video` call: 1000 frames at 10 fps.
const SOLO_CALL_SECS: u64 = 100;
/// Worlds one `solo-video` seed stands for. A block is one pass over the
/// four profiles in one world; blocks take the worlds in turn. Accuracy
/// differs by two points from one world to the next, so a single world
/// would make the simulated metrics a property of the seed. A smoke run
/// takes two: every world runs once under each variant whatever the time
/// asked for, and eight are 4 s.
const SOLO_WORLDS: u64 = 8;
const SOLO_WORLDS_SMOKE: u64 = 2;
/// `fleet-grid` population and simulated length of one call.
const FLEET_DEVICES: usize = 1000;
const FLEET_CALL: SimDuration = SimDuration::from_secs(1);
/// Shards of every sharded fleet call.
const FLEET_SHARDS: usize = 8;
/// Frames (with their IMU windows) the traced loop keeps for the probes.
const RECORD_FRAMES: usize = 2048;

/// Slots of `RunReport::path_counts`: `[imu, local, peer, inference]`.
pub const IMU: usize = 0;
const LOCAL: usize = 1;
const PEER: usize = 2;
pub const INFER: usize = 3;

/// Sums over the reports of one repetition.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    frames: u64,
    latency_ms: f64,
    correct: f64,
}

impl Totals {
    fn add(&mut self, report: &RunReport) {
        let frames = report.frames as f64;
        self.frames += report.frames as u64;
        self.latency_ms += report.latency_ms.mean * frames;
        self.correct += report.accuracy * frames;
    }

    fn mean_latency_ms(&self) -> f64 {
        self.latency_ms / (self.frames as f64).max(1.0)
    }

    fn accuracy_pct(&self) -> f64 {
        100.0 * self.correct / (self.frames as f64).max(1.0)
    }
}

fn digest(reports: &[RunReport]) -> u64 {
    reports.iter().fold(outcome::FNV_OFFSET, |hash, report| {
        outcome::fnv1a(report.to_json().as_bytes(), hash)
    })
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(host::load_width()).unwrap_or(NonZeroUsize::MIN)
}

/// The checks every `Full` report must pass on its own.
fn check_report(report: &RunReport, checks: &mut Checks) {
    let by_path: u64 = report.path_counts.iter().sum();
    checks.require(by_path == report.frames as u64, || {
        format!(
            "{}: path counts sum to {by_path}, not to {} frames",
            report.scenario, report.frames
        )
    });
    checks.require(report.cache.is_balanced(), || {
        format!(
            "{}: cache stats do not reconcile: {:?}",
            report.scenario, report.cache
        )
    });
}

/// The simulated end-to-end metrics: `Full` against the `NoCache`
/// reference of the same scenarios and seed.
fn simulated_metrics(full: &Totals, nocache: &Totals, out: &mut Outcome) {
    out.checks
        .require(full.mean_latency_ms() < nocache.mean_latency_ms(), || {
            format!(
                "Full mean latency {:.3} ms does not beat NoCache {:.3} ms",
                full.mean_latency_ms(),
                nocache.mean_latency_ms()
            )
        });
    out.set(
        "latency_reduction_pct",
        100.0 * (1.0 - full.mean_latency_ms() / nocache.mean_latency_ms()),
    );
    out.set("accuracy_pct", full.accuracy_pct());
    out.note(format!(
        "simulated: Full {:.4} ms / {:.3} % correct, NoCache {:.4} ms / {:.3} % correct, {} frames a repetition",
        full.mean_latency_ms(),
        full.accuracy_pct(),
        nocache.mean_latency_ms(),
        nocache.accuracy_pct(),
        full.frames
    ));
}

/// Peak memory of this process (MiB) after the first block of a measured
/// phase and at the end of it.
#[derive(Debug)]
struct PeakRss {
    first_block: Result<f64, String>,
    at_end: Result<f64, String>,
}

impl PeakRss {
    fn unread(workload: &str) -> PeakRss {
        let unread = || Err(format!("{workload}: peak memory was not read"));
        PeakRss {
            first_block: unread(),
            at_end: unread(),
        }
    }
}

fn finish_timed(
    workload: &str,
    blocks: &[Block],
    setup_s: &[f64],
    peak_rss: PeakRss,
    out: &mut Outcome,
) {
    match outcome::pace(blocks, blocks) {
        Some(pace) => {
            out.set("frames_per_s", pace.frames_per_s);
            out.set("latency_p50_ms", pace.latency_p50_ms);
            out.set("latency_p90_ms", pace.latency_p90_ms);
            out.notes.extend(pace.describe());
        }
        None => out.checks.fail(format!("{workload}: no block completed")),
    }
    out.set("setup_s", stats::median(setup_s));
    match (peak_rss.first_block, peak_rss.at_end) {
        (Ok(first), Ok(end)) => {
            out.set("peak_rss_mb", end);
            out.note(format!(
                "peak_rss_mb: {first:.2} MiB after the first block, {end:.2} MiB at the end of the measured phase ({:.3} x)",
                end / first
            ));
        }
        (Err(e), _) | (_, Err(e)) => out.checks.fail(e),
    }
    let rates: Vec<f64> = blocks
        .iter()
        .filter(|b| b.seconds > 0.0)
        .map(|b| b.frames as f64 / b.seconds)
        .collect();
    if !rates.is_empty() {
        out.note(outcome::describe("frames_per_s", "frames/s", &rates));
    }
}

/// Requires every repetition of one input to have given one digest, and
/// notes the digest of all inputs together.
fn check_digests(workload: &str, per_input: &[Vec<u64>], out: &mut Outcome) {
    let mut all = outcome::FNV_OFFSET;
    for digests in per_input {
        let first = digests.first().copied().unwrap_or(0);
        out.checks.require(digests.iter().all(|&d| d == first), || {
            format!("{workload}: repetitions disagree on the report digest")
        });
        all = outcome::fnv1a(&first.to_le_bytes(), all);
    }
    out.note(format!(
        "digest {workload} {all:016x} ({} repetitions of {} inputs)",
        per_input.iter().map(Vec::len).sum::<usize>(),
        per_input.len()
    ));
}

// ---------------------------------------------------------------------
// solo-video
// ---------------------------------------------------------------------

/// One world of a `solo-video` seed: the simulation seed it runs under
/// and the four profiles with their calibrated configs.
struct SoloWorld {
    seed: u64,
    cases: Vec<(Scenario, PipelineConfig)>,
}

fn solo_cases(seed: u64) -> Vec<(Scenario, PipelineConfig)> {
    gen::solo_scenarios(SOLO_CALL_SECS)
        .into_iter()
        .map(|scenario| {
            let config = PipelineConfig::calibrated(&scenario, seed);
            (scenario, config)
        })
        .collect()
}

/// Scenario build and threshold calibration for the first `worlds`
/// worlds of `seed`.
fn solo_setup(seed: u64, worlds: u64) -> Vec<SoloWorld> {
    let root = gen::workload_rng(seed, SOLO_VIDEO);
    (0..worlds)
        .map(|w| {
            let seed = root.split_index("world", w).seed_value();
            SoloWorld {
                seed,
                cases: solo_cases(seed),
            }
        })
        .collect()
}

/// `approxcache::run` under `variant`, timed.
fn legacy_call(
    scenario: &Scenario,
    config: &PipelineConfig,
    variant: SystemVariant,
    seed: u64,
) -> Result<(RunReport, f64), String> {
    let start = Instant::now();
    let result = run(scenario, config, variant, seed, Detail::Summary)
        .map_err(|e| format!("{}: run: {e}", scenario.name))?;
    Ok((result.report, start.elapsed().as_secs_f64()))
}

/// One pass over the four profiles under `Full`; `None` if a call failed.
fn solo_round(
    cases: &[(Scenario, PipelineConfig)],
    seed: u64,
    block: &mut Block,
    out: &mut Outcome,
) -> Option<Vec<RunReport>> {
    let mut reports = Vec::with_capacity(cases.len());
    for (scenario, config) in cases {
        let (report, seconds) =
            out.attempt(legacy_call(scenario, config, SystemVariant::Full, seed))?;
        block.frames += report.frames as u64;
        block.seconds += seconds;
        block.latencies_ms.push(seconds * 1e3);
        reports.push(report);
    }
    Some(reports)
}

/// Times `setup` `repeats` times and keeps what the first one built.
/// The first runs before the measured phase, the others after it, so
/// that peak memory at the end of the measured phase is that of one
/// set-up and the phase. `setup_s` is their median.
fn timed_setups<T>(
    repeats: usize,
    mut setup: impl FnMut() -> T,
    measure: impl FnOnce(&T),
) -> (T, Vec<f64>) {
    let start = Instant::now();
    let built = setup();
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    measure(&built);
    for _ in 1..repeats {
        let start = Instant::now();
        drop(setup());
        setup_s.push(start.elapsed().as_secs_f64());
    }
    (built, setup_s)
}

/// The timed `solo-video` run.
pub fn solo_timed(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut blocks = Vec::new();
    let world_count = if plan.is_smoke() {
        SOLO_WORLDS_SMOKE
    } else {
        SOLO_WORLDS
    };
    let mut digests: Vec<Vec<u64>> = vec![Vec::new(); world_count as usize];
    let mut full = Totals::default();
    let mut peak_rss = PeakRss::unread(SOLO_VIDEO);
    let (worlds, setup_s) = timed_setups(
        plan.setup_repeats(),
        || solo_setup(plan.seed, world_count),
        |worlds| {
            let started = Instant::now();
            // Every world at least once, then until the time is up.
            for round in 0.. {
                if round >= worlds.len() && started.elapsed().as_secs_f64() >= plan.seconds {
                    break;
                }
                let world = &worlds[round % worlds.len()];
                let mut block = Block::default();
                let Some(reports) = solo_round(&world.cases, world.seed, &mut block, &mut out)
                else {
                    break;
                };
                blocks.push(block);
                if round < worlds.len() {
                    for report in &reports {
                        check_report(report, &mut out.checks);
                        full.add(report);
                    }
                }
                if round == 0 {
                    peak_rss.first_block = host::peak_rss_mib(None);
                }
                digests[round % worlds.len()].push(digest(&reports));
            }
            peak_rss.at_end = host::peak_rss_mib(None);
        },
    );
    // The reference the simulated metrics are held against: one untimed
    // `NoCache` pass over the same worlds.
    let mut nocache = Totals::default();
    for world in &worlds {
        for (scenario, config) in &world.cases {
            match legacy_call(scenario, config, SystemVariant::NoCache, world.seed) {
                Ok((report, _)) => nocache.add(&report),
                Err(e) => out.checks.fail(e),
            }
        }
    }
    simulated_metrics(&full, &nocache, &mut out);
    check_digests(SOLO_VIDEO, &digests, &mut out);
    finish_timed(SOLO_VIDEO, &blocks, &setup_s, peak_rss, &mut out);
    out
}

/// The IMU samples strictly after `from` and at or before `to` — the
/// window `sim::run` hands `process_frame`.
fn window_of(stream: &[ImuSample], from: SimTime, to: SimTime, rate_hz: f64) -> &[ImuSample] {
    let start = ((from.as_secs_f64() * rate_hz).floor() as usize + 1).min(stream.len());
    let end = ((to.as_secs_f64() * rate_hz).floor() as usize + 1).min(stream.len());
    stream.get(start.min(end)..end).unwrap_or(&[])
}

/// Inputs the traced loop saw, kept for the layer probes to replay.
#[derive(Debug, Default)]
pub struct Recorded {
    pub frames: Vec<Frame>,
    pub windows: Vec<Vec<ImuSample>>,
}

/// Host time `process_frame` took, split by the path that answered.
#[derive(Debug, Clone, Copy, Default)]
struct PathTime {
    calls: [u64; 4],
    ns: [u64; 4],
}

fn path_index(path: ResolutionPath) -> usize {
    match path {
        ResolutionPath::ImuReuse => IMU,
        ResolutionPath::LocalCache => LOCAL,
        ResolutionPath::PeerCache => PEER,
        ResolutionPath::FullInference => INFER,
    }
}

/// The benchmark's own single-device frame loop: what `sim::run` does
/// for one device with no faults and no churn, with a span around each
/// call into a layer. Returns the report folded from its outcomes.
fn traced_loop(
    scenario: &Scenario,
    config: &PipelineConfig,
    seed: u64,
    tracer: &mut Tracer,
    op: &mut u32,
    paths: &mut PathTime,
    recorded: &mut Recorded,
) -> Result<RunReport, String> {
    if scenario.devices != 1 || scenario.churn.is_some() || !scenario.faults.is_idle() {
        return Err(format!(
            "{}: the traced loop covers one device without churn or faults",
            scenario.name
        ));
    }
    let root = SimRng::seed(seed);
    let mut world_rng = root.split("world");
    let universe = ClassUniverse::generate(&scenario.scene, &mut world_rng);
    let world = World::generate(&universe, &scenario.scene, &mut world_rng);
    let renderer = FrameRenderer::new(&scenario.scene);
    let traces = approxcache::config::device_traces(
        scenario.profile,
        1,
        scenario.duration,
        scenario.imu_rate_hz,
        scenario.spawn_spacing,
        &root,
    );
    let trace = traces.first().ok_or("no motion trace")?;
    let mut imu_rng = root.split_index("imu", 0);
    let imu_stream = ImuSynthesizer::default().synthesize(trace, &mut imu_rng);
    let mut device = DeviceBuilder::new(
        DeviceId(0),
        config,
        &universe,
        scenario.scene.descriptor_dim,
        seed,
    )
    .variant(SystemVariant::Full)
    .build();
    let mut frame_rng = root.split("frames");

    let frame_interval = SimDuration::from_secs_f64(1.0 / scenario.fps);
    let total_frames = (scenario.duration.as_secs_f64() * scenario.fps).floor() as usize;
    let mut prev = SimTime::ZERO;
    for index in 1..=total_frames {
        let now = SimTime::ZERO + frame_interval * index as u64;
        *op += 1;
        let frame_span = tracer.enter("solo.frame", SpanId::NONE, *op);

        let span = tracer.enter("scene.render", frame_span, *op);
        let pose = trace.pose_at(now);
        let frame = renderer.render(&world, &pose, now, &mut frame_rng);
        tracer.exit(span);

        let span = tracer.enter("imu.window", frame_span, *op);
        let window = window_of(&imu_stream, prev, now, scenario.imu_rate_hz);
        tracer.exit(span);

        let span = tracer.enter("approxcache.process_frame", frame_span, *op);
        device.set_radio_dark(false);
        let outcome = device.process_frame(&frame, window, &[], now);
        let ns = tracer.exit(span);
        // What `sim::run` drains after every frame; a lone device has
        // nobody to tell.
        device.take_peer_outcomes();
        device.take_advertisement();
        tracer.exit(frame_span);

        let slot = path_index(outcome.path);
        paths.calls[slot] += 1;
        paths.ns[slot] += ns;
        if recorded.frames.len() < RECORD_FRAMES {
            recorded.windows.push(window.to_vec());
            recorded.frames.push(frame);
        }
        prev = now;
    }

    *op += 1;
    let span = tracer.enter("approxcache.report_fold", SpanId::NONE, *op);
    let mut report = RunReport::from_outcomes(
        &scenario.name,
        SystemVariant::Full.name(),
        1,
        device.outcomes(),
        device.cache().stats(),
        device.transport_counters(),
    );
    tracer.exit(span);
    report.faults.merge(device.resilience_counters());
    Ok(report)
}

/// What the `solo-video` traced pass leaves for the rest of the traced
/// run: the frames it saw and the config it ran under.
#[derive(Debug)]
pub struct SoloPass {
    pub recorded: Recorded,
    pub config: PipelineConfig,
    /// `Full` reports of one pass over the profiles.
    pub reports: Vec<RunReport>,
    /// Host ns per frame of `process_frame`, over all paths.
    pub process_frame_ns: f64,
}

/// The `solo-video` traced pass: rounds of (`approxcache::run`, then the
/// benchmark's own loop with spans) over the four profiles until
/// `budget_s` is spent. `trace_to` names the trace file to write.
pub fn solo_pass(
    seed: u64,
    budget_s: f64,
    trace_to: Option<&std::path::Path>,
    out: &mut Outcome,
) -> Option<SoloPass> {
    let cases = solo_cases(seed);
    let frames_per_round: usize = cases
        .iter()
        .map(|(s, _)| (s.duration.as_secs_f64() * s.fps).floor() as usize)
        .sum();
    // Four spans a frame and one fold a call. The traced loop has half
    // the budget and reaches some 18 k frames/s, so a full budget at 15 k
    // leaves room, and the round under way when the budget ends fits too.
    let capacity = (budget_s * 15_000.0 * 4.0) as usize + 4 * frames_per_round + 64;
    let mut tracer = Tracer::on(Instant::now(), capacity);

    let mut op = 0u32;
    let mut paths = PathTime::default();
    let mut recorded = Recorded::default();
    let mut reference: Vec<RunReport> = Vec::new();
    let mut timed_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let started = Instant::now();
    while timed_rates.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        let mut block = Block::default();
        let reports = solo_round(&cases, seed, &mut block, out)?;
        timed_rates.push(block.frames as f64 / block.seconds);

        let start = Instant::now();
        let mut own = Vec::with_capacity(cases.len());
        for (scenario, config) in &cases {
            match traced_loop(
                scenario,
                config,
                seed,
                &mut tracer,
                &mut op,
                &mut paths,
                &mut recorded,
            ) {
                Ok(report) => own.push(report),
                Err(e) => {
                    out.checks.fail(e);
                    return None;
                }
            }
        }
        traced_rates.push(frames_per_round as f64 / start.elapsed().as_secs_f64());
        if reference.is_empty() {
            for (theirs, ours) in reports.iter().zip(&own) {
                out.checks.require(theirs.to_json() == ours.to_json(), || {
                    format!(
                        "{}: the traced loop's report differs from approxcache::run's; the trace is invalid",
                        theirs.scenario
                    )
                });
            }
            reference = reports;
        }
    }

    let layers = tracer.layers();
    let per_call = |name: &str| {
        layers
            .get(name)
            .filter(|l| l.calls > 0)
            .map_or(0.0, |l| l.total_ns as f64 / l.calls as f64)
    };
    let render_ns = per_call("scene.render");
    let process_frame_ns = per_call("approxcache.process_frame");
    let by_path = |slot: usize| {
        if paths.calls[slot] == 0 {
            0.0
        } else {
            paths.ns[slot] as f64 / paths.calls[slot] as f64
        }
    };
    let timed_rate = stats::fastest_rate(&timed_rates);
    let traced_rate = stats::fastest_rate(&traced_rates);
    out.set("scene.render_ns", render_ns);
    out.set(
        "scene.render_calls",
        layers.get("scene.render").map_or(0.0, |l| l.calls as f64),
    );
    out.set("approxcache.process_frame_ns", process_frame_ns);
    out.set("approxcache.process_frame_ns_imu", by_path(IMU));
    out.set("approxcache.process_frame_ns_local", by_path(LOCAL));
    out.set("approxcache.process_frame_ns_infer", by_path(INFER));
    // `sim::run`'s own share of a frame: its rate against the two calls
    // it makes per frame, as the traced loop timed them.
    out.set(
        "approxcache.loop_self_ns",
        1e9 / timed_rate - render_ns - process_frame_ns,
    );
    let folds = layers
        .get("approxcache.report_fold")
        .copied()
        .unwrap_or_default();
    let frames_folded = layers.get("solo.frame").map_or(1, |l| l.calls.max(1));
    out.set(
        "approxcache.report_fold_ns",
        folds.total_ns as f64 / frames_folded as f64,
    );
    let imu_frames = reference.iter().map(|r| r.path_counts[IMU]).sum::<u64>() as f64;
    let frames = reference.iter().map(|r| r.frames).sum::<usize>() as f64;
    out.set("imu.gate_reuse_ratio", imu_frames / frames.max(1.0));

    if let Some(path) = trace_to {
        let coverage = tracer.coverage("solo.frame");
        out.checks.require(coverage >= 0.95, || {
            format!(
                "solo-video: spans cover only {:.1} % of a frame",
                coverage * 100.0
            )
        });
        out.checks.require(tracer.dropped() == 0, || {
            format!("solo-video: {} spans dropped", tracer.dropped())
        });
        out.set(
            "benchmark.trace_overhead_pct",
            100.0 * (timed_rate / traced_rate - 1.0),
        );
        out.note(format!(
            "trace {SOLO_VIDEO}: {} spans, layers cover {:.2} % of a frame, {:.0} frames/s timed, {:.0} traced",
            tracer.spans().len(),
            coverage * 100.0,
            timed_rate,
            traced_rate
        ));
        for (name, layer) in &layers {
            out.note(format!(
                "  {name}: {} calls, total {:.3} ms, self {:.3} ms",
                layer.calls,
                layer.total_ns as f64 / 1e6,
                layer.self_ns as f64 / 1e6
            ));
        }
        if let Err(e) = tracer.write_json(path, SOLO_VIDEO) {
            out.checks.fail(format!("write {}: {e}", path.display()));
        }
    }
    let config = cases.into_iter().next().map(|(_, config)| config)?;
    Some(SoloPass {
        recorded,
        config,
        reports: reference,
        process_frame_ns,
    })
}

// ---------------------------------------------------------------------
// fleet-grid
// ---------------------------------------------------------------------

fn fleet_call(
    scenario: &Scenario,
    config: &PipelineConfig,
    variant: SystemVariant,
    seed: u64,
    shards: usize,
    threads: NonZeroUsize,
) -> Result<(RunReport, f64), String> {
    let options = FleetOptions { shards, threads };
    let start = Instant::now();
    let report = run_fleet(scenario, config, variant, seed, &options)
        .map_err(|e| format!("{}: run_fleet: {e}", scenario.name))?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// The timed `fleet-grid` run.
pub fn fleet_timed(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let workers = workers();
    let mut blocks = Vec::new();
    let mut digests = Vec::new();
    let mut first: Option<RunReport> = None;
    let mut peak_rss = PeakRss::unread(FLEET_GRID);
    let ((scenario, config), setup_s) = timed_setups(
        plan.setup_repeats(),
        || {
            let scenario = gen::fleet_scenario(FLEET_DEVICES, FLEET_CALL);
            let config = PipelineConfig::calibrated(&scenario, plan.seed);
            (scenario, config)
        },
        |(scenario, config)| {
            let started = Instant::now();
            while blocks.is_empty() || started.elapsed().as_secs_f64() < plan.seconds {
                let Some((report, seconds)) = out.attempt(fleet_call(
                    scenario,
                    config,
                    SystemVariant::Full,
                    plan.seed,
                    FLEET_SHARDS,
                    workers,
                )) else {
                    break;
                };
                blocks.push(Block {
                    frames: report.frames as u64,
                    seconds,
                    latencies_ms: vec![seconds * 1e3],
                });
                digests.push(digest(std::slice::from_ref(&report)));
                if first.is_none() {
                    peak_rss.first_block = host::peak_rss_mib(None);
                    first = Some(report);
                }
            }
            peak_rss.at_end = host::peak_rss_mib(None);
        },
    );
    // One untimed `NoCache` call: what the simulated metrics are held
    // against.
    let mut reference = Totals::default();
    match fleet_call(
        &scenario,
        &config,
        SystemVariant::NoCache,
        plan.seed,
        FLEET_SHARDS,
        workers,
    ) {
        Ok((report, _)) => reference.add(&report),
        Err(e) => out.checks.fail(e),
    }

    let mut full = Totals::default();
    if let Some(report) = &first {
        check_report(report, &mut out.checks);
        full.add(report);
        // The engine's contract: any sharding on any worker count gives
        // the bytes of one shard on one worker.
        match fleet_call(
            &scenario,
            &config,
            SystemVariant::Full,
            plan.seed,
            1,
            NonZeroUsize::MIN,
        ) {
            Ok((single, _)) => out.checks.require(single.to_json() == report.to_json(), || {
                format!(
                    "fleet-grid: the report at ({FLEET_SHARDS} shards, {workers} workers) differs from (1, 1)"
                )
            }),
            Err(e) => out.checks.fail(e),
        }
    }
    simulated_metrics(&full, &reference, &mut out);
    check_digests(FLEET_GRID, std::slice::from_ref(&digests), &mut out);
    finish_timed(FLEET_GRID, &blocks, &setup_s, peak_rss, &mut out);
    out
}

/// The `fleet-grid` traced pass: whole-call spans of `run_fleet` at
/// (1 shard, 1 worker), (8, 1), (8, W) and of `sim::run` on the same
/// scenario, in rounds until `budget_s` is spent, plus the crowd guard.
/// Returns the report of the (8, W) call.
pub fn fleet_pass(
    seed: u64,
    budget_s: f64,
    devices: usize,
    crowd_secs: u64,
    trace_to: Option<&std::path::Path>,
    out: &mut Outcome,
) -> Option<RunReport> {
    let workers = workers();
    let scenario = gen::fleet_scenario(devices, FLEET_CALL);
    let config = PipelineConfig::calibrated(&scenario, seed);
    let mut tracer = Tracer::on(Instant::now(), 4096);
    let cpu_before = host::cpu_ticks(None);

    let calls: [(&'static str, usize, NonZeroUsize); 3] = [
        ("approxcache.run_fleet.s1w1", 1, NonZeroUsize::MIN),
        (
            "approxcache.run_fleet.s8w1",
            FLEET_SHARDS,
            NonZeroUsize::MIN,
        ),
        ("approxcache.run_fleet.s8wW", FLEET_SHARDS, workers),
    ];
    // ns per frame of the three traced calls, then of the untraced twin
    // of the last one.
    let mut ns_per_frame: [Vec<f64>; 4] = Default::default();
    let mut legacy_ns_per_frame = Vec::new();
    let mut sharded: Option<RunReport> = None;
    let mut op = 0u32;
    let started = Instant::now();
    while legacy_ns_per_frame.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        op += 1;
        let round = tracer.enter("fleet.round", SpanId::NONE, op);
        for (slot, &(name, shards, threads)) in calls.iter().enumerate() {
            let span = tracer.enter(name, round, op);
            let result = fleet_call(
                &scenario,
                &config,
                SystemVariant::Full,
                seed,
                shards,
                threads,
            );
            tracer.exit(span);
            let (report, seconds) = out.attempt(result)?;
            ns_per_frame[slot].push(seconds * 1e9 / report.frames as f64);
            if slot == 2 {
                sharded.get_or_insert(report);
            }
        }
        let span = tracer.enter("approxcache.sim_run", round, op);
        let result = legacy_call(&scenario, &config, SystemVariant::Full, seed);
        tracer.exit(span);
        tracer.exit(round);
        let (report, seconds) = out.attempt(result)?;
        legacy_ns_per_frame.push(seconds * 1e9 / report.frames as f64);
        // The (8, W) call once more outside any span: what tracing costs.
        let (report, seconds) = out.attempt(fleet_call(
            &scenario,
            &config,
            SystemVariant::Full,
            seed,
            FLEET_SHARDS,
            workers,
        ))?;
        ns_per_frame[3].push(seconds * 1e9 / report.frames as f64);
    }

    let [single, one_worker, all_workers, untraced] =
        ns_per_frame.each_ref().map(|v| stats::fastest_time(v));
    let legacy = stats::fastest_time(&legacy_ns_per_frame);
    out.set("approxcache.fleet_ns_per_frame_w1", one_worker);
    out.set(
        "approxcache.fleet_parallel_efficiency",
        one_worker / (all_workers * workers.get() as f64),
    );
    out.set("approxcache.fleet_engine_overhead", single / legacy);
    if let (Ok((user0, sys0)), Ok((user1, sys1))) = (cpu_before, host::cpu_ticks(None)) {
        let (user, sys) = (user1.saturating_sub(user0), sys1.saturating_sub(sys0));
        out.set(
            "approxcache.fleet_sys_cpu_share",
            sys as f64 / ((user + sys) as f64).max(1.0),
        );
    } else {
        out.checks
            .fail("fleet-grid: cannot read CPU times".to_owned());
    }

    // The crowd guard: the legacy loop on a dense room, where every
    // device has every other as a neighbour.
    let crowd = workloads::multi::museum(48).with_duration(SimDuration::from_secs(crowd_secs));
    let crowd_config = PipelineConfig::calibrated(&crowd, seed);
    op += 1;
    let span = tracer.enter("approxcache.sim_run.crowd", SpanId::NONE, op);
    let result = legacy_call(&crowd, &crowd_config, SystemVariant::Full, seed);
    tracer.exit(span);
    if let Some((report, seconds)) = out.attempt(result) {
        out.set(
            "approxcache.crowd_ns_per_frame",
            seconds * 1e9 / report.frames as f64,
        );
    }

    let report = sharded?;
    let frames = report.frames as f64;
    out.set(
        "p2pnet.bytes_per_frame",
        report.network.bytes_sent as f64 / frames,
    );
    out.set("p2pnet.delivery_ratio", report.network.delivery_rate());
    // Peer-tier attempts are the frames the local tiers could not
    // answer: they end as a peer hit or as an inference.
    let peer = report.path_counts[PEER] as f64;
    let infer = report.path_counts[INFER] as f64;
    out.set("p2pnet.peer_hit_ratio", peer / (peer + infer).max(1.0));

    if let Some(path) = trace_to {
        let coverage = tracer.coverage("fleet.round");
        out.checks.require(coverage >= 0.95, || {
            format!(
                "fleet-grid: spans cover only {:.1} % of a round",
                coverage * 100.0
            )
        });
        out.set(
            "benchmark.trace_overhead_pct",
            100.0 * (all_workers / untraced - 1.0),
        );
        out.note(format!(
            "trace {FLEET_GRID}: {} spans over {} rounds of {devices} devices, calls cover {:.2} % of a round; ns/frame (1,1) {single:.0}, (8,1) {one_worker:.0}, (8,{workers}) {all_workers:.0}, sim::run {:.0}",
            tracer.spans().len(),
            legacy_ns_per_frame.len(),
            coverage * 100.0,
            legacy
        ));
        if let Err(e) = tracer.write_json(path, FLEET_GRID) {
            out.checks.fail(format!("write {}: {e}", path.display()));
        }
    }
    Some(report)
}

/// `reuse.*` and `dnnsim.*` ratios of a set of `Full` reports.
pub fn reuse_metrics(reports: &[RunReport], out: &mut Outcome) {
    let mut cache = reuse::CacheStats::default();
    let (mut frames, mut inferred) = (0u64, 0u64);
    for report in reports {
        cache.merge(&report.cache);
        frames += report.frames as u64;
        inferred += report.path_counts[INFER];
    }
    out.set("reuse.hit_ratio", cache.hit_rate());
    out.set("reuse.evictions", cache.evictions as f64);
    out.set(
        "dnnsim.infer_share",
        inferred as f64 / (frames as f64).max(1.0),
    );
}
