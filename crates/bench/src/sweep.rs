//! The manifest-driven sweep orchestrator.
//!
//! A [`SweepManifest`] names a grid — motion profile × cache size ×
//! fault storm × device count — and [`expand`] unrolls it into
//! independent [`SweepJob`]s with deterministic slugs and per-job seeds
//! (`manifest.seed` split by job index, so any cell reproduces in
//! isolation). [`run_sweep`] plays the pending jobs on the worker pool
//! (each one a fleet run via [`approxcache::run_fleet`]), persists every
//! finished cell to `<state_dir>/<slug>.json` with an atomic
//! write-then-rename, and *skips* any cell whose state file already
//! parses — so an interrupted sweep resumes where it stopped, and a
//! finished sweep reruns for free.
//!
//! The merged [`SweepReport`] folds every cell's per-frame latencies
//! through the mergeable [`LatencyDigest`], which is how per-path
//! `Summary` statistics stay combinable across independently-executed
//! jobs: integer bucket counts sum in any order, and the summary is
//! derived once at the end.

use std::fs;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use approxcache::{run_fleet, FleetOptions, PipelineConfig, RunReport, Scenario, SystemVariant};
use imu::MotionProfile;
use p2pnet::FaultConfig;
use simcore::stats::Summary;
use simcore::{LatencyDigest, SimDuration, SimRng};

use simcore::parallel::run_labeled_jobs_on;

/// A serde-able description of one sweep grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepManifest {
    /// Sweep name — also the default state-directory name.
    pub name: String,
    /// Master seed; each job derives its own stream from it.
    pub seed: u64,
    /// Simulated seconds per cell.
    pub duration_secs: u64,
    /// Motion-profile axis.
    pub profiles: Vec<MotionProfile>,
    /// Cache-capacity axis (entries per device).
    pub cache_sizes: Vec<usize>,
    /// Fault-storm axis: radio-outage fraction in `[0, 1)`; `0.0` runs
    /// calm. Storms also scale crash and ad-poisoning rates (see
    /// [`storm_faults`]).
    pub fault_storms: Vec<f64>,
    /// Population-size axis.
    pub device_counts: Vec<usize>,
    /// Shards per fleet run. Any value produces identical results (the
    /// fleet engine is shard-count invariant); more shards only change
    /// how the population is partitioned internally.
    pub shards: usize,
}

impl SweepManifest {
    /// A tiny 2×2 grid (profile × devices, one cache size, one calm
    /// storm) used by CI's sweep-smoke stage.
    pub fn smoke() -> SweepManifest {
        SweepManifest {
            name: "smoke".to_owned(),
            seed: crate::MASTER_SEED,
            duration_secs: 3,
            profiles: vec![
                MotionProfile::Stationary,
                MotionProfile::SlowPan { deg_per_sec: 20.0 },
            ],
            cache_sizes: vec![64],
            fault_storms: vec![0.0],
            device_counts: vec![2, 4],
            shards: 2,
        }
    }
}

/// One expanded grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepJob {
    /// Position in the expansion order (row-major over
    /// profiles × cache sizes × storms × device counts).
    pub index: usize,
    /// Deterministic state-file stem, e.g. `slow-pan-c64-f25-d8`.
    pub slug: String,
    /// Motion profile for every device in the cell.
    pub profile: MotionProfile,
    /// Cache capacity, entries per device.
    pub cache_size: usize,
    /// Outage fraction of the cell's fault storm (`0.0` = calm).
    pub fault_storm: f64,
    /// Devices in the cell.
    pub devices: usize,
    /// The cell's own seed, derived from the manifest seed and `index`.
    pub seed: u64,
}

/// One finished cell: the job plus its report, exactly what the state
/// file `<state_dir>/<slug>.json` holds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// The cell that ran.
    pub job: SweepJob,
    /// Its full run report.
    pub report: RunReport,
}

/// The merged result of one sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Manifest name.
    pub name: String,
    /// Total cells in the grid.
    pub jobs: usize,
    /// Cells executed by this invocation.
    pub completed_this_run: usize,
    /// Cells loaded from prior state files (the resume path).
    pub resumed_from_disk: usize,
    /// Every frame latency across the whole grid, as a mergeable
    /// digest — two sweep reports can be combined by merging these.
    pub frame_latency_digest: LatencyDigest,
    /// The digest's derived summary (ms).
    pub frame_latency_ms: Summary,
    /// Per-cell headline rows, in expansion order.
    pub rows: Vec<SweepRow>,
}

/// One cell's headline numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// Cell slug.
    pub slug: String,
    /// Fraction of frames served without full inference.
    pub reuse_rate: f64,
    /// Label accuracy against ground truth.
    pub accuracy: f64,
    /// Mean per-frame latency, ms.
    pub mean_latency_ms: f64,
}

/// The fault configuration a storm level induces: `storm` is the
/// radio-outage fraction; crashes and ad poisoning scale with it.
pub fn storm_faults(storm: f64) -> FaultConfig {
    if storm <= 0.0 {
        return FaultConfig::default();
    }
    FaultConfig {
        outage_fraction: storm,
        outage_mean: SimDuration::from_secs(2),
        crashes_per_device_minute: storm * 4.0,
        poison_prob: storm * 0.5,
        ..FaultConfig::default()
    }
}

/// Unrolls the manifest's grid into jobs, row-major over
/// profiles × cache sizes × storms × device counts. Slugs and seeds are
/// pure functions of the manifest, so expansion is stable across runs —
/// the property the resume path depends on.
pub fn expand(manifest: &SweepManifest) -> Vec<SweepJob> {
    let root = SimRng::seed(manifest.seed);
    let mut jobs = Vec::new();
    for profile in &manifest.profiles {
        for &cache_size in &manifest.cache_sizes {
            for &storm in &manifest.fault_storms {
                for &devices in &manifest.device_counts {
                    let index = jobs.len();
                    let storm_pct = (storm * 100.0).round() as i64;
                    jobs.push(SweepJob {
                        index,
                        slug: format!(
                            "{}-c{}-f{}-d{}",
                            profile.name(),
                            cache_size,
                            storm_pct,
                            devices
                        ),
                        profile: *profile,
                        cache_size,
                        fault_storm: storm,
                        devices,
                        seed: root.split_index("sweep-job", index as u64).seed_value(),
                    });
                }
            }
        }
    }
    jobs
}

/// The scenario a job describes.
pub fn job_scenario(job: &SweepJob, duration_secs: u64) -> Scenario {
    Scenario::multi_device(job.profile, job.devices)
        .with_name(&job.slug)
        .with_duration(SimDuration::from_secs(duration_secs.max(1)))
        .with_faults(storm_faults(job.fault_storm))
}

/// Runs one cell to completion.
fn run_job(job: &SweepJob, duration_secs: u64, shards: usize) -> RunReport {
    let scenario = job_scenario(job, duration_secs);
    let mut config = PipelineConfig::calibrated(&scenario, job.seed);
    config.cache.capacity = job.cache_size.max(1);
    // One worker per fleet run: the sweep pool already saturates the
    // machine, and the report is thread-count invariant anyway.
    let options = FleetOptions {
        shards: shards.max(1),
        threads: NonZeroUsize::MIN,
    };
    match run_fleet(&scenario, &config, SystemVariant::Full, job.seed, &options) {
        Ok(report) => report,
        Err(e) => panic!("sweep job {}: {e}", job.slug),
    }
}

/// The state file a job persists to.
fn state_path(state_dir: &Path, job: &SweepJob) -> PathBuf {
    state_dir.join(format!("{}.json", job.slug))
}

/// Loads a previously-completed cell, tolerating anything short of a
/// parseable record (missing file, torn write, schema drift) by
/// reporting the job as pending.
fn load_record(state_dir: &Path, job: &SweepJob) -> Option<JobRecord> {
    let text = fs::read_to_string(state_path(state_dir, job)).ok()?;
    let record: JobRecord = serde_json::from_str(&text).ok()?;
    // A slug collision or hand-edited file must not masquerade as this
    // cell's result.
    (record.job.slug == job.slug && record.job.seed == job.seed).then_some(record)
}

/// Persists one finished cell atomically (write to a temp name, then
/// rename), so a sweep killed mid-write never leaves a state file that
/// half-parses.
fn store_record(state_dir: &Path, record: &JobRecord) {
    let path = state_path(state_dir, &record.job);
    let tmp = path.with_extension("json.tmp");
    let text = match serde_json::to_string_pretty(record) {
        Ok(text) => text,
        Err(e) => panic!("sweep job {}: serialize failed: {e}", record.job.slug),
    };
    if let Err(e) = fs::write(&tmp, text) {
        panic!("sweep job {}: write failed: {e}", record.job.slug);
    }
    if let Err(e) = fs::rename(&tmp, &path) {
        panic!("sweep job {}: rename failed: {e}", record.job.slug);
    }
}

/// Expands the manifest, runs every cell not already on disk, persists
/// each finished cell, and returns the merged report (also written to
/// `<state_dir>/sweep.json`).
///
/// # Panics
///
/// Panics if the state directory cannot be created or a cell's scenario
/// fails validation — sweep manifests are operator-written.
pub fn run_sweep(manifest: &SweepManifest, state_dir: &Path, threads: NonZeroUsize) -> SweepReport {
    if let Err(e) = fs::create_dir_all(state_dir) {
        panic!(
            "sweep {}: cannot create {}: {e}",
            manifest.name,
            state_dir.display()
        );
    }
    let jobs = expand(manifest);
    let mut records: Vec<Option<JobRecord>> =
        jobs.iter().map(|job| load_record(state_dir, job)).collect();
    let resumed = records.iter().filter(|r| r.is_some()).count();

    let pending: Vec<SweepJob> = jobs
        .iter()
        .zip(&records)
        .filter(|(_, record)| record.is_none())
        .map(|(job, _)| job.clone())
        .collect();
    let completed = pending.len();
    let fresh: Vec<JobRecord> = run_labeled_jobs_on(
        threads,
        pending
            .into_iter()
            .map(|job| {
                let label = format!("sweep:{}", job.slug);
                let duration = manifest.duration_secs;
                let shards = manifest.shards;
                let state_dir = state_dir.to_path_buf();
                let run = move || {
                    let report = run_job(&job, duration, shards);
                    let record = JobRecord { job, report };
                    store_record(&state_dir, &record);
                    record
                };
                (label, run)
            })
            .collect(),
    );
    for record in fresh {
        if let Some(slot) = records.get_mut(record.job.index) {
            *slot = Some(record);
        }
    }

    let mut digest = LatencyDigest::new();
    let mut rows = Vec::with_capacity(jobs.len());
    for record in records.iter().flatten() {
        for &ms in &record.report.latencies_ms {
            digest.record_ms(ms);
        }
        rows.push(SweepRow {
            slug: record.job.slug.clone(),
            reuse_rate: record.report.reuse_rate(),
            accuracy: record.report.accuracy,
            mean_latency_ms: record.report.latency_ms.mean,
        });
    }
    let report = SweepReport {
        name: manifest.name.clone(),
        jobs: jobs.len(),
        completed_this_run: completed,
        resumed_from_disk: resumed,
        frame_latency_ms: digest.to_summary(),
        frame_latency_digest: digest,
        rows,
    };
    let merged_path = state_dir.join("sweep.json");
    match serde_json::to_string_pretty(&report) {
        Ok(text) => {
            if let Err(e) = fs::write(&merged_path, text) {
                panic!(
                    "sweep {}: write {} failed: {e}",
                    manifest.name,
                    merged_path.display()
                );
            }
        }
        Err(e) => panic!("sweep {}: serialize failed: {e}", manifest.name),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_manifest(dir_tag: &str) -> SweepManifest {
        SweepManifest {
            name: format!("test-{dir_tag}"),
            seed: 77,
            duration_secs: 2,
            profiles: vec![MotionProfile::Stationary],
            cache_sizes: vec![32, 64],
            fault_storms: vec![0.0, 0.3],
            device_counts: vec![2],
            shards: 2,
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn expansion_is_deterministic_and_row_major() {
        let manifest = tiny_manifest("expand");
        let a = expand(&manifest);
        let b = expand(&manifest);
        assert_eq!(a.len(), 4, "1 profile × 2 sizes × 2 storms × 1 count");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slug, y.slug);
            assert_eq!(x.seed, y.seed);
        }
        let slugs: Vec<&str> = a.iter().map(|j| j.slug.as_str()).collect();
        assert_eq!(
            slugs,
            vec![
                "stationary-c32-f0-d2",
                "stationary-c32-f30-d2",
                "stationary-c64-f0-d2",
                "stationary-c64-f30-d2",
            ]
        );
        let seeds: std::collections::BTreeSet<u64> = a.iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), a.len(), "per-job seeds must be distinct");
    }

    #[test]
    fn sweep_runs_persists_and_resumes() {
        let manifest = tiny_manifest("resume");
        let dir = scratch_dir("resume");
        let threads = NonZeroUsize::new(2).expect("positive");

        let first = run_sweep(&manifest, &dir, threads);
        assert_eq!(first.jobs, 4);
        assert_eq!(first.completed_this_run, 4);
        assert_eq!(first.resumed_from_disk, 0);
        assert_eq!(first.rows.len(), 4);
        assert!(first.frame_latency_ms.count > 0);
        assert!(dir.join("sweep.json").exists());

        // Second run: everything comes off disk, bytes unchanged.
        let second = run_sweep(&manifest, &dir, threads);
        assert_eq!(second.completed_this_run, 0);
        assert_eq!(second.resumed_from_disk, 4);
        assert_eq!(
            serde_json::to_string(&first.rows).expect("serializable"),
            serde_json::to_string(&second.rows).expect("serializable"),
        );

        // Drop one state file: exactly that cell reruns, same result.
        let victim = expand(&manifest).remove(1);
        fs::remove_file(state_path(&dir, &victim)).expect("state file exists");
        let third = run_sweep(&manifest, &dir, threads);
        assert_eq!(third.completed_this_run, 1);
        assert_eq!(third.resumed_from_disk, 3);
        assert_eq!(
            serde_json::to_string(&first.rows).expect("serializable"),
            serde_json::to_string(&third.rows).expect("serializable"),
        );

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_state_files_are_rerun_not_trusted() {
        let manifest = tiny_manifest("torn");
        let dir = scratch_dir("torn");
        fs::create_dir_all(&dir).expect("scratch dir");
        let job = expand(&manifest).remove(0);
        fs::write(state_path(&dir, &job), "{ not json").expect("write garbage");
        assert!(load_record(&dir, &job).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn storm_zero_is_idle() {
        assert!(storm_faults(0.0).is_idle());
        assert!(!storm_faults(0.25).is_idle());
    }
}
