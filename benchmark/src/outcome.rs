//! What a workload run hands back: metric values, the operation tally,
//! failed output checks, and the block arithmetic every workload shares.

use std::collections::BTreeMap;

use crate::stats;

/// Output checks that failed, with what was wrong. A run is `correct`
/// only when this stays empty.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `what()` as a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Result of one timed run or one traced pass.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (sim calls, edge requests) and failed.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Lines for the human reader (digests, sample counts, quartiles),
    /// printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name `names.rs` does not list: a typo here would
    /// otherwise surface as a metric silently missing from the result.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(crate::names::is_metric(name), "unlisted metric {name}");
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one attempted operation; a failed one is counted, recorded
    /// as a failed check, and comes back as `None`.
    pub fn attempt<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.checks.fail(e);
                None
            }
        }
    }
}

/// One block of a measured phase: fixed work for the sim workloads, a
/// time window for the edge workloads.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Device-frames simulated, or wire frames answered.
    pub frames: u64,
    /// Time the block's operations took (sim) or the window length (edge).
    pub seconds: f64,
    /// Latency of each operation that completed in the block.
    pub latencies_ms: Vec<f64>,
}

/// Frames per second and operation latency of a measured phase.
///
/// Each value is taken at the **quartile block**: the blocks are ranked
/// by the value, best first, and the run reports the one a quarter of
/// the way down. On the shared box this runs on, interference only adds
/// time, in excursions of half a second to tens of seconds above a floor
/// that repeats (README, "Noise"), so the better blocks are the ones the
/// program had the machine for. A quarter of the way down is far enough
/// from the best block not to be one lucky block, and it moves as soon
/// as a change slows, or stalls within, three blocks in four. What it
/// cannot see is a stall that leaves more than a quarter of the blocks
/// clean; the median block and the pooled percentiles, which can, are
/// printed beside it and gate nothing, because on this box they do not
/// repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    /// Rate of the quartile block.
    pub frames_per_s: f64,
    /// Median and 90th percentile of a block's operations, each at its
    /// quartile block.
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
    /// Blocks the rate and the latencies were taken over.
    pub blocks: (usize, usize),
    /// Operations in the latency blocks.
    pub operations: usize,
    /// The same three values at the median block.
    pub median_block: (f64, f64, f64),
    /// Median and 90th percentile of every operation, the blocks pooled.
    pub pooled: (f64, f64),
    /// The highest percentile the pooled operations support
    /// ([`stats::highest_supported`]) with the latency there, if any.
    pub tail: Option<(f64, f64)>,
}

/// The pace of a phase: the rate from `rate_blocks`, the latency from
/// `latency_blocks` (the same blocks for the sim workloads). `None` when
/// either holds no completed operation.
pub fn pace(rate_blocks: &[Block], latency_blocks: &[Block]) -> Option<Pace> {
    fn live(blocks: &[Block]) -> Vec<&Block> {
        blocks
            .iter()
            .filter(|b| !b.latencies_ms.is_empty() && b.seconds > 0.0 && b.frames > 0)
            .collect()
    }
    let (rate_blocks, latency_blocks) = (live(rate_blocks), live(latency_blocks));
    if rate_blocks.is_empty() || latency_blocks.is_empty() {
        return None;
    }
    // Ranked as times, so that "best" is "least" for all three values.
    let frame_s = stats::sorted(
        &rate_blocks
            .iter()
            .map(|b| b.seconds / b.frames as f64)
            .collect::<Vec<_>>(),
    );
    let per_block = |p: f64| {
        stats::sorted(
            &latency_blocks
                .iter()
                .map(|b| stats::percentile(&stats::sorted(&b.latencies_ms), p))
                .collect::<Vec<_>>(),
        )
    };
    let (p50s, p90s) = (per_block(50.0), per_block(90.0));
    let pooled = stats::sorted(
        &latency_blocks
            .iter()
            .flat_map(|b| b.latencies_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let at = |rank: f64| {
        (
            1.0 / stats::percentile(&frame_s, rank),
            stats::percentile(&p50s, rank),
            stats::percentile(&p90s, rank),
        )
    };
    let (frames_per_s, latency_p50_ms, latency_p90_ms) = at(QUARTILE_BLOCK);
    Some(Pace {
        frames_per_s,
        latency_p50_ms,
        latency_p90_ms,
        blocks: (frame_s.len(), p50s.len()),
        operations: pooled.len(),
        median_block: at(50.0),
        pooled: (
            stats::percentile(&pooled, 50.0),
            stats::percentile(&pooled, 90.0),
        ),
        tail: stats::highest_supported(pooled.len()).map(|p| (p, stats::percentile(&pooled, p))),
    })
}

/// Where among a run's blocks, ranked best first, its value is read: a
/// quarter of the way down.
const QUARTILE_BLOCK: f64 = 25.0;

impl Pace {
    /// Three lines for the reader: what the reported values were taken
    /// over, and the values that gate nothing.
    pub fn describe(&self) -> [String; 3] {
        let supported = match self.tail {
            Some((p, ms)) => format!("p{p} {ms:.4} ms is the highest percentile"),
            None => "not even the median is a percentile".to_owned(),
        };
        let (rate, p50, p90) = self.median_block;
        [
            format!(
                "quartile block of {} rate blocks and {} latency blocks ({} operations)",
                self.blocks.0, self.blocks.1, self.operations
            ),
            format!(
                "median block, gating nothing: {rate:.2} frames/s, p50 {p50:.4} ms, p90 {p90:.4} ms"
            ),
            format!(
                "all operations pooled, gating nothing: p50 {:.4} ms, p90 {:.4} ms; {supported} with {} samples beyond it",
                self.pooled.0,
                self.pooled.1,
                stats::MIN_BEYOND
            ),
        ]
    }
}

/// One line describing how a value spread over the blocks of a run.
pub fn describe(name: &str, unit: &str, values: &[f64]) -> String {
    let (q1, q2, q3) = stats::quartiles(values);
    format!(
        "{name}: quartiles {q1:.4} / {q2:.4} / {q3:.4} {unit} over {} blocks",
        values.len()
    )
}

/// 64-bit FNV-1a, the digest two commits' reports are compared by.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Offset basis that starts an [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_read_at_the_quartile_block() {
        let block = |frames, seconds, lat: &[f64]| Block {
            frames,
            seconds,
            latencies_ms: lat.to_vec(),
        };
        // Eight blocks of 1000 frames taking 1..=8 s, each with three
        // operations of 1, 2 and 3 times the block's number of ms.
        let blocks: Vec<Block> = (1..=8)
            .map(|i| {
                let t = f64::from(i);
                block(1000, t, &[t, 2.0 * t, 3.0 * t])
            })
            .chain([block(0, 1.0, &[])])
            .collect();
        let pace = pace(&blocks, &blocks).expect("live blocks");
        // The second best of eight is a quarter of the way down, the
        // fourth best is the median block.
        assert_eq!(pace.frames_per_s, 500.0);
        assert_eq!((pace.latency_p50_ms, pace.latency_p90_ms), (4.0, 6.0));
        assert_eq!(pace.median_block, (250.0, 8.0, 12.0));
        assert_eq!((pace.blocks, pace.operations), ((8, 8), 24));
        assert_eq!(pace.pooled, (7.0, 18.0));
        // Interference that slows the six worst blocks moves nothing...
        let mut noisy = blocks.clone();
        for b in &mut noisy[2..8] {
            b.seconds *= 3.0;
        }
        let with_noise = super::pace(&noisy, &noisy).expect("live blocks");
        assert_eq!(with_noise.frames_per_s, pace.frames_per_s);
        // ...a change that slows seven of the eight does.
        for b in &mut noisy[1..2] {
            b.seconds *= 3.0;
        }
        let slowed = super::pace(&noisy, &noisy).expect("live blocks");
        assert!(slowed.frames_per_s < pace.frames_per_s);
        // The rate from one list of blocks, the latency from another.
        let uneven = [block(10, 1.0, &[5.0, 9.0]), block(5, 1.0, &[6.0, 7.0])];
        let pace = super::pace(&uneven[..1], &uneven[1..]).expect("live blocks");
        assert_eq!((pace.frames_per_s, pace.latency_p50_ms), (10.0, 6.0));
        assert_eq!(pace.tail, None);
        assert!(pace.describe()[2].contains("not even the median"));
        let idle = [block(0, 1.0, &[])];
        assert!(super::pace(&idle, &blocks).is_none());
        assert!(super::pace(&blocks, &idle).is_none());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn attempts_are_counted_and_failures_recorded() {
        let mut out = Outcome::default();
        assert_eq!(out.attempt(Ok(3)), Some(3));
        assert_eq!(out.attempt::<u8>(Err("broke".to_owned())), None);
        assert_eq!((out.attempted, out.failed), (2, 1));
        assert_eq!(out.checks.failures(), ["broke".to_owned()]);
    }

    #[test]
    fn checks_collect_failures() {
        let mut checks = Checks::default();
        checks.require(true, || unreachable!("not evaluated"));
        checks.require(false, || "broken".to_owned());
        assert_eq!(checks.failures(), ["broken".to_owned()]);
    }
}
