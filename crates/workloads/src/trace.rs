//! JSON persistence of run reports.
//!
//! `approx_cache_sim --json` writes a run's raw report next to its
//! console summary, so the run can be re-analysed without re-simulating.

use std::fs;
use std::io;
use std::path::Path;

use approxcache::RunReport;

/// Saves a run report as pretty JSON, creating the parent directory.
///
/// # Errors
///
/// Returns any I/O error from directory creation or the write.
pub fn save_report<P: AsRef<Path>>(report: &RunReport, path: P) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    let text = serde_json::to_string_pretty(report)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::video;
    use approxcache::{run, Detail, PipelineConfig, SystemVariant};
    use simcore::SimDuration;

    #[test]
    fn report_round_trip() {
        let scenario = video::stationary().with_duration(SimDuration::from_secs(2));
        let config = PipelineConfig::calibrated(&scenario, 1);
        let report = run(&scenario, &config, SystemVariant::Full, 1, Detail::Summary)
            .expect("valid scenario")
            .report;
        let path = std::env::temp_dir().join(format!(
            "workloads-trace-{}-report.json",
            std::process::id()
        ));
        save_report(&report, &path).unwrap();
        let loaded: RunReport = serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded.frames, report.frames);
        assert_eq!(loaded.latencies_ms, report.latencies_ms);
        assert_eq!(loaded.path_counts, report.path_counts);
        fs::remove_file(path).unwrap();
    }
}
