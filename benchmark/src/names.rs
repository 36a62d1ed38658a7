//! Every name the benchmark uses, once. `Outcome::set` refuses a metric
//! that is not listed here, and a self-test holds these lists against
//! `BENCHMARK.json` in both directions.

pub const SOLO_VIDEO: &str = "solo-video";
pub const FLEET_GRID: &str = "fleet-grid";
pub const EDGE_LOOKUP: &str = "edge-lookup";
pub const EDGE_INGEST: &str = "edge-ingest";

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [SOLO_VIDEO, FLEET_GRID, EDGE_LOOKUP, EDGE_INGEST];

/// Metrics of a timed run (`--trace 0`).
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "frames_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "latency_reduction_pct",
    "accuracy_pct",
    "peak_rss_mb",
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: [&str; 47] = [
    "simcore.rng_normal_ns",
    "scene.render_ns",
    "scene.render_calls",
    "imu.estimate_ns",
    "imu.gate_reuse_ratio",
    "features.project_ns",
    "features.distance_ns",
    "ann.nearest_ns_256",
    "ann.nearest_ns_8192",
    "ann.insert_ns_8192",
    "ann.vote_ns",
    "reuse.lookup_ns_256",
    "reuse.lookup_ns_8192",
    "reuse.insert_evict_ns_1024",
    "reuse.hit_ratio",
    "reuse.evictions",
    "dnnsim.infer_ns",
    "dnnsim.infer_share",
    "p2pnet.neighbors_ns_48",
    "p2pnet.neighbors_ns_2000",
    "p2pnet.bytes_per_frame",
    "p2pnet.peer_hit_ratio",
    "p2pnet.delivery_ratio",
    "approxcache.process_frame_ns",
    "approxcache.process_frame_ns_imu",
    "approxcache.process_frame_ns_local",
    "approxcache.process_frame_ns_infer",
    "approxcache.device_self_ns",
    "approxcache.loop_self_ns",
    "approxcache.report_fold_ns",
    "approxcache.crowd_ns_per_frame",
    "approxcache.fleet_ns_per_frame_w1",
    "approxcache.fleet_parallel_efficiency",
    "approxcache.fleet_engine_overhead",
    "approxcache.fleet_sys_cpu_share",
    "edge.request_bytes",
    "edge.encode_ns",
    "edge.decode_ns",
    "edge.apply_ns",
    "edge.apply_concurrency_speedup",
    "edge.health_rtt_us",
    "edge.server_overhead_us",
    "edge.requests_per_s",
    "edge.request_p99_ms",
    "edge.overload_ratio",
    "edge.hit_ratio",
    "benchmark.trace_overhead_pct",
];

pub fn is_metric(name: &str) -> bool {
    END_TO_END.contains(&name) || PER_LAYER.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    fn well_formed(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut all: Vec<&str> = WORKLOADS
            .iter()
            .chain(&END_TO_END)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
    }

    /// The census: every name in `BENCHMARK.json` is one the code emits,
    /// and the reverse.
    #[test]
    fn benchmark_json_and_the_code_name_the_same_things() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names = |metrics: &[crate::spec::Metric]| -> Vec<String> {
            metrics.iter().map(|m| m.name.clone()).collect()
        };
        assert_eq!(spec.workloads, WORKLOADS);
        assert_eq!(names(&spec.end_to_end), END_TO_END);
        assert_eq!(names(&spec.per_layer), PER_LAYER);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!((1..=60).contains(&spec.run_seconds));
    }
}
