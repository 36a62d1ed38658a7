//! Known-good fixture for rule A: hot paths reuse scratch buffers; cold
//! paths and justified one-offs may still allocate.

impl Shard {
    fn lookup(&self, key: &Key, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&key.components);
    }

    fn insert(&mut self, key: Key) {
        self.scratch.clear();
        self.entries.push(key);
    }

    fn cold_rebuild(&mut self) -> Vec<Entry> {
        // Not a designated hot fn: allocation is fine here.
        self.entries.to_vec()
    }
}

fn nearest_within_into(candidates: &[f64], max_distance: f64, out: &mut Vec<f64>) {
    out.clear();
    for c in candidates {
        if *c <= max_distance {
            out.push(c * 2.0);
        }
    }
}

fn nearest_into(candidates: &[f64], out: &mut Vec<f64>) {
    // The unbounded wrapper: delegates, allocates nothing itself.
    nearest_within_into(candidates, f64::INFINITY, out);
}

fn decide_in(votes: &[Vote]) -> usize {
    // xtask-allow(alloc): fixture justification for a measured one-off
    let snapshot = votes.to_vec();
    snapshot.len()
}

fn block_scan_into(rows: &[u64], out: &mut Vec<(f64, u64)>) {
    out.clear();
    for &row in rows {
        out.push((row as f64, row));
    }
}

fn squared_euclidean_head_block(block: &[f32; 64], query: &[f64; 8]) -> [f64; 8] {
    let mut acc = [0.0f64; 8];
    for (lane, &q) in block.chunks_exact(8).zip(query) {
        for (a, &x) in acc.iter_mut().zip(lane) {
            let d = x as f64 - q;
            *a += d * d;
        }
    }
    acc
}

fn block_scan(rows: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend_from_slice(rows);
}

fn block_scan_avx2(rows: &[u64], out: &mut Vec<u64>) {
    // The target-feature wrapper: delegates, allocates nothing itself.
    block_scan(rows, out);
}

fn predict(candidates: &[u32], weights: &[f64], rng: &mut Rng) -> u32 {
    // The rank weights are built once, beside the candidates.
    candidates[rng.weighted_index(weights)]
}

fn step_motion(pose: &mut Pose, dt: f64) -> Pose {
    let out = *pose;
    pose.yaw += dt;
    out
}

fn step_imu(pose: &Pose, prev: &mut Pose) -> Sample {
    let sample = Sample::between(prev, pose);
    *prev = *pose;
    sample
}

fn fill_imu_window(samples: &mut Vec<Sample>, stale: usize, fresh: &[Sample]) {
    // The window buffer is drained and refilled in place.
    samples.drain(..stale);
    samples.extend_from_slice(fresh);
}
