//! Known-bad fixture for rule A (linted as if in the concurrent core).

impl Shard {
    fn lookup(&self, key: &Key) -> Vec<f64> {
        let mut out = Vec::new();
        let copy = key.components.to_vec();
        out.extend(copy);
        out
    }

    fn insert(&mut self, key: Key) -> String {
        let label = format!("{key:?}");
        self.entries.push(Box::new(key));
        label
    }
}

fn nearest_into(candidates: &[f64]) -> Vec<f64> {
    candidates.iter().map(|c| c * 2.0).collect()
}

fn decide_in(votes: &[Vote]) -> Vec<Vote> {
    let v = votes.clone();
    v.to_vec()
}

fn block_scan_into(rows: &[u64]) -> String {
    format!("{rows:?}")
}

fn nearest_within_into(candidates: &[f64], max_distance: f64) -> Vec<f64> {
    let mut kept = Vec::new();
    kept.extend(candidates.iter().filter(|c| **c <= max_distance));
    kept.clone()
}

fn squared_euclidean_head_block(block: &[f32]) -> Vec<f64> {
    block.iter().map(|&x| x as f64).collect()
}

fn block_scan(rows: &[u64]) -> Vec<u64> {
    rows.to_vec()
}

fn block_scan_avx2(rows: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    out.extend_from_slice(rows);
    out
}

fn predict(candidates: &[u32], rng: &mut Rng) -> u32 {
    let weights: Vec<f64> = (0..candidates.len()).map(|r| 0.5f64.powi(r as i32)).collect();
    candidates[rng.weighted_index(&weights)]
}

fn step_motion(trail: &[Pose]) -> Vec<Pose> {
    trail.to_vec()
}

fn step_imu(pose: &Pose, trail: &[Pose]) -> Vec<Pose> {
    let mut seen = Vec::new();
    seen.extend_from_slice(trail);
    seen.push(*pose);
    seen
}

fn fill_imu_window(poses: &[Pose]) -> Vec<Sample> {
    poses.iter().map(Sample::from).collect()
}
