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
