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
