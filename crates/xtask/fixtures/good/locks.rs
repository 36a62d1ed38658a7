//! Known-good fixture for rule L: one lock at a time, the way the
//! concurrent store locks.

impl Sharded {
    fn len(&self) -> usize {
        let mut total = 0;
        for shard in &self.shards {
            let guard = shard.lock();
            total += guard.len();
        }
        total
    }

    fn threshold(&self) -> f64 {
        let guard = self.shard(0).lock();
        guard.threshold()
    }

    fn chained_temporary(&self) -> usize {
        self.shard(0).lock().len()
    }

    fn sequential_guards(&self) {
        {
            let first = self.shard(0).lock();
            drop(first);
        }
        let second = self.shard(1).lock();
        drop(second);
    }
}
