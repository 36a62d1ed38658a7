//! Known-bad fixture for rules L and G over the reader-writer and
//! non-blocking lock calls (linted as if in crates/reuse/src/concurrent/):
//! each fn takes a second lock with one more call form while a guard is
//! live, and `refill` holds the queue while it takes the store, against
//! the store-then-queue order `drain_under_write` sets.

impl Store {
    fn read_under_write(&self) -> usize {
        let writer = self.cache.write();
        let len = self.cache.read().len();
        drop(writer);
        len
    }

    fn write_under_read(&self) {
        let reader = self.cache.read();
        let writer = self.cache.write();
        drop((reader, writer));
    }

    fn try_lock_in_one_statement(&self) -> bool {
        self.queue.lock().is_empty() && self.queue.try_lock().is_some()
    }

    fn try_read_under_if_let(&self) {
        if let Some(writer) = self.cache.try_write() {
            let again = self.cache.try_read();
            drop((writer, again));
        }
    }

    fn refill(&self) {
        let queue = self.queue.lock();
        let cache = self.cache.try_write();
        drop((queue, cache));
    }

    fn drain_under_write(&self) {
        let cache = self.cache.write();
        self.drain();
        drop(cache);
    }

    fn drain(&self) {
        let queue = self.queue.lock();
        drop(queue);
    }
}
