//! Known-good fixture for rules L and G over the reader-writer and
//! non-blocking lock calls, shaped like the concurrent store: every call
//! form takes one lock at a time, and the one nesting kept, the queue
//! under the store's write lock through `drain`, is an edge of an
//! acyclic graph.

impl Store {
    fn len(&self) -> usize {
        self.cache.read().len()
    }

    fn stats(&self) -> Stats {
        let mut cache = self.cache.write();
        self.drain(&mut cache);
        cache.stats()
    }

    fn drain(&self, cache: &mut Cache) {
        let mut queue = self.queue.lock();
        for probe in queue.drain(..) {
            cache.commit(probe);
        }
    }

    fn commit(&self, probe: Probe) {
        if let Some(mut cache) = self.cache.try_write() {
            self.drain(&mut cache);
            cache.commit(probe);
            return;
        }
        self.queue.lock().push(probe);
    }

    fn peek(&self) -> Option<usize> {
        self.cache.try_read().map(|cache| cache.len())
    }

    fn borrow_scratch(&self) -> Scratch {
        self.scratch
            .try_lock()
            .and_then(|mut slot| slot.take())
            .unwrap_or_default()
    }
}
