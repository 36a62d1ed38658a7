//! Known-good fixture for the rule T census: every CacheStats field has
//! exactly one record_* helper, `merge` is the one sanctioned bulk path,
//! and another type's same-named own field (plain `self` receiver) does
//! not collide with the registry.

impl CacheStats {
    pub fn record_lookup(&mut self) {
        self.lookups += 1;
    }

    pub fn record_hit(&mut self) {
        self.hits += 1;
    }

    pub fn record_miss(&mut self, class: MissClass) {
        match class {
            MissClass::Empty => self.miss_empty += 1,
            MissClass::TooFar => self.miss_too_far += 1,
            MissClass::NotHomogeneous => self.miss_not_homogeneous += 1,
            MissClass::InsufficientSupport => self.miss_insufficient_support += 1,
        }
    }

    pub fn record_insert(&mut self) {
        self.inserts += 1;
    }

    pub fn record_refresh(&mut self) {
        self.refreshes += 1;
    }

    pub fn record_rejected(&mut self) {
        self.rejected += 1;
    }

    pub fn record_eviction(&mut self) {
        self.evictions += 1;
    }

    pub fn record_removal(&mut self) {
        self.removals += 1;
    }

    pub fn record_expirations(&mut self, n: u64) {
        self.expirations += n;
    }

    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.miss_empty += other.miss_empty;
        self.miss_too_far += other.miss_too_far;
        self.miss_not_homogeneous += other.miss_not_homogeneous;
        self.miss_insufficient_support += other.miss_insufficient_support;
        self.inserts += other.inserts;
        self.refreshes += other.refreshes;
        self.rejected += other.rejected;
        self.evictions += other.evictions;
        self.removals += other.removals;
        self.expirations += other.expirations;
    }
}

impl ProbeTally {
    fn tick(&mut self) {
        // This type's *own* `lookups` field: the receiver is plain
        // `self`, not a path into an embedded registry.
        self.lookups += 1;
    }
}
