//! The core cache model.
//!
//! A set-associative cache with true LRU replacement and write-allocate
//! policy. `associativity == 1` gives the direct-mapped configuration of
//! the paper's simulations; `associativity == sets * ways` (one set) gives
//! the fully associative ideal that cache-oblivious analyses assume —
//! simulating both is how we reproduce the paper's argument that the
//! fully-set-associative assumption of FFTW/CMU breaks down on real
//! (direct-mapped / small-associative) caches.

use std::collections::HashSet;

/// Geometry of a simulated cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_bytes *
    /// associativity` and a power of two in practice.
    pub capacity_bytes: usize,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_bytes: usize,
    /// Number of ways per set; 1 = direct-mapped.
    pub associativity: usize,
}

impl CacheConfig {
    /// The paper's simulated configuration: 512 KB direct-mapped with the
    /// given line size (Fig. 9/10 and Table II vary the line size; 64 B is
    /// called out as "the cache line size in most state-of-the-art
    /// platforms").
    pub fn paper_default(line_bytes: usize) -> Self {
        CacheConfig {
            capacity_bytes: 512 * 1024,
            line_bytes,
            associativity: 1,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.associativity)
    }

    /// Capacity in data points of `point_bytes` each (the paper measures
    /// cache size in points: "the cache can hold up to 2^15 data points").
    pub fn capacity_points(&self, point_bytes: usize) -> usize {
        self.capacity_bytes / point_bytes
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.associativity >= 1, "associativity must be at least 1");
        assert!(
            self.capacity_bytes
                .is_multiple_of(self.line_bytes * self.associativity),
            "capacity must be a multiple of line_bytes * associativity"
        );
        assert!(self.sets() >= 1, "cache must have at least one set");
    }
}

/// Counters accumulated by a [`Cache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (one per read/write call; an access spanning
    /// multiple lines still counts once here).
    pub accesses: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Line lookups (>= accesses when accesses straddle lines).
    pub line_lookups: u64,
    /// Line lookups that hit.
    pub hits: u64,
    /// Line lookups that missed.
    pub misses: u64,
    /// Misses to lines never seen before (cold/compulsory).
    pub compulsory_misses: u64,
    /// Evictions of valid lines.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss rate over line lookups, in `[0, 1]`. Zero when idle.
    pub fn miss_rate(&self) -> f64 {
        if self.line_lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.line_lookups as f64
        }
    }

    /// Field-wise difference `self - earlier`. Both snapshots must come
    /// from the same monotonically-counting cache, with `earlier` taken
    /// first; attribution layers use this to carve the run total into
    /// per-span deltas whose sum is exact by construction.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses - earlier.accesses,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            line_lookups: self.line_lookups - earlier.line_lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            compulsory_misses: self.compulsory_misses - earlier.compulsory_misses,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Field-wise accumulation of `other` into `self`.
    pub fn add(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.reads += other.reads;
        self.writes += other.writes;
        self.line_lookups += other.line_lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.compulsory_misses += other.compulsory_misses;
        self.evictions += other.evictions;
    }
}

/// A single-level set-associative LRU cache.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    set_mask: u64,
    /// Per-set tag arrays in LRU order (front = most recent). `u64::MAX`
    /// marks an invalid way.
    tags: Vec<u64>,
    stats: CacheStats,
    seen_lines: HashSet<u64>,
}

const INVALID: u64 = u64::MAX;

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tags: vec![INVALID; sets * config.associativity],
            stats: CacheStats::default(),
            seen_lines: HashSet::new(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The accumulated counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears counters but keeps cache contents (useful for warm-cache
    /// measurements).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.seen_lines.clear();
    }

    /// Invalidates all lines and clears counters.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.reset_stats();
    }

    /// Simulates a read of `bytes` bytes at `addr`.
    #[inline]
    pub fn read(&mut self, addr: u64, bytes: u32) {
        self.stats.accesses += 1;
        self.stats.reads += 1;
        self.touch(addr, bytes);
    }

    /// Simulates a write of `bytes` bytes at `addr` (write-allocate: a
    /// write miss fetches the line like a read miss).
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: u32) {
        self.stats.accesses += 1;
        self.stats.writes += 1;
        self.touch(addr, bytes);
    }

    fn touch(&mut self, addr: u64, bytes: u32) {
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) as u64 - 1) >> self.line_shift;
        for line in first..=last {
            self.access_line(line);
        }
    }

    fn access_line(&mut self, line: u64) {
        self.stats.line_lookups += 1;
        let set = (line & self.set_mask) as usize;
        let ways = self.config.associativity;
        let slot = &mut self.tags[set * ways..(set + 1) * ways];

        // LRU order: front = MRU. Linear scan is fine for small ways.
        if let Some(pos) = slot.iter().position(|&t| t == line) {
            self.stats.hits += 1;
            slot[..=pos].rotate_right(1); // move to front
            return;
        }

        self.stats.misses += 1;
        if self.seen_lines.insert(line) {
            self.stats.compulsory_misses += 1;
        }
        if slot[ways - 1] != INVALID {
            self.stats.evictions += 1;
        }
        slot.rotate_right(1);
        slot[0] = line;
    }

    /// True when the line containing `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.config.associativity;
        self.tags[set * ways..(set + 1) * ways].contains(&line)
    }

    /// Splits this cache's non-compulsory misses into conflict and
    /// capacity components by replaying the same trace through a
    /// fully-associative cache of equal capacity. Returns
    /// `(conflict, capacity)` given that twin's miss count.
    ///
    /// `fully_assoc_misses` should come from a [`Cache`] with
    /// `associativity == sets * associativity` of this one.
    pub fn with_conflict_split(&self, fully_assoc_misses: u64) -> (u64, u64) {
        let capacity = fully_assoc_misses.saturating_sub(self.stats.compulsory_misses);
        let conflict = self.stats.misses.saturating_sub(fully_assoc_misses);
        (conflict, capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, line: usize, ways: usize) -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: capacity,
            line_bytes: line,
            associativity: ways,
        })
    }

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = cache(1024, 64, 1);
        for i in 0..64u64 {
            c.read(i * 16, 16); // 64 points = 16 lines
        }
        let s = c.stats();
        assert_eq!(s.accesses, 64);
        assert_eq!(s.misses, 16);
        assert_eq!(s.compulsory_misses, 16);
        assert_eq!(s.hits, 48);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = cache(1024, 64, 1);
        c.read(0, 16);
        c.read(0, 16);
        c.read(8, 8);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn direct_mapped_conflict_thrashing() {
        // Two addresses exactly capacity apart map to the same set and
        // evict each other on every access in a direct-mapped cache.
        let cap = 1024u64;
        let mut c = cache(cap as usize, 64, 1);
        for _ in 0..10 {
            c.read(0, 8);
            c.read(cap, 8);
        }
        let s = c.stats();
        assert_eq!(s.misses, 20);
        assert_eq!(s.hits, 0);
        assert_eq!(s.compulsory_misses, 2);
    }

    #[test]
    fn two_way_associativity_removes_pairwise_conflict() {
        let cap = 1024u64;
        let mut c = cache(cap as usize, 64, 2);
        for _ in 0..10 {
            c.read(0, 8);
            c.read(cap, 8);
        }
        let s = c.stats();
        assert_eq!(s.misses, 2); // compulsory only
        assert_eq!(s.hits, 18);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set; three conflicting lines A, B, C. Access A, B, C: C
        // evicts A. Then A misses again, evicting B (LRU), and B misses.
        let cap = 1024u64;
        let mut c = cache(cap as usize, 64, 2);
        let (a, b, cc) = (0u64, cap, 2 * cap);
        c.read(a, 8);
        c.read(b, 8);
        c.read(cc, 8); // evicts a
        assert!(!c.contains(a));
        assert!(c.contains(b));
        assert!(c.contains(cc));
        c.read(a, 8); // evicts b (LRU between b and cc? b older)
        assert!(!c.contains(b));
        assert!(c.contains(cc));
        assert!(c.contains(a));
    }

    #[test]
    fn hit_refreshes_lru_position() {
        let cap = 1024u64;
        let mut c = cache(cap as usize, 64, 2);
        let (a, b, cc) = (0u64, cap, 2 * cap);
        c.read(a, 8);
        c.read(b, 8);
        c.read(a, 8); // refresh a; b becomes LRU
        c.read(cc, 8); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(cc));
    }

    #[test]
    fn access_spanning_two_lines_counts_two_lookups() {
        let mut c = cache(1024, 64, 1);
        c.read(60, 8); // bytes 60..68 cross the 64-byte boundary
        let s = c.stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.line_lookups, 2);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn writes_allocate() {
        let mut c = cache(1024, 64, 1);
        c.write(128, 16);
        assert!(c.contains(128));
        c.read(128, 16);
        let s = c.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = cache(1024, 64, 1);
        c.read(0, 16);
        assert!(c.contains(0));
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.stats().accesses, 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = cache(1024, 64, 1);
        c.read(0, 16);
        c.reset_stats();
        assert!(c.contains(0));
        c.read(0, 16);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn pathological_power_of_two_stride_folds_onto_few_sets() {
        // The paper's Case III: n*s > C with power-of-two stride. 64 points
        // at point-stride 4096 in a 512KB/64B direct-mapped cache all map
        // to very few sets.
        let mut c = Cache::new(CacheConfig::paper_default(64));
        let stride_bytes = 4096u64 * 16; // 64 KiB: 512KB/64KB = 8 distinct sets
        for i in 0..64u64 {
            c.read(i * stride_bytes, 16);
        }
        // second pass: with only 8 distinct sets for 64 lines, everything
        // conflicts — no hits at all.
        for i in 0..64u64 {
            c.read(i * stride_bytes, 16);
        }
        let s = c.stats();
        assert_eq!(s.hits, 0, "pathological stride should never hit");
        assert_eq!(s.misses, 128);
        assert_eq!(s.compulsory_misses, 64);
    }

    #[test]
    fn unit_stride_second_pass_hits_when_fitting() {
        let mut c = Cache::new(CacheConfig::paper_default(64));
        // 1024 points (16 KiB) fit easily; second pass must be all hits.
        for i in 0..1024u64 {
            c.read(i * 16, 16);
        }
        let cold = c.stats().misses;
        for i in 0..1024u64 {
            c.read(i * 16, 16);
        }
        let s = c.stats();
        assert_eq!(cold, 256); // 16 KiB / 64 B
        assert_eq!(s.misses, 256);
        assert_eq!(s.hits, 2048 - 256);
    }

    #[test]
    fn conflict_split_accounting() {
        let mut dm = cache(1024, 64, 1);
        let cap = 1024u64;
        for _ in 0..5 {
            dm.read(0, 8);
            dm.read(cap, 8);
        }
        // A fully-associative twin (1 set, 16 ways) sees only 2 compulsory
        // misses for this trace.
        let (conflict, capacity) = dm.with_conflict_split(2);
        assert_eq!(conflict, 8);
        assert_eq!(capacity, 0);
    }

    #[test]
    fn capacity_points_matches_paper() {
        let cfg = CacheConfig::paper_default(32);
        assert_eq!(cfg.capacity_points(16), 1 << 15); // "up to 2^15 data points"
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        Cache::new(CacheConfig {
            capacity_bytes: 1024,
            line_bytes: 48,
            associativity: 1,
        });
    }
}
