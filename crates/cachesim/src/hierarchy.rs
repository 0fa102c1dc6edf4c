//! A two-level cache hierarchy.
//!
//! The paper's simulations use a single level, but its experimental
//! platforms all have L1 + L2 hierarchies (Table III), and the measured
//! crossover points reflect both. This wrapper models the common
//! inclusive organization: every L1 miss is looked up in L2. It lets the
//! benchmark harness ask "would DDL's L2 savings survive an L1?" — an
//! ablation beyond the paper's simulated configuration.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::trace::MemoryTracer;

/// An inclusive L1/L2 hierarchy: accesses hit L1 first; L1 misses are
/// forwarded to L2.
#[derive(Clone, Debug)]
pub struct TwoLevelCache {
    l1: Cache,
    l2: Cache,
}

impl TwoLevelCache {
    /// Creates the hierarchy from two geometries. `l1` should be smaller
    /// than `l2` (asserted).
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(
            l1.capacity_bytes <= l2.capacity_bytes,
            "L1 must not exceed L2 capacity"
        );
        TwoLevelCache {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
        }
    }

    /// L1 counters.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 counters (its accesses are the L1 misses).
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Simulates a read.
    ///
    /// Accesses are decomposed into per-line touches before they reach L1,
    /// so `l1_stats().accesses` counts line touches (this differs from the
    /// single-level [`Cache`], where one straddling access counts once).
    pub fn read(&mut self, addr: u64, bytes: u32) {
        self.touch(addr, bytes, false);
    }

    /// Simulates a write (write-allocate at both levels).
    pub fn write(&mut self, addr: u64, bytes: u32) {
        self.touch(addr, bytes, true);
    }

    fn touch(&mut self, addr: u64, bytes: u32, write: bool) {
        let lb = self.l1.config().line_bytes as u64;
        let first = addr / lb;
        let last = (addr + bytes.max(1) as u64 - 1) / lb;
        for line in first..=last {
            let la = line * lb;
            let before = self.l1.stats().misses;
            if write {
                self.l1.write(la, 1);
            } else {
                self.l1.read(la, 1);
            }
            if self.l1.stats().misses > before {
                if write {
                    self.l2.write(la, 1);
                } else {
                    self.l2.read(la, 1);
                }
            }
        }
    }

    /// Invalidates both levels and clears counters.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }
}

impl MemoryTracer for TwoLevelCache {
    #[inline]
    fn read(&mut self, addr: u64, bytes: u32) {
        TwoLevelCache::read(self, addr, bytes);
    }
    #[inline]
    fn write(&mut self, addr: u64, bytes: u32) {
        TwoLevelCache::write(self, addr, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hierarchy() -> TwoLevelCache {
        TwoLevelCache::new(
            CacheConfig {
                capacity_bytes: 1024,
                line_bytes: 64,
                associativity: 1,
            },
            CacheConfig {
                capacity_bytes: 8192,
                line_bytes: 64,
                associativity: 2,
            },
        )
    }

    #[test]
    fn l1_hit_never_reaches_l2() {
        let mut h = small_hierarchy();
        h.read(0, 16);
        h.read(0, 16);
        assert_eq!(h.l1_stats().hits, 1);
        assert_eq!(h.l2_stats().accesses, 1); // only the first (miss)
    }

    #[test]
    fn l1_conflict_can_hit_in_l2() {
        let mut h = small_hierarchy();
        // 0 and 1024 conflict in the 1KB direct-mapped L1 but coexist in
        // the 2-way 8KB L2.
        h.read(0, 16);
        h.read(1024, 16);
        h.read(0, 16);
        h.read(1024, 16);
        assert_eq!(h.l1_stats().misses, 4);
        assert_eq!(h.l2_stats().misses, 2);
        assert_eq!(h.l2_stats().hits, 2);
    }

    #[test]
    fn working_set_larger_than_l1_smaller_than_l2() {
        let mut h = small_hierarchy();
        // 4KB working set: two passes. Second pass misses L1 (capacity)
        // but hits L2 entirely.
        for pass in 0..2 {
            for i in 0..256u64 {
                h.read(i * 16, 16);
            }
            if pass == 0 {
                assert_eq!(h.l2_stats().misses, 64);
            }
        }
        assert_eq!(h.l2_stats().misses, 64); // no new L2 misses in pass 2
        assert!(h.l2_stats().hits > 0);
    }

    #[test]
    fn flush_clears_both_levels() {
        let mut h = small_hierarchy();
        h.read(0, 16);
        h.flush();
        assert_eq!(h.l1_stats().accesses, 0);
        assert_eq!(h.l2_stats().accesses, 0);
    }

    #[test]
    #[should_panic(expected = "L1 must not exceed")]
    fn rejects_inverted_sizes() {
        TwoLevelCache::new(
            CacheConfig {
                capacity_bytes: 8192,
                line_bytes: 64,
                associativity: 1,
            },
            CacheConfig {
                capacity_bytes: 1024,
                line_bytes: 64,
                associativity: 1,
            },
        );
    }
}
