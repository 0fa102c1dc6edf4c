//! Tracer plumbing between the executors and the cache model.
//!
//! The transform executors in `ddl-core` take one observer whose address
//! half is a [`MemoryTracer`]: on the fast path that half is disabled
//! (`ENABLED == false`, as for [`NullTracer`], so every call inlines to
//! nothing), the simulation path feeds a [`Cache`]. Buffers (input,
//! output, scratch) live at disjoint ranges of one simulated address
//! space, managed by [`AddressSpace`], so inter-buffer conflict misses —
//! which the paper's analysis shows dominate for power-of-two strides —
//! are modelled faithfully.

use crate::cache::Cache;

/// Receives the address stream of an execution.
///
/// `addr` is a byte address in the simulated address space; `bytes` the
/// access width (16 for a complex point, 8 for a WHT point).
pub trait MemoryTracer {
    /// `false` only for [`NullTracer`]: executors skip building the event
    /// stream entirely, so the fast path carries zero tracing cost.
    const ENABLED: bool = true;

    /// Records a read.
    fn read(&mut self, addr: u64, bytes: u32);
    /// Records a write.
    fn write(&mut self, addr: u64, bytes: u32);
}

/// The no-op tracer: the fast execution path. All methods compile away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl MemoryTracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn read(&mut self, _addr: u64, _bytes: u32) {}
    #[inline(always)]
    fn write(&mut self, _addr: u64, _bytes: u32) {}
}

impl MemoryTracer for Cache {
    #[inline]
    fn read(&mut self, addr: u64, bytes: u32) {
        Cache::read(self, addr, bytes);
    }
    #[inline]
    fn write(&mut self, addr: u64, bytes: u32) {
        Cache::write(self, addr, bytes);
    }
}

/// Counts accesses without simulating a cache — used to report the
/// "number of cache accesses" column of the paper's Table II and to
/// measure the (small) access overhead DDL adds ("less than 3%").
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingTracer {
    /// Number of read calls.
    pub reads: u64,
    /// Number of write calls.
    pub writes: u64,
}

impl CountingTracer {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

impl MemoryTracer for CountingTracer {
    #[inline]
    fn read(&mut self, _addr: u64, _bytes: u32) {
        self.reads += 1;
    }
    #[inline]
    fn write(&mut self, _addr: u64, _bytes: u32) {
        self.writes += 1;
    }
}

/// Records the full access stream; for tests and debugging only.
#[derive(Clone, Debug, Default)]
pub struct RecordingTracer {
    /// `(is_write, addr, bytes)` triples in program order.
    pub events: Vec<(bool, u64, u32)>,
}

impl MemoryTracer for RecordingTracer {
    fn read(&mut self, addr: u64, bytes: u32) {
        self.events.push((false, addr, bytes));
    }
    fn write(&mut self, addr: u64, bytes: u32) {
        self.events.push((true, addr, bytes));
    }
}

/// Allocates disjoint, page-aligned base addresses for the buffers of a
/// simulated execution.
///
/// Power-of-two alignment mirrors what a real allocator does to large
/// arrays (and is the worst case for conflict misses, which is the
/// phenomenon under study).
#[derive(Clone, Debug)]
pub struct AddressSpace {
    next: u64,
    align: u64,
    allocations: Vec<(u64, u64)>,
}

impl AddressSpace {
    /// A fresh address space with the given base alignment (bytes).
    pub fn new(align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        AddressSpace {
            next: align,
            align,
            allocations: Vec::new(),
        }
    }

    /// Reserves `bytes` bytes and returns the base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        let end = base + bytes;
        self.next = end.div_ceil(self.align) * self.align;
        self.allocations.push((base, bytes));
        base
    }

    /// All allocations as `(base, bytes)` pairs, in order.
    pub fn allocations(&self) -> &[(u64, u64)] {
        &self.allocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Cache, CacheConfig};

    #[test]
    fn null_tracer_does_nothing() {
        let mut t = NullTracer;
        t.read(0, 16);
        t.write(123, 8);
    }

    #[test]
    fn counting_tracer_counts() {
        let mut t = CountingTracer::default();
        t.read(0, 16);
        t.read(16, 16);
        t.write(0, 16);
        assert_eq!(t.reads, 2);
        assert_eq!(t.writes, 1);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn recording_tracer_preserves_order() {
        let mut t = RecordingTracer::default();
        t.read(1, 16);
        t.write(2, 8);
        t.read(3, 4);
        assert_eq!(t.events, vec![(false, 1, 16), (true, 2, 8), (false, 3, 4)]);
    }

    #[test]
    fn cache_as_tracer() {
        let mut c = Cache::new(CacheConfig::paper_default(64));
        MemoryTracer::read(&mut c, 0, 16);
        MemoryTracer::write(&mut c, 0, 16);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn address_space_is_disjoint_and_aligned() {
        let mut space = AddressSpace::new(1 << 20);
        let a = space.alloc(1000);
        let b = space.alloc(5000);
        let c = space.alloc(16);
        assert_eq!(a % (1 << 20), 0);
        assert_eq!(b % (1 << 20), 0);
        assert!(b >= a + 1000);
        assert!(c >= b + 5000);
        assert_eq!(space.allocations().len(), 3);
    }
}
