//! The simulation harness: running plans through the cache simulator.
//!
//! These drivers reproduce the paper's simulation methodology (Section
//! V-A): the executor runs the *real* transform code while emitting its
//! memory-access stream into a `ddl-cachesim` cache. Input, output and
//! scratch buffers are laid out at page-aligned disjoint addresses in one
//! simulated address space, so conflicts between buffers are modelled.
//!
//! One harness per plan type lays that space out and runs the plan
//! at a root stride into any [`Observer`]: plain simulation feeds it a
//! cache wrapped as a trace-only observer, and per-node attribution
//! ([`crate::attrib`]) feeds it an attributing cache that also consumes
//! the node spans — so both see the same addresses by construction. The
//! regions are sized from the plan's execution layout
//! ([`crate::layout`]), whose checked spans turn a root stride too large
//! for the address space into [`DdlError::InvalidStride`].

use crate::dft::{DftPlan, DftViews};
use crate::layout::{PlanLayout, Region};
use crate::obs::{Candidate, Counter, Observer, Sink, Stage};
use crate::rfft::RfftPlan;
use crate::wht::{WhtPlan, WhtView};
use crate::DFT_POINT_BYTES;
use ddl_cachesim::{AddressSpace, Cache, CacheConfig, CacheStats, MemoryTracer};
use ddl_num::{Complex64, DdlError};

/// Page alignment used for simulated buffer bases. Large allocations from
/// real allocators are page-aligned, which is also the conservative
/// (conflict-friendly) choice for power-of-two working sets.
pub const SIM_PAGE_BYTES: u64 = 4096;

/// Page-aligned disjoint simulated addresses for the layout's regions,
/// in its order, each at least one point long.
fn region_addrs<const R: usize>(layout: &PlanLayout) -> [u64; R] {
    let mut space = AddressSpace::new(SIM_PAGE_BYTES);
    let mut lens = layout.regions.iter().map(|&(_, len)| len);
    std::array::from_fn(|_| {
        let len = lens.next().unwrap_or(0).max(1);
        space.alloc((len * layout.point_bytes) as u64)
    })
}

/// Runs one out-of-place execution of `plan`, its input read at
/// `root_stride`, into `obs`, with the input, output, scratch and
/// twiddle-table regions of its layout at page-aligned disjoint
/// simulated addresses. Returns that layout.
pub(crate) fn run_dft<O: Observer>(
    plan: &DftPlan,
    root_stride: usize,
    obs: &mut O,
) -> Result<PlanLayout, DdlError> {
    let layout = plan.layout(root_stride)?;
    let len = |region| layout.region_len(region);
    let x = vec![Complex64::new(1.0, -1.0); len(Region::Input)];
    let mut y = vec![Complex64::ZERO; len(Region::Output)];
    let mut scratch = vec![Complex64::ZERO; len(Region::Scratch)];
    let mut views = DftViews::new(&x, &mut y).input_at(0, root_stride);
    views.addrs = region_addrs(&layout);
    plan.try_run(views, &mut scratch, obs)?;
    std::hint::black_box(&mut y);
    Ok(layout)
}

/// Runs one in-place execution of `plan` on a view of `root_stride` into
/// `obs`, with the data and scratch regions of its layout at page-aligned
/// disjoint simulated addresses. Returns that layout.
pub(crate) fn run_wht<O: Observer>(
    plan: &WhtPlan,
    root_stride: usize,
    obs: &mut O,
) -> Result<PlanLayout, DdlError> {
    let layout = plan.layout(root_stride)?;
    let mut data = vec![1.5f64; layout.region_len(Region::Data)];
    let mut scratch = vec![0.0f64; layout.region_len(Region::Scratch)];
    let mut view = WhtView::new(&mut data).at(0, root_stride);
    view.addrs = region_addrs(&layout);
    plan.try_run(view, &mut scratch, obs)?;
    std::hint::black_box(&mut data);
    Ok(layout)
}

/// Runs one forward real-input FFT of `plan` (unit stride) into `obs`,
/// with the real input, the packed buffer, the half-size spectrum, the
/// output spectrum, and the scratch and twiddle regions of the inner
/// DFT's layout at page-aligned disjoint simulated addresses. Returns
/// that inner layout.
pub(crate) fn run_rfft<O: Observer>(plan: &RfftPlan, obs: &mut O) -> Result<PlanLayout, DdlError> {
    let n = plan.n();
    let h = n / 2;
    let inner = plan.half_forward().layout(1)?;
    let mut space = AddressSpace::new(SIM_PAGE_BYTES);
    let addrs = [
        n * std::mem::size_of::<f64>(),
        h * DFT_POINT_BYTES,
        h * DFT_POINT_BYTES,
        plan.bins() * DFT_POINT_BYTES,
        inner.region_len(Region::Scratch).max(1) * DFT_POINT_BYTES,
        inner.region_len(Region::Twiddle).max(1) * DFT_POINT_BYTES,
    ]
    .map(|bytes| space.alloc(bytes as u64));

    let x = vec![0.75f64; n];
    let mut spectrum = vec![Complex64::ZERO; plan.bins()];
    plan.forward_observed(&x, &mut spectrum, addrs, obs)?;
    std::hint::black_box(&mut spectrum);
    Ok(inner)
}

/// A plain tracer as an observer: the address half only.
struct TraceOnly<'a, T>(&'a mut T);

impl<T: MemoryTracer> MemoryTracer for TraceOnly<'_, T> {
    const ENABLED: bool = T::ENABLED;

    #[inline]
    fn read(&mut self, addr: u64, bytes: u32) {
        self.0.read(addr, bytes);
    }

    #[inline]
    fn write(&mut self, addr: u64, bytes: u32) {
        self.0.write(addr, bytes);
    }
}

impl<T> Sink for TraceOnly<'_, T> {
    const ENABLED: bool = false;

    fn counter(&mut self, _counter: Counter, _delta: u64) {}

    fn stage(&mut self, _stage: Stage, _nanos: u64, _points: u64) {}

    fn candidate(&mut self, _candidate: Candidate) {}
}

/// Simulates one out-of-place execution of a DFT plan, its input read
/// at `root_stride` — the subproblem the planner's `(size, stride)`
/// states describe — against a fresh cache of the given geometry and
/// returns the cache counters.
pub fn simulate_dft(
    plan: &DftPlan,
    root_stride: usize,
    config: CacheConfig,
) -> Result<CacheStats, DdlError> {
    let mut cache = Cache::new(config);
    run_dft(plan, root_stride, &mut TraceOnly(&mut cache))?;
    Ok(cache.stats())
}

/// Simulates one unit-stride execution of a DFT plan into an existing
/// cache/tracer (e.g. a [`ddl_cachesim::TwoLevelCache`] or a warm cache).
pub fn simulate_dft_into<T: MemoryTracer>(plan: &DftPlan, tracer: &mut T) -> Result<(), DdlError> {
    run_dft(plan, 1, &mut TraceOnly(tracer)).map(drop)
}

/// Simulates one in-place execution of a WHT plan on a view of
/// `root_stride` against a fresh cache.
pub fn simulate_wht(
    plan: &WhtPlan,
    root_stride: usize,
    config: CacheConfig,
) -> Result<CacheStats, DdlError> {
    let mut cache = Cache::new(config);
    run_wht(plan, root_stride, &mut TraceOnly(&mut cache))?;
    Ok(cache.stats())
}

/// Simulates one unit-stride WHT execution into an existing cache/tracer.
pub fn simulate_wht_into<T: MemoryTracer>(plan: &WhtPlan, tracer: &mut T) -> Result<(), DdlError> {
    run_wht(plan, 1, &mut TraceOnly(tracer)).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::parse;
    use crate::tree::Tree;
    use ddl_num::Direction;

    fn paper_cache() -> CacheConfig {
        CacheConfig::paper_default(64)
    }

    #[test]
    fn simulation_counts_all_point_accesses() {
        // ct(4,4): 16 points. Stage 1: 4 leaves * (4 reads + 4 writes);
        // twiddle: 16 factor loads + 16 reads + 16 writes; stage 2: same
        // as stage 1. Total accesses = 32 + 48 + 32 = 112.
        let plan = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let stats = simulate_dft(&plan, 1, paper_cache()).unwrap();
        assert_eq!(stats.accesses, 112);
    }

    #[test]
    fn ddl_adds_reorg_accesses() {
        let sdl = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let ddl = DftPlan::from_expr("ct(ddl(4),4)", Direction::Forward).unwrap();
        let a = simulate_dft(&sdl, 1, paper_cache()).unwrap().accesses;
        let b = simulate_dft(&ddl, 1, paper_cache()).unwrap().accesses;
        // each of the 4 stage-1 leaves gains 4 reads + 4 writes
        assert_eq!(b, a + 4 * 8);
    }

    #[test]
    fn large_sdl_fft_misses_more_than_ddl() {
        // The headline simulation result (paper Fig. 9): above the cache
        // size, the DDL tree has a lower miss rate.
        let n = 1 << 18; // 2^18 points = 4 MB >> 512 KB cache
        let sdl_tree = Tree::rightmost(n, 64);
        let ddl_tree = match sdl_tree.clone() {
            Tree::Split { left, right, .. } => Tree::Split {
                left: Box::new(left.with_reorg(true)),
                right,
                reorg: false,
            },
            t => t,
        };
        let sdl = DftPlan::new(sdl_tree, Direction::Forward).unwrap();
        let ddl = DftPlan::new(ddl_tree, Direction::Forward).unwrap();
        let s = simulate_dft(&sdl, 1, paper_cache()).unwrap();
        let d = simulate_dft(&ddl, 1, paper_cache()).unwrap();
        assert!(
            d.miss_rate() < s.miss_rate(),
            "ddl {:.4} should be below sdl {:.4}",
            d.miss_rate(),
            s.miss_rate()
        );
    }

    #[test]
    fn wht_simulation_runs_and_counts() {
        let plan = WhtPlan::from_expr("split(8, 8)").unwrap();
        let stats = simulate_wht(&plan, 1, paper_cache()).unwrap();
        // two stages of 8 leaves x (8 reads + 8 writes) over 64 points
        assert_eq!(stats.accesses, 2 * 8 * 16);
        assert!(stats.misses > 0);
    }

    #[test]
    fn wht_ddl_reduces_misses_above_cache() {
        let n = 1 << 19; // 4 MB of f64 >> 512 KB
        let sdl_tree = Tree::rightmost(n, 64);
        let ddl_tree = match sdl_tree.clone() {
            Tree::Split { left, right, .. } => Tree::Split {
                left: Box::new(left.with_reorg(true)),
                right,
                reorg: false,
            },
            t => t,
        };
        let s = simulate_wht(&WhtPlan::new(sdl_tree).unwrap(), 1, paper_cache()).unwrap();
        let d = simulate_wht(&WhtPlan::new(ddl_tree).unwrap(), 1, paper_cache()).unwrap();
        assert!(d.miss_rate() < s.miss_rate());
    }

    #[test]
    fn small_transforms_have_low_miss_rates() {
        // Fits in cache: only compulsory misses, rate ~ 1/(2*B) plus
        // scratch traffic.
        let plan = DftPlan::new(Tree::rightmost(1 << 10, 8), Direction::Forward).unwrap();
        let stats = simulate_dft(&plan, 1, paper_cache()).unwrap();
        assert!(
            stats.miss_rate() < 0.10,
            "in-cache miss rate too high: {:.4}",
            stats.miss_rate()
        );
    }

    #[test]
    fn trees_with_reorg_trace_consistently() {
        // Access counting should be deterministic and independent of the
        // cache geometry.
        let plan = DftPlan::new(
            parse("ctddl(ctddl(8,8), ct(8,8))").unwrap(),
            Direction::Forward,
        )
        .unwrap();
        let a = simulate_dft(&plan, 1, paper_cache()).unwrap().accesses;
        let b = simulate_dft(&plan, 1, CacheConfig::paper_default(16))
            .unwrap()
            .accesses;
        assert_eq!(a, b);
    }
}
