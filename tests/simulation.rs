//! Integration tests of the cache-simulation pipeline — the paper's
//! Fig. 9 / Fig. 10 / Table II claims as assertions, at sizes small
//! enough for CI.

use dynamic_data_layout::cachesim::{CacheConfig, TwoLevelCache};
use dynamic_data_layout::core::traced::{simulate_dft, simulate_dft_into, simulate_wht};
use dynamic_data_layout::prelude::*;

fn sdl_tree(n: usize) -> Tree {
    try_plan_dft(n, &PlannerConfig::sdl_analytical())
        .unwrap()
        .tree
}

fn ddl_tree(n: usize) -> Tree {
    try_plan_dft(n, &PlannerConfig::ddl_analytical())
        .unwrap()
        .tree
}

/// A small simulated machine so the simulation-driven planner stays fast
/// in tests: 16 KiB direct-mapped, 64 B lines (1024 complex points).
fn tiny_cache() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 16 * 1024,
        line_bytes: 64,
        associativity: 1,
    }
}

#[test]
fn fig9_shape_miss_rates_cross_at_cache_size() {
    let cache = CacheConfig::paper_default(64);
    // below the cache (2^13 < 2^15): identical trees, identical rates
    let small_s = simulate_dft(
        &DftPlan::new(sdl_tree(1 << 13), Direction::Forward).unwrap(),
        1,
        cache,
    )
    .unwrap();
    let small_d = simulate_dft(
        &DftPlan::new(ddl_tree(1 << 13), Direction::Forward).unwrap(),
        1,
        cache,
    )
    .unwrap();
    assert_eq!(small_s, small_d, "below the cache the plans must coincide");

    // Above the cache, with both searches optimizing *for the simulated
    // machine* (the fig9 binary's configuration): the DDL result is never
    // worse in simulated cycles. (On this deliberately tiny test cache
    // the reorganization tiles themselves exceed the cache, so the DDL
    // search correctly *declines* to reorganize and ties SDL; the rate
    // separation of Fig. 9 appears at the paper-scale cache, which the
    // fig9 binary exercises.)
    let cache = tiny_cache();
    let n = 1 << 14;
    let s_tree = try_plan_dft(n, &PlannerConfig::sdl_simulated(cache, 16))
        .unwrap()
        .tree;
    let d_tree = try_plan_dft(n, &PlannerConfig::ddl_simulated(cache, 16))
        .unwrap()
        .tree;
    let big_s = simulate_dft(&DftPlan::new(s_tree, Direction::Forward).unwrap(), 1, cache).unwrap();
    let big_d = simulate_dft(&DftPlan::new(d_tree, Direction::Forward).unwrap(), 1, cache).unwrap();
    let cost = |st: &dynamic_data_layout::cachesim::CacheStats| {
        st.accesses as f64 + 30.0 * st.misses as f64
    };
    assert!(
        cost(&big_d) <= cost(&big_s) * 1.02,
        "ddl cost {} !<= sdl cost {}",
        cost(&big_d),
        cost(&big_s)
    );
}

#[test]
fn fig10_shape_ddl_gains_grow_with_line_size() {
    let n = 1 << 17;
    let s_plan = DftPlan::new(sdl_tree(n), Direction::Forward).unwrap();
    let d_plan = DftPlan::new(ddl_tree(n), Direction::Forward).unwrap();
    let mut reductions = Vec::new();
    for line in [16usize, 64, 256] {
        let cache = CacheConfig::paper_default(line);
        let s = simulate_dft(&s_plan, 1, cache).unwrap().miss_rate();
        let d = simulate_dft(&d_plan, 1, cache).unwrap().miss_rate();
        reductions.push((s - d) / s.max(1e-12));
    }
    // longer lines reward unit-stride access more
    assert!(
        reductions[2] >= reductions[0],
        "reduction did not grow with line size: {reductions:?}"
    );
}

#[test]
fn table2_shape_access_overhead_is_bounded() {
    // With both planners optimizing for the simulated machine, the DDL
    // tree buys its miss reduction with a bounded amount of extra data
    // movement (the paper's Table II observation).
    let cache = tiny_cache();
    let n = 1 << 14;
    let s_tree = try_plan_dft(n, &PlannerConfig::sdl_simulated(cache, 16))
        .unwrap()
        .tree;
    let d_tree = try_plan_dft(n, &PlannerConfig::ddl_simulated(cache, 16))
        .unwrap()
        .tree;
    let s = simulate_dft(&DftPlan::new(s_tree, Direction::Forward).unwrap(), 1, cache).unwrap();
    let d = simulate_dft(&DftPlan::new(d_tree, Direction::Forward).unwrap(), 1, cache).unwrap();
    assert!(
        (d.accesses as f64) < 1.5 * s.accesses as f64,
        "access overhead too large ({} vs {})",
        d.accesses,
        s.accesses
    );
    // the planner only chooses reorganizations that pay in simulated
    // cycles (accesses + penalty * misses)
    let cost = |st: &dynamic_data_layout::cachesim::CacheStats| {
        st.accesses as f64 + 30.0 * st.misses as f64
    };
    assert!(
        cost(&d) <= cost(&s) * 1.02,
        "DDL simulated cost regressed: {} vs {}",
        cost(&d),
        cost(&s)
    );
}

#[test]
fn miss_rates_respect_the_compulsory_floor() {
    // No plan can beat one miss per line of fresh data: input + output +
    // scratch each touched at least once.
    let cache = CacheConfig::paper_default(64);
    for tree in [sdl_tree(1 << 14), ddl_tree(1 << 16)] {
        let plan = DftPlan::new(tree, Direction::Forward).unwrap();
        let stats = simulate_dft(&plan, 1, cache).unwrap();
        assert!(stats.compulsory_misses > 0);
        assert!(stats.misses >= stats.compulsory_misses);
    }
}

#[test]
fn two_level_hierarchy_processes_full_traces() {
    let plan = DftPlan::new(ddl_tree(1 << 14), Direction::Forward).unwrap();
    let mut hierarchy = TwoLevelCache::new(
        CacheConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 8,
        },
        CacheConfig::paper_default(64),
    );
    simulate_dft_into(&plan, &mut hierarchy).unwrap();
    let l1 = hierarchy.l1_stats();
    let l2 = hierarchy.l2_stats();
    assert!(l1.line_lookups > 0);
    assert_eq!(l2.line_lookups, l1.misses);
    assert!(l2.misses <= l1.misses);
}

#[test]
fn wht_simulation_follows_the_same_shape() {
    let cache = CacheConfig::paper_default(64);
    let model = CacheModel::from_geometry(512 * 1024, 64, 8);
    let cfg = |strategy| PlannerConfig {
        strategy,
        backend: CostBackend::Analytical(model),
        max_leaf: 64,
        cache_points: model.capacity_points,
    };
    let n = 1 << 19; // 4 MB of f64 >> 512 KB
    let s_tree = try_plan_wht(n, &cfg(Strategy::Sdl)).unwrap().tree;
    let d_tree = try_plan_wht(n, &cfg(Strategy::Ddl)).unwrap().tree;
    let s = simulate_wht(&WhtPlan::new(s_tree).unwrap(), 1, cache).unwrap();
    let d = simulate_wht(&WhtPlan::new(d_tree).unwrap(), 1, cache).unwrap();
    assert!(
        d.miss_rate() <= s.miss_rate() * 1.001,
        "WHT DDL rate {:.4} vs SDL {:.4}",
        d.miss_rate(),
        s.miss_rate()
    );
}

/// Lane batches run `split(64, split(64, 64))`'s stage B eight leaves at
/// a time, row by row, but trace it leaf by leaf: the simulated stream is
/// the leaf-at-a-time executor's, pinned exactly. (Traced in the executed
/// row order, the same plan would miss 98,304 times.)
#[test]
fn wht_simulated_stream_stays_leaf_ordered_under_lane_batches() {
    let plan = WhtPlan::from_expr("split(64, split(64, 64))").unwrap();
    let stats = simulate_wht(&plan, 1, CacheConfig::paper_default(64)).unwrap();
    assert_eq!(stats.accesses, 1_572_864);
    assert_eq!(stats.misses, 557_056);
}
