//! Integration tests of per-node cache-miss attribution: conservation
//! across the full planner-driven sweep (both transforms, both
//! strategies, every reorganization threshold regime), the same
//! conservation at every level of the simulated L1/L2/d-TLB hierarchy
//! under a property-based sweep, and the three-way empirical/model/
//! static agreement on the paper's canonical Case III plans at both
//! line and page granularity. Attribution and plain simulation run
//! through one harness, so their totals must agree exactly, and the
//! attributing observer must see exactly the node spans a profiling
//! recorder sees.

use dynamic_data_layout::analyze::{annotate_static, annotated_leaves, crosscheck};
use dynamic_data_layout::cachesim::CacheStats;
use dynamic_data_layout::core::attrib::AttributionRun;
use dynamic_data_layout::core::traced::{simulate_dft, simulate_wht};
use dynamic_data_layout::core::{DFT_POINT_BYTES, WHT_POINT_BYTES};
use dynamic_data_layout::prelude::*;
use std::collections::BTreeMap;
// Disambiguate from proptest's `Strategy` trait, also in scope via glob.
use dynamic_data_layout::prelude::Strategy;
use proptest::prelude::*;

/// Sizes spanning in-cache through well-out-of-cache on the paper cache.
const SWEEP_LOGS: [u32; 4] = [4, 8, 12, 16];

/// Root strides paired with [`SWEEP_LOGS`]: unit stride, plus one strided
/// root so the harness's strided input layout is swept too.
const SWEEP_ROOT_STRIDES: [usize; 4] = [1, 1, 4, 1];

/// Reorganization-threshold regimes: a threshold below every sweep size
/// (reorg considered everywhere), one in the middle, the paper value,
/// and one above every size (reorg never pays).
const CACHE_POINT_THRESHOLDS: [usize; 4] = [1 << 6, 1 << 12, 1 << 15, 1 << 30];

fn configs() -> Vec<PlannerConfig> {
    let mut out = Vec::new();
    for strategy in [Strategy::Sdl, Strategy::Ddl] {
        for cache_points in CACHE_POINT_THRESHOLDS {
            let base = match strategy {
                Strategy::Sdl => PlannerConfig::sdl_analytical(),
                Strategy::Ddl => PlannerConfig::ddl_analytical(),
            };
            out.push(PlannerConfig {
                cache_points,
                ..base
            });
        }
    }
    out
}

fn assert_conserved(run: &AttributionRun, what: &str) {
    assert!(
        run.conserved(),
        "{what}: attributed {:?} + outside {:?} != totals {:?}",
        run.attributed_total(),
        run.outside,
        run.totals
    );
    // The executors open their node span before the first access and
    // close it after the last: nothing may leak into the outside bucket.
    assert_eq!(run.outside, CacheStats::default(), "{what}: outside events");
    assert!(run.totals.accesses > 0, "{what}: empty trace");
}

#[test]
fn dft_attribution_conserves_across_strategies_and_thresholds() {
    let cache = CacheConfig::paper_default(64);
    for cfg in configs() {
        for (log, stride) in SWEEP_LOGS.into_iter().zip(SWEEP_ROOT_STRIDES) {
            let n = 1usize << log;
            let tree = try_plan_dft(n, &cfg).unwrap().tree;
            let what = format!(
                "dft n=2^{log} @{stride} {:?} cache_points={} tree={tree}",
                cfg.strategy, cfg.cache_points
            );
            let plan = DftPlan::new(tree, Direction::Forward).unwrap();
            let run = attribute_dft(&plan, stride, cache).unwrap();
            assert_conserved(&run, &what);
            assert_eq!(run.point_bytes, DFT_POINT_BYTES);
            // One harness: attribution collapses to the plain simulation.
            let plain = simulate_dft(&plan, stride, cache).unwrap();
            assert_eq!(run.totals, plain, "{what}: attributed vs plain totals");
        }
    }
}

#[test]
fn wht_attribution_conserves_across_strategies_and_thresholds() {
    let cache = CacheConfig::paper_default(64);
    for cfg in configs() {
        for (log, stride) in SWEEP_LOGS.into_iter().zip(SWEEP_ROOT_STRIDES) {
            let n = 1usize << log;
            let tree = try_plan_wht(n, &cfg).unwrap().tree;
            let what = format!(
                "wht n=2^{log} @{stride} {:?} cache_points={}",
                cfg.strategy, cfg.cache_points
            );
            let plan = WhtPlan::new(tree).unwrap();
            let run = attribute_wht(&plan, stride, cache).unwrap();
            assert_conserved(&run, &what);
            assert_eq!(run.point_bytes, WHT_POINT_BYTES);
            let plain = simulate_wht(&plan, stride, cache).unwrap();
            assert_eq!(run.totals, plain, "{what}: attributed vs plain totals");
        }
    }
}

/// Node spans as a multiset: `(size, stride, reorg)` to visit count.
type SpanCounts = BTreeMap<(usize, usize, bool), u64>;

/// The node spans a profiling recorder collected.
fn recorded_node_spans(rec: &Recorder) -> SpanCounts {
    let mut counts = SpanCounts::new();
    for event in rec.trace_events() {
        if let TraceEvent::Begin { info, .. } = event {
            if info.kind == SpanKind::Node {
                *counts
                    .entry((info.size, info.stride, info.reorg))
                    .or_default() += 1;
            }
        }
    }
    counts
}

/// The node spans an attributed run aggregated.
fn attributed_node_spans(run: &AttributionRun) -> SpanCounts {
    let mut counts = SpanCounts::new();
    run.walk(&mut |node, _| {
        *counts
            .entry((node.size, node.stride, node.reorg))
            .or_default() += node.calls;
    });
    counts
}

#[test]
fn profile_and_attribution_observe_the_same_node_spans() {
    // The executor hands one observer both the spans and the address
    // stream; each half is gated by its own flag. A recorder (spans
    // only) and the attributing cache (spans and addresses) must
    // therefore see the same node spans, node for node.
    let cache = CacheConfig::paper_default(64);

    let dft = DftPlan::from_expr("ctddl(ctddl(8, 8), ct(8, 8))", Direction::Forward).unwrap();
    let x = vec![Complex64::ONE; dft.n()];
    let mut y = vec![Complex64::ZERO; dft.n()];
    let mut rec = Recorder::new();
    dft.try_profile_with(&x, &mut y, &mut rec).unwrap();
    let run = attribute_dft(&dft, 1, cache).unwrap();
    let spans = recorded_node_spans(&rec);
    assert!(spans.keys().any(|&(_, _, reorg)| reorg), "no reorg span");
    assert_eq!(spans, attributed_node_spans(&run), "dft {}", dft.tree());

    let wht = WhtPlan::from_expr("split(splitddl(8, 8), split(8, 4))").unwrap();
    let mut data = vec![1.0; wht.n()];
    let mut rec = Recorder::new();
    wht.try_profile_with(&mut data, &mut rec).unwrap();
    let run = attribute_wht(&wht, 1, cache).unwrap();
    let spans = recorded_node_spans(&rec);
    assert!(spans.keys().any(|&(_, _, reorg)| reorg), "no reorg span");
    assert_eq!(spans, attributed_node_spans(&run), "wht {}", wht.tree());
}

/// Asserts the hierarchy invariants the tentpole promises: per-level
/// node-sums plus outside equal the totals exactly (L1, L2 and TLB),
/// and every node's L2 accesses equal its L1 misses. `check_hierarchy`
/// verifies all of it; the extra assertions here pin the non-triviality
/// of the run so a silently empty trace cannot pass.
fn assert_hier_conserved(run: &AttributionRun, what: &str) {
    if let Err(e) = run.check_hierarchy() {
        panic!("{what}: {e}");
    }
    let h = run.hierarchy.as_ref().expect("hierarchy attribution");
    assert!(h.totals.l1.accesses > 0, "{what}: empty L1 trace");
    assert!(h.totals.tlb.accesses > 0, "{what}: empty TLB trace");
    assert_eq!(
        h.totals.l2.accesses, h.totals.l1.misses,
        "{what}: whole-run L2/L1 coupling"
    );
    // The executors wrap every access in a node span, so nothing may
    // leak into the outside bucket at any level.
    assert_eq!(h.outside.l1, CacheStats::default(), "{what}: outside L1");
    assert_eq!(h.outside.l2, CacheStats::default(), "{what}: outside L2");
    assert_eq!(h.outside.tlb, CacheStats::default(), "{what}: outside TLB");
    // And the hierarchy rides the same spans as the line attribution:
    // both views saw the same trace shape.
    let attributed = run.hier_attributed_total().expect("hierarchy totals");
    assert_eq!(attributed, h.totals, "{what}: per-level node sums");
}

proptest! {
    // Each case attributes a planner-produced tree with the full
    // hierarchy simulator; a couple dozen cases cover the strategy ×
    // threshold × transform × size lattice well while keeping the
    // debug-mode runtime bounded.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property sweep of the tentpole invariant: for any planner
    /// configuration (both strategies, every reorganization-threshold
    /// regime) and any size in `2^4 ..= 2^16`, per-node exclusive
    /// deltas conserve exactly at L1, L2 and the d-TLB, and each
    /// node's L2 accesses equal its L1 misses.
    #[test]
    fn hierarchy_attribution_conserves_for_planned_trees(
        log in 4u32..=16,
        ddl in any::<bool>(),
        threshold_idx in 0usize..CACHE_POINT_THRESHOLDS.len(),
        wht in any::<bool>(),
    ) {
        let cache = CacheConfig::paper_default(64);
        let hier = HierarchyConfig::typical(cache);
        let base = if ddl {
            PlannerConfig::ddl_analytical()
        } else {
            PlannerConfig::sdl_analytical()
        };
        let cfg = PlannerConfig {
            cache_points: CACHE_POINT_THRESHOLDS[threshold_idx],
            ..base
        };
        let n = 1usize << log;
        let what = format!(
            "{} n=2^{log} {:?} cache_points={}",
            if wht { "wht" } else { "dft" },
            cfg.strategy,
            cfg.cache_points
        );
        let run = if wht {
            let plan = WhtPlan::new(try_plan_wht(n, &cfg).unwrap().tree).unwrap();
            attribute_wht_hier(&plan, 1, cache, hier).unwrap()
        } else {
            let plan = DftPlan::new(try_plan_dft(n, &cfg).unwrap().tree, Direction::Forward).unwrap();
            attribute_dft_hier(&plan, 1, cache, hier).unwrap()
        };
        assert_conserved(&run, &what);
        assert_hier_conserved(&run, &what);
    }
}

#[test]
fn rfft_hierarchy_attribution_conserves_across_sizes() {
    let cache = CacheConfig::paper_default(64);
    let hier = HierarchyConfig::typical(cache);
    for log in SWEEP_LOGS {
        let n = 1usize << log;
        let plan = RfftPlan::plan(n, &PlannerConfig::ddl_analytical()).unwrap();
        let run = attribute_rfft_hier(&plan, cache, hier).unwrap();
        let what = format!("rfft n=2^{log}");
        assert_conserved(&run, &what);
        assert_hier_conserved(&run, &what);
        // The pipeline stages are spans of the same tree: pack, the
        // half-size complex DFT, untangle.
        let labels: Vec<&str> = run.roots[0]
            .children
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(labels, ["pack", "dft", "untangle"], "{what}");
    }
}

/// The tiny direct-mapped cache from `crates/analyze`'s conflict-ranking
/// golden pair: 16 KiB, 64 B lines.
fn small_cache() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 16 * 1024,
        line_bytes: 64,
        associativity: 1,
    }
}

#[test]
fn golden_pair_agrees_three_ways() {
    // ct(64, 32) at root stride 64 on the small cache: every leaf runs at
    // a power-of-two stride whose working set exceeds the cache — the
    // canonical Case III. Its ctddl twin reorganizes the left child so
    // its leaves run at unit stride. On both, the empirical, analytical
    // and static classifications must tell one story on every leaf.
    for expr in ["ct(64, 32)", "ctddl(64, 32)"] {
        let plan = DftPlan::from_expr(expr, Direction::Forward).unwrap();
        let mut run = attribute_dft(&plan, 64, small_cache()).unwrap();
        annotate_static(&mut run);
        let disagreements = crosscheck(&run);
        assert!(
            disagreements.is_empty(),
            "{expr}: methods disagree:\n{}",
            disagreements
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        let leaves = annotated_leaves(&run);
        assert!(!leaves.is_empty(), "{expr}: no classified leaves");
        // The SDL member of the pair must actually exhibit Case III.
        if expr == "ct(64, 32)" {
            assert!(
                leaves
                    .iter()
                    .all(|(_, l)| l.empirical == Some(CaseClass::Case3)),
                "{expr}: expected every leaf to thrash"
            );
        }
    }
}

/// A hierarchy around [`small_cache`]: a 4 KiB direct-mapped L1 under
/// it, and a 64-entry 4-way d-TLB with 4 KiB pages. (The `typical`
/// constructor would put a 32 KiB L1 above this 16 KiB L2.)
fn small_hier() -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig {
            capacity_bytes: 4 * 1024,
            line_bytes: 64,
            associativity: 1,
        },
        l2: small_cache(),
        tlb_entries: 64,
        tlb_page_bytes: 4096,
        tlb_ways: 4,
    }
}

#[test]
fn ddl_reorganization_flips_case_iii_at_line_and_page_granularity() {
    // split(split(64, 64), 16) at 2^16 WHT points: the deepest leaf runs
    // at stride 1024 points = 8 KiB = two pages per step, thrashing the
    // TLB's sets exactly as it thrashes cache lines — the paper's
    // Case III reproduced at page geometry, because the TLB is just a
    // cache whose line is the 4 KiB page. The splitddl twin hands the
    // inner split a unit-stride view: the converted leaf flips
    // Case III -> Case I/II at BOTH granularities, and no leaf of the
    // DDL tree stays page-pathological — by all three methods.
    let attribute = |expr: &str| {
        let plan = WhtPlan::new(parse_tree(expr).unwrap()).unwrap();
        let mut run = attribute_wht_hier(&plan, 1, small_cache(), small_hier()).unwrap();
        annotate_static(&mut run);
        annotated_leaves(&run)
    };

    let sdl = attribute("split(split(64, 64), 16)");
    let (path, worst) = sdl
        .iter()
        .find(|(_, l)| l.stride == 1024)
        .expect("SDL tree must have the stride-1024 leaf");
    assert_eq!(worst.empirical, Some(CaseClass::Case3), "{path}");
    assert_eq!(worst.model, Some(CaseClass::Case3), "{path}");
    assert_eq!(worst.static_pathological, Some(true), "{path}");
    assert_eq!(worst.empirical_page, Some(CaseClass::Case3), "{path}");
    assert_eq!(worst.model_page, Some(CaseClass::Case3), "{path}");
    assert_eq!(worst.static_pathological_page, Some(true), "{path}");

    let ddl = attribute("split(splitddl(64, 64), 16)");
    assert!(!ddl.is_empty());
    for (path, leaf) in &ddl {
        assert_eq!(leaf.empirical_page, Some(CaseClass::CaseI2), "{path}");
        assert_eq!(leaf.model_page, Some(CaseClass::CaseI2), "{path}");
        assert_eq!(leaf.static_pathological_page, Some(false), "{path}");
    }
    // The unit-stride-converted inner leaf clears Case III at line
    // geometry too (its sibling keeps a residual 64-point stride that
    // still conflicts in the tiny L2 — reorganization is per-node, and
    // the planner decides where it pays).
    let (path, converted) = ddl
        .iter()
        .find(|(path, l)| l.size == 64 && l.stride == 1 && path.contains("wht:4096@16"))
        .expect("DDL tree must have the converted unit-stride leaf");
    assert_eq!(converted.empirical, Some(CaseClass::CaseI2), "{path}");
    assert_eq!(converted.model, Some(CaseClass::CaseI2), "{path}");
    assert_eq!(converted.static_pathological, Some(false), "{path}");
}

#[test]
fn injected_disagreement_is_reported_by_node_path() {
    let plan = DftPlan::from_expr("ct(64, 32)", Direction::Forward).unwrap();
    let mut run = attribute_dft(&plan, 64, small_cache()).unwrap();
    annotate_static(&mut run);
    assert!(crosscheck(&run).is_empty());
    let mut flipped = String::new();
    run.walk_mut(&mut |node, path| {
        if node.model.is_some() && flipped.is_empty() {
            node.static_pathological = Some(false);
            flipped = path.to_string();
        }
    });
    let disagreements = crosscheck(&run);
    assert_eq!(disagreements.len(), 1);
    assert_eq!(disagreements[0].path, flipped);
}

#[test]
fn attribution_report_survives_serialization_with_static_annotations() {
    let plan = DftPlan::from_expr("ctddl(64, 32)", Direction::Forward).unwrap();
    let mut run = attribute_dft(&plan, 64, small_cache()).unwrap();
    annotate_static(&mut run);
    let mut report = Report::new("integration");
    let mut record = PlanRecord::dft(&plan, "ddl");
    record.sim = Some(run);
    report.plans.push(record);
    let back = Report::parse(&report.to_text()).unwrap();
    assert_eq!(back.plans.len(), 1);
    let before = annotated_leaves(report.plans[0].sim.as_ref().unwrap());
    let after = annotated_leaves(back.plans[0].sim.as_ref().unwrap());
    assert_eq!(before.len(), after.len());
    for ((path_a, a), (path_b, b)) in before.iter().zip(after.iter()) {
        assert_eq!(path_a, path_b);
        assert_eq!(a.static_pathological, b.static_pathological);
        assert_eq!(a.static_degree, b.static_degree);
        assert_eq!(a.empirical, b.empirical);
        assert_eq!(a.model, b.model);
    }
}
