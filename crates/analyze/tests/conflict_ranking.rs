//! Satellite check: the analyzer's *static* conflict ranking must agree
//! with `ddl-cachesim`'s *simulated* conflict-miss ordering.
//!
//! The paper's Case III argument is that a node whose stage-1 writes
//! interleave at a power-of-two stride thrashes a direct-mapped cache,
//! and that the DDL reorganization (contiguous stage-1 writes plus a
//! tiled transpose) removes exactly those access families. The static
//! analyzer re-derives that claim in closed form (`conflict_summary`);
//! these tests pin it against the trace-driven simulator.
//!
//! Methodology: each comparison is a *golden pair* — the same
//! decomposition with and without reorganization — so the two plans
//! differ only in the access families the reorganization is supposed to
//! fix. Simulated conflict misses are the standard three-C split
//! (direct-mapped misses minus a fully-associative twin's misses). The
//! invariant under test: **whenever the static score is decisive, the
//! simulator orders the pair the same way.** Ties are checked loosely —
//! the per-family static model deliberately ignores cross-region set
//! phasing, which can move simulated counts at equal static scores.
//!
//! Geometry: the paper-default 512 KB cache holds every size in range,
//! which would make the comparison vacuous, so the tests shrink the
//! cache (4/8/16 KB direct-mapped) — the same scaling trick the seed's
//! cachesim tests use.

use ddl_analyze::{analyze_dft_plan, conflict_summary, AnalysisReport, CacheGeometry};
use ddl_cachesim::CacheConfig;
use ddl_core::planner::{try_plan_dft, PlannerConfig, Strategy};
use ddl_core::traced::simulate_dft;
use ddl_core::{DftPlan, Tree};
use ddl_num::Direction;

/// Complex point size in bytes.
const POINT_BYTES: usize = 16;

/// Root stride for the strided-view comparison: a power-of-two stride
/// large enough that input reads alias in every test geometry.
const ROOT_STRIDE: usize = 64;

fn small_cache(capacity_kb: usize) -> CacheConfig {
    CacheConfig {
        capacity_bytes: capacity_kb * 1024,
        line_bytes: 64,
        associativity: 1,
    }
}

fn to_plan(tree: Tree) -> DftPlan {
    DftPlan::new(tree, Direction::Forward).expect("golden plan construction failed")
}

/// Static score: accesses flowing through pathological (degree beyond
/// both associativity and the packing bound) families, per the
/// closed-form analysis.
fn static_score(plan: &DftPlan, stride: usize, cache: &CacheConfig) -> u64 {
    let mut report = AnalysisReport::new();
    let layout = analyze_dft_plan(plan, stride, "rank", &mut report);
    assert!(
        report.passes(),
        "analysis must prove the plan clean before ranking: {:?}",
        report.findings
    );
    let geom = CacheGeometry::from_config(cache);
    conflict_summary(&layout.unwrap(), &geom).pathological_accesses
}

/// Simulated *conflict* misses: the direct-mapped miss count minus the
/// misses of a fully-associative twin of equal capacity (the standard
/// three-C split, as `Cache::with_conflict_split` defines it). Capacity
/// traffic is excluded deliberately — the static pathological-access
/// score models set aliasing, not working-set size.
fn simulated_score(plan: &DftPlan, stride: usize, cache: &CacheConfig) -> u64 {
    let dm = simulate_dft(plan, stride, *cache).unwrap();
    let fa = simulate_dft(
        plan,
        stride,
        CacheConfig {
            capacity_bytes: cache.capacity_bytes,
            line_bytes: cache.line_bytes,
            associativity: cache.capacity_bytes / cache.line_bytes,
        },
    )
    .unwrap();
    dm.misses.saturating_sub(fa.misses)
}

/// Property sweep: every single-split golden pair over a grid of leaf
/// sizes and cache geometries. Single splits are the canonical Case III
/// shape — the two plans differ *only* in the stage-1 write family and
/// the transpose — so a decisive static ordering must be confirmed by
/// the simulator, with no nested-scratch noise to excuse a miss.
#[test]
fn static_ranking_matches_simulated_conflict_ordering() {
    let mut decisive = 0usize;
    for capacity_kb in [8usize, 16, 32] {
        let cache = small_cache(capacity_kb);
        for n1 in [4usize, 8, 16, 32, 64] {
            for n2 in [4usize, 8, 16, 32, 64] {
                let natural = to_plan(Tree::split(Tree::leaf(n1), Tree::leaf(n2)));
                let reorg = to_plan(Tree::split_ddl(Tree::leaf(n1), Tree::leaf(n2)));
                let st = (
                    static_score(&natural, ROOT_STRIDE, &cache),
                    static_score(&reorg, ROOT_STRIDE, &cache),
                );
                let decisive_here =
                    st.0 as f64 > st.1 as f64 * 1.2 || st.1 as f64 > st.0 as f64 * 1.2;
                if !decisive_here {
                    continue;
                }
                let sim = (
                    simulated_score(&natural, ROOT_STRIDE, &cache),
                    simulated_score(&reorg, ROOT_STRIDE, &cache),
                );
                println!(
                    "{capacity_kb}KB ({n1},{n2}): static {}/{} sim {}/{}",
                    st.0, st.1, sim.0, sim.1
                );
                assert_eq!(
                    st.0 > st.1,
                    sim.0 > sim.1,
                    "{capacity_kb}KB ct({n1},{n2}): static order ({} vs {}) contradicts \
                     simulated conflict misses ({} vs {})",
                    st.0,
                    st.1,
                    sim.0,
                    sim.1
                );
                decisive += 1;
            }
        }
    }
    // The grid must actually exercise the ordering claim, not skip it
    // through ties. (64,16)@8KB, (64,32)@16KB and (64,64)@32KB are
    // decisive by construction: the stage-1 interleaved write strides
    // through a 32-set period with 64 lines (degree 2) while the
    // 32-point transpose tiles stay at degree 1.
    assert!(
        decisive >= 3,
        "only {decisive} decisive pair(s); the ranking sweep is vacuous"
    );
}

/// Out-of-cache sizes (2^12..2^14): balanced 64-point chains, where the
/// transpose tiles alias exactly as hard as the interleaved writes they
/// replace. Static scores tie, and the simulator must confirm the tie.
#[test]
fn large_size_ties_agree_with_simulation() {
    fn chain(n: usize) -> Tree {
        if n <= 64 {
            Tree::leaf(n)
        } else {
            Tree::split(Tree::leaf(64), chain(n / 64))
        }
    }
    let cache = small_cache(16);
    for k in 12..=14u32 {
        let n = 1usize << k;
        let natural = to_plan(chain(n));
        let reorg = to_plan(match chain(n) {
            Tree::Split { left, right, .. } => Tree::split_ddl(*left, *right),
            leaf => leaf,
        });
        let st = (
            static_score(&natural, ROOT_STRIDE, &cache),
            static_score(&reorg, ROOT_STRIDE, &cache),
        );
        let sim = (
            simulated_score(&natural, ROOT_STRIDE, &cache),
            simulated_score(&reorg, ROOT_STRIDE, &cache),
        );
        println!("n=2^{k}: static {}/{} sim {}/{}", st.0, st.1, sim.0, sim.1);
        assert_eq!(st.0, st.1, "n=2^{k}: balanced chains must tie statically");
        let (lo, hi) = (sim.0.min(sim.1), sim.0.max(sim.1));
        assert!(
            hi as f64 <= lo as f64 * 1.2 + 64.0,
            "n=2^{k}: static tie but simulated conflict misses diverge ({} vs {})",
            sim.0,
            sim.1
        );
    }
}

/// Planner-emitted plans for both strategies across 2^4..2^14: wherever
/// the strategies emit different trees the orderings must agree, and
/// identical trees must score identically on both sides (a consistency
/// check on the analyzer itself).
#[test]
fn planner_plans_rank_consistently() {
    let cache = small_cache(16);
    for k in 4..=14u32 {
        let n = 1usize << k;
        let mut plans = Vec::new();
        for strategy in [Strategy::Sdl, Strategy::Ddl] {
            let mut cfg = match strategy {
                Strategy::Sdl => PlannerConfig::sdl_analytical(),
                Strategy::Ddl => PlannerConfig::ddl_analytical(),
            };
            cfg.cache_points = cache.capacity_bytes / POINT_BYTES;
            let outcome = try_plan_dft(n, &cfg).expect("planner failed");
            plans.push((format!("{}", outcome.tree), to_plan(outcome.tree)));
        }
        let (tree_sdl, plan_sdl) = &plans[0];
        let (tree_ddl, plan_ddl) = &plans[1];
        let st = (
            static_score(plan_sdl, ROOT_STRIDE, &cache),
            static_score(plan_ddl, ROOT_STRIDE, &cache),
        );
        let sim = (
            simulated_score(plan_sdl, ROOT_STRIDE, &cache),
            simulated_score(plan_ddl, ROOT_STRIDE, &cache),
        );
        if tree_sdl == tree_ddl {
            assert_eq!(st.0, st.1, "identical trees must score identically");
            assert_eq!(sim.0, sim.1, "identical trees must simulate identically");
        } else if st.0 as f64 > st.1 as f64 * 1.2 {
            assert!(
                sim.0 > sim.1,
                "n=2^{k}: static/simulated orderings disagree"
            );
        } else if st.1 as f64 > st.0 as f64 * 1.2 {
            assert!(
                sim.1 > sim.0,
                "n=2^{k}: static/simulated orderings disagree"
            );
        }
    }
}

/// The canonical Case III pair from the paper, written in the plan
/// grammar: reorganizing `ct(2^6, 2^5)` at the root must rank better
/// both statically and in simulation.
#[test]
fn golden_tree_ranking_matches_simulation() {
    let cache = small_cache(16);
    let exprs = ["ct(2^6, 2^5)", "ctddl(2^6, 2^5)"];
    let mut scores = Vec::new();
    for expr in exprs {
        let tree = ddl_core::grammar::parse(expr).expect("golden expr parses");
        let plan = to_plan(tree);
        scores.push((
            expr,
            static_score(&plan, ROOT_STRIDE, &cache),
            simulated_score(&plan, ROOT_STRIDE, &cache),
        ));
    }
    println!("{scores:?}");
    let (_, st_nat, sim_nat) = scores[0];
    let (_, st_ddl, sim_ddl) = scores[1];
    assert!(
        st_nat > st_ddl,
        "static: reorganizing at the root must reduce pathological accesses ({st_nat} vs {st_ddl})"
    );
    assert!(
        sim_nat > sim_ddl,
        "simulated: reorganizing at the root must reduce conflict misses ({sim_nat} vs {sim_ddl})"
    );
}
