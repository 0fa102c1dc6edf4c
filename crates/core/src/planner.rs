//! Dynamic-programming search for optimal factorization trees.
//!
//! This module implements both searches the paper compares:
//!
//! * **SDL** (`Strategy::Sdl`) — the FFTW/CMU-style search: dynamic
//!   programming over transform *sizes* only, assuming "all FFTs of the
//!   same size have the same performance" (paper Section II-B). Costs are
//!   always evaluated at unit stride, which is precisely the assumption
//!   the paper criticizes.
//! * **DDL** (`Strategy::Ddl`) — the paper's search (Section IV-B,
//!   Fig. 8): dynamic programming over *(size, stride)* states, with
//!   reorganization candidates considered at nodes whose working set
//!   `size · stride` reaches the cache size. Following Section IV-C, only
//!   two layouts per node are considered (`q = 2`): the natural stride and
//!   unit stride after reorganization, giving the paper's
//!   `O(p^2 q^2)`-state search.
//!
//! Costs come from a pluggable [`CostBackend`]:
//!
//! * [`CostBackend::Measured`] — the paper's `Get_time`: each candidate
//!   tree (assembled from memoized optimal subtrees) is compiled and
//!   executed, and wall-clock time decides. This is what the experiments
//!   use.
//! * [`CostBackend::Analytical`] — the closed-form cache model of
//!   Section III-B (used for the "estimated" column of Table I, in unit
//!   tests, and when planning must be deterministic and fast).

use crate::dft::{DftPlan, DftViews};
use crate::measure::time_per_call;
use crate::model::CacheModel;
use crate::obs::{Candidate, Counter, NullSink, Sink, SpanInfo, SpanKind};
use crate::tree::Tree;
use crate::wht::{WhtPlan, WhtView};
use ddl_kernels::{MAX_LEAF_DFT, MAX_LEAF_WHT};
use ddl_num::{factor_pairs, Complex64, DdlError, Direction};
use std::collections::HashMap;

/// Which search to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Static data layout: size-only DP, no reorganizations (the
    /// FFTW/CMU baseline the paper modifies).
    Sdl,
    /// Dynamic data layout: (size, stride) DP with reorganization
    /// candidates (the paper's contribution).
    Ddl,
}

impl Strategy {
    /// Stable lowercase name used in metrics reports.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Sdl => "sdl",
            Strategy::Ddl => "ddl",
        }
    }
}

/// How candidate trees are priced.
#[derive(Clone, Copy, Debug)]
pub enum CostBackend {
    /// Execute and time every candidate (the paper's `Get_time`).
    Measured {
        /// Minimum accumulated time per measurement, seconds.
        min_secs: f64,
        /// Minimum repetitions per measurement.
        min_reps: u32,
    },
    /// Price candidates with the analytical cache model.
    Analytical(CacheModel),
    /// Price candidates by replaying their exact access stream through
    /// the cache simulator: cost = `accesses + miss_penalty * misses`
    /// (simulated memory cycles). This is the planner "running on the
    /// simulated machine" — the configuration the paper's Section V-A
    /// miss-rate studies correspond to. Deterministic but slower than the
    /// analytical backend (one full trace per candidate).
    Simulated {
        /// Geometry of the simulated cache.
        cache: ddl_cachesim::CacheConfig,
        /// Cost of one miss relative to one access.
        miss_penalty: f64,
    },
}

impl CostBackend {
    /// A fast measured backend suitable for planning sweeps.
    pub fn quick_measure() -> Self {
        CostBackend::Measured {
            min_secs: 2e-3,
            min_reps: 2,
        }
    }

    /// Stable lowercase name used in metrics reports.
    pub fn label(&self) -> &'static str {
        match self {
            CostBackend::Measured { .. } => "measured",
            CostBackend::Analytical(_) => "analytical",
            CostBackend::Simulated { .. } => "simulated",
        }
    }
}

/// Planner configuration.
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// SDL or DDL search.
    pub strategy: Strategy,
    /// Cost backend.
    pub backend: CostBackend,
    /// Largest leaf size the search may choose.
    pub max_leaf: usize,
    /// Cache size in points: reorganization is only considered at nodes
    /// with `size * stride >= cache_points` (paper Section IV-B: "we
    /// apply the DDL approach only to transforms whose sizes are equal to
    /// or larger than the cache size").
    pub cache_points: usize,
}

impl PlannerConfig {
    /// DDL with the analytical paper-default model — deterministic.
    pub fn ddl_analytical() -> Self {
        PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::Analytical(CacheModel::paper_default()),
            max_leaf: MAX_LEAF_DFT,
            cache_points: CacheModel::paper_default().capacity_points,
        }
    }

    /// SDL with the analytical paper-default model.
    pub fn sdl_analytical() -> Self {
        PlannerConfig {
            strategy: Strategy::Sdl,
            ..PlannerConfig::ddl_analytical()
        }
    }

    /// DDL with measured costs (the paper's experimental configuration).
    pub fn ddl_measured() -> Self {
        PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::quick_measure(),
            max_leaf: MAX_LEAF_DFT,
            cache_points: CacheModel::paper_default().capacity_points,
        }
    }

    /// SDL with measured costs.
    pub fn sdl_measured() -> Self {
        PlannerConfig {
            strategy: Strategy::Sdl,
            ..PlannerConfig::ddl_measured()
        }
    }

    /// DDL optimizing for a simulated cache (the paper's Section V-A
    /// configuration when given `CacheConfig::paper_default(64)`).
    /// `point_bytes` converts the cache capacity into the planner's
    /// DDL-consideration threshold (16 for DFT, 8 for WHT).
    pub fn ddl_simulated(cache: ddl_cachesim::CacheConfig, point_bytes: usize) -> Self {
        PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::Simulated {
                cache,
                miss_penalty: 30.0,
            },
            max_leaf: MAX_LEAF_DFT,
            cache_points: cache.capacity_bytes / point_bytes,
        }
    }

    /// SDL variant of [`Self::ddl_simulated`].
    pub fn sdl_simulated(cache: ddl_cachesim::CacheConfig, point_bytes: usize) -> Self {
        PlannerConfig {
            strategy: Strategy::Sdl,
            ..PlannerConfig::ddl_simulated(cache, point_bytes)
        }
    }
}

/// Result of a planning run.
#[derive(Clone, Debug)]
pub struct PlanOutcome {
    /// The optimal tree found.
    pub tree: Tree,
    /// Its cost: seconds per execution (measured backend) or estimated
    /// nanoseconds (analytical backend).
    pub cost: f64,
    /// Number of distinct `(size, stride)` states explored.
    pub states: usize,
    /// Number of candidate trees priced.
    pub candidates: usize,
}

/// Fallible search for an optimal DFT factorization tree of size `n`.
///
/// Returns [`DdlError::InvalidSize`] for a 0-point transform.
pub fn try_plan_dft(n: usize, cfg: &PlannerConfig) -> Result<PlanOutcome, DdlError> {
    try_plan_dft_with(n, cfg, &mut NullSink)
}

/// [`try_plan_dft`] with an observability sink: the search reports DP
/// states, memo hits and every priced `(size, stride, reorg?)` candidate
/// into `sink` as it runs.
pub fn try_plan_dft_with<S: Sink>(
    n: usize,
    cfg: &PlannerConfig,
    sink: &mut S,
) -> Result<PlanOutcome, DdlError> {
    if n < 1 {
        return Err(DdlError::invalid_size(
            "plan_dft",
            n,
            "cannot plan a 0-point transform",
        ));
    }
    if S::ENABLED {
        sink.span_begin(planner_run_span(Kind::Dft, cfg, n));
    }
    let mut search = Search {
        cfg: *cfg,
        kind: Kind::Dft,
        memo: HashMap::new(),
        candidates: 0,
        sink,
    };
    let (cost, tree) = search.best(n, 1);
    let states = search.memo.len();
    let candidates = search.candidates;
    if S::ENABLED {
        sink.span_end();
    }
    Ok(PlanOutcome {
        tree,
        cost,
        states,
        candidates,
    })
}

/// Fallible search for an optimal WHT factorization tree of size `n`.
///
/// Returns [`DdlError::InvalidSize`] unless `n` is a power of two.
pub fn try_plan_wht(n: usize, cfg: &PlannerConfig) -> Result<PlanOutcome, DdlError> {
    try_plan_wht_with(n, cfg, &mut NullSink)
}

/// [`try_plan_wht`] with an observability sink (see
/// [`try_plan_dft_with`]).
pub fn try_plan_wht_with<S: Sink>(
    n: usize,
    cfg: &PlannerConfig,
    sink: &mut S,
) -> Result<PlanOutcome, DdlError> {
    if !n.is_power_of_two() {
        return Err(DdlError::invalid_size(
            "plan_wht",
            n,
            format!("WHT sizes must be powers of two, got {n}"),
        ));
    }
    if S::ENABLED {
        sink.span_begin(planner_run_span(Kind::Wht, cfg, n));
    }
    let mut search = Search {
        cfg: *cfg,
        kind: Kind::Wht,
        memo: HashMap::new(),
        candidates: 0,
        sink,
    };
    let (cost, tree) = search.best(n, 1);
    let states = search.memo.len();
    let candidates = search.candidates;
    if S::ENABLED {
        sink.span_end();
    }
    Ok(PlanOutcome {
        tree,
        cost,
        states,
        candidates,
    })
}

/// Plans every power-of-two size up to `max_n` in one dynamic-programming
/// pass (the memo table of the `max_n` search already contains the
/// optimal unit-stride tree of every smaller power of two, since each
/// appears as a right child during the search). Returns `(n, outcome)`
/// pairs for `n = 2, 4, …, max_n`.
///
/// With the measured backend this amortizes the planning cost of a whole
/// size sweep into a single search.
pub fn try_plan_dft_sweep(
    max_n: usize,
    cfg: &PlannerConfig,
) -> Result<Vec<(usize, PlanOutcome)>, DdlError> {
    plan_sweep(max_n, cfg, Kind::Dft, &mut NullSink)
}

/// [`try_plan_dft_sweep`] with an observability sink (see
/// [`try_plan_dft_with`]).
pub fn try_plan_dft_sweep_with<S: Sink>(
    max_n: usize,
    cfg: &PlannerConfig,
    sink: &mut S,
) -> Result<Vec<(usize, PlanOutcome)>, DdlError> {
    plan_sweep(max_n, cfg, Kind::Dft, sink)
}

/// WHT version of [`try_plan_dft_sweep`].
pub fn try_plan_wht_sweep(
    max_n: usize,
    cfg: &PlannerConfig,
) -> Result<Vec<(usize, PlanOutcome)>, DdlError> {
    plan_sweep(max_n, cfg, Kind::Wht, &mut NullSink)
}

/// [`try_plan_wht_sweep`] with an observability sink (see
/// [`try_plan_dft_with`]).
pub fn try_plan_wht_sweep_with<S: Sink>(
    max_n: usize,
    cfg: &PlannerConfig,
    sink: &mut S,
) -> Result<Vec<(usize, PlanOutcome)>, DdlError> {
    plan_sweep(max_n, cfg, Kind::Wht, sink)
}

fn plan_sweep<S: Sink>(
    max_n: usize,
    cfg: &PlannerConfig,
    kind: Kind,
    sink: &mut S,
) -> Result<Vec<(usize, PlanOutcome)>, DdlError> {
    if !max_n.is_power_of_two() {
        return Err(DdlError::invalid_size(
            "plan_sweep",
            max_n,
            "sweep planning requires a power-of-two max size",
        ));
    }
    if S::ENABLED {
        sink.span_begin(planner_run_span(kind, cfg, max_n));
    }
    let mut search = Search {
        cfg: *cfg,
        kind,
        memo: HashMap::new(),
        candidates: 0,
        sink,
    };
    search.best(max_n, 1);
    let mut out = Vec::new();
    let mut n = 2usize;
    while n <= max_n {
        // all unit-stride states for smaller powers were filled during
        // the max_n search; compute any stragglers explicitly
        let (cost, tree) = search.best(n, 1);
        out.push((
            n,
            PlanOutcome {
                tree,
                cost,
                states: search.memo.len(),
                candidates: search.candidates,
            },
        ));
        n *= 2;
    }
    if S::ENABLED {
        sink.span_end();
    }
    Ok(out)
}

/// Span describing one whole planner search: the transform kind as the
/// label, the root size, and the strategy encoded in `reorg` (true for
/// DDL — the searches differ exactly in whether reorganization
/// candidates exist).
fn planner_run_span(kind: Kind, cfg: &PlannerConfig, n: usize) -> SpanInfo {
    SpanInfo {
        kind: SpanKind::PlannerRun,
        label: kind.label(),
        size: n,
        stride: 1,
        reorg: cfg.strategy == Strategy::Ddl,
        backend: "scalar",
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dft,
    Wht,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Dft => "dft",
            Kind::Wht => "wht",
        }
    }
}

struct Search<'s, S: Sink> {
    cfg: PlannerConfig,
    kind: Kind,
    memo: HashMap<(usize, usize), (f64, Tree)>,
    candidates: usize,
    sink: &'s mut S,
}

impl<S: Sink> Search<'_, S> {
    /// Optimal (cost, tree) for an `n`-point transform read at `stride`.
    ///
    /// Under `Strategy::Sdl` the stride is forced to 1 before memoization,
    /// reproducing the size-only search of the prior packages.
    fn best(&mut self, n: usize, stride: usize) -> (f64, Tree) {
        let stride = match self.cfg.strategy {
            Strategy::Sdl => 1,
            Strategy::Ddl => stride,
        };
        if let Some(hit) = self.memo.get(&(n, stride)) {
            if S::ENABLED {
                self.sink.counter(Counter::PlannerMemoHits, 1);
            }
            return hit.clone();
        }
        if S::ENABLED {
            // Memo misses only: each DP state is solved (and spanned)
            // once; hits return above without opening a span.
            self.sink.span_begin(SpanInfo {
                kind: SpanKind::PlannerState,
                label: self.kind.label(),
                size: n,
                stride,
                reorg: false,
                backend: "scalar",
            });
        }

        let mut best: Option<(f64, Tree)> = None;
        let mut consider = |this: &mut Self, tree: Tree| {
            let cost = this.price(&tree, stride);
            this.candidates += 1;
            if S::ENABLED {
                this.sink.counter(Counter::PlannerCandidates, 1);
                this.sink.candidate(Candidate {
                    size: n,
                    stride,
                    reorg: tree.reorg(),
                    cost,
                });
            }
            if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
                best = Some((cost, tree));
            }
        };

        let max_leaf = match self.kind {
            Kind::Dft => self.cfg.max_leaf.min(MAX_LEAF_DFT),
            Kind::Wht => self.cfg.max_leaf.min(MAX_LEAF_WHT),
        };

        // Leaf candidates. Gather-reorganized leaves need a non-unit
        // stride to act on.
        if n <= max_leaf {
            consider(self, Tree::leaf(n));
            if self.cfg.strategy == Strategy::Ddl
                && stride > 1
                && n.saturating_mul(stride) >= self.cfg.cache_points
            {
                consider(self, Tree::leaf_ddl(n));
            }
        }

        // Split candidates, from memoized optimal children.
        for (n1, n2) in factor_pairs(n, 2) {
            // Natural-stride candidate: children per the executor's stride
            // propagation.
            let (_, left) = self.best(n1, n2 * stride);
            let (_, right) = self.best(n2, self.right_child_stride(stride));
            consider(self, Tree::split(left.clone(), right.clone()));

            // Reorganized candidate (`ctddl`).
            if self.ddl_applicable(n, stride) {
                match self.kind {
                    Kind::Dft => {
                        // The DFT reorganization changes the node's
                        // intermediate layout (contiguous stage-1 writes +
                        // tiled transpose); children read exactly as in
                        // the natural candidate.
                        consider(self, Tree::split_ddl(left, right));
                    }
                    Kind::Wht => {
                        // The in-place WHT reorganization compacts the
                        // node's view to unit stride: children derive
                        // their strides from 1.
                        let (_, left) = self.best(n1, n2);
                        let (_, right) = self.best(n2, 1);
                        consider(self, Tree::split_ddl(left, right));
                    }
                }
            }
        }

        let result = best.unwrap_or_else(|| {
            // No factorization and too big for a codelet (e.g. a large
            // prime): fall back to a naive leaf.
            let tree = Tree::leaf(n);
            let cost = self.price(&tree, stride);
            self.candidates += 1;
            if S::ENABLED {
                self.sink.counter(Counter::PlannerCandidates, 1);
                self.sink.candidate(Candidate {
                    size: n,
                    stride,
                    reorg: false,
                    cost,
                });
            }
            (cost, tree)
        });
        if S::ENABLED {
            self.sink.counter(Counter::PlannerStates, 1);
            self.sink.span_end();
        }
        self.memo.insert((n, stride), result.clone());
        result
    }

    /// Whether a reorganization candidate is considered at a split of
    /// `(n, stride)`. Per the paper (Section IV-B), only nodes whose
    /// working set reaches the cache size are candidates. The DFT's
    /// between-stage reorganization is meaningful even at unit input
    /// stride (the intermediate writes are what it fixes); the in-place
    /// WHT compaction needs a strided view to act on.
    fn ddl_applicable(&self, n: usize, stride: usize) -> bool {
        self.cfg.strategy == Strategy::Ddl
            && n.saturating_mul(stride) >= self.cfg.cache_points
            && (self.kind == Kind::Dft || stride > 1)
    }

    /// Input stride of the right child given the parent's.
    fn right_child_stride(&self, parent: usize) -> usize {
        match self.kind {
            // out-of-place executor: stage 2 reads scratch at unit stride
            Kind::Dft => 1,
            // in-place executor: stage A inherits the parent's stride
            Kind::Wht => parent,
        }
    }

    fn price(&mut self, tree: &Tree, stride: usize) -> f64 {
        match self.cfg.backend {
            CostBackend::Analytical(model) => match self.kind {
                Kind::Dft => model.tree_cost_ns(tree, stride),
                Kind::Wht => model.wht_tree_cost_ns(tree, stride),
            },
            CostBackend::Measured { min_secs, min_reps } => match self.kind {
                Kind::Dft => time_dft_tree(tree, stride, min_secs, min_reps),
                Kind::Wht => time_wht_tree(tree, stride, min_secs, min_reps),
            }
            // ddl-lint: allow(no-panics): the planner’s own tree must compile and run; failure here is a planner bug
            .expect("planner generated an invalid tree"),
            CostBackend::Simulated {
                cache,
                miss_penalty,
            } => {
                let stats = match self.kind {
                    Kind::Dft => DftPlan::new(tree.clone(), Direction::Forward)
                        .and_then(|plan| crate::traced::simulate_dft(&plan, stride, cache)),
                    Kind::Wht => WhtPlan::new(tree.clone())
                        .and_then(|plan| crate::traced::simulate_wht(&plan, stride, cache)),
                }
                // ddl-lint: allow(no-panics): the planner’s own tree must compile and run; failure here is a planner bug
                .expect("planner generated an invalid tree");
                stats.accesses as f64 + miss_penalty * stats.misses as f64
            }
        }
    }
}

/// Times `run` with [`time_per_call`], stopping at (and returning) its
/// first error.
fn time_fallible(
    mut run: impl FnMut() -> Result<(), DdlError>,
    min_secs: f64,
    min_reps: u32,
) -> Result<f64, DdlError> {
    let mut outcome = Ok(());
    let secs = time_per_call(
        || {
            if outcome.is_ok() {
                outcome = run();
            }
        },
        min_secs,
        min_reps,
    );
    outcome.map(|()| secs)
}

/// Buffer length a view of `n` points at `stride` needs, or
/// [`DdlError::InvalidStride`] when that overflows `usize`.
fn view_span(n: usize, stride: usize) -> Result<usize, DdlError> {
    n.saturating_sub(1)
        .checked_mul(stride)
        .and_then(|off| off.checked_add(1))
        .ok_or_else(|| DdlError::InvalidStride {
            detail: format!("a {n}-point view at stride {stride} overflows usize"),
        })
}

/// Wall-clock cost of one execution of `tree` as a DFT whose input is
/// read at `stride` (the paper's `Get_time`).
pub fn time_dft_tree(
    tree: &Tree,
    stride: usize,
    min_secs: f64,
    min_reps: u32,
) -> Result<f64, DdlError> {
    let plan = DftPlan::new(tree.clone(), Direction::Forward)?;
    let n = plan.n();
    let span = view_span(n, stride)?;
    let src: Vec<Complex64> = (0..span)
        .map(|i| Complex64::new((i % 83) as f64 * 0.25, (i % 57) as f64 * -0.125))
        .collect();
    let mut dst = vec![Complex64::ZERO; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    time_fallible(
        || {
            let views = DftViews::new(&src, &mut dst).input_at(0, stride);
            plan.try_run(views, &mut scratch, &mut NullSink)?;
            std::hint::black_box(&mut dst);
            Ok(())
        },
        min_secs,
        min_reps,
    )
}

/// Wall-clock cost of one in-place execution of `tree` as a WHT on a
/// view of the given stride.
pub fn time_wht_tree(
    tree: &Tree,
    stride: usize,
    min_secs: f64,
    min_reps: u32,
) -> Result<f64, DdlError> {
    let plan = WhtPlan::new(tree.clone())?;
    let span = view_span(plan.n(), stride)?;
    let mut data: Vec<f64> = (0..span).map(|i| (i % 101) as f64 * 0.5 - 20.0).collect();
    let mut scratch = vec![0.0f64; plan.scratch_len()];
    time_fallible(
        || {
            let view = WhtView::new(&mut data).at(0, stride);
            plan.try_run(view, &mut scratch, &mut NullSink)?;
            std::hint::black_box(&mut data);
            Ok(())
        },
        min_secs,
        min_reps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdl_plan_is_reorg_free_and_valid() {
        let cfg = PlannerConfig::sdl_analytical();
        for log_n in [4u32, 8, 12, 16, 20] {
            let out = try_plan_dft(1 << log_n, &cfg).unwrap();
            assert_eq!(out.tree.size(), 1 << log_n);
            assert_eq!(out.tree.reorg_count(), 0, "SDL must not reorganize");
            assert!(out.tree.validate().is_ok());
            assert!(out.cost > 0.0);
        }
    }

    #[test]
    fn ddl_plan_reorganizes_large_transforms_only() {
        let cfg = PlannerConfig::ddl_analytical();
        // Below the cache (2^15 points): no reorganization pays off.
        let small = try_plan_dft(1 << 12, &cfg).unwrap();
        assert_eq!(small.tree.reorg_count(), 0);
        // Well above the cache: the optimal tree must reorganize.
        let large = try_plan_dft(1 << 20, &cfg).unwrap();
        assert!(
            large.tree.reorg_count() > 0,
            "expected reorgs in {}",
            large.tree
        );
    }

    #[test]
    fn ddl_beats_sdl_in_the_model_above_cache() {
        let model = CacheModel::paper_default();
        let sdl = try_plan_dft(1 << 20, &PlannerConfig::sdl_analytical()).unwrap();
        let ddl = try_plan_dft(1 << 20, &PlannerConfig::ddl_analytical()).unwrap();
        let sdl_cost = model.tree_cost_ns(&sdl.tree, 1);
        let ddl_cost = model.tree_cost_ns(&ddl.tree, 1);
        assert!(
            ddl_cost < sdl_cost,
            "ddl {ddl_cost} should beat sdl {sdl_cost}"
        );
    }

    #[test]
    fn planned_trees_execute_correctly() {
        use ddl_kernels::naive_dft;
        use ddl_num::relative_rms_error;
        for cfg in [
            PlannerConfig::sdl_analytical(),
            PlannerConfig::ddl_analytical(),
        ] {
            let out = try_plan_dft(1 << 10, &cfg).unwrap();
            let plan = DftPlan::new(out.tree, Direction::Forward).unwrap();
            let x: Vec<Complex64> = (0..1 << 10)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64).cos()))
                .collect();
            let mut y = vec![Complex64::ZERO; 1 << 10];
            plan.try_execute(&x, &mut y).unwrap();
            let want = naive_dft(&x, Direction::Forward);
            assert!(relative_rms_error(&y, &want) < 1e-10);
        }
    }

    #[test]
    fn wht_plans_are_valid_and_correct() {
        use ddl_kernels::naive_wht;
        for cfg in [
            PlannerConfig::sdl_analytical(),
            PlannerConfig::ddl_analytical(),
        ] {
            let out = try_plan_wht(1 << 10, &cfg).unwrap();
            assert_eq!(out.tree.size(), 1 << 10);
            let plan = WhtPlan::new(out.tree).unwrap();
            let x: Vec<f64> = (0..1 << 10).map(|i| (i as f64 * 0.1).sin()).collect();
            let mut data = x.clone();
            plan.try_execute(&mut data).unwrap();
            let want = naive_wht(&x);
            for j in 0..1 << 10 {
                assert!((data[j] - want[j]).abs() < 1e-7 * want[j].abs().max(1.0));
            }
        }
    }

    #[test]
    fn wht_ddl_reorganizes_above_cache() {
        // WHT points are 8 bytes: model with the wider geometry.
        let model = CacheModel::from_geometry(512 * 1024, 64, 8);
        let cfg = PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::Analytical(model),
            max_leaf: MAX_LEAF_WHT,
            cache_points: model.capacity_points,
        };
        // For the in-place WHT a reorganization costs two strided passes
        // (gather + scatter), so it only pays once a subtree would
        // otherwise run >= 2 pathological strided stages — which needs
        // n >> C (here 2^24 points vs C = 2^16 points).
        let out = try_plan_wht(1 << 24, &cfg).unwrap();
        assert!(out.tree.reorg_count() > 0, "tree: {}", out.tree);
        let small = try_plan_wht(1 << 12, &cfg).unwrap();
        assert_eq!(small.tree.reorg_count(), 0);
    }

    #[test]
    fn non_pow2_sizes_plan_and_run() {
        use ddl_kernels::naive_dft;
        use ddl_num::relative_rms_error;
        let cfg = PlannerConfig::ddl_analytical();
        for n in [60usize, 100, 360, 1000] {
            let out = try_plan_dft(n, &cfg).unwrap();
            assert_eq!(out.tree.size(), n);
            let plan = DftPlan::new(out.tree, Direction::Forward).unwrap();
            let x: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64 * 0.01, -(i as f64) * 0.02))
                .collect();
            let mut y = vec![Complex64::ZERO; n];
            plan.try_execute(&x, &mut y).unwrap();
            assert!(relative_rms_error(&y, &naive_dft(&x, Direction::Forward)) < 1e-9);
        }
    }

    #[test]
    fn prime_size_falls_back_to_naive_leaf() {
        let cfg = PlannerConfig::ddl_analytical();
        let out = try_plan_dft(97, &cfg).unwrap();
        assert_eq!(out.tree, Tree::leaf(97));
    }

    #[test]
    fn search_space_is_polynomial() {
        let cfg = PlannerConfig::ddl_analytical();
        let out = try_plan_dft(1 << 20, &cfg).unwrap();
        // (size, stride) states: at most ~p^2/2 for p = 20, plus strides
        // introduced by reorgs
        assert!(
            out.states <= 20 * 21,
            "state explosion: {} states",
            out.states
        );
        assert!(out.candidates <= 20 * out.states.max(1));
    }

    #[test]
    fn measured_backend_runs_for_small_sizes() {
        let cfg = PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::Measured {
                min_secs: 1e-5,
                min_reps: 1,
            },
            max_leaf: 8,
            cache_points: 1 << 15,
        };
        let out = try_plan_dft(64, &cfg).unwrap();
        assert_eq!(out.tree.size(), 64);
        assert!(out.cost > 0.0);
    }

    #[test]
    fn sweep_matches_individual_planning() {
        let cfg = PlannerConfig::ddl_analytical();
        let sweep = try_plan_dft_sweep(1 << 12, &cfg).unwrap();
        assert_eq!(sweep.len(), 12);
        for (n, outcome) in &sweep {
            let single = try_plan_dft(*n, &cfg).unwrap();
            assert_eq!(
                outcome.cost, single.cost,
                "sweep and single plans disagree at n = {n}"
            );
            assert_eq!(outcome.tree.size(), *n);
        }
    }

    #[test]
    fn wht_sweep_covers_all_sizes() {
        let cfg = PlannerConfig::sdl_analytical();
        let sweep = try_plan_wht_sweep(1 << 10, &cfg).unwrap();
        let sizes: Vec<usize> = sweep.iter().map(|(n, _)| *n).collect();
        assert_eq!(sizes, vec![2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn simulated_backend_prefers_fewer_misses() {
        use ddl_cachesim::CacheConfig;
        // Plan against a tiny simulated cache so the search is fast but
        // the working set still exceeds it.
        let cache = CacheConfig {
            capacity_bytes: 16 * 1024,
            line_bytes: 64,
            associativity: 1,
        };
        let ddl = try_plan_dft(1 << 14, &PlannerConfig::ddl_simulated(cache, 16)).unwrap();
        let sdl = try_plan_dft(1 << 14, &PlannerConfig::sdl_simulated(cache, 16)).unwrap();
        // DP local optimality does not strictly order the two searches
        // (their memoized subtrees differ), but the DDL result should
        // never be meaningfully worse.
        assert!(
            ddl.cost <= sdl.cost * 1.05,
            "DDL cost {} vs SDL {}",
            ddl.cost,
            sdl.cost
        );
        // the chosen trees execute correctly
        use ddl_kernels::naive_dft;
        use ddl_num::relative_rms_error;
        let plan = DftPlan::new(ddl.tree, Direction::Forward).unwrap();
        let x: Vec<Complex64> = (0..1 << 14)
            .map(|i| Complex64::new((i as f64 * 0.01).sin(), 0.5))
            .collect();
        let mut y = vec![Complex64::ZERO; 1 << 14];
        plan.try_execute(&x, &mut y).unwrap();
        assert!(relative_rms_error(&y, &naive_dft(&x, Direction::Forward)) < 1e-9);
    }

    #[test]
    fn sdl_memoizes_by_size_only() {
        let cfg = PlannerConfig::sdl_analytical();
        let out = try_plan_dft(1 << 16, &cfg).unwrap();
        // every memo key has stride 1
        assert!(out.states <= 17, "SDL states: {}", out.states);
    }

    #[test]
    fn subtree_timers_reject_a_view_span_that_overflows() {
        let tree = Tree::split(Tree::leaf(4), Tree::leaf(4));
        let stride = usize::MAX / 2;
        for result in [
            time_dft_tree(&tree, stride, 0.0, 1),
            time_wht_tree(&tree, stride, 0.0, 1),
        ] {
            assert!(
                matches!(result, Err(DdlError::InvalidStride { .. })),
                "{result:?}"
            );
        }
    }
}
