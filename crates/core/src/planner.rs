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
//! Under the host model ([`CacheModel::host`], the model of
//! [`PlannerConfig::ddl_analytical`]) a state is *(size, read stride,
//! write stride)*: a subtree's cost depends on where it writes as much
//! as on where it reads, and each child is priced at the strides it runs
//! at. The paper applies DDL to transforms at least the cache size; on a
//! two-level host that rule is applied at each level. A transform whose
//! footprint (input, output and scratch,
//! [`crate::model::HostFit::dft_footprint`]) fits the host's L2 is planned
//! without reorganization: nothing it touches leaves L2, and at 2^12 and
//! 2^14 points the clock finds its reorganized trees no faster, while a
//! reorganizing root holds `n` more scratch points (EXPERIMENTS.md). In
//! a transform that outgrows L2, a reorganization is considered at every
//! node whose footprint exceeds the host's L1, in points of the kind
//! being planned (16-byte DFT, 8-byte WHT points): a 1,024-point DFT
//! node, whose input, output and scratch fill L1 exactly, runs as
//! planned. The other backends price a tree as a root that writes at
//! unit stride and keep the paper's `size · stride` rule against
//! [`PlannerConfig::cache_points`].
//!
//! # Left children
//!
//! Under the host model a split's left child is at most the largest
//! codelet ([`ddl_kernels::MAX_LEAF_DFT`], [`ddl_kernels::MAX_LEAF_WHT`]):
//! the search covers the right-expanded trees of the paper's Fig. 4 and
//! of codelet-based planners, `ctddl(64,ct(16,64))` and the like. A left
//! child that is a large subtree reruns itself once per call over a
//! strided view whose lines and pages come back only with the parent's
//! next call, which the fitted leaf batches do not measure: the model
//! priced `ctddl(ct(64,16),64)` at 2^16 below every radix tree while the
//! clock put it 10–20% behind them (EXPERIMENTS.md). The other backends
//! keep the paper's full search.
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
use crate::model::{CacheModel, HostFit};
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
    /// or larger than the cache size"). The host model applies the rule
    /// at each of the host's levels instead, in points of the kind being
    /// planned, and does not read this field (module docs).
    pub cache_points: usize,
}

impl PlannerConfig {
    /// DDL with the host model ([`CacheModel::host`]) — deterministic:
    /// the fitted costs are committed data, so planning reads no clock
    /// and no file. Reorganization is considered at nodes whose
    /// footprint exceeds the host's L1 (module docs). `cache_points`
    /// holds that L1 in DFT points; the host model's rule does not read
    /// it.
    pub fn ddl_analytical() -> Self {
        let model = CacheModel::host();
        PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::Analytical(model),
            max_leaf: MAX_LEAF_DFT,
            cache_points: model.capacity_points,
        }
    }

    /// DDL with the paper's model ([`CacheModel::paper_default`]) and
    /// its rule, a reorganization at nodes with `size * stride >=
    /// cache_points`: the configuration whose threshold moves the plan
    /// at every size, so the tests that sweep `cache_points` plan with
    /// it (the host model's rule does not read it).
    pub fn ddl_paper_analytical() -> Self {
        let model = CacheModel::paper_default();
        PlannerConfig {
            strategy: Strategy::Ddl,
            backend: CostBackend::Analytical(model),
            max_leaf: MAX_LEAF_DFT,
            cache_points: model.capacity_points,
        }
    }

    /// SDL with the host model.
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
        outgrows_l2: true,
        memo: HashMap::new(),
        candidates: 0,
        sink,
    };
    let (cost, tree) = search.root(n);
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
        outgrows_l2: true,
        memo: HashMap::new(),
        candidates: 0,
        sink,
    };
    let (cost, tree) = search.root(n);
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
        outgrows_l2: true,
        memo: HashMap::new(),
        candidates: 0,
        sink,
    };
    search.root(max_n);
    let mut out = Vec::new();
    let mut n = 2usize;
    while n <= max_n {
        // all unit-stride states for smaller powers were filled during
        // the max_n search; compute any stragglers explicitly
        let (cost, tree) = search.root(n);
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

/// A planner state: size, `[rs, ws, ro, wo]` and the L2 gate
/// ([`Search::state`]).
type State = (usize, [usize; 4], bool);

struct Search<'s, S: Sink> {
    cfg: PlannerConfig,
    kind: Kind,
    /// Whether the transform being planned outgrows the host's L2, so
    /// that reorganization is considered in it at all (module docs); true
    /// off the host model.
    outgrows_l2: bool,
    memo: HashMap<State, (f64, Tree)>,
    candidates: usize,
    sink: &'s mut S,
}

impl<S: Sink> Search<'_, S> {
    /// The host model's fit, when the backend prices with it.
    fn host(&self) -> Option<&'static HostFit> {
        match self.cfg.backend {
            CostBackend::Analytical(model) => model.fit,
            _ => None,
        }
    }

    /// Optimal (cost, tree) for a whole `n`-point transform at unit
    /// strides, with the L2 gate (module docs) set for it.
    fn root(&mut self, n: usize) -> (f64, Tree) {
        self.outgrows_l2 = match (self.host(), self.kind) {
            (Some(fit), Kind::Dft) => {
                fit.dft_footprint(n, 1, 1) > fit.level(1, crate::DFT_POINT_BYTES).capacity
            }
            (Some(fit), Kind::Wht) => {
                fit.wht_footprint(n, 1) > fit.level(1, crate::WHT_POINT_BYTES).capacity
            }
            (None, _) => true,
        };
        self.best(n, [1, 1, 1, 1])
    }

    /// The state of an `n`-point subtree whose calls read at `rs` and
    /// write at `ws`, successive calls starting `ro` and `wo` apart.
    ///
    /// Under `Strategy::Sdl` both strides are forced to 1, reproducing
    /// the size-only search of the prior packages; backends other than
    /// the host model price every tree as a root that writes at unit
    /// stride, so they key by `(n, rs)` alone.
    fn state(&self, n: usize, [rs, ws, ro, wo]: [usize; 4]) -> State {
        let point_bytes = match self.kind {
            Kind::Dft => crate::DFT_POINT_BYTES,
            Kind::Wht => crate::WHT_POINT_BYTES,
        };
        match (self.cfg.strategy, self.host()) {
            (Strategy::Sdl, _) => (n, [1, 1, 1, 1], true),
            (Strategy::Ddl, None) => (n, [rs, 1, 1, 1], true),
            (Strategy::Ddl, Some(fit)) => (
                n,
                [
                    rs,
                    ws,
                    fit.offset_key(point_bytes, ro),
                    fit.offset_key(point_bytes, wo),
                ],
                self.outgrows_l2,
            ),
        }
    }

    /// Optimal (cost, tree) for an `n`-point transform in the context
    /// `[rs, ws, ro, wo]` ([`Search::state`]).
    fn best(&mut self, n: usize, ctx: [usize; 4]) -> (f64, Tree) {
        let key = self.state(n, ctx);
        let ctx = key.1;
        let [stride, ws, _, _] = ctx;
        if let Some(hit) = self.memo.get(&key) {
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
            let cost = this.price(&tree, ctx);
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
            if self.cfg.strategy == Strategy::Ddl && stride > 1 && self.outgrows(n, stride, ws) {
                consider(self, Tree::leaf_ddl(n));
            }
        }

        // Split candidates, from memoized optimal children. Under the
        // host model a left child is at most a codelet's size (module
        // docs, *Left children*).
        let left_cap = if self.host().is_some() { max_leaf } else { n };
        for (n1, n2) in factor_pairs(n, 2)
            .into_iter()
            .filter(|&(n1, _)| n1 <= left_cap)
        {
            // Natural-stride candidate: children per the executor's stride
            // propagation.
            // (Stage 1's calls start `stride` apart in the input, stage
            // 2's `ws` apart in the output.)
            let (left, right) = match self.kind {
                // out-of-place: stage 1 writes the intermediate buffer at
                // stride n2, stage 2 reads it at unit stride and writes
                // the node's output at n1 * ws
                Kind::Dft => (
                    self.best(n1, [n2 * stride, n2, stride, 1]),
                    self.best(n2, [1, n1 * ws, 1, ws]),
                ),
                // in place: stage A keeps the view's stride
                Kind::Wht => (
                    self.best(n1, [n2 * stride, 1, stride, 1]),
                    self.best(n2, [stride, 1, ctx[2], 1]),
                ),
            };
            let (left, right) = (left.1, right.1);
            consider(self, Tree::split(left.clone(), right.clone()));

            // Under the host model a WHT stage B of plain leaves runs in
            // lane batches, which the leaf-at-a-time left state does not
            // price: offer the plain leaf whenever it would batch.
            if self.kind == Kind::Wht
                && self.host().is_some()
                && n1 <= max_leaf
                && !matches!(left, Tree::Leaf { reorg: false, .. })
                && crate::wht::lane_batched_shape(stride, n2, true, n1)
            {
                consider(self, Tree::split(Tree::leaf(n1), right.clone()));
            }

            // Reorganized candidate (`ctddl`).
            if self.ddl_applicable(n, stride, ws) {
                match self.kind {
                    Kind::Dft => {
                        // The DFT reorganization changes the node's
                        // intermediate layout (contiguous stage-1 writes +
                        // tiled transpose) and, untraced, stores stage 2
                        // contiguously too; children read exactly as in
                        // the natural candidate.
                        let (_, left) = self.best(n1, [n2 * stride, 1, stride, 1]);
                        let (_, right) = self.best(n2, [1, 1, 1, 1]);
                        consider(self, Tree::split_ddl(left, right));
                    }
                    Kind::Wht => {
                        // The in-place WHT reorganization compacts the
                        // node's view to unit stride: children derive
                        // their strides from 1.
                        let (_, left) = self.best(n1, [n2, 1, 1, 1]);
                        let (_, right) = self.best(n2, [1, 1, 1, 1]);
                        consider(self, Tree::split_ddl(left, right));
                    }
                }
            }
        }

        let result = best.unwrap_or_else(|| {
            // No factorization and too big for a codelet (e.g. a large
            // prime): fall back to a naive leaf.
            let tree = Tree::leaf(n);
            let cost = self.price(&tree, ctx);
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
        self.memo.insert(key, result.clone());
        result
    }

    /// Whether a node of `n` points read at `stride` and written at `ws`
    /// outgrows the cache: under the host model, in a transform that
    /// outgrows L2, its footprint (module docs) exceeds the host's L1 in
    /// points of the kind being planned; otherwise `n · stride` reaches
    /// `cache_points` (the paper's "equal to or larger than the cache
    /// size").
    fn outgrows(&self, n: usize, stride: usize, ws: usize) -> bool {
        match self.host() {
            Some(fit) => {
                let (footprint, point_bytes) = match self.kind {
                    Kind::Dft => (fit.dft_footprint(n, stride, ws), crate::DFT_POINT_BYTES),
                    Kind::Wht => (fit.wht_footprint(n, stride), crate::WHT_POINT_BYTES),
                };
                self.outgrows_l2 && footprint > fit.level(0, point_bytes).capacity
            }
            None => n.saturating_mul(stride) >= self.cfg.cache_points,
        }
    }

    /// Whether a reorganization candidate is considered at a split of
    /// `(n, stride, ws)`. Per the paper (Section IV-B), only nodes whose
    /// working set reaches the cache size are candidates. The DFT's
    /// between-stage reorganization is meaningful even at unit input
    /// stride (the intermediate writes are what it fixes); the in-place
    /// WHT compaction needs a strided view to act on.
    fn ddl_applicable(&self, n: usize, stride: usize, ws: usize) -> bool {
        self.cfg.strategy == Strategy::Ddl
            && self.outgrows(n, stride, ws)
            && (self.kind == Kind::Dft || stride > 1)
    }

    fn price(&mut self, tree: &Tree, ctx: [usize; 4]) -> f64 {
        let stride = ctx[0];
        match self.cfg.backend {
            CostBackend::Analytical(model) => match self.kind {
                Kind::Dft => model.dft_cost_at(tree, ctx).total_ns(),
                Kind::Wht => model.wht_cost_at(tree, stride, ctx[2]).total_ns(),
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
        let model = CacheModel::host();
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
        let cfg = PlannerConfig::ddl_paper_analytical();
        let out = try_plan_dft(1 << 20, &cfg).unwrap();
        // (size, stride) states: at most ~p^2/2 for p = 20, plus strides
        // introduced by reorgs
        assert!(
            out.states <= 20 * 21,
            "state explosion: {} states",
            out.states
        );
        assert!(out.candidates <= 20 * out.states.max(1));
        // The host model's states add a write stride and two offset
        // classes (module docs): at most ~p^2/2 strides, times 4.
        let out = try_plan_dft(1 << 20, &PlannerConfig::ddl_analytical()).unwrap();
        assert!(
            out.states <= 4 * 20 * 21,
            "state explosion: {} states",
            out.states
        );
        assert!(out.candidates <= 20 * out.states.max(1));
    }

    #[test]
    fn host_model_plans_are_pinned() {
        // The trees the committed fit plans (re-pin after a refit, with
        // results/table1*.txt regenerated).
        let cfg = PlannerConfig::ddl_analytical();
        let dft = |n: usize| try_plan_dft(n, &cfg).unwrap().tree.to_string();
        assert_eq!(dft(1 << 12), "ct(64,64)");
        assert_eq!(dft(1 << 16), "ctddl(64,ct(64,16))");
        assert_eq!(dft(1 << 18), "ctddl(64,ctddl(64,64))");
        assert_eq!(dft(1 << 20), "ctddl(64,ctddl(32,ct(8,64)))");
        // a transform that fits L2 is planned without reorganization
        assert_eq!(try_plan_dft(1 << 14, &cfg).unwrap().tree.reorg_count(), 0);
        let wht = crate::grammar::print_wht(&try_plan_wht(1 << 20, &cfg).unwrap().tree);
        assert_eq!(
            wht,
            "split(4,split(8,split(8,split(8,split(8,split(8,8))))))"
        );
    }

    #[test]
    fn host_model_reorganizes_where_a_node_outgrows_l1_of_its_kind() {
        fn search(kind: Kind, sink: &mut NullSink) -> Search<'_, NullSink> {
            Search {
                cfg: PlannerConfig::ddl_analytical(),
                kind,
                outgrows_l2: true,
                memo: HashMap::new(),
                candidates: 0,
                sink,
            }
        }
        let fit = HostFit::committed();
        let (mut sink_a, mut sink_b) = (NullSink, NullSink);
        let dft_l1 = fit.level(0, crate::DFT_POINT_BYTES).capacity;
        let wht_l1 = fit.level(0, crate::WHT_POINT_BYTES).capacity;
        assert_eq!(wht_l1, 2 * dft_l1);
        // a unit-stride WHT node of more than L1's DFT points but fewer
        // than its WHT points fits L1: not a candidate
        let n = (dft_l1 + wht_l1) / 2;
        let wht = search(Kind::Wht, &mut sink_a);
        assert!(!wht.outgrows(n, 1, 1));
        assert!(!wht.outgrows(wht_l1, 1, 1));
        assert!(wht.outgrows(wht_l1 + 1, 1, 1));
        // a DFT node's footprint is input, output and scratch
        let dft = search(Kind::Dft, &mut sink_b);
        assert!(!dft.outgrows(dft_l1 / 3, 1, 1));
        assert!(dft.outgrows(dft_l1 / 3 + 1, 1, 1));
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
