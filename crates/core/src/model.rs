//! The analytical cache cost model.
//!
//! Section III-B of the paper analyzes the cache behaviour of a leaf node
//! `(n, s)` on a direct-mapped cache of `C` points with lines of `B`
//! points:
//!
//! * **Case I / II** (`n·s <= C`): only compulsory misses; the batch of
//!   `s` successive sub-DFTs covers a contiguous `n·s`-point region once,
//!   so each point costs `1/B` of a miss, and successive DFTs get spatial
//!   reuse.
//! * **Case III** (`n·s > C`, power-of-two strides): the `n` points of one
//!   DFT fold onto only `C / max(s, B)` line slots; when that is fewer
//!   than `n`, accesses conflict within a single DFT and all spatial reuse
//!   across successive DFTs is lost ("cache pollution") — effectively
//!   every access misses.
//!
//! [`CacheModel::paper_default`] turns this into a per-point cost
//! estimate with hand-set constants, for the paper's 512 KB
//! direct-mapped machine. Paper reproduction asks for it by name.
//!
//! # The host model
//!
//! [`CacheModel::host`] is the model the analytical planner
//! ([`crate::planner::PlannerConfig::ddl_analytical`]) uses. It carries a
//! [`HostFit`]: this host's L1 and L2 (capacity, line size and ways, in
//! bytes, converted to points of each transform kind) and per-point costs
//! that `bench_suite fit` measured once on it. The fit is committed as a
//! `fit` section of a `ddl-report` record (`crates/core/data/host-fit.json`)
//! and parsed once from the binary, so pricing reads no clock and no file.
//!
//! The host model applies the Case rule at each level. A batch of leaves
//! of `n` points at stride `s` covers `n·s` points; one leaf's points
//! fall on `lines` lines, and a `ways`-way level of `C` points with
//! `B`-point lines offers them `slots = max(ways, C/max(s, B))` line
//! slots (a power-of-two stride reaches only some sets). The stream
//! *conflicts* at a level when `lines > slots` (Case III there: each
//! access misses, and successive leaves lose their reuse). It is
//! *paged* when the stride reaches a page, so each point of a leaf sits
//! on its own page. Its **stride class** is
//!
//! * 0 at unit stride;
//! * 1 when the batch fits L2 (`n·s ≤ C_L2`), is not paged and does not
//!   conflict in L1: successive leaves reuse each line from L1;
//! * 2 when it fits L2 and is not paged but conflicts in L1: every
//!   access goes to L2;
//! * 3 when it fits L2 and is paged;
//! * 4 when it outgrows L2 without conflicting in L1: each line streams
//!   from memory once;
//! * 5 when it outgrows L2 and conflicts in L1, but not in L2;
//! * 6 when it conflicts in L2 too: every access goes to memory;
//! * 7 and 8 when successive calls of the batch start a line or more
//!   apart (the calls of a subtree under a strided parent): no line is
//!   shared between neighbouring calls, and a line's next point comes
//!   only with the parent's next call. 7 when the batch fits L2, 8 when
//!   it outgrows it.
//!
//! A leaf costs its fitted ns/point for (kind, size, read class, write
//! class). Twiddle and transpose passes cost their fitted ns/point at the
//! level that holds their `2n`-point working set (L1, L2 or memory). The
//! model prices the schedule that runs ([`crate::dft`], [`crate::wht`]):
//! each child at the read *and* write stride it runs at; a reorganizing
//! DFT split's stage 1 and stage 2 at unit write stride, plus two tiled
//! transposes (between the stages and into the output); a WHT stage B
//! that runs in lane batches at its lane-batch cost.

/// Predicted cost split along the paper's Eq. (2)/(3) terms, the
/// analytical mirror of [`crate::obs::StageBreakdown`]: `leaf_ns` is the
/// recursive `T_left`/`T_right` payload, `twiddle_ns` the `T_tw` passes,
/// `reorg_ns` the `Dr` reorganizations. Produced per point by the node
/// cost recursion and per transform by [`CacheModel::dft_stage_cost_ns`]
/// / [`CacheModel::wht_stage_cost_ns`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageCost {
    /// Leaf codelet cost in nanoseconds.
    pub leaf_ns: f64,
    /// Twiddle pass cost in nanoseconds (zero for the WHT).
    pub twiddle_ns: f64,
    /// Reorganization (`Dr`) cost in nanoseconds.
    pub reorg_ns: f64,
}

impl StageCost {
    /// Sum of the three stage terms.
    pub fn total_ns(&self) -> f64 {
        self.leaf_ns + self.twiddle_ns + self.reorg_ns
    }

    fn add(&mut self, other: StageCost) {
        self.leaf_ns += other.leaf_ns;
        self.twiddle_ns += other.twiddle_ns;
        self.reorg_ns += other.reorg_ns;
    }

    fn scaled(&self, by: f64) -> StageCost {
        StageCost {
            leaf_ns: self.leaf_ns * by,
            twiddle_ns: self.twiddle_ns * by,
            reorg_ns: self.reorg_ns * by,
        }
    }
}

/// Analytical cost model for factorized-transform execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheModel {
    /// Cache capacity in *points* (`C` in the paper).
    pub capacity_points: usize,
    /// Line size in *points* (`B` in the paper).
    pub line_points: usize,
    /// Cost of one cache miss, in nanoseconds.
    pub miss_penalty_ns: f64,
    /// Arithmetic + issue cost per point per butterfly level, in
    /// nanoseconds (the `alpha * n * log2 n` term).
    pub op_ns: f64,
    /// Per-point cost of a twiddle multiplication pass, in nanoseconds.
    pub twiddle_ns: f64,
    /// Per-point bookkeeping cost of a reorganization pass (besides its
    /// memory traffic), in nanoseconds.
    pub reorg_ns: f64,
    /// The fitted host model; when present it prices every tree and the
    /// fields above are unused (module docs, *The host model*).
    pub fit: Option<&'static HostFit>,
}

impl CacheModel {
    /// The paper's simulated configuration: 512 KB direct-mapped, 64-byte
    /// lines, 16-byte points — `C = 2^15`, `B = 4`.
    pub fn paper_default() -> Self {
        CacheModel {
            capacity_points: 1 << 15,
            line_points: 4,
            miss_penalty_ns: 60.0,
            op_ns: 1.0,
            twiddle_ns: 1.5,
            reorg_ns: 0.5,
            fit: None,
        }
    }

    /// The model fitted on this host (module docs, *The host model*):
    /// the committed [`HostFit`], with the paper constants for its unused
    /// fields and its L1 as `capacity_points`/`line_points` in DFT points.
    pub fn host() -> Self {
        let fit = HostFit::committed();
        let l1 = fit.level(0, crate::DFT_POINT_BYTES);
        CacheModel {
            capacity_points: l1.capacity,
            line_points: l1.line,
            fit: Some(fit),
            ..CacheModel::paper_default()
        }
    }

    /// A model scaled for `point_bytes`-sized elements on a cache of
    /// `capacity_bytes` with `line_bytes` lines.
    pub fn from_geometry(capacity_bytes: usize, line_bytes: usize, point_bytes: usize) -> Self {
        CacheModel {
            capacity_points: capacity_bytes / point_bytes,
            line_points: (line_bytes / point_bytes).max(1),
            ..CacheModel::paper_default()
        }
    }

    /// Expected misses *per point* for a batch of sub-transforms of size
    /// `n` at stride `s` (the paper's leaf model).
    pub fn leaf_miss_per_point(&self, n: usize, s: usize) -> f64 {
        let c = self.capacity_points;
        let b = self.line_points;
        if n.saturating_mul(s) <= c {
            // Cases I and II: compulsory only, amortized over the line.
            1.0 / b as f64
        } else {
            // Case III: line slots available to one sub-transform.
            let slots = (c / s.max(b)).max(1);
            if n > slots {
                // conflicts within a DFT + pollution across DFTs: every
                // access misses
                1.0
            } else {
                // region exceeds the cache but a single DFT's points fit
                // distinct slots: compulsory per pass, no reuse across
                // successive DFTs when s >= B
                if s >= b {
                    1.0
                } else {
                    1.0 / (b / s.max(1)) as f64
                }
            }
        }
    }

    /// Estimated cost in nanoseconds *per point* of executing a leaf of
    /// size `n` with reads and writes both at stride `s` (the in-place
    /// case): arithmetic + predicted miss traffic.
    pub fn leaf_cost_per_point(&self, n: usize, s: usize) -> f64 {
        self.leaf_cost_rw(n, s, s)
    }

    /// Leaf cost with distinct read and write strides — the out-of-place
    /// case, where a stage-1 leaf reads the input at one stride and
    /// writes the intermediate buffer at another.
    pub fn leaf_cost_rw(&self, n: usize, read_stride: usize, write_stride: usize) -> f64 {
        let levels = (n.max(2) as f64).log2();
        let mem = (self.leaf_miss_per_point(n, read_stride)
            + self.leaf_miss_per_point(n, write_stride))
            * self.miss_penalty_ns;
        self.op_ns * levels + mem
    }

    /// Per-point cost of the tiled inter-stage transpose a reorganized
    /// split performs (`Dr` of Eq. (2)): each point moves once, with both
    /// sides blocked so lines are touched `O(1)` times.
    pub fn transpose_cost_per_point(&self) -> f64 {
        self.reorg_ns + (2.0 / self.line_points as f64) * self.miss_penalty_ns
    }

    /// Estimated per-point cost of the twiddle pass of a node of size `n`
    /// (contiguous read-modify-write).
    pub fn twiddle_cost_per_point(&self, n: usize) -> f64 {
        // the intermediate buffer was just written by stage 1; it is
        // resident when n fits in cache, streamed otherwise
        let miss = if n <= self.capacity_points {
            0.0
        } else {
            1.0 / self.line_points as f64
        };
        self.twiddle_ns + 2.0 * miss * self.miss_penalty_ns
    }

    /// Estimated per-point cost of a reorganization `Dr(n, s -> 1)`:
    /// one strided read + one contiguous write per point (the paper prices
    /// `Dr` as `O(n/L)` line transfers; at pathological strides the reads
    /// miss every time).
    pub fn reorg_cost_per_point(&self, n: usize, s: usize) -> f64 {
        let read_miss = self.leaf_miss_per_point(n, s);
        let write_miss = 1.0 / self.line_points as f64;
        self.reorg_ns + (read_miss + write_miss) * self.miss_penalty_ns
    }

    /// Estimated total cost (nanoseconds) of executing a whole DFT
    /// factorization tree at root input stride `root_stride`, composed per
    /// the paper's Eq. (2)/(3).
    ///
    /// Stride propagation matches the out-of-place executor in
    /// [`crate::dft`]: the left child reads at `n2 * read_stride` and
    /// writes the intermediate buffer at stride `n2` (or unit stride when
    /// the node reorganizes, which then pays the tiled inter-stage
    /// transpose instead); the right child reads at unit stride and
    /// writes the node's output at `n1 * write_stride`.
    pub fn tree_cost_ns(&self, tree: &crate::tree::Tree, root_stride: usize) -> f64 {
        self.dft_stage_cost_ns(tree, root_stride).total_ns()
    }

    /// [`CacheModel::tree_cost_ns`] split into the Eq. (2)/(3) stage
    /// terms: the per-stage *predictions* a calibration run compares
    /// against the measured [`crate::obs::StageBreakdown`]. The terms
    /// sum to `tree_cost_ns`.
    pub fn dft_stage_cost_ns(&self, tree: &crate::tree::Tree, root_stride: usize) -> StageCost {
        self.dft_cost_at(tree, [root_stride, 1, 1, 1])
    }

    /// [`CacheModel::dft_stage_cost_ns`] of a subtree that reads at `rs`
    /// and writes its outputs at `ws`, its successive calls starting `ro`
    /// and `wo` points apart: the context a planner state prices a
    /// candidate in. The paper model prices every tree as a root that
    /// writes at unit stride, so it reads only `rs`.
    pub fn dft_cost_at(&self, tree: &crate::tree::Tree, ctx: [usize; 4]) -> StageCost {
        let per_point = match self.fit {
            Some(fit) => fit.dft_cost_in(tree, ctx),
            None => self.dft_node_cost(tree, ctx[0], 1),
        };
        per_point.scaled(tree.size() as f64)
    }

    /// The WHT counterpart of [`CacheModel::dft_cost_at`]: a subtree on a
    /// view of `stride` whose successive calls start `offset` apart.
    pub fn wht_cost_at(&self, tree: &crate::tree::Tree, stride: usize, offset: usize) -> StageCost {
        let per_point = match self.fit {
            Some(fit) => fit.wht_cost_in(tree, stride, offset),
            None => self.wht_node_cost(tree, stride),
        };
        per_point.scaled(tree.size() as f64)
    }

    /// Per-point stage costs of a DFT subtree reading at `rs` and writing
    /// its outputs at `ws`.
    fn dft_node_cost(&self, tree: &crate::tree::Tree, rs: usize, ws: usize) -> StageCost {
        use crate::tree::Tree;
        let n = tree.size();
        let mut cost = StageCost::default();
        match tree {
            Tree::Leaf { reorg, .. } => {
                if *reorg && rs > 1 {
                    // gather to unit stride, then the codelet runs on the
                    // compacted copy
                    cost.reorg_ns += self.reorg_cost_per_point(n, rs);
                    cost.leaf_ns += self.leaf_cost_rw(n, 1, ws);
                } else {
                    cost.leaf_ns += self.leaf_cost_rw(n, rs, ws);
                }
            }
            Tree::Split { left, right, reorg } => {
                let n1 = left.size();
                let n2 = right.size();
                cost.twiddle_ns += self.twiddle_cost_per_point(n);
                if *reorg {
                    // stage-1 writes contiguous, then the tiled transpose
                    cost.add(self.dft_node_cost(left, n2 * rs, 1));
                    cost.reorg_ns += self.transpose_cost_per_point();
                } else {
                    // stage-1 writes the intermediate buffer interleaved
                    cost.add(self.dft_node_cost(left, n2 * rs, n2));
                }
                // stage 2 reads unit stride and writes the output view
                cost.add(self.dft_node_cost(right, 1, n1 * ws));
            }
        }
        cost
    }

    /// Estimated total cost (nanoseconds) of executing a WHT factorization
    /// tree at root stride `root_stride`.
    ///
    /// The WHT executor is *in place*, so the right child inherits the
    /// parent's stride (exactly the paper's Fig. 4 convention) and a
    /// reorganization pays both a gather and a scatter-back.
    pub fn wht_tree_cost_ns(&self, tree: &crate::tree::Tree, root_stride: usize) -> f64 {
        self.wht_stage_cost_ns(tree, root_stride).total_ns()
    }

    /// [`CacheModel::wht_tree_cost_ns`] split into stage terms (the WHT
    /// has no twiddle term, so `twiddle_ns` is always zero). The terms
    /// sum to `wht_tree_cost_ns`.
    pub fn wht_stage_cost_ns(&self, tree: &crate::tree::Tree, root_stride: usize) -> StageCost {
        self.wht_cost_at(tree, root_stride, 1)
    }

    fn wht_node_cost(&self, tree: &crate::tree::Tree, stride: usize) -> StageCost {
        use crate::tree::Tree;
        let n = tree.size();
        let mut cost = StageCost::default();
        let mut stride = stride;
        if tree.reorg() && stride > 1 {
            // gather + scatter back
            cost.reorg_ns += 2.0 * self.reorg_cost_per_point(n, stride);
            stride = 1;
        }
        match tree {
            Tree::Leaf { .. } => cost.leaf_ns += self.leaf_cost_per_point(n, stride),
            Tree::Split { left, right, .. } => {
                let n2 = right.size();
                cost.add(self.wht_node_cost(right, stride));
                cost.add(self.wht_node_cost(left, n2 * stride));
            }
        }
        cost
    }
}

/// Stride classes of the host model (module docs).
pub const STRIDE_CLASSES: usize = 9;
/// Where a pass's working set resides: L1, L2 or memory.
pub const RESIDENCY_LEVELS: usize = 3;

/// One cache level's geometry, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

/// A cache level in points of one transform kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelPoints {
    /// Capacity in points.
    pub capacity: usize,
    /// Line size in points (at least 1).
    pub line: usize,
    /// Associativity.
    pub ways: usize,
}

/// This host's L1 and L2 and the per-point costs `bench_suite fit`
/// measured on it (module docs, *The host model*). Every cost is in
/// nanoseconds per point.
#[derive(Clone, Debug, PartialEq)]
pub struct HostFit {
    /// The CPU the fit was measured on.
    pub cpu: String,
    /// L1 and L2 data caches.
    pub levels: [CacheLevel; 2],
    /// The page size, in bytes.
    pub page_bytes: usize,
    /// DFT leaf cost by `[log2 n - 1][read class][write class]`, for
    /// leaves of 2, 4, …, [`ddl_kernels::MAX_LEAF_DFT`] points.
    pub dft_leaf: Vec<[[f64; STRIDE_CLASSES]; STRIDE_CLASSES]>,
    /// WHT leaf cost (in place, so one stride) by `[log2 n - 1][class]`.
    pub wht_leaf: Vec<[f64; STRIDE_CLASSES]>,
    /// WHT stage-B lane batch by `[log2 n1 - 1][class of its n1 rows]`.
    pub wht_lanes: Vec<[f64; STRIDE_CLASSES]>,
    /// DFT twiddle pass by residency level of its `2n` points.
    pub twiddle: [f64; RESIDENCY_LEVELS],
    /// DFT tiled transpose by residency level of its `2n` points.
    pub transpose: [f64; RESIDENCY_LEVELS],
    /// WHT gather plus scatter-back by residency level of the strided
    /// view's lines.
    pub wht_reorg: [f64; RESIDENCY_LEVELS],
}

/// The committed fit, a `ddl-report` whose one record has a `fit`
/// section (written by `bench_suite fit --out`).
pub const COMMITTED_FIT: &str = include_str!("../data/host-fit.json");

impl HostFit {
    /// The committed fit, parsed once per process.
    pub fn committed() -> &'static HostFit {
        static FIT: std::sync::OnceLock<HostFit> = std::sync::OnceLock::new();
        FIT.get_or_init(|| {
            HostFit::from_report(COMMITTED_FIT)
                // ddl-lint: allow(no-panics): the committed fit is checked by tests and by `bench_suite fit --check`
                .expect("the committed host fit parses")
        })
    }

    /// The fit of the first record with a `fit` section of a `ddl-report`.
    pub fn from_report(text: &str) -> Result<HostFit, ddl_num::DdlError> {
        let report = crate::reports::Report::parse(text)?;
        report
            .plans
            .into_iter()
            .find_map(|p| p.fit)
            .ok_or_else(|| crate::obs::metrics_err("no record carries a fit section".into()))
    }

    /// Checks the shape and the values: both levels are real caches, L2
    /// holds L1, every table is complete and every cost positive.
    pub fn validate(&self) -> Result<(), String> {
        for (i, l) in self.levels.iter().enumerate() {
            if l.capacity_bytes == 0 || l.ways == 0 || !l.line_bytes.is_power_of_two() {
                return Err(format!("level {}: degenerate geometry {l:?}", i + 1));
            }
        }
        if self.levels[1].capacity_bytes < self.levels[0].capacity_bytes {
            return Err("L2 is smaller than L1".into());
        }
        if !self.page_bytes.is_power_of_two() || self.page_bytes < self.levels[0].line_bytes {
            return Err(format!("page of {} bytes", self.page_bytes));
        }
        let leaves = |len: usize, max: usize, what: &str| {
            if len as u32 == max.trailing_zeros() {
                Ok(())
            } else {
                Err(format!(
                    "{what}: {len} rows, want one per leaf size 2..={max}"
                ))
            }
        };
        leaves(self.dft_leaf.len(), ddl_kernels::MAX_LEAF_DFT, "dft_leaf")?;
        leaves(self.wht_leaf.len(), ddl_kernels::MAX_LEAF_WHT, "wht_leaf")?;
        leaves(self.wht_lanes.len(), ddl_kernels::MAX_LEAF_WHT, "wht_lanes")?;
        let costs = self
            .dft_leaf
            .iter()
            .flatten()
            .flatten()
            .chain(self.wht_leaf.iter().flatten())
            .chain(self.wht_lanes.iter().flatten())
            .chain(&self.twiddle)
            .chain(&self.transpose)
            .chain(&self.wht_reorg);
        for c in costs {
            if !(c.is_finite() && *c > 0.0) {
                return Err(format!("cost {c} is not a positive number"));
            }
        }
        Ok(())
    }

    /// Level `i` (0 = L1, 1 = L2) in points of `point_bytes` bytes.
    pub fn level(&self, i: usize, point_bytes: usize) -> LevelPoints {
        let l = self.levels[i];
        LevelPoints {
            capacity: l.capacity_bytes / point_bytes,
            line: (l.line_bytes / point_bytes).max(1),
            ways: l.ways,
        }
    }

    /// The stride class (module docs) of a batch of `n`-point leaves at
    /// `stride` whose successive calls start `offset` points apart, on
    /// points of `point_bytes` bytes.
    pub fn stride_class(
        &self,
        point_bytes: usize,
        n: usize,
        stride: usize,
        offset: usize,
    ) -> usize {
        if stride <= 1 {
            return 0;
        }
        let l1 = self.level(0, point_bytes);
        let beyond_l2 = n.saturating_mul(stride) > self.level(1, point_bytes).capacity;
        if offset >= l1.line && stride >= 2 * l1.line {
            return if beyond_l2 { 8 } else { 7 };
        }
        let conflicts = |i: usize| {
            let l = self.level(i, point_bytes);
            let lines = n.saturating_mul(stride.min(l.line)).div_ceil(l.line);
            let slots = (l.capacity / stride.max(l.line)).max(l.ways);
            lines > slots
        };
        let paged = stride.saturating_mul(point_bytes) >= self.page_bytes;
        match (beyond_l2, conflicts(0), conflicts(1), paged) {
            (false, false, _, false) => 1,
            (false, true, _, false) => 2,
            (false, _, _, true) => 3,
            (true, false, _, _) => 4,
            (true, true, false, _) => 5,
            (true, true, true, _) => 6,
        }
    }

    /// `offset` as the stride classes see it: the L1 line size in points
    /// once it reaches a line (calls share no line), else itself. The
    /// planner keys its states by it.
    pub fn offset_key(&self, point_bytes: usize, offset: usize) -> usize {
        offset.min(self.level(0, point_bytes).line)
    }

    /// The residency level (0 = L1, 1 = L2, 2 = memory) of a working
    /// set of `bytes`.
    pub fn residency(&self, bytes: usize) -> usize {
        self.levels
            .iter()
            .position(|l| bytes <= l.capacity_bytes)
            .unwrap_or(self.levels.len())
    }

    /// The fitted row of a leaf of `n` points: its power-of-two size
    /// class, rounded up, and the factor a naive leaf above the largest
    /// codelet costs on top (its work grows as `n`, not `log n`).
    fn leaf_row<T: Copy>(table: &[T], n: usize) -> (T, f64) {
        let log = ddl_num::ceil_log2(n.max(2)) as usize;
        let row = table[log.min(table.len()) - 1];
        let beyond = (n as f64 / (1usize << table.len()) as f64).max(1.0);
        (row, beyond)
    }

    fn dft_leaf_cost(&self, n: usize, [rs, ws, ro, wo]: [usize; 4]) -> f64 {
        let b = crate::DFT_POINT_BYTES;
        let (row, beyond) = Self::leaf_row(&self.dft_leaf, n);
        row[self.stride_class(b, n, rs, ro)][self.stride_class(b, n, ws, wo)] * beyond
    }

    /// Per-point stage costs of a DFT subtree on the schedule
    /// [`crate::dft`] runs untraced, in the context `[rs, ws, ro, wo]`:
    /// its calls read at stride `rs` and write at `ws`, successive calls
    /// starting `ro` (reads) and `wo` (writes) points apart (a root is
    /// `[rs, 1, 1, 1]`).
    pub fn dft_cost_in(&self, tree: &crate::tree::Tree, ctx: [usize; 4]) -> StageCost {
        use crate::tree::Tree;
        let [rs, ws, _, wo] = ctx;
        let n = tree.size();
        let mut cost = StageCost::default();
        let level = self.residency(2 * n * crate::DFT_POINT_BYTES);
        match tree {
            Tree::Leaf { reorg, .. } => {
                if *reorg && rs > 1 {
                    // gather to unit stride, then the codelet on the copy
                    cost.reorg_ns += self.transpose[level];
                    cost.leaf_ns += self.dft_leaf_cost(n, [1, ws, 1, wo]);
                } else {
                    cost.leaf_ns += self.dft_leaf_cost(n, ctx);
                }
            }
            Tree::Split { left, right, reorg } => {
                let (n1, n2) = (left.size(), right.size());
                cost.twiddle_ns += self.twiddle[level];
                // stage 1's calls start rs apart in the input, stage 2's
                // ws apart in the output
                if *reorg {
                    // stage 1 and stage 2 store contiguously (into t2),
                    // and two tiled transposes move the data: t2 into t
                    // between the stages, t2 into the output after them,
                    // whose stores at a strided output cost what a leaf's
                    // strided stores cost beyond its unit-stride ones
                    cost.add(self.dft_cost_in(left, [n2 * rs, 1, rs, 1]));
                    cost.add(self.dft_cost_in(right, [1, 1, 1, 1]));
                    cost.reorg_ns += 2.0 * self.transpose[level] + self.store_penalty(n, ws, wo);
                } else {
                    // stage 2 reads the intermediate buffer contiguously
                    cost.add(self.dft_cost_in(left, [n2 * rs, n2, rs, 1]));
                    cost.add(self.dft_cost_in(right, [1, n1 * ws, 1, ws]));
                }
            }
        }
        cost
    }

    /// What storing `n` points at stride `ws` (calls `wo` apart) costs
    /// per point beyond unit-stride stores, read off the largest leaf's
    /// row of the fit.
    fn store_penalty(&self, n: usize, ws: usize, wo: usize) -> f64 {
        if ws <= 1 {
            return 0.0;
        }
        let Some(row) = self.dft_leaf.last() else {
            return 0.0;
        };
        let class = self.stride_class(crate::DFT_POINT_BYTES, n, ws, wo.max(ws));
        (row[0][class] - row[0][0]).max(0.0)
    }

    /// Per-point stage costs of a WHT subtree on a view of `stride`
    /// whose successive calls start `offset` points apart (a root's
    /// offset is 1), on the schedule [`crate::wht`] runs untraced (lane
    /// batches included).
    pub fn wht_cost_in(&self, tree: &crate::tree::Tree, stride: usize, offset: usize) -> StageCost {
        use crate::tree::Tree;
        let b = crate::WHT_POINT_BYTES;
        let n = tree.size();
        let mut cost = StageCost::default();
        let (mut stride, mut offset) = (stride, offset);
        if tree.reorg() && stride > 1 {
            let line = self.level(0, b).line;
            let lines_bytes = n.saturating_mul(stride.min(line)) * b;
            cost.reorg_ns += self.wht_reorg[self.residency(lines_bytes)];
            (stride, offset) = (1, 1);
        }
        match tree {
            Tree::Leaf { .. } => {
                let (row, beyond) = Self::leaf_row(&self.wht_leaf, n);
                cost.leaf_ns += row[self.stride_class(b, n, stride, offset)] * beyond;
            }
            Tree::Split { left, right, .. } => {
                let (n1, n2) = (left.size(), right.size());
                cost.add(self.wht_cost_in(right, stride, offset));
                let plain_leaf = matches!(**left, Tree::Leaf { reorg: false, .. });
                if crate::wht::lane_batched_shape(stride, n2, plain_leaf, n1) {
                    let (row, _) = Self::leaf_row(&self.wht_lanes, n1);
                    cost.leaf_ns += row[self.stride_class(b, n1, n2, 1)];
                } else {
                    // stage B's calls start `stride` apart
                    cost.add(self.wht_cost_in(left, n2 * stride, stride));
                }
            }
        }
        cost
    }

    /// Input plus output plus scratch of a DFT node of `n` points read at
    /// `rs` and written at `ws`, in points, counting a strided stream by
    /// the line share it occupies: what the planner compares against its
    /// reorganization threshold.
    pub fn dft_footprint(&self, n: usize, rs: usize, ws: usize) -> usize {
        let line = self.level(0, crate::DFT_POINT_BYTES).line;
        n.saturating_mul(rs.min(line) + ws.min(line) + 1)
    }

    /// The in-place WHT's footprint of `n` points on a view of `stride`,
    /// in points (line share, as [`HostFit::dft_footprint`]).
    pub fn wht_footprint(&self, n: usize, stride: usize) -> usize {
        let line = self.level(0, crate::WHT_POINT_BYTES).line;
        n.saturating_mul(stride.min(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;

    #[test]
    fn small_working_sets_cost_compulsory_only() {
        let m = CacheModel::paper_default();
        assert!((m.leaf_miss_per_point(64, 1) - 0.25).abs() < 1e-12);
        assert!((m.leaf_miss_per_point(64, 4) - 0.25).abs() < 1e-12);
        // n*s = 2^15 exactly at capacity: still case I/II
        assert!((m.leaf_miss_per_point(64, 512) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pathological_stride_misses_every_access() {
        let m = CacheModel::paper_default();
        // n*s = 64 * 2^16 >> C, slots = C/s = 0.5 -> 1 < 64
        assert_eq!(m.leaf_miss_per_point(64, 1 << 16), 1.0);
    }

    #[test]
    fn miss_rate_monotone_in_stride_at_fixed_size() {
        let m = CacheModel::paper_default();
        let n = 64;
        let mut prev = 0.0;
        for log_s in 0..18 {
            let r = m.leaf_miss_per_point(n, 1 << log_s);
            assert!(r >= prev - 1e-12, "stride 2^{log_s}: {r} < {prev}");
            prev = r;
        }
    }

    #[test]
    fn leaf_cost_grows_with_stride_beyond_cache() {
        let m = CacheModel::paper_default();
        let cheap = m.leaf_cost_per_point(64, 1);
        let pricey = m.leaf_cost_per_point(64, 1 << 16);
        assert!(pricey > 2.0 * cheap);
    }

    #[test]
    fn reorg_is_cheaper_than_pathological_leaf_access() {
        // The DDL premise: Dr + unit-stride leaf < strided leaf, once the
        // stride is pathological.
        let m = CacheModel::paper_default();
        let s = 1 << 16;
        let strided = m.leaf_cost_per_point(64, s);
        let reorganized = m.reorg_cost_per_point(64, s) + m.leaf_cost_per_point(64, 1);
        assert!(
            reorganized < strided,
            "reorg {reorganized} should beat strided {strided}"
        );
    }

    #[test]
    fn tree_cost_prefers_ddl_for_large_sizes() {
        // Above the cache size, reorganizing the intermediate layout of a
        // balanced split (stage-1 contiguous writes + tiled transpose)
        // beats the interleaved strided writes of the static layout.
        let m = CacheModel::paper_default();
        let n = 1 << 20; // far above C = 2^15
        let plain = Tree::balanced(n, 8);
        let ddl = plain.clone().with_reorg(true);
        assert!(
            m.tree_cost_ns(&ddl, 1) < m.tree_cost_ns(&plain, 1),
            "ddl {} !< plain {}",
            m.tree_cost_ns(&ddl, 1),
            m.tree_cost_ns(&plain, 1)
        );
    }

    #[test]
    fn leaf_gather_reorg_does_not_pay_by_itself() {
        // A single strided leaf pass is compulsory traffic; gathering it
        // first only adds work. The planner therefore reorganizes at
        // split granularity, not leaf granularity.
        let m = CacheModel::paper_default();
        let sdl = Tree::rightmost(1 << 20, 8);
        let ddl = match sdl.clone() {
            Tree::Split { left, right, .. } => Tree::Split {
                left: Box::new(left.with_reorg(true)),
                right,
                reorg: false,
            },
            t => t,
        };
        assert!(m.tree_cost_ns(&ddl, 1) >= m.tree_cost_ns(&sdl, 1));
    }

    #[test]
    fn tree_cost_indifferent_below_cache() {
        // Below the cache size a reorg only adds cost.
        let m = CacheModel::paper_default();
        let n = 1 << 10;
        let sdl = Tree::rightmost(n, 8);
        let ddl = match sdl.clone() {
            Tree::Split { left, right, .. } => Tree::Split {
                left: Box::new(left.with_reorg(true)),
                right,
                reorg: false,
            },
            t => t,
        };
        assert!(m.tree_cost_ns(&ddl, 1) >= m.tree_cost_ns(&sdl, 1));
    }

    #[test]
    fn stage_costs_sum_to_tree_cost() {
        let m = CacheModel::paper_default();
        for expr in [
            "ct(32, 32)",
            "ctddl(ctddl(8, 8), ct(8, 8))",
            "ct(ddl(8), ct(8, 4))",
        ] {
            let t = crate::grammar::parse(expr).unwrap();
            let stages = m.dft_stage_cost_ns(&t, 1);
            let total = m.tree_cost_ns(&t, 1);
            assert!(
                (stages.total_ns() - total).abs() <= 1e-9 * total.abs().max(1.0),
                "{expr}: {} != {total}",
                stages.total_ns()
            );
            assert!(stages.leaf_ns > 0.0, "{expr}: leaf term missing");
            if t.reorg_count() > 0 {
                assert!(stages.reorg_ns > 0.0, "{expr}: reorg term missing");
            }
        }
        let w = crate::grammar::parse("split(splitddl(32, 32), split(8, 8))").unwrap();
        let stages = m.wht_stage_cost_ns(&w, 1);
        assert!((stages.total_ns() - m.wht_tree_cost_ns(&w, 1)).abs() < 1e-9);
        assert_eq!(stages.twiddle_ns, 0.0, "WHT has no twiddle term");
    }

    #[test]
    fn committed_fit_parses_and_validates() {
        let fit = HostFit::committed();
        assert_eq!(fit.validate(), Ok(()));
        assert!(fit.levels[0].capacity_bytes < fit.levels[1].capacity_bytes);
        let m = CacheModel::host();
        assert_eq!(m.fit, Some(fit));
        assert_eq!(m.capacity_points, fit.levels[0].capacity_bytes / 16);
    }

    /// The host geometry the stride-class examples are worked out on:
    /// 48 KiB 12-way L1, 2 MiB 16-way L2, 64-byte lines.
    fn example_fit() -> HostFit {
        let level = |capacity_bytes, ways| CacheLevel {
            capacity_bytes,
            line_bytes: 64,
            ways,
        };
        HostFit {
            levels: [level(48 << 10, 12), level(2 << 20, 16)],
            page_bytes: 4096,
            ..HostFit::committed().clone()
        }
    }

    #[test]
    fn stride_classes_apply_the_case_rule_at_each_level() {
        let f = example_fit();
        let dft = crate::DFT_POINT_BYTES;
        assert_eq!(f.stride_class(dft, 64, 1, 1), 0);
        // 64 lines into 3072/32 = 96 slots: no conflict
        assert_eq!(f.stride_class(dft, 64, 32, 1), 1);
        // 64 lines into max(12, 3072/64 = 48) slots: Case III in L1
        assert_eq!(f.stride_class(dft, 64, 64, 1), 2);
        // a 16-point leaf fits 3072/64 = 48 slots at the same stride
        assert_eq!(f.stride_class(dft, 16, 64, 1), 1);
        // 1024 points of 16 bytes are 16 KiB: every point on its own page
        assert_eq!(f.stride_class(dft, 64, 1024, 1), 3);
        // 8 lines never conflict in a 12-way L1, but 8 * 32768 points
        // outgrow L2's 131072
        assert_eq!(f.stride_class(dft, 8, 32768, 1), 4);
        // 16 lines fill L2's 16 ways: beyond L2, conflicting in L1 only
        assert_eq!(f.stride_class(dft, 16, 16384, 1), 5);
        // 64 lines into max(16, 131072/4096 = 32) L2 slots
        assert_eq!(f.stride_class(dft, 64, 4096, 1), 6);
        // calls a line or more apart share no line
        assert_eq!(f.stride_class(dft, 64, 1024, 64), 7);
        assert_eq!(f.stride_class(dft, 64, 16384, 64), 8);
        // WHT points are 8 bytes: twice the points per line and level
        let wht = crate::WHT_POINT_BYTES;
        assert_eq!(f.level(0, wht).capacity, 2 * f.level(0, dft).capacity);
        assert_eq!(f.level(0, wht).line, 8);
        assert_eq!(f.stride_class(wht, 64, 64, 1), 1);
        assert_eq!(f.stride_class(dft, 64, 64, 1), 2);
    }

    #[test]
    fn host_model_prices_the_executed_schedule() {
        let m = CacheModel::host();
        let fit = m.fit.unwrap();
        let t = |e: &str| crate::grammar::parse(e).unwrap();
        // a reorganizing split pays two transposes (between the stages
        // and into the output), at the level holding its 2n points
        let ddl = fit.dft_cost_in(&t("ctddl(64,64)"), [1, 1, 1, 1]);
        let level = fit.residency(2 * 4096 * crate::DFT_POINT_BYTES);
        assert!((ddl.reorg_ns - 2.0 * fit.transpose[level]).abs() < 1e-12);
        // a child is priced at the write stride it runs at: the same
        // subtree costs more written at a conflicting stride
        let sub = t("ct(16,64)");
        let unit = m.dft_cost_at(&sub, [1, 1, 1, 1]).total_ns();
        let strided = m.dft_cost_at(&sub, [1, 4096, 1, 1]).total_ns();
        assert!(strided > unit, "{strided} <= {unit}");
        // stage costs sum to the tree cost on the host model too
        for e in ["ctddl(64,ct(16,64))", "ct(4,ctddl(64,64))"] {
            let stages = m.dft_stage_cost_ns(&t(e), 1);
            assert!((stages.total_ns() - m.tree_cost_ns(&t(e), 1)).abs() < 1e-6);
        }
        let w = t("split(32,split(8,split(64,64)))");
        assert_eq!(m.wht_stage_cost_ns(&w, 1).twiddle_ns, 0.0);
    }

    #[test]
    fn geometry_constructor_converts_units() {
        let m = CacheModel::from_geometry(512 * 1024, 64, 16);
        assert_eq!(m.capacity_points, 1 << 15);
        assert_eq!(m.line_points, 4);
        let w = CacheModel::from_geometry(512 * 1024, 64, 8);
        assert_eq!(w.capacity_points, 1 << 16);
        assert_eq!(w.line_points, 8);
    }
}
