//! Per-node cache-miss attribution: joining the simulator to the span
//! timeline.
//!
//! The paper's argument is *located*: Case III conflict misses happen at
//! specific non-unit-stride leaf stages, and DDL's reorganizations remove
//! exactly those (Sec. III–IV). Whole-run [`CacheStats`] totals can show
//! *that* a DDL plan misses less; this module shows *which tree node*
//! stopped thrashing. It drives the real executors through the
//! simulation harness ([`crate::traced`]) with an [`AttributingCache`]
//! (`ddl-cachesim`) as the one observer, which consumes both halves of
//! the executor's instrumentation — the [`MemoryTracer`] address stream
//! and the [`Sink`] node spans carrying `(label, size, stride, reorg)` —
//! into one attributed tree with exact conservation: per-node counters
//! sum to the whole-run totals, every event charged to exactly one node
//! (or the `outside` bucket).
//!
//! Each leaf is then classified three ways:
//!
//! 1. **empirically** from its simulated exclusive miss rate,
//! 2. **analytically** from [`CacheModel::leaf_miss_per_point`] over both
//!    its read and write streams, taken from the node's record in the
//!    plan's execution layout ([`crate::layout`]), and
//! 3. **statically** by the conflict analyzer in `ddl-analyze` (which
//!    fills the `static_*` fields post-hoc; `ddl-core` cannot depend on
//!    it).
//!
//! The same address stream can additionally be attributed to a full
//! memory hierarchy — an inclusive L1/L2 pair plus a d-TLB
//! (`ddl_cachesim::HierarchyAttributingCache`) — giving every node an
//! exclusive `(l1, l2, tlb)` delta triple alongside its single-level
//! counters, and leaves a second, page-granularity Case classification:
//! the TLB is just a cache whose line is the page, so the paper's
//! Sec. III-B closed form applies verbatim at 4 KiB-line geometry. The
//! single-level counters are computed from the *raw* stream either way,
//! so `totals` are identical with and without hierarchy attribution.
//!
//! An [`AttributionRun`] is the `sim` section of a `ddl-report` plan
//! record ([`crate::reports`]); parsing re-verifies conservation — at
//! the single level, and when hierarchy data is present at L1, L2 and
//! TLB independently, plus the structural `L2 accesses ≡ L1 misses`
//! identity per node — so a schema check is also an invariant check.

use crate::dft::DftPlan;
use crate::layout::PlanLayout;
use crate::model::CacheModel;
use crate::obs::{Candidate, Counter, Sink, SpanInfo, SpanKind, Stage};
use crate::rfft::RfftPlan;
use crate::traced;
use crate::wht::WhtPlan;
use ddl_cachesim::{
    AttributedNode, AttributingCache, BucketStats, Cache, CacheConfig, CacheStats, HierStats,
    HierarchyAttributingCache, HierarchyConfig, MemoryTracer, NodeKey,
};
use ddl_num::DdlError;

/// The paper's Sec. III-B taxonomy, as a per-leaf verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseClass {
    /// Cases I/II: the working set fits (`n·s <= C`), compulsory misses
    /// only (~`1/B` per point).
    CaseI2,
    /// Between the clean regimes: elevated but not total miss traffic.
    Intermediate,
    /// Case III: set conflicts at a power-of-two stride; effectively
    /// every access misses.
    Case3,
}

impl CaseClass {
    /// Stable serialization token.
    pub fn as_str(&self) -> &'static str {
        match self {
            CaseClass::CaseI2 => "case_i_ii",
            CaseClass::Intermediate => "intermediate",
            CaseClass::Case3 => "case_iii",
        }
    }

    /// Inverse of [`CaseClass::as_str`].
    pub fn parse_token(s: &str) -> Option<CaseClass> {
        match s {
            "case_i_ii" => Some(CaseClass::CaseI2),
            "intermediate" => Some(CaseClass::Intermediate),
            "case_iii" => Some(CaseClass::Case3),
            _ => None,
        }
    }
}

impl std::fmt::Display for CaseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One node of the attributed plan tree, with its exclusive (self)
/// simulated counters and the per-method classifications.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeAttribution {
    /// Transform label (`"dft"` / `"wht"`).
    pub label: String,
    /// Sub-transform size at this node.
    pub size: usize,
    /// Input (read) stride in points, as published on the node span.
    pub stride: usize,
    /// Whether the node performs a DDL reorganization.
    pub reorg: bool,
    /// Dynamic visits aggregated into this node.
    pub calls: u64,
    /// Exclusive simulated counters (this node minus its children).
    pub stats: CacheStats,
    /// Output (write) stride in points, from the node's layout record
    /// (the span only carries the read stride).
    pub write_stride: Option<usize>,
    /// Empirical classification from the exclusive miss rate; `None`
    /// when the node generated no memory events of its own.
    pub empirical: Option<CaseClass>,
    /// Analytical [`CacheModel`] classification (leaves only — the
    /// Sec. III-B model is a leaf model).
    pub model: Option<CaseClass>,
    /// Static conflict-analyzer verdict (filled by `ddl-analyze`).
    pub static_pathological: Option<bool>,
    /// Worst per-set conflict degree from the static analyzer.
    pub static_degree: Option<u64>,
    /// Exclusive per-level `(l1, l2, tlb)` counters from hierarchy
    /// attribution (present iff the run carries a `hierarchy` block).
    pub levels: Option<HierStats>,
    /// Empirical classification of the node's exclusive TLB traffic at
    /// page granularity.
    pub empirical_page: Option<CaseClass>,
    /// Analytical Sec. III-B classification evaluated against the TLB's
    /// page geometry (leaves only).
    pub model_page: Option<CaseClass>,
    /// Static conflict-analyzer verdict at page geometry (filled by
    /// `ddl-analyze`).
    pub static_pathological_page: Option<bool>,
    /// Worst per-set conflict degree at page geometry.
    pub static_degree_page: Option<u64>,
    /// Child nodes in first-visit order.
    pub children: Vec<NodeAttribution>,
}

impl NodeAttribution {
    /// `label:size@stride` — one path segment of a node path.
    pub fn path_segment(&self) -> String {
        format!("{}:{}@{}", self.label, self.size, self.stride)
    }

    /// Sum of this node's and all descendants' exclusive stats.
    pub fn inclusive_stats(&self) -> CacheStats {
        let mut total = self.stats;
        for c in &self.children {
            total.add(&c.inclusive_stats());
        }
        total
    }

    /// Depth-first traversal over `self` and descendants, with the
    /// `/`-joined node path.
    pub fn walk<'a>(&'a self, prefix: &str, visit: &mut dyn FnMut(&'a NodeAttribution, &str)) {
        let path = if prefix.is_empty() {
            self.path_segment()
        } else {
            format!("{prefix}/{}", self.path_segment())
        };
        visit(self, &path);
        for c in &self.children {
            c.walk(&path, visit);
        }
    }

    fn walk_mut(&mut self, prefix: &str, visit: &mut dyn FnMut(&mut NodeAttribution, &str)) {
        let path = if prefix.is_empty() {
            self.path_segment()
        } else {
            format!("{prefix}/{}", self.path_segment())
        };
        visit(self, &path);
        for c in &mut self.children {
            c.walk_mut(&path, visit);
        }
    }
}

/// Whole-run memory-hierarchy attribution: the geometry simulated
/// and the per-level totals/outside buckets that the per-node `levels`
/// triples must sum to.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyAttribution {
    /// L1/L2/d-TLB geometry.
    pub config: HierarchyConfig,
    /// Whole-run counters per level.
    pub totals: HierStats,
    /// Events charged to no node span, per level.
    pub outside: HierStats,
}

/// One attributed simulation: a plan executed once at a root stride
/// against a fresh cache. The plan record holding it names the
/// transform, size, strategy and tree.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionRun {
    /// Root input stride in points.
    pub root_stride: usize,
    /// Bytes per data point (16 for the complex DFT, 8 for the WHT).
    pub point_bytes: usize,
    /// Simulated cache geometry.
    pub cache: CacheConfig,
    /// Whole-run cache counters.
    pub totals: CacheStats,
    /// Events charged to no node span (buffer setup/teardown; zero for
    /// the executors, which span their entire recursion).
    pub outside: CacheStats,
    /// Memory-hierarchy attribution of the same address stream.
    pub hierarchy: Option<HierarchyAttribution>,
    /// Attributed root nodes (one per top-level execution).
    pub roots: Vec<NodeAttribution>,
}

impl AttributionRun {
    /// Sum of all per-node exclusive stats plus the outside bucket.
    pub fn attributed_total(&self) -> CacheStats {
        let mut total = self.outside;
        for r in &self.roots {
            total.add(&r.inclusive_stats());
        }
        total
    }

    /// Exact conservation: attributed events equal the run totals.
    pub fn conserved(&self) -> bool {
        self.attributed_total() == self.totals
    }

    /// Visits every node with its `/`-joined path.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a NodeAttribution, &str)) {
        for r in &self.roots {
            r.walk("", visit);
        }
    }

    /// Mutable form of [`AttributionRun::walk`] (used by the static
    /// enrichment pass in `ddl-analyze`).
    pub fn walk_mut(&mut self, visit: &mut dyn FnMut(&mut NodeAttribution, &str)) {
        for r in &mut self.roots {
            r.walk_mut("", visit);
        }
    }

    /// Number of leaves (model-classified nodes) and how many of them
    /// are empirically Case III — the summary pair the trajectory ledger
    /// stores per pinned size.
    pub fn case3_leaf_counts(&self) -> (u64, u64) {
        let mut leaves = 0;
        let mut case3 = 0;
        self.walk(&mut |node, _| {
            if node.model.is_some() {
                leaves += 1;
                if node.empirical == Some(CaseClass::Case3) {
                    case3 += 1;
                }
            }
        });
        (leaves, case3)
    }

    /// Number of page-classified leaves and how many are empirically
    /// Case III *at page granularity*; `None` for runs without
    /// hierarchy attribution.
    pub fn case3_leaf_counts_page(&self) -> Option<(u64, u64)> {
        self.hierarchy.as_ref()?;
        let mut leaves = 0;
        let mut case3 = 0;
        self.walk(&mut |node, _| {
            if node.model_page.is_some() {
                leaves += 1;
                if node.empirical_page == Some(CaseClass::Case3) {
                    case3 += 1;
                }
            }
        });
        Some((leaves, case3))
    }

    /// Whole-run d-TLB miss rate; `None` without hierarchy attribution.
    pub fn tlb_miss_rate(&self) -> Option<f64> {
        self.hierarchy.as_ref().map(|h| h.totals.tlb.miss_rate())
    }

    /// Per-level sum of all node `levels` triples plus the hierarchy
    /// outside bucket (missing node triples count as zero); `None`
    /// without hierarchy attribution.
    pub fn hier_attributed_total(&self) -> Option<HierStats> {
        let h = self.hierarchy.as_ref()?;
        let mut total = h.outside;
        self.walk(&mut |node, _| {
            if let Some(l) = &node.levels {
                total.add(l);
            }
        });
        Some(total)
    }

    /// Verifies the hierarchy invariants (vacuously true without
    /// hierarchy data): every node carries a `levels` triple, per-node
    /// and outside `l2.accesses == l1.misses` (an L2 access *is* an L1
    /// miss, observed through the same flush window), and node-sums +
    /// outside equal the totals independently at L1, L2 and TLB.
    pub fn check_hierarchy(&self) -> Result<(), String> {
        let Some(h) = &self.hierarchy else {
            return Ok(());
        };
        let mut missing = Vec::new();
        let mut decoupled = Vec::new();
        self.walk(&mut |node, path| match &node.levels {
            None => missing.push(path.to_string()),
            Some(l) => {
                if l.l2.accesses != l.l1.misses {
                    decoupled.push(format!(
                        "{path} (l2 accesses {} != l1 misses {})",
                        l.l2.accesses, l.l1.misses
                    ));
                }
            }
        });
        if !missing.is_empty() {
            return Err(format!(
                "hierarchy present but nodes lack levels: {missing:?}"
            ));
        }
        if h.outside.l2.accesses != h.outside.l1.misses {
            decoupled.push(format!(
                "outside (l2 accesses {} != l1 misses {})",
                h.outside.l2.accesses, h.outside.l1.misses
            ));
        }
        if !decoupled.is_empty() {
            return Err(format!("L2/L1 coupling violated at: {decoupled:?}"));
        }
        // ddl-lint: allow(no-panics): hier_attributed_total is Some whenever hierarchy is Some
        let got = self.hier_attributed_total().expect("hierarchy present");
        for (level, got, want) in [
            ("l1", got.l1, h.totals.l1),
            ("l2", got.l2, h.totals.l2),
            ("tlb", got.tlb, h.totals.tlb),
        ] {
            if got != want {
                return Err(format!(
                    "{level} conservation violated (attributed {got:?} != totals {want:?})"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The attributing observer and its drivers.
// ---------------------------------------------------------------------------

/// The attributors one run drives together, as one [`Observer`]: the
/// single-level [`AttributingCache`] over the raw stream (so `totals`
/// stay identical to the unattributed simulators) and, optionally, the
/// [`HierarchyAttributingCache`]. Both receive the same access stream
/// and the same node-span boundaries, so their arenas are structurally
/// identical (same indices) and can be zipped when building the report.
#[derive(Debug)]
struct AttribBundle {
    line: AttributingCache,
    hier: Option<HierarchyAttributingCache>,
    /// Kinds of the open spans. Only *node* spans are attribution
    /// boundaries; execution and planner spans nest around them.
    kinds: Vec<SpanKind>,
}

impl AttribBundle {
    fn new(config: CacheConfig, hier: Option<HierarchyConfig>) -> Self {
        AttribBundle {
            line: AttributingCache::new(Cache::new(config)),
            hier: hier.map(|h| HierarchyAttributingCache::new(&h)),
            kinds: Vec::new(),
        }
    }

    fn finish(mut self) -> Self {
        self.line.finish();
        if let Some(h) = &mut self.hier {
            h.finish();
        }
        self
    }
}

impl MemoryTracer for AttribBundle {
    const ENABLED: bool = true;

    #[inline]
    fn read(&mut self, addr: u64, bytes: u32) {
        self.line.read(addr, bytes);
        if let Some(h) = &mut self.hier {
            h.read(addr, bytes);
        }
    }

    #[inline]
    fn write(&mut self, addr: u64, bytes: u32) {
        self.line.write(addr, bytes);
        if let Some(h) = &mut self.hier {
            h.write(addr, bytes);
        }
    }
}

impl Sink for AttribBundle {
    const ENABLED: bool = true;

    fn counter(&mut self, _counter: Counter, _delta: u64) {}

    fn stage(&mut self, _stage: Stage, _nanos: u64, _points: u64) {}

    fn candidate(&mut self, _candidate: Candidate) {}

    fn span_begin(&mut self, info: SpanInfo) {
        self.kinds.push(info.kind);
        if info.kind == SpanKind::Node {
            let key = NodeKey {
                label: info.label,
                size: info.size,
                stride: info.stride,
                reorg: info.reorg,
            };
            self.line.node_enter(key);
            if let Some(h) = &mut self.hier {
                h.node_enter(key);
            }
        }
    }

    fn span_end(&mut self) {
        if self.kinds.pop() == Some(SpanKind::Node) {
            self.line.node_exit();
            if let Some(h) = &mut self.hier {
                h.node_exit();
            }
        }
    }
}

/// Runs one out-of-place DFT execution with input read at `root_stride`
/// against a fresh cache, attributing every simulated cache event to the
/// plan-tree node that caused it. The run goes through the same
/// simulation harness as [`crate::traced::simulate_dft`], so totals
/// agree with the unattributed simulation.
pub fn attribute_dft(
    plan: &DftPlan,
    root_stride: usize,
    config: CacheConfig,
) -> Result<AttributionRun, DdlError> {
    attribute(config, None, root_stride, |obs| {
        traced::run_dft(plan, root_stride, obs)
    })
}

/// [`attribute_dft`] plus simultaneous L1/L2/TLB attribution of the
/// same address stream. The single-level `totals`/`stats` fields are
/// unchanged by the extra observers.
pub fn attribute_dft_hier(
    plan: &DftPlan,
    root_stride: usize,
    config: CacheConfig,
    hier: HierarchyConfig,
) -> Result<AttributionRun, DdlError> {
    attribute(config, Some(hier), root_stride, |obs| {
        traced::run_dft(plan, root_stride, obs)
    })
}

/// Runs one in-place WHT execution on a view of `root_stride` against a
/// fresh cache, attributing events per node, through the same harness as
/// [`crate::traced::simulate_wht`].
pub fn attribute_wht(
    plan: &WhtPlan,
    root_stride: usize,
    config: CacheConfig,
) -> Result<AttributionRun, DdlError> {
    attribute(config, None, root_stride, |obs| {
        traced::run_wht(plan, root_stride, obs)
    })
}

/// [`attribute_wht`] plus simultaneous L1/L2/TLB attribution.
pub fn attribute_wht_hier(
    plan: &WhtPlan,
    root_stride: usize,
    config: CacheConfig,
    hier: HierarchyConfig,
) -> Result<AttributionRun, DdlError> {
    attribute(config, Some(hier), root_stride, |obs| {
        traced::run_wht(plan, root_stride, obs)
    })
}

/// Runs one forward real-input FFT (unit stride) against a fresh cache,
/// attributing the pack and untangle pipeline stages alongside the
/// inner half-size DFT's tree nodes — the pipeline transform gets the
/// same per-node scorecard as a bare DFT. The inner DFT subtree carries
/// model classifications; the wrapper stages are classified empirically.
pub fn attribute_rfft(plan: &RfftPlan, config: CacheConfig) -> Result<AttributionRun, DdlError> {
    attribute(config, None, 1, |obs| traced::run_rfft(plan, obs))
}

/// [`attribute_rfft`] plus simultaneous L1/L2/TLB attribution.
pub fn attribute_rfft_hier(
    plan: &RfftPlan,
    config: CacheConfig,
    hier: HierarchyConfig,
) -> Result<AttributionRun, DdlError> {
    attribute(config, Some(hier), 1, |obs| traced::run_rfft(plan, obs))
}

/// Runs `harness` (a simulation harness of [`crate::traced`]) into one
/// fresh attributing observer, then classifies the attributed nodes. The
/// write strides and model classes come from the layout the harness
/// returns, whose root record is the run's root node or, under a real
/// FFT, its inner `dft` stage.
fn attribute(
    config: CacheConfig,
    hier: Option<HierarchyConfig>,
    root_stride: usize,
    harness: impl FnOnce(&mut AttribBundle) -> Result<PlanLayout, DdlError>,
) -> Result<AttributionRun, DdlError> {
    let mut bundle = AttribBundle::new(config, hier);
    let layout = harness(&mut bundle)?;
    let point_bytes = layout.point_bytes;
    let mut run = finish_run(bundle.finish(), root_stride, point_bytes);
    let model = CacheModel::from_geometry(config.capacity_bytes, config.line_bytes, point_bytes);
    for root in &mut run.roots {
        if root.label == "rfft" {
            for child in root.children.iter_mut().filter(|c| c.label == "dft") {
                annotate(&layout, 0, child, &model);
            }
        } else {
            annotate(&layout, 0, root, &model);
        }
    }
    classify_empirical_tree(&mut run.roots, model.line_points);
    annotate_page_classes(&mut run);
    Ok(run)
}

fn finish_run(bundle: AttribBundle, root_stride: usize, point_bytes: usize) -> AttributionRun {
    let attrib = &bundle.line;
    let arena = attrib.nodes();
    // Both attributors saw the same enter/exit sequence, so their arenas
    // are index-for-index identical; zip the triple stats in by index.
    let hier_arena = bundle.hier.as_ref().map(|h| h.nodes());
    let roots = attrib
        .roots()
        .iter()
        .map(|&i| build_node(arena, hier_arena, i))
        .collect();
    AttributionRun {
        root_stride,
        point_bytes,
        cache: attrib.cache().config(),
        totals: attrib.totals(),
        outside: attrib.outside(),
        hierarchy: bundle.hier.as_ref().map(|h| HierarchyAttribution {
            config: h.config(),
            totals: h.totals(),
            outside: h.outside(),
        }),
        roots,
    }
}

fn build_node(
    arena: &[AttributedNode],
    hier_arena: Option<&[AttributedNode<HierStats>]>,
    idx: usize,
) -> NodeAttribution {
    let a = &arena[idx];
    let levels = hier_arena.map(|h| {
        debug_assert_eq!(h[idx].key, a.key, "attributor arenas diverged");
        debug_assert_eq!(h[idx].calls, a.calls, "attributor arenas diverged");
        h[idx].self_stats
    });
    NodeAttribution {
        label: a.key.label.to_string(),
        size: a.key.size,
        stride: a.key.stride,
        reorg: a.key.reorg,
        calls: a.calls,
        stats: a.self_stats,
        write_stride: None,
        empirical: None,
        model: None,
        static_pathological: None,
        static_degree: None,
        levels,
        empirical_page: None,
        model_page: None,
        static_pathological_page: None,
        static_degree_page: None,
        children: a
            .children
            .iter()
            .map(|&c| build_node(arena, hier_arena, c))
            .collect(),
    }
}

/// Fills the page-granularity classifications on a hierarchy-attributed
/// run: the TLB is a cache with page-sized lines, so the empirical rule
/// applies to each node's exclusive TLB counters and the Sec. III-B
/// closed form applies to each leaf's strides against the TLB-as-cache
/// geometry. No-op for runs without hierarchy data.
fn annotate_page_classes(run: &mut AttributionRun) {
    let Some(h) = &run.hierarchy else {
        return;
    };
    let page_cache = h.config.tlb_as_cache();
    let page_model = CacheModel::from_geometry(
        page_cache.capacity_bytes,
        page_cache.line_bytes,
        run.point_bytes,
    );
    run.walk_mut(&mut |node, _| {
        if let Some(l) = &node.levels {
            node.empirical_page = classify_empirical(&l.tlb, page_model.line_points);
        }
        if node.model.is_some() {
            let ws = node.write_stride.unwrap_or(node.stride);
            node.model_page = Some(classify_model(&page_model, node.size, node.stride, ws));
        }
    });
}

// ---------------------------------------------------------------------------
// Classification.
// ---------------------------------------------------------------------------

/// Classifies a leaf from the analytical model, taking the worse of the
/// read and write streams: a leaf whose reads are compacted but whose
/// writes still land at a pathological stride (the out-of-place stage-2
/// situation) is still a Case III node.
pub fn classify_model(
    model: &CacheModel,
    n: usize,
    read_stride: usize,
    write_stride: usize,
) -> CaseClass {
    let worst = model
        .leaf_miss_per_point(n, read_stride)
        .max(model.leaf_miss_per_point(n, write_stride));
    let compulsory = 1.0 / model.line_points as f64;
    if worst >= 1.0 - 1e-12 {
        CaseClass::Case3
    } else if worst <= compulsory + 1e-12 {
        CaseClass::CaseI2
    } else {
        CaseClass::Intermediate
    }
}

/// Classifies a node from its simulated exclusive miss rate: `>= 0.5`
/// means more than half of all line lookups missed (only conflict
/// thrashing does that), `<= 1.5/B` is compulsory-dominated traffic with
/// slack for twiddle/scratch effects, anything between is intermediate.
pub fn classify_empirical(stats: &CacheStats, line_points: usize) -> Option<CaseClass> {
    if stats.line_lookups == 0 {
        return None;
    }
    let rate = stats.miss_rate();
    if rate >= 0.5 {
        Some(CaseClass::Case3)
    } else if rate <= 1.5 / line_points as f64 {
        Some(CaseClass::CaseI2)
    } else {
        Some(CaseClass::Intermediate)
    }
}

fn classify_empirical_tree(nodes: &mut [NodeAttribution], line_points: usize) {
    for node in nodes {
        node.empirical = classify_empirical(&node.stats, line_points);
        classify_empirical_tree(&mut node.children, line_points);
    }
}

/// Fills `write_stride` on an attributed node, and the model class on a
/// leaf, from layout record `rec`, then descends: each attributed child
/// takes the record under `rec` with its `(size, stride, reorg)`, the
/// identity its node span carries.
fn annotate(layout: &PlanLayout, rec: usize, node: &mut NodeAttribution, model: &CacheModel) {
    let r = &layout.nodes[rec];
    node.write_stride = Some(r.write.stride);
    if r.leaf {
        node.model = Some(classify_model(model, r.size, r.read.stride, r.write.stride));
    }
    for child in &mut node.children {
        let key = (child.size, child.stride, child.reorg);
        if let Some((c, _)) = layout
            .children(rec)
            .find(|(_, c)| (c.size, c.read.stride, c.reorg) == key)
        {
            annotate(layout, c, child, model);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::{simulate_dft, simulate_wht};
    use crate::DFT_POINT_BYTES;
    use ddl_num::Direction;

    fn paper_cache() -> CacheConfig {
        CacheConfig::paper_default(64)
    }

    fn small_cache() -> CacheConfig {
        CacheConfig {
            capacity_bytes: 16 * 1024,
            line_bytes: 64,
            associativity: 1,
        }
    }

    #[test]
    fn dft_attribution_conserves_and_matches_unattributed_totals() {
        let plan = DftPlan::from_expr("ct(ddl(8), ct(8, 4))", Direction::Forward).unwrap();
        let run = attribute_dft(&plan, 4, paper_cache()).unwrap();
        assert!(run.conserved());
        assert_eq!(run.totals, simulate_dft(&plan, 4, paper_cache()).unwrap());
        // The executor spans its whole recursion: nothing falls outside.
        assert_eq!(run.outside, CacheStats::default());
        assert_eq!(run.roots.len(), 1);
        assert_eq!(run.roots[0].size, plan.n());
    }

    #[test]
    fn wht_attribution_conserves_and_matches_unattributed_totals() {
        let plan = WhtPlan::from_expr("split(splitddl(8, 8), split(8, 4))").unwrap();
        let run = attribute_wht(&plan, 2, paper_cache()).unwrap();
        assert!(run.conserved());
        assert_eq!(run.totals, simulate_wht(&plan, 2, paper_cache()).unwrap());
        assert_eq!(run.outside, CacheStats::default());
    }

    #[test]
    fn annotation_reaches_every_node() {
        let plan = DftPlan::from_expr("ctddl(ct(8, 8), ct(8, 4))", Direction::Forward).unwrap();
        let run = attribute_dft(&plan, 1, paper_cache()).unwrap();
        let mut missing = Vec::new();
        run.walk(&mut |node, path| {
            if node.write_stride.is_none() {
                missing.push(path.to_string());
            }
            if node.children.is_empty() && node.model.is_none() {
                missing.push(format!("{path} (leaf without model class)"));
            }
        });
        assert!(missing.is_empty(), "unannotated nodes: {missing:?}");
    }

    #[test]
    fn golden_pair_leaves_thrash_on_the_small_cache() {
        // The conflict-ranking golden pair: ct(2^6, 2^5) at root stride
        // 64 on a 16 KB direct-mapped cache. Every leaf sees a
        // pathological read or write stride, so empirical and model
        // classifications both land on Case III.
        let plan = DftPlan::from_expr("ct(64, 32)", Direction::Forward).unwrap();
        let run = attribute_dft(&plan, 64, small_cache()).unwrap();
        let mut leaves = 0;
        run.walk(&mut |node, path| {
            if node.model.is_some() {
                leaves += 1;
                assert_eq!(node.model, Some(CaseClass::Case3), "{path}");
                assert_eq!(node.empirical, Some(CaseClass::Case3), "{path}");
            }
        });
        assert!(leaves >= 2, "expected both stage leaves, saw {leaves}");
    }

    #[test]
    fn in_cache_plan_is_compulsory_only() {
        let plan = DftPlan::from_expr("ct(8, 8)", Direction::Forward).unwrap();
        let run = attribute_dft(&plan, 1, paper_cache()).unwrap();
        run.walk(&mut |node, path| {
            if node.model.is_some() {
                assert_eq!(node.model, Some(CaseClass::CaseI2), "{path}");
                assert_eq!(node.empirical, Some(CaseClass::CaseI2), "{path}");
            }
        });
    }

    #[test]
    fn hierarchy_attribution_conserves_and_matches_single_level_simulators() {
        use crate::traced::simulate_dft_into;
        use ddl_cachesim::{CacheWithTlb, Tlb};
        let plan = DftPlan::from_expr("ct(ddl(8), ct(8, 4))", Direction::Forward).unwrap();
        let cache = paper_cache();
        let hier = HierarchyConfig::typical(cache);
        let run = attribute_dft_hier(&plan, 1, cache, hier).unwrap();
        assert!(run.conserved());
        run.check_hierarchy().unwrap();
        // The extra observers must not perturb the single-level view.
        assert_eq!(run.totals, simulate_dft(&plan, 1, cache).unwrap());
        // The TLB sees the raw (undecomposed) stream, so its totals match
        // the classic CacheWithTlb pairing byte for byte — this is what
        // lets the TLB ablation regenerate from the artifact.
        let mut both = CacheWithTlb::new(cache, Tlb::typical_l1_dtlb());
        simulate_dft_into(&plan, &mut both).unwrap();
        let h = run.hierarchy.as_ref().unwrap();
        assert_eq!(h.totals.tlb, both.tlb.stats());
        run.walk(&mut |node, path| {
            assert!(node.levels.is_some(), "{path}: no levels");
            if node.model.is_some() {
                assert!(node.model_page.is_some(), "{path}: no page model class");
            }
        });
    }

    #[test]
    fn wht_hierarchy_attribution_conserves() {
        let plan = WhtPlan::from_expr("split(splitddl(8, 8), split(8, 4))").unwrap();
        let cache = paper_cache();
        let run = attribute_wht_hier(&plan, 2, cache, HierarchyConfig::typical(cache)).unwrap();
        assert!(run.conserved());
        run.check_hierarchy().unwrap();
        assert_eq!(run.totals, simulate_wht(&plan, 2, cache).unwrap());
    }

    #[test]
    fn rfft_attribution_covers_pipeline_stages() {
        use crate::planner::PlannerConfig;
        let plan = RfftPlan::plan(256, &PlannerConfig::ddl_analytical()).unwrap();
        let run = attribute_rfft(&plan, paper_cache()).unwrap();
        assert!(run.conserved());
        assert_eq!(run.outside, CacheStats::default());
        assert_eq!(run.roots.len(), 1);
        let root = &run.roots[0];
        assert_eq!(root.label, "rfft");
        assert_eq!(root.size, 256);
        let child_labels: Vec<&str> = root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(child_labels, ["pack", "dft", "untangle"]);
        let mut model_leaves = 0;
        run.walk(&mut |node, _| {
            if node.model.is_some() {
                model_leaves += 1;
            }
        });
        assert!(model_leaves >= 1, "inner DFT leaves must carry the model");
    }

    #[test]
    fn page_geometry_case_classification_tracks_the_tlb_as_cache() {
        let hier = HierarchyConfig::typical(paper_cache());
        let pc = hier.tlb_as_cache();
        let page_model =
            CacheModel::from_geometry(pc.capacity_bytes, pc.line_bytes, DFT_POINT_BYTES);
        // 4 KiB pages of 16-byte points: 256 points per "line".
        assert_eq!(page_model.line_points, 256);
        // A large power-of-two stride exhausts the TLB's reach exactly
        // like Case III exhausts cache sets...
        assert_eq!(
            classify_model(&page_model, 64, 2048, 1),
            CaseClass::Case3,
            "pathological page stride must be Case III at page geometry"
        );
        // ...and DDL's unit-stride conversion flips it to Case I/II at
        // page geometry just as it does at line geometry.
        assert_eq!(classify_model(&page_model, 64, 1, 1), CaseClass::CaseI2);
    }

    #[test]
    fn node_paths_name_size_and_stride() {
        let plan = DftPlan::from_expr("ct(4, 4)", Direction::Forward).unwrap();
        let run = attribute_dft(&plan, 1, paper_cache()).unwrap();
        let mut paths = Vec::new();
        run.walk(&mut |_, path| paths.push(path.to_string()));
        assert_eq!(paths[0], "dft:16@1");
        assert!(
            paths.iter().any(|p| p == "dft:16@1/dft:4@4"),
            "stage-1 leaf path missing from {paths:?}"
        );
        assert!(
            paths.iter().any(|p| p == "dft:16@1/dft:4@1"),
            "stage-2 leaf path missing from {paths:?}"
        );
    }
}
