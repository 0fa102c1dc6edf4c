//! Compiled WHT plans and the in-place factorized executor.
//!
//! The WHT factorizes as `WHT_{n1·n2} = (WHT_{n1} ⊗ I_{n2}) ·
//! (I_{n1} ⊗ WHT_{n2})` — no twiddles and no reordering — so the executor
//! runs *in place* like the CMU WHT package the paper modifies:
//!
//! 1. **Stage A** (right child): `n1` sub-WHTs of size `n2` on contiguous
//!    chunks of the node's view.
//! 2. **Stage B** (left child): `n2` sub-WHTs of size `n1` at stride
//!    `n2 · view_stride` — the strided stage, matching the paper's tree
//!    convention where the left child carries the stride.
//!
//! A node flagged `reorg` gathers its strided view into contiguous
//! scratch, executes there at unit stride, and scatters back — `2·2n`
//! memory operations, the WHT version of the paper's `Dr` reorganization.
//! Data points are `f64` (8 bytes), as in the paper's WHT experiments.
//!
//! **Lane batches (the vector loop).** Stage B of a split whose view has
//! unit stride and whose left child is a plain (not `reorg`) leaf of at
//! most [`MAX_LEAF_WHT`] points, with `n2 ≥` [`WHT_LANES`], runs its
//! leaves eight at a time: eight adjacent leaves are `n1` unit-stride
//! rows of one 64-byte line each, transformed together by [`wht_lanes`].
//! One leaf at a time, a 2^20 root's 32-point leaves each read 32 lines
//! 256 KiB apart, all in one L1 set, and refetch each line for each of
//! its 8 columns. Every other node runs leaf at a time.
//!
//! **Observation contract.** A batch is one `Node` span (size `n1`,
//! stride `n2`, not `reorg`) and one [`Stage::Leaf`] call of `8·n1`
//! points. Its trace is its leaves' reads and writes lane after lane,
//! exactly as leaf-at-a-time execution emits them: the simulator keeps
//! modelling the paper's leaf-at-a-time executor, as it abstracts the
//! codelets' register order ([`crate::dft`]). The executed order would
//! cut `split(64,split(64,64))`'s simulated misses at 2^18 from 557,056
//! to 98,304, which neither the model nor the planner knows about yet.
//!
//! Scratch is only ever a reorganized node's gather target, filled from
//! the data view before the subtree runs in it, so the executor writes
//! every scratch point before reading it. The plan's internally
//! scratched entry points therefore reuse dirty buffers from its
//! `ScratchPool`, as [`crate::dft`] does. Each compiled node fixes its
//! scratch need when the plan is built; a gathering node holds the first
//! `n` points it is handed and its children carve the rest. The executor
//! and [`WhtPlan::layout`] read the same nodes and the same gather and
//! lane-batch rules.

use crate::layout::{self, AccessSet, NodeLayout, PlanLayout, Region, StepKind};
use crate::obs::{
    stage_end, stage_start, ExecutionMetrics, NullSink, Observer, Recorder, Sink, SpanInfo,
    SpanKind, Stage,
};
use crate::scratch::ScratchPool;
use crate::tree::Tree;
use crate::WHT_POINT_BYTES;
use ddl_kernels::{wht_lanes, wht_leaf_strided, MAX_LEAF_WHT, WHT_LANES};
use ddl_num::DdlError;

pub use crate::dft::PlanError;

/// A compiled, executable WHT.
#[derive(Clone, Debug)]
pub struct WhtPlan {
    tree: Tree,
    root: Node,
    /// Scratch for the internally-allocating entry points, shared
    /// across clones and allocated on first use.
    scratch: ScratchPool<f64>,
}

impl WhtPlan {
    /// Compiles `tree`. Every node size must be a power of two.
    pub fn new(tree: Tree) -> Result<WhtPlan, PlanError> {
        tree.validate().map_err(PlanError::InvalidTree)?;
        if !tree.size().is_power_of_two() {
            return Err(PlanError::InvalidTree(format!(
                "WHT size {} is not a power of two",
                tree.size()
            )));
        }
        for n in tree.leaf_sizes() {
            if !n.is_power_of_two() {
                return Err(PlanError::InvalidTree(format!(
                    "WHT leaf size {n} is not a power of two"
                )));
            }
        }
        Ok(WhtPlan {
            root: Node::build(&tree),
            tree,
            scratch: ScratchPool::new(),
        })
    }

    /// Convenience: compile from a grammar expression.
    pub fn from_expr(expr: &str) -> Result<WhtPlan, PlanError> {
        let tree = crate::grammar::parse(expr)?;
        WhtPlan::new(tree)
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.root.n
    }

    /// The factorization tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Scratch requirement in points (zero for SDL trees).
    pub fn scratch_len(&self) -> usize {
        self.root.need
    }

    /// The execution layout ([`crate::layout`]) of one run on the view
    /// `data[i·root_stride]` of a buffer of the minimal span. Returns
    /// [`DdlError::InvalidStride`] when that span overflows the address
    /// space.
    pub fn layout(&self, root_stride: usize) -> Result<PlanLayout, DdlError> {
        let mut layout = PlanLayout::new(
            WHT_POINT_BYTES,
            vec![
                (Region::Data, layout::span(self.root.n, root_stride)?),
                (Region::Scratch, self.root.need),
            ],
        )?;
        let view = AccessSet::new(Region::Data, 0, root_stride, self.root.n);
        self.root.layout(view, 0, 1, None, &mut layout.nodes);
        Ok(layout)
    }

    /// Scratch buffers this plan and its clones currently hold for reuse
    /// — at most the peak number of concurrent internally-scratched
    /// executions so far (zero for trees without reorganization).
    pub fn pooled_scratch(&self) -> usize {
        self.scratch.pooled()
    }

    /// Executes in place on `data[..n]`, on the plan's own scratch.
    pub fn try_execute(&self, data: &mut [f64]) -> Result<(), DdlError> {
        self.scratch.with(self.root.need, |scratch| {
            self.try_run(WhtView::new(data), scratch, &mut NullSink)
        })
    }

    /// Full-control entry: in place on a strided view of `data`, with
    /// explicit scratch (at least [`Self::scratch_len`] points) and one
    /// [`Observer`]. Its sink half times the leaf and reorganization
    /// spans (the WHT form of the paper's Eq. (2) breakdown — there is no
    /// twiddle term); its tracing half receives every point load and
    /// store at the simulated addresses the simulation harness
    /// ([`crate::traced`]) assigned to the view. With [`NullSink`] both
    /// halves compile away. A malformed view or undersized scratch is a
    /// [`DdlError`], never a panic.
    pub fn try_run<O: Observer>(
        &self,
        view: WhtView<'_>,
        scratch: &mut [f64],
        obs: &mut O,
    ) -> Result<(), DdlError> {
        let WhtView {
            data,
            base,
            stride,
            addrs,
        } = view;
        if self.root.n > 1 && stride == 0 {
            return Err(DdlError::InvalidStride {
                detail: format!(
                    "data view out of bounds: stride 0 on a {}-point WHT aliases every point",
                    self.root.n
                ),
            });
        }
        let view_end = (self.root.n - 1)
            .checked_mul(stride)
            .and_then(|off| off.checked_add(base));
        match view_end {
            Some(end) if end < data.len() => {}
            _ => {
                return Err(DdlError::InvalidStride {
                    detail: format!(
                        "data view out of bounds: base {base} stride {stride} needs {:?} points, got {}",
                        view_end.map(|e| e + 1),
                        data.len()
                    ),
                });
            }
        }
        if scratch.len() < self.root.need {
            return Err(DdlError::shape(
                "scratch too small",
                self.root.need,
                scratch.len(),
            ));
        }
        exec(
            &self.root, data, base, stride, addrs[0], scratch, addrs[1], obs,
        );
        Ok(())
    }

    /// Executes once on the plan's own scratch with `recorder` attached
    /// and returns the per-stage breakdown: wall-clock total plus the
    /// leaf/reorg split of the paper's Eq. (2) (the WHT has no twiddle
    /// term), stage call/point counts and a leaf op estimate. The
    /// recorder also captures the hierarchical trace timeline (an
    /// `execution` span wrapping one `node` span per node call, a lane
    /// batch being one) for export via [`crate::trace`]. The returned
    /// metrics summarize the recorder's accumulated totals, so pass a
    /// fresh recorder for single-run numbers.
    pub fn try_profile_with(
        &self,
        data: &mut [f64],
        recorder: &mut Recorder,
    ) -> Result<ExecutionMetrics, DdlError> {
        let total_ns = self.scratch.with(self.root.need, |scratch| {
            recorder.span_begin(SpanInfo {
                kind: SpanKind::Execution,
                label: "wht",
                size: self.root.n,
                stride: 1,
                reorg: self.tree.reorg(),
                backend: "scalar",
            });
            let t0 = std::time::Instant::now();
            let result = self.try_run(WhtView::new(data), scratch, recorder);
            let total_ns = t0.elapsed().as_nanos() as u64;
            recorder.span_end();
            result.map(|()| total_ns)
        })?;
        Ok(ExecutionMetrics::from_recorder(
            total_ns,
            recorder,
            crate::obs::tree_leaf_flops(&self.tree, false),
        ))
    }
}

/// The buffer of one [`WhtPlan::try_run`]: the `n` points
/// `data[base + i·stride]`, transformed in place. [`WhtPlan::try_run`]
/// validates the view against the buffer.
pub struct WhtView<'a> {
    data: &'a mut [f64],
    base: usize,
    stride: usize,
    /// Simulated byte addresses of `[data, scratch]`, assigned by the
    /// simulation harness and read only when the observer traces.
    pub(crate) addrs: [u64; 2],
}

impl<'a> WhtView<'a> {
    /// The unit-stride view of `data` from index 0.
    pub fn new(data: &'a mut [f64]) -> WhtView<'a> {
        WhtView {
            data,
            base: 0,
            stride: 1,
            addrs: Default::default(),
        }
    }

    /// The view `data[base + i·stride]`.
    #[must_use]
    pub fn at(mut self, base: usize, stride: usize) -> WhtView<'a> {
        self.base = base;
        self.stride = stride;
        self
    }
}

/// A compiled node: the tree shape with its scratch need fixed at build
/// time.
#[derive(Clone, Debug)]
struct Node {
    n: usize,
    reorg: bool,
    /// Scratch points for this subtree: a reorganizing node reserves its
    /// gather target (`n`, even when it runs at unit stride and does not
    /// gather), plus the larger child's need.
    need: usize,
    /// `(left, right)` of a split.
    split: Option<Box<(Node, Node)>>,
}

impl Node {
    fn build(tree: &Tree) -> Node {
        let own = if tree.reorg() { tree.size() } else { 0 };
        let (n, split) = match tree {
            Tree::Leaf { n, .. } => (*n, None),
            Tree::Split { left, right, .. } => {
                let (l, r) = (Node::build(left), Node::build(right));
                (l.n * r.n, Some(Box::new((l, r))))
            }
        };
        let child_need = split.as_ref().map_or(0, |s| s.0.need.max(s.1.need));
        Node {
            n,
            reorg: tree.reorg(),
            need: own + child_need,
            split,
        }
    }

    /// Whether the node, on a view of `stride`, gathers it into scratch
    /// (the module docs' `Dr`).
    fn gathers(&self, stride: usize) -> bool {
        self.reorg && stride > 1
    }

    /// Appends this node's record, then its subtree's, to `out`: `view`
    /// is the last instance's, `scr` the offset of the scratch it is
    /// handed, `calls` its instance count.
    fn layout(
        &self,
        view: AccessSet,
        scr: usize,
        calls: u64,
        parent: Option<usize>,
        out: &mut Vec<NodeLayout>,
    ) {
        let (idx, n) = (out.len(), self.n);
        let leaf = self.split.is_none();
        let mut node = NodeLayout::new(n, self.reorg, leaf, parent, calls, view, view);
        let (body, scr) = if self.gathers(view.stride) {
            let r = node.carve("r", scr, n);
            let _ = node.carve("rest", scr + n, self.need - n);
            node.step(StepKind::GatherScatter, calls, view, r);
            (r, scr + n)
        } else {
            (view, scr)
        };
        let Some((left, right)) = self.split.as_deref() else {
            node.step(StepKind::Leaf, calls, body, body);
            out.push(node);
            return;
        };
        out.push(node);
        // The last instance of each stage: i1 = n1 - 1, i2 = n2 - 1.
        let (n1, n2) = (left.n, right.n);
        let rv = body.sub((n1 - 1) * n2, 1, n2);
        right.layout(rv, scr, calls * n1 as u64, Some(idx), out);
        let lv = body.sub(n2 - 1, n2, n1);
        if lane_batched(body.stride, n2, left) {
            // One node call per batch, one codelet per lane.
            let batches = calls * (n2 / WHT_LANES) as u64;
            let mut batch = NodeLayout::new(n1, false, true, Some(idx), batches, lv, lv);
            batch.step(StepKind::Leaf, calls * n2 as u64, lv, lv);
            out.push(batch);
        } else {
            left.layout(lv, scr, calls * n2 as u64, Some(idx), out);
        }
    }
}

/// Whether stage B of a split on a view of `stride` runs its `n2` left
/// leaves in lane batches (module docs).
fn lane_batched(stride: usize, n2: usize, left: &Node) -> bool {
    stride == 1 && n2 >= WHT_LANES && left.split.is_none() && !left.reorg && left.n <= MAX_LEAF_WHT
}

#[allow(clippy::too_many_arguments)]
fn exec<O: Observer>(
    node: &Node,
    data: &mut [f64],
    base: usize,
    stride: usize,
    data_addr: u64,
    scratch: &mut [f64],
    scr_addr: u64,
    obs: &mut O,
) {
    let n = node.n;
    let pt = WHT_POINT_BYTES as u32;
    if O::SINK {
        obs.span_begin(SpanInfo {
            kind: SpanKind::Node,
            label: "wht",
            size: n,
            stride,
            reorg: node.reorg,
            backend: "scalar",
        });
    }

    if node.gathers(stride) {
        // Dr: gather the strided view into contiguous scratch, transform
        // there, scatter back.
        let t0 = stage_start::<O>();
        let (r, rest) = scratch.split_at_mut(n);
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = data[base + i * stride];
        }
        stage_end(obs, Stage::Reorg, t0, n as u64);
        if O::TRACE {
            for i in 0..n {
                obs.read(
                    data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64,
                    pt,
                );
                obs.write(scr_addr + (i * WHT_POINT_BYTES) as u64, pt);
            }
        }
        exec_body(
            node,
            r,
            0,
            1,
            scr_addr,
            rest,
            scr_addr + (n * WHT_POINT_BYTES) as u64,
            obs,
        );
        let t0 = stage_start::<O>();
        for (i, &ri) in r.iter().enumerate() {
            data[base + i * stride] = ri;
        }
        stage_end(obs, Stage::Reorg, t0, n as u64);
        if O::TRACE {
            for i in 0..n {
                obs.read(scr_addr + (i * WHT_POINT_BYTES) as u64, pt);
                obs.write(
                    data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64,
                    pt,
                );
            }
        }
        // The reorganized path returns here; both exits close the span.
        if O::SINK {
            obs.span_end();
        }
        return;
    }

    exec_body(node, data, base, stride, data_addr, scratch, scr_addr, obs);
    if O::SINK {
        obs.span_end();
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_body<O: Observer>(
    node: &Node,
    data: &mut [f64],
    base: usize,
    stride: usize,
    data_addr: u64,
    scratch: &mut [f64],
    scr_addr: u64,
    obs: &mut O,
) {
    match node.split.as_deref() {
        None => {
            let n = node.n;
            let t0 = stage_start::<O>();
            wht_leaf_strided(n, data, base, stride);
            stage_end(obs, Stage::Leaf, t0, n as u64);
            if O::TRACE {
                trace_leaf(obs, data_addr, base, stride, n);
            }
        }
        Some((left, right)) => {
            let (n1, n2) = (left.n, right.n);
            // Stage A: right child on n1 contiguous chunks.
            for i1 in 0..n1 {
                exec(
                    right,
                    data,
                    base + i1 * n2 * stride,
                    stride,
                    data_addr,
                    scratch,
                    scr_addr,
                    obs,
                );
            }
            // Stage B: left child at stride n2 * stride (paper Property 1),
            // in lane batches where the module docs' rule allows.
            if lane_batched(stride, n2, left) {
                exec_lanes(n1, n2, data, base, data_addr, obs);
            } else {
                for i2 in 0..n2 {
                    exec(
                        left,
                        data,
                        base + i2 * stride,
                        n2 * stride,
                        data_addr,
                        scratch,
                        scr_addr,
                        obs,
                    );
                }
            }
        }
    }
}

/// Stage B in lane batches (module docs): the `n2` left leaves of `n1`
/// points, [`WHT_LANES`] adjacent ones per batch.
fn exec_lanes<O: Observer>(
    n1: usize,
    n2: usize,
    data: &mut [f64],
    base: usize,
    data_addr: u64,
    obs: &mut O,
) {
    for b in (base..base + n2).step_by(WHT_LANES) {
        if O::SINK {
            obs.span_begin(SpanInfo {
                kind: SpanKind::Node,
                label: "wht",
                size: n1,
                stride: n2,
                reorg: false,
                backend: "scalar",
            });
        }
        let t0 = stage_start::<O>();
        wht_lanes(n1, data, b, n2);
        stage_end(obs, Stage::Leaf, t0, (WHT_LANES * n1) as u64);
        if O::TRACE {
            for lane in b..b + WHT_LANES {
                trace_leaf(obs, data_addr, lane, n2, n1);
            }
        }
        if O::SINK {
            obs.span_end();
        }
    }
}

/// Traces one `n`-point leaf at `(base, stride)`: every point read, then
/// every point written.
fn trace_leaf<O: Observer>(obs: &mut O, data_addr: u64, base: usize, stride: usize, n: usize) {
    let addr = |i: usize| data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64;
    for i in 0..n {
        obs.read(addr(i), WHT_POINT_BYTES as u32);
    }
    for i in 0..n {
        obs.write(addr(i), WHT_POINT_BYTES as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use ddl_kernels::naive_wht;

    fn sample(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.23).sin() * 4.0 - 1.0)
            .collect()
    }

    fn check_tree(tree: Tree) {
        let n = tree.size();
        let plan = WhtPlan::new(tree.clone()).unwrap();
        let x = sample(n);
        let mut data = x.clone();
        plan.try_execute(&mut data).unwrap();
        let want = naive_wht(&x);
        for j in 0..n {
            assert!(
                (data[j] - want[j]).abs() < 1e-8 * want[j].abs().max(1.0),
                "tree {tree} at {j}: {} vs {}",
                data[j],
                want[j]
            );
        }
    }

    #[test]
    fn single_split() {
        check_tree(Tree::split(Tree::leaf(4), Tree::leaf(8)));
        check_tree(Tree::split(Tree::leaf(8), Tree::leaf(4)));
    }

    #[test]
    fn deep_trees() {
        check_tree(Tree::rightmost(1 << 12, 8));
        check_tree(Tree::balanced(1 << 12, 8));
    }

    #[test]
    fn ddl_flags_do_not_change_results() {
        for expr in [
            "splitddl(16, 16)",
            "split(ddl(8), split(8, 4))",
            "splitddl(splitddl(8, 8), split(4, 4))",
        ] {
            check_tree(crate::grammar::parse(expr).unwrap());
        }
    }

    #[test]
    fn leaf_only_plan() {
        check_tree(Tree::leaf(64));
        check_tree(Tree::leaf(256)); // strided fallback path at stride 1
    }

    #[test]
    fn strided_view_execution() {
        let plan = WhtPlan::from_expr("split(8, 8)").unwrap();
        let n = 64;
        let stride = 3;
        let orig = sample(n * stride + 2);
        let mut data = orig.clone();
        let mut scratch = vec![0.0; plan.scratch_len()];
        let view = WhtView::new(&mut data).at(1, stride);
        plan.try_run(view, &mut scratch, &mut NullSink).unwrap();
        let x: Vec<f64> = (0..n).map(|i| orig[1 + i * stride]).collect();
        let want = naive_wht(&x);
        for j in 0..n {
            assert!((data[1 + j * stride] - want[j]).abs() < 1e-9);
        }
        // untouched positions preserved
        assert_eq!(data[0], orig[0]);
        assert_eq!(data[2], orig[2]);
    }

    #[test]
    fn sdl_trees_need_no_scratch() {
        let plan = WhtPlan::new(Tree::rightmost(1 << 10, 8)).unwrap();
        assert_eq!(plan.scratch_len(), 0);
    }

    #[test]
    fn ddl_trees_report_scratch() {
        let plan = WhtPlan::from_expr("split(splitddl(8,8), 16)").unwrap();
        assert_eq!(plan.scratch_len(), 64);
    }

    #[test]
    fn rejects_non_pow2() {
        assert!(WhtPlan::new(Tree::leaf(12)).is_err());
        assert!(WhtPlan::new(Tree::split(Tree::leaf(3), Tree::leaf(4))).is_err());
    }

    #[test]
    fn wht_is_involution_scaled() {
        let plan = WhtPlan::new(Tree::balanced(256, 8)).unwrap();
        let x = sample(256);
        let mut data = x.clone();
        plan.try_execute(&mut data).unwrap();
        plan.try_execute(&mut data).unwrap();
        for j in 0..256 {
            assert!((data[j] / 256.0 - x[j]).abs() < 1e-9);
        }
    }
}
