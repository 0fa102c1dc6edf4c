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
//! Scratch is only ever a reorganized node's gather target, filled from
//! the data view before the subtree runs in it, so the executor writes
//! every scratch point before reading it. The plan's internally
//! scratched entry points therefore reuse dirty buffers from its
//! `ScratchPool`, as [`crate::dft`] does.

use crate::obs::{
    stage_end, stage_start, ExecutionMetrics, NullSink, Recorder, Sink, SpanInfo, SpanKind, Stage,
};
use crate::scratch::ScratchPool;
use crate::tree::Tree;
use crate::WHT_POINT_BYTES;
use ddl_cachesim::{MemoryTracer, NullTracer};
use ddl_kernels::wht_leaf_strided;
use ddl_num::DdlError;

pub use crate::dft::PlanError;

/// A compiled, executable WHT.
#[derive(Clone, Debug)]
pub struct WhtPlan {
    tree: Tree,
    n: usize,
    scratch_need: usize,
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
        let scratch_need = scratch_need(&tree);
        Ok(WhtPlan {
            n: tree.size(),
            tree,
            scratch_need,
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
        self.n
    }

    /// The factorization tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Scratch requirement in points (zero for SDL trees).
    pub fn scratch_len(&self) -> usize {
        self.scratch_need
    }

    /// Scratch buffers this plan and its clones currently hold for reuse
    /// — at most the peak number of concurrent internally-scratched
    /// executions so far (zero for trees without reorganization).
    pub fn pooled_scratch(&self) -> usize {
        self.scratch.pooled()
    }

    /// Executes in place on `data[..n]`, on the plan's own scratch.
    ///
    /// Panics if `data` is shorter than the transform; see
    /// [`WhtPlan::try_execute`] for the fallible form.
    pub fn execute(&self, data: &mut [f64]) {
        if let Err(e) = self.try_execute(data) {
            // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
            panic!("{e}");
        }
    }

    /// Fallible form of [`WhtPlan::execute`].
    pub fn try_execute(&self, data: &mut [f64]) -> Result<(), DdlError> {
        self.scratch.with(self.scratch_need, |scratch| {
            self.try_execute_view(data, 0, 1, scratch, &mut NullTracer, [0; 2])
        })
    }

    /// Full-control entry: in-place on the strided view `(base, stride)`
    /// of `data`, with explicit scratch, tracer and simulated base
    /// addresses `[data, scratch]`.
    ///
    /// Panics on an out-of-bounds view or undersized scratch; see
    /// [`WhtPlan::try_execute_view`] for the fallible form.
    pub fn execute_view<T: MemoryTracer>(
        &self,
        data: &mut [f64],
        base: usize,
        stride: usize,
        scratch: &mut [f64],
        tracer: &mut T,
        addrs: [u64; 2],
    ) {
        if let Err(e) = self.try_execute_view(data, base, stride, scratch, tracer, addrs) {
            // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
            panic!("{e}");
        }
    }

    /// Fallible form of [`WhtPlan::execute_view`]: validates the view and
    /// scratch instead of asserting, so malformed shapes surface as
    /// [`DdlError`] values rather than panics.
    pub fn try_execute_view<T: MemoryTracer>(
        &self,
        data: &mut [f64],
        base: usize,
        stride: usize,
        scratch: &mut [f64],
        tracer: &mut T,
        addrs: [u64; 2],
    ) -> Result<(), DdlError> {
        self.try_execute_view_observed(data, base, stride, scratch, tracer, addrs, &mut NullSink)
    }

    /// [`WhtPlan::try_execute_view`] with an observability sink: leaf and
    /// reorganization spans are timed into `sink` (the WHT form of the
    /// paper's Eq. (2) breakdown — there is no twiddle term). With
    /// [`NullSink`] this *is* `try_execute_view` — the stage timers
    /// compile away.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_view_observed<T: MemoryTracer, S: Sink>(
        &self,
        data: &mut [f64],
        base: usize,
        stride: usize,
        scratch: &mut [f64],
        tracer: &mut T,
        addrs: [u64; 2],
        sink: &mut S,
    ) -> Result<(), DdlError> {
        if self.n > 1 && stride == 0 {
            return Err(DdlError::InvalidStride {
                detail: format!(
                    "data view out of bounds: stride 0 on a {}-point WHT aliases every point",
                    self.n
                ),
            });
        }
        let view_end = (self.n - 1)
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
        if scratch.len() < self.scratch_need {
            return Err(DdlError::shape(
                "scratch too small",
                self.scratch_need,
                scratch.len(),
            ));
        }
        exec(
            &self.tree, data, base, stride, addrs[0], scratch, addrs[1], tracer, sink,
        );
        Ok(())
    }

    /// Executes once with a fresh [`Recorder`] attached and returns the
    /// per-stage breakdown: wall-clock total plus the leaf/reorg split of
    /// the paper's Eq. (2) (the WHT has no twiddle term), stage
    /// call/point counts and a leaf op estimate. Runs on the plan's own
    /// scratch.
    pub fn try_profile(&self, data: &mut [f64]) -> Result<ExecutionMetrics, DdlError> {
        let mut recorder = Recorder::new();
        self.try_profile_with(data, &mut recorder)
    }

    /// [`WhtPlan::try_profile`] into a caller-provided recorder, which
    /// additionally captures the hierarchical trace timeline (an
    /// `execution` span wrapping one `node` span per tree node) for
    /// export via [`crate::trace`]. The returned metrics summarize the
    /// recorder's accumulated totals, so pass a fresh recorder for
    /// single-run numbers.
    pub fn try_profile_with(
        &self,
        data: &mut [f64],
        recorder: &mut Recorder,
    ) -> Result<ExecutionMetrics, DdlError> {
        let total_ns = self.scratch.with(self.scratch_need, |scratch| {
            recorder.span_begin(SpanInfo {
                kind: SpanKind::Execution,
                label: "wht",
                size: self.n,
                stride: 1,
                reorg: self.tree.reorg(),
                backend: "scalar",
            });
            let t0 = std::time::Instant::now();
            let result = self.try_execute_view_observed(
                data,
                0,
                1,
                scratch,
                &mut NullTracer,
                [0; 2],
                recorder,
            );
            let total_ns = t0.elapsed().as_nanos() as u64;
            recorder.span_end();
            result.map(|()| total_ns)
        })?;
        Ok(ExecutionMetrics::from_recorder(
            "wht",
            self.n,
            crate::grammar::print_wht(&self.tree),
            total_ns,
            recorder,
            crate::obs::tree_leaf_flops(&self.tree, false),
        ))
    }
}

fn scratch_need(tree: &Tree) -> usize {
    let own = if tree.reorg() { tree.size() } else { 0 };
    match tree {
        Tree::Leaf { .. } => own,
        Tree::Split { left, right, .. } => own + scratch_need(left).max(scratch_need(right)),
    }
}

#[allow(clippy::too_many_arguments)]
fn exec<T: MemoryTracer, S: Sink>(
    node: &Tree,
    data: &mut [f64],
    base: usize,
    stride: usize,
    data_addr: u64,
    scratch: &mut [f64],
    scr_addr: u64,
    tr: &mut T,
    sink: &mut S,
) {
    let n = node.size();
    let pt = WHT_POINT_BYTES as u32;
    if S::ENABLED {
        sink.span_begin(SpanInfo {
            kind: SpanKind::Node,
            label: "wht",
            size: n,
            stride,
            reorg: node.reorg(),
            backend: "scalar",
        });
    }

    if node.reorg() && stride > 1 {
        // Dr: gather the strided view into contiguous scratch, transform
        // there, scatter back.
        let t0 = stage_start::<S>();
        let (r, rest) = scratch.split_at_mut(n);
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = data[base + i * stride];
        }
        stage_end(sink, Stage::Reorg, t0, n as u64);
        if T::ENABLED {
            for i in 0..n {
                tr.read(
                    data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64,
                    pt,
                );
                tr.write(scr_addr + (i * WHT_POINT_BYTES) as u64, pt);
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
            tr,
            sink,
        );
        let t0 = stage_start::<S>();
        for (i, &ri) in r.iter().enumerate() {
            data[base + i * stride] = ri;
        }
        stage_end(sink, Stage::Reorg, t0, n as u64);
        if T::ENABLED {
            for i in 0..n {
                tr.read(scr_addr + (i * WHT_POINT_BYTES) as u64, pt);
                tr.write(
                    data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64,
                    pt,
                );
            }
        }
        // The reorganized path returns here; both exits close the span.
        if S::ENABLED {
            sink.span_end();
        }
        return;
    }

    exec_body(
        node, data, base, stride, data_addr, scratch, scr_addr, tr, sink,
    );
    if S::ENABLED {
        sink.span_end();
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_body<T: MemoryTracer, S: Sink>(
    node: &Tree,
    data: &mut [f64],
    base: usize,
    stride: usize,
    data_addr: u64,
    scratch: &mut [f64],
    scr_addr: u64,
    tr: &mut T,
    sink: &mut S,
) {
    let pt = WHT_POINT_BYTES as u32;
    match node {
        Tree::Leaf { n, .. } => {
            let t0 = stage_start::<S>();
            wht_leaf_strided(*n, data, base, stride);
            stage_end(sink, Stage::Leaf, t0, *n as u64);
            if T::ENABLED {
                for i in 0..*n {
                    let a = data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64;
                    tr.read(a, pt);
                }
                for i in 0..*n {
                    let a = data_addr + ((base + i * stride) * WHT_POINT_BYTES) as u64;
                    tr.write(a, pt);
                }
            }
        }
        Tree::Split { left, right, .. } => {
            let n1 = left.size();
            let n2 = right.size();
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
                    tr,
                    sink,
                );
            }
            // Stage B: left child at stride n2 * stride (paper Property 1).
            for i2 in 0..n2 {
                exec(
                    left,
                    data,
                    base + i2 * stride,
                    n2 * stride,
                    data_addr,
                    scratch,
                    scr_addr,
                    tr,
                    sink,
                );
            }
        }
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
        plan.execute(&mut data);
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
        plan.execute_view(&mut data, 1, stride, &mut scratch, &mut NullTracer, [0; 2]);
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
        plan.execute(&mut data);
        plan.execute(&mut data);
        for j in 0..256 {
            assert!((data[j] / 256.0 - x[j]).abs() < 1e-9);
        }
    }
}
