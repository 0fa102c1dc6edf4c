//! Compiled DFT plans and the stride-explicit Cooley–Tukey executor.
//!
//! A [`DftPlan`] is a [`Tree`] compiled for one direction: twiddle tables
//! are precomputed per split node and scratch requirements are sized, so
//! repeated executions do no planning work (the organization of the
//! FFTW-derived packages the paper modifies).
//!
//! # Execution scheme
//!
//! For a node of size `n = n1·n2` whose input view is `(x, base, stride)`
//! and output view `(y, base, stride)`:
//!
//! 1. **Stage 1** — `n2` sub-DFTs of size `n1` (the *left* child), sub-DFT
//!    `i2` reading `x[base + (i1·n2 + i2)·stride]` — i.e. at stride
//!    `n2·stride`, the paper's Property 1 — and writing the intermediate
//!    `t[j1·n2 + i2]` (base `i2`, stride `n2`).
//! 2. **Twiddle** — `t[j1·n2 + i2] *= w_n^{j1·i2}`, one contiguous
//!    elementwise pass (the `T_tw` term of the paper's cost model).
//! 3. **Stage 2** — `n1` sub-DFTs of size `n2` (the *right* child),
//!    sub-DFT `j1` reading `t[n2·j1 ..]` at **unit stride** and writing
//!    `y[base + (j1 + n1·j2)·stride]`.
//!
//! The right child always reads its input at unit stride and large strides
//! accumulate only down the left spine — exactly the stride structure of
//! the paper's factorization trees (Fig. 4), with the final stride
//! permutation of Eq. (1) folded into stage 2's strided writes
//! (self-sorting) instead of a separate pass, except where an untraced
//! run reorganizes (below).
//!
//! # Dynamic data layout
//!
//! A *split* node flagged `reorg` changes the layout of its intermediate
//! buffer — the paper's "data reorganization between computation stages"
//! (Fig. 5):
//!
//! * stage 1 writes each sub-DFT's results **contiguously**
//!   (`t2[i2·n1 + j1]`) instead of interleaved at stride `n2`;
//! * after the twiddle pass, one **tiled (blocked) transpose** converts
//!   `t2` into the `t[j1·n2 + i2]` layout stage 2 consumes at unit
//!   stride;
//! * in an untraced run (see *Observation*), the output permutation is
//!   explicit too: stage 2 writes each of its `n1` sub-DFTs contiguously
//!   into the spent `t2` (`t2[j1·n2 + j2]`), and a second tiled
//!   transpose stores `t2` into `y[base + (j1 + n1·j2)·stride]`.
//!
//! A tiled transpose moves the same `n` points the interleaved accesses
//! would, but touches each cache line `O(1)` times instead of once per
//! point — it is the `Dr` term of the paper's Eq. (2), implemented with
//! the `ddl-layout` primitives. Folded into stage 2's stores, the output
//! permutation fetches and writes back each output line once per
//! sub-DFT with a point on it; the tiled store does so once. Both
//! transposes copy with the destination index innermost. A *leaf*
//! flagged `reorg` gathers its strided input into contiguous scratch
//! first (the paper's Fig. 6 picture at leaf granularity).
//!
//! # Scratch ownership
//!
//! Each compiled node fixes its scratch carving when the plan is built:
//! a split of size `n` holds `scratch[..n]` (`t`), or `scratch[..2n]`
//! (`t2` then `t`) when it reorganizes, and hands the rest to its
//! children; a reorganizing leaf holds `scratch[..n]` (`r`). The
//! executor and [`DftPlan::layout`] both read that carving, so the
//! exported layout is the one the traced executor uses. `t2` is dead
//! once the transpose into `t` has read it, so an untraced run's output
//! store reuses it: one more store, inside regions the layout already
//! carves. The executor **writes every scratch point before reading
//! it**: stage 1 fills all of `t` (or `t2`), the transpose fills all of
//! `t`, stage 2 fills all of `t2` before the output transpose reads it,
//! and the leaf gather fills all of `r`, each before anything reads
//! them. So the contents of the scratch passed in never reach the
//! output, and the plan can hand its internally-allocating entry points
//! a reused, dirty buffer from its `ScratchPool`. [`DftPlan::try_run`]
//! remains the explicit-buffer API.
//!
//! # Observation
//!
//! The executor takes one [`Observer`]: a span/stage/counter sink and a
//! memory tracer in one value, each half gated by its own `ENABLED`
//! flag. With [`NullSink`] all instrumentation compiles away. With a
//! cache simulator attached (see [`crate::traced`]), the executor emits one
//! event per point load/store of every stage — leaf reads/writes, twiddle
//! read-modify-writes and reorganization gathers — at the exact simulated
//! addresses. Within a single leaf codelet the emitted order is ascending
//! index, which can differ from the register-level order of the unrolled
//! codelet; the touched line set per leaf is identical, which is the
//! granularity the cache model observes.
//!
//! A traced run executes the paper's schedule: a reorganizing split's
//! stage 2 stores straight into the output at stride `n1`, with no output
//! transpose. The simulator, per-node attribution and
//! [`DftPlan::layout`] therefore keep describing the paper's executor,
//! as they keep the WHT's leaf order under lane batches; the two
//! schedules write bit-identical outputs. Untraced runs, profiled ones
//! included, add the output transpose: one more [`Stage::Reorg`] span of
//! `n` points per reorganizing split. Each transpose emits its trace
//! source row by source row within a tile, whatever order it copies in.
//!
//! # Kernels
//!
//! Each leaf and each twiddle pass runs the kernel measured fastest for
//! its size on the host (DESIGN.md §11), chosen from what the code
//! observes and nothing a caller sets: on an AVX2+FMA host, 32- and
//! 64-point leaves run the vector network of `ddl-backend-simd` and
//! twiddle passes its vector multiply; every other leaf, and every leaf
//! on any other host, runs the scalar codelets of `ddl-kernels`. Both
//! kernels index bounds-checked slices, and both read and
//! write the same points, so the emitted trace does not depend on which
//! one ran.

use crate::engine::TransformKind;
use crate::layout::{self, AccessSet, NodeLayout, PlanLayout, Region, StepKind, REORG_TILE};
use crate::obs::{
    stage_end, stage_start, ExecutionMetrics, NullSink, Observer, Recorder, Sink, SpanInfo,
    SpanKind, Stage,
};
use crate::scratch::ScratchPool;
use crate::tree::Tree;
use crate::DFT_POINT_BYTES;
use ddl_cachesim::MemoryTracer;
use ddl_kernels::{apply_twiddles, dft_leaf_strided};
use ddl_num::{Complex64, DdlError, Direction, TwiddleTable};

/// Errors from plan construction.
///
/// Historically a plan-local enum; now an alias of the workspace-wide
/// [`DdlError`] so plan construction, execution and persistence failures
/// compose in one `Result` chain. The `InvalidTree` variant this module
/// always produced still exists on [`DdlError`].
pub type PlanError = DdlError;

/// A compiled node: the tree shape plus per-split twiddle tables and
/// scratch carving.
#[derive(Clone, Debug)]
struct Compiled {
    n: usize,
    reorg: bool,
    /// Scratch points this node holds for itself at the front of the
    /// scratch it is handed (module docs); its children carve the rest.
    held: usize,
    /// `held` plus the larger child's need.
    scratch_need: usize,
    /// Point offset of this node's twiddle table within the plan's table
    /// region of the simulated address space (tables are data too — the
    /// paper's Shade traces counted their loads).
    tw_offset: usize,
    kind: CompiledKind,
}

#[derive(Clone, Debug)]
enum CompiledKind {
    Leaf,
    Split {
        n1: usize,
        n2: usize,
        /// `tw.as_slice()[j1*n2 + i2] == w_n^{j1*i2}` — matches the
        /// intermediate buffer layout, so the twiddle stage is contiguous.
        tw: TwiddleTable,
        left: Box<Compiled>,
        right: Box<Compiled>,
    },
}

impl Compiled {
    fn build(tree: &Tree, dir: Direction, tw_cursor: &mut usize) -> Compiled {
        match tree {
            Tree::Leaf { n, reorg } => {
                let held = if *reorg { *n } else { 0 };
                Compiled {
                    n: *n,
                    reorg: *reorg,
                    held,
                    scratch_need: held,
                    tw_offset: *tw_cursor,
                    kind: CompiledKind::Leaf,
                }
            }
            Tree::Split { left, right, reorg } => {
                let cl = Compiled::build(left, dir, tw_cursor);
                let cr = Compiled::build(right, dir, tw_cursor);
                let (n1, n2) = (cl.n, cr.n);
                let n = n1 * n2;
                let tw_offset = *tw_cursor;
                *tw_cursor += n;
                // The twiddle table layout matches the intermediate buffer
                // layout so the twiddle stage is a contiguous elementwise
                // pass either way:
                // * non-reorg: t[j1*n2 + i2] needs w^{j1*i2} at
                //   [j1*n2 + i2] — TwiddleTable::new(n2, n1);
                // * reorg: t2[i2*n1 + j1] needs w^{i2*j1} at
                //   [i2*n1 + j1] — TwiddleTable::new(n1, n2).
                let tw = if *reorg {
                    TwiddleTable::new(n1, n2, dir)
                } else {
                    TwiddleTable::new(n2, n1, dir)
                };
                // reorg splits hold both layouts (t2 and t) at once
                let held = if *reorg { 2 * n } else { n };
                Compiled {
                    n,
                    reorg: *reorg,
                    held,
                    scratch_need: held + cl.scratch_need.max(cr.scratch_need),
                    tw_offset,
                    kind: CompiledKind::Split {
                        n1,
                        n2,
                        tw,
                        left: Box::new(cl),
                        right: Box::new(cr),
                    },
                }
            }
        }
    }

    /// Whether a leaf whose input has `stride` gathers it into `r` first.
    fn gathers(&self, stride: usize) -> bool {
        self.reorg && stride > 1
    }

    /// Where stage 1 leaves sub-DFT `i2`'s output: `(step, stride)` for
    /// base `i2·step` in scratch. The static layout interleaves it
    /// (`t[j1·n2 + i2]`), the dynamic one writes it contiguously
    /// (`t2[i2·n1 + j1]`).
    fn stage1_out(&self, n1: usize, n2: usize) -> (usize, usize) {
        if self.reorg {
            (n1, 1)
        } else {
            (1, n2)
        }
    }

    /// Appends this node's record, then its subtree's, to `out`: `read`
    /// and `write` are the last instance's views, `scr` the offset of the
    /// scratch it is handed, `calls` its instance count.
    fn layout(
        &self,
        read: AccessSet,
        write: AccessSet,
        scr: usize,
        calls: u64,
        parent: Option<usize>,
        out: &mut Vec<NodeLayout>,
    ) {
        let n = self.n;
        let idx = out.len();
        let leaf = matches!(self.kind, CompiledKind::Leaf);
        let mut node = NodeLayout::new(n, self.reorg, leaf, parent, calls, read, write);
        let CompiledKind::Split {
            n1,
            n2,
            left,
            right,
            ..
        } = &self.kind
        else {
            let mut src = read;
            if self.gathers(read.stride) {
                src = node.carve("r", scr, n);
                node.step(StepKind::Gather, calls, read, src);
            }
            node.step(StepKind::Leaf, calls, src, write);
            out.push(node);
            return;
        };
        let (n1, n2) = (*n1, *n2);
        // Stage 1 fills the first n points held; stage 2 reads t, the
        // last n (the same points unless the node reorganizes).
        let staged = node.carve(if self.reorg { "t2" } else { "t" }, scr, n);
        let t = if self.reorg {
            node.carve("t", scr + n, n)
        } else {
            staged
        };
        let rest = scr + self.held;
        let _ = node.carve("rest", rest, self.scratch_need - self.held);
        let table = AccessSet::new(Region::Twiddle, self.tw_offset, 1, n);
        node.step(StepKind::Twiddle, calls, table, staged);
        if self.reorg {
            // The transpose copies each of t2's n2 rows in tile rows of
            // up to REORG_TILE points: `full` whole ones, then the tail.
            // Each family records its tile row of t2's row 0.
            let row = REORG_TILE.min(n1);
            let full = n1 / row;
            for (c0, len, count) in [(0, row, full), (full * row, n1 % row, 1)] {
                let rows = calls * (n2 * count) as u64;
                if len > 0 {
                    let (src, dst) = (staged.sub(c0, 1, len), t.sub(c0 * n2, n2, len));
                    node.step(StepKind::TransposeRow, rows, src, dst);
                }
            }
        }
        out.push(node);
        // The last instance of each stage: i2 = n2 - 1, j1 = n1 - 1.
        let (step, stride) = self.stage1_out(n1, n2);
        let (lr, lw) = (
            read.sub(n2 - 1, n2, n1),
            staged.sub((n2 - 1) * step, stride, n1),
        );
        left.layout(lr, lw, rest, calls * n2 as u64, Some(idx), out);
        let (rr, rw) = (t.sub(n2 * (n1 - 1), 1, n2), write.sub(n1 - 1, n1, n2));
        right.layout(rr, rw, rest, calls * n1 as u64, Some(idx), out);
    }
}

/// A read-only strided view descriptor plus its simulated base address.
#[derive(Clone, Copy)]
struct View {
    base: usize,
    stride: usize,
    /// Byte address of element index 0 of the *slice* in the simulated
    /// address space (only read when tracing).
    addr: u64,
}

impl View {
    #[inline(always)]
    fn elem_addr(&self, i: usize) -> u64 {
        self.addr + ((self.base + i * self.stride) * DFT_POINT_BYTES) as u64
    }
}

/// The buffers of one [`DftPlan::try_run`]: `n` points read from
/// `input[in_base + i·in_stride]` and written to
/// `output[out_base + j·out_stride]`. [`DftPlan::try_run`] validates the
/// views against the buffers.
pub struct DftViews<'a> {
    input: &'a [Complex64],
    in_base: usize,
    in_stride: usize,
    output: &'a mut [Complex64],
    out_base: usize,
    out_stride: usize,
    /// Simulated byte addresses of `[input, output, scratch, twiddle
    /// tables]`, assigned by the simulation harness and read only when
    /// the observer traces.
    pub(crate) addrs: [u64; 4],
}

impl<'a> DftViews<'a> {
    /// Unit-stride views of both buffers from index 0.
    pub fn new(input: &'a [Complex64], output: &'a mut [Complex64]) -> DftViews<'a> {
        DftViews {
            input,
            in_base: 0,
            in_stride: 1,
            output,
            out_base: 0,
            out_stride: 1,
            addrs: Default::default(),
        }
    }

    /// Reads the input at `input[base + i·stride]`.
    #[must_use]
    pub fn input_at(mut self, base: usize, stride: usize) -> DftViews<'a> {
        self.in_base = base;
        self.in_stride = stride;
        self
    }

    /// Writes the output at `output[base + j·stride]`.
    #[must_use]
    pub fn output_at(mut self, base: usize, stride: usize) -> DftViews<'a> {
        self.out_base = base;
        self.out_stride = stride;
        self
    }
}

/// A compiled, executable DFT of one size and direction.
#[derive(Clone, Debug)]
pub struct DftPlan {
    tree: Tree,
    dir: Direction,
    root: Compiled,
    twiddle_points: usize,
    /// Scratch for the internally-allocating entry points, shared
    /// across clones and allocated on first use.
    scratch: ScratchPool<Complex64>,
}

impl DftPlan {
    /// Compiles `tree` for the given direction.
    pub fn new(tree: Tree, dir: Direction) -> Result<DftPlan, PlanError> {
        tree.validate().map_err(PlanError::InvalidTree)?;
        let mut tw_cursor = 0usize;
        let root = Compiled::build(&tree, dir, &mut tw_cursor);
        Ok(DftPlan {
            tree,
            dir,
            root,
            twiddle_points: tw_cursor,
            scratch: ScratchPool::new(),
        })
    }

    /// Total twiddle-factor points across all split nodes — the size of
    /// the table region a simulated address space should reserve.
    pub fn twiddle_points(&self) -> usize {
        self.twiddle_points
    }

    /// Convenience: compile the tree parsed from a grammar expression.
    ///
    /// Parse failures surface as [`DdlError::Parse`] with the byte
    /// position of the error.
    pub fn from_expr(expr: &str, dir: Direction) -> Result<DftPlan, PlanError> {
        let tree = crate::grammar::parse(expr)?;
        DftPlan::new(tree, dir)
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.root.n
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The factorization tree this plan executes.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Scratch requirement in points for [`Self::try_run`].
    pub fn scratch_len(&self) -> usize {
        self.root.scratch_need
    }

    /// The execution layout ([`crate::layout`]) of one traced run (module
    /// docs, *Observation*) with the input read at `root_stride` and the
    /// output written at unit stride, from index 0 of buffers of the
    /// minimal spans. Returns
    /// [`DdlError::InvalidStride`] when those spans overflow the address
    /// space.
    pub fn layout(&self, root_stride: usize) -> Result<PlanLayout, DdlError> {
        let n = self.n();
        let mut layout = PlanLayout::new(
            DFT_POINT_BYTES,
            vec![
                (Region::Input, layout::span(n, root_stride)?),
                (Region::Output, n),
                (Region::Scratch, self.scratch_len()),
                (Region::Twiddle, self.twiddle_points),
            ],
        )?;
        self.root.layout(
            AccessSet::new(Region::Input, 0, root_stride, n),
            AccessSet::new(Region::Output, 0, 1, n),
            0,
            1,
            None,
            &mut layout.nodes,
        );
        Ok(layout)
    }

    /// Scratch buffers this plan and its clones currently hold for reuse
    /// — at most the peak number of concurrent internally-scratched
    /// executions so far.
    pub fn pooled_scratch(&self) -> usize {
        self.scratch.pooled()
    }

    /// Fallible out-of-place execution on the plan's own scratch.
    ///
    /// Returns [`DdlError::ShapeMismatch`] when `input` or `output` is
    /// shorter than `n`. Allocates only when no pooled buffer is free
    /// (the first call, or concurrent calls on one plan).
    pub fn try_execute(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
    ) -> Result<(), DdlError> {
        self.try_run_pooled(DftViews::new(input, output), &mut NullSink)
    }

    /// Fallible in-place execution: `data[..n]` is replaced by its DFT.
    ///
    /// The executor is fundamentally out-of-place (the self-sorting
    /// recursion reads and writes different locations), so this copies
    /// the input into scratch first — one extra pass, the same trade
    /// FFTW's in-place interface makes.
    pub fn try_execute_inplace(&self, data: &mut [Complex64]) -> Result<(), DdlError> {
        let n = self.n();
        if data.len() < n {
            return Err(DdlError::shape(
                "execute_inplace: buffer too short",
                n,
                data.len(),
            ));
        }
        self.scratch.with(self.scratch_len() + n, |scratch| {
            let (copy, rest) = scratch.split_at_mut(n);
            copy.copy_from_slice(&data[..n]);
            self.try_run(DftViews::new(copy, data), rest, &mut NullSink)
        })
    }

    /// [`DftPlan::try_run`] on the plan's own scratch.
    pub(crate) fn try_run_pooled<O: Observer>(
        &self,
        views: DftViews<'_>,
        obs: &mut O,
    ) -> Result<(), DdlError> {
        self.scratch.with(self.scratch_len(), |scratch| {
            self.try_run(views, scratch, obs)
        })
    }

    /// Full-control entry point: strided input/output views, explicit
    /// scratch (at least [`Self::scratch_len`] points) and one
    /// [`Observer`]. The observer's sink half times every stage span
    /// (leaf codelets, twiddle passes, reorganizations) — the measurable
    /// form of the paper's Eq. (2)/(3) decomposition — and its tracing
    /// half receives every point load and store at the simulated
    /// addresses the simulation harness ([`crate::traced`]) assigned to
    /// the views. With [`NullSink`] both halves compile away.
    ///
    /// This is the hook the planner (timing a subproblem "`n`-point DFT
    /// at stride `s`", paper Section IV-B), the simulation harness and
    /// callers managing their own scratch use.
    pub fn try_run<O: Observer>(
        &self,
        views: DftViews<'_>,
        scratch: &mut [Complex64],
        obs: &mut O,
    ) -> Result<(), DdlError> {
        let DftViews {
            input,
            in_base,
            in_stride,
            output,
            out_base,
            out_stride,
            addrs,
        } = views;
        let n = self.n();
        // Overflow-checked view validation: a malicious (base, stride)
        // pair must produce an error, not wrap around and index wild.
        let view_end = |base: usize, stride: usize| -> Option<usize> {
            (n - 1)
                .checked_mul(stride)
                .and_then(|s| s.checked_add(base))
        };
        if n > 1 && in_stride == 0 {
            return Err(DdlError::InvalidStride {
                detail: format!("input view out of bounds: stride 0 for {n}-point view"),
            });
        }
        if n > 1 && out_stride == 0 {
            return Err(DdlError::InvalidStride {
                detail: format!("output view out of bounds: stride 0 for {n}-point view"),
            });
        }
        match view_end(in_base, in_stride) {
            Some(last) if last < input.len() => {}
            _ => {
                return Err(DdlError::InvalidStride {
                    detail: format!(
                        "input view out of bounds: base {in_base} stride {in_stride} \
                         n {n} over {} elements",
                        input.len()
                    ),
                })
            }
        }
        match view_end(out_base, out_stride) {
            Some(last) if last < output.len() => {}
            _ => {
                return Err(DdlError::InvalidStride {
                    detail: format!(
                        "output view out of bounds: base {out_base} stride {out_stride} \
                         n {n} over {} elements",
                        output.len()
                    ),
                })
            }
        }
        if scratch.len() < self.scratch_len() {
            return Err(DdlError::shape(
                "scratch too small",
                self.scratch_len(),
                scratch.len(),
            ));
        }
        exec(
            &self.root,
            self.dir,
            input,
            View {
                base: in_base,
                stride: in_stride,
                addr: addrs[0],
            },
            output,
            View {
                base: out_base,
                stride: out_stride,
                addr: addrs[1],
            },
            scratch,
            addrs[2],
            addrs[3],
            obs,
        );
        Ok(())
    }

    /// Executes once on the plan's own scratch with `recorder` attached
    /// and returns the per-stage breakdown: wall-clock total plus the
    /// leaf/twiddle/reorg split of the paper's Eq. (2)/(3), stage
    /// call/point counts and a leaf flop estimate. The recorder also
    /// captures the hierarchical trace timeline (an `execution` span
    /// wrapping one `node` span per tree node) for export via
    /// [`crate::trace`]. The returned metrics summarize the recorder's
    /// accumulated totals, so pass a fresh recorder for single-run
    /// numbers.
    pub fn try_profile_with(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
        recorder: &mut Recorder,
    ) -> Result<ExecutionMetrics, DdlError> {
        let total_ns = self.scratch.with(self.scratch_len(), |scratch| {
            recorder.span_begin(SpanInfo {
                kind: SpanKind::Execution,
                label: "dft",
                size: self.n(),
                stride: 1,
                reorg: self.root.reorg,
                backend: kernel_set(),
            });
            let t0 = std::time::Instant::now();
            let result = self.try_run(DftViews::new(input, output), scratch, recorder);
            let total_ns = t0.elapsed().as_nanos() as u64;
            recorder.span_end();
            result.map(|()| total_ns)
        })?;
        Ok(ExecutionMetrics::from_recorder(
            total_ns,
            recorder,
            crate::obs::tree_leaf_flops(&self.tree, true),
        ))
    }
}

/// Recursive executor. `sv`/`dv` describe the input/output views into
/// `x`/`y`; `scr_addr` is the simulated byte address of `scratch[0]`.
#[allow(clippy::too_many_arguments)]
fn exec<O: Observer>(
    node: &Compiled,
    dir: Direction,
    x: &[Complex64],
    sv: View,
    y: &mut [Complex64],
    dv: View,
    scratch: &mut [Complex64],
    scr_addr: u64,
    tw_addr: u64,
    obs: &mut O,
) {
    let n = node.n;
    if O::SINK {
        obs.span_begin(SpanInfo {
            kind: SpanKind::Node,
            label: "dft",
            size: n,
            stride: sv.stride,
            reorg: node.reorg,
            backend: kernel_set(),
        });
    }
    match &node.kind {
        CompiledKind::Leaf => {
            if node.gathers(sv.stride) {
                // Leaf reorganization: compact the strided input into
                // contiguous scratch, then run the codelet at unit stride.
                let t0 = stage_start::<O>();
                let (r, _) = scratch.split_at_mut(n);
                for (i, ri) in r.iter_mut().enumerate() {
                    *ri = x[sv.base + i * sv.stride];
                }
                stage_end(obs, Stage::Reorg, t0, n as u64);
                if O::TRACE {
                    for i in 0..n {
                        obs.read(sv.elem_addr(i), DFT_POINT_BYTES as u32);
                        obs.write(
                            scr_addr + (i * DFT_POINT_BYTES) as u64,
                            DFT_POINT_BYTES as u32,
                        );
                    }
                }
                let rv = View {
                    base: 0,
                    stride: 1,
                    addr: scr_addr,
                };
                leaf(n, dir, r, rv, y, dv, obs);
            } else {
                leaf(n, dir, x, sv, y, dv, obs);
            }
        }
        CompiledKind::Split {
            n1,
            n2,
            tw,
            left,
            right,
        } => {
            let (n1, n2) = (*n1, *n2);
            // Stage 1 writes scratch[..n]. The static layout interleaves
            // it (t[j1*n2 + i2], stride n2) — the strided-write pathology
            // DDL removes. Dynamic data layout (paper Fig. 5) writes each
            // sub-DFT contiguously (t2[i2*n1 + j1]) and a tiled transpose
            // reorganizes t2 into t between the stages, so a reorganizing
            // node holds both layouts at once: t is the last n points
            // held, the first n unless the node reorganizes.
            let (own, rest) = scratch.split_at_mut(node.held);
            let (staged, t) = own.split_at_mut(n);
            let rest_addr = scr_addr + (node.held * DFT_POINT_BYTES) as u64;
            let (step, stride) = node.stage1_out(n1, n2);

            // Stage 1: left child reads x at stride n2*s (Property 1).
            for i2 in 0..n2 {
                let lv = View {
                    base: sv.base + i2 * sv.stride,
                    stride: n2 * sv.stride,
                    addr: sv.addr,
                };
                let sv1 = View {
                    base: i2 * step,
                    stride,
                    addr: scr_addr,
                };
                exec(left, dir, x, lv, staged, sv1, rest, rest_addr, tw_addr, obs);
            }

            // Twiddle pass over the stage-1 buffer (table laid out to
            // match).
            let t0 = stage_start::<O>();
            twiddle_pass(staged, tw);
            stage_end(obs, Stage::Twiddle, t0, n as u64);
            if O::TRACE {
                trace_twiddle(
                    n,
                    scr_addr,
                    tw_addr + (node.tw_offset * DFT_POINT_BYTES) as u64,
                    obs,
                );
            }

            // The reorganization Dr: tiled transpose of the n2 x n1
            // row-major t2 into t[j1*n2 + i2]. Past it t2 is spent: an
            // untraced run takes it back as stage 2's output buffer.
            let t_addr = scr_addr + ((node.held - n) * DFT_POINT_BYTES) as u64;
            let (t, mut t2): (&[Complex64], Option<&mut [Complex64]>) = if node.reorg {
                let t0 = stage_start::<O>();
                let tv = View {
                    base: 0,
                    stride: 1,
                    addr: t_addr,
                };
                transpose(staged, scr_addr, t, tv, n2, n1, obs);
                stage_end(obs, Stage::Reorg, t0, n as u64);
                (t, (!O::TRACE).then_some(staged))
            } else {
                (staged, None)
            };

            // Stage 2: right child reads t at unit stride and writes
            // y[base + (j1 + n1*j2)*stride] — or, into t2, each sub-DFT
            // contiguously (t2[j1*n2 + j2]).
            for j1 in 0..n1 {
                let rv = View {
                    base: n2 * j1,
                    stride: 1,
                    addr: t_addr,
                };
                if let Some(t2) = t2.as_deref_mut() {
                    let wv = View {
                        addr: scr_addr,
                        ..rv
                    };
                    exec(right, dir, t, rv, t2, wv, rest, rest_addr, tw_addr, obs);
                } else {
                    let yv = View {
                        base: dv.base + j1 * dv.stride,
                        stride: n1 * dv.stride,
                        addr: dv.addr,
                    };
                    exec(right, dir, t, rv, y, yv, rest, rest_addr, tw_addr, obs);
                }
            }

            // The output permutation: tiled transpose of the n1 x n2
            // row-major t2 into y[base + (j1 + n1*j2)*stride].
            if let Some(t2) = t2 {
                let t0 = stage_start::<O>();
                transpose(t2, scr_addr, y, dv, n1, n2, obs);
                stage_end(obs, Stage::Reorg, t0, n as u64);
            }
        }
    }
    if O::SINK {
        obs.span_end();
    }
}

/// The DFT kernel set this process runs (module docs, *Kernels*):
/// `"avx2"` when the vector kernels run, else `"scalar"`.
pub fn kernel_set() -> &'static str {
    if ddl_backend_simd::profitable_isa() {
        ddl_backend_simd::active_isa()
    } else {
        "scalar"
    }
}

/// The kernel set a transform kind runs on: [`kernel_set`] for the DFT
/// (and the real FFT built on it), `"scalar"` for the WHT, which has no
/// vector kernels. The `backend` label of spans, flight capsules,
/// service histograms and replies, and bench cases.
pub fn kernel_set_for(kind: TransformKind) -> &'static str {
    match kind {
        TransformKind::Dft(_) => kernel_set(),
        TransformKind::Wht => "scalar",
    }
}

/// Executes one leaf codelet and emits its trace. The vector network
/// runs where it beats the scalar codelets on this host (32 and 64
/// points on AVX2, `ddl_backend_simd::profitable_size`); the scalar
/// codelets run everywhere else.
fn leaf<O: Observer>(
    n: usize,
    dir: Direction,
    x: &[Complex64],
    sv: View,
    y: &mut [Complex64],
    dv: View,
    obs: &mut O,
) {
    let t0 = stage_start::<O>();
    if !(ddl_backend_simd::profitable_size(n)
        && ddl_backend_simd::dft_leaf_strided_simd(
            n, dir, x, sv.base, sv.stride, y, dv.base, dv.stride,
        ))
    {
        dft_leaf_strided(n, dir, x, sv.base, sv.stride, y, dv.base, dv.stride);
    }
    stage_end(obs, Stage::Leaf, t0, n as u64);
    if O::TRACE {
        for i in 0..n {
            obs.read(sv.elem_addr(i), DFT_POINT_BYTES as u32);
        }
        for j in 0..n {
            obs.write(dv.elem_addr(j), DFT_POINT_BYTES as u32);
        }
    }
}

/// Applies the inter-stage twiddle pass through the vector multiply on
/// an AVX2 host (`ddl_backend_simd::profitable_isa`), or the scalar
/// loop elsewhere.
fn twiddle_pass(buf: &mut [Complex64], tw: &TwiddleTable) {
    if !(ddl_backend_simd::profitable_isa()
        && ddl_backend_simd::apply_twiddles_simd(buf, 0, tw.as_slice()))
    {
        apply_twiddles(buf, 0, tw);
    }
}

/// Emits the trace of a contiguous twiddle pass: per point, one load of
/// the twiddle factor (tables are data, as in the paper's Shade traces)
/// and a read-modify-write of the intermediate buffer.
fn trace_twiddle<T: MemoryTracer>(n: usize, addr: u64, table_addr: u64, tr: &mut T) {
    for i in 0..n {
        let a = addr + (i * DFT_POINT_BYTES) as u64;
        tr.read(
            table_addr + (i * DFT_POINT_BYTES) as u64,
            DFT_POINT_BYTES as u32,
        );
        tr.read(a, DFT_POINT_BYTES as u32);
        tr.write(a, DFT_POINT_BYTES as u32);
    }
}

/// Tiled out-of-place transpose of the `rows x cols` row-major `src` into
/// the view `dv` of `dst` (so `dst[dv.base + (c*rows + r)*dv.stride] =
/// src[r*cols + c]`). Each tile copies with the destination index
/// innermost; the trace visits the tile's points source row by source
/// row, the paper's order, which the simulator models.
fn transpose<T: MemoryTracer>(
    src: &[Complex64],
    src_addr: u64,
    dst: &mut [Complex64],
    dv: View,
    rows: usize,
    cols: usize,
    tr: &mut T,
) {
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + REORG_TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + REORG_TILE).min(cols);
            for c in c0..c1 {
                for r in r0..r1 {
                    dst[dv.base + (c * rows + r) * dv.stride] = src[r * cols + c];
                }
            }
            if T::ENABLED {
                for r in r0..r1 {
                    for c in c0..c1 {
                        tr.read(
                            src_addr + ((r * cols + c) * DFT_POINT_BYTES) as u64,
                            DFT_POINT_BYTES as u32,
                        );
                        tr.write(dv.elem_addr(c * rows + r), DFT_POINT_BYTES as u32);
                    }
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use ddl_kernels::naive_dft;
    use ddl_num::relative_rms_error;

    fn sample(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.17).sin(), (i as f64 * 0.59).cos() * 0.5))
            .collect()
    }

    fn check_tree(tree: Tree, dir: Direction) {
        let n = tree.size();
        let plan = DftPlan::new(tree.clone(), dir).unwrap();
        let x = sample(n);
        let mut y = vec![Complex64::ZERO; n];
        plan.try_execute(&x, &mut y).unwrap();
        let want = naive_dft(&x, dir);
        let err = relative_rms_error(&y, &want);
        assert!(err < 1e-11, "tree {tree} dir {dir:?}: err = {err:e}");
    }

    #[test]
    fn single_split_matches_naive() {
        check_tree(
            Tree::split(Tree::leaf(4), Tree::leaf(8)),
            Direction::Forward,
        );
        check_tree(
            Tree::split(Tree::leaf(8), Tree::leaf(4)),
            Direction::Inverse,
        );
    }

    #[test]
    fn deep_rightmost_tree() {
        check_tree(Tree::rightmost(1 << 10, 8), Direction::Forward);
        check_tree(Tree::rightmost(1 << 10, 8), Direction::Inverse);
    }

    #[test]
    fn balanced_tree() {
        check_tree(Tree::balanced(1 << 10, 8), Direction::Forward);
    }

    #[test]
    fn leftmost_tree() {
        // stress the left spine: ct(ct(ct(4,4),4),4)
        let t = Tree::split(
            Tree::split(Tree::split(Tree::leaf(4), Tree::leaf(4)), Tree::leaf(4)),
            Tree::leaf(4),
        );
        check_tree(t, Direction::Forward);
    }

    #[test]
    fn ddl_flags_do_not_change_results() {
        for expr in [
            "ctddl(16, 16)",
            "ct(ddl(8), ct(8, 4))",
            "ctddl(ctddl(8, 8), ct(4, 4))",
            "ct(ctddl(4, 8), ddl(8))",
        ] {
            let tree = crate::grammar::parse(expr).unwrap();
            check_tree(tree.clone(), Direction::Forward);
            check_tree(tree, Direction::Inverse);
        }
    }

    #[test]
    fn non_pow2_factorization() {
        // 6 * 10 = 60 with naive leaves
        let t = Tree::split(Tree::leaf(6), Tree::leaf(10));
        check_tree(t, Direction::Forward);
        let t3 = Tree::split(Tree::leaf(3), Tree::split(Tree::leaf(5), Tree::leaf(4)));
        check_tree(t3, Direction::Forward);
    }

    #[test]
    fn strided_views_work() {
        let tree = Tree::split(Tree::leaf(8), Tree::leaf(8));
        let plan = DftPlan::new(tree, Direction::Forward).unwrap();
        let n = 64;
        let (ss, ds) = (3usize, 2usize);
        let big = sample(n * ss + 1);
        let mut out = vec![Complex64::ZERO; n * ds + 1];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        let views = DftViews::new(&big, &mut out)
            .input_at(1, ss)
            .output_at(1, ds);
        plan.try_run(views, &mut scratch, &mut NullSink).unwrap();
        let x: Vec<Complex64> = (0..n).map(|i| big[1 + i * ss]).collect();
        let got: Vec<Complex64> = (0..n).map(|i| out[1 + i * ds]).collect();
        let want = naive_dft(&x, Direction::Forward);
        assert!(relative_rms_error(&got, &want) < 1e-11);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let tree = Tree::rightmost(1 << 8, 8);
        let fwd = DftPlan::new(tree.clone(), Direction::Forward).unwrap();
        let inv = DftPlan::new(tree, Direction::Inverse).unwrap();
        let x = sample(1 << 8);
        let mut f = vec![Complex64::ZERO; 1 << 8];
        let mut b = vec![Complex64::ZERO; 1 << 8];
        fwd.try_execute(&x, &mut f).unwrap();
        inv.try_execute(&f, &mut b).unwrap();
        let back: Vec<Complex64> = b.iter().map(|v| v.scale(1.0 / 256.0)).collect();
        assert!(relative_rms_error(&back, &x) < 1e-11);
    }

    #[test]
    fn scratch_len_is_sufficient_and_reported() {
        let tree = crate::grammar::parse("ctddl(ctddl(8, 8), ct(8, 8))").unwrap();
        let plan = DftPlan::new(tree, Direction::Forward).unwrap();
        // exactly scratch_len points must be enough
        let n = plan.n();
        let x = sample(n);
        let mut y = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.try_run(DftViews::new(&x, &mut y), &mut scratch, &mut NullSink)
            .unwrap();
        let want = naive_dft(&x, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-11);
    }

    #[test]
    fn execute_inplace_matches_out_of_place() {
        let plan = DftPlan::from_expr("ct(16, ct(8, 8))", Direction::Forward).unwrap();
        let n = plan.n();
        let x = sample(n);
        let mut inplace = x.clone();
        plan.try_execute_inplace(&mut inplace).unwrap();
        let mut oop = vec![Complex64::ZERO; n];
        plan.try_execute(&x, &mut oop).unwrap();
        assert_eq!(inplace, oop);
    }

    #[test]
    fn from_expr_compiles_and_runs() {
        let plan = DftPlan::from_expr("ct(2^5, 2^5)", Direction::Forward).unwrap();
        assert_eq!(plan.n(), 1024);
        let x = sample(1024);
        let mut y = vec![Complex64::ZERO; 1024];
        plan.try_execute(&x, &mut y).unwrap();
        let want = naive_dft(&x, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-11);
    }

    #[test]
    fn invalid_tree_is_rejected() {
        let bad = Tree::split(Tree::leaf(1), Tree::leaf(4));
        assert!(DftPlan::new(bad, Direction::Forward).is_err());
    }

    #[test]
    fn short_input_is_an_error() {
        let plan = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let x = vec![Complex64::ZERO; 8];
        let mut y = vec![Complex64::ZERO; 16];
        let err = plan.try_execute(&x, &mut y).unwrap_err();
        assert!(
            err.to_string().contains("input view out of bounds"),
            "{err}"
        );
    }
}
