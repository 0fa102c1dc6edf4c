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
//! (self-sorting) instead of a separate pass.
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
//!   stride.
//!
//! The tiled transpose moves the same `n` points the interleaved writes
//! would, but touches each cache line `O(1)` times instead of once per
//! point — it is the `Dr` term of the paper's Eq. (2), implemented with
//! the `ddl-layout` primitives. A *leaf* flagged `reorg` gathers its
//! strided input into contiguous scratch first (the paper's Fig. 6
//! picture at leaf granularity).
//!
//! # Scratch ownership
//!
//! A node of size `n` uses `scratch[..n]` (`t`), or `scratch[..2n]`
//! (`t2` then `t`) when it reorganizes, and hands the rest to its
//! children; a reorganizing leaf uses `scratch[..n]` (`r`). The
//! executor **writes every scratch point before reading it**: stage 1
//! fills all of `t` (or `t2`), the transpose fills all of `t`, and the
//! leaf gather fills all of `r`, each before anything reads them. So the
//! contents of the scratch passed in never reach the output, and the
//! plan can hand its internally-allocating entry points a reused, dirty
//! buffer from its `ScratchPool`.
//! [`DftPlan::execute_with_scratch`] and [`DftPlan::try_execute_view`]
//! remain the explicit-buffer API.
//!
//! # Tracing
//!
//! The executor is generic over [`MemoryTracer`]. With the default
//! [`NullTracer`] all trace code compiles away (`MemoryTracer::ENABLED`
//! is `false`). With a cache simulator attached, the executor emits one
//! event per point load/store of every stage — leaf reads/writes, twiddle
//! read-modify-writes and reorganization gathers — at the exact simulated
//! addresses. Within a single leaf codelet the emitted order is ascending
//! index, which can differ from the register-level order of the unrolled
//! codelet; the touched line set per leaf is identical, which is the
//! granularity the cache model observes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backend::{self, BackendKind};
use crate::obs::{
    stage_end, stage_start, Counter, ExecutionMetrics, NullSink, Recorder, Sink, SpanInfo,
    SpanKind, Stage,
};
use crate::scratch::ScratchPool;
use crate::tree::Tree;
use crate::DFT_POINT_BYTES;
use ddl_cachesim::{MemoryTracer, NullTracer};
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
/// scratch accounting.
#[derive(Clone, Debug)]
struct Compiled {
    n: usize,
    reorg: bool,
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
            Tree::Leaf { n, reorg } => Compiled {
                n: *n,
                reorg: *reorg,
                scratch_need: if *reorg { *n } else { 0 },
                tw_offset: *tw_cursor,
                kind: CompiledKind::Leaf,
            },
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
                let child_need = cl.scratch_need.max(cr.scratch_need);
                // reorg splits hold both layouts (t2 and t) at once
                Compiled {
                    n,
                    reorg: *reorg,
                    scratch_need: if *reorg { 2 * n } else { n } + child_need,
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

/// A compiled, executable DFT of one size and direction.
#[derive(Clone, Debug)]
pub struct DftPlan {
    tree: Tree,
    dir: Direction,
    root: Compiled,
    twiddle_points: usize,
    backend: BackendKind,
    /// Dispatch-time fallbacks to `Scalar` observed by this plan, shared
    /// across clones so batch executors can diff it around a run.
    backend_fallbacks: Arc<AtomicU64>,
    /// Scratch for the internally-allocating entry points, shared
    /// across clones and allocated on first use.
    scratch: ScratchPool<Complex64>,
}

impl DftPlan {
    /// Compiles `tree` for the given direction with the process-default
    /// execution backend ([`BackendKind::selected`]).
    pub fn new(tree: Tree, dir: Direction) -> Result<DftPlan, PlanError> {
        DftPlan::with_backend(tree, dir, BackendKind::selected())
    }

    /// Compiles `tree` for the given direction and an explicit leaf
    /// execution backend.
    pub fn with_backend(
        tree: Tree,
        dir: Direction,
        backend: BackendKind,
    ) -> Result<DftPlan, PlanError> {
        tree.validate().map_err(PlanError::InvalidTree)?;
        let mut tw_cursor = 0usize;
        let root = Compiled::build(&tree, dir, &mut tw_cursor);
        Ok(DftPlan {
            tree,
            dir,
            root,
            twiddle_points: tw_cursor,
            backend,
            backend_fallbacks: Arc::new(AtomicU64::new(0)),
            scratch: ScratchPool::new(),
        })
    }

    /// The leaf execution backend this plan was compiled for.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// How many executions of this plan (and its clones) degraded to the
    /// `Scalar` backend at dispatch time.
    pub fn backend_fallbacks(&self) -> u64 {
        self.backend_fallbacks.load(Ordering::Relaxed)
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

    /// Scratch requirement in points for [`Self::execute_with_scratch`].
    pub fn scratch_len(&self) -> usize {
        self.root.scratch_need
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
        self.scratch.with(self.scratch_len(), |scratch| {
            self.try_execute_view(input, 0, 1, output, 0, 1, scratch, &mut NullTracer, [0; 4])
        })
    }

    /// Executes out of place on the plan's own scratch.
    ///
    /// `input.len()` and `output.len()` must both be at least `n`.
    /// Panicking wrapper over [`DftPlan::try_execute`].
    pub fn execute(&self, input: &[Complex64], output: &mut [Complex64]) {
        if let Err(e) = self.try_execute(input, output) {
            // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
            panic!("{e}");
        }
    }

    /// Fallible in-place execution: `data[..n]` is replaced by its DFT.
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
            self.try_execute_view(copy, 0, 1, data, 0, 1, rest, &mut NullTracer, [0; 4])
        })
    }

    /// Executes in place: `data[..n]` is replaced by its DFT.
    ///
    /// The executor is fundamentally out-of-place (the self-sorting
    /// recursion reads and writes different locations), so this
    /// convenience copies the input into scratch first — one extra pass,
    /// the same trade FFTW's in-place interface makes.
    ///
    /// Panicking wrapper over [`DftPlan::try_execute_inplace`].
    pub fn execute_inplace(&self, data: &mut [Complex64]) {
        if let Err(e) = self.try_execute_inplace(data) {
            // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
            panic!("{e}");
        }
    }

    /// Executes out of place using caller-provided scratch (resized as
    /// needed). Reusing scratch across calls avoids per-call allocation.
    pub fn execute_with_scratch(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
        scratch: &mut Vec<Complex64>,
    ) {
        if scratch.len() < self.scratch_len() {
            scratch.resize(self.scratch_len(), Complex64::ZERO);
        }
        self.execute_view(input, 0, 1, output, 0, 1, scratch, &mut NullTracer, [0; 4]);
    }

    /// Full-control entry point: strided input/output views, explicit
    /// scratch, an arbitrary tracer and simulated base addresses
    /// `[input, output, scratch, twiddle tables]` (in bytes; only read
    /// when tracing — the table region spans
    /// [`Self::twiddle_points`] points).
    ///
    /// This is the hook both the planner (timing a subproblem "`n`-point
    /// DFT at stride `s`", paper Section IV-B) and the cache simulation
    /// driver use.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_view<T: MemoryTracer>(
        &self,
        input: &[Complex64],
        in_base: usize,
        in_stride: usize,
        output: &mut [Complex64],
        out_base: usize,
        out_stride: usize,
        scratch: &mut [Complex64],
        tracer: &mut T,
        addrs: [u64; 4],
    ) -> Result<(), DdlError> {
        self.try_execute_view_observed(
            input,
            in_base,
            in_stride,
            output,
            out_base,
            out_stride,
            scratch,
            tracer,
            addrs,
            &mut NullSink,
        )
    }

    /// [`DftPlan::try_execute_view`] with an observability sink: every
    /// stage span (leaf codelets, twiddle passes, reorganizations) is
    /// timed into `sink`, giving the measurable form of the paper's
    /// Eq. (2)/(3) decomposition. With [`NullSink`] this *is*
    /// `try_execute_view` — the stage timers compile away.
    #[allow(clippy::too_many_arguments)]
    pub fn try_execute_view_observed<T: MemoryTracer, S: Sink>(
        &self,
        input: &[Complex64],
        in_base: usize,
        in_stride: usize,
        output: &mut [Complex64],
        out_base: usize,
        out_stride: usize,
        scratch: &mut [Complex64],
        tracer: &mut T,
        addrs: [u64; 4],
        sink: &mut S,
    ) -> Result<(), DdlError> {
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
        // Resolve the backend once per execution, not per leaf: the
        // dispatch probe (feature detection / fault point) happens here
        // and the whole recursion runs on the effective backend.
        let (effective, fell_back) = backend::resolve(self.backend);
        if fell_back {
            self.backend_fallbacks.fetch_add(1, Ordering::Relaxed);
            if S::ENABLED {
                sink.counter(Counter::BackendFallback, 1);
            }
        }
        exec(
            &self.root,
            self.dir,
            effective,
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
            tracer,
            sink,
        );
        Ok(())
    }

    /// Executes once with a fresh [`Recorder`] attached and returns the
    /// per-stage breakdown: wall-clock total plus the leaf/twiddle/reorg
    /// split of the paper's Eq. (2)/(3), stage call/point counts and a
    /// leaf flop estimate. Runs on the plan's own scratch.
    pub fn try_profile(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
    ) -> Result<ExecutionMetrics, DdlError> {
        let mut recorder = Recorder::new();
        self.try_profile_with(input, output, &mut recorder)
    }

    /// [`DftPlan::try_profile`] into a caller-provided recorder, which
    /// additionally captures the hierarchical trace timeline (an
    /// `execution` span wrapping one `node` span per tree node) for
    /// export via [`crate::trace`]. The returned metrics summarize the
    /// recorder's accumulated totals, so pass a fresh recorder for
    /// single-run numbers.
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
                backend: self.backend.label(),
            });
            let t0 = std::time::Instant::now();
            let result = self.try_execute_view_observed(
                input,
                0,
                1,
                output,
                0,
                1,
                scratch,
                &mut NullTracer,
                [0; 4],
                recorder,
            );
            let total_ns = t0.elapsed().as_nanos() as u64;
            recorder.span_end();
            result.map(|()| total_ns)
        })?;
        Ok(ExecutionMetrics::from_recorder(
            "dft",
            self.n(),
            self.tree.to_string(),
            total_ns,
            recorder,
            crate::obs::tree_leaf_flops(&self.tree, true),
        ))
    }

    /// Panicking wrapper over [`DftPlan::try_execute_view`]; the hot-path
    /// entry point used by the planner and the simulation driver, where
    /// views are computed by the library itself and failures are bugs.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_view<T: MemoryTracer>(
        &self,
        input: &[Complex64],
        in_base: usize,
        in_stride: usize,
        output: &mut [Complex64],
        out_base: usize,
        out_stride: usize,
        scratch: &mut [Complex64],
        tracer: &mut T,
        addrs: [u64; 4],
    ) {
        if let Err(e) = self.try_execute_view(
            input, in_base, in_stride, output, out_base, out_stride, scratch, tracer, addrs,
        ) {
            // ddl-lint: allow(no-panics): panicking wrapper by design; use the try_ variant for a Result
            panic!("{e}");
        }
    }
}

/// Recursive executor. `sv`/`dv` describe the input/output views into
/// `x`/`y`; `scr_addr` is the simulated byte address of `scratch[0]`.
#[allow(clippy::too_many_arguments)]
fn exec<T: MemoryTracer, S: Sink>(
    node: &Compiled,
    dir: Direction,
    be: BackendKind,
    x: &[Complex64],
    sv: View,
    y: &mut [Complex64],
    dv: View,
    scratch: &mut [Complex64],
    scr_addr: u64,
    tw_addr: u64,
    tr: &mut T,
    sink: &mut S,
) {
    let n = node.n;
    if S::ENABLED {
        sink.span_begin(SpanInfo {
            kind: SpanKind::Node,
            label: "dft",
            size: n,
            stride: sv.stride,
            reorg: node.reorg,
            backend: be.label(),
        });
    }
    match &node.kind {
        CompiledKind::Leaf => {
            if node.reorg && sv.stride > 1 {
                // Leaf reorganization: compact the strided input into
                // contiguous scratch, then run the codelet at unit stride.
                let t0 = stage_start::<S>();
                let (r, _) = scratch.split_at_mut(n);
                for (i, ri) in r.iter_mut().enumerate() {
                    *ri = x[sv.base + i * sv.stride];
                }
                stage_end(sink, Stage::Reorg, t0, n as u64);
                if T::ENABLED {
                    for i in 0..n {
                        tr.read(sv.elem_addr(i), DFT_POINT_BYTES as u32);
                        tr.write(
                            scr_addr + (i * DFT_POINT_BYTES) as u64,
                            DFT_POINT_BYTES as u32,
                        );
                    }
                }
                leaf(
                    n,
                    dir,
                    be,
                    r,
                    View {
                        base: 0,
                        stride: 1,
                        addr: scr_addr,
                    },
                    y,
                    dv,
                    tr,
                    sink,
                );
            } else {
                leaf(n, dir, be, x, sv, y, dv, tr, sink);
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
            if node.reorg {
                // Dynamic data layout (paper Fig. 5): stage 1 writes each
                // sub-DFT contiguously into t2, then a tiled transpose
                // reorganizes t2 -> t between the stages.
                let (t2, after) = scratch.split_at_mut(n);
                let (t, rest) = after.split_at_mut(n);
                let t2_addr = scr_addr;
                let t_addr = scr_addr + (n * DFT_POINT_BYTES) as u64;
                let rest_addr = scr_addr + (2 * n * DFT_POINT_BYTES) as u64;

                // Stage 1: left child reads x at stride n2*s (Property 1)
                // and writes t2[i2*n1 ..] at UNIT stride.
                for i2 in 0..n2 {
                    exec(
                        left,
                        dir,
                        be,
                        x,
                        View {
                            base: sv.base + i2 * sv.stride,
                            stride: n2 * sv.stride,
                            addr: sv.addr,
                        },
                        t2,
                        View {
                            base: i2 * n1,
                            stride: 1,
                            addr: t2_addr,
                        },
                        rest,
                        rest_addr,
                        tw_addr,
                        tr,
                        sink,
                    );
                }

                // Twiddle pass over t2 (table laid out to match).
                let t0 = stage_start::<S>();
                twiddle_pass(be, t2, tw);
                stage_end(sink, Stage::Twiddle, t0, n as u64);
                if T::ENABLED {
                    trace_twiddle(
                        n,
                        t2_addr,
                        tw_addr + (node.tw_offset * DFT_POINT_BYTES) as u64,
                        tr,
                    );
                }

                // The reorganization Dr: tiled transpose of the n2 x n1
                // row-major t2 into t[j1*n2 + i2].
                let t0 = stage_start::<S>();
                transpose_traced(t2, t, n2, n1, t2_addr, t_addr, tr);
                stage_end(sink, Stage::Reorg, t0, n as u64);

                // Stage 2: right child reads t at unit stride.
                for j1 in 0..n1 {
                    exec(
                        right,
                        dir,
                        be,
                        t,
                        View {
                            base: n2 * j1,
                            stride: 1,
                            addr: t_addr,
                        },
                        y,
                        View {
                            base: dv.base + j1 * dv.stride,
                            stride: n1 * dv.stride,
                            addr: dv.addr,
                        },
                        rest,
                        rest_addr,
                        tw_addr,
                        tr,
                        sink,
                    );
                }
            } else {
                // Static layout: stage 1 writes t interleaved (stride n2),
                // which is the strided-write pathology DDL removes.
                let (t, rest) = scratch.split_at_mut(n);
                let t_addr = scr_addr;
                let rest_addr = scr_addr + (n * DFT_POINT_BYTES) as u64;

                for i2 in 0..n2 {
                    exec(
                        left,
                        dir,
                        be,
                        x,
                        View {
                            base: sv.base + i2 * sv.stride,
                            stride: n2 * sv.stride,
                            addr: sv.addr,
                        },
                        t,
                        View {
                            base: i2,
                            stride: n2,
                            addr: t_addr,
                        },
                        rest,
                        rest_addr,
                        tw_addr,
                        tr,
                        sink,
                    );
                }

                let t0 = stage_start::<S>();
                twiddle_pass(be, t, tw);
                stage_end(sink, Stage::Twiddle, t0, n as u64);
                if T::ENABLED {
                    trace_twiddle(
                        n,
                        t_addr,
                        tw_addr + (node.tw_offset * DFT_POINT_BYTES) as u64,
                        tr,
                    );
                }

                for j1 in 0..n1 {
                    exec(
                        right,
                        dir,
                        be,
                        t,
                        View {
                            base: n2 * j1,
                            stride: 1,
                            addr: t_addr,
                        },
                        y,
                        View {
                            base: dv.base + j1 * dv.stride,
                            stride: n1 * dv.stride,
                            addr: dv.addr,
                        },
                        rest,
                        rest_addr,
                        tw_addr,
                        tr,
                        sink,
                    );
                }
            }
        }
    }
    if S::ENABLED {
        sink.span_end();
    }
}

/// Executes one leaf codelet through the effective backend and emits
/// its trace. The scalar path keeps its direct (statically dispatched)
/// call so the default backend costs nothing extra per leaf.
#[allow(clippy::too_many_arguments)]
fn leaf<T: MemoryTracer, S: Sink>(
    n: usize,
    dir: Direction,
    be: BackendKind,
    x: &[Complex64],
    sv: View,
    y: &mut [Complex64],
    dv: View,
    tr: &mut T,
    sink: &mut S,
) {
    let t0 = stage_start::<S>();
    match be {
        BackendKind::Scalar => {
            dft_leaf_strided(n, dir, x, sv.base, sv.stride, y, dv.base, dv.stride)
        }
        other => backend::backend_for(other)
            .leaf_dft(n, dir, x, sv.base, sv.stride, y, dv.base, dv.stride),
    }
    stage_end(sink, Stage::Leaf, t0, n as u64);
    if T::ENABLED {
        for i in 0..n {
            tr.read(sv.elem_addr(i), DFT_POINT_BYTES as u32);
        }
        for j in 0..n {
            tr.write(dv.elem_addr(j), DFT_POINT_BYTES as u32);
        }
    }
}

/// Applies the inter-stage twiddle pass through the effective backend.
/// Like [`leaf`], the scalar path keeps its direct kernel call.
fn twiddle_pass(be: BackendKind, buf: &mut [Complex64], tw: &TwiddleTable) {
    match be {
        BackendKind::Scalar => apply_twiddles(buf, 0, tw),
        other => backend::backend_for(other).apply_twiddles(buf, 0, tw.as_slice()),
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

/// Tile edge (in points) of the reorganization transpose: 32 complex
/// points = 512 B per tile row, a few KiB per tile — resident in any L1.
const REORG_TILE: usize = 32;

/// Tiled out-of-place transpose of the `rows x cols` row-major `src` into
/// `dst` (so `dst[c*rows + r] = src[r*cols + c]`), emitting the trace in
/// the exact tile order the copy performs.
fn transpose_traced<T: MemoryTracer>(
    src: &[Complex64],
    dst: &mut [Complex64],
    rows: usize,
    cols: usize,
    src_addr: u64,
    dst_addr: u64,
    tr: &mut T,
) {
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + REORG_TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + REORG_TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            if T::ENABLED {
                for r in r0..r1 {
                    for c in c0..c1 {
                        tr.read(
                            src_addr + ((r * cols + c) * DFT_POINT_BYTES) as u64,
                            DFT_POINT_BYTES as u32,
                        );
                        tr.write(
                            dst_addr + ((c * rows + r) * DFT_POINT_BYTES) as u64,
                            DFT_POINT_BYTES as u32,
                        );
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
        plan.execute(&x, &mut y);
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
        plan.execute_view(
            &big,
            1,
            ss,
            &mut out,
            1,
            ds,
            &mut scratch,
            &mut NullTracer,
            [0; 4],
        );
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
        fwd.execute(&x, &mut f);
        inv.execute(&f, &mut b);
        let back: Vec<Complex64> = b.iter().map(|v| v.scale(1.0 / 256.0)).collect();
        assert!(relative_rms_error(&back, &x) < 1e-11);
    }

    #[test]
    fn scratch_len_is_sufficient_and_reported() {
        let tree = crate::grammar::parse("ctddl(ctddl(8, 8), ct(8, 8))").unwrap();
        let plan = DftPlan::new(tree, Direction::Forward).unwrap();
        // exact scratch must work; plan.execute_with_scratch resizes, so
        // test execute_view with the exact amount
        let n = plan.n();
        let x = sample(n);
        let mut y = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.execute_view(
            &x,
            0,
            1,
            &mut y,
            0,
            1,
            &mut scratch,
            &mut NullTracer,
            [0; 4],
        );
        let want = naive_dft(&x, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-11);
    }

    #[test]
    fn execute_inplace_matches_out_of_place() {
        let plan = DftPlan::from_expr("ct(16, ct(8, 8))", Direction::Forward).unwrap();
        let n = plan.n();
        let x = sample(n);
        let mut inplace = x.clone();
        plan.execute_inplace(&mut inplace);
        let mut oop = vec![Complex64::ZERO; n];
        plan.execute(&x, &mut oop);
        assert_eq!(inplace, oop);
    }

    #[test]
    fn from_expr_compiles_and_runs() {
        let plan = DftPlan::from_expr("ct(2^5, 2^5)", Direction::Forward).unwrap();
        assert_eq!(plan.n(), 1024);
        let x = sample(1024);
        let mut y = vec![Complex64::ZERO; 1024];
        plan.execute(&x, &mut y);
        let want = naive_dft(&x, Direction::Forward);
        assert!(relative_rms_error(&y, &want) < 1e-11);
    }

    #[test]
    fn invalid_tree_is_rejected() {
        let bad = Tree::split(Tree::leaf(1), Tree::leaf(4));
        assert!(DftPlan::new(bad, Direction::Forward).is_err());
    }

    #[test]
    #[should_panic(expected = "input view out of bounds")]
    fn short_input_panics() {
        let plan = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let x = vec![Complex64::ZERO; 8];
        let mut y = vec![Complex64::ZERO; 16];
        plan.execute(&x, &mut y);
    }
}
