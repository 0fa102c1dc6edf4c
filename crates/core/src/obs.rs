//! Observability: structured tracing of planning and execution.
//!
//! The paper's central claim is a cost *decomposition* — Eq. (2)/(3)
//! price a factorization node as `T(N) = T_left + T_right + T_tw + Dr`
//! (child stages, twiddle pass, reorganization) — but a wall clock over a
//! whole plan cannot check the per-term predictions, and a planner that
//! only returns its winning tree cannot explain *why* it won. This module
//! is the instrumentation layer the rest of the workspace reports into:
//!
//! * [`Sink`] — the zero-cost-when-disabled observer trait. Like
//!   [`ddl_cachesim::MemoryTracer`], it carries a `const ENABLED` flag;
//!   every instrumentation site is guarded by `S::ENABLED`, so with the
//!   default [`NullSink`] the executor and planner compile to exactly the
//!   uninstrumented code.
//! * [`Recorder`] — the standard in-memory sink: monotonic [`Counter`]s,
//!   per-[`Stage`] span accumulation (the Eq. (2)/(3) split), and a
//!   bounded log of planner candidates.
//! * [`PlannerRunMetrics`], [`ExecutionMetrics`], [`BatchMetrics`] — what
//!   a recorder distils from one search, one profiled execution or one
//!   batch. They are the `planner` and `measured` sections of a plan
//!   record and the `batches` of the `ddl-report` envelope
//!   ([`crate::reports`], DESIGN.md's "Observability" section).
//!
//! * [`Observer`] — what one executor run takes: a [`Sink`] and a
//!   [`MemoryTracer`] in one value, so measurement and simulation share
//!   the one recursive walk.
//!
//! Instrumented entry points are additive: `try_plan_dft_with`,
//! `DftPlan::try_profile_with`, `Wisdom::load_with`, … sit next to their
//! uninstrumented originals, which delegate with [`NullSink`].

#![expect(clippy::disallowed_types, reason = "stage timers of instrumented runs")]

use crate::tree::Tree;
use ddl_cachesim::MemoryTracer;
use ddl_num::DdlError;
use std::collections::BTreeMap;

/// Execution stage classification, mirroring the terms of the paper's
/// Eq. (2)/(3): leaf computation (`T_left`/`T_right` bottom out in leaf
/// codelets), the twiddle pass (`T_tw`), and data reorganization (`Dr`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Leaf codelet execution (the recursion's computational payload).
    Leaf,
    /// The diagonal twiddle multiplication between DFT stages.
    Twiddle,
    /// Data reorganization: leaf gathers, WHT gather/scatter passes and
    /// the DFT tiled transposes (inter-stage, and output in untraced
    /// runs).
    Reorg,
}

impl Stage {
    /// Every stage, in serialization order.
    pub const ALL: [Stage; 3] = [Stage::Leaf, Stage::Twiddle, Stage::Reorg];

    /// Stable lowercase name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Leaf => "leaf",
            Stage::Twiddle => "twiddle",
            Stage::Reorg => "reorg",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Monotonic event counters. Values only ever increase; deltas are
/// non-negative by construction (`u64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Distinct `(size, stride)` states memoized by the planner DP.
    PlannerStates,
    /// Planner lookups answered from the DP memo table.
    PlannerMemoHits,
    /// Candidate trees priced by the planner.
    PlannerCandidates,
    /// Wisdom lookups answered from the store.
    WisdomHits,
    /// Wisdom lookups that missed (or hit a corrupt entry) and re-planned.
    WisdomMisses,
    /// Valid entries accepted during wisdom loads.
    WisdomLoadedEntries,
    /// Entries quarantined during wisdom loads.
    WisdomQuarantinedEntries,
    /// Entries written by wisdom saves.
    WisdomSavedEntries,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 8] = [
        Counter::PlannerStates,
        Counter::PlannerMemoHits,
        Counter::PlannerCandidates,
        Counter::WisdomHits,
        Counter::WisdomMisses,
        Counter::WisdomLoadedEntries,
        Counter::WisdomQuarantinedEntries,
        Counter::WisdomSavedEntries,
    ];

    /// Stable dotted name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::PlannerStates => "planner.states",
            Counter::PlannerMemoHits => "planner.memo_hits",
            Counter::PlannerCandidates => "planner.candidates",
            Counter::WisdomHits => "wisdom.hits",
            Counter::WisdomMisses => "wisdom.misses",
            Counter::WisdomLoadedEntries => "wisdom.loaded_entries",
            Counter::WisdomQuarantinedEntries => "wisdom.quarantined_entries",
            Counter::WisdomSavedEntries => "wisdom.saved_entries",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One planner candidate observation: the `(size, stride, reorg?)` state
/// the paper's DP explores, with the cost the backend assigned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Transform size of the candidate subtree.
    pub size: usize,
    /// Input stride of the DP state being priced.
    pub stride: usize,
    /// Whether the candidate's root carries a reorganization.
    pub reorg: bool,
    /// Backend cost (seconds, model ns, or simulated cycles).
    pub cost: f64,
}

/// Classification of a hierarchical span (see [`SpanInfo`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A whole profiled plan execution (the trace root).
    Execution,
    /// One factorization-tree node visited by the executor recursion.
    Node,
    /// A whole planner search (one `try_plan_*_with` call).
    PlannerRun,
    /// One `(size, stride)` DP state solved by the planner (memo misses
    /// only; memo hits never open a span).
    PlannerState,
}

impl SpanKind {
    /// Stable lowercase name used in trace exports.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Execution => "execution",
            SpanKind::Node => "node",
            SpanKind::PlannerRun => "planner_run",
            SpanKind::PlannerState => "planner_state",
        }
    }
}

/// Static description of one hierarchical span: what the executor or
/// planner was working on when the span opened. Copyable and allocation
/// free so span sites stay cheap even when enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanInfo {
    /// What this span covers.
    pub kind: SpanKind,
    /// Transform or strategy label (`"dft"`, `"wht"`, `"sdl"`, `"ddl"`).
    pub label: &'static str,
    /// Transform size of the covered node/state/run.
    pub size: usize,
    /// Input stride the node/state operates at.
    pub stride: usize,
    /// Whether the covered node carries a reorganization.
    pub reorg: bool,
    /// The kernel-set tag of the covered node/run: the kernel set of its
    /// transform ([`crate::kernel_set_for`]) on DFT, real-FFT and WHT
    /// spans, `"scalar"` on planner spans, which run no kernel.
    pub backend: &'static str,
}

/// One event in a recorded trace timeline. Timestamps are nanoseconds
/// since the owning [`Recorder`]'s construction (its *epoch*), so they
/// are non-negative and non-decreasing in recording order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A hierarchical span opened.
    Begin {
        /// What the span covers.
        info: SpanInfo,
        /// Nanoseconds since the recorder epoch.
        ts_ns: u64,
    },
    /// The innermost open span closed (`info` echoes its `Begin`).
    End {
        /// What the span covered.
        info: SpanInfo,
        /// Nanoseconds since the recorder epoch.
        ts_ns: u64,
    },
    /// A completed leaf/twiddle/reorg stage interval (Eq. (2)/(3) term).
    Stage {
        /// Which cost-decomposition term the interval belongs to.
        stage: Stage,
        /// Interval start, nanoseconds since the recorder epoch.
        ts_ns: u64,
        /// Interval length in nanoseconds.
        dur_ns: u64,
        /// Data points the stage pass covered.
        points: u64,
    },
}

impl TraceEvent {
    /// The event's timestamp (interval start for stage events).
    pub fn ts_ns(&self) -> u64 {
        match self {
            TraceEvent::Begin { ts_ns, .. }
            | TraceEvent::End { ts_ns, .. }
            | TraceEvent::Stage { ts_ns, .. } => *ts_ns,
        }
    }
}

/// Observer for planner and executor instrumentation.
///
/// Implementations with `ENABLED == false` (the [`NullSink`]) make every
/// instrumentation site statically dead: the executors gate their timer
/// reads on `S::ENABLED`, so the disabled configuration is bit-identical
/// to uninstrumented code on the hot path.
pub trait Sink {
    /// Whether this sink observes anything at all.
    const ENABLED: bool;

    /// Adds `delta` to a monotonic counter.
    fn counter(&mut self, counter: Counter, delta: u64);

    /// Records one completed stage span of `nanos` covering `points`
    /// data points.
    fn stage(&mut self, stage: Stage, nanos: u64, points: u64);

    /// Records one planner candidate.
    fn candidate(&mut self, candidate: Candidate);

    /// Opens a hierarchical span. Every `span_begin` must be paired with
    /// a later [`Sink::span_end`]; sites nest like the executor/planner
    /// recursion itself. Default: no-op.
    fn span_begin(&mut self, _info: SpanInfo) {}

    /// Closes the innermost open span. Default: no-op.
    fn span_end(&mut self) {}
}

/// The disabled sink: observes nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn counter(&mut self, _counter: Counter, _delta: u64) {}

    #[inline(always)]
    fn stage(&mut self, _stage: Stage, _nanos: u64, _points: u64) {}

    #[inline(always)]
    fn candidate(&mut self, _candidate: Candidate) {}

    #[inline(always)]
    fn span_begin(&mut self, _info: SpanInfo) {}

    #[inline(always)]
    fn span_end(&mut self) {}
}

/// The one observer an executor run takes: the simulated address stream
/// ([`MemoryTracer`]) and the spans, stages and counters ([`Sink`]),
/// each half gated by its own `ENABLED` flag. The executors guard every
/// trace call on [`Observer::TRACE`] and every span, timer and counter
/// on [`Observer::SINK`], so [`NullSink`] (both halves off) compiles to
/// the uninstrumented code, a [`Recorder`] observes spans only, and the
/// simulation harness wraps a plain cache as a trace-only observer.
pub trait Observer: MemoryTracer + Sink {
    /// Whether the address-stream half observes anything.
    const TRACE: bool = <Self as MemoryTracer>::ENABLED;
    /// Whether the span/stage/counter half observes anything.
    const SINK: bool = <Self as Sink>::ENABLED;
}

impl<O: MemoryTracer + Sink> Observer for O {}

impl MemoryTracer for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn read(&mut self, _addr: u64, _bytes: u32) {}

    #[inline(always)]
    fn write(&mut self, _addr: u64, _bytes: u32) {}
}

/// A recorder times spans; it traces no addresses.
impl MemoryTracer for Recorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn read(&mut self, _addr: u64, _bytes: u32) {}

    #[inline(always)]
    fn write(&mut self, _addr: u64, _bytes: u32) {}
}

/// Starts a stage timer only when the sink is enabled; with the
/// [`NullSink`] the `None` arm lets the optimizer delete both the clock
/// read and the report, keeping instrumented executors bit-identical to
/// uninstrumented ones.
#[inline(always)]
pub fn stage_start<S: Sink>() -> Option<std::time::Instant> {
    if S::ENABLED {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Closes a stage timer opened by [`stage_start`], reporting the span
/// into `sink`.
#[inline(always)]
pub fn stage_end<S: Sink>(sink: &mut S, stage: Stage, t0: Option<std::time::Instant>, points: u64) {
    if let Some(t0) = t0 {
        sink.stage(stage, t0.elapsed().as_nanos() as u64, points);
    }
}

/// Default cap on retained planner candidates; beyond it only the drop
/// count grows, so a huge search cannot balloon the recorder. Override
/// per recorder with [`Recorder::with_candidate_capacity`].
pub const MAX_RECORDED_CANDIDATES: usize = 4096;

/// Default cap on retained trace events. Override per recorder with
/// [`Recorder::with_limits`].
pub const MAX_TRACE_EVENTS: usize = 1 << 16;

/// The standard in-memory sink: accumulates counters, per-stage spans,
/// a bounded candidate log and a bounded hierarchical trace-event
/// timeline, and converts into report sections.
///
/// Both logs truncate rather than grow without bound: once a log is
/// full, further observations only bump the matching `*_dropped`
/// counter. Truncation keeps the trace well formed — a `Begin` that
/// does not fit suppresses its matching `End` too (never recording one
/// without the other), so begin/end events always balance.
#[derive(Clone, Debug)]
pub struct Recorder {
    counters: [u64; Counter::ALL.len()],
    stage_ns: [u64; Stage::ALL.len()],
    stage_calls: [u64; Stage::ALL.len()],
    stage_points: [u64; Stage::ALL.len()],
    candidates: Vec<Candidate>,
    candidates_dropped: u64,
    max_candidates: usize,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    max_events: usize,
    /// Infos of currently open recorded spans (so `End` can echo them).
    open: Vec<SpanInfo>,
    /// Depth of `Begin`s dropped at the cap whose `End`s must be
    /// swallowed to keep the recorded timeline balanced.
    skip_depth: u32,
    /// Timestamp origin for all trace events.
    epoch: std::time::Instant,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder with every counter at zero and the default
    /// [`MAX_RECORDED_CANDIDATES`] / [`MAX_TRACE_EVENTS`] log caps.
    pub fn new() -> Recorder {
        Recorder::with_limits(MAX_RECORDED_CANDIDATES, MAX_TRACE_EVENTS)
    }

    /// A fresh recorder retaining at most `capacity` planner candidates
    /// (the trace-event cap stays at [`MAX_TRACE_EVENTS`]).
    pub fn with_candidate_capacity(capacity: usize) -> Recorder {
        Recorder::with_limits(capacity, MAX_TRACE_EVENTS)
    }

    /// A fresh recorder with explicit candidate and trace-event caps.
    pub fn with_limits(max_candidates: usize, max_events: usize) -> Recorder {
        Recorder {
            counters: [0; Counter::ALL.len()],
            stage_ns: [0; Stage::ALL.len()],
            stage_calls: [0; Stage::ALL.len()],
            stage_points: [0; Stage::ALL.len()],
            candidates: Vec::new(),
            candidates_dropped: 0,
            max_candidates,
            events: Vec::new(),
            events_dropped: 0,
            max_events,
            open: Vec::new(),
            skip_depth: 0,
            epoch: std::time::Instant::now(),
        }
    }

    /// The candidate-log retention cap this recorder was built with.
    pub fn candidate_capacity(&self) -> usize {
        self.max_candidates
    }

    /// The trace-event retention cap this recorder was built with.
    pub fn trace_capacity(&self) -> usize {
        self.max_events
    }

    /// The recorded trace timeline, in recording order.
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Trace events observed beyond the retention cap.
    pub fn trace_events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Number of spans currently open (0 after balanced instrumentation).
    pub fn open_span_depth(&self) -> usize {
        self.open.len() + self.skip_depth as usize
    }

    /// Nanoseconds since this recorder's construction — the timestamp
    /// origin of its trace events.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Current value of one counter.
    pub fn counter_value(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Accumulated nanoseconds in one stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage.index()]
    }

    /// Number of recorded spans in one stage.
    pub fn stage_calls(&self, stage: Stage) -> u64 {
        self.stage_calls[stage.index()]
    }

    /// Accumulated data points across one stage's spans.
    pub fn stage_points(&self, stage: Stage) -> u64 {
        self.stage_points[stage.index()]
    }

    /// The per-stage time split accumulated so far.
    pub fn breakdown(&self) -> StageBreakdown {
        StageBreakdown {
            leaf_ns: self.stage_ns(Stage::Leaf),
            twiddle_ns: self.stage_ns(Stage::Twiddle),
            reorg_ns: self.stage_ns(Stage::Reorg),
        }
    }

    /// Retained planner candidates (at most
    /// [`MAX_RECORDED_CANDIDATES`]; see [`Recorder::candidates_dropped`]).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Candidates observed beyond the retention cap.
    pub fn candidates_dropped(&self) -> u64 {
        self.candidates_dropped
    }

    /// All non-zero counters as a name → value map (report form).
    pub fn counters_map(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        merge_counters(&mut map, self);
        map
    }
}

/// Adds `recorder`'s non-zero counters into `into` (summing on key
/// collision), so several recorders can fold into one report.
pub fn merge_counters(into: &mut BTreeMap<String, u64>, recorder: &Recorder) {
    for c in Counter::ALL {
        let v = recorder.counter_value(c);
        if v > 0 {
            *into.entry(c.as_str().to_string()).or_insert(0) += v;
        }
    }
}

impl Sink for Recorder {
    const ENABLED: bool = true;

    fn counter(&mut self, counter: Counter, delta: u64) {
        self.counters[counter.index()] += delta;
    }

    fn stage(&mut self, stage: Stage, nanos: u64, points: u64) {
        let i = stage.index();
        self.stage_ns[i] += nanos;
        self.stage_calls[i] += 1;
        self.stage_points[i] += points;
        if self.events.len() < self.max_events {
            // `stage_end` reports after the interval closed; reconstruct
            // its start so the event sits where the work happened.
            let now = self.now_ns();
            self.events.push(TraceEvent::Stage {
                stage,
                ts_ns: now.saturating_sub(nanos),
                dur_ns: nanos,
                points,
            });
        } else {
            self.events_dropped += 1;
        }
    }

    fn candidate(&mut self, candidate: Candidate) {
        if self.candidates.len() < self.max_candidates {
            self.candidates.push(candidate);
        } else {
            self.candidates_dropped += 1;
        }
    }

    fn span_begin(&mut self, info: SpanInfo) {
        if self.events.len() < self.max_events {
            let ts_ns = self.now_ns();
            self.events.push(TraceEvent::Begin { info, ts_ns });
            self.open.push(info);
        } else {
            self.skip_depth += 1;
            self.events_dropped += 1;
        }
    }

    fn span_end(&mut self) {
        if self.skip_depth > 0 {
            // Closing a span whose `Begin` was dropped at the cap.
            self.skip_depth -= 1;
            return;
        }
        if let Some(info) = self.open.pop() {
            // `End`s for recorded `Begin`s bypass the cap so the
            // timeline stays balanced; the log can therefore exceed
            // `max_events` by at most the open nesting depth.
            let ts_ns = self.now_ns();
            self.events.push(TraceEvent::End { info, ts_ns });
        }
    }
}

/// Per-stage execution time split — the measurable form of Eq. (2)/(3):
/// `leaf_ns` covers the recursive `T_left`/`T_right` payload, `twiddle_ns`
/// the `T_tw` passes, `reorg_ns` the `Dr` reorganizations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Nanoseconds spent in leaf codelets.
    pub leaf_ns: u64,
    /// Nanoseconds spent in twiddle passes.
    pub twiddle_ns: u64,
    /// Nanoseconds spent reorganizing data.
    pub reorg_ns: u64,
}

impl StageBreakdown {
    /// Sum of the three stage terms. Always at most the wall-clock total
    /// of the same execution (the spans are disjoint sub-intervals).
    pub fn stage_sum_ns(&self) -> u64 {
        self.leaf_ns + self.twiddle_ns + self.reorg_ns
    }
}

/// Planner search statistics for one planning run: the `planner`
/// section of a plan record, which names the transform, size, strategy
/// and winning tree.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannerRunMetrics {
    /// Cost backend description (e.g. `"analytical"`, `"measured"`).
    pub backend: String,
    /// Distinct `(size, stride)` DP states explored.
    pub states: u64,
    /// Candidate trees priced.
    pub candidates: u64,
    /// DP lookups answered from the memo table.
    pub memo_hits: u64,
    /// Cost of the winning tree (backend units).
    pub cost: f64,
    /// Wall-clock seconds the search took.
    pub plan_seconds: f64,
}

impl PlannerRunMetrics {
    /// Builds the section from the recorder one search reported into.
    pub fn from_recorder(
        backend: &str,
        cost: f64,
        plan_seconds: f64,
        recorder: &Recorder,
    ) -> PlannerRunMetrics {
        PlannerRunMetrics {
            backend: backend.to_string(),
            states: recorder.counter_value(Counter::PlannerStates),
            candidates: recorder.counter_value(Counter::PlannerCandidates),
            memo_hits: recorder.counter_value(Counter::PlannerMemoHits),
            cost,
            plan_seconds,
        }
    }
}

/// One profiled plan execution with its stage breakdown: the `measured`
/// section of a plan record.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionMetrics {
    /// Profiled executions behind this one: 1 for a single run, `k` when
    /// this is the median-wall-clock run of `k` (see
    /// [`crate::calibrate`]).
    pub repeats: u32,
    /// Wall-clock nanoseconds for the whole execution.
    pub total_ns: u64,
    /// Per-stage split of `total_ns` (plus untimed recursion glue).
    pub stages: StageBreakdown,
    /// Number of leaf codelet invocations.
    pub leaf_calls: u64,
    /// Data points passed through twiddle passes.
    pub twiddle_points: u64,
    /// Data points moved by reorganizations.
    pub reorg_points: u64,
    /// Estimated floating-point operations in the leaf stage (from the
    /// kernel crate's per-leaf estimates; 0 when not computed).
    pub leaf_flops_est: u64,
}

impl ExecutionMetrics {
    /// Builds the section from a profiled run's recorder.
    pub fn from_recorder(
        total_ns: u64,
        recorder: &Recorder,
        leaf_flops_est: u64,
    ) -> ExecutionMetrics {
        ExecutionMetrics {
            repeats: 1,
            total_ns,
            stages: recorder.breakdown(),
            leaf_calls: recorder.stage_calls(Stage::Leaf),
            twiddle_points: recorder.stage_points(Stage::Twiddle),
            reorg_points: recorder.stage_points(Stage::Reorg),
            leaf_flops_est,
        }
    }
}

/// One batch execution summary (see [`crate::parallel::BatchReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct BatchMetrics {
    /// Caller-chosen label (e.g. `"dft:1024"`).
    pub label: String,
    /// Items in the batch.
    pub items: u64,
    /// Items that completed without fault.
    pub ok: u64,
    /// Items that failed by worker panic.
    pub panicked: u64,
    /// Items shed because the batch deadline expired before they ran.
    pub deadline_expired: u64,
    /// Items shed because the batch's cancellation token fired.
    pub cancelled: u64,
    /// Whether part of the batch degraded to the calling thread.
    pub degraded_to_sequential: bool,
    /// Wall-clock nanoseconds for the whole batch.
    pub wall_ns: u64,
    /// Longest time any item waited before starting.
    pub queue_ns_max: u64,
    /// Sum of per-item run times (exceeds `wall_ns` under parallelism).
    pub run_ns_total: u64,
    /// Longest single item run time.
    pub run_ns_max: u64,
    /// Items executed by a scheduler worker other than the one whose
    /// deque they were dealt to (work-stealing migrations).
    pub steals: u64,
}

/// Estimated leaf-stage floating-point operations of a tree: the sum of
/// the kernel crate's per-leaf estimates over all leaves, for the DFT
/// (`dft == true`) or WHT interpretation.
pub fn tree_leaf_flops(tree: &Tree, dft: bool) -> u64 {
    match tree {
        Tree::Leaf { n, .. } => {
            if dft {
                ddl_kernels::dft_leaf_flops_est(*n)
            } else {
                ddl_kernels::wht_leaf_ops_est(*n)
            }
        }
        Tree::Split { left, right, .. } => {
            let l = tree_leaf_flops(left, dft);
            let r = tree_leaf_flops(right, dft);
            // each child stage runs sibling-size times
            l.saturating_mul(right.size() as u64)
                .saturating_add(r.saturating_mul(left.size() as u64))
        }
    }
}

pub(crate) fn metrics_err(detail: String) -> DdlError {
    DdlError::Metrics { detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_accumulates_monotonically() {
        let mut r = Recorder::new();
        let mut last = 0;
        for delta in [3u64, 0, 5, 1] {
            r.counter(Counter::PlannerStates, delta);
            let now = r.counter_value(Counter::PlannerStates);
            assert!(now >= last, "counter decreased: {now} < {last}");
            last = now;
        }
        assert_eq!(last, 9);
        assert_eq!(r.counter_value(Counter::WisdomHits), 0);
    }

    #[test]
    fn recorder_stage_accounting() {
        let mut r = Recorder::new();
        r.stage(Stage::Leaf, 100, 8);
        r.stage(Stage::Leaf, 50, 8);
        r.stage(Stage::Reorg, 30, 16);
        let b = r.breakdown();
        assert_eq!(b.leaf_ns, 150);
        assert_eq!(b.reorg_ns, 30);
        assert_eq!(b.twiddle_ns, 0);
        assert_eq!(b.stage_sum_ns(), 180);
        assert_eq!(r.stage_calls(Stage::Leaf), 2);
        assert_eq!(r.stage_points(Stage::Leaf), 16);
        assert_eq!(r.stage_points(Stage::Reorg), 16);
    }

    #[test]
    fn candidate_log_is_bounded() {
        let mut r = Recorder::new();
        for i in 0..(MAX_RECORDED_CANDIDATES + 10) {
            r.candidate(Candidate {
                size: i,
                stride: 1,
                reorg: false,
                cost: 1.0,
            });
        }
        assert_eq!(r.candidates().len(), MAX_RECORDED_CANDIDATES);
        assert_eq!(r.candidates_dropped(), 10);
    }

    #[test]
    fn candidate_capacity_is_configurable() {
        let mut r = Recorder::with_candidate_capacity(2);
        assert_eq!(r.candidate_capacity(), 2);
        for i in 0..5 {
            r.candidate(Candidate {
                size: i,
                stride: 1,
                reorg: false,
                cost: 1.0,
            });
        }
        assert_eq!(r.candidates().len(), 2);
        assert_eq!(r.candidates_dropped(), 3);
        // zero capacity keeps nothing but still counts
        let mut z = Recorder::with_candidate_capacity(0);
        z.candidate(Candidate {
            size: 8,
            stride: 1,
            reorg: false,
            cost: 1.0,
        });
        assert!(z.candidates().is_empty());
        assert_eq!(z.candidates_dropped(), 1);
    }

    fn span(kind: SpanKind, size: usize) -> SpanInfo {
        SpanInfo {
            kind,
            label: "dft",
            size,
            stride: 1,
            reorg: false,
            backend: "scalar",
        }
    }

    #[test]
    fn spans_record_balanced_nested_events() {
        let mut r = Recorder::new();
        r.span_begin(span(SpanKind::Execution, 64));
        r.span_begin(span(SpanKind::Node, 8));
        assert_eq!(r.open_span_depth(), 2);
        r.span_end();
        r.span_end();
        assert_eq!(r.open_span_depth(), 0);
        let ev = r.trace_events();
        assert_eq!(ev.len(), 4);
        assert!(matches!(ev[0], TraceEvent::Begin { info, .. } if info.size == 64));
        assert!(matches!(ev[1], TraceEvent::Begin { info, .. } if info.size == 8));
        // ends echo the innermost begin's info, LIFO order
        assert!(matches!(ev[2], TraceEvent::End { info, .. } if info.size == 8));
        assert!(matches!(ev[3], TraceEvent::End { info, .. } if info.size == 64));
        // timestamps never run backwards
        let ts: Vec<u64> = ev.iter().map(TraceEvent::ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps: {ts:?}");
    }

    #[test]
    fn trace_event_cap_preserves_balance() {
        // cap of 2: outer Begin + inner Begin recorded, third Begin
        // dropped; its End must be swallowed, not mismatched. Ends for
        // recorded Begins bypass the cap so the log stays balanced.
        let mut r = Recorder::with_limits(MAX_RECORDED_CANDIDATES, 2);
        r.span_begin(span(SpanKind::Execution, 64));
        r.span_begin(span(SpanKind::Node, 16));
        r.span_begin(span(SpanKind::Node, 4));
        r.span_end();
        r.span_end();
        r.span_end();
        assert_eq!(r.open_span_depth(), 0);
        assert!(r.trace_events_dropped() > 0);
        let begins = r
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Begin { .. }))
            .count();
        let ends = r
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::End { .. }))
            .count();
        assert_eq!(begins, ends);
        assert_eq!(begins, 2);
    }

    #[test]
    fn stage_events_enter_the_timeline() {
        let mut r = Recorder::new();
        r.stage(Stage::Twiddle, 500, 32);
        let ev = r.trace_events();
        assert_eq!(ev.len(), 1);
        assert!(matches!(
            ev[0],
            TraceEvent::Stage {
                stage: Stage::Twiddle,
                dur_ns: 500,
                points: 32,
                ..
            }
        ));
    }

    #[test]
    fn counters_map_skips_zeros_and_merges() {
        let mut a = Recorder::new();
        a.counter(Counter::WisdomHits, 2);
        let mut b = Recorder::new();
        b.counter(Counter::WisdomHits, 3);
        b.counter(Counter::PlannerStates, 1);
        let mut map = a.counters_map();
        merge_counters(&mut map, &b);
        assert_eq!(map.get("wisdom.hits"), Some(&5));
        assert_eq!(map.get("planner.states"), Some(&1));
        assert!(!map.contains_key("wisdom.misses"));
    }

    #[test]
    fn stage_and_counter_names_are_stable() {
        assert_eq!(Stage::Leaf.as_str(), "leaf");
        assert_eq!(Stage::Twiddle.as_str(), "twiddle");
        assert_eq!(Stage::Reorg.as_str(), "reorg");
        // every counter has a distinct dotted name
        let names: std::collections::BTreeSet<_> =
            Counter::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn tree_leaf_flops_scales_with_repetition() {
        // split(4, 8): the 4-leaf runs 8 times, the 8-leaf 4 times.
        let t = Tree::split(Tree::leaf(4), Tree::leaf(8));
        let want = 8 * ddl_kernels::dft_leaf_flops_est(4) + 4 * ddl_kernels::dft_leaf_flops_est(8);
        assert_eq!(tree_leaf_flops(&t, true), want);
        assert!(tree_leaf_flops(&t, false) < tree_leaf_flops(&t, true));
    }
}
