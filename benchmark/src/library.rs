//! Library workloads: one planned transform executed repeatedly through
//! the public API (`try_plan_*`, `DftPlan`/`WhtPlan`), single thread.

use crate::oracle;
use crate::stats::{median, peak_rss_mib, Rng};
use crate::trace::Spans;
use crate::{Opts, Outcome};
use ddl_cachesim::{CacheConfig, HierarchyConfig};
use ddl_core::attrib::{attribute_dft_hier, attribute_wht_hier, AttributionRun};
use ddl_core::obs::MAX_RECORDED_CANDIDATES;
use ddl_core::planner::PlanOutcome;
use ddl_core::{
    try_plan_dft_with, try_plan_wht_with, CacheModel, CostBackend, Counter, DdlError, DftPlan,
    NullSink, PlannerConfig, Recorder, Sink, Stage, StageCost, Tree, WhtPlan,
};
use ddl_num::{Complex64, Direction};
use std::time::{Duration, Instant};

/// Distinct seeded inputs the ops cycle through.
const POOL: usize = 2;
/// Timed ops checked against the oracle, besides the first op.
const CHECKS: usize = 5;
/// Largest relative RMS error a correct output may have.
const TOLERANCE: f64 = 1e-9;
/// Fresh set-ups are repeated for this long (and at least `SETUP_MIN_REPS`
/// times) and their median is reported, so a burst of load from another
/// tenant during set-up moves a few samples, not the median.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const SETUP_MIN_REPS: usize = 5;
/// Trace events kept from the program's recorder; the stage totals
/// behind the per-layer metrics keep counting past it.
const TRACE_EVENT_CAP: usize = 1 << 15;
/// Factors of the WHT timing baseline: the tree both planners chose for
/// 2^20 points, `ct(32, ct(8, ct(64, 64)))`, when this benchmark was
/// written. Fixed here, so the baseline never follows the program.
const WHT_BASELINE_FACTORS: [usize; 4] = [32, 8, 64, 64];

/// What the benchmark needs from one transform family.
pub trait Transform {
    type Plan;
    type Elem: Copy + Default;
    /// Operations per `n·log2 n` in the pseudo-GFLOPS convention.
    const FLOPS_PER_NLOGN: f64;
    fn search<S: Sink>(
        n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<PlanOutcome, DdlError>;
    fn compile(tree: Tree) -> Result<Self::Plan, DdlError>;
    fn twiddle_points(plan: &Self::Plan) -> usize;
    fn scratch_points(plan: &Self::Plan) -> usize;
    fn input(rng: &mut Rng, n: usize) -> Vec<Self::Elem>;
    /// The oracle output for `x`.
    fn reference(x: &[Self::Elem]) -> Vec<Self::Elem>;
    /// Buffers of the benchmark's own implementation of the op, allocated
    /// once so the heap's history cannot change its speed.
    type Baseline;
    fn baseline(n: usize) -> Self::Baseline;
    /// Runs the benchmark's own implementation of the op on `x`. It is
    /// timed right after each program op; `latency_vs_ref` is the ratio
    /// of their medians.
    fn run_baseline(b: &mut Self::Baseline, x: &[Self::Elem]);
    fn parts(e: Self::Elem) -> (f64, f64);
    fn corrupt(e: &mut Self::Elem);
    /// Runs one op on `input`, leaving the result in `out`. Only the
    /// library call is timed; a recorder switches to the profiled entry.
    fn execute(
        plan: &Self::Plan,
        input: &[Self::Elem],
        out: &mut [Self::Elem],
        recorder: Option<&mut Recorder>,
    ) -> Result<Duration, DdlError>;
    fn predict(model: &CacheModel, tree: &Tree) -> StageCost;
    fn simulate(plan: &Self::Plan) -> Result<AttributionRun, DdlError>;
}

/// Forward out-of-place complex DFT.
pub struct Dft;

impl Transform for Dft {
    type Plan = DftPlan;
    type Elem = Complex64;
    const FLOPS_PER_NLOGN: f64 = 5.0;

    fn search<S: Sink>(
        n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<PlanOutcome, DdlError> {
        try_plan_dft_with(n, cfg, sink)
    }
    fn compile(tree: Tree) -> Result<DftPlan, DdlError> {
        DftPlan::new(tree, Direction::Forward)
    }
    fn twiddle_points(plan: &DftPlan) -> usize {
        plan.twiddle_points()
    }
    fn scratch_points(plan: &DftPlan) -> usize {
        plan.scratch_len()
    }
    fn input(rng: &mut Rng, n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|_| Complex64::new(rng.signed(), rng.signed()))
            .collect()
    }
    fn reference(x: &[Complex64]) -> Vec<Complex64> {
        let pairs: Vec<(f64, f64)> = x.iter().map(|c| (c.re, c.im)).collect();
        oracle::dft(&pairs)
            .into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    }
    type Baseline = (Vec<(f64, f64)>, Vec<(f64, f64)>);
    fn baseline(n: usize) -> Self::Baseline {
        (vec![(0.0, 0.0); n], oracle::twiddles(n))
    }
    fn run_baseline((a, tw): &mut Self::Baseline, x: &[Complex64]) {
        for (a, c) in a.iter_mut().zip(x) {
            *a = (c.re, c.im);
        }
        oracle::dft_in_place(a, tw);
    }
    fn parts(e: Complex64) -> (f64, f64) {
        (e.re, e.im)
    }
    fn corrupt(e: &mut Complex64) {
        e.re += 1.0;
    }
    fn execute(
        plan: &DftPlan,
        input: &[Complex64],
        out: &mut [Complex64],
        recorder: Option<&mut Recorder>,
    ) -> Result<Duration, DdlError> {
        let t0 = Instant::now();
        match recorder {
            None => plan.try_execute(input, out)?,
            Some(r) => drop(plan.try_profile_with(input, out, r)?),
        }
        Ok(t0.elapsed())
    }
    fn predict(model: &CacheModel, tree: &Tree) -> StageCost {
        model.dft_stage_cost_ns(tree, 1)
    }
    fn simulate(plan: &DftPlan) -> Result<AttributionRun, DdlError> {
        let cache = CacheConfig::paper_default(64);
        attribute_dft_hier(plan, 1, cache, HierarchyConfig::typical(cache))
    }
}

/// In-place Walsh–Hadamard transform.
pub struct Wht;

impl Transform for Wht {
    type Plan = WhtPlan;
    type Elem = f64;
    const FLOPS_PER_NLOGN: f64 = 1.0;

    fn search<S: Sink>(
        n: usize,
        cfg: &PlannerConfig,
        sink: &mut S,
    ) -> Result<PlanOutcome, DdlError> {
        try_plan_wht_with(n, cfg, sink)
    }
    fn compile(tree: Tree) -> Result<WhtPlan, DdlError> {
        WhtPlan::new(tree)
    }
    fn twiddle_points(_: &WhtPlan) -> usize {
        0
    }
    fn scratch_points(plan: &WhtPlan) -> usize {
        plan.scratch_len()
    }
    fn input(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.signed()).collect()
    }
    fn reference(x: &[f64]) -> Vec<f64> {
        oracle::wht(x)
    }
    type Baseline = Vec<f64>;
    fn baseline(n: usize) -> Vec<f64> {
        vec![0.0; n]
    }
    /// The textbook WHT streams through memory and barely notices cache
    /// contention from other tenants, while the planned WHT's strided
    /// stages slow by up to 1.7x under it; the static-layout baseline over
    /// the same factors slows alike, so the ratio holds still.
    fn run_baseline(a: &mut Vec<f64>, x: &[f64]) {
        a.copy_from_slice(x);
        oracle::wht_factored(a, &WHT_BASELINE_FACTORS);
    }
    fn parts(e: f64) -> (f64, f64) {
        (e, 0.0)
    }
    fn corrupt(e: &mut f64) {
        *e += 1.0;
    }
    fn execute(
        plan: &WhtPlan,
        input: &[f64],
        out: &mut [f64],
        recorder: Option<&mut Recorder>,
    ) -> Result<Duration, DdlError> {
        // In place: restoring the input is not part of the op.
        out.copy_from_slice(input);
        let t0 = Instant::now();
        match recorder {
            None => plan.try_execute(out)?,
            Some(r) => drop(plan.try_profile_with(out, r)?),
        }
        Ok(t0.elapsed())
    }
    fn predict(model: &CacheModel, tree: &Tree) -> StageCost {
        model.wht_stage_cost_ns(tree, 1)
    }
    fn simulate(plan: &WhtPlan) -> Result<AttributionRun, DdlError> {
        let cache = CacheConfig::paper_default(64);
        attribute_wht_hier(plan, 1, cache, HierarchyConfig::typical(cache))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(context: &str) -> impl Fn(DdlError) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// `predicted / measured`, or 0 for a stage the run never executed.
fn ratio(predicted: f64, measured: f64) -> f64 {
    if measured > 0.0 {
        predicted / measured
    } else {
        0.0
    }
}

/// The seeded inputs, their oracle outputs, and the output buffer.
struct Data<T: Transform> {
    inputs: Vec<Vec<T::Elem>>,
    refs: Vec<Vec<T::Elem>>,
    out: Vec<T::Elem>,
}

impl<T: Transform> Data<T> {
    fn new(rng: &mut Rng, n: usize) -> Data<T> {
        let inputs: Vec<Vec<T::Elem>> = (0..POOL).map(|_| T::input(rng, n)).collect();
        let refs = inputs.iter().map(|x| T::reference(x)).collect();
        Data {
            inputs,
            refs,
            out: vec![T::Elem::default(); n],
        }
    }

    /// Runs one op on input `i`; on failure counts it and returns `None`.
    fn op(
        &mut self,
        plan: &T::Plan,
        i: usize,
        rec: Option<&mut Recorder>,
        o: &mut Outcome,
    ) -> Option<Duration> {
        o.attempted += 1;
        match T::execute(plan, &self.inputs[i], &mut self.out, rec) {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("op failed: {e}");
                o.failed += 1;
                None
            }
        }
    }

    /// Checks the last output against the oracle for input `i`; a wrong
    /// output counts as a failed op. Returns the time the check took.
    fn check(&self, i: usize, o: &mut Outcome) -> Duration {
        let t0 = Instant::now();
        let got = self.out.iter().map(|&e| T::parts(e));
        let want = self.refs[i].iter().map(|&e| T::parts(e));
        let e = oracle::relative_rms(got, want);
        if e.is_nan() || e > TOLERANCE {
            eprintln!("wrong output: relative RMS error {e:e} on input {i}");
            o.failed += 1;
        }
        t0.elapsed()
    }

    /// The first op of `plan`, which warms caches and the allocator: it is
    /// checked (after corrupting its output when `corrupt`), not timed.
    /// Returns how long it took.
    fn first_op(
        &mut self,
        plan: &T::Plan,
        corrupt: bool,
        o: &mut Outcome,
    ) -> Result<Duration, String> {
        let took = self.op(plan, 0, None, o).ok_or("the first op failed")?;
        if corrupt {
            T::corrupt(&mut self.out[0]);
        }
        self.check(0, o);
        Ok(took)
    }
}

/// Runs timed iterations for `budget`, each on a seeded input `i`:
/// `body(i, check)` runs one, checking its output when `check`, and
/// returns the time it spent on checks, which extends the budget. `each`
/// estimates one iteration, so the `CHECKS` checked iterations are drawn
/// from the first half of those expected.
fn drive(
    budget: Duration,
    each: Duration,
    rng: &mut Rng,
    mut body: impl FnMut(usize, bool) -> Duration,
) {
    let expected = (budget.as_secs_f64() / each.as_secs_f64().max(1e-9)) as usize;
    let checks = rng.sample((expected / 2).max(CHECKS), CHECKS);
    let mut unmeasured = Duration::ZERO;
    let start = Instant::now();
    for k in 0.. {
        if start.elapsed() >= budget + unmeasured {
            break;
        }
        let i = rng.below(POOL);
        unmeasured += body(i, checks.binary_search(&k).is_ok());
    }
}

/// Set-up as a caller pays it, repeated from scratch: plan search (the
/// first one reporting to `sink`) plus compile.
struct Setup<P> {
    tree: Tree,
    plan: P,
    search_ms: Vec<f64>,
    compile_ms: Vec<f64>,
}

impl<P> Setup<P> {
    /// Median of search plus compile, in seconds.
    fn median_s(&self) -> f64 {
        let total: Vec<f64> = self
            .search_ms
            .iter()
            .zip(&self.compile_ms)
            .map(|(s, c)| (s + c) / 1e3)
            .collect();
        median(&total)
    }
}

/// Sets up for `SETUP_BUDGET`, at least `SETUP_MIN_REPS` times, and keeps
/// the last plan.
fn setup<T: Transform, S: Sink>(
    n: usize,
    cfg: &PlannerConfig,
    sink: &mut S,
) -> Result<Setup<T::Plan>, String> {
    let (mut search_ms, mut compile_ms, mut last) = (Vec::new(), Vec::new(), None);
    let start = Instant::now();
    while search_ms.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_BUDGET {
        // One plan alive at a time: each set-up then reuses the memory of
        // the last, and the heap ends in the same layout whatever the
        // number of repetitions (with two alive, the peak RSS of a
        // dft-large run read one of two values, 7 MiB apart).
        drop(last.take());
        let t0 = Instant::now();
        let outcome = if search_ms.is_empty() {
            T::search(n, cfg, sink)
        } else {
            T::search(n, cfg, &mut NullSink)
        }
        .map_err(err("plan"))?;
        search_ms.push(ms(t0.elapsed()));
        let tree = outcome.tree;
        let t1 = Instant::now();
        let plan = T::compile(tree.clone()).map_err(err("compile"))?;
        compile_ms.push(ms(t1.elapsed()));
        last = Some((tree, plan));
    }
    let (tree, plan) = last.expect("at least one set-up ran");
    Ok(Setup {
        tree,
        plan,
        search_ms,
        compile_ms,
    })
}

pub fn run<T: Transform>(workload: &str, n: usize, opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        traced::<T>(workload, n, opts)
    } else {
        plain::<T>(n, opts)
    }
}

/// The gated run: set-up, then untraced ops for `opts.seconds`.
fn plain<T: Transform>(n: usize, opts: &Opts) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let cfg = PlannerConfig::ddl_analytical();
    let set = setup::<T, _>(n, &cfg, &mut NullSink)?;
    let mut rng = Rng::new(opts.seed);
    let mut data = Data::<T>::new(&mut rng, n);
    let warm = data.first_op(&set.plan, opts.self_test, &mut o)?;

    // Each op is followed by the baseline on the same input, so both see
    // the same host state and their ratio leaves the host out.
    let (mut latencies, mut baseline) = (Vec::new(), Vec::new());
    let mut reference = T::baseline(n);
    let budget = Duration::from_secs_f64(opts.seconds);
    drive(budget, 2 * warm, &mut rng, |i, check| {
        let Some(d) = data.op(&set.plan, i, None, &mut o) else {
            return Duration::ZERO;
        };
        latencies.push(ms(d));
        let checking = if check {
            data.check(i, &mut o)
        } else {
            Duration::ZERO
        };
        let t = Instant::now();
        T::run_baseline(&mut reference, &data.inputs[i]);
        std::hint::black_box(&mut reference);
        baseline.push(ms(t.elapsed()));
        checking
    });
    if latencies.is_empty() {
        return Err("no timed op completed".into());
    }
    o.set("setup_s", set.median_s());
    o.set("latency_vs_ref", median(&latencies) / median(&baseline));
    o.set("peak_rss_mb", peak_rss_mib(std::process::id())?);
    o.latencies(&latencies, latencies.iter().sum::<f64>() / 1e3);
    o.extra.push(format!("ref_ms_p50 {} ms", median(&baseline)));
    Ok(o)
}

/// Stage totals of a recorder, to take per-op deltas.
#[derive(Clone, Copy)]
struct Totals {
    ns: [u64; 3],
    calls: [u64; 3],
    points: [u64; 3],
}

impl Totals {
    fn of(r: &Recorder) -> Totals {
        let per = |f: &dyn Fn(Stage) -> u64| Stage::ALL.map(f);
        Totals {
            ns: per(&|s| r.stage_ns(s)),
            calls: per(&|s| r.stage_calls(s)),
            points: per(&|s| r.stage_points(s)),
        }
    }

    fn since(&self, before: &Totals) -> Totals {
        let d = |a: [u64; 3], b: [u64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        Totals {
            ns: d(self.ns, before.ns),
            calls: d(self.calls, before.calls),
            points: d(self.points, before.points),
        }
    }
}

/// The per-layer run: planner and compile under a recorder, plain and
/// profiled ops interleaved for half the time, the chosen tree against
/// the SDL tree for the other half, then one simulated execution.
fn traced<T: Transform>(workload: &str, n: usize, opts: &Opts) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let cfg = PlannerConfig::ddl_analytical();
    let mut rec = Recorder::with_limits(MAX_RECORDED_CANDIDATES, TRACE_EVENT_CAP);
    let mut spans = Spans::default();
    let size = [("n", n as f64)];

    // The recorder sees the first search; the spans show the first set-up.
    let t0 = rec.now_ns();
    let set = setup::<T, _>(n, &cfg, &mut rec)?;
    let plan_end = t0 + (set.search_ms[0] * 1e6) as u64;
    let compile_end = plan_end + (set.compile_ms[0] * 1e6) as u64;
    spans.push("setup.plan", t0, plan_end, 1, &size);
    spans.push("setup.compile", plan_end, compile_end, 1, &size);
    let (tree, plan) = (&set.tree, &set.plan);
    o.set("planner.search_ms", median(&set.search_ms));
    o.set(
        "planner.states",
        rec.counter_value(Counter::PlannerStates) as f64,
    );
    o.set("planner.reorg_nodes", tree.reorg_count() as f64);
    o.set("compile.ms", median(&set.compile_ms));
    o.set("compile.twiddle_points", T::twiddle_points(plan) as f64);
    o.set("compile.scratch_points", T::scratch_points(plan) as f64);

    let mut rng = Rng::new(opts.seed);
    let mut data = Data::<T>::new(&mut rng, n);
    let warm = data.first_op(plan, opts.self_test, &mut o)?;
    let half = Duration::from_secs_f64(opts.seconds / 2.0);

    // Profiled and plain ops alternate, so host drift hits both alike.
    let (mut plain, mut profiled, mut per_op) = (Vec::new(), Vec::new(), Vec::new());
    drive(half, 2 * warm, &mut rng, |i, check| {
        let before = Totals::of(&rec);
        let t0 = rec.now_ns();
        let Some(d) = data.op(plan, i, Some(&mut rec), &mut o) else {
            return Duration::ZERO;
        };
        let t1 = rec.now_ns();
        let seq = profiled.len() as f64;
        spans.push("op", t0, t1, 1, &[("seq", seq), ("input", i as f64)]);
        per_op.push(Totals::of(&rec).since(&before));
        profiled.push(ms(d));
        let checking = if check {
            let took = data.check(i, &mut o);
            spans.push("verify", t1, rec.now_ns(), 1, &[("input", i as f64)]);
            took
        } else {
            Duration::ZERO
        };
        if let Some(d) = data.op(plan, i, None, &mut o) {
            plain.push(ms(d));
        }
        checking
    });
    if per_op.is_empty() || plain.is_empty() {
        return Err("no timed op completed".into());
    }
    let stage_ms = |s: Stage| {
        median(
            &per_op
                .iter()
                .map(|t| t.ns[s as usize] as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let other_ms: Vec<f64> = per_op
        .iter()
        .zip(&profiled)
        .map(|(t, total)| total - t.ns.iter().sum::<u64>() as f64 / 1e6)
        .collect();
    let first = per_op[0];
    o.set("exec.leaf_ms", stage_ms(Stage::Leaf));
    o.set("exec.twiddle_ms", stage_ms(Stage::Twiddle));
    o.set("exec.reorg_ms", stage_ms(Stage::Reorg));
    o.set("exec.other_ms", median(&other_ms));
    o.set("exec.leaf_calls", first.calls[Stage::Leaf as usize] as f64);
    o.set(
        "exec.twiddle_points",
        first.points[Stage::Twiddle as usize] as f64,
    );
    o.set(
        "exec.reorg_points",
        first.points[Stage::Reorg as usize] as f64,
    );
    o.latencies(&plain, plain.iter().sum::<f64>() / 1e3);
    let plain_p50 = median(&plain);
    let flops = T::FLOPS_PER_NLOGN * n as f64 * (n as f64).log2();
    o.set("exec.gflops_p50", flops / (plain_p50 * 1e6));
    o.set("trace.overhead_ratio", median(&profiled) / plain_p50);

    let CostBackend::Analytical(model) = cfg.backend else {
        unreachable!("ddl_analytical prices with the analytical model")
    };
    let pred = T::predict(&model, tree);
    o.set(
        "model.pred_over_meas",
        pred.total_ns() / (median(&profiled) * 1e6),
    );
    o.set(
        "model.leaf_pred_over_meas",
        ratio(pred.leaf_ns, stage_ms(Stage::Leaf) * 1e6),
    );
    o.set(
        "model.twiddle_pred_over_meas",
        ratio(pred.twiddle_ns, stage_ms(Stage::Twiddle) * 1e6),
    );
    o.set(
        "model.reorg_pred_over_meas",
        ratio(pred.reorg_ns, stage_ms(Stage::Reorg) * 1e6),
    );

    // Regret: the chosen tree against the SDL planner's tree, interleaved.
    let sdl_tree = T::search(n, &PlannerConfig::sdl_analytical(), &mut NullSink)
        .map_err(err("plan sdl"))?
        .tree;
    o.extra.push(format!("tree {tree}"));
    o.extra.push(format!("sdl_tree {sdl_tree}"));
    let sdl = T::compile(sdl_tree).map_err(err("compile sdl"))?;
    data.first_op(&sdl, false, &mut o)?;
    let (mut chosen_ms, mut sdl_ms) = (Vec::new(), Vec::new());
    drive(half, 2 * warm, &mut rng, |i, check| {
        if let Some(d) = data.op(plan, i, None, &mut o) {
            chosen_ms.push(ms(d));
        }
        let Some(d) = data.op(&sdl, i, None, &mut o) else {
            return Duration::ZERO;
        };
        sdl_ms.push(ms(d));
        if check {
            data.check(i, &mut o)
        } else {
            Duration::ZERO
        }
    });
    if !chosen_ms.is_empty() && !sdl_ms.is_empty() {
        o.set(
            "planner.regret_vs_sdl",
            median(&chosen_ms) / median(&sdl_ms),
        );
    }

    let t0 = rec.now_ns();
    let sim = T::simulate(plan).map_err(err("simulate"))?;
    spans.push("simulate", t0, rec.now_ns(), 1, &size);
    let hier = sim
        .hierarchy
        .as_ref()
        .ok_or("simulation returned no hierarchy")?;
    o.set("sim.accesses", sim.totals.accesses as f64);
    o.set("sim.l1_misses", hier.totals.l1.misses as f64);
    o.set("sim.l2_misses", hier.totals.l2.misses as f64);
    o.set("sim.tlb_misses", hier.totals.tlb.misses as f64);
    o.set("sim.case3_leaves", sim.case3_leaf_counts().1 as f64);

    let path = opts.out_dir.join(format!("{workload}.trace.json"));
    if let Err(e) = spans.write(&rec, &path) {
        o.problems.push(e);
    }
    Ok(o)
}
