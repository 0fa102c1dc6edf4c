//! The write-before-read invariant that plan-owned scratch relies on:
//! `DftPlan`/`WhtPlan` hand their internally-scratched entry points a
//! reused, dirty buffer, which is only sound if the executors write every
//! scratch point before reading it. Each check runs a tree once on
//! zeroed scratch and once on NaN-filled (or NaN-poisoned pooled)
//! scratch and demands bit-identical output: a single stale read would
//! turn an output point into NaN.

use dynamic_data_layout::prelude::*;

/// SDL trees, reorganizing splits at several depths, and reorganizing
/// leaves (which only gather when reached at a stride).
const DFT_TREES: &[&str] = &[
    "ct(16, ct(8, 8))",
    "ct(ct(4, 4), ct(4, 8))",
    "ctddl(16, 16)",
    "ct(ddl(8), ct(8, 4))",
    "ct(ctddl(4, 8), ddl(8))",
    "ctddl(ctddl(8, 8), ct(4, 4))",
    "ctddl(ctddl(ctddl(ddl(4), 4), ddl(4)), ddl(8))",
    "ctddl(ddl(16), ctddl(ddl(8), ctddl(4, 4)))",
    "ctddl(ddl(6), ct(5, 4))",
];

const WHT_TREES: &[&str] = &[
    "split(16, split(8, 8))",
    "splitddl(16, 16)",
    "split(ddl(8), split(8, 4))",
    "splitddl(splitddl(8, 8), split(4, 4))",
    "split(ddl(32), splitddl(ddl(8), 4))",
];

const NAN: Complex64 = Complex64::new(f64::NAN, f64::NAN);

fn signal(n: usize, seed: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| {
            let t = (i * 31 + seed * 17) as f64;
            Complex64::new((t * 0.013).sin(), (t * 0.029).cos() - 0.25)
        })
        .collect()
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

/// The `n` output points of `try_run` reading `x` at stride `ss`
/// and writing at stride `ds`, with scratch and output pre-filled with
/// `fill`.
fn view_run(
    plan: &DftPlan,
    x: &[Complex64],
    ss: usize,
    ds: usize,
    fill: Complex64,
) -> Vec<(u64, u64)> {
    let mut scratch = vec![fill; plan.scratch_len()];
    let mut y = vec![fill; plan.n() * ds];
    let views = DftViews::new(x, &mut y).input_at(0, ss).output_at(0, ds);
    plan.try_run(views, &mut scratch, &mut NullSink).unwrap();
    let out: Vec<Complex64> = y.into_iter().step_by(ds).collect();
    bits(&out)
}

fn dft_plans() -> Vec<DftPlan> {
    let mut plans = Vec::new();
    for dir in [Direction::Forward, Direction::Inverse] {
        for expr in DFT_TREES {
            plans.push(DftPlan::from_expr(expr, dir).unwrap());
        }
        for log_n in [12, 14] {
            let tree = plan_dft(1 << log_n, &PlannerConfig::ddl_analytical()).tree;
            plans.push(DftPlan::new(tree, dir).unwrap());
        }
    }
    plans
}

#[test]
fn dft_view_output_ignores_scratch_contents() {
    // A strided input also reaches reorganizing leaves at the root.
    for plan in dft_plans() {
        for (ss, ds) in [(1, 1), (3, 2)] {
            let x = signal(plan.n() * ss, 1);
            assert_eq!(
                view_run(&plan, &x, ss, ds, Complex64::ZERO),
                view_run(&plan, &x, ss, ds, NAN),
                "{} {:?} strides ({ss}, {ds}): stale scratch reached the output",
                plan.tree(),
                plan.direction()
            );
        }
    }
}

#[test]
fn dft_pooled_entry_points_ignore_a_poisoned_pool() {
    for plan in dft_plans() {
        let n = plan.n();
        let x = signal(n, 2);
        let want = view_run(&plan, &x, 1, 1, Complex64::ZERO);
        let nan_in = vec![NAN; n];
        let mut y = vec![NAN; n];

        // A NaN input leaves NaN in every scratch point it touched.
        plan.try_execute(&nan_in, &mut y).unwrap();
        plan.try_execute(&x, &mut y).unwrap();
        assert_eq!(bits(&y), want, "{} try_execute", plan.tree());

        let mut poison = nan_in.clone();
        plan.try_execute_inplace(&mut poison).unwrap();
        let mut data = x.clone();
        plan.try_execute_inplace(&mut data).unwrap();
        assert_eq!(bits(&data), want, "{} try_execute_inplace", plan.tree());

        plan.try_execute(&nan_in, &mut y).unwrap();
        y.fill(NAN);
        plan.try_profile_with(&x, &mut y, &mut Recorder::new())
            .unwrap();
        assert_eq!(bits(&y), want, "{} try_profile_with", plan.tree());
        assert_eq!(plan.pooled_scratch(), 1, "{}", plan.tree());
    }
}

fn wht_plans() -> Vec<WhtPlan> {
    let mut plans: Vec<WhtPlan> = WHT_TREES
        .iter()
        .map(|e| WhtPlan::from_expr(e).unwrap())
        .collect();
    let tree = plan_wht(1 << 14, &PlannerConfig::ddl_analytical()).tree;
    plans.push(WhtPlan::new(tree).unwrap());
    plans
}

fn wht_signal(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) as f64 * 0.07).sin()).collect()
}

#[test]
fn wht_output_ignores_scratch_contents() {
    for plan in wht_plans() {
        let x = wht_signal(plan.n());
        let view = |fill: f64| {
            let mut data = x.clone();
            let mut scratch = vec![fill; plan.scratch_len()];
            plan.try_run(WhtView::new(&mut data), &mut scratch, &mut NullSink)
                .unwrap();
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let want = view(0.0);
        assert_eq!(view(f64::NAN), want, "{} view", plan.tree());

        let mut poison = vec![f64::NAN; plan.n()];
        plan.try_execute(&mut poison).unwrap();
        let mut data = x.clone();
        plan.try_execute(&mut data).unwrap();
        let got: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{} try_execute", plan.tree());

        plan.try_execute(&mut poison).unwrap();
        let mut data = x.clone();
        plan.try_profile_with(&mut data, &mut Recorder::new())
            .unwrap();
        let got: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{} try_profile_with", plan.tree());
    }
}
