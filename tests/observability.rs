//! Invariants of the observability layer: stage breakdowns that account
//! for (and never exceed) wall-clock time, monotonic counters, a bounded
//! candidate log that stays consistent with its counter, wisdom
//! lifecycle counters, and a `ddl-report` that round-trips through its
//! JSON schema byte-for-byte.

use dynamic_data_layout::core::obs::merge_counters;
use dynamic_data_layout::core::planner::{try_plan_dft_with, try_plan_wht_with};
use dynamic_data_layout::prelude::*;

/// An explicitly reorganizing DFT tree: every stage of the Eq. (2)/(3)
/// decomposition (leaf, twiddle, reorg) runs at least once.
fn reorg_dft_tree() -> Tree {
    Tree::split_ddl(Tree::leaf(64), Tree::leaf(64))
}

/// A plan record for `tree` carrying one profiled execution.
fn dft_profile(tree: Tree) -> PlanRecord {
    let plan = DftPlan::new(tree, Direction::Forward).unwrap();
    let n = plan.n();
    let input: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i % 13) as f64, (i % 11) as f64 * -0.25))
        .collect();
    let mut output = vec![Complex64::ZERO; n];
    let mut record = PlanRecord::dft(&plan, "ddl");
    record.measured = Some(
        plan.try_profile_with(&input, &mut output, &mut Recorder::new())
            .unwrap(),
    );
    record
}

#[test]
fn stage_breakdown_accounts_for_the_execution_without_exceeding_it() {
    let record = dft_profile(reorg_dft_tree());
    assert_eq!(record.transform, "dft");
    assert_eq!(record.n, 4096);
    let m = record.measured.unwrap();
    assert_eq!(m.repeats, 1);
    assert!(m.total_ns > 0);
    assert!(m.stages.leaf_ns > 0, "leaf stage never timed");
    assert!(m.stages.twiddle_ns > 0, "twiddle stage never timed");
    assert!(m.stages.reorg_ns > 0, "reorg stage never timed");
    let sum = m.stages.stage_sum_ns();
    // The stages are disjoint sub-intervals of the execution, so their
    // sum can never exceed the wall clock; and they are where the work
    // is, so they must account for the bulk of it.
    assert!(
        sum <= m.total_ns,
        "stage sum {sum}ns exceeds total {}ns",
        m.total_ns
    );
    assert!(
        sum * 2 >= m.total_ns,
        "stages account for under half the execution: {sum} of {}ns",
        m.total_ns
    );
}

#[test]
fn stage_volumes_are_exact_for_a_known_tree() {
    // ctddl(64,64): 64 + 64 leaf calls, one 4096-point twiddle pass, and
    // two 4096-point transposes: t2 into t between the stages, and, as a
    // profiled run is untraced and stores stage 2 into t2, t2 into y
    // after it. These are structural, not timing, facts.
    let m = dft_profile(reorg_dft_tree()).measured.unwrap();
    assert_eq!(m.leaf_calls, 128);
    assert_eq!(m.twiddle_points, 4096);
    assert_eq!(m.reorg_points, 8192);
    assert!(m.leaf_flops_est > 0);

    // The same tree without the reorg flag must report no reorg points.
    let m = dft_profile(Tree::split(Tree::leaf(64), Tree::leaf(64)))
        .measured
        .unwrap();
    assert_eq!(m.reorg_points, 0);
    assert_eq!(m.stages.reorg_ns, 0);
}

#[test]
fn wht_profile_times_leaf_and_reorg_stages() {
    // The reorg flag goes on the *left* child: WHT left children execute
    // at stride n2 (paper Property 1), and the gather/scatter only fires
    // on strided views.
    let plan = WhtPlan::new(Tree::split(Tree::leaf_ddl(32), Tree::leaf(32))).unwrap();
    let mut data: Vec<f64> = (0..plan.n()).map(|i| (i % 9) as f64 - 4.0).collect();
    let m = plan
        .try_profile_with(&mut data, &mut Recorder::new())
        .unwrap();
    assert_eq!(PlanRecord::wht(&plan, "ddl").tree, "split(ddl(32),32)");
    assert_eq!(m.repeats, 1);
    assert!(m.stages.leaf_ns > 0);
    assert!(
        m.stages.reorg_ns > 0,
        "strided ddl leaf must gather/scatter"
    );
    assert!(m.reorg_points > 0);
    assert_eq!(m.stages.twiddle_ns, 0, "whts have no twiddle stage");
    assert!(m.stages.stage_sum_ns() <= m.total_ns);
}

#[test]
fn wht_lane_batches_are_one_leaf_stage_call_each() {
    let leaf_stage = |expr: &str| {
        let plan = WhtPlan::from_expr(expr).unwrap();
        let mut data: Vec<f64> = (0..plan.n()).map(|i| (i % 7) as f64).collect();
        let mut rec = Recorder::new();
        plan.try_profile_with(&mut data, &mut rec).unwrap();
        (rec.stage_calls(Stage::Leaf), rec.stage_points(Stage::Leaf))
    };
    // 64 contiguous stage-A leaves plus 8 batches of 8 stage-B leaves.
    assert_eq!(leaf_stage("split(64, 64)"), (72, 8192));
    // n2 = 4 < 8: stage B runs leaf at a time.
    assert_eq!(leaf_stage("split(64, 4)"), (68, 512));
}

#[test]
fn counters_are_monotonic_as_work_accumulates() {
    let mut rec = Recorder::new();
    try_plan_dft_with(1 << 10, &PlannerConfig::ddl_analytical(), &mut rec).unwrap();
    let before: Vec<u64> = Counter::ALL.iter().map(|c| rec.counter_value(*c)).collect();
    try_plan_wht_with(1 << 12, &PlannerConfig::ddl_analytical(), &mut rec).unwrap();
    for (counter, prev) in Counter::ALL.iter().zip(before) {
        assert!(
            rec.counter_value(*counter) >= prev,
            "{} decreased",
            counter.as_str()
        );
    }
    assert!(rec.counter_value(Counter::PlannerStates) > 0);
    assert!(rec.counter_value(Counter::PlannerCandidates) > 0);
}

#[test]
fn candidate_log_stays_consistent_with_its_counter() {
    let mut rec = Recorder::new();
    try_plan_dft_with(1 << 14, &PlannerConfig::ddl_analytical(), &mut rec).unwrap();
    let logged = rec.candidates().len() as u64 + rec.candidates_dropped();
    assert_eq!(
        logged,
        rec.counter_value(Counter::PlannerCandidates),
        "every priced candidate is either logged or counted as dropped"
    );
    for c in rec.candidates() {
        assert!(c.size >= 1);
        assert!(c.stride >= 1);
        assert!(c.cost.is_finite());
    }
}

#[test]
fn wisdom_lifecycle_reports_through_the_counters() {
    let dir = std::env::temp_dir().join(format!("ddl-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wisdom.json");
    let cfg = PlannerConfig::ddl_analytical();

    let mut rec = Recorder::new();
    let mut wisdom = Wisdom::load_with(&path, &mut rec).unwrap();
    wisdom
        .get_or_plan_dft_with(1 << 10, &cfg, &mut rec)
        .unwrap();
    assert_eq!(rec.counter_value(Counter::WisdomMisses), 1);
    wisdom.save_with(&path, &mut rec).unwrap();
    assert_eq!(rec.counter_value(Counter::WisdomSavedEntries), 1);

    let mut wisdom = Wisdom::load_with(&path, &mut rec).unwrap();
    assert_eq!(rec.counter_value(Counter::WisdomLoadedEntries), 1);
    assert_eq!(rec.counter_value(Counter::WisdomQuarantinedEntries), 0);
    wisdom
        .get_or_plan_dft_with(1 << 10, &cfg, &mut rec)
        .unwrap();
    assert_eq!(rec.counter_value(Counter::WisdomHits), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_report_round_trips_through_its_json_schema() {
    // Build a report with every instrumented section populated from real
    // runs: one record carrying both its search and its execution.
    let mut rec = Recorder::new();
    let out = try_plan_dft_with(1 << 10, &PlannerConfig::ddl_analytical(), &mut rec).unwrap();
    let mut record = dft_profile(out.tree);
    record.planner = Some(PlannerRunMetrics::from_recorder(
        "analytical",
        out.cost,
        0.015625,
        &rec,
    ));
    let mut report = Report::new("round-trip");
    report.plans.push(record);
    report.plans.push(dft_profile(reorg_dft_tree()));
    merge_counters(&mut report.counters, &rec);

    let text = report.to_text();
    let parsed = Report::parse(&text).unwrap();
    assert_eq!(
        parsed.to_text(),
        text,
        "parse(serialize(report)) must serialize identically"
    );
    assert_eq!(parsed.plans.len(), 2);
    assert!(parsed.plans[0].planner.is_some() && parsed.plans[0].measured.is_some());
    assert_eq!(
        parsed.plans[0].planner.as_ref().unwrap().states,
        rec.counter_value(Counter::PlannerStates)
    );
    assert_eq!(parsed.counters, report.counters);
}
