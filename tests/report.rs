//! The `ddl-report` envelope: one record per plan tree, one parse that
//! re-verifies every invariant its producers promise, and the retired
//! per-concern documents (calibration lines, hierarchy scorecard) as
//! renderings of the records.
//!
//! Truncation, schema/version/field corruption and the single-level
//! conservation check are exercised in `tests/robustness.rs`; this file
//! covers the full round trip, the per-level and per-stage invariants,
//! and the renderings.

use dynamic_data_layout::core::StageCost;
use dynamic_data_layout::prelude::*;
use std::collections::BTreeMap;

/// A report with every section filled: planner, measured, model, a
/// hierarchy-attributed sim with static annotations, a line-only sim, a
/// pipeline transform and counters.
fn full_report() -> Report {
    let cache = CacheConfig::paper_default(64);
    let hier = HierarchyConfig::typical(cache);
    let dft = DftPlan::from_expr("ct(ddl(8), 8)", Direction::Forward).unwrap();
    let mut rec = Recorder::new();
    rec.stage(Stage::Leaf, 700, 64);
    let mut record = PlanRecord::dft(&dft, "ddl");
    record.planner = Some(PlannerRunMetrics::from_recorder(
        "analytical",
        1234.5,
        0.015625,
        &rec,
    ));
    record.measured = Some(ExecutionMetrics::from_recorder(1_000, &rec, 49_152));
    record.model = Some(StageCost {
        leaf_ns: 900.5,
        twiddle_ns: 120.25,
        reorg_ns: 64.0,
    });
    let mut sim = attribute_dft_hier(&dft, 2, cache, hier).unwrap();
    // static annotations (normally filled by ddl-analyze) travel too
    sim.walk_mut(&mut |node, _| {
        node.static_pathological = Some(true);
        node.static_degree = Some(3);
        node.static_pathological_page = Some(false);
        node.static_degree_page = Some(1);
    });
    record.sim = Some(sim);

    let mut line_only = PlanRecord::dft(&dft, "sdl");
    line_only.sim = Some(attribute_dft(&dft, 1, cache).unwrap());

    let rfft = RfftPlan::plan(64, &PlannerConfig::sdl_analytical()).unwrap();
    let mut piped = PlanRecord::rfft(&rfft, "sdl");
    piped.sim = Some(attribute_rfft_hier(&rfft, cache, hier).unwrap());

    let mut counters = BTreeMap::new();
    counters.insert("planner.states".to_string(), 42);
    Report {
        label: "full".into(),
        plans: vec![record, line_only, piped],
        counters,
    }
}

#[test]
fn full_report_round_trips_byte_identically() {
    let report = full_report();
    let text = report.to_text();
    let back = Report::parse(&text).unwrap();
    assert_eq!(back, report);
    assert_eq!(back.to_text(), text, "serialize → parse → serialize");
    assert!(Report::parse(&Report::new("empty").to_text()).is_ok());
    // A key the envelope no longer has, like the `batches` array of
    // `crates/core/data/host-fit.json`, is ignored.
    let legacy = text.replacen('{', "{\"batches\": [{\"items\": 1}],", 1);
    assert_eq!(Report::parse(&legacy).unwrap(), report);
    match check_report_text(&text).unwrap() {
        CheckedReport::Report(checked) => assert_eq!(checked, report),
        other => panic!("sniffed wrong schema: {}", other.schema()),
    }
}

#[test]
fn parse_rechecks_level_coupling_and_stage_sums() {
    let report = full_report();

    // Breaking TLB-level conservation must fail the parse re-check.
    let mut bad = report.clone();
    let run = bad.plans[0].sim.as_mut().unwrap();
    run.hierarchy.as_mut().unwrap().totals.tlb.misses += 1;
    let err = Report::parse(&bad.to_text()).unwrap_err().to_string();
    assert!(err.contains("tlb conservation"), "{err}");

    // Decoupling a node's L2 accesses from its L1 misses must too.
    let mut bad = report.clone();
    let run = bad.plans[0].sim.as_mut().unwrap();
    run.roots[0].levels.as_mut().unwrap().l2.accesses += 1;
    let err = Report::parse(&bad.to_text()).unwrap_err().to_string();
    assert!(err.contains("L2/L1 coupling"), "{err}");

    // Stage spans are disjoint parts of one execution: a record whose
    // leaf+twiddle+reorg exceeds its wall clock is refused.
    let mut bad = report.clone();
    bad.plans[0].measured.as_mut().unwrap().stages.reorg_ns = 1_000;
    let err = Report::parse(&bad.to_text()).unwrap_err().to_string();
    assert!(err.contains("exceeds the total"), "{err}");
    assert!(err.contains("$.plans[0].measured"), "{err}");

    // Stage values near u64::MAX must not wrap the sum back under the
    // total (or overflow it): the parse refuses them with a typed error.
    let mut bad = report;
    let measured = bad.plans[0].measured.as_mut().unwrap();
    measured.total_ns = u64::MAX;
    measured.stages.leaf_ns = u64::MAX;
    measured.stages.twiddle_ns = 1;
    match Report::parse(&bad.to_text()) {
        Err(DdlError::Metrics { detail }) => {
            assert!(detail.contains("exceeds the total"), "{detail}")
        }
        Err(other) => panic!("expected a Metrics error, got {other}"),
        Ok(_) => panic!("accepted stage times that sum past u64::MAX"),
    }
}

#[test]
fn calibration_and_scorecard_render_from_the_records() {
    let report = full_report();
    let calibration = report.render_calibration();
    assert_eq!(calibration.lines().count(), 1, "{calibration}");
    // model total 1084.75 ns against a measured 1000 ns; leaf 900.5
    // against 700
    assert!(calibration.contains("total err    +8.5%"), "{calibration}");
    assert!(calibration.contains("leaf +28.6%"), "{calibration}");
    // twiddle and reorg are modelled but never measured here: a guarded
    // 0 error, not a division by zero
    assert!(calibration.contains("twiddle +0.0%"), "{calibration}");
    assert!(calibration.contains("reorg +0.0%"), "{calibration}");

    // A line-only record has no L1/L2/TLB story: an error, not zeros.
    let err = report.render_scorecard().unwrap_err().to_string();
    assert!(err.contains("no hierarchy attribution"), "{err}");

    let mut hier_only = report;
    hier_only.plans.remove(1);
    let table = hier_only.render_scorecard().unwrap();
    assert!(table.contains("tlb-m%"), "{table}");
    let row = |plan: &str| table.lines().filter(|l| l.starts_with(plan)).count();
    assert_eq!((row("dft "), row("rfft ")), (1, 1), "{table}");
    assert!(hier_only.find("rfft", 64, "sdl").is_some());
    assert!(hier_only.find("rfft", 64, "ddl").is_none());
}
