//! Fault-injection and no-panic fuzzing for the public planning,
//! execution, and persistence entry points.
//!
//! The paper's system is an offline planner + online executor: plans are
//! persisted and reloaded, sizes and strides arrive from callers, and a
//! long-running service must route around bad inputs instead of
//! aborting. These tests pin that contract: every `try_*` entry point
//! returns `Err` (never panics) on malformed input, and the wisdom store
//! quarantines corrupt entries instead of refusing the whole file.

use dynamic_data_layout::core::dft::{DftPlan, DftViews};
use dynamic_data_layout::core::grammar;
use dynamic_data_layout::core::obs::NullSink;
use dynamic_data_layout::core::planner::{try_plan_dft, try_plan_wht, PlannerConfig, Strategy};
use dynamic_data_layout::core::wisdom::Wisdom;
use dynamic_data_layout::num::{Complex64, DdlError, Direction};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_wisdom_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ddl-robustness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.json"))
}

// ---------------------------------------------------------------------------
// Grammar fuzzing: parse never panics, and round-trips what it accepts.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn grammar_parse_never_panics(expr in ".{0,80}") {
        // Either outcome is fine; what is being tested is "no panic".
        match grammar::parse(&expr) {
            Ok(tree) => {
                // Anything the parser accepts must be a valid tree that
                // survives a print/parse round trip.
                prop_assert!(tree.validate().is_ok(), "accepted invalid tree from {expr:?}");
                let printed = grammar::print_dft(&tree);
                prop_assert_eq!(grammar::parse(&printed).unwrap(), tree);
            }
            Err(e) => {
                // Errors must carry a position inside (or just past) the
                // input so callers can report diagnostics.
                prop_assert!(e.pos <= expr.len());
            }
        }
    }

    #[test]
    fn planner_never_panics_on_any_size(n in 0usize..=4096) {
        let cfg = PlannerConfig::ddl_analytical();
        match try_plan_dft(n, &cfg) {
            Ok(out) => prop_assert_eq!(out.tree.size(), n),
            Err(e) => prop_assert!(matches!(e, DdlError::InvalidSize { .. })),
        }
        match try_plan_wht(n, &cfg) {
            Ok(out) => {
                prop_assert!(n.is_power_of_two());
                prop_assert_eq!(out.tree.size(), n);
            }
            Err(e) => {
                prop_assert!(!n.is_power_of_two() || n == 0);
                prop_assert!(matches!(e, DdlError::InvalidSize { .. }));
            }
        }
    }

    #[test]
    fn execute_view_never_panics_on_any_view(
        base in 0usize..200,
        stride in 0usize..200,
        buf_len in 0usize..300,
        scratch_len in 0usize..40,
    ) {
        let plan = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let input = vec![Complex64::ONE; buf_len];
        let mut output = vec![Complex64::ZERO; buf_len];
        let mut scratch = vec![Complex64::ZERO; scratch_len];
        let views = DftViews::new(&input, &mut output)
            .input_at(base, stride)
            .output_at(base, stride);
        let res = plan.try_run(views, &mut scratch, &mut NullSink);
        // A view that fits with adequate scratch must succeed; anything
        // else must be a structured error, not a panic.
        let n = plan.n();
        let fits = stride > 0
            && (n - 1) * stride + base < buf_len
            && scratch.len() >= plan.scratch_len();
        prop_assert_eq!(res.is_ok(), fits, "base={} stride={} buf={}", base, stride, buf_len);
    }

    #[test]
    fn overflowing_views_are_errors(
        base in prop::sample::select(vec![0usize, 1, usize::MAX - 1, usize::MAX]),
        stride in prop::sample::select(vec![usize::MAX / 2, usize::MAX / 15, usize::MAX]),
    ) {
        let plan = DftPlan::from_expr("ct(4,4)", Direction::Forward).unwrap();
        let input = vec![Complex64::ONE; 16];
        let mut output = vec![Complex64::ZERO; 16];
        let mut scratch = Vec::new();
        let views = DftViews::new(&input, &mut output).input_at(base, stride);
        let res = plan.try_run(views, &mut scratch, &mut NullSink);
        prop_assert!(res.is_err());
    }
}

/// Composite plans plan their inner DFTs through the fallible planner, so
/// a zero-length dimension is a typed size error, not a panic.
#[test]
fn zero_sized_composite_plans_are_invalid_size_errors() {
    use dynamic_data_layout::core::{DctPlan, Dft2dPlan, SixStepPlan};
    let cfg = PlannerConfig::ddl_analytical();
    let invalid = |r: Result<(), DdlError>| matches!(r, Err(DdlError::InvalidSize { .. }));
    assert!(invalid(DctPlan::plan(0, &cfg).map(drop)));
    assert!(invalid(
        Dft2dPlan::new(0, 8, Direction::Forward, &cfg).map(drop)
    ));
    assert!(invalid(
        SixStepPlan::new(4, 0, Direction::Forward, &cfg).map(drop)
    ));
}

// ---------------------------------------------------------------------------
// Wisdom-store fault injection.
// ---------------------------------------------------------------------------

#[test]
fn missing_wisdom_file_loads_empty() {
    let path = temp_wisdom_file("does-not-exist");
    std::fs::remove_file(&path).ok();
    let w = Wisdom::load(&path).unwrap();
    assert!(w.is_empty());
    assert!(w.quarantined().is_empty());
}

#[test]
fn truncated_json_is_a_format_error() {
    let path = temp_wisdom_file("truncated");
    // Write a valid store, then truncate it mid-document.
    let mut w = Wisdom::default();
    let tree = grammar::parse("ct(2^5, 2^5)").unwrap();
    w.put("dft", 1 << 10, Strategy::Ddl, &tree, 1.0, "test");
    w.save(&path).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    let err = Wisdom::load(&path).unwrap_err();
    match &err {
        DdlError::WisdomFormat { path: p, .. } => assert!(p.contains("truncated")),
        other => panic!("expected WisdomFormat, got {other}"),
    }
}

#[test]
fn future_format_version_is_refused() {
    let path = temp_wisdom_file("future-version");
    std::fs::write(&path, r#"{"version": 99, "entries": {}}"#).unwrap();
    match Wisdom::load(&path).unwrap_err() {
        DdlError::WisdomVersion { found, supported } => {
            assert_eq!(found, 99);
            assert!(supported < 99);
        }
        other => panic!("expected WisdomVersion, got {other}"),
    }
}

#[test]
fn bad_expressions_are_quarantined_and_replanned() {
    let path = temp_wisdom_file("bad-expr");
    std::fs::write(
        &path,
        r#"{
  "version": 2,
  "entries": {
    "dft:16:sdl": {"expr": "ct(4,4)", "cost": 1.0, "note": "good"},
    "dft:64:ddl": {"expr": "frob(8,8)", "cost": 1.0, "note": "unparseable"},
    "dft:32:sdl": {"expr": "ct(4,4)", "cost": 1.0, "note": "size disagrees with key"}
  }
}"#,
    )
    .unwrap();

    let mut w = Wisdom::load(&path).unwrap();
    // The good entry loads; the two bad ones are quarantined with
    // diagnostics rather than poisoning the file.
    assert_eq!(w.len(), 1);
    assert_eq!(w.quarantined().len(), 2);
    for q in w.quarantined() {
        assert!(
            matches!(q.error, DdlError::CorruptWisdomEntry { .. }),
            "{}",
            q.error
        );
    }

    // Graceful degradation: asking for the corrupt size re-plans.
    let cfg = PlannerConfig::ddl_analytical();
    let (tree, _cost) = w.get_or_plan_dft(64, &cfg).unwrap();
    assert_eq!(tree.size(), 64);
}

#[test]
fn corrupt_round_trip_fuzz() {
    // Deterministic corruption sweep: flip the store through a series of
    // mutations and require load() to return Err or quarantine — never
    // panic, never silently accept garbage as a plan.
    let path = temp_wisdom_file("mutations");
    let mut w = Wisdom::default();
    let tree = grammar::parse("ctddl(2^5, 2^5)").unwrap();
    w.put("dft", 1 << 10, Strategy::Ddl, &tree, 1.5, "seed");
    w.save(&path).unwrap();
    let good = std::fs::read_to_string(&path).unwrap();
    assert!(
        good.contains("\"cost\": 1.5") && good.contains("ctddl"),
        "{good}"
    );

    let mutations: Vec<String> = vec![
        String::new(),                                    // empty file
        "{".into(),                                       // unterminated object
        "null".into(),                                    // wrong top-level type
        "[1,2,3]".into(),                                 // wrong top-level type
        good.replace("ctddl", "qqddl"),                   // unparseable expr
        good.replace("\"cost\": 1.5", "\"cost\": -1"),    // negative cost
        good.replace("\"cost\": 1.5", "\"cost\": 1e999"), // non-finite cost
        good.replace("dft:1024:ddl", "dft:999:ddl"),      // key/size mismatch
        format!("{good}garbage"),                         // trailing garbage
    ];
    for (i, text) in mutations.iter().enumerate() {
        std::fs::write(&path, text).unwrap();
        match Wisdom::load(&path) {
            Ok(w) => {
                // Accepted documents must have quarantined the bad entry.
                assert!(
                    w.get("dft", 1 << 10, Strategy::Ddl).is_none(),
                    "mutation {i} silently accepted a corrupt plan"
                );
            }
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        DdlError::WisdomFormat { .. } | DdlError::WisdomVersion { .. }
                    ),
                    "mutation {i}: unexpected error kind {e}"
                );
            }
        }
    }
}

#[test]
fn save_then_load_preserves_entries_and_version() {
    let path = temp_wisdom_file("round-trip");
    let mut w = Wisdom::default();
    let tree = grammar::parse("ct(2^6, 2^6)").unwrap();
    w.put("dft", 1 << 12, Strategy::Sdl, &tree, 3.25, "round trip");
    w.save(&path).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"version\""), "{text}");

    let loaded = Wisdom::load(&path).unwrap();
    assert_eq!(loaded.len(), 1);
    let (back, cost) = loaded.get("dft", 1 << 12, Strategy::Sdl).unwrap();
    assert_eq!(back, tree);
    assert_eq!(cost, 3.25);
}

// ---------------------------------------------------------------------------
// Performance-ledger fault injection: `results/trajectory.jsonl` lines.
// ---------------------------------------------------------------------------

use ddl_bench::ledger::{append_entry, read_ledger, AttributionSummary, LedgerEntry};
use std::collections::BTreeMap;

/// A representative ledger entry with every optional part populated.
fn sample_ledger_entry() -> LedgerEntry {
    LedgerEntry {
        label: "robustness".into(),
        quick: true,
        git_sha: "deadbeef".into(),
        rustc: "rustc 1.75.0".into(),
        cpu: "test-cpu".into(),
        cases: BTreeMap::from([
            ("dft-ddl-n1024".to_string(), 1234.5),
            ("wht-sdl-n256".to_string(), 98.25),
        ]),
        attribution: vec![AttributionSummary {
            transform: "dft".into(),
            n: 1024,
            strategy: "ddl".into(),
            miss_rate: 0.0625,
            misses: 128,
            accesses: 2048,
            leaves: 3,
            case3_leaves: 1,
            tlb_miss_rate: Some(0.004),
            case3_leaves_page: Some(0),
        }],
    }
}

#[test]
fn truncated_ledger_lines_are_typed_errors_at_every_offset() {
    // A torn write (power loss, full disk, concurrent reader) leaves a
    // prefix of a valid line. Every such prefix must parse to a typed
    // error — never a panic, never a silently-wrong entry.
    let entry = sample_ledger_entry();
    let line = entry.to_line();
    assert_eq!(LedgerEntry::parse_line(&line).unwrap(), entry);
    for cut in 0..line.len() {
        if !line.is_char_boundary(cut) {
            continue;
        }
        let err = LedgerEntry::parse_line(&line[..cut])
            .expect_err(&format!("prefix of {cut} bytes parsed as a full entry"));
        assert!(
            matches!(err, DdlError::Metrics { .. }),
            "cut at {cut}: unexpected error kind {err}"
        );
    }
}

#[test]
fn garbled_ledger_lines_are_typed_errors() {
    let line = sample_ledger_entry().to_line();
    let garbles: Vec<String> = vec![
        line.replace("ddl-trajectory", "ddl-somethingelse"), // wrong schema
        line.replace("\"version\":1", "\"version\":99"),     // future version
        line.replace("\"schema\":", "\"scheme\":"),          // schema missing
        line.replace("\"quick\":true", "\"quick\":\"yes\""), // non-boolean quick
        line.replace("1234.5", "\"fast\""),                  // non-numeric median
        line.replace("1234.5", "-1"),                        // negative median
        line.replace("\"misses\":128", "\"misses\":-5"),     // negative counter
        line.replace("\"miss_rate\":0.0625", "\"miss_rate\":1e999"), // non-finite
        line.replace("\"transform\":\"dft\"", "\"transform\":7"), // wrong type
    ];
    for (i, text) in garbles.iter().enumerate() {
        if *text == line {
            continue; // replacement did not apply; nothing to assert
        }
        let err =
            LedgerEntry::parse_line(text).expect_err(&format!("garble {i} was accepted: {text}"));
        assert!(
            matches!(err, DdlError::Metrics { .. }),
            "garble {i}: unexpected error kind {err}"
        );
    }
    // Attribution as a non-array is refused outright.
    let err = LedgerEntry::parse_line(&line.replace("\"attribution\":[", "\"attribution\":\"["))
        .map(|_| ())
        .expect_err("non-array attribution accepted");
    assert!(matches!(err, DdlError::Metrics { .. }), "{err}");
}

#[test]
fn torn_ledger_tail_fails_with_line_number_not_panic() {
    let dir = std::env::temp_dir().join(format!("ddl-robustness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn-ledger.jsonl");
    let _ = std::fs::remove_file(&path);

    let entry = sample_ledger_entry();
    append_entry(&path, &entry).unwrap();
    append_entry(&path, &entry).unwrap();
    assert_eq!(read_ledger(&path).unwrap().len(), 2);

    // Tear the final line mid-record, as an interrupted append would.
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - full.len() / 4]).unwrap();
    let err = read_ledger(&path).unwrap_err().to_string();
    assert!(err.contains("line 2"), "no line attribution in: {err}");

    // Blank and whitespace-only lines between records stay harmless.
    std::fs::write(
        &path,
        format!("\n{}\n   \n{}\n\n", entry.to_line(), entry.to_line()),
    )
    .unwrap();
    assert_eq!(read_ledger(&path).unwrap().len(), 2);
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #[test]
    fn bit_flipped_ledger_lines_never_panic(
        pos in 0usize..600,
        flip in 1u8..=255,
    ) {
        // Single-byte corruption anywhere in the line must yield Ok (the
        // flip landed somewhere harmless, e.g. inside a label) or a typed
        // error — the process must survive either way.
        let entry = sample_ledger_entry();
        let mut bytes = entry.to_line().into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        if let Ok(text) = String::from_utf8(bytes) {
            match LedgerEntry::parse_line(&text) {
                Ok(_) => {}
                Err(e) => prop_assert!(
                    matches!(e, DdlError::Metrics { .. }),
                    "unexpected error kind {}", e
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Report fault injection: `ddl-report` documents carrying attribution.
// ---------------------------------------------------------------------------

use dynamic_data_layout::cachesim::CacheConfig;
use dynamic_data_layout::core::attrib::attribute_dft;
use dynamic_data_layout::core::reports::{check_report_text, CheckedReport, PlanRecord, Report};

/// A real attributed run serialized as a one-record report.
fn sample_attribution_text() -> String {
    let plan = DftPlan::from_expr("ct(ddl(8), 8)", Direction::Forward).unwrap();
    let cache = CacheConfig {
        capacity_bytes: 16 * 1024,
        line_bytes: 64,
        associativity: 1,
    };
    let mut record = PlanRecord::dft(&plan, "ddl");
    record.sim = Some(attribute_dft(&plan, 2, cache).unwrap());
    let mut report = Report::new("robustness");
    report.plans.push(record);
    report.to_text()
}

#[test]
fn truncated_attribution_reports_are_typed_errors() {
    let text = sample_attribution_text();
    assert!(Report::parse(&text).is_ok());
    // Sampling every 7th boundary keeps the sweep fast while still
    // covering cuts inside every structural region of the document.
    for cut in (0..text.len()).step_by(7) {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let err = Report::parse(&text[..cut])
            .map(|_| ())
            .expect_err(&format!("prefix of {cut} bytes parsed as a report"));
        assert!(
            matches!(err, DdlError::Metrics { .. }),
            "cut at {cut}: unexpected error kind {err}"
        );
    }
}

#[test]
fn malformed_attribution_reports_are_typed_errors() {
    let text = sample_attribution_text();
    let garbles: Vec<String> = vec![
        text.replace("ddl-report", "ddl-imposter"), // wrong schema
        text.replace("\"version\": 1", "\"version\": 99"), // future version
        text.replace("\"label\"", "\"lebal\""),     // missing field
        text.replace("\"hits\"", "\"htis\""),       // missing counter
    ];
    for (i, garbled) in garbles.iter().enumerate() {
        assert_ne!(garbled, &text, "garble {i} did not apply");
        let err = Report::parse(garbled)
            .map(|_| ())
            .expect_err(&format!("garble {i} was accepted"));
        assert!(
            matches!(err, DdlError::Metrics { .. }),
            "garble {i}: unexpected error kind {err}"
        );
    }
}

#[test]
fn attribution_conservation_violations_fail_the_parse() {
    // A document whose counters stopped adding up (bit rot, a buggy
    // producer) must be refused at parse time, not propagated into the
    // trajectory ledger.
    let text = sample_attribution_text();
    let report = Report::parse(&text).unwrap();
    let misses = report.plans[0].sim.as_ref().unwrap().totals.misses;
    let broken = text.replacen(&format!("\"misses\": {misses}"), "\"misses\": 987654321", 1);
    assert_ne!(broken, text, "corruption did not apply");
    let err = Report::parse(&broken).unwrap_err();
    assert!(
        err.to_string().contains("conservation"),
        "unexpected error: {err}"
    );
}

#[test]
fn report_checker_routes_attribution_docs_and_rejects_garbage() {
    let text = sample_attribution_text();
    match check_report_text(&text).unwrap() {
        CheckedReport::Report(report) => assert_eq!(report.label, "robustness"),
        other => panic!("sniffed wrong schema: {}", other.schema()),
    }
    // A recognized schema with a corrupt body is an error, not Unknown.
    assert!(check_report_text(&text.replace("\"hits\"", "\"htis\"")).is_err());
    // Truncated and non-JSON inputs are typed errors, never panics.
    assert!(check_report_text(&text[..text.len() / 3]).is_err());
    assert!(check_report_text("not a report at all").is_err());
}
