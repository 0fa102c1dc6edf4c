//! The host cost model against the clock, with no clock in the test.
//!
//! `results/table1*.txt` hold Table I's measurements on this host at
//! 2^16, 2^18 and 2^20 points (`bench_suite table1`): each candidate
//! tree's median time over interleaved rounds, the host model's estimate,
//! the planned tree, and the Kendall τ-b between the model's order and
//! the measured one. These tests recompute, from the committed fit and
//! with no clock, every estimate, the planned tree and τ-b, and check
//! them against the committed tables. A refit (`bench_suite fit`) or a
//! planner change that moves any of them must regenerate the tables
//! (`bench_suite table1 --max-log-n 16|18|20`), so the committed τ-b and
//! gaps are always those of the model that plans.
//!
//! How well the model ranks is read off the tables, not bounded here:
//! the committed tables show τ-b of at least 0.6 and the planned tree
//! within 5% of the fastest at 2^18 and 2^20, and neither at 2^16
//! (EXPERIMENTS.md, *Two-level host cost model*; ROADMAP).

use dynamic_data_layout::core::kendall_tau_b;
use dynamic_data_layout::prelude::*;

/// The committed Table I measurements, by `log2 n`.
const TABLES: [(u32, &str); 3] = [
    (16, include_str!("../results/table1-2_16.txt")),
    (18, include_str!("../results/table1-2_18.txt")),
    (20, include_str!("../results/table1.txt")),
];

/// One row of a Table I rendering.
struct Row {
    measured_ms: f64,
    estimated_ms: f64,
    tree: Tree,
    planned: bool,
}

/// The rows of a Table I rendering (the header row's first column is
/// not a number).
fn rows(text: &str) -> Vec<Row> {
    text.lines()
        .filter_map(|line| line.split_once(" | "))
        .filter_map(|(numbers, tree)| {
            let mut numbers = numbers.split_whitespace().map(|n| n.parse::<f64>());
            let measured_ms = numbers.next()?.ok()?;
            let estimated_ms = numbers.next()?.ok()?;
            let (expr, markers) = tree.split_once(" <-").unwrap_or((tree, ""));
            Some(Row {
                measured_ms,
                estimated_ms,
                tree: parse_tree(expr.trim()).unwrap(),
                planned: markers.contains("planned"),
            })
        })
        .collect()
}

/// The value of a `# <label>: <value>` trailer line.
fn trailer<'t>(text: &'t str, label: &str) -> &'t str {
    let prefix = format!("# {label}:");
    let line = text.lines().find(|l| l.starts_with(&prefix));
    line.unwrap_or_else(|| panic!("no `{prefix}` line"))[prefix.len()..].trim()
}

#[test]
fn committed_tables_hold_the_candidate_sets() {
    for (log_n, text) in TABLES {
        let rows = rows(text);
        assert!(rows.len() >= 12, "2^{log_n}: {} rows", rows.len());
        for row in &rows {
            assert_eq!(row.tree.size(), 1 << log_n, "{}", row.tree);
        }
    }
}

#[test]
fn committed_tables_hold_the_committed_models_estimates_and_plan() {
    let model = CacheModel::host();
    for (log_n, text) in TABLES {
        let planned = try_plan_dft(1 << log_n, &PlannerConfig::ddl_analytical())
            .unwrap()
            .tree;
        let rows = rows(text);
        for row in &rows {
            // printed in ms with three decimals
            let estimated_ms = model.tree_cost_ns(&row.tree, 1) * 1e-6;
            assert!(
                (row.estimated_ms - estimated_ms).abs() <= 6e-4,
                "2^{log_n}: {} estimated {estimated_ms:.3} ms, table says {:.3}",
                row.tree,
                row.estimated_ms
            );
            assert_eq!(row.planned, row.tree == planned, "2^{log_n}: {}", row.tree);
        }
        assert!(
            rows.iter().any(|r| r.planned),
            "2^{log_n}: the planned tree {planned} is not in the committed table"
        );
        let line = trailer(text, "planned tree");
        assert!(
            line.starts_with(&format!("{planned} (")),
            "2^{log_n}: {line}"
        );
    }
}

#[test]
fn kendall_tau_of_the_model_against_the_committed_measurements() {
    let model = CacheModel::host();
    for (log_n, text) in TABLES {
        let rows = rows(text);
        let measured: Vec<f64> = rows.iter().map(|r| r.measured_ms).collect();
        let estimated: Vec<f64> = rows
            .iter()
            .map(|r| model.tree_cost_ns(&r.tree, 1))
            .collect();
        let tau = kendall_tau_b(&estimated, &measured);
        let committed: f64 = trailer(text, "Kendall tau-b, model against measurement")
            .parse()
            .unwrap();
        // the table's τ-b ranks unrounded medians; rounding to µs can
        // only turn a near-tie into a tie
        assert!(
            (tau - committed).abs() <= 0.01,
            "2^{log_n}: Kendall tau-b {tau:.3} from the committed fit, table says {committed:.3}"
        );
    }
}
