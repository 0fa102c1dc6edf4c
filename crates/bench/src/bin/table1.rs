//! Table I — alternate factorization trees: SDL vs DDL, measured vs
//! estimated.
//!
//! The paper's Table I lists hand-picked factorization trees of a 2^20
//! point FFT on Alpha 21264, with measured execution times for SDL and
//! DDL variants and — for the DDL trees — the execution time *estimated*
//! by the cost model of Eq. (3), validating that the model ranks trees
//! like reality does.
//!
//! This binary reproduces all three columns on the host: a spread of
//! representative trees (right-most, balanced, and their `ctddl`
//! variants, plus trees with reorganization at two nodes, as in the
//! paper's table) is measured, and each tree's analytical estimate is
//! printed alongside.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin table1 [--max-log-n 20] [--quick]
//! ```

use ddl_bench::{measure_floor, parse_sweep_args, SweepArgs};
use ddl_core::grammar::{parse, print_dft};
use ddl_core::planner::time_dft_tree;
use ddl_core::{CacheModel, Tree};

/// Representative tree expressions for size `2^p`, mirroring the paper's
/// Table I structure: unfactorized-ish, right-most, balanced, and DDL
/// variants with one or two reorganized nodes.
fn candidate_exprs(p: u32) -> Vec<String> {
    assert!(p >= 12, "table1 needs at least 2^12");
    let n = 1u64 << p;
    let half = 1u64 << (p / 2);
    let other = n / half;
    let quarter_l = 1u64 << (p / 4);
    let ql_rest = half / quarter_l;
    vec![
        // right-most SDL and its root-DDL variant
        format!(
            "ct(64,ct(64,ct({},{})))",
            1u64 << ((p - 12) / 2),
            n / 64 / 64 / (1u64 << ((p - 12) / 2))
        ),
        format!(
            "ctddl(64,ct(64,ct({},{})))",
            1u64 << ((p - 12) / 2),
            n / 64 / 64 / (1u64 << ((p - 12) / 2))
        ),
        // balanced SDL and DDL variants
        format!(
            "ct(ct({quarter_l},{ql_rest}),ct({quarter_l},{}))",
            other / quarter_l
        ),
        format!(
            "ctddl(ct({quarter_l},{ql_rest}),ct({quarter_l},{}))",
            other / quarter_l
        ),
        // reorganization applied at two nodes (the paper's double-ctddl rows)
        format!(
            "ctddl(ctddl({quarter_l},{ql_rest}),ct({quarter_l},{}))",
            other / quarter_l
        ),
        format!(
            "ctddl(ctddl({quarter_l},{ql_rest}),ctddl({quarter_l},{}))",
            other / quarter_l
        ),
    ]
}

fn main() {
    let SweepArgs { max_log, quick, .. } = parse_sweep_args();
    let p = if quick {
        max_log.min(18)
    } else {
        max_log.min(20)
    };
    let n = 1usize << p;
    let model = CacheModel::paper_default();
    let floor = measure_floor(quick);

    println!("# Table I: alternate factorization trees for a 2^{p}-point FFT");
    println!(
        "{:>12} {:>12} {:>8} | tree",
        "measured ms", "est. ms", "reorgs"
    );

    let mut rows: Vec<(f64, f64, Tree)> = Vec::new();
    for expr in candidate_exprs(p) {
        let tree = parse(&expr).unwrap_or_else(|e| panic!("bad expr {expr}: {e}"));
        assert_eq!(tree.size(), n, "expr {expr} has wrong size");
        let measured = time_dft_tree(&tree, n, 1, floor, 3).expect("time candidate");
        let estimated = model.tree_cost_ns(&tree, 1) * 1e-9;
        rows.push((measured, estimated, tree));
    }

    let best_measured = rows.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
    for (measured, estimated, tree) in &rows {
        let marker = if *measured == best_measured {
            " <- best"
        } else {
            ""
        };
        println!(
            "{:>12.3} {:>12.3} {:>8} | {}{}",
            measured * 1e3,
            estimated * 1e3,
            tree.reorg_count(),
            print_dft(tree),
            marker
        );
    }

    // Rank agreement between model and measurement (the point of the
    // paper's estimated column).
    let mut by_measured: Vec<usize> = (0..rows.len()).collect();
    by_measured.sort_by(|&a, &b| rows[a].0.total_cmp(&rows[b].0));
    let mut by_estimated: Vec<usize> = (0..rows.len()).collect();
    by_estimated.sort_by(|&a, &b| rows[a].1.total_cmp(&rows[b].1));
    println!(
        "\n# fastest tree by measurement: {}",
        print_dft(&rows[by_measured[0]].2)
    );
    println!(
        "# fastest tree by model:       {}",
        print_dft(&rows[by_estimated[0]].2)
    );
    println!("# paper shape: the estimate tracks measurement closely enough to rank");
    println!("# trees (Table I validates Eq. (3) the same way)");
}
