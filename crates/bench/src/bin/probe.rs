//! Developer probe: measure hand-picked factorization trees.
//!
//! Not one of the paper's artifacts — a quick tool for exploring how
//! specific tree shapes behave on the host, useful when interpreting the
//! planner's choices.
//!
//! ```sh
//! cargo run --release -p ddl-bench --bin probe
//! ```

use ddl_core::grammar::parse;
use ddl_core::measure::fft_mflops;
use ddl_core::planner::time_dft_tree;

fn main() {
    for (log_n, exprs) in [
        (
            18u32,
            vec![
                "ct(64,ct(64,64))",
                "ctddl(64,ct(64,64))",
                "ct(ct(16,32),ct(16,32))",
                "ctddl(ctddl(16,32),ct(16,32))",
            ],
        ),
        (
            20u32,
            vec![
                "ct(64,ct(64,ct(16,16)))",
                "ctddl(64,ct(64,ct(16,16)))",
                "ct(ct(32,32),ct(32,32))",
                "ctddl(ct(32,32),ct(32,32))",
                "ctddl(ctddl(32,32),ct(32,32))",
            ],
        ),
        (
            22u32,
            vec![
                "ct(64,ct(64,ct(32,32)))",
                "ctddl(64,ct(64,ct(32,32)))",
                "ct(ct(64,32),ct(64,32))",
                "ctddl(ct(64,32),ct(64,32))",
                "ctddl(ctddl(64,32),ctddl(64,32))",
            ],
        ),
    ] {
        let n = 1usize << log_n;
        println!("== n = 2^{log_n} ==");
        for e in exprs {
            let tree = parse(e).unwrap();
            let t = time_dft_tree(&tree, 1, 0.5, 3).expect("time tree");
            println!("{:9.3} ms  {:8.1} MFLOPS  {}", t * 1e3, fft_mflops(n, t), e);
        }
    }
}
