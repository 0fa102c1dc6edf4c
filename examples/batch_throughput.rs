//! Batched transforms and the parallel extension.
//!
//! Run with:
//! ```sh
//! cargo run --release --example batch_throughput [threads]
//! ```
//!
//! Processes a filter-bank-style batch (many independent FFTs of one
//! size) sequentially and on scoped threads that share the one plan,
//! verifying identical results and reporting throughput. A plan is
//! `Sync` and each call takes its own scratch from the plan's pool, so
//! the parallel path is a `std::thread::scope` loop over `try_execute`.
//! On a single-core host it demonstrates correctness rather than
//! speedup; on multicore hosts it scales with the thread count.

use dynamic_data_layout::prelude::*;
use dynamic_data_layout::workloads::noise_complex;

/// Transforms every `n`-point signal of `inputs` into `out`: `threads`
/// scoped threads share `plan`, each taking a contiguous run of signals.
/// Returns the first error.
fn run_batch(
    plan: &DftPlan,
    inputs: &[Complex64],
    out: &mut [Complex64],
    threads: usize,
) -> Result<(), DdlError> {
    let n = plan.n();
    let share = (inputs.len() / n).div_ceil(threads.max(1)).max(1) * n;
    std::thread::scope(|s| {
        let runs: Vec<_> = inputs
            .chunks(share)
            .zip(out.chunks_mut(share))
            .map(|(xs, ys)| {
                s.spawn(move || {
                    xs.chunks_exact(n)
                        .zip(ys.chunks_exact_mut(n))
                        .try_for_each(|(x, y)| plan.try_execute(x, y))
                })
            })
            .collect();
        runs.into_iter()
            .try_for_each(|run| run.join().expect("a batch thread panicked"))
    })
}

fn main() -> Result<(), DdlError> {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let n = 1 << 14;
    let batch = 64;
    println!("== batched FFT: {batch} x {n}-point, {threads} thread(s) ==\n");

    let tree = try_plan_dft(n, &PlannerConfig::ddl_analytical())?.tree;
    println!("per-signal tree: {}", print_dft(&tree));
    let plan = DftPlan::new(tree, Direction::Forward)?;

    let inputs = noise_complex(batch * n, 1.0, 42);
    let mut seq = vec![Complex64::ZERO; batch * n];
    let mut par = vec![Complex64::ZERO; batch * n];

    // Seconds per batch on `threads` threads, or the first error.
    let time_batch = |out: &mut [Complex64], threads: usize| -> Result<f64, DdlError> {
        let mut failed = None;
        let secs = time_per_call(
            || {
                let error = run_batch(&plan, &inputs, out, threads).err();
                failed = failed.take().or(error);
            },
            0.3,
            2,
        );
        failed.map_or(Ok(secs), Err)
    };
    let t_seq = time_batch(&mut seq, 1)?;
    let t_par = time_batch(&mut par, threads)?;
    assert_eq!(seq, par, "parallel batch diverged from sequential");

    let signals_per_sec = |t: f64| batch as f64 / t;
    println!(
        "sequential: {:8.2} ms/batch  ({:7.0} signals/s)",
        t_seq * 1e3,
        signals_per_sec(t_seq)
    );
    println!(
        "parallel:   {:8.2} ms/batch  ({:7.0} signals/s, {:.2}x)",
        t_par * 1e3,
        signals_per_sec(t_par),
        t_seq / t_par
    );
    println!("\nresults are bit-identical across both paths.");
    Ok(())
}
