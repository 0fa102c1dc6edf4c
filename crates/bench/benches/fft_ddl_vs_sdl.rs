//! Criterion bench: FFT execution, SDL vs DDL trees (statistical
//! companion to the `fig11_fft` binary).
//!
//! Trees come from the deterministic analytical planner so the benchmark
//! is reproducible; run the binary for measured-planner results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddl_core::planner::{try_plan_dft, PlannerConfig};
use ddl_core::DftPlan;
use ddl_num::{Complex64, Direction};

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    group.sample_size(10);
    for log_n in [14u32, 18, 20] {
        let n = 1usize << log_n;
        group.throughput(Throughput::Elements(n as u64));
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 101) as f64, (i % 37) as f64))
            .collect();

        for (label, cfg) in [
            ("sdl", PlannerConfig::sdl_analytical()),
            ("ddl", PlannerConfig::ddl_analytical()),
        ] {
            let tree = try_plan_dft(n, &cfg).unwrap().tree;
            let plan = DftPlan::new(tree, Direction::Forward).unwrap();
            let mut y = vec![Complex64::ZERO; n];
            group.bench_with_input(BenchmarkId::new(label, log_n), &n, |b, _| {
                b.iter(|| {
                    plan.try_execute(&x, &mut y).unwrap();
                    std::hint::black_box(&mut y);
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fft);
criterion_main!(benches);
