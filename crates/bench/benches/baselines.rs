//! Criterion bench — every FFT implementation in the repository on one
//! axis: naive-free baselines vs planned trees vs the fixed six-step
//! schedule.
//!
//! Ablation question: how much of the DDL win is "reorganize at all"
//! (six-step always reorganizes) vs "reorganize where it pays" (the
//! planner's per-node decisions)?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddl_core::planner::{try_plan_dft, PlannerConfig};
use ddl_core::sixstep::SixStepPlan;
use ddl_core::{DftPlan, Tree};
use ddl_kernels::iterative::fft_radix2_inplace;
use ddl_num::{Complex64, Direction};

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);

    for log_n in [16u32, 20] {
        let n = 1usize << log_n;
        group.throughput(Throughput::Elements(n as u64));
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 89) as f64, (i % 55) as f64))
            .collect();

        // iterative radix-2 (in place on a copy)
        group.bench_with_input(BenchmarkId::new("iterative_radix2", log_n), &n, |b, _| {
            let mut data = x.clone();
            b.iter(|| {
                data.copy_from_slice(&x);
                fft_radix2_inplace(&mut data, Direction::Forward);
                std::hint::black_box(&mut data);
            });
        });

        // FFTW-proxy: fixed right-most radix-64 recursion
        let proxy = DftPlan::new(Tree::rightmost(n, 64), Direction::Forward).unwrap();
        let mut y = vec![Complex64::ZERO; n];
        group.bench_with_input(BenchmarkId::new("rightmost_sdl", log_n), &n, |b, _| {
            b.iter(|| {
                proxy.try_execute(&x, &mut y).unwrap();
                std::hint::black_box(&mut y);
            });
        });

        // planner outputs
        for (label, cfg) in [
            ("planned_sdl", PlannerConfig::sdl_analytical()),
            ("planned_ddl", PlannerConfig::ddl_analytical()),
        ] {
            let plan =
                DftPlan::new(try_plan_dft(n, &cfg).unwrap().tree, Direction::Forward).unwrap();
            let mut out = vec![Complex64::ZERO; n];
            group.bench_with_input(BenchmarkId::new(label, log_n), &n, |b, _| {
                b.iter(|| {
                    plan.try_execute(&x, &mut out).unwrap();
                    std::hint::black_box(&mut out);
                });
            });
        }

        // fixed six-step schedule
        let six =
            SixStepPlan::balanced(n, Direction::Forward, &PlannerConfig::sdl_analytical()).unwrap();
        let mut out6 = vec![Complex64::ZERO; n];
        group.bench_with_input(BenchmarkId::new("six_step", log_n), &n, |b, _| {
            b.iter(|| {
                six.try_execute(&x, &mut out6).unwrap();
                std::hint::black_box(&mut out6);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
