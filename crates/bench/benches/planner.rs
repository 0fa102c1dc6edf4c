//! Criterion bench — cost of the dynamic-programming search itself.
//!
//! The paper stresses that the search "is performed off line" and has
//! complexity `O(p^2 q^2)`; this bench verifies it stays cheap in
//! practice (analytical backend — the measured backend's cost is the
//! measurements themselves, not the search).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddl_core::planner::{try_plan_dft, try_plan_dft_sweep, try_plan_wht, PlannerConfig};

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    for log_n in [12u32, 18, 24] {
        let n = 1usize << log_n;
        group.bench_with_input(BenchmarkId::new("dft_sdl", log_n), &n, |b, &n| {
            b.iter(|| {
                std::hint::black_box(try_plan_dft(n, &PlannerConfig::sdl_analytical()).unwrap())
            });
        });
        group.bench_with_input(BenchmarkId::new("dft_ddl", log_n), &n, |b, &n| {
            b.iter(|| {
                std::hint::black_box(try_plan_dft(n, &PlannerConfig::ddl_analytical()).unwrap())
            });
        });
        group.bench_with_input(BenchmarkId::new("wht_ddl", log_n), &n, |b, &n| {
            b.iter(|| {
                std::hint::black_box(try_plan_wht(n, &PlannerConfig::ddl_analytical()).unwrap())
            });
        });
    }
    group.bench_function("dft_ddl_sweep_2^24", |b| {
        b.iter(|| {
            std::hint::black_box(
                try_plan_dft_sweep(1 << 24, &PlannerConfig::ddl_analytical()).unwrap(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
