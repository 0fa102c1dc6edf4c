//! Criterion bench: WHT execution, SDL vs DDL trees (statistical
//! companion to the `fig15_wht` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddl_core::planner::{plan_wht, CostBackend, PlannerConfig, Strategy};
use ddl_core::{CacheModel, WhtPlan};

fn wht_cfg(strategy: Strategy) -> PlannerConfig {
    let model = CacheModel::from_geometry(512 * 1024, 64, 8);
    PlannerConfig {
        strategy,
        backend: CostBackend::Analytical(model),
        max_leaf: 64,
        cache_points: model.capacity_points,
    }
}

fn bench_wht(c: &mut Criterion) {
    let mut group = c.benchmark_group("wht");
    group.sample_size(10);
    for log_n in [14u32, 18, 20] {
        let n = 1usize << log_n;
        group.throughput(Throughput::Elements(n as u64));
        let base: Vec<f64> = (0..n).map(|i| (i % 251) as f64 - 125.0).collect();

        for (label, strategy) in [("sdl", Strategy::Sdl), ("ddl", Strategy::Ddl)] {
            let tree = plan_wht(n, &wht_cfg(strategy)).tree;
            let plan = WhtPlan::new(tree).unwrap();
            let mut data = base.clone();
            group.bench_with_input(BenchmarkId::new(label, log_n), &n, |b, _| {
                b.iter(|| {
                    // in-place transform; input values don't affect timing
                    plan.try_execute(&mut data).unwrap();
                    std::hint::black_box(&mut data);
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wht);
criterion_main!(benches);
