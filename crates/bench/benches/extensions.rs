//! Criterion bench — the extended transform family built on DDL plans:
//! real FFT vs complex FFT (the 2x working-set argument), DCT, and the
//! 2-D row–column transform.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddl_core::dft2d::Dft2dPlan;
use ddl_core::planner::{try_plan_dft, PlannerConfig};
use ddl_core::rfft::RfftPlan;
use ddl_core::{DctPlan, DftPlan};
use ddl_num::{Complex64, Direction};

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    group.sample_size(10);
    let cfg = PlannerConfig::ddl_analytical();

    for log_n in [16u32, 20] {
        let n = 1usize << log_n;
        group.throughput(Throughput::Elements(n as u64));

        // complex FFT reference point
        let cplan = DftPlan::new(try_plan_dft(n, &cfg).unwrap().tree, Direction::Forward).unwrap();
        let cx: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i % 83) as f64, (i % 47) as f64))
            .collect();
        let mut cy = vec![Complex64::ZERO; n];
        group.bench_with_input(BenchmarkId::new("complex_fft", log_n), &n, |b, _| {
            b.iter(|| {
                cplan.try_execute(&cx, &mut cy).unwrap();
                std::hint::black_box(&mut cy);
            });
        });

        // real FFT of the same length
        let rplan = RfftPlan::plan(n, &cfg).unwrap();
        let rx: Vec<f64> = (0..n).map(|i| (i % 83) as f64).collect();
        let mut spec = vec![Complex64::ZERO; rplan.bins()];
        group.bench_with_input(BenchmarkId::new("real_fft", log_n), &n, |b, _| {
            b.iter(|| {
                rplan.try_forward(&rx, &mut spec).unwrap();
                std::hint::black_box(&mut spec);
            });
        });

        // DCT-II of the same length
        let dplan = DctPlan::plan(n, &cfg).unwrap();
        let mut dy = vec![0.0f64; n];
        group.bench_with_input(BenchmarkId::new("dct2", log_n), &n, |b, _| {
            b.iter(|| {
                dplan.try_dct2(&rx, &mut dy).unwrap();
                std::hint::black_box(&mut dy);
            });
        });
    }

    // 2-D transform at a fixed realistic shape
    let (rows, cols) = (512usize, 512usize);
    let plan2d = Dft2dPlan::new(rows, cols, Direction::Forward, &cfg).unwrap();
    let img: Vec<Complex64> = (0..rows * cols)
        .map(|i| Complex64::from_re((i % 251) as f64))
        .collect();
    let mut out = vec![Complex64::ZERO; rows * cols];
    group.throughput(Throughput::Elements((rows * cols) as u64));
    group.bench_function("fft2d_512x512", |b| {
        b.iter(|| {
            plan2d.try_execute(&img, &mut out).unwrap();
            std::hint::black_box(&mut out);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
