//! Criterion bench — cost of the reorganization alone.
//!
//! The DDL premise (paper Section IV-A) is that the reorganization `Dr`
//! costs less than the strided traffic it removes. The DFT executor's
//! reorganizing splits and the 2-D and six-step plans perform `Dr`
//! through one routine, the executor's tiled transpose
//! (`ddl_core::dft::run_transpose`, destination index innermost); this
//! bench prices it in isolation on a matrix large enough that layout
//! matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddl_core::dft::run_transpose;
use ddl_num::Complex64;

fn bench_reorg(c: &mut Criterion) {
    let mut group = c.benchmark_group("reorg");
    group.sample_size(10);

    for log_n in [16u32, 20] {
        let n = 1usize << log_n;
        let rows = 1usize << (log_n / 2);
        let cols = n / rows;
        let src: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let mut dst = vec![Complex64::ZERO; n];
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("transpose_executor", log_n), &n, |b, _| {
            b.iter(|| {
                run_transpose(&src, &mut dst, rows, cols);
                std::hint::black_box(&mut dst);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reorg);
criterion_main!(benches);
