//! Criterion bench — ablation of the reorganization primitives.
//!
//! The DDL premise (paper Section IV-A) is that the reorganization `Dr`
//! costs less than the strided traffic it removes. This bench prices the
//! primitives in isolation: a strided gather, a naive transpose, the
//! tiled transpose the executor actually uses, and the cache-oblivious
//! recursive variant — on a matrix large enough that layout matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ddl_layout::{
    try_gather_stride, try_transpose, try_transpose_blocked, try_transpose_recursive,
};
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

        group.bench_with_input(BenchmarkId::new("gather_stride", log_n), &n, |b, _| {
            // gather the first column (rows elements at stride cols),
            // repeated over all columns = one full permutation
            b.iter(|| {
                for c0 in 0..cols {
                    try_gather_stride(&src, c0, cols, &mut dst[c0 * rows..(c0 + 1) * rows])
                        .unwrap();
                }
                std::hint::black_box(&mut dst);
            });
        });

        group.bench_with_input(BenchmarkId::new("transpose_naive", log_n), &n, |b, _| {
            b.iter(|| {
                try_transpose(&src, &mut dst, rows, cols).unwrap();
                std::hint::black_box(&mut dst);
            });
        });

        group.bench_with_input(BenchmarkId::new("transpose_blocked", log_n), &n, |b, _| {
            b.iter(|| {
                try_transpose_blocked(&src, &mut dst, rows, cols, 32).unwrap();
                std::hint::black_box(&mut dst);
            });
        });

        group.bench_with_input(
            BenchmarkId::new("transpose_recursive", log_n),
            &n,
            |b, _| {
                b.iter(|| {
                    try_transpose_recursive(&src, &mut dst, rows, cols).unwrap();
                    std::hint::black_box(&mut dst);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reorg);
criterion_main!(benches);
