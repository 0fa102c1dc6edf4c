//! Property-based tests for layout reorganizations: every reorganization
//! must be a bijection on the data it touches, and the specific permutations
//! must satisfy their algebraic identities.

use ddl_layout::{
    try_apply_permutation, try_apply_permutation_in_place, try_bit_reverse_permute,
    try_gather_stride, try_invert_permutation, try_scatter_stride, try_stride_permutation,
    try_transpose, try_transpose_blocked, try_transpose_recursive,
};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize)> {
    (1usize..40, 1usize..40)
}

proptest! {
    #[test]
    fn all_transposes_agree((rows, cols) in dims(), tile in 1usize..17) {
        let src: Vec<u32> = (0..rows * cols).map(|i| i as u32).collect();
        let mut a = vec![0u32; rows * cols];
        let mut b = vec![0u32; rows * cols];
        let mut c = vec![0u32; rows * cols];
        try_transpose(&src, &mut a, rows, cols).unwrap();
        try_transpose_blocked(&src, &mut b, rows, cols, tile).unwrap();
        try_transpose_recursive(&src, &mut c, rows, cols).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }

    #[test]
    fn transpose_twice_is_identity((rows, cols) in dims()) {
        let src: Vec<u32> = (0..rows * cols).map(|i| i as u32 ^ 0xABCD).collect();
        let mut mid = vec![0u32; rows * cols];
        let mut back = vec![0u32; rows * cols];
        try_transpose(&src, &mut mid, rows, cols).unwrap();
        try_transpose(&mid, &mut back, cols, rows).unwrap();
        prop_assert_eq!(back, src);
    }

    #[test]
    fn stride_permutation_inverse_identity(log_n in 2u32..12, log_s_frac in 0u32..10) {
        let n = 1usize << log_n;
        let log_s = log_s_frac % (log_n + 1);
        let s = 1usize << log_s;
        let src: Vec<u64> = (0..n as u64).collect();
        let mut mid = vec![0u64; n];
        let mut back = vec![0u64; n];
        try_stride_permutation(&src, &mut mid, n, s).unwrap();
        try_stride_permutation(&mid, &mut back, n, n / s).unwrap();
        prop_assert_eq!(back, src);
    }

    #[test]
    fn stride_permutation_gathers_strided_elements(log_n in 2u32..10, pick in 0usize..64) {
        let n = 1usize << log_n;
        let s = 1usize << (log_n / 2);
        let src: Vec<u64> = (0..n as u64).collect();
        let mut dst = vec![0u64; n];
        try_stride_permutation(&src, &mut dst, n, s).unwrap();
        // Column c of the row-major (n/s) x s view lands contiguously.
        let c = pick % s;
        let rows = n / s;
        for r in 0..rows {
            prop_assert_eq!(dst[c * rows + r], src[r * s + c]);
        }
    }

    #[test]
    fn gather_scatter_round_trip(base in 0usize..16, stride in 1usize..9, len in 0usize..32) {
        let buf_len = base + stride * len.max(1) + 4;
        let buf: Vec<u32> = (0..buf_len as u32).collect();
        let mut gathered = vec![0u32; len];
        try_gather_stride(&buf, base, stride, &mut gathered).unwrap();
        let mut buf2 = vec![u32::MAX; buf_len];
        try_scatter_stride(&gathered, &mut buf2, base, stride).unwrap();
        let mut gathered2 = vec![0u32; len];
        try_gather_stride(&buf2, base, stride, &mut gathered2).unwrap();
        prop_assert_eq!(gathered, gathered2);
    }

    #[test]
    fn in_place_permutation_matches_oop(n in 1usize..128, seed in 0u64..1000) {
        // Build a deterministic pseudo-random permutation via Fisher-Yates.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let src: Vec<u64> = (0..n as u64).map(|i| i * 31 + 5).collect();
        let mut oop = vec![0u64; n];
        try_apply_permutation(&src, &mut oop, &perm).unwrap();
        let mut ip = src.clone();
        try_apply_permutation_in_place(&mut ip, &perm).unwrap();
        prop_assert_eq!(oop, ip);
    }

    #[test]
    fn inverse_permutation_round_trips(n in 1usize..64, seed in 0u64..500) {
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(99);
        for i in (1..n).rev() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let inv = try_invert_permutation(&perm).unwrap();
        let src: Vec<u32> = (0..n as u32).collect();
        let mut once = vec![0u32; n];
        let mut back = vec![0u32; n];
        try_apply_permutation(&src, &mut once, &perm).unwrap();
        try_apply_permutation(&once, &mut back, &inv).unwrap();
        prop_assert_eq!(back, src);
    }

    #[test]
    fn bit_reverse_is_involution(log_n in 0u32..14) {
        let n = 1usize << log_n;
        let orig: Vec<u32> = (0..n as u32).collect();
        let mut v = orig.clone();
        try_bit_reverse_permute(&mut v).unwrap();
        try_bit_reverse_permute(&mut v).unwrap();
        prop_assert_eq!(v, orig);
    }
}
