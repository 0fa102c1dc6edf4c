//! Power-of-two helpers.
//!
//! The paper assumes `N = 2^p` for illustration (its dynamic-programming
//! search does not require it, and neither does ours, but the stride
//! analysis of Section III-B is phrased for power-of-two strides, which are
//! also the pathological case for direct-mapped caches). The planner uses
//! these helpers to enumerate factorizations `2^p = 2^a * 2^(p-a)`.

/// True when `n` is a power of two (zero is not).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// `log2(n)` for exact powers of two; `None` otherwise.
#[inline]
pub fn log2_exact(n: usize) -> Option<u32> {
    if is_pow2(n) {
        Some(n.trailing_zeros())
    } else {
        None
    }
}

/// Largest `k` with `2^k <= n`. Panics on `n == 0`.
#[inline]
pub fn floor_log2(n: usize) -> u32 {
    assert!(n > 0, "floor_log2 of zero");
    usize::BITS - 1 - n.leading_zeros()
}

/// Smallest `k` with `2^k >= n`. Panics on `n == 0`.
#[inline]
pub fn ceil_log2(n: usize) -> u32 {
    assert!(n > 0, "ceil_log2 of zero");
    if is_pow2(n) {
        n.trailing_zeros()
    } else {
        floor_log2(n) + 1
    }
}

/// All ordered two-way factorizations `n = a * b` with `a, b >= min_part`,
/// in ascending `a`.
///
/// For power-of-two `n` these are exactly the splits the planner's search in
/// Fig. 8 of the paper enumerates. Works for general `n` too, matching the
/// paper's remark that Cooley–Tukey applies to any composite size. Divisors
/// are found by trial division up to `√n` only, each paired with its
/// cofactor, so one call costs `O(√n)` rather than `O(n)`.
pub fn factor_pairs(n: usize, min_part: usize) -> Vec<(usize, usize)> {
    let min_part = min_part.max(1);
    let mut low = Vec::new();
    let mut a = 1;
    while a <= n / a {
        if n.is_multiple_of(a) {
            low.push(a);
        }
        a += 1;
    }
    // Divisors ascending: those up to √n, then their cofactors (a
    // perfect square's root only once).
    let high = low.iter().rev().filter(|&&a| a != n / a).map(|&a| n / a);
    let divisors: Vec<usize> = low.iter().copied().chain(high).collect();
    divisors
        .into_iter()
        .filter(|&a| a >= min_part && n / a >= min_part)
        .map(|a| (a, n / a))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_detection() {
        assert!(!is_pow2(0));
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(!is_pow2(3));
        assert!(is_pow2(1 << 20));
        assert!(!is_pow2((1 << 20) + 1));
    }

    #[test]
    fn log2_exact_only_on_powers() {
        assert_eq!(log2_exact(1), Some(0));
        assert_eq!(log2_exact(1024), Some(10));
        assert_eq!(log2_exact(1000), None);
        assert_eq!(log2_exact(0), None);
    }

    #[test]
    fn floor_and_ceil_bracket() {
        for n in 1..2000usize {
            let f = floor_log2(n);
            let c = ceil_log2(n);
            assert!(1usize << f <= n);
            assert!(n <= 1usize << c);
            assert!(c - f <= 1);
        }
    }

    #[test]
    fn factor_pairs_of_16() {
        let pairs = factor_pairs(16, 2);
        assert_eq!(pairs, vec![(2, 8), (4, 4), (8, 2)]);
    }

    #[test]
    fn factor_pairs_general_n() {
        let pairs = factor_pairs(12, 2);
        assert_eq!(pairs, vec![(2, 6), (3, 4), (4, 3), (6, 2)]);
    }

    #[test]
    fn factor_pairs_min_part_one_includes_trivial() {
        let pairs = factor_pairs(6, 1);
        assert_eq!(pairs, vec![(1, 6), (2, 3), (3, 2), (6, 1)]);
    }

    /// The trial division of every `a` up to `n / min_part` that
    /// [`factor_pairs`] replaced.
    fn factor_pairs_by_full_trial_division(n: usize, min_part: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut a = min_part.max(1);
        while a <= n / min_part.max(1) {
            if n.is_multiple_of(a) && n / a >= min_part {
                out.push((a, n / a));
            }
            a += 1;
        }
        out
    }

    #[test]
    fn factor_pairs_match_full_trial_division_in_order() {
        let pow2 = (0..=20).map(|k| 1usize << k);
        for n in (0..2000).chain(pow2).chain([3600, 65536 * 3, 1 << 21]) {
            for min_part in 0..=4 {
                assert_eq!(
                    factor_pairs(n, min_part),
                    factor_pairs_by_full_trial_division(n, min_part),
                    "n = {n}, min_part = {min_part}"
                );
            }
        }
    }

    #[test]
    fn factor_pairs_prime_has_none_nontrivial() {
        assert!(factor_pairs(13, 2).is_empty());
    }
}
