//! The inter-stage twiddle multiplication.
//!
//! Between the two stages of a Cooley–Tukey node the intermediate vector is
//! multiplied elementwise by the diagonal of `T^{n1 n2}_{n2}`. The paper's
//! cost model charges this separately (`T_tw` in Eq. (3) and Table I), so
//! the executors call it as a distinct pass rather than fusing it into the
//! codelets.

use ddl_num::{Complex64, TwiddleTable};

/// Multiplies `buf[base + i]` by `table.as_slice()[i]` for `i` in
/// `0..table.len()`. The scratch layout `t[j1 + n1*i2]` matches the table
/// layout, so this is a straight contiguous elementwise product.
#[inline]
pub fn apply_twiddles(buf: &mut [Complex64], base: usize, table: &TwiddleTable) {
    let n = table.len();
    let factors = table.as_slice();
    let dst = &mut buf[base..base + n];
    for (d, &w) in dst.iter_mut().zip(factors.iter()) {
        *d *= w;
    }
}

/// Estimated floating-point operations of a twiddle pass over `points`
/// complex points: one complex multiply (6 flops) per point.
pub fn twiddle_flops_est(points: usize) -> u64 {
    6 * points as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddl_num::{root_of_unity, Direction};

    #[test]
    fn elementwise_multiplication_matches_table() {
        let table = TwiddleTable::new(4, 8, Direction::Forward);
        let mut buf: Vec<Complex64> = (0..40)
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect();
        let orig = buf.clone();
        apply_twiddles(&mut buf, 4, &table);
        // prefix untouched
        assert_eq!(&buf[..4], &orig[..4]);
        for i in 0..32 {
            let want = orig[4 + i] * table.as_slice()[i];
            assert!((buf[4 + i] - want).abs() < 1e-12);
        }
        // suffix untouched
        assert_eq!(&buf[36..], &orig[36..]);
    }

    #[test]
    fn first_column_of_factors_is_identity() {
        // w^{i2*j1} with i2 = 0 is 1 for all j1: first n1 entries unchanged.
        let table = TwiddleTable::new(8, 4, Direction::Forward);
        let mut buf = vec![Complex64::new(3.0, 4.0); 32];
        apply_twiddles(&mut buf, 0, &table);
        for b in &buf[..8] {
            assert_eq!(*b, Complex64::new(3.0, 4.0));
        }
    }

    #[test]
    fn twiddles_are_roots_of_the_product_size() {
        let table = TwiddleTable::new(4, 4, Direction::Forward);
        let mut buf = vec![Complex64::ONE; 16];
        apply_twiddles(&mut buf, 0, &table);
        for i2 in 0..4 {
            for j1 in 0..4 {
                let want = root_of_unity(16, i2 * j1, Direction::Forward);
                assert!((buf[i2 * 4 + j1] - want).abs() < 1e-15);
            }
        }
    }
}
