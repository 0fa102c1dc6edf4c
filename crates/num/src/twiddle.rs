//! Roots of unity and twiddle-factor tables.
//!
//! The Cooley–Tukey factorization `DFT_{n1 n2} = (DFT_{n1} ⊗ I_{n2}) T
//! (I_{n1} ⊗ DFT_{n2}) L` interposes a diagonal *twiddle* matrix `T` whose
//! entries are `w_N^{i2*j1}` with `w_N = exp(-2πi/N)`. Computing these with
//! `sin`/`cos` in the inner loop would dominate the runtime, so executors
//! precompute per-node [`TwiddleTable`]s once per plan and reuse them across
//! repeated executions — mirroring the "codelet + precomputed twiddles"
//! organization of the FFTW-derived packages the paper modifies.

use crate::complex::Complex64;

/// Transform direction.
///
/// The inverse transform uses conjugated twiddles; normalization by `1/N`
/// is the caller's choice (the executors expose it separately) so that
/// `forward ∘ inverse = N · identity` matches the usual FFT convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `w = exp(-2πi/N)` — the DFT.
    Forward,
    /// `w = exp(+2πi/N)` — the inverse DFT (unnormalized).
    Inverse,
}

impl Direction {
    /// The sign of the exponent: -1 for forward, +1 for inverse.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// Returns `w_n^k = exp(sign * 2πi * k / n)` for the given direction.
///
/// Exact values are returned for the quadrant angles so that small codelets
/// built from these constants introduce no avoidable rounding error.
pub fn root_of_unity(n: usize, k: usize, dir: Direction) -> Complex64 {
    assert!(n > 0, "root_of_unity: n must be positive");
    let k = k % n;
    // Handle the four exact quadrant cases.
    if (4 * k).is_multiple_of(n) {
        let quarter = 4 * k / n; // 0..4
        let z = match quarter {
            0 => Complex64::ONE,
            1 => Complex64::new(0.0, -1.0),
            2 => Complex64::new(-1.0, 0.0),
            // `k % n < n` pins `4k/n` to `0..4`, so this arm is exactly
            // quarter 3.
            _ => Complex64::new(0.0, 1.0),
        };
        return match dir {
            Direction::Forward => z,
            Direction::Inverse => z.conj(),
        };
    }
    let theta = dir.sign() * core::f64::consts::TAU * (k as f64) / (n as f64);
    Complex64::cis(theta)
}

/// The first octant of the `N`-th roots of unity, `N` a multiple of 8:
/// `(cos θ_k, sin θ_k)` with `θ_k = 2πk/N` for `k` in `0..=N/8`. Every
/// other root follows from one of these by swapping and negating its two
/// parts, which is exact, so a table of `N` roots costs `N/8 + 1`
/// `sin`/`cos` pairs instead of `N`, and every angle evaluated lies in
/// `[0, π/4]`, where they are most accurate.
struct Octant {
    /// `N / 8`.
    eighth: usize,
    cos_sin: Vec<(f64, f64)>,
}

impl Octant {
    /// The octant of `n`, or `None` unless 8 divides `n`.
    fn new(n: usize) -> Option<Octant> {
        if n == 0 || !n.is_multiple_of(8) {
            return None;
        }
        let eighth = n / 8;
        let cos_sin = (0..=eighth)
            .map(|k| {
                if k == eighth {
                    // π/4 itself: both parts are 1/√2, rounded once.
                    (
                        core::f64::consts::FRAC_1_SQRT_2,
                        core::f64::consts::FRAC_1_SQRT_2,
                    )
                } else {
                    let theta = core::f64::consts::TAU * (k as f64) / (n as f64);
                    (theta.cos(), theta.sin())
                }
            })
            .collect();
        Some(Octant { eighth, cos_sin })
    }

    /// `w_N^k` in direction `dir`, from the octant by symmetry.
    fn root(&self, k: usize, dir: Direction) -> Complex64 {
        let e = self.eighth;
        let k = k % (8 * e);
        let (octant, r) = (k / e, k % e);
        let at = |i: usize| self.cos_sin[i];
        // (cos θ, sin θ) for θ = 2πk/N, reflected into the first octant.
        let (c, s) = match octant {
            0 => at(r),
            1 => {
                let (c, s) = at(e - r);
                (s, c)
            }
            2 => {
                let (c, s) = at(r);
                (-s, c)
            }
            3 => {
                let (c, s) = at(e - r);
                (-c, s)
            }
            4 => {
                let (c, s) = at(r);
                (-c, -s)
            }
            5 => {
                let (c, s) = at(e - r);
                (-s, -c)
            }
            6 => {
                let (c, s) = at(r);
                (s, -c)
            }
            _ => {
                let (c, s) = at(e - r);
                (c, -s)
            }
        };
        // `w = cos θ + sign·i sin θ`; adding 0.0 turns a negated zero
        // into +0.0, as the exact quadrant roots of `root_of_unity` have.
        Complex64::new(c + 0.0, dir.sign() * s + 0.0)
    }
}

/// Precomputed twiddle factors for one factorized node `N = n1 * n2`.
///
/// Stores `w_N^{i2 * j1}` for `j1 in 0..n1`, `i2 in 0..n2`, laid out so that
/// the factors consumed together by one inner-stage output column are
/// contiguous: index `i2 * n1 + j1`.
#[derive(Clone, Debug)]
pub struct TwiddleTable {
    n1: usize,
    n2: usize,
    dir: Direction,
    /// `w[i2 * n1 + j1] = w_{n1*n2}^{i2 * j1}`.
    factors: Box<[Complex64]>,
}

impl TwiddleTable {
    /// Builds the table for `N = n1 * n2` in the given direction.
    pub fn new(n1: usize, n2: usize, dir: Direction) -> Self {
        let n = n1
            .checked_mul(n2)
            // ddl-lint: allow(no-panics): overflow here is a caller contract violation, not a recoverable state
            .expect("TwiddleTable: n1 * n2 overflows usize");
        let mut factors = Vec::with_capacity(n);
        let octant = Octant::new(n);
        for i2 in 0..n2 {
            for j1 in 0..n1 {
                factors.push(match &octant {
                    Some(o) => o.root(i2 * j1, dir),
                    None => root_of_unity(n, i2 * j1, dir),
                });
            }
        }
        TwiddleTable {
            n1,
            n2,
            dir,
            factors: factors.into_boxed_slice(),
        }
    }

    /// The row count `n1` (size of the first-stage DFT).
    #[inline]
    pub fn n1(&self) -> usize {
        self.n1
    }

    /// The column count `n2` (size of the second-stage DFT).
    #[inline]
    pub fn n2(&self) -> usize {
        self.n2
    }

    /// The direction the table was built for.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The factor `w_N^{i2 * j1}`.
    #[inline(always)]
    pub fn get(&self, j1: usize, i2: usize) -> Complex64 {
        debug_assert!(j1 < self.n1 && i2 < self.n2);
        self.factors[i2 * self.n1 + j1]
    }

    /// The contiguous column of `n1` factors for a fixed `i2`:
    /// `[w^0, w^{i2}, w^{2 i2}, …]`.
    #[inline]
    pub fn column(&self, i2: usize) -> &[Complex64] {
        &self.factors[i2 * self.n1..(i2 + 1) * self.n1]
    }

    /// All factors as a flat slice, indexed `i2 * n1 + j1`.
    ///
    /// This matches the layout of the inter-stage scratch buffer in the
    /// executors (`t[j1 + n1*i2]`), so the twiddle stage is an elementwise
    /// multiply of two contiguous arrays.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.factors
    }

    /// Total number of stored factors (`n1 * n2`).
    #[inline]
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// True when the table is empty (degenerate `0`-sized node).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_roots_are_exact() {
        assert_eq!(root_of_unity(4, 0, Direction::Forward), Complex64::ONE);
        assert_eq!(
            root_of_unity(4, 1, Direction::Forward),
            Complex64::new(0.0, -1.0)
        );
        assert_eq!(
            root_of_unity(4, 2, Direction::Forward),
            Complex64::new(-1.0, 0.0)
        );
        assert_eq!(
            root_of_unity(4, 3, Direction::Forward),
            Complex64::new(0.0, 1.0)
        );
        assert_eq!(
            root_of_unity(4, 1, Direction::Inverse),
            Complex64::new(0.0, 1.0)
        );
    }

    #[test]
    fn k_wraps_modulo_n() {
        let a = root_of_unity(8, 3, Direction::Forward);
        let b = root_of_unity(8, 11, Direction::Forward);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_and_inverse_are_conjugate() {
        for k in 0..16 {
            let f = root_of_unity(16, k, Direction::Forward);
            let i = root_of_unity(16, k, Direction::Inverse);
            assert!((f - i.conj()).abs() < 1e-15);
        }
    }

    #[test]
    fn roots_multiply_like_exponents() {
        let n = 12;
        for a in 0..n {
            for b in 0..n {
                let lhs = root_of_unity(n, a, Direction::Forward)
                    * root_of_unity(n, b, Direction::Forward);
                let rhs = root_of_unity(n, a + b, Direction::Forward);
                assert!((lhs - rhs).abs() < 1e-12, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn table_matches_direct_formula() {
        let t = TwiddleTable::new(4, 8, Direction::Forward);
        assert_eq!(t.len(), 32);
        for j1 in 0..4 {
            for i2 in 0..8 {
                let want = root_of_unity(32, i2 * j1, Direction::Forward);
                assert!((t.get(j1, i2) - want).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn octant_tables_match_root_of_unity() {
        // `root_of_unity` evaluates `cis` at the full angle, whose error
        // grows with it: within 1e-15 at power-of-two sizes up to 2^20,
        // up to about 1.2e-15 at 3,072 points.
        for (n1, n2, tol) in [
            (1024, 1024, 1e-15),
            (8, 1, 1e-15),
            (4, 2, 1e-15),
            (64, 48, 2e-15),
            (3, 40, 2e-15),
        ] {
            for dir in [Direction::Forward, Direction::Inverse] {
                let t = TwiddleTable::new(n1, n2, dir);
                for i2 in 0..n2 {
                    for j1 in 0..n1 {
                        let want = root_of_unity(n1 * n2, i2 * j1, dir);
                        let err = (t.get(j1, i2) - want).abs();
                        assert!(err <= tol, "{n1}x{n2} ({j1},{i2}): {err}");
                    }
                }
            }
        }
    }

    #[test]
    fn octant_identities_hold_exactly() {
        let n = 1 << 12;
        let o = Octant::new(n).unwrap();
        let w = |k: usize| o.root(k, Direction::Forward);
        // exact reflections, with negated zeros normalized to +0.0
        let z = |re: f64, im: f64| Complex64::new(re + 0.0, im + 0.0);
        for k in 0..=n / 8 {
            let Complex64 { re, im } = w(k);
            assert_eq!(w(n / 4 - k), z(-im, -re), "k = {k}");
            assert_eq!(w(n / 4 + k), z(im, -re), "k = {k}");
            assert_eq!(w(n / 2 - k), z(-re, im), "k = {k}");
            assert_eq!(w(n / 2 + k), z(-re, -im), "k = {k}");
            assert_eq!(w(n - k), z(re, -im), "k = {k}");
            assert_eq!(o.root(k, Direction::Inverse), z(re, -im), "k = {k}");
        }
        // the quadrant roots are exact, with no negative zero
        for (k, want) in [
            (0, (1.0, 0.0)),
            (1, (0.0, -1.0)),
            (2, (-1.0, 0.0)),
            (3, (0.0, 1.0)),
        ] {
            let got = w(k * n / 4);
            assert_eq!(got, Complex64::new(want.0, want.1));
            assert!(got.re.is_sign_positive() || got.re != 0.0);
            assert!(got.im.is_sign_positive() || got.im != 0.0);
        }
        assert!(Octant::new(12).is_none());
    }

    #[test]
    fn table_column_is_contiguous_view() {
        let t = TwiddleTable::new(3, 5, Direction::Inverse);
        for i2 in 0..5 {
            let col = t.column(i2);
            assert_eq!(col.len(), 3);
            for (j1, &w) in col.iter().enumerate() {
                assert_eq!(w, t.get(j1, i2));
            }
        }
    }

    #[test]
    fn first_row_and_column_are_one() {
        let t = TwiddleTable::new(8, 8, Direction::Forward);
        for j1 in 0..8 {
            assert_eq!(t.get(j1, 0), Complex64::ONE);
        }
        for i2 in 0..8 {
            assert_eq!(t.get(0, i2), Complex64::ONE);
        }
    }

    #[test]
    fn direction_flip_round_trips() {
        assert_eq!(Direction::Forward.flip(), Direction::Inverse);
        assert_eq!(Direction::Forward.flip().flip(), Direction::Forward);
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
    }
}
