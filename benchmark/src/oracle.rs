//! Reference transforms the benchmark checks outputs against.
//!
//! They are written here, on plain `(re, im)` pairs, and call nothing in
//! the repository, so a change to the program can never change what
//! counts as a correct answer.

use std::f64::consts::TAU;

/// Forward DFT (`w = exp(-2πi/n)`) by iterative radix-2 decimation in
/// time.
pub fn dft(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut a = x.to_vec();
    dft_in_place(&mut a, &twiddles(x.len()));
    a
}

/// `w^k` for `k < n/2`, each from `cos`/`sin` rather than a recurrence,
/// so the transform's error stays near `eps · log2 n`.
pub fn twiddles(n: usize) -> Vec<(f64, f64)> {
    (0..n / 2)
        .map(|k| {
            let t = -TAU * k as f64 / n as f64;
            (t.cos(), t.sin())
        })
        .collect()
}

/// [`dft`] in place, given the [`twiddles`] of `a.len()`.
pub fn dft_in_place(a: &mut [(f64, f64)], tw: &[(f64, f64)]) {
    let n = a.len();
    assert!(n.is_power_of_two(), "oracle DFT needs a power of two");
    assert_eq!(tw.len(), n / 2, "twiddles of another size");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let r = if bits == 0 {
            0
        } else {
            i.reverse_bits() >> (usize::BITS - bits)
        };
        if i < r {
            a.swap(i, r);
        }
    }
    let mut len = 2;
    while len <= n {
        let (half, step) = (len / 2, n / len);
        for block in a.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for (k, (u, v)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                let w = tw[k * step];
                let t = (v.0 * w.0 - v.1 * w.1, v.0 * w.1 + v.1 * w.0);
                *v = (u.0 - t.0, u.1 - t.1);
                *u = (u.0 + t.0, u.1 + t.1);
            }
        }
        len *= 2;
    }
}

/// Unnormalized Walsh–Hadamard transform in natural (Sylvester) order.
pub fn wht(x: &[f64]) -> Vec<f64> {
    let mut a = x.to_vec();
    wht_in_place(&mut a);
    a
}

fn wht_in_place(a: &mut [f64]) {
    assert!(a.len().is_power_of_two(), "oracle WHT needs a power of two");
    let mut half = 1;
    while half < a.len() {
        for block in a.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (u, v) in lo.iter_mut().zip(hi.iter_mut()) {
                (*u, *v) = (*u + *v, *u - *v);
            }
        }
        half *= 2;
    }
}

/// The transform of [`wht`] in place, computed the static-layout way:
/// recursion over the factorization `factors` (outermost first), where a
/// node transforms its right part block by block and then runs its left
/// factor across the blocks at a stride. Timed as a baseline, it shares
/// the memory access pattern of a planned in-place WHT over the same
/// factors, and so its exposure to cache contention.
pub fn wht_factored(a: &mut [f64], factors: &[usize]) {
    assert_eq!(
        factors.iter().product::<usize>(),
        a.len(),
        "factors must multiply to the size"
    );
    wht_node(a, 0, 1, factors);
}

fn wht_node(a: &mut [f64], base: usize, stride: usize, factors: &[usize]) {
    let (&n1, rest) = factors.split_first().expect("at least one factor");
    let n2: usize = rest.iter().product();
    for j in 0..n1 {
        if !rest.is_empty() {
            wht_node(a, base + j * n2 * stride, stride, rest);
        }
    }
    let mut leaf = [0.0; 64];
    let leaf = &mut leaf[..n1];
    for i in 0..n2 {
        for (k, v) in leaf.iter_mut().enumerate() {
            *v = a[base + (i + k * n2) * stride];
        }
        wht_in_place(leaf);
        for (k, v) in leaf.iter().enumerate() {
            a[base + (i + k * n2) * stride] = *v;
        }
    }
}

/// `‖got − want‖₂ / ‖want‖₂` over `(re, im)` pairs.
pub fn relative_rms(
    got: impl Iterator<Item = (f64, f64)>,
    want: impl Iterator<Item = (f64, f64)>,
) -> f64 {
    let (mut err, mut norm) = (0.0, 0.0);
    for (g, w) in got.zip(want) {
        err += (g.0 - w.0).powi(2) + (g.1 - w.1).powi(2);
        norm += w.0 * w.0 + w.1 * w.1;
    }
    (err / norm).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dft_matches_the_definition() {
        let x: Vec<(f64, f64)> = (0..64)
            .map(|i| ((i as f64).sin(), (i % 5) as f64))
            .collect();
        let want = (0..64).map(|k| {
            x.iter().enumerate().fold((0.0, 0.0), |acc, (j, v)| {
                let t = -TAU * (j * k) as f64 / 64.0;
                (
                    acc.0 + v.0 * t.cos() - v.1 * t.sin(),
                    acc.1 + v.0 * t.sin() + v.1 * t.cos(),
                )
            })
        });
        assert!(relative_rms(dft(&x).into_iter(), want) < 1e-13);
    }

    #[test]
    fn wht_matches_the_definition_and_the_factored_form() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).cos()).collect();
        let want: Vec<f64> = (0..64u32)
            .map(|k| {
                (0..64u32)
                    .map(|j| {
                        if (j & k).count_ones() % 2 == 0 {
                            x[j as usize]
                        } else {
                            -x[j as usize]
                        }
                    })
                    .sum()
            })
            .collect();
        let pairs = |v: Vec<f64>| v.into_iter().map(|r| (r, 0.0)).collect::<Vec<_>>();
        let want = pairs(want);
        assert!(relative_rms(pairs(wht(&x)).into_iter(), want.iter().copied()) < 1e-14);
        let mut factored = x.clone();
        wht_factored(&mut factored, &[4, 2, 8]);
        let factored = pairs(factored);
        assert!(relative_rms(factored.into_iter(), want.iter().copied()) < 1e-14);
    }
}
