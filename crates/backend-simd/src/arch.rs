//! The single audited `unsafe` module of the workspace.
//!
//! Everything `unsafe` in the SIMD backend lives here and nowhere else
//! (rustc's `unsafe_code` lint is denied everywhere else, and the
//! source-policy test `tests/lint_policy.rs` keeps raw-pointer
//! arithmetic out of it). There are four `unsafe` blocks, and the
//! safety argument is local:
//!
//! - The AVX2 kernels are safe `#[target_feature]` fns. Calling one is
//!   `unsafe` only from code compiled without those features, which is
//!   [`dft_inplace_vector`] and [`twiddles_vector`]; both call it only
//!   after the cached `is_x86_feature_detected!` probe has found AVX2
//!   and FMA, so the ISA is present before the first vector instruction
//!   runs.
//! - Every vector load and store goes through `x86::load` and
//!   `x86::store`, which take a `&[Complex64; 2]` or
//!   `&mut [Complex64; 2]`. `ddl_num::Complex64` is
//!   `#[repr(C)] { re: f64, im: f64 }`, so such a reference covers
//!   exactly the four doubles one unaligned 256-bit access touches. The
//!   kernels reach those references only through slice chunking and
//!   splitting, so every bound is checked by the compiler; a buffer or
//!   twiddle table of the wrong length panics at a slice bound.
//!
//! The kernels implement the same bit-reversed-input radix-2 DIT
//! network as `dft_inplace_portable`; the only permitted numerical
//! difference is FMA contraction in the butterfly multiply.

use ddl_num::Complex64;

/// Names the best vector path this build+host combination can take.
pub(crate) fn detect_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2";
        }
    }
    "portable"
}

/// Runs the in-place network through the host's vector unit. Returns
/// `false` when no suitable unit exists so the caller can take the
/// portable path instead; never touches `buf` in that case.
pub(crate) fn dft_inplace_vector(buf: &mut [Complex64], tw: &[Complex64]) -> bool {
    // The network's preconditions: a power-of-two length within the
    // leaf cap, and a twiddle table with exactly one factor per
    // butterfly (`n - 1` across all levels). Debug builds stop here. In
    // release builds a table too short for the network (always the case
    // for a length that is not a power of two) panics at a slice bound
    // inside the kernel.
    debug_assert!(buf.len() <= 1 || buf.len().is_power_of_two());
    debug_assert!(buf.len() <= crate::MAX_SIMD_LEAF);
    debug_assert_eq!(tw.len(), buf.len().saturating_sub(1));
    #[cfg(target_arch = "x86_64")]
    {
        if crate::active_isa() == "avx2" {
            // SAFETY: the AVX2 and FMA target features were verified at
            // runtime by `detect_isa` (cached in `active_isa`).
            unsafe { x86::dft_inplace_avx2(buf, tw) };
            return true;
        }
    }
    let _ = (buf, tw);
    false
}

/// Pointwise complex multiply `buf[i] *= factors[i]` through the vector
/// unit. Returns `false` (buffer untouched) when no unit exists.
pub(crate) fn twiddles_vector(buf: &mut [Complex64], factors: &[Complex64]) -> bool {
    debug_assert!(buf.len() >= factors.len());
    #[cfg(target_arch = "x86_64")]
    {
        if crate::active_isa() == "avx2" {
            // SAFETY: the AVX2 and FMA target features were verified at
            // runtime by `detect_isa` (cached in `active_isa`).
            unsafe { x86::apply_twiddles_avx2(buf, factors) };
            return true;
        }
    }
    let _ = (buf, factors);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Complex64;
    use std::arch::x86_64::*;

    /// Loads two complex points as `[re0, im0, re1, im1]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn load(v: &[Complex64; 2]) -> __m256d {
        // SAFETY: `v` borrows two `#[repr(C)]` `Complex64`s, i.e. four
        // contiguous initialized doubles, and the load is unaligned.
        unsafe { _mm256_loadu_pd(v.as_ptr().cast()) }
    }

    /// Stores `x` as two complex points.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn store(v: &mut [Complex64; 2], x: __m256d) {
        // SAFETY: `v` exclusively borrows two `#[repr(C)]` `Complex64`s,
        // i.e. four contiguous doubles, and the store is unaligned.
        unsafe { _mm256_storeu_pd(v.as_mut_ptr().cast(), x) }
    }

    /// Radix-2 DIT over bit-reversed input, two complex points per
    /// 256-bit vector, FMA butterflies. The first two stages (unit
    /// twiddles and `{1, ∓i}`) are fused into a single in-register pass
    /// over each block of four points; the remaining stages run the
    /// general twiddled loop four points per iteration.
    ///
    /// Panics at a slice bound when `tw` holds fewer than the network's
    /// `n - 1` factors, which is always the case for a length that is
    /// not a power of two.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn dft_inplace_avx2(buf: &mut [Complex64], tw: &[Complex64]) {
        let n = buf.len();
        if n == 2 {
            let lo = buf[0];
            let hi = buf[1];
            buf[0] = Complex64::new(lo.re + hi.re, lo.im + hi.im);
            buf[1] = Complex64::new(lo.re - hi.re, lo.im - hi.im);
            return;
        }
        if n < 2 {
            return;
        }

        // Fused stages half=1 and half=2 (blocks of four points).
        //
        // Stage 1 on a vector v = [a, b] (two complex lanes):
        // [a+b, a-b] = fmadd(v, [1,1,-1,-1], swap128(v)).
        //
        // Stage 2 multiplies point 3 of each block by w1 = tw[2], which
        // is ∓i by construction of the table (second-stage twiddles are
        // exp(∓iπj/2), j<2); w1·z = (±z.im, ∓z.re) is a lane swap in
        // the high half plus the sign pair (-w1.im, w1.im).
        let s1 = _mm256_set_pd(-1.0, -1.0, 1.0, 1.0);
        let w1_im = tw[2].im;
        let s2 = _mm256_set_pd(w1_im, -w1_im, 1.0, 1.0);
        let pairs = buf.as_chunks_mut::<2>().0;
        for [a, b] in pairs.as_chunks_mut::<2>().0 {
            let va = load(a);
            let vb = load(b);
            // Stage 1 butterflies within each vector.
            let ua = _mm256_fmadd_pd(va, s1, _mm256_permute2f128_pd(va, va, 0x01));
            let ub = _mm256_fmadd_pd(vb, s1, _mm256_permute2f128_pd(vb, vb, 0x01));
            // Stage 2: hi' = [ub0, ub1 * w1] via high-half lane swap + sign.
            let t = _mm256_mul_pd(_mm256_permute_pd(ub, 0x6), s2);
            store(a, _mm256_add_pd(ua, t));
            store(b, _mm256_sub_pd(ua, t));
        }

        // General stages: half = 4, 8, ... with the full twiddle table,
        // four points (two independent butterfly pairs) per iteration.
        // Each block of `2 * half` points is `half` pairs; its low and
        // high halves and the stage's `half` factors are walked as
        // two-pair chunks in lockstep.
        let mut rest = &tw[3..]; // 1 + 2 factors consumed by the fused pass
        let mut half = 4usize;
        while half < n {
            let (w, next) = rest.split_at(half);
            rest = next;
            let w = w.as_chunks::<2>().0.as_chunks::<2>().0;
            for block in pairs.chunks_exact_mut(half) {
                let (lo, hi) = block.split_at_mut(half / 2);
                let lo = lo.as_chunks_mut::<2>().0;
                let hi = hi.as_chunks_mut::<2>().0;
                for (([lo_a, lo_b], [hi_a, hi_b]), [w_a, w_b]) in lo.iter_mut().zip(hi).zip(w) {
                    // Lanes hold [re0, im0, re1, im1].
                    let w_a = load(w_a);
                    let w_b = load(w_b);
                    let (l_a, l_b) = (load(lo_a), load(lo_b));
                    let (h_a, h_b) = (load(hi_a), load(hi_b));
                    // even lanes: hi.re*w.re - hi.im*w.im
                    // odd  lanes: hi.im*w.re + hi.re*w.im
                    let t_a = _mm256_fmaddsub_pd(
                        h_a,
                        _mm256_movedup_pd(w_a),
                        _mm256_mul_pd(_mm256_permute_pd(h_a, 0x5), _mm256_permute_pd(w_a, 0xF)),
                    );
                    let t_b = _mm256_fmaddsub_pd(
                        h_b,
                        _mm256_movedup_pd(w_b),
                        _mm256_mul_pd(_mm256_permute_pd(h_b, 0x5), _mm256_permute_pd(w_b, 0xF)),
                    );
                    store(lo_a, _mm256_add_pd(l_a, t_a));
                    store(lo_b, _mm256_add_pd(l_b, t_b));
                    store(hi_a, _mm256_sub_pd(l_a, t_a));
                    store(hi_b, _mm256_sub_pd(l_b, t_b));
                }
            }
            half *= 2;
        }
    }

    /// Pointwise complex multiply `buf[i] *= factors[i]`, two points per
    /// vector, with a scalar tail for odd lengths. Panics when `buf` is
    /// shorter than `factors`.
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn apply_twiddles_avx2(buf: &mut [Complex64], factors: &[Complex64]) {
        let (zs, z_tail) = buf[..factors.len()].as_chunks_mut::<2>();
        let (ws, w_tail) = factors.as_chunks::<2>();
        for (z, w) in zs.iter_mut().zip(ws) {
            let vz = load(z);
            let vw = load(w);
            let t = _mm256_fmaddsub_pd(
                vz,
                _mm256_movedup_pd(vw),
                _mm256_mul_pd(_mm256_permute_pd(vz, 0x5), _mm256_permute_pd(vw, 0xF)),
            );
            store(z, t);
        }
        for (z, w) in z_tail.iter_mut().zip(w_tail) {
            *z *= *w;
        }
    }
}
