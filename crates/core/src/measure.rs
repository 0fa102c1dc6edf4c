//! Wall-clock measurement utilities.
//!
//! The paper's methodology (Section V-B): "computations were repeated
//! until the overall execution time was larger than 1 s … the average
//! execution time is reported", with loop overhead deducted. These
//! helpers implement the same estimator with a configurable floor so the
//! full sweep fits in a session; they are used both by the measured
//! planner backend (`Get_time` in the paper's Fig. 8) and by the benchmark
//! harness.

use std::time::{Duration, Instant};

/// Batch-size ceiling of the geometric growth in [`time_per_call`].
const MAX_BATCH: u64 = 1 << 20;

/// A request deadline anchored to one monotonic clock read.
///
/// The anchor is captured **once, at admission**: every later phase
/// (queue wait, planning, execution) measures against the same instant,
/// so the deadline budget covers the request's whole wall time rather
/// than restarting whenever a phase re-reads the clock. A request that
/// spends its entire budget waiting in a queue is exactly as expired as
/// one that spends it executing — `tests/telemetry.rs` pins this with a
/// fault-injected slow-queue test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    anchor: Instant,
    limit: Duration,
}

impl Deadline {
    /// A deadline of `limit` anchored at `anchor` (the admission
    /// instant).
    pub fn from_admission(anchor: Instant, limit: Duration) -> Deadline {
        Deadline { anchor, limit }
    }

    /// The admission instant the budget is measured from.
    pub fn anchor(&self) -> Instant {
        self.anchor
    }

    /// The total budget.
    pub fn limit(&self) -> Duration {
        self.limit
    }

    /// Budget still available, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.limit.saturating_sub(self.anchor.elapsed())
    }

    /// `Some(late_ns)` once the budget is spent: how far past the
    /// deadline the clock has run, in nanoseconds.
    pub fn expired(&self) -> Option<u64> {
        let elapsed = self.anchor.elapsed();
        if elapsed > self.limit {
            Some((elapsed - self.limit).as_nanos() as u64)
        } else {
            None
        }
    }
}

/// Repeats `f` until the accumulated time exceeds `min_total_secs` (at
/// least `min_reps` times, with a floor of one timed repetition) and
/// returns the mean seconds per call.
///
/// On a clock too coarse to resolve even [`MAX_BATCH`] calls, the measured
/// clock granularity spread over one full batch is returned as an upper
/// bound instead of growing the batch forever.
pub fn time_per_call<F: FnMut()>(mut f: F, min_total_secs: f64, min_reps: u32) -> f64 {
    // One untimed warm-up call: touches the buffers, faults pages and
    // populates twiddle caches.
    f();
    // The mean is total/reps, so at least one call must be timed even
    // when the caller asks for zero repetitions.
    let min_reps = u64::from(min_reps).max(1);
    let mut reps: u64 = 0;
    let mut total = 0.0f64;
    let mut batch: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        total += elapsed;
        reps += batch;
        if total >= min_total_secs && reps >= min_reps {
            return total / reps as f64;
        }
        if batch >= MAX_BATCH && elapsed == 0.0 {
            // A full-size batch fit under one clock tick: `f` is faster
            // than this clock can ever resolve. Report one tick spread
            // over the batch — an upper bound — rather than spinning.
            return clock_tick_secs() / batch as f64;
        }
        // Grow batches geometrically so timer overhead stays negligible.
        batch = batch.saturating_mul(2).min(MAX_BATCH);
    }
}

/// Measured granularity of the monotonic clock: the first non-zero delta
/// observable from one read point (bounded spin; assumes 1 ns resolution
/// if the clock never advances).
fn clock_tick_secs() -> f64 {
    let start = Instant::now();
    for _ in 0..1_000_000 {
        let dt = start.elapsed();
        if !dt.is_zero() {
            return dt.as_secs_f64();
        }
    }
    1e-9
}

/// The paper's normalized performance metric for an `n`-point FFT:
/// *pseudo-MFLOPS* = `5 n log2(n) / t_us` (Section V-B; the same metric
/// FFTW reports).
pub fn fft_mflops(n: usize, seconds: f64) -> f64 {
    if n < 2 || seconds <= 0.0 {
        return 0.0;
    }
    let ops = 5.0 * n as f64 * (n as f64).log2();
    ops / (seconds * 1e6)
}

/// Time per point in nanoseconds — the metric of the paper's WHT plots
/// (Fig. 15 reports time per point).
pub fn time_per_point_ns(n: usize, seconds: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    seconds * 1e9 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_is_anchored_at_admission() {
        let anchor = Instant::now();
        let d = Deadline::from_admission(anchor, Duration::from_secs(3600));
        assert_eq!(d.anchor(), anchor);
        assert_eq!(d.limit(), Duration::from_secs(3600));
        assert_eq!(d.expired(), None);
        assert!(d.remaining() <= Duration::from_secs(3600));

        // An anchor in effect "captured" long ago: the budget is already
        // spent even though no phase has run yet.
        std::thread::sleep(Duration::from_millis(2));
        let stale = Deadline::from_admission(anchor, Duration::from_micros(1));
        let late = stale.expired().expect("budget must be spent");
        assert!(late > 0);
        assert_eq!(stale.remaining(), Duration::ZERO);
    }

    #[test]
    fn time_per_call_is_positive_and_sane() {
        let mut acc = 0u64;
        let t = time_per_call(
            || {
                for i in 0..1000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                std::hint::black_box(acc);
            },
            0.001,
            3,
        );
        assert!(t > 0.0);
        assert!(t < 0.01, "1000 multiplies should not take 10ms: {t}");
    }

    #[test]
    fn time_per_call_respects_min_reps() {
        let mut count = 0u32;
        let _ = time_per_call(|| count += 1, 0.0, 5);
        assert!(count > 5); // +1 warm-up
    }

    #[test]
    fn zero_min_reps_still_times_one_call() {
        // min_reps == 0 with a zero time floor must not divide by zero;
        // exactly one timed rep (plus the warm-up) runs.
        let mut count = 0u32;
        let t = time_per_call(|| count += 1, 0.0, 0);
        assert_eq!(count, 2, "warm-up + one timed rep");
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn clock_tick_is_positive_and_small() {
        let tick = clock_tick_secs();
        assert!(tick > 0.0);
        assert!(tick < 0.1, "monotonic clock tick of {tick}s is absurd");
    }

    #[test]
    fn fast_functions_terminate_with_nonzero_estimate() {
        // An empty closure is far below any clock tick per call; the
        // estimator must terminate (no unbounded batch growth) and return
        // a finite non-negative mean quickly.
        let t = time_per_call(|| {}, 0.0, 1);
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn mflops_formula() {
        // 1024-point FFT in 10 us: 5*1024*10 ops / 10 us = 5120 MFLOPS
        let m = fft_mflops(1024, 10e-6);
        assert!((m - 5120.0).abs() < 1e-6);
    }

    #[test]
    fn mflops_degenerate_inputs() {
        assert_eq!(fft_mflops(0, 1.0), 0.0);
        assert_eq!(fft_mflops(1, 1.0), 0.0);
        assert_eq!(fft_mflops(1024, 0.0), 0.0);
    }

    #[test]
    fn per_point_scaling() {
        assert!((time_per_point_ns(1000, 1e-3) - 1000.0).abs() < 1e-9);
        assert_eq!(time_per_point_ns(0, 1.0), 0.0);
    }
}
