//! Parallel batch execution (extension beyond the paper).
//!
//! The paper's scope is uniprocessor performance; it notes its approach is
//! "focused on optimizing the performance of signal transforms on a
//! uniprocessor rather than on a vector or parallel processor" (Section
//! II-B), leaving parallelism to the related work it cites (Bailey's
//! six-step FFT etc.). The natural parallel extension — and a realistic
//! workload, since large FFTs usually arrive in batches (rows of a 2-D
//! transform, channels of a filter bank) — is executing many independent
//! transforms concurrently, each with its own scratch. This module
//! provides the batch entry points; the execution engine underneath is
//! the deadline-aware work-stealing [`crate::scheduler`] (plans are
//! immutable and shared by reference).
//!
//! # Fault containment
//!
//! Batch execution is built for embedding in long-running services:
//!
//! * Every batch item runs under [`std::panic::catch_unwind`], so a
//!   panicking (or erroring) item fails *only itself* — the remaining
//!   items complete and the process survives. Per-item outcomes are
//!   reported through [`BatchReport`].
//! * When the OS refuses to spawn a worker thread, the affected share of
//!   the batch runs sequentially on the calling thread instead of
//!   aborting ([`BatchReport::degraded_to_sequential`]).
//! * Shape errors (ragged batch, mismatched buffers) are reported as
//!   [`DdlError::ShapeMismatch`] before any item runs.

use crate::dft::{DftPlan, DftViews};
use crate::flight::RequestId;
use crate::obs::{BatchMetrics, NullSink};
use crate::scheduler::{execute_batch_scheduled, BatchOptions};
use crate::wht::{WhtPlan, WhtView};
use ddl_num::{Complex64, DdlError};

/// Timing of one batch item: how long it waited and how long it ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ItemTiming {
    /// Nanoseconds from batch start until this item began executing
    /// (queueing behind earlier items on its worker).
    pub queue_ns: u64,
    /// Nanoseconds the item's execution took (including a caught panic's
    /// unwinding). Zero for items lost to a dead worker.
    pub run_ns: u64,
}

/// Per-item outcomes of one batch execution.
#[derive(Debug)]
pub struct BatchReport {
    outcomes: Vec<Result<(), DdlError>>,
    timings: Vec<ItemTiming>,
    wall_ns: u64,
    degraded_to_sequential: bool,
    steals: u64,
    request: Option<RequestId>,
}

impl BatchReport {
    /// Number of items in the batch.
    pub fn items(&self) -> usize {
        self.outcomes.len()
    }

    /// True when every item completed without fault.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(Result::is_ok)
    }

    /// Per-item outcomes, indexed by batch position.
    pub fn outcomes(&self) -> &[Result<(), DdlError>] {
        &self.outcomes
    }

    /// Per-item queue/run timings, indexed by batch position.
    pub fn timings(&self) -> &[ItemTiming] {
        &self.timings
    }

    /// Wall-clock nanoseconds for the whole batch call.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// The failed items, as `(index, error)` pairs.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &DdlError)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }

    /// True when thread spawning failed and part of the batch fell back
    /// to sequential execution on the calling thread.
    pub fn degraded_to_sequential(&self) -> bool {
        self.degraded_to_sequential
    }

    /// Tasks this batch's workers took from a sibling's deque: how much
    /// the work-stealing scheduler actually rebalanced.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// The service request this batch was executed on behalf of, when
    /// the caller attributed one via [`BatchOptions::request`].
    pub fn request(&self) -> Option<RequestId> {
        self.request
    }

    /// Attributes the batch to a request (scheduler internal).
    pub(crate) fn set_request(&mut self, request: Option<RequestId>) {
        self.request = request;
    }

    /// Items shed because the batch deadline had expired when they were
    /// dequeued.
    pub fn deadline_expired(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|r| matches!(r, Err(DdlError::DeadlineExceeded { .. })))
            .count()
    }

    /// Items shed because the batch's cancellation token fired.
    pub fn cancelled(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|r| matches!(r, Err(DdlError::Cancelled { .. })))
            .count()
    }

    /// Assembles a report from per-item parts (scheduler internal).
    pub(crate) fn from_parts(
        outcomes: Vec<Result<(), DdlError>>,
        timings: Vec<ItemTiming>,
        wall_ns: u64,
        degraded_to_sequential: bool,
        steals: u64,
    ) -> BatchReport {
        BatchReport {
            outcomes,
            timings,
            wall_ns,
            degraded_to_sequential,
            steals,
            request: None,
        }
    }

    /// Summarizes this report as a metrics-report section under the
    /// caller-chosen `label`.
    pub fn metrics(&self, label: &str) -> BatchMetrics {
        let panicked = self
            .outcomes
            .iter()
            .filter(|r| matches!(r, Err(DdlError::WorkerPanic { .. })))
            .count() as u64;
        BatchMetrics {
            label: label.to_string(),
            items: self.outcomes.len() as u64,
            ok: self.outcomes.iter().filter(|r| r.is_ok()).count() as u64,
            panicked,
            deadline_expired: self.deadline_expired() as u64,
            cancelled: self.cancelled() as u64,
            degraded_to_sequential: self.degraded_to_sequential,
            wall_ns: self.wall_ns,
            queue_ns_max: self.timings.iter().map(|t| t.queue_ns).max().unwrap_or(0),
            run_ns_total: self.timings.iter().map(|t| t.run_ns).sum(),
            run_ns_max: self.timings.iter().map(|t| t.run_ns).max().unwrap_or(0),
            steals: self.steals,
        }
    }
}

pub(crate) fn panic_payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Batch DFT: `inputs` and `outputs` are concatenations of signals of
/// `plan.n()` points each, executed under `opts` (worker count,
/// deadline, cancellation) with one scratch buffer per worker.
///
/// Shape problems return [`DdlError::ShapeMismatch`]. Execution faults
/// never propagate: each item's outcome lands in its slot of the
/// returned [`BatchReport`], and items dequeued past the deadline (or
/// after cancellation) fail with typed errors instead of executing.
pub fn try_execute_dft_batch(
    plan: &DftPlan,
    inputs: &[Complex64],
    outputs: &mut [Complex64],
    opts: &BatchOptions,
) -> Result<BatchReport, DdlError> {
    let n = plan.n();
    if !inputs.len().is_multiple_of(n) {
        return Err(DdlError::shape(
            "execute_dft_batch: inputs not a whole number of signals",
            n,
            inputs.len(),
        ));
    }
    if inputs.len() != outputs.len() {
        return Err(DdlError::shape(
            "execute_dft_batch: inputs/outputs length mismatch",
            inputs.len(),
            outputs.len(),
        ));
    }

    let items: Vec<(&[Complex64], &mut [Complex64])> = inputs
        .chunks_exact(n)
        .zip(outputs.chunks_exact_mut(n))
        .collect();
    Ok(execute_batch_scheduled(
        items,
        opts,
        || vec![Complex64::ZERO; plan.scratch_len()],
        |_idx, (src, dst), scratch| plan.try_run(DftViews::new(src, dst), scratch, &mut NullSink),
    ))
}

/// Batch WHT over `data`, a concatenation of signals of `plan.n()`
/// points each, transformed in place under `opts`; the WHT counterpart
/// of [`try_execute_dft_batch`].
pub fn try_execute_wht_batch(
    plan: &WhtPlan,
    data: &mut [f64],
    opts: &BatchOptions,
) -> Result<BatchReport, DdlError> {
    let n = plan.n();
    if !data.len().is_multiple_of(n) {
        return Err(DdlError::shape(
            "execute_wht_batch: data not a whole number of signals",
            n,
            data.len(),
        ));
    }

    let items: Vec<&mut [f64]> = data.chunks_exact_mut(n).collect();
    Ok(execute_batch_scheduled(
        items,
        opts,
        || vec![0.0f64; plan.scratch_len()],
        |_idx, chunk, scratch| plan.try_run(WhtView::new(chunk), scratch, &mut NullSink),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;
    use ddl_kernels::{naive_dft, naive_wht};
    use ddl_num::{relative_rms_error, Direction};

    /// Runs a DFT batch on `threads` workers and requires every item to
    /// succeed.
    fn run_dft(plan: &DftPlan, inputs: &[Complex64], outputs: &mut [Complex64], threads: usize) {
        let opts = BatchOptions::with_threads(threads);
        let report = try_execute_dft_batch(plan, inputs, outputs, &opts).unwrap();
        assert!(report.all_ok(), "{:?}", report.outcomes());
    }

    fn signals(count: usize, n: usize) -> Vec<Complex64> {
        (0..count * n)
            .map(|i| Complex64::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_dft() {
        let plan = DftPlan::new(Tree::rightmost(256, 8), Direction::Forward).unwrap();
        let batch = 13;
        let inputs = signals(batch, 256);
        let mut seq = vec![Complex64::ZERO; batch * 256];
        let mut par = vec![Complex64::ZERO; batch * 256];
        run_dft(&plan, &inputs, &mut seq, 1);
        run_dft(&plan, &inputs, &mut par, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_results_match_naive_per_signal() {
        let plan = DftPlan::new(Tree::balanced(64, 8), Direction::Forward).unwrap();
        let inputs = signals(5, 64);
        let mut out = vec![Complex64::ZERO; 5 * 64];
        run_dft(&plan, &inputs, &mut out, 3);
        for b in 0..5 {
            let x = &inputs[b * 64..(b + 1) * 64];
            let want = naive_dft(x, Direction::Forward);
            assert!(relative_rms_error(&out[b * 64..(b + 1) * 64], &want) < 1e-10);
        }
    }

    #[test]
    fn more_threads_than_signals_is_fine() {
        let plan = DftPlan::new(Tree::leaf(16), Direction::Forward).unwrap();
        let inputs = signals(2, 16);
        let mut out = vec![Complex64::ZERO; 2 * 16];
        run_dft(&plan, &inputs, &mut out, 64);
        let want = naive_dft(&inputs[..16], Direction::Forward);
        assert!(relative_rms_error(&out[..16], &want) < 1e-10);
    }

    #[test]
    fn empty_batch_is_noop() {
        let plan = DftPlan::new(Tree::leaf(8), Direction::Forward).unwrap();
        let inputs: Vec<Complex64> = vec![];
        let mut out: Vec<Complex64> = vec![];
        run_dft(&plan, &inputs, &mut out, 4);
    }

    #[test]
    fn wht_batch_matches_naive() {
        let plan = WhtPlan::new(Tree::rightmost(128, 8)).unwrap();
        let batch = 7;
        let orig: Vec<f64> = (0..batch * 128).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut data = orig.clone();
        try_execute_wht_batch(&plan, &mut data, &BatchOptions::with_threads(3)).unwrap();
        for b in 0..batch {
            let want = naive_wht(&orig[b * 128..(b + 1) * 128]);
            for j in 0..128 {
                assert!((data[b * 128 + j] - want[j]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn ragged_batch_is_a_shape_error_not_a_panic() {
        let plan = DftPlan::new(Tree::leaf(8), Direction::Forward).unwrap();
        let inputs = signals(1, 9);
        let mut out = vec![Complex64::ZERO; 9];
        let opts = BatchOptions::with_threads(2);
        let err = try_execute_dft_batch(&plan, &inputs, &mut out, &opts).unwrap_err();
        assert!(matches!(err, DdlError::ShapeMismatch { .. }), "{err}");
        let mut data = vec![0.0f64; 9];
        let wplan = WhtPlan::new(Tree::leaf(8)).unwrap();
        assert!(try_execute_wht_batch(&wplan, &mut data, &opts).is_err());
    }

    #[test]
    fn panicking_item_fails_only_itself() {
        let items: Vec<usize> = (0..16).collect();
        let touched = std::sync::Mutex::new(vec![false; 16]);
        let report = execute_batch_scheduled(
            items,
            &BatchOptions::with_threads(4),
            || (),
            |idx, item, _scratch| {
                if item == 5 || item == 11 {
                    panic!("injected fault on item {item}");
                }
                touched.lock().unwrap()[idx] = true;
                Ok(())
            },
        );
        assert_eq!(report.items(), 16);
        assert!(!report.all_ok());
        let failed: Vec<usize> = report.failures().map(|(i, _)| i).collect();
        assert_eq!(failed, vec![5, 11]);
        for (i, e) in report.failures() {
            match e {
                DdlError::WorkerPanic { item, payload } => {
                    assert_eq!(*item, i);
                    assert!(payload.contains("injected fault"), "{payload}");
                }
                other => panic!("unexpected error kind: {other}"),
            }
        }
        // Every non-faulting item still ran to completion.
        let touched = touched.lock().unwrap();
        for (i, &done) in touched.iter().enumerate() {
            assert_eq!(done, !failed.contains(&i), "item {i}");
        }
    }

    #[test]
    fn batch_report_outcomes_align_with_items() {
        let plan = DftPlan::new(Tree::leaf(8), Direction::Forward).unwrap();
        let inputs = signals(6, 8);
        let mut out = vec![Complex64::ZERO; 6 * 8];
        let opts = BatchOptions::with_threads(3);
        let report = try_execute_dft_batch(&plan, &inputs, &mut out, &opts).unwrap();
        assert_eq!(report.items(), 6);
        assert!(report.all_ok());
        assert!(!report.degraded_to_sequential());
    }
}
