//! Deadline-aware work-stealing batch scheduler.
//!
//! Replaces the static splitter that `parallel.rs` used through PR 5: the
//! old engine cut the batch into one contiguous chunk per worker up
//! front, so one slow item serialized its whole chunk behind it. Here
//! every worker owns a deque seeded with a contiguous share of the batch;
//! a worker pops from the *front* of its own deque (preserving the
//! cache-friendly contiguous order) and, when empty, steals from the
//! *back* of a sibling's deque — the classic work-stealing discipline,
//! built on `std` mutexed deques so the crate stays `forbid(unsafe)`.
//!
//! # Fault model
//!
//! Robustness invariants the chaos harness (`tests/chaos.rs`) pins:
//!
//! * **No lost item.** Every submitted item gets exactly one outcome slot
//!   in the [`BatchReport`], even when a worker thread dies outside the
//!   per-item panic guard: completions are written into a shared slot
//!   table, and unfilled slots are backfilled as `WorkerPanic` after the
//!   scope joins.
//! * **Panic containment.** A panicking item (genuine or injected via the
//!   `batch.item.panic` fault point) fails only itself.
//! * **Spawn degradation.** The calling thread always participates as
//!   worker 0, so when the OS refuses sibling threads (or the
//!   `scheduler.spawn` fault point fires) the batch degrades to fewer
//!   workers — in the limit a sequential drain — instead of aborting.
//! * **Deadlines and cancellation.** Every dequeued item is checked
//!   against the batch deadline and the request's [`CancelToken`] before
//!   it runs; expired or cancelled items complete *immediately* with
//!   typed errors ([`DdlError::DeadlineExceeded`] /
//!   [`DdlError::Cancelled`]) rather than executing or blocking, so an
//!   overloaded batch drains in O(items) dequeue steps. In-flight items
//!   are never interrupted (execution is cooperative).

use crate::faultpoint::{self, relock};
use crate::flight::RequestId;
use crate::parallel::{panic_payload_text, BatchReport, ItemTiming};
use ddl_num::DdlError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-global scheduler outcome totals, accumulated once per
/// finished batch. Telemetry snapshots (`ddl-serve`'s `telemetry` wire
/// op) read these to report steal pressure and shed counts across every
/// batch the process ever ran, without threading a registry through
/// each call site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerTotals {
    /// Batches executed (empty batches included).
    pub batches: u64,
    /// Successful steals: tasks taken from a sibling's deque.
    pub steals: u64,
    /// Items shed with [`DdlError::DeadlineExceeded`] at dequeue.
    pub deadline_expired: u64,
    /// Items shed with [`DdlError::Cancelled`] at dequeue.
    pub cancelled: u64,
}

static TOTAL_BATCHES: AtomicU64 = AtomicU64::new(0);
static TOTAL_STEALS: AtomicU64 = AtomicU64::new(0);
static TOTAL_DEADLINE_EXPIRED: AtomicU64 = AtomicU64::new(0);
static TOTAL_CANCELLED: AtomicU64 = AtomicU64::new(0);

/// The process-global scheduler totals so far.
pub fn scheduler_totals() -> SchedulerTotals {
    SchedulerTotals {
        batches: TOTAL_BATCHES.load(Ordering::Relaxed),
        steals: TOTAL_STEALS.load(Ordering::Relaxed),
        deadline_expired: TOTAL_DEADLINE_EXPIRED.load(Ordering::Relaxed),
        cancelled: TOTAL_CANCELLED.load(Ordering::Relaxed),
    }
}

fn accumulate_totals(report: &BatchReport) {
    TOTAL_BATCHES.fetch_add(1, Ordering::Relaxed);
    TOTAL_STEALS.fetch_add(report.steals(), Ordering::Relaxed);
    TOTAL_DEADLINE_EXPIRED.fetch_add(report.deadline_expired() as u64, Ordering::Relaxed);
    TOTAL_CANCELLED.fetch_add(report.cancelled() as u64, Ordering::Relaxed);
}

/// Cooperative cancellation flag shared between a request's issuer and
/// the scheduler. Cloning shares the flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation: items dequeued after this observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Execution policy for one batch.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Worker parallelism (clamped to `1..=items`); the calling thread
    /// is always worker 0.
    pub threads: usize,
    /// Relative deadline, measured from batch start. Items dequeued
    /// after it expires fail with [`DdlError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Cancellation token checked at every dequeue.
    pub cancel: Option<CancelToken>,
    /// Identity of the service request this batch executes on behalf
    /// of; echoed into the [`BatchReport`] so spans and metrics can be
    /// attributed back to one admitted request.
    pub request: Option<RequestId>,
}

impl BatchOptions {
    /// Plain parallel execution: no deadline, no cancellation.
    pub fn with_threads(threads: usize) -> BatchOptions {
        BatchOptions {
            threads,
            ..BatchOptions::default()
        }
    }

    /// Sets the relative deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> BatchOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> BatchOptions {
        self.cancel = Some(token);
        self
    }

    /// Attributes the batch to a service request.
    #[must_use]
    pub fn request(mut self, id: RequestId) -> BatchOptions {
        self.request = Some(id);
        self
    }
}

struct Completion {
    outcome: Result<(), DdlError>,
    timing: ItemTiming,
}

/// Pops the next task for `worker`: front of its own deque first, then
/// the back of each sibling's (steal order is rotationally fair). Each
/// successful sibling pop counts as one steal.
fn next_task<Item>(
    deques: &[Mutex<VecDeque<(usize, Item)>>],
    worker: usize,
    steals: &AtomicU64,
) -> Option<(usize, Item)> {
    if let Some(task) = relock(&deques[worker]).pop_front() {
        return Some(task);
    }
    for off in 1..deques.len() {
        let victim = (worker + off) % deques.len();
        if let Some(task) = relock(&deques[victim]).pop_back() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
    None
}

/// One worker's drain loop: pop (or steal) until every deque is empty,
/// deciding each item's fate at dequeue time.
#[allow(clippy::too_many_arguments)] // one call site; the args are the batch context
fn worker_loop<Item, S, FS, FI>(
    worker: usize,
    deques: &[Mutex<VecDeque<(usize, Item)>>],
    slots: &Mutex<Vec<Option<Completion>>>,
    epoch: Instant,
    deadline_at: Option<Instant>,
    cancel: Option<&CancelToken>,
    steals: &AtomicU64,
    new_scratch: &FS,
    run_item: &FI,
) where
    FS: Fn() -> S,
    FI: Fn(usize, Item, &mut S) -> Result<(), DdlError>,
{
    let mut scratch: Option<S> = None;
    while let Some((index, item)) = next_task(deques, worker, steals) {
        let queue_ns = epoch.elapsed().as_nanos() as u64;
        let outcome;
        let run_ns;
        if cancel.is_some_and(CancelToken::is_cancelled) {
            outcome = Err(DdlError::Cancelled {
                context: "scheduler: dequeue",
            });
            run_ns = 0;
        } else if let Some(late_ns) = past_deadline(deadline_at) {
            outcome = Err(DdlError::DeadlineExceeded {
                context: "scheduler: dequeue",
                late_ns,
            });
            run_ns = 0;
        } else {
            // Scratch is created lazily so workers that only ever shed
            // expired items never pay for it.
            let scratch = scratch.get_or_insert_with(new_scratch);
            let start = Instant::now();
            // An item that errors fails its slot exactly like one that
            // panics: the error text becomes the payload.
            outcome = match catch_unwind(AssertUnwindSafe(|| {
                faultpoint::maybe_panic("batch.item.panic");
                run_item(index, item, scratch)
            })) {
                Ok(result) => result.map_err(|e| e.to_string()),
                Err(payload) => Err(panic_payload_text(payload)),
            }
            .map_err(|payload| DdlError::WorkerPanic {
                item: index,
                payload,
            });
            run_ns = start.elapsed().as_nanos() as u64;
        }
        relock(slots)[index] = Some(Completion {
            outcome,
            timing: ItemTiming { queue_ns, run_ns },
        });
    }
}

/// Nanoseconds past the deadline, or `None` while still inside it. The
/// `scheduler.deadline` fault point forces expiry for the chaos harness.
fn past_deadline(deadline_at: Option<Instant>) -> Option<u64> {
    if faultpoint::hit("scheduler.deadline") {
        return Some(0);
    }
    let deadline_at = deadline_at?;
    let now = Instant::now();
    if now >= deadline_at {
        Some(now.duration_since(deadline_at).as_nanos() as u64)
    } else {
        None
    }
}

/// Runs `run_item` once per item under `opts`, with work stealing across
/// up to `opts.threads` workers (the caller included), each with its own
/// scratch from `new_scratch`. See the module docs for the fault model;
/// per-item outcomes land in the returned [`BatchReport`], where an item
/// that panics or returns an error fails with [`DdlError::WorkerPanic`].
/// The DFT/WHT batch entry points are built on this engine, and it is
/// public so applications can get the same containment for their own
/// per-item work.
pub fn execute_batch_scheduled<Item, S, FS, FI>(
    items: Vec<Item>,
    opts: &BatchOptions,
    new_scratch: FS,
    run_item: FI,
) -> BatchReport
where
    Item: Send,
    FS: Fn() -> S + Sync,
    FI: Fn(usize, Item, &mut S) -> Result<(), DdlError> + Sync,
{
    let epoch = Instant::now();
    let batch = items.len();
    let deadline_at = opts.deadline.and_then(|d| epoch.checked_add(d));
    if batch == 0 {
        let mut report = BatchReport::from_parts(
            Vec::new(),
            Vec::new(),
            epoch.elapsed().as_nanos() as u64,
            false,
            0,
        );
        report.set_request(opts.request);
        accumulate_totals(&report);
        return report;
    }
    let threads = opts.threads.clamp(1, batch);

    // Seed each worker's deque with a contiguous share of the batch so
    // the no-contention case preserves the old splitter's access order.
    let per_worker = batch.div_ceil(threads);
    let mut deques: Vec<Mutex<VecDeque<(usize, Item)>>> = Vec::with_capacity(threads);
    for _ in 0..threads {
        deques.push(Mutex::new(VecDeque::new()));
    }
    for (index, item) in items.into_iter().enumerate() {
        let worker = (index / per_worker).min(threads - 1);
        relock(&deques[worker]).push_back((index, item));
    }

    let slots: Mutex<Vec<Option<Completion>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(batch).collect());
    let steals = AtomicU64::new(0);
    let mut degraded = false;

    {
        let deques = &deques;
        let slots = &slots;
        let steals = &steals;
        let new_scratch = &new_scratch;
        let run_item = &run_item;
        let cancel = opts.cancel.as_ref();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 1..threads {
                let spawned = if faultpoint::hit("scheduler.spawn") {
                    Err(std::io::Error::other("ddl-fault: injected spawn failure"))
                } else {
                    std::thread::Builder::new()
                        .name(format!("ddl-sched-{worker}"))
                        .spawn_scoped(scope, move || {
                            worker_loop(
                                worker,
                                deques,
                                slots,
                                epoch,
                                deadline_at,
                                cancel,
                                steals,
                                new_scratch,
                                run_item,
                            )
                        })
                };
                match spawned {
                    Ok(handle) => handles.push(handle),
                    // Spawn failure (thread/fd exhaustion, or injected):
                    // worker 0 and any live siblings steal that share.
                    Err(_) => degraded = true,
                }
            }
            // The calling thread is always worker 0: with zero spawned
            // siblings this is exactly the sequential fallback path.
            worker_loop(
                0,
                deques,
                slots,
                epoch,
                deadline_at,
                cancel,
                steals,
                new_scratch,
                run_item,
            );
            for handle in handles {
                if let Err(payload) = handle.join() {
                    // Unreachable in practice (items unwind inside the
                    // per-item guard), but a dead worker must not take
                    // down the caller; its unfilled slots are backfilled
                    // below.
                    let text = panic_payload_text(payload);
                    eprintln!("ddl-sched worker failed outside item execution: {text}");
                }
            }
        });
    }

    // Conservation: exactly one outcome per submitted item. A slot a
    // dead worker never filled reports as a lost-worker panic.
    let mut outcomes = Vec::with_capacity(batch);
    let mut timings = Vec::with_capacity(batch);
    for (index, slot) in relock(&slots).drain(..).enumerate() {
        match slot {
            Some(done) => {
                outcomes.push(done.outcome);
                timings.push(done.timing);
            }
            None => {
                outcomes.push(Err(DdlError::WorkerPanic {
                    item: index,
                    payload: "worker thread lost".to_string(),
                }));
                timings.push(ItemTiming::default());
            }
        }
    }
    let mut report = BatchReport::from_parts(
        outcomes,
        timings,
        epoch.elapsed().as_nanos() as u64,
        degraded,
        steals.load(Ordering::Relaxed),
    );
    report.set_request(opts.request);
    accumulate_totals(&report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_indices(count: usize, opts: &BatchOptions) -> BatchReport {
        let items: Vec<usize> = (0..count).collect();
        execute_batch_scheduled(
            items,
            opts,
            || 0u64,
            |_idx, item, acc| {
                *acc += item as u64;
                std::hint::black_box(*acc);
                Ok(())
            },
        )
    }

    #[test]
    fn all_items_complete_across_worker_counts() {
        for threads in [1, 2, 3, 8, 64] {
            let report = run_indices(17, &BatchOptions::with_threads(threads));
            assert_eq!(report.items(), 17);
            assert!(report.all_ok(), "threads={threads}");
        }
    }

    #[test]
    fn expired_deadline_sheds_every_item_quickly() {
        let opts = BatchOptions::with_threads(4).deadline(Duration::ZERO);
        let report = run_indices(32, &opts);
        assert_eq!(report.items(), 32);
        assert_eq!(report.deadline_expired(), 32);
        assert!(!report.all_ok());
    }

    #[test]
    fn cancelled_token_sheds_every_item() {
        let token = CancelToken::new();
        token.cancel();
        let opts = BatchOptions::with_threads(4).cancel_token(token);
        let report = run_indices(12, &opts);
        assert_eq!(report.cancelled(), 12);
    }

    #[test]
    fn cancellation_mid_batch_conserves_outcomes() {
        let token = CancelToken::new();
        let cancel_at = 5usize;
        let items: Vec<usize> = (0..64).collect();
        let tok = token.clone();
        let report = execute_batch_scheduled(
            items,
            &BatchOptions::with_threads(2).cancel_token(token),
            || (),
            |_idx, item, _| {
                if item == cancel_at {
                    tok.cancel();
                }
                Ok(())
            },
        );
        assert_eq!(report.items(), 64);
        let ok = report.outcomes().iter().filter(|r| r.is_ok()).count();
        assert_eq!(ok + report.cancelled(), 64, "ok + cancelled must cover all");
        assert!(report.cancelled() > 0, "cancellation must have been seen");
    }

    #[test]
    fn stealing_balances_a_skewed_batch() {
        // One pathological item at the head of worker 0's deque must not
        // serialize the rest of the batch: siblings steal it away.
        use std::sync::atomic::AtomicUsize;
        let other_workers_ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        let report = execute_batch_scheduled(
            items,
            &BatchOptions::with_threads(4),
            || (),
            |_idx, item, _| {
                if item == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                } else {
                    other_workers_ran.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            },
        );
        assert!(report.all_ok());
        // All 31 cheap items finished; with stealing, the wall clock is
        // bounded by the one slow item, not 8 sleeps in a row.
        assert_eq!(other_workers_ran.load(Ordering::Relaxed), 31);
    }

    #[test]
    fn erroring_item_fails_only_its_slot_as_a_worker_panic() {
        let report = execute_batch_scheduled(
            (0..6usize).collect(),
            &BatchOptions::with_threads(2),
            || (),
            |_idx, item, _| {
                if item == 4 {
                    return Err(DdlError::shape("injected", 1, 0));
                }
                Ok(())
            },
        );
        let failed: Vec<(usize, &DdlError)> = report.failures().collect();
        assert_eq!(failed.len(), 1);
        match failed[0] {
            (4, DdlError::WorkerPanic { item: 4, payload }) => {
                assert!(payload.contains("injected"), "{payload}")
            }
            other => panic!("unexpected failure {other:?}"),
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let report = run_indices(0, &BatchOptions::with_threads(4));
        assert_eq!(report.items(), 0);
        assert!(report.all_ok());
    }

    #[test]
    fn steals_are_counted_and_accumulate_into_totals() {
        let before = scheduler_totals();
        // One slow head item on worker 0 forces siblings to steal its
        // remaining share; at least one steal must be observed.
        let items: Vec<usize> = (0..32).collect();
        let report = execute_batch_scheduled(
            items,
            &BatchOptions::with_threads(4),
            || (),
            |_idx, item, _| {
                if item == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(())
            },
        );
        assert!(report.all_ok());
        assert!(report.steals() > 0, "skewed batch must trigger stealing");
        let after = scheduler_totals();
        assert!(after.batches > before.batches);
        assert!(after.steals >= before.steals + report.steals());
    }

    #[test]
    fn single_worker_never_steals() {
        let report = run_indices(8, &BatchOptions::with_threads(1));
        assert!(report.all_ok());
        assert_eq!(report.steals(), 0);
    }

    #[test]
    fn request_id_is_echoed_into_the_report() {
        let id = crate::flight::next_request_id();
        let report = run_indices(3, &BatchOptions::with_threads(2).request(id));
        assert_eq!(report.request(), Some(id));
        assert_eq!(
            run_indices(3, &BatchOptions::with_threads(2)).request(),
            None
        );
    }
}
