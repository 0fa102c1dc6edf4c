//! The disabled-sink guarantee: executing a plan through the default
//! [`NullSink`] observer path performs **zero heap allocations** once
//! buffers exist. This is the "zero-cost when disabled" half of the
//! observability layer's contract, checked with a counting global
//! allocator. The executors below recurse through every span site
//! (`span_begin`/`span_end` on each node) as well as the stage sites, so
//! the guarantee covers the hierarchical trace instrumentation too. The
//! test lives in its own integration-test binary so no concurrently
//! running test can contribute allocations.

use dynamic_data_layout::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread count: the test harness (and sibling tests) allocate from
// other threads concurrently, and those must not pollute this thread's
// measurement window. Const-initialized so the TLS access itself never
// allocates.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can be called during TLS teardown, when
    // the counter is already destroyed.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn local_allocations() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn null_sink_execution_allocates_nothing() {
    // A tree exercising every instrumented code path: a reorganizing
    // split (transpose), twiddle passes and strided leaves.
    let tree = Tree::split_ddl(Tree::leaf(64), Tree::leaf(64));
    let plan = DftPlan::new(tree, Direction::Forward).unwrap();
    let n = plan.n();
    let input = vec![Complex64::ONE; n];
    let mut output = vec![Complex64::ZERO; n];
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];

    let run = |output: &mut [Complex64], scratch: &mut [Complex64]| {
        plan.try_run(DftViews::new(&input, output), scratch, &mut NullSink)
            .unwrap();
    };

    // Warm-up: fault pages, fill any lazily initialized state.
    run(&mut output, &mut scratch);

    let before = local_allocations();
    for _ in 0..8 {
        run(&mut output, &mut scratch);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "uninstrumented execution must not allocate"
    );
}

#[test]
fn null_sink_wht_execution_allocates_nothing() {
    // Reorg on the left (strided) child so the gather/scatter path runs.
    let tree = Tree::split(Tree::leaf_ddl(32), Tree::leaf(32));
    let plan = WhtPlan::new(tree).unwrap();
    let n = plan.n();
    let mut data: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut scratch = vec![0.0f64; plan.scratch_len()];

    plan.try_run(WhtView::new(&mut data), &mut scratch, &mut NullSink)
        .unwrap();

    let before = local_allocations();
    for _ in 0..8 {
        plan.try_run(WhtView::new(&mut data), &mut scratch, &mut NullSink)
            .unwrap();
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "uninstrumented WHT execution must not allocate"
    );
}

#[test]
fn plan_owned_scratch_makes_public_entry_points_allocation_free() {
    // Reorganizing split and leaf: the pooled buffer backs t2, t and r.
    let dft = DftPlan::from_expr("ctddl(ddl(16), ctddl(8, 8))", Direction::Forward).unwrap();
    let n = dft.n();
    let input: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new(i as f64, -(i as f64)))
        .collect();
    let mut output = vec![Complex64::ZERO; n];
    let mut data = input.clone();
    let wht = WhtPlan::from_expr("split(ddl(32), splitddl(ddl(8), 4))").unwrap();
    assert!(wht.scratch_len() > 0);
    let mut wdata: Vec<f64> = (0..wht.n()).map(|i| i as f64).collect();

    // One warm call per entry point sizes the pooled buffers.
    dft.try_execute(&input, &mut output).unwrap();
    dft.try_execute_inplace(&mut data).unwrap();
    wht.try_execute(&mut wdata).unwrap();

    let before = local_allocations();
    for _ in 0..8 {
        dft.try_execute(&input, &mut output).unwrap();
        data.copy_from_slice(&input);
        dft.try_execute_inplace(&mut data).unwrap();
        wht.try_execute(&mut wdata).unwrap();
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state execution on plan-owned scratch must not allocate"
    );
    assert_eq!(data, output, "in-place and out-of-place agree");
    assert_eq!(dft.pooled_scratch(), 1);
    assert_eq!(wht.pooled_scratch(), 1);
}

#[test]
fn concurrent_executions_share_the_pool_without_growing_past_them() {
    const THREADS: usize = 2;
    let plan = DftPlan::from_expr("ctddl(ddl(32), ct(16, 8))", Direction::Inverse).unwrap();
    let n = plan.n();
    let inputs: Vec<Vec<Complex64>> = (0..THREADS)
        .map(|t| {
            (0..n)
                .map(|i| Complex64::new((i * (t + 2)) as f64 * 0.01, (i % 7) as f64))
                .collect()
        })
        .collect();
    // References from a fresh, unshared plan (zeroed scratch).
    let reference = |x: &[Complex64]| {
        let fresh = DftPlan::new(plan.tree().clone(), plan.direction()).unwrap();
        let mut y = vec![Complex64::ZERO; n];
        fresh.try_execute(x, &mut y).unwrap();
        y
    };
    let want: Vec<Vec<Complex64>> = inputs.iter().map(|x| reference(x)).collect();

    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for (t, (x, want)) in inputs.iter().zip(&want).enumerate() {
            // Each thread runs its own clone; clones share one pool.
            let plan = plan.clone();
            let barrier = &barrier;
            s.spawn(move || {
                let mut y = vec![Complex64::ZERO; n];
                for _ in 0..32 {
                    barrier.wait();
                    plan.try_execute(x, &mut y).unwrap();
                    assert_eq!(&y, want, "thread {t}: output differs from a fresh plan");
                    assert!(plan.pooled_scratch() <= THREADS);
                }
            });
        }
    });
    let pooled = plan.pooled_scratch();
    assert!(
        (1..=THREADS).contains(&pooled),
        "pool holds {pooled} buffers for {THREADS} concurrent executors"
    );
}
