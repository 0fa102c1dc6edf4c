//! Seeded lock-order inversion: two functions acquire `alpha` and
//! `beta` in opposite orders, so two threads could deadlock. Each
//! function takes its second lock while holding the first, and the lock
//! rule must refuse this file for that nesting;
//! `ddl_cert --demo-mutation lock-inversion` and
//! `tests/certificates.rs` both gate on it.
//!
//! This file is a fixture, not compiled into any crate.

use std::sync::{Mutex, MutexGuard, PoisonError};

fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

pub fn ab(alpha: &Mutex<u64>, beta: &Mutex<u64>) -> u64 {
    let a = relock(alpha);
    let b = relock(beta);
    *a + *b
}

pub fn ba(alpha: &Mutex<u64>, beta: &Mutex<u64>) -> u64 {
    let b = relock(beta);
    let a = relock(alpha);
    *a - *b
}
