//! Plan-owned scratch: executor buffers that outlive one execution.
//!
//! The paper's executor is a precompiled plan: twiddles and buffers are
//! set up once, and the Eq. (2)/(3) cost has no allocation term. A
//! [`ScratchPool`] gives a compiled plan (and every clone of it) a free
//! list of scratch buffers, so the internally-allocating entry points
//! (`try_execute`, `try_execute_inplace`, `try_profile_with`) reuse memory
//! instead of zero-allocating — and, at paper sizes, page-faulting in —
//! a fresh buffer per call.
//!
//! * A buffer is allocated only when the pool is empty: on the first
//!   call, or when several threads execute the plan at once. The pool
//!   therefore never holds more buffers than the peak number of
//!   concurrent executions; there is no capacity knob.
//! * Nothing is allocated at compile time, so plan set-up cost is
//!   unchanged.
//! * Buffers go back **dirty**. That is sound because both executors
//!   write every scratch point before reading it (see the
//!   write-before-read notes in [`crate::dft`] and [`crate::wht`]); the
//!   stale-scratch tests pin this.
//! * The lock covers one `pop` or one `push`, never an execution or
//!   another lock (the `ddl-cert` lock rule scans this file).

use crate::faultpoint::relock;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A free list of scratch buffers shared by a plan and its clones.
#[derive(Clone)]
pub(crate) struct ScratchPool<T> {
    free: Arc<Mutex<Vec<Vec<T>>>>,
}

impl<T: Copy + Default> ScratchPool<T> {
    /// An empty pool; allocates nothing.
    pub(crate) fn new() -> ScratchPool<T> {
        ScratchPool {
            free: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Runs `f` on exactly `len` points of a pooled buffer and returns
    /// the buffer to the pool afterwards. The contents `f` sees are
    /// whatever the previous user left (zero only when freshly grown).
    /// A panic inside `f` drops the buffer instead of returning it.
    pub(crate) fn with<R>(&self, len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
        if len == 0 {
            return f(&mut []);
        }
        let mut buf = relock(&self.free).pop().unwrap_or_default();
        if buf.len() < len {
            buf.resize(len, T::default());
        }
        let out = f(&mut buf[..len]);
        relock(&self.free).push(buf);
        out
    }

    /// Buffers currently parked in the pool (not in use).
    pub(crate) fn pooled(&self) -> usize {
        relock(&self.free).len()
    }
}

// Manual impl: the derived one would print every pooled point.
impl<T: Copy + Default> fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScratchPool")
            .field("pooled", &self.pooled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_one_buffer_and_hands_it_back_dirty() {
        let pool = ScratchPool::<f64>::new();
        assert_eq!(pool.pooled(), 0);
        pool.with(4, |s| {
            assert_eq!(s, &[0.0; 4]);
            s.fill(7.0);
        });
        assert_eq!(pool.pooled(), 1);
        pool.with(3, |s| assert_eq!(s, &[7.0; 3]));
        // A larger request grows the same buffer rather than adding one.
        pool.with(6, |s| assert_eq!(s.len(), 6));
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn zero_length_requests_bypass_the_pool() {
        let pool = ScratchPool::<f64>::new();
        pool.with(0, |s| assert!(s.is_empty()));
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn nested_use_takes_a_second_buffer_and_clones_share() {
        let pool = ScratchPool::<f64>::new();
        let twin = pool.clone();
        pool.with(2, |_| twin.with(2, |_| ()));
        assert_eq!(pool.pooled(), 2);
        assert_eq!(twin.pooled(), 2);
    }
}
