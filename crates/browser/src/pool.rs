//! A shared pool of [`VisitScratch`] arenas for parallel crawl executors.
//!
//! One [`VisitScratch`] amortises a visit's buffers across a *worker's*
//! lifetime; the pool amortises them across *runs*. A parallel executor
//! checks one arena out per worker, crawls its chunks, and the arena — with
//! every buffer grown to the hot set's high-water mark — returns to the pool
//! when the worker finishes. The next run (another thread count, another
//! population prefix, a repeated determinism check) starts warm instead of
//! re-growing connection lists, resolver cache lines and request logs from
//! empty.
//!
//! Checkout order is irrelevant to results: an arena carries no visit state
//! between checkouts that the loader does not reset, so which worker draws
//! which arena can never change a report (the atlas thread-invariance tests
//! cover this end to end).

use crate::scratch::VisitScratch;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// A thread-safe pool of recycled [`VisitScratch`] arenas; a checked-out
/// arena is always ready to use as-is.
#[derive(Debug, Default)]
pub struct ScratchPool {
    idle: Mutex<Vec<VisitScratch>>,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool::default()
    }

    /// Same as [`ScratchPool::new`]. The `simbench` workspace is its only
    /// caller.
    pub fn without_netlog() -> Self {
        ScratchPool::new()
    }

    /// Check an arena out: recycle an idle one, or build a fresh one if the
    /// pool has run dry. The arena returns to the pool when the guard drops.
    pub fn checkout(&self) -> PooledScratch<'_> {
        let recycled = self.idle.lock().expect("scratch pool poisoned").pop();
        let scratch = recycled.unwrap_or_default();
        PooledScratch { pool: self, scratch: Some(scratch) }
    }

    /// Number of idle arenas currently waiting in the pool.
    pub fn idle_arenas(&self) -> usize {
        self.idle.lock().expect("scratch pool poisoned").len()
    }
}

/// RAII guard over a checked-out [`VisitScratch`]; dereferences to the arena
/// and returns it to its pool on drop.
#[derive(Debug)]
pub struct PooledScratch<'pool> {
    pool: &'pool ScratchPool,
    scratch: Option<VisitScratch>,
}

impl Deref for PooledScratch<'_> {
    type Target = VisitScratch;

    fn deref(&self) -> &VisitScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for PooledScratch<'_> {
    fn deref_mut(&mut self) -> &mut VisitScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.idle.lock().expect("scratch pool poisoned").push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_builds_fresh_arenas_and_drop_returns_them() {
        let pool = ScratchPool::new();
        assert_eq!(pool.idle_arenas(), 0);
        {
            let _first = pool.checkout();
            let _second = pool.checkout();
            assert_eq!(pool.idle_arenas(), 0);
        }
        assert_eq!(pool.idle_arenas(), 2);
    }

    #[test]
    fn recycled_arenas_are_reused_not_regrown() {
        let pool = ScratchPool::new();
        drop(pool.checkout());
        assert_eq!(pool.idle_arenas(), 1);
        // The second checkout drains the idle arena instead of building a
        // new one.
        let guard = pool.checkout();
        assert_eq!(pool.idle_arenas(), 0);
        drop(guard);
        assert_eq!(pool.idle_arenas(), 1);
    }

    #[test]
    fn arenas_can_be_checked_out_from_worker_threads() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| drop(pool.checkout()));
            }
        });
        // Each worker returned its arena; how many distinct arenas were built
        // depends on how the threads interleaved (full overlap builds three,
        // sequential execution recycles one).
        let idle = pool.idle_arenas();
        assert!((1..=3).contains(&idle), "expected 1..=3 idle arenas, found {idle}");
    }
}
