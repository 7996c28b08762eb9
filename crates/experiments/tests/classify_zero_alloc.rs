//! Allocation-regression gate for streaming classification.
//!
//! [`connreuse_core::FastVisitClassifier`] keeps its record, certificate,
//! order and cause-bit buffers across sites, so once they have grown to a
//! population's largest site, classifying a visit allocates nothing. This
//! test pins that with a counting global allocator around exactly what the
//! grid kernel runs per visit: the `Classify` stage guard plus
//! [`classify_scratch`], with stage collection both off and on. The visits
//! themselves run outside the counted window;
//! `crates/browser/tests/zero_alloc.rs` gates those.
//!
//! The counter is thread-local, so concurrently running tests in the same
//! binary cannot perturb it. Gated `#[cfg(not(miri))]`: Miri interposes its
//! own allocator bookkeeping.

#![cfg(not(miri))]

use connreuse_core::{Accumulator, DurationModel, FastVisitClassifier};
use connreuse_experiments::atlas::classify_scratch;
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_types::profile::{self, Stage};
use netsim_web::{PopulationBuilder, PopulationProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations (and growth reallocations) on threads that enabled
/// tracking; delegates all actual memory management to the system allocator.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count_one() {
    // `try_with` so allocations during TLS setup/teardown never recurse or
    // abort; those moments are outside any measurement window anyway.
    let _ = TRACKING.try_with(|tracking| {
        if tracking.get() {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` with allocation tracking enabled and return its result with the
/// exact number of heap allocations it performed on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|count| count.set(0));
    TRACKING.with(|tracking| tracking.set(true));
    let result = f();
    TRACKING.with(|tracking| tracking.set(false));
    (result, ALLOCATIONS.with(|count| count.get()))
}

#[test]
fn warm_classification_allocates_nothing() {
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 60, 4242).build();
    let crawler = Crawler::new("classify-alloc-gate", BrowserConfig::alexa_measurement(), 7);
    let mut scratch = VisitScratch::new();
    let mut classifier = FastVisitClassifier::new();

    // One pass over the population: visit each site untracked, then count
    // only the classification the grid kernel runs on it.
    let mut pass = || {
        let mut accumulator = Accumulator::new();
        let mut allocations = 0;
        for index in 0..env.sites.len() {
            crawler.visit_site_into(&mut scratch, &env, index);
            let (counts, allocated) = allocations_in(|| {
                netsim_types::stage!(Stage::Classify);
                classify_scratch(&mut classifier, &scratch, DurationModel::Recorded)
            });
            accumulator.observe_counts(&counts);
            allocations += allocated;
        }
        (accumulator.finish("alloc-gate"), allocations)
    };

    // Two warm-up passes grow every buffer to the largest site's size.
    let (_, first) = pass();
    assert!(first > 0, "the first pass grows the classifier's buffers");
    let _ = pass();

    // Measured with collection off, then on: the only test in this binary,
    // so each pass runs in the state it set, and the live guard's table
    // shows it recorded one scope per site.
    for on in [false, true] {
        profile::set_enabled(on);
        let _ = profile::take_local();
        let (summary, allocations) = pass();
        assert_eq!(allocations, 0, "warm classification (collection on={on}) allocated {allocations} times");
        // The zero cannot be explained by the classifier doing nothing.
        assert!(summary.total.connections > 100, "{summary:?}");
        assert!(summary.redundant.connections > 0, "{summary:?}");
        let classified = profile::take_local().stats(Stage::Classify).count;
        assert_eq!(classified, if on { env.sites.len() as u64 } else { 0 });
    }
}
