//! Allocation-regression gate for chunk generation.
//!
//! A grid worker rebuilds one [`netsim_web::WebEnvironment`] in place for
//! every atlas chunk it runs ([`netsim_web::PopulationBuilder::build_into`]):
//! the DNS, certificate and AS layers are reset keeping their capacity,
//! every site regenerates into its slot's plan and shard vectors, and the
//! misc third parties are derived once per build seed. This test pins, with
//! a counting global allocator, that rebuilding an atlas chunk the worker
//! has built before allocates nothing — after the worker has crawled it, as
//! between two chunks of a run. Building the same chunk with a fresh
//! `build()` made 34,419 allocations before chunk environments were
//! recycled.
//!
//! The same test pins the intern-table work: generated site and shard names
//! are handles over a per-process vocabulary, so a warm rebuild plus a crawl
//! of the chunk makes no intern-table call at all (the interned names made
//! over 1,000 such calls), and building a chunk never seen before interns no
//! new name. The allocation and intern-call counters are thread-local, but
//! the interned-name count is process-wide: keep this the only test in its
//! binary. Gated `#[cfg(not(miri))]`: Miri interposes its own allocator
//! bookkeeping.

#![cfg(not(miri))]

use connreuse_core::{DurationModel, FastVisitClassifier};
use connreuse_experiments::atlas::{atlas_builder, classify_scratch};
use connreuse_experiments::AtlasConfig;
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_types::{intern_calls, interned_domain_count, MitigationSet};
use netsim_web::{DeploymentCache, WebEnvironment};
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

/// Heap allocations a warm rebuild of the chunk may make. None remain.
const WARM_REBUILD_ALLOCATIONS: u64 = 0;

#[test]
fn warm_chunk_rebuild_allocates_nothing() {
    let config = AtlasConfig::default();
    let deployments = DeploymentCache::standard();
    let mut builder =
        atlas_builder(config.seed, config.zipf_exponent, deployments.deployment(MitigationSet::empty()));
    // The second chunk of the default layout, as a worker runs it.
    builder.set_site_range(config.chunk_sites, config.chunk_sites);
    let crawler = Crawler::new("build-alloc-gate", BrowserConfig::alexa_measurement(), 7);
    let mut scratch = VisitScratch::new();
    let mut classifier = FastVisitClassifier::new();
    let mut env = WebEnvironment::default();

    // A cold build, then one rebuild, grow every layer to the chunk's size.
    let (_, cold) = allocations_in(|| builder.build_into(&mut env));
    assert!(cold > 1_000, "the cold build allocates the chunk: {cold} allocations");
    builder.build_into(&mut env);

    // The worker crawls the chunk, then releases the last visit's
    // certificates before its next rebuild (`GridWorker::with_population`).
    let mut connections = 0;
    for index in 0..env.sites.len() {
        crawler.visit_site_into(&mut scratch, &env, index);
        connections += classify_scratch(&mut classifier, &scratch, DurationModel::Recorded).total_connections;
    }
    assert!(connections > 1_000, "the chunk was crawled: {connections} connections");
    scratch.clear();
    classifier.begin_site();

    let calls_before = intern_calls();
    let ((), allocations) = allocations_in(|| builder.build_into(&mut env));
    assert_eq!(allocations, WARM_REBUILD_ALLOCATIONS, "a warm chunk rebuild allocated {allocations} times");

    // Crawling the rebuilt chunk names hosts, certificates and origin sets
    // without the intern table too.
    for index in 0..env.sites.len() {
        crawler.visit_site_into(&mut scratch, &env, index);
        classify_scratch(&mut classifier, &scratch, DurationModel::Recorded);
    }
    let calls = intern_calls() - calls_before;
    assert_eq!(calls, 0, "a warm rebuild plus crawl made {calls} intern-table calls");

    // The rebuilt chunk is the chunk a fresh build generates.
    let fresh = builder.build();
    assert_eq!(env.sites, fresh.sites);
    assert_eq!(env.sites.len(), config.chunk_sites);
    assert_eq!(env.certificates.len(), fresh.certificates.len());
    for request in env.sites.iter().flat_map(|site| &site.plan) {
        let selected = |env: &WebEnvironment| env.certificate_for(&request.domain).map(|cert| cert.id);
        assert_eq!(selected(&env), selected(&fresh), "certificate for {}", request.domain);
    }

    // The next chunk's thousand sites and their shards add no interned name.
    let interned = interned_domain_count();
    builder.set_site_range(2 * config.chunk_sites, config.chunk_sites);
    builder.build_into(&mut env);
    assert_eq!(env.sites[0].id.0, 2 * config.chunk_sites as u64);
    assert_eq!(interned_domain_count(), interned, "a new chunk's names entered the intern table");
}
