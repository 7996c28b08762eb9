//! Allocation-regression gate for the visit fast path.
//!
//! The whole point of [`netsim_browser::VisitScratch`] is that a steady-state
//! page visit performs **zero** heap allocations: every buffer (connection
//! list, request log, DNS cache lines) is recycled across visits, and
//! opening a connection allocates nothing. This test pins that property with
//! a counting global allocator: after two warm-up passes over a population
//! (which grow every buffer to its high-water mark), a third pass over the
//! same sites must allocate exactly **nothing**. Any regression — a stray `clone`, a
//! map rebuilt per visit, a vector constructed in the loop — fails loudly
//! with the exact allocation count.
//!
//! The counter is thread-local, so concurrently running tests in the same
//! binary cannot perturb it. Gated `#[cfg(not(miri))]`: Miri interposes its
//! own allocator bookkeeping.

#![cfg(not(miri))]

use netsim_browser::{Browser, BrowserConfig, Crawler, PoolConfig, UserSession, VisitScratch};
use netsim_types::{Duration, Instant, SimClock, SimRng};
use netsim_web::{PopulationBuilder, PopulationProfile, WebEnvironment};
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

/// Run `f` with allocation tracking enabled and return the exact number of
/// heap allocations it performed on this thread.
fn allocations_in<F: FnOnce()>(f: F) -> u64 {
    ALLOCATIONS.with(|count| count.set(0));
    TRACKING.with(|tracking| tracking.set(true));
    f();
    TRACKING.with(|tracking| tracking.set(false));
    ALLOCATIONS.with(|count| count.get())
}

#[test]
fn steady_state_visits_allocate_nothing() {
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 60, 4242).build();
    let crawler = Crawler::new("alloc-gate", BrowserConfig::alexa_measurement(), 7);
    let mut scratch = VisitScratch::new();

    // Warm-up: every pooled buffer's capacity only ever ratchets upwards,
    // so a handful of passes reaches the fixed point where nothing grows any
    // more. Converging within this bound is part of the contract —
    // a scratch that kept allocating would never hit zero.
    const MAX_WARMUP_PASSES: usize = 8;
    let mut converged_after = None;
    for pass in 0..MAX_WARMUP_PASSES {
        let allocations = allocations_in(|| {
            for index in 0..env.sites.len() {
                let _ = crawler.visit_site_into(&mut scratch, &env, index);
            }
        });
        if allocations == 0 {
            converged_after = Some(pass);
            break;
        }
    }
    let converged_after = converged_after
        .unwrap_or_else(|| panic!("visit loop still allocating after {MAX_WARMUP_PASSES} full passes"));

    // The measured pass: same sites, same order — steady state. Exactly
    // zero, so any regression fails loudly with its allocation count.
    let mut requests = 0usize;
    let allocations = allocations_in(|| {
        for index in 0..env.sites.len() {
            let _ = crawler.visit_site_into(&mut scratch, &env, index);
            requests += scratch.requests().len();
        }
    });
    assert!(requests > 1000, "the measured pass must do real work ({requests} requests)");
    assert_eq!(
        allocations,
        0,
        "steady-state visits must not allocate: {allocations} allocations across {} visits \
         (scratch had converged after {converged_after} warm passes)",
        env.sites.len()
    );
}

#[test]
fn cost_accounting_keeps_the_zero_allocation_guarantee() {
    // The latency/byte cost timeline must ride the fast path for free: a
    // steady-state pass that also folds every timeline into `CostTotals`
    // performs zero heap allocations *and* produces non-trivial totals — so
    // the zero cannot be explained by the accounting doing nothing.
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 40, 2024).build();
    let crawler = Crawler::new("alloc-gate-cost", BrowserConfig::alexa_measurement(), 5);
    let mut scratch = VisitScratch::new();

    // Warm-up to the buffers' high-water marks (see the main gate above).
    for _ in 0..8 {
        let allocations = allocations_in(|| {
            for index in 0..env.sites.len() {
                let _ = crawler.visit_site_into(&mut scratch, &env, index);
            }
        });
        if allocations == 0 {
            break;
        }
    }

    let mut totals = netsim_cost::CostTotals::new();
    let allocations = allocations_in(|| {
        for index in 0..env.sites.len() {
            let _ = crawler.visit_site_into(&mut scratch, &env, index);
            totals.absorb_visit(scratch.timeline());
        }
    });
    assert_eq!(allocations, 0, "cost accounting must not allocate on the visit fast path");
    assert_eq!(totals.visits, 40);
    assert!(totals.sums.connections_opened > 0, "the measured pass opened connections");
    assert!(totals.sums.handshake_rtts >= 2 * totals.sums.connections_opened);
    assert!(totals.sums.dns_recursive_walks > 0);
    assert!(totals.sums.plt_millis > 0);
}

/// One pass of warm multi-page sessions over the population: six sessions of
/// four pages each, all driven through the session fast path with the same
/// reusable [`UserSession`]. Returns the connections opened, so the measured
/// pass can prove it did real work.
fn run_warm_sessions(
    env: &WebEnvironment,
    config: &BrowserConfig,
    scratch: &mut VisitScratch,
    session: &mut UserSession,
) -> u64 {
    let mut opens = 0;
    for s in 0..6u64 {
        let mut browser = Browser::with_id_base(config.clone(), s * 1_000_000);
        let mut clock = SimClock::starting_at(Instant::EPOCH + Duration::from_secs(600 * s));
        let mut rng = SimRng::new(5).fork_indexed("alloc-session", s);
        for page in 0..4u64 {
            let site = &env.sites[((s * 4 + page) * 3) as usize % env.sites.len()];
            browser.load_session_page_into(scratch, session, env, site, &mut clock, &mut rng);
            opens += scratch.timeline().connections_opened;
            clock.advance(Duration::from_secs(30));
        }
        session.end(scratch, clock.now());
    }
    opens
}

#[test]
fn warm_session_pages_keep_the_zero_allocation_guarantee() {
    // The session fast path adds a connection pool, a TLS ticket cache and a
    // kept-warm DNS cache on top of the per-visit scratch; all of that state
    // must recycle like the scratch's own buffers. After warm-up, a full
    // pass of multi-page sessions — pool lends and absorbs, ticket lookups,
    // TTL sweeps, session teardown included — allocates exactly nothing.
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 24, 99).build();
    let config = BrowserConfig::alexa_measurement();
    let mut scratch = VisitScratch::new();
    let mut session = UserSession::new(PoolConfig::default());

    const MAX_WARMUP_PASSES: usize = 8;
    let mut converged = false;
    for _ in 0..MAX_WARMUP_PASSES {
        let allocations = allocations_in(|| {
            let _ = run_warm_sessions(&env, &config, &mut scratch, &mut session);
        });
        if allocations == 0 {
            converged = true;
            break;
        }
    }
    assert!(converged, "session loop still allocating after {MAX_WARMUP_PASSES} full passes");

    let mut opens = 0;
    let allocations = allocations_in(|| opens = run_warm_sessions(&env, &config, &mut scratch, &mut session));
    assert!(opens > 0, "the measured pass opened connections");
    assert_eq!(allocations, 0, "steady-state session pages must not allocate: {allocations} allocations");

    // The zero cannot be explained by the pool having been bypassed: the
    // accumulated lifecycle counters prove warm lends happened.
    let stats = session.take_stats();
    assert!(stats.lent > 0, "warm sessions must lend pooled connections: {stats:?}");
    assert!(stats.inserted > 0);
}

#[test]
fn origin_frame_sessions_allocate_only_their_origin_sets() {
    // The one exception to the session fast path's zero: a connection that
    // receives an ORIGIN frame owns its origin set, which the reuse
    // predicate reads (a server may announce any set), so every
    // establishment under the ORIGIN-frame policy allocates the set once,
    // sized by the certificate's name count. Everything else recycles as in
    // the gate above, so a warm pass allocates exactly once per connection
    // it opens.
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 24, 99).build();
    let config = BrowserConfig::with_origin_frames();
    let mut scratch = VisitScratch::new();
    let mut session = UserSession::new(PoolConfig::default());

    const MAX_WARMUP_PASSES: usize = 8;
    let mut previous = None;
    let mut converged = false;
    for _ in 0..MAX_WARMUP_PASSES {
        let mut opens = 0;
        let allocations =
            allocations_in(|| opens = run_warm_sessions(&env, &config, &mut scratch, &mut session));
        if previous == Some((allocations, opens)) {
            converged = true;
            break;
        }
        previous = Some((allocations, opens));
    }
    assert!(converged, "origin-frame session loop still growing after {MAX_WARMUP_PASSES} full passes");

    let mut opens = 0;
    let allocations = allocations_in(|| opens = run_warm_sessions(&env, &config, &mut scratch, &mut session));
    assert_eq!(opens, 207, "the measured pass opens a fixed set of connections");
    assert_eq!(allocations, opens, "one origin set per opened connection, nothing else");
}

#[test]
fn faulted_visits_keep_the_zero_allocation_guarantee() {
    // The fault-injection and retry layer must ride the fast path for free:
    // with every failure process at a visibly nonzero rate — so DNS faults,
    // failed dials, mid-transfer resets, dead pooled connections, GOAWAYs,
    // backoff waits and abandoned resources all actually happen — a
    // steady-state pass of warm sessions still allocates exactly nothing.
    use netsim_browser::FaultProfile;

    let env = PopulationBuilder::new(PopulationProfile::alexa(), 24, 77).build();
    let config =
        BrowserConfig { faults: FaultProfile::uniform(50_000), ..BrowserConfig::alexa_measurement() };
    let mut scratch = VisitScratch::new();
    let mut session = UserSession::new(PoolConfig::default());

    // Faults perturb how many connections a page opens and closes, so the
    // buffers take longer than in the fault-free loops to reach their
    // high-water marks — a generous bound, same converge-or-fail contract as
    // the main gate.
    const MAX_WARMUP_PASSES: usize = 32;
    let mut converged = false;
    for _ in 0..MAX_WARMUP_PASSES {
        let allocations = allocations_in(|| {
            let _ = run_warm_sessions(&env, &config, &mut scratch, &mut session);
        });
        if allocations == 0 {
            converged = true;
            break;
        }
    }
    assert!(converged, "faulted session loop still allocating after {MAX_WARMUP_PASSES} full passes");

    let mut totals = netsim_cost::CostTotals::new();
    let allocations = allocations_in(|| {
        for s in 0..6u64 {
            let mut browser = Browser::with_id_base(config.clone(), s * 1_000_000);
            let mut clock = SimClock::starting_at(Instant::EPOCH + Duration::from_secs(600 * s));
            let mut rng = SimRng::new(5).fork_indexed("alloc-session", s);
            for page in 0..4u64 {
                let site = &env.sites[((s * 4 + page) * 3) as usize % env.sites.len()];
                browser.load_session_page_into(&mut scratch, &mut session, &env, site, &mut clock, &mut rng);
                totals.absorb_visit(scratch.timeline());
                clock.advance(Duration::from_secs(30));
            }
            session.end(&mut scratch, clock.now());
        }
    });
    assert_eq!(allocations, 0, "fault injection and retries must not allocate: {allocations} allocations");
    // The zero cannot be explained by the fault layer having been inert: at
    // 5% per process across hundreds of requests, faults and retries fired.
    assert!(totals.sums.faults_injected > 0, "no faults fired: {:?}", totals.sums);
    assert!(totals.sums.retries > 0, "no retries happened: {:?}", totals.sums);
    assert!(totals.sums.retry_backoff_millis > 0, "retries charged no backoff: {:?}", totals.sums);
}

#[cfg(feature = "hotpath-profile")]
#[test]
fn profiled_visits_keep_the_zero_allocation_guarantee() {
    // The hotpath profiler must be free on the fast path even when it is
    // *recording*: stage guards write into a fixed-size thread-local table,
    // so a steady-state pass with `hotpath-profile` enabled still allocates
    // exactly nothing — and the drained table proves the instrumentation
    // was live, not compiled out.
    use netsim_types::profile::{self, Stage};

    let env = PopulationBuilder::new(PopulationProfile::alexa(), 40, 1337).build();
    let crawler = Crawler::new("alloc-gate-profile", BrowserConfig::alexa_measurement(), 7);
    let mut scratch = VisitScratch::new();

    const MAX_WARMUP_PASSES: usize = 8;
    let mut converged = false;
    for _ in 0..MAX_WARMUP_PASSES {
        let allocations = allocations_in(|| {
            for index in 0..env.sites.len() {
                let _ = crawler.visit_site_into(&mut scratch, &env, index);
            }
        });
        if allocations == 0 {
            converged = true;
            break;
        }
    }
    assert!(converged, "profiled visit loop still allocating after {MAX_WARMUP_PASSES} full passes");

    // Drop the warm-up's recordings so the assertion below covers exactly
    // the measured pass.
    let _ = profile::take_local();

    let allocations = allocations_in(|| {
        for index in 0..env.sites.len() {
            let _ = crawler.visit_site_into(&mut scratch, &env, index);
        }
    });
    assert_eq!(allocations, 0, "stage guards must not allocate on the visit fast path");

    let table = profile::take_local();
    for stage in [Stage::DnsWalk, Stage::Handshake, Stage::RequestEncode, Stage::TransferClock] {
        let stats = table.stats(stage);
        assert!(stats.count > 0, "stage {} recorded nothing in the measured pass", stage.name());
        assert!(stats.total_nanos > 0, "stage {} recorded zero time", stage.name());
    }
}
