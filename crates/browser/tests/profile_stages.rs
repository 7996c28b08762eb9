//! Integration test for the hotpath profiler riding the real visit loop
//! (only meaningful with `--features hotpath-profile`; the whole file is
//! compiled out otherwise).
//!
//! Two guarantees:
//!
//! * every instrumented stage on the visit fast path actually records when
//!   a population is crawled, and
//! * the per-stage totals are physically plausible — stage scopes never
//!   overlap on one thread except by strict nesting, so the sum of the
//!   non-nested stage totals cannot exceed the wall-clock time of the loop
//!   that contained them.

#![cfg(feature = "hotpath-profile")]

use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_types::profile::{self, Stage};
use netsim_web::{PopulationBuilder, PopulationProfile};

#[test]
fn stage_totals_stay_inside_the_visit_loop_wall_clock() {
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 50, 777).build();
    let crawler = Crawler::new("profile-stages", BrowserConfig::alexa_measurement(), 7);
    let mut scratch = VisitScratch::new();

    // Drain anything a previously-run test on this thread left behind.
    let _ = profile::take_local();

    let started = std::time::Instant::now();
    for index in 0..env.sites.len() {
        let _ = crawler.visit_site_into(&mut scratch, &env, index);
    }
    let wall_nanos = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;

    let table = profile::take_local();

    // Every fast-path stage ran. (Classify and ChunkLoop belong to the
    // experiment harness, not the browser, so they stay empty here.)
    for stage in
        [Stage::DnsWalk, Stage::ReuseScan, Stage::Handshake, Stage::RequestEncode, Stage::TransferClock]
    {
        let stats = table.stats(stage);
        assert!(stats.count > 0, "stage {} never recorded during the crawl", stage.name());
        assert!(stats.min_nanos <= stats.max_nanos);
        assert!(stats.total_nanos >= stats.max_nanos);
    }
    assert_eq!(table.stats(Stage::ChunkLoop).count, 0, "no chunk scaffold in a bare visit loop");

    // Physical upper bound: the browser's stage scopes are disjoint
    // siblings on the fast path (scan, DNS walk, handshake, encode, clock,
    // fold happen strictly one after another), and all of them ran inside
    // the loop above on this one thread — so their summed totals cannot
    // exceed the loop's wall clock.
    assert!(
        table.measured_total_nanos() <= wall_nanos,
        "measured stage totals ({} ns) exceed the loop wall clock ({wall_nanos} ns)",
        table.measured_total_nanos()
    );
}
