//! Work gate for the loader's coalescing scan.
//!
//! A request with no direct session hit asks the §9.1.1 predicate about
//! every open connection in pool order. Most candidates are refused by the
//! credentials partition or the IP rule, so `admits` asks for certificate
//! coverage (the one check that walks a SAN list) only of candidates every
//! cheaper check admits. This test crawls atlas sites 1000–1999 on one
//! thread and pins the exact number of coverage checks the crawl makes
//! (`netsim_h2::reuse::coverage_checks`, a thread-local work counter). It
//! also bounds that number from the visits' own records: no more than the
//! candidates that pass the cheap checks, summed over every request. A scan
//! that asks every candidate for its full refusal set again fails the pin.

use connreuse::browser::{BrowserConfig, Crawler, VisitScratch};
use connreuse::experiments::atlas::atlas_builder;
use connreuse::experiments::AtlasConfig;
use connreuse::h2::reuse::{coverage_checks, evaluate_set};
use connreuse::h2::ReuseRefusal;
use connreuse::types::{MitigationSet, Origin};
use connreuse::web::DeploymentCache;

/// Coverage checks the crawl of atlas sites 1000–1999 makes.
const COVERAGE_CHECKS: u64 = 2_002;

#[test]
fn coalescing_scan_checks_coverage_only_past_the_cheap_checks() {
    let config = AtlasConfig::default();
    let deployments = DeploymentCache::standard();
    let mut builder =
        atlas_builder(config.seed, config.zipf_exponent, deployments.deployment(MitigationSet::empty()));
    builder.set_site_range(1000, 1000);
    let env = builder.build();
    let browser = BrowserConfig::alexa_measurement();
    let crawler = Crawler::new("reuse-work", browser.clone(), 7);
    let mut scratch = VisitScratch::new();

    let mut checks = 0;
    let mut requests = 0;
    let mut cheap_passes = 0;
    for index in 0..env.sites.len() {
        let before = coverage_checks();
        crawler.visit_site_into(&mut scratch, &env, index);
        checks += coverage_checks() - before;

        // Every connection stays open until the walk ends, and each request
        // advances the clock, so a request's scan saw exactly the
        // connections established before it was sent, and it scanned only
        // if none of them was a direct hit (same origin and partition). The
        // request went out on a connection the predicate admitted or one
        // dialled to the address it resolved to; with no origin set
        // honoured, either way that connection's address is the request's.
        // Stream state and 421 exclusions are read after the visit closed
        // its connections, so only the checks that do not change count.
        let connections = scratch.connections();
        for request in scratch.requests() {
            requests += 1;
            let carrier = connections.iter().find(|c| c.id == request.connection).expect("carrier");
            let target = Origin::https(request.domain);
            let pool = connections.iter().filter(|c| c.established_at < request.started_at);
            if pool.clone().any(|c| c.initial_origin == target && c.credentialed == request.credentialed) {
                continue;
            }
            cheap_passes += pool
                .filter(|candidate| {
                    evaluate_set(
                        candidate,
                        &target,
                        carrier.remote_ip,
                        request.credentialed,
                        &browser.reuse_policy,
                    )
                    .iter()
                    .all(|reason| {
                        matches!(
                            reason,
                            ReuseRefusal::CertificateMismatch
                                | ReuseRefusal::NotAcceptingStreams
                                | ReuseRefusal::ExcludedByServer
                        )
                    })
                })
                .count() as u64;
        }
    }
    assert!(requests > 10_000, "the chunk was crawled: {requests} requests");
    assert!(checks <= cheap_passes, "{checks} coverage checks for {cheap_passes} cheap passes");
    assert_eq!(
        checks, COVERAGE_CHECKS,
        "the scan made {checks} coverage checks ({cheap_passes} cheap passes)"
    );
}
