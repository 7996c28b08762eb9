//! Conservation laws between the simulator's counters, over random seeds,
//! population sizes, deployments and fault profiles. Every law here follows
//! from how the counters are bumped; a counter bumped twice, or in the wrong
//! place, breaks one of them.
//!
//! * **Grid cells** (the visit → classify → fold kernel, through the
//!   store's in-memory what-if): every visit is classified, so the cost
//!   aggregate's visit count equals the accumulator's observed sites.
//! * **Accumulator**: redundant sites are HTTP/2 sites, which are observed
//!   sites; a cause marks only redundant connections, at least one per site
//!   it marks; every redundant connection carries at least one cause.
//! * **Per visit**: only an opened connection resumes a handshake; only a
//!   recursive DNS walk (an injected failure counts as one) fails; every
//!   walk makes exactly one authority query unless the fault layer injected
//!   its failure, so `authority queries ≤ walks ≤ authority queries +
//!   injected faults`.
//! * **Pool, between pages**: every closed or still pooled connection was
//!   inserted once (a lent connection that dies mid-page leaves without a
//!   counter, hence `≤`).

use connreuse::browser::{Browser, BrowserConfig, FaultProfile, PoolConfig, UserSession, VisitScratch};
use connreuse::core::Cause;
use connreuse::cost::VisitTimeline;
use connreuse::experiments::store::{answer_in_memory, StoreConfig, StoreQuery};
use connreuse::types::{Duration, Instant, MitigationSet, SimClock, SimRng};
use connreuse::web::{PopulationBuilder, PopulationProfile};
use proptest::prelude::*;

/// The per-visit laws, as a failure message naming the broken one.
fn visit_laws(timeline: &VisitTimeline) -> Result<(), String> {
    if timeline.resumed_handshakes > timeline.connections_opened {
        return Err(format!("resumed handshakes exceed opened connections: {timeline:?}"));
    }
    if timeline.dns_failures > timeline.dns_recursive_walks {
        return Err(format!("DNS failures exceed recursive walks: {timeline:?}"));
    }
    if timeline.dns_authority_queries > timeline.dns_recursive_walks {
        return Err(format!("DNS authority queries exceed recursive walks: {timeline:?}"));
    }
    if timeline.dns_recursive_walks > timeline.dns_authority_queries + timeline.faults_injected {
        return Err(format!("DNS walks without an authority query or an injected fault: {timeline:?}"));
    }
    Ok(())
}

proptest! {
    #[test]
    fn counters_obey_their_conservation_laws(
        seed in 0u64..1_000,
        sites in 6usize..24,
        bits in 0u8..16,
        fault_ppm in prop_oneof![Just(0u32), Just(20_000u32), Just(150_000u32)],
        pages in 2usize..7,
    ) {
        let mitigations = MitigationSet::from_bits(bits);

        // Grid cells and the accumulator, measured by the grid kernel.
        let config = StoreConfig {
            sites,
            chunk_sites: 5,
            seed,
            threads: 1,
            mitigations: vec![mitigations],
            ..StoreConfig::default()
        };
        let query = StoreQuery { mitigations, profile_index: 0, lo: 0, hi: sites as u64 };
        let answer = answer_in_memory(&config, &query).expect("in-memory answer");
        let summary = &answer.summary;
        prop_assert_eq!(answer.cost.visits, answer.observed_sites as u64);
        prop_assert_eq!(answer.observed_sites, sites);
        prop_assert!(summary.redundant.sites <= summary.total.sites, "{summary:?}");
        prop_assert!(summary.total.sites <= answer.observed_sites, "{summary:?}");
        prop_assert!(summary.redundant.connections <= summary.total.connections, "{summary:?}");
        let mut cause_connections = 0;
        for cause in Cause::ALL {
            let counts = summary.cause(cause);
            prop_assert!(counts.sites <= summary.redundant.sites, "{cause:?}: {summary:?}");
            prop_assert!(counts.sites <= counts.connections, "{cause:?}: {summary:?}");
            prop_assert!(counts.connections <= summary.redundant.connections, "{cause:?}: {summary:?}");
            cause_connections += counts.connections;
        }
        prop_assert!(summary.redundant.connections <= cause_connections, "{summary:?}");
        if let Err(broken) = visit_laws(&answer.cost.sums) {
            prop_assert!(false, "grid totals: {broken}");
        }

        // Warm sessions under injected faults: the per-visit laws on every
        // page, the pool law between pages.
        let env = PopulationBuilder::new(PopulationProfile::alexa(), sites, seed)
            .with_mitigations(mitigations)
            .build();
        let browser_config =
            BrowserConfig { faults: FaultProfile::uniform(fault_ppm), ..BrowserConfig::with_mitigations(mitigations) };
        let pool = PoolConfig { max_connections: 4, idle_timeout: Duration::from_secs(30) };
        let mut session = UserSession::new(pool);
        let mut browser = Browser::with_id_base(browser_config, 0);
        let mut scratch = VisitScratch::new();
        let mut rng = SimRng::new(seed).fork("conservation");
        let mut clock = SimClock::new();
        for page in 0..pages {
            clock.advance_to(Instant::EPOCH + Duration::from_secs(20 * page as u64));
            let site = &env.sites[(seed as usize + 7 * page) % sites];
            browser.load_session_page_into(&mut scratch, &mut session, &env, site, &mut clock, &mut rng);
            if let Err(broken) = visit_laws(scratch.timeline()) {
                prop_assert!(false, "page {page}: {broken}");
            }
            let stats = session.pool().stats();
            prop_assert!(
                stats.closed() + session.pool().len() as u64 <= stats.inserted,
                "page {}: {:?} with {} pooled",
                page,
                stats,
                session.pool().len()
            );
        }
        session.end(&mut scratch, clock.now());
        let stats = session.take_stats();
        prop_assert!(stats.closed() <= stats.inserted, "session end: {stats:?}");
    }
}
