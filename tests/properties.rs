//! Property-based tests (proptest) on the core data structures and the
//! classifier invariants.

use connreuse::browser::{
    Browser, BrowserConfig, ConnectionDurationModel, ConnectionPool, FaultProfile, PoolConfig, UserSession,
    VisitScratch,
};
use connreuse::core::{
    classify_site, Cause, DurationModel, ObservedConnection, ObservedRequest, SiteObservation,
};
use connreuse::cost::{CostTotals, LinkProfile, VisitTimeline};
use connreuse::dns::{AddressRun, LoadBalancePolicy, QueryContext, ResolverId};
use connreuse::experiments::{run_cost, CostConfig, CostReport};
use connreuse::h2::reuse::{admits, evaluate_set, ReusePolicy};
use connreuse::h2::{CloseReason, Connection, ConnectionState};
use connreuse::tls::{Certificate, CertificateId, CertificateStore, IssuancePolicy, Issuer, SanEntry};
use connreuse::types::{
    ConnectionId, DomainName, Duration, Instant, IpAddr, Mitigation, MitigationSet, Origin, Scheme, SimClock,
    SimRng,
};
use connreuse::web::{PopulationBuilder, PopulationProfile};
use proptest::prelude::*;

/// A small universe of domains so that random SAN lists actually cover some
/// of the randomly chosen connection domains.
fn domain_universe() -> Vec<DomainName> {
    [
        "example.com",
        "www.example.com",
        "img.example.com",
        "static.example.com",
        "cdn.other.net",
        "tracker.ads.org",
        "fonts.provider.io",
    ]
    .iter()
    .map(|s| DomainName::literal(s))
    .collect()
}

prop_compose! {
    /// A random observed connection drawn from small universes of domains,
    /// addresses and SAN subsets.
    fn arbitrary_connection(id: u64)(
        domain_index in 0usize..7,
        ip_index in 0u8..4,
        san_mask in 0u8..128,
        start in 0u64..10_000,
        close_offset in proptest::option::of(1_000u64..200_000),
        status in prop_oneof![Just(200u16), Just(200u16), Just(200u16), Just(404u16)],
    ) -> ObservedConnection {
        let universe = domain_universe();
        let domain = universe[domain_index];
        let mut san: Vec<SanEntry> = universe
            .iter()
            .enumerate()
            .filter(|(index, _)| san_mask & (1 << index) != 0)
            .map(|(_, d)| SanEntry::Dns(*d))
            .collect();
        // The certificate always covers the domain it was served for.
        san.push(SanEntry::Dns(domain));
        ObservedConnection {
            id: ConnectionId(id),
            initial_domain: domain,
            ip: IpAddr::new(192, 0, 2, ip_index),
            port: 443,
            san,
            issuer: Issuer::lets_encrypt(),
            established_at: Instant::from_millis(start),
            closed_at: close_offset.map(|offset| Instant::from_millis(start + offset)),
            requests: vec![ObservedRequest {
                domain,
                status,
                started_at: Instant::from_millis(start + 5),
            }],
        }
    }
}

fn arbitrary_site(max_connections: usize) -> impl Strategy<Value = SiteObservation> {
    prop::collection::vec(any::<u8>(), 1..=max_connections).prop_flat_map(|seeds| {
        let strategies: Vec<_> =
            seeds.iter().enumerate().map(|(i, _)| arbitrary_connection(i as u64)).collect();
        strategies.prop_map(|connections| SiteObservation {
            site: DomainName::literal("site.example"),
            connections,
        })
    })
}

/// Build an established HTTP/2 connection for the reuse-monotonicity
/// property: a certificate over a SAN subset of the universe (always
/// covering the initial domain), an optional announced origin set, a remote
/// address and a credentials partition.
fn reuse_connection(
    domain_index: usize,
    san_mask: u8,
    ip_index: u8,
    credentialed: bool,
    origin_set_mask: Option<u8>,
) -> Connection {
    let universe = domain_universe();
    let mut names: Vec<DomainName> = universe
        .iter()
        .enumerate()
        .filter(|(index, _)| san_mask & (1 << index) != 0)
        .map(|(_, d)| *d)
        .collect();
    let initial = universe[domain_index];
    if !names.contains(&initial) {
        names.push(initial);
    }
    let mut store = CertificateStore::new();
    store.issue_with_policy(&Issuer::lets_encrypt(), &IssuancePolicy::SharedSan, &names, Instant::EPOCH);
    let mut connection = Connection::establish(
        ConnectionId(1),
        Origin::https(initial),
        IpAddr::new(192, 0, 2, ip_index),
        std::sync::Arc::clone(store.get_arc(CertificateId(0)).unwrap()),
        credentialed,
        Instant::EPOCH,
    );
    if let Some(mask) = origin_set_mask {
        // An arbitrary announced set — deliberately not tied to the
        // certificate, so the property covers misconfigured servers too.
        let set = universe.iter().enumerate().filter(|(index, _)| mask & (1 << index) != 0).map(|(_, d)| *d);
        connection.receive_origin_set(set);
    }
    connection
}

/// The shared cost-sweep report the cost-monotonicity property samples from
/// (built once; the property then probes random grid edges).
fn cost_report() -> &'static CostReport {
    use std::sync::OnceLock;
    static REPORT: OnceLock<CostReport> = OnceLock::new();
    REPORT.get_or_init(|| run_cost(&CostConfig { sites: 40, seed: 20_210_420, threads: 8 }))
}

proptest! {
    /// For every mitigation set, total simulated setup cost is monotonically
    /// non-increasing as mitigations are added — the cost mirror of the
    /// reuse-monotonicity property below. Sampled over every edge of the
    /// 2^4 grid under every link profile: adding mitigation `m` to
    /// combination `S ∌ m` never increases handshake round trips, handshake
    /// octets, charged handshake latency, cold-window rounds or the priced
    /// setup time.
    #[test]
    fn simulated_cost_is_monotone_under_mitigation(
        combo_bits in 0usize..16,
        mitigation_index in 0usize..4,
        profile_index in 0usize..3,
    ) {
        let report = cost_report();
        let combo = MitigationSet::all_combinations()[combo_bits];
        let mitigation = Mitigation::ALL[mitigation_index];
        if !combo.contains(mitigation) {
            let profile = &report.profiles[profile_index];
            let without = &report.cell(profile_index, combo).totals;
            let with = &report.cell(profile_index, combo.with(mitigation)).totals;
            prop_assert!(
                with.sums.setup_rtts() <= without.sums.setup_rtts(),
                "adding {mitigation} to {combo} raised setup RTTs on {}",
                profile.name
            );
            prop_assert!(with.sums.handshake_octets <= without.sums.handshake_octets);
            prop_assert!(with.sums.handshake_millis <= without.sums.handshake_millis);
            prop_assert!(with.sums.cold_cwnd_rtts <= without.sums.cold_cwnd_rtts);
            prop_assert!(with.setup_time(profile) <= without.setup_time(profile));
        }
    }

    /// Pricing is monotone in the counters: growing any cost counter never
    /// makes the derived setup time cheaper, on any link profile.
    #[test]
    fn cost_pricing_is_monotone_in_the_counters(
        rtts in 0u64..100_000,
        octets in 0u64..1_000_000_000,
        queries in 0u64..100_000,
        cwnd in 0u64..100_000,
        extra in 1u64..50_000,
        profile_index in 0usize..3,
    ) {
        let profile = &LinkProfile::presets()[profile_index];
        let base_timeline = VisitTimeline {
            handshake_rtts: rtts,
            handshake_octets: octets,
            dns_authority_queries: queries,
            cold_cwnd_rtts: cwnd,
            ..VisitTimeline::default()
        };
        let mut base = CostTotals::new();
        base.absorb_visit(&base_timeline);
        for grown_timeline in [
            VisitTimeline { handshake_rtts: rtts + extra, ..base_timeline },
            VisitTimeline { dns_authority_queries: queries + extra, ..base_timeline },
            VisitTimeline { cold_cwnd_rtts: cwnd + extra, ..base_timeline },
        ] {
            let mut grown = CostTotals::new();
            grown.absorb_visit(&grown_timeline);
            prop_assert!(grown.setup_time(profile) > base.setup_time(profile));
        }
    }

    /// Relaxing a [`ReusePolicy`] by enabling any mitigation never
    /// introduces a *new* [`connreuse::h2::ReuseRefusal`] for any
    /// connection/request pair: for every mitigation set `S` and mitigation
    /// `m ∉ S`, `refusals(S ∪ {m}) ⊆ refusals(S)`. In particular a pair
    /// that was reusable stays reusable — reuse decisions are monotone
    /// under mitigation.
    #[test]
    fn reuse_decisions_are_monotone_under_mitigation(
        domain_index in 0usize..7,
        san_mask in 0u8..128,
        ip_index in 0u8..4,
        credentialed_bit in 0u8..2,
        origin_set_mask in proptest::option::of(0u8..128),
        target_index in 0usize..7,
        target_ip_index in 0u8..4,
        request_credentialed_bit in 0u8..2,
    ) {
        let credentialed = credentialed_bit == 1;
        let request_credentialed = request_credentialed_bit == 1;
        let connection =
            reuse_connection(domain_index, san_mask, ip_index, credentialed, origin_set_mask);
        let target = Origin::https(domain_universe()[target_index]);
        let target_ip = IpAddr::new(192, 0, 2, target_ip_index);
        for combo in MitigationSet::all_combinations() {
            let base = evaluate_set(
                &connection,
                &target,
                target_ip,
                request_credentialed,
                &ReusePolicy::with_mitigations(combo),
            );
            for mitigation in Mitigation::ALL {
                if combo.contains(mitigation) {
                    continue;
                }
                let relaxed = evaluate_set(
                    &connection,
                    &target,
                    target_ip,
                    request_credentialed,
                    &ReusePolicy::with_mitigations(combo.with(mitigation)),
                );
                for refusal in relaxed.iter() {
                    prop_assert!(
                        base.contains(refusal),
                        "adding {mitigation} to {combo} introduced {refusal:?} \
                         (base {:?}, relaxed {:?})",
                        base.to_vec(),
                        relaxed.to_vec()
                    );
                }
                if base.is_empty() {
                    prop_assert!(relaxed.is_empty());
                }
            }
        }
    }

    /// The loader's verdict is the refusal set's emptiness: `admits` (cheap
    /// checks first, coverage last, first refusal returns) equals
    /// `evaluate_set(..).is_empty()` for any connection — any address,
    /// partition and lifecycle state, SAN lists with wildcards, with or
    /// without an announced origin set, with 421 exclusions — and any
    /// request, under the strict Chromium, without-Fetch and ORIGIN-frame
    /// policies and every mitigation set's relaxed policy.
    #[test]
    fn admits_is_an_empty_refusal_set(
        certificate in (0usize..7, 0u8..128, 0u8..16),
        ip_index in 0u8..4,
        credentialed_bit in 0u8..2,
        origin_set_mask in proptest::option::of(0u8..128),
        excluded_mask in 0u8..128,
        state_index in 0u8..3,
        target in (0usize..7, prop_oneof![Just(443u16), Just(443u16), Just(8443u16)]),
        request in (0u8..4, 0u8..2),
    ) {
        let (domain_index, san_mask, wildcard_mask) = certificate;
        let (target_index, target_port) = target;
        let (target_ip_index, request_credentialed_bit) = request;
        let universe = domain_universe();
        let mut connection =
            reuse_connection(domain_index, san_mask, ip_index, credentialed_bit == 1, origin_set_mask);
        let mut certificate = (*connection.certificate).clone();
        certificate.san.extend(
            ["example.com", "other.net", "ads.org", "provider.io"]
                .iter()
                .enumerate()
                .filter(|(index, _)| wildcard_mask & (1 << index) != 0)
                .map(|(_, zone)| SanEntry::Wildcard(DomainName::literal(zone))),
        );
        connection.certificate = std::sync::Arc::new(certificate);
        for (index, domain) in universe.iter().enumerate() {
            if excluded_mask & (1 << index) != 0 {
                connection.complete_response(domain, 421, 0);
            }
        }
        match state_index {
            0 => {}
            1 => connection.receive_goaway(),
            _ => connection.close(Instant::EPOCH),
        }
        let target = Origin::new(Scheme::Https, universe[target_index], target_port);
        let target_ip = IpAddr::new(192, 0, 2, target_ip_index);
        let request_credentialed = request_credentialed_bit == 1;
        let policies = [
            ReusePolicy::chromium(),
            ReusePolicy::chromium_without_fetch(),
            ReusePolicy::with_origin_frame(),
        ]
        .into_iter()
        .chain(MitigationSet::all_combinations().into_iter().map(ReusePolicy::with_mitigations));
        for policy in policies {
            let refusals = evaluate_set(&connection, &target, target_ip, request_credentialed, &policy);
            prop_assert_eq!(
                admits(&connection, &target, target_ip, request_credentialed, &policy),
                refusals.is_empty(),
                "{:?} under {:?}",
                refusals.to_vec(),
                policy
            );
        }
    }

    /// Classifier invariants that must hold for any observation.
    #[test]
    fn classifier_invariants(site in arbitrary_site(8)) {
        for model in [DurationModel::Endless, DurationModel::Immediate, DurationModel::Recorded] {
            let result = classify_site(&site, model);
            prop_assert_eq!(result.total_connections, site.connections.len());
            prop_assert_eq!(result.connections.len(), site.connections.len());
            // The first-established connection can never be redundant.
            if let Some(first) = result.connections.first() {
                prop_assert!(!first.is_redundant());
            }
            prop_assert!(result.redundant_connections() < site.connections.len().max(1));
            for (position, connection) in result.connections.iter().enumerate() {
                for cause in Cause::ALL {
                    for &previous in connection.previous_for(cause) {
                        prop_assert!(previous < site.connections.len());
                        // Previous connections were established no later.
                        let this = &site.connections[connection.index];
                        let other = &site.connections[previous];
                        prop_assert!(other.established_at <= this.established_at);
                    }
                }
                // A single previous connection cannot justify both CERT and
                // CRED for the same new connection (they are mutually
                // exclusive per pair: the certificate either covers or not).
                let cert: std::collections::BTreeSet<_> =
                    connection.previous_for(Cause::Cert).iter().collect();
                let cred: std::collections::BTreeSet<_> =
                    connection.previous_for(Cause::Cred).iter().collect();
                // Exception: the same-initial-domain corner case routes an
                // IP-mismatched pair to CRED; such a pair can never be in CERT
                // because the certificate always covers its own domain.
                prop_assert!(cert.is_disjoint(&cred), "position {position}: {cert:?} vs {cred:?}");
            }
        }
    }

    /// Endless is an upper bound of Immediate for every cause.
    #[test]
    fn endless_dominates_immediate(site in arbitrary_site(8)) {
        let endless = classify_site(&site, DurationModel::Endless);
        let immediate = classify_site(&site, DurationModel::Immediate);
        prop_assert!(endless.redundant_connections() >= immediate.redundant_connections());
        for cause in Cause::ALL {
            prop_assert!(endless.connections_with_cause(cause) >= immediate.connections_with_cause(cause));
        }
    }

    /// Removing close times (Recorded with no closures == Endless).
    #[test]
    fn recorded_without_closures_equals_endless(site in arbitrary_site(6)) {
        let mut open_site = site;
        for connection in &mut open_site.connections {
            connection.closed_at = None;
        }
        let endless = classify_site(&open_site, DurationModel::Endless);
        let recorded = classify_site(&open_site, DurationModel::Recorded);
        prop_assert_eq!(endless, recorded);
    }

    /// SAN coverage: a wildcard certificate covers exactly the single-label
    /// children of its zone, never the zone itself or deeper names.
    #[test]
    fn wildcard_coverage_is_single_label(label in "[a-z]{1,10}", deeper in "[a-z]{1,8}") {
        let zone = DomainName::literal("shard.example.com");
        let certificate = Certificate {
            id: CertificateId(1),
            subject: zone,
            san: vec![SanEntry::Wildcard(zone)],
            issuer: Issuer::lets_encrypt(),
            not_before: Instant::EPOCH,
            not_after: Instant::EPOCH + Duration::from_days(90),
        };
        let child = zone.with_subdomain(&label).unwrap();
        let grandchild = child.with_subdomain(&deeper).unwrap();
        prop_assert!(certificate.covers(&child));
        prop_assert!(!certificate.covers(&zone));
        prop_assert!(!certificate.covers(&grandchild));
    }

    /// DNS load-balancing answers always come from the configured pool, are
    /// deterministic within an epoch, and never exceed the requested size.
    #[test]
    fn load_balancing_answers_stay_in_pool(
        pool_size in 1u8..16,
        answer_size in 0usize..8,
        resolver in 0u32..20,
        minutes in 0u64..5_000,
        domain_index in 0usize..7,
    ) {
        let pool: Vec<IpAddr> = (0..pool_size).map(|i| IpAddr::new(10, 7, 0, i)).collect();
        let policy = LoadBalancePolicy::PerResolverPool {
            pool: AddressRun::new(pool[0], pool_size.into()),
            answer_size,
            epoch: Duration::from_mins(30),
        };
        let domain = domain_universe()[domain_index];
        let ctx = QueryContext::new(ResolverId(resolver), Instant::EPOCH + Duration::from_mins(minutes));
        let select = || {
            let mut answer = Vec::new();
            policy.select_each(&domain, &ctx, |ip| answer.push(ip));
            answer
        };
        let answer = select();
        prop_assert!(!answer.is_empty());
        prop_assert!(answer.len() <= pool.len());
        prop_assert!(answer.iter().all(|ip| pool.contains(ip)));
        prop_assert_eq!(answer, select());
    }

    /// A warm session never opens *more* connections than the same pages
    /// visited cold. With server churn disabled and a pool roomy enough to
    /// avoid eviction, every reuse candidate the cold path sees is also
    /// available warm (plus the pooled survivors), and both paths start each
    /// page at the same epoch-aligned instant — so the warm candidate set is
    /// a superset of the cold one, page by page.
    #[test]
    fn warm_sessions_never_open_more_connections_than_cold(
        seed in 0u64..150,
        pages in prop::collection::vec(0usize..6, 2usize..6),
    ) {
        let env = PopulationBuilder::new(PopulationProfile::alexa(), 6, seed).build();
        // No server lifetime churn: the pool keeps everything it absorbs.
        let config = BrowserConfig {
            duration_model: ConnectionDurationModel::KeepOpen,
            ..BrowserConfig::alexa_measurement()
        };
        // Pages start at fixed 60 s marks; the whole trace stays inside one
        // 10-minute DNS load-balancer epoch, so cached answers never diverge
        // from fresh ones.
        let page_start = |index: usize| Instant::EPOCH + Duration::from_secs(60 * index as u64);
        let mut scratch = VisitScratch::new();

        let mut cold_opens = 0u64;
        {
            let mut browser = Browser::with_id_base(config.clone(), 0);
            let mut rng = SimRng::new(seed).fork("cold");
            for (index, &site) in pages.iter().enumerate() {
                let mut clock = SimClock::starting_at(page_start(index));
                browser.load_page_into(&mut scratch, &env, &env.sites[site], &mut clock, &mut rng);
                cold_opens += scratch.timeline().connections_opened;
            }
        }

        let mut warm_opens = 0u64;
        {
            let pool = PoolConfig { max_connections: 256, idle_timeout: Duration::from_secs(600) };
            let mut session = UserSession::new(pool);
            let mut browser = Browser::with_id_base(config, 0);
            let mut rng = SimRng::new(seed).fork("warm");
            let mut clock = SimClock::new();
            for (index, &site) in pages.iter().enumerate() {
                clock.advance_to(page_start(index));
                browser.load_session_page_into(
                    &mut scratch, &mut session, &env, &env.sites[site], &mut clock, &mut rng,
                );
                warm_opens += scratch.timeline().connections_opened;
            }
            session.end(&mut scratch, clock.now());
        }

        prop_assert!(
            warm_opens <= cold_opens,
            "warm sessions opened {warm_opens} connections where cold visits opened {cold_opens} \
             (seed {seed}, pages {pages:?})"
        );
    }

    /// The pool never lends a stale connection. For any absorbed set, idle
    /// timeout, lend gap, churn model and dead-on-reuse rate: every
    /// connection handed to the page is still open within its idle deadline,
    /// everything else comes back closed with the right lifecycle
    /// reason (a server-lifetime close always lands inside the sampler's
    /// `0.5×..2×`-median window and never after the lend instant), and no
    /// connection is lost or duplicated on the way through.
    #[test]
    fn the_pool_never_lends_past_a_lifecycle_deadline(
        seed in 0u64..500,
        count in 1usize..12,
        idle_secs in 1u64..120,
        gap_ms in 0u64..300_000,
        close_ppm in 0u32..1_000_001,
        median_secs in 1u64..60,
        dead_ppm in prop_oneof![Just(0u32), Just(250_000u32), Just(1_000_000u32)],
    ) {
        let config = PoolConfig { max_connections: 64, idle_timeout: Duration::from_secs(idle_secs) };
        let mut pool = ConnectionPool::new(config);
        let mut store = CertificateStore::new();
        let mut connections: Vec<Connection> = (0..count)
            .map(|index| {
                let domain = DomainName::literal(&format!("host-{index}.pool.example"));
                store.issue_with_policy(
                    &Issuer::lets_encrypt(),
                    &IssuancePolicy::SharedSan,
                    &[domain],
                    Instant::EPOCH,
                );
                Connection::establish(
                    ConnectionId(index as u64),
                    Origin::https(domain),
                    IpAddr::new(10, 9, 0, index as u8),
                    std::sync::Arc::clone(store.get_arc(CertificateId(index as u64)).unwrap()),
                    true,
                    Instant::EPOCH + Duration::from_millis(index as u64),
                )
            })
            .collect();

        let absorbed_at = Instant::EPOCH + Duration::from_secs(1);
        let churn = ConnectionDurationModel::IdleTimeouts {
            close_probability: close_ppm as f64 / 1_000_000.0,
            median_lifetime_secs: median_secs,
        };
        let mut absorb_closed = Vec::new();
        let mut rng = SimRng::new(seed);
        pool.absorb(absorbed_at, &mut connections, &mut absorb_closed, &mut rng, &churn);

        let lent_at = absorbed_at + Duration::from_millis(gap_ms);
        let faults = FaultProfile { dead_on_reuse_ppm: dead_ppm, ..FaultProfile::default() };
        let mut live = Vec::new();
        let mut lend_closed = Vec::new();
        let dead = pool.lend(lent_at, &mut live, &mut lend_closed, &faults, &mut rng.fork("fault"));

        // Conservation: every absorbed connection is either an absorb-time
        // churn close, lent alive, or a lend-time close — exactly once.
        prop_assert_eq!(absorb_closed.len() + live.len() + lend_closed.len(), count);
        let mut ids: Vec<u64> = absorb_closed
            .iter()
            .chain(&live)
            .chain(&lend_closed)
            .map(|connection| connection.id.0)
            .collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..count as u64).collect::<Vec<_>>());

        for connection in &live {
            prop_assert_eq!(connection.state, ConnectionState::Open);
            prop_assert!(connection.close_reason.is_none());
            // A lent connection is always within its idle deadline.
            prop_assert!(lent_at.since(absorbed_at) <= config.idle_timeout);
        }
        if gap_ms > idle_secs * 1_000 {
            prop_assert!(live.is_empty(), "nothing may be lent past the idle deadline");
        }
        if dead_ppm == 1_000_000 {
            prop_assert!(live.is_empty(), "a certain dead-on-reuse draw kills every survivor");
        }

        for closed in absorb_closed.iter().chain(&lend_closed) {
            let closed_at = closed.closed_at.expect("every closed connection records a close time");
            prop_assert!(closed_at <= lent_at);
            match closed.close_reason.expect("every closed connection records a close reason") {
                CloseReason::ServerLifetime => {
                    // The sampled expiry is anchored at establishment and
                    // spread 0.5×..2× the median; a connection is never lent
                    // at or past it.
                    let lifetime = closed_at.since(closed.established_at);
                    prop_assert!(lifetime >= Duration::from_millis(median_secs * 500));
                    prop_assert!(lifetime <= Duration::from_secs(median_secs * 2));
                }
                CloseReason::IdleTimeout => {
                    prop_assert_eq!(closed_at, absorbed_at + config.idle_timeout);
                    prop_assert!(lent_at.since(absorbed_at) > config.idle_timeout);
                }
                CloseReason::DeadOnReuse => {
                    prop_assert_eq!(closed_at, lent_at);
                    prop_assert!(dead_ppm > 0, "0 ppm must never draw a dead connection");
                }
                other => prop_assert!(false, "unexpected close reason {other:?}"),
            }
        }

        let stats = pool.stats();
        prop_assert_eq!(stats.inserted, count as u64);
        prop_assert_eq!(stats.lent, live.len() as u64);
        prop_assert_eq!(stats.dead_on_reuse, dead);
        prop_assert_eq!(
            dead as usize,
            lend_closed.iter().filter(|s| s.close_reason == Some(CloseReason::DeadOnReuse)).count()
        );
        prop_assert_eq!(stats.closed() + stats.lent, stats.inserted);
    }
}
