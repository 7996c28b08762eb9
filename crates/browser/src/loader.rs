//! The page loader: Chromium's session pool + coalescing + Fetch partition.

use crate::config::BrowserConfig;
use crate::connpool::sample_server_lifetime;
use crate::scratch::{ScratchRequest, VisitScratch, VisitTimes};
use crate::session::{ResumptionCache, UserSession};
use crate::visit::PageVisit;
use netsim_cost::loss_retransmit_extra_micros;
use netsim_fetch::partition_for_planned;
use netsim_h2::reuse::admits;
use netsim_h2::{CloseReason, Connection, ConnectionState};
use netsim_types::profile::Stage;
use netsim_types::stage;
use netsim_types::{ConnectionId, Duration, IdAllocator, Instant, Origin, SimClock, SimRng};
use netsim_web::{PlannedRequest, WebEnvironment, Website};
use std::sync::Arc;

/// A browser instance. One instance is used per page visit (caches are reset
/// between visits, per the measurement methodology); identifier allocators
/// are seeded externally so ids stay unique across a whole crawl.
#[derive(Debug)]
pub struct Browser {
    config: BrowserConfig,
    connection_ids: IdAllocator,
    request_ids: IdAllocator,
}

impl Browser {
    /// A browser with id allocators starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unusable (zero bandwidth) — see
    /// [`BrowserConfig::assert_valid`].
    pub fn new(config: BrowserConfig) -> Self {
        config.assert_valid();
        Browser { config, connection_ids: IdAllocator::new(), request_ids: IdAllocator::new() }
    }

    /// A browser whose connection/request ids start at `id_base` (used by the
    /// crawler to keep ids globally unique across parallel visits).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unusable (zero bandwidth) — see
    /// [`BrowserConfig::assert_valid`].
    pub fn with_id_base(config: BrowserConfig, id_base: u64) -> Self {
        config.assert_valid();
        Browser {
            config,
            connection_ids: IdAllocator::starting_at(id_base),
            request_ids: IdAllocator::starting_at(id_base),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Load one site's landing page against the given environment.
    ///
    /// `clock` supplies (and is advanced past) the simulated wall-clock time
    /// of the visit; `rng` drives connection-lifetime sampling.
    ///
    /// This is the compatibility entry point: it runs the visit through a
    /// throwaway [`VisitScratch`] and materialises an owned [`PageVisit`].
    /// Workers that process many visits should hold one scratch and call
    /// [`Browser::load_page_into`] instead.
    pub fn load_page(
        &mut self,
        env: &WebEnvironment,
        site: &Website,
        clock: &mut SimClock,
        rng: &mut SimRng,
    ) -> PageVisit {
        let mut scratch = VisitScratch::new();
        let times = self.load_page_into(&mut scratch, env, site, clock, rng);
        scratch.to_page_visit(site, times)
    }

    /// Load one site's landing page into a reusable [`VisitScratch`].
    ///
    /// Behaviourally identical to [`Browser::load_page`] — same connections,
    /// requests, ids and clock advancement — but all visit state lands in
    /// `scratch`'s recycled buffers. In the steady state this performs zero
    /// heap allocations per visit.
    pub fn load_page_into(
        &mut self,
        scratch: &mut VisitScratch,
        env: &WebEnvironment,
        site: &Website,
        clock: &mut SimClock,
        rng: &mut SimRng,
    ) -> VisitTimes {
        let started_at = clock.now();
        // Caches are reset between visits (only in-visit DNS reuse happens);
        // the scratch flushes rather than drops the resolver.
        scratch.begin_visit(self.config.resolver);

        // The fault stream is a label fork of the visit rng: it derives from
        // the stored seed (never the stream position), so the visit rng's own
        // draw sequence — consumed only by the duration pass below — is
        // untouched whether or not faults fire.
        let mut fault_rng = rng.fork("fault");
        let finished_at = self.walk_plan(scratch, env, site, clock, started_at, None, &mut fault_rng);

        // Assign connection end times according to the duration model, one
        // draw per connection through the shared sampler (the session pool's
        // absorb uses the same one, so both paths stay distribution- and
        // RNG-order-identical). `KeepOpen` draws nothing and closes nothing.
        for connection in scratch.connections.iter_mut() {
            if let Some(closed_at) =
                sample_server_lifetime(rng, &self.config.duration_model, connection.established_at)
            {
                connection.close(closed_at);
            }
        }

        self.finish_page(scratch, started_at, finished_at, 0)
    }

    /// Load one page of a *multi-page user session*. Differs from the
    /// single-visit entry point ([`Browser::load_page_into`]) in what stays
    /// warm between calls:
    ///
    /// * the session's [`crate::ConnectionPool`] lends its surviving
    ///   connections to the page up front and absorbs the page's live set
    ///   afterwards (idle-timeout / server-lifetime closes happen at the
    ///   lend, LRU cap eviction at the absorb — the single-visit post-hoc
    ///   duration-model pass does not run, the pool owns lifetimes),
    /// * handshakes against origins the session already visited run at the
    ///   TLS-resumption tariff, and every handshake mints a ticket,
    /// * the DNS cache persists across pages (flushed only on the session's
    ///   first page; TTL-expired lines are swept at each page boundary),
    /// * the cold-cwnd penalty is charged only to connections *opened by
    ///   this page* — a pooled connection's window is already grown.
    ///
    /// Pool lifecycle events are accounted in the session's
    /// [`crate::PoolLifecycleStats`].
    pub fn load_session_page_into(
        &mut self,
        scratch: &mut VisitScratch,
        session: &mut UserSession,
        env: &WebEnvironment,
        site: &Website,
        clock: &mut SimClock,
        rng: &mut SimRng,
    ) -> VisitTimes {
        let started_at = clock.now();
        let first_page = session.pages_loaded() == 0;
        scratch.begin_session_page(self.config.resolver, first_page, started_at);

        // Per-page fault stream (see `load_page_into`); the pool's
        // dead-on-reuse draws come first (insertion order), then the
        // per-request draws of the plan walk.
        let mut fault_rng = rng.fork("fault");
        let (warm, dead) = {
            let (connections, closed) = scratch.connections_and_closed_mut();
            let dead =
                session.pool_mut().lend(started_at, connections, closed, &self.config.faults, &mut fault_rng);
            (connections.len(), dead)
        };
        scratch.timeline.dead_on_reuse += dead;
        scratch.timeline.faults_injected += dead;

        let finished_at = self.walk_plan(
            scratch,
            env,
            site,
            clock,
            started_at,
            Some(session.tickets_mut()),
            &mut fault_rng,
        );
        let times = self.finish_page(scratch, started_at, finished_at, warm);

        let (connections, closed) = scratch.connections_and_closed_mut();
        session.pool_mut().absorb(clock.now(), connections, closed, rng, &self.config.duration_model);
        session.note_page_loaded();
        times
    }

    /// Walk the site's plan, fetching every planned request until the page
    /// timeout. Returns when the last response will have finished
    /// transferring.
    #[allow(clippy::too_many_arguments)]
    fn walk_plan(
        &mut self,
        scratch: &mut VisitScratch,
        env: &WebEnvironment,
        site: &Website,
        clock: &mut SimClock,
        started_at: Instant,
        mut tickets: Option<&mut ResumptionCache>,
        fault_rng: &mut SimRng,
    ) -> Instant {
        let deadline = started_at + self.config.page_timeout;
        let document_origin = Origin::https(site.domain);
        let rtt = Duration::from_millis(self.config.base_rtt_ms);
        let mut finished_at = started_at;
        for (plan_index, planned) in site.plan.iter().enumerate() {
            if clock.now() > deadline {
                break;
            }
            let outcome = self.fetch_one(
                scratch,
                env,
                &document_origin,
                planned,
                plan_index,
                clock,
                rtt,
                tickets.as_deref_mut(),
                fault_rng,
            );
            if let Some(entry) = outcome {
                stage!(Stage::TransferClock);
                finished_at =
                    finished_at.max(entry.started_at + rtt + transfer_time(entry.body_size, &self.config));
                scratch.timeline.requests += 1;
                scratch.timeline.body_octets += entry.body_size;
                scratch.requests.push(entry);
            }
        }
        finished_at
    }

    /// Fold the page-level costs into the visit's timeline.
    /// `first_new` is the index of the first connection this page opened
    /// itself — connections before it were lent warm by a session pool and
    /// already paid their slow-start.
    fn finish_page(
        &mut self,
        scratch: &mut VisitScratch,
        started_at: Instant,
        finished_at: Instant,
        first_new: usize,
    ) -> VisitTimes {
        stage!(Stage::CostFold);
        // Cold-window penalty: every opened connection pays the slow-start
        // rounds its delivered bytes needed (a reused connection would have
        // carried them on an already-grown window).
        for connection in &scratch.connections[first_new..] {
            scratch.timeline.cold_cwnd_rtts += u64::from(connection.cold_cwnd_rtts());
        }
        scratch.timeline.plt_millis = (finished_at - started_at).as_millis();
        let timeline = &scratch.timeline;
        // Only an opened connection can resume; only a recursive walk
        // (injected failures count as one) can fail; every walk asks the
        // authority exactly once unless the fault layer failed it first.
        debug_assert!(timeline.resumed_handshakes <= timeline.connections_opened, "{timeline:?}");
        debug_assert!(timeline.dns_failures <= timeline.dns_recursive_walks, "{timeline:?}");
        debug_assert!(timeline.dns_authority_queries <= timeline.dns_recursive_walks, "{timeline:?}");
        debug_assert!(
            timeline.dns_recursive_walks <= timeline.dns_authority_queries + timeline.faults_injected,
            "{timeline:?}"
        );
        VisitTimes { started_at, finished_at }
    }

    /// Fetch a single planned request, reusing or opening connections, with
    /// the retry policy wrapped around the injected-fault processes.
    ///
    /// The first attempt always runs; further attempts run only after an
    /// *injected* fault (DNS, TLS dial, mid-transfer reset) failed the
    /// previous one, each charged the policy's exponential backoff on the
    /// virtual clock first. Genuine failures (an unresolvable name, a
    /// refused stream) keep the historical silent-skip behaviour — they are
    /// not retried and not counted as degraded. When attempts or the stage
    /// budget run out, the resource is abandoned and counted in the visit's
    /// [`crate::fault::VisitOutcome`].
    #[allow(clippy::too_many_arguments)]
    fn fetch_one(
        &mut self,
        scratch: &mut VisitScratch,
        env: &WebEnvironment,
        document_origin: &Origin,
        planned: &PlannedRequest,
        plan_index: usize,
        clock: &mut SimClock,
        rtt: Duration,
        mut tickets: Option<&mut ResumptionCache>,
        fault_rng: &mut SimRng,
    ) -> Option<ScratchRequest> {
        let mut backoff_spent = Duration::ZERO;
        for attempt in 1..=self.config.retry.attempts() {
            if attempt > 1 {
                let wait = self.config.retry.backoff_before(attempt, fault_rng);
                if backoff_spent + wait > self.config.retry.stage_budget {
                    // The stage budget is burst: give up on the resource
                    // instead of waiting longer than the policy allows.
                    break;
                }
                backoff_spent = backoff_spent + wait;
                clock.advance(wait);
                scratch.timeline.retries += 1;
                scratch.timeline.retry_backoff_millis += wait.as_millis();
            }
            match self.fetch_attempt(
                scratch,
                env,
                document_origin,
                planned,
                plan_index,
                clock,
                rtt,
                tickets.as_deref_mut(),
                fault_rng,
            ) {
                FetchAttempt::Success(entry) => return Some(entry),
                FetchAttempt::Skip => return None,
                FetchAttempt::Fault => {}
            }
        }
        // Retries exhausted: degrade gracefully — the page renders without
        // this resource, and the outcome records it.
        scratch.timeline.failed_resources += 1;
        None
    }

    /// One fetch attempt (the pre-fault fast path, plus the per-attempt
    /// fault draws). Draw order on the fault stream, per attempt: the DNS
    /// draw before the resolver runs; the TLS dial draw (plus the hedge draw
    /// when hedged dials race and the primary failed) when no live session
    /// qualified; the mid-transfer reset draw after the request is sent; the
    /// GOAWAY draw after the response completes (skipped if the reset fired).
    /// Zero-rate processes consume no randomness at all.
    #[allow(clippy::too_many_arguments)]
    fn fetch_attempt(
        &mut self,
        scratch: &mut VisitScratch,
        env: &WebEnvironment,
        document_origin: &Origin,
        planned: &PlannedRequest,
        plan_index: usize,
        clock: &mut SimClock,
        rtt: Duration,
        tickets: Option<&mut ResumptionCache>,
        fault_rng: &mut SimRng,
    ) -> FetchAttempt {
        let target_origin = Origin::https(planned.domain);
        // The session-pool key ("privacy mode"): which partition the request
        // lands in. Policies that pool credentials still see the partition
        // here — they ignore it inside the RFC 7540 check instead
        // (`ReusePolicy::follow_fetch_credentials`), like the paper's patch.
        let credentialed =
            partition_for_planned(&target_origin, document_origin, planned.destination, planned.anonymous)
                .is_credentialed();

        // Small per-request pacing so establishment order is well defined.
        clock.advance(Duration::from_millis(2));

        // 1. Direct session-pool hit: same origin, same credentials partition.
        let mut chosen: Option<usize> = None;
        {
            stage!(Stage::ReuseScan);
            for (index, connection) in scratch.connections.iter().enumerate() {
                if connection.initial_origin == target_origin
                    && connection.credentialed == credentialed
                    && connection.can_open_stream()
                    && !connection.excluded_domains.contains(&planned.domain)
                {
                    chosen = Some(index);
                    break;
                }
            }
        }

        // 2. Coalescing: resolve the host and run the RFC 7540 §9.1.1 check
        //    against every live session.
        let target_ip = {
            stage!(Stage::DnsWalk);
            // Injected SERVFAIL/lost-query: drawn before the resolver runs,
            // so a faulted attempt performs no authority walk (and caches
            // nothing) — exactly a query that never came back.
            let injected = fault_rng.chance_ppm(self.config.faults.dns_failure_ppm);
            let resolver = scratch.resolver_mut();
            let stats_before = resolver.stats();
            // Extract what the rest of the visit needs while the answer
            // borrow is live.
            let outcome = if injected {
                resolver.note_injected_failure();
                Err(true)
            } else {
                match resolver.resolve(&env.authority, &planned.domain, clock.now()) {
                    Ok(answer) => Ok(answer.primary_address()),
                    Err(_) => Err(false),
                }
            };
            let stats_after = resolver.stats();
            scratch.timeline.dns_cache_hits += stats_after.cache_hits - stats_before.cache_hits;
            scratch.timeline.dns_recursive_walks += stats_after.cache_misses - stats_before.cache_misses;
            scratch.timeline.dns_authority_queries +=
                stats_after.authority_queries - stats_before.authority_queries;
            scratch.timeline.dns_failures += stats_after.failures - stats_before.failures;
            if injected {
                scratch.timeline.faults_injected += 1;
            }
            match outcome {
                Ok(Some(ip)) => ip,
                Ok(None) => return FetchAttempt::Skip,
                // An injected failure retries; a genuinely unresolvable name
                // keeps the historical silent skip.
                Err(was_injected) => {
                    return if was_injected { FetchAttempt::Fault } else { FetchAttempt::Skip };
                }
            }
        };

        if chosen.is_none() {
            stage!(Stage::ReuseScan);
            // The first session in pool order that is still open and the
            // predicate admits.
            let now = clock.now();
            chosen = scratch.connections.iter().position(|connection| {
                connection.is_open_at(now)
                    && admits(connection, &target_origin, target_ip, credentialed, &self.config.reuse_policy)
            });
        }

        // 3. Open a new session when nothing qualified.
        let index = match chosen {
            Some(index) => {
                scratch.timeline.connections_reused += 1;
                index
            }
            None => {
                stage!(Stage::Handshake);
                let certificate = Arc::clone(
                    env.certificate_arc_for(&planned.domain)
                        .unwrap_or_else(|| panic!("population has no certificate for {}", planned.domain)),
                );
                // A session that already shook hands with this origin holds a
                // still-fresh ticket and resumes; without a ticket cache the
                // configured handshake applies unchanged.
                let handshake = match &tickets {
                    Some(tickets) if tickets.has(&target_origin, clock.now()) => {
                        self.config.handshake.resumed()
                    }
                    _ => self.config.handshake,
                };
                let setup_rtts = u64::from(handshake.setup_rtts());
                // Loss retransmissions are priced exactly (in microseconds)
                // and summed per visit in the timeline; the integer-millisecond
                // clock is charged each time the sum crosses another whole
                // millisecond. Rounding therefore happens once per visit —
                // truncating per connection let every sub-millisecond setup
                // penalty (all of broadband's) ride for free. A dial that
                // fails below still travelled its round trips, so the sum
                // advances either way.
                let loss_micros = loss_retransmit_extra_micros(rtt, setup_rtts, self.config.loss_ppm);
                let charged_ms = scratch.timeline.loss_retransmit_micros / 1_000;
                scratch.timeline.loss_retransmit_micros += loss_micros;
                let loss_ms = scratch.timeline.loss_retransmit_micros / 1_000 - charged_ms;
                let setup = handshake.setup_latency(rtt) + Duration::from_millis(loss_ms);
                clock.advance(setup);
                scratch.timeline.handshake_rtts += setup_rtts;
                scratch.timeline.handshake_millis += setup.as_millis();
                // Injected TLS dial failure. Under hedged dials a second
                // attempt races the first (drawn only when the primary
                // failed): the dial fails only if both racers fail, and it
                // pays no retry backoff — the hedge was already in flight.
                let hedged = self.config.retry.hedged_dials;
                let primary_failed = fault_rng.chance_ppm(self.config.faults.tls_failure_ppm);
                let dial_failed = if hedged && primary_failed {
                    fault_rng.chance_ppm(self.config.faults.tls_failure_ppm)
                } else {
                    primary_failed
                };
                if dial_failed {
                    // The dial burned its full setup latency (charged above)
                    // but only the client's first flight made it to the wire.
                    scratch.timeline.faults_injected += 1;
                    scratch.timeline.handshake_octets += handshake.aborted_handshake_octets();
                    if hedged {
                        scratch.timeline.hedged_dials += 1;
                        scratch.timeline.handshake_octets += handshake.aborted_handshake_octets();
                    }
                    return FetchAttempt::Fault;
                }
                scratch.timeline.connections_opened += 1;
                scratch.timeline.handshake_octets += handshake.handshake_octets();
                if handshake.session_resumption {
                    scratch.timeline.resumed_handshakes += 1;
                }
                if hedged {
                    // The losing racer completed (or aborted) its own
                    // handshake on the wire before being discarded.
                    scratch.timeline.hedged_dials += 1;
                    scratch.timeline.handshake_octets += handshake.handshake_octets();
                }
                // Every completed handshake (full or resumed) mints a fresh
                // ticket for the origin.
                if let Some(tickets) = tickets {
                    tickets.insert(target_origin, clock.now());
                }
                let id: ConnectionId = self.connection_ids.issue_as();
                let mut connection = Connection::establish(
                    id,
                    target_origin,
                    target_ip,
                    certificate,
                    credentialed,
                    clock.now(),
                );
                // Servers announce an origin set exactly where the client
                // honours one (the ORIGIN-frame mitigation).
                if self.config.reuse_policy.honor_origin_frame {
                    let certificate = Arc::clone(&connection.certificate);
                    connection.receive_origin_set(certificate.dns_names().copied());
                }
                scratch.connections.push(connection);
                scratch.connections.len() - 1
            }
        };

        let encode_guard = netsim_types::profile::enter(Stage::RequestEncode);
        let connection = &mut scratch.connections[index];
        if connection.send_request().is_err() {
            return FetchAttempt::Skip;
        }
        // Injected mid-transfer reset: the request went out but the transport
        // died before the response completed. The connection is torn down —
        // the retry (if any) must redial — and the attempt fails.
        if fault_rng.chance_ppm(self.config.faults.reset_ppm) {
            connection.close_with_reason(clock.now(), CloseReason::TransportReset);
            drop(encode_guard);
            scratch.timeline.faults_injected += 1;
            return FetchAttempt::Fault;
        }
        let status = 200;
        connection.complete_response(&planned.domain, status, planned.body_size);
        let connection_id = connection.id;
        // Injected server GOAWAY: the response that just completed was the
        // connection's last — the server is draining it. The request
        // succeeds; the session merely stops accepting new streams, so later
        // requests fall through to other sessions or fresh dials.
        if fault_rng.chance_ppm(self.config.faults.goaway_ppm) && connection.state == ConnectionState::Open {
            connection.receive_goaway();
            scratch.timeline.faults_injected += 1;
            scratch.timeline.goaways_received += 1;
        }
        drop(encode_guard);
        if status != 200 {
            scratch.any_non_ok = true;
        }

        FetchAttempt::Success(ScratchRequest {
            id: self.request_ids.issue_as(),
            connection: connection_id,
            domain: planned.domain,
            plan_index: plan_index as u32,
            destination: planned.destination,
            credentialed,
            status,
            body_size: planned.body_size,
            started_at: clock.now(),
        })
    }
}

/// How one fetch attempt ended: a logged request, a permanent silent skip
/// (the historical non-fault failure modes — unresolvable name, addressless
/// answer, refused stream), or an injected fault the retry policy may spend
/// another attempt on.
enum FetchAttempt {
    Success(ScratchRequest),
    Skip,
    Fault,
}

/// Transfer-time model: body size over configured bandwidth, charged in
/// whole milliseconds rounded *up* — any non-empty body occupies the link for
/// at least one millisecond of virtual time. (Truncating division would let
/// every body smaller than the per-millisecond bandwidth — analytics
/// beacons, favicons — transfer in zero time, deflating page-load times and
/// the redundancy-tax tables built on them.) Zero bandwidth is rejected at
/// [`BrowserConfig`] construction, so the division is always well-defined.
fn transfer_time(body_size: u64, config: &BrowserConfig) -> Duration {
    Duration::from_millis(body_size.div_ceil(config.bandwidth_bytes_per_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::Crawler;
    use netsim_h2::reuse::evaluate_set;
    use netsim_h2::ReuseRefusal;
    use netsim_types::DomainName;
    use netsim_web::{PopulationBuilder, PopulationProfile};

    fn environment(sites: usize, seed: u64) -> WebEnvironment {
        PopulationBuilder::new(PopulationProfile::alexa(), sites, seed).build()
    }

    fn visit(env: &WebEnvironment, site_index: usize, config: BrowserConfig) -> PageVisit {
        let mut browser = Browser::new(config);
        let mut clock = SimClock::new();
        let mut rng = SimRng::new(99);
        browser.load_page(env, &env.sites[site_index], &mut clock, &mut rng)
    }

    #[test]
    fn every_request_rides_some_connection() {
        let env = environment(20, 1);
        for index in 0..env.sites.len() {
            let v = visit(&env, index, BrowserConfig::alexa_measurement());
            assert_eq!(v.request_count(), env.sites[index].plan.len(), "site {}", env.sites[index].domain);
            assert!(v.connection_count() >= 1);
            assert!(v.connection_count() <= v.request_count());
            for request in &v.requests {
                assert!(v.connection(request.connection).is_some());
            }
        }
    }

    #[test]
    fn same_origin_requests_share_a_connection() {
        let env = environment(10, 2);
        // Pick a site with several first-party resources (they all exist).
        let v = visit(&env, 0, BrowserConfig::alexa_measurement());
        let landing = &env.sites[0].domain;
        let landing_conns: std::collections::BTreeSet<_> = v
            .requests
            .iter()
            .filter(|r| &r.domain == landing && r.credentialed)
            .map(|r| r.connection)
            .collect();
        assert_eq!(landing_conns.len(), 1, "credentialed same-origin requests must share one session");
    }

    #[test]
    fn visits_are_deterministic() {
        let env = environment(5, 3);
        let a = visit(&env, 2, BrowserConfig::alexa_measurement());
        let b = visit(&env, 2, BrowserConfig::alexa_measurement());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.connection_count(), b.connection_count());
    }

    #[test]
    fn ignoring_fetch_credentials_never_increases_connections() {
        let env = environment(40, 4);
        for index in 0..env.sites.len() {
            let strict = visit(&env, index, BrowserConfig::alexa_measurement());
            let patched = visit(&env, index, BrowserConfig::alexa_without_fetch());
            assert!(
                patched.connection_count() <= strict.connection_count(),
                "site {}: patched {} > strict {}",
                env.sites[index].domain,
                patched.connection_count(),
                strict.connection_count()
            );
        }
    }

    #[test]
    fn analytics_chain_opens_a_redundant_connection_for_the_ip_cause() {
        // Find a site embedding google-analytics; GTM and GA share a
        // certificate but are unsynchronized-balanced, so with high
        // probability across sites at least one visit splits them.
        let env = environment(60, 5);
        let gtm = DomainName::literal("www.googletagmanager.com");
        let ga = DomainName::literal("www.google-analytics.com");
        let mut split_seen = false;
        for (index, site) in env.sites.iter().enumerate() {
            if !site.plan.iter().any(|request| request.domain == ga) {
                continue;
            }
            // Spread visits across load-balancing epochs like a real crawl
            // does; whether the two domains' answers overlap varies over time
            // (paper, Figure 3).
            let mut browser = Browser::new(BrowserConfig::alexa_measurement());
            let mut clock = SimClock::starting_at(Instant::EPOCH + Duration::from_mins(31 * index as u64));
            let mut rng = SimRng::new(99);
            let v = browser.load_page(&env, site, &mut clock, &mut rng);
            let gtm_conn: Vec<_> =
                v.requests.iter().filter(|r| r.domain == gtm).map(|r| r.connection).collect();
            let ga_conn: Vec<_> = v
                .requests
                .iter()
                .filter(|r| r.domain == ga && r.credentialed)
                .map(|r| r.connection)
                .collect();
            if gtm_conn.is_empty() || ga_conn.is_empty() {
                continue;
            }
            if gtm_conn[0] != ga_conn[0] {
                split_seen = true;
                break;
            }
        }
        assert!(split_seen, "expected at least one GTM/GA connection split across the sample");
    }

    #[test]
    fn each_connection_opens_only_after_every_open_candidate_is_refused() {
        // The analytics chain: GTM and GA share a certificate but resolve
        // apart, so GA's connection opens only after the predicate refuses
        // GTM's for the IP cause. Every connection a visit opened must have
        // found each earlier connection open at its establishment refused by
        // the predicate (else the scan would have reused it). Keeping
        // connections open leaves each one, after the visit, in the state
        // every scan saw.
        let env = environment(60, 5);
        let ga = DomainName::literal("www.google-analytics.com");
        let config = BrowserConfig {
            duration_model: crate::config::ConnectionDurationModel::KeepOpen,
            ..BrowserConfig::alexa_measurement()
        };
        let mut scratch = VisitScratch::new();
        let mut ip_refusals = 0;
        for (index, site) in env.sites.iter().enumerate() {
            if !site.plan.iter().any(|request| request.domain == ga) {
                continue;
            }
            let mut browser = Browser::new(config.clone());
            let mut clock = SimClock::starting_at(Instant::EPOCH + Duration::from_mins(31 * index as u64));
            let mut rng = SimRng::new(99);
            browser.load_page_into(&mut scratch, &env, site, &mut clock, &mut rng);
            let connections = scratch.connections();
            for (opened_index, opened) in connections.iter().enumerate() {
                for candidate in &connections[..opened_index] {
                    if !candidate.is_open_at(opened.established_at) {
                        continue;
                    }
                    let reasons = evaluate_set(
                        candidate,
                        &opened.initial_origin,
                        opened.remote_ip,
                        opened.credentialed,
                        &config.reuse_policy,
                    );
                    assert!(
                        !reasons.is_empty(),
                        "site {}: {} opened although {} qualified",
                        site.domain,
                        opened.id,
                        candidate.id
                    );
                    ip_refusals += usize::from(reasons.contains(ReuseRefusal::IpMismatch));
                }
            }
        }
        assert!(ip_refusals > 0, "expected the analytics chain to refuse a candidate for the IP cause");
    }

    #[test]
    fn anonymous_subresources_get_their_own_connection_under_fetch() {
        let env = environment(80, 6);
        let ga = DomainName::literal("www.google-analytics.com");
        let mut cred_split_seen = false;
        for (index, site) in env.sites.iter().enumerate() {
            if !site.plan.iter().any(|request| request.domain == ga) {
                continue;
            }
            let v = visit(&env, index, BrowserConfig::alexa_measurement());
            let credentialed: std::collections::BTreeSet<_> = v
                .requests
                .iter()
                .filter(|r| r.domain == ga && r.credentialed)
                .map(|r| r.connection)
                .collect();
            let anonymous: std::collections::BTreeSet<_> = v
                .requests
                .iter()
                .filter(|r| r.domain == ga && !r.credentialed)
                .map(|r| r.connection)
                .collect();
            if !credentialed.is_empty() && !anonymous.is_empty() {
                assert!(credentialed.is_disjoint(&anonymous), "partitions must not share sessions");
                cred_split_seen = true;
                break;
            }
        }
        assert!(cred_split_seen, "expected an anonymous beacon alongside credentialed analytics requests");
    }

    #[test]
    fn origin_frame_deployment_never_increases_connections() {
        let env = environment(40, 12);
        let mut improved_somewhere = false;
        for index in 0..env.sites.len() {
            let chromium = visit(&env, index, BrowserConfig::alexa_measurement());
            let with_frames = visit(&env, index, BrowserConfig::with_origin_frames());
            assert!(
                with_frames.connection_count() <= chromium.connection_count(),
                "site {}: ORIGIN frames must not add connections",
                env.sites[index].domain
            );
            if with_frames.connection_count() < chromium.connection_count() {
                improved_somewhere = true;
            }
        }
        assert!(improved_somewhere, "ORIGIN-frame adoption should coalesce at least one site's connections");
    }

    #[test]
    fn connection_lifetimes_follow_the_duration_model() {
        let env = environment(30, 7);
        let mut closed = 0usize;
        let mut total = 0usize;
        for index in 0..env.sites.len() {
            let v = visit(&env, index, BrowserConfig::alexa_measurement());
            for connection in &v.connections {
                total += 1;
                if let Some(lifetime) = connection.lifetime() {
                    closed += 1;
                    assert!(lifetime >= Duration::from_secs(61));
                    assert!(lifetime <= Duration::from_secs(244));
                }
            }
        }
        assert!(total > 0);
        // ~3.5 % close early; with a few hundred connections expect under 15 %.
        assert!((closed as f64) < total as f64 * 0.15, "closed {closed} of {total}");
    }

    #[test]
    fn loader_duration_pass_matches_the_pool_sampler() {
        // The dedup regression: the loader's post-hoc duration pass used to
        // re-implement the server-lifetime draw inline. Both call sites now
        // share `connpool::sample_server_lifetime`; from the same seed, a
        // visit's recorded teardown instants must be exactly what replaying
        // the shared sampler over its connections (in establishment order)
        // produces — same draws, same order, same closes.
        let env = environment(30, 7);
        let config = BrowserConfig::alexa_measurement();
        let mut any_closed = false;
        for index in 0..env.sites.len() {
            let mut browser = Browser::new(config.clone());
            let mut clock = SimClock::new();
            let mut rng = SimRng::new(99);
            let visit = browser.load_page(&env, &env.sites[index], &mut clock, &mut rng);

            // The visit rng is consumed only by the duration pass, so a
            // fresh same-seed rng replays it draw for draw.
            let mut replay = SimRng::new(99);
            for connection in &visit.connections {
                let expected =
                    sample_server_lifetime(&mut replay, &config.duration_model, connection.established_at);
                assert_eq!(connection.closed_at, expected, "site {index}");
                any_closed |= expected.is_some();
            }
        }
        assert!(any_closed, "the model must close at least one connection across the sample");
    }

    #[test]
    fn keep_open_model_never_closes() {
        let env = environment(10, 8);
        let v = visit(&env, 1, BrowserConfig::http_archive_crawler());
        assert!(v.connections.iter().all(|c| c.closed_at.is_none()));
    }

    #[test]
    fn connections_share_the_stores_certificate_allocation() {
        // The SAN-clone fix: presenting a certificate hands the connection a
        // shared handle into the environment's store — never a copy of the
        // SAN list. Every connection's certificate must be pointer-identical
        // to the store's.
        let env = environment(15, 9);
        for index in 0..env.sites.len() {
            let v = visit(&env, index, BrowserConfig::alexa_measurement());
            for connection in &v.connections {
                let stored = env
                    .certificate_arc_for(connection.initial_domain())
                    .expect("store has a certificate for every contacted domain");
                assert!(
                    std::sync::Arc::ptr_eq(&connection.certificate, stored),
                    "connection to {} cloned its certificate instead of sharing it",
                    connection.initial_domain()
                );
            }
        }
    }

    #[test]
    fn transfer_time_rounds_up_to_the_millisecond() {
        // The free-ride bug: truncating division let every body below the
        // per-millisecond bandwidth transfer in zero virtual time. Ceiling
        // division charges a sub-unit body one millisecond and leaves exact
        // multiples unchanged.
        let config = BrowserConfig::default();
        assert_eq!(config.bandwidth_bytes_per_ms, 6_000);
        assert_eq!(transfer_time(0, &config), Duration::ZERO);
        assert_eq!(transfer_time(1, &config), Duration::from_millis(1));
        assert_eq!(transfer_time(5_999, &config), Duration::from_millis(1));
        assert_eq!(transfer_time(6_000, &config), Duration::from_millis(1));
        assert_eq!(transfer_time(6_001, &config), Duration::from_millis(2));
        assert_eq!(transfer_time(12_000, &config), Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "bandwidth_bytes_per_ms is zero")]
    fn browser_rejects_zero_bandwidth_at_construction() {
        let config = BrowserConfig { bandwidth_bytes_per_ms: 0, ..BrowserConfig::default() };
        let _ = Browser::new(config);
    }

    #[test]
    fn session_pages_reuse_pooled_connections_and_resume_handshakes() {
        use crate::connpool::PoolConfig;
        use crate::session::UserSession;

        let env = environment(8, 21);
        let config = BrowserConfig::alexa_measurement();
        let mut scratch = VisitScratch::new();
        // A roomy pool: no capacity eviction, so the only page-2 opens are
        // replacements for server-churned connections (ticketed origins).
        let pool = PoolConfig { max_connections: 64, idle_timeout: Duration::from_secs(600) };
        let mut session = UserSession::new(pool);
        let mut browser = Browser::new(config);
        let mut clock = SimClock::new();
        let mut rng = SimRng::new(99);

        // Page 1: everything is cold — no resumed handshakes, nothing lent.
        browser.load_session_page_into(&mut scratch, &mut session, &env, &env.sites[0], &mut clock, &mut rng);
        let cold = *scratch.timeline();
        assert_eq!(cold.resumed_handshakes, 0);
        assert!(cold.connections_opened > 0);
        assert!(!session.tickets_mut().is_empty(), "every handshake mints a ticket");
        assert!(!session.pool().is_empty(), "open connections are pooled at page end");

        // Page 2, same site a few seconds later: pooled connections carry
        // requests (cross-page reuse) and any connection the page still has
        // to open against a known origin resumes.
        clock.advance(Duration::from_secs(5));
        browser.load_session_page_into(&mut scratch, &mut session, &env, &env.sites[0], &mut clock, &mut rng);
        let warm = *scratch.timeline();
        assert!(session.pool().stats().lent > 0, "page 2 must receive warm connections");
        assert!(
            warm.connections_opened < cold.connections_opened,
            "a warm revisit must open fewer connections than the cold visit ({} vs {})",
            warm.connections_opened,
            cold.connections_opened
        );
        assert_eq!(
            warm.resumed_handshakes, warm.connections_opened,
            "every page-2 handshake targets a ticketed origin and resumes"
        );
        assert_eq!(session.pages_loaded(), 2);

        // Ending the session closes every pooled connection.
        session.end(&mut scratch, clock.now());
        assert!(session.pool().is_empty());
    }

    #[test]
    fn scratch_and_legacy_paths_produce_identical_visits() {
        // `load_page` is defined as materialising the scratch fast path; an
        // explicit reusable scratch must reproduce it byte for byte, across
        // several sites sharing one scratch.
        let env = environment(12, 10);
        let crawler = Crawler::new("compat", BrowserConfig::alexa_measurement(), 5);
        let mut scratch = VisitScratch::new();
        for index in 0..env.sites.len() {
            let legacy = crawler.visit_site(&env, index);
            let times = crawler.visit_site_into(&mut scratch, &env, index);
            let fast = scratch.to_page_visit(&env.sites[index], times);
            assert_eq!(legacy.requests, fast.requests);
            assert_eq!(legacy.connections, fast.connections);
            assert_eq!(legacy.started_at, fast.started_at);
            assert_eq!(legacy.finished_at, fast.finished_at);
        }
    }
}
