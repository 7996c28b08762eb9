//! The per-visit cost timeline: where one page load's time and bytes went.
//!
//! [`VisitTimeline`] is the contract between the browser's zero-allocation
//! visit fast path and the cost model: a fixed-size block of plain integer
//! counters that the loader bumps as the visit unfolds. It is `Copy`, owns no
//! heap memory and is reset (not reallocated) between visits, so accounting
//! rides the hot loop without disturbing the steady-state **zero heap
//! allocations** guarantee pinned by `crates/browser/tests/zero_alloc.rs`.
//!
//! Counts are link-independent (round trips, octets, queries); milliseconds
//! that the simulated clock actually charged during the visit (handshake
//! latency including loss retransmissions, and the resulting page-load time)
//! are recorded alongside, because per-connection integer rounding makes them
//! impossible to reproduce exactly from the totals afterwards.

netsim_types::counters! {
    merge = absorb;
    /// Fixed-size per-visit cost counters. All fields are totals over one page
    /// visit; the aggregating side ([`crate::CostTotals`]) sums them across
    /// visits and shards with the generated `absorb`.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct VisitTimeline {
        /// DNS lookups answered from the resolver cache (free).
        pub dns_cache_hits: u64,
        /// DNS lookups that required a recursive walk to the authority.
        pub dns_recursive_walks: u64,
        /// Authority queries those walks performed: one per walk, none for a
        /// walk the fault layer failed before it reached the authority.
        pub dns_authority_queries: u64,
        /// Resolutions that failed (NXDOMAIN, empty answers, injected
        /// failures).
        pub dns_failures: u64,
        /// Connections the visit had to open.
        pub connections_opened: u64,
        /// Requests that rode an existing connection (pool hit or §9.1.1
        /// coalescing) instead of opening a new one.
        pub connections_reused: u64,
        /// Round trips spent in TCP + TLS handshakes across all opened
        /// connections (before loss retransmissions).
        pub handshake_rtts: u64,
        /// Octets spent on handshake frames (SYNs, hellos, certificate chains).
        pub handshake_octets: u64,
        /// Milliseconds the simulated clock actually charged for connection
        /// setup, including the loss-retransmission penalty.
        pub handshake_millis: u64,
        /// Exact expected loss-retransmission latency across the visit's
        /// connection setups, in **microseconds**. The loader charges the
        /// clock each time this running sum crosses another whole
        /// millisecond, so rounding happens once per visit: the visit's
        /// charged loss milliseconds are `loss_retransmit_micros / 1000`.
        pub loss_retransmit_micros: u64,
        /// Opened connections charged under the handshake config's
        /// session-resumption discount (fewer round trips, no certificate-chain
        /// flight). The model applies the discount per configuration, not per
        /// origin cache, so this audits *which tariff* the RTT/octet sums were
        /// computed under; the measurement presets reset caches between visits
        /// and therefore always record zero here.
        pub resumed_handshakes: u64,
        /// Extra round trips spent growing cold congestion windows: each opened
        /// connection pays the slow-start rounds its delivered bytes needed.
        pub cold_cwnd_rtts: u64,
        /// Requests the visit sent.
        pub requests: u64,
        /// Response body octets the visit received.
        pub body_octets: u64,
        /// Page-load time of the visit (first request to last response), in
        /// milliseconds of simulated time.
        pub plt_millis: u64,
        /// Faults the injection layer fired during the visit, over every process
        /// (DNS, TLS, reset, dead-on-reuse, GOAWAY).
        pub faults_injected: u64,
        /// Extra fetch attempts the retry policy spent recovering from faults
        /// (the first attempt of each resource is not counted).
        pub retries: u64,
        /// Milliseconds the simulated clock charged for retry backoff waits
        /// (exponential schedule plus deterministic jitter).
        pub retry_backoff_millis: u64,
        /// Resources abandoned after exhausting their retry budget — the
        /// degraded remainder a `VisitOutcome::Degraded` reports.
        pub failed_resources: u64,
        /// Server GOAWAY frames received mid-page (the connection finished its
        /// in-flight streams but accepted no new ones).
        pub goaways_received: u64,
        /// Pooled connections that turned out dead when the session lent them.
        pub dead_on_reuse: u64,
        /// Redundant connection dials raced by the hedged-request mitigation;
        /// each charged a second handshake's octets.
        pub hedged_dials: u64,
    }
}

impl VisitTimeline {
    /// Reset every counter to zero (the between-visits recycle; no
    /// allocation, no reconstruction).
    pub fn reset(&mut self) {
        *self = VisitTimeline::default();
    }

    /// Total round trips attributable to connection setup: handshakes plus
    /// cold-congestion-window growth.
    pub fn setup_rtts(&self) -> u64 {
        self.handshake_rtts + self.cold_cwnd_rtts
    }

    /// Share of requests that reused an existing connection.
    pub fn reuse_share(&self) -> f64 {
        let total = self.connections_opened + self.connections_reused;
        if total == 0 {
            0.0
        } else {
            self.connections_reused as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scale: u64) -> VisitTimeline {
        VisitTimeline {
            dns_cache_hits: 2 * scale,
            dns_recursive_walks: 3 * scale,
            dns_authority_queries: 4 * scale,
            dns_failures: scale,
            connections_opened: 5 * scale,
            connections_reused: 7 * scale,
            handshake_rtts: 10 * scale,
            handshake_octets: 9_000 * scale,
            handshake_millis: 300 * scale,
            loss_retransmit_micros: 450 * scale,
            resumed_handshakes: scale,
            cold_cwnd_rtts: 6 * scale,
            requests: 12 * scale,
            body_octets: 100_000 * scale,
            plt_millis: 800 * scale,
            faults_injected: 5 * scale,
            retries: 4 * scale,
            retry_backoff_millis: 700 * scale,
            failed_resources: scale,
            goaways_received: 2 * scale,
            dead_on_reuse: 3 * scale,
            hedged_dials: 8 * scale,
        }
    }

    #[test]
    fn absorb_is_component_wise_addition() {
        let mut total = sample(1);
        total.absorb(&sample(2));
        assert_eq!(total, sample(3));
        assert_eq!(total.setup_rtts(), 30 + 18);
    }

    #[test]
    fn reset_recycles_to_zero() {
        let mut timeline = sample(4);
        timeline.reset();
        assert_eq!(timeline, VisitTimeline::default());
        assert_eq!(timeline.reuse_share(), 0.0);
    }

    #[test]
    fn reuse_share_is_the_ride_along_fraction() {
        let timeline = sample(1);
        assert!((timeline.reuse_share() - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn words_round_trip_and_cover_every_counter() {
        // Distinct value per word: a codec that drops or swaps any field
        // cannot round-trip this timeline.
        let words: [u64; VisitTimeline::WORDS] = std::array::from_fn(|index| 10_000 + index as u64);
        let timeline = VisitTimeline::from_words(&words);
        assert_eq!(timeline.to_words(), words);

        let sampled = sample(3);
        assert_eq!(VisitTimeline::from_words(&sampled.to_words()), sampled);
    }

    #[test]
    fn absorbing_decoded_words_equals_absorbing_live() {
        let mut live = sample(1);
        live.absorb(&sample(2));
        let mut decoded = VisitTimeline::from_words(&sample(1).to_words());
        decoded.absorb(&VisitTimeline::from_words(&sample(2).to_words()));
        assert_eq!(decoded, live);
    }
}
