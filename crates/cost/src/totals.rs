//! Streaming, shard-mergeable aggregation of visit timelines.
//!
//! [`CostTotals`] is to [`VisitTimeline`] what `connreuse_core::Accumulator`
//! is to a site classification: fold one visit at a time
//! ([`CostTotals::absorb_visit`]), merge per-worker shards afterwards
//! ([`CostTotals::merge`]). Every field is a per-visit sum, so the merge is
//! associative and order-insensitive — `threads = 1` and `threads = N`
//! produce byte-identical aggregates (asserted in `tests/determinism.rs`).
//!
//! The derived metrics re-price the stored counts under any
//! [`LinkProfile`], which is how one crawl answers "what would this
//! redundancy cost on a lossy cellular link?" without being re-run.

use crate::link::LinkProfile;
use crate::timeline::VisitTimeline;
use netsim_types::Duration;
use serde::{Deserialize, Serialize};

netsim_types::counters! {
    /// Aggregate cost counters over a set of visits. The generated `merge`
    /// folds another shard's totals (associative, order-insensitive); the
    /// word layout is the visit count followed by the [`VisitTimeline`]
    /// words.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CostTotals {
        /// Number of visits folded in.
        pub visits: u64,
        /// Component-wise sums of the per-visit timelines.
        pub sums: VisitTimeline,
    }
}

impl CostTotals {
    /// An empty aggregate.
    pub fn new() -> Self {
        CostTotals::default()
    }

    /// Fold one visit's timeline into the running totals.
    pub fn absorb_visit(&mut self, timeline: &VisitTimeline) {
        self.visits += 1;
        self.sums.absorb(timeline);
    }

    /// Wall-clock spent in TCP/TLS handshakes under `profile`, including its
    /// loss-retransmission penalty.
    pub fn handshake_time(&self, profile: &LinkProfile) -> Duration {
        profile.time_for_rtts(self.sums.handshake_rtts)
    }

    /// Wall-clock spent growing cold congestion windows under `profile`.
    pub fn cold_cwnd_time(&self, profile: &LinkProfile) -> Duration {
        profile.time_for_rtts(self.sums.cold_cwnd_rtts)
    }

    /// Wall-clock spent on recursive DNS walks under `profile` (one round
    /// trip per authority query, loss-inflated like every other round trip;
    /// cache hits are free).
    pub fn dns_time(&self, profile: &LinkProfile) -> Duration {
        profile.time_for_rtts(self.sums.dns_authority_queries)
    }

    /// Total connection-setup cost under `profile`: DNS walks, handshakes
    /// and cold-window growth.
    pub fn setup_time(&self, profile: &LinkProfile) -> Duration {
        self.dns_time(profile) + self.handshake_time(profile) + self.cold_cwnd_time(profile)
    }

    /// Mean page-load time per visit, in milliseconds of simulated time.
    pub fn mean_plt_millis(&self) -> f64 {
        if self.visits == 0 {
            0.0
        } else {
            self.sums.plt_millis as f64 / self.visits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(scale: u64) -> VisitTimeline {
        VisitTimeline {
            dns_cache_hits: scale,
            dns_recursive_walks: 2 * scale,
            dns_authority_queries: 3 * scale,
            dns_failures: 0,
            connections_opened: 4 * scale,
            connections_reused: 5 * scale,
            handshake_rtts: 8 * scale,
            handshake_octets: 9_000 * scale,
            handshake_millis: 240 * scale,
            loss_retransmit_micros: 130 * scale,
            resumed_handshakes: 0,
            cold_cwnd_rtts: 6 * scale,
            requests: 9 * scale,
            body_octets: 50_000 * scale,
            plt_millis: 700 * scale,
            faults_injected: 7 * scale,
            retries: 2 * scale,
            retry_backoff_millis: 300 * scale,
            failed_resources: scale,
            goaways_received: scale,
            dead_on_reuse: scale,
            hedged_dials: 0,
        }
    }

    #[test]
    fn merge_equals_the_batch_fold() {
        // Shard-merge associativity: folding visits into two shards and
        // merging equals folding them all into one aggregate.
        let visits: Vec<VisitTimeline> = (1..=6).map(timeline).collect();
        let mut batch = CostTotals::new();
        for visit in &visits {
            batch.absorb_visit(visit);
        }
        let mut left = CostTotals::new();
        let mut right = CostTotals::new();
        for (index, visit) in visits.iter().enumerate() {
            if index % 2 == 0 {
                left.absorb_visit(visit);
            } else {
                right.absorb_visit(visit);
            }
        }
        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged, batch);
        // Merge is order-insensitive.
        let mut reversed = right;
        reversed.merge(&left);
        assert_eq!(reversed, batch);
    }

    #[test]
    fn derived_costs_scale_with_the_profile() {
        let mut totals = CostTotals::new();
        totals.absorb_visit(&timeline(10));
        let dc = LinkProfile::datacenter();
        let cell = LinkProfile::lossy_cellular();
        assert!(totals.setup_time(&cell) > totals.setup_time(&dc));
        assert_eq!(totals.dns_time(&dc), Duration::from_millis(2 * 30));
        assert_eq!(totals.handshake_time(&dc), Duration::from_millis(2 * 80));
        assert!((totals.mean_plt_millis() - 7_000.0).abs() < 1e-9);
    }

    #[test]
    fn words_round_trip_and_price_identically() {
        let mut totals = CostTotals::new();
        totals.absorb_visit(&timeline(3));
        totals.absorb_visit(&timeline(5));
        let decoded = CostTotals::from_words(&totals.to_words());
        assert_eq!(decoded, totals);
        let profile = LinkProfile::lossy_cellular();
        assert_eq!(decoded.setup_time(&profile), totals.setup_time(&profile));

        // Distinct value per word: dropped or swapped fields cannot pass.
        let words: [u64; CostTotals::WORDS] = std::array::from_fn(|index| 500 + index as u64);
        assert_eq!(CostTotals::from_words(&words).to_words(), words);
    }

    #[test]
    fn empty_totals_price_to_zero() {
        let totals = CostTotals::new();
        assert_eq!(totals.setup_time(&LinkProfile::lossy_cellular()), Duration::ZERO);
        assert_eq!(totals.mean_plt_millis(), 0.0);
    }
}
