//! Cross-page aggregation for multi-page user sessions.
//!
//! The paper prices redundancy on *cold single-page* visits; the fleet
//! scenario prices it where it actually accrues — across the pages of a user
//! session, where a warm connection pool, carried TLS tickets and a shared
//! DNS cache can amortise setup cost over many navigations. Vulimiri et al.
//! ("Low Latency via Redundancy") motivate exactly this unit of account:
//! per-connection setup cost over a session, not one page.
//!
//! [`SessionTotals`] wraps [`CostTotals`] with a session counter so reports
//! can derive per-session (not just per-page) metrics. Like every aggregate
//! in this workspace, [`SessionTotals::merge`] is an associative,
//! order-insensitive integer sum (generated by
//! [`netsim_types::counters!`]) — shard rule 3 of the determinism contract.

use crate::timeline::VisitTimeline;
use crate::totals::CostTotals;

netsim_types::counters! {
    /// Aggregate cost counters over a set of multi-page sessions; the
    /// generated `merge` folds another shard's totals.
    ///
    /// `totals.visits` counts *pages*; `sessions` counts completed sessions.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SessionTotals {
        /// Number of completed sessions folded in.
        pub sessions: u64,
        /// Page-level totals across every session.
        pub totals: CostTotals,
    }
}

impl SessionTotals {
    /// An empty aggregate.
    pub fn new() -> Self {
        SessionTotals::default()
    }

    /// Fold one page visit's timeline into the running totals.
    pub fn absorb_page(&mut self, timeline: &VisitTimeline) {
        self.totals.absorb_visit(timeline);
    }

    /// Mark the current session complete. Call once per session, after its
    /// last page has been absorbed.
    pub fn end_session(&mut self) {
        self.sessions += 1;
    }

    /// Number of pages folded in across all sessions.
    pub fn pages(&self) -> u64 {
        self.totals.visits
    }

    /// Mean pages per completed session.
    pub fn mean_pages_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.pages() as f64 / self.sessions as f64
        }
    }

    /// Mean connections opened per completed session.
    pub fn mean_opens_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.totals.sums.connections_opened as f64 / self.sessions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(scale: u64) -> VisitTimeline {
        VisitTimeline {
            connections_opened: 2 * scale,
            connections_reused: 3 * scale,
            requests: 10 * scale,
            plt_millis: 500 * scale,
            ..VisitTimeline::default()
        }
    }

    #[test]
    fn merge_equals_the_batch_fold() {
        let mut batch = SessionTotals::new();
        let mut left = SessionTotals::new();
        let mut right = SessionTotals::new();
        for session in 0..4u64 {
            let shard = if session % 2 == 0 { &mut left } else { &mut right };
            for p in 1..=(session + 1) {
                batch.absorb_page(&page(p));
                shard.absorb_page(&page(p));
            }
            batch.end_session();
            shard.end_session();
        }
        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged, batch);
        let mut reversed = right;
        reversed.merge(&left);
        assert_eq!(reversed, batch);
    }

    #[test]
    fn per_session_means() {
        let mut totals = SessionTotals::new();
        totals.absorb_page(&page(1));
        totals.absorb_page(&page(2));
        totals.end_session();
        totals.absorb_page(&page(3));
        totals.end_session();
        assert_eq!(totals.sessions, 2);
        assert_eq!(totals.pages(), 3);
        assert!((totals.mean_pages_per_session() - 1.5).abs() < 1e-9);
        // 2+4+6 opens over 2 sessions.
        assert!((totals.mean_opens_per_session() - 6.0).abs() < 1e-9);
        assert_eq!(SessionTotals::new().mean_pages_per_session(), 0.0);
        assert_eq!(SessionTotals::new().mean_opens_per_session(), 0.0);
    }
}
