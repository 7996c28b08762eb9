//! Dataset-level aggregation: the Table 1 cause counts and the §5.1 headline
//! numbers.
//!
//! Aggregation is **streaming and shard-mergeable**: [`Accumulator`] folds
//! one [`SiteClassification`] at a time ([`Accumulator::observe`]) and two
//! accumulators over disjoint site sets combine with
//! [`Accumulator::merge`] (mirroring `netsim_har::FilterStatistics::merge`).
//! Because every tracked quantity is a per-site sum, `merge` is associative
//! and order-insensitive — per-worker shards of a population crawl can be
//! classified with bounded memory and merged in any order, and the result is
//! byte-for-byte the batch pass over the concatenated classifications
//! (property-tested in `tests/streaming_aggregation.rs`). The atlas scale
//! scenario (`connreuse-experiments`) is built on exactly this: 100 k sites
//! are crawled chunk by chunk, each visit is classified and folded, and only
//! the accumulators survive.

use crate::classify::{Cause, SiteClassification};
use std::collections::BTreeMap;

/// Sites and connections affected by one cause (one cell pair of Table 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CauseCounts {
    /// Number of sites with at least one connection carrying the cause.
    pub sites: usize,
    /// Number of connections carrying the cause.
    pub connections: usize,
}

/// Per-site cause totals in the fixed [`Cause::ALL`] order — the compact,
/// allocation-free form the streaming fast path
/// ([`crate::FastVisitClassifier`]) produces and
/// [`Accumulator::observe_counts`] folds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteCounts {
    /// Total HTTP/2 connections the site opened.
    pub total_connections: usize,
    /// Connections with at least one cause.
    pub redundant_connections: usize,
    /// Connections per cause, indexed by [`Cause::index`].
    pub cause_connections: [usize; 3],
}

impl SiteCounts {
    /// The counts a [`SiteClassification`] reduces to.
    pub fn from_classification(classification: &SiteClassification) -> Self {
        let mut cause_connections = [0usize; 3];
        for (index, cause) in Cause::ALL.iter().enumerate() {
            cause_connections[index] = classification.connections_with_cause(*cause);
        }
        SiteCounts {
            total_connections: classification.total_connections,
            redundant_connections: classification.redundant_connections(),
            cause_connections,
        }
    }
}

/// A streaming, shard-mergeable aggregator of site classifications.
///
/// One accumulator per worker shard; observe each classification as soon as
/// it is produced, drop the classification, and merge the shards afterwards.
/// Every counter is additive over disjoint site sets, so the merge order
/// never changes the outcome. The fold writes straight into the
/// [`AccumulatorState`] the shard store persists — a handful of integer adds
/// per site; the table-ordered `BTreeMap` of [`DatasetSummary`] is built once
/// in [`Accumulator::finish`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accumulator {
    state: AccumulatorState,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Fold one site's classification into the running counts.
    pub fn observe(&mut self, classification: &SiteClassification) {
        self.observe_counts(&SiteCounts::from_classification(classification));
    }

    /// Fold one site's reduced counts into the running totals — the
    /// allocation-free fold behind [`Accumulator::observe`], fed directly by
    /// the streaming visit classifier.
    pub fn observe_counts(&mut self, counts: &SiteCounts) {
        let state = &mut self.state;
        state.observed_sites += 1;
        // Sites that never opened an HTTP/2 connection are outside the
        // analysis population (Table 1 counts only HTTP/2 sites).
        if counts.total_connections == 0 {
            return;
        }
        state.total_sites += 1;
        state.total_connections += counts.total_connections as u64;
        if counts.redundant_connections > 0 {
            state.redundant_sites += 1;
        }
        state.redundant_connections += counts.redundant_connections as u64;
        for (index, count) in counts.cause_connections.into_iter().enumerate() {
            state.cause_connections[index] += count as u64;
            if count > 0 {
                state.cause_sites[index] += 1;
            }
        }
    }

    /// Merge another shard's counts into this accumulator. Associative and
    /// order-insensitive: any merge tree over per-shard accumulators equals
    /// the batch pass over all classifications. This is the contract the
    /// atlas's parallel executor relies on — workers fold disjoint chunks
    /// in whatever order the steal schedule produces, and the chunk-ordered
    /// merge afterwards is byte-identical to the sequential fold.
    ///
    /// ```
    /// use connreuse_core::{Accumulator, SiteCounts};
    ///
    /// // Two shards observing disjoint sites...
    /// let mut left = Accumulator::new();
    /// left.observe_counts(&SiteCounts {
    ///     total_connections: 3,
    ///     redundant_connections: 1,
    ///     cause_connections: [1, 0, 0],
    /// });
    /// let mut right = Accumulator::new();
    /// right.observe_counts(&SiteCounts {
    ///     total_connections: 2,
    ///     redundant_connections: 0,
    ///     cause_connections: [0, 0, 0],
    /// });
    ///
    /// // ...merge to the same totals in either order.
    /// let mut forward = left.clone();
    /// forward.merge(&right);
    /// let mut backward = right.clone();
    /// backward.merge(&left);
    /// assert_eq!(forward, backward);
    /// assert_eq!(forward.observed_sites(), 2);
    /// ```
    pub fn merge(&mut self, other: &Accumulator) {
        self.merge_state(&other.state);
    }

    /// Merge an exported snapshot's counts into this accumulator: the same
    /// sums as `merge(&Accumulator::from_state(state))`.
    pub fn merge_state(&mut self, state: &AccumulatorState) {
        self.state.merge(state);
    }

    /// Number of sites observed so far (including non-HTTP/2 sites).
    pub fn observed_sites(&self) -> usize {
        self.state.observed_sites as usize
    }

    /// The running counts as a fixed-width word snapshot — the
    /// serialisation surface the on-disk shard store uses. Round-trips
    /// exactly through [`Accumulator::from_state`].
    pub fn state(&self) -> AccumulatorState {
        self.state
    }

    /// Rebuild an accumulator from an exported snapshot.
    pub fn from_state(state: &AccumulatorState) -> Self {
        Accumulator { state: *state }
    }

    /// Finish the stream: the dataset summary under `label`. The per-cause
    /// arrays are materialised into the table-ordered map here, once, so the
    /// summary (and every report rendered from it) is byte-identical to the
    /// pre-array implementation.
    pub fn finish(self, label: &str) -> DatasetSummary {
        let state = self.state;
        let counts = |sites: u64, connections: u64| CauseCounts {
            sites: sites as usize,
            connections: connections as usize,
        };
        DatasetSummary {
            label: label.to_string(),
            causes: Cause::ALL
                .into_iter()
                .map(|cause| {
                    (cause, counts(state.cause_sites[cause.index()], state.cause_connections[cause.index()]))
                })
                .collect(),
            redundant: counts(state.redundant_sites, state.redundant_connections),
            total: counts(state.total_sites, state.total_connections),
        }
    }
}

netsim_types::counters! {
    /// The complete state of an [`Accumulator`], as plain u64 words.
    ///
    /// This is the persistence contract: every counter the accumulator
    /// tracks, nothing derived. `to_words` / `from_words` give the
    /// fixed-width layout the shard store writes; the field order is frozen —
    /// appending is a schema bump, reordering is forbidden.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct AccumulatorState {
        /// Sites per cause, in [`Cause::ALL`] order.
        pub cause_sites: [u64; 3],
        /// Connections per cause, in [`Cause::ALL`] order.
        pub cause_connections: [u64; 3],
        /// Sites with at least one redundant connection.
        pub redundant_sites: u64,
        /// Total redundant connections.
        pub redundant_connections: u64,
        /// Sites with at least one HTTP/2 connection.
        pub total_sites: u64,
        /// Total HTTP/2 connections.
        pub total_connections: u64,
        /// Every site observed, including non-HTTP/2 sites.
        pub observed_sites: u64,
    }
}

/// The aggregated view of one classified dataset — one column block of
/// Table 1 plus the numbers quoted in §5.1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatasetSummary {
    /// Dataset label.
    pub label: String,
    /// Per-cause counts.
    pub causes: BTreeMap<Cause, CauseCounts>,
    /// Sites with at least one redundant connection / total redundant
    /// connections (the "Redund." row).
    pub redundant: CauseCounts,
    /// Sites with at least one HTTP/2 connection / total HTTP/2 connections
    /// (the "Total" row).
    pub total: CauseCounts,
}

impl DatasetSummary {
    /// Counts for one cause.
    pub fn cause(&self, cause: Cause) -> CauseCounts {
        self.causes.get(&cause).copied().unwrap_or_default()
    }

    /// Fraction of sites affected by a cause (relative to HTTP/2 sites).
    pub fn site_share(&self, cause: Cause) -> f64 {
        ratio(self.cause(cause).sites, self.total.sites)
    }

    /// Fraction of connections affected by a cause.
    pub fn connection_share(&self, cause: Cause) -> f64 {
        ratio(self.cause(cause).connections, self.total.connections)
    }

    /// Fraction of sites with at least one redundant connection — the
    /// paper's headline metric (76 % HAR endless, 95 % Alexa).
    pub fn redundant_site_share(&self) -> f64 {
        ratio(self.redundant.sites, self.total.sites)
    }

    /// Fraction of connections that are redundant.
    pub fn redundant_connection_share(&self) -> f64 {
        ratio(self.redundant.connections, self.total.connections)
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifiedConnection;
    use netsim_types::DomainName;
    use std::collections::BTreeMap;

    fn classified(site: &str, total: usize, causes_per_conn: Vec<Vec<Cause>>) -> SiteClassification {
        let connections = causes_per_conn
            .into_iter()
            .enumerate()
            .map(|(index, causes)| ClassifiedConnection {
                index,
                origin: DomainName::literal(site),
                causes: causes.into_iter().map(|c| (c, vec![0])).collect::<BTreeMap<_, _>>(),
                excluded: false,
            })
            .collect();
        SiteClassification { site: DomainName::literal(site), total_connections: total, connections }
    }

    /// The batch pass: every classification folded by one accumulator.
    fn summary(label: &str, classifications: &[SiteClassification]) -> DatasetSummary {
        let mut accumulator = Accumulator::new();
        classifications.iter().for_each(|classification| accumulator.observe(classification));
        accumulator.finish(label)
    }

    #[test]
    fn summary_counts_sites_and_connections() {
        let classifications = vec![
            classified("a.com", 5, vec![vec![], vec![Cause::Ip], vec![Cause::Ip, Cause::Cred]]),
            classified("b.com", 3, vec![vec![], vec![Cause::Cert]]),
            classified("c.com", 2, vec![vec![], vec![]]),
        ];
        let summary = summary("test", &classifications);
        assert_eq!(summary.total, CauseCounts { sites: 3, connections: 10 });
        assert_eq!(summary.redundant, CauseCounts { sites: 2, connections: 3 });
        assert_eq!(summary.cause(Cause::Ip), CauseCounts { sites: 1, connections: 2 });
        assert_eq!(summary.cause(Cause::Cred), CauseCounts { sites: 1, connections: 1 });
        assert_eq!(summary.cause(Cause::Cert), CauseCounts { sites: 1, connections: 1 });
        assert!((summary.redundant_site_share() - 2.0 / 3.0).abs() < 1e-9);
        assert!((summary.connection_share(Cause::Ip) - 0.2).abs() < 1e-9);
        assert!((summary.site_share(Cause::Cert) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn cause_sum_can_exceed_redundant_count() {
        // One connection with two causes: counted once as redundant but once
        // per cause — mirroring the paper's note that cause sums may exceed
        // the redundant totals.
        let classifications = vec![classified("a.com", 2, vec![vec![], vec![Cause::Ip, Cause::Cred]])];
        let summary = summary("test", &classifications);
        let cause_sum: usize = Cause::ALL.iter().map(|c| summary.cause(*c).connections).sum();
        assert_eq!(summary.redundant.connections, 1);
        assert_eq!(cause_sum, 2);
    }

    #[test]
    fn empty_dataset_has_zero_shares() {
        let summary = summary("empty", &[]);
        assert_eq!(summary.redundant_site_share(), 0.0);
        assert_eq!(summary.connection_share(Cause::Ip), 0.0);
        assert_eq!(summary.redundant_connection_share(), 0.0);
    }

    #[test]
    fn sharded_accumulators_merge_to_the_batch_pass() {
        let classifications = vec![
            classified("a.com", 5, vec![vec![], vec![Cause::Ip], vec![Cause::Ip, Cause::Cred]]),
            classified("b.com", 3, vec![vec![], vec![Cause::Cert]]),
            classified("c.com", 2, vec![vec![], vec![]]),
            classified("d.com", 0, vec![]),
        ];
        let batch = summary("test", &classifications);

        // Two shards, merged in both orders.
        let mut left = Accumulator::new();
        left.observe(&classifications[0]);
        left.observe(&classifications[1]);
        let mut right = Accumulator::new();
        right.observe(&classifications[2]);
        right.observe(&classifications[3]);

        let mut forward = left.clone();
        forward.merge(&right);
        let mut backward = right.clone();
        backward.merge(&left);

        assert_eq!(forward, backward);
        assert_eq!(forward.observed_sites(), 4);
        assert_eq!(forward.clone().finish("test"), batch);
        assert_eq!(backward.finish("test"), batch);
    }

    #[test]
    fn merging_an_empty_accumulator_is_the_identity() {
        let mut acc = Accumulator::new();
        acc.observe(&classified("a.com", 2, vec![vec![], vec![Cause::Cred]]));
        let snapshot = acc.clone();
        acc.merge(&Accumulator::new());
        assert_eq!(acc, snapshot);
    }

    #[test]
    fn state_round_trips_through_words() {
        let mut acc = Accumulator::new();
        acc.observe(&classified("a.com", 5, vec![vec![], vec![Cause::Ip], vec![Cause::Ip, Cause::Cred]]));
        acc.observe(&classified("b.com", 3, vec![vec![], vec![Cause::Cert]]));
        acc.observe(&classified("c.com", 0, vec![]));

        let state = acc.state();
        let rebuilt = Accumulator::from_state(&AccumulatorState::from_words(&state.to_words()));
        assert_eq!(rebuilt, acc);
        assert_eq!(rebuilt.observed_sites(), 3);
        assert_eq!(rebuilt.finish("t"), acc.clone().finish("t"));
    }

    #[test]
    fn state_words_cover_every_counter() {
        // Distinct value per word: a codec that drops or swaps any field
        // cannot round-trip this state.
        let words: [u64; AccumulatorState::WORDS] = std::array::from_fn(|index| 1000 + index as u64);
        let state = AccumulatorState::from_words(&words);
        assert_eq!(state.to_words(), words);
        assert_eq!(Accumulator::from_state(&state).state(), state);
    }

    #[test]
    fn merged_state_equals_state_of_merge() {
        let mut left = Accumulator::new();
        left.observe(&classified("a.com", 2, vec![vec![], vec![Cause::Ip]]));
        let mut right = Accumulator::new();
        right.observe(&classified("b.com", 1, vec![vec![Cause::Cert]]));

        // Persist both shards, rebuild, merge: same as merging live.
        let mut live = left.clone();
        live.merge(&right);
        let mut rebuilt = Accumulator::from_state(&left.state());
        rebuilt.merge(&Accumulator::from_state(&right.state()));
        assert_eq!(rebuilt, live);
    }

    #[test]
    fn observed_sites_counts_non_http2_sites_but_totals_do_not() {
        let mut acc = Accumulator::new();
        acc.observe(&classified("a.com", 0, vec![]));
        acc.observe(&classified("b.com", 1, vec![vec![]]));
        assert_eq!(acc.observed_sites(), 2);
        let summary = acc.finish("test");
        assert_eq!(summary.total, CauseCounts { sites: 1, connections: 1 });
    }
}
