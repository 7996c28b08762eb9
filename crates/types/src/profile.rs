//! Feature-gated hotpath instrumentation: stage-attributed wall-clock
//! profiling of the visit fast path.
//!
//! The bench guard sees whole-run sites/s, so a regression inside one visit
//! stage (the DNS walk, handshake pricing, request streams, transfer clock,
//! classification, cost fold) surfaces only as an anonymous throughput drop.
//! This module names the stage:
//!
//! * [`Stage`] — the closed vocabulary of instrumented hot sections,
//! * [`StageStats`] / [`StageTable`] — fixed-size, `Copy`, allocation-free
//!   count/total/min/max aggregation with an associative, order-insensitive
//!   [`StageTable::merge`] (the same merge law every other shard aggregate
//!   in the workspace obeys),
//! * [`enter`] / [`stage!`](crate::stage) — an RAII scope guard that records
//!   the enclosed section's duration into a thread-local table on drop.
//!
//! ## Zero cost when disabled
//!
//! Everything that *collects* is gated on the `hotpath-profile` cargo
//! feature. With the feature off (the default), [`enter`] is an
//! `#[inline(always)]` function returning a zero-sized guard whose `Drop` is
//! empty — the optimiser erases the whole call — and the flush/take
//! functions return empty tables. The aggregation types themselves are
//! always compiled so reports, budgets and property tests share one
//! vocabulary regardless of how the binary was built.
//!
//! ## Zero allocation when enabled
//!
//! With the feature on, a guard costs two `std::time::Instant` reads and a
//! handful of integer stores into a `const`-initialised thread-local
//! [`StageTable`] — no heap traffic on any path (the zero-alloc gate in
//! `crates/browser/tests/zero_alloc.rs` runs with the feature enabled and
//! still asserts exactly zero allocations).
//!
//! ## Determinism
//!
//! Measured durations are wall-clock and therefore machine-dependent —
//! exactly like the atlas `AtlasMetrics` — so profile tables must never
//! enter a deterministic report. Collection is per-thread; workers flush
//! into the process-wide table ([`flush_local`]) at chunk boundaries, and
//! because [`StageTable::merge`] is associative and order-insensitive the
//! *counts* are thread-invariant even though the nanoseconds are not.

use serde::{Deserialize, Serialize};

/// Named hot sections of the visit fast path and its surrounding loops.
///
/// The enum is the table's index space: adding a stage grows every
/// [`StageTable`] by one fixed-size row, nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Resolving a planned request's host: cache probe, recursive walk,
    /// per-visit DNS accounting.
    DnsWalk = 0,
    /// Scanning live sessions for a pool hit or an RFC 7540 §9.1.1
    /// coalescing candidate.
    ReuseScan,
    /// Opening a connection: handshake pricing (RTTs, octets, loss carry),
    /// establishment, ORIGIN-frame receipt.
    Handshake,
    /// Sending the request over the chosen session: opening and completing
    /// its stream, plus the injected reset and GOAWAY fault draws.
    RequestEncode,
    /// Charging the transfer clock and folding per-request cost counters.
    TransferClock,
    /// Folding page-level costs (cold-cwnd penalty, page-load time).
    CostFold,
    /// Streaming classification of a finished visit.
    Classify,
    /// Generating a grid worker's population in place
    /// (`PopulationBuilder::build_into`). It runs between visits, not
    /// inside one: it counts toward the chunk-loop coverage but not toward
    /// the visit stages' shares, so their budgets keep their meaning.
    Generate,
    /// One worker chunk: generate + crawl + classify a site range. A
    /// *scaffold* stage — it envelopes the others and is excluded from
    /// share-of-measured arithmetic.
    ChunkLoop,
}

impl Stage {
    /// Number of stages (the fixed size of every [`StageTable`]).
    pub const COUNT: usize = 9;

    /// Every stage, in table order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::DnsWalk,
        Stage::ReuseScan,
        Stage::Handshake,
        Stage::RequestEncode,
        Stage::TransferClock,
        Stage::CostFold,
        Stage::Classify,
        Stage::Generate,
        Stage::ChunkLoop,
    ];

    /// Stable kebab-case name — the key the profile JSON, the committed
    /// budget baseline and the bench guard all agree on.
    pub fn name(self) -> &'static str {
        match self {
            Stage::DnsWalk => "dns-walk",
            Stage::ReuseScan => "reuse-scan",
            Stage::Handshake => "handshake",
            Stage::RequestEncode => "request-encode",
            Stage::TransferClock => "transfer-clock",
            Stage::CostFold => "cost-fold",
            Stage::Classify => "classify",
            Stage::Generate => "generate",
            Stage::ChunkLoop => "chunk-loop",
        }
    }

    /// `true` for envelope stages that *contain* other stages (currently
    /// [`Stage::ChunkLoop`]). Scaffold time double-counts its interior, so
    /// it is excluded from [`StageTable::measured_total_nanos`],
    /// [`StageTable::covered_nanos`] and the share-of-measured columns; it
    /// stays in the table because its total *is* the wall-clock bound the
    /// interior stages must sum under.
    pub fn is_scaffold(self) -> bool {
        matches!(self, Stage::ChunkLoop)
    }

    /// `true` for the stages of one visit — the ones whose shares of each
    /// other the stage budgets bound. Neither the scaffold envelope nor
    /// [`Stage::Generate`] is one.
    pub fn is_visit(self) -> bool {
        !matches!(self, Stage::Generate | Stage::ChunkLoop)
    }
}

/// Aggregated timings of one stage: how often it ran and the
/// total/min/max nanoseconds it took. `Copy`, fixed-size, heap-free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStats {
    /// Times the stage scope was entered.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_nanos: u64,
    /// Fastest single entry (0 when `count == 0`).
    pub min_nanos: u64,
    /// Slowest single entry.
    pub max_nanos: u64,
}

impl StageStats {
    /// The empty aggregate (usable in `const` / `static` contexts).
    pub const fn new() -> Self {
        StageStats { count: 0, total_nanos: 0, min_nanos: 0, max_nanos: 0 }
    }

    /// Fold one measured scope duration in.
    pub fn record(&mut self, nanos: u64) {
        self.min_nanos = if self.count == 0 { nanos } else { self.min_nanos.min(nanos) };
        self.max_nanos = self.max_nanos.max(nanos);
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
    }

    /// Merge another shard's aggregate (associative, order-insensitive,
    /// with `StageStats::new()` as the identity).
    pub fn merge(&mut self, other: &StageStats) {
        if other.count == 0 {
            return;
        }
        self.min_nanos = if self.count == 0 { other.min_nanos } else { self.min_nanos.min(other.min_nanos) };
        self.max_nanos = self.max_nanos.max(other.max_nanos);
        self.count += other.count;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
    }

    /// Mean nanoseconds per entry (0 when the stage never ran).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.count as f64
        }
    }
}

/// The fixed-size per-worker stage table: one [`StageStats`] row per
/// [`Stage`]. `Copy` and `const`-constructible, so the thread-local
/// collector needs no lazy initialisation and no heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTable {
    rows: [StageStats; Stage::COUNT],
}

impl Default for StageTable {
    fn default() -> Self {
        StageTable::new()
    }
}

impl StageTable {
    /// An empty table.
    pub const fn new() -> Self {
        StageTable { rows: [StageStats::new(); Stage::COUNT] }
    }

    /// Fold one measured duration into `stage`'s row.
    pub fn record(&mut self, stage: Stage, nanos: u64) {
        self.rows[stage as usize].record(nanos);
    }

    /// The aggregate row of one stage.
    pub fn stats(&self, stage: Stage) -> &StageStats {
        &self.rows[stage as usize]
    }

    /// Merge another table row-by-row (associative and order-insensitive,
    /// because [`StageStats::merge`] is — the shard-merge determinism
    /// contract, property-tested in `crates/types/tests/profile_merge.rs`).
    pub fn merge(&mut self, other: &StageTable) {
        for stage in Stage::ALL {
            self.rows[stage as usize].merge(other.stats(stage));
        }
    }

    /// `true` if no stage ever recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(|row| row.count == 0)
    }

    /// Every `(stage, stats)` pair, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, &StageStats)> {
        Stage::ALL.iter().map(move |&stage| (stage, self.stats(stage)))
    }

    /// Total nanoseconds across the visit stages ([`Stage::is_visit`]) —
    /// the denominator of every share-of-measured figure.
    pub fn measured_total_nanos(&self) -> u64 {
        self.total_where(Stage::is_visit)
    }

    /// Total nanoseconds across every named stage inside the scaffold
    /// envelope: the visit stages plus [`Stage::Generate`]. Scaffold stages
    /// envelope the others; counting them would double every interior
    /// nanosecond.
    pub fn covered_nanos(&self) -> u64 {
        self.total_where(|stage| !stage.is_scaffold())
    }

    fn total_where(&self, keep: impl Fn(Stage) -> bool) -> u64 {
        Stage::ALL
            .into_iter()
            .filter(|&stage| keep(stage))
            .fold(0u64, |sum, stage| sum.saturating_add(self.stats(stage).total_nanos))
    }

    /// `stage`'s share of [`StageTable::measured_total_nanos`], in `[0, 1]`
    /// (0 for stages outside a visit and for empty tables).
    pub fn share_of_measured(&self, stage: Stage) -> f64 {
        let total = self.measured_total_nanos();
        if !stage.is_visit() || total == 0 {
            0.0
        } else {
            self.stats(stage).total_nanos as f64 / total as f64
        }
    }
}

/// RAII scope guard returned by [`enter`]: with the `hotpath-profile`
/// feature on it records the elapsed wall-clock nanoseconds of its scope
/// into the thread-local table on drop (surviving early `return` and `?`
/// exits); with the feature off it is a zero-sized no-op the optimiser
/// removes entirely.
#[must_use = "the guard measures its scope; dropping it immediately measures nothing"]
pub struct StageGuard {
    #[cfg(feature = "hotpath-profile")]
    stage: Stage,
    #[cfg(feature = "hotpath-profile")]
    started: std::time::Instant,
}

/// Open a measured scope for `stage`. Prefer the [`stage!`](crate::stage)
/// macro, which binds the guard for you.
#[inline(always)]
pub fn enter(stage: Stage) -> StageGuard {
    #[cfg(feature = "hotpath-profile")]
    {
        StageGuard { stage, started: std::time::Instant::now() }
    }
    #[cfg(not(feature = "hotpath-profile"))]
    {
        let _ = stage;
        StageGuard {}
    }
}

#[cfg(feature = "hotpath-profile")]
impl Drop for StageGuard {
    #[inline]
    fn drop(&mut self) {
        let nanos = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        collector::record(self.stage, nanos);
    }
}

/// Bind a [`StageGuard`] for the rest of the enclosing scope:
///
/// ```
/// use netsim_types::profile::Stage;
/// fn hot_section() -> Option<u64> {
///     netsim_types::stage!(Stage::DnsWalk);
///     // ... early `return None` / `?` exits still close the scope ...
///     Some(42)
/// }
/// ```
///
/// A statement macro (not a closure combinator) so control flow inside the
/// scope — `?`, `return`, `break` — behaves exactly as unwrapped code.
#[macro_export]
macro_rules! stage {
    ($stage:expr) => {
        let _stage_guard = $crate::profile::enter($stage);
    };
}

#[cfg(feature = "hotpath-profile")]
mod collector {
    use super::{Stage, StageTable};
    use std::cell::RefCell;
    use std::sync::Mutex;

    thread_local! {
        // `const`-initialised: touching the table never allocates, so the
        // zero-alloc gate holds with the feature enabled.
        static LOCAL: RefCell<StageTable> = const { RefCell::new(StageTable::new()) };
    }

    /// The process-wide merge target. A plain `Mutex<StageTable>` — workers
    /// flush at chunk boundaries (coarse), never per guard.
    static GLOBAL: Mutex<StageTable> = Mutex::new(StageTable::new());

    #[inline]
    pub(super) fn record(stage: Stage, nanos: u64) {
        LOCAL.with(|table| table.borrow_mut().record(stage, nanos));
    }

    pub(super) fn take_local() -> StageTable {
        LOCAL.with(|table| std::mem::take(&mut *table.borrow_mut()))
    }

    pub(super) fn flush_local() {
        let local = take_local();
        if !local.is_empty() {
            GLOBAL.lock().expect("profile table lock poisoned").merge(&local);
        }
    }

    pub(super) fn take_global() -> StageTable {
        std::mem::take(&mut *GLOBAL.lock().expect("profile table lock poisoned"))
    }
}

/// Take (and reset) the calling thread's stage table. Empty when the
/// `hotpath-profile` feature is off.
pub fn take_local() -> StageTable {
    #[cfg(feature = "hotpath-profile")]
    {
        collector::take_local()
    }
    #[cfg(not(feature = "hotpath-profile"))]
    {
        StageTable::new()
    }
}

/// Merge the calling thread's table into the process-wide table and reset
/// the local one. Workers call this at chunk boundaries — one mutex
/// acquisition per chunk, zero per visit. No-op when the feature is off.
pub fn flush_local() {
    #[cfg(feature = "hotpath-profile")]
    collector::flush_local();
}

/// Take (and reset) the process-wide merged table. Callers flush their own
/// thread first ([`flush_local`]) — worker threads flush before they exit.
/// Empty when the `hotpath-profile` feature is off.
pub fn take_global() -> StageTable {
    #[cfg(feature = "hotpath-profile")]
    {
        collector::take_global()
    }
    #[cfg(not(feature = "hotpath-profile"))]
    {
        StageTable::new()
    }
}

/// `true` when this build collects stage timings (the `hotpath-profile`
/// feature is enabled). Lets binaries explain an empty table instead of
/// printing one.
pub const fn enabled() -> bool {
    cfg!(feature = "hotpath-profile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_count_total_min_max() {
        let mut stats = StageStats::new();
        assert_eq!(stats.mean_nanos(), 0.0);
        for nanos in [30, 10, 20] {
            stats.record(nanos);
        }
        assert_eq!(stats, StageStats { count: 3, total_nanos: 60, min_nanos: 10, max_nanos: 30 });
        assert_eq!(stats.mean_nanos(), 20.0);
    }

    #[test]
    fn merge_has_an_identity_and_tracks_extremes() {
        let mut left = StageStats::new();
        left.record(5);
        left.record(50);
        let mut right = StageStats::new();
        right.record(2);

        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged, StageStats { count: 3, total_nanos: 57, min_nanos: 2, max_nanos: 50 });

        // Identity on both sides, including the min (a zeroed empty row
        // must not clamp a real minimum down to 0).
        let mut with_empty = left;
        with_empty.merge(&StageStats::new());
        assert_eq!(with_empty, left);
        let mut from_empty = StageStats::new();
        from_empty.merge(&left);
        assert_eq!(from_empty, left);
    }

    #[test]
    fn table_shares_exclude_scaffold_stages() {
        let mut table = StageTable::new();
        table.record(Stage::DnsWalk, 300);
        table.record(Stage::Handshake, 100);
        table.record(Stage::ChunkLoop, 10_000); // envelope: not a share
        table.record(Stage::Generate, 600); // covered, but not a visit share
        assert_eq!(table.measured_total_nanos(), 400);
        assert_eq!(table.covered_nanos(), 1_000);
        assert_eq!(table.share_of_measured(Stage::DnsWalk), 0.75);
        assert_eq!(table.share_of_measured(Stage::Handshake), 0.25);
        assert_eq!(table.share_of_measured(Stage::ChunkLoop), 0.0);
        assert_eq!(table.share_of_measured(Stage::Generate), 0.0);
        assert!(!table.is_empty());
    }

    #[test]
    fn stage_names_round_trip() {
        // Names are distinct, so a name read back from the profile JSON or
        // the budget baseline denotes exactly one stage.
        let names: std::collections::BTreeSet<&str> = Stage::ALL.iter().map(|stage| stage.name()).collect();
        assert_eq!(names.len(), Stage::COUNT);
        // The vocabulary is closed and the discriminants index the table.
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (index, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, index);
        }
    }

    #[test]
    fn disabled_builds_return_empty_tables() {
        // Under the default feature set the collector is compiled out; a
        // guard must still be constructible and droppable, and the drains
        // must hand back empty tables. (With `hotpath-profile` on, the
        // integration tests in `crates/browser/tests/` assert the opposite:
        // non-trivial totals.)
        if !enabled() {
            {
                crate::stage!(Stage::DnsWalk);
                std::hint::black_box(0u64);
            }
            assert!(take_local().is_empty());
            assert!(take_global().is_empty());
        }
    }

    #[cfg(feature = "hotpath-profile")]
    #[test]
    fn enabled_builds_record_flush_and_merge() {
        // Drain whatever other tests on this thread left behind.
        let _ = take_local();
        {
            crate::stage!(Stage::ReuseScan);
            std::hint::black_box(0u64);
        }
        let local = take_local();
        assert_eq!(local.stats(Stage::ReuseScan).count, 1);
        assert!(take_local().is_empty(), "take_local resets");

        {
            crate::stage!(Stage::Classify);
            std::hint::black_box(0u64);
        }
        flush_local();
        let global = take_global();
        assert_eq!(global.stats(Stage::Classify).count, 1);
    }
}
