//! The grid kernel. Every fast-path measurement in the crate — atlas chunks,
//! store shards, cost and sweep cells, the `whatif` deployments — runs one
//! visit → classify → fold loop ([`GridWorker::measure`]) on a per-worker
//! scratch arena and streaming classifier, and folds its [`CellRecord`]s
//! through one merge. Every visit is a pure function of the crawler's seed
//! and the site's global index, and the executor returns results by task
//! index, so no record depends on the thread count or the steal schedule.

use crate::atlas::{atlas_builder, classify_scratch};
use connreuse_core::{Accumulator, DurationModel, FastVisitClassifier};
use connreuse_executor::{run_indexed, run_indexed_streaming, PoolStats, RunOutcome};
use netsim_browser::{BrowserConfig, Crawler, PooledScratch, ScratchPool};
use netsim_cost::{CostTotals, LinkProfile};
use netsim_store::ShardRecord;
use netsim_types::profile::{self, Stage};
use netsim_types::MitigationSet;
use netsim_web::{DeploymentCache, PopulationBuilder, WebEnvironment};

/// What one measured cell leaves behind, or the fold of several.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct CellRecord {
    /// Streamed classification of every visit (recorded durations).
    pub(crate) accumulator: Accumulator,
    /// Requests the crawled sites planned.
    pub(crate) planned_requests: u64,
    /// Aggregate of the per-visit cost timelines; `cost.sums.requests`
    /// counts the requests sent.
    pub(crate) cost: CostTotals,
}

impl CellRecord {
    /// Fold another record into this one (associative and order-insensitive,
    /// like every counter inside it).
    pub(crate) fn merge(&mut self, other: &CellRecord) {
        self.accumulator.merge(&other.accumulator);
        self.planned_requests += other.planned_requests;
        self.cost.merge(&other.cost);
    }

    /// The record as the store persists it under one
    /// `(mitigation_bits, profile_index)` key. The frozen word layout keeps
    /// its own request word, written from the timeline sum.
    pub(crate) fn to_shard(&self, (mitigation_bits, profile_index): (u64, u64)) -> ShardRecord {
        ShardRecord {
            mitigation_bits,
            profile_index,
            accumulator: self.accumulator.state(),
            requests: self.cost.sums.requests,
            planned_requests: self.planned_requests,
            cost: self.cost,
        }
    }

    /// A persisted store record, back in memory.
    pub(crate) fn from_shard(record: &ShardRecord) -> Self {
        CellRecord {
            accumulator: Accumulator::from_state(&record.accumulator),
            planned_requests: record.planned_requests,
            cost: record.cost,
        }
    }
}

/// A grid worker's reusable state, kept across every task it runs (stolen or
/// not): the visit scratch arena, checked out of the run's [`ScratchPool`],
/// the streaming classifier, and the chunk environment every atlas-shaped
/// task rebuilds in place with the worker's atlas builders.
pub(crate) struct GridWorker<'pool> {
    scratch: PooledScratch<'pool>,
    classifier: FastVisitClassifier,
    env: WebEnvironment,
    /// One atlas builder per (seed, Zipf exponent bits, mitigations) this
    /// worker has built a chunk for.
    builders: Vec<((u64, u64, MitigationSet), PopulationBuilder)>,
}

impl GridWorker<'_> {
    /// Rebuild the worker's environment as the slice `(start, len)` of the
    /// atlas population under `mitigations` ([`atlas_builder`]), then hand
    /// it to `body` with the worker. The rebuild reuses the environment the
    /// worker's previous chunk left, so a warm worker builds a chunk without
    /// allocating and never drops one.
    pub(crate) fn with_atlas_chunk<R>(
        &mut self,
        (seed, zipf_exponent): (u64, f64),
        (start, len): (usize, usize),
        deployments: &DeploymentCache,
        mitigations: MitigationSet,
        body: impl FnOnce(&mut Self, &WebEnvironment) -> R,
    ) -> R {
        let key = (seed, zipf_exponent.to_bits(), mitigations);
        let slot = match self.builders.iter().position(|(built, _)| *built == key) {
            Some(slot) => slot,
            None => {
                let builder = atlas_builder(seed, zipf_exponent, deployments.deployment(mitigations));
                self.builders.push((key, builder));
                self.builders.len() - 1
            }
        };
        let builder = &mut self.builders[slot].1;
        builder.set_site_range(start, len);
        // The last visit still holds certificates of the previous chunk;
        // release them so the rebuild rewrites them in place.
        self.scratch.clear();
        self.classifier.begin_site();
        let mut env = std::mem::take(&mut self.env);
        builder.build_into(&mut env);
        let result = body(self, &env);
        self.env = env;
        result
    }

    /// Visit every site of `env` with `crawler` → classify → fold. The
    /// scratch holds each visit only until the next one starts, so the
    /// steady-state loop allocates nothing.
    pub(crate) fn measure(&mut self, env: &WebEnvironment, crawler: &Crawler) -> CellRecord {
        let mut record =
            CellRecord { planned_requests: env.total_planned_requests() as u64, ..CellRecord::default() };
        for index in 0..env.sites.len() {
            crawler.visit_site_into(&mut self.scratch, env, index);
            record.cost.absorb_visit(self.scratch.timeline());
            netsim_types::stage!(Stage::Classify);
            // The simulated loader answers every request with 200, so no
            // visit carries an HTTP 421 exclusion.
            debug_assert!(self.scratch.all_ok());
            let counts = classify_scratch(&mut self.classifier, &self.scratch, DurationModel::Recorded);
            record.accumulator.observe_counts(&counts);
        }
        debug_assert!(conserved(&record), "{record:?}");
        record
    }

    /// [`GridWorker::measure`] once per link profile, in profile order: `env`
    /// crawled with the browser policy for `mitigations` over each path.
    pub(crate) fn measure_links(
        &mut self,
        env: &WebEnvironment,
        mitigations: MitigationSet,
        profiles: &[LinkProfile],
        crawl_seed: u64,
    ) -> Vec<CellRecord> {
        let label = mitigations.label();
        let browser = BrowserConfig::with_mitigations(mitigations);
        profiles
            .iter()
            .map(|profile| {
                self.measure(env, &Crawler::new(&label, browser.clone().over_link(profile), crawl_seed))
            })
            .collect()
    }
}

/// The laws between a live cell's counters: every visit was classified;
/// redundant sites are HTTP/2 sites, which are observed sites; a cause marks
/// only redundant connections, at least one per site it marks, and every
/// redundant connection carries a cause.
fn conserved(record: &CellRecord) -> bool {
    let state = record.accumulator.state();
    let causes = state.cause_sites.iter().zip(&state.cause_connections).all(|(&sites, &connections)| {
        sites <= state.redundant_sites && sites <= connections && connections <= state.redundant_connections
    });
    record.cost.visits == state.observed_sites
        && state.redundant_sites <= state.total_sites
        && state.total_sites <= state.observed_sites
        && state.redundant_connections <= state.total_connections
        && state.redundant_connections <= state.cause_connections.iter().sum()
        && causes
}

/// Run `tasks` grid tasks on the work-stealing executor, results in task
/// order. Each worker checks one [`GridWorker`] out for every task it runs;
/// the session grids (fleet, chaos) leave it unused, their replay loop
/// brings its own browser.
pub(crate) fn run_grid<R: Send>(
    threads: usize,
    tasks: usize,
    task: impl Fn(&mut GridWorker<'_>, usize) -> R + Sync,
) -> RunOutcome<R> {
    let pool = ScratchPool::without_netlog();
    run_indexed(threads, tasks, |_| worker(&pool), |worker, index| in_chunk(|| task(worker, index)))
}

/// [`run_grid`], streaming each `(task, result)` to `consume` on the caller
/// thread through a channel of `capacity` results (workers block when the
/// consumer lags).
pub(crate) fn stream_grid<R: Send>(
    threads: usize,
    tasks: usize,
    capacity: usize,
    task: impl Fn(&mut GridWorker<'_>, usize) -> R + Sync,
    consume: impl FnMut(usize, R),
) -> PoolStats {
    let pool = ScratchPool::without_netlog();
    let run = |worker: &mut GridWorker<'_>, index| in_chunk(|| task(worker, index));
    run_indexed_streaming(threads, tasks, capacity, |_| worker(&pool), run, consume)
}

fn worker(pool: &ScratchPool) -> GridWorker<'_> {
    // NetLog events would be dropped unread: the pool hands out
    // recording-disabled arenas so the visit loop stays allocation-free.
    GridWorker {
        scratch: pool.checkout(),
        classifier: FastVisitClassifier::new(),
        env: WebEnvironment::default(),
        builders: Vec::new(),
    }
}

/// Every grid task is one scaffold [`Stage::ChunkLoop`] scope: its wall-clock
/// total is the envelope the interior stages must sum under, its count the
/// number of tasks run. The worker's thread-local stage table is merged into
/// the process-wide one before the executor moves on, because worker threads
/// die with the run.
fn in_chunk<R>(body: impl FnOnce() -> R) -> R {
    let guard = profile::enter(Stage::ChunkLoop);
    let result = body();
    drop(guard);
    profile::flush_local();
    result
}

/// The chunk ranges `[start, start + len)` that cover `sites` sites in
/// chunks of `chunk_sites` (at least 1).
pub(crate) fn chunk_layout(sites: usize, chunk_sites: usize) -> Vec<(usize, usize)> {
    let chunk = chunk_sites.max(1);
    (0..sites.div_ceil(chunk)).map(|i| (i * chunk, chunk.min(sites - i * chunk))).collect()
}
