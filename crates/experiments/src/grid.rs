//! The grid kernel. Every grid in the crate — atlas chunks, store shards,
//! cost and sweep cells, the `whatif` deployments, the fleet and chaos
//! session cells — runs its tasks on per-worker [`GridWorker`]s: one
//! environment, rebuilt in place only when a task asks for a different
//! population, one scratch arena and one streaming classifier. The crawl
//! grids run one visit → classify → fold loop ([`GridWorker::measure`]) and
//! fold their [`CellRecord`]s through one merge. Every visit is a pure
//! function of the crawler's seed and the site's global index, and the
//! executor returns results by task index, so no record depends on the
//! thread count or the steal schedule.

use crate::atlas::{atlas_builder, classify_scratch};
use crate::scenario::alexa_builder;
use connreuse_core::{Accumulator, DurationModel, FastVisitClassifier};
use connreuse_executor::{run_indexed, run_indexed_streaming, PoolStats, RunOutcome};
use netsim_browser::{BrowserConfig, Crawler, PooledScratch, ScratchPool, VisitScratch};
use netsim_cost::{CostTotals, LinkProfile};
use netsim_store::ShardRecord;
use netsim_types::profile::{self, Stage};
use netsim_types::MitigationSet;
use netsim_web::{DeploymentCache, PopulationBuilder, WebEnvironment};
use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Fold a persisted store record into this one: the same sums as
    /// [`CellRecord::merge`], read straight from the record.
    pub(crate) fn absorb_shard(&mut self, record: &ShardRecord) {
        self.accumulator.merge_state(&record.accumulator);
        self.planned_requests += record.planned_requests;
        self.cost.merge(&record.cost);
    }
}

/// The generator behind a [`Population`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Recipe {
    /// The atlas mix ([`atlas_builder`]): root seed and Zipf exponent bits.
    Atlas { seed: u64, zipf_exponent_bits: u64 },
    /// The Alexa population of the mitigation grids ([`alexa_builder`]).
    Alexa { seed: u64 },
}

/// The population a grid task measures: its recipe, the site range
/// `(start, len)` and the deployed mitigations. Tasks asking for equal
/// populations are served the same environment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Population {
    recipe: Recipe,
    range: (usize, usize),
    mitigations: MitigationSet,
}

impl Population {
    /// The slice `(start, len)` of the atlas population under `mitigations`.
    pub(crate) fn atlas_chunk(
        (seed, zipf_exponent): (u64, f64),
        range: (usize, usize),
        mitigations: MitigationSet,
    ) -> Self {
        let recipe = Recipe::Atlas { seed, zipf_exponent_bits: zipf_exponent.to_bits() };
        Population { recipe, range, mitigations }
    }

    /// The whole `sites`-site Alexa population under root seed `seed`,
    /// deployed with `mitigations`: what every cell of the mitigation grids
    /// (sweep, cost, fleet, chaos) measures.
    pub(crate) fn alexa(sites: usize, seed: u64, mitigations: MitigationSet) -> Self {
        Population { recipe: Recipe::Alexa { seed }, range: (0, sites), mitigations }
    }

    /// A builder for this population's recipe, layered on the shared
    /// deployment of its mitigations.
    fn builder(&self, deployments: &DeploymentCache) -> PopulationBuilder {
        let deployment = deployments.deployment(self.mitigations);
        match self.recipe {
            Recipe::Atlas { seed, zipf_exponent_bits } => {
                atlas_builder(seed, f64::from_bits(zipf_exponent_bits), deployment)
            }
            Recipe::Alexa { seed } => {
                alexa_builder(self.range.1, seed, self.mitigations).with_shared_deployment(deployment)
            }
        }
    }
}

/// A grid worker's reusable state, kept across every task it runs (stolen or
/// not): the visit scratch arena, checked out of the run's [`ScratchPool`],
/// the streaming classifier, and the one environment every task measures,
/// with the population it holds.
pub(crate) struct GridWorker<'run> {
    scratch: PooledScratch<'run>,
    classifier: FastVisitClassifier,
    env: WebEnvironment,
    /// The population `env` holds, once the worker has built one.
    held: Option<Population>,
    /// One builder per (recipe, mitigations) this worker has built.
    builders: Vec<((Recipe, MitigationSet), PopulationBuilder)>,
    /// The run's population builds, over every worker.
    builds: &'run AtomicUsize,
}

impl GridWorker<'_> {
    /// Hand the worker's environment, holding `population`, to `body` with
    /// the worker. The environment is rebuilt in place over the shared
    /// deployment from `deployments` only when it holds another population:
    /// tasks in a row on one population build it once, and a warm worker
    /// rebuilds without allocating and never drops an environment.
    pub(crate) fn with_population<R>(
        &mut self,
        population: Population,
        deployments: &DeploymentCache,
        body: impl FnOnce(&mut Self, &WebEnvironment) -> R,
    ) -> R {
        if self.held != Some(population) {
            self.rebuild(population, deployments);
        }
        let env = std::mem::take(&mut self.env);
        let result = body(self, &env);
        self.env = env;
        result
    }

    fn rebuild(&mut self, population: Population, deployments: &DeploymentCache) {
        let key = (population.recipe, population.mitigations);
        let slot = match self.builders.iter().position(|(built, _)| *built == key) {
            Some(slot) => slot,
            None => {
                self.builders.push((key, population.builder(deployments)));
                self.builders.len() - 1
            }
        };
        let builder = &mut self.builders[slot].1;
        let (start, len) = population.range;
        builder.set_site_range(start, len);
        // The last visit still holds certificates of the previous build;
        // release them so the rebuild rewrites them in place.
        self.scratch.clear();
        self.classifier.begin_site();
        {
            netsim_types::stage!(Stage::Generate);
            builder.build_into(&mut self.env);
        }
        self.held = Some(population);
        self.builds.fetch_add(1, Ordering::Relaxed);
    }

    /// The worker's visit scratch arena, for the session grids' replay loop.
    pub(crate) fn scratch(&mut self) -> &mut VisitScratch {
        &mut self.scratch
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

/// The results of a [`run_grid`] run, in task order, with its scheduling
/// stats and the populations its workers built.
pub(crate) struct GridOutcome<R> {
    pub(crate) results: Vec<R>,
    pub(crate) stats: PoolStats,
    /// Environment builds ([`GridWorker::with_population`]) over every worker.
    pub(crate) builds: usize,
}

/// Run `tasks` grid tasks on the work-stealing executor, results in task
/// order. Each worker checks one [`GridWorker`] out for every task it runs.
pub(crate) fn run_grid<R: Send>(
    threads: usize,
    tasks: usize,
    task: impl Fn(&mut GridWorker<'_>, usize) -> R + Sync,
) -> GridOutcome<R> {
    let pool = ScratchPool::new();
    let builds = AtomicUsize::new(0);
    let run = |worker: &mut GridWorker<'_>, index| in_chunk(|| task(worker, index));
    let RunOutcome { results, stats } = run_indexed(threads, tasks, |_| worker(&pool, &builds), run);
    GridOutcome { results, stats, builds: builds.into_inner() }
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
    let pool = ScratchPool::new();
    let builds = AtomicUsize::new(0);
    let run = |worker: &mut GridWorker<'_>, index| in_chunk(|| task(worker, index));
    run_indexed_streaming(threads, tasks, capacity, |_| worker(&pool, &builds), run, consume)
}

fn worker<'run>(pool: &'run ScratchPool, builds: &'run AtomicUsize) -> GridWorker<'run> {
    GridWorker {
        scratch: pool.checkout(),
        classifier: FastVisitClassifier::new(),
        env: WebEnvironment::default(),
        held: None,
        builders: Vec::new(),
        builds,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worker_builds_each_population_once_in_a_row() {
        let deployments = DeploymentCache::standard();
        let alexa = Population::alexa(30, 7, MitigationSet::empty());
        let chunk = Population::atlas_chunk((7, 0.35), (0, 30), MitigationSet::empty());
        let fresh = alexa_builder(30, 7, MitigationSet::empty()).build();
        let crawler = Crawler::new("grid", BrowserConfig::alexa_measurement(), 17);

        // Two tasks on the Alexa population, then an atlas chunk, on one
        // worker: the second task reuses the first one's build.
        let outcome = run_grid(1, 3, |worker, task| {
            let population = if task < 2 { alexa } else { chunk };
            worker.with_population(population, &deployments, |worker, env| {
                if population == alexa {
                    // The held environment is the fresh, unlayered build.
                    assert_eq!(env.sites, fresh.sites);
                    assert_eq!(env.certificates.len(), fresh.certificates.len());
                    for request in fresh.sites.iter().flat_map(|site| &site.plan) {
                        assert_eq!(
                            env.certificate_for(&request.domain),
                            fresh.certificate_for(&request.domain)
                        );
                    }
                } else {
                    assert_ne!(env.sites, fresh.sites);
                }
                (worker.builds.load(Ordering::Relaxed), worker.measure(env, &crawler))
            })
        });
        let builds: Vec<usize> = outcome.results.iter().map(|(builds, _)| *builds).collect();
        assert_eq!(builds, [1, 1, 2]);
        assert_eq!(outcome.builds, 2);

        // What a browser observes of the held environment (DNS answers,
        // certificates, addresses) matches the fresh build visit for visit.
        let expected = run_grid(1, 1, |worker, _| worker.measure(&fresh, &crawler)).results;
        assert_eq!(outcome.results[0].1, expected[0]);
        assert_eq!(outcome.results[1].1, expected[0]);
    }
}
