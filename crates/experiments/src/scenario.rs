//! The scenario every paper table reads: three populations, their crawls,
//! and one streaming table pass per population.
//!
//! A table pass runs on the grid kernel (`grid::run_grid`) over
//! fixed-size site chunks. Each task builds its chunk on a worker's recycled
//! environment, then visits every site once per crawl of the population,
//! ingests the visit ([`site_from_visit`]) or the filtered HAR document
//! ([`site_from_har_document`]), classifies it once per duration model a
//! table reads, folds it into that pair's [`TableFold`] and drops it. A site
//! is folded only when every crawl of its population observes it, which is
//! how the overlap tables compare like with like. Chunk folds merge in task
//! order, so no table depends on the thread count or the chunk layout.
//!
//! [`Scenario`] runs each population's pass on first use, at most once: an
//! experiment that reads only the configuration builds no table population.

use crate::grid::{chunk_layout, run_grid, GridWorker, Population};
use connreuse_core::{site_from_har_document, site_from_visit, DurationModel, SiteObservation, TableFold};
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_har::{ArchivePipeline, FilterStatistics};
use netsim_web::WebEnvironment;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Seed offset of the Alexa-shaped population relative to the root seed.
/// Shared with the mitigation sweep so its baseline cell reproduces the
/// scenario's own Alexa measurement.
pub const ALEXA_POPULATION_SEED_OFFSET: u64 = 1;

/// Seed offset of the Alexa crawls (stock and patched) relative to the root
/// seed. Shared with the mitigation sweep and the `whatif` experiment.
pub const ALEXA_CRAWL_SEED_OFFSET: u64 = 10;

/// Seed offset of the overlap population relative to the root seed.
const OVERLAP_POPULATION_SEED_OFFSET: u64 = 2;

/// Sites per table-pass task. Memory scales with this, not with the
/// population sizes.
const TABLE_CHUNK_SITES: usize = 250;

/// Sizing and seeding of the simulated measurement campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// Number of sites in the HTTP-Archive-shaped population (paper: 6.24 M).
    pub archive_sites: usize,
    /// Number of sites in the Alexa-shaped population (paper: 100 k).
    pub alexa_sites: usize,
    /// Number of sites in the shared "overlap" population (paper: 29.53 k
    /// sites common to both lists).
    pub overlap_sites: usize,
    /// Root seed for all stochastic choices.
    pub seed: u64,
    /// Worker threads for the crawls.
    pub threads: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            archive_sites: 3_000,
            alexa_sites: 1_500,
            overlap_sites: 600,
            seed: 20_210_420,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        }
    }
}

impl ScenarioConfig {
    /// A small configuration for tests and micro-benchmarks.
    pub fn quick() -> Self {
        ScenarioConfig {
            archive_sites: 300,
            alexa_sites: 180,
            overlap_sites: 80,
            ..ScenarioConfig::default()
        }
    }
}

/// One crawl the paper's tables read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crawl {
    /// The HAR corpus of the archive population, after the §4.3 filter.
    Har,
    /// The own-measurement crawl of the Alexa population (stock Chromium).
    Alexa,
    /// The patched crawl of the Alexa population (Fetch credentials ignored).
    AlexaWithoutFetch,
    /// The overlap population measured through the HAR pipeline.
    OverlapHar,
    /// The overlap population measured like the own Alexa crawl.
    OverlapAlexa,
}

impl Crawl {
    /// The label the tables title the crawl with.
    pub fn label(self) -> &'static str {
        match self {
            Crawl::Har => "HAR",
            Crawl::Alexa => "Alexa",
            Crawl::AlexaWithoutFetch => "Alexa w/o Fetch",
            Crawl::OverlapHar => "HAR Overlap (overlap)",
            Crawl::OverlapAlexa => "Alexa Overlap (overlap)",
        }
    }

    /// Measure site `index` of `env` under root seed `seed`: `None` when
    /// the measurement yields no site (a HAR document without a parsable
    /// landing page). A HAR capture is filtered into `filter`'s counts.
    fn observe(
        self,
        seed: u64,
        scratch: &mut VisitScratch,
        env: &WebEnvironment,
        index: usize,
        filter: &mut FilterStatistics,
    ) -> Option<SiteObservation> {
        let (browser, crawl_seed) = match self {
            Crawl::Har | Crawl::OverlapHar => {
                let pipeline = ArchivePipeline::new(if self == Crawl::Har { seed } else { seed + 20 });
                let mut document = pipeline.crawl_site(scratch, env, index);
                filter.filter(&mut document);
                return site_from_har_document(&document);
            }
            Crawl::Alexa => (BrowserConfig::alexa_measurement(), seed + ALEXA_CRAWL_SEED_OFFSET),
            Crawl::AlexaWithoutFetch => {
                (BrowserConfig::alexa_without_fetch(), seed + ALEXA_CRAWL_SEED_OFFSET)
            }
            Crawl::OverlapAlexa => (BrowserConfig::alexa_measurement(), seed + 21),
        };
        let times = Crawler::new(self.label(), browser, crawl_seed).visit_site_into(scratch, env, index);
        Some(site_from_visit(&scratch.to_page_visit(&env.sites[index], times)))
    }
}

/// The three table populations, in [`Scenario`]'s pass order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Table {
    Archive,
    Alexa,
    Overlap,
}

impl Table {
    /// The population's crawls with the duration models its tables read
    /// them under, in fold order.
    fn crawls(self) -> &'static [(Crawl, &'static [DurationModel])] {
        use DurationModel::{Endless, Immediate, Recorded};
        match self {
            Table::Archive => &[(Crawl::Har, &[Endless, Immediate])],
            Table::Alexa => &[(Crawl::Alexa, &[Recorded, Endless]), (Crawl::AlexaWithoutFetch, &[Recorded])],
            Table::Overlap => &[(Crawl::OverlapHar, &[Endless]), (Crawl::OverlapAlexa, &[Endless, Recorded])],
        }
    }

    /// The population's size in `config`.
    fn sites(self, config: &ScenarioConfig) -> usize {
        [config.archive_sites, config.alexa_sites, config.overlap_sites][self as usize]
    }

    /// The slice `range` of the population under root seed `seed`.
    fn chunk(self, seed: u64, range: (usize, usize)) -> Population {
        match self {
            Table::Archive => Population::archive_chunk(seed, range),
            Table::Alexa => Population::alexa_chunk(seed + ALEXA_POPULATION_SEED_OFFSET, range),
            Table::Overlap => Population::alexa_chunk(seed + OVERLAP_POPULATION_SEED_OFFSET, range),
        }
    }
}

/// One population's table pass, or the fold of several chunks' passes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TablePass {
    /// One fold per (crawl, duration model) pair, in [`Table::crawls`]
    /// order.
    folds: Vec<(Crawl, TableFold)>,
    /// §4.3 bookkeeping of the population's HAR crawl (zero without one).
    filter_statistics: FilterStatistics,
    /// Sites every crawl observed: the sites folded.
    sites: usize,
}

impl TablePass {
    fn empty(table: Table) -> Self {
        let pairs =
            table.crawls().iter().flat_map(|(crawl, models)| models.iter().map(move |m| (*crawl, *m)));
        let folds = pairs.map(|(crawl, model)| (crawl, TableFold::new(model))).collect();
        TablePass { folds, filter_statistics: FilterStatistics::default(), sites: 0 }
    }

    /// Fold the pass over a later site range into this one.
    fn merge(&mut self, later: &TablePass) {
        for ((_, fold), (_, later)) in self.folds.iter_mut().zip(&later.folds) {
            fold.merge(later);
        }
        self.filter_statistics.merge(&later.filter_statistics);
        self.sites += later.sites;
    }
}

/// The table pass over one chunk: every site visited once per crawl,
/// classified once per (crawl, model) pair, folded and dropped.
fn pass_chunk(
    worker: &mut GridWorker<'_>,
    table: Table,
    config: &ScenarioConfig,
    range: (usize, usize),
) -> TablePass {
    let crawls = table.crawls();
    worker.with_population(table.chunk(config.seed, range), |worker, env| {
        let mut pass = TablePass::empty(table);
        for index in 0..env.sites.len() {
            let filter = &mut pass.filter_statistics;
            let observed = crawls
                .iter()
                .map(|(crawl, _)| crawl.observe(config.seed, worker.scratch(), env, index, filter));
            // A site is folded only when every crawl observed it.
            let Some(sites) = observed.collect::<Option<Vec<SiteObservation>>>() else { continue };
            pass.sites += 1;
            for (crawl, fold) in &mut pass.folds {
                let position =
                    crawls.iter().position(|(observed, _)| observed == crawl).expect("a crawl of the table");
                fold.observe(&sites[position], &env.registry);
            }
        }
        pass
    })
}

/// Everything the paper's tables operate on: the configuration and, once
/// a table asks, each population's merged table pass.
#[derive(Debug)]
pub struct Scenario {
    /// The configuration the scenario was set up with.
    pub config: ScenarioConfig,
    chunk_sites: usize,
    /// The passes, indexed by [`Table`], each run on first use.
    passes: [OnceLock<TablePass>; 3],
    /// Environment builds over every table pass run so far.
    builds: AtomicUsize,
}

impl Scenario {
    /// The scenario of `config`. Nothing is built or crawled until a table
    /// reads a population.
    pub fn new(config: ScenarioConfig) -> Scenario {
        Scenario::with_chunk_sites(config, TABLE_CHUNK_SITES)
    }

    /// [`Scenario::new`] with `chunk_sites` sites per table-pass task
    /// instead of the fixed chunk size. Every table is the same at any
    /// chunk size; the determinism tests use this to pin that.
    pub fn with_chunk_sites(config: ScenarioConfig, chunk_sites: usize) -> Scenario {
        Scenario { config, chunk_sites, passes: Default::default(), builds: AtomicUsize::new(0) }
    }

    /// The fold of `crawl` under `model`, running its population's pass on
    /// first use. Panics for a pair no table reads.
    pub fn fold(&self, crawl: Crawl, model: DurationModel) -> &TableFold {
        let table = match crawl {
            Crawl::Har => Table::Archive,
            Crawl::Alexa | Crawl::AlexaWithoutFetch => Table::Alexa,
            Crawl::OverlapHar | Crawl::OverlapAlexa => Table::Overlap,
        };
        let found =
            self.pass(table).folds.iter().find(|(folded, fold)| *folded == crawl && fold.model() == model);
        &found.unwrap_or_else(|| panic!("no table reads {crawl:?} under {model:?}")).1
    }

    /// The §4.3 filter statistics of the archive population's HAR corpus.
    pub fn har_filter_statistics(&self) -> FilterStatistics {
        self.pass(Table::Archive).filter_statistics
    }

    /// The overlap population's sites both of its crawls observed.
    pub fn overlap_sites(&self) -> usize {
        self.pass(Table::Overlap).sites
    }

    fn pass(&self, table: Table) -> &TablePass {
        self.passes[table as usize].get_or_init(|| {
            let config = &self.config;
            let chunks = chunk_layout(table.sites(config), self.chunk_sites);
            let outcome = run_grid(config.threads, chunks.len(), |worker, task| {
                pass_chunk(worker, table, config, chunks[task])
            });
            self.builds.fetch_add(outcome.work.builds, Ordering::Relaxed);
            let mut merged = TablePass::empty(table);
            for chunk in &outcome.results {
                merged.merge(chunk);
            }
            merged
        })
    }

    /// How many population passes have run, and the environment builds
    /// they took.
    #[cfg(test)]
    pub(crate) fn work(&self) -> (usize, usize) {
        let passes = self.passes.iter().filter(|pass| pass.get().is_some()).count();
        (passes, self.builds.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use connreuse_core::DurationModel::{Endless, Recorded};

    #[test]
    fn quick_scenario_builds_consistent_datasets() {
        let scenario = Scenario::new(ScenarioConfig::quick());
        let (config, observed) =
            (scenario.config, |crawl, model| scenario.fold(crawl, model).observed_sites());
        assert_eq!(observed(Crawl::Har, Endless), config.archive_sites);
        assert_eq!(observed(Crawl::Alexa, Recorded), config.alexa_sites);
        assert_eq!(observed(Crawl::AlexaWithoutFetch, Recorded), config.alexa_sites);
        assert_eq!(observed(Crawl::OverlapHar, Endless), config.overlap_sites);
        assert_eq!(observed(Crawl::OverlapAlexa, Recorded), config.overlap_sites);
        assert!(scenario.har_filter_statistics().total_entries > 0);
        let alexa = scenario.fold(Crawl::Alexa, Recorded).summary("Alexa");
        assert!(alexa.total.connections > alexa.total.sites);
        // The patched crawl never opens more connections than the stock one.
        let without_fetch = scenario.fold(Crawl::AlexaWithoutFetch, Recorded).summary("w/o Fetch");
        assert!(without_fetch.total.connections <= alexa.total.connections);
        // Both overlap crawls cover the same sites: the pass folds a site
        // only when both observe it.
        assert_eq!(scenario.overlap_sites(), config.overlap_sites);
        assert_eq!(observed(Crawl::OverlapAlexa, Endless), scenario.overlap_sites());
    }
}
