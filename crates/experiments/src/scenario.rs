//! Scenario construction: populations, crawls and datasets shared by every
//! experiment.

use connreuse_core::{dataset_from_crawl, dataset_from_har, Dataset};
use connreuse_executor::run_indexed;
use netsim_browser::{BrowserConfig, CrawlReport, Crawler, VisitScratch};
use netsim_har::{ArchivePipeline, FilterStatistics, HarDataset};
use netsim_types::MitigationSet;
use netsim_web::{PopulationBuilder, PopulationProfile, WebEnvironment};

/// Seed offset of the Alexa-shaped population relative to the root seed.
/// Shared with the mitigation sweep so its baseline cell reproduces the
/// scenario's own Alexa measurement.
pub const ALEXA_POPULATION_SEED_OFFSET: u64 = 1;

/// Seed offset of the Alexa crawls (stock and patched) relative to the root
/// seed. Shared with the mitigation sweep and the `whatif` experiment.
pub const ALEXA_CRAWL_SEED_OFFSET: u64 = 10;

/// The recipe of the Alexa-shaped population of `sites` sites under root
/// seed `seed`, deployed with `mitigations`. Every mitigation grid (sweep,
/// cost, fleet, chaos) builds its cells from it, layered on a shared
/// deployment ([`crate::grid::Population::alexa`]), and with no mitigation
/// it is the scenario's own Alexa environment.
pub(crate) fn alexa_builder(sites: usize, seed: u64, mitigations: MitigationSet) -> PopulationBuilder {
    PopulationBuilder::new(PopulationProfile::alexa(), sites, seed + ALEXA_POPULATION_SEED_OFFSET)
        .with_mitigations(mitigations)
}

/// [`Crawler::crawl`] on `threads` executor workers, one [`VisitScratch`]
/// each; the visits come back in site order, identical to a serial crawl.
fn crawl(crawler: &Crawler, env: &WebEnvironment, threads: usize) -> CrawlReport {
    let visits = run_indexed(
        threads,
        env.sites.len(),
        |_| VisitScratch::new(),
        |scratch, index| {
            let times = crawler.visit_site_into(scratch, env, index);
            scratch.to_page_visit(&env.sites[index], times)
        },
    );
    CrawlReport { label: crawler.label().to_string(), visits: visits.results }
}

/// [`ArchivePipeline::run`] on `threads` executor workers, documents in site
/// order.
fn capture_har(pipeline: &ArchivePipeline, env: &WebEnvironment, threads: usize) -> HarDataset {
    let documents =
        run_indexed(threads, env.sites.len(), |_| (), |(), index| pipeline.crawl_site(env, index));
    HarDataset { documents: documents.results, filter_statistics: FilterStatistics::default() }
}

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

/// Everything the experiments operate on: the generated environments and the
/// four measured datasets (plus the two overlap crawls).
#[derive(Debug)]
pub struct Scenario {
    /// The configuration the scenario was built with.
    pub config: ScenarioConfig,
    /// The HTTP-Archive-shaped population.
    pub archive_env: WebEnvironment,
    /// The Alexa-shaped population.
    pub alexa_env: WebEnvironment,
    /// The shared population used for the overlap analysis.
    pub overlap_env: WebEnvironment,
    /// The HAR corpus of the archive population, after the §4.3 filter.
    pub har: Dataset,
    /// Filter bookkeeping of the HAR corpus.
    pub har_filter_statistics: FilterStatistics,
    /// The own-measurement crawl of the Alexa population (stock Chromium).
    pub alexa: Dataset,
    /// The patched crawl of the Alexa population (Fetch credentials ignored).
    pub alexa_without_fetch: Dataset,
    /// The overlap population measured through the HAR pipeline.
    pub overlap_har: Dataset,
    /// The overlap population measured like the own Alexa crawl.
    pub overlap_alexa: Dataset,
}

impl Scenario {
    /// Build the full scenario: three populations, four crawls, two HAR
    /// pipelines.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let archive_env =
            PopulationBuilder::new(PopulationProfile::archive(), config.archive_sites, config.seed).build();
        let alexa_env = alexa_builder(config.alexa_sites, config.seed, MitigationSet::empty()).build();
        let overlap_env =
            PopulationBuilder::new(PopulationProfile::alexa(), config.overlap_sites, config.seed + 2).build();

        let threads = config.threads;
        let mut har_corpus = capture_har(&ArchivePipeline::new(config.seed), &archive_env, threads);
        let har_filter_statistics = har_corpus.filter();
        let har = dataset_from_har(&har_corpus, "HAR");

        let alexa_seed = config.seed + ALEXA_CRAWL_SEED_OFFSET;
        let alexa_crawler = Crawler::new("Alexa", BrowserConfig::alexa_measurement(), alexa_seed);
        let alexa = dataset_from_crawl(&crawl(&alexa_crawler, &alexa_env, threads));

        let patched_crawler =
            Crawler::new("Alexa w/o Fetch", BrowserConfig::alexa_without_fetch(), alexa_seed);
        let alexa_without_fetch = dataset_from_crawl(&crawl(&patched_crawler, &alexa_env, threads));

        let mut overlap_har_corpus =
            capture_har(&ArchivePipeline::new(config.seed + 20), &overlap_env, threads);
        overlap_har_corpus.filter();
        let overlap_har = dataset_from_har(&overlap_har_corpus, "HAR Overlap");

        let overlap_crawler =
            Crawler::new("Alexa Overlap", BrowserConfig::alexa_measurement(), config.seed + 21);
        let overlap_alexa = dataset_from_crawl(&crawl(&overlap_crawler, &overlap_env, threads));

        Scenario {
            config,
            archive_env,
            alexa_env,
            overlap_env,
            har,
            har_filter_statistics,
            alexa,
            alexa_without_fetch,
            overlap_har,
            overlap_alexa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_builds_consistent_datasets() {
        let scenario = Scenario::build(ScenarioConfig::quick());
        assert_eq!(scenario.har.sites.len(), scenario.config.archive_sites);
        assert_eq!(scenario.alexa.sites.len(), scenario.config.alexa_sites);
        assert_eq!(scenario.alexa_without_fetch.sites.len(), scenario.config.alexa_sites);
        assert_eq!(scenario.overlap_har.sites.len(), scenario.config.overlap_sites);
        assert_eq!(scenario.overlap_alexa.sites.len(), scenario.config.overlap_sites);
        assert!(scenario.har_filter_statistics.total_entries > 0);
        let http2_sites = scenario.alexa.sites.iter().filter(|s| s.connection_count() > 0).count();
        assert!(scenario.alexa.total_connections() > http2_sites);
        // The patched crawl never opens more connections than the stock one.
        assert!(scenario.alexa_without_fetch.total_connections() <= scenario.alexa.total_connections());
        // Both overlap crawls cover the same sites.
        let har_sites: std::collections::BTreeSet<_> =
            scenario.overlap_har.sites.iter().map(|s| s.site).collect();
        let alexa_sites: std::collections::BTreeSet<_> =
            scenario.overlap_alexa.sites.iter().map(|s| s.site).collect();
        assert_eq!(har_sites, alexa_sites);
    }
}
