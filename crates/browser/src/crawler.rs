//! The Browsertime stand-in: crawl a whole population.
//!
//! The paper's own measurement visits the Alexa Top 100k once per
//! configuration; the HTTP Archive visits millions of sites. The crawler
//! walks every site of a generated population with a given browser
//! configuration, spacing visits in simulated time (which matters because
//! DNS load-balancer assignments drift across epochs) and producing the
//! [`PageVisit`] dataset the analysis core ingests. Visits are independent of
//! each other: a caller that wants several threads schedules
//! [`Crawler::visit_site_into`] itself, one [`VisitScratch`] per worker, and
//! gets the same visits.

use crate::config::BrowserConfig;
use crate::loader::Browser;
use crate::scratch::{VisitScratch, VisitTimes};
use crate::visit::PageVisit;
use netsim_types::{Duration, Instant, SimClock, SimRng};
use netsim_web::WebEnvironment;

/// Identifier spacing between sites so connection/request ids never collide
/// across visits.
const ID_STRIDE: u64 = 1_000_000;

/// The result of crawling a population.
#[derive(Clone, Debug)]
pub struct CrawlReport {
    /// Name of the browser configuration used (for report headings).
    pub label: String,
    /// One visit per reachable site, in site order.
    pub visits: Vec<PageVisit>,
}

impl CrawlReport {
    /// Number of visited sites.
    pub fn site_count(&self) -> usize {
        self.visits.len()
    }

    /// Total connections opened across all visits.
    pub fn total_connections(&self) -> usize {
        self.visits.iter().map(|v| v.connection_count()).sum()
    }

    /// Total requests sent across all visits.
    pub fn total_requests(&self) -> usize {
        self.visits.iter().map(|v| v.request_count()).sum()
    }
}

/// Crawls every site of a population with one browser configuration.
#[derive(Clone, Debug)]
pub struct Crawler {
    config: BrowserConfig,
    label: String,
    seed: u64,
}

impl Crawler {
    /// A crawler with the given configuration and seed.
    pub fn new(label: &str, config: BrowserConfig, seed: u64) -> Self {
        Crawler { config, label: label.to_string(), seed }
    }

    /// The label reports head their tables with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The browser configuration.
    pub fn config(&self) -> &BrowserConfig {
        &self.config
    }

    /// Visit every site of `env`, in site order.
    pub fn crawl(&self, env: &WebEnvironment) -> CrawlReport {
        let mut scratch = VisitScratch::new();
        let visits = (0..env.sites.len())
            .map(|index| {
                let times = self.visit_site_into(&mut scratch, env, index);
                scratch.to_page_visit(&env.sites[index], times)
            })
            .collect();
        CrawlReport { label: self.label.clone(), visits }
    }

    /// Visit one site at its slot in the crawl timeline.
    ///
    /// The visit's clock offset, id base and RNG stream are all derived from
    /// the site's *global* id (`Website::id`), not its position in
    /// `env.sites`. For monolithic populations the two coincide; for chunked
    /// populations (`PopulationBuilder::with_site_offset`, used by the atlas
    /// scale scenario) this keeps every visit byte-identical to the one a
    /// single giant environment would produce.
    pub fn visit_site(&self, env: &WebEnvironment, index: usize) -> PageVisit {
        let mut scratch = VisitScratch::new();
        let times = self.visit_site_into(&mut scratch, env, index);
        scratch.to_page_visit(&env.sites[index], times)
    }

    /// Visit one site into a reusable per-worker scratch — the
    /// zero-allocation form of [`Crawler::visit_site`]. The visit's
    /// connections and requests are left in `scratch`; the returned
    /// [`VisitTimes`] carries the start/finish instants.
    pub fn visit_site_into(
        &self,
        scratch: &mut VisitScratch,
        env: &WebEnvironment,
        index: usize,
    ) -> VisitTimes {
        let site = &env.sites[index];
        let global = site.id.value();
        let start = Instant::EPOCH + Duration::from_secs(self.config.visit_spacing_secs * global);
        let mut clock = SimClock::starting_at(start);
        let mut browser = Browser::with_id_base(self.config.clone(), global * ID_STRIDE);
        let mut rng = SimRng::new(self.seed).fork_indexed("visit", global);
        browser.load_page_into(scratch, env, site, &mut clock, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_web::{PopulationBuilder, PopulationProfile};

    fn env(sites: usize) -> WebEnvironment {
        PopulationBuilder::new(PopulationProfile::archive(), sites, 77).build()
    }

    #[test]
    fn crawl_visits_every_site_once() {
        let environment = env(25);
        let report = Crawler::new("archive", BrowserConfig::http_archive_crawler(), 1).crawl(&environment);
        assert_eq!(report.site_count(), 25);
        assert_eq!(report.label, "archive");
        assert!(report.total_requests() >= 25);
        assert!(report.total_connections() >= 25);
        for (index, visit) in report.visits.iter().enumerate() {
            assert_eq!(visit.site.value(), index as u64);
        }
    }

    #[test]
    fn connection_ids_are_unique_across_the_crawl() {
        let environment = env(12);
        let report = Crawler::new("alexa", BrowserConfig::alexa_measurement(), 2).crawl(&environment);
        let mut ids = std::collections::BTreeSet::new();
        for visit in &report.visits {
            for connection in &visit.connections {
                assert!(ids.insert(connection.id), "duplicate connection id {}", connection.id);
            }
        }
    }

    #[test]
    fn visit_spacing_staggers_start_times() {
        let environment = env(3);
        let report = Crawler::new("alexa", BrowserConfig::alexa_measurement(), 3).crawl(&environment);
        assert!(report.visits[0].started_at < report.visits[1].started_at);
        assert!(report.visits[1].started_at < report.visits[2].started_at);
    }
}
