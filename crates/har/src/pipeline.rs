//! The HTTP-Archive crawl pipeline.
//!
//! For every site the HTTP Archive loads the landing page three times and
//! saves the HAR of the median load time (§4.2.1); the analysis then filters
//! entries that carry any of the §4.3 logging defects and conservatively
//! drops them, tracking how much was lost. [`ArchivePipeline`] reproduces the
//! crawl+select+corrupt sequence and [`HarDataset::filter`] the clean-up, so
//! the downstream classifier works on the same kind of material the paper's
//! HAR analysis did.

use crate::capture::capture_visit;
use crate::inconsistency::InconsistencyConfig;
use crate::model::HarDocument;
use netsim_browser::{Browser, BrowserConfig, VisitScratch};
use netsim_types::{Duration, Instant, SimClock, SimRng};
use netsim_web::WebEnvironment;

/// How many times each landing page is loaded before taking the median.
const LOADS_PER_SITE: usize = 3;

/// Identifier spacing so ids are unique across sites and repeat loads.
const ID_STRIDE: u64 = 1_000_000;

netsim_types::counters! {
    /// Counters describing what the filter step removed — the §4.3
    /// bookkeeping. The generated `merge` folds another site's statistics.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct FilterStatistics {
        /// Entries with socket id 0.
        pub zero_socket_id: u64,
        /// Entries without a server IP.
        pub missing_ip: u64,
        /// Entries with an invalid request method.
        pub invalid_method: u64,
        /// Entries logged as HTTP/1.
        pub http1: u64,
        /// Entries logged as HTTP/3.
        pub http3: u64,
        /// Entries without certificate details.
        pub missing_certificate: u64,
        /// Entries referencing a non-existent page.
        pub bad_page_reference: u64,
        /// HTTP/2 entries that survived every check.
        pub retained_http2: u64,
        /// Total entries inspected.
        pub total_entries: u64,
    }
}

impl FilterStatistics {
    /// Total entries dropped for any reason.
    pub fn dropped(&self) -> u64 {
        self.total_entries - self.retained_http2
    }

    /// Apply the §4.3 filter to one document: drop its defective entries in
    /// place and count what was inspected and dropped.
    pub fn filter(&mut self, document: &mut HarDocument) {
        let valid_pages: std::collections::BTreeSet<&str> =
            document.pages.iter().map(|p| p.id.as_str()).collect();
        document.entries.retain(|entry| {
            self.total_entries += 1;
            if entry.protocol == "http/1.1" {
                self.http1 += 1;
                return false;
            }
            if entry.protocol == "h3" {
                self.http3 += 1;
                return false;
            }
            if entry.connection == "0" || entry.connection.is_empty() {
                self.zero_socket_id += 1;
                return false;
            }
            if entry.server_ip_address.is_empty() {
                self.missing_ip += 1;
                return false;
            }
            if entry.method != "GET" && entry.method != "POST" && entry.method != "HEAD" {
                self.invalid_method += 1;
                return false;
            }
            if entry.security_details.is_none() {
                self.missing_certificate += 1;
                return false;
            }
            if !valid_pages.contains(entry.pageref.as_str()) {
                self.bad_page_reference += 1;
                return false;
            }
            self.retained_http2 += 1;
            true
        });
    }
}

/// A corpus of HAR documents, one per site.
#[derive(Clone, Debug)]
pub struct HarDataset {
    /// One median-load HAR per site, in site order.
    pub documents: Vec<HarDocument>,
}

impl HarDataset {
    /// Total entries across all documents.
    pub fn total_entries(&self) -> usize {
        self.documents.iter().map(|d| d.entries.len()).sum()
    }

    /// Apply the §4.3 filter: drop defective entries in place and record what
    /// was dropped. Returns the accumulated statistics.
    pub fn filter(&mut self) -> FilterStatistics {
        let mut stats = FilterStatistics::default();
        self.documents.iter_mut().for_each(|document| stats.filter(document));
        stats
    }
}

/// The crawl half of the pipeline: load every site three times, keep the
/// median-load HAR, inject logging defects.
#[derive(Clone, Debug)]
pub struct ArchivePipeline {
    config: BrowserConfig,
    inconsistencies: InconsistencyConfig,
    seed: u64,
}

impl ArchivePipeline {
    /// A pipeline with the HTTP-Archive crawler configuration and default
    /// defect rates.
    pub fn new(seed: u64) -> Self {
        ArchivePipeline {
            config: BrowserConfig::http_archive_crawler(),
            inconsistencies: InconsistencyConfig::default(),
            seed,
        }
    }

    /// Override the browser configuration.
    pub fn with_config(mut self, config: BrowserConfig) -> Self {
        self.config = config;
        self
    }

    /// Override the defect-injection rates.
    pub fn with_inconsistencies(mut self, config: InconsistencyConfig) -> Self {
        self.inconsistencies = config;
        self
    }

    /// Crawl the population and produce the HAR corpus (unfiltered).
    pub fn run(&self, env: &WebEnvironment) -> HarDataset {
        let mut scratch = VisitScratch::new();
        HarDataset {
            documents: (0..env.sites.len()).map(|index| self.crawl_site(&mut scratch, env, index)).collect(),
        }
    }

    /// Crawl one site into the caller's reusable `scratch`: three loads,
    /// median selection, defect injection. Like
    /// `netsim_browser::Crawler::visit_site_into`, the visit times, id bases
    /// and RNG streams derive from the site's *global* id, so a population
    /// captured chunk by chunk (`PopulationBuilder::with_site_offset`) yields
    /// the documents of one whole capture, and sites may be crawled on
    /// several threads.
    pub fn crawl_site(&self, scratch: &mut VisitScratch, env: &WebEnvironment, index: usize) -> HarDocument {
        let site = &env.sites[index];
        let global = site.id.value();
        let base = Instant::EPOCH + Duration::from_secs(self.config.visit_spacing_secs * global);
        let mut loads = Vec::with_capacity(LOADS_PER_SITE);
        for attempt in 0..LOADS_PER_SITE as u64 {
            let mut clock = SimClock::starting_at(base + Duration::from_secs(60 * attempt));
            let id_base = (global * LOADS_PER_SITE as u64 + attempt) * ID_STRIDE;
            let mut browser = Browser::with_id_base(self.config.clone(), id_base);
            let mut rng = SimRng::new(self.seed).fork_indexed("har-load", id_base);
            let times = browser.load_page_into(scratch, env, site, &mut clock, &mut rng);
            loads.push(capture_visit(&scratch.to_page_visit(site, times)));
        }
        loads.sort_by_key(|d| d.load_time_ms());
        let mut median = loads.swap_remove(LOADS_PER_SITE / 2);
        let mut rng = SimRng::new(self.seed).fork_indexed("har-defects", global);
        self.inconsistencies.apply(&mut median, &mut rng);
        median
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_web::{PopulationBuilder, PopulationProfile};

    fn env(sites: usize) -> WebEnvironment {
        PopulationBuilder::new(PopulationProfile::archive(), sites, 13).build()
    }

    #[test]
    fn pipeline_produces_one_document_per_site() {
        let environment = env(10);
        let dataset = ArchivePipeline::new(3).run(&environment);
        assert_eq!(dataset.documents.len(), 10);
        assert!(dataset.total_entries() >= 10);
        for (index, document) in dataset.documents.iter().enumerate() {
            assert_eq!(
                document.landing_domain().unwrap(),
                environment.sites[index].domain,
                "document {index} belongs to the right site"
            );
        }
    }

    #[test]
    fn filter_removes_defective_entries_and_counts_them() {
        let environment = env(20);
        let mut dataset = ArchivePipeline::new(5).run(&environment);
        let before = dataset.total_entries();
        let stats = dataset.filter();
        assert_eq!(stats.total_entries as usize, before);
        assert_eq!(stats.retained_http2 as usize, dataset.total_entries());
        assert_eq!(stats.dropped(), stats.total_entries - stats.retained_http2);
        // The default defect rates hit around 10 % of entries.
        let dropped_share = stats.dropped() as f64 / stats.total_entries as f64;
        assert!(dropped_share > 0.02 && dropped_share < 0.3, "dropped share {dropped_share}");
        // After filtering, every remaining entry is clean HTTP/2.
        for document in &dataset.documents {
            for entry in &document.entries {
                assert!(entry.is_http2());
                assert_ne!(entry.connection, "0");
                assert!(entry.security_details.is_some());
            }
        }
    }

    #[test]
    fn clean_capture_passes_the_filter_untouched() {
        let environment = env(5);
        let mut dataset =
            ArchivePipeline::new(7).with_inconsistencies(InconsistencyConfig::none()).run(&environment);
        let before = dataset.total_entries();
        let stats = dataset.filter();
        assert_eq!(stats.dropped(), 0);
        assert_eq!(dataset.total_entries(), before);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let environment = env(8);
        let a = ArchivePipeline::new(11).run(&environment);
        let b = ArchivePipeline::new(11).run(&environment);
        assert_eq!(a.documents, b.documents);
    }

    /// `document` with each server address replaced by its first-seen rank.
    /// A chunk build allocates its sites' address blocks from its own
    /// counter, so across builds only which entries share an address is
    /// comparable, as for the classifier.
    fn addresses_ranked(mut document: HarDocument) -> HarDocument {
        let mut seen: Vec<String> = Vec::new();
        for entry in &mut document.entries {
            if !seen.contains(&entry.server_ip_address) {
                seen.push(entry.server_ip_address.clone());
            }
            let rank = seen.iter().position(|address| *address == entry.server_ip_address);
            entry.server_ip_address = format!("#{rank:?}");
        }
        document
    }

    /// Visit times, id bases and RNG streams follow the global site id, so
    /// a capture chunk by chunk is the whole capture, document for document.
    #[test]
    fn a_capture_built_in_chunks_equals_the_whole_capture() {
        let pipeline = ArchivePipeline::new(17);
        let whole = pipeline.run(&env(12));
        let mut scratch = VisitScratch::new();
        for start in (0..12).step_by(5) {
            let len = 5.min(12 - start);
            let chunk =
                PopulationBuilder::new(PopulationProfile::archive(), len, 13).with_site_offset(start).build();
            for index in 0..len {
                let document = pipeline.crawl_site(&mut scratch, &chunk, index);
                let expected = whole.documents[start + index].clone();
                if start == 0 {
                    assert_eq!(document, expected, "site {index}");
                }
                assert_eq!(addresses_ranked(document), addresses_ranked(expected), "site {}", start + index);
            }
        }
    }

    #[test]
    fn filter_statistics_merge_adds_up() {
        let mut a = FilterStatistics { http1: 3, total_entries: 10, retained_http2: 7, ..Default::default() };
        let b = FilterStatistics { http3: 2, total_entries: 5, retained_http2: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.total_entries, 15);
        assert_eq!(a.retained_http2, 10);
        assert_eq!(a.http1, 3);
        assert_eq!(a.http3, 2);
        assert_eq!(a.dropped(), 5);
    }
}
