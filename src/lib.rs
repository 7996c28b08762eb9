//! # connreuse
//!
//! A reproduction of **"Sharding and HTTP/2 Connection Reuse Revisited: Why
//! Are There Still Redundant Connections?"** (Sander, Blöcher, Wehrle, Rüth —
//! ACM IMC 2021) as a Rust workspace: the measurement substrates (DNS,
//! TLS/PKI, HTTP/2, the Fetch Standard, a Chromium-like browser, the
//! HTTP-Archive HAR pipeline, a synthetic web population), the paper's
//! redundancy classifier and attribution analyses, the Appendix-A.4 DNS
//! probe, and an experiment harness that regenerates every table and figure.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and provides a couple of convenience entry points used by the
//! examples.
//!
//! ```
//! use connreuse::prelude::*;
//!
//! // Generate a tiny Alexa-like population, crawl it like the paper's own
//! // measurement, and classify the redundant connections.
//! let env = PopulationBuilder::new(PopulationProfile::alexa(), 25, 7).build();
//! let report = Crawler::new("Alexa", BrowserConfig::alexa_measurement(), 7).crawl(&env);
//! let fold = TableFold::of_sites(DurationModel::Recorded, &env.registry, report.visits.iter().map(site_from_visit));
//! assert!(fold.summary("Alexa").redundant_site_share() > 0.5);
//! ```

pub use connreuse_core as core;
pub use connreuse_executor as executor;
pub use connreuse_experiments as experiments;
pub use connreuse_probe as probe;
pub use netsim_asdb as asdb;
pub use netsim_browser as browser;
pub use netsim_cost as cost;
pub use netsim_dns as dns;
pub use netsim_fetch as fetch;
pub use netsim_h2 as h2;
pub use netsim_har as har;
pub use netsim_store as store;
pub use netsim_tls as tls;
pub use netsim_types as types;
pub use netsim_web as web;

/// The most commonly used items, re-exported flat for examples and quick
/// experiments.
pub mod prelude {
    pub use connreuse_core::{
        classify_site, site_from_har_document, site_from_visit, Cause, CdfSeries, DatasetSummary,
        DurationModel, SiteObservation, TableFold,
    };
    pub use connreuse_experiments::{
        run_atlas, run_cost, run_sweep, AtlasConfig, AtlasReport, CostConfig, CostReport, SweepConfig,
        SweepReport,
    };
    pub use connreuse_probe::{default_pairs, DomainPair, ProbeConfig, ProbeExperiment};
    pub use netsim_browser::{Browser, BrowserConfig, Crawler, PageVisit, VisitScratch};
    pub use netsim_cost::{CostTotals, LinkProfile, VisitTimeline};
    pub use netsim_har::{ArchivePipeline, InconsistencyConfig};
    pub use netsim_types::{DomainName, Duration, Instant, Mitigation, MitigationSet, SimClock, SimRng};
    pub use netsim_web::{PopulationBuilder, PopulationProfile, WebEnvironment};
}

/// Run a small end-to-end analysis: generate a population with `sites` sites
/// from `profile`, crawl it with the stock-Chromium configuration and return
/// the classified summary (recorded connection durations).
pub fn quick_analysis(
    profile: netsim_web::PopulationProfile,
    sites: usize,
    seed: u64,
) -> connreuse_core::DatasetSummary {
    use prelude::*;
    let env = PopulationBuilder::new(profile, sites, seed).build();
    let report = Crawler::new("quick", BrowserConfig::alexa_measurement(), seed).crawl(&env);
    TableFold::of_sites(DurationModel::Recorded, &env.registry, report.visits.iter().map(site_from_visit))
        .summary("quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_analysis_produces_redundancy() {
        let summary = quick_analysis(netsim_web::PopulationProfile::alexa(), 30, 11);
        assert_eq!(summary.total.sites, 30);
        assert!(summary.redundant.connections > 0);
        assert!(summary.cause(core::Cause::Ip).connections >= summary.cause(core::Cause::Cert).connections);
    }
}
