//! Shared fixtures for the Criterion benchmarks.
//!
//! Every bench group works on the same small, deterministic fixture so that
//! run-to-run numbers are comparable: a bench-sized population per profile,
//! the corresponding crawls, and their ingested site observations.

use connreuse_core::{site_from_visit, SiteObservation};
use netsim_browser::{BrowserConfig, Crawler};
use netsim_web::{PopulationBuilder, PopulationProfile, WebEnvironment};

/// Number of sites in the bench populations (kept small so `cargo bench`
/// finishes quickly while still exercising every code path).
pub const BENCH_SITES: usize = 120;

/// Seed used by all bench fixtures.
pub const BENCH_SEED: u64 = 0xC0FFEE;

/// Build the bench-sized Alexa-profile population.
pub fn bench_environment() -> WebEnvironment {
    PopulationBuilder::new(PopulationProfile::alexa(), BENCH_SITES, BENCH_SEED).build()
}

/// The stock-Chromium crawl of the bench population, every visit ingested.
pub fn bench_sites(env: &WebEnvironment) -> Vec<SiteObservation> {
    let report = Crawler::new("bench", BrowserConfig::alexa_measurement(), BENCH_SEED).crawl(env);
    report.visits.iter().map(site_from_visit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let env = bench_environment();
        assert_eq!(env.site_count(), BENCH_SITES);
        let sites = bench_sites(&env);
        assert_eq!(sites.len(), BENCH_SITES);
        assert!(sites.iter().map(SiteObservation::connection_count).sum::<usize>() > BENCH_SITES);
    }
}
