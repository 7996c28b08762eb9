//! End-to-end integration tests spanning the whole pipeline: population
//! generation → browser crawl → ingestion → classification → aggregation,
//! checking the structural findings the paper reports.

use connreuse::core::{attribution, DatasetSummary};
use connreuse::prelude::*;

fn build_and_crawl(
    profile: PopulationProfile,
    sites: usize,
    seed: u64,
    config: BrowserConfig,
) -> (WebEnvironment, Dataset) {
    let env = PopulationBuilder::new(profile, sites, seed).build();
    let report = Crawler::new("test", config, seed).crawl(&env);
    let dataset = dataset_from_crawl(&report);
    (env, dataset)
}

#[test]
fn full_pipeline_reproduces_the_cause_ordering() {
    let (_env, dataset) =
        build_and_crawl(PopulationProfile::alexa(), 250, 1, BrowserConfig::alexa_measurement());
    let classifications = classify_dataset(&dataset, DurationModel::Recorded);
    let summary = DatasetSummary::from_classifications("alexa", &classifications);

    // The paper's qualitative findings: most sites are redundant, IP is the
    // leading cause by connections, CRED affects many sites but fewer
    // connections, CERT is the smallest contributor.
    assert!(summary.redundant_site_share() > 0.75, "redundant sites {:.2}", summary.redundant_site_share());
    assert!(summary.cause(Cause::Ip).connections > summary.cause(Cause::Cred).connections);
    assert!(summary.cause(Cause::Cred).connections > summary.cause(Cause::Cert).connections);
    assert!(summary.site_share(Cause::Ip) > summary.site_share(Cause::Cert));
    assert!(summary.site_share(Cause::Cred) > summary.site_share(Cause::Cert));
    // Cause sums may exceed the redundant totals (multi-cause connections).
    let cause_connection_sum: usize = Cause::ALL.iter().map(|c| summary.cause(*c).connections).sum();
    assert!(cause_connection_sum >= summary.redundant.connections);
}

#[test]
fn patched_browser_removes_cred_and_reduces_redundancy() {
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 200, 3).build();
    let stock = Crawler::new("stock", BrowserConfig::alexa_measurement(), 3).crawl(&env);
    let patched = Crawler::new("patched", BrowserConfig::alexa_without_fetch(), 3).crawl(&env);

    let stock_summary = DatasetSummary::from_classifications(
        "stock",
        &classify_dataset(&dataset_from_crawl(&stock), DurationModel::Recorded),
    );
    let patched_summary = DatasetSummary::from_classifications(
        "patched",
        &classify_dataset(&dataset_from_crawl(&patched), DurationModel::Recorded),
    );

    assert_eq!(patched_summary.cause(Cause::Cred).connections, 0);
    assert!(patched_summary.redundant.connections < stock_summary.redundant.connections);
    assert!(patched.total_connections() < stock.total_connections());
    // Other causes persist: the patch only addresses the Fetch partition.
    assert!(patched_summary.cause(Cause::Ip).connections > 0);
}

#[test]
fn attribution_points_at_the_services_the_paper_names() {
    let (env, dataset) =
        build_and_crawl(PopulationProfile::alexa(), 300, 5, BrowserConfig::alexa_measurement());
    let classifications = classify_dataset(&dataset, DurationModel::Recorded);

    let origins = attribution::top_origins_for_cause(&dataset, &classifications, Cause::Ip, 10);
    assert!(!origins.is_empty());
    let origin_names: Vec<String> = origins.iter().map(|o| o.origin.to_string()).collect();
    assert!(
        origin_names.iter().any(|n| n == "www.google-analytics.com" || n == "www.facebook.com"),
        "expected analytics or facebook among top IP origins, got {origin_names:?}"
    );

    let issuers = attribution::cert_issuers(&dataset, &classifications, 5);
    assert!(!issuers.is_empty());
    let issuer_names: Vec<&str> = issuers.iter().map(|row| row.issuer.organization()).collect();
    assert!(
        issuer_names.iter().any(|name| *name == "Let's Encrypt"
            || *name == "Google Trust Services"
            || *name == "DigiCert Inc"),
        "expected LE/GTS/DigiCert among the top CERT issuers, got {issuer_names:?}"
    );

    let ases = attribution::asn_for_ip_cause(&dataset, &classifications, &env.registry, 5);
    assert!(!ases.is_empty());
    assert!(
        ases.iter().any(|row| row.system.name == "GOOGLE" || row.system.name == "FACEBOOK"),
        "expected GOOGLE or FACEBOOK among top IP-cause ASes"
    );
}

#[test]
fn duration_models_are_ordered() {
    let (_env, dataset) =
        build_and_crawl(PopulationProfile::archive(), 200, 9, BrowserConfig::http_archive_crawler());
    let endless =
        DatasetSummary::from_classifications("endless", &classify_dataset(&dataset, DurationModel::Endless));
    let immediate = DatasetSummary::from_classifications(
        "immediate",
        &classify_dataset(&dataset, DurationModel::Immediate),
    );
    let recorded = DatasetSummary::from_classifications(
        "recorded",
        &classify_dataset(&dataset, DurationModel::Recorded),
    );
    // Endless is the upper bound; immediate the lower bound. The HTTP-Archive
    // crawl never records close times, so recorded == endless there.
    assert!(endless.redundant.connections >= immediate.redundant.connections);
    assert_eq!(endless.redundant.connections, recorded.redundant.connections);
    for cause in Cause::ALL {
        assert!(endless.cause(cause).connections >= immediate.cause(cause).connections);
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let (_env, dataset) =
            build_and_crawl(PopulationProfile::alexa(), 60, 77, BrowserConfig::alexa_measurement());
        let classifications = classify_dataset(&dataset, DurationModel::Recorded);
        DatasetSummary::from_classifications("alexa", &classifications)
    };
    assert_eq!(run(), run());
}

#[test]
fn probe_and_crawl_agree_on_the_analytics_pair() {
    // If the probe says the analytics pair overlaps for some resolvers only,
    // the crawl must also show connection splits for that pair on some sites.
    let env = PopulationBuilder::new(PopulationProfile::alexa(), 200, 13).build();
    let probe = ProbeExperiment::new(ProbeConfig {
        interval: Duration::from_mins(30),
        duration: Duration::from_days(1),
        pairs: vec![DomainPair::new("www.google-analytics.com", "www.googletagmanager.com")],
    });
    let matrix = probe.run(&env.authority);
    let mean_overlap = matrix.mean_overlap(0);
    assert!(mean_overlap < 14.0, "pair should not always overlap (mean {mean_overlap})");

    // Space the visits out so the crawl covers several load-balancing epochs,
    // like the real multi-day measurement does.
    let config = BrowserConfig { visit_spacing_secs: 300, ..BrowserConfig::alexa_measurement() };
    let report = Crawler::new("alexa", config, 13).crawl(&env);
    let dataset = dataset_from_crawl(&report);
    let classifications = classify_dataset(&dataset, DurationModel::Recorded);
    let origins = attribution::top_origins_for_cause(&dataset, &classifications, Cause::Ip, 30);
    assert!(
        origins.iter().any(|o| o.origin == DomainName::literal("www.google-analytics.com")),
        "analytics should appear among the IP-cause origins"
    );
}
