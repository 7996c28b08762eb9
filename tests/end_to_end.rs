//! End-to-end integration tests spanning the whole pipeline: population
//! generation → browser crawl → ingestion → classification → aggregation,
//! checking the structural findings the paper reports.

use connreuse::prelude::*;

/// Crawl `env` with `config` and fold every visit under `model`.
fn crawl_fold(env: &WebEnvironment, config: BrowserConfig, seed: u64, model: DurationModel) -> TableFold {
    let report = Crawler::new("test", config, seed).crawl(env);
    TableFold::of_sites(model, &env.registry, report.visits.iter().map(site_from_visit))
}

/// An Alexa-like population crawled like the paper's own measurement.
fn alexa_fold(sites: usize, seed: u64) -> TableFold {
    let env = PopulationBuilder::new(PopulationProfile::alexa(), sites, seed).build();
    crawl_fold(&env, BrowserConfig::alexa_measurement(), seed, DurationModel::Recorded)
}

#[test]
fn full_pipeline_reproduces_the_cause_ordering() {
    let summary = alexa_fold(250, 1).summary("alexa");

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

    let summary = |visits: &[PageVisit], label| {
        TableFold::of_sites(DurationModel::Recorded, &env.registry, visits.iter().map(site_from_visit))
            .summary(label)
    };
    let (stock_summary, patched_summary) =
        (summary(&stock.visits, "stock"), summary(&patched.visits, "patched"));

    assert_eq!(patched_summary.cause(Cause::Cred).connections, 0);
    assert!(patched_summary.redundant.connections < stock_summary.redundant.connections);
    assert!(patched.total_connections() < stock.total_connections());
    // Other causes persist: the patch only addresses the Fetch partition.
    assert!(patched_summary.cause(Cause::Ip).connections > 0);
}

#[test]
fn attribution_points_at_the_services_the_paper_names() {
    let fold = alexa_fold(300, 5);
    let attribution = fold.attribution();

    let origins = attribution.ip_origins(10);
    assert!(!origins.is_empty());
    let origin_names: Vec<String> = origins.iter().map(|o| o.origin.to_string()).collect();
    assert!(
        origin_names.iter().any(|n| n == "www.google-analytics.com" || n == "www.facebook.com"),
        "expected analytics or facebook among top IP origins, got {origin_names:?}"
    );

    let issuers = attribution.cert_issuers(5);
    assert!(!issuers.is_empty());
    let issuer_names: Vec<&str> = issuers.iter().map(|row| row.issuer.organization()).collect();
    assert!(
        issuer_names.iter().any(|name| *name == "Let's Encrypt"
            || *name == "Google Trust Services"
            || *name == "DigiCert Inc"),
        "expected LE/GTS/DigiCert among the top CERT issuers, got {issuer_names:?}"
    );

    let ases = attribution.ip_systems(5);
    assert!(!ases.is_empty());
    assert!(
        ases.iter().any(|row| row.system.name == "GOOGLE" || row.system.name == "FACEBOOK"),
        "expected GOOGLE or FACEBOOK among top IP-cause ASes"
    );
}

#[test]
fn duration_models_are_ordered() {
    let env = PopulationBuilder::new(PopulationProfile::archive(), 200, 9).build();
    let [endless, immediate, recorded] = [
        (DurationModel::Endless, "endless"),
        (DurationModel::Immediate, "immediate"),
        (DurationModel::Recorded, "recorded"),
    ]
    .map(|(model, label)| crawl_fold(&env, BrowserConfig::http_archive_crawler(), 9, model).summary(label));
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
    let run = || alexa_fold(60, 77).summary("alexa");
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
    let origins = crawl_fold(&env, config, 13, DurationModel::Recorded).attribution().ip_origins(30);
    assert!(
        origins.iter().any(|o| o.origin == DomainName::literal("www.google-analytics.com")),
        "analytics should appear among the IP-cause origins"
    );
}
