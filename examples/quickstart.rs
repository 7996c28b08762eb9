//! Quickstart: generate a small web population, crawl it like the paper's
//! own Chromium measurement, classify the redundant HTTP/2 connections and
//! print a Table-1-style summary.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use connreuse::prelude::*;

fn main() {
    let sites = 400;
    let seed = 42;

    println!("generating an Alexa-like population of {sites} sites (seed {seed})...");
    let env = PopulationBuilder::new(PopulationProfile::alexa(), sites, seed).build();
    println!(
        "  {} sites, {} planned requests, {} certificates, {} DNS names",
        env.site_count(),
        env.total_planned_requests(),
        env.certificates.len(),
        env.authority.name_count()
    );

    println!("crawling with the stock Chromium configuration (Fetch credentials respected)...");
    let report = Crawler::new("Alexa", BrowserConfig::alexa_measurement(), seed).crawl(&env);
    println!(
        "  {} page visits, {} HTTP/2 connections, {} requests",
        report.site_count(),
        report.total_connections(),
        report.total_requests()
    );

    println!("classifying redundant connections (RFC 7540 §9.1.1 reuse analysis)...");
    let fold = TableFold::of_sites(
        DurationModel::Recorded,
        &env.registry,
        report.visits.iter().map(site_from_visit),
    );
    let summary = fold.summary("Alexa");

    println!();
    println!("cause      sites affected   connections affected");
    println!("---------  ---------------  --------------------");
    for cause in Cause::ALL {
        let counts = summary.cause(cause);
        println!(
            "{:<9}  {:>6} ({:>4.0} %)   {:>7} ({:>4.1} %)",
            cause.label(),
            counts.sites,
            summary.site_share(cause) * 100.0,
            counts.connections,
            summary.connection_share(cause) * 100.0
        );
    }
    println!(
        "redundant  {:>6} ({:>4.0} %)   {:>7} ({:>4.1} %)",
        summary.redundant.sites,
        summary.redundant_site_share() * 100.0,
        summary.redundant.connections,
        summary.redundant_connection_share() * 100.0
    );
    println!("total      {:>6}            {:>7}", summary.total.sites, summary.total.connections);

    let series = fold.redundancy_series("Alexa", 15);
    println!();
    println!(
        "half of all sites open at least {} redundant connections (paper: ~6 for the Alexa top list)",
        series.median()
    );
}
