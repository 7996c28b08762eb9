//! Reproduce the paper's §5.3.3 experiment: crawl the same sites twice, once
//! with stock Chromium and once with the Fetch Standard's credentials flag
//! ("privacy mode") ignored, and measure how much redundancy disappears.
//!
//! The paper finds that the CRED cause vanishes completely and total
//! redundancy drops by roughly 25 %.
//!
//! ```text
//! cargo run --example fetch_standard_audit --release
//! ```

use connreuse::core::DatasetSummary;
use connreuse::prelude::*;

fn summarize(label: &str, env: &WebEnvironment, config: BrowserConfig, seed: u64) -> DatasetSummary {
    let report = Crawler::new(label, config, seed).crawl(env);
    TableFold::of_sites(DurationModel::Recorded, &env.registry, report.visits.iter().map(site_from_visit))
        .summary(label)
}

fn main() {
    let sites = 400;
    let seed = 20_210_420;
    println!("building the population once; crawling it under two browser configurations...");
    let env = PopulationBuilder::new(PopulationProfile::alexa(), sites, seed).build();

    let stock = summarize("stock Chromium", &env, BrowserConfig::alexa_measurement(), seed);
    let patched = summarize("Chromium w/o Fetch flag", &env, BrowserConfig::alexa_without_fetch(), seed);

    println!();
    println!("metric                              stock      w/o Fetch flag");
    println!("----------------------------------  ---------  --------------");
    println!(
        "connections opened                  {:>9}  {:>14}",
        stock.total.connections, patched.total.connections
    );
    println!(
        "redundant connections               {:>9}  {:>14}",
        stock.redundant.connections, patched.redundant.connections
    );
    for cause in Cause::ALL {
        println!(
            "  of cause {:<4}                     {:>9}  {:>14}",
            cause.label(),
            stock.cause(cause).connections,
            patched.cause(cause).connections
        );
    }
    println!(
        "sites with redundancy               {:>8.0} %  {:>13.0} %",
        stock.redundant_site_share() * 100.0,
        patched.redundant_site_share() * 100.0
    );

    let reduction = 1.0 - patched.redundant.connections as f64 / stock.redundant.connections.max(1) as f64;
    println!();
    println!(
        "ignoring the Fetch credentials flag removes the CRED cause entirely and reduces \
         redundant connections by {:.0} % (paper: ~25 %)",
        reduction * 100.0
    );
    assert_eq!(patched.cause(Cause::Cred).connections, 0, "CRED must vanish without the Fetch flag");
}
