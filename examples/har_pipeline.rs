//! Reproduce the HTTP-Archive side of the methodology (§4.2.1 / §4.3): load
//! every landing page three times, keep the HAR of the median load, inject
//! the corpus' logging defects, filter them the way the analysis has to, and
//! compare the redundancy picture under the "endless" and "immediate"
//! connection-duration bounds.
//!
//! ```text
//! cargo run --example har_pipeline --release
//! ```

use connreuse::prelude::*;

fn main() {
    let sites = 300;
    let seed = 7;
    println!("generating an HTTP-Archive-like population of {sites} sites...");
    let env = PopulationBuilder::new(PopulationProfile::archive(), sites, seed).build();

    println!("running the archive pipeline (3 loads per site, median HAR, defect injection)...");
    let mut corpus = ArchivePipeline::new(seed).run(&env);
    let stats = corpus.filter();

    println!();
    println!("HAR filter statistics (cf. §4.3):");
    println!("  total entries          {:>8}", stats.total_entries);
    println!("  HTTP/1 entries         {:>8}", stats.http1);
    println!("  HTTP/3 entries         {:>8}", stats.http3);
    println!("  socket id 0            {:>8}", stats.zero_socket_id);
    println!("  missing certificate    {:>8}", stats.missing_certificate);
    println!("  missing IP             {:>8}", stats.missing_ip);
    println!("  invalid method         {:>8}", stats.invalid_method);
    println!("  retained HTTP/2        {:>8}", stats.retained_http2);
    println!(
        "  dropped share          {:>7.1} %",
        stats.dropped() as f64 / stats.total_entries as f64 * 100.0
    );

    // One document as JSON, to show the captured format.
    let sample = &corpus.documents[0];
    println!();
    println!(
        "sample HAR document for {} ({} entries, {} bytes of JSON)",
        sample.landing_domain().map(|d| d.to_string()).unwrap_or_default(),
        sample.entries.len(),
        sample.to_json().len()
    );

    println!();
    println!("classifying under both duration bounds (HAR files carry no connection end times):");
    for model in [DurationModel::Endless, DurationModel::Immediate] {
        let sites = corpus.documents.iter().filter_map(site_from_har_document);
        let summary = TableFold::of_sites(model, &env.registry, sites).summary("HAR");
        println!(
            "  {:?}: {} of {} sites ({:.0} %) open redundant connections; causes IP={} CRED={} CERT={}",
            model,
            summary.redundant.sites,
            summary.total.sites,
            summary.redundant_site_share() * 100.0,
            summary.cause(Cause::Ip).connections,
            summary.cause(Cause::Cred).connections,
            summary.cause(Cause::Cert).connections
        );
    }
    println!();
    println!("the paper brackets the truth between those two bounds (76 % vs 38 % of sites).");
}
