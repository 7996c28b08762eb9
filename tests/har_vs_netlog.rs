//! Consistency between the two data paths the paper uses: NetLog-grade
//! browser captures and the HTTP-Archive HAR pipeline. When no logging
//! defects are injected, both must reconstruct the same session structure and
//! lead to the same classification.

use connreuse::core::DatasetSummary;
use connreuse::har::{FilterStatistics, HarDataset};
use connreuse::prelude::*;

/// Every site of a filtered HAR corpus, ingested.
fn har_sites(corpus: &HarDataset) -> Vec<SiteObservation> {
    corpus.documents.iter().filter_map(site_from_har_document).collect()
}

/// The one-pass summary of `sites` under the endless model.
fn endless_summary(env: &WebEnvironment, label: &str, sites: Vec<SiteObservation>) -> DatasetSummary {
    TableFold::of_sites(DurationModel::Endless, &env.registry, sites).summary(label)
}

fn environment(sites: usize, seed: u64) -> WebEnvironment {
    PopulationBuilder::new(PopulationProfile::archive(), sites, seed).build()
}

#[test]
fn clean_har_and_netlog_classify_identically_under_endless() {
    let env = environment(120, 21);
    let config = BrowserConfig::http_archive_crawler();

    let report = Crawler::new("netlog", config.clone(), 5).crawl(&env);

    let mut corpus = ArchivePipeline::new(5)
        .with_config(config)
        .with_inconsistencies(InconsistencyConfig::none())
        .run(&env);
    corpus.filter();

    let netlog_summary = endless_summary(&env, "netlog", report.visits.iter().map(site_from_visit).collect());
    let har_summary = endless_summary(&env, "har", har_sites(&corpus));

    assert_eq!(netlog_summary.total, har_summary.total);
    assert_eq!(netlog_summary.redundant, har_summary.redundant);
    for cause in Cause::ALL {
        assert_eq!(netlog_summary.cause(cause), har_summary.cause(cause), "cause {cause} differs");
    }
}

#[test]
fn defect_injection_only_removes_information() {
    let env = environment(120, 22);
    let config = BrowserConfig::http_archive_crawler();

    let mut clean = ArchivePipeline::new(9)
        .with_config(config.clone())
        .with_inconsistencies(InconsistencyConfig::none())
        .run(&env);
    let clean_stats: FilterStatistics = clean.filter();

    let mut noisy = ArchivePipeline::new(9).with_config(config).run(&env);
    let noisy_stats: FilterStatistics = noisy.filter();

    assert_eq!(clean_stats.dropped(), 0);
    assert!(noisy_stats.dropped() > 0);
    assert!(noisy_stats.retained_http2 <= clean_stats.retained_http2);

    // Conservative filtering can only shrink the analyzable dataset.
    let (clean_sites, noisy_sites) = (har_sites(&clean), har_sites(&noisy));
    let total = |sites: &[SiteObservation], count: fn(&SiteObservation) -> usize| -> usize {
        sites.iter().map(count).sum()
    };
    assert!(
        total(&noisy_sites, SiteObservation::request_count)
            <= total(&clean_sites, SiteObservation::request_count)
    );
    assert!(
        total(&noisy_sites, SiteObservation::connection_count)
            <= total(&clean_sites, SiteObservation::connection_count)
    );

    let clean_summary = endless_summary(&env, "clean", clean_sites);
    let noisy_summary = endless_summary(&env, "noisy", noisy_sites);
    assert!(noisy_summary.redundant.connections <= clean_summary.redundant.connections);
}

#[test]
fn har_json_carries_what_the_classification_reads() {
    let env = environment(40, 23);
    let pipeline = || ArchivePipeline::new(11).with_inconsistencies(InconsistencyConfig::none()).run(&env);
    let mut corpus = pipeline();
    corpus.filter();

    // Every field the session reconstruction reads is in the exported JSON,
    // in entry order, as an external consumer of the corpus would find it.
    for document in &corpus.documents {
        let json = document.to_json();
        let mut cursor = 0;
        for entry in &document.entries {
            let details = entry.security_details.as_ref().expect("no defects injected");
            let fields = [
                format!("\"url\": \"{}\"", entry.url),
                format!("\"serverIPAddress\": \"{}\"", entry.server_ip_address),
                format!("\"connection\": \"{}\"", entry.connection),
            ];
            let sans = details.san_list.iter().map(|san| format!("\"{san}\""));
            for field in fields.into_iter().chain(sans) {
                let found = json[cursor..].find(&field).unwrap_or_else(|| panic!("{field} missing"));
                cursor += found + field.len();
            }
        }
    }

    // The same pipeline yields the same documents, JSON and classification.
    let mut again = pipeline();
    again.filter();
    assert_eq!(again.documents, corpus.documents);
    assert_eq!(
        endless_summary(&env, "har", har_sites(&corpus)),
        endless_summary(&env, "har", har_sites(&again))
    );
}
