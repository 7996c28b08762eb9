//! Consistency between the two data paths the paper uses: NetLog-grade
//! browser captures and the HTTP-Archive HAR pipeline. When no logging
//! defects are injected, both must reconstruct the same session structure and
//! lead to the same classification.

use connreuse::core::DatasetSummary;
use connreuse::har::FilterStatistics;
use connreuse::prelude::*;

fn environment(sites: usize, seed: u64) -> WebEnvironment {
    PopulationBuilder::new(PopulationProfile::archive(), sites, seed).build()
}

#[test]
fn clean_har_and_netlog_classify_identically_under_endless() {
    let env = environment(120, 21);
    let config = BrowserConfig::http_archive_crawler();

    let report = Crawler::new("netlog", config.clone(), 5).crawl(&env);
    let netlog_dataset = dataset_from_crawl(&report);

    let mut corpus = ArchivePipeline::new(5)
        .with_config(config)
        .with_inconsistencies(InconsistencyConfig::none())
        .run(&env);
    corpus.filter();
    let har_dataset = dataset_from_har(&corpus, "har");

    let netlog_summary = DatasetSummary::from_classifications(
        "netlog",
        &classify_dataset(&netlog_dataset, DurationModel::Endless),
    );
    let har_summary =
        DatasetSummary::from_classifications("har", &classify_dataset(&har_dataset, DurationModel::Endless));

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
    let clean_dataset = dataset_from_har(&clean, "clean");
    let noisy_dataset = dataset_from_har(&noisy, "noisy");
    assert!(noisy_dataset.total_requests() <= clean_dataset.total_requests());
    assert!(noisy_dataset.total_connections() <= clean_dataset.total_connections());

    let clean_summary = DatasetSummary::from_classifications(
        "clean",
        &classify_dataset(&clean_dataset, DurationModel::Endless),
    );
    let noisy_summary = DatasetSummary::from_classifications(
        "noisy",
        &classify_dataset(&noisy_dataset, DurationModel::Endless),
    );
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
    let summary = |corpus| {
        DatasetSummary::from_classifications(
            "har",
            &classify_dataset(&dataset_from_har(corpus, "har"), DurationModel::Endless),
        )
    };
    assert_eq!(summary(&corpus), summary(&again));
}
