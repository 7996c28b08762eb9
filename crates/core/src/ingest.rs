//! Adapters from the two data sources into the observation model.
//!
//! The paper works from (1) Chromium NetLog-based captures of its own crawls
//! and (2) the HTTP Archive's HAR corpus. The simulation produces the former
//! as [`netsim_browser::PageVisit`]s and the latter as
//! [`netsim_har::HarDocument`]s; both are converted here into
//! [`SiteObservation`]s the classifier understands.

use crate::observation::{Dataset, ObservedConnection, ObservedRequest, SiteObservation};
use netsim_browser::{CrawlReport, PageVisit};
use netsim_har::{HarDataset, HarDocument};
use netsim_tls::{Issuer, SanEntry};
use netsim_types::{ConnectionId, Instant, IpAddr};
use std::collections::BTreeMap;

/// Convert one browser visit (NetLog-grade information: exact connection
/// start and end times, certificates, per-request log) into an observation.
pub fn site_from_visit(visit: &PageVisit) -> SiteObservation {
    let connections = visit
        .connections
        .iter()
        .map(|connection| ObservedConnection {
            id: connection.id,
            initial_domain: connection.initial_origin.host,
            ip: connection.remote_ip,
            port: connection.port,
            san: connection.certificate.san.clone(),
            issuer: connection.certificate.issuer.clone(),
            established_at: connection.established_at,
            closed_at: connection.closed_at,
            requests: visit
                .requests_on(connection.id)
                .map(|request| ObservedRequest {
                    domain: request.domain,
                    status: request.status,
                    started_at: request.started_at,
                })
                .collect(),
        })
        .collect();
    SiteObservation { site: visit.landing_domain, connections }
}

/// Convert a whole crawl into a dataset.
pub fn dataset_from_crawl(report: &CrawlReport) -> Dataset {
    Dataset::new(&report.label, report.visits.iter().map(site_from_visit).collect())
}

/// Convert one (already filtered) HAR document into an observation.
///
/// HAR entries carry only request-level data, so connections are
/// reconstructed by grouping entries on their socket id: the earliest entry
/// supplies the initial domain and the establishment time, the first entry
/// with certificate details supplies the SAN list and issuer, and the close
/// time is unknown (the duration models bracket it). Returns `None` when the
/// document has no parsable landing page.
pub fn site_from_har_document(document: &HarDocument) -> Option<SiteObservation> {
    let site = document.landing_domain()?;
    let mut groups: BTreeMap<u64, Vec<&netsim_har::HarEntry>> = BTreeMap::new();
    for entry in &document.entries {
        if !entry.is_http2() {
            continue;
        }
        let Ok(socket) = entry.connection.parse::<u64>() else { continue };
        if socket == 0 {
            continue;
        }
        groups.entry(socket).or_default().push(entry);
    }
    let mut connections = Vec::with_capacity(groups.len());
    for (socket, mut entries) in groups {
        entries.sort_by_key(|e| e.started_date_time);
        let first = entries[0];
        let Some(initial_domain) = first.host() else { continue };
        let Ok(ip) = first.server_ip_address.parse::<IpAddr>() else { continue };
        let Some(details) = entries.iter().find_map(|e| e.security_details.as_ref()) else { continue };
        let san: Vec<SanEntry> = details.san_list.iter().filter_map(|s| SanEntry::parse(s)).collect();
        let requests: Vec<ObservedRequest> = entries
            .iter()
            .filter_map(|entry| {
                entry.host().map(|domain| ObservedRequest {
                    domain,
                    status: entry.status,
                    started_at: entry.started_at(),
                })
            })
            .collect();
        connections.push(ObservedConnection {
            id: ConnectionId(socket),
            initial_domain,
            ip,
            port: 443,
            san,
            issuer: Issuer::named(&details.issuer),
            established_at: Instant::from_millis(first.started_date_time),
            closed_at: None,
            requests,
        });
    }
    Some(SiteObservation { site, connections })
}

/// Convert a HAR corpus into a dataset labelled `label`.
pub fn dataset_from_har(dataset: &HarDataset, label: &str) -> Dataset {
    Dataset::new(label, dataset.documents.iter().filter_map(site_from_har_document).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_browser::{Browser, BrowserConfig, Crawler, VisitScratch};
    use netsim_har::ArchivePipeline;
    use netsim_types::{SimClock, SimRng};
    use netsim_web::{PopulationBuilder, PopulationProfile, WebEnvironment};

    fn environment() -> WebEnvironment {
        PopulationBuilder::new(PopulationProfile::alexa(), 6, 17).build()
    }

    #[test]
    fn visit_ingestion_preserves_structure() {
        let env = environment();
        let mut browser = Browser::new(BrowserConfig::alexa_measurement());
        let mut clock = SimClock::new();
        let mut rng = SimRng::new(1);
        let mut scratch = VisitScratch::new();
        let times = browser.load_page_into(&mut scratch, &env, &env.sites[0], &mut clock, &mut rng);
        let visit = scratch.to_page_visit(&env.sites[0], times);
        let observation = site_from_visit(&visit);
        assert_eq!(observation.site, env.sites[0].domain);
        assert_eq!(observation.connection_count(), visit.connection_count());
        assert_eq!(observation.request_count(), visit.request_count());
        for connection in &observation.connections {
            assert!(!connection.san.is_empty());
            assert!(!connection.requests.is_empty());
            assert!(connection.covers(&connection.initial_domain));
        }
    }

    #[test]
    fn crawl_ingestion_builds_a_dataset() {
        let env = environment();
        let report = Crawler::new("alexa", BrowserConfig::alexa_measurement(), 3).crawl(&env);
        let dataset = dataset_from_crawl(&report);
        assert_eq!(dataset.label, "alexa");
        assert_eq!(dataset.sites.len(), env.sites.len());
        assert_eq!(dataset.total_connections(), report.total_connections());
        for (site, observed) in env.sites.iter().zip(&dataset.sites) {
            assert_eq!(observed.site, site.domain);
        }
    }

    #[test]
    fn har_ingestion_matches_visit_ingestion_when_clean() {
        // With no injected defects and the same browser configuration, the
        // HAR path reconstructs the same connection structure as the NetLog
        // path (minus end times, which HAR cannot carry).
        let env = environment();
        let config = BrowserConfig::http_archive_crawler();
        let report = Crawler::new("har", config.clone(), 5).crawl(&env);
        let netlog_dataset = dataset_from_crawl(&report);

        let mut har = ArchivePipeline::new(5)
            .with_config(config)
            .with_inconsistencies(netsim_har::InconsistencyConfig::none())
            .run(&env);
        har.filter();
        let har_dataset = dataset_from_har(&har, "har");

        assert_eq!(har_dataset.sites.len(), netlog_dataset.sites.len());
        for (har_site, netlog_site) in har_dataset.sites.iter().zip(netlog_dataset.sites.iter()) {
            assert_eq!(har_site.site, netlog_site.site);
            assert_eq!(har_site.connection_count(), netlog_site.connection_count());
            assert_eq!(har_site.request_count(), netlog_site.request_count());
        }
    }

    #[test]
    fn har_ingestion_skips_unusable_groups() {
        let env = environment();
        let mut har = ArchivePipeline::new(9).run(&env);
        har.filter();
        let dataset = dataset_from_har(&har, "har");
        for site in &dataset.sites {
            for connection in &site.connections {
                assert_ne!(connection.id, ConnectionId(0));
                assert!(!connection.san.is_empty());
            }
        }
    }
}
