//! Converting a browser visit into a HAR document.
//!
//! This is the logging path of the HTTP Archive crawler: per request it
//! records the URL, the socket id of the HTTP/2 session that carried it, the
//! server IP and the presented certificate. Connection *end* times are not
//! recorded — which is exactly why the paper has to evaluate the
//! endless/immediate duration bounds for the HAR-based dataset.

use crate::model::{HarDocument, HarEntry, HarPage, SecurityDetails};
use netsim_browser::PageVisit;
use netsim_tls::Certificate;

/// Build the HAR document for one visit.
pub fn capture_visit(visit: &PageVisit) -> HarDocument {
    let page_id = format!("page_{}", visit.site.value());
    let page = HarPage {
        id: page_id.clone(),
        title: format!("https://{}/", visit.landing_domain),
        started_date_time: visit.started_at.as_millis(),
    };
    let entries = visit
        .requests
        .iter()
        .map(|request| {
            let connection = visit.connection(request.connection);
            let security_details = connection.map(|c| security_details_for(&c.certificate));
            HarEntry {
                pageref: page_id.clone(),
                started_date_time: request.started_at.as_millis(),
                method: "GET".to_string(),
                url: format!("https://{}{}", request.domain, request.path),
                status: request.status,
                body_size: request.body_size as i64,
                protocol: "h2".to_string(),
                server_ip_address: connection.map(|c| c.remote_ip.to_string()).unwrap_or_default(),
                connection: request.connection.value().to_string(),
                security_details,
            }
        })
        .collect();
    HarDocument { creator: "connreuse-sim 0.1".to_string(), pages: vec![page], entries }
}

fn security_details_for(certificate: &Certificate) -> SecurityDetails {
    SecurityDetails {
        subject_name: certificate.subject.to_string(),
        san_list: certificate.san.iter().map(|entry| entry.as_text()).collect(),
        issuer: certificate.issuer.organization().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_browser::{Browser, BrowserConfig, VisitScratch};
    use netsim_types::{SimClock, SimRng};
    use netsim_web::{PopulationBuilder, PopulationProfile};

    fn sample_visit() -> PageVisit {
        let env = PopulationBuilder::new(PopulationProfile::archive(), 3, 5).build();
        let mut browser = Browser::new(BrowserConfig::http_archive_crawler());
        let mut clock = SimClock::new();
        let mut rng = SimRng::new(1);
        let mut scratch = VisitScratch::new();
        let times = browser.load_page_into(&mut scratch, &env, &env.sites[0], &mut clock, &mut rng);
        scratch.to_page_visit(&env.sites[0], times)
    }

    #[test]
    fn capture_preserves_request_count_and_sockets() {
        let visit = sample_visit();
        let har = capture_visit(&visit);
        assert_eq!(har.entries.len(), visit.request_count());
        assert_eq!(har.pages.len(), 1);
        assert_eq!(har.landing_domain().unwrap(), visit.landing_domain);
        // Socket ids in the HAR match the connection ids of the visit.
        let distinct_sockets: std::collections::BTreeSet<&str> =
            har.entries.iter().map(|e| e.connection.as_str()).collect();
        assert_eq!(distinct_sockets.len(), visit.connection_count());
    }

    #[test]
    fn every_entry_carries_ip_and_certificate() {
        let har = capture_visit(&sample_visit());
        for entry in &har.entries {
            assert!(!entry.server_ip_address.is_empty());
            assert!(entry.is_http2());
            let details = entry.security_details.as_ref().expect("certificate recorded");
            assert!(!details.san_list.is_empty());
            assert!(!details.issuer.is_empty());
        }
    }
}
