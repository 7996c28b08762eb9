//! Injecting the §4.3 logging inconsistencies.
//!
//! The real HTTP Archive corpus is not clean: the paper lists requests with
//! socket id 0, missing or inconsistent IPs, invalid methods/versions/
//! statuses, missing certificates, and non-HTTP/2 protocols — 69.12 M of
//! 401.63 M HTTP/2 requests were affected in some way and had to be filtered
//! conservatively. The injector reproduces those defect classes at rates
//! derived from the published counts, so the pipeline's filter step has the
//! same job (and roughly the same relative magnitudes) as the original
//! analysis.

use crate::model::HarDocument;
use netsim_types::SimRng;

/// The defect classes of §4.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InconsistencyKind {
    /// Socket / connection id logged as 0 (indistinguishable sessions).
    ZeroSocketId,
    /// Server IP missing from the entry.
    MissingIp,
    /// Invalid HTTP request method.
    InvalidMethod,
    /// Entry logged as HTTP/1 (protocol downgrade or logging artefact).
    Http1Protocol,
    /// Entry logged as HTTP/3 (socket ids are all 0 for QUIC).
    Http3Protocol,
    /// TLS certificate details missing.
    MissingCertificate,
    /// Entry references a page that does not exist in the document.
    BadPageReference,
}

impl InconsistencyKind {
    /// All defect classes.
    pub const ALL: [InconsistencyKind; 7] = [
        InconsistencyKind::ZeroSocketId,
        InconsistencyKind::MissingIp,
        InconsistencyKind::InvalidMethod,
        InconsistencyKind::Http1Protocol,
        InconsistencyKind::Http3Protocol,
        InconsistencyKind::MissingCertificate,
        InconsistencyKind::BadPageReference,
    ];
}

/// Per-class injection rates (probability per entry).
#[derive(Clone, Debug, PartialEq)]
pub struct InconsistencyConfig {
    /// Probability of a zero socket id.
    pub zero_socket_id: f64,
    /// Probability of a missing server IP.
    pub missing_ip: f64,
    /// Probability of an invalid request method.
    pub invalid_method: f64,
    /// Probability of an HTTP/1 protocol label.
    pub http1_protocol: f64,
    /// Probability of an HTTP/3 protocol label.
    pub http3_protocol: f64,
    /// Probability of missing certificate details.
    pub missing_certificate: f64,
    /// Probability of a dangling page reference.
    pub bad_page_reference: f64,
}

impl Default for InconsistencyConfig {
    fn default() -> Self {
        // Rates approximated from the §4.3 counts relative to the 401.63 M
        // HTTP/2 requests of the April 2021 corpus. HTTP/1's published count
        // (172.73 M) is relative to *all* requests, not the HTTP/2 subset;
        // it is scaled down here so that the filtered share of entries stays
        // near the paper's ~17 % of HTTP/2 requests.
        InconsistencyConfig {
            zero_socket_id: 26_930.0 / 401_630_000.0,
            missing_ip: 1_300.0 / 401_630_000.0,
            invalid_method: 67_000_000.0 / 401_630_000.0 * 0.05,
            http1_protocol: 0.08,
            http3_protocol: 0.027,
            missing_certificate: 2_220_000.0 / 401_630_000.0,
            bad_page_reference: 14.0 / 401_630_000.0,
        }
    }
}

impl InconsistencyConfig {
    /// A configuration that never injects anything (used for the "own
    /// measurement" dataset, whose NetLog capture is clean).
    pub fn none() -> Self {
        InconsistencyConfig {
            zero_socket_id: 0.0,
            missing_ip: 0.0,
            invalid_method: 0.0,
            http1_protocol: 0.0,
            http3_protocol: 0.0,
            missing_certificate: 0.0,
            bad_page_reference: 0.0,
        }
    }

    /// Apply the configuration to a document, mutating entries in place.
    pub fn apply(&self, document: &mut HarDocument, rng: &mut SimRng) {
        for entry in &mut document.entries {
            if rng.chance(self.zero_socket_id) {
                entry.connection = "0".to_string();
            }
            if rng.chance(self.missing_ip) {
                entry.server_ip_address = String::new();
            }
            if rng.chance(self.invalid_method) {
                entry.method = String::new();
            }
            if rng.chance(self.http1_protocol) {
                entry.protocol = "http/1.1".to_string();
            }
            if rng.chance(self.http3_protocol) {
                entry.protocol = "h3".to_string();
                // QUIC requests all share socket id 0 in the corpus.
                entry.connection = "0".to_string();
            }
            if rng.chance(self.missing_certificate) {
                entry.security_details = None;
            }
            if rng.chance(self.bad_page_reference) {
                entry.pageref = "page_unknown".to_string();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HarEntry, HarPage};

    fn document(entries: usize) -> HarDocument {
        HarDocument {
            creator: "test".to_string(),
            pages: vec![HarPage {
                id: "page_1".to_string(),
                title: "https://example.com/".to_string(),
                started_date_time: 0,
            }],
            entries: (0..entries)
                .map(|i| HarEntry {
                    pageref: "page_1".to_string(),
                    started_date_time: i as u64,
                    method: "GET".to_string(),
                    url: format!("https://example.com/r{i}"),
                    status: 200,
                    body_size: 100,
                    protocol: "h2".to_string(),
                    server_ip_address: "20.0.0.1".to_string(),
                    connection: "1".to_string(),
                    security_details: None,
                })
                .collect(),
        }
    }

    #[test]
    fn none_config_changes_nothing() {
        let mut doc = document(200);
        let pristine = doc.clone();
        InconsistencyConfig::none().apply(&mut doc, &mut SimRng::new(1));
        assert_eq!(doc, pristine);
    }

    #[test]
    fn default_config_injects_roughly_expected_share() {
        let mut doc = document(20_000);
        InconsistencyConfig::default().apply(&mut doc, &mut SimRng::new(7));
        let non_h2 = doc.entries.iter().filter(|e| !e.is_http2()).count();
        let share = non_h2 as f64 / doc.entries.len() as f64;
        assert!(share > 0.05 && share < 0.20, "non-h2 share {share}");
        let zero_socket = doc.entries.iter().filter(|e| e.connection == "0").count();
        assert!(zero_socket > 0);
    }

    #[test]
    fn injection_is_deterministic_for_a_seed() {
        let mut a = document(500);
        let mut b = document(500);
        InconsistencyConfig::default().apply(&mut a, &mut SimRng::new(42));
        InconsistencyConfig::default().apply(&mut b, &mut SimRng::new(42));
        assert_eq!(a, b);
    }
}
