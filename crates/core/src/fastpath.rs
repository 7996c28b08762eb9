//! The streaming visit classifier: per-site redundancy counts without
//! materialising observations or classifications.
//!
//! The batch pipeline (`PageVisit` → [`crate::site_from_visit`] →
//! [`crate::classify_site`] → [`crate::Accumulator::observe`]) allocates an
//! observation with cloned SAN lists, per-connection request vectors and a
//! `BTreeMap` of causes per connection — all of which the atlas-scale
//! aggregation immediately reduces to a handful of integers.
//! [`FastVisitClassifier`] runs the same §4.1 kernel
//! ([`crate::classify`]) on reusable buffers with a counts sink and returns
//! those integers ([`SiteCounts`]). That both adapters and both sinks agree
//! on real visits is property-tested in
//! `crates/experiments/tests/fastpath_equivalence.rs`.

use crate::aggregate::SiteCounts;
use crate::classify::{for_each_pair, Cause, ConnectionRecord};
use crate::observation::DurationModel;
use netsim_tls::Certificate;
use netsim_types::Instant;
use std::sync::Arc;

/// A reusable classifier for the per-worker visit loop. All buffers retain
/// their capacity across sites, so classifying a site allocates nothing in
/// the steady state.
#[derive(Debug, Default)]
pub struct FastVisitClassifier {
    records: Vec<ConnectionRecord>,
    /// The certificate each record's connection presented, by record index.
    certificates: Vec<Arc<Certificate>>,
    /// Classification order: indices into `records` sorted by
    /// (established_at, id).
    order: Vec<u32>,
    /// Per-record cause bits (bit `Cause::index`).
    cause_bits: Vec<u8>,
}

impl FastVisitClassifier {
    /// A classifier with empty buffers.
    pub fn new() -> Self {
        FastVisitClassifier::default()
    }

    /// Start a new site: forget the previous site's connections.
    pub fn begin_site(&mut self) {
        self.records.clear();
        self.certificates.clear();
        self.order.clear();
        self.cause_bits.clear();
    }

    /// Add one of the site's connections with the certificate it presented.
    pub fn push_connection(&mut self, record: ConnectionRecord, certificate: &Arc<Certificate>) {
        self.records.push(record);
        self.certificates.push(Arc::clone(certificate));
    }

    /// Raise the `record_index`-th pushed connection's last-request time to
    /// at least `at`. Lets callers push connections with their establishment
    /// times first and then fold the request log in one linear pass, instead
    /// of rescanning the requests per connection.
    pub fn bump_last_request(&mut self, record_index: usize, at: Instant) {
        let record = &mut self.records[record_index];
        if at > record.last_request_at {
            record.last_request_at = at;
        }
    }

    /// Classify the pushed connections under `model` and reduce to the
    /// site's cause counts.
    pub fn classify(&mut self, model: DurationModel) -> SiteCounts {
        self.cause_bits.clear();
        self.cause_bits.resize(self.records.len(), 0);
        for_each_pair(
            &self.records,
            &mut self.order,
            model,
            |index, domain| self.certificates[index].covers(domain),
            |index, cause, _| self.cause_bits[index] |= 1 << cause.index(),
        );

        let mut counts = SiteCounts { total_connections: self.records.len(), ..SiteCounts::default() };
        for bits in &self.cause_bits {
            if *bits != 0 {
                counts.redundant_connections += 1;
            }
            for cause in Cause::ALL {
                if bits & (1 << cause.index()) != 0 {
                    counts.cause_connections[cause.index()] += 1;
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_tls::{CertificateStore, IssuancePolicy, Issuer};
    use netsim_types::{ConnectionId, DomainName, IpAddr};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn cert(domains: &[&str]) -> Arc<Certificate> {
        let mut store = CertificateStore::new();
        let names: Vec<DomainName> = domains.iter().map(|s| d(s)).collect();
        store.issue_with_policy(&Issuer::lets_encrypt(), &IssuancePolicy::SharedSan, &names, Instant::EPOCH);
        Arc::clone(store.get_arc(netsim_tls::CertificateId(0)).unwrap())
    }

    fn record(id: u64, domain: &str, start_ms: u64) -> ConnectionRecord {
        ConnectionRecord {
            id: ConnectionId(id),
            initial_domain: d(domain),
            ip: IpAddr::new(10, 0, 0, 1),
            port: 443,
            established_at: Instant::from_millis(start_ms),
            closed_at: None,
            last_request_at: Instant::from_millis(start_ms + 1),
            excluded: false,
        }
    }

    #[test]
    fn classifier_buffers_recycle_between_sites() {
        let mut fast = FastVisitClassifier::new();
        for _ in 0..3 {
            fast.begin_site();
            let certificate = cert(&["www.example.com", "img.example.com"]);
            fast.push_connection(record(1, "www.example.com", 0), &certificate);
            fast.push_connection(record(2, "img.example.com", 50), &certificate);
            let counts = fast.classify(DurationModel::Endless);
            assert_eq!(counts.total_connections, 2);
            assert_eq!(counts.redundant_connections, 1);
            assert_eq!(counts.cause_connections[Cause::Cred.index()], 1);
        }
    }
}
