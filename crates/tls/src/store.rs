//! The simulated certificate authority / certificate inventory.
//!
//! Web servers in the simulation do not carry key material; they reference
//! certificates by [`CertificateId`] inside a shared [`CertificateStore`].
//! The store issues certificates (applying an [`IssuancePolicy`]), answers
//! SNI lookups ("which certificate does this server present for this name?")
//! and keeps per-issuer statistics used to sanity-check the generated PKI
//! against Table 5.

use crate::certificate::{Certificate, CertificateId, SanEntry};
use crate::issuer::Issuer;
use crate::policy::IssuancePolicy;
use netsim_types::{DomainName, Duration, FnvHashMap, Instant};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Default validity of issued certificates (90 days, the Let's Encrypt norm).
const DEFAULT_VALIDITY: Duration = Duration::from_days(90);

/// The certificate inventory of a simulation run.
///
/// Certificates are stored behind [`Arc`] so that handing one to a simulated
/// server (and from there to every connection that presents it) shares a
/// single allocation instead of cloning the SAN list per connection. A store
/// can also be *layered* over a shared immutable base
/// ([`CertificateStore::with_base`]): ids continue after the base's, lookups
/// consult both layers, and the newest certificate still wins SNI selection.
///
/// Both name indexes are hash maps that serve lookups only — nothing
/// iterates them into output. The exact index is keyed by interned id; the
/// wildcard index by the zone's canonical `'static` text, so an SNI lookup
/// probes it with [`DomainName::parent_str`] and never interns a parent.
#[derive(Clone, Debug, Default)]
pub struct CertificateStore {
    certificates: Vec<Arc<Certificate>>,
    /// Exact-name index: domain → certificates listing it as a DNS SAN.
    by_domain: FnvHashMap<DomainName, Vec<CertificateId>>,
    /// Wildcard index: zone text → certificates listing `*.zone`.
    by_wildcard_zone: FnvHashMap<&'static str, Vec<CertificateId>>,
    /// Shared read-only certificates with ids `0..base.len()`.
    base: Option<Arc<CertificateStore>>,
}

impl CertificateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store layered over a shared base: newly issued certificates
    /// get ids continuing after the base's, and lookups consult both layers.
    pub fn with_base(base: Arc<CertificateStore>) -> Self {
        CertificateStore {
            certificates: Vec::new(),
            by_domain: FnvHashMap::default(),
            by_wildcard_zone: FnvHashMap::default(),
            base: Some(base),
        }
    }

    /// Number of ids below which this store's own certificates start.
    fn base_len(&self) -> usize {
        self.base.as_ref().map(|base| base.len()).unwrap_or(0)
    }

    /// Number of issued certificates (including any shared base).
    pub fn len(&self) -> usize {
        self.base_len() + self.certificates.len()
    }

    /// `true` if no certificate has been issued yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Issue a single certificate with an explicit SAN list.
    pub fn issue(&mut self, issuer: Issuer, san: Vec<SanEntry>, not_before: Instant) -> CertificateId {
        let id = CertificateId(self.len() as u64);
        let subject = san
            .first()
            .map(|entry| match entry {
                SanEntry::Dns(d) => *d,
                SanEntry::Wildcard(z) => *z,
            })
            .unwrap_or_else(|| DomainName::literal("invalid.invalid"));
        let cert =
            Certificate { id, subject, san, issuer, not_before, not_after: not_before + DEFAULT_VALIDITY };
        for entry in &cert.san {
            match entry {
                SanEntry::Dns(d) => self.by_domain.entry(*d).or_default().push(id),
                SanEntry::Wildcard(z) => self.by_wildcard_zone.entry(z.as_str()).or_default().push(id),
            }
        }
        self.certificates.push(Arc::new(cert));
        id
    }

    /// Issue certificates for `domains` according to `policy`, returning the
    /// ids in partition order.
    pub fn issue_with_policy(
        &mut self,
        issuer: Issuer,
        policy: &IssuancePolicy,
        domains: &[DomainName],
        not_before: Instant,
    ) -> Vec<CertificateId> {
        policy.partition(domains).into_iter().map(|san| self.issue(issuer.clone(), san, not_before)).collect()
    }

    /// Fetch a certificate by id.
    pub fn get(&self, id: CertificateId) -> Option<&Certificate> {
        self.get_arc(id).map(Arc::as_ref)
    }

    /// Fetch the shared handle for a certificate by id. Cloning the handle
    /// shares the certificate without copying its SAN list.
    pub fn get_arc(&self, id: CertificateId) -> Option<&Arc<Certificate>> {
        let index = id.0 as usize;
        let base_len = self.base_len();
        if index < base_len {
            self.base.as_ref().and_then(|base| base.get_arc(id))
        } else {
            self.certificates.get(index - base_len)
        }
    }

    /// All certificates (iteration order = issuance order, deepest base
    /// first — consistent with [`CertificateStore::len`] across any number
    /// of base layers).
    pub fn iter(&self) -> impl Iterator<Item = &Certificate> + '_ {
        let mut refs = Vec::with_capacity(self.len());
        self.collect_refs(&mut refs);
        refs.into_iter()
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a Certificate>) {
        if let Some(base) = &self.base {
            base.collect_refs(out);
        }
        out.extend(self.certificates.iter().map(Arc::as_ref));
    }

    /// The certificates valid for `domain` (exact or wildcard match),
    /// most recently issued first — the order a server would prefer when
    /// selecting a certificate for an SNI name.
    pub fn certificates_for(&self, domain: &DomainName) -> Vec<&Certificate> {
        let mut ids = Vec::new();
        self.matching_ids(domain, &mut ids);
        ids.sort_unstable_by_key(|id| std::cmp::Reverse(id.0));
        ids.dedup();
        ids.iter().filter_map(|id| self.get(*id)).collect()
    }

    /// Collect the ids of certificates matching `domain` in this layer and
    /// any base layer.
    fn matching_ids(&self, domain: &DomainName, out: &mut Vec<CertificateId>) {
        if let Some(exact) = self.by_domain.get(domain) {
            out.extend(exact.iter().copied());
        }
        if let Some(wc) = self.wildcards_for(domain) {
            out.extend(wc.iter().copied());
        }
        if let Some(base) = &self.base {
            base.matching_ids(domain, out);
        }
    }

    /// This layer's certificates listing `*.parent` for `domain`'s parent.
    fn wildcards_for(&self, domain: &DomainName) -> Option<&Vec<CertificateId>> {
        self.by_wildcard_zone.get(domain.parent_str()?)
    }

    /// The certificate a server presents for SNI name `domain`, if any.
    pub fn select_for_sni(&self, domain: &DomainName) -> Option<&Certificate> {
        self.select_arc_for_sni(domain).map(Arc::as_ref)
    }

    /// The shared handle for the certificate a server presents for SNI name
    /// `domain`, if any — the allocation-free form the visit hot path uses.
    pub fn select_arc_for_sni(&self, domain: &DomainName) -> Option<&Arc<Certificate>> {
        // Newest (highest-id) match wins; local ids are always newer than
        // base ids, so check the local indexes before the base.
        let mut best: Option<CertificateId> = None;
        if let Some(exact) = self.by_domain.get(domain) {
            best = exact.iter().copied().max();
        }
        if let Some(wc) = self.wildcards_for(domain) {
            best = best.into_iter().chain(wc.iter().copied()).max();
        }
        match (best, &self.base) {
            (Some(id), _) => self.get_arc(id),
            (None, Some(base)) => base.select_arc_for_sni(domain),
            (None, None) => None,
        }
    }

    /// `true` if any certificate in the store covers `domain`.
    pub fn has_coverage(&self, domain: &DomainName) -> bool {
        self.select_for_sni(domain).is_some()
    }

    /// Per-issuer (certificate count, unique exact DNS names) statistics.
    pub fn issuer_statistics(&self) -> BTreeMap<Issuer, IssuerStats> {
        let mut stats: BTreeMap<Issuer, (usize, BTreeSet<DomainName>)> = BTreeMap::new();
        for cert in self.iter() {
            let entry = stats.entry(cert.issuer.clone()).or_default();
            entry.0 += 1;
            for name in cert.dns_names() {
                entry.1.insert(*name);
            }
        }
        stats
            .into_iter()
            .map(|(issuer, (certificates, domains))| {
                (issuer, IssuerStats { certificates, unique_domains: domains.len() })
            })
            .collect()
    }
}

/// Aggregate issuance statistics for one CA organisation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssuerStats {
    /// Number of certificates issued.
    pub certificates: usize,
    /// Number of distinct exact DNS names across those certificates.
    pub unique_domains: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    #[test]
    fn issue_and_lookup_exact() {
        let mut store = CertificateStore::new();
        let id = store.issue(
            Issuer::digicert(),
            vec![SanEntry::Dns(d("www.example.com")), SanEntry::Dns(d("example.com"))],
            Instant::EPOCH,
        );
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
        let cert = store.get(id).unwrap();
        assert_eq!(cert.subject, d("www.example.com"));
        assert!(store.has_coverage(&d("example.com")));
        assert!(!store.has_coverage(&d("img.example.com")));
    }

    #[test]
    fn sni_prefers_most_recent_certificate() {
        let mut store = CertificateStore::new();
        let old = store.issue(Issuer::lets_encrypt(), vec![SanEntry::Dns(d("example.com"))], Instant::EPOCH);
        let newer = store.issue(
            Issuer::lets_encrypt(),
            vec![SanEntry::Dns(d("example.com")), SanEntry::Dns(d("www.example.com"))],
            Instant::EPOCH + Duration::from_days(10),
        );
        let selected = store.select_for_sni(&d("example.com")).unwrap();
        assert_eq!(selected.id, newer);
        assert_ne!(selected.id, old);
    }

    #[test]
    fn wildcard_lookup() {
        let mut store = CertificateStore::new();
        store.issue(Issuer::cloudflare(), vec![SanEntry::Wildcard(d("example.com"))], Instant::EPOCH);
        assert!(store.has_coverage(&d("img.example.com")));
        assert!(!store.has_coverage(&d("example.com")));
        assert!(!store.has_coverage(&d("a.b.example.com")));
    }

    #[test]
    fn policy_issuance_produces_expected_counts() {
        let mut store = CertificateStore::new();
        let shards = vec![d("example.com"), d("img.example.com"), d("static.example.com")];
        let ids = store.issue_with_policy(
            Issuer::lets_encrypt(),
            &IssuancePolicy::PerDomain,
            &shards,
            Instant::EPOCH,
        );
        assert_eq!(ids.len(), 3);
        // Each shard is covered, but by different certificates — the CERT setup.
        let a = store.select_for_sni(&d("example.com")).unwrap().id;
        let b = store.select_for_sni(&d("img.example.com")).unwrap().id;
        assert_ne!(a, b);
    }

    #[test]
    fn issuer_statistics_count_unique_domains() {
        let mut store = CertificateStore::new();
        store.issue(Issuer::lets_encrypt(), vec![SanEntry::Dns(d("a.example.com"))], Instant::EPOCH);
        store.issue(Issuer::lets_encrypt(), vec![SanEntry::Dns(d("b.example.com"))], Instant::EPOCH);
        store.issue(
            Issuer::google_trust_services(),
            vec![SanEntry::Dns(d("adservice.google.com")), SanEntry::Dns(d("adservice.google.de"))],
            Instant::EPOCH,
        );
        let stats = store.issuer_statistics();
        assert_eq!(stats[&Issuer::lets_encrypt()], IssuerStats { certificates: 2, unique_domains: 2 });
        assert_eq!(
            stats[&Issuer::google_trust_services()],
            IssuerStats { certificates: 1, unique_domains: 2 }
        );
    }

    #[test]
    fn empty_san_certificate_gets_placeholder_subject() {
        let mut store = CertificateStore::new();
        let id = store.issue(Issuer::amazon(), vec![], Instant::EPOCH);
        assert_eq!(store.get(id).unwrap().subject, d("invalid.invalid"));
    }
}
