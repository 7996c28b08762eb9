//! The simulated certificate authority / certificate inventory.
//!
//! Web servers in the simulation do not carry key material; they reference
//! certificates by [`CertificateId`] inside a shared [`CertificateStore`].
//! The store issues certificates (applying an [`IssuancePolicy`]) and
//! answers SNI lookups ("which certificate does this server present for
//! this name?").

use crate::certificate::{Certificate, CertificateId, SanEntry};
use crate::issuer::Issuer;
use crate::policy::IssuancePolicy;
use netsim_types::{DomainName, Duration, FnvHashMap, Instant};
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
/// [`CertificateStore::reset`] empties the local layer but keeps its
/// certificate allocations: the next issue into a retired slot rewrites the
/// certificate in place when no connection still holds it.
///
/// Both name indexes are hash maps that serve lookups only — nothing
/// iterates them into output. Each maps a name to the newest local
/// certificate listing it, the only one SNI selection can pick. Both are
/// keyed by name, hashed by the name's cached text hash: an SNI lookup
/// probes the wildcard index with [`DomainName::parent`], which compares on
/// that hash first and never interns a parent.
#[derive(Clone, Debug, Default)]
pub struct CertificateStore {
    /// Issued certificates in `..live`; retired ones, kept for reuse, after.
    certificates: Vec<Arc<Certificate>>,
    /// Number of issued certificates in the local layer.
    live: usize,
    /// Exact-name index: domain → newest certificate listing it as a DNS SAN.
    by_domain: FnvHashMap<DomainName, CertificateId>,
    /// Wildcard index: zone → newest certificate listing `*.zone`.
    by_wildcard_zone: FnvHashMap<DomainName, CertificateId>,
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
        CertificateStore { base: Some(base), ..CertificateStore::default() }
    }

    /// Retire every local certificate, keeping the allocations for reuse,
    /// and layer the store over `base` (or over nothing): how a recycled
    /// environment starts its next build.
    pub fn reset(&mut self, base: Option<Arc<CertificateStore>>) {
        self.live = 0;
        self.by_domain.clear();
        self.by_wildcard_zone.clear();
        self.base = base;
    }

    /// Number of ids below which this store's own certificates start.
    fn base_len(&self) -> usize {
        self.base.as_ref().map(|base| base.len()).unwrap_or(0)
    }

    /// Number of issued certificates (including any shared base).
    pub fn len(&self) -> usize {
        self.base_len() + self.live
    }

    /// `true` if no certificate has been issued yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Issue a single certificate with an explicit SAN list.
    pub fn issue(&mut self, issuer: Issuer, san: Vec<SanEntry>, not_before: Instant) -> CertificateId {
        self.issue_from(&issuer, &mut san.into_iter(), not_before)
    }

    /// Issue certificates for `domains` according to `policy`, in partition
    /// order.
    pub fn issue_with_policy(
        &mut self,
        issuer: &Issuer,
        policy: &IssuancePolicy,
        domains: &[DomainName],
        not_before: Instant,
    ) {
        policy.for_each_certificate(domains, |san| {
            self.issue_from(issuer, san, not_before);
        });
    }

    /// Issue one certificate listing `san`, into the next slot: a retired
    /// certificate nothing else holds is rewritten in place, keeping its SAN
    /// list's capacity.
    fn issue_from(
        &mut self,
        issuer: &Issuer,
        san: &mut dyn Iterator<Item = SanEntry>,
        not_before: Instant,
    ) -> CertificateId {
        let id = CertificateId(self.len() as u64);
        let slot = self.live;
        let mut entries = match self.certificates.get_mut(slot).and_then(Arc::get_mut) {
            Some(retired) => std::mem::take(&mut retired.san),
            None => Vec::new(),
        };
        entries.clear();
        entries.extend(san);
        let subject = match entries.first() {
            Some(SanEntry::Dns(name) | SanEntry::Wildcard(name)) => *name,
            None => DomainName::literal("invalid.invalid"),
        };
        let cert = Certificate {
            id,
            subject,
            san: entries,
            issuer: issuer.clone(),
            not_before,
            not_after: not_before + DEFAULT_VALIDITY,
        };
        match self.certificates.get_mut(slot) {
            Some(held) => match Arc::get_mut(held) {
                Some(retired) => *retired = cert,
                None => *held = Arc::new(cert),
            },
            None => self.certificates.push(Arc::new(cert)),
        }
        let cert = &self.certificates[slot];
        for entry in &cert.san {
            match entry {
                SanEntry::Dns(name) => self.by_domain.insert(*name, id),
                SanEntry::Wildcard(zone) => self.by_wildcard_zone.insert(*zone, id),
            };
        }
        self.live += 1;
        id
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
            self.certificates[..self.live].get(index - base_len)
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
        out.extend(self.certificates[..self.live].iter().map(Arc::as_ref));
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
        let exact = self.by_domain.get(domain).copied();
        // Most local layers list no wildcard: skip making the parent.
        let wildcard = if self.by_wildcard_zone.is_empty() {
            None
        } else {
            domain.parent().and_then(|parent| self.by_wildcard_zone.get(&parent).copied())
        };
        match (exact.max(wildcard), &self.base) {
            (Some(id), _) => self.get_arc(id),
            (None, Some(base)) => base.select_arc_for_sni(domain),
            (None, None) => None,
        }
    }
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
        assert!(store.select_for_sni(&d("example.com")).is_some());
        assert!(store.select_for_sni(&d("img.example.com")).is_none());
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
        assert!(store.select_for_sni(&d("img.example.com")).is_some());
        assert!(store.select_for_sni(&d("example.com")).is_none());
        assert!(store.select_for_sni(&d("a.b.example.com")).is_none());
    }

    #[test]
    fn policy_issuance_produces_expected_counts() {
        let mut store = CertificateStore::new();
        let shards = vec![d("example.com"), d("img.example.com"), d("static.example.com")];
        store.issue_with_policy(&Issuer::lets_encrypt(), &IssuancePolicy::PerDomain, &shards, Instant::EPOCH);
        assert_eq!(store.len(), 3);
        // Each shard is covered, but by different certificates — the CERT setup.
        let a = store.select_for_sni(&d("example.com")).unwrap().id;
        let b = store.select_for_sni(&d("img.example.com")).unwrap().id;
        assert_ne!(a, b);
    }

    #[test]
    fn reset_recycles_certificates_nothing_else_holds() {
        let mut store = CertificateStore::new();
        let first = store.issue(Issuer::lets_encrypt(), vec![SanEntry::Dns(d("a.example"))], Instant::EPOCH);
        store.issue(Issuer::lets_encrypt(), vec![SanEntry::Dns(d("b.example"))], Instant::EPOCH);
        // A connection still presents the second certificate.
        let held = Arc::clone(store.get_arc(CertificateId(1)).unwrap());
        let recycled: *const Certificate = store.get(first).unwrap();
        store.reset(None);
        assert!(store.is_empty());
        assert!(store.select_for_sni(&d("a.example")).is_none());
        let c = store.issue(Issuer::digicert(), vec![SanEntry::Dns(d("c.example"))], Instant::EPOCH);
        let e = store.issue(Issuer::digicert(), vec![SanEntry::Dns(d("e.example"))], Instant::EPOCH);
        assert_eq!((c, e), (CertificateId(0), CertificateId(1)));
        assert!(std::ptr::eq(store.get(c).unwrap(), recycled), "an unshared slot is rewritten in place");
        assert_eq!(store.select_for_sni(&d("c.example")).unwrap().issuer, Issuer::digicert());
        // The held certificate is untouched; its slot got a fresh one.
        assert_eq!(held.san, vec![SanEntry::Dns(d("b.example"))]);
        assert_eq!(store.get(e).unwrap().san, vec![SanEntry::Dns(d("e.example"))]);
        assert!(store.select_for_sni(&d("b.example")).is_none());
    }

    #[test]
    fn empty_san_certificate_gets_placeholder_subject() {
        let mut store = CertificateStore::new();
        let id = store.issue(Issuer::amazon(), vec![], Instant::EPOCH);
        assert_eq!(store.get(id).unwrap().subject, d("invalid.invalid"));
    }
}
