//! Issuance policies — how an operator groups its domains into certificates.
//!
//! The paper's `CERT` cause exists because operators who shard a site across
//! subdomains sometimes request a *separate* certificate per subdomain (the
//! default behaviour of a naïve certbot setup) instead of one certificate
//! listing all shards or a wildcard. This module encodes those choices so the
//! population generator can produce both kinds of deployments and the
//! ablation benches can flip between them.

use crate::certificate::SanEntry;
use netsim_types::DomainName;
use serde::{Deserialize, Serialize};

/// How a set of domains served by one operator is partitioned into
/// certificates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum IssuancePolicy {
    /// One certificate listing every domain as a SAN entry. Connection reuse
    /// across the domains is possible whenever they share an IP.
    SharedSan,
    /// One certificate per domain — the sharding-hostile default that produces
    /// the paper's `CERT` cause.
    PerDomain,
    /// A single wildcard certificate `*.zone` (plus the zone apex). Covers
    /// one-level shards such as `img.zone` but not `a.b.zone`.
    Wildcard {
        /// The zone whose direct children the wildcard covers.
        zone: DomainName,
    },
    /// The first `group_size` domains share a certificate, the next
    /// `group_size` share another one, and so on. Models operators that merge
    /// *some* shards (e.g. Google ads domains spread over a few certs).
    Grouped {
        /// Number of domains per certificate (minimum 1).
        group_size: usize,
    },
}

impl IssuancePolicy {
    /// Partition `domains` into certificates according to the policy: call
    /// `issue` once per certificate with its SAN entries. The order of
    /// `domains` is preserved inside each certificate.
    pub fn for_each_certificate(
        &self,
        domains: &[DomainName],
        mut issue: impl FnMut(&mut dyn Iterator<Item = SanEntry>),
    ) {
        match self {
            IssuancePolicy::SharedSan => {
                if !domains.is_empty() {
                    issue(&mut domains.iter().copied().map(SanEntry::Dns));
                }
            }
            IssuancePolicy::PerDomain => {
                for domain in domains {
                    issue(&mut std::iter::once(SanEntry::Dns(*domain)));
                }
            }
            IssuancePolicy::Wildcard { zone } => {
                if !domains.is_empty() {
                    // Domains not covered by the wildcard (deeper than one
                    // label, or outside the zone) still need exact entries.
                    let wildcard = SanEntry::Wildcard(*zone);
                    let uncovered = domains
                        .iter()
                        .filter(|d| !wildcard.covers(d) && *d != zone)
                        .copied()
                        .map(SanEntry::Dns);
                    issue(&mut [wildcard.clone(), SanEntry::Dns(*zone)].into_iter().chain(uncovered));
                }
            }
            IssuancePolicy::Grouped { group_size } => {
                for group in domains.chunks((*group_size).max(1)) {
                    issue(&mut group.iter().copied().map(SanEntry::Dns));
                }
            }
        }
    }

    /// The certificate-coalescing mitigation applied to this policy: the
    /// sharding-hostile partitions ([`IssuancePolicy::PerDomain`] and
    /// [`IssuancePolicy::Grouped`]) collapse into one
    /// [`IssuancePolicy::SharedSan`] certificate covering every domain, the
    /// way the paper's §7 suggests operators fix the `CERT` cause. Policies
    /// that already produce a single certificate are unchanged.
    #[must_use]
    pub fn coalesced(&self) -> IssuancePolicy {
        match self {
            IssuancePolicy::PerDomain | IssuancePolicy::Grouped { .. } => IssuancePolicy::SharedSan,
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CertificateStore, Issuer};
    use netsim_types::Instant;

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn partition(policy: &IssuancePolicy, domains: &[DomainName]) -> Vec<Vec<SanEntry>> {
        let mut groups = Vec::new();
        policy.for_each_certificate(domains, |san| groups.push(san.collect()));
        groups
    }

    /// With `domains` issued under `policy`, whether the certificate a
    /// server presents for `established` also covers `requested` — the
    /// certificate half of connection reuse, which the `CERT` classifier
    /// observes.
    fn reusable(policy: &IssuancePolicy, domains: &[DomainName], established: &str, requested: &str) -> bool {
        let mut store = CertificateStore::new();
        store.issue_with_policy(&Issuer::lets_encrypt(), policy, domains, Instant::EPOCH);
        store.select_for_sni(&d(established)).is_some_and(|cert| cert.covers(&d(requested)))
    }

    fn domains() -> Vec<DomainName> {
        vec![d("example.com"), d("img.example.com"), d("static.example.com"), d("api.example.com")]
    }

    #[test]
    fn shared_san_single_certificate() {
        let groups = partition(&IssuancePolicy::SharedSan, &domains());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
        assert!(partition(&IssuancePolicy::SharedSan, &[]).is_empty());
    }

    #[test]
    fn per_domain_disjunct_certificates() {
        let policy = IssuancePolicy::PerDomain;
        let groups = partition(&policy, &domains());
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.len() == 1));
        assert!(!reusable(&policy, &domains(), "example.com", "img.example.com"));
        assert!(reusable(&policy, &domains(), "example.com", "example.com"));
    }

    #[test]
    fn wildcard_covers_one_level() {
        let policy = IssuancePolicy::Wildcard { zone: d("example.com") };
        let groups = partition(&policy, &domains());
        assert_eq!(groups.len(), 1);
        // wildcard + apex, no extra entries needed for one-level shards
        assert_eq!(groups[0].len(), 2);
        assert!(reusable(&policy, &domains(), "img.example.com", "static.example.com"));
        assert!(reusable(&policy, &domains(), "example.com", "img.example.com"));
        assert!(!reusable(&policy, &domains(), "img.example.com", "a.b.example.com"));
    }

    #[test]
    fn wildcard_adds_exact_entries_for_deep_names() {
        let policy = IssuancePolicy::Wildcard { zone: d("example.com") };
        let groups = partition(&policy, &[d("a.b.example.com"), d("img.example.com")]);
        let texts: Vec<String> = groups[0].iter().map(|s| s.as_text()).collect();
        assert!(texts.contains(&"a.b.example.com".to_string()));
        assert!(!texts.contains(&"img.example.com".to_string()));
    }

    #[test]
    fn coalescing_collapses_partitioned_policies() {
        assert_eq!(IssuancePolicy::PerDomain.coalesced(), IssuancePolicy::SharedSan);
        assert_eq!(IssuancePolicy::Grouped { group_size: 3 }.coalesced(), IssuancePolicy::SharedSan);
        assert_eq!(IssuancePolicy::SharedSan.coalesced(), IssuancePolicy::SharedSan);
        let wildcard = IssuancePolicy::Wildcard { zone: d("example.com") };
        assert_eq!(wildcard.coalesced(), wildcard);
        // After coalescing, every pair of domains can share a connection
        // (certificate criterion only).
        let coalesced = IssuancePolicy::PerDomain.coalesced();
        assert!(reusable(&coalesced, &domains(), "example.com", "img.example.com"));
        assert_eq!(partition(&coalesced, &domains()).len(), 1);
    }

    #[test]
    fn grouped_partitions_in_chunks() {
        let policy = IssuancePolicy::Grouped { group_size: 3 };
        let groups = partition(&policy, &domains());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 3);
        assert_eq!(groups[1].len(), 1);
        // A zero group size issues one certificate per domain.
        assert_eq!(partition(&IssuancePolicy::Grouped { group_size: 0 }, &domains()).len(), 4);
    }
}
