//! Attribution tables: which origins, certificate issuers, domains and
//! autonomous systems are behind the redundant connections (Tables 2–6, 8–10
//! and 12 of the paper).

use crate::classify::{Cause, SiteClassification};
use crate::observation::Dataset;
use netsim_asdb::{AsRegistry, AutonomousSystem};
use netsim_tls::Issuer;
use netsim_types::DomainName;
use std::collections::{BTreeMap, BTreeSet};

/// One row of an origin table (Tables 2, 8 and 12): an origin, how many of
/// its connections were redundant with the given cause, and which earlier
/// connections' origins could have carried them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OriginAttribution {
    /// The redundant connection's origin domain.
    pub origin: DomainName,
    /// Number of redundant connections with this origin.
    pub connections: usize,
    /// Previous (reusable) origins with how many of the redundant connections
    /// each could have served, most frequent first.
    pub previous: Vec<(DomainName, usize)>,
}

impl OriginAttribution {
    /// The most frequent previous origin, if any.
    pub fn top_previous(&self) -> Option<&(DomainName, usize)> {
        self.previous.first()
    }
}

/// One row of an issuer table (Tables 3, 5 and 9).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IssuerAttribution {
    /// Certificate issuer organisation.
    pub issuer: Issuer,
    /// Number of (redundant or total, depending on the table) connections
    /// whose certificate this issuer signed.
    pub connections: usize,
    /// Number of distinct origin domains among those connections.
    pub unique_domains: usize,
}

/// One row of the CERT domain table (Tables 4 and 10).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertDomainAttribution {
    /// The redundant connection's domain.
    pub domain: DomainName,
    /// Number of CERT-redundant connections for the domain.
    pub connections: usize,
    /// Previous connections' origins (with counts), most frequent first.
    pub previous: Vec<(DomainName, usize)>,
    /// Issuer of the redundant connection's certificate.
    pub issuer: Issuer,
}

/// One row of the AS table (Table 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsnAttribution {
    /// The autonomous system announcing the redundant connections' prefixes.
    pub system: AutonomousSystem,
    /// Number of IP-cause redundant connections landing in this AS.
    pub connections: usize,
    /// Number of distinct origin domains among them.
    pub unique_domains: usize,
}

/// Pair each site observation with its classification. Callers produce the
/// classifications with [`crate::classify::classify_dataset`], which keeps
/// them index-aligned with `dataset.sites`.
fn zipped<'a>(
    dataset: &'a Dataset,
    classifications: &'a [SiteClassification],
) -> impl Iterator<Item = (&'a crate::observation::SiteObservation, &'a SiteClassification)> {
    dataset.sites.iter().zip(classifications.iter())
}

/// Top origins for connections redundant with `cause` (Table 2 uses
/// `Cause::Ip`; Table 12 is the same with a larger `limit`).
pub fn top_origins_for_cause(
    dataset: &Dataset,
    classifications: &[SiteClassification],
    cause: Cause,
    limit: usize,
) -> Vec<OriginAttribution> {
    let mut connections_per_origin: BTreeMap<DomainName, usize> = BTreeMap::new();
    let mut previous_per_origin: BTreeMap<DomainName, BTreeMap<DomainName, usize>> = BTreeMap::new();
    for (observation, classification) in zipped(dataset, classifications) {
        for connection in &classification.connections {
            let previous_indices = connection.previous_for(cause);
            if previous_indices.is_empty() {
                continue;
            }
            *connections_per_origin.entry(connection.origin).or_default() += 1;
            let mut seen: BTreeSet<&DomainName> = BTreeSet::new();
            for &previous_index in previous_indices {
                let previous_domain = &observation.connections[previous_index].initial_domain;
                if seen.insert(previous_domain) {
                    *previous_per_origin
                        .entry(connection.origin)
                        .or_default()
                        .entry(*previous_domain)
                        .or_default() += 1;
                }
            }
        }
    }
    let mut rows: Vec<OriginAttribution> = connections_per_origin
        .into_iter()
        .map(|(origin, connections)| {
            let mut previous: Vec<(DomainName, usize)> =
                previous_per_origin.remove(&origin).unwrap_or_default().into_iter().collect();
            previous.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            OriginAttribution { origin, connections, previous }
        })
        .collect();
    rows.sort_by(|a, b| b.connections.cmp(&a.connections).then_with(|| a.origin.cmp(&b.origin)));
    rows.truncate(limit);
    rows
}

/// Issuers of the certificates presented on CERT-redundant connections
/// (Tables 3 and 9).
pub fn cert_issuers(
    dataset: &Dataset,
    classifications: &[SiteClassification],
    limit: usize,
) -> Vec<IssuerAttribution> {
    let mut connections: BTreeMap<Issuer, usize> = BTreeMap::new();
    let mut domains: BTreeMap<Issuer, BTreeSet<DomainName>> = BTreeMap::new();
    for (observation, classification) in zipped(dataset, classifications) {
        for connection in &classification.connections {
            if !connection.has_cause(Cause::Cert) {
                continue;
            }
            let issuer = observation.connections[connection.index].issuer.clone();
            *connections.entry(issuer.clone()).or_default() += 1;
            domains.entry(issuer).or_default().insert(connection.origin);
        }
    }
    collect_issuer_rows(connections, domains, limit)
}

/// Issuer share over *all* observed connections (Table 5).
pub fn issuer_share(dataset: &Dataset, limit: usize) -> Vec<IssuerAttribution> {
    let mut connections: BTreeMap<Issuer, usize> = BTreeMap::new();
    let mut domains: BTreeMap<Issuer, BTreeSet<DomainName>> = BTreeMap::new();
    for site in &dataset.sites {
        for connection in &site.connections {
            *connections.entry(connection.issuer.clone()).or_default() += 1;
            domains.entry(connection.issuer.clone()).or_default().insert(connection.initial_domain);
        }
    }
    collect_issuer_rows(connections, domains, limit)
}

fn collect_issuer_rows(
    connections: BTreeMap<Issuer, usize>,
    mut domains: BTreeMap<Issuer, BTreeSet<DomainName>>,
    limit: usize,
) -> Vec<IssuerAttribution> {
    let mut rows: Vec<IssuerAttribution> = connections
        .into_iter()
        .map(|(issuer, connections)| {
            let unique_domains = domains.remove(&issuer).map(|set| set.len()).unwrap_or(0);
            IssuerAttribution { issuer, connections, unique_domains }
        })
        .collect();
    rows.sort_by(|a, b| b.connections.cmp(&a.connections).then_with(|| a.issuer.cmp(&b.issuer)));
    rows.truncate(limit);
    rows
}

/// Domains of CERT-redundant connections with their reusable previous
/// origins and issuers (Tables 4 and 10).
pub fn cert_domains(
    dataset: &Dataset,
    classifications: &[SiteClassification],
    limit: usize,
) -> Vec<CertDomainAttribution> {
    let mut connections: BTreeMap<DomainName, usize> = BTreeMap::new();
    let mut previous: BTreeMap<DomainName, BTreeMap<DomainName, usize>> = BTreeMap::new();
    let mut issuers: BTreeMap<DomainName, Issuer> = BTreeMap::new();
    for (observation, classification) in zipped(dataset, classifications) {
        for connection in &classification.connections {
            let cert_previous = connection.previous_for(Cause::Cert);
            if cert_previous.is_empty() {
                continue;
            }
            *connections.entry(connection.origin).or_default() += 1;
            issuers
                .entry(connection.origin)
                .or_insert_with(|| observation.connections[connection.index].issuer.clone());
            let mut seen: BTreeSet<&DomainName> = BTreeSet::new();
            for &previous_index in cert_previous {
                let previous_domain = &observation.connections[previous_index].initial_domain;
                if seen.insert(previous_domain) {
                    *previous.entry(connection.origin).or_default().entry(*previous_domain).or_default() += 1;
                }
            }
        }
    }
    let mut rows: Vec<CertDomainAttribution> = connections
        .into_iter()
        .map(|(domain, count)| {
            let mut prev: Vec<(DomainName, usize)> =
                previous.remove(&domain).unwrap_or_default().into_iter().collect();
            prev.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let issuer = issuers.remove(&domain).unwrap_or_else(|| Issuer::named("Unknown"));
            CertDomainAttribution { domain, connections: count, previous: prev, issuer }
        })
        .collect();
    rows.sort_by(|a, b| b.connections.cmp(&a.connections).then_with(|| a.domain.cmp(&b.domain)));
    rows.truncate(limit);
    rows
}

/// Autonomous systems hosting the destinations of IP-cause redundant
/// connections (Table 6).
pub fn asn_for_ip_cause(
    dataset: &Dataset,
    classifications: &[SiteClassification],
    registry: &AsRegistry,
    limit: usize,
) -> Vec<AsnAttribution> {
    let mut connections: BTreeMap<AutonomousSystem, usize> = BTreeMap::new();
    let mut domains: BTreeMap<AutonomousSystem, BTreeSet<DomainName>> = BTreeMap::new();
    for (observation, classification) in zipped(dataset, classifications) {
        for connection in &classification.connections {
            if !connection.has_cause(Cause::Ip) {
                continue;
            }
            let ip = observation.connections[connection.index].ip;
            let Some(system) = registry.lookup(ip) else { continue };
            *connections.entry(*system).or_default() += 1;
            domains.entry(*system).or_default().insert(connection.origin);
        }
    }
    let mut rows: Vec<AsnAttribution> = connections
        .into_iter()
        .map(|(system, count)| {
            let unique_domains = domains.remove(&system).map(|set| set.len()).unwrap_or(0);
            AsnAttribution { system, connections: count, unique_domains }
        })
        .collect();
    rows.sort_by(|a, b| b.connections.cmp(&a.connections).then_with(|| a.system.name.cmp(b.system.name)));
    rows.truncate(limit);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_dataset;
    use crate::observation::{DurationModel, ObservedConnection, ObservedRequest, SiteObservation};
    use netsim_tls::SanEntry;
    use netsim_types::{ConnectionId, Instant, IpAddr};

    fn d(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    fn conn(
        id: u64,
        domain: &str,
        ip: IpAddr,
        san: &[&str],
        issuer: Issuer,
        start: u64,
    ) -> ObservedConnection {
        ObservedConnection {
            id: ConnectionId(id),
            initial_domain: d(domain),
            ip,
            port: 443,
            san: san.iter().map(|s| SanEntry::parse(s).unwrap()).collect(),
            issuer,
            established_at: Instant::from_millis(start),
            closed_at: None,
            requests: vec![ObservedRequest {
                domain: d(domain),
                status: 200,
                started_at: Instant::from_millis(start),
            }],
        }
    }

    fn analytics_site(ip_a: IpAddr, ip_b: IpAddr) -> SiteObservation {
        let shared = &["www.googletagmanager.com", "www.google-analytics.com"];
        SiteObservation {
            site: d("example.com"),
            connections: vec![
                conn(1, "example.com", IpAddr::new(50, 0, 0, 1), &["example.com"], Issuer::lets_encrypt(), 0),
                conn(2, "www.googletagmanager.com", ip_a, shared, Issuer::google_trust_services(), 100),
                conn(3, "www.google-analytics.com", ip_b, shared, Issuer::google_trust_services(), 200),
            ],
        }
    }

    fn klaviyo_site() -> SiteObservation {
        let ip = IpAddr::new(60, 0, 0, 1);
        SiteObservation {
            site: d("shop.example"),
            connections: vec![
                conn(1, "static.klaviyo.com", ip, &["static.klaviyo.com"], Issuer::lets_encrypt(), 0),
                conn(2, "fast.a.klaviyo.com", ip, &["fast.a.klaviyo.com"], Issuer::lets_encrypt(), 100),
            ],
        }
    }

    fn dataset() -> Dataset {
        Dataset::new(
            "test",
            vec![
                analytics_site(IpAddr::new(142, 250, 74, 1), IpAddr::new(142, 250, 74, 2)),
                analytics_site(IpAddr::new(142, 250, 74, 3), IpAddr::new(142, 250, 74, 4)),
                klaviyo_site(),
            ],
        )
    }

    #[test]
    fn ip_origin_attribution_names_analytics() {
        let data = dataset();
        let classifications = classify_dataset(&data, DurationModel::Endless);
        let rows = top_origins_for_cause(&data, &classifications, Cause::Ip, 5);
        assert_eq!(rows[0].origin, d("www.google-analytics.com"));
        assert_eq!(rows[0].connections, 2);
        let (prev, count) = rows[0].top_previous().unwrap();
        assert_eq!(prev, &d("www.googletagmanager.com"));
        assert_eq!(*count, 2);
    }

    #[test]
    fn cert_issuer_and_domain_attribution_names_klaviyo() {
        let data = dataset();
        let classifications = classify_dataset(&data, DurationModel::Endless);
        let issuers = cert_issuers(&data, &classifications, 5);
        assert_eq!(issuers.len(), 1);
        assert_eq!(issuers[0].issuer, Issuer::lets_encrypt());
        assert_eq!(issuers[0].connections, 1);
        assert_eq!(issuers[0].unique_domains, 1);

        let domains = cert_domains(&data, &classifications, 5);
        assert_eq!(domains[0].domain, d("fast.a.klaviyo.com"));
        assert_eq!(domains[0].previous[0].0, d("static.klaviyo.com"));
        assert_eq!(domains[0].issuer.short_code(), "LE");
    }

    #[test]
    fn issuer_share_counts_all_connections() {
        let data = dataset();
        let rows = issuer_share(&data, 10);
        let total: usize = rows.iter().map(|r| r.connections).sum();
        assert_eq!(total, data.total_connections());
        let gts = rows.iter().find(|r| r.issuer == Issuer::google_trust_services()).unwrap();
        assert_eq!(gts.connections, 4);
        assert_eq!(gts.unique_domains, 2);
    }

    #[test]
    fn asn_attribution_uses_the_registry() {
        let data = dataset();
        let classifications = classify_dataset(&data, DurationModel::Endless);
        let mut registry = AsRegistry::new();
        registry.announce("142.250.0.0/16".parse().unwrap(), AutonomousSystem::new(15169, "GOOGLE"));
        let rows = asn_for_ip_cause(&data, &classifications, &registry, 5);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].system.name, "GOOGLE");
        assert_eq!(rows[0].connections, 2);
        assert_eq!(rows[0].unique_domains, 1);
    }

    #[test]
    fn limits_are_respected() {
        let data = dataset();
        let classifications = classify_dataset(&data, DurationModel::Endless);
        assert!(top_origins_for_cause(&data, &classifications, Cause::Ip, 0).is_empty());
        assert_eq!(issuer_share(&data, 1).len(), 1);
    }
}
