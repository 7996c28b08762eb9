//! Attribution tables: which origins, certificate issuers, domains and
//! autonomous systems are behind the redundant connections (Tables 2–6, 8–10
//! and 12 of the paper).

use crate::classify::{Cause, SiteClassification};
use crate::observation::SiteObservation;
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

/// Connections behind one table row, the distinct origins among them, and
/// how many of them each previous origin could have carried.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Tally {
    connections: usize,
    domains: BTreeSet<DomainName>,
    previous: BTreeMap<DomainName, usize>,
}

impl Tally {
    /// Count one connection of `origin` (the issuer and AS tables).
    fn count(&mut self, origin: DomainName) {
        self.connections += 1;
        self.domains.insert(origin);
    }

    /// Count one redundant connection with the origins of its earlier
    /// `partners` in `site`, each distinct origin once (the origin and
    /// CERT-domain tables).
    fn count_partners(&mut self, site: &SiteObservation, partners: &[usize]) {
        self.connections += 1;
        let mut seen: BTreeSet<&DomainName> = BTreeSet::new();
        for &partner in partners {
            let domain = &site.connections[partner].initial_domain;
            if seen.insert(domain) {
                *self.previous.entry(*domain).or_default() += 1;
            }
        }
    }

    /// Add every row of `later` into `into`.
    fn merge<K: Ord + Clone>(into: &mut BTreeMap<K, Tally>, later: &BTreeMap<K, Tally>) {
        for (key, tally) in later {
            let row = into.entry(key.clone()).or_default();
            row.connections += tally.connections;
            row.domains.extend(tally.domains.iter().copied());
            for (domain, count) in &tally.previous {
                *row.previous.entry(*domain).or_default() += count;
            }
        }
    }

    /// The previous origins, most frequent first.
    fn ranked_previous(&self) -> Vec<(DomainName, usize)> {
        let mut previous: Vec<(DomainName, usize)> = self.previous.iter().map(|(d, c)| (*d, *c)).collect();
        rank(&mut previous, |row| row.1, |row| row.0, usize::MAX);
        previous
    }
}

/// The one sort-and-truncate step of every attribution table: most
/// connections first, ties broken by ascending `tie` key, then `limit` rows.
/// The sort is stable, so rows equal in both keep their map order.
fn rank<T, K: Ord>(
    rows: &mut Vec<T>,
    connections: impl Fn(&T) -> usize,
    tie: impl Fn(&T) -> K,
    limit: usize,
) {
    rows.sort_by(|a, b| connections(b).cmp(&connections(a)).then_with(|| tie(a).cmp(&tie(b))));
    rows.truncate(limit);
}

/// The attribution tables' fold over one stream of classified sites.
///
/// [`AttributionFold::observe`] folds one site with its classification;
/// folds over consecutive site ranges combine with
/// [`AttributionFold::merge`], earlier range first, because a CERT domain
/// keeps the issuer of its *first* redundant connection. Every other figure
/// is a sum or a set union. The row accessors finish the fold into ranked,
/// truncated table rows; ties break by key (AS name for Table 6).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttributionFold {
    /// IP-cause redundant connections per origin (Tables 2, 8 and 12).
    ip_origins: BTreeMap<DomainName, Tally>,
    /// CERT-cause redundant connections per issuer (Tables 3 and 9).
    cert_issuers: BTreeMap<Issuer, Tally>,
    /// Every connection per issuer (Table 5).
    issuers: BTreeMap<Issuer, Tally>,
    /// CERT-cause redundant connections per domain (Tables 4 and 10)...
    cert_domains: BTreeMap<DomainName, Tally>,
    /// ...and the issuer of each domain's first one.
    cert_domain_issuers: BTreeMap<DomainName, Issuer>,
    /// IP-cause redundant connections per announcing AS (Table 6).
    ip_systems: BTreeMap<AutonomousSystem, Tally>,
}

impl AttributionFold {
    /// Fold one site: `classification` is `site`'s, and `registry` resolves
    /// the site's addresses to the ASes announcing them.
    pub fn observe(
        &mut self,
        site: &SiteObservation,
        classification: &SiteClassification,
        registry: &AsRegistry,
    ) {
        for connection in &site.connections {
            self.issuers.entry(connection.issuer.clone()).or_default().count(connection.initial_domain);
        }
        for connection in &classification.connections {
            let (origin, observed) = (connection.origin, &site.connections[connection.index]);
            let ip_partners = connection.previous_for(Cause::Ip);
            if !ip_partners.is_empty() {
                self.ip_origins.entry(origin).or_default().count_partners(site, ip_partners);
                if let Some(system) = registry.lookup(observed.ip) {
                    self.ip_systems.entry(*system).or_default().count(origin);
                }
            }
            let cert_partners = connection.previous_for(Cause::Cert);
            if !cert_partners.is_empty() {
                self.cert_issuers.entry(observed.issuer.clone()).or_default().count(origin);
                self.cert_domains.entry(origin).or_default().count_partners(site, cert_partners);
                self.cert_domain_issuers.entry(origin).or_insert_with(|| observed.issuer.clone());
            }
        }
    }

    /// Fold a later site range's attribution into this one. A CERT domain
    /// both ranges saw keeps this (earlier) range's issuer.
    pub fn merge(&mut self, later: &AttributionFold) {
        Tally::merge(&mut self.ip_origins, &later.ip_origins);
        Tally::merge(&mut self.cert_issuers, &later.cert_issuers);
        Tally::merge(&mut self.issuers, &later.issuers);
        Tally::merge(&mut self.cert_domains, &later.cert_domains);
        Tally::merge(&mut self.ip_systems, &later.ip_systems);
        for (domain, issuer) in &later.cert_domain_issuers {
            self.cert_domain_issuers.entry(*domain).or_insert_with(|| issuer.clone());
        }
    }

    /// Top origins of IP-cause redundant connections (Table 2; Table 12 is
    /// the same with a larger `limit`).
    pub fn ip_origins(&self, limit: usize) -> Vec<OriginAttribution> {
        let rows = ranked(&self.ip_origins, limit, |origin| *origin);
        rows.map(|(origin, tally)| OriginAttribution {
            origin: *origin,
            connections: tally.connections,
            previous: tally.ranked_previous(),
        })
        .collect()
    }

    /// Issuers of the certificates presented on CERT-redundant connections
    /// (Tables 3 and 9).
    pub fn cert_issuers(&self, limit: usize) -> Vec<IssuerAttribution> {
        issuer_rows(&self.cert_issuers, limit)
    }

    /// Issuer share over *all* observed connections (Table 5).
    pub fn issuer_share(&self, limit: usize) -> Vec<IssuerAttribution> {
        issuer_rows(&self.issuers, limit)
    }

    /// Domains of CERT-redundant connections with their reusable previous
    /// origins and issuers (Tables 4 and 10).
    pub fn cert_domains(&self, limit: usize) -> Vec<CertDomainAttribution> {
        let rows = ranked(&self.cert_domains, limit, |domain| *domain);
        rows.map(|(domain, tally)| CertDomainAttribution {
            domain: *domain,
            connections: tally.connections,
            previous: tally.ranked_previous(),
            issuer: self.cert_domain_issuers[domain].clone(),
        })
        .collect()
    }

    /// Autonomous systems hosting the destinations of IP-cause redundant
    /// connections (Table 6).
    pub fn ip_systems(&self, limit: usize) -> Vec<AsnAttribution> {
        let rows = ranked(&self.ip_systems, limit, |system| system.name);
        let row = |(system, tally): (&AutonomousSystem, &Tally)| AsnAttribution {
            system: *system,
            connections: tally.connections,
            unique_domains: tally.domains.len(),
        };
        rows.map(row).collect()
    }
}

/// The `limit` top rows of `tallies` by [`rank`], ties broken by `tie` of
/// the key.
fn ranked<K, T: Ord>(
    tallies: &BTreeMap<K, Tally>,
    limit: usize,
    tie: impl Fn(&K) -> T,
) -> impl Iterator<Item = (&K, &Tally)> {
    let mut rows: Vec<(&K, &Tally)> = tallies.iter().collect();
    rank(&mut rows, |(_, tally)| tally.connections, |(key, _)| tie(key), limit);
    rows.into_iter()
}

fn issuer_rows(tallies: &BTreeMap<Issuer, Tally>, limit: usize) -> Vec<IssuerAttribution> {
    let row = |(issuer, tally): (&Issuer, &Tally)| IssuerAttribution {
        issuer: issuer.clone(),
        connections: tally.connections,
        unique_domains: tally.domains.len(),
    };
    ranked(tallies, limit, Issuer::clone).map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_site;
    use crate::observation::{DurationModel, ObservedConnection, ObservedRequest};
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

    fn sites() -> Vec<SiteObservation> {
        vec![
            analytics_site(IpAddr::new(142, 250, 74, 1), IpAddr::new(142, 250, 74, 2)),
            analytics_site(IpAddr::new(142, 250, 74, 3), IpAddr::new(142, 250, 74, 4)),
            klaviyo_site(),
        ]
    }

    /// The test sites folded under the endless model, the first site in one
    /// fold and the rest in a later one, merged in order.
    fn fold(registry: &AsRegistry) -> AttributionFold {
        let sites = sites();
        let observe = |fold: &mut AttributionFold, site: &SiteObservation| {
            fold.observe(site, &classify_site(site, DurationModel::Endless), registry)
        };
        let mut first = AttributionFold::default();
        observe(&mut first, &sites[0]);
        let mut later = AttributionFold::default();
        sites[1..].iter().for_each(|site| observe(&mut later, site));
        first.merge(&later);
        first
    }

    #[test]
    fn ip_origin_attribution_names_analytics() {
        let rows = fold(&AsRegistry::new()).ip_origins(5);
        assert_eq!(rows[0].origin, d("www.google-analytics.com"));
        assert_eq!(rows[0].connections, 2);
        let (prev, count) = rows[0].top_previous().unwrap();
        assert_eq!(prev, &d("www.googletagmanager.com"));
        assert_eq!(*count, 2);
    }

    #[test]
    fn cert_issuer_and_domain_attribution_names_klaviyo() {
        let fold = fold(&AsRegistry::new());
        let issuers = fold.cert_issuers(5);
        assert_eq!(issuers.len(), 1);
        assert_eq!(issuers[0].issuer, Issuer::lets_encrypt());
        assert_eq!(issuers[0].connections, 1);
        assert_eq!(issuers[0].unique_domains, 1);

        let domains = fold.cert_domains(5);
        assert_eq!(domains[0].domain, d("fast.a.klaviyo.com"));
        assert_eq!(domains[0].previous[0].0, d("static.klaviyo.com"));
        assert_eq!(domains[0].issuer.short_code(), "LE");
    }

    #[test]
    fn issuer_share_counts_all_connections() {
        let rows = fold(&AsRegistry::new()).issuer_share(10);
        let total: usize = rows.iter().map(|r| r.connections).sum();
        assert_eq!(total, sites().iter().map(SiteObservation::connection_count).sum::<usize>());
        let gts = rows.iter().find(|r| r.issuer == Issuer::google_trust_services()).unwrap();
        assert_eq!(gts.connections, 4);
        assert_eq!(gts.unique_domains, 2);
    }

    #[test]
    fn asn_attribution_uses_the_registry() {
        let mut registry = AsRegistry::new();
        registry.announce("142.250.0.0/16".parse().unwrap(), AutonomousSystem::new(15169, "GOOGLE"));
        let rows = fold(&registry).ip_systems(5);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].system.name, "GOOGLE");
        assert_eq!(rows[0].connections, 2);
        assert_eq!(rows[0].unique_domains, 1);
    }

    #[test]
    fn limits_are_respected() {
        let fold = fold(&AsRegistry::new());
        assert!(fold.ip_origins(0).is_empty());
        assert_eq!(fold.issuer_share(1).len(), 1);
    }

    #[test]
    fn cert_domain_keeps_the_issuer_of_the_earlier_fold() {
        // The klaviyo site with every certificate signed by `issuer`, folded.
        let folded = |issuer: Issuer| {
            let mut site = klaviyo_site();
            site.connections.iter_mut().for_each(|connection| connection.issuer = issuer.clone());
            let mut fold = AttributionFold::default();
            fold.observe(&site, &classify_site(&site, DurationModel::Endless), &AsRegistry::new());
            fold
        };
        for (earlier, later) in [
            (Issuer::lets_encrypt(), Issuer::google_trust_services()),
            (Issuer::google_trust_services(), Issuer::lets_encrypt()),
        ] {
            let mut fold = folded(earlier.clone());
            fold.merge(&folded(later));
            let rows = fold.cert_domains(5);
            assert_eq!(rows[0].connections, 2);
            assert_eq!(rows[0].issuer, earlier);
        }
    }
}
