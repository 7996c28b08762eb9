//! The assembled simulation environment a browser crawls.

use crate::population::BuildScratch;
use crate::site::Website;
use netsim_asdb::{AsRegistry, AutonomousSystem};
use netsim_dns::Authority;
use netsim_tls::{Certificate, CertificateStore};
use netsim_types::{DomainName, IpAddr};

/// Everything the browser substrate needs to load the generated population:
/// the DNS authority, the certificate inventory (servers present the
/// certificate selected for the SNI name), the IP → AS registry used by the
/// attribution tables, and the per-site fetch plans.
///
/// An environment can be rebuilt in place
/// ([`crate::PopulationBuilder::build_into`]): every layer is reset and
/// regenerated, keeping its capacity, so a worker that builds chunk after
/// chunk into one environment stops allocating once it is warm.
#[derive(Clone, Debug, Default)]
pub struct WebEnvironment {
    /// Authoritative DNS data for every generated domain.
    pub authority: Authority,
    /// All issued certificates.
    pub certificates: CertificateStore,
    /// Prefix → AS announcements for every allocated prefix.
    pub registry: AsRegistry,
    /// The generated sites.
    pub sites: Vec<Website>,
    /// What generation keeps between rebuilds; nothing here is observable.
    pub(crate) scratch: BuildScratch,
}

impl WebEnvironment {
    /// The certificate a server presents for SNI name `domain`, if the domain
    /// exists in the population.
    pub fn certificate_for(&self, domain: &DomainName) -> Option<&Certificate> {
        self.certificates.select_for_sni(domain)
    }

    /// The shared handle for the certificate a server presents for SNI name
    /// `domain` — cloning the handle shares the certificate without copying
    /// its SAN list (the browser hot path's form).
    pub fn certificate_arc_for(&self, domain: &DomainName) -> Option<&std::sync::Arc<Certificate>> {
        self.certificates.select_arc_for_sni(domain)
    }

    /// The AS announcing the prefix that contains `ip`.
    pub fn asn_for(&self, ip: IpAddr) -> Option<&AutonomousSystem> {
        self.registry.lookup(ip)
    }

    /// Number of generated sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Total planned requests across all sites.
    pub fn total_planned_requests(&self) -> usize {
        self.sites.iter().map(|s| s.plan.len()).sum()
    }

    /// Total planned response-body octets across all sites (the population's
    /// page weight, reported by the cost experiment).
    pub fn total_planned_octets(&self) -> u64 {
        self.sites.iter().map(Website::planned_octets).sum()
    }
}
