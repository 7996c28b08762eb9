//! Memoized service deployments: issue the third-party catalog's DNS zones,
//! certificates and prefix announcements **once** per deployed environment
//! ([`MitigationSet::environment`]) and share them across population chunks.
//!
//! Generating a population installs two kinds of state into the environment:
//! the *shared* deployment of the third-party service catalog (zones,
//! certificates, AS prefixes — identical for every site) and the *per-site*
//! state (first-party zones/certificates, request plans). The atlas scale
//! scenario builds its population in hundreds of chunks, and before this
//! layer each chunk re-issued the entire catalog deployment. A
//! [`SharedDeployment`] is issued once per `(catalog, mitigation-set)` and
//! layered underneath every chunk's environment via the base-sharing support
//! in [`netsim_dns::Authority`], [`netsim_tls::CertificateStore`] and
//! [`netsim_asdb::AsRegistry`]; chunk generation is then O(sites in the
//! chunk) with the shared part O(distinct profiles), not O(sites).
//!
//! Observational equivalence with per-chunk issuance — same answers, same
//! certificates, same prefix allocation — is property-tested in
//! `crates/web/tests/deployment_equivalence.rs`.

use crate::population::{install_service, Layers};
use crate::services::ServiceCatalog;
use netsim_asdb::AsRegistry;
use netsim_dns::Authority;
use netsim_tls::CertificateStore;
use netsim_types::MitigationSet;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The immutable, shareable deployment of one service catalog under the
/// environment of one mitigation set.
#[derive(Debug)]
pub struct SharedDeployment {
    /// Authoritative zones of every catalog service.
    pub authority: Arc<Authority>,
    /// Certificates of every catalog service (ids `0..len`).
    pub certificates: Arc<CertificateStore>,
    /// Prefix announcements of every catalog service; the allocator of a
    /// layered registry continues after these.
    pub registry: Arc<AsRegistry>,
    /// The (already mitigated) catalog this deployment was issued from.
    pub catalog: ServiceCatalog,
    /// The environment the deployment was issued under: the web part
    /// ([`MitigationSet::environment`]) of the requested set.
    pub mitigations: MitigationSet,
}

impl SharedDeployment {
    /// Issue the deployment: install every service of `catalog` (with
    /// `mitigations` applied) into fresh authority/certificate/registry
    /// structures, exactly as [`crate::PopulationBuilder::build`] would at
    /// the start of a monolithic build. Only `mitigations`' environment is
    /// deployed and recorded.
    pub fn issue(catalog: &ServiceCatalog, mitigations: MitigationSet) -> Arc<SharedDeployment> {
        let mitigations = mitigations.environment();
        let mitigated = catalog.with_mitigations(mitigations);
        let mut authority = Authority::new();
        let mut certificates = CertificateStore::new();
        let mut registry = AsRegistry::new();
        let mut layers =
            Layers { authority: &mut authority, certificates: &mut certificates, registry: &mut registry };
        for service in mitigated.services() {
            install_service(&mut layers, service);
        }
        Arc::new(SharedDeployment {
            authority: Arc::new(authority),
            certificates: Arc::new(certificates),
            registry: Arc::new(registry),
            catalog: mitigated,
            mitigations,
        })
    }
}

/// A concurrent memo of [`SharedDeployment`]s keyed by environment
/// ([`MitigationSet::environment`]), for one service catalog. Issuing is
/// O(catalog); every further request for a set with the same environment is
/// a map lookup plus an `Arc` clone, so generating a population in N chunks
/// issues the catalog once instead of N times, and the 16 mitigation sets
/// share 4 deployments.
#[derive(Debug)]
pub struct DeploymentCache {
    catalog: ServiceCatalog,
    cells: Mutex<HashMap<MitigationSet, Arc<SharedDeployment>>>,
}

impl DeploymentCache {
    /// A cache issuing deployments of `catalog`.
    pub fn new(catalog: ServiceCatalog) -> Self {
        DeploymentCache { catalog, cells: Mutex::new(HashMap::new()) }
    }

    /// A cache for the standard catalog (what every scenario uses).
    pub fn standard() -> Self {
        DeploymentCache::new(ServiceCatalog::standard())
    }

    /// The memoized deployment of `mitigations`' environment, issuing it on
    /// first use.
    pub fn deployment(&self, mitigations: MitigationSet) -> Arc<SharedDeployment> {
        let environment = mitigations.environment();
        let mut cells = self.cells.lock().expect("deployment cache poisoned");
        Arc::clone(
            cells.entry(environment).or_insert_with(|| SharedDeployment::issue(&self.catalog, environment)),
        )
    }

    /// Number of distinct environments issued so far.
    pub fn issued(&self) -> usize {
        self.cells.lock().expect("deployment cache poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_types::Mitigation;

    #[test]
    fn deployments_are_issued_once_per_mitigation_set() {
        let cache = DeploymentCache::standard();
        let a = cache.deployment(MitigationSet::empty());
        let b = cache.deployment(MitigationSet::empty());
        assert!(Arc::ptr_eq(&a, &b), "same mitigation set must share one deployment");
        assert_eq!(cache.issued(), 1);
        // A browser-only set shares its environment's deployment.
        let browser_only =
            MitigationSet::single(Mitigation::OriginFrames).with(Mitigation::CredentialPooling);
        assert!(Arc::ptr_eq(&a, &cache.deployment(browser_only)));
        assert_eq!(cache.issued(), 1);
        let c = cache.deployment(MitigationSet::single(Mitigation::SynchronizedDns));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.issued(), 2);
        let all = cache.deployment(MitigationSet::all());
        assert!(Arc::ptr_eq(&all, &cache.deployment(MitigationSet::all().environment())));
        assert_eq!(all.mitigations, MitigationSet::all().environment());
        for set in MitigationSet::all_combinations() {
            assert!(Arc::ptr_eq(&cache.deployment(set), &cache.deployment(set.environment())), "{set}");
        }
        assert_eq!(cache.issued(), 4);
    }

    #[test]
    fn issued_deployment_contains_the_catalog_services() {
        let deployment = SharedDeployment::issue(&ServiceCatalog::standard(), MitigationSet::empty());
        assert!(deployment.authority.name_count() > 0);
        assert!(!deployment.certificates.is_empty());
        let analytics = netsim_types::DomainName::literal("www.google-analytics.com");
        assert!(deployment.authority.knows(&analytics));
        assert!(deployment.certificates.select_for_sni(&analytics).is_some());
    }
}
