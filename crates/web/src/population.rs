//! Building a population: services + sites → a crawlable [`WebEnvironment`].

use crate::deployment::SharedDeployment;
use crate::environment::WebEnvironment;
use crate::profiles::PopulationProfile;
use crate::resources::PlannedRequest;
use crate::services::{DnsDeployment, ServiceCatalog, ThirdPartyService};
use crate::site::{ShardingPlan, Website};
use netsim_asdb::{well_known, AsCatalog, AsRegistry, AutonomousSystem};
use netsim_dns::{AddressRun, Authority, LoadBalancePolicy};
use netsim_fetch::RequestDestination;
use netsim_tls::{CertificateStore, IssuancePolicy, Issuer, IssuerCatalog};
use netsim_types::{
    DomainName, Duration, Instant, Mitigation, MitigationSet, NameTable, SimRng, SiteId, SiteNames,
};
use std::sync::Arc;

/// Subdomain labels used for first-party shards.
const SHARD_LABELS: [&str; 8] = ["img", "static", "cdn", "assets", "media", "images", "shop", "api"];

/// The generated-name vocabulary of one TLD: the site names, then the shard
/// names of each [`SHARD_LABELS`] entry.
type TldNames = [SiteNames; 1 + SHARD_LABELS.len()];

/// Top-level domains (and their weights) for generated sites.
const TLDS: &[(&str, f64)] = &[
    ("com", 0.52),
    ("org", 0.09),
    ("net", 0.08),
    ("de", 0.08),
    ("io", 0.05),
    ("co.uk", 0.04),
    ("fr", 0.04),
    ("shop", 0.03),
    ("info", 0.03),
    ("nl", 0.02),
    ("ru", 0.02),
];

/// First-party sub-resource kinds and their weights.
const OWN_RESOURCE_KINDS: &[(RequestDestination, &str, f64)] = &[
    (RequestDestination::Image, "png", 0.50),
    (RequestDestination::Script, "js", 0.22),
    (RequestDestination::Style, "css", 0.15),
    (RequestDestination::Media, "mp4", 0.05),
    (RequestDestination::Xhr, "json", 0.08),
];

/// The path every misc third party serves its widget from.
const WIDGET_PATH: &str = "/embed/widget.js";

/// Epoch length for unsynchronized / synchronized pool balancing. Ten minutes
/// keeps per-resolver assignments stable across one page load (pages finish
/// in seconds) while letting multi-hour crawls and the multi-day probe see
/// the temporal fluctuation the paper's Figure 3 shows.
const LB_EPOCH: Duration = Duration::from_mins(10);

/// Builds a [`WebEnvironment`] from a profile, a service catalog, a site
/// count and a seed. The same inputs always produce the same population.
#[derive(Clone, Debug)]
pub struct PopulationBuilder {
    profile: PopulationProfile,
    /// The service catalog; `None` is the standard one, made only when a
    /// build issues it (a layered build reads its deployment's instead).
    catalog: Option<ServiceCatalog>,
    as_catalog: AsCatalog,
    issuers: IssuerCatalog,
    site_count: usize,
    site_offset: usize,
    seed: u64,
    mitigations: MitigationSet,
    zipf_head: Option<(PopulationProfile, f64)>,
    deployment: Option<Arc<SharedDeployment>>,
    /// Sampling weights hoisted out of the per-site loop (one allocation per
    /// builder instead of several per generated site).
    tld_weights: Vec<f64>,
    resource_kind_weights: Vec<f64>,
    issuer_weights: Vec<f64>,
    major_as_weights: Vec<f64>,
    /// Site and shard name families per [`TLDS`] entry, for the profile's
    /// stem: generated names are handles into them, never interned.
    names: Vec<TldNames>,
}

impl PopulationBuilder {
    /// A builder with the standard service catalog.
    pub fn new(profile: PopulationProfile, site_count: usize, seed: u64) -> Self {
        let as_catalog = AsCatalog::default();
        let issuers = IssuerCatalog::default_market();
        let names = TLDS.iter().map(|(tld, _)| tld_names(&profile.name, tld)).collect();
        PopulationBuilder {
            profile,
            catalog: None,
            site_count,
            site_offset: 0,
            seed,
            mitigations: MitigationSet::empty(),
            zipf_head: None,
            deployment: None,
            tld_weights: TLDS.iter().map(|(_, w)| *w).collect(),
            resource_kind_weights: OWN_RESOURCE_KINDS.iter().map(|(_, _, w)| *w).collect(),
            issuer_weights: issuers.weights(),
            major_as_weights: as_catalog.major_weights(),
            names,
            as_catalog,
            issuers,
        }
    }

    /// Layer the population on a memoized [`SharedDeployment`] instead of
    /// re-issuing the service catalog: the environment's authority,
    /// certificate store and AS registry start as views over the shared
    /// deployment, and only per-site state is generated locally. The
    /// deployment must have been issued for this builder's mitigation set
    /// (checked) — use [`crate::DeploymentCache`] to obtain one.
    pub fn with_shared_deployment(mut self, deployment: Arc<SharedDeployment>) -> Self {
        self.deployment = Some(deployment);
        self
    }

    /// Generate the slice `[offset, offset + site_count)` of a larger
    /// population: site ids, domain names, RNG streams and profile ranks all
    /// use the *global* index, so building a population in chunks yields
    /// exactly the sites a single monolithic build would (per chunk), with
    /// memory bounded by the chunk size. Used by the atlas scale scenario.
    pub fn with_site_offset(mut self, offset: usize) -> Self {
        self.site_offset = offset;
        self
    }

    /// Point the builder at the slice `[offset, offset + count)`, in place:
    /// how a worker that builds chunk after chunk keeps one builder.
    pub fn set_site_range(&mut self, offset: usize, count: usize) {
        self.site_offset = offset;
        self.site_count = count;
    }

    /// Mix a second, heavier "head" profile in by Zipf rank: site at global
    /// rank `r` uses `head` with probability `(1 / (1 + r))^exponent`, the
    /// base profile otherwise. This reproduces the top-list effect the paper
    /// observes — popular sites carry more third-party instrumentation — in
    /// one synthetic population. The mix decision consumes one RNG draw from
    /// the site's own stream, so it is independent of chunking and threads.
    pub fn with_zipf_profile_mix(mut self, head: PopulationProfile, exponent: f64) -> Self {
        self.zipf_head = Some((head, exponent));
        self
    }

    /// Replace the third-party service catalog.
    pub fn with_catalog(mut self, catalog: ServiceCatalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Deploy the environment-side mitigations while generating: synchronized
    /// DNS converts every unsynchronized pool (third-party clusters *and*
    /// first-party multi-IP CDNs) into a synchronized one, and certificate
    /// coalescing merges split certificate groups and per-shard first-party
    /// certificates. All sampling (site layout, embeds, shard plans) consumes
    /// the RNG streams identically, so two builders differing only in
    /// mitigations produce populations with the *same* sites and request
    /// plans — only the deployment differs, which is what makes sweep cells
    /// comparable. The builder keeps only the set's
    /// [`MitigationSet::environment`]: the browser-side mitigations do not
    /// change the web.
    pub fn with_mitigations(mut self, mitigations: MitigationSet) -> Self {
        self.mitigations = mitigations.environment();
        self
    }

    /// The profile the builder uses.
    pub fn profile(&self) -> &PopulationProfile {
        &self.profile
    }

    /// Generate the population into a fresh environment.
    pub fn build(&self) -> WebEnvironment {
        let mut env = WebEnvironment::default();
        self.build_into(&mut env);
        env
    }

    /// Generate the population into `env`, replacing everything it held.
    /// Every layer is reset over this builder's deployment (or over nothing)
    /// and regenerated in place, keeping its capacity, and each site reuses
    /// the plan and shard vectors of the site its slot held: rebuilding a
    /// chunk the environment has held before allocates nothing. The result
    /// is the environment [`PopulationBuilder::build`] returns.
    pub fn build_into(&self, env: &mut WebEnvironment) {
        let WebEnvironment { authority, certificates, registry, sites, scratch } = env;
        let mut layers = Layers { authority, certificates, registry };
        let mitigated_catalog;
        let catalog = match &self.deployment {
            // Layered build: the shared deployment already carries the
            // catalog's zones/certificates/prefixes; reset the environment
            // to views over it and only generate per-site state.
            Some(deployment) => {
                assert_eq!(
                    deployment.mitigations, self.mitigations,
                    "shared deployment was issued under different mitigations"
                );
                layers.authority.reset(Some(Arc::clone(&deployment.authority)));
                layers.certificates.reset(Some(Arc::clone(&deployment.certificates)));
                layers.registry.reset(Some(Arc::clone(&deployment.registry)));
                &deployment.catalog
            }
            None => {
                mitigated_catalog = match &self.catalog {
                    Some(catalog) => catalog.with_mitigations(self.mitigations),
                    None => ServiceCatalog::standard().with_mitigations(self.mitigations),
                };
                layers.authority.reset(None);
                layers.certificates.reset(None);
                layers.registry.reset(None);
                for service in mitigated_catalog.services() {
                    install_service(&mut layers, service);
                }
                &mitigated_catalog
            }
        };

        scratch.begin(self, catalog);
        sites.truncate(self.site_count);
        let root = SimRng::new(self.seed);
        for local in 0..self.site_count {
            let index = self.site_offset + local;
            let mut rng = root.fork_indexed("site", index as u64);
            let recycled = match sites.get_mut(local) {
                Some(site) => (std::mem::take(&mut site.plan), site.sharding.take().map(|s| s.shards)),
                None => (Vec::new(), None),
            };
            let site = self.generate_site(&mut layers, catalog, scratch, index, &mut rng, recycled);
            match sites.get_mut(local) {
                Some(slot) => *slot = site,
                None => sites.push(site),
            }
        }
    }

    /// The Zipf head-profile weight for a global site rank.
    fn zipf_weight(rank: usize, exponent: f64) -> f64 {
        (1.0 / (1.0 + rank as f64)).powf(exponent)
    }

    /// Generate the site at global `index` into `recycled` plan and shard
    /// vectors. The plan is drafted in the scratch buffer and copied into
    /// an exactly sized slot, so a recycled slot holds no more than the
    /// longest plan it has carried.
    fn generate_site(
        &self,
        layers: &mut Layers<'_>,
        catalog: &ServiceCatalog,
        scratch: &mut BuildScratch,
        index: usize,
        rng: &mut SimRng,
        (mut site_plan, recycled_shards): (Vec<PlannedRequest>, Option<Vec<DomainName>>),
    ) -> Website {
        let BuildScratch {
            plan,
            first_party,
            plan_index_of,
            base_embed,
            head_embed,
            resource_paths,
            misc,
            misc_installed,
            ..
        } = scratch;
        let names = &self.names[rng.pick_weighted_index(&self.tld_weights).unwrap_or(0)];
        let index_u32 = u32::try_from(index).expect("site index fits generated names");
        let domain = names[0].name(index_u32);

        // Per-site profile: the Zipf head draw (if configured) comes first so
        // the remaining sampling reads one coherent profile. Without a mix,
        // the stream is untouched and existing populations stay byte-stable.
        let (profile, embed_probs) = match &self.zipf_head {
            Some((head, exponent)) if rng.chance(Self::zipf_weight(index, *exponent)) => {
                (head, head_embed.as_slice())
            }
            _ => (&self.profile, base_embed.as_slice()),
        };

        // Hosting: either fronted by Cloudflare or on a generic hoster.
        let behind_cloudflare = rng.chance(profile.cloudflare_probability);
        let autonomous_system = if behind_cloudflare {
            well_known::cloudflare()
        } else {
            self.as_catalog.generic_for(rng.in_range(0..1_000_000u32))
        };
        let issuer = if behind_cloudflare {
            Issuer::cloudflare()
        } else {
            let pick = rng.pick_weighted_index(&self.issuer_weights).unwrap_or(0);
            self.issuers.issuer_at(pick).clone()
        };

        // Sharding decision.
        let sharding = if rng.chance(profile.sharding_probability) {
            let (low, high) = profile.shard_count_range;
            let count = rng.in_range(low..=high).min(SHARD_LABELS.len());
            // A shuffle's draws depend only on the length: shuffling slots
            // picks the labels the label array itself would.
            let mut labels: [usize; SHARD_LABELS.len()] = std::array::from_fn(|slot| slot);
            rng.shuffle(&mut labels);
            let mut shards = recycled_shards.unwrap_or_default();
            shards.clear();
            shards.extend(labels[..count].iter().map(|&slot| names[1 + slot].name(index_u32)));
            Some(ShardingPlan {
                shards,
                per_domain_certificates: rng.chance(profile.per_domain_cert_probability),
                multi_ip_cdn: rng.chance(profile.multi_ip_cdn_probability),
            })
        } else {
            None
        };

        first_party.clear();
        first_party.push(domain);
        if let Some(plan) = &sharding {
            first_party.extend_from_slice(&plan.shards);
        }

        // First-party DNS.
        let prefix = layers.registry.allocate_slash24(autonomous_system);
        let multi_ip = sharding.as_ref().map(|s| s.multi_ip_cdn).unwrap_or(false);
        let policy = if multi_ip {
            let pool = LoadBalancePolicy::PerResolverPool {
                pool: AddressRun::new(prefix.host(10), 4),
                answer_size: 1,
                epoch: LB_EPOCH,
            };
            if self.mitigations.contains(Mitigation::SynchronizedDns) {
                pool.synchronized()
            } else {
                pool
            }
        } else {
            LoadBalancePolicy::single(prefix.host(10))
        };
        for fp_domain in first_party.iter() {
            layers.authority.insert(*fp_domain, policy);
        }

        // First-party certificates.
        let per_domain = sharding.as_ref().map(|s| s.per_domain_certificates).unwrap_or(false);
        let mut policy = if per_domain { IssuancePolicy::PerDomain } else { IssuancePolicy::SharedSan };
        if self.mitigations.contains(Mitigation::CertificateCoalescing) {
            policy = policy.coalesced();
        }
        layers.certificates.issue_with_policy(&issuer, &policy, first_party, Instant::EPOCH);

        // Fetch plan: document first.
        plan.clear();
        plan.push(PlannedRequest::document(domain));

        // Own sub-resources, spread over the first-party hosts.
        let (res_low, res_high) = profile.own_resource_range;
        let own_resources = rng.in_range(res_low..=res_high);
        for resource_index in 0..own_resources {
            let host = if first_party.len() == 1 || rng.chance(0.5) {
                first_party[0]
            } else {
                first_party[1 + rng.in_range(0..first_party.len() - 1)]
            };
            let kind = rng.pick_weighted_index(&self.resource_kind_weights).unwrap_or(0);
            let (destination, _, _) = OWN_RESOURCE_KINDS[kind];
            let size = rng.in_range(1_500u64..250_000);
            let path = resource_paths[resource_index * OWN_RESOURCE_KINDS.len() + kind];
            plan.push(PlannedRequest::subresource(host, path, destination, 0, size));
        }

        // Third-party services.
        for (service, embed_probability) in catalog.services().iter().zip(embed_probs) {
            if rng.chance(*embed_probability) {
                append_service_requests(plan, plan_index_of, service, rng);
            }
        }

        // Unrelated one-off third parties (the "unknown third party" class),
        // installed into this build on first touch.
        let (misc_low, misc_high) = profile.misc_third_party_range;
        let misc_count = rng.in_range(misc_low..=misc_high);
        for _ in 0..misc_count {
            let pool_index = rng.in_range(0..profile.misc_third_party_pool);
            let third_party = &misc[pool_index];
            if !misc_installed[pool_index] {
                misc_installed[pool_index] = true;
                third_party.install(layers);
            }
            let destination =
                if rng.chance(0.6) { RequestDestination::Script } else { RequestDestination::Image };
            let size = rng.in_range(1_000u64..120_000);
            plan.push(PlannedRequest::subresource(third_party.domain, WIDGET_PATH, destination, 0, size));
        }

        site_plan.clear();
        site_plan.reserve_exact(plan.len());
        site_plan.extend_from_slice(plan);
        Website { id: SiteId(index as u64), domain, sharding, plan: site_plan }
    }

    /// Derive pool slot `pool_index`'s misc third party: a pure function of
    /// the build seed and the slot.
    fn misc_third_party(&self, root: &SimRng, pool_index: usize) -> MiscThirdParty {
        let mut rng = root.fork_indexed("misc-third-party", pool_index as u64);
        let system = if rng.chance(0.35) {
            let pick = rng.pick_weighted_index(&self.major_as_weights).unwrap_or(0);
            *self.as_catalog.major_at(pick)
        } else {
            self.as_catalog.generic_for(rng.in_range(0..1_000_000u32))
        };
        let issuer =
            self.issuers.issuer_at(rng.pick_weighted_index(&self.issuer_weights).unwrap_or(0)).clone();
        MiscThirdParty { domain: misc_domain_for(pool_index), system, issuer }
    }
}

/// The three deployment layers a build installs into.
pub(crate) struct Layers<'a> {
    pub(crate) authority: &'a mut Authority,
    pub(crate) certificates: &'a mut CertificateStore,
    pub(crate) registry: &'a mut AsRegistry,
}

/// One slot of the shared pool of unrelated third parties.
#[derive(Clone, Debug)]
struct MiscThirdParty {
    domain: DomainName,
    system: AutonomousSystem,
    issuer: Issuer,
}

impl MiscThirdParty {
    /// Install the third party into this build: a fresh prefix, a
    /// single-address DNS entry and one certificate.
    fn install(&self, layers: &mut Layers<'_>) {
        let prefix = layers.registry.allocate_slash24(self.system);
        layers.authority.insert(self.domain, LoadBalancePolicy::single(prefix.host(20)));
        layers.certificates.issue_with_policy(
            &self.issuer,
            &IssuancePolicy::SharedSan,
            std::slice::from_ref(&self.domain),
            Instant::EPOCH,
        );
    }
}

/// What an environment keeps between builds: buffers whose capacity
/// outlives one build and the misc third parties derived under the last
/// build seed. None of it is observable: a build overwrites each buffer
/// before reading it, resets the per-build install marks, and a misc slot
/// is a pure function of the seed and its index. The whole pool is derived
/// up front, so its names are interned before the first site is generated
/// and no later chunk adds one.
#[derive(Clone, Debug, Default)]
pub(crate) struct BuildScratch {
    /// The current site's plan, before it is copied into the site's slot.
    plan: Vec<PlannedRequest>,
    /// The current site's first-party hosts: landing domain, then shards.
    first_party: Vec<DomainName>,
    /// Plan index of each request of the service being appended.
    plan_index_of: Vec<Option<usize>>,
    /// Embed probability per catalog service for the base profile.
    base_embed: Vec<f64>,
    /// Same for the Zipf head profile, when one is configured.
    head_embed: Vec<f64>,
    /// `resource_paths[resource_index * KINDS + kind]`.
    resource_paths: Vec<&'static str>,
    /// The seed the misc slots were derived under.
    misc_seed: Option<u64>,
    /// Derived misc third parties by pool slot.
    misc: Vec<MiscThirdParty>,
    /// Whether the current build has installed each misc slot.
    misc_installed: Vec<bool>,
}

impl BuildScratch {
    /// Prepare for `builder`'s build over `catalog`: refill the per-build
    /// tables.
    fn begin(&mut self, builder: &PopulationBuilder, catalog: &ServiceCatalog) {
        let services = catalog.services();
        self.base_embed.clear();
        self.base_embed.extend(services.iter().map(|s| builder.profile.embed_probability(&s.name)));
        self.head_embed.clear();
        let mut max_resources = builder.profile.own_resource_range.1;
        let mut pool = builder.profile.misc_third_party_pool;
        if let Some((head, _)) = &builder.zipf_head {
            self.head_embed.extend(services.iter().map(|s| head.embed_probability(&s.name)));
            max_resources = max_resources.max(head.own_resource_range.1);
            pool = pool.max(head.misc_third_party_pool);
        }
        self.resource_paths.clear();
        for resource_index in 0..max_resources {
            self.resource_paths
                .extend((0..OWN_RESOURCE_KINDS.len()).map(|kind| resource_path(resource_index, kind)));
        }
        if self.misc_seed != Some(builder.seed) {
            self.misc_seed = Some(builder.seed);
            self.misc.clear();
        }
        if self.misc.len() < pool {
            let root = SimRng::new(builder.seed);
            let missing = self.misc.len()..pool;
            self.misc.extend(missing.map(|slot| builder.misc_third_party(&root, slot)));
        }
        self.misc_installed.clear();
        self.misc_installed.resize(pool, false);
    }
}

/// The shared path of the `resource_index`-th own resource of kind `kind`
/// (an index into [`OWN_RESOURCE_KINDS`]).
fn resource_path(resource_index: usize, kind: usize) -> &'static str {
    static PATHS: NameTable = NameTable::new();
    let key = (resource_index * OWN_RESOURCE_KINDS.len() + kind) as u64;
    PATHS.get(key, || format!("/assets/resource-{resource_index}.{}", OWN_RESOURCE_KINDS[kind].1))
}

/// The name families of `tld` for profile stem `stem`:
/// `{stem}-site-{index:06}.{tld}` and `{label}.{stem}-site-{index:06}.{tld}`.
fn tld_names(stem: &str, tld: &str) -> TldNames {
    let family = |label| SiteNames::get(stem, tld, label).expect("generated names are valid");
    std::array::from_fn(|slot| family(slot.checked_sub(1).map(|label| SHARD_LABELS[label])))
}

/// The shared pool of unrelated third-party domains.
fn misc_domain_for(pool_index: usize) -> DomainName {
    DomainName::parse(&format!("cdn.thirdparty-{pool_index:04}.net")).expect("misc domain is valid")
}

/// Install one third-party service: DNS entries per IP cluster, certificates
/// per certificate group, prefixes in the AS registry. Takes the layers
/// apart from an environment so that [`SharedDeployment::issue`] can install
/// into standalone instances.
pub(crate) fn install_service(layers: &mut Layers<'_>, service: &ThirdPartyService) {
    let hosting = &service.hosting;
    for cluster in &hosting.ip_clusters {
        let pool = |prefix: netsim_types::Prefix, size: u8| AddressRun::new(prefix.host(10), size.into());
        match &cluster.deployment {
            DnsDeployment::SingleHost => {
                let prefix = layers.registry.allocate_slash24(hosting.autonomous_system);
                let ip = prefix.host(10);
                for domain in &cluster.domains {
                    layers.authority.insert(*domain, LoadBalancePolicy::single(ip));
                }
            }
            DnsDeployment::UnsynchronizedPool { pool_size, answer_size } => {
                let prefix = layers.registry.allocate_slash24(hosting.autonomous_system);
                let policy = LoadBalancePolicy::PerResolverPool {
                    pool: pool(prefix, *pool_size),
                    answer_size: *answer_size,
                    epoch: LB_EPOCH,
                };
                for domain in &cluster.domains {
                    layers.authority.insert(*domain, policy);
                }
            }
            DnsDeployment::SynchronizedPool { pool_size, answer_size } => {
                let prefix = layers.registry.allocate_slash24(hosting.autonomous_system);
                let policy = LoadBalancePolicy::SynchronizedPool {
                    pool: pool(prefix, *pool_size),
                    answer_size: *answer_size,
                    epoch: LB_EPOCH,
                };
                for domain in &cluster.domains {
                    layers.authority.insert(*domain, policy);
                }
            }
            DnsDeployment::DistinctNetworks => {
                for domain in &cluster.domains {
                    let prefix = layers.registry.allocate_slash24(hosting.autonomous_system);
                    layers.authority.insert(*domain, LoadBalancePolicy::single(prefix.host(10)));
                }
            }
        }
    }
    for group in &hosting.certificate_groups {
        layers.certificates.issue_with_policy(
            &hosting.issuer,
            &IssuancePolicy::SharedSan,
            group,
            Instant::EPOCH,
        );
    }
}

/// Append a service's request chain to a site plan, sampling per-request
/// probabilities and remapping parent indices. Requests whose parent was
/// skipped attach to the document instead.
fn append_service_requests(
    plan: &mut Vec<PlannedRequest>,
    plan_index_of: &mut Vec<Option<usize>>,
    service: &ThirdPartyService,
    rng: &mut SimRng,
) {
    plan_index_of.clear();
    for request in &service.requests {
        if !rng.chance(request.probability) {
            plan_index_of.push(None);
            continue;
        }
        let parent = match request.initiated_by {
            None => 0,
            Some(service_parent) => plan_index_of.get(service_parent).copied().flatten().unwrap_or(0),
        };
        let mut planned = PlannedRequest::subresource(
            request.domain,
            request.path,
            request.destination,
            parent,
            request.body_size,
        );
        if request.anonymous {
            planned = planned.anonymous();
        }
        plan.push(planned);
        plan_index_of.push(Some(plan.len() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::plan_is_well_formed;

    fn build_small(profile: PopulationProfile, count: usize, seed: u64) -> WebEnvironment {
        PopulationBuilder::new(profile, count, seed).build()
    }

    #[test]
    fn build_is_deterministic() {
        let a = build_small(PopulationProfile::archive(), 50, 42);
        let b = build_small(PopulationProfile::archive(), 50, 42);
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.certificates.len(), b.certificates.len());
        let c = build_small(PopulationProfile::archive(), 50, 43);
        assert_ne!(a.sites, c.sites);
    }

    #[test]
    fn mitigated_population_keeps_sites_and_plans_identical() {
        let baseline = PopulationBuilder::new(PopulationProfile::alexa(), 60, 13).build();
        let mitigated = PopulationBuilder::new(PopulationProfile::alexa(), 60, 13)
            .with_mitigations(MitigationSet::all())
            .build();
        // Same sites, same request plans — only the deployment differs.
        assert_eq!(baseline.sites, mitigated.sites);
        // Certificate coalescing can only reduce the number of certificates.
        assert!(mitigated.certificates.len() <= baseline.certificates.len());
        // Every plan still resolves and has a covering certificate.
        for site in &mitigated.sites {
            for request in &site.plan {
                assert!(mitigated.authority.knows(&request.domain));
                let cert = mitigated.certificate_for(&request.domain).expect("certificate exists");
                assert!(cert.covers(&request.domain));
            }
        }
    }

    #[test]
    fn every_plan_is_well_formed_and_resolvable() {
        let env = build_small(PopulationProfile::alexa(), 80, 7);
        assert_eq!(env.site_count(), 80);
        for site in &env.sites {
            assert!(plan_is_well_formed(&site.plan), "site {} has malformed plan", site.domain);
            for request in &site.plan {
                assert!(
                    env.authority.knows(&request.domain),
                    "no DNS entry for {} (site {})",
                    request.domain,
                    site.domain
                );
                assert!(
                    env.certificate_for(&request.domain).is_some(),
                    "no certificate for {} (site {})",
                    request.domain,
                    site.domain
                );
            }
        }
    }

    #[test]
    fn certificates_cover_their_sni_domains() {
        let env = build_small(PopulationProfile::archive(), 60, 11);
        for site in &env.sites {
            for domain in site.contacted_domains() {
                let cert = env.certificate_for(&domain).expect("certificate exists");
                assert!(cert.covers(&domain), "certificate for {domain} does not cover it");
            }
        }
    }

    #[test]
    fn embed_rates_follow_the_profile_roughly() {
        let env = build_small(PopulationProfile::alexa(), 400, 3);
        // The tag-manager script is the analytics service's first request,
        // planned on every embedding.
        let gtm = DomainName::literal("www.googletagmanager.com");
        let ga_sites = env.sites.iter().filter(|s| s.plan.iter().any(|r| r.domain == gtm)).count();
        let rate = ga_sites as f64 / env.site_count() as f64;
        let target = PopulationProfile::alexa().embed_probability("google-analytics");
        assert!((rate - target).abs() < 0.12, "rate {rate} too far from target {target}");
    }

    #[test]
    fn sharded_sites_have_first_party_shard_hosts() {
        let env = build_small(PopulationProfile::archive(), 200, 5);
        let sharded: Vec<&Website> = env.sites.iter().filter(|s| s.sharding.is_some()).collect();
        assert!(!sharded.is_empty());
        for site in sharded {
            let sharding = site.sharding.as_ref().unwrap();
            assert!(!sharding.shards.is_empty());
            for shard in &sharding.shards {
                assert_eq!(shard.parent(), Some(site.domain));
                assert!(env.authority.knows(shard));
            }
        }
    }

    #[test]
    fn service_ips_come_from_their_as() {
        let env = build_small(PopulationProfile::archive(), 10, 9);
        // The analytics cluster is announced by GOOGLE.
        let ga = DomainName::literal("www.google-analytics.com");
        let mut addresses = Vec::new();
        let ctx = netsim_dns::QueryContext::new(netsim_dns::ResolverId(0), Instant::EPOCH);
        assert!(env.authority.addresses_into(&ga, &ctx, &mut addresses));
        let ip = addresses[0];
        assert_eq!(env.asn_for(ip).unwrap().name, "GOOGLE");
    }

    #[test]
    fn misc_third_parties_are_shared_between_sites() {
        let env = build_small(PopulationProfile::alexa(), 300, 21);
        let mut misc_domains: Vec<DomainName> = env
            .sites
            .iter()
            .flat_map(|s| s.contacted_domains())
            .filter(|d| d.to_string().contains("thirdparty-"))
            .collect();
        assert!(!misc_domains.is_empty());
        misc_domains.sort();
        let total = misc_domains.len();
        misc_domains.dedup();
        assert!(misc_domains.len() < total, "misc third parties should repeat across sites");
    }
}
