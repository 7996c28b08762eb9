//! Building a population: services + sites → a crawlable [`WebEnvironment`].

use crate::deployment::SharedDeployment;
use crate::environment::WebEnvironment;
use crate::profiles::PopulationProfile;
use crate::resources::PlannedRequest;
use crate::services::{DnsDeployment, ServiceCatalog, ThirdPartyService};
use crate::site::{ShardingPlan, Website};
use netsim_asdb::{well_known, AsCatalog, AsRegistry};
use netsim_dns::{Authority, LoadBalancePolicy};
use netsim_fetch::RequestDestination;
use netsim_tls::{CertificateStore, IssuancePolicy, Issuer, IssuerCatalog};
use netsim_types::{DomainName, Duration, Instant, IpAddr, Mitigation, MitigationSet, SimRng, SiteId};
use std::sync::Arc;

/// Subdomain labels used for first-party shards.
const SHARD_LABELS: &[&str] = &["img", "static", "cdn", "assets", "media", "images", "shop", "api"];

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
    catalog: ServiceCatalog,
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
}

impl PopulationBuilder {
    /// A builder with the standard service catalog.
    pub fn new(profile: PopulationProfile, site_count: usize, seed: u64) -> Self {
        let as_catalog = AsCatalog::default();
        let issuers = IssuerCatalog::default_market();
        PopulationBuilder {
            profile,
            catalog: ServiceCatalog::standard(),
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
        self.catalog = catalog;
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
    /// comparable.
    pub fn with_mitigations(mut self, mitigations: MitigationSet) -> Self {
        self.mitigations = mitigations;
        self
    }

    /// The profile the builder uses.
    pub fn profile(&self) -> &PopulationProfile {
        &self.profile
    }

    /// Generate the population.
    pub fn build(&self) -> WebEnvironment {
        let root = SimRng::new(self.seed);
        // The misc third parties this build has named and installed, by pool
        // slot: each is formatted, parsed and installed once per build.
        let misc_pool = self.zipf_head.as_ref().map_or(0, |(head, _)| head.misc_third_party_pool);
        let mut misc_names: Vec<Option<DomainName>> =
            vec![None; self.profile.misc_third_party_pool.max(misc_pool)];
        let mitigated_catalog;
        let (mut env, catalog): (WebEnvironment, &ServiceCatalog) = match &self.deployment {
            // Layered build: the shared deployment already carries the
            // catalog's zones/certificates/prefixes; start the environment
            // as views over it and only generate per-site state.
            Some(deployment) => {
                assert_eq!(
                    deployment.mitigations, self.mitigations,
                    "shared deployment was issued under different mitigations"
                );
                let env = WebEnvironment {
                    authority: Authority::with_base(Arc::clone(&deployment.authority)),
                    certificates: CertificateStore::with_base(Arc::clone(&deployment.certificates)),
                    registry: AsRegistry::with_base(Arc::clone(&deployment.registry)),
                    sites: Vec::new(),
                };
                (env, &deployment.catalog)
            }
            None => {
                mitigated_catalog = self.catalog.with_mitigations(self.mitigations);
                let mut env = WebEnvironment::default();
                for service in mitigated_catalog.services() {
                    install_service(&mut env.authority, &mut env.certificates, &mut env.registry, service);
                }
                (env, &mitigated_catalog)
            }
        };

        // Hoisted per-build tables: service embed probabilities aligned with
        // the catalog's service order (replacing a string-keyed lookup per
        // service per site) and the shared own-resource path strings.
        let caches = GenCaches::new(self, catalog);

        for local in 0..self.site_count {
            let index = self.site_offset + local;
            let mut rng = root.fork_indexed("site", index as u64);
            let site =
                self.generate_site(&mut env, catalog, &caches, &root, &mut misc_names, index, &mut rng);
            env.sites.push(site);
        }
        env
    }

    /// The Zipf head-profile weight for a global site rank.
    fn zipf_weight(rank: usize, exponent: f64) -> f64 {
        (1.0 / (1.0 + rank as f64)).powf(exponent)
    }

    #[allow(clippy::too_many_arguments)]
    fn generate_site(
        &self,
        env: &mut WebEnvironment,
        catalog: &ServiceCatalog,
        caches: &GenCaches,
        root: &SimRng,
        misc_names: &mut [Option<DomainName>],
        index: usize,
        rng: &mut SimRng,
    ) -> Website {
        let domain = self.site_domain(index, rng);

        // Per-site profile: the Zipf head draw (if configured) comes first so
        // the remaining sampling reads one coherent profile. Without a mix,
        // the stream is untouched and existing populations stay byte-stable.
        let (profile, embed_probs) = match &self.zipf_head {
            Some((head, exponent)) if rng.chance(Self::zipf_weight(index, *exponent)) => {
                (head, caches.head_embed.as_deref().expect("head probs built with the head profile"))
            }
            _ => (&self.profile, caches.base_embed.as_slice()),
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
            let mut labels: Vec<&str> = SHARD_LABELS.to_vec();
            rng.shuffle(&mut labels);
            let shards = labels[..count]
                .iter()
                .map(|label| domain.with_subdomain(label).expect("valid shard label"))
                .collect();
            Some(ShardingPlan {
                shards,
                per_domain_certificates: rng.chance(profile.per_domain_cert_probability),
                multi_ip_cdn: rng.chance(profile.multi_ip_cdn_probability),
            })
        } else {
            None
        };

        let mut first_party = vec![domain];
        if let Some(plan) = &sharding {
            first_party.extend(plan.shards.iter().cloned());
        }

        // First-party DNS.
        let prefix = env.registry.allocate_slash24(autonomous_system);
        let multi_ip = sharding.as_ref().map(|s| s.multi_ip_cdn).unwrap_or(false);
        if multi_ip {
            let pool: Vec<IpAddr> = (0..4).map(|i| prefix.host(10 + i)).collect();
            for fp_domain in &first_party {
                let mut policy = LoadBalancePolicy::PerResolverPool {
                    pool: pool.clone(),
                    answer_size: 1,
                    epoch: LB_EPOCH,
                };
                if self.mitigations.contains(Mitigation::SynchronizedDns) {
                    policy = policy.synchronized();
                }
                env.authority.insert(*fp_domain, policy);
            }
        } else {
            let ip = prefix.host(10);
            for fp_domain in &first_party {
                env.authority.insert(*fp_domain, LoadBalancePolicy::single(ip));
            }
        }

        // First-party certificates.
        let per_domain = sharding.as_ref().map(|s| s.per_domain_certificates).unwrap_or(false);
        let mut policy = if per_domain { IssuancePolicy::PerDomain } else { IssuancePolicy::SharedSan };
        if self.mitigations.contains(Mitigation::CertificateCoalescing) {
            policy = policy.coalesced();
        }
        env.certificates.issue_with_policy(issuer, &policy, &first_party, Instant::EPOCH);

        // Fetch plan: document first. Typical plans run to a few dozen
        // requests; reserving up front skips the growth reallocations.
        let mut plan = Vec::with_capacity(48);
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
            plan.push(PlannedRequest::subresource(
                host,
                caches.resource_path(resource_index, kind),
                destination,
                0,
                size,
            ));
        }

        // Third-party services.
        let mut embedded = Vec::new();
        for (service, embed_probability) in catalog.services().iter().zip(embed_probs) {
            if !rng.chance(*embed_probability) {
                continue;
            }
            embedded.push(service.name.clone());
            append_service_requests(&mut plan, service, rng);
        }

        // Unrelated one-off third parties (the "unknown third party" class).
        let (misc_low, misc_high) = profile.misc_third_party_range;
        let misc_count = rng.in_range(misc_low..=misc_high);
        for _ in 0..misc_count {
            let pool_index = rng.in_range(0..profile.misc_third_party_pool);
            let misc_domain = match misc_names[pool_index] {
                Some(name) => name,
                None => {
                    let name = misc_domain_for(pool_index);
                    self.install_misc_third_party(env, root, pool_index, &name);
                    misc_names[pool_index] = Some(name);
                    name
                }
            };
            let destination =
                if rng.chance(0.6) { RequestDestination::Script } else { RequestDestination::Image };
            let size = rng.in_range(1_000u64..120_000);
            plan.push(PlannedRequest::subresource(
                misc_domain,
                Arc::clone(&caches.widget_path),
                destination,
                0,
                size,
            ));
        }

        Website { id: SiteId(index as u64), domain, sharding, embedded_services: embedded, plan }
    }

    fn site_domain(&self, index: usize, rng: &mut SimRng) -> DomainName {
        let tld = TLDS[rng.pick_weighted_index(&self.tld_weights).unwrap_or(0)].0;
        DomainName::parse(&format!("{}-site-{index:06}.{tld}", self.profile.name))
            .expect("generated domain is valid")
    }

    fn install_misc_third_party(
        &self,
        env: &mut WebEnvironment,
        root: &SimRng,
        pool_index: usize,
        domain: &DomainName,
    ) {
        // Deterministic regardless of which site touches the domain first.
        let mut rng = root.fork_indexed("misc-third-party", pool_index as u64);
        let autonomous_system = if rng.chance(0.35) {
            let pick = rng.pick_weighted_index(&self.major_as_weights).unwrap_or(0);
            self.as_catalog.major_at(pick).clone()
        } else {
            self.as_catalog.generic_for(rng.in_range(0..1_000_000u32))
        };
        let prefix = env.registry.allocate_slash24(autonomous_system);
        env.authority.insert(*domain, LoadBalancePolicy::single(prefix.host(20)));
        let issuer =
            self.issuers.issuer_at(rng.pick_weighted_index(&self.issuer_weights).unwrap_or(0)).clone();
        env.certificates.issue_with_policy(
            issuer,
            &IssuancePolicy::SharedSan,
            std::slice::from_ref(domain),
            Instant::EPOCH,
        );
    }
}

/// Per-build lookup tables hoisted out of the per-site generation loop:
/// embed probabilities aligned with the catalog's service order and the
/// shared path strings every site's plan reuses.
struct GenCaches {
    /// Embed probability per catalog service for the base profile.
    base_embed: Vec<f64>,
    /// Same for the Zipf head profile, when one is configured.
    head_embed: Option<Vec<f64>>,
    /// `resource_paths[resource_index * KINDS + kind]` — shared across sites.
    resource_paths: Vec<Arc<str>>,
    /// The misc third-party widget path.
    widget_path: Arc<str>,
}

impl GenCaches {
    fn new(builder: &PopulationBuilder, catalog: &ServiceCatalog) -> Self {
        let base_embed =
            catalog.services().iter().map(|s| builder.profile.embed_probability(&s.name)).collect();
        let head_embed = builder
            .zipf_head
            .as_ref()
            .map(|(head, _)| catalog.services().iter().map(|s| head.embed_probability(&s.name)).collect());
        let max_resources = builder
            .profile
            .own_resource_range
            .1
            .max(builder.zipf_head.as_ref().map(|(head, _)| head.own_resource_range.1).unwrap_or(0));
        let mut resource_paths = Vec::with_capacity(max_resources * OWN_RESOURCE_KINDS.len());
        for resource_index in 0..max_resources {
            for (_, extension, _) in OWN_RESOURCE_KINDS {
                resource_paths
                    .push(Arc::from(format!("/assets/resource-{resource_index}.{extension}").as_str()));
            }
        }
        GenCaches { base_embed, head_embed, resource_paths, widget_path: Arc::from("/embed/widget.js") }
    }

    /// The shared path of the `resource_index`-th own resource of kind
    /// `kind` (an index into [`OWN_RESOURCE_KINDS`]).
    fn resource_path(&self, resource_index: usize, kind: usize) -> Arc<str> {
        Arc::clone(&self.resource_paths[resource_index * OWN_RESOURCE_KINDS.len() + kind])
    }
}

/// The shared pool of unrelated third-party domains.
fn misc_domain_for(pool_index: usize) -> DomainName {
    DomainName::parse(&format!("cdn.thirdparty-{pool_index:04}.net")).expect("misc domain is valid")
}

/// Install one third-party service: DNS entries per IP cluster, certificates
/// per certificate group, prefixes in the AS registry. Takes the three
/// deployment structures separately so that [`SharedDeployment::issue`] can
/// install into standalone (environment-less) instances.
pub(crate) fn install_service(
    authority: &mut Authority,
    certificates: &mut CertificateStore,
    registry: &mut AsRegistry,
    service: &ThirdPartyService,
) {
    let hosting = &service.hosting;
    for cluster in &hosting.ip_clusters {
        match &cluster.deployment {
            DnsDeployment::SingleHost => {
                let prefix = registry.allocate_slash24(hosting.autonomous_system.clone());
                let ip = prefix.host(10);
                for domain in &cluster.domains {
                    authority.insert(*domain, LoadBalancePolicy::single(ip));
                }
            }
            DnsDeployment::UnsynchronizedPool { pool_size, answer_size } => {
                let prefix = registry.allocate_slash24(hosting.autonomous_system.clone());
                let pool: Vec<IpAddr> = (0..*pool_size).map(|i| prefix.host(10 + i as u64)).collect();
                for domain in &cluster.domains {
                    authority.insert(
                        *domain,
                        LoadBalancePolicy::PerResolverPool {
                            pool: pool.clone(),
                            answer_size: *answer_size,
                            epoch: LB_EPOCH,
                        },
                    );
                }
            }
            DnsDeployment::SynchronizedPool { pool_size, answer_size } => {
                let prefix = registry.allocate_slash24(hosting.autonomous_system.clone());
                let pool: Vec<IpAddr> = (0..*pool_size).map(|i| prefix.host(10 + i as u64)).collect();
                for domain in &cluster.domains {
                    authority.insert(
                        *domain,
                        LoadBalancePolicy::SynchronizedPool {
                            pool: pool.clone(),
                            answer_size: *answer_size,
                            epoch: LB_EPOCH,
                        },
                    );
                }
            }
            DnsDeployment::DistinctNetworks => {
                for domain in &cluster.domains {
                    let prefix = registry.allocate_slash24(hosting.autonomous_system.clone());
                    authority.insert(*domain, LoadBalancePolicy::single(prefix.host(10)));
                }
            }
        }
    }
    for group in &hosting.certificate_groups {
        certificates.issue_with_policy(
            hosting.issuer.clone(),
            &IssuancePolicy::SharedSan,
            group,
            Instant::EPOCH,
        );
    }
}

/// Append a service's request chain to a site plan, sampling per-request
/// probabilities and remapping parent indices. Requests whose parent was
/// skipped attach to the document instead.
fn append_service_requests(plan: &mut Vec<PlannedRequest>, service: &ThirdPartyService, rng: &mut SimRng) {
    let mut plan_index_of: Vec<Option<usize>> = Vec::with_capacity(service.requests.len());
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
            Arc::clone(&request.path),
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
        let ga_sites = env.sites.iter().filter(|s| s.embeds("google-analytics")).count();
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
                assert!(shard.is_subdomain_of(&site.domain));
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
            .filter(|d| d.as_str().contains("thirdparty-"))
            .collect();
        assert!(!misc_domains.is_empty());
        misc_domains.sort();
        let total = misc_domains.len();
        misc_domains.dedup();
        assert!(misc_domains.len() < total, "misc third parties should repeat across sites");
    }
}
