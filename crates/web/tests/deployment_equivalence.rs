//! Property test: building a population on a memoized [`SharedDeployment`]
//! is observationally identical to issuing the service catalog per build.
//!
//! The layered build shares the catalog's DNS zones, certificates and AS
//! prefixes across chunks (`PopulationBuilder::with_shared_deployment`), so
//! everything a browser can observe — the generated sites, DNS answers over
//! time, SNI certificate selection and IP→AS attribution — must match the
//! monolithic build exactly. The atlas scenario's byte-identical reports
//! depend on precisely this equivalence, and on its twin for recycled
//! environments: rebuilding a chunk in place
//! (`PopulationBuilder::build_into`) must equal a fresh build of it.

use netsim_dns::{QueryContext, ResolverId};
use netsim_types::{Duration, Instant, Mitigation, MitigationSet};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, ServiceCatalog, WebEnvironment};
use proptest::prelude::*;

/// Build the same population slice both ways.
fn both_builds(
    profile: PopulationProfile,
    sites: usize,
    offset: usize,
    seed: u64,
    mitigations: MitigationSet,
) -> (WebEnvironment, WebEnvironment) {
    let monolithic = PopulationBuilder::new(profile.clone(), sites, seed)
        .with_site_offset(offset)
        .with_mitigations(mitigations)
        .build();
    let cache = DeploymentCache::standard();
    let layered = PopulationBuilder::new(profile, sites, seed)
        .with_site_offset(offset)
        .with_mitigations(mitigations)
        .with_shared_deployment(cache.deployment(mitigations))
        .build();
    (monolithic, layered)
}

/// A small pool of mitigation sets covering the deployment-affecting axes.
fn mitigation_set(index: u8) -> MitigationSet {
    match index % 4 {
        0 => MitigationSet::empty(),
        1 => MitigationSet::single(Mitigation::SynchronizedDns),
        2 => MitigationSet::single(Mitigation::CertificateCoalescing),
        _ => MitigationSet::all(),
    }
}

/// Everything a browser can observe of two builds is equal: the sites and
/// their plans, the certificate inventory size, and for every planned host
/// the SNI certificate, the DNS answers over several instants and
/// resolvers, and the AS announcing each answered address.
fn assert_observably_equal(expected: &WebEnvironment, actual: &WebEnvironment) {
    // Same sites, same plans (the generator streams must be untouched).
    assert_eq!(&expected.sites, &actual.sites);
    assert_eq!(expected.certificates.len(), actual.certificates.len());
    for site in &expected.sites {
        for request in &site.plan {
            let expected_cert = expected.certificate_for(&request.domain);
            let actual_cert = actual.certificate_for(&request.domain);
            assert_eq!(expected_cert, actual_cert, "certificate for {}", request.domain);

            // Same DNS answers at several instants (load balancing is
            // time- and resolver-dependent; equality must hold across
            // epochs and resolver identities).
            for (resolver, minutes) in [(1u32, 0u64), (1, 31), (2, 7), (1000, 123)] {
                let ctx =
                    QueryContext::new(ResolverId(resolver), Instant::EPOCH + Duration::from_mins(minutes));
                let (mut expected_answer, mut actual_answer) = (Vec::new(), Vec::new());
                let expected_known =
                    expected.authority.addresses_into(&request.domain, &ctx, &mut expected_answer);
                let actual_known = actual.authority.addresses_into(&request.domain, &ctx, &mut actual_answer);
                assert_eq!(expected_known, actual_known, "{} known to one build only", request.domain);
                assert_eq!(
                    &expected_answer, &actual_answer,
                    "answers diverge for {} at {} min via resolver {}",
                    request.domain, minutes, resolver
                );

                // Same IP→AS attribution for every answered address.
                for &ip in &expected_answer {
                    assert_eq!(expected.asn_for(ip), actual.asn_for(ip));
                }
            }
        }
    }
}

proptest! {

    #[test]
    fn memoized_deployment_is_observationally_identical(
        seed in 0u64..1_000,
        sites in 1usize..24,
        offset_index in 0usize..3,
        profile_index in 0u8..2,
        mitigation_index in 0u8..4,
    ) {
        let offset = [0usize, 17, 1_000][offset_index];
        let profile =
            if profile_index == 0 { PopulationProfile::alexa() } else { PopulationProfile::archive() };
        let mitigations = mitigation_set(mitigation_index);
        let (monolithic, layered) = both_builds(profile, sites, offset, seed, mitigations);
        assert_observably_equal(&monolithic, &layered);
    }

    /// One environment rebuilt through an arbitrary sequence of chunks,
    /// seeds, mitigation sets and deployment modes equals, after every
    /// rebuild, a fresh build of the same chunk: nothing leaks between
    /// builds.
    #[test]
    fn rebuilt_environment_equals_a_fresh_build(
        seed in 0u64..1_000,
        steps in prop::collection::vec((0usize..60, 1usize..24, 0u64..2, 0u8..4, 0u8..2), 1usize..6),
    ) {
        let cache = DeploymentCache::standard();
        let mut env = WebEnvironment::default();
        for (offset, sites, seed_step, mitigation_index, layered) in steps {
            let mitigations = mitigation_set(mitigation_index);
            let mut builder = PopulationBuilder::new(PopulationProfile::archive(), sites, seed + seed_step)
                .with_site_offset(offset)
                .with_zipf_profile_mix(PopulationProfile::alexa(), 0.35)
                .with_mitigations(mitigations);
            if layered == 1 {
                builder = builder.with_shared_deployment(cache.deployment(mitigations));
            }
            builder.build_into(&mut env);
            assert_observably_equal(&builder.build(), &env);
        }
    }
}

#[test]
fn chunked_layered_builds_match_one_monolithic_build() {
    // Chunks over a shared deployment assemble the same population a single
    // monolithic build produces — per chunk, site for site.
    let cache = DeploymentCache::standard();
    let profile = PopulationProfile::archive();
    let whole = PopulationBuilder::new(profile.clone(), 30, 99).build();
    for start in (0..30).step_by(10) {
        let chunk = PopulationBuilder::new(profile.clone(), 10, 99)
            .with_site_offset(start)
            .with_shared_deployment(cache.deployment(MitigationSet::empty()))
            .build();
        for (local, site) in chunk.sites.iter().enumerate() {
            assert_eq!(site, &whole.sites[start + local], "site {} diverges", start + local);
        }
    }
}

/// The 40-site slices the environment tests compare: the head of the Alexa
/// population and an archive chunk at rank 1000 with the atlas's Zipf mix.
fn slices(configure: impl Fn(PopulationBuilder) -> PopulationBuilder) -> [WebEnvironment; 2] {
    let alexa = PopulationBuilder::new(PopulationProfile::alexa(), 40, 7);
    let atlas = PopulationBuilder::new(PopulationProfile::archive(), 40, 7)
        .with_site_offset(1_000)
        .with_zipf_profile_mix(PopulationProfile::alexa(), 0.35);
    [configure(alexa).build(), configure(atlas).build()]
}

/// Every DNS answer of every planned host, over several resolvers and
/// instants.
fn dns_answers(env: &WebEnvironment) -> Vec<(bool, Vec<netsim_types::IpAddr>)> {
    let mut answers = Vec::new();
    for request in env.sites.iter().flat_map(|site| &site.plan) {
        for (resolver, minutes) in [(1u32, 0u64), (2, 7), (1000, 123)] {
            let ctx = QueryContext::new(ResolverId(resolver), Instant::EPOCH + Duration::from_mins(minutes));
            let mut answer = Vec::new();
            let known = env.authority.addresses_into(&request.domain, &ctx, &mut answer);
            answers.push((known, answer));
        }
    }
    answers
}

/// A mitigation set builds the web of its environment: the catalog
/// mitigated under the whole set, generated monolithically, equals the
/// environment's build layered on the shared deployment — same sites, same
/// certificate inventory in issuance order, same DNS answers. A mitigation
/// the catalog reads but `MitigationSet::environment` drops fails here.
#[test]
fn a_mitigation_set_builds_the_web_of_its_environment() {
    let cache = DeploymentCache::standard();
    for set in MitigationSet::all_combinations() {
        let whole = slices(|builder| {
            builder.with_catalog(ServiceCatalog::standard().with_mitigations(set)).with_mitigations(set)
        });
        let environment = set.environment();
        let projected = slices(|builder| {
            builder.with_mitigations(environment).with_shared_deployment(cache.deployment(environment))
        });
        for (whole, projected) in whole.iter().zip(&projected) {
            assert_observably_equal(whole, projected);
            assert_eq!(
                whole.certificates.iter().collect::<Vec<_>>(),
                projected.certificates.iter().collect::<Vec<_>>(),
                "{set}"
            );
        }
    }
    assert_eq!(cache.issued(), 4);
}

/// The negative case: two sets that differ in a web mitigation deploy
/// different webs — their certificates or their DNS answers differ.
#[test]
fn environments_differ_in_certificates_or_dns_answers() {
    let environments: Vec<MitigationSet> =
        MitigationSet::all_combinations().into_iter().filter(|set| *set == set.environment()).collect();
    assert_eq!(environments.len(), 4);
    let webs: Vec<[WebEnvironment; 2]> =
        environments.iter().map(|&set| slices(|builder| builder.with_mitigations(set))).collect();
    for (a, web_a) in environments.iter().zip(&webs) {
        for (b, web_b) in environments.iter().zip(&webs).filter(|(b, _)| *b > a) {
            for (x, y) in web_a.iter().zip(web_b) {
                assert_eq!(x.sites, y.sites, "{a} vs {b}: the site layout never depends on mitigations");
                let certificates_differ = !x.certificates.iter().eq(y.certificates.iter());
                assert!(
                    certificates_differ || dns_answers(x) != dns_answers(y),
                    "{a} and {b} deploy one web"
                );
            }
        }
    }
}
