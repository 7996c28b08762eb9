//! Property test: building a population on a memoized [`SharedDeployment`]
//! is observationally identical to issuing the service catalog per build.
//!
//! The layered build shares the catalog's DNS zones, certificates and AS
//! prefixes across chunks (`PopulationBuilder::with_shared_deployment`), so
//! everything a browser can observe — the generated sites, DNS answers over
//! time, SNI certificate selection and IP→AS attribution — must match the
//! monolithic build exactly. The atlas scenario's byte-identical reports
//! depend on precisely this equivalence.

use netsim_dns::{QueryContext, ResolverId};
use netsim_types::{Duration, Instant, Mitigation, MitigationSet};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, WebEnvironment};
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

        // Same sites, same plans (the generator streams must be untouched).
        prop_assert_eq!(&monolithic.sites, &layered.sites);

        // Same certificate inventory size and same SNI selection + coverage
        // for every domain any site contacts.
        prop_assert_eq!(monolithic.certificates.len(), layered.certificates.len());
        for site in &monolithic.sites {
            for request in &site.plan {
                let mono_cert = monolithic.certificate_for(&request.domain);
                let layer_cert = layered.certificate_for(&request.domain);
                prop_assert_eq!(mono_cert, layer_cert, "certificate for {}", request.domain);

                // Same DNS answers at several instants (load balancing is
                // time- and resolver-dependent; equality must hold across
                // epochs and resolver identities).
                for (resolver, minutes) in [(1u32, 0u64), (1, 31), (2, 7), (1000, 123)] {
                    let ctx =
                        QueryContext::new(ResolverId(resolver), Instant::EPOCH + Duration::from_mins(minutes));
                    let (mut mono_answer, mut layer_answer) = (Vec::new(), Vec::new());
                    let mono_known = monolithic.authority.addresses_into(&request.domain, &ctx, &mut mono_answer);
                    let layer_known = layered.authority.addresses_into(&request.domain, &ctx, &mut layer_answer);
                    prop_assert_eq!(mono_known, layer_known, "{} known to one build only", request.domain);
                    prop_assert_eq!(
                        &mono_answer, &layer_answer,
                        "answers diverge for {} at {} min via resolver {}",
                        request.domain, minutes, resolver
                    );

                    // Same IP→AS attribution for every answered address.
                    for &ip in &mono_answer {
                        prop_assert_eq!(monolithic.asn_for(ip), layered.asn_for(ip));
                    }
                }
            }
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
