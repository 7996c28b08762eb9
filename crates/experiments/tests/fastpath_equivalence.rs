//! Property test: the streaming visit classifier
//! ([`connreuse_core::FastVisitClassifier`]) folded through
//! [`connreuse_core::Accumulator::observe_counts`] produces exactly the same
//! accumulator as the batch pipeline (`PageVisit` → `site_from_visit` →
//! `classify_site` → `observe`) over real generated page loads.
//!
//! Both paths run the one §4.1 kernel, so this checks what lies around it:
//! the two ingestion adapters (scratch buffers and `SiteObservation` into
//! connection records) and the two sinks (cause bits and per-cause
//! partners). The grid kernel rests on it — the atlas, the store, the cost
//! grid, the mitigation sweep and the `whatif` experiment all classify
//! through the fast path — so the two must agree on every visit, across
//! duration models, profiles, seeds and every mitigation deployment.

use connreuse_core::{classify_site, site_from_visit, Accumulator, DurationModel, FastVisitClassifier};
use connreuse_experiments::atlas::classify_scratch;
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_types::MitigationSet;
use netsim_web::{PopulationBuilder, PopulationProfile};
use proptest::prelude::*;

fn duration_model(index: u8) -> DurationModel {
    match index % 3 {
        0 => DurationModel::Endless,
        1 => DurationModel::Immediate,
        _ => DurationModel::Recorded,
    }
}

proptest! {
    #[test]
    fn fast_classifier_matches_batch_pipeline(
        seed in 0u64..500,
        crawl_seed in 0u64..500,
        sites in 1usize..12,
        profile_index in 0u8..2,
        model_index in 0u8..3,
        mitigation_bits in 0u8..16,
    ) {
        let profile =
            if profile_index == 0 { PopulationProfile::alexa() } else { PopulationProfile::archive() };
        let model = duration_model(model_index);
        let mitigations = MitigationSet::from_bits(mitigation_bits);
        let env = PopulationBuilder::new(profile, sites, seed).with_mitigations(mitigations).build();
        let crawler = Crawler::new("equivalence", BrowserConfig::with_mitigations(mitigations), crawl_seed);

        let mut scratch = VisitScratch::new();
        let mut classifier = FastVisitClassifier::new();
        let mut fast = Accumulator::new();
        let mut batch = Accumulator::new();

        for index in 0..env.sites.len() {
            let times = crawler.visit_site_into(&mut scratch, &env, index);

            // Fast path: classify straight from the scratch buffers,
            // through the same helper production uses.
            prop_assert!(scratch.all_ok(), "simulated responses are always 200");
            fast.observe_counts(&classify_scratch(&mut classifier, &scratch, model));

            // Batch path: materialise the full visit and run the reference
            // pipeline.
            let visit = scratch.to_page_visit(&env.sites[index], times);
            batch.observe(&classify_site(&site_from_visit(&visit), model));
        }

        prop_assert_eq!(&fast, &batch, "accumulators diverge");
        prop_assert_eq!(fast.clone().finish("x"), batch.clone().finish("x"));
    }
}
