//! Benchmarks of the latency & cost accounting engine.
//!
//! Accounting is always on: the loader bumps the per-visit
//! [`netsim_cost::VisitTimeline`] as the visit unfolds, with a handful of
//! integer adds per request plus the post-visit connection walk and no
//! allocations (asserted by `crates/browser/tests/zero_alloc.rs`).
//! `visit_and_fold` times the zero-allocation scratch visit loop with every
//! timeline folded into [`netsim_cost::CostTotals`]; its share of the full
//! atlas is the `cost-fold` stage of the hotpath profile, which CI's bench
//! guard checks against `BENCH_stages.json`.
//!
//! The `pricing` pair measures the read side: folding a crawl's worth of
//! timelines into [`netsim_cost::CostTotals`] and re-pricing the totals
//! under all three [`netsim_cost::LinkProfile`] presets.

use connreuse_bench::bench_environment;
use criterion::{criterion_group, criterion_main, Criterion};
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_cost::{CostTotals, LinkProfile, VisitTimeline};
use std::hint::black_box;

fn bench_cost_accounting(c: &mut Criterion) {
    let env = bench_environment();
    let crawler = Crawler::new("cost-bench", BrowserConfig::alexa_measurement(), 0xC0FFEE);

    let mut group = c.benchmark_group("cost");
    group.sample_size(20);

    group.bench_function("visit_and_fold", |b| {
        let mut scratch = VisitScratch::new();
        b.iter(|| {
            let mut totals = CostTotals::new();
            for index in 0..env.sites.len() {
                let _ = crawler.visit_site_into(&mut scratch, &env, index);
                totals.absorb_visit(scratch.timeline());
            }
            black_box(totals)
        })
    });

    group.finish();
}

fn bench_pricing(c: &mut Criterion) {
    // A crawl's worth of timelines, captured once.
    let env = bench_environment();
    let crawler = Crawler::new("cost-bench", BrowserConfig::alexa_measurement(), 0xC0FFEE);
    let mut scratch = VisitScratch::new();
    let timelines: Vec<VisitTimeline> = (0..env.sites.len())
        .map(|index| {
            let _ = crawler.visit_site_into(&mut scratch, &env, index);
            *scratch.timeline()
        })
        .collect();

    let mut group = c.benchmark_group("cost");
    group.sample_size(50);

    group.bench_function("timeline_fold", |b| {
        b.iter(|| {
            let mut totals = CostTotals::new();
            for timeline in &timelines {
                totals.absorb_visit(timeline);
            }
            black_box(totals)
        })
    });

    group.bench_function("reprice_under_all_profiles", |b| {
        let mut totals = CostTotals::new();
        for timeline in &timelines {
            totals.absorb_visit(timeline);
        }
        let profiles = LinkProfile::presets();
        b.iter(|| {
            let mut millis = 0u64;
            for profile in &profiles {
                millis += totals.setup_time(profile).as_millis();
            }
            black_box(millis)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_cost_accounting, bench_pricing);
criterion_main!(benches);
