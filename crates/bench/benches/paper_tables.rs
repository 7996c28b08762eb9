//! One Criterion group per paper table / figure: how long the analysis behind
//! each published artifact takes on the bench-sized population.
//!
//! The *content* of every table is regenerated by
//! `cargo run -p connreuse-experiments --bin repro -- all`; these benches
//! measure the cost of the pipeline stages that produce them.

use connreuse_bench::{bench_environment, bench_sites, BENCH_SEED};
use connreuse_core::{DurationModel, SiteObservation, TableFold};
use connreuse_probe::{default_pairs, DomainPair, ProbeConfig, ProbeExperiment};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim_har::ArchivePipeline;
use netsim_types::Duration;
use netsim_web::WebEnvironment;
use std::hint::black_box;

/// Every bench site classified under `model` and folded: the table pass's
/// per-site work.
fn fold(env: &WebEnvironment, sites: &[SiteObservation], model: DurationModel) -> TableFold {
    let mut fold = TableFold::new(model);
    for site in sites {
        fold.observe(site, &env.registry);
    }
    fold
}

/// Figure 2 + §5.1 headline: the fold and the survival function and
/// lifetimes it finishes into.
fn bench_figure2_and_headline(c: &mut Criterion) {
    let env = bench_environment();
    let sites = bench_sites(&env);
    let mut group = c.benchmark_group("figure2_headline");
    group.sample_size(20);
    group.bench_function("fold_recorded", |b| {
        b.iter(|| black_box(fold(&env, &sites, DurationModel::Recorded)))
    });
    let folded = fold(&env, &sites, DurationModel::Recorded);
    group.bench_function("cdf_series", |b| b.iter(|| black_box(folded.redundancy_series("bench", 15))));
    group.bench_function("lifetime_statistics", |b| b.iter(|| black_box(folded.lifetimes())));
    group.finish();
}

/// Table 1: the fold under each duration model, finished into a summary.
fn bench_table1(c: &mut Criterion) {
    let env = bench_environment();
    let sites = bench_sites(&env);
    let mut group = c.benchmark_group("table1_causes");
    group.sample_size(20);
    for model in [DurationModel::Endless, DurationModel::Immediate, DurationModel::Recorded] {
        group.bench_function(format!("summary_{model:?}"), |b| {
            b.iter(|| black_box(fold(&env, &sites, model).summary("bench")))
        });
    }
    group.finish();
}

/// Tables 2 and 12: ranking the folded IP-cause origins.
fn bench_table2_origins(c: &mut Criterion) {
    let env = bench_environment();
    let folded = fold(&env, &bench_sites(&env), DurationModel::Recorded);
    let attribution = folded.attribution();
    let mut group = c.benchmark_group("table2_ip_origins");
    group.sample_size(20);
    group.bench_function("top4", |b| b.iter(|| black_box(attribution.ip_origins(4))));
    group.bench_function("top20_table12", |b| b.iter(|| black_box(attribution.ip_origins(20))));
    group.finish();
}

/// Tables 3, 4 and 5: ranking the folded certificate attribution.
fn bench_table3_to_5_certificates(c: &mut Criterion) {
    let env = bench_environment();
    let folded = fold(&env, &bench_sites(&env), DurationModel::Recorded);
    let attribution = folded.attribution();
    let mut group = c.benchmark_group("table3_4_5_certificates");
    group.sample_size(20);
    group.bench_function("cert_issuers_table3", |b| b.iter(|| black_box(attribution.cert_issuers(7))));
    group.bench_function("cert_domains_table4", |b| b.iter(|| black_box(attribution.cert_domains(5))));
    group.bench_function("issuer_share_table5", |b| b.iter(|| black_box(attribution.issuer_share(10))));
    group.finish();
}

/// Table 6: the fold with its AS lookups, ranked by AS.
fn bench_table6_asn(c: &mut Criterion) {
    let env = bench_environment();
    let sites = bench_sites(&env);
    let mut group = c.benchmark_group("table6_asn");
    group.sample_size(20);
    group.bench_function("asn_lookup", |b| {
        b.iter(|| black_box(fold(&env, &sites, DurationModel::Recorded).attribution().ip_systems(10)))
    });
    group.finish();
}

/// Table 11 / Figure 3: the multi-resolver DNS probe.
fn bench_figure3_probe(c: &mut Criterion) {
    let env = bench_environment();
    let mut group = c.benchmark_group("figure3_probe");
    group.sample_size(10);
    let quick = ProbeConfig {
        interval: Duration::from_mins(6),
        duration: Duration::from_hours(2),
        pairs: default_pairs(),
    };
    group.bench_function("probe_2h_20pairs", |b| {
        b.iter(|| black_box(ProbeExperiment::new(quick.clone()).run(&env.authority)))
    });
    let single_pair = ProbeConfig {
        interval: Duration::from_mins(6),
        duration: Duration::from_hours(12),
        pairs: vec![DomainPair::new("www.google-analytics.com", "www.googletagmanager.com")],
    };
    group.bench_function("probe_12h_analytics_pair", |b| {
        b.iter(|| black_box(ProbeExperiment::new(single_pair.clone()).run(&env.authority)))
    });
    group.finish();
}

/// §4.3: the HAR pipeline (crawl ×3, median, defect injection, filter).
fn bench_har_pipeline(c: &mut Criterion) {
    let env = bench_environment();
    let mut group = c.benchmark_group("har_pipeline");
    group.sample_size(10);
    group.bench_function("crawl_and_filter", |b| {
        b.iter(|| {
            let mut corpus = ArchivePipeline::new(BENCH_SEED).run(&env);
            black_box(corpus.filter());
            black_box(corpus)
        })
    });
    group.finish();
}

criterion_group!(
    paper_tables,
    bench_figure2_and_headline,
    bench_table1,
    bench_table2_origins,
    bench_table3_to_5_certificates,
    bench_table6_asn,
    bench_figure3_probe,
    bench_har_pipeline
);
criterion_main!(paper_tables);
