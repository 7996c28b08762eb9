//! Micro-benchmarks of the substrates everything else is built on: DNS
//! resolution, the reuse predicate, population generation and single page
//! loads.

use connreuse_bench::{bench_environment, BENCH_SEED};
use connreuse_experiments::sweep::{run_sweep, SweepConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim_browser::{Browser, BrowserConfig, VisitScratch};
use netsim_dns::{RecursiveResolver, ResolverId};
use netsim_h2::reuse::{admits, evaluate_set, ReusePolicy};
use netsim_h2::Connection;
use netsim_tls::{CertificateStore, IssuancePolicy, Issuer};
use netsim_types::{ConnectionId, DomainName, Instant, IpAddr, MitigationSet, Origin, SimClock, SimRng};
use netsim_web::{PopulationBuilder, PopulationProfile};
use std::hint::black_box;

fn bench_dns_resolution(c: &mut Criterion) {
    let env = bench_environment();
    let analytics = DomainName::literal("www.google-analytics.com");
    let mut group = c.benchmark_group("substrate_dns");
    group.sample_size(50);
    group.bench_function("resolve_cold", |b| {
        b.iter(|| {
            let mut resolver = RecursiveResolver::new(ResolverId(1));
            black_box(resolver.resolve(&env.authority, &analytics, Instant::EPOCH).unwrap().primary_address())
        })
    });
    group.bench_function("resolve_cached", |b| {
        let mut resolver = RecursiveResolver::new(ResolverId(1));
        resolver.resolve(&env.authority, &analytics, Instant::EPOCH).unwrap();
        b.iter(|| {
            black_box(resolver.resolve(&env.authority, &analytics, Instant::EPOCH).unwrap().primary_address())
        })
    });
    group.finish();
}

fn bench_reuse_predicate(c: &mut Criterion) {
    let mut store = CertificateStore::new();
    let domains: Vec<DomainName> =
        (0..50).map(|i| DomainName::literal(&format!("host-{i}.example.com"))).collect();
    store.issue_with_policy(&Issuer::digicert(), &IssuancePolicy::SharedSan, &domains, Instant::EPOCH);
    let certificate = std::sync::Arc::clone(store.get_arc(netsim_tls::CertificateId(0)).unwrap());
    let connection = Connection::establish(
        ConnectionId(1),
        Origin::https(domains[0]),
        IpAddr::new(10, 0, 0, 1),
        certificate,
        true,
        Instant::EPOCH,
    );
    let target = Origin::https(domains[49]);
    let mut group = c.benchmark_group("substrate_reuse_predicate");
    group.sample_size(100);
    group.bench_function("evaluate_match", |b| {
        b.iter(|| {
            black_box(evaluate_set(
                &connection,
                &target,
                IpAddr::new(10, 0, 0, 1),
                true,
                &ReusePolicy::chromium(),
            ))
        })
    });
    group.bench_function("evaluate_mismatch", |b| {
        b.iter(|| {
            black_box(evaluate_set(
                &connection,
                &target,
                IpAddr::new(10, 0, 0, 9),
                false,
                &ReusePolicy::chromium(),
            ))
        })
    });
    // The loader's call: the verdict alone, coverage asked last. A match
    // walks the SAN list to its last entry; an IP refusal never reads it.
    group.bench_function("admits_match", |b| {
        b.iter(|| {
            black_box(admits(&connection, &target, IpAddr::new(10, 0, 0, 1), true, &ReusePolicy::chromium()))
        })
    });
    group.bench_function("admits_ip_refused", |b| {
        b.iter(|| {
            black_box(admits(&connection, &target, IpAddr::new(10, 0, 0, 9), true, &ReusePolicy::chromium()))
        })
    });
    group.finish();
}

fn bench_population_and_page_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_population_browser");
    group.sample_size(10);
    group.bench_function("build_population_120_sites", |b| {
        b.iter(|| black_box(PopulationBuilder::new(PopulationProfile::alexa(), 120, BENCH_SEED).build()))
    });
    let env = bench_environment();
    group.bench_function("load_single_page", |b| {
        b.iter(|| {
            let mut browser = Browser::new(BrowserConfig::alexa_measurement());
            let mut clock = SimClock::new();
            let mut rng = SimRng::new(BENCH_SEED);
            let mut scratch = VisitScratch::new();
            let times = browser.load_page_into(&mut scratch, &env, &env.sites[0], &mut clock, &mut rng);
            black_box(scratch.to_page_visit(&env.sites[0], times))
        })
    });
    group.finish();
}

fn bench_mitigation_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("mitigation_sweep");
    group.sample_size(10);
    // The reuse predicate under the relaxed mitigation policy (ORIGIN frames
    // honoured without RFC 8336 strictness + pooled credentials).
    let mut store = CertificateStore::new();
    let domains: Vec<DomainName> =
        (0..16).map(|i| DomainName::literal(&format!("shard-{i}.example.com"))).collect();
    store.issue_with_policy(&Issuer::digicert(), &IssuancePolicy::SharedSan, &domains, Instant::EPOCH);
    let mut connection = Connection::establish(
        ConnectionId(1),
        Origin::https(domains[0]),
        IpAddr::new(10, 0, 0, 1),
        std::sync::Arc::clone(store.get_arc(netsim_tls::CertificateId(0)).unwrap()),
        true,
        Instant::EPOCH,
    );
    connection.receive_origin_set(domains.iter().cloned());
    let target = Origin::https(domains[15]);
    let relaxed = ReusePolicy::with_mitigations(MitigationSet::all());
    group.bench_function("evaluate_mitigated_policy", |b| {
        b.iter(|| black_box(evaluate_set(&connection, &target, IpAddr::new(10, 0, 0, 9), false, &relaxed)))
    });
    // One full 16-cell sweep on a small population: the end-to-end cost of
    // the what-if matrix (population builds, crawls, classification, report).
    let config = SweepConfig { sites: 16, seed: BENCH_SEED, threads: 4 };
    group
        .bench_function("run_sweep_16_sites_16_cells", |b| b.iter(|| black_box(run_sweep(&config).render())));
    group.finish();
}

criterion_group!(
    substrates,
    bench_dns_resolution,
    bench_reuse_predicate,
    bench_population_and_page_load,
    bench_mitigation_sweep
);
criterion_main!(substrates);
