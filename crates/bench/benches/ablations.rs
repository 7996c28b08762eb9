//! Ablation benches for the design choices DESIGN.md calls out: what changes
//! when the Fetch credentials partition is dropped, when ORIGIN frames are
//! honoured, when DNS load balancing is synchronized, and what a redundant
//! connection costs in handshake latency.

use connreuse_bench::{bench_environment, BENCH_SEED};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim_browser::{BrowserConfig, Crawler};
use netsim_dns::{AddressRun, LoadBalancePolicy, QueryContext, ResolverId};
use netsim_tls::{HandshakeConfig, TlsVersion};
use netsim_types::{DomainName, Duration, Instant, IpAddr};
use std::hint::black_box;

/// Crawl the same population under the three reuse policies the paper
/// discusses: stock Chromium, Chromium without the Fetch credentials flag,
/// and a hypothetical RFC 8336 client.
fn bench_reuse_policy_ablation(c: &mut Criterion) {
    let env = bench_environment();
    let mut group = c.benchmark_group("ablation_reuse_policy");
    group.sample_size(10);
    let configurations = [
        ("chromium", BrowserConfig::alexa_measurement()),
        ("without_fetch", BrowserConfig::alexa_without_fetch()),
        ("origin_frames", BrowserConfig::with_origin_frames()),
    ];
    for (label, config) in configurations {
        group.bench_function(label, |b| {
            b.iter(|| black_box(Crawler::new(label, config.clone(), BENCH_SEED).crawl(&env)))
        });
    }
    group.finish();
}

/// Resolve the same domain pair under unsynchronized vs. synchronized
/// balancing: the fix the paper proposes for the IP cause.
fn bench_dns_policy_ablation(c: &mut Criterion) {
    let pool = AddressRun::new(IpAddr::new(142, 250, 74, 0), 16);
    let unsynchronized =
        LoadBalancePolicy::PerResolverPool { pool, answer_size: 1, epoch: Duration::from_mins(30) };
    let synchronized =
        LoadBalancePolicy::SynchronizedPool { pool, answer_size: 1, epoch: Duration::from_mins(30) };
    let analytics = DomainName::literal("www.google-analytics.com");
    let tag_manager = DomainName::literal("www.googletagmanager.com");
    let mut group = c.benchmark_group("ablation_dns_policy");
    group.sample_size(30);
    for (label, policy) in [("unsynchronized", &unsynchronized), ("synchronized", &synchronized)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut overlapping = 0u32;
                for resolver in 0..14u32 {
                    let ctx = QueryContext::new(ResolverId(resolver), Instant::EPOCH);
                    let (mut a, mut b_answer) = (Vec::new(), Vec::new());
                    policy.select_each(&analytics, &ctx, |ip| a.push(ip));
                    policy.select_each(&tag_manager, &ctx, |ip| b_answer.push(ip));
                    if a.iter().any(|ip| b_answer.contains(ip)) {
                        overlapping += 1;
                    }
                }
                black_box(overlapping)
            })
        });
    }
    group.finish();
}

/// The per-connection latency price of redundancy: handshake round trips
/// under the TLS configurations discussed in §2.1.
fn bench_handshake_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_handshake_cost");
    group.sample_size(50);
    let configurations = [
        (
            "tls13_cold",
            HandshakeConfig { version: TlsVersion::Tls13, session_resumption: false, quic: false },
        ),
        (
            "tls12_cold",
            HandshakeConfig { version: TlsVersion::Tls12, session_resumption: false, quic: false },
        ),
        (
            "tls13_resumed",
            HandshakeConfig { version: TlsVersion::Tls13, session_resumption: true, quic: false },
        ),
        ("quic_0rtt", HandshakeConfig { version: TlsVersion::Tls13, session_resumption: true, quic: true }),
    ];
    let rtt = Duration::from_millis(30);
    for (label, config) in configurations {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut total = Duration::ZERO;
                for _ in 0..100 {
                    total = total + config.setup_latency(rtt);
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(ablations, bench_reuse_policy_ablation, bench_dns_policy_ablation, bench_handshake_cost);
criterion_main!(ablations);
