//! Benchmarks of the atlas scale engine and the interned-id aggregation it
//! is built on.
//!
//! The `aggregate_*` trio quantifies what the interning migration bought.
//! All variants run the same batch pass — build one record per classified
//! connection, then fold per-origin counts into maps — and differ only in
//! how origins are owned and keyed:
//!
//! * `aggregate_per_origin_strings` — the pre-intern path: every record
//!   construction and every map insertion clones the origin as a heap
//!   `String` into a `BTreeMap`, exactly what
//!   `core::ingest`/`classify`/`attribution` did before the migration.
//! * `aggregate_per_origin_copy_btree` — the migrated production shape
//!   (`core::attribution` today): same `BTreeMap` fold with textual `Ord`,
//!   but records and keys are copyable `DomainName` handles. The delta vs.
//!   `strings` isolates the clone removal alone.
//! * `aggregate_per_origin_interned` — the fold the handles newly *enable*:
//!   keys are the `DomainName` handles themselves in a hash map, hashed by
//!   their cached text hash (no per-key allocation, no string compares).
//!   This is what the acceptance "≥2x over the pre-intern batch path"
//!   refers to.
//!
//! The streaming pair compares the shard-merged `Accumulator` against the
//! single-pass batch summary (they are the same math; the comparison shows
//! merging is free).

use connreuse_bench::{bench_dataset, bench_environment};
use connreuse_core::{classify_dataset, Accumulator, Cause, DatasetSummary, DurationModel};
use connreuse_experiments::atlas::{run_atlas, AtlasConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim_types::{DomainName, FnvHashMap};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The pre-intern shape of a classified connection: origins owned as heap
/// strings, cloned on construction and on every map insertion (the "clone
/// storm").
struct StringConnection {
    origin: String,
    redundant: bool,
    causes: Vec<Cause>,
}

/// The post-migration shape: the origin is a copyable interned handle.
struct InternedConnection {
    origin: DomainName,
    redundant: bool,
    causes: Vec<Cause>,
}

fn bench_aggregation(c: &mut Criterion) {
    let env = bench_environment();
    let dataset = bench_dataset(&env);
    let classifications = classify_dataset(&dataset, DurationModel::Recorded);

    // The pre-intern source data: origins owned as heap strings, as the
    // observation model held them before the migration.
    let string_sites: Vec<Vec<(String, bool, Vec<Cause>)>> = classifications
        .iter()
        .map(|site| {
            site.connections
                .iter()
                .map(|connection| {
                    (
                        connection.origin.to_string(),
                        connection.is_redundant(),
                        Cause::ALL.iter().copied().filter(|c| connection.has_cause(*c)).collect(),
                    )
                })
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("atlas");
    group.sample_size(50);

    group.bench_function("aggregate_per_origin_interned", |b| {
        b.iter(|| {
            // Stage 1: per-connection records — `DomainName` handles copy.
            let records: Vec<InternedConnection> = classifications
                .iter()
                .flat_map(|site| {
                    site.connections.iter().map(|connection| InternedConnection {
                        origin: connection.origin,
                        redundant: connection.is_redundant(),
                        causes: Cause::ALL.iter().copied().filter(|c| connection.has_cause(*c)).collect(),
                    })
                })
                .collect();
            // Stage 2: per-origin fold keyed by the handle's cached hash.
            let mut per_origin: FnvHashMap<DomainName, usize> = FnvHashMap::default();
            let mut per_cause: FnvHashMap<(Cause, DomainName), usize> = FnvHashMap::default();
            for record in &records {
                if record.redundant {
                    *per_origin.entry(record.origin).or_default() += 1;
                }
                for cause in &record.causes {
                    *per_cause.entry((*cause, record.origin)).or_default() += 1;
                }
            }
            black_box((per_origin.len(), per_cause.len()))
        })
    });

    group.bench_function("aggregate_per_origin_copy_btree", |b| {
        b.iter(|| {
            // Same records as the interned variant, but folded the way
            // `core::attribution` keys its tables today: a BTreeMap keyed by
            // the copyable handle with textual Ord. Isolates clone removal.
            let records: Vec<InternedConnection> = classifications
                .iter()
                .flat_map(|site| {
                    site.connections.iter().map(|connection| InternedConnection {
                        origin: connection.origin,
                        redundant: connection.is_redundant(),
                        causes: Cause::ALL.iter().copied().filter(|c| connection.has_cause(*c)).collect(),
                    })
                })
                .collect();
            let mut per_origin: BTreeMap<DomainName, usize> = BTreeMap::new();
            let mut per_cause: BTreeMap<(Cause, DomainName), usize> = BTreeMap::new();
            for record in &records {
                if record.redundant {
                    *per_origin.entry(record.origin).or_default() += 1;
                }
                for cause in &record.causes {
                    *per_cause.entry((*cause, record.origin)).or_default() += 1;
                }
            }
            black_box((per_origin.len(), per_cause.len()))
        })
    });

    group.bench_function("aggregate_per_origin_strings", |b| {
        b.iter(|| {
            // Stage 1: per-connection records — every origin is a `String`
            // clone (the pre-intern ingest/classify behaviour).
            let records: Vec<StringConnection> = string_sites
                .iter()
                .flat_map(|site| {
                    site.iter().map(|(origin, redundant, causes)| StringConnection {
                        origin: origin.clone(),
                        redundant: *redundant,
                        causes: causes.clone(),
                    })
                })
                .collect();
            // Stage 2: per-origin fold cloning the key on every insertion.
            let mut per_origin: BTreeMap<String, usize> = BTreeMap::new();
            let mut per_cause: BTreeMap<(Cause, String), usize> = BTreeMap::new();
            for record in &records {
                if record.redundant {
                    *per_origin.entry(record.origin.clone()).or_default() += 1;
                }
                for cause in &record.causes {
                    *per_cause.entry((*cause, record.origin.clone())).or_default() += 1;
                }
            }
            black_box((per_origin.len(), per_cause.len()))
        })
    });

    group.bench_function("summary_batch", |b| {
        b.iter(|| black_box(DatasetSummary::from_classifications("bench", &classifications)))
    });

    group.bench_function("summary_streaming_sharded", |b| {
        b.iter(|| {
            let mut shards: Vec<Accumulator> = (0..8).map(|_| Accumulator::new()).collect();
            for (index, site) in classifications.iter().enumerate() {
                shards[index % 8].observe(site);
            }
            let mut merged = Accumulator::new();
            for shard in &shards {
                merged.merge(shard);
            }
            black_box(merged.finish("bench"))
        })
    });

    group.finish();
}

/// The visit engine itself: the batch pipeline (owned `PageVisit` →
/// observation → `classify_site`) against the zero-allocation scratch fast
/// path (`visit_site_into` → `classify_scratch`). Both run the same §4.1
/// kernel; the ratio is what building the visit, the observation and the
/// per-connection cause maps costs on top of it.
fn bench_visit_paths(c: &mut Criterion) {
    use connreuse_core::{classify_site, site_from_visit, FastVisitClassifier};
    use netsim_browser::{BrowserConfig, Crawler, VisitScratch};

    let env = bench_environment();
    let crawler = Crawler::new("bench", BrowserConfig::alexa_measurement(), 0xC0FFEE);

    let mut group = c.benchmark_group("atlas");
    group.sample_size(20);

    group.bench_function("visit_legacy_batch_pipeline", |b| {
        let mut scratch = VisitScratch::new();
        b.iter(|| {
            let mut accumulator = Accumulator::new();
            for index in 0..env.sites.len() {
                let times = crawler.visit_site_into(&mut scratch, &env, index);
                let visit = scratch.to_page_visit(&env.sites[index], times);
                accumulator.observe(&classify_site(&site_from_visit(&visit), DurationModel::Recorded));
            }
            black_box(accumulator.finish("legacy"))
        })
    });

    group.bench_function("visit_scratch_fast_path", |b| {
        let mut scratch = VisitScratch::new();
        let mut classifier = FastVisitClassifier::new();
        b.iter(|| {
            let mut accumulator = Accumulator::new();
            for index in 0..env.sites.len() {
                let _ = crawler.visit_site_into(&mut scratch, &env, index);
                let counts = connreuse_experiments::atlas::classify_scratch(
                    &mut classifier,
                    &scratch,
                    DurationModel::Recorded,
                );
                accumulator.observe_counts(&counts);
            }
            black_box(accumulator.finish("fast"))
        })
    });

    group.finish();
}

fn bench_atlas_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("atlas");
    group.sample_size(10);
    group.bench_function("end_to_end_120_sites", |b| {
        b.iter(|| {
            black_box(run_atlas(&AtlasConfig {
                sites: 120,
                chunk_sites: 40,
                seed: 0xC0FFEE,
                threads: 4,
                zipf_exponent: 0.35,
            }))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_aggregation, bench_visit_paths, bench_atlas_end_to_end);
criterion_main!(benches);
