//! Benchmarks of the shard store's read side, the layer under every what-if
//! answer.
//!
//! The store has the shape of simbench's `whatif` workload: 2 000 sites in
//! 100 chunks of 20, every deployment × every link profile (48 records per
//! shard, 1.47 MB on disk). Built once, outside the timed bodies.
//!
//! * `open_100_chunks` — [`open_store`]: the manifest, then per shard one
//!   read, one FNV-1a pass yielding both the manifest's file checksum and
//!   the trailer's body checksum, the decode and the layout check.
//! * `answer_query_whole_population` / `answer_query_one_chunk` —
//!   [`answer_query`] against the opened snapshot: the record and chunk
//!   range by arithmetic, the fold of 100 or 1 records, and the answer's
//!   summary.

use connreuse_experiments::{answer_query, build_store, open_store, StoreConfig, StoreQuery};
use criterion::{criterion_group, criterion_main, Criterion};
use netsim_types::MitigationSet;
use std::hint::black_box;

fn bench_store(c: &mut Criterion) {
    let config = StoreConfig {
        sites: 2_000,
        chunk_sites: 20,
        mitigations: MitigationSet::all_combinations(),
        ..StoreConfig::full()
    };
    let dir = std::env::temp_dir().join(format!("connreuse-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    build_store(&config, &dir).expect("build the bench store");
    let store = open_store(&config, &dir).expect("open the bench store");
    let whole = StoreQuery { mitigations: MitigationSet::all(), profile_index: 2, lo: 0, hi: 2_000 };
    let one = StoreQuery { lo: 1_000, hi: 1_020, ..whole };
    assert_eq!(answer_query(&store, &config, &whole).expect("whole population").chunks, 100);
    assert_eq!(answer_query(&store, &config, &one).expect("one chunk").chunks, 1);

    let mut group = c.benchmark_group("store");
    group.sample_size(20);
    group.bench_function("open_100_chunks", |b| {
        b.iter(|| black_box(open_store(&config, &dir).expect("open")))
    });
    group.bench_function("answer_query_whole_population", |b| {
        b.iter(|| answer_query(&store, &config, black_box(&whole)).expect("answer"))
    });
    group.bench_function("answer_query_one_chunk", |b| {
        b.iter(|| answer_query(&store, &config, black_box(&one)).expect("answer"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
