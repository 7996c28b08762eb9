//! The persistence contract of the shard store, end to end:
//!
//! * **Round trip** — answers folded from persisted shards are byte-identical
//!   to the equivalent in-memory atlas+cost computation, for arbitrary
//!   store shapes (proptest).
//! * **Incremental recrawl** — growing the population dirties only the new
//!   and resized chunks, and the refreshed store equals a from-scratch
//!   rebuild byte-for-byte.
//! * **Corruption** — truncation, bit flips, fingerprint tampering and
//!   re-sealed shards whose records drift off the layout are refused with
//!   the matching typed [`StoreError`], never served.
//! * **Snapshot** — opening a store verifies every shard once; queries fold
//!   the verified records without touching the disk, and a shard refused at
//!   open fails exactly the queries that cover it, lowest chunk first.
//! * **Untrusted input** — shard decoding over arbitrary and damaged bytes
//!   and query parsing over arbitrary text return typed errors and never
//!   panic (proptest).

use connreuse_experiments::store::{
    answer_in_memory, answer_query, build_store, open_store, run_store, StoreConfig, StoreQuery,
};
use netsim_store::{
    BuildPlan, Manifest, ShardFile, ShardRecord, ShardStore, StoreError, StoreLayout, HEADER_WORDS, MAGIC,
    MANIFEST_FILE,
};
use netsim_types::{fnv1a, MitigationSet};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_store(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny(sites: usize, chunk_sites: usize, seed: u64, threads: usize) -> StoreConfig {
    StoreConfig {
        sites,
        chunk_sites,
        seed,
        threads,
        mitigations: StoreConfig::demo_mitigations(),
        ..StoreConfig::default()
    }
}

/// Read every byte of a store directory, keyed by file name.
fn store_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files =
        vec![(MANIFEST_FILE.to_string(), std::fs::read(dir.join(MANIFEST_FILE)).expect("manifest"))];
    let mut shards: Vec<_> = std::fs::read_dir(dir.join("shards"))
        .expect("shards dir")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    shards.sort();
    for name in shards {
        files.push((name.clone(), std::fs::read(dir.join("shards").join(name)).expect("shard")));
    }
    files
}

/// Grammar fragments that steer generated queries into every parse branch.
const QUERY_KEYS: [&str; 3] = ["mitigations=", "profile=", "ranks="];
const QUERY_VALUES: [&str; 11] =
    ["none", "all", "ORIGIN", "POOL-CRED", "+", "=", "..", "broadband", "0", "8", "24"];

/// Arbitrary Unicode text (surrogate code points are skipped).
fn unicode_text(max_chars: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x11_0000, 0..max_chars)
        .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
}

/// Query-like text: space-separated `key=value` tokens assembled from the
/// grammar fragments, any of which may be arbitrary characters instead.
fn query_text() -> impl Strategy<Value = String> {
    let piece = |choices: &'static [&'static str]| {
        (0..choices.len() + 1, unicode_text(3))
            .prop_map(|(index, raw)| choices.get(index).map_or(raw, |c| c.to_string()))
    };
    let token = (piece(&QUERY_KEYS), prop::collection::vec(piece(&QUERY_VALUES), 0usize..4));
    prop::collection::vec(token, 0usize..4).prop_map(|tokens| {
        tokens.into_iter().map(|(key, value)| key + &value.concat()).collect::<Vec<_>>().join(" ")
    })
}

proptest! {
    /// Shard decoding is total. Arbitrary bytes (bare or behind the magic),
    /// and a valid shard with an arbitrary header word (record count and
    /// width included), byte edits and a truncation, re-sealed past the
    /// checksum or not, either fail with a typed error or decode to a shard
    /// that re-encodes to exactly the input.
    #[test]
    fn shard_decode_is_total(
        noise in prop::collection::vec(any::<u8>(), 0usize..160),
        records in 0usize..4,
        header in (0..HEADER_WORDS, any::<u64>()),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0usize..4),
        cut in any::<usize>(),
    ) {
        let records = vec![ShardRecord::default(); records];
        let shard = ShardFile { fingerprint: 7, chunk_index: 1, start: 8, len: 8, records };
        let mut damaged = shard.encode();
        let offset = MAGIC.len() + header.0 * 8;
        damaged[offset..offset + 8].copy_from_slice(&header.1.to_le_bytes());
        for (position, mask) in edits {
            let len = damaged.len();
            damaged[position % len] ^= mask;
        }
        damaged.truncate(cut % (damaged.len() + 1));
        let mut resealed = damaged.clone();
        if let Some(body) = resealed.len().checked_sub(8) {
            let checksum = fnv1a(&resealed[..body]).to_le_bytes();
            resealed[body..].copy_from_slice(&checksum);
        }
        let behind_magic = [MAGIC.as_slice(), &noise].concat();
        for bytes in [noise, behind_magic, damaged, resealed] {
            match ShardFile::decode("prop.shard", &bytes, None) {
                Ok(decoded) => prop_assert_eq!(decoded.encode(), bytes),
                Err(error) => prop_assert!(!error.to_string().is_empty()),
            }
        }
    }

    /// Query parsing is total: arbitrary text is refused with a message,
    /// and anything accepted is a servable query that re-renders to itself.
    #[test]
    fn store_query_parse_is_total(
        texts in prop::collection::vec(query_text(), 16usize..17),
        raw in unicode_text(24),
    ) {
        let config = tiny(24, 8, 1, 1);
        for input in texts.into_iter().chain([raw]) {
            match StoreQuery::parse(&input, &config) {
                Ok(query) => {
                    prop_assert!(config.mitigations.contains(&query.mitigations));
                    prop_assert!(query.profile_index < config.profiles().len());
                    prop_assert!(query.lo < query.hi && query.hi <= config.sites as u64);
                    prop_assert_eq!(StoreQuery::parse(&query.render(&config), &config), Ok(query));
                }
                Err(message) => prop_assert!(!message.is_empty()),
            }
        }
    }

    /// The store is a cache, never an approximation: for arbitrary
    /// population sizes, chunk sizes, seeds and thread counts, every demo
    /// query answered from disk must equal — struct and rendered bytes —
    /// the same query computed in memory.
    #[test]
    fn persisted_answers_equal_the_in_memory_computation(
        sites in 12usize..40,
        chunk_sites in 5usize..20,
        seed in 0u64..100,
        threads in 1usize..5,
    ) {
        let config = tiny(sites, chunk_sites, seed, threads);
        let dir = temp_store(&format!("prop-{sites}-{chunk_sites}-{seed}-{threads}"));
        let queries = config.demo_queries();
        let report = run_store(&config, &dir, &queries).expect("build");
        prop_assert_eq!(report.build.rewritten, config.chunks().len());
        for (query, stored) in queries.iter().zip(&report.answers) {
            let computed = answer_in_memory(&config, query).expect("in-memory");
            prop_assert_eq!(stored, &computed);
            prop_assert_eq!(stored.render(&config), computed.render(&config));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Growing the population appends chunks: the incremental refresh rewrites
/// only the new (and resized-final) chunks, and the resulting directory is
/// byte-identical to building the grown configuration from scratch.
#[test]
fn incremental_growth_equals_a_full_rebuild() {
    let small = tiny(20, 8, 5, 2); // chunks: (0,8) (8,8) (16,4)
    let grown = StoreConfig { sites: 40, ..small.clone() }; // (0,8) (8,8) (16,8) (24,8) (32,8)
    assert_eq!(small.fingerprint(), grown.fingerprint(), "growth must not change the fingerprint");

    let dir_grown = temp_store("grow-incremental");
    let dir_fresh = temp_store("grow-fresh");
    build_store(&small, &dir_grown).expect("small build");

    // The incremental refresh keeps the two full chunks and recrawls the
    // resized third plus the two new ones.
    let refresh = build_store(&grown, &dir_grown).expect("incremental build");
    assert_eq!(refresh.reused, 2);
    assert_eq!(refresh.rewritten, 3);

    build_store(&grown, &dir_fresh).expect("fresh build");
    assert_eq!(store_bytes(&dir_grown), store_bytes(&dir_fresh));

    // And the grown store answers exactly like the in-memory computation.
    let store = open_store(&grown, &dir_grown).expect("open");
    let query = StoreQuery { mitigations: MitigationSet::all(), profile_index: 2, lo: 0, hi: 40 };
    assert_eq!(
        answer_query(&store, &grown, &query).expect("stored answer"),
        answer_in_memory(&grown, &query).expect("in-memory answer")
    );

    std::fs::remove_dir_all(&dir_grown).unwrap();
    std::fs::remove_dir_all(&dir_fresh).unwrap();
}

/// A second build over the same configuration is a no-op: zero shards
/// rewritten, bytes untouched.
#[test]
fn rebuilding_an_up_to_date_store_rewrites_nothing() {
    let config = tiny(18, 6, 9, 2);
    let dir = temp_store("idempotent");
    build_store(&config, &dir).expect("first build");
    let before = store_bytes(&dir);
    let again = build_store(&config, &dir).expect("second build");
    assert_eq!(again.rewritten, 0);
    assert_eq!(again.reused, 3);
    assert_eq!(store_bytes(&dir), before, "an idempotent rebuild must not touch a byte");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every corruption mode gets its typed refusal, and the build planner
/// schedules exactly the damaged chunk for recrawl.
#[test]
fn corruption_is_refused_with_typed_errors_and_repaired_incrementally() {
    let config = tiny(18, 6, 3, 2);
    let dir = temp_store("corruption");
    build_store(&config, &dir).expect("build");
    let victim = dir.join("shards").join("chunk-000001.shard");
    let pristine = std::fs::read(&victim).expect("read shard");
    let store = ShardStore::open(&dir).expect("open");

    // Truncation: the header promises more bytes than the file holds. The
    // manifest's per-file checksum catches it first on the read path; the
    // format decoder names the precise failure.
    std::fs::write(&victim, &pristine[..pristine.len() - 9]).unwrap();
    assert!(matches!(store.read_chunk(1), Err(StoreError::ChecksumMismatch { .. })));
    let truncated =
        netsim_store::ShardFile::decode("chunk-000001.shard", &pristine[..pristine.len() - 9], None);
    assert!(matches!(truncated, Err(StoreError::Truncated { .. })));

    // Bit flip: length intact, checksum broken.
    let mut flipped = pristine.clone();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x40;
    std::fs::write(&victim, &flipped).unwrap();
    assert!(matches!(store.read_chunk(1), Err(StoreError::ChecksumMismatch { .. })));

    // Fingerprint tamper with a re-sealed checksum: the file is internally
    // consistent but belongs to a different configuration. (The manifest
    // pins per-file checksums, so the re-sealed file must also dodge that
    // check to reach the fingerprint comparison — decode it directly.)
    let mut foreign = pristine.clone();
    foreign[16] ^= 0xff; // fingerprint is header word 1, after the magic and schema
    let body = foreign.len() - 8;
    let reseal = fnv1a(&foreign[..body]).to_le_bytes();
    foreign[body..].copy_from_slice(&reseal);
    std::fs::write(&victim, &foreign).unwrap();
    assert!(matches!(store.read_chunk(1), Err(StoreError::ChecksumMismatch { .. })));
    let decoded = netsim_store::ShardFile::decode("chunk-000001.shard", &foreign, Some(config.fingerprint()));
    assert!(matches!(decoded, Err(StoreError::FingerprintMismatch { .. })));

    // Re-sealed records off the layout: one record fewer, or two records
    // swapped, re-encoded with the manifest's file checksum updated to
    // match. Every byte-level check passes; the record count and keys must
    // not, or the query would index past the records or fold another cell.
    let shard = ShardFile::decode("chunk-000001.shard", &pristine, None).expect("pristine decodes");
    let mut short = shard.clone();
    short.records.pop();
    let last = shard.records.len() - 1;
    let mut swapped = shard.clone();
    swapped.records.swap(0, last);
    for (resealed, record_index) in [(short, last), (swapped, 0)] {
        let bytes = resealed.encode();
        std::fs::write(&victim, &bytes).unwrap();
        let mut manifest = Manifest::load(&dir).expect("manifest");
        manifest.chunks[1].checksum = fnv1a(&bytes);
        manifest.write(&dir).expect("rewrite manifest");
        let resealed_store = ShardStore::open(&dir).expect("re-sealed store opens");
        assert!(matches!(resealed_store.read_chunk(1), Err(StoreError::LayoutMismatch { .. })));
        let (bits, profile_index) = config.keys()[record_index];
        let query = StoreQuery {
            mitigations: MitigationSet::from_bits(bits as u8),
            profile_index: profile_index as usize,
            lo: 0,
            hi: config.sites as u64,
        };
        let answer = answer_query(&resealed_store, &config, &query);
        assert!(matches!(answer, Err(StoreError::LayoutMismatch { .. })), "{answer:?}");
    }

    // The planner marks only the damaged chunk dirty, and the refresh
    // repairs it back to the pristine bytes.
    let plan = BuildPlan::assess(&dir, &config.layout()).expect("assess");
    assert_eq!(plan.dirty, vec![1]);
    assert_eq!(plan.clean, vec![0, 2]);
    let repair = build_store(&config, &dir).expect("repair build");
    assert_eq!(repair.rewritten, 1);
    assert_eq!(std::fs::read(&victim).expect("repaired shard"), pristine);

    // A missing shard behind an intact manifest is refused too.
    std::fs::remove_file(&victim).unwrap();
    assert!(matches!(store.read_chunk(1), Err(StoreError::Missing { .. })));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shard's own trailer is checked even where the manifest's file
/// checksum passes: a body edit behind a re-sealed manifest checksum (stale
/// trailer), and a flip in the trailer alone with the manifest re-sealed or
/// not, are each refused as `ChecksumMismatch` by the read, by the record
/// served from the open and by a query that covers the chunk.
#[test]
fn a_stale_or_flipped_trailer_is_refused_on_every_read_path() {
    let config = tiny(18, 6, 19, 2);
    let dir = temp_store("stale-trailer");
    build_store(&config, &dir).expect("build");
    let victim = StoreLayout::shard_path(&dir, 1);
    let pristine = std::fs::read(&victim).expect("read shard");
    let pristine_manifest = std::fs::read(dir.join(MANIFEST_FILE)).expect("read manifest");
    let body = pristine.len() - 8;
    let mut stale_trailer = pristine.clone();
    stale_trailer[(MAGIC.len() + HEADER_WORDS * 8 + body) / 2] ^= 0x40;
    let mut flipped_trailer = pristine.clone();
    flipped_trailer[body + 3] ^= 0x01;

    let whole = StoreQuery { mitigations: MitigationSet::all(), profile_index: 2, lo: 0, hi: 18 };
    let refused = StoreError::ChecksumMismatch { path: victim.display().to_string() };
    for (damaged, reseal) in [(&stale_trailer, true), (&flipped_trailer, true), (&flipped_trailer, false)] {
        std::fs::write(&victim, damaged).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), &pristine_manifest).unwrap();
        if reseal {
            let mut manifest = Manifest::load(&dir).expect("manifest");
            manifest.chunks[1].checksum = fnv1a(damaged);
            manifest.write(&dir).expect("rewrite manifest");
        }
        let store = open_store(&config, &dir).expect("a bad shard does not fail the open");
        assert_eq!(store.read_chunk(1).map(|_| ()), Err(refused.clone()), "reseal {reseal}");
        assert_eq!(store.record(1, 0), Err(refused.clone()), "reseal {reseal}");
        assert_eq!(answer_query(&store, &config, &whole), Err(refused.clone()), "reseal {reseal}");
        assert!(store.record(0, 0).is_ok() && store.record(2, 0).is_ok());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every chunk-aligned rank slice of `config`, under its first and last
/// stored cell.
fn slice_queries(config: &StoreConfig) -> Vec<StoreQuery> {
    let bounds: Vec<u64> =
        config.chunks().iter().map(|&(start, _)| start as u64).chain([config.sites as u64]).collect();
    let keys = config.keys();
    let cells = [keys[0], keys[keys.len() - 1]];
    let mut queries = Vec::new();
    for (at, &lo) in bounds.iter().enumerate() {
        for &hi in &bounds[at + 1..] {
            for (bits, profile_index) in cells {
                queries.push(StoreQuery {
                    mitigations: MitigationSet::from_bits(bits as u8),
                    profile_index: profile_index as usize,
                    lo,
                    hi,
                });
            }
        }
    }
    queries
}

/// Opening verifies and holds every shard, so queries never touch the disk:
/// with the store directory deleted after the open, every demo query still
/// equals the in-memory computation.
#[test]
fn queries_fold_the_snapshot_taken_at_open_without_io() {
    let config = tiny(30, 8, 11, 2);
    let dir = temp_store("snapshot");
    build_store(&config, &dir).expect("build");
    let store = open_store(&config, &dir).expect("open");
    std::fs::remove_dir_all(&dir).unwrap();
    for query in config.demo_queries() {
        assert_eq!(
            answer_query(&store, &config, &query).expect("answer from the snapshot"),
            answer_in_memory(&config, &query).expect("in-memory answer"),
            "{}",
            query.render(&config)
        );
    }
}

/// A shard damaged before the open does not fail the open: every query that
/// covers it fails with the typed refusal naming that file, and every other
/// query is still answered exactly.
#[test]
fn a_shard_refused_at_open_fails_only_the_queries_that_cover_it() {
    let config = tiny(24, 6, 13, 2); // chunks: (0,6) (6,6) (12,6) (18,6)
    let dir = temp_store("refusal");
    build_store(&config, &dir).expect("build");
    let victim = dir.join("shards").join("chunk-000001.shard");
    let bytes = std::fs::read(&victim).expect("read shard");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    let store = open_store(&config, &dir).expect("a bad shard does not fail the open");
    let (mut refused, mut answered) = (0, 0);
    for query in slice_queries(&config) {
        let answer = answer_query(&store, &config, &query);
        if query.lo <= 6 && query.hi >= 12 {
            refused += 1;
            match answer {
                Err(StoreError::ChecksumMismatch { path }) => {
                    assert!(path.ends_with("chunk-000001.shard"), "{path}")
                }
                other => panic!("{} covers chunk 1: {other:?}", query.render(&config)),
            }
        } else {
            answered += 1;
            assert_eq!(answer.expect("chunk 1 not covered"), answer_in_memory(&config, &query).unwrap());
        }
    }
    assert_eq!((refused, answered), (12, 8));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// With several shards refused, a query reports the lowest-indexed one,
/// whatever the configured thread count.
#[test]
fn the_lowest_refused_chunk_names_the_error_at_any_thread_count() {
    let config = tiny(24, 6, 17, 2);
    let dir = temp_store("first-error");
    build_store(&config, &dir).expect("build");
    let shard = |index: usize| StoreLayout::shard_path(&dir, index);
    let bytes = std::fs::read(shard(2)).expect("read shard");
    std::fs::write(shard(2), &bytes[..bytes.len() - 8]).unwrap();
    std::fs::remove_file(shard(1)).unwrap();

    let whole = StoreQuery { mitigations: MitigationSet::all(), profile_index: 0, lo: 0, hi: 24 };
    let errors: Vec<StoreError> = [1, 8]
        .into_iter()
        .map(|threads| {
            let config = StoreConfig { threads, ..config.clone() };
            let store = open_store(&config, &dir).expect("open");
            answer_query(&store, &config, &whole).expect_err("chunks 1 and 2 are refused")
        })
        .collect();
    assert_eq!(errors[0], StoreError::Missing { path: shard(1).display().to_string() });
    assert_eq!(errors[0], errors[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store built under one configuration refuses to serve another.
#[test]
fn foreign_fingerprints_do_not_open() {
    let config = tiny(12, 6, 21, 1);
    let dir = temp_store("foreign");
    build_store(&config, &dir).expect("build");
    let other_seed = StoreConfig { seed: 22, ..config.clone() };
    let error = open_store(&other_seed, &dir).expect_err("must refuse");
    assert!(matches!(error, StoreError::FingerprintMismatch { .. }), "{error:?}");

    // Dropping a stored deployment changes the fingerprint too: shard
    // record layouts are part of the configuration.
    let fewer = StoreConfig { mitigations: vec![MitigationSet::empty()], ..config.clone() };
    assert!(open_store(&fewer, &dir).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deleting the manifest makes the store unopenable (an interrupted build),
/// while the shards still allow a cheap incremental recovery.
#[test]
fn a_store_without_a_manifest_recovers_incrementally() {
    let config = tiny(12, 4, 2, 2);
    let dir = temp_store("no-manifest");
    build_store(&config, &dir).expect("build");
    std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
    assert!(matches!(open_store(&config, &dir), Err(StoreError::Missing { .. })));

    // Recovery re-validates the shards without recrawling a single site.
    let recovered = build_store(&config, &dir).expect("recovery");
    assert_eq!(recovered.rewritten, 0);
    assert_eq!(recovered.reused, 3);
    assert!(open_store(&config, &dir).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Stale shard files from a larger, abandoned layout are deleted by the
/// next build and reported.
#[test]
fn shrinking_the_population_removes_stale_shards() {
    let big = tiny(24, 6, 4, 2);
    let small = StoreConfig { sites: 12, ..big.clone() };
    let dir = temp_store("shrink");
    build_store(&big, &dir).expect("big build");
    let report = build_store(&small, &dir).expect("small build");
    assert_eq!(report.rewritten, 0);
    assert_eq!(report.reused, 2);
    assert_eq!(report.removed, 2);
    assert!(!StoreLayout::shard_path(&dir, 2).exists());
    assert!(!StoreLayout::shard_path(&dir, 3).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
