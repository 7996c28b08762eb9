//! `whatif`: priced what-if queries against a persisted shard store
//! (`build_store` in set-up, then `open_store` + `answer_query`), and the
//! traced replicas of the store build and the query fold.

use crate::atlas::crawl;
use crate::report::{digest, Measured, Op, Outputs, Traced};
use crate::spans::{secs, Busy, SpanLog};
use crate::{stage_layers, take_stage_table};
use connreuse_core::{Accumulator, FastVisitClassifier};
use connreuse_executor::run_indexed_streaming;
use connreuse_experiments::scenario::{ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
use connreuse_experiments::{answer_query, build_store, open_store, QueryAnswer, StoreConfig, StoreQuery};
use netsim_browser::{BrowserConfig, Crawler, PooledScratch, ScratchPool};
use netsim_cost::{CostTotals, VisitTimeline};
use netsim_store::{
    finalize_manifest, write_shard, ShardFile, ShardRecord, ShardStore, StoreError, StoreLayout,
};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile};
use std::path::Path;
use std::time::Instant;

/// Operation ids of the replayed build's chunks (queries use their index).
const BUILD_OP_BASE: usize = 1_000_000;

/// Set-up: build the store from scratch. Returns the build report's digest.
pub fn setup(config: &StoreConfig, dir: &Path) -> Result<String, StoreError> {
    remove_dir(dir);
    Ok(digest(&build_store(config, dir)?.render()))
}

fn remove_dir(dir: &Path) {
    if let Err(error) = std::fs::remove_dir_all(dir) {
        assert!(error.kind() == std::io::ErrorKind::NotFound, "cannot clear {}: {error}", dir.display());
    }
}

/// Answer every query in turn, one client, closed loop; each answer with its
/// latency in milliseconds.
fn answer_all(
    store: &ShardStore,
    config: &StoreConfig,
    queries: &[StoreQuery],
) -> (Vec<Result<QueryAnswer, StoreError>>, Vec<f64>) {
    queries
        .iter()
        .map(|query| {
            let asked = Instant::now();
            let answer = answer_query(store, config, query);
            (answer, asked.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// The pinned outputs of a query stream: one operation per query (a query
/// that fails with a typed error is a failed operation) and the simulated
/// statistics summed over the answers.
fn outputs(config: &StoreConfig, answers: &[Result<QueryAnswer, StoreError>]) -> Outputs {
    let mut sums = VisitTimeline::default();
    let (mut answered, mut connections, mut redundant) = (0, 0, 0);
    let ops: Vec<Op> = answers
        .iter()
        .map(|answer| match answer {
            Ok(answer) => {
                answered += 1;
                sums.absorb(&answer.cost.sums);
                connections += answer.summary.total.connections as u64;
                redundant += answer.summary.redundant.connections as u64;
                Op::Done(digest(&answer.render(config)))
            }
            Err(error) => Op::Failed(error.to_string()),
        })
        .collect();
    Outputs {
        reports: Vec::new(),
        op_count: ops.len(),
        ops,
        stats: vec![
            ("answers", answered),
            ("connections", connections),
            ("redundant_connections", redundant),
            ("requests", sums.requests),
            ("dns_walks", sums.dns_recursive_walks),
            ("handshake_rtts", sums.handshake_rtts),
        ],
    }
}

/// One measured run: answer the query stream from the store set-up built.
pub fn run(config: &StoreConfig, queries: &[StoreQuery], dir: &Path) -> Result<Measured, StoreError> {
    let started = Instant::now();
    let store = open_store(config, dir)?;
    let (answers, op_ms) = answer_all(&store, config, queries);
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Measured { outputs: outputs(config, &answers), wall_s, units: queries.len() as u64, op_ms })
}

struct BuildWorker<'pool> {
    id: usize,
    scratch: PooledScratch<'pool>,
    classifier: FastVisitClassifier,
}

impl BuildWorker<'_> {
    /// The store builder's chunk loop, replayed from public calls: every
    /// deployment's population once, crawled once per link profile.
    fn run_chunk(
        &mut self,
        config: &StoreConfig,
        index: usize,
        (start, len): (usize, usize),
        deployments: &DeploymentCache,
    ) -> (ShardFile, SpanLog) {
        let mut spans = SpanLog::new(self.id);
        spans.set_op(BUILD_OP_BASE + index);
        let envelope = spans.open("whatif.build_chunk");
        let profiles = config.profiles();
        let mut records = Vec::with_capacity(config.mitigations.len() * profiles.len());
        for &mitigations in &config.mitigations {
            let mut head = PopulationProfile::alexa();
            head.name = "atlas".to_string();
            let mut tail = PopulationProfile::archive();
            tail.name = "atlas".to_string();
            let env = spans.time("web.build", || {
                PopulationBuilder::new(tail, len, config.seed + ALEXA_POPULATION_SEED_OFFSET)
                    .with_site_offset(start)
                    .with_zipf_profile_mix(head, config.zipf_exponent)
                    .with_shared_deployment(deployments.deployment(mitigations))
                    .with_mitigations(mitigations)
                    .build()
            });
            let label = mitigations.label();
            for (profile_index, profile) in profiles.iter().enumerate() {
                let crawler = Crawler::new(
                    &label,
                    BrowserConfig::with_mitigations(mitigations).over_link(profile),
                    config.seed + ALEXA_CRAWL_SEED_OFFSET,
                );
                let crawled = crawl(&crawler, &env, &mut self.scratch, &mut self.classifier, &mut spans);
                records.push(ShardRecord {
                    mitigation_bits: mitigations.bits() as u64,
                    profile_index: profile_index as u64,
                    accumulator: crawled.accumulator.state(),
                    requests: crawled.requests,
                    planned_requests: env.total_planned_requests() as u64,
                    cost: crawled.cost,
                });
            }
        }
        spans.close(envelope);
        netsim_types::profile::flush_local();
        let shard = ShardFile {
            fingerprint: config.fingerprint(),
            chunk_index: index as u64,
            start: start as u64,
            len: len as u64,
            records,
        };
        (shard, spans)
    }
}

/// What the replayed build measured.
struct BuildTrace {
    bytes_written: u64,
    identical: bool,
    /// Timeline sums over every record the build wrote.
    sums: VisitTimeline,
}

/// Replay `build_store` into `replica` and compare it byte for byte with
/// the store set-up built in `built`.
fn trace_build(
    config: &StoreConfig,
    built: &Path,
    replica: &Path,
    spans: &mut SpanLog,
) -> Result<BuildTrace, StoreError> {
    remove_dir(replica);
    std::fs::create_dir_all(replica).map_err(|error| StoreError::io(replica, error))?;
    let chunks = config.chunks();
    let deployments = DeploymentCache::standard();
    let scratch_pool = ScratchPool::without_netlog();
    let mut bytes_written = 0;
    let mut sums = VisitTimeline::default();
    let mut failure = None;
    run_indexed_streaming(
        config.threads,
        chunks.len(),
        config.channel_capacity,
        |id| BuildWorker { id, scratch: scratch_pool.checkout(), classifier: FastVisitClassifier::new() },
        |worker, index| worker.run_chunk(config, index, chunks[index], &deployments),
        |index, (shard, log)| {
            spans.absorb(log);
            spans.set_op(BUILD_OP_BASE + index);
            if let Err(error) = spans.time("store.write_shard", || write_shard(replica, &shard)) {
                failure.get_or_insert(error);
            }
            bytes_written += file_len(&StoreLayout::shard_path(replica, index));
            for record in &shard.records {
                sums.absorb(&record.cost.sums);
            }
        },
    );
    if let Some(error) = failure {
        return Err(error);
    }
    finalize_manifest(replica, &config.layout())?;
    let identical = (0..chunks.len())
        .map(|index| (StoreLayout::shard_path(built, index), StoreLayout::shard_path(replica, index)))
        .chain([(built.join(netsim_store::MANIFEST_FILE), replica.join(netsim_store::MANIFEST_FILE))])
        .all(|(left, right)| std::fs::read(left).ok() == std::fs::read(right).ok());
    Ok(BuildTrace { bytes_written, identical, sums })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|meta| meta.len()).unwrap_or(0)
}

/// What the replayed query folds measured.
#[derive(Default)]
struct FoldTrace {
    busy: Busy,
    steals: u64,
    wait_nanos: u64,
    bytes_read: u64,
    shards_read: u64,
}

/// `answer_query`'s fold, replayed from public calls: the covered chunks
/// read by the streaming executor's workers and merged on the caller thread
/// as they arrive.
fn replay_query(
    store: &ShardStore,
    config: &StoreConfig,
    (op, query): (usize, &StoreQuery),
    shard_bytes: &[u64],
    spans: &mut SpanLog,
    fold: &mut FoldTrace,
) -> Result<QueryAnswer, StoreError> {
    let key = (query.mitigations.bits() as u64, query.profile_index as u64);
    let record = config.keys().iter().position(|&k| k == key).expect("queries ask for stored cells");
    let covered: Vec<usize> = config
        .chunks()
        .iter()
        .enumerate()
        .filter(|&(_, &(start, len))| start as u64 >= query.lo && (start + len) as u64 <= query.hi)
        .map(|(index, _)| index)
        .collect();
    spans.set_op(op);
    let envelope = spans.open("whatif.query");
    let mut accumulator = Accumulator::new();
    let mut cost = CostTotals::new();
    let (mut requests, mut planned_requests, mut chunks) = (0, 0, 0);
    let mut failure = None;
    let mut merge_nanos = 0;
    let mut per_worker = vec![0u64; config.threads.clamp(1, covered.len().max(1))];
    let started = Instant::now();
    let stats = run_indexed_streaming(
        config.threads,
        covered.len(),
        config.channel_capacity,
        |worker| {
            let mut log = SpanLog::new(worker);
            log.set_op(op);
            log
        },
        |log, task| {
            let shard = log.time("store.read_chunk", || store.read_chunk(covered[task]));
            (shard, log.take_spans())
        },
        |task, (shard, log)| {
            for span in log.spans() {
                per_worker[span.worker as usize] += span.nanos();
            }
            spans.absorb(log);
            let merge = spans.open("core.merge");
            match shard {
                Ok(shard) => {
                    let record = &shard.records[record];
                    accumulator.merge(&Accumulator::from_state(&record.accumulator));
                    requests += record.requests;
                    planned_requests += record.planned_requests;
                    cost.merge(&record.cost);
                    chunks += 1;
                    fold.bytes_read += shard_bytes[covered[task]];
                    fold.shards_read += 1;
                }
                Err(error) => {
                    failure.get_or_insert(error);
                }
            }
            spans.close(merge);
            merge_nanos += spans.nanos(merge);
        },
    );
    let wall = started.elapsed().as_nanos() as u64;
    spans.close(envelope);
    fold.busy.region(&per_worker, wall);
    fold.steals += stats.steals;
    fold.wait_nanos += wall.saturating_sub(merge_nanos);
    if let Some(error) = failure {
        return Err(error);
    }
    let observed_sites = accumulator.observed_sites();
    Ok(QueryAnswer {
        query: *query,
        profile: config.profiles()[query.profile_index].clone(),
        chunks,
        summary: accumulator.finish(&query.mitigations.label()),
        observed_sites,
        requests,
        planned_requests,
        cost,
    })
}

/// The traced replicas of the store build and of every query's fold, checked
/// against the store set-up built and against `answer_query`.
pub fn trace(
    config: &StoreConfig,
    queries: &[StoreQuery],
    dir: &Path,
    spans_out: &Path,
) -> Result<Traced, StoreError> {
    let store_dir = dir.join("store");
    let mut build_spans = SpanLog::caller();
    take_stage_table();
    let build = trace_build(config, &store_dir, &dir.join("replica-store"), &mut build_spans)?;
    let stages = take_stage_table();

    let store = open_store(config, &store_dir)?;
    let shard_bytes: Vec<u64> =
        (0..store.chunk_count()).map(|index| file_len(&StoreLayout::shard_path(&store_dir, index))).collect();
    let mut spans = SpanLog::caller();
    let mut fold = FoldTrace::default();
    let started = Instant::now();
    let replayed: Vec<Result<QueryAnswer, StoreError>> = queries
        .iter()
        .enumerate()
        .map(|query| replay_query(&store, config, query, &shard_bytes, &mut spans, &mut fold))
        .collect();
    let wall_s = started.elapsed().as_secs_f64();

    let (real, _) = answer_all(&store, config, queries);
    let mut replicas = vec![("replayed store build == build_store (bytes)".to_string(), build.identical)];
    for (index, (replayed, real)) in replayed.iter().zip(&real).enumerate() {
        let equal = match (replayed, real) {
            (Ok(replayed), Ok(real)) => replayed == real,
            (Err(replayed), Err(real)) => replayed.to_string() == real.to_string(),
            _ => false,
        };
        replicas.push((format!("query {index} fold == answer_query"), equal));
    }
    let fold_nanos = spans.self_nanos();
    let build_nanos = build_spans.self_nanos();
    let fold_layer = |name: &str| secs(fold_nanos.get(name).copied().unwrap_or(0));
    let build_layer = |name: &str| secs(build_nanos.get(name).copied().unwrap_or(0));
    let mut layers = vec![
        ("web.build_s", build_layer("web.build")),
        ("browser.visit_s", build_layer("browser.visit")),
        ("core.classify_s", build_layer("core.classify")),
        ("store.write_shard_s", build_layer("store.write_shard")),
        ("store.bytes_written", build.bytes_written as f64),
        ("store.read_chunk_s", fold_layer("store.read_chunk")),
        ("store.bytes_read", fold.bytes_read as f64),
        ("store.shards_read", fold.shards_read as f64),
        ("core.merge_s", fold_layer("core.merge")),
        ("executor.busy_ratio", fold.busy.busy_ratio()),
        ("executor.imbalance", fold.busy.imbalance()),
        ("executor.steals", fold.steals as f64),
        ("executor.wait_s", secs(fold.wait_nanos)),
        ("trace.coverage", spans.coverage()),
    ];
    // The only visits this workload runs are the store build's.
    layers.extend(stage_layers(&stages, &build.sums));
    spans.absorb(build_spans);
    if let Err(error) = spans.write_tsv(spans_out) {
        eprintln!("simbench: could not write {}: {error}", spans_out.display());
    }
    Ok(Traced { outputs: outputs(config, &real), wall_s, replicas, layers })
}
