//! `atlas`: the cold 100k-site crawl (`run_atlas`), and its traced replica.

use crate::report::{digest, Measured, Outputs, Traced};
use crate::spans::{ratio, secs, Busy, SpanLog};
use crate::{stage_layers, take_stage_table};
use connreuse_core::{classify_site, site_from_visit, Accumulator, DurationModel, FastVisitClassifier};
use connreuse_executor::run_indexed;
use connreuse_experiments::atlas::classify_scratch;
use connreuse_experiments::scenario::{ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
use connreuse_experiments::{run_atlas, AtlasConfig, AtlasMetrics, AtlasReport};
use netsim_browser::{BrowserConfig, Crawler, PooledScratch, ScratchPool, VisitScratch};
use netsim_cost::CostTotals;
use netsim_types::MitigationSet;
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, WebEnvironment};
use std::time::Instant;

/// The pinned outputs of an atlas report. Its chunks are only observable
/// through the report, so a wrong report fails every chunk.
fn outputs(report: &AtlasReport) -> Outputs {
    let sums = &report.cost.sums;
    Outputs {
        reports: vec![digest(&report.render())],
        ops: Vec::new(),
        op_count: report.chunk_count,
        stats: vec![
            ("sites", report.observed_sites as u64),
            ("connections", report.summary.total.connections as u64),
            ("redundant_connections", report.summary.redundant.connections as u64),
            ("requests", report.requests as u64),
            ("dns_walks", sums.dns_recursive_walks),
            ("handshake_rtts", sums.handshake_rtts),
        ],
    }
}

/// Set-up: the service deployment every chunk shares.
pub fn setup() {
    std::hint::black_box(DeploymentCache::standard().deployment(MitigationSet::empty()));
}

/// One measured run of the real program.
pub fn run(config: &AtlasConfig) -> Measured {
    let started = Instant::now();
    let report = run_atlas(config);
    let wall = started.elapsed();
    Measured {
        outputs: outputs(&report),
        wall_s: wall.as_secs_f64(),
        units: config.sites as u64,
        op_ms: vec![wall.as_secs_f64() * 1e3],
    }
}

/// One population crawled and classified: what the atlas chunk loop and the
/// store builder fold per chunk and cell.
pub(crate) struct Crawled {
    pub accumulator: Accumulator,
    pub requests: u64,
    pub cost: CostTotals,
    /// Sites not `all_ok`, sent down the full `classify_site` path.
    pub fallback_sites: u64,
}

/// Visit, fold and classify every site of `env`, as the atlas chunk loop
/// and the store builder do, with a span around each layer's call.
pub(crate) fn crawl(
    crawler: &Crawler,
    env: &WebEnvironment,
    scratch: &mut VisitScratch,
    classifier: &mut FastVisitClassifier,
    spans: &mut SpanLog,
) -> Crawled {
    let mut crawled =
        Crawled { accumulator: Accumulator::new(), requests: 0, cost: CostTotals::new(), fallback_sites: 0 };
    for site in 0..env.sites.len() {
        let times = spans.time("browser.visit", || crawler.visit_site_into(scratch, env, site));
        crawled.requests += scratch.requests().len() as u64;
        spans.time("cost.absorb", || crawled.cost.absorb_visit(scratch.timeline()));
        let accumulator = &mut crawled.accumulator;
        if scratch.all_ok() {
            spans.time("core.classify", || {
                accumulator.observe_counts(&classify_scratch(classifier, scratch, DurationModel::Recorded))
            });
        } else {
            crawled.fallback_sites += 1;
            spans.time("core.classify", || {
                let visit = scratch.to_page_visit(&env.sites[site], times);
                accumulator.observe(&classify_site(&site_from_visit(&visit), DurationModel::Recorded));
            });
        }
    }
    crawled
}

/// What one replayed chunk hands back to the merge.
struct ChunkResult {
    crawled: Crawled,
    planned_requests: usize,
    worker: usize,
    busy_nanos: u64,
    spans: SpanLog,
}

struct ChunkWorker<'pool> {
    id: usize,
    scratch: PooledScratch<'pool>,
    classifier: FastVisitClassifier,
}

impl ChunkWorker<'_> {
    /// The atlas chunk loop, replayed from public calls.
    fn run_chunk(
        &mut self,
        config: &AtlasConfig,
        index: usize,
        (start, len): (usize, usize),
        deployments: &DeploymentCache,
    ) -> ChunkResult {
        let mut spans = SpanLog::new(self.id);
        spans.set_op(index);
        let envelope = spans.open("atlas.chunk");
        let mut head = PopulationProfile::alexa();
        head.name = "atlas".to_string();
        let mut tail = PopulationProfile::archive();
        tail.name = "atlas".to_string();
        let env = spans.time("web.build", || {
            PopulationBuilder::new(tail, len, config.seed + ALEXA_POPULATION_SEED_OFFSET)
                .with_site_offset(start)
                .with_zipf_profile_mix(head, config.zipf_exponent)
                .with_shared_deployment(deployments.deployment(MitigationSet::empty()))
                .build()
        });
        let crawler =
            Crawler::new("atlas", BrowserConfig::alexa_measurement(), config.seed + ALEXA_CRAWL_SEED_OFFSET);
        let crawled = crawl(&crawler, &env, &mut self.scratch, &mut self.classifier, &mut spans);
        spans.close(envelope);
        netsim_types::profile::flush_local();
        ChunkResult {
            crawled,
            planned_requests: env.total_planned_requests(),
            worker: self.id,
            busy_nanos: spans.nanos(envelope),
            spans,
        }
    }
}

/// The traced replica of `run_atlas`, checked against the real report.
pub fn trace(config: &AtlasConfig, spans_out: &std::path::Path) -> Traced {
    take_stage_table();
    let started = Instant::now();
    let mut spans = SpanLog::caller();
    let chunks = chunk_layout(config);
    let deployments = DeploymentCache::standard();
    let scratch_pool = ScratchPool::without_netlog();
    let region = Instant::now();
    let outcome = run_indexed(
        config.threads,
        chunks.len(),
        |id| ChunkWorker { id, scratch: scratch_pool.checkout(), classifier: FastVisitClassifier::new() },
        |worker, index| worker.run_chunk(config, index, chunks[index], &deployments),
    );
    let region_nanos = region.elapsed().as_nanos() as u64;

    let mut busy_per_worker = vec![0u64; outcome.stats.workers];
    let mut accumulator = Accumulator::new();
    let mut cost = CostTotals::new();
    let (mut requests, mut planned_requests, mut fallback_sites) = (0, 0, 0);
    for chunk in outcome.results {
        busy_per_worker[chunk.worker] += chunk.busy_nanos;
        spans.time("core.merge", || {
            accumulator.merge(&chunk.crawled.accumulator);
            cost.merge(&chunk.crawled.cost);
        });
        requests += chunk.crawled.requests as usize;
        planned_requests += chunk.planned_requests;
        fallback_sites += chunk.crawled.fallback_sites;
        spans.absorb(chunk.spans);
    }
    let observed_sites = accumulator.observed_sites();
    let replica = AtlasReport {
        config: *config,
        summary: accumulator.finish("atlas"),
        observed_sites,
        chunk_count: chunks.len(),
        requests,
        planned_requests,
        cost,
        metrics: AtlasMetrics::default(),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let stages = take_stage_table();

    let real = run_atlas(config);
    let mut busy = Busy::default();
    busy.region(&busy_per_worker, region_nanos);
    let self_nanos = spans.self_nanos();
    let layer = |name: &str| secs(self_nanos.get(name).copied().unwrap_or(0));
    let sums = &replica.cost.sums;
    let mut layers = vec![
        ("web.build_s", layer("web.build")),
        ("browser.visit_s", layer("browser.visit")),
        ("core.classify_s", layer("core.classify")),
        ("core.classify_fallback_ratio", ratio(fallback_sites as f64, observed_sites as f64)),
        ("core.merge_s", layer("core.merge")),
        ("executor.busy_ratio", busy.busy_ratio()),
        ("executor.imbalance", busy.imbalance()),
        ("executor.steals", outcome.stats.steals as f64),
        ("trace.coverage", spans.coverage()),
    ];
    layers.extend(stage_layers(&stages, sums));
    if let Err(error) = spans.write_tsv(spans_out) {
        eprintln!("simbench: could not write {}: {error}", spans_out.display());
    }
    Traced {
        replicas: vec![
            ("atlas chunk loop == run_atlas report".to_string(), replica == real),
            ("atlas chunk loop render == run_atlas render".to_string(), replica.render() == real.render()),
        ],
        outputs: outputs(&real),
        wall_s,
        layers,
    }
}

/// `run_atlas`'s uniform chunk layout.
fn chunk_layout(config: &AtlasConfig) -> Vec<(usize, usize)> {
    let chunk = config.chunk_sites.max(1);
    (0..config.sites.div_ceil(chunk)).map(|i| (i * chunk, chunk.min(config.sites - i * chunk))).collect()
}
