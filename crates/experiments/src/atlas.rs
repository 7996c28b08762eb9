//! The atlas scale scenario: a 100 k-site synthetic population crawled and
//! classified with bounded memory.
//!
//! The paper's headline numbers come from crawling the Alexa Top **100 k**
//! and 6.24 M HTTP-Archive sites; the quick scenario reproduces the shape of
//! those results at a few hundred sites. The atlas engine closes the scale
//! gap: it generates a population the size of the paper's own measurement and
//! pushes every page load through the full dns → tls → h2 → fetch →
//! classification pipeline, without ever holding the population (or its
//! visits) in memory at once.
//!
//! ## How it scales
//!
//! * **Chunked generation** — the population is built in fixed-size chunks
//!   by [`atlas_builder`]. A chunk environment contains only its slice of
//!   sites (plus the shared service catalog), so memory is bounded by
//!   `chunk_sites`, not `sites`. Each worker rebuilds one environment in
//!   place ([`netsim_web::PopulationBuilder::build_into`]), chunk after
//!   chunk, so a warm worker generates a chunk without allocating.
//! * **Streaming classification** — each chunk is one task of the crate's
//!   grid kernel: every visit is classified and folded into the chunk's
//!   [`connreuse_core::Accumulator`] and cost totals immediately, then
//!   dropped. Nothing proportional to the population survives a chunk.
//! * **Work-stealing execution** — chunks are scheduled over worker threads
//!   by [`connreuse_executor::run_indexed`]: each worker owns a deque of
//!   chunk indices and steals from a sibling's when its own runs dry, so the
//!   expensive Zipf-head chunks spread over all cores instead of pinning one.
//!   Each worker draws a pooled [`netsim_browser::ScratchPool`] arena and a
//!   streaming classifier once, and reuses them for every chunk it runs.
//! * **Deterministic chunk-ordered merge** — the per-chunk records are
//!   index-addressed by the executor and merged *in chunk order* afterwards.
//!   `Accumulator::merge` is associative and order-insensitive, and every
//!   stochastic choice flows from RNG streams forked off the root seed by
//!   global site index — so `threads = 1` and `threads = 8` produce
//!   byte-identical reports (asserted in `tests/determinism.rs`), at 100 k
//!   and at the million-site scale alike.
//! * **Name handles, not strings** — the per-request hot path copies 24-byte
//!   [`netsim_types::DomainName`] handles instead of cloning strings. Site
//!   and shard names are generated handles that never enter the intern
//!   table, so `interned domains` (the catalog, the misc pool and the TLDs
//!   of the name vocabulary: 1,551 names) is the same at 100 k and 1 M
//!   sites.
//!
//! ## Population shape
//!
//! Sites mix the two calibrated profiles by **Zipf rank**: the site at
//! global rank `r` uses the heavier Alexa profile with probability
//! `(1/(1+r))^zipf_exponent` and the broader HTTP-Archive profile otherwise,
//! mirroring how top-list sites carry more third-party instrumentation than
//! the long tail. Seeds reuse the scenario's Alexa offsets
//! ([`crate::scenario::ALEXA_POPULATION_SEED_OFFSET`] /
//! [`crate::scenario::ALEXA_CRAWL_SEED_OFFSET`]).
//!
//! The deterministic report ([`AtlasReport::render`]) carries the population
//! and redundancy tables; wall-clock throughput and peak RSS are collected
//! separately ([`AtlasMetrics`]) so golden snapshots and thread-invariance
//! checks stay byte-stable.

use crate::grid::{chunk_layout, run_grid, CellRecord, Population};
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::{ScenarioConfig, ALEXA_CRAWL_SEED_OFFSET, ALEXA_POPULATION_SEED_OFFSET};
use connreuse_core::{Cause, ConnectionRecord, DatasetSummary, DurationModel, FastVisitClassifier};
use netsim_browser::{BrowserConfig, Crawler, VisitScratch};
use netsim_cost::{CostTotals, LinkProfile};
use netsim_types::{interned_domain_count, interned_domain_octets, MitigationSet};
use netsim_web::{DeploymentCache, PopulationBuilder, PopulationProfile, SharedDeployment};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Sizing and seeding of one atlas run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AtlasConfig {
    /// Total population size (the paper's own crawl: 100 k).
    pub sites: usize,
    /// Sites per generation/crawl chunk. Fixed independently of `threads`,
    /// so the chunk layout — and therefore the report — never depends on the
    /// worker count. Memory scales with this, not with `sites`.
    pub chunk_sites: usize,
    /// Root seed; the population and crawl seeds derive from it via the
    /// shared Alexa offsets.
    pub seed: u64,
    /// Worker threads the chunks are sharded across.
    pub threads: usize,
    /// Exponent of the Zipf head-profile mix (0 = every site uses the Alexa
    /// profile; larger = faster decay into the archive-shaped tail).
    pub zipf_exponent: f64,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            sites: 100_000,
            chunk_sites: 1_000,
            seed: ScenarioConfig::default().seed,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            zipf_exponent: 0.35,
        }
    }
}

impl AtlasConfig {
    /// The full-scale run: 100 k sites, the paper's own population size.
    pub fn full() -> Self {
        AtlasConfig::default()
    }

    /// A small configuration for tests, golden snapshots and the CI smoke
    /// run.
    pub fn quick() -> Self {
        AtlasConfig { sites: 400, chunk_sites: 80, ..AtlasConfig::default() }
    }

    /// The million-site run: ten times the paper's own crawl, reaching
    /// toward the HTTP-Archive population. Chunks stay at 2 000 sites, so
    /// memory stays bounded exactly like the 100 k run — only the number of
    /// chunks grows.
    pub fn million() -> Self {
        AtlasConfig { sites: 1_000_000, chunk_sites: 2_000, ..AtlasConfig::default() }
    }

    /// The atlas sized to match a scenario: same root seed and thread
    /// budget, population scaled to the scenario's Alexa share.
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        AtlasConfig {
            sites: config.alexa_sites * 2,
            chunk_sites: (config.alexa_sites / 4).max(1),
            seed: config.seed,
            threads: config.threads,
            ..AtlasConfig::default()
        }
    }

    /// The chunk ranges `[start, start + len)` covering the population.
    fn chunks(&self) -> Vec<(usize, usize)> {
        chunk_layout(self.sites, self.chunk_sites)
    }
}

/// Non-deterministic run metrics: wall-clock throughput and memory footprint.
/// Kept out of [`AtlasReport::render`] so reports stay byte-identical across
/// thread counts and machines.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AtlasMetrics {
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
    /// Sites classified per wall-clock second (`sites / elapsed_secs`).
    pub sites_per_second: f64,
    /// Peak resident set size in bytes (`VmHWM` on Linux; 0 where
    /// unavailable).
    pub peak_rss_bytes: u64,
    /// Distinct domain strings in the global intern table after the run.
    pub interned_domains: usize,
    /// Total octets those interned strings occupy (the bounded "leak" the
    /// intern table trades for copyable handles).
    pub interned_octets: usize,
    /// Worker threads the executor actually used (the configured count
    /// clamped to the chunk count).
    pub scheduler_workers: usize,
    /// Chunks that ran on a worker other than the one whose deque initially
    /// held them — the work-stealing balance transfer. Timing-dependent,
    /// like every other field here.
    pub scheduler_steals: u64,
}

impl AtlasMetrics {
    /// Human-readable metrics block (printed by the `connreuse-atlas` bin).
    pub fn render(&self) -> String {
        format!(
            "throughput: {:.1} sites/s ({:.2} s wall) | workers: {} ({} chunks stolen) | peak RSS: \
             {:.1} MiB | interned domains: {} ({:.1} MiB)\n",
            self.sites_per_second,
            self.elapsed_secs,
            self.scheduler_workers,
            self.scheduler_steals,
            self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            format_count(self.interned_domains),
            self.interned_octets as f64 / (1024.0 * 1024.0),
        )
    }
}

/// The completed atlas run.
///
/// Equality deliberately ignores [`AtlasReport::metrics`]: two runs of the
/// same config are *equal* (byte-identical report) even though their
/// wall-clock and RSS readings differ.
#[derive(Clone, Debug)]
pub struct AtlasReport {
    /// The configuration the run used.
    pub config: AtlasConfig,
    /// The classified redundancy of the whole population (recorded
    /// durations, like the scenario's Alexa measurement).
    pub summary: DatasetSummary,
    /// Sites observed (equals `config.sites` — every site is visited).
    pub observed_sites: usize,
    /// Number of generation/crawl chunks the population was split into.
    pub chunk_count: usize,
    /// Total requests sent across all visits.
    pub requests: usize,
    /// Total planned requests across all generated sites.
    pub planned_requests: usize,
    /// Aggregate connection-setup cost of the whole crawl (shard-merged
    /// visit timelines; deterministic).
    pub cost: CostTotals,
    /// Wall-clock / memory metrics (excluded from [`AtlasReport::render`]).
    pub metrics: AtlasMetrics,
}

impl PartialEq for AtlasReport {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.summary == other.summary
            && self.observed_sites == other.observed_sites
            && self.chunk_count == other.chunk_count
            && self.requests == other.requests
            && self.planned_requests == other.planned_requests
            && self.cost == other.cost
    }
}

/// Run the atlas scenario: generate, crawl and classify `config.sites` sites
/// in chunks, streaming everything into shard-merged accumulators.
pub fn run_atlas(config: &AtlasConfig) -> AtlasReport {
    run_atlas_partitioned(config, &config.chunks())
}

/// Run the atlas over an **explicit chunk partition** of `[0, config.sites)`.
///
/// [`run_atlas`] calls this with the uniform layout from the config; the
/// partition proptests call it with arbitrary contiguous partitions to pin
/// the determinism contract: because every site's RNG streams fork off its
/// *global* index and the chunk-ordered merge is associative, **any**
/// partition of the population produces the identical report.
///
/// The chunks must be contiguous, in ascending order, and cover
/// `[0, config.sites)` exactly — the uniform layout trivially satisfies
/// this, and the proptest generator is built to.
pub fn run_atlas_partitioned(config: &AtlasConfig, chunks: &[(usize, usize)]) -> AtlasReport {
    let started = std::time::Instant::now();

    // One memoized service deployment for the whole run: the catalog's
    // zones/certs/prefixes are issued once and shared by every chunk.
    let deployments = DeploymentCache::standard();
    let crawler =
        Crawler::new("atlas", BrowserConfig::alexa_measurement(), config.seed + ALEXA_CRAWL_SEED_OFFSET);

    // Work-stealing execution with index-addressed results: scheduling moves
    // *chunks between workers*, never sites between chunks, so the merge
    // below sees exactly the same per-chunk values at any thread count.
    let outcome = run_grid(config.threads, chunks.len(), |worker, index| {
        let recipe = (config.seed, config.zipf_exponent);
        let chunk = Population::atlas_chunk(recipe, chunks[index], MitigationSet::empty());
        worker.with_population(chunk, &deployments, |worker, env| worker.measure(env, &crawler))
    });

    // Deterministic merge in chunk order (any order would do — merge is
    // order-insensitive — but fixed order keeps the intent obvious).
    let mut total = CellRecord::default();
    for record in &outcome.results {
        total.merge(record);
    }

    let elapsed = started.elapsed().as_secs_f64();
    let observed_sites = total.accumulator.observed_sites();
    AtlasReport {
        config: *config,
        summary: total.accumulator.finish("atlas"),
        observed_sites,
        chunk_count: chunks.len(),
        requests: total.cost.sums.requests as usize,
        planned_requests: total.planned_requests as usize,
        cost: total.cost,
        metrics: AtlasMetrics {
            elapsed_secs: elapsed,
            sites_per_second: if elapsed > 0.0 { config.sites as f64 / elapsed } else { 0.0 },
            peak_rss_bytes: peak_rss_bytes(),
            interned_domains: interned_domain_count(),
            interned_octets: interned_domain_octets(),
            scheduler_workers: outcome.stats.workers,
            scheduler_steals: outcome.stats.steals,
        },
    }
}

/// The atlas population recipe: a population that mixes the Alexa profile
/// in by Zipf rank over the archive profile, layered on `deployment` and
/// deployed under its mitigations. The builder starts with no sites; point
/// it at a chunk with [`PopulationBuilder::set_site_range`]. Every
/// stochastic choice forks off the global site index, so any chunking
/// generates the same sites.
pub fn atlas_builder(seed: u64, zipf_exponent: f64, deployment: Arc<SharedDeployment>) -> PopulationBuilder {
    // Both profiles carry the scenario name so generated domains read
    // `atlas-site-000123.<tld>` regardless of which profile a rank draws.
    let mut head = PopulationProfile::alexa();
    head.name = "atlas".to_string();
    let mut tail = PopulationProfile::archive();
    tail.name = "atlas".to_string();
    let mitigations = deployment.mitigations;
    PopulationBuilder::new(tail, 0, seed + ALEXA_POPULATION_SEED_OFFSET)
        .with_zipf_profile_mix(head, zipf_exponent)
        .with_shared_deployment(deployment)
        .with_mitigations(mitigations)
}

/// Feed one scratch visit into the streaming classifier and reduce it to the
/// site's cause counts. This is *the* contract between the visit engine and
/// the classifier (the grid kernel, the equivalence proptest and the
/// criterion benches all use it): connections are pushed in establishment
/// order, then the request log is folded in one linear pass to set each
/// connection's last-request time (its establishment time if it carried
/// none, as `ObservedConnection::last_request_at` defines it).
///
/// No record is marked excluded: the visit must be [`VisitScratch::all_ok`],
/// which every simulated visit is, since the loader answers each request
/// with 200 and so never sends an HTTP 421.
pub fn classify_scratch(
    classifier: &mut FastVisitClassifier,
    scratch: &VisitScratch,
    model: DurationModel,
) -> connreuse_core::SiteCounts {
    classifier.begin_site();
    let connections = scratch.connections();
    let first_id = connections.first().map(|connection| connection.id.0).unwrap_or(0);
    for (offset, connection) in connections.iter().enumerate() {
        // Connection ids are issued sequentially in establishment order, so
        // a request's connection id maps straight back to its record index.
        debug_assert_eq!(connection.id.0, first_id + offset as u64);
        let record = ConnectionRecord {
            id: connection.id,
            initial_domain: connection.initial_origin.host,
            ip: connection.remote_ip,
            port: connection.port,
            established_at: connection.established_at,
            closed_at: connection.closed_at,
            last_request_at: connection.established_at,
            excluded: false,
        };
        classifier.push_connection(record, &connection.certificate);
    }
    for request in scratch.requests() {
        classifier.bump_last_request((request.connection.0 - first_id) as usize, request.started_at);
    }
    classifier.classify(model)
}

/// Peak resident set size of this process (`VmHWM`), or 0 if unknown.
fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kib: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
                    return kib * 1024;
                }
            }
        }
    }
    0
}

/// One run's machine-readable benchmark record. Deterministic configuration
/// fields first, then the machine-dependent measurements. Collected into a
/// [`BenchFile`] by `connreuse-atlas --bench-json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Record format version (2: multi-record files with scheduler fields;
    /// 1 was the single-record schema).
    pub schema: u32,
    /// Scenario name (always "atlas").
    pub scenario: String,
    /// Population size.
    pub sites: usize,
    /// Sites per chunk.
    pub chunk_sites: usize,
    /// Worker threads the run was configured with.
    pub threads: usize,
    /// CPU cores the machine offered (`available_parallelism`); reads of the
    /// parallel records are meaningless without it.
    pub available_cores: usize,
    /// Root seed.
    pub seed: u64,
    /// Zipf head-profile exponent.
    pub zipf_exponent: f64,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
    /// Sites classified per wall-clock second.
    pub sites_per_second: f64,
    /// Peak resident set size in bytes (0 where unavailable).
    pub peak_rss_bytes: u64,
    /// Distinct interned domain strings after the run.
    pub interned_domains: usize,
    /// Octets those interned strings occupy.
    pub interned_octets: usize,
    /// Chunks the work-stealing executor moved between workers.
    pub scheduler_steals: u64,
}

/// The file `connreuse-atlas --bench-json` writes: one record per run the
/// invocation performed (`--bench-threads 1,8` yields one record per thread
/// count over the identical population). The committed `BENCH_atlas.json`
/// is a `BenchFile`; `scripts/bench_guard.sh` pairs its records with a fresh
/// file's by serial (`threads == 1`) vs parallel (`threads > 1`) role.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// File format version (2; version 1 files held a single bare record).
    pub schema: u32,
    /// Scenario name (always "atlas").
    pub scenario: String,
    /// One record per run, in execution order.
    pub records: Vec<BenchRecord>,
}

impl BenchFile {
    /// Wrap per-run records into the versioned file format.
    pub fn new(records: Vec<BenchRecord>) -> Self {
        BenchFile { schema: 2, scenario: "atlas".to_string(), records }
    }
}

impl AtlasReport {
    /// The benchmark record for this run.
    pub fn bench_record(&self) -> BenchRecord {
        BenchRecord {
            schema: 2,
            scenario: "atlas".to_string(),
            sites: self.config.sites,
            chunk_sites: self.config.chunk_sites,
            threads: self.config.threads,
            available_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            seed: self.config.seed,
            zipf_exponent: self.config.zipf_exponent,
            elapsed_secs: self.metrics.elapsed_secs,
            sites_per_second: self.metrics.sites_per_second,
            peak_rss_bytes: self.metrics.peak_rss_bytes,
            interned_domains: self.metrics.interned_domains,
            interned_octets: self.metrics.interned_octets,
            scheduler_steals: self.metrics.scheduler_steals,
        }
    }

    /// Fraction of planned requests actually sent (page timeouts can clip
    /// the tail of a plan).
    pub fn request_completion(&self) -> f64 {
        if self.planned_requests == 0 {
            0.0
        } else {
            self.requests as f64 / self.planned_requests as f64
        }
    }

    /// Render the deterministic report: population shape plus the
    /// redundancy summary. Throughput/RSS live in [`AtlasMetrics::render`].
    pub fn render(&self) -> String {
        let mut population = TextTable::new(
            &format!(
                "Atlas: {} sites (Zipf profile mix, exponent {:.2}), seed {}, {} chunks of {}",
                format_count(self.config.sites),
                self.config.zipf_exponent,
                self.config.seed,
                self.chunk_count,
                self.config.chunk_sites,
            ),
            &["metric", "value"],
        );
        population.push_row(["sites visited", &format_count(self.observed_sites)]);
        population.push_row(["HTTP/2 sites", &format_count(self.summary.total.sites)]);
        population.push_row(["connections", &format_count(self.summary.total.connections)]);
        population.push_row(["requests sent", &format_count(self.requests)]);
        population.push_row(["requests planned", &format_count(self.planned_requests)]);

        let mut causes = TextTable::new(
            "Atlas: causes of redundant connections (recorded durations)",
            &["cause", "sites", "site share", "conns.", "conn. share"],
        );
        for cause in Cause::ALL {
            let counts = self.summary.cause(cause);
            causes.push_row([
                cause.label().to_string(),
                format_count(counts.sites),
                format_percent(self.summary.site_share(cause)),
                format_count(counts.connections),
                format_percent(self.summary.connection_share(cause)),
            ]);
        }
        causes.push_row([
            "Redund.".to_string(),
            format_count(self.summary.redundant.sites),
            format_percent(self.summary.redundant_site_share()),
            format_count(self.summary.redundant.connections),
            format_percent(self.summary.redundant_connection_share()),
        ]);
        causes.push_row([
            "Total".to_string(),
            format_count(self.summary.total.sites),
            format_percent(1.0),
            format_count(self.summary.total.connections),
            format_percent(1.0),
        ]);

        // Aggregate connection-setup cost, priced at the broadband profile's
        // RTT and bandwidth. The crawl itself runs over the browser's default
        // path: broadband's RTT and bandwidth, but without its 0.1 % loss.
        // Pure integer sums of the per-visit timelines — byte-identical
        // across thread counts.
        let link = LinkProfile::broadband();
        let sums = &self.cost.sums;
        let mut cost =
            TextTable::new("Atlas: aggregate connection-setup cost (broadband link)", &["metric", "value"]);
        cost.push_row(["handshake RTTs", &format_count(sums.handshake_rtts as usize)]);
        cost.push_row([
            "handshake volume",
            &format!("{:.1} MiB", sums.handshake_octets as f64 / (1024.0 * 1024.0)),
        ]);
        cost.push_row(["cold-cwnd RTTs", &format_count(sums.cold_cwnd_rtts as usize)]);
        cost.push_row([
            "DNS walks / authority queries",
            &format!(
                "{} / {}",
                format_count(sums.dns_recursive_walks as usize),
                format_count(sums.dns_authority_queries as usize)
            ),
        ]);
        cost.push_row(["setup time", &format!("{:.1} s", self.cost.setup_time(&link).as_secs_f64())]);
        cost.push_row(["mean page-load time", &format!("{:.1} ms", self.cost.mean_plt_millis())]);
        cost.push_row(["reused requests", &format_percent(sums.reuse_share())]);

        format!(
            "{}\n{}\n{}\nredundant sites: {} | redundant connections: {} | request completion: {}\n",
            population.render(),
            causes.render(),
            cost.render(),
            format_percent(self.summary.redundant_site_share()),
            format_percent(self.summary.redundant_connection_share()),
            format_percent(self.request_completion()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AtlasConfig {
        AtlasConfig { sites: 60, chunk_sites: 16, seed: 7, threads: 2, zipf_exponent: 0.35 }
    }

    #[test]
    fn atlas_visits_every_site_and_finds_redundancy() {
        let report = run_atlas(&tiny());
        assert_eq!(report.observed_sites, 60);
        assert_eq!(report.chunk_count, 4);
        assert!(report.summary.total.connections > 0);
        assert!(report.summary.redundant.connections > 0);
        assert!(report.requests > 0);
        assert!(report.request_completion() > 0.5);
        assert!(report.metrics.sites_per_second > 0.0);
        // Cost accounting rides every visit: one timeline per site, real
        // handshake and DNS work behind them.
        assert_eq!(report.cost.visits, 60);
        assert!(report.cost.sums.handshake_rtts >= 2 * report.summary.total.connections as u64);
        assert_eq!(report.cost.sums.requests as usize, report.requests);
        assert!(report.cost.sums.dns_recursive_walks > 0);
        assert!(report.cost.sums.cold_cwnd_rtts > 0);
    }

    #[test]
    fn repeated_runs_compare_equal_despite_differing_metrics() {
        let config = tiny();
        // PartialEq ignores the wall-clock/RSS metrics, so two runs of the
        // same config are equal even though their timings differ.
        assert_eq!(run_atlas(&config), run_atlas(&config));
    }

    #[test]
    fn chunk_layout_covers_the_population_exactly() {
        let config = AtlasConfig { sites: 50, chunk_sites: 16, ..tiny() };
        let chunks = config.chunks();
        assert_eq!(chunks, vec![(0, 16), (16, 16), (32, 16), (48, 2)]);
        assert_eq!(chunks.iter().map(|(_, len)| len).sum::<usize>(), 50);
    }

    #[test]
    fn chunking_does_not_change_the_classification() {
        // One big chunk vs. many small ones: the population slices differ
        // only in how they are generated, never in what they contain.
        let monolithic = run_atlas(&AtlasConfig { chunk_sites: 60, threads: 1, ..tiny() });
        let chunked = run_atlas(&AtlasConfig { chunk_sites: 7, threads: 1, ..tiny() });
        assert_eq!(monolithic.summary, chunked.summary);
        assert_eq!(monolithic.requests, chunked.requests);
        assert_eq!(monolithic.planned_requests, chunked.planned_requests);
        assert_eq!(monolithic.cost, chunked.cost, "cost totals must be chunk-layout invariant");
    }

    #[test]
    fn arbitrary_contiguous_partitions_reproduce_the_uniform_report() {
        let config = tiny();
        let uniform = run_atlas(&config);
        // A deliberately lopsided partition of the same 60 sites.
        let lopsided = run_atlas_partitioned(&config, &[(0, 1), (1, 29), (30, 25), (55, 5)]);
        assert_eq!(uniform, lopsided);
        assert_eq!(uniform.requests, lopsided.requests);
        assert_eq!(uniform.cost, lopsided.cost);
    }

    #[test]
    fn million_prefix_shares_the_million_layout() {
        let million = AtlasConfig::million();
        let prefix = AtlasConfig { sites: 4_000, ..million };
        // The prefix layout is literally the first chunks of the million
        // layout.
        assert_eq!(prefix.chunks(), million.chunks()[..prefix.chunks().len()].to_vec());
    }

    #[test]
    fn bench_records_carry_the_scheduler_and_machine_fields() {
        let report = run_atlas(&tiny());
        let record = report.bench_record();
        assert_eq!(record.schema, 2);
        assert_eq!(record.threads, 2);
        assert!(record.available_cores >= 1);
        let file = BenchFile::new(vec![record.clone(), record]);
        assert_eq!(file.schema, 2);
        assert_eq!(file.records.len(), 2);
        let json = serde_json::to_string_pretty(&file).expect("bench file serialises");
        assert!(json.contains("\"records\""));
        assert!(json.contains("\"available_cores\""));
    }

    #[test]
    fn zipf_head_sites_are_heavier_than_the_tail() {
        // With exponent 0.35 the top ranks overwhelmingly draw the Alexa
        // profile; deep tail ranks overwhelmingly draw the archive profile.
        // Compare planned-request mass per site between the first and last
        // chunk of a run.
        let config = AtlasConfig { sites: 4_000, chunk_sites: 200, ..tiny() };
        let deployments = DeploymentCache::standard();
        let mut builder =
            atlas_builder(config.seed, config.zipf_exponent, deployments.deployment(MitigationSet::empty()));
        let mut slice = |start| {
            builder.set_site_range(start, 200);
            builder.build()
        };
        let head_env = slice(0);
        let tail_env = slice(3_800);
        let head_mass = head_env.total_planned_requests() as f64 / 200.0;
        let tail_mass = tail_env.total_planned_requests() as f64 / 200.0;
        assert!(
            head_mass > tail_mass,
            "head sites should plan more requests per site ({head_mass:.1} vs {tail_mass:.1})"
        );
    }

    #[test]
    fn report_renders_population_and_causes() {
        let report = run_atlas(&tiny());
        let text = report.render();
        assert!(text.contains("Atlas"));
        for cause in Cause::ALL {
            assert!(text.contains(cause.label()));
        }
        assert!(text.contains("redundant sites"));
        assert!(text.contains("aggregate connection-setup cost"));
        assert!(text.contains("handshake RTTs"));
        // Metrics stay out of the deterministic report.
        assert!(!text.contains("sites/s"));
        assert!(report.metrics.render().contains("sites/s"));
    }
}
