//! The persistent what-if store: atlas-scale classification and cost
//! records, priced per (mitigation deployment × link profile), persisted as
//! columnar shards and served back **without re-crawling**.
//!
//! Every other experiment recomputes its population on each run. This module
//! turns the atlas pipeline into a build step: each population chunk is one
//! task of the crate's grid kernel, generated once per stored deployment and
//! crawled once per link profile, and the resulting `Accumulator` state +
//! request tallies + [`CostTotals`] of every cell are written as one
//! fixed-width [`netsim_store::ShardFile`]. A what-if query — *"what does
//! COALESCE-CERT buy on lossy cellular for the top 50 k sites?"* — then folds
//! the persisted records through the same record merge the atlas uses in
//! memory, in milliseconds instead of a crawl.
//!
//! ## Determinism to disk
//!
//! The 4-rule determinism contract (see `ARCHITECTURE.md`) extends to the
//! store: a shard's bytes are a pure function of (config, chunk), because
//! every stochastic choice forks off the global site index and the chunk
//! layout is fixed independently of `threads`. Builds at any thread count
//! produce byte-identical store directories, and a stored answer is
//! byte-identical to the equivalent in-memory computation
//! ([`answer_in_memory`], pinned by `tests/store_roundtrip.rs`).
//!
//! ## Incremental rebuild
//!
//! The configuration fingerprint ([`StoreConfig::fingerprint`]) covers
//! everything that changes shard *contents* — seed, chunk size, Zipf mix,
//! deployment list, link profiles — but deliberately **not** the site count
//! or thread count. Growing the population therefore only appends chunks:
//! [`build_store`] asks [`netsim_store::BuildPlan`] which shards on disk
//! already match and crawls only the dirty ones. A second build over the
//! same config rewrites zero shards.
//!
//! ## Backpressure and the query snapshot
//!
//! Building streams each finished chunk's shard through a **bounded**
//! channel ([`connreuse_executor::run_indexed_streaming`]) to the writer on
//! the caller thread; crawl workers block when the writer lags instead of
//! buffering unboundedly. Queries do not stream: [`open_store`] verifies
//! every shard once and holds the verified records, O(chunks × cells)
//! memory (1.46 MB for [`StoreConfig::full`]), and [`answer_query`] folds
//! them on the caller thread with no I/O. The open is a snapshot; a shard
//! file changed afterwards is not seen.

use crate::grid::{chunk_layout, stream_grid, CellRecord, GridWorker, Population};
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::{ScenarioConfig, ALEXA_CRAWL_SEED_OFFSET};
use connreuse_core::DatasetSummary;
use netsim_cost::{CostTotals, LinkProfile};
use netsim_store::{
    finalize_manifest, write_shard, BuildPlan, ShardFile, ShardStore, StoreError, StoreLayout,
};
use netsim_types::{Fingerprint, FingerprintBuilder, Mitigation, MitigationSet};
use netsim_web::DeploymentCache;
use std::ops::Range;
use std::path::Path;

/// Sizing, seeding and stored-deployment selection of one shard store.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreConfig {
    /// Total population size (the paper's own crawl: 100 k).
    pub sites: usize,
    /// Sites per chunk/shard. Fixed independently of `threads`, so the shard
    /// layout — and therefore every stored byte — never depends on the
    /// worker count.
    pub chunk_sites: usize,
    /// Root seed; population and crawl seeds derive from it via the shared
    /// Alexa offsets.
    pub seed: u64,
    /// Worker threads for building (and for [`answer_in_memory`]'s crawl).
    /// Not part of the fingerprint: any thread count produces the identical
    /// store.
    pub threads: usize,
    /// Exponent of the Zipf head-profile mix (as the atlas).
    pub zipf_exponent: f64,
    /// Deployments the store prices. Every chunk's shard carries one record
    /// per (deployment × link profile); queries can only ask about stored
    /// deployments.
    pub mitigations: Vec<MitigationSet>,
    /// Bound of the build's streaming channel: how many finished chunk
    /// results may await the caller-thread writer before workers block. Not
    /// part of the fingerprint.
    pub channel_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            sites: 100_000,
            chunk_sites: 1_000,
            seed: ScenarioConfig::default().seed,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            zipf_exponent: 0.35,
            mitigations: MitigationSet::all_combinations(),
            channel_capacity: 4,
        }
    }
}

impl StoreConfig {
    /// The paper-scale store: 100 k sites, all 16 deployments, three link
    /// profiles — 48 priced cells per chunk, one build, every what-if
    /// answerable afterwards.
    pub fn full() -> Self {
        StoreConfig::default()
    }

    /// A small configuration for tests, golden snapshots and the CI smoke
    /// run. Must stay identical to
    /// `StoreConfig::from_scenario(&ScenarioConfig::quick())` so the
    /// `connreuse-serve --quick` output matches the golden snapshot.
    pub fn quick() -> Self {
        StoreConfig::from_scenario(&ScenarioConfig::quick())
    }

    /// The store sized to match a scenario: the Alexa population share, a
    /// three-deployment demo ladder (measured web, certificate coalescing,
    /// everything) instead of the full 2^4 grid.
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        StoreConfig {
            sites: config.alexa_sites,
            chunk_sites: (config.alexa_sites / 4).max(1),
            seed: config.seed,
            threads: config.threads,
            mitigations: StoreConfig::demo_mitigations(),
            ..StoreConfig::default()
        }
    }

    /// The demo deployment ladder: nothing, the paper's heaviest single fix,
    /// everything.
    pub fn demo_mitigations() -> Vec<MitigationSet> {
        vec![
            MitigationSet::empty(),
            MitigationSet::single(Mitigation::CertificateCoalescing),
            MitigationSet::all(),
        ]
    }

    /// The link profiles every store prices, in [`LinkProfile::presets`]
    /// order. Part of the fingerprint, so a preset change invalidates stores.
    pub fn profiles(&self) -> Vec<LinkProfile> {
        LinkProfile::presets()
    }

    /// The chunk ranges `[start, start + len)` covering the population.
    pub fn chunks(&self) -> Vec<(usize, usize)> {
        chunk_layout(self.sites, self.chunk_sites)
    }

    /// The `(mitigation_bits, profile_index)` record keys every shard
    /// carries, in record order: deployment-major, profile-minor.
    pub fn keys(&self) -> Vec<(u64, u64)> {
        let profiles = self.profiles().len() as u64;
        self.mitigations
            .iter()
            .flat_map(|set| (0..profiles).map(move |profile| (set.bits() as u64, profile)))
            .collect()
    }

    /// The configuration fingerprint every shard and the manifest carry.
    ///
    /// Covers everything that changes shard **contents**: seed, chunk size,
    /// Zipf mix, the deployment list and the link-profile parameters.
    /// Deliberately excludes the site count (growth must only append chunks)
    /// and the thread/channel knobs (any schedule produces the same bytes).
    pub fn fingerprint(&self) -> u64 {
        let bits: Vec<u64> = self.mitigations.iter().map(|set| set.bits() as u64).collect();
        let mut builder = FingerprintBuilder::new("connreuse-store/shard/v1")
            .field_u64("seed", self.seed)
            .field_u64("chunk_sites", self.chunk_sites as u64)
            .field_f64("zipf_exponent", self.zipf_exponent)
            .field_u64_slice("mitigations", &bits);
        for profile in self.profiles() {
            builder = builder
                .field_str("profile", &profile.name)
                .field_u64("rtt_ms", profile.rtt_ms)
                .field_u64("bandwidth_bytes_per_ms", profile.bandwidth_bytes_per_ms)
                .field_u64("loss_ppm", profile.loss_ppm as u64);
        }
        builder.finish().value()
    }

    /// The on-disk layout [`build_store`] targets and readers validate.
    pub fn layout(&self) -> StoreLayout {
        StoreLayout {
            fingerprint: self.fingerprint(),
            chunks: self.chunks().iter().map(|&(start, len)| (start as u64, len as u64)).collect(),
            keys: self.keys(),
        }
    }

    /// The demo query set the `store` experiment and `connreuse-serve`
    /// answer by default: the first stored deployment priced on broadband,
    /// the last on lossy cellular, and the last again over the top half of
    /// the rank list (chunk-aligned).
    pub fn demo_queries(&self) -> Vec<StoreQuery> {
        let first = *self.mitigations.first().expect("a store prices at least one deployment");
        let last = *self.mitigations.last().expect("a store prices at least one deployment");
        let chunks = self.chunks();
        let half = if chunks.len() >= 2 { chunks[chunks.len() / 2].0 as u64 } else { self.sites as u64 };
        vec![
            StoreQuery { mitigations: first, profile_index: 1, lo: 0, hi: self.sites as u64 },
            StoreQuery { mitigations: last, profile_index: 2, lo: 0, hi: self.sites as u64 },
            StoreQuery { mitigations: last, profile_index: 1, lo: 0, hi: half },
        ]
    }
}

/// A priced what-if question: one stored deployment, one link profile, one
/// chunk-aligned slice `[lo, hi)` of the site-rank list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreQuery {
    /// The deployment to price (must be one of [`StoreConfig::mitigations`]).
    pub mitigations: MitigationSet,
    /// Index into [`StoreConfig::profiles`].
    pub profile_index: usize,
    /// First site rank of the slice (inclusive; chunk-aligned).
    pub lo: u64,
    /// One past the last site rank (exclusive; chunk-aligned or the
    /// population end).
    pub hi: u64,
}

/// A profile name as queries spell it (preset names are already single
/// tokens: datacenter, broadband, lossy-cellular).
fn profile_token(profile: &LinkProfile) -> String {
    profile.name.clone()
}

impl StoreQuery {
    /// Parse the query grammar: whitespace-separated `key=value` tokens.
    ///
    /// ```text
    /// mitigations=<label>   "none", "all", or '+'-joined labels (ORIGIN+SYNC-DNS)
    /// profile=<name>        datacenter | broadband | lossy-cellular (default broadband)
    /// ranks=<lo>..<hi>      chunk-aligned site-rank slice (default the whole store)
    /// ```
    ///
    /// Errors are user-facing strings (the serve bin maps them to exit
    /// status 2): unknown or repeated keys, deployments the store does not
    /// price, and rank bounds that do not land on chunk boundaries are all
    /// refused with the valid alternatives spelled out.
    pub fn parse(text: &str, config: &StoreConfig) -> Result<StoreQuery, String> {
        let mut mitigations = None;
        let mut profile = None;
        let mut ranks = None;
        for token in text.split_whitespace() {
            let (key, value) =
                token.split_once('=').ok_or_else(|| format!("token '{token}' is not key=value"))?;
            let repeated = match key {
                "mitigations" => mitigations.replace(parse_mitigations(value, config)?).is_some(),
                "profile" => profile.replace(parse_profile(value, config)?).is_some(),
                "ranks" => ranks.replace(parse_ranks(value, config)?).is_some(),
                other => {
                    return Err(format!("unknown key '{other}' (expected mitigations=, profile=, ranks=)"))
                }
            };
            if repeated {
                return Err(format!("key '{key}' is given twice (each key may appear once)"));
            }
        }
        let mitigations = mitigations.ok_or("query needs mitigations=<label>")?;
        let (lo, hi) = ranks.unwrap_or((0, config.sites as u64));
        Ok(StoreQuery { mitigations, profile_index: profile.unwrap_or(1), lo, hi })
    }

    /// The query echoed back in the grammar it is written in.
    pub fn render(&self, config: &StoreConfig) -> String {
        format!(
            "mitigations={} profile={} ranks={}..{}",
            self.mitigations.label(),
            profile_token(&config.profiles()[self.profile_index]),
            self.lo,
            self.hi
        )
    }
}

fn parse_mitigations(value: &str, config: &StoreConfig) -> Result<MitigationSet, String> {
    let set = match value {
        "none" => MitigationSet::empty(),
        "all" => MitigationSet::all(),
        labels => {
            let mut set = MitigationSet::empty();
            for label in labels.split('+') {
                let mitigation =
                    Mitigation::ALL.into_iter().find(|m| m.label() == label).ok_or_else(|| {
                        format!(
                            "unknown mitigation '{label}' (known: none, all, {})",
                            Mitigation::ALL.map(Mitigation::label).join(", ")
                        )
                    })?;
                set = set.with(mitigation);
            }
            set
        }
    };
    if !config.mitigations.contains(&set) {
        return Err(format!(
            "deployment '{}' is not stored; stored deployments: {}",
            set.label(),
            config.mitigations.iter().map(|m| m.label()).collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(set)
}

fn parse_profile(value: &str, config: &StoreConfig) -> Result<usize, String> {
    let profiles = config.profiles();
    profiles.iter().position(|profile| profile_token(profile) == value).ok_or_else(|| {
        format!(
            "unknown profile '{value}' (known: {})",
            profiles.iter().map(profile_token).collect::<Vec<_>>().join(", ")
        )
    })
}

fn parse_ranks(value: &str, config: &StoreConfig) -> Result<(u64, u64), String> {
    let (lo, hi) = value.split_once("..").ok_or_else(|| format!("ranks '{value}' is not <lo>..<hi>"))?;
    let lo: u64 = lo.parse().map_err(|_| format!("rank '{lo}' is not a number"))?;
    let hi: u64 = hi.parse().map_err(|_| format!("rank '{hi}' is not a number"))?;
    let sites = config.sites as u64;
    if lo >= hi || hi > sites {
        return Err(format!("ranks {lo}..{hi} must satisfy lo < hi <= {sites}"));
    }
    let aligned = |rank: u64| rank == sites || rank.is_multiple_of(config.chunk_sites.max(1) as u64);
    if !aligned(lo) || !aligned(hi) {
        return Err(format!(
            "ranks {lo}..{hi} must land on chunk boundaries (multiples of {}, or the population \
             end {sites}) — shards are the unit of storage",
            config.chunk_sites.max(1)
        ));
    }
    Ok((lo, hi))
}

/// What a build did: how much of the store it could keep.
#[derive(Clone, Debug, PartialEq)]
pub struct BuildReport {
    /// The configuration the store was built under.
    pub config: StoreConfig,
    /// The configuration fingerprint stamped into every shard.
    pub fingerprint: u64,
    /// Chunks (= shards) in the layout.
    pub chunk_count: usize,
    /// Records per shard (deployments × profiles).
    pub records_per_shard: usize,
    /// Shards crawled and (re)written by this build.
    pub rewritten: usize,
    /// Shards already on disk that matched the layout and were kept.
    pub reused: usize,
    /// Stale files removed from `shards/`.
    pub removed: usize,
}

impl BuildReport {
    /// Deterministic build summary (no paths, no wall-clock).
    pub fn render(&self) -> String {
        let mut table = TextTable::new(
            &format!(
                "Shard store: {} sites in {} chunks of {}, seed {}",
                format_count(self.config.sites),
                self.chunk_count,
                self.config.chunk_sites,
                self.config.seed
            ),
            &["metric", "value"],
        );
        table.push_row(["config fingerprint", &Fingerprint::from_value(self.fingerprint).hex()]);
        table.push_row([
            "deployments stored",
            &self.config.mitigations.iter().map(|m| m.label()).collect::<Vec<_>>().join(", "),
        ]);
        table.push_row([
            "link profiles",
            &self.config.profiles().iter().map(profile_token).collect::<Vec<_>>().join(", "),
        ]);
        table.push_row(["records per shard", &format_count(self.records_per_shard)]);
        format!(
            "{}shards rewritten: {} | reused: {} | stale removed: {}\n",
            table.render(),
            self.rewritten,
            self.reused,
            self.removed
        )
    }
}

/// Build (or incrementally refresh) the store at `dir`.
///
/// Dirty chunks stream through the work-stealing executor; each finished
/// shard travels a bounded channel to this thread, which writes it before
/// accepting the next (backpressure on the writer, not unbounded buffering).
/// The manifest is committed last, after every shard is verified on disk.
pub fn build_store(config: &StoreConfig, dir: &Path) -> Result<BuildReport, StoreError> {
    std::fs::create_dir_all(dir).map_err(|error| StoreError::io(dir, error))?;
    let layout = config.layout();
    let plan = BuildPlan::assess(dir, &layout)?;
    let chunks = config.chunks();
    let deployments = DeploymentCache::standard();

    let dirty = &plan.dirty;
    let mut write_error: Option<StoreError> = None;
    stream_grid(
        config.threads,
        dirty.len(),
        config.channel_capacity,
        |worker, task| {
            let (start, len) = chunks[dirty[task]];
            let cells = measure_chunk(worker, config, (start, len), &deployments);
            ShardFile {
                fingerprint: layout.fingerprint,
                chunk_index: dirty[task] as u64,
                start: start as u64,
                len: len as u64,
                records: cells.iter().zip(&layout.keys).map(|(cell, &key)| cell.to_shard(key)).collect(),
            }
        },
        |_task, shard| {
            if write_error.is_none() {
                if let Err(error) = write_shard(dir, &shard) {
                    write_error = Some(error);
                }
            }
        },
    );
    if let Some(error) = write_error {
        return Err(error);
    }

    finalize_manifest(dir, &layout)?;
    Ok(BuildReport {
        config: config.clone(),
        fingerprint: layout.fingerprint,
        chunk_count: chunks.len(),
        records_per_shard: layout.keys.len(),
        rewritten: plan.dirty.len(),
        reused: plan.clean.len(),
        removed: plan.removed.len(),
    })
}

/// Open a store directory, require it to match `config`'s fingerprint, and
/// verify every shard once ([`ShardStore::open`]).
pub fn open_store(config: &StoreConfig, dir: &Path) -> Result<ShardStore, StoreError> {
    ShardStore::open_with_fingerprint(dir, config.fingerprint())
}

/// Measure one chunk under every stored (deployment × profile) cell, in
/// record order ([`StoreConfig::keys`]): the population is generated once
/// per deployment (it depends on the deployment, never on the link) and
/// crawled once per profile — the cost engine's cell discipline at the
/// atlas's population shape.
fn measure_chunk(
    worker: &mut GridWorker<'_>,
    config: &StoreConfig,
    chunk: (usize, usize),
    deployments: &DeploymentCache,
) -> Vec<CellRecord> {
    let profiles = config.profiles();
    let crawl_seed = config.seed + ALEXA_CRAWL_SEED_OFFSET;
    let mut cells = Vec::with_capacity(config.mitigations.len() * profiles.len());
    for &mitigations in &config.mitigations {
        let population = Population::atlas_chunk((config.seed, config.zipf_exponent), chunk, mitigations);
        cells.extend(worker.with_population(population, deployments, |worker, env| {
            worker.measure_links(env, mitigations, &profiles, crawl_seed)
        }));
    }
    cells
}

/// The answer to one what-if query: the queried slice's classification
/// summary and its priced cost, folded from stored shards (or computed in
/// memory by [`answer_in_memory`] — the two are byte-identical).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryAnswer {
    /// The question.
    pub query: StoreQuery,
    /// The resolved link profile.
    pub profile: LinkProfile,
    /// Chunks folded into the answer.
    pub chunks: usize,
    /// Classification of the slice under the deployment.
    pub summary: DatasetSummary,
    /// Sites the slice covers.
    pub observed_sites: usize,
    /// Requests sent across the slice's visits.
    pub requests: u64,
    /// Requests the slice's sites planned.
    pub planned_requests: u64,
    /// Aggregate visit timelines of the slice under the cell.
    pub cost: CostTotals,
}

/// The record index of a query's (deployment, profile) cell, and the
/// contiguous range of chunk indices its rank slice covers: the chunks lying
/// wholly inside `[lo, hi)`. Computed from the layout's shape, not from
/// [`StoreConfig::keys`] and [`StoreConfig::chunks`], so a query allocates
/// nothing here: keys run deployment-major over the profiles, so a cell's
/// record is `deployment × profiles + profile` (the first listing of a
/// deployment stored twice), and every chunk but the last spans
/// `chunk_sites` sites.
fn query_targets(config: &StoreConfig, query: &StoreQuery) -> Result<(usize, Range<usize>), StoreError> {
    let profiles = LinkProfile::PRESET_COUNT;
    let record_index = config
        .mitigations
        .iter()
        .position(|&set| set == query.mitigations)
        .filter(|_| query.profile_index < profiles)
        .map(|deployment| deployment * profiles + query.profile_index)
        .ok_or_else(|| StoreError::LayoutMismatch {
            path: String::new(),
            message: format!(
                "the store does not price cell ({}, profile {})",
                query.mitigations, query.profile_index
            ),
        })?;
    let (sites, chunk) = (config.sites as u64, config.chunk_sites.max(1) as u64);
    let count = sites.div_ceil(chunk);
    // The first chunk starting at or after `lo`, and one past the last
    // chunk ending at or before `hi` (only the last chunk ends at `sites`).
    let first = query.lo.div_ceil(chunk).min(count);
    let end = if query.hi >= sites { count } else { query.hi / chunk };
    Ok((record_index, first as usize..end.max(first) as usize))
}

/// Answer a query from an opened store: fold the queried record of each
/// covered chunk, in chunk order, through the shard-merge monoid. The
/// records were verified when the store was opened, so the fold does no I/O
/// and starts no thread; a covered chunk that failed verification fails the
/// query with its refusal (the lowest-indexed one, if several). No site is
/// ever re-crawled.
pub fn answer_query(
    store: &ShardStore,
    config: &StoreConfig,
    query: &StoreQuery,
) -> Result<QueryAnswer, StoreError> {
    let (record_index, covered) = query_targets(config, query)?;
    let mut fold = CellRecord::default();
    for chunk in covered.clone() {
        fold.absorb_shard(store.record(chunk, record_index)?);
    }
    Ok(QueryAnswer::from_fold(query, covered.len(), fold))
}

/// Answer the same query **without** a store: crawl the covered chunks in
/// memory and fold the identical records. The round-trip tests pin
/// `answer_in_memory(..) == answer_query(..)` byte-for-byte — the store is
/// a cache of this computation, never an approximation of it.
pub fn answer_in_memory(config: &StoreConfig, query: &StoreQuery) -> Result<QueryAnswer, StoreError> {
    let (record_index, covered) = query_targets(config, query)?;
    let chunks = config.chunks();
    let deployments = DeploymentCache::standard();
    let mut fold = CellRecord::default();
    stream_grid(
        config.threads,
        covered.len(),
        config.channel_capacity,
        |worker, task| measure_chunk(worker, config, chunks[covered.start + task], &deployments),
        |_task, cells| fold.merge(&cells[record_index]),
    );
    Ok(QueryAnswer::from_fold(query, covered.len(), fold))
}

impl QueryAnswer {
    /// The answer to `query` from the fold of its `chunks` covered records.
    fn from_fold(query: &StoreQuery, chunks: usize, fold: CellRecord) -> Self {
        QueryAnswer {
            query: *query,
            profile: LinkProfile::preset(query.profile_index).expect("query_targets checked the profile"),
            chunks,
            observed_sites: fold.accumulator.observed_sites(),
            summary: fold.accumulator.finish(&query.mitigations.label()),
            requests: fold.cost.sums.requests,
            planned_requests: fold.planned_requests,
            cost: fold.cost,
        }
    }

    /// Deterministic answer table: the slice's redundancy and its price
    /// under the queried link.
    pub fn render(&self, config: &StoreConfig) -> String {
        let sums = &self.cost.sums;
        let mut table =
            TextTable::new(&format!("What-if: {}", self.query.render(config)), &["metric", "value"]);
        table.push_row(["chunks folded", &format_count(self.chunks)]);
        table.push_row(["sites covered", &format_count(self.observed_sites)]);
        table.push_row(["HTTP/2 sites", &format_count(self.summary.total.sites)]);
        table.push_row(["connections", &format_count(self.summary.total.connections)]);
        table.push_row(["redundant connections", &format_count(self.summary.redundant.connections)]);
        table.push_row(["redundant conn. share", &format_percent(self.summary.redundant_connection_share())]);
        table.push_row(["redundant site share", &format_percent(self.summary.redundant_site_share())]);
        table.push_row([
            "requests sent / planned",
            &format!(
                "{} / {}",
                format_count(self.requests as usize),
                format_count(self.planned_requests as usize)
            ),
        ]);
        table.push_row(["handshake RTTs", &format_count(sums.handshake_rtts as usize)]);
        table.push_row(["handshake volume", &format!("{:.1} KiB", sums.handshake_octets as f64 / 1024.0)]);
        table.push_row(["cold-cwnd RTTs", &format_count(sums.cold_cwnd_rtts as usize)]);
        table.push_row(["DNS walks", &format_count(sums.dns_recursive_walks as usize)]);
        table
            .push_row(["setup time", &format!("{:.2} s", self.cost.setup_time(&self.profile).as_secs_f64())]);
        table.push_row(["mean page-load time", &format!("{:.1} ms", self.cost.mean_plt_millis())]);
        table.render()
    }
}

/// One full service round: build (or refresh) the store, then answer the
/// queries from it. Shared by the `store` experiment and the
/// `connreuse-serve` bin, so the CI smoke can diff the bin's output against
/// the experiment's golden snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreRunReport {
    /// What the build did.
    pub build: BuildReport,
    /// One answer per query, in query order.
    pub answers: Vec<QueryAnswer>,
}

impl StoreRunReport {
    /// Render the build summary followed by every answer.
    pub fn render(&self) -> String {
        let mut out = self.build.render();
        for answer in &self.answers {
            out.push('\n');
            out.push_str(&answer.render(&self.build.config));
        }
        out
    }
}

/// Build/refresh the store at `dir` and answer `queries` from it.
pub fn run_store(
    config: &StoreConfig,
    dir: &Path,
    queries: &[StoreQuery],
) -> Result<StoreRunReport, StoreError> {
    let build = build_store(config, dir)?;
    let store = open_store(config, dir)?;
    let mut answers = Vec::with_capacity(queries.len());
    for query in queries {
        answers.push(answer_query(&store, config, query)?);
    }
    Ok(StoreRunReport { build, answers })
}

/// The `store` experiment: build a fresh demo store in a scratch directory,
/// answer the demo queries, and render the whole round. The directory is
/// unique per call and removed afterwards, so the output is identical on
/// every run (the build always reports a full rewrite).
pub fn run_store_demo(config: &StoreConfig) -> String {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DEMOS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "connreuse-store-demo-{}-{}",
        std::process::id(),
        DEMOS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_store(config, &dir, &config.demo_queries())
        .unwrap_or_else(|error| panic!("store demo build failed: {error}"));
    let _ = std::fs::remove_dir_all(&dir);
    report.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> StoreConfig {
        StoreConfig {
            sites: 36,
            chunk_sites: 12,
            seed: 7,
            threads: 2,
            mitigations: StoreConfig::demo_mitigations(),
            ..StoreConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("connreuse-exp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn layout_covers_the_population_with_all_keys() {
        let config = tiny();
        let layout = config.layout();
        assert_eq!(layout.chunks, vec![(0, 12), (12, 12), (24, 12)]);
        assert_eq!(layout.keys.len(), 3 * 3);
        assert_eq!(layout.keys[0], (0, 0));
        assert_eq!(layout.keys[8], (MitigationSet::all().bits() as u64, 2));
        assert_eq!(layout.sites(), 36);
    }

    #[test]
    fn fingerprint_ignores_scale_knobs_but_tracks_content_knobs() {
        let base = tiny();
        let fingerprint = base.fingerprint();
        assert_eq!(StoreConfig { sites: 999, ..base.clone() }.fingerprint(), fingerprint);
        assert_eq!(StoreConfig { threads: 9, ..base.clone() }.fingerprint(), fingerprint);
        assert_eq!(StoreConfig { channel_capacity: 99, ..base.clone() }.fingerprint(), fingerprint);
        assert_ne!(StoreConfig { seed: 8, ..base.clone() }.fingerprint(), fingerprint);
        assert_ne!(StoreConfig { chunk_sites: 6, ..base.clone() }.fingerprint(), fingerprint);
        assert_ne!(StoreConfig { zipf_exponent: 0.5, ..base.clone() }.fingerprint(), fingerprint);
        assert_ne!(
            StoreConfig { mitigations: vec![MitigationSet::empty()], ..base.clone() }.fingerprint(),
            fingerprint
        );
    }

    #[test]
    fn quick_config_matches_the_quick_scenario() {
        // The CI smoke diffs `connreuse-serve --quick` against the golden
        // snapshot rendered under ScenarioConfig::quick(); the two configs
        // must stay fingerprint-identical.
        assert_eq!(
            StoreConfig::quick().fingerprint(),
            StoreConfig::from_scenario(&ScenarioConfig::quick()).fingerprint()
        );
        assert_eq!(StoreConfig::quick().sites, ScenarioConfig::quick().alexa_sites);
    }

    #[test]
    fn built_store_answers_queries_identically_to_memory() {
        let config = tiny();
        let dir = temp_dir("roundtrip");
        let report = run_store(&config, &dir, &config.demo_queries()).unwrap();
        assert_eq!(report.build.rewritten, 3);
        assert_eq!(report.build.reused, 0);
        for (query, stored) in config.demo_queries().iter().zip(&report.answers) {
            let computed = answer_in_memory(&config, query).unwrap();
            assert_eq!(stored, &computed, "stored answer diverged for {}", query.render(&config));
            assert_eq!(stored.render(&config), computed.render(&config));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_build_rewrites_zero_shards() {
        let config = tiny();
        let dir = temp_dir("idempotent");
        build_store(&config, &dir).unwrap();
        let again = build_store(&config, &dir).unwrap();
        assert_eq!(again.rewritten, 0);
        assert_eq!(again.reused, 3);
        assert!(again.render().contains("shards rewritten: 0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rank_slices_fold_only_their_chunks() {
        let config = tiny();
        let dir = temp_dir("slice");
        build_store(&config, &dir).unwrap();
        let store = open_store(&config, &dir).unwrap();
        let full = StoreQuery { mitigations: MitigationSet::all(), profile_index: 1, lo: 0, hi: 36 };
        let head = StoreQuery { lo: 0, hi: 12, ..full };
        let tail = StoreQuery { lo: 12, hi: 36, ..full };
        let full = answer_query(&store, &config, &full).unwrap();
        let head = answer_query(&store, &config, &head).unwrap();
        let tail = answer_query(&store, &config, &tail).unwrap();
        assert_eq!(head.chunks, 1);
        assert_eq!(tail.chunks, 2);
        assert_eq!(head.observed_sites + tail.observed_sites, full.observed_sites);
        assert_eq!(head.requests + tail.requests, full.requests);
        assert_eq!(
            head.cost.sums.handshake_rtts + tail.cost.sums.handshake_rtts,
            full.cost.sums.handshake_rtts
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The query targeting that scanned freshly built key and chunk lists.
    fn listed_targets(config: &StoreConfig, query: &StoreQuery) -> Result<(usize, Range<usize>), String> {
        let key = (query.mitigations.bits() as u64, query.profile_index as u64);
        let record_index = config.keys().iter().position(|&k| k == key).ok_or_else(|| {
            StoreError::LayoutMismatch {
                path: String::new(),
                message: format!("the store does not price cell ({}, profile {})", query.mitigations, key.1),
            }
            .to_string()
        })?;
        let chunks = config.chunks();
        let first = chunks.partition_point(|&(start, _)| (start as u64) < query.lo);
        let end = chunks.partition_point(|&(start, len)| (start + len) as u64 <= query.hi);
        Ok((record_index, first..end.max(first)))
    }

    proptest! {
        /// The arithmetic targeting picks the record and chunks the key and
        /// chunk lists name, and refuses with the same text: every cell
        /// (unpriced and twice-stored deployments, profile indices past the
        /// presets) and bounds on, beside and between chunk boundaries and
        /// past the population end.
        #[test]
        fn query_targets_agree_with_the_listed_layout(
            sites in 0usize..300,
            chunk_sites in 0usize..70,
            stored in prop::collection::vec(0u8..16, 0usize..6),
            lo in 0u64..400,
            hi in 0u64..400,
        ) {
            let config = StoreConfig {
                sites,
                chunk_sites,
                mitigations: stored.into_iter().map(MitigationSet::from_bits).collect(),
                ..tiny()
            };
            let (sites, chunk) = (sites as u64, chunk_sites as u64);
            let mut bounds = vec![lo, hi, 0, 1, sites.saturating_sub(1), sites, sites + 1, sites + chunk];
            for multiple in 1..4 {
                let boundary = multiple * chunk;
                bounds.extend([boundary.saturating_sub(1), boundary, boundary + 1]);
            }
            let stored = config.mitigations.last().copied().unwrap_or_default();
            let whole = StoreQuery { mitigations: stored, profile_index: 2, lo, hi };
            let cells = (0..16u8).flat_map(|bits| {
                (0..5).map(move |profile_index| {
                    StoreQuery { mitigations: MitigationSet::from_bits(bits), profile_index, ..whole }
                })
            });
            let slices =
                bounds.iter().flat_map(|&lo| bounds.iter().map(move |&hi| StoreQuery { lo, hi, ..whole }));
            for query in cells.chain(slices) {
                prop_assert_eq!(
                    query_targets(&config, &query).map_err(|error| error.to_string()),
                    listed_targets(&config, &query),
                    "{:?}",
                    query
                );
            }
        }
    }

    #[test]
    fn query_grammar_round_trips_and_rejects_bad_input() {
        let config = tiny();
        let query =
            StoreQuery::parse("mitigations=COALESCE-CERT profile=lossy-cellular ranks=12..36", &config)
                .unwrap();
        assert_eq!(query.mitigations, MitigationSet::single(Mitigation::CertificateCoalescing));
        assert_eq!(query.profile_index, 2);
        assert_eq!((query.lo, query.hi), (12, 36));
        assert_eq!(StoreQuery::parse(&query.render(&config), &config).unwrap(), query);

        // Defaults: broadband, the whole store.
        let default = StoreQuery::parse("mitigations=none", &config).unwrap();
        assert_eq!(default.profile_index, 1);
        assert_eq!((default.lo, default.hi), (0, 36));

        for bad in [
            "profile=broadband",                          // no deployment
            "mitigations=WARP-DRIVE",                     // unknown label
            "mitigations=ORIGIN",                         // known label, not stored
            "mitigations=none profile=dialup",            // unknown profile
            "mitigations=none ranks=5..36",               // misaligned lo
            "mitigations=none ranks=0..13",               // misaligned hi
            "mitigations=none ranks=24..12",              // reversed
            "mitigations=none ranks=0..99",               // beyond the store
            "mitigations=none speed=11",                  // unknown key
            "gibberish",                                  // not key=value
            "mitigations=none mitigations=COALESCE-CERT", // repeated key
            "mitigations=none profile=datacenter profile=lossy-cellular",
            "mitigations=none ranks=0..12 ranks=12..36",
        ] {
            assert!(StoreQuery::parse(bad, &config).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn demo_queries_are_valid_against_their_config() {
        for config in [tiny(), StoreConfig::quick()] {
            for query in config.demo_queries() {
                let echoed = query.render(&config);
                assert_eq!(StoreQuery::parse(&echoed, &config).unwrap(), query, "{echoed}");
            }
        }
    }

    #[test]
    fn demo_render_is_stable_and_names_every_query() {
        let config = tiny();
        let first = run_store_demo(&config);
        let second = run_store_demo(&config);
        assert_eq!(first, second, "demo render must be deterministic across runs");
        assert!(first.contains("Shard store"));
        assert!(first.contains("shards rewritten: 3"));
        for query in config.demo_queries() {
            assert!(first.contains(&query.render(&config)), "missing {}", query.render(&config));
        }
    }
}
