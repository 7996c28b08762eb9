//! Workload inputs, derived from `--seed` alone.
//!
//! The seed selects one of [`SEED_CLASSES`] input variants (a root-seed
//! offset and, for `whatif`, a query stream). The pinned statistics in
//! `pins.json` are keyed by that class, so every run can be checked against
//! the program's known-good output whatever seed it was given.

use connreuse_experiments::{AtlasConfig, ChaosConfig, FleetConfig, ScenarioConfig, StoreConfig, StoreQuery};
use netsim_types::{MitigationSet, SimRng};

/// Distinct input variants; seed `n` uses variant `n % SEED_CLASSES`.
pub const SEED_CLASSES: u64 = 8;

/// Stream label of the `whatif` query generator.
const QUERY_STREAM_SEED: u64 = 0x5157_4849_4649;

/// Workload size: `Full` is what the benchmark measures; `Tiny` runs every
/// workload in seconds for the self-check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(text: &str) -> Option<Size> {
        match text {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// Everything a workload needs, fixed by (seed class, threads, size).
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub class: u64,
    pub threads: usize,
    pub size: Size,
}

impl Inputs {
    pub fn new(seed: u64, threads: usize, size: Size) -> Self {
        Inputs { class: seed % SEED_CLASSES, threads: threads.max(1), size }
    }

    /// The simulator's root seed for this input variant.
    pub fn root_seed(&self) -> u64 {
        ScenarioConfig::default().seed + self.class
    }

    /// The 100k-site atlas (the paper's own crawl size), chunked as the
    /// `connreuse-atlas` binary chunks it.
    pub fn atlas(&self) -> AtlasConfig {
        let (sites, chunk_sites) = match self.size {
            Size::Full => (100_000, 1_000),
            Size::Tiny => (2_000, 100),
        };
        AtlasConfig {
            sites,
            chunk_sites,
            seed: self.root_seed(),
            threads: self.threads,
            ..AtlasConfig::full()
        }
    }

    /// The default fleet and chaos scenario sizes (29 + 145 cells).
    pub fn sessions(&self) -> (FleetConfig, ChaosConfig) {
        let scenario =
            ScenarioConfig { seed: self.root_seed(), threads: self.threads, ..ScenarioConfig::default() };
        let fleet = FleetConfig::from_scenario(&scenario);
        let chaos = ChaosConfig::from_scenario(&scenario);
        match self.size {
            Size::Full => (fleet, chaos),
            Size::Tiny => (
                FleetConfig { sites: 60, sessions: 40, ..fleet },
                ChaosConfig { sites: 40, sessions: 10, ..chaos },
            ),
        }
    }

    /// A store of every deployment × every link profile, with 100 chunks so
    /// a whole-population query folds 100 shards.
    pub fn store(&self) -> StoreConfig {
        let (sites, chunk_sites) = match self.size {
            Size::Full => (2_000, 20),
            Size::Tiny => (200, 20),
        };
        StoreConfig {
            sites,
            chunk_sites,
            seed: self.root_seed(),
            threads: self.threads,
            mitigations: MitigationSet::all_combinations(),
            ..StoreConfig::full()
        }
    }

    /// Queries one `whatif` process answers, closed loop.
    pub fn query_count(&self) -> usize {
        match self.size {
            Size::Full => 1_000,
            Size::Tiny => 40,
        }
    }

    /// The seeded query stream: every deployment, all three link profiles,
    /// and chunk-aligned rank slices from one chunk to the whole population
    /// (a quarter of the queries ask for the whole population).
    pub fn queries(&self, config: &StoreConfig) -> Vec<StoreQuery> {
        let chunks = config.chunks();
        let profiles = config.profiles().len();
        let mut rng = SimRng::new(QUERY_STREAM_SEED).fork_indexed("whatif-queries", self.class);
        (0..self.query_count())
            .map(|_| {
                let mitigations = *rng.pick(&config.mitigations).expect("the store prices deployments");
                let profile_index = rng.in_range(0..profiles);
                let (first, count) = if rng.chance(0.25) {
                    (0, chunks.len())
                } else {
                    let count = rng.in_range(1..=chunks.len());
                    (rng.in_range(0..=chunks.len() - count), count)
                };
                let (lo, _) = chunks[first];
                let (last_start, last_len) = chunks[first + count - 1];
                StoreQuery { mitigations, profile_index, lo: lo as u64, hi: (last_start + last_len) as u64 }
            })
            .collect()
    }
}
