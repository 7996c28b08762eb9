//! # connreuse-experiments
//!
//! The experiment harness: every table and figure of the paper's evaluation,
//! regenerated end-to-end from the simulated measurement pipeline.
//!
//! The harness builds two site populations (an HTTP-Archive-shaped one and an
//! Alexa-shaped one) plus a shared "overlap" population, crawls them with the
//! browser configurations the paper uses (stock Chromium, Chromium without
//! the Fetch credentials flag, the HTTP-Archive HAR pipeline), classifies
//! every visited site with [`connreuse_core`] in one streaming pass per
//! population ([`scenario`]), and renders the same tables and series the
//! paper publishes:
//!
//! | target | paper artifact |
//! |---|---|
//! | `headline` | §5.1 headline percentages and connection lifetimes |
//! | `figure2`  | redundant-connections-per-site survival function |
//! | `table1`   | cause counts per dataset and duration model |
//! | `table2` / `table12` | top `IP` origins with reusable previous origins |
//! | `table3` / `table4`  | `CERT` issuers and domains |
//! | `table5`   | issuer share over all connections |
//! | `table6`   | ASes behind the `IP` cause |
//! | `table7`–`table10` | the dataset-overlap re-analysis |
//! | `table11` / `figure3` | the DNS probe panel and overlap time series |
//! | `filters`  | the §4.3 HAR filter statistics |
//! | `sweep`    | the 2^4 mitigation what-if matrix (§7 directions) |
//! | `cost`     | the mitigation matrix priced in RTTs/bytes/PLT under three link profiles |
//! | `atlas`    | the paper-scale population scenario (100 k–1 M sites, work-stealing execution, streaming aggregation) |
//! | `fleet`    | multi-page user sessions over a first-class connection-pool lifecycle (warm vs. cold redundancy tax) |
//! | `chaos`    | deterministic fault injection over the warm session trace (failure levels × deployments × links, plus hedged dials) |
//!
//! Atlas, store, cost, sweep and `whatif` measure every cell through one
//! grid kernel: tasks on the work-stealing executor (`connreuse_executor`),
//! one pooled [`VisitScratch`] arena per worker, one visit → classify →
//! fold loop, and `Accumulator`/`CostTotals` records merged in task order —
//! so every rendered report is byte-identical at any `--threads` value (see
//! `ARCHITECTURE.md` for the determinism contract).
//!
//! Run everything with `cargo run -p connreuse-experiments --bin repro --release -- all`,
//! just the mitigation matrix with
//! `cargo run -p connreuse-experiments --bin connreuse-sweep --release`, its
//! cost pricing with
//! `cargo run -p connreuse-experiments --bin connreuse-cost --release`, the
//! full-scale atlas with
//! `cargo run -p connreuse-experiments --bin connreuse-atlas --release`, or
//! the million-site scenario with a thread sweep via
//! `cargo run -p connreuse-experiments --bin connreuse-atlas --release -- --million --bench-threads 1,2,4,8`.
//!
//! [`VisitScratch`]: ../netsim_browser/struct.VisitScratch.html

pub mod atlas;
pub mod chaos;
pub mod cli;
pub mod cost;
pub mod fleet;
mod grid;
pub mod paper;
pub mod profile;
pub mod render;
pub mod runner;
pub mod scenario;
pub mod store;
pub mod sweep;

pub use atlas::{run_atlas, run_atlas_partitioned, AtlasConfig, AtlasMetrics, AtlasReport, BenchFile};
pub use chaos::{run_chaos, ChaosCell, ChaosConfig, ChaosReport};
pub use cost::{run_cost, CostCell, CostConfig, CostReport};
pub use fleet::{run_fleet, FleetCell, FleetConfig, FleetReport};
pub use profile::{render_stage_table, ProfileFile, ProfileRecord};
pub use render::TextTable;
pub use runner::{run_experiment, ExperimentOutput, EXPERIMENTS};
pub use scenario::{Crawl, Scenario, ScenarioConfig};
pub use store::{
    answer_in_memory, answer_query, build_store, open_store, run_store, BuildReport, QueryAnswer,
    StoreConfig, StoreQuery, StoreRunReport,
};
pub use sweep::{run_sweep, SweepCell, SweepConfig, SweepReport};
