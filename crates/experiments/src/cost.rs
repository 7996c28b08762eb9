//! The cost sweep: what every mitigation *buys* in RTTs, bytes and
//! page-load time, per network profile.
//!
//! The mitigation sweep ([`crate::sweep`]) answers "how many connections
//! does each fix remove". This engine answers the question operators act on:
//! **what does each fix buy** — the round trips, handshake bytes and
//! page-load-time inflation attributable to the redundant connections it
//! removes. It runs the same 2^4 mitigation grid, but each cell is crawled
//! under three [`LinkProfile`]s (datacenter / broadband / lossy cellular per
//! Goel et al.) through the crate's grid kernel: the browser's
//! zero-allocation visit fast path accumulates a
//! [`netsim_cost::VisitTimeline`] per visit and a streaming [`CostTotals`]
//! per cell:
//!
//! * **handshake RTTs / octets** — TCP + TLS flights of every opened
//!   connection (`netsim_tls::HandshakeConfig`), resumption-aware,
//! * **cold-cwnd RTTs** — slow-start rounds the opened connections paid for
//!   their bytes (`netsim_h2::cwnd`),
//! * **DNS walks** — recursive resolutions and their authority queries
//!   (cache hits are free),
//! * **page-load time** — the simulated visit duration under the profile's
//!   RTT, bandwidth and loss (lossy links retransmission-inflate every
//!   handshake, so redundancy hurts most exactly where Goel et al. measured
//!   it).
//!
//! ## Sharding and determinism
//!
//! Mitigation cells are independent; the 16 of them are the tasks of one
//! [`connreuse_executor::run_indexed`] run, exactly like the sweep's. One
//! population is generated per cell and crawled under all three profiles
//! (the population depends only on the mitigation deployment, never on the
//! link). Every stochastic choice
//! flows from RNG streams forked off the root seed by stable labels, and
//! results come back in task order whichever worker ran them, so every
//! thread count renders byte-identical reports (asserted in
//! `tests/determinism.rs`). Costs are integer counts plus integer
//! simulated milliseconds — nothing machine-dependent enters the report.

use crate::grid::{run_grid, GridWorker, Population};
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::{ScenarioConfig, ALEXA_CRAWL_SEED_OFFSET};
use netsim_cost::{CostTotals, LinkProfile};
use netsim_types::MitigationSet;
use netsim_web::{DeploymentCache, WebEnvironment};

/// Sizing and seeding of one cost sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostConfig {
    /// Sites per cell population (Alexa-shaped, shared by every profile).
    pub sites: usize,
    /// Root seed; cells share it so that only deployment and link differ.
    pub seed: u64,
    /// Worker threads the 16 mitigation cells are sharded across.
    pub threads: usize,
}

impl Default for CostConfig {
    fn default() -> Self {
        let scenario = ScenarioConfig::default();
        CostConfig { sites: scenario.alexa_sites, seed: scenario.seed, threads: scenario.threads }
    }
}

impl CostConfig {
    /// A small configuration for tests, golden snapshots and the CI smoke
    /// run.
    pub fn quick() -> Self {
        CostConfig { sites: 120, ..CostConfig::default() }
    }

    /// The cost sweep matching a scenario: same Alexa population size, seed
    /// and thread budget, so the broadband baseline cell reproduces the
    /// scenario's own Alexa crawl.
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        CostConfig { sites: config.alexa_sites, seed: config.seed, threads: config.threads }
    }
}

/// One cell of the cost grid: a mitigation combination crawled under one
/// link profile.
#[derive(Clone, Debug, PartialEq)]
pub struct CostCell {
    /// The deployed mitigation combination.
    pub mitigations: MitigationSet,
    /// Index into [`CostReport::profiles`].
    pub profile: usize,
    /// Streaming aggregate of the per-visit cost timelines.
    pub totals: CostTotals,
    /// Connections the classifier counted redundant under this deployment.
    pub redundant_connections: usize,
    /// Response-body octets the population plans (page weight; identical
    /// across profiles of one cell).
    pub planned_octets: u64,
}

/// The completed cost sweep: 16 mitigation cells × the three link profiles.
#[derive(Clone, Debug, PartialEq)]
pub struct CostReport {
    /// The configuration the sweep ran with.
    pub config: CostConfig,
    /// The link profiles, in [`LinkProfile::presets`] order.
    pub profiles: Vec<LinkProfile>,
    /// Cells indexed by `mitigations.bits() × profiles.len() + profile`.
    pub cells: Vec<CostCell>,
}

/// Run the cost sweep: every mitigation combination crawled under every
/// link profile, scheduled across `config.threads` workers.
pub fn run_cost(config: &CostConfig) -> CostReport {
    cost_grid(config).0
}

/// [`run_cost`], with the number of populations its workers built.
fn cost_grid(config: &CostConfig) -> (CostReport, usize) {
    let profiles = LinkProfile::presets();
    let combos = MitigationSet::all_combinations();
    let deployments = DeploymentCache::standard();
    let rows = run_grid(config.threads, combos.len(), |worker, task| {
        let mitigations = combos[task];
        let population = Population::alexa(config.sites, config.seed, mitigations);
        worker.with_population(population, &deployments, |worker, env| {
            run_cell(worker, env, config, mitigations, &profiles)
        })
    });
    let report =
        CostReport { config: *config, profiles, cells: rows.results.into_iter().flatten().collect() };
    (report, rows.builds)
}

/// Measure one mitigation cell under every profile: `env`, the cell's
/// population (it depends on the deployment, not the link), is crawled per
/// profile through the grid kernel.
fn run_cell(
    worker: &mut GridWorker<'_>,
    env: &WebEnvironment,
    config: &CostConfig,
    mitigations: MitigationSet,
    profiles: &[LinkProfile],
) -> Vec<CostCell> {
    let planned_octets = env.total_planned_octets();
    let label = mitigations.label();
    worker
        .measure_links(env, mitigations, profiles, config.seed + ALEXA_CRAWL_SEED_OFFSET)
        .into_iter()
        .enumerate()
        .map(|(profile, record)| CostCell {
            mitigations,
            profile,
            totals: record.cost,
            redundant_connections: record.accumulator.finish(&label).redundant.connections,
            planned_octets,
        })
        .collect()
}

impl CostReport {
    /// The cell measuring `mitigations` under profile index `profile`.
    pub fn cell(&self, profile: usize, mitigations: MitigationSet) -> &CostCell {
        &self.cells[mitigations.bits() as usize * self.profiles.len() + profile]
    }

    /// The measured-web cell (no mitigation) under the given profile.
    pub fn baseline(&self, profile: usize) -> &CostCell {
        self.cell(profile, MitigationSet::empty())
    }

    /// Setup round trips (handshakes + cold-cwnd growth) a deployment saves
    /// vs. the measured web, under the given profile.
    pub fn setup_rtts_saved(&self, profile: usize, mitigations: MitigationSet) -> u64 {
        self.baseline(profile)
            .totals
            .sums
            .setup_rtts()
            .saturating_sub(self.cell(profile, mitigations).totals.sums.setup_rtts())
    }

    /// Handshake octets a deployment saves vs. the measured web.
    pub fn handshake_octets_saved(&self, profile: usize, mitigations: MitigationSet) -> u64 {
        self.baseline(profile)
            .totals
            .sums
            .handshake_octets
            .saturating_sub(self.cell(profile, mitigations).totals.sums.handshake_octets)
    }

    /// Mean page-load-time reduction of a deployment vs. the measured web
    /// (positive = faster pages under the deployment).
    pub fn plt_saved(&self, profile: usize, mitigations: MitigationSet) -> f64 {
        let baseline = self.baseline(profile).totals.mean_plt_millis();
        if baseline == 0.0 {
            return 0.0;
        }
        1.0 - self.cell(profile, mitigations).totals.mean_plt_millis() / baseline
    }

    /// Page-load-time inflation the measured web's redundancy costs under
    /// the given profile: how much slower the baseline loads than the full
    /// deployment (all four mitigations).
    pub fn plt_inflation(&self, profile: usize) -> f64 {
        let full = self.cell(profile, MitigationSet::all()).totals.mean_plt_millis();
        if full == 0.0 {
            return 0.0;
        }
        self.baseline(profile).totals.mean_plt_millis() / full - 1.0
    }

    /// Render the report: one per-profile grid plus the redundancy-tax
    /// summary across profiles.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (profile_index, profile) in self.profiles.iter().enumerate() {
            let mut grid = TextTable::new(
                &format!(
                    "Cost sweep — {} ({} ms RTT, {:.1} kB/ms, {:.1} % loss; {} sites, seed {})",
                    profile.name,
                    profile.rtt_ms,
                    profile.bandwidth_bytes_per_ms as f64 / 1_000.0,
                    profile.loss_ppm as f64 / 10_000.0,
                    self.config.sites,
                    self.config.seed
                ),
                &[
                    "deployment",
                    "conns.",
                    "redundant",
                    "hs RTTs",
                    "hs KiB",
                    "cwnd RTTs",
                    "DNS walks",
                    "setup s",
                    "mean PLT ms",
                    "PLT saved",
                    "RTTs saved",
                    "KiB saved",
                ],
            );
            for combo in MitigationSet::all_combinations() {
                let cell = self.cell(profile_index, combo);
                let sums = &cell.totals.sums;
                grid.push_row([
                    combo.label(),
                    format_count(sums.connections_opened as usize),
                    format_count(cell.redundant_connections),
                    format_count(sums.handshake_rtts as usize),
                    format_count((sums.handshake_octets / 1024) as usize),
                    format_count(sums.cold_cwnd_rtts as usize),
                    format_count(sums.dns_recursive_walks as usize),
                    format!("{:.1}", cell.totals.setup_time(profile).as_secs_f64()),
                    format!("{:.1}", cell.totals.mean_plt_millis()),
                    format_percent(self.plt_saved(profile_index, combo)),
                    format_count(self.setup_rtts_saved(profile_index, combo) as usize),
                    format_count((self.handshake_octets_saved(profile_index, combo) / 1024) as usize),
                ]);
            }
            out.push_str(&grid.render());
            out.push('\n');
        }

        let mut tax = TextTable::new(
            "Redundancy tax: the measured web vs. the full deployment, per profile",
            &["profile", "extra setup RTTs", "extra hs KiB", "extra setup s", "PLT inflation"],
        );
        for (profile_index, profile) in self.profiles.iter().enumerate() {
            let all = MitigationSet::all();
            let extra_setup = self
                .baseline(profile_index)
                .totals
                .setup_time(profile)
                .saturating_sub(self.cell(profile_index, all).totals.setup_time(profile));
            tax.push_row([
                profile.name.clone(),
                format_count(self.setup_rtts_saved(profile_index, all) as usize),
                format_count((self.handshake_octets_saved(profile_index, all) / 1024) as usize),
                format!("{:.1}", extra_setup.as_secs_f64()),
                format_percent(self.plt_inflation(profile_index)),
            ]);
        }
        out.push_str(&tax.render());

        let baseline = self.baseline(0);
        out.push_str(&format!(
            "\npage weight: {} planned KiB across {} sites | every cell crawls the same plans — \
             cells differ only in deployment (rows) and path (tables)\nnote: 'redundant' is the \
             classifier's coalescing potential under each deployment (not monotone; see the sweep \
             report); the saved columns compare against the measured web on the same profile.\n",
            format_count((baseline.planned_octets / 1024) as usize),
            format_count(self.config.sites),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_types::Mitigation;
    use std::sync::OnceLock;

    fn shared_run() -> &'static (CostReport, usize) {
        static RUN: OnceLock<(CostReport, usize)> = OnceLock::new();
        RUN.get_or_init(|| cost_grid(&CostConfig { sites: 60, seed: 20_210_420, threads: 8 }))
    }

    fn shared_report() -> &'static CostReport {
        &shared_run().0
    }

    #[test]
    fn cost_builds_one_population_per_cell() {
        // One build per mitigation cell, crawled under all three profiles.
        assert_eq!(shared_run().1, MitigationSet::COMBINATIONS);
    }

    #[test]
    fn cost_grid_covers_every_cell_in_order() {
        let report = shared_report();
        assert_eq!(report.profiles.len(), 3);
        assert_eq!(report.cells.len(), MitigationSet::COMBINATIONS * 3);
        for combo in MitigationSet::all_combinations() {
            for profile in 0..report.profiles.len() {
                let cell = report.cell(profile, combo);
                assert_eq!(cell.mitigations, combo);
                assert_eq!(cell.profile, profile);
                assert!(cell.totals.visits as usize == report.config.sites);
                assert!(cell.totals.sums.connections_opened > 0);
            }
        }
    }

    #[test]
    fn baseline_pays_more_than_the_full_deployment() {
        let report = shared_report();
        for profile in 0..report.profiles.len() {
            assert!(report.setup_rtts_saved(profile, MitigationSet::all()) > 0);
            assert!(report.handshake_octets_saved(profile, MitigationSet::all()) > 0);
            assert!(report.plt_inflation(profile) >= 0.0);
        }
    }

    #[test]
    fn setup_cost_is_monotone_across_the_whole_grid() {
        // The cost mirror of the sweep's connection-savings monotonicity:
        // adding any mitigation to any combination never increases the
        // setup price (handshake RTTs + octets + cold-cwnd rounds), on any
        // link profile.
        let report = shared_report();
        for profile in 0..report.profiles.len() {
            for combo in MitigationSet::all_combinations() {
                for m in Mitigation::ALL {
                    if combo.contains(m) {
                        continue;
                    }
                    let without = &report.cell(profile, combo).totals.sums;
                    let with = &report.cell(profile, combo.with(m)).totals.sums;
                    assert!(
                        with.setup_rtts() <= without.setup_rtts(),
                        "adding {m} to {combo} on profile {profile} raised setup RTTs"
                    );
                    assert!(
                        with.handshake_octets <= without.handshake_octets,
                        "adding {m} to {combo} on profile {profile} raised handshake octets"
                    );
                }
            }
        }
    }

    #[test]
    fn lossier_profiles_pay_a_higher_redundancy_tax_in_time() {
        // The same saved round trips are worth more milliseconds on worse
        // links: the full deployment's setup-time saving must increase from
        // datacenter to broadband to lossy cellular.
        let report = shared_report();
        let all = MitigationSet::all();
        let saving = |profile_index: usize| {
            let profile = &report.profiles[profile_index];
            report
                .baseline(profile_index)
                .totals
                .setup_time(profile)
                .saturating_sub(report.cell(profile_index, all).totals.setup_time(profile))
        };
        assert!(saving(0) < saving(1), "broadband must tax more than datacenter");
        assert!(saving(1) < saving(2), "lossy cellular must tax more than broadband");
    }

    #[test]
    fn broadband_baseline_matches_the_sweep_measurement() {
        // Every broadband cell of the cost sweep crawls the population the
        // matching mitigation-sweep cell crawls, with the same seeds. The
        // links differ: the sweep runs over the browser's default path —
        // broadband's RTT and bandwidth without its 0.1 % loss. Loss only
        // stretches handshakes and transfers; it never changes which
        // connections open, so the two engines must count the same
        // connections in all 16 cells.
        let config = CostConfig { sites: 40, seed: 20_210_420, threads: 4 };
        let cost = run_cost(&config);
        let sweep = crate::sweep::run_sweep(&crate::sweep::SweepConfig {
            sites: config.sites,
            seed: config.seed,
            threads: config.threads,
        });
        let broadband = 1;
        assert_eq!(cost.profiles[broadband].name, "broadband");
        for combo in MitigationSet::all_combinations() {
            let (priced, swept) = (cost.cell(broadband, combo), &sweep.cell(combo).summary);
            assert_eq!(priced.totals.sums.connections_opened as usize, swept.total.connections, "{combo}");
            assert_eq!(priced.redundant_connections, swept.redundant.connections, "{combo}");
        }
    }

    #[test]
    fn every_request_is_accounted_opened_or_reused() {
        let report = shared_report();
        for cell in &report.cells {
            let sums = &cell.totals.sums;
            assert_eq!(sums.connections_opened + sums.connections_reused, sums.requests);
            assert!(sums.handshake_rtts >= 2 * sums.connections_opened);
            assert!(sums.dns_authority_queries >= sums.dns_recursive_walks);
            // The measurement methodology resets caches between visits, so
            // no handshake is ever charged under the resumption discount.
            assert_eq!(sums.resumed_handshakes, 0);
        }
    }

    #[test]
    fn report_renders_every_profile_and_cell() {
        let report = shared_report();
        let text = report.render();
        for profile in &report.profiles {
            assert!(text.contains(&profile.name), "missing profile {}", profile.name);
        }
        for combo in MitigationSet::all_combinations() {
            assert!(text.contains(&combo.label()), "missing {combo}");
        }
        assert!(text.contains("Redundancy tax"));
    }
}
