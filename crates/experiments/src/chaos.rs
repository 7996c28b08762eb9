//! The chaos grid: what deterministic faults cost each deployment, and what
//! recovery buys back.
//!
//! The fleet prices the redundancy tax of the *healthy* web. This engine
//! prices its mirror image: connection reuse and coalescing concentrate a
//! page on fewer connections, so one mid-transfer reset, dead pooled
//! connection or GOAWAY has a larger blast radius — while sharded
//! deployments spread the damage. Every cell drives the same warm
//! multi-page session trace as the fleet (default pool policy, TLS tickets,
//! session DNS cache) under a seeded [`netsim_browser::FaultProfile`] whose
//! five failure processes (DNS SERVFAIL, TLS dial failure, mid-transfer
//! reset, dead-on-reuse, GOAWAY) all run at one *failure level*:
//!
//! | level | per-process rate |
//! |---|---|
//! | `calm` | 0 ppm — the fault layer draws nothing |
//! | `degraded` | 10 000 ppm (1 %) |
//! | `hostile` | 50 000 ppm (5 %) |
//!
//! The grid is the 2^4 mitigation matrix × the three levels × the three
//! [`LinkProfile`]s (faults hurt most where retries are dearest), plus one
//! **hedged-dial** cell — the unmitigated web on hostile × lossy cellular
//! with [`netsim_browser::RetryPolicy::hedged_dials`] — quantifying the
//! "low latency via redundancy" trade: fewer backoff stalls bought with
//! extra handshake bytes.
//!
//! ## Sharding and determinism
//!
//! The 16 mitigation combinations (nine cells each) are the 16 tasks of one
//! [`connreuse_executor::run_indexed`] run, exactly like the cost sweep's
//! cells, grouped by the 4 webs they deploy so a worker builds each once;
//! results come back in task order. The hedged cell crawls the
//! unmitigated web, so it rides that combination's task and build, and the
//! report appends it after the grid. Every cell replays the fleet's
//! session loop (`replay_sessions`) under the chaos stream labels. Every
//! fault draw comes from a per-visit `fork("fault")` stream of the session
//! RNGs, which fork off the global session index — never a worker id — so
//! reports are byte-identical at any `--threads` value and the calm cells
//! are *provably* fault-free (pinned in the golden). The navigation trace
//! replays identically in all 145 cells: cells differ only in deployment,
//! failure level, link and retry policy.

use crate::fleet::{replay_sessions, SessionStreams};
use crate::grid::{run_deployments, GridWork, Population};
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::ScenarioConfig;
use netsim_browser::{
    BrowserConfig, FaultProfile, PoolConfig, PoolLifecycleStats, RetryPolicy, VisitScratch,
};
use netsim_cost::{LinkProfile, SessionTotals};
use netsim_types::MitigationSet;
use netsim_web::WebEnvironment;

/// The chaos grid's session streams (seed offset clear of the fleet's).
const CHAOS_STREAMS: SessionStreams =
    SessionStreams { seed_offset: 50, nav: "chaos-nav", visit: "chaos-visit" };

/// The failure levels: every fault process runs at the same ppm rate.
/// `calm` doubles as the 0-ppm control — its cells must count zero faults,
/// zero retries and zero degraded pages (pinned in the golden report).
pub const FAULT_LEVELS: [(&str, u32); 3] = [("calm", 0), ("degraded", 10_000), ("hostile", 50_000)];

/// Sizing and seeding of one chaos run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Sites per cell population (Alexa-shaped, shared navigation universe).
    pub sites: usize,
    /// User sessions per cell (each 2–7 pages).
    pub sessions: usize,
    /// Root seed; cells share it so that only deployment, level, link and
    /// retry policy differ.
    pub seed: u64,
    /// Worker threads the mitigation combinations are scheduled across.
    pub threads: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::from_scenario(&ScenarioConfig::default())
    }
}

impl ChaosConfig {
    /// A small configuration for tests, golden snapshots and the CI smoke
    /// run.
    pub fn quick() -> Self {
        ChaosConfig { sites: 40, sessions: 10, ..ChaosConfig::default() }
    }

    /// The chaos grid matching a scenario: the Alexa population size and
    /// seed, with one session per fifteen sites (the grid has 145 cells, so
    /// runtime stays comparable to the fleet's 29).
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        ChaosConfig {
            sites: config.alexa_sites,
            sessions: (config.alexa_sites / 15).max(1),
            seed: config.seed,
            threads: config.threads,
        }
    }
}

/// One cell of the chaos grid: a mitigation deployment driven through warm
/// sessions at one failure level, under one link profile and retry policy.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCell {
    /// The deployed mitigation combination.
    pub mitigations: MitigationSet,
    /// Index into [`FAULT_LEVELS`] (0 = calm, 1 = degraded, 2 = hostile).
    pub level: usize,
    /// Index into [`ChaosReport::profiles`].
    pub profile: usize,
    /// `true` for the hedged-dial cell (appended after the grid).
    pub hedged: bool,
    /// Cross-page cost aggregate over every session of the cell.
    pub totals: SessionTotals,
    /// Pool lifecycle counters (dead-on-reuse churn shows up here too).
    pub lifecycle: PoolLifecycleStats,
    /// Pages that ended [`netsim_browser::VisitOutcome::Degraded`] — at
    /// least one resource exhausted its retry budget.
    pub degraded_pages: u64,
}

/// The completed chaos run: the mitigation × level × link grid plus the
/// hedged-dial cell, all over the same navigation trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    /// The configuration the grid ran with.
    pub config: ChaosConfig,
    /// The link profiles, in [`LinkProfile::presets`] order.
    pub profiles: Vec<LinkProfile>,
    /// Cells indexed by `mitigations.bits() × 9 + level × 3 + profile`,
    /// followed by the hedged cell.
    pub cells: Vec<ChaosCell>,
}

/// Run the chaos grid: every mitigation combination crawls the nine
/// (level × profile) cells from the population of its environment; the
/// unmitigated combination's task also crawls the hedged cell. Tasks are
/// scheduled across `config.threads` workers and come back in task order.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    chaos_grid(config).0
}

/// [`run_chaos`], with the generation work its workers did.
fn chaos_grid(config: &ChaosConfig) -> (ChaosReport, GridWork) {
    let profiles = LinkProfile::presets();
    let combos = MitigationSet::all_combinations();
    let rows = run_deployments(config.threads, &combos, |worker, task| {
        let mitigations = combos[task];
        let population = Population::alexa(config.sites, config.seed, mitigations);
        worker.with_population(population, |worker, env| {
            let cells = run_combo(worker.scratch(), config, env, mitigations, &profiles);
            let hedged =
                mitigations.is_empty().then(|| run_hedged_cell(worker.scratch(), config, env, &profiles));
            (cells, hedged)
        })
    });
    let mut cells = Vec::new();
    let mut hedged = None;
    for (row, row_hedged) in rows.results {
        cells.extend(row);
        hedged = hedged.or(row_hedged);
    }
    cells.push(hedged.expect("the unmitigated combination crawls the hedged cell"));
    (ChaosReport { config: *config, profiles, cells }, rows.work)
}

/// Crawl one mitigation combination's nine cells (level-major,
/// profile-minor) from its population `env`.
fn run_combo(
    scratch: &mut VisitScratch,
    config: &ChaosConfig,
    env: &WebEnvironment,
    mitigations: MitigationSet,
    profiles: &[LinkProfile],
) -> Vec<ChaosCell> {
    let mut cells = Vec::with_capacity(FAULT_LEVELS.len() * profiles.len());
    for (level, (_, ppm)) in FAULT_LEVELS.iter().enumerate() {
        for (profile_index, profile) in profiles.iter().enumerate() {
            let browser_config = BrowserConfig {
                faults: FaultProfile::uniform(*ppm),
                ..BrowserConfig::with_mitigations(mitigations).over_link(profile)
            };
            let (totals, lifecycle, degraded_pages) = replay_sessions(
                scratch,
                &CHAOS_STREAMS,
                config.seed,
                config.sessions,
                env,
                &browser_config,
                Some(PoolConfig::default()),
            );
            cells.push(ChaosCell {
                mitigations,
                level,
                profile: profile_index,
                hedged: false,
                totals,
                lifecycle,
                degraded_pages,
            });
        }
    }
    cells
}

/// The hedged-dial cell: the unmitigated web `env` at the hostile level on
/// lossy cellular, dialing redundantly instead of backing off.
fn run_hedged_cell(
    scratch: &mut VisitScratch,
    config: &ChaosConfig,
    env: &WebEnvironment,
    profiles: &[LinkProfile],
) -> ChaosCell {
    let level = FAULT_LEVELS.len() - 1;
    let profile_index = profiles.len() - 1;
    let browser_config = BrowserConfig {
        faults: FaultProfile::uniform(FAULT_LEVELS[level].1),
        retry: RetryPolicy { hedged_dials: true, ..RetryPolicy::default() },
        ..BrowserConfig::with_mitigations(MitigationSet::empty()).over_link(&profiles[profile_index])
    };
    let (totals, lifecycle, degraded_pages) = replay_sessions(
        scratch,
        &CHAOS_STREAMS,
        config.seed,
        config.sessions,
        env,
        &browser_config,
        Some(PoolConfig::default()),
    );
    ChaosCell {
        mitigations: MitigationSet::empty(),
        level,
        profile: profile_index,
        hedged: true,
        totals,
        lifecycle,
        degraded_pages,
    }
}

impl ChaosReport {
    /// Cells per mitigation combination (levels × profiles).
    fn cells_per_combo(&self) -> usize {
        FAULT_LEVELS.len() * self.profiles.len()
    }

    /// The cell measuring `mitigations` at failure `level` under profile
    /// index `profile`.
    pub fn cell(&self, level: usize, profile: usize, mitigations: MitigationSet) -> &ChaosCell {
        &self.cells
            [mitigations.bits() as usize * self.cells_per_combo() + level * self.profiles.len() + profile]
    }

    /// The hedged-dial cell (always last).
    pub fn hedged(&self) -> &ChaosCell {
        self.cells.last().expect("the hedged cell is always appended")
    }

    /// The hedged cell's backoff twin: same deployment, level and link, but
    /// the default retry policy.
    pub fn hedged_twin(&self) -> &ChaosCell {
        let hedged = self.hedged();
        self.cell(hedged.level, hedged.profile, hedged.mitigations)
    }

    /// Mean-PLT inflation of a faulted cell over its calm twin (same
    /// deployment and link at level 0) — the blast radius in time.
    pub fn plt_inflation(&self, level: usize, profile: usize, mitigations: MitigationSet) -> f64 {
        let calm = self.cell(0, profile, mitigations).totals.totals.mean_plt_millis();
        if calm == 0.0 {
            return 0.0;
        }
        self.cell(level, profile, mitigations).totals.totals.mean_plt_millis() / calm - 1.0
    }

    /// Share of a cell's pages that degraded (exhausted a retry budget).
    pub fn degraded_share(cell: &ChaosCell) -> f64 {
        let pages = cell.totals.pages();
        if pages == 0 {
            return 0.0;
        }
        cell.degraded_pages as f64 / pages as f64
    }

    /// The calm (0 ppm) cells of the grid.
    fn calm_cells(&self) -> impl Iterator<Item = &ChaosCell> {
        self.cells.iter().filter(|cell| cell.level == 0 && !cell.hedged)
    }

    /// Faults injected and retries spent across every calm (0 ppm) cell —
    /// the control total the golden pins at zero.
    pub fn calm_totals(&self) -> (u64, u64) {
        let mut faults = 0;
        let mut retries = 0;
        for cell in self.calm_cells() {
            faults += cell.totals.totals.sums.faults_injected;
            retries += cell.totals.totals.sums.retries;
        }
        (faults, retries)
    }

    /// Render the report: one grid per (non-calm level × profile), the
    /// blast-radius summary, the hedged-dial comparison and the calm
    /// control line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (level, (level_name, ppm)) in FAULT_LEVELS.iter().enumerate().skip(1) {
            for (profile_index, profile) in self.profiles.iter().enumerate() {
                let mut grid = TextTable::new(
                    &format!(
                        "Chaos — {} ({:.1} % per process) × {} ({} sessions, {} pages, {} sites, seed {})",
                        level_name,
                        *ppm as f64 / 10_000.0,
                        profile.name,
                        format_count(self.config.sessions),
                        format_count(
                            self.cell(level, profile_index, MitigationSet::empty()).totals.pages() as usize
                        ),
                        format_count(self.config.sites),
                        self.config.seed
                    ),
                    &[
                        "deployment",
                        "conns.",
                        "faults",
                        "retries",
                        "backoff ms",
                        "dead reuse",
                        "goaways",
                        "degr. pages",
                        "failed res.",
                        "mean PLT ms",
                        "PLT infl.",
                    ],
                );
                for combo in MitigationSet::all_combinations() {
                    let cell = self.cell(level, profile_index, combo);
                    let sums = &cell.totals.totals.sums;
                    grid.push_row([
                        combo.label(),
                        format_count(sums.connections_opened as usize),
                        format_count(sums.faults_injected as usize),
                        format_count(sums.retries as usize),
                        format_count(sums.retry_backoff_millis as usize),
                        format_count(sums.dead_on_reuse as usize),
                        format_count(sums.goaways_received as usize),
                        format_count(cell.degraded_pages as usize),
                        format_count(sums.failed_resources as usize),
                        format!("{:.1}", cell.totals.totals.mean_plt_millis()),
                        format_percent(self.plt_inflation(level, profile_index, combo)),
                    ]);
                }
                out.push_str(&grid.render());
                out.push('\n');
            }
        }

        let mut blast = TextTable::new(
            "Blast radius — faulted vs. calm twin (same deployment, same link)",
            &["level", "profile", "deployment", "calm PLT ms", "PLT ms", "PLT infl.", "degr. share"],
        );
        for (level, (level_name, _)) in FAULT_LEVELS.iter().enumerate().skip(1) {
            for (profile_index, profile) in self.profiles.iter().enumerate() {
                for combo in [MitigationSet::empty(), MitigationSet::all()] {
                    let cell = self.cell(level, profile_index, combo);
                    blast.push_row([
                        level_name.to_string(),
                        profile.name.clone(),
                        combo.label(),
                        format!("{:.1}", self.cell(0, profile_index, combo).totals.totals.mean_plt_millis()),
                        format!("{:.1}", cell.totals.totals.mean_plt_millis()),
                        format_percent(self.plt_inflation(level, profile_index, combo)),
                        format_percent(Self::degraded_share(cell)),
                    ]);
                }
            }
        }
        out.push_str(&blast.render());
        out.push('\n');

        let hedged = self.hedged();
        let twin = self.hedged_twin();
        let hedged_sums = &hedged.totals.totals.sums;
        let twin_sums = &twin.totals.totals.sums;
        out.push_str(&format!(
            "hedged dials (no mitigation, hostile × {}): backoff {} -> {} ms | hedged dials {} | \
             handshake KiB {} -> {} | mean PLT {:.1} -> {:.1} ms | degraded pages {} -> {}\n",
            self.profiles[hedged.profile].name,
            format_count(twin_sums.retry_backoff_millis as usize),
            format_count(hedged_sums.retry_backoff_millis as usize),
            format_count(hedged_sums.hedged_dials as usize),
            format_count((twin_sums.handshake_octets / 1024) as usize),
            format_count((hedged_sums.handshake_octets / 1024) as usize),
            twin.totals.totals.mean_plt_millis(),
            hedged.totals.totals.mean_plt_millis(),
            format_count(twin.degraded_pages as usize),
            format_count(hedged.degraded_pages as usize),
        ));
        let (calm_faults, calm_retries) = self.calm_totals();
        out.push_str(&format!(
            "calm control: {} faults injected, {} retries across all {} calm cells — at 0 ppm the \
             fault layer draws nothing and charges nothing\n",
            format_count(calm_faults as usize),
            format_count(calm_retries as usize),
            self.calm_cells().count(),
        ));
        out.push_str(
            "note: every cell replays the identical navigation trace (same pages, same simulated \
             instants); cells differ only in deployment, failure level, link profile and retry \
             policy. Coalesced deployments concentrate pages on fewer connections, so each fault \
             has a larger blast radius; retries and backoff are charged to the virtual clock.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared_report() -> &'static ChaosReport {
        static REPORT: OnceLock<ChaosReport> = OnceLock::new();
        REPORT
            .get_or_init(|| run_chaos(&ChaosConfig { sites: 24, sessions: 8, seed: 20_210_420, threads: 8 }))
    }

    #[test]
    fn chaos_grid_covers_every_cell_in_order() {
        let report = shared_report();
        assert_eq!(report.profiles.len(), 3);
        assert_eq!(report.cells.len(), MitigationSet::COMBINATIONS * 9 + 1);
        let pages = report.cell(0, 0, MitigationSet::empty()).totals.pages();
        assert!(pages > 0);
        for combo in MitigationSet::all_combinations() {
            for level in 0..FAULT_LEVELS.len() {
                for profile in 0..report.profiles.len() {
                    let cell = report.cell(level, profile, combo);
                    assert_eq!(cell.mitigations, combo);
                    assert_eq!(cell.level, level);
                    assert_eq!(cell.profile, profile);
                    assert!(!cell.hedged);
                    // The navigation trace is invariant across the grid.
                    assert_eq!(cell.totals.pages(), pages);
                    assert_eq!(cell.totals.sessions, report.config.sessions as u64);
                }
            }
        }
        assert!(report.hedged().hedged);
        assert_eq!(report.hedged().totals.pages(), pages);
    }

    #[test]
    fn calm_cells_are_fault_free() {
        let report = shared_report();
        let (faults, retries) = report.calm_totals();
        assert_eq!(faults, 0, "0 ppm must draw nothing");
        assert_eq!(retries, 0);
        for combo in MitigationSet::all_combinations() {
            for profile in 0..report.profiles.len() {
                let cell = report.cell(0, profile, combo);
                let sums = &cell.totals.totals.sums;
                assert_eq!(sums.retry_backoff_millis, 0);
                assert_eq!(sums.failed_resources, 0);
                assert_eq!(sums.goaways_received, 0);
                assert_eq!(sums.dead_on_reuse, 0);
                assert_eq!(sums.hedged_dials, 0);
                assert_eq!(cell.degraded_pages, 0);
                assert_eq!(cell.lifecycle.dead_on_reuse, 0);
            }
        }
    }

    #[test]
    fn hostile_cells_inject_faults_and_recover() {
        let report = shared_report();
        let hostile = FAULT_LEVELS.len() - 1;
        let mut degraded_total = 0;
        for combo in MitigationSet::all_combinations() {
            for profile in 0..report.profiles.len() {
                let cell = report.cell(hostile, profile, combo);
                let sums = &cell.totals.totals.sums;
                assert!(sums.faults_injected > 0, "hostile cell {combo} must see faults");
                assert!(sums.retries > 0, "hostile cell {combo} must retry");
                assert!(sums.retry_backoff_millis > 0, "retries must pay backoff");
                degraded_total += cell.degraded_pages;
                // Faults cost wall-clock: the faulted run can never beat its
                // calm twin.
                assert!(report.plt_inflation(hostile, profile, combo) >= 0.0);
            }
        }
        assert!(degraded_total > 0, "5 % per process must exhaust some retry budgets");
    }

    #[test]
    fn degraded_level_sits_between_calm_and_hostile() {
        let report = shared_report();
        let mut calm = 0;
        let mut degraded = 0;
        let mut hostile = 0;
        for combo in MitigationSet::all_combinations() {
            for profile in 0..report.profiles.len() {
                calm += report.cell(0, profile, combo).totals.totals.sums.faults_injected;
                degraded += report.cell(1, profile, combo).totals.totals.sums.faults_injected;
                hostile += report.cell(2, profile, combo).totals.totals.sums.faults_injected;
            }
        }
        assert_eq!(calm, 0);
        assert!(degraded > 0);
        assert!(hostile > degraded, "5 % per process must inject more faults than 1 %");
    }

    #[test]
    fn hedged_dials_trade_backoff_for_handshake_bytes() {
        let report = shared_report();
        let hedged = report.hedged();
        let twin = report.hedged_twin();
        assert!(!twin.hedged);
        assert_eq!(twin.mitigations, hedged.mitigations);
        assert_eq!((twin.level, twin.profile), (hedged.level, hedged.profile));
        let hedged_sums = &hedged.totals.totals.sums;
        let twin_sums = &twin.totals.totals.sums;
        assert!(hedged_sums.hedged_dials > 0, "the hedged cell must dial redundantly");
        assert_eq!(twin_sums.hedged_dials, 0, "the default policy never hedges");
        assert_eq!(hedged_sums.retry_backoff_millis, 0, "hedged dials never back off");
        assert!(twin_sums.retry_backoff_millis > 0);
        assert!(
            hedged_sums.handshake_octets > twin_sums.handshake_octets,
            "redundant dials must cost extra handshake bytes"
        );
    }

    #[test]
    fn chaos_is_thread_invariant() {
        let config = ChaosConfig { sites: 16, sessions: 4, seed: 20_210_420, threads: 1 };
        let (sequential, work) = chaos_grid(&config);
        // One worker builds each of the 4 environments once; the hedged
        // cell rides the unmitigated combination's build.
        assert_eq!(work, GridWork { builds: 4, issued: 4 });
        assert!(sequential.hedged().hedged);
        // Three workers split the 16 tasks into uneven blocks, so steals
        // actually happen.
        for threads in [2, 3, 8] {
            let (sharded, work) = chaos_grid(&ChaosConfig { threads, ..config });
            // Workers that split an environment each build it; no task
            // builds more than once.
            assert_eq!(work.issued, 4, "threads={threads}");
            assert!(
                (4..=MitigationSet::COMBINATIONS).contains(&work.builds),
                "{work:?} at threads={threads}"
            );
            assert_eq!(sequential.cells, sharded.cells, "cells diverged at threads={threads}");
            assert_eq!(sequential.render(), sharded.render(), "render diverged at threads={threads}");
        }
    }

    #[test]
    fn report_renders_every_grid_and_summary() {
        let report = shared_report();
        let text = report.render();
        for profile in &report.profiles {
            assert!(text.contains(&profile.name), "missing profile {}", profile.name);
        }
        for combo in MitigationSet::all_combinations() {
            assert!(text.contains(&combo.label()), "missing {combo}");
        }
        assert!(text.contains("Chaos — degraded"));
        assert!(text.contains("Chaos — hostile"));
        assert!(text.contains("Blast radius"));
        assert!(text.contains("hedged dials"));
        assert!(text.contains("calm control: 0 faults injected, 0 retries"));
    }
}
