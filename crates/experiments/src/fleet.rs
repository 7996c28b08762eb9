//! The fleet: multi-page user sessions over a first-class connection-pool
//! lifecycle.
//!
//! Every other engine in this workspace prices redundancy on *cold*
//! single-page visits — the paper's measurement methodology (caches reset
//! between visits). The fleet prices it where it accrues for real users:
//! across the pages of a browsing session, where a warm
//! [`netsim_browser::ConnectionPool`] (idle timeouts, LRU capacity, server
//! lifetime churn), carried TLS session tickets and a per-session DNS cache
//! amortise setup cost over many navigations.
//!
//! Three families of cells share one deterministic navigation trace:
//!
//! 1. **the cold baseline** — the same sessions driven through the
//!    per-visit path ([`netsim_browser::Browser::load_page_into`]), caches
//!    reset on every page: what the paper's methodology would charge these
//!    users,
//! 2. **the 2^4 mitigation grid** — every mitigation combination, each
//!    session driven through
//!    [`netsim_browser::Browser::load_session_page_into`] with the default
//!    pool policy: how much redundancy tax *remains* per deployment once
//!    cross-page reuse is allowed,
//! 3. **the pool-policy sweep** — pool capacities × idle timeouts on the
//!    unmitigated web: what the browser's own pool knobs buy.
//!
//! ## Sharding and determinism
//!
//! Cells are independent: the 29 of them are the tasks of one
//! [`connreuse_executor::run_indexed`] run, whose results come back in task
//! order whichever worker ran them. The tasks run grouped by deployment —
//! the 14 cells on the unmitigated web first, then the other 15
//! combinations — so a worker builds each population once and serves the
//! cells after it from the same environment; the report keeps the plan
//! order. Within a cell, one session loop
//! (`replay_sessions`, shared with the chaos grid) draws every stochastic
//! choice off the global *session* index (`fork_indexed("fleet-nav",
//! session)` for the navigation trace, `fork_indexed("fleet-visit",
//! session)` for in-visit lifetime draws), never off a worker id — rule 1 of
//! the determinism contract — and the navigation RNG is consumed identically
//! in every cell, so all 29 cells replay the *same pages at the same
//! simulated instants* and differ only in deployment and pool policy.
//! Reports are byte-identical at any `--threads` value (asserted in
//! `tests/determinism.rs`).

use crate::grid::{run_grid, Population};
use crate::render::{format_count, format_percent, TextTable};
use crate::scenario::ScenarioConfig;
use netsim_browser::{Browser, BrowserConfig, PoolConfig, PoolLifecycleStats, UserSession, VisitScratch};
use netsim_cost::SessionTotals;
use netsim_types::{Duration, Instant, MitigationSet, SimClock, SimRng};
use netsim_web::{DeploymentCache, WebEnvironment};

/// Identifier spacing between sessions so connection/request ids never
/// collide across a cell (mirrors the crawler's per-site stride).
const ID_STRIDE: u64 = 1_000_000;

/// Simulated spacing between consecutive session start times.
const SESSION_SPACING_SECS: u64 = 900;

/// Probability that a navigation revisits a page already seen this session.
const REVISIT_PROBABILITY: f64 = 0.4;

/// Pool capacities the policy sweep explores.
const POOL_SIZES: [usize; 4] = [2, 4, 8, 16];

/// Idle timeouts (seconds) the policy sweep explores.
const IDLE_TIMEOUT_SECS: [u64; 3] = [10, 60, 300];

/// Sizing and seeding of one fleet run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetConfig {
    /// Sites per cell population (Alexa-shaped, shared navigation universe).
    pub sites: usize,
    /// User sessions per cell (each 2–7 pages).
    pub sessions: usize,
    /// Root seed; cells share it so that only deployment and policy differ.
    pub seed: u64,
    /// Worker threads the cells are sharded across.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig::from_scenario(&ScenarioConfig::default())
    }
}

impl FleetConfig {
    /// A small configuration for tests, golden snapshots and the CI smoke
    /// run.
    pub fn quick() -> Self {
        FleetConfig { sites: 60, sessions: 40, ..FleetConfig::default() }
    }

    /// The fleet matching a scenario: the Alexa population size and seed,
    /// with one session per five sites so runtime stays comparable to the
    /// cost sweep's.
    pub fn from_scenario(config: &ScenarioConfig) -> Self {
        FleetConfig {
            sites: config.alexa_sites,
            sessions: (config.alexa_sites / 5).max(1),
            seed: config.seed,
            threads: config.threads,
        }
    }
}

/// One cell of the fleet grid: a mitigation deployment driven either cold
/// (`pool: None`) or through warm sessions under one pool policy.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetCell {
    /// The deployed mitigation combination.
    pub mitigations: MitigationSet,
    /// The session pool policy, or `None` for the cold per-visit baseline.
    pub pool: Option<PoolConfig>,
    /// Cross-page cost aggregate over every session of the cell.
    pub totals: SessionTotals,
    /// Pool lifecycle counters (all zero for the cold baseline).
    pub lifecycle: PoolLifecycleStats,
}

/// The completed fleet run: cold baseline + warm mitigation grid + pool
/// policy sweep, all over the same navigation trace.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    /// The configuration the fleet ran with.
    pub config: FleetConfig,
    /// Cells in fixed plan order: cold, then the 16 warm mitigation
    /// combinations, then the pool-policy sweep.
    pub cells: Vec<FleetCell>,
}

/// The deterministic cell layout: index 0 is the cold baseline, `1 + bits`
/// the warm mitigation cells, and the tail the pool-policy sweep
/// (capacity-major).
fn cell_plans() -> Vec<(MitigationSet, Option<PoolConfig>)> {
    let mut plans = vec![(MitigationSet::empty(), None)];
    for combo in MitigationSet::all_combinations() {
        plans.push((combo, Some(PoolConfig::default())));
    }
    for size in POOL_SIZES {
        for secs in IDLE_TIMEOUT_SECS {
            plans.push((
                MitigationSet::empty(),
                Some(PoolConfig { max_connections: size, idle_timeout: Duration::from_secs(secs) }),
            ));
        }
    }
    plans
}

/// Run the fleet: every cell replays the same session trace, scheduled
/// across `config.threads` workers.
pub fn run_fleet(config: &FleetConfig) -> FleetReport {
    fleet_grid(config).0
}

/// [`run_fleet`], with the number of populations its workers built.
fn fleet_grid(config: &FleetConfig) -> (FleetReport, usize) {
    let plans = cell_plans();
    // Task order groups the cells by deployment (a stable sort keeps plan
    // order within each); `order[task]` is the plan index a task measures.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&plan| plans[plan].0.bits());
    let deployments = DeploymentCache::standard();
    let outcome = run_grid(config.threads, plans.len(), |worker, task| {
        let (mitigations, pool) = plans[order[task]];
        let population = Population::alexa(config.sites, config.seed, mitigations);
        worker.with_population(population, &deployments, |worker, env| {
            let browser_config = BrowserConfig::with_mitigations(mitigations);
            let (totals, lifecycle, _) = replay_sessions(
                worker.scratch(),
                &FLEET_STREAMS,
                config.seed,
                config.sessions,
                env,
                &browser_config,
                pool,
            );
            FleetCell { mitigations, pool, totals, lifecycle }
        })
    });
    let mut cells: Vec<(usize, FleetCell)> = order.into_iter().zip(outcome.results).collect();
    cells.sort_by_key(|&(plan, _)| plan);
    let cells = cells.into_iter().map(|(_, cell)| cell).collect();
    (FleetReport { config: *config, cells }, outcome.builds)
}

/// Pick the next page of a session: revisit a page already seen with
/// probability [`REVISIT_PROBABILITY`], otherwise navigate somewhere new.
/// Consumes the same RNG draws in every cell (the trace is cell-invariant).
fn choose_site(rng: &mut SimRng, visited: &[usize], sites: usize) -> usize {
    if !visited.is_empty() && rng.chance(REVISIT_PROBABILITY) {
        *rng.pick(visited).expect("visited is non-empty")
    } else {
        rng.in_range(0..sites)
    }
}

/// The seed offset and RNG labels that set one session grid's trace apart
/// from another's.
pub(crate) struct SessionStreams {
    /// Added to the root seed (population uses
    /// [`crate::scenario::ALEXA_POPULATION_SEED_OFFSET`]; crawl offsets stay
    /// clear of every grid's).
    pub(crate) seed_offset: u64,
    /// Label of the per-session navigation stream (sites, page counts,
    /// dwells).
    pub(crate) nav: &'static str,
    /// Label of the per-session visit stream (in-visit lifetime and fault
    /// draws, forked per page).
    pub(crate) visit: &'static str,
}

/// The fleet's session streams.
const FLEET_STREAMS: SessionStreams =
    SessionStreams { seed_offset: 40, nav: "fleet-nav", visit: "fleet-visit" };

/// Replay `sessions` multi-page sessions over `env` under `browser_config`
/// on the grid worker's `scratch`: warm through one [`UserSession`] when
/// `pool` is set, cold through the per-visit path when it is `None`. The
/// session loop of both the fleet and the chaos grid.
///
/// The navigation trace (sites, page counts, dwells, simulated instants)
/// forks off the global session index and is identical in every cell that
/// shares `streams` and `seed`; only deployment, pool and fault consequences
/// differ. Returns the cross-page totals, the pool lifecycle (all zero when
/// cold) and the pages that ended degraded.
pub(crate) fn replay_sessions(
    scratch: &mut VisitScratch,
    streams: &SessionStreams,
    seed: u64,
    sessions: usize,
    env: &WebEnvironment,
    browser_config: &BrowserConfig,
    pool: Option<PoolConfig>,
) -> (SessionTotals, PoolLifecycleStats, u64) {
    let mut totals = SessionTotals::new();
    let mut session_state = pool.map(UserSession::new);
    let mut visited: Vec<usize> = Vec::new();
    let mut degraded_pages = 0u64;
    let root = SimRng::new(seed + streams.seed_offset);

    for session_index in 0..sessions as u64 {
        let mut nav_rng = root.fork_indexed(streams.nav, session_index);
        let visit_streams = root.fork_indexed(streams.visit, session_index);
        let mut clock =
            SimClock::starting_at(Instant::EPOCH + Duration::from_secs(SESSION_SPACING_SECS * session_index));
        let mut browser = Browser::with_id_base(browser_config.clone(), session_index * ID_STRIDE);
        visited.clear();

        let pages = nav_rng.in_range(2..=7usize);
        for page in 0..pages as u64 {
            let site_index = choose_site(&mut nav_rng, &visited, env.sites.len());
            visited.push(site_index);
            let mut page_rng = visit_streams.fork_indexed("page", page);
            let site = &env.sites[site_index];
            match session_state.as_mut() {
                Some(session) => {
                    browser.load_session_page_into(scratch, session, env, site, &mut clock, &mut page_rng);
                }
                None => {
                    browser.load_page_into(scratch, env, site, &mut clock, &mut page_rng);
                }
            }
            totals.absorb_page(scratch.timeline());
            if !scratch.outcome().is_complete() {
                degraded_pages += 1;
            }
            // Dwell before the next navigation (drawn even after the last
            // page so the trace stays cell-invariant).
            let dwell = nav_rng.in_range(5..=120u64);
            clock.advance(Duration::from_secs(dwell));
        }
        if let Some(session) = session_state.as_mut() {
            session.end(scratch, clock.now());
        }
        totals.end_session();
    }

    let lifecycle = session_state.as_mut().map(UserSession::take_stats).unwrap_or_default();
    (totals, lifecycle, degraded_pages)
}

impl FleetReport {
    /// The cold per-visit baseline (no pool, no mitigation).
    pub fn cold_baseline(&self) -> &FleetCell {
        &self.cells[0]
    }

    /// The warm cell measuring `mitigations` under the default pool policy.
    pub fn warm(&self, mitigations: MitigationSet) -> &FleetCell {
        &self.cells[1 + mitigations.bits() as usize]
    }

    /// The pool-policy cells (capacity-major), after the mitigation grid.
    pub fn policy_cells(&self) -> &[FleetCell] {
        &self.cells[1 + MitigationSet::COMBINATIONS..]
    }

    /// Connections the warm pool saves vs. the cold baseline on the
    /// unmitigated web.
    pub fn opens_saved(&self) -> u64 {
        self.cold_baseline()
            .totals
            .totals
            .sums
            .connections_opened
            .saturating_sub(self.warm(MitigationSet::empty()).totals.totals.sums.connections_opened)
    }

    /// Share of the cold baseline's opens the warm pool removes.
    pub fn opens_saved_share(&self) -> f64 {
        let cold = self.cold_baseline().totals.totals.sums.connections_opened;
        if cold == 0 {
            return 0.0;
        }
        self.opens_saved() as f64 / cold as f64
    }

    /// Render the report: the warm mitigation grid, the pool-policy sweep
    /// and the warm-vs-cold redundancy-tax summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let cold = self.cold_baseline();

        let mut grid = TextTable::new(
            &format!(
                "Fleet — warm sessions per deployment (default pool {} conns / {} s idle; {} sessions, {} pages, {} sites, seed {})",
                PoolConfig::default().max_connections,
                PoolConfig::default().idle_timeout.as_millis() / 1000,
                format_count(self.config.sessions),
                format_count(cold.totals.pages() as usize),
                format_count(self.config.sites),
                self.config.seed
            ),
            &[
                "deployment",
                "conns.",
                "opens/session",
                "resumed hs",
                "pool lent",
                "hs RTTs",
                "cwnd RTTs",
                "DNS walks",
                "mean PLT ms",
            ],
        );
        for combo in MitigationSet::all_combinations() {
            let cell = self.warm(combo);
            let sums = &cell.totals.totals.sums;
            grid.push_row([
                combo.label(),
                format_count(sums.connections_opened as usize),
                format!("{:.1}", cell.totals.mean_opens_per_session()),
                format_count(sums.resumed_handshakes as usize),
                format_count(cell.lifecycle.lent as usize),
                format_count(sums.handshake_rtts as usize),
                format_count(sums.cold_cwnd_rtts as usize),
                format_count(sums.dns_recursive_walks as usize),
                format!("{:.1}", cell.totals.totals.mean_plt_millis()),
            ]);
        }
        out.push_str(&grid.render());
        out.push('\n');

        let mut policy = TextTable::new(
            "Pool policy sweep — capacities × idle timeouts on the unmitigated web",
            &[
                "pool policy",
                "conns.",
                "pool lent",
                "idle-expired",
                "cap-evicted",
                "churned",
                "session-end",
                "mean PLT ms",
            ],
        );
        for cell in self.policy_cells() {
            let pool = cell.pool.expect("policy cells have a pool");
            policy.push_row([
                format!(
                    "{:>2} conns / {:>3} s idle",
                    pool.max_connections,
                    pool.idle_timeout.as_millis() / 1000
                ),
                format_count(cell.totals.totals.sums.connections_opened as usize),
                format_count(cell.lifecycle.lent as usize),
                format_count(cell.lifecycle.idle_expired as usize),
                format_count(cell.lifecycle.capacity_evicted as usize),
                format_count(cell.lifecycle.lifetime_churned as usize),
                format_count(cell.lifecycle.session_closed as usize),
                format!("{:.1}", cell.totals.totals.mean_plt_millis()),
            ]);
        }
        out.push_str(&policy.render());
        out.push('\n');

        let warm = self.warm(MitigationSet::empty());
        let warm_sums = &warm.totals.totals.sums;
        let cold_sums = &cold.totals.totals.sums;
        out.push_str(&format!(
            "warm vs cold (no mitigation, default pool): opens {} -> {} ({} saved) | \
             resumed handshakes {} of warm opens | mean PLT {:.1} -> {:.1} ms | \
             {:.1} pages/session over {} sessions\n",
            format_count(cold_sums.connections_opened as usize),
            format_count(warm_sums.connections_opened as usize),
            format_percent(self.opens_saved_share()),
            format_percent(if warm_sums.connections_opened == 0 {
                0.0
            } else {
                warm_sums.resumed_handshakes as f64 / warm_sums.connections_opened as f64
            }),
            cold.totals.totals.mean_plt_millis(),
            warm.totals.totals.mean_plt_millis(),
            cold.totals.mean_pages_per_session(),
            format_count(cold.totals.sessions as usize),
        ));
        out.push_str(
            "note: every cell replays the identical navigation trace (same pages, same simulated \
             instants); cells differ only in deployment and pool policy. The cold baseline resets \
             all caches per page — the paper's single-visit methodology applied to session traffic.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared_report() -> &'static FleetReport {
        static REPORT: OnceLock<FleetReport> = OnceLock::new();
        REPORT
            .get_or_init(|| run_fleet(&FleetConfig { sites: 30, sessions: 12, seed: 20_210_420, threads: 8 }))
    }

    #[test]
    fn fleet_grid_covers_every_cell_in_order() {
        let report = shared_report();
        assert_eq!(
            report.cells.len(),
            1 + MitigationSet::COMBINATIONS + POOL_SIZES.len() * IDLE_TIMEOUT_SECS.len()
        );
        assert_eq!(report.cold_baseline().pool, None);
        for combo in MitigationSet::all_combinations() {
            let cell = report.warm(combo);
            assert_eq!(cell.mitigations, combo);
            assert_eq!(cell.pool, Some(PoolConfig::default()));
            // Every cell replays the same navigation trace.
            assert_eq!(cell.totals.pages(), report.cold_baseline().totals.pages());
            assert_eq!(cell.totals.sessions, report.config.sessions as u64);
        }
        for cell in report.policy_cells() {
            assert_eq!(cell.mitigations, MitigationSet::empty());
            assert!(cell.pool.is_some());
            assert_eq!(cell.totals.pages(), report.cold_baseline().totals.pages());
        }
    }

    #[test]
    fn warm_sessions_open_fewer_connections_and_resume() {
        let report = shared_report();
        let cold = report.cold_baseline();
        let warm = report.warm(MitigationSet::empty());
        assert!(
            warm.totals.totals.sums.connections_opened < cold.totals.totals.sums.connections_opened,
            "a warm pool must remove cross-page re-opens"
        );
        assert!(warm.totals.totals.sums.resumed_handshakes > 0, "revisits must resume TLS sessions");
        assert_eq!(cold.totals.totals.sums.resumed_handshakes, 0, "cold visits never resume");
        assert_eq!(cold.lifecycle, PoolLifecycleStats::default(), "the cold path has no pool");
        assert!(warm.lifecycle.lent > 0);
        assert!(report.opens_saved() > 0);
        assert!(report.opens_saved_share() > 0.0);
    }

    #[test]
    fn pool_policy_extremes_order_as_expected() {
        let report = shared_report();
        let policies = report.policy_cells();
        // Capacity-major layout: first cell is the tightest policy
        // (2 conns / 10 s), last is the roomiest (16 conns / 300 s).
        let tight = &policies[0];
        let roomy = &policies[policies.len() - 1];
        assert_eq!(tight.pool.unwrap().max_connections, 2);
        assert_eq!(roomy.pool.unwrap().max_connections, 16);
        assert!(
            roomy.totals.totals.sums.connections_opened < tight.totals.totals.sums.connections_opened,
            "a roomy patient pool must keep more connections warm than a tiny impatient one"
        );
        for cell in policies {
            let pool = cell.pool.unwrap();
            // An impatient pool (10 s idle vs. 5–120 s dwell) mostly expires
            // between pages; patient policies must actually lend.
            if pool.idle_timeout >= Duration::from_secs(60) {
                assert!(cell.lifecycle.lent > 0, "a patient pool must lend connections: {pool:?}");
            } else {
                assert!(cell.lifecycle.idle_expired > 0, "an impatient pool must expire idle entries");
            }
            let stats = &cell.lifecycle;
            assert!(
                stats.closed() <= stats.inserted,
                "a pool can only close connections it once inserted: {stats:?}"
            );
        }
    }

    #[test]
    fn fleet_is_thread_invariant() {
        let config = FleetConfig { sites: 20, sessions: 6, seed: 20_210_420, threads: 1 };
        let sequential = run_fleet(&config);
        let sharded = run_fleet(&FleetConfig { threads: 5, ..config });
        assert_eq!(sequential.cells, sharded.cells);
        assert_eq!(sequential.render(), sharded.render());
    }

    #[test]
    fn fleet_builds_each_deployment_once_per_worker() {
        let config = FleetConfig { sites: 20, sessions: 4, seed: 20_210_420, threads: 1 };
        // One worker builds the unmitigated web once for its 14 cells, then
        // each other combination once.
        let (serial, builds) = fleet_grid(&config);
        assert_eq!(builds, MitigationSet::COMBINATIONS);
        // Two workers split the task list after the 14 unmitigated cells
        // and the first other combination; at most one more build happens,
        // when the second worker steals unmitigated cells.
        let (sharded, builds) = fleet_grid(&FleetConfig { threads: 2, ..config });
        assert!(
            (MitigationSet::COMBINATIONS..=MitigationSet::COMBINATIONS + 1).contains(&builds),
            "{builds}"
        );
        assert_eq!(serial.cells, sharded.cells);
    }

    #[test]
    fn report_renders_every_cell_family() {
        let report = shared_report();
        let text = report.render();
        for combo in MitigationSet::all_combinations() {
            assert!(text.contains(&combo.label()), "missing {combo}");
        }
        assert!(text.contains("Pool policy sweep"));
        assert!(text.contains("warm vs cold"));
        assert!(text.contains("16 conns / 300 s idle"));
    }
}
