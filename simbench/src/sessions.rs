//! `sessions`: warm user sessions (`run_fleet` + `run_chaos`), and their
//! traced replicas.
//!
//! The replicas mirror the fleet and chaos cell loops from public calls,
//! including their private seed offsets, id stride, session spacing and
//! navigation model. The replica checks compare every replayed cell with the
//! real one, so a drift in any mirrored constant fails the traced run.

use crate::report::{digest, Measured, Op, Outputs, Traced};
use crate::spans::{ratio, secs, Busy, SpanLog};
use crate::{stage_layers, take_stage_table};
use connreuse_experiments::chaos::FAULT_LEVELS;
use connreuse_experiments::scenario::ALEXA_POPULATION_SEED_OFFSET;
use connreuse_experiments::{
    run_chaos, run_fleet, ChaosCell, ChaosConfig, ChaosReport, FleetCell, FleetConfig, FleetReport,
};
use netsim_browser::{
    Browser, BrowserConfig, FaultProfile, PoolConfig, PoolLifecycleStats, RetryPolicy, UserSession,
    VisitScratch,
};
use netsim_cost::{LinkProfile, SessionTotals, VisitTimeline};
use netsim_types::{Duration, Instant as SimInstant, MitigationSet, SimClock, SimRng};
use netsim_web::{PopulationBuilder, PopulationProfile, WebEnvironment};
use std::time::Instant;

const FLEET_SESSION_SEED_OFFSET: u64 = 40;
const CHAOS_SESSION_SEED_OFFSET: u64 = 50;
const ID_STRIDE: u64 = 1_000_000;
const SESSION_SPACING_SECS: u64 = 900;
const REVISIT_PROBABILITY: f64 = 0.4;
const POOL_SIZES: [usize; 4] = [2, 4, 8, 16];
const IDLE_TIMEOUT_SECS: [u64; 3] = [10, 60, 300];

/// Operation ids of the traced spans: fleet cells first, then chaos combos,
/// then the hedged chaos cell.
const CHAOS_OP_BASE: usize = 1_000;

fn outputs(fleet: &FleetReport, chaos: &ChaosReport) -> Outputs {
    let cells = || {
        fleet
            .cells
            .iter()
            .map(|cell| (&cell.totals, &cell.lifecycle))
            .chain(chaos.cells.iter().map(|cell| (&cell.totals, &cell.lifecycle)))
    };
    let mut sums = VisitTimeline::default();
    let mut lent = 0;
    for (totals, lifecycle) in cells() {
        sums.absorb(&totals.totals.sums);
        lent += lifecycle.lent;
    }
    let ops: Vec<Op> = fleet
        .cells
        .iter()
        .map(|cell| Op::Done(digest(&format!("{cell:?}"))))
        .chain(chaos.cells.iter().map(|cell| Op::Done(digest(&format!("{cell:?}")))))
        .collect();
    Outputs {
        reports: vec![digest(&fleet.render()), digest(&chaos.render())],
        op_count: ops.len(),
        ops,
        stats: vec![
            ("pages", pages(fleet, chaos)),
            ("connections", sums.connections_opened),
            ("requests", sums.requests),
            ("dns_walks", sums.dns_recursive_walks),
            ("handshake_rtts", sums.handshake_rtts),
            ("pool_lends", lent),
            ("faults", sums.faults_injected),
            ("retries", sums.retries),
        ],
    }
}

/// Session pages over every cell of both grids.
fn pages(fleet: &FleetReport, chaos: &ChaosReport) -> u64 {
    fleet
        .cells
        .iter()
        .map(|cell| cell.totals.pages())
        .chain(chaos.cells.iter().map(|cell| cell.totals.pages()))
        .sum()
}

/// Set-up: the navigation population every cell replays.
pub fn setup(fleet: &FleetConfig) {
    std::hint::black_box(
        PopulationBuilder::new(
            PopulationProfile::alexa(),
            fleet.sites,
            fleet.seed + ALEXA_POPULATION_SEED_OFFSET,
        )
        .build(),
    );
}

/// One measured run of the real program.
pub fn run(fleet_config: &FleetConfig, chaos_config: &ChaosConfig) -> Measured {
    let started = Instant::now();
    let fleet = run_fleet(fleet_config);
    let chaos = run_chaos(chaos_config);
    let wall = started.elapsed();
    Measured {
        outputs: outputs(&fleet, &chaos),
        wall_s: wall.as_secs_f64(),
        units: pages(&fleet, &chaos),
        op_ms: vec![wall.as_secs_f64() * 1e3],
    }
}

fn choose_site(rng: &mut SimRng, visited: &[usize], sites: usize) -> usize {
    if !visited.is_empty() && rng.chance(REVISIT_PROBABILITY) {
        *rng.pick(visited).expect("visited is non-empty")
    } else {
        rng.in_range(0..sites)
    }
}

fn fleet_plans() -> Vec<(MitigationSet, Option<PoolConfig>)> {
    let mut plans = vec![(MitigationSet::empty(), None)];
    plans.extend(
        MitigationSet::all_combinations().into_iter().map(|combo| (combo, Some(PoolConfig::default()))),
    );
    for max_connections in POOL_SIZES {
        for secs in IDLE_TIMEOUT_SECS {
            plans.push((
                MitigationSet::empty(),
                Some(PoolConfig { max_connections, idle_timeout: Duration::from_secs(secs) }),
            ));
        }
    }
    plans
}

fn alexa_population(
    sites: usize,
    seed: u64,
    mitigations: MitigationSet,
    spans: &mut SpanLog,
) -> WebEnvironment {
    spans.time("web.build", || {
        PopulationBuilder::new(PopulationProfile::alexa(), sites, seed + ALEXA_POPULATION_SEED_OFFSET)
            .with_mitigations(mitigations)
            .build()
    })
}

/// The session loop both grids share, parameterised by their RNG labels.
struct SessionLoop<'a> {
    sites: usize,
    sessions: usize,
    seed: u64,
    nav_label: &'static str,
    visit_label: &'static str,
    env: &'a WebEnvironment,
}

impl SessionLoop<'_> {
    /// Replay every session; `pool: None` drives the cold per-visit path.
    fn replay(
        &self,
        browser_config: &BrowserConfig,
        pool: Option<PoolConfig>,
        spans: &mut SpanLog,
    ) -> (SessionTotals, PoolLifecycleStats, u64) {
        let mut scratch = VisitScratch::without_netlog();
        let mut totals = SessionTotals::new();
        let mut session = pool.map(UserSession::new);
        let mut visited = Vec::new();
        let mut degraded_pages = 0;
        for session_index in 0..self.sessions as u64 {
            let mut nav_rng = SimRng::new(self.seed).fork_indexed(self.nav_label, session_index);
            let visit_streams = SimRng::new(self.seed).fork_indexed(self.visit_label, session_index);
            let mut clock = SimClock::starting_at(
                SimInstant::EPOCH + Duration::from_secs(SESSION_SPACING_SECS * session_index),
            );
            let mut browser = Browser::with_id_base(browser_config.clone(), session_index * ID_STRIDE);
            visited.clear();
            let pages = nav_rng.in_range(2..=7usize);
            for page in 0..pages as u64 {
                let site_index = choose_site(&mut nav_rng, &visited, self.sites);
                visited.push(site_index);
                let mut page_rng = visit_streams.fork_indexed("page", page);
                let site = &self.env.sites[site_index];
                match session.as_mut() {
                    Some(session) => spans.time("browser.session_page", || {
                        browser.load_session_page_into(
                            &mut scratch,
                            session,
                            self.env,
                            site,
                            &mut clock,
                            &mut page_rng,
                        )
                    }),
                    None => spans.time("browser.cold_page", || {
                        browser.load_page_into(&mut scratch, self.env, site, &mut clock, &mut page_rng)
                    }),
                };
                spans.time("cost.absorb", || totals.absorb_page(scratch.timeline()));
                if !scratch.outcome().is_complete() {
                    degraded_pages += 1;
                }
                clock.advance(Duration::from_secs(nav_rng.in_range(5..=120u64)));
            }
            if let Some(session) = session.as_mut() {
                spans.time("browser.session_end", || session.end(&mut scratch, clock.now()));
            }
            totals.end_session();
        }
        let lifecycle = session.as_mut().map(UserSession::take_stats).unwrap_or_default();
        (totals, lifecycle, degraded_pages)
    }
}

fn fleet_cell(
    config: &FleetConfig,
    mitigations: MitigationSet,
    pool: Option<PoolConfig>,
    spans: &mut SpanLog,
) -> FleetCell {
    let envelope = spans.open("sessions.cell");
    let env = alexa_population(config.sites, config.seed, mitigations, spans);
    let sessions = SessionLoop {
        sites: config.sites,
        sessions: config.sessions,
        seed: config.seed + FLEET_SESSION_SEED_OFFSET,
        nav_label: "fleet-nav",
        visit_label: "fleet-visit",
        env: &env,
    };
    let (totals, lifecycle, _) = sessions.replay(&BrowserConfig::with_mitigations(mitigations), pool, spans);
    spans.close(envelope);
    FleetCell { mitigations, pool, totals, lifecycle }
}

fn chaos_sessions<'a>(config: &ChaosConfig, env: &'a WebEnvironment) -> SessionLoop<'a> {
    SessionLoop {
        sites: config.sites,
        sessions: config.sessions,
        seed: config.seed + CHAOS_SESSION_SEED_OFFSET,
        nav_label: "chaos-nav",
        visit_label: "chaos-visit",
        env,
    }
}

fn chaos_combo(
    config: &ChaosConfig,
    mitigations: MitigationSet,
    profiles: &[LinkProfile],
    spans: &mut SpanLog,
) -> Vec<ChaosCell> {
    let envelope = spans.open("sessions.combo");
    let env = alexa_population(config.sites, config.seed, mitigations, spans);
    let sessions = chaos_sessions(config, &env);
    let mut cells = Vec::with_capacity(FAULT_LEVELS.len() * profiles.len());
    for (level, (_, ppm)) in FAULT_LEVELS.iter().enumerate() {
        for (profile, link) in profiles.iter().enumerate() {
            let cell = spans.open("sessions.cell");
            let browser_config = BrowserConfig {
                faults: FaultProfile::uniform(*ppm),
                ..BrowserConfig::with_mitigations(mitigations).over_link(link)
            };
            let (totals, lifecycle, degraded_pages) =
                sessions.replay(&browser_config, Some(PoolConfig::default()), spans);
            spans.close(cell);
            cells.push(ChaosCell {
                mitigations,
                level,
                profile,
                hedged: false,
                totals,
                lifecycle,
                degraded_pages,
            });
        }
    }
    spans.close(envelope);
    cells
}

fn chaos_hedged(config: &ChaosConfig, profiles: &[LinkProfile], spans: &mut SpanLog) -> ChaosCell {
    let envelope = spans.open("sessions.cell");
    let env = alexa_population(config.sites, config.seed, MitigationSet::empty(), spans);
    let level = FAULT_LEVELS.len() - 1;
    let profile = profiles.len() - 1;
    let browser_config = BrowserConfig {
        faults: FaultProfile::uniform(FAULT_LEVELS[level].1),
        retry: RetryPolicy { hedged_dials: true, ..RetryPolicy::default() },
        ..BrowserConfig::with_mitigations(MitigationSet::empty()).over_link(&profiles[profile])
    };
    let (totals, lifecycle, degraded_pages) =
        chaos_sessions(config, &env).replay(&browser_config, Some(PoolConfig::default()), spans);
    spans.close(envelope);
    ChaosCell {
        mitigations: MitigationSet::empty(),
        level,
        profile,
        hedged: true,
        totals,
        lifecycle,
        degraded_pages,
    }
}

/// Run `items` in the contiguous blocks `run_fleet`/`run_chaos` shard them
/// into, one scoped thread per block, recording each block's busy time.
fn contiguous_blocks<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    op_base: usize,
    busy: &mut Busy,
    spans: &mut SpanLog,
    run: impl Fn(&T, &mut SpanLog) -> Vec<R> + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len());
    let block = items.len().div_ceil(workers);
    let started = Instant::now();
    let blocks: Vec<(Vec<R>, SpanLog, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(block)
            .enumerate()
            .map(|(worker, shard)| {
                let run = &run;
                scope.spawn(move || {
                    let mut log = SpanLog::new(worker);
                    let worker_started = Instant::now();
                    let mut results = Vec::new();
                    for (offset, item) in shard.iter().enumerate() {
                        log.set_op(op_base + worker * block + offset);
                        results.extend(run(item, &mut log));
                    }
                    netsim_types::profile::flush_local();
                    (results, log, worker_started.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("a replay worker panicked")).collect()
    });
    let wall = started.elapsed().as_nanos() as u64;
    let mut per_worker = Vec::new();
    let mut results = Vec::new();
    for (block_results, log, nanos) in blocks {
        results.extend(block_results);
        spans.absorb(log);
        per_worker.push(nanos);
    }
    busy.region(&per_worker, wall);
    results
}

/// The traced replicas of `run_fleet` and `run_chaos`, checked cell by cell
/// against the real reports.
pub fn trace(fleet_config: &FleetConfig, chaos_config: &ChaosConfig, spans_out: &std::path::Path) -> Traced {
    take_stage_table();
    let started = Instant::now();
    let mut spans = SpanLog::caller();
    let mut busy = Busy::default();
    let fleet_cells = contiguous_blocks(
        fleet_config.threads,
        &fleet_plans(),
        0,
        &mut busy,
        &mut spans,
        |&(mitigations, pool), log| vec![fleet_cell(fleet_config, mitigations, pool, log)],
    );
    let profiles = LinkProfile::presets();
    let mut chaos_cells = contiguous_blocks(
        chaos_config.threads,
        &MitigationSet::all_combinations(),
        CHAOS_OP_BASE,
        &mut busy,
        &mut spans,
        |&combo, log| chaos_combo(chaos_config, combo, &profiles, log),
    );
    spans.set_op(CHAOS_OP_BASE + MitigationSet::COMBINATIONS);
    chaos_cells.push(chaos_hedged(chaos_config, &profiles, &mut spans));
    let wall_s = started.elapsed().as_secs_f64();
    let stages = take_stage_table();

    let fleet = run_fleet(fleet_config);
    let chaos = run_chaos(chaos_config);
    let mut replicas: Vec<(String, bool)> = Vec::new();
    let fleet_equal = fleet_cells.len() == fleet.cells.len();
    replicas.push(("fleet: replayed cell count == run_fleet".to_string(), fleet_equal));
    for (index, (replayed, real)) in fleet_cells.iter().zip(&fleet.cells).enumerate() {
        replicas.push((format!("fleet cell {index} == FleetCell"), replayed == real));
    }
    replicas.push((
        "chaos: replayed cell count == run_chaos".to_string(),
        chaos_cells.len() == chaos.cells.len(),
    ));
    for (index, (replayed, real)) in chaos_cells.iter().zip(&chaos.cells).enumerate() {
        replicas.push((format!("chaos cell {index} == ChaosCell"), replayed == real));
    }

    let mut sums = VisitTimeline::default();
    let mut pool = PoolLifecycleStats::default();
    let (mut hostile_faults, mut hostile_retries) = (0, 0);
    for cell in &fleet.cells {
        sums.absorb(&cell.totals.totals.sums);
        pool.merge(&cell.lifecycle);
    }
    for cell in &chaos.cells {
        sums.absorb(&cell.totals.totals.sums);
        pool.merge(&cell.lifecycle);
        if cell.level == FAULT_LEVELS.len() - 1 {
            hostile_faults += cell.totals.totals.sums.faults_injected;
            hostile_retries += cell.totals.totals.sums.retries;
        }
    }
    // Warm cells only: the cold baseline has no pool to lend from.
    let warm_dials = sums.connections_opened - fleet.cells[0].totals.totals.sums.connections_opened;
    let self_nanos = spans.self_nanos();
    let layer = |name: &str| secs(self_nanos.get(name).copied().unwrap_or(0));
    let mut layers = vec![
        ("web.build_s", layer("web.build")),
        ("browser.session_page_s", layer("browser.session_page")),
        ("browser.pool_hit_ratio", ratio(pool.lent as f64, (pool.lent + warm_dials) as f64)),
        ("browser.pool_evicted", pool.capacity_evicted as f64),
        ("browser.pool_idle_expired", pool.idle_expired as f64),
        ("browser.retries_per_fault", ratio(hostile_retries as f64, hostile_faults as f64)),
        ("executor.busy_ratio", busy.busy_ratio()),
        ("executor.imbalance", busy.imbalance()),
        ("executor.steals", 0.0),
        ("trace.coverage", spans.coverage()),
    ];
    layers.extend(stage_layers(&stages, &sums));
    if let Err(error) = spans.write_tsv(spans_out) {
        eprintln!("simbench: could not write {}: {error}", spans_out.display());
    }
    Traced { outputs: outputs(&fleet, &chaos), wall_s, replicas, layers }
}
