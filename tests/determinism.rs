//! Workspace smoke test: the whole pipeline — population generation, crawl,
//! classification — must be a pure function of the seed. This guards the
//! `SimRng` / `SimClock` substrate every experiment depends on: if any
//! subsystem starts consuming ambient entropy (hash-map iteration order,
//! wall-clock time, thread interleavings), this test catches it.

use connreuse::experiments::{
    run_atlas, run_cost, run_experiment, run_fleet, run_store, AtlasConfig, CostConfig, FleetConfig,
    Scenario, ScenarioConfig, StoreConfig,
};
use connreuse::prelude::*;
use connreuse::quick_analysis;

#[test]
fn quick_analysis_is_deterministic_across_runs() {
    let first = quick_analysis(PopulationProfile::alexa(), 30, 11);
    let second = quick_analysis(PopulationProfile::alexa(), 30, 11);
    assert_eq!(first, second, "same profile + seed must reproduce the identical summary");
}

#[test]
fn quick_analysis_depends_on_the_seed() {
    let a = quick_analysis(PopulationProfile::alexa(), 30, 11);
    let b = quick_analysis(PopulationProfile::alexa(), 30, 12);
    assert_ne!(a, b, "different seeds should explore different populations");
}

#[test]
fn deterministic_across_profiles() {
    for profile in [PopulationProfile::alexa(), PopulationProfile::archive()] {
        let first = quick_analysis(profile.clone(), 20, 7);
        let second = quick_analysis(profile, 20, 7);
        assert_eq!(first, second);
    }
}

/// Every table experiment renders byte-identical text with one worker
/// thread and with two, three or eight, and under two more chunk layouts:
/// one site per chunk, which puts the sites of every CERT domain (Table
/// 4's third-party rows span sites) in different chunks, and one chunk per
/// population. The executor shards the work, never the RNG
/// streams (which are forked per site, not per thread), and chunk folds
/// merge in task order, keeping a CERT domain's first-seen issuer.
#[test]
fn scenario_datasets_are_thread_count_invariant() {
    let config = ScenarioConfig {
        archive_sites: 60,
        alexa_sites: 40,
        overlap_sites: 24,
        seed: 20_210_420,
        threads: 1,
    };
    let tables = [
        "headline", "figure2", "figure3", "table1", "table2", "table3", "table4", "table5", "table6",
        "table7", "table8", "table9", "table10", "table11", "table12", "filters", "whatif",
    ];
    let render = |scenario: Scenario| -> Vec<String> {
        tables.iter().map(|name| run_experiment(name, &scenario).expect("table experiment").text).collect()
    };
    let sequential = render(Scenario::new(config));
    // (threads, sites per chunk); 250 is the fixed chunk size.
    for (threads, chunk_sites) in [(2, 250), (3, 250), (8, 250), (3, 1), (3, 60)] {
        let scenario = Scenario::with_chunk_sites(ScenarioConfig { threads, ..config }, chunk_sites);
        for (name, (expected, actual)) in tables.iter().zip(sequential.iter().zip(render(scenario))) {
            assert_eq!(expected, &actual, "{name}, threads = {threads}, chunk = {chunk_sites}");
        }
    }
}

/// The atlas engine generates, crawls and classifies its population in
/// chunks sharded across worker threads. The chunk layout is fixed by the
/// config (never by the worker count) and every RNG stream forks off the
/// global site index, so the classified summary *and* the rendered report
/// must be byte-identical for `threads = 1` and `threads = 8`.
#[test]
fn atlas_reports_are_thread_count_invariant() {
    let config = AtlasConfig { sites: 120, chunk_sites: 24, seed: 11, threads: 1, zipf_exponent: 0.35 };
    let sequential = run_atlas(&config);
    let parallel = run_atlas(&AtlasConfig { threads: 8, ..config });
    assert_eq!(sequential.summary, parallel.summary);
    assert_eq!(sequential.requests, parallel.requests);
    assert_eq!(sequential.planned_requests, parallel.planned_requests);
    assert_eq!(sequential.cost, parallel.cost, "cost totals must be thread-count invariant");
    assert_eq!(
        sequential.render(),
        parallel.render(),
        "rendered atlas reports must be byte-identical across thread counts"
    );
    // And the atlas is seed-sensitive like every other pipeline.
    let other_seed = run_atlas(&AtlasConfig { seed: 12, threads: 8, ..config });
    assert_ne!(sequential.summary, other_seed.summary);
}

/// The million-site configuration, pinned at CI size through a **prefix
/// run**: `AtlasConfig { sites: n, ..AtlasConfig::million() }` keeps the
/// million run's seed, chunk size and Zipf mix and truncates the population
/// to its first `n` sites — so these chunks are byte-for-byte the first chunks of the real
/// 1 M crawl (chunk layout and per-site RNG streams depend only on the
/// global site index, never on the population size). The work-stealing
/// executor must produce the identical report for threads ∈ {1, 2, 8}.
#[test]
fn million_config_prefix_is_thread_count_invariant() {
    let prefix = AtlasConfig { sites: 6_000, ..AtlasConfig::million() };
    let reference = run_atlas(&AtlasConfig { threads: 1, ..prefix });
    assert_eq!(reference.observed_sites, 6_000);
    assert_eq!(reference.chunk_count, 3);
    for threads in [2, 8] {
        let parallel = run_atlas(&AtlasConfig { threads, ..prefix });
        assert_eq!(reference.summary, parallel.summary, "summary diverged at threads={threads}");
        assert_eq!(reference.cost, parallel.cost, "cost totals diverged at threads={threads}");
        assert_eq!(
            reference.render(),
            parallel.render(),
            "rendered 1M-prefix reports must be byte-identical at threads={threads}"
        );
    }
}

/// The cost sweep shards its 16 mitigation cells (each crawled under three
/// link profiles) across worker threads; the per-visit timelines are folded
/// into per-cell totals and merged, so the aggregated cells *and* the
/// rendered report must be byte-identical for `threads = 1` and
/// `threads` ∈ {2, 3, 8} (three workers get uneven blocks and steal).
#[test]
fn cost_reports_are_thread_count_invariant() {
    let sequential = run_cost(&CostConfig { sites: 30, seed: 11, threads: 1 });
    for threads in [2, 3, 8] {
        let parallel = run_cost(&CostConfig { sites: 30, seed: 11, threads });
        assert_eq!(sequential.cells, parallel.cells, "cost cells diverged at threads={threads}");
        assert_eq!(
            sequential.render(),
            parallel.render(),
            "rendered cost reports must be byte-identical at threads={threads}"
        );
    }
    // And the cost pipeline is seed-sensitive like every other one.
    let other_seed = run_cost(&CostConfig { sites: 30, seed: 12, threads: 8 });
    assert_ne!(sequential.cells, other_seed.cells);
}

/// The fleet drives stateful multi-page sessions (warm connection pool, TLS
/// tickets, session DNS cache) and shards its 29 cells across worker
/// threads. Session state makes this the hardest determinism surface in the
/// workspace: every navigation and lifetime draw forks off the global
/// session index, so the cells *and* the rendered report must be
/// byte-identical for `threads = 1` and `threads` ∈ {2, 3, 8}.
#[test]
fn fleet_reports_are_thread_count_invariant() {
    let sequential = run_fleet(&FleetConfig { sites: 24, sessions: 10, seed: 11, threads: 1 });
    for threads in [2, 3, 8] {
        let parallel = run_fleet(&FleetConfig { sites: 24, sessions: 10, seed: 11, threads });
        assert_eq!(sequential.cells, parallel.cells, "fleet cells diverged at threads={threads}");
        assert_eq!(
            sequential.render(),
            parallel.render(),
            "rendered fleet reports must be byte-identical at threads={threads}"
        );
    }
    // And the fleet is seed-sensitive like every other pipeline.
    let other_seed = run_fleet(&FleetConfig { sites: 24, sessions: 10, seed: 12, threads: 8 });
    assert_ne!(sequential.cells, other_seed.cells);
}

/// The mitigation sweep schedules its 16 cells across worker threads; the
/// report (structure *and* rendered text) must not depend on the worker
/// count or the steal schedule.
#[test]
fn sweep_reports_are_thread_count_invariant() {
    let sequential = run_sweep(&SweepConfig { sites: 40, seed: 11, threads: 1 });
    for threads in [2, 3, 8] {
        let parallel = run_sweep(&SweepConfig { sites: 40, seed: 11, threads });
        assert_eq!(sequential.cells, parallel.cells, "sweep cells diverged at threads={threads}");
        assert_eq!(
            sequential.render(),
            parallel.render(),
            "rendered reports must be byte-identical at threads={threads}"
        );
    }
    // And the sweep itself is seed-sensitive like every other pipeline.
    let other_seed = run_sweep(&SweepConfig { sites: 40, seed: 12, threads: 8 });
    assert_ne!(sequential.cells, other_seed.cells);
}

/// The shard store extends the determinism contract to disk: building the
/// same configuration at different thread counts (and channel bounds) must
/// produce **byte-identical store directories**, and the answers folded from
/// them must render byte-identically too.
#[test]
fn store_directories_are_thread_count_invariant() {
    let base = StoreConfig {
        sites: 30,
        chunk_sites: 10,
        seed: 11,
        threads: 1,
        mitigations: StoreConfig::demo_mitigations(),
        ..StoreConfig::default()
    };
    let dir_serial = std::env::temp_dir().join(format!("connreuse-det-store-1-{}", std::process::id()));
    let dir_parallel = std::env::temp_dir().join(format!("connreuse-det-store-8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_serial);
    let _ = std::fs::remove_dir_all(&dir_parallel);

    let queries = base.demo_queries();
    let sequential = run_store(&base, &dir_serial, &queries).expect("serial build");
    let parallel =
        run_store(&StoreConfig { threads: 8, channel_capacity: 1, ..base.clone() }, &dir_parallel, &queries)
            .expect("parallel build");

    for entry in std::fs::read_dir(dir_serial.join("shards")).expect("shards dir") {
        let name = entry.expect("entry").file_name();
        let a = std::fs::read(dir_serial.join("shards").join(&name)).expect("serial shard");
        let b = std::fs::read(dir_parallel.join("shards").join(&name)).expect("parallel shard");
        assert_eq!(a, b, "shard {name:?} bytes differ between thread counts");
    }
    let a = std::fs::read(dir_serial.join("MANIFEST.json")).expect("serial manifest");
    let b = std::fs::read(dir_parallel.join("MANIFEST.json")).expect("parallel manifest");
    assert_eq!(a, b, "manifest bytes differ between thread counts");

    for (answer_a, answer_b) in sequential.answers.iter().zip(&parallel.answers) {
        assert_eq!(answer_a, answer_b);
        assert_eq!(answer_a.render(&base), answer_b.render(&base));
    }

    std::fs::remove_dir_all(&dir_serial).unwrap();
    std::fs::remove_dir_all(&dir_parallel).unwrap();
}
