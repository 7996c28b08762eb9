//! `connreuse-fleet` — multi-page user sessions over the connection-pool
//! lifecycle: the warm-vs-cold redundancy tax per deployment and pool policy.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release -- --quick
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release -- \
//!     --sites 4000 --sessions 800 --seed 7 --threads 8 --out results/fleet.txt
//! cargo run -p connreuse-experiments --bin connreuse-fleet --release -- \
//!     --quick --check-threads 1,2
//! ```

use connreuse_experiments::cli::{self, CliError, Flag, Spec};
use connreuse_experiments::fleet::{run_fleet, FleetConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const SPEC: Spec = Spec::new(
    "connreuse-fleet",
    "user sessions over the connection-pool lifecycle",
    &[
        Flag::value("--sites", "N", "sites per cell population (default 1500)"),
        Flag::value("--sessions", "N", "user sessions per cell (default sites/5)"),
        Flag::value("--seed", "N", "root seed shared by every cell (default 20210420)"),
        Flag::value("--threads", "N", "worker threads the cells shard across"),
        Flag::switch("--quick", "start from the small test-sized run (60 sites, 40 sessions)"),
        Flag::value("--check-threads", "A,B", "run at each thread count and assert byte-identical reports"),
        Flag::value("--out", "FILE", "also write the report to FILE"),
    ],
);

fn main() -> ExitCode {
    cli::run(&SPEC, |args| {
        let mut config = if args.has("--quick") { FleetConfig::quick() } else { FleetConfig::default() };
        args.set_count("--sites", &mut config.sites)?;
        args.set("--sessions", &mut config.sessions)?;
        args.set("--seed", &mut config.seed)?;
        args.set_count("--threads", &mut config.threads)?;
        let thread_counts = args.counts("--check-threads")?.unwrap_or(vec![config.threads]);
        if args.has("--check-threads") && thread_counts.len() < 2 {
            return Err(CliError::Invalid("--check-threads needs at least two thread counts".into()));
        }
        let out: Option<PathBuf> = args.value("--out")?;
        Ok(move || {
            // The checked report is the one printed and written to --out.
            let text = cli::check_threads(&thread_counts, |threads| {
                let config = FleetConfig { threads, ..config };
                eprintln!(
                    "driving {} sessions per cell over {} sites: seed={} threads={threads}",
                    config.sessions, config.sites, config.seed
                );
                let start = std::time::Instant::now();
                let text = run_fleet(&config).render();
                eprintln!("fleet done in {:.1}s", start.elapsed().as_secs_f64());
                text
            })?;
            if let Some(path) = &out {
                cli::write_output(path, &text)?;
            }
            cli::print_line(&text)
        })
    })
}
