//! `connreuse-chaos` — deterministic fault injection over warm session
//! traffic: failure levels × mitigation deployments × link profiles, plus
//! the hedged-dial mitigation.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-chaos --release
//! cargo run -p connreuse-experiments --bin connreuse-chaos --release -- --quick
//! cargo run -p connreuse-experiments --bin connreuse-chaos --release -- \
//!     --sites 4000 --sessions 200 --seed 7 --threads 8 --out results/chaos.txt
//! cargo run -p connreuse-experiments --bin connreuse-chaos --release -- \
//!     --quick --check-threads 1,2
//! ```

use connreuse_experiments::chaos::{run_chaos, ChaosConfig};
use connreuse_experiments::cli::{self, CliError, Flag, Spec};
use std::path::PathBuf;
use std::process::ExitCode;

const SPEC: Spec = Spec::new(
    "connreuse-chaos",
    "fault injection over warm session traffic",
    &[
        Flag::value("--sites", "N", "sites per cell population (default 1500)"),
        Flag::value("--sessions", "N", "user sessions per cell (default sites/15)"),
        Flag::value("--seed", "N", "root seed shared by every cell (default 20210420)"),
        Flag::value("--threads", "N", "worker threads the mitigation combos shard across"),
        Flag::switch("--quick", "start from the small test-sized run (40 sites, 10 sessions)"),
        Flag::value("--check-threads", "A,B", "run at each thread count and assert byte-identical reports"),
        Flag::value("--out", "FILE", "also write the report to FILE"),
    ],
);

fn main() -> ExitCode {
    cli::run(&SPEC, |args| {
        let mut config = if args.has("--quick") { ChaosConfig::quick() } else { ChaosConfig::default() };
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
                let config = ChaosConfig { threads, ..config };
                eprintln!(
                    "injecting faults into {} sessions per cell over {} sites: seed={} threads={threads}",
                    config.sessions, config.sites, config.seed
                );
                let start = std::time::Instant::now();
                let text = run_chaos(&config).render();
                eprintln!("chaos done in {:.1}s", start.elapsed().as_secs_f64());
                text
            })?;
            if let Some(path) = &out {
                cli::write_output(path, &text)?;
            }
            cli::print_line(&text)
        })
    })
}
