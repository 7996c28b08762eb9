//! `connreuse-sweep` — run the 2^4 mitigation what-if matrix and print the
//! comparison report.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-sweep --release
//! cargo run -p connreuse-experiments --bin connreuse-sweep --release -- --quick
//! cargo run -p connreuse-experiments --bin connreuse-sweep --release -- \
//!     --sites 4000 --seed 7 --threads 8 --out results/sweep.txt
//! ```

use connreuse_experiments::cli::{self, Flag, Spec};
use connreuse_experiments::sweep::{run_sweep, SweepConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const SPEC: Spec = Spec::new(
    "connreuse-sweep",
    "the 2^4 mitigation matrix over HTTP/2 connection-reuse fixes",
    &[
        Flag::value("--sites", "N", "sites per cell population (default 1500)"),
        Flag::value("--seed", "N", "root seed shared by every cell (default 20210420)"),
        Flag::value("--threads", "N", "worker threads the 16 cells shard across"),
        Flag::switch("--quick", "start from the small test-sized population (120 sites)"),
        Flag::value("--out", "FILE", "also write the report to FILE"),
    ],
);

fn main() -> ExitCode {
    cli::run(&SPEC, |args| {
        let mut config = if args.has("--quick") { SweepConfig::quick() } else { SweepConfig::default() };
        args.set("--sites", &mut config.sites)?;
        args.set("--seed", &mut config.seed)?;
        args.set_count("--threads", &mut config.threads)?;
        let out: Option<PathBuf> = args.value("--out")?;
        Ok(move || {
            eprintln!(
                "sweeping 16 mitigation combinations: sites={} seed={} threads={}",
                config.sites, config.seed, config.threads
            );
            let start = std::time::Instant::now();
            let text = run_sweep(&config).render();
            eprintln!("sweep done in {:.1}s", start.elapsed().as_secs_f64());
            if let Some(path) = &out {
                cli::write_output(path, &text)?;
            }
            cli::print_line(&text)
        })
    })
}
