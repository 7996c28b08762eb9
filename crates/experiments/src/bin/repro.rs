//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin repro --release -- all
//! cargo run -p connreuse-experiments --bin repro --release -- table1 table2 \
//!     --archive-sites 10000 --alexa-sites 4000 --seed 7 --out results/
//! ```
//!
//! Without arguments the binary lists the available experiments.

use connreuse_experiments::cli::{self, CliError, Flag, Spec};
use connreuse_experiments::{run_experiment, Scenario, ScenarioConfig, EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

const SPEC: Spec = Spec {
    operands: "[EXPERIMENT ...|all]",
    ..Spec::new(
        "repro",
        "regenerate the tables and figures of 'Sharding and HTTP/2 Connection Reuse Revisited'",
        &[
            Flag::value("--archive-sites", "N", "size of the HTTP-Archive-shaped population (default 3000)"),
            Flag::value("--alexa-sites", "N", "size of the Alexa-shaped population (default 1500)"),
            Flag::value("--overlap-sites", "N", "size of the shared overlap population (default 600)"),
            Flag::value("--seed", "N", "root seed (default 20210420)"),
            Flag::value(
                "--threads",
                "N",
                "worker threads of every grid and table pass (default: available parallelism)",
            ),
            Flag::switch("--quick", "start from the small test-sized populations"),
            Flag::value("--out", "DIR", "also write each experiment's report to DIR/<name>.txt"),
        ],
    )
};

fn main() -> ExitCode {
    let notes = format!("experiments: {}", EXPERIMENTS.join(", "));
    cli::run(&Spec { notes: &notes, ..SPEC }, |args| {
        let mut config =
            if args.has("--quick") { ScenarioConfig::quick() } else { ScenarioConfig::default() };
        args.set("--archive-sites", &mut config.archive_sites)?;
        args.set_count("--alexa-sites", &mut config.alexa_sites)?;
        args.set("--overlap-sites", &mut config.overlap_sites)?;
        args.set("--seed", &mut config.seed)?;
        args.set_count("--threads", &mut config.threads)?;
        // Names are checked before any experiment runs, so a typo costs no
        // measurement.
        if let Some(unknown) =
            args.operands.iter().find(|name| *name != "all" && !EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(CliError::Invalid(format!(
                "unknown experiment '{unknown}'; known: {}",
                EXPERIMENTS.join(", ")
            )));
        }
        let experiments: Vec<String> = if args.operands.iter().any(|name| name == "all") {
            EXPERIMENTS.iter().map(|name| name.to_string()).collect()
        } else {
            args.operands.clone()
        };
        let out_dir: Option<PathBuf> = args.value("--out")?;
        Ok(move || {
            eprintln!(
                "scenario: archive={} alexa={} overlap={} seed={} threads={}",
                config.archive_sites, config.alexa_sites, config.overlap_sites, config.seed, config.threads
            );
            let start = std::time::Instant::now();
            // Each table population is measured when the first experiment
            // reading it runs.
            let scenario = Scenario::new(config);
            for name in &experiments {
                let output = run_experiment(name, &scenario)?;
                if let Some(dir) = &out_dir {
                    cli::write_output(&dir.join(format!("{name}.txt")), &output.text)?;
                }
                cli::print_line(&output.text)?;
            }
            eprintln!("done in {:.1}s", start.elapsed().as_secs_f64());
            Ok(())
        })
    })
}
