//! `connreuse-atlas` — run the atlas scale scenario (100 k sites by default,
//! 1 M with `--million`) and print the redundancy report plus
//! throughput/peak-RSS metrics.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-atlas --release
//! cargo run -p connreuse-experiments --bin connreuse-atlas --release -- --quick
//! cargo run -p connreuse-experiments --bin connreuse-atlas --release -- --million --threads 8
//! cargo run -p connreuse-experiments --bin connreuse-atlas --release -- \
//!     --sites 100000 --chunk 1000 --threads 8 --out results/atlas.txt
//! cargo run -p connreuse-experiments --bin connreuse-atlas --release -- \
//!     --million --bench-threads 1,8 --bench-json results/scaling-1m.json
//! ```
//!
//! `--bench-threads` runs the identical population once per thread count,
//! **asserts the rendered reports are byte-identical** (the executor's
//! determinism contract), and emits one record per run into the
//! `--bench-json` file — the scaling-curve workflow PERF.md describes.

use connreuse_experiments::atlas::{run_atlas, AtlasConfig, BenchFile};
use connreuse_experiments::cli::{self, CliError, Flag, Spec};
use connreuse_experiments::profile::{render_stage_table, ProfileFile};
use netsim_types::Json;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The committed full-run baseline's file name; `--quick` refuses to write
/// it in the current directory.
const BENCH_JSON_PATH: &str = "BENCH_atlas.json";

const SPEC: Spec = Spec::new(
    "connreuse-atlas",
    "crawl + classify a paper-scale population with bounded memory",
    &[
        Flag::value("--sites", "N", "population size (default 100000, the paper's own crawl)"),
        Flag::value("--chunk", "N", "sites per generation/crawl chunk (default 1000; bounds memory)"),
        Flag::value("--seed", "N", "root seed (default 20210420)"),
        Flag::value("--threads", "N", "worker threads the work-stealing executor uses"),
        Flag::value("--zipf", "X", "Zipf exponent (finite, >= 0) of the head/tail mix (default 0.35)"),
        Flag::switch("--quick", "start from the test-sized population (400 sites, 80-site chunks)"),
        Flag::switch("--million", "start from the million-site population (2000-site chunks)"),
        Flag::value(
            "--bench-threads",
            "L",
            "run at each thread count in L and assert byte-identical reports",
        ),
        Flag::value("--out", "FILE", "also write the report to FILE"),
        Flag::value(
            "--bench-json",
            "FILE",
            "write one bench record per run to FILE (not the baseline\nBENCH_atlas.json under --quick)",
        ),
        Flag::switch("--profile", "print the per-stage table to stderr (needs --features hotpath-profile)"),
        Flag::value(
            "--profile-json",
            "FILE",
            "also write the stage table as JSON to FILE (implies --profile)",
        ),
    ],
);

fn main() -> ExitCode {
    cli::run(&SPEC, |args| {
        let mut config = match args.preset(&["--quick", "--million"])? {
            Some("--quick") => AtlasConfig::quick(),
            Some(_) => AtlasConfig::million(),
            None => AtlasConfig::full(),
        };
        args.set("--sites", &mut config.sites)?;
        args.set_count("--chunk", &mut config.chunk_sites)?;
        args.set("--seed", &mut config.seed)?;
        args.set_count("--threads", &mut config.threads)?;
        args.set("--zipf", &mut config.zipf_exponent)?;
        // NaN would silently send every site to the tail profile, a negative
        // exponent every site to the head profile.
        if !(config.zipf_exponent.is_finite() && config.zipf_exponent >= 0.0) {
            let message =
                format!("--zipf must be a finite, non-negative exponent, got {}", config.zipf_exponent);
            return Err(CliError::Invalid(message));
        }
        let bench_json: Option<PathBuf> = args.value("--bench-json")?;
        if args.has("--quick") && bench_json.as_deref().is_some_and(resolves_to_default_baseline) {
            return Err(CliError::Invalid(format!(
                "--quick refuses to write {BENCH_JSON_PATH} in the current directory (the committed \
                 copy is the full-run baseline); pass another file, e.g. --bench-json quick-bench.json"
            )));
        }
        let thread_counts = args.counts("--bench-threads")?.unwrap_or(vec![config.threads]);
        let out: Option<PathBuf> = args.value("--out")?;
        let profile_json: Option<PathBuf> = args.value("--profile-json")?;
        let profile = args.has("--profile") || profile_json.is_some();
        Ok(move || {
            if profile && !netsim_types::profile::enabled() {
                eprintln!(
                    "profile: this build carries no instrumentation — rebuild with \
                     `--features hotpath-profile` to collect stage timings"
                );
            }
            let mut records = Vec::new();
            let text = cli::check_threads(&thread_counts, |threads| {
                let config = AtlasConfig { threads, ..config };
                eprintln!(
                    "atlas: sites={} chunk={} seed={} threads={} zipf={}",
                    config.sites, config.chunk_sites, config.seed, config.threads, config.zipf_exponent
                );
                let report = run_atlas(&config);
                // Metrics go to stderr so `--out` files and piped stdout
                // stay deterministic for a given config.
                eprintln!("{}", report.metrics.render());
                records.push(report.bench_record());
                report.render()
            })?;
            if profile {
                // Merged across every worker and every run above. Stage
                // timings are wall-clock, so they go to stderr only.
                let table = netsim_types::profile::take_global();
                eprint!("{}", render_stage_table(&table));
                if let Some(path) = &profile_json {
                    write_json(path, &ProfileFile::from_table(&table).to_json(), "stage profile")?;
                }
            }
            if let Some(path) = &out {
                cli::write_output(path, &text)?;
            }
            if let Some(path) = &bench_json {
                write_json(path, &BenchFile::new(records).to_json(), "bench records")?;
            }
            cli::print_line(&text)
        })
    })
}

/// `true` if `path` denotes the committed baseline file in the current
/// directory, under any spelling (`BENCH_atlas.json`, `./BENCH_atlas.json`,
/// an absolute path, …) — the guard canonicalises the parent directory so a
/// creative spelling cannot slip a quick record over the baseline.
fn resolves_to_default_baseline(path: &Path) -> bool {
    if path.file_name() != Some(std::ffi::OsStr::new(BENCH_JSON_PATH)) {
        return false;
    }
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    match (std::fs::canonicalize(parent), std::fs::canonicalize(".")) {
        (Ok(target_dir), Ok(cwd)) => target_dir == cwd,
        // An unresolvable parent cannot be the current directory.
        _ => false,
    }
}

fn write_json(path: &Path, value: &Json, what: &str) -> Result<(), Box<dyn Error>> {
    cli::write_output(path, &format!("{}\n", value.to_pretty()))?;
    eprintln!("{what} written to {}", path.display());
    Ok(())
}
