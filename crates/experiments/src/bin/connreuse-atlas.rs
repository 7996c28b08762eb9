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
//!     --million --bench-threads 1,8 --bench-json
//! ```
//!
//! `--bench-threads` runs the identical population once per thread count,
//! **asserts the rendered reports are byte-identical** (the executor's
//! determinism contract), and emits one record per run into the
//! `--bench-json` file — the scaling-curve workflow PERF.md describes.

use connreuse_experiments::atlas::{run_atlas, AtlasConfig, AtlasReport, BenchFile};
use connreuse_experiments::profile::{render_stage_table, ProfileFile};
use std::path::PathBuf;

/// Default file the `--bench-json` flag writes the machine-readable record
/// to when no explicit path follows it. The committed copy at the repo root
/// is the full-run baseline — point quick/CI runs somewhere else so they do
/// not clobber it.
const BENCH_JSON_PATH: &str = "BENCH_atlas.json";

/// Default file `--profile-json` writes the per-stage table to. The
/// committed per-stage *budgets* live in `BENCH_stages.json` at the repo
/// root; fresh profiles go under `ci-artifacts/` where the bench guard's
/// stage check picks them up.
const PROFILE_JSON_PATH: &str = "ci-artifacts/PROFILE_atlas.json";

struct CliOptions {
    config: AtlasConfig,
    out: Option<PathBuf>,
    bench_json: Option<PathBuf>,
    bench_threads: Option<Vec<usize>>,
    profile: bool,
    profile_json: Option<PathBuf>,
    help: bool,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut config = AtlasConfig::full();
    let mut out = None;
    let mut bench_json = None;
    let mut bench_threads = None;
    let mut profile = false;
    let mut profile_json = None;
    let mut quick = false;
    let mut help = false;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sites" => config.sites = parse_value(&mut args, &arg)?,
            "--chunk" => config.chunk_sites = parse_value(&mut args, &arg)?,
            "--seed" => config.seed = parse_value(&mut args, &arg)?,
            "--threads" => config.threads = parse_value(&mut args, &arg)?,
            "--zipf" => config.zipf_exponent = parse_value(&mut args, &arg)?,
            "--quick" => {
                quick = true;
                let sizes = AtlasConfig::quick();
                config.sites = sizes.sites;
                config.chunk_sites = sizes.chunk_sites;
            }
            "--million" => {
                let sizes = AtlasConfig::million();
                config.sites = sizes.sites;
                config.chunk_sites = sizes.chunk_sites;
            }
            "--bench-threads" => {
                let value = args.next().ok_or("--bench-threads requires a comma-separated list")?;
                let counts: Result<Vec<usize>, _> =
                    value.split(',').map(|item| item.trim().parse::<usize>()).collect();
                let counts = counts.map_err(|_| format!("invalid value for --bench-threads: {value}"))?;
                if counts.is_empty() || counts.contains(&0) {
                    return Err(format!("--bench-threads needs positive thread counts, got {value}"));
                }
                bench_threads = Some(counts);
            }
            "--out" => {
                let value = args.next().ok_or("--out requires a file path")?;
                out = Some(PathBuf::from(value));
            }
            "--bench-json" => {
                // Optional file operand: `--bench-json results/run.json`.
                let explicit = args.peek().filter(|next| !next.starts_with('-')).is_some();
                bench_json = Some(if explicit {
                    PathBuf::from(args.next().expect("peeked operand"))
                } else {
                    PathBuf::from(BENCH_JSON_PATH)
                });
            }
            "--profile" => profile = true,
            "--profile-json" => {
                // Optional file operand: `--profile-json results/stages.json`.
                let explicit = args.peek().filter(|next| !next.starts_with('-')).is_some();
                profile_json = Some(if explicit {
                    PathBuf::from(args.next().expect("peeked operand"))
                } else {
                    PathBuf::from(PROFILE_JSON_PATH)
                });
                profile = true;
            }
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    // NaN would silently send every site to the tail profile, a negative
    // exponent every site to the head profile.
    if !(config.zipf_exponent.is_finite() && config.zipf_exponent >= 0.0) {
        return Err(format!("--zipf must be a finite, non-negative exponent, got {}", config.zipf_exponent));
    }
    if quick && bench_json.as_deref().is_some_and(resolves_to_default_baseline) {
        return Err(format!(
            "--quick refuses to write the default {BENCH_JSON_PATH} (the committed copy is the \
             full-run baseline); pass an explicit file, e.g. --bench-json quick-bench.json"
        ));
    }
    Ok(CliOptions { config, out, bench_json, bench_threads, profile, profile_json, help })
}

/// `true` if `path` denotes the committed baseline file in the current
/// directory, under any spelling (`BENCH_atlas.json`, `./BENCH_atlas.json`,
/// an absolute path, …) — the guard canonicalises the parent directory so a
/// creative spelling cannot slip a quick record over the baseline.
fn resolves_to_default_baseline(path: &std::path::Path) -> bool {
    if path.file_name() != Some(std::ffi::OsStr::new(BENCH_JSON_PATH)) {
        return false;
    }
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => std::path::Path::new("."),
    };
    match (std::fs::canonicalize(parent), std::fs::canonicalize(".")) {
        (Ok(target_dir), Ok(cwd)) => target_dir == cwd,
        // An unresolvable parent cannot be the current directory.
        _ => false,
    }
}

fn parse_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
    value.parse().map_err(|_| format!("invalid value for {flag}: {value}"))
}

fn print_usage() {
    println!("connreuse-atlas — crawl + classify a paper-scale population with bounded memory");
    println!();
    println!("usage: connreuse-atlas [options]");
    println!();
    println!("options:");
    println!("  --sites N    population size (default 100000, the paper's own crawl)");
    println!("  --chunk N    sites per generation/crawl chunk (default 1000; bounds memory)");
    println!("  --seed N     root seed (default 20210420)");
    println!("  --threads N  worker threads the work-stealing executor uses");
    println!("  --zipf X     Zipf exponent (finite, >= 0) of the head/tail profile mix (default 0.35)");
    println!("  --quick      use the small test-sized population (400 sites)");
    println!("  --million    use the million-site population (1000000 sites, 2000-site chunks)");
    println!("  --bench-threads L  run once per thread count in the comma list (e.g. 1,2,8),");
    println!("               assert the reports are byte-identical, and record each run");
    println!("  --out FILE   also write the report to FILE");
    println!("  --bench-json [FILE]  write machine-readable run metrics (default {BENCH_JSON_PATH};");
    println!("               the committed copy is the full-run baseline — quick runs should");
    println!("               pass an explicit FILE)");
    println!("  --profile    print the per-stage hotpath table to stderr (needs a build with");
    println!("               --features hotpath-profile to record anything)");
    println!("  --profile-json [FILE]  also write the stage table as JSON (default");
    println!("               {PROFILE_JSON_PATH}; implies --profile)");
    println!();
    println!("exit status: 0 on success, 1 on determinism-check/IO failure, 2 on bad arguments");
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            print_usage();
            std::process::exit(2);
        }
    };
    if options.help {
        print_usage();
        return;
    }

    if options.profile {
        // Drain whatever a previous in-process run may have left behind so
        // the reported table covers exactly the runs below.
        let _ = netsim_types::profile::take_global();
        if !netsim_types::profile::enabled() {
            eprintln!(
                "profile: this build carries no instrumentation — rebuild with \
                 `--features hotpath-profile` to collect stage timings"
            );
        }
    }

    let thread_counts = options.bench_threads.clone().unwrap_or_else(|| vec![options.config.threads]);
    let mut records = Vec::new();
    let mut first: Option<AtlasReport> = None;
    for &threads in &thread_counts {
        let config = AtlasConfig { threads, ..options.config };
        eprintln!(
            "atlas: sites={} chunk={} seed={} threads={} zipf={}",
            config.sites, config.chunk_sites, config.seed, config.threads, config.zipf_exponent
        );
        let report = run_atlas(&config);
        // Metrics go to stderr so `--out` files and piped stdout stay
        // deterministic for a given config.
        eprintln!("{}", report.metrics.render());
        records.push(report.bench_record());
        match &first {
            None => first = Some(report),
            Some(reference) => {
                // The executor's determinism contract, checked on the real
                // workload: any thread count, the identical report.
                if reference.render() != report.render() {
                    eprintln!(
                        "error: report at threads={} diverges from threads={} — the run is not \
                         thread-count deterministic",
                        threads, thread_counts[0]
                    );
                    std::process::exit(1);
                }
                eprintln!("report at threads={} is byte-identical to threads={}", threads, thread_counts[0]);
            }
        }
    }
    let report = first.expect("at least one run");

    if options.profile {
        // Merged across every worker and every run above. Stage timings are
        // wall-clock, so like the throughput metrics they go to stderr only.
        let table = netsim_types::profile::take_global();
        eprint!("{}", render_stage_table(&table));
        if let Some(path) = &options.profile_json {
            let file = ProfileFile::from_table(&table);
            let json = match serde_json::to_string_pretty(&file) {
                Ok(json) => json,
                Err(error) => {
                    eprintln!("error: cannot serialise stage profile: {error}");
                    std::process::exit(1);
                }
            };
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                if let Err(error) = std::fs::create_dir_all(parent) {
                    eprintln!("error: cannot create {}: {error}", parent.display());
                    std::process::exit(1);
                }
            }
            if let Err(error) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("error: cannot write {}: {error}", path.display());
                std::process::exit(1);
            }
            eprintln!("stage profile written to {}", path.display());
        }
    }

    let text = report.render();
    println!("{text}");
    if let Some(path) = &options.out {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(error) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {error}", parent.display());
                std::process::exit(1);
            }
        }
        if let Err(error) = std::fs::write(path, &text) {
            eprintln!("error: cannot write {}: {error}", path.display());
            std::process::exit(1);
        }
    }
    if let Some(path) = &options.bench_json {
        let file = BenchFile::new(records);
        let json = match serde_json::to_string_pretty(&file) {
            Ok(json) => json,
            Err(error) => {
                eprintln!("error: cannot serialise bench records: {error}");
                std::process::exit(1);
            }
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(error) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create {}: {error}", parent.display());
                std::process::exit(1);
            }
        }
        if let Err(error) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {}: {error}", path.display());
            std::process::exit(1);
        }
        eprintln!("bench records written to {}", path.display());
    }
}
