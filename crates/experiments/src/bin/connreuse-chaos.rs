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
use std::path::PathBuf;

struct CliOptions {
    config: ChaosConfig,
    out: Option<PathBuf>,
    check_threads: Vec<usize>,
    help: bool,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut config = ChaosConfig::default();
    let mut out = None;
    let mut check_threads = Vec::new();
    let mut help = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sites" => config.sites = parse_value(&mut args, &arg)?,
            "--sessions" => config.sessions = parse_value(&mut args, &arg)?,
            "--seed" => config.seed = parse_value(&mut args, &arg)?,
            "--threads" => config.threads = parse_value(&mut args, &arg)?,
            "--quick" => {
                let quick = ChaosConfig::quick();
                config.sites = quick.sites;
                config.sessions = quick.sessions;
            }
            "--check-threads" => {
                let value = args.next().ok_or("--check-threads requires a comma-separated list")?;
                check_threads = value
                    .split(',')
                    .map(|part| part.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| format!("invalid value for --check-threads: {value}"))?;
                if check_threads.len() < 2 {
                    return Err("--check-threads needs at least two thread counts".to_string());
                }
            }
            "--out" => {
                let value = args.next().ok_or("--out requires a file path")?;
                out = Some(PathBuf::from(value));
            }
            "--help" | "-h" => help = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if config.sites == 0 {
        return Err("--sites must be at least 1".to_string());
    }
    Ok(CliOptions { config, out, check_threads, help })
}

fn parse_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} requires a value"))?;
    value.parse().map_err(|_| format!("invalid value for {flag}: {value}"))
}

fn print_usage() {
    println!("connreuse-chaos — fault injection over warm session traffic");
    println!();
    println!("usage: connreuse-chaos [options]");
    println!();
    println!("options:");
    println!("  --sites N            sites per cell population (default 1500)");
    println!("  --sessions N         user sessions per cell (default sites/15)");
    println!("  --seed N             root seed shared by every cell (default 20210420)");
    println!("  --threads N          worker threads the mitigation combos shard across");
    println!("  --quick              use the small test-sized run (40 sites, 10 sessions)");
    println!("  --check-threads A,B  run at each thread count and assert byte-identical reports");
    println!("  --out FILE           also write the report to FILE");
    println!();
    println!("exit status: 0 on success, 1 on check/IO failure, 2 on bad arguments");
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

    let text = if options.check_threads.is_empty() {
        eprintln!(
            "injecting faults into {} sessions per cell over {} sites: seed={} threads={}",
            options.config.sessions, options.config.sites, options.config.seed, options.config.threads
        );
        let start = std::time::Instant::now();
        let report = run_chaos(&options.config);
        eprintln!("chaos done in {:.1}s", start.elapsed().as_secs_f64());
        report.render()
    } else {
        // Determinism check: the same grid scheduled over different thread
        // counts must render byte-identically (the shard-merge contract).
        // The checked report is the one printed and written to --out.
        let mut reference: Option<(usize, String)> = None;
        for &threads in &options.check_threads {
            let config = ChaosConfig { threads, ..options.config };
            let start = std::time::Instant::now();
            let text = run_chaos(&config).render();
            eprintln!("threads={threads}: chaos done in {:.1}s", start.elapsed().as_secs_f64());
            match &reference {
                None => reference = Some((threads, text)),
                Some((base, expected)) => {
                    if *expected != text {
                        eprintln!("error: report at --threads {threads} differs from --threads {base}");
                        std::process::exit(1);
                    }
                    eprintln!("threads={threads}: byte-identical to threads={base}");
                }
            }
        }
        reference.expect("at least two runs").1
    };

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
}
