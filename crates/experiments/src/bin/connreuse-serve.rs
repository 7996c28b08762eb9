//! `connreuse-serve` — the persistent what-if service: build a shard store
//! once, answer priced mitigation queries from it without re-crawling.
//!
//! ```text
//! cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store --quick --build
//! cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store --quick \
//!     --query "mitigations=all profile=lossy-cellular ranks=0..90"
//! cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store-full --full --build --threads 8
//! printf 'mitigations=none\nmitigations=all profile=datacenter\n' | \
//!     cargo run -p connreuse-experiments --bin connreuse-serve --release -- \
//!     --store target/store --quick --serve
//! ```
//!
//! The store is incremental: `--build` on an up-to-date store reports
//! `shards rewritten: 0` and touches nothing. Without `--build`, the store
//! must already exist and carry the configuration's fingerprint — a
//! mismatch is refused (exit 1) instead of serving numbers from a different
//! experiment.

use connreuse_experiments::cli::{self, CliError, Flag, Spec};
use connreuse_experiments::store::{
    answer_query, build_store, open_store, BuildReport, StoreConfig, StoreQuery, StoreRunReport,
};
use netsim_store::ShardStore;
use std::error::Error;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;

const SPEC: Spec = Spec::new(
    "connreuse-serve",
    "persistent shard store + priced what-if queries",
    &[
        Flag::value("--store", "DIR", "store directory (required)"),
        Flag::switch("--build", "build or incrementally refresh the store first"),
        Flag::switch("--quick", "start from the small test-sized configuration (default)"),
        Flag::switch("--full", "start from the paper-scale store: 100k sites, all 16 deployments"),
        Flag::value("--sites", "N", "population size (growth only appends chunks)"),
        Flag::value("--chunk-sites", "N", "sites per shard (changes the fingerprint)"),
        Flag::value("--seed", "N", "root seed (changes the fingerprint)"),
        Flag::value("--threads", "N", "worker threads for building the store"),
        Flag::value(
            "--query",
            "Q",
            "answer Q (repeatable); default: the demo query set\n\
             grammar: mitigations=<label> [profile=<name>] [ranks=<lo>..<hi>]",
        ),
        Flag::switch("--serve", "after the flag queries, answer one query per stdin line"),
        Flag::value("--out", "FILE", "also write the build/answer report to FILE"),
    ],
);

fn main() -> ExitCode {
    cli::run(&SPEC, |args| {
        let mut config = match args.preset(&["--quick", "--full"])? {
            Some("--full") => StoreConfig::full(),
            _ => StoreConfig::quick(),
        };
        args.set("--sites", &mut config.sites)?;
        args.set_count("--chunk-sites", &mut config.chunk_sites)?;
        args.set("--seed", &mut config.seed)?;
        args.set_count("--threads", &mut config.threads)?;
        let dir: PathBuf =
            args.value("--store")?.ok_or(CliError::Invalid("--store DIR is required".into()))?;
        // Bad query grammar is an argument error, caught before any build
        // work starts.
        let mut queries = Vec::new();
        for query in args.all("--query") {
            queries.push(StoreQuery::parse(query, &config).map_err(CliError::Invalid)?);
        }
        if queries.is_empty() {
            queries = config.demo_queries();
        }
        let (build, serve) = (args.has("--build"), args.has("--serve"));
        let out: Option<PathBuf> = args.value("--out")?;
        Ok(move || {
            let start = std::time::Instant::now();
            // Without --build the store must already exist and match the
            // config; nothing on disk is touched.
            let built = if build { Some(build_store(&config, &dir)?) } else { None };
            // One open verifies every shard; the flag queries and the stdin
            // loop all fold from it.
            let store = open_store(&config, &dir)?;
            let build = built.unwrap_or_else(|| BuildReport {
                config: config.clone(),
                fingerprint: store.manifest().fingerprint,
                chunk_count: store.chunk_count(),
                records_per_shard: store.manifest().keys.len(),
                rewritten: 0,
                reused: store.chunk_count(),
                removed: 0,
            });
            let answers =
                queries.iter().map(|query| answer_query(&store, &config, query)).collect::<Result<_, _>>()?;
            let report = StoreRunReport { build, answers };
            eprintln!(
                "store at {} ready in {:.1}s ({} shards rewritten, {} reused)",
                dir.display(),
                start.elapsed().as_secs_f64(),
                report.build.rewritten,
                report.build.reused
            );
            let text = report.render();
            if let Some(path) = &out {
                cli::write_output(path, &text)?;
            }
            cli::print_line(&text)?;
            if serve {
                serve_stdin(&config, &store)?;
            }
            Ok(())
        })
    })
}

/// The long-running loop: one query per stdin line, one answer per query,
/// folded from the store as verified at open. Malformed queries get an
/// `error:` line and the loop continues; a query that covers a chunk whose
/// shard failed verification at open is fatal (exit 1) — better down than
/// wrong.
fn serve_stdin(config: &StoreConfig, store: &ShardStore) -> Result<(), Box<dyn Error>> {
    eprintln!("serving queries from stdin (one per line; EOF ends the session)");
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|error| format!("stdin: {error}"))?;
        if line.trim().is_empty() {
            continue;
        }
        match StoreQuery::parse(&line, config) {
            Err(message) => cli::print_line(format_args!("error: {message}"))?,
            Ok(query) => cli::print_line(answer_query(store, config, &query)?.render(config))?,
        }
    }
    Ok(())
}
