//! `simbench`: one process of the simulator benchmark.
//!
//! `run.py` (next to this package) drives it; every measured repetition is a
//! fresh `simbench` process, because the simulator's domain intern table is
//! process-global and would flatter later repetitions in one process.
//!
//! ```text
//! simbench setup <workload> --seed N --threads T --size full|tiny --dir DIR
//! simbench run   <workload> --seed N --threads T --size full|tiny --dir DIR
//! simbench trace <workload> --seed N --threads T --size full|tiny --dir DIR
//! simbench calibrate <workload> --threads T
//! ```
//!
//! Workloads are `atlas`, `sessions` and `whatif`. Each command prints one
//! JSON line on stdout. `trace` needs a build with the `trace` feature.

mod atlas;
mod calibrate;
mod inputs;
mod report;
mod sessions;
mod spans;
mod whatif;

use inputs::{Inputs, Size};
use netsim_cost::VisitTimeline;
use netsim_types::profile::{self, Stage, StageTable};
use report::Json;
use spans::{ratio, secs};
use std::path::PathBuf;

/// Drain the stage profiler: the caller thread's table and every table the
/// workers flushed. Empty in a build without the `trace` feature.
pub(crate) fn take_stage_table() -> StageTable {
    profile::flush_local();
    profile::take_global()
}

/// The dns/h2/tls/cost layers, read from the simulator's own stage table and
/// the visit timelines' counters.
pub(crate) fn stage_layers(stages: &StageTable, sums: &VisitTimeline) -> Vec<(&'static str, f64)> {
    let stage = |stage: Stage| secs(stages.stats(stage).total_nanos);
    vec![
        ("dns.walk_s", stage(Stage::DnsWalk)),
        (
            "dns.authority_queries_per_walk",
            ratio(sums.dns_authority_queries as f64, sums.dns_recursive_walks as f64),
        ),
        ("h2.reuse_scan_s", stage(Stage::ReuseScan)),
        ("h2.reuse_ratio", sums.reuse_share()),
        ("h2.request_encode_s", stage(Stage::RequestEncode)),
        ("tls.handshake_s", stage(Stage::Handshake)),
        ("tls.handshake_rtts", sums.handshake_rtts as f64),
        ("cost.fold_s", stage(Stage::CostFold)),
    ]
}

/// This process's peak resident set size (`VmHWM`), or 0 where unknown.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kib| kib.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    threads: usize,
    size: Size,
    dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench <setup|run|trace|calibrate> <atlas|sessions|whatif> --seed N --threads T --size \
         full|tiny --dir DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let (Some(command), Some(workload)) = (argv.next(), argv.next()) else { usage() };
    let mut args = Args { command, workload, seed: 0, threads: 1, size: Size::Full, dir: PathBuf::from(".") };
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = value.parse().unwrap_or_else(|_| usage()),
            "--size" => args.size = Size::parse(&value).unwrap_or_else(|| usage()),
            "--dir" => args.dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    args
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("simbench: {message}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let inputs = Inputs::new(args.seed, args.threads, args.size);
    let store_dir = args.dir.join("store");
    let spans_out = args.dir.join(format!("spans-{}.tsv", args.workload));
    if args.command == "trace" && !profile::enabled() {
        fail("`trace` needs a build with the `trace` feature");
    }
    let body = match (args.command.as_str(), args.workload.as_str()) {
        ("setup", workload) => {
            let started = std::time::Instant::now();
            let reports = match workload {
                "atlas" => {
                    atlas::setup();
                    Vec::new()
                }
                "sessions" => {
                    sessions::setup(&inputs.sessions().0);
                    Vec::new()
                }
                "whatif" => vec![Json::Str(
                    whatif::setup(&inputs.store(), &store_dir).unwrap_or_else(|error| fail(error)),
                )],
                _ => usage(),
            };
            Json::obj([
                ("setup_s", Json::Num(started.elapsed().as_secs_f64())),
                ("reports", Json::Arr(reports)),
            ])
        }
        ("calibrate", _) => Json::obj([("wall_s", Json::Num(calibrate::run(inputs.threads)))]),
        ("run", "atlas") => atlas::run(&inputs.atlas()).to_json(),
        ("run", "sessions") => {
            let (fleet, chaos) = inputs.sessions();
            sessions::run(&fleet, &chaos).to_json()
        }
        ("run", "whatif") => {
            let config = inputs.store();
            whatif::run(&config, &inputs.queries(&config), &store_dir)
                .unwrap_or_else(|error| fail(error))
                .to_json()
        }
        ("trace", "atlas") => atlas::trace(&inputs.atlas(), &spans_out).to_json(),
        ("trace", "sessions") => {
            let (fleet, chaos) = inputs.sessions();
            sessions::trace(&fleet, &chaos, &spans_out).to_json()
        }
        ("trace", "whatif") => {
            let config = inputs.store();
            whatif::trace(&config, &inputs.queries(&config), &args.dir, &spans_out)
                .unwrap_or_else(|error| fail(error))
                .to_json()
        }
        _ => usage(),
    };
    let available_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let line = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed_class", Json::Int(inputs.class)),
        ("threads", Json::Int(inputs.threads as u64)),
        ("available_cores", Json::Int(available_cores as u64)),
        ("peak_rss_kib", Json::Int(peak_rss_kib())),
        ("result", body),
    ]);
    println!("{line}");
}
