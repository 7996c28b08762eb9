//! The command-line contract all seven binaries share, exercised through the
//! real binaries — exit 2 with an `error:` line naming the flag and nothing
//! on stdout for a bad argument, presets that explicit flags override in any
//! order, exit 0 when stdout's reader has gone away and 1 on any other
//! stdout error — plus the flag-table parser in `connreuse_experiments::cli`
//! it is built on.

use connreuse_experiments::cli::{check_threads, write_output, Args, CliError, Flag, Spec, EXIT_STATUS};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const BINS: [(&str, &str); 7] = [
    ("repro", env!("CARGO_BIN_EXE_repro")),
    ("connreuse-sweep", env!("CARGO_BIN_EXE_connreuse-sweep")),
    ("connreuse-cost", env!("CARGO_BIN_EXE_connreuse-cost")),
    ("connreuse-atlas", env!("CARGO_BIN_EXE_connreuse-atlas")),
    ("connreuse-fleet", env!("CARGO_BIN_EXE_connreuse-fleet")),
    ("connreuse-chaos", env!("CARGO_BIN_EXE_connreuse-chaos")),
    ("connreuse-serve", env!("CARGO_BIN_EXE_connreuse-serve")),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

fn bin(name: &str) -> &'static str {
    BINS.iter().find(|(bin, _)| *bin == name).expect("known binary").1
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-contract-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Exit 2, nothing on stdout, and an `error:` line on stderr containing
/// `expected`.
fn assert_refused(name: &str, args: &[&str], expected: &str) {
    let output = run(bin(name), args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{name} {args:?} wrote to stdout");
    let error = stderr.lines().find(|line| line.starts_with("error: ")).unwrap_or_default();
    assert!(error.contains(expected), "{name} {args:?}: expected {expected:?} in {error:?}");
}

#[test]
fn every_binary_refuses_bad_arguments_with_exit_2() {
    let cases: [(&[&str], &str); 4] = [
        (&["--bogus"], "unknown option --bogus"),
        (&["--seed"], "--seed requires a value"),
        (&["--seed", "x"], "invalid value for --seed: x"),
        (&["--threads", "0"], "--threads must be at least 1"),
    ];
    for (name, _) in BINS {
        for (args, expected) in cases {
            assert_refused(name, args, expected);
        }
    }
}

#[test]
fn every_binary_states_the_exit_contract_in_help() {
    for (name, bin) in BINS {
        let output = run(bin, &["--help"]);
        assert_eq!(output.status.code(), Some(0), "{name}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("exit status: 0 on success, 1 on check/IO failure, 2 on bad arguments"));
        assert!(stdout.contains(&format!("usage: {name}")), "{name}: {stdout}");
        assert!(output.stderr.is_empty(), "{name} wrote to stderr");
    }
}

#[test]
fn zero_sizes_and_thread_lists_are_bad_arguments() {
    let store = temp_dir("zero").display().to_string();
    assert_refused("connreuse-atlas", &["--chunk", "0"], "--chunk must be at least 1");
    assert_refused("connreuse-atlas", &["--bench-threads", "1,0"], "--bench-threads must be at least 1");
    assert_refused(
        "connreuse-serve",
        &["--store", &store, "--chunk-sites", "0"],
        "--chunk-sites must be at least 1",
    );
    // Fleet and chaos sample sessions from the Alexa population, so an
    // empty one cannot run.
    assert_refused("repro", &["--quick", "--alexa-sites", "0", "fleet"], "--alexa-sites must be at least 1");
    for name in ["connreuse-fleet", "connreuse-chaos"] {
        assert_refused(name, &["--check-threads", "0,1"], "--check-threads must be at least 1");
        assert_refused(name, &["--check-threads", "2"], "--check-threads needs at least two thread counts");
    }
}

#[test]
fn two_presets_and_unknown_experiments_are_bad_arguments() {
    assert_refused("connreuse-atlas", &["--quick", "--million"], "--quick and --million cannot be combined");
    let store = temp_dir("presets").display().to_string();
    assert_refused("connreuse-serve", &["--store", &store, "--full", "--quick"], "--quick and --full");
    // Refused before the default scenario (minutes of crawling) is built.
    assert_refused("repro", &["table1", "bogus"], "unknown experiment 'bogus'");
    assert_refused("connreuse-atlas", &["--quick", "--bench-json", "BENCH_atlas.json"], "--quick refuses");
}

#[test]
fn explicit_flags_override_a_preset_in_any_order() {
    let atlas = |args: &[&str]| {
        let output = run(bin("connreuse-atlas"), args);
        assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8(output.stdout).expect("utf-8 report")
    };
    let before = atlas(&["--sites", "8", "--quick", "--threads", "1"]);
    assert_eq!(before, atlas(&["--quick", "--threads", "1", "--sites", "8"]));
    assert!(before.starts_with("## Atlas: 8 sites"), "{before}");

    let serve = |tag: &str, args: &[&str]| {
        let dir = temp_dir(tag);
        let mut argv = vec!["--store", dir.to_str().expect("utf-8 path"), "--build"];
        argv.extend(args);
        let output = run(bin("connreuse-serve"), &argv);
        assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
        std::fs::remove_dir_all(&dir).unwrap();
        String::from_utf8(output.stdout).expect("utf-8 report").lines().next().unwrap_or_default().to_string()
    };
    let header = serve("seed-first", &["--seed", "7", "--quick"]);
    assert_eq!(header, serve("seed-last", &["--quick", "--seed", "7"]));
    assert_eq!(header, "## Shard store: 180 sites in 4 chunks of 45, seed 7");
}

/// One small real report per binary: each reaches its report print.
fn report_args(name: &str, store: &str) -> Vec<String> {
    let args: &[&str] = match name {
        "repro" => {
            &["--quick", "--archive-sites", "12", "--alexa-sites", "12", "--overlap-sites", "4", "table1"]
        }
        "connreuse-serve" => &["--store", store, "--quick", "--build", "--sites", "12"],
        "connreuse-fleet" | "connreuse-chaos" => {
            &["--quick", "--sites", "6", "--sessions", "2", "--threads", "1"]
        }
        "connreuse-atlas" => &["--quick", "--sites", "8", "--threads", "1"],
        _ => &["--sites", "6", "--threads", "1"],
    };
    args.iter().map(|arg| arg.to_string()).collect()
}

/// Runs `bin` with `args` and `stdout` as its standard output; returns the
/// exit code and stderr.
fn run_into(bin: &str, args: &[String], stdout: impl Into<Stdio>) -> (Option<i32>, String) {
    let output = Command::new(bin).args(args).stdout(stdout).output().expect("run binary");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn a_closed_stdout_ends_every_binary_quietly_with_exit_0() {
    let store = temp_dir("closed-stdout");
    for (name, bin) in BINS {
        for args in [vec!["--help".to_string()], report_args(name, store.to_str().expect("utf-8 path"))] {
            let (reader, writer) = std::io::pipe().expect("pipe");
            drop(reader);
            let (code, stderr) = run_into(bin, &args, writer);
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
            assert!(!stderr.contains("error:"), "{name} {args:?}: {stderr}");
            assert_eq!(code, Some(0), "{name} {args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn any_other_stdout_error_is_a_failed_run() {
    // Writes to /dev/full fail with ENOSPC.
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else { return };
    let store = temp_dir("full-stdout");
    for (name, bin) in BINS {
        for args in [vec!["--help".to_string()], report_args(name, store.to_str().expect("utf-8 path"))] {
            let (code, stderr) = run_into(bin, &args, full.try_clone().expect("clone /dev/full"));
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
            assert!(stderr.contains("error: cannot write to stdout"), "{name} {args:?}: {stderr}");
            assert_eq!(code, Some(1), "{name} {args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&store);
}

const FLAGS: &[Flag] = &[
    Flag::value("--seed", "N", "root seed"),
    Flag::value("--threads", "N", "worker threads"),
    Flag::value("--check-threads", "LIST", "thread counts\nto compare"),
    Flag::switch("--quick", "small run"),
    Flag::switch("--full", "large run"),
];
const SPEC: Spec = Spec::new("demo", "a test binary", FLAGS);

fn parse(argv: &[&str]) -> Result<Option<Args<'static>>, CliError> {
    Args::parse(&SPEC, argv.iter().map(|arg| arg.to_string()))
}

fn args(argv: &[&str]) -> Args<'static> {
    parse(argv).expect("valid command line").expect("no --help")
}

#[test]
fn the_usage_is_generated_from_the_flag_table() {
    let usage = SPEC.to_string();
    assert!(usage.starts_with("demo — a test binary\n\nusage: demo [options]\n"), "{usage}");
    for flag in FLAGS {
        assert!(usage.contains(flag.name), "{usage}");
    }
    assert!(
        usage.contains("  --check-threads LIST thread counts\n                       to compare\n"),
        "{usage}"
    );
    assert!(usage.contains("-h, --help"));
    assert!(usage.ends_with(EXIT_STATUS));
    let repro = Spec { operands: "[NAME ...]", notes: "names: a, b", ..SPEC }.to_string();
    assert!(repro.contains("usage: demo [NAME ...] [options]\n\nnames: a, b\n"), "{repro}");
}

#[test]
fn the_argv_pass_refuses_malformed_command_lines() {
    assert_eq!(parse(&["--bogus"]).unwrap_err(), CliError::Unknown("--bogus".into()));
    assert_eq!(parse(&["stray"]).unwrap_err(), CliError::Unknown("stray".into()));
    assert_eq!(parse(&["--quick", "--seed"]).unwrap_err(), CliError::MissingValue("--seed"));
    assert!(parse(&["--seed", "1", "--help"]).unwrap().is_none());
    let operands = Spec { operands: "[NAME ...]", ..SPEC };
    let parsed = Args::parse(&operands, ["a", "--quick", "b"].map(String::from)).unwrap().unwrap();
    assert_eq!(parsed.operands, ["a", "b"]);
}

#[test]
fn the_last_value_wins_and_presets_never_override_it() {
    let mut seed = 0u64;
    args(&["--seed", "1", "--quick", "--seed", "7"]).set("--seed", &mut seed).unwrap();
    assert_eq!(seed, 7);
    assert_eq!(args(&["--seed", "7", "--quick"]).preset(&["--quick", "--full"]), Ok(Some("--quick")));
    assert_eq!(args(&["--quick", "--quick"]).preset(&["--quick", "--full"]), Ok(Some("--quick")));
    assert_eq!(args(&["--seed", "7"]).preset(&["--quick", "--full"]), Ok(None));
    let error = args(&["--full", "--quick"]).preset(&["--quick", "--full"]).unwrap_err();
    assert_eq!(error.to_string(), "--quick and --full cannot be combined");
    let error = args(&["--seed", "x"]).value::<u64>("--seed").unwrap_err();
    assert_eq!(error.to_string(), "invalid value for --seed: x");
}

#[test]
fn counts_must_be_at_least_one() {
    let mut threads = 4;
    let error = args(&["--threads", "0"]).set_count("--threads", &mut threads).unwrap_err();
    assert_eq!(error.to_string(), "--threads must be at least 1");
    assert_eq!(threads, 4);
    args(&["--threads", "3"]).set_count("--threads", &mut threads).unwrap();
    assert_eq!(threads, 3);
    assert_eq!(args(&["--check-threads", "1, 2"]).counts("--check-threads"), Ok(Some(vec![1, 2])));
    assert_eq!(
        args(&["--check-threads", "0,1"]).counts("--check-threads"),
        Err(CliError::zero("--check-threads"))
    );
    let error = args(&["--check-threads", "1,x"]).counts("--check-threads").unwrap_err();
    assert_eq!(error.to_string(), "invalid value for --check-threads: 1,x");
    assert_eq!(args(&[]).counts("--check-threads"), Ok(None));
}

#[test]
#[should_panic(expected = "not in the flag table")]
fn reading_an_undeclared_flag_is_a_bug() {
    args(&[]).has("--sedd");
}

#[test]
fn check_threads_returns_the_checked_report_or_names_the_divergent_count() {
    let mut runs = Vec::new();
    let checked = check_threads(&[1, 2, 4], |threads| {
        runs.push(threads);
        "same".to_string()
    });
    assert_eq!(checked, Ok("same".into()));
    assert_eq!(runs, [1, 2, 4]);
    let diverging = check_threads(&[1, 3], |threads| format!("threads {threads}"));
    assert_eq!(diverging, Err("report at threads=3 differs from threads=1".into()));
}

#[test]
fn write_output_creates_the_parent_directory() {
    let dir = temp_dir("write-output");
    let path = dir.join("nested").join("report.txt");
    write_output(&path, "report").unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "report");
    std::fs::remove_dir_all(&dir).unwrap();
}
