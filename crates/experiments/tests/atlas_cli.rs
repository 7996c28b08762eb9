//! Exit-status contract of `connreuse-atlas`, exercised through the real
//! binary: 2 with an `error:` line on bad arguments, before any crawl runs.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_connreuse-atlas");

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run connreuse-atlas")
}

#[test]
fn non_finite_or_negative_zipf_exits_2_with_an_error_line() {
    for zipf in ["nan", "NaN", "inf", "-inf", "-0.5"] {
        let output = run(&["--sites", "8", "--chunk", "4", "--zipf", zipf]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "--zipf {zipf}: {stderr}");
        assert!(
            stderr.contains("error: --zipf must be a finite, non-negative exponent"),
            "--zipf {zipf}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&output.stdout).contains("Atlas:"),
            "--zipf {zipf} printed a report"
        );
    }
}

#[test]
fn a_zero_zipf_exponent_still_runs() {
    let output = run(&["--sites", "8", "--chunk", "4", "--threads", "1", "--zipf", "0"]);
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).contains("exponent 0.00"));
}
