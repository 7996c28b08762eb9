//! Exit-status and `--out` contract of the two session binaries,
//! `connreuse-fleet` and `connreuse-chaos`, exercised through the real
//! binaries: 2 on bad arguments, and the report a `--check-threads` run
//! prints is also the one it writes to `--out`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The session binaries under test, by name and path.
const BINS: [(&str, &str); 2] = [
    ("connreuse-fleet", env!("CARGO_BIN_EXE_connreuse-fleet")),
    ("connreuse-chaos", env!("CARGO_BIN_EXE_connreuse-chaos")),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run session binary")
}

#[test]
fn zero_sites_exit_2_with_an_error_line() {
    for (name, bin) in BINS {
        let output = run(bin, &["--sites", "0", "--sessions", "2"]);
        assert_eq!(output.status.code(), Some(2), "{name}: {}", String::from_utf8_lossy(&output.stderr));
        assert!(
            String::from_utf8_lossy(&output.stderr).contains("error: --sites must be at least 1"),
            "{name} must name the bad flag"
        );
    }
}

#[test]
fn check_threads_writes_the_checked_report_to_out() {
    for (name, bin) in BINS {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-checked.txt"));
        let _ = std::fs::remove_file(&out);
        let output = run(
            bin,
            &[
                "--sites",
                "8",
                "--sessions",
                "2",
                "--check-threads",
                "1,2",
                "--out",
                &out.display().to_string(),
            ],
        );
        assert_eq!(output.status.code(), Some(0), "{name}: {}", String::from_utf8_lossy(&output.stderr));
        let written =
            std::fs::read_to_string(&out).unwrap_or_else(|error| panic!("{name} wrote no --out: {error}"));
        // stdout is the report plus `println!`'s newline.
        let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
        assert_eq!(stdout.strip_suffix('\n'), Some(written.as_str()), "{name}: --out differs from stdout");
        assert!(written.contains("seed 20210420"), "{name} wrote an empty or foreign report");
        std::fs::remove_file(&out).unwrap();
    }
}
