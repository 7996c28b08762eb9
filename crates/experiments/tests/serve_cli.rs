//! Exit-status contract of `connreuse-serve`, exercised through the real
//! binary: 0 on success, 1 on store/IO failure, 2 on bad arguments — the
//! same contract every other bin in the workspace states in `--help`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_connreuse-serve")).args(args).output().expect("run connreuse-serve")
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small store flags shared by the tests: 12 sites in chunks of 6.
fn tiny_flags(dir: &Path) -> Vec<String> {
    vec![
        "--store".into(),
        dir.display().to_string(),
        "--sites".into(),
        "12".into(),
        "--chunk-sites".into(),
        "6".into(),
        "--threads".into(),
        "2".into(),
    ]
}

#[test]
fn help_states_the_exit_status_contract() {
    let output = serve(&["--help"]);
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("exit status: 0 on success, 1 on check/IO failure, 2 on bad arguments"));
    assert!(text.contains("--store DIR"));
    assert!(text.contains("mitigations=<label>"));
}

#[test]
fn bad_arguments_exit_2() {
    // Unknown flag.
    assert_eq!(serve(&["--warp-speed"]).status.code(), Some(2));
    // Missing required --store.
    assert_eq!(serve(&["--build"]).status.code(), Some(2));
    // Malformed query grammar (checked before any build work).
    let dir = temp_store("badquery");
    let mut args = tiny_flags(&dir);
    args.extend(["--build".into(), "--query".into(), "mitigations=WARP-DRIVE".into()]);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown mitigation"));
    // Misaligned rank slice.
    let mut args = tiny_flags(&dir);
    args.extend(["--build".into(), "--query".into(), "mitigations=none ranks=1..12".into()]);
    assert_eq!(serve(&args.iter().map(String::as_str).collect::<Vec<_>>()).status.code(), Some(2));
}

#[test]
fn missing_store_without_build_exits_1() {
    let dir = temp_store("absent");
    let args = tiny_flags(&dir);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("missing file"));
}

#[test]
fn build_then_serve_round_trips_and_rewrites_nothing() {
    let dir = temp_store("roundtrip");

    // Build + answer a rank-slice what-if in one invocation.
    let mut args = tiny_flags(&dir);
    args.extend([
        "--build".into(),
        "--query".into(),
        "mitigations=all profile=lossy-cellular ranks=0..6".into(),
    ]);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(0), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("shards rewritten: 2"));
    assert!(text.contains("What-if: mitigations=ORIGIN+SYNC-DNS+COALESCE-CERT+POOL-CRED"));
    assert!(text.contains("ranks=0..6"));

    // A second --build over the same config rewrites zero shards.
    let mut args = tiny_flags(&dir);
    args.push("--build".into());
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("shards rewritten: 0"));

    // Serve-only answers from the persisted store (no --build).
    let args = tiny_flags(&dir);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("What-if:"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_and_foreign_stores_exit_1() {
    let dir = temp_store("corrupt");
    let mut args = tiny_flags(&dir);
    args.push("--build".into());
    assert_eq!(serve(&args.iter().map(String::as_str).collect::<Vec<_>>()).status.code(), Some(0));

    // Flip a byte in a shard: serving must refuse with the checksum error.
    let victim = dir.join("shards").join("chunk-000000.shard");
    let mut bytes = std::fs::read(&victim).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    let args = tiny_flags(&dir);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("checksum mismatch"));

    // A different seed is a different fingerprint: refused before any read.
    let mut args = tiny_flags(&dir);
    args.extend(["--seed".into(), "999".into()]);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("fingerprint"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_million_deep_manifest_exits_1() {
    let dir = temp_store("deep");
    let mut args = tiny_flags(&dir);
    args.push("--build".into());
    assert_eq!(serve(&args.iter().map(String::as_str).collect::<Vec<_>>()).status.code(), Some(0));

    let depth = 1_000_000;
    std::fs::write(dir.join("MANIFEST.json"), "[".repeat(depth) + &"]".repeat(depth)).unwrap();
    let mut args = tiny_flags(&dir);
    args.extend(["--query".into(), "mitigations=none".into()]);
    let output = serve(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("error: corrupt manifest"), "{stderr}");
    assert!(stderr.contains("expected `{` at byte 0"), "{stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}
