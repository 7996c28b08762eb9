//! Golden-snapshot regression test for the experiment table.
//!
//! Every entry of `runner::EXPERIMENTS` is rendered under
//! `ScenarioConfig::quick()` and compared byte-for-byte against its snapshot
//! in `tests/golden/<name>.txt`. Any drift in the pipeline — population
//! generation, crawling, classification, rendering — shows up as a diff
//! here instead of silently changing the reproduced tables.
//!
//! To refresh the snapshots after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_experiments
//! ```
//!
//! The quick scenario pins every seed and thread counts only shard the work
//! (see `tests/determinism.rs`), so the snapshots are machine-independent.

use connreuse::experiments::{run_experiment, Scenario, ScenarioConfig, EXPERIMENTS};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(format!("{name}.txt"))
}

#[test]
fn every_experiment_matches_its_golden_snapshot() {
    let scenario = Scenario::new(ScenarioConfig::quick());
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut failures: Vec<String> = Vec::new();

    for name in EXPERIMENTS {
        let output = run_experiment(name, &scenario).unwrap_or_else(|e| panic!("{name}: {e}"));
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
            std::fs::write(&path, &output.text).expect("write golden snapshot");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == output.text => {}
            Ok(expected) => {
                let changed = expected
                    .lines()
                    .zip(output.text.lines())
                    .position(|(a, b)| a != b)
                    .map(|line| format!("first differing line {}", line + 1))
                    .unwrap_or_else(|| "differs in length".to_string());
                failures.push(format!("{name}: output drifted from snapshot ({changed})"));
            }
            Err(error) => failures.push(format!("{name}: cannot read {}: {error}", path.display())),
        }
    }

    assert!(
        failures.is_empty(),
        "experiment outputs drifted from tests/golden/ — if the change is intentional, \
         regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_experiments`:\n{}",
        failures.join("\n")
    );
}
