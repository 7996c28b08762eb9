//! Rendering and serialising the hotpath profiler's stage tables.
//!
//! The collector lives in [`netsim_types::profile`]; this module is the
//! reporting side `connreuse-atlas --profile` uses:
//!
//! * [`render_stage_table`] — the human-readable per-stage table, printed to
//!   **stderr** next to the throughput metrics (stage timings are wall-clock
//!   and machine-dependent, so they must never contaminate the deterministic
//!   stdout report — the same rule `AtlasMetrics` follows),
//! * [`ProfileFile`] — the machine-readable `--profile-json` schema the
//!   bench guard's per-stage budget check reads. Budgets live in the
//!   committed `BENCH_stages.json` baseline: one `max_share` per stage name,
//!   compared against each fresh record's `share` field (see
//!   `scripts/bench_guard.sh` and the PERF.md runbook).
//!
//! Shares are of [`StageTable::measured_total_nanos`] — the visit stages
//! only. The `generate` row and the scaffold `chunk-loop` row still appear
//! in both outputs, with no share and no budget: the envelope's total is the
//! wall-clock bound, and the rendered table reports the *coverage* of every
//! named stage within it ([`StageTable::covered_nanos`]).

use crate::render::TextTable;
use netsim_types::profile::{Stage, StageTable};
use netsim_types::Json;

/// Schema version of [`ProfileFile`]. Version 1: `stages` rows with
/// `stage` / `count` / `total_nanos` / `min_nanos` / `max_nanos` /
/// `mean_nanos` / `share` fields.
pub const PROFILE_SCHEMA: u32 = 1;

/// One stage's aggregate, flattened for the JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRecord {
    /// Stable stage name ([`Stage::name`]) — the budget key.
    pub stage: String,
    /// Times the stage scope ran.
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_nanos: u64,
    /// Fastest single entry.
    pub min_nanos: u64,
    /// Slowest single entry.
    pub max_nanos: u64,
    /// Mean nanoseconds per entry.
    pub mean_nanos: f64,
    /// Share of the measured (visit-stage) total, in `[0, 1]`; `0` for the
    /// `generate` and scaffold rows.
    pub share: f64,
}

/// The `--profile-json` file: every stage that recorded at least once.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileFile {
    /// Schema version ([`PROFILE_SCHEMA`]).
    pub schema: u32,
    /// Per-stage records, in [`Stage::ALL`] order, empty rows omitted.
    pub stages: Vec<ProfileRecord>,
}

impl ProfileFile {
    /// Flatten a merged stage table into the file's schema.
    pub fn from_table(table: &StageTable) -> Self {
        let stages = table
            .iter()
            .filter(|(_, stats)| stats.count > 0)
            .map(|(stage, stats)| ProfileRecord {
                stage: stage.name().to_string(),
                count: stats.count,
                total_nanos: stats.total_nanos,
                min_nanos: stats.min_nanos,
                max_nanos: stats.max_nanos,
                mean_nanos: stats.mean_nanos(),
                share: table.share_of_measured(stage),
            })
            .collect();
        ProfileFile { schema: PROFILE_SCHEMA, stages }
    }

    /// The file's JSON value, fields in declaration order.
    pub fn to_json(&self) -> Json {
        let record = |record: &ProfileRecord| {
            Json::obj([
                ("stage", Json::str(&record.stage)),
                ("count", record.count.into()),
                ("total_nanos", record.total_nanos.into()),
                ("min_nanos", record.min_nanos.into()),
                ("max_nanos", record.max_nanos.into()),
                ("mean_nanos", record.mean_nanos.into()),
                ("share", record.share.into()),
            ])
        };
        Json::obj([("schema", self.schema.into()), ("stages", Json::arr(&self.stages, record))])
    }
}

/// Render the merged stage table as a human-readable text table (one row
/// per stage that ran, plus a coverage line relating the named stages to
/// the scaffold envelope). Returns a diagnostic hint instead when the table
/// is empty.
pub fn render_stage_table(table: &StageTable) -> String {
    if table.is_empty() {
        return "profile: no stages recorded (nothing ran inside instrumented scopes)\n".to_string();
    }

    let mut text_table = TextTable::new(
        "Hotpath stages (wall-clock, merged across workers)",
        &["stage", "count", "total ms", "mean µs", "min µs", "max µs", "share"],
    );
    for (stage, stats) in table.iter() {
        if stats.count == 0 {
            continue;
        }
        let share = if !stage.is_visit() {
            "—".to_string()
        } else {
            format!("{:.1} %", table.share_of_measured(stage) * 100.0)
        };
        text_table.push_row([
            stage.name().to_string(),
            stats.count.to_string(),
            format!("{:.2}", stats.total_nanos as f64 / 1e6),
            format!("{:.2}", stats.mean_nanos() / 1e3),
            format!("{:.2}", stats.min_nanos as f64 / 1e3),
            format!("{:.2}", stats.max_nanos as f64 / 1e3),
            share,
        ]);
    }

    let mut out = text_table.render();
    let envelope = table.stats(Stage::ChunkLoop).total_nanos;
    if envelope > 0 {
        out.push_str(&format!(
            "named stages cover {:.1} % of the chunk-loop envelope (rest: scheduling, \
             unprofiled glue)\n",
            table.covered_nanos() as f64 / envelope as f64 * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> StageTable {
        let mut table = StageTable::new();
        for nanos in [1_000, 3_000] {
            table.record(Stage::DnsWalk, nanos);
        }
        table.record(Stage::Handshake, 6_000);
        table.record(Stage::Generate, 2_000);
        table.record(Stage::ChunkLoop, 20_000);
        table
    }

    #[test]
    fn profile_file_flattens_non_empty_rows_with_shares() {
        let file = ProfileFile::from_table(&sample_table());
        assert_eq!(file.schema, PROFILE_SCHEMA);
        let names: Vec<&str> = file.stages.iter().map(|row| row.stage.as_str()).collect();
        assert_eq!(names, vec!["dns-walk", "handshake", "generate", "chunk-loop"]);
        let dns = &file.stages[0];
        assert_eq!((dns.count, dns.total_nanos, dns.min_nanos, dns.max_nanos), (2, 4_000, 1_000, 3_000));
        assert_eq!(dns.mean_nanos, 2_000.0);
        assert_eq!(dns.share, 0.4);
        // Generation and the scaffold envelope are recorded but budget-free.
        assert_eq!(file.stages[2].share, 0.0);
        assert_eq!(file.stages[3].share, 0.0);
    }

    #[test]
    fn profile_json_is_pinned() {
        let expected = "{\n  \"schema\": 1,\n  \"stages\": [\n    {\n      \"stage\": \"dns-walk\",\n      \
            \"count\": 2,\n      \"total_nanos\": 4000,\n      \"min_nanos\": 1000,\n      \"max_nanos\": 3000,\n      \
            \"mean_nanos\": 2000.0,\n      \"share\": 0.4\n    },\n    {\n      \"stage\": \"handshake\",\n      \
            \"count\": 1,\n      \"total_nanos\": 6000,\n      \"min_nanos\": 6000,\n      \"max_nanos\": 6000,\n      \
            \"mean_nanos\": 6000.0,\n      \"share\": 0.6\n    },\n    {\n      \"stage\": \"generate\",\n      \
            \"count\": 1,\n      \"total_nanos\": 2000,\n      \"min_nanos\": 2000,\n      \"max_nanos\": 2000,\n      \
            \"mean_nanos\": 2000.0,\n      \"share\": 0.0\n    },\n    {\n      \"stage\": \"chunk-loop\",\n      \
            \"count\": 1,\n      \"total_nanos\": 20000,\n      \"min_nanos\": 20000,\n      \"max_nanos\": 20000,\n      \
            \"mean_nanos\": 20000.0,\n      \"share\": 0.0\n    }\n  ]\n}";
        assert_eq!(ProfileFile::from_table(&sample_table()).to_json().to_pretty(), expected);
        assert_eq!(
            ProfileFile::from_table(&StageTable::new()).to_json().to_pretty(),
            "{\n  \"schema\": 1,\n  \"stages\": []\n}"
        );
    }

    #[test]
    fn rendered_table_names_every_recorded_stage() {
        let text = render_stage_table(&sample_table());
        assert!(text.contains("dns-walk"));
        assert!(text.contains("handshake"));
        assert!(text.contains("generate"));
        assert!(text.contains("chunk-loop"));
        assert!(text.contains("40.0 %"), "dns-walk share of the measured total:\n{text}");
        assert!(text.contains("cover 60.0 %"), "coverage of the scaffold envelope:\n{text}");
    }

    #[test]
    fn empty_table_renders_a_hint_not_a_table() {
        let text = render_stage_table(&StageTable::new());
        assert!(text.starts_with("profile:"));
        assert!(!text.contains("rebuild"), "every build collects once --profile turns it on:\n{text}");
    }
}
