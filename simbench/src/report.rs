//! The one-line JSON record each `simbench` process prints for `run.py`.

use netsim_types::fnv1a;
use std::fmt::{self, Display, Write};

/// A minimal JSON value (the benchmark links no JSON serialiser of its own).
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(key, value)| (key.into(), value)).collect())
    }
}

fn write_str(out: &mut fmt::Formatter<'_>, text: &str) -> fmt::Result {
    out.write_char('"')?;
    for ch in text.chars() {
        match ch {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            ch if (ch as u32) < 0x20 => write!(out, "\\u{:04x}", ch as u32)?,
            ch => out.write_char(ch)?,
        }
    }
    out.write_char('"')
}

impl Display for Json {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(value) => write!(out, "{value}"),
            Json::Int(value) => write!(out, "{value}"),
            Json::Num(value) if value.is_finite() => write!(out, "{value}"),
            Json::Num(_) => out.write_str("null"),
            Json::Str(text) => write_str(out, text),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.write_char(',')?;
                    }
                    write!(out, "{item}")?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.write_char(',')?;
                    }
                    write_str(out, key)?;
                    write!(out, ":{value}")?;
                }
                out.write_char('}')
            }
        }
    }
}

/// The digest pinned for a rendered report, answer or cell.
pub fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// The outcome of one operation (a chunk, a cell or a query).
#[derive(Clone, Debug)]
pub enum Op {
    /// The operation returned; its output digests to this value.
    Done(String),
    /// The operation returned a typed error.
    Failed(String),
}

/// What one execution of the real program produced: the outputs `run.py`
/// checks against the pins, and the counts a rate is computed from.
#[derive(Clone, Debug, Default)]
pub struct Outputs {
    /// Digests of every rendered report (or, for `whatif`, the build report).
    pub reports: Vec<String>,
    /// Per-operation outcomes. Empty when the workload's operations are only
    /// observable through its report (the atlas chunks).
    pub ops: Vec<Op>,
    /// Operations attempted (`ops.len()` unless `ops` is empty).
    pub op_count: usize,
    /// Simulated statistics pinned alongside the digests.
    pub stats: Vec<(&'static str, u64)>,
}

impl Outputs {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("reports", Json::Arr(self.reports.iter().cloned().map(Json::Str).collect())),
            (
                "ops",
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|op| match op {
                            Op::Done(digest) => Json::Str(digest.clone()),
                            Op::Failed(error) => Json::obj([("error", Json::Str(error.clone()))]),
                        })
                        .collect(),
                ),
            ),
            ("op_count", Json::Int(self.op_count as u64)),
            ("stats", Json::obj(self.stats.iter().map(|&(name, value)| (name, Json::Int(value))))),
        ])
    }
}

/// One measured execution: the outputs plus host timings.
#[derive(Clone, Debug)]
pub struct Measured {
    pub outputs: Outputs,
    /// Wall seconds of the measured calls (process start excluded).
    pub wall_s: f64,
    /// Work units completed (sites, session pages or queries).
    pub units: u64,
    /// Latency of each user-visible operation, in milliseconds.
    pub op_ms: Vec<f64>,
}

impl Measured {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("outputs", self.outputs.to_json()),
            ("wall_s", Json::Num(self.wall_s)),
            ("units", Json::Int(self.units)),
            ("op_ms", Json::Arr(self.op_ms.iter().map(|&ms| Json::Num(ms)).collect())),
        ])
    }
}

/// The traced run's result: per-layer values, replica checks, and the real
/// program's outputs the replicas were compared against.
#[derive(Clone, Debug)]
pub struct Traced {
    pub outputs: Outputs,
    /// Wall seconds of the traced replica.
    pub wall_s: f64,
    /// `(check, equal)` for every replica-faithfulness comparison.
    pub replicas: Vec<(String, bool)>,
    /// `(metric, value)` for every per-layer metric the workload measures.
    pub layers: Vec<(&'static str, f64)>,
}

impl Traced {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("outputs", self.outputs.to_json()),
            ("wall_s", Json::Num(self.wall_s)),
            (
                "replicas",
                Json::Arr(
                    self.replicas
                        .iter()
                        .map(|(name, equal)| {
                            Json::obj([("check", Json::Str(name.clone())), ("equal", Json::Bool(*equal))])
                        })
                        .collect(),
                ),
            ),
            ("layers", Json::obj(self.layers.iter().map(|&(name, value)| (name, Json::Num(value))))),
        ])
    }
}
