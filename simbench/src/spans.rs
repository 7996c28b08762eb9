//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded around calls into the simulator's public API, kept in
//! memory (one [`SpanLog`] per thread, merged when the work is done) and
//! written out when the run ends. Every span carries the identifier of the
//! operation it belongs to (a chunk, a cell or a query), so a layer's work is
//! attributed to its operation even when it ran on a worker thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Envelope and grouping spans: they stand for an operation (or a group of
/// its steps) rather than for one layer's work, so they never count toward
/// coverage.
const GROUPS: [&str; 5] =
    ["atlas.chunk", "sessions.combo", "sessions.cell", "whatif.build_chunk", "whatif.query"];

fn is_group(name: &str) -> bool {
    GROUPS.contains(&name)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u32,
    /// The thread's worker index (the caller thread is `u32::MAX`).
    pub worker: u32,
    /// Index of the enclosing span on the same thread, or `NO_PARENT`.
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's spans, in the order they were opened.
#[derive(Debug, Default)]
pub struct SpanLog {
    worker: u32,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new(worker: usize) -> Self {
        SpanLog { worker: worker as u32, ..SpanLog::default() }
    }

    /// The caller thread's log.
    pub fn caller() -> Self {
        SpanLog { worker: u32::MAX, ..SpanLog::default() }
    }

    /// Attribute the spans opened from now on to operation `op`.
    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = now_ns();
        self.spans.push(Span { name, op: self.op, worker: self.worker, parent, start, end: start });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close in the order they opened");
        self.spans[id as usize].end = now_ns();
    }

    /// Run `work` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = work();
        self.close(id);
        result
    }

    /// Duration of span `id` (closed).
    pub fn nanos(&self, id: u32) -> u64 {
        self.spans[id as usize].nanos()
    }

    /// Hand over the spans recorded so far, keeping this log's worker and
    /// operation for the spans still to come.
    pub fn take_spans(&mut self) -> SpanLog {
        assert!(self.open.is_empty(), "only finished spans are handed over");
        SpanLog { worker: self.worker, op: self.op, spans: std::mem::take(&mut self.spans), open: Vec::new() }
    }

    /// Move another thread's spans into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        assert!(other.open.is_empty(), "only finished logs are merged");
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            parent: if span.parent == NO_PARENT { NO_PARENT } else { span.parent + offset },
            ..span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tworker\tparent\tname\tstart_ns\tend_ns")?;
        for span in &self.spans {
            let worker = if span.worker == u32::MAX { -1 } else { i64::from(span.worker) };
            let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.op, worker, parent, span.name, span.start, span.end
            )?;
        }
        out.flush()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children on the same thread cover.
    pub fn self_nanos(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                children[span.parent as usize] += span.nanos();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(children) {
            *totals.entry(span.name).or_insert(0) += span.nanos().saturating_sub(child);
        }
        totals
    }

    /// Share of envelope time covered by layer spans: for every operation,
    /// the union of its layer spans' intervals (on any thread) clipped to
    /// its envelope, summed over operations and divided by the summed
    /// envelope durations.
    pub fn coverage(&self) -> f64 {
        /// One operation's envelope and layer-span intervals.
        #[derive(Default)]
        struct Op {
            envelope: Option<(u64, u64)>,
            layers: Vec<(u64, u64)>,
        }
        let mut by_op: BTreeMap<u32, Op> = BTreeMap::new();
        for span in &self.spans {
            let op = by_op.entry(span.op).or_default();
            if !is_group(span.name) {
                op.layers.push((span.start, span.end));
            } else if span.parent == NO_PARENT {
                op.envelope = Some((span.start, span.end));
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for Op { envelope, mut layers } in by_op.into_values() {
            let Some((lo, hi)) = envelope else { continue };
            total += hi - lo;
            layers.sort_unstable();
            let mut reach = lo;
            for (start, end) in layers {
                let (start, end) = (start.max(reach), end.min(hi));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }
}

/// Per-worker busy time of one parallel region, for the executor metrics.
#[derive(Clone, Debug, Default)]
pub struct Busy {
    /// Task nanoseconds summed over every region.
    pub task_nanos: u64,
    /// `workers × wall` summed over every region.
    pub capacity_nanos: u64,
    /// The busiest worker's nanoseconds, summed over regions.
    pub max_worker_nanos: u64,
    /// The mean worker's nanoseconds, summed over regions.
    pub mean_worker_nanos: f64,
}

impl Busy {
    /// Record one region: `per_worker[i]` is worker `i`'s task time.
    pub fn region(&mut self, per_worker: &[u64], wall_nanos: u64) {
        let workers = per_worker.len().max(1);
        let sum: u64 = per_worker.iter().sum();
        self.task_nanos += sum;
        self.capacity_nanos += workers as u64 * wall_nanos;
        self.max_worker_nanos += per_worker.iter().copied().max().unwrap_or(0);
        self.mean_worker_nanos += sum as f64 / workers as f64;
    }

    /// Task time over `workers × wall`.
    pub fn busy_ratio(&self) -> f64 {
        ratio(self.task_nanos as f64, self.capacity_nanos as f64)
    }

    /// Busiest worker over the mean worker.
    pub fn imbalance(&self) -> f64 {
        ratio(self.max_worker_nanos as f64, self.mean_worker_nanos)
    }
}

/// `numerator / denominator`, or 0 for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: u32, start: u64, end: u64) -> Span {
        Span { name, op, worker: 0, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let log = SpanLog {
            spans: vec![
                span("atlas.chunk", 0, NO_PARENT, 0, 100),
                span("browser.visit", 0, 0, 10, 50),
                span("core.classify", 0, 0, 50, 70),
            ],
            ..SpanLog::default()
        };
        let totals = log.self_nanos();
        assert_eq!(totals["atlas.chunk"], 40);
        assert_eq!(totals["browser.visit"], 40);
        assert_eq!(totals["core.classify"], 20);
        assert!((log.coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_overlapping_worker_spans_once() {
        let log = SpanLog {
            spans: vec![
                span("whatif.query", 3, NO_PARENT, 0, 100),
                span("store.read_chunk", 3, NO_PARENT, 0, 60),
                span("store.read_chunk", 3, NO_PARENT, 20, 80),
                span("core.merge", 3, 0, 90, 120),
            ],
            ..SpanLog::default()
        };
        assert!((log.coverage() - 0.9).abs() < 1e-12);
    }
}
