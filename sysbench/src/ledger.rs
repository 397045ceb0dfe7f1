//! The per-layer ledger: folds probe traces of the traced replay into
//! per-unit layer times, counters and the decomposition checks.
//!
//! A traced unit (one request, or one stream segment) runs inside a root
//! span [`UNIT`]. Its direct children are the benchmark's own spans around
//! each layer's public calls; spans and counters the program records
//! itself nest below them. Time is attributed two ways:
//!
//! * *inclusive* time per span name — the layer spans are direct children
//!   of the root, so this is each layer's time;
//! * *self* time per span name — duration minus the union of its children's
//!   intervals (children may run on other threads and overlap), used for the
//!   program's own leaf spans such as `wap.sweep`.

use ssp_probe::{SpanRec, Trace};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

/// Root span of one traced unit.
pub const UNIT: &str = "bench.unit";

/// A traced unit's layer spans must cover at least this share of its time.
pub const MIN_COVERAGE: f64 = 0.95;

/// Accumulated traces of a replay.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Units traced (requests, or stream jobs).
    pub units: u64,
    incl_ns: BTreeMap<String, u64>,
    self_ns: BTreeMap<String, u64>,
    spans: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    /// Smallest share of a unit's time covered by its layer spans.
    pub min_coverage: f64,
    /// Wall time of the traced units, and of the same units run untraced.
    pub traced_ns: u64,
    /// See `traced_ns`.
    pub untraced_ns: u64,
}

impl Ledger {
    /// Fold one session's trace in, counting `units` units.
    pub fn absorb(&mut self, trace: &Trace, units: u64) {
        if self.units == 0 {
            self.min_coverage = 1.0;
        }
        self.units += units;
        let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
        for s in &trace.spans {
            children.entry(s.parent).or_default().push(s);
        }
        for s in &trace.spans {
            let covered = covered_ns(s, children.get(&s.id).map_or(&[][..], Vec::as_slice));
            let dur = s.duration_ns();
            *self.incl_ns.entry(s.name.clone()).or_default() += dur;
            *self.self_ns.entry(s.name.clone()).or_default() += dur - covered;
            *self.spans.entry(s.name.clone()).or_default() += 1;
            if s.name == UNIT && dur > 0 {
                self.min_coverage = self.min_coverage.min(covered as f64 / dur as f64);
            }
        }
        for (name, v) in &trace.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
    }

    /// Inclusive milliseconds of spans named `name`.
    pub fn incl_ms(&self, name: &str) -> f64 {
        self.incl_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Self milliseconds of spans named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Number of spans named `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.get(name).copied().unwrap_or(0)
    }

    /// Total of counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `value / units`, the per-unit mean.
    pub fn per_unit(&self, value: f64) -> f64 {
        value / self.units.max(1) as f64
    }
}

fn covered_ns(parent: &SpanRec, children: &[&SpanRec]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// `a / (a + b)`, 0 when both are 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if a + b == 0 {
        0.0
    } else {
        a as f64 / (a + b) as f64
    }
}

/// Writes the first few traced units of a run as span JSONL, one file per
/// unit, under `target/benchmark/<run>/`.
pub struct TraceFiles {
    dir: PathBuf,
    left: usize,
}

impl TraceFiles {
    /// Keep the first `count` units of run `run`.
    pub fn new(run: &str, count: usize) -> TraceFiles {
        TraceFiles {
            dir: Path::new(crate::OUT_DIR).join(run),
            left: count,
        }
    }

    /// Write `trace` as unit `index`, while the quota lasts.
    pub fn keep(&mut self, index: usize, trace: &Trace) -> Result<(), String> {
        if self.left == 0 {
            return Ok(());
        }
        self.left -= 1;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        let path = self.dir.join(format!("unit-{index:04}.trace.jsonl"));
        std::fs::write(&path, trace.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            thread: 1,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            alloc_bytes: 0,
            alloc_count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100 with layer children 0..40 and 40..98; the second has
        // two children on different threads that overlap (50..70, 60..90).
        let trace = Trace {
            spans: vec![
                span(1, 0, UNIT, 0, 100),
                span(2, 1, "migratory.bal", 0, 40),
                span(3, 1, "core.assign", 40, 98),
                span(4, 3, "wap.sweep", 50, 70),
                span(5, 3, "wap.sweep", 60, 90),
            ],
            counters: vec![("bal.rounds".into(), 3)],
            hists: vec![],
            error: None,
        };
        let mut l = Ledger::default();
        l.absorb(&trace, 1);
        l.absorb(&trace, 1);
        assert_eq!(l.units, 2);
        assert_eq!(l.incl_ns["core.assign"], 2 * 58);
        assert_eq!(l.self_ns["core.assign"], 2 * (58 - 40));
        assert_eq!(l.self_ns["wap.sweep"], 2 * 50);
        assert_eq!(l.self_ns[UNIT], 2 * 2);
        assert!((l.min_coverage - 0.98).abs() < 1e-12);
        assert_eq!(l.counter("bal.rounds"), 6);
        assert_eq!(l.span_count("wap.sweep"), 4);
        assert_eq!(l.per_unit(l.incl_ms("migratory.bal")), 40e-6);
    }

    #[test]
    fn ratios_of_empty_counters_are_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(3, 1), 0.75);
    }
}
