//! The bench-data model: the one reader of everything
//! [`crate::artifact`] writes, and the `bench-diff` regression gate.
//!
//! The bench harness writes two kinds of artifacts (see
//! `docs/OBSERVABILITY.md`):
//!
//! * **Snapshots** — one pretty-printed JSON object per file
//!   (`BENCH_yds.json`): `{"bench":..., "unit":..., "cells":[{...}, ...]}`.
//! * **Trajectories** — `BENCH_history.jsonl`, one flat-written JSON object
//!   per line with `"type":"bench_run"`, the git `rev`, and the same cells;
//!   appended by every measured bench run.
//!
//! Both are read with the workspace codec ([`ssp_probe::json`]). Cells are
//! keyed by [`cell_from`] — their string-valued fields plus `n` (e.g.
//! `family=agreeable,n=200`) — and compared on their `*_ms` fields; other
//! numeric fields (speedups, counters, energies) ride along as context but
//! are not gated. The writer emits a non-finite metric as `null`, which
//! reads back as a `NaN` metric for the readers to drop.

use ssp_probe::json::{self, Json};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Bench artifacts
// ---------------------------------------------------------------------------

/// One measured cell: a stable key (string fields + `n`) and its timing
/// metrics (every `*_ms` field).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Stable identity, e.g. `family=agreeable,n=200`.
    pub key: String,
    /// `(name, milliseconds)` for every `*_ms` field, in artifact order.
    pub metrics: Vec<(String, f64)>,
}

/// A parsed bench artifact: either one snapshot object or the last run of a
/// `BENCH_history.jsonl` trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArtifact {
    /// Bench id (`"yds_kernel"`); empty if the artifact does not carry one.
    pub bench: String,
    /// Git revision for history lines; `None` for snapshot files.
    pub rev: Option<String>,
    /// The measured cells.
    pub cells: Vec<BenchCell>,
}

/// Parse a bench artifact from file text. A single JSON object is read as a
/// snapshot; multi-line text is treated as a history trajectory and the
/// *last* line carrying a `cells` array wins (the most recent run).
pub fn parse_artifact(text: &str) -> Result<BenchArtifact, String> {
    // Snapshots are one (possibly pretty-printed) document; history files
    // are strict JSONL. Try the whole text first, then fall back to the
    // last history line carrying cells (the most recent run).
    let doc = match json::parse(text.trim()) {
        Ok(doc) => doc,
        Err(whole_err) => text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .rev()
            .find_map(|l| json::parse(l).ok().filter(|j| j.get("cells").is_some()))
            .ok_or_else(|| {
                format!(
                    "neither a JSON snapshot ({whole_err}) nor a JSONL history with a 'cells' line"
                )
            })?,
    };
    let cells = doc
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| "artifact has no 'cells' array".to_string())?;
    Ok(BenchArtifact {
        bench: doc
            .get("bench")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        rev: doc.get("rev").and_then(Json::as_str).map(str::to_string),
        cells: cells.iter().map(cell_from).collect(),
    })
}

/// One `bench_run` line of a `BENCH_history.jsonl` trajectory, with the
/// run-level environment metadata newer writers append (`None` on v1
/// lines, which carried none).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRun {
    /// Bench id (`"yds_kernel"`).
    pub bench: String,
    /// Short git revision the run was taken at.
    pub rev: String,
    /// Unix timestamp of the HEAD commit at run time.
    pub ts: Option<f64>,
    /// Effective worker thread count of the run.
    pub threads: Option<u64>,
    /// Host fingerprint (hex hash); cross-host comparisons are noise.
    pub host: Option<String>,
    /// The measured cells, deduplicated by key (first occurrence wins).
    pub cells: Vec<BenchCell>,
}

/// Parse a whole history trajectory: every `bench_run` line, in file
/// order, with per-line resilience. Malformed lines (e.g. a run killed
/// mid-append leaving a truncated tail), duplicate cell keys within one
/// run, and non-finite `*_ms` metrics are *skipped with a warning* rather
/// than failing the parse — one bad append must not take down the whole
/// trajectory report. Lines that parse but are not `bench_run` records
/// are ignored silently (the file format admits other record types).
pub fn parse_history(text: &str) -> (Vec<BenchRun>, Vec<String>) {
    let mut runs = Vec::new();
    let mut warnings = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let doc = match json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                warnings.push(format!("line {lineno}: skipped unparseable line ({e})"));
                continue;
            }
        };
        if doc.get("type").and_then(Json::as_str) != Some("bench_run") {
            continue;
        }
        let Some(cells) = doc.get("cells").and_then(Json::as_arr) else {
            warnings.push(format!("line {lineno}: bench_run without a 'cells' array"));
            continue;
        };
        let mut run = BenchRun {
            bench: doc
                .get("bench")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            rev: doc
                .get("rev")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            ts: doc.get("ts").and_then(Json::as_f64),
            threads: doc
                .get("threads")
                .and_then(Json::as_f64)
                .filter(|t| t.is_finite() && *t >= 0.0)
                .map(|t| t as u64),
            host: doc.get("host").and_then(Json::as_str).map(str::to_string),
            cells: Vec::new(),
        };
        for cell in cells {
            let mut parsed = cell_from(cell);
            parsed.metrics.retain(|(name, v)| {
                if v.is_finite() {
                    true
                } else {
                    warnings.push(format!(
                        "line {lineno}: dropped non-finite metric {name} of cell {}",
                        parsed.key
                    ));
                    false
                }
            });
            if run.cells.iter().any(|c| c.key == parsed.key) {
                warnings.push(format!(
                    "line {lineno}: duplicate cell {} (kept the first)",
                    parsed.key
                ));
                continue;
            }
            run.cells.push(parsed);
        }
        runs.push(run);
    }
    (runs, warnings)
}

/// The one cell-keying rule: key = string fields plus `n` (in member
/// order); metrics = `*_ms` fields, a `null` one (the writer's non-finite
/// value) as `NaN`.
pub fn cell_from(obj: &Json) -> BenchCell {
    let mut key = String::new();
    let mut metrics = Vec::new();
    if let Json::Obj(members) = obj {
        for (name, value) in members {
            match value {
                Json::Str(s) => {
                    if !key.is_empty() {
                        key.push(',');
                    }
                    let _ = write!(key, "{name}={s}");
                }
                Json::Num(v) if name == "n" => {
                    if !key.is_empty() {
                        key.push(',');
                    }
                    let _ = write!(key, "n={v}");
                }
                Json::Num(v) if name.ends_with("_ms") => {
                    metrics.push((name.clone(), *v));
                }
                Json::Null if name.ends_with("_ms") => {
                    metrics.push((name.clone(), f64::NAN));
                }
                _ => {}
            }
        }
    }
    BenchCell { key, metrics }
}

// ---------------------------------------------------------------------------
// The regression gate
// ---------------------------------------------------------------------------

/// One compared metric in [`BenchDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Cell key (`family=...,n=...`).
    pub key: String,
    /// Metric name (`fast_ms`, `ref_ms`, ...).
    pub metric: String,
    /// Old (baseline) milliseconds.
    pub old_ms: f64,
    /// New milliseconds.
    pub new_ms: f64,
    /// Relative change, `new/old - 1`.
    pub delta: f64,
    /// Past the threshold *and* above the noise floor.
    pub regressed: bool,
}

/// The result of comparing two bench artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Every metric present in both artifacts, in new-artifact order.
    pub rows: Vec<DiffRow>,
    /// Cell keys present in the baseline but gone from the new artifact.
    pub missing: Vec<String>,
    /// Cell keys new in this run (no baseline to compare).
    pub added: Vec<String>,
    /// The relative regression threshold used (fraction, e.g. `0.10`).
    pub threshold: f64,
    /// The noise floor used: cells whose new median is below this many
    /// milliseconds are reported but never gate (tiny-n cells are
    /// dominated by fixed kernel overhead and timer noise).
    pub min_ms: f64,
}

impl BenchDiff {
    /// Number of gating regressions.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// Human-readable comparison table; regressions are flagged with `!`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:<10} {:>10} {:>10} {:>9}",
            "cell", "metric", "old", "new", "delta"
        );
        for r in &self.rows {
            let flag = if r.regressed {
                " !"
            } else if r.delta.abs() >= self.threshold {
                // Crossed the threshold but under the noise floor (or an
                // improvement): visible, not gating.
                " ~"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<36} {:<10} {:>10.4} {:>10.4} {:>+8.1}%{flag}",
                r.key,
                r.metric,
                r.old_ms,
                r.new_ms,
                r.delta * 100.0
            );
        }
        for key in &self.missing {
            let _ = writeln!(out, "{key:<36} missing from new artifact");
        }
        for key in &self.added {
            let _ = writeln!(out, "{key:<36} new cell (no baseline)");
        }
        let n = self.regressions();
        let _ = writeln!(
            out,
            "{n} regression(s) past {:.0}% (noise floor {} ms)",
            self.threshold * 100.0,
            self.min_ms
        );
        out
    }
}

/// Compare `new` against the `old` baseline. A row gates (`regressed`)
/// when [`ssp_probe::calib::crosses`] says so with `threshold` as the
/// band: its relative slowdown reaches `threshold` and the new median is
/// at least `min_ms` (sub-floor cells — e.g. the n=50 YDS cells, which sit
/// in fixed-overhead territory — never gate). Artifacts of different
/// benches, or sharing no metric, are an error: a comparison of nothing
/// must not pass as a clean one.
pub fn diff_artifacts(
    old: &BenchArtifact,
    new: &BenchArtifact,
    threshold: f64,
    min_ms: f64,
) -> Result<BenchDiff, String> {
    if old.bench != new.bench {
        return Err(format!(
            "the artifacts are different benches ('{}' vs '{}')",
            old.bench, new.bench
        ));
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    let mut added = Vec::new();
    for cell in &new.cells {
        let Some(base) = old.cells.iter().find(|c| c.key == cell.key) else {
            added.push(cell.key.clone());
            continue;
        };
        for (metric, new_ms) in &cell.metrics {
            let Some(&(_, old_ms)) = base.metrics.iter().find(|(m, _)| m == metric) else {
                continue;
            };
            let delta = if old_ms > 0.0 {
                new_ms / old_ms - 1.0
            } else {
                0.0
            };
            rows.push(DiffRow {
                key: cell.key.clone(),
                metric: metric.clone(),
                old_ms,
                new_ms: *new_ms,
                delta,
                regressed: ssp_probe::calib::crosses(*new_ms, old_ms, threshold, min_ms),
            });
        }
    }
    for cell in &old.cells {
        if !new.cells.iter().any(|c| c.key == cell.key) {
            missing.push(cell.key.clone());
        }
    }
    if rows.is_empty() {
        return Err(format!("the '{}' artifacts share no metric", new.bench));
    }
    Ok(BenchDiff {
        rows,
        missing,
        added,
        threshold,
        min_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(fast_200: f64) -> String {
        format!(
            r#"{{"bench":"yds_kernel","alpha":2.0,"unit":"ms_median","cells":[
  {{"family":"agreeable","n":50,"fast_ms":0.007,"ref_ms":0.006,"speedup":0.89}},
  {{"family":"agreeable","n":200,"fast_ms":{fast_200},"ref_ms":0.350,"speedup":3.1}}
]}}"#
        )
    }

    #[test]
    fn artifact_cells_key_on_family_and_n() {
        let art = parse_artifact(&snapshot(0.113)).unwrap();
        assert_eq!(art.bench, "yds_kernel");
        assert_eq!(art.cells.len(), 2);
        assert_eq!(art.cells[1].key, "family=agreeable,n=200");
        assert_eq!(
            art.cells[1].metrics,
            vec![("fast_ms".to_string(), 0.113), ("ref_ms".to_string(), 0.35)]
        );
    }

    #[test]
    fn history_takes_the_last_run() {
        let history = format!(
            "{}\n{}\n",
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"aaa111","cells":[{"family":"agreeable","n":200,"fast_ms":0.100}]}"#,
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"bbb222","cells":[{"family":"agreeable","n":200,"fast_ms":0.120}]}"#
        );
        let art = parse_artifact(&history).unwrap();
        assert_eq!(art.rev.as_deref(), Some("bbb222"));
        assert_eq!(art.cells[0].metrics[0].1, 0.120);
    }

    #[test]
    fn unchanged_artifact_passes_and_regression_gates() {
        let old = parse_artifact(&snapshot(0.113)).unwrap();
        let same = diff_artifacts(&old, &old, 0.10, 0.05).unwrap();
        assert_eq!(same.regressions(), 0);
        // 10% injected regression on the n=200 cell: gates.
        let slow = parse_artifact(&snapshot(0.113 * 1.101)).unwrap();
        let diff = diff_artifacts(&old, &slow, 0.10, 0.05).unwrap();
        assert_eq!(diff.regressions(), 1);
        let row = diff.rows.iter().find(|r| r.regressed).unwrap();
        assert_eq!(row.key, "family=agreeable,n=200");
        assert_eq!(row.metric, "fast_ms");
        assert!(diff.render().contains('!'));
    }

    #[test]
    fn noise_floor_shields_tiny_cells() {
        // Double the n=50 cell (0.007 → 0.014 ms): far past 10%, but the
        // new value is below the 0.05 ms floor, so it must not gate.
        let old = parse_artifact(&snapshot(0.113)).unwrap();
        let mut slow = old.clone();
        slow.cells[0].metrics[0].1 = 0.014;
        let diff = diff_artifacts(&old, &slow, 0.10, 0.05).unwrap();
        assert_eq!(diff.regressions(), 0);
        assert!(diff.render().contains('~'), "visible but not gating");
    }

    /// Writer/reader contract: everything `crate::artifact` emits —
    /// snapshot and history line alike — must parse back here with the
    /// same keys and gated metrics.
    #[test]
    fn bench_writer_output_round_trips() {
        use crate::artifact::{Artifact, CellBuilder};
        let artifact = Artifact {
            bench: "yds_kernel".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new("crossing", 800)
                .metric_ms("fast_ms", 1.25)
                .metric_ms("ref_ms", 14.5)
                .num("speedup", 11.6, 2)
                .int("peels", 220)
                .render()],
        };
        for text in [
            artifact.snapshot_json(),
            artifact.history_line("abc1234") + "\n",
        ] {
            let parsed = parse_artifact(&text).unwrap();
            assert_eq!(parsed.bench, "yds_kernel");
            assert_eq!(parsed.cells.len(), 1);
            assert_eq!(parsed.cells[0].key, "family=crossing,n=800");
            assert_eq!(
                parsed.cells[0].metrics,
                vec![("fast_ms".to_string(), 1.25), ("ref_ms".to_string(), 14.5)]
            );
        }
        assert_eq!(
            parse_artifact(&artifact.history_line("abc1234"))
                .unwrap()
                .rev
                .as_deref(),
            Some("abc1234")
        );
    }

    #[test]
    fn history_parses_all_runs_with_metadata() {
        let text = format!(
            "{}\n{}\n",
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"aaa111","cells":[{"family":"agreeable","n":200,"fast_ms":0.100}]}"#,
            r#"{"type":"bench_run","bench":"yds_kernel","rev":"bbb222","alpha":2,"unit":"ms_median","ts":1754500000,"threads":4,"host":"ab12cd34","cells":[{"family":"agreeable","n":200,"fast_ms":0.120}]}"#
        );
        let (runs, warnings) = parse_history(&text);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(runs.len(), 2);
        // v1 line: no metadata.
        assert_eq!(runs[0].rev, "aaa111");
        assert_eq!(runs[0].ts, None);
        assert_eq!(runs[0].threads, None);
        assert_eq!(runs[0].host, None);
        // v2 line: all three fields.
        assert_eq!(runs[1].ts, Some(1754500000.0));
        assert_eq!(runs[1].threads, Some(4));
        assert_eq!(runs[1].host.as_deref(), Some("ab12cd34"));
        assert_eq!(runs[1].cells[0].metrics[0].1, 0.120);
    }

    #[test]
    fn truncated_trailing_line_is_skipped_with_warning() {
        let text = format!(
            "{}\n{}",
            r#"{"type":"bench_run","bench":"b","rev":"aaa","cells":[{"family":"x","n":5,"t_ms":1.0}]}"#,
            r#"{"type":"bench_run","bench":"b","rev":"bbb","cells":[{"family":"x","#
        );
        let (runs, warnings) = parse_history(&text);
        assert_eq!(runs.len(), 1, "the complete run survives");
        assert_eq!(runs[0].rev, "aaa");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("line 2"), "{warnings:?}");
        // Other record types pass without a warning; bench_run without
        // cells warns.
        let (runs, warnings) =
            parse_history("{\"type\":\"note\"}\n{\"type\":\"bench_run\",\"rev\":\"c\"}\n");
        assert!(runs.is_empty());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("'cells'"), "{warnings:?}");
    }

    #[test]
    fn duplicate_cells_keep_the_first_with_warning() {
        let text = r#"{"type":"bench_run","bench":"b","rev":"aaa","cells":[{"family":"x","n":5,"t_ms":1.0},{"family":"x","n":5,"t_ms":9.0},{"family":"y","n":5,"t_ms":2.0}]}"#;
        let (runs, warnings) = parse_history(text);
        assert_eq!(runs[0].cells.len(), 2);
        assert_eq!(runs[0].cells[0].metrics[0].1, 1.0, "first wins");
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("duplicate cell family=x,n=5"));
    }

    #[test]
    fn nan_metrics_are_dropped_with_warning() {
        // The writer emits a non-finite metric as `null`; the line must
        // survive with that one metric dropped.
        let text = r#"{"type":"bench_run","bench":"b","rev":"aaa","cells":[{"family":"x","n":5,"bad_ms":null,"good_ms":1.5}]}"#;
        let (runs, warnings) = parse_history(text);
        assert_eq!(runs[0].cells[0].metrics, vec![("good_ms".to_string(), 1.5)]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("bad_ms"), "{warnings:?}");
    }

    /// Writer/reader contract over the run metadata: `history_line_with`
    /// emits `ts`/`threads`/`host` and [`parse_history`] reads them back.
    #[test]
    fn history_metadata_round_trips_from_writer() {
        use crate::artifact::{Artifact, CellBuilder, RunMeta};
        let artifact = Artifact {
            bench: "yds_kernel".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new("crossing", 800)
                .metric_ms("fast_ms", 1.25)
                .render()],
        };
        let line = artifact.history_line_with(
            "abc1234",
            &RunMeta {
                commit_ts: Some(1754500000),
                threads: 8,
                host: "ab12cd34".into(),
            },
        );
        let (runs, warnings) = parse_history(&line);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(runs[0].bench, "yds_kernel");
        assert_eq!(runs[0].rev, "abc1234");
        assert_eq!(runs[0].ts, Some(1754500000.0));
        assert_eq!(runs[0].threads, Some(8));
        assert_eq!(runs[0].host.as_deref(), Some("ab12cd34"));
        assert_eq!(runs[0].cells[0].key, "family=crossing,n=800");
        // Without a commit timestamp the field is absent, not null.
        let bare = artifact.history_line_with(
            "abc1234",
            &RunMeta {
                commit_ts: None,
                threads: 8,
                host: "ab12cd34".into(),
            },
        );
        assert!(!bare.contains("\"ts\""));
        assert_eq!(parse_history(&bare).0[0].ts, None);
    }

    #[test]
    fn missing_and_added_cells_are_reported() {
        let old = parse_artifact(&snapshot(0.113)).unwrap();
        let mut new = old.clone();
        new.cells[0].key = "family=crossing,n=50".to_string();
        let diff = diff_artifacts(&old, &new, 0.10, 0.05).unwrap();
        assert_eq!(diff.missing, vec!["family=agreeable,n=50".to_string()]);
        assert_eq!(diff.added, vec!["family=crossing,n=50".to_string()]);
    }

    #[test]
    fn comparing_nothing_is_an_error() {
        let yds = parse_artifact(&snapshot(0.113)).unwrap();
        let mut other = yds.clone();
        other.bench = "bal_kernel".to_string();
        let err = diff_artifacts(&yds, &other, 0.10, 0.05).unwrap_err();
        assert!(err.contains("different benches"), "{err}");
        let mut disjoint = yds.clone();
        for cell in &mut disjoint.cells {
            cell.key.push_str(",variant=x");
        }
        let err = diff_artifacts(&yds, &disjoint, 0.10, 0.05).unwrap_err();
        assert!(err.contains("share no metric"), "{err}");
    }

    /// Whatever the writer emits reads back through [`parse_history`]:
    /// hostile family strings keep their keys, finite metrics round-trip
    /// at the written precision, each non-finite metric is dropped with
    /// exactly one warning, and no line is lost.
    #[test]
    fn hostile_writer_output_round_trips_through_parse_history() {
        use crate::artifact::{Artifact, CellBuilder, RunMeta};
        use ssp_prng::{check, Rng};
        const CHARS: [char; 12] = [
            'a', 'Z', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', ',', '=', 'é', '😀',
        ];
        let meta = RunMeta {
            commit_ts: Some(1754500000),
            threads: 4,
            host: "ab12cd34".into(),
        };
        check::cases(200, 0xB_E4C4, |rng| {
            let mut text = String::new();
            let mut expected = Vec::new();
            let mut non_finite = 0;
            for _ in 0..rng.gen_range(1usize..4) {
                let mut cells = Vec::new();
                let mut keys = Vec::new();
                for n in 0..rng.gen_range(1usize..6) {
                    let family: String =
                        check::vec_of(rng, 0..8, |r| CHARS[r.gen_range(0..CHARS.len())])
                            .into_iter()
                            .collect();
                    let mut cell = CellBuilder::new(&family, n);
                    let mut metrics = Vec::new();
                    for m in 0..rng.gen_range(0usize..4) {
                        let name = format!("m{m}_ms");
                        let v = match rng.gen_range(0u32..6) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            2 => f64::NEG_INFINITY,
                            _ => rng.gen_range(0.0..1e4),
                        };
                        if v.is_finite() {
                            metrics.push((name.clone(), format!("{v:.4}").parse().unwrap()));
                        } else {
                            non_finite += 1;
                        }
                        cell = cell.metric_ms(&name, v);
                    }
                    cells.push(cell.num("ctx", f64::NAN, 2).render());
                    keys.push((format!("family={family},n={n}"), metrics));
                }
                let artifact = Artifact {
                    bench: "b\"x".into(),
                    alpha: 2.0,
                    unit: "ms_median".into(),
                    cells,
                };
                text.push_str(&artifact.history_line_with("r\\1", &meta));
                text.push('\n');
                expected.push(keys);
            }
            let (runs, warnings) = parse_history(&text);
            assert_eq!(runs.len(), expected.len(), "a line was lost: {warnings:?}");
            assert_eq!(warnings.len(), non_finite, "{warnings:?}");
            assert!(warnings.iter().all(|w| w.contains("non-finite metric")));
            for (run, keys) in runs.iter().zip(&expected) {
                assert_eq!((run.bench.as_str(), run.rev.as_str()), ("b\"x", "r\\1"));
                let got: Vec<_> = run
                    .cells
                    .iter()
                    .map(|c| (c.key.clone(), c.metrics.clone()))
                    .collect();
                assert_eq!(&got, keys);
            }
        });
    }

    /// The committed artifacts read through the model without a warning.
    #[test]
    fn committed_artifacts_parse_without_warnings() {
        let read = |name: &str| {
            std::fs::read_to_string(format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
        };
        let (runs, warnings) = parse_history(&read("BENCH_history.jsonl"));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(!runs.is_empty());
        for (file, bench) in [
            ("BENCH_yds.json", "yds_kernel"),
            ("BENCH_bal.json", "bal_kernel"),
        ] {
            let art = parse_artifact(&read(file)).unwrap();
            assert_eq!(art.bench, bench);
            assert!(!art.cells.is_empty());
            for cell in &art.cells {
                assert!(cell.metrics.iter().all(|(_, v)| v.is_finite()), "{cell:?}");
            }
        }
    }
}
