//! Bench-side trajectory: the in-run regression check, auto-attached probe
//! traces, and the one artifact-emission sequence every measured bench
//! ends with.
//!
//! A measured bench run knows two things the offline report does not: it
//! holds the freshly measured cells *before* they are appended to
//! `BENCH_history.jsonl`, and it can still trace any cell. [`emit`] closes
//! that loop: it runs the report's own verdict
//! ([`crate::benchreport::trajectory_rows`]) over the history plus the
//! fresh run, and each regressed cell's probe trace is stored at
//! [`attachment_path`] under [`TRACE_DIR_ENV`], so `ssp bench report` can
//! later link "got slower" to "which span / which counter" via `trace
//! diff` without a manual repro.

use crate::artifact::{append_history, git_rev, resolve_artifact_path, Artifact};
use crate::benchdata::parse_history;
use crate::benchreport::{trajectory_rows, MetricRow, DEFAULT_MIN_MS, DEFAULT_WINDOW};
use std::path::{Path, PathBuf};

/// Environment variable enabling auto-attached traces: the directory
/// (resolved like artifact paths) regressed-cell traces are written to.
pub const TRACE_DIR_ENV: &str = "SSP_BENCH_TRACE_DIR";

/// The auto-attach trace directory, if enabled via [`TRACE_DIR_ENV`].
pub fn trace_dir() -> Option<String> {
    std::env::var(TRACE_DIR_ENV).ok().filter(|d| !d.is_empty())
}

/// A cell key as a filesystem-safe file stem: every character outside
/// `[A-Za-z0-9._-]` becomes `_`.
pub fn sanitize_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Where a cell's attached trace lives in `dir`:
/// `<dir>/<bench>__<sanitized key>.jsonl`. The one naming rule the bench
/// harness (writer) and `bench report` (reader) share.
pub fn attachment_path(dir: &Path, bench: &str, key: &str) -> PathBuf {
    dir.join(format!("{bench}__{}.jsonl", sanitize_key(key)))
}

/// Write a regressed cell's probe trace to its [`attachment_path`] in
/// `dir` (resolved like artifact paths: relative → workspace root),
/// creating the directory if needed. Returns the written path.
pub fn write_attachment(
    dir: &str,
    bench: &str,
    key: &str,
    trace: &ssp_probe::Trace,
) -> std::io::Result<PathBuf> {
    let path = attachment_path(&resolve_artifact_path(dir), bench, key);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, trace.to_jsonl())?;
    Ok(path)
}

/// Parse a `family=...,n=...` cell key back into its parts, so a bench
/// can trace the regressed cell.
pub fn parse_family_n(key: &str) -> Option<(String, usize)> {
    let mut family = None;
    let mut n = None;
    for part in key.split(',') {
        let (k, v) = part.split_once('=')?;
        match k {
            "family" => family = Some(v.to_string()),
            "n" => n = v.parse().ok(),
            _ => {}
        }
    }
    Some((family?, n?))
}

/// The in-run check: [`trajectory_rows`] over the runs in `history` (the
/// accumulated `BENCH_history.jsonl`, read *before* this run is appended)
/// followed by the fresh run's history `line`, keeping the flagged rows
/// whose latest point the fresh run measured.
fn fresh_regressions(history: &str, line: &str) -> Vec<MetricRow> {
    let (mut runs, _) = parse_history(history);
    let Some(fresh) = parse_history(line).0.pop() else {
        return Vec::new();
    };
    runs.push(fresh);
    let fresh = &runs[runs.len() - 1];
    let measured = |r: &MetricRow| {
        r.bench == fresh.bench
            && fresh.cells.iter().any(|c| {
                c.key == r.key
                    && c.metrics
                        .iter()
                        .any(|(m, v)| *m == r.metric && v.is_finite())
            })
    };
    trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS)
        .into_iter()
        .filter(|r| r.flagged && measured(r))
        .collect()
}

/// The artifact-emission sequence every measured bench ends with. In a
/// measured run (`--bench`) with `SSP_BENCH_JSON` and/or
/// `SSP_BENCH_HISTORY` set, it builds the artifact, checks the fresh cells
/// against the history as it stands, reports each crossing
/// on stderr and — with [`TRACE_DIR_ENV`] set — attaches
/// `trace_of(family, n)` for each regressed cell; then it writes the
/// snapshot and appends the history line. A failed snapshot or history
/// write fails the run; a failed attachment only warns.
pub fn emit(
    build: impl FnOnce() -> Artifact,
    mut trace_of: impl FnMut(&str, usize) -> Option<ssp_probe::Trace>,
) {
    let var = |name: &str| std::env::var(name).ok().filter(|p| !p.is_empty());
    let (snapshot, history) = (var("SSP_BENCH_JSON"), var("SSP_BENCH_HISTORY"));
    if !std::env::args().any(|a| a == "--bench") || (snapshot.is_none() && history.is_none()) {
        return;
    }
    let artifact = build();
    let bench = &artifact.bench;
    let line = artifact.history_line(&git_rev());
    if let Some(path) = &history {
        let prior = std::fs::read_to_string(resolve_artifact_path(path)).unwrap_or_default();
        let dir = trace_dir();
        let mut attached: Vec<String> = Vec::new();
        for row in fresh_regressions(&prior, &line) {
            eprintln!(
                "regressed {bench} {} {}: {:.4} ms vs baseline {:.4} ms (+{:.1}% > band {:.1}%)",
                row.key,
                row.metric,
                row.latest,
                row.baseline.unwrap_or_default(),
                row.delta.unwrap_or_default() * 100.0,
                row.band * 100.0
            );
            let Some(dir) = &dir else { continue };
            if attached.contains(&row.key) {
                continue;
            }
            attached.push(row.key.clone());
            match parse_family_n(&row.key).and_then(|(family, n)| trace_of(&family, n)) {
                Some(trace) => match write_attachment(dir, bench, &row.key, &trace) {
                    Ok(p) => eprintln!("  trace attached: {}", p.display()),
                    Err(e) => eprintln!("  warning: cannot attach trace: {e}"),
                },
                None => eprintln!("  no probe trace captured for this cell"),
            }
        }
    }
    if let Some(path) = &snapshot {
        artifact
            .write_snapshot(path)
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &history {
        append_history(path, &line).unwrap_or_else(|e| panic!("append {path}: {e}"));
        eprintln!("appended bench_run to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{CellBuilder, RunMeta};

    fn line(bench: &str, family: &str, fast_ms: f64) -> String {
        Artifact {
            bench: bench.into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![CellBuilder::new(family, 200)
                .metric_ms("fast_ms", fast_ms)
                .int("peels", 40)
                .render()],
        }
        .history_line_with(
            "rev",
            &RunMeta {
                commit_ts: Some(1754000000),
                threads: 4,
                host: "aabbccdd".into(),
            },
        )
    }

    fn history(values: &[f64]) -> String {
        values
            .iter()
            .map(|v| line("yds_kernel", "agreeable", *v) + "\n")
            .collect()
    }

    fn fresh(fast_ms: f64) -> String {
        line("yds_kernel", "agreeable", fast_ms)
    }

    #[test]
    fn calibrated_step_is_caught_and_noise_passes() {
        let hist = history(&[0.100, 0.102, 0.098, 0.101, 0.099]);
        // In-noise fresh value: clean.
        assert!(fresh_regressions(&hist, &fresh(0.101)).is_empty());
        // A 20% step crosses the calibrated band.
        let hits = fresh_regressions(&hist, &fresh(0.120));
        assert_eq!(hits.len(), 1);
        let r = &hits[0];
        assert_eq!(r.key, "family=agreeable,n=200");
        assert_eq!(r.metric, "fast_ms");
        assert!((r.baseline.unwrap() - 0.100).abs() < 1e-12);
        assert!(
            r.delta.unwrap() > 0.15 && r.band < r.delta.unwrap(),
            "{r:?}"
        );
        // Another bench's history is invisible.
        let other = line("bal_kernel", "agreeable", 0.120);
        assert!(fresh_regressions(&hist, &other).is_empty());
    }

    #[test]
    fn sub_floor_cells_and_unknown_cells_never_regress() {
        let hist = history(&[0.010, 0.010, 0.010, 0.010]);
        // 3x slowdown but under the 0.05 ms floor: not a regression.
        assert!(fresh_regressions(&hist, &fresh(0.030)).is_empty());
        // A cell with no history at all: nothing to calibrate against.
        let unknown = line("yds_kernel", "crossing", 9.9);
        assert!(fresh_regressions(&hist, &unknown).is_empty());
        // A regressed history row the fresh run did not measure is not
        // the fresh run's regression.
        let stale = history(&[0.100, 0.100, 0.100, 0.300]);
        assert!(fresh_regressions(&stale, &unknown).is_empty());
    }

    #[test]
    fn window_limits_the_calibration_to_trailing_runs() {
        // An old slow epoch followed by a full window of fast quiet runs:
        // the baseline is the fast epoch, so a return to the old speed IS
        // a regression. Over all 16 runs the median would sit between the
        // epochs and the bimodal spread would widen the band past the step.
        let mut values = vec![0.200, 0.210, 0.190, 0.205, 0.200, 0.195, 0.210, 0.200];
        values.extend([0.100, 0.101, 0.099, 0.100, 0.101, 0.099, 0.100, 0.101]);
        let hits = fresh_regressions(&history(&values), &fresh(0.200));
        assert_eq!(hits.len(), 1);
        assert!(
            (hits[0].baseline.unwrap() - 0.1).abs() < 0.01,
            "{:?}",
            hits[0]
        );
        assert_eq!(hits[0].series.len(), 17);
    }

    #[test]
    fn malformed_and_foreign_lines_are_skipped() {
        let hist = format!(
            "{}\nnot json at all\n{}\n{{\"type\": \"bench_run\", \"bench\": \"yds_kernel\", \"cells\": [{{\"family\": \"agreeable\", \"n\": 200, \"fast_ms\": null}}]}}\n{}",
            fresh(0.100),
            r#"{"type": "other_record", "bench": "yds_kernel"}"#,
            fresh(0.101)
        );
        // Two usable samples (null dropped) → too few for a tight band but
        // the scan itself must not choke.
        let hits = fresh_regressions(&hist, &fresh(0.2));
        assert_eq!(hits.len(), 1, "median of 2 samples still baselines");
    }

    #[test]
    fn parse_family_n_round_trips() {
        assert_eq!(
            parse_family_n("family=agreeable,n=200"),
            Some(("agreeable".to_string(), 200))
        );
        assert_eq!(parse_family_n("family=crossing"), None, "missing n");
        assert_eq!(parse_family_n("no_equals_here"), None);
    }

    #[test]
    fn attachment_paths_are_sanitized_and_written() {
        assert_eq!(
            sanitize_key("family=agreeable,n=200"),
            "family_agreeable_n_200"
        );
        let dir = std::env::temp_dir().join(format!("ssp_traj_{}", std::process::id()));
        let path = attachment_path(&dir, "yds_kernel", "family=agreeable,n=200");
        assert!(path
            .to_string_lossy()
            .ends_with("yds_kernel__family_agreeable_n_200.jsonl"));
        let trace = ssp_probe::Trace {
            spans: Vec::new(),
            counters: vec![("demo.events".into(), 3)],
            hists: Vec::new(),
            error: None,
        };
        let dir_s = dir.to_string_lossy().into_owned();
        let written = write_attachment(&dir_s, "yds_kernel", "family=agreeable,n=200", &trace)
            .expect("attachment writes");
        assert_eq!(written, path);
        let back = ssp_probe::Trace::parse(&std::fs::read_to_string(&written).unwrap()).unwrap();
        assert_eq!(back.counter("demo.events"), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
