//! `ssp bench report` — the perf-trajectory service over
//! `BENCH_history.jsonl` — and the one regression verdict,
//! [`trajectory_rows`], which the measured benches also run on their fresh
//! cells (see [`crate::trajectory`]).
//!
//! Where `bench-diff` compares exactly two artifacts under one global
//! threshold, this module reads the *whole* accumulated trajectory and
//! renders, per cell and per `*_ms` metric, a unicode sparkline across
//! revisions together with best/latest/delta columns — and judges the
//! latest point against the cell's own **history-calibrated noise band**
//! (`ssp_probe::calib`, robust dispersion over a trailing window) instead
//! of a one-size-fits-all percentage. A 6 µs cell and a 1.3 s cell each
//! get the band their own run-to-run noise earns.
//!
//! Flagged rows are linked to root causes when the bench harness attached
//! a probe trace (see [`crate::trajectory::attachment_path`]): the report
//! looks for `<trace_dir>/<bench>__<key>.jsonl`, diffs it against
//! `<trace_dir>/baseline/<same>.jsonl` when a baseline exists, and folds
//! the hottest spans otherwise — so "got slower" comes annotated with
//! "which span / which counter".

use crate::benchdata::{parse_history, BenchRun};
use crate::trajectory::attachment_path;
use std::fmt::Write as _;
use std::path::Path;

/// Trailing history runs a cell's noise band is calibrated over.
pub const DEFAULT_WINDOW: usize = 8;

/// Default noise floor in milliseconds: metrics whose latest value sits
/// below it never flag (same convention as `bench-diff`).
pub const DEFAULT_MIN_MS: f64 = 0.05;

/// Sparkline width cap: only the trailing this-many points are drawn.
const SPARK_POINTS: usize = 24;

/// One (bench, cell, metric) trajectory with its calibrated verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Bench id the cell belongs to.
    pub bench: String,
    /// Cell key (`family=...,n=...`).
    pub key: String,
    /// Metric name (`fast_ms`, ...).
    pub metric: String,
    /// Finite samples in run order (runs missing the metric are skipped).
    pub series: Vec<f64>,
    /// Fastest point ever seen.
    pub best: f64,
    /// The most recent point.
    pub latest: f64,
    /// Median of the trailing window *before* the latest point; `None`
    /// when the trajectory has a single point (nothing to compare).
    pub baseline: Option<f64>,
    /// Calibrated relative band over that window.
    pub band: f64,
    /// `latest/baseline - 1`, when a baseline exists.
    pub delta: Option<f64>,
    /// Latest point crossed the calibrated band (above the noise floor).
    pub flagged: bool,
}

/// Fold parsed history runs into per-cell metric trajectories, verdicting
/// each latest point against the median and [`ssp_probe::calib`] band of
/// the `window` points preceding it. Rows appear in first-seen order
/// (bench, then cell, then metric).
pub fn trajectory_rows(runs: &[BenchRun], window: usize, min_ms: f64) -> Vec<MetricRow> {
    let mut rows: Vec<MetricRow> = Vec::new();
    for run in runs {
        for cell in &run.cells {
            for &(ref metric, value) in &cell.metrics {
                if !value.is_finite() {
                    continue;
                }
                let found = rows
                    .iter_mut()
                    .find(|r| r.bench == run.bench && r.key == cell.key && &r.metric == metric);
                match found {
                    Some(row) => row.series.push(value),
                    None => rows.push(MetricRow {
                        bench: run.bench.clone(),
                        key: cell.key.clone(),
                        metric: metric.clone(),
                        series: vec![value],
                        best: 0.0,
                        latest: 0.0,
                        baseline: None,
                        band: 0.0,
                        delta: None,
                        flagged: false,
                    }),
                }
            }
        }
    }
    for row in &mut rows {
        let n = row.series.len();
        row.latest = row.series[n - 1];
        row.best = row.series.iter().copied().fold(f64::INFINITY, f64::min);
        let prior = &row.series[..n - 1];
        let start = prior.len().saturating_sub(window.max(1));
        let trailing = &prior[start..];
        row.baseline = ssp_probe::calib::median(trailing);
        row.band = ssp_probe::calib::noise_band(trailing);
        if let Some(baseline) = row.baseline {
            row.delta = Some(row.latest / baseline - 1.0);
            row.flagged = ssp_probe::calib::crosses(row.latest, baseline, row.band, min_ms);
        }
    }
    rows
}

/// The whole `bench report` over history `text`: the reader's warnings
/// (each naming `source`), the trajectory table, and the attached-trace
/// section for flagged rows under `trace_dir` (fenced as a code block in
/// markdown). Returns the text and the number of flagged rows.
pub fn report(
    source: &str,
    text: &str,
    window: usize,
    min_ms: f64,
    markdown: bool,
    trace_dir: &str,
) -> (String, usize) {
    let (runs, warnings) = parse_history(text);
    let rows = trajectory_rows(&runs, window, min_ms);
    let mut out = String::new();
    for w in &warnings {
        let _ = writeln!(out, "warning: {source}: {w}");
    }
    out.push_str(&render(&rows, markdown));
    let attachments = render_attachments(&rows, trace_dir);
    if !attachments.is_empty() {
        if markdown {
            // Keep the trace section readable inside a GitHub summary.
            let _ = writeln!(out, "\n```");
            out.push_str(&attachments);
            let _ = writeln!(out, "```");
        } else {
            out.push('\n');
            out.push_str(&attachments);
        }
    }
    (out, flagged(&rows))
}

/// Render a series as a unicode sparkline (trailing `SPARK_POINTS`
/// points, min-max normalized; a flat series draws mid-height blocks).
pub fn sparkline(series: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let start = series.len().saturating_sub(SPARK_POINTS);
    let tail = &series[start..];
    let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    tail.iter()
        .map(|v| {
            if hi <= lo {
                BLOCKS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                BLOCKS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Number of flagged rows.
pub fn flagged(rows: &[MetricRow]) -> usize {
    rows.iter().filter(|r| r.flagged).count()
}

/// Render the trajectory table, either as aligned text or as a
/// GitHub-flavored markdown table (one table per bench in both cases).
pub fn render(rows: &[MetricRow], markdown: bool) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no bench_run lines in the trajectory\n");
        return out;
    }
    let mut benches: Vec<&str> = Vec::new();
    for row in rows {
        if !benches.contains(&row.bench.as_str()) {
            benches.push(&row.bench);
        }
    }
    for bench in benches {
        let bench_rows: Vec<&MetricRow> = rows.iter().filter(|r| r.bench == bench).collect();
        if markdown {
            let _ = writeln!(out, "### {bench}\n");
            let _ = writeln!(
                out,
                "| cell | metric | runs | trend | best | latest | delta | band | |"
            );
            let _ = writeln!(out, "|---|---|---:|---|---:|---:|---:|---:|---|");
            for r in bench_rows {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {:.4} | {:.4} | {} | {} | {} |",
                    r.key,
                    r.metric,
                    r.series.len(),
                    sparkline(&r.series),
                    r.best,
                    r.latest,
                    delta_cell(r),
                    band_cell(r),
                    if r.flagged { "**regressed**" } else { "" }
                );
            }
            out.push('\n');
        } else {
            let _ = writeln!(out, "bench {bench}");
            let _ = writeln!(
                out,
                "  {:<34} {:<16} {:>4} {:<24} {:>10} {:>10} {:>8} {:>6}",
                "cell", "metric", "runs", "trend", "best", "latest", "delta", "band"
            );
            for r in bench_rows {
                let _ = writeln!(
                    out,
                    "  {:<34} {:<16} {:>4} {:<24} {:>10.4} {:>10.4} {:>8} {:>6}{}",
                    r.key,
                    r.metric,
                    r.series.len(),
                    sparkline(&r.series),
                    r.best,
                    r.latest,
                    delta_cell(r),
                    band_cell(r),
                    if r.flagged { " !" } else { "" }
                );
            }
        }
    }
    let n = flagged(rows);
    let _ = writeln!(
        out,
        "{n} regression(s) past the history-calibrated band{}",
        if markdown { "" } else { " (flagged with !)" }
    );
    out
}

fn delta_cell(r: &MetricRow) -> String {
    match r.delta {
        Some(d) => format!("{:+.1}%", d * 100.0),
        None => "-".to_string(),
    }
}

fn band_cell(r: &MetricRow) -> String {
    if r.baseline.is_some() {
        format!("{:.0}%", r.band * 100.0)
    } else {
        "-".to_string()
    }
}

/// Render the root-cause section for flagged rows: for every flagged cell
/// with an attached trace under `dir`, either a span/counter/histogram
/// diff against `dir/baseline/<same file>` (when a baseline trace exists)
/// or the hottest folded stacks of the attached trace alone. Cells
/// without an attachment are listed so the absence is visible.
pub fn render_attachments(rows: &[MetricRow], dir: &str) -> String {
    let mut out = String::new();
    let mut seen = Vec::new();
    for row in rows.iter().filter(|r| r.flagged) {
        let path = attachment_path(Path::new(dir), &row.bench, &row.key);
        if seen.contains(&path) {
            continue;
        }
        seen.push(path.clone());
        if out.is_empty() {
            out.push_str("attached traces:\n");
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                let _ = writeln!(
                    out,
                    "  {} {}: no attached trace ({} not found)",
                    row.bench,
                    row.key,
                    path.display()
                );
                continue;
            }
        };
        let trace = match ssp_probe::Trace::parse(&text) {
            Ok(trace) => trace,
            Err(e) => {
                let _ = writeln!(out, "  {} {}: unreadable trace: {e}", row.bench, row.key);
                continue;
            }
        };
        let base_path = attachment_path(&Path::new(dir).join("baseline"), &row.bench, &row.key);
        let base = std::fs::read_to_string(&base_path)
            .ok()
            .and_then(|t| ssp_probe::Trace::parse(&t).ok());
        match base {
            Some(base) => {
                let _ = writeln!(
                    out,
                    "  {} {}: trace diff vs baseline (threshold = calibrated band {:.0}%)",
                    row.bench,
                    row.key,
                    row.band * 100.0
                );
                for line in ssp_probe::diff(&base, &trace, row.band).lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {} {}: hottest spans of the attached trace (no baseline at {})",
                    row.bench,
                    row.key,
                    base_path.display()
                );
                for line in hottest_folded(&trace, 10) {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
    }
    out
}

/// The `fold` output of a trace, sorted by self time, truncated to `top`
/// stacks.
fn hottest_folded(trace: &ssp_probe::Trace, top: usize) -> Vec<String> {
    let self_ns = |line: &str| -> u64 {
        line.rsplit(' ')
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let mut lines: Vec<String> = trace.folded().lines().map(str::to_string).collect();
    lines.sort_by_key(|l| std::cmp::Reverse(self_ns(l)));
    lines.truncate(top);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(bench: &str, values: &[f64]) -> String {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                format!(
                    "{{\"type\":\"bench_run\",\"bench\":\"{bench}\",\"rev\":\"r{i}\",\"cells\":[{{\"family\":\"agreeable\",\"n\":200,\"fast_ms\":{v}}}]}}"
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn calibrated_band_flags_step_but_not_noise() {
        // ±2% noise then a 20% step: flagged.
        let step = history("yds_kernel", &[0.100, 0.102, 0.098, 0.101, 0.099, 0.120]);
        let (runs, _) = parse_history(&step);
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.key, "family=agreeable,n=200");
        assert_eq!(r.series.len(), 6);
        assert!((r.latest - 0.120).abs() < 1e-12);
        assert!((r.best - 0.098).abs() < 1e-12);
        assert!(r.flagged, "20% step must cross the band: {r:?}");
        assert!(render(&rows, false).contains(" !"));
        // The same history ending inside the noise: clean.
        let quiet = history("yds_kernel", &[0.100, 0.102, 0.098, 0.101, 0.099, 0.101]);
        let (runs, _) = parse_history(&quiet);
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert!(!rows[0].flagged, "{:?}", rows[0]);
        assert!(render(&rows, false).contains("0 regression(s)"));
    }

    #[test]
    fn single_point_and_sub_floor_rows_never_flag() {
        let (runs, _) = parse_history(&history("b", &[0.5]));
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert_eq!(rows[0].baseline, None);
        assert!(!rows[0].flagged);
        assert!(render(&rows, false).contains('-'), "dash for no baseline");
        // 3x slowdown under the floor: visible delta, no flag.
        let (runs, _) = parse_history(&history("b", &[0.010, 0.010, 0.010, 0.030]));
        let rows = trajectory_rows(&runs, DEFAULT_WINDOW, DEFAULT_MIN_MS);
        assert!(!rows[0].flagged);
        assert_eq!(rows[0].delta.map(|d| d > 1.9), Some(true));
    }

    #[test]
    fn sparkline_normalizes_and_caps() {
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▄▄▄");
        let line = sparkline(&[0.0, 1.0]);
        assert_eq!(line.chars().count(), 2);
        assert!(line.starts_with('▁') && line.ends_with('█'));
        let long: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(sparkline(&long).chars().count(), SPARK_POINTS);
    }

    #[test]
    fn markdown_renders_github_table() {
        let (runs, _) = parse_history(&history("yds_kernel", &[0.1, 0.1, 0.1, 0.2]));
        let md = render(&trajectory_rows(&runs, 8, 0.05), true);
        assert!(md.contains("### yds_kernel"));
        assert!(md.contains("| cell | metric | runs | trend | best | latest | delta | band | |"));
        assert!(md.contains("**regressed**"));
    }

    #[test]
    fn attachments_fold_without_baseline_and_diff_with_one() {
        let dir = std::env::temp_dir().join(format!("ssp_report_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("baseline")).unwrap();
        let (runs, _) = parse_history(&history("yds_kernel", &[0.1, 0.1, 0.1, 0.2]));
        let rows = trajectory_rows(&runs, 8, 0.05);
        assert_eq!(flagged(&rows), 1);
        let dir_s = dir.to_string_lossy().into_owned();

        // No attachment at all: the absence is reported.
        let out = render_attachments(&rows, &dir_s);
        assert!(out.contains("no attached trace"), "{out}");

        // Attachment without baseline: hottest folded stacks.
        let stem = "yds_kernel__family_agreeable_n_200.jsonl";
        let trace_text = "{\"type\":\"meta\",\"version\":2,\"spans\":2,\"counters\":1,\"hists\":0}\n\
             {\"type\":\"span\",\"id\":1,\"parent\":0,\"thread\":1,\"name\":\"yds\",\"start_ns\":0,\"end_ns\":9000}\n\
             {\"type\":\"span\",\"id\":2,\"parent\":1,\"thread\":1,\"name\":\"yds.peel\",\"start_ns\":100,\"end_ns\":8100}\n\
             {\"type\":\"counter\",\"name\":\"yds.peels\",\"value\":40}\n";
        std::fs::write(dir.join(stem), trace_text).unwrap();
        let out = render_attachments(&rows, &dir_s);
        assert!(out.contains("hottest spans"), "{out}");
        assert!(out.contains("yds;yds.peel"), "folded stack present: {out}");

        // With a (faster) baseline: an in-process trace diff names the span.
        let base_text = trace_text
            .replace("\"end_ns\":9000", "\"end_ns\":4000")
            .replace("\"end_ns\":8100", "\"end_ns\":3100")
            .replace("\"value\":40", "\"value\":20");
        std::fs::write(dir.join("baseline").join(stem), base_text).unwrap();
        let out = render_attachments(&rows, &dir_s);
        assert!(out.contains("trace diff vs baseline"), "{out}");
        assert!(out.contains("yds.peel"), "{out}");
        assert!(out.contains('!'), "slowdown flagged in the diff: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
