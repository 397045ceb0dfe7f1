//! Machine-readable bench artifacts: snapshots and the history trajectory.
//!
//! Measured bench runs serialize their cells twice:
//!
//! * **Snapshot** (`SSP_BENCH_JSON=<path>`): one pretty-printed JSON object
//!   — the committed `BENCH_*.json` files at the repo root.
//! * **Trajectory** (`SSP_BENCH_HISTORY=<path>`): one flat JSON object
//!   *appended* per run to `BENCH_history.jsonl`, tagged with
//!   `"type":"bench_run"` and the git revision, so the repo accumulates a
//!   timing trajectory that `speedscale bench report` renders.
//!
//! Cells are built with [`CellBuilder`]; by convention string fields plus
//! `n` identify a cell and `*_ms` fields are the gated metrics, read back
//! by [`crate::benchdata::cell_from`] (see `docs/OBSERVABILITY.md`).
//! Strings go through the workspace codec's escaper, and a non-finite
//! number is written as `null` (JSON has no `NaN`).

use ssp_probe::json::{self, Json};
use std::fmt::Write as _;

/// Incrementally builds one cell object (`{"family": ..., "n": ..., ...}`).
#[derive(Debug, Clone)]
pub struct CellBuilder {
    fields: Vec<(String, String)>,
}

impl CellBuilder {
    /// Start a cell identified by `family` and `n` (the diff key).
    pub fn new(family: &str, n: usize) -> Self {
        CellBuilder {
            fields: vec![
                ("family".into(), json::quote(family)),
                ("n".into(), n.to_string()),
            ],
        }
    }

    /// Add a timing metric in milliseconds (4 decimals). `name` should end
    /// in `_ms` so `bench-diff` picks it up.
    pub fn metric_ms(self, name: &str, ms: f64) -> Self {
        self.num(name, ms, 4)
    }

    /// Add a contextual float (not gated) with the given decimal places;
    /// `null` when non-finite.
    pub fn num(mut self, name: &str, value: f64, decimals: usize) -> Self {
        let text = if value.is_finite() {
            format!("{value:.decimals$}")
        } else {
            "null".to_string()
        };
        self.fields.push((name.into(), text));
        self
    }

    /// Add a contextual integer (not gated).
    pub fn int(mut self, name: &str, value: u64) -> Self {
        self.fields.push((name.into(), value.to_string()));
        self
    }

    /// Render the cell as a single-line JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {value}", json::quote(name));
        }
        out.push('}');
        out
    }
}

/// One measured bench run, ready to serialize as snapshot and/or history.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Bench id, e.g. `"yds_kernel"`.
    pub bench: String,
    /// Power exponent the run used.
    pub alpha: f64,
    /// Unit of the timing metrics, e.g. `"ms_median"`.
    pub unit: String,
    /// Rendered cells (from [`CellBuilder::render`]).
    pub cells: Vec<String>,
}

impl Artifact {
    /// Pretty-printed snapshot form (the committed `BENCH_*.json` layout).
    pub fn snapshot_json(&self) -> String {
        format!(
            "{{\n  \"bench\": {},\n  \"alpha\": {},\n  \"unit\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            json::quote(&self.bench),
            Json::Num(self.alpha).to_string_compact(),
            json::quote(&self.unit),
            self.cells
                .iter()
                .map(|c| format!("    {c}"))
                .collect::<Vec<_>>()
                .join(",\n")
        )
    }

    /// Flat one-line history form, tagged with the run's git revision.
    /// Collects the run environment via [`RunMeta::collect`]; see
    /// [`Artifact::history_line_with`] for the format.
    pub fn history_line(&self, rev: &str) -> String {
        self.history_line_with(rev, &RunMeta::collect())
    }

    /// [`Artifact::history_line`] with an explicit [`RunMeta`] (injectable
    /// for tests). The v1 prefix (`type`/`bench`/`rev`/`alpha`/`unit`) is
    /// stable; the run metadata rides between `unit` and `cells`, and
    /// readers must tolerate its absence (v1 lines have none) — `ts` is
    /// itself omitted when the commit timestamp is unknown.
    pub fn history_line_with(&self, rev: &str, meta: &RunMeta) -> String {
        let ts = meta
            .commit_ts
            .map(|t| format!("\"ts\": {t}, "))
            .unwrap_or_default();
        format!(
            "{{\"type\": \"bench_run\", \"bench\": {}, \"rev\": {}, \"alpha\": {}, \"unit\": {}, {}\"threads\": {}, \"host\": {}, \"cells\": [{}]}}",
            json::quote(&self.bench),
            json::quote(rev),
            Json::Num(self.alpha).to_string_compact(),
            json::quote(&self.unit),
            ts,
            meta.threads,
            json::quote(&meta.host),
            self.cells.join(", ")
        )
    }

    /// Write the snapshot to `path` (resolved by
    /// [`resolve_artifact_path`]).
    pub fn write_snapshot(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(resolve_artifact_path(path), self.snapshot_json())
    }
}

/// Append one history `line` to `path` (resolved by
/// [`resolve_artifact_path`]), creating the file if needed.
pub fn append_history(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(resolve_artifact_path(path))?;
    writeln!(file, "{line}")
}

/// Run-level environment recorded on every `bench_run` history line, so
/// the trajectory can separate code regressions from environment changes
/// (a different machine, a different thread width) when reading a history
/// accumulated across hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Unix timestamp of the HEAD commit (`git show -s --format=%ct`);
    /// `None` outside a repository. Orders trajectory points by *code*
    /// age, unlike the run's wall clock.
    pub commit_ts: Option<u64>,
    /// Effective worker thread count: `SSP_THREADS` when set (the knob the
    /// experiment sweeps' `par_map` honors), the machine's available
    /// parallelism otherwise.
    pub threads: u64,
    /// Short host fingerprint (hex hash of hostname/OS/arch/cpu count):
    /// cross-host timing comparisons are noise, and the fingerprint lets
    /// readers notice.
    pub host: String,
}

impl RunMeta {
    /// Collect the metadata of the current process/repository.
    pub fn collect() -> Self {
        let commit_ts = std::process::Command::new("git")
            .args(["show", "-s", "--format=%ct", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<u64>().ok());
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get() as u64);
        let threads = std::env::var("SSP_THREADS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(cpus);
        let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .ok()
            .or_else(|| std::env::var("HOSTNAME").ok())
            .unwrap_or_else(|| "unknown".to_string());
        // FNV-1a over the identity tuple; 8 hex digits is plenty to tell
        // hosts apart without leaking the hostname into committed files.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!(
            "{hostname}/{}/{}/{cpus}",
            std::env::consts::OS,
            std::env::consts::ARCH
        )
        .bytes()
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RunMeta {
            commit_ts,
            threads,
            host: format!("{:08x}", (h >> 32) as u32 ^ h as u32),
        }
    }
}

/// Resolve an artifact path: absolute paths pass through; relative paths
/// are anchored at the workspace root — the nearest ancestor of the
/// current directory holding a `Cargo.lock`. Cargo runs bench binaries
/// with the *package* directory as cwd, so without this
/// `SSP_BENCH_JSON=BENCH_new.json` would land in `crates/bench/` instead
/// of next to the committed `BENCH_*.json` baselines at the repo root
/// (where CI's `bench-diff` step expects it).
pub fn resolve_artifact_path(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    let mut dir = match std::env::current_dir() {
        Ok(d) => d,
        Err(_) => return p.to_path_buf(),
    };
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join(p);
        }
        if !dir.pop() {
            return p.to_path_buf();
        }
    }
}

/// The short git revision of the working tree, `<rev>-dirty` when the
/// measured code is not HEAD's, or `"unknown"` outside a repository
/// (artifacts must still be writable from exported tarballs).
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if !head.trim().is_empty() => rev_label(
            head.trim(),
            &git(&["status", "--porcelain", "--untracked-files=no"]).unwrap_or_default(),
        ),
        _ => "unknown".to_string(),
    }
}

/// The revision a run is credited to: `head`, or `<head>-dirty` when
/// `porcelain` (`git status --porcelain --untracked-files=no` output,
/// repository-relative paths) lists a tracked change other than the root
/// `BENCH_*` artifacts the benches themselves write.
fn rev_label(head: &str, porcelain: &str) -> String {
    let dirty = porcelain.lines().any(|entry| {
        let paths = entry.get(3..).unwrap_or_default();
        paths
            .split(" -> ")
            .any(|p| !p.starts_with("BENCH_") || p.contains('/'))
    });
    if dirty {
        format!("{head}-dirty")
    } else {
        head.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_artifact_paths_anchor_at_the_workspace_root() {
        // Test binaries run with the package dir as cwd; the resolved
        // parent must be the workspace root (it holds Cargo.lock).
        let resolved = resolve_artifact_path("BENCH_test_probe.json");
        let parent = resolved.parent().expect("resolved path has a parent");
        assert!(
            parent.join("Cargo.lock").is_file(),
            "resolved {resolved:?} is not anchored at a workspace root"
        );
        assert!(resolve_artifact_path("/abs/x.json").is_absolute());
    }

    fn sample() -> Artifact {
        Artifact {
            bench: "yds_kernel".into(),
            alpha: 2.0,
            unit: "ms_median".into(),
            cells: vec![
                CellBuilder::new("agreeable", 50)
                    .metric_ms("fast_ms", 0.0071239)
                    .metric_ms("ref_ms", 0.0063)
                    .num("speedup", 0.886, 2)
                    .int("peels", 12)
                    .render(),
                CellBuilder::new("crossing", 200)
                    .metric_ms("fast_ms", 0.113)
                    .render(),
            ],
        }
    }

    #[test]
    fn cell_builder_renders_flat_json() {
        let cell = &sample().cells[0];
        assert_eq!(
            cell,
            "{\"family\": \"agreeable\", \"n\": 50, \"fast_ms\": 0.0071, \
             \"ref_ms\": 0.0063, \"speedup\": 0.89, \"peels\": 12}"
        );
    }

    #[test]
    fn snapshot_matches_committed_layout() {
        let snap = sample().snapshot_json();
        assert!(snap.starts_with("{\n  \"bench\": \"yds_kernel\",\n"));
        assert!(snap.contains("  \"cells\": [\n    {\"family\": \"agreeable\""));
        assert!(snap.ends_with("\n  ]\n}\n"));
    }

    #[test]
    fn history_line_is_single_line_and_tagged() {
        let line = sample().history_line("abc1234");
        assert!(!line.contains('\n'));
        assert!(line.starts_with(
            "{\"type\": \"bench_run\", \"bench\": \"yds_kernel\", \"rev\": \"abc1234\""
        ));
        assert!(line.contains("\"cells\": [{\"family\""));
    }

    #[test]
    fn cell_meta_matches_reader_convention() {
        // A rendered cell reads back through the one keying rule.
        let rendered = CellBuilder::new("agreeable", 50)
            .metric_ms("fast_ms", 0.0071239)
            .metric_ms("ref_ms", 0.0063)
            .num("speedup", 0.886, 2)
            .int("peels", 12)
            .render();
        let meta = crate::benchdata::cell_from(&json::parse(&rendered).unwrap());
        assert_eq!(meta.key, "family=agreeable,n=50");
        assert_eq!(
            meta.metrics,
            vec![
                ("fast_ms".to_string(), 0.0071),
                ("ref_ms".to_string(), 0.0063)
            ]
        );
    }

    #[test]
    fn history_line_carries_run_metadata() {
        let meta = RunMeta {
            commit_ts: Some(1754500000),
            threads: 4,
            host: "ab12cd34".into(),
        };
        let line = sample().history_line_with("abc1234", &meta);
        assert!(!line.contains('\n'));
        // v1 prefix stays stable; metadata rides between unit and cells.
        assert!(line.starts_with(
            "{\"type\": \"bench_run\", \"bench\": \"yds_kernel\", \"rev\": \"abc1234\""
        ));
        assert!(line.contains(
            "\"unit\": \"ms_median\", \"ts\": 1754500000, \"threads\": 4, \
             \"host\": \"ab12cd34\", \"cells\": ["
        ));
        // Unknown commit timestamp: the ts field is omitted entirely.
        let no_ts = sample().history_line_with(
            "abc1234",
            &RunMeta {
                commit_ts: None,
                ..meta
            },
        );
        assert!(!no_ts.contains("\"ts\""));
        assert!(no_ts.contains("\"threads\": 4"));
    }

    #[test]
    fn run_meta_collects_without_panicking() {
        let meta = RunMeta::collect();
        assert!(meta.threads >= 1);
        assert_eq!(meta.host.len(), 8);
        assert!(meta.host.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn append_history_accumulates_lines() {
        let path =
            std::env::temp_dir().join(format!("ssp_bench_hist_{}.jsonl", std::process::id()));
        let p = path.to_string_lossy().into_owned();
        std::fs::remove_file(&path).ok();
        let line = sample().history_line("abc1234");
        append_history(&p, &line).unwrap();
        append_history(&p, &line).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.contains("\"type\": \"bench_run\"")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn git_rev_never_panics() {
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn rev_label_marks_only_source_changes_dirty() {
        assert_eq!(rev_label("abc1234", ""), "abc1234");
        let artifacts = " M BENCH_history.jsonl\nM  BENCH_yds.json\n";
        assert_eq!(rev_label("abc1234", artifacts), "abc1234");
        let source = " M BENCH_history.jsonl\n M crates/bench/src/artifact.rs\n";
        assert_eq!(rev_label("abc1234", source), "abc1234-dirty");
        // A BENCH_ file below the root is source, not a run artifact.
        assert_eq!(
            rev_label("abc1234", " M crates/BENCH_x.json\n"),
            "abc1234-dirty"
        );
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let cell = CellBuilder::new("a\"b", 1)
            .metric_ms("t_ms", f64::NAN)
            .num("speedup", f64::INFINITY, 2)
            .render();
        assert_eq!(
            cell,
            "{\"family\": \"a\\\"b\", \"n\": 1, \"t_ms\": null, \"speedup\": null}"
        );
        let artifact = Artifact {
            alpha: f64::NAN,
            ..sample()
        };
        assert!(artifact.snapshot_json().contains("\"alpha\": null"));
        json::parse(&artifact.snapshot_json()).expect("snapshot stays JSON");
    }
}
