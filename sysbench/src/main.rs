//! System benchmark of the solver's user-facing entry points:
//! `ssp_harness::solve` (what `speedscale solve` runs), an in-process
//! `ssp_serve::Server` (what `speedscale serve` runs) and
//! `ssp_online::StreamEngine` (what `speedscale stream` runs). README.md
//! describes the workloads, the metrics and how to compare two commits.
//!
//! ```text
//! sysbench --seed S [--workload NAME] [--seconds N] [--trace [0|1]] [--smoke] [--out FILE]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line of
//! standard output is its JSON result. Without it every workload runs in a
//! child process of its own, so each reports its own peak memory. The exit
//! code is 0 only when every answer passed its correctness check.

mod ledger;
mod report;
mod serve;
mod solve;
mod stats;
mod stream;
mod yardstick;

use report::RunResult;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Length of a run's measurement when `--seconds` is not given; the value
/// BENCHMARK.json's `run_seconds` also fixes.
const DEFAULT_SECONDS: u64 = 20;

/// Where `--out` files and trace files go.
pub const OUT_DIR: &str = "target/benchmark";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ssp_harness::solve` on general instances.
    SolveGeneral,
    /// `ssp_harness::solve` on laminar-nested instances.
    SolveLaminar,
    /// JSONL requests, one in flight, into an in-process server.
    ServeMixed,
    /// A bursty job stream through the density-aware engine.
    StreamDensity,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveGeneral,
        Workload::SolveLaminar,
        Workload::ServeMixed,
        Workload::StreamDensity,
    ];

    /// The name BENCHMARK.json and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveGeneral => "solve-general",
            Workload::SolveLaminar => "solve-laminar",
            Workload::ServeMixed => "serve-mixed",
            Workload::StreamDensity => "stream-density",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Replay the inputs layer by layer under probe sessions.
    pub trace: bool,
    /// Toy sizes, for a quick end-to-end check.
    pub smoke: bool,
}

/// A run's longest stretch past `--seconds`: a pass still going at
/// `GUARD × --seconds` stops, so a much slower commit, or a machine its
/// neighbours slow down, still ends in time. With 20 s runs, a run with its
/// set-ups takes at most about 35 s.
pub const GUARD: f64 = 1.4;

impl Config {
    /// When a pass stops early: [`GUARD`] × `seconds`.
    pub fn guard(&self) -> Duration {
        self.seconds.mul_f64(GUARD)
    }

    /// Directory name, under [`OUT_DIR`], of this run's trace files.
    pub fn run_name(&self) -> String {
        format!("{}-seed{}", self.workload.name(), self.seed)
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: sysbench --seed S [--workload NAME] [--seconds N] \
                     [--trace [0|1]] [--smoke] [--out FILE]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive whole number")?;
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// Run one workload in this process.
pub fn run(cfg: &Config) -> RunResult {
    match cfg.workload {
        Workload::SolveGeneral => solve::run(solve::Family::General, cfg),
        Workload::SolveLaminar => solve::run(solve::Family::Laminar, cfg),
        Workload::ServeMixed => serve::run(cfg),
        Workload::StreamDensity => stream::run(cfg),
    }
}

/// Append `line` to the `--out` file, resolved under [`OUT_DIR`].
fn append_out(file: &Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let path = Path::new(OUT_DIR).join(file);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        smoke: args.smoke,
    };
    println!(
        "== {} (seed {}, {}{}) ==",
        workload.name(),
        cfg.seed,
        if cfg.smoke {
            "smoke".to_string()
        } else {
            format!("{} s", args.seconds)
        },
        if cfg.trace { ", traced" } else { "" }
    );
    let result = run(&cfg);
    print!("{}", result.render(cfg.trace));
    if let Some(file) = &args.out {
        if let Err(e) = append_out(file, &result.out_line(workload.name(), cfg.seed, cfg.trace)) {
            eprintln!("sysbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.json(cfg.trace));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of this program.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sysbench: cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(raw)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("sysbench: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("sysbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sysbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&raw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        parse_args(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_every_flag_and_both_trace_forms() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ServeMixed));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        let bare = args(&["--trace", "--smoke"]).unwrap();
        assert!(bare.trace && bare.smoke);
        assert_eq!(args(&[]).unwrap().workload, None);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn release_profile_matches_the_workspace() {
        // The code under test must be built the way the shipped binary is.
        let profile = |manifest: &str| -> Vec<String> {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(manifest);
            let text = std::fs::read_to_string(&path).expect("manifest");
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let ours = profile("Cargo.toml");
        assert!(!ours.is_empty());
        assert_eq!(ours, profile("../Cargo.toml"));
    }

    #[test]
    fn smoke_runs_every_workload_correctly() {
        // One test, so the process-global probe session and thread
        // override are never shared with another smoke run.
        for trace in [false, true] {
            for workload in Workload::ALL {
                let cfg = Config {
                    workload,
                    seed: 3,
                    seconds: Duration::from_secs(1),
                    trace,
                    smoke: true,
                };
                let r = run(&cfg);
                // Failed requests are the program's to fix, and the run
                // counts them; a wrong answer or a replay that disagrees
                // with the entry point is the benchmark's.
                assert!(
                    r.correct() && r.failed < r.attempted,
                    "{} trace={trace}:\n{}",
                    workload.name(),
                    r.render(trace)
                );
                for (name, _) in RunResult::table(trace) {
                    assert!(r.values.contains_key(name), "{}: {name}", workload.name());
                }
            }
        }
    }
}
