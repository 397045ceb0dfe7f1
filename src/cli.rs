//! Implementation of the `speedscale` command-line tool.
//!
//! The binary (`src/main.rs`) is a thin wrapper around [`run`], so the whole
//! CLI surface is unit-testable without spawning processes.
//!
//! ```text
//! speedscale info <instance.ssp>
//! speedscale generate <family> --n N --m M [--alpha A] [--seed S] [-o FILE]
//! speedscale solve <instance.ssp> [--algo NAME] [--gantt] [--svg OUT.svg]
//! speedscale budget <instance.ssp> --energy E [--gantt]
//! speedscale compare <instance.ssp>
//! speedscale analyze <instance.ssp> [--algo NAME]
//! speedscale swf <trace.swf> [-o FILE]
//! speedscale quantize <instance.ssp> --levels K
//! ```
//!
//! Algorithms: `rr`, `classified`, `least-loaded`, `relax`, `greedy`,
//! `local` (greedy + local search), `exact` (n ≤ 16), `bal` (migratory),
//! `avr`, `oa` (online, migratory).

use ssp_migratory::bal::{try_bal, BalSolution};
use ssp_migratory::mbal::try_mbal;
use ssp_model::render::{gantt, GanttOptions};
use ssp_model::resource::Budget;
use ssp_model::{io, Instance, Schedule};
use ssp_workloads::families;
use std::fmt::Write as _;

/// CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

/// Entry point: interpret `args` (without the program name) and return the
/// text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    type Command = fn(&Parsed) -> Result<String, CliError>;
    let mut args = args.iter().map(String::as_str);
    // Each command with the flags it reads: valued flags, then switches.
    let (command, valued, switches): (Command, &str, &str) = match args.next() {
        Some("info") => (info, "", ""),
        Some("generate") => (generate, "n m alpha seed o", ""),
        Some("solve") => (
            solve,
            "algo width svg telemetry timeout-ms",
            "no-fallback gantt timings",
        ),
        Some("budget") => (budget, "energy", "gantt non-migratory"),
        Some("compare") => (compare, "", ""),
        Some("analyze") => (analyze, "algo", ""),
        Some("swf") => (
            swf_import,
            "machines alpha laxity max-jobs time-scale o",
            "",
        ),
        Some("quantize") => (quantize_cmd, "algo levels", ""),
        Some("trace") => (trace_cmd, "threshold", ""),
        Some("bench-diff") => (bench_diff_cmd, "threshold min-ms", ""),
        Some("bench") => (bench_cmd, "window min-ms trace-dir", "markdown gate"),
        Some("serve") => (
            serve_cmd,
            "socket workers queue-cap cache-cap shed-watermark timeout-ms telemetry",
            "stdin",
        ),
        Some("serve-drive") => (serve_drive_cmd, "socket count seed timeout-ms", ""),
        Some("stream") => (
            stream_cmd,
            "family n m alpha seed policy sched window-cap bal-cap emit telemetry",
            "no-lb report check",
        ),
        Some("help") | Some("-h") | Some("--help") | None => return Ok(USAGE.to_string()),
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown command '{other}'\n{USAGE}"
            )))
        }
    };
    command(&collect(args, valued, switches)?)
}

/// Usage text.
pub const USAGE: &str = "\
speedscale — energy-minimal deadline scheduling on speed-scaled processors

commands:
  info <file>                         inspect an instance file
  generate <family> --n N --m M       generate a workload
           [--alpha A] [--seed S] [-o FILE]
           families: unit-agreeable | unit-arbitrary | weighted-agreeable
                     | general | bursty
  solve <file> [--algo NAME] [--no-fallback] [--gantt] [--width W]
        [--svg OUT.svg] [--telemetry OUT.jsonl] [--timings]
        [--timeout-ms MS]
           algos: rr | classified | least-loaded | relax | greedy | local
                  | exact | bal | avr | oa        (default: rr)
           failures degrade through local → greedy → least-loaded → rr
           unless --no-fallback is given
           --telemetry writes the probe trace (spans + counters) as JSONL;
           --timings prints the phase table (see docs/OBSERVABILITY.md)
           --timeout-ms sets a wall-clock deadline observed inside solver
           loops; a solve is deterministic, so it makes one attempt
  budget <file> --energy E [--gantt] [--non-migratory]
                                      minimize makespan under an energy budget
  compare <file>                      run every algorithm, print the scoreboard
  analyze <file> [--algo NAME]        utilization, response times, power profile
  swf <trace.swf> [--machines M] [--alpha A] [--laxity L] [--max-jobs K]
      [--time-scale S] [-o FILE]      import an SWF trace into instance format
  quantize <file> [--algo NAME] --levels K
                                      schedule, then restrict speeds to a
                                      K-level geometric DVFS grid; report the
                                      energy overhead
  trace report <trace.jsonl>          span tree with self/total time, counter,
                                      histogram and allocation tables
  trace diff <old.jsonl> <new.jsonl> [--threshold PCT]
                                      per-span / per-counter deltas between two
                                      traces; rows past PCT% (default 10) are
                                      flagged with '!'
  trace fold <trace.jsonl>            flamegraph folded-stack output
                                      (one 'stack;path self_ns' line per span)
  bench-diff <old> <new> [--threshold PCT] [--min-ms X]
                                      compare two bench artifacts (snapshot
                                      .json or history .jsonl); exit 1 when any
                                      *_ms median regresses past PCT% (default
                                      10) and is above the X ms noise floor
                                      (default 0.05), or when the two are
                                      different benches or share no metric
  bench report <history.jsonl> [--window N] [--min-ms X] [--markdown]
               [--gate] [--trace-dir DIR]
                                      per-cell trajectory over the whole
                                      history: sparkline per *_ms metric,
                                      best/latest/delta, regressions judged
                                      against each cell's history-calibrated
                                      noise band (robust dispersion over the
                                      trailing N runs, default 8) instead of
                                      one global threshold; flagged cells get
                                      their auto-attached probe trace from DIR
                                      (default: traces/ next to the history)
                                      diffed against DIR/baseline or folded;
                                      --gate exits 1 on any flagged cell,
                                      --markdown emits a GitHub-flavored table
  serve [--socket PATH] [--stdin] [--workers N] [--queue-cap N]
        [--cache-cap N] [--shed-watermark N] [--timeout-ms MS]
        [--telemetry OUT.jsonl]
                                      solve service: JSONL requests over stdin
                                      (default) and/or a Unix socket; bounded
                                      queue, per-request deadlines, load
                                      shedding, result cache.
                                      SIGTERM/SIGINT drain and exit cleanly
                                      (protocol: docs/SERVE.md)
  serve-drive --socket PATH [--count N] [--seed S] [--timeout-ms MS]
                                      drive a running daemon with N mixed
                                      requests; exit 1 unless every request
                                      is answered with well-formed JSON
  stream [<trace.sst>] [--family F --n N --m M --seed S] [--alpha A]
         [--policy rr|load|density] [--sched oa|avr] [--window-cap N]
         [--bal-cap N] [--no-lb] [--report] [--check] [--emit FILE]
         [--telemetry OUT.jsonl]
                                      run the online arrival engine over a
                                      stream: jobs dispatched at release to
                                      per-machine incremental OA/AVR, live
                                      window compacted, energy reported
                                      against the chunked certified lower
                                      bound (docs/ONLINE.md). Input is an
                                      arrival trace file or a generated
                                      family: bursty | poisson | heavy |
                                      tight. --check exits 1 unless
                                      ratio >= 1; --emit writes the
                                      generated trace for replay
";

/// Parsed positional + flag arguments.
struct Parsed {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Parsed {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == name)
    }
    fn flag_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.flag(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("bad value '{v}' for --{name}"))),
        }
    }
}

/// Split `args` into positionals and flags. `valued` and `switches` list
/// the command's flag names, separated by spaces. A valued flag takes the
/// next token as its value whatever it looks like (so `--alpha -1` reaches
/// the validator); a switch takes none. A flag in neither list, or a valued
/// flag with nothing after it, is a usage error.
fn collect<'a>(
    mut args: impl Iterator<Item = &'a str>,
    valued: &str,
    switches: &str,
) -> Result<Parsed, CliError> {
    let listed = |names: &str, name: &str| names.split_whitespace().any(|n| n == name);
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    while let Some(a) = args.next() {
        let Some(name) = a
            .strip_prefix("--")
            .or_else(|| a.strip_prefix('-').filter(|s| s.len() == 1))
        else {
            positional.push(a.to_string());
            continue;
        };
        let value = if listed(switches, name) {
            None
        } else if listed(valued, name) {
            let v = args
                .next()
                .ok_or_else(|| CliError::usage(format!("{a} needs a value")))?;
            Some(v.to_string())
        } else {
            return Err(CliError::usage(format!("unknown flag '{a}'")));
        };
        flags.push((name.to_string(), value));
    }
    Ok(Parsed { positional, flags })
}

fn load(parsed: &Parsed) -> Result<Instance, CliError> {
    let path = parsed
        .positional
        .first()
        .ok_or_else(|| CliError::usage("missing instance file argument"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    io::parse(&text).map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))
}

fn info(parsed: &Parsed) -> Result<String, CliError> {
    let inst = load(parsed)?;
    let mut out = String::new();
    let _ = writeln!(out, "jobs:      {}", inst.len());
    let _ = writeln!(out, "machines:  {}", inst.machines());
    let _ = writeln!(out, "alpha:     {}", inst.alpha());
    if let Some((a, b)) = inst.horizon() {
        let _ = writeln!(out, "horizon:   [{a}, {b}]");
    }
    let _ = writeln!(out, "total work: {:.4}", inst.total_work());
    let _ = writeln!(out, "max density: {:.4}", inst.max_density());
    let _ = writeln!(out, "agreeable: {}", inst.is_agreeable());
    let _ = writeln!(
        out,
        "uniform work: {}",
        inst.is_uniform_work(Default::default())
    );
    Ok(out)
}

fn generate(parsed: &Parsed) -> Result<String, CliError> {
    let family = parsed
        .positional
        .first()
        .ok_or_else(|| CliError::usage("generate needs a family name"))?;
    let n: usize = parsed
        .flag_parse("n")?
        .ok_or_else(|| CliError::usage("generate needs --n"))?;
    let m: usize = parsed
        .flag_parse("m")?
        .ok_or_else(|| CliError::usage("generate needs --m"))?;
    let alpha: f64 = parsed.flag_parse("alpha")?.unwrap_or(2.0);
    let seed: u64 = parsed.flag_parse("seed")?.unwrap_or(0);
    Instance::new(Vec::new(), m, alpha).map_err(|e| CliError::usage(e.to_string()))?;
    let spec = match family.as_str() {
        "unit-agreeable" => families::unit_agreeable(n, m, alpha),
        "unit-arbitrary" => families::unit_arbitrary(n, m, alpha),
        "weighted-agreeable" => families::weighted_agreeable(n, m, alpha),
        "general" => families::general(n, m, alpha),
        "bursty" => families::bursty(n, m, alpha),
        other => return Err(CliError::usage(format!("unknown family '{other}'"))),
    };
    let inst = spec.gen(seed);
    let text = io::emit(&inst);
    match parsed.flag("o") {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote {} jobs to {path}\n", inst.len()))
        }
        None => Ok(text),
    }
}

/// Resolve an `--algo` name through the harness registry.
fn algo_named(name: &str) -> Result<ssp_harness::Algo, CliError> {
    ssp_harness::Algo::from_name(name)
        .map_err(|_| CliError::usage(format!("unknown algorithm '{name}'")))
}

/// Run a registered algorithm once behind the panic boundary and return
/// its schedule and label. `relaxation` is a BAL run on `inst` the caller
/// already holds (see [`ssp_harness::run_algorithm`]).
fn schedule_for(
    inst: &Instance,
    name: &str,
    relaxation: Option<&BalSolution>,
) -> Result<(Schedule, &'static str), CliError> {
    use ssp_harness::{run_algorithm, SolveOptions};
    let algo = algo_named(name)?;
    let run = run_algorithm(inst, algo, &SolveOptions::default(), relaxation)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    Ok((run.schedule, algo.label()))
}

/// Writes a probe trace to disk when dropped, unless defused by an explicit
/// [`TelemetryFlushGuard::flush`]. Armed right after the solve so that a
/// panic anywhere in the rendering path (gantt, SVG, phase table) — or an
/// early typed-error return — still leaves the trace on disk. A failed or
/// interrupted solve is exactly when the trace matters most.
struct TelemetryFlushGuard {
    path: Option<String>,
    trace: Option<ssp_probe::Trace>,
}

impl TelemetryFlushGuard {
    fn arm(path: Option<&str>, trace: Option<&ssp_probe::Trace>) -> Self {
        TelemetryFlushGuard {
            path: path.map(String::from),
            trace: trace.cloned(),
        }
    }

    /// Write the trace now and defuse the drop-path. `None` when there is
    /// nothing to write (no `--telemetry`, or no trace captured); otherwise
    /// the `(spans, counters)` counts or the I/O error message.
    fn flush(&mut self) -> Option<Result<(usize, usize), String>> {
        let path = self.path.take()?;
        let trace = self.trace.take()?;
        Some(
            std::fs::write(&path, trace.to_jsonl())
                .map(|()| (trace.spans.len(), trace.counters.len()))
                .map_err(|e| format!("cannot write {path}: {e}")),
        )
    }
}

impl Drop for TelemetryFlushGuard {
    fn drop(&mut self) {
        if let (Some(path), Some(trace)) = (self.path.take(), self.trace.take()) {
            // Unwinding or erroring out: best-effort write, nowhere to
            // report an I/O failure.
            let _ = std::fs::write(path, trace.to_jsonl());
        }
    }
}

/// `solve` goes through the harness: panic-free, post-validated, with a
/// degradation chain (`--no-fallback` restricts to the requested algorithm)
/// and an energy check against the certified BAL/KKT lower bound.
/// `--timeout-ms` maps onto the same deadline threading the serve daemon
/// uses (`ssp_serve::retry::deadline_budget`).
fn solve(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_harness::SolveOptions;
    let inst = load(parsed)?;
    let algo = algo_named(parsed.flag("algo").unwrap_or("rr"))?;
    let timeout_ms: Option<u64> = parsed.flag_parse("timeout-ms")?;
    let (budget, _) = ssp_serve::retry::deadline_budget(
        ssp_model::Budget::unlimited(),
        std::time::Instant::now(),
        timeout_ms.map(std::time::Duration::from_millis),
    );
    let opts = SolveOptions {
        budget,
        degrade: !parsed.has("no-fallback"),
        ..Default::default()
    };
    let want_trace = parsed.has("telemetry") || parsed.has("timings");
    let report = if want_trace {
        ssp_harness::solve_traced(&inst, algo, &opts)
    } else {
        ssp_harness::solve(&inst, algo, &opts)
    };
    // From here on any panic or early error must still flush the trace.
    let mut telemetry_guard =
        TelemetryFlushGuard::arm(parsed.flag("telemetry"), report.telemetry.as_ref());
    let Some(outcome) = report.outcome.as_ref() else {
        // The whole chain failed: its summary and the partial telemetry
        // go into the error message.
        let mut message = format!(
            "no algorithm produced a valid schedule:\n{}",
            report.summary().trim_end()
        );
        match telemetry_guard.flush() {
            Some(Ok(_)) => {
                let _ = write!(
                    message,
                    "\npartial telemetry written to {}",
                    parsed.flag("telemetry").unwrap_or("?")
                );
            }
            Some(Err(e)) => {
                let _ = write!(message, "\n{e}");
            }
            None => {}
        }
        return Err(CliError::runtime(message));
    };
    let mut out = String::new();
    let _ = writeln!(out, "{}", outcome.algorithm.label());
    if report.degraded() {
        let _ = writeln!(
            out,
            "note: '{}' failed; fell back to '{}'",
            report.requested, outcome.algorithm
        );
        for a in &report.attempts {
            if let Some(e) = &a.error {
                let _ = writeln!(out, "  {}: {} ({})", a.algo, e, e.kind());
            }
        }
    }
    if let Some(resource) = outcome.budget_exhausted {
        let _ = writeln!(
            out,
            "note: {resource} budget exhausted; result is best-so-far"
        );
    }
    let stats = &outcome.stats;
    let _ = writeln!(
        out,
        "energy {:.6} | makespan {:.4} | preemptions {} | migrations {} | peak speed {:.4}",
        stats.energy, stats.makespan, stats.preemptions, stats.migrations, stats.max_speed
    );
    if let (Some(lb), Some(ratio)) = (report.lower_bound, outcome.lb_ratio) {
        let _ = writeln!(out, "certified lower bound {lb:.6} | ratio {ratio:.6}");
    }
    if parsed.has("gantt") {
        let width: usize = parsed.flag_parse("width")?.unwrap_or(72);
        let _ = write!(
            out,
            "{}",
            gantt(
                &outcome.schedule,
                GanttOptions {
                    width,
                    show_speeds: true
                }
            )
        );
    }
    if let Some(path) = parsed.flag("svg") {
        let svg = ssp_model::svg::svg_gantt(&outcome.schedule, Default::default());
        std::fs::write(path, svg)
            .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "SVG written to {path}");
    }
    if want_trace {
        let trace = report.telemetry.as_ref().ok_or_else(|| {
            CliError::runtime("probe session unavailable (another trace in progress?)")
        })?;
        if parsed.has("timings") {
            let _ = write!(out, "{}", trace.phase_table());
        }
        match telemetry_guard.flush() {
            Some(Ok((spans, counters))) => {
                let path = parsed.flag("telemetry").unwrap_or("?");
                let _ = writeln!(
                    out,
                    "telemetry written to {path} ({spans} spans, {counters} counters)"
                );
            }
            Some(Err(e)) => return Err(CliError::runtime(e)),
            None => {}
        }
    }
    Ok(out)
}

fn budget(parsed: &Parsed) -> Result<String, CliError> {
    let inst = load(parsed)?;
    let energy: f64 = parsed
        .flag_parse("energy")?
        .ok_or_else(|| CliError::usage("budget needs --energy"))?;
    let energy_ok = energy > 0.0 && energy.is_finite();
    if !energy_ok {
        return Err(CliError::usage(format!(
            "--energy must be finite and > 0, got {energy}"
        )));
    }
    let (label, makespan, used, schedule) = if parsed.has("non-migratory") {
        use ssp_core::budget::{makespan_under_budget, InnerSolver};
        let solver = if inst.len() <= 16 {
            InnerSolver::Exact
        } else {
            InnerSolver::Greedy
        };
        match makespan_under_budget(&inst, energy, solver) {
            None => {
                return Err(CliError::runtime(format!(
                    "no schedule meets deadlines within energy budget {energy}"
                )))
            }
            Some(sol) => (
                if solver == InnerSolver::Exact {
                    "non-migratory (exact)"
                } else {
                    "non-migratory (greedy)"
                },
                sol.makespan,
                sol.energy,
                sol.schedule(),
            ),
        }
    } else {
        let solved = try_mbal(&inst, energy)
            .map_err(|e| CliError::runtime(format!("cannot solve under the budget: {e}")))?;
        match solved {
            None => {
                return Err(CliError::runtime(format!(
                    "no schedule meets deadlines within energy budget {energy}"
                )))
            }
            Some(sol) => (
                "migratory (optimal)",
                sol.makespan,
                sol.energy,
                sol.schedule(),
            ),
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label}: minimal makespan {makespan:.6} using energy {used:.6} of budget {energy}"
    );
    if parsed.has("gantt") {
        let _ = write!(
            out,
            "{}",
            gantt(
                &schedule,
                GanttOptions {
                    width: 72,
                    show_speeds: true
                }
            )
        );
    }
    Ok(out)
}

fn compare(parsed: &Parsed) -> Result<String, CliError> {
    let inst = load(parsed)?;
    let relaxation = try_bal(&inst, Budget::unlimited())
        .map_err(|e| CliError::runtime(format!("cannot compute the lower bound: {e}")))?;
    let lb = relaxation.energy;
    let mut out = String::new();
    let _ = writeln!(out, "{:<42} {:>14} {:>8}", "algorithm", "energy", "vs LB");
    let _ = writeln!(
        out,
        "{:<42} {:>14.6} {:>8}",
        "migratory optimum (lower bound)", lb, "1.000"
    );
    let mut algos = vec![
        "rr",
        "classified",
        "least-loaded",
        "relax",
        "greedy",
        "local",
    ];
    if inst.len() <= 12 {
        algos.push("exact");
    }
    for algo in algos {
        let (schedule, label) = schedule_for(&inst, algo, Some(&relaxation))?;
        let e = schedule.energy(inst.alpha());
        let _ = writeln!(out, "{:<42} {:>14.6} {:>8.3}", label, e, e / lb);
    }
    Ok(out)
}

fn analyze(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_model::analysis;
    use ssp_model::render::speed_sparkline;
    let inst = load(parsed)?;
    let algo = parsed.flag("algo").unwrap_or("bal");
    let (schedule, label) = schedule_for(&inst, algo, None)?;
    schedule
        .validate(&inst, Default::default())
        .map_err(|e| CliError::runtime(format!("schedule failed validation: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "{label}");
    let util = analysis::utilization(&schedule);
    for (m, u) in util.iter().enumerate() {
        let _ = writeln!(out, "machine {m}: utilization {:.1}%", u * 100.0);
    }
    let _ = writeln!(
        out,
        "peak power: {:.4}",
        analysis::peak_power(&schedule, inst.alpha())
    );
    let rt = analysis::response_times(&schedule, &inst);
    let mean_rt = rt.iter().map(|&(_, t)| t).sum::<f64>() / rt.len().max(1) as f64;
    let max_rt = rt.iter().map(|&(_, t)| t).fold(0.0, f64::max);
    let _ = writeln!(out, "response time: mean {mean_rt:.4}, max {max_rt:.4}");
    let slack = analysis::deadline_slacks(&schedule, &inst);
    let min_slack = slack.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let _ = writeln!(out, "minimum deadline slack: {min_slack:.4}");
    let _ = writeln!(out, "{}", speed_sparkline(&schedule, 64));
    Ok(out)
}

fn swf_import(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_workloads::swf::{parse_swf, SwfOptions};
    let path = parsed
        .positional
        .first()
        .ok_or_else(|| CliError::usage("swf needs a trace file"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let opts = SwfOptions {
        machines: parsed.flag_parse("machines")?.unwrap_or(8),
        alpha: parsed.flag_parse("alpha")?.unwrap_or(2.0),
        laxity: parsed.flag_parse("laxity")?.unwrap_or(3.0),
        max_jobs: parsed.flag_parse("max-jobs")?.unwrap_or(usize::MAX),
        time_scale: parsed.flag_parse("time-scale")?.unwrap_or(1.0),
    };
    let (inst, report) = parse_swf(&text, opts)
        .map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))?;
    let mut out = format!(
        "imported {} jobs ({} invalid skipped, {} comments)\n",
        report.imported, report.skipped_invalid, report.comments
    );
    match parsed.flag("o") {
        Some(dest) => {
            std::fs::write(dest, io::emit(&inst))
                .map_err(|e| CliError::runtime(format!("cannot write {dest}: {e}")))?;
            let _ = writeln!(out, "instance written to {dest}");
        }
        None => out.push_str(&io::emit(&inst)),
    }
    Ok(out)
}

fn quantize_cmd(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_model::quantize::{quantize_speeds, SpeedLevels};
    let inst = load(parsed)?;
    let algo = parsed.flag("algo").unwrap_or("bal");
    let levels: usize = parsed
        .flag_parse("levels")?
        .ok_or_else(|| CliError::usage("quantize needs --levels"))?;
    if levels < 2 {
        return Err(CliError::usage("--levels must be at least 2"));
    }
    let (schedule, label) = schedule_for(&inst, algo, None)?;
    let continuous = schedule.energy(inst.alpha());
    let smin = schedule
        .segments()
        .iter()
        .map(|s| s.speed)
        .fold(f64::INFINITY, f64::min);
    let smax = schedule
        .segments()
        .iter()
        .map(|s| s.speed)
        .fold(0.0f64, f64::max)
        * (1.0 + 1e-9);
    let grid = SpeedLevels::geometric(smin, smax, levels)
        .map_err(|e| CliError::runtime(format!("cannot build level grid: {e}")))?;
    let quantized = quantize_speeds(&schedule, &grid)
        .map_err(|s| CliError::runtime(format!("speed {s} exceeds the grid")))?;
    quantized
        .validate(&inst, Default::default())
        .map_err(|e| CliError::runtime(format!("quantized schedule invalid: {e}")))?;
    let discrete = quantized.energy(inst.alpha());
    Ok(format!(
        "{label}\ncontinuous energy {continuous:.6}\n{levels}-level grid [{:.4}, {:.4}]: \
         energy {discrete:.6} (overhead x{:.5})\n",
        grid.min(),
        grid.max(),
        discrete / continuous
    ))
}

/// Read and structurally validate a probe trace file.
fn load_trace(path: &str) -> Result<ssp_probe::Trace, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let trace = ssp_probe::Trace::parse(&text)
        .map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))?;
    trace
        .validate()
        .map_err(|e| CliError::runtime(format!("{path}: malformed trace: {e}")))?;
    Ok(trace)
}

/// `trace report|diff|fold` — offline analysis of JSONL probe traces.
fn trace_cmd(parsed: &Parsed) -> Result<String, CliError> {
    let sub = parsed
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage("trace needs a subcommand: report | diff | fold"))?;
    match sub {
        "report" => {
            let path = parsed
                .positional
                .get(1)
                .ok_or_else(|| CliError::usage("trace report needs a trace file"))?;
            Ok(load_trace(path)?.report())
        }
        "fold" => {
            let path = parsed
                .positional
                .get(1)
                .ok_or_else(|| CliError::usage("trace fold needs a trace file"))?;
            Ok(load_trace(path)?.folded())
        }
        "diff" => {
            let (old, new) = match (parsed.positional.get(1), parsed.positional.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(CliError::usage("trace diff needs two trace files")),
            };
            let threshold: f64 = parsed.flag_parse("threshold")?.unwrap_or(10.0);
            if threshold.is_nan() || threshold < 0.0 {
                return Err(CliError::usage("--threshold must be >= 0"));
            }
            Ok(ssp_probe::diff(
                &load_trace(old)?,
                &load_trace(new)?,
                threshold / 100.0,
            ))
        }
        other => Err(CliError::usage(format!(
            "unknown trace subcommand '{other}' (expected report | diff | fold)"
        ))),
    }
}

/// `bench-diff` — the bench-trajectory regression gate. Prints the
/// comparison table; regressions past the threshold make it an exit-1
/// runtime error (with the same table as the message) so CI can gate on it.
fn bench_diff_cmd(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_bench::benchdata;
    let (old_path, new_path) = match (parsed.positional.first(), parsed.positional.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(CliError::usage(
                "bench-diff needs <old> and <new> artifacts",
            ))
        }
    };
    let threshold: f64 = parsed.flag_parse("threshold")?.unwrap_or(10.0);
    let min_ms: f64 = parsed
        .flag_parse("min-ms")?
        .unwrap_or(ssp_bench::benchreport::DEFAULT_MIN_MS);
    if threshold.is_nan() || threshold < 0.0 || min_ms.is_nan() || min_ms < 0.0 {
        return Err(CliError::usage("--threshold and --min-ms must be >= 0"));
    }
    let mut artifacts = Vec::with_capacity(2);
    for path in [old_path, new_path] {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
        artifacts.push(
            benchdata::parse_artifact(&text)
                .map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))?,
        );
    }
    let diff = benchdata::diff_artifacts(&artifacts[0], &artifacts[1], threshold / 100.0, min_ms)
        .map_err(|e| {
        CliError::runtime(format!("cannot compare {old_path} with {new_path}: {e}"))
    })?;
    let mut out = format!(
        "comparing {old_path} -> {new_path}{}\n",
        artifacts[1]
            .rev
            .as_deref()
            .map(|r| format!(" (rev {r})"))
            .unwrap_or_default()
    );
    out.push_str(&diff.render());
    if diff.regressions() > 0 {
        return Err(CliError::runtime(out));
    }
    Ok(out)
}

/// `bench report` — the perf-trajectory service: per-cell sparklines and
/// history-calibrated regression annotations over the whole
/// `BENCH_history.jsonl`, with auto-attached trace diffs for flagged
/// cells. `--gate` turns any flagged cell into an exit-1 runtime error
/// (with the full report as the message) so CI can gate on it.
fn bench_cmd(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_bench::benchreport;
    let sub = parsed
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::usage("bench needs a subcommand: report"))?;
    if sub != "report" {
        return Err(CliError::usage(format!(
            "unknown bench subcommand '{sub}' (expected report)"
        )));
    }
    let path = parsed
        .positional
        .get(1)
        .ok_or_else(|| CliError::usage("bench report needs a history.jsonl file"))?;
    let window: usize = parsed
        .flag_parse("window")?
        .unwrap_or(benchreport::DEFAULT_WINDOW);
    if window == 0 {
        return Err(CliError::usage("--window must be >= 1"));
    }
    let min_ms: f64 = parsed
        .flag_parse("min-ms")?
        .unwrap_or(benchreport::DEFAULT_MIN_MS);
    if min_ms.is_nan() || min_ms < 0.0 {
        return Err(CliError::usage("--min-ms must be >= 0"));
    }
    let markdown = parsed.has("markdown");
    let gate = parsed.has("gate");
    // Attached traces default to `traces/` next to the history file —
    // where the bench harness writes them when SSP_BENCH_TRACE_DIR=traces.
    let trace_dir = match parsed.flag("trace-dir") {
        Some(dir) => dir.to_string(),
        None => std::path::Path::new(path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join("traces")
            .to_string_lossy()
            .into_owned(),
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let (out, flagged) = benchreport::report(path, &text, window, min_ms, markdown, &trace_dir);
    if gate && flagged > 0 {
        return Err(CliError::runtime(out));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve: the fault-tolerant solve daemon (transport layer over ssp-serve)
// ---------------------------------------------------------------------------

/// Set by SIGTERM/SIGINT (and by tests); the daemon loop polls it, stops
/// accepting, drains the queue, and exits cleanly.
static SERVE_TERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn serve_on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    SERVE_TERM.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[cfg(unix)]
fn install_serve_signal_handlers() {
    // The workspace is deliberately dependency-free, so no libc crate:
    // declare the one libc symbol needed. BSD `signal` semantics (glibc
    // default) keep the handler installed across deliveries.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = serve_on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_serve_signal_handlers() {}

/// Response sink writing JSONL to this process's stdout (stdin transport).
fn stdout_sink() -> ssp_serve::Sink {
    std::sync::Arc::new(|line: &str| {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    })
}

/// The `ssp serve` daemon. Transport only: requests come in as JSONL lines
/// from stdin and/or a Unix socket and are handed to [`ssp_serve::Server`];
/// admission control, deadlines, shedding, caching, and isolation
/// all live in the service crate so tests and EXP-21 exercise the same
/// code. Shutdown (SIGTERM/SIGINT, or stdin EOF when stdin is the only
/// transport) drains every admitted request before exiting.
fn serve_cmd(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_serve::{ServeOptions, Server};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let opts = ServeOptions {
        workers: parsed.flag_parse("workers")?.unwrap_or(4),
        queue_cap: parsed.flag_parse("queue-cap")?.unwrap_or(64),
        cache_cap: parsed.flag_parse("cache-cap")?.unwrap_or(256),
        shed_watermark: parsed.flag_parse("shed-watermark")?.unwrap_or(48),
        default_timeout: parsed
            .flag_parse::<u64>("timeout-ms")?
            .map(Duration::from_millis),
        ..Default::default()
    };
    if opts.workers == 0 || opts.queue_cap == 0 {
        return Err(CliError::usage("--workers and --queue-cap must be >= 1"));
    }
    let socket_path = parsed.flag("socket").map(String::from);
    let use_stdin = parsed.has("stdin") || socket_path.is_none();

    install_serve_signal_handlers();
    SERVE_TERM.store(false, std::sync::atomic::Ordering::SeqCst);

    // The daemon owns the probe session and keeps a span open so worker
    // spans nest under it; `None` (another trace in flight) just means an
    // untraced run.
    let session = ssp_probe::Session::begin();
    let span = ssp_probe::span("serve");
    let mut server = Server::start(opts);

    let stdin_done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    if use_stdin {
        let handle = server.handle();
        let done = Arc::clone(&stdin_done);
        // Never joined: a read blocked on a tty at shutdown dies with the
        // process after the drain completes.
        std::thread::spawn(move || {
            use std::io::BufRead;
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if !l.trim().is_empty() => {
                        handle.submit(&l, stdout_sink());
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            done.store(true, Ordering::SeqCst);
        });
    }

    // Readers still draining buffered socket lines at shutdown.
    let live_conns = Arc::new(AtomicUsize::new(0));
    #[cfg(unix)]
    let listener = match &socket_path {
        Some(path) => {
            let _ = std::fs::remove_file(path); // stale socket from a crash
            let l = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| CliError::runtime(format!("cannot bind {path}: {e}")))?;
            l.set_nonblocking(true)
                .map_err(|e| CliError::runtime(format!("cannot configure {path}: {e}")))?;
            eprintln!("serve: listening on {path}");
            Some(l)
        }
        None => None,
    };
    #[cfg(not(unix))]
    if socket_path.is_some() {
        return Err(CliError::runtime("--socket requires a unix platform"));
    }

    loop {
        if SERVE_TERM.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        // Stdin EOF ends the daemon only when stdin is the sole transport.
        if use_stdin && socket_path.is_none() && stdin_done.load(Ordering::SeqCst) {
            break;
        }
        #[cfg(unix)]
        if let Some(l) = &listener {
            while let Ok((stream, _)) = l.accept() {
                let _ = stream.set_nonblocking(false);
                spawn_socket_reader(stream, server.handle(), Arc::clone(&live_conns));
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Shutdown sequence: stop accepting, let connection readers finish
    // submitting what clients already sent (they half-close after writing;
    // bounded grace so a hung client cannot wedge the drain), then drain
    // the queue — every admitted request is answered before workers exit.
    #[cfg(unix)]
    drop(listener);
    let grace = std::time::Instant::now() + Duration::from_secs(5);
    while live_conns.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < grace {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    drop(span);
    if let Some(path) = &socket_path {
        let _ = std::fs::remove_file(path);
    }

    let stats = server.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} submitted | {} ok | {} error | {} rejected | {} panic-isolated",
        stats.submitted, stats.ok, stats.errors, stats.rejected, stats.panics
    );
    let _ = writeln!(
        out,
        "cache: {} hits, {} misses | shed {} | degraded {}",
        stats.cache_hits, stats.cache_misses, stats.shed, stats.degraded
    );
    if let Some(session) = session {
        let trace = session.end();
        if let Some(h) = trace.hist("serve.request_us") {
            let _ = writeln!(
                out,
                "latency: p50 {}us | p90 {}us | p99 {}us ({} requests)",
                h.p50(),
                h.p90(),
                h.p99(),
                h.count
            );
        }
        if let Some(path) = parsed.flag("telemetry") {
            std::fs::write(path, trace.to_jsonl())
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "telemetry written to {path}");
        }
    }
    Ok(out)
}

/// One reader thread per socket connection: submit each JSONL line, answer
/// on the same stream (write half is shared with the worker sinks), exit on
/// client EOF/half-close.
#[cfg(unix)]
fn spawn_socket_reader(
    stream: std::os::unix::net::UnixStream,
    handle: ssp_serve::ServerHandle,
    live_conns: std::sync::Arc<std::sync::atomic::AtomicUsize>,
) {
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};
    live_conns.fetch_add(1, Ordering::SeqCst);
    std::thread::spawn(move || {
        use std::io::{BufRead, BufReader, Write};
        let sink: ssp_serve::Sink = match stream.try_clone() {
            Ok(write_half) => {
                let write_half = Arc::new(Mutex::new(write_half));
                Arc::new(move |line: &str| {
                    let mut w = write_half.lock().unwrap_or_else(|e| e.into_inner());
                    let _ = writeln!(w, "{line}");
                    let _ = w.flush();
                })
            }
            // Cannot answer this client; swallow its responses rather than
            // refuse the connection.
            Err(_) => Arc::new(|_line: &str| {}),
        };
        for line in BufReader::new(stream).lines() {
            match line {
                Ok(l) if !l.trim().is_empty() => {
                    handle.submit(&l, Arc::clone(&sink));
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        live_conns.fetch_sub(1, Ordering::SeqCst);
    });
}

/// `ssp serve-drive`: load-generator client for a running daemon. Sends
/// `--count` mixed-family requests (every 4th a repeat, so the cache gets
/// traffic), half-closes, then requires one well-formed JSON response per
/// request — which is exactly the drain guarantee CI's serve-smoke asserts
/// across a SIGTERM.
fn serve_drive_cmd(parsed: &Parsed) -> Result<String, CliError> {
    #[cfg(not(unix))]
    {
        let _ = parsed;
        return Err(CliError::runtime("serve-drive requires unix sockets"));
    }
    #[cfg(unix)]
    {
        use ssp_probe::json::Json;
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let path = parsed
            .flag("socket")
            .ok_or_else(|| CliError::usage("serve-drive needs --socket PATH"))?;
        let count: usize = parsed.flag_parse("count")?.unwrap_or(24);
        let seed: u64 = parsed.flag_parse("seed")?.unwrap_or(1);
        let timeout_ms: Option<u64> = parsed.flag_parse("timeout-ms")?;

        // The daemon may still be binding; retry the connect briefly.
        let mut stream = None;
        for _ in 0..40 {
            match UnixStream::connect(path) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(25)),
            }
        }
        let stream =
            stream.ok_or_else(|| CliError::runtime(format!("cannot connect to {path}")))?;

        let algos = ["bal", "local", "greedy", "least-loaded", "rr", "avr", "oa"];
        for i in 0..count {
            // Every 4th request is the same instance+algo: cache traffic.
            let (inst, algo) = if i % 4 == 0 {
                (families::general(6, 2, 2.0).gen(7), "bal")
            } else {
                let s = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                let inst = match i % 3 {
                    0 => families::bursty(8, 2, 3.0).gen(s),
                    1 => families::unit_arbitrary(5, 3, 2.0).gen(s),
                    _ => families::general(10, 2, 2.0).gen(s),
                };
                (inst, algos[i % algos.len()])
            };
            let mut fields = vec![
                ("id".to_string(), Json::Str(format!("drive-{i}"))),
                ("algo".to_string(), Json::Str(algo.to_string())),
                ("instance".to_string(), Json::Str(io::emit(&inst))),
            ];
            if let Some(ms) = timeout_ms {
                fields.push(("timeout_ms".to_string(), Json::Num(ms as f64)));
            }
            let line = Json::Obj(fields).to_string_compact();
            writeln!(&stream, "{line}")
                .map_err(|e| CliError::runtime(format!("write to {path} failed: {e}")))?;
        }
        // Half-close: tells the daemon's reader this client is done
        // submitting, which is what lets a SIGTERM'd daemon finish its
        // drain deterministically.
        stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(|e| CliError::runtime(format!("shutdown(Write) failed: {e}")))?;

        let (mut ok, mut errors, mut hits, mut degraded, mut malformed) = (0, 0, 0, 0, 0);
        let mut got = 0usize;
        for line in BufReader::new(stream).lines() {
            let line = line.map_err(|e| CliError::runtime(format!("read failed: {e}")))?;
            if line.trim().is_empty() {
                continue;
            }
            got += 1;
            match ssp_probe::json::parse(&line) {
                Ok(v) => match v.get("status").and_then(|s| s.as_str()) {
                    Some("ok") => {
                        ok += 1;
                        if v.get("cache").and_then(|c| c.as_str()) == Some("hit") {
                            hits += 1;
                        }
                        if v.get("degraded").and_then(|d| d.as_bool()) == Some(true) {
                            degraded += 1;
                        }
                    }
                    Some("error") => errors += 1,
                    _ => malformed += 1,
                },
                Err(_) => malformed += 1,
            }
            if got == count {
                break;
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve-drive: {got}/{count} answered | {ok} ok | {errors} error | {hits} cache hits | {degraded} degraded"
        );
        if got < count {
            return Err(CliError::runtime(format!(
                "{out}daemon answered only {got} of {count} requests (drain violated)"
            )));
        }
        if malformed > 0 {
            return Err(CliError::runtime(format!(
                "{out}{malformed} responses were not well-formed"
            )));
        }
        Ok(out)
    }
}

/// `ssp stream`: run the online arrival engine (ssp-online) over a stream
/// of release-ordered jobs — an arrival trace file, or a generated stream
/// family — and report energy, the chunked certified lower bound, and the
/// engine's memory/incrementality counters. See docs/ONLINE.md.
fn stream_cmd(parsed: &Parsed) -> Result<String, CliError> {
    use ssp_online::{EngineOptions, LbMode, Policy, SchedulerKind, StreamEngine};
    use ssp_workloads::{stream_family, STREAM_FAMILIES};

    let policy = match parsed.flag("policy") {
        None => Policy::RoundRobin,
        Some(name) => Policy::parse(name)
            .ok_or_else(|| CliError::usage(format!("unknown policy '{name}' (rr|load|density)")))?,
    };
    let scheduler = match parsed.flag("sched") {
        None => SchedulerKind::Oa,
        Some(name) => SchedulerKind::parse(name)
            .ok_or_else(|| CliError::usage(format!("unknown scheduler '{name}' (oa|avr)")))?,
    };
    let window_cap: Option<usize> = parsed.flag_parse("window-cap")?;
    if window_cap == Some(0) {
        return Err(CliError::usage("--window-cap must be positive"));
    }

    // Source: a trace file (header supplies m/alpha unless overridden) or a
    // generated family (needs --family/--n/--m).
    let file = parsed.positional.first();
    let family = parsed.flag("family");
    let (label, machines, alpha, jobs): (String, usize, f64, Vec<ssp_model::Job>) =
        match (file, family) {
            (Some(path), None) => {
                let f = std::fs::File::open(path)
                    .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
                let reader = ssp_model::ArrivalReader::new(std::io::BufReader::new(f))
                    .map_err(|e| CliError::runtime(format!("cannot parse {path}: {e}")))?;
                let header = reader.header();
                let machines = parsed.flag_parse("m")?.unwrap_or(header.machines);
                let alpha = parsed.flag_parse("alpha")?.unwrap_or(header.alpha);
                let jobs: Vec<ssp_model::Job> = reader
                    .collect::<Result<_, _>>()
                    .map_err(|e| CliError::runtime(format!("bad trace {path}: {e}")))?;
                (format!("trace {path}"), machines, alpha, jobs)
            }
            (None, Some(name)) => {
                let n: usize = parsed
                    .flag_parse("n")?
                    .ok_or_else(|| CliError::usage("generated stream needs --n"))?;
                let machines: usize = parsed
                    .flag_parse("m")?
                    .ok_or_else(|| CliError::usage("generated stream needs --m"))?;
                let alpha: f64 = parsed.flag_parse("alpha")?.unwrap_or(2.0);
                let seed: u64 = parsed.flag_parse("seed")?.unwrap_or(0);
                let spec = stream_family(name, machines, alpha).ok_or_else(|| {
                    CliError::usage(format!(
                        "unknown stream family '{name}' (expected one of: {})",
                        STREAM_FAMILIES.join(" | ")
                    ))
                })?;
                let jobs: Vec<ssp_model::Job> = spec.jobs(seed).take(n).collect();
                (
                    format!("family {name} (seed {seed})"),
                    machines,
                    alpha,
                    jobs,
                )
            }
            (Some(_), Some(_)) => {
                return Err(CliError::usage(
                    "give either a trace file or --family, not both",
                ))
            }
            (None, None) => {
                return Err(CliError::usage(
                    "stream needs a trace file or --family NAME --n N --m M",
                ))
            }
        };

    if let Some(dest) = parsed.flag("emit") {
        let mut w = ssp_model::ArrivalWriter::new(Vec::new(), machines, alpha)
            .map_err(|e| CliError::runtime(format!("emit failed: {e}")))?;
        for job in &jobs {
            w.push(job)
                .map_err(|e| CliError::runtime(format!("emit failed: {e}")))?;
        }
        let buf = w
            .finish()
            .map_err(|e| CliError::runtime(format!("emit failed: {e}")))?;
        std::fs::write(dest, buf)
            .map_err(|e| CliError::runtime(format!("cannot write {dest}: {e}")))?;
    }

    let mut opts = EngineOptions::new(machines, alpha)
        .policy(policy)
        .scheduler(scheduler);
    if let Some(cap) = window_cap {
        opts = opts.window_cap(cap);
    }
    if parsed.has("no-lb") {
        opts = opts.lower_bound(LbMode::Off);
    } else if let Some(cap) = parsed.flag_parse("bal-cap")? {
        opts = opts.lower_bound(LbMode::Chunked { bal_cap: cap });
    }

    // A session only when telemetry is requested, so `ssp stream` composes
    // with outer sessions (tests, the exper runner) by default.
    let session = if parsed.has("telemetry") {
        ssp_probe::Session::begin()
    } else {
        None
    };
    let mut engine =
        StreamEngine::new(opts).map_err(|e| CliError::runtime(format!("bad options: {e}")))?;
    for job in jobs {
        engine
            .push(job)
            .map_err(|e| CliError::runtime(format!("bad arrival: {e}")))?;
    }
    let r = engine
        .finish()
        .map_err(|e| CliError::runtime(format!("stream failed: {e}")))?;
    let telemetry_note = match (session, parsed.flag("telemetry")) {
        (Some(session), Some(path)) => {
            let trace = session.end();
            std::fs::write(path, trace.to_jsonl())
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
            Some(format!("telemetry written to {path}"))
        }
        _ => None,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "stream: {label} | {} jobs | m {} | alpha {} | policy {} | sched {}",
        r.arrivals,
        r.machines,
        r.alpha,
        r.policy,
        r.scheduler.name()
    );
    match (r.lower_bound, r.ratio()) {
        (Some(lb), Some(ratio)) => {
            let _ = writeln!(
                out,
                "energy {:.6} | certified LB {lb:.6} | ratio {ratio:.4}",
                r.energy
            );
        }
        _ => {
            let _ = writeln!(out, "energy {:.6} (lower bound off)", r.energy);
        }
    }
    let _ = writeln!(
        out,
        "peak live window {} jobs | peak chunk {} | compactions {} ({} forced)",
        r.peak_live, r.peak_chunk, r.compactions, r.forced_compactions
    );
    let _ = writeln!(
        out,
        "replans {} / {} machine-events (recompute {:.1}%)",
        r.replans,
        r.machine_events,
        r.recompute_frac() * 100.0
    );
    if parsed.has("report") {
        for (p, e) in r.machine_energy.iter().enumerate() {
            let _ = writeln!(out, "  machine {p}: energy {e:.6}");
        }
        if r.density_fallbacks > 0 {
            let _ = writeln!(
                out,
                "  density pricing fell back to overlap counting {} times",
                r.density_fallbacks
            );
        }
    }
    if let Some(note) = telemetry_note {
        let _ = writeln!(out, "{note}");
    }
    if parsed.has("check") {
        let ratio = r
            .ratio()
            .ok_or_else(|| CliError::runtime("--check needs the lower bound (drop --no-lb)"))?;
        if ratio < 1.0 - 1e-6 {
            return Err(CliError::runtime(format!(
                "{out}ratio {ratio} below 1: the certified bound is violated — this is a bug"
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// A fresh file per call: tests run in parallel and each removes its
    /// own copy when done.
    fn tmp_instance() -> String {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let inst = families::general(8, 2, 2.0).gen(3);
        let path =
            std::env::temp_dir().join(format!("ssp_cli_test_{}_{k}.ssp", std::process::id()));
        std::fs::write(&path, io::emit(&inst)).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&args(&["help"])).unwrap().contains("speedscale"));
        assert!(run(&[]).unwrap().contains("commands:"));
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    #[test]
    fn generate_info_solve_pipeline() {
        let path = std::env::temp_dir().join(format!("ssp_cli_gen_{}.ssp", std::process::id()));
        let p = path.to_string_lossy().into_owned();
        let msg = run(&args(&[
            "generate", "bursty", "--n", "10", "--m", "2", "--seed", "5", "-o", &p,
        ]))
        .unwrap();
        assert!(msg.contains("wrote 10 jobs"));

        let info = run(&args(&["info", &p])).unwrap();
        assert!(info.contains("jobs:      10"));
        assert!(info.contains("machines:  2"));

        for algo in [
            "rr",
            "classified",
            "least-loaded",
            "relax",
            "greedy",
            "local",
            "bal",
            "avr",
            "oa",
            "exact",
        ] {
            let out = run(&args(&["solve", &p, "--algo", algo])).unwrap();
            assert!(out.contains("energy"), "{algo}: {out}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_with_gantt_renders_rows() {
        let p = tmp_instance();
        let out = run(&args(&[
            "solve", &p, "--algo", "bal", "--gantt", "--width", "40",
        ]))
        .unwrap();
        assert!(out.contains("m0 "));
        assert!(out.contains("m1 "));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn compare_lists_all_policies() {
        let p = tmp_instance();
        let out = run(&args(&["compare", &p])).unwrap();
        assert!(out.contains("round-robin"));
        assert!(out.contains("exact optimum"));
        assert!(out.contains("lower bound"));
        std::fs::remove_file(&p).ok();
    }

    /// A job of density 1e600 overflows BAL's opening speed bracket: the
    /// lower bound fails with a typed error, and `compare` exits 1 instead
    /// of panicking.
    #[test]
    fn compare_reports_a_failed_lower_bound() {
        let path = std::env::temp_dir().join(format!("ssp_cli_dense_{}.ssp", std::process::id()));
        std::fs::write(
            &path,
            "machines 2\nalpha 2.0\njob 0 1e300 0 1e-300\njob 1 1 0 2\n",
        )
        .unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = run(&args(&["compare", &p])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("not finite"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_non_migratory_flag() {
        // Deadline-free (clamp only tightens): rebuild with huge windows.
        let base = families::general(6, 2, 2.0).gen(9);
        let jobs: Vec<ssp_model::Job> = base
            .jobs()
            .iter()
            .map(|j| ssp_model::Job::new(j.id.0, j.work, j.release, 1e7))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let path = std::env::temp_dir().join(format!("ssp_cli_nmb_{}.ssp", std::process::id()));
        std::fs::write(&path, io::emit(&inst)).unwrap();
        let p = path.to_string_lossy().into_owned();
        let mig = run(&args(&["budget", &p, "--energy", "50"])).unwrap();
        let non = run(&args(&["budget", &p, "--energy", "50", "--non-migratory"])).unwrap();
        assert!(mig.contains("migratory (optimal)"));
        assert!(non.contains("non-migratory (exact)"));
        // Parse makespans: migration can only help.
        let parse_x = |s: &str| -> f64 {
            s.split("minimal makespan ")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(parse_x(&mig) <= parse_x(&non) * (1.0 + 1e-6));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_command_works_and_rejects_tiny_budget() {
        // Deadline-free instance: rebuild the general family with huge
        // windows (clamp_deadlines only tightens).
        let base = families::general(6, 2, 2.0).gen(9);
        let jobs: Vec<ssp_model::Job> = base
            .jobs()
            .iter()
            .map(|j| ssp_model::Job::new(j.id.0, j.work, j.release, 1e7))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let path = std::env::temp_dir().join(format!("ssp_cli_budget_{}.ssp", std::process::id()));
        std::fs::write(&path, io::emit(&inst)).unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&args(&["budget", &p, "--energy", "50"])).unwrap();
        assert!(out.contains("minimal makespan"));
        // A budget below the deadline-forced floor fails cleanly.
        let tight = families::unit_arbitrary(6, 2, 2.0).gen(1);
        std::fs::write(&path, io::emit(&tight)).unwrap();
        let err = run(&args(&["budget", &p, "--energy", "0.000001"])).unwrap_err();
        assert_eq!(err.code, 1);
        // Zero, NaN and infinite budgets are usage errors on both paths.
        for energy in ["0", "nan", "inf"] {
            for extra in [None, Some("--non-migratory")] {
                let mut argv = vec!["budget", &p, "--energy", energy];
                argv.extend(extra);
                let err = run(&args(&argv)).unwrap_err();
                assert_eq!(err.code, 2, "--energy {energy} {extra:?}: {}", err.message);
                assert!(err.message.contains("--energy"), "{}", err.message);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_and_bad_arguments() {
        assert_eq!(run(&args(&["solve"])).unwrap_err().code, 2);
        assert_eq!(
            run(&args(&["info", "/nonexistent/x.ssp"]))
                .unwrap_err()
                .code,
            1
        );
        assert_eq!(
            run(&args(&["generate", "general", "--n", "banana", "--m", "2"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run(&args(&["generate", "nope", "--n", "4", "--m", "2"]))
                .unwrap_err()
                .code,
            2
        );
        let p = tmp_instance();
        assert_eq!(
            run(&args(&["solve", &p, "--algo", "quantum"]))
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn analyze_reports_metrics() {
        let p = tmp_instance();
        let out = run(&args(&["analyze", &p])).unwrap();
        assert!(out.contains("utilization"));
        assert!(out.contains("peak power"));
        assert!(out.contains("response time"));
        assert!(out.contains("deadline slack"));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn swf_import_roundtrip() {
        let trace = "; sample\n1 0 0 10 2 -1 -1 2 30 -1 1 1 1 1 1 1 -1 -1\n";
        let dir = std::env::temp_dir();
        let src = dir.join(format!("ssp_cli_swf_{}.swf", std::process::id()));
        let dst = dir.join(format!("ssp_cli_swf_{}.ssp", std::process::id()));
        std::fs::write(&src, trace).unwrap();
        let out = run(&args(&[
            "swf",
            &src.to_string_lossy(),
            "--machines",
            "2",
            "-o",
            &dst.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("imported 1 jobs"));
        let info = run(&args(&["info", &dst.to_string_lossy()])).unwrap();
        assert!(info.contains("jobs:      1"));
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn quantize_reports_overhead() {
        let p = tmp_instance();
        let out = run(&args(&["quantize", &p, "--levels", "4"])).unwrap();
        assert!(out.contains("overhead x"), "{out}");
        // Overhead is >= 1 by convexity; parse it back out.
        let x: f64 = out
            .split("overhead x")
            .nth(1)
            .unwrap()
            .trim_end_matches([')', '\n'])
            .parse()
            .unwrap();
        assert!(x >= 1.0 - 1e-9);
        // Guardrails.
        assert_eq!(run(&args(&["quantize", &p])).unwrap_err().code, 2);
        assert_eq!(
            run(&args(&["quantize", &p, "--levels", "1"]))
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_file(&p).ok();
        // An empty instance has no speed range to build a grid over: a
        // typed runtime error, not a panic.
        let empty = Instance::new(vec![], 2, 2.0).unwrap();
        let path = std::env::temp_dir().join(format!("ssp_cli_empty_{}.ssp", std::process::id()));
        std::fs::write(&path, io::emit(&empty)).unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = run(&args(&["quantize", &p, "--levels", "4"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("cannot build level grid"),
            "{}",
            err.message
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn exact_guard_on_large_instances() {
        let inst = families::general(20, 2, 2.0).gen(1);
        let path = std::env::temp_dir().join(format!("ssp_cli_big_{}.ssp", std::process::id()));
        std::fs::write(&path, io::emit(&inst)).unwrap();
        let p = path.to_string_lossy().into_owned();
        // With the harness chain, the precondition failure degrades to a
        // fallback and the output narrates why.
        let out = run(&args(&["solve", &p, "--algo", "exact"])).unwrap();
        assert!(out.contains("fell back to"), "{out}");
        assert!(out.contains("n <= 16"), "{out}");
        // --no-fallback restores the hard failure as a typed runtime error.
        let err = run(&args(&["solve", &p, "--algo", "exact", "--no-fallback"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("precondition"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }

    /// Probe sessions are process-global: every test that drives a traced
    /// solve serializes on this lock so sessions never contend.
    fn session_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The observability acceptance path: `solve --telemetry --timings` on a
    /// local-search solve must produce a parseable, well-formed trace whose
    /// span tree covers the assignment, BAL lower-bound and validation
    /// phases, with max-flow / BAL / local-search counters all non-zero.
    /// One test drives both flags: probe sessions are process-global, so
    /// concurrent traced solves would contend for the session.
    #[test]
    fn solve_telemetry_trace_covers_the_pipeline() {
        use ssp_probe::Trace;
        let _session = session_lock();
        let inst = families::general(12, 3, 2.0).gen(17);
        let dir = std::env::temp_dir();
        let p_inst = dir.join(format!("ssp_cli_tel_{}.ssp", std::process::id()));
        let p_trace = dir.join(format!("ssp_cli_tel_{}.jsonl", std::process::id()));
        std::fs::write(&p_inst, io::emit(&inst)).unwrap();
        let out = run(&args(&[
            "solve",
            &p_inst.to_string_lossy(),
            "--algo",
            "local",
            "--telemetry",
            &p_trace.to_string_lossy(),
            "--timings",
        ]))
        .unwrap();
        assert!(out.contains("telemetry written to"), "{out}");
        // --timings prints the phase table inline.
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("counters:"), "{out}");

        let text = std::fs::read_to_string(&p_trace).unwrap();
        let trace = Trace::parse(&text).expect("trace must parse back");
        trace.validate().expect("trace must be well-formed");

        // Span tree: solve at the root, with the lower bound (BAL), the
        // attempt (named after the algorithm), assignment materialization
        // and validation all present and correctly nested.
        let roots = trace.roots();
        assert_eq!(roots.len(), 1, "one root span");
        assert_eq!(roots[0].name, "solve");
        let solve_id = roots[0].id;
        let top: Vec<&str> = trace
            .children(solve_id)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(top.contains(&"lower_bound"), "top-level: {top:?}");
        assert!(top.contains(&"local"), "top-level: {top:?}");
        for phase in ["bal", "bal.round", "wap.solve", "kkt.certify"] {
            assert!(trace.span_count(phase) > 0, "missing phase '{phase}'");
        }
        for phase in ["local_search", "assign.schedule", "validate"] {
            assert!(trace.span_count(phase) > 0, "missing phase '{phase}'");
        }

        // Counters: max-flow, BAL and local-search work all recorded.
        for counter in [
            "maxflow.dinic.runs",
            "maxflow.dinic.phases",
            "bal.flow_calls",
            "bal.bisect_steps",
            "bal.rounds",
            "local_search.evaluations",
            "validate.calls",
        ] {
            assert!(trace.counter(counter) > 0, "counter '{counter}' is zero");
        }
        std::fs::remove_file(&p_inst).ok();
        std::fs::remove_file(&p_trace).ok();
    }

    #[test]
    fn solve_reports_certified_bound() {
        let p = tmp_instance();
        let out = run(&args(&["solve", &p, "--algo", "bal"])).unwrap();
        assert!(out.contains("certified lower bound"), "{out}");
        assert!(out.contains("ratio 1.0000"), "{out}");
        std::fs::remove_file(&p).ok();
    }

    /// Satellite fix: a failed solve chain with `--telemetry` must still
    /// write the partial trace, and the trace must carry the error.
    #[test]
    fn failed_solve_still_writes_partial_telemetry() {
        use ssp_probe::Trace;
        let _session = session_lock();
        let inst = families::general(20, 2, 2.0).gen(1);
        let dir = std::env::temp_dir();
        let p_inst = dir.join(format!("ssp_cli_ftel_{}.ssp", std::process::id()));
        let p_trace = dir.join(format!("ssp_cli_ftel_{}.jsonl", std::process::id()));
        std::fs::write(&p_inst, io::emit(&inst)).unwrap();
        // `exact` is precondition-limited to n <= 16; --no-fallback makes the
        // whole chain fail.
        let err = run(&args(&[
            "solve",
            &p_inst.to_string_lossy(),
            "--algo",
            "exact",
            "--no-fallback",
            "--telemetry",
            &p_trace.to_string_lossy(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("partial telemetry written to"),
            "{}",
            err.message
        );
        let text = std::fs::read_to_string(&p_trace).expect("trace file must exist");
        let trace = Trace::parse(&text).expect("partial trace must parse");
        trace.validate().expect("partial trace must be well-formed");
        let error = trace.error.as_deref().expect("trace carries the error");
        assert!(error.contains("precondition"), "{error}");
        // The attempt was still traced: the solve root span exists.
        assert!(trace.span_count("solve") > 0);
        std::fs::remove_file(&p_inst).ok();
        std::fs::remove_file(&p_trace).ok();
    }

    /// End-to-end trace analysis: a real traced solve rendered through
    /// `trace report`, `trace fold` and `trace diff` (against itself).
    #[test]
    fn trace_report_fold_and_diff_render_a_real_trace() {
        let _session = session_lock();
        let inst = families::general(12, 3, 2.0).gen(23);
        let dir = std::env::temp_dir();
        let p_inst = dir.join(format!("ssp_cli_trpt_{}.ssp", std::process::id()));
        let p_trace = dir.join(format!("ssp_cli_trpt_{}.jsonl", std::process::id()));
        std::fs::write(&p_inst, io::emit(&inst)).unwrap();
        run(&args(&[
            "solve",
            &p_inst.to_string_lossy(),
            "--algo",
            "local",
            "--telemetry",
            &p_trace.to_string_lossy(),
        ]))
        .unwrap();
        let p = p_trace.to_string_lossy().into_owned();

        let report = run(&args(&["trace", "report", &p])).unwrap();
        assert!(report.contains("solve"), "{report}");
        assert!(report.contains("lower_bound"), "{report}");
        // The histogram table with derived quantiles is present.
        assert!(report.contains("p50"), "{report}");
        assert!(report.contains("bal.bisect.probes"), "{report}");

        let folded = run(&args(&["trace", "fold", &p])).unwrap();
        let first = folded.lines().next().unwrap();
        assert!(first.starts_with("solve"), "{first}");
        // Folded format: 'stack;path self_ns' with a numeric sample count.
        assert!(
            folded.lines().all(|l| l
                .rsplit_once(' ')
                .is_some_and(|(_, n)| n.parse::<u64>().is_ok())),
            "{folded}"
        );
        assert!(folded.lines().any(|l| l.contains(';')), "{folded}");

        // A trace diffed against itself has no regressions to flag.
        let diff = run(&args(&["trace", "diff", &p, &p])).unwrap();
        assert!(!diff.contains(" !"), "{diff}");

        // Usage guardrails.
        assert_eq!(run(&args(&["trace"])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["trace", "report"])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["trace", "nope", &p])).unwrap_err().code, 2);
        std::fs::remove_file(&p_inst).ok();
        std::fs::remove_file(&p_trace).ok();
    }

    /// The regression gate: identical artifacts pass; an injected 10%
    /// regression on a real cell makes `bench-diff` exit nonzero.
    #[test]
    fn bench_diff_gates_on_injected_regression() {
        let dir = std::env::temp_dir();
        let p_old = dir.join(format!("ssp_cli_bd_old_{}.json", std::process::id()));
        let p_new = dir.join(format!("ssp_cli_bd_new_{}.json", std::process::id()));
        let snapshot = |fast: f64| {
            format!(
                concat!(
                    "{{\"bench\":\"yds_kernel\",\"alpha\":2.0,\"unit\":\"ms_median\",\"cells\":[\n",
                    "  {{\"family\":\"agreeable\",\"n\":50,\"fast_ms\":0.007,\"ref_ms\":0.006}},\n",
                    "  {{\"family\":\"agreeable\",\"n\":200,\"fast_ms\":{},\"ref_ms\":0.35}}\n",
                    "]}}"
                ),
                fast
            )
        };
        std::fs::write(&p_old, snapshot(0.113)).unwrap();
        std::fs::write(&p_new, snapshot(0.113)).unwrap();
        let old = p_old.to_string_lossy().into_owned();
        let new = p_new.to_string_lossy().into_owned();

        // Unchanged artifact passes.
        let out = run(&args(&["bench-diff", &old, &new])).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");

        // Injected 10%+ regression on the n=200 cell: exit nonzero.
        std::fs::write(&p_new, snapshot(0.113 * 1.11)).unwrap();
        let err = run(&args(&["bench-diff", &old, &new])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("1 regression(s)"), "{}", err.message);
        assert!(err.message.contains('!'), "{}", err.message);

        // A looser threshold lets the same pair pass.
        let out = run(&args(&["bench-diff", &old, &new, "--threshold", "25"])).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");

        // Different benches compare no metric: a runtime error, not a
        // clean pass — snapshot against snapshot, and snapshot against a
        // history whose last run is another bench.
        std::fs::write(&p_new, snapshot(0.113).replace("yds_kernel", "bal_kernel")).unwrap();
        let err = run(&args(&["bench-diff", &old, &new])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("different benches"), "{}", err.message);
        std::fs::write(
            &p_new,
            concat!(
                "{\"type\":\"bench_run\",\"bench\":\"yds_kernel\",\"rev\":\"a\",\"cells\":[{\"family\":\"agreeable\",\"n\":200,\"fast_ms\":0.113}]}\n",
                "{\"type\":\"bench_run\",\"bench\":\"bal_kernel\",\"rev\":\"b\",\"cells\":[{\"family\":\"crossing\",\"n\":50,\"ladder_ms\":0.3}]}\n"
            ),
        )
        .unwrap();
        let err = run(&args(&["bench-diff", &old, &new])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("different benches"), "{}", err.message);

        // Usage guardrails.
        assert_eq!(run(&args(&["bench-diff", &old])).unwrap_err().code, 2);
        std::fs::remove_file(&p_old).ok();
        std::fs::remove_file(&p_new).ok();
    }

    /// The trajectory service: sparklines and history-calibrated
    /// annotations render from a committed-style history, and `--gate`
    /// exits nonzero on an injected regression.
    #[test]
    fn bench_report_renders_trajectory_and_gates() {
        let dir = std::env::temp_dir();
        let p_hist = dir.join(format!("ssp_cli_report_{}.jsonl", std::process::id()));
        let history = |tail_ms: f64| {
            [0.100, 0.102, 0.098, 0.101, 0.099, tail_ms]
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    format!(
                        "{{\"type\":\"bench_run\",\"bench\":\"yds_kernel\",\"rev\":\"r{i}\",\"threads\":4,\"host\":\"ab12cd34\",\"cells\":[{{\"family\":\"agreeable\",\"n\":200,\"fast_ms\":{v}}}]}}\n"
                    )
                })
                .collect::<String>()
        };
        std::fs::write(&p_hist, history(0.101)).unwrap();
        let p = p_hist.to_string_lossy().into_owned();

        // In-noise trajectory: a sparkline per metric, nothing flagged.
        let out = run(&args(&["bench", "report", &p])).unwrap();
        assert!(out.contains("bench yds_kernel"), "{out}");
        assert!(out.contains("family=agreeable,n=200"), "{out}");
        assert!(out.contains("fast_ms"), "{out}");
        assert!(
            out.chars().any(|c| ('▁'..='█').contains(&c)),
            "sparkline present: {out}"
        );
        assert!(out.contains("0 regression(s)"), "{out}");
        run(&args(&["bench", "report", &p, "--gate"])).unwrap();

        // Injected 20% step: annotated, markdown renders, --gate exits 1.
        std::fs::write(&p_hist, history(0.120)).unwrap();
        let out = run(&args(&["bench", "report", &p])).unwrap();
        assert!(out.contains("1 regression(s)"), "{out}");
        assert!(out.contains(" !"), "{out}");
        let md = run(&args(&["bench", "report", &p, "--markdown"])).unwrap();
        assert!(md.contains("### yds_kernel"), "{md}");
        assert!(md.contains("**regressed**"), "{md}");
        let err = run(&args(&["bench", "report", &p, "--gate"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("1 regression(s)"), "{}", err.message);

        // A malformed trailing line degrades to a warning, not an error.
        let mut truncated = history(0.101);
        truncated.push_str("{\"type\":\"bench_run\",\"bench\":\"yds_k");
        std::fs::write(&p_hist, truncated).unwrap();
        let out = run(&args(&["bench", "report", &p])).unwrap();
        assert!(out.contains("warning:"), "{out}");
        assert!(out.contains("0 regression(s)"), "{out}");

        // Usage guardrails.
        assert_eq!(run(&args(&["bench"])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["bench", "nope", &p])).unwrap_err().code, 2);
        assert_eq!(run(&args(&["bench", "report"])).unwrap_err().code, 2);
        assert_eq!(
            run(&args(&["bench", "report", &p, "--window", "0"]))
                .unwrap_err()
                .code,
            2
        );
        std::fs::remove_file(&p_hist).ok();
    }

    #[test]
    fn corrupted_file_is_a_typed_runtime_error() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ssp_cli_corrupt_{}.ssp", std::process::id()));
        let p = path.to_string_lossy().into_owned();
        for (text, want) in [
            ("machines 2\njob 0 1.0 0.0", "job needs 4 fields"),
            ("machines", "machines needs a value"),
            ("job 0 nan 0.0 2.0", "must be finite"),
            ("frobnicate 3", "unknown directive"),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = run(&args(&["solve", &p])).unwrap_err();
            assert_eq!(err.code, 1, "{text}");
            assert!(err.message.contains("cannot parse"), "{}", err.message);
            assert!(
                err.message.contains(want),
                "expected '{want}' in: {}",
                err.message
            );
        }
        std::fs::remove_file(&path).ok();
    }

    // -- solve deadlines (serve's deadline threading on the one-shot path) --

    /// `--timeout-ms 0` must thread an already-expired deadline into the
    /// solver budget: either a best-so-far salvage annotated as exhausted,
    /// or a typed deadline failure — never an unannotated success.
    #[test]
    fn solve_timeout_flag_threads_a_deadline_into_the_budget() {
        let p = tmp_instance();
        match run(&args(&[
            "solve",
            &p,
            "--algo",
            "bal",
            "--no-fallback",
            "--timeout-ms",
            "0",
        ])) {
            Ok(out) => assert!(out.contains("deadline budget exhausted"), "{out}"),
            Err(e) => {
                assert_eq!(e.code, 1);
                assert!(e.message.contains("deadline"), "{}", e.message);
            }
        }
        // A generous timeout changes nothing about a healthy solve.
        let out = run(&args(&[
            "solve",
            &p,
            "--algo",
            "rr",
            "--timeout-ms",
            "60000",
        ]))
        .unwrap();
        assert!(out.contains("energy"), "{out}");
        assert!(!out.contains("budget exhausted"), "{out}");
        std::fs::remove_file(&p).ok();
    }

    /// Every algorithm fails on this instance. A solve is deterministic,
    /// so it makes one attempt and the chain's failure is final: exit 1
    /// with the chain summary.
    #[test]
    fn solve_does_not_retry_a_deterministic_failure() {
        let path = std::env::temp_dir().join(format!("ssp_cli_chain_{}.ssp", std::process::id()));
        std::fs::write(
            &path,
            "machines 2\nalpha 2.0\njob 0 1e300 0 1e-300\njob 1 1 0 2\n",
        )
        .unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = run(&args(&["solve", &p])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message
                .contains("no algorithm produced a valid schedule"),
            "{}",
            err.message
        );
        // The chain ran once: one narrated failure per algorithm.
        for algo in ["rr", "local", "greedy", "least-loaded"] {
            let line = format!("\n{algo}: failed");
            assert_eq!(err.message.matches(&line).count(), 1, "{}", err.message);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_bad_retry_flag_values_are_usage_errors() {
        let p = tmp_instance();
        for value in ["soon", "-5"] {
            let err = run(&args(&["solve", &p, "--timeout-ms", value])).unwrap_err();
            assert_eq!(err.code, 2, "--timeout-ms {value}");
            assert!(err.message.contains("--timeout-ms"), "{}", err.message);
        }
        std::fs::remove_file(&p).ok();
    }

    // -- flag parsing: each command accepts only the flags it reads --

    /// An ignored misspelled flag would let the command run on its defaults
    /// and exit 0. `--retries` is no flag of `solve` or `serve`; `serve`
    /// rejects it before it starts a daemon.
    #[test]
    fn unknown_flags_are_usage_errors() {
        let p = tmp_instance();
        assert_eq!(code_of(&format!("solve {p} --algo-typo bal")), 2);
        assert_eq!(code_of(&format!("solve {p} --retries 2")), 2);
        assert_eq!(code_of("serve --retries 2"), 2);
        std::fs::remove_file(&p).ok();
    }

    /// A switch takes no value, so the file after it stays positional.
    #[test]
    fn switches_never_take_the_next_token() {
        let p = tmp_instance();
        assert_eq!(code_of(&format!("solve --gantt {p}")), 0);
        std::fs::remove_file(&p).ok();
    }

    /// A valued flag takes the next token even when it starts with `-`, so
    /// `--alpha -1` reaches the validator instead of leaving the default in
    /// place; a valued flag with nothing after it is a usage error.
    #[test]
    fn valued_flags_take_dash_values_and_require_one() {
        assert_eq!(code_of("generate general --n 3 --m 2 --alpha -1"), 2);
        assert_eq!(code_of("generate general --n 3 --m 2 --alpha"), 2);
    }

    /// Satellite fix: the telemetry guard flushes the trace even when the
    /// path between solve and the explicit write unwinds (a rendering
    /// panic), not just on typed-error failures.
    #[test]
    fn telemetry_guard_flushes_on_unwind() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ssp_cli_guard_{}.jsonl", std::process::id()));
        let p = path.to_string_lossy().into_owned();
        let trace = ssp_probe::Trace {
            error: Some("rendering exploded".into()),
            ..Default::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = TelemetryFlushGuard::arm(Some(&p), Some(&trace));
            panic!("boom in gantt rendering");
        }));
        assert!(result.is_err());
        let text = std::fs::read_to_string(&path).expect("guard must have flushed");
        let parsed = ssp_probe::Trace::parse(&text).expect("flushed trace parses");
        assert_eq!(parsed.error.as_deref(), Some("rendering exploded"));
        // An explicit flush defuses the drop-path write.
        std::fs::remove_file(&path).ok();
        let mut guard = TelemetryFlushGuard::arm(Some(&p), Some(&trace));
        assert!(matches!(guard.flush(), Some(Ok(_))));
        std::fs::remove_file(&path).unwrap();
        drop(guard);
        assert!(!path.exists(), "defused guard must not rewrite the trace");
    }

    // -- serve daemon + drive client over a Unix socket --

    /// End-to-end transport test: a daemon on a Unix socket, driven by the
    /// `serve-drive` client, then shut down via the TERM flag (the signal
    /// handler's one store, exercised directly). Every request must be
    /// answered before the daemon reports its summary.
    #[test]
    #[cfg(unix)]
    fn serve_socket_answers_every_request_and_drains_on_term() {
        let _session = session_lock(); // the daemon owns a probe session
        let dir = std::env::temp_dir();
        let sock = dir.join(format!("ssp_serve_test_{}.sock", std::process::id()));
        let sock_s = sock.to_string_lossy().into_owned();
        let p_trace = dir.join(format!("ssp_serve_test_{}.jsonl", std::process::id()));
        let trace_s = p_trace.to_string_lossy().into_owned();

        let daemon = std::thread::spawn({
            let sock_s = sock_s.clone();
            let trace_s = trace_s.clone();
            move || {
                run(&args(&[
                    "serve",
                    "--socket",
                    &sock_s,
                    "--workers",
                    "2",
                    "--telemetry",
                    &trace_s,
                ]))
            }
        });

        // serve-drive connects (with retry while the daemon binds), sends
        // 9 mixed requests incl. repeats, half-closes, and requires 9
        // well-formed responses.
        let drive = run(&args(&[
            "serve-drive",
            "--socket",
            &sock_s,
            "--count",
            "9",
            "--seed",
            "4",
        ]))
        .unwrap();
        assert!(drive.contains("9/9 answered"), "{drive}");
        assert!(drive.contains("cache hits"), "{drive}");

        // SIGTERM delivery is one atomic store; perform it directly.
        serve_on_signal(15);
        let summary = daemon.join().unwrap().unwrap();
        assert!(summary.contains("9 submitted"), "{summary}");
        assert!(summary.contains("0 panic-isolated"), "{summary}");
        assert!(summary.contains("latency: p50"), "{summary}");
        assert!(summary.contains("telemetry written to"), "{summary}");
        let text = std::fs::read_to_string(&p_trace).unwrap();
        let trace = ssp_probe::Trace::parse(&text).unwrap();
        trace.validate().unwrap();
        assert!(trace.counter("serve.ok") > 0, "serve counters in the trace");
        assert!(trace.hist("serve.request_us").is_some());
        assert!(!sock.exists(), "socket file removed on shutdown");
        std::fs::remove_file(&p_trace).ok();
    }

    #[test]
    fn serve_rejects_zero_workers() {
        assert_eq!(
            run(&args(&["serve", "--workers", "0"])).unwrap_err().code,
            2
        );
    }

    #[test]
    #[cfg(unix)]
    fn serve_drive_needs_a_socket_and_a_listening_daemon() {
        assert_eq!(run(&args(&["serve-drive"])).unwrap_err().code, 2);
        // Nobody listening: runtime error after the connect retries.
        let err = run(&args(&[
            "serve-drive",
            "--socket",
            "/nonexistent-dir/nope.sock",
            "--count",
            "1",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot connect"), "{}", err.message);
    }

    // -- stream: the online arrival engine --

    #[test]
    fn stream_generated_family_reports_and_checks() {
        for policy in ["rr", "load", "density"] {
            let out = run(&args(&[
                "stream", "--family", "bursty", "--n", "300", "--m", "3", "--seed", "2",
                "--policy", policy, "--report", "--check",
            ]))
            .unwrap();
            assert!(out.contains("certified LB"), "{policy}: {out}");
            assert!(out.contains("ratio"), "{policy}: {out}");
            assert!(out.contains("compactions"), "{policy}: {out}");
            assert!(out.contains("machine 2: energy"), "{policy}: {out}");
        }
    }

    #[test]
    fn stream_emit_then_replay_gives_identical_energy() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("ssp_cli_stream_{}.sst", std::process::id()));
        let t = trace.to_string_lossy().into_owned();
        let gen_out = run(&args(&[
            "stream", "--family", "poisson", "--n", "200", "--m", "2", "--seed", "11", "--emit", &t,
        ]))
        .unwrap();
        // Replay the emitted trace: header carries m/alpha, energy matches.
        let replay_out = run(&args(&["stream", &t])).unwrap();
        let energy_of = |s: &str| {
            s.split("energy ")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(energy_of(&gen_out), energy_of(&replay_out));
        assert!(replay_out.contains("| m 2 |"), "{replay_out}");
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn stream_avr_and_no_lb_modes() {
        let out = run(&args(&[
            "stream", "--family", "tight", "--n", "150", "--m", "2", "--sched", "avr", "--no-lb",
        ]))
        .unwrap();
        assert!(out.contains("sched avr"), "{out}");
        assert!(out.contains("lower bound off"), "{out}");
        // --check without a bound is a runtime error, not a silent pass.
        let err = run(&args(&[
            "stream", "--family", "tight", "--n", "50", "--m", "2", "--no-lb", "--check",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn stream_telemetry_carries_online_counters_and_spans() {
        let _session = session_lock(); // stream owns a probe session here
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ssp_cli_stream_tel_{}.jsonl", std::process::id()));
        let t = path.to_string_lossy().into_owned();
        let out = run(&args(&[
            "stream",
            "--family",
            "bursty",
            "--n",
            "250",
            "--m",
            "2",
            "--telemetry",
            &t,
        ]))
        .unwrap();
        assert!(out.contains("telemetry written to"), "{out}");
        let trace = ssp_probe::Trace::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        trace.validate().unwrap();
        assert_eq!(trace.counter("online.arrivals"), 250);
        assert!(trace.counter("online.compactions") > 0);
        assert!(trace.hist("online.window_jobs").is_some());
        assert!(
            trace.spans.iter().any(|s| s.name == "online.compact"),
            "chunk flushes must appear as online.compact spans"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_reports_a_chunk_bal_cannot_bound_as_a_runtime_error() {
        // The first job's window is so narrow that its chunk's BAL speed
        // bound overflows: a typed numeric failure, exit 1, not a panic.
        let path = std::env::temp_dir().join(format!("ssp_cli_hostile_{}.sst", std::process::id()));
        std::fs::write(
            &path,
            "machines 2\nalpha 2.0\njob 0 1e300 0 1e-300\njob 1 1 0 2\n",
        )
        .unwrap();
        let t = path.to_string_lossy().into_owned();
        let err = run(&args(&["stream", &t, "--check"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("numeric"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_usage_errors() {
        assert_eq!(run(&args(&["stream"])).unwrap_err().code, 2);
        assert_eq!(
            run(&args(&[
                "stream", "--family", "nope", "--n", "10", "--m", "2"
            ]))
            .unwrap_err()
            .code,
            2
        );
        assert_eq!(
            run(&args(&["stream", "--family", "bursty", "--n", "10"]))
                .unwrap_err()
                .code,
            2
        );
        assert_eq!(
            run(&args(&[
                "stream", "--family", "bursty", "--n", "10", "--m", "2", "--policy", "psychic",
            ]))
            .unwrap_err()
            .code,
            2
        );
        assert_eq!(
            run(&args(&["stream", "/nonexistent/trace.sst"]))
                .unwrap_err()
                .code,
            1
        );
    }

    /// Exit code of a command line given as one space-separated string.
    fn code_of(line: &str) -> i32 {
        match run(&args(&line.split(' ').collect::<Vec<_>>())) {
            Ok(_) => 0,
            Err(e) => e.code,
        }
    }

    #[test]
    fn generate_rejects_zero_machines_as_usage() {
        assert_eq!(code_of("generate general --n 5 --m 0"), 2);
    }

    #[test]
    fn generate_rejects_bad_alpha_as_usage() {
        for alpha in ["1", "0.5", "nan", "inf"] {
            let line = format!("generate general --n 5 --m 2 --alpha {alpha}");
            assert_eq!(code_of(&line), 2, "--alpha {alpha}");
        }
    }

    #[test]
    fn stream_rejects_zero_window_cap_as_usage() {
        let line = "stream --family bursty --n 10 --m 2 --window-cap 0";
        assert_eq!(code_of(line), 2);
    }

    #[test]
    fn budget_reports_an_instance_bal_cannot_bound_as_a_runtime_error() {
        let path = std::env::temp_dir().join(format!("ssp_cli_budget_{}.ssp", std::process::id()));
        std::fs::write(
            &path,
            "machines 2\nalpha 2.0\njob 0 1e300 0 1e-300\njob 1 1 0 2\n",
        )
        .unwrap();
        let p = path.to_string_lossy().into_owned();
        let err = run(&args(&["budget", &p, "--energy", "10"])).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("numeric failure"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_prints_positive_zero_energy_for_an_empty_instance() {
        let path = std::env::temp_dir().join(format!("ssp_cli_empty_{}.ssp", std::process::id()));
        std::fs::write(&path, "machines 2\nalpha 2.0\n").unwrap();
        let p = path.to_string_lossy().into_owned();
        let out = run(&args(&["solve", &p])).unwrap();
        assert!(out.contains("energy 0.000000"), "{out}");
        assert!(!out.contains("-0"), "{out}");
        std::fs::remove_file(&path).ok();
    }
}
