//! `stream-density`: one caller pushing a bursty job stream through
//! `ssp_online::StreamEngine`, the engine behind `speedscale stream`, with
//! the density-aware dispatch policy and the default chunked certified lower
//! bound.
//!
//! The same BAL layer as the solve workloads, used differently: thousands
//! of compactions, each a tiny BAL solve, so solver set-up rather than
//! augmentation dominates. It also carries online dispatch, the per-machine
//! OA simulators and the `LiveEval` YDS pricing, the one place the
//! per-machine YDS kernel does real work.

use crate::ledger::{Ledger, TraceFiles};
use crate::report::RunResult;
use crate::solve::trace_unit;
use crate::stats::{self, Digest, Latency};
use crate::yardstick::Normalizer;
use crate::Config;
use ssp_model::Job;
use ssp_online::{EngineOptions, Policy, StreamEngine, StreamReport};
use ssp_probe::span;
use ssp_workloads::{stream_family, subseed};
use std::time::{Duration, Instant};

const MACHINES: usize = 4;
const ALPHA: f64 = 2.0;
const FAMILY: &str = "bursty";
/// Jobs a run pushes per second of `--seconds`: about what the machine the
/// bounds were set on pushed in a second of wall time, so the pass fills
/// the run; a 20 s run pushes 800 000.
const JOBS_PER_SECOND: usize = 40_000;
const SMOKE_JOBS: usize = 2_000;
const WARM_UP_JOBS: usize = 2_000;
/// Pushes between two looks at the clock.
const CLOCK_EVERY: usize = 1024;
/// Dispatch decisions digested: a prefix every run reaches.
const DIGESTED: usize = 50_000;
/// Jobs per probe session in a traced run.
const SEGMENT: usize = 10_000;
/// The stream check of `speedscale stream --check`: energy over the
/// certified bound may undercut 1 by this much (quadrature and summation
/// order).
const RATIO_TOLERANCE: f64 = 1e-6;

fn options() -> EngineOptions {
    EngineOptions::new(MACHINES, ALPHA).policy(Policy::DensityAware)
}

fn engine() -> StreamEngine {
    StreamEngine::new(options()).expect("4 machines and alpha 2 are valid options")
}

/// Generate the stream, then run a short warm-up stream, the same in every
/// run so set-up time does not move with the seed.
fn setup(cfg: &Config) -> Vec<Job> {
    let spec = stream_family(FAMILY, MACHINES, ALPHA).expect("bursty is a stream family");
    let count = if cfg.smoke {
        SMOKE_JOBS
    } else {
        JOBS_PER_SECOND * cfg.seconds.as_secs() as usize
    };
    let jobs = spec.jobs(subseed(cfg.seed, 0)).take(count).collect();
    let mut warm = engine();
    for job in spec.jobs(subseed(0, u64::MAX)).take(WARM_UP_JOBS) {
        let _ = warm.push(job);
    }
    let _ = warm.finish();
    jobs
}

/// One untraced pass: every push timed, as measured and normalized by the
/// yardstick.
struct Pass {
    pushed: usize,
    raw_ms: Vec<f64>,
    normalized_ms: Vec<f64>,
    dispatch: Digest,
    report: Result<StreamReport, String>,
    wall: Duration,
}

/// Push jobs until the stream ends or `guard` passes (checked every
/// [`CLOCK_EVERY`] pushes), then finish.
fn push_all(jobs: &[Job], guard: Duration, out: &mut RunResult) -> Pass {
    let mut engine = engine();
    let mut raw_ms = Vec::with_capacity(jobs.len());
    let mut norm = Normalizer::start();
    let mut dispatch = Digest::default();
    let start = Instant::now();
    for (k, job) in jobs.iter().enumerate() {
        if k % CLOCK_EVERY == 0 && start.elapsed() >= guard {
            out.note(format!("stopped after {k} jobs, past the time guard"));
            break;
        }
        let t = Instant::now();
        let result = engine.push(*job);
        let end = Instant::now();
        let ms = match result {
            Ok(p) => {
                if k < DIGESTED {
                    dispatch.eat(p as f64);
                }
                stats::ms(end - t)
            }
            Err(e) => {
                out.fail(format!("push {k}: {e}"));
                f64::INFINITY
            }
        };
        raw_ms.push(ms);
        norm.push(ms, end);
    }
    let report = engine.finish().map_err(|e| format!("finish: {e}"));
    Pass {
        pushed: raw_ms.len(),
        raw_ms,
        normalized_ms: norm.finish(),
        dispatch,
        report,
        wall: start.elapsed(),
    }
}

/// The check of `speedscale stream --check`: every job arrived, and the
/// energy is at least the chunked certified lower bound.
fn check(report: &Result<StreamReport, String>, pushed: usize, out: &mut RunResult) {
    let r = match report {
        Ok(r) => r,
        Err(e) => return out.wrong(e.clone()),
    };
    if r.arrivals != pushed as u64 {
        out.wrong(format!("{} arrivals reported, {pushed} pushed", r.arrivals));
    }
    match r.ratio() {
        Some(ratio) if r.energy.is_finite() && ratio >= 1.0 - RATIO_TOLERANCE => {
            out.note(format!(
                "{} jobs, energy {:.6}, certified bound {:.6}, ratio {ratio:.4}, {} compactions",
                r.arrivals,
                r.energy,
                r.lower_bound.unwrap_or(0.0),
                r.compactions
            ));
        }
        Some(ratio) => out.wrong(format!(
            "ratio {ratio} below 1: the certified bound is violated"
        )),
        None => out.fail("no certified lower bound".into()),
    }
}

/// Run `stream-density`: one pass pushing the stream, every push timed.
pub fn run(cfg: &Config) -> RunResult {
    let (jobs, setup_s) = stats::timed_setup(stats::SETUPS, || setup(cfg));
    let mut out = RunResult::default();
    if cfg.trace {
        traced(&jobs, cfg, &mut out);
        return out;
    }
    let pass = push_all(&jobs, cfg.guard(), &mut out);
    check(&pass.report, pass.pushed, &mut out);
    out.attempted = pass.pushed as u64;
    out.digest = Some(pass.dispatch);
    let raw_rate = stats::rate(&pass.raw_ms);
    out.as_measured(&Latency::of(pass.raw_ms), raw_rate);
    let throughput = stats::rate(&pass.normalized_ms);
    out.e2e(setup_s, &Latency::of(pass.normalized_ms), throughput);
    out
}

/// Whether another run over the same jobs ended bit-identical to `pass`.
fn same_run(pass: &Pass, report: &Result<StreamReport, String>, dispatch: &Digest) -> bool {
    match (&pass.report, report) {
        (Ok(a), Ok(b)) => {
            a.energy.to_bits() == b.energy.to_bits()
                && a.lower_bound.map(f64::to_bits) == b.lower_bound.map(f64::to_bits)
                && pass.dispatch.hex() == dispatch.hex()
        }
        _ => false,
    }
}

/// `--trace`: an untraced pass over the first half of the stream, under
/// half the time guard, so the run takes as long as an untraced one; then
/// the jobs it pushed again, in segments of [`SEGMENT`] pushes, each under
/// a probe session with a span around every `push` and around `finish`.
/// Both passes must end in bit-identical reports.
fn traced(jobs: &[Job], cfg: &Config, out: &mut RunResult) {
    let plain = push_all(&jobs[..jobs.len() / 2], cfg.guard() / 2, out);
    check(&plain.report, plain.pushed, out);
    out.attempted = plain.pushed as u64;
    out.digest = Some(plain.dispatch);

    let mut ledger = Ledger::default();
    let mut files = TraceFiles::new(&cfg.run_name(), 2);
    let mut engine = Some(engine());
    let mut dispatch = Digest::default();
    let mut report = None;
    let segments = jobs[..plain.pushed].chunks(SEGMENT);
    let last = segments.len().saturating_sub(1);
    for (s, segment) in segments.enumerate() {
        let (result, trace, wall) = trace_unit(|| {
            let e = engine
                .as_mut()
                .expect("finished only after the last segment");
            for (j, job) in segment.iter().enumerate() {
                let p = {
                    let _s = span("online.push");
                    e.push(*job)
                };
                let k = s * SEGMENT + j;
                match p {
                    Ok(p) if k < DIGESTED => dispatch.eat(p as f64),
                    Ok(_) => {}
                    Err(e) => return Err(format!("traced push {k}: {e}")),
                }
            }
            if s == last {
                let _s = span("online.finish");
                let e = engine.take().expect("finished once");
                report = Some(e.finish().map_err(|e| format!("traced finish: {e}")));
            }
            Ok(())
        });
        if let Err(e) = result {
            out.wrong(e);
            return;
        }
        ledger.absorb(&trace, segment.len() as u64);
        ledger.traced_ns += wall.as_nanos() as u64;
        if let Err(e) = files.keep(s, &trace) {
            out.wrong(e);
        }
    }
    ledger.untraced_ns = plain.wall.as_nanos() as u64;
    let traced_report = report.unwrap_or_else(|| Err("the traced pass never finished".into()));
    if !same_run(&plain, &traced_report, &dispatch) {
        out.wrong("the traced pass differs from the untraced one".into());
    }
    out.layers(&ledger);
}
