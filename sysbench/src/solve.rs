//! `solve-general` and `solve-laminar`: one closed-loop client calling
//! `ssp_harness::solve`, the entry point behind `speedscale solve`.
//!
//! Requests cycle the algorithm over the paper's three non-migratory
//! algorithms (rr / classified / relax, results R1–R3), a fresh n = 100
//! instance per request. Every request pays the certified BAL/KKT lower
//! bound, which dominates: the two families differ in how the WAP flow
//! network under BAL behaves — on general instances the interval sweep
//! declines a quarter of its probes, which fall back to Dinic, while it
//! certifies nearly every probe of a laminar nest.

use crate::ledger::{self, Ledger, TraceFiles, MIN_COVERAGE};
use crate::report::RunResult;
use crate::stats::{self, Digest, Latency};
use crate::yardstick::Normalizer;
use crate::Config;
use ssp_core::assignment::assignment_schedule;
use ssp_core::classified::classified_assignment;
use ssp_core::relax::relax_round;
use ssp_core::rr::rr_assignment;
use ssp_harness::{Algo, SolveOptions, SolveReport};
use ssp_migratory::bal::try_bal;
use ssp_migratory::kkt::certify;
use ssp_model::numeric::Tol;
use ssp_model::resource::Budget;
use ssp_model::schedule::ValidationOptions;
use ssp_model::Instance;
use ssp_probe::span;
use ssp_workloads::{families, subseed};
use std::time::{Duration, Instant};

const MACHINES: usize = 4;
const ALPHA: f64 = 2.0;
/// Instance size. Solve time varies by ±35% between instances of one size,
/// so a run's median moves with the seed unless the run makes thousands of
/// requests; and sizes mixed in one run put the median in a gap between
/// their clusters, where it moved 11% from seed to seed.
const N: usize = 100;
const SMOKE_N: usize = 50;
const ALGOS: [Algo; 3] = [Algo::Rr, Algo::Classified, Algo::Relax];
const SMOKE_REQUESTS: usize = 6;

/// Which instance family the requests come from.
#[derive(Debug, Clone, Copy)]
pub enum Family {
    /// `families::general`: the sweep declines a quarter of its probes.
    General,
    /// `families::laminar_nested`: the sweep certifies nearly every probe.
    Laminar,
}

impl Family {
    /// Requests a run makes per second of `--seconds`, so a run is a fixed
    /// set of requests however fast the machine is that day: what the
    /// machine the bounds were set on solved in a second of wall time, its
    /// neighbours slowing it 1.3–1.5× below the reference machine.
    fn requests_per_second(self) -> usize {
        match self {
            Family::General => 110,
            Family::Laminar => 150,
        }
    }
}

struct Request {
    instance: Instance,
    algo: Algo,
}

fn request(family: Family, seed: u64, index: u64, n: usize) -> Request {
    let s = subseed(seed, index);
    let instance = match family {
        Family::General => families::general(n, MACHINES, ALPHA).gen(s),
        Family::Laminar => families::laminar_nested(n, MACHINES, ALPHA, s),
    };
    Request {
        instance,
        algo: ALGOS[index as usize % ALGOS.len()],
    }
}

/// Generate the timed set, then solve one warm-up request outside it. The
/// warm-up input is the same in every run, so set-up time does not move
/// with the seed: its solve is a third of the set-up, and solve times vary
/// ±35% between instances.
fn setup(family: Family, cfg: &Config) -> Vec<Request> {
    let (n, count) = if cfg.smoke {
        (SMOKE_N, SMOKE_REQUESTS)
    } else {
        (
            N,
            family.requests_per_second() * cfg.seconds.as_secs() as usize,
        )
    };
    let pool = (0..count as u64)
        .map(|k| request(family, cfg.seed, k, n))
        .collect();
    let warm = request(family, 0, u64::MAX, n);
    let _ = ssp_harness::solve(&warm.instance, warm.algo, &SolveOptions::default());
    pool
}

/// Whether a pass that started at `start` has run past its time guard; it
/// stops only between cycles of [`ALGOS`], so every algorithm keeps its
/// share.
fn past_guard(k: usize, start: Instant, guard: Duration) -> bool {
    k.is_multiple_of(ALGOS.len()) && start.elapsed() > guard
}

/// Run one of the two solve workloads: one pass over the requests, each
/// timed and checked.
pub fn run(family: Family, cfg: &Config) -> RunResult {
    let (pool, setup_s) = stats::timed_setup(stats::SETUPS, || setup(family, cfg));
    if cfg.trace {
        return traced(&pool, cfg);
    }
    let mut out = RunResult::default();
    let mut digest = Digest::default();
    let mut raw = Vec::with_capacity(pool.len());
    let mut norm = Normalizer::start();
    let start = Instant::now();
    for (k, req) in pool.iter().enumerate() {
        if past_guard(k, start, cfg.guard()) {
            out.note(format!("stopped after {k} requests, past the time guard"));
            break;
        }
        let t = Instant::now();
        let report = ssp_harness::solve(&req.instance, req.algo, &SolveOptions::default());
        let end = Instant::now();
        out.attempted += 1;
        let ms = match check(req, &report) {
            Ok(answer) => {
                out.degraded += u64::from(answer.degraded);
                digest.eat(answer.energy);
                digest.eat(answer.lower_bound);
                stats::ms(end - t)
            }
            Err(failure) => {
                failure.record(&mut out, k);
                f64::INFINITY
            }
        };
        raw.push(ms);
        norm.push(ms, end);
    }
    let raw_rate = stats::rate(&raw);
    out.as_measured(&Latency::of(raw), raw_rate);
    let latencies = norm.finish();
    let throughput = stats::rate(&latencies);
    out.e2e(setup_s, &Latency::of(latencies), throughput);
    out.digest = Some(digest);
    out
}

/// Why a request does not count as a correct answer.
enum Failure {
    /// The operation failed (typed error, no certified bound).
    Failed(String),
    /// The answer is wrong (invalid schedule, energy below the bound).
    Wrong(String),
}

impl Failure {
    fn record(self, out: &mut RunResult, k: usize) {
        match self {
            Failure::Failed(why) => out.fail(format!("request {k}: {why}")),
            Failure::Wrong(why) => out.wrong(format!("request {k}: {why}")),
        }
    }
}

/// A checked answer of the entry point.
#[derive(Debug, Clone, Copy)]
struct Answer {
    energy: f64,
    lower_bound: f64,
    degraded: bool,
}

/// Check a harness answer: a schedule that validates again here, under a
/// certified lower bound it does not undercut.
fn check(req: &Request, report: &SolveReport) -> Result<Answer, Failure> {
    let Some(outcome) = &report.outcome else {
        return Err(Failure::Failed(format!(
            "no answer: {}",
            report.summary().trim_end()
        )));
    };
    let Some(lb) = report.lower_bound else {
        return Err(Failure::Failed("no certified lower bound".into()));
    };
    let energy = outcome.stats.energy;
    check_bound(energy, lb).map_err(Failure::Wrong)?;
    let stats = outcome
        .schedule
        .validate(&req.instance, validation(outcome.algorithm))
        .map_err(|e| Failure::Wrong(format!("schedule does not validate: {e}")))?;
    if stats.energy.to_bits() != energy.to_bits() {
        return Err(Failure::Wrong(format!(
            "validated energy {} differs from the reported {energy}",
            stats.energy
        )));
    }
    Ok(Answer {
        energy,
        lower_bound: lb,
        degraded: report.degraded(),
    })
}

/// Energy must not undercut the certified lower bound (the harness's own
/// tolerance).
pub fn check_bound(energy: f64, lb: f64) -> Result<(), String> {
    if energy.is_finite() && energy >= lb * (1.0 - 1e-9) {
        Ok(())
    } else {
        Err(format!(
            "energy {energy} below the certified lower bound {lb}"
        ))
    }
}

fn validation(algo: Algo) -> ValidationOptions {
    if algo.non_migratory() {
        ValidationOptions::non_migratory()
    } else {
        ValidationOptions::default()
    }
}

/// `ssp_harness::solve` taken apart into the public call of each layer,
/// each under a span. Same calls in the same order, so the energy and the
/// lower bound are bit-identical to the harness's; the replay checks that
/// on every request. Returns `(energy, lower_bound)`.
fn solve_by_layer(instance: &Instance, algo: Algo) -> Result<(f64, f64), String> {
    // Each value is dropped inside the span of the layer that used it last,
    // so no work runs between spans: a preemption there would otherwise
    // read as time no layer covers.
    //
    // Certified lower bound: BAL, its KKT certificate, and the validator's
    // energy of its schedule (the harness takes the smaller of the two).
    let sol = {
        let _s = span("migratory.bal");
        try_bal(instance, Budget::unlimited())
    }
    .map_err(|e| format!("BAL failed: {e}"))?;
    if let Some(resource) = sol.budget_exhausted {
        return Err(format!("lower-bound BAL ran out of {resource}"));
    }
    {
        let _s = span("migratory.kkt");
        certify(instance, &sol, Tol::rel(1e-6)).map_err(|v| format!("KKT failed: {v}"))?;
    }
    let (lb_schedule, bal_energy) = {
        let _s = span("migratory.schedule");
        let out = (sol.schedule(instance), sol.energy);
        drop(sol);
        out
    };
    let lb_stats = {
        let _s = span("model.validate");
        let stats = lb_schedule.validate(instance, ValidationOptions::default());
        drop(lb_schedule);
        stats
    }
    .map_err(|e| format!("BAL schedule invalid: {e}"))?;
    let lb = bal_energy.min(lb_stats.energy);

    let assignment = {
        let _s = span("core.assign");
        match algo {
            Algo::Rr => rr_assignment(instance),
            Algo::Classified => classified_assignment(instance),
            Algo::Relax => relax_round(instance),
            other => return Err(format!("no layer decomposition for {other}")),
        }
    };
    let schedule = {
        let _s = span("single.yds");
        let schedule = assignment_schedule(instance, &assignment);
        drop(assignment);
        schedule
    };
    let stats = {
        let _s = span("model.validate");
        let stats = schedule.validate(instance, validation(algo));
        drop(schedule);
        stats
    }
    .map_err(|e| format!("schedule invalid: {e}"))?;
    check_bound(stats.energy, lb)?;
    Ok((stats.energy, lb))
}

/// `--trace`: each request runs untraced through `ssp_harness::solve`,
/// then again layer by layer under a probe session, until `--seconds`
/// have passed. A replay that differs from the entry point in a single
/// bit, or whose layer spans leave more than 5% of the request uncovered,
/// makes the run wrong.
fn traced(pool: &[Request], cfg: &Config) -> RunResult {
    let mut out = RunResult::default();
    let mut ledger = Ledger::default();
    let mut files = TraceFiles::new(&cfg.run_name(), 2 * ALGOS.len());
    let start = Instant::now();
    for (k, req) in pool.iter().enumerate() {
        if past_guard(k, start, cfg.seconds) {
            break;
        }
        out.attempted += 1;
        let t = Instant::now();
        let report = ssp_harness::solve(&req.instance, req.algo, &SolveOptions::default());
        let untraced = t.elapsed();
        let entry = match check(req, &report) {
            Ok(answer) if answer.degraded => {
                // The replay follows the requested algorithm only.
                out.fail(format!("request {k}: fell back, no layer replay"));
                continue;
            }
            Ok(answer) => answer,
            Err(failure) => {
                failure.record(&mut out, k);
                continue;
            }
        };
        let (layered, trace, traced) = trace_unit(|| solve_by_layer(&req.instance, req.algo));
        let same = layered.and_then(|(energy, lb)| {
            if energy.to_bits() == entry.energy.to_bits()
                && lb.to_bits() == entry.lower_bound.to_bits()
            {
                Ok(())
            } else {
                Err(format!(
                    "layer replay gave energy {energy} / bound {lb}, the entry point {} / {}",
                    entry.energy, entry.lower_bound
                ))
            }
        });
        if let Err(why) = same {
            out.wrong(format!("request {k}: {why}"));
            continue;
        }
        ledger.absorb(&trace, 1);
        ledger.untraced_ns += untraced.as_nanos() as u64;
        ledger.traced_ns += traced.as_nanos() as u64;
        if let Err(e) = files.keep(k, &trace) {
            out.wrong(e);
        }
    }
    if ledger.units > 0 && ledger.min_coverage < MIN_COVERAGE {
        out.wrong(format!(
            "layer spans cover only {:.1}% of a request",
            ledger.min_coverage * 100.0
        ));
    }
    out.layers(&ledger);
    out
}

/// Run `f` as one traced unit: a probe session around a [`ledger::UNIT`]
/// root span. Returns the result, the trace and the unit's wall time.
pub fn trace_unit<T>(f: impl FnOnce() -> T) -> (T, ssp_probe::Trace, Duration) {
    let session = ssp_probe::Session::begin().expect("the benchmark owns the probes");
    let t = Instant::now();
    let result = {
        let _root = span(ledger::UNIT);
        f()
    };
    let wall = t.elapsed();
    (result, session.end(), wall)
}
