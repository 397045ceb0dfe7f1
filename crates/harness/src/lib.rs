//! # ssp-harness
//!
//! The panic-free solve harness: every solve attempt in the workspace is
//! **total**. Whatever instance comes in — valid, adversarial, or corrupted
//! — and whatever algorithm is requested, [`solve`] returns a structured
//! [`SolveReport`]; it never panics and never aborts the process.
//!
//! Three layers make that true:
//!
//! 1. **Typed failures.** Every registered algorithm runs behind a
//!    [`boundary::catch`] unwind boundary; panics become
//!    [`SolveError::InternalPanic`], and the fallible solver entry points
//!    ([`ssp_migratory::bal::try_bal`], budgeted local search, the budgeted
//!    bisection) surface their own [`SolveError`]s directly.
//! 2. **Post-validation.** A schedule an algorithm *claims* is only
//!    accepted after [`ssp_model::Schedule::validate`] passes and its energy
//!    is consistent with the certified BAL/KKT lower bound. A bad schedule
//!    is a typed failure like any other.
//! 3. **Degradation.** When the requested algorithm fails, the harness
//!    walks a fallback chain (`requested → local → greedy → least-loaded →
//!    rr`), recording each attempt — algorithm, outcome, energy, lower-bound
//!    ratio, wall time, and the failure that caused the fallback — in the
//!    report.
//!
//! Resource budgets ([`ssp_model::resource::Budget`]) bound every iterative
//! solver; exhaustion yields the best valid solution found so far, marked in
//! the report rather than silently returned.
//!
//! Every solve is also *observable*: the solver stack carries [`ssp_probe`]
//! spans and counters, and [`solve_traced`] wraps a solve in a probe session
//! so [`SolveReport::telemetry`] holds the complete span tree — lower bound,
//! every chain attempt by algorithm name, validation — plus counter totals
//! (max-flow work, BAL bisection steps, local-search moves). When no session
//! is active the probes cost a relaxed atomic load; see
//! `docs/OBSERVABILITY.md` for the trace schema and how to read one.
//!
//! [`fault::FaultPlan`] generates the seeded corrupted-instance stream used
//! by the fault-injection suite (`tests/fault_injection.rs`) to enforce the
//! no-panic guarantee over every registered algorithm.

#![warn(missing_docs)]

pub mod boundary;
pub mod fault;

use ssp_core::assignment::{assignment_schedule, Assignment};
use ssp_core::classified::classified_assignment;
use ssp_core::exact::exact_nonmigratory;
use ssp_core::list::{least_loaded, marginal_energy_greedy};
use ssp_core::local_search::{improve, LocalSearchOptions};
use ssp_core::online::{avr_m, oa_m};
use ssp_core::relax::{round_relaxation, RoundingOrder::EarliestDeadline};
use ssp_core::rr::rr_assignment;
use ssp_migratory::bal::{try_bal, BalSolution};
use ssp_migratory::kkt::certify;
use ssp_model::numeric::Tol;
use ssp_model::resource::Budget;
use ssp_model::schedule::ValidationOptions;
use ssp_model::{Instance, Schedule, ScheduleStats, SolveError};
use std::borrow::Cow;
use std::fmt;
use std::time::{Duration, Instant};

/// Every algorithm the harness can drive, mirroring the CLI names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the algorithm names themselves
pub enum Algo {
    Rr,
    Classified,
    LeastLoaded,
    Relax,
    Greedy,
    Local,
    Exact,
    Bal,
    Avr,
    Oa,
}

impl Algo {
    /// All registered algorithms, in registry order.
    pub const ALL: [Algo; 10] = [
        Algo::Rr,
        Algo::Classified,
        Algo::LeastLoaded,
        Algo::Relax,
        Algo::Greedy,
        Algo::Local,
        Algo::Exact,
        Algo::Bal,
        Algo::Avr,
        Algo::Oa,
    ];

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Rr => "rr",
            Algo::Classified => "classified",
            Algo::LeastLoaded => "least-loaded",
            Algo::Relax => "relax",
            Algo::Greedy => "greedy",
            Algo::Local => "local",
            Algo::Exact => "exact",
            Algo::Bal => "bal",
            Algo::Avr => "avr",
            Algo::Oa => "oa",
        }
    }

    /// Human-readable description (matches the CLI labels).
    pub fn label(self) -> &'static str {
        match self {
            Algo::Rr => "round-robin + YDS (non-migratory)",
            Algo::Classified => "classified RR + YDS (non-migratory)",
            Algo::LeastLoaded => "least-loaded + YDS (non-migratory)",
            Algo::Relax => "relax-and-round + YDS (non-migratory)",
            Algo::Greedy => "marginal-energy greedy (non-migratory)",
            Algo::Local => "greedy + local search (non-migratory)",
            Algo::Exact => "exact optimum (non-migratory)",
            Algo::Bal => "BAL optimum (migratory)",
            Algo::Avr => "AVR-m (online, migratory)",
            Algo::Oa => "OA-m (online, migratory)",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Result<Algo, SolveError> {
        Algo::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| SolveError::UnknownAlgorithm {
                name: name.to_string(),
            })
    }

    /// Whether the algorithm produces one-machine-per-job schedules (and is
    /// therefore validated under the stricter non-migratory rules).
    pub fn non_migratory(self) -> bool {
        !matches!(self, Algo::Bal | Algo::Avr | Algo::Oa)
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Precondition cap for the exponential exact solver: `exact` refuses
/// instances with more jobs than this.
pub const MAX_EXACT_JOBS: usize = 16;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Resource budget applied to every iterative solver the harness runs
    /// (BAL peeling/bisection probes, local-search evaluations) — including
    /// the lower-bound computation.
    pub budget: Budget,
    /// Walk the degradation chain on failure (`false` = requested
    /// algorithm only).
    pub degrade: bool,
    /// Compute the certified BAL/KKT lower bound and check every accepted
    /// schedule against it.
    pub lower_bound: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            budget: Budget::unlimited(),
            degrade: true,
            lower_bound: true,
        }
    }
}

/// A schedule produced by one algorithm run, before post-validation.
#[derive(Debug, Clone)]
pub struct AlgoRun {
    /// The produced schedule.
    pub schedule: Schedule,
    /// Set when the algorithm hit its budget and returned a best-so-far
    /// (valid, possibly suboptimal) result.
    pub budget_exhausted: Option<&'static str>,
}

/// Run one registered algorithm behind the panic boundary. Returns the raw
/// (not yet validated) schedule or a typed error; never panics.
///
/// `relaxation` is a completed (not budget-exhausted) BAL run on
/// `instance`, when the caller has one — the lower bound's, see
/// [`certified_lower_bound`]. `relax` rounds its speeds and `bal` reports
/// its schedule instead of running BAL again; every other algorithm
/// ignores it.
pub fn run_algorithm(
    instance: &Instance,
    algo: Algo,
    opts: &SolveOptions,
    relaxation: Option<&BalSolution>,
) -> Result<AlgoRun, SolveError> {
    let budget = opts.budget.clone();
    boundary::catch(|| {
        let from_assignment = |a: Assignment| AlgoRun {
            schedule: assignment_schedule(instance, &a),
            budget_exhausted: None,
        };
        let relaxed = |budget| match relaxation {
            Some(sol) => Ok(Cow::Borrowed(sol)),
            None => try_bal(instance, budget).map(Cow::Owned),
        };
        Ok(match algo {
            Algo::Rr => from_assignment(rr_assignment(instance)),
            Algo::Classified => from_assignment(classified_assignment(instance)),
            Algo::LeastLoaded => from_assignment(least_loaded(instance)),
            Algo::Relax => {
                let speeds = &relaxed(Budget::unlimited())?.speeds;
                from_assignment(round_relaxation(instance, speeds, EarliestDeadline))
            }
            Algo::Greedy => from_assignment(marginal_energy_greedy(instance)),
            Algo::Exact => {
                if instance.len() > MAX_EXACT_JOBS {
                    return Err(SolveError::Precondition {
                        algorithm: "exact",
                        message: format!(
                            "branch-and-bound limited to n <= {MAX_EXACT_JOBS} (got {})",
                            instance.len()
                        ),
                    });
                }
                from_assignment(exact_nonmigratory(instance).assignment)
            }
            Algo::Local => {
                let seed = marginal_energy_greedy(instance);
                let search_opts = LocalSearchOptions {
                    max_evaluations: budget
                        .max_iterations
                        .map(|n| n.min(usize::MAX as u64) as usize)
                        .unwrap_or(2_000_000),
                    max_time: budget.max_time,
                    deadline: budget.deadline,
                    cancel: budget.cancel.clone(),
                    ..Default::default()
                };
                let result = improve(instance, &seed, search_opts);
                AlgoRun {
                    schedule: assignment_schedule(instance, &result.assignment),
                    budget_exhausted: result.budget_exhausted,
                }
            }
            Algo::Bal => {
                let sol = relaxed(budget)?;
                AlgoRun {
                    schedule: sol.schedule(instance),
                    budget_exhausted: sol.budget_exhausted,
                }
            }
            Algo::Avr => AlgoRun {
                schedule: avr_m(instance),
                budget_exhausted: None,
            },
            Algo::Oa => AlgoRun {
                schedule: oa_m(instance),
                budget_exhausted: None,
            },
        })
    })
}

/// The certified lower bound and the BAL run behind it. The bound is a
/// full (non-budget-exhausted) BAL run whose KKT certificate verifies and
/// whose schedule validates; `None` when any step fails — the harness then
/// simply has no bound to compare against. The run itself is returned
/// whenever BAL completed, certified or not, for [`run_algorithm`] to
/// reuse: `relax` and `bal` would compute that same solution again.
pub fn certified_lower_bound(
    instance: &Instance,
    budget: Budget,
) -> (Option<f64>, Option<BalSolution>) {
    let sol = match boundary::catch(|| try_bal(instance, budget)) {
        Ok(sol) if sol.budget_exhausted.is_none() => sol,
        _ => return (None, None),
    };
    let bound = boundary::catch(|| {
        certify(instance, &sol, Tol::rel(1e-6)).map_err(|v| SolveError::Numeric {
            message: format!("KKT certificate failed: {v}"),
        })?;
        // Accepted schedules are measured by the validator's quadrature,
        // which can differ from BAL's internal accounting by ~1e-9 relative;
        // take the min so the bound is conservative under either measure.
        let stats = sol
            .schedule(instance)
            .validate(instance, ValidationOptions::default())
            .map_err(SolveError::from)?;
        Ok(sol.energy.min(stats.energy))
    })
    .ok();
    (bound, Some(sol))
}

/// One attempt in the degradation chain.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Which algorithm ran.
    pub algo: Algo,
    /// `None` = the attempt produced a validated schedule.
    pub error: Option<SolveError>,
    /// Validated energy (successful attempts only).
    pub energy: Option<f64>,
    /// `energy / lower_bound` when both exist.
    pub lb_ratio: Option<f64>,
    /// Wall-clock time of the attempt (solve + validation).
    pub wall: Duration,
    /// Budget-exhaustion marker carried up from the solver.
    pub budget_exhausted: Option<&'static str>,
    /// Why the chain reached this algorithm: the previous attempt's error
    /// (`None` for the originally requested algorithm).
    pub fallback_reason: Option<String>,
}

/// The accepted result of a solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The algorithm whose schedule was accepted.
    pub algorithm: Algo,
    /// The validated schedule.
    pub schedule: Schedule,
    /// Validator statistics (energy, makespan, preemptions, migrations…).
    pub stats: ScheduleStats,
    /// `stats.energy / lower_bound` when a certified bound exists.
    pub lb_ratio: Option<f64>,
    /// Set when the producing solver stopped on a budget cap (the schedule
    /// is valid but possibly suboptimal).
    pub budget_exhausted: Option<&'static str>,
}

/// Full record of a [`solve`] call: every attempt plus the accepted outcome
/// (or none, when the whole chain failed — inspect [`SolveReport::error`]).
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The algorithm originally asked for.
    pub requested: Algo,
    /// The certified BAL/KKT lower bound, when computable.
    pub lower_bound: Option<f64>,
    /// Every attempt, in chain order; the last one is the accepted one when
    /// [`SolveReport::outcome`] is `Some`.
    pub attempts: Vec<Attempt>,
    /// The accepted result.
    pub outcome: Option<SolveOutcome>,
    /// Captured probe trace ([`solve_traced`] only): the span tree and
    /// counter totals for the whole chain, including every fallback step.
    pub telemetry: Option<ssp_probe::Trace>,
}

impl SolveReport {
    /// Did the harness have to fall back past the requested algorithm?
    pub fn degraded(&self) -> bool {
        self.outcome
            .as_ref()
            .is_some_and(|o| o.algorithm != self.requested)
    }

    /// The terminal error when the whole chain failed.
    pub fn error(&self) -> Option<&SolveError> {
        if self.outcome.is_some() {
            return None;
        }
        self.attempts.last().and_then(|a| a.error.as_ref())
    }

    /// Multi-line human-readable account of the attempts.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for a in &self.attempts {
            let status = match &a.error {
                None => {
                    let mut s = format!("ok energy={:.6}", a.energy.unwrap_or(f64::NAN));
                    if let Some(r) = a.lb_ratio {
                        s.push_str(&format!(" lb-ratio={r:.6}"));
                    }
                    if let Some(b) = a.budget_exhausted {
                        s.push_str(&format!(" [{b} budget exhausted]"));
                    }
                    s
                }
                Some(e) => format!("failed ({}): {e}", e.kind()),
            };
            let via = match &a.fallback_reason {
                Some(reason) => format!(" (fallback after: {reason})"),
                None => String::new(),
            };
            out.push_str(&format!(
                "{}: {status} in {:.1}ms{via}\n",
                a.algo,
                a.wall.as_secs_f64() * 1e3
            ));
        }
        out
    }
}

/// The degradation chain for a requested algorithm: cheaper and more robust
/// at every step, ending at round-robin (total for every valid instance).
pub fn degradation_chain(requested: Algo) -> Vec<Algo> {
    let mut chain = vec![requested];
    for fallback in [Algo::Local, Algo::Greedy, Algo::LeastLoaded, Algo::Rr] {
        if fallback != requested {
            chain.push(fallback);
        }
    }
    chain
}

/// Solve `instance` with `requested`, post-validating the schedule and
/// degrading through [`degradation_chain`] on failure. Total: always
/// returns a report, never panics.
pub fn solve(instance: &Instance, requested: Algo, opts: &SolveOptions) -> SolveReport {
    let _solve_span = ssp_probe::span("solve");
    let (lower_bound, relaxation) = if opts.lower_bound {
        let _lb_span = ssp_probe::span("lower_bound");
        certified_lower_bound(instance, opts.budget.clone())
    } else {
        (None, None)
    };
    let chain = if opts.degrade {
        degradation_chain(requested)
    } else {
        vec![requested]
    };

    let mut attempts = Vec::new();
    let mut outcome = None;
    let mut fallback_reason: Option<String> = None;
    for algo in chain {
        let start = Instant::now();
        let result = {
            // Span named after the algorithm, so every fallback step shows
            // up as its own phase under `solve`.
            let _attempt_span = ssp_probe::span(algo.name());
            attempt(instance, algo, opts, lower_bound, relaxation.as_ref())
        };
        let wall = start.elapsed();
        // Attempt latency distribution across the whole session (gauntlets
        // run many solves); microseconds keep the log2 buckets meaningful
        // from sub-ms heuristics to multi-second exact solves.
        ssp_probe::histogram!("solve.attempt_us", wall.as_micros() as u64);
        match result {
            Ok((schedule, stats, budget_exhausted)) => {
                let lb_ratio = ratio(stats.energy, lower_bound);
                attempts.push(Attempt {
                    algo,
                    error: None,
                    energy: Some(stats.energy),
                    lb_ratio,
                    wall,
                    budget_exhausted,
                    fallback_reason: fallback_reason.take(),
                });
                outcome = Some(SolveOutcome {
                    algorithm: algo,
                    schedule,
                    stats,
                    lb_ratio,
                    budget_exhausted,
                });
                break;
            }
            Err(error) => {
                let reason = error.to_string();
                attempts.push(Attempt {
                    algo,
                    error: Some(error),
                    energy: None,
                    lb_ratio: None,
                    wall,
                    budget_exhausted: None,
                    fallback_reason: fallback_reason.replace(reason),
                });
            }
        }
    }
    SolveReport {
        requested,
        lower_bound,
        attempts,
        outcome,
        telemetry: None,
    }
}

/// Like [`solve`], but wrapped in a probe session: the returned report
/// carries the captured [`ssp_probe::Trace`] in [`SolveReport::telemetry`].
/// When another session already holds the probes the solve still runs and
/// the report's telemetry is simply `None` — tracing never blocks a solve.
///
/// When the whole chain fails (no outcome), the trace is still captured
/// and its [`Trace::error`](ssp_probe::Trace) field carries the last
/// attempt's error, so failed gauntlet cases stay debuggable.
pub fn solve_traced(instance: &Instance, requested: Algo, opts: &SolveOptions) -> SolveReport {
    match ssp_probe::Session::begin() {
        Some(session) => {
            let mut report = solve(instance, requested, opts);
            let mut trace = session.end();
            if report.outcome.is_none() {
                trace.error = Some(
                    report
                        .attempts
                        .iter()
                        .rev()
                        .find_map(|a| a.error.as_ref().map(|e| e.to_string()))
                        .unwrap_or_else(|| "solve failed with no attempts".to_string()),
                );
            }
            report.telemetry = Some(trace);
            report
        }
        None => solve(instance, requested, opts),
    }
}

/// One chain step: run, validate, check against the lower bound.
fn attempt(
    instance: &Instance,
    algo: Algo,
    opts: &SolveOptions,
    lower_bound: Option<f64>,
    relaxation: Option<&BalSolution>,
) -> Result<(Schedule, ScheduleStats, Option<&'static str>), SolveError> {
    let run = run_algorithm(instance, algo, opts, relaxation)?;
    let vopts = if algo.non_migratory() {
        ValidationOptions::non_migratory()
    } else {
        ValidationOptions::default()
    };
    let stats = boundary::catch(|| {
        run.schedule
            .validate(instance, vopts)
            .map_err(SolveError::from)
    })?;
    if let Some(lb) = lower_bound {
        if stats.energy < lb * (1.0 - 1e-9) {
            return Err(SolveError::Numeric {
                message: format!(
                    "energy {} below the certified lower bound {lb} — schedule rejected",
                    stats.energy
                ),
            });
        }
    }
    Ok((run.schedule, stats, run.budget_exhausted))
}

fn ratio(energy: f64, lower_bound: Option<f64>) -> Option<f64> {
    match lower_bound {
        Some(lb) if lb > 0.0 => Some(energy / lb),
        Some(_) if energy <= 0.0 => Some(1.0), // empty instances: 0/0
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::Job;

    fn small_instance() -> Instance {
        Instance::new(
            vec![
                Job::new(0, 2.0, 0.0, 2.0),
                Job::new(1, 1.0, 0.5, 3.0),
                Job::new(2, 1.5, 1.0, 4.0),
                Job::new(3, 0.5, 2.0, 5.0),
            ],
            2,
            2.0,
        )
        .unwrap()
    }

    #[test]
    fn algo_names_roundtrip() {
        for algo in Algo::ALL {
            assert_eq!(Algo::from_name(algo.name()).unwrap(), algo);
            assert_eq!(algo.to_string(), algo.name());
        }
        assert!(matches!(
            Algo::from_name("nope"),
            Err(SolveError::UnknownAlgorithm { .. })
        ));
    }

    #[test]
    fn every_algorithm_solves_a_valid_instance() {
        let inst = small_instance();
        for algo in Algo::ALL {
            let report = solve(&inst, algo, &SolveOptions::default());
            let outcome = report.outcome.as_ref().unwrap_or_else(|| {
                panic!("{algo} failed: {}", report.summary());
            });
            assert_eq!(
                outcome.algorithm,
                algo,
                "no fallback expected:\n{}",
                report.summary()
            );
            let ratio = outcome.lb_ratio.expect("certified bound must exist here");
            assert!(
                ratio >= 1.0 - 1e-9,
                "{algo}: energy/LB ratio {ratio} below 1"
            );
        }
    }

    #[test]
    fn bal_matches_the_lower_bound_exactly() {
        let inst = small_instance();
        let report = solve(&inst, Algo::Bal, &SolveOptions::default());
        let outcome = report.outcome.unwrap();
        let ratio = outcome.lb_ratio.unwrap();
        assert!(
            (ratio - 1.0).abs() <= 1e-6,
            "BAL is the bound, got ratio {ratio}"
        );
    }

    #[test]
    fn exact_precondition_degrades_to_a_fallback() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, 1.0, i as f64 * 0.1, i as f64 * 0.1 + 2.0))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let report = solve(&inst, Algo::Exact, &SolveOptions::default());
        assert!(
            report.degraded(),
            "expected fallback:\n{}",
            report.summary()
        );
        let first = &report.attempts[0];
        assert!(matches!(first.error, Some(SolveError::Precondition { .. })));
        let second = &report.attempts[1];
        assert_eq!(second.algo, Algo::Local);
        assert!(second
            .fallback_reason
            .as_ref()
            .unwrap()
            .contains("precondition"));
        assert!(report.outcome.is_some());
    }

    #[test]
    fn no_degradation_when_disabled() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, 1.0, i as f64 * 0.1, i as f64 * 0.1 + 2.0))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let opts = SolveOptions {
            degrade: false,
            ..Default::default()
        };
        let report = solve(&inst, Algo::Exact, &opts);
        assert!(report.outcome.is_none());
        assert_eq!(report.attempts.len(), 1);
        assert!(matches!(
            report.error(),
            Some(SolveError::Precondition { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_is_marked_not_fatal() {
        let jobs: Vec<Job> = (0..10)
            .map(|i| {
                Job::new(
                    i,
                    1.0 + i as f64 * 0.3,
                    i as f64 * 0.4,
                    i as f64 * 0.4 + 2.0,
                )
            })
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let opts = SolveOptions {
            budget: Budget::iterations(4),
            lower_bound: false,
            ..Default::default()
        };
        let report = solve(&inst, Algo::Bal, &opts);
        let outcome = report
            .outcome
            .expect("budgeted BAL still yields a valid schedule");
        assert_eq!(outcome.algorithm, Algo::Bal);
        assert_eq!(outcome.budget_exhausted, Some("iterations"));
    }

    #[test]
    fn summary_narrates_the_chain() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| Job::new(i, 1.0, i as f64 * 0.1, i as f64 * 0.1 + 2.0))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let report = solve(&inst, Algo::Exact, &SolveOptions::default());
        let s = report.summary();
        assert!(s.contains("exact: failed (precondition)"));
        assert!(s.contains("local: ok energy="));
        assert!(s.contains("fallback after:"));
    }

    /// BAL's schedule must carry every allotted sliver. Here a full
    /// interval's first machine ends 8e-7 short of its end and job 73's
    /// last piece is 8e-7 long; stranding that gap drops the piece, the
    /// schedule fails validation, and no bound is certified.
    #[test]
    fn general_n100_tiny_piece_keeps_its_certified_bound() {
        let inst =
            ssp_workloads::families::general(100, 4, 2.0).gen(ssp_workloads::subseed(10, 100));
        let (bound, _) = certified_lower_bound(&inst, Budget::unlimited());
        assert!(bound.is_some());
    }

    /// The same stranded-gap defect on a weighted agreeable instance: a
    /// 1.8e-5 gap in an interval of length 18.5 drops job 39's tail.
    #[test]
    fn weighted_agreeable_n50_keeps_its_certified_bound() {
        let inst = ssp_workloads::families::weighted_agreeable(50, 4, 2.0)
            .gen(ssp_workloads::subseed(3, 168));
        let (bound, _) = certified_lower_bound(&inst, Budget::unlimited());
        assert!(bound.is_some());
    }

    /// Bitwise identity: the `Debug` forms of `f64`s round-trip, so equal
    /// strings mean equal bits.
    fn same<T: fmt::Debug>(a: &T, b: &T) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    /// `relax` and `bal` reuse the lower bound's BAL run. Their answers
    /// must be bit for bit those of a BAL of their own: with the bound,
    /// without it, and under a budget the bound's run exhausts (then there
    /// is no bound, relax still rounds a full BAL, and bal keeps its
    /// exhaustion marker).
    #[test]
    fn relax_and_bal_reuse_the_bound_bal_bit_for_bit() {
        use ssp_core::relax::relax_round;
        use ssp_workloads::families;
        let no_bound = SolveOptions {
            lower_bound: false,
            ..Default::default()
        };
        let short = SolveOptions {
            budget: Budget::iterations(2),
            ..Default::default()
        };
        for n in [30, 100] {
            for (family, inst) in [
                ("general", families::general(n, 4, 2.0).gen(7)),
                ("unit-arbitrary", families::unit_arbitrary(n, 4, 2.0).gen(7)),
                ("weighted", families::weighted_agreeable(n, 4, 2.0).gen(7)),
                ("laminar", families::laminar_nested(n, 4, 2.0, 7)),
            ] {
                // Reference answers: each attempt runs a BAL of its own.
                let relax = assignment_schedule(&inst, &relax_round(&inst));
                let relax_stats = relax
                    .validate(&inst, ValidationOptions::non_migratory())
                    .unwrap();
                let bal = |budget: &Budget| {
                    let sol = try_bal(&inst, budget.clone()).unwrap();
                    let schedule = sol.schedule(&inst);
                    let stats = schedule.validate(&inst, ValidationOptions::default());
                    (sol, schedule, stats.unwrap())
                };
                let (sol, _, stats) = bal(&Budget::unlimited());
                certify(&inst, &sol, Tol::rel(1e-6)).unwrap();
                let bound = Some(sol.energy.min(stats.energy));
                for (opts, bound, marker) in [
                    (&SolveOptions::default(), bound, None),
                    (&no_bound, None, None),
                    (&short, None, Some("iterations")),
                ] {
                    let (sol, bal_schedule, bal_stats) = bal(&opts.budget);
                    assert_eq!(sol.budget_exhausted, marker);
                    for (algo, schedule, stats, marker) in [
                        (Algo::Relax, &relax, &relax_stats, None),
                        (Algo::Bal, &bal_schedule, &bal_stats, marker),
                    ] {
                        let report = solve(&inst, algo, opts);
                        let out = report.outcome.as_ref().unwrap();
                        let case = format!("{algo} on {family} n={n}, {opts:?}");
                        assert_eq!(out.algorithm, algo, "{case}");
                        assert!(same(&out.schedule, schedule), "{case}");
                        assert!(same(&out.stats, stats), "{case}");
                        assert!(same(&report.lower_bound, &bound), "{case}");
                        assert_eq!(out.budget_exhausted, marker, "{case}");
                    }
                }
            }
        }
    }

    /// A job of density 1e600 overflows BAL's opening speed bracket. Relax
    /// reports BAL's typed numeric error, as `bal` does, not a panic.
    #[test]
    fn relax_reports_a_failed_relaxation_as_numeric() {
        let jobs = vec![Job::new(0, 1e300, 0.0, 1e-300), Job::new(1, 1.0, 0.0, 2.0)];
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        for algo in [Algo::Relax, Algo::Bal] {
            let report = solve(&inst, algo, &SolveOptions::default());
            let error = report.attempts[0].error.as_ref().unwrap();
            assert_eq!(error.kind(), "numeric", "{algo}: {error}");
        }
    }

    #[test]
    fn empty_instance_reports_ratio_one() {
        let inst = Instance::new(vec![], 2, 2.0).unwrap();
        let report = solve(&inst, Algo::Rr, &SolveOptions::default());
        let outcome = report.outcome.unwrap();
        assert_eq!(outcome.stats.energy, 0.0);
        assert_eq!(outcome.lb_ratio, Some(1.0));
    }
}
