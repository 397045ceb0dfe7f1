//! BAL — the optimal migratory multiprocessor speed-scaling algorithm.
//!
//! High-level structure (critical-speed peeling):
//!
//! 1. Binary-search the minimum uniform speed `v*` at which the remaining
//!    jobs fit into the remaining per-interval capacities (feasibility =
//!    max-flow on the WAP network).
//! 2. Just below `v*` the instance is infeasible; the canonical minimum cut
//!    of that infeasible network classifies the remaining jobs and intervals:
//!    *critical jobs* (job node residual-reachable from the source) cannot
//!    run slower than `v*`, and *saturated intervals* (interval node
//!    reachable) are completely busy. Moreover every `(critical job,
//!    non-saturated span interval)` edge lies in the cut, i.e. the critical
//!    job occupies that interval **entirely**.
//! 3. Fix the critical jobs at speed `v*` with the structured allotment
//!    (full non-saturated intervals, residue routed into saturated intervals
//!    by a small dedicated flow), zero the saturated intervals' capacities,
//!    subtract one processor (`|I_j|`) per critical job from the others, and
//!    recurse on the remaining jobs.
//!
//! Each round fixes at least one job, so there are at most `n` rounds of
//! `O(log P)` max-flow computations: `O(n · f(n) · log P)` total.
//!
//! The result is returned as speeds **plus** per-interval allotments, from
//! which [`BalSolution::schedule`] builds an explicit schedule (McNaughton
//! wrap-around per interval) and [`crate::kkt::certify`] checks the KKT
//! optimality certificate.

use crate::mcnaughton::mcnaughton;
use crate::wap::{Wap, WapSolver};
use ssp_maxflow::FlowNetwork;
use ssp_model::numeric::{bisect_threshold_budgeted, BINARY_SEARCH_REL_WIDTH};
use ssp_model::resource::{Budget, Meter};
use ssp_model::{Instance, IntervalSet, Schedule, SolveError, SpeedAssignment};

/// One peeling round: the critical speed and the jobs fixed at it.
#[derive(Debug, Clone, PartialEq)]
pub struct BalRound {
    /// The critical speed of this round.
    pub speed: f64,
    /// Instance-indices of the jobs fixed in this round.
    pub jobs: Vec<usize>,
    /// Interval indices whose capacity was saturated (zeroed) this round.
    pub saturated: Vec<usize>,
    /// The round's speed-search probe transcript: every feasibility probe
    /// (speed, feasible) in execution order — the upper-bound re-establish
    /// probes followed by the ladder/bisection probes. The transcript is a
    /// pure function of the instance and the [`ProbeStrategy`]: every probe
    /// runs on the calling thread, so `SSP_THREADS` cannot reach it (the
    /// differential wall replays it under pinned widths to keep it so).
    pub probes: Vec<(f64, bool)>,
}

/// How each round locates its critical speed between the density lower
/// bound and the previous round's (feasible) speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeStrategy {
    /// Cut-guided probe ladder (the default): every step picks one
    /// candidate speed — the discrete-Newton bound read from the last
    /// infeasible cut ([`WapSolver::cut_speed_bound`]), the density opener,
    /// or a geometric splitter — and probes it on the round's warm solver
    /// in place. Converges in roughly one probe per distinct cut instead of
    /// ~40 bisection probes per round.
    #[default]
    Ladder,
    /// Plain budgeted bisection
    /// ([`bisect_threshold_budgeted`]): one warm
    /// serial probe per step. Kept as the EXP-23 baseline and as a
    /// cross-check in the differential wall.
    Bisection,
}

/// Output of [`bal`]: optimal constant speeds, the optimal energy, the
/// per-round peeling trace, and per-interval time allotments.
#[derive(Debug, Clone)]
pub struct BalSolution {
    /// Optimal speed per job (instance indexing).
    pub speeds: SpeedAssignment,
    /// Optimal total energy `Σ w_i s_i^(α-1)`.
    pub energy: f64,
    /// Peeling trace, in decreasing-speed order.
    pub rounds: Vec<BalRound>,
    /// `allotments[i]` = `(interval, time)` pairs for job `i` over the
    /// canonical interval set, summing to `w_i / s_i`.
    pub allotments: Vec<Vec<(usize, f64)>>,
    /// The canonical interval decomposition the allotments refer to.
    pub intervals: IntervalSet,
    /// Total number of max-flow computations performed (complexity probe).
    pub flow_computations: usize,
    /// Set when a [`Budget`] ran out mid-peeling (`"iterations"` or
    /// `"time"`). The solution is then still *valid* — the jobs not yet
    /// peeled were fixed at the last known-feasible uniform speed — but its
    /// energy is an upper bound on the optimum rather than the optimum.
    pub budget_exhausted: Option<&'static str>,
}

impl BalSolution {
    /// Materialize an explicit migratory schedule (McNaughton wrap-around in
    /// every elementary interval).
    pub fn schedule(&self, instance: &Instance) -> Schedule {
        let mut per_interval: Vec<Vec<(ssp_model::JobId, f64, f64)>> =
            vec![Vec::new(); self.intervals.len()];
        for (i, allot) in self.allotments.iter().enumerate() {
            for &(j, t) in allot {
                if t > 0.0 {
                    per_interval[j].push((instance.job(i).id, t, self.speeds.get(i)));
                }
            }
        }
        let mut schedule = Schedule::new(instance.machines());
        for (j, pieces) in per_interval.iter().enumerate() {
            if !pieces.is_empty() {
                mcnaughton(
                    self.intervals.bounds(j),
                    instance.machines(),
                    pieces,
                    &mut schedule,
                );
            }
        }
        schedule
    }
}

/// Compute the optimal migratory solution. See the module docs for the
/// algorithm. Panics only on internal invariant violations (the problem is
/// always feasible: speeds are unbounded); use [`try_bal`] for the fallible,
/// budget-aware entry point.
pub fn bal(instance: &Instance) -> BalSolution {
    let (wap, intervals) = Wap::from_instance(instance);
    bal_with_wap(instance, wap, intervals)
}

/// Fallible BAL: every invariant violation becomes a [`SolveError`] instead
/// of a panic, and `budget` caps the number of max-flow feasibility probes /
/// wall-clock time. On budget exhaustion the not-yet-peeled jobs are fixed
/// at the last known-feasible uniform speed, so the returned solution is
/// always valid (check [`BalSolution::budget_exhausted`] for optimality).
pub fn try_bal(instance: &Instance, budget: Budget) -> Result<BalSolution, SolveError> {
    let (wap, intervals) = Wap::from_instance(instance);
    try_bal_with_wap(instance, wap, intervals, budget)
}

/// BAL over a caller-built WAP (custom per-interval capacities — e.g.
/// machine downtime, see [`crate::downtime`]). The WAP's intervals must be
/// (a refinement of) the instance's canonical decomposition and every job
/// must have positive open time, or the peeling loop panics on its
/// invariants. Use [`try_bal_with_wap`] for the fallible variant.
pub fn bal_with_wap(instance: &Instance, wap: Wap, intervals: IntervalSet) -> BalSolution {
    try_bal_with_wap(instance, wap, intervals, Budget::unlimited())
        .expect("BAL failed on what should be a feasible instance")
}

/// Fallible, budget-aware form of [`bal_with_wap`]; see [`try_bal`]. Uses
/// the default [`ProbeStrategy::Ladder`]; use
/// [`try_bal_with_wap_strategy`] to pin the speed-search driver.
pub fn try_bal_with_wap(
    instance: &Instance,
    wap: Wap,
    intervals: IntervalSet,
    budget: Budget,
) -> Result<BalSolution, SolveError> {
    try_bal_with_wap_strategy(instance, wap, intervals, budget, ProbeStrategy::default())
}

/// [`try_bal_with_wap`] with an explicit per-round speed-search
/// [`ProbeStrategy`]. Both strategies produce optimal energies; they differ
/// in probe count and transcript shape (EXP-23 quantifies the gap).
pub fn try_bal_with_wap_strategy(
    instance: &Instance,
    wap: Wap,
    intervals: IntervalSet,
    budget: Budget,
    strategy: ProbeStrategy,
) -> Result<BalSolution, SolveError> {
    let _bal_span = ssp_probe::span("bal");
    let mut meter = budget.meter();
    let n = instance.len();
    let mut wap = wap;
    let mut speeds = vec![0.0f64; n];
    let mut allotments: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut rounds = Vec::new();
    let mut flow_computations = 0usize;

    if n == 0 {
        return Ok(BalSolution {
            speeds: SpeedAssignment::new(speeds),
            energy: 0.0,
            rounds,
            allotments,
            intervals,
            flow_computations,
            budget_exhausted: None,
        });
    }

    let mut remaining: Vec<usize> = (0..n).collect();
    // Initial upper bound, valid for arbitrary capacities: route each job
    // proportionally to interval lengths over its *open* span. With
    // `open_i = Σ_{open j in span} |I_j|`, the routing is feasible when
    // v >= w_i/open_i (per-job caps) and, per interval,
    // v >= |I_j| · Σ_{alive, open} (w_i/open_i) / c_j (capacity caps).
    let mut hi = {
        let open: Vec<f64> = (0..n).map(|i| wap.open_time_of(i)).collect();
        if let Some(i) = (0..n).find(|&i| open[i] <= 0.0 || open[i].is_nan()) {
            return Err(SolveError::Precondition {
                algorithm: "bal",
                message: format!("job {} has no open capacity at all", instance.job(i).id),
            });
        }
        let mut v = (0..n)
            .map(|i| instance.job(i).work / open[i])
            .fold(0.0f64, f64::max);
        for j in 0..intervals.len() {
            if wap.capacity(j) <= 0.0 {
                continue;
            }
            let dens: f64 = intervals
                .alive(j)
                .iter()
                .map(|&i| instance.job(i).work / open[i])
                .sum();
            v = v.max(intervals.length(j) * dens / wap.capacity(j));
        }
        v * (1.0 + 1e-12)
    };
    if !hi.is_finite() {
        return Err(SolveError::Numeric {
            message: format!("initial speed upper bound is not finite ({hi})"),
        });
    }
    let mut budget_exhausted = None;

    while !remaining.is_empty() {
        let _round_span = ssp_probe::span("bal.round");
        ssp_probe::counter!("bal.rounds");
        // Effective densities: job work over its still-open time.
        let mut lo: f64 = 0.0;
        for &i in &remaining {
            let open = wap.open_time_of(i);
            if open <= 0.0 || open.is_nan() {
                return Err(SolveError::Numeric {
                    message: format!(
                        "job {} has no open intervals left — BAL invariant broken",
                        instance.job(i).id
                    ),
                });
            }
            lo = lo.max(instance.job(i).work / open);
        }

        // Build the feasibility network once for this round; every probe
        // below sets new demands on its source edges and warm-starts the
        // max flow from the previous one. Interval capacities change only
        // *between* rounds, so a fresh solver per round both stays exact
        // and resets any accumulated floating-point drift.
        let mut solver = wap.solver();
        let mut pbuf = vec![0.0; n];
        let mut probe_log: Vec<(f64, bool)> = Vec::new();

        // The previous round's speed should be feasible; tolerate boundary
        // noise by nudging upward a few times before growing aggressively.
        // Budget exhaustion cannot abort this loop — without a feasible
        // upper bound there is no best-so-far answer to salvage — but the
        // loop is bounded by the guard either way.
        let mut guard = 0;
        while {
            meter.tick();
            flow_computations += 1;
            let ok = probe_on(instance, &remaining, &mut solver, &mut pbuf, hi);
            probe_log.push((hi, ok));
            !ok
        } {
            hi *= if guard < 4 { 1.0 + 1e-9 } else { 2.0 };
            guard += 1;
            if guard >= 80 {
                return Err(SolveError::Numeric {
                    message: format!(
                        "could not re-establish a feasible upper bound (reached {hi})"
                    ),
                });
            }
        }
        if lo > hi {
            lo = hi; // effective density can slightly exceed hi by tolerance
        }

        // Out of budget: fix everything still open at the known-feasible
        // uniform speed `hi` and stop peeling.
        if meter.exhausted().is_some() {
            fix_remaining_at(
                instance,
                &wap,
                hi,
                &remaining,
                &mut speeds,
                &mut allotments,
                &mut flow_computations,
            )?;
            rounds.push(BalRound {
                speed: hi,
                jobs: remaining.clone(),
                saturated: Vec::new(),
                probes: probe_log,
            });
            budget_exhausted = meter.exhausted();
            break;
        }

        // Locate the critical speed. Either driver ticks the meter once per
        // feasibility probe, so the meter delta is the probe count.
        let meter_before = meter.used();
        let searched = {
            let _bisect_span = ssp_probe::span("bal.bisect");
            match strategy {
                ProbeStrategy::Ladder => ladder_search(
                    instance,
                    &remaining,
                    &mut solver,
                    &mut pbuf,
                    lo,
                    hi,
                    &mut meter,
                    &mut flow_computations,
                    &mut probe_log,
                ),
                ProbeStrategy::Bisection => {
                    bisect_threshold_budgeted(lo, hi, BINARY_SEARCH_REL_WIDTH, &mut meter, |v| {
                        flow_computations += 1;
                        let ok = probe_on(instance, &remaining, &mut solver, &mut pbuf, v);
                        probe_log.push((v, ok));
                        ok
                    })
                    .map(|(_, v_hi)| v_hi)
                }
            }
        };
        ssp_probe::counter!("bal.bisect_steps", meter.used() - meter_before);
        ssp_probe::histogram!("bal.bisect.probes", meter.used() - meter_before);
        let v_crit = searched?;
        if meter.exhausted().is_some() {
            // Truncated search: `v_crit` is the feasible end of the bracket.
            fix_remaining_at(
                instance,
                &wap,
                v_crit,
                &remaining,
                &mut speeds,
                &mut allotments,
                &mut flow_computations,
            )?;
            rounds.push(BalRound {
                speed: v_crit,
                jobs: remaining.clone(),
                saturated: Vec::new(),
                probes: probe_log,
            });
            budget_exhausted = meter.exhausted();
            break;
        }
        // Probe strictly below the critical speed for the cut structure. The
        // offset must (a) stay above the *next* critical speed — guaranteed
        // because the bisection bracketed v* within 1e-12 relative — and
        // (b) make the shortfall per overloaded job large compared to the
        // flow engine's epsilon, hence the much coarser 1e-9.
        let probe = v_crit * (1.0 - 1e-9);

        // The classification probe reuses the round's warm solver: the
        // canonical min cut is a property of the network, not of which max
        // flow certifies it, so warm and cold probes classify identically.
        flow_computations += 1;
        for &i in &remaining {
            pbuf[i] = instance.job(i).work / probe;
        }
        solver.solve(&pbuf);
        let (job_side, ival_side) = solver.cut_sides();

        let mut critical: Vec<usize> = remaining.iter().copied().filter(|&i| job_side[i]).collect();
        if critical.is_empty() {
            // Numerical fallback: the effective-density argmax is certainly
            // critical when the cut degenerates. Keeps progress guaranteed.
            debug_assert!(false, "empty critical set — cut degenerated numerically");
            let &fallback = remaining
                .iter()
                .max_by(|&&a, &&b| {
                    let da = instance.job(a).work / wap.open_time_of(a);
                    let db = instance.job(b).work / wap.open_time_of(b);
                    da.total_cmp(&db)
                })
                .unwrap();
            critical.push(fallback);
        }
        let saturated: Vec<usize> = (0..intervals.len())
            .filter(|&j| wap.capacity(j) > 0.0 && ival_side[j])
            .collect();
        let saturated_set: Vec<bool> = {
            let mut v = vec![false; intervals.len()];
            for &j in &saturated {
                v[j] = true;
            }
            v
        };

        // Structured allotment for the critical jobs: fill non-saturated
        // open span intervals entirely; route the residue into saturated
        // intervals with a small dedicated flow.
        let mut residues: Vec<f64> = Vec::with_capacity(critical.len());
        for &i in &critical {
            let demand = instance.job(i).work / v_crit;
            let mut need = demand;
            let open: Vec<usize> = wap.open_intervals_of(i).collect();
            for &j in open.iter().filter(|&&j| !saturated_set[j]) {
                let t = need.min(intervals.length(j));
                if t > 0.0 {
                    allotments[i].push((j, t));
                    need -= t;
                }
            }
            // Sub-tolerance slivers are probe-offset noise, not real demand
            // (threshold = 10x the probe offset).
            residues.push(if need <= 1e-8 * demand { 0.0 } else { need });
        }
        let demand_scale: f64 = critical
            .iter()
            .map(|&i| instance.job(i).work / v_crit)
            .sum();
        route_residues(
            &critical,
            &residues,
            &saturated,
            &wap,
            &intervals,
            v_crit,
            demand_scale,
            &mut allotments,
            &mut flow_computations,
        )?;
        // The probe's 1e-9 offset makes the cut classification exact only up
        // to that scale; over many jobs the routed totals can fall short of
        // the demands by ~1e-7 relative. Normalize each critical job's
        // allotment to its exact demand (energy-irrelevant; downstream
        // tolerances absorb the matching per-interval overshoot).
        // Allotments are *times*, so the flow engine's absolute noise scales
        // with the interval lengths, not with the demands. When a
        // near-zero-width window drives v_crit so high that every demand is
        // below that noise floor (e.g. ~1e-14 against intervals of length
        // ~1), the relative check alone is unsatisfiable; anchor an absolute
        // slack on the decomposition's total length.
        let horizon: f64 = (0..intervals.len()).map(|j| intervals.length(j)).sum();
        for &i in &critical {
            let need = instance.job(i).work / v_crit;
            let got: f64 = allotments[i].iter().map(|&(_, t)| t).sum();
            // NaN discrepancies must fail, so the comparison stays affirmative.
            let within_tolerance = (got - need).abs() <= 1e-5 * need + 1e-9 * horizon;
            if !within_tolerance {
                return Err(SolveError::Numeric {
                    message: format!(
                        "allotment of job {} off by more than tolerance: {got} vs {need}",
                        instance.job(i).id
                    ),
                });
            }
            if got > 0.0 && got != need {
                let factor = need / got;
                for entry in &mut allotments[i] {
                    // Clamp at the interval length: the scaling may push a
                    // full interval over by ~1e-7 relative to the *demand*,
                    // which can exceed per-interval tolerances on short
                    // intervals. The clamped sliver is noise-sized and stays
                    // far below the conservation tolerance.
                    entry.1 = (entry.1 * factor).min(intervals.length(entry.0));
                }
            }
        }

        // Capacity updates: zero saturated intervals; one processor per
        // critical job elsewhere.
        for &j in &saturated {
            wap.set_capacity(j, 0.0);
        }
        for &i in &critical {
            for j in intervals.intervals_of(i).to_vec() {
                if wap.capacity(j) > 0.0 && !saturated_set[j] {
                    let c = wap.capacity(j) - intervals.length(j);
                    debug_assert!(
                        c >= -1e-6 * intervals.length(j),
                        "critical job filled interval {j} lacking a full machine: \
                         capacity {} vs length {}",
                        wap.capacity(j),
                        intervals.length(j)
                    );
                    wap.set_capacity(j, c.max(0.0));
                }
            }
        }

        for &i in &critical {
            speeds[i] = v_crit;
        }
        ssp_probe::counter!("bal.critical_jobs", critical.len() as u64);
        ssp_probe::counter!("bal.saturated_intervals", saturated.len() as u64);
        remaining.retain(|i| !critical.contains(i));
        rounds.push(BalRound {
            speed: v_crit,
            jobs: critical,
            saturated,
            probes: probe_log,
        });
        hi = v_crit;
    }

    ssp_probe::counter!("bal.flow_calls", flow_computations as u64);
    if budget_exhausted.is_some() {
        ssp_probe::counter!("bal.budget_exhausted");
    }
    let assignment = SpeedAssignment::new(speeds);
    let energy = assignment.energy(instance);
    Ok(BalSolution {
        speeds: assignment,
        energy,
        rounds,
        allotments,
        intervals,
        flow_computations,
        budget_exhausted,
    })
}

/// One warm feasibility probe at uniform speed `v` on `solver` (demands
/// `w_i / v` for the remaining jobs, 0 elsewhere).
fn probe_on(
    instance: &Instance,
    remaining: &[usize],
    solver: &mut WapSolver,
    pbuf: &mut [f64],
    v: f64,
) -> bool {
    for &i in remaining {
        pbuf[i] = instance.job(i).work / v;
    }
    solver.solve(pbuf);
    solver.feasible()
}

/// The cut-guided probe ladder: locate the round's critical speed inside
/// `(lo, hi]` (with `hi` already probed feasible on `base`).
///
/// Every step picks one candidate speed from the current bracket and cut
/// state alone and probes it on the warm `base` solver in place:
///
/// * when `base` holds an infeasible solve, the discrete-Newton bound
///   [`WapSolver::cut_speed_bound`] of its cut (a certified lower bound on
///   the critical speed, strictly above the state's own speed); a bound
///   within the closing tolerance of `hi` ends the search without a probe;
/// * when it holds none (before the first probe, or after a feasible one),
///   the bracket's low end — at first the density lower bound, which on
///   peel rounds often *is* the critical speed;
/// * otherwise a geometric splitter toward `hi`, or the midpoint when the
///   splitter is not strictly inside the bracket, which bounds the step
///   count even when the Newton bound stalls.
///
/// A feasible probe lowers `hi`; an infeasible one raises `lo`, and its cut
/// feeds the next Newton step. The ladder terminates when the bracket
/// closes below [`BINARY_SEARCH_REL_WIDTH`] or when the Newton bound
/// certifies `hi` itself; on budget exhaustion it returns the best feasible
/// speed so far with `meter.exhausted()` set, the same salvage contract as
/// [`bisect_threshold_budgeted`]. `base` is left holding the last probe's
/// solve, from which the caller's classification probe warm-starts.
#[allow(clippy::too_many_arguments)]
fn ladder_search(
    instance: &Instance,
    remaining: &[usize],
    base: &mut WapSolver,
    pbuf: &mut [f64],
    lo: f64,
    hi: f64,
    meter: &mut Meter,
    flow_computations: &mut usize,
    probe_log: &mut Vec<(f64, bool)>,
) -> Result<f64, SolveError> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(SolveError::Numeric {
            message: format!("ladder bracket [{lo}, {hi}] is not a finite interval"),
        });
    }
    let rel = BINARY_SEARCH_REL_WIDTH;
    let mut v_lo = lo;
    let mut v_hi = hi;
    // Does `base` hold an infeasible solve whose cut is worth reading?
    let mut base_infeasible = false;
    let mut works = vec![0.0f64; instance.len()];
    for &i in remaining {
        works[i] = instance.job(i).work;
    }

    // Each step either returns or strictly shrinks the bracket (the
    // geometric splitter alone closes it in O(log log-ratio / rel) steps),
    // so this bound is a pure backstop.
    for _ in 0..10_000 {
        if v_hi - v_lo <= rel * v_hi.abs().max(1e-300) {
            return Ok(v_hi);
        }
        let newton = if base_infeasible {
            base.cut_speed_bound(&works)
        } else {
            None
        };
        let v = match newton {
            // The cut certifies critical speed >= vn ≈ v_hi, and v_hi is
            // already probed feasible: converged without a probe.
            Some(vn) if vn >= v_hi * (1.0 - rel) => return Ok(v_hi),
            Some(vn) if vn > v_lo => vn,
            // Opening probe: the density lower bound alone. On peel rounds
            // where the previous critical job pinned the speed it *is* the
            // critical speed, ending the round in a single probe (mirroring
            // bisection's early exit); when it is infeasible instead, its
            // cut seeds the Newton steps.
            _ if !base_infeasible && v_lo > 0.0 => v_lo,
            // Infeasible base but no usable cut bound: split the bracket so
            // it still shrinks.
            _ => {
                let g = (v_lo * v_hi).sqrt();
                let mid = 0.5 * (v_lo + v_hi);
                if g.is_finite() && g > v_lo && g < v_hi {
                    g
                } else if mid > v_lo && mid < v_hi {
                    mid
                } else {
                    return Ok(v_hi); // f64 exhausted
                }
            }
        };
        if !meter.tick() {
            return Ok(v_hi); // exhausted: salvage the feasible end
        }
        *flow_computations += 1;
        let ok = probe_on(instance, remaining, base, pbuf, v);
        probe_log.push((v, ok));
        if ok {
            v_hi = v_hi.min(v);
        } else if v >= v_lo {
            // `>=`: an infeasible probe at exactly `v_lo` (the density
            // bound) does not move the bracket but its cut seeds the
            // Newton steps.
            v_lo = v;
        }
        // A feasible probe overwrote the base; its residual cut no longer
        // certifies anything.
        base_infeasible = !ok;
        if v_lo > v_hi || meter.exhausted().is_some() {
            // Tolerance fringe (an infeasible probe above a feasible one:
            // both sit within the feasibility tolerance of the true
            // critical speed) or an exhausted budget: the feasible end is
            // the answer.
            return Ok(v_hi);
        }
    }
    Err(SolveError::Numeric {
        message: "probe ladder failed to converge".to_string(),
    })
}

/// Budget-exhaustion fallback: fix every job in `remaining` at the
/// known-feasible uniform speed `v`, reading the per-interval allotments
/// back from one last feasibility flow. The result is a valid schedule for
/// those jobs (merely suboptimal).
fn fix_remaining_at(
    instance: &Instance,
    wap: &Wap,
    v: f64,
    remaining: &[usize],
    speeds: &mut [f64],
    allotments: &mut [Vec<(usize, f64)>],
    flow_computations: &mut usize,
) -> Result<(), SolveError> {
    let mut p = vec![0.0; instance.len()];
    for &i in remaining {
        p[i] = instance.job(i).work / v;
    }
    *flow_computations += 1;
    let flow = wap.solve(&p);
    if !flow.feasible() {
        return Err(SolveError::Numeric {
            message: format!("budget fallback speed {v} unexpectedly infeasible"),
        });
    }
    for &i in remaining {
        speeds[i] = v;
        let mut entries = flow.allotment(i);
        // Normalize engine-epsilon shortfalls to the exact demand.
        let got: f64 = entries.iter().map(|&(_, t)| t).sum();
        if got > 0.0 && got != p[i] {
            let factor = p[i] / got;
            for e in &mut entries {
                e.1 *= factor;
            }
        }
        allotments[i] = entries;
    }
    Ok(())
}

/// Route the critical jobs' residual demands into the saturated intervals
/// (a bipartite max-flow). Feasible by the structure theorem up to the
/// probe-offset noise; shortfalls beyond the jobs' *total* demand scale are
/// a numeric failure (smaller ones are repaired by the per-job
/// normalization in `bal`).
#[allow(clippy::too_many_arguments)]
fn route_residues(
    critical: &[usize],
    residues: &[f64],
    saturated: &[usize],
    wap: &Wap,
    intervals: &IntervalSet,
    v_crit: f64,
    demand_scale: f64,
    allotments: &mut [Vec<(usize, f64)>],
    flow_computations: &mut usize,
) -> Result<(), SolveError> {
    let total_residue: f64 = residues.iter().sum();
    if total_residue <= 0.0 {
        return Ok(());
    }
    let k = critical.len();
    let l = saturated.len();
    // Node layout: 0 source, 1..=k criticals, k+1..=k+l intervals, k+l+1 sink.
    let mut net = FlowNetwork::new(k + l + 2);
    let ival_pos: std::collections::HashMap<usize, usize> = saturated
        .iter()
        .enumerate()
        .map(|(pos, &j)| (j, pos))
        .collect();
    let mut edge_of: Vec<Vec<(usize, ssp_maxflow::EdgeId)>> = vec![Vec::new(); k];
    for (c, (&i, &res)) in critical.iter().zip(residues).enumerate() {
        net.add_edge(0, 1 + c, res);
        for j in wap.open_intervals_of(i) {
            if let Some(&pos) = ival_pos.get(&j) {
                let e = net.add_edge(1 + c, 1 + k + pos, intervals.length(j));
                edge_of[c].push((j, e));
            }
        }
    }
    for (pos, &j) in saturated.iter().enumerate() {
        net.add_edge(1 + k + pos, k + l + 1, wap.capacity(j));
    }
    *flow_computations += 1;
    let routed = net.max_flow(0, k + l + 1);
    // Scale the shortfall tolerance by the critical jobs' total demand: the
    // residues themselves can be arbitrarily small, but the probe-offset
    // noise they inherit is proportional to the demands.
    let routed_enough = routed >= total_residue - 1e-5 * demand_scale - 1e-12;
    if !routed_enough {
        return Err(SolveError::Numeric {
            message: format!(
                "residue routing incomplete: {routed} of {total_residue} at speed {v_crit}"
            ),
        });
    }
    for (c, &i) in critical.iter().enumerate() {
        for &(j, e) in &edge_of[c] {
            let t = net.flow(e);
            if t > 0.0 {
                allotments[i].push((j, t));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{Instance, Job};
    use ssp_single::yds::yds;

    fn inst(jobs: Vec<Job>, m: usize, alpha: f64) -> Instance {
        Instance::new(jobs, m, alpha).unwrap()
    }

    #[test]
    fn empty_instance() {
        let sol = bal(&inst(vec![], 3, 2.0));
        assert_eq!(sol.energy, 0.0);
        assert!(sol.rounds.is_empty());
    }

    #[test]
    fn single_job_runs_at_density() {
        let sol = bal(&inst(vec![Job::new(0, 3.0, 1.0, 4.0)], 2, 2.0));
        assert!((sol.speeds.get(0) - 1.0).abs() < 1e-9);
        assert!((sol.energy - 3.0).abs() < 1e-9);
    }

    #[test]
    fn m1_equals_yds_on_small_cases() {
        let cases: Vec<Vec<Job>> = vec![
            vec![Job::new(0, 2.0, 0.0, 4.0), Job::new(1, 2.0, 1.0, 2.0)],
            vec![
                Job::new(0, 1.0, 0.0, 2.0),
                Job::new(1, 1.5, 0.5, 2.5),
                Job::new(2, 0.5, 1.0, 4.0),
            ],
            vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 1.0)],
        ];
        for jobs in cases {
            for alpha in [1.5, 2.0, 3.0] {
                let e_yds = yds(&jobs, alpha).energy;
                let e_bal = bal(&inst(jobs.clone(), 1, alpha)).energy;
                assert!(
                    (e_yds - e_bal).abs() <= 1e-6 * e_yds.max(1.0),
                    "m=1 mismatch: yds {e_yds} vs bal {e_bal} (alpha {alpha})"
                );
            }
        }
    }

    #[test]
    fn common_window_closed_form() {
        // n equal jobs (w, window [0,T]) on m machines:
        // uniform speed max(w/T, n*w/(m*T)).
        for (n, m, w, t) in [
            (3usize, 2usize, 2.0, 4.0),
            (5, 2, 1.0, 2.0),
            (2, 4, 3.0, 3.0),
        ] {
            let jobs: Vec<Job> = (0..n).map(|i| Job::new(i as u32, w, 0.0, t)).collect();
            let alpha = 2.5;
            let sol = bal(&inst(jobs, m, alpha));
            let expect_speed = (w / t).max(n as f64 * w / (m as f64 * t));
            for i in 0..n {
                assert!(
                    (sol.speeds.get(i) - expect_speed).abs() < 1e-8,
                    "speed {} vs {}",
                    sol.speeds.get(i),
                    expect_speed
                );
            }
            let expect_energy = n as f64 * w * expect_speed.powf(alpha - 1.0);
            assert!((sol.energy - expect_energy).abs() < 1e-6 * expect_energy);
        }
    }

    #[test]
    fn two_rounds_with_distinct_speeds() {
        // A tight job forces a high critical speed; a loose one settles lower.
        let jobs = vec![Job::new(0, 4.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 10.0)];
        let sol = bal(&inst(jobs, 2, 2.0));
        assert_eq!(sol.rounds.len(), 2);
        assert!((sol.speeds.get(0) - 4.0).abs() < 1e-8);
        assert!((sol.speeds.get(1) - 0.1).abs() < 1e-8);
        assert!(sol.rounds[0].speed > sol.rounds[1].speed);
    }

    #[test]
    fn schedule_materializes_and_validates() {
        let jobs = vec![
            Job::new(0, 3.0, 0.0, 2.0),
            Job::new(1, 2.0, 0.0, 3.0),
            Job::new(2, 2.0, 1.0, 4.0),
            Job::new(3, 1.0, 2.0, 5.0),
            Job::new(4, 4.0, 0.0, 5.0),
        ];
        let instance = inst(jobs, 2, 2.0);
        let sol = bal(&instance);
        let schedule = sol.schedule(&instance);
        let stats = schedule.validate(&instance, Default::default()).unwrap();
        assert!(
            (stats.energy - sol.energy).abs() <= 1e-6 * sol.energy,
            "schedule energy {} vs objective {}",
            stats.energy,
            sol.energy
        );
    }

    #[test]
    fn more_machines_never_increase_energy() {
        let jobs = vec![
            Job::new(0, 2.0, 0.0, 2.0),
            Job::new(1, 2.0, 0.0, 2.0),
            Job::new(2, 2.0, 0.5, 3.0),
            Job::new(3, 1.0, 1.0, 4.0),
        ];
        let mut prev = f64::INFINITY;
        for m in 1..=4 {
            let e = bal(&inst(jobs.clone(), m, 2.3)).energy;
            assert!(e <= prev * (1.0 + 1e-9), "m={m}: {e} > previous {prev}");
            prev = e;
        }
    }

    #[test]
    fn saturation_structure_is_reported() {
        // Two machines fully saturated by four tight jobs.
        let jobs = vec![
            Job::new(0, 2.0, 0.0, 1.0),
            Job::new(1, 2.0, 0.0, 1.0),
            Job::new(2, 2.0, 0.0, 1.0),
            Job::new(3, 2.0, 0.0, 1.0),
        ];
        let instance = inst(jobs, 2, 2.0);
        let sol = bal(&instance);
        // Everyone at speed 4 (total work 8 over 2 processor-units of time).
        for i in 0..4 {
            assert!((sol.speeds.get(i) - 4.0).abs() < 1e-8);
        }
        assert_eq!(sol.rounds.len(), 1);
    }

    #[test]
    fn flow_computation_count_is_reported() {
        let jobs = vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 4.0)];
        let sol = bal(&inst(jobs, 1, 2.0));
        assert!(sol.flow_computations > 0);
    }

    #[test]
    fn unlimited_budget_matches_plain_bal() {
        let jobs = vec![
            Job::new(0, 3.0, 0.0, 2.0),
            Job::new(1, 2.0, 0.0, 3.0),
            Job::new(2, 2.0, 1.0, 4.0),
            Job::new(3, 1.0, 2.0, 5.0),
        ];
        let instance = inst(jobs, 2, 2.0);
        let plain = bal(&instance);
        let budgeted = try_bal(&instance, Budget::unlimited()).unwrap();
        assert_eq!(budgeted.budget_exhausted, None);
        assert!((budgeted.energy - plain.energy).abs() <= 1e-9 * plain.energy);
    }

    #[test]
    fn exhausted_budget_still_yields_a_valid_schedule() {
        // Spread windows force several peeling rounds; a tiny iteration
        // budget cannot finish them.
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                Job::new(
                    i,
                    1.0 + i as f64 * 0.5,
                    i as f64 * 0.3,
                    i as f64 * 0.3 + 1.0 + i as f64,
                )
            })
            .collect();
        let instance = inst(jobs, 2, 2.0);
        let optimal = bal(&instance).energy;
        let sol = try_bal(&instance, Budget::iterations(2)).unwrap();
        assert_eq!(sol.budget_exhausted, Some("iterations"));
        // Valid: the explicit schedule passes the full validator.
        let schedule = sol.schedule(&instance);
        let stats = schedule.validate(&instance, Default::default()).unwrap();
        assert!((stats.energy - sol.energy).abs() <= 1e-6 * sol.energy);
        // Suboptimal but bounded below by the optimum.
        assert!(
            sol.energy >= optimal * (1.0 - 1e-9),
            "capped run beat the optimum"
        );
    }

    #[test]
    fn generous_iteration_budget_reaches_the_optimum() {
        let jobs = vec![Job::new(0, 4.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 10.0)];
        let instance = inst(jobs, 2, 2.0);
        let sol = try_bal(&instance, Budget::iterations(100_000)).unwrap();
        assert_eq!(sol.budget_exhausted, None);
        assert!((sol.energy - bal(&instance).energy).abs() <= 1e-9);
    }
}
