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
//!    job occupies that interval **entirely**. The probe ladder usually
//!    already holds that cut, or a flow that determines it, when its search
//!    ends; otherwise one more max flow just below `v*` reads it off.
//! 3. Fix the critical jobs at speed `v*` and read their allotments off a
//!    feasible maximum flow at `v*`. The cut is tight there, so every such
//!    flow fills each critical job's open non-saturated intervals and packs
//!    the rest of its demand into the saturated intervals, which no other
//!    job uses. A ladder round that ends on its Newton bound or its density
//!    opener already holds that flow; every other round solves once more at
//!    `v*`. Then zero the saturated intervals' capacities, subtract one
//!    processor (`|I_j|`) per critical job from the others, and recurse on
//!    the remaining jobs.
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
    /// (speed, feasible) in execution order. The round's upper end, the
    /// previous round's speed, is probed only where it must be: bisection
    /// opens with the probes that establish it feasible, while the ladder
    /// probes it only if the round ends on it, so a ladder round that
    /// settles below it never probes it. The transcript is a
    /// pure function of the instance and the [`ProbeStrategy`]: every probe
    /// runs on the calling thread, so `SSP_THREADS` cannot reach it (the
    /// differential wall replays it under pinned widths to keep it so).
    pub probes: Vec<(f64, bool)>,
}

/// How each round locates its critical speed between the density lower
/// bound and the previous round's speed (feasible up to boundary noise).
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
    /// `"deadline"`). The solution is then still *valid* — the jobs not yet
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
/// of a panic, and `budget` caps the number of max-flow feasibility probes
/// and sets their deadline. On budget exhaustion the not-yet-peeled jobs are fixed
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
    let horizon: f64 = (0..intervals.len()).map(|j| intervals.length(j)).sum();
    // One feasibility solver for the whole solve. Interval capacities
    // change only between rounds, and each later round re-parameterizes the
    // solver to them in place: every probe below sets new demands on it and
    // warm-starts from the previous one, the round's first decline restarts
    // the Dinic engine from the sweep's greedy flow, and nothing a round
    // computed carries into the next, so every answer is bit for bit what a
    // fresh solver per round gives.
    let mut solver = wap.solver();

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

        if !rounds.is_empty() {
            solver.reparameterize(&wap);
        }
        let mut pbuf = vec![0.0; n];
        let mut probe_log: Vec<(f64, bool)> = Vec::new();
        let mut prober = Prober {
            instance,
            remaining: &remaining,
            solver: &mut solver,
            pbuf: &mut pbuf,
            flow_computations: &mut flow_computations,
            log: &mut probe_log,
        };

        // `hi`, the previous round's speed, is feasible up to boundary
        // noise but not yet probed on this round's network. Bisection needs
        // it probed feasible before its first step; the ladder probes it
        // only if it would end the round on it.
        if strategy == ProbeStrategy::Bisection {
            let mut upper = UpperEnd::new(hi);
            while !upper.verify(&mut prober, &mut meter)? {}
            hi = upper.v;
        }
        if lo > hi {
            lo = hi; // effective density can slightly exceed hi by tolerance
        }

        // Locate the critical speed. Either driver ticks the meter once per
        // feasibility probe, so the meter delta is the probe count.
        let meter_before = meter.used();
        let searched = {
            let _bisect_span = ssp_probe::span("bal.bisect");
            match strategy {
                ProbeStrategy::Ladder => ladder_search(&mut prober, lo, hi, &mut meter),
                // Out of budget already: salvage the established upper end
                // (bisection would probe both ends whatever the budget).
                ProbeStrategy::Bisection if meter.exhausted().is_some() => Ok((hi, Settled::Other)),
                ProbeStrategy::Bisection => {
                    bisect_threshold_budgeted(lo, hi, BINARY_SEARCH_REL_WIDTH, &mut meter, |v| {
                        prober.probe(v)
                    })
                    .map(|(_, v_hi)| (v_hi, Settled::Other))
                }
            }
        };
        ssp_probe::counter!("bal.bisect_steps", meter.used() - meter_before);
        ssp_probe::histogram!("bal.bisect.probes", meter.used() - meter_before);
        let (v_crit, settled) = searched?;
        if meter.exhausted().is_some() {
            // Out of budget: fix everything still open at `v_crit`, the
            // feasible end of the bracket, and stop peeling.
            if prober.log.last() != Some(&(v_crit, true)) {
                ssp_probe::counter!("bal.readback_solves");
                prober.solve(v_crit);
            }
            read_allotments(
                instance,
                prober.solver,
                v_crit,
                &remaining,
                &intervals,
                horizon,
                &mut allotments,
            )?;
            for &i in &remaining {
                speeds[i] = v_crit;
            }
            rounds.push(BalRound {
                speed: v_crit,
                jobs: remaining.clone(),
                saturated: Vec::new(),
                probes: probe_log,
            });
            budget_exhausted = meter.exhausted();
            break;
        }
        let (critical, saturated) = match settled.classify(prober.solver, &wap, &remaining) {
            Some(sets) => sets,
            None => {
                // Probe strictly below the critical speed for the cut
                // structure. The offset must (a) stay above the *next*
                // critical speed — guaranteed because the search bracketed
                // v* within 1e-12 relative — and (b) make the shortfall per
                // overloaded job large compared to the flow engine's
                // epsilon, hence the much coarser 1e-9.
                let probe = v_crit * (1.0 - 1e-9);

                // The classification probe reuses the round's warm solver:
                // the canonical min cut is a property of the network, not of
                // which max flow certifies it, so warm and cold probes
                // classify identically.
                ssp_probe::counter!("bal.classify_probes");
                prober.solve(probe);
                let (job_side, ival_side) = prober.solver.cut_sides();

                let mut critical: Vec<usize> =
                    remaining.iter().copied().filter(|&i| job_side[i]).collect();
                if critical.is_empty() {
                    // Numerical fallback: the effective-density argmax is
                    // certainly critical when the cut degenerates (a
                    // subnormal `v_crit` has too few bits for `probe` to fall
                    // below it, so the probe is feasible). Keeps progress
                    // guaranteed.
                    ssp_probe::counter!("bal.degenerate_cuts");
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
                // The probe replaced the flow at `v_crit` that the round's
                // allotments are read from: solve there once more.
                ssp_probe::counter!("bal.readback_solves");
                prober.solve(v_crit);
                (critical, open_cut_intervals(&wap, &ival_side))
            }
        };
        let saturated_set: Vec<bool> = {
            let mut v = vec![false; intervals.len()];
            for &j in &saturated {
                v[j] = true;
            }
            v
        };
        read_allotments(
            instance,
            prober.solver,
            v_crit,
            &critical,
            &intervals,
            horizon,
            &mut allotments,
        )?;

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

/// One round's feasibility probes: each solves the round's warm WAP at one
/// uniform speed (demands `w_i / v` for the remaining jobs, 0 elsewhere),
/// counts one max-flow computation and joins the round's transcript.
struct Prober<'a> {
    instance: &'a Instance,
    remaining: &'a [usize],
    solver: &'a mut WapSolver,
    pbuf: &'a mut [f64],
    flow_computations: &'a mut usize,
    log: &'a mut Vec<(f64, bool)>,
}

impl Prober<'_> {
    /// Solve at uniform speed `v`, one counted max-flow computation outside
    /// the transcript: the classification probe and the allotment readback.
    fn solve(&mut self, v: f64) {
        *self.flow_computations += 1;
        for &i in self.remaining {
            self.pbuf[i] = self.instance.job(i).work / v;
        }
        self.solver.solve(self.pbuf);
    }

    /// Probe uniform speed `v`; `true` when it is feasible.
    fn probe(&mut self, v: f64) -> bool {
        self.solve(v);
        let ok = self.solver.feasible();
        self.log.push((v, ok));
        ok
    }
}

/// How a round's speed search settled, which decides how the round
/// classifies its jobs. The classification is the minimal minimum cut just
/// below the critical speed `v*`: its jobs are the *maximal tight set*, the
/// largest set `S` whose cut `W_S/F_S` reaches `v*` (a cut at speed `v` has
/// capacity `Σ_{i∉S} w_i/v + F_S`, so `S` is tight when `W_S/F_S = v*`),
/// and its intervals are the open `j` with `c_j < k_j·min(|I_j|, c_j)`,
/// `k_j` the critical jobs alive in `j` (the cheaper side of each interval
/// once the job side is fixed).
enum Settled {
    /// The last probe was feasible at exactly (bit for bit) the kept Newton
    /// bound `W_S/F_S` of the last infeasible cut, whose job and interval
    /// sides are kept here. That cut is the classification: min cuts nest
    /// in the speed, so the cut at an infeasible `v_lo < v*` contains the
    /// critical set, and its ratio is `v*`, so it is tight and lies inside
    /// the maximal tight set.
    Newton(Vec<bool>, Vec<bool>),
    /// The round's only probe was the feasible density opener `lo`, below
    /// the round's upper end. `lo` bounds `v*` from below, so the opener's
    /// flow is a maximum flow at `v*` that meets every demand. The jobs
    /// that cannot reach the sink in its residual are the source side of
    /// the maximal minimum cut there: the maximal tight set.
    Opener,
    /// Any other ending, and every bisection round: classify from one more
    /// max flow just below `v*`, then solve once more at `v*` for the
    /// allotments.
    Other,
}

impl Settled {
    /// The round's critical jobs and saturated intervals, read off the
    /// kept cut or the solver's last flow; `None` for [`Settled::Other`]
    /// and when the rule finds no critical job, which leaves the round to
    /// its classification probe.
    fn classify(
        self,
        solver: &WapSolver,
        wap: &Wap,
        remaining: &[usize],
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let (critical, saturated) = match self {
            Settled::Newton(jobs, cells) => {
                let critical: Vec<usize> = remaining.iter().copied().filter(|&i| jobs[i]).collect();
                (critical, open_cut_intervals(wap, &cells))
            }
            Settled::Opener => {
                let reach = solver.sink_reaching_jobs();
                let critical: Vec<usize> =
                    remaining.iter().copied().filter(|&i| !reach[i]).collect();
                // `alive[j]` steps by the critical windows opening and
                // closing at `j`; its running sum is `k_j`.
                let mut alive = vec![0i64; wap.num_intervals() + 1];
                for &i in &critical {
                    if let Some((lo, hi)) = wap.window_of(i) {
                        alive[lo] += 1;
                        alive[hi + 1] -= 1;
                    }
                }
                let mut saturated = Vec::new();
                let mut k = 0;
                for (j, step) in alive.iter().take(wap.num_intervals()).enumerate() {
                    k += step;
                    let c = wap.capacity(j);
                    if c > 0.0 && c < k as f64 * wap.length(j).min(c) {
                        saturated.push(j);
                    }
                }
                (critical, saturated)
            }
            Settled::Other => return None,
        };
        (!critical.is_empty()).then_some((critical, saturated))
    }
}

/// The open intervals on a cut's source side: the ones a round saturates.
fn open_cut_intervals(wap: &Wap, cell_side: &[bool]) -> Vec<usize> {
    (0..wap.num_intervals())
        .filter(|&j| wap.capacity(j) > 0.0 && cell_side[j])
        .collect()
}

/// A round's upper end: the previous round's critical speed (the routing
/// bound in round 0) until a feasible probe replaces it. It is feasible up
/// to boundary noise, but interval capacities change between rounds, so
/// only a probe on this round's network proves it.
struct UpperEnd {
    v: f64,
    probed: bool,
    nudges: u32,
}

impl UpperEnd {
    fn new(v: f64) -> Self {
        UpperEnd {
            v,
            probed: false,
            nudges: 0,
        }
    }

    /// Prove `v` feasible before a search returns it: probe it unless a
    /// probe already has. The probe ticks the meter but ignores the budget —
    /// without a feasible upper end there is no best-so-far answer to
    /// salvage. `Ok(false)` means `v` was infeasible: its cut is on the
    /// solver, and `v` has moved up to tolerate the boundary noise, by
    /// ×(1 + 1e-9) for the first four nudges and ×2 after (the ladder then
    /// moves it on to at least that cut's Newton bound); the 80th nudge,
    /// or one that leaves no finite speed, is an error.
    fn verify(&mut self, prober: &mut Prober<'_>, meter: &mut Meter) -> Result<bool, SolveError> {
        if self.probed {
            return Ok(true);
        }
        meter.tick();
        if prober.probe(self.v) {
            self.probed = true;
            return Ok(true);
        }
        self.v *= if self.nudges < 4 { 1.0 + 1e-9 } else { 2.0 };
        self.nudges += 1;
        if self.nudges >= 80 || !self.v.is_finite() {
            return Err(SolveError::Numeric {
                message: format!(
                    "could not re-establish a feasible upper bound (reached {})",
                    self.v
                ),
            });
        }
        Ok(false)
    }
}

/// The cut-guided probe ladder: locate the round's critical speed inside
/// `(lo, hi]`, where `hi` is the round's unprobed [`UpperEnd`], and report
/// how the search [`Settled`].
///
/// Every step picks one candidate speed strictly below the upper end from
/// the current bracket and cut state alone, and probes it on the warm
/// solver in place:
///
/// * the discrete-Newton bound [`WapSolver::cut_speed_bound`] of the last
///   infeasible probe's cut (a certified lower bound on the critical speed,
///   strictly above that probe's speed); a bound within the closing
///   tolerance of the upper end ends the search there. The bound and the
///   cut's sides are kept across feasible probes, which overwrite the
///   solver but not what its cut proved, so the cut at `lo` is read once
///   and never probed again;
/// * before the first probe, the density lower bound `lo`, which on peel
///   rounds often *is* the critical speed;
/// * otherwise a geometric splitter toward the upper end, or the midpoint
///   when the splitter is not strictly inside the bracket, which bounds the
///   step count even when the Newton bound stalls.
///
/// A feasible probe replaces the upper end; an infeasible one raises `lo`,
/// and its cut feeds the next Newton steps. The ladder ends on the upper
/// end when the bracket closes below [`BINARY_SEARCH_REL_WIDTH`], when the
/// Newton bound certifies it, when f64 runs out of speeds between the
/// ends, or when the budget runs out (returning the feasible end with
/// `meter.exhausted()` set, the same salvage contract as
/// [`bisect_threshold_budgeted`]). Nearly every round finds a feasible
/// speed of its own below `hi`, so `hi` is probed only when the ladder ends
/// on it unreplaced ([`UpperEnd::verify`]); an infeasible verdict there
/// raises `lo`, feeds its cut to the Newton steps and moves the upper end
/// to at least that cut's Newton bound, and the search goes on. No speed
/// is probed twice. The solver is left holding the last probe's solve:
/// [`Settled::Opener`] classifies from it, and a [`Settled::Newton`] or
/// [`Settled::Opener`] round reads its allotments off it.
fn ladder_search(
    prober: &mut Prober<'_>,
    lo: f64,
    hi: f64,
    meter: &mut Meter,
) -> Result<(f64, Settled), SolveError> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(SolveError::Numeric {
            message: format!("ladder bracket [{lo}, {hi}] is not a finite interval"),
        });
    }
    let rel = BINARY_SEARCH_REL_WIDTH;
    let mut v_lo = lo;
    let mut upper = UpperEnd::new(hi);
    // The last infeasible probe's cut: its Newton bound (`None` when the
    // cut bounds nothing) and its job and interval sides; `None` before
    // the first infeasible probe.
    let mut cut: Option<(Option<f64>, Vec<bool>, Vec<bool>)> = None;
    let mut works = vec![0.0f64; prober.instance.len()];
    for &i in prober.remaining {
        works[i] = prober.instance.job(i).work;
    }

    // Each step either returns or strictly shrinks the bracket (the
    // geometric splitter alone closes it in O(log log-ratio / rel) steps),
    // so this bound is a pure backstop.
    for _ in 0..10_000 {
        let v_hi = upper.v;
        // The next speed to probe; `None` ends the search on the upper end.
        let next = if v_hi - v_lo <= rel * v_hi.abs().max(1e-300) {
            None
        } else {
            match cut {
                // The cut certifies critical speed >= vn ≈ v_hi: converged.
                Some((Some(vn), ..)) if vn >= v_hi * (1.0 - rel) => None,
                Some((Some(vn), ..)) if vn > v_lo => Some(vn),
                // Opening probe: the density lower bound alone. On peel
                // rounds where the previous critical job pinned the speed it
                // *is* the critical speed, ending the round in a single
                // probe (mirroring bisection's early exit); when it is
                // infeasible instead, its cut seeds the Newton steps.
                None if v_lo > 0.0 => Some(v_lo),
                // No usable cut bound: split the bracket so it still shrinks.
                _ => {
                    let g = (v_lo * v_hi).sqrt();
                    let mid = 0.5 * (v_lo + v_hi);
                    if g.is_finite() && g > v_lo && g < v_hi {
                        Some(g)
                    } else if mid > v_lo && mid < v_hi {
                        Some(mid)
                    } else {
                        None // f64 exhausted
                    }
                }
            }
        };
        let (infeasible, at_upper) = match next {
            Some(v) if meter.tick() => {
                if prober.probe(v) {
                    upper.v = v;
                    upper.probed = true;
                    continue;
                }
                (v, false)
            }
            // Ending on the upper end, or salvaging it once the budget is
            // gone: it must be feasible first.
            _ => {
                if upper.verify(prober, meter)? {
                    let last = prober.log.last().copied();
                    let settled = match cut {
                        Some((Some(vn), jobs, cells)) if last == Some((vn, true)) => {
                            Settled::Newton(jobs, cells)
                        }
                        // `lo < hi`: a density bound clamped to the upper
                        // end closes the bracket before any opener.
                        None if lo < hi && prober.log.as_slice() == [(lo, true)] => Settled::Opener,
                        _ => Settled::Other,
                    };
                    return Ok((upper.v, settled));
                }
                (v_hi, true)
            }
        };
        // An infeasible speed raises the lower end (the opener probes `lo`
        // itself, which leaves it), and its cut feeds the Newton steps.
        v_lo = infeasible;
        let (jobs, cells) = prober.solver.cut_sides();
        let bound = prober.solver.cut_speed_bound(&works, &jobs, &cells);
        if let (true, Some(vn)) = (at_upper, bound) {
            // The cut proves the critical speed is at least `vn`, however
            // far above the nudged upper end that lies.
            upper.v = upper.v.max(vn);
        }
        cut = Some((bound, jobs, cells));
    }
    Err(SolveError::Numeric {
        message: "probe ladder failed to converge".to_string(),
    })
}

/// Read `jobs`' allotments off the solver's flow, a feasible maximum flow
/// at uniform speed `v`, each normalized to its job's exact demand `w_i/v`.
/// At a round's critical speed any such flow is an optimal allotment for
/// the round's critical jobs (see the module docs); after an exhausted
/// budget it is merely a valid one.
fn read_allotments(
    instance: &Instance,
    solver: &WapSolver,
    v: f64,
    jobs: &[usize],
    intervals: &IntervalSet,
    horizon: f64,
    allotments: &mut [Vec<(usize, f64)>],
) -> Result<(), SolveError> {
    for &i in jobs {
        let need = instance.job(i).work / v;
        let mut entries = solver.allotment(i);
        let got: f64 = entries.iter().map(|&(_, t)| t).sum();
        // The flow meets the demands only up to the feasibility epsilon.
        // Allotments are *times*, so that noise scales with the interval
        // lengths, not with the demands: when a near-zero-width window
        // drives `v` so high that every demand is below it (e.g. ~1e-14
        // against intervals of length ~1), the relative check alone is
        // unsatisfiable, so an absolute slack is anchored on the
        // decomposition's total length, `horizon`. NaN discrepancies must
        // fail, so the comparison stays affirmative.
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
            // Energy-irrelevant rescaling to the exact demand, clamped at
            // the interval length: scaling a full interval up by the
            // demand's relative shortfall can exceed per-interval tolerances
            // on short intervals, and the clamped sliver is noise-sized.
            let factor = need / got;
            for entry in &mut entries {
                entry.1 = (entry.1 * factor).min(intervals.length(entry.0));
            }
        }
        allotments[i] = entries;
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
        // These spread windows peel in one round of two probes; a budget
        // of one probe runs out inside it, so every job is fixed at the
        // round's unpeeled upper end.
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
        let sol = try_bal(&instance, Budget::iterations(1)).unwrap();
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
    fn ladder_nudges_an_infeasible_upper_end_without_reprobing() {
        // Three jobs of work 2 in [0, 4] on two machines: critical speed
        // 3·2/(2·4) = 0.75, density bound 0.5. Hand the ladder an upper end
        // of 0.6, below the critical speed. Both infeasible cuts bound the
        // critical speed by 0.75, so the upper end moves straight there and
        // the round settles on that Newton bound.
        let jobs: Vec<Job> = (0..3).map(|i| Job::new(i, 2.0, 0.0, 4.0)).collect();
        let instance = inst(jobs, 2, 2.0);
        let (wap, _) = Wap::from_instance(&instance);
        let remaining: Vec<usize> = (0..instance.len()).collect();
        let mut solver = wap.solver();
        let mut pbuf = vec![0.0; instance.len()];
        let (mut flows, mut log) = (0, Vec::new());
        let mut prober = Prober {
            instance: &instance,
            remaining: &remaining,
            solver: &mut solver,
            pbuf: &mut pbuf,
            flow_computations: &mut flows,
            log: &mut log,
        };
        let (v, settled) =
            ladder_search(&mut prober, 0.5, 0.6, &mut Budget::unlimited().meter()).unwrap();

        assert_eq!(v, 0.75);
        assert_eq!(log, [(0.5, false), (0.6, false), (0.75, true)]);
        assert_eq!(flows, log.len());
        let Settled::Newton(job_side, cell_side) = settled else {
            panic!("the round did not settle on its Newton bound");
        };
        assert_eq!((job_side, cell_side), (vec![true; 3], vec![true]));
    }

    /// Solve with the ladder and return each round's `(jobs, speed)` after
    /// checking that the round settled on its density opener: one feasible
    /// probe at the round's largest effective density.
    fn opener_rounds(instance: &Instance) -> (Vec<(Vec<usize>, f64)>, usize) {
        let sol = bal(instance);
        let rounds = sol
            .rounds
            .iter()
            .map(|r| {
                assert_eq!(r.probes, [(r.speed, true)], "round at {}", r.speed);
                (r.jobs.clone(), r.speed)
            })
            .collect();
        (rounds, sol.flow_computations)
    }

    /// Jointly tight jobs peel together at the opener's speed although some
    /// of them are less dense on their own, and the opener's flow both
    /// classifies them and allots their time without another max flow.
    #[test]
    fn jointly_tight_openers_classify_from_the_opener_flow() {
        // m = 1: job 1 alone has density 1/2, but jobs 0 and 1 share the
        // one machine on [0, 2] with total work 2, so both run at speed 1.
        // The opener is the only flow; a classification probe and its
        // readback would be two more.
        let instance = inst(
            vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 2.0)],
            1,
            2.0,
        );
        let (rounds, flows) = opener_rounds(&instance);
        assert_eq!(rounds, [(vec![0, 1], 1.0)]);
        assert_eq!(flows, 1);

        // m = 2: jobs 0 and 1 fill both machines on [0, 1], so job 2 must do
        // its work 2 on [1, 2] alone and peels with them at speed 2; job 3
        // then has one machine on [1, 2] and both on [2, 8], open time 7.
        // Two openers and nothing else, against two classification probes
        // and two readbacks more.
        let instance = inst(
            vec![
                Job::new(0, 2.0, 0.0, 1.0),
                Job::new(1, 2.0, 0.0, 1.0),
                Job::new(2, 2.0, 0.0, 2.0),
                Job::new(3, 1.0, 0.0, 8.0),
            ],
            2,
            2.0,
        );
        let (rounds, flows) = opener_rounds(&instance);
        assert_eq!(rounds, [(vec![0, 1, 2], 2.0), (vec![3], 1.0 / 7.0)]);
        assert_eq!(flows, 2);
        let sol = bal(&instance);
        assert_eq!(sol.rounds[0].saturated, [0], "only [0, 1] is saturated");
    }

    /// A subnormal critical speed has too few bits for the classification
    /// probe's `v*·(1 − 1e-9)` to fall below it, so the probe is feasible
    /// and its cut names no critical job; BAL then fixes the
    /// effective-density argmax, counted as `bal.degenerate_cuts`, in debug
    /// and release builds alike. The fault gauntlet's case 12 (seed
    /// `0xFA17`, one machine, a job of work `1e-320`) is such an instance.
    #[test]
    fn subnormal_work_takes_the_degenerate_cut_fallback() {
        let case = ssp_harness::fault::FaultPlan::new(0xFA17).case(12);
        assert_eq!(case.fault, "denormal-work");
        let instance = case.instance.expect("an adversarial but valid instance");
        // Counters are process-global and other tests run concurrently, so
        // the count is checked only when this test holds the session.
        let session = ssp_probe::Session::begin();
        let sol = try_bal(&instance, Budget::unlimited());
        let degenerate = session.map(|s| s.end().counter("bal.degenerate_cuts"));
        let sol = sol.expect("BAL answers a subnormal work");
        if let Some(count) = degenerate {
            assert!(count >= 1, "no degenerate cut");
        }
        assert_eq!(sol.budget_exhausted, None);
        assert!(sol.energy.is_finite() && sol.energy > 0.0);
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
