//! BAL — the optimal migratory multiprocessor speed-scaling algorithm.
//!
//! The migratory optimum is a lexicographically optimal base. Give job `i`
//! the processing time `t_i`, so it runs at speed `w_i / t_i` for energy
//! `w_i^α · t_i^(1−α)`. The processing times that can be packed are
//! exactly the `t ≥ 0` with `t(S) ≤ f(S)` for every job set `S`, where
//! `f(S) = Σ_j min(c_j, e_j·|S ∩ A_j|)`: `A_j` holds the jobs alive in
//! interval `j`, `c_j` is its capacity and `e_j = min(|I_j|, c_j)` what one
//! job can get there. That is the minimum cut of the WAP network of Angel
//! et al. (arXiv:1107.2105). `f` is submodular, so the packable `t` form a
//! polymatroid, and a sum `Σ w_i·h(t_i / w_i)` with `h` strictly convex is
//! minimised over it by the polymatroid's lexicographically optimal base
//! with respect to `w` (Fujishige, "Lexicographically optimal base of a
//! polymatroid with respect to a weight vector", Math. Oper. Res. 5(2),
//! 1980). That holds whatever α is, so BAL never reads α.
//!
//! The decomposition algorithm (Fujishige 1980; Groenevelt, "Two algorithms
//! for maximizing a separable concave function over a polymatroid feasible
//! region", EJOR 54, 1991) finds that base with one max flow per split. A
//! *node* is a job set `N` with per-interval capacities `c`; the root holds
//! every job at the WAP's capacities.
//!
//! * A one-job node is a speed class in closed form: speed `w_i / Σ_j e_j`
//!   over its open intervals, and its allotment is `e_j` in each of them.
//! * Any other node would run at `v = w(N) / f(N)`. Solve the WAP once at
//!   demands `w_i / v`, which sum to `f(N)`. If the flow meets every
//!   demand, `N` is one class at speed `v`, and its allotments are read off
//!   that flow.
//! * If the flow falls short, the job side `S` of the canonical minimum cut
//!   holds the node's jobs faster than `v`. `S` becomes a child with the
//!   same capacities, and `N∖S` a child with capacities
//!   `c_j − e_j·|S ∩ A_j|` and the cut's intervals closed. That is BAL's
//!   peeling rule: the faster jobs fill the cut's intervals and take one
//!   full processor share everywhere else in their windows.
//!
//! The faster child is taken first, so the classes come out by decreasing
//! speed. Each split separates two classes, so a solve runs fewer than
//! `2n` max flows, and no speed is searched for.
//!
//! A node holds its capacities over its *span* only, the intervals from its
//! jobs' earliest window start to their latest window end, and each child
//! cuts its own span out of its parent's. Every node solves on the one
//! [`WapSolver`] of the solve: the span's capacities move into the solver
//! ([`WapSolver::reparameterize`]) and the node's jobs alone are solved
//! ([`WapSolver::solve_jobs`]). The cells outside the span keep what an
//! earlier node left there; no job of the node is alive there, so no flow,
//! cut or readback depends on them. Every step of a node thus costs its
//! jobs and its span, not the whole WAP.
//!
//! The result is returned as speeds **plus** per-interval allotments, from
//! which [`BalSolution::schedule`] builds an explicit schedule (McNaughton
//! wrap-around per interval) and [`crate::kkt::certify`] checks the KKT
//! optimality certificate.

use crate::mcnaughton::mcnaughton;
use crate::wap::{Wap, WapSolver};
use ssp_model::resource::Budget;
use ssp_model::{Instance, IntervalSet, Schedule, SolveError, SpeedAssignment};
use std::ops::Range;

/// One speed class of the optimum: its speed and its jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct BalRound {
    /// The class's speed.
    pub speed: f64,
    /// Instance-indices of the class's jobs, ascending.
    pub jobs: Vec<usize>,
    /// Open intervals the class fills, which close for every slower class:
    /// those where its node's capacity `c_j` is below `e_j` times the
    /// class's jobs alive there.
    pub saturated: Vec<usize>,
}

/// Output of [`bal`]: optimal constant speeds, the optimal energy, the
/// speed classes, and per-interval time allotments.
#[derive(Debug, Clone)]
pub struct BalSolution {
    /// Optimal speed per job (instance indexing).
    pub speeds: SpeedAssignment,
    /// Optimal total energy `Σ w_i s_i^(α-1)`.
    pub energy: f64,
    /// The speed classes, in decreasing-speed order.
    pub rounds: Vec<BalRound>,
    /// `allotments[i]` = `(interval, time)` pairs for job `i` over the
    /// canonical interval set, summing to `w_i / s_i`.
    pub allotments: Vec<Vec<(usize, f64)>>,
    /// The canonical interval decomposition the allotments refer to.
    pub intervals: IntervalSet,
    /// Total number of max-flow computations performed: one per node of
    /// two or more jobs.
    pub flow_computations: usize,
    /// Set when a [`Budget`] ran out mid-decomposition (`"iterations"` or
    /// `"deadline"`). The solution is then still *valid* — the jobs of every
    /// node not yet solved run at that node's routing upper bound — but its
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
/// of a panic, and `budget` caps the number of max flows (plus one for the
/// first feasible answer, the routing bound) and sets their deadline. On
/// budget exhaustion the jobs of every node not yet solved run at a
/// feasible uniform speed of their node, so the returned solution is
/// always valid (check [`BalSolution::budget_exhausted`] for optimality).
pub fn try_bal(instance: &Instance, budget: Budget) -> Result<BalSolution, SolveError> {
    let (wap, intervals) = Wap::from_instance(instance);
    try_bal_with_wap(instance, wap, intervals, budget)
}

/// BAL over a caller-built WAP (custom per-interval capacities — e.g.
/// machine downtime, see [`crate::downtime`]). The WAP's intervals must be
/// (a refinement of) the instance's canonical decomposition and every job
/// must have positive open time, or the decomposition panics on its
/// invariants. Use [`try_bal_with_wap`] for the fallible variant.
pub fn bal_with_wap(instance: &Instance, wap: Wap, intervals: IntervalSet) -> BalSolution {
    try_bal_with_wap(instance, wap, intervals, Budget::unlimited())
        .expect("BAL failed on what should be a feasible instance")
}

/// Fallible, budget-aware form of [`bal_with_wap`]; see [`try_bal`].
pub fn try_bal_with_wap(
    instance: &Instance,
    wap: Wap,
    intervals: IntervalSet,
    budget: Budget,
) -> Result<BalSolution, SolveError> {
    let _bal_span = ssp_probe::span("bal");
    let mut meter = budget.meter();
    let n = instance.len();
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

    let closed = |t: f64| t <= 0.0 || t.is_nan();
    if let Some(i) = (0..n).find(|&i| closed(wap.open_time_of(i))) {
        return Err(SolveError::Precondition {
            algorithm: "bal",
            message: format!("job {} has no open capacity at all", instance.job(i).id),
        });
    }
    let root = Node::root(&wap);
    // Every speed lies below the root's routing bound, so a bound that
    // overflows means speeds that do.
    let hi = root.routing(instance, &wap)?.0;
    if !hi.is_finite() {
        return Err(SolveError::Numeric {
            message: format!("initial speed upper bound is not finite ({hi})"),
        });
    }
    // The budget counts that bound, the first feasible answer, as one
    // iteration and each max flow as one more; exhaustion latches.
    meter.tick();
    let horizon: f64 = (0..intervals.len()).map(|j| intervals.length(j)).sum();
    // One feasibility solver for the whole solve, built at the root's
    // capacities when the root is solved and moved to each later node's
    // span in place: the nodes' open intervals all lie inside the root's,
    // and no job of a node is alive outside its span.
    let mut solver: Option<WapSolver> = None;
    let mut stack = vec![root];

    while let Some(node) = stack.pop() {
        if let [i] = node.jobs[..] {
            let (v, allotment) = node.closed_form(instance, &wap, i)?;
            speeds[i] = v;
            allotments[i] = allotment;
            rounds.push(class(v, node.jobs, Vec::new()));
            continue;
        }
        if !meter.tick() {
            // Out of budget: the node's jobs run at its routing bound.
            let (v, open) = node.routing(instance, &wap)?;
            for (&i, &time) in node.jobs.iter().zip(&open) {
                speeds[i] = v;
                let p = instance.job(i).work / v / time;
                allotments[i] = node
                    .open_cells(&wap, i)
                    .map(|(j, _)| (j, p * wap.length(j)))
                    .collect();
            }
            rounds.push(class(v, node.jobs, Vec::new()));
            continue;
        }
        let _node_span = ssp_probe::span("bal.node");
        let (v, alive) = node.speed(instance, &wap);
        if !(v.is_finite() && v > 0.0) {
            return Err(SolveError::Numeric {
                message: format!("node speed {v} is not a positive finite speed"),
            });
        }
        let solver = match &mut solver {
            Some(solver) => {
                solver.reparameterize(&wap, node.lo, &node.caps);
                solver
            }
            None => solver.insert(wap.solver()),
        };
        flow_computations += 1;
        if let Some((fast, slow, cell_side)) = node.cut(instance, solver, v) {
            if !fast.is_empty() && !slow.is_empty() {
                stack.push(node.slow_child(&wap, &fast, slow, &cell_side));
                stack.push(node.into_fast_child(&wap, fast));
                continue;
            }
            // Numerically the flow meets the demands after all: the cut
            // holds the whole node or nothing of it.
            ssp_probe::counter!("bal.degenerate_cuts");
        }
        read_allotments(
            instance,
            solver,
            v,
            &node.jobs,
            &intervals,
            horizon,
            &mut allotments,
        )?;
        for &i in &node.jobs {
            speeds[i] = v;
        }
        let saturated = node.saturated(&wap, &alive);
        rounds.push(class(v, node.jobs, saturated));
    }

    ssp_probe::counter!("bal.flow_calls", flow_computations as u64);
    let budget_exhausted = meter.exhausted();
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

/// A finished speed class, counted as one BAL round.
fn class(speed: f64, jobs: Vec<usize>, saturated: Vec<usize>) -> BalRound {
    ssp_probe::counter!("bal.rounds");
    ssp_probe::counter!("bal.critical_jobs", jobs.len() as u64);
    ssp_probe::counter!("bal.saturated_intervals", saturated.len() as u64);
    BalRound {
        speed,
        jobs,
        saturated,
    }
}

/// A node of the decomposition: a job set, ascending, and the capacity
/// each interval of its span has left for it. The span is the run of
/// intervals from the jobs' earliest window start to their latest window
/// end; nothing of the node lies outside it, so every per-node step costs
/// the node's jobs and span.
pub(crate) struct Node {
    pub(crate) jobs: Vec<usize>,
    /// The span's first interval.
    lo: usize,
    /// `caps[k]`: the capacity of interval `lo + k`.
    caps: Vec<f64>,
}

/// `e_j = min(|I_j|, c)`, the time one job can get in interval `j` at
/// capacity `c` (0 when it is closed).
fn one_job_cap(wap: &Wap, j: usize, c: f64) -> f64 {
    if c > 0.0 {
        wap.length(j).min(c)
    } else {
        0.0
    }
}

/// `e_j·k`: what `k` jobs alive in interval `j` could take there alone at
/// capacity `c`.
fn share(wap: &Wap, j: usize, c: f64, k: u32) -> f64 {
    one_job_cap(wap, j, c) * f64::from(k)
}

/// How many of `jobs` are alive in each interval of `span`: a running sum
/// over the windows' opening and closing steps (wrapping differences, so
/// one buffer holds both), clipped to the span.
fn alive_counts(wap: &Wap, jobs: &[usize], span: Range<usize>) -> Vec<u32> {
    let mut alive = vec![0u32; span.len() + 1];
    for (lo, hi) in jobs.iter().filter_map(|&i| wap.window_of(i)) {
        let (lo, hi) = (lo.max(span.start), hi.min(span.end - 1));
        if lo <= hi {
            alive[lo - span.start] = alive[lo - span.start].wrapping_add(1);
            alive[hi + 1 - span.start] = alive[hi + 1 - span.start].wrapping_sub(1);
        }
    }
    for k in 1..alive.len() {
        alive[k] = alive[k].wrapping_add(alive[k - 1]);
    }
    alive.pop();
    alive
}

impl Node {
    /// Every job of `wap` at its own capacities.
    pub(crate) fn root(wap: &Wap) -> Node {
        let jobs: Vec<usize> = (0..wap.num_jobs()).collect();
        let span = wap.span_of(&jobs);
        let caps = span.clone().map(|j| wap.capacity(j)).collect();
        Node {
            jobs,
            lo: span.start,
            caps,
        }
    }

    /// The faster child, `fast` at the node's capacities: the node's span
    /// narrowed in place to the child's.
    pub(crate) fn into_fast_child(mut self, wap: &Wap, fast: Vec<usize>) -> Node {
        let span = wap.span_of(&fast);
        self.caps.truncate(span.end - self.lo);
        self.caps.drain(..span.start - self.lo);
        Node {
            jobs: fast,
            lo: span.start,
            caps: self.caps,
        }
    }

    /// The slower child once `fast` is split off along the cut whose
    /// intervals are `cell_side` (over the node's span): the cut's
    /// intervals close, every other interval gives up `e_j` per job of
    /// `fast` alive there, and small remainders snap to 0 as
    /// [`Wap::set_capacity`] snaps them.
    fn slow_child(&self, wap: &Wap, fast: &[usize], slow: Vec<usize>, cell_side: &[bool]) -> Node {
        let span = wap.span_of(&slow);
        let caps = self.caps[span.start - self.lo..span.end - self.lo].to_vec();
        let mut child = Node {
            jobs: slow,
            lo: span.start,
            caps,
        };
        let alive = alive_counts(wap, fast, span);
        for (k, c) in child.caps.iter_mut().enumerate() {
            let j = child.lo + k;
            if *c <= 0.0 || alive[k] == 0 {
                continue;
            }
            *c = if cell_side[j - self.lo] {
                0.0
            } else {
                wap.snapped(j, *c - share(wap, j, *c, alive[k]))
            };
        }
        child
    }

    /// The node's span.
    fn span(&self) -> Range<usize> {
        self.lo..self.lo + self.caps.len()
    }

    /// Job `i`'s open intervals with their capacities.
    fn open_cells<'a>(&'a self, wap: &Wap, i: usize) -> impl Iterator<Item = (usize, f64)> + 'a {
        let (lo, hi) = wap.window_of(i).unwrap_or((1, 0));
        (lo..=hi)
            .map(|j| (j, self.caps[j - self.lo]))
            .filter(|&(_, c)| c > 0.0)
    }

    /// The speed the node's jobs would share as one class, `w(N) / f(N)`,
    /// and how many of them are alive in each interval of the span. The
    /// caller checks that it is a positive finite speed.
    pub(crate) fn speed(&self, instance: &Instance, wap: &Wap) -> (f64, Vec<u32>) {
        let alive = alive_counts(wap, &self.jobs, self.span());
        let packable: f64 = self
            .span()
            .zip(&self.caps)
            .zip(&alive)
            .map(|((j, &c), &k)| c.min(share(wap, j, c, k)))
            .sum();
        let work: f64 = self.jobs.iter().map(|&i| instance.job(i).work).sum();
        (work / packable, alive)
    }

    /// Solve the node's WAP on `solver`, which holds the node's capacities
    /// over its span, at uniform speed `v`: demand `w_i / v` for the node's
    /// jobs and none for the others. `None` when the flow meets the
    /// demands; otherwise the job side of the canonical minimum cut, the
    /// jobs faster than `v`, then the node's other jobs, both ascending,
    /// and the cut's intervals over the span.
    pub(crate) fn cut(
        &self,
        instance: &Instance,
        solver: &mut WapSolver,
        v: f64,
    ) -> Option<(Vec<usize>, Vec<usize>, Vec<bool>)> {
        let demands: Vec<f64> = self
            .jobs
            .iter()
            .map(|&i| instance.job(i).work / v)
            .collect();
        solver.solve_jobs(&self.jobs, &demands);
        if solver.feasible() {
            return None;
        }
        let (job_side, cell_side) = solver.cut_sides_of(&self.jobs, self.span());
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for (&i, &side) in self.jobs.iter().zip(&job_side) {
            if side {
                fast.push(i);
            } else {
                slow.push(i);
            }
        }
        Some((fast, slow, cell_side))
    }

    /// A one-job node's class: all it can get, `e_j` in each open interval.
    pub(crate) fn closed_form(
        &self,
        instance: &Instance,
        wap: &Wap,
        i: usize,
    ) -> Result<(f64, Vec<(usize, f64)>), SolveError> {
        let allotment: Vec<(usize, f64)> = self
            .open_cells(wap, i)
            .map(|(j, c)| (j, one_job_cap(wap, j, c)))
            .collect();
        let time: f64 = allotment.iter().map(|&(_, t)| t).sum();
        if time <= 0.0 || time.is_nan() {
            return Err(SolveError::Numeric {
                message: format!(
                    "job {} has no open intervals left — BAL invariant broken",
                    instance.job(i).id
                ),
            });
        }
        Ok((instance.job(i).work / time, allotment))
    }

    /// The open intervals the class of the node's jobs fills: those where
    /// the capacity is below `e_j` times its jobs alive there (`alive`,
    /// over the span).
    fn saturated(&self, wap: &Wap, alive: &[u32]) -> Vec<usize> {
        self.span()
            .zip(&self.caps)
            .zip(alive)
            .filter(|&((j, &c), &k)| c > 0.0 && c < share(wap, j, c, k))
            .map(|((j, _), _)| j)
            .collect()
    }

    /// A feasible uniform speed for the node, valid for any capacities:
    /// route each job in proportion to interval length over its open time
    /// `open_i`. That is feasible when `v ≥ w_i / open_i` (the per-job caps)
    /// and, per interval, `v ≥ |I_j|·Σ_{alive, open} (w_i / open_i) / c_j`
    /// (the capacities). Returns the speed and each job's open time, in the
    /// order of the node's jobs.
    fn routing(&self, instance: &Instance, wap: &Wap) -> Result<(f64, Vec<f64>), SolveError> {
        let mut open = Vec::with_capacity(self.jobs.len());
        let mut density = vec![0.0; self.caps.len()];
        let mut v = 0.0f64;
        for &i in &self.jobs {
            let time: f64 = self.open_cells(wap, i).map(|(j, _)| wap.length(j)).sum();
            if time <= 0.0 || time.is_nan() {
                return Err(SolveError::Numeric {
                    message: format!(
                        "job {} has no open intervals left — BAL invariant broken",
                        instance.job(i).id
                    ),
                });
            }
            let d = instance.job(i).work / time;
            v = v.max(d);
            for (j, _) in self.open_cells(wap, i) {
                density[j - self.lo] += d;
            }
            open.push(time);
        }
        for ((j, &d), &c) in self.span().zip(&density).zip(&self.caps) {
            if d > 0.0 {
                v = v.max(wap.length(j) * d / c);
            }
        }
        Ok((v * (1.0 + 1e-12), open))
    }
}

/// Read `jobs`' allotments off the solver's flow, a feasible maximum flow
/// at uniform speed `v`, each normalized to its job's exact demand `w_i/v`.
/// When the flow meets a node's demands, any such flow is an optimal
/// allotment for the node's class (see the module docs).
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
        // These spread windows take more than one max flow; a budget of
        // one runs out after the first, so the jobs of every node still to
        // solve run at that node's routing bound.
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

    /// Jointly tight jobs form one class at the node's closed-form speed
    /// although some of them are less dense on their own, and one max flow
    /// both proves it and allots their time.
    #[test]
    fn jointly_tight_jobs_form_one_class() {
        let classes = |sol: &BalSolution| -> Vec<(Vec<usize>, f64)> {
            sol.rounds
                .iter()
                .map(|r| (r.jobs.clone(), r.speed))
                .collect()
        };
        // m = 1: job 1 alone has density 1/2, but jobs 0 and 1 share the
        // one machine on [0, 2] with total work 2, so both run at speed 1.
        let instance = inst(
            vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 2.0)],
            1,
            2.0,
        );
        let sol = bal(&instance);
        assert_eq!(classes(&sol), [(vec![0, 1], 1.0)]);
        assert_eq!(sol.flow_computations, 1);

        // m = 2: jobs 0 and 1 fill both machines on [0, 1], so job 2 must do
        // its work 2 on [1, 2] alone and joins them at speed 2; job 3 then
        // has one machine on [1, 2] and both on [2, 8], open time 7. The
        // root's flow splits {0, 1, 2} off, whose flow proves it one class,
        // and job 3 is a class in closed form.
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
        let sol = bal(&instance);
        assert_eq!(classes(&sol), [(vec![0, 1, 2], 2.0), (vec![3], 1.0 / 7.0)]);
        assert_eq!(sol.flow_computations, 2);
        assert_eq!(sol.rounds[0].saturated, [0], "only [0, 1] is saturated");
    }

    /// The fault gauntlet's case 12 (seed `0xFA17`, one machine, a job of
    /// work `1e-320`) is where the peeling search fell back on a degenerate
    /// cut: its classification probe just below a subnormal speed could
    /// not fall below it. The decomposition needs no such fallback, in
    /// debug and release builds alike: the subnormal job is a class in
    /// closed form, and every split is decided by its cut.
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
            assert_eq!(count, 0, "a degenerate cut");
        }
        assert_eq!(sol.budget_exhausted, None);
        assert!(sol.energy.is_finite() && sol.energy > 0.0);
        let tiny = (0..instance.len())
            .find(|&i| instance.job(i).work < f64::MIN_POSITIVE)
            .expect("the subnormal job");
        assert!(sol.speeds.get(tiny) > 0.0 && sol.speeds.get(tiny) < f64::MIN_POSITIVE);
        sol.schedule(&instance)
            .validate(&instance, Default::default())
            .expect("the schedule validates");
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
