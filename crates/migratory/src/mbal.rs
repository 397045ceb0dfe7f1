//! MBAL — makespan minimization under an energy budget.
//!
//! Given jobs with release dates (deadlines ignored), `m` machines and an
//! energy budget `E`, find the smallest makespan `X` such that a feasible
//! migratory schedule finishing by `X` consumes at most `E`. Monotonicity
//! (larger `X` ⇒ cheaper optimum) enables an outer binary search over `X`;
//! each probe clamps every deadline to `X` and asks BAL for the optimal
//! energy of the clamped instance.
//!
//! Bounds: with total work `W`,
//! `X_LB = (1/m)·(W^α/E)^(1/(α-1))` (perfect parallelism) and
//! `X_UB = max_i r_i + (W^α/E)^(1/(α-1))` (serial execution after the last
//! release at the uniform speed that exactly spends `E`).

use crate::bal::{try_bal, BalSolution};
use ssp_model::numeric::{bisect_threshold, BINARY_SEARCH_REL_WIDTH};
use ssp_model::{Budget, Instance, Schedule, SolveError};
use std::cell::RefCell;

/// Output of [`mbal`].
#[derive(Debug, Clone)]
pub struct MbalSolution {
    /// The minimal makespan found.
    pub makespan: f64,
    /// The optimal migratory solution of the instance clamped at `makespan`.
    pub solution: BalSolution,
    /// Energy of that solution (`<= budget` up to search tolerance).
    pub energy: f64,
    /// The instance clamped at the final makespan (deadlines `min(d_i, X)`).
    pub clamped: Instance,
}

impl MbalSolution {
    /// Materialize the schedule achieving the makespan.
    pub fn schedule(&self) -> Schedule {
        self.solution.schedule(&self.clamped)
    }
}

/// Minimize makespan under energy budget `E`. Deadlines in `instance` act as
/// *additional* constraints (pass `+inf`-like large deadlines for the pure
/// makespan problem). Returns `None` if even the unclamped instance cannot
/// meet the budget (deadline constraints force energy above `E`).
///
/// ```
/// use ssp_model::{Instance, Job};
/// use ssp_migratory::mbal::mbal;
///
/// // One job, no real deadline: spend budget E on work w at constant speed
/// // s with w·s^(α−1) = E, finishing at w/s.
/// let inst = Instance::new(vec![Job::new(0, 2.0, 0.0, 1e9)], 1, 3.0).unwrap();
/// let sol = mbal(&inst, 8.0).unwrap();
/// let s = (8.0f64 / 2.0).powf(0.5); // E/w, alpha-1 = 2
/// assert!((sol.makespan - 2.0 / s).abs() < 1e-6);
/// ```
pub fn mbal(instance: &Instance, budget: f64) -> Option<MbalSolution> {
    try_mbal(instance, budget).expect("BAL failed on what should be a feasible instance")
}

/// Fallible [`mbal`]: every BAL solve runs through [`try_bal`], so an
/// instance BAL cannot bound (e.g. a speed bound that overflows) returns
/// its [`SolveError`] instead of panicking.
pub fn try_mbal(instance: &Instance, budget: f64) -> Result<Option<MbalSolution>, SolveError> {
    assert!(
        budget > 0.0 && budget.is_finite(),
        "budget must be positive"
    );
    let bal = |inst: &Instance| try_bal(inst, Budget::unlimited());
    if instance.is_empty() {
        return Ok(Some(MbalSolution {
            makespan: 0.0,
            energy: 0.0,
            solution: bal(instance)?,
            clamped: instance.clone(),
        }));
    }
    let w: f64 = instance.total_work();
    let alpha = instance.alpha();
    let m = instance.machines() as f64;
    let serial = (w.powf(alpha) / budget).powf(1.0 / (alpha - 1.0));
    let max_release = instance
        .jobs()
        .iter()
        .map(|j| j.release)
        .fold(f64::NEG_INFINITY, f64::max);
    let x_lb = serial / m;
    let mut x_ub = max_release + serial;
    // Existing deadlines may *cap* the usable makespan: clamping beyond the
    // latest deadline changes nothing, so the search is still well-defined;
    // but the budget may be unreachable if deadlines alone force E* > budget.
    let unclamped_energy = bal(instance)?.energy;
    if unclamped_energy > budget * (1.0 + 1e-9) {
        return Ok(None);
    }
    // Ensure the upper endpoint is feasible for the *clamped* problem too
    // (deadline interactions can shift the threshold slightly upward).
    // Each probe runs a full BAL solve, so cache the last feasible one: the
    // bisection's returned `hi` is always its most recent feasible probe,
    // letting the final re-solve below be skipped. A failed probe is kept
    // and reads as infeasible until the search returns it.
    let mut last_feasible: Option<(f64, BalSolution, Instance)> = None;
    let failure = RefCell::new(None);
    let mut feasible = |x: f64| -> bool {
        if x <= max_release || failure.borrow().is_some() {
            return false;
        }
        match instance.clamp_deadlines(x) {
            Err(_) => false,
            Ok(clamped) => match bal(&clamped) {
                Err(e) => {
                    *failure.borrow_mut() = Some(e);
                    false
                }
                Ok(sol) => {
                    let ok = sol.energy <= budget * (1.0 + 1e-9);
                    if ok {
                        last_feasible = Some((x, sol, clamped));
                    }
                    ok
                }
            },
        }
    };
    let mut guard = 0;
    while !feasible(x_ub) {
        if let Some(e) = failure.take() {
            return Err(e);
        }
        x_ub = max_release + (x_ub - max_release) * 2.0;
        guard += 1;
        assert!(
            guard < 64,
            "could not establish a feasible makespan upper bound"
        );
    }
    let lo = x_lb.min(x_ub).max(max_release * (1.0 + 1e-15));
    let (_, x) = bisect_threshold(lo, x_ub, BINARY_SEARCH_REL_WIDTH.max(1e-11), feasible);
    if let Some(e) = failure.into_inner() {
        return Err(e);
    }
    let (solution, clamped) = match last_feasible {
        Some((xf, sol, cl)) if xf == x => (sol, cl),
        _ => {
            // Defensive recompute; unreachable when the bisection returned
            // its last feasible probe, as it always does today.
            let cl = instance
                .clamp_deadlines(x)
                .expect("feasible x clamps validly");
            (bal(&cl)?, cl)
        }
    };
    let energy = solution.energy;
    Ok(Some(MbalSolution {
        makespan: x,
        solution,
        energy,
        clamped,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{Instance, Job};

    /// Jobs with effectively-unbounded deadlines for pure makespan problems.
    fn free(jobs: Vec<(f64, f64)>, m: usize, alpha: f64) -> Instance {
        let horizon = 1e6;
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (w, r))| Job::new(i as u32, w, r, horizon))
            .collect();
        Instance::new(jobs, m, alpha).unwrap()
    }

    /// An instance BAL cannot bound (its speed bound overflows) is a typed
    /// numeric failure, not a panic.
    #[test]
    fn unboundable_instance_is_a_numeric_error() {
        let jobs = vec![Job::new(0, 1e300, 0.0, 1e-300), Job::new(1, 1.0, 0.0, 2.0)];
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        assert!(matches!(
            try_mbal(&inst, 10.0),
            Err(SolveError::Numeric { .. })
        ));
    }

    #[test]
    fn single_job_closed_form() {
        // One job, release 0, work w, budget E: run at constant speed s with
        // w·s^(α-1) = E, makespan w/s.
        let (w, e, alpha) = (2.0, 4.0, 3.0);
        let inst = free(vec![(w, 0.0)], 1, alpha);
        let sol = mbal(&inst, e).unwrap();
        let s = (e / w).powf(1.0 / (alpha - 1.0));
        let expect = w / s;
        assert!(
            (sol.makespan - expect).abs() < 1e-6 * expect,
            "makespan {} vs {}",
            sol.makespan,
            expect
        );
        assert!(sol.energy <= e * (1.0 + 1e-6));
    }

    #[test]
    fn parallel_jobs_hit_the_lower_bound() {
        // m equal jobs released at 0 on m machines: perfect parallelism,
        // X = (1/m)·(W^α/E)^(1/(α-1)) exactly.
        let (m, w_each, e, alpha) = (3usize, 1.0, 2.0, 2.0);
        let inst = free(vec![(w_each, 0.0); 3], m, alpha);
        let sol = mbal(&inst, e).unwrap();
        let w_total = 3.0 * w_each;
        let expect = (w_total.powf(alpha) / e).powf(1.0 / (alpha - 1.0)) / m as f64;
        assert!(
            (sol.makespan - expect).abs() < 1e-6 * expect,
            "makespan {} vs {}",
            sol.makespan,
            expect
        );
    }

    #[test]
    fn more_budget_means_smaller_makespan() {
        let inst = free(vec![(2.0, 0.0), (1.0, 0.5), (3.0, 1.0)], 2, 2.5);
        let mut prev = f64::INFINITY;
        for budget in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let sol = mbal(&inst, budget).unwrap();
            assert!(
                sol.makespan <= prev * (1.0 + 1e-9),
                "budget {budget}: makespan {} vs previous {prev}",
                sol.makespan
            );
            assert!(sol.energy <= budget * (1.0 + 1e-6));
            prev = sol.makespan;
        }
    }

    #[test]
    fn release_dates_delay_the_makespan() {
        let early = free(vec![(1.0, 0.0), (1.0, 0.0)], 2, 2.0);
        let late = free(vec![(1.0, 0.0), (1.0, 5.0)], 2, 2.0);
        let e = 1.0;
        let m_early = mbal(&early, e).unwrap().makespan;
        let m_late = mbal(&late, e).unwrap().makespan;
        assert!(m_late > 5.0, "second job can only start at its release");
        assert!(m_early < m_late);
    }

    #[test]
    fn schedule_meets_makespan_and_budget() {
        let inst = free(vec![(2.0, 0.0), (1.0, 1.0), (1.5, 0.5)], 2, 2.0);
        let budget = 3.0;
        let sol = mbal(&inst, budget).unwrap();
        let schedule = sol.schedule();
        let stats = schedule.validate(&sol.clamped, Default::default()).unwrap();
        assert!(stats.makespan <= sol.makespan * (1.0 + 1e-9));
        assert!(stats.energy <= budget * (1.0 + 1e-6));
    }

    #[test]
    fn impossible_budget_under_hard_deadlines() {
        // A hard deadline forces at least E = w^α / d^(α-1).
        let inst = Instance::new(vec![Job::new(0, 2.0, 0.0, 1.0)], 1, 2.0).unwrap();
        // Minimum energy = 2^2/1 = 4; budget below that is impossible.
        assert!(mbal(&inst, 3.9).is_none());
        assert!(mbal(&inst, 4.1).is_some());
    }

    #[test]
    fn empty_instance_trivial() {
        let inst = Instance::new(vec![], 2, 2.0).unwrap();
        let sol = mbal(&inst, 1.0).unwrap();
        assert_eq!(sol.makespan, 0.0);
    }
}
