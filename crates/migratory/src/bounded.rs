//! Bounded maximum speed (the main practical deviation from the paper's
//! unbounded-speed model).
//!
//! Real processors cap out at some `s_max`. Two observations make the
//! bounded model tractable on top of the machinery already built:
//!
//! * **The optimum's fastest class sets the min-max speed**: no feasible
//!   schedule (of any speed profile) can keep *every* job below the speed
//!   of BAL's first class — that class genuinely needs it — and the
//!   optimum itself runs no job faster. Hence an instance is feasible under
//!   cap `s_max` **iff** [`min_peak_speed`]`(inst) ≤ s_max`.
//! * When feasible, the unbounded optimum (BAL) never exceeds that peak, so
//!   the energy-optimal bounded schedule *is* the unbounded one —
//!   [`bal_bounded`] just certifies the cap.
//!
//! When infeasible, one must drop jobs; throughput maximization under the
//! cap lives in `ssp-core::throughput`.

use crate::bal::{bal, BalSolution, Node};
use crate::wap::Wap;
use ssp_model::Instance;

/// The smallest achievable maximum speed of any feasible schedule: the
/// speed of the optimum's fastest class (BAL's first class).
///
/// No job runs slower than its density, so when the WAP is feasible at
/// the largest density that density is the answer. Otherwise the canonical
/// cut of that probe holds exactly the jobs the optimum runs faster than it
/// (Fujishige 1980, the rule BAL splits by), and the fastest class lies
/// among them: from that cut (the root when it is empty) follow BAL's
/// decomposition down its faster children, at the instance's own
/// capacities, to the first node whose flow meets its demands, or to a
/// single job, whose speed is in closed form.
pub fn min_peak_speed(instance: &Instance) -> f64 {
    if instance.is_empty() {
        return 0.0;
    }
    let (wap, _) = Wap::from_instance(instance);
    let mut solver = wap.solver();
    let mut node = Node::root(&wap);
    let density = instance.max_density();
    match node.cut(instance, &mut solver, density) {
        None => return density,
        Some((fast, ..)) if !fast.is_empty() => node = node.into_fast_child(&wap, fast),
        Some(_) => {}
    }
    loop {
        if let [i] = node.jobs[..] {
            let (v, _) = node
                .closed_form(instance, &wap, i)
                .expect("every job of an instance has open time at its own capacities");
            return v;
        }
        let (v, _) = node.speed(instance, &wap);
        match node.cut(instance, &mut solver, v) {
            Some((fast, slow, _)) if !fast.is_empty() && !slow.is_empty() => {
                node = node.into_fast_child(&wap, fast)
            }
            _ => return v,
        }
    }
}

/// Optimal migratory solution under a maximum-speed cap, or `None` when the
/// cap makes the instance infeasible. When feasible the solution coincides
/// with the unbounded optimum (see module docs).
pub fn bal_bounded(instance: &Instance, s_max: f64) -> Option<BalSolution> {
    assert!(s_max > 0.0 && s_max.is_finite());
    if instance.is_empty() {
        return Some(bal(instance));
    }
    // Cheap reject before running the full algorithm.
    if min_peak_speed(instance) > s_max * (1.0 + 1e-9) {
        return None;
    }
    let sol = bal(instance);
    debug_assert!(
        sol.speeds.max_speed() <= s_max * (1.0 + 1e-6),
        "unbounded optimum exceeded a feasible cap — min_peak_speed is wrong"
    );
    Some(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{Instance, Job};
    use ssp_workloads::families;

    #[test]
    fn single_job_peak_is_density() {
        let inst = Instance::new(vec![Job::new(0, 3.0, 0.0, 2.0)], 2, 2.0).unwrap();
        assert!((min_peak_speed(&inst) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn crowded_window_peak_is_load_over_capacity() {
        // 4 unit jobs, window [0,1], 2 machines: uniform speed 2 needed.
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 1.0, 0.0, 1.0)).collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        assert!((min_peak_speed(&inst) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn peak_matches_bal_first_round() {
        for seed in [1u64, 2, 3] {
            let inst = families::general(15, 3, 2.0).gen(seed);
            let direct = min_peak_speed(&inst);
            let first_round = ssp_migratory_first_round(&inst);
            assert!(
                (direct - first_round).abs() <= 1e-8 * first_round,
                "seed {seed}: {direct} vs {first_round}"
            );
        }
    }

    fn ssp_migratory_first_round(inst: &Instance) -> f64 {
        bal(inst).rounds.first().map(|r| r.speed).unwrap_or(0.0)
    }

    #[test]
    fn bounded_feasibility_threshold() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 1.0, 0.0, 1.0)).collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        assert!(bal_bounded(&inst, 1.9).is_none());
        let sol = bal_bounded(&inst, 2.1).unwrap();
        assert!(sol.speeds.max_speed() <= 2.1);
        // And at (essentially) the threshold itself.
        assert!(bal_bounded(&inst, 2.0 * (1.0 + 1e-6)).is_some());
    }

    #[test]
    fn generous_cap_equals_unbounded_optimum() {
        let inst = families::general(12, 2, 2.5).gen(9);
        let unbounded = bal(&inst).energy;
        let capped = bal_bounded(&inst, 1e9).unwrap().energy;
        assert!((unbounded - capped).abs() <= 1e-9 * unbounded);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2, 2.0).unwrap();
        assert_eq!(min_peak_speed(&inst), 0.0);
        assert!(bal_bounded(&inst, 1.0).is_some());
    }
}
