//! RelaxRound — relax-and-round for unit-work jobs with arbitrary windows
//! (the paper's R2 regime, where the problem is NP-hard).
//!
//! Outline (the paper's `2(2-1/m)^α` technique: convert a relaxed optimum
//! into a non-migratory assignment by list scheduling, then re-optimize):
//!
//! 1. **Relax**: drop the no-migration constraint and solve optimally with
//!    BAL. This yields per-job speeds `s_i` — and the certified lower bound
//!    `E_mig ≤ OPT_nonmig` used by the experiments. A caller that already
//!    holds that BAL solution (the harness's lower bound, an experiment's
//!    ratio denominator) passes its speeds to [`round_relaxation`] instead
//!    of solving it again; [`relax_round`] runs BAL itself.
//! 2. **Round**: walk jobs in earliest-deadline order and put each on the
//!    machine with the least accumulated processing time (`p_i = w_i/s_i`)
//!    *inside the job's window* — the Graham `(2 − 1/m)` step specialized to
//!    window overlap.
//! 3. **Re-optimize**: per-machine YDS (never hurts, often recovers most of
//!    the rounding loss). This step is implicit: pricing or scheduling the
//!    returned assignment (`assignment_energy` / `assignment_schedule`,
//!    or [`crate::eval::YdsEval`] when a search keeps refining it) runs the
//!    fast per-machine YDS kernel.
//!
//! The measured ratio versus the migratory lower bound is reported by EXP-3
//! and stays well under `2(2-1/m)^α` on every family we generate.

use crate::assignment::Assignment;
use ssp_migratory::bal::bal;
use ssp_model::{Instance, SpeedAssignment};

/// Placement order used by the rounding step — an ablation axis (EXP-10):
/// the `(2 - 1/m)` list-scheduling argument needs *some* deterministic
/// order, and which one matters in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundingOrder {
    /// Earliest deadline first (the default; matches the EDF flavor of the
    /// paper's analysis).
    EarliestDeadline,
    /// Release order (the natural online order).
    Release,
    /// Largest relaxed processing time first (LPT-style: place the hardest
    /// jobs while machines are still empty).
    LongestRelaxedTime,
}

/// The relax-and-round assignment (see module docs): BAL, then
/// [`round_relaxation`] in earliest-deadline order. Works for arbitrary
/// works too; the paper's guarantee regime is unit works.
pub fn relax_round(instance: &Instance) -> Assignment {
    round_relaxation(
        instance,
        &bal(instance).speeds,
        RoundingOrder::EarliestDeadline,
    )
}

/// Step 2 (Round) on a relaxed optimum the caller already holds: `speeds`
/// are the per-job speeds of BAL's migratory optimum of `instance`, and
/// `rounding` is the placement order (an ablation axis, EXP-10).
pub fn round_relaxation(
    instance: &Instance,
    speeds: &SpeedAssignment,
    rounding: RoundingOrder,
) -> Assignment {
    let p: Vec<f64> = (0..instance.len())
        .map(|i| instance.job(i).work / speeds.get(i))
        .collect();

    let mut order: Vec<usize> = (0..instance.len()).collect();
    match rounding {
        RoundingOrder::EarliestDeadline => order.sort_by(|&a, &b| {
            let (ja, jb) = (instance.job(a), instance.job(b));
            ja.deadline
                .total_cmp(&jb.deadline)
                .then(ja.release.total_cmp(&jb.release))
                .then(ja.id.cmp(&jb.id))
        }),
        RoundingOrder::Release => order.sort_by(|&a, &b| {
            let (ja, jb) = (instance.job(a), instance.job(b));
            ja.release
                .total_cmp(&jb.release)
                .then(ja.deadline.total_cmp(&jb.deadline))
                .then(ja.id.cmp(&jb.id))
        }),
        RoundingOrder::LongestRelaxedTime => order.sort_by(|&a, &b| {
            p[b].total_cmp(&p[a])
                .then(instance.job(a).id.cmp(&instance.job(b).id))
        }),
    }

    let m = instance.machines();
    let mut machine_of = vec![0usize; instance.len()];
    // Per machine, the placed jobs (to evaluate window-overlap load).
    let mut placed: Vec<Vec<usize>> = vec![Vec::new(); m];
    for &i in &order {
        let job = instance.job(i);
        let mut best = (0usize, f64::INFINITY);
        #[allow(clippy::needless_range_loop)]
        for machine in 0..m {
            // Load relevant to `i`: total relaxed processing time of placed
            // jobs whose windows overlap i's window.
            let overlap_load: f64 = placed[machine]
                .iter()
                .filter(|&&k| {
                    let other = instance.job(k);
                    other.release < job.deadline && job.release < other.deadline
                })
                .map(|&k| p[k])
                .sum();
            if overlap_load < best.1 {
                best = (machine, overlap_load);
            }
        }
        machine_of[i] = best.0;
        placed[best.0].push(i);
    }
    Assignment::new(machine_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::assignment_energy;
    use crate::exact::exact_nonmigratory;
    use ssp_model::{Instance, Job};
    use ssp_workloads::families;

    /// The paper's approximation factor for the unit-work regime.
    fn bound(m: usize, alpha: f64) -> f64 {
        2.0 * (2.0 - 1.0 / m as f64).powf(alpha)
    }

    #[test]
    fn stays_within_the_paper_bound_against_the_migratory_lb() {
        for (seed, m, alpha) in [(1u64, 2usize, 2.0), (2, 4, 2.0), (3, 2, 3.0), (4, 8, 1.5)] {
            let inst = families::unit_arbitrary(24, m, alpha).gen(seed);
            let e = assignment_energy(&inst, &relax_round(&inst));
            let lb = ssp_migratory::bal::bal(&inst).energy;
            let ratio = e / lb;
            assert!(ratio >= 1.0 - 1e-6, "ratio {ratio} below 1");
            assert!(
                ratio <= bound(m, alpha),
                "seed {seed}: ratio {ratio} exceeds paper bound {}",
                bound(m, alpha)
            );
        }
    }

    #[test]
    fn close_to_exact_on_small_instances() {
        for seed in [10u64, 20, 30] {
            let inst = families::unit_arbitrary(9, 2, 2.0).gen(seed);
            let approx = assignment_energy(&inst, &relax_round(&inst));
            let opt = exact_nonmigratory(&inst).energy;
            let ratio = approx / opt;
            assert!(ratio >= 1.0 - 1e-9, "approx beat exact: {ratio}");
            assert!(ratio <= bound(2, 2.0), "ratio {ratio} out of bound");
        }
    }

    #[test]
    fn all_jobs_assigned_within_machine_range() {
        let inst = families::unit_arbitrary(30, 5, 2.0).gen(77);
        let a = relax_round(&inst);
        assert_eq!(a.len(), 30);
        assert!(a.as_slice().iter().all(|&p| p < 5));
    }

    #[test]
    fn single_machine_is_just_yds() {
        let jobs = vec![
            Job::new(0, 1.0, 0.0, 2.0),
            Job::new(1, 1.0, 1.0, 3.0),
            Job::new(2, 1.0, 0.5, 4.0),
        ];
        let inst = Instance::new(jobs.clone(), 1, 2.0).unwrap();
        let e = assignment_energy(&inst, &relax_round(&inst));
        let yds = ssp_single::yds::yds(&jobs, 2.0).energy;
        assert!((e - yds).abs() < 1e-9);
    }

    #[test]
    fn disjoint_windows_get_spread() {
        // Two machines, pairs of simultaneous tight unit jobs: the relaxed
        // optimum needs both machines, and rounding must not pile a pair on
        // one machine.
        let jobs: Vec<Job> = (0..8)
            .map(|k| Job::new(k, 1.0, (k / 2) as f64 * 5.0, (k / 2) as f64 * 5.0 + 1.0))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let a = relax_round(&inst);
        for pair in 0..4 {
            assert_ne!(
                a.machine_of(2 * pair),
                a.machine_of(2 * pair + 1),
                "pair {pair} piled on one machine"
            );
        }
        assert!((assignment_energy(&inst, &a) - 8.0).abs() < 1e-6);
    }
}
