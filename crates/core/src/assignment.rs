//! Job→machine assignments and the shared "assign, then YDS per machine"
//! pipeline.
//!
//! For a fixed assignment the non-migratory problem decomposes into `m`
//! independent single-processor problems, each solved optimally by YDS.
//! Hence (a) evaluating an assignment = summing per-machine YDS energies, and
//! (b) the global non-migratory optimum = the best assignment — which is
//! exactly what makes the problem combinatorial (and NP-hard in general).

use ssp_model::{Instance, Schedule, SolveError};
use ssp_single::yds::{try_yds_schedule, yds};

/// A job→machine map, indexed like `Instance::jobs()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    machine_of: Vec<usize>,
}

impl Assignment {
    /// Wrap a machine index per job. Indices are validated against the
    /// instance at evaluation time.
    pub fn new(machine_of: Vec<usize>) -> Self {
        Assignment { machine_of }
    }

    /// Machine of job `i`.
    #[inline]
    pub fn machine_of(&self, i: usize) -> usize {
        self.machine_of[i]
    }

    /// The raw map.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.machine_of
    }

    /// Number of jobs covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.machine_of.len()
    }

    /// True when no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machine_of.is_empty()
    }

    /// Job indices grouped per machine (length = `machines`).
    pub fn groups(&self, machines: usize) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); machines];
        for (i, &p) in self.machine_of.iter().enumerate() {
            assert!(
                p < machines,
                "job {i} assigned to machine {p} of {machines}"
            );
            groups[p].push(i);
        }
        groups
    }
}

/// Optimal energy of an assignment: sum of per-machine YDS energies.
///
/// One scratch job buffer is reused across machines (no per-group
/// allocation); the kernel behind [`yds`] is the fast pruned peel, so this
/// is also the cheapest way to price a one-off assignment. Searches that
/// price many *related* assignments should use [`crate::eval::YdsEval`]
/// instead, which additionally memoizes per-machine energies.
pub fn assignment_energy(instance: &Instance, assignment: &Assignment) -> f64 {
    assert_eq!(
        assignment.len(),
        instance.len(),
        "assignment length mismatch"
    );
    let mut scratch = Vec::new();
    assignment
        .groups(instance.machines())
        .into_iter()
        .map(|group| {
            scratch.clear();
            scratch.extend(group.iter().map(|&i| *instance.job(i)));
            yds(&scratch, instance.alpha()).energy
        })
        .sum()
}

/// Materialize the optimal schedule for an assignment: YDS + EDF on each
/// machine, merged. Panics where [`try_assignment_schedule`] fails.
pub fn assignment_schedule(instance: &Instance, assignment: &Assignment) -> Schedule {
    try_assignment_schedule(instance, assignment).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`assignment_schedule`]: speeds are unbounded, so the schedule
/// exists whenever f64 can write it down; a machine whose YDS speeds
/// overflow is a [`SolveError::Numeric`] (see [`try_yds_schedule`]).
pub fn try_assignment_schedule(
    instance: &Instance,
    assignment: &Assignment,
) -> Result<Schedule, SolveError> {
    let _span = ssp_probe::span("assign.schedule");
    assert_eq!(
        assignment.len(),
        instance.len(),
        "assignment length mismatch"
    );
    let mut merged = Schedule::new(instance.machines());
    for (machine, group) in assignment
        .groups(instance.machines())
        .into_iter()
        .enumerate()
    {
        if group.is_empty() {
            continue;
        }
        let jobs: Vec<_> = group.iter().map(|&i| *instance.job(i)).collect();
        let (_, schedule) = try_yds_schedule(&jobs, instance.alpha(), machine)?;
        for &seg in schedule.segments() {
            merged.push(seg);
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::schedule::ValidationOptions;
    use ssp_model::{Instance, Job};

    fn inst() -> Instance {
        Instance::new(
            vec![
                Job::new(0, 1.0, 0.0, 1.0),
                Job::new(1, 1.0, 0.0, 1.0),
                Job::new(2, 2.0, 1.0, 3.0),
            ],
            2,
            2.0,
        )
        .unwrap()
    }

    #[test]
    fn energy_sums_per_machine_yds() {
        let instance = inst();
        // Jobs 0,1 together on machine 0 (speed 2 each in [0,1]), job 2 alone.
        let a = Assignment::new(vec![0, 0, 1]);
        // machine 0: two unit jobs in [0,1] => speed 2, E = 2 * 1 * 2 = 4.
        // machine 1: w=2 over [1,3] => speed 1, E = 2.
        assert!((assignment_energy(&instance, &a) - 6.0).abs() < 1e-9);

        // Splitting jobs 0,1 across machines is cheaper: 1 + 1 + 2 = 4.
        let b = Assignment::new(vec![0, 1, 0]);
        assert!((assignment_energy(&instance, &b) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_matches_energy_and_is_non_migratory() {
        let instance = inst();
        let a = Assignment::new(vec![0, 1, 0]);
        let s = assignment_schedule(&instance, &a);
        let stats = s
            .validate(&instance, ValidationOptions::non_migratory())
            .unwrap();
        assert!((stats.energy - assignment_energy(&instance, &a)).abs() < 1e-9);
        // Each job sits on its assigned machine.
        for seg in s.segments() {
            let i = instance.index_of(seg.job).unwrap();
            assert_eq!(seg.machine, a.machine_of(i));
        }
    }

    #[test]
    fn groups_partition_jobs() {
        let a = Assignment::new(vec![1, 0, 1, 1]);
        let g = a.groups(2);
        assert_eq!(g[0], vec![1]);
        assert_eq!(g[1], vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "assigned to machine")]
    fn rejects_out_of_range_machine() {
        let a = Assignment::new(vec![5, 0, 0]);
        assignment_energy(&inst(), &a);
    }

    #[test]
    fn empty_machines_are_free() {
        let instance = Instance::new(vec![Job::new(0, 1.0, 0.0, 2.0)], 4, 2.0).unwrap();
        let a = Assignment::new(vec![2]);
        assert!((assignment_energy(&instance, &a) - 0.5).abs() < 1e-9);
        let s = assignment_schedule(&instance, &a);
        assert!(s.segments().iter().all(|g| g.machine == 2));
    }
}
