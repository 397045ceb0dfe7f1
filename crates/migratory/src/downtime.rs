//! Machine downtime (maintenance windows).
//!
//! Real clusters drain machines for maintenance; the paper's model assumes
//! permanent availability. The WAP capacity machinery absorbs downtime
//! naturally: downtime boundaries become extra interval breakpoints, and an
//! interval's processor-time capacity drops from `m·|I_j|` to
//! `(m − down_j)·|I_j|` where `down_j` counts machines down throughout it.
//! BAL then runs unchanged over the custom capacities
//! ([`crate::bal::bal_with_wap`]).
//!
//! Schedule assembly maps McNaughton's logical machines onto the *up*
//! machines of each interval, so the emitted schedule never touches a
//! machine during its maintenance window.
//!
//! Caveat: the KKT certificate of [`crate::kkt`] encodes full availability
//! (its property 5 assumes `m` processors everywhere) and does not apply
//! under downtime; tests instead verify feasibility, work conservation,
//! downtime avoidance, and monotonicity (downtime never reduces energy).

use crate::bal::{bal_with_wap, BalSolution};
use crate::mcnaughton::mcnaughton;
use crate::wap::Wap;
use ssp_model::{Instance, IntervalSet, Schedule, Segment};

/// One maintenance window: `machine` is unavailable during `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Downtime {
    /// Machine index in `0..m`.
    pub machine: usize,
    /// Window start.
    pub start: f64,
    /// Window end (`> start`).
    pub end: f64,
}

/// Migratory optimum under maintenance windows, or `None` if some job's
/// entire span is blacked out (then no speed can save it). The solution's
/// interval set is the downtime-refined decomposition.
pub fn bal_with_downtime(
    instance: &Instance,
    downtimes: &[Downtime],
) -> Option<(BalSolution, Schedule)> {
    let m = instance.machines();
    for d in downtimes {
        assert!(d.machine < m, "downtime on unknown machine {}", d.machine);
        assert!(d.end > d.start, "empty downtime window");
    }
    if instance.is_empty() {
        let (wap, intervals) = Wap::from_instance(instance);
        let sol = bal_with_wap(instance, wap, intervals);
        let schedule = Schedule::new(m);
        return Some((sol, schedule));
    }

    // Refine the decomposition at downtime boundaries.
    let mut extra: Vec<f64> = Vec::with_capacity(downtimes.len() * 2);
    for d in downtimes {
        extra.push(d.start);
        extra.push(d.end);
    }
    let intervals = IntervalSet::from_jobs_with_points(instance.jobs(), &extra);

    // Per-interval up-machine lists (downtime covers whole refined
    // intervals by construction; overlap testing uses the midpoint).
    let up_machines: Vec<Vec<usize>> = (0..intervals.len())
        .map(|j| {
            let (a, b) = intervals.bounds(j);
            let mid = 0.5 * (a + b);
            (0..m)
                .filter(|&machine| {
                    !downtimes
                        .iter()
                        .any(|d| d.machine == machine && d.start < mid && mid < d.end)
                })
                .collect()
        })
        .collect();

    let capacity = up_machines
        .iter()
        .enumerate()
        .map(|(j, up)| up.len() as f64 * intervals.length(j))
        .collect();
    let wap = Wap::over(instance, &intervals, capacity);

    // Feasibility: every job needs some open capacity.
    for i in 0..instance.len() {
        if wap.open_time_of(i) <= 0.0 {
            return None;
        }
    }

    let sol = bal_with_wap(instance, wap, intervals);

    // Assemble: McNaughton per interval on the interval's up machines.
    let mut per_interval: Vec<Vec<(ssp_model::JobId, f64, f64)>> =
        vec![Vec::new(); sol.intervals.len()];
    for (i, allot) in sol.allotments.iter().enumerate() {
        for &(j, t) in allot {
            if t > 0.0 {
                per_interval[j].push((instance.job(i).id, t, sol.speeds.get(i)));
            }
        }
    }
    let mut schedule = Schedule::new(m);
    for (j, pieces) in per_interval.iter().enumerate() {
        if pieces.is_empty() {
            continue;
        }
        let up = &up_machines[j];
        let mut scratch = Schedule::new(up.len());
        mcnaughton(sol.intervals.bounds(j), up.len(), pieces, &mut scratch);
        for seg in scratch.segments() {
            schedule.push(Segment {
                machine: up[seg.machine],
                ..*seg
            });
        }
    }
    Some((sol, schedule))
}

/// Does any segment of the schedule run on a machine during its downtime?
/// (Validation helper for tests and callers.)
pub fn violates_downtime(schedule: &Schedule, downtimes: &[Downtime]) -> bool {
    schedule.segments().iter().any(|seg| {
        downtimes.iter().any(|d| {
            d.machine == seg.machine && seg.start < d.end - 1e-12 && d.start < seg.end - 1e-12
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bal::bal;
    use ssp_model::{Instance, Job};
    use ssp_workloads::families;

    fn inst(jobs: Vec<Job>, m: usize) -> Instance {
        Instance::new(jobs, m, 2.0).unwrap()
    }

    #[test]
    fn no_downtime_matches_plain_bal() {
        let instance = families::general(10, 2, 2.0).gen(3);
        let plain = bal(&instance).energy;
        let (sol, schedule) = bal_with_downtime(&instance, &[]).unwrap();
        assert!((sol.energy - plain).abs() <= 1e-9 * plain);
        schedule.validate(&instance, Default::default()).unwrap();
    }

    #[test]
    fn downtime_never_reduces_energy() {
        let instance = families::general(12, 3, 2.0).gen(5);
        let (lo, hi) = instance.horizon().unwrap();
        let mid = 0.5 * (lo + hi);
        let plain = bal(&instance).energy;
        let mut prev = plain;
        for frac in [0.1, 0.3, 0.6] {
            let d = Downtime {
                machine: 0,
                start: mid,
                end: mid + frac * (hi - mid),
            };
            let (sol, schedule) = bal_with_downtime(&instance, &[d]).unwrap();
            assert!(
                sol.energy >= prev * (1.0 - 1e-9),
                "longer downtime got cheaper: {} after {prev}",
                sol.energy
            );
            prev = sol.energy;
            let stats = schedule.validate(&instance, Default::default()).unwrap();
            assert!((stats.energy - sol.energy).abs() <= 1e-6 * sol.energy);
            assert!(
                !violates_downtime(&schedule, &[d]),
                "ran during maintenance"
            );
        }
        assert!(prev >= plain * (1.0 - 1e-9));
    }

    #[test]
    fn single_machine_downtime_forces_a_sprint() {
        // One machine, job [0,2] w=2; machine down [1,2]: all work must fit
        // in [0,1] at speed 2 instead of speed 1.
        let instance = inst(vec![Job::new(0, 2.0, 0.0, 2.0)], 1);
        let d = Downtime {
            machine: 0,
            start: 1.0,
            end: 2.0,
        };
        let (sol, schedule) = bal_with_downtime(&instance, &[d]).unwrap();
        assert!((sol.speeds.get(0) - 2.0).abs() < 1e-8);
        assert!((sol.energy - 4.0).abs() < 1e-6); // E = w*s^(a-1) = 2*2
        assert!(!violates_downtime(&schedule, &[d]));
        schedule.validate(&instance, Default::default()).unwrap();
    }

    #[test]
    fn total_blackout_is_infeasible() {
        let instance = inst(vec![Job::new(0, 1.0, 0.0, 1.0)], 1);
        let d = Downtime {
            machine: 0,
            start: 0.0,
            end: 1.0,
        };
        assert!(bal_with_downtime(&instance, &[d]).is_none());
    }

    #[test]
    fn work_shifts_to_the_up_machine() {
        // Two machines, one busy window; machine 1 down the whole time:
        // behaves exactly like m = 1.
        let jobs = vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 1.0)];
        let two = inst(jobs.clone(), 2);
        let d = Downtime {
            machine: 1,
            start: 0.0,
            end: 1.0,
        };
        let (sol, schedule) = bal_with_downtime(&two, &[d]).unwrap();
        let one = bal(&inst(jobs, 1)).energy;
        assert!((sol.energy - one).abs() <= 1e-6 * one);
        assert!(schedule.segments().iter().all(|s| s.machine == 0));
    }

    #[test]
    fn overlapping_downtimes_on_different_machines() {
        let instance = families::general(8, 3, 2.0).gen(9);
        let (lo, hi) = instance.horizon().unwrap();
        let span = hi - lo;
        let ds = vec![
            Downtime {
                machine: 0,
                start: lo + 0.2 * span,
                end: lo + 0.5 * span,
            },
            Downtime {
                machine: 1,
                start: lo + 0.4 * span,
                end: lo + 0.7 * span,
            },
        ];
        let (sol, schedule) = bal_with_downtime(&instance, &ds).unwrap();
        assert!(sol.energy >= bal(&instance).energy * (1.0 - 1e-9));
        assert!(!violates_downtime(&schedule, &ds));
        schedule.validate(&instance, Default::default()).unwrap();
    }

    #[test]
    fn violates_downtime_detects_real_violations() {
        let mut s = Schedule::new(2);
        s.run(ssp_model::JobId(0), 0, 0.0, 1.0, 1.0);
        let d = Downtime {
            machine: 0,
            start: 0.5,
            end: 0.8,
        };
        assert!(violates_downtime(&s, &[d]));
        let clear = Downtime {
            machine: 1,
            start: 0.5,
            end: 0.8,
        };
        assert!(!violates_downtime(&s, &[clear]));
        let adjacent = Downtime {
            machine: 0,
            start: 1.0,
            end: 2.0,
        };
        assert!(!violates_downtime(&s, &[adjacent]));
    }
}
