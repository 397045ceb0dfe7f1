//! Explicit schedules and the audited validator.
//!
//! A [`Schedule`] is a bag of [`Segment`]s — "job `i` runs on machine `p`
//! during `[a, b]` at speed `s`". All algorithm crates produce this type, and
//! all experimental claims about energy/feasibility are made through
//! [`Schedule::validate`] / [`Schedule::energy`], so there is exactly one
//! arbiter of correctness in the workspace.

use crate::error::ValidationError;
use crate::instance::Instance;
use crate::job::JobId;
use crate::numeric::{pow_alpha, Tol};
use crate::Time;
use std::collections::HashMap;

/// One maximal piece of uninterrupted execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The job being executed.
    pub job: JobId,
    /// Machine index in `0..m`.
    pub machine: usize,
    /// Start instant.
    pub start: Time,
    /// End instant (`> start`).
    pub end: Time,
    /// Constant execution speed over the segment (`> 0`).
    pub speed: f64,
}

impl Segment {
    /// Duration `end - start`.
    #[inline]
    pub fn len(&self) -> Time {
        self.end - self.start
    }

    /// Work processed: `speed * len`.
    #[inline]
    pub fn work(&self) -> f64 {
        self.speed * self.len()
    }

    /// Energy consumed: `speed^alpha * len`.
    #[inline]
    pub fn energy(&self, alpha: f64) -> f64 {
        pow_alpha(self.speed, alpha) * self.len()
    }
}

/// Options for [`Schedule::validate`].
#[derive(Debug, Clone, Copy)]
pub struct ValidationOptions {
    /// Tolerance for window containment / overlap checks.
    pub tol: Tol,
    /// Tolerance for per-job total-work conservation (accumulated quantity,
    /// hence looser by default).
    pub work_tol: Tol,
    /// Additionally require every job to stay on a single machine
    /// (the non-migratory model of the target paper).
    pub require_non_migratory: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            tol: Tol::default(),
            work_tol: Tol::loose(),
            require_non_migratory: false,
        }
    }
}

impl ValidationOptions {
    /// Default options plus the non-migratory requirement.
    pub fn non_migratory() -> Self {
        ValidationOptions {
            require_non_migratory: true,
            ..Default::default()
        }
    }
}

/// Summary statistics returned by a successful validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// Total energy `Σ s^alpha · len`.
    pub energy: f64,
    /// Last completion instant (0 for empty schedules).
    pub makespan: Time,
    /// Number of job resumptions on a *different* machine.
    pub migrations: usize,
    /// Number of interruptions (resumption after a gap or on another machine).
    pub preemptions: usize,
    /// Busy time per machine.
    pub busy: Vec<Time>,
    /// Fastest speed used anywhere.
    pub max_speed: f64,
}

/// An explicit multiprocessor schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    machines: usize,
    segments: Vec<Segment>,
}

impl Schedule {
    /// An empty schedule on `machines` machines.
    pub fn new(machines: usize) -> Self {
        Schedule {
            machines,
            segments: Vec::new(),
        }
    }

    /// Build from pre-existing segments.
    pub fn from_segments(machines: usize, segments: Vec<Segment>) -> Self {
        Schedule { machines, segments }
    }

    /// Append one segment. Zero/negative-length segments are silently dropped
    /// so producers can emit degenerate pieces without special-casing.
    pub fn push(&mut self, seg: Segment) {
        if seg.end > seg.start {
            self.segments.push(seg);
        }
    }

    /// Convenience for `push(Segment { .. })`.
    pub fn run(&mut self, job: JobId, machine: usize, start: Time, end: Time, speed: f64) {
        self.push(Segment {
            job,
            machine,
            start,
            end,
            speed,
        });
    }

    /// The machine count this schedule believes it uses.
    #[inline]
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// All segments, in insertion order.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// `true` if no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total energy under power `s^alpha`. Folds from `+0.0`: the `f64`
    /// `Sum` of an empty iterator is `-0.0`, which would print as `-0`.
    pub fn energy(&self, alpha: f64) -> f64 {
        self.segments
            .iter()
            .fold(0.0, |acc, s| acc + s.energy(alpha))
    }

    /// Total work scheduled for one job.
    pub fn work_of(&self, job: JobId) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.job == job)
            .map(|s| s.work())
            .sum()
    }

    /// Latest end instant (0 when empty).
    pub fn makespan(&self) -> Time {
        self.segments.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Busy time of each machine.
    pub fn busy_times(&self) -> Vec<Time> {
        let mut busy = vec![0.0; self.machines];
        for s in &self.segments {
            if s.machine < self.machines {
                busy[s.machine] += s.len();
            }
        }
        busy
    }

    /// Merge adjacent segments of the same job on the same machine with the
    /// same speed (within `tol`), producing a minimal segment list. Sorts
    /// segments by `(machine, start)`.
    pub fn coalesce(&mut self, tol: Tol) {
        self.segments
            .sort_by(|a, b| a.machine.cmp(&b.machine).then(a.start.total_cmp(&b.start)));
        let mut out: Vec<Segment> = Vec::with_capacity(self.segments.len());
        for s in self.segments.drain(..) {
            match out.last_mut() {
                Some(last)
                    if last.machine == s.machine
                        && last.job == s.job
                        && tol.eq(last.end, s.start)
                        && tol.eq(last.speed, s.speed) =>
                {
                    last.end = s.end;
                }
                _ => out.push(s),
            }
        }
        self.segments = out;
    }

    /// Check every model constraint against `instance` and return summary
    /// statistics. See [`ValidationError`] for the violation catalogue.
    pub fn validate(
        &self,
        instance: &Instance,
        opts: ValidationOptions,
    ) -> Result<ScheduleStats, ValidationError> {
        let _span = ssp_probe::span("validate");
        ssp_probe::counter!("validate.calls");
        let tol = opts.tol;
        // Each job's scheduled work, summed in segment order from -0.0 as
        // `Iterator::sum` sums, so every total has the bits `work_of` gives.
        let mut work = vec![-0.0; instance.len()];
        // Per-segment checks.
        for s in &self.segments {
            let index = instance
                .index_of(s.job)
                .ok_or(ValidationError::UnknownJob { job: s.job.0 })?;
            let job = instance.job(index);
            work[index] += s.work();
            if s.machine >= instance.machines() {
                return Err(ValidationError::BadMachine {
                    machine: s.machine,
                    machines: instance.machines(),
                });
            }
            // NaN endpoints fail this check (the comparison is false for them).
            let increasing = s.end > s.start;
            if !increasing {
                return Err(ValidationError::EmptySegment {
                    job: s.job.0,
                    start: s.start,
                    end: s.end,
                });
            }
            let speed_ok = s.speed > 0.0 && s.speed.is_finite();
            if !speed_ok {
                return Err(ValidationError::BadSpeed {
                    job: s.job.0,
                    speed: s.speed,
                });
            }
            let scale = job.deadline.abs().max(job.release.abs()).max(1.0);
            let margin = tol.margin(scale);
            if s.start < job.release - margin || s.end > job.deadline + margin {
                return Err(ValidationError::OutsideWindow {
                    job: s.job.0,
                    start: s.start,
                    end: s.end,
                    release: job.release,
                    deadline: job.deadline,
                });
            }
        }

        // Machine-overlap check: sort per machine by start.
        let mut by_machine: Vec<Vec<&Segment>> = vec![Vec::new(); self.machines.max(1)];
        for s in &self.segments {
            by_machine[s.machine].push(s);
        }
        for (machine, segs) in by_machine.iter_mut().enumerate() {
            segs.sort_by(|a, b| a.start.total_cmp(&b.start));
            for w in segs.windows(2) {
                let margin = tol.margin(w[0].end.abs().max(1.0));
                if w[1].start < w[0].end - margin {
                    return Err(ValidationError::MachineOverlap {
                        machine,
                        job_a: w[0].job.0,
                        job_b: w[1].job.0,
                        at: w[1].start,
                    });
                }
            }
        }

        // Self-overlap (parallel execution of one job) across machines, plus
        // migration/preemption counting.
        let mut by_job: HashMap<JobId, Vec<&Segment>> = HashMap::new();
        for s in &self.segments {
            by_job.entry(s.job).or_default().push(s);
        }
        let mut migrations = 0usize;
        let mut preemptions = 0usize;
        for (job, segs) in by_job.iter_mut() {
            segs.sort_by(|a, b| a.start.total_cmp(&b.start));
            for w in segs.windows(2) {
                let margin = tol.margin(w[0].end.abs().max(1.0));
                if w[1].start < w[0].end - margin {
                    return Err(ValidationError::SelfOverlap {
                        job: job.0,
                        at: w[1].start,
                    });
                }
                let moved = w[0].machine != w[1].machine;
                if moved {
                    migrations += 1;
                    if opts.require_non_migratory {
                        return Err(ValidationError::Migrated {
                            job: job.0,
                            machine_a: w[0].machine,
                            machine_b: w[1].machine,
                        });
                    }
                }
                if moved || w[1].start > w[0].end + margin {
                    preemptions += 1;
                }
            }
        }

        // Work conservation per job (also catches completely unscheduled jobs).
        for (job, &scheduled) in instance.jobs().iter().zip(&work) {
            if !opts.work_tol.eq(scheduled, job.work) {
                return Err(ValidationError::WorkMismatch {
                    job: job.id.0,
                    scheduled,
                    required: job.work,
                });
            }
        }

        Ok(ScheduleStats {
            energy: self.energy(instance.alpha()),
            makespan: self.makespan(),
            migrations,
            preemptions,
            busy: self.busy_times(),
            max_speed: self.segments.iter().map(|s| s.speed).fold(0.0, f64::max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn inst2() -> Instance {
        Instance::new(
            vec![Job::new(0, 1.0, 0.0, 2.0), Job::new(1, 2.0, 0.0, 2.0)],
            2,
            2.0,
        )
        .unwrap()
    }

    #[test]
    fn empty_schedule_energy_is_positive_zero() {
        let e = Schedule::new(2).energy(2.0);
        assert_eq!(e.to_bits(), 0.0f64.to_bits(), "energy {e}");
    }

    #[test]
    fn valid_schedule_passes_and_reports_stats() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 2.0, 0.5);
        s.run(JobId(1), 1, 0.0, 2.0, 1.0);
        let stats = s
            .validate(&inst, ValidationOptions::non_migratory())
            .unwrap();
        // E = 2*0.25 + 2*1 = 2.5 at alpha=2.
        assert!((stats.energy - 2.5).abs() < 1e-12);
        assert_eq!(stats.makespan, 2.0);
        assert_eq!(stats.migrations, 0);
        assert_eq!(stats.preemptions, 0);
        assert_eq!(stats.busy, vec![2.0, 2.0]);
        assert_eq!(stats.max_speed, 1.0);
    }

    #[test]
    fn rejects_unknown_job_and_bad_machine() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        s.run(JobId(9), 0, 0.0, 1.0, 1.0);
        assert!(matches!(
            s.validate(&inst, Default::default()),
            Err(ValidationError::UnknownJob { job: 9 })
        ));

        let mut s = Schedule::new(2);
        s.run(JobId(0), 5, 0.0, 1.0, 1.0);
        assert!(matches!(
            s.validate(&inst, Default::default()),
            Err(ValidationError::BadMachine {
                machine: 5,
                machines: 2
            })
        ));
    }

    #[test]
    fn rejects_window_violation() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 2.5, 0.4); // past deadline 2.0
        assert!(matches!(
            s.validate(&inst, Default::default()),
            Err(ValidationError::OutsideWindow { job: 0, .. })
        ));
    }

    #[test]
    fn rejects_machine_overlap() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 1.5, 1.0);
        s.run(JobId(1), 0, 1.0, 2.0, 2.0);
        assert!(matches!(
            s.validate(&inst, Default::default()),
            Err(ValidationError::MachineOverlap { machine: 0, .. })
        ));
    }

    #[test]
    fn rejects_parallel_self_execution() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        // Job 0 on two machines at once.
        s.run(JobId(0), 0, 0.0, 1.0, 0.5);
        s.run(JobId(0), 1, 0.5, 1.5, 0.5);
        s.run(JobId(1), 1, 1.5, 2.0, 4.0);
        assert!(matches!(
            s.validate(&inst, Default::default()),
            Err(ValidationError::SelfOverlap { job: 0, .. })
        ));
    }

    #[test]
    fn rejects_work_mismatch_and_missing_job() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 2.0, 0.5);
        // Job 1 never scheduled.
        assert!(matches!(
            s.validate(&inst, Default::default()),
            Err(ValidationError::WorkMismatch { job: 1, .. })
        ));
    }

    /// The work check sums each job's segments in one pass; its totals are
    /// `work_of`'s to the bit, in passing and failing verdicts alike.
    #[test]
    fn work_check_matches_work_of_on_many_segments() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 3.0, 0.0, 30.0)).collect();
        let inst = Instance::new(jobs, 4, 2.0).unwrap();
        for short in [None, Some(2u32)] {
            let mut s = Schedule::new(4);
            for i in 0..4u32 {
                // 30 unit slots at speed 0.1 carry work 3 in sums that round.
                let slots = if short == Some(i) { 29 } else { 30 };
                for k in 0..slots {
                    let start = k as f64;
                    s.run(JobId(i), i as usize, start, start + 1.0, 0.1);
                }
            }
            match s.validate(&inst, Default::default()) {
                Ok(_) => assert_eq!(short, None),
                Err(ValidationError::WorkMismatch { job, scheduled, .. }) => {
                    assert_eq!(Some(job), short);
                    assert_eq!(scheduled.to_bits(), s.work_of(JobId(job)).to_bits());
                }
                Err(e) => panic!("unexpected verdict {e:?}"),
            }
        }
    }

    #[test]
    fn migration_allowed_unless_required_not_to() {
        let inst = inst2();
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 1.0, 0.5);
        s.run(JobId(0), 1, 1.0, 2.0, 0.5);
        s.run(JobId(1), 1, 0.0, 1.0, 1.0);
        s.run(JobId(1), 0, 1.0, 2.0, 1.0);
        let stats = s.validate(&inst, Default::default()).unwrap();
        assert_eq!(stats.migrations, 2);
        assert_eq!(stats.preemptions, 2);
        assert!(matches!(
            s.validate(&inst, ValidationOptions::non_migratory()),
            Err(ValidationError::Migrated { .. })
        ));
    }

    #[test]
    fn zero_length_pushes_are_dropped() {
        let mut s = Schedule::new(1);
        s.run(JobId(0), 0, 1.0, 1.0, 1.0);
        assert!(s.is_empty());
    }

    #[test]
    fn coalesce_merges_contiguous_equal_speed_runs() {
        let mut s = Schedule::new(1);
        s.run(JobId(0), 0, 0.0, 1.0, 2.0);
        s.run(JobId(0), 0, 1.0, 2.0, 2.0);
        s.run(JobId(0), 0, 2.0, 3.0, 1.0); // speed change: kept separate
        s.coalesce(Tol::default());
        assert_eq!(s.len(), 2);
        assert_eq!(s.segments()[0].end, 2.0);
        // Energy must be unchanged by coalescing.
        assert!((s.energy(2.0) - (2.0 * 4.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn preemption_counts_gap_on_same_machine() {
        let inst = Instance::new(vec![Job::new(0, 1.0, 0.0, 4.0)], 1, 2.0).unwrap();
        let mut s = Schedule::new(1);
        s.run(JobId(0), 0, 0.0, 1.0, 0.5);
        s.run(JobId(0), 0, 3.0, 4.0, 0.5);
        let stats = s.validate(&inst, Default::default()).unwrap();
        assert_eq!(stats.preemptions, 1);
        assert_eq!(stats.migrations, 0);
    }

    #[test]
    fn energy_sums_segments() {
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 2.0, 3.0);
        s.run(JobId(1), 1, 0.0, 1.0, 2.0);
        // alpha=3: 2*27 + 1*8 = 62.
        assert!((s.energy(3.0) - 62.0).abs() < 1e-12);
        assert_eq!(s.work_of(JobId(0)), 6.0);
        assert_eq!(s.work_of(JobId(1)), 2.0);
        assert_eq!(s.work_of(JobId(7)), 0.0);
    }
}
