//! The canonical decomposition of the time axis.
//!
//! Let `T = {t_0 < t_1 < ... < t_L}` be the sorted set of all release dates
//! and deadlines. The *elementary intervals* are `I_j = [t_{j-1}, t_j]`.
//! Inside an elementary interval the alive set `A(j)` (jobs whose span
//! contains `I_j`) is constant, which is what makes flow formulations and
//! KKT bookkeeping finite. A job is alive on one contiguous run of
//! elementary intervals, its *window*; [`IntervalSet`] stores the
//! breakpoints and each job's window, the one stored form of the alive
//! relation, and derives the per-interval job lists on demand.

use crate::job::Job;
use crate::Time;
use std::ops::Range;

/// The elementary intervals of a job set and each job's window of them.
///
/// Job indices refer to positions in the slice the set was built from (which
/// for [`crate::Instance`]-derived sets is the instance's internal indexing).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSet {
    /// The breakpoints `t_0 < … < t_L`: interval `j` is
    /// `[points[j], points[j + 1]]`.
    points: Vec<Time>,
    /// `windows[i] = (first, end)`: job `i` is alive on intervals
    /// `first..end` (empty for a job with `r == d`).
    windows: Vec<(usize, usize)>,
}

impl IntervalSet {
    /// Build the decomposition for a job slice.
    pub fn from_jobs(jobs: &[Job]) -> Self {
        Self::from_jobs_with_points(jobs, &[])
    }

    /// Build the decomposition with additional breakpoints (e.g. machine
    /// downtime boundaries): extra points strictly inside the horizon split
    /// the elementary intervals further; points outside are ignored.
    ///
    /// The breakpoints are all releases and deadlines, sorted, exact
    /// duplicates removed. (Values that differ only by floating noise are
    /// kept distinct — generators in this workspace produce exact
    /// breakpoints.)
    pub fn from_jobs_with_points(jobs: &[Job], extra: &[Time]) -> Self {
        let mut points: Vec<Time> = jobs.iter().flat_map(|j| [j.release, j.deadline]).collect();
        points.sort_by(f64::total_cmp);
        points.dedup();
        if let (Some(&lo), Some(&hi)) = (points.first(), points.last()) {
            points.extend(extra.iter().filter(|&&p| p > lo && p < hi));
            points.sort_by(f64::total_cmp);
            points.dedup();
        }
        // A job's span is a contiguous run of elementary intervals; find the
        // run with binary search rather than scanning all L intervals per job.
        let index = |t: Time| match points.binary_search_by(|p| p.total_cmp(&t)) {
            Ok(k) => k,
            Err(_) => unreachable!("releases and deadlines are breakpoints by construction"),
        };
        let windows = jobs
            .iter()
            .map(|job| (index(job.release), index(job.deadline)))
            .collect();
        IntervalSet { points, windows }
    }

    /// Number of elementary intervals `L`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// `true` when there are no intervals (empty job set).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounds `[start, end]` of interval `j`.
    #[inline]
    pub fn bounds(&self, j: usize) -> (Time, Time) {
        (self.points[j], self.points[j + 1])
    }

    /// Length `|I_j|`.
    #[inline]
    pub fn length(&self, j: usize) -> Time {
        self.points[j + 1] - self.points[j]
    }

    /// Job `i`'s window: the intervals covered by its span.
    #[inline]
    pub fn intervals_of(&self, i: usize) -> Range<usize> {
        let (first, end) = self.windows[i];
        first..end
    }

    /// The jobs alive throughout each interval, in ascending job order:
    /// the windows transposed, built on each call.
    pub fn alive_lists(&self) -> Vec<Vec<usize>> {
        let mut alive = vec![Vec::new(); self.len()];
        for (i, &(first, end)) in self.windows.iter().enumerate() {
            for jobs in &mut alive[first..end] {
                jobs.push(i);
            }
        }
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use ssp_prng::{check, Rng, StdRng};

    fn jobs3() -> Vec<Job> {
        vec![
            Job::new(0, 1.0, 0.0, 4.0),
            Job::new(1, 1.0, 1.0, 2.0),
            Job::new(2, 1.0, 2.0, 5.0),
        ]
    }

    #[test]
    fn breakpoints_sort_and_dedup() {
        let s = IntervalSet::from_jobs(&jobs3());
        assert_eq!(s.points, [0.0, 1.0, 2.0, 4.0, 5.0]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_set_has_no_intervals() {
        let s = IntervalSet::from_jobs(&[]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.alive_lists().is_empty());
    }

    #[test]
    fn alive_sets_match_definition() {
        let jobs = jobs3();
        let s = IntervalSet::from_jobs(&jobs);
        assert_eq!(s.len(), 4);
        // I_0=[0,1]: only job 0. I_1=[1,2]: jobs 0,1. I_2=[2,4]: jobs 0,2.
        // I_3=[4,5]: job 2.
        assert_eq!(s.alive_lists(), [vec![0], vec![0, 1], vec![0, 2], vec![2]]);
        assert_eq!(s.intervals_of(0), 0..3);
        assert_eq!(s.intervals_of(1), 1..2);
        assert_eq!(s.intervals_of(2), 2..4);
    }

    /// A job set whose releases, deadlines and extra points come from a
    /// small grid of eighths, so they coincide often: duplicate
    /// breakpoints, shared releases and deadlines, zero-width jobs
    /// (`r == d`). Some extra points fall off the grid, inside and outside
    /// the horizon.
    fn random_job_set(rng: &mut StdRng) -> (Vec<Job>, Vec<Time>) {
        let grid: Vec<Time> = (0..rng.gen_range(1usize..8))
            .map(|_| rng.gen_range(0u32..64) as Time / 8.0 - 4.0)
            .collect();
        let on_grid = |rng: &mut StdRng| grid[rng.gen_range(0..grid.len())];
        let jobs = (0..rng.gen_range(0u32..12))
            .map(|id| {
                let (a, b) = (on_grid(rng), on_grid(rng));
                Job::new(id, 1.0, a.min(b), a.max(b))
            })
            .collect();
        let extra = check::vec_of(rng, 0..6, |rng| {
            if rng.gen_bool(0.5) {
                on_grid(rng)
            } else {
                rng.gen_range(-6.0f64..6.0)
            }
        });
        (jobs, extra)
    }

    /// On random job sets, every window is exactly the set of intervals
    /// inside the job's span, the alive lists are the windows transposed in
    /// ascending job order, and a window's lengths sum to its job's span.
    #[test]
    fn alive_is_consistent_both_directions() {
        check::cases(256, 0x1A7E_5E75, |rng| {
            let (jobs, extra) = random_job_set(rng);
            let s = IntervalSet::from_jobs_with_points(&jobs, &extra);
            assert!(s.points.windows(2).all(|w| w[0] < w[1]), "{:?}", s.points);
            // An extra point is a breakpoint iff it lies strictly inside
            // the horizon or is a release or deadline anyway.
            let lo = jobs
                .iter()
                .map(|j| j.release)
                .fold(Time::INFINITY, Time::min);
            let hi = jobs
                .iter()
                .map(|j| j.deadline)
                .fold(Time::NEG_INFINITY, Time::max);
            for &p in &extra {
                let own = jobs.iter().any(|j| j.release == p || j.deadline == p);
                assert_eq!(
                    s.points.contains(&p),
                    own || (lo < p && p < hi),
                    "extra {p}"
                );
            }
            for (i, job) in jobs.iter().enumerate() {
                let inside: Vec<usize> = (0..s.len())
                    .filter(|&j| {
                        let (a, b) = s.bounds(j);
                        job.release <= a && b <= job.deadline
                    })
                    .collect();
                assert_eq!(s.intervals_of(i).collect::<Vec<_>>(), inside, "job {i}");
                let covered: Time = s.intervals_of(i).map(|j| s.length(j)).sum();
                assert!(
                    (covered - job.span()).abs() <= 1e-12 * job.span(),
                    "job {i}: {covered} vs {}",
                    job.span()
                );
            }
            let alive = s.alive_lists();
            assert_eq!(alive.len(), s.len());
            for (j, jobs_alive) in alive.iter().enumerate() {
                let expected: Vec<usize> = (0..jobs.len())
                    .filter(|&i| s.intervals_of(i).contains(&j))
                    .collect();
                assert_eq!(jobs_alive, &expected, "interval {j}");
            }
        });
    }

    #[test]
    fn lengths_and_bounds() {
        let s = IntervalSet::from_jobs(&jobs3());
        assert_eq!(s.bounds(2), (2.0, 4.0));
        assert_eq!(s.length(2), 2.0);
        assert_eq!(s.bounds(3), (4.0, 5.0));
    }

    #[test]
    fn extra_points_split_intervals() {
        let jobs = vec![Job::new(0, 1.0, 0.0, 4.0)];
        let s = IntervalSet::from_jobs_with_points(&jobs, &[1.0, 2.5, -3.0, 9.0, 2.5]);
        // Outside-horizon and duplicate points ignored: [0,1],[1,2.5],[2.5,4].
        assert_eq!(s.len(), 3);
        assert_eq!(s.bounds(1), (1.0, 2.5));
        // The job is alive in all three pieces.
        assert_eq!(s.intervals_of(0), 0..3);
        // Span coverage unchanged.
        let covered: f64 = (0..s.len()).map(|j| s.length(j)).sum();
        assert!((covered - 4.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_breakpoints_collapse() {
        let jobs = vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 1.0)];
        let s = IntervalSet::from_jobs(&jobs);
        assert_eq!(s.len(), 1);
        assert_eq!(s.alive_lists(), [vec![0, 1]]);
    }
}
