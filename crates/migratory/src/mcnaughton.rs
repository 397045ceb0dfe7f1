//! McNaughton's wrap-around rule.
//!
//! Inside one interval `[a, b]` of length `L`, given per-job execution times
//! `t_i` with `t_i ≤ L` and `Σ t_i ≤ m·L`, a feasible preemptive schedule on
//! `m` machines always exists: lay the jobs end to end on machine 0, and
//! whenever the timeline overflows `b`, *wrap* the excess to the next machine
//! starting again at `a`. A job split by the wrap runs at the end of one
//! machine and the start of the next — the two pieces cannot overlap in time
//! precisely because `t_i ≤ L`.

use ssp_model::numeric::Tol;
use ssp_model::{JobId, Schedule, Time};

/// Emit the wrap-around schedule for one interval into `schedule`.
///
/// `pieces` is `(job, time, speed)`; times are clamped tolerantly against
/// `L` and the total against `m·L` (callers produce them from flow readback,
/// which carries `O(eps)` noise). Panics if a piece exceeds the interval or
/// the total exceeds capacity beyond tolerance.
pub fn mcnaughton(
    bounds: (Time, Time),
    machines: usize,
    pieces: &[(JobId, f64, f64)],
    schedule: &mut Schedule,
) {
    let (a, b) = bounds;
    let len = b - a;
    assert!(len > 0.0, "interval must have positive length");
    // 1e-6 relative: one notch looser than the allotment-normalization noise
    // upstream (BAL's probe-offset corrections are ~1e-7 relative).
    let tol = Tol::rel(1e-6);
    let total: f64 = pieces.iter().map(|&(_, t, _)| t).sum();
    let capacity = machines as f64 * len;
    // Upstream normalization errors scale with *job demands*, which can dwarf
    // a short interval's capacity in relative terms. Small overshoots are
    // therefore rescaled to fit exactly (the work shaved is far below the
    // validators' tolerance); anything beyond 1e-4 relative is a real bug.
    let squeeze = if total > capacity {
        assert!(
            total <= capacity * (1.0 + 1e-4),
            "total time {total} exceeds capacity {capacity} in [{a}, {b}]"
        );
        capacity / total
    } else {
        1.0
    };
    let pieces_owned: Vec<(JobId, f64, f64)> = pieces
        .iter()
        .map(|&(job, t, s)| (job, t * squeeze, s))
        .collect();
    let pieces = &pieces_owned[..];

    // A machine is full once the cursor is within rounding noise of `b`:
    // one rounding error per placed run, a few ulps of the coordinates, and
    // never more than the tolerance on `L` (an interval that short is all
    // noise). Any coarser margin strands real time at the end of each
    // machine that a full interval cannot spare: the last job's tail would
    // not fit.
    let wrap_slop = (64.0 * f64::EPSILON * a.abs().max(b.abs())).min(tol.margin(len));
    let mut machine = 0usize;
    let mut cursor = a;
    for &(job, t, speed) in pieces {
        assert!(
            tol.le(t, len),
            "piece {t} of {job} exceeds interval length {len}"
        );
        assert!(t >= 0.0, "negative piece for {job}");
        let t = t.min(len); // clamp tolerated overshoot
        let mut rem = t;
        while rem > 0.0 {
            // Numerical guard: past the last machine only rounding slop
            // can be left (the total is at most `m·L`); drop it.
            if machine >= machines {
                assert!(
                    tol.is_zero_at(rem, len),
                    "capacity overflow beyond tolerance: {rem} left for {job}"
                );
                break;
            }
            let room = b - cursor;
            let run = rem.min(room);
            schedule.run(job, machine, cursor, cursor + run, speed);
            cursor += run;
            rem -= run;
            if cursor >= b - wrap_slop {
                machine += 1;
                cursor = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{Instance, Job};

    fn pieces(ts: &[f64]) -> Vec<(JobId, f64, f64)> {
        ts.iter()
            .enumerate()
            .map(|(i, &t)| (JobId(i as u32), t, 1.0))
            .collect()
    }

    /// Validate the wrap-around output directly: machine-overlap-free and
    /// self-overlap-free with exact per-job totals.
    fn check(bounds: (f64, f64), m: usize, ts: &[f64]) -> Schedule {
        let mut s = Schedule::new(m);
        mcnaughton(bounds, m, &pieces(ts), &mut s);
        // Build a synthetic instance whose windows equal the interval so the
        // audited validator can do the heavy lifting.
        let jobs: Vec<Job> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| Job::new(i as u32, t * 1.0, bounds.0, bounds.1))
            .collect();
        let inst = Instance::new(jobs, m, 2.0).unwrap();
        s.validate(&inst, Default::default()).unwrap();
        s
    }

    #[test]
    fn fits_on_one_machine_without_wrapping() {
        let s = check((0.0, 2.0), 2, &[0.5, 0.5, 1.0]);
        assert!(s.segments().iter().all(|g| g.machine == 0));
    }

    #[test]
    fn classic_three_jobs_two_machines_wrap() {
        // 3 × (4/3) on 2 machines over [0,2]: the middle job wraps.
        let s = check((0.0, 2.0), 2, &[4.0 / 3.0, 4.0 / 3.0, 4.0 / 3.0]);
        let wrapped: Vec<_> = s.segments().iter().filter(|g| g.job == JobId(1)).collect();
        assert_eq!(wrapped.len(), 2, "middle job must be split by the wrap");
        assert_ne!(wrapped[0].machine, wrapped[1].machine);
    }

    #[test]
    fn exact_full_capacity() {
        // Total exactly m*L with each piece exactly L.
        let s = check((1.0, 3.0), 3, &[2.0, 2.0, 2.0]);
        assert_eq!(s.len(), 3);
        let mut machines: Vec<usize> = s.segments().iter().map(|g| g.machine).collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1, 2]);
    }

    #[test]
    fn split_pieces_never_overlap_in_time() {
        // A piece of length L-epsilon placed to straddle the wrap: its two
        // halves sit at the end of machine k and start of k+1 — check they
        // are disjoint in time (this is the heart of the wrap-around proof).
        let s = check((0.0, 1.0), 2, &[0.6, 0.9]);
        let halves: Vec<_> = s.segments().iter().filter(|g| g.job == JobId(1)).collect();
        assert_eq!(halves.len(), 2);
        let (first, second) = (halves[0], halves[1]);
        assert!(first.end <= second.start + 1e-12 || second.end <= first.start + 1e-12);
    }

    #[test]
    fn a_sub_tolerance_gap_before_the_wrap_is_filled_not_stranded() {
        // Machine 0 ends 8e-7 short of `b` (below the validator's 1e-6
        // tolerance on L) and the interval is exactly full: the gap must take
        // the next job's head, or the tiny last piece finds no room.
        let s = check((0.0, 1.0), 2, &[1.0 - 8e-7, 1.0, 8e-7]);
        assert!(s.segments().iter().any(|g| g.job == JobId(2)));
    }

    #[test]
    fn tiny_interval_at_large_coordinates_does_not_wrap_every_piece() {
        // L = 5e-12 at t = 1000, where 64 ulps of the coordinates exceed L:
        // were the wrap slop not capped by the tolerance on L, every piece
        // would wrap and the third would overflow the two machines.
        let mut s = Schedule::new(2);
        mcnaughton((1000.0, 1000.0 + 5e-12), 2, &pieces(&[3e-12; 3]), &mut s);
        assert!(s.segments().iter().all(|g| g.machine < 2));
    }

    #[test]
    fn offset_interval_coordinates() {
        let s = check((5.0, 7.5), 2, &[2.0, 2.0]);
        for g in s.segments() {
            assert!(g.start >= 5.0 - 1e-12 && g.end <= 7.5 + 1e-12);
        }
    }

    #[test]
    fn tolerates_flow_noise() {
        // Slightly over L and slightly over capacity within 1e-7 relative.
        let mut s = Schedule::new(1);
        mcnaughton((0.0, 1.0), 1, &[(JobId(0), 1.0 + 1e-9, 1.0)], &mut s);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn rejects_overfull_interval() {
        let mut s = Schedule::new(1);
        mcnaughton((0.0, 1.0), 1, &pieces(&[0.7, 0.7]), &mut s);
    }

    #[test]
    #[should_panic(expected = "exceeds interval length")]
    fn rejects_oversized_piece() {
        let mut s = Schedule::new(3);
        mcnaughton((0.0, 1.0), 3, &pieces(&[1.4]), &mut s);
    }
}
