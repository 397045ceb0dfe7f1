//! Discrete speed levels (realistic DVFS).
//!
//! Real processors offer a finite set of frequencies, not a continuum. The
//! classic reduction: a job that the continuous optimum runs at speed `s`
//! with `l ≤ s ≤ u` for adjacent available levels `l < u` can instead run
//! *partly at `l` and partly at `u`*, completing the same work in the same
//! wall-clock time — split each segment of duration `T` and work `sT` into
//! a `u`-piece of duration `T·(s−l)/(u−l)` and an `l`-piece of the rest.
//! Feasibility is untouched (every segment keeps its exact time span); only
//! energy changes, by the convexity gap between `s^α` and the chord of the
//! level curve. With a reasonably fine level grid the overhead vanishes —
//! quantified by EXP-11.
//!
//! Segments slower than the lowest level are handled by *pulsing* the lowest
//! level (run at `l_min` for `sT/l_min ≤ T`, idle the rest — idle power is 0
//! in this model). Segments faster than the highest level are infeasible;
//! [`quantize_speeds`] reports them.

use crate::error::ModelError;
use crate::schedule::{Schedule, Segment};

/// A sorted, deduplicated set of available speed levels.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedLevels {
    levels: Vec<f64>,
}

impl SpeedLevels {
    /// Validate and sort a level set: all levels finite and positive.
    pub fn new(mut levels: Vec<f64>) -> Result<Self, ModelError> {
        if levels.is_empty() {
            return Err(ModelError::Parse {
                line: 0,
                message: "no speed levels".into(),
            });
        }
        for &l in &levels {
            let level_ok = l > 0.0 && l.is_finite();
            if !level_ok {
                return Err(ModelError::Parse {
                    line: 0,
                    message: format!("bad speed level {l}"),
                });
            }
        }
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        Ok(SpeedLevels { levels })
    }

    /// A geometric grid: `count` levels from `min` to `max` — the standard
    /// shape of real DVFS tables. Needs `count >= 2`, a finite positive
    /// `min` and `max > min`.
    pub fn geometric(min: f64, max: f64, count: usize) -> Result<Self, ModelError> {
        let grid_ok = count >= 2 && min > 0.0 && min.is_finite() && max > min;
        if !grid_ok {
            return Err(ModelError::Parse {
                line: 0,
                message: format!("bad geometric grid: {count} levels over [{min}, {max}]"),
            });
        }
        let ratio = (max / min).powf(1.0 / (count - 1) as f64);
        let levels = (0..count).map(|k| min * ratio.powi(k as i32)).collect();
        SpeedLevels::new(levels)
    }

    /// The levels, ascending.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Fastest level.
    pub fn max(&self) -> f64 {
        *self.levels.last().unwrap()
    }

    /// Slowest level.
    pub fn min(&self) -> f64 {
        self.levels[0]
    }

    /// The adjacent levels bracketing `s`: `(l, u)` with `l ≤ s ≤ u`.
    /// Returns `None` when `s` exceeds the fastest level; for `s` below the
    /// slowest level returns `(0.0, min)` — "idle" pairs with the lowest
    /// level (pulsing).
    pub fn bracket(&self, s: f64) -> Option<(f64, f64)> {
        if s > self.max() * (1.0 + 1e-12) {
            return None;
        }
        if s <= self.min() {
            return Some((0.0, self.min()));
        }
        match self.levels.binary_search_by(|l| l.total_cmp(&s)) {
            Ok(k) => Some((self.levels[k], self.levels[k])),
            Err(k) => Some((self.levels[k - 1], self.levels[k])),
        }
    }
}

/// Rewrite a (continuous-speed) schedule so every segment runs at an
/// available level, preserving each segment's time span and work exactly.
/// Fails with the offending speed if some segment exceeds the fastest level.
///
/// ```
/// use ssp_model::quantize::{quantize_speeds, SpeedLevels};
/// use ssp_model::{JobId, Schedule};
///
/// let mut s = Schedule::new(1);
/// s.run(JobId(0), 0, 0.0, 2.0, 1.5); // between levels 1 and 2
/// let grid = SpeedLevels::new(vec![1.0, 2.0]).unwrap();
/// let q = quantize_speeds(&s, &grid).unwrap();
/// assert_eq!(q.len(), 2);                       // two-level mix
/// assert!((q.work_of(JobId(0)) - 3.0).abs() < 1e-12); // same work
/// ```
pub fn quantize_speeds(schedule: &Schedule, levels: &SpeedLevels) -> Result<Schedule, f64> {
    let mut out = Schedule::new(schedule.machines());
    for seg in schedule.segments() {
        let (l, u) = levels.bracket(seg.speed).ok_or(seg.speed)?;
        if l == u || (u - l) <= 1e-12 * u {
            out.push(Segment { speed: u, ..*seg });
            continue;
        }
        let duration = seg.end - seg.start;
        // Time at the upper level so that l·t_l + u·t_u = s·T, t_l + t_u = T.
        let t_u = duration * (seg.speed - l) / (u - l);
        let split = seg.start + t_u;
        out.push(Segment {
            end: split,
            speed: u,
            ..*seg
        });
        if l > 0.0 {
            out.push(Segment {
                start: split,
                speed: l,
                ..*seg
            });
        }
        // l == 0: the remainder of the span is idle (pulsing the lowest
        // level); nothing to emit.
    }
    Ok(out)
}

/// Worst-case energy ratio of quantizing a speed `s ∈ [l, u]` to the
/// two-level mix, at exponent `alpha`: the chord-to-curve ratio
/// `(l^α·(u−s) + u^α·(s−l)) / ((u−l)·s^α)` maximized over `s`. Exposed for
/// the EXP-11 overhead analysis.
pub fn two_level_overhead(l: f64, u: f64, alpha: f64) -> f64 {
    assert!(u > l && l >= 0.0);
    // Maximize f(s) = (l^α (u−s) + u^α (s−l)) / ((u−l) s^α) over s in [l,u].
    // f is smooth; sample densely (analysis helper, not a hot path).
    let mut worst: f64 = 1.0;
    let steps = 1000;
    for k in 0..=steps {
        let s = l + (u - l) * k as f64 / steps as f64;
        if s <= 0.0 {
            continue;
        }
        let mixed = (l.powf(alpha) * (u - s) + u.powf(alpha) * (s - l)) / (u - l);
        worst = worst.max(mixed / s.powf(alpha));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ValidationOptions;
    use crate::{Instance, Job, JobId};
    use ssp_prng::{check, Rng};

    /// Quantization onto a covering grid preserves each segment's work
    /// and time span and never reduces energy, for random schedules and
    /// random geometric grids.
    #[test]
    fn quantize_preserves_work_and_grows_energy() {
        check::cases(48, 0x9_0A17, |rng| {
            let segs: Vec<(f64, f64, f64)> = check::vec_of(rng, 1..12, |r| {
                (
                    r.gen_range(0.1f64..4.0),
                    r.gen_range(0.0f64..10.0),
                    r.gen_range(0.1f64..3.0),
                )
            });
            let count = rng.gen_range(2usize..9);
            let alpha = rng.gen_range(1.3f64..3.0);
            let mut schedule = crate::Schedule::new(1);
            let mut t = 0.0;
            for (i, &(speed, gap, len)) in segs.iter().enumerate() {
                t += gap;
                schedule.run(JobId(i as u32), 0, t, t + len, speed);
                t += len;
            }
            let smax = segs.iter().map(|&(s, _, _)| s).fold(0.0f64, f64::max);
            let smin = segs
                .iter()
                .map(|&(s, _, _)| s)
                .fold(f64::INFINITY, f64::min);
            let grid = SpeedLevels::geometric(smin * 0.9, smax * 1.1, count).unwrap();
            let q = quantize_speeds(&schedule, &grid).unwrap();
            // Per-job work conserved.
            for (i, &(speed, _, len)) in segs.iter().enumerate() {
                let w = q.work_of(JobId(i as u32));
                assert!(
                    (w - speed * len).abs() <= 1e-9 * (speed * len),
                    "job {i} work {w} vs {}",
                    speed * len
                );
            }
            // Energy grows (convexity), speeds all on-grid.
            assert!(q.energy(alpha) >= schedule.energy(alpha) * (1.0 - 1e-9));
            for seg in q.segments() {
                assert!(grid
                    .levels()
                    .iter()
                    .any(|&l| (l - seg.speed).abs() < 1e-9 * l));
            }
            // Time spans never exceed the originals.
            assert!(q.makespan() <= schedule.makespan() + 1e-9);
        });
    }

    fn levels() -> SpeedLevels {
        SpeedLevels::new(vec![1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn construction_validates_and_sorts() {
        let l = SpeedLevels::new(vec![3.0, 1.0, 2.0, 2.0]).unwrap();
        assert_eq!(l.levels(), &[1.0, 2.0, 3.0]);
        assert!(SpeedLevels::new(vec![]).is_err());
        assert!(SpeedLevels::new(vec![0.0]).is_err());
        assert!(SpeedLevels::new(vec![-1.0]).is_err());
    }

    #[test]
    fn geometric_grid_shape() {
        let g = SpeedLevels::geometric(0.5, 4.0, 4).unwrap();
        assert_eq!(g.levels().len(), 4);
        assert!((g.min() - 0.5).abs() < 1e-12);
        assert!((g.max() - 4.0).abs() < 1e-12);
        // Constant ratio.
        let r0 = g.levels()[1] / g.levels()[0];
        let r1 = g.levels()[2] / g.levels()[1];
        assert!((r0 - r1).abs() < 1e-9);
        // Bad arguments are typed errors, never panics: too few levels, a
        // non-positive or non-finite `min`, `max <= min`, and NaN bounds.
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for (min, max, count) in [
            (0.5, 4.0, 1),
            (0.5, 4.0, 0),
            (0.0, 4.0, 4),
            (-1.0, 4.0, 4),
            (inf, 0.0, 4), // an empty schedule's speed range
            (inf, inf, 4),
            (nan, 4.0, 4),
            (0.5, nan, 4),
            (2.0, 2.0, 4),
            (4.0, 0.5, 4),
        ] {
            assert!(
                SpeedLevels::geometric(min, max, count).is_err(),
                "geometric({min}, {max}, {count}) must be rejected"
            );
        }
    }

    #[test]
    fn bracket_cases() {
        let l = levels();
        assert_eq!(l.bracket(3.0), Some((2.0, 4.0)));
        assert_eq!(l.bracket(2.0), Some((2.0, 2.0)));
        assert_eq!(l.bracket(0.5), Some((0.0, 1.0)));
        assert_eq!(l.bracket(4.0), Some((4.0, 4.0)));
        assert_eq!(l.bracket(4.5), None);
    }

    /// The fundamental property: quantization preserves work and span per
    /// job and never lengthens any segment's time range.
    #[test]
    fn quantization_preserves_work_and_validity() {
        let inst = Instance::new(
            vec![Job::new(0, 3.0, 0.0, 2.0), Job::new(1, 1.0, 0.5, 3.0)],
            2,
            2.0,
        )
        .unwrap();
        let mut s = Schedule::new(2);
        s.run(JobId(0), 0, 0.0, 2.0, 1.5); // between levels 1 and 2
        s.run(JobId(1), 1, 0.5, 2.5, 0.5); // below the lowest level
        let q = quantize_speeds(&s, &levels()).unwrap();
        // Same validator, same work conservation.
        let stats = q
            .validate(&inst, ValidationOptions::non_migratory())
            .unwrap();
        // Every speed is an available level.
        for seg in q.segments() {
            assert!(
                levels()
                    .levels()
                    .iter()
                    .any(|&l| (l - seg.speed).abs() < 1e-12),
                "speed {} not a level",
                seg.speed
            );
        }
        // Energy increased (convexity) but by a bounded factor.
        let (e0, e1) = (s.energy(2.0), stats.energy);
        assert!(e1 >= e0 - 1e-9, "quantization cannot reduce energy");
        assert!(
            e1 <= e0 * two_level_overhead(1.0, 2.0, 2.0).max(two_level_overhead(0.0, 1.0, 2.0))
                + 1e-9
        );
    }

    #[test]
    fn exact_level_passes_through() {
        let mut s = Schedule::new(1);
        s.run(JobId(0), 0, 0.0, 1.0, 2.0);
        let q = quantize_speeds(&s, &levels()).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.segments()[0].speed, 2.0);
        assert_eq!(q.energy(3.0), s.energy(3.0));
    }

    #[test]
    fn over_speed_is_reported() {
        let mut s = Schedule::new(1);
        s.run(JobId(0), 0, 0.0, 1.0, 9.0);
        assert_eq!(quantize_speeds(&s, &levels()), Err(9.0));
    }

    #[test]
    fn pulsing_below_min_level_idles_the_tail() {
        let mut s = Schedule::new(1);
        s.run(JobId(0), 0, 0.0, 4.0, 0.25); // work 1, min level 1.0
        let q = quantize_speeds(&s, &levels()).unwrap();
        assert_eq!(q.len(), 1, "idle remainder emits no segment");
        let seg = q.segments()[0];
        assert_eq!(seg.speed, 1.0);
        assert!((seg.work() - 1.0).abs() < 1e-12);
        assert!((seg.end - 1.0).abs() < 1e-12, "runs [0,1] then idles");
    }

    #[test]
    fn overhead_bounds() {
        // Identical levels: no overhead. Wide bracket at alpha=2: overhead
        // of mixing 1 and 2 peaks at s where derivative vanishes; just check
        // it is finite, > 1 and grows with the gap.
        let narrow = two_level_overhead(1.0, 1.25, 2.0);
        let wide = two_level_overhead(1.0, 4.0, 2.0);
        assert!(narrow > 1.0 && wide > narrow);
        assert!(
            wide < 2.0,
            "mixing overhead at alpha=2 stays below 2: {wide}"
        );
    }
}
