//! Online multiprocessor baselines: AVR and Optimal Available lifted to `m`
//! machines (migratory online algorithms, as analyzed for the multiprocessor
//! case by the follow-up literature).
//!
//! * [`avr_m`] — every alive job is processed at its density, i.e. receives
//!   `den_i·|I|` work in each elementary interval of its span. With more
//!   than `m` alive jobs this cannot mean "one processor each", so within
//!   each interval the speeds are *water-filled*: `s_i = max(den_i, λ)` with
//!   `λ` chosen so the total time exactly fills `m` machines. Online: needs
//!   only the alive set.
//! * [`oa_m`] — at every release, recompute the optimal migratory schedule
//!   (BAL) for the remaining work and follow it until the next release.
//!
//! Both return explicit schedules; energies are compared against the offline
//! optimum in EXP-8.

use ssp_migratory::bal::try_bal;
use ssp_migratory::mcnaughton::try_mcnaughton;
use ssp_model::numeric::pow_alpha;
use ssp_model::resource::Budget;
use ssp_model::{Instance, IntervalSet, Job, Schedule, Segment, SolveError};

/// Multiprocessor AVR (per-interval water-filling). Returns the schedule;
/// its energy is `Σ_I Σ_i (den_i·|I|)·s_i^(α-1)`. Panics where
/// [`try_avr_m`] returns an error.
pub fn avr_m(instance: &Instance) -> Schedule {
    try_avr_m(instance).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`avr_m`]: an interval whose pieces McNaughton rejects (a
/// density that overflows `f64` makes them NaN) is a
/// [`SolveError::Numeric`].
pub fn try_avr_m(instance: &Instance) -> Result<Schedule, SolveError> {
    let m = instance.machines();
    let ivals = IntervalSet::from_jobs(instance.jobs());
    let mut schedule = Schedule::new(m);
    for (j, alive) in ivals.alive_lists().iter().enumerate() {
        if alive.is_empty() {
            continue;
        }
        let len = ivals.length(j);
        let dens: Vec<f64> = alive.iter().map(|&i| instance.job(i).density()).collect();
        let speeds = waterfill(&dens, m);
        let pieces: Vec<(ssp_model::JobId, f64, f64)> = alive
            .iter()
            .zip(&dens)
            .zip(&speeds)
            .map(|((&i, &den), &s)| (instance.job(i).id, den * len / s, s))
            .collect();
        try_mcnaughton(ivals.bounds(j), m, &pieces, &mut schedule)?;
    }
    Ok(schedule)
}

/// Water-filling speeds for one interval: `s_i = max(den_i, λ)` with λ = 0
/// when at most `m` jobs are alive (everyone runs at density, one processor
/// each), else λ solves `Σ min(1, den_i/λ) = m` — i.e. total execution time
/// fills `m` machines exactly.
fn waterfill(dens: &[f64], m: usize) -> Vec<f64> {
    if dens.len() <= m {
        return dens.to_vec();
    }
    // Sort descending; pin the k fastest at their own density and share λ
    // among the rest, picking the k whose λ lands between the neighbors.
    let mut sorted: Vec<f64> = dens.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = sorted.iter().sum();
    let mut suffix = total;
    let mut lambda = total / m as f64; // k = 0 candidate
    for k in 0..m {
        let candidate = suffix / (m - k) as f64;
        let upper = if k == 0 { f64::INFINITY } else { sorted[k - 1] };
        if candidate <= upper && candidate >= sorted[k] {
            lambda = candidate;
            break;
        }
        suffix -= sorted[k];
        // Next iteration pins sorted[k] too.
        if k + 1 == m {
            // Numerical fallback: everything pinned except shared remainder.
            lambda = sorted[m - 1];
        }
    }
    dens.iter().map(|&d| d.max(lambda)).collect()
}

/// Multiprocessor Optimal Available: replan the migratory optimum at every
/// release and follow it until the next one. Panics where [`try_oa_m`]
/// returns an error.
pub fn oa_m(instance: &Instance) -> Schedule {
    try_oa_m(instance).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`oa_m`]: a replan BAL cannot solve, a snapshot that is no
/// valid instance, or work left unfinished is a [`SolveError::Numeric`].
pub fn try_oa_m(instance: &Instance) -> Result<Schedule, SolveError> {
    let m = instance.machines();
    let mut schedule = Schedule::new(m);
    if instance.is_empty() {
        return Ok(schedule);
    }
    let mut events: Vec<f64> = instance.jobs().iter().map(|j| j.release).collect();
    events.sort_by(f64::total_cmp);
    events.dedup();
    let mut remaining: Vec<f64> = instance.jobs().iter().map(|j| j.work).collect();

    for (k, &now) in events.iter().enumerate() {
        let next = events.get(k + 1).copied().unwrap_or(f64::INFINITY);
        // Snapshot of available unfinished work, re-released at `now`. The
        // completion threshold (1e-7 relative) must exceed the planner's
        // own allotment rounding (BAL meets each demand up to the
        // noise-sized sliver its clamp at the interval length removes), or
        // phantom slivers of work would survive past their deadlines.
        let avail: Vec<usize> = (0..instance.len())
            .filter(|&i| {
                instance.job(i).release <= now + 1e-12 && remaining[i] > 1e-7 * instance.job(i).work
            })
            .collect();
        if avail.is_empty() {
            continue;
        }
        let snapshot_jobs: Vec<Job> = avail
            .iter()
            .map(|&i| {
                let j = instance.job(i);
                Job::new(j.id.0, remaining[i], now, j.deadline)
            })
            .collect();
        let snapshot =
            Instance::new(snapshot_jobs, m, instance.alpha()).map_err(|e| SolveError::Numeric {
                message: format!("OA-m snapshot at {now} is not a valid instance: {e}"),
            })?;
        let plan = try_bal(&snapshot, Budget::unlimited())?.schedule(&snapshot);
        // Execute the plan until the next release.
        for seg in plan.segments() {
            let start = seg.start.max(now);
            let end = seg.end.min(next);
            if end > start {
                schedule.push(Segment { start, end, ..*seg });
                let i = instance.index_of(seg.job).expect("plan uses instance ids");
                remaining[i] -= seg.speed * (end - start);
            }
        }
    }
    for (i, &rem) in remaining.iter().enumerate() {
        if rem.is_nan() || rem > 1e-6 * instance.job(i).work {
            return Err(SolveError::Numeric {
                message: format!("OA-m left {rem} unfinished on {}", instance.job(i).id),
            });
        }
    }
    Ok(schedule)
}

/// Online **non-migratory** dispatch — the paper's own model, online: each
/// job is irrevocably assigned to a machine the moment it is released (to
/// the machine whose *currently alive* assigned density is smallest), and
/// every machine runs the single-processor Optimal Available policy on its
/// own stream. No job ever moves.
///
/// This is the policy an actual cluster scheduler without migration would
/// run; EXP-8 measures it against the migratory offline optimum.
pub fn dispatch_oa_nonmigratory(instance: &Instance) -> Schedule {
    let m = instance.machines();
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by(|&a, &b| {
        instance
            .job(a)
            .release
            .total_cmp(&instance.job(b).release)
            .then(instance.job(a).id.cmp(&instance.job(b).id))
    });
    // Online assignment: smallest alive-density machine at release time.
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); m];
    for &i in &order {
        let now = instance.job(i).release;
        let mut best = (0usize, f64::INFINITY);
        for (machine, jobs) in assigned.iter().enumerate() {
            let load: f64 = jobs
                .iter()
                .map(|&k| instance.job(k))
                .filter(|j| j.alive_at(now) || j.release > now)
                .map(Job::density)
                .sum();
            if load < best.1 {
                best = (machine, load);
            }
        }
        assigned[best.0].push(i);
    }
    // Per-machine OA on the dispatched streams.
    let mut schedule = Schedule::new(m);
    for (machine, jobs) in assigned.iter().enumerate() {
        if jobs.is_empty() {
            continue;
        }
        let stream: Vec<Job> = jobs.iter().map(|&i| *instance.job(i)).collect();
        let per_machine = ssp_single::oa::oa_schedule(&stream, instance.alpha(), machine);
        for &seg in per_machine.segments() {
            schedule.push(seg);
        }
    }
    schedule
}

/// Energy of the AVR-m profile without materializing the schedule (used by
/// benchmarks; equals `avr_m(..).energy(alpha)` up to rounding).
pub fn avr_m_energy(instance: &Instance) -> f64 {
    let m = instance.machines();
    let ivals = IntervalSet::from_jobs(instance.jobs());
    let alpha = instance.alpha();
    let mut total = 0.0;
    for (j, alive) in ivals.alive_lists().iter().enumerate() {
        if alive.is_empty() {
            continue;
        }
        let len = ivals.length(j);
        let dens: Vec<f64> = alive.iter().map(|&i| instance.job(i).density()).collect();
        let speeds = waterfill(&dens, m);
        total += dens
            .iter()
            .zip(&speeds)
            .map(|(&den, &s)| den * len * pow_alpha(s, alpha - 1.0))
            .sum::<f64>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_migratory::bal::bal;
    use ssp_workloads::families;

    #[test]
    fn waterfill_few_jobs_run_at_density() {
        assert_eq!(waterfill(&[1.0, 2.0], 3), vec![1.0, 2.0]);
    }

    #[test]
    fn waterfill_shares_capacity_exactly() {
        // 4 equal densities on 2 machines: λ = 4d/2 = 2d; each job runs at
        // 2d for half the interval.
        let s = waterfill(&[1.0, 1.0, 1.0, 1.0], 2);
        assert!(s.iter().all(|&x| (x - 2.0).abs() < 1e-12));
        // Total time = Σ den/s = 4 * 0.5 = 2 = m. ✓
    }

    #[test]
    fn waterfill_pins_dense_jobs() {
        // One job denser than the fair share keeps its own speed.
        let s = waterfill(&[10.0, 1.0, 1.0, 1.0], 2);
        assert!((s[0] - 10.0).abs() < 1e-12);
        let lambda = s[1];
        assert!((lambda - 3.0).abs() < 1e-12); // (1+1+1)/(2-1)
                                               // Time check: 1 (pinned... no: 10/10=1 full) -- total time:
                                               // den/s = 1.0 + 3*(1/3) = 2.0 = m. ✓
        let t: f64 = [10.0f64, 1.0, 1.0, 1.0]
            .iter()
            .zip(&s)
            .map(|(&d, &v)| d / v)
            .sum();
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn avr_m_schedule_validates_and_bounds_hold() {
        for seed in [1u64, 2, 3] {
            let inst = families::bursty(20, 3, 2.0).gen(seed);
            let s = avr_m(&inst);
            let stats = s.validate(&inst, Default::default()).unwrap();
            let opt = bal(&inst).energy;
            let alpha = 2.0f64;
            let bound = alpha.powf(alpha) * 2.0f64.powf(alpha - 1.0);
            assert!(
                stats.energy >= opt * (1.0 - 1e-6),
                "AVR-m beat OPT (seed {seed})"
            );
            // The single-processor competitive bound is conjectured to carry
            // over; we allow slack 2x in this smoke test.
            assert!(
                stats.energy <= 2.0 * bound * opt,
                "AVR-m wildly above bound (seed {seed}): {} vs opt {}",
                stats.energy,
                opt
            );
        }
    }

    #[test]
    fn avr_m_energy_matches_schedule() {
        let inst = families::general(15, 2, 2.2).gen(4);
        let s = avr_m(&inst);
        let direct = avr_m_energy(&inst);
        assert!((s.energy(2.2) - direct).abs() < 1e-6 * direct);
    }

    #[test]
    fn oa_m_schedule_validates_and_dominates_opt() {
        for seed in [5u64, 6] {
            let inst = families::bursty(16, 2, 2.0).gen(seed);
            let s = oa_m(&inst);
            let stats = s.validate(&inst, Default::default()).unwrap();
            let opt = bal(&inst).energy;
            assert!(stats.energy >= opt * (1.0 - 1e-6));
            let alpha = 2.0f64;
            assert!(
                stats.energy <= alpha.powf(alpha) * opt * (1.0 + 1e-6),
                "OA-m above alpha^alpha bound (seed {seed}): {} vs {}",
                stats.energy,
                opt
            );
        }
    }

    #[test]
    fn dispatch_nonmigratory_is_valid_and_never_migrates() {
        use ssp_model::schedule::ValidationOptions;
        for seed in [1u64, 2, 3] {
            let inst = families::bursty(24, 3, 2.0).gen(seed);
            let s = dispatch_oa_nonmigratory(&inst);
            let stats = s
                .validate(&inst, ValidationOptions::non_migratory())
                .unwrap();
            let opt = bal(&inst).energy;
            assert!(stats.energy >= opt * (1.0 - 1e-6));
            assert_eq!(stats.migrations, 0);
            // Loose sanity ceiling: within 10x of the offline optimum on
            // these benign families.
            assert!(stats.energy <= 10.0 * opt, "dispatch blew up (seed {seed})");
        }
    }

    #[test]
    fn dispatch_single_machine_reduces_to_oa() {
        let inst = families::general(12, 1, 2.0).gen(5);
        let d = dispatch_oa_nonmigratory(&inst).energy(2.0);
        let jobs: Vec<Job> = inst.jobs().to_vec();
        let oa = ssp_single::oa::oa_schedule(&jobs, 2.0, 0).energy(2.0);
        assert!((d - oa).abs() <= 1e-9 * oa);
    }

    #[test]
    fn dispatch_spreads_simultaneous_tight_jobs() {
        // Two identical tight jobs released together on two machines must
        // land on different machines (any sane online rule does this).
        let jobs = vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 1.0)];
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let s = dispatch_oa_nonmigratory(&inst);
        let machines: std::collections::HashSet<usize> =
            s.segments().iter().map(|g| g.machine).collect();
        assert_eq!(machines.len(), 2);
        // Each at speed 1: total energy 2 at alpha 2 — matches the optimum.
        assert!((s.energy(2.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oa_m_with_single_release_equals_opt() {
        // Everything released at once: the first plan is optimal and never
        // revised.
        let inst = families::general(10, 2, 2.0).gen(7);
        let jobs: Vec<Job> = inst
            .jobs()
            .iter()
            .map(|j| Job::new(j.id.0, j.work, 0.0, j.deadline))
            .collect();
        let inst = Instance::new(jobs, 2, 2.0).unwrap();
        let e_oa = oa_m(&inst).energy(2.0);
        let e_opt = bal(&inst).energy;
        assert!((e_oa - e_opt).abs() <= 1e-6 * e_opt, "{e_oa} vs {e_opt}");
    }
}
