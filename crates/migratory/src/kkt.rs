//! KKT optimality certificate for the migratory convex program.
//!
//! The energy-minimization problem is convex, strictly feasible, and
//! differentiable, so the Karush–Kuhn–Tucker conditions are necessary *and
//! sufficient*. Translated into schedule structure, a feasible solution
//! `(speeds s_i, allotments t_ij)` is optimal **iff**:
//!
//! 1. every job runs at one constant speed (true by construction here);
//! 2. if `t_ij = 0` for an alive pair, then `s_i ≤ s_k` for every job `k`
//!    alive in `I_j` with `t_kj > 0`;
//! 3. if `t_ij = |I_j|`, then `s_i ≥ s_k` for every alive `k` with
//!    `t_kj < |I_j|`;
//! 4. all jobs with `0 < t_ij < |I_j|` in one interval share a single speed;
//! 5. if at most `m` jobs are alive in `I_j`, each of them has
//!    `t_ij = |I_j|`.
//!
//! Because the conditions are sufficient, [`certify`] is a *proof checker*:
//! any solution that passes (within tolerance) is optimal, independently of
//! how it was computed. The experiment harness certifies every BAL run.
//!
//! Conditions 2–5 are order conditions inside one interval, so each
//! interval's extreme speeds per class of runner decide them: [`certify`]
//! reads every job's allotment once and keeps those extremes, with no
//! `n × J` matrix and no loop over pairs of jobs.

use crate::bal::BalSolution;
use ssp_model::numeric::Tol;
use ssp_model::Instance;

/// A violated certificate condition, with enough context to debug.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum KktViolation {
    /// Allotment outside the job's alive intervals.
    AllotmentOutsideSpan { job: usize, interval: usize },
    /// Negative or over-long allotment.
    AllotmentOutOfRange {
        job: usize,
        interval: usize,
        time: f64,
        length: f64,
    },
    /// `Σ_j t_ij ≠ w_i / s_i`.
    WorkNotConserved {
        job: usize,
        allotted: f64,
        required: f64,
    },
    /// `Σ_i t_ij > m |I_j|`.
    CapacityExceeded {
        interval: usize,
        used: f64,
        capacity: f64,
    },
    /// Property 2 violated.
    IdleWhileSlowerRuns {
        job: usize,
        other: usize,
        interval: usize,
    },
    /// Property 3 violated.
    FullButSlower {
        job: usize,
        other: usize,
        interval: usize,
    },
    /// Property 4 violated.
    PartialSpeedsDiffer {
        job: usize,
        other: usize,
        interval: usize,
        s_a: f64,
        s_b: f64,
    },
    /// Property 5 violated.
    UnderloadedIntervalNotFull {
        job: usize,
        interval: usize,
        alive: usize,
    },
}

impl std::fmt::Display for KktViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KktViolation::AllotmentOutsideSpan { job, interval } => {
                write!(f, "job {job} allotted time outside its span (interval {interval})")
            }
            KktViolation::AllotmentOutOfRange { job, interval, time, length } => write!(
                f,
                "job {job} allotted {time} in interval {interval} of length {length}"
            ),
            KktViolation::WorkNotConserved { job, allotted, required } => {
                write!(f, "job {job}: allotted {allotted}, requires {required}")
            }
            KktViolation::CapacityExceeded { interval, used, capacity } => {
                write!(f, "interval {interval}: used {used} of {capacity}")
            }
            KktViolation::IdleWhileSlowerRuns { job, other, interval } => write!(
                f,
                "job {job} idle in interval {interval} while slower job {other} runs (P2)"
            ),
            KktViolation::FullButSlower { job, other, interval } => write!(
                f,
                "job {job} fills interval {interval} but is slower than partial job {other} (P3)"
            ),
            KktViolation::PartialSpeedsDiffer { job, other, interval, s_a, s_b } => write!(
                f,
                "partial jobs {job} ({s_a}) and {other} ({s_b}) differ in interval {interval} (P4)"
            ),
            KktViolation::UnderloadedIntervalNotFull { job, interval, alive } => write!(
                f,
                "interval {interval} has {alive} <= m alive jobs but job {job} does not fill it (P5)"
            ),
        }
    }
}

impl std::error::Error for KktViolation {}

/// Certify a BAL solution against the KKT conditions. `tol` classifies
/// allotments as zero / partial / full and compares speeds; the workspace
/// default for certificates is `Tol::rel(1e-6)` — far looser than the
/// binary-search width, far tighter than any real violation.
///
/// One pass over each job's allotment, merged per interval and sorted by
/// it, checks the job's own conditions (span, range, conservation) and
/// walks its window, counting the job among its interval's alive jobs and
/// filing its speed under the interval's runner classes: zero or not, full
/// or not, partial. Each condition across jobs is then one comparison per
/// interval: P5 reads the alive count, P2 compares the fastest idle job
/// with the slowest runner, P3 the slowest full job with the fastest
/// non-full one, P4 the partial runners' extremes. `Tol`'s
/// comparisons are monotone on finite speeds (for `rel < 1`), so that
/// comparison fails exactly when some pair of the class fails, and the
/// verdict is the pairwise one. A non-finite speed is not ordered by them
/// (`Tol::gt` is false against `∞`), but it compares alike with every
/// finite speed, so two witnesses of each non-finite kind join the
/// extremes. Time `O(Σ_i |window_i|)`, memory `O(n + J)`; a violation
/// names a real offending job (and pair).
pub fn certify(instance: &Instance, sol: &BalSolution, tol: Tol) -> Result<(), KktViolation> {
    let _span = ssp_probe::span("kkt.certify");
    ssp_probe::counter!("kkt.certifications");
    let ivals = &sol.intervals;
    let speeds = sol.speeds.speeds();
    // Per interval: the largest time that counts as zero, the smallest
    // that counts as full.
    let edges: Vec<(f64, f64)> = (0..ivals.len())
        .map(|j| {
            let len = ivals.length(j);
            (tol.margin(len), len - tol.margin(len))
        })
        .collect();
    let mut used = vec![0.0f64; ivals.len()];
    let mut runners = vec![Runners::default(); ivals.len()];
    let mut row: Vec<(usize, f64)> = Vec::new();
    for i in 0..instance.len() {
        let window = ivals.intervals_of(i);
        row.clear();
        for &(j, time) in sol.allotments.get(i).map_or(&[][..], Vec::as_slice) {
            if !window.contains(&j) {
                return Err(KktViolation::AllotmentOutsideSpan {
                    job: i,
                    interval: j,
                });
            }
            row.push((j, time));
        }
        // Entries of one interval add up in entry order (a stable sort).
        row.sort_by_key(|&(j, _)| j);
        row.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        let mut allotted = 0.0;
        for &(j, time) in &row {
            let len = ivals.length(j);
            if time < -tol.margin(len) || time > len + tol.margin(len) {
                return Err(KktViolation::AllotmentOutOfRange {
                    job: i,
                    interval: j,
                    time,
                    length: len,
                });
            }
            allotted += time;
            used[j] += time;
        }
        let required = instance.job(i).work / speeds[i];
        if !tol.eq(allotted, required) {
            return Err(KktViolation::WorkNotConserved {
                job: i,
                allotted,
                required,
            });
        }
        let id = u32::try_from(i).expect("job indices fit in u32");
        let mut entries = row.iter().peekable();
        for j in window {
            let time = entries.next_if(|&&(k, _)| k == j).map_or(0.0, |&(_, t)| t);
            let (zero_at, full_at) = edges[j];
            runners[j].file(id, speeds, time <= zero_at, time >= full_at);
        }
    }

    let m = instance.machines();
    for (j, &used) in used.iter().enumerate() {
        let capacity = m as f64 * ivals.length(j);
        if !tol.le(used, capacity) {
            return Err(KktViolation::CapacityExceeded {
                interval: j,
                used,
                capacity,
            });
        }
    }
    for (j, r) in runners.iter().enumerate() {
        // P5: few alive jobs => all full.
        if let Some(job) = r.short.jobs().next().filter(|_| r.alive <= m) {
            return Err(KktViolation::UnderloadedIntervalNotFull {
                job,
                interval: j,
                alive: r.alive,
            });
        }
        // P2: an idle job is never faster than a runner.
        if let Some((job, other)) = witness(&r.idle, &r.running, speeds, |a, b| tol.gt(a, b)) {
            return Err(KktViolation::IdleWhileSlowerRuns {
                job,
                other,
                interval: j,
            });
        }
        // P3: a full job is at least as fast as any non-full one.
        if let Some((job, other)) = witness(&r.full, &r.short, speeds, |a, b| tol.lt(a, b)) {
            return Err(KktViolation::FullButSlower {
                job,
                other,
                interval: j,
            });
        }
        // P4: partial runners share one speed.
        if let Some((job, other)) = witness(&r.partial, &r.partial, speeds, |a, b| !tol.eq(a, b)) {
            return Err(KktViolation::PartialSpeedsDiffer {
                job,
                other,
                interval: j,
                s_a: speeds[job],
                s_b: speeds[other],
            });
        }
    }
    Ok(())
}

/// One interval's alive jobs filed by how much of it each one runs.
#[derive(Debug, Clone, Default)]
struct Runners {
    /// How many jobs are alive in the interval: every one is filed once.
    alive: usize,
    idle: Ends,
    running: Ends,
    full: Ends,
    short: Ends,
    partial: Ends,
}

impl Runners {
    fn file(&mut self, i: u32, speeds: &[f64], zero: bool, full: bool) {
        self.alive += 1;
        if zero {
            self.idle.add(i, speeds);
        } else {
            self.running.add(i, speeds);
        }
        if full {
            self.full.add(i, speeds);
        } else {
            self.short.add(i, speeds);
        }
        if !zero && !full {
            self.partial.add(i, speeds);
        }
    }
}

/// The jobs that stand for one runner class in certificate comparisons:
/// slot 0 holds the slowest finite speed, slot 1 the fastest, and slots
/// 2–7 up to two jobs each of speed NaN, `+∞` and `−∞`. Empty slots are
/// [`Ends::NONE`].
#[derive(Debug, Clone, Copy)]
struct Ends([u32; 8]);

impl Default for Ends {
    fn default() -> Self {
        Ends([Ends::NONE; 8])
    }
}

impl Ends {
    const NONE: u32 = u32::MAX;

    fn add(&mut self, i: u32, speeds: &[f64]) {
        let s = speeds[i as usize];
        let slots = &mut self.0;
        if s.is_finite() {
            if slots[0] == Ends::NONE || s < speeds[slots[0] as usize] {
                slots[0] = i;
            }
            if slots[1] == Ends::NONE || s > speeds[slots[1] as usize] {
                slots[1] = i;
            }
            return;
        }
        let kind = if s.is_nan() {
            2
        } else if s > 0.0 {
            4
        } else {
            6
        };
        if let Some(slot) = slots[kind..kind + 2].iter_mut().find(|x| **x == Ends::NONE) {
            *slot = i;
        }
    }

    fn jobs(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .filter(|&&i| i != Ends::NONE)
            .map(|&i| i as usize)
    }
}

/// A pair of distinct jobs, `job` standing for class `a` and `other` for
/// class `b`, whose speeds `violates` holds for; `None` when no pair of the
/// two classes does (see [`certify`]).
fn witness(
    a: &Ends,
    b: &Ends,
    speeds: &[f64],
    violates: impl Fn(f64, f64) -> bool,
) -> Option<(usize, usize)> {
    a.jobs()
        .flat_map(|i| b.jobs().map(move |k| (i, k)))
        .find(|&(i, k)| i != k && violates(speeds[i], speeds[k]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bal::bal;
    use ssp_model::{Instance, Job};
    use ssp_prng::{check, Rng, StdRng};
    use ssp_workloads::families;

    /// The dense allotment matrix `t[i][j]`, each cell summed in entry
    /// order.
    fn matrix(sol: &BalSolution) -> Vec<Vec<f64>> {
        let mut t = vec![vec![0.0f64; sol.intervals.len()]; sol.speeds.len()];
        for (i, allot) in sol.allotments.iter().enumerate() {
            for &(j, time) in allot {
                t[i][j] += time;
            }
        }
        t
    }

    /// The reference checker: the KKT conditions read literally, over the
    /// dense matrix and every pair of alive jobs in each interval.
    // Index loops throughout: `t[i][j]` mirrors the paper's allotment matrix.
    #[allow(clippy::needless_range_loop)]
    fn dense_certify(instance: &Instance, sol: &BalSolution, tol: Tol) -> Result<(), KktViolation> {
        let n = instance.len();
        let ivals = &sol.intervals;
        let m = instance.machines() as f64;
        for (i, allot) in sol.allotments.iter().enumerate() {
            for &(j, _) in allot {
                if !ivals.intervals_of(i).contains(&j) {
                    return Err(KktViolation::AllotmentOutsideSpan {
                        job: i,
                        interval: j,
                    });
                }
            }
        }
        let t = matrix(sol);
        for i in 0..n {
            for j in 0..ivals.len() {
                let len = ivals.length(j);
                if t[i][j] < -tol.margin(len) || t[i][j] > len + tol.margin(len) {
                    return Err(KktViolation::AllotmentOutOfRange {
                        job: i,
                        interval: j,
                        time: t[i][j],
                        length: len,
                    });
                }
            }
            let allotted: f64 = t[i].iter().sum();
            let required = instance.job(i).work / sol.speeds.get(i);
            if !tol.eq(allotted, required) {
                return Err(KktViolation::WorkNotConserved {
                    job: i,
                    allotted,
                    required,
                });
            }
        }
        for j in 0..ivals.len() {
            let used: f64 = (0..n).map(|i| t[i][j]).sum();
            let capacity = m * ivals.length(j);
            if !tol.le(used, capacity) {
                return Err(KktViolation::CapacityExceeded {
                    interval: j,
                    used,
                    capacity,
                });
            }
        }
        for (j, alive) in ivals.alive_lists().iter().enumerate() {
            let len = ivals.length(j);
            let is_zero = |i: usize| t[i][j] <= tol.margin(len);
            let is_full = |i: usize| t[i][j] >= len - tol.margin(len);
            if alive.len() <= instance.machines() {
                for &i in alive {
                    if !is_full(i) {
                        return Err(KktViolation::UnderloadedIntervalNotFull {
                            job: i,
                            interval: j,
                            alive: alive.len(),
                        });
                    }
                }
            }
            for &i in alive {
                let s_i = sol.speeds.get(i);
                for &k in alive {
                    if i == k {
                        continue;
                    }
                    let s_k = sol.speeds.get(k);
                    if is_zero(i) && !is_zero(k) && tol.gt(s_i, s_k) {
                        return Err(KktViolation::IdleWhileSlowerRuns {
                            job: i,
                            other: k,
                            interval: j,
                        });
                    }
                    if is_full(i) && !is_full(k) && tol.lt(s_i, s_k) {
                        return Err(KktViolation::FullButSlower {
                            job: i,
                            other: k,
                            interval: j,
                        });
                    }
                    let partial_i = !is_zero(i) && !is_full(i);
                    let partial_k = !is_zero(k) && !is_full(k);
                    if partial_i && partial_k && !tol.eq(s_i, s_k) {
                        return Err(KktViolation::PartialSpeedsDiffer {
                            job: i,
                            other: k,
                            interval: j,
                            s_a: s_i,
                            s_b: s_k,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether `v` names a condition that really fails on `sol`, read off
    /// the dense matrix.
    fn is_real(instance: &Instance, sol: &BalSolution, tol: Tol, v: &KktViolation) -> bool {
        let ivals = &sol.intervals;
        let t = matrix(sol);
        let s = |i: usize| sol.speeds.get(i);
        let alive = |i: usize, j: usize| ivals.intervals_of(i).contains(&j);
        let margin = |j: usize| tol.margin(ivals.length(j));
        let zero = |i: usize, j: usize| t[i][j] <= margin(j);
        let full = |i: usize, j: usize| t[i][j] >= ivals.length(j) - margin(j);
        let pair = |i: usize, k: usize, j: usize| i != k && alive(i, j) && alive(k, j);
        match *v {
            KktViolation::AllotmentOutsideSpan { job, interval } => {
                sol.allotments[job].iter().any(|&(j, _)| j == interval) && !alive(job, interval)
            }
            KktViolation::AllotmentOutOfRange {
                job,
                interval,
                time,
                length,
            } => {
                let m = margin(interval);
                time == t[job][interval] && (time < -m || time > length + m)
            }
            KktViolation::WorkNotConserved { job, .. } => {
                !tol.eq(t[job].iter().sum(), instance.job(job).work / s(job))
            }
            KktViolation::CapacityExceeded { interval, .. } => {
                let used: f64 = t.iter().map(|row| row[interval]).sum();
                !tol.le(used, instance.machines() as f64 * ivals.length(interval))
            }
            KktViolation::IdleWhileSlowerRuns {
                job,
                other,
                interval: j,
            } => pair(job, other, j) && zero(job, j) && !zero(other, j) && tol.gt(s(job), s(other)),
            KktViolation::FullButSlower {
                job,
                other,
                interval: j,
            } => pair(job, other, j) && full(job, j) && !full(other, j) && tol.lt(s(job), s(other)),
            KktViolation::PartialSpeedsDiffer {
                job,
                other,
                interval: j,
                s_a,
                s_b,
            } => {
                let partial = |i: usize| !zero(i, j) && !full(i, j);
                pair(job, other, j)
                    && partial(job)
                    && partial(other)
                    && (s_a, s_b) == (s(job), s(other))
                    && !tol.eq(s_a, s_b)
            }
            KktViolation::UnderloadedIntervalNotFull {
                job,
                interval: j,
                alive: count,
            } => {
                count == (0..sol.speeds.len()).filter(|&i| alive(i, j)).count()
                    && count <= instance.machines()
                    && alive(job, j)
                    && !full(job, j)
            }
        }
    }

    /// A BAL solution of a small instance drawn from one of the workload
    /// families.
    fn drawn_solution(rng: &mut StdRng) -> (Instance, BalSolution) {
        let n = rng.gen_range(1..25);
        let m = rng.gen_range(1..5);
        let alpha = rng.gen_range(1.5..3.0);
        let seed = rng.next_u64();
        let inst = match rng.gen_range(0..5usize) {
            0 => families::general(n, m, alpha).gen(seed),
            1 => families::unit_arbitrary(n, m, alpha).gen(seed),
            2 => families::bursty(n, m, alpha).gen(seed),
            3 => families::laminar_nested(n, m, alpha, seed),
            _ => families::crossing(n, m, alpha, seed),
        };
        let sol = bal(&inst);
        (inst, sol)
    }

    /// One random corruption of `sol`'s speeds or allotments.
    fn corrupt(rng: &mut StdRng, inst: &Instance, sol: &mut BalSolution) {
        let i = rng.gen_range(0..inst.len());
        let entries = sol.allotments[i].len();
        match rng.gen_range(0..6usize) {
            // Scale one speed, and its allotments to match half the time so
            // the structural conditions get to judge it.
            0 => {
                let f = [1.0 + 1e-7, 1.0 - 1e-7, 1.0 + 1e-5, 1.0 - 1e-5, 0.5, 2.0]
                    [rng.gen_range(0..6usize)];
                sol.speeds.set(i, sol.speeds.get(i) * f);
                if rng.gen_bool(0.5) {
                    for e in &mut sol.allotments[i] {
                        e.1 /= f;
                    }
                }
            }
            // Halve one entry.
            1 if entries > 0 => sol.allotments[i][rng.gen_range(0..entries)].1 *= 0.5,
            // Duplicate one entry, whole or split in two halves.
            2 if entries > 0 => {
                let k = rng.gen_range(0..entries);
                let (j, time) = sol.allotments[i][k];
                if rng.gen_bool(0.5) {
                    sol.allotments[i][k].1 = 0.5 * time;
                    sol.allotments[i].push((j, 0.5 * time));
                } else {
                    sol.allotments[i].insert(0, (j, time));
                }
            }
            // Move one entry onto a zero or full tolerance edge, or about
            // one ulp to either side, and re-derive the speed from the new
            // total.
            3 if entries > 0 => {
                let k = rng.gen_range(0..entries);
                let j = sol.allotments[i][k].0;
                let (len, margin) = (
                    sol.intervals.length(j),
                    cert_tol().margin(sol.intervals.length(j)),
                );
                let edge = if rng.gen_bool(0.5) {
                    margin
                } else {
                    len - margin
                };
                let time = match rng.gen_range(0..3usize) {
                    0 => edge,
                    1 => edge * (1.0 + f64::EPSILON),
                    _ => edge * (1.0 - f64::EPSILON),
                };
                sol.allotments[i][k].1 = time;
                let total: f64 = sol.allotments[i].iter().map(|&(_, t)| t).sum();
                if total > 0.0 {
                    sol.speeds.set(i, inst.job(i).work / total);
                }
            }
            // Zero and infinite speeds, with or without the allotments.
            4 => {
                let s = [0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..4usize)];
                sol.speeds.set(i, s);
                if rng.gen_bool(0.5) {
                    sol.allotments[i].clear();
                }
            }
            // Swap two jobs' speeds.
            _ => {
                let k = rng.gen_range(0..inst.len());
                let (a, b) = (sol.speeds.get(i), sol.speeds.get(k));
                sol.speeds.set(i, b);
                sol.speeds.set(k, a);
            }
        }
    }

    /// The one-pass checker returns the dense pairwise checker's verdict on
    /// BAL solutions and on corruptions of them, and every violation it
    /// reports really fails.
    #[test]
    fn one_pass_verdicts_match_the_dense_checker() {
        let (mut rejected, mut corruptions) = (0, 0);
        check::cases(120, 0x6b6b_7431, |rng| {
            let (inst, sol) = drawn_solution(rng);
            let tol = [cert_tol(), Tol::rel(1e-3), Tol::rel(0.0), Tol::rel(0.5)]
                [rng.gen_range(0..4usize)];
            assert_eq!(
                certify(&inst, &sol, tol).is_ok(),
                dense_certify(&inst, &sol, tol).is_ok()
            );
            certify(&inst, &sol, cert_tol()).expect("BAL certifies");
            if inst.is_empty() {
                return;
            }
            for _ in 0..12 {
                let mut bad = sol.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    corrupt(rng, &inst, &mut bad);
                }
                let (fast, dense) = (certify(&inst, &bad, tol), dense_certify(&inst, &bad, tol));
                assert_eq!(
                    fast.is_ok(),
                    dense.is_ok(),
                    "one-pass {fast:?} vs dense {dense:?}"
                );
                if let Err(v) = &fast {
                    assert!(is_real(&inst, &bad, tol, v), "not a real violation: {v}");
                    rejected += 1;
                }
                corruptions += 1;
            }
        });
        // Most corruptions break the certificate, and some do not.
        assert!(
            rejected > corruptions / 3 && rejected < corruptions,
            "{rejected} of {corruptions}"
        );
    }

    fn cert_tol() -> Tol {
        Tol::rel(1e-6)
    }

    #[test]
    fn bal_solutions_certify_on_varied_instances() {
        let cases: Vec<(Vec<Job>, usize)> = vec![
            (vec![Job::new(0, 2.0, 0.0, 2.0)], 1),
            (
                vec![Job::new(0, 4.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 10.0)],
                2,
            ),
            (
                vec![
                    Job::new(0, 3.0, 0.0, 2.0),
                    Job::new(1, 2.0, 0.0, 3.0),
                    Job::new(2, 2.0, 1.0, 4.0),
                    Job::new(3, 1.0, 2.0, 5.0),
                    Job::new(4, 4.0, 0.0, 5.0),
                ],
                2,
            ),
            (
                vec![
                    Job::new(0, 1.0, 0.0, 1.0),
                    Job::new(1, 1.0, 0.5, 1.5),
                    Job::new(2, 1.0, 1.0, 2.0),
                    Job::new(3, 1.0, 0.0, 2.0),
                ],
                3,
            ),
        ];
        for (jobs, m) in cases {
            for alpha in [1.5, 2.0, 3.0] {
                let inst = Instance::new(jobs.clone(), m, alpha).unwrap();
                let sol = bal(&inst);
                certify(&inst, &sol, cert_tol())
                    .unwrap_or_else(|v| panic!("certificate failed (m={m}, alpha={alpha}): {v}"));
            }
        }
    }

    #[test]
    fn detects_wrong_speed() {
        let inst = Instance::new(
            vec![Job::new(0, 2.0, 0.0, 2.0), Job::new(1, 2.0, 0.0, 2.0)],
            1,
            2.0,
        )
        .unwrap();
        let mut sol = bal(&inst);
        // Corrupt: claim a slower speed without adjusting allotments.
        sol.speeds.set(0, sol.speeds.get(0) * 0.5);
        assert!(matches!(
            certify(&inst, &sol, cert_tol()),
            Err(KktViolation::WorkNotConserved { job: 0, .. })
        ));
    }

    #[test]
    fn detects_capacity_violation() {
        let inst = Instance::new(
            vec![Job::new(0, 2.0, 0.0, 2.0), Job::new(1, 2.0, 0.0, 2.0)],
            1,
            2.0,
        )
        .unwrap();
        let mut sol = bal(&inst);
        // Give job 0 extra phantom time: breaks conservation AND capacity;
        // conservation triggers first unless we also bump the speed story.
        sol.allotments[0].push((0, 2.0));
        let err = certify(&inst, &sol, cert_tol()).unwrap_err();
        assert!(matches!(
            err,
            KktViolation::WorkNotConserved { .. }
                | KktViolation::CapacityExceeded { .. }
                | KktViolation::AllotmentOutOfRange { .. }
        ));
    }

    #[test]
    fn detects_unbalanced_partial_speeds() {
        // Hand-build a *feasible but suboptimal* solution: two identical
        // jobs on one machine, each running at a different speed.
        let inst = Instance::new(
            vec![Job::new(0, 2.0, 0.0, 2.0), Job::new(1, 2.0, 0.0, 2.0)],
            1,
            2.0,
        )
        .unwrap();
        let mut sol = bal(&inst);
        // Optimal: both at speed 2, each one unit of time. Corrupt into
        // speeds 4 and 4/3 (job 0 gets 0.5, job 1 gets 1.5 time units).
        sol.speeds.set(0, 4.0);
        sol.speeds.set(1, 4.0 / 3.0);
        sol.allotments[0] = vec![(0, 0.5)];
        sol.allotments[1] = vec![(0, 1.5)];
        let err = certify(&inst, &sol, cert_tol()).unwrap_err();
        assert!(
            matches!(err, KktViolation::PartialSpeedsDiffer { .. }),
            "expected P4 violation, got {err}"
        );
    }

    #[test]
    fn detects_underloaded_interval_not_full() {
        // One job, huge window: optimal fills the whole window (P5).
        let inst = Instance::new(vec![Job::new(0, 1.0, 0.0, 4.0)], 2, 2.0).unwrap();
        let mut sol = bal(&inst);
        // Corrupt: run twice as fast using half the window.
        sol.speeds.set(0, 0.5);
        sol.allotments[0] = vec![(0, 2.0)];
        let err = certify(&inst, &sol, cert_tol()).unwrap_err();
        assert!(
            matches!(err, KktViolation::UnderloadedIntervalNotFull { .. }),
            "expected P5 violation, got {err}"
        );
    }

    #[test]
    fn detects_idle_while_slower_runs() {
        // Two intervals, two jobs on one machine. Optimal: job 0 (tight)
        // runs [0,1]; job 1 runs [1,2]. Corrupt: swap part of the usage so
        // the *faster* job idles while the slower one runs.
        let inst = Instance::new(
            vec![Job::new(0, 3.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 2.0)],
            1,
            2.0,
        )
        .unwrap();
        let sol = bal(&inst);
        certify(&inst, &sol, cert_tol()).unwrap();
        // Job 0 must have speed 3 in [0,1]; job 1 speed 1 in [1,2].
        let mut bad = sol.clone();
        // Make job 1 (slower) grab time in interval 0 while job 0 squeezes
        // into less of interval 0 at higher claimed speed — P2/P3 break.
        bad.speeds.set(0, 6.0);
        bad.allotments[0] = vec![(0, 0.5)];
        bad.speeds.set(1, 2.0 / 3.0);
        bad.allotments[1] = vec![(0, 0.5), (1, 1.0)];
        let err = certify(&inst, &bad, cert_tol()).unwrap_err();
        assert!(
            matches!(
                err,
                KktViolation::PartialSpeedsDiffer { .. }
                    | KktViolation::IdleWhileSlowerRuns { .. }
                    | KktViolation::FullButSlower { .. }
                    | KktViolation::UnderloadedIntervalNotFull { .. }
            ),
            "expected a structural violation, got {err}"
        );
    }
}
