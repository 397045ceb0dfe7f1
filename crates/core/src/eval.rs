//! `YdsEval` — the incremental per-machine energy oracle.
//!
//! Every non-migratory algorithm in this crate reduces to "pick an
//! assignment, price it as the sum of per-machine YDS energies". The naive
//! pattern — materialize a `Vec<Job>` for the touched machine and re-run
//! YDS from scratch — is what made local search and branch-and-bound slow:
//! a candidate move touches two machines but the surrounding search re-asks
//! the *same* machine/job-set questions over and over (the from-side of a
//! move is shared by all `m-1` targets, a rejected pass re-prices last
//! pass's candidates, sibling branch-and-bound subtrees rebuild identical
//! machine contents).
//!
//! [`YdsEval`] holds the current job→machine state, prices candidate
//! [`Candidate::Move`]/[`Candidate::Swap`] mutations by recomputing only the
//! (at most two) touched machines, and memoizes energies keyed by the
//! **ordered** job-index list of a machine. Ordered keys matter: YDS is
//! deterministic for a fixed job order, so a cache hit returns a
//! bit-identical energy to the recomputation it replaces — the oracle is an
//! exact drop-in for the materialize-and-recompute pattern, transcript
//! included. (A set-valued key would also hit permuted lists, whose energies
//! agree only up to floating-point rounding.)
//!
//! On top of the memo sits **certified rejection**
//! ([`YdsEval::certified_reject`]): most local-search candidates are bad,
//! and for most of the bad ones two analytic bounds prove it without
//! running the kernel at all. Convexity of the optimal energy in a job's
//! work upper-bounds what a machine saves by shedding the job, and
//! superadditivity plus pointwise profile monotonicity lower-bound what the
//! receiving machine pays to take it. When the bounds prove the exact delta
//! non-improving (with safety margins far above the kernel's float error),
//! the candidate can be skipped with a transcript identical to pricing and
//! rejecting it. See DESIGN.md §3.11 for the full argument.
//!
//! Probe counters: `eval.cache_hit`, `eval.cache_miss`, `eval.cache_evict`,
//! `eval.reject_bound`, `eval.reject_depleted`, `eval.reject_partial`,
//! `eval.profile_rebuild`, `eval.depleted_build` (see
//! docs/OBSERVABILITY.md).

use crate::assignment::Assignment;
use ssp_model::numeric::energy_of;
use ssp_model::{Instance, Job};
use ssp_single::yds::{yds_energy_in, yds_schedule, YdsArena};
use std::collections::HashMap;

/// Relative safety margin applied to every analytic bound before it is
/// allowed to certify a rejection. The bounds are computed from the float
/// YDS kernel's speeds, whose relative error is ~1e-13 at realistic group
/// sizes; 1e-9 dominates that by four orders of magnitude while still being
/// far below the energy differences that make a candidate interesting.
const REL_MARGIN: f64 = 1e-9;

/// Outcome codes recorded into the `eval.reject_tier` histogram by
/// [`YdsEval::certified_reject`]. Powers of two, so each tier occupies its
/// own log2 bucket and the histogram doubles as an outcome breakdown.
const TIER_BOUND: u64 = 1;
/// See [`TIER_BOUND`]: rejected by a depleted-snapshot bound.
const TIER_DEPLETED: u64 = 2;
/// See [`TIER_BOUND`]: rejected by partial exact pricing.
const TIER_PARTIAL: u64 = 4;
/// See [`TIER_BOUND`]: not rejected — fell through to exact `delta_energy`.
const TIER_ACCEPTED: u64 = 8;

/// Lower bound on the energy a machine gains when a job of work `w` and
/// window length `span` arrives, given a certified lower bound `smin` on
/// the machine's speed profile over the job's window (0 = no information).
///
/// At work level `t` the job's own speed is at least
/// `max(smin, t/span)` — its critical interval lies inside its window, so
/// its intensity is at least `t/span`, and the job executes somewhere in
/// the window at the profile speed there, which pointwise dominates the
/// job-free profile. The marginal energy of the job's work is `α·s^{α-1}`
/// at its current speed, so integrating from 0 to `w`:
///
/// * `w ≤ smin·span`: `α·w·smin^{α-1}`;
/// * otherwise: `E({job}) + (α-1)·smin^α·span` — the standalone energy
///   `e_single` plus the surplus from the floor.
///
/// Strictly dominates `max(e_single, α·w·smin^{α-1})`.
fn marginal_gain_lb(e_single: f64, w: f64, span: f64, smin: f64, alpha: f64) -> f64 {
    if smin <= 0.0 {
        return e_single;
    }
    let cap = smin * span;
    if cap >= w {
        alpha * energy_of(w, smin, alpha)
    } else {
        // `smin^α · span` expressed through `energy_of`: work `smin·span`
        // processed at speed `smin`.
        e_single + (alpha - 1.0) * energy_of(cap, smin, alpha)
    }
}

/// Minimum speed of a start-sorted segment profile over `[r, d]`, treating
/// idle time — and any segment with speed `<= floor` (up to a relative ulp
/// guard) — as 0. A positive return is a certified lower bound on the
/// profile's speed everywhere in the window; 0 is always sound.
fn min_speed_over(segs: &[(f64, f64, f64)], r: f64, d: f64, floor: f64) -> f64 {
    // NaN bounds fall through to the empty-window answer.
    if d <= r {
        return 0.0;
    }
    // Segment speeds come out of EDF as `w / (w / s)`, which can round one
    // ulp *above* the kernel's speed `s` — so a segment from the floored
    // job's own peel (exactly `floor` in exact arithmetic) can escape a
    // plain `<=` test and survive as certified fast region, inflating the
    // gain bound. Compare against a relatively widened floor instead:
    // segments from strictly earlier peels sit well above `floor`, so
    // widening by 1e-9 only floors near-ties, which is conservative
    // (smaller `smin`, weaker bound).
    let floor = floor * (1.0 + 1e-9);
    let mut idx = segs.partition_point(|&(_, end, _)| end <= r);
    let mut t = r;
    let mut min_speed = f64::INFINITY;
    while idx < segs.len() && segs[idx].0 < d {
        let (start, end, speed) = segs[idx];
        if start > t || speed <= floor {
            return 0.0;
        }
        min_speed = min_speed.min(speed);
        t = end;
        if t >= d {
            return min_speed;
        }
        idx += 1;
    }
    0.0
}

/// Sentinel for "job not currently placed on any machine".
const UNASSIGNED: usize = usize::MAX;

/// Snapshot of a machine solved *without* one of its jobs: the depleted
/// energy (an exact marginal save for shedding the job) and the depleted
/// speed profile (an unfloored gain floor for any arriving partner job).
/// Valid only while the job is still on `machine` and `stamp` matches that
/// machine's mutation stamp (a committed move touches two machines and
/// leaves the other machines' snapshots valid).
struct DeplEntry {
    machine: u32,
    stamp: u64,
    energy: f64,
    profile: Vec<(f64, f64, f64)>,
}

/// A candidate mutation of the current assignment, priced by
/// [`YdsEval::delta_energy`] and committed by [`YdsEval::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    /// Reassign `job` to machine `to` (must differ from its current machine).
    Move {
        /// Job index (instance indexing).
        job: usize,
        /// Target machine.
        to: usize,
    },
    /// Exchange the machines of jobs `a` and `b` (must differ).
    Swap {
        /// First job index.
        a: usize,
        /// Second job index.
        b: usize,
    },
}

/// Incremental per-machine YDS energy oracle (see module docs).
pub struct YdsEval<'a> {
    instance: &'a Instance,
    /// Machine of each job, or [`UNASSIGNED`].
    machine_of: Vec<usize>,
    /// Ordered job-index list per machine. The order is the insertion order
    /// (append on add, order-preserving filter on remove) — exactly the
    /// order the materialize-and-recompute pattern produced.
    groups: Vec<Vec<u32>>,
    /// Current YDS energy per machine.
    energy: Vec<f64>,
    /// Memo: ordered job-index list → YDS energy of that list.
    cache: HashMap<Box<[u32]>, f64>,
    /// Entry cap; the cache is cleared (not LRU-evicted) on overflow.
    cache_cap: usize,
    scratch_jobs: Vec<Job>,
    /// Kernel buffers reused across every memoized energy query, so a cache
    /// miss costs only the YDS arithmetic ([`yds_energy_in`]).
    arena: YdsArena,
    key_a: Vec<u32>,
    key_b: Vec<u32>,
    key_peek: Vec<u32>,
    /// Standalone energy `E({i})` of each job run alone in its window —
    /// `w_i^α / span_i^{α-1}` — precomputed once; a lower bound on any
    /// machine's energy increase when the job arrives (superadditivity).
    e_single: Vec<f64>,
    /// Speed each job runs at in its machine's current YDS solution. Valid
    /// for job `i` only while `profile_dirty[machine_of[i]]` is false.
    speed_of_job: Vec<f64>,
    /// Per-machine speed profile: `(start, end, speed)` segments of the
    /// machine's current YDS schedule, sorted by start. Rebuilt lazily.
    profiles: Vec<Vec<(f64, f64, f64)>>,
    /// Machines whose profile (and jobs' `speed_of_job`) is stale.
    profile_dirty: Vec<bool>,
    /// Per-job depleted snapshots (machine solved without the job), each
    /// tagged with the machine and its stamp at build time. At most one
    /// entry per job.
    depl: HashMap<u32, DeplEntry>,
    /// Per-machine mutation stamps, bumped whenever a machine's job set
    /// changes; invalidate that machine's snapshots in `depl` without
    /// walking the map (snapshots of untouched machines stay valid).
    mstamp: Vec<u64>,
}

impl<'a> YdsEval<'a> {
    /// Oracle over `instance` with every machine empty.
    pub fn new(instance: &'a Instance) -> Self {
        let m = instance.machines();
        let n = instance.len();
        // Entry cap sized to hold several local-search passes of distinct
        // lists within a ~256 MB key budget at the expected list length
        // n/m. A cap overflow clears the whole memo, turning every warm
        // entry back into a kernel call, so the budget is deliberately
        // generous: local search at n=1600 prices ~10^5 distinct lists.
        let avg_len = (n / m.max(1)).max(8);
        let cache_cap = (64_000_000 / avg_len).clamp(4096, 1_048_576);
        let alpha = instance.alpha();
        let e_single = (0..n)
            .map(|i| {
                let j = instance.job(i);
                energy_of(j.work, j.work / j.span(), alpha)
            })
            .collect();
        YdsEval {
            instance,
            machine_of: vec![UNASSIGNED; n],
            groups: vec![Vec::new(); m],
            energy: vec![0.0; m],
            cache: HashMap::new(),
            cache_cap,
            scratch_jobs: Vec::new(),
            arena: YdsArena::default(),
            key_a: Vec::new(),
            key_b: Vec::new(),
            key_peek: Vec::new(),
            e_single,
            speed_of_job: vec![f64::NAN; n],
            profiles: vec![Vec::new(); m],
            profile_dirty: vec![true; m],
            depl: HashMap::new(),
            mstamp: vec![0; m],
        }
    }

    /// Oracle seeded with a full assignment.
    pub fn with_assignment(instance: &'a Instance, assignment: &Assignment) -> Self {
        assert_eq!(
            assignment.len(),
            instance.len(),
            "assignment length mismatch"
        );
        let mut eval = Self::new(instance);
        for (i, &p) in assignment.as_slice().iter().enumerate() {
            assert!(p < eval.groups.len(), "job {i} on machine {p}");
            eval.machine_of[i] = p;
            eval.groups[p].push(i as u32);
        }
        for p in 0..eval.groups.len() {
            eval.energy[p] = eval.group_energy(p);
        }
        eval
    }

    /// Machine currently holding job `i`; panics if unplaced.
    #[inline]
    pub fn machine_of(&self, i: usize) -> usize {
        let p = self.machine_of[i];
        assert_ne!(p, UNASSIGNED, "job {i} is not placed");
        p
    }

    /// Current YDS energy of machine `p`.
    #[inline]
    pub fn machine_energy(&self, p: usize) -> f64 {
        self.energy[p]
    }

    /// Sum of per-machine energies (same fold order as summing a
    /// freshly-computed per-machine energy vector).
    pub fn total_energy(&self) -> f64 {
        self.energy.iter().sum()
    }

    /// The current placement as an [`Assignment`] (every job must be placed).
    pub fn assignment(&self) -> Assignment {
        assert!(
            self.machine_of.iter().all(|&p| p != UNASSIGNED),
            "assignment() with unplaced jobs"
        );
        Assignment::new(self.machine_of.clone())
    }

    /// Place job `i` on machine `p` (append semantics).
    pub fn add(&mut self, i: usize, p: usize) {
        assert_eq!(self.machine_of[i], UNASSIGNED, "job {i} already placed");
        self.machine_of[i] = p;
        self.groups[p].push(i as u32);
        self.energy[p] = self.group_energy(p);
        self.profile_dirty[p] = true;
        self.mstamp[p] += 1;
    }

    /// Remove job `i` from its machine (order-preserving).
    pub fn remove(&mut self, i: usize) {
        let p = self.machine_of(i);
        self.machine_of[i] = UNASSIGNED;
        self.groups[p].retain(|&k| k != i as u32);
        self.energy[p] = self.group_energy(p);
        self.profile_dirty[p] = true;
        self.mstamp[p] += 1;
    }

    /// Energy of machine `p` if job `i` were appended to it — priced without
    /// mutating anything.
    pub fn energy_with(&mut self, p: usize, i: usize) -> f64 {
        let mut key = std::mem::take(&mut self.key_a);
        key.clear();
        key.extend_from_slice(&self.groups[p]);
        key.push(i as u32);
        let e = self.list_energy_key(&key);
        self.key_a = key;
        e
    }

    /// Energy change of applying `candidate`, computed with the exact
    /// floating-point expression the materialize-and-recompute pattern used:
    /// `e_first + e_second - energy[first] - energy[second]` (left
    /// associated), so accept/reject decisions — and hence search
    /// transcripts — are bit-for-bit reproducible.
    pub fn delta_energy(&mut self, candidate: Candidate) -> f64 {
        let (first, second, e_first, e_second) = self.price(candidate);
        e_first + e_second - self.energy[first] - self.energy[second]
    }

    /// Commit `candidate`. The touched machines' energies are recomputed
    /// through the memo, so an `apply` right after [`Self::delta_energy`]
    /// costs two cache hits.
    pub fn apply(&mut self, candidate: Candidate) {
        let (first, second, e_first, e_second) = self.price(candidate);
        match candidate {
            Candidate::Move { job, to } => {
                let from = self.machine_of(job);
                self.groups[from].retain(|&k| k != job as u32);
                self.groups[to].push(job as u32);
                self.machine_of[job] = to;
            }
            Candidate::Swap { a, b } => {
                let (pa, pb) = (self.machine_of(a), self.machine_of(b));
                self.groups[pa].retain(|&k| k != a as u32);
                self.groups[pa].push(b as u32);
                self.groups[pb].retain(|&k| k != b as u32);
                self.groups[pb].push(a as u32);
                self.machine_of[a] = pb;
                self.machine_of[b] = pa;
            }
        }
        self.energy[first] = e_first;
        self.energy[second] = e_second;
        self.profile_dirty[first] = true;
        self.profile_dirty[second] = true;
        self.mstamp[first] += 1;
        self.mstamp[second] += 1;
    }

    /// Try to prove `candidate` non-improving without pricing it exactly.
    ///
    /// Returns `true` only when rejection is *certified*: the exact delta
    /// that [`Self::delta_energy`] would compute provably fails the
    /// local-search accept test `delta < -1e-12 · total`. Skipping a
    /// certified candidate therefore changes neither the search state nor
    /// its transcript — `improve` stays bit-identical to pricing every
    /// candidate. Two tiers (see DESIGN.md §3.11 for the proofs):
    ///
    /// 1. **bound** — no kernel call. Convexity of the optimal energy in a
    ///    job's work bounds what a machine saves by shedding the job from
    ///    above by `α·w·s^{α-1}` at the job's current speed `s`;
    ///    superadditivity and pointwise profile monotonicity bound what the
    ///    receiver pays from below by `max(E({job}), α·w·s_min^{α-1})`
    ///    with `s_min` the receiver's minimum profile speed over the job's
    ///    window (0 if the window contains idle time). For swaps each
    ///    machine's (remove, add) pair is bounded against the *depleted*
    ///    machine via a floored profile — peel-prefix stability keeps every
    ///    region faster than the removed job intact.
    /// 2. **partial** — one kernel call. Price the cheap side exactly (the
    ///    from-side of a move is shared by all its targets; a swap's priced
    ///    side becomes a cache hit if the candidate falls through to
    ///    `delta_energy`) and combine with the other side's bound.
    ///
    /// Counters: `eval.reject_bound`, `eval.reject_partial`. Every call
    /// also records its outcome tier into the `eval.reject_tier` histogram
    /// (1 = bound, 2 = depleted, 4 = partial, 8 = fell through to exact
    /// pricing).
    pub fn certified_reject(&mut self, candidate: Candidate) -> bool {
        match candidate {
            Candidate::Move { job, to } => self.certify_move_reject(job, to),
            Candidate::Swap { a, b } => self.certify_swap_reject(a, b),
        }
    }

    fn certify_move_reject(&mut self, job: usize, to: usize) -> bool {
        let from = self.machine_of(job);
        // Non-finite machine energy (unreachable through a validated
        // `Instance`, kept for robustness): the exact delta is then +inf or
        // NaN in every case — removing a job from an infeasible machine
        // leaves it infeasible unless the job is infeasible on its own, in
        // which case it makes the target infeasible — so the accept test
        // always fails.
        if !self.energy[from].is_finite() || !self.energy[to].is_finite() {
            ssp_probe::counter!("eval.reject_bound");
            ssp_probe::histogram!("eval.reject_tier", TIER_BOUND);
            return true;
        }
        self.refresh_profile(from);
        self.refresh_profile(to);
        let j = *self.instance.job(job);
        let alpha = self.instance.alpha();
        let slack = 1e-11 * (self.energy[from] + self.energy[to]);
        // A fresh depleted snapshot (left over from the swap phase of an
        // unimproving pass) upgrades the convexity bound to the exact save
        // for free. The `slack` term below absorbs the float error of the
        // exact difference (and only strengthens the convexity case).
        let save_ub = match self.depl.get(&(job as u32)) {
            Some(e) if e.machine == from as u32 && e.stamp == self.mstamp[from] => {
                self.energy[from] - e.energy
            }
            _ => alpha * energy_of(j.work, self.speed_of_job[job], alpha) * (1.0 + REL_MARGIN),
        };
        let smin = self.profile_min_speed(to, j.release, j.deadline, 0.0);
        let gain_lb = marginal_gain_lb(self.e_single[job], j.work, j.span(), smin, alpha)
            * (1.0 - REL_MARGIN);
        if gain_lb >= save_ub + slack {
            ssp_probe::counter!("eval.reject_bound");
            ssp_probe::histogram!("eval.reject_tier", TIER_BOUND);
            return true;
        }
        // Partial tier: the from-side is shared by all m-1 targets of this
        // job, so pricing it exactly costs at most one kernel call per job
        // (and zero if `delta_energy` runs anyway — the memo keeps it).
        let mut key = std::mem::take(&mut self.key_a);
        key.clear();
        key.extend(
            self.groups[from]
                .iter()
                .copied()
                .filter(|&k| k != job as u32),
        );
        let e_from = self.list_energy_key(&key);
        self.key_a = key;
        let exact_save = self.energy[from] - e_from;
        if gain_lb >= exact_save + slack {
            ssp_probe::counter!("eval.reject_partial");
            ssp_probe::histogram!("eval.reject_tier", TIER_PARTIAL);
            return true;
        }
        ssp_probe::histogram!("eval.reject_tier", TIER_ACCEPTED);
        false
    }

    fn certify_swap_reject(&mut self, a: usize, b: usize) -> bool {
        let (pa, pb) = (self.machine_of(a), self.machine_of(b));
        if !self.energy[pa].is_finite() || !self.energy[pb].is_finite() {
            ssp_probe::counter!("eval.reject_bound");
            ssp_probe::histogram!("eval.reject_tier", TIER_BOUND);
            return true;
        }
        self.refresh_profile(pa);
        self.refresh_profile(pb);
        let ja = *self.instance.job(a);
        let jb = *self.instance.job(b);
        let alpha = self.instance.alpha();
        let (sa, sb) = (self.speed_of_job[a], self.speed_of_job[b]);
        let slack = 1e-11 * (self.energy[pa] + self.energy[pb]);
        // Free tier: convexity save bounds and gains against the machines'
        // own profiles *floored* at the removed job's speed — regions at
        // most that fast may vanish with the job, regions strictly faster
        // survive its removal intact (peel-prefix stability). No kernel
        // call.
        let save_a_ub = alpha * energy_of(ja.work, sa, alpha) * (1.0 + REL_MARGIN);
        let save_b_ub = alpha * energy_of(jb.work, sb, alpha) * (1.0 + REL_MARGIN);
        let smin_a_fl = self.profile_min_speed(pa, jb.release, jb.deadline, sa);
        let gain_b_fl = marginal_gain_lb(self.e_single[b], jb.work, jb.span(), smin_a_fl, alpha)
            * (1.0 - REL_MARGIN);
        let smin_b_fl = self.profile_min_speed(pb, ja.release, ja.deadline, sb);
        let gain_a_fl = marginal_gain_lb(self.e_single[a], ja.work, ja.span(), smin_b_fl, alpha)
            * (1.0 - REL_MARGIN);
        if (gain_b_fl - save_a_ub) + (gain_a_fl - save_b_ub) >= slack {
            ssp_probe::counter!("eval.reject_bound");
            ssp_probe::histogram!("eval.reject_tier", TIER_BOUND);
            return true;
        }
        // Depleted tier: one snapshot solve per (job, state), amortized
        // across every partner the job is paired with until the next
        // committed mutation. The snapshot gives the *exact* marginal save
        // and the true depleted profile — no flooring, so windows that the
        // free tier zeroed out (the removed job's own peel covering them)
        // recover their genuine post-removal speed. Tighten one side at a
        // time — starting with whichever snapshot is already fresh — and
        // retest before paying for the second solve.
        let a_first = self.depl_fresh(a) || !self.depl_fresh(b);
        // `jx` is the *partner's* job — the one arriving on the depleted
        // machine; `side_x_free` is the other side's free-tier bound.
        let (x, px, jx, side_x_free) = if a_first {
            (a, pa, jb, gain_a_fl - save_b_ub)
        } else {
            (b, pb, ja, gain_b_fl - save_a_ub)
        };
        let (save_x, smin_x) = self.depleted_side(px, x, jx.release, jx.deadline);
        let gain_x = marginal_gain_lb(
            self.e_single[if a_first { b } else { a }],
            jx.work,
            jx.span(),
            smin_x,
            alpha,
        ) * (1.0 - REL_MARGIN);
        if (gain_x - save_x) + side_x_free >= slack {
            ssp_probe::counter!("eval.reject_depleted");
            ssp_probe::histogram!("eval.reject_tier", TIER_DEPLETED);
            return true;
        }
        let (y, py, jy) = if a_first { (b, pb, ja) } else { (a, pa, jb) };
        let (save_y, smin_y) = self.depleted_side(py, y, jy.release, jy.deadline);
        let gain_y = marginal_gain_lb(
            self.e_single[if a_first { a } else { b }],
            jy.work,
            jy.span(),
            smin_y,
            alpha,
        ) * (1.0 - REL_MARGIN);
        let (side_a, side_b) = if a_first {
            (gain_x - save_x, gain_y - save_y)
        } else {
            (gain_y - save_y, gain_x - save_x)
        };
        if side_a + side_b >= slack {
            ssp_probe::counter!("eval.reject_depleted");
            ssp_probe::histogram!("eval.reject_tier", TIER_DEPLETED);
            return true;
        }
        // Partial tier: price the loosest side exactly. If the candidate
        // still falls through to `delta_energy`, the priced side is a memo
        // hit — the partial tier never costs an extra kernel call.
        let mut key = std::mem::take(&mut self.key_a);
        key.clear();
        let exact_side = if side_a <= side_b {
            key.extend(self.groups[pa].iter().copied().filter(|&k| k != a as u32));
            key.push(b as u32);
            let e_a = self.list_energy_key(&key);
            (e_a - self.energy[pa]) + side_b
        } else {
            key.extend(self.groups[pb].iter().copied().filter(|&k| k != b as u32));
            key.push(a as u32);
            let e_b = self.list_energy_key(&key);
            (e_b - self.energy[pb]) + side_a
        };
        self.key_a = key;
        if exact_side >= slack {
            ssp_probe::counter!("eval.reject_partial");
            ssp_probe::histogram!("eval.reject_tier", TIER_PARTIAL);
            return true;
        }
        ssp_probe::histogram!("eval.reject_tier", TIER_ACCEPTED);
        false
    }

    /// Whether job `i`'s depleted snapshot is valid for the current state:
    /// built against the machine the job is on now, at its current stamp.
    fn depl_fresh(&self, i: usize) -> bool {
        let p = self.machine_of[i];
        self.depl
            .get(&(i as u32))
            .is_some_and(|e| e.machine == p as u32 && e.stamp == self.mstamp[p])
    }

    /// Exact marginal save and depleted-profile floor for removing job `i`
    /// from machine `p`: `(energy[p] - E(groups[p] ∖ i), min depleted speed
    /// over [r, d])`. Solves the depleted list once per (job, state) —
    /// counter `eval.depleted_build` — snapshots it under the machine's
    /// current stamp, and seeds the solved energy into the memo so later
    /// exact pricing of the same list (a move's from-side, a move partial
    /// tier) is a cache hit.
    fn depleted_side(&mut self, p: usize, i: usize, r: f64, d: f64) -> (f64, f64) {
        let id = i as u32;
        if !self.depl_fresh(i) {
            let mut key = std::mem::take(&mut self.key_peek);
            key.clear();
            key.extend(self.groups[p].iter().copied().filter(|&k| k != id));
            let mut entry = self.depl.remove(&id).unwrap_or(DeplEntry {
                machine: 0,
                stamp: 0,
                energy: 0.0,
                profile: Vec::new(),
            });
            entry.machine = p as u32;
            entry.stamp = self.mstamp[p];
            entry.profile.clear();
            if key.is_empty() {
                entry.energy = 0.0;
            } else {
                ssp_probe::counter!("eval.depleted_build");
                self.scratch_jobs.clear();
                self.scratch_jobs
                    .extend(key.iter().map(|&k| *self.instance.job(k as usize)));
                let (sol, sched) = yds_schedule(&self.scratch_jobs, self.instance.alpha(), 0);
                entry.energy = sol.energy;
                entry
                    .profile
                    .extend(sched.segments().iter().map(|s| (s.start, s.end, s.speed)));
                entry.profile.sort_by(|x, y| x.0.total_cmp(&y.0));
                // The snapshot energy is the same bits `list_energy_key`
                // would compute — the kernel is deterministic per ordered
                // list — so it is a legitimate memo entry.
                if !self.cache.contains_key(key.as_slice()) {
                    if self.cache.len() >= self.cache_cap {
                        ssp_probe::counter!("eval.cache_evict");
                        self.cache.clear();
                    }
                    self.cache
                        .insert(key.to_vec().into_boxed_slice(), sol.energy);
                }
            }
            self.key_peek = key;
            self.depl.insert(id, entry);
        }
        let e = &self.depl[&id];
        (
            self.energy[p] - e.energy,
            min_speed_over(&e.profile, r, d, 0.0),
        )
    }

    /// Rebuild machine `p`'s speed profile (and its jobs' `speed_of_job`)
    /// from its current YDS schedule, if stale.
    fn refresh_profile(&mut self, p: usize) {
        if !self.profile_dirty[p] {
            return;
        }
        self.profile_dirty[p] = false;
        self.profiles[p].clear();
        if self.groups[p].is_empty() || !self.energy[p].is_finite() {
            // An empty profile makes every min-speed query return 0, which
            // only weakens the bounds (and non-finite machines are
            // short-circuited before any profile query).
            return;
        }
        ssp_probe::counter!("eval.profile_rebuild");
        self.scratch_jobs.clear();
        self.scratch_jobs.extend(
            self.groups[p]
                .iter()
                .map(|&i| *self.instance.job(i as usize)),
        );
        let (sol, sched) = yds_schedule(&self.scratch_jobs, self.instance.alpha(), 0);
        for (&i, &s) in self.groups[p].iter().zip(&sol.speeds) {
            self.speed_of_job[i as usize] = s;
        }
        let profile = &mut self.profiles[p];
        profile.extend(sched.segments().iter().map(|s| (s.start, s.end, s.speed)));
        profile.sort_by(|x, y| x.0.total_cmp(&y.0));
    }

    /// Minimum profile speed of machine `p` over `[r, d]`, treating idle
    /// time — and any segment with speed `<= floor` (up to a relative ulp
    /// guard) — as 0. A positive return is a certified lower bound on the
    /// machine's speed everywhere in the window; 0 is always sound.
    fn profile_min_speed(&self, p: usize, r: f64, d: f64, floor: f64) -> f64 {
        min_speed_over(&self.profiles[p], r, d, floor)
    }

    /// Price `candidate`: `(first_machine, second_machine, e_first,
    /// e_second)` where the energies are for the post-candidate contents.
    fn price(&mut self, candidate: Candidate) -> (usize, usize, f64, f64) {
        match candidate {
            Candidate::Move { job, to } => {
                let from = self.machine_of(job);
                assert_ne!(from, to, "move to the current machine");
                let mut key_a = std::mem::take(&mut self.key_a);
                let mut key_b = std::mem::take(&mut self.key_b);
                key_a.clear();
                key_a.extend(
                    self.groups[from]
                        .iter()
                        .copied()
                        .filter(|&k| k != job as u32),
                );
                key_b.clear();
                key_b.extend_from_slice(&self.groups[to]);
                key_b.push(job as u32);
                let e_from = self.list_energy_key(&key_a);
                let e_to = self.list_energy_key(&key_b);
                self.key_a = key_a;
                self.key_b = key_b;
                (from, to, e_from, e_to)
            }
            Candidate::Swap { a, b } => {
                let (pa, pb) = (self.machine_of(a), self.machine_of(b));
                assert_ne!(pa, pb, "swap within one machine");
                let mut key_a = std::mem::take(&mut self.key_a);
                let mut key_b = std::mem::take(&mut self.key_b);
                key_a.clear();
                key_a.extend(self.groups[pa].iter().copied().filter(|&k| k != a as u32));
                key_a.push(b as u32);
                key_b.clear();
                key_b.extend(self.groups[pb].iter().copied().filter(|&k| k != b as u32));
                key_b.push(a as u32);
                let e_a = self.list_energy_key(&key_a);
                let e_b = self.list_energy_key(&key_b);
                self.key_a = key_a;
                self.key_b = key_b;
                (pa, pb, e_a, e_b)
            }
        }
    }

    /// Current energy of machine `p`'s group, through the memo.
    fn group_energy(&mut self, p: usize) -> f64 {
        let key = std::mem::take(&mut self.groups);
        let e = self.list_energy_key(&key[p]);
        self.groups = key;
        e
    }

    /// The memoized kernel call.
    fn list_energy_key(&mut self, key: &[u32]) -> f64 {
        if key.is_empty() {
            return 0.0;
        }
        if let Some(&e) = self.cache.get(key) {
            ssp_probe::counter!("eval.cache_hit");
            return e;
        }
        ssp_probe::counter!("eval.cache_miss");
        self.scratch_jobs.clear();
        self.scratch_jobs
            .extend(key.iter().map(|&i| *self.instance.job(i as usize)));
        let e = yds_energy_in(&mut self.arena, &self.scratch_jobs, self.instance.alpha());
        if self.cache.len() >= self.cache_cap {
            ssp_probe::counter!("eval.cache_evict");
            self.cache.clear();
        }
        self.cache.insert(key.to_vec().into_boxed_slice(), e);
        e
    }
}

/// The oracle's online sibling: a memoized YDS pricer over **owned job
/// lists** instead of a fixed [`Instance`].
///
/// [`YdsEval`] assumes a closed universe — every job exists up front, keyed
/// by instance index. A streaming engine has the opposite shape: jobs appear
/// over time, expire, and are compacted away, so there is no instance to
/// index into; what repeats is the *live window* of a machine (the alive
/// job list), which is re-priced by every density-aware dispatch decision
/// against `m` machines and changes by one job per arrival. `LiveEval`
/// memoizes exactly that: the YDS energy of an ordered job list, keyed by
/// the job-id sequence.
///
/// **Contract:** within one `LiveEval`, a job id always denotes the same
/// `(work, release, deadline)` triple — the id *is* the job. Arrival
/// traces guarantee this (ids are unique per stream); violating it silently
/// poisons the memo. Ordered keys for the same reason as [`YdsEval`]: the
/// kernel is deterministic per ordered list, so a hit is bit-identical to
/// the recomputation it replaces.
///
/// Counters: `eval.live_hit`, `eval.live_miss`, `eval.live_evict`.
pub struct LiveEval {
    alpha: f64,
    cache: HashMap<Box<[u32]>, f64>,
    cache_cap: usize,
    key: Vec<u32>,
    jobs: Vec<Job>,
    /// Kernel buffers reused across misses (see [`YdsEval::arena`] — same
    /// role, same bit-identity contract via [`yds_energy_in`]).
    arena: YdsArena,
}

impl LiveEval {
    /// Empty oracle for power exponent `alpha`.
    pub fn new(alpha: f64) -> Self {
        LiveEval {
            alpha,
            // Live windows are short (the whole point of compaction), so a
            // flat entry cap keeps the memo well under ~64 MB of keys.
            cache_cap: 262_144,
            cache: HashMap::new(),
            key: Vec::new(),
            jobs: Vec::new(),
            arena: YdsArena::default(),
        }
    }

    /// Memoized YDS energy of the ordered job list `window`.
    pub fn energy(&mut self, window: &[Job]) -> f64 {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(window.iter().map(|j| j.id.0));
        let e = self.keyed_energy(&key, window, None);
        self.key = key;
        e
    }

    /// Memoized YDS energy of `window` with `candidate` appended — the
    /// add-side of a dispatch decision, priced without materializing the
    /// appended list at the call site.
    pub fn energy_with(&mut self, window: &[Job], candidate: &Job) -> f64 {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.extend(window.iter().map(|j| j.id.0));
        key.push(candidate.id.0);
        let e = self.keyed_energy(&key, window, Some(candidate));
        self.key = key;
        e
    }

    /// Marginal YDS energy of appending `candidate` to `window`:
    /// `energy(window ∪ {candidate}) - energy(window)`, both sides through
    /// the memo (the base term is shared by every candidate priced against
    /// the same window, and the appended term becomes the next base when
    /// the candidate is actually dispatched here).
    pub fn marginal(&mut self, window: &[Job], candidate: &Job) -> f64 {
        self.energy_with(window, candidate) - self.energy(window)
    }

    fn keyed_energy(&mut self, key: &[u32], window: &[Job], extra: Option<&Job>) -> f64 {
        if key.is_empty() {
            return 0.0;
        }
        if let Some(&e) = self.cache.get(key) {
            ssp_probe::counter!("eval.live_hit");
            return e;
        }
        ssp_probe::counter!("eval.live_miss");
        self.jobs.clear();
        self.jobs.extend_from_slice(window);
        if let Some(j) = extra {
            self.jobs.push(*j);
        }
        let e = yds_energy_in(&mut self.arena, &self.jobs, self.alpha);
        if self.cache.len() >= self.cache_cap {
            ssp_probe::counter!("eval.live_evict");
            self.cache.clear();
        }
        self.cache.insert(key.to_vec().into_boxed_slice(), e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::rr_assignment;
    use ssp_single::yds::{yds, yds_reference};
    use ssp_workloads::families;

    /// Recompute a machine's energy the naive way, with the reference peel.
    fn naive(instance: &Instance, group: &[u32]) -> f64 {
        let jobs: Vec<Job> = group.iter().map(|&i| *instance.job(i as usize)).collect();
        yds_reference(&jobs, instance.alpha()).energy
    }

    #[test]
    fn seeded_state_matches_naive_recompute_bitwise() {
        let inst = families::general(24, 3, 2.0).gen(5);
        let eval = YdsEval::with_assignment(&inst, &rr_assignment(&inst));
        for p in 0..3 {
            assert_eq!(
                eval.machine_energy(p).to_bits(),
                naive(&inst, &eval.groups[p]).to_bits()
            );
        }
    }

    #[test]
    fn move_pricing_matches_apply_and_naive() {
        let inst = families::general(18, 3, 2.2).gen(9);
        let mut eval = YdsEval::with_assignment(&inst, &rr_assignment(&inst));
        let mv = Candidate::Move {
            job: 4,
            to: (eval.machine_of(4) + 1) % 3,
        };
        let before = eval.total_energy();
        let delta = eval.delta_energy(mv);
        eval.apply(mv);
        let after = eval.total_energy();
        assert!((after - (before + delta)).abs() <= 1e-9 * before.abs().max(1.0));
        for p in 0..3 {
            assert_eq!(
                eval.machine_energy(p).to_bits(),
                naive(&inst, &eval.groups[p]).to_bits(),
                "machine {p} drifted from naive recompute"
            );
        }
    }

    #[test]
    fn swap_preserves_group_order_semantics() {
        // After a swap, the incoming job is appended — the same order the
        // filter+chain pattern in the old local search produced.
        let inst = families::general(12, 2, 2.0).gen(3);
        let mut eval = YdsEval::with_assignment(&inst, &rr_assignment(&inst));
        let a = 0usize;
        let b = (1..12)
            .find(|&j| eval.machine_of(j) != eval.machine_of(a))
            .expect("two machines must both be populated");
        let (pa, pb) = (eval.machine_of(a), eval.machine_of(b));
        let mut expect_a: Vec<u32> = eval.groups[pa]
            .iter()
            .copied()
            .filter(|&k| k != a as u32)
            .collect();
        expect_a.push(b as u32);
        eval.apply(Candidate::Swap { a, b });
        assert_eq!(eval.groups[pa], expect_a);
        assert_eq!(eval.machine_of(a), pb);
        assert_eq!(eval.machine_of(b), pa);
    }

    #[test]
    fn add_remove_round_trip_restores_energy_bitwise() {
        let inst = families::general(15, 3, 2.0).gen(1);
        let mut eval = YdsEval::with_assignment(&inst, &rr_assignment(&inst));
        let snapshot: Vec<u64> = (0..3).map(|p| eval.machine_energy(p).to_bits()).collect();
        let p = eval.machine_of(7);
        eval.remove(7);
        assert_ne!(eval.machine_energy(p).to_bits(), snapshot[p]);
        // Re-adding at the *end* of the group is a different order than the
        // original mid-group position, but the energy must still match the
        // naive recompute of that order.
        eval.add(7, p);
        assert_eq!(
            eval.machine_energy(p).to_bits(),
            naive(&inst, &eval.groups[p]).to_bits()
        );
    }

    #[test]
    fn repeated_pricing_hits_the_cache() {
        let session = ssp_probe::Session::begin();
        let inst = families::general(16, 2, 2.0).gen(2);
        let mut eval = YdsEval::with_assignment(&inst, &rr_assignment(&inst));
        let mv = Candidate::Move {
            job: 3,
            to: (eval.machine_of(3) + 1) % 2,
        };
        let d1 = eval.delta_energy(mv);
        // Every miss inserts its key, so an unchanged memo size means all
        // hits. (The process-global miss counter cannot say this: other
        // tests price candidates concurrently.)
        let entries_after_first = eval.cache.len();
        let d2 = eval.delta_energy(mv);
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(
            eval.cache.len(),
            entries_after_first,
            "second pricing of the same candidate must be all cache hits"
        );
        assert!(ssp_probe::counter_value("eval.cache_hit") >= 2);
        if let Some(s) = session {
            let _ = s.end();
        }
    }

    #[test]
    fn energy_with_equals_append_energy() {
        let inst = families::general(10, 2, 2.4).gen(8);
        let mut eval = YdsEval::new(&inst);
        for i in 0..5 {
            eval.add(i, 0);
        }
        let priced = eval.energy_with(0, 7);
        eval.add(7, 0);
        assert_eq!(priced.to_bits(), eval.machine_energy(0).to_bits());
    }

    /// Certified rejection must be *sound*: a rejected candidate can never
    /// improve by more than the local-search accept tolerance. This sweeps
    /// every move and cross-machine swap on seeded instances, twice per
    /// instance so the second round exercises the warm memo and the
    /// depleted-snapshot tier (whose stamps are fresh after round one).
    #[test]
    fn certified_rejection_is_sound() {
        for seed in 0..12u64 {
            for (n, m) in [(12usize, 2usize), (18, 3), (24, 4)] {
                let inst = families::general(n, m, 2.3).gen(seed);
                let start = rr_assignment(&inst);
                let mut eval = YdsEval::with_assignment(&inst, &start);
                let total: f64 = eval.total_energy();
                let tau = 1e-12 * total.max(1.0);
                let mut cands = Vec::new();
                for job in 0..n {
                    for to in 0..m {
                        if to != eval.machine_of(job) {
                            cands.push(Candidate::Move { job, to });
                        }
                    }
                }
                for a in 0..n {
                    for b in (a + 1)..n {
                        if eval.machine_of(a) != eval.machine_of(b) {
                            cands.push(Candidate::Swap { a, b });
                        }
                    }
                }
                for round in 0..2 {
                    for &c in &cands {
                        let rejected = eval.certified_reject(c);
                        let delta = eval.delta_energy(c);
                        assert!(
                            !rejected || delta >= -tau,
                            "unsound rejection: seed={seed} n={n} m={m} \
                             round={round} {c:?} delta={delta:e} tau={tau:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn live_eval_matches_kernel_bitwise() {
        let inst = families::general(14, 1, 2.3).gen(6);
        let mut live = LiveEval::new(2.3);
        for cut in [1usize, 5, 14] {
            let window = &inst.jobs()[..cut];
            let direct = yds(window, 2.3).energy;
            assert_eq!(live.energy(window).to_bits(), direct.to_bits());
            // Second query of the same window must hit the memo and agree.
            assert_eq!(live.energy(window).to_bits(), direct.to_bits());
        }
    }

    #[test]
    fn live_eval_marginal_is_append_delta() {
        let inst = families::bursty(10, 1, 2.0).gen(3);
        let mut live = LiveEval::new(2.0);
        let (window, cand) = (&inst.jobs()[..6], inst.job(7));
        let marginal = live.marginal(window, cand);
        let mut appended = window.to_vec();
        appended.push(*cand);
        let expect = yds(&appended, 2.0).energy - yds(window, 2.0).energy;
        assert_eq!(marginal.to_bits(), expect.to_bits());
        // energy_with prices the appended list without materializing it.
        assert_eq!(
            live.energy_with(window, cand).to_bits(),
            yds(&appended, 2.0).energy.to_bits()
        );
    }
}
