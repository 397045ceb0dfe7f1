//! YDS — the optimal single-processor algorithm (Yao, Demers, Shenker 1995).
//!
//! Repeatedly find the *critical interval*: the interval `I` maximizing the
//! intensity `g(I) = (Σ_{span_i ⊆ I} w_i) / |I|`. The jobs fully contained in
//! `I` run at speed `g(I)` (EDF-ordered inside `I`); they and the interval are
//! then removed — remaining jobs' windows are "squeezed" around the excised
//! interval — and the process repeats. The result is the unique optimal speed
//! profile; its energy is `Σ w_i · s_i^(α-1)`.
//!
//! Two kernels share one peel driver and produce **bit-identical** output:
//!
//! * [`yds`] — the fast kernel: per peel, starts are visited in descending
//!   order of a certified intensity upper bound, and whole starts, epigraph
//!   regions, and deadline-sweep tails are skipped when a bound proves them
//!   *strictly* below the incumbent. Candidates that are evaluated use
//!   exactly the reference arithmetic (sequential work accumulation in
//!   deadline order), and the incumbent comparator reproduces the reference's
//!   first-maximizer tie-break, so the selected interval — and therefore
//!   every speed and the energy — matches [`yds_reference`] bit for bit.
//!   Typical peels touch a small fraction of the `O(k²)` candidate grid (see
//!   the `yds.candidates` probe counter and the `yds_kernel` bench); the
//!   worst case degrades to the reference's `O(k²)` per peel. Below
//!   [`SMALL_PEEL_CUTOFF`] active jobs a peel falls back to the reference
//!   scan — the scaffolding (two integer sorts, suffix scans, the linked
//!   list) costs more than it saves there — bit-identical by construction.
//! * [`yds_reference`] — the retained reference peel: each peel scans `O(k²)`
//!   candidate intervals with an `O(k)` sweep per left endpoint, i.e. the
//!   classic `O(n³)` worst-case bound for direct YDS implementations. Kept as
//!   the differential-testing baseline (`tests/yds_differential.rs`) and the
//!   "old" side of EXP-19.
//!
//! Both kernels run on a structure-of-arrays working set (`ActiveSet`):
//! the peel driver keeps original index, work, release and deadline in four
//! parallel vectors, compacted in place after each excision, so a whole
//! [`yds`] call allocates a constant number of buffers instead of one vector
//! per peel and the hot sweeps read contiguous `f64` slices. Callers that
//! price many short job lists (the `YdsEval`/`LiveEval` oracles in
//! `ssp-core`) go one step further with [`YdsArena`] + [`yds_energy_in`]:
//! every buffer — including the output speeds — lives in a caller-owned
//! arena reused across calls, making the energy query allocation-free after
//! warm-up while returning the same bits as [`yds`].

use crate::edf::edf_schedule;
use ssp_model::numeric::energy_sum;
use ssp_model::{Job, Schedule, SolveError, SpeedAssignment};

/// Result of running [`yds`]: optimal constant speed per job (aligned with
/// the input slice) and the optimal energy.
#[derive(Debug, Clone, PartialEq)]
pub struct YdsSolution {
    /// Optimal speed of each input job.
    pub speeds: Vec<f64>,
    /// Optimal total energy `Σ w_i · s_i^(α-1)`.
    pub energy: f64,
    /// Critical intervals in peel order: `(start, end, intensity)` in the
    /// *original* (un-squeezed) time coordinates of the first peel only for
    /// the head element; later entries are in squeezed coordinates and are
    /// exposed for diagnostics/tests of the peeling process.
    pub peels: Vec<(f64, f64, f64)>,
}

impl YdsSolution {
    /// Speeds as a [`SpeedAssignment`] (same indexing as the input slice).
    pub fn assignment(&self) -> SpeedAssignment {
        SpeedAssignment::new(self.speeds.clone())
    }
}

/// Below this many *active* jobs a peel routes through the reference scan:
/// the fast kernel's per-peel scaffolding (two integer sorts, suffix scans,
/// the linked list) dominates at small sizes (BENCH_yds.json measured the
/// n = 50 cells at 0.8–0.97× before the cutoff), while the `O(k²)` reference
/// sweep is branch-light and allocation-free on the SoA driver. The cutoff
/// is applied per peel, not per call, so the shrinking tail of a long peel
/// sequence (e.g. laminar nests) also drops to the cheap scan. Both finders
/// return bit-identical intervals, so mixing them is invisible in the output
/// (pinned by `cutoff_boundary_is_bit_identical`).
pub const SMALL_PEEL_CUTOFF: usize = 32;

/// Below this many *input* jobs the whole call routes through the reference
/// scan, not just individual small peels. The per-peel cutoff alone left the
/// n = 50 BENCH_yds cells at 0.79–0.86×: a tiny instance starts above
/// [`SMALL_PEEL_CUTOFF`], so its first (and most expensive) peels still paid
/// the fast kernel's scaffolding right where the reference sweep is cheapest.
/// Calibrated by 201-rep medians over the bench families: agreeable and
/// crossing prefer the reference up to n ≈ 64 and n ≈ 100 respectively, while
/// laminar nests flip to the fast kernel by n ≈ 50 — 64 takes the two losing
/// cells to parity without giving up the laminar win at n ≥ 64. Bit-invisible
/// like the per-peel dispatch (both finders return identical intervals;
/// pinned by `instance_cutoff_boundary_is_bit_identical`).
pub const SMALL_INSTANCE_CUTOFF: usize = 64;

/// Structure-of-arrays working set during peeling: one parallel vector per
/// field. The peel driver compacts survivors in place after each excision
/// (stable order, exactly the old `Vec<Active>` retain semantics), so the
/// only allocations per [`yds`] call are these four buffers.
#[derive(Default)]
struct ActiveSet {
    /// Original input index of each active job.
    orig: Vec<u32>,
    /// Remaining work.
    work: Vec<f64>,
    /// Squeezed release date.
    release: Vec<f64>,
    /// Squeezed deadline.
    deadline: Vec<f64>,
}

impl ActiveSet {
    /// Refill from `jobs`, reusing the buffers' capacity.
    fn load(&mut self, jobs: &[Job]) {
        assert!(
            jobs.len() < u32::MAX as usize,
            "job count exceeds u32 index"
        );
        self.orig.clear();
        self.orig.extend(0..jobs.len() as u32);
        self.work.clear();
        self.work.extend(jobs.iter().map(|j| j.work));
        self.release.clear();
        self.release.extend(jobs.iter().map(|j| j.release));
        self.deadline.clear();
        self.deadline.extend(jobs.iter().map(|j| j.deadline));
    }

    fn len(&self) -> usize {
        self.orig.len()
    }

    fn is_empty(&self) -> bool {
        self.orig.is_empty()
    }

    fn truncate(&mut self, len: usize) {
        self.orig.truncate(len);
        self.work.truncate(len);
        self.release.truncate(len);
        self.deadline.truncate(len);
    }
}

/// Compute the optimal speed per job on a single processor (fast kernel).
///
/// ```
/// use ssp_model::Job;
/// use ssp_single::yds::yds;
///
/// // A tight job nested in a loose one: the tight one sets the peak.
/// let jobs = vec![Job::new(0, 2.0, 0.0, 4.0), Job::new(1, 2.0, 1.0, 2.0)];
/// let sol = yds(&jobs, 2.0);
/// assert!((sol.speeds[1] - 2.0).abs() < 1e-9);      // critical interval [1,2]
/// assert!((sol.speeds[0] - 2.0 / 3.0).abs() < 1e-9); // squeezed remainder
/// ```
pub fn yds(jobs: &[Job], alpha: f64) -> YdsSolution {
    let mut scratch = FastScratch::default();
    let mut by_deadline = Vec::new();
    let mut starts = Vec::new();
    let mut candidates = 0u64;
    let mut small_peels = 0u64;
    let tiny = jobs.len() < SMALL_INSTANCE_CUTOFF;
    let sol = run_peels(jobs, alpha, |active| {
        if tiny || active.len() < SMALL_PEEL_CUTOFF {
            // Below the measured crossover the reference scan wins
            // outright; it returns the bit-identical interval, so the
            // dispatch cannot perturb the output.
            small_peels += 1;
            critical_interval_reference(active, &mut by_deadline, &mut starts, &mut candidates)
        } else {
            scratch.critical_interval(active, &mut candidates)
        }
    });
    ssp_probe::counter!("yds.peels", sol.peels.len() as u64);
    ssp_probe::counter!("yds.candidates", candidates);
    ssp_probe::counter!("yds.soa_small_peels", small_peels);
    ssp_probe::counter!("yds.soa_pruned_starts", scratch.pruned_starts);
    ssp_probe::counter!("yds.soa_sm_rebuilds", scratch.sm_rebuilds);
    sol
}

/// Reusable buffers for repeated [`yds_energy_in`] calls: everything a
/// [`yds`] call would allocate — kernel scratch, the SoA working set, and
/// the output speeds/peels, which an energy-only caller discards anyway —
/// lives here and is cleared, not freed, between calls. The memoizing
/// oracles in `ssp-core` (`YdsEval`, `LiveEval`) price thousands of short
/// job lists per search pass; with an arena each cache miss costs exactly
/// the kernel arithmetic after the first call.
#[derive(Default)]
pub struct YdsArena {
    scratch: FastScratch,
    by_deadline: Vec<usize>,
    starts: Vec<f64>,
    active: ActiveSet,
    speeds: Vec<f64>,
    peels: Vec<(f64, f64, f64)>,
}

/// Optimal YDS energy of `jobs`, computed in `arena`'s buffers —
/// bit-identical to `yds(jobs, alpha).energy` (same kernels, same dispatch,
/// same arithmetic; pinned by `arena_energy_matches_yds_bitwise`), but
/// allocation-free once the arena is warm.
pub fn yds_energy_in(arena: &mut YdsArena, jobs: &[Job], alpha: f64) -> f64 {
    let mut candidates = 0u64;
    let mut small_peels = 0u64;
    let YdsArena {
        scratch,
        by_deadline,
        starts,
        active,
        speeds,
        peels,
    } = arena;
    // The scratch persists across calls; zero its per-call probe tallies so
    // each call emits its own counts (as a fresh [`yds`] call would).
    scratch.pruned_starts = 0;
    scratch.sm_rebuilds = 0;
    let tiny = jobs.len() < SMALL_INSTANCE_CUTOFF;
    let energy = run_peels_into(jobs, alpha, active, speeds, peels, |active| {
        if tiny || active.len() < SMALL_PEEL_CUTOFF {
            small_peels += 1;
            critical_interval_reference(active, by_deadline, starts, &mut candidates)
        } else {
            scratch.critical_interval(active, &mut candidates)
        }
    });
    ssp_probe::counter!("yds.peels", peels.len() as u64);
    ssp_probe::counter!("yds.candidates", candidates);
    ssp_probe::counter!("yds.soa_small_peels", small_peels);
    ssp_probe::counter!("yds.soa_pruned_starts", scratch.pruned_starts);
    ssp_probe::counter!("yds.soa_sm_rebuilds", scratch.sm_rebuilds);
    energy
}

/// The retained reference peel: brute-force `O(k²)`-per-peel critical
/// interval scan. Semantics (and bits) match [`yds`]; complexity does not.
pub fn yds_reference(jobs: &[Job], alpha: f64) -> YdsSolution {
    let mut candidates = 0u64;
    let mut by_deadline: Vec<usize> = Vec::new();
    let mut starts: Vec<f64> = Vec::new();
    let sol = run_peels(jobs, alpha, |active| {
        critical_interval_reference(active, &mut by_deadline, &mut starts, &mut candidates)
    });
    ssp_probe::counter!("yds.peels", sol.peels.len() as u64);
    ssp_probe::counter!("yds.candidates", candidates);
    sol
}

/// The shared peel driver: repeatedly excise the critical interval reported
/// by `find`, fixing contained jobs at its intensity and squeezing the rest.
/// The working set is compacted in place (stable order), so no per-peel
/// allocation happens here.
fn run_peels(
    jobs: &[Job],
    alpha: f64,
    find: impl FnMut(&ActiveSet) -> (f64, f64, f64),
) -> YdsSolution {
    let mut active = ActiveSet::default();
    let mut speeds = Vec::new();
    let mut peels = Vec::new();
    let energy = run_peels_into(jobs, alpha, &mut active, &mut speeds, &mut peels, find);
    YdsSolution {
        speeds,
        energy,
        peels,
    }
}

/// [`run_peels`] over caller-owned buffers (cleared and refilled), so
/// repeated calls reuse capacity. Returns the optimal energy; `speeds` and
/// `peels` hold the rest of the [`YdsSolution`] fields on return.
fn run_peels_into(
    jobs: &[Job],
    alpha: f64,
    active: &mut ActiveSet,
    speeds: &mut Vec<f64>,
    peels: &mut Vec<(f64, f64, f64)>,
    mut find: impl FnMut(&ActiveSet) -> (f64, f64, f64),
) -> f64 {
    assert!(alpha > 1.0, "alpha must exceed 1");
    speeds.clear();
    speeds.resize(jobs.len(), 0.0);
    peels.clear();
    active.load(jobs);

    while !active.is_empty() {
        let (a, b, g) = find(active);
        peels.push((a, b, g));
        // Peel interval width in fixed-point micro-units of (abstract)
        // time, so the log2 buckets resolve sub-unit widths; zero-width
        // degenerate windows land in bucket 0. The f64→u64 cast saturates.
        ssp_probe::histogram!("yds.peel_width", ((b - a) * 1e6).round() as u64);
        // Intensity is positive; it is +inf for degenerate zero-width
        // windows (which are then excised immediately at infinite speed).
        debug_assert!(g > 0.0);
        // Fix speeds of contained jobs; keep the rest, squeezed. Stable
        // in-place compaction over the parallel arrays reproduces the old
        // `rest.push` order exactly.
        let shift = b - a;
        let mut w = 0usize;
        for r in 0..active.len() {
            let (rel, dl) = (active.release[r], active.deadline[r]);
            if a <= rel && dl <= b {
                speeds[active.orig[r] as usize] = g;
            } else {
                active.orig[w] = active.orig[r];
                active.work[w] = active.work[r];
                active.release[w] = squeeze(rel, a, b, shift);
                active.deadline[w] = squeeze(dl, a, b, shift);
                debug_assert!(active.deadline[w] >= active.release[w]);
                w += 1;
            }
        }
        active.truncate(w);
    }

    // Batched summation over flat lanes; `active.work` is empty here (every
    // job peeled) and its capacity already fits all n works, so it doubles
    // as the scratch column without allocating.
    active.work.clear();
    active.work.extend(jobs.iter().map(|j| j.work));
    energy_sum(&active.work, speeds, alpha)
}

/// Map a time coordinate after excising `[a, b]`.
fn squeeze(x: f64, a: f64, b: f64, shift: f64) -> f64 {
    if x <= a {
        x
    } else if x >= b {
        x - shift
    } else {
        a
    }
}

/// Does candidate `(g, a, b)` beat the incumbent under the reference
/// selection rule? The reference iterates starts ascending, then deadlines
/// ascending, keeping the first maximizer under strict `>` — equivalent to
/// the lexicographic argmax of `(g, -a, -b)`, which is what this comparator
/// implements so candidates may be visited in *any* order.
#[inline]
fn beats(g: f64, a: f64, b: f64, best: (f64, f64, f64)) -> bool {
    g > best.2 || (g == best.2 && (a < best.0 || (a == best.0 && b < best.1)))
}

/// The maximum-intensity interval of the active set — reference scan.
/// Candidate intervals run from a release date to a deadline. Ties break
/// toward the earliest start, then the longest interval, making peeling
/// deterministic. The caller lends the two scratch vectors so repeated
/// peels reuse their capacity.
fn critical_interval_reference(
    active: &ActiveSet,
    by_deadline: &mut Vec<usize>,
    starts: &mut Vec<f64>,
    candidates: &mut u64,
) -> (f64, f64, f64) {
    debug_assert!(!active.is_empty());
    // For each candidate left endpoint `a` (a release), sweep jobs in
    // deadline order accumulating the work of jobs with release >= a.
    by_deadline.clear();
    by_deadline.extend(0..active.len());
    by_deadline.sort_by(|&x, &y| active.deadline[x].total_cmp(&active.deadline[y]));
    starts.clear();
    starts.extend_from_slice(&active.release);
    starts.sort_by(f64::total_cmp);
    starts.dedup();

    // Deterministic argmax: iteration order is fixed (starts ascending,
    // deadlines ascending), strict `>` keeps the first maximizer — i.e. the
    // earliest start, then the earliest right endpoint achieving the maximum.
    let mut best = (0.0, 0.0, f64::NEG_INFINITY);
    for &a in starts.iter() {
        let mut acc = 0.0;
        for &idx in by_deadline.iter() {
            // `release >= a` implies `deadline >= a` (windows may be
            // degenerate but never inverted).
            if active.release[idx] >= a {
                acc += active.work[idx];
                *candidates += 1;
                let g = acc / (active.deadline[idx] - a);
                if g > best.2 {
                    best = (a, active.deadline[idx], g);
                }
            }
        }
    }
    best
}

/// Monotone `u64` image of `f64::total_cmp`: the standard sign-fold trick
/// (flip all bits of negatives, flip only the sign bit of non-negatives)
/// maps every float — including `-0.0`, infinities and NaNs — to an
/// unsigned integer whose `<` order equals `total_cmp`. Packing the image
/// above a 32-bit index yields a single integer key whose order is exactly
/// the `(total_cmp, index)` lexicographic order, so the kernel's permutation
/// sorts run branch-free integer comparisons instead of a float comparator.
#[inline]
fn total_cmp_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Scratch buffers of the fast critical-interval search, reused across the
/// peels of one [`yds`] call so the kernel allocates a constant number of
/// vectors per call instead of per peel.
#[derive(Default)]
struct FastScratch {
    /// Packed `(total_cmp_key(time) << 32) | index` sort keys.
    sort_keys: Vec<u128>,
    /// Active indices sorted by `(deadline, index)` — identical order to the
    /// reference's stable sort by deadline.
    by_deadline: Vec<u32>,
    /// Deadline-ordered copies of the active jobs' fields (flat arrays keep
    /// the inner sweep branch-predictable and cache-friendly).
    dl: Vec<f64>,
    rl: Vec<f64>,
    wk: Vec<f64>,
    /// Active indices sorted by `(release, index)`; drives the suffix scan.
    by_release: Vec<u32>,
    /// Distinct release values ascending (the candidate starts).
    starts: Vec<f64>,
    /// Per start: certified upper bound on any candidate intensity there and
    /// the total (inflated) work of jobs released at/after it.
    ub: Vec<f64>,
    suffix_work: Vec<f64>,
    /// Deadline rank of each active index (inverse of `by_deadline`).
    rank: Vec<u32>,
    /// Doubly-linked list over deadline ranks holding the jobs released
    /// at/after the sweep's current start; jobs are unlinked (O(1)) as the
    /// ascending start passes their release, so each sweep touches only
    /// genuine candidates — no straddler iterations, no release compare.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Prefix sums of `wk` in deadline order: `ps[j] = Σ_{t<j} wk[t]`
    /// (plain float sums; the epigraph filter adds an absolute slack).
    ps: Vec<f64>,
    /// Epigraph suffix maxima for the incumbent start filter:
    /// `sm[j] = max_{t >= j} (ps[t+1] - g·dl[t])` for the incumbent
    /// intensity `g` it was last built at (see `rebuild_sm`).
    sm: Vec<f64>,
    /// Starts skipped by the epigraph filter (probe counter
    /// `yds.soa_pruned_starts`), accumulated across the call's peels.
    pruned_starts: u64,
    /// Epigraph rebuilds (probe counter `yds.soa_sm_rebuilds`).
    sm_rebuilds: u64,
}

/// End-of-list sentinel for [`FastScratch::next`]/[`FastScratch::prev`].
const LIST_END: u32 = u32::MAX;

impl FastScratch {
    /// The maximum-intensity interval — same value and tie-break as
    /// [`critical_interval_reference`], computed with certified pruning.
    ///
    /// Soundness of the pruning: for a start `a`, every candidate intensity
    /// is `fl(acc / fl(d - a))` where `acc` is a sequential float sum of a
    /// subset of the works of jobs released at/after `a`. That is bounded by
    /// `W(a) · (1 + O(kε)) / (dmin(a) - a)` with `W(a)` the suffix work sum
    /// and `dmin(a)` the earliest deadline in the suffix; inflating `W(a)`
    /// by `(1 + (2k+16)ε)` absorbs every rounding term, so a start (or a
    /// sweep tail) whose inflated bound is *strictly* below the incumbent
    /// intensity cannot contain the argmax — not even a tie, which is what
    /// keeps the tie-break decisions identical to the reference scan.
    ///
    /// On top of that per-start bound sits the **epigraph filter**: because
    /// works are nonnegative, the accumulator of any candidate `(a, dl[j])`
    /// is at most the deadline-rank prefix-sum difference
    /// `ps[j+1] - ps[lo(a)]` (`lo(a)` = first deadline rank `>= a`; ranks
    /// below it are certain straddlers, their windows would be inverted
    /// otherwise) plus an absolute float slack. A candidate can therefore
    /// reach intensity `g` only if `ps[j+1] - g·dl[j] >= ps[lo] - g·a -
    /// slack`, and precomputing the suffix maxima `sm[lo] = max_{j>=lo}
    /// (ps[j+1] - g·dl[j])` turns "can this start still tie the incumbent"
    /// into a single comparison. `sm` is rebuilt (one O(k) pass) only when
    /// the incumbent *intensity* changes — tie-break replacements at equal
    /// `g` keep it valid.
    ///
    /// Visit strategy: the start with the largest bound is swept first to
    /// seed the incumbent near the true maximum, then the remaining starts
    /// are visited ascending and skipped outright when either bound proves
    /// them strictly below the incumbent. Per kept start the deadline sweep
    /// begins at the first deadline `>= a` (earlier jobs cannot be released
    /// at/after `a`) and stops at the certified tail cutoff.
    fn critical_interval(&mut self, active: &ActiveSet, candidates: &mut u64) -> (f64, f64, f64) {
        debug_assert!(!active.is_empty());
        let k = active.len();
        let inflate = 1.0 + (2.0 * k as f64 + 16.0) * f64::EPSILON;

        self.sort_keys.clear();
        self.sort_keys.extend(
            active
                .deadline
                .iter()
                .enumerate()
                .map(|(i, &d)| ((total_cmp_key(d) as u128) << 32) | i as u128),
        );
        self.sort_keys.sort_unstable();
        self.by_deadline.clear();
        self.by_deadline
            .extend(self.sort_keys.iter().map(|&v| v as u32));
        self.dl.clear();
        self.rl.clear();
        self.wk.clear();
        for &idx in &self.by_deadline {
            self.dl.push(active.deadline[idx as usize]);
            self.rl.push(active.release[idx as usize]);
            self.wk.push(active.work[idx as usize]);
        }

        self.sort_keys.clear();
        self.sort_keys.extend(
            active
                .release
                .iter()
                .enumerate()
                .map(|(i, &r)| ((total_cmp_key(r) as u128) << 32) | i as u128),
        );
        self.sort_keys.sort_unstable();
        self.by_release.clear();
        self.by_release
            .extend(self.sort_keys.iter().map(|&v| v as u32));
        self.starts.clear();
        self.starts
            .extend(self.by_release.iter().map(|&i| active.release[i as usize]));
        self.starts.dedup_by(|a, b| a == b);

        // Suffix scan (releases descending): accumulate work and the minimum
        // deadline over jobs released at/after each start.
        self.ub.clear();
        self.ub.resize(self.starts.len(), 0.0);
        self.suffix_work.clear();
        self.suffix_work.resize(self.starts.len(), 0.0);
        {
            let mut ptr = k;
            let mut work = 0.0f64;
            let mut dmin = f64::INFINITY;
            for s in (0..self.starts.len()).rev() {
                let a = self.starts[s];
                while ptr > 0 && active.release[self.by_release[ptr - 1] as usize] >= a {
                    let i = self.by_release[ptr - 1] as usize;
                    work += active.work[i];
                    dmin = dmin.min(active.deadline[i]);
                    ptr -= 1;
                }
                let w_infl = work * inflate;
                self.suffix_work[s] = w_infl;
                let span = dmin - a;
                self.ub[s] = if span > 0.0 {
                    w_infl / span
                } else {
                    f64::INFINITY
                };
            }
        }

        // Prefix sums over the deadline order (the epigraph filter's
        // numerators).
        self.ps.clear();
        self.ps.reserve(k + 1);
        self.ps.push(0.0);
        let mut acc = 0.0f64;
        for &w in &self.wk {
            acc += w;
            self.ps.push(acc);
        }

        // Inverse permutation and the linked list over deadline ranks.
        self.rank.clear();
        self.rank.resize(k, 0);
        for (r, &idx) in self.by_deadline.iter().enumerate() {
            self.rank[idx as usize] = r as u32;
        }
        self.next.clear();
        self.prev.clear();
        for j in 0..k as u32 {
            self.next.push(j + 1);
            self.prev.push(j.wrapping_sub(1));
        }
        self.next[k - 1] = LIST_END;
        self.prev[0] = LIST_END;
        let mut head = 0u32;

        // Seed the incumbent from the start with the best bound, then visit
        // the rest ascending: most of them are now strictly below the
        // incumbent and skipped without touching the deadline sweep. (A
        // start *tying* the incumbent bound must still be swept — an equal
        // intensity at an earlier start wins the tie-break.)
        let seed = (0..self.starts.len())
            .max_by(|&x, &y| match self.ub[x].total_cmp(&self.ub[y]) {
                std::cmp::Ordering::Equal => y.cmp(&x),
                o => o,
            })
            .expect("at least one start");

        let mut best = (0.0, 0.0, f64::NEG_INFINITY); // (a, b, g)
        let mut evaluated = 0u64;
        self.sweep_start_array(seed, &mut best, &mut evaluated);

        // Epigraph state: `sm` is valid for incumbent intensity `sm_g`;
        // `sm_slack` absorbs every float error of the test (prefix-sum
        // drift, the `g·dl` products, the comparisons), all anchored on
        // absolute scales so tiny segment sums inside a large total are
        // still covered. The filter is disabled for non-positive or huge
        // incumbents (±inf arithmetic would produce NaNs; above ~1e300 an
        // overflowed candidate division could evade the slack).
        let mut sm_g = f64::NAN;
        let mut sm_slack = 0.0f64;
        let mut lo_ptr = 0usize;
        let mut rel_ptr = 0usize;
        for si in 0..self.starts.len() {
            // The ascending start passed these jobs' releases: unlink them.
            let a = self.starts[si];
            while rel_ptr < k {
                let idx = self.by_release[rel_ptr] as usize;
                if active.release[idx] >= a {
                    break;
                }
                let r = self.rank[idx];
                let (p, n) = (self.prev[r as usize], self.next[r as usize]);
                if p == LIST_END {
                    head = n;
                } else {
                    self.next[p as usize] = n;
                }
                if n != LIST_END {
                    self.prev[n as usize] = p;
                }
                rel_ptr += 1;
            }
            if si == seed || self.ub[si] < best.2 {
                continue;
            }
            if best.2 > 0.0 && best.2 < 1e300 {
                if sm_g != best.2 {
                    self.rebuild_sm(best.2);
                    sm_g = best.2;
                    sm_slack = self.epigraph_slack(best.2);
                    self.sm_rebuilds += 1;
                }
                while lo_ptr < k && self.dl[lo_ptr] < a {
                    lo_ptr += 1;
                }
                if self.sm[lo_ptr] < self.ps[lo_ptr] - best.2 * a - sm_slack {
                    self.pruned_starts += 1;
                    continue;
                }
            }
            self.sweep_start_list(si, head, &mut best, &mut evaluated);
        }
        *candidates += evaluated;
        debug_assert!(best.2 > f64::NEG_INFINITY);
        (best.0, best.1, best.2)
    }

    /// Rebuild the epigraph suffix maxima for incumbent intensity `g`:
    /// `sm[j] = max_{t >= j} (ps[t+1] - g·dl[t])`, `sm[k] = -inf`. All
    /// inputs are finite here (`g` is a finite positive incumbent, `ps` and
    /// `dl` are finite), so no NaN can poison the running maximum.
    fn rebuild_sm(&mut self, g: f64) {
        let k = self.dl.len();
        self.sm.clear();
        self.sm.resize(k + 1, f64::NEG_INFINITY);
        let mut m = f64::NEG_INFINITY;
        for j in (0..k).rev() {
            let f = self.ps[j + 1] - g * self.dl[j];
            if f > m {
                m = f;
            }
            self.sm[j] = m;
        }
    }

    /// Absolute slack certifying the epigraph test at incumbent `g`.
    ///
    /// Error sources it must dominate, for `k` jobs of total work `W =
    /// ps[k]` and time magnitude `T`: the prefix sums drift by `O(kε·W)`
    /// *absolutely* (a small segment inside a large total inherits the
    /// total's error), the evaluated accumulators drift by `O(kε)` relative,
    /// the division and the `g·dl` / `g·a` products each add `O(ε·(W +
    /// g·T))`. `(8k + 64)·ε·(W + g·T)` covers all of them with an order of
    /// magnitude to spare; the filter only loses a ~1e-12-relative sliver of
    /// pruning power for it.
    fn epigraph_slack(&self, g: f64) -> f64 {
        let k = self.dl.len();
        let t_mag = self.dl[0]
            .abs()
            .max(self.dl[k - 1].abs())
            .max(self.starts[0].abs())
            .max(self.starts[self.starts.len() - 1].abs());
        (8.0 * k as f64 + 64.0) * f64::EPSILON * (self.ps[k] + g * t_mag)
    }

    /// Division filter threshold: a candidate with `acc < best_g·span·(1-4ε)`
    /// is certainly strictly below the incumbent (`fl(acc/span) < best_g`),
    /// so the division and comparator run only for potential winners/ties.
    /// When the incumbent is not a finite positive intensity the filter is
    /// disabled (0 · span == 0 ≤ acc keeps every candidate on the exact
    /// path, including zero-width spans).
    #[inline]
    fn div_filter(best_g: f64) -> f64 {
        if best_g.is_finite() && best_g > 0.0 {
            best_g * (1.0 - 4.0 * f64::EPSILON)
        } else {
            0.0
        }
    }

    /// Certified tail cutoff on the candidate span: a candidate with
    /// `span > cut` satisfies `best_g·span > w_infl` (the old multiply-form
    /// check, proven sound in the struct docs), so the deadline-ascending
    /// sweep can stop. `+inf` disables the cutoff for non-positive or
    /// non-finite incumbents, matching the multiply form's behavior there.
    #[inline]
    fn tail_cut(best_g: f64, w_infl: f64) -> f64 {
        if best_g.is_finite() && best_g > 0.0 {
            (w_infl / best_g) * (1.0 + 4.0 * f64::EPSILON)
        } else if best_g == f64::INFINITY {
            0.0
        } else {
            f64::INFINITY
        }
    }

    /// Sweep all candidates at start index `si` over the flat deadline-order
    /// arrays (used once to seed the incumbent, before the linked list has
    /// advanced to `si`'s release cutoff). Exactly the reference's
    /// sequential accumulation over jobs in `(deadline, index)` order
    /// restricted to `release >= a`.
    #[inline]
    fn sweep_start_array(&self, si: usize, best: &mut (f64, f64, f64), evaluated: &mut u64) {
        let a = self.starts[si];
        let w_infl = self.suffix_work[si];
        // Jobs with deadline < a cannot have release >= a (windows are never
        // inverted), so the sweep starts at the first deadline >= a. Zero
        // width windows at exactly `a` are kept.
        let lo = self.dl.partition_point(|&d| d < a);
        let mut acc = 0.0f64;
        let mut filter = Self::div_filter(best.2);
        let mut cut = Self::tail_cut(best.2, w_infl);
        for j in lo..self.dl.len() {
            let span = self.dl[j] - a;
            if span > cut {
                break;
            }
            if self.rl[j] >= a {
                acc += self.wk[j];
                *evaluated += 1;
                if acc >= filter * span {
                    let g = acc / span;
                    if beats(g, a, self.dl[j], *best) {
                        *best = (a, self.dl[j], g);
                        filter = Self::div_filter(g);
                        cut = Self::tail_cut(g, w_infl);
                    }
                }
            }
        }
    }

    /// Sweep all candidates at start index `si` by walking the linked list —
    /// every visited job is released at/after `a`, in `(deadline, index)`
    /// order, so the accumulation sequence is identical to the array sweep's.
    #[inline]
    fn sweep_start_list(
        &self,
        si: usize,
        head: u32,
        best: &mut (f64, f64, f64),
        evaluated: &mut u64,
    ) {
        let a = self.starts[si];
        let w_infl = self.suffix_work[si];
        let mut acc = 0.0f64;
        let mut filter = Self::div_filter(best.2);
        let mut cut = Self::tail_cut(best.2, w_infl);
        let mut j = head;
        while j != LIST_END {
            let d = self.dl[j as usize];
            let span = d - a;
            if span > cut {
                break;
            }
            acc += self.wk[j as usize];
            *evaluated += 1;
            if acc >= filter * span {
                let g = acc / span;
                if beats(g, a, d, *best) {
                    *best = (a, d, g);
                    filter = Self::div_filter(g);
                    cut = Self::tail_cut(g, w_infl);
                }
            }
            j = self.next[j as usize];
        }
    }
}

/// Full pipeline: optimal speeds via [`yds`], then an explicit EDF schedule
/// on machine `machine`. Panics where [`try_yds_schedule`] fails.
pub fn yds_schedule(jobs: &[Job], alpha: f64, machine: usize) -> (YdsSolution, Schedule) {
    try_yds_schedule(jobs, alpha, machine).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`yds_schedule`]. A speed whose processing time `w_i / s_i` is
/// not positive and finite — a density that overflows f64, such as work
/// `1e300` in a window of `1e-300` — is a [`SolveError::Numeric`]. The
/// schedule is otherwise guaranteed feasible by YDS theory, so an EDF
/// rejection still panics (a bug, not an input condition).
pub fn try_yds_schedule(
    jobs: &[Job],
    alpha: f64,
    machine: usize,
) -> Result<(YdsSolution, Schedule), SolveError> {
    let sol = yds(jobs, alpha);
    let mut p = Vec::with_capacity(jobs.len());
    for (job, &s) in jobs.iter().zip(&sol.speeds) {
        let time = job.work / s;
        let representable = time > 0.0 && time.is_finite();
        if !representable {
            return Err(SolveError::Numeric {
                message: format!("YDS speed {s} of {} leaves processing time {time}", job.id),
            });
        }
        p.push(time);
    }
    let schedule =
        edf_schedule(jobs, &p, machine).expect("YDS speeds are always EDF-feasible on one machine");
    Ok((sol, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::numeric::energy_of;
    use ssp_model::schedule::ValidationOptions;
    use ssp_model::Instance;
    use ssp_prng::{check, Rng, StdRng};

    #[test]
    fn empty_input() {
        let sol = yds(&[], 2.0);
        assert_eq!(sol.energy, 0.0);
        assert!(sol.speeds.is_empty());
    }

    #[test]
    fn single_job_runs_at_density() {
        let jobs = vec![Job::new(0, 3.0, 1.0, 4.0)];
        let sol = yds(&jobs, 2.0);
        assert!((sol.speeds[0] - 1.0).abs() < 1e-12);
        assert!((sol.energy - 3.0).abs() < 1e-12); // w * s^(a-1) = 3*1
    }

    #[test]
    fn two_disjoint_jobs_each_at_density() {
        let jobs = vec![Job::new(0, 2.0, 0.0, 1.0), Job::new(1, 1.0, 5.0, 7.0)];
        let sol = yds(&jobs, 3.0);
        assert!((sol.speeds[0] - 2.0).abs() < 1e-12);
        assert!((sol.speeds[1] - 0.5).abs() < 1e-12);
        assert!((sol.energy - (2.0 * 4.0 + 1.0 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn nested_job_raises_peak() {
        // Outer job [0,4] w=2; inner urgent job [1,2] w=2.
        // Critical interval is [1,2] at speed 2 (only the inner job fits in
        // [1,2]). After excision the outer job has window [0,3], speed 2/3.
        let jobs = vec![Job::new(0, 2.0, 0.0, 4.0), Job::new(1, 2.0, 1.0, 2.0)];
        let sol = yds(&jobs, 2.0);
        assert!((sol.speeds[1] - 2.0).abs() < 1e-12);
        assert!((sol.speeds[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(sol.peels.len(), 2);
        assert_eq!(sol.peels[0], (1.0, 2.0, 2.0));
    }

    #[test]
    fn identical_windows_share_one_speed() {
        let jobs: Vec<Job> = (0..4).map(|i| Job::new(i, 1.0, 0.0, 2.0)).collect();
        let sol = yds(&jobs, 2.0);
        for &s in &sol.speeds {
            assert!((s - 2.0).abs() < 1e-12); // total work 4 over length 2
        }
    }

    #[test]
    fn schedule_is_valid_and_energy_matches() {
        let jobs = vec![
            Job::new(0, 2.0, 0.0, 4.0),
            Job::new(1, 2.0, 1.0, 2.0),
            Job::new(2, 1.0, 3.0, 6.0),
            Job::new(3, 0.5, 0.0, 1.0),
        ];
        let alpha = 2.5;
        let (sol, schedule) = yds_schedule(&jobs, alpha, 0);
        let inst = Instance::new(jobs, 1, alpha).unwrap();
        let stats = schedule
            .validate(&inst, ValidationOptions::non_migratory())
            .unwrap();
        assert!((stats.energy - sol.energy).abs() < 1e-6 * sol.energy);
    }

    #[test]
    fn speeds_never_below_density() {
        let jobs = vec![
            Job::new(0, 1.0, 0.0, 10.0),
            Job::new(1, 5.0, 2.0, 3.0),
            Job::new(2, 2.0, 2.5, 6.0),
        ];
        let sol = yds(&jobs, 2.0);
        for (j, &s) in jobs.iter().zip(&sol.speeds) {
            assert!(s >= j.density() - 1e-9, "{} below density", j.id);
        }
    }

    #[test]
    fn agreeable_chain_with_uniform_load_is_flat() {
        // Unit jobs, windows [i, i+1]: constant speed 1 everywhere.
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::new(i, 1.0, i as f64, i as f64 + 1.0))
            .collect();
        let sol = yds(&jobs, 2.0);
        for &s in &sol.speeds {
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!((sol.energy - 5.0).abs() < 1e-12);
    }

    /// Brute-force check on 2-job instances: discretize both speeds and keep
    /// EDF-feasible combinations; YDS must not be beaten.
    #[test]
    fn two_job_grid_search_cannot_beat_yds() {
        use crate::edf::edf_feasible;
        let cases = [
            (Job::new(0, 1.0, 0.0, 2.0), Job::new(1, 1.5, 0.5, 2.5)),
            (Job::new(0, 2.0, 0.0, 3.0), Job::new(1, 1.0, 1.0, 2.0)),
            (Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 1.0)),
        ];
        let alpha = 2.0;
        for (a, b) in cases {
            let jobs = vec![a, b];
            let opt = yds(&jobs, alpha).energy;
            let mut best = f64::INFINITY;
            for sa in 1..=120 {
                for sb in 1..=120 {
                    let (sa, sb) = (sa as f64 * 0.05, sb as f64 * 0.05);
                    let p = vec![a.work / sa, b.work / sb];
                    if edf_feasible(&jobs, &p) {
                        let e = energy_of(a.work, sa, alpha) + energy_of(b.work, sb, alpha);
                        best = best.min(e);
                    }
                }
            }
            assert!(
                opt <= best + 1e-9,
                "grid search found energy {best} below YDS {opt}"
            );
        }
    }

    /// Draw `len`-many random jobs with the standard (work, release, span)
    /// envelope shared by the seeded properties below.
    fn random_jobs(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<Job> {
        check::vec_of(rng, len, |r| {
            (
                r.gen_range(0.1f64..3.0),
                r.gen_range(0.0f64..8.0),
                r.gen_range(0.2f64..4.0),
            )
        })
        .into_iter()
        .enumerate()
        .map(|(i, (w, r, len))| Job::new(i as u32, w, r, r + len))
        .collect()
    }

    /// Run the fast finder directly (bypassing the small-n entry cutoff) and
    /// assert bitwise agreement with the reference kernel.
    fn assert_fast_path_matches_reference(jobs: &[Job], alpha: f64) {
        let mut scratch = FastScratch::default();
        let mut candidates = 0u64;
        let fast = run_peels(jobs, alpha, |active| {
            scratch.critical_interval(active, &mut candidates)
        });
        let reference = yds_reference(jobs, alpha);
        assert_eq!(fast.peels, reference.peels);
        assert_eq!(fast.energy.to_bits(), reference.energy.to_bits());
        for (s_fast, s_ref) in fast.speeds.iter().zip(&reference.speeds) {
            assert_eq!(s_fast.to_bits(), s_ref.to_bits());
        }
    }

    /// The fast kernel and the retained reference peel agree bit-for-bit:
    /// same peels, same speeds, same energy. Runs the fast finder directly
    /// so small random instances exercise the pruning paths rather than the
    /// entry cutoff.
    #[test]
    fn fast_kernel_matches_reference_bitwise() {
        check::cases(60, 0xFA57, |rng| {
            let jobs = random_jobs(rng, 1..24);
            let alpha = rng.gen_range(1.4f64..3.0);
            assert_fast_path_matches_reference(&jobs, alpha);
        });
    }

    /// The public entry's small-peel cutoff must be invisible in the
    /// output: instances straddling [`SMALL_PEEL_CUTOFF`] agree with the
    /// reference bit-for-bit on both sides of the boundary (instances above
    /// it still cross the boundary mid-call as peels shrink the active set).
    #[test]
    fn cutoff_boundary_is_bit_identical() {
        let mut rng = <StdRng as ssp_prng::SeedableRng>::seed_from_u64(0xC07F);
        for n in [
            SMALL_PEEL_CUTOFF - 2,
            SMALL_PEEL_CUTOFF - 1,
            SMALL_PEEL_CUTOFF,
            SMALL_PEEL_CUTOFF + 1,
            2 * SMALL_PEEL_CUTOFF,
        ] {
            let jobs = random_jobs(&mut rng, n..n + 1);
            assert_eq!(jobs.len(), n);
            let fast = yds(&jobs, 2.2);
            let reference = yds_reference(&jobs, 2.2);
            assert_eq!(fast.peels, reference.peels, "n={n}");
            assert_eq!(fast.energy.to_bits(), reference.energy.to_bits(), "n={n}");
            for (s_fast, s_ref) in fast.speeds.iter().zip(&reference.speeds) {
                assert_eq!(s_fast.to_bits(), s_ref.to_bits(), "n={n}");
            }
        }
    }

    /// Same contract for the whole-instance cutoff: calls on either side of
    /// [`SMALL_INSTANCE_CUTOFF`] agree with the reference bit-for-bit, so the
    /// top-level routing (which never touches the fast kernel below the
    /// cutoff) is pure dispatch, not a semantic fork.
    #[test]
    fn instance_cutoff_boundary_is_bit_identical() {
        let mut rng = <StdRng as ssp_prng::SeedableRng>::seed_from_u64(0x1A57);
        for n in [
            SMALL_INSTANCE_CUTOFF - 1,
            SMALL_INSTANCE_CUTOFF,
            SMALL_INSTANCE_CUTOFF + 1,
        ] {
            let jobs = random_jobs(&mut rng, n..n + 1);
            let fast = yds(&jobs, 2.2);
            let reference = yds_reference(&jobs, 2.2);
            assert_eq!(fast.peels, reference.peels, "n={n}");
            assert_eq!(fast.energy.to_bits(), reference.energy.to_bits(), "n={n}");
            for (s_fast, s_ref) in fast.speeds.iter().zip(&reference.speeds) {
                assert_eq!(s_fast.to_bits(), s_ref.to_bits(), "n={n}");
            }
        }
    }

    /// A warm arena must return the same bits as a fresh [`yds`] call — in
    /// particular, stale buffer contents from a *larger* earlier list must
    /// never leak into a smaller one.
    #[test]
    fn arena_energy_matches_yds_bitwise() {
        let mut arena = YdsArena::default();
        let mut rng = <StdRng as ssp_prng::SeedableRng>::seed_from_u64(0xA2E7A);
        // Sizes deliberately zig-zag across the peel cutoff.
        for n in [40usize, 3, 70, 1, 33, 12, 64, 2] {
            let jobs = random_jobs(&mut rng, n..n + 1);
            let fresh = yds(&jobs, 2.3).energy;
            let warm = yds_energy_in(&mut arena, &jobs, 2.3);
            assert_eq!(warm.to_bits(), fresh.to_bits(), "n={n}");
        }
    }

    /// Scale laws: multiplying works by c multiplies OPT by c^alpha;
    /// stretching time by c multiplies OPT by c^(1-alpha).
    #[test]
    fn yds_respects_scale_laws() {
        check::cases(40, 0x5CA1E, |rng| {
            let jobs = random_jobs(rng, 1..8);
            let alpha = rng.gen_range(1.4f64..3.0);
            let c = rng.gen_range(0.3f64..3.0);
            let base = yds(&jobs, alpha).energy;

            let scaled_w: Vec<Job> = jobs
                .iter()
                .map(|j| Job {
                    work: j.work * c,
                    ..*j
                })
                .collect();
            let ew = yds(&scaled_w, alpha).energy;
            assert!(
                (ew - base * c.powf(alpha)).abs() <= 1e-6 * ew.max(base),
                "work scale law: {ew} vs {}",
                base * c.powf(alpha)
            );

            let scaled_t: Vec<Job> = jobs
                .iter()
                .map(|j| Job {
                    release: j.release * c,
                    deadline: j.deadline * c,
                    ..*j
                })
                .collect();
            let et = yds(&scaled_t, alpha).energy;
            assert!(
                (et - base * c.powf(1.0 - alpha)).abs() <= 1e-6 * et.max(base),
                "time scale law: {et} vs {}",
                base * c.powf(1.0 - alpha)
            );
        });
    }

    /// The YDS speed profile is always EDF-feasible and the explicit
    /// schedule validates with matching energy.
    #[test]
    fn yds_schedule_always_validates() {
        check::cases(40, 0x5C_ED, |rng| {
            let jobs = random_jobs(rng, 1..10);
            let alpha = rng.gen_range(1.4f64..3.0);
            let (sol, schedule) = yds_schedule(&jobs, alpha, 0);
            let inst = Instance::new(jobs, 1, alpha).unwrap();
            let stats = schedule
                .validate(&inst, ValidationOptions::non_migratory())
                .unwrap();
            assert!((stats.energy - sol.energy).abs() <= 1e-6 * sol.energy.max(1e-12));
        });
    }

    /// Removing a job never increases optimal energy (monotonicity).
    #[test]
    fn yds_is_monotone_in_job_set() {
        check::cases(40, 0x3007, |rng| {
            let jobs = random_jobs(rng, 2..8);
            let full = yds(&jobs, 2.0).energy;
            let fewer = yds(&jobs[1..], 2.0).energy;
            assert!(fewer <= full + 1e-9 * full.max(1.0));
        });
    }
}
