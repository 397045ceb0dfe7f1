//! The Work Assignment Problem (WAP) and `P|r_j, d_j, pmtn|−` feasibility.
//!
//! Given jobs with *time demands* `p_i`, intervals with lengths `|I_j|` and
//! processor-time capacities `c_j` (initially `m·|I_j|`), decide whether the
//! demands can be packed so that job `i` receives at most `|I_j|` time inside
//! `I_j` (no parallel self-execution) and interval `j` hands out at most
//! `c_j` total time. Classic reduction: the packing exists iff the max flow
//! of the network
//!
//! ```text
//!   source --(p_i)--> job_i --(|I_j|, if alive)--> interval_j --(c_j)--> sink
//! ```
//!
//! equals `Σ p_i`. For the uniform-speed question of the papers, `p_i = w_i/v`.
//!
//! Two kernels decide the question (see [`WapKernel`]). The
//! structure-aware **sweep** ([`ssp_maxflow::SweepFlow`]) exploits the
//! consecutive-ones property of elementary intervals (a job is alive on one
//! contiguous run of them) and runs in `O(n log n)` per probe,
//! self-certifying its result; **Dinic** ([`FlowNetwork`]) over the same
//! network answers when the sweep cannot certify maximality. Both expose
//! identical verdicts, canonical cut sides, and cut sums, so every
//! downstream consumer (Newton probes, criticality classification, schedule
//! readback) is kernel-agnostic.

use ssp_maxflow::{EdgeId, FlowNetwork, SweepFlow};
use ssp_model::numeric::Tol;
use ssp_model::{Instance, IntervalSet, Schedule};

use crate::mcnaughton::mcnaughton;

/// Kernel selection policy for [`Wap::solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WapKernel {
    /// Sweep first; the first decline latches the solver onto Dinic.
    #[default]
    Auto,
    /// Dinic from the first solve: a solver latched at birth (used by
    /// warm-start experiments and as the differential referee).
    Flow,
}

/// A WAP instance: per-job alive windows plus capacities.
///
/// Job indexing is the caller's (for [`Wap::from_instance`] it is the
/// instance's internal indexing); interval indexing refers to the interval
/// set the structure was built from. Every job is alive on one contiguous
/// run of intervals ([`IntervalSet::intervals_of`]), stored as its window.
#[derive(Debug, Clone)]
pub struct Wap {
    /// `windows[i] = (lo, hi)`: job `i` is alive on intervals `lo..=hi`
    /// (`lo > hi` when it is alive nowhere).
    windows: Vec<(u32, u32)>,
    /// Interval lengths `|I_j|`.
    lengths: Vec<f64>,
    /// Remaining processor-time capacity `c_j` of each interval.
    capacity: Vec<f64>,
    /// Kernel selection policy for solvers built from this instance.
    kernel: WapKernel,
}

impl Wap {
    /// Build from explicit parts: `windows[i] = (lo, hi)` is job `i`'s
    /// inclusive alive window (`lo > hi` for a job alive nowhere).
    pub fn new(windows: Vec<(u32, u32)>, lengths: Vec<f64>, capacity: Vec<f64>) -> Self {
        assert_eq!(lengths.len(), capacity.len());
        for &(lo, hi) in &windows {
            assert!(
                lo > hi || (hi as usize) < lengths.len(),
                "alive window out of range"
            );
        }
        Wap {
            windows,
            lengths,
            capacity,
            kernel: WapKernel::Auto,
        }
    }

    /// Build over `intervals` (a decomposition of `instance`'s jobs) with
    /// per-interval capacities `capacity`.
    pub fn over(instance: &Instance, intervals: &IntervalSet, capacity: Vec<f64>) -> Self {
        let lengths = (0..intervals.len()).map(|j| intervals.length(j)).collect();
        let windows = (0..instance.len())
            .map(|i| match intervals.intervals_of(i) {
                [] => (1, 0), // alive nowhere
                run => (run[0] as u32, run[run.len() - 1] as u32),
            })
            .collect();
        Wap::new(windows, lengths, capacity)
    }

    /// Build from an instance: intervals are the canonical elementary
    /// intervals, every capacity starts at `m·|I_j|`.
    pub fn from_instance(instance: &Instance) -> (Self, IntervalSet) {
        let ivals = IntervalSet::from_jobs(instance.jobs());
        let m = instance.machines() as f64;
        let capacity = (0..ivals.len()).map(|j| ivals.length(j) * m).collect();
        (Wap::over(instance, &ivals, capacity), ivals)
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.windows.len()
    }

    /// Number of intervals.
    pub fn num_intervals(&self) -> usize {
        self.lengths.len()
    }

    /// Interval length accessor.
    pub fn length(&self, j: usize) -> f64 {
        self.lengths[j]
    }

    /// Current capacity accessor.
    pub fn capacity(&self, j: usize) -> f64 {
        self.capacity[j]
    }

    /// Kernel selection policy used by [`Wap::solver`].
    pub fn kernel(&self) -> WapKernel {
        self.kernel
    }

    /// Override the kernel selection policy (experiments and differential
    /// referees force [`WapKernel::Flow`]; everything else should leave the
    /// default [`WapKernel::Auto`]).
    pub fn set_kernel(&mut self, kernel: WapKernel) {
        self.kernel = kernel;
    }

    /// Mutate a capacity (BAL's per-round updates). Values below a relative
    /// epsilon of the interval length snap to exactly zero: repeated
    /// `c - |I_j|` updates on non-dyadic lengths leave ~1e-16 residues, and
    /// an "open" interval with no real capacity would let a later round
    /// allot a full machine that does not exist.
    pub fn set_capacity(&mut self, j: usize, c: f64) {
        assert!(c >= 0.0);
        self.capacity[j] = if c <= 1e-9 * self.lengths[j] { 0.0 } else { c };
    }

    /// Job `i`'s alive window `(lo, hi)` (inclusive), `None` when it is
    /// alive nowhere.
    pub fn window_of(&self, i: usize) -> Option<(usize, usize)> {
        let (lo, hi) = self.windows[i];
        (lo <= hi).then_some((lo as usize, hi as usize))
    }

    /// Intervals of job `i` that still have positive capacity.
    pub fn open_intervals_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = self.windows[i];
        (lo as usize..=hi as usize).filter(|&j| self.capacity[j] > 0.0)
    }

    /// Total open (positive-capacity ∩ alive) time of job `i` — the maximum
    /// execution time it can still receive; `w_i / open_time` is its
    /// *effective density*, a lower bound on its final speed.
    pub fn open_time_of(&self, i: usize) -> f64 {
        self.open_intervals_of(i).map(|j| self.lengths[j]).sum()
    }

    /// Build a persistent solver over the *current* capacities: a sweep
    /// snapshot of the structure (each sweep solve is an independent
    /// `O(n log n)` pass) plus, once latched, a Dinic engine over the same
    /// snapshot that carries its previous max flow to each new demand
    /// vector and resumes from it — the hot path of the BAL probe ladder,
    /// where consecutive probes differ only in a monotone demand scale. A
    /// [`WapKernel::Flow`] solver is latched at birth.
    ///
    /// Snapshot semantics: later [`Wap::set_capacity`] calls do **not**
    /// propagate into an existing solver; build a fresh one per round. The
    /// Dinic engine is built from the sweep's frozen snapshot, never from
    /// `self`.
    pub fn solver(&self) -> WapSolver {
        let _span = ssp_probe::span("wap.solver_build");
        let edge_cap: Vec<f64> = self
            .lengths
            .iter()
            .zip(&self.capacity)
            .map(|(&len, &c)| if c > 0.0 { len.min(c) } else { 0.0 })
            .collect();
        let sweep = SweepFlow::new(self.windows.clone(), edge_cap, self.capacity.clone());
        let engine = (self.kernel == WapKernel::Flow).then(|| Box::new(FlowState::build(&sweep)));
        WapSolver {
            sweep,
            engine,
            value: 0.0,
            demand: 0.0,
        }
    }

    /// Solve the packing with per-job demands `p` once and return the solved
    /// solver for feasibility tests, allotment readback and cut queries. For
    /// repeated queries over varying demands keep one [`Wap::solver`].
    pub fn solve(&self, p: &[f64]) -> WapSolver {
        let mut solver = self.solver();
        solver.solve(p);
        solver
    }
}

/// Dinic's engine state: Horn's network plus the edge handles needed to
/// carry a solved flow to new demands and to read it back. Node layout:
/// 0 = source, `1..=n` jobs, `n+1..=n+l` intervals, `n+l+1` sink. Only the
/// source edges ever change capacity, so how a solved flow follows new
/// demands is decided here, where the network's shape is known; the
/// engine's one warm start, `resume_max_flow`, takes it from there.
#[derive(Debug)]
struct FlowState {
    net: FlowNetwork,
    sink: usize,
    source_edges: Vec<EdgeId>,
    job_edges: Vec<Vec<(usize, EdgeId)>>,
    sink_edges: Vec<EdgeId>,
    solved: bool,
}

impl FlowState {
    /// Build Horn's network over a sweep snapshot: job edges exist only into
    /// open intervals, with the snapshot's capacity `min(|I_j|, c_j)`.
    fn build(sweep: &SweepFlow) -> FlowState {
        let (n, l) = (sweep.num_jobs(), sweep.num_cells());
        let sink = n + l + 1;
        let mut net = FlowNetwork::new(n + l + 2);
        // Demands arrive per solve; start the parametric edges at zero.
        let source_edges: Vec<EdgeId> = (0..n).map(|i| net.add_edge(0, 1 + i, 0.0)).collect();
        let mut job_edges: Vec<Vec<(usize, EdgeId)>> = vec![Vec::new(); n];
        for (i, edges) in job_edges.iter_mut().enumerate() {
            if let Some((lo, hi)) = sweep.window(i) {
                for j in (lo..=hi).filter(|&j| sweep.cell_cap(j) > 0.0) {
                    edges.push((j, net.add_edge(1 + i, 1 + n + j, sweep.edge_cap(j))));
                }
            }
        }
        let sink_edges = (0..l)
            .map(|j| net.add_edge(1 + n + j, sink, sweep.cell_cap(j)))
            .collect();
        FlowState {
            net,
            sink,
            source_edges,
            job_edges,
            sink_edges,
            solved: false,
        }
    }

    /// Route the demand vector: cold max-flow on the first call; afterwards
    /// carry the previous max flow to the new demands and resume from it.
    ///
    /// The carry: each job's source edge is clamped to its new demand, and
    /// the overflow a clamp removes is cancelled along the job's own
    /// `job → cell → sink` paths, cells ascending. A cell's sink edge
    /// carries at least what each of its job edges does, so in exact
    /// arithmetic the job's cells always absorb its overflow; rounding
    /// slivers are left below the overflow's own `1e-12` epsilon. The result
    /// is a valid flow for the new demands, which `resume_max_flow` augments
    /// to a maximum one. A leftover beyond `1e-9` of the total overflow
    /// means the carried flow was not what this shape guarantees, and the
    /// solve falls back to cold. (Before the first solve no flow is carried,
    /// so nothing overflows.)
    fn solve(&mut self, p: &[f64]) -> f64 {
        let (mut total, mut leftover, mut cancels) = (0.0, 0.0, 0u64);
        for (i, &demand) in p.iter().enumerate() {
            let overflow = self.net.set_capacity(self.source_edges[i], demand);
            total += overflow;
            let (mut rem, eps) = (overflow, overflow * 1e-12);
            for &(j, e) in &self.job_edges[i] {
                if rem <= eps {
                    break;
                }
                let c = self.net.cancel_path(&[e, self.sink_edges[j]], rem);
                if c > 0.0 {
                    rem -= c;
                    cancels += 1;
                }
            }
            if rem > eps {
                leftover += rem;
            }
        }
        ssp_probe::counter!("maxflow.dinic.drain_paths", cancels);
        if !std::mem::replace(&mut self.solved, true) || leftover > total * 1e-9 + 1e-12 {
            return self.net.max_flow(0, self.sink);
        }
        ssp_probe::counter!("maxflow.warm_reuse");
        self.net.resume_max_flow(0, self.sink)
    }

    /// Route the demand vector starting from the sweep's water-filling
    /// allocation: seed every edge with the greedy flow (a valid,
    /// near-maximal flow over the same capacities) and augment only the
    /// undershoot. The first solve of an engine built at a sweep decline.
    fn solve_seeded(&mut self, p: &[f64], sweep: &SweepFlow) -> f64 {
        for (i, &demand) in p.iter().enumerate() {
            self.net.set_capacity(self.source_edges[i], demand);
            self.net.set_flow(self.source_edges[i], sweep.routed(i));
        }
        for (i, edges) in self.job_edges.iter().enumerate() {
            // Both lists are ascending in cell index; walk them in lockstep
            // (the sweep allocates only into open cells, which are exactly
            // the cells with edges).
            let mut alloc = sweep.allocs_of(i);
            let mut cur = alloc.next();
            for &(j, e) in edges {
                while let Some((c, _)) = cur {
                    if c < j {
                        cur = alloc.next();
                    } else {
                        break;
                    }
                }
                let f = match cur {
                    Some((c, t)) if c == j => t,
                    _ => 0.0,
                };
                self.net.set_flow(e, f);
            }
        }
        for (j, &e) in self.sink_edges.iter().enumerate() {
            self.net.set_flow(e, sweep.cell_usage(j));
        }
        ssp_probe::counter!("maxflow.dinic.seeded_resumes");
        self.solved = true;
        self.net.resume_max_flow(0, self.sink)
    }

    fn allotment(&self, i: usize) -> Vec<(usize, f64)> {
        self.job_edges[i]
            .iter()
            .map(|&(j, e)| (j, self.net.flow(e)))
            .filter(|&(_, t)| t > 0.0)
            .collect()
    }

    fn routed(&self, i: usize) -> f64 {
        self.net.flow(self.source_edges[i])
    }

    fn interval_usage(&self, j: usize) -> f64 {
        self.net.flow(self.sink_edges[j])
    }
}

/// A persistent WAP feasibility solver: a certificate-gated sweep over a
/// frozen structure snapshot, latched onto a warm-started Dinic engine over
/// the same snapshot at its first decline (see [`WapSolver::solve`]); a
/// [`WapKernel::Flow`] solver is latched at birth. Counters:
/// `wap.flow_calls` (every solve), `wap.fast_path` (certified sweep
/// solves), `wap.fast_fallback` (the sweep's first decline: the engine was
/// built and seeded from the greedy flow), `wap.sweep_skip` (latched
/// solves, forced-`Flow` ones included: the sweep was not attempted and the
/// engine solved cold or carried its previous flow), `wap.sweep_ops`
/// (sweep kernel work measure). Every solve lands in exactly one of
/// `fast_path`, `fast_fallback` or `sweep_skip`, so the three sum to
/// `flow_calls` for every solver.
#[derive(Debug)]
pub struct WapSolver {
    /// The structure snapshot and the fast path.
    sweep: SweepFlow,
    /// Dinic over the same snapshot; once present it answers every solve
    /// (`is_some()` is the latch) and holds the last accepted solve.
    engine: Option<Box<FlowState>>,
    value: f64,
    demand: f64,
}

impl WapSolver {
    /// Route the demand vector `p` and return the achieved flow value.
    ///
    /// Dispatch is one rule: an unlatched solver tries the sweep, and a
    /// certified sweep answers. The first decline builds the Dinic engine
    /// over the sweep's snapshot, seeds it with the greedy flow, and latches
    /// this solver onto the engine for the rest of its life: later solves
    /// skip the sweep and carry the engine's previous flow to the new
    /// demands, exactly what a forced-[`WapKernel::Flow`] solver does after
    /// its first, cold solve.
    /// Whether the greedy certifies depends mostly on the capacity
    /// structure, which a solver never changes: after one decline, later
    /// attempts mostly decline too and only add sweep work (DESIGN.md §3.14
    /// has the measurements). BAL builds a fresh solver every round, so the
    /// latch resets exactly when the structure changes.
    pub fn solve(&mut self, p: &[f64]) -> f64 {
        let _span = ssp_probe::span("wap.solve");
        ssp_probe::counter!("wap.flow_calls");
        assert_eq!(
            p.len(),
            self.sweep.num_jobs(),
            "demand vector length mismatch"
        );
        for &demand in p {
            assert!(
                demand >= 0.0 && demand.is_finite(),
                "demand must be finite/nonnegative"
            );
        }
        self.value = if let Some(fs) = &mut self.engine {
            ssp_probe::counter!("wap.sweep_skip");
            let _s = ssp_probe::span("wap.fallback_solve");
            fs.solve(p)
        } else {
            let v = {
                let _s = ssp_probe::span("wap.sweep");
                self.sweep.solve(p)
            };
            ssp_probe::counter!("wap.sweep_ops", self.sweep.ops());
            if self.sweep.certified() {
                ssp_probe::counter!("wap.fast_path");
                v
            } else {
                // The greedy undershot (a per-cell cap starved a
                // longer-windowed job); finish the solve exactly on the
                // frozen snapshot, seeded with the greedy flow so only the
                // undershoot needs augmenting.
                ssp_probe::counter!("wap.fast_fallback");
                let fs = self.engine.insert({
                    let _s = ssp_probe::span("wap.fallback_build");
                    Box::new(FlowState::build(&self.sweep))
                });
                let _s = ssp_probe::span("wap.fallback_solve");
                fs.solve_seeded(p, &self.sweep)
            }
        };
        self.demand = p.iter().sum();
        self.value
    }

    /// Achieved max-flow value of the last [`solve`](WapSolver::solve).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Feasible iff the flow meets the whole demand (tolerantly: max-flow
    /// arithmetic accumulates `O(E·eps)` error).
    pub fn feasible(&self) -> bool {
        self.value >= self.demand - Tol::rel(1e-9).margin(self.demand)
    }

    /// Time allotted to job `i` in each of its open intervals: `(j, t_ij)`,
    /// skipping zero allotments.
    pub fn allotment(&self, i: usize) -> Vec<(usize, f64)> {
        match &self.engine {
            Some(fs) => fs.allotment(i),
            None => self.sweep.allotment(i),
        }
    }

    /// Demand actually routed for job `i`.
    pub fn routed(&self, i: usize) -> f64 {
        match &self.engine {
            Some(fs) => fs.routed(i),
            None => self.sweep.routed(i),
        }
    }

    /// Flow into the sink from interval `j` (total time handed out there).
    pub fn interval_usage(&self, j: usize) -> f64 {
        match &self.engine {
            Some(fs) => fs.interval_usage(j),
            None => self.sweep.cell_usage(j),
        }
    }

    /// The source side of the canonical minimum cut of the last solve:
    /// `(jobs, intervals)`, each flag true when the node is
    /// residual-reachable from the source. On an *infeasible* instance just
    /// below the critical speed the reachable jobs are exactly the
    /// **critical jobs** (Lemma 5 of the migratory analysis) and the
    /// reachable intervals the **saturated intervals** (their sink edge lies
    /// in the cut). The canonical min cut is invariant across max flows, so
    /// the sides are identical whichever kernel produced the flow (the sweep
    /// only reports sides it has certified).
    pub fn cut_sides(&self) -> (Vec<bool>, Vec<bool>) {
        match &self.engine {
            Some(fs) => {
                let side = fs.net.residual_reachable_from_source();
                let n = self.sweep.num_jobs();
                (side[1..=n].to_vec(), side[n + 1..fs.sink].to_vec())
            }
            None => (
                self.sweep.job_side().to_vec(),
                self.sweep.cell_side().to_vec(),
            ),
        }
    }

    /// Cut-derived speed lower bound (the "discrete Newton step" of the BAL
    /// probe ladder), read from the last solve's residual cut. Returns
    /// `None` when the cut carries no information (feasible state — no job
    /// reachable — or a degenerate fixed capacity).
    ///
    /// Derivation: let `S` be the source side of the min cut at an
    /// *infeasible* speed `v` (`works[i] / v` demands). Its capacity splits
    /// into the demand part `Σ_{i∉S} works_i/v` and a `v`-independent part
    /// `F = Σ_{i∈S, j∉S} min(|I_j|, c_j) + Σ_{j∈S} c_j`. Infeasibility at
    /// `v` means the cut is below the total demand, i.e. `W_S/v > F` with
    /// `W_S = Σ_{i∈S} works_i`. At any feasible speed `v'` the *same* cut
    /// must clear the total demand, which rearranges to `v' ≥ W_S/F`. Hence
    /// `W_S/F` is a certified lower bound on the critical speed, and it is
    /// strictly above `v` — each Newton step jumps past everything the
    /// current cut can rule out, so the ladder converges in one step per
    /// distinct cut instead of one bit per bisection probe.
    ///
    /// `works` must hold each job's work (0 for jobs with zero demand in
    /// the last solve). Cut capacities are the snapshot's edge *parameters*
    /// (not the noisy flow values), summed in one order whichever kernel
    /// produced the cut, so the bound is exact up to one summation and
    /// bit-identical across kernels.
    pub fn cut_speed_bound(&self, works: &[f64]) -> Option<f64> {
        let s = &self.sweep;
        assert_eq!(works.len(), s.num_jobs(), "works vector length mismatch");
        let (job_side, cell_side) = self.cut_sides();
        let mut w_s = 0.0f64;
        let mut fixed = 0.0f64;
        let mut any_job = false;
        for (i, &w) in works.iter().enumerate() {
            if !job_side[i] {
                continue;
            }
            any_job = true;
            w_s += w;
            if let Some((lo, hi)) = s.window(i) {
                for (j, &cut) in cell_side.iter().enumerate().take(hi + 1).skip(lo) {
                    let ec = s.edge_cap(j);
                    if ec > 0.0 && !cut {
                        fixed += ec;
                    }
                }
            }
        }
        for (j, &side) in cell_side.iter().enumerate() {
            if side {
                fixed += s.cell_cap(j);
            }
        }
        // NaN sums fall through here and are caught by the is_finite gate.
        if !any_job || w_s <= 0.0 || fixed <= 0.0 {
            return None;
        }
        let v = w_s / fixed;
        v.is_finite().then_some(v)
    }
}

/// Explicit `P|r_j, d_j, pmtn|−` schedule: pack jobs with fixed processing
/// times `p` onto the instance's `m` machines. Returns `None` when
/// infeasible. Speeds in the produced schedule are `w_i / p_i`.
pub fn schedule_with_processing_times(instance: &Instance, p: &[f64]) -> Option<Schedule> {
    assert_eq!(p.len(), instance.len());
    let (wap, ivals) = Wap::from_instance(instance);
    let flow = wap.solve(p);
    if !flow.feasible() {
        return None;
    }
    let speeds: Vec<f64> = instance
        .jobs()
        .iter()
        .zip(p)
        .map(|(job, &pi)| job.work / pi)
        .collect();
    let mut per_interval: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ivals.len()];
    for i in 0..instance.len() {
        for (j, t) in flow.allotment(i) {
            per_interval[j].push((i, t));
        }
    }
    let mut schedule = Schedule::new(instance.machines());
    for (j, items) in per_interval.iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        let pieces: Vec<(ssp_model::JobId, f64, f64)> = items
            .iter()
            .map(|&(i, t)| (instance.job(i).id, t, speeds[i]))
            .collect();
        mcnaughton(ivals.bounds(j), instance.machines(), &pieces, &mut schedule);
    }
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{Instance, Job};

    fn inst(jobs: Vec<Job>, m: usize) -> Instance {
        Instance::new(jobs, m, 2.0).unwrap()
    }

    #[test]
    fn single_job_feasibility_boundary() {
        let instance = inst(vec![Job::new(0, 2.0, 0.0, 2.0)], 1);
        let (wap, _) = Wap::from_instance(&instance);
        assert!(wap.solve(&[2.0]).feasible()); // p = window length
        assert!(!wap.solve(&[2.1]).feasible());
    }

    #[test]
    fn two_jobs_one_machine_share_window() {
        let instance = inst(
            vec![Job::new(0, 1.0, 0.0, 2.0), Job::new(1, 1.0, 0.0, 2.0)],
            1,
        );
        let (wap, _) = Wap::from_instance(&instance);
        assert!(wap.solve(&[1.0, 1.0]).feasible());
        assert!(!wap.solve(&[1.5, 1.0]).feasible());
    }

    #[test]
    fn parallel_self_execution_is_blocked_by_job_interval_caps() {
        // One job, window length 1, two machines: demand 1.5 impossible even
        // though total capacity is 2 (a job can't run on both machines).
        let instance = inst(vec![Job::new(0, 1.0, 0.0, 1.0)], 2);
        let (wap, _) = Wap::from_instance(&instance);
        assert!(wap.solve(&[1.0]).feasible());
        assert!(!wap.solve(&[1.5]).feasible());
    }

    #[test]
    fn migration_enables_otherwise_impossible_packings() {
        // Three jobs, two machines, common window [0,3], demand 2 each:
        // total 6 = 2*3 exactly; feasible only with migration-style splitting.
        let instance = inst(
            vec![
                Job::new(0, 1.0, 0.0, 3.0),
                Job::new(1, 1.0, 0.0, 3.0),
                Job::new(2, 1.0, 0.0, 3.0),
            ],
            2,
        );
        let (wap, _) = Wap::from_instance(&instance);
        assert!(wap.solve(&[2.0, 2.0, 2.0]).feasible());
        assert!(!wap.solve(&[2.0, 2.0, 2.2]).feasible());
    }

    #[test]
    fn allotments_meet_demand_and_caps() {
        let instance = inst(
            vec![
                Job::new(0, 1.0, 0.0, 2.0),
                Job::new(1, 1.0, 1.0, 3.0),
                Job::new(2, 1.0, 0.0, 3.0),
            ],
            2,
        );
        let (wap, ivals) = Wap::from_instance(&instance);
        let p = [1.5, 1.5, 2.0];
        let flow = wap.solve(&p);
        assert!(flow.feasible());
        #[allow(clippy::needless_range_loop)]
        for i in 0..3 {
            let total: f64 = flow.allotment(i).iter().map(|&(_, t)| t).sum();
            assert!((total - p[i]).abs() < 1e-9, "job {i}: {total} vs {}", p[i]);
            for (j, t) in flow.allotment(i) {
                assert!(t <= ivals.length(j) + 1e-9);
            }
        }
        for j in 0..ivals.len() {
            assert!(flow.interval_usage(j) <= 2.0 * ivals.length(j) + 1e-9);
        }
    }

    #[test]
    fn effective_density_with_closed_intervals() {
        let instance = inst(vec![Job::new(0, 2.0, 0.0, 4.0)], 1);
        let (mut wap, ivals) = Wap::from_instance(&instance);
        assert_eq!(ivals.len(), 1);
        assert_eq!(wap.open_time_of(0), 4.0);
        wap.set_capacity(0, 0.0);
        assert_eq!(wap.open_time_of(0), 0.0);
        assert_eq!(wap.open_intervals_of(0).count(), 0);
    }

    #[test]
    fn schedule_with_processing_times_builds_valid_schedule() {
        let jobs = vec![
            Job::new(0, 2.0, 0.0, 2.0),
            Job::new(1, 2.0, 0.0, 2.0),
            Job::new(2, 2.0, 0.0, 2.0),
        ];
        let instance = inst(jobs, 2);
        // Each needs 4/3 time in [0,2]: classic McNaughton-with-migration.
        let p = vec![4.0 / 3.0; 3];
        let s = schedule_with_processing_times(&instance, &p).unwrap();
        let stats = s.validate(&instance, Default::default()).unwrap();
        assert!(
            stats.migrations >= 1,
            "splitting across machines is necessary here"
        );
    }

    #[test]
    fn schedule_with_processing_times_detects_infeasible() {
        let instance = inst(vec![Job::new(0, 1.0, 0.0, 1.0)], 1);
        assert!(schedule_with_processing_times(&instance, &[1.2]).is_none());
    }

    #[test]
    fn reachability_on_infeasible_instance_flags_overloaded_side() {
        // Job 0 tight [0,1], job 1 loose [0,10]; at demand just over the
        // window, job 0's node stays reachable (its source edge can't fill).
        let instance = inst(
            vec![Job::new(0, 1.0, 0.0, 1.0), Job::new(1, 1.0, 0.0, 10.0)],
            1,
        );
        let (wap, _) = Wap::from_instance(&instance);
        let flow = wap.solve(&[1.05, 1.0]);
        assert!(!flow.feasible());
        let (jr, _) = flow.cut_sides();
        assert!(
            jr[0],
            "the overloaded job must sit on the source side of the cut"
        );
        assert!(!jr[1], "the slack job routes fully and is cut away");
    }

    /// The per-cell-cap starvation structure where the sweep greedy cannot
    /// certify: the dispatcher must fall back to the generic engine and
    /// produce exactly what a forced-Flow solver produces.
    fn starvation_wap() -> Wap {
        Wap::new(
            vec![(0, 1), (0, 1), (0, 1), (0, 2)],
            vec![4.0, 3.0, 1.0],
            vec![8.0, 6.0, 0.0],
        )
    }

    #[test]
    fn fast_path_decline_falls_back_to_identical_flow_answers() {
        let wap = starvation_wap();
        let mut auto = wap.solver();
        let mut flow = {
            let mut w = wap.clone();
            w.set_kernel(WapKernel::Flow);
            w.solver()
        };
        let p = [4.0, 6.0, 0.0, 6.0];
        let va = auto.solve(&p);
        let vf = flow.solve(&p);
        // Seeded augmentation and cold Dinic reach (possibly different) max
        // flows; the value is unique up to summation noise, the canonical
        // cut is unique outright.
        assert!(
            (va - vf).abs() <= 1e-9 * vf.max(1.0),
            "fallback {va} must equal pure flow {vf}"
        );
        assert!((va - 14.0).abs() < 1e-9);
        assert!(!auto.feasible());
        assert_eq!(auto.cut_sides(), flow.cut_sides());
        let works = [4.0, 6.0, 0.0, 6.0];
        assert_eq!(auto.cut_speed_bound(&works), flow.cut_speed_bound(&works));
    }

    /// Satellite regression: after a certified sweep solve, a declined one
    /// must report the generic engine's fresh state (no stale side sets),
    /// and a later latched solve the engine's carried state.
    #[test]
    fn engine_switches_never_serve_stale_state() {
        let wap = starvation_wap();
        let mut s = wap.solver();
        // 1) feasible demands: certified sweep path.
        let p_ok = [2.0, 2.0, 0.0, 2.0];
        assert!((s.solve(&p_ok) - 6.0).abs() < 1e-9);
        assert!(s.feasible());
        assert!(s.cut_sides().0.iter().all(|&b| !b));
        // 2) starvation demands: fallback path, cut appears.
        let p_bad = [4.0, 6.0, 0.0, 6.0];
        s.solve(&p_bad);
        assert!(!s.feasible());
        assert!(s.cut_sides().0.iter().any(|&b| b));
        let routed_total: f64 = (0..4).map(|i| s.routed(i)).sum();
        assert!((routed_total - 14.0).abs() < 1e-9);
        // 3) feasible again: the latched engine answers from its carried
        // flow, and every readback reflects this solve, not the last one.
        assert!((s.solve(&p_ok) - 6.0).abs() < 1e-9);
        assert!(s.feasible());
        assert!(s.cut_sides().0.iter().all(|&b| !b));
        let routed_total: f64 = (0..4).map(|i| s.routed(i)).sum();
        assert!((routed_total - 6.0).abs() < 1e-9);
        for (i, &pk) in p_ok.iter().enumerate() {
            let total: f64 = s.allotment(i).iter().map(|&(_, t)| t).sum();
            assert!((total - pk).abs() < 1e-9);
        }
    }

    /// Fault recovery: when the cancels cannot absorb a clamp's overflow
    /// (here every sink edge's flow was zeroed behind the solver's back),
    /// the carry gives up and solves cold, matching a fresh solver bit for
    /// bit instead of resuming from an invalid flow.
    #[test]
    fn carry_that_cannot_cancel_its_overflow_solves_cold() {
        let mut wap = starvation_wap();
        wap.set_kernel(WapKernel::Flow);
        let mut s = wap.solver();
        s.solve(&[4.0, 6.0, 0.0, 6.0]);
        let fs = s.engine.as_mut().expect("a Flow solver is latched");
        for &e in &fs.sink_edges {
            fs.net.set_flow(e, 0.0);
        }
        let p = [2.0, 3.0, 0.0, 3.0];
        let mut fresh = wap.solver();
        assert_eq!(s.solve(&p).to_bits(), fresh.solve(&p).to_bits());
        for j in 0..wap.num_intervals() {
            let (a, b) = (s.interval_usage(j), fresh.interval_usage(j));
            assert_eq!(a.to_bits(), b.to_bits(), "interval {j}");
        }
    }

    fn latched(s: &WapSolver) -> bool {
        s.engine.is_some()
    }

    /// The decline latch: after the sweep's first decline every later solve
    /// on that solver skips the sweep (`wap.sweep_skip`) and still matches a
    /// forced-Flow solver, latched at birth, bit for bit on verdict, cut
    /// sides and `cut_speed_bound`; a fresh solver from the same `Wap` tries
    /// the sweep again.
    #[test]
    fn decline_latches_solver_onto_the_flow_engine() {
        let wap = starvation_wap();
        let mut flow_wap = wap.clone();
        flow_wap.set_kernel(WapKernel::Flow);
        let works = [4.0, 6.0, 0.0, 6.0];
        let demands = |v: f64| works.map(|w| w / v);
        // Counters are process-global and other tests run concurrently, so
        // deltas are lower bounds; the latch itself is checked on the state.
        let session = ssp_probe::Session::begin();
        let skips = || ssp_probe::counter_value("wap.sweep_skip");

        let mut s = wap.solver();
        let mut f = flow_wap.solver();
        assert!(latched(&f) && !latched(&s));
        s.solve(&demands(1.0)); // declines: builds and latches the engine
        f.solve(&demands(1.0));
        assert!(latched(&s));
        let skips_before = skips();
        let speeds = [2.0, 1.1, 0.9, 3.0, 1.0, 1.2, 0.5, 1.15];
        for &v in &speeds {
            let p = demands(v);
            s.solve(&p);
            f.solve(&p);
            assert_eq!(s.feasible(), f.feasible(), "verdict at v={v}");
            assert_eq!(s.cut_sides(), f.cut_sides(), "cut sides at v={v}");
            assert_eq!(
                s.cut_speed_bound(&works).map(f64::to_bits),
                f.cut_speed_bound(&works).map(f64::to_bits),
                "cut bound at v={v}"
            );
        }
        assert!(latched(&s), "the latch holds for the solver's whole life");
        if session.is_some() {
            // Both solvers are latched: each of their solves is a skip.
            assert!(skips() - skips_before >= 2 * speeds.len() as u64);
        }

        // A fresh solver from the same instance tries the sweep again: a
        // feasible vector certifies and leaves it unlatched.
        let mut fresh = wap.solver();
        assert!(!latched(&fresh));
        fresh.solve(&demands(2.0));
        assert!(fresh.feasible() && !latched(&fresh));
        if let Some(session) = session {
            let _ = session.end();
        }
    }

    /// Satellite regression: `Wap::set_capacity` after building one solver
    /// must be visible to the *next* solver on both kernels (snapshot
    /// semantics per solver, fresh snapshot per build).
    #[test]
    fn reparameterized_capacities_reach_fresh_solvers_on_both_kernels() {
        let instance = inst(vec![Job::new(0, 2.0, 0.0, 2.0)], 2);
        let (mut wap, _) = Wap::from_instance(&instance);
        let mut before = wap.solver();
        assert!(before.solve(&[2.0]) >= 2.0 - 1e-12);
        assert!(before.feasible());
        // Close the only interval; a fresh solver must see zero capacity.
        wap.set_capacity(0, 0.0);
        for kernel in [WapKernel::Auto, WapKernel::Flow] {
            let mut w = wap.clone();
            w.set_kernel(kernel);
            let mut s = w.solver();
            assert_eq!(s.solve(&[2.0]), 0.0, "{kernel:?} must see closed interval");
            assert!(!s.feasible());
        }
        // The pre-existing solver keeps its snapshot (documented contract).
        assert!(before.solve(&[2.0]) >= 2.0 - 1e-12);
    }

    /// The forced Flow kernel agrees with Auto on elementary-interval
    /// instances.
    #[test]
    fn forced_kernels_agree_on_instance_families() {
        let jobs = vec![
            Job::new(0, 3.0, 0.0, 2.0),
            Job::new(1, 1.0, 0.5, 3.5),
            Job::new(2, 2.0, 1.0, 4.0),
            Job::new(3, 1.5, 2.0, 6.0),
            Job::new(4, 2.5, 0.0, 6.0),
        ];
        let instance = inst(jobs, 2);
        let (wap, _) = Wap::from_instance(&instance);
        for v in [0.5f64, 0.9, 1.3, 2.0, 4.0] {
            let p: Vec<f64> = instance.jobs().iter().map(|j| j.work / v).collect();
            let mut results = Vec::new();
            for kernel in [WapKernel::Auto, WapKernel::Flow] {
                let mut w = wap.clone();
                w.set_kernel(kernel);
                let mut s = w.solver();
                s.solve(&p);
                results.push((s.feasible(), s.cut_sides()));
            }
            assert_eq!(results[0], results[1], "auto vs flow at v={v}");
        }
    }

    /// Every alive window must lie inside the interval set.
    #[test]
    #[should_panic(expected = "alive window out of range")]
    fn new_rejects_a_window_past_the_last_interval() {
        Wap::new(vec![(0, 1), (1, 2)], vec![1.0, 1.0], vec![1.0, 1.0]);
    }
}
