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
//! identical verdicts and canonical cut sides, so every downstream consumer
//! (BAL's splits, schedule readback) is kernel-agnostic.
//!
//! Every job is alive on one contiguous run of intervals, its *window*
//! ([`IntervalSet::intervals_of`]); the WAP, the sweep and the Dinic
//! engine's job edges all follow the windows. A solve may route a subset of
//! the jobs ([`WapSolver::solve_jobs`]); it then touches only those jobs and
//! their *span*, the cells from their earliest window start to their latest
//! window end, and [`WapSolver::reparameterize`] moves a span's capacities
//! in place. That is how BAL's decomposition nodes each cost their own size
//! on one solver. A whole-WAP solve ([`WapSolver::solve`], [`Wap::solve`])
//! is the subset of every job.

use ssp_maxflow::{EdgeId, FlowNetwork, SweepFlow};
use ssp_model::numeric::Tol;
use ssp_model::{Instance, IntervalSet, Schedule};
use std::ops::Range;

use crate::mcnaughton::mcnaughton;

/// Kernel selection policy for [`Wap::solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WapKernel {
    /// Sweep first; a decline finishes the solve on Dinic, seeded with the
    /// sweep's greedy flow.
    #[default]
    Auto,
    /// Cold Dinic on every solve (the differential referee and the
    /// sweep-disabled baseline).
    Flow,
}

/// A WAP instance: per-job alive windows plus capacities, fixed at
/// construction.
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
    /// inclusive alive window (`lo > hi` for a job alive nowhere). A
    /// capacity at or below `1e-9·|I_j|` is stored as exactly zero: `c −
    /// e_j·k` updates on non-dyadic lengths leave ~1e-16 residues, and an
    /// "open" interval with no real capacity would let a later node allot a
    /// full machine that does not exist.
    pub fn new(windows: Vec<(u32, u32)>, lengths: Vec<f64>, capacity: Vec<f64>) -> Self {
        assert_eq!(lengths.len(), capacity.len());
        for &(lo, hi) in &windows {
            assert!(
                lo > hi || (hi as usize) < lengths.len(),
                "alive window out of range"
            );
        }
        let mut wap = Wap {
            windows,
            lengths,
            capacity,
            kernel: WapKernel::Auto,
        };
        for j in 0..wap.capacity.len() {
            wap.capacity[j] = wap.snapped(j, wap.capacity[j]);
        }
        wap
    }

    /// Build over `intervals` (a decomposition of `instance`'s jobs) with
    /// per-interval capacities `capacity`: each job's window is its
    /// interval-set window.
    pub fn over(instance: &Instance, intervals: &IntervalSet, capacity: Vec<f64>) -> Self {
        let lengths = (0..intervals.len()).map(|j| intervals.length(j)).collect();
        let windows = (0..instance.len())
            .map(|i| match intervals.intervals_of(i) {
                run if run.is_empty() => (1, 0), // alive nowhere
                run => (run.start as u32, (run.end - 1) as u32),
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

    /// Capacity `c` of interval `j` as [`Wap::new`] stores it: exactly zero
    /// at or below `1e-9·|I_j|`.
    pub(crate) fn snapped(&self, j: usize, c: f64) -> f64 {
        if c <= 1e-9 * self.lengths[j] {
            0.0
        } else {
            c
        }
    }

    /// Job `i`'s alive window `(lo, hi)` (inclusive), `None` when it is
    /// alive nowhere.
    pub fn window_of(&self, i: usize) -> Option<(usize, usize)> {
        let (lo, hi) = self.windows[i];
        (lo <= hi).then_some((lo as usize, hi as usize))
    }

    /// The span of `jobs`: the intervals from their earliest window start
    /// to their latest window end (empty when none is alive anywhere).
    pub(crate) fn span_of(&self, jobs: &[usize]) -> Range<usize> {
        let (first, last) = jobs
            .iter()
            .filter_map(|&i| self.window_of(i))
            .fold((usize::MAX, 0), |(a, b), (lo, hi)| (a.min(lo), b.max(hi)));
        if first > last {
            0..0
        } else {
            first..last + 1
        }
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

    /// Cell `j`'s parameters in a solver's snapshot at capacity `c`: the
    /// single-job cap `min(|I_j|, c)` (0 when the cell is closed) and `c`.
    fn cell_caps(&self, j: usize, c: f64) -> (f64, f64) {
        (if c > 0.0 { self.lengths[j].min(c) } else { 0.0 }, c)
    }

    /// Build a persistent solver over these capacities: a sweep snapshot of
    /// the structure (each sweep solve is an independent `O(n log n)` pass)
    /// plus a Dinic engine over the same snapshot, built the first time the
    /// engine has to answer. Every solve starts over: no flow carries from
    /// one solve to the next. [`WapSolver::reparameterize`] moves a span of
    /// its cells to new capacities, which BAL does once per decomposition
    /// node on the one solver it builds per solve.
    pub fn solver(&self) -> WapSolver {
        let _span = ssp_probe::span("wap.solver_build");
        let (edge_cap, cell_cap): (Vec<f64>, Vec<f64>) = (0..self.num_intervals())
            .map(|j| self.cell_caps(j, self.capacity[j]))
            .unzip();
        WapSolver {
            sweep: SweepFlow::new(self.windows.clone(), edge_cap, cell_cap),
            engine: None,
            kernel: self.kernel,
            engine_answered: false,
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
/// set a snapshot's capacities, seed a flow and read it back. Node layout:
/// 0 = source, `1..=n` jobs, `n+1..=n+l` intervals, `n+l+1` sink. The
/// network is built once per solver; every solve sets the sink edges of
/// its span, the job edges of the jobs with demand and their source edges
/// from the sweep's snapshot and the demands, then solves cold or resumes
/// from the sweep's greedy flow.
#[derive(Debug)]
struct FlowState {
    net: FlowNetwork,
    sink: usize,
    source_edges: Vec<EdgeId>,
    job_edges: Vec<Vec<(usize, EdgeId)>>,
    sink_edges: Vec<EdgeId>,
    /// `live[i]`: job `i`'s edges carry the snapshot's caps. Only a job with
    /// demand needs them: into a job with no demand and no flow no edge is
    /// residual, so its edges' capacities change no path, flow or cut, and
    /// a solve touches the edges of the jobs with demand (and of the ones
    /// that had it) only.
    live: Vec<bool>,
    /// The jobs whose `live` flag is set.
    live_jobs: Vec<usize>,
    /// The cells whose sink edges the last solve set: no other sink edge
    /// carries flow.
    span: Range<usize>,
}

impl FlowState {
    /// Build Horn's network over a sweep snapshot's structure: a job edge
    /// into every cell of each job's window. Every capacity starts at zero:
    /// each solve sets them.
    fn build(sweep: &SweepFlow) -> FlowState {
        let _span = ssp_probe::span("wap.fallback_build");
        let (n, l) = (sweep.num_jobs(), sweep.num_cells());
        let sink = n + l + 1;
        let mut net = FlowNetwork::new(n + l + 2);
        let source_edges: Vec<EdgeId> = (0..n).map(|i| net.add_edge(0, 1 + i, 0.0)).collect();
        let mut job_edges: Vec<Vec<(usize, EdgeId)>> = vec![Vec::new(); n];
        for (i, edges) in job_edges.iter_mut().enumerate() {
            if let Some((lo, hi)) = sweep.window(i) {
                for j in lo..=hi {
                    edges.push((j, net.add_edge(1 + i, 1 + n + j, 0.0)));
                }
            }
        }
        let sink_edges = (0..l).map(|j| net.add_edge(1 + n + j, sink, 0.0)).collect();
        FlowState {
            net,
            sink,
            source_edges,
            job_edges,
            sink_edges,
            live: vec![false; n],
            live_jobs: Vec::new(),
            span: 0..0,
        }
    }

    /// Set the job edges of every job with demand (`p[k]` for `jobs[k]`)
    /// to the snapshot's single-job cap, the edges of a job whose demand is
    /// gone to 0 (the clamp empties them), the sink edges of the jobs' span
    /// to the cells' capacities and the source edges to the demands, as a
    /// fresh build over this snapshot would: edges into closed cells get
    /// capacity 0, and a zero-capacity edge carrying no flow is never
    /// residual, so it changes no path, flow or cut. A sink edge
    /// outside the span keeps its capacity and gives up its flow: no job
    /// with demand reaches it. The flows are the caller's to reset (a cold
    /// solve) or to seed. The CSR keeps insertion order, so every Dinic
    /// phase then walks the same paths, and ends on the same flow, as on a
    /// freshly built network.
    fn restart(&mut self, jobs: &[usize], p: &[f64], sweep: &SweepFlow) {
        for &i in &self.live_jobs {
            self.live[i] = false;
        }
        for (&i, &demand) in jobs.iter().zip(p) {
            if demand > 0.0 {
                for &(j, e) in &self.job_edges[i] {
                    self.net.set_capacity(e, sweep.edge_cap(j));
                }
                self.live[i] = true;
            }
            self.net.set_capacity(self.source_edges[i], demand);
        }
        // The jobs that had demand in the last solve and have none now.
        for &i in &self.live_jobs {
            if !self.live[i] {
                for &(_, e) in &self.job_edges[i] {
                    self.net.set_capacity(e, 0.0);
                }
                self.net.set_capacity(self.source_edges[i], 0.0);
            }
        }
        self.live_jobs.clear();
        let with_demand = jobs.iter().zip(p).filter(|&(_, &d)| d > 0.0);
        self.live_jobs.extend(with_demand.map(|(&i, _)| i));
        let span = sweep.span_of(jobs);
        for j in self.span.clone().filter(|j| !span.contains(j)) {
            self.net.set_flow(self.sink_edges[j], 0.0);
        }
        for j in span.clone() {
            self.net.set_capacity(self.sink_edges[j], sweep.cell_cap(j));
        }
        self.span = span;
    }

    /// Route the demands by a cold max flow over the snapshot.
    fn solve_cold(&mut self, jobs: &[usize], p: &[f64], sweep: &SweepFlow) -> f64 {
        self.restart(jobs, p, sweep);
        self.net.max_flow(0, self.sink)
    }

    /// Start over from the sweep's water-filling allocation of the demands:
    /// seed every edge with the greedy flow (a valid, near-maximal flow
    /// over the snapshot's capacities) and augment only the undershoot:
    /// the rest of a solve the sweep declined.
    fn solve_seeded(&mut self, jobs: &[usize], p: &[f64], sweep: &SweepFlow) -> f64 {
        self.restart(jobs, p, sweep);
        for &i in jobs {
            self.net.set_flow(self.source_edges[i], sweep.routed(i));
        }
        // A job that is not live has no demand and its edges no flow.
        for &i in &self.live_jobs {
            // Both lists are ascending in cell index; walk them in lockstep
            // (every cell of the job's window has an edge).
            let mut alloc = sweep.allocs_of(i);
            let mut cur = alloc.next();
            for &(j, e) in &self.job_edges[i] {
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
        for j in self.span.clone() {
            self.net.set_flow(self.sink_edges[j], sweep.cell_usage(j));
        }
        ssp_probe::counter!("maxflow.dinic.seeded_resumes");
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
/// structure snapshot, finished on a Dinic engine over the same snapshot
/// when the sweep declines (see [`WapSolver::solve_jobs`]); a
/// [`WapKernel::Flow`] solver runs the engine alone.
/// [`WapSolver::reparameterize`] moves a span of the snapshot to new
/// capacities in place. Counters:
/// `wap.flow_calls` (every solve), `wap.fast_path` (certified sweep
/// solves), `wap.fast_fallback` (a decline: the engine, built at the
/// solver's first decline, starts from the greedy flow), `wap.sweep_ops`
/// (sweep kernel work measure). Every solve of an [`WapKernel::Auto`]
/// solver lands in exactly one of `fast_path` and `fast_fallback`, so the
/// two sum to its `flow_calls`.
#[derive(Debug)]
pub struct WapSolver {
    /// The structure snapshot and the fast path.
    sweep: SweepFlow,
    /// Dinic over the same snapshot, built the first time it has to answer
    /// and kept across re-parameterizations.
    engine: Option<Box<FlowState>>,
    /// The kernel policy the solver was built with.
    kernel: WapKernel,
    /// Did the engine answer the last solve? The readbacks follow it.
    engine_answered: bool,
    value: f64,
    demand: f64,
}

impl WapSolver {
    /// Route the demand vector `p` (one demand per job) and return the
    /// achieved flow value: [`WapSolver::solve_jobs`] over every job.
    pub fn solve(&mut self, p: &[f64]) -> f64 {
        assert_eq!(
            p.len(),
            self.sweep.num_jobs(),
            "demand vector length mismatch"
        );
        let jobs: Vec<usize> = (0..p.len()).collect();
        self.solve_jobs(&jobs, p)
    }

    /// Route demand `p[k]` for job `jobs[k]` (distinct jobs; every other
    /// job has no demand) and return the achieved flow value. The solve
    /// touches only these jobs and the cells of their span, the run of
    /// cells from their earliest window start to their latest window end:
    /// no other job has demand, so no flow, cut or readback depends on the
    /// cells outside the span, whatever capacities they hold.
    ///
    /// Dispatch is one rule, and every solve starts over: an
    /// [`WapKernel::Auto`] solver tries the sweep, and a certified sweep
    /// answers; on a decline the Dinic engine, built over the sweep's
    /// snapshot at the solver's first decline, starts from the greedy flow
    /// and augments only the undershoot. A forced-[`WapKernel::Flow`]
    /// solver runs cold Dinic.
    pub fn solve_jobs(&mut self, jobs: &[usize], p: &[f64]) -> f64 {
        let _span = ssp_probe::span("wap.solve");
        ssp_probe::counter!("wap.flow_calls");
        assert_eq!(jobs.len(), p.len(), "one demand per job");
        for &demand in p {
            assert!(
                demand >= 0.0 && demand.is_finite(),
                "demand must be finite/nonnegative"
            );
        }
        // Summed from +0.0, so a job listed without demand changes no bit.
        self.demand = p.iter().fold(0.0, |total, &demand| total + demand);
        let auto = self.kernel == WapKernel::Auto;
        if auto {
            let v = {
                let _s = ssp_probe::span("wap.sweep");
                self.sweep.solve_jobs(jobs, p)
            };
            ssp_probe::counter!("wap.sweep_ops", self.sweep.ops());
            if self.sweep.certified() {
                ssp_probe::counter!("wap.fast_path");
                self.engine_answered = false;
                self.value = v;
                return v;
            }
            // The greedy undershot (a per-cell cap starved a longer-windowed
            // job); finish the solve exactly on the same snapshot, seeded
            // with the greedy flow so only the undershoot needs augmenting.
            ssp_probe::counter!("wap.fast_fallback");
        }
        let sweep = &self.sweep;
        let fs = self
            .engine
            .get_or_insert_with(|| Box::new(FlowState::build(sweep)));
        let _s = ssp_probe::span("wap.fallback_solve");
        self.value = if auto {
            fs.solve_seeded(jobs, p, sweep)
        } else {
            fs.solve_cold(jobs, p, sweep)
        };
        self.engine_answered = true;
        self.value
    }

    /// Move the cells `lo..lo + caps.len()` to capacities `caps` in place:
    /// BAL's step from one decomposition node to the next, over the node's
    /// span. `wap` must have this solver's shape; it gives the lengths, and
    /// each capacity is snapped as [`Wap::new`] snaps it: exactly zero at
    /// or below `1e-9·|I_j|`. The sweep snapshot takes the new capacities
    /// cell by cell; the other cells keep theirs. A built engine is kept:
    /// its next solve sets its job and sink edges from the new snapshot and
    /// answers bit for bit what a fresh [`Wap::solver`] at these capacities
    /// answers for jobs whose span lies inside these cells. The last
    /// solve's results are void until the next solve.
    pub fn reparameterize(&mut self, wap: &Wap, lo: usize, caps: &[f64]) {
        assert_eq!(
            (wap.num_jobs(), wap.num_intervals()),
            (self.sweep.num_jobs(), self.sweep.num_cells()),
            "re-parameterized with another WAP's shape"
        );
        for (j, &c) in (lo..).zip(caps) {
            assert!(c >= 0.0);
            let (edge_cap, cell_cap) = wap.cell_caps(j, wap.snapped(j, c));
            self.sweep.set_cell(j, edge_cap, cell_cap);
        }
    }

    /// The engine, when it answered the last solve.
    fn answering(&self) -> Option<&FlowState> {
        self.engine.as_deref().filter(|_| self.engine_answered)
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
        match self.answering() {
            Some(fs) => fs.allotment(i),
            None => self.sweep.allotment(i),
        }
    }

    /// Demand actually routed for job `i`.
    pub fn routed(&self, i: usize) -> f64 {
        match self.answering() {
            Some(fs) => fs.routed(i),
            None => self.sweep.routed(i),
        }
    }

    /// Flow into the sink from interval `j` (total time handed out there).
    pub fn interval_usage(&self, j: usize) -> f64 {
        match self.answering() {
            Some(fs) => fs.interval_usage(j),
            None => self.sweep.cell_usage(j),
        }
    }

    /// The source side of the canonical minimum cut of the last solve:
    /// `(jobs, intervals)`, each flag true when the node is
    /// residual-reachable from the source. When a BAL node's demands
    /// `w_i / v` fall short, the reachable jobs are the node's jobs faster
    /// than `v` and the reachable intervals the ones they fill (their sink
    /// edge lies in the cut). The canonical min cut is invariant across max
    /// flows, so the sides are identical whichever kernel produced the flow
    /// (the sweep only reports sides it has certified).
    pub fn cut_sides(&self) -> (Vec<bool>, Vec<bool>) {
        let jobs: Vec<usize> = (0..self.sweep.num_jobs()).collect();
        self.cut_sides_of(&jobs, 0..self.sweep.num_cells())
    }

    /// [`WapSolver::cut_sides`] read over `jobs` and `cells` only: the
    /// flags of `jobs[k]` and of cell `cells.start + k`, in that order.
    pub(crate) fn cut_sides_of(
        &self,
        jobs: &[usize],
        cells: Range<usize>,
    ) -> (Vec<bool>, Vec<bool>) {
        match self.answering() {
            Some(fs) => {
                let side = fs.net.residual_reachable_from_source();
                let n = self.sweep.num_jobs();
                (
                    jobs.iter().map(|&i| side[1 + i]).collect(),
                    cells.map(|j| side[1 + n + j]).collect(),
                )
            }
            None => {
                let (job_side, cell_side) = (self.sweep.job_side(), self.sweep.cell_side());
                (
                    jobs.iter().map(|&i| job_side[i]).collect(),
                    cell_side[cells].to_vec(),
                )
            }
        }
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
        let (wap, ivals) = Wap::from_instance(&instance);
        assert_eq!(ivals.len(), 1);
        assert_eq!(wap.open_time_of(0), 4.0);
        let closed = Wap::over(&instance, &ivals, vec![0.0]);
        assert_eq!(closed.open_time_of(0), 0.0);
        assert_eq!(closed.open_intervals_of(0).count(), 0);
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
    }

    /// After a certified sweep solve, a declined one must report the generic
    /// engine's fresh state (no stale side sets), and a later certified
    /// solve the sweep's state again.
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
        // 3) feasible again: the sweep answers again, and every readback
        // reflects this solve, not the last one.
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

    /// Every solve starts over: after a decline, an `Auto` solver's next
    /// solve tries the sweep again, a forced-Flow solver's engine answers
    /// every solve cold, and each solve of either reads back bit for bit
    /// what a fresh solver reads back at the same demands.
    #[test]
    fn every_solve_starts_over_like_a_fresh_solver() {
        let wap = starvation_wap();
        let mut flow_wap = wap.clone();
        flow_wap.set_kernel(WapKernel::Flow);
        let works = [4.0, 6.0, 0.0, 6.0];
        let demands = |v: f64| works.map(|w| w / v);
        let mut s = wap.solver();
        let mut f = flow_wap.solver();
        s.solve(&demands(1.0));
        assert!(s.engine_answered, "the sweep declines the starved demands");
        let mut sweep_answers = 0;
        for &v in &[2.0, 1.1, 0.9, 3.0, 1.0, 1.2, 0.5, 1.15] {
            let p = demands(v);
            s.solve(&p);
            f.solve(&p);
            assert!(f.engine_answered, "a forced-Flow solve at v={v}");
            assert_eq!(
                readback(&s, 4),
                readback(&wap.solve(&p), 4),
                "Auto at v={v}"
            );
            assert_eq!(
                readback(&f, 4),
                readback(&flow_wap.solve(&p), 4),
                "Flow at v={v}"
            );
            assert_eq!(s.feasible(), f.feasible(), "verdict at v={v}");
            assert_eq!(s.cut_sides(), f.cut_sides(), "cut sides at v={v}");
            sweep_answers += usize::from(!s.engine_answered);
        }
        assert!(
            sweep_answers > 0,
            "the sweep never answered after a decline"
        );
    }

    /// A solver answers at the capacities it was built with: a `Wap` with
    /// the only interval closed reaches fresh solvers on both kernels, and
    /// an existing solver only once its span is re-parameterized to it.
    #[test]
    fn reparameterized_capacities_reach_fresh_solvers_on_both_kernels() {
        let instance = inst(vec![Job::new(0, 2.0, 0.0, 2.0)], 2);
        let (open, ivals) = Wap::from_instance(&instance);
        let closed = Wap::over(&instance, &ivals, vec![0.0]);
        let mut before = open.solver();
        assert!(before.solve(&[2.0]) >= 2.0 - 1e-12);
        assert!(before.feasible());
        // A fresh solver over the closed interval sees zero capacity.
        for kernel in [WapKernel::Auto, WapKernel::Flow] {
            let mut w = closed.clone();
            w.set_kernel(kernel);
            let mut s = w.solver();
            assert_eq!(s.solve(&[2.0]), 0.0, "{kernel:?} must see closed interval");
            assert!(!s.feasible());
        }
        // The existing solver keeps its capacities until the job's span is
        // re-parameterized.
        assert!(before.solve_jobs(&[0], &[2.0]) >= 2.0 - 1e-12);
        before.reparameterize(&closed, 0, &[closed.capacity(0)]);
        assert_eq!(before.solve_jobs(&[0], &[2.0]), 0.0);
        assert!(!before.feasible());
    }

    /// Everything a consumer reads off a solve, as bits: value, verdict,
    /// cut sides, allotments and interval usage.
    type Readback = (
        u64,
        bool,
        (Vec<bool>, Vec<bool>),
        Vec<Vec<(usize, u64)>>,
        Vec<u64>,
    );

    fn readback(s: &WapSolver, jobs: usize) -> Readback {
        let allotments = (0..jobs)
            .map(|i| {
                s.allotment(i)
                    .iter()
                    .map(|&(j, t)| (j, t.to_bits()))
                    .collect()
            })
            .collect();
        let usage = (0..s.sweep.num_cells())
            .map(|j| s.interval_usage(j).to_bits())
            .collect();
        (
            s.value().to_bits(),
            s.feasible(),
            s.cut_sides(),
            allotments,
            usage,
        )
    }

    /// What the solves of [`replay_bal_rounds`] did on the re-parameterized
    /// solver: engine builds, engine answers, and sweep answers in rounds
    /// after the first.
    #[derive(Debug, Default)]
    struct Reuse {
        builds: usize,
        engine_answers: usize,
        later_sweep_answers: usize,
    }

    /// The speeds [`replay_bal_rounds`] probes each round at, as multiples
    /// of the round's speed.
    const PROBES: [f64; 6] = [0.5, 0.97, 1.0 - 1e-9, 1.0, 1.03, 2.0];

    /// Replay BAL's rounds on one solver re-parameterized between them over
    /// the span of the jobs still to place, solving only those jobs, and on
    /// a fresh full-width solver per round, solving every job (demand 0 for
    /// the placed ones); probe each round at speeds around its critical
    /// speed, and require every solve to read back bit for bit alike. The
    /// cells outside the span keep what earlier rounds left there. Between
    /// rounds the capacities change as BAL changes them: the saturated
    /// intervals close, every other interval of a critical job's window
    /// loses one machine (`|I_j|`), and the critical jobs' demands go to
    /// zero. Each round's capacities make a `Wap` of their own.
    fn replay_bal_rounds(instance: &Instance, kernel: WapKernel) -> (Reuse, usize) {
        let rounds = crate::bal::bal(instance).rounds;
        let (root, ivals) = Wap::from_instance(instance);
        let mut caps: Vec<f64> = (0..root.num_intervals())
            .map(|j| root.capacity(j))
            .collect();
        let round_wap = |caps: &[f64]| {
            let mut wap = Wap::over(instance, &ivals, caps.to_vec());
            wap.set_kernel(kernel);
            wap
        };
        let mut works: Vec<f64> = instance.jobs().iter().map(|j| j.work).collect();
        let mut reused = round_wap(&caps).solver();
        let mut reuse = Reuse::default();
        let engine = |s: &WapSolver| s.engine.as_deref().map(|e| e as *const FlowState);
        for (r, round) in rounds.iter().enumerate() {
            let wap = round_wap(&caps);
            let left: Vec<usize> = (0..works.len()).filter(|&i| works[i] > 0.0).collect();
            let span = reused.sweep.span_of(&left);
            if r > 0 {
                let span_caps: Vec<f64> = span.clone().map(|j| wap.capacity(j)).collect();
                reused.reparameterize(&wap, span.start, &span_caps);
            }
            let mut fresh = wap.solver();
            for f in PROBES {
                let v = round.speed * f;
                let p: Vec<f64> = works.iter().map(|&w| w / v).collect();
                let p_left: Vec<f64> = left.iter().map(|&i| p[i]).collect();
                let before = engine(&reused);
                reused.solve_jobs(&left, &p_left);
                fresh.solve(&p);
                assert_eq!(
                    readback(&reused, works.len()),
                    readback(&fresh, works.len()),
                    "{kernel:?} round {r} at {f} × its speed"
                );
                reuse.builds += usize::from(engine(&reused) != before);
                if reused.engine_answered {
                    reuse.engine_answers += 1;
                } else if r > 0 {
                    reuse.later_sweep_answers += 1;
                }
            }
            for &j in &round.saturated {
                caps[j] = 0.0;
            }
            for &i in &round.jobs {
                works[i] = 0.0;
                for j in ivals.intervals_of(i) {
                    if caps[j] > 0.0 && !round.saturated.contains(&j) {
                        caps[j] = (caps[j] - ivals.length(j)).max(0.0);
                    }
                }
            }
        }
        (reuse, rounds.len())
    }

    /// One solver re-parameterized over each round's span between BAL's
    /// rounds answers every probe bit for bit like a fresh full-width
    /// solver per round: on the sweep, on a decline that seeds the engine
    /// an earlier round built (edges into cells closed since then stay at
    /// capacity 0, sink edges outside the span keep stale capacities), and
    /// on a forced-`Flow` solver, whose engine solves every probe cold.
    /// Either way the engine is built once.
    #[test]
    fn reparameterized_solver_answers_like_a_fresh_one() {
        let instance = ssp_workloads::families::general(40, 3, 2.0).gen(11);
        let (auto, rounds) = replay_bal_rounds(&instance, WapKernel::Auto);
        assert!(rounds > 2, "{rounds} rounds");
        assert_eq!(auto.builds, 1, "{auto:?}");
        assert!(auto.engine_answers > 0, "{auto:?}");
        assert!(auto.later_sweep_answers > 0, "{auto:?}");
        let (flow, _) = replay_bal_rounds(&instance, WapKernel::Flow);
        assert_eq!(flow.builds, 1, "{flow:?}");
        assert_eq!(flow.engine_answers, PROBES.len() * rounds, "{flow:?}");
        assert_eq!(flow.later_sweep_answers, 0, "{flow:?}");
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

    /// `Wap::new` stores a capacity at or below `1e-9·|I_j|` as exactly
    /// zero, so a peeling residue closes its interval, and keeps any
    /// capacity above it.
    #[test]
    fn new_snaps_residual_capacities_to_zero() {
        let lengths = vec![2.0, 0.1, 4.0];
        let residue = 0.1 - (0.3 - 0.2); // a few ulps, not 0
        assert!(residue != 0.0);
        let wap = Wap::new(vec![(0, 2)], lengths, vec![2e-9, residue, 4.1e-9]);
        let caps: Vec<f64> = (0..3).map(|j| wap.capacity(j)).collect();
        assert_eq!(caps, [0.0, 0.0, 4.1e-9]);
        assert_eq!(wap.open_intervals_of(0).collect::<Vec<_>>(), [2]);
    }
}
