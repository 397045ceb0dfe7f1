//! Structure-aware feasibility kernel for interval-bipartite flow networks
//! (the `P|r_j, d_j, pmtn|−` / WAP shape of Horn's reduction).
//!
//! The general solver in this crate ([`crate::FlowNetwork`]) decides
//! feasibility of the 3-layer network
//!
//! ```text
//!   source --(p_i)--> job_i --(min(|I_j|, c_j))--> cell_j --(c_j)--> sink
//! ```
//!
//! by blocking-flow search. When every job's alive set is a *contiguous run*
//! of cells (the consecutive-ones property — always true for elementary
//! intervals ordered by time, since a job is alive exactly on
//! `[release, deadline)`), the max flow is computable directly by a
//! deadline-ordered sweep: process cells left to right, water-filling each
//! cell's capacity into the active jobs in Earliest-Deadline-First order,
//! respecting the per-job self-execution cap `min(|I_j|, c_j)` inside each
//! cell.
//!
//! **Exactness.** EDF water-filling alone does *not* always reach the max
//! flow: a job can soak up cell capacity early and then hit its per-cell cap
//! later, starving a longer-windowed job (swap arguments fail because the
//! reassigned time may not be reabsorbable under the `min(|I_j|, c_j)`
//! caps). The kernel therefore *certifies* every solve: a residual BFS from
//! the unmet jobs — forward along unsaturated job→cell edges, backward
//! along positive allocations — either reaches a cell with sink slack
//! (an augmenting path exists, the greedy undershot, and the caller must
//! fall back to a generic flow engine) or proves the flow maximum, in which
//! case the reached side *is* the canonical minimum cut: feasibility
//! verdict, cut sides, and cut sums all match a blocking-flow solver's
//! exactly, so downstream cut consumers (BAL's decomposition splits) work
//! unchanged. A feasible sweep (every demand routed)
//! is trivially certified. The crate's differential tests pin all of this
//! against Dinic and the integer reference on every workload family.
//!
//! Complexity: each cell pops at most `⌈c_j / min(|I_j|, c_j)⌉ + 1` jobs
//! beyond the ones it finishes (a popped-but-unfinished job either consumed
//! its full per-cell cap or exhausted the cell), so a solve is
//! `O((n + Σ_j m_j) log n)` heap operations — with `m_j` machines per cell,
//! effectively `O(n log n)` per probe instead of a blocking-flow search.
//!
//! **Job subsets.** A solve over some of the jobs
//! ([`SweepFlow::solve_jobs`]) sorts them by window start, sweeps only the
//! cells of their span (earliest window start to latest window end) and
//! certifies over them; it forgets the previous solve's jobs and cells
//! rather than clearing all `n + L`. Every readback outside the subset and
//! its span reads what a solve of every job with demand 0 outside the
//! subset reads there, so such a solve costs `O((k + span) log k)` for `k`
//! jobs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Relative epsilon for "this capacity is exhausted", matching
/// [`crate::FlowNetwork`]'s per-edge saturation threshold.
const EPS_REL: f64 = 1e-12;

/// A reusable sweep solver for one interval-bipartite network structure.
///
/// The structure (windows, per-cell caps) is fixed at construction, up to
/// [`set_cell`](SweepFlow::set_cell); each solve routes a fresh demand
/// vector from scratch — a solve is cheap enough that warm-starting would
/// add bookkeeping without winning anything. A solve over a subset of the
/// jobs ([`solve_jobs`](SweepFlow::solve_jobs)) touches only those jobs and
/// the cells of their span, and [`solve`](SweepFlow::solve) is the solve
/// over every job.
#[derive(Debug)]
pub struct SweepFlow {
    num_jobs: usize,
    num_cells: usize,
    /// Per-job window `[lo, hi]`, inclusive, over cell indices; `lo > hi`
    /// encodes an empty window (such a job can only be routed if `p_i = 0`).
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// Per-cell cap on any *single* job's allocation (`min(|I_j|, c_j)`;
    /// zero for closed cells, which have no edges at all in the generic
    /// network).
    edge_cap: Vec<f64>,
    /// Per-cell total capacity `c_j` (the sink edge).
    cell_cap: Vec<f64>,
    cell_eps: Vec<f64>,
    edge_eps: Vec<f64>,

    // ---- per-solve state ----
    /// The jobs of the last solve, in the caller's order, and its cells:
    /// the span of their windows. Every per-job and per-cell flag below is
    /// false, and every range empty, outside them, so the next solve
    /// forgets them instead of clearing all `n + L`.
    jobs: Vec<u32>,
    span: Range<usize>,
    /// The jobs of the last solve that are alive somewhere, by window
    /// start: the release order.
    release: Vec<u32>,
    need: Vec<f64>,
    need_eps: Vec<f64>,
    rem: Vec<f64>,
    /// Flat allocation triples in emission order (grouped by cell, since
    /// cells are processed in order; within a job, ascending cell).
    alloc_job: Vec<u32>,
    alloc_cell: Vec<u32>,
    alloc_amt: Vec<f64>,
    /// Cell `j`'s allocations are `alloc_*[cell_start[j]..cell_start[j+1]]`
    /// (for the cells of `span`).
    cell_start: Vec<u32>,
    /// Job `i`'s allocation indices are
    /// `job_alloc[job_range[i].0..job_range[i].1]` (ascending cell).
    job_range: Vec<(u32, u32)>,
    job_alloc: Vec<u32>,
    /// Jobs left with unmet demand (ascending deadline order).
    deficit: Vec<u32>,
    value: f64,
    demand: f64,
    ops: u64,
    solved: bool,
    /// Did the residual BFS prove the greedy flow maximum?
    certified: bool,
    /// Canonical min-cut source side (valid only when `certified`).
    job_side: Vec<bool>,
    cell_side: Vec<bool>,
    // Scratch reused across solves.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    deferred: Vec<(u32, u32)>,
}

impl SweepFlow {
    /// Build the solver for a fixed structure.
    ///
    /// * `windows[i] = (lo, hi)` — job `i` may run in cells `lo..=hi`
    ///   (`lo > hi` for a job alive nowhere);
    /// * `edge_cap[j]` — cap on a single job's time inside cell `j`
    ///   (`min(|I_j|, c_j)`; 0 when the cell is closed);
    /// * `cell_cap[j]` — total time cell `j` can hand out (`c_j`).
    pub fn new(windows: Vec<(u32, u32)>, edge_cap: Vec<f64>, cell_cap: Vec<f64>) -> Self {
        assert_eq!(edge_cap.len(), cell_cap.len());
        let n = windows.len();
        let l = edge_cap.len();
        for &(lo, hi) in &windows {
            assert!(lo > hi || (hi as usize) < l, "window out of range");
        }
        let cell_eps: Vec<f64> = cell_cap.iter().map(|c| c * EPS_REL).collect();
        let edge_eps: Vec<f64> = edge_cap.iter().map(|c| c * EPS_REL).collect();
        SweepFlow {
            num_jobs: n,
            num_cells: l,
            lo: windows.iter().map(|&(lo, _)| lo).collect(),
            hi: windows.iter().map(|&(_, hi)| hi).collect(),
            edge_cap,
            cell_cap,
            cell_eps,
            edge_eps,
            jobs: Vec::new(),
            span: 0..0,
            release: Vec::new(),
            need: vec![0.0; n],
            need_eps: vec![0.0; n],
            rem: vec![0.0; l],
            alloc_job: Vec::new(),
            alloc_cell: Vec::new(),
            alloc_amt: Vec::new(),
            cell_start: vec![0; l + 1],
            job_range: vec![(0, 0); n],
            job_alloc: Vec::new(),
            deficit: Vec::new(),
            value: 0.0,
            demand: 0.0,
            ops: 0,
            solved: false,
            certified: false,
            job_side: vec![false; n],
            cell_side: vec![false; l],
            heap: BinaryHeap::new(),
            deferred: Vec::new(),
        }
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Job `i`'s window `[lo, hi]` (inclusive), `None` when alive nowhere.
    pub fn window(&self, i: usize) -> Option<(usize, usize)> {
        (self.lo[i] <= self.hi[i]).then(|| (self.lo[i] as usize, self.hi[i] as usize))
    }

    /// The span of `jobs`: the cells from their earliest window start to
    /// their latest window end (empty when none is alive anywhere).
    pub fn span_of(&self, jobs: &[usize]) -> Range<usize> {
        let (first, last) = jobs
            .iter()
            .filter_map(|&i| self.window(i))
            .fold((usize::MAX, 0), |(a, b), (lo, hi)| (a.min(lo), b.max(hi)));
        if first > last {
            0..0
        } else {
            first..last + 1
        }
    }

    /// Per-job cap inside cell `j` (0 for closed cells).
    pub fn edge_cap(&self, j: usize) -> f64 {
        self.edge_cap[j]
    }

    /// Total capacity of cell `j`.
    pub fn cell_cap(&self, j: usize) -> f64 {
        self.cell_cap[j]
    }

    /// Re-parameterize cell `j` in place: its per-job cap `edge_cap` and
    /// total capacity `cell_cap`, with the saturation epsilons
    /// [`new`](SweepFlow::new) derives from them, so the next solve answers
    /// bit for bit what a solver built with these capacities answers. The
    /// last solve's results are void until the next solve.
    pub fn set_cell(&mut self, j: usize, edge_cap: f64, cell_cap: f64) {
        self.edge_cap[j] = edge_cap;
        self.cell_cap[j] = cell_cap;
        self.edge_eps[j] = edge_cap * EPS_REL;
        self.cell_eps[j] = cell_cap * EPS_REL;
        self.solved = false;
    }

    /// Route the demand vector `p` over every job, returning the (maximum)
    /// routed total.
    pub fn solve(&mut self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.num_jobs, "demand vector length mismatch");
        let jobs: Vec<usize> = (0..self.num_jobs).collect();
        self.solve_jobs(&jobs, p)
    }

    /// Route demand `p[k]` for job `jobs[k]` (distinct jobs, each other job
    /// without demand), returning the (maximum) routed total. The solve
    /// reads and writes only these jobs and the cells of their span: every
    /// readback of another job reads nothing routed and off the cut, and
    /// of a cell outside the span nothing used and off the cut, as a
    /// [`solve`](SweepFlow::solve) with demand 0 for the other jobs reads
    /// them.
    pub fn solve_jobs(&mut self, jobs: &[usize], p: &[f64]) -> f64 {
        assert_eq!(jobs.len(), p.len(), "one demand per job");
        // Forget the last solve: its jobs and cells are the only ones
        // whose flags and ranges are set.
        for &i in &self.jobs {
            self.job_side[i as usize] = false;
            self.job_range[i as usize] = (0, 0);
        }
        for j in self.span.clone() {
            self.cell_side[j] = false;
        }
        self.jobs.clear();
        self.jobs.extend(jobs.iter().map(|&i| i as u32));
        self.span = self.span_of(jobs);
        self.alloc_job.clear();
        self.alloc_cell.clear();
        self.alloc_amt.clear();
        self.deficit.clear();
        self.heap.clear();
        self.release.clear();
        for (&i, &pi) in jobs.iter().zip(p) {
            assert!(
                pi >= 0.0 && pi.is_finite(),
                "demand must be finite/nonnegative"
            );
            self.need[i] = pi;
            self.need_eps[i] = pi * EPS_REL;
            if self.lo[i] <= self.hi[i] {
                self.release.push(i as u32);
            } else if pi > 0.0 {
                // Alive nowhere: immediate deficit.
                self.deficit.push(i as u32);
            }
        }
        // Jobs released at one cell enter the heap in any order: its keys
        // are distinct, so it pops the same sequence whatever the order.
        let lo = &self.lo;
        self.release.sort_unstable_by_key(|&i| lo[i as usize]);
        let mut released = 0;
        let mut ops = 0u64;
        let mut value = 0.0f64;
        for j in self.span.clone() {
            // Release jobs whose window starts here.
            while let Some(&iu) = self.release.get(released) {
                if self.lo[iu as usize] as usize != j {
                    break;
                }
                released += 1;
                if self.need[iu as usize] > 0.0 {
                    ops += 1;
                    self.heap.push(Reverse((self.hi[iu as usize], iu)));
                }
            }
            self.cell_start[j] = self.alloc_job.len() as u32;
            // Water-fill this cell's capacity in EDF order.
            let ec = self.edge_cap[j];
            let ceps = self.cell_eps[j];
            let mut rc = self.cell_cap[j];
            if ec > 0.0 {
                while rc > ceps {
                    let Some(&Reverse((hi, iu))) = self.heap.peek() else {
                        break;
                    };
                    self.heap.pop();
                    let i = iu as usize;
                    let take = self.need[i].min(ec).min(rc);
                    self.alloc_job.push(iu);
                    self.alloc_cell.push(j as u32);
                    self.alloc_amt.push(take);
                    self.need[i] -= take;
                    rc -= take;
                    value += take;
                    ops += 1;
                    if self.need[i] <= self.need_eps[i] {
                        // Routed in full (up to a relative sliver): done.
                    } else if rc > ceps {
                        // Hit the per-cell cap: may continue at the next
                        // cell, but not in this one.
                        self.deferred.push((hi, iu));
                    } else {
                        // Cell exhausted under it: stays active.
                        self.heap.push(Reverse((hi, iu)));
                    }
                }
            }
            self.rem[j] = rc;
            for d in self.deferred.drain(..) {
                ops += 1;
                self.heap.push(Reverse(d));
            }
            // Expire jobs whose window ends here: whatever they still need
            // can no longer be routed.
            while let Some(&Reverse((hi, iu))) = self.heap.peek() {
                if hi as usize != j {
                    break;
                }
                self.heap.pop();
                ops += 1;
                self.deficit.push(iu);
            }
        }
        self.cell_start[self.span.end] = self.alloc_job.len() as u32;
        debug_assert!(self.heap.is_empty(), "every job expires at its deadline");
        // Per-job allocation ranges (a counting sort by job keeps the
        // ascending-cell emission order within each job).
        for &i in &self.alloc_job {
            self.job_range[i as usize].1 += 1;
        }
        let mut at = 0u32;
        for &i in &self.jobs {
            let count = self.job_range[i as usize].1;
            self.job_range[i as usize] = (at, at);
            at += count;
        }
        self.job_alloc.resize(self.alloc_job.len(), 0);
        for (a, &i) in self.alloc_job.iter().enumerate() {
            let range = &mut self.job_range[i as usize];
            self.job_alloc[range.1 as usize] = a as u32;
            range.1 += 1;
        }
        self.value = value;
        // Summed from +0.0, so a job listed without demand changes no bit.
        self.demand = p.iter().fold(0.0, |total, &pi| total + pi);
        self.ops = ops;
        self.solved = true;
        self.certify();
        value
    }

    /// Residual BFS from the deficit jobs: simultaneously the maximality
    /// certificate (no reached cell may have sink slack) and, when it
    /// holds, the canonical min-cut side extraction.
    fn certify(&mut self) {
        self.certified = true;
        if self.deficit.is_empty() {
            // Every demand routed: the flow is trivially maximum and the
            // source side of the canonical cut is just the source.
            return;
        }
        // Frontier of job nodes still to expand (cells expand inline).
        let mut stack: Vec<u32> = Vec::new();
        for k in 0..self.deficit.len() {
            let i = self.deficit[k];
            self.job_side[i as usize] = true;
            stack.push(i);
        }
        while let Some(iu) = stack.pop() {
            let i = iu as usize;
            let (lo, hi) = (self.lo[i], self.hi[i]);
            if lo > hi {
                continue;
            }
            // Walk the window and the job's (ascending-cell) allocations in
            // lockstep to know x_ij for every cell.
            let (start, end) = self.job_range[i];
            let (mut a, a_end) = (start as usize, end as usize);
            for j in lo as usize..=hi as usize {
                let mut x = 0.0;
                while a < a_end {
                    let idx = self.job_alloc[a] as usize;
                    let c = self.alloc_cell[idx] as usize;
                    if c < j {
                        a += 1;
                    } else {
                        if c == j {
                            x = self.alloc_amt[idx];
                        }
                        break;
                    }
                }
                if self.cell_side[j] || self.edge_cap[j] <= 0.0 {
                    continue;
                }
                if self.edge_cap[j] - x <= self.edge_eps[j] {
                    continue; // job's edge into this cell is saturated
                }
                self.cell_side[j] = true;
                if self.rem[j] > self.cell_eps[j] {
                    // Sink slack on a reachable cell: an augmenting path
                    // exists, so the greedy undershot the max flow. The
                    // caller must re-solve with a generic engine; the side
                    // sets are not a cut. Finishing the BFS would be wasted
                    // work.
                    self.certified = false;
                    return;
                }
                // Backward residuals: jobs that put time into this cell.
                for idx in self.cell_start[j] as usize..self.cell_start[j + 1] as usize {
                    let k = self.alloc_job[idx] as usize;
                    if !self.job_side[k] && self.alloc_amt[idx] > self.edge_eps[j] {
                        self.job_side[k] = true;
                        stack.push(k as u32);
                    }
                }
            }
        }
    }

    /// Routed total of the last [`solve`](SweepFlow::solve).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Total demand `Σ p_i` of the last [`solve`](SweepFlow::solve).
    pub fn demand(&self) -> f64 {
        self.demand
    }

    /// Heap/allocation operation count of the last solve (the kernel's
    /// work measure, exported as `wap.sweep_ops` by the WAP dispatcher).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Job `i`'s allocations `(cell, t)` in ascending cell order, zeros
    /// included — the allocation-free readback used to seed a generic flow
    /// engine with this solve's flow. Empty for a job outside the solve.
    pub fn allocs_of(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (a, b) = self.job_range[i];
        self.job_alloc[a as usize..b as usize].iter().map(|&a| {
            (
                self.alloc_cell[a as usize] as usize,
                self.alloc_amt[a as usize],
            )
        })
    }

    /// Time allotted to job `i` per cell, `(cell, t)` ascending, zeros
    /// skipped.
    pub fn allotment(&self, i: usize) -> Vec<(usize, f64)> {
        self.allocs_of(i).filter(|&(_, t)| t > 0.0).collect()
    }

    /// Demand actually routed for job `i`.
    pub fn routed(&self, i: usize) -> f64 {
        self.allocs_of(i).map(|(_, t)| t).sum()
    }

    /// Total time cell `j` handed out (none outside the last solve's span).
    pub fn cell_usage(&self, j: usize) -> f64 {
        let allocs = if self.span.contains(&j) {
            self.cell_start[j] as usize..self.cell_start[j + 1] as usize
        } else {
            0..0
        };
        self.alloc_amt[allocs].iter().sum()
    }

    /// Did the last solve certify its flow as maximum? `false` means an
    /// augmenting path exists past the greedy allocation and the caller
    /// must re-solve with a generic flow engine; the value undershoots the
    /// max flow and the side sets carry no cut information.
    pub fn certified(&self) -> bool {
        assert!(self.solved, "call solve first");
        self.certified
    }

    /// Canonical min-cut source side, job nodes (valid when
    /// [`certified`](SweepFlow::certified)). Identical to the side a
    /// residual BFS on the generic flow network returns — the canonical
    /// side is invariant across maximum flows, so it does not matter that
    /// the sweep's allocation differs edge-by-edge from a blocking-flow
    /// solver's.
    pub fn job_side(&self) -> &[bool] {
        assert!(self.solved, "call solve first");
        &self.job_side
    }

    /// Canonical min-cut source side, cell nodes (valid when
    /// [`certified`](SweepFlow::certified)).
    pub fn cell_side(&self) -> &[bool] {
        assert!(self.solved, "call solve first");
        &self.cell_side
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowNetwork;
    use ssp_prng::{check, Rng};

    /// A random WAP-shaped structure plus demands; returns (sweep, network,
    /// node layout) with the network in the canonical 3-layer shape.
    fn build_pair(
        windows: &[(u32, u32)],
        edge_cap: &[f64],
        cell_cap: &[f64],
        p: &[f64],
    ) -> (SweepFlow, FlowNetwork, usize) {
        let n = windows.len();
        let l = edge_cap.len();
        let sink = n + l + 1;
        let mut net = FlowNetwork::new(n + l + 2);
        for (i, &pi) in p.iter().enumerate() {
            net.add_edge(0, 1 + i, pi);
        }
        for (i, &(lo, hi)) in windows.iter().enumerate() {
            if lo <= hi {
                let cells = edge_cap.iter().enumerate();
                for (j, &ec) in cells.take(hi as usize + 1).skip(lo as usize) {
                    if ec > 0.0 {
                        net.add_edge(1 + i, 1 + n + j, ec);
                    }
                }
            }
        }
        for (j, &cc) in cell_cap.iter().enumerate() {
            net.add_edge(1 + n + j, sink, cc);
        }
        let sweep = SweepFlow::new(windows.to_vec(), edge_cap.to_vec(), cell_cap.to_vec());
        (sweep, net, sink)
    }

    #[test]
    fn single_job_fills_its_window() {
        let mut s = SweepFlow::new(vec![(0, 1)], vec![1.0, 2.0], vec![2.0, 4.0]);
        let v = s.solve(&[2.5]);
        assert!((v - 2.5).abs() < 1e-12);
        assert_eq!(s.allotment(0), vec![(0, 1.0), (1, 1.5)]);
        assert!((s.routed(0) - 2.5).abs() < 1e-12);
        // Self-execution cap binds: demand 4 can route at most 1 + 2 = 3.
        let v = s.solve(&[4.0]);
        assert!((v - 3.0).abs() < 1e-12);
        assert!(s.certified());
        assert_eq!(s.job_side(), &[true]);
        assert_eq!(
            s.cell_side(),
            &[false, false],
            "edge-saturated, not reached"
        );
    }

    #[test]
    fn edf_prefers_tighter_deadline() {
        // Cell capacities 1 each; job 0 spans both cells, job 1 only cell 0.
        let mut s = SweepFlow::new(vec![(0, 1), (0, 0)], vec![1.0, 1.0], vec![1.0, 1.0]);
        let v = s.solve(&[1.0, 1.0]);
        assert!((v - 2.0).abs() < 1e-12, "needs EDF: job 1 first in cell 0");
        assert_eq!(s.allotment(1), vec![(0, 1.0)]);
        assert_eq!(s.allotment(0), vec![(1, 1.0)]);
        assert!((s.cell_usage(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deficit_and_cut_on_overload() {
        // Two jobs crammed into one unit cell.
        let mut s = SweepFlow::new(vec![(0, 0), (0, 0)], vec![1.0], vec![1.0]);
        let v = s.solve(&[1.0, 0.8]);
        assert!((v - 1.0).abs() < 1e-12);
        assert!(s.certified());
        // Both jobs reach (the unsatisfied one directly, the other through
        // the shared saturated cell's allocations).
        assert_eq!(s.job_side(), &[true, true]);
        assert_eq!(s.cell_side(), &[true]);
    }

    #[test]
    fn closed_cells_route_nothing() {
        let mut s = SweepFlow::new(vec![(0, 2)], vec![1.0, 0.0, 1.0], vec![2.0, 0.0, 2.0]);
        let v = s.solve(&[3.0]);
        assert!((v - 2.0).abs() < 1e-12);
        assert_eq!(s.allotment(0), vec![(0, 1.0), (2, 1.0)]);
    }

    #[test]
    fn empty_window_is_immediate_deficit() {
        let mut s = SweepFlow::new(vec![(1, 0), (0, 0)], vec![1.0], vec![1.0]);
        let v = s.solve(&[0.5, 0.5]);
        assert!((v - 0.5).abs() < 1e-12);
        assert!(s.certified());
        assert!(s.job_side()[0] && !s.job_side()[1]);
        // Zero demand on an empty window is fine.
        let v = s.solve(&[0.0, 0.5]);
        assert!((v - 0.5).abs() < 1e-12);
        assert!(!s.job_side()[0]);
    }

    /// The canonical EDF failure mode: job 1 (deadline 1) soaks up cell 0,
    /// then hits its per-cell cap in cell 1, starving job 3 (deadline 2,
    /// whose last cell is closed) — an augmenting path 3→cell0→1→cell1
    /// exists, so the solve must refuse to certify.
    #[test]
    fn per_cell_cap_starvation_is_caught_by_the_certificate() {
        let windows = vec![(0u32, 1u32), (0, 1), (0, 1), (0, 2)];
        let edge_cap = vec![4.0, 3.0, 0.0];
        let cell_cap = vec![8.0, 6.0, 0.0];
        let p = [4.0, 6.0, 0.0, 6.0];
        let mut s = SweepFlow::new(windows, edge_cap, cell_cap);
        let v = s.solve(&p);
        assert!((v - 13.0).abs() < 1e-12, "greedy routes 13, max flow is 14");
        assert!(!s.certified());
    }

    #[test]
    fn matches_dinic_on_random_structures() {
        check::cases(192, 0x5EEF_1A01, |rng| {
            let n = rng.gen_range(1usize..24);
            let l = rng.gen_range(1usize..16);
            let m = rng.gen_range(1usize..5);
            let lengths: Vec<f64> = (0..l).map(|_| rng.gen_range(0.1..4.0)).collect();
            let cell_cap: Vec<f64> = lengths
                .iter()
                .map(|&len| {
                    if rng.gen_range(0u32..8) == 0 {
                        0.0 // a closed cell
                    } else {
                        len * m as f64
                    }
                })
                .collect();
            let edge_cap: Vec<f64> = lengths
                .iter()
                .zip(&cell_cap)
                .map(|(&len, &c)| if c > 0.0 { len.min(c) } else { 0.0 })
                .collect();
            let windows: Vec<(u32, u32)> = (0..n)
                .map(|_| {
                    let lo = rng.gen_range(0usize..l) as u32;
                    let hi = rng.gen_range(lo as usize..l) as u32;
                    (lo, hi)
                })
                .collect();
            let p: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..6.0)).collect();
            let (mut sweep, mut net, sink) = build_pair(&windows, &edge_cap, &cell_cap, &p);
            let vs = sweep.solve(&p);
            let vd = net.max_flow(0, sink);
            let scale = vd.abs().max(1.0);
            // The greedy never overshoots, and when it certifies its flow
            // as maximum the value and the canonical cut sides must match
            // the blocking-flow engine exactly.
            assert!(
                vs <= vd + 1e-9 * scale,
                "sweep {vs} overshoots dinic {vd} (n={n}, l={l}, m={m})"
            );
            if sweep.certified() {
                assert!(
                    (vs - vd).abs() <= 1e-9 * scale,
                    "certified sweep {vs} vs dinic {vd} (n={n}, l={l}, m={m})"
                );
                let side = net.residual_reachable_from_source();
                for i in 0..n {
                    assert_eq!(
                        sweep.job_side()[i],
                        side[1 + i],
                        "job {i} side (n={n}, l={l})"
                    );
                }
                for j in 0..l {
                    assert_eq!(
                        sweep.cell_side()[j],
                        side[1 + n + j],
                        "cell {j} side (n={n}, l={l})"
                    );
                }
            } else {
                assert!(
                    vs < vd,
                    "uncertified sweep must genuinely undershoot: {vs} vs {vd}"
                );
            }
            // Allocation is a valid flow: demands, edge caps, cell caps.
            for i in 0..n {
                let r = sweep.routed(i);
                assert!(r <= p[i] + 1e-9 * scale);
                for (j, t) in sweep.allotment(i) {
                    assert!(t <= edge_cap[j] + 1e-12 * scale);
                    assert!(windows[i].0 as usize <= j && j <= windows[i].1 as usize);
                }
            }
            for (j, &cc) in cell_cap.iter().enumerate() {
                assert!(sweep.cell_usage(j) <= cc + 1e-9 * scale);
            }
        });
    }

    #[test]
    fn repeated_solves_are_independent_and_deterministic() {
        let windows = vec![(0u32, 2u32), (1, 3), (0, 1), (2, 3)];
        let edge_cap = vec![1.0, 0.5, 1.5, 1.0];
        let cell_cap = vec![2.0, 1.0, 3.0, 2.0];
        let mut a = SweepFlow::new(windows.clone(), edge_cap.clone(), cell_cap.clone());
        let mut b = SweepFlow::new(windows, edge_cap, cell_cap);
        let p1 = [2.0, 1.5, 0.7, 1.0];
        let p2 = [3.0, 0.2, 2.0, 0.0];
        // Interleave solves on `a`, run each once on `b`: bit-identical.
        let a1 = a.solve(&p1);
        let a2 = a.solve(&p2);
        let a1_again = a.solve(&p1);
        assert_eq!(a1.to_bits(), a1_again.to_bits());
        assert_eq!(b.solve(&p1).to_bits(), a1.to_bits());
        let b2 = {
            let mut fresh = SweepFlow::new(
                vec![(0, 2), (1, 3), (0, 1), (2, 3)],
                vec![1.0, 0.5, 1.5, 1.0],
                vec![2.0, 1.0, 3.0, 2.0],
            );
            fresh.solve(&p2)
        };
        assert_eq!(a2.to_bits(), b2.to_bits());
        let _ = b;
    }
}
