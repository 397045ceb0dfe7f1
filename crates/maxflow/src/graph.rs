//! Dinic's max-flow over `f64` capacities, with residual-reachability
//! queries read off the last solve's final BFS, per-edge flow readback, and
//! **one warm start**: the caller seeds a valid flow edge by edge
//! ([`FlowNetwork::set_flow`]) and [`FlowNetwork::resume_max_flow`]
//! augments it to a maximum one instead of solving from scratch — the
//! primitive behind the WAP solver's sweep-seeded fallback (see `DESIGN.md`
//! §"Parametric max-flow"). Conservation of the seeded flow is the caller's,
//! which knows the network's shape. A reachability query after an edge
//! change, with no solve in between, is refused.
//!
//! Layout: the edge store is flat structure-of-arrays (`to`/`cap`/`orig`/
//! `eps`, pairs at `2k`/`2k+1`) and adjacency is a CSR index built from the
//! edge list by a stable counting sort, so the BFS/DFS hot loops walk two
//! contiguous arrays instead of chasing one heap allocation per node. The
//! counting sort preserves insertion order within each node, which keeps
//! traversal order — and therefore every flow, residual pattern, and cut —
//! bit-identical to the per-node `Vec` adjacency this replaced.

/// Handle to a *forward* edge added with [`FlowNetwork::add_edge`]. Used to
/// read back the flow it carries after [`FlowNetwork::max_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(usize);

/// Relative per-edge saturation threshold.
const EDGE_EPS_REL: f64 = 1e-12;

/// A directed flow network. Nodes are `0..n`; parallel edges are allowed.
///
/// Numerics: capacities are `f64`; an edge counts as residual when its
/// remaining capacity exceeds its *own* epsilon (`orig_cap · 1e-12`).
/// Termination does not depend on the epsilon: every augmenting path zeroes
/// its bottleneck edge exactly (`cap - cap == 0.0`), so each blocking-flow
/// phase finds at most `E` paths and Dinic's phase bound applies unchanged;
/// the epsilon only keeps rounding slivers from being chased or reported as
/// residual connectivity.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    num_nodes: usize,
    /// Head of each directed edge (pairs at `2k`, `2k+1`).
    to: Vec<u32>,
    /// Remaining residual capacity per directed edge.
    cap: Vec<f64>,
    /// Original capacity (forward edges) or 0 (reverse edges).
    orig: Vec<f64>,
    /// Saturation threshold per directed edge. Scales with the *pair's*
    /// original capacity so that networks mixing very large and very small
    /// capacities (common in scheduling: long and short intervals) classify
    /// each edge at its own magnitude.
    eps: Vec<f64>,
    /// CSR adjacency over the edge store: node `u`'s incident edge indices
    /// are `csr_edges[csr_start[u]..csr_start[u+1]]`, in insertion order.
    csr_start: Vec<u32>,
    csr_edges: Vec<u32>,
    /// Set by `add_edge`; the next solve rebuilds the CSR.
    csr_stale: bool,
    // Scratch buffers reused across blocking-flow phases.
    level: Vec<i32>,
    /// Set when a solve ends, cleared by every later change to the edges:
    /// `level` then holds the last solve's final BFS, which never reached
    /// the sink and so labelled exactly the residual-reachable nodes. The
    /// reachability queries read only these levels.
    levels_current: bool,
    /// BFS queue: each node is pushed at most once per BFS.
    queue: Vec<u32>,
    /// Per-node DFS cursor: an absolute index into `csr_edges`, running to
    /// `csr_start[u+1]`.
    iter: Vec<u32>,
}

impl FlowNetwork {
    /// An empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            num_nodes: n,
            to: Vec::new(),
            cap: Vec::new(),
            orig: Vec::new(),
            eps: Vec::new(),
            csr_start: vec![0; n + 1],
            csr_edges: Vec::new(),
            csr_stale: false,
            level: vec![-1; n],
            levels_current: false,
            queue: Vec::with_capacity(n),
            iter: vec![0; n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add a directed edge `u → v` with capacity `cap >= 0`.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> EdgeId {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge endpoint out of range"
        );
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and >= 0, got {cap}"
        );
        let id = self.to.len();
        let eps = cap * EDGE_EPS_REL;
        self.to.push(v as u32);
        self.cap.push(cap);
        self.orig.push(cap);
        self.eps.push(eps);
        self.to.push(u as u32);
        self.cap.push(0.0);
        self.orig.push(0.0);
        self.eps.push(eps);
        self.csr_stale = true;
        self.levels_current = false;
        EdgeId(id)
    }

    /// Rebuild the CSR adjacency from the edge list: a stable counting sort
    /// by tail node, so each node's incident edges appear in insertion
    /// order — exactly the order a per-node adjacency `Vec` would hold.
    fn rebuild_csr(&mut self) {
        let n = self.num_nodes;
        self.csr_start.clear();
        self.csr_start.resize(n + 1, 0);
        for id in 0..self.to.len() {
            // Tail of edge `id` is the head of its partner.
            self.csr_start[self.to[id ^ 1] as usize + 1] += 1;
        }
        for u in 0..n {
            self.csr_start[u + 1] += self.csr_start[u];
        }
        self.csr_edges.resize(self.to.len(), 0);
        // `iter` doubles as the insertion cursor; it is reset at the start
        // of every blocking-flow phase anyway.
        self.iter.copy_from_slice(&self.csr_start[..n]);
        for id in 0..self.to.len() {
            let u = self.to[id ^ 1] as usize;
            self.csr_edges[self.iter[u] as usize] = id as u32;
            self.iter[u] += 1;
        }
        self.csr_stale = false;
    }

    fn ensure_csr(&mut self) {
        if self.csr_stale {
            self.rebuild_csr();
        }
    }

    /// Flow currently routed through a forward edge (its reverse residual).
    pub fn flow(&self, e: EdgeId) -> f64 {
        (self.orig[e.0] - self.cap[e.0]).max(0.0)
    }

    /// Remaining residual capacity of a forward edge.
    pub fn residual(&self, e: EdgeId) -> f64 {
        self.cap[e.0]
    }

    /// Current capacity parameter of a forward edge (as set at
    /// [`add_edge`](FlowNetwork::add_edge) or by the last
    /// [`set_capacity`](FlowNetwork::set_capacity)). Cut readback uses this:
    /// the capacity of a saturated cut edge, unlike [`flow`](FlowNetwork::flow),
    /// is exact — no max-flow arithmetic noise.
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.orig[e.0]
    }

    /// Is a forward edge saturated (residual below its epsilon)?
    pub fn is_saturated(&self, e: EdgeId) -> bool {
        self.cap[e.0] <= self.eps[e.0]
    }

    /// Compute a maximum `s → t` flow (Dinic) and return its value. Resets
    /// any previous flow first, so the call is idempotent.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        self.begin_solve(s, t);
        self.cap.copy_from_slice(&self.orig);
        let (value, phases, augmentations) = self.dinic_augment(s, t);
        ssp_probe::counter!("maxflow.dinic.runs");
        ssp_probe::counter!("maxflow.dinic.phases", phases);
        ssp_probe::counter!("maxflow.dinic.augmentations", augmentations);
        ssp_probe::counter!("maxflow.rebuild");
        value
    }

    /// Check the terminals and refresh the CSR: the common prologue of both
    /// solves.
    fn begin_solve(&mut self, s: usize, t: usize) {
        assert!(
            s < self.num_nodes && t < self.num_nodes,
            "terminal out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        self.ensure_csr();
        self.levels_current = false;
    }

    /// Augment the *current* residual graph to a blocking state repeatedly
    /// (the Dinic phase loop). Returns `(value added, phases, augmenting
    /// paths)` on top of whatever flow the edges already carry; callers flush
    /// the counts to the probe counters. Shared by cold and warm solves.
    /// The loop ends on a BFS that ran to completion without reaching the
    /// sink, whose levels are kept for the reachability queries.
    fn dinic_augment(&mut self, s: usize, t: usize) -> (f64, u64, u64) {
        let mut added = 0.0;
        let (mut phases, mut augmentations) = (0u64, 0u64);
        loop {
            if !self.build_levels(s, t) {
                self.levels_current = true;
                break;
            }
            phases += 1;
            // Every augmenting path found in this phase has the same length:
            // the sink's BFS level. One batched histogram record per phase.
            let path_len = self.level[t].max(0) as u64;
            let before = augmentations;
            self.reset_cursors();
            loop {
                let pushed = self.blocking_dfs(s, t, f64::INFINITY);
                if pushed <= 0.0 {
                    break;
                }
                augmentations += 1;
                added += pushed;
            }
            ssp_probe::histogram!("maxflow.dinic.path_len", path_len, augmentations - before);
        }
        (added, phases, augmentations)
    }

    /// Overwrite the flow carried by a forward edge: its residual becomes
    /// `capacity − f`, its partner's `f`. This *seeds* the network with an
    /// externally computed flow (e.g. the sweep kernel's water-filling
    /// allocation) so [`resume_max_flow`](FlowNetwork::resume_max_flow)
    /// only has to augment the difference to maximality instead of solving
    /// cold. The caller is responsible for seeding a conservation-respecting
    /// flow across all edges it touches; `f` is clamped into
    /// `[0, capacity]` (summation slivers from the external solver may
    /// overshoot by an ulp).
    pub fn set_flow(&mut self, e: EdgeId, f: f64) {
        let id = e.0;
        debug_assert!(
            f.is_finite() && f >= -self.eps[id] && f <= self.orig[id] + self.eps[id],
            "seeded flow {f} outside [0, {}]",
            self.orig[id]
        );
        let f = f.clamp(0.0, self.orig[id]);
        self.cap[id] = self.orig[id] - f;
        self.cap[id ^ 1] = f;
        self.levels_current = false;
    }

    /// Run Dinic *without* resetting the carried flow: augment whatever the
    /// edges currently hold to maximality and return the exact source
    /// outflow. Any valid flow extends to a maximum one by augmenting its
    /// residual, so this reaches a cold [`max_flow`](FlowNetwork::max_flow)'s
    /// value while doing work proportional to what the carried flow lacks.
    /// The caller guarantees the carried flow is valid — within capacities
    /// and conserving at every non-terminal (see
    /// [`set_flow`](FlowNetwork::set_flow) and
    /// [`set_capacity`](FlowNetwork::set_capacity)).
    pub fn resume_max_flow(&mut self, s: usize, t: usize) -> f64 {
        self.begin_solve(s, t);
        let (_, phases, augmentations) = self.dinic_augment(s, t);
        ssp_probe::counter!("maxflow.dinic.phases", phases);
        ssp_probe::counter!("maxflow.dinic.augmentations", augmentations);
        self.net_source_flow(s)
    }

    /// Re-parameterize a forward edge to capacity `cap`. A flow that fits
    /// is kept; a flow above `cap` is clamped to `cap` (the edge becomes
    /// saturated), which leaves conservation at the edge's head to the
    /// caller, as [`set_flow`](FlowNetwork::set_flow) does. Setting a
    /// capacity of 0 thus empties the edge.
    pub fn set_capacity(&mut self, e: EdgeId, cap: f64) {
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and >= 0, got {cap}"
        );
        let id = e.0;
        let flow = (self.orig[id] - self.cap[id]).max(0.0);
        let eps = cap * EDGE_EPS_REL;
        self.levels_current = false;
        self.orig[id] = cap;
        self.eps[id] = eps;
        self.eps[id ^ 1] = eps;
        if flow <= cap {
            self.cap[id] = cap - flow;
        } else {
            self.cap[id] = 0.0;
            self.cap[id ^ 1] = cap;
        }
    }

    /// Net flow out of `s` read directly off its incident edges.
    fn net_source_flow(&self, s: usize) -> f64 {
        let mut val = 0.0;
        for idx in self.csr_start[s]..self.csr_start[s + 1] {
            let ei = self.csr_edges[idx as usize] as usize;
            let fwd = ei & !1;
            let f = (self.orig[fwd] - self.cap[fwd]).max(0.0);
            if ei & 1 == 0 {
                val += f;
            } else {
                val -= f;
            }
        }
        val
    }

    /// BFS on the residual graph from `s`, building the level structure, and
    /// report whether it reached `t`. It stops as soon as it labels `t`: the
    /// nodes it leaves unlabelled sit at `t`'s level or beyond, where no
    /// blocking-flow path can continue, so the DFS finds the same paths.
    /// A BFS that misses `t` runs to completion and labels exactly the
    /// residual-reachable nodes. The caller must have ensured the CSR is
    /// fresh.
    fn build_levels(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(-1);
        self.queue.clear();
        self.level[s] = 0;
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            for idx in self.csr_start[u]..self.csr_start[u + 1] {
                let ei = self.csr_edges[idx as usize] as usize;
                let v = self.to[ei] as usize;
                if self.cap[ei] > self.eps[ei] && self.level[v] < 0 {
                    self.level[v] = self.level[u] + 1;
                    if v == t {
                        return true;
                    }
                    self.queue.push(v as u32);
                }
            }
        }
        false
    }

    /// Reset the per-node DFS cursors to the start of each CSR range.
    fn reset_cursors(&mut self) {
        self.iter.copy_from_slice(&self.csr_start[..self.num_nodes]);
    }

    /// DFS with per-node edge iterators; pushes a blocking path and returns
    /// the pushed amount (0 when none).
    fn blocking_dfs(&mut self, u: usize, t: usize, limit: f64) -> f64 {
        if u == t {
            return limit;
        }
        while self.iter[u] < self.csr_start[u + 1] {
            let ei = self.csr_edges[self.iter[u] as usize] as usize;
            let (to, cap, eps) = (self.to[ei] as usize, self.cap[ei], self.eps[ei]);
            if cap > eps && self.level[to] == self.level[u] + 1 {
                let pushed = self.blocking_dfs(to, t, limit.min(cap));
                if pushed > 0.0 {
                    self.cap[ei] -= pushed;
                    self.cap[ei ^ 1] += pushed;
                    return pushed;
                }
            }
            self.iter[u] += 1;
        }
        0.0
    }

    /// Nodes reachable from the source of the last solve in the residual
    /// graph. After a max flow, this is the source side `X` of the
    /// canonical minimum cut, and precisely the set of *upstream* nodes
    /// (nodes on the source side of **every** minimum cut). It reads the
    /// last solve's final BFS, so it must follow the solve: a query before
    /// any solve, or after an edge changed since the last one, is refused.
    pub fn residual_reachable_from_source(&self) -> Vec<bool> {
        assert!(
            self.levels_current,
            "reachability is read from the last solve: solve after every edge change"
        );
        self.level.iter().map(|&l| l >= 0).collect()
    }

    /// The minimum-cut edges of the last solve: forward edges from the
    /// residual-reachable side to the rest. Their capacities sum to the
    /// flow value (max-flow/min-cut theorem).
    pub fn min_cut_edges(&self) -> Vec<EdgeId> {
        let side = self.residual_reachable_from_source();
        let mut cut = Vec::new();
        for id in (0..self.to.len()).step_by(2) {
            // Forward edge u→v: u is the partner's head.
            let u = self.to[id ^ 1] as usize;
            let v = self.to[id] as usize;
            if side[u] && !side[v] && self.orig[id] > 0.0 {
                cut.push(EdgeId(id));
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic CLRS example network (max flow 23).
    fn clrs() -> (FlowNetwork, Vec<EdgeId>) {
        let mut g = FlowNetwork::new(6);
        let ids = vec![
            g.add_edge(0, 1, 16.0),
            g.add_edge(0, 2, 13.0),
            g.add_edge(1, 2, 10.0),
            g.add_edge(2, 1, 4.0),
            g.add_edge(1, 3, 12.0),
            g.add_edge(3, 2, 9.0),
            g.add_edge(2, 4, 14.0),
            g.add_edge(4, 3, 7.0),
            g.add_edge(3, 5, 20.0),
            g.add_edge(4, 5, 4.0),
        ];
        (g, ids)
    }

    #[test]
    fn clrs_max_flow_is_23() {
        let (mut g, _) = clrs();
        assert!((g.max_flow(0, 5) - 23.0).abs() < 1e-9);
    }

    #[test]
    fn max_flow_is_idempotent() {
        let (mut g, _) = clrs();
        let a = g.max_flow(0, 5);
        let b = g.max_flow(0, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn per_edge_flows_conserve() {
        let (mut g, ids) = clrs();
        let total = g.max_flow(0, 5);
        // Out of source = total.
        let out: f64 = g.flow(ids[0]) + g.flow(ids[1]);
        assert!((out - total).abs() < 1e-9);
        // Into sink = total.
        let inflow: f64 = g.flow(ids[8]) + g.flow(ids[9]);
        assert!((inflow - total).abs() < 1e-9);
        // Each flow within capacity.
        for &id in &ids {
            assert!(g.flow(id) >= -1e-12);
            assert!(g.flow(id) <= g.capacity(id) + 1e-12);
        }
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let (mut g, _) = clrs();
        let v = g.max_flow(0, 5);
        let cut = g.min_cut_edges();
        let cap: f64 = cut.iter().map(|&e| g.capacity(e)).sum();
        assert!((cap - v).abs() < 1e-9);
        // Every cut edge is saturated.
        for e in cut {
            assert!(g.is_saturated(e));
        }
    }

    #[test]
    fn disconnected_sink_gives_zero() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 5.0);
        g.add_edge(2, 3, 5.0);
        assert_eq!(g.max_flow(0, 3), 0.0);
        let side = g.residual_reachable_from_source();
        assert_eq!(side, vec![true, true, false, false]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 1.5);
        g.add_edge(0, 1, 2.5);
        assert!((g.max_flow(0, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fractional_capacities() {
        // Layered network with fractional caps typical of WAP graphs.
        let mut g = FlowNetwork::new(5);
        g.add_edge(0, 1, 1.0 / 3.0);
        g.add_edge(0, 2, 0.2);
        g.add_edge(1, 3, 0.25);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 0.5);
        let v = g.max_flow(0, 4);
        // min(1/3, 0.25) + 0.2 = 0.45 limited by 0.5 sink edge => 0.45.
        assert!((v - 0.45).abs() < 1e-12);
    }

    #[test]
    fn sink_never_residual_reachable_after_max_flow() {
        let (mut g, _) = clrs();
        g.max_flow(0, 5);
        assert!(!g.residual_reachable_from_source()[5]);
    }

    #[test]
    #[should_panic(expected = "source and sink must differ")]
    fn same_terminals_panic() {
        let mut g = FlowNetwork::new(2);
        g.max_flow(1, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite")]
    fn negative_capacity_panics() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, -1.0);
    }

    #[test]
    fn zero_capacity_edges_are_legal_and_carry_nothing() {
        let mut g = FlowNetwork::new(3);
        let e = g.add_edge(0, 1, 0.0);
        g.add_edge(1, 2, 5.0);
        assert_eq!(g.max_flow(0, 2), 0.0);
        assert_eq!(g.flow(e), 0.0);
    }

    /// Cold-solve a structural copy of `g` (same nodes/edges/orig caps).
    fn cold_value(g: &FlowNetwork, s: usize, t: usize) -> f64 {
        let mut fresh = g.clone();
        fresh.max_flow(s, t)
    }

    #[test]
    fn warm_increase_resumes_augmentation() {
        let (mut g, ids) = clrs();
        assert!((g.max_flow(0, 5) - 23.0).abs() < 1e-9);
        // Widen the (4,5) sink edge: 4.0 → 10.0 opens more throughput, and
        // the carried flow still fits, so it stays valid.
        g.set_capacity(ids[9], 10.0);
        let warm = g.resume_max_flow(0, 5);
        assert!((warm - cold_value(&g, 0, 5)).abs() < 1e-9);
        assert!(warm > 23.0);
    }

    #[test]
    fn residual_reachability_flips_with_capacity() {
        // s → a → t: saturating and unsaturating an edge must flip a's
        // membership in the source side of the cut.
        let mut g = FlowNetwork::new(3);
        let sa = g.add_edge(0, 1, 5.0);
        let at = g.add_edge(1, 2, 5.0);
        g.max_flow(0, 2);
        assert!(!g.residual_reachable_from_source()[1], "s→a saturated");
        g.set_capacity(sa, 8.0);
        g.resume_max_flow(0, 2);
        assert!(g.residual_reachable_from_source()[1], "slack on s→a now");
        assert!(g.is_saturated(at));
        // Choke a→t below its flow and solve again: a→t is the cut now.
        g.set_capacity(at, 1.0);
        let v = g.max_flow(0, 2);
        assert!((v - 1.0).abs() < 1e-12);
        assert_eq!(g.min_cut_edges(), vec![at]);
    }

    #[test]
    fn set_capacity_before_any_solve_just_reparameterizes() {
        let (mut g, ids) = clrs();
        g.set_capacity(ids[0], 2.0);
        assert!((g.max_flow(0, 5) - cold_value(&g, 0, 5)).abs() < 1e-12);
    }

    /// Residual reachability from node 0, the source of every solve here,
    /// by a full BFS over the edge list, independent of the CSR and the
    /// kept levels.
    fn full_bfs(g: &FlowNetwork) -> Vec<bool> {
        let mut seen = vec![false; g.num_nodes];
        seen[0] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for id in 0..g.to.len() {
                let (u, v) = (g.to[id ^ 1] as usize, g.to[id] as usize);
                if seen[u] && !seen[v] && g.cap[id] > g.eps[id] {
                    seen[v] = true;
                    grew = true;
                }
            }
        }
        seen
    }

    /// The source side is read from a solve's last BFS, so a query after
    /// an edge change, with no solve in between, is refused.
    #[test]
    #[should_panic(expected = "reachability is read from the last solve")]
    fn reachability_after_an_edge_change_is_refused() {
        // s → a → t, both edges saturated by the max flow: a is cut off.
        let mut g = FlowNetwork::new(3);
        let sa = g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 5.0);
        assert_eq!(g.max_flow(0, 2), 5.0);
        assert_eq!(g.residual_reachable_from_source(), [true, false, false]);
        g.set_capacity(sa, 8.0);
        g.residual_reachable_from_source();
    }

    /// On a network where the sink is found long before the BFS could
    /// finish, the early-exit phases still end in a kept side equal to a
    /// full BFS, for cold and resumed solves alike.
    #[test]
    fn kept_side_equals_a_full_bfs_after_cold_and_resumed_solves() {
        let (mut g, ids) = clrs();
        g.max_flow(0, 5);
        assert_eq!(g.residual_reachable_from_source(), full_bfs(&g));
        g.set_capacity(ids[9], 10.0);
        g.resume_max_flow(0, 5);
        assert_eq!(g.residual_reachable_from_source(), full_bfs(&g));

        let (jobs, ivals) = (60usize, 20usize);
        let t = 1 + jobs + ivals;
        let mut g = FlowNetwork::new(t + 1);
        let src: Vec<EdgeId> = (0..jobs).map(|i| g.add_edge(0, 1 + i, 1.0)).collect();
        for i in 0..jobs {
            for j in (0..ivals).filter(|j| (i + j) % 3 == 0) {
                g.add_edge(1 + i, 1 + jobs + j, 0.5);
            }
        }
        for j in 0..ivals {
            g.add_edge(1 + jobs + j, t, 2.0 + j as f64 * 0.25);
        }
        g.max_flow(0, t);
        let side = g.residual_reachable_from_source();
        assert_eq!(side, full_bfs(&g));
        assert!(side.iter().any(|&b| b) && !side[t]);
        for (i, &e) in src.iter().enumerate() {
            g.set_capacity(e, 1.0 + (i % 4) as f64 * 0.5);
        }
        g.resume_max_flow(0, t);
        assert_eq!(g.residual_reachable_from_source(), full_bfs(&g));
    }

    #[test]
    fn large_layered_network_is_fast_and_exact() {
        // 200 jobs × 50 intervals bipartite-ish WAP-shaped graph.
        let (jobs, ivals) = (200usize, 50usize);
        let s = 0usize;
        let t = 1 + jobs + ivals;
        let mut g = FlowNetwork::new(t + 1);
        for i in 0..jobs {
            g.add_edge(s, 1 + i, 1.0);
        }
        for i in 0..jobs {
            for j in 0..ivals {
                if (i + j) % 3 == 0 {
                    g.add_edge(1 + i, 1 + jobs + j, 0.5);
                }
            }
        }
        for j in 0..ivals {
            g.add_edge(1 + jobs + j, t, 4.0);
        }
        let v = g.max_flow(s, t);
        assert!(v > 0.0 && v <= jobs as f64);
        // Value equals min-cut capacity.
        let cut_cap: f64 = g.min_cut_edges().iter().map(|&e| g.capacity(e)).sum();
        assert!((cut_cap - v).abs() < 1e-6);
    }

    /// Set every `s_edges` edge to capacity `cap` and solve `g` again.
    fn resolve(g: &mut FlowNetwork, s_edges: &[EdgeId], cap: f64) -> f64 {
        for &e in s_edges {
            g.set_capacity(e, cap);
        }
        g.max_flow(0, 5)
    }

    /// Cloning a solved network forks its flow: the clone is
    /// re-parameterized and solved independently, and solving the clone
    /// leaves the original's flow and residual structure bit-identical.
    #[test]
    fn clone_split_solves_are_independent_and_bit_identical() {
        let mut g = FlowNetwork::new(6);
        let s_edges: Vec<EdgeId> = (1..=3).map(|i| g.add_edge(0, i, 1.0)).collect();
        let mid: Vec<EdgeId> = (1..=3).map(|i| g.add_edge(i, 4, 0.8)).collect();
        let out = g.add_edge(4, 5, 2.0);
        g.max_flow(0, 5);
        let value0 = g.flow(out);
        let flows0: Vec<u64> = mid.iter().map(|&e| g.flow(e).to_bits()).collect();

        // Fork two clones and re-parameterize them differently.
        let mut a = g.clone();
        let mut b = g.clone();
        let va = resolve(&mut a, &s_edges, 0.4);
        let vb = resolve(&mut b, &s_edges, 1.5);
        assert!((va - 1.2).abs() < 1e-9, "clone a value {va}");
        assert!((vb - 2.0).abs() < 1e-9, "clone b value {vb}");

        // The original is untouched, bit for bit.
        assert_eq!(g.flow(out).to_bits(), value0.to_bits());
        let flows_after: Vec<u64> = mid.iter().map(|&e| g.flow(e).to_bits()).collect();
        assert_eq!(flows_after, flows0);
        assert_eq!(g.capacity(out).to_bits(), 2.0f64.to_bits());
        // And identical clones solve to identical flows (determinism).
        let mut c = g.clone();
        let mut d = g.clone();
        assert_eq!(
            resolve(&mut c, &s_edges, 0.5).to_bits(),
            resolve(&mut d, &s_edges, 0.5).to_bits()
        );
        for &e in &mid {
            assert_eq!(c.flow(e).to_bits(), d.flow(e).to_bits());
        }
    }
}
