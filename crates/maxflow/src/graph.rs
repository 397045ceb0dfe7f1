//! Dinic's max-flow over `f64` capacities, with residual-reachability
//! queries, per-edge flow readback, and **parametric warm restarts**:
//! [`FlowNetwork::set_capacity`] re-parameterizes an edge while keeping the
//! stored flow valid, and [`FlowNetwork::max_flow_incremental`] repairs the
//! previous maximum flow instead of recomputing it from scratch — the
//! primitive behind the warm-started BAL bisection (see
//! `DESIGN.md` §"Parametric max-flow").
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

/// A per-node drain budget during [`FlowNetwork::repair`]: the node's
/// recorded surplus, consumed as repair passes route it away.
#[derive(Debug, Clone, Copy)]
struct Budget {
    node: usize,
    /// Remaining un-drained amount.
    rem: f64,
    /// Exhaustion threshold (`initial · EDGE_EPS_REL`), fixed at collection
    /// exactly like a helper edge's epsilon would be at `add_edge`.
    eps: f64,
}

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
    /// Source of the last `max_flow` call (for reachability queries).
    last_source: Option<usize>,
    /// Sink of the last `max_flow` call.
    last_sink: Option<usize>,
    /// Value of the flow currently stored on the edges.
    flow_value: f64,
    /// Set when a drain could not fully repair the stored flow (see
    /// [`FlowNetwork::set_capacity`]); forces the next incremental solve to
    /// fall back to a cold rebuild.
    needs_rebuild: bool,
    // Scratch buffers reused across blocking-flow phases.
    level: Vec<i32>,
    /// Per-node DFS cursor: an absolute index into `csr_edges`, running to
    /// `csr_start[u+1]` (one past, for the virtual drain edge — see
    /// [`FlowNetwork::repair`]).
    iter: Vec<u32>,
    /// Per-node conservation imbalance (inflow − outflow) accumulated by
    /// draining [`FlowNetwork::set_capacity`] calls, repaired lazily by the
    /// next [`FlowNetwork::max_flow_incremental`]. Positive = surplus.
    imbalance: Vec<f64>,
    /// Nodes with a recorded imbalance (sparse index into `imbalance`).
    dirty: Vec<usize>,
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
            last_source: None,
            last_sink: None,
            flow_value: 0.0,
            needs_rebuild: false,
            level: vec![-1; n],
            iter: vec![0; n],
            imbalance: vec![0.0; n],
            dirty: Vec::new(),
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

    /// Fresh CSR adjacency ignoring (not updating) the cached one — the
    /// slow path for `&self` queries issued while the cache is stale.
    fn build_csr_fresh(&self) -> (Vec<u32>, Vec<u32>) {
        let n = self.num_nodes;
        let mut start = vec![0u32; n + 1];
        for id in 0..self.to.len() {
            start[self.to[id ^ 1] as usize + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut cursor: Vec<u32> = start[..n].to_vec();
        let mut edges = vec![0u32; self.to.len()];
        for id in 0..self.to.len() {
            let u = self.to[id ^ 1] as usize;
            edges[cursor[u] as usize] = id as u32;
            cursor[u] += 1;
        }
        (start, edges)
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
        assert!(
            s < self.num_nodes && t < self.num_nodes,
            "terminal out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        self.ensure_csr();
        self.cap.copy_from_slice(&self.orig);
        for &u in &self.dirty {
            self.imbalance[u] = 0.0;
        }
        self.dirty.clear();
        self.last_source = Some(s);
        self.last_sink = Some(t);
        self.needs_rebuild = false;
        let (added, phases, augmentations) = self.dinic_augment(s, t);
        self.flow_value = added;
        ssp_probe::counter!("maxflow.dinic.runs");
        ssp_probe::counter!("maxflow.dinic.phases", phases);
        ssp_probe::counter!("maxflow.dinic.augmentations", augmentations);
        ssp_probe::counter!("maxflow.rebuild");
        self.flow_value
    }

    /// Augment the *current* residual graph to a blocking state repeatedly
    /// (the Dinic phase loop). Returns `(value added, phases, augmenting
    /// paths)` on top of whatever flow the edges already carry; callers flush
    /// the counts to the probe counters that fit their context. Shared by
    /// cold solves, warm solves, and the drain-repair passes.
    fn dinic_augment(&mut self, s: usize, t: usize) -> (f64, u64, u64) {
        let mut added = 0.0;
        let (mut phases, mut augmentations) = (0u64, 0u64);
        loop {
            self.build_levels(&[s]);
            if self.level[t] < 0 {
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

    /// Value of the flow currently stored on the edges, as of the last solve
    /// (cold or incremental). Draining [`set_capacity`] calls made since are
    /// reflected at the *next* [`max_flow_incremental`], which repairs the
    /// flow and recomputes the value exactly from the source's edges.
    ///
    /// [`set_capacity`]: FlowNetwork::set_capacity
    /// [`max_flow_incremental`]: FlowNetwork::max_flow_incremental
    pub fn flow_value(&self) -> f64 {
        self.flow_value
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
    }

    /// Run Dinic *without* resetting the carried flow: augment whatever the
    /// edges currently hold (a flow seeded via
    /// [`set_flow`](FlowNetwork::set_flow)) to maximality and return the
    /// exact source outflow. The caller guarantees the carried flow is
    /// valid — within capacities and conserving at every non-terminal; any
    /// pending [`set_capacity`](FlowNetwork::set_capacity) imbalance
    /// records are discarded, since the seeded flow supersedes them.
    pub fn resume_max_flow(&mut self, s: usize, t: usize) -> f64 {
        assert!(
            s < self.num_nodes && t < self.num_nodes,
            "terminal out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        self.ensure_csr();
        for &u in &self.dirty {
            self.imbalance[u] = 0.0;
        }
        self.dirty.clear();
        self.last_source = Some(s);
        self.last_sink = Some(t);
        self.needs_rebuild = false;
        let (_, phases, augmentations) = self.dinic_augment(s, t);
        self.flow_value = self.net_source_flow(s);
        ssp_probe::counter!("maxflow.dinic.seeded_resumes");
        ssp_probe::counter!("maxflow.dinic.phases", phases);
        ssp_probe::counter!("maxflow.dinic.augmentations", augmentations);
        self.flow_value
    }

    /// Re-parameterize a forward edge to capacity `cap`.
    ///
    /// * **Increase / slack decrease** — only the residual widens or
    ///   narrows; the stored flow is untouched.
    /// * **Decrease below the carried flow** — the edge's flow is clamped to
    ///   `cap` and the overflow is recorded as a per-node conservation
    ///   imbalance (a surplus at the tail, a shortfall at the head). The
    ///   next [`max_flow_incremental`] *drains* all recorded overflow in one
    ///   batched repair before resuming augmentation — deferring the drain
    ///   is what makes a bisection probe that shrinks hundreds of source
    ///   edges cost a constant number of level-graph passes rather than a
    ///   residual search per edge.
    ///
    /// Flows produced by augmenting-path solvers decompose into source→sink
    /// paths, for which the drain always succeeds; if numerical slivers ever
    /// leave it short, the network is flagged and the next incremental solve
    /// silently falls back to a cold rebuild.
    ///
    /// [`max_flow_incremental`]: FlowNetwork::max_flow_incremental
    pub fn set_capacity(&mut self, e: EdgeId, cap: f64) {
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and >= 0, got {cap}"
        );
        let id = e.0;
        let flow = (self.orig[id] - self.cap[id]).max(0.0);
        let eps = cap * EDGE_EPS_REL;
        self.orig[id] = cap;
        self.eps[id] = eps;
        self.eps[id ^ 1] = eps;
        if flow <= cap {
            self.cap[id] = cap - flow;
            return;
        }
        // Clamp the flow to the new capacity; the edge becomes saturated.
        self.cap[id] = 0.0;
        self.cap[id ^ 1] = cap;
        let u = self.to[id ^ 1] as usize;
        let v = self.to[id] as usize;
        if u != v {
            // Self-loop flow never affected conservation or the value.
            let excess = flow - cap;
            self.record_imbalance(u, excess);
            self.record_imbalance(v, -excess);
        }
    }

    /// Record that `node`'s conservation balance changed by `delta`.
    fn record_imbalance(&mut self, node: usize, delta: f64) {
        if self.imbalance[node] == 0.0 {
            self.dirty.push(node);
        }
        self.imbalance[node] += delta;
    }

    /// Drain all recorded overflow in one batched repair, restoring
    /// conservation at every non-terminal node.
    ///
    /// Conceptually a super-source feeds each surplus node its excess and a
    /// super-sink absorbs each shortfall node's deficit; three Dinic passes
    /// fix the pseudo-flow:
    ///
    /// 1. surplus → shortfall: reroute excess into shortfalls through the
    ///    residual graph (value-preserving; covers cycle flow and alternate
    ///    routes);
    /// 2. surplus → `s`: cancel un-reroutable surplus back along the flow
    ///    that fed it;
    /// 3. `t` → shortfall: cancel each remaining shortfall's downstream
    ///    flow from the sink side.
    ///
    /// Unlike the old implementation this never materializes the super
    /// nodes: the budgets live in side arrays, the BFS seeds every
    /// budget-positive surplus node at level 0, and the DFS treats a node
    /// with remaining shortfall budget at the virtual sink level as one
    /// extra adjacency slot (so the CSR layout is never invalidated by a
    /// repair). Helper reverse residuals are frozen *by construction* — a
    /// later pass cannot undo an earlier pass's repair because budget slots
    /// have no traversable reverse direction. Any leftover budget beyond
    /// tolerance flags the network for a cold rebuild; the caller recomputes
    /// the flow value from the source's edges (conservation everywhere else
    /// makes the s- and t-side values agree automatically).
    fn repair(&mut self, s: usize, t: usize) {
        let dirty = std::mem::take(&mut self.dirty);
        let mut sources: Vec<Budget> = Vec::new();
        let mut sinks: Vec<Budget> = Vec::new();
        let mut total = 0.0;
        for &u in &dirty {
            let b = self.imbalance[u];
            self.imbalance[u] = 0.0;
            // Terminals are exempt: their imbalance *is* the value change,
            // recomputed from the edges afterwards.
            if u == s || u == t || b == 0.0 {
                continue;
            }
            total += b.abs();
            let budget = Budget {
                node: u,
                rem: b.abs(),
                eps: b.abs() * EDGE_EPS_REL,
            };
            if b > 0.0 {
                sources.push(budget);
            } else {
                sinks.push(budget);
            }
        }
        let mut drain_paths = 0u64;
        if !sources.is_empty() && !sinks.is_empty() {
            drain_paths += self.drain_pass(Some(&mut sources), s, Some(&mut sinks), t, true);
        }
        if !sources.is_empty() {
            // Virtual sources to the real source node `s`.
            drain_paths += self.drain_pass(Some(&mut sources), s, None, s, false);
        }
        if !sinks.is_empty() {
            // The real sink node `t` to the virtual sinks.
            drain_paths += self.drain_pass(None, t, Some(&mut sinks), t, true);
        }
        let shortfall: f64 = sources
            .iter()
            .chain(&sinks)
            .map(|b| if b.rem > b.eps { b.rem } else { 0.0 })
            .sum();
        if shortfall > total * 1e-9 + 1e-12 {
            self.needs_rebuild = true;
        }
        ssp_probe::counter!("maxflow.dinic.drain_paths", drain_paths);
    }

    /// One Dinic sub-solve of [`FlowNetwork::repair`]: from virtual budgeted
    /// sources (or the single real node `real_s`) to virtual budgeted sinks
    /// (or the single real node `real_t`, when `virtual_sink` is false).
    /// Returns the number of augmenting paths.
    fn drain_pass(
        &mut self,
        mut sources: Option<&mut Vec<Budget>>,
        real_s: usize,
        mut sinks: Option<&mut Vec<Budget>>,
        real_t: usize,
        virtual_sink: bool,
    ) -> u64 {
        let mut augmentations = 0u64;
        // Dense sink-budget view for O(1) lookup inside the DFS.
        let (mut sink_rem, mut sink_eps) = (Vec::new(), Vec::new());
        if virtual_sink {
            sink_rem = vec![0.0; self.num_nodes];
            sink_eps = vec![f64::INFINITY; self.num_nodes];
            for b in sinks.as_deref().unwrap() {
                sink_rem[b.node] = b.rem;
                sink_eps[b.node] = b.eps;
            }
        }
        loop {
            // Level graph from the (virtual or real) source side.
            match sources.as_deref() {
                Some(srcs) => {
                    let seeds: Vec<usize> = srcs
                        .iter()
                        .filter(|b| b.rem > b.eps)
                        .map(|b| b.node)
                        .collect();
                    if seeds.is_empty() {
                        break;
                    }
                    self.build_levels(&seeds);
                }
                None => self.build_levels(&[real_s]),
            }
            // Virtual sink level: one past the closest budget-positive sink.
            let vt = if virtual_sink {
                let min_level = sinks
                    .as_deref()
                    .unwrap()
                    .iter()
                    .filter(|b| b.rem > b.eps && self.level[b.node] >= 0)
                    .map(|b| self.level[b.node])
                    .min();
                match min_level {
                    Some(l) => l + 1,
                    None => break,
                }
            } else {
                if self.level[real_t] < 0 {
                    break;
                }
                self.level[real_t]
            };
            let before = augmentations;
            self.reset_cursors();
            match sources.as_deref_mut() {
                Some(srcs) => {
                    for b in srcs.iter_mut() {
                        while b.rem > b.eps {
                            let pushed = if virtual_sink {
                                self.blocking_dfs_vsink(b.node, vt, b.rem, &mut sink_rem, &sink_eps)
                            } else {
                                self.blocking_dfs(b.node, real_t, b.rem)
                            };
                            if pushed <= 0.0 {
                                break;
                            }
                            b.rem -= pushed;
                            augmentations += 1;
                        }
                    }
                }
                None => loop {
                    let pushed = self.blocking_dfs_vsink(
                        real_s,
                        vt,
                        f64::INFINITY,
                        &mut sink_rem,
                        &sink_eps,
                    );
                    if pushed <= 0.0 {
                        break;
                    }
                    augmentations += 1;
                },
            }
            ssp_probe::histogram!(
                "maxflow.dinic.path_len",
                vt.max(0) as u64,
                augmentations - before
            );
            if augmentations == before {
                // A blocking phase that found no path: the remaining budget
                // is unreachable; the shortfall check decides what it means.
                break;
            }
            // Write the consumed budgets back for the next level rebuild.
            if let Some(sks) = sinks.as_deref_mut() {
                for b in sks.iter_mut() {
                    b.rem = sink_rem[b.node];
                }
            }
        }
        augmentations
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

    /// Recompute a maximum `s → t` flow *warm*: repair the stored flow if
    /// draining [`set_capacity`] calls left recorded overflow, then augment
    /// from the residual graph. Any valid flow extends to a maximum one by
    /// augmenting its residual, so this returns the same value as a cold
    /// [`max_flow`] while doing work proportional to the *change*.
    ///
    /// Falls back to a cold solve when the terminals differ from the last
    /// solve, no solve has run yet, or a drain repair fell short.
    ///
    /// [`set_capacity`]: FlowNetwork::set_capacity
    /// [`max_flow`]: FlowNetwork::max_flow
    pub fn max_flow_incremental(&mut self, s: usize, t: usize) -> f64 {
        assert!(
            s < self.num_nodes && t < self.num_nodes,
            "terminal out of range"
        );
        assert_ne!(s, t, "source and sink must differ");
        if self.needs_rebuild || self.last_source != Some(s) || self.last_sink != Some(t) {
            return self.max_flow(s, t);
        }
        self.ensure_csr();
        if !self.dirty.is_empty() {
            self.repair(s, t);
            if self.needs_rebuild {
                return self.max_flow(s, t);
            }
        }
        let (_, phases, augmentations) = self.dinic_augment(s, t);
        ssp_probe::counter!("maxflow.dinic.phases", phases);
        ssp_probe::counter!("maxflow.dinic.augmentations", augmentations);
        ssp_probe::counter!("maxflow.warm_reuse");
        self.flow_value = self.net_source_flow(s);
        self.flow_value
    }

    /// BFS on the residual graph from `seeds` (all at level 0), building the
    /// level structure. The caller must have ensured the CSR is fresh.
    fn build_levels(&mut self, seeds: &[usize]) {
        self.level.iter_mut().for_each(|l| *l = -1);
        let mut queue = std::collections::VecDeque::new();
        for &s in seeds {
            if self.level[s] < 0 {
                self.level[s] = 0;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for idx in self.csr_start[u]..self.csr_start[u + 1] {
                let ei = self.csr_edges[idx as usize] as usize;
                let v = self.to[ei] as usize;
                if self.cap[ei] > self.eps[ei] && self.level[v] < 0 {
                    self.level[v] = self.level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
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

    /// [`FlowNetwork::blocking_dfs`] against the virtual budgeted sink of a
    /// repair pass: a node with remaining sink budget at level `vt - 1`
    /// carries one extra adjacency slot (cursor position `csr_start[u+1]`)
    /// that absorbs flow into its budget instead of an edge.
    fn blocking_dfs_vsink(
        &mut self,
        u: usize,
        vt: i32,
        limit: f64,
        sink_rem: &mut [f64],
        sink_eps: &[f64],
    ) -> f64 {
        while self.iter[u] < self.csr_start[u + 1] {
            let ei = self.csr_edges[self.iter[u] as usize] as usize;
            let (to, cap, eps) = (self.to[ei] as usize, self.cap[ei], self.eps[ei]);
            if cap > eps && self.level[to] == self.level[u] + 1 {
                let pushed = self.blocking_dfs_vsink(to, vt, limit.min(cap), sink_rem, sink_eps);
                if pushed > 0.0 {
                    self.cap[ei] -= pushed;
                    self.cap[ei ^ 1] += pushed;
                    return pushed;
                }
            }
            self.iter[u] += 1;
        }
        if self.iter[u] == self.csr_start[u + 1] {
            if self.level[u] + 1 == vt && sink_rem[u] > sink_eps[u] {
                let take = limit.min(sink_rem[u]);
                sink_rem[u] -= take;
                // Keep the cursor on the budget slot: it may absorb the
                // next path too.
                return take;
            }
            self.iter[u] += 1; // budget exhausted or inadmissible
        }
        0.0
    }

    /// Nodes reachable from the source of the last `max_flow` call in the
    /// residual graph. After a max flow, this is the source side `X` of the
    /// canonical minimum cut, and precisely the set of *upstream* nodes
    /// (nodes on the source side of **every** minimum cut).
    pub fn residual_reachable_from_source(&self) -> Vec<bool> {
        let s = self.last_source.expect("call max_flow first");
        let storage;
        let (start, edges): (&[u32], &[u32]) = if self.csr_stale {
            storage = self.build_csr_fresh();
            (&storage.0, &storage.1)
        } else {
            (&self.csr_start, &self.csr_edges)
        };
        let mut seen = vec![false; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        seen[s] = true;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for idx in start[u]..start[u + 1] {
                let ei = edges[idx as usize] as usize;
                let v = self.to[ei] as usize;
                if self.cap[ei] > self.eps[ei] && !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// The minimum-cut edges of the last `max_flow` call: forward edges from
    /// the residual-reachable side to the rest. Their capacities sum to the
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
        // Widen the (4,5) sink edge: 4.0 → 10.0 opens more throughput.
        g.set_capacity(ids[9], 10.0);
        let warm = g.max_flow_incremental(0, 5);
        assert!((warm - cold_value(&g, 0, 5)).abs() < 1e-9);
        assert!(warm > 23.0);
        assert!((g.flow_value() - warm).abs() < 1e-12);
    }

    #[test]
    fn warm_decrease_drains_overflow() {
        let (mut g, ids) = clrs();
        g.max_flow(0, 5);
        // Choke the (3,5) edge far below the ~19 units it carries.
        g.set_capacity(ids[8], 2.0);
        let warm = g.max_flow_incremental(0, 5);
        assert!((warm - cold_value(&g, 0, 5)).abs() < 1e-9);
        assert!((warm - 6.0).abs() < 1e-9, "cut is 2.0 + 4.0, got {warm}");
        assert!(g.flow(ids[8]) <= 2.0 + 1e-12);
    }

    #[test]
    fn warm_matches_cold_through_update_sequence() {
        let (mut g, ids) = clrs();
        g.max_flow(0, 5);
        let updates = [
            (0usize, 4.0), // shrink s→1 below its flow
            (9, 9.0),      // widen 4→5
            (6, 3.0),      // shrink 2→4
            (0, 16.0),     // restore s→1
            (8, 11.0),     // shrink 3→5
            (1, 20.0),     // widen s→2
        ];
        for &(k, cap) in &updates {
            g.set_capacity(ids[k], cap);
            let warm = g.max_flow_incremental(0, 5);
            let cold = cold_value(&g, 0, 5);
            assert!(
                (warm - cold).abs() < 1e-9,
                "after set_capacity(#{k}, {cap}): warm {warm} != cold {cold}"
            );
            assert!((g.flow_value() - warm).abs() < 1e-12);
        }
    }

    #[test]
    fn drain_to_zero_empties_the_flow() {
        let (mut g, ids) = clrs();
        g.max_flow(0, 5);
        g.set_capacity(ids[0], 0.0);
        g.set_capacity(ids[1], 0.0);
        let warm = g.max_flow_incremental(0, 5);
        assert!(warm.abs() < 1e-9);
        assert!(g.flow_value().abs() < 1e-9);
        // The clamped edges must be empty; elsewhere a zero-value
        // circulation may legitimately remain (it is still a valid flow),
        // but every edge must respect its capacity.
        assert!(g.flow(ids[0]) < 1e-12);
        assert!(g.flow(ids[1]) < 1e-12);
        for &id in &ids {
            assert!(g.flow(id) <= g.capacity(id) + 1e-12);
        }
    }

    #[test]
    fn min_cut_valid_after_incremental_updates() {
        let (mut g, ids) = clrs();
        g.max_flow(0, 5);
        g.set_capacity(ids[8], 5.0);
        g.set_capacity(ids[9], 2.0);
        let warm = g.max_flow_incremental(0, 5);
        // The canonical min cut must certify the warm flow exactly as it
        // would a cold one: capacities sum to the value, every cut edge is
        // saturated, and the sink stays unreachable.
        let cut = g.min_cut_edges();
        let cap: f64 = cut.iter().map(|&e| g.capacity(e)).sum();
        assert!((cap - warm).abs() < 1e-9, "cut {cap} != warm value {warm}");
        for e in cut {
            assert!(g.is_saturated(e));
        }
        let side = g.residual_reachable_from_source();
        assert!(side[0] && !side[5]);
    }

    #[test]
    fn residual_reachability_flips_with_capacity() {
        // s → a → t: saturating and unsaturating the middle edge must flip
        // a's membership in the source side of the cut.
        let mut g = FlowNetwork::new(3);
        let sa = g.add_edge(0, 1, 5.0);
        let at = g.add_edge(1, 2, 5.0);
        g.max_flow(0, 2);
        assert!(!g.residual_reachable_from_source()[1], "s→a saturated");
        g.set_capacity(sa, 8.0);
        g.max_flow_incremental(0, 2);
        assert!(g.residual_reachable_from_source()[1], "slack on s→a now");
        assert!(g.is_saturated(at));
        g.set_capacity(at, 1.0);
        let v = g.max_flow_incremental(0, 2);
        assert!((v - 1.0).abs() < 1e-12);
        assert_eq!(g.min_cut_edges(), vec![at]);
    }

    #[test]
    fn incremental_with_new_terminals_falls_back_cold() {
        let (mut g, _) = clrs();
        g.max_flow(0, 5);
        // Different terminals: must not try to reuse the stored flow.
        let v = g.max_flow_incremental(0, 3);
        assert!((v - cold_value(&g, 0, 3)).abs() < 1e-9);
    }

    #[test]
    fn incremental_without_prior_solve_is_cold() {
        let (mut g, _) = clrs();
        let v = g.max_flow_incremental(0, 5);
        assert!((v - 23.0).abs() < 1e-9);
    }

    #[test]
    fn set_capacity_before_any_solve_just_reparameterizes() {
        let (mut g, ids) = clrs();
        g.set_capacity(ids[0], 2.0);
        assert!((g.max_flow(0, 5) - cold_value(&g, 0, 5)).abs() < 1e-12);
    }

    #[test]
    fn queries_survive_edges_added_after_a_solve() {
        // Adding an edge staleness-marks the CSR; `&self` reachability
        // queries must still answer (over the up-to-date topology) without
        // a solve in between.
        let (mut g, _) = clrs();
        g.max_flow(0, 5);
        let before = g.residual_reachable_from_source();
        g.add_edge(0, 4, 0.0); // zero-cap: reachability unchanged
        let after = g.residual_reachable_from_source();
        assert_eq!(before, after);
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

    /// Cloning a solved network forks the parametric state: the clone warm
    /// repairs independently, and solving the clone leaves the original's
    /// flow, value, and residual structure bit-identical. This is the
    /// contract the parallel probe ladder relies on (one probe per clone).
    #[test]
    fn clone_split_solves_are_independent_and_bit_identical() {
        let mut g = FlowNetwork::new(6);
        let s_edges: Vec<EdgeId> = (1..=3).map(|i| g.add_edge(0, i, 1.0)).collect();
        let mid: Vec<EdgeId> = (1..=3).map(|i| g.add_edge(i, 4, 0.8)).collect();
        let out = g.add_edge(4, 5, 2.0);
        g.max_flow(0, 5);
        let value0 = g.flow_value();
        let flows0: Vec<u64> = mid.iter().map(|&e| g.flow(e).to_bits()).collect();

        // Fork two clones and re-parameterize them differently.
        let mut a = g.clone();
        let mut b = g.clone();
        for &e in &s_edges {
            a.set_capacity(e, 0.4);
            b.set_capacity(e, 1.5);
        }
        let va = a.max_flow_incremental(0, 5);
        let vb = b.max_flow_incremental(0, 5);
        assert!((va - 1.2).abs() < 1e-9, "clone a value {va}");
        assert!((vb - 2.0).abs() < 1e-9, "clone b value {vb}");

        // The original is untouched, bit for bit.
        assert_eq!(g.flow_value().to_bits(), value0.to_bits());
        let flows_after: Vec<u64> = mid.iter().map(|&e| g.flow(e).to_bits()).collect();
        assert_eq!(flows_after, flows0);
        assert_eq!(g.capacity(out).to_bits(), 2.0f64.to_bits());
        // And identical clones repair to identical flows (determinism).
        let mut c = g.clone();
        let mut d = g.clone();
        for &e in &s_edges {
            c.set_capacity(e, 0.9);
            d.set_capacity(e, 0.9);
        }
        assert_eq!(
            c.max_flow_incremental(0, 5).to_bits(),
            d.max_flow_incremental(0, 5).to_bits()
        );
        for &e in &mid {
            assert_eq!(c.flow(e).to_bits(), d.flow(e).to_bits());
        }
    }
}
