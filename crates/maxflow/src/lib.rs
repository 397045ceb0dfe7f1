//! # ssp-maxflow
//!
//! A max-flow / min-cut engine tailored to the flow formulations used in
//! speed-scaled scheduling:
//!
//! * feasibility of `P|r_j, d_j, pmtn|−` (the *Work Assignment Problem*): a
//!   three-layer network `source → jobs → intervals → sink`;
//! * the splits of the migratory optimum's decomposition, which need
//!   *residual-reachability* queries (BFS from the source after a max flow
//!   identifies the "upstream" side of every minimum cut);
//! * the final schedule construction, which reads per-edge flows back as
//!   per-interval time allotments.
//!
//! The engine is Dinic's algorithm over `f64` capacities with an explicit
//! epsilon (capacities in this workspace are times/works, inherently real).
//! It has **one warm start**: [`FlowNetwork::resume_max_flow`] augments
//! whatever valid flow the edges carry to a maximum one instead of solving
//! from scratch. The caller loads that flow — seeded edge by edge with
//! [`FlowNetwork::set_flow`], or a solved flow carried to new capacities
//! with [`FlowNetwork::set_capacity`] (which clamps and reports the
//! overflow) and [`FlowNetwork::cancel_path`] (which cancels it along a
//! path) — and keeps it conserving, since only the caller knows the
//! network's shape. A uniform-speed bisection (the minimum peak speed) runs
//! dozens of solves over one WAP network this way. A slow exact
//! integer Edmonds–Karp reference lives in [`mod@reference`], and property
//! tests check Dinic against it and against the min-cut certificate on
//! random graphs (see also the root-level `tests/flow_differential.rs`
//! suite).
//!
//! The scheduling networks are *layered* (longest path ≤ 4 edges), where
//! Dinic's blocking-flow phases terminate very quickly in practice; `f(n)` in
//! the paper's complexity statements is exactly this primitive. For the
//! WAP shape specifically, [`mod@sweep`] decides feasibility without any
//! flow search at all: the consecutive-ones structure of the alive sets
//! admits an `O(n log n)` deadline-ordered water-filling sweep whose value
//! and canonical min-cut side match Dinic bit for bit in the quantities
//! downstream consumers read (verdicts, cut sides, cut sums).

#![warn(missing_docs)]

pub mod graph;
pub mod reference;
pub mod sweep;

pub use graph::{EdgeId, FlowNetwork};
pub use sweep::SweepFlow;

#[cfg(test)]
mod cross_tests {
    use crate::graph::FlowNetwork;
    use crate::reference::IntFlowNetwork;
    use ssp_prng::{check, Rng, StdRng};

    /// Build the same random graph in both engines and compare values.
    fn roundtrip(n: usize, edges: &[(usize, usize, u32)]) -> (f64, u64) {
        let mut real = FlowNetwork::new(n);
        let mut exact = IntFlowNetwork::new(n);
        for &(u, v, c) in edges {
            real.add_edge(u, v, c as f64);
            exact.add_edge(u, v, c as u64);
        }
        let f_real = real.max_flow(0, n - 1);
        let f_exact = exact.max_flow(0, n - 1);
        (f_real, f_exact)
    }

    /// Draw a random graph shape shared by the two properties below.
    fn random_graph(rng: &mut StdRng) -> (usize, Vec<(usize, usize, u32)>) {
        let n = rng.gen_range(2usize..9);
        let edges = check::vec_of(rng, 0..40, |r| {
            (
                r.gen_range(0usize..8),
                r.gen_range(0usize..8),
                r.gen_range(0u32..64),
            )
        })
        .into_iter()
        .filter(|&(u, v, _)| u < n && v < n && u != v)
        .collect();
        (n, edges)
    }

    /// Dinic over f64 must agree exactly with integer Ford–Fulkerson on
    /// integer capacities (values below 2^32 are exact in f64).
    #[test]
    fn dinic_matches_integer_reference() {
        check::cases(64, 0xD1_41C, |rng| {
            let (n, edges) = random_graph(rng);
            let (f_real, f_exact) = roundtrip(n, &edges);
            assert!(
                (f_real - f_exact as f64).abs() < 1e-6,
                "dinic {f_real} vs exact {f_exact}"
            );
        });
    }

    /// Min-cut capacity equals max-flow value (strong duality), and the
    /// source side returned by `residual_reachable_from_source` is a
    /// valid cut certificate. Also checks flow conservation at inner
    /// nodes.
    #[test]
    fn min_cut_certifies_max_flow() {
        check::cases(64, 0xC07, |rng| {
            let (n, edges) = random_graph(rng);
            let mut net = FlowNetwork::new(n);
            let ids: Vec<_> = edges
                .iter()
                .map(|&(u, v, c)| net.add_edge(u, v, c as f64))
                .collect();
            let value = net.max_flow(0, n - 1);
            let source_side = net.residual_reachable_from_source();
            assert!(source_side[0]);
            if value > 0.0 || edges.iter().any(|&(u, _, c)| u == 0 && c > 0) {
                // The sink is separated whenever a max flow exists (it always
                // does; value may be 0 when no s-t path has capacity).
                assert!(!source_side[n - 1]);
            }
            // Capacity of the cut = sum of caps of edges from X to Y.
            let cut_cap: f64 = edges
                .iter()
                .filter(|&&(u, v, _)| source_side[u] && !source_side[v])
                .map(|&(_, _, c)| c as f64)
                .sum();
            assert!(
                (cut_cap - value).abs() < 1e-6,
                "cut {cut_cap} vs flow {value}"
            );
            // Flow conservation at inner nodes.
            for node in 1..n - 1 {
                let mut balance = 0.0;
                for (&(u, v, _), &id) in edges.iter().zip(&ids) {
                    let f = net.flow(id);
                    if v == node {
                        balance += f;
                    }
                    if u == node {
                        balance -= f;
                    }
                }
                assert!(balance.abs() < 1e-6, "node {node} imbalance {balance}");
            }
        });
    }
}
