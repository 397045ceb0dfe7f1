//! Differential tests for the flow kernels (tier-1, pinned seeds).
//!
//! Two independent oracles check every flow the production engine
//! computes on the same seeded random networks:
//!
//! * `FlowNetwork` — the production f64 Dinic engine — is checked against
//! * `IntFlowNetwork` — the exact integer Edmonds–Karp reference — on
//!   integer-valued (or integer after scaling) capacities, and against
//! * the min-cut certificate (`certify` below): the canonical cut's
//!   capacity equals the flow value, every cut edge is saturated, and flow
//!   is conserved at every inner node.
//!
//! On top of that, the engine's warm start must hold in the two ways the
//! WAP solver uses it: a forced-`Flow` solver that carries its flow along a
//! bisection's sequence of demands must match the exact reference and certify
//! at every step, and a flow seeded from the sweep's greedy allocation
//! must resume to the exact value. Above the engines, the WAP solver's
//! sweep-first dispatch must answer every solve of a demand sequence
//! exactly as the forced flow engine does.

use ssp_maxflow::reference::IntFlowNetwork;
use ssp_maxflow::{EdgeId, FlowNetwork, SweepFlow};
use ssp_migratory::wap::{Wap, WapKernel, WapSolver};
use ssp_prng::{check, Rng, StdRng};
use ssp_workloads::families;

/// A random directed graph: node count and edge list `(u, v, cap)` with
/// integer-valued f64 capacities (exact in both engines).
fn random_graph(rng: &mut StdRng) -> (usize, Vec<(usize, usize, f64)>) {
    let n = rng.gen_range(3usize..12);
    let edges = check::vec_of(rng, 1..60, |r| {
        (
            r.gen_range(0usize..12),
            r.gen_range(0usize..12),
            r.gen_range(0u32..100) as f64,
        )
    })
    .into_iter()
    .filter(|&(u, v, _)| u < n && v < n && u != v)
    .collect();
    (n, edges)
}

fn build_dinic(n: usize, edges: &[(usize, usize, f64)]) -> (FlowNetwork, Vec<EdgeId>) {
    let mut net = FlowNetwork::new(n);
    let ids = edges
        .iter()
        .map(|&(u, v, c)| net.add_edge(u, v, c))
        .collect();
    (net, ids)
}

/// Certify `value` as a max flow of `net`: the canonical cut's capacity
/// equals it, every cut edge is saturated, and per-node conservation holds
/// for the flow read back edge by edge.
fn certify(net: &FlowNetwork, edges: &[(usize, usize, f64)], ids: &[EdgeId], value: f64) {
    let side = net.residual_reachable_from_source();
    let n = side.len();
    assert!(side[0], "source on its own side");
    let cut = net.min_cut_edges();
    let cut_cap: f64 = cut.iter().map(|&e| net.flow(e) + net.residual(e)).sum();
    for &e in &cut {
        assert!(net.is_saturated(e), "cut edge with residual slack");
    }
    assert!(
        (cut_cap - value).abs() <= 1e-6 * (1.0 + value.abs()),
        "cut {cut_cap} vs flow {value}"
    );
    for node in 1..n - 1 {
        let mut balance = 0.0;
        for (&(u, v, _), &id) in edges.iter().zip(ids) {
            if v == node {
                balance += net.flow(id);
            }
            if u == node {
                balance -= net.flow(id);
            }
        }
        assert!(
            balance.abs() <= 1e-6 * (1.0 + value.abs()),
            "node {node} imbalance {balance}"
        );
    }
}

/// The exact `0 → t` max-flow value of `edges`: the integer reference run
/// on every capacity times `scale` (checked to be an integer), divided
/// back, so the oracle stays exact on fractional inputs.
fn exact_scaled(n: usize, t: usize, edges: &[(usize, usize, f64)], scale: f64) -> f64 {
    let mut exact = IntFlowNetwork::new(n);
    for &(u, v, c) in edges {
        let scaled = c * scale;
        assert_eq!(
            scaled.fract(),
            0.0,
            "capacity {c} is not on the 1/{scale} grid"
        );
        exact.add_edge(u, v, scaled as u64);
    }
    exact.max_flow(0, t) as f64 / scale
}

/// Dinic == exact integer reference on random networks, and every Dinic
/// flow passes the min-cut certificate.
#[test]
fn dinic_agrees_with_the_exact_reference_on_random_networks() {
    check::cases(96, 0xD1FF_0001, |rng| {
        let (n, edges) = random_graph(rng);
        let (s, t) = (0, n - 1);
        let (mut dinic, ids) = build_dinic(n, &edges);
        let f_dinic = dinic.max_flow(s, t);
        let f_exact = exact_scaled(n, t, &edges, 1.0);
        assert!(
            (f_dinic - f_exact).abs() < 1e-6,
            "dinic {f_dinic} vs exact {f_exact}"
        );
        certify(&dinic, &edges, &ids, f_dinic);
    });
}

/// A random contiguous-window WAP instance: per-job windows `(lo, hi)` over
/// `m` cells (occasionally empty), per-cell single-job edge caps, cell caps,
/// and job demands — all integer-valued so the exact reference applies.
struct WapShape {
    windows: Vec<(u32, u32)>,
    edge_cap: Vec<f64>,
    cell_cap: Vec<f64>,
    demands: Vec<f64>,
}

fn random_wap_shape(rng: &mut StdRng) -> WapShape {
    let m = rng.gen_range(2usize..8);
    let n = rng.gen_range(3usize..14);
    let windows = (0..n)
        .map(|_| {
            if rng.gen_range(0u32..12) == 0 {
                (1u32, 0u32) // alive nowhere
            } else {
                let lo = rng.gen_range(0u32..m as u32);
                let hi = rng.gen_range(lo..m as u32);
                (lo, hi)
            }
        })
        .collect();
    let cell_cap: Vec<f64> = (0..m).map(|_| rng.gen_range(0u32..10) as f64).collect();
    let edge_cap = cell_cap
        .iter()
        .map(|&c| {
            if c == 0.0 {
                0.0
            } else {
                rng.gen_range(1.0f64..c.min(4.0) + 1.0).floor()
            }
        })
        .collect();
    let demands = (0..n).map(|_| rng.gen_range(0u32..12) as f64).collect();
    WapShape {
        windows,
        edge_cap,
        cell_cap,
        demands,
    }
}

/// The generic three-layer network equivalent to a [`WapShape`], plus the
/// edge ids needed to re-parameterize and to seed flows: `(net, edges,
/// source_ids, job_cell_ids, sink_ids)` with node layout
/// `source = 0, job i = 1 + i, cell j = 1 + n + j, sink = 1 + n + m`.
#[allow(clippy::type_complexity)]
fn build_wap_network(
    shape: &WapShape,
) -> (
    FlowNetwork,
    Vec<(usize, usize, f64)>,
    Vec<EdgeId>,
    Vec<Vec<(usize, EdgeId)>>,
    Vec<EdgeId>,
    Vec<EdgeId>,
) {
    let n = shape.windows.len();
    let m = shape.cell_cap.len();
    let (s, t) = (0usize, 1 + n + m);
    let mut net = FlowNetwork::new(t + 1);
    let mut edges = Vec::new();
    let mut ids = Vec::new();
    let mut source_ids = Vec::with_capacity(n);
    for (i, &d) in shape.demands.iter().enumerate() {
        let e = net.add_edge(s, 1 + i, d);
        edges.push((s, 1 + i, d));
        ids.push(e);
        source_ids.push(e);
    }
    let mut job_cell_ids = vec![Vec::new(); n];
    for (i, &(lo, hi)) in shape.windows.iter().enumerate() {
        if lo > hi {
            continue;
        }
        for j in lo as usize..=hi as usize {
            let c = shape.edge_cap[j];
            let e = net.add_edge(1 + i, 1 + n + j, c);
            edges.push((1 + i, 1 + n + j, c));
            ids.push(e);
            job_cell_ids[i].push((j, e));
        }
    }
    let mut sink_ids = Vec::with_capacity(m);
    for (j, &c) in shape.cell_cap.iter().enumerate() {
        let e = net.add_edge(1 + n + j, t, c);
        edges.push((1 + n + j, t, c));
        ids.push(e);
        sink_ids.push(e);
    }
    (net, edges, ids, job_cell_ids, source_ids, sink_ids)
}

fn exact_value(shape: &WapShape) -> f64 {
    let n = shape.windows.len();
    let m = shape.cell_cap.len();
    let (s, t) = (0usize, 1 + n + m);
    let mut exact = IntFlowNetwork::new(t + 1);
    for (i, &d) in shape.demands.iter().enumerate() {
        exact.add_edge(s, 1 + i, d as u64);
    }
    for (i, &(lo, hi)) in shape.windows.iter().enumerate() {
        if lo > hi {
            continue;
        }
        for j in lo as usize..=hi as usize {
            exact.add_edge(1 + i, 1 + n + j, shape.edge_cap[j] as u64);
        }
    }
    for (j, &c) in shape.cell_cap.iter().enumerate() {
        exact.add_edge(1 + n + j, t, c as u64);
    }
    exact.max_flow(s, t) as f64
}

/// Certify a WAP solver's last solve as a maximum flow for demands `p` on
/// `shape`: allotments stay inside each job's window and under their edge
/// caps, sum to the job's routed demand (at most `p_i`) and to each cell's
/// usage (at most its cap), the routed total is the value, and the
/// canonical cut's capacity equals the value.
fn certify_wap(solver: &WapSolver, shape: &WapShape, p: &[f64], value: f64) {
    let tol = 1e-9 * (1.0 + value);
    let mut usage = vec![0.0; shape.cell_cap.len()];
    let mut routed_total = 0.0;
    for (i, &(lo, hi)) in shape.windows.iter().enumerate() {
        let mut allotted = 0.0;
        for (j, t) in solver.allotment(i) {
            assert!(
                lo as usize <= j && j <= hi as usize,
                "job {i} outside its window"
            );
            assert!(
                t <= shape.edge_cap[j] + tol,
                "job {i} over its cap in cell {j}"
            );
            allotted += t;
            usage[j] += t;
        }
        let routed = solver.routed(i);
        assert!(
            (allotted - routed).abs() <= tol,
            "job {i} does not conserve"
        );
        assert!(routed <= p[i] + tol, "job {i} routed past its demand");
        routed_total += routed;
    }
    for (j, &u) in usage.iter().enumerate() {
        assert!(
            (u - solver.interval_usage(j)).abs() <= tol,
            "cell {j} does not conserve"
        );
        assert!(u <= shape.cell_cap[j] + tol, "cell {j} over its cap");
    }
    assert!(
        (routed_total - value).abs() <= tol,
        "{routed_total} routed, value {value}"
    );
    let (job_side, cell_side) = solver.cut_sides();
    let mut cut = 0.0;
    for (i, &(lo, hi)) in shape.windows.iter().enumerate() {
        if !job_side[i] {
            cut += p[i];
        } else if lo <= hi {
            cut += (lo as usize..=hi as usize)
                .filter(|&j| !cell_side[j])
                .map(|j| shape.edge_cap[j])
                .sum::<f64>();
        }
    }
    for (j, &side) in cell_side.iter().enumerate() {
        if side {
            cut += shape.cell_cap[j];
        }
    }
    assert!((cut - value).abs() <= tol, "cut {cut} vs value {value}");
}

/// The bisection access pattern (`bounded::min_peak_speed`): a
/// forced-`Flow` WAP solver, which carries its flow from one solve to the
/// next, walks a random contiguous shape's demands down and back up a
/// ladder of scales. At every step the value must equal the exact
/// reference and the solver's readback must certify it. Scales sit on a
/// 1/16 grid over integer shapes, so the integer reference stays exact
/// after scaling by 16.
#[test]
fn warm_bisection_ladder_on_wap_shaped_networks() {
    check::cases(48, 0xD1FF_0003, |rng| {
        let mut shape = random_wap_shape(rng);
        let t = 1 + shape.windows.len() + shape.cell_cap.len();
        let mut wap = Wap::new(
            shape.windows.clone(),
            shape.edge_cap.clone(),
            shape.cell_cap.clone(),
        );
        wap.set_kernel(WapKernel::Flow);
        let mut solver = wap.solver();
        let demands = shape.demands.clone();
        for &scale in &[1.0, 0.8125, 0.5, 0.3125, 0.4375, 0.6875, 1.0, 1.3125] {
            shape.demands = demands.iter().map(|&d| d * scale).collect();
            let value = solver.solve(&shape.demands);
            let (_, edges, ..) = build_wap_network(&shape);
            let exact = exact_scaled(t + 1, t, &edges, 16.0);
            assert!(
                (value - exact).abs() <= 1e-9 * (1.0 + exact),
                "scale {scale}: carried {value} vs exact {exact}"
            );
            certify_wap(&solver, &shape, &shape.demands, value);
        }
    });
}

/// The interval sweep kernel against Dinic and the exact reference on
/// random contiguous WAP instances. A certified sweep must reproduce the exact max
/// flow value *and* the canonical min-cut sides a residual BFS on the Dinic
/// network reports (the canonical side is a property of the network, not of
/// the particular maximum flow). An uncertified sweep must undershoot —
/// never exceed — the true value.
#[test]
fn sweep_matches_engines_on_random_wap_instances() {
    check::cases(128, 0xD1FF_0005, |rng| {
        let shape = random_wap_shape(rng);
        let n = shape.windows.len();
        let m = shape.cell_cap.len();
        let (s, t) = (0usize, 1 + n + m);
        let mut sweep = SweepFlow::new(
            shape.windows.clone(),
            shape.edge_cap.clone(),
            shape.cell_cap.clone(),
        );
        let sweep_value = sweep.solve(&shape.demands);
        let (mut dinic, _, _, _, _, _) = build_wap_network(&shape);
        let dinic_value = dinic.max_flow(s, t);
        let exact = exact_value(&shape);
        assert!((dinic_value - exact).abs() < 1e-6, "dinic vs exact");
        if sweep.certified() {
            assert!(
                (sweep_value - exact).abs() <= 1e-9 * (1.0 + exact),
                "certified sweep {sweep_value} vs exact {exact}"
            );
            let side = dinic.residual_reachable_from_source();
            for i in 0..n {
                assert_eq!(sweep.job_side()[i], side[1 + i], "job {i} cut side");
            }
            for j in 0..m {
                assert_eq!(sweep.cell_side()[j], side[1 + n + j], "cell {j} cut side");
            }
        } else {
            assert!(
                sweep_value <= exact + 1e-9 * (1.0 + exact),
                "uncertified sweep overshoots: {sweep_value} vs {exact}"
            );
        }
    });
}

/// Randomized capacity re-parameterizations: each round rescales demands and
/// caps and the sweep is rebuilt (its constructor is the re-parameterization
/// path the `WapSolver` uses). A certified sweep must match the exact
/// reference at every round, and an uncertified one must never exceed it.
#[test]
fn sweep_reparameterization_tracks_warm_and_exact_engines() {
    check::cases(64, 0xD1FF_0006, |rng| {
        let mut shape = random_wap_shape(rng);
        let m = shape.cell_cap.len();
        for _round in 0..5 {
            for d in shape.demands.iter_mut() {
                if rng.gen_range(0u32..3) == 0 {
                    *d = rng.gen_range(0u32..12) as f64;
                }
            }
            for j in 0..m {
                if rng.gen_range(0u32..3) == 0 {
                    shape.cell_cap[j] = rng.gen_range(0u32..10) as f64;
                    shape.edge_cap[j] = shape.edge_cap[j].min(shape.cell_cap[j]);
                }
            }
            let exact = exact_value(&shape);
            let mut sweep = SweepFlow::new(
                shape.windows.clone(),
                shape.edge_cap.clone(),
                shape.cell_cap.clone(),
            );
            let sweep_value = sweep.solve(&shape.demands);
            if sweep.certified() {
                assert!(
                    (sweep_value - exact).abs() <= 1e-9 * (1.0 + exact),
                    "certified sweep {sweep_value} vs exact {exact}"
                );
            } else {
                assert!(sweep_value <= exact + 1e-9 * (1.0 + exact));
            }
        }
    });
}

/// The seeded-resume fallback path: the sweep's greedy allocation is loaded
/// into a generic network with `set_flow` and completed with
/// `resume_max_flow`. The resumed value must match the exact reference,
/// and the resulting flow must certify (canonical
/// cut saturated, conservation at every node) — exactly what `WapSolver`
/// relies on when the fast path declines.
#[test]
fn seeded_resume_from_sweep_matches_cold_engines() {
    check::cases(96, 0xD1FF_0007, |rng| {
        let shape = random_wap_shape(rng);
        let n = shape.windows.len();
        let m = shape.cell_cap.len();
        let (s, t) = (0usize, 1 + n + m);
        let mut sweep = SweepFlow::new(
            shape.windows.clone(),
            shape.edge_cap.clone(),
            shape.cell_cap.clone(),
        );
        sweep.solve(&shape.demands);
        let (mut seeded, edges, ids, job_cell_ids, source_ids, sink_ids) =
            build_wap_network(&shape);
        for (i, &e) in source_ids.iter().enumerate() {
            seeded.set_flow(e, sweep.routed(i));
        }
        for (i, cells) in job_cell_ids.iter().enumerate() {
            let mut alloc = sweep.allocs_of(i);
            let mut cur = alloc.next();
            for &(j, e) in cells {
                while let Some((c, _)) = cur {
                    if c < j {
                        cur = alloc.next();
                    } else {
                        break;
                    }
                }
                let f = match cur {
                    Some((c, amt)) if c == j => amt,
                    _ => 0.0,
                };
                seeded.set_flow(e, f);
            }
        }
        for (j, &e) in sink_ids.iter().enumerate() {
            seeded.set_flow(e, sweep.cell_usage(j));
        }
        let resumed = seeded.resume_max_flow(s, t);
        let exact = exact_value(&shape);
        assert!(
            (resumed - exact).abs() <= 1e-9 * (1.0 + exact),
            "seeded resume {resumed} vs exact {exact}"
        );
        certify(&seeded, &edges, &ids, resumed);
    });
}

/// Residual reachability after capacity updates answers the question the
/// BAL classification asks: which source edges can still grow. After each
/// update and a cold solve, every unsaturated source edge must keep its
/// head on the source side, and a positive flow must leave the sink cut
/// away.
#[test]
fn residual_reachability_consistent_after_updates() {
    check::cases(48, 0xD1FF_0004, |rng| {
        let (n, edges) = random_graph(rng);
        if edges.is_empty() {
            return;
        }
        let (s, t) = (0, n - 1);
        let (mut net, ids) = build_dinic(n, &edges);
        net.max_flow(s, t);
        for _ in 0..4 {
            let k = rng.gen_range(0usize..edges.len());
            net.set_capacity(ids[k], rng.gen_range(0u32..100) as f64);
            let value = net.max_flow(s, t);
            let side = net.residual_reachable_from_source();
            // An edge out of the source with residual slack keeps its head
            // on the source side (one residual hop).
            for (&(u, v, _), &id) in edges.iter().zip(&ids) {
                if u == s && !net.is_saturated(id) {
                    assert!(side[v], "unsaturated source edge head cut away");
                }
            }
            if value > 0.0 {
                assert!(!side[t], "sink residual-reachable after a max flow");
            }
        }
    });
}

/// The `WapSolver` dispatch over whole demand sequences: a sweep-first
/// (`Auto`) solver and a forced-`Flow` solver over the same general,
/// laminar and crossing WAPs are driven through random speed sequences that
/// mix feasible and infeasible scales, with some intervals' capacities cut
/// the way BAL's splits cut them. After every solve the two must agree on
/// the verdict and both canonical cut sides, and on the flow value up to
/// summation noise — whichever of the sweep, the seeded fallback or the
/// latched engine answered.
#[test]
fn wap_dispatch_sequences_match_the_flow_engine() {
    let session = ssp_probe::Session::begin();
    let mut verdicts = [0usize; 2];
    for (k, family) in ["general", "laminar", "crossing"].iter().enumerate() {
        check::cases(6, 0xD1FF_0008 + k as u64, |rng| {
            let n = rng.gen_range(20usize..60);
            let seed = rng.gen_range(0u64..1 << 32);
            let instance = match *family {
                "laminar" => families::laminar_nested(n, 3, 2.0, seed),
                "crossing" => families::crossing(n, 3, 2.0, seed),
                _ => families::general(n, 3, 2.0).gen(seed),
            };
            let (mut wap, _) = Wap::from_instance(&instance);
            for j in 0..wap.num_intervals() {
                if rng.gen_range(0u32..4) == 0 {
                    let machines_left = rng.gen_range(0u32..3) as f64;
                    wap.set_capacity(j, machines_left * wap.length(j));
                }
            }
            // Jobs with no open time left take no demand, as in BAL.
            let works: Vec<f64> = (0..n)
                .map(|i| {
                    if wap.open_time_of(i) > 0.0 {
                        instance.job(i).work
                    } else {
                        0.0
                    }
                })
                .collect();
            let v_dens = (0..n)
                .filter(|&i| works[i] > 0.0)
                .map(|i| works[i] / wap.open_time_of(i))
                .fold(0.0f64, f64::max);
            let mut flow_wap = wap.clone();
            flow_wap.set_kernel(WapKernel::Flow);
            let mut auto = wap.solver();
            let mut flow = flow_wap.solver();
            for step in 0..12 {
                let v = v_dens * rng.gen_range(0.5f64..6.0);
                let p: Vec<f64> = works.iter().map(|&w| w / v).collect();
                let (va, vf) = (auto.solve(&p), flow.solve(&p));
                let at = format!("{family} n={n} seed={seed} step {step} v={v}");
                assert!((va - vf).abs() <= 1e-9 * (1.0 + vf), "{at}: {va} vs {vf}");
                assert_eq!(auto.feasible(), flow.feasible(), "{at}: verdict");
                assert_eq!(auto.cut_sides(), flow.cut_sides(), "{at}: cut sides");
                verdicts[auto.feasible() as usize] += 1;
            }
        });
    }
    assert!(
        verdicts.iter().all(|&c| c > 0),
        "sequences must mix feasible and infeasible scales: {verdicts:?}"
    );
    // Every dispatch branch must have run. The other WAP solves in this
    // binary are forced-`Flow` ones, which fire neither `wap.fast_path` nor
    // `wap.fast_fallback`; this test's own forced solver fires
    // `wap.sweep_skip` on every solve either way.
    if let Some(session) = session {
        let trace = session.end();
        for counter in ["wap.fast_path", "wap.fast_fallback", "wap.sweep_skip"] {
            assert!(trace.counter(counter) > 0, "{counter} never fired");
        }
    }
}
