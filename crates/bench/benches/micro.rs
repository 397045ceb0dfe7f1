//! Micro-benchmarks of the substrates: the max-flow engine on WAP-shaped
//! layered networks (the `f(n)` primitive in the paper's complexity bound),
//! the single-processor YDS solver, and the interval decomposition.

use ssp_bench::harness::{BenchmarkId, Criterion};
use ssp_bench::{criterion_group, fixture, trajectory};
use ssp_maxflow::{FlowNetwork, PushRelabel};
use ssp_migratory::wap::Wap;
use ssp_model::IntervalSet;
use ssp_single::yds::yds;
use std::hint::black_box;

/// The `f(n)` primitive: a max flow on the three-layer WAP network.
fn wap_maxflow(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_wap_maxflow");
    for n in [50usize, 200, 800] {
        let inst = fixture("general", n, 4, 2.0);
        let (wap, _) = Wap::from_instance(&inst);
        let v = inst.max_density() * 1.2;
        let p: Vec<f64> = inst.jobs().iter().map(|j| j.work / v).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &(wap, p), |b, (wap, p)| {
            b.iter(|| black_box(wap.solve(p).value()))
        });
    }
    g.finish();
}

/// Raw Dinic on a dense layered graph.
fn dinic_dense(c: &mut Criterion) {
    c.bench_function("micro_dinic_dense_200x50", |b| {
        b.iter(|| {
            let (jobs, ivals) = (200usize, 50usize);
            let t = 1 + jobs + ivals;
            let mut g = FlowNetwork::new(t + 1);
            for i in 0..jobs {
                g.add_edge(0, 1 + i, 1.0);
                for j in 0..ivals {
                    if (i + j) % 3 == 0 {
                        g.add_edge(1 + i, 1 + jobs + j, 0.5);
                    }
                }
            }
            for j in 0..ivals {
                g.add_edge(1 + jobs + j, t, 4.0);
            }
            black_box(g.max_flow(0, t))
        })
    });
}

/// Single-processor YDS (the per-machine subroutine of every paper
/// algorithm).
fn yds_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_yds");
    for n in [25usize, 100, 400] {
        let inst = fixture("general", n, 1, 2.0);
        let jobs = inst.jobs().to_vec();
        g.bench_with_input(BenchmarkId::from_parameter(n), &jobs, |b, jobs| {
            b.iter(|| black_box(yds(jobs, 2.0).energy))
        });
    }
    g.finish();
}

/// Interval decomposition + alive sets.
fn interval_build(c: &mut Criterion) {
    let inst = fixture("general", 800, 4, 2.0);
    let jobs = inst.jobs().to_vec();
    c.bench_function("micro_intervals_n800", |b| {
        b.iter(|| black_box(IntervalSet::from_jobs(&jobs).len()))
    });
}

/// Engine shoot-out on the WAP-shaped layered networks this workspace
/// builds: Dinic (the default) vs push-relabel (the cross-check engine).
fn engine_comparison(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_engines");
    let (jobs, ivals) = (200usize, 50usize);
    let t = 1 + jobs + ivals;
    let build_edges = || {
        let mut edges = Vec::new();
        for i in 0..jobs {
            edges.push((0, 1 + i, 1.0 + (i % 7) as f64 * 0.2));
            for j in 0..ivals {
                if (i + j) % 3 == 0 {
                    edges.push((1 + i, 1 + jobs + j, 0.5));
                }
            }
        }
        for j in 0..ivals {
            edges.push((1 + jobs + j, t, 4.0));
        }
        edges
    };
    let edges = build_edges();
    g.bench_function("dinic", |b| {
        b.iter(|| {
            let mut net = FlowNetwork::new(t + 1);
            for &(u, v, c) in &edges {
                net.add_edge(u, v, c);
            }
            black_box(net.max_flow(0, t))
        })
    });
    g.bench_function("push_relabel", |b| {
        b.iter(|| {
            let mut net = PushRelabel::new(t + 1);
            for &(u, v, c) in &edges {
                net.add_edge(u, v, c);
            }
            black_box(net.max_flow(0, t))
        })
    });
    g.finish();
}

/// Parametric bisection kernel: a fixed geometric ladder of uniform-speed
/// probes (the shape of one BAL round), solved by rebuilding the WAP
/// network per probe (cold) vs re-parameterizing one warm solver — the
/// speedup EXP-18 certifies, tracked here as a trajectory point.
fn parametric_bisection(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_parametric_bisection");
    let inst = fixture("general", 200, 4, 2.0);
    let (wap, _) = Wap::from_instance(&inst);
    let works: Vec<f64> = inst.jobs().iter().map(|j| j.work).collect();
    let v_hi = inst.max_density() * 4.0;
    // 24 probes walking the speed down ~2×, like a bisection transcript.
    let speeds: Vec<f64> = (0..24).map(|k| v_hi * 0.97f64.powi(k)).collect();
    let mut p = vec![0.0; works.len()];
    g.bench_function("cold", |b| {
        b.iter(|| {
            let mut feasible = 0usize;
            for &v in &speeds {
                for (pi, w) in p.iter_mut().zip(&works) {
                    *pi = w / v;
                }
                feasible += usize::from(wap.solve(&p).feasible());
            }
            black_box(feasible)
        })
    });
    g.bench_function("warm", |b| {
        b.iter(|| {
            let mut solver = wap.solver();
            let mut feasible = 0usize;
            for &v in &speeds {
                for (pi, w) in p.iter_mut().zip(&works) {
                    *pi = w / v;
                }
                solver.solve(&p);
                feasible += usize::from(solver.feasible());
            }
            black_box(feasible)
        })
    });
    g.finish();
}

criterion_group!(
    micro,
    wap_maxflow,
    dinic_dense,
    yds_sizes,
    interval_build,
    engine_comparison,
    parametric_bisection
);
fn main() {
    let mut c = Criterion::from_args();
    micro(&mut c);
    c.final_summary();
    trajectory::emit(|| c.artifact("micro", 2.0), |family, n| c.trace(family, n));
}
