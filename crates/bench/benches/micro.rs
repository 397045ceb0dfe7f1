//! Micro-benchmarks of the substrates: the max-flow engine on WAP-shaped
//! layered networks (the `f(n)` primitive in the paper's complexity bound),
//! the single-processor YDS solver, and the interval decomposition.

use ssp_bench::harness::{BenchmarkId, Criterion};
use ssp_bench::{criterion_group, fixture, trajectory};
use ssp_maxflow::FlowNetwork;
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

criterion_group!(micro, wap_maxflow, dinic_dense, yds_sizes, interval_build);
fn main() {
    let mut c = Criterion::from_args();
    micro(&mut c);
    c.final_summary();
    trajectory::emit(|| c.artifact("micro", 2.0), |family, n| c.trace(family, n));
}
