//! Figure 3 — scaling of the two headline algorithms with instance size
//! (wall-clock complement of the flow-count series in `ssp-exper exp6`).

use ssp_bench::harness::{BenchmarkId, Criterion, Throughput};
use ssp_bench::{criterion_group, fixture, trajectory};
use ssp_core::assignment::assignment_energy;
use ssp_core::rr::rr_assignment;
use ssp_migratory::bal::bal;
use std::hint::black_box;

fn bal_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_bal");
    g.sample_size(10);
    for n in [25usize, 50, 100, 200] {
        let inst = fixture("general", n, 4, 2.0);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(bal(inst).energy))
        });
    }
    g.finish();
}

fn rr_yds_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling_rr_yds");
    for n in [25usize, 100, 400, 1600] {
        let inst = fixture("general", n, 4, 2.0);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| black_box(assignment_energy(inst, &rr_assignment(inst))))
        });
    }
    g.finish();
}

criterion_group!(scaling, bal_scaling, rr_yds_scaling);

fn main() {
    let mut c = Criterion::from_args();
    scaling(&mut c);
    c.final_summary();
    trajectory::emit(
        || c.artifact("scaling", 2.0),
        |family, n| c.trace(family, n),
    );
}
