//! EXP-20 — histogram coherence and allocation attribution end-to-end.
//!
//! The deep-profiling layer records four distributions (see
//! `docs/OBSERVABILITY.md`): Dinic augmentation path lengths, YDS peel
//! interval widths, `YdsEval` rejection-tier outcomes, and harness attempt
//! latencies. This runner drives the EXP-6
//! workload (general family, m=4, alpha=2) through every layer that records
//! one — BAL, per-machine YDS, local search through the oracle, and a full
//! harness solve — inside a single probe session, then checks each
//! histogram on read-back:
//!
//! * it captured samples (`count > 0`), and
//! * its derived quantiles are coherent (`p50 <= p90 <= p99 <= max`) — the
//!   clamp-to-observed-max guarantee of the log2 bucket scheme.
//!
//! Built with `--features probe-alloc` it additionally asserts that the
//! counting allocator attributed a nonzero number of heap bytes/allocations
//! to spans (`alloc.bytes` / `alloc.count` in the trace).

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_core::list::marginal_energy_greedy;
use ssp_core::local_search::improve;
use ssp_core::rr::rr_yds;
use ssp_harness::{Algo, SolveOptions};
use ssp_migratory::bal::bal;
use ssp_workloads::{families, subseed};

/// The four distributions the deep-profiling layer records.
const HISTOGRAMS: [&str; 4] = [
    "maxflow.dinic.path_len",
    "yds.peel_width",
    "eval.reject_tier",
    "solve.attempt_us",
];

/// Run EXP-20.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let n = cfg.pick(200, 50);
    let inst = families::general(n, 4, 2.0).gen(subseed(cfg.seed ^ 0x20, n as u64));
    let session = ssp_probe::Session::begin()
        .expect("exp20 needs the probe idle (the runner owns its session)");

    // BAL: Dinic path lengths.
    let sol = bal(&inst);
    assert!(std::hint::black_box(sol.flow_computations) > 0);
    // Per-machine YDS: peel interval widths.
    let schedule = rr_yds(&inst);
    assert!(!schedule.is_empty());
    // Local search through the YdsEval oracle: rejection tiers.
    let seed_assignment = marginal_energy_greedy(&inst);
    let improved = improve(&inst, &seed_assignment, Default::default());
    assert!(!improved.assignment.is_empty());
    // The harness chain: attempt latencies.
    let report = ssp_harness::solve(&inst, Algo::Rr, &SolveOptions::default());
    assert!(
        report.outcome.is_some(),
        "harness solve failed:\n{}",
        report.summary()
    );

    let trace = session.end();
    trace.validate().expect("exp20 trace must be well-formed");

    let mut t = Table::new(
        "EXP-20 — histogram coherence on the EXP-6 workload (one session, all layers)",
        &["histogram", "count", "p50", "p90", "p99", "max", "mean"],
    );
    for name in HISTOGRAMS {
        let h = trace
            .hist(name)
            .unwrap_or_else(|| panic!("histogram '{name}' recorded no samples"));
        assert!(h.count > 0, "{name}: empty histogram survived read-back");
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= h.max,
            "{name}: incoherent quantiles p50={p50} p90={p90} p99={p99} max={}",
            h.max
        );
        t.push(vec![
            Cell::Text(name.to_string()),
            Cell::Int(h.count as i64),
            Cell::Int(p50 as i64),
            Cell::Int(p90 as i64),
            Cell::Int(p99 as i64),
            Cell::Int(h.max as i64),
            Cell::Num(h.mean(), 1),
        ]);
    }

    let alloc_bytes = trace.counter("alloc.bytes");
    let alloc_count = trace.counter("alloc.count");
    #[cfg(feature = "probe-alloc")]
    assert!(
        alloc_bytes > 0 && alloc_count > 0,
        "probe-alloc is enabled but the trace attributes no allocations"
    );
    let mut a = Table::new(
        "EXP-20 — span-attributed allocation totals (nonzero only under --features probe-alloc)",
        &["counter", "value"],
    );
    a.push(vec![
        Cell::Text("alloc.bytes".to_string()),
        Cell::Int(alloc_bytes as i64),
    ]);
    a.push(vec![
        Cell::Text("alloc.count".to_string()),
        Cell::Int(alloc_count as i64),
    ]);
    vec![t, a]
}
