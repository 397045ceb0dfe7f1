//! EXP-6 — "Figure 3": complexity scaling.
//!
//! The paper's headline complexity claims, measured:
//! * BAL runs in `O(n · f(n))` — the table reports wall time, the number
//!   of max-flow computations and the number of speed classes as `n`
//!   doubles. The decomposition runs one max flow per split and per class
//!   of two or more jobs, so there are fewer than two flows per class (the
//!   paper's peeling with a bisection per round needs `O(log P)` per class).
//! * RR-YDS is `O(n log n)` assignment + per-machine YDS (`O((n/m)^3)`
//!   worst case) — wall time should stay far below BAL's.
//!
//! Timings are sequential (no `par_map`) so the numbers are clean.

use crate::table::Table;
use crate::RunCfg;
use ssp_core::rr::rr_yds;
use ssp_migratory::bal::bal;
use ssp_workloads::{families, subseed};
use std::time::Instant;

/// Run EXP-6.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 3 (series) — scaling with n (m=4, alpha=2, general family)",
        &[
            "n",
            "BAL ms",
            "BAL flows",
            "BAL classes",
            "flows per class",
            "dinic phases",
            "RR-YDS ms",
        ],
    );
    let sizes: Vec<usize> = cfg.pick(vec![25, 50, 100, 200, 400, 800], vec![25, 50, 100]);
    let reps = cfg.pick(3usize, 1);
    for &n in &sizes {
        let inst = families::general(n, 4, 2.0).gen(subseed(cfg.seed ^ 0x66, n as u64));
        // Median-of-reps wall time for BAL.
        let mut bal_ms = Vec::new();
        let mut flows = 0usize;
        let mut rounds = 0usize;
        // Probe-counter delta per run (zero when no session is active, e.g.
        // in the quick-mode smoke test; the ssp-exper binary installs a
        // session per experiment, so CSV regeneration records it).
        let mut dinic_phases = 0u64;
        for _ in 0..reps {
            let p0 = ssp_probe::counter_value("maxflow.dinic.phases");
            let t0 = Instant::now();
            let sol = bal(&inst);
            bal_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            dinic_phases = ssp_probe::counter_value("maxflow.dinic.phases") - p0;
            flows = sol.flow_computations;
            rounds = sol.rounds.len();
        }
        bal_ms.sort_by(f64::total_cmp);
        let bal_med = bal_ms[bal_ms.len() / 2];

        let mut rr_ms = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let s = rr_yds(&inst);
            rr_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(!s.is_empty());
        }
        rr_ms.sort_by(f64::total_cmp);
        let rr_med = rr_ms[rr_ms.len() / 2];

        assert!(rounds >= 1 && flows < 2 * rounds, "flow accounting broken");
        t.push(vec![
            n.into(),
            crate::table::Cell::Num(bal_med, 2),
            flows.into(),
            rounds.into(),
            crate::table::Cell::Num(flows as f64 / rounds as f64, 2),
            (dinic_phases as usize).into(),
            crate::table::Cell::Num(rr_med, 2),
        ]);
    }
    vec![t]
}
