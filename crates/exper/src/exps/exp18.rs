//! EXP-18 — warm-start parametric max-flow: cold vs warm bisection work.
//!
//! A uniform-speed bisection (`bounded::min_peak_speed`, the speed of
//! BAL's first class) evaluates a sequence of feasibility probes that
//! differ only in the source-edge capacities of the WAP network. A latched WAP solver carries its previous max flow to each
//! probe's demands (clamp the source edges, cancel the overflow, resume
//! Dinic) instead of rebuilding it. This runner replays the *same*
//! bisection transcript both ways on EXP-6's workload family and compares
//! the total augmentation work (probe counters
//! `maxflow.dinic.augmentations` + `maxflow.dinic.cancel_paths` — the
//! carry's cancels are charged to the warm side) and wall time.
//!
//! Asserted acceptance: warm-start cuts the total augmentation work by at
//! least **2×** aggregated over the size sweep, both searches converge to
//! the same critical speed, and the warm-started full BAL solve still
//! passes the KKT optimality certificate on every instance.

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_migratory::bal::bal;
use ssp_migratory::kkt::certify;
use ssp_migratory::wap::{Wap, WapKernel};
use ssp_model::numeric::{bisect_threshold, Tol, BINARY_SEARCH_REL_WIDTH};
use ssp_model::Instance;
use ssp_workloads::{families, subseed};
use std::time::Instant;

/// Aggregate acceptance threshold on cold/warm augmentation work.
const MIN_WORK_RATIO: f64 = 2.0;

/// Snapshot the Dinic work counters (augmenting paths + cancel paths).
fn work_counters() -> (u64, u64) {
    (
        ssp_probe::counter_value("maxflow.dinic.augmentations"),
        ssp_probe::counter_value("maxflow.dinic.cancel_paths"),
    )
}

/// The uniform-speed bisection bracket used by `min_peak_speed`.
fn speed_bracket(instance: &Instance, wap: &Wap) -> (f64, f64) {
    let n = instance.len();
    let lo = instance.max_density();
    let mut hi = lo;
    for j in 0..wap.num_intervals() {
        if wap.capacity(j) <= 0.0 {
            continue;
        }
        let dens: f64 = (0..n)
            .filter(|&i| {
                wap.window_of(i)
                    .is_some_and(|(lo, hi)| (lo..=hi).contains(&j))
            })
            .map(|i| instance.job(i).density())
            .sum();
        hi = hi.max(wap.length(j) * dens / wap.capacity(j));
    }
    (lo, hi * (1.0 + 1e-12))
}

/// One measured bisection: returns (critical speed, wall ms, augmentation
/// work including drains, probe count).
fn run_bisection(
    instance: &Instance,
    wap: &Wap,
    lo: f64,
    hi: f64,
    warm: bool,
) -> (f64, f64, u64, u64) {
    let works: Vec<f64> = instance.jobs().iter().map(|j| j.work).collect();
    let mut p = vec![0.0; works.len()];
    let mut probes = 0u64;
    let (aug0, drain0) = work_counters();
    let t0 = Instant::now();
    let v = if warm {
        let mut solver = wap.solver();
        let mut feasible = |v: f64| -> bool {
            probes += 1;
            for (pi, w) in p.iter_mut().zip(&works) {
                *pi = w / v;
            }
            solver.solve(&p);
            solver.feasible()
        };
        let mut hi = hi;
        while !feasible(hi) {
            hi *= 2.0;
        }
        bisect_threshold(lo.min(hi), hi, BINARY_SEARCH_REL_WIDTH, feasible).1
    } else {
        let mut feasible = |v: f64| -> bool {
            probes += 1;
            for (pi, w) in p.iter_mut().zip(&works) {
                *pi = w / v;
            }
            wap.solve(&p).feasible()
        };
        let mut hi = hi;
        while !feasible(hi) {
            hi *= 2.0;
        }
        bisect_threshold(lo.min(hi), hi, BINARY_SEARCH_REL_WIDTH, feasible).1
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let (aug1, drain1) = work_counters();
    (v, ms, (aug1 - aug0) + (drain1 - drain0), probes)
}

/// Run EXP-18.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    // Counter deltas need an active probe session; the ssp-exper binary
    // leaves installation to this runner (like EXP-17), while `all`-style
    // ambient sessions are reused as-is.
    let own_session = ssp_probe::Session::begin();

    let mut t = Table::new(
        "EXP-18 — cold vs warm parametric bisection (m=4, alpha=2, general family)",
        &[
            "n",
            "probes",
            "cold ms",
            "warm ms",
            "cold aug work",
            "warm aug work",
            "work ratio",
            "KKT",
        ],
    );
    let sizes: Vec<usize> = cfg.pick(vec![50, 100, 200, 400], vec![25, 50]);
    let mut cold_total = 0u64;
    let mut warm_total = 0u64;
    for &n in &sizes {
        let inst = families::general(n, 4, 2.0).gen(subseed(cfg.seed ^ 0x18, n as u64));
        let (mut wap, _) = Wap::from_instance(&inst);
        // This experiment measures the *generic flow engine's* warm-start
        // repair; the sweep kernel never touches those counters.
        wap.set_kernel(WapKernel::Flow);
        let (lo, hi) = speed_bracket(&inst, &wap);
        let (v_cold, cold_ms, cold_work, probes_cold) = run_bisection(&inst, &wap, lo, hi, false);
        let (v_warm, warm_ms, warm_work, probes_warm) = run_bisection(&inst, &wap, lo, hi, true);
        assert_eq!(
            probes_cold, probes_warm,
            "n={n}: transcripts diverged — warm feasibility differs from cold"
        );
        assert!(
            (v_cold - v_warm).abs() <= 1e-9 * v_cold,
            "n={n}: critical speed mismatch, cold {v_cold} vs warm {v_warm}"
        );
        // The warm-started full solve must still be certifiably optimal.
        let sol = bal(&inst);
        certify(&inst, &sol, Tol::rel(1e-6))
            .unwrap_or_else(|e| panic!("n={n}: KKT certificate failed on warm BAL: {e}"));
        let first_round = sol.rounds.first().map(|r| r.speed).unwrap_or(0.0);
        assert!(
            (first_round - v_warm).abs() <= 1e-8 * v_warm,
            "n={n}: BAL first critical speed {first_round} vs bisection {v_warm}"
        );
        cold_total += cold_work;
        warm_total += warm_work;
        let ratio = cold_work as f64 / (warm_work.max(1)) as f64;
        t.push(vec![
            n.into(),
            (probes_cold as usize).into(),
            Cell::Num(cold_ms, 2),
            Cell::Num(warm_ms, 2),
            Cell::Int(cold_work as i64),
            Cell::Int(warm_work as i64),
            Cell::Num(ratio, 2),
            Cell::Text("ok".to_string()),
        ]);
    }
    let total_ratio = cold_total as f64 / warm_total.max(1) as f64;
    assert!(
        total_ratio >= MIN_WORK_RATIO,
        "warm-start saved only {total_ratio:.2}x augmentation work \
         (cold {cold_total} vs warm {warm_total}); EXP-18 requires >= {MIN_WORK_RATIO}x"
    );
    let mut s = Table::new(
        "EXP-18 (summary) — aggregate augmentation work",
        &["cold total", "warm total", "ratio", "bound"],
    );
    s.push(vec![
        Cell::Int(cold_total as i64),
        Cell::Int(warm_total as i64),
        Cell::Num(total_ratio, 2),
        Cell::Num(MIN_WORK_RATIO, 1),
    ]);
    if let Some(session) = own_session {
        let _ = session.end();
    }
    vec![t, s]
}
