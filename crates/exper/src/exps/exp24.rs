//! EXP-24 — the structure-aware WAP sweep kernel: dispatch contracts and
//! fast-path engagement on the end-to-end BAL decomposition.
//!
//! Every BAL node solves the same Horn-reduction network. The interval
//! sweep kernel (`SweepFlow`) water-fills deadline-ordered jobs through
//! the consecutive-ones structure instead of running a blocking-flow
//! search, falling back to the generic engine only when its residual
//! certificate declines. This runner solves each family twice —
//! kernel `Auto` (sweep + fallback) and kernel `Flow` (generic engine
//! only) — and re-states the dispatch contracts as assertions:
//!
//! 1. **Class identity.** The kernels must agree *bitwise* on every speed
//!    class (its speed and its jobs), on the number of max flows and on
//!    the final energy: the sweep is a different route to the same flow
//!    values and the same canonical cuts, and each class's speed is a
//!    closed form, so kernel choice must be invisible in the output.
//! 2. **Certified optimality.** The `Auto` solution must pass the KKT
//!    certificate — the sweep's cut sides decide BAL's splits, so a wrong
//!    cut would surface here.
//! 3. **Engagement.** On the laminar family (deep nesting, the workload
//!    the kernel was built for) at least half the node solves must take the
//!    fast path; a silent always-fallback regression fails the run.
//!
//! The table reports counts only — classes, max flows, the fast-path
//! share, fallbacks and the sweep's operations per solve. One cold solve
//! per kernel cannot tell a kernel regression from noise; wall-clock time
//! is `bal_kernel`'s `kernel_speedup`, a median over repeated runs
//! (BENCH_bal.json).

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_migratory::bal::{try_bal_with_wap, BalSolution};
use ssp_migratory::kkt::certify;
use ssp_migratory::wap::{Wap, WapKernel};
use ssp_model::numeric::Tol;
use ssp_model::resource::Budget;
use ssp_model::Instance;
use ssp_workloads::{families, subseed};

/// Minimum fast-path share of node solves on the laminar family.
const MIN_LAMINAR_FAST_SHARE: f64 = 0.5;

/// Solve with the requested WAP kernel; returns the solution and the
/// `(flow_calls, fast_path, fast_fallback, sweep_ops)` counter deltas.
fn solve_with_kernel(instance: &Instance, kernel: WapKernel) -> (BalSolution, [u64; 4]) {
    const COUNTERS: [&str; 4] = [
        "wap.flow_calls",
        "wap.fast_path",
        "wap.fast_fallback",
        "wap.sweep_ops",
    ];
    let before = COUNTERS.map(ssp_probe::counter_value);
    let (mut wap, intervals) = Wap::from_instance(instance);
    wap.set_kernel(kernel);
    let sol = try_bal_with_wap(instance, wap, intervals, Budget::unlimited())
        .expect("generated instances are feasible");
    let after = COUNTERS.map(ssp_probe::counter_value);
    let mut delta = [0u64; 4];
    for k in 0..4 {
        delta[k] = after[k] - before[k];
    }
    (sol, delta)
}

/// Bitwise class equality: speeds, jobs, max flows and energy.
fn classes_identical(a: &BalSolution, b: &BalSolution) -> bool {
    a.energy.to_bits() == b.energy.to_bits()
        && a.flow_computations == b.flow_computations
        && a.rounds.len() == b.rounds.len()
        && a.rounds
            .iter()
            .zip(&b.rounds)
            .all(|(ra, rb)| ra.speed.to_bits() == rb.speed.to_bits() && ra.jobs == rb.jobs)
}

/// Run EXP-24.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    // Counter deltas need an active probe session;
    // ambient sessions from `all`-style runs are reused as-is.
    let own_session = ssp_probe::Session::begin();

    let machines = 4;
    let alpha = 2.0;
    let sizes: &[usize] = if cfg.quick { &[60] } else { &[100, 300] };

    let mut table = Table::new(
        "EXP-24 — WAP kernel dispatch: sweep fast path vs generic flow (m=4, alpha=2)",
        &[
            "family",
            "n",
            "classes",
            "flows",
            "fast path %",
            "fallbacks",
            "sweep ops/solve",
        ],
    );

    for (k, family) in ["general", "laminar", "crossing"].iter().enumerate() {
        for (s, &n) in sizes.iter().enumerate() {
            let seed = subseed(cfg.seed ^ 0x24, (k * sizes.len() + s) as u64);
            let instance = match *family {
                "laminar" => families::laminar_nested(n, machines, alpha, seed),
                "crossing" => families::crossing(n, machines, alpha, seed),
                _ => families::general(n, machines, alpha).gen(seed),
            };

            let (auto, auto_counters) = solve_with_kernel(&instance, WapKernel::Auto);
            let (flow, _) = solve_with_kernel(&instance, WapKernel::Flow);
            let [calls, fast, fallbacks, sweep_ops] = auto_counters;

            // Contract 1: kernel choice is invisible in the classes.
            assert!(
                classes_identical(&auto, &flow),
                "{family}/n={n}: sweep and flow kernels produced different classes"
            );

            // Contract 2: the dispatched solution is certifiably optimal.
            certify(&instance, &auto, Tol::rel(1e-6))
                .unwrap_or_else(|e| panic!("{family}/n={n}: KKT certificate failed: {e}"));

            // Contract 3: the fast path actually engages on laminar nests.
            let fast_share = fast as f64 / calls.max(1) as f64;
            if *family == "laminar" {
                assert!(
                    fast_share >= MIN_LAMINAR_FAST_SHARE,
                    "{family}/n={n}: fast path took only {:.0}% of {calls} solves \
                     (EXP-24 requires >= {:.0}%)",
                    fast_share * 100.0,
                    MIN_LAMINAR_FAST_SHARE * 100.0
                );
            }

            table.push(vec![
                Cell::Text(family.to_string()),
                Cell::Int(n as i64),
                Cell::Int(auto.rounds.len() as i64),
                Cell::Int(auto.flow_computations as i64),
                Cell::Num(fast_share * 100.0, 1),
                Cell::Int(fallbacks as i64),
                Cell::Num(sweep_ops as f64 / calls.max(1) as f64, 1),
            ]);
        }
    }

    if let Some(session) = own_session {
        let _ = session.end();
    }
    vec![table]
}
