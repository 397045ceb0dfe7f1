//! EXP-23 — the probe ladder vs plain bisection, and the
//! thread-invariance wall measured in the open.
//!
//! The BAL peeling loop locates each round's critical speed with one of
//! two drivers: the default cut-guided probe **ladder** (one warm probe
//! per step at a Newton bound, the density opener or a splitter) or the
//! retained budgeted **bisection** baseline. This experiment quantifies
//! the gap the ladder buys and re-states its three contracts as assertions:
//!
//! 1. **Agreement.** Both drivers stop inside the feasibility classifier's
//!    `1e-9` relative tolerance, so their energies must agree to `1e-8`
//!    relative on every cell (the transcripts legitimately differ — that
//!    is the point).
//! 2. **Thread invariance.** For the ladder, the full probe transcript
//!    (every `(speed, feasible)` pair, every round) and the energy bits
//!    must be identical at pinned widths 1 and 8: no solver kernel starts
//!    a thread, so the width must not reach a solve. The differential wall
//!    pins this per commit; the table reports it per family so the
//!    property is visible next to the probe counts it protects.
//! 3. **No repeated probe.** The ladder keeps the Newton bound of the last
//!    infeasible cut across feasible probes, so no round's transcript
//!    probes one speed twice; a re-probe of `v_lo` coming back fails here.
//!
//! The headline column is the probe ratio (bisection probes / ladder
//! probes): every feasibility probe is a parametric max-flow solve, so the
//! ratio is the algorithmic speedup available to any machine, independent
//! of its core count (`BENCH_bal.json` carries the wall-clock side).

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_migratory::bal::{try_bal_with_wap_strategy, BalSolution, ProbeStrategy};
use ssp_migratory::wap::Wap;
use ssp_model::par::set_thread_override;
use ssp_model::resource::Budget;
use ssp_model::Instance;
use ssp_workloads::{families, subseed};

fn solve(instance: &Instance, strategy: ProbeStrategy) -> BalSolution {
    let (wap, intervals) = Wap::from_instance(instance);
    try_bal_with_wap_strategy(instance, wap, intervals, Budget::unlimited(), strategy)
        .expect("generated instances are feasible")
}

fn solve_at_width(instance: &Instance, strategy: ProbeStrategy, width: usize) -> BalSolution {
    let prev = set_thread_override(Some(width));
    let sol = solve(instance, strategy);
    set_thread_override(prev);
    sol
}

/// Bitwise transcript equality: probes, round speeds, peel sets, energy.
fn transcripts_identical(a: &BalSolution, b: &BalSolution) -> bool {
    a.energy.to_bits() == b.energy.to_bits()
        && a.flow_computations == b.flow_computations
        && a.rounds.len() == b.rounds.len()
        && a.rounds.iter().zip(&b.rounds).all(|(ra, rb)| {
            ra.speed.to_bits() == rb.speed.to_bits()
                && ra.jobs == rb.jobs
                && ra.probes.len() == rb.probes.len()
                && ra
                    .probes
                    .iter()
                    .zip(&rb.probes)
                    .all(|(pa, pb)| pa.0.to_bits() == pb.0.to_bits() && pa.1 == pb.1)
        })
}

/// The first speed some round of `sol` probes twice, if any.
fn repeated_probe(sol: &BalSolution) -> Option<f64> {
    sol.rounds.iter().find_map(|round| {
        let mut speeds: Vec<u64> = round.probes.iter().map(|p| p.0.to_bits()).collect();
        speeds.sort_unstable();
        speeds
            .windows(2)
            .find(|w| w[0] == w[1])
            .map(|w| f64::from_bits(w[0]))
    })
}

/// Run EXP-23.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    let machines = 3;
    let alpha = 2.0;
    let sizes: &[usize] = if cfg.quick { &[60] } else { &[100, 300] };

    let mut table = Table::new(
        "EXP-23 — BAL probe ladder vs bisection: probe counts, agreement, thread invariance (m=3, alpha=2)",
        &[
            "family",
            "n",
            "rounds",
            "ladder probes",
            "bisect probes",
            "probe ratio",
            "energy rel diff",
            "width-8 transcript",
        ],
    );

    for (k, family) in ["general", "laminar", "crossing", "bursty"]
        .iter()
        .enumerate()
    {
        for (s, &n) in sizes.iter().enumerate() {
            let seed = subseed(cfg.seed ^ 0x23, (k * sizes.len() + s) as u64);
            let instance = match *family {
                "laminar" => families::laminar_nested(n, machines, alpha, seed),
                "crossing" => families::crossing(n, machines, alpha, seed),
                "bursty" => families::bursty(n, machines, alpha).gen(seed),
                _ => families::general(n, machines, alpha).gen(seed),
            };

            let ladder = solve_at_width(&instance, ProbeStrategy::Ladder, 1);
            let bisect = solve_at_width(&instance, ProbeStrategy::Bisection, 1);

            // Contract 1: strategy agreement within the classifier band.
            let rel = (ladder.energy - bisect.energy).abs() / bisect.energy.max(1e-12);
            assert!(
                rel <= 1e-8,
                "{family}/n={n}: strategy energies diverged (rel {rel:.3e})"
            );

            // Contract 2: ladder transcripts are thread-count invariant.
            let wide = solve_at_width(&instance, ProbeStrategy::Ladder, 8);
            assert!(
                transcripts_identical(&ladder, &wide),
                "{family}/n={n}: ladder transcript changed with the thread count"
            );

            // Contract 3: no round probes one speed twice.
            if let Some(v) = repeated_probe(&ladder) {
                panic!("{family}/n={n}: a ladder round probed speed {v} twice");
            }

            table.push(vec![
                Cell::Text(family.to_string()),
                Cell::Int(n as i64),
                Cell::Int(ladder.rounds.len() as i64),
                Cell::Int(ladder.flow_computations as i64),
                Cell::Int(bisect.flow_computations as i64),
                Cell::Num(
                    bisect.flow_computations as f64 / ladder.flow_computations.max(1) as f64,
                    2,
                ),
                Cell::Num(rel, 12),
                Cell::Text("identical".to_string()),
            ]);
        }
    }

    vec![table]
}
