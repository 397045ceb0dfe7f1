//! Pinned answers of BAL's one WAP solver per solve (tier-1).
//!
//! BAL builds one `WapSolver` per solve and re-parameterizes it in place
//! between rounds: the Dinic engine is built at the solve's first sweep
//! decline, and every later round's first decline restarts it from the
//! round's capacities. The energies, allotment digests and Dinic work below
//! were recorded when every round built a fresh solver and every round's
//! first decline a fresh network, so re-parameterization must reproduce
//! them bit for bit. This test sits in its own binary so no other test
//! shares its probe session.

use ssp_migratory::bal::{try_bal, BalSolution};
use ssp_model::{Budget, Instance};
use ssp_workloads::{families, subseed};

/// Energy bits, the allotment digest, then `maxflow.dinic.augmentations`
/// and `maxflow.dinic.phases`.
type Pinned = (u64, u64, [u64; 2]);

/// FNV-1a over every allotment's job index, interval index and time bits.
fn allotment_digest(sol: &BalSolution) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (i, allotment) in sol.allotments.iter().enumerate() {
        for &(j, t) in allotment {
            eat(i as u64);
            eat(j as u64);
            eat(t.to_bits());
        }
    }
    h
}

/// Solve with default BAL under a probe session; the trace must show one
/// solver and at most one Dinic network for the whole solve.
fn default_bal(instance: &Instance) -> Pinned {
    let session = ssp_probe::Session::begin().expect("no other session in this binary");
    let sol = try_bal(instance, Budget::unlimited()).expect("BAL is total on generated instances");
    let trace = session.end();
    assert!(
        sol.rounds.len() > 1,
        "a one-round solve re-parameterizes nothing"
    );
    assert_eq!(
        trace.span_count("wap.solver_build"),
        1,
        "one solver per solve"
    );
    assert!(
        trace.span_count("wap.fallback_build") <= 1,
        "{} Dinic networks in one solve",
        trace.span_count("wap.fallback_build")
    );
    (
        sol.energy.to_bits(),
        allotment_digest(&sol),
        [
            trace.counter("maxflow.dinic.augmentations"),
            trace.counter("maxflow.dinic.phases"),
        ],
    )
}

#[test]
fn one_solver_per_bal_solve_reproduces_the_pinned_answers() {
    let general = families::general(100, 4, 2.0).gen(subseed(1, 0));
    assert_eq!(
        default_bal(&general),
        (0x4052164ffec63f47, 0x5f41e24506a04685, [179, 22]),
        "general(100, 4, 2.0)"
    );
    let laminar = families::laminar_nested(100, 4, 2.0, subseed(1, 0));
    assert_eq!(
        default_bal(&laminar),
        (0x405afc97707a8dee, 0xd1bd217b8c7e3174, [212, 18]),
        "laminar_nested(100, 4, 2.0)"
    );
}
