//! Telemetry robustness: traced solves must emit well-formed, parseable
//! traces even on fault-injected adversarial instances, and the trace must
//! reflect the degradation chain the report records.
//!
//! Probe sessions are process-global, so every test here funnels through a
//! shared lock; the integration-test binary keeps the lock local to this
//! file.

use ssp_harness::fault::FaultPlan;
use ssp_harness::{solve_traced, Algo, SolveOptions};
use ssp_model::resource::Budget;
use ssp_model::{Instance, Job};
use ssp_probe::Trace;
use ssp_workloads::families;
use std::sync::{Mutex, MutexGuard};

fn session_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn round_trip(trace: &Trace) -> Trace {
    let parsed = Trace::parse(&trace.to_jsonl()).expect("emitted trace must parse back");
    parsed.validate().expect("parsed trace must be well-formed");
    parsed
}

/// Fault-injected solves (the gauntlet's adversarial-but-constructible
/// cases) still emit structurally valid traces that round-trip through
/// JSONL. Budget caps keep adversarial numerics from stalling the test.
#[test]
fn fault_injected_solves_emit_well_formed_traces() {
    let _lock = session_lock();
    let opts = SolveOptions {
        budget: Budget::iterations(50_000),
        lower_bound: false,
        ..Default::default()
    };
    let mut traced_runs = 0usize;
    for case in FaultPlan::new(0xFA17).cases(40) {
        let Ok(instance) = &case.instance else {
            continue; // construction faults never reach the harness
        };
        for algo in [Algo::Rr, Algo::Local, Algo::Bal] {
            let report = solve_traced(instance, algo, &opts);
            let trace = report
                .telemetry
                .as_ref()
                .expect("no competing session: telemetry must be captured");
            trace
                .validate()
                .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.index, case.fault));
            let parsed = round_trip(trace);
            // Whatever happened inside — typed failure, budget exhaustion,
            // fallback — the root of the tree is always the solve span.
            let roots = parsed.roots();
            assert_eq!(roots.len(), 1, "case {}: one root span", case.index);
            assert_eq!(roots[0].name, "solve");
            traced_runs += 1;
        }
    }
    assert!(
        traced_runs >= 45,
        "gauntlet produced too few constructible cases: {traced_runs}"
    );
}

/// A traced degradation chain carries one child span per attempt, named
/// after the algorithm, in chain order — so a slow fallback is attributable
/// from the trace alone.
#[test]
fn degradation_chain_appears_as_attempt_spans() {
    let _lock = session_lock();
    // 20 jobs: the exact solver's n <= 16 precondition fails, degrading
    // exact → local (which succeeds).
    let jobs: Vec<Job> = (0..20)
        .map(|i| Job::new(i, 1.0, i as f64 * 0.1, i as f64 * 0.1 + 2.0))
        .collect();
    let instance = Instance::new(jobs, 2, 2.0).unwrap();
    let report = solve_traced(&instance, Algo::Exact, &SolveOptions::default());
    assert!(report.degraded(), "expected exact → local fallback");
    let trace = report.telemetry.expect("telemetry captured");
    let parsed = round_trip(&trace);
    let solve_id = parsed.roots()[0].id;
    let attempt_names: Vec<&str> = parsed
        .children(solve_id)
        .iter()
        .map(|s| s.name.as_str())
        .filter(|n| *n != "lower_bound")
        .collect();
    let recorded: Vec<&str> = report.attempts.iter().map(|a| a.algo.name()).collect();
    assert_eq!(
        attempt_names, recorded,
        "attempt spans must mirror the report's chain"
    );
}

/// Counter totals in the trace agree with the solver's own accounting:
/// BAL's `flow_computations` is exported 1:1 as `bal.flow_calls`, every
/// class is one `bal.rounds`, and every WAP solve is one decomposition
/// node's max flow.
#[test]
fn counters_match_solver_accounting() {
    let _lock = session_lock();
    let jobs: Vec<Job> = (0..8)
        .map(|i| {
            Job::new(
                i,
                1.0 + i as f64 * 0.2,
                i as f64 * 0.3,
                i as f64 * 0.3 + 2.5,
            )
        })
        .collect();
    let instance = Instance::new(jobs, 2, 2.0).unwrap();
    let session = ssp_probe::Session::begin().expect("no competing session");
    let sol = ssp_migratory::bal::try_bal(&instance, Budget::unlimited()).unwrap();
    let trace = session.end();
    assert_eq!(
        trace.counter("bal.flow_calls"),
        sol.flow_computations as u64,
        "trace and BalSolution must agree on flow-call count"
    );
    assert_eq!(trace.counter("bal.rounds"), sol.rounds.len() as u64);
    assert_eq!(
        trace.counter("wap.flow_calls"),
        sol.flow_computations as u64,
        "WAP solves are the nodes' max flows"
    );
    // BAL never carries a flow from one solve to the next: each node's one
    // solve is answered by the certified sweep fast path, which never
    // touches the network, or by a resume seeded from the sweep's greedy
    // flow; never by a cold Dinic run.
    assert_eq!(
        trace.counter("wap.fast_path") + trace.counter("maxflow.dinic.seeded_resumes"),
        sol.flow_computations as u64,
        "solves must be answered by the sweep or a seeded resume"
    );
    assert_eq!(trace.counter("maxflow.rebuild"), 0, "cold max flows");
    // Every WAP solve of a sweep-kernel solver is answered by exactly one
    // of: the certified sweep or a decline's seeded fallback.
    assert_eq!(
        trace.counter("wap.fast_path") + trace.counter("wap.fast_fallback"),
        trace.counter("wap.flow_calls"),
        "WAP dispatch accounting"
    );
}

/// BAL never runs a cold max flow: each decomposition node's one solve is
/// answered by the sweep or by a resume seeded from the sweep's greedy
/// flow, and a class reads its allotments off its node's flow instead of
/// routing them through a network of their own.
#[test]
fn ladder_bal_runs_no_cold_max_flow() {
    let _lock = session_lock();
    let (n, m, alpha, seed) = (100, 4, 2.0, ssp_workloads::subseed(1, 0));
    let mut engine_solves = 0;
    for (shape, instance) in [
        ("general", families::general(n, m, alpha).gen(seed)),
        ("laminar", families::laminar_nested(n, m, alpha, seed)),
        ("crossing", families::crossing(n, m, alpha, seed)),
        ("bursty", families::bursty(n, m, alpha).gen(seed)),
    ] {
        let session = ssp_probe::Session::begin().expect("no competing session");
        let sol = ssp_migratory::bal::try_bal(&instance, Budget::unlimited()).unwrap();
        let trace = session.end();
        assert!(sol.flow_computations > 0, "{shape}");
        assert_eq!(
            trace.counter("maxflow.rebuild"),
            0,
            "{shape}: cold max flows"
        );
        engine_solves += trace.counter("maxflow.dinic.seeded_resumes");
    }
    assert!(
        engine_solves > 0,
        "the Dinic engine answered no solve at all"
    );
}

/// `relax` rounds and `bal` reports the lower bound's own BAL run, so a
/// traced relax or bal solve counts the BAL work of an rr solve, whose
/// only BAL is the bound's.
#[test]
fn relax_and_bal_solves_run_bal_once() {
    let _lock = session_lock();
    let instance = families::general(30, 4, 2.0).gen(7);
    let bal_work = |algo| {
        let report = solve_traced(&instance, algo, &SolveOptions::default());
        assert_eq!(report.outcome.map(|o| o.algorithm), Some(algo));
        let trace = report.telemetry.expect("telemetry captured");
        (trace.counter("bal.rounds"), trace.counter("bal.flow_calls"))
    };
    let rr = bal_work(Algo::Rr);
    assert!(rr.0 > 0, "the bound runs BAL");
    assert_eq!(bal_work(Algo::Relax), rr, "relax: (rounds, flow calls)");
    assert_eq!(bal_work(Algo::Bal), rr, "bal: (rounds, flow calls)");
}
