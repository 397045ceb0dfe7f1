//! The fault-injection gauntlet: 220 seeded corrupted/adversarial instances
//! through every registered algorithm. The process must never abort — every
//! failure is a typed [`ModelError`] or [`SolveError`], and every accepted
//! schedule passed validation inside the harness.

use ssp_harness::fault::{FaultPlan, FAULT_KINDS};
use ssp_harness::{solve, Algo, SolveOptions};
use ssp_model::resource::Budget;
use ssp_model::SolveError;

const CASES: usize = 220;
const SEED: u64 = 0xFA17;

// Acceptance floor: at least 200 cases, cycling the whole fault menu.
const _: () = assert!(CASES >= 200);
const _: () = assert!(CASES >= FAULT_KINDS);

fn gauntlet_options() -> SolveOptions {
    SolveOptions {
        // Cap every iterative solver so adversarial numerics cannot stall
        // the suite; exhaustion must surface as a marker, not a hang.
        budget: Budget::iterations(50_000),
        degrade: false, // judge each algorithm on its own
        lower_bound: false,
    }
}

/// Every case, every algorithm: no panic escapes, no abort, every failure
/// typed. This is the headline robustness guarantee.
#[test]
fn no_algorithm_panics_on_the_fault_gauntlet() {
    let opts = gauntlet_options();
    let mut construction_rejects = 0usize;
    let mut runs = 0usize;
    let mut typed_failures = 0usize;
    for case in FaultPlan::new(SEED).cases(CASES) {
        let instance = match &case.instance {
            Err(_) => {
                // Construction faults are stopped by the model layer with a
                // typed error; the harness never sees an instance.
                construction_rejects += 1;
                continue;
            }
            Ok(inst) => inst,
        };
        for algo in Algo::ALL {
            // `solve` is total by contract: a panic anywhere in the stack
            // would abort this test process and fail the suite.
            let report = solve(instance, algo, &opts);
            runs += 1;
            match report.outcome {
                Some(outcome) => {
                    // Accepted schedules were validated inside the harness;
                    // energies of valid schedules are finite or the
                    // validator would have rejected them — but adversarial
                    // overflow-scale instances may legitimately produce
                    // infinite energy, so only sanity-check non-NaN here.
                    assert!(
                        !outcome.stats.energy.is_nan(),
                        "case {} ({}) algo {algo}: accepted schedule with NaN energy",
                        case.index,
                        case.fault
                    );
                }
                None => {
                    let err = report.error().unwrap_or_else(|| {
                        panic!(
                            "case {} ({}) algo {algo}: no outcome and no error",
                            case.index, case.fault
                        )
                    });
                    // Every failure is a typed SolveError with a stable kind.
                    assert!(
                        !err.kind().is_empty(),
                        "case {} ({}) algo {algo}: untyped failure",
                        case.index,
                        case.fault
                    );
                    typed_failures += 1;
                }
            }
        }
    }
    // Sanity: the gauntlet actually exercised both classes.
    assert!(
        construction_rejects > CASES / 4,
        "too few construction faults"
    );
    assert!(
        runs >= 100 * Algo::ALL.len() / 2,
        "too few solver runs: {runs}"
    );
    // Some algorithms are allowed to fail on adversarial numerics — the
    // point is that they fail with types. But if *nothing* ever failed the
    // adversarial menu is too soft, and if *everything* failed the solvers
    // are broken.
    assert!(
        typed_failures < runs,
        "every run failed: solvers are broken"
    );
    println!(
        "gauntlet: {CASES} cases → {construction_rejects} rejected at construction, \
         {runs} solver runs, {typed_failures} typed failures, 0 panics"
    );
}

/// Control-valid cases are plain well-formed instances: every algorithm must
/// produce a validated schedule whose energy is consistent with the
/// certified lower bound (ratio >= 1 - 1e-9).
#[test]
fn control_cases_solve_with_certified_ratio() {
    let opts = SolveOptions {
        budget: Budget::iterations(200_000),
        degrade: false,
        ..Default::default()
    };
    let mut controls = 0usize;
    for case in FaultPlan::new(SEED).cases(CASES) {
        if case.fault != "control-valid" {
            continue;
        }
        controls += 1;
        let instance = case.instance.as_ref().expect("control cases are valid");
        for algo in Algo::ALL {
            let report = solve(instance, algo, &opts);
            let outcome = report.outcome.as_ref().unwrap_or_else(|| {
                panic!(
                    "case {} algo {algo} failed on a valid instance:\n{}",
                    case.index,
                    report.summary()
                )
            });
            assert!(
                !matches!(
                    report.attempts[0].error,
                    Some(SolveError::InternalPanic { .. })
                ),
                "case {} algo {algo}: panic on a valid instance",
                case.index
            );
            if let Some(ratio) = outcome.lb_ratio {
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "case {} algo {algo}: energy/LB ratio {ratio} < 1",
                    case.index
                );
            }
        }
    }
    assert!(
        controls >= CASES / FAULT_KINDS,
        "expected control cases in the plan"
    );
}

/// Corrupted serialized text must be rejected by the parser with a typed
/// `ModelError` — never a panic — and the error must say where.
#[test]
fn corrupted_text_yields_typed_parse_errors() {
    let mut corrupted = 0usize;
    for case in FaultPlan::new(SEED).cases(CASES) {
        if case.fault != "corrupted-text" {
            continue;
        }
        corrupted += 1;
        // Re-parse from text: same typed outcome, no panic.
        let reparsed = ssp_model::io::parse(&case.text);
        assert_eq!(
            reparsed.is_ok(),
            case.instance.is_ok(),
            "case {}: parse outcome not reproducible",
            case.index
        );
        if let Err(e) = &case.instance {
            // The error Display must be non-empty and human-readable.
            assert!(!e.to_string().is_empty());
        }
    }
    assert!(
        corrupted >= CASES / FAULT_KINDS,
        "expected corrupted-text cases"
    );
}

/// Degradation sanity on the gauntlet: when the chain is enabled and the
/// requested algorithm fails on an adversarial-but-valid instance, the
/// harness either recovers with a fallback (recording why) or reports a
/// typed terminal error — never silence.
#[test]
fn degradation_chain_recovers_or_types_out() {
    let opts = SolveOptions {
        budget: Budget::iterations(50_000),
        degrade: true,
        lower_bound: false,
    };
    for case in FaultPlan::new(SEED ^ 0x5EED).cases(60) {
        let Ok(instance) = &case.instance else {
            continue;
        };
        let report = solve(instance, Algo::Exact, &opts);
        match &report.outcome {
            Some(outcome) => {
                if report.degraded() {
                    // Fallback attempts record the reason they were reached.
                    let accepted = report.attempts.last().unwrap();
                    assert_eq!(accepted.algo, outcome.algorithm);
                    assert!(
                        accepted.fallback_reason.is_some(),
                        "case {}: degraded without a recorded reason",
                        case.index
                    );
                }
            }
            None => {
                assert!(
                    report.error().is_some(),
                    "case {}: silent total failure",
                    case.index
                );
                // Every attempt in the chain carries its own typed error.
                for a in &report.attempts {
                    assert!(a.error.is_some());
                }
            }
        }
    }
}
