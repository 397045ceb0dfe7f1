//! Differential test wall for the BAL probe ladder (tier-1).
//!
//! Every ladder step is one warm probe on the round's solver, on the
//! calling thread, so the thread count must change nothing: for a fixed
//! instance and strategy, the probe transcript (every `(speed, feasible)`
//! pair in order), the per-round peel sets, the speeds, and the total
//! energy must be bit-identical at every width. These tests replay the same
//! instances under pinned widths 1, 2, and 8 (via `set_thread_override`,
//! which takes precedence over `SSP_THREADS`) and compare the full
//! transcripts; a probe session checks that no span of a solve leaves the
//! calling thread. Together they keep a thread dependence from coming back
//! unnoticed.
//!
//! A second wall cross-checks the two probe strategies: `Ladder` and
//! `Bisection` take different probe paths, but both stop inside the
//! feasibility classifier's 1e-9 relative tolerance, so their energies must
//! agree to ~1e-8 relative (not bit-for-bit — the transcripts legitimately
//! differ).
//!
//! A third pins the ladder's contract that a cut once read is never probed
//! again: no round's transcript holds one speed twice. A fourth pins that
//! the ladder probes a round's upper end, the previous round's speed, only
//! when the round ends on it. A fifth pins the ladder's classification,
//! read off the cut or flow its search ended on, against bisection's
//! classification probe: the same rounds, the same critical jobs, and
//! saturated intervals that differ only at a tie.

use ssp_migratory::bal::{try_bal_with_wap_strategy, BalSolution, ProbeStrategy};
use ssp_migratory::wap::Wap;
use ssp_model::par::set_thread_override;
use ssp_model::resource::Budget;
use ssp_model::Instance;
use ssp_probe::SpanRec;
use ssp_workloads::{families, subseed};
use std::collections::HashMap;
use std::sync::Mutex;

/// Serializes the tests that pin the width: the override is process-global
/// and the tests of this binary run concurrently, so without the lock one
/// test's pin could leak into another's solve.
static WIDTH_PIN: Mutex<()> = Mutex::new(());

/// Run `f` with the thread count pinned at `width`. A test that panics
/// while pinned poisons the lock but leaves nothing to repair: every
/// holder sets its own width.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _pin = WIDTH_PIN.lock().unwrap_or_else(|e| e.into_inner());
    let prev = set_thread_override(Some(width));
    let out = f();
    set_thread_override(prev);
    out
}

fn solve(instance: &Instance, strategy: ProbeStrategy) -> BalSolution {
    let (wap, intervals) = Wap::from_instance(instance);
    try_bal_with_wap_strategy(instance, wap, intervals, Budget::unlimited(), strategy)
        .expect("feasible instance must solve")
}

fn solve_at_width(instance: &Instance, strategy: ProbeStrategy, width: usize) -> BalSolution {
    at_width(width, || solve(instance, strategy))
}

/// Assert two solutions of the same instance + strategy are bit-identical:
/// same probe transcript per round, same peel sets, same speeds and energy.
fn assert_transcripts_identical(a: &BalSolution, b: &BalSolution, ctx: &str) {
    assert_eq!(
        a.energy.to_bits(),
        b.energy.to_bits(),
        "{ctx}: energy diverged ({} vs {})",
        a.energy,
        b.energy
    );
    assert_eq!(
        a.rounds.len(),
        b.rounds.len(),
        "{ctx}: round count diverged"
    );
    for (r, (ra, rb)) in a.rounds.iter().zip(&b.rounds).enumerate() {
        assert_eq!(
            ra.speed.to_bits(),
            rb.speed.to_bits(),
            "{ctx}: round {r} critical speed diverged ({} vs {})",
            ra.speed,
            rb.speed
        );
        assert_eq!(ra.jobs, rb.jobs, "{ctx}: round {r} job set diverged");
        assert_eq!(
            ra.saturated, rb.saturated,
            "{ctx}: round {r} saturated set diverged"
        );
        assert_eq!(
            ra.probes.len(),
            rb.probes.len(),
            "{ctx}: round {r} probe count diverged"
        );
        for (k, (pa, pb)) in ra.probes.iter().zip(&rb.probes).enumerate() {
            assert_eq!(
                pa.0.to_bits(),
                pb.0.to_bits(),
                "{ctx}: round {r} probe {k} speed diverged ({} vs {})",
                pa.0,
                pb.0
            );
            assert_eq!(
                pa.1, pb.1,
                "{ctx}: round {r} probe {k} verdict diverged at speed {}",
                pa.0
            );
        }
    }
    assert_eq!(
        a.flow_computations, b.flow_computations,
        "{ctx}: flow-computation count diverged"
    );
    for (i, (sa, sb)) in a.speeds.speeds().iter().zip(b.speeds.speeds()).enumerate() {
        assert_eq!(
            sa.to_bits(),
            sb.to_bits(),
            "{ctx}: speed of job {i} diverged ({sa} vs {sb})"
        );
    }
}

/// Two inputs on which an earlier ladder fanned its probes out onto worker
/// threads, with the energy bits that ladder produced.
fn former_fan_out_inputs() -> Vec<(&'static str, Instance, u64)> {
    vec![
        (
            "weighted",
            families::weighted_agreeable(20, 4, 2.0).gen(subseed(1, 2)),
            0x4025f30726a3d8f6,
        ),
        (
            "bursty n=60",
            families::bursty(60, 3, 2.0).gen(0xC0FFEE),
            0x4049e15e02e268c7,
        ),
    ]
}

/// The instance matrix for the walls: one per family, sized so every ladder
/// code path fires (multi-round peels, Newton cuts, fringe exits) while
/// keeping tier-1 fast, plus the former fan-out inputs.
fn instances() -> Vec<(&'static str, Instance)> {
    let mut all = vec![
        ("general", families::general(48, 3, 2.0).gen(0xBA101)),
        ("laminar", families::laminar_nested(48, 3, 2.0, 0xBA102)),
        ("crossing", families::crossing(48, 3, 2.0, 0xBA103)),
        ("bursty", families::bursty(40, 4, 2.5).gen(0xBA104)),
    ];
    all.extend(
        former_fan_out_inputs()
            .into_iter()
            .map(|(name, instance, _)| (name, instance)),
    );
    all
}

#[test]
fn ladder_transcripts_are_thread_count_invariant() {
    for (name, instance) in instances() {
        let serial = solve_at_width(&instance, ProbeStrategy::Ladder, 1);
        for width in [2usize, 8] {
            let parallel = solve_at_width(&instance, ProbeStrategy::Ladder, width);
            let ctx = format!("{name} @ width {width}");
            assert_transcripts_identical(&serial, &parallel, &ctx);
        }
    }
}

/// Every probe is a max-flow solve, and the ladder keeps the Newton bound
/// of the last infeasible cut across feasible probes, so no round needs a
/// speed it has already probed (the density opener `v_lo` included).
#[test]
fn ladder_never_probes_one_speed_twice() {
    for (name, instance) in instances() {
        let sol = solve(&instance, ProbeStrategy::Ladder);
        for (r, round) in sol.rounds.iter().enumerate() {
            let mut speeds: Vec<u64> = round.probes.iter().map(|p| p.0.to_bits()).collect();
            speeds.sort_unstable();
            if let Some(w) = speeds.windows(2).find(|w| w[0] == w[1]) {
                panic!(
                    "{name}: round {r} probed speed {} twice in {:?}",
                    f64::from_bits(w[0]),
                    round.probes
                );
            }
        }
    }
}

/// Each round's upper end is the previous round's speed, feasible up to
/// boundary noise. The ladder probes it only when it would end the round on
/// it, so a round that settles strictly below it never probes it.
#[test]
fn ladder_skips_the_previous_speed_when_it_settles_below() {
    let mut checked = 0;
    for (name, instance) in instances() {
        let sol = solve(&instance, ProbeStrategy::Ladder);
        for (r, pair) in sol.rounds.windows(2).enumerate() {
            let (prev, round) = (&pair[0], &pair[1]);
            if round.speed >= prev.speed {
                continue;
            }
            checked += 1;
            assert!(
                round
                    .probes
                    .iter()
                    .all(|p| p.0.to_bits() != prev.speed.to_bits()),
                "{name}: round {} settled at {} below the previous speed {} yet probed it: {:?}",
                r + 1,
                round.speed,
                prev.speed,
                round.probes
            );
        }
    }
    assert!(checked > 0, "no round settled below its upper end");
}

/// The ladder classifies most rounds from the cut or flow its search ended
/// on; bisection always solves once more just below the critical speed.
/// Both must peel the same rounds with the same critical jobs. A saturated
/// interval may differ only at a tie, where the interval's capacity `c_j`
/// is within 1e-9 of what the round's critical jobs alive in it could take,
/// `k_j·min(|I_j|, c_j)`: there either side of the interval is a minimum
/// cut, and the flow engine's epsilon decides.
#[test]
fn ladder_classifies_like_bisection() {
    for (name, instance) in instances() {
        let ladder = solve(&instance, ProbeStrategy::Ladder);
        let bisect = solve(&instance, ProbeStrategy::Bisection);
        assert_eq!(
            ladder.rounds.len(),
            bisect.rounds.len(),
            "{name}: round count"
        );
        // Replay the ladder's capacity updates to know each round's `c_j`.
        let (mut wap, _) = Wap::from_instance(&instance);
        for (r, (lr, br)) in ladder.rounds.iter().zip(&bisect.rounds).enumerate() {
            assert_eq!(lr.jobs, br.jobs, "{name}: round {r} critical jobs");
            let alive = |j: usize| {
                let covers =
                    |&&i: &&usize| wap.window_of(i).is_some_and(|(lo, hi)| lo <= j && j <= hi);
                lr.jobs.iter().filter(covers).count() as f64
            };
            let only = |a: &[usize], b: &[usize]| -> Vec<usize> {
                a.iter().copied().filter(|j| !b.contains(j)).collect()
            };
            for j in [
                only(&lr.saturated, &br.saturated),
                only(&br.saturated, &lr.saturated),
            ]
            .concat()
            {
                let c = wap.capacity(j);
                let takes = alive(j) * wap.length(j).min(c);
                assert!(
                    (c - takes).abs() <= 1e-9 * c,
                    "{name}: round {r} interval {j} saturated by one strategy only, \
                     capacity {c} against {takes}"
                );
            }
            for &j in &lr.saturated {
                wap.set_capacity(j, 0.0);
            }
            for &i in &lr.jobs {
                let Some((lo, hi)) = wap.window_of(i) else {
                    continue;
                };
                for j in lo..=hi {
                    if wap.capacity(j) > 0.0 && !lr.saturated.contains(&j) {
                        wap.set_capacity(j, (wap.capacity(j) - wap.length(j)).max(0.0));
                    }
                }
            }
        }
    }
}

#[test]
fn bisection_transcripts_are_thread_count_invariant() {
    // Bisection probes serially regardless of width; the wall still pins it
    // so a future regression (e.g. a parallel refactor leaking into the
    // serial driver) cannot slip through.
    for (name, instance) in instances() {
        let serial = solve_at_width(&instance, ProbeStrategy::Bisection, 1);
        let parallel = solve_at_width(&instance, ProbeStrategy::Bisection, 8);
        let ctx = format!("{name} @ width 8");
        assert_transcripts_identical(&serial, &parallel, &ctx);
    }
}

#[test]
fn ladder_and_bisection_agree_on_energy() {
    for (name, instance) in instances() {
        let ladder = solve(&instance, ProbeStrategy::Ladder);
        let bisect = solve(&instance, ProbeStrategy::Bisection);
        let rel = (ladder.energy - bisect.energy).abs() / bisect.energy.max(1e-12);
        assert!(
            rel <= 1e-8,
            "{name}: strategy energies diverged beyond tolerance: ladder {} vs bisect {} (rel {rel:.3e})",
            ladder.energy,
            bisect.energy
        );
        // Both must also validate as explicit schedules.
        for (tag, sol) in [("ladder", &ladder), ("bisect", &bisect)] {
            let schedule = sol.schedule(&instance);
            let stats = schedule
                .validate(&instance, Default::default())
                .unwrap_or_else(|e| panic!("{name}/{tag}: schedule failed validation: {e}"));
            assert!(
                (stats.energy - sol.energy).abs() <= 1e-6 * sol.energy,
                "{name}/{tag}: schedule energy {} vs solver energy {}",
                stats.energy,
                sol.energy
            );
        }
    }
}

#[test]
fn ladder_budget_salvage_is_thread_count_invariant() {
    // Budget exhaustion mid-ladder takes the salvage path (fix remaining
    // jobs at the feasible bracket end); the meter is ticked once per
    // probe, so the truncation point must be width-invariant too. The full
    // solve peels 19 rounds in 21 probes; 12 runs out after 12 rounds.
    let instance = families::laminar_nested(32, 2, 2.0, 0xBA105);
    let solve_budgeted = |width: usize| {
        at_width(width, || {
            let (wap, intervals) = Wap::from_instance(&instance);
            try_bal_with_wap_strategy(
                &instance,
                wap,
                intervals,
                Budget::iterations(12),
                ProbeStrategy::Ladder,
            )
            .expect("budgeted solve must salvage")
        })
    };
    let serial = solve_budgeted(1);
    assert_eq!(
        serial.budget_exhausted,
        Some("iterations"),
        "budget must actually exhaust for the salvage wall to bite"
    );
    assert!(
        serial.rounds.len() > 1,
        "the budget must run out mid-peel, after at least one round"
    );
    for width in [2usize, 8] {
        let parallel = solve_budgeted(width);
        let ctx = format!("budget salvage @ width {width}");
        assert_transcripts_identical(&serial, &parallel, &ctx);
    }
}

/// No BAL solve starts a thread: with the width pinned at 8, every span in
/// a solve's subtree carries the thread of the span the test opened around
/// it. The subtree, not the whole trace, because other tests in this binary
/// run BAL concurrently. The energies stay the bits the former fan-out
/// produced on these inputs.
#[test]
fn bal_never_leaves_the_calling_thread() {
    let session =
        ssp_probe::Session::begin().expect("no other test in this binary opens a probe session");
    let energies: Vec<_> = at_width(8, || {
        former_fan_out_inputs()
            .into_iter()
            .map(|(name, instance, bits)| {
                let _root = ssp_probe::span("test.bal_on_one_thread");
                (name, solve(&instance, ProbeStrategy::Ladder).energy, bits)
            })
            .collect()
    });
    let trace = session.end();

    for (name, energy, bits) in energies {
        assert_eq!(energy.to_bits(), bits, "{name}: energy {energy} moved");
    }
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    for span in &trace.spans {
        children.entry(span.parent).or_default().push(span);
    }
    let roots: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "test.bal_on_one_thread")
        .collect();
    assert_eq!(roots.len(), 2, "one root span per input");
    for root in roots {
        let mut stack = vec![root.id];
        let mut bal_spans = 0;
        while let Some(id) = stack.pop() {
            for &child in children.get(&id).into_iter().flatten() {
                assert_eq!(
                    child.thread, root.thread,
                    "span {} ran on thread {}, the solve on {}",
                    child.name, child.thread, root.thread
                );
                bal_spans += usize::from(child.name == "bal");
                stack.push(child.id);
            }
        }
        assert_eq!(bal_spans, 1, "the root must enclose exactly one BAL solve");
    }
}
