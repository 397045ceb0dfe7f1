//! Local-search improvement of job→machine assignments.
//!
//! The constructive policies (RR, classified, relax-and-round, greedy) each
//! leave a few percent on the table; a standard move/swap local search with
//! per-machine YDS re-evaluation closes most of it. The search is exact
//! hill-climbing (first-improvement over a randomized move order), so the
//! result is a *local* optimum under the move set:
//!
//! * **move** — reassign one job to another machine;
//! * **swap** — exchange the machines of two jobs.
//!
//! Evaluation is incremental: a move touches two machines, so only their two
//! YDS energies are recomputed — and since PR 4 those recomputations go
//! through the [`crate::eval::YdsEval`] oracle, which memoizes per-machine
//! energies by ordered job list. The from-side of a move (shared by all
//! `m-1` targets), re-priced candidates of a stale pass, and the two sides
//! of a swap all become cache hits instead of fresh YDS runs; candidate
//! buffers (`job_order`, `machine_order`, `pairs`) are reused across passes
//! instead of reallocated per job. The RNG call sequence, the accept/reject
//! arithmetic, and the group-order evolution are identical to the retained
//! [`improve_reference`] implementation, so both produce the same transcript
//! and the same final assignment bit for bit (asserted by EXP-19). With
//! seeded randomization the search is deterministic, and it can never return
//! something worse than its seed assignment (asserted).

use crate::assignment::Assignment;
use crate::eval::{Candidate, YdsEval};
use ssp_model::resource::Budget;
use ssp_model::{Instance, Job};
use ssp_prng::rngs::StdRng;
use ssp_prng::seq::SliceRandom;
use ssp_prng::SeedableRng;
use ssp_single::yds::yds_reference;

/// Options for [`improve`].
#[derive(Debug, Clone)]
pub struct LocalSearchOptions {
    /// Stop after this many full passes without improvement (1 = plain
    /// hill-climbing to the first local optimum).
    pub max_stale_passes: usize,
    /// Caps the search: one iteration per candidate move examined (strict:
    /// the search never evaluates more candidates than `max_iterations`),
    /// and a deadline shared with the caller's other solver phases. Either
    /// is an early exit, not an error: the best assignment found so far is
    /// returned with [`LocalSearchResult::budget_exhausted`] set.
    pub budget: Budget,
    /// RNG seed for the move order.
    pub seed: u64,
}

impl Default for LocalSearchOptions {
    fn default() -> Self {
        LocalSearchOptions {
            max_stale_passes: 1,
            budget: Budget::iterations(2_000_000),
            seed: 0x5EA7,
        }
    }
}

/// Result of a local search run.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// The improved assignment (== seed assignment if no move helped).
    pub assignment: Assignment,
    /// Its energy.
    pub energy: f64,
    /// Energy of the seed assignment.
    pub initial_energy: f64,
    /// Number of improving moves applied.
    pub improvements: usize,
    /// Number of candidate moves evaluated.
    pub evaluations: usize,
    /// Which budget stopped the search early (`"iterations"` for the
    /// evaluation cap, `"deadline"` for the deadline), if any. The result is
    /// still valid and no worse than the seed assignment.
    pub budget_exhausted: Option<&'static str>,
}

/// Hill-climb from `seed_assignment` under move+swap neighborhoods.
///
/// Candidate energies are priced through the [`YdsEval`] oracle; the search
/// trajectory (RNG sequence, accept/reject decisions, group orders) is
/// identical to [`improve_reference`]'s, only faster.
pub fn improve(
    instance: &Instance,
    seed_assignment: &Assignment,
    opts: LocalSearchOptions,
) -> LocalSearchResult {
    let _span = ssp_probe::span("local_search");
    let n = instance.len();
    let m = instance.machines();
    assert_eq!(seed_assignment.len(), n, "assignment length mismatch");

    let mut eval = YdsEval::with_assignment(instance, seed_assignment);
    let initial_energy: f64 = eval.total_energy();
    let mut total: f64 = initial_energy;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut improvements = 0usize;
    let mut evaluations = 0usize;
    let mut stale = 0usize;
    let mut meter = opts.budget.meter();

    // Candidate buffers, allocated once and refilled per pass/job. The
    // shuffles always start from the same deterministic contents the
    // reference implementation constructed, so RNG consumption matches.
    let mut job_order: Vec<usize> = Vec::with_capacity(n);
    let mut machine_order: Vec<usize> = Vec::with_capacity(m.saturating_sub(1));
    let mut pairs: Vec<(usize, usize)> = Vec::new();

    while stale < opts.max_stale_passes && meter.exhausted().is_none() && m > 1 {
        ssp_probe::counter!("local_search.passes");
        let mut improved_this_pass = false;

        // Move neighborhood.
        job_order.clear();
        job_order.extend(0..n);
        job_order.shuffle(&mut rng);
        for &i in &job_order {
            if meter.exhausted().is_some() {
                break;
            }
            let from = eval.machine_of(i);
            machine_order.clear();
            machine_order.extend((0..m).filter(|&p| p != from));
            machine_order.shuffle(&mut rng);
            for &to in &machine_order {
                if !meter.tick() {
                    break;
                }
                evaluations += 1;
                let mv = Candidate::Move { job: i, to };
                // A certified rejection proves the exact delta would fail
                // the accept test below, so skipping is transcript-neutral.
                if eval.certified_reject(mv) {
                    continue;
                }
                let delta = eval.delta_energy(mv);
                if delta < -1e-12 * total.max(1.0) {
                    eval.apply(mv);
                    total += delta;
                    improvements += 1;
                    improved_this_pass = true;
                    break;
                }
            }
        }

        // Swap neighborhood (random sample of pairs on different machines).
        pairs.clear();
        for a in 0..n {
            for b in (a + 1)..n {
                if eval.machine_of(a) != eval.machine_of(b) {
                    pairs.push((a, b));
                }
            }
        }
        pairs.shuffle(&mut rng);
        for &(a, b) in pairs.iter().take(4 * n) {
            // Earlier accepted swaps in this pass can put a sampled pair on
            // one machine; such a pair is no longer a swap — skip it.
            if eval.machine_of(a) == eval.machine_of(b) {
                continue;
            }
            if !meter.tick() {
                break;
            }
            evaluations += 1;
            let swap = Candidate::Swap { a, b };
            if eval.certified_reject(swap) {
                continue;
            }
            let delta = eval.delta_energy(swap);
            if delta < -1e-12 * total.max(1.0) {
                eval.apply(swap);
                total += delta;
                improvements += 1;
                improved_this_pass = true;
            }
        }

        if improved_this_pass {
            stale = 0;
        } else {
            stale += 1;
        }
    }

    ssp_probe::counter!("local_search.evaluations", evaluations as u64);
    ssp_probe::counter!("local_search.moves_accepted", improvements as u64);
    ssp_probe::counter!(
        "local_search.moves_rejected",
        (evaluations - improvements) as u64
    );
    ssp_probe::counter!("local_search.budget_used", meter.used());
    let assignment = eval.assignment();
    let energy_final = crate::assignment::assignment_energy(instance, &assignment);
    assert!(
        energy_final <= initial_energy * (1.0 + 1e-9),
        "local search made things worse: {energy_final} vs {initial_energy}"
    );
    LocalSearchResult {
        assignment,
        energy: energy_final,
        initial_energy,
        improvements,
        evaluations,
        budget_exhausted: meter.exhausted(),
    }
}

/// The pre-oracle implementation, retained verbatim as the differential
/// baseline: per candidate it materializes the touched machines' `Vec<Job>`
/// and re-runs the reference YDS peel from scratch. EXP-19 replays
/// identical seeds through this and [`improve`] and asserts identical final
/// energies with a ≥5× reduction in peel operations. Not for production use.
pub fn improve_reference(
    instance: &Instance,
    seed_assignment: &Assignment,
    opts: LocalSearchOptions,
) -> LocalSearchResult {
    let _span = ssp_probe::span("local_search");
    let n = instance.len();
    let m = instance.machines();
    let mut machine_of: Vec<usize> = seed_assignment.as_slice().to_vec();
    assert_eq!(machine_of.len(), n, "assignment length mismatch");

    // Per-machine job lists and energies.
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (i, &p) in machine_of.iter().enumerate() {
        groups[p].push(i);
    }
    let eval = |group: &[usize]| -> f64 {
        let jobs: Vec<Job> = group.iter().map(|&i| *instance.job(i)).collect();
        yds_reference(&jobs, instance.alpha()).energy
    };
    let mut energy: Vec<f64> = groups.iter().map(|g| eval(g)).collect();
    let initial_energy: f64 = energy.iter().sum();
    let mut total: f64 = initial_energy;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut improvements = 0usize;
    let mut evaluations = 0usize;
    let mut stale = 0usize;
    let mut meter = opts.budget.meter();

    while stale < opts.max_stale_passes && meter.exhausted().is_none() && m > 1 {
        ssp_probe::counter!("local_search.passes");
        let mut improved_this_pass = false;

        // Move neighborhood.
        let mut job_order: Vec<usize> = (0..n).collect();
        job_order.shuffle(&mut rng);
        for &i in &job_order {
            if meter.exhausted().is_some() {
                break;
            }
            let from = machine_of[i];
            let mut machine_order: Vec<usize> = (0..m).filter(|&p| p != from).collect();
            machine_order.shuffle(&mut rng);
            for &to in &machine_order {
                if !meter.tick() {
                    break;
                }
                evaluations += 1;
                // Tentatively move i: from loses it, to gains it.
                let from_group: Vec<usize> =
                    groups[from].iter().copied().filter(|&k| k != i).collect();
                let mut to_group = groups[to].clone();
                to_group.push(i);
                let (e_from, e_to) = (eval(&from_group), eval(&to_group));
                let delta = e_from + e_to - energy[from] - energy[to];
                if delta < -1e-12 * total.max(1.0) {
                    groups[from] = from_group;
                    groups[to] = to_group;
                    energy[from] = e_from;
                    energy[to] = e_to;
                    machine_of[i] = to;
                    total += delta;
                    improvements += 1;
                    improved_this_pass = true;
                    break;
                }
            }
        }

        // Swap neighborhood (random sample of pairs on different machines).
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if machine_of[a] != machine_of[b] {
                    pairs.push((a, b));
                }
            }
        }
        pairs.shuffle(&mut rng);
        for &(a, b) in pairs.iter().take(4 * n) {
            let (pa, pb) = (machine_of[a], machine_of[b]);
            // Earlier accepted swaps in this pass can put a sampled pair on
            // one machine; pricing it would corrupt the group lists — skip.
            if pa == pb {
                continue;
            }
            if !meter.tick() {
                break;
            }
            evaluations += 1;
            let ga: Vec<usize> = groups[pa]
                .iter()
                .copied()
                .filter(|&k| k != a)
                .chain(std::iter::once(b))
                .collect();
            let gb: Vec<usize> = groups[pb]
                .iter()
                .copied()
                .filter(|&k| k != b)
                .chain(std::iter::once(a))
                .collect();
            let (ea, eb) = (eval(&ga), eval(&gb));
            let delta = ea + eb - energy[pa] - energy[pb];
            if delta < -1e-12 * total.max(1.0) {
                groups[pa] = ga;
                groups[pb] = gb;
                energy[pa] = ea;
                energy[pb] = eb;
                machine_of.swap(a, b);
                total += delta;
                improvements += 1;
                improved_this_pass = true;
            }
        }

        if improved_this_pass {
            stale = 0;
        } else {
            stale += 1;
        }
    }

    ssp_probe::counter!("local_search.evaluations", evaluations as u64);
    ssp_probe::counter!("local_search.moves_accepted", improvements as u64);
    ssp_probe::counter!(
        "local_search.moves_rejected",
        (evaluations - improvements) as u64
    );
    ssp_probe::counter!("local_search.budget_used", meter.used());
    let assignment = Assignment::new(machine_of);
    let energy_final = crate::assignment::assignment_energy(instance, &assignment);
    assert!(
        energy_final <= initial_energy * (1.0 + 1e-9),
        "local search made things worse: {energy_final} vs {initial_energy}"
    );
    LocalSearchResult {
        assignment,
        energy: energy_final,
        initial_energy,
        improvements,
        evaluations,
        budget_exhausted: meter.exhausted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::assignment_energy;
    use crate::exact::exact_nonmigratory;
    use crate::rr::rr_assignment;
    use ssp_workloads::families;
    use std::time::{Duration, Instant};

    #[test]
    fn oracle_path_replays_the_reference_transcript_bitwise() {
        // Same seeds through the oracle-backed `improve` and the retained
        // `improve_reference`: identical trajectories end to end.
        for (seed, n, m) in [(1u64, 18usize, 3usize), (7, 24, 4), (13, 12, 2)] {
            let inst = families::general(n, m, 2.3).gen(seed);
            let start = rr_assignment(&inst);
            let opts = LocalSearchOptions {
                max_stale_passes: 2,
                seed: seed ^ 0xABCD,
                ..Default::default()
            };
            let new = improve(&inst, &start, opts.clone());
            let old = improve_reference(&inst, &start, opts);
            assert_eq!(new.assignment, old.assignment, "seed {seed}");
            assert_eq!(new.energy.to_bits(), old.energy.to_bits(), "seed {seed}");
            assert_eq!(
                new.initial_energy.to_bits(),
                old.initial_energy.to_bits(),
                "seed {seed}"
            );
            assert_eq!(new.evaluations, old.evaluations, "seed {seed}");
            assert_eq!(new.improvements, old.improvements, "seed {seed}");
        }
    }

    #[test]
    fn never_worse_than_the_seed() {
        for seed in [1u64, 2, 3] {
            let inst = families::general(14, 3, 2.5).gen(seed);
            let start = rr_assignment(&inst);
            let res = improve(&inst, &start, Default::default());
            assert!(res.energy <= assignment_energy(&inst, &start) * (1.0 + 1e-9));
            assert!(res.energy >= ssp_migratory::bal::bal(&inst).energy * (1.0 - 1e-6));
        }
    }

    #[test]
    fn repairs_a_deliberately_bad_assignment() {
        // Pile everything on machine 0 — local search must spread it out.
        let inst = families::general(10, 4, 2.0).gen(7);
        let bad = Assignment::new(vec![0; 10]);
        let res = improve(&inst, &bad, Default::default());
        assert!(
            res.improvements > 0,
            "no improving move found from a pileup?"
        );
        assert!(
            res.energy < res.initial_energy * 0.9,
            "expected a large repair: {} -> {}",
            res.initial_energy,
            res.energy
        );
    }

    #[test]
    fn close_to_the_exact_optimum_on_small_instances() {
        // Hill-climbing finds a *local* optimum: require the global optimum
        // in at least half the trials and within 5 % always.
        let mut hits = 0;
        let trials = 6;
        for seed in 0..trials as u64 {
            let inst = families::general(8, 2, 2.0).gen(seed);
            let res = improve(
                &inst,
                &rr_assignment(&inst),
                LocalSearchOptions {
                    max_stale_passes: 2,
                    ..Default::default()
                },
            );
            let opt = exact_nonmigratory(&inst).energy;
            assert!(res.energy >= opt * (1.0 - 1e-9));
            assert!(
                res.energy <= opt * 1.05,
                "seed {seed}: local optimum {} far from global {opt}",
                res.energy
            );
            if res.energy <= opt * (1.0 + 1e-6) {
                hits += 1;
            }
        }
        assert!(
            hits * 2 >= trials,
            "local search should often find the optimum on n=8: {hits}/{trials}"
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let inst = families::general(12, 3, 2.0).gen(11);
        let start = rr_assignment(&inst);
        let a = improve(&inst, &start, Default::default());
        let b = improve(&inst, &start, Default::default());
        assert_eq!(a.assignment, b.assignment);
        let c = improve(
            &inst,
            &start,
            LocalSearchOptions {
                seed: 999,
                ..Default::default()
            },
        );
        // Different seed may or may not differ, but must still be no worse.
        assert!(c.energy <= a.initial_energy * (1.0 + 1e-9));
    }

    #[test]
    fn single_machine_is_a_noop() {
        let inst = families::general(6, 1, 2.0).gen(3);
        let start = rr_assignment(&inst);
        let res = improve(&inst, &start, Default::default());
        assert_eq!(res.improvements, 0);
        assert_eq!(res.evaluations, 0);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let inst = families::general(20, 4, 2.0).gen(5);
        let res = improve(
            &inst,
            &Assignment::new(vec![0; 20]),
            LocalSearchOptions {
                budget: Budget::iterations(25),
                ..Default::default()
            },
        );
        assert!(
            res.evaluations <= 25,
            "strict cap violated: {}",
            res.evaluations
        );
        assert_eq!(res.budget_exhausted, Some("iterations"));
        // Even a capped run must not be worse than its seed (asserted inside
        // `improve` too, but make the contract visible here).
        assert!(res.energy <= res.initial_energy * (1.0 + 1e-9));
    }

    #[test]
    fn uncapped_run_reports_no_exhaustion() {
        let inst = families::general(10, 3, 2.0).gen(2);
        let res = improve(&inst, &rr_assignment(&inst), Default::default());
        assert_eq!(res.budget_exhausted, None);
    }

    #[test]
    fn expired_deadline_returns_the_seed_assignment() {
        let inst = families::general(16, 4, 2.0).gen(9);
        let start = rr_assignment(&inst);
        let res = improve(
            &inst,
            &start,
            LocalSearchOptions {
                budget: Budget::unlimited()
                    .with_deadline(Instant::now() - Duration::from_millis(1)),
                ..Default::default()
            },
        );
        assert_eq!(res.budget_exhausted, Some("deadline"));
        assert_eq!(res.evaluations, 0);
        assert_eq!(res.assignment, start);
    }
}
