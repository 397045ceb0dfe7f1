//! EXP-19 — oracle-backed local search: old vs new kernel transcripts.
//!
//! This PR routed every non-migratory energy query through the fast YDS
//! kernel and the incremental [`YdsEval`] oracle (memoized per-machine
//! energies, certified candidate rejection). The search trajectory is
//! deliberately bit-identical to the retained reference: same RNG
//! stream, same accept/reject decisions, same final assignment. This
//! runner replays identical-seed local-search transcripts through
//! [`improve_reference`] (per-candidate `Vec<Job>` + reference peel) and
//! [`improve`] (oracle path) on the general workload family and compares
//! peel work (probe counter `yds.peels`) and wall time.
//!
//! Asserted acceptance (full mode, n = 800): identical final energies
//! bit-for-bit with at least **5×** fewer peel operations and at least
//! **3×** lower wall time. Quick mode asserts only the transcript
//! identity (tiny instances cannot show the asymptotic gap).
//!
//! The n = 1600 row caps the evaluations (same cap on both sides, so
//! the transcripts stay aligned) to keep the cubic reference run
//! bounded; the ratios it reports are per-transcript, not per-instance.
//!
//! [`YdsEval`]: ssp_core::YdsEval
//! [`improve`]: ssp_core::improve
//! [`improve_reference`]: ssp_core::local_search::improve_reference

use crate::table::{Cell, Table};
use crate::RunCfg;
use ssp_core::local_search::{improve_reference, LocalSearchResult};
use ssp_core::rr::rr_assignment;
use ssp_core::{improve, Assignment, LocalSearchOptions};
use ssp_model::{Budget, Instance};
use ssp_workloads::{families, subseed};
use std::time::Instant;

/// Acceptance thresholds at the n = 800 anchor (full mode).
const MIN_PEEL_RATIO: f64 = 5.0;
const MIN_WALL_RATIO: f64 = 3.0;
/// The size whose row carries the asserted acceptance.
const ANCHOR_N: usize = 800;
/// Evaluation cap for the n = 1600 row (cost control on the reference
/// side; identical on both sides so the transcripts match).
const CAP_N1600: u64 = 25_000;

/// One measured local-search run: wall ms plus `yds.peels` delta.
fn run_side(
    instance: &Instance,
    start: &Assignment,
    opts: LocalSearchOptions,
    reference: bool,
) -> (LocalSearchResult, f64, u64) {
    let p0 = ssp_probe::counter_value("yds.peels");
    let t0 = Instant::now();
    let res = if reference {
        improve_reference(instance, start, opts)
    } else {
        improve(instance, start, opts)
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (res, ms, ssp_probe::counter_value("yds.peels") - p0)
}

/// Run EXP-19.
pub fn run(cfg: &RunCfg) -> Vec<Table> {
    // Peel deltas need an active probe session.
    let own_session = ssp_probe::Session::begin();

    let mut t = Table::new(
        "EXP-19 — local search, reference peel vs YdsEval oracle (m=4, alpha=2, general family, identical seeds)",
        &[
            "n",
            "evals",
            "moves",
            "ref peels",
            "oracle peels",
            "peel ratio",
            "ref ms",
            "oracle ms",
            "speedup",
            "final energy",
        ],
    );
    let sizes: Vec<usize> = cfg.pick(vec![200, 400, 800, 1600], vec![30, 60]);
    let mut anchor: Option<(f64, f64)> = None;
    for &n in &sizes {
        let inst = families::general(n, 4, 2.0).gen(subseed(cfg.seed ^ 0x19, n as u64));
        let start = rr_assignment(&inst);
        let opts = LocalSearchOptions {
            budget: if n >= 1600 {
                Budget::iterations(CAP_N1600)
            } else {
                LocalSearchOptions::default().budget
            },
            seed: subseed(cfg.seed ^ 0x91, n as u64),
            ..Default::default()
        };
        let (ref_res, ref_ms, ref_peels) = run_side(&inst, &start, opts.clone(), true);
        let (new_res, new_ms, new_peels) = run_side(&inst, &start, opts, false);
        assert_eq!(
            ref_res.energy.to_bits(),
            new_res.energy.to_bits(),
            "n={n}: final energies diverged, reference {} vs oracle {}",
            ref_res.energy,
            new_res.energy
        );
        assert_eq!(
            (ref_res.evaluations, ref_res.improvements),
            (new_res.evaluations, new_res.improvements),
            "n={n}: transcripts diverged"
        );
        let peel_ratio = ref_peels as f64 / new_peels.max(1) as f64;
        let speedup = ref_ms / new_ms.max(1e-9);
        if n == ANCHOR_N {
            anchor = Some((peel_ratio, speedup));
        }
        t.push(vec![
            n.into(),
            ref_res.evaluations.into(),
            ref_res.improvements.into(),
            Cell::Int(ref_peels as i64),
            Cell::Int(new_peels as i64),
            Cell::Num(peel_ratio, 2),
            Cell::Num(ref_ms, 1),
            Cell::Num(new_ms, 1),
            Cell::Num(speedup, 2),
            Cell::Num(new_res.energy, 3),
        ]);
    }
    if !cfg.quick {
        let (peel_ratio, speedup) =
            anchor.expect("full-mode size sweep must include the n=800 anchor");
        assert!(
            peel_ratio >= MIN_PEEL_RATIO,
            "n={ANCHOR_N}: oracle saved only {peel_ratio:.2}x peels; \
             EXP-19 requires >= {MIN_PEEL_RATIO}x"
        );
        assert!(
            speedup >= MIN_WALL_RATIO,
            "n={ANCHOR_N}: oracle is only {speedup:.2}x faster; \
             EXP-19 requires >= {MIN_WALL_RATIO}x"
        );
    }
    if let Some(s) = own_session {
        let _ = s.end();
    }
    vec![t]
}
