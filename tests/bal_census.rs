//! The BAL census snapshot (tier-1).
//!
//! One line per solve over six families × n ∈ {20, 50, 100} × the seeds
//! `subseed(1, 0..SEEDS)`, at m = 4 and α = 2 (BAL's energy is then
//! `Σ w·s`, so no libm rounding enters it). Each line holds the instance
//! key, the bits of BAL's energy, digests of the speed bits and of the
//! speed-class partition, the bits of the harness's certified bound,
//! `flow_computations`, the `wap.solver_build` and `wap.fallback_build`
//! span counts and every `wap.*` and `maxflow.*` counter of the solve. The
//! test recomputes the census and compares it line by line with the
//! committed `results/bal_census.tsv`; on a mismatch it prints, per column,
//! how many lines moved, the largest move in ulps for the float columns and
//! the first instance that moved.
//!
//! A change that moves answers or counters on purpose rewrites the file
//! with `SSP_BLESS=1 cargo test --test bal_census` and copies the printed
//! summary into its notes. This test sits in its own binary so no other
//! test shares its probe session.

mod census;

use census::instance;
use ssp_migratory::bal::{try_bal, BalSolution};
use ssp_model::Budget;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/bal_census.tsv");

/// The columns before the counters; the first three are the instance key,
/// and `energy` and `bound` hold f64 bits.
const FIXED: [&str; 11] = [
    "family",
    "n",
    "seed",
    "energy",
    "speeds",
    "classes",
    "bound",
    "rounds",
    "flow_computations",
    "span:wap.solver_build",
    "span:wap.fallback_build",
];
const FLOAT_COLUMNS: [&str; 2] = ["energy", "bound"];

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The speed classes in output order, each as its sorted jobs.
fn partition_digest(sol: &BalSolution) -> u64 {
    let mut d = Digest::new();
    for round in &sol.rounds {
        let mut jobs = round.jobs.clone();
        jobs.sort_unstable();
        d.eat(jobs.len() as u64);
        for i in jobs {
            d.eat(i as u64);
        }
    }
    d.0
}

/// One solve's columns by name.
fn census_line(family: &str, n: usize, seed: u64) -> Vec<(String, String)> {
    let instance = instance(family, n, seed);
    let session = ssp_probe::Session::begin().expect("no other session in this binary");
    let sol = try_bal(&instance, Budget::unlimited()).expect("BAL is total on generated instances");
    let trace = session.end();
    let mut speeds = Digest::new();
    for s in sol.speeds.speeds() {
        speeds.eat(s.to_bits());
    }
    let bound = ssp_harness::certified_lower_bound(&instance, Budget::unlimited()).0;
    let mut line: Vec<(String, String)> = [
        ("family", family.to_string()),
        ("n", n.to_string()),
        ("seed", seed.to_string()),
        ("energy", format!("{:016x}", sol.energy.to_bits())),
        ("speeds", format!("{:016x}", speeds.0)),
        ("classes", format!("{:016x}", partition_digest(&sol))),
        (
            "bound",
            bound.map_or("none".into(), |b| format!("{:016x}", b.to_bits())),
        ),
        ("rounds", sol.rounds.len().to_string()),
        ("flow_computations", sol.flow_computations.to_string()),
        (
            "span:wap.solver_build",
            trace.span_count("wap.solver_build").to_string(),
        ),
        (
            "span:wap.fallback_build",
            trace.span_count("wap.fallback_build").to_string(),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for (name, value) in &trace.counters {
        if name.starts_with("wap.") || name.starts_with("maxflow.") {
            line.push((name.clone(), value.to_string()));
        }
    }
    line
}

/// The census as a header and rows over one column list: the fixed
/// columns, then every counter seen, by name. A counter absent from a
/// solve never fired there and reads 0.
fn render(lines: &[Vec<(String, String)>]) -> String {
    let counters: BTreeSet<&str> = lines
        .iter()
        .flat_map(|l| l.iter().skip(FIXED.len()).map(|(k, _)| k.as_str()))
        .collect();
    let columns: Vec<&str> = FIXED.iter().copied().chain(counters).collect();
    let mut out = columns.join("\t");
    out.push('\n');
    for line in lines {
        let cells: Vec<&str> = columns
            .iter()
            .map(|c| {
                line.iter()
                    .find(|(k, _)| k == c)
                    .map_or("0", |(_, v)| v.as_str())
            })
            .collect();
        out.push_str(&cells.join("\t"));
        out.push('\n');
    }
    out
}

/// Distance in ulps between two f64 bit patterns written in hex.
fn ulps(a: &str, b: &str) -> Option<u64> {
    let ordered = |s: &str| {
        let bits = u64::from_str_radix(s, 16).ok()?;
        let magnitude = (bits & !(1 << 63)) as i128;
        Some(if bits >> 63 == 1 {
            -magnitude
        } else {
            magnitude
        })
    };
    Some((ordered(a)? - ordered(b)?).unsigned_abs() as u64)
}

/// Per-column summary of how `fresh` moved from `committed`, or `None`
/// when they are equal line for line.
fn mismatch_summary(committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let table = |text: &str| -> (Vec<String>, Vec<Vec<String>>) {
        let mut rows = text
            .lines()
            .map(|l| l.split('\t').map(String::from).collect());
        (rows.next().unwrap_or_default(), rows.collect())
    };
    let (old_cols, old_rows) = table(committed);
    let (new_cols, new_rows) = table(fresh);
    let mut out = String::new();
    let key = |row: &[String]| row.iter().take(3).cloned().collect::<Vec<_>>().join(" ");
    let old_keys: Vec<String> = old_rows.iter().map(|r| key(r)).collect();
    let new_keys: Vec<String> = new_rows.iter().map(|r| key(r)).collect();
    if old_keys != new_keys {
        let _ = writeln!(
            out,
            "instance list differs: {} committed lines, {} recomputed",
            old_rows.len(),
            new_rows.len()
        );
        return Some(out);
    }
    let mut columns: Vec<&String> = old_cols.iter().collect();
    columns.extend(new_cols.iter().filter(|c| !old_cols.contains(c)));
    let cell = |cols: &[String], row: &[String], c: &str| {
        cols.iter()
            .position(|k| k == c)
            .and_then(|p| row.get(p).cloned())
            .unwrap_or_else(|| "0".into())
    };
    let _ = writeln!(
        out,
        "{:<32} {:>6} {:>12}  first moved",
        "column", "moved", "max ulps"
    );
    for column in columns {
        let (mut moved, mut max_ulps, mut first) = (0, None::<u64>, None);
        for (k, (o, n)) in old_rows.iter().zip(&new_rows).enumerate() {
            let (a, b) = (cell(&old_cols, o, column), cell(&new_cols, n, column));
            if a == b {
                continue;
            }
            moved += 1;
            first.get_or_insert_with(|| format!("{} ({a} -> {b})", old_keys[k]));
            if FLOAT_COLUMNS.contains(&column.as_str()) {
                if let Some(u) = ulps(&a, &b) {
                    max_ulps = Some(max_ulps.map_or(u, |m| m.max(u)));
                }
            }
        }
        if moved > 0 {
            let ulps = max_ulps.map_or("-".to_string(), |u| u.to_string());
            let first = first.unwrap_or_default();
            let _ = writeln!(out, "{column:<32} {moved:>6} {ulps:>12}  {first}");
        }
    }
    Some(out)
}

#[test]
fn bal_census_matches_the_committed_snapshot() {
    let lines: Vec<_> = census::keys()
        .into_iter()
        .map(|(family, n, seed)| census_line(family, n, seed))
        .collect();
    let fresh = render(&lines);
    if std::env::var_os("SSP_BLESS").is_some() {
        std::fs::write(SNAPSHOT, &fresh).expect("write the census snapshot");
        return;
    }
    let committed = std::fs::read_to_string(SNAPSHOT).unwrap_or_default();
    if let Some(summary) = mismatch_summary(&committed, &fresh) {
        panic!(
            "the BAL census moved from {SNAPSHOT}; rerun with SSP_BLESS=1 to accept:\n{summary}"
        );
    }
}
