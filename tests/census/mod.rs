//! The census's instances, shared by the census snapshot
//! (`bal_census.rs`) and the history-independence wall
//! (`bal_history.rs`): six families × n ∈ {20, 50, 100} × the seeds
//! `subseed(1, 0..SEEDS)`, at m = 4 and α = 2.

use ssp_model::Instance;
use ssp_workloads::{families, subseed};

/// Seeds per family and size: 4 keeps the debug-build census near a second.
pub const SEEDS: u64 = 4;
pub const SIZES: [usize; 3] = [20, 50, 100];
pub const FAMILIES: [&str; 6] = [
    "general",
    "unit_arbitrary",
    "weighted_agreeable",
    "bursty",
    "laminar_nested",
    "crossing",
];

pub fn instance(family: &str, n: usize, seed: u64) -> Instance {
    let (m, alpha) = (4, 2.0);
    match family {
        "general" => families::general(n, m, alpha).gen(seed),
        "unit_arbitrary" => families::unit_arbitrary(n, m, alpha).gen(seed),
        "weighted_agreeable" => families::weighted_agreeable(n, m, alpha).gen(seed),
        "bursty" => families::bursty(n, m, alpha).gen(seed),
        "laminar_nested" => families::laminar_nested(n, m, alpha, seed),
        "crossing" => families::crossing(n, m, alpha, seed),
        _ => unreachable!("unknown family {family}"),
    }
}

/// Every census instance's key `(family, n, seed)`, in census order.
pub fn keys() -> Vec<(&'static str, usize, u64)> {
    let mut keys = Vec::new();
    for family in FAMILIES {
        for n in SIZES {
            for k in 0..SEEDS {
                keys.push((family, n, subseed(1, k)));
            }
        }
    }
    keys
}
