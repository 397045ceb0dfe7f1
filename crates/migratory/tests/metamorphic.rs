//! Metamorphic tests for BAL: closed-form α-power-law transforms.
//!
//! The energy objective `Σ w_i s_i^(α−1)` gives the optimum exact scaling
//! laws under instance transforms, independent of any particular optimal
//! schedule:
//!
//! * **time scaling** — stretching every release and deadline by `k`
//!   divides every optimal speed by `k`, so the optimal energy scales by
//!   `k^(1−α)`;
//! * **work scaling** — multiplying every work by `c` multiplies every
//!   optimal speed by `c`, so the energy scales by `c^α`;
//! * **machine monotonicity** — adding a machine relaxes the feasible set,
//!   so the optimal energy never increases.
//!
//! Each law is checked on seeded random instances under the property
//! runner, exercising the whole decomposition stack end to end: a
//! violation of any law would expose an incorrect class speed.

use ssp_migratory::bal::bal;
use ssp_model::{Instance, Job};
use ssp_prng::{check, Rng, StdRng};
use ssp_workloads::families;

/// Draw a small random instance from the general family.
fn random_instance(rng: &mut StdRng) -> Instance {
    let n = rng.gen_range(4usize..25);
    let m = rng.gen_range(1usize..5);
    let alpha = rng.gen_range(1.5f64..3.5);
    families::general(n, m, alpha).gen(rng.next_u64())
}

/// Rebuild an instance with transformed jobs (same machines and alpha
/// unless overridden).
fn rebuild(instance: &Instance, machines: usize, f: impl Fn(&Job) -> Job) -> Instance {
    let jobs: Vec<Job> = instance.jobs().iter().map(f).collect();
    Instance::new(jobs, machines, instance.alpha()).expect("transformed instance stays valid")
}

#[test]
fn time_axis_scaling_transforms_energy_by_k_pow_one_minus_alpha() {
    check::cases(24, 0x3E7A_0001, |rng| {
        let instance = random_instance(rng);
        let k = rng.gen_range(0.25f64..4.0);
        let scaled = rebuild(&instance, instance.machines(), |j| {
            Job::new(j.id.0, j.work, j.release * k, j.deadline * k)
        });
        let base = bal(&instance).energy;
        let transformed = bal(&scaled).energy;
        let expect = base * k.powf(1.0 - instance.alpha());
        assert!(
            (transformed - expect).abs() <= 1e-6 * expect,
            "time scale {k}: energy {transformed} vs closed form {expect} (base {base})"
        );
    });
}

#[test]
fn uniform_work_scaling_transforms_energy_by_c_pow_alpha() {
    check::cases(24, 0x3E7A_0002, |rng| {
        let instance = random_instance(rng);
        let c = rng.gen_range(0.25f64..4.0);
        let scaled = rebuild(&instance, instance.machines(), |j| {
            Job::new(j.id.0, j.work * c, j.release, j.deadline)
        });
        let base = bal(&instance).energy;
        let transformed = bal(&scaled).energy;
        let expect = base * c.powf(instance.alpha());
        assert!(
            (transformed - expect).abs() <= 1e-6 * expect,
            "work scale {c}: energy {transformed} vs closed form {expect} (base {base})"
        );
    });
}

#[test]
fn adding_a_machine_never_increases_energy() {
    check::cases(24, 0x3E7A_0003, |rng| {
        let instance = random_instance(rng);
        let more = rebuild(&instance, instance.machines() + 1, Clone::clone);
        let base = bal(&instance).energy;
        let relaxed = bal(&more).energy;
        assert!(
            relaxed <= base * (1.0 + 1e-9),
            "m {} → {}: energy rose {base} → {relaxed}",
            instance.machines(),
            instance.machines() + 1
        );
    });
}

/// The two scaling laws compose: scaling time by `k` and work by `c`
/// multiplies the energy by `c^α · k^(1−α)`. In particular `c = k` models a
/// pure change of units, with energy factor `k`.
#[test]
fn composed_scaling_matches_product_of_factors() {
    check::cases(16, 0x3E7A_0004, |rng| {
        let instance = random_instance(rng);
        let k = rng.gen_range(0.5f64..2.0);
        let scaled = rebuild(&instance, instance.machines(), |j| {
            Job::new(j.id.0, j.work * k, j.release * k, j.deadline * k)
        });
        let base = bal(&instance).energy;
        let transformed = bal(&scaled).energy;
        let expect = base * k;
        assert!(
            (transformed - expect).abs() <= 1e-6 * expect,
            "unit scale {k}: energy {transformed} vs {expect}"
        );
    });
}
