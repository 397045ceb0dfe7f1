//! Floating-point comparison policy for the whole workspace.
//!
//! Scheduling with continuous speeds is inherently a real-valued problem; the
//! papers assume exact arithmetic. We use `f64` everywhere and funnel *every*
//! tolerant comparison through this module so that numeric behaviour is
//! uniform and auditable. The default tolerance is **relative** (`1e-9`),
//! falling back to an absolute floor for quantities near zero.
//!
//! Algorithms that binary-search a speed or a makespan (the minimum peak
//! speed, MBAL) use the tighter [`BINARY_SEARCH_REL_WIDTH`] so that
//! downstream tolerant checks (validators, KKT certificates) have headroom
//! over the search error.

/// Default relative tolerance for "are these two model quantities equal".
pub const REL_EPS: f64 = 1e-9;

/// Absolute floor used when both operands are close to zero (where a relative
/// test is meaningless).
pub const ABS_EPS: f64 = 1e-12;

/// Relative interval width at which speed/makespan binary searches stop.
/// Two decades tighter than [`REL_EPS`] so certified post-checks pass.
pub const BINARY_SEARCH_REL_WIDTH: f64 = 1e-12;

/// A tolerance bundle: relative part scaled by operand magnitude plus an
/// absolute floor. `Tol::default()` is the workspace-wide default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tol {
    /// Relative component, scaled by `max(|a|, |b|)`.
    pub rel: f64,
    /// Absolute floor.
    pub abs: f64,
}

impl Default for Tol {
    fn default() -> Self {
        Tol {
            rel: REL_EPS,
            abs: ABS_EPS,
        }
    }
}

impl Tol {
    /// A tolerance with the given relative component and the default absolute
    /// floor.
    pub fn rel(rel: f64) -> Self {
        Tol { rel, abs: ABS_EPS }
    }

    /// A loose tolerance for end-to-end assertions on accumulated quantities
    /// (total energy, total work): `1e-6` relative.
    pub fn loose() -> Self {
        Tol {
            rel: 1e-6,
            abs: 1e-9,
        }
    }

    /// The margin this tolerance allows at magnitude `scale`.
    pub fn margin(&self, scale: f64) -> f64 {
        self.abs.max(self.rel * scale.abs())
    }

    /// `a == b` up to this tolerance.
    pub fn eq(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.margin(a.abs().max(b.abs()))
    }

    /// `a <= b` up to this tolerance (i.e. `a` may exceed `b` by the margin).
    pub fn le(&self, a: f64, b: f64) -> bool {
        a <= b + self.margin(a.abs().max(b.abs()))
    }

    /// `a >= b` up to this tolerance.
    pub fn ge(&self, a: f64, b: f64) -> bool {
        self.le(b, a)
    }

    /// Strictly less: `a < b` by *more* than the margin.
    pub fn lt(&self, a: f64, b: f64) -> bool {
        !self.ge(a, b)
    }

    /// Strictly greater: `a > b` by *more* than the margin.
    pub fn gt(&self, a: f64, b: f64) -> bool {
        !self.le(a, b)
    }

    /// Is `x` zero up to the tolerance (at scale `scale`)?
    pub fn is_zero_at(&self, x: f64, scale: f64) -> bool {
        x.abs() <= self.margin(scale)
    }
}

/// Convenience: default-tolerance equality.
pub fn approx_eq(a: f64, b: f64) -> bool {
    Tol::default().eq(a, b)
}

/// Convenience: default-tolerance `a <= b`.
pub fn approx_le(a: f64, b: f64) -> bool {
    Tol::default().le(a, b)
}

/// Convenience: default-tolerance `a >= b`.
pub fn approx_ge(a: f64, b: f64) -> bool {
    Tol::default().ge(a, b)
}

/// Relative difference `|a-b| / max(|a|,|b|,1e-300)`; `0` for `a == b == 0`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Power `s^alpha` for speeds. `alpha` is typically in `(1, 3]`; `powf` is
/// accurate enough at our tolerance and this wrapper centralizes the choice.
#[inline]
pub fn pow_alpha(s: f64, alpha: f64) -> f64 {
    debug_assert!(s >= 0.0, "speed must be nonnegative, got {s}");
    s.powf(alpha)
}

/// Energy of running `work` units at constant speed `s`: `work * s^(alpha-1)`.
/// Returns `0` for zero work regardless of speed (so that jobs of zero
/// residual work never contribute NaNs).
#[inline]
pub fn energy_of(work: f64, s: f64, alpha: f64) -> f64 {
    if work == 0.0 {
        0.0
    } else {
        work * pow_alpha(s, alpha - 1.0)
    }
}

/// Batched total energy `Σ_i energy_of(works[i], speeds[i], alpha)`.
///
/// The hot summation of the YDS peel and the `YdsEval` memo oracle: one
/// pass over two flat `f64` slices with four independent accumulator
/// lanes, so the adds pipeline (and auto-vectorize) instead of serializing
/// on one register. The common exponents `α = 2` and `α = 3` reduce the
/// inner `powf` to zero or one multiply.
///
/// Determinism: the lane structure is a function of `works.len()` only, so
/// the result is bit-stable for a given input — but it intentionally
/// differs from naive left-to-right order. Callers pinning bit-identity
/// must route *every* compared path through this function (as the YDS
/// kernels do).
pub fn energy_sum(works: &[f64], speeds: &[f64], alpha: f64) -> f64 {
    assert_eq!(works.len(), speeds.len(), "works/speeds length mismatch");
    debug_assert!(alpha > 1.0);
    if alpha == 2.0 {
        energy_sum_with(works, speeds, |s| s)
    } else if alpha == 3.0 {
        energy_sum_with(works, speeds, |s| s * s)
    } else {
        let e = alpha - 1.0;
        energy_sum_with(works, speeds, |s| s.powf(e))
    }
}

/// The lane-structured kernel behind [`energy_sum`]. Zero-work entries
/// contribute exactly `0` regardless of speed (mirroring [`energy_of`]'s
/// NaN guard: a zero-residual job may carry speed `0` and `0 * 0^e` would
/// otherwise poison the sum at fractional exponents).
#[inline(always)]
fn energy_sum_with(works: &[f64], speeds: &[f64], pow: impl Fn(f64) -> f64) -> f64 {
    let mut acc = [0.0f64; 4];
    let head = works.len() & !3;
    for (w4, s4) in works[..head]
        .chunks_exact(4)
        .zip(speeds[..head].chunks_exact(4))
    {
        for k in 0..4 {
            acc[k] += if w4[k] == 0.0 {
                0.0
            } else {
                w4[k] * pow(s4[k])
            };
        }
    }
    for (k, (&w, &s)) in works[head..].iter().zip(&speeds[head..]).enumerate() {
        acc[k] += if w == 0.0 { 0.0 } else { w * pow(s) };
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Generic tolerant binary search for the smallest `x` in `[lo, hi]` with
/// `feasible(x)`; requires `feasible(hi)` (checked) and assumes monotonicity.
/// Returns `(last_infeasible, first_feasible)` bracketing the threshold with
/// relative width `rel_width`. If `feasible(lo)`, returns `(lo, lo)`.
///
/// The primitive behind the minimum peak speed and the MBAL makespan
/// search. Panics on a bad bracket: `lo > hi`, a non-finite bound, or an
/// infeasible `hi`.
pub fn bisect_threshold(
    mut lo: f64,
    mut hi: f64,
    rel_width: f64,
    mut feasible: impl FnMut(f64) -> bool,
) -> (f64, f64) {
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "bisect_threshold: bisection bracket [{lo}, {hi}] is not a finite interval"
    );
    assert!(
        feasible(hi),
        "bisect_threshold: bisection upper bound must be feasible, {hi} is not"
    );
    if feasible(lo) {
        return (lo, lo);
    }
    // Invariant: !feasible(lo) && feasible(hi).
    while hi - lo > rel_width * hi.abs().max(1e-300) {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // f64 exhausted
        }
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tol_eq_respects_relative_scale() {
        let t = Tol::default();
        assert!(t.eq(1e12, 1e12 + 1.0)); // 1 part in 1e12
        assert!(!t.eq(1.0, 1.0 + 1e-6));
        assert!(t.eq(1.0, 1.0 + 1e-10));
    }

    #[test]
    fn tol_eq_near_zero_uses_abs_floor() {
        let t = Tol::default();
        assert!(t.eq(0.0, 1e-13));
        assert!(!t.eq(0.0, 1e-9));
    }

    #[test]
    fn tol_le_allows_margin() {
        let t = Tol::default();
        assert!(t.le(1.0 + 1e-10, 1.0));
        assert!(!t.le(1.0 + 1e-6, 1.0));
        assert!(t.le(0.5, 1.0));
    }

    #[test]
    fn tol_strict_comparisons_are_complements() {
        let t = Tol::default();
        assert!(t.lt(1.0, 2.0));
        assert!(!t.lt(2.0, 1.0));
        assert!(!t.lt(1.0, 1.0 + 1e-12)); // too close to call strict
        assert!(t.gt(2.0, 1.0));
    }

    #[test]
    fn rel_diff_basics() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(1.0, 2.0) - 0.5).abs() < 1e-15);
        assert!((rel_diff(2.0, 1.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn energy_formula_matches_power_times_time() {
        // work w at speed s takes w/s time at power s^alpha:
        // E = (w/s) * s^alpha = w * s^(alpha-1).
        let (w, s, alpha) = (3.0, 2.0, 2.5);
        let direct = (w / s) * pow_alpha(s, alpha);
        assert!(approx_eq(direct, energy_of(w, s, alpha)));
    }

    #[test]
    fn energy_of_zero_work_is_zero() {
        assert_eq!(energy_of(0.0, 5.0, 3.0), 0.0);
        assert_eq!(energy_of(0.0, 0.0, 3.0), 0.0);
    }

    #[test]
    fn bisect_finds_threshold() {
        let threshold = 0.37;
        let (lo, hi) = bisect_threshold(0.0, 1.0, 1e-12, |x| x >= threshold);
        assert!(lo < threshold && threshold <= hi);
        assert!(hi - lo <= 1e-11);
    }

    #[test]
    fn bisect_feasible_lower_bound_short_circuits() {
        let (lo, hi) = bisect_threshold(2.0, 5.0, 1e-12, |x| x >= 1.0);
        assert_eq!((lo, hi), (2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "upper bound must be feasible")]
    fn bisect_rejects_infeasible_upper_bound() {
        bisect_threshold(0.0, 1.0, 1e-12, |x| x >= 2.0);
    }

    #[test]
    fn margin_scales() {
        let t = Tol::rel(1e-6);
        assert!((t.margin(100.0) - 1e-4).abs() < 1e-18);
        assert_eq!(t.margin(0.0), ABS_EPS);
    }
}
