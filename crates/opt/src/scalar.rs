//! One-dimensional solvers: bisection root finding and golden-section
//! minimization.
//!
//! These primitives back the capped-simplex projection (dual bisection)
//! and the power-curve fit (golden section over the exponent).

/// Default tolerance for scalar solves.
pub const TOL: f64 = 1e-12;

/// Find a root of `f` in `[lo, hi]` by bisection. Requires a sign change
/// (or a root at an endpoint); returns the midpoint of the final bracket.
///
/// # Panics
/// If `f(lo)` and `f(hi)` have the same (nonzero) sign.
pub fn bisect(mut f: impl FnMut(f64) -> f64, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return lo;
    }
    if fhi == 0.0 {
        return hi;
    }
    assert!(
        flo * fhi < 0.0,
        "bisect requires a sign change: f({lo}) = {flo}, f({hi}) = {fhi}"
    );
    // 200 iterations halve the bracket far below f64 resolution even for
    // astronomically wide inputs; the tolerance check usually exits earlier.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 || (hi - lo) < tol * (1.0 + mid.abs()) {
            return mid;
        }
        if flo * fm < 0.0 {
            hi = mid;
        } else {
            lo = mid;
            flo = fm;
        }
    }
    0.5 * (lo + hi)
}

/// Golden-section minimization of a unimodal `f` on `[lo, hi]`.
/// Returns the minimizing abscissa.
pub fn golden_min(mut f: impl FnMut(f64) -> f64, mut lo: f64, mut hi: f64, tol: f64) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_8; // (√5 − 1)/2
    let mut a = hi - INV_PHI * (hi - lo);
    let mut b = lo + INV_PHI * (hi - lo);
    let mut fa = f(a);
    let mut fb = f(b);
    for _ in 0..300 {
        if (hi - lo) < tol * (1.0 + lo.abs().max(hi.abs())) {
            break;
        }
        if fa <= fb {
            hi = b;
            b = a;
            fb = fa;
            a = hi - INV_PHI * (hi - lo);
            fa = f(a);
        } else {
            lo = a;
            a = b;
            fa = fb;
            b = lo + INV_PHI * (hi - lo);
            fb = f(b);
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, TOL);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_accepts_root_at_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, TOL), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, TOL), 1.0);
    }

    #[test]
    #[should_panic(expected = "sign change")]
    fn bisect_rejects_same_sign() {
        let _ = bisect(|x| x * x + 1.0, -1.0, 1.0, TOL);
    }

    #[test]
    fn golden_finds_parabola_minimum() {
        // Derivative-free minimization can only locate a quadratic minimum
        // to ~√ε_machine ≈ 1e-8; test at 1e-6 for headroom.
        let r = golden_min(|x| (x - 3.2) * (x - 3.2) + 1.0, -10.0, 10.0, 1e-12);
        assert!((r - 3.2).abs() < 1e-6);
    }

    #[test]
    fn golden_finds_energy_per_work_minimum() {
        // p(f)/f = f^2 + 0.25/f has its minimum at f_crit = 0.5.
        let r = golden_min(|f: f64| f * f + 0.25 / f, 1e-3, 10.0, 1e-12);
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn golden_handles_boundary_minimum() {
        let r = golden_min(|x| x, 2.0, 5.0, 1e-12);
        assert!((r - 2.0).abs() < 1e-6);
    }
}
