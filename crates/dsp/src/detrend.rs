//! Smoothness-priors detrending (Tarvainen, Ranta-aho & Karjalainen 2002).
//!
//! P²Auth removes the non-linear baseline drift of PPG measurements with
//! the smoothness-priors approach before short-time-energy analysis
//! (paper §IV-B 1.3, Eq. (2)–(3)):
//!
//! ```text
//! Ŷ_det = [I − (I + λ² D₂ᵀ D₂)⁻¹] Y
//! ```
//!
//! where `D₂` is the second-order difference matrix. The estimated trend
//! `(I + λ² D₂ᵀ D₂)⁻¹ Y` is the solution of a symmetric positive-definite
//! *pentadiagonal* system, which we solve with a banded Cholesky
//! factorization in `O(n)` time and memory.

/// Estimates the smooth baseline trend of `y` with regularization `lambda`.
///
/// Larger `lambda` yields a smoother (stiffer) trend estimate. The paper
/// only requires "adjustment of the regularization parameter λ"; values
/// in the range 10–500 are typical for 100 Hz PPG. Values with
/// `λ² ≥ 1e13` are treated as the λ → ∞ limit and yield the
/// least-squares straight line (the pentadiagonal system is no longer
/// numerically distinguishable from that limit in `f64`).
///
/// # Panics
///
/// Panics if `lambda` is not finite or is negative.
///
/// # Examples
///
/// ```
/// use p2auth_dsp::detrend::trend;
/// let y = vec![1.0; 32];
/// let t = trend(&y, 10.0);
/// // The trend of a constant signal is the constant itself.
/// assert!(t.iter().all(|v| (v - 1.0).abs() < 1e-8));
/// ```
pub fn trend(y: &[f64], lambda: f64) -> Vec<f64> {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be finite and >= 0"
    );
    let n = y.len();
    if n < 3 {
        // D2 is empty for n < 3: the system reduces to the identity.
        return y.to_vec();
    }
    let l2 = lambda * lambda;
    // For extreme regularization the identity term of I + λ²D₂ᵀD₂ is
    // absorbed by rounding: the LDLᵀ pivots are ≥ 1 in exact
    // arithmetic but carry ~ε·16·λ² of rounding error, so beyond
    // λ² ≈ 1e13 the factorization can break down (and λ² overflows to
    // infinity outright near λ ≈ 1.3e154). The λ → ∞ limit of the
    // smoothness prior is the least-squares straight line; switch to
    // it while the pivots are still provably positive. Typical PPG
    // values are λ ≤ 500 (λ² ≤ 2.5e5), far below the cutoff.
    if takes_linear_limit(l2) {
        return linear_fit(y);
    }
    // Build the pentadiagonal matrix A = I + l2 * D2^T D2 in banded form.
    // D2 is (n-2) x n with stencil [1, -2, 1]. The product D2^T D2 has
    // rows formed by the autocorrelation of the stencil: [1, -4, 6, -4, 1]
    // in the interior, with boundary corrections.
    // Band storage: diag[i] = A[i][i], off1[i] = A[i][i+1], off2[i] = A[i][i+2].
    let mut diag = vec![0.0_f64; n];
    let mut off1 = vec![0.0_f64; n.saturating_sub(1)];
    let mut off2 = vec![0.0_f64; n.saturating_sub(2)];
    // (D2^T D2)[i][j] = sum_k d2[k][i] * d2[k][j]; row k of D2 has
    // entries 1 at k, -2 at k+1, 1 at k+2.
    for k in 0..n - 2 {
        let idx = [k, k + 1, k + 2];
        let val = [1.0, -2.0, 1.0];
        for a in 0..3 {
            for b in a..3 {
                let (i, j) = (idx[a], idx[b]);
                let v = l2 * val[a] * val[b];
                match j - i {
                    0 => diag[i] += v,
                    1 => off1[i] += v,
                    2 => off2[i] += v,
                    _ => unreachable!(),
                }
            }
        }
    }
    for d in diag.iter_mut() {
        *d += 1.0;
    }
    solve_pentadiagonal_spd(&diag, &off1, &off2, y)
}

/// Removes the smoothness-priors trend from `y` (the paper's `Ŷ_det`).
///
/// Equivalent to `y - trend(y, lambda)` element-wise.
///
/// # Panics
///
/// Panics if `lambda` is not finite or is negative.
pub fn detrend(y: &[f64], lambda: f64) -> Vec<f64> {
    let t = trend(y, lambda);
    y.iter().zip(&t).map(|(a, b)| a - b).collect()
}

/// Least-squares straight-line fit — the λ → ∞ limit of the
/// smoothness-priors trend (the prior then forces the second
/// difference to zero everywhere).
/// Whether `trend` answers with the λ → ∞ limit for this λ². Anything
/// not below the `1e13` cutoff does: +∞, and NaN too, so the banded
/// solver only ever sees a finite λ² it can factor.
fn takes_linear_limit(l2: f64) -> bool {
    l2.partial_cmp(&1e13) != Some(std::cmp::Ordering::Less)
}

fn linear_fit(y: &[f64]) -> Vec<f64> {
    let n = y.len();
    if n < 2 {
        return y.to_vec();
    }
    let nf = n as f64;
    let mean_t = (nf - 1.0) / 2.0;
    let mean_y = y.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (i, &v) in y.iter().enumerate() {
        let dt = i as f64 - mean_t;
        cov += dt * (v - mean_y);
        var += dt * dt;
    }
    let slope = cov / var;
    (0..n)
        .map(|i| mean_y + slope * (i as f64 - mean_t))
        .collect()
}

/// Solves `A x = b` for a symmetric positive-definite pentadiagonal `A`
/// given by its diagonal and first/second super-diagonals, via banded
/// Cholesky (`A = L D Lᵀ` with unit lower-triangular banded `L`).
fn solve_pentadiagonal_spd(diag: &[f64], off1: &[f64], off2: &[f64], b: &[f64]) -> Vec<f64> {
    let n = diag.len();
    debug_assert_eq!(b.len(), n);
    // LDL^T with bandwidth 2: L has sub-diagonals l1 (offset 1), l2 (offset 2).
    let mut d = vec![0.0_f64; n];
    let mut l1 = vec![0.0_f64; n.saturating_sub(1)];
    let mut l2 = vec![0.0_f64; n.saturating_sub(2)];
    for i in 0..n {
        let mut di = diag[i];
        if i >= 1 {
            di -= l1[i - 1] * l1[i - 1] * d[i - 1];
        }
        if i >= 2 {
            di -= l2[i - 2] * l2[i - 2] * d[i - 2];
        }
        // In exact arithmetic A = I + λ²D₂ᵀD₂ has eigenvalues ≥ 1, so
        // every LDLᵀ pivot satisfies di ≥ 1, and the λ² ≤ 1e13 cutoff
        // in `trend` keeps the rounding error on each pivot ≪ 1.
        // Floor the pivot rather than asserting so an unforeseen
        // breakdown degrades the trend estimate instead of panicking
        // the authentication pipeline.
        let di = if di > 1e-12 { di } else { 1e-12 };
        d[i] = di;
        if i + 1 < n {
            let mut v = off1[i];
            if i >= 1 {
                v -= l2[i - 1] * l1[i - 1] * d[i - 1];
            }
            l1[i] = v / di;
        }
        if i + 2 < n {
            l2[i] = off2[i] / di;
        }
    }
    // Forward solve L z = b.
    let mut z = vec![0.0_f64; n];
    for i in 0..n {
        let mut v = b[i];
        if i >= 1 {
            v -= l1[i - 1] * z[i - 1];
        }
        if i >= 2 {
            v -= l2[i - 2] * z[i - 2];
        }
        z[i] = v;
    }
    // Diagonal solve.
    for i in 0..n {
        z[i] /= d[i];
    }
    // Backward solve L^T x = z.
    let mut x = vec![0.0_f64; n];
    for i in (0..n).rev() {
        let mut v = z[i];
        if i + 1 < n {
            v -= l1[i] * x[i + 1];
        }
        if i + 2 < n {
            v -= l2[i] * x[i + 2];
        }
        x[i] = v;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lambda_is_identity_trend() {
        let y: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let t = trend(&y, 0.0);
        for (a, b) in y.iter().zip(&t) {
            assert!((a - b).abs() < 1e-10);
        }
        let det = detrend(&y, 0.0);
        assert!(det.iter().all(|v| v.abs() < 1e-10));
    }

    #[test]
    fn removes_linear_trend() {
        // A pure straight line has zero second difference, so it is a
        // perfect smooth trend: the detrended residual must be ~0 for
        // large lambda.
        let y: Vec<f64> = (0..200).map(|i| 0.05 * i as f64 + 3.0).collect();
        let det = detrend(&y, 300.0);
        let max = det.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        assert!(max < 1e-6, "residual {max}");
    }

    #[test]
    fn preserves_fast_oscillation() {
        // Fast oscillation + slow drift: detrending should keep the fast
        // component and remove the drift.
        let n = 400;
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 1.3).sin() + 0.01 * t
            })
            .collect();
        let det = detrend(&y, 50.0);
        // The drift endpoint offset (4.0) must be gone:
        let head: f64 = det[..50].iter().sum::<f64>() / 50.0;
        let tail: f64 = det[n - 50..].iter().sum::<f64>() / 50.0;
        assert!(
            (head - tail).abs() < 0.2,
            "drift left: head {head} tail {tail}"
        );
        // The oscillation must survive with most of its energy.
        let e: f64 = det.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!(e > 0.3, "oscillation energy lost: {e}");
    }

    #[test]
    fn short_inputs() {
        assert_eq!(trend(&[], 10.0), Vec::<f64>::new());
        assert_eq!(trend(&[2.0], 10.0), vec![2.0]);
        assert_eq!(trend(&[2.0, 3.0], 10.0), vec![2.0, 3.0]);
    }

    #[test]
    fn extreme_lambda_is_linear_fit_not_panic() {
        // Regression: λ ≥ ~1.3e154 used to overflow λ² to infinity and
        // panic the banded Cholesky ("matrix not positive definite");
        // large-but-finite λ could break the pivots the same way. Both
        // now take the λ → ∞ limit: the least-squares line.
        let y: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.7).sin() + 0.2 * i as f64)
            .collect();
        for lambda in [1e7, 1e12, 1e154, 1e200, f64::MAX.sqrt()] {
            let t = trend(&y, lambda);
            assert!(t.iter().all(|v| v.is_finite()), "λ={lambda:e}");
            // A pure line must be reproduced exactly by the limit.
            let line: Vec<f64> = (0..64).map(|i| 3.0 - 0.5 * i as f64).collect();
            let lt = trend(&line, lambda);
            for (a, b) in line.iter().zip(&lt) {
                assert!((a - b).abs() < 1e-9, "λ={lambda:e}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn nan_and_infinite_lambda_squared_take_the_linear_limit() {
        assert!(takes_linear_limit(f64::NAN));
        assert!(takes_linear_limit(f64::INFINITY));
        assert!(takes_linear_limit(1e13));
        assert!(!takes_linear_limit(9.99e12));
        assert!(!takes_linear_limit(0.0));
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn nan_lambda_is_rejected_before_the_solver() {
        let _ = trend(&[1.0, 2.0, 4.0, 8.0], f64::NAN);
    }

    #[test]
    fn nan_input_does_not_panic() {
        let mut y: Vec<f64> = (0..32).map(|i| i as f64).collect();
        y[7] = f64::NAN;
        y[20] = f64::INFINITY;
        // NaN propagates through the solve but must not panic.
        let _ = detrend(&y, 100.0);
        let _ = detrend(&y, 1e200);
    }

    #[test]
    fn trend_plus_detrended_reconstructs() {
        let y: Vec<f64> = (0..100)
            .map(|i| (i as f64).sqrt() + (i as f64 * 0.9).cos())
            .collect();
        let t = trend(&y, 20.0);
        let d = detrend(&y, 20.0);
        for i in 0..y.len() {
            assert!((t[i] + d[i] - y[i]).abs() < 1e-9);
        }
    }
}
