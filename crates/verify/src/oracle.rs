//! Deliberately naive reference implementations of the DSP kernels.
//!
//! Every function here restates its kernel's *documented semantics* in
//! the most literal form available — explicit padded buffers, dense
//! matrices, per-window least squares, O(n²) scans — with no sharing of
//! algorithmic shortcuts with `p2auth-dsp`. The optimized kernels are
//! property-tested against these oracles in [`crate::diff`]; a
//! divergence means one side is wrong, and the naive side is much
//! easier to audit.
//!
//! Conventions shared with the optimized crate:
//!
//! * NaN ordering follows [`f64::total_cmp`] wherever a kernel sorts
//!   (median, quantile), so contaminated inputs cannot panic.
//! * `trend` treats `λ² ≥ 1e13` (the point where `f64` rounding makes
//!   the pentadiagonal system indistinguishable from the limit, long
//!   before `λ²` overflows to infinity) as λ→∞: the least-squares
//!   straight line.

/// Median of a slice by full sort under [`f64::total_cmp`].
pub fn median_of_ref(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Sliding median via an explicitly materialized edge-replicated
/// padding buffer.
pub fn median_filter_ref(x: &[f64], window: usize) -> Vec<f64> {
    assert!(window % 2 == 1, "window must be odd");
    if x.is_empty() || window == 1 {
        return x.to_vec();
    }
    let half = window / 2;
    // Padded signal: half replicated samples on each side.
    let mut padded = Vec::with_capacity(x.len() + 2 * half);
    padded.extend(std::iter::repeat_n(x[0], half));
    padded.extend_from_slice(x);
    padded.extend(std::iter::repeat_n(*x.last().expect("non-empty"), half));
    (0..x.len())
        .map(|i| median_of_ref(&padded[i..i + window]))
        .collect()
}

/// Least-squares polynomial fit by modified Gram–Schmidt QR.
///
/// Fits `degree`-order coefficients `c` minimizing `‖A c − b‖` where
/// `A[i][j] = t[i]^j`, and returns the fitted value at `t = 0` (which
/// is `c[0]`).
fn poly_fit_at_zero(t: &[f64], b: &[f64], degree: usize) -> f64 {
    let cols = degree + 1;
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(cols);
    // R stored by columns: `r_cols[j][k]` is `R[k][j]`.
    let mut r_cols = vec![vec![0.0_f64; cols]; cols];
    for (j, r_col) in r_cols.iter_mut().enumerate() {
        // Column j of the design matrix: t^j.
        let mut v: Vec<f64> = t.iter().map(|&ti| ti.powi(j as i32)).collect();
        for (qk, rkj) in q.iter().zip(r_col.iter_mut()) {
            let proj: f64 = qk.iter().zip(&v).map(|(p, w)| p * w).sum();
            *rkj = proj;
            for (vi, qi) in v.iter_mut().zip(qk) {
                *vi -= proj * qi;
            }
        }
        let norm: f64 = v.iter().map(|w| w * w).sum::<f64>().sqrt();
        r_col[j] = norm;
        for vi in v.iter_mut() {
            *vi /= norm;
        }
        q.push(v);
    }
    // c = R⁻¹ Qᵀ b by back substitution.
    let qtb: Vec<f64> = q
        .iter()
        .map(|qj| qj.iter().zip(b).map(|(p, w)| p * w).sum())
        .collect();
    let mut c = vec![0.0_f64; cols];
    for j in (0..cols).rev() {
        let mut acc = qtb[j];
        for k in j + 1..cols {
            acc -= r_cols[k][j] * c[k];
        }
        c[j] = acc / r_cols[j][j];
    }
    c[0]
}

/// Savitzky–Golay smoothing by per-window least squares: for every
/// output sample, fit a polynomial to the (edge-clamped) window values
/// at centred abscissae and evaluate it at the centre.
pub fn savgol_filter_ref(x: &[f64], window: usize, poly_order: usize) -> Vec<f64> {
    assert!(window % 2 == 1 && window > 0, "window must be odd");
    assert!(poly_order < window, "order must be < window");
    if x.is_empty() {
        return Vec::new();
    }
    let half = (window / 2) as i64;
    let n = x.len() as i64;
    let t: Vec<f64> = (-half..=half).map(|v| v as f64).collect();
    (0..n)
        .map(|i| {
            let b: Vec<f64> = (-half..=half)
                .map(|off| x[(i + off).clamp(0, n - 1) as usize])
                .collect();
            poly_fit_at_zero(&t, &b, poly_order)
        })
        .collect()
}

/// Savitzky–Golay coefficients recovered from the filter's linearity:
/// the coefficient for window position `j` is the per-window fit
/// applied to the `j`-th unit impulse.
pub fn savgol_coeffs_ref(window: usize, poly_order: usize) -> Vec<f64> {
    assert!(window % 2 == 1 && window > 0, "window must be odd");
    assert!(poly_order < window, "order must be < window");
    let half = (window / 2) as i64;
    let t: Vec<f64> = (-half..=half).map(|v| v as f64).collect();
    (0..window)
        .map(|j| {
            let mut e = vec![0.0; window];
            e[j] = 1.0;
            poly_fit_at_zero(&t, &e, poly_order)
        })
        .collect()
}

/// λ→∞ limit of smoothness-priors detrending: the least-squares line.
pub fn linear_fit_ref(y: &[f64]) -> Vec<f64> {
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

/// Smoothness-priors trend by dense Gauss–Jordan elimination on
/// `(I + λ² D₂ᵀ D₂) z = y`.
pub fn trend_ref(y: &[f64], lambda: f64) -> Vec<f64> {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be finite and >= 0"
    );
    let n = y.len();
    if n < 3 {
        return y.to_vec();
    }
    let l2 = lambda * lambda;
    if l2.partial_cmp(&1e13) != Some(std::cmp::Ordering::Less) {
        return linear_fit_ref(y);
    }
    let mut a = vec![vec![0.0_f64; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for k in 0..n - 2 {
        let idx = [k, k + 1, k + 2];
        let val = [1.0, -2.0, 1.0];
        for (&ip, &vp) in idx.iter().zip(&val) {
            for (&iq, &vq) in idx.iter().zip(&val) {
                a[ip][iq] += l2 * vp * vq;
            }
        }
    }
    let mut b = y.to_vec();
    // Gauss–Jordan with partial pivoting: reduce A all the way to the
    // identity (deliberately not the elimination+back-substitution of
    // the optimized crate's own dense reference).
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[piv][col].abs() {
                piv = r;
            }
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        for v in &mut a[col][col..] {
            *v /= d;
        }
        b[col] /= d;
        let pivot_row = a[col].clone();
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = a[r][col];
            if f == 0.0 {
                continue;
            }
            for (v, p) in a[r][col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= f * p;
            }
            b[r] -= f * b[col];
        }
    }
    b
}

/// `y − trend_ref(y, λ)`.
pub fn detrend_ref(y: &[f64], lambda: f64) -> Vec<f64> {
    let t = trend_ref(y, lambda);
    y.iter().zip(&t).map(|(a, b)| a - b).collect()
}

/// Short-time energy by explicit frame enumeration.
pub fn short_time_energy_ref(x: &[f64], window: usize, hop: usize) -> Vec<f64> {
    assert!(window > 0 && hop > 0, "window and hop must be positive");
    let mut out = Vec::new();
    let mut start = 0_usize;
    while let Some(end) = start.checked_add(window) {
        if end > x.len() {
            break;
        }
        out.push(x[start..end].iter().map(|v| v * v).sum());
        start += hop;
    }
    out
}

/// Energy of the `window`-sample window containing `center`, slid
/// inward at the boundaries.
pub fn energy_around_ref(x: &[f64], center: usize, window: usize) -> f64 {
    assert!(window > 0, "window must be positive");
    assert!(!x.is_empty(), "empty signal");
    let start = center
        .saturating_sub(window / 2)
        .min(x.len().saturating_sub(window));
    let end = (start + window).min(x.len());
    x[start..end].iter().map(|v| v * v).sum()
}

/// Half the mean short-time energy (the paper's presence threshold).
pub fn half_mean_energy_threshold_ref(x: &[f64], window: usize) -> f64 {
    let e = short_time_energy_ref(x, window, window);
    if e.is_empty() {
        return 0.0;
    }
    0.5 * e.iter().sum::<f64>() / e.len() as f64
}

/// Local maxima via the sign sequence of consecutive differences: a
/// maximum is a `+` diff followed (across any zero-diff plateau) by a
/// `−` diff, reported at the plateau's first index. Endpoints are never
/// reported. NaN diffs break any pending rise.
pub fn local_maxima_ref(x: &[f64]) -> Vec<usize> {
    extrema_ref(x, 1.0)
}

/// Local minima; mirror image of [`local_maxima_ref`].
pub fn local_minima_ref(x: &[f64]) -> Vec<usize> {
    extrema_ref(x, -1.0)
}

/// All local extrema, sorted ascending.
pub fn local_extrema_ref(x: &[f64]) -> Vec<usize> {
    let mut v = local_maxima_ref(x);
    v.extend(local_minima_ref(x));
    v.sort_unstable();
    v
}

fn extrema_ref(x: &[f64], direction: f64) -> Vec<usize> {
    let mut out = Vec::new();
    // State: index where the current plateau begins after the last
    // non-zero diff in the sought direction, or None if not rising.
    let mut rise_start: Option<usize> = None;
    for i in 0..x.len().saturating_sub(1) {
        let d = (x[i + 1] - x[i]) * direction;
        if d > 0.0 {
            rise_start = Some(i + 1);
        } else if d < 0.0 {
            if let Some(s) = rise_start.take() {
                out.push(s);
            }
        } else if d != 0.0 || d.is_nan() {
            // NaN diff: neither rising nor falling; break any rise.
            rise_start = None;
        }
        // d == 0.0: plateau, keep the pending rise start.
    }
    out
}

/// Eq. (1) deviation objective with an explicit clamped-index loop.
pub fn deviation_from_local_mean_ref(x: &[f64], s: usize, w: usize) -> f64 {
    assert!(!x.is_empty(), "empty signal");
    let n = x.len() as i64;
    let half = (w / 2) as i64;
    let count = 2 * half + 1;
    let mut sum = 0.0;
    for off in -half..=half {
        let idx = (s as i64 + off).clamp(0, n - 1) as usize;
        sum += x[idx];
    }
    (x[s.min(x.len() - 1)] - sum / count as f64).abs()
}

/// Fine-grained calibration search: best extremum in
/// `[approx − before, approx + after]` by the Eq. (1) objective,
/// first-wins on ties. Returns `(index, score)`.
pub fn calibrate_keystroke_ref(
    x: &[f64],
    approx: usize,
    before: usize,
    after: usize,
    w: usize,
) -> Option<(usize, f64)> {
    if x.is_empty() {
        return None;
    }
    let lo = approx.saturating_sub(before);
    let hi = approx.saturating_add(after).min(x.len() - 1);
    let mut best: Option<(usize, f64)> = None;
    for s in local_extrema_ref(x) {
        if s < lo || s > hi {
            continue;
        }
        let score = deviation_from_local_mean_ref(x, s, w);
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((s, score));
        }
    }
    best
}

/// Linear-interpolation resampling with the interpolant written in
/// point-slope form.
pub fn resample_linear_ref(x: &[f64], src_rate: f64, dst_rate: f64) -> Vec<f64> {
    assert!(src_rate > 0.0 && src_rate.is_finite(), "bad src_rate");
    assert!(dst_rate > 0.0 && dst_rate.is_finite(), "bad dst_rate");
    if x.is_empty() {
        return Vec::new();
    }
    // Mirror the optimized kernel's documented identity shortcut.
    if (src_rate - dst_rate).abs() < f64::EPSILON {
        return x.to_vec();
    }
    let n = x.len();
    let out_len = ((n as f64) * dst_rate / src_rate).round().max(1.0) as usize;
    (0..out_len)
        .map(|i| {
            let pos = i as f64 * (src_rate / dst_rate);
            let i0 = pos.floor() as usize;
            if i0 + 1 >= n {
                x[n - 1]
            } else {
                x[i0] + (pos - i0 as f64) * (x[i0 + 1] - x[i0])
            }
        })
        .collect()
}

/// Index mapping between sampling rates.
pub fn map_index_ref(idx: usize, src_rate: f64, dst_rate: f64) -> usize {
    assert!(src_rate > 0.0 && src_rate.is_finite(), "bad src_rate");
    assert!(dst_rate > 0.0 && dst_rate.is_finite(), "bad dst_rate");
    ((idx as f64) * dst_rate / src_rate).round() as usize
}

fn kahan_sum(x: &[f64]) -> f64 {
    let mut sum = 0.0_f64;
    let mut c = 0.0_f64;
    for &v in x {
        let y = v - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    sum
}

/// Mean removal with compensated summation.
pub fn remove_mean_ref(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let m = kahan_sum(x) / x.len() as f64;
    x.iter().map(|v| v - m).collect()
}

/// Z-normalization with compensated sums; signals with standard
/// deviation below `1e-12` are mean-removed only (the kernel's
/// documented degenerate-variance rule).
pub fn zscore_ref(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let n = x.len() as f64;
    let mean = kahan_sum(x) / n;
    let dev: Vec<f64> = x.iter().map(|v| (v - mean) * (v - mean)).collect();
    let sd = (kahan_sum(&dev) / n).sqrt();
    if sd < 1e-12 {
        return x.iter().map(|v| v - mean).collect();
    }
    x.iter().map(|v| (v - mean) / sd).collect()
}

/// Min-max rescaling into `[0, 1]`; spans below `1e-12` map to zeros
/// (the kernel's documented constant-signal rule).
pub fn min_max_ref(x: &[f64]) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let lo = x.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi - lo < 1e-12 {
        return vec![0.0; x.len()];
    }
    x.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ref_matches_hand_values() {
        assert_eq!(median_of_ref(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of_ref(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let y = median_filter_ref(&[1.0, 100.0, 1.0, 1.0], 3);
        assert_eq!(y, vec![1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn savgol_ref_reproduces_published_quadratic_kernel() {
        // Savitzky & Golay 1964, window 5 order 2: (-3, 12, 17, 12, -3)/35.
        let c = savgol_coeffs_ref(5, 2);
        let expected = [-3.0, 12.0, 17.0, 12.0, -3.0].map(|v| v / 35.0);
        for (a, b) in c.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12, "{c:?}");
        }
    }

    #[test]
    fn trend_ref_of_ramp_is_ramp() {
        let y: Vec<f64> = (0..40).map(|i| 0.5 * i as f64 - 3.0).collect();
        let t = trend_ref(&y, 200.0);
        for (a, b) in y.iter().zip(&t) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn linear_fit_ref_recovers_exact_line() {
        let y: Vec<f64> = (0..25).map(|i| 2.0 - 0.25 * i as f64).collect();
        let fit = linear_fit_ref(&y);
        for (a, b) in y.iter().zip(&fit) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn extrema_ref_handles_plateaus_and_endpoints() {
        let x = [0.0, 2.0, 2.0, 2.0, 0.0];
        assert_eq!(local_maxima_ref(&x), vec![1]);
        assert!(local_minima_ref(&x).is_empty());
        let mono = [0.0, 1.0, 2.0, 3.0];
        assert!(local_extrema_ref(&mono).is_empty());
    }

    #[test]
    fn energy_ref_hand_values() {
        assert_eq!(
            short_time_energy_ref(&[1.0, 1.0, 2.0, 2.0], 2, 2),
            vec![2.0, 8.0]
        );
        assert_eq!(energy_around_ref(&[1.0; 10], 0, 4), 4.0);
    }
}
