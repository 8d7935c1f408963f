//! SGD logistic regression — the "binary gradient classifier" the paper
//! trains per keystroke for two-handed authentication (§IV-B 2.6).

use crate::error::{validate_training, MlError};
use crate::linalg::dot;
use p2auth_obs::json::{write_array, write_f64, DecodeError, JsonValue};
use p2auth_par::FeatureMatrix;
use p2auth_rng::Rng;

/// Configuration for [`LogisticClassifier::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Number of passes over the training data.
    pub epochs: usize,
    /// L2 regularization strength.
    pub l2: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            epochs: 200,
            l2: 1e-4,
            seed: 17,
        }
    }
}

/// A fitted binary logistic-regression classifier. Serializable so
/// enrolled models can be persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticClassifier {
    weights: Vec<f64>,
    intercept: f64,
}

impl LogisticClassifier {
    /// Fits by stochastic gradient descent on the logistic loss.
    ///
    /// Labels are `+1` / `-1`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] for empty/ragged training data, label
    /// mismatches, or single-class labels.
    pub fn fit(config: &LogisticConfig, x: &[Vec<f64>], y: &[i8]) -> Result<Self, MlError> {
        let rows: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        Self::fit_impl(config, &rows, y)
    }

    /// Like [`LogisticClassifier::fit`], but reads feature rows directly
    /// from a contiguous [`FeatureMatrix`] (as produced by the MiniRocket
    /// batch transform), avoiding per-row `Vec` boxing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogisticClassifier::fit`].
    pub fn fit_matrix(
        config: &LogisticConfig,
        x: &FeatureMatrix,
        y: &[i8],
    ) -> Result<Self, MlError> {
        let rows: Vec<&[f64]> = x.rows().collect();
        Self::fit_impl(config, &rows, y)
    }

    fn fit_impl(config: &LogisticConfig, x: &[&[f64]], y: &[i8]) -> Result<Self, MlError> {
        let _span = p2auth_obs::span!("ml.logistic.fit");
        let dim = validate_training(x, y)?;
        p2auth_obs::event!("ml.logistic", "fit", rows = x.len(), cols = dim);
        let n = x.len();
        let mut w = vec![0.0_f64; dim];
        let mut b = 0.0_f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = Rng::seed_from_u64(config.seed);
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let yi = if y[i] > 0 { 1.0 } else { -1.0 };
                let margin = yi * (dot(&w, x[i]) + b);
                // dL/dmargin for logistic loss log(1 + e^{-m}).
                let g = -yi / (1.0 + margin.exp());
                for (wj, xj) in w.iter_mut().zip(x[i].iter()) {
                    *wj -= config.learning_rate * (g * xj + config.l2 * *wj);
                }
                b -= config.learning_rate * g;
            }
        }
        Ok(Self {
            weights: w,
            intercept: b,
        })
    }

    /// Probability of the positive class.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn probability(&self, x: &[f64]) -> f64 {
        let z = dot(&self.weights, x) + self.intercept;
        1.0 / (1.0 + (-z).exp())
    }

    /// Predicted label in `{-1, +1}`.
    pub fn predict(&self, x: &[f64]) -> i8 {
        if self.probability(x) > 0.5 {
            1
        } else {
            -1
        }
    }

    /// The fitted weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Appends the classifier as a JSON object (`weights`,
    /// `intercept`); floats round-trip bit for bit.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"weights\":");
        write_array(out, &self.weights, |o, w| write_f64(o, *w));
        out.push_str(",\"intercept\":");
        write_f64(out, self.intercept);
        out.push('}');
    }

    /// Decodes a classifier written by [`LogisticClassifier::write_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a missing, mistyped or non-finite
    /// field.
    pub fn from_json(v: &JsonValue) -> Result<Self, DecodeError> {
        Ok(Self {
            weights: v.field("weights")?.items(JsonValue::finite)?,
            intercept: v.field("intercept")?.finite()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_free_data() -> (Vec<Vec<f64>>, Vec<i8>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            let t = i as f64 / 30.0;
            x.push(vec![1.0 + t, 1.0 - t * 0.3]);
            y.push(1);
            x.push(vec![-1.0 - t, -1.0 + t * 0.3]);
            y.push(-1);
        }
        (x, y)
    }

    #[test]
    fn separates_linear_data() {
        let (x, y) = xor_free_data();
        let clf = LogisticClassifier::fit(&LogisticConfig::default(), &x, &y).unwrap();
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| clf.predict(xi) == yi)
            .count();
        assert_eq!(correct, x.len());
    }

    #[test]
    fn probabilities_bounded_and_ordered() {
        let (x, y) = xor_free_data();
        let clf = LogisticClassifier::fit(&LogisticConfig::default(), &x, &y).unwrap();
        let p_pos = clf.probability(&[2.0, 1.0]);
        let p_neg = clf.probability(&[-2.0, -1.0]);
        assert!((0.0..=1.0).contains(&p_pos) && (0.0..=1.0).contains(&p_neg));
        assert!(p_pos > 0.9 && p_neg < 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_free_data();
        let c1 = LogisticClassifier::fit(&LogisticConfig::default(), &x, &y).unwrap();
        let c2 = LogisticClassifier::fit(&LogisticConfig::default(), &x, &y).unwrap();
        assert_eq!(c1.weights(), c2.weights());
    }

    #[test]
    fn fit_matrix_matches_fit_bitwise() {
        let (x, y) = xor_free_data();
        let m = FeatureMatrix::from_rows(x.clone(), 2);
        let boxed = LogisticClassifier::fit(&LogisticConfig::default(), &x, &y).unwrap();
        let flat = LogisticClassifier::fit_matrix(&LogisticConfig::default(), &m, &y).unwrap();
        assert_eq!(boxed, flat);
    }

    #[test]
    fn rejects_single_class() {
        let x = vec![vec![1.0], vec![2.0]];
        assert!(matches!(
            LogisticClassifier::fit(&LogisticConfig::default(), &x, &[1, 1]),
            Err(MlError::SingleClass)
        ));
    }
}
