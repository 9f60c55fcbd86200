//! Small-sample statistics used by the experiment harnesses.

use core::fmt;

/// Summary statistics over a set of f64 observations.
///
/// # Example
///
/// ```rust
/// use synergy_des::Summary;
///
/// let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.samples.push(x);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observations were added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (n−1 denominator); 0.0 for fewer than two
    /// observations.
    pub(crate) fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n as f64 - 1.0);
        var.sqrt()
    }

    /// Half-width of the ~95% normal-approximation confidence interval on the
    /// mean.
    pub fn ci95_half_width(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        1.96 * self.std_dev() / (self.samples.len() as f64).sqrt()
    }

    /// Smallest observation; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Largest observation; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The raw observations in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} ±{:.4} (95% CI) min={:.4} max={:.4}",
            self.len(),
            self.mean(),
            self.ci95_half_width(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std dev of this classic set is ~2.138.
        assert!((s.std_dev() - 2.13809).abs() < 1e-4);
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new().push(f64::NAN);
    }

    #[test]
    fn display_mentions_count() {
        let s: Summary = [1.0, 2.0].into_iter().collect();
        assert!(s.to_string().contains("n=2"));
    }
}
