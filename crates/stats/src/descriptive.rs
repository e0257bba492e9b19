//! Descriptive statistics: means, variances, quantiles, and the coefficient
//! of variation the paper uses to justify block-group median aggregation
//! (Fig. 4).

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divides by `n`); `None` for an empty slice.
///
/// We use the population form because a block group's sampled addresses are
/// treated as the full set of observations for that group, matching the
/// paper's CoV definition (σ/μ over available plans within a block).
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Coefficient of variation σ/μ.
///
/// Returns `None` for empty input or a zero mean (CoV undefined).
pub fn coefficient_of_variation(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    if m == 0.0 {
        return None;
    }
    Some(std_dev(xs)? / m)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`; `None` for empty input.
///
/// Uses the "linear" (type-7) rule: index `h = q * (n - 1)` with
/// interpolation between the floor and ceil order statistics.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let h = q * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (h - lo as f64))
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample; `None` if empty.
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        Some(Summary {
            n: xs.len(),
            mean: mean(xs)?,
            std_dev: std_dev(xs)?,
            min: quantile(xs, 0.0)?,
            p25: quantile(xs, 0.25)?,
            median: quantile(xs, 0.5)?,
            p75: quantile(xs, 0.75)?,
            max: quantile(xs, 1.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(median(&[]), None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert_eq!(variance(&xs), Some(4.0));
        assert_eq!(std_dev(&xs), Some(2.0));
    }

    #[test]
    fn cov_is_scale_invariant() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let scaled: Vec<f64> = xs.iter().map(|x| x * 7.5).collect();
        let a = coefficient_of_variation(&xs).unwrap();
        let b = coefficient_of_variation(&scaled).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cov_of_constant_sample_is_zero() {
        assert_eq!(coefficient_of_variation(&[3.0, 3.0, 3.0]), Some(0.0));
    }

    #[test]
    fn cov_undefined_for_zero_mean() {
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_endpoints_are_min_max() {
        let xs = [9.0, -3.0, 4.0, 12.0];
        assert_eq!(quantile(&xs, 0.0), Some(-3.0));
        assert_eq!(quantile(&xs, 1.0), Some(12.0));
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        // h = 0.25 * 3 = 0.75 -> 10 + (20-10)*0.75 = 17.5
        assert_eq!(quantile(&xs, 0.25), Some(17.5));
    }

    #[test]
    fn quantile_rejects_out_of_range_q() {
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], -0.1), None);
    }

    #[test]
    fn summary_is_internally_consistent() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.median, 50.5);
        assert!(s.p25 < s.median && s.median < s.p75);
    }
}
