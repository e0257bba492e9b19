//! Empirical distribution functions and histograms.
//!
//! These back every distribution figure in the paper (Figs. 2b, 4, 5, 6, 8,
//! 9b): the `repro` harness prints ECDF/histogram series where the paper
//! shows curves.

/// Empirical cumulative distribution function of a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF; NaNs are rejected with a panic (they would poison the
    /// ordering silently otherwise).
    pub fn new(mut xs: Vec<f64>) -> Self {
        assert!(xs.iter().all(|x| !x.is_nan()), "ECDF input contains NaN");
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Self { sorted: xs }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — the fraction of the sample `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the count of elements <= x because the
        // predicate holds for a sorted prefix.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }
}

/// A fixed-width histogram over `[lo, hi)` with an implicit overflow rule:
/// values outside the range are clamped into the first/last bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins on `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 1, "need at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        assert!(!x.is_nan(), "histogram input contains NaN");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = (((x - self.lo) / w).floor() as i64).clamp(0, self.counts.len() as i64 - 1);
        self.counts[idx as usize] += 1;
        self.total += 1;
    }

    /// Adds every value in the slice.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(bin_center, fraction)` pairs — the paper's normalized histograms.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.lo + w * (i as f64 + 0.5);
                let frac = if self.total == 0 {
                    0.0
                } else {
                    c as f64 / self.total as f64
                };
                (center, frac)
            })
            .collect()
    }

    /// Indices of local maxima with at least `min_frac` of the mass — used to
    /// count the "peaks" the paper describes in Fig. 5.
    pub fn peaks(&self, min_frac: f64) -> Vec<usize> {
        let n = self.counts.len();
        let frac = |i: usize| {
            if self.total == 0 {
                0.0
            } else {
                self.counts[i] as f64 / self.total as f64
            }
        };
        (0..n)
            .filter(|&i| {
                let f = frac(i);
                if f < min_frac {
                    return false;
                }
                let left = if i == 0 { 0.0 } else { frac(i - 1) };
                let right = if i + 1 == n { 0.0 } else { frac(i + 1) };
                f >= left && f > right || f > left && f >= right
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_eval_matches_definition() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn ecdf_is_monotone() {
        let e = Ecdf::new(vec![5.0, -1.0, 3.3, 3.3, 0.0, 12.0]);
        let mut prev = 0.0;
        for i in -20..=140 {
            let v = e.eval(i as f64 * 0.1);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend(&[-1.0, 0.0, 1.9, 2.0, 9.9, 10.0, 50.0]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.counts()[0], 3); // -1 (clamped), 0, 1.9
        assert_eq!(h.counts()[1], 1); // 2.0
        assert_eq!(h.counts()[4], 3); // 9.9, 10.0 (clamped), 50 (clamped)
    }

    #[test]
    fn histogram_normalized_sums_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 7);
        for i in 0..100 {
            h.add(i as f64 / 100.0);
        }
        let total: f64 = h.normalized().iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_peaks_finds_bimodal_modes() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        // Two humps with a continuous valley between them; bins 1 and 7 are
        // the only local maxima above the mass threshold.
        for (bin, count) in [(1, 40), (2, 12), (3, 8), (4, 5), (5, 9), (6, 13), (7, 50)] {
            for _ in 0..count {
                h.add(bin as f64 + 0.5);
            }
        }
        let peaks = h.peaks(0.05);
        assert_eq!(peaks, vec![1, 7]);
    }

    #[test]
    fn histogram_peaks_empty_when_no_mass() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert!(h.peaks(0.01).is_empty());
    }
}
