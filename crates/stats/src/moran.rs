//! Moran's I spatial autocorrelation.
//!
//! The paper uses Moran's I over block-group carriage values inside a city to
//! quantify spatial clustering (Table 3, §5.3). We implement the statistic
//! over sparse row-major weights, with the classic analytic moments under
//! the normality assumption (z-score against `E[I] = −1/(n−1)`).

use crate::special::std_normal_cdf;

/// Sparse spatial weights: row `i` holds `(j, w_ij)` pairs.
pub type WeightRows = [Vec<(usize, f64)>];

/// Result of a Moran's I computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoranResult {
    /// The observed statistic, in `[-1, 1]` for row-standardized weights.
    pub i: f64,
    /// Expected value under the null, `-1/(n-1)`.
    pub expected: f64,
    /// Standard deviate under the normality assumption.
    pub z_score: f64,
    /// One-tailed p-value for positive autocorrelation, `P(Z >= z)`.
    pub p_value: f64,
    pub n: usize,
}

/// Computes Moran's I with analytic (normality) inference.
///
/// Returns `None` when the statistic is undefined: fewer than 3 observations,
/// zero total weight, or zero variance in `values`.
///
/// # Panics
/// Panics if `values.len() != weights.len()` or a weight column is out of
/// range.
pub fn morans_i(values: &[f64], weights: &WeightRows) -> Option<MoranResult> {
    let n = values.len();
    assert_eq!(n, weights.len(), "values and weight rows must align");
    if n < 3 {
        return None;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let z: Vec<f64> = values.iter().map(|v| v - mean).collect();
    let m2: f64 = z.iter().map(|v| v * v).sum();
    if m2 == 0.0 {
        return None;
    }

    let mut s0 = 0.0;
    let mut num = 0.0;
    for (i, row) in weights.iter().enumerate() {
        for &(j, w) in row {
            assert!(j < n, "weight column {j} out of range for n = {n}");
            s0 += w;
            num += w * z[i] * z[j];
        }
    }
    if s0 == 0.0 {
        return None;
    }
    let i_stat = (n as f64 / s0) * (num / m2);

    // Analytic moments under normality (Cliff & Ord).
    // S1 = 1/2 Σ_ij (w_ij + w_ji)^2 ; S2 = Σ_i (w_i. + w_.i)^2.
    let mut w_dense_sym_sq = 0.0; // Σ (w_ij + w_ji)^2 over ordered pairs, computed sparsely
    let mut row_sums = vec![0.0; n];
    let mut col_sums = vec![0.0; n];
    // For S1 we need w_ji for each (i, j); gather a lookup per row. An
    // ordered map fixes the order S1 is summed in, so the z-score is the
    // same bits on every call.
    use std::collections::BTreeMap;
    let mut maps: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
    for (i, row) in weights.iter().enumerate() {
        for &(j, w) in row {
            *maps[i].entry(j).or_insert(0.0) += w;
            row_sums[i] += w;
            col_sums[j] += w;
        }
    }
    for (i, map) in maps.iter().enumerate() {
        for (&j, &wij) in map {
            let wji = maps[j].get(&i).copied().unwrap_or(0.0);
            w_dense_sym_sq += (wij + wji).powi(2);
        }
    }
    let s1 = 0.5 * w_dense_sym_sq;
    let s2: f64 = (0..n).map(|i| (row_sums[i] + col_sums[i]).powi(2)).sum();

    let nf = n as f64;
    let expected = -1.0 / (nf - 1.0);
    let var = (nf * nf * s1 - nf * s2 + 3.0 * s0 * s0) / ((nf * nf - 1.0) * s0 * s0)
        - expected * expected;
    if var <= 0.0 {
        return None;
    }
    let z_score = (i_stat - expected) / var.sqrt();
    Some(MoranResult {
        i: i_stat,
        expected,
        z_score,
        p_value: 1.0 - std_normal_cdf(z_score),
        n,
    })
}

#[cfg(test)]
pub(crate) mod tests_support {
    /// Row-standardized weights for a k x k rook grid.
    pub fn grid_weights(k: usize) -> Vec<Vec<(usize, f64)>> {
        let idx = |r: usize, c: usize| r * k + c;
        (0..k * k)
            .map(|i| {
                let (r, c) = (i / k, i % k);
                let mut ns = Vec::new();
                if r > 0 {
                    ns.push(idx(r - 1, c));
                }
                if r + 1 < k {
                    ns.push(idx(r + 1, c));
                }
                if c > 0 {
                    ns.push(idx(r, c - 1));
                }
                if c + 1 < k {
                    ns.push(idx(r, c + 1));
                }
                let w = 1.0 / ns.len() as f64;
                ns.into_iter().map(|j| (j, w)).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::grid_weights;
    use super::*;

    #[test]
    fn clustered_values_give_strong_positive_i() {
        // Left half low, right half high: maximal clustering.
        let k = 10;
        let values: Vec<f64> = (0..k * k)
            .map(|i| if i % k < k / 2 { 0.0 } else { 10.0 })
            .collect();
        let w = grid_weights(k);
        let r = morans_i(&values, &w).unwrap();
        assert!(r.i > 0.7, "I = {}", r.i);
        assert!(r.p_value < 0.001);
    }

    #[test]
    fn checkerboard_gives_negative_i() {
        let k = 10;
        let values: Vec<f64> = (0..k * k)
            .map(|i| if (i / k + i % k) % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let w = grid_weights(k);
        let r = morans_i(&values, &w).unwrap();
        assert!(r.i < -0.9, "I = {}", r.i);
        assert!(r.p_value > 0.99, "no positive autocorrelation");
    }

    #[test]
    fn random_values_give_i_near_zero() {
        // Deterministic pseudo-random pattern via multiplicative hashing.
        let k = 12;
        let values: Vec<f64> = (0..k * k)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64)
            .collect();
        let w = grid_weights(k);
        let r = morans_i(&values, &w).unwrap();
        assert!(r.i.abs() < 0.15, "I = {}", r.i);
    }

    #[test]
    fn expected_value_is_minus_one_over_n_minus_one() {
        let k = 5;
        let values: Vec<f64> = (0..k * k).map(|i| i as f64).collect();
        let r = morans_i(&values, &grid_weights(k)).unwrap();
        assert!((r.expected + 1.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn constant_field_is_undefined() {
        let values = vec![3.0; 25];
        assert!(morans_i(&values, &grid_weights(5)).is_none());
    }

    #[test]
    fn too_few_observations_is_undefined() {
        let w: Vec<Vec<(usize, f64)>> = vec![vec![(1, 1.0)], vec![(0, 1.0)]];
        assert!(morans_i(&[1.0, 2.0], &w).is_none());
    }

    #[test]
    fn paper_range_clustering_detected_at_moderate_strength() {
        // Smooth gradient field: positive but not extreme I, like the paper's
        // 0.3-0.5 medians.
        let k = 10;
        let values: Vec<f64> = (0..k * k)
            .map(|i| {
                let (r, c) = (i / k, i % k);
                (r + c) as f64 + ((i as u64).wrapping_mul(40503) % 13) as f64
            })
            .collect();
        let r = morans_i(&values, &grid_weights(k)).unwrap();
        assert!(r.i > 0.2 && r.i < 0.9, "I = {}", r.i);
    }
}

/// Geary's C spatial autocorrelation (robustness alternative to Moran's I).
///
/// `C < 1` indicates positive spatial autocorrelation, `C > 1` negative,
/// `C = 1` none. Used by the Table-3 robustness experiment: the clustering
/// conclusion should not depend on the choice of statistic.
///
/// Returns `None` under the same undefined conditions as [`morans_i`].
pub fn gearys_c(values: &[f64], weights: &WeightRows) -> Option<f64> {
    let n = values.len();
    assert_eq!(n, weights.len(), "values and weight rows must align");
    if n < 3 {
        return None;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let m2: f64 = values.iter().map(|v| (v - mean).powi(2)).sum();
    if m2 == 0.0 {
        return None;
    }
    let mut s0 = 0.0;
    let mut num = 0.0;
    for (i, row) in weights.iter().enumerate() {
        for &(j, w) in row {
            assert!(j < n, "weight column {j} out of range for n = {n}");
            s0 += w;
            num += w * (values[i] - values[j]).powi(2);
        }
    }
    if s0 == 0.0 {
        return None;
    }
    Some((n as f64 - 1.0) * num / (2.0 * s0 * m2))
}

/// Local Moran's I (LISA) per cell: positive where a cell sits in a patch
/// of similar values, negative where it is a spatial outlier. Used for
/// hotspot rendering on the Fig.-7-style maps.
///
/// Returns `None` when the field is constant or too small.
pub fn local_morans_i(values: &[f64], weights: &WeightRows) -> Option<Vec<f64>> {
    let n = values.len();
    assert_eq!(n, weights.len(), "values and weight rows must align");
    if n < 3 {
        return None;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let z: Vec<f64> = values.iter().map(|v| v - mean).collect();
    let m2: f64 = z.iter().map(|v| v * v).sum::<f64>() / n as f64;
    if m2 == 0.0 {
        return None;
    }
    Some(
        (0..n)
            .map(|i| {
                let lag: f64 = weights[i].iter().map(|&(j, w)| w * z[j]).sum();
                z[i] / m2 * lag
            })
            .collect(),
    )
}

#[cfg(test)]
mod geary_tests {
    use super::tests_support::grid_weights;
    use super::*;

    #[test]
    fn clustered_field_has_c_below_one() {
        let k = 10;
        let values: Vec<f64> = (0..k * k)
            .map(|i| if i % k < k / 2 { 0.0 } else { 10.0 })
            .collect();
        let c = gearys_c(&values, &grid_weights(k)).unwrap();
        assert!(c < 0.5, "C = {c}");
    }

    #[test]
    fn checkerboard_has_c_above_one() {
        let k = 10;
        let values: Vec<f64> = (0..k * k)
            .map(|i| if (i / k + i % k) % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let c = gearys_c(&values, &grid_weights(k)).unwrap();
        assert!(c > 1.5, "C = {c}");
    }

    #[test]
    fn geary_and_moran_agree_on_direction() {
        let k = 12;
        let values: Vec<f64> = (0..k * k)
            .map(|i| (i / k + i % k) as f64 + ((i as u64).wrapping_mul(40503) % 5) as f64)
            .collect();
        let w = grid_weights(k);
        let i_stat = morans_i(&values, &w).unwrap().i;
        let c = gearys_c(&values, &w).unwrap();
        assert!(i_stat > 0.0);
        assert!(c < 1.0, "C = {c} disagrees with I = {i_stat}");
    }

    #[test]
    fn constant_field_is_undefined() {
        assert!(gearys_c(&[1.0; 25], &grid_weights(5)).is_none());
        assert!(local_morans_i(&[1.0; 25], &grid_weights(5)).is_none());
    }

    #[test]
    fn local_moran_averages_to_global() {
        // With row-standardized weights, mean(local I) ~= global I (exact up
        // to the n/(n-1) variance convention).
        let k = 9;
        let values: Vec<f64> = (0..k * k)
            .map(|i| if i % k < k / 2 { 1.0 } else { 7.0 })
            .collect();
        let w = grid_weights(k);
        let local = local_morans_i(&values, &w).unwrap();
        let global = morans_i(&values, &w).unwrap().i;
        let mean_local = local.iter().sum::<f64>() / local.len() as f64;
        assert!(
            (mean_local - global).abs() < 0.05,
            "{mean_local} vs {global}"
        );
    }

    #[test]
    fn local_moran_flags_interior_of_patches_positive() {
        let k = 10;
        let values: Vec<f64> = (0..k * k)
            .map(|i| if i % k < k / 2 { 0.0 } else { 10.0 })
            .collect();
        let w = grid_weights(k);
        let local = local_morans_i(&values, &w).unwrap();
        // A deep-interior cell of the left patch: all neighbours identical.
        let interior = k + 1;
        assert!(local[interior] > 0.0, "interior LISA {}", local[interior]);
    }
}
