//! Synthetic block-group income fields.
//!
//! US urban income is spatially clustered: rich and poor neighbourhoods form
//! contiguous patches, not salt-and-pepper noise. The paper's §5.5 analysis
//! (fiber follows income) only has teeth if the synthetic income field shows
//! the same structure, so we generate it in three steps:
//!
//! 1. **directional gradient** — a random city orientation makes one side of
//!    town systematically richer, the dominant pattern in US metros;
//! 2. **lognormal noise** — block-group level dispersion around the city
//!    median;
//! 3. **neighbour smoothing** — a few rounds of local averaging on the city
//!    grid, which turns the noise into contiguous patches (positive Moran's
//!    I) without erasing the gradient.
//!
//! Finally the field is rescaled so its median equals the city's Table-2
//! median household income.

use bbsim_geo::CityGrid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A per-block-group income field aligned with a [`CityGrid`]'s cells.
#[derive(Debug, Clone)]
pub struct IncomeField {
    /// Median household income per block group, in thousands of dollars.
    incomes_k: Vec<f64>,
    /// City median (the Table-2 value the field is calibrated to).
    city_median_k: f64,
}

impl IncomeField {
    /// Generates the field for `grid`, calibrated to `city_median_k`,
    /// deterministically from `seed`.
    pub fn generate(grid: &CityGrid, city_median_k: f64, seed: u64) -> Self {
        assert!(city_median_k > 0.0, "median income must be positive");
        let n = grid.len();
        // Domain-separate the seed so the income stream never aliases other
        // per-city streams derived from the same base seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1C0_3E5);
        Self::generate_impl(grid, city_median_k, &mut rng, n)
    }

    fn generate_impl(grid: &CityGrid, city_median_k: f64, rng: &mut StdRng, n: usize) -> Self {
        // 1. Directional gradient across the city footprint.
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let (dx, dy) = (theta.cos(), theta.sin());
        let projections: Vec<f64> = (0..n)
            .map(|i| {
                let (x, y) = grid.coord(i);
                x as f64 * dx + y as f64 * dy
            })
            .collect();
        let pmin = projections.iter().cloned().fold(f64::MAX, f64::min);
        let pmax = projections.iter().cloned().fold(f64::MIN, f64::max);
        let span = (pmax - pmin).max(1e-9);

        // Gradient strength: the rich side sits ~1.9x above the poor side.
        let mut field: Vec<f64> = (0..n)
            .map(|i| {
                let t = (projections[i] - pmin) / span; // 0..1 across town
                let gradient = 0.65 + 0.85 * t;
                let noise: f64 = {
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    (0.35 * z).exp() // lognormal multiplier
                };
                gradient * noise
            })
            .collect();

        // 3. Neighbour smoothing to create contiguous income patches.
        for _ in 0..3 {
            let prev = field.clone();
            for i in 0..n {
                let ns = grid.rook_neighbors(i);
                if ns.is_empty() {
                    continue;
                }
                let nb_mean: f64 = ns.iter().map(|&j| prev[j]).sum::<f64>() / ns.len() as f64;
                field[i] = 0.5 * prev[i] + 0.5 * nb_mean;
            }
        }

        // Rescale so the field's median matches the city median.
        let mut sorted = field.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let med = sorted[n / 2];
        let scale = city_median_k / med;
        let incomes_k = field.into_iter().map(|v| v * scale).collect();

        Self {
            incomes_k,
            city_median_k,
        }
    }

    pub fn len(&self) -> usize {
        self.incomes_k.len()
    }

    pub fn is_empty(&self) -> bool {
        self.incomes_k.is_empty()
    }

    /// Income of block group `i`, in thousands of dollars.
    pub fn income_k(&self, i: usize) -> f64 {
        self.incomes_k[i]
    }

    /// All incomes, cell-aligned with the grid.
    pub fn incomes_k(&self) -> &[f64] {
        &self.incomes_k
    }

    /// The city median the field was calibrated to.
    pub fn city_median_k(&self) -> f64 {
        self.city_median_k
    }

    /// True if block group `i` is at or above the city median — the paper's
    /// "high income" class.
    pub fn is_high_income(&self, i: usize) -> bool {
        self.incomes_k[i] >= self.city_median_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_geo::LatLon;

    fn test_grid() -> CityGrid {
        CityGrid::grow(LatLon::new(29.95, -90.07), 439, 22, 71, 7)
    }

    #[test]
    fn field_is_calibrated_to_city_median() {
        let g = test_grid();
        let f = IncomeField::generate(&g, 41.0, 1);
        let mut v = f.incomes_k().to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = v[v.len() / 2];
        assert!((med - 41.0).abs() < 1e-9, "median = {med}");
    }

    #[test]
    fn incomes_are_positive_and_plausible() {
        let g = test_grid();
        let f = IncomeField::generate(&g, 64.0, 2);
        for i in 0..f.len() {
            let inc = f.income_k(i);
            assert!(inc > 5.0 && inc < 500.0, "bg {i} income {inc}k");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = test_grid();
        let a = IncomeField::generate(&g, 41.0, 5);
        let b = IncomeField::generate(&g, 41.0, 5);
        assert_eq!(a.incomes_k(), b.incomes_k());
        let c = IncomeField::generate(&g, 41.0, 6);
        assert_ne!(a.incomes_k(), c.incomes_k());
    }

    #[test]
    fn field_is_spatially_clustered() {
        // The generated income surface must itself show positive spatial
        // autocorrelation, or the downstream fiber-follows-income analysis
        // would be built on sand.
        let g = test_grid();
        let f = IncomeField::generate(&g, 41.0, 3);
        let w = g.rook_weights(&(0..g.len()).collect::<Vec<_>>());
        let r = bbsim_stats::morans_i(f.incomes_k(), &w).unwrap();
        assert!(r.i > 0.3, "income Moran's I = {}", r.i);
    }

    #[test]
    fn high_income_split_is_roughly_half() {
        let g = test_grid();
        let f = IncomeField::generate(&g, 41.0, 4);
        let high = (0..f.len()).filter(|&i| f.is_high_income(i)).count();
        let frac = high as f64 / f.len() as f64;
        assert!((0.35..=0.65).contains(&frac), "high-income fraction {frac}");
    }

    #[test]
    fn spread_is_substantial() {
        // Real cities have block groups both far below and far above the
        // median.
        let g = test_grid();
        let f = IncomeField::generate(&g, 50.0, 8);
        let min = f.incomes_k().iter().cloned().fold(f64::MAX, f64::min);
        let max = f.incomes_k().iter().cloned().fold(f64::MIN, f64::max);
        assert!(min < 35.0, "min {min}");
        assert!(max > 70.0, "max {max}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_median_rejected() {
        let g = CityGrid::grow(LatLon::new(0.0, 0.0), 4, 1, 1, 0);
        IncomeField::generate(&g, 0.0, 0);
    }
}
