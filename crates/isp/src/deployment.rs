//! Block-group-level infrastructure deployment.
//!
//! Who gets fiber is the paper's central causal lever: fiber raises the
//! local carriage value directly (§5.3) and indirectly through cable's
//! competitive response (§5.4), and it lands preferentially in high-income
//! block groups (§5.5). This module assigns per-block-group technology with
//! exactly those mechanics:
//!
//! * **coverage** — DSL/fiber ISPs serve a core-biased subset of the city's
//!   block groups; cable ISPs serve essentially all of it (§2);
//! * **fiber share** — a city-dependent fraction of the served groups get
//!   fiber, the rest legacy DSL;
//! * **income bias** — fiber lands on the block groups with the highest
//!   blend of income rank and spatially-smoothed noise. Frontier gets a
//!   near-zero income weight: the paper found it to be the outlier whose
//!   deployment does not follow income (Fig. 9b);
//! * **spatial smoothing** — both the coverage and fiber scores are
//!   neighbour-averaged, so deployments form contiguous patches and the
//!   measured Moran's I lands in the paper's 0.3–0.5 band (Table 3).

use crate::isp::{Isp, Technology};
use bbsim_census::{city_seed, CityProfile, IncomeField};
use bbsim_geo::CityGrid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The technology an ISP fields in one block group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechAtBlockGroup {
    /// The ISP does not serve this block group at all.
    NotServed,
    Dsl,
    Fiber,
    Cable,
}

/// A smoothed uniform-noise field on the city grid: iid draws averaged with
/// neighbours for `rounds` rounds, yielding spatially correlated values.
pub(crate) fn smoothed_noise(grid: &CityGrid, rounds: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut field: Vec<f64> = (0..grid.len()).map(|_| rng.gen_range(0.0..1.0)).collect();
    for _ in 0..rounds {
        let prev = field.clone();
        for i in 0..grid.len() {
            let ns = grid.rook_neighbors(i);
            if ns.is_empty() {
                continue;
            }
            let nb: f64 = ns.iter().map(|&j| prev[j]).sum::<f64>() / ns.len() as f64;
            field[i] = 0.45 * prev[i] + 0.55 * nb;
        }
    }
    field
}

/// Converts raw values to percentile ranks in `[0, 1]`.
pub(crate) fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; n];
    for (rank, &i) in order.iter().enumerate() {
        out[i] = if n > 1 {
            rank as f64 / (n - 1) as f64
        } else {
            0.5
        };
    }
    out
}

/// One ISP's deployment over a city's block groups.
#[derive(Debug, Clone)]
pub struct Deployment {
    isp: Isp,
    tech: Vec<TechAtBlockGroup>,
}

/// How strongly each DSL/fiber ISP's fiber deployment follows income.
fn income_weight(isp: Isp) -> f64 {
    match isp {
        // Calibrated so the Fig-9b high-minus-low fiber gap lands near the
        // paper's ~15-20 percentage points, not at a caricature.
        Isp::Att => 0.30,
        Isp::Verizon => 0.32,
        Isp::CenturyLink => 0.28,
        // Frontier is the paper's outlier: fiber does not track income.
        Isp::Frontier => 0.02,
        _ => 0.0,
    }
}

impl Deployment {
    /// Generates the deployment of `isp` in `city`. Deterministic in the
    /// city seed and the ISP identity.
    pub fn generate(isp: Isp, city: &CityProfile, grid: &CityGrid, income: &IncomeField) -> Self {
        Self::generate_at(isp, city, grid, income, 0)
    }

    /// Generates the deployment as of `epoch` (months since the study's
    /// first snapshot). The paper's §4.3 notes ISPs are actively deploying
    /// fiber; we model that as ~2.5 percentage points of additional fiber
    /// share per month, rolled out down the same desirability ranking —
    /// so deployments only ever grow (fiber is never un-trenched).
    pub fn generate_at(
        isp: Isp,
        city: &CityProfile,
        grid: &CityGrid,
        income: &IncomeField,
        epoch: u32,
    ) -> Self {
        assert_eq!(grid.len(), income.len(), "grid and income field must align");
        let seed = city_seed(city.name) ^ (isp.column() as u64) << 40;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD3D_107);
        let n = grid.len();

        let tech = match isp.technology() {
            Technology::Cable => {
                // Cable serves (almost) the whole city: §2 "cable-based ISPs
                // dominate in terms of coverage".
                let noise = smoothed_noise(grid, 2, &mut rng);
                let coverage = rng.gen_range(0.96..1.0);
                let cut = cutoff(&noise, coverage);
                (0..n)
                    .map(|i| {
                        if noise[i] <= cut {
                            TechAtBlockGroup::Cable
                        } else {
                            TechAtBlockGroup::NotServed
                        }
                    })
                    .collect()
            }
            Technology::DslFiber => {
                // Coverage: a core-biased, smoothed subset of block groups.
                let noise_cov = smoothed_noise(grid, 2, &mut rng);
                let radial: Vec<f64> = (0..n).map(|i| 1.0 - grid.radial_position(i)).collect();
                let cov_score: Vec<f64> = (0..n)
                    .map(|i| 0.5 * radial[i] + 0.5 * noise_cov[i])
                    .collect();
                let coverage = rng.gen_range(0.70..0.92);
                let cov_cut = cutoff_top(&cov_score, coverage);

                // Fiber: income-rank blended with smoothed noise, taken from
                // the top of the served set.
                let alpha = income_weight(isp);
                let inc_rank = ranks(income.incomes_k());
                let noise_fib = smoothed_noise(grid, 2, &mut rng);
                let noise_rank = ranks(&noise_fib);
                let fib_score: Vec<f64> = (0..n)
                    .map(|i| alpha * inc_rank[i] + (1.0 - alpha) * noise_rank[i])
                    .collect();
                let fiber_share = (rng.gen_range(0.28..0.62) + epoch as f64 * 0.025).min(0.85);

                let served: Vec<bool> = (0..n).map(|i| cov_score[i] >= cov_cut).collect();
                let served_scores: Vec<f64> = (0..n)
                    .filter(|&i| served[i])
                    .map(|i| fib_score[i])
                    .collect();
                let fib_cut = cutoff_top(&served_scores, fiber_share);

                (0..n)
                    .map(|i| {
                        if !served[i] {
                            TechAtBlockGroup::NotServed
                        } else if fib_score[i] >= fib_cut {
                            TechAtBlockGroup::Fiber
                        } else {
                            TechAtBlockGroup::Dsl
                        }
                    })
                    .collect()
            }
        };

        Self { isp, tech }
    }

    pub fn isp(&self) -> Isp {
        self.isp
    }

    pub fn len(&self) -> usize {
        self.tech.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tech.is_empty()
    }

    /// Technology fielded in block group `bg`.
    pub fn tech(&self, bg: usize) -> TechAtBlockGroup {
        self.tech[bg]
    }

    /// Fraction of the city's block groups the ISP serves at all.
    pub fn coverage(&self) -> f64 {
        let served = self
            .tech
            .iter()
            .filter(|&&t| t != TechAtBlockGroup::NotServed)
            .count();
        served as f64 / self.tech.len() as f64
    }

    /// Fiber block groups as a fraction of served block groups (0 for
    /// cable ISPs).
    pub fn fiber_share(&self) -> f64 {
        let served = self
            .tech
            .iter()
            .filter(|&&t| t != TechAtBlockGroup::NotServed)
            .count();
        if served == 0 {
            return 0.0;
        }
        let fiber = self
            .tech
            .iter()
            .filter(|&&t| t == TechAtBlockGroup::Fiber)
            .count();
        fiber as f64 / served as f64
    }

    /// Boolean fiber mask (true where this ISP fields fiber), used by cable
    /// rivals' pricing.
    pub fn fiber_mask(&self) -> Vec<bool> {
        self.tech
            .iter()
            .map(|&t| t == TechAtBlockGroup::Fiber)
            .collect()
    }
}

/// Value below which `fraction` of the (ascending) values fall.
fn cutoff(values: &[f64], fraction: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * fraction).ceil() as usize)
        .min(v.len())
        .max(1)
        - 1;
    v[idx]
}

/// Value above which `fraction` of the values lie (threshold for taking the
/// top `fraction`).
fn cutoff_top(values: &[f64], fraction: f64) -> f64 {
    if values.is_empty() {
        return f64::MAX;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let idx = ((v.len() as f64 * fraction).ceil() as usize)
        .min(v.len())
        .max(1)
        - 1;
    v[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;

    fn world(isp: Isp, city_name: &str) -> (Deployment, CityGrid, IncomeField) {
        let city = city_by_name(city_name).unwrap();
        let grid = city.grid();
        let income = IncomeField::generate(&grid, city.median_income_k, city_seed(city.name));
        let dep = Deployment::generate(isp, city, &grid, &income);
        (dep, grid, income)
    }

    #[test]
    fn cable_serves_nearly_everything() {
        let (dep, ..) = world(Isp::Cox, "New Orleans");
        assert!(dep.coverage() > 0.95, "coverage {}", dep.coverage());
        assert_eq!(dep.fiber_share(), 0.0);
    }

    #[test]
    fn dsl_fiber_isp_has_partial_coverage_and_mixed_tech() {
        let (dep, ..) = world(Isp::Att, "New Orleans");
        let cov = dep.coverage();
        assert!((0.6..0.95).contains(&cov), "coverage {cov}");
        let share = dep.fiber_share();
        assert!((0.2..0.7).contains(&share), "fiber share {share}");
    }

    #[test]
    fn cable_beats_dsl_fiber_coverage_in_every_shared_city() {
        // §5.3: "we do not find a case where the DSL/fiber-based providers
        // offer better coverage ... than the cable-based providers."
        for city in bbsim_census::ALL_CITIES {
            let isps = Isp::of_city(city);
            let cable = isps.iter().copied().find(|i| i.is_cable());
            let dslf = isps.iter().copied().find(|i| !i.is_cable());
            if let (Some(c), Some(d)) = (cable, dslf) {
                let grid = city.grid();
                let income =
                    IncomeField::generate(&grid, city.median_income_k, city_seed(city.name));
                let dc = Deployment::generate(c, city, &grid, &income);
                let dd = Deployment::generate(d, city, &grid, &income);
                assert!(
                    dc.coverage() > dd.coverage(),
                    "{}: cable {} vs dsl/fiber {}",
                    city.name,
                    dc.coverage(),
                    dd.coverage()
                );
            }
        }
    }

    #[test]
    fn fiber_follows_income_for_att() {
        let (dep, _, income) = world(Isp::Att, "New Orleans");
        let mut fiber_income = Vec::new();
        let mut dsl_income = Vec::new();
        for i in 0..dep.len() {
            match dep.tech(i) {
                TechAtBlockGroup::Fiber => fiber_income.push(income.income_k(i)),
                TechAtBlockGroup::Dsl => dsl_income.push(income.income_k(i)),
                _ => {}
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        // The calibrated income weight produces a moderate but systematic
        // premium (the paper's gap is ~16 percentage points, not a cliff).
        assert!(
            mean(&fiber_income) > mean(&dsl_income) * 1.03,
            "fiber {} vs dsl {}",
            mean(&fiber_income),
            mean(&dsl_income)
        );
    }

    #[test]
    fn frontier_fiber_does_not_follow_income() {
        // Fig 9b: Frontier is the outlier. Its fiber/DSL income gap should
        // be small relative to AT&T's.
        let gap = |isp: Isp, city: &str| {
            let (dep, _, income) = world(isp, city);
            let mut fiber = Vec::new();
            let mut dsl = Vec::new();
            for i in 0..dep.len() {
                match dep.tech(i) {
                    TechAtBlockGroup::Fiber => fiber.push(income.income_k(i)),
                    TechAtBlockGroup::Dsl => dsl.push(income.income_k(i)),
                    _ => {}
                }
            }
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            mean(&fiber) - mean(&dsl)
        };
        // Average over each ISP's cities so single-city noise cannot flip
        // the comparison.
        let frontier_gap = (gap(Isp::Frontier, "Tampa")
            + gap(Isp::Frontier, "Durham")
            + gap(Isp::Frontier, "Fort Wayne")
            + gap(Isp::Frontier, "Santa Barbara"))
            / 4.0;
        let att_gap = (gap(Isp::Att, "New Orleans")
            + gap(Isp::Att, "Chicago")
            + gap(Isp::Att, "Austin")
            + gap(Isp::Att, "Wichita"))
            / 4.0;
        assert!(
            frontier_gap.abs() < att_gap,
            "frontier {frontier_gap} vs att {att_gap}"
        );
    }

    #[test]
    fn deployment_is_spatially_clustered() {
        let (dep, grid, _) = world(Isp::Att, "Chicago");
        // Encode tech as a numeric field: fiber 2, dsl 1, none 0.
        let values: Vec<f64> = dep
            .tech
            .iter()
            .map(|t| match t {
                TechAtBlockGroup::Fiber => 2.0,
                TechAtBlockGroup::Dsl => 1.0,
                _ => 0.0,
            })
            .collect();
        let w = grid.rook_weights(&(0..grid.len()).collect::<Vec<_>>());
        let r = bbsim_stats::morans_i(&values, &w).unwrap();
        assert!(r.i > 0.25, "Moran's I = {}", r.i);
    }

    #[test]
    fn deployment_is_deterministic() {
        let (a, ..) = world(Isp::Att, "New Orleans");
        let (b, ..) = world(Isp::Att, "New Orleans");
        assert_eq!(a.tech, b.tech);
    }

    #[test]
    fn fiber_share_varies_across_cities() {
        // Inter-city variation (Fig 5): shares must not collapse to one
        // value.
        let shares: Vec<f64> = [
            "New Orleans",
            "Wichita",
            "Oklahoma City",
            "Chicago",
            "Austin",
        ]
        .iter()
        .map(|c| world(Isp::Att, c).0.fiber_share())
        .collect();
        let min = shares.iter().cloned().fold(f64::MAX, f64::min);
        let max = shares.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.08, "shares {shares:?}");
    }

    #[test]
    fn ranks_are_uniform() {
        let values = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(ranks(&values), vec![1.0, 0.0, 0.5, 0.25, 0.75]);
    }

    #[test]
    fn cutoff_top_selects_requested_fraction() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let cut = cutoff_top(&values, 0.3);
        let kept = values.iter().filter(|&&v| v >= cut).count();
        assert_eq!(kept, 30);
    }
}
