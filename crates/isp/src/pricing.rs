//! Cable tier geography and competitive pricing.
//!
//! Cable plants use the same technology city-wide, yet the paper finds their
//! *plans* spatially clustered (§5.3) and systematically better where fiber
//! competes (§5.4). This module implements the mechanism:
//!
//! * each block group gets a **standard tier level** — how far up the
//!   standard plan ladder the local offers go — drawn from city-specific
//!   weights over a smoothed noise field (clustered, city-diverse);
//! * a city-dependent, spatially clustered fraction of block groups carries
//!   the **promo tier** (Cox's 28.6 Mbps/$ gig promo in Fig. 5);
//! * block groups where a rival fields fiber get the **competitive tier**,
//!   the ~30%-better-cv offer behind Fig. 8;
//! * the bottom income decile carries an **ACP-subsidized** variant — the
//!   long carriage-value tail the paper prunes from Fig. 8.
//!
//! Xfinity is special-cased to be location-invariant (§4.1): every block
//! group gets the full standard ladder, no promo, no competitive response.

use crate::deployment::{ranks, smoothed_noise};
use crate::isp::Isp;
use crate::plans::{catalog, Plan};
use bbsim_census::{city_seed, CityProfile, IncomeField};
use bbsim_geo::CityGrid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pricing tier a cable ISP applies in one block group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CableTier {
    /// Standard ladder up to the given level (index into the standard plan
    /// list, inclusive).
    Standard(u8),
    /// Standard ladder plus the clustered promo plan.
    Promo(u8),
    /// Standard ladder plus the competitive high-cv plan (fiber rival
    /// present).
    Competitive(u8),
}

impl CableTier {
    /// The standard-ladder level regardless of tier flavour.
    pub fn level(self) -> u8 {
        match self {
            CableTier::Standard(l) | CableTier::Promo(l) | CableTier::Competitive(l) => l,
        }
    }
}

/// Splits a cable catalog into (standard ladder, competitive plan, promo
/// plan). By convention the last two catalog entries are the competitive and
/// promo plans; Xfinity's whole catalog is standard.
pub fn split_catalog(
    isp: Isp,
) -> (
    &'static [Plan],
    Option<&'static Plan>,
    Option<&'static Plan>,
) {
    let plans = catalog(isp);
    assert!(isp.is_cable(), "split_catalog is cable-only");
    if isp == Isp::Xfinity {
        return (plans, None, None);
    }
    let n = plans.len();
    (&plans[..n - 2], Some(&plans[n - 2]), Some(&plans[n - 1]))
}

/// Per-block-group cable pricing decisions for one (ISP, city).
#[derive(Debug, Clone)]
pub struct CablePricing {
    isp: Isp,
    tiers: Vec<CableTier>,
    /// Block groups whose offers carry the ACP-subsidized variant.
    acp: Vec<bool>,
}

impl CablePricing {
    /// Generates pricing for `isp` in `city`.
    ///
    /// `rival_fiber` is the fiber mask of the co-located DSL/fiber ISP
    /// (false everywhere when the cable ISP is a monopoly).
    pub fn generate(
        isp: Isp,
        city: &CityProfile,
        grid: &CityGrid,
        income: &IncomeField,
        rival_fiber: &[bool],
    ) -> Self {
        Self::generate_at(isp, city, grid, income, rival_fiber, 0)
    }

    /// Pricing as of `epoch` months in: promo campaigns are re-rolled every
    /// month (the "occasional discounts" of §4.3), while the standard tier
    /// geography and the competitive response track the evolving rival
    /// deployment.
    pub fn generate_at(
        isp: Isp,
        city: &CityProfile,
        grid: &CityGrid,
        income: &IncomeField,
        rival_fiber: &[bool],
        epoch: u32,
    ) -> Self {
        assert!(isp.is_cable(), "CablePricing is cable-only");
        assert_eq!(
            grid.len(),
            rival_fiber.len(),
            "rival mask must align with grid"
        );
        let n = grid.len();
        let seed = city_seed(city.name) ^ (isp.column() as u64) << 48;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9C1CE);

        if isp == Isp::Xfinity {
            // Location-invariant: full ladder everywhere, nothing else.
            let top = (catalog(isp).len() - 1) as u8;
            return Self {
                isp,
                tiers: vec![CableTier::Standard(top); n],
                acp: vec![false; n],
            };
        }

        let (standard, _, _) = split_catalog(isp);
        let n_levels = standard.len();

        // City-specific level weights. Spectrum's inter-city diversity knob
        // is larger than Cox's, which is what makes Spectrum the most
        // diverse ISP in Fig. 6 and AT&T-style providers the least.
        let diversity = match isp {
            Isp::Spectrum => 2.6,
            _ => 0.9,
        };
        let raw: Vec<f64> = (0..n_levels)
            .map(|_| (rng.gen_range(-1.0..1.0f64) * diversity).exp())
            .collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();

        // Assign levels from a smoothed noise field by weighted quantile:
        // contiguous noise patches become contiguous tier patches. Spectrum
        // plant upgrades are patchier than Cox's (the paper measures its
        // Moran's I at 0.23, the lowest of the cable ISPs).
        let tier_rounds = 1;
        let _ = isp; // both cable ISPs share the patch scale
        let noise = smoothed_noise(grid, tier_rounds, &mut rng);
        let noise_rank = ranks(&noise);
        let mut cum = Vec::with_capacity(n_levels);
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cum.push(acc);
        }
        let level_of = |r: f64| -> u8 {
            cum.iter()
                .position(|&c| r <= c + 1e-12)
                .unwrap_or(n_levels - 1) as u8
        };

        // Promo blob: city-dependent clustered fraction, re-rolled each
        // epoch from its own stream.
        let mut promo_rng = StdRng::seed_from_u64(seed ^ 0x980140 ^ ((epoch as u64) << 8));
        let rng = &mut promo_rng;
        let promo_frac = match isp {
            Isp::Spectrum => rng.gen_range(0.03..0.40),
            _ => rng.gen_range(0.05..0.25),
        };
        let promo_noise = smoothed_noise(grid, tier_rounds, rng);
        let promo_rank = ranks(&promo_noise);

        let tiers: Vec<CableTier> = (0..n)
            .map(|i| {
                let level = level_of(noise_rank[i]);
                if promo_rank[i] >= 1.0 - promo_frac {
                    CableTier::Promo(level)
                } else if rival_fiber[i] {
                    CableTier::Competitive(level)
                } else {
                    CableTier::Standard(level)
                }
            })
            .collect();

        // ACP-subsidized offers in the bottom income decile.
        let inc_rank = ranks(income.incomes_k());
        let acp = (0..n).map(|i| inc_rank[i] < 0.08).collect();

        Self { isp, tiers, acp }
    }

    pub fn isp(&self) -> Isp {
        self.isp
    }

    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    pub fn tier(&self, bg: usize) -> CableTier {
        self.tiers[bg]
    }

    pub fn tiers(&self) -> &[CableTier] {
        &self.tiers
    }

    /// The concrete plan list offered in block group `bg`.
    pub fn plans_in(&self, bg: usize) -> Vec<Plan> {
        let (standard, competitive, promo) = split_catalog(self.isp);
        let tier = self.tiers[bg];
        let level = tier.level() as usize;
        let mut out: Vec<Plan> = standard[..=level.min(standard.len() - 1)].to_vec();
        match tier {
            CableTier::Promo(_) => {
                if let Some(p) = promo {
                    out.push(*p);
                }
            }
            CableTier::Competitive(_) => {
                if let Some(p) = competitive {
                    out.push(*p);
                }
            }
            CableTier::Standard(_) => {}
        }
        if self.acp[bg] {
            // The best offer also appears in its subsidized form.
            if let Some(&best) = out
                .iter()
                .max_by(|a, b| a.carriage_value().total_cmp(&b.carriage_value()))
            {
                out.push(best.with_subsidy(30.0));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;

    fn setup(isp: Isp, city_name: &str, rival_fiber_frac: f64) -> (CablePricing, CityGrid) {
        let city = city_by_name(city_name).unwrap();
        let grid = city.grid();
        let income = IncomeField::generate(&grid, city.median_income_k, city_seed(city.name));
        // Synthetic rival mask: first `frac` of cells.
        let k = (grid.len() as f64 * rival_fiber_frac) as usize;
        let mask: Vec<bool> = (0..grid.len()).map(|i| i < k).collect();
        let pricing = CablePricing::generate(isp, city, &grid, &income, &mask);
        (pricing, grid)
    }

    #[test]
    fn xfinity_is_location_invariant() {
        let (p, grid) = setup(Isp::Xfinity, "Atlanta", 0.4);
        let first = p.plans_in(0);
        for bg in 0..grid.len() {
            assert_eq!(p.plans_in(bg), first);
            assert!(!p.acp[bg]);
        }
        assert_eq!(first.len(), 3);
    }

    #[test]
    fn competitive_tier_appears_exactly_where_rival_fiber_is() {
        let (p, grid) = setup(Isp::Cox, "New Orleans", 0.35);
        for bg in 0..grid.len() {
            let competitive = matches!(p.tier(bg), CableTier::Competitive(_));
            let promo = matches!(p.tier(bg), CableTier::Promo(_));
            if bg < (grid.len() as f64 * 0.35) as usize {
                assert!(
                    competitive || promo,
                    "bg {bg} should respond to rival fiber"
                );
            } else {
                assert!(!competitive, "bg {bg} has no rival fiber");
            }
        }
    }

    #[test]
    fn competitive_best_cv_beats_standard_best_cv_by_about_30_percent() {
        let (p, grid) = setup(Isp::Cox, "New Orleans", 0.5);
        let best_cv = |bg: usize| {
            p.plans_in(bg)
                .iter()
                .map(|pl| pl.carriage_value())
                .fold(f64::MIN, f64::max)
        };
        let mut comp = Vec::new();
        let mut std_ = Vec::new();
        for bg in 0..grid.len() {
            match p.tier(bg) {
                CableTier::Competitive(_) if !p.acp[bg] => comp.push(best_cv(bg)),
                CableTier::Standard(_) if !p.acp[bg] => std_.push(best_cv(bg)),
                _ => {}
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let mc = med(&mut comp);
        let ms = med(&mut std_);
        let boost = mc / ms;
        assert!(
            (1.15..1.55).contains(&boost),
            "boost {boost} ({mc} vs {ms})"
        );
    }

    #[test]
    fn acp_block_groups_get_a_high_cv_tail() {
        let (p, grid) = setup(Isp::Cox, "New Orleans", 0.0);
        let mut acp_count = 0;
        for bg in 0..grid.len() {
            if p.acp[bg] {
                acp_count += 1;
                let best = p
                    .plans_in(bg)
                    .iter()
                    .map(|pl| pl.carriage_value())
                    .fold(f64::MIN, f64::max);
                assert!(
                    best > 28.7,
                    "ACP best cv {best} should exceed the promo peak"
                );
            }
        }
        let frac = acp_count as f64 / grid.len() as f64;
        assert!((0.02..0.15).contains(&frac), "ACP fraction {frac}");
    }

    #[test]
    fn promo_fraction_varies_by_city() {
        let frac = |city: &str| {
            let (p, grid) = setup(Isp::Cox, city, 0.0);
            (0..grid.len())
                .filter(|&bg| matches!(p.tier(bg), CableTier::Promo(_)))
                .count() as f64
                / grid.len() as f64
        };
        let fracs: Vec<f64> = [
            "New Orleans",
            "Oklahoma City",
            "Wichita",
            "Omaha",
            "Phoenix",
        ]
        .iter()
        .map(|c| frac(c))
        .collect();
        let min = fracs.iter().cloned().fold(f64::MAX, f64::min);
        let max = fracs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.03, "promo fractions {fracs:?}");
        assert!(fracs.iter().all(|f| (0.03..0.45).contains(f)), "{fracs:?}");
    }

    #[test]
    fn tiers_are_spatially_clustered() {
        let (p, grid) = setup(Isp::Cox, "Phoenix", 0.3);
        let values: Vec<f64> = (0..grid.len())
            .map(|bg| {
                p.plans_in(bg)
                    .iter()
                    .map(|pl| pl.carriage_value())
                    .fold(f64::MIN, f64::max)
            })
            .collect();
        let w = grid.rook_weights(&(0..grid.len()).collect::<Vec<_>>());
        let r = bbsim_stats::morans_i(&values, &w).unwrap();
        assert!(r.i > 0.1, "Moran's I = {}", r.i);
    }

    #[test]
    fn plan_ladders_respect_levels() {
        let (p, grid) = setup(Isp::Cox, "Wichita", 0.0);
        let (standard, ..) = split_catalog(Isp::Cox);
        for bg in 0..grid.len() {
            let plans = p.plans_in(bg);
            let level = p.tier(bg).level() as usize;
            let ladder_len = plans
                .iter()
                .filter(|pl| standard.iter().any(|s| s == *pl))
                .count();
            assert_eq!(ladder_len, level + 1, "bg {bg}");
        }
    }

    #[test]
    fn pricing_is_deterministic() {
        let (a, _) = setup(Isp::Cox, "New Orleans", 0.3);
        let (b, _) = setup(Isp::Cox, "New Orleans", 0.3);
        assert_eq!(a.tiers(), b.tiers());
    }

    #[test]
    #[should_panic(expected = "cable-only")]
    fn dsl_isp_rejected() {
        let city = city_by_name("New Orleans").unwrap();
        let grid = city.grid();
        let income = IncomeField::generate(&grid, 41.0, 1);
        let mask = vec![false; grid.len()];
        CablePricing::generate(Isp::Att, city, &grid, &income, &mask);
    }
}
