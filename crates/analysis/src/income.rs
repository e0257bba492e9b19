//! §5.5 — who gets fiber: deployment split by block-group income.
//!
//! Block groups are classified fiber/DSL from the scraped plans' shape
//! (fiber-grade uploads), then joined against the public ACS income table
//! and split at the city's median income, exactly like the paper's
//! methodology ("low" below the city median, "high" at or above it).

use bbsim_census::{city_seed, AcsDataset, CityProfile, IncomeBand, IncomeField};
use bbsim_dataset::BlockGroupRow;
use bbsim_isp::Isp;

/// Fig. 9a's quantities for one (city, DSL/fiber ISP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiberIncomeBreakdown {
    /// Served low-income block groups.
    pub n_low: usize,
    /// Served high-income block groups.
    pub n_high: usize,
    /// Percent of low-income served groups with fiber available.
    pub low_fiber_pct: f64,
    /// Percent of high-income served groups with fiber available.
    pub high_fiber_pct: f64,
}

impl FiberIncomeBreakdown {
    /// Fig. 9b's metric: percentage-point difference, high minus low.
    pub fn gap_points(&self) -> f64 {
        self.high_fiber_pct - self.low_fiber_pct
    }
}

/// Rebuilds the public ACS table for a city (geometry + income are public
/// context, not hidden world state).
pub fn public_acs(city: &CityProfile) -> AcsDataset {
    let grid = city.grid();
    let income = IncomeField::generate(&grid, city.median_income_k, city_seed(city.name));
    AcsDataset::build(city, &grid, &income, city_seed(city.name))
}

/// Computes the fiber-by-income breakdown for one DSL/fiber ISP in a city.
///
/// A block group counts as fiber-served when at least half its scraped
/// addresses' best plans look fiber-fed. Returns `None` when the ISP has
/// fewer than 10 served groups in either band.
pub fn fiber_by_income(
    city: &CityProfile,
    rows: &[BlockGroupRow],
    isp: Isp,
) -> Option<FiberIncomeBreakdown> {
    assert!(!isp.is_cable(), "income split applies to DSL/fiber ISPs");
    let acs = public_acs(city);
    let mut low = (0usize, 0usize); // (fiber, total)
    let mut high = (0usize, 0usize);
    for r in rows.iter().filter(|r| r.isp == isp) {
        let demo = acs.get(r.block_group)?;
        let has_fiber = r.fiber_share >= 0.5;
        let slot = match demo.income_band {
            IncomeBand::Low => &mut low,
            IncomeBand::High => &mut high,
        };
        slot.1 += 1;
        if has_fiber {
            slot.0 += 1;
        }
    }
    if low.1 < 10 || high.1 < 10 {
        return None;
    }
    Some(FiberIncomeBreakdown {
        n_low: low.1,
        n_high: high.1,
        low_fiber_pct: 100.0 * low.0 as f64 / low.1 as f64,
        high_fiber_pct: 100.0 * high.0 as f64 / high.1 as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;

    /// Builds synthetic rows where fiber presence follows the *public*
    /// income field exactly (perfectly income-biased deployment).
    fn income_following_rows(city: &CityProfile, isp: Isp) -> Vec<BlockGroupRow> {
        let acs = public_acs(city);
        let grid = city.grid();
        (0..grid.len())
            .map(|bg| {
                let high = acs.rows()[bg].income_band == IncomeBand::High;
                BlockGroupRow {
                    city: city.name.to_string(),
                    isp,
                    block_group: grid.id(bg),
                    bg_index: bg,
                    median_cv: if high { 12.5 } else { 0.5 },
                    cov: Some(0.0),
                    n_addresses: 30,
                    fiber_share: if high { 0.9 } else { 0.0 },
                }
            })
            .collect()
    }

    #[test]
    fn perfectly_biased_deployment_yields_maximal_gap() {
        let city = city_by_name("New Orleans").unwrap();
        let rows = income_following_rows(city, Isp::Att);
        let b = fiber_by_income(city, &rows, Isp::Att).unwrap();
        assert!(b.high_fiber_pct > 99.0);
        assert!(b.low_fiber_pct < 1.0);
        assert!(b.gap_points() > 99.0);
    }

    #[test]
    fn unbiased_deployment_yields_near_zero_gap() {
        let city = city_by_name("New Orleans").unwrap();
        let mut rows = income_following_rows(city, Isp::Att);
        // Fiber everywhere: no income gradient.
        for r in &mut rows {
            r.fiber_share = 1.0;
        }
        let b = fiber_by_income(city, &rows, Isp::Att).unwrap();
        assert_eq!(b.gap_points(), 0.0);
    }

    #[test]
    fn insufficient_coverage_returns_none() {
        let city = city_by_name("New Orleans").unwrap();
        let mut rows = income_following_rows(city, Isp::Att);
        rows.truncate(5);
        assert!(fiber_by_income(city, &rows, Isp::Att).is_none());
    }

    #[test]
    fn totals_cover_all_served_groups() {
        let city = city_by_name("New Orleans").unwrap();
        let rows = income_following_rows(city, Isp::Att);
        let b = fiber_by_income(city, &rows, Isp::Att).unwrap();
        assert_eq!(b.n_low + b.n_high, city.block_groups);
    }

    #[test]
    #[should_panic(expected = "DSL/fiber")]
    fn cable_isp_is_rejected() {
        let city = city_by_name("New Orleans").unwrap();
        fiber_by_income(city, &[], Isp::Cox);
    }
}
