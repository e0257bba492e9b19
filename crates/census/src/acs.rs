//! The synthetic ACS 5-year dataset: joinable block-group demographics.
//!
//! Mirrors how the paper merges scraped plans with the American Community
//! Survey: one row per block group, keyed by GEOID, carrying median
//! household income, population and density, plus the city-median income
//! split (§5.5) into low/high bands.

use crate::cities::CityProfile;
use crate::income::IncomeField;
use bbsim_geo::{BlockGroupId, CityGrid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The paper's income classification, split at the city median.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncomeBand {
    /// Below the city's median household income.
    Low,
    /// At or above the city's median household income.
    High,
}

/// One ACS row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockGroupDemographics {
    pub id: BlockGroupId,
    /// Median household income in thousands of dollars.
    pub median_income_k: f64,
    /// Residents (block groups hold 600–3000 people).
    pub population: u32,
    /// Population density in thousands per square mile.
    pub density_k: f64,
    pub income_band: IncomeBand,
}

/// The per-city ACS table.
#[derive(Debug, Clone)]
pub struct AcsDataset {
    rows: Vec<BlockGroupDemographics>,
    by_id: HashMap<BlockGroupId, usize>,
    city_median_income_k: f64,
}

impl AcsDataset {
    /// Builds the dataset for one city from its grid and income field.
    ///
    /// Population per block group is drawn uniformly from the Census
    /// Bureau's 600–3000 design range; density scales the city-level figure
    /// by a centre-heavy radial profile.
    pub fn build(city: &CityProfile, grid: &CityGrid, income: &IncomeField, seed: u64) -> Self {
        assert_eq!(grid.len(), income.len(), "grid and income field must align");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAC5_DA7A);
        let rows: Vec<BlockGroupDemographics> = (0..grid.len())
            .map(|i| {
                let population = rng.gen_range(600..=3000);
                // Density peaks downtown at ~2x the city average and falls
                // to ~0.5x at the fringe.
                let radial = grid.radial_position(i);
                let density_k = city.density_k * (2.0 - 1.5 * radial);
                BlockGroupDemographics {
                    id: grid.id(i),
                    median_income_k: income.income_k(i),
                    population,
                    density_k,
                    income_band: if income.is_high_income(i) {
                        IncomeBand::High
                    } else {
                        IncomeBand::Low
                    },
                }
            })
            .collect();
        let by_id = rows.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        Self {
            rows,
            by_id,
            city_median_income_k: income.city_median_k(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows, cell-aligned with the source grid.
    pub fn rows(&self) -> &[BlockGroupDemographics] {
        &self.rows
    }

    /// Joins on GEOID, like the paper's plan/ACS merge.
    pub fn get(&self, id: BlockGroupId) -> Option<&BlockGroupDemographics> {
        self.by_id.get(&id).map(|&i| &self.rows[i])
    }

    /// The city median income used for the band split.
    pub fn city_median_income_k(&self) -> f64 {
        self.city_median_income_k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cities::{city_by_name, city_seed};

    fn dataset() -> AcsDataset {
        let city = city_by_name("New Orleans").unwrap();
        let grid = city.grid();
        let income = IncomeField::generate(&grid, city.median_income_k, city_seed(city.name));
        AcsDataset::build(city, &grid, &income, city_seed(city.name))
    }

    #[test]
    fn one_row_per_block_group() {
        let ds = dataset();
        assert_eq!(ds.len(), 439);
    }

    #[test]
    fn join_by_geoid_works() {
        let ds = dataset();
        for r in ds.rows().iter().take(10) {
            assert_eq!(ds.get(r.id).unwrap().id, r.id);
        }
        let absent = BlockGroupId::new(99, 999, 999_999, 9);
        assert!(ds.get(absent).is_none());
    }

    #[test]
    fn populations_are_in_census_design_range() {
        let ds = dataset();
        for r in ds.rows() {
            assert!((600..=3000).contains(&r.population), "{}", r.population);
        }
    }

    #[test]
    fn income_band_matches_median_split() {
        let ds = dataset();
        let med = ds.city_median_income_k();
        for r in ds.rows() {
            match r.income_band {
                IncomeBand::High => assert!(r.median_income_k >= med),
                IncomeBand::Low => assert!(r.median_income_k < med),
            }
        }
    }

    #[test]
    fn densities_are_positive_and_center_heavy() {
        let city = city_by_name("New Orleans").unwrap();
        let grid = city.grid();
        let income = IncomeField::generate(&grid, city.median_income_k, 1);
        let ds = AcsDataset::build(city, &grid, &income, 1);
        assert!(ds.rows().iter().all(|r| r.density_k > 0.0));
        // The centre cell (index 0) outranks the average.
        let avg: f64 = ds.rows().iter().map(|r| r.density_k).sum::<f64>() / ds.len() as f64;
        assert!(ds.rows()[0].density_k > avg);
    }

    #[test]
    fn deterministic_build() {
        let a = dataset();
        let b = dataset();
        assert_eq!(a.rows().len(), b.rows().len());
        for (x, y) in a.rows().iter().zip(b.rows()) {
            assert_eq!(x, y);
        }
    }
}
