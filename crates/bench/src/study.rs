//! Study runner: curates many cities, optionally in parallel.
//!
//! Within one city the scrape runs on a virtual timeline (deterministic);
//! across cities the simulations are independent, so real threads buy real
//! wall-clock speedup without touching determinism. Cities run on
//! `bqt::exec`, the executor campaigns and serve share: largest city (by
//! block groups) first, each result in its city's slot.

use bbsim_census::{city_by_name, CityProfile, ALL_CITIES};
use bbsim_dataset::{
    aggregate_block_groups, curate_city, BlockGroupRow, CityDataset, CurationOptions,
};

/// Sampling scale of a study run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~6 sampled addresses per block group: minutes-scale full study.
    Quick,
    /// ~12 per block group.
    Mid,
    /// The paper's methodology: 10% with a 30-sample floor.
    Paper,
}

impl Scale {
    pub fn options(self, seed: u64) -> CurationOptions {
        match self {
            Scale::Quick => CurationOptions::quick(seed),
            Scale::Mid => CurationOptions::quick(seed)
                .min_samples(12)
                .max_samples_per_bg(Some(12)),
            Scale::Paper => CurationOptions::paper_default(seed),
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "mid" => Some(Scale::Mid),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The curated study: one dataset per city plus its block-group aggregate.
pub struct StudyDataset {
    pub scale: Scale,
    pub cities: Vec<CityStudy>,
}

/// One city's curated data and aggregates.
pub struct CityStudy {
    pub dataset: CityDataset,
    pub rows: Vec<BlockGroupRow>,
}

impl StudyDataset {
    /// The study slice for one city, if it was curated.
    pub fn city(&self, name: &str) -> Option<&CityStudy> {
        self.cities.iter().find(|c| c.dataset.city.name == name)
    }

    /// All block-group rows across cities.
    pub fn all_rows(&self) -> impl Iterator<Item = &BlockGroupRow> {
        self.cities.iter().flat_map(|c| c.rows.iter())
    }
}

/// Resolves city names (comma-separated) to profiles; `None` = all 30.
pub fn resolve_cities(filter: Option<&str>) -> Vec<&'static CityProfile> {
    match filter {
        None => ALL_CITIES.iter().collect(),
        Some(spec) => spec
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                city_by_name(name)
                    .unwrap_or_else(|| panic!("unknown city {name:?}; names are as in Table 2"))
            })
            .collect(),
    }
}

/// Curates `cities` at `scale`, using up to `threads` OS threads.
///
/// # Panics
/// If `cities` is empty, or if curating a city panics (after every other
/// city has finished); the message names the city.
pub fn run_study(
    cities: &[&'static CityProfile],
    scale: Scale,
    seed: u64,
    threads: usize,
) -> StudyDataset {
    assert!(!cities.is_empty(), "study needs at least one city");
    let slots = bqt::exec::map(
        cities,
        threads,
        |city| city.block_groups as u64,
        |_, city| {
            let dataset = curate_city(city, &scale.options(seed));
            let rows = aggregate_block_groups(&dataset.records);
            CityStudy { dataset, rows }
        },
    );
    let mut cities_done: Vec<CityStudy> = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|failed| panic!("curating {}: {failed}", cities[failed.id].name))
        })
        .collect();
    // Deterministic output order regardless of the caller's city order.
    cities_done.sort_by_key(|c| c.dataset.city.name);
    StudyDataset {
        scale,
        cities: cities_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_of_two_small_cities() {
        let cities = resolve_cities(Some("Billings, Fargo"));
        let study = run_study(&cities, Scale::Quick, 1, 2);
        assert_eq!(study.cities.len(), 2);
        assert!(study.city("Billings").is_some());
        assert!(study.city("Fargo").is_some());
        assert!(study.city("Chicago").is_none());
        for c in &study.cities {
            assert!(!c.rows.is_empty());
        }
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let cities = resolve_cities(Some("Billings, Fargo"));
        let serial = run_study(&cities, Scale::Quick, 3, 1);
        let parallel = run_study(&cities, Scale::Quick, 3, 4);
        for (a, b) in serial.cities.iter().zip(&parallel.cities) {
            assert_eq!(a.dataset.city.name, b.dataset.city.name);
            assert_eq!(a.rows.len(), b.rows.len());
            assert_eq!(a.dataset.records, b.dataset.records);
        }
    }

    #[test]
    #[should_panic(expected = "unknown city")]
    fn unknown_city_panics_with_hint() {
        resolve_cities(Some("Gotham"));
    }

    #[test]
    fn scale_parse_roundtrip() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("mid"), Some(Scale::Mid));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }
}
