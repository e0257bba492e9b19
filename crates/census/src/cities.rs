//! The 30 study cities, transcribed from the paper's Table 2.
//!
//! ISP presence uses the paper's column numbering:
//! 1 = AT&T, 2 = Verizon, 3 = CenturyLink, 4 = Frontier,
//! 5 = Spectrum, 6 = Cox, 7 = Xfinity.

use bbsim_geo::{CityGrid, LatLon};

/// Static description of one study city (one row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityProfile {
    pub name: &'static str,
    pub state: &'static str,
    /// State FIPS code (real values, so GEOIDs look authentic).
    pub state_fips: u8,
    /// County FIPS code of the city's core county.
    pub county_fips: u16,
    /// Downtown coordinates.
    pub lat: f64,
    pub lon: f64,
    /// First three digits of the city's zip codes.
    pub zip_prefix: u16,
    /// Census block groups covered (Table 2).
    pub block_groups: usize,
    /// Street addresses queried, in thousands (Table 2).
    pub street_addresses_k: u32,
    /// Population density in thousands per square mile (Table 2).
    pub density_k: f64,
    /// Median household income in thousands of dollars (Table 2).
    pub median_income_k: f64,
    /// Paper ISP column numbers (1..=7) active in this city.
    pub major_isps: &'static [u8],
}

impl CityProfile {
    /// True if the paper's ISP column `n` serves this city.
    pub fn has_isp(&self, n: u8) -> bool {
        self.major_isps.contains(&n)
    }

    /// Downtown location.
    pub fn center(&self) -> LatLon {
        LatLon::new(self.lat, self.lon)
    }

    /// Total street addresses (not thousands).
    pub fn street_addresses(&self) -> usize {
        self.street_addresses_k as usize * 1000
    }

    /// Grows this city's reproducible block-group layout.
    pub fn grid(&self) -> CityGrid {
        CityGrid::grow(
            self.center(),
            self.block_groups,
            self.state_fips,
            self.county_fips,
            city_seed(self.name),
        )
    }
}

/// Deterministic per-city seed: FNV-1a over the city name, so every crate
/// derives the same world without sharing state.
pub fn city_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Looks a city up by name (case-sensitive, as written in Table 2).
pub fn city_by_name(name: &str) -> Option<&'static CityProfile> {
    ALL_CITIES.iter().find(|c| c.name == name)
}

/// Table 2, row for row.
pub const ALL_CITIES: &[CityProfile] = &[
    CityProfile {
        name: "Albuquerque",
        state: "NM",
        state_fips: 35,
        county_fips: 1,
        lat: 35.0844,
        lon: -106.6504,
        zip_prefix: 871,
        block_groups: 387,
        street_addresses_k: 14,
        density_k: 1.8,
        median_income_k: 53.0,
        major_isps: &[3],
    },
    CityProfile {
        name: "Atlanta",
        state: "GA",
        state_fips: 13,
        county_fips: 121,
        lat: 33.7490,
        lon: -84.3880,
        zip_prefix: 303,
        block_groups: 389,
        street_addresses_k: 12,
        density_k: 1.2,
        median_income_k: 65.0,
        major_isps: &[1, 7],
    },
    CityProfile {
        name: "Austin",
        state: "TX",
        state_fips: 48,
        county_fips: 453,
        lat: 30.2672,
        lon: -97.7431,
        zip_prefix: 787,
        block_groups: 487,
        street_addresses_k: 25,
        density_k: 1.7,
        median_income_k: 74.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Baltimore",
        state: "MD",
        state_fips: 24,
        county_fips: 510,
        lat: 39.2904,
        lon: -76.6122,
        zip_prefix: 212,
        block_groups: 1188,
        street_addresses_k: 42,
        density_k: 1.7,
        median_income_k: 81.0,
        major_isps: &[2, 7],
    },
    CityProfile {
        name: "Billings",
        state: "MT",
        state_fips: 30,
        county_fips: 111,
        lat: 45.7833,
        lon: -108.5007,
        zip_prefix: 591,
        block_groups: 98,
        street_addresses_k: 3,
        density_k: 1.1,
        median_income_k: 61.0,
        major_isps: &[3, 5],
    },
    CityProfile {
        name: "Birmingham",
        state: "AL",
        state_fips: 1,
        county_fips: 73,
        lat: 33.5186,
        lon: -86.8104,
        zip_prefix: 352,
        block_groups: 354,
        street_addresses_k: 24,
        density_k: 0.716,
        median_income_k: 47.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Boston",
        state: "MA",
        state_fips: 25,
        county_fips: 25,
        lat: 42.3601,
        lon: -71.0589,
        zip_prefix: 21,
        block_groups: 373,
        street_addresses_k: 17,
        density_k: 8.4,
        median_income_k: 72.0,
        major_isps: &[2, 7],
    },
    CityProfile {
        name: "Charlotte",
        state: "NC",
        state_fips: 37,
        county_fips: 119,
        lat: 35.2271,
        lon: -80.8431,
        zip_prefix: 282,
        block_groups: 472,
        street_addresses_k: 21,
        density_k: 2.0,
        median_income_k: 73.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Chicago",
        state: "IL",
        state_fips: 17,
        county_fips: 31,
        lat: 41.8781,
        lon: -87.6298,
        zip_prefix: 606,
        block_groups: 1933,
        street_addresses_k: 86,
        density_k: 3.8,
        median_income_k: 64.0,
        major_isps: &[1, 7],
    },
    CityProfile {
        name: "Cleveland",
        state: "OH",
        state_fips: 39,
        county_fips: 35,
        lat: 41.4993,
        lon: -81.6944,
        zip_prefix: 441,
        block_groups: 754,
        street_addresses_k: 35,
        density_k: 4.8,
        median_income_k: 31.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Columbus",
        state: "OH",
        state_fips: 39,
        county_fips: 49,
        lat: 39.9612,
        lon: -82.9988,
        zip_prefix: 432,
        block_groups: 662,
        street_addresses_k: 20,
        density_k: 1.9,
        median_income_k: 58.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Durham",
        state: "NC",
        state_fips: 37,
        county_fips: 63,
        lat: 35.9940,
        lon: -78.8986,
        zip_prefix: 277,
        block_groups: 138,
        street_addresses_k: 5,
        density_k: 1.0,
        median_income_k: 59.0,
        major_isps: &[4, 5],
    },
    CityProfile {
        name: "Fargo",
        state: "ND",
        state_fips: 38,
        county_fips: 17,
        lat: 46.8772,
        lon: -96.7898,
        zip_prefix: 581,
        block_groups: 67,
        street_addresses_k: 5,
        density_k: 1.5,
        median_income_k: 62.0,
        major_isps: &[3],
    },
    CityProfile {
        name: "Fort Wayne",
        state: "IN",
        state_fips: 18,
        county_fips: 3,
        lat: 41.0793,
        lon: -85.1394,
        zip_prefix: 468,
        block_groups: 209,
        street_addresses_k: 11,
        density_k: 0.9,
        median_income_k: 54.0,
        major_isps: &[4, 7],
    },
    CityProfile {
        name: "Kansas City",
        state: "MO",
        state_fips: 29,
        county_fips: 95,
        lat: 39.0997,
        lon: -94.5786,
        zip_prefix: 641,
        block_groups: 305,
        street_addresses_k: 15,
        density_k: 1.2,
        median_income_k: 51.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Los Angeles",
        state: "CA",
        state_fips: 6,
        county_fips: 37,
        lat: 34.0522,
        lon: -118.2437,
        zip_prefix: 900,
        block_groups: 1787,
        street_addresses_k: 90,
        density_k: 8.5,
        median_income_k: 67.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Las Vegas",
        state: "NV",
        state_fips: 32,
        county_fips: 3,
        lat: 36.1699,
        lon: -115.1398,
        zip_prefix: 891,
        block_groups: 881,
        street_addresses_k: 38,
        density_k: 1.0,
        median_income_k: 65.0,
        major_isps: &[3, 6],
    },
    CityProfile {
        name: "Louisville",
        state: "KY",
        state_fips: 21,
        county_fips: 111,
        lat: 38.2527,
        lon: -85.7585,
        zip_prefix: 402,
        block_groups: 505,
        street_addresses_k: 41,
        density_k: 1.6,
        median_income_k: 56.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "Milwaukee",
        state: "WI",
        state_fips: 55,
        county_fips: 79,
        lat: 43.0389,
        lon: -87.9065,
        zip_prefix: 532,
        block_groups: 560,
        street_addresses_k: 27,
        density_k: 2.9,
        median_income_k: 50.0,
        major_isps: &[1, 5],
    },
    CityProfile {
        name: "New Orleans",
        state: "LA",
        state_fips: 22,
        county_fips: 71,
        lat: 29.9511,
        lon: -90.0715,
        zip_prefix: 701,
        block_groups: 439,
        street_addresses_k: 67,
        density_k: 2.9,
        median_income_k: 41.0,
        major_isps: &[1, 6],
    },
    CityProfile {
        name: "New York City",
        state: "NY",
        state_fips: 36,
        county_fips: 61,
        lat: 40.7128,
        lon: -74.0060,
        zip_prefix: 100,
        block_groups: 1567,
        street_addresses_k: 51,
        density_k: 41.7,
        median_income_k: 96.0,
        major_isps: &[2, 5],
    },
    CityProfile {
        name: "Oklahoma City",
        state: "OK",
        state_fips: 40,
        county_fips: 109,
        lat: 35.4676,
        lon: -97.5164,
        zip_prefix: 731,
        block_groups: 493,
        street_addresses_k: 20,
        density_k: 1.3,
        median_income_k: 50.0,
        major_isps: &[1, 6],
    },
    CityProfile {
        name: "Omaha",
        state: "NE",
        state_fips: 31,
        county_fips: 55,
        lat: 41.2565,
        lon: -95.9345,
        zip_prefix: 681,
        block_groups: 455,
        street_addresses_k: 28,
        density_k: 1.7,
        median_income_k: 62.0,
        major_isps: &[3, 6],
    },
    CityProfile {
        name: "Philadelphia",
        state: "PA",
        state_fips: 42,
        county_fips: 101,
        lat: 39.9526,
        lon: -75.1652,
        zip_prefix: 191,
        block_groups: 981,
        street_addresses_k: 32,
        density_k: 8.0,
        median_income_k: 46.0,
        major_isps: &[2, 7],
    },
    CityProfile {
        name: "Phoenix",
        state: "AZ",
        state_fips: 4,
        county_fips: 13,
        lat: 33.4484,
        lon: -112.0740,
        zip_prefix: 850,
        block_groups: 802,
        street_addresses_k: 32,
        density_k: 1.9,
        median_income_k: 64.0,
        major_isps: &[3, 6],
    },
    CityProfile {
        name: "Santa Barbara",
        state: "CA",
        state_fips: 6,
        county_fips: 83,
        lat: 34.4208,
        lon: -119.6982,
        zip_prefix: 931,
        block_groups: 211,
        street_addresses_k: 6,
        density_k: 2.0,
        median_income_k: 79.0,
        major_isps: &[4, 6],
    },
    CityProfile {
        name: "Seattle",
        state: "WA",
        state_fips: 53,
        county_fips: 33,
        lat: 47.6062,
        lon: -122.3321,
        zip_prefix: 981,
        block_groups: 634,
        street_addresses_k: 28,
        density_k: 2.1,
        median_income_k: 101.0,
        major_isps: &[3],
    },
    CityProfile {
        name: "Tampa",
        state: "FL",
        state_fips: 12,
        county_fips: 57,
        lat: 27.9506,
        lon: -82.4572,
        zip_prefix: 336,
        block_groups: 536,
        street_addresses_k: 25,
        density_k: 1.5,
        median_income_k: 57.0,
        major_isps: &[4, 5],
    },
    CityProfile {
        name: "Virginia Beach",
        state: "VA",
        state_fips: 51,
        county_fips: 810,
        lat: 36.8529,
        lon: -75.9780,
        zip_prefix: 234,
        block_groups: 112,
        street_addresses_k: 4,
        density_k: 1.8,
        median_income_k: 80.0,
        major_isps: &[2, 6],
    },
    CityProfile {
        name: "Wichita",
        state: "KS",
        state_fips: 20,
        county_fips: 173,
        lat: 37.6872,
        lon: -97.3301,
        zip_prefix: 672,
        block_groups: 304,
        street_addresses_k: 13,
        density_k: 1.3,
        median_income_k: 50.0,
        major_isps: &[1, 6],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_cities() {
        assert_eq!(ALL_CITIES.len(), 30);
    }

    #[test]
    fn totals_match_table_2() {
        let bg: usize = ALL_CITIES.iter().map(|c| c.block_groups).sum();
        let addr: u32 = ALL_CITIES.iter().map(|c| c.street_addresses_k).sum();
        assert_eq!(bg, 18_083); // "18k" in the paper
        assert_eq!(addr, 837); // 837k street addresses
    }

    #[test]
    fn isp_column_totals_match_table_2() {
        // Paper bottom row: 14, 5, 7, 4, 13, 8, 6.
        let expected = [14, 5, 7, 4, 13, 8, 6];
        for (i, &want) in expected.iter().enumerate() {
            let n = ALL_CITIES.iter().filter(|c| c.has_isp(i as u8 + 1)).count();
            assert_eq!(n, want, "ISP column {} count", i + 1);
        }
    }

    /// `Isp::of_city` filters the seven ISPs in column order, which equals
    /// mapping each city's list only because every list is ascending.
    #[test]
    fn major_isps_are_strictly_ascending_table_2_columns() {
        for c in ALL_CITIES {
            assert!(
                c.major_isps.iter().all(|n| (1..=7).contains(n)),
                "{}",
                c.name
            );
            assert!(c.major_isps.windows(2).all(|w| w[0] < w[1]), "{}", c.name);
        }
    }

    #[test]
    fn no_city_has_more_than_two_major_isps() {
        for c in ALL_CITIES {
            assert!(
                (1..=2).contains(&c.major_isps.len()),
                "{} has {} ISPs",
                c.name,
                c.major_isps.len()
            );
        }
    }

    #[test]
    fn duopolies_pair_a_dsl_fiber_isp_with_a_cable_isp() {
        // Columns 1-4 are DSL/fiber, 5-7 cable; the paper observes that
        // same-type ISPs never compete.
        for c in ALL_CITIES {
            if c.major_isps.len() == 2 {
                let dsl = c.major_isps.iter().filter(|&&n| n <= 4).count();
                let cable = c.major_isps.iter().filter(|&&n| n >= 5).count();
                assert_eq!((dsl, cable), (1, 1), "{}: {:?}", c.name, c.major_isps);
            }
        }
    }

    #[test]
    fn city_names_are_unique_and_resolvable() {
        for c in ALL_CITIES {
            assert_eq!(city_by_name(c.name).unwrap().name, c.name);
        }
        assert!(city_by_name("Springfield").is_none());
    }

    #[test]
    fn city_seed_is_stable_and_distinct() {
        assert_eq!(city_seed("New Orleans"), city_seed("New Orleans"));
        let mut seeds: Vec<u64> = ALL_CITIES.iter().map(|c| city_seed(c.name)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 30);
    }

    #[test]
    fn grid_matches_block_group_count() {
        let c = city_by_name("Billings").unwrap();
        let g = c.grid();
        assert_eq!(g.len(), 98);
        assert_eq!(g.id(0).state.0, 30);
        // The grid grows until it holds every block group: its frontier
        // never empties first.
        for city in ALL_CITIES {
            assert_eq!(city.grid().len(), city.block_groups, "{}", city.name);
        }
    }

    #[test]
    fn density_and_income_ranges_match_paper_claims() {
        // §4.1: densities from ~1k to 42k, median income $31k to $101k.
        let min_inc = ALL_CITIES
            .iter()
            .map(|c| c.median_income_k)
            .fold(f64::MAX, f64::min);
        let max_inc = ALL_CITIES
            .iter()
            .map(|c| c.median_income_k)
            .fold(f64::MIN, f64::max);
        assert_eq!(min_inc, 31.0);
        assert_eq!(max_inc, 101.0);
        let max_den = ALL_CITIES
            .iter()
            .map(|c| c.density_k)
            .fold(f64::MIN, f64::max);
        assert_eq!(max_den, 41.7);
    }
}
