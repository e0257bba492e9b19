//! The per-city address inventory: the synthetic stand-in for Zillow ZTRAX.
//!
//! For each block group the database holds a set of residential addresses on
//! a handful of streets, each with a canonical form (what the ISP's own
//! database knows) and a noisy listing line (what the crowdsourced dataset
//! shows). Roughly 10% of records are multi-dwelling units whose listing
//! usually omits the unit number.
//!
//! Sampling implements the paper's strategy (§4.1): uniformly sample 10% of
//! each block group's addresses, with a floor of thirty samples (capped by
//! the group's size) so block-group medians are statistically meaningful.
//!
//! The inventory is compact: a record stores its id, house number, block
//! group cell and unit count inline, its listing line, and a pointer to
//! its street. Each street of a block group is one shared, number-less
//! [`StreetAddress`]; a street name is allocated once per city, however
//! many streets carry it, and the city and state are the
//! [`CityProfile`]'s own static strings. An MDU's units are `1..=n`, so
//! the record keeps `n` and renders each unit's line on demand.

use crate::abbrev::normalize_line;
use crate::index::AddressIndex;
use crate::model::{push_decimal, StreetAddress};
use crate::noise::{render_noisy_into, NoiseProfile};
use crate::street::StreetNamer;
use bbsim_census::{city_seed, CityProfile};
use bbsim_geo::CityGrid;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an address within its city's database.
pub type AddressId = u32;

/// One residential address record.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressRecord {
    pub id: AddressId,
    /// House number on `street`.
    number: u32,
    /// Cell index of the containing block group in the city grid.
    bg_index: u32,
    /// Units of a multi-dwelling building, designated `1..=units`; 0 for
    /// a single-family address.
    units: u8,
    /// The street, shared by every record on it (its number is 0).
    street: Arc<StreetAddress>,
    /// The noisy "Zillow" listing line BQT receives as input.
    pub listing_line: String,
}

impl AddressRecord {
    /// Canonical form — what the ISP's own address database contains. A
    /// multi-dwelling building's canonical form has no unit.
    pub fn canonical(&self) -> StreetAddress {
        StreetAddress {
            number: self.number,
            ..StreetAddress::clone(&self.street)
        }
    }

    /// `self.canonical().canonical_line()`, rendered straight from the
    /// shared street.
    pub fn canonical_line(&self) -> String {
        let mut line = String::with_capacity(self.street.line_len_hint(None));
        self.street.push_numbered(self.number, &mut line);
        self.street.push_tail(&mut line);
        line
    }

    /// Cell index of the containing block group in the city grid.
    pub fn bg_index(&self) -> usize {
        self.bg_index as usize
    }

    /// Whether this is a multi-dwelling unit: the canonical form has no
    /// unit, but the building has [`Self::unit_count`] of them.
    pub fn is_mdu(&self) -> bool {
        self.units > 0
    }

    /// Number of units in the building, designated `1..=n`; 0 unless
    /// [`Self::is_mdu`].
    pub fn unit_count(&self) -> u32 {
        u32::from(self.units)
    }

    /// Appends the canonical line of unit `unit`,
    /// `self.canonical().canonical_line_with_unit(Some(&unit.to_string()))`,
    /// without building the unit's text.
    pub fn push_unit_line(&self, unit: u32, out: &mut String) {
        self.street.push_numbered(self.number, out);
        out.push_str(" Apt ");
        push_decimal(out, unit, 1);
        self.street.push_tail(out);
    }

    /// An upper bound on the length of any of this record's lines,
    /// [`Self::push_unit_line`]'s included (a unit has at most two digits).
    pub fn line_len_hint(&self) -> usize {
        self.street.line_len_hint(None) + 2
    }
}

/// The address inventory for one city.
#[derive(Debug, Clone)]
pub struct AddressDb {
    city_name: &'static str,
    records: Vec<AddressRecord>,
    by_bg: Vec<Vec<usize>>,
    index: AddressIndex,
}

/// Fraction of records that are multi-dwelling units.
const MDU_RATE: f64 = 0.10;

impl AddressDb {
    /// Generates the inventory for `city` over `grid`, deterministic in the
    /// city's seed.
    ///
    /// The city's Table-2 address total is distributed over block groups
    /// with mild size variation (0.5x–1.5x the mean), mirroring Zillow's
    /// uneven coverage.
    pub fn generate(city: &CityProfile, grid: &CityGrid, noise: &NoiseProfile) -> Self {
        let seed = city_seed(city.name);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xADD3);
        let mut namer = StreetNamer::new(seed);

        let n_bg = grid.len();
        let mean_per_bg = (city.street_addresses() as f64 / n_bg as f64).max(4.0);

        let mut records: Vec<AddressRecord> = Vec::with_capacity(city.street_addresses());
        let mut by_bg: Vec<Vec<usize>> = vec![Vec::new(); n_bg];
        // Canonical lines must be city-unique (normalized): an ISP's address
        // database has one row per deliverable address. The index that
        // enforces it is the one every BAT of the city looks lines up in.
        let mut index = AddressIndex::with_capacity(city.street_addresses());
        // Scratch for each street's canonical line and each listing line.
        let (mut line, mut listing) = (String::new(), String::new());
        // Street names recur across block groups (the namer draws from
        // fixed pools): each distinct name is allocated once per city.
        let mut names: HashMap<String, Arc<str>> = HashMap::new();

        for (bg, bg_slots) in by_bg.iter_mut().enumerate() {
            let count = (mean_per_bg * rng.gen_range(0.5..1.5)).round().max(2.0) as usize;
            // Zip zone: contiguous runs of block groups share a zip code.
            let zip = city.zip_prefix as u32 * 100 + (bg as u32 / 12) % 100;

            // A block group spans a few streets. Each is kept as an
            // address without a house number, shared by the street's
            // records, plus the normalized text after the number: the
            // tail of every index key on the street, normalized here once
            // instead of once per record.
            let n_streets = rng.gen_range(3..=7).min(count.max(1));
            let streets: Vec<(Arc<StreetAddress>, String)> = (0..n_streets)
                .map(|_| {
                    let (directional, name, suffix) = namer.next_street();
                    let street_name = names
                        .entry(name)
                        .or_insert_with_key(|name| Arc::from(name.as_str()));
                    let street = StreetAddress {
                        number: 0,
                        directional,
                        street_name: Arc::clone(street_name),
                        suffix,
                        unit: None,
                        city: city.name,
                        state: city.state,
                        zip,
                    };
                    line.clear();
                    street.push_line(None, &mut line);
                    let after_number = line.split_once(' ').map_or("", |(_, rest)| rest);
                    let key_tail = normalize_line(after_number);
                    (Arc::new(street), key_tail)
                })
                .collect();

            for k in 0..count {
                let (street, key_tail) = &streets[k % n_streets];
                // House numbers ascend along each street; bump until the
                // canonical line is city-unique (streets recur across
                // block groups sharing a zip).
                let mut number =
                    100 + (k / n_streets) as u32 * rng.gen_range(2..8) + rng.gen_range(0..2) as u32;
                let id = records.len() as AddressId;
                while !index.insert_unique(number, street.zip, key_tail, id) {
                    number += rng.gen_range(1..5);
                }
                // Drawn as an `i32`: the draw's type fixes the generator's
                // stream, and every artifact depends on that stream.
                let units = if rng.gen_bool(MDU_RATE) {
                    rng.gen_range(2..=12i32) as u8
                } else {
                    0
                };
                let canonical = StreetAddress {
                    number,
                    ..StreetAddress::clone(street)
                };
                // Copied out of the scratch at its length: one exact
                // allocation, and no freed tail between records.
                render_noisy_into(&canonical, noise, seed ^ (id as u64) << 8, &mut listing);
                let listing_line = listing.as_str().to_owned();
                bg_slots.push(records.len());
                records.push(AddressRecord {
                    id,
                    number,
                    bg_index: bg as u32,
                    units,
                    street: Arc::clone(street),
                    listing_line,
                });
            }
        }

        Self {
            city_name: city.name,
            records,
            by_bg,
            index,
        }
    }

    pub fn city_name(&self) -> &str {
        self.city_name
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn record(&self, id: AddressId) -> &AddressRecord {
        &self.records[id as usize]
    }

    pub fn records(&self) -> &[AddressRecord] {
        &self.records
    }

    /// The normalized-lookup index over the canonical lines, built during
    /// generation.
    pub fn index(&self) -> &AddressIndex {
        &self.index
    }

    /// Record indices for block group cell `bg`.
    pub fn in_block_group(&self, bg: usize) -> &[usize] {
        &self.by_bg[bg]
    }

    /// The paper's sampling strategy: uniformly sample `rate` of a block
    /// group's addresses with a floor of `min_samples`, capped at the
    /// group's size. Deterministic in `seed`.
    pub fn sample_block_group(
        &self,
        bg: usize,
        rate: f64,
        min_samples: usize,
        seed: u64,
    ) -> Vec<&AddressRecord> {
        let pool = &self.by_bg[bg];
        if pool.is_empty() {
            return Vec::new();
        }
        let want = ((pool.len() as f64 * rate).ceil() as usize)
            .max(min_samples)
            .min(pool.len());
        let mut rng = StdRng::seed_from_u64(seed ^ (bg as u64) << 20);
        let mut idx: Vec<usize> = pool.clone();
        idx.shuffle(&mut rng);
        idx.truncate(want);
        idx.into_iter().map(|i| &self.records[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;

    fn db() -> AddressDb {
        let city = city_by_name("Billings").unwrap();
        let grid = city.grid();
        AddressDb::generate(city, &grid, &NoiseProfile::zillow_like())
    }

    #[test]
    fn total_addresses_near_table_2_volume() {
        let d = db();
        let expect = 3000.0;
        let got = d.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.2,
            "expected ~{expect}, got {got}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = db();
        let b = db();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.record(0), b.record(0));
        assert_eq!(
            a.record((a.len() - 1) as AddressId),
            b.record((b.len() - 1) as AddressId)
        );
    }

    #[test]
    fn mdu_rate_is_about_ten_percent() {
        let d = db();
        let mdus = d.records().iter().filter(|r| r.is_mdu()).count();
        let rate = mdus as f64 / d.len() as f64;
        assert!((0.06..=0.15).contains(&rate), "MDU rate {rate}");
    }

    #[test]
    fn mdus_have_units_and_others_do_not() {
        let d = db();
        for r in d.records() {
            if r.is_mdu() {
                assert!((2..=12).contains(&r.unit_count()));
                assert!(
                    r.canonical().unit.is_none(),
                    "canonical form is the building"
                );
            } else {
                assert_eq!(r.unit_count(), 0);
            }
        }
    }

    /// The compact layout: id, number, block group and unit count inline,
    /// the street behind one pointer, the listing line.
    #[test]
    fn records_stay_compact() {
        assert_eq!(std::mem::size_of::<AddressRecord>(), 48);
    }

    #[test]
    fn record_lines_render_from_the_shared_street() {
        let d = db();
        for r in d.records() {
            let canonical = r.canonical();
            assert_eq!(r.canonical_line(), canonical.canonical_line());
            assert!(r.canonical_line().len() <= r.line_len_hint());
            for u in 1..=r.unit_count() {
                let mut line = String::new();
                r.push_unit_line(u, &mut line);
                assert_eq!(
                    line,
                    canonical.canonical_line_with_unit(Some(&u.to_string()))
                );
                assert!(line.len() <= r.line_len_hint());
            }
        }
    }

    #[test]
    fn zips_carry_the_city_prefix() {
        let d = db();
        for r in d.records().iter().take(100) {
            assert_eq!(r.canonical().zip / 100, 591, "{}", r.canonical().zip);
        }
    }

    #[test]
    fn sampling_respects_rate_floor_and_cap() {
        let d = db();
        for bg in 0..5 {
            let pool = d.in_block_group(bg).len();
            let sample = d.sample_block_group(bg, 0.10, 30, 42);
            let want = ((pool as f64 * 0.10).ceil() as usize).max(30).min(pool);
            assert_eq!(sample.len(), want, "bg {bg}: pool {pool}");
        }
    }

    #[test]
    fn sampling_is_deterministic_and_without_replacement() {
        let d = db();
        let a = d.sample_block_group(0, 0.5, 1, 7);
        let b = d.sample_block_group(0, 0.5, 1, 7);
        assert_eq!(
            a.iter().map(|r| r.id).collect::<Vec<_>>(),
            b.iter().map(|r| r.id).collect::<Vec<_>>()
        );
        let mut ids: Vec<_> = a.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), a.len(), "no duplicates");
    }

    #[test]
    fn samples_come_from_the_requested_block_group() {
        let d = db();
        for r in d.sample_block_group(3, 0.10, 30, 1) {
            assert_eq!(r.bg_index(), 3);
        }
    }

    #[test]
    fn canonical_lines_never_normalize_to_a_unit_marker() {
        // A BAT resolving a record by id (the new-customer step) treats its
        // canonical line as unit-free without re-normalizing it. That holds
        // because no street-name word, city or state folds to `apt`.
        let mut namer = StreetNamer::new(3);
        for _ in 0..2000 {
            let (_, name, _) = namer.next_street();
            assert!(
                !normalize_line(&name).split(' ').any(|t| t == "apt"),
                "{name}"
            );
        }
        for city in bbsim_census::ALL_CITIES {
            let tail = format!("{}, {}", city.name, city.state);
            assert!(
                !normalize_line(&tail).split(' ').any(|t| t == "apt"),
                "{tail}"
            );
        }
        for r in db().records() {
            assert!(!normalize_line(&r.canonical_line()).contains(" apt "));
        }
    }

    #[test]
    fn listing_lines_mostly_differ_from_canonical_but_share_zip() {
        let d = db();
        let mut differing = 0;
        for r in d.records().iter().take(500) {
            if r.listing_line != r.canonical_line() {
                differing += 1;
            }
            assert!(r
                .listing_line
                .ends_with(&format!("{:05}", r.canonical().zip)));
        }
        assert!(
            differing > 100,
            "noise should alter many listings: {differing}"
        );
    }
}
