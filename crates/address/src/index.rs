//! The ISP-side address table and its lookup index.
//!
//! The ISP side of the address-matching problem: a canonical address table
//! indexed by normalized text, with candidate generation for the suggestion
//! list shown on the "address not found" page. Lookup keys are normalized
//! the same way a serviceability back-end would (case, punctuation and
//! USPS abbreviation folding), so cosmetic listing noise resolves here and
//! only genuine typos fall through to the suggestion flow.
//!
//! The index is filled by [`crate::AddressDb::generate`] in the same pass
//! that keeps canonical lines city-unique, so every city builds it once and
//! every BAT of the city shares it.
//!
//! Both maps hash with `FxHasher`, a multiplicative hash that is much
//! cheaper than the default SipHash. That is safe here: every key is
//! generated by the simulator, so no input can choose keys that collide,
//! and lookups of arbitrary text only probe. Neither map is iterated, so
//! the order a hash induces never reaches an output.

use crate::abbrev::extract_zip;
use crate::db::AddressId;
use crate::model::push_decimal;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash (as in rustc): each word is mixed in with a rotate, an xor
/// and one multiply.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

/// Normalized-lookup index over a city's canonical addresses.
#[derive(Debug, Clone)]
pub struct AddressIndex {
    /// normalized street line + zip -> address id.
    exact: HashMap<String, AddressId, FxBuild>,
    /// (zip, house number) -> candidate ids for suggestions, ascending.
    by_zip_number: HashMap<(u32, u32), Vec<AddressId>, FxBuild>,
}

impl AddressIndex {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            exact: HashMap::with_capacity_and_hasher(n, FxBuild::default()),
            by_zip_number: HashMap::default(),
        }
    }

    /// Registers the unit-free address at house `number` on a street of
    /// `zip` as record `id` unless its key is already taken; returns
    /// whether it was registered. Ids must be inserted in ascending order.
    ///
    /// The key is built from parts instead of by normalizing the rendered
    /// line. A house number is a digit token, which normalizes to itself,
    /// so `normalize_line` of the address's canonical line is the number's
    /// digits, a space and `key_tail`: the normalized text after the
    /// number, which every address on one street of one zip shares (the
    /// caller normalizes it once per street; it is never empty, since it
    /// ends with the zip). The key is built at its exact length and
    /// hashed once, by the entry lookup that inserts it.
    pub(crate) fn insert_unique(
        &mut self,
        number: u32,
        zip: u32,
        key_tail: &str,
        id: AddressId,
    ) -> bool {
        let digits = number.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut key = String::with_capacity(digits + 1 + key_tail.len());
        push_decimal(&mut key, number, 1);
        key.push(' ');
        key.push_str(key_tail);
        let Entry::Vacant(slot) = self.exact.entry(key) else {
            return false;
        };
        slot.insert(id);
        self.by_zip_number
            .entry((zip, number))
            .or_default()
            .push(id);
        true
    }

    /// Looks up a line already normalized (by
    /// [`crate::abbrev::normalize_into`]) that may carry a unit designator
    /// the canonical table does not store: tries the full line, then, on a
    /// miss, the line with the unit stripped from `norm` in place.
    pub fn lookup_normalized_allowing_unit(&self, norm: &mut String) -> Option<AddressId> {
        if let Some(&id) = self.exact.get(norm.as_str()) {
            return Some(id);
        }
        // Strip the first "apt <x>" token pair, keeping the tail after it
        // (city/state/zip).
        let pos = norm.find(" apt ")?;
        match norm[pos + 5..].find(' ') {
            Some(unit_len) => norm.replace_range(pos..pos + 5 + unit_len, ""),
            None => norm.truncate(pos),
        }
        self.exact.get(norm.as_str()).copied()
    }

    /// Candidate ids for the suggestion list: same zip and house number,
    /// parsed from the input line, in ascending record order.
    pub fn suggestion_candidates(&self, line: &str) -> &[AddressId] {
        let Some(zip) = extract_zip(line) else {
            return &[];
        };
        let Some(number) = line
            .split_whitespace()
            .next()
            .and_then(|t| t.parse::<u32>().ok())
        else {
            return &[];
        };
        self.by_zip_number
            .get(&(zip, number))
            .map_or(&[], Vec::as_slice)
    }

    pub fn len(&self) -> usize {
        self.exact.len()
    }

    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abbrev::normalize_line;
    use crate::{AddressDb, NoiseProfile};
    use bbsim_census::city_by_name;

    /// Resolves `line` as the BAT server does: normalize, then look up
    /// with the unit fallback.
    fn resolve(idx: &AddressIndex, line: &str) -> Option<AddressId> {
        idx.lookup_normalized_allowing_unit(&mut normalize_line(line))
    }

    fn db_of(name: &str) -> AddressDb {
        let city = city_by_name(name).unwrap();
        AddressDb::generate(city, &city.grid(), &NoiseProfile::zillow_like())
    }

    #[test]
    fn exact_lookup_finds_every_canonical_address() {
        for name in ["Billings", "Fargo"] {
            let d = db_of(name);
            let idx = d.index();
            for r in d.records() {
                assert_eq!(resolve(idx, &r.canonical_line()), Some(r.id), "{name}");
            }
        }
    }

    #[test]
    fn lookup_survives_cosmetic_noise() {
        // Most listing lines differ only in case/abbreviation and must
        // resolve without the suggestion flow.
        let d = db_of("Billings");
        let idx = d.index();
        let resolved = d
            .records()
            .iter()
            .take(1000)
            .filter(|r| resolve(idx, &r.listing_line) == Some(r.id))
            .count();
        assert!(resolved > 900, "only {resolved}/1000 listings resolved");
    }

    #[test]
    fn lookup_with_spurious_unit_falls_back_to_building() {
        let d = db_of("Billings");
        let r = &d.records()[0];
        let mut with_unit = r.canonical();
        with_unit.unit = Some("3".to_string());
        assert_eq!(resolve(d.index(), &with_unit.canonical_line()), Some(r.id));
    }

    #[test]
    fn suggestion_candidates_share_zip_and_number() {
        let d = db_of("Billings");
        // Typo the street name; zip and number survive.
        let r = &d.records()[42];
        let mut line = r.canonical_line();
        line = line.replace(&*r.canonical().street_name, "Zzyzx");
        let candidates = d.index().suggestion_candidates(&line);
        assert!(
            candidates.contains(&r.id),
            "true address must be a candidate"
        );
        for &id in candidates {
            let (c, r) = (d.record(id).canonical(), r.canonical());
            assert_eq!(c.zip, r.zip);
            assert_eq!(c.number, r.number);
        }
    }

    #[test]
    fn suggestion_candidates_are_in_record_order() {
        let d = db_of("Billings");
        let lists: Vec<_> = d
            .records()
            .iter()
            .map(|r| d.index().suggestion_candidates(&r.canonical_line()))
            .collect();
        assert!(lists.iter().any(|c| c.len() > 1), "no shared (zip, number)");
        assert!(lists.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    fn unparseable_input_yields_no_candidates() {
        let d = db_of("Billings");
        let idx = d.index();
        assert!(idx
            .suggestion_candidates("not an address at all")
            .is_empty());
        assert!(idx.suggestion_candidates("").is_empty());
    }

    #[test]
    fn index_size_matches_db() {
        // Generation keys uniqueness on the index itself, so every record
        // owns exactly one entry.
        let d = db_of("Billings");
        assert_eq!(d.index().len(), d.len());
    }
}
