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

use crate::abbrev::{extract_zip, normalize_into, normalize_line};
use crate::db::AddressId;
use crate::model::StreetAddress;
use std::collections::HashMap;

/// Normalized-lookup index over a city's canonical addresses.
#[derive(Debug, Clone)]
pub struct AddressIndex {
    /// normalized street line + zip -> address id.
    exact: HashMap<String, AddressId>,
    /// (zip, house number) -> candidate ids for suggestions, ascending.
    by_zip_number: HashMap<(u32, u32), Vec<AddressId>>,
}

impl AddressIndex {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            exact: HashMap::with_capacity(n),
            by_zip_number: HashMap::new(),
        }
    }

    /// Registers `address` as record `id` unless its normalized line is
    /// already taken; returns whether it was registered. Ids must be
    /// inserted in ascending order.
    ///
    /// `line` and `key` are scratch buffers the caller reuses across
    /// inserts: the canonical line and its normalized key are built in
    /// them, and the key is copied out (at exact capacity) only when it is
    /// inserted.
    pub(crate) fn insert_unique(
        &mut self,
        address: &StreetAddress,
        id: AddressId,
        line: &mut String,
        key: &mut String,
    ) -> bool {
        line.clear();
        address.push_line(address.unit.as_deref(), line);
        normalize_into(line, key);
        if self.exact.contains_key(key.as_str()) {
            return false;
        }
        self.exact.insert(key.as_str().to_owned(), id);
        self.by_zip_number
            .entry((address.zip, address.number))
            .or_default()
            .push(id);
        true
    }

    /// Exact lookup after normalization.
    pub fn lookup(&self, line: &str) -> Option<AddressId> {
        self.exact.get(&normalize_line(line)).copied()
    }

    /// Looks up a line that may carry a unit designator the canonical table
    /// does not store: tries the full line, then the line with the unit
    /// stripped.
    pub fn lookup_allowing_unit(&self, line: &str) -> Option<AddressId> {
        self.lookup_normalized_allowing_unit(&mut normalize_line(line))
    }

    /// [`Self::lookup_allowing_unit`] for a line already normalized (by
    /// [`crate::abbrev::normalize_into`]), so a caller that needs the
    /// normalized form for more than the lookup normalizes once. On a miss
    /// the unit is stripped from `norm` in place.
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
    use crate::{AddressDb, NoiseProfile};
    use bbsim_census::city_by_name;

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
                assert_eq!(
                    idx.lookup(&r.canonical.canonical_line()),
                    Some(r.id),
                    "{name}"
                );
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
            .filter(|r| idx.lookup(&r.listing_line) == Some(r.id))
            .count();
        assert!(resolved > 900, "only {resolved}/1000 listings resolved");
    }

    #[test]
    fn lookup_with_spurious_unit_falls_back_to_building() {
        let d = db_of("Billings");
        let r = &d.records()[0];
        let mut with_unit = r.canonical.clone();
        with_unit.unit = Some("3".to_string());
        assert_eq!(
            d.index().lookup_allowing_unit(&with_unit.canonical_line()),
            Some(r.id)
        );
    }

    #[test]
    fn suggestion_candidates_share_zip_and_number() {
        let d = db_of("Billings");
        // Typo the street name; zip and number survive.
        let r = &d.records()[42];
        let mut line = r.canonical.canonical_line();
        line = line.replace(&r.canonical.street_name, "Zzyzx");
        let candidates = d.index().suggestion_candidates(&line);
        assert!(
            candidates.contains(&r.id),
            "true address must be a candidate"
        );
        for &id in candidates {
            let c = &d.record(id).canonical;
            assert_eq!(c.zip, r.canonical.zip);
            assert_eq!(c.number, r.canonical.number);
        }
    }

    #[test]
    fn suggestion_candidates_are_in_record_order() {
        let d = db_of("Billings");
        let lists: Vec<_> = d
            .records()
            .iter()
            .map(|r| {
                d.index()
                    .suggestion_candidates(&r.canonical.canonical_line())
            })
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
