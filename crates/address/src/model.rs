//! Structured street addresses and their canonical text form.

use std::fmt;
use std::sync::Arc;

/// Compass directional prefix (e.g. the "N" in "N Rampart St").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Directional {
    N,
    S,
    E,
    W,
    NE,
    NW,
    SE,
    SW,
}

impl Directional {
    pub const ALL: [Directional; 8] = [
        Directional::N,
        Directional::S,
        Directional::E,
        Directional::W,
        Directional::NE,
        Directional::NW,
        Directional::SE,
        Directional::SW,
    ];

    /// Canonical USPS abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Directional::N => "N",
            Directional::S => "S",
            Directional::E => "E",
            Directional::W => "W",
            Directional::NE => "NE",
            Directional::NW => "NW",
            Directional::SE => "SE",
            Directional::SW => "SW",
        }
    }
}

/// Street suffix (thoroughfare type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suffix {
    Street,
    Avenue,
    Boulevard,
    Court,
    Drive,
    Lane,
    Road,
    Way,
    Terrace,
    Place,
    Circle,
    Parkway,
}

impl Suffix {
    pub const ALL: [Suffix; 12] = [
        Suffix::Street,
        Suffix::Avenue,
        Suffix::Boulevard,
        Suffix::Court,
        Suffix::Drive,
        Suffix::Lane,
        Suffix::Road,
        Suffix::Way,
        Suffix::Terrace,
        Suffix::Place,
        Suffix::Circle,
        Suffix::Parkway,
    ];

    /// Canonical USPS abbreviation ("St", "Ave", ...).
    pub fn abbrev(self) -> &'static str {
        match self {
            Suffix::Street => "St",
            Suffix::Avenue => "Ave",
            Suffix::Boulevard => "Blvd",
            Suffix::Court => "Ct",
            Suffix::Drive => "Dr",
            Suffix::Lane => "Ln",
            Suffix::Road => "Rd",
            Suffix::Way => "Way",
            Suffix::Terrace => "Ter",
            Suffix::Place => "Pl",
            Suffix::Circle => "Cir",
            Suffix::Parkway => "Pkwy",
        }
    }
}

/// A structured residential street address.
///
/// Cloning one copies no text: the street name is shared with every
/// clone, and the city and state are static (an inventory takes them
/// from its [`bbsim_census::CityProfile`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreetAddress {
    pub number: u32,
    pub directional: Option<Directional>,
    pub street_name: Arc<str>,
    pub suffix: Suffix,
    /// Unit/apartment designator for multi-dwelling units.
    pub unit: Option<String>,
    pub city: &'static str,
    pub state: &'static str,
    pub zip: u32,
}

impl StreetAddress {
    /// The canonical single-line rendering:
    /// `"742 N Evergreen Ter Apt 2, New Orleans, LA 70118"`.
    pub fn canonical_line(&self) -> String {
        self.canonical_line_with_unit(self.unit.as_deref())
    }

    /// The canonical line with `unit` as its unit designator, whatever
    /// `self.unit` holds: an MDU's per-unit lines without cloning the
    /// building's address.
    pub fn canonical_line_with_unit(&self, unit: Option<&str>) -> String {
        let mut s = String::with_capacity(self.line_len_hint(unit));
        self.push_line(unit, &mut s);
        s
    }

    /// Appends [`Self::canonical_line_with_unit`] to `out`.
    pub(crate) fn push_line(&self, unit: Option<&str>, out: &mut String) {
        self.push_street(unit, out);
        self.push_tail(out);
    }

    /// Appends the `", City, ST 01234"` tail every rendering shares.
    pub(crate) fn push_tail(&self, out: &mut String) {
        out.push_str(", ");
        out.push_str(self.city);
        out.push_str(", ");
        out.push_str(self.state);
        out.push(' ');
        push_decimal(out, self.zip, 5);
    }

    fn push_street(&self, unit: Option<&str>, out: &mut String) {
        self.push_numbered(self.number, out);
        if let Some(u) = unit {
            out.push_str(" Apt ");
            out.push_str(u);
        }
    }

    /// Appends `"{number} {directional} {name} {suffix}"`: the street
    /// part of house `number` on this address's street, without a unit.
    pub(crate) fn push_numbered(&self, number: u32, out: &mut String) {
        push_decimal(out, number, 1);
        out.push(' ');
        if let Some(d) = self.directional {
            out.push_str(d.abbrev());
            out.push(' ');
        }
        out.push_str(&self.street_name);
        out.push(' ');
        out.push_str(self.suffix.abbrev());
    }

    /// An upper bound on the length of the canonical line with `unit`, so
    /// one allocation holds it.
    pub(crate) fn line_len_hint(&self, unit: Option<&str>) -> usize {
        // Number and zip (10 digits each at most), directional, suffix,
        // " Apt " and the separators take at most 40 bytes.
        40 + self.street_name.len() + unit.map_or(0, str::len) + self.city.len() + self.state.len()
    }
}

/// Appends `n` in decimal, zero-padded to at least `width` digits (at
/// most 10): `format!("{n:0width$}")` without the formatting machinery.
pub(crate) fn push_decimal(out: &mut String, mut n: u32, width: usize) {
    let mut digits = [b'0'; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start.min(digits.len().saturating_sub(width))..] {
        out.push(char::from(d));
    }
}

impl fmt::Display for StreetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreetAddress {
        StreetAddress {
            number: 742,
            directional: Some(Directional::N),
            street_name: "Evergreen".into(),
            suffix: Suffix::Terrace,
            unit: Some("2B".to_string()),
            city: "New Orleans",
            state: "LA",
            zip: 70118,
        }
    }

    #[test]
    fn canonical_line_format() {
        assert_eq!(
            sample().canonical_line(),
            "742 N Evergreen Ter Apt 2B, New Orleans, LA 70118"
        );
    }

    #[test]
    fn canonical_line_without_directional_or_unit() {
        let mut a = sample();
        a.directional = None;
        a.unit = None;
        assert_eq!(
            a.canonical_line(),
            "742 Evergreen Ter, New Orleans, LA 70118"
        );
    }

    #[test]
    fn zip_is_zero_padded() {
        let mut a = sample();
        a.zip = 2134; // Boston-style leading zero
        assert!(
            a.canonical_line().ends_with("MA 02134") || a.canonical_line().ends_with("LA 02134")
        );
    }

    #[test]
    fn suffix_tables_are_complete_and_distinct() {
        let mut abbrevs: Vec<&str> = Suffix::ALL.iter().map(|s| s.abbrev()).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), Suffix::ALL.len());
    }

    #[test]
    fn directional_tables_are_complete_and_distinct() {
        let mut abbrevs: Vec<&str> = Directional::ALL.iter().map(|d| d.abbrev()).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 8);
    }

    #[test]
    fn push_decimal_matches_format() {
        for n in [0, 7, 10, 99, 2134, 70118, 123_456, u32::MAX] {
            for width in [1, 5, 10] {
                let mut s = String::new();
                push_decimal(&mut s, n, width);
                assert_eq!(s, format!("{n:0width$}"));
            }
        }
    }

    #[test]
    fn display_matches_canonical_line() {
        let a = sample();
        assert_eq!(a.to_string(), a.canonical_line());
    }
}
