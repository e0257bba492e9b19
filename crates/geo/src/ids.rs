//! FIPS-like hierarchical identifiers for census geography.
//!
//! Real US census geography is keyed by FIPS codes: a 2-digit state, 3-digit
//! county, 6-digit tract and 1-digit block group, concatenated into a
//! 12-character block-group GEOID. We mirror that structure so the synthetic
//! dataset round-trips through the same string keys a real ACS join would
//! use.

use std::fmt;
use std::str::FromStr;

/// Two-digit state FIPS code (1..=99).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateCode(pub u8);

/// Three-digit county FIPS code within a state (1..=999).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountyCode(pub u16);

/// Six-digit census-tract code within a county.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TractCode(pub u32);

/// Fully-qualified census block-group identifier.
///
/// Displays as the 12-character GEOID used by the Census Bureau, e.g.
/// `220710017001` = state 22, county 071, tract 001700, block group 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockGroupId {
    pub state: StateCode,
    pub county: CountyCode,
    pub tract: TractCode,
    /// Single-digit block-group number within the tract (0..=9).
    pub block_group: u8,
}

impl BlockGroupId {
    /// Builds an id, panicking if any component is out of its FIPS range.
    pub fn new(state: u8, county: u16, tract: u32, block_group: u8) -> Self {
        assert!(
            (1..=99).contains(&state),
            "state FIPS out of range: {state}"
        );
        assert!(
            (1..=999).contains(&county),
            "county FIPS out of range: {county}"
        );
        assert!(tract <= 999_999, "tract code out of range: {tract}");
        assert!(block_group <= 9, "block group out of range: {block_group}");
        Self {
            state: StateCode(state),
            county: CountyCode(county),
            tract: TractCode(tract),
            block_group,
        }
    }

    /// Encodes the id into a single sortable integer (useful as a map key).
    pub fn as_u64(&self) -> u64 {
        self.state.0 as u64 * 10_000_000_000
            + self.county.0 as u64 * 10_000_000
            + self.tract.0 as u64 * 10
            + self.block_group as u64
    }
}

impl fmt::Display for BlockGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02}{:03}{:06}{}",
            self.state.0, self.county.0, self.tract.0, self.block_group
        )
    }
}

/// Error returned when parsing a GEOID string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseGeoidError {
    /// The string was not exactly 12 ASCII digits.
    BadLength(usize),
    /// A component was not numeric.
    NotNumeric,
    /// A component was outside its FIPS range.
    OutOfRange(&'static str),
}

impl fmt::Display for ParseGeoidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGeoidError::BadLength(n) => {
                write!(f, "GEOID must be 12 digits, got {n} characters")
            }
            ParseGeoidError::NotNumeric => write!(f, "GEOID contains non-digit characters"),
            ParseGeoidError::OutOfRange(part) => write!(f, "GEOID component out of range: {part}"),
        }
    }
}

impl std::error::Error for ParseGeoidError {}

impl FromStr for BlockGroupId {
    type Err = ParseGeoidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 12 {
            return Err(ParseGeoidError::BadLength(s.len()));
        }
        if !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseGeoidError::NotNumeric);
        }
        let state: u8 = s[0..2].parse().map_err(|_| ParseGeoidError::NotNumeric)?;
        let county: u16 = s[2..5].parse().map_err(|_| ParseGeoidError::NotNumeric)?;
        let tract: u32 = s[5..11].parse().map_err(|_| ParseGeoidError::NotNumeric)?;
        let bg: u8 = s[11..12].parse().map_err(|_| ParseGeoidError::NotNumeric)?;
        if state < 1 {
            return Err(ParseGeoidError::OutOfRange("state"));
        }
        if county < 1 {
            return Err(ParseGeoidError::OutOfRange("county"));
        }
        Ok(BlockGroupId {
            state: StateCode(state),
            county: CountyCode(county),
            tract: TractCode(tract),
            block_group: bg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_zero_pads_every_component() {
        let id = BlockGroupId::new(22, 71, 1700, 1);
        assert_eq!(id.to_string(), "220710017001");
    }

    #[test]
    fn roundtrip_display_parse() {
        let id = BlockGroupId::new(6, 37, 980_012, 9);
        let s = id.to_string();
        assert_eq!(s.parse::<BlockGroupId>().unwrap(), id);
    }

    #[test]
    fn parse_rejects_wrong_length() {
        assert_eq!(
            "12345".parse::<BlockGroupId>(),
            Err(ParseGeoidError::BadLength(5))
        );
    }

    #[test]
    fn parse_rejects_non_numeric() {
        assert_eq!(
            "22071001700X".parse::<BlockGroupId>(),
            Err(ParseGeoidError::NotNumeric)
        );
    }

    #[test]
    fn parse_rejects_zero_state() {
        assert_eq!(
            "000710017001".parse::<BlockGroupId>(),
            Err(ParseGeoidError::OutOfRange("state"))
        );
    }

    #[test]
    fn as_u64_is_order_preserving() {
        let a = BlockGroupId::new(22, 71, 1700, 1);
        let b = BlockGroupId::new(22, 71, 1700, 2);
        let c = BlockGroupId::new(22, 72, 0, 0);
        assert!(a.as_u64() < b.as_u64());
        assert!(b.as_u64() < c.as_u64());
        assert_eq!(a < b, a.as_u64() < b.as_u64());
    }

    #[test]
    #[should_panic(expected = "block group out of range")]
    fn new_rejects_large_block_group() {
        BlockGroupId::new(22, 71, 1700, 12);
    }
}
