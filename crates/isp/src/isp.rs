//! The seven major ISPs of the study.

use bbsim_census::CityProfile;
use std::fmt;

/// Access-technology category (§2: same-type ISPs never compete).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// DSL and/or fiber to the home (AT&T, Verizon, CenturyLink, Frontier).
    DslFiber,
    /// Hybrid fiber-coax cable (Xfinity, Spectrum, Cox).
    Cable,
}

/// One of the seven major wireline broadband ISPs the paper studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isp {
    Att,
    Verizon,
    CenturyLink,
    Frontier,
    Spectrum,
    Cox,
    Xfinity,
}

/// All seven, in the paper's Table-2 column order.
pub const ALL_ISPS: [Isp; 7] = [
    Isp::Att,
    Isp::Verizon,
    Isp::CenturyLink,
    Isp::Frontier,
    Isp::Spectrum,
    Isp::Cox,
    Isp::Xfinity,
];

impl Isp {
    /// The paper's Table-2 column number (1..=7).
    pub fn column(self) -> u8 {
        match self {
            Isp::Att => 1,
            Isp::Verizon => 2,
            Isp::CenturyLink => 3,
            Isp::Frontier => 4,
            Isp::Spectrum => 5,
            Isp::Cox => 6,
            Isp::Xfinity => 7,
        }
    }

    /// The major ISPs serving `city`, in Table-2 column order (the order
    /// of its `major_isps` list, which is strictly ascending).
    pub fn of_city(city: &CityProfile) -> Vec<Isp> {
        ALL_ISPS
            .into_iter()
            .filter(|i| city.has_isp(i.column()))
            .collect()
    }

    pub fn technology(self) -> Technology {
        match self {
            Isp::Att | Isp::Verizon | Isp::CenturyLink | Isp::Frontier => Technology::DslFiber,
            Isp::Spectrum | Isp::Cox | Isp::Xfinity => Technology::Cable,
        }
    }

    pub fn is_cable(self) -> bool {
        self.technology() == Technology::Cable
    }

    /// Display name as the paper writes it.
    pub fn name(self) -> &'static str {
        match self {
            Isp::Att => "AT&T",
            Isp::Verizon => "Verizon",
            Isp::CenturyLink => "CenturyLink",
            Isp::Frontier => "Frontier",
            Isp::Spectrum => "Spectrum",
            Isp::Cox => "Cox",
            Isp::Xfinity => "Xfinity",
        }
    }

    /// Stable lowercase slug used for endpoint names and file stems.
    pub fn slug(self) -> &'static str {
        match self {
            Isp::Att => "att",
            Isp::Verizon => "verizon",
            Isp::CenturyLink => "centurylink",
            Isp::Frontier => "frontier",
            Isp::Spectrum => "spectrum",
            Isp::Cox => "cox",
            Isp::Xfinity => "xfinity",
        }
    }

    /// Parses a slug back to the ISP.
    pub fn from_slug(s: &str) -> Option<Isp> {
        ALL_ISPS.into_iter().find(|i| i.slug() == s)
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_numbering_matches_table_2_order() {
        for (i, isp) in ALL_ISPS.iter().enumerate() {
            assert_eq!(isp.column() as usize, i + 1);
        }
    }

    #[test]
    fn technology_split_is_four_dsl_three_cable() {
        let dsl = ALL_ISPS
            .iter()
            .filter(|i| i.technology() == Technology::DslFiber)
            .count();
        let cable = ALL_ISPS.iter().filter(|i| i.is_cable()).count();
        assert_eq!((dsl, cable), (4, 3));
    }

    #[test]
    fn slugs_roundtrip() {
        for isp in ALL_ISPS {
            assert_eq!(Isp::from_slug(isp.slug()), Some(isp));
        }
        assert_eq!(Isp::from_slug("compuserve"), None);
    }

    #[test]
    fn names_match_paper_spelling() {
        assert_eq!(Isp::Att.to_string(), "AT&T");
        assert_eq!(Isp::CenturyLink.to_string(), "CenturyLink");
    }
}
