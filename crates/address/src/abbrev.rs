//! USPS-style abbreviation tables and address-text normalization.
//!
//! The paper's §3.3: "for the same street address, some databases might use
//! 'Ave' instead of Avenue and 'CT' or 'Ct' instead of Court". BQT copes by
//! normalizing both sides to a canonical token stream before comparing.

use crate::model::{Directional, Suffix};

/// All accepted spellings of each suffix, lowercase (canonical first).
pub fn suffix_variants(s: Suffix) -> &'static [&'static str] {
    match s {
        Suffix::Street => &["st", "street", "str"],
        Suffix::Avenue => &["ave", "avenue", "av", "aven"],
        Suffix::Boulevard => &["blvd", "boulevard", "boul", "blv"],
        Suffix::Court => &["ct", "court", "crt"],
        Suffix::Drive => &["dr", "drive", "drv"],
        Suffix::Lane => &["ln", "lane"],
        Suffix::Road => &["rd", "road"],
        Suffix::Way => &["way", "wy"],
        Suffix::Terrace => &["ter", "terrace", "terr"],
        Suffix::Place => &["pl", "place"],
        Suffix::Circle => &["cir", "circle", "circ"],
        Suffix::Parkway => &["pkwy", "parkway", "pky", "pkway"],
    }
}

/// All accepted spellings of each directional, lowercase (canonical first).
pub fn directional_variants(d: Directional) -> &'static [&'static str] {
    match d {
        Directional::N => &["n", "north", "no"],
        Directional::S => &["s", "south", "so"],
        Directional::E => &["e", "east"],
        Directional::W => &["w", "west"],
        Directional::NE => &["ne", "northeast"],
        Directional::NW => &["nw", "northwest"],
        Directional::SE => &["se", "southeast"],
        Directional::SW => &["sw", "southwest"],
    }
}

/// Unit designator spellings that all mean "apartment/unit".
pub const UNIT_MARKERS: &[&str] = &["apt", "apartment", "unit", "ste", "suite", "#"];

/// The canonical spelling of one lowercase alphanumeric token, if it is a
/// suffix, directional or unit-marker variant (folding is idempotent).
///
/// One `match`, so a token costs O(1) comparisons instead of a scan of the
/// variant tables. It must list exactly the spellings of
/// [`suffix_variants`], [`directional_variants`] and the alphanumeric
/// [`UNIT_MARKERS`]; the tests below check every table entry against it.
fn fold(token: &str) -> Option<&'static str> {
    Some(match token {
        "st" | "street" | "str" => "st",
        "ave" | "avenue" | "av" | "aven" => "ave",
        "blvd" | "boulevard" | "boul" | "blv" => "blvd",
        "ct" | "court" | "crt" => "ct",
        "dr" | "drive" | "drv" => "dr",
        "ln" | "lane" => "ln",
        "rd" | "road" => "rd",
        "way" | "wy" => "way",
        "ter" | "terrace" | "terr" => "ter",
        "pl" | "place" => "pl",
        "cir" | "circle" | "circ" => "cir",
        "pkwy" | "parkway" | "pky" | "pkway" => "pkwy",
        "n" | "north" | "no" => "n",
        "s" | "south" | "so" => "s",
        "e" | "east" => "e",
        "w" | "west" => "w",
        "ne" | "northeast" => "ne",
        "nw" | "northwest" => "nw",
        "se" | "southeast" => "se",
        "sw" | "southwest" => "sw",
        "apt" | "apartment" | "unit" | "ste" | "suite" => "apt",
        _ => return None,
    })
}

/// Normalizes free-form address text into canonical lowercase tokens
/// joined by single spaces: punctuation stripped, suffixes and
/// directionals folded to their USPS abbreviation, unit markers folded to
/// `apt`.
///
/// `"742 NORTH Evergreen Terrace, Unit 2B"` → `"742 n evergreen ter apt 2b"`.
pub fn normalize_line(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    normalize_into(text, &mut out);
    out
}

/// [`normalize_line`] into a caller-owned buffer, replacing its contents,
/// so a caller that normalizes many lines reuses one allocation.
///
/// One pass: tokens split on `char`s (Unicode whitespace, `,` and `.`),
/// and each token's bytes are filtered in place. A non-ASCII byte is never
/// ASCII-alphanumeric, so filtering bytes keeps exactly the characters a
/// `char` filter would. A token that folds is then replaced by its
/// canonical spelling.
pub fn normalize_into(text: &str, out: &mut String) {
    out.clear();
    for raw in text.split(|c: char| c.is_whitespace() || c == ',' || c == '.') {
        // A leading '#' is a unit marker ("#3" -> "apt 3", a bare "#" ->
        // "apt"); any other '#' is noise. The unit text folds through the
        // same rules so normalization stays idempotent ("#av" -> "apt ave"
        // on every pass).
        if raw.starts_with('#') {
            out.push_str(if out.is_empty() { "apt" } else { " apt" });
        }
        let before = out.len();
        if before > 0 {
            out.push(' ');
        }
        let start = out.len();
        for b in raw.bytes().filter(u8::is_ascii_alphanumeric) {
            out.push(char::from(b.to_ascii_lowercase()));
        }
        if out.len() == start {
            out.truncate(before);
        } else if let Some(canonical) = fold(&out[start..]) {
            out.truncate(start);
            out.push_str(canonical);
        }
    }
}

/// [`normalize_line`] split into its tokens.
///
/// `"742 NORTH Evergreen Terrace, Unit 2B"` →
/// `["742", "n", "evergreen", "ter", "apt", "2b"]`.
pub fn normalize_tokens(text: &str) -> Vec<String> {
    normalize_line(text)
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// Extracts the 5-digit zip code from an address line, if present (the last
/// standalone 5-digit token).
pub fn extract_zip(text: &str) -> Option<u32> {
    text.split(|c: char| c.is_whitespace() || c == ',')
        .rfind(|t| t.len() == 5 && t.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|t| t.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_spellings_all_normalize_to_canonical() {
        for s in Suffix::ALL {
            let canon = suffix_variants(s)[0];
            for v in suffix_variants(s) {
                assert_eq!(normalize_tokens(v), vec![canon.to_string()], "variant {v}");
                assert_eq!(
                    normalize_tokens(&v.to_ascii_uppercase()),
                    vec![canon.to_string()],
                    "uppercase variant {v}"
                );
            }
        }
    }

    #[test]
    fn directional_spellings_normalize() {
        assert_eq!(normalize_line("NORTH Rampart"), "n rampart");
        assert_eq!(normalize_line("sw Loop"), "sw loop");
        for d in Directional::ALL {
            let canon = directional_variants(d)[0];
            for v in directional_variants(d) {
                assert_eq!(normalize_line(v), canon, "variant {v}");
                assert_eq!(
                    normalize_line(&v.to_ascii_uppercase()),
                    canon,
                    "uppercase variant {v}"
                );
            }
        }
    }

    #[test]
    fn every_table_spelling_folds_to_its_canonical_token() {
        // `fold` is a hand-written `match`; this keeps it in step with the
        // tables, spelling by spelling. A spelling the match folds but the
        // tables lack is left to the token-oracle property test in
        // tests/properties.rs, which folds generated text by the tables.
        for s in Suffix::ALL {
            for v in suffix_variants(s) {
                assert_eq!(fold(v), Some(suffix_variants(s)[0]), "suffix {v}");
            }
        }
        for d in Directional::ALL {
            for v in directional_variants(d) {
                assert_eq!(fold(v), Some(directional_variants(d)[0]), "directional {v}");
            }
        }
        for m in UNIT_MARKERS {
            if m.bytes().all(|b| b.is_ascii_alphanumeric()) {
                assert_eq!(fold(m), Some("apt"), "unit marker {m}");
                assert_eq!(normalize_line(m), "apt", "unit marker {m}");
            }
        }
        for word in ["", "apts", "street1", "nn", "oak", "#"] {
            assert_eq!(fold(word), None, "{word:?}");
        }
    }

    #[test]
    fn the_papers_example_ave_vs_avenue() {
        assert_eq!(
            normalize_line("123 Washington Avenue"),
            normalize_line("123 Washington Ave")
        );
        assert_eq!(normalize_line("9 Oak CT"), normalize_line("9 Oak Court"));
        assert_eq!(normalize_line("9 Oak Ct"), normalize_line("9 Oak CT"));
    }

    #[test]
    fn unit_markers_fold_to_apt() {
        for text in [
            "5 Elm St Apt 3",
            "5 Elm St Unit 3",
            "5 Elm St # 3",
            "5 Elm St Suite 3",
        ] {
            assert_eq!(normalize_line(text), "5 elm st apt 3", "{text}");
        }
    }

    #[test]
    fn punctuation_and_case_are_stripped() {
        assert_eq!(
            normalize_line("742 Evergreen Ter., New Orleans, LA 70118"),
            "742 evergreen ter new orleans la 70118"
        );
    }

    #[test]
    fn hash_prefixed_unit_is_detected() {
        // "#3" splits into the unit marker plus the unit number, so both
        // spellings normalize identically.
        assert_eq!(normalize_line("5 Elm St #3"), "5 elm st apt 3");
        assert_eq!(normalize_line("5 Elm St # 3"), "5 elm st apt 3");
        assert_eq!(normalize_line("5 Elm St Apt 3"), "5 elm st apt 3");
    }

    #[test]
    fn extract_zip_finds_last_five_digit_token() {
        assert_eq!(
            extract_zip("742 Evergreen Ter, New Orleans, LA 70118"),
            Some(70118)
        );
        assert_eq!(
            extract_zip("12345 Main St, Springfield, IL 62704"),
            Some(62704)
        );
        assert_eq!(extract_zip("742 Evergreen Ter"), None);
    }

    #[test]
    fn street_named_after_suffix_word_still_normalizes() {
        // "Park Place" has suffix Place; "Place" as a *name* token would also
        // fold, which is acceptable: both sides of a comparison fold the
        // same way.
        assert_eq!(normalize_line("1 Park Place"), normalize_line("1 Park Pl"));
    }

    #[test]
    fn no_variant_is_ambiguous_across_tables() {
        // A spelling must never map to two different canonical tokens.
        let mut seen = std::collections::HashMap::new();
        for s in Suffix::ALL {
            for v in suffix_variants(s) {
                assert!(
                    seen.insert(v.to_string(), suffix_variants(s)[0]).is_none(),
                    "dup {v}"
                );
            }
        }
        for d in Directional::ALL {
            for v in directional_variants(d) {
                assert!(
                    seen.insert(v.to_string(), directional_variants(d)[0])
                        .is_none(),
                    "dup {v}"
                );
            }
        }
    }
}
