//! Noise injection: renders canonical addresses the way crowdsourced
//! listing data actually spells them.
//!
//! The paper (§3.1) attributes most BAT query friction to "incomplete,
//! incorrect, or ambiguous" address data. We reproduce four noise channels:
//!
//! 1. **spelling variation** — suffix/directional rendered as a random
//!    accepted variant with random casing;
//! 2. **typos** — a dropped, doubled or swapped letter in the street name;
//! 3. **missing units** — MDU listings that omit the apartment number;
//! 4. **format drift** — unit marker spelled `Unit`/`#` instead of `Apt`.

use crate::abbrev::{directional_variants, suffix_variants};
use crate::model::{push_decimal, StreetAddress};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probabilities for each noise channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Chance the suffix is spelled as a non-canonical variant.
    pub p_suffix_variant: f64,
    /// Chance a token is upper/lower-cased oddly.
    pub p_case_mangle: f64,
    /// Chance of a single-character typo in the street name.
    pub p_typo: f64,
    /// Chance an MDU listing omits its unit.
    pub p_drop_unit: f64,
    /// Chance the unit marker is non-standard ("Unit", "#").
    pub p_alt_unit_marker: f64,
}

impl NoiseProfile {
    /// Calibrated so BQT's end-to-end hit rates land in the paper's
    /// 82–96% band (Fig. 2a): most listings are clean, a substantial
    /// minority differ cosmetically, a few percent are genuinely mangled.
    pub fn zillow_like() -> Self {
        Self {
            p_suffix_variant: 0.35,
            p_case_mangle: 0.20,
            p_typo: 0.04,
            p_drop_unit: 0.50,
            p_alt_unit_marker: 0.30,
        }
    }

    /// No noise at all — renders the canonical line.
    pub fn clean() -> Self {
        Self {
            p_suffix_variant: 0.0,
            p_case_mangle: 0.0,
            p_typo: 0.0,
            p_drop_unit: 0.0,
            p_alt_unit_marker: 0.0,
        }
    }
}

/// Re-cases `token` in place: upper, lower or as is, one draw.
fn mangle_case(rng: &mut StdRng, token: &mut str) {
    match rng.gen_range(0..3u8) {
        0 => token.make_ascii_uppercase(),
        1 => token.make_ascii_lowercase(),
        _ => {}
    }
}

/// Appends `word` with one dropped, doubled or transposed character (not
/// the first or last); words under three characters are appended intact
/// and draw nothing.
fn push_typo(rng: &mut StdRng, word: &str, out: &mut String) {
    let n = word.chars().count();
    if n < 3 {
        out.push_str(word);
        return;
    }
    let i = rng.gen_range(1..n - 1);
    // Byte offsets of characters i-1, i and i+1 (the last exists: i < n-1).
    let at = |k: usize| word.char_indices().nth(k).map_or(word.len(), |(b, _)| b);
    let (prev, cur, next) = (at(i - 1), at(i), at(i + 1));
    match rng.gen_range(0..3u8) {
        0 => {
            // drop
            out.push_str(&word[..cur]);
            out.push_str(&word[next..]);
        }
        1 => {
            // double
            out.push_str(&word[..next]);
            out.push_str(&word[cur..]);
        }
        _ => {
            // transpose
            out.push_str(&word[..prev]);
            out.push_str(&word[cur..next]);
            out.push_str(&word[prev..cur]);
            out.push_str(&word[next..]);
        }
    }
}

/// Renders `addr` as noisy listing text, deterministic in `seed`.
///
/// Returns the rendered line. The city/state/zip tail is kept intact —
/// listing services validate those — so noise concentrates in the street
/// part, as the paper observed.
///
/// One buffer, written in RNG draw order: each token is pushed and then
/// re-cased in place. The directional is drawn after the street and suffix
/// but precedes them, so it is inserted at its slot once drawn. The line
/// is returned at exact capacity.
pub fn render_noisy(addr: &StreetAddress, profile: &NoiseProfile, seed: u64) -> String {
    // Noise lengthens a canonical line by at most 17 bytes: a spelled-out
    // directional (+7) and suffix (+5), a doubled character (+4) and
    // "Unit" for "Apt" (+1).
    let mut line = String::with_capacity(addr.line_len_hint(addr.unit.as_deref()) + 17);
    render_noisy_into(addr, profile, seed, &mut line);
    line.shrink_to_fit();
    line
}

/// [`render_noisy`] into `line`, which is cleared first. A caller that
/// renders many lines through one buffer and copies each out at its
/// length allocates each line once, at its size. Shrinking an oversized
/// line in place instead frees its tail as a small hole next to it.
pub(crate) fn render_noisy_into(
    addr: &StreetAddress,
    profile: &NoiseProfile,
    seed: u64,
    line: &mut String,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0153);
    line.clear();
    push_decimal(line, addr.number, 1);
    line.push(' ');
    let dir_at = line.len();

    let start = line.len();
    if rng.gen_bool(profile.p_typo) {
        push_typo(&mut rng, &addr.street_name, line);
    } else {
        line.push_str(&addr.street_name);
    }
    if rng.gen_bool(profile.p_case_mangle) {
        mangle_case(&mut rng, &mut line[start..]);
    }
    line.push(' ');

    let start = line.len();
    if rng.gen_bool(profile.p_suffix_variant) {
        let variants = suffix_variants(addr.suffix);
        let v = variants[rng.gen_range(0..variants.len())];
        line.push_str(v);
        // Title-case the chosen variant for plausibility.
        let first = v.chars().next().map_or(0, char::len_utf8);
        line[start..start + first].make_ascii_uppercase();
    } else {
        line.push_str(addr.suffix.abbrev());
    }
    if rng.gen_bool(profile.p_case_mangle) {
        mangle_case(&mut rng, &mut line[start..]);
    }

    if let Some(d) = addr.directional {
        let text = if rng.gen_bool(profile.p_suffix_variant) {
            let variants = directional_variants(d);
            variants[rng.gen_range(0..variants.len())]
        } else {
            d.abbrev()
        };
        line.insert(dir_at, ' ');
        line.insert_str(dir_at, text);
        line[dir_at..dir_at + text.len()].make_ascii_uppercase();
    }

    match &addr.unit {
        Some(u) if !rng.gen_bool(profile.p_drop_unit) => {
            let marker = if rng.gen_bool(profile.p_alt_unit_marker) {
                ["Unit", "#"][rng.gen_range(0..2)]
            } else {
                "Apt"
            };
            line.push(' ');
            line.push_str(marker);
            line.push(' ');
            line.push_str(u);
        }
        _ => {}
    }
    addr.push_tail(line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abbrev::normalize_line;
    use crate::model::{Directional, Suffix};

    fn sample(unit: Option<&str>) -> StreetAddress {
        StreetAddress {
            number: 742,
            directional: Some(Directional::N),
            street_name: "Evergreen".into(),
            suffix: Suffix::Terrace,
            unit: unit.map(str::to_string),
            city: "New Orleans",
            state: "LA",
            zip: 70118,
        }
    }

    #[test]
    fn clean_profile_renders_canonical_line() {
        let a = sample(Some("2B"));
        assert_eq!(
            render_noisy(&a, &NoiseProfile::clean(), 1),
            a.canonical_line()
        );
    }

    #[test]
    fn rendering_is_deterministic_in_seed() {
        let a = sample(Some("2B"));
        let p = NoiseProfile::zillow_like();
        assert_eq!(render_noisy(&a, &p, 9), render_noisy(&a, &p, 9));
    }

    #[test]
    fn noise_preserves_zip_tail() {
        let a = sample(None);
        let p = NoiseProfile::zillow_like();
        for seed in 0..50 {
            let line = render_noisy(&a, &p, seed);
            assert!(line.ends_with("LA 70118"), "{line}");
        }
    }

    #[test]
    fn most_noisy_renderings_normalize_back_to_canonical() {
        // Spelling variation and case mangle must be invisible after
        // normalization; only genuine typos (4%) should survive it.
        let a = sample(None);
        let p = NoiseProfile::zillow_like();
        let canon = normalize_line(&a.canonical_line());
        let matching = (0..500)
            .filter(|&seed| normalize_line(&render_noisy(&a, &p, seed)) == canon)
            .count();
        assert!(matching > 450, "only {matching}/500 normalize back");
        assert!(matching < 500, "typos should make some differ");
    }

    #[test]
    fn unit_is_sometimes_dropped() {
        let a = sample(Some("2B"));
        let p = NoiseProfile::zillow_like();
        let with_unit = (0..200)
            .filter(|&seed| render_noisy(&a, &p, seed).contains("2B"))
            .count();
        assert!(with_unit > 50 && with_unit < 150, "with_unit = {with_unit}");
    }

    fn inject_typo(rng: &mut StdRng, word: &str) -> String {
        let mut out = String::new();
        push_typo(rng, word, &mut out);
        out
    }

    #[test]
    fn typos_keep_word_length_close() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let out = inject_typo(&mut rng, "Evergreen");
            let diff = (out.len() as i64 - 9).abs();
            assert!(diff <= 1, "{out}");
        }
    }

    #[test]
    fn short_words_are_typo_immune() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(inject_typo(&mut rng, "st"), "st");
        assert_eq!(inject_typo(&mut rng, "a"), "a");
        assert_eq!(inject_typo(&mut rng, ""), "");
    }
}
