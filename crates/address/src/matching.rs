//! Fuzzy string matching for suggestion-list resolution.
//!
//! When an ISP's BAT rejects an input address it offers a list of candidate
//! addresses; BQT picks the best match offline (§3.3). We provide the three
//! standard similarity measures and a combined matcher that normalizes both
//! sides first. The bench crate ablates the three measures against each
//! other.

use crate::abbrev::{normalize_into, normalize_line};

/// Levenshtein edit distance (insertions, deletions, substitutions).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    edit_distance(&a, &b, &mut Vec::new())
}

/// [`levenshtein`] over symbol slices, with `row` as the single-row
/// dynamic program's reused scratch.
fn edit_distance<T: PartialEq>(a: &[T], b: &[T], row: &mut Vec<usize>) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    row.clear();
    row.extend(0..=b.len());
    // `row` holds the previous prefix of `a` against every prefix of `b`;
    // each pass overwrites it with the next, left to right, carrying the
    // cell to the left and the old cell diagonally above in locals.
    for (i, ca) in a.iter().enumerate() {
        let mut diag = i;
        let mut left = i + 1;
        for (cell, cb) in row[1..].iter_mut().zip(b) {
            let next = (diag + usize::from(ca != cb)).min(left + 1).min(*cell + 1);
            diag = *cell;
            *cell = next;
            left = next;
        }
    }
    row[b.len()]
}

/// Levenshtein similarity in `[0, 1]` over symbol slices:
/// `1 - distance / max_len`.
fn edit_similarity<T: PartialEq>(a: &[T], b: &[T], row: &mut Vec<usize>) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 1.0;
    }
    1.0 - edit_distance(a, b, row) as f64 / max as f64
}

/// Jaro similarity in `[0, 1]` over symbol slices.
fn jaro_of<T: PartialEq + Copy>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches = 0usize;
    let mut a_matched: Vec<T> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches += 1;
                a_matched.push(ca);
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    let b_matched = b.iter().zip(&b_used).filter(|&(_, &u)| u).map(|(c, _)| c);
    let transpositions = a_matched
        .iter()
        .zip(b_matched)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = matches as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity: Jaro boosted by common-prefix length (up to 4
/// chars, standard scaling 0.1).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_winkler_of(&a, &b)
}

/// [`jaro_winkler`] over symbol slices.
fn jaro_winkler_of<T: PartialEq + Copy>(a: &[T], b: &[T]) -> f64 {
    let j = jaro_of(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Token-sort similarity: normalizes, sorts tokens, then applies
/// Levenshtein similarity — immune to token reordering like
/// `"Ter Evergreen 742"` vs `"742 Evergreen Ter"`.
pub fn token_sort_similarity(a: &str, b: &str) -> f64 {
    Scorer::new(Measure::TokenSort, a).score(b)
}

/// Writes the space-separated tokens of `norm` to `out`, sorted and
/// joined by single spaces. `spans` is scratch for the token bounds.
fn sort_tokens_into(norm: &str, spans: &mut Vec<(usize, usize)>, out: &mut String) {
    spans.clear();
    let mut start = 0;
    for (i, b) in norm.bytes().enumerate() {
        if b == b' ' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    spans.push((start, norm.len()));
    spans.sort_unstable_by(|&(a, a_end), &(b, b_end)| norm[a..a_end].cmp(&norm[b..b_end]));
    out.clear();
    for (k, &(s, e)) in spans.iter().enumerate() {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(&norm[s..e]);
    }
}

/// Which similarity measure a matcher uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    Levenshtein,
    JaroWinkler,
    TokenSort,
}

/// Scores candidates against one input with one measure.
///
/// The input is normalized once (and, for token sort, token-sorted once);
/// each candidate is normalized once into a reused buffer. Normalized
/// text is ASCII, so every measure runs over bytes and gives exactly the
/// score it gives over `char`s. Normalizing is idempotent, so token sort
/// does not normalize again.
struct Scorer {
    measure: Measure,
    /// The normalized input, its tokens sorted under token sort.
    input: String,
    /// The current candidate, normalized.
    candidate: String,
    /// The current candidate's sorted tokens (token sort only).
    sorted: String,
    spans: Vec<(usize, usize)>,
    row: Vec<usize>,
}

impl Scorer {
    fn new(measure: Measure, input: &str) -> Self {
        let mut scorer = Self {
            measure,
            input: normalize_line(input),
            candidate: String::new(),
            sorted: String::new(),
            spans: Vec::new(),
            row: Vec::new(),
        };
        if measure == Measure::TokenSort {
            sort_tokens_into(&scorer.input, &mut scorer.spans, &mut scorer.sorted);
            std::mem::swap(&mut scorer.input, &mut scorer.sorted);
        }
        scorer
    }

    fn score(&mut self, candidate: &str) -> f64 {
        normalize_into(candidate, &mut self.candidate);
        let input = self.input.as_bytes();
        match self.measure {
            Measure::Levenshtein => {
                edit_similarity(input, self.candidate.as_bytes(), &mut self.row)
            }
            Measure::JaroWinkler => jaro_winkler_of(input, self.candidate.as_bytes()),
            Measure::TokenSort => {
                sort_tokens_into(&self.candidate, &mut self.spans, &mut self.sorted);
                edit_similarity(input, self.sorted.as_bytes(), &mut self.row)
            }
        }
    }
}

/// Picks the best-scoring candidate at or above `threshold`.
///
/// Returns `(index, score)` of the winner, or `None` if nothing clears the
/// threshold. Ties break toward the earliest candidate, which matches how a
/// human would take the first plausible suggestion.
///
/// Both sides are normalized before scoring, but every string only once:
/// the input once for the whole list, and each candidate once, into a
/// buffer reused across the list.
pub fn best_match(
    measure: Measure,
    input: &str,
    candidates: &[String],
    threshold: f64,
) -> Option<(usize, f64)> {
    let mut scorer = Scorer::new(measure, input);
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let s = scorer.score(c);
        if s >= threshold && best.is_none_or(|(_, bs)| s > bs) {
            best = Some((i, s));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_is_symmetric() {
        for (a, b) in [
            ("evergreen", "evergren"),
            ("main st", "maine st"),
            ("a", "xyz"),
        ] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn jaro_winkler_boosts_common_prefix() {
        let jw = jaro_winkler("MARTHA", "MARHTA");
        assert!((jw - 0.9611).abs() < 1e-3);
    }

    #[test]
    fn jaro_winkler_identical_is_one() {
        assert_eq!(jaro_winkler("742 evergreen ter", "742 evergreen ter"), 1.0);
    }

    #[test]
    fn token_sort_ignores_word_order() {
        let s = token_sort_similarity("742 Evergreen Ter", "Ter Evergreen 742");
        assert_eq!(s, 1.0);
    }

    #[test]
    fn token_sort_unifies_abbreviations() {
        let s = token_sort_similarity("742 Evergreen Terrace", "742 Evergreen Ter");
        assert_eq!(s, 1.0);
    }

    #[test]
    fn best_match_finds_abbreviation_variant() {
        let candidates = vec![
            "740 Evergreen Ter, New Orleans, LA 70118".to_string(),
            "742 Evergreen Ter, New Orleans, LA 70118".to_string(),
            "742 Everett St, New Orleans, LA 70118".to_string(),
        ];
        let (idx, score) = best_match(
            Measure::TokenSort,
            "742 Evergreen Terrace, New Orleans, LA 70118",
            &candidates,
            0.8,
        )
        .unwrap();
        assert_eq!(idx, 1);
        assert!(score > 0.95);
    }

    #[test]
    fn best_match_respects_threshold() {
        let candidates = vec!["totally different place".to_string()];
        assert_eq!(
            best_match(Measure::Levenshtein, "742 Evergreen Ter", &candidates, 0.8),
            None
        );
    }

    #[test]
    fn best_match_survives_typos() {
        let candidates = vec![
            "1200 Canal St, New Orleans, LA 70112".to_string(),
            "1200 Carrollton Ave, New Orleans, LA 70118".to_string(),
        ];
        // "Cnal" typo: dropped letter.
        let (idx, _) = best_match(
            Measure::JaroWinkler,
            "1200 Cnal St, New Orleans, LA 70112",
            &candidates,
            0.8,
        )
        .unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn empty_candidate_list_matches_nothing() {
        assert_eq!(best_match(Measure::TokenSort, "x", &[], 0.0), None);
    }

    #[test]
    fn all_measures_are_bounded() {
        for (a, b) in [
            ("abc", "abd"),
            ("", "x"),
            ("1 Main St", "999 Elm Ave Apt 4"),
        ] {
            for m in [
                Measure::Levenshtein,
                Measure::JaroWinkler,
                Measure::TokenSort,
            ] {
                let (_, s) = best_match(m, a, &[b.to_string()], 0.0).expect("scores are >= 0");
                assert!((0.0..=1.0).contains(&s), "{m:?} {a:?} {b:?} -> {s}");
            }
        }
    }
}
