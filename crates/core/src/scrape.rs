//! Template detection and page parsing.
//!
//! The paper's tool enumerates each BAT's page templates during a manual
//! bootstrapping pass and detects them at runtime via patterns in the HTML.
//! This module is that product: a detector keyed on per-template markers and
//! three per-dialect plan parsers (different ISPs render plans as
//! data-attribute cards, table rows, or list items).
//!
//! The parsers are hand-rolled scanners rather than a regex engine — the
//! patterns are fixed and simple, and a scanner gives precise error
//! behaviour (a malformed page yields `DetectedPage::Unrecognized`, never a
//! panic).

use bbsim_bat::Dialect;

/// The client-side product of a bootstrapping pass: every marker and field
/// pattern BQT needs to recognize one generation of BAT markup. When ISPs
/// redesign their front-ends (the paper's §3 limitation), a new set must be
/// bootstrapped — [`crate::drift`] detects when that has become necessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateSet {
    pub oops_marker: &'static str,
    pub no_service_marker: &'static str,
    pub existing_marker: &'static str,
    pub mdu_marker: &'static str,
    pub unit_item_open: &'static str,
    pub not_found_marker: &'static str,
    pub suggestion_item_open: &'static str,
    /// `(down, up, price)` attribute openers for the DataAttr dialect.
    pub data_attrs: (&'static str, &'static str, &'static str),
    /// `(down, up, price)` cell openers for the TableRow dialect.
    pub table_cells: (&'static str, &'static str, &'static str),
    /// `(down, up, price)` span openers for the ListItem dialect.
    pub list_spans: (&'static str, &'static str, &'static str),
}

impl TemplateSet {
    /// The originally bootstrapped generation.
    pub const fn v1() -> &'static TemplateSet {
        &TemplateSet {
            oops_marker: "class=\"oops\"",
            no_service_marker: "class=\"no-service\"",
            existing_marker: "class=\"existing-customer\"",
            mdu_marker: "class=\"mdu-prompt\"",
            unit_item_open: "<li class=\"unit\">",
            not_found_marker: "class=\"address-error\"",
            suggestion_item_open: "<li class=\"suggestion\">",
            data_attrs: ("data-down=\"", "data-up=\"", "data-price=\""),
            table_cells: (
                "<td class=\"down\">",
                "<td class=\"up\">",
                "<td class=\"price\">",
            ),
            list_spans: (
                "<span class=\"mbps\">",
                "<span class=\"upload\">",
                "<span class=\"usd\">",
            ),
        }
    }

    /// The re-bootstrapped set for the redesigned front-ends.
    pub const fn v2() -> &'static TemplateSet {
        &TemplateSet {
            oops_marker: "class=\"error-page\"",
            no_service_marker: "class=\"not-serviceable\"",
            existing_marker: "class=\"current-customer\"",
            mdu_marker: "class=\"unit-prompt\"",
            unit_item_open: "<li class=\"unit-option\">",
            not_found_marker: "class=\"addr-missing\"",
            suggestion_item_open: "<li class=\"addr-option\">",
            data_attrs: ("data-dl=\"", "data-ul=\"", "data-usd=\""),
            table_cells: (
                "<td class=\"dl\">",
                "<td class=\"ul\">",
                "<td class=\"cost\">",
            ),
            list_spans: (
                "<span class=\"down\">",
                "<span class=\"up\">",
                "<span class=\"price\">",
            ),
        }
    }
}

/// A plan as scraped off a page: the measurement unit of the whole study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrapedPlan {
    pub download_mbps: f64,
    pub upload_mbps: f64,
    pub price_usd: f64,
}

impl ScrapedPlan {
    /// Carriage value (Mbps per dollar) of the scraped plan.
    pub fn carriage_value(&self) -> f64 {
        self.download_mbps / self.price_usd
    }

    /// Heuristic technology classification from observable plan shape:
    /// symmetric or near-symmetric high upload means fiber; cable tops out
    /// at 35 Mbps up; anything slow is DSL. Used by the analysis to classify
    /// competition modes from scraped data alone.
    pub fn looks_like_fiber(&self) -> bool {
        self.upload_mbps >= 100.0
    }
}

/// What BQT recognized on a page.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectedPage {
    /// The plans template, with the scraped offers.
    Plans(Vec<ScrapedPlan>),
    /// Address not found; the BAT's suggested addresses in page order.
    AddressNotFound(Vec<String>),
    /// Multi-dwelling unit; the refined unit addresses in page order.
    MultiDwellingUnit(Vec<String>),
    /// The existing-customer interstitial.
    ExistingCustomer,
    /// Authoritative "no service at this address".
    NoService,
    /// The BAT's permanent per-address error page.
    TechnicalDifficulty,
    /// None of the known templates matched.
    Unrecognized,
}

/// Extracts the text between `open` and `close`, scanning from `from`.
/// Returns the span and the index just past `close`.
fn between<'a>(page: &'a str, from: usize, open: &str, close: &str) -> Option<(&'a str, usize)> {
    let start = page[from..].find(open)? + from + open.len();
    let end = page[start..].find(close)? + start;
    Some((&page[start..end], end + close.len()))
}

/// Collects every span between `open`/`close` pairs in order.
fn collect_all(page: &str, open: &str, close: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cursor = 0;
    while let Some((span, next)) = between(page, cursor, open, close) {
        out.push(span.trim().to_string());
        cursor = next;
    }
    out
}

/// The number spelled by the ASCII digits and `.`s of `s`, everything
/// else skipped (`"$35/mo"` → 35).
///
/// Up to 15 digits with at most one `.` skip the float parser: the digits
/// as an integer (exact below 2^53) divided by a power of ten (exact up
/// to 1e15) is one correctly rounded division, so it is the value
/// `str::parse` returns for that decimal. Anything else is filtered into a
/// string and parsed.
fn parse_num(s: &str) -> Option<f64> {
    const POW10: [f64; 16] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    ];
    let (mut mantissa, mut digits, mut decimals, mut dots) = (0u64, 0usize, 0usize, 0usize);
    for b in s.bytes() {
        match b {
            b'0'..=b'9' => {
                mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                digits += 1;
                decimals += dots;
            }
            b'.' => dots += 1,
            _ => {}
        }
    }
    if (1..=15).contains(&digits) && dots <= 1 {
        return Some(mantissa as f64 / POW10[decimals]);
    }
    let cleaned: String = s
        .chars()
        .filter(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    let v: f64 = cleaned.parse().ok()?;
    if v.is_finite() && v >= 0.0 {
        Some(v)
    } else {
        None
    }
}

/// Generic three-field plan scanner: each plan is an ordered
/// (down, up, price) triple of spans opened by `fields` and closed by
/// `close`.
fn parse_plans(
    page: &str,
    fields: (&str, &str, &str),
    close: (&str, &str, &str),
) -> Vec<ScrapedPlan> {
    let mut out = Vec::new();
    let mut cursor = 0;
    while let Some((down, after_down)) = between(page, cursor, fields.0, close.0) {
        let Some((up, after_up)) = between(page, after_down, fields.1, close.1) else {
            break;
        };
        let Some((price, after_price)) = between(page, after_up, fields.2, close.2) else {
            break;
        };
        if let (Some(d), Some(u), Some(p)) = (parse_num(down), parse_num(up), parse_num(price)) {
            if p > 0.0 {
                out.push(ScrapedPlan {
                    download_mbps: d,
                    upload_mbps: u,
                    price_usd: p,
                });
            }
        }
        cursor = after_price;
    }
    out
}

/// Detects the template of `page` with the V1 template set.
pub fn detect(page: &str, dialect: Dialect) -> DetectedPage {
    detect_with(TemplateSet::v1(), page, dialect)
}

/// Every bootstrapped template generation, in bootstrap order. Generation
/// numbers are 1-based indices into this list.
pub const GENERATIONS: [&TemplateSet; 2] = [TemplateSet::v1(), TemplateSet::v2()];

/// The product of a structural re-bootstrap: which known generation the
/// probed pages belong to, and how decisively.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnedTemplates {
    pub templates: &'static TemplateSet,
    /// 1-based generation number (1 = the original bootstrap).
    pub generation: u32,
    /// Fraction of probe pages the winning set recognized (`0.0..=1.0`).
    pub confidence: f64,
}

/// Classifies a burst of probe pages by anchor structure: each page is run
/// through [`detect_with`] under every known generation, and the
/// generation recognizing the most pages wins (ties break toward the
/// oldest generation, so noise never forces a spurious swap). Returns
/// `None` when there are no pages to learn from.
///
/// This is the automated stand-in for the paper's manual re-bootstrapping
/// pass: instead of a human re-reading the redesigned markup, the probe
/// burst's structure selects the matching template set.
pub fn learn_template_set(pages: &[String], dialect: Dialect) -> Option<LearnedTemplates> {
    if pages.is_empty() {
        return None;
    }
    let mut best: Option<(usize, usize)> = None; // (generation index, recognized)
    for (i, ts) in GENERATIONS.iter().enumerate() {
        let recognized = pages
            .iter()
            .filter(|page| detect_with(ts, page, dialect) != DetectedPage::Unrecognized)
            .count();
        if best.is_none_or(|(_, n)| recognized > n) {
            best = Some((i, recognized));
        }
    }
    let (i, recognized) = best?;
    Some(LearnedTemplates {
        templates: GENERATIONS[i],
        generation: i as u32 + 1,
        confidence: recognized as f64 / pages.len() as f64,
    })
}

/// Detects the template of `page` against an explicit template set.
///
/// `dialect` selects the plan parser; template *markers* are shared across
/// ISPs (the simulated front-ends reuse a common widget library, like real
/// ones do), but plan markup differs per dialect.
pub fn detect_with(ts: &TemplateSet, page: &str, dialect: Dialect) -> DetectedPage {
    // Order matters: check the most specific markers first.
    if page.contains(ts.oops_marker) {
        return DetectedPage::TechnicalDifficulty;
    }
    if page.contains(ts.no_service_marker) {
        return DetectedPage::NoService;
    }
    if page.contains(ts.existing_marker) {
        return DetectedPage::ExistingCustomer;
    }
    if page.contains(ts.mdu_marker) {
        let units = collect_all(page, ts.unit_item_open, "</li>");
        return DetectedPage::MultiDwellingUnit(units);
    }
    if page.contains(ts.not_found_marker) {
        let suggestions = collect_all(page, ts.suggestion_item_open, "</li>");
        return DetectedPage::AddressNotFound(suggestions);
    }
    let plans = match dialect {
        Dialect::DataAttr => parse_plans(page, ts.data_attrs, ("\"", "\"", "\"")),
        Dialect::TableRow => parse_plans(page, ts.table_cells, ("</td>", "</td>", "</td>")),
        Dialect::ListItem => parse_plans(page, ts.list_spans, ("</span>", "</span>", "</span>")),
    };
    if !plans.is_empty() {
        return DetectedPage::Plans(plans);
    }
    DetectedPage::Unrecognized
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_bat::templates;
    use bbsim_bat::TemplateVersion;
    use bbsim_isp::{catalog, Isp, Plan, ALL_ISPS};

    fn roundtrip(isp: Isp, plans: &[Plan]) -> Vec<ScrapedPlan> {
        let page = templates::render_plans_v(isp, plans, TemplateVersion::V1);
        match detect(&page, bbsim_bat::templates::dialect_of(isp)) {
            DetectedPage::Plans(p) => p,
            other => panic!("{isp}: expected plans, got {other:?}"),
        }
    }

    #[test]
    fn every_isp_catalog_roundtrips_through_its_dialect() {
        for isp in ALL_ISPS {
            let plans = catalog(isp);
            let scraped = roundtrip(isp, plans);
            assert_eq!(scraped.len(), plans.len(), "{isp}");
            for (s, p) in scraped.iter().zip(plans) {
                assert_eq!(s.download_mbps, p.download_mbps, "{isp}");
                assert_eq!(s.upload_mbps, p.upload_mbps, "{isp}");
                assert_eq!(s.price_usd, p.price_usd, "{isp}");
                assert!((s.carriage_value() - p.carriage_value()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn wrong_dialect_fails_to_parse_plans() {
        // An AT&T page fed to a Cox-dialect parser must not yield plans —
        // this is why the paper needs per-ISP templates.
        let page = templates::render_plans_v(Isp::Att, catalog(Isp::Att), TemplateVersion::V1);
        assert_eq!(detect(&page, Dialect::ListItem), DetectedPage::Unrecognized);
    }

    #[test]
    fn detects_not_found_with_ordered_suggestions() {
        let page = templates::render_not_found_v(
            Isp::Cox,
            &["1 Oak St".to_string(), "2 Oak St".to_string()],
            TemplateVersion::V1,
        );
        match detect(&page, Dialect::ListItem) {
            DetectedPage::AddressNotFound(s) => {
                assert_eq!(s, vec!["1 Oak St".to_string(), "2 Oak St".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detects_mdu_units() {
        let page = templates::render_mdu_v(
            Isp::Att,
            &["742 Ter Apt 1".to_string()],
            TemplateVersion::V1,
        );
        assert_eq!(
            detect(&page, Dialect::DataAttr),
            DetectedPage::MultiDwellingUnit(vec!["742 Ter Apt 1".to_string()])
        );
    }

    #[test]
    fn detects_interstitial_and_terminal_pages() {
        assert_eq!(
            detect(
                &templates::render_existing_customer_v(Isp::Verizon, TemplateVersion::V1),
                Dialect::DataAttr
            ),
            DetectedPage::ExistingCustomer
        );
        assert_eq!(
            detect(
                &templates::render_no_service_v(Isp::Cox, TemplateVersion::V1),
                Dialect::ListItem
            ),
            DetectedPage::NoService
        );
        assert_eq!(
            detect(
                &templates::render_technical_difficulty_v(Isp::Cox, TemplateVersion::V1),
                Dialect::ListItem
            ),
            DetectedPage::TechnicalDifficulty
        );
    }

    #[test]
    fn garbage_is_unrecognized_not_a_panic() {
        for page in [
            "",
            "<html>",
            "data-down=\"oops",
            "<td class=\"down\">12",
            "💥",
        ] {
            for d in [Dialect::DataAttr, Dialect::TableRow, Dialect::ListItem] {
                assert_eq!(detect(page, d), DetectedPage::Unrecognized, "{page:?}");
            }
        }
    }

    #[test]
    fn zero_price_plans_are_dropped() {
        let page = "<div class=\"plan\" data-down=\"100\" data-up=\"10\" data-price=\"0\">x</div>";
        assert_eq!(detect(page, Dialect::DataAttr), DetectedPage::Unrecognized);
    }

    #[test]
    fn fiber_heuristic_tracks_upload_speed() {
        let fiber = ScrapedPlan {
            download_mbps: 300.0,
            upload_mbps: 300.0,
            price_usd: 55.0,
        };
        let cable = ScrapedPlan {
            download_mbps: 1000.0,
            upload_mbps: 35.0,
            price_usd: 35.0,
        };
        let dsl = ScrapedPlan {
            download_mbps: 6.0,
            upload_mbps: 1.0,
            price_usd: 55.0,
        };
        assert!(fiber.looks_like_fiber());
        assert!(!cable.looks_like_fiber());
        assert!(!dsl.looks_like_fiber());
    }

    #[test]
    fn learning_classifies_v2_probe_bursts_as_generation_2() {
        for isp in ALL_ISPS {
            let dialect = templates::dialect_of(isp);
            let pages = vec![
                templates::render_plans_v(isp, catalog(isp), TemplateVersion::V2),
                templates::render_no_service_v(isp, TemplateVersion::V2),
                templates::render_not_found_v(isp, &["1 Oak St".into()], TemplateVersion::V2),
            ];
            let learned = learn_template_set(&pages, dialect).expect("non-empty burst");
            assert_eq!(learned.generation, 2, "{isp}");
            assert_eq!(learned.templates, TemplateSet::v2(), "{isp}");
            assert!((learned.confidence - 1.0).abs() < 1e-12, "{isp}");
        }
    }

    #[test]
    fn learning_prefers_the_oldest_generation_on_ties() {
        // Garbage pages recognize under no generation: 0 == 0, v1 wins.
        let pages = vec!["<html>junk</html>".to_string(), "💥".to_string()];
        let learned = learn_template_set(&pages, Dialect::DataAttr).expect("non-empty burst");
        assert_eq!(learned.generation, 1);
        assert_eq!(learned.templates, TemplateSet::v1());
        assert_eq!(learned.confidence, 0.0);
    }

    #[test]
    fn learning_needs_at_least_one_page() {
        assert_eq!(learn_template_set(&[], Dialect::TableRow), None);
    }

    /// `parse_num` before its fast path: filter, then `str::parse`.
    fn old_parse_num(s: &str) -> Option<f64> {
        let cleaned: String = s
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        let v: f64 = cleaned.parse().ok()?;
        (v.is_finite() && v >= 0.0).then_some(v)
    }

    #[test]
    fn parse_num_matches_the_float_parser_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let fixed = [
            "",
            ".",
            "..",
            "0",
            "000",
            ".5",
            "5.",
            "0.1",
            "0.3",
            "1.005",
            "$19.99/mo",
            "1000 Mbps",
            "1e5",
            "-3",
            "999999999999999",
            "9999999999999999",
            "0.000000000000001",
            "0.0000000000000001",
            "12345678901234.5",
            "123456789012345.6",
            "18446744073709551616",
            "1.2.3",
        ];
        for s in fixed {
            assert_eq!(
                parse_num(s).map(f64::to_bits),
                old_parse_num(s).map(f64::to_bits),
                "{s:?}"
            );
        }
        const BYTES: &[u8] = b"0123456789...$/ Mbpse-";
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..100_000 {
            let len = rng.gen_range(0..24);
            let s: String = (0..len)
                .map(|_| char::from(BYTES[rng.gen_range(0..BYTES.len())]))
                .collect();
            assert_eq!(
                parse_num(&s).map(f64::to_bits),
                old_parse_num(&s).map(f64::to_bits),
                "{s:?}"
            );
        }
    }

    #[test]
    fn parse_num_handles_embedded_units() {
        assert_eq!(parse_num("1000 Mbps"), Some(1000.0));
        assert_eq!(parse_num("$35/mo"), Some(35.0));
        assert_eq!(parse_num("no digits"), None);
        assert_eq!(parse_num("1.2.3"), None);
    }
}
