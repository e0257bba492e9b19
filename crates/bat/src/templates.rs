//! Page markup: what each ISP's BAT actually renders.
//!
//! Different ISPs present the same logical steps with different markup
//! ("different formats and interfaces", §3.1), which is why BQT needs
//! per-ISP templates. We model three markup dialects and assign each ISP
//! one, so a client that only understands one dialect fails on the others —
//! exactly the coupling the paper's manual bootstrapping step resolves.

use bbsim_isp::{Isp, Plan};
use std::fmt::Write as _;

/// Front-end markup generation: ISPs periodically redesign their BATs
/// (the paper's §3 "Limitations": any interface change requires updating
/// BQT). `V1` is the bootstrapped generation; `V2` is a redesign with the
/// same workflow but renamed classes and attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemplateVersion {
    #[default]
    V1,
    V2,
}

/// The logical page kinds of the BAT workflow (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Offered plans for the address.
    Plans,
    /// Address not recognized; suggestions offered.
    AddressNotFound,
    /// The address is a multi-dwelling unit; pick an apartment.
    MultiDwellingUnit,
    /// An active subscription exists here; choose how to proceed.
    ExistingCustomer,
    /// Served area but no broadband product at this address.
    NoService,
    /// Permanent per-address error page.
    TechnicalDifficulty,
}

/// Markup dialect an ISP's front-end uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// Plans as `<div class="plan" data-down=.. data-up=.. data-price=..>`.
    DataAttr,
    /// Plans as table rows with labelled cells.
    TableRow,
    /// Plans as list items with inline spans.
    ListItem,
}

/// Which dialect each ISP's front-end speaks.
pub fn dialect_of(isp: Isp) -> Dialect {
    match isp {
        Isp::Att | Isp::Verizon => Dialect::DataAttr,
        Isp::CenturyLink | Isp::Frontier | Isp::Xfinity => Dialect::TableRow,
        Isp::Spectrum | Isp::Cox => Dialect::ListItem,
    }
}

/// Renders a page: the ISP's shell around whatever `body` appends, in one
/// `String` pre-sized for `body_len` bytes of body.
fn page(isp: Isp, body_len: usize, body: impl FnOnce(&mut String)) -> String {
    const HEAD: &str = "<html><head><title>";
    const TITLE_END: &str = " Availability</title></head>\n<body>\n";
    const FOOT: &str = "\n</body></html>";
    let name = isp.name();
    let mut out =
        String::with_capacity(HEAD.len() + name.len() + TITLE_END.len() + body_len + FOOT.len());
    out.push_str(HEAD);
    out.push_str(name);
    out.push_str(TITLE_END);
    body(&mut out);
    out.push_str(FOOT);
    out
}

/// Bytes reserved per plan row: the longest row template with its numbers.
const PLAN_ROW_LEN: usize = 160;

/// Renders the plans page in the ISP's dialect and template generation.
///
/// Each dialect has one row shape; the generation only renames its
/// container, classes and attributes. A row is written as its literal
/// pieces with one number between each two: download, upload, price and
/// (data-attribute dialect only) download again.
pub fn render_plans_v(isp: Isp, plans: &[Plan], version: TemplateVersion) -> String {
    let v1 = version == TemplateVersion::V1;
    let (open, row, close): (&str, &[&str], &str) = match dialect_of(isp) {
        Dialect::DataAttr if v1 => (
            "<section id=\"availability-results\">\n",
            &[
                "  <div class=\"plan\" data-down=\"",
                "\" data-up=\"",
                "\" data-price=\"",
                "\">Internet ",
                "</div>\n",
            ],
            "</section>",
        ),
        Dialect::DataAttr => (
            "<section id=\"svc-results\">\n",
            &[
                "  <article class=\"offer-card\" data-dl=\"",
                "\" data-ul=\"",
                "\" data-usd=\"",
                "\">Internet ",
                "</article>\n",
            ],
            "</section>",
        ),
        Dialect::TableRow if v1 => (
            "<table class=\"offers\">\n",
            &[
                "  <tr class=\"offer\"><td class=\"down\">",
                " Mbps</td><td class=\"up\">",
                " Mbps</td><td class=\"price\">$",
                "/mo</td></tr>\n",
            ],
            "</table>",
        ),
        Dialect::TableRow => (
            "<table class=\"tiers\">\n",
            &[
                "  <tr class=\"tier\"><td class=\"dl\">",
                " Mbps</td><td class=\"ul\">",
                " Mbps</td><td class=\"cost\">$",
                "/mo</td></tr>\n",
            ],
            "</table>",
        ),
        Dialect::ListItem if v1 => (
            "<ul class=\"packages\">\n",
            &[
                "  <li class=\"pkg\"><span class=\"mbps\">",
                "</span><span class=\"upload\">",
                "</span><span class=\"usd\">",
                "</span></li>\n",
            ],
            "</ul>",
        ),
        Dialect::ListItem => (
            "<ul class=\"bundles\">\n",
            &[
                "  <li class=\"bundle\"><span class=\"down\">",
                "</span><span class=\"up\">",
                "</span><span class=\"price\">",
                "</span></li>\n",
            ],
            "</ul>",
        ),
    };
    page(isp, 40 + plans.len() * PLAN_ROW_LEN, |out| {
        out.push_str(open);
        for p in plans {
            let numbers = [p.download_mbps, p.upload_mbps, p.price_usd, p.download_mbps];
            out.push_str(row[0]);
            for (&n, piece) in numbers.iter().zip(&row[1..]) {
                push_number(out, n);
                out.push_str(piece);
            }
        }
        out.push_str(close);
    })
}

/// Appends `n` exactly as `Display` writes it.
///
/// A finite, non-negative `n` below 1e12 that is a whole number of cents
/// is written without the formatter: its shortest round-trip form is the
/// integer part and up to two decimals, trailing zeros trimmed (below
/// 1e12 an `f64` is finer than a cent, so no shorter decimal names the
/// same value). Every other value, `-0.0` included, goes to `Display`.
fn push_number(out: &mut String, n: f64) {
    let cents = (n * 100.0).round();
    if !(n.is_sign_positive() && n < 1e12 && cents / 100.0 == n) {
        let _ = write!(out, "{n}");
        return;
    }
    let cents = cents as u64;
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut whole = cents / 100;
    loop {
        start -= 1;
        digits[start] = b'0' + (whole % 10) as u8;
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
    let (tenths, hundredths) = (cents / 10 % 10, cents % 10);
    if tenths + hundredths != 0 {
        out.push('.');
        out.push(char::from(b'0' + tenths as u8));
        if hundredths != 0 {
            out.push(char::from(b'0' + hundredths as u8));
        }
    }
}

/// The entries of a list page: `count` of them, each appended by
/// `push(i, out)` for `i` in `0..count`, `len` bytes in total (or a bound
/// on it). A caller can so render entries straight into the page.
struct Entries<F> {
    count: usize,
    len: usize,
    push: F,
}

/// Entries already rendered.
fn rendered(entries: &[String]) -> Entries<impl FnMut(usize, &mut String) + '_> {
    Entries {
        count: entries.len(),
        len: entries.iter().map(String::len).sum(),
        push: |i: usize, out: &mut String| out.push_str(&entries[i]),
    }
}

/// A list page: a marker line, then one `<li>` per entry. The
/// not-found and MDU pages share this shape.
fn render_list(
    isp: Isp,
    marker: &str,
    message: &str,
    list: &str,
    item: &str,
    mut entries: Entries<impl FnMut(usize, &mut String)>,
) -> String {
    let body_len =
        64 + marker.len() + message.len() + entries.len + entries.count * (item.len() + 24);
    page(isp, body_len, |out| {
        for piece in [
            "<div class=\"",
            marker,
            "\">",
            message,
            "</div>\n<ul class=\"",
            list,
            "\">\n",
        ] {
            out.push_str(piece);
        }
        for i in 0..entries.count {
            for piece in ["  <li class=\"", item, "\">"] {
                out.push_str(piece);
            }
            (entries.push)(i, out);
            out.push_str("</li>\n");
        }
        out.push_str("</ul>");
    })
}

/// Version-aware address-not-found page.
pub fn render_not_found_v(isp: Isp, suggestions: &[String], version: TemplateVersion) -> String {
    let (marker, item) = match version {
        TemplateVersion::V1 => ("address-error", "suggestion"),
        TemplateVersion::V2 => ("addr-missing", "addr-option"),
    };
    render_list(
        isp,
        marker,
        "We could not verify that address.",
        "options",
        item,
        rendered(suggestions),
    )
}

/// Version-aware multi-dwelling-unit page.
pub fn render_mdu_v(isp: Isp, units: &[String], version: TemplateVersion) -> String {
    let units = rendered(units);
    render_mdu_with_v(isp, units.count, units.len, units.push, version)
}

/// [`render_mdu_v`] with its `count` unit lines appended by
/// `push_unit(i, out)`, `i` in `0..count`, straight into the page, so a
/// building's unit lines never exist as strings of their own. `units_len`
/// is their total length in bytes, or a bound on it.
pub fn render_mdu_with_v(
    isp: Isp,
    count: usize,
    units_len: usize,
    push_unit: impl FnMut(usize, &mut String),
    version: TemplateVersion,
) -> String {
    let (marker, item) = match version {
        TemplateVersion::V1 => ("mdu-prompt", "unit"),
        TemplateVersion::V2 => ("unit-prompt", "unit-option"),
    };
    let units = Entries {
        count,
        len: units_len,
        push: push_unit,
    };
    render_list(
        isp,
        marker,
        "This address has multiple units.",
        "units",
        item,
        units,
    )
}

/// A page whose body is fixed text.
fn render_static(isp: Isp, body: &str) -> String {
    page(isp, body.len(), |out| out.push_str(body))
}

/// Version-aware existing-customer interstitial.
pub fn render_existing_customer_v(isp: Isp, version: TemplateVersion) -> String {
    render_static(
        isp,
        match version {
            TemplateVersion::V1 => {
                "<div class=\"existing-customer\">An active account exists at this address.</div>\n\
         <a id=\"change-plan\" href=\"/login\">Change my plan</a>\n\
         <a id=\"add-service\" href=\"/login\">Add a service</a>\n\
         <a id=\"new-customer\" href=\"/new\">I'm a new resident - view plans</a>"
            }
            TemplateVersion::V2 => {
                "<div class=\"current-customer\">An active account exists at this address.</div>\n\
         <a id=\"manage\" href=\"/login\">Manage my plan</a>\n\
         <a id=\"shop-new\" href=\"/new\">I'm a new resident - shop plans</a>"
            }
        },
    )
}

/// Version-aware no-service page.
pub fn render_no_service_v(isp: Isp, version: TemplateVersion) -> String {
    render_static(
        isp,
        match version {
            TemplateVersion::V1 => {
                "<div class=\"no-service\">We do not offer internet service at this address.</div>"
            }
            TemplateVersion::V2 => {
                "<div class=\"not-serviceable\">We do not offer internet service at this address.</div>"
            }
        },
    )
}

/// Version-aware technical-difficulty page.
pub fn render_technical_difficulty_v(isp: Isp, version: TemplateVersion) -> String {
    render_static(
        isp,
        match version {
            TemplateVersion::V1 => {
                "<div class=\"oops\">We are experiencing technical difficulties. Please call us.</div>"
            }
            TemplateVersion::V2 => {
                "<div class=\"error-page\">We are experiencing technical difficulties. Please call us.</div>"
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_isp::{catalog, ALL_ISPS};

    #[test]
    fn each_dialect_is_used_by_some_isp() {
        let dialects: std::collections::HashSet<_> =
            ALL_ISPS.iter().map(|&i| dialect_of(i)).collect();
        assert_eq!(dialects.len(), 3);
    }

    #[test]
    fn plans_pages_embed_every_plan() {
        for isp in ALL_ISPS {
            let plans = catalog(isp);
            let page = render_plans_v(isp, plans, TemplateVersion::V1);
            for p in plans {
                assert!(
                    page.contains(&p.download_mbps.to_string()),
                    "{isp}: missing download {}",
                    p.download_mbps
                );
                assert!(
                    page.contains(&p.price_usd.to_string()),
                    "{isp}: missing price {}",
                    p.price_usd
                );
            }
        }
    }

    #[test]
    fn dialect_markup_differs() {
        let p = catalog(Isp::Att);
        let att = render_plans_v(Isp::Att, p, TemplateVersion::V1);
        let cl = render_plans_v(Isp::CenturyLink, p, TemplateVersion::V1);
        let cox = render_plans_v(Isp::Cox, p, TemplateVersion::V1);
        assert!(att.contains("data-down"));
        assert!(!cl.contains("data-down"));
        assert!(cl.contains("class=\"offer\""));
        assert!(cox.contains("class=\"pkg\""));
    }

    #[test]
    fn not_found_page_lists_suggestions_in_order() {
        let suggestions = vec!["1 Elm St".to_string(), "2 Elm St".to_string()];
        let page = render_not_found_v(Isp::Cox, &suggestions, TemplateVersion::V1);
        assert!(page.contains("address-error"));
        let a = page.find("1 Elm St").unwrap();
        let b = page.find("2 Elm St").unwrap();
        assert!(a < b);
    }

    #[test]
    fn mdu_page_lists_units() {
        let page = render_mdu_v(
            Isp::Att,
            &["742 Evergreen Ter Apt 1".to_string()],
            TemplateVersion::V1,
        );
        assert!(page.contains("class=\"unit\""));
        assert!(page.contains("Apt 1"));
    }

    #[test]
    fn mdu_page_from_a_writer_matches_the_rendered_lines() {
        let lines: Vec<String> = (1..=12)
            .map(|u| format!("742 Evergreen Ter Apt {u}"))
            .collect();
        for version in [TemplateVersion::V1, TemplateVersion::V2] {
            let written = render_mdu_with_v(
                Isp::Att,
                lines.len(),
                0,
                |i, out| {
                    out.push_str("742 Evergreen Ter Apt ");
                    out.push_str(&(i + 1).to_string());
                },
                version,
            );
            assert_eq!(written, render_mdu_v(Isp::Att, &lines, version));
        }
    }

    #[test]
    fn existing_customer_page_offers_new_customer_path() {
        let page = render_existing_customer_v(Isp::Verizon, TemplateVersion::V1);
        assert!(page.contains("id=\"new-customer\""));
        assert!(page.contains("id=\"change-plan\""));
    }

    #[test]
    fn distinct_page_kinds_have_distinct_markers() {
        // No marker of one page kind may appear in another, or template
        // detection becomes ambiguous.
        let plans = render_plans_v(Isp::Att, catalog(Isp::Att), TemplateVersion::V1);
        let nf = render_not_found_v(Isp::Att, &["x".to_string()], TemplateVersion::V1);
        let mdu = render_mdu_v(Isp::Att, &["x".to_string()], TemplateVersion::V1);
        let ec = render_existing_customer_v(Isp::Att, TemplateVersion::V1);
        let ns = render_no_service_v(Isp::Att, TemplateVersion::V1);
        let td = render_technical_difficulty_v(Isp::Att, TemplateVersion::V1);
        let markers = [
            ("availability-results", &plans),
            ("address-error", &nf),
            ("mdu-prompt", &mdu),
            ("existing-customer", &ec),
            ("no-service", &ns),
            ("class=\"oops\"", &td),
        ];
        for (m, page) in &markers {
            assert!(page.contains(m), "own marker {m}");
            for (other, other_page) in &markers {
                if m != other {
                    assert!(!other_page.contains(m), "{m} leaked into {other}");
                }
            }
        }
    }
}
