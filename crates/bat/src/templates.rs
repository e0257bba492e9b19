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

/// Renders the plans page in the ISP's dialect (V1 markup).
pub fn render_plans(isp: Isp, plans: &[Plan]) -> String {
    render_plans_v(isp, plans, TemplateVersion::V1)
}

/// Renders the plans page in the ISP's dialect and template generation.
///
/// Each dialect has one row shape; the generation only renames its
/// container, classes and attributes.
pub fn render_plans_v(isp: Isp, plans: &[Plan], version: TemplateVersion) -> String {
    let v1 = version == TemplateVersion::V1;
    page(
        isp,
        40 + plans.len() * PLAN_ROW_LEN,
        |out| match dialect_of(isp) {
            Dialect::DataAttr => {
                let (id, tag, class, down, up, price) = if v1 {
                    (
                        "availability-results",
                        "div",
                        "plan",
                        "data-down",
                        "data-up",
                        "data-price",
                    )
                } else {
                    (
                        "svc-results",
                        "article",
                        "offer-card",
                        "data-dl",
                        "data-ul",
                        "data-usd",
                    )
                };
                let _ = writeln!(out, "<section id=\"{id}\">");
                for p in plans {
                    let _ = writeln!(
                        out,
                        "  <{tag} class=\"{class}\" {down}=\"{}\" {up}=\"{}\" {price}=\"{}\">Internet {}</{tag}>",
                        p.download_mbps, p.upload_mbps, p.price_usd, p.download_mbps
                    );
                }
                out.push_str("</section>");
            }
            Dialect::TableRow => {
                let (table, row, down, up, price) = if v1 {
                    ("offers", "offer", "down", "up", "price")
                } else {
                    ("tiers", "tier", "dl", "ul", "cost")
                };
                let _ = writeln!(out, "<table class=\"{table}\">");
                for p in plans {
                    let _ = writeln!(
                        out,
                        "  <tr class=\"{row}\"><td class=\"{down}\">{} Mbps</td><td class=\"{up}\">{} Mbps</td><td class=\"{price}\">${}/mo</td></tr>",
                        p.download_mbps, p.upload_mbps, p.price_usd
                    );
                }
                out.push_str("</table>");
            }
            Dialect::ListItem => {
                let (list, item, down, up, price) = if v1 {
                    ("packages", "pkg", "mbps", "upload", "usd")
                } else {
                    ("bundles", "bundle", "down", "up", "price")
                };
                let _ = writeln!(out, "<ul class=\"{list}\">");
                for p in plans {
                    let _ = writeln!(
                        out,
                        "  <li class=\"{item}\"><span class=\"{down}\">{}</span><span class=\"{up}\">{}</span><span class=\"{price}\">{}</span></li>",
                        p.download_mbps, p.upload_mbps, p.price_usd
                    );
                }
                out.push_str("</ul>");
            }
        },
    )
}

/// A list page: a marker line, then one `<li>` per entry. The
/// not-found and MDU pages share this shape.
fn render_list(
    isp: Isp,
    marker: &str,
    message: &str,
    list: &str,
    item: &str,
    entries: &[String],
) -> String {
    let body_len = 64
        + marker.len()
        + message.len()
        + entries
            .iter()
            .map(|e| e.len() + item.len() + 24)
            .sum::<usize>();
    page(isp, body_len, |out| {
        let _ = writeln!(out, "<div class=\"{marker}\">{message}</div>");
        let _ = writeln!(out, "<ul class=\"{list}\">");
        for e in entries {
            let _ = writeln!(out, "  <li class=\"{item}\">{e}</li>");
        }
        out.push_str("</ul>");
    })
}

/// Renders the address-not-found page with a suggestion list (V1 markup).
pub fn render_not_found(isp: Isp, suggestions: &[String]) -> String {
    render_not_found_v(isp, suggestions, TemplateVersion::V1)
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
        suggestions,
    )
}

/// Renders the multi-dwelling-unit page listing refined addresses (V1).
pub fn render_mdu(isp: Isp, units: &[String]) -> String {
    render_mdu_v(isp, units, TemplateVersion::V1)
}

/// Version-aware multi-dwelling-unit page.
pub fn render_mdu_v(isp: Isp, units: &[String], version: TemplateVersion) -> String {
    let (marker, item) = match version {
        TemplateVersion::V1 => ("mdu-prompt", "unit"),
        TemplateVersion::V2 => ("unit-prompt", "unit-option"),
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

/// Renders the existing-customer interstitial with its three options (V1).
pub fn render_existing_customer(isp: Isp) -> String {
    render_existing_customer_v(isp, TemplateVersion::V1)
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

/// Renders the no-service page (V1).
pub fn render_no_service(isp: Isp) -> String {
    render_no_service_v(isp, TemplateVersion::V1)
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

/// Renders the permanent technical-difficulty page (V1).
pub fn render_technical_difficulty(isp: Isp) -> String {
    render_technical_difficulty_v(isp, TemplateVersion::V1)
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
            let page = render_plans(isp, plans);
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
        let att = render_plans(Isp::Att, p);
        let cl = render_plans(Isp::CenturyLink, p);
        let cox = render_plans(Isp::Cox, p);
        assert!(att.contains("data-down"));
        assert!(!cl.contains("data-down"));
        assert!(cl.contains("class=\"offer\""));
        assert!(cox.contains("class=\"pkg\""));
    }

    #[test]
    fn not_found_page_lists_suggestions_in_order() {
        let suggestions = vec!["1 Elm St".to_string(), "2 Elm St".to_string()];
        let page = render_not_found(Isp::Cox, &suggestions);
        assert!(page.contains("address-error"));
        let a = page.find("1 Elm St").unwrap();
        let b = page.find("2 Elm St").unwrap();
        assert!(a < b);
    }

    #[test]
    fn mdu_page_lists_units() {
        let page = render_mdu(Isp::Att, &["742 Evergreen Ter Apt 1".to_string()]);
        assert!(page.contains("class=\"unit\""));
        assert!(page.contains("Apt 1"));
    }

    #[test]
    fn existing_customer_page_offers_new_customer_path() {
        let page = render_existing_customer(Isp::Verizon);
        assert!(page.contains("id=\"new-customer\""));
        assert!(page.contains("id=\"change-plan\""));
    }

    #[test]
    fn distinct_page_kinds_have_distinct_markers() {
        // No marker of one page kind may appear in another, or template
        // detection becomes ambiguous.
        let plans = render_plans(Isp::Att, catalog(Isp::Att));
        let nf = render_not_found(Isp::Att, &["x".to_string()]);
        let mdu = render_mdu(Isp::Att, &["x".to_string()]);
        let ec = render_existing_customer(Isp::Att);
        let ns = render_no_service(Isp::Att);
        let td = render_technical_difficulty(Isp::Att);
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
