//! Per-ISP plan catalogs (the paper's Table 1).
//!
//! Each ISP offers a fixed menu of plans nationally; any given address sees
//! only a subset (§5.1). The catalogs below reproduce Table 1's plan counts
//! and speed/price envelopes. Where Table 1's carriage-value extremes are
//! arithmetically inconsistent with its own speed/price ranges (they stem
//! from promos the table doesn't itemize), we keep the speed/price ranges
//! and let carriage values follow from them; EXPERIMENTS.md records the
//! deltas.

use crate::isp::Isp;

/// Access technology of a single plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tech {
    Dsl,
    Fiber,
    Cable,
}

/// One broadband plan: the unit every analysis is built from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub download_mbps: f64,
    pub upload_mbps: f64,
    pub price_usd: f64,
    pub tech: Tech,
}

impl Plan {
    pub const fn new(download_mbps: f64, upload_mbps: f64, price_usd: f64, tech: Tech) -> Self {
        Self {
            download_mbps,
            upload_mbps,
            price_usd,
            tech,
        }
    }

    /// Carriage value: download Mbps carried per dollar per month (§1).
    pub fn carriage_value(&self) -> f64 {
        self.download_mbps / self.price_usd
    }

    /// The same plan with an ACP-style monthly subsidy applied (price floor
    /// $5 so cv stays finite).
    pub fn with_subsidy(&self, discount_usd: f64) -> Plan {
        Plan {
            price_usd: (self.price_usd - discount_usd).max(5.0),
            ..*self
        }
    }
}

/// AT&T: 8 DSL tiers + 3 fiber tiers = 11 plans (Table 1).
const ATT: &[Plan] = &[
    Plan::new(0.768, 0.768, 55.0, Tech::Dsl),
    Plan::new(1.5, 1.0, 55.0, Tech::Dsl),
    Plan::new(3.0, 1.0, 55.0, Tech::Dsl),
    Plan::new(6.0, 1.0, 55.0, Tech::Dsl),
    Plan::new(12.0, 1.5, 55.0, Tech::Dsl),
    Plan::new(25.0, 5.0, 55.0, Tech::Dsl),
    Plan::new(50.0, 10.0, 55.0, Tech::Dsl),
    Plan::new(100.0, 20.0, 55.0, Tech::Dsl),
    Plan::new(300.0, 300.0, 55.0, Tech::Fiber),
    Plan::new(500.0, 500.0, 65.0, Tech::Fiber),
    Plan::new(1000.0, 1000.0, 80.0, Tech::Fiber),
];

/// Verizon: 1 DSL + 3 Fios tiers = 4 plans.
const VERIZON: &[Plan] = &[
    Plan::new(3.1, 1.0, 50.0, Tech::Dsl),
    Plan::new(300.0, 300.0, 50.0, Tech::Fiber),
    Plan::new(500.0, 500.0, 70.0, Tech::Fiber),
    Plan::new(1000.0, 880.0, 90.0, Tech::Fiber),
];

/// CenturyLink: 6 DSL tiers + 2 fiber tiers = 8 plans.
const CENTURYLINK: &[Plan] = &[
    Plan::new(1.5, 0.5, 50.0, Tech::Dsl),
    Plan::new(3.0, 0.75, 50.0, Tech::Dsl),
    Plan::new(10.0, 1.0, 50.0, Tech::Dsl),
    Plan::new(25.0, 3.0, 50.0, Tech::Dsl),
    Plan::new(80.0, 10.0, 50.0, Tech::Dsl),
    Plan::new(140.0, 20.0, 50.0, Tech::Dsl),
    Plan::new(200.0, 200.0, 50.0, Tech::Fiber),
    Plan::new(940.0, 940.0, 65.0, Tech::Fiber),
];

/// Frontier: the paper's striking 2-plan menu: legacy DSL or 2-gig fiber.
const FRONTIER: &[Plan] = &[
    Plan::new(0.2, 0.2, 50.0, Tech::Dsl),
    Plan::new(2000.0, 2000.0, 100.0, Tech::Fiber),
];

/// Spectrum: 5 cable tiers. The standard ladder ascends in carriage value
/// into distinct integer buckets (11, 13, 14), which is what lets its tier
/// geography vary city to city — Spectrum is the paper's most inter-city
/// diverse ISP (Fig. 6).
const SPECTRUM: &[Plan] = &[
    Plan::new(220.0, 10.0, 20.0, Tech::Cable),
    Plan::new(500.0, 20.0, 40.0, Tech::Cable),
    Plan::new(600.0, 35.0, 44.0, Tech::Cable),
    Plan::new(1000.0, 35.0, 70.0, Tech::Cable),
    Plan::new(900.0, 35.0, 62.0, Tech::Cable),
];

/// Cox: 6 cable tiers. The 950/65 tier is the competitive offer that shows
/// up where fiber rivals deploy; 1000/35 is the clustered promo tier.
const COX: &[Plan] = &[
    Plan::new(200.0, 5.0, 20.0, Tech::Cable),
    Plan::new(250.0, 10.0, 22.0, Tech::Cable),
    Plan::new(300.0, 10.0, 25.0, Tech::Cable),
    Plan::new(500.0, 20.0, 40.0, Tech::Cable),
    Plan::new(950.0, 35.0, 65.0, Tech::Cable),
    Plan::new(1000.0, 35.0, 35.0, Tech::Cable),
];

/// Xfinity: 3 tiers, invariant to location (§4.1 — the paper verified this
/// and then stopped collecting Xfinity data).
const XFINITY: &[Plan] = &[
    Plan::new(75.0, 10.0, 20.0, Tech::Cable),
    Plan::new(300.0, 10.0, 40.0, Tech::Cable),
    Plan::new(1200.0, 35.0, 80.0, Tech::Cable),
];

/// The full national plan menu for an ISP.
pub fn catalog(isp: Isp) -> &'static [Plan] {
    match isp {
        Isp::Att => ATT,
        Isp::Verizon => VERIZON,
        Isp::CenturyLink => CENTURYLINK,
        Isp::Frontier => FRONTIER,
        Isp::Spectrum => SPECTRUM,
        Isp::Cox => COX,
        Isp::Xfinity => XFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isp::ALL_ISPS;

    #[test]
    fn catalog_sizes_match_table_1() {
        assert_eq!(catalog(Isp::Att).len(), 11);
        assert_eq!(catalog(Isp::Verizon).len(), 4);
        assert_eq!(catalog(Isp::CenturyLink).len(), 8);
        assert_eq!(catalog(Isp::Frontier).len(), 2);
        assert_eq!(catalog(Isp::Spectrum).len(), 5);
        assert_eq!(catalog(Isp::Cox).len(), 6);
        assert_eq!(catalog(Isp::Xfinity).len(), 3);
    }

    #[test]
    fn carriage_value_definition() {
        // The paper's example: 100 Mbps at $50 is 2 Mbps/$.
        let p = Plan::new(100.0, 10.0, 50.0, Tech::Cable);
        assert_eq!(p.carriage_value(), 2.0);
    }

    #[test]
    fn att_new_orleans_example_carriage_values() {
        // §5.1's worked example: (1000, $80), (500, $65), (300, $55) give
        // cv 12.5, 7.7, 5.5.
        let fiber: Vec<&Plan> = catalog(Isp::Att)
            .iter()
            .filter(|p| p.tech == Tech::Fiber)
            .collect();
        let cvs: Vec<f64> = fiber.iter().map(|p| p.carriage_value()).collect();
        assert!((cvs[2] - 12.5).abs() < 0.01);
        assert!((cvs[1] - 7.69).abs() < 0.01);
        assert!((cvs[0] - 5.45).abs() < 0.01);
    }

    #[test]
    fn max_carriage_value_across_all_isps_is_cox_28_6() {
        // Table 1 footnote: the maximum observed cv across all ISPs and
        // cities is 28.6 (Cox's promo gig tier).
        let mut best = (Isp::Att, 0.0);
        for isp in ALL_ISPS {
            for p in catalog(isp) {
                if p.carriage_value() > best.1 {
                    best = (isp, p.carriage_value());
                }
            }
        }
        assert_eq!(best.0, Isp::Cox);
        assert!((best.1 - 28.571).abs() < 0.01);
    }

    #[test]
    fn dsl_fiber_isps_have_both_techs_and_cable_isps_only_cable() {
        for isp in ALL_ISPS {
            let techs: std::collections::HashSet<_> = catalog(isp).iter().map(|p| p.tech).collect();
            if isp.is_cable() {
                assert_eq!(techs.len(), 1);
                assert!(techs.contains(&Tech::Cable));
            } else {
                assert!(techs.contains(&Tech::Dsl), "{isp}");
                assert!(techs.contains(&Tech::Fiber), "{isp}");
            }
        }
    }

    #[test]
    fn price_ranges_match_table_1_envelopes() {
        let range = |isp: Isp| {
            let prices: Vec<f64> = catalog(isp).iter().map(|p| p.price_usd).collect();
            (
                prices.iter().cloned().fold(f64::MAX, f64::min),
                prices.iter().cloned().fold(f64::MIN, f64::max),
            )
        };
        assert_eq!(range(Isp::Att), (55.0, 80.0));
        assert_eq!(range(Isp::Frontier), (50.0, 100.0));
        assert_eq!(range(Isp::Spectrum), (20.0, 70.0));
    }

    #[test]
    fn cable_upload_speeds_are_5_to_35() {
        // Table 1: cable uploads cap at 35 Mbps.
        for isp in [Isp::Spectrum, Isp::Cox, Isp::Xfinity] {
            for p in catalog(isp) {
                assert!((5.0..=35.0).contains(&p.upload_mbps), "{isp} {p:?}");
            }
        }
    }

    #[test]
    fn subsidy_floors_price() {
        let p = Plan::new(200.0, 5.0, 20.0, Tech::Cable);
        let s = p.with_subsidy(30.0);
        assert_eq!(s.price_usd, 5.0);
        assert_eq!(s.download_mbps, 200.0);
        assert!(s.carriage_value() > p.carriage_value());
    }

    #[test]
    fn fiber_tiers_beat_dsl_tiers_within_each_dsl_fiber_isp() {
        for isp in [Isp::Att, Isp::Verizon, Isp::CenturyLink, Isp::Frontier] {
            let best_dsl = catalog(isp)
                .iter()
                .filter(|p| p.tech == Tech::Dsl)
                .map(|p| p.carriage_value())
                .fold(f64::MIN, f64::max);
            let best_fiber = catalog(isp)
                .iter()
                .filter(|p| p.tech == Tech::Fiber)
                .map(|p| p.carriage_value())
                .fold(f64::MIN, f64::max);
            assert!(best_fiber > best_dsl * 3.0, "{isp}");
        }
    }
}
