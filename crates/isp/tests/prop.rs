//! Property tests over the ISP world model.

use bbsim_isp::{catalog, Isp, Plan, Tech, ALL_ISPS};
use proptest::prelude::*;

fn arb_isp() -> impl Strategy<Value = Isp> {
    (0usize..ALL_ISPS.len()).prop_map(|i| ALL_ISPS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Carriage values are always positive and finite, for every plan of
    /// every ISP and any subsidy level.
    #[test]
    fn carriage_values_are_finite_under_subsidy(isp in arb_isp(), discount in 0.0f64..200.0) {
        for p in catalog(isp) {
            let s = p.with_subsidy(discount);
            prop_assert!(s.price_usd >= 5.0, "price floor");
            prop_assert!(s.carriage_value().is_finite());
            prop_assert!(s.carriage_value() >= p.carriage_value());
            prop_assert_eq!(s.download_mbps, p.download_mbps);
        }
    }

    /// Subsidies are monotone: a bigger discount never yields a worse deal.
    #[test]
    fn subsidies_are_monotone(
        down in 1.0f64..2000.0,
        price in 10.0f64..150.0,
        d1 in 0.0f64..100.0,
        d2 in 0.0f64..100.0,
    ) {
        let p = Plan::new(down, down / 10.0, price, Tech::Cable);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(p.with_subsidy(hi).carriage_value() >= p.with_subsidy(lo).carriage_value());
    }

    /// Column numbering and slugs are total bijections over the seven ISPs.
    #[test]
    fn isp_identifiers_roundtrip(isp in arb_isp()) {
        prop_assert_eq!(Isp::from_slug(isp.slug()), Some(isp));
    }

    /// No catalog plan uploads faster than it downloads.
    #[test]
    fn catalog_uploads_never_exceed_downloads(isp in arb_isp()) {
        for p in catalog(isp) {
            prop_assert!(p.upload_mbps <= p.download_mbps, "{isp} {p:?}");
        }
    }
}

/// Deployment-level property, checked across the full city list rather
/// than proptest (the world is deterministic per city): fiber shares and
/// coverages always land in their documented ranges at every epoch.
#[test]
fn deployments_respect_documented_ranges_across_epochs() {
    use bbsim_census::{city_seed, IncomeField, ALL_CITIES};
    use bbsim_isp::Deployment;

    for city in ALL_CITIES.iter().filter(|c| c.block_groups < 500) {
        let grid = city.grid();
        let income = IncomeField::generate(&grid, city.median_income_k, city_seed(city.name));
        for isp in Isp::of_city(city) {
            let mut prev_fiber = 0.0;
            for epoch in [0u32, 3, 6] {
                let d = Deployment::generate_at(isp, city, &grid, &income, epoch);
                let cov = d.coverage();
                let share = d.fiber_share();
                if isp.is_cable() {
                    assert!(cov > 0.95, "{} {isp}: coverage {cov}", city.name);
                    assert_eq!(share, 0.0);
                } else {
                    assert!(
                        (0.6..=0.95).contains(&cov),
                        "{} {isp}: coverage {cov}",
                        city.name
                    );
                    assert!(share <= 0.85 + 1e-9, "{} {isp}: share {share}", city.name);
                    assert!(
                        share >= prev_fiber - 1e-9,
                        "{} {isp}: fiber shrank {prev_fiber} -> {share}",
                        city.name
                    );
                    prev_fiber = share;
                }
            }
        }
    }
}
