//! The assembled per-city ground truth.
//!
//! [`CityWorld::build`] derives everything about one study city from its
//! Table-2 row and the city seed: geography, demographics, the address
//! inventory, each active ISP's deployment, and cable pricing (including the
//! competitive response to the co-located fiber deployment). Its
//! [`CityWorld::plans_at`] is the oracle the simulated BAT servers answer
//! from.
//!
//! Downstream measurement and analysis code must treat this type as the
//! *hidden* state of the world: only the BAT servers may query it.

use crate::deployment::{smoothed_noise, Deployment, TechAtBlockGroup};
use crate::isp::Isp;
use crate::plans::{catalog, Plan, Tech};
use crate::pricing::CablePricing;
use bbsim_address::{AddressDb, AddressRecord, NoiseProfile};
use bbsim_census::{city_seed, AcsDataset, CityProfile, IncomeField};
use bbsim_geo::CityGrid;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fraction of addresses inside a fiber block group that can actually get
/// fiber (drop not yet built for the rest — they fall back to DSL).
const FIBER_TAKE_RATE: f64 = 0.88;

/// The plans an ISP offers at one address, as ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferedPlans {
    pub isp: Isp,
    pub plans: Vec<Plan>,
}

/// One city's complete hidden state.
pub struct CityWorld {
    city: &'static CityProfile,
    grid: CityGrid,
    income: IncomeField,
    acs: AcsDataset,
    addresses: AddressDb,
    deployments: Vec<(Isp, Deployment)>,
    cable_pricing: Vec<(Isp, CablePricing)>,
    /// Per-(ISP-slot, block group) DSL line quality in [0, 1]; indexes
    /// align with `deployments`.
    dsl_quality: Vec<Vec<f64>>,
}

impl CityWorld {
    /// Builds the world for `city`, fully determined by the city seed.
    pub fn build(city: &'static CityProfile) -> Self {
        Self::build_at(city, 0)
    }

    /// Builds the world as of `epoch` months after the first snapshot:
    /// fiber deployments have grown, promo campaigns have rotated, and
    /// cable's competitive tier follows the expanded rival footprint. Used
    /// by the §4.3 staleness experiment.
    pub fn build_at(city: &'static CityProfile, epoch: u32) -> Self {
        let seed = city_seed(city.name);
        let grid = city.grid();
        let income = IncomeField::generate(&grid, city.median_income_k, seed);
        let acs = AcsDataset::build(city, &grid, &income, seed);
        let addresses = AddressDb::generate(city, &grid, &NoiseProfile::zillow_like());

        let isps = Isp::of_city(city);

        let deployments: Vec<(Isp, Deployment)> = isps
            .iter()
            .map(|&isp| {
                (
                    isp,
                    Deployment::generate_at(isp, city, &grid, &income, epoch),
                )
            })
            .collect();

        // The cable ISP prices against the co-located fiber deployment.
        let rival_fiber: Vec<bool> = deployments
            .iter()
            .find(|(i, _)| !i.is_cable())
            .map(|(_, d)| d.fiber_mask())
            .unwrap_or_else(|| vec![false; grid.len()]);
        let cable_pricing: Vec<(Isp, CablePricing)> = deployments
            .iter()
            .filter(|(i, _)| i.is_cable())
            .map(|&(isp, _)| {
                (
                    isp,
                    CablePricing::generate_at(isp, city, &grid, &income, &rival_fiber, epoch),
                )
            })
            .collect();

        // Per-ISP DSL line quality fields (loop length proxy), spatially
        // smoothed like real copper plant quality.
        let dsl_quality: Vec<Vec<f64>> = deployments
            .iter()
            .map(|(isp, _)| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD51 ^ ((isp.column() as u64) << 32));
                smoothed_noise(&grid, 2, &mut rng)
            })
            .collect();

        Self {
            city,
            grid,
            income,
            acs,
            addresses,
            deployments,
            cable_pricing,
            dsl_quality,
        }
    }

    pub fn city(&self) -> &'static CityProfile {
        self.city
    }

    pub fn grid(&self) -> &CityGrid {
        &self.grid
    }

    pub fn income(&self) -> &IncomeField {
        &self.income
    }

    pub fn acs(&self) -> &AcsDataset {
        &self.acs
    }

    pub fn addresses(&self) -> &AddressDb {
        &self.addresses
    }

    /// The major ISPs active in this city.
    pub fn isps(&self) -> Vec<Isp> {
        self.deployments.iter().map(|&(i, _)| i).collect()
    }

    /// This city's deployment for `isp`, if active here.
    pub fn deployment(&self, isp: Isp) -> Option<&Deployment> {
        self.deployments
            .iter()
            .find(|(i, _)| *i == isp)
            .map(|(_, d)| d)
    }

    /// This city's cable pricing for `isp`, if it is an active cable ISP.
    pub fn cable_pricing(&self, isp: Isp) -> Option<&CablePricing> {
        self.cable_pricing
            .iter()
            .find(|(i, _)| *i == isp)
            .map(|(_, p)| p)
    }

    /// Stable per-address hash used for sub-block-group assignment.
    fn addr_hash(&self, isp: Isp, addr: &AddressRecord) -> u64 {
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (isp.column() as u64);
        for b in [addr.id as u64, addr.bg_index() as u64] {
            h ^= b;
            h = h.wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    /// Ground truth: the plans `isp` offers at `addr` (empty when not
    /// served). Only the BAT servers should call this.
    pub fn plans_at(&self, isp: Isp, addr: &AddressRecord) -> OfferedPlans {
        let Some(slot) = self.deployments.iter().position(|(i, _)| *i == isp) else {
            return OfferedPlans {
                isp,
                plans: Vec::new(),
            };
        };
        let deployment = &self.deployments[slot].1;
        let bg = addr.bg_index();
        let plans = match deployment.tech(bg) {
            TechAtBlockGroup::NotServed => Vec::new(),
            TechAtBlockGroup::Cable => self
                .cable_pricing(isp)
                // lint:allow(T2): Cable tech at a block group implies a cable pricing table
                .expect("cable ISP has pricing")
                .plans_in(bg),
            TechAtBlockGroup::Fiber => {
                // Most addresses in a fiber block group get the fiber menu;
                // the remainder fall back to the local DSL ladder (this is
                // the within-block variability behind Fig. 4's long tail).
                let h = self.addr_hash(isp, addr);
                let fiber_served = (h % 10_000) as f64 / 10_000.0 < FIBER_TAKE_RATE;
                if fiber_served {
                    catalog(isp)
                        .iter()
                        .filter(|p| p.tech == Tech::Fiber)
                        .copied()
                        .collect()
                } else {
                    self.dsl_ladder(isp, slot, bg)
                }
            }
            TechAtBlockGroup::Dsl => self.dsl_ladder(isp, slot, bg),
        };
        OfferedPlans { isp, plans }
    }

    /// The DSL plans available in a block group: the ladder up to the local
    /// line-quality ceiling, showing at most the top three tiers (ISPs
    /// advertise a short menu).
    fn dsl_ladder(&self, isp: Isp, slot: usize, bg: usize) -> Vec<Plan> {
        let dsl: Vec<Plan> = catalog(isp)
            .iter()
            .filter(|p| p.tech == Tech::Dsl)
            .copied()
            .collect();
        debug_assert!(!dsl.is_empty(), "DSL/fiber ISPs always have DSL tiers");
        let q = self.dsl_quality[slot][bg];
        let max_idx = ((q * dsl.len() as f64).floor() as usize).min(dsl.len() - 1);
        let lo = max_idx.saturating_sub(2);
        dsl[lo..=max_idx].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;

    fn nola() -> CityWorld {
        CityWorld::build(city_by_name("New Orleans").unwrap())
    }

    #[test]
    fn world_has_both_table_2_isps() {
        let w = nola();
        assert_eq!(w.isps(), vec![Isp::Att, Isp::Cox]);
        assert!(w.deployment(Isp::Att).is_some());
        assert!(w.cable_pricing(Isp::Cox).is_some());
        assert!(w.deployment(Isp::Verizon).is_none());
    }

    #[test]
    fn unserved_isp_offers_nothing() {
        let w = nola();
        let addr = &w.addresses().records()[0];
        assert!(w.plans_at(Isp::Verizon, addr).plans.is_empty());
    }

    #[test]
    fn cable_offers_are_identical_within_a_block_group() {
        let w = nola();
        let bg = 5;
        let ids = w.addresses().in_block_group(bg);
        assert!(ids.len() >= 2);
        let first = w.plans_at(Isp::Cox, &w.addresses().records()[ids[0]]);
        for &i in &ids[1..] {
            assert_eq!(w.plans_at(Isp::Cox, &w.addresses().records()[i]), first);
        }
    }

    #[test]
    fn fiber_block_groups_mix_fiber_and_dsl_addresses() {
        let w = nola();
        let dep = w.deployment(Isp::Att).unwrap();
        let fiber_bg = (0..w.grid().len())
            .find(|&bg| {
                dep.tech(bg) == TechAtBlockGroup::Fiber
                    && w.addresses().in_block_group(bg).len() >= 30
            })
            .expect("some populous fiber block group");
        let mut fiber_addrs = 0;
        let mut dsl_addrs = 0;
        for &i in w.addresses().in_block_group(fiber_bg) {
            let plans = w.plans_at(Isp::Att, &w.addresses().records()[i]).plans;
            assert!(!plans.is_empty());
            if plans.iter().any(|p| p.tech == Tech::Fiber) {
                fiber_addrs += 1;
            } else {
                dsl_addrs += 1;
            }
        }
        assert!(
            fiber_addrs > dsl_addrs,
            "fiber should dominate: {fiber_addrs} vs {dsl_addrs}"
        );
        assert!(dsl_addrs > 0, "some addresses fall back to DSL");
    }

    #[test]
    fn dsl_block_groups_offer_only_dsl() {
        let w = nola();
        let dep = w.deployment(Isp::Att).unwrap();
        let dsl_bg = (0..w.grid().len())
            .find(|&bg| {
                dep.tech(bg) == TechAtBlockGroup::Dsl
                    && !w.addresses().in_block_group(bg).is_empty()
            })
            .expect("some DSL block group");
        for &i in w.addresses().in_block_group(dsl_bg).iter().take(10) {
            let plans = w.plans_at(Isp::Att, &w.addresses().records()[i]).plans;
            assert!(!plans.is_empty());
            assert!(plans.iter().all(|p| p.tech == Tech::Dsl));
            assert!(plans.len() <= 3, "short advertised menu");
        }
    }

    #[test]
    fn plans_at_is_deterministic() {
        let a = nola();
        let b = nola();
        for i in [0usize, 100, 5000] {
            let ra = &a.addresses().records()[i];
            let rb = &b.addresses().records()[i];
            assert_eq!(a.plans_at(Isp::Att, ra), b.plans_at(Isp::Att, rb));
            assert_eq!(a.plans_at(Isp::Cox, ra), b.plans_at(Isp::Cox, rb));
        }
    }

    #[test]
    fn monopoly_city_builds_without_a_cable_rival() {
        let w = CityWorld::build(city_by_name("Seattle").unwrap());
        assert_eq!(w.isps(), vec![Isp::CenturyLink]);
        let addr = &w.addresses().records()[0];
        // CenturyLink serves or not, but never panics without cable pricing.
        let _ = w.plans_at(Isp::CenturyLink, addr);
    }
}
