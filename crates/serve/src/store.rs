//! The sharded in-memory plan store: per-`(city, ISP)` indices built
//! from curated per-city dataset artifacts.
//!
//! Each shard owns three read paths — address tag → offered plans,
//! block group → carriage-value percentiles, and (on the city's primary
//! shard) the city-wide competition/diversity tile summary. Index
//! structures are `BTreeMap`s keyed on integers so iteration order, and
//! therefore every derived artifact, is deterministic (divide-lint T1).

use crate::api::{ServeAnswer, ServeQuery};
use bbsim_dataset::artifact::CityArtifact;
use bbsim_isp::Isp;
use bqt::ScrapedPlan;
use std::collections::BTreeMap;

/// Carriage-value percentile summary over one block group's serviced
/// addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvSummary {
    /// Serviced addresses the percentiles are computed over.
    pub n: u64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p95: f64,
}

/// City-wide competition summary served by tile queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityTiles {
    /// Block groups with at least one curated address.
    pub block_groups: u64,
    /// Block groups where at least one ISP offers service.
    pub served: u64,
    /// Mean number of distinct serving ISPs per covered block group.
    pub avg_providers: f64,
    /// 1 − Herfindahl index over the ISPs' serviced-address shares:
    /// 0 = monopoly, approaching 1 = evenly split market.
    pub diversity: f64,
}

/// Linear-interpolated quantile over an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// One `(city, ISP)` slice of the store.
#[derive(Debug, Clone)]
pub struct ShardIndex {
    pub city: String,
    pub isp: Isp,
    /// Address tag → plans scraped there (empty = authoritative
    /// no-service).
    plans_by_tag: BTreeMap<u64, Vec<ScrapedPlan>>,
    /// Block-group index → carriage-value percentile summary.
    bg_percentiles: BTreeMap<u64, CvSummary>,
    /// City-wide tiles; populated on the city's primary (first) shard
    /// only, since tiles aggregate across every ISP of the city.
    tiles: Option<CityTiles>,
}

impl ShardIndex {
    /// The shard's endpoint name on the transport.
    pub fn endpoint(&self) -> String {
        format!("serve/{}/{}", self.city.to_lowercase(), self.isp.slug())
    }

    pub fn lookup_plans(&self, tag: u64) -> Option<&[ScrapedPlan]> {
        self.plans_by_tag.get(&tag).map(Vec::as_slice)
    }

    pub fn bg_summary(&self, bg: u64) -> Option<&CvSummary> {
        self.bg_percentiles.get(&bg)
    }

    pub fn tiles(&self) -> Option<&CityTiles> {
        self.tiles.as_ref()
    }

    /// Address tags indexed by this shard, ascending.
    pub fn tags(&self) -> impl Iterator<Item = u64> + '_ {
        self.plans_by_tag.keys().copied()
    }

    /// Block-group indices with a percentile summary, ascending.
    pub fn block_groups(&self) -> impl Iterator<Item = u64> + '_ {
        self.bg_percentiles.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.plans_by_tag.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans_by_tag.is_empty()
    }
}

/// The full store: every shard, ordered by `(city, ISP column)` so shard
/// ids are a deterministic function of the artifact set.
#[derive(Debug, Clone, Default)]
pub struct PlanStore {
    shards: Vec<ShardIndex>,
}

impl PlanStore {
    /// Builds the store from curated per-city artifacts. Each city
    /// contributes one shard per ISP present in its records; the city's
    /// first shard additionally carries the cross-ISP tile summary.
    pub fn load(artifacts: &[CityArtifact]) -> PlanStore {
        let mut shards: Vec<ShardIndex> = Vec::new();
        let mut cities: Vec<&CityArtifact> = artifacts.iter().collect();
        cities.sort_by_key(|a| a.city.clone());
        for artifact in cities {
            let mut by_isp: BTreeMap<Isp, Vec<&bbsim_dataset::PlanRecord>> = BTreeMap::new();
            for record in &artifact.records {
                by_isp.entry(record.isp).or_default().push(record);
            }
            let tiles = Self::build_tiles(&by_isp);
            let mut first = true;
            for (isp, records) in by_isp {
                let mut plans_by_tag = BTreeMap::new();
                let mut cv_by_bg: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for r in records {
                    plans_by_tag.insert(r.address_tag, r.plans.clone());
                    if let Some(cv) = r.best_cv() {
                        cv_by_bg.entry(r.bg_index as u64).or_default().push(cv);
                    }
                }
                let bg_percentiles = cv_by_bg
                    .into_iter()
                    .map(|(bg, mut cvs)| {
                        cvs.sort_by(f64::total_cmp);
                        let summary = CvSummary {
                            n: cvs.len() as u64,
                            p25: quantile(&cvs, 0.25),
                            p50: quantile(&cvs, 0.50),
                            p75: quantile(&cvs, 0.75),
                            p95: quantile(&cvs, 0.95),
                        };
                        (bg, summary)
                    })
                    .collect();
                shards.push(ShardIndex {
                    city: artifact.city.clone(),
                    isp,
                    plans_by_tag,
                    bg_percentiles,
                    tiles: first.then_some(tiles),
                });
                first = false;
            }
        }
        PlanStore { shards }
    }

    fn build_tiles(by_isp: &BTreeMap<Isp, Vec<&bbsim_dataset::PlanRecord>>) -> CityTiles {
        // Coverage per block group: which ISPs serve at least one
        // address there, and each ISP's citywide serviced-address count
        // (the market-share base for the diversity index).
        let mut providers_by_bg: BTreeMap<u64, Vec<Isp>> = BTreeMap::new();
        let mut served_by_isp: BTreeMap<Isp, u64> = BTreeMap::new();
        for (isp, records) in by_isp {
            for r in records {
                let entry = providers_by_bg.entry(r.bg_index as u64).or_default();
                if !r.plans.is_empty() {
                    if !entry.contains(isp) {
                        entry.push(*isp);
                    }
                    *served_by_isp.entry(*isp).or_default() += 1;
                }
            }
        }
        let block_groups = providers_by_bg.len() as u64;
        let served = providers_by_bg.values().filter(|v| !v.is_empty()).count() as u64;
        let avg_providers = if block_groups == 0 {
            0.0
        } else {
            providers_by_bg.values().map(Vec::len).sum::<usize>() as f64 / block_groups as f64
        };
        let total: u64 = served_by_isp.values().sum();
        let diversity = if total == 0 {
            0.0
        } else {
            let herfindahl: f64 = served_by_isp
                .values()
                .map(|&n| {
                    let share = n as f64 / total as f64;
                    share * share
                })
                .sum();
            1.0 - herfindahl
        };
        CityTiles {
            block_groups,
            served,
            avg_providers,
            diversity,
        }
    }

    pub fn shards(&self) -> &[ShardIndex] {
        &self.shards
    }

    pub fn shard(&self, id: u32) -> Option<&ShardIndex> {
        self.shards.get(id as usize)
    }

    /// Shard id serving `(city, isp)`, if loaded.
    pub fn shard_for(&self, city: &str, isp: Isp) -> Option<u32> {
        self.shards
            .iter()
            .position(|s| s.city == city && s.isp == isp)
            .map(|i| i as u32)
    }

    /// Answers one query against the indices (no cache involved).
    pub fn answer(&self, query: &ServeQuery) -> ServeAnswer {
        match query {
            ServeQuery::Plans { city, isp, tag } => {
                match self
                    .shard_for(city, *isp)
                    .and_then(|id| self.shard(id))
                    .and_then(|s| s.lookup_plans(*tag))
                {
                    Some([]) => ServeAnswer::NoService,
                    Some(plans) => ServeAnswer::Plans {
                        plans: plans.to_vec(),
                    },
                    None => ServeAnswer::NotFound,
                }
            }
            ServeQuery::BlockGroup { city, isp, bg } => {
                match self
                    .shard_for(city, *isp)
                    .and_then(|id| self.shard(id))
                    .and_then(|s| s.bg_summary(*bg))
                {
                    Some(s) => ServeAnswer::Percentiles {
                        n: s.n,
                        p25: s.p25,
                        p50: s.p50,
                        p75: s.p75,
                        p95: s.p95,
                    },
                    None => ServeAnswer::NotFound,
                }
            }
            ServeQuery::Tiles { city } => {
                match self
                    .shards
                    .iter()
                    .find_map(|s| (s.city == *city).then(|| s.tiles()).flatten())
                {
                    Some(t) => ServeAnswer::Tiles {
                        block_groups: t.block_groups,
                        served: t.served,
                        avg_providers: t.avg_providers,
                        diversity: t.diversity,
                    },
                    None => ServeAnswer::NotFound,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_dataset::PlanRecord;
    use bbsim_geo::BlockGroupId;

    fn record(isp: Isp, tag: u64, bg: usize, plans: Vec<ScrapedPlan>) -> PlanRecord {
        PlanRecord {
            city: "Testville".into(),
            isp,
            address_tag: tag,
            block_group: BlockGroupId::new(30, 111, 1, bg as u8),
            bg_index: bg,
            plans,
        }
    }

    fn plan(down: f64, price: f64) -> ScrapedPlan {
        ScrapedPlan {
            download_mbps: down,
            upload_mbps: down / 10.0,
            price_usd: price,
        }
    }

    fn store() -> PlanStore {
        PlanStore::load(&[CityArtifact {
            city: "Testville".into(),
            records: vec![
                record(Isp::CenturyLink, 1, 0, vec![plan(100.0, 50.0)]),
                record(Isp::CenturyLink, 2, 0, vec![plan(200.0, 50.0)]),
                record(Isp::CenturyLink, 3, 1, vec![]),
                record(Isp::Spectrum, 9, 0, vec![plan(400.0, 80.0)]),
            ],
        }])
    }

    #[test]
    fn shards_split_by_isp_and_index_tags() {
        let store = store();
        assert_eq!(store.shards().len(), 2);
        let cl = store.shard_for("Testville", Isp::CenturyLink).unwrap();
        let shard = store.shard(cl).unwrap();
        assert_eq!(shard.len(), 3);
        assert_eq!(shard.lookup_plans(2).unwrap().len(), 1);
        assert_eq!(shard.lookup_plans(3).unwrap().len(), 0, "no-service tag");
        assert!(shard.lookup_plans(99).is_none());
    }

    #[test]
    fn percentiles_cover_only_serviced_addresses() {
        let store = store();
        match store.answer(&ServeQuery::BlockGroup {
            city: "Testville".into(),
            isp: Isp::CenturyLink,
            bg: 0,
        }) {
            ServeAnswer::Percentiles { n, p25, p95, .. } => {
                assert_eq!(n, 2);
                assert!(p25 >= 2.0 && p95 <= 4.0, "cv range [2, 4]: {p25} {p95}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Block group 1 holds only a no-service address: no summary.
        assert_eq!(
            store.answer(&ServeQuery::BlockGroup {
                city: "Testville".into(),
                isp: Isp::CenturyLink,
                bg: 1,
            }),
            ServeAnswer::NotFound
        );
    }

    #[test]
    fn tiles_live_on_the_primary_shard_and_summarize_competition() {
        let store = store();
        match store.answer(&ServeQuery::Tiles {
            city: "Testville".into(),
        }) {
            ServeAnswer::Tiles {
                block_groups,
                served,
                avg_providers,
                diversity,
            } => {
                assert_eq!(block_groups, 2);
                assert_eq!(served, 1);
                assert!((avg_providers - 1.0).abs() < 1e-9);
                // Shares 2/3 and 1/3: 1 − (4/9 + 1/9) = 4/9.
                assert!((diversity - 4.0 / 9.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Only the primary (first) shard carries tiles.
        assert!(store.shard(0).unwrap().tiles().is_some());
        assert!(store.shard(1).unwrap().tiles().is_none());
    }
}
