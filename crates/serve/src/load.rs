//! The seeded load generator: a deterministic per-shard arrival
//! schedule simulating millions of lookup users on the virtual clock.
//!
//! Three phase kinds compose a campaign: `Steady` draws address tags
//! from a zipfian popularity law (a small hot set the answer cache
//! absorbs), `Burst` keeps the same mix at half the inter-arrival gap
//! (double the request rate — pressure the cache keeps survivable,
//! without breaching the latency SLO), and `Scan`
//! walks every block group and address tag of the shard in sequence —
//! distinct keys far past the cache capacity, the cache-hostile sweep
//! that collapses the hit rate and drags p99 through the SLO ceiling.
//!
//! Each shard's schedule is generated from its own `StdRng` seeded by
//! `mix64(seed, [shard])`, so the schedule is a pure function of
//! `(store, shard, phases, seed)` — independent of thread count and of
//! every other shard.

use crate::api::{ServeQuery, ServeRequest};
use crate::store::ShardIndex;
use bbsim_net::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The traffic shape of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Zipfian tag popularity at the nominal gap.
    Steady,
    /// Same mix, half gap: arrival pressure.
    Burst,
    /// Sequential sweep over every key: cache pressure.
    Scan,
}

/// One phase of the load campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadPhase {
    pub kind: PhaseKind,
    /// Phase length on the virtual clock, in ms.
    pub duration_ms: u64,
    /// Nominal mean inter-arrival gap per shard, in ms (`Burst` halves
    /// it; the actual gap jitters uniformly in `[gap/2, 3·gap/2]`).
    pub mean_gap_ms: u64,
}

impl LoadPhase {
    pub fn steady(duration_ms: u64, mean_gap_ms: u64) -> Self {
        Self {
            kind: PhaseKind::Steady,
            duration_ms,
            mean_gap_ms,
        }
    }

    pub fn burst(duration_ms: u64, mean_gap_ms: u64) -> Self {
        Self {
            kind: PhaseKind::Burst,
            duration_ms,
            mean_gap_ms,
        }
    }

    pub fn scan(duration_ms: u64, mean_gap_ms: u64) -> Self {
        Self {
            kind: PhaseKind::Scan,
            duration_ms,
            mean_gap_ms,
        }
    }
}

/// One scheduled arrival: the request enters the shard's queue at
/// `at_ms` on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub at_ms: u64,
    pub request: ServeRequest,
}

/// Zipfian sampler over ranks `0..n` (weight of rank r is `1/(r+1)`),
/// via inverse-CDF binary search on the precomputed cumulative weights.
struct Zipf {
    cumulative: Vec<f64>,
    /// The last cumulative weight: the sum over all ranks.
    total: f64,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for r in 0..n.max(1) {
            total += 1.0 / (r as f64 + 1.0);
            cumulative.push(total);
        }
        Self { cumulative, total }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>() * self.total;
        self.cumulative.partition_point(|&c| c < u)
    }
}

/// The per-shard query mix generator.
struct QueryMix {
    city: String,
    isp: bbsim_isp::Isp,
    tags: Vec<u64>,
    block_groups: Vec<u64>,
    zipf: Zipf,
    /// Sequential cursor over `bgs + tags` for scan phases; persists
    /// across scan phases so repeated scans keep sweeping fresh keys.
    scan_cursor: usize,
}

impl QueryMix {
    fn new(shard: &ShardIndex) -> Self {
        let tags: Vec<u64> = shard.tags().collect();
        let block_groups: Vec<u64> = shard.block_groups().collect();
        let zipf = Zipf::new(tags.len());
        Self {
            city: shard.city.clone(),
            isp: shard.isp,
            tags,
            block_groups,
            zipf,
            scan_cursor: 0,
        }
    }

    /// A zipfian-popular query: mostly hot-tag plan lookups, a sprinkle
    /// of block-group percentile reads and (1 in 64) city tile pulls.
    fn popular(&self, rng: &mut StdRng) -> ServeQuery {
        if rng.gen_range(0u32..64) == 0 {
            return ServeQuery::Tiles {
                city: self.city.clone(),
            };
        }
        if !self.block_groups.is_empty() && rng.gen_range(0u32..8) == 0 {
            let i = self.zipf.sample(rng).min(self.block_groups.len() - 1);
            return ServeQuery::BlockGroup {
                city: self.city.clone(),
                isp: self.isp,
                bg: self.block_groups[i],
            };
        }
        let i = self.zipf.sample(rng).min(self.tags.len().saturating_sub(1));
        ServeQuery::Plans {
            city: self.city.clone(),
            isp: self.isp,
            tag: self.tags.get(i).copied().unwrap_or(0),
        }
    }

    /// The next key of the sequential sweep: block groups first, then
    /// every address tag, then wrap.
    fn scan(&mut self) -> ServeQuery {
        let total = self.block_groups.len() + self.tags.len();
        let i = self.scan_cursor % total.max(1);
        self.scan_cursor = self.scan_cursor.wrapping_add(1);
        if i < self.block_groups.len() {
            ServeQuery::BlockGroup {
                city: self.city.clone(),
                isp: self.isp,
                bg: self.block_groups[i],
            }
        } else {
            ServeQuery::Plans {
                city: self.city.clone(),
                isp: self.isp,
                tag: self
                    .tags
                    .get(i - self.block_groups.len())
                    .copied()
                    .unwrap_or(0),
            }
        }
    }

    fn next_query(&mut self, kind: PhaseKind, rng: &mut StdRng) -> ServeQuery {
        match kind {
            PhaseKind::Steady | PhaseKind::Burst => self.popular(rng),
            PhaseKind::Scan => self.scan(),
        }
    }
}

/// Generates one shard's full arrival schedule. Every 32nd arrival is a
/// batch of 4 queries (the batch-lookup path under load); the rest are
/// singles.
pub fn generate_schedule(
    shard_id: u32,
    shard: &ShardIndex,
    phases: &[LoadPhase],
    seed: u64,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(mix64(seed, &[u64::from(shard_id)]));
    let mut mix = QueryMix::new(shard);
    let mut arrivals = Vec::new();
    let mut now = 0u64;
    let mut phase_start = 0u64;
    let mut count = 0u64;
    for phase in phases {
        let gap = match phase.kind {
            PhaseKind::Steady | PhaseKind::Scan => phase.mean_gap_ms.max(1),
            PhaseKind::Burst => (phase.mean_gap_ms / 2).max(1),
        };
        let phase_end = phase_start + phase.duration_ms;
        now = now.max(phase_start);
        while now < phase_end {
            count += 1;
            let request = if count.is_multiple_of(32) {
                ServeRequest::Batch(
                    (0..4)
                        .map(|_| mix.next_query(phase.kind, &mut rng))
                        .collect(),
                )
            } else {
                ServeRequest::Single(mix.next_query(phase.kind, &mut rng))
            };
            arrivals.push(Arrival {
                at_ms: now,
                request,
            });
            // Uniform jitter in [gap/2, 3·gap/2] keeps the mean at the
            // nominal gap without synchronizing arrivals across shards.
            now += rng.gen_range(gap.div_ceil(2)..=gap + gap / 2);
        }
        phase_start = phase_end;
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PlanStore;
    use bbsim_dataset::artifact::CityArtifact;
    use bbsim_dataset::PlanRecord;
    use bbsim_geo::BlockGroupId;
    use bbsim_isp::Isp;
    use bqt::ScrapedPlan;

    fn shard() -> PlanStore {
        let records = (0..40u64)
            .map(|tag| PlanRecord {
                city: "Testville".into(),
                isp: Isp::CenturyLink,
                address_tag: tag * 7 + 1,
                block_group: BlockGroupId::new(30, 111, 1, (tag % 8) as u8),
                bg_index: (tag % 8) as usize,
                plans: vec![ScrapedPlan {
                    download_mbps: 100.0,
                    upload_mbps: 10.0,
                    price_usd: 50.0,
                }],
            })
            .collect();
        PlanStore::load(&[CityArtifact {
            city: "Testville".into(),
            records,
        }])
    }

    #[test]
    fn schedules_are_seed_deterministic_and_phase_bounded() {
        let store = shard();
        let phases = [
            LoadPhase::steady(1_000, 10),
            LoadPhase::burst(200, 10),
            LoadPhase::scan(500, 5),
        ];
        let a = generate_schedule(0, &store.shards()[0], &phases, 42);
        let b = generate_schedule(0, &store.shards()[0], &phases, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        assert!(a.last().unwrap().at_ms < 1_700);
        let c = generate_schedule(0, &store.shards()[0], &phases, 43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn burst_halves_the_gap_and_batches_appear() {
        let store = shard();
        let steady = generate_schedule(0, &store.shards()[0], &[LoadPhase::steady(2_000, 20)], 7);
        let burst = generate_schedule(0, &store.shards()[0], &[LoadPhase::burst(2_000, 20)], 7);
        assert!(
            burst.len() > steady.len() * 3 / 2,
            "{} vs {}",
            burst.len(),
            steady.len()
        );
        assert!(steady
            .iter()
            .any(|a| matches!(a.request, ServeRequest::Batch(_))));
    }

    #[test]
    fn scan_sweeps_distinct_keys_past_any_small_cache() {
        let store = shard();
        let scan = generate_schedule(0, &store.shards()[0], &[LoadPhase::scan(130, 3)], 7);
        let mut keys: Vec<String> = scan
            .iter()
            .flat_map(|a| a.request.queries())
            .map(|q| {
                let mut key = String::new();
                q.push_cache_key(&mut key);
                key
            })
            .collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert!(keys.len() * 2 > total, "sweep mostly distinct keys");
    }
}
