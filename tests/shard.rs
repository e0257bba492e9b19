//! Differential-determinism suite for sharded campaigns (the PR 6
//! tentpole contract): the same seed and shard plan must produce
//! byte-identical campaign output — merged event stream, `events.jsonl`,
//! `health.prom`, `profile.folded`, and every per-shard
//! `OrchestratorReport` — for every thread count, because `threads` is
//! pure scheduling and the partition, clocks, RNG streams and `seq`
//! namespaces are all fixed by the plan.

use decoding_divide::bat::{register_fleet, templates};
use decoding_divide::bqt::MonitorPolicy;
use decoding_divide::bqt::{
    render_folded, render_prometheus, seq_counter, seq_shard, Campaign, Event, EventKind, Journal,
    JournalError, JsonlRecorder, Orchestrator, QueryJob, RetryPolicy, ShardEnv, ShardPlan,
    ShardSpec, ShardedOutcome,
};
use decoding_divide::census::city_by_name;
use decoding_divide::dataset::{curate_city_journaled, CurationOptions};
use decoding_divide::isp::{CityWorld, Isp};
use decoding_divide::net::{FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport};
use std::collections::BTreeMap;
use std::sync::Arc;

const N_JOBS: usize = 90;
const SEED: u64 = 0xD1F;

fn world() -> Arc<CityWorld> {
    Arc::new(CityWorld::build(city_by_name("Billings").unwrap()))
}

/// Jobs across both of Billings' ISPs, interleaved so `by_endpoint`
/// actually has to partition.
fn jobs(world: &Arc<CityWorld>) -> Vec<QueryJob> {
    let mut jobs = Vec::new();
    for r in world.addresses().records().iter().take(N_JOBS) {
        for isp in world.isps() {
            jobs.push(QueryJob {
                endpoint: isp.slug().to_string(),
                dialect: templates::dialect_of(isp),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            });
        }
    }
    jobs
}

fn make_env(
    world: &Arc<CityWorld>,
) -> impl Fn(&ShardSpec) -> Result<ShardEnv, JournalError> + Sync {
    let world = world.clone();
    move |_spec: &ShardSpec| {
        let mut transport = Transport::hermetic(SEED);
        transport.set_fault_plan(
            FaultPlan::new(SEED)
                .flaky_endpoint(
                    Isp::CenturyLink.slug(),
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_secs(1_000_000),
                    0.2,
                )
                .hermetic(),
        );
        register_fleet(&mut transport, &world);
        Ok(ShardEnv {
            transport,
            pool: IpPool::residential(64, RotationPolicy::RoundRobin, SEED),
            journal: Some(Journal::in_memory()),
        })
    }
}

fn campaign_template() -> Orchestrator {
    Orchestrator {
        n_workers: 8,
        politeness: SimDuration::from_secs(5),
        retry: Some(RetryPolicy::paper_default(SEED)),
        ..Orchestrator::paper_default(SEED)
    }
}

/// One sharded run at `threads`, returning the outcome plus the two
/// serialized artifacts (full JSONL log, prometheus + folded renders).
fn run_at(threads: usize) -> (ShardedOutcome, String, String, String) {
    let world = world();
    let plan = ShardPlan::by_endpoint(SEED, &jobs(&world));
    assert_eq!(plan.len(), 2, "Billings has two ISPs");
    let mut log = JsonlRecorder::new(Vec::new());
    let outcome = Campaign::from_orchestrator(campaign_template())
        .monitor(MonitorPolicy::paper_default())
        .threads(threads)
        .recorder(&mut log)
        .run_sharded(&plan, &make_env(&world))
        .unwrap();
    let jsonl = String::from_utf8(log.into_inner()).unwrap();
    let sections = outcome.health_sections();
    let prom = render_prometheus(&sections);
    let folded = render_folded(&sections);
    drop(sections);
    (outcome, jsonl, prom, folded)
}

#[test]
fn output_is_byte_identical_for_every_thread_count() {
    let (truth, jsonl1, prom1, folded1) = run_at(1);
    assert!(!truth.crashed());
    assert!(!jsonl1.is_empty() && !prom1.is_empty() && !folded1.is_empty());
    assert_eq!(truth.shards.len(), 2);
    assert!(
        truth.events.len() > 1000,
        "merged stream is substantial: {}",
        truth.events.len()
    );

    for threads in [2usize, 4, 8] {
        let (outcome, jsonl, prom, folded) = run_at(threads);
        assert_eq!(
            truth.events, outcome.events,
            "merged event stream differs at threads={threads}"
        );
        assert_eq!(jsonl1, jsonl, "events.jsonl differs at threads={threads}");
        assert_eq!(prom1, prom, "health.prom differs at threads={threads}");
        assert_eq!(
            folded1, folded,
            "profile.folded differs at threads={threads}"
        );
        for (a, b) in truth.shards.iter().zip(&outcome.shards) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.label, b.label);
            let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
            assert_eq!(
                ra.records, rb.records,
                "records differ at threads={threads}"
            );
            assert_eq!(ra.metrics, rb.metrics);
            assert_eq!(ra.makespan, rb.makespan);
            assert_eq!(ra.dead_letters, rb.dead_letters);
        }
    }
}

/// Satellite: telemetry `seq` is allocated per shard under the shard id —
/// a two-thread run can never interleave `seq` across shards, because a
/// shard's seqs all live in its own namespace and count up contiguously.
#[test]
fn seq_allocation_never_interleaves_across_shards() {
    let (outcome, _, _, _) = run_at(2);
    for run in &outcome.shards {
        assert!(!run.events.is_empty());
        for (k, se) in run.events.iter().enumerate() {
            assert_eq!(
                seq_shard(se.seq),
                run.id,
                "shard {} leaked a seq from namespace {}",
                run.id,
                seq_shard(se.seq)
            );
            assert_eq!(
                seq_counter(se.seq),
                k as u64,
                "shard {} seq counters must be contiguous emission order",
                run.id
            );
        }
    }
    // Disjoint namespaces: no seq value appears in two shards.
    let (s0, s1) = (&outcome.shards[0], &outcome.shards[1]);
    let max0 = s0.events.iter().map(|e| e.seq).max().unwrap();
    let min1 = s1.events.iter().map(|e| e.seq).min().unwrap();
    assert!(
        max0 < min1,
        "shard 0's namespace sits wholly below shard 1's"
    );
}

/// The endpoint an endpoint-bearing event names.
fn endpoint_of(kind: &EventKind) -> Option<&Arc<str>> {
    match kind {
        EventKind::JobBegin { endpoint, .. }
        | EventKind::AttemptBegin { endpoint, .. }
        | EventKind::AttemptEnd { endpoint, .. }
        | EventKind::BreakerTrip { endpoint }
        | EventKind::BreakerDefer { endpoint, .. }
        | EventKind::DriftSuspected { endpoint, .. }
        | EventKind::RebootstrapStarted { endpoint }
        | EventKind::TemplateSwapped { endpoint, .. }
        | EventKind::RebootstrapCompleted { endpoint, .. }
        | EventKind::ServeLookupEnd { endpoint, .. }
        | EventKind::ServeShed { endpoint, .. }
        | EventKind::FaultInjected { endpoint, .. } => Some(endpoint),
        _ => None,
    }
}

/// Checks that every endpoint-bearing event of `events` shares the
/// allocation `interned` holds for its endpoint (the first one seen), and
/// counts the events by kind.
fn shares_interned<'e>(
    interned: &mut BTreeMap<String, Arc<str>>,
    events: impl Iterator<Item = &'e Event>,
) -> BTreeMap<&'static str, u32> {
    let mut kinds = BTreeMap::new();
    for event in events {
        let Some(endpoint) = endpoint_of(&event.kind) else {
            continue;
        };
        let first = interned
            .entry(endpoint.to_string())
            .or_insert_with(|| endpoint.clone());
        assert!(
            Arc::ptr_eq(first, endpoint),
            "{} event copied endpoint {endpoint:?}",
            event.kind.name()
        );
        *kinds.entry(event.kind.name()).or_insert(0) += 1;
    }
    kinds
}

/// Endpoints are interned once per run: every event naming an endpoint,
/// in a shard's own stream and in the merged stream, shares that
/// endpoint's one allocation, so no event copy allocates a string. Each
/// shard's `order` walks its stream in `(at, seq)` order.
#[test]
fn endpoint_events_share_one_allocation_per_endpoint() {
    let (outcome, _, _, _) = run_at(2);
    let mut interned = BTreeMap::new();
    for run in &outcome.shards {
        let kinds = shares_interned(&mut interned, run.events.iter().map(|se| &se.event));
        // Orchestrator-emitted kinds, and the driver's on the flaky
        // endpoint.
        for kind in ["job_begin", "attempt_begin", "attempt_end"] {
            assert!(
                kinds.contains_key(kind),
                "shard {} has no {kind}",
                run.label
            );
        }
        if run.label == Isp::CenturyLink.slug() {
            assert!(kinds.contains_key("fault_injected"));
        }
        let mut keys: Vec<(u64, u64)> = run
            .order
            .iter()
            .map(|&i| run.events[i as usize].key())
            .collect();
        assert_eq!(keys.len(), run.events.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "not (at, seq) order");
        keys.dedup();
        assert_eq!(keys.len(), run.events.len(), "not a permutation");
    }
    assert_eq!(interned.len(), 2, "one allocation per endpoint");
    shares_interned(&mut interned, outcome.events.iter());
    assert_eq!(interned.len(), 2);
}

/// The journal-backed pipeline end to end: curating a city at `threads=1`
/// and `threads=4` writes byte-identical artifacts and equal datasets.
#[test]
fn journaled_curation_artifacts_are_thread_count_invariant() {
    let base = std::env::temp_dir().join(format!("bqt-shard-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let city = city_by_name("Billings").unwrap();
    let mut opts = CurationOptions::quick(3);
    opts.max_samples_per_bg = Some(2);
    opts.min_samples = 2;

    let run = |threads: usize| {
        let dir = base.join(format!("t{threads}"));
        let mut opts = opts;
        opts.threads = threads;
        let (ds, resume) = curate_city_journaled(city, &opts, None, &dir).unwrap();
        let events = std::fs::read(dir.join("events.jsonl")).unwrap();
        let prom = std::fs::read(dir.join("health.prom")).unwrap();
        let folded = std::fs::read(dir.join("profile.folded")).unwrap();
        (ds, resume, events, prom, folded)
    };

    let (ds1, r1, ev1, prom1, fold1) = run(1);
    assert!(r1.live_attempts > 0 && r1.replayed_attempts == 0);
    assert!(!ev1.is_empty() && !prom1.is_empty() && !fold1.is_empty());

    let (ds4, r4, ev4, prom4, fold4) = run(4);
    assert_eq!(r1, r4);
    assert_eq!(ds1.records, ds4.records);
    assert_eq!(ds1.per_isp_metrics, ds4.per_isp_metrics);
    assert_eq!(ds1.per_isp_pause, ds4.per_isp_pause);
    assert_eq!(ev1, ev4, "events.jsonl differs across thread counts");
    assert_eq!(prom1, prom4, "health.prom differs across thread counts");
    assert_eq!(fold1, fold4, "profile.folded differs across thread counts");

    std::fs::remove_dir_all(&base).unwrap();
}

/// Scheduling stress: a round-robin plan with more shards than threads
/// keeps the same contract — shard count, not thread count, fixes output.
#[test]
fn round_robin_plans_are_thread_count_invariant_too() {
    let world = world();
    let single_isp_jobs: Vec<QueryJob> = jobs(&world)
        .into_iter()
        .filter(|j| j.endpoint == Isp::Spectrum.slug())
        .collect();
    let plan = ShardPlan::round_robin(SEED, &single_isp_jobs, 6);
    assert_eq!(plan.len(), 6);

    let run = |threads: usize| {
        Campaign::from_orchestrator(campaign_template())
            .threads(threads)
            .run_sharded(&plan, &make_env(&world))
            .unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.events, b.events);
    assert_eq!(
        a.shards.len(),
        b.shards.len(),
        "partition is plan-fixed, not thread-fixed"
    );
    for (x, y) in a.shards.iter().zip(&b.shards) {
        let (rx, ry) = (x.report.as_ref().unwrap(), y.report.as_ref().unwrap());
        assert_eq!(rx.records, ry.records);
        assert_eq!(rx.metrics, ry.metrics);
    }
}
