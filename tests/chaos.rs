//! Chaos suite: the scraping campaign under injected faults.
//!
//! Each scenario runs the same seeded job list three ways — clean, faulted
//! with retries, faulted without — and asserts the robustness subsystem's
//! contract: with retries the hit rate recovers to within a few points of
//! the fault-free baseline, without them it visibly degrades, and every
//! address still produces exactly one record either way.

use decoding_divide::bat::{templates, BatServer};
use decoding_divide::bqt::{Campaign, Orchestrator, OrchestratorReport, QueryJob};
use decoding_divide::census::city_by_name;
use decoding_divide::isp::{CityWorld, Isp};
use decoding_divide::net::{FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport};
use std::sync::Arc;

const ENDPOINT: &str = "centurylink/billings";

fn setup(transport_seed: u64) -> (Transport, Vec<QueryJob>) {
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let mut t = Transport::new(transport_seed);
    let server = BatServer::new(Isp::CenturyLink, world.clone());
    t.register(ENDPOINT, server.endpoint());
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(150)
        .map(|r| QueryJob::listing(ENDPOINT, templates::dialect_of(Isp::CenturyLink), r))
        .collect();
    (t, jobs)
}

/// CI sweeps this suite under several seeds by exporting `CHAOS_SEED`;
/// unset (the common local case) the baked-in scenario seeds run as-is.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Runs the standard job list with an optional fault plan, with or without
/// the default retry policy, under one orchestrator seed.
fn run(plan: Option<FaultPlan>, retries: bool, seed: u64) -> OrchestratorReport {
    let seed = seed ^ chaos_seed().rotate_left(24);
    let (mut t, jobs) = setup(11);
    if let Some(plan) = plan {
        t.set_fault_plan(plan);
    }
    let orch = Orchestrator {
        n_workers: 16,
        retry: retries.then(|| decoding_divide::bqt::RetryPolicy::paper_default(seed)),
        ..Orchestrator::paper_default(seed)
    };
    let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, seed);
    let report = Campaign::from_orchestrator(orch).run(&mut t, &jobs, &mut pool);

    // Exactly-once is unconditional: retries must never duplicate or drop
    // an address.
    assert_eq!(report.records.len(), jobs.len());
    let mut tags: Vec<u64> = report.records.iter().map(|r| r.tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), jobs.len(), "duplicate or missing tags");

    report
}

fn t_secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A very long horizon: faults active for the whole run.
const HORIZON: u64 = 1_000_000;

#[test]
fn flaky_endpoint_recovers_with_retries_not_without() {
    let seed = 21;
    let baseline = run(None, false, seed);
    let base_rate = baseline.metrics.hit_rate();
    assert!(base_rate > 0.85, "clean baseline {base_rate}");

    // 60% of requests to the endpoint have their connection reset — well
    // past the in-step retry budget's ability to hide them.
    let plan = || FaultPlan::new(77).flaky_endpoint(ENDPOINT, SimTime::ZERO, t_secs(HORIZON), 0.6);

    let with_retries = run(Some(plan()), true, seed);
    let without = run(Some(plan()), false, seed);

    let recovered = with_retries.metrics.hit_rate();
    let degraded = without.metrics.hit_rate();
    assert!(
        recovered >= base_rate - 0.05,
        "retries should recover: baseline {base_rate}, got {recovered}"
    );
    assert!(
        degraded < base_rate - 0.05,
        "no-retry run should degrade: baseline {base_rate}, got {degraded}"
    );
    assert!(with_retries.metrics.retries > 0, "retries were exercised");
    assert_eq!(without.metrics.retries, 0);
    assert_eq!(without.metrics.dead_lettered, 0);
    assert!(without.dead_letters.is_empty());
}

#[test]
fn brownout_mid_run_is_absorbed_by_requeueing() {
    let seed = 22;
    let baseline = run(None, false, seed);
    let base_rate = baseline.metrics.hit_rate();

    // The server browns out between minute 1 and minute 6: everything runs
    // twice as slow and 70% of renders die as 500s. The run outlives the
    // window, so requeued jobs land on a healthy server.
    let plan = || FaultPlan::new(5).brownout(ENDPOINT, t_secs(60), t_secs(360), 2.0, 0.7);

    let with_retries = run(Some(plan()), true, seed);
    let without = run(Some(plan()), false, seed);

    let recovered = with_retries.metrics.hit_rate();
    let degraded = without.metrics.hit_rate();
    assert!(
        recovered >= base_rate - 0.05,
        "retries should ride out the brownout: baseline {base_rate}, got {recovered}"
    );
    assert!(
        degraded < base_rate - 0.05,
        "one-shot run should lose the brownout window: baseline {base_rate}, got {degraded}"
    );
}

#[test]
fn rate_limit_storm_defers_jobs_and_recovers() {
    let seed = 23;
    let baseline = run(None, false, seed);
    let base_rate = baseline.metrics.hit_rate();

    // An anti-bot storm rate-limits every request for four minutes.
    let plan = || FaultPlan::new(9).rate_limit_storm(ENDPOINT, t_secs(60), t_secs(300));

    let with_retries = run(Some(plan()), true, seed);
    let without = run(Some(plan()), false, seed);

    let recovered = with_retries.metrics.hit_rate();
    let degraded = without.metrics.hit_rate();
    assert!(
        recovered >= base_rate - 0.05,
        "retries + breaker should outwait the storm: baseline {base_rate}, got {recovered}"
    );
    assert!(
        degraded < base_rate - 0.05,
        "one-shot run should eat the Blocked outcomes: baseline {base_rate}, got {degraded}"
    );
    // The storm produces consecutive Blocked failures, so the breaker must
    // have opened at least once and the deferred jobs kept their attempts.
    assert!(
        with_retries.metrics.breaker_trips >= 1,
        "breaker never tripped: {:?}",
        with_retries.metrics
    );
}

#[test]
fn chaos_runs_are_deterministic_in_seed() {
    let plan = || FaultPlan::new(3).flaky_endpoint(ENDPOINT, SimTime::ZERO, t_secs(HORIZON), 0.5);
    let a = run(Some(plan()), true, 31);
    let b = run(Some(plan()), true, 31);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.records, b.records);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.dead_letters, b.dead_letters);

    let c = run(Some(plan()), true, 32);
    assert!(
        a.records != c.records || a.makespan != c.makespan,
        "different seeds should differ somewhere"
    );
}

#[test]
fn hopeless_endpoint_dead_letters_with_bounded_attempts() {
    // 100% of requests time out, forever: every job must exhaust its
    // budget, dead-letter exactly once, and never spin beyond max_attempts.
    let seed = 33;
    let plan = FaultPlan::new(13).lossy_network(SimTime::ZERO, t_secs(HORIZON), 1.0);
    let report = run(Some(plan), true, seed);

    let policy = decoding_divide::bqt::RetryPolicy::paper_default(seed);
    assert_eq!(report.metrics.hit_rate(), 0.0);
    assert_eq!(report.dead_letters.len(), report.records.len());
    assert_eq!(report.metrics.dead_lettered, report.records.len() as u64);
    for dl in &report.dead_letters {
        assert_eq!(dl.attempts, policy.max_attempts);
        assert!(
            decoding_divide::bqt::is_retryable(&dl.last_outcome),
            "dead letters hold retryable outcomes, got {:?}",
            dl.last_outcome
        );
    }
    // Total scheduled retries = (max_attempts - 1) per job.
    assert_eq!(
        report.metrics.retries,
        (policy.max_attempts as u64 - 1) * report.records.len() as u64
    );
    assert!(report.metrics.breaker_trips >= 1);
}
