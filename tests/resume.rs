//! Resume suite: crash-recoverable campaigns end to end.
//!
//! Each scenario runs a journaled campaign against a hermetic transport,
//! kills it at an arbitrary virtual time, and resumes from the journal
//! alone — asserting the tentpole contract: the resumed report is
//! byte-identical to an uninterrupted run's, journaled attempts are never
//! scraped twice, hung workers are reclaimed by the watchdog, and the
//! adaptive shed controller strictly reduces dead letters under a storm.

use decoding_divide::bat::{templates, BatServer};
use decoding_divide::bqt::{
    BqtConfig, Campaign, Journal, JournalError, JsonlRecorder, Orchestrator, OrchestratorReport,
    QueryJob, QueryOutcome, RetryPolicy, ShardEnv, ShardPlan, ShardSpec, ShedPolicy,
};
use decoding_divide::census::city_by_name;
use decoding_divide::isp::{CityWorld, Isp};
use decoding_divide::net::{
    Endpoint, Exchange, FaultPlan, IpPool, Request, RotationPolicy, Service, SimDuration, SimIp,
    SimTime, Transport,
};
use rand::rngs::StdRng;
use std::sync::Arc;

const ENDPOINT: &str = "centurylink/billings";
const N_JOBS: usize = 120;

fn setup() -> (Transport, Vec<QueryJob>) {
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    // Hermetic transport: per-request draws depend only on (seed,
    // endpoint, source IP, virtual time), never on call order — the
    // property that makes replayed attempts indistinguishable from
    // re-executed ones.
    let mut t = Transport::hermetic(11);
    let server = BatServer::new(Isp::CenturyLink, world.clone());
    t.register(ENDPOINT, server.endpoint());
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(N_JOBS)
        .map(|r| QueryJob {
            endpoint: ENDPOINT.to_string(),
            dialect: templates::dialect_of(Isp::CenturyLink),
            input_line: r.listing_line.clone(),
            tag: r.id as u64,
        })
        .collect();
    (t, jobs)
}

fn config() -> BqtConfig {
    BqtConfig::paper_default(SimDuration::from_secs(45))
}

/// CI sweeps this suite under several seeds by exporting `CHAOS_SEED`;
/// unset (the common local case) the baked-in scenario seeds run as-is.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn orch(seed: u64) -> Orchestrator {
    Orchestrator {
        n_workers: 8,
        politeness: SimDuration::from_secs(5),
        retry: Some(RetryPolicy::paper_default(seed)),
        ..Orchestrator::paper_default(seed)
    }
}

fn pool(seed: u64) -> IpPool {
    IpPool::residential(64, RotationPolicy::RoundRobin, seed)
}

fn t_secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

const HORIZON: u64 = 1_000_000;

/// A hermetic fault plan: mildly flaky endpoint so retries and
/// out-of-order completions are in play during the crash window.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .flaky_endpoint(ENDPOINT, SimTime::ZERO, t_secs(HORIZON), 0.3)
        .hermetic()
}

/// One uninterrupted journaled run: the ground truth a resumed campaign
/// must reproduce exactly. Returns the report, the filled journal's
/// bytes, and how many transport requests the full campaign cost.
fn baseline(seed: u64) -> (OrchestratorReport, Vec<u8>, u64) {
    let (mut t, jobs) = setup();
    t.set_fault_plan(plan(seed));
    let mut journal = Journal::in_memory();
    let report = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .run_journaled(&mut journal, &mut t, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();
    let bytes = journal.bytes().unwrap().to_vec();
    (report, bytes, t.requests_sent())
}

fn assert_reports_identical(a: &OrchestratorReport, b: &OrchestratorReport) {
    assert_eq!(a.records, b.records);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.dead_letters, b.dead_letters);
}

#[test]
fn resume_is_byte_identical_at_arbitrary_crash_points() {
    let seed = 41 ^ chaos_seed().rotate_left(24);
    let (truth, _, full_requests) = baseline(seed);
    assert!(truth.resume().replayed_attempts == 0 && truth.resume().live_attempts > 0);

    // Crash the campaign at five spread-out virtual times, including one
    // almost immediately and one near the finish line.
    let span = truth.makespan.as_millis();
    for (i, pct) in [2u64, 20, 45, 70, 95].iter().enumerate() {
        let crash_at = SimTime::from_millis(span * pct / 100);

        let (mut t1, jobs) = setup();
        t1.set_fault_plan(plan(seed));
        let mut journal = Journal::in_memory().crash_at(crash_at);
        let crashed = Campaign::from_orchestrator(orch(seed))
            .config(config())
            .run_journaled(&mut journal, &mut t1, &jobs, &mut pool(seed))
            .unwrap();
        assert!(
            crashed.is_none(),
            "crash point {i} landed before the finish"
        );
        let crash_requests = t1.requests_sent();

        // "Reboot": all in-process state is gone; only the journal bytes
        // survive, tail recovery included.
        let mut journal = Journal::from_bytes(journal.bytes().unwrap()).unwrap();
        let journaled = journal.attempts().len() as u64;

        let (mut t2, jobs) = setup();
        t2.set_fault_plan(plan(seed));
        let resumed = Campaign::from_orchestrator(orch(seed))
            .config(config())
            .run_journaled(&mut journal, &mut t2, &jobs, &mut pool(seed))
            .unwrap()
            .unwrap();

        assert_reports_identical(&truth, &resumed);
        assert_eq!(
            resumed.resume().replayed_attempts,
            journaled,
            "every journaled attempt replays, none re-scrape (crash {i})"
        );
        assert_eq!(
            resumed.resume().replayed_attempts + resumed.resume().live_attempts,
            truth.resume().live_attempts,
            "replay + live covers the campaign exactly once (crash {i})"
        );
        if journaled > 0 {
            assert!(
                t2.requests_sent() < full_requests,
                "resume must cost less than a full run (crash {i}: {} vs {full_requests})",
                t2.requests_sent()
            );
        }
        // A crash loses only in-flight work; the union never exceeds one
        // full campaign plus what was cut off mid-air.
        assert!(crash_requests + t2.requests_sent() >= full_requests);
    }
}

#[test]
fn complete_journal_resumes_with_zero_scrapes() {
    let seed = 42 ^ chaos_seed().rotate_left(24);
    let (truth, bytes, _) = baseline(seed);

    let mut journal = Journal::from_bytes(&bytes).unwrap();
    let (mut t, jobs) = setup();
    t.set_fault_plan(plan(seed));
    let resumed = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .run_journaled(&mut journal, &mut t, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();

    assert_reports_identical(&truth, &resumed);
    assert_eq!(resumed.resume().live_attempts, 0, "nothing left to scrape");
    assert_eq!(t.requests_sent(), 0, "the network is never touched");
}

#[test]
fn crash_after_the_finish_line_returns_the_full_report() {
    let seed = 43 ^ chaos_seed().rotate_left(24);
    let (truth, _, _) = baseline(seed);

    let (mut t, jobs) = setup();
    t.set_fault_plan(plan(seed));
    // The last queue event is the final worker's cooldown at
    // makespan + politeness; crash comfortably past it.
    let mut journal = Journal::in_memory().crash_at(truth.makespan + SimDuration::from_secs(60));
    let report = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .run_journaled(&mut journal, &mut t, &jobs, &mut pool(seed))
        .unwrap()
        .expect("crash after completion is a no-op");
    assert_reports_identical(&truth, &report);
}

#[test]
fn foreign_journal_is_refused_not_replayed() {
    let seed = 44 ^ chaos_seed().rotate_left(24);
    let (_, bytes, _) = baseline(seed);

    // Same journal, different campaign seed: the manifest must not match.
    let other = seed ^ 0x5a5a;
    let mut journal = Journal::from_bytes(&bytes).unwrap();
    let (mut t, jobs) = setup();
    t.set_fault_plan(plan(other));
    let err = Campaign::from_orchestrator(orch(other))
        .config(config())
        .run_journaled(&mut journal, &mut t, &jobs, &mut pool(other))
        .unwrap_err();
    assert!(
        matches!(err, JournalError::ManifestMismatch { .. }),
        "{err}"
    );
    assert_eq!(t.requests_sent(), 0, "refused before any scraping");
}

#[test]
fn watchdog_reclaims_every_hung_job_without_deadlock() {
    let seed = 45 ^ chaos_seed().rotate_left(24);
    let (mut t, jobs) = setup();
    // 80% of requests in the first 20 virtual minutes hang forever; the
    // watchdog is the only thing standing between this and a stuck fleet.
    t.set_fault_plan(
        FaultPlan::new(seed)
            .stalls(ENDPOINT, SimTime::ZERO, t_secs(1200), 0.8)
            .hermetic(),
    );
    let o = Orchestrator {
        watchdog: SimDuration::from_secs(120),
        ..orch(seed)
    };
    // The run returning at all proves no worker wedged permanently.
    let report =
        Campaign::from_orchestrator(o.clone())
            .config(config())
            .run(&mut t, &jobs, &mut pool(seed));

    assert_eq!(report.records.len(), jobs.len(), "every address reported");
    assert!(
        report.stalls_reclaimed() > 0,
        "the stall window was hit: {:?}",
        report.metrics
    );
    // Most reclaimed attempts are retried to success, so only a subset
    // survive as final Stalled records.
    assert!(report.stalls_reclaimed() >= report.metrics.stalled);
    // A reclaimed worker is charged the full deadline, never less.
    for rec in report
        .records
        .iter()
        .filter(|r| r.outcome == QueryOutcome::Stalled)
    {
        assert!(rec.duration >= o.watchdog, "stall shorter than deadline");
    }
    // The stall window ends mid-campaign, so retries land on a healthy
    // endpoint and the campaign still mostly succeeds.
    assert!(
        report.metrics.hit_rate() > 0.7,
        "{:?}",
        report.metrics.report()
    );
}

#[test]
fn journaled_watchdog_campaign_still_resumes_identically() {
    let seed = 46 ^ chaos_seed().rotate_left(24);
    let stall_plan = || {
        FaultPlan::new(seed)
            .stalls(ENDPOINT, SimTime::ZERO, t_secs(1200), 0.6)
            .hermetic()
    };
    let o = Orchestrator {
        watchdog: SimDuration::from_secs(120),
        ..orch(seed)
    };

    let (mut t, jobs) = setup();
    t.set_fault_plan(stall_plan());
    let mut journal = Journal::in_memory();
    let truth = Campaign::from_orchestrator(o.clone())
        .config(config())
        .run_journaled(&mut journal, &mut t, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();
    assert!(truth.stalls_reclaimed() > 0, "{:?}", truth.metrics);

    let crash_at = SimTime::from_millis(truth.makespan.as_millis() / 3);
    let (mut t1, jobs) = setup();
    t1.set_fault_plan(stall_plan());
    let mut journal = Journal::in_memory().crash_at(crash_at);
    assert!(Campaign::from_orchestrator(o.clone())
        .config(config())
        .run_journaled(&mut journal, &mut t1, &jobs, &mut pool(seed))
        .unwrap()
        .is_none());

    let mut journal = Journal::from_bytes(journal.bytes().unwrap()).unwrap();
    let (mut t2, jobs) = setup();
    t2.set_fault_plan(stall_plan());
    let resumed = Campaign::from_orchestrator(o.clone())
        .config(config())
        .run_journaled(&mut journal, &mut t2, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();
    assert_reports_identical(&truth, &resumed);
}

#[test]
fn load_shedding_strictly_reduces_dead_letters_under_a_storm() {
    let seed = 47 ^ chaos_seed().rotate_left(24);
    // A heavy failure window: 70% of requests die until minute 40. At
    // full concurrency the fleet burns whole retry budgets into the wall;
    // with the AIMD controller the fleet slows down, stretches the
    // campaign past the window, and saves most of those jobs. The breaker
    // is dialed out of both arms so the A/B isolates the controller (the
    // breaker guards consecutive total outages; the controller guards
    // exactly this kind of sustained partial failure, which interleaved
    // successes keep resetting the breaker on).
    let storm = || {
        FaultPlan::new(seed)
            .flaky_endpoint(ENDPOINT, t_secs(30), t_secs(2400), 0.7)
            .hermetic()
    };

    let run = |shed: Option<ShedPolicy>| -> OrchestratorReport {
        let (mut t, jobs) = setup();
        t.set_fault_plan(storm());
        let mut policy = RetryPolicy::paper_default(seed);
        policy.breaker.failure_threshold = u32::MAX;
        let o = Orchestrator {
            shed,
            retry: Some(policy),
            ..orch(seed)
        };
        Campaign::from_orchestrator(o)
            .config(config())
            .run(&mut t, &jobs, &mut pool(seed))
    };

    let unshed = run(None);
    let shed = run(Some(ShedPolicy::paper_default()));

    assert!(
        unshed.metrics.dead_lettered > 0,
        "the storm must hurt the uncontrolled run: {:?}",
        unshed.metrics
    );
    assert!(
        shed.metrics.dead_lettered < unshed.metrics.dead_lettered,
        "shedding must strictly reduce dead letters: {} vs {}",
        shed.metrics.dead_lettered,
        unshed.metrics.dead_lettered
    );
    assert!(shed.shed_events() > 0, "the controller actually cut");

    // The concurrency timeline shows the dip and a recovery (late
    // stragglers may cut it again at the tail, so look for any raise,
    // not the final value).
    let limits: Vec<u32> = shed.concurrency_timeline.iter().map(|&(_, l)| l).collect();
    let initial = limits[0];
    let lowest = *limits.iter().min().unwrap();
    assert!(lowest < initial, "the ceiling was cut: {limits:?}");
    assert!(
        limits.windows(2).any(|w| w[1] > w[0]),
        "the ceiling recovered after the storm: {limits:?}"
    );
    // Exactly-once still holds under shedding.
    assert_eq!(shed.records.len(), unshed.records.len());
}

/// Sharded crash+resume: a `threads=4` campaign killed at three spread-out
/// crash points, resumed with a *different* thread count, must reproduce
/// an uninterrupted single-thread run byte-for-byte — per-shard reports
/// and the merged stable event log alike. Per-shard journal segments live
/// on disk so only their bytes survive the "reboot".
#[test]
fn sharded_crash_resume_is_byte_identical_across_thread_counts() {
    let seed = 49 ^ chaos_seed().rotate_left(24);
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(N_JOBS)
        .map(|r| QueryJob {
            endpoint: ENDPOINT.to_string(),
            dialect: templates::dialect_of(Isp::CenturyLink),
            input_line: r.listing_line.clone(),
            tag: r.id as u64,
        })
        .collect();
    // Four shards over one endpoint: striping forces cross-shard merge
    // ties while the flaky fault plan keeps retries in play.
    let shard_plan = ShardPlan::round_robin(seed, &jobs, 4);

    let base = std::env::temp_dir().join(format!("bqt-shard-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let make_env = |dir: std::path::PathBuf, crash: Option<SimTime>| {
        let world = world.clone();
        move |spec: &ShardSpec| -> Result<ShardEnv, JournalError> {
            let mut t = Transport::hermetic(seed);
            t.set_fault_plan(plan(seed));
            let server = BatServer::new(Isp::CenturyLink, world.clone());
            t.register(ENDPOINT, server.endpoint());
            std::fs::create_dir_all(&dir).map_err(|e| JournalError::Io(e.to_string()))?;
            let mut journal = Journal::open(&dir.join(format!("{}.journal", spec.label)))?;
            if let Some(at) = crash {
                journal = journal.crash_at(at);
            }
            Ok(ShardEnv {
                transport: t,
                pool: pool(seed),
                journal: Some(journal),
            })
        }
    };

    // Ground truth: uninterrupted, single-threaded.
    let mut truth_log = JsonlRecorder::stable(Vec::new());
    let truth = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .threads(1)
        .recorder(&mut truth_log)
        .run_sharded(&shard_plan, &make_env(base.join("truth"), None))
        .unwrap();
    assert!(!truth.crashed());
    let truth_jsonl = String::from_utf8(truth_log.into_inner()).unwrap();
    assert!(!truth_jsonl.is_empty());
    let span = truth
        .reports()
        .map(|(_, r)| r.makespan.as_millis())
        .max()
        .unwrap();

    for (i, pct) in [15u64, 50, 85].iter().enumerate() {
        let dir = base.join(format!("crash-{i}"));
        let crash_at = SimTime::from_millis(span * pct / 100);

        // Crash a 4-thread run mid-campaign.
        let crashed = Campaign::from_orchestrator(orch(seed))
            .config(config())
            .threads(4)
            .run_sharded(&shard_plan, &make_env(dir.clone(), Some(crash_at)))
            .unwrap();
        assert!(crashed.crashed(), "crash point {i} landed early enough");
        let journaled: u64 = crashed
            .shards
            .iter()
            .map(|s| {
                s.env
                    .journal
                    .as_ref()
                    .map(|j| j.attempts().len() as u64)
                    .unwrap_or(0)
            })
            .sum();

        // Resume over the surviving segments with a different thread
        // count.
        let mut resumed_log = JsonlRecorder::stable(Vec::new());
        let resumed = Campaign::from_orchestrator(orch(seed))
            .config(config())
            .threads(2)
            .recorder(&mut resumed_log)
            .run_sharded(&shard_plan, &make_env(dir, None))
            .unwrap();
        assert!(!resumed.crashed(), "resume runs to completion (crash {i})");
        assert_eq!(
            resumed.resume().replayed_attempts,
            journaled,
            "every journaled attempt replays, none re-scrape (crash {i})"
        );

        for (t_run, r_run) in truth.shards.iter().zip(&resumed.shards) {
            assert_eq!(t_run.label, r_run.label);
            let (a, b) = (
                t_run.report.as_ref().unwrap(),
                r_run.report.as_ref().unwrap(),
            );
            assert_reports_identical(a, b);
        }
        let resumed_jsonl = String::from_utf8(resumed_log.into_inner()).unwrap();
        assert_eq!(
            truth_jsonl, resumed_jsonl,
            "stable event log retraces byte-for-byte across a sharded crash (crash {i})"
        );
    }

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn resumed_event_log_is_byte_identical_to_the_uninterrupted_runs() {
    let seed = 48 ^ chaos_seed().rotate_left(24);

    // Ground truth: one uninterrupted journaled run, stable event log
    // captured as canonical JSONL.
    let (mut t0, jobs) = setup();
    t0.set_fault_plan(plan(seed));
    let mut journal = Journal::in_memory();
    let mut full_log = JsonlRecorder::stable(Vec::new());
    let truth = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .recorder(&mut full_log)
        .run_journaled(&mut journal, &mut t0, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();
    let full = String::from_utf8(full_log.into_inner()).unwrap();
    assert!(!full.is_empty(), "the uninterrupted run traced events");

    // Crash mid-campaign; only the journal bytes survive the reboot.
    let crash_at = SimTime::from_millis(truth.makespan.as_millis() * 2 / 5);
    let (mut t1, jobs) = setup();
    t1.set_fault_plan(plan(seed));
    let mut journal = Journal::in_memory().crash_at(crash_at);
    assert!(Campaign::from_orchestrator(orch(seed))
        .config(config())
        .run_journaled(&mut journal, &mut t1, &jobs, &mut pool(seed))
        .unwrap()
        .is_none());
    let mut journal = Journal::from_bytes(journal.bytes().unwrap()).unwrap();
    assert!(!journal.attempts().is_empty(), "the crash left work behind");

    // Resume and trace again: replayed attempts re-emit their spans from
    // the journal, live attempts emit them from execution, and the stable
    // stream cannot tell the difference.
    let (mut t2, jobs) = setup();
    t2.set_fault_plan(plan(seed));
    let mut resumed_log = JsonlRecorder::stable(Vec::new());
    let resumed = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .recorder(&mut resumed_log)
        .run_journaled(&mut journal, &mut t2, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();
    assert_reports_identical(&truth, &resumed);
    assert!(
        resumed.resume().replayed_attempts > 0,
        "the journal replayed"
    );

    let replayed = String::from_utf8(resumed_log.into_inner()).unwrap();
    assert_eq!(
        full, replayed,
        "the stable event stream retraces byte-for-byte across a crash"
    );
}

/// A BAT whose handler panics on its `k`-th request — a service bug
/// inside one shard, not a simulated network fault.
struct PanicsOnRequest {
    inner: BatServer,
    remaining: u32,
}

impl Service for PanicsOnRequest {
    fn handle(&mut self, peer: SimIp, req: &Request, now: SimTime, rng: &mut StdRng) -> Exchange {
        if self.remaining == 0 {
            panic!("BAT handler crashed");
        }
        self.remaining -= 1;
        self.inner.handle(peer, req, now, rng)
    }
}

/// A shard whose service panics fails the sharded run with a typed
/// `ShardFailed` error — at one thread and at four, without hanging —
/// while its siblings finish and leave whole journal segments. Re-running
/// over the same segments with a healthy service resumes the failed
/// shard like a crashed one and reproduces the clean run byte-for-byte.
#[test]
fn a_panicking_shard_is_a_typed_error_and_resumes_byte_identically() {
    const FAILING: u32 = 2;
    let seed = 53 ^ chaos_seed().rotate_left(24);
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(N_JOBS)
        .map(|r| QueryJob {
            endpoint: ENDPOINT.to_string(),
            dialect: templates::dialect_of(Isp::CenturyLink),
            input_line: r.listing_line.clone(),
            tag: r.id as u64,
        })
        .collect();
    let shard_plan = ShardPlan::round_robin(seed, &jobs, 4);

    let base = std::env::temp_dir().join(format!("bqt-shard-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let segment = |dir: &std::path::Path, label: &str| dir.join(format!("{label}.journal"));

    // `panic_after`: requests shard `FAILING`'s service answers before
    // its handler panics; `None` is a healthy service.
    let make_env = |dir: std::path::PathBuf, panic_after: Option<u32>| {
        let world = world.clone();
        move |spec: &ShardSpec| -> Result<ShardEnv, JournalError> {
            let mut t = Transport::hermetic(seed);
            t.set_fault_plan(plan(seed));
            let server = BatServer::new(Isp::CenturyLink, world.clone());
            let net = server.profile().network_latency;
            let service: Box<dyn Service + Send> = match panic_after {
                Some(k) if spec.id == FAILING => Box::new(PanicsOnRequest {
                    inner: server,
                    remaining: k,
                }),
                _ => Box::new(server),
            };
            t.register(ENDPOINT, Endpoint::new(service, net));
            std::fs::create_dir_all(&dir).map_err(|e| JournalError::Io(e.to_string()))?;
            Ok(ShardEnv {
                transport: t,
                pool: pool(seed),
                journal: Some(Journal::open(&segment(&dir, &spec.label))?),
            })
        }
    };

    let truth_dir = base.join("truth");
    let mut truth_log = JsonlRecorder::stable(Vec::new());
    let truth = Campaign::from_orchestrator(orch(seed))
        .config(config())
        .threads(1)
        .recorder(&mut truth_log)
        .run_sharded(&shard_plan, &make_env(truth_dir.clone(), None))
        .unwrap();
    let truth_jsonl = truth_log.into_inner();

    for threads in [1usize, 4] {
        let dir = base.join(format!("failed-t{threads}"));
        let err = match Campaign::from_orchestrator(orch(seed))
            .config(config())
            .threads(threads)
            .run_sharded(&shard_plan, &make_env(dir.clone(), Some(40)))
        {
            Ok(_) => panic!("a panicking shard must fail the run (threads {threads})"),
            Err(err) => err,
        };
        let JournalError::ShardFailed(failed) = &err else {
            panic!("expected ShardFailed, got {err:?}");
        };
        assert_eq!(failed.id, FAILING as usize);
        assert_eq!(failed.message, "BAT handler crashed");
        assert_eq!(
            err.to_string(),
            format!("shard {FAILING} panicked: BAT handler crashed")
        );

        // Siblings ran to completion: their segments are the clean run's.
        for spec in &shard_plan.shards {
            if spec.id != FAILING {
                assert_eq!(
                    std::fs::read(segment(&dir, &spec.label)).unwrap(),
                    std::fs::read(segment(&truth_dir, &spec.label)).unwrap(),
                    "sibling segment {} is whole (threads {threads})",
                    spec.label
                );
            }
        }

        let mut resumed_log = JsonlRecorder::stable(Vec::new());
        let resumed = Campaign::from_orchestrator(orch(seed))
            .config(config())
            .threads(2)
            .recorder(&mut resumed_log)
            .run_sharded(&shard_plan, &make_env(dir, None))
            .unwrap();
        for (t_run, r_run) in truth.shards.iter().zip(&resumed.shards) {
            let (a, b) = (
                t_run.report.as_ref().unwrap(),
                r_run.report.as_ref().unwrap(),
            );
            assert_reports_identical(a, b);
            let replayed = b.resume();
            if r_run.id == FAILING {
                assert!(replayed.replayed_attempts > 0 && replayed.live_attempts > 0);
            } else {
                assert_eq!(
                    replayed.live_attempts, 0,
                    "sibling {} re-scraped",
                    r_run.label
                );
            }
        }
        assert_eq!(
            truth_jsonl,
            resumed_log.into_inner(),
            "the resumed stable event log is the clean run's (threads {threads})"
        );
    }

    std::fs::remove_dir_all(&base).unwrap();
}
