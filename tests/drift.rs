//! Drift suite: campaigns that survive an ISP site redesign.
//!
//! Each scenario flips the BAT's rendered markup to a new generation
//! mid-campaign on the virtual clock ([`DriftSchedule`]) and asserts the
//! self-healing contract: the armed drift monitor quarantines the
//! endpoint, re-bootstraps its templates from a probe burst, and the
//! campaign recovers to within two points of the no-drift hit rate —
//! while the event stream narrates the whole cycle, the match-confidence
//! SLO fires and resolves, and every artifact stays byte-identical
//! across crash+resume and thread counts.

use decoding_divide::bat::{templates, BatServer, DriftSchedule, TemplateVersion};
use decoding_divide::bqt::{
    Campaign, DriftMonitor, Event, EventKind, Journal, JournalError, JsonlRecorder, MonitorPolicy,
    Orchestrator, OrchestratorReport, QueryJob, ShardEnv, ShardPlan, ShardSpec, SloRule,
};
use decoding_divide::census::city_by_name;
use decoding_divide::isp::{CityWorld, Isp};
use decoding_divide::net::{IpPool, RotationPolicy, SimTime, Transport};
use std::sync::Arc;

const ENDPOINT: &str = "centurylink/billings";
const N_JOBS: usize = 150;

fn setup(drift: Option<DriftSchedule>) -> (Transport, Vec<QueryJob>) {
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let mut t = Transport::hermetic(17);
    let mut server = BatServer::new(Isp::CenturyLink, world.clone());
    if let Some(schedule) = drift {
        server.set_drift_schedule(schedule);
    }
    t.register(ENDPOINT, server.endpoint());
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(N_JOBS)
        .map(|r| QueryJob::listing(ENDPOINT, templates::dialect_of(Isp::CenturyLink), r))
        .collect();
    (t, jobs)
}

/// Retries are part of the recovery story: attempts burned on unknown
/// markup while the monitor gathers evidence are requeued and succeed
/// once the learned templates are in.
fn orch(seed: u64) -> Orchestrator {
    Orchestrator {
        n_workers: 8,
        ..Orchestrator::with_retries(seed)
    }
}

fn pool(seed: u64) -> IpPool {
    IpPool::residential(64, RotationPolicy::RoundRobin, seed)
}

/// The virtual instant by which half the recorded attempts had finished.
/// The makespan's tail is stretched by retry/breaker backoff of a few
/// stragglers, so "mid-campaign" for a redesign means the median of the
/// attempt flow, not half the makespan.
fn median_attempt_end<'a>(events: impl Iterator<Item = &'a Event>) -> SimTime {
    let mut ends: Vec<u64> = events
        .filter(|e| matches!(e.kind, EventKind::AttemptEnd { .. }))
        .map(|e| e.at.as_millis())
        .collect();
    ends.sort_unstable();
    assert!(!ends.is_empty(), "the baseline recorded attempts");
    SimTime::from_millis(ends[ends.len() / 2])
}

/// One undrifted run: the hit rate the self-healing campaign must get
/// back to, and the median attempt instant that locates "mid-campaign".
fn baseline(seed: u64) -> (OrchestratorReport, SimTime) {
    let (mut t, jobs) = setup(None);
    let mut stream: Vec<Event> = Vec::new();
    let report = Campaign::from_orchestrator(orch(seed))
        .recorder(&mut stream)
        .run(&mut t, &jobs, &mut pool(seed));
    let midpoint = median_attempt_end(stream.iter());
    (report, midpoint)
}

/// The one-redesign schedule: V1 until `midpoint`, V2 from then on.
fn redesign_at(midpoint: SimTime) -> DriftSchedule {
    DriftSchedule::flip_at(midpoint, TemplateVersion::V2)
}

fn assert_reports_identical(a: &OrchestratorReport, b: &OrchestratorReport) {
    assert_eq!(a.records, b.records);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.drift, b.drift);
}

#[test]
fn rebootstrap_recovers_the_hit_rate_a_redesign_destroys() {
    let seed = 61;
    let (truth, midpoint) = baseline(seed);
    let healthy = truth.metrics.hit_rate();
    assert!(healthy > 0.75, "undrifted baseline is healthy: {healthy}");
    let schedule = redesign_at(midpoint);

    // Unguarded: the redesign lands and nobody notices. Every query from
    // the flip onward dies on unknown markup (retries included), so the
    // campaign loses a large bite of its hit rate.
    let (mut t, jobs) = setup(Some(schedule.clone()));
    let unguarded = Campaign::from_orchestrator(orch(seed)).run(&mut t, &jobs, &mut pool(seed));
    assert!(
        unguarded.metrics.hit_rate() < healthy - 0.10,
        "an unwatched redesign must hurt: {} vs {healthy}",
        unguarded.metrics.hit_rate()
    );
    assert!(unguarded.drift.is_none(), "no monitor, no drift report");

    // Guarded: the same redesign with the drift monitor armed. The
    // quarantine → probe burst → template swap cycle restores the
    // campaign to within two points of the no-drift hit rate.
    let (mut t, jobs) = setup(Some(schedule));
    let mut log = JsonlRecorder::stable(Vec::new());
    let guarded = Campaign::from_orchestrator(orch(seed))
        .drift_monitor(DriftMonitor::default_ops())
        .recorder(&mut log)
        .run(&mut t, &jobs, &mut pool(seed));
    assert!(
        guarded.metrics.hit_rate() >= healthy - 0.02,
        "self-healing must recover to within 2pp: {} vs {healthy}",
        guarded.metrics.hit_rate()
    );

    // The drift report narrates the rescue.
    let drift = guarded.drift.as_ref().expect("armed runs report drift");
    assert!(drift.total_sightings > 0, "the redesign was seen");
    assert_eq!(drift.total_rebootstraps(), guarded.rebootstraps());
    assert!(guarded.rebootstraps() >= 1, "at least one quarantine cycle");
    assert!(
        drift.drift_rate() < 0.2,
        "post-swap window is healthy again: {}",
        drift.drift_rate()
    );

    // The stable event stream tells the whole story, in causal order.
    let log = String::from_utf8(log.into_inner()).unwrap();
    let first = |name: &str| {
        log.find(name)
            .unwrap_or_else(|| panic!("event stream must contain {name}"))
    };
    let suspected = first("drift_suspected");
    let started = first("rebootstrap_started");
    let swapped = first("template_swapped");
    let completed = first("rebootstrap_completed");
    assert!(suspected < started, "sightings precede the quarantine");
    assert!(started < swapped, "the quarantine precedes the swap");
    assert!(swapped < completed, "the swap precedes completion");
}

#[test]
fn redesign_fires_and_resolves_the_match_confidence_slo() {
    let seed = 62;
    let (_, midpoint) = baseline(seed);
    let schedule = redesign_at(midpoint);

    let policy =
        MonitorPolicy::paper_default().rules(vec![SloRule::match_confidence_at_least(0.8)
            .hysteresis(1, 1)
            .min_samples(5)]);
    let (mut t, jobs) = setup(Some(schedule));
    let report = Campaign::from_orchestrator(orch(seed))
        .drift_monitor(DriftMonitor::default_ops())
        .monitor(policy)
        .run(&mut t, &jobs, &mut pool(seed));

    let health = report.health.as_ref().expect("monitor attached");
    let alert = health
        .alerts
        .iter()
        .find(|a| a.rule == "match_confidence")
        .expect("the redesign must trip the match-confidence SLO");
    assert!(
        alert.resolved_at.is_some(),
        "the re-bootstrap must resolve it: {alert:?}"
    );
    assert!(health.healthy(), "nothing burning at campaign end");
}

#[test]
fn drifted_campaign_resumes_byte_identically_across_crashes() {
    let seed = 63;
    let (_, midpoint) = baseline(seed);
    let schedule = redesign_at(midpoint);

    // Ground truth: one uninterrupted journaled drifted run.
    let (mut t0, jobs) = setup(Some(schedule.clone()));
    let mut journal = Journal::in_memory();
    let mut full_log = JsonlRecorder::stable(Vec::new());
    let truth = Campaign::from_orchestrator(orch(seed))
        .drift_monitor(DriftMonitor::default_ops())
        .recorder(&mut full_log)
        .run_journaled(&mut journal, &mut t0, &jobs, &mut pool(seed))
        .unwrap()
        .unwrap();
    assert!(truth.rebootstraps() >= 1, "the redesign was healed");
    let full = String::from_utf8(full_log.into_inner()).unwrap();

    // Crash points straddle the redesign: well before the flip, inside
    // the detection/quarantine window right after it, and late in the
    // recovery tail.
    let flip = midpoint.as_millis();
    let span = truth.makespan.as_millis();
    let crash_points = [flip / 2, flip + 60_000, flip * 5 / 4, span * 4 / 5];
    for (i, &at_ms) in crash_points.iter().enumerate() {
        let crash_at = SimTime::from_millis(at_ms);
        let (mut t1, jobs) = setup(Some(schedule.clone()));
        let mut journal = Journal::in_memory().crash_at(crash_at);
        assert!(Campaign::from_orchestrator(orch(seed))
            .drift_monitor(DriftMonitor::default_ops())
            .run_journaled(&mut journal, &mut t1, &jobs, &mut pool(seed))
            .unwrap()
            .is_none());

        // Reboot: only the journal bytes survive — including any
        // rebootstrap entries, so a healed swap is never re-probed.
        let mut journal = Journal::from_bytes(journal.bytes().unwrap()).unwrap();
        let journaled = journal.attempts().len() as u64;
        let (mut t2, jobs) = setup(Some(schedule.clone()));
        let mut resumed_log = JsonlRecorder::stable(Vec::new());
        let resumed = Campaign::from_orchestrator(orch(seed))
            .drift_monitor(DriftMonitor::default_ops())
            .recorder(&mut resumed_log)
            .run_journaled(&mut journal, &mut t2, &jobs, &mut pool(seed))
            .unwrap()
            .unwrap();

        assert_reports_identical(&truth, &resumed);
        assert_eq!(
            resumed.resume().replayed_attempts,
            journaled,
            "every journaled attempt replays (crash {i})"
        );
        let replayed = String::from_utf8(resumed_log.into_inner()).unwrap();
        assert_eq!(
            full, replayed,
            "drift events retrace byte-for-byte across a crash (crash {i})"
        );
    }
}

#[test]
fn sharded_drifted_campaign_is_byte_identical_across_thread_counts() {
    let seed = 64;
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let (_, jobs) = setup(None);
    let shard_plan = ShardPlan::round_robin(seed, &jobs, 4);

    let base = std::env::temp_dir().join(format!("bqt-drift-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let make_env = |dir: std::path::PathBuf, schedule: Option<DriftSchedule>| {
        let world = world.clone();
        move |spec: &ShardSpec| -> Result<ShardEnv, JournalError> {
            let mut t = Transport::hermetic(17);
            let mut server = BatServer::new(Isp::CenturyLink, world.clone());
            if let Some(schedule) = &schedule {
                server.set_drift_schedule(schedule.clone());
            }
            t.register(ENDPOINT, server.endpoint());
            std::fs::create_dir_all(&dir).map_err(|e| JournalError::Io(e.to_string()))?;
            Ok(ShardEnv {
                transport: t,
                pool: pool(seed),
                journal: Some(Journal::open(&dir.join(format!("{}.journal", spec.label)))?),
            })
        }
    };

    // Shards run the same jobs split four ways, so their attempt flow
    // finishes early relative to the unsharded baseline — locate the
    // redesign at the *sharded* median attempt instant.
    let mut stream: Vec<Event> = Vec::new();
    let undrifted = Campaign::from_orchestrator(orch(seed))
        .threads(1)
        .recorder(&mut stream)
        .run_sharded(&shard_plan, &make_env(base.join("undrifted"), None))
        .unwrap();
    assert!(!undrifted.crashed());
    let schedule = redesign_at(median_attempt_end(stream.iter()));

    let run = |threads: usize, dir: &str| {
        let mut log = JsonlRecorder::stable(Vec::new());
        let outcome = Campaign::from_orchestrator(orch(seed))
            .drift_monitor(DriftMonitor::default_ops())
            .threads(threads)
            .recorder(&mut log)
            .run_sharded(
                &shard_plan,
                &make_env(base.join(dir), Some(schedule.clone())),
            )
            .unwrap();
        assert!(!outcome.crashed());
        let reports: Vec<OrchestratorReport> = outcome
            .shards
            .into_iter()
            .map(|s| *s.report.unwrap())
            .collect();
        (reports, String::from_utf8(log.into_inner()).unwrap())
    };

    let (serial, serial_log) = run(1, "t1");
    let (threaded, threaded_log) = run(4, "t4");
    assert!(
        serial.iter().map(|r| r.rebootstraps()).sum::<u64>() >= 1,
        "the sharded redesign was healed somewhere"
    );
    for (a, b) in serial.iter().zip(&threaded) {
        assert_reports_identical(a, b);
    }
    assert_eq!(
        serial_log, threaded_log,
        "merged drift stream is thread-count invariant"
    );

    std::fs::remove_dir_all(&base).unwrap();
}
