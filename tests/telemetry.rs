//! Telemetry suite: the recorder fan-out under real campaigns.
//!
//! The unit tests in `bqt::telemetry` exercise the fan-out with synthetic
//! events; these scenarios drive full campaigns and assert the integration
//! contract: every attached recorder sees the identical stream, a
//! panicking recorder is detached without disturbing the campaign or its
//! peers, and the aggregated summary in the report agrees with what an
//! independent recorder observed.

use decoding_divide::bat::{templates, BatServer};
use decoding_divide::bqt::telemetry::jsonl::parse_line;
use decoding_divide::bqt::{
    Campaign, Event, EventKind, JournalError, JsonlRecorder, QueryJob, Recorder, RetryPolicy,
    ShardEnv, ShardPlan, ShardSpec,
};
use decoding_divide::census::city_by_name;
use decoding_divide::isp::{CityWorld, Isp};
use decoding_divide::net::{IpPool, RotationPolicy, Transport};
use std::sync::Arc;

const ENDPOINT: &str = "centurylink/billings";

fn transport(world: &Arc<CityWorld>) -> Transport {
    let mut t = Transport::hermetic(11);
    let server = BatServer::new(Isp::CenturyLink, world.clone());
    t.register(ENDPOINT, server.endpoint());
    t
}

fn setup() -> (Transport, Vec<QueryJob>) {
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let t = transport(&world);
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(80)
        .map(|r| QueryJob::listing(ENDPOINT, templates::dialect_of(Isp::CenturyLink), r))
        .collect();
    (t, jobs)
}

#[test]
fn every_attached_recorder_sees_the_identical_stream() {
    let (mut t, jobs) = setup();
    let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
    let mut a: Vec<Event> = Vec::new();
    let mut b: Vec<Event> = Vec::new();
    let mut jsonl = JsonlRecorder::new(Vec::new());
    let report = Campaign::new(5)
        .workers(8)
        .retries(RetryPolicy::paper_default(5))
        .recorder(&mut a)
        .recorder(&mut b)
        .recorder(&mut jsonl)
        .run(&mut t, &jobs, &mut pool);

    assert!(!a.is_empty());
    assert_eq!(a, b, "both recorders saw the same events in the same order");

    // The JSONL recorder logged the same stream, one line per event.
    let log = String::from_utf8(jsonl.into_inner()).unwrap();
    let parsed: Vec<Event> = log
        .lines()
        .map(|l| parse_line(l).expect("logged lines parse"))
        .collect();
    assert_eq!(a, parsed, "the JSONL log decodes to the same stream");

    // The report's aggregate agrees with the independent observer.
    let attempt_ends = a
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AttemptEnd { .. }))
        .count() as u64;
    let retries = a
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
        .count() as u64;
    assert_eq!(report.telemetry.attempts, attempt_ends);
    assert_eq!(report.telemetry.retries, retries);
    assert_eq!(report.telemetry.retries, report.metrics.retries);
}

/// Panics on the Nth event it sees, then (were it ever called again)
/// records normally — the fan-out must never call it again.
struct Grenade {
    fuse: usize,
    seen: usize,
    seen_after_panic: usize,
    panicked: bool,
}

impl Recorder for Grenade {
    fn record(&mut self, _event: &Event) {
        if self.panicked {
            self.seen_after_panic += 1;
            return;
        }
        self.seen += 1;
        if self.seen == self.fuse {
            self.panicked = true;
            panic!("recorder blew up mid-campaign");
        }
    }
}

#[test]
fn a_panicking_recorder_is_detached_without_poisoning_the_run() {
    // The fan-out catches the unwind; silence the default panic banner so
    // the expected explosion doesn't pollute test output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let (mut t, jobs) = setup();
    let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
    let mut grenade = Grenade {
        fuse: 25,
        seen: 0,
        seen_after_panic: 0,
        panicked: false,
    };
    let mut stream: Vec<Event> = Vec::new();
    let report = Campaign::new(5)
        .workers(8)
        .recorder(&mut grenade)
        .recorder(&mut stream)
        .run(&mut t, &jobs, &mut pool);
    std::panic::set_hook(prev);

    // The campaign itself is untouched: every address reported.
    assert_eq!(report.records.len(), jobs.len());

    // The healthy recorder saw the full stream, panic notwithstanding:
    // through to CampaignEnd, with every attempt the aggregator counted.
    assert!(
        stream.len() > grenade.seen,
        "the stream outlived the grenade"
    );
    assert!(matches!(
        stream.last().unwrap().kind,
        EventKind::CampaignEnd { .. }
    ));
    let attempt_ends = stream
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AttemptEnd { .. }))
        .count() as u64;
    assert_eq!(attempt_ends, report.telemetry.attempts);

    // The poisoned recorder was dropped at the explosion, not retried.
    assert_eq!(grenade.seen, 25);
    assert_eq!(
        grenade.seen_after_panic, 0,
        "poisoned slots are never re-entered"
    );
}

#[test]
fn a_panicking_recorder_is_detached_from_a_sharded_run() {
    // Sharded recorders replay the merged stream after every shard has
    // finished; a recorder that panics there must be detached too.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let (_, jobs) = setup();
    let plan = ShardPlan::round_robin(5, &jobs, 2);
    assert_eq!(plan.len(), 2);
    let make_env = |_spec: &ShardSpec| -> Result<ShardEnv, JournalError> {
        Ok(ShardEnv {
            transport: transport(&world),
            pool: IpPool::residential(32, RotationPolicy::RoundRobin, 1),
            journal: None,
        })
    };
    let runs: Vec<_> = [1, 2]
        .into_iter()
        .map(|threads| {
            let mut grenade = Grenade {
                fuse: 25,
                seen: 0,
                seen_after_panic: 0,
                panicked: false,
            };
            let mut stream: Vec<Event> = Vec::new();
            let result = Campaign::new(5)
                .workers(8)
                .threads(threads)
                .recorder(&mut grenade)
                .recorder(&mut stream)
                .run_sharded(&plan, &make_env);
            (threads, result, grenade, stream)
        })
        .collect();
    std::panic::set_hook(prev);

    for (threads, result, grenade, stream) in runs {
        let outcome = result.expect("a recorder panic is not a run failure");
        assert!(!outcome.crashed(), "threads {threads}");
        // The healthy recorder saw the whole merged stream.
        assert_eq!(stream, outcome.events, "threads {threads}");
        // The poisoned recorder was dropped at the explosion, not retried.
        assert_eq!(grenade.seen, 25, "threads {threads}");
        assert_eq!(
            grenade.seen_after_panic, 0,
            "poisoned slots are never re-entered (threads {threads})"
        );
    }
}

#[test]
fn a_campaign_with_no_recorders_still_aggregates() {
    let (mut t, jobs) = setup();
    let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
    let report = Campaign::new(5).workers(8).run(&mut t, &jobs, &mut pool);
    assert_eq!(report.records.len(), jobs.len());
    assert_eq!(report.telemetry.attempts, jobs.len() as u64);
    assert!(report.telemetry.attempt_latency.count() > 0);
}
