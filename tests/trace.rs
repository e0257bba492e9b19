//! Trace-layer contracts: causal span trees assembled from arbitrary
//! valid event interleavings are well-formed (spans nest, children never
//! out-earn their parent, the critical path sums exactly to the root's
//! duration), the attribution walk is exact on arbitrary span trees, and
//! the `trace.json` export is byte-identical across thread counts and
//! across a crash+resume.

use decoding_divide::bat::{templates, BatServer};
use decoding_divide::bqt::telemetry::OutcomeCode;
use decoding_divide::bqt::trace::{attribute, critical_path, Span, SpanKind, TraceAssembler};
use decoding_divide::bqt::{
    render_trace_json, BqtConfig, Campaign, Event, EventKind, Journal, MonitorPolicy, Orchestrator,
    OrchestratorReport, QueryJob, RetryPolicy,
};
use decoding_divide::census::city_by_name;
use decoding_divide::dataset::{curate_city_journaled, CurationOptions};
use decoding_divide::isp::{CityWorld, Isp};
use decoding_divide::net::{IpPool, RotationPolicy, SimDuration, SimTime, Transport};
use proptest::prelude::*;
use std::sync::Arc;

// ---- well-formedness over arbitrary valid interleavings --------------

/// One generated job: a start offset, attempts as (queue gap, duration,
/// page fetches), and the backoff between attempts.
#[derive(Debug, Clone)]
struct JobPlan {
    start: u64,
    attempts: Vec<(u64, u64, usize)>,
    retry_delay: u64,
}

fn job_plan() -> impl Strategy<Value = JobPlan> {
    (
        0u64..500,
        proptest::collection::vec((0u64..50, 1u64..300, 0usize..3), 1..4),
        1u64..60,
    )
        .prop_map(|(start, attempts, retry_delay)| JobPlan {
            start,
            attempts,
            retry_delay,
        })
}

/// Expands the plans into the replay-stable event stream a campaign
/// would emit: begins stamped at the loop's current time, ends in the
/// future, retries between attempts, one `CampaignEnd` closing the run.
fn events_for(plans: &[JobPlan]) -> (Vec<Event>, u64) {
    let mut events: Vec<(u64, EventKind)> = Vec::new();
    let mut makespan = 0u64;
    for (i, plan) in plans.iter().enumerate() {
        let tag = i as u64;
        let endpoint = if i % 2 == 0 { "isp/a" } else { "isp/b" };
        let mut t = plan.start;
        events.push((
            t,
            EventKind::JobBegin {
                tag,
                endpoint: endpoint.into(),
            },
        ));
        let last = plan.attempts.len() - 1;
        for (k, &(gap, dur, fetches)) in plan.attempts.iter().enumerate() {
            t += gap;
            let attempt = (k + 1) as u32;
            events.push((
                t,
                EventKind::AttemptBegin {
                    tag,
                    attempt,
                    worker: 0,
                    endpoint: endpoint.into(),
                },
            ));
            let end = t + dur;
            // Page fetches split the attempt window into equal steps.
            for f in 0..fetches {
                let step = dur / (fetches as u64 + 1);
                let fetch_end = t + step * (f as u64 + 1);
                events.push((
                    fetch_end,
                    EventKind::PageFetchEnd {
                        tag,
                        attempt,
                        fetch: f as u32,
                        duration_ms: step,
                    },
                ));
            }
            let outcome = if k == last {
                OutcomeCode::Plans
            } else {
                OutcomeCode::Failed
            };
            events.push((
                end,
                EventKind::AttemptEnd {
                    tag,
                    attempt,
                    worker: 0,
                    endpoint: endpoint.into(),
                    outcome,
                    duration_ms: dur,
                    steps: fetches as u32 + 1,
                },
            ));
            t = end;
            if k != last {
                events.push((
                    t,
                    EventKind::Retry {
                        tag,
                        next_attempt: attempt + 1,
                        delay_ms: plan.retry_delay,
                    },
                ));
                t += plan.retry_delay;
            }
        }
        events.push((
            t,
            EventKind::JobEnd {
                tag,
                outcome: OutcomeCode::Plans,
                attempts: plan.attempts.len() as u32,
                dead_lettered: false,
            },
        ));
        makespan = makespan.max(t);
    }
    makespan += 10;
    events.push((
        makespan,
        EventKind::CampaignEnd {
            makespan_ms: makespan,
        },
    ));
    // Stable sort by stamp: begins stay ahead of same-millisecond ends,
    // exactly the watermark contract a live stream honours.
    events.sort_by_key(|(at, _)| *at);
    let events = events
        .into_iter()
        .map(|(at, kind)| Event {
            at: SimTime::from_millis(at),
            kind,
        })
        .collect();
    (events, makespan)
}

/// Spans nest: children sit inside the parent, in start order, without
/// overlap, and never out-earn the parent's duration. Recursive.
fn assert_well_formed(span: &Span) {
    let mut cursor = span.start_ms;
    let mut child_sum = 0u64;
    for child in &span.children {
        assert!(
            child.start_ms >= cursor,
            "children overlap or are unsorted: {child:?} inside {}..{}",
            span.start_ms,
            span.end_ms
        );
        assert!(child.end_ms >= child.start_ms, "inverted child: {child:?}");
        assert!(
            child.end_ms <= span.end_ms,
            "child escapes its parent: {child:?} inside {}..{}",
            span.start_ms,
            span.end_ms
        );
        child_sum += child.duration_ms();
        cursor = child.end_ms;
        assert_well_formed(child);
    }
    assert!(
        child_sum <= span.duration_ms(),
        "children out-earn the parent: {child_sum} > {}",
        span.duration_ms()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any valid interleaving assembles into well-formed trees whose
    /// critical path sums exactly to the exemplar's duration, itself
    /// bounded by the campaign makespan.
    #[test]
    fn assembled_trees_are_well_formed_and_attribute_exactly(
        plans in proptest::collection::vec(job_plan(), 1..6),
    ) {
        let (events, makespan) = events_for(&plans);
        let mut asm = TraceAssembler::new(plans.len());
        for e in &events {
            asm.observe(e);
        }
        let exemplars = asm.finish();
        prop_assert_eq!(exemplars.global.len(), plans.len());
        for trace in exemplars.global.iter().chain(exemplars.per_endpoint.values()) {
            assert_well_formed(&trace.root);
            prop_assert!(trace.duration_ms() <= makespan);
            let path = critical_path(&trace.root);
            let path_total: u64 = path.iter().map(|(_, ms)| ms).sum();
            prop_assert_eq!(path_total, trace.duration_ms());
            prop_assert_eq!(attribute(&trace.root).total_ms(), trace.duration_ms());
        }
        // The reservoir ranks slowest-first, ties to the earlier finish.
        for pair in exemplars.global.windows(2) {
            prop_assert!(pair[0].duration_ms() >= pair[1].duration_ms());
        }
    }

    /// The attribution walk is exact on arbitrary trees — even ones no
    /// assembler would build (overlapping children, spans escaping the
    /// parent): clipped segments always sum to the root's duration.
    #[test]
    fn attribution_is_exact_on_arbitrary_span_trees(root in span_tree()) {
        let path = critical_path(&root);
        let total: u64 = path.iter().map(|(_, ms)| ms).sum();
        prop_assert_eq!(total, root.duration_ms());
        let a = attribute(&root);
        prop_assert_eq!(a.total_ms(), root.duration_ms());
        let components: u64 = a.components().iter().map(|(_, ms)| ms).sum();
        prop_assert_eq!(components, a.total_ms());
    }
}

/// Arbitrary span trees: any kind, any stamps (the root is kept
/// un-inverted; descendants may overlap, invert or escape their parent).
/// Nodes are generated flat and node `i` attaches under an arbitrary
/// earlier node, so depth and branching are both unconstrained.
fn span_tree() -> impl Strategy<Value = Span> {
    proptest::collection::vec((0usize..11, 0u64..5_000, 0u64..5_000, 0usize..64), 1..16).prop_map(
        |nodes| {
            let mut spans: Vec<Span> = nodes
                .iter()
                .enumerate()
                .map(|(i, &(kind, a, b, _))| {
                    // The root of a real trace is never inverted; only
                    // descendants exercise the malformed paths.
                    let (start_ms, end_ms) = if i == 0 { (a.min(b), a.max(b)) } else { (a, b) };
                    Span {
                        kind: SpanKind::parse(WIRE_NAMES[kind]).expect("wire name"),
                        label: String::new(),
                        start_ms,
                        end_ms,
                        children: Vec::new(),
                    }
                })
                .collect();
            for i in (1..spans.len()).rev() {
                let child = spans.pop().expect("node i is last");
                spans[nodes[i].3 % i].children.push(child);
            }
            spans.pop().expect("the root remains")
        },
    )
}

const WIRE_NAMES: [&str; 11] = [
    "campaign",
    "job",
    "attempt",
    "page_fetch",
    "queue_wait",
    "retry_backoff",
    "breaker_wait",
    "shed",
    "cache_lookup",
    "rebootstrap",
    "serve",
];

/// The wire-name map and the parser are exact inverses over every kind.
#[test]
fn span_kind_wire_names_round_trip() {
    for name in WIRE_NAMES {
        let kind = SpanKind::parse(name).expect("every wire name parses");
        assert_eq!(kind.as_str(), name);
    }
    assert_eq!(SpanKind::parse("not_a_kind"), None);
    assert!(SpanKind::parse("attempt") < SpanKind::parse("page_fetch"));
}

// ---- trace.json differential: thread counts --------------------------

/// The journaled pipeline writes a byte-identical `trace.json` whatever
/// the thread packing — the same contract the other campaign artifacts
/// already carry.
#[test]
fn curated_trace_json_is_thread_count_invariant() {
    let base = std::env::temp_dir().join(format!("bqt-trace-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let city = city_by_name("Billings").unwrap();
    let mut opts = CurationOptions::quick(3);
    opts.max_samples_per_bg = Some(2);
    opts.min_samples = 2;

    let run = |threads: usize| {
        let dir = base.join(format!("t{threads}"));
        let mut opts = opts;
        opts.threads = threads;
        curate_city_journaled(city, &opts, None, &dir).unwrap();
        String::from_utf8(std::fs::read(dir.join("trace.json")).unwrap()).unwrap()
    };

    let t1 = run(1);
    assert!(t1.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(t1.contains("\"ph\":\"X\"") && t1.contains("\"pid\":") && t1.contains("\"ts\":"));
    assert!(t1.contains("\"name\":\"campaign\"") && t1.contains("\"name\":\"job\""));
    assert_eq!(t1, run(2), "trace.json differs between threads 1 and 2");
    assert_eq!(t1, run(4), "trace.json differs between threads 1 and 4");

    std::fs::remove_dir_all(&base).unwrap();
}

// ---- trace.json differential: crash + resume -------------------------

fn setup(seed: u64) -> (Transport, Vec<QueryJob>) {
    let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
    let mut t = Transport::hermetic(seed);
    let server = BatServer::new(Isp::CenturyLink, world.clone());
    t.register("centurylink/billings", server.endpoint());
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(100)
        .map(|r| QueryJob {
            endpoint: "centurylink/billings".to_string(),
            dialect: templates::dialect_of(Isp::CenturyLink),
            input_line: r.listing_line.clone(),
            tag: r.id as u64,
        })
        .collect();
    (t, jobs)
}

/// A monitored, journaled campaign killed mid-run and resumed from the
/// journal bytes alone re-exports a byte-identical `trace.json` — the
/// exemplar reservoir replays, not just the records.
#[test]
fn trace_json_is_byte_identical_across_crash_and_resume() {
    let seed = 23;
    let orch = Orchestrator {
        n_workers: 8,
        politeness: SimDuration::from_secs(5),
        retry: Some(RetryPolicy::paper_default(seed)),
        ..Orchestrator::paper_default(seed)
    };
    let config = BqtConfig::paper_default(SimDuration::from_secs(45));
    let pool = || IpPool::residential(64, RotationPolicy::RoundRobin, seed);

    let guarded = |journal: &mut Journal| -> Option<OrchestratorReport> {
        let (mut t, jobs) = setup(seed);
        Campaign::from_orchestrator(orch.clone())
            .config(config)
            .monitor(MonitorPolicy::paper_default())
            .run_journaled(journal, &mut t, &jobs, &mut pool())
            .expect("fresh or matching journal")
    };
    let render = |report: &OrchestratorReport| -> String {
        let section = report.health_section("billings").expect("monitor attached");
        render_trace_json(std::slice::from_ref(&section))
    };

    let mut j0 = Journal::in_memory();
    let truth = guarded(&mut j0).expect("no crash scheduled");
    let truth_json = render(&truth);
    let health = truth.health.as_ref().expect("monitor attached");
    assert!(
        !health.exemplars.global.is_empty(),
        "a completed campaign leaves exemplars"
    );
    for trace in &health.exemplars.global {
        assert_eq!(attribute(&trace.root).total_ms(), trace.duration_ms());
    }

    let crash_at = SimTime::from_millis(truth.makespan.as_millis() / 3);
    let mut j1 = Journal::in_memory().crash_at(crash_at);
    assert!(guarded(&mut j1).is_none(), "the scheduled crash must fire");
    let mut j1 = Journal::from_bytes(j1.bytes().expect("memory journal")).expect("recoverable");
    let resumed = guarded(&mut j1).expect("resume completes");
    assert_eq!(
        truth_json,
        render(&resumed),
        "trace.json must retrace byte-for-byte across crash+resume"
    );
}
