//! The sharded serve campaign engine: replays a seeded load schedule
//! against every shard's serving stack on the virtual clock, under the
//! same multi-core discipline as `bqt::shard` — and with the same
//! byte-identity guarantee across thread counts.
//!
//! Each shard runs as one virtual worker: its own [`ShardRecorder`]
//! (namespaced event seqs), its own hermetic [`Transport`] carrying its
//! own [`PlanService`] endpoint, its own arrival schedule. A FIFO queue
//! discipline turns arrival times into lookup latencies — an arrival
//! whose queue wait would exceed `shed_wait_ms` is refused with a
//! `ServeShed` event, which is what keeps the cache-hostile scan from
//! growing the backlog without bound. Shard streams are merged on
//! `(at, seq)` and fed once, in order, through the SLO monitor, the
//! metrics aggregator and the caller's recorder; nothing in the merged
//! stream or anything derived from it depends on how shards were
//! packed onto OS threads.

use crate::api::{ServeAnswer, ServeRequest, ServeResponse};
use crate::load::{Arrival, LoadPhase};
use crate::service::{cache_flag_iter, evicted_key_iter, PlanService, ServeCosts};
use crate::store::PlanStore;
use bbsim_net::{Endpoint, LatencyModel, SimDuration, SimIp, SimTime, Transport};
use bqt::monitor::{CampaignMonitor, MonitorPolicy};
use bqt::telemetry::OutcomeCode;
use bqt::{
    merge_seq_streams, Event, EventKind, HealthReport, MetricsAggregator, Recorder, SeqEvent,
    ShardRecorder, SloRule, TelemetrySummary,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of one serve campaign.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Master seed: schedules, transport draws and jitter all derive
    /// from it.
    pub seed: u64,
    /// OS threads the shard set is packed onto (never affects output).
    pub threads: usize,
    /// LRU answer-cache capacity per shard.
    pub cache_capacity: usize,
    /// Queue wait beyond which an arrival is refused (shed).
    pub shed_wait_ms: u64,
    /// Per-lookup virtual processing costs.
    pub costs: ServeCosts,
    /// One-way link latency between requesters and a shard, in ms.
    pub link_latency_ms: u64,
    /// The load campaign, phase by phase (shared by every shard).
    pub phases: Vec<LoadPhase>,
    /// SLO monitor configuration applied to the merged stream.
    pub policy: MonitorPolicy,
}

impl ServeOptions {
    /// Serve SLOs: a latency ceiling the scan phase must breach, plus
    /// outcome hit rate and answer-cache health for the dashboard.
    fn serve_rules() -> Vec<SloRule> {
        vec![
            SloRule::p99_latency_at_most(250),
            SloRule::hit_rate_at_least(0.9),
            SloRule::cache_hit_rate_at_least(0.25),
        ]
    }

    /// CI-sized campaign: ~5 virtual minutes, ~120k lookups over three
    /// shards. The scan phase fires the p99 alert; the final steady
    /// phase is long enough (window span + hysteresis) to resolve it.
    pub fn quick(seed: u64) -> Self {
        Self {
            seed,
            threads: 1,
            cache_capacity: 128,
            shed_wait_ms: 2_000,
            costs: ServeCosts::paper_default(),
            link_latency_ms: 0,
            phases: vec![
                LoadPhase::steady(60_000, 12),
                LoadPhase::burst(10_000, 12),
                LoadPhase::steady(30_000, 12),
                LoadPhase::scan(40_000, 3),
                LoadPhase::steady(160_000, 12),
            ],
            policy: MonitorPolicy {
                bucket: SimDuration::from_secs(10),
                buckets: 10,
                ..MonitorPolicy::paper_default()
            }
            .rules(Self::serve_rules()),
        }
    }

    /// Paper-scale campaign: ~38 virtual minutes, >1M served lookups
    /// over three shards, with the same fire-and-resolve shape.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            threads: 1,
            cache_capacity: 256,
            shed_wait_ms: 2_000,
            costs: ServeCosts::paper_default(),
            link_latency_ms: 0,
            phases: vec![
                LoadPhase::steady(900_000, 7),
                LoadPhase::burst(60_000, 7),
                LoadPhase::steady(240_000, 7),
                LoadPhase::scan(200_000, 3),
                LoadPhase::steady(900_000, 7),
            ],
            policy: MonitorPolicy::paper_default().rules(Self::serve_rules()),
        }
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// What one serve campaign leaves behind.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Aggregated counters/histograms over the merged stream (plus the
    /// monitor's synthesized alert events).
    pub summary: TelemetrySummary,
    /// The SLO monitor's verdict: alerts, window, folded profile.
    pub health: HealthReport,
    /// Virtual time the slowest shard finished draining at.
    pub makespan_ms: u64,
    /// Arrivals scheduled across all shards (served + shed).
    pub arrivals: u64,
}

impl ServeOutcome {
    /// Served lookups (per batch item; sheds excluded).
    pub fn lookups(&self) -> u64 {
        self.summary.serve_lookups
    }
}

/// Maps an answer to the outcome code its lookup event carries.
fn answer_outcome(answer: &ServeAnswer) -> OutcomeCode {
    match answer {
        ServeAnswer::Plans { .. } => OutcomeCode::Plans,
        ServeAnswer::NoService => OutcomeCode::NoService,
        ServeAnswer::Percentiles { .. } => OutcomeCode::Plans,
        ServeAnswer::Tiles { .. } => OutcomeCode::Plans,
        ServeAnswer::NotFound => OutcomeCode::Unserviceable,
        ServeAnswer::Shed => OutcomeCode::Blocked,
    }
}

/// Runs one shard's full schedule; returns its namespaced event stream
/// and the number of scheduled arrivals.
fn run_shard(store: &Arc<PlanStore>, opts: &ServeOptions, shard_id: u32) -> (Vec<SeqEvent>, u64) {
    let shard = store.shard(shard_id).expect("shard id from store range");
    let endpoint = shard.endpoint();
    let schedule = crate::load::generate_schedule(shard_id, shard, &opts.phases, opts.seed);
    let arrivals = schedule.len() as u64;

    let mut rec = ShardRecorder::new(shard_id);
    rec.record(&Event {
        at: SimTime::ZERO,
        kind: EventKind::WorkerBegin { worker: shard_id },
    });

    let mut transport = Transport::hermetic(opts.seed);
    transport.register(
        endpoint.clone(),
        Endpoint::new(
            Box::new(PlanService::new(
                store.clone(),
                opts.cache_capacity,
                opts.costs,
            )),
            LatencyModel::constant(SimDuration::from_millis(opts.link_latency_ms)),
        ),
    );
    // Deterministic per-shard requester address: keeps hermetic draws
    // distinct across shards sharing a virtual millisecond.
    let src = SimIp(0x0a00_0001 + shard_id);

    let mut prev_done = 0u64;
    for Arrival { at_ms, request } in schedule {
        let wait = prev_done.saturating_sub(at_ms);
        if wait > opts.shed_wait_ms {
            rec.record(&Event {
                at: SimTime::from_millis(at_ms),
                kind: EventKind::ServeShed {
                    shard: shard_id,
                    endpoint: endpoint.clone(),
                },
            });
            continue;
        }
        let send_at = at_ms.max(prev_done);
        let http = request.to_http();
        let (resp, rt) = transport
            .round_trip(&endpoint, src, &http, SimTime::from_millis(send_at))
            .expect("registered endpoint, no fault plan");
        let done = send_at + rt.as_millis();
        let mut hits = cache_flag_iter(&resp);
        let batch = matches!(request, ServeRequest::Batch(_));
        // Every answer line is parsed in full: that is the check that the
        // wire carried a well-formed answer. An unparsable response
        // leaves no answers, so each of its lookups records `Failed`.
        let response = ServeResponse::from_http(&resp, batch).ok();
        let answers = response.as_ref().map_or(&[][..], ServeResponse::answers);
        for (i, q) in request.queries().iter().enumerate() {
            let outcome = answers
                .get(i)
                .map(answer_outcome)
                .unwrap_or(OutcomeCode::Failed);
            rec.record(&Event {
                at: SimTime::from_millis(done),
                kind: EventKind::ServeLookupEnd {
                    tag: q.telemetry_tag(),
                    shard: shard_id,
                    endpoint: endpoint.clone(),
                    outcome,
                    cache_hit: hits.next().unwrap_or(false),
                    duration_ms: done - at_ms,
                },
            });
        }
        for key in evicted_key_iter(&resp) {
            rec.record(&Event {
                at: SimTime::from_millis(done),
                kind: EventKind::CacheEvicted {
                    shard: shard_id,
                    key,
                },
            });
        }
        prev_done = done;
    }
    rec.record(&Event {
        at: SimTime::from_millis(prev_done),
        kind: EventKind::WorkerEnd { worker: shard_id },
    });
    (rec.into_events(), arrivals)
}

/// A recorder that drops everything (for callers that only want the
/// outcome).
struct NopRecorder;

impl Recorder for NopRecorder {
    fn record(&mut self, _event: &Event) {}
}

/// Runs the serve campaign and discards the event stream.
pub fn run(store: &Arc<PlanStore>, opts: &ServeOptions) -> ServeOutcome {
    run_recorded(store, opts, &mut NopRecorder)
}

/// Runs the serve campaign, feeding the merged, time-ordered stream —
/// plus the monitor's synthesized alert events at their stream
/// positions — through `recorder`.
///
/// Shards are pulled off a shared work queue by `opts.threads` OS
/// threads; the merged stream, the health report, the telemetry
/// summary and everything the recorder sees are byte-identical for any
/// thread count.
pub fn run_recorded(
    store: &Arc<PlanStore>,
    opts: &ServeOptions,
    recorder: &mut dyn Recorder,
) -> ServeOutcome {
    /// One shard's finished work: its event stream and arrival count.
    type ShardSlot = Mutex<Option<(Vec<SeqEvent>, u64)>>;
    let n_shards = store.shards().len();
    let slots: Vec<ShardSlot> = (0..n_shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let threads = opts.threads.clamp(1, n_shards.max(1));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let id = next.fetch_add(1, Ordering::Relaxed);
                if id >= n_shards {
                    break;
                }
                let result = run_shard(store, opts, id as u32);
                *slots[id].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    let mut streams = Vec::with_capacity(n_shards);
    let mut arrivals = 0u64;
    for slot in &slots {
        let (events, n) = slot
            .lock()
            .expect("result slot poisoned")
            .take()
            .expect("every shard ran to completion");
        arrivals += n;
        streams.push(events);
    }
    let merged = merge_seq_streams(streams.iter().map(Vec::as_slice));
    drop(streams);
    let makespan_ms = merged.last().map(|e| e.at.as_millis()).unwrap_or(0);

    let mut monitor = CampaignMonitor::new(opts.policy.clone());
    let mut agg = MetricsAggregator::new();
    let feed = |event: &Event,
                monitor: &mut CampaignMonitor,
                agg: &mut MetricsAggregator,
                recorder: &mut dyn Recorder| {
        monitor.observe(event);
        agg.observe(event);
        recorder.record(event);
        for alert in monitor.take_events() {
            agg.observe(&alert);
            recorder.record(&alert);
        }
    };

    feed(
        &Event {
            at: SimTime::ZERO,
            kind: EventKind::CampaignBegin {
                seed: opts.seed,
                n_jobs: arrivals.min(u64::from(u32::MAX)) as u32,
                n_workers: n_shards as u32,
            },
        },
        &mut monitor,
        &mut agg,
        recorder,
    );
    for event in &merged {
        feed(event, &mut monitor, &mut agg, recorder);
    }
    feed(
        &Event {
            at: SimTime::from_millis(makespan_ms),
            kind: EventKind::CampaignEnd { makespan_ms },
        },
        &mut monitor,
        &mut agg,
        recorder,
    );

    let health = monitor.finish();
    ServeOutcome {
        summary: agg.into_summary(),
        health,
        makespan_ms,
        arrivals,
    }
}
