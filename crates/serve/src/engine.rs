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
//! growing the backlog without bound.
//!
//! Shards run on [`bqt::exec`] worker threads while the calling thread
//! merges. Every `SEAL_EVERY` arrivals a shard seals its pending
//! events — sorted on `(at, seq)` in the worker — and sends them with its
//! frontier: the next arrival's time and the next `seq`. Every later
//! event of the shard is stamped at or after that arrival, so the
//! frontier cannot come from the events themselves: a `ServeShed` is
//! stamped at its arrival, before earlier lookups' completions. The
//! calling thread's [`StreamMerger`] releases each event once no shard
//! can still send one below it and feeds it, in `(at, seq)` order,
//! through the SLO monitor, the metrics aggregator and the caller's
//! recorder. Nothing in the merged stream or anything derived from it
//! depends on how shards were packed onto OS threads, and only what sits
//! between the slowest shard's frontier and the others' is buffered.

use crate::api::{ServeAnswer, ServeRequest, ServeResponse};
use crate::load::{Arrival, LoadPhase};
use crate::service::{cache_flag_iter, evicted_key_iter, PlanService, ServeCosts};
use crate::store::PlanStore;
use bbsim_net::{Endpoint, LatencyModel, SimDuration, SimIp, SimTime, Transport};
use bqt::monitor::{CampaignMonitor, MonitorPolicy};
use bqt::telemetry::OutcomeCode;
use bqt::{
    Event, EventKind, HealthReport, MergeKey, MergeSink, MetricsAggregator, Recorder, SeqEvent,
    ShardRecorder, SloRule, StreamMerger, TelemetrySummary, FINISHED,
};
use std::sync::Arc;

/// Arrivals between two seals of a shard's pending events: small enough
/// that the merge trails a running shard by a few hundred arrivals,
/// large enough that waking the consumer per chunk stays off the
/// profile.
const SEAL_EVERY: usize = 512;

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
    /// The most shard events the merge held at once: what the consumer
    /// buffered waiting for the slowest shard's frontier.
    pub merge_high_water: usize,
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

/// What a serve shard tells the merging consumer.
enum ShardNote {
    /// The shard's scheduled arrival count, sent before any chunk.
    Arrivals(u64),
    /// A sealed chunk and the shard's frontier after it.
    Chunk(Vec<SeqEvent>, MergeKey),
}

/// Runs one shard's full schedule, sending its arrival count, then its
/// namespaced event stream as sealed chunks ending with [`FINISHED`].
fn run_shard(store: &Arc<PlanStore>, opts: &ServeOptions, shard_id: u32, emit: &dyn Fn(ShardNote)) {
    let shard = store.shard(shard_id).expect("shard id from store range");
    let endpoint = shard.endpoint();
    let schedule = crate::load::generate_schedule(shard_id, shard, &opts.phases, opts.seed);
    emit(ShardNote::Arrivals(schedule.len() as u64));

    let mut rec = ShardRecorder::new(shard_id);
    rec.push(Event {
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
    for (i, Arrival { at_ms, request }) in schedule.into_iter().enumerate() {
        if i % SEAL_EVERY == 0 {
            // Arrivals are in time order, and every event from here on
            // is stamped at or after this one's `at_ms`: a shed at it,
            // a lookup or eviction at its completion, `WorkerEnd` at the
            // last completion.
            let frontier = rec.frontier(at_ms);
            emit(ShardNote::Chunk(rec.seal(frontier), frontier));
        }
        let wait = prev_done.saturating_sub(at_ms);
        if wait > opts.shed_wait_ms {
            rec.push(Event {
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
            rec.push(Event {
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
            rec.push(Event {
                at: SimTime::from_millis(done),
                kind: EventKind::CacheEvicted {
                    shard: shard_id,
                    key,
                },
            });
        }
        prev_done = done;
    }
    rec.push(Event {
        at: SimTime::from_millis(prev_done),
        kind: EventKind::WorkerEnd { worker: shard_id },
    });
    emit(ShardNote::Chunk(rec.seal(FINISHED), FINISHED));
}

/// The serial consumers of the merged stream, fed once, in order: SLO
/// monitor, metrics aggregator, then the caller's recorder — each
/// followed by the alerts the monitor synthesized at that position.
struct Feed<'r> {
    monitor: CampaignMonitor,
    agg: MetricsAggregator,
    recorder: &'r mut dyn Recorder,
    seed: u64,
    n_shards: u32,
    /// Arrivals across all shards, once every shard has declared.
    arrivals: u64,
    /// Virtual time of the last merged event.
    last_ms: u64,
}

impl Feed<'_> {
    fn feed(&mut self, event: &Event) {
        self.monitor.observe(event);
        self.agg.observe(event);
        self.recorder.record(event);
        for alert in self.monitor.take_events() {
            self.agg.observe(&alert);
            self.recorder.record(&alert);
        }
    }
}

impl MergeSink for Feed<'_> {
    fn begin(&mut self, total: u64) {
        self.arrivals = total;
        self.feed(&Event {
            at: SimTime::ZERO,
            kind: EventKind::CampaignBegin {
                seed: self.seed,
                n_jobs: total.min(u64::from(u32::MAX)) as u32,
                n_workers: self.n_shards,
            },
        });
    }

    fn event(&mut self, event: Event) {
        self.last_ms = event.at.as_millis();
        self.feed(&event);
    }
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
/// Shards run on `opts.threads` [`bqt::exec`] worker threads while the
/// calling thread merges their sealed chunks and feeds the monitor,
/// aggregator and `recorder`; the merged stream, the health report, the
/// telemetry summary and everything the recorder sees are
/// byte-identical for any thread count.
///
/// # Panics
/// If a shard panics, after every other shard has finished: the message
/// names the shard (`serve shard N panicked: ...`). The merge never
/// releases past the failed shard's last frontier, so the recorder never
/// sees a stream that silently ends early, and no thread waits on the
/// dead shard.
pub fn run_recorded(
    store: &Arc<PlanStore>,
    opts: &ServeOptions,
    recorder: &mut dyn Recorder,
) -> ServeOutcome {
    run_streamed(store.shards().len(), opts, recorder, |id, emit| {
        run_shard(store, opts, id, emit)
    })
}

/// [`run_recorded`] over `n_shards` shards, each run by `shard(id, emit)`.
fn run_streamed(
    n_shards: usize,
    opts: &ServeOptions,
    recorder: &mut dyn Recorder,
    shard: impl Fn(u32, &dyn Fn(ShardNote)) + Sync,
) -> ServeOutcome {
    let ids: Vec<u32> = (0..n_shards as u32).collect();
    let mut merger = StreamMerger::new(n_shards);
    let mut feed = Feed {
        monitor: CampaignMonitor::new(opts.policy.clone()),
        agg: MetricsAggregator::new(),
        recorder,
        seed: opts.seed,
        n_shards: n_shards as u32,
        arrivals: 0,
        last_ms: 0,
    };
    let results = bqt::exec::run(
        &ids,
        opts.threads,
        // Every shard replays the same phases, so arrival counts match
        // in expectation; equal costs dispatch in shard order.
        |_| 1,
        |_, &id, emit| shard(id, emit),
        |id, note| {
            match note {
                ShardNote::Arrivals(n) => merger.declare(id, n),
                ShardNote::Chunk(chunk, frontier) => merger.push(id, chunk, frontier),
            }
            merger.release(&mut feed);
        },
    );
    for result in results {
        if let Err(failed) = result {
            panic!("serve {failed}");
        }
    }
    // Every shard finished, so this only matters for a store with no
    // shards, where `begin` has not run yet.
    merger.release(&mut feed);
    let makespan_ms = feed.last_ms;
    feed.feed(&Event {
        at: SimTime::from_millis(makespan_ms),
        kind: EventKind::CampaignEnd { makespan_ms },
    });

    let Feed {
        monitor,
        agg,
        arrivals,
        ..
    } = feed;
    ServeOutcome {
        summary: agg.into_summary(),
        health: monitor.finish(),
        makespan_ms,
        arrivals,
        merge_high_water: merger.high_water(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps what the merged stream delivered.
    #[derive(Default)]
    struct Kept(Vec<Event>);

    impl Recorder for Kept {
        fn record(&mut self, event: &Event) {
            self.0.push(event.clone());
        }
    }

    fn worker(at_ms: u64, worker: u32) -> Event {
        Event {
            at: SimTime::from_millis(at_ms),
            kind: EventKind::WorkerBegin { worker },
        }
    }

    /// A fake shard: events at 0 and 10, sealed at 5, then — unless it is
    /// `failing` — events at 20 and 30 and its last chunk.
    fn fake_shard(failing: u32) -> impl Fn(u32, &dyn Fn(ShardNote)) + Sync {
        move |id, emit| {
            emit(ShardNote::Arrivals(4));
            let mut rec = ShardRecorder::new(id);
            rec.push(worker(0, id));
            rec.push(worker(10, id));
            let frontier = rec.frontier(5);
            emit(ShardNote::Chunk(rec.seal(frontier), frontier));
            if id == failing {
                panic!("the store went away");
            }
            rec.push(worker(20, id));
            rec.push(worker(30, id));
            emit(ShardNote::Chunk(rec.seal(FINISHED), FINISHED));
        }
    }

    #[test]
    fn fake_shards_merge_in_at_seq_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let mut kept = Kept::default();
            let opts = ServeOptions::quick(1).threads(threads);
            let outcome = run_streamed(3, &opts, &mut kept, fake_shard(u32::MAX));
            let workers: Vec<(u64, u32)> = kept
                .0
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::WorkerBegin { worker } => Some((e.at.as_millis(), worker)),
                    _ => None,
                })
                .collect();
            let want: Vec<(u64, u32)> = [0, 10, 20, 30]
                .iter()
                .flat_map(|&at| (0..3).map(move |w| (at, w)))
                .collect();
            assert_eq!(workers, want, "threads {threads}");
            assert_eq!(outcome.arrivals, 12);
            assert_eq!(outcome.makespan_ms, 30);
            assert!(matches!(
                kept.0.first().map(|e| &e.kind),
                Some(EventKind::CampaignBegin { n_jobs: 12, .. })
            ));
        }
    }

    #[test]
    fn a_panicking_shard_panics_the_run_naming_it_and_never_blocks() {
        for threads in [1, 2, 4] {
            let mut kept = Kept::default();
            let opts = ServeOptions::quick(1).threads(threads);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_streamed(3, &opts, &mut kept, fake_shard(1))
            }))
            .expect_err("a failed shard fails the run");
            let message = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(message, "serve shard 1 panicked: the store went away");
            // Nothing past the dead shard's last frontier was fed, and
            // the stream was not closed as if complete.
            assert!(kept.0.iter().all(|e| e.at.as_millis() < 5), "{:?}", kept.0);
            assert!(!kept
                .0
                .iter()
                .any(|e| matches!(e.kind, EventKind::CampaignEnd { .. })));
        }
    }
}
