//! The sharded serve campaign engine: replays a seeded load schedule
//! against every shard's serving stack on the virtual clock, under the
//! same multi-core discipline as `bqt::shard` — and with the same
//! byte-identity guarantee across thread counts.
//!
//! Each shard runs as one virtual worker: its own [`ShardRecorder`]
//! (namespaced event seqs), its own hermetic [`Transport`] carrying its
//! own [`PlanService`] endpoint, its own arrival schedule. A FIFO queue
//! discipline turns arrival times into lookup latencies — an arrival
//! whose queue wait would exceed `SHED_WAIT_MS` is refused with a
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
//! can still send one below it and emits it, in `(at, seq)` order, into
//! the [`Telemetry`] pipeline campaigns use: the metrics aggregator and
//! the caller's recorder (detached if it panics), then the SLO monitor,
//! then the monitor's alerts to both. Nothing in the merged stream or
//! anything derived from it depends on how shards were packed onto OS
//! threads, and only what sits between the slowest shard's frontier and
//! the others' is buffered.

use crate::api::{ServeAnswer, ServeRequest, ServeResponse};
use crate::load::{Arrival, LoadPhase};
use crate::service::{cache_flag_iter, evicted_key_iter, PlanService, ServeCosts};
use crate::store::{PlanStore, ShardIndex};
use bbsim_net::{Endpoint, LatencyModel, SimDuration, SimIp, SimTime, Transport};
use bqt::monitor::{CampaignMonitor, MonitorPolicy};
use bqt::telemetry::{EventSink, OutcomeCode};
use bqt::{
    Event, EventKind, HealthReport, MergeKey, MergeSink, Recorder, SeqEvent, ShardRecorder,
    SloRule, StreamMerger, Telemetry, TelemetrySummary, FINISHED,
};
use std::sync::Arc;

/// Arrivals between two seals of a shard's pending events: small enough
/// that the merge trails a running shard by a few hundred arrivals,
/// large enough that waking the consumer per chunk stays off the
/// profile.
const SEAL_EVERY: usize = 512;

/// Queue wait beyond which an arrival is refused (shed).
const SHED_WAIT_MS: u64 = 2_000;

/// One-way link latency between requesters and a shard.
const LINK_LATENCY_MS: u64 = 0;

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
    /// Per-lookup virtual processing costs.
    pub costs: ServeCosts,
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
            costs: ServeCosts::paper_default(),
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
            costs: ServeCosts::paper_default(),
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

/// Runs shard `shard_id`'s full schedule, sending its arrival count, then
/// its namespaced event stream as sealed chunks ending with [`FINISHED`].
fn run_shard(
    store: &Arc<PlanStore>,
    shard: &ShardIndex,
    opts: &ServeOptions,
    shard_id: u32,
    emit: &dyn Fn(ShardNote),
) {
    let endpoint = shard.endpoint();
    // Interned once: every event of the shard clones this `Arc`, not the
    // text.
    let interned: Arc<str> = Arc::from(endpoint.as_str());
    let schedule = crate::load::generate_schedule(shard_id, shard, &opts.phases, opts.seed);
    emit(ShardNote::Arrivals(schedule.len() as u64));

    let mut rec = ShardRecorder::new(shard_id);
    rec.push(Event {
        at: SimTime::ZERO,
        kind: EventKind::WorkerBegin { worker: shard_id },
    });

    let mut transport = Transport::hermetic(opts.seed);
    transport.register(
        endpoint,
        Endpoint::new(
            Box::new(PlanService::new(
                store.clone(),
                opts.cache_capacity,
                opts.costs,
            )),
            LatencyModel::constant(SimDuration::from_millis(LINK_LATENCY_MS)),
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
        if wait > SHED_WAIT_MS {
            rec.push(Event {
                at: SimTime::from_millis(at_ms),
                kind: EventKind::ServeShed {
                    shard: shard_id,
                    endpoint: interned.clone(),
                },
            });
            continue;
        }
        let send_at = at_ms.max(prev_done);
        let http = request.to_http();
        let (resp, rt) = transport
            .round_trip(&interned, src, &http, SimTime::from_millis(send_at))
            // lint:allow(T2): the endpoint is registered above on a transport with no fault plan, and every request is framed and re-parsed from its own wire form
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
                    endpoint: interned.clone(),
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

/// The serial consumer of the merged stream: the campaign [`Telemetry`]
/// pipeline with the SLO monitor installed and the caller's recorder
/// attached, plus the merge's own bookkeeping.
struct Feed<'r> {
    telemetry: Telemetry<'r>,
    seed: u64,
    n_shards: u32,
    /// Arrivals across all shards, once every shard has declared.
    arrivals: u64,
    /// Virtual time of the last merged event.
    last_ms: u64,
}

impl MergeSink for Feed<'_> {
    fn begin(&mut self, total: u64) {
        self.arrivals = total;
        self.telemetry.emit(
            SimTime::ZERO,
            EventKind::CampaignBegin {
                seed: self.seed,
                n_jobs: total.min(u64::from(u32::MAX)) as u32,
                n_workers: self.n_shards,
            },
        );
    }

    fn event(&mut self, event: Event) {
        self.last_ms = event.at.as_millis();
        self.telemetry.emit(event.at, event.kind);
    }
}

/// Runs the serve campaign and discards the event stream.
pub fn run(store: &Arc<PlanStore>, opts: &ServeOptions) -> ServeOutcome {
    run_streamed(store.shards(), opts, None, |id, shard, emit| {
        run_shard(store, shard, opts, id, emit)
    })
}

/// Runs the serve campaign, feeding the merged, time-ordered stream —
/// plus the monitor's synthesized alert events at their stream
/// positions — through `recorder`.
///
/// Shards run on `opts.threads` [`bqt::exec`] worker threads while the
/// calling thread merges their sealed chunks and feeds them through a
/// [`Telemetry`] pipeline: aggregator and `recorder`, then the monitor,
/// then the monitor's alerts to both. The merged stream, the health
/// report, the telemetry summary and everything the recorder sees are
/// byte-identical for any thread count. A recorder that panics is
/// detached and the run carries on, as in a campaign.
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
    run_streamed(store.shards(), opts, Some(recorder), |id, shard, emit| {
        run_shard(store, shard, opts, id, emit)
    })
}

/// [`run_recorded`] over `shards`, shard `id` run by `shard(id, &shards[id], emit)`.
fn run_streamed<T: Sync>(
    shards: &[T],
    opts: &ServeOptions,
    recorder: Option<&mut dyn Recorder>,
    shard: impl Fn(u32, &T, &dyn Fn(ShardNote)) + Sync,
) -> ServeOutcome {
    let n_shards = shards.len();
    let mut merger = StreamMerger::new(n_shards);
    let mut telemetry = Telemetry::new();
    telemetry.set_monitor(CampaignMonitor::new(opts.policy.clone()));
    if let Some(recorder) = recorder {
        telemetry.attach(recorder);
    }
    let mut feed = Feed {
        telemetry,
        seed: opts.seed,
        n_shards: n_shards as u32,
        arrivals: 0,
        last_ms: 0,
    };
    let results = bqt::exec::run(
        shards,
        opts.threads,
        // Every shard replays the same phases, so arrival counts match
        // in expectation; equal costs dispatch in shard order.
        |_| 1,
        |id, task, emit| shard(id as u32, task, emit),
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
            // lint:allow(T2): a failed shard ends the run loudly, never as a stream cut short; a_panicking_shard_panics_the_run_naming_it_and_never_blocks pins it
            panic!("serve {failed}");
        }
    }
    // Every shard finished, so this only matters for a store with no
    // shards, where `begin` has not run yet.
    merger.release(&mut feed);
    let Feed {
        mut telemetry,
        arrivals,
        last_ms: makespan_ms,
        ..
    } = feed;
    telemetry.emit(
        SimTime::from_millis(makespan_ms),
        EventKind::CampaignEnd { makespan_ms },
    );
    ServeOutcome {
        summary: telemetry.summary(),
        health: telemetry
            .take_monitor()
            .map(|m| m.finish())
            .unwrap_or_default(),
        makespan_ms,
        arrivals,
        merge_high_water: merger.high_water(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(at_ms: u64, worker: u32) -> Event {
        Event {
            at: SimTime::from_millis(at_ms),
            kind: EventKind::WorkerBegin { worker },
        }
    }

    /// A fake shard: events at 0 and 10, sealed at 5, then — unless it is
    /// `failing` — events at 20 and 30 and its last chunk.
    fn fake_shard(failing: u32) -> impl Fn(u32, &(), &dyn Fn(ShardNote)) + Sync {
        move |id, _, emit| {
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
            let mut kept: Vec<Event> = Vec::new();
            let opts = ServeOptions::quick(1).threads(threads);
            let outcome = run_streamed(&[(); 3], &opts, Some(&mut kept), fake_shard(u32::MAX));
            let workers: Vec<(u64, u32)> = kept
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
                kept.first().map(|e| &e.kind),
                Some(EventKind::CampaignBegin { n_jobs: 12, .. })
            ));
        }
    }

    /// Counts its calls and panics on the `panic_on`-th.
    struct Bomb {
        calls: u64,
        panic_on: u64,
    }

    impl Recorder for Bomb {
        fn record(&mut self, _event: &Event) {
            self.calls += 1;
            if self.calls == self.panic_on {
                panic!("recorder blew up");
            }
        }
    }

    #[test]
    fn a_panicking_recorder_is_detached_and_the_run_completes() {
        for threads in [1, 2, 4] {
            let opts = ServeOptions::quick(1).threads(threads);
            let mut healthy: Vec<Event> = Vec::new();
            let want = run_streamed(&[(); 3], &opts, Some(&mut healthy), fake_shard(u32::MAX));
            let mut bomb = Bomb {
                calls: 0,
                panic_on: 10,
            };
            let got = run_streamed(&[(); 3], &opts, Some(&mut bomb), fake_shard(u32::MAX));
            assert!(healthy.len() > 10, "the stream outlasts the bomb");
            assert_eq!(bomb.calls, 10, "never called again after it panicked");
            assert_eq!(got.arrivals, want.arrivals);
            assert_eq!(got.makespan_ms, want.makespan_ms);
            assert_eq!(format!("{:?}", got.summary), format!("{:?}", want.summary));
            assert_eq!(got.health.alerts, want.health.alerts);
        }
    }

    #[test]
    fn a_panicking_shard_panics_the_run_naming_it_and_never_blocks() {
        for threads in [1, 2, 4] {
            let mut kept: Vec<Event> = Vec::new();
            let opts = ServeOptions::quick(1).threads(threads);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_streamed(&[(); 3], &opts, Some(&mut kept), fake_shard(1))
            }))
            .expect_err("a failed shard fails the run");
            let message = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(message, "serve shard 1 panicked: the store went away");
            // Nothing past the dead shard's last frontier was fed, and
            // the stream was not closed as if complete.
            assert!(kept.iter().all(|e| e.at.as_millis() < 5), "{kept:?}");
            assert!(!kept
                .iter()
                .any(|e| matches!(e.kind, EventKind::CampaignEnd { .. })));
        }
    }
}
