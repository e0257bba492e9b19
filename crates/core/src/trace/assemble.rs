//! The trace assembler: a pure fold from the event stream to span trees.
//!
//! Two feeding modes share one state machine:
//!
//! * [`TraceAssembler::ingest`] takes events already in exact virtual-time
//!   order — the [`CampaignMonitor`](crate::monitor::CampaignMonitor)
//!   calls it from the same watermark-ordered drain that feeds the
//!   sliding window, so monitored campaigns grow traces for free;
//! * [`TraceAssembler::observe`] takes events in raw emission order and
//!   reorders them through its own [`WatermarkHeap`], for standalone use
//!   over a recorded stream (benches, tests, `repro tail`). It is the
//!   same fold the monitor runs ([`WatermarkHeap::observe`]), so only
//!   future-stamped events wait in the heap.
//!
//! A job trace's children partition `[JobBegin, JobEnd]` exactly: attempt
//! spans cover worker occupancy, and every gap between them is decomposed
//! — in priority order — into retry backoff (from the preceding `Retry`),
//! breaker wait (from the preceding `BreakerDefer`), rebootstrap
//! quarantine (while the job's endpoint is between `RebootstrapStarted`
//! and `RebootstrapCompleted`), shed parking (between `ShedCut` and
//! `ShedRaise`) and plain queue wait for whatever remains. That exact
//! partition is what lets the attribution report sum to the trace's
//! duration to the millisecond.
//!
//! Serve traces are flat: a `Serve` root from arrival to response with a
//! `QueueWait` child (reconstructed from the shard's FIFO discipline —
//! consecutive lookups on one shard cannot overlap service) and a
//! `CacheLookup` child for the remainder. Batch members share their
//! batch's completion instant and queue wait, mirroring the engine.
//!
//! Tags must be unique among *concurrently open* jobs, which holds for
//! every stream one assembler sees: a shard's monitor folds only its own
//! shard (one ISP — tags are address ids, unique per ISP), and serve
//! streams carry no job spans at all.
//!
//! Only the traces the reservoir keeps are ever built. An open job holds
//! compact [`Segment`]s (no labels, its endpoint an index into the
//! assembler's name table), and at `JobEnd`, as for each serve lookup,
//! [`ExemplarReservoir::admits`] decides from the trace's duration and
//! stream coordinates alone whether any [`Span`], label or [`Trace`]
//! gets made. A campaign ends tens of thousands of jobs and keeps a
//! handful.

use super::reservoir::{ExemplarReservoir, ExemplarSet};
use super::{Span, SpanKind, Trace};
use crate::monitor::{Names, WatermarkHeap};
use crate::telemetry::jsonl::{decimal_len, push_u64};
use crate::telemetry::{Event, EventKind, OutcomeCode};
use std::collections::BTreeMap;

/// `(start_ms, end_ms)` with `None` meaning "still open".
type Interval = (u64, Option<u64>);

/// One child of an open job's root span, kept unbuilt until the job ends.
#[derive(Debug)]
enum Segment {
    /// A typed gap between attempts.
    Wait {
        kind: SpanKind,
        label: &'static str,
        start_ms: u64,
        end_ms: u64,
    },
    /// One attempt, with the page fetches the stream reported for it
    /// (unclipped; only standalone mode sees them).
    Attempt {
        attempt: u32,
        outcome: OutcomeCode,
        start_ms: u64,
        end_ms: u64,
        fetches: Vec<(u64, u64)>,
    },
}

impl Segment {
    fn into_span(self) -> Span {
        match self {
            Segment::Wait {
                kind,
                label,
                start_ms,
                end_ms,
            } => Span {
                kind,
                label: label.to_string(),
                start_ms,
                end_ms,
                children: Vec::new(),
            },
            Segment::Attempt {
                attempt,
                outcome,
                start_ms,
                end_ms,
                fetches,
            } => {
                let mut children = Vec::new();
                for (i, (fs, fe)) in fetches.into_iter().enumerate() {
                    let (fs, fe) = (fs.max(start_ms), fe.min(end_ms));
                    if fe > fs {
                        children.push(Span {
                            kind: SpanKind::PageFetch,
                            label: label("step_", Some(i as u64), None),
                            start_ms: fs,
                            end_ms: fe,
                            children: Vec::new(),
                        });
                    }
                }
                Span {
                    kind: SpanKind::Attempt,
                    label: label("attempt_", Some(u64::from(attempt)), Some(outcome.as_str())),
                    start_ms,
                    end_ms,
                    children,
                }
            }
        }
    }
}

/// One job between its `JobBegin` and `JobEnd`.
#[derive(Debug, Default)]
struct OpenJob {
    /// Index into the assembler's [`Names`].
    endpoint: u32,
    started_ms: u64,
    /// Everything before this instant is already covered by `segments`.
    cursor_ms: u64,
    segments: Vec<Segment>,
    /// `(attempt, begin_ms)` while a worker holds the job.
    open_attempt: Option<(u32, u64)>,
    /// Backoff delay announced by the last `Retry`, unconsumed.
    pending_backoff_ms: Option<u64>,
    /// Hold-until instant announced by the last `BreakerDefer`.
    pending_defer_until_ms: Option<u64>,
}

/// The open jobs by tag. Each lives in a slot that the next job reuses,
/// so its segment buffer keeps its capacity and the tag map's nodes hold
/// only slot numbers.
#[derive(Debug, Default)]
struct OpenJobs {
    by_tag: BTreeMap<u64, usize>,
    slots: Vec<OpenJob>,
    free: Vec<usize>,
}

impl OpenJobs {
    /// Opens (or, for a tag already open, restarts) job `tag`.
    fn open(&mut self, tag: u64, endpoint: u32, at_ms: u64) {
        let slot = match self.by_tag.get(&tag) {
            Some(&slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(OpenJob::default());
                    self.slots.len() - 1
                });
                self.by_tag.insert(tag, slot);
                slot
            }
        };
        if let Some(job) = self.slots.get_mut(slot) {
            let mut segments = std::mem::take(&mut job.segments);
            segments.clear();
            *job = OpenJob {
                endpoint,
                started_ms: at_ms,
                cursor_ms: at_ms,
                segments,
                ..OpenJob::default()
            };
        }
    }

    fn get_mut(&mut self, tag: u64) -> Option<&mut OpenJob> {
        let slot = *self.by_tag.get(&tag)?;
        self.slots.get_mut(slot)
    }

    /// Closes job `tag` and frees its slot. The returned job stays as it
    /// was until the slot's next `open`.
    fn close(&mut self, tag: u64) -> Option<&mut OpenJob> {
        let slot = self.by_tag.remove(&tag)?;
        self.free.push(slot);
        self.slots.get_mut(slot)
    }
}

/// Per-shard FIFO bookkeeping for serve lookups.
#[derive(Debug, Clone, Copy, Default)]
struct ServeCursor {
    done_ms: u64,
    duration_ms: u64,
    queue_wait_ms: u64,
}

/// Folds the event stream into traces and keeps the top-K slowest.
#[derive(Debug)]
pub struct TraceAssembler {
    heap: WatermarkHeap<EventKind>,
    /// Events ingested so far — the deterministic `(at, seq)` tie-break
    /// key the reservoir uses (identical for any thread count, because
    /// the merged stream order is).
    seq: u64,
    /// Job endpoints, interned: open jobs and quarantines index them.
    names: Names,
    jobs: OpenJobs,
    /// Ephemeral page-fetch spans per `(tag, attempt)`, attached at
    /// `AttemptEnd` when the stream carries them (unfiltered mode only).
    fetches: BTreeMap<(u64, u32), Vec<(u64, u64)>>,
    /// Rebootstrap quarantine intervals per endpoint index, in start order.
    quarantines: Vec<Vec<Interval>>,
    /// Campaign-wide shed intervals (`ShedCut` opens, `ShedRaise` closes).
    sheds: Vec<Interval>,
    serve_shards: BTreeMap<u32, ServeCursor>,
    reservoir: ExemplarReservoir,
    makespan_ms: u64,
}

/// A span label, `"{head}{n}:{outcome}"` with `n` and `:{outcome}` each
/// left out when `None`, built at its exact length without the formatter.
fn label(head: &str, n: Option<u64>, outcome: Option<&str>) -> String {
    let len = head.len() + n.map_or(0, decimal_len) + outcome.map_or(0, |o| 1 + o.len());
    let mut label = String::with_capacity(len);
    label.push_str(head);
    if let Some(n) = n {
        push_u64(&mut label, n);
    }
    if let Some(outcome) = outcome {
        label.push(':');
        label.push_str(outcome);
    }
    label
}

impl TraceAssembler {
    /// `k` is the global exemplar capacity; the slowest trace per
    /// endpoint is tracked regardless.
    pub fn new(k: usize) -> Self {
        Self {
            heap: WatermarkHeap::new(),
            seq: 0,
            names: Names::default(),
            jobs: OpenJobs::default(),
            fetches: BTreeMap::new(),
            quarantines: Vec::new(),
            sheds: Vec::new(),
            serve_shards: BTreeMap::new(),
            reservoir: ExemplarReservoir::new(k),
            makespan_ms: 0,
        }
    }

    /// Standalone mode: feeds one event in raw emission order, reordering
    /// through the assembler's own watermark heap exactly like the
    /// monitor does.
    pub fn observe(&mut self, event: &Event) {
        // The heap is taken out so its fold can borrow the assembler.
        let mut heap = std::mem::take(&mut self.heap);
        heap.observe(event, |at_ms, kind| self.ingest(at_ms, kind));
        self.heap = heap;
    }

    /// The quarantine intervals of `endpoint`, created on first use.
    fn quarantines_mut(&mut self, endpoint: &str) -> &mut Vec<Interval> {
        let id = self.names.intern(endpoint) as usize;
        if self.quarantines.len() <= id {
            self.quarantines.resize_with(id + 1, Vec::new);
        }
        &mut self.quarantines[id]
    }

    /// Folds one event already in exact virtual-time order (the
    /// monitor's post-watermark drain).
    pub fn ingest(&mut self, at_ms: u64, kind: &EventKind) {
        self.seq += 1;
        match kind {
            EventKind::CampaignEnd { makespan_ms } => {
                self.makespan_ms = self.makespan_ms.max(*makespan_ms);
            }
            EventKind::JobBegin { tag, endpoint } => {
                let endpoint = self.names.intern(endpoint);
                self.jobs.open(*tag, endpoint, at_ms);
            }
            EventKind::AttemptBegin { tag, attempt, .. } => {
                if let Some(job) = self.jobs.get_mut(*tag) {
                    close_gap(job, at_ms, &self.quarantines, &self.sheds);
                    job.open_attempt = Some((*attempt, at_ms));
                }
            }
            EventKind::AttemptEnd {
                tag,
                attempt,
                outcome,
                duration_ms,
                ..
            } => {
                let fetches = self.fetches.remove(&(*tag, *attempt)).unwrap_or_default();
                if let Some(job) = self.jobs.get_mut(*tag) {
                    let start_ms = job
                        .open_attempt
                        .take()
                        .map_or_else(|| at_ms.saturating_sub(*duration_ms), |(_, begin)| begin);
                    job.segments.push(Segment::Attempt {
                        attempt: *attempt,
                        outcome: *outcome,
                        start_ms,
                        end_ms: at_ms,
                        fetches,
                    });
                    job.cursor_ms = at_ms;
                }
            }
            EventKind::Retry { tag, delay_ms, .. } => {
                if let Some(job) = self.jobs.get_mut(*tag) {
                    job.pending_backoff_ms = Some(*delay_ms);
                }
            }
            EventKind::BreakerDefer { tag, until_ms, .. } => {
                if let Some(job) = self.jobs.get_mut(*tag) {
                    job.pending_defer_until_ms = Some(*until_ms);
                }
            }
            EventKind::JobEnd { tag, outcome, .. } => {
                if let Some(job) = self.jobs.close(*tag) {
                    close_gap(job, at_ms, &self.quarantines, &self.sheds);
                    let endpoint = self.names.name(job.endpoint);
                    let duration_ms = at_ms.saturating_sub(job.started_ms);
                    if self
                        .reservoir
                        .admits(endpoint, duration_ms, at_ms, self.seq)
                    {
                        let root = Span {
                            kind: SpanKind::Job,
                            label: label(endpoint, None, Some(outcome.as_str())),
                            start_ms: job.started_ms,
                            end_ms: at_ms,
                            children: job.segments.drain(..).map(Segment::into_span).collect(),
                        };
                        let trace = Trace {
                            tag: *tag,
                            endpoint: endpoint.to_string(),
                            root,
                        };
                        self.reservoir.offer(trace, at_ms, self.seq);
                    }
                }
            }
            EventKind::ShedCut { .. } if !matches!(self.sheds.last(), Some((_, None))) => {
                self.sheds.push((at_ms, None));
            }
            EventKind::ShedCut { .. } => {}
            EventKind::ShedRaise { .. } => {
                if let Some((_, end @ None)) = self.sheds.last_mut() {
                    *end = Some(at_ms);
                }
            }
            EventKind::RebootstrapStarted { endpoint } => {
                let intervals = self.quarantines_mut(endpoint);
                if !matches!(intervals.last(), Some((_, None))) {
                    intervals.push((at_ms, None));
                }
            }
            EventKind::RebootstrapCompleted { endpoint, .. } => {
                if let Some((_, end @ None)) = self.quarantines_mut(endpoint).last_mut() {
                    *end = Some(at_ms);
                }
            }
            EventKind::PageFetchEnd {
                tag,
                attempt,
                duration_ms,
                ..
            } => {
                self.fetches
                    .entry((*tag, *attempt))
                    .or_default()
                    .push((at_ms.saturating_sub(*duration_ms), at_ms));
            }
            EventKind::ServeLookupEnd {
                tag,
                shard,
                endpoint,
                outcome,
                cache_hit,
                duration_ms,
            } => {
                let arrival = at_ms.saturating_sub(*duration_ms);
                let cursor = self.serve_shards.entry(*shard).or_default();
                // Batch members complete together: same shard, same
                // (done, duration) — reuse the batch's queue wait. The
                // shard's FIFO makes `done` strictly increase otherwise.
                let queue_wait = if at_ms == cursor.done_ms && *duration_ms == cursor.duration_ms {
                    cursor.queue_wait_ms
                } else {
                    let wait = cursor.done_ms.saturating_sub(arrival).min(*duration_ms);
                    *cursor = ServeCursor {
                        done_ms: at_ms,
                        duration_ms: *duration_ms,
                        queue_wait_ms: wait,
                    };
                    wait
                };
                if !self
                    .reservoir
                    .admits(endpoint, at_ms - arrival, at_ms, self.seq)
                {
                    return;
                }
                let mut root = Span {
                    kind: SpanKind::Serve,
                    label: label(endpoint, None, Some(outcome.as_str())),
                    start_ms: arrival,
                    end_ms: at_ms,
                    children: Vec::new(),
                };
                if queue_wait > 0 {
                    root.children.push(Span {
                        kind: SpanKind::QueueWait,
                        label: "queue".into(),
                        start_ms: arrival,
                        end_ms: arrival + queue_wait,
                        children: Vec::new(),
                    });
                }
                if at_ms > arrival + queue_wait {
                    root.children.push(Span {
                        kind: SpanKind::CacheLookup,
                        label: if *cache_hit {
                            "cache_hit"
                        } else {
                            "cache_miss"
                        }
                        .into(),
                        start_ms: arrival + queue_wait,
                        end_ms: at_ms,
                        children: Vec::new(),
                    });
                }
                self.reservoir.offer(
                    Trace {
                        tag: *tag,
                        endpoint: endpoint.to_string(),
                        root,
                    },
                    at_ms,
                    self.seq,
                );
            }
            _ => {}
        }
    }

    /// The current exemplar ids, comma-joined — what `AlertFired` carries.
    pub fn exemplar_csv(&self) -> String {
        self.reservoir.csv()
    }

    /// Traces assembled so far that ended at or before nowhere — the live
    /// reservoir snapshot (for dashboards).
    pub fn exemplars(&self) -> ExemplarSet {
        self.reservoir.snapshot()
    }

    pub fn makespan_ms(&self) -> u64 {
        self.makespan_ms
    }

    /// Flushes standalone-mode events still in the heap and condenses
    /// into the final exemplar set. Jobs left open by a truncated stream
    /// (a simulated crash) are dropped — the resumed stream re-plays them
    /// to completion.
    pub fn finish(mut self) -> ExemplarSet {
        let mut heap = std::mem::take(&mut self.heap);
        heap.flush(|at_ms, kind| self.ingest(at_ms, kind));
        self.reservoir.into_set()
    }
}

/// Decomposes `[job.cursor_ms, end_ms)` into typed wait segments appended
/// to `job.segments`, consuming any pending backoff/defer marker. The
/// segments partition the gap exactly.
fn close_gap(job: &mut OpenJob, end_ms: u64, quarantines: &[Vec<Interval>], sheds: &[Interval]) {
    let backoff = job.pending_backoff_ms.take();
    let defer = job.pending_defer_until_ms.take();
    let mut cur = job.cursor_ms;
    if cur >= end_ms {
        return;
    }
    if let Some(delay) = backoff {
        let seg_end = cur.saturating_add(delay).min(end_ms);
        cur = push_wait(job, SpanKind::RetryBackoff, "backoff", cur, seg_end);
    }
    if let Some(until) = defer {
        let seg_end = until.clamp(cur, end_ms);
        cur = push_wait(job, SpanKind::BreakerWait, "breaker", cur, seg_end);
    }
    let quars = quarantines
        .get(job.endpoint as usize)
        .map_or(&[][..], Vec::as_slice);
    while cur < end_ms {
        if let Some(seg_end) = covering_end(quars, cur) {
            cur = push_wait(
                job,
                SpanKind::Rebootstrap,
                "quarantine",
                cur,
                seg_end.min(end_ms),
            );
        } else if let Some(seg_end) = covering_end(sheds, cur) {
            cur = push_wait(job, SpanKind::Shed, "shed", cur, seg_end.min(end_ms));
        } else {
            let seg_end = next_interval_start(quars, sheds, cur).min(end_ms);
            cur = push_wait(job, SpanKind::QueueWait, "queue", cur, seg_end);
        }
    }
    job.cursor_ms = end_ms;
}

fn push_wait(
    job: &mut OpenJob,
    kind: SpanKind,
    label: &'static str,
    start_ms: u64,
    end_ms: u64,
) -> u64 {
    if end_ms > start_ms {
        job.segments.push(Segment::Wait {
            kind,
            label,
            start_ms,
            end_ms,
        });
    }
    end_ms.max(start_ms)
}

/// If some interval covers `at`, its effective end (open = forever).
fn covering_end(intervals: &[Interval], at: u64) -> Option<u64> {
    intervals
        .iter()
        .filter(|(start, end)| *start <= at && end.is_none_or(|e| e > at))
        .map(|(_, end)| end.unwrap_or(u64::MAX))
        .max()
}

/// The earliest interval start strictly after `at` (so a queue-wait
/// segment ends exactly where a quarantine or shed segment begins).
fn next_interval_start(quarantines: &[Interval], sheds: &[Interval], at: u64) -> u64 {
    quarantines
        .iter()
        .chain(sheds)
        .map(|(start, _)| *start)
        .filter(|start| *start > at)
        .min()
        .unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OutcomeCode;
    use bbsim_net::SimTime;

    fn ev(ms: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_millis(ms),
            kind,
        }
    }

    #[test]
    fn labels_match_the_formatter_at_exact_capacity() {
        for n in [0, 7, 10, 99, 1_000, u64::from(u32::MAX), u64::MAX] {
            for outcome in ["plans", "no_service", ""] {
                let attempt = label("attempt_", Some(n), Some(outcome));
                assert_eq!(attempt, format!("attempt_{n}:{outcome}"));
                assert_eq!(attempt.capacity(), attempt.len());
                let job = label("att/Billings", None, Some(outcome));
                assert_eq!(job, format!("att/Billings:{outcome}"));
                assert_eq!(job.capacity(), job.len());
            }
            let step = label("step_", Some(n), None);
            assert_eq!(step, format!("step_{n}"));
            assert_eq!(step.capacity(), step.len());
        }
    }

    fn attempt_begin(tag: u64, attempt: u32, ms: u64) -> Event {
        ev(
            ms,
            EventKind::AttemptBegin {
                tag,
                attempt,
                worker: 0,
                endpoint: "isp/city".into(),
            },
        )
    }

    fn attempt_end(tag: u64, attempt: u32, ms: u64, duration: u64, outcome: OutcomeCode) -> Event {
        ev(
            ms,
            EventKind::AttemptEnd {
                tag,
                attempt,
                worker: 0,
                endpoint: "isp/city".into(),
                outcome,
                duration_ms: duration,
                steps: 2,
            },
        )
    }

    fn feed(events: &[Event]) -> ExemplarSet {
        let mut asm = TraceAssembler::new(4);
        for e in events {
            asm.observe(e);
        }
        asm.finish()
    }

    #[test]
    fn a_retried_job_decomposes_into_attempts_backoff_and_queue_wait() {
        let set = feed(&[
            ev(
                0,
                EventKind::JobBegin {
                    tag: 7,
                    endpoint: "isp/city".into(),
                },
            ),
            attempt_begin(7, 1, 1_000),
            attempt_end(7, 1, 5_000, 4_000, OutcomeCode::Failed),
            ev(
                5_000,
                EventKind::Retry {
                    tag: 7,
                    next_attempt: 2,
                    delay_ms: 2_000,
                },
            ),
            attempt_begin(7, 2, 8_000),
            attempt_end(7, 2, 12_000, 4_000, OutcomeCode::Plans),
            ev(
                12_000,
                EventKind::JobEnd {
                    tag: 7,
                    outcome: OutcomeCode::Plans,
                    attempts: 2,
                    dead_lettered: false,
                },
            ),
            ev(
                20_000,
                EventKind::CampaignEnd {
                    makespan_ms: 20_000,
                },
            ),
        ]);
        let trace = &set.global[0];
        assert_eq!(trace.tag, 7);
        assert_eq!(trace.duration_ms(), 12_000);
        let kinds: Vec<(SpanKind, u64)> = trace
            .root
            .children
            .iter()
            .map(|s| (s.kind, s.duration_ms()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (SpanKind::QueueWait, 1_000),
                (SpanKind::Attempt, 4_000),
                (SpanKind::RetryBackoff, 2_000),
                (SpanKind::QueueWait, 1_000),
                (SpanKind::Attempt, 4_000),
            ]
        );
        // The children partition the job exactly.
        let covered: u64 = trace.root.children.iter().map(Span::duration_ms).sum();
        assert_eq!(covered, trace.duration_ms());
    }

    #[test]
    fn breaker_defer_and_quarantine_type_the_waits() {
        let set = feed(&[
            ev(
                0,
                EventKind::JobBegin {
                    tag: 1,
                    endpoint: "isp/city".into(),
                },
            ),
            attempt_begin(1, 1, 0),
            attempt_end(1, 1, 2_000, 2_000, OutcomeCode::Failed),
            ev(
                2_000,
                EventKind::BreakerDefer {
                    tag: 1,
                    endpoint: "isp/city".into(),
                    until_ms: 6_000,
                },
            ),
            ev(
                6_000,
                EventKind::RebootstrapStarted {
                    endpoint: "isp/city".into(),
                },
            ),
            ev(
                9_000,
                EventKind::RebootstrapCompleted {
                    endpoint: "isp/city".into(),
                    confidence_pct: 95,
                },
            ),
            attempt_begin(1, 2, 10_000),
            attempt_end(1, 2, 11_000, 1_000, OutcomeCode::Plans),
            ev(
                11_000,
                EventKind::JobEnd {
                    tag: 1,
                    outcome: OutcomeCode::Plans,
                    attempts: 2,
                    dead_lettered: false,
                },
            ),
            ev(
                11_000,
                EventKind::CampaignEnd {
                    makespan_ms: 11_000,
                },
            ),
        ]);
        let kinds: Vec<(SpanKind, u64)> = set.global[0]
            .root
            .children
            .iter()
            .map(|s| (s.kind, s.duration_ms()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                (SpanKind::Attempt, 2_000),
                (SpanKind::BreakerWait, 4_000),
                (SpanKind::Rebootstrap, 3_000),
                (SpanKind::QueueWait, 1_000),
                (SpanKind::Attempt, 1_000),
            ]
        );
    }

    #[test]
    fn serve_lookups_split_into_queue_wait_and_cache_lookup() {
        let lookup = |tag: u64, done: u64, duration: u64, cache_hit: bool| {
            ev(
                done,
                EventKind::ServeLookupEnd {
                    tag,
                    shard: 0,
                    endpoint: "billings/centurylink".into(),
                    outcome: OutcomeCode::Plans,
                    cache_hit,
                    duration_ms: duration,
                },
            )
        };
        // Arrival 0 served immediately (10ms); arrival 5 queues behind it
        // until 10, served by 25 → 5ms wait, 15ms service.
        let set = feed(&[
            lookup(1, 10, 10, false),
            lookup(2, 25, 20, true),
            ev(25, EventKind::CampaignEnd { makespan_ms: 25 }),
        ]);
        let slow = &set.global[0];
        assert_eq!(slow.tag, 2);
        let kinds: Vec<(SpanKind, u64)> = slow
            .root
            .children
            .iter()
            .map(|s| (s.kind, s.duration_ms()))
            .collect();
        assert_eq!(
            kinds,
            vec![(SpanKind::QueueWait, 5), (SpanKind::CacheLookup, 15)]
        );
        assert_eq!(slow.root.children[1].label, "cache_hit");
    }

    #[test]
    fn batch_members_share_their_batch_queue_wait() {
        let lookup = |tag: u64, done: u64, duration: u64| {
            ev(
                done,
                EventKind::ServeLookupEnd {
                    tag,
                    shard: 3,
                    endpoint: "billings/centurylink".into(),
                    outcome: OutcomeCode::Plans,
                    cache_hit: false,
                    duration_ms: duration,
                },
            )
        };
        // One batch: same (done, duration) twice on one shard.
        let set = feed(&[
            lookup(1, 100, 40),
            lookup(2, 100, 40),
            ev(100, EventKind::CampaignEnd { makespan_ms: 100 }),
        ]);
        let waits: Vec<u64> = [&set.global[0], &set.global[1]]
            .iter()
            .map(|t| {
                t.root
                    .children
                    .iter()
                    .filter(|s| s.kind == SpanKind::QueueWait)
                    .map(Span::duration_ms)
                    .sum()
            })
            .collect();
        assert_eq!(waits[0], waits[1]);
    }

    #[test]
    fn out_of_order_emission_is_reordered_before_folding() {
        // AttemptEnd emitted before an earlier-stamped AttemptBegin of
        // another job: the heap must restore time order.
        let mut asm = TraceAssembler::new(2);
        asm.observe(&ev(
            0,
            EventKind::JobBegin {
                tag: 1,
                endpoint: "isp/city".into(),
            },
        ));
        asm.observe(&ev(
            0,
            EventKind::JobBegin {
                tag: 2,
                endpoint: "isp/city".into(),
            },
        ));
        asm.observe(&attempt_begin(1, 1, 0));
        // Stamped late, emitted early.
        asm.observe(&attempt_end(1, 1, 9_000, 9_000, OutcomeCode::Plans));
        asm.observe(&attempt_begin(2, 1, 1_000));
        asm.observe(&attempt_end(2, 1, 3_000, 2_000, OutcomeCode::Plans));
        asm.observe(&ev(
            3_000,
            EventKind::JobEnd {
                tag: 2,
                outcome: OutcomeCode::Plans,
                attempts: 1,
                dead_lettered: false,
            },
        ));
        asm.observe(&ev(
            9_000,
            EventKind::JobEnd {
                tag: 1,
                outcome: OutcomeCode::Plans,
                attempts: 1,
                dead_lettered: false,
            },
        ));
        asm.observe(&ev(9_000, EventKind::CampaignEnd { makespan_ms: 9_000 }));
        let set = asm.finish();
        assert_eq!(set.global.len(), 2);
        assert_eq!(set.global[0].tag, 1, "slowest first");
        assert_eq!(set.global[0].duration_ms(), 9_000);
    }

    #[test]
    fn exemplar_csv_is_the_joined_trace_ids() {
        let mut asm = TraceAssembler::new(2);
        assert_eq!(asm.exemplar_csv(), "");
        asm.ingest(
            0,
            &EventKind::JobBegin {
                tag: 0x2a,
                endpoint: "centurylink".into(),
            },
        );
        asm.ingest(
            5_000,
            &EventKind::JobEnd {
                tag: 0x2a,
                outcome: OutcomeCode::Plans,
                attempts: 1,
                dead_lettered: false,
            },
        );
        assert_eq!(asm.exemplar_csv(), "centurylink:2a@0");
    }
}
