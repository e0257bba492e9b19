//! Structured, deterministic run telemetry (the ROADMAP's observability
//! layer).
//!
//! Every campaign narrates itself as a stream of typed [`Event`]s on the
//! virtual clock: nested spans (campaign → worker → job → attempt →
//! page-fetch) plus instants for the supervision machinery (retries,
//! breaker trips, shed decisions, stall reclaims, journal replays, fault
//! injections). The orchestrator and driver emit events inline with the
//! discrete-event loop; everything an operator used to dig out of ad-hoc
//! report fields is now derivable from the stream.
//!
//! ## Schema
//!
//! [`EventKind`] is declared once, in the `event_schema!` invocation
//! below: each variant with its fields, its JSONL name and whether it is
//! replay-stable. The macro generates the enum, [`EventKind::name`],
//! [`EventKind::replay_stable`] and the per-kind field codec that
//! [`jsonl`] drives, so no per-variant table is written twice. The string
//! enums [`OutcomeCode`] and [`FaultClass`] (and the trace layer's span
//! kinds) come from `wire_enum!` the same way. Only consumers that decide
//! something per variant, such as [`MetricsAggregator::observe`], are
//! written by hand, and divide-lint's E1 rule keeps them exhaustive.
//!
//! ## Recorders
//!
//! A [`Recorder`] receives each event by reference. Shipped recorders:
//!
//! * `Vec<Event>` — keeps every event in memory, in emission order;
//! * [`JsonlRecorder`] — writes one canonical JSON object per line, exactly
//!   re-parseable with [`jsonl::parse_line`];
//! * [`MetricsAggregator`] — folds the stream into counter families and
//!   per-endpoint histograms ([`TelemetrySummary`]); one is
//!   always attached internally, and its summary lands in
//!   `OrchestratorReport::telemetry`.
//!
//! External recorders are fed through one fan-out: [`Telemetry`] delivers
//! through it while a campaign runs or a serve run merges its shards, and
//! a sharded campaign delivers its merged stream through it once the
//! shards finish. A recorder that panics is *poisoned* — dropped from the
//! fan-out for the rest of the run — so a broken observer can never take
//! a campaign down with it.
//!
//! ## Determinism
//!
//! Events are derived from the same seeded draws as execution, so two runs
//! of the same campaign produce identical streams. Events are further
//! classified as *replay-stable* ([`EventKind::replay_stable`]) or
//! *ephemeral*: a journaled resume retraces the stable subset byte-for-byte
//! (the schedule, outcomes and virtual times are reconstructed from the
//! journal), while ephemeral events — per-page fetches, fault injections,
//! replay markers — describe transport work that a replayed attempt never
//! performs. Filter to stable events (`JsonlRecorder::stable`) when a log
//! must survive crash/resume unchanged.

mod aggregate;
pub mod jsonl;

pub use aggregate::{EndpointStats, Histogram, MetricsAggregator, ResumeStats, TelemetrySummary};
use jsonl::Wire;
pub use jsonl::{JsonlRecorder, ParseError};

use crate::driver::QueryOutcome;
use crate::monitor::CampaignMonitor;
use bbsim_net::SimTime;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Declares a unit enum together with its wire-name map: `as_str` gives
/// each variant's name and `parse` reads it back. Used for every closed
/// string enum in the telemetry and trace schemas.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $name {
            /// The variant's wire name.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )*
                }
            }

            /// The variant whose wire name is `s`.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $( $wire => Some($name::$variant), )*
                    _ => None,
                }
            }
        }
    };
}
pub(crate) use wire_enum;

/// Declares [`EventKind`] once. Each variant lists its fields, its JSONL
/// name and whether it is `stable` or `ephemeral` under replay; from that
/// the macro generates the enum, [`EventKind::name`],
/// [`EventKind::replay_stable`] and the per-kind field writer and reader
/// behind [`jsonl::to_line`] and [`jsonl::parse_line`]. A field's JSONL
/// key is its name, and fields go on the line in declaration order.
macro_rules! event_schema {
    (
        $(#[$meta:meta])*
        pub enum $kind:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
                } = $wire:literal $stability:ident,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $kind {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl $kind {
            /// The event's name in the JSONL schema.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $kind::$variant { .. } => $wire, )*
                }
            }

            /// Whether a journaled resume retraces this event identically.
            ///
            /// Stable events are functions of the campaign's schedule,
            /// outcomes and virtual times — all reconstructed exactly from
            /// the journal. The ephemeral ones describe live transport work
            /// (page fetches, fault injections) or the act of replaying
            /// itself, which an uninterrupted run and a resumed run
            /// necessarily disagree on.
            pub fn replay_stable(&self) -> bool {
                match self {
                    $( $kind::$variant { .. } => event_schema!(@stable $stability), )*
                }
            }

            /// Writes the kind's fields in declaration order.
            fn write_fields(&self, w: &mut jsonl::LineWriter<'_>) {
                match self {
                    $( $kind::$variant { $($field,)* } => {
                        $( Wire::write($field, w, stringify!($field)); )*
                    } )*
                }
            }

            /// Reads the fields of the kind named `ev`, in declaration order.
            fn read_fields(ev: &str, f: &mut jsonl::Fields<'_>) -> Result<Self, ParseError> {
                Ok(match ev {
                    $( $wire => $kind::$variant {
                        $( $field: Wire::read(f, stringify!($field))?, )*
                    }, )*
                    other => return Err(ParseError::new(format!("unknown event name {other:?}"))),
                })
            }
        }
    };
    (@stable stable) => { true };
    (@stable ephemeral) => { false };
}

/// One telemetry event: a kind stamped with virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time of the event (span begins/ends carry their own edge).
    pub at: SimTime,
    pub kind: EventKind,
}

wire_enum! {
    /// Outcome of a finished attempt, in event form.
    ///
    /// [`QueryOutcome`] carries the scraped plans; events only need the
    /// classification, so this is the flattened code that also round-trips
    /// through the JSONL schema.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum OutcomeCode {
        Plans = "plans",
        NoService = "no_service",
        Unserviceable = "unserviceable",
        Blocked = "blocked",
        Failed = "failed",
        Stalled = "stalled",
    }
}

impl OutcomeCode {
    /// Flattens a driver outcome to its code.
    pub fn of(outcome: &QueryOutcome) -> Self {
        match outcome {
            QueryOutcome::Plans(_) => OutcomeCode::Plans,
            QueryOutcome::NoService => OutcomeCode::NoService,
            QueryOutcome::Unserviceable => OutcomeCode::Unserviceable,
            QueryOutcome::Blocked => OutcomeCode::Blocked,
            QueryOutcome::Failed => OutcomeCode::Failed,
            QueryOutcome::Stalled => OutcomeCode::Stalled,
        }
    }

    /// Whether this outcome counts toward the paper's hit rate.
    pub fn is_hit(&self) -> bool {
        matches!(self, OutcomeCode::Plans | OutcomeCode::NoService)
    }
}

wire_enum! {
    /// The fault class behind a [`EventKind::FaultInjected`] instant.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultClass {
        Timeout = "timeout",
        Reset = "reset",
        Stall = "stall",
    }
}

event_schema! {
    /// Everything a campaign can narrate.
    ///
    /// Span kinds come in `…Begin`/`…End` pairs keyed by their identifying
    /// fields (worker id, job tag, `(tag, attempt)`, `(tag, attempt, fetch)`);
    /// every begin gets exactly one end at a timestamp `>=` its own. The rest
    /// are instants.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind {
        /// Campaign span opens at virtual zero.
        CampaignBegin { seed: u64, n_jobs: u32, n_workers: u32, } = "campaign_begin" stable,
        /// Campaign span closes at the makespan.
        CampaignEnd { makespan_ms: u64, } = "campaign_end" stable,
        /// Worker `worker` enters the pool (at its staggered start).
        WorkerBegin { worker: u32, } = "worker_begin" stable,
        /// Worker `worker` retires (at the makespan).
        WorkerEnd { worker: u32, } = "worker_end" stable,
        /// First attempt of job `tag` starts.
        JobBegin { tag: u64, endpoint: Arc<str>, } = "job_begin" stable,
        /// Job `tag` produced its final record.
        JobEnd {
            tag: u64,
            outcome: OutcomeCode,
            attempts: u32,
            dead_lettered: bool,
        } = "job_end" stable,
        /// Attempt `attempt` of job `tag` starts on `worker`.
        AttemptBegin {
            tag: u64,
            attempt: u32,
            worker: u32,
            endpoint: Arc<str>,
        } = "attempt_begin" stable,
        /// The attempt finished (live or replayed) and its time was charged.
        AttemptEnd {
            tag: u64,
            attempt: u32,
            worker: u32,
            endpoint: Arc<str>,
            outcome: OutcomeCode,
            duration_ms: u64,
            steps: u32,
        } = "attempt_end" stable,
        /// A retryable outcome was requeued with backoff.
        Retry { tag: u64, next_attempt: u32, delay_ms: u64, } = "retry" stable,
        /// A circuit breaker opened (or re-opened) on `endpoint`.
        BreakerTrip { endpoint: Arc<str>, } = "breaker_trip" stable,
        /// An open circuit deferred job `tag` until `until_ms`.
        BreakerDefer { tag: u64, endpoint: Arc<str>, until_ms: u64, } = "breaker_defer" stable,
        /// The shed controller cut the concurrency ceiling to `limit`.
        ShedCut { limit: u32, } = "shed_cut" stable,
        /// The shed controller raised the concurrency ceiling to `limit`.
        ShedRaise { limit: u32, } = "shed_raise" stable,
        /// The watchdog reclaimed `worker` from a hung session.
        StallReclaimed { tag: u64, worker: u32, } = "stall_reclaimed" stable,
        /// An attempt against `endpoint` hit an unrecognized page — one drift
        /// sighting charged to the attempt's job `tag`.
        DriftSuspected { tag: u64, endpoint: Arc<str>, } = "drift_suspected" stable,
        /// The drift monitor crossed its re-bootstrap threshold: `endpoint` is
        /// quarantined and a structural probe burst begins.
        RebootstrapStarted { endpoint: Arc<str>, } = "rebootstrap_started" stable,
        /// The probe burst classified the endpoint's markup as template
        /// `generation` and the orchestrator swapped the learned set in.
        TemplateSwapped { endpoint: Arc<str>, generation: u32, } = "template_swapped" stable,
        /// The endpoint left quarantine; `confidence_pct` is the fraction of
        /// probe pages the winning template set recognized, in percent.
        RebootstrapCompleted {
            endpoint: Arc<str>,
            confidence_pct: u32,
        } = "rebootstrap_completed" stable,
        /// A serve-layer lookup completed: the plan store answered (from the
        /// LRU answer cache or the shard index) and the response crossed the
        /// wire. `duration_ms` is the requester-perceived latency — queueing
        /// wait plus the full round trip.
        ServeLookupEnd {
            tag: u64,
            shard: u32,
            endpoint: Arc<str>,
            outcome: OutcomeCode,
            cache_hit: bool,
            duration_ms: u64,
        } = "serve_lookup_end" stable,
        /// The serve answer cache evicted `key` to admit a new entry. The
        /// eviction order is part of the serve determinism contract: same
        /// seed + same request stream → byte-identical eviction log.
        CacheEvicted { shard: u32, key: String, } = "cache_evicted" stable,
        /// The serve layer refused a lookup at admission: the shard's queue
        /// was too deep for the request to meet its latency budget.
        ServeShed { shard: u32, endpoint: Arc<str>, } = "serve_shed" stable,
        /// The attempt was answered from the journal, not the transport.
        /// *Ephemeral*: only resumed runs emit it.
        JournalReplay { tag: u64, attempt: u32, } = "journal_replay" ephemeral,
        /// The transport injected a fault into a live page fetch. *Ephemeral.*
        FaultInjected { endpoint: Arc<str>, fault: FaultClass, } = "fault_injected" ephemeral,
        /// A monitor SLO rule crossed its threshold (with hysteresis) and an
        /// alert opened. *Ephemeral*: alerts are an observer's judgement, not
        /// part of the campaign's replayable schedule.
        AlertFired {
            rule: String,
            /// Comma-joined slowest-trace exemplar ids current at fire time
            /// (see [`crate::trace::ExemplarReservoir`]) — the page names the
            /// offending traces.
            exemplars: String,
        } = "alert_fired" ephemeral,
        /// The rule's signal recovered and the alert closed. *Ephemeral.*
        AlertResolved { rule: String, } = "alert_resolved" ephemeral,
        /// A live page fetch (one transport round trip) started. *Ephemeral.*
        PageFetchBegin { tag: u64, attempt: u32, fetch: u32, } = "page_fetch_begin" ephemeral,
        /// The page fetch finished (including the settle wait). *Ephemeral.*
        PageFetchEnd {
            tag: u64,
            attempt: u32,
            fetch: u32,
            duration_ms: u64,
        } = "page_fetch_end" ephemeral,
    }
}

/// Receives every event of a run, in emission order.
///
/// Implementations must not assume they see a *complete* run: a simulated
/// crash stops the stream mid-campaign. A panicking recorder is poisoned
/// (silently detached) rather than allowed to abort the campaign.
pub trait Recorder {
    fn record(&mut self, event: &Event);
}

/// Keeps every event, in emission order.
impl Recorder for Vec<Event> {
    fn record(&mut self, event: &Event) {
        self.push(event.clone());
    }
}

/// The emission side: where the orchestrator and driver hand events in.
///
/// The driver takes a `&mut dyn EventSink` so per-page events flow through
/// the same fan-out as the orchestrator's own; [`NullSink`] keeps the plain
/// [`query_address`](crate::driver::query_address) entry point free of
/// telemetry.
pub trait EventSink {
    fn emit(&mut self, at: SimTime, kind: EventKind);
}

/// Discards every event.
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _at: SimTime, _kind: EventKind) {}
}

struct Slot<'a> {
    recorder: &'a mut dyn Recorder,
    poisoned: bool,
}

/// The external recorders of one run, isolating their panics: a recorder
/// that panics is poisoned and never called again, and the run carries on.
#[derive(Default)]
pub(crate) struct Fanout<'a> {
    slots: Vec<Slot<'a>>,
}

impl<'a> Fanout<'a> {
    pub(crate) fn attach(&mut self, recorder: &'a mut dyn Recorder) {
        self.slots.push(Slot {
            recorder,
            poisoned: false,
        });
    }

    pub(crate) fn deliver(&mut self, event: &Event) {
        for slot in &mut self.slots {
            if slot.poisoned {
                continue;
            }
            // A recorder is an observer; its failure must not rewrite the
            // campaign's outcome. Poison it and move on.
            if catch_unwind(AssertUnwindSafe(|| slot.recorder.record(event))).is_err() {
                slot.poisoned = true;
            }
        }
    }

    pub(crate) fn poisoned(&self) -> usize {
        self.slots.iter().filter(|s| s.poisoned).count()
    }
}

/// Fans events out to an always-on [`MetricsAggregator`] plus any attached
/// external recorders, isolating recorder panics (see `Fanout`).
///
/// A [`CampaignMonitor`] may additionally ride inside the fan-out; unlike
/// plain recorders it can *synthesize* events ([`EventKind::AlertFired`] /
/// [`EventKind::AlertResolved`]), which are dispatched to the aggregator
/// and every external recorder right after the event that triggered them.
pub struct Telemetry<'a> {
    aggregator: MetricsAggregator,
    monitor: Option<CampaignMonitor>,
    recorders: Fanout<'a>,
}

impl<'a> Telemetry<'a> {
    pub fn new() -> Self {
        Self {
            aggregator: MetricsAggregator::new(),
            monitor: None,
            recorders: Fanout::default(),
        }
    }

    /// Attaches an external recorder for the duration of the run.
    pub fn attach(&mut self, recorder: &'a mut dyn Recorder) {
        self.recorders.attach(recorder);
    }

    /// Installs the live monitor for the run.
    pub fn set_monitor(&mut self, monitor: CampaignMonitor) {
        self.monitor = Some(monitor);
    }

    /// Detaches the monitor (to finalize its health report).
    pub fn take_monitor(&mut self) -> Option<CampaignMonitor> {
        self.monitor.take()
    }

    /// True once if a fired alert asked the load-shedder to cut; clears
    /// the request.
    pub fn take_escalation(&mut self) -> bool {
        self.monitor
            .as_mut()
            .map(|m| m.take_escalation())
            .unwrap_or(false)
    }

    fn dispatch(&mut self, event: Event) {
        self.deliver(&event);
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.observe(&event);
            for alert in monitor.take_events() {
                // Alerts are ephemeral; the monitor ignores its own output,
                // so this cannot recurse.
                self.deliver(&alert);
            }
        }
    }

    fn deliver(&mut self, event: &Event) {
        self.aggregator.observe(event);
        self.recorders.deliver(event);
    }

    /// Recorders poisoned (detached after a panic) so far.
    pub fn poisoned(&self) -> usize {
        self.recorders.poisoned()
    }

    /// The internal aggregator's current state.
    pub fn aggregator(&self) -> &MetricsAggregator {
        &self.aggregator
    }

    /// Snapshot of the aggregated counters and histograms.
    pub fn summary(&self) -> TelemetrySummary {
        self.aggregator.summary().clone()
    }
}

impl Default for Telemetry<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for Telemetry<'_> {
    fn emit(&mut self, at: SimTime, kind: EventKind) {
        self.dispatch(Event { at, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingRecorder(u64);
    impl Recorder for CountingRecorder {
        fn record(&mut self, _event: &Event) {
            self.0 += 1;
        }
    }

    struct PanickyRecorder {
        before_panic: u64,
        seen: u64,
    }
    impl Recorder for PanickyRecorder {
        fn record(&mut self, _event: &Event) {
            if self.seen >= self.before_panic {
                panic!("recorder blew up");
            }
            self.seen += 1;
        }
    }

    fn instant(ms: u64) -> (SimTime, EventKind) {
        (SimTime::from_millis(ms), EventKind::ShedCut { limit: 8 })
    }

    #[test]
    fn fan_out_reaches_every_recorder_and_the_aggregator() {
        let mut a = CountingRecorder(0);
        let mut b = CountingRecorder(0);
        let mut tel = Telemetry::new();
        tel.attach(&mut a);
        tel.attach(&mut b);
        for ms in 0..5 {
            let (at, kind) = instant(ms);
            tel.emit(at, kind);
        }
        assert_eq!(tel.summary().shed_cuts, 5);
        drop(tel);
        assert_eq!(a.0, 5);
        assert_eq!(b.0, 5);
    }

    #[test]
    fn panicking_recorder_is_poisoned_not_fatal() {
        let mut healthy = CountingRecorder(0);
        let mut bomb = PanickyRecorder {
            before_panic: 2,
            seen: 0,
        };
        let mut tel = Telemetry::new();
        tel.attach(&mut bomb);
        tel.attach(&mut healthy);
        for ms in 0..6 {
            let (at, kind) = instant(ms);
            tel.emit(at, kind);
        }
        assert_eq!(tel.poisoned(), 1);
        // The aggregator and the healthy recorder saw the whole stream.
        assert_eq!(tel.summary().shed_cuts, 6);
        drop(tel);
        assert_eq!(healthy.0, 6);
    }

    #[test]
    fn outcome_codes_round_trip_their_names() {
        for code in [
            OutcomeCode::Plans,
            OutcomeCode::NoService,
            OutcomeCode::Unserviceable,
            OutcomeCode::Blocked,
            OutcomeCode::Failed,
            OutcomeCode::Stalled,
        ] {
            assert_eq!(OutcomeCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(OutcomeCode::parse("bogus"), None);
    }

    #[test]
    fn stability_classification_matches_the_docs() {
        assert!(EventKind::AttemptEnd {
            tag: 1,
            attempt: 1,
            worker: 0,
            endpoint: "e".into(),
            outcome: OutcomeCode::Failed,
            duration_ms: 10,
            steps: 1,
        }
        .replay_stable());
        assert!(!EventKind::JournalReplay { tag: 1, attempt: 1 }.replay_stable());
        assert!(!EventKind::PageFetchBegin {
            tag: 1,
            attempt: 1,
            fetch: 0
        }
        .replay_stable());
        assert!(!EventKind::FaultInjected {
            endpoint: "e".into(),
            fault: FaultClass::Stall
        }
        .replay_stable());
    }
}
