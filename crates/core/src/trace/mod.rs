//! Causal trace trees over the replay-stable event stream.
//!
//! PR 4's monitor can say *that* an SLO breached; this module says *why*.
//! A [`TraceAssembler`] is a pure fold over [`Event`](crate::telemetry::Event)s
//! — no new hot-path instrumentation — that reconstructs one causal span
//! tree per job tag (campaign → job → attempt → page-fetch) or per serve
//! request, with the in-between intervals typed: retry backoff, breaker
//! wait, shed, rebootstrap quarantine, plain queue wait. Because the
//! assembler consumes the same `(at, seq)`-ordered stream the shard merge
//! produces, its output is byte-identical for any thread count and across
//! crash+resume, like every other campaign artifact.
//!
//! On top of the trees sit:
//!
//! * [`critical_path`] / [`Attribution`] — the time-ordered decomposition
//!   of a trace into named components that sum *exactly* to its duration
//!   (the same accounting discipline as the phase profiler's
//!   frames-sum-to-makespan invariant);
//! * [`ExemplarReservoir`] — a deterministic top-K slowest-trace
//!   reservoir (ties broken by `(at, seq)`) whose trace ids surface on
//!   `AlertFired` events and as `# EXEMPLAR` lines in `health.prom`;
//! * [`render_trace_json`] — a Chrome/Perfetto trace-event exporter
//!   writing `trace.json` beside `events.jsonl` in every campaign dir.
//!
//! [`SpanKind`] and [`SpanClass`] are declared once through `wire_enum!`,
//! which generates their wire names (`as_str`) and parsers (`parse`). The
//! Perfetto `cat` field is the kind's class, so [`perfetto::span_json`]
//! holds no per-kind table. What stays hand-written is policy: the class
//! each kind rolls up into ([`SpanKind::bucket`]) and how the attribution
//! fold charges it ([`Attribution::charge`]). divide-lint's E1 rule keeps
//! both of those covering every variant with no wildcard arm.

pub mod assemble;
pub mod attribution;
pub mod perfetto;
pub mod reservoir;

pub use assemble::TraceAssembler;
pub use attribution::{attribute, critical_path, Attribution};
pub use perfetto::{render_trace_json, span_json};
pub use reservoir::{ExemplarReservoir, ExemplarSet};

crate::telemetry::wire_enum! {
    /// What a span in a trace tree represents. One trace's spans never
    /// overlap among siblings and always nest inside their parent, so every
    /// millisecond of a trace belongs to exactly one deepest span.
    ///
    /// The wire name is used for Perfetto `name` fields, attribution tables
    /// and `# EXEMPLAR` component labels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum SpanKind {
        /// The whole campaign (one per exported section, not per trace).
        Campaign = "campaign",
        /// One job's life from enqueue to completion — a trace's root.
        Job = "job",
        /// One attempt occupying a worker.
        Attempt = "attempt",
        /// One page fetch inside an attempt (ephemeral-stream mode only).
        PageFetch = "page_fetch",
        /// Waiting in queue for a worker with nothing else to blame.
        QueueWait = "queue_wait",
        /// Sleeping out a retry backoff delay.
        RetryBackoff = "retry_backoff",
        /// Held back by an open circuit breaker.
        BreakerWait = "breaker_wait",
        /// Parked while the load shedder kept the ceiling cut.
        Shed = "shed",
        /// The store probe + answer-cache consult of a serve lookup.
        CacheLookup = "cache_lookup",
        /// Blocked on a drift quarantine / template rebootstrap.
        Rebootstrap = "rebootstrap",
        /// One serve request from arrival to response — a serve trace's root.
        Serve = "serve",
    }
}

impl SpanKind {
    /// The attribution class the kind rolls up into: tail time is either
    /// structure, useful work, some flavor of waiting, or self-healing.
    pub fn bucket(&self) -> SpanClass {
        match self {
            SpanKind::Campaign => SpanClass::Structural,
            SpanKind::Job => SpanClass::Structural,
            SpanKind::Attempt => SpanClass::Work,
            SpanKind::PageFetch => SpanClass::Work,
            SpanKind::QueueWait => SpanClass::Wait,
            SpanKind::RetryBackoff => SpanClass::Wait,
            SpanKind::BreakerWait => SpanClass::Wait,
            SpanKind::Shed => SpanClass::Wait,
            SpanKind::CacheLookup => SpanClass::Work,
            SpanKind::Rebootstrap => SpanClass::Heal,
            SpanKind::Serve => SpanClass::Structural,
        }
    }
}

crate::telemetry::wire_enum! {
    /// Coarse roll-up of [`SpanKind`]s for dashboards and Perfetto `cat`
    /// fields.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum SpanClass {
        /// Container spans (campaign, job, serve request).
        Structural = "structural",
        /// Time spent doing the thing the trace exists for.
        Work = "work",
        /// Time spent waiting on queues, backoff, breakers or shed parking.
        Wait = "wait",
        /// Time spent inside drift quarantine / rebootstrap.
        Heal = "heal",
    }
}

/// One node of a trace tree, on the virtual clock. Children are in start
/// order, nest inside `[start_ms, end_ms]`, and never overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    /// Human-facing detail (endpoint, outcome, step index…); never parsed.
    pub label: String,
    pub start_ms: u64,
    pub end_ms: u64,
    pub children: Vec<Span>,
}

impl Span {
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// One assembled causal tree: a job's or a serve request's full story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The job tag / request tag the trace belongs to.
    pub tag: u64,
    /// The endpoint the work targeted (ISP slug or serve endpoint).
    pub endpoint: String,
    pub root: Span,
}

impl Trace {
    pub fn duration_ms(&self) -> u64 {
        self.root.duration_ms()
    }

    /// The stable trace id surfaced on alerts and `# EXEMPLAR` lines:
    /// `endpoint:tag@start_ms`, unique per campaign because a tag opens at
    /// most one trace at a time on one endpoint.
    pub fn id(&self) -> String {
        format!("{}:{:x}@{}", self.endpoint, self.tag, self.root.start_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            kind,
            label: String::new(),
            start_ms: start,
            end_ms: end,
            children: Vec::new(),
        }
    }

    #[test]
    fn wire_names_round_trip_through_the_parser() {
        let kinds = [
            SpanKind::Campaign,
            SpanKind::Job,
            SpanKind::Attempt,
            SpanKind::PageFetch,
            SpanKind::QueueWait,
            SpanKind::RetryBackoff,
            SpanKind::BreakerWait,
            SpanKind::Shed,
            SpanKind::CacheLookup,
            SpanKind::Rebootstrap,
            SpanKind::Serve,
        ];
        for kind in kinds {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind), "{kind:?}");
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }

    #[test]
    fn trace_ids_are_stable_and_distinct_by_start() {
        let a = Trace {
            tag: 0x2a,
            endpoint: "centurylink".into(),
            root: leaf(SpanKind::Job, 60_000, 75_000),
        };
        assert_eq!(a.id(), "centurylink:2a@60000");
        let mut b = a.clone();
        b.root.start_ms = 61_000;
        assert_ne!(a.id(), b.id());
    }
}
