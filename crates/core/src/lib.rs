//! BQT — the broadband plan querying tool (the paper's §3 contribution).
//!
//! BQT takes a street address and extracts the broadband plans an ISP's
//! availability site (BAT) offers there, by driving the site the way a real
//! user would: submitting the address form, recognizing which template came
//! back, and responding — picking the best-matching suggestion when the
//! address is not recognized (with a zip-code sanity check), selecting a
//! random unit at multi-dwelling buildings, and clicking through the
//! existing-customer interstitial as a prospective new customer.
//!
//! Components:
//!
//! * [`scrape`] — template detection and per-dialect page parsers (the
//!   product of the paper's "manual bootstrapping" of each ISP's markup);
//! * [`client`] — configuration: matcher choice, settle-wait policy,
//!   retries, and the calibration routine that measures per-ISP settle
//!   pauses like the paper's max-observed-download-time rule;
//! * [`driver`] — the per-address workflow state machine and its timing
//!   accounting (everything Fig. 2 measures);
//! * [`metrics`] — hit-rate and query-time bookkeeping per ISP;
//! * [`orchestrator`] — the "docker containers" analogue: a discrete-event
//!   pool of concurrent workers with residential-IP rotation and politeness
//!   pacing (§4.1's scaling methodology), plus job requeueing with dead
//!   letters when a retry policy is attached;
//! * [`retry`] — job-level robustness: capped exponential backoff with
//!   seeded jitter, retry classification of outcomes, and per-endpoint
//!   circuit breakers in virtual time;
//! * [`campaign`] — the [`Campaign`] builder, which composes
//!   orchestration, the health monitor and telemetry recorders into a
//!   plain, journaled or sharded run;
//! * [`exec`] — the one shard executor: scoped threads, a largest-first
//!   work queue, results in task slots, panics as typed [`ShardFailed`]
//!   errors, and a consumer on the calling thread while tasks run;
//! * [`shard`] — multi-core campaigns: a fixed city×ISP partition into
//!   shards (own virtual clock, hermetic RNG stream and telemetry `seq`
//!   namespace each) executed on OS threads, with a frontier-gated
//!   `(at, seq)` merge that keeps every artifact byte-identical to
//!   `threads = 1`;
//! * [`monitor`] — live campaign health over the telemetry stream:
//!   sliding-window aggregation, SLO alerting with hysteresis, Prometheus
//!   text exposition and a virtual-clock phase profiler;
//! * [`telemetry`] — structured event tracing on the virtual clock: a
//!   [`Recorder`] fan-out fed by the orchestrator and
//!   driver, with ring-buffer, JSONL and aggregating recorders;
//! * [`trace`] — causal span trees folded from the telemetry stream:
//!   per-job/per-request trace assembly, critical-path tail attribution,
//!   a deterministic slowest-trace exemplar reservoir and a
//!   Chrome/Perfetto `trace.json` exporter;
//! * [`strawman`] — the §3.2 baseline: a direct-API client that reuses one
//!   session cookie and trips the BATs' safeguards, motivating BQT's
//!   user-mimicry design.

pub mod campaign;
pub mod client;
pub mod drift;
pub mod driver;
pub mod exec;
pub mod journal;
pub mod metrics;
pub mod monitor;
pub mod orchestrator;
pub mod retry;
pub mod scrape;
pub mod shard;
pub mod shed;
pub mod strawman;
pub mod telemetry;
pub mod trace;

pub use campaign::Campaign;
pub use client::{BqtConfig, WaitPolicy};
pub use drift::{DriftMonitor, DriftReport};
pub use driver::{query_address, query_address_traced, QueryJob, QueryOutcome, QueryRecord};
pub use exec::ShardFailed;
pub use journal::{
    config_fingerprint, AttemptEntry, CampaignManifest, Journal, JournalError, RebootstrapEntry,
};
pub use metrics::{HitRateReport, Metrics};
pub use monitor::{
    render_folded, render_prometheus, Alert, CampaignSection, HealthReport, MonitorPolicy, SloRule,
    SloSignal, WindowSnapshot,
};
pub use orchestrator::{DeadLetter, Orchestrator, OrchestratorReport, ResumeStats};
pub use retry::{is_retryable, BackoffPolicy, BreakerConfig, CircuitBreaker, RetryPolicy};
pub use scrape::{
    learn_template_set, DetectedPage, LearnedTemplates, ScrapedPlan, TemplateSet, GENERATIONS,
};
pub use shard::{
    merge_order, merge_seq_streams, merge_sorted, seq_counter, seq_shard, shard_seq, MergeItem,
    MergeKey, MergeSink, SeqEvent, ShardEnv, ShardPlan, ShardRecorder, ShardRun, ShardSpec,
    ShardedOutcome, StreamMerger, FINISHED,
};
pub use shed::{ShedController, ShedDecision, ShedPolicy};
pub use telemetry::{
    Event, EventKind, JsonlRecorder, MetricsAggregator, Recorder, RingRecorder, Telemetry,
    TelemetrySummary,
};
pub use trace::{
    attribute, critical_path, render_trace_json, Attribution, ExemplarSet, Span, SpanKind, Trace,
    TraceAssembler,
};

/// The ~15 names nearly every campaign-driving example imports.
///
/// `use bqt::prelude::*;` covers configuring, running and observing a
/// campaign; reach into the individual modules for the long tail.
pub mod prelude {
    pub use crate::campaign::Campaign;
    pub use crate::client::{BqtConfig, WaitPolicy};
    pub use crate::drift::{DriftMonitor, DriftReport};
    pub use crate::driver::{query_address, QueryJob, QueryOutcome, QueryRecord};
    pub use crate::journal::{Journal, JournalError};
    pub use crate::metrics::Metrics;
    pub use crate::monitor::{HealthReport, MonitorPolicy, SloRule, SloSignal};
    pub use crate::orchestrator::{DeadLetter, Orchestrator, OrchestratorReport, ResumeStats};
    pub use crate::retry::RetryPolicy;
    pub use crate::shed::ShedPolicy;
    pub use crate::telemetry::{
        Event, EventKind, JsonlRecorder, MetricsAggregator, Recorder, RingRecorder,
        TelemetrySummary,
    };
    pub use crate::trace::{attribute, Attribution, ExemplarSet, Trace, TraceAssembler};
    pub use bbsim_net::{
        Endpoint, FaultPlan, IpPool, RotationPolicy, SimDuration, SimIp, SimTime, Transport,
    };
}
