//! The one way to run a campaign: a builder over the orchestrator's
//! discrete-event loop.
//!
//! The builder composes orchestration, the health monitor and telemetry
//! recorders. How the campaign then runs decides what it can return, so
//! each way of running it has its own entry point:
//!
//! * [`Campaign::run`] — no journal, so nothing can fail or crash: it
//!   returns the [`OrchestratorReport`] itself;
//! * [`Campaign::run_journaled`] — write-ahead journaled and resumable:
//!   a journal error is `Err`, and a simulated crash
//!   ([`Journal::crash_at`]) is `Ok(None)`;
//! * [`Campaign::run_sharded`] — split into shards on OS threads, each
//!   journaled (and crashed) through its own [`ShardEnv::journal`].
//!
//! ```
//! use bbsim_net::{IpPool, RotationPolicy, Transport};
//! use bqt::{Campaign, QueryJob};
//!
//! let mut transport = Transport::hermetic(11);
//! let jobs: Vec<QueryJob> = Vec::new();
//! let mut pool = IpPool::residential(8, RotationPolicy::RoundRobin, 1);
//! let report = Campaign::new(7)
//!     .workers(16)
//!     .run(&mut transport, &jobs, &mut pool);
//! assert_eq!(report.records.len(), 0);
//! ```
//!
//! A journaled run binds the campaign manifest before the loop starts.
//! Attached [`Recorder`]s receive the run's full event stream (see
//! [`telemetry`](crate::telemetry)).

use crate::client::BqtConfig;
use crate::drift::DriftMonitor;
use crate::driver::QueryJob;
use crate::journal::{CampaignManifest, Halt, Journal, JournalError, Unjournaled};
use crate::monitor::{CampaignMonitor, MonitorPolicy};
use crate::orchestrator::{Orchestrator, OrchestratorReport};
use crate::retry::RetryPolicy;
use crate::shard::{self, MergeSink, SeqEvent, ShardEnv, ShardPlan, ShardSpec, ShardedOutcome};
use crate::telemetry::{Event, Fanout, Recorder, Telemetry};
use bbsim_net::{IpPool, SimDuration, Transport};

/// Builder for one orchestrated scraping campaign.
pub struct Campaign<'a> {
    orch: Orchestrator,
    config: BqtConfig,
    recorders: Vec<&'a mut dyn Recorder>,
    monitor: Option<MonitorPolicy>,
    threads: usize,
}

impl<'a> Campaign<'a> {
    /// A campaign with the paper's orchestration defaults (64 workers, 5 s
    /// politeness, 300 s watchdog, retries off) and the paper-default BQT
    /// configuration with a 45 s calibrated pause.
    pub fn new(seed: u64) -> Self {
        Self::from_orchestrator(Orchestrator::paper_default(seed))
    }

    /// Starts from fully custom orchestration parameters.
    pub fn from_orchestrator(orch: Orchestrator) -> Self {
        Self {
            orch,
            config: BqtConfig::paper_default(SimDuration::from_secs(45)),
            recorders: Vec::new(),
            monitor: None,
            threads: 1,
        }
    }

    /// Per-address workflow configuration (wait policy, matcher, …).
    pub fn config(mut self, config: BqtConfig) -> Self {
        self.config = config;
        self
    }

    /// Number of concurrent worker containers.
    pub fn workers(mut self, n: usize) -> Self {
        self.orch.n_workers = n;
        self
    }

    /// Pause between consecutive jobs on one worker.
    pub fn politeness(mut self, pause: SimDuration) -> Self {
        self.orch.politeness = pause;
        self
    }

    /// Enables job-level retries under `policy`.
    pub fn retries(mut self, policy: RetryPolicy) -> Self {
        self.orch.retry = Some(policy);
        self
    }

    /// Arms the template-drift watch: each endpoint gets its own clone of
    /// `monitor`; when an endpoint's window flags, it is quarantined, a
    /// probe burst re-learns its templates through
    /// [`learn_template_set`](crate::scrape::learn_template_set), and the
    /// swap applies to every later attempt. Swaps are journaled
    /// write-ahead, so a crashed-and-resumed campaign replays them
    /// byte-identically without re-probing. Drift progress lands in
    /// [`OrchestratorReport::drift`] and the `drift_suspected` /
    /// `rebootstrap_*` events reach every recorder and the health monitor.
    pub fn drift_monitor(mut self, monitor: DriftMonitor) -> Self {
        self.orch.drift = Some(monitor);
        self
    }

    /// Attaches a telemetry recorder for the run. May be called multiple
    /// times; recorders see every event in emission order, and a
    /// panicking recorder is detached rather than allowed to kill the
    /// campaign.
    pub fn recorder(mut self, recorder: &'a mut dyn Recorder) -> Self {
        self.recorders.push(recorder);
        self
    }

    /// Attaches the live health monitor: sliding-window aggregation, SLO
    /// alerting (with optional load-shed escalation) and the phase
    /// profiler. The monitor's [`HealthReport`](crate::monitor::HealthReport)
    /// lands in `OrchestratorReport::health`, and its `AlertFired` /
    /// `AlertResolved` events reach every attached recorder.
    pub fn monitor(mut self, policy: MonitorPolicy) -> Self {
        self.monitor = Some(policy);
        self
    }

    /// OS threads a sharded run ([`run_sharded`](Self::run_sharded)) may
    /// use. Purely a scheduling knob: the output is byte-identical for
    /// every value (the shard *plan* fixes the partition). Ignored by the
    /// single-threaded [`run`](Self::run).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// The campaign identity a journaled run of `jobs` would bind.
    pub fn manifest(&self, jobs: &[QueryJob]) -> CampaignManifest {
        self.orch.manifest(&self.config, jobs)
    }

    /// Runs the campaign to completion.
    ///
    /// `pool` supplies source IPs; each attempt checks out the next
    /// address, so per-IP request rates stay below BAT rate limits when
    /// the pool is reasonably sized. With retries enabled, retryable
    /// outcomes are requeued with capped exponential backoff and exhausted
    /// jobs are dead-lettered; a per-endpoint circuit breaker defers
    /// traffic away from consistently failing endpoints. Every address
    /// produces exactly one record either way.
    pub fn run(
        self,
        transport: &mut Transport,
        jobs: &[QueryJob],
        pool: &mut IpPool,
    ) -> OrchestratorReport {
        let (orch, config, mut tel) = self.into_parts();
        let Ok(report) = orch.run_inner(transport, &config, jobs, pool, &mut Unjournaled, &mut tel);
        report
    }

    /// Runs the campaign crash-recoverably over `journal`, as
    /// [`run`](Self::run) does otherwise: finished attempts are journaled
    /// write-ahead, and attempts already in `journal` are replayed instead
    /// of re-scraped. The campaign manifest is bound (written or
    /// validated) before the loop starts.
    ///
    /// Journal errors (manifest mismatch, torn write, I/O) surface as
    /// `Err`. `Ok(None)` means the journal's simulated crash point
    /// ([`Journal::crash_at`]) passed first: the journal retains exactly
    /// the work that finished by then.
    pub fn run_journaled(
        self,
        journal: &mut Journal,
        transport: &mut Transport,
        jobs: &[QueryJob],
        pool: &mut IpPool,
    ) -> Result<Option<OrchestratorReport>, JournalError> {
        journal.bind_manifest(self.manifest(jobs))?;
        let (orch, config, mut tel) = self.into_parts();
        match orch.run_inner(transport, &config, jobs, pool, journal, &mut tel) {
            Ok(report) => Ok(Some(report)),
            Err(Halt::Crashed) => Ok(None),
            Err(Halt::Failed(e)) => Err(e),
        }
    }

    /// The orchestrator and configuration to run, and the telemetry
    /// fan-out over the attached monitor and recorders.
    fn into_parts(self) -> (Orchestrator, BqtConfig, Telemetry<'a>) {
        let mut tel = Telemetry::new();
        if let Some(policy) = self.monitor {
            tel.set_monitor(CampaignMonitor::new(policy));
        }
        for r in self.recorders {
            tel.attach(r);
        }
        (self.orch, self.config, tel)
    }

    /// Runs the campaign split into `plan`'s shards on up to
    /// [`threads`](Self::threads) OS threads, merging the shard streams
    /// back into the canonical `(at, seq)` event order.
    ///
    /// Each shard runs under its own environment from `make_env` — a fresh
    /// hermetic transport, IP pool, and (for crash-recoverable campaigns)
    /// its own journal segment, which may carry a crash point — its own
    /// virtual clock starting at zero, and the shard seed from the plan. Because shards share nothing and
    /// the merge orders by `(at, seq)` with shard-namespaced `seq`s, the
    /// merged stream — and everything derived from it — is byte-identical
    /// for every thread count.
    ///
    /// Attached recorders replay the *merged* stream after all shards
    /// finish, so a [`JsonlRecorder`](crate::telemetry::JsonlRecorder)
    /// here writes the canonical `events.jsonl` directly. They run on the
    /// calling thread while one worker merges the streams and builds
    /// [`ShardedOutcome::events`]. A recorder that panics there is
    /// detached, as in [`run`](Self::run).
    ///
    /// A shard that panics does not take the run down: its siblings run
    /// to completion (their journal segments stay whole) and the run
    /// returns [`JournalError::ShardFailed`] naming the shard. Re-running
    /// over the same segments resumes it like a crashed shard.
    pub fn run_sharded(
        self,
        plan: &ShardPlan,
        make_env: &(dyn Fn(&ShardSpec) -> Result<ShardEnv, JournalError> + Sync),
    ) -> Result<ShardedOutcome, JournalError> {
        let Campaign {
            orch,
            config,
            recorders,
            monitor,
            threads,
        } = self;
        let template = shard::ShardTemplate {
            orch: &orch,
            config: &config,
            monitor: monitor.as_ref(),
        };
        let shards = shard::execute(&template, plan, threads, make_env)?;
        let mut fanout = Fanout::default();
        for r in recorders {
            fanout.attach(r);
        }
        // One worker merges the streams by reference and clones each
        // released event into the merged stream, while this thread hands
        // the same events, in the same order, to the recorders (which
        // need not be `Send`).
        let streams: Vec<(&[SeqEvent], &[u32])> = shards
            .iter()
            .map(|s| (s.events.as_slice(), s.order.as_slice()))
            .collect();
        let merged = crate::exec::run(
            &[()],
            1,
            |_| 0,
            |_, _, emit| {
                let mut relay = Relay {
                    emit,
                    batch: Vec::with_capacity(RELAY_BATCH),
                    events: Vec::new(),
                };
                shard::merge_sorted(streams.iter().copied(), &mut relay);
                relay.finish()
            },
            |_, batch: Vec<&Event>| {
                for event in batch {
                    fanout.deliver(event);
                }
            },
        );
        let events = merged.into_iter().next().transpose()?.unwrap_or_default();
        Ok(ShardedOutcome { shards, events })
    }
}

/// Released events per message from the merging worker to the thread
/// that feeds the recorders: enough that the channel stays off the
/// profile, few enough that delivery starts at once.
const RELAY_BATCH: usize = 1024;

/// The merge sink of a sharded run: keeps a clone of each released
/// event for the merged stream and relays the event itself, in batches,
/// to the recorders' thread.
struct Relay<'e, 'f> {
    emit: &'f dyn Fn(Vec<&'e Event>),
    batch: Vec<&'e Event>,
    events: Vec<Event>,
}

impl<'e> Relay<'e, '_> {
    /// Relays what is left and returns the merged stream.
    fn finish(self) -> Vec<Event> {
        if !self.batch.is_empty() {
            (self.emit)(self.batch);
        }
        self.events
    }
}

impl<'e> MergeSink<&'e Event> for Relay<'e, '_> {
    fn begin(&mut self, total: u64) {
        self.events.begin(total);
    }

    fn event(&mut self, event: &'e Event) {
        self.events.push(event.clone());
        self.batch.push(event);
        if self.batch.len() == RELAY_BATCH {
            let full = std::mem::replace(&mut self.batch, Vec::with_capacity(RELAY_BATCH));
            (self.emit)(full);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Event, EventKind};
    use bbsim_bat::{templates, BatServer};
    use bbsim_census::city_by_name;
    use bbsim_isp::{CityWorld, Isp};
    use bbsim_net::{RotationPolicy, SimTime};
    use std::sync::Arc;

    fn setup() -> (Transport, Vec<QueryJob>) {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        let mut t = Transport::hermetic(11);
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        t.register("centurylink/billings", server.endpoint());
        let dialect = templates::dialect_of(Isp::CenturyLink);
        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(60)
            .map(|r| QueryJob::listing("centurylink/billings", dialect, r))
            .collect();
        (t, jobs)
    }

    #[test]
    fn builder_composes_journal_crash_and_recorder() {
        let (mut t, jobs) = setup();
        let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
        let mut journal = Journal::in_memory().crash_at(SimTime::from_millis(200_000));
        let mut stream: Vec<Event> = Vec::new();
        let outcome = Campaign::new(7)
            .workers(8)
            .retries(RetryPolicy::paper_default(7))
            .recorder(&mut stream)
            .run_journaled(&mut journal, &mut t, &jobs, &mut pool)
            .unwrap();
        assert!(outcome.is_none());
        assert!(
            !journal.attempts().is_empty(),
            "journal captured pre-crash work"
        );
        assert!(!stream.is_empty(), "recorder saw the pre-crash stream");
    }

    #[test]
    fn completed_campaign_reports_and_narrates() {
        let (mut t, jobs) = setup();
        let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
        let mut stream: Vec<Event> = Vec::new();
        let report = Campaign::new(7)
            .workers(8)
            .recorder(&mut stream)
            .run(&mut t, &jobs, &mut pool);
        assert_eq!(report.records.len(), jobs.len());
        // The stream is framed by the campaign span.
        let first = stream.first().unwrap();
        assert!(matches!(first.kind, EventKind::CampaignBegin { .. }));
        let last = stream.last().unwrap();
        assert!(matches!(last.kind, EventKind::CampaignEnd { .. }));
        // The report's aggregated view counted every attempt recorded.
        let attempt_ends = stream
            .iter()
            .filter(|e| matches!(e.kind, EventKind::AttemptEnd { .. }))
            .count() as u64;
        assert_eq!(report.telemetry.attempts, attempt_ends);
        assert_eq!(report.telemetry.resume().replayed_attempts, 0);
    }
}
