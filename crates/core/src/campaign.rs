//! The one way to run a campaign: a builder over the orchestrator's
//! discrete-event loop.
//!
//! The old `Orchestrator::run` / `run_journaled` / `run_journaled_with_crash`
//! trio grew one signature per feature; [`Campaign`] replaces them with a
//! single fluent entry point that composes journaling, simulated crashes
//! and telemetry recorders freely:
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
//!     .run(&mut transport, &jobs, &mut pool)
//!     .unwrap()
//!     .report();
//! assert_eq!(report.records.len(), 0);
//! ```
//!
//! A journaled run binds the campaign manifest before the loop starts; a
//! `crash_at` run returns [`CampaignOutcome::Crashed`] when virtual time
//! outlives the process. Attached [`Recorder`]s receive the run's full
//! event stream (see [`telemetry`](crate::telemetry)).

use crate::client::BqtConfig;
use crate::drift::DriftMonitor;
use crate::driver::QueryJob;
use crate::journal::{CampaignManifest, Journal, JournalError};
use crate::monitor::{CampaignMonitor, MonitorPolicy};
use crate::orchestrator::{Orchestrator, OrchestratorReport};
use crate::retry::RetryPolicy;
use crate::shard::{self, ShardEnv, ShardPlan, ShardSpec, ShardedOutcome};
use crate::shed::ShedPolicy;
use crate::telemetry::{Recorder, Telemetry};
use bbsim_net::{IpPool, SimDuration, SimTime, Transport};

/// Builder for one orchestrated scraping campaign.
pub struct Campaign<'a> {
    orch: Orchestrator,
    config: BqtConfig,
    journal: Option<&'a mut Journal>,
    crash_at: Option<SimTime>,
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
            journal: None,
            crash_at: None,
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

    /// Per-job stall deadline for the watchdog.
    pub fn watchdog(mut self, deadline: SimDuration) -> Self {
        self.orch.watchdog = deadline;
        self
    }

    /// Enables job-level retries under `policy`.
    pub fn retries(mut self, policy: RetryPolicy) -> Self {
        self.orch.retry = Some(policy);
        self
    }

    /// Enables AIMD load shedding under `policy`.
    pub fn shedding(mut self, policy: ShedPolicy) -> Self {
        self.orch.shed = Some(policy);
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

    /// Makes the run crash-recoverable: finished attempts are journaled
    /// write-ahead, and attempts already in `journal` are replayed instead
    /// of re-scraped. The campaign manifest is bound (written or
    /// validated) before the loop starts.
    pub fn journal(mut self, journal: &'a mut Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Simulates the process dying once virtual time passes `at`: the run
    /// returns [`CampaignOutcome::Crashed`] and the journal retains
    /// exactly the attempts that finished by then.
    pub fn crash_at(mut self, at: SimTime) -> Self {
        self.crash_at = Some(at);
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

    /// Runs the campaign to completion (or to the simulated crash).
    ///
    /// `pool` supplies source IPs; each attempt checks out the next
    /// address, so per-IP request rates stay below BAT rate limits when
    /// the pool is reasonably sized. With retries enabled, retryable
    /// outcomes are requeued with capped exponential backoff and exhausted
    /// jobs are dead-lettered; a per-endpoint circuit breaker defers
    /// traffic away from consistently failing endpoints. Every address
    /// produces exactly one record either way.
    ///
    /// Journal errors (manifest mismatch, torn write, I/O) surface as
    /// `Err`; journal-less campaigns cannot fail.
    pub fn run(
        self,
        transport: &mut Transport,
        jobs: &[QueryJob],
        pool: &mut IpPool,
    ) -> Result<CampaignOutcome, JournalError> {
        let Campaign {
            orch,
            config,
            mut journal,
            crash_at,
            recorders,
            monitor,
            threads: _,
        } = self;
        if let Some(j) = journal.as_deref_mut() {
            j.bind_manifest(orch.manifest(&config, jobs))?;
        }
        let mut tel = Telemetry::new();
        if let Some(policy) = monitor {
            tel.set_monitor(CampaignMonitor::new(policy));
        }
        for r in recorders {
            tel.attach(r);
        }
        Ok(
            match orch.run_inner(transport, &config, jobs, pool, journal, crash_at, &mut tel)? {
                Some(report) => CampaignOutcome::Completed(Box::new(report)),
                None => CampaignOutcome::Crashed,
            },
        )
    }

    /// Runs the campaign split into `plan`'s shards on up to
    /// [`threads`](Self::threads) OS threads, merging the shard streams
    /// back into the canonical `(at, seq)` event order.
    ///
    /// Each shard runs under its own environment from `make_env` — a fresh
    /// hermetic transport, IP pool, and (for crash-recoverable campaigns)
    /// its own journal segment — its own virtual clock starting at zero,
    /// and the shard seed from the plan. Because shards share nothing and
    /// the merge orders by `(at, seq)` with shard-namespaced `seq`s, the
    /// merged stream — and everything derived from it — is byte-identical
    /// for every thread count.
    ///
    /// Attached recorders replay the *merged* stream after all shards
    /// finish, so a [`JsonlRecorder`](crate::telemetry::JsonlRecorder)
    /// here writes the canonical `events.jsonl` directly.
    ///
    /// A shard that panics does not take the run down: its siblings run
    /// to completion (their journal segments stay whole) and the run
    /// returns [`JournalError::ShardFailed`] naming the shard. Re-running
    /// over the same segments resumes it like a crashed shard.
    ///
    /// # Panics
    /// If a campaign-level [`journal`](Self::journal) is attached: sharded
    /// runs journal per shard, through [`ShardEnv::journal`].
    pub fn run_sharded(
        self,
        plan: &ShardPlan,
        make_env: &(dyn Fn(&ShardSpec) -> Result<ShardEnv, JournalError> + Sync),
    ) -> Result<ShardedOutcome, JournalError> {
        let Campaign {
            orch,
            config,
            journal,
            crash_at,
            mut recorders,
            monitor,
            threads,
        } = self;
        assert!(
            journal.is_none(),
            "sharded campaigns journal per shard: supply segments via make_env, \
             not Campaign::journal"
        );
        let template = shard::ShardTemplate {
            orch: &orch,
            config: &config,
            monitor: monitor.as_ref(),
            crash_at,
        };
        let shards = shard::execute(&template, plan, threads, make_env)?;
        let events = shard::merge_events(&shards);
        for event in &events {
            for recorder in recorders.iter_mut() {
                recorder.record(event);
            }
        }
        Ok(ShardedOutcome { shards, events })
    }

    /// Runs `n` longitudinal waves of one campaign family, epoch by epoch.
    ///
    /// A longitudinal study re-runs the same campaign against a world
    /// that evolves between waves (`CityWorld::build_at(city, epoch)`:
    /// fiber builds out, cable reprices). Each wave owns a fresh
    /// environment —
    /// worlds, transports and pools cannot be reused across epochs — so
    /// the closure receives the epoch number (`0..n`), builds that
    /// epoch's world and campaign, runs it, and returns whatever the
    /// study keeps per wave (typically the report plus a curated
    /// snapshot). Results come back in epoch order; a wave's journal
    /// error aborts the remaining epochs.
    pub fn epochs<T>(
        n: u32,
        wave: impl FnMut(u32) -> Result<T, JournalError>,
    ) -> Result<Vec<T>, JournalError> {
        (0..n).map(wave).collect()
    }
}

/// How a [`Campaign`] run ended.
#[derive(Debug)]
pub enum CampaignOutcome {
    /// The campaign ran every job to completion. Boxed: a report carries
    /// full per-address records and the telemetry summary, and the crashed
    /// arm would otherwise pay for that inline.
    Completed(Box<OrchestratorReport>),
    /// The simulated crash fired first; the journal holds what survived.
    Crashed,
}

impl CampaignOutcome {
    /// The completed report.
    ///
    /// # Panics
    /// If the campaign crashed — use [`completed`](Self::completed) when a
    /// crash is an expected outcome.
    pub fn report(self) -> OrchestratorReport {
        match self {
            CampaignOutcome::Completed(report) => *report,
            // lint:allow(T2): reporting a crashed campaign is a caller bug; fault tests match on Crashed
            CampaignOutcome::Crashed => panic!("campaign crashed before completing"),
        }
    }

    /// The report if the campaign completed, `None` if it crashed.
    pub fn completed(self) -> Option<OrchestratorReport> {
        match self {
            CampaignOutcome::Completed(report) => Some(*report),
            CampaignOutcome::Crashed => None,
        }
    }

    pub fn crashed(&self) -> bool {
        matches!(self, CampaignOutcome::Crashed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventKind, RingRecorder};
    use bbsim_bat::{templates, BatServer};
    use bbsim_census::city_by_name;
    use bbsim_isp::{CityWorld, Isp};
    use bbsim_net::{Endpoint, RotationPolicy};
    use std::sync::Arc;

    fn setup() -> (Transport, Vec<QueryJob>) {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        let net = server.profile().network_latency;
        let mut t = Transport::hermetic(11);
        t.register("centurylink/billings", Endpoint::new(Box::new(server), net));
        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(60)
            .map(|r| QueryJob {
                endpoint: "centurylink/billings".to_string(),
                dialect: templates::dialect_of(Isp::CenturyLink),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            })
            .collect();
        (t, jobs)
    }

    #[test]
    fn builder_composes_journal_crash_and_recorder() {
        let (mut t, jobs) = setup();
        let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
        let mut journal = Journal::in_memory();
        let mut ring = RingRecorder::new(100_000);
        let outcome = Campaign::new(7)
            .workers(8)
            .retries(RetryPolicy::paper_default(7))
            .journal(&mut journal)
            .crash_at(SimTime::from_millis(200_000))
            .recorder(&mut ring)
            .run(&mut t, &jobs, &mut pool)
            .unwrap();
        assert!(outcome.crashed());
        assert!(outcome.completed().is_none());
        assert!(
            !journal.attempts().is_empty(),
            "journal captured pre-crash work"
        );
        assert!(ring.seen() > 0, "recorder saw the pre-crash stream");
    }

    #[test]
    fn completed_campaign_reports_and_narrates() {
        let (mut t, jobs) = setup();
        let mut pool = IpPool::residential(32, RotationPolicy::RoundRobin, 1);
        let mut ring = RingRecorder::new(1_000_000);
        let report = Campaign::new(7)
            .workers(8)
            .recorder(&mut ring)
            .run(&mut t, &jobs, &mut pool)
            .unwrap()
            .report();
        assert_eq!(report.records.len(), jobs.len());
        // The stream is framed by the campaign span.
        let first = ring.events().next().unwrap();
        assert!(matches!(first.kind, EventKind::CampaignBegin { .. }));
        let last = ring.events().last().unwrap();
        assert!(matches!(last.kind, EventKind::CampaignEnd { .. }));
        // The report's aggregated view counted every attempt the ring saw.
        let attempt_ends = ring
            .events()
            .filter(|e| matches!(e.kind, EventKind::AttemptEnd { .. }))
            .count() as u64;
        assert_eq!(report.telemetry.attempts, attempt_ends);
        assert_eq!(report.telemetry.resume().replayed_attempts, 0);
    }
}
