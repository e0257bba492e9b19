//! The scraping orchestrator: BQT's "docker containers" (§4.1).
//!
//! The paper runs 50–100 concurrent BQT containers against each BAT,
//! sourcing requests from a residential IP pool. We reproduce that as a
//! discrete-event simulation: `n_workers` logical containers share one
//! virtual timeline, each picking up the next job when free, running the
//! full per-address workflow, then pausing politely before the next job.
//!
//! Because all timing is virtual, the orchestrator also supports the
//! paper's scaling experiment directly: run the same job list with 1, 50,
//! 100 and 200 workers and compare the observed per-request response times.
//!
//! ## Supervision layer
//!
//! On top of the original event loop sit three robustness mechanisms:
//!
//! * **Write-ahead journaling + resume** ([`Campaign::run_journaled`](crate::campaign::Campaign::run_journaled))
//!   — every finished attempt is appended to a [`Journal`](crate::journal::Journal) before being
//!   folded into the report. A campaign killed mid-run resumes by
//!   replaying journaled attempts instead of re-scraping them; with a
//!   hermetic transport ([`Transport::hermetic`]) the resumed report is
//!   byte-identical to an uninterrupted run's. Journaled runs derive all
//!   per-attempt randomness (source IP, MDU picks) from
//!   `(seed, tag, attempt)` so replayed work cannot desynchronize the
//!   draws that live work observes.
//! * **Worker watchdog** — a hung session ([`QueryOutcome::Stalled`])
//!   holds no timeout of its own; the orchestrator charges the stalled
//!   attempt `max(partial, watchdog)` of virtual time, reclaims the
//!   worker, and requeues the job through the normal retry machinery.
//! * **Adaptive load shedding** ([`ShedPolicy`]) — an AIMD controller
//!   watches the recent retryable-failure rate and shrinks the worker
//!   pool multiplicatively when a BAT pushes back, recovering additively
//!   once the storm passes; parked workers wake as the ceiling rises.

use crate::client::BqtConfig;
use crate::drift::{DriftMonitor, DriftReport};
use crate::driver::{query_address_traced, QueryJob, QueryOutcome, QueryRecord};
use crate::journal::{
    config_fingerprint, AttemptEntry, CampaignManifest, Entry, RebootstrapEntry, WriteAhead,
};
use crate::metrics::Metrics;
use crate::monitor::{CampaignSection, HealthReport};
use crate::retry::{is_retryable, CircuitBreaker, RetryPolicy};
use crate::scrape::{learn_template_set, TemplateSet, GENERATIONS};
use crate::shed::{ShedController, ShedDecision, ShedPolicy};
use crate::telemetry::{EventKind, EventSink, OutcomeCode, Telemetry, TelemetrySummary};
use bbsim_net::{
    fnv1a, mix64, EventQueue, IpPool, Request, SimDuration, SimIp, SimTime, Status, Transport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

pub use crate::telemetry::ResumeStats;

/// Domain separators for the orchestrator's derived-randomness streams.
const RNG_SALT: u64 = 0x0C_0E57;
const POOL_SALT: u64 = 0x1B_ADD4;
const REBOOT_SALT: u64 = 0x2E_B007;

/// Pages fetched per re-bootstrap probe burst.
const PROBE_BURST: usize = 12;

/// Orchestration parameters.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    /// Number of concurrent worker containers.
    pub n_workers: usize,
    /// Pause between consecutive jobs on one worker (politeness).
    pub politeness: SimDuration,
    /// Per-run seed (drives MDU picks and worker jitter).
    pub seed: u64,
    /// Job-level retry policy. `None` preserves the one-shot behaviour:
    /// a failed query is final and no requeueing happens.
    pub retry: Option<RetryPolicy>,
    /// Per-job deadline: a worker whose session stalls is reclaimed after
    /// this much virtual time and the stalled attempt charged accordingly.
    pub watchdog: SimDuration,
    /// Adaptive load shedding. `None` keeps the worker pool fixed.
    pub shed: Option<ShedPolicy>,
    /// Template-drift supervision: when set, every endpoint gets its own
    /// clone of this monitor; a flagged endpoint is quarantined, a probe
    /// burst re-learns its templates, and the swap is applied to all
    /// later attempts. `None` turns the drift machinery off entirely.
    pub drift: Option<DriftMonitor>,
}

/// What the discrete-event loop schedules.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Worker `w` finished its politeness pause and wants a job.
    WorkerFree(usize),
    /// Job slot `j`'s backoff (or breaker cooldown) elapsed.
    JobReady(usize),
}

impl Orchestrator {
    /// The paper's configuration: 50–100 containers; we default to 64.
    /// Retries stay off so measured hit rates keep the paper's one-shot
    /// per-address semantics.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            n_workers: 64,
            politeness: SimDuration::from_secs(5),
            seed,
            retry: None,
            watchdog: SimDuration::from_secs(300),
            shed: None,
            drift: None,
        }
    }

    /// Paper defaults plus the default retry policy — the robust
    /// configuration for campaigns over degraded networks.
    pub fn with_retries(seed: u64) -> Self {
        Self {
            retry: Some(RetryPolicy::paper_default(seed)),
            ..Self::paper_default(seed)
        }
    }

    /// The campaign identity a journaled run of `jobs` under `config`
    /// would bind into its journal.
    pub fn manifest(&self, config: &BqtConfig, jobs: &[QueryJob]) -> CampaignManifest {
        CampaignManifest {
            seed: self.seed,
            config_hash: config_fingerprint(
                config,
                &[
                    self.n_workers as u64,
                    self.politeness.as_millis(),
                    self.watchdog.as_millis(),
                    self.retry.map_or(0, |r| r.max_attempts as u64),
                    self.shed.is_some() as u64,
                    self.drift.is_some() as u64,
                ],
            ),
            job_digest: CampaignManifest::digest_jobs(jobs),
            n_jobs: jobs.len() as u32,
        }
    }

    /// The discrete-event loop shared by every way of running a campaign.
    ///
    /// Entered through [`Campaign::run`] with no journal, or through
    /// [`Campaign::run_journaled`], which binds the journal manifest first;
    /// both assemble the [`Telemetry`] fan-out. The run stops short only
    /// for the reasons `journal` can give ([`WriteAhead::Halt`]): none,
    /// without one. Every state transition the
    /// loop makes is narrated into `tel`; the always-on aggregator's
    /// summary becomes [`OrchestratorReport::telemetry`].
    ///
    /// For a resumed report to be byte-identical to an uninterrupted
    /// run's, `transport` must be hermetic ([`Transport::hermetic`]), any
    /// fault plan hermetic too, and `pool`/`config`/`jobs` identical to
    /// the original run. Journaled runs derive all per-attempt randomness
    /// from `(seed, tag, attempt)` so replayed work cannot desynchronize
    /// the draws that live work observes.
    pub(crate) fn run_inner<W: WriteAhead>(
        &self,
        transport: &mut Transport,
        config: &BqtConfig,
        jobs: &[QueryJob],
        pool: &mut IpPool,
        journal: &mut W,
        tel: &mut Telemetry<'_>,
    ) -> Result<OrchestratorReport, W::Halt> {
        assert!(self.n_workers >= 1, "need at least one worker");
        let journaled = journal.replay_log().is_some();
        // Journal-less runs share one sequential RNG (the original
        // behaviour); journaled runs derive per-attempt RNGs below so
        // replayed attempts cannot desynchronize live ones.
        let mut rng = StdRng::seed_from_u64(self.seed ^ RNG_SALT);
        let mut queue: EventQueue<Event> = EventQueue::new();
        let endpoints = intern_endpoints(jobs);
        tel.emit(
            SimTime::ZERO,
            EventKind::CampaignBegin {
                seed: self.seed,
                n_jobs: jobs.len() as u32,
                n_workers: self.n_workers as u32,
            },
        );
        // Stagger worker start times slightly so arrival bursts don't all
        // land on the same virtual millisecond.
        let started = self.n_workers.min(jobs.len().max(1));
        for w in 0..started {
            let at = SimTime::from_millis(w as u64 * 97);
            queue.push(at, Event::WorkerFree(w));
            tel.emit(at, EventKind::WorkerBegin { worker: w as u32 });
        }

        // Jobs waiting for a worker right now, in FIFO order.
        let mut ready: VecDeque<usize> = (0..jobs.len()).collect();
        // Workers with nothing to do, parked until a job becomes ready.
        let mut idle_workers: Vec<usize> = Vec::new();
        // Workers benched by the shed controller until the ceiling rises.
        let mut shed_parked: Vec<usize> = Vec::new();
        // Attempts consumed per job slot.
        let mut attempts: Vec<u32> = vec![0; jobs.len()];
        // Per-attempt outcome history per job slot (for dead letters).
        let mut histories: Vec<Vec<QueryOutcome>> = vec![Vec::new(); jobs.len()];
        let mut breaker = self.retry.as_ref().map(|p| CircuitBreaker::new(p.breaker));
        let mut shed_ctrl = self
            .shed
            .map(|policy| ShedController::new(policy, self.n_workers as u32));
        let mut worker_busy = vec![false; self.n_workers];
        let mut n_busy = 0usize;

        let mut records: Vec<QueryRecord> = Vec::with_capacity(jobs.len());
        let mut dead_letters: Vec<DeadLetter> = Vec::new();
        let mut metrics = Metrics::new();
        let mut makespan = SimTime::ZERO;

        // Drift supervision state: per-endpoint monitors cloned from the
        // prototype, learned template overrides applied to live attempts,
        // and the quarantine count per endpoint (the journal key a resumed
        // run looks swaps up under).
        let mut drift_mons: BTreeMap<Arc<str>, DriftMonitor> = BTreeMap::new();
        let mut learned_templates: BTreeMap<Arc<str>, &'static TemplateSet> = BTreeMap::new();
        let mut quarantines: BTreeMap<Arc<str>, u32> = BTreeMap::new();

        while let Some((now, event)) = queue.pop() {
            // Past the crash point the process has died: whatever the
            // journal holds is all that survives.
            journal.check_crash(now)?;
            // Pair a free worker with a ready job, or park whichever side
            // arrived without a counterpart.
            let (worker, j) = match event {
                Event::WorkerFree(w) => {
                    if worker_busy[w] {
                        worker_busy[w] = false;
                        n_busy -= 1;
                    }
                    if let Some(ctrl) = &shed_ctrl {
                        if n_busy as u32 >= ctrl.limit() {
                            shed_parked.push(w);
                            continue;
                        }
                    }
                    match ready.pop_front() {
                        Some(j) => (w, j),
                        None => {
                            idle_workers.push(w);
                            continue;
                        }
                    }
                }
                Event::JobReady(j) => {
                    let over_limit = shed_ctrl
                        .as_ref()
                        .is_some_and(|c| n_busy as u32 >= c.limit());
                    match (over_limit, idle_workers.pop()) {
                        (false, Some(w)) => (w, j),
                        (true, _) | (false, None) => {
                            ready.push_back(j);
                            continue;
                        }
                    }
                }
            };
            let job = &jobs[j];
            let endpoint = &endpoints[j];

            // An open circuit defers the job (not charging an attempt)
            // until the breaker half-opens; the worker stays in rotation.
            if let Some(b) = breaker.as_mut() {
                if !b.allows(&job.endpoint, now) {
                    // `reopen_time` is `Some` whenever `allows` says no; if
                    // the breaker ever disagrees, retry on the next tick
                    // rather than panic mid-campaign.
                    let resume_at = b
                        .reopen_time(&job.endpoint)
                        .unwrap_or(now)
                        .max(now + SimDuration::from_millis(1));
                    tel.emit(
                        now,
                        EventKind::BreakerDefer {
                            tag: job.tag,
                            endpoint: endpoint.clone(),
                            until_ms: resume_at.as_millis(),
                        },
                    );
                    queue.push(resume_at, Event::JobReady(j));
                    queue.push(now, Event::WorkerFree(worker));
                    continue;
                }
            }

            attempts[j] += 1;
            let attempt = attempts[j];
            worker_busy[worker] = true;
            n_busy += 1;
            if attempt == 1 {
                tel.emit(
                    now,
                    EventKind::JobBegin {
                        tag: job.tag,
                        endpoint: endpoint.clone(),
                    },
                );
            }
            tel.emit(
                now,
                EventKind::AttemptBegin {
                    tag: job.tag,
                    attempt,
                    worker: worker as u32,
                    endpoint: endpoint.clone(),
                },
            );

            // Write-ahead replay: if this exact (tag, attempt) finished
            // before a crash, take its journaled result verbatim instead
            // of re-scraping.
            let replayed = journal
                .replay_log()
                .and_then(|jr| jr.replay(job.tag, attempt))
                .map(|entry| entry.to_record());
            let from_journal = replayed.is_some();
            let rec = match replayed {
                Some(rec) => {
                    tel.emit(
                        now,
                        EventKind::JournalReplay {
                            tag: job.tag,
                            attempt,
                        },
                    );
                    rec
                }
                None => {
                    // A re-bootstrapped endpoint queries through its
                    // learned templates; everything else keeps the
                    // campaign configuration.
                    let cfg = match learned_templates.get(endpoint) {
                        Some(ts) => config.with_templates(ts),
                        None => *config,
                    };
                    let mut rec = if journaled {
                        // Hermetic per-attempt randomness: the source IP
                        // and the driver's own draws are functions of
                        // (seed, tag, attempt), independent of the other
                        // jobs' fates.
                        let src =
                            pool.assign(mix64(self.seed ^ POOL_SALT, &[job.tag, attempt as u64]));
                        let mut arng = StdRng::seed_from_u64(mix64(
                            self.seed ^ RNG_SALT,
                            &[job.tag, attempt as u64],
                        ));
                        query_address_traced(
                            transport, &cfg, job, endpoint, src, now, &mut arng, attempt, tel,
                        )
                    } else {
                        let src = pool.next();
                        query_address_traced(
                            transport, &cfg, job, endpoint, src, now, &mut rng, attempt, tel,
                        )
                    };
                    if rec.outcome == QueryOutcome::Stalled {
                        // The watchdog reclaims the hung worker: charge
                        // the deadline (or the partial time if the stall
                        // hit after the deadline would have fired).
                        rec.duration = rec.duration.max(self.watchdog);
                    }
                    rec
                }
            };
            let done = now + rec.duration;
            makespan = makespan.max(done);
            tel.emit(
                done,
                EventKind::AttemptEnd {
                    tag: job.tag,
                    attempt,
                    worker: worker as u32,
                    endpoint: endpoint.clone(),
                    outcome: OutcomeCode::of(&rec.outcome),
                    duration_ms: rec.duration.as_millis(),
                    steps: rec.steps,
                },
            );
            if rec.outcome == QueryOutcome::Stalled {
                tel.emit(
                    done,
                    EventKind::StallReclaimed {
                        tag: job.tag,
                        worker: worker as u32,
                    },
                );
            }

            // Write-ahead: journal the attempt before folding it into the
            // report, but only if it finished before the simulated crash —
            // a real crash loses the in-flight attempt.
            if !from_journal {
                journal.write_ahead(done, || {
                    Entry::Attempt(AttemptEntry::from_record(&rec, attempt))
                })?;
            }

            // Template-drift watch: every finished attempt — replayed or
            // live — feeds its endpoint's monitor, so a resumed run
            // re-derives the same quarantine decisions at the same points
            // in the record stream.
            if let Some(proto) = &self.drift {
                if rec.saw_unrecognized_page {
                    tel.emit(
                        done,
                        EventKind::DriftSuspected {
                            tag: job.tag,
                            endpoint: endpoint.clone(),
                        },
                    );
                }
                let mon = drift_mons
                    .entry(endpoint.clone())
                    .or_insert_with(|| proto.clone());
                mon.observe(&rec);
                if mon.needs_rebootstrap() {
                    let occurrence = {
                        let n = quarantines.entry(endpoint.clone()).or_insert(0);
                        *n += 1;
                        *n
                    };
                    tel.emit(
                        done,
                        EventKind::RebootstrapStarted {
                            endpoint: endpoint.clone(),
                        },
                    );
                    // A journaled swap for this exact quarantine is
                    // replayed verbatim instead of re-probing.
                    let replayed_swap = journal
                        .replay_log()
                        .and_then(|jr| jr.rebootstrap(&job.endpoint, occurrence))
                        .map(|r| (r.generation, r.confidence_pct));
                    let swap_from_journal = replayed_swap.is_some();
                    let (generation, confidence_pct) = match replayed_swap {
                        Some(swap) => swap,
                        None => {
                            // Probe burst: re-submit the endpoint's first
                            // jobs as bare /locate requests at the current
                            // instant. Probes are operator tooling, not
                            // campaign traffic — they consume no virtual
                            // time, emit no events, and source from a
                            // reserved IP range (TEST-NET-3) so they never
                            // perturb the campaign's rate-limit state.
                            let mut pages = Vec::new();
                            let probes = jobs
                                .iter()
                                .filter(|p| p.endpoint == job.endpoint)
                                .take(PROBE_BURST);
                            for (k, probe) in probes.enumerate() {
                                let key = mix64(
                                    self.seed ^ REBOOT_SALT,
                                    &[fnv1a(job.endpoint.as_bytes()), occurrence as u64, k as u64],
                                );
                                let src = SimIp(u32::from_be_bytes([203, 0, 113, key as u8]));
                                let req = Request::post(
                                    "/locate",
                                    format!("address={}", probe.input_line),
                                );
                                if let Ok((resp, _)) =
                                    transport.round_trip(&job.endpoint, src, &req, done)
                                {
                                    if resp.status == Status::Ok {
                                        pages.push(resp.body);
                                    }
                                }
                            }
                            match learn_template_set(&pages, job.dialect) {
                                Some(l) => (l.generation, (l.confidence * 100.0).round() as u32),
                                None => (0, 0),
                            }
                        }
                    };
                    // Generation 0 means the burst learned nothing; an
                    // out-of-range generation can only come from a foreign
                    // journal and is treated the same way.
                    let swapped = generation
                        .checked_sub(1)
                        .and_then(|g| GENERATIONS.get(g as usize))
                        .copied();
                    if let Some(ts) = swapped {
                        let current = *learned_templates.get(endpoint).unwrap_or(&config.templates);
                        if *ts != *current {
                            learned_templates.insert(endpoint.clone(), ts);
                            tel.emit(
                                done,
                                EventKind::TemplateSwapped {
                                    endpoint: endpoint.clone(),
                                    generation,
                                },
                            );
                        }
                    }
                    tel.emit(
                        done,
                        EventKind::RebootstrapCompleted {
                            endpoint: endpoint.clone(),
                            confidence_pct,
                        },
                    );
                    // Write-ahead like the attempts: the swap is journaled
                    // only if it completed before the simulated crash.
                    if !swap_from_journal {
                        journal.write_ahead(done, || {
                            Entry::Rebootstrap(RebootstrapEntry {
                                endpoint: job.endpoint.clone(),
                                occurrence,
                                generation,
                                confidence_pct,
                            })
                        })?;
                    }
                    mon.reset();
                }
            }

            // Feed the load-shedding controller (replayed attempts too:
            // the resumed controller must retrace the original's path).
            if let Some(ctrl) = shed_ctrl.as_mut() {
                match ctrl.observe(done, is_retryable(&rec.outcome)) {
                    ShedDecision::Cut(limit) => {
                        tel.emit(done, EventKind::ShedCut { limit });
                    }
                    ShedDecision::Raise(limit) => {
                        tel.emit(done, EventKind::ShedRaise { limit });
                        if let Some(w) = shed_parked.pop() {
                            queue.push(done, Event::WorkerFree(w));
                        }
                    }
                    ShedDecision::Hold => {}
                }
            }
            // An SLO alert with `escalate` on asks for a cut the organic
            // trip-rate path hasn't taken yet; the controller still
            // enforces its own floor and cooldown. Stable events drive the
            // monitor, so a resumed run retraces these cuts exactly.
            if tel.take_escalation() {
                if let Some(ctrl) = shed_ctrl.as_mut() {
                    if let Some(limit) = ctrl.force_cut(done) {
                        tel.emit(done, EventKind::ShedCut { limit });
                    }
                }
            }

            let mut requeued = false;
            let mut dead_lettered = false;
            if let Some(policy) = &self.retry {
                histories[j].push(rec.outcome.clone());
                let failed = is_retryable(&rec.outcome);
                if let Some(b) = breaker.as_mut() {
                    if failed {
                        if b.on_failure(&job.endpoint, done) {
                            metrics.breaker_trips += 1;
                            tel.emit(
                                done,
                                EventKind::BreakerTrip {
                                    endpoint: endpoint.clone(),
                                },
                            );
                        }
                    } else {
                        b.on_success(&job.endpoint);
                    }
                }
                if failed {
                    if attempts[j] < policy.max_attempts {
                        metrics.retries += 1;
                        let delay = policy.backoff.delay(job.tag, attempts[j]);
                        tel.emit(
                            done,
                            EventKind::Retry {
                                tag: job.tag,
                                next_attempt: attempts[j] + 1,
                                delay_ms: delay.as_millis(),
                            },
                        );
                        queue.push(done + delay, Event::JobReady(j));
                        requeued = true;
                    } else {
                        metrics.dead_lettered += 1;
                        dead_lettered = true;
                        dead_letters.push(DeadLetter {
                            tag: job.tag,
                            attempts: attempts[j],
                            last_outcome: rec.outcome.clone(),
                            history: std::mem::take(&mut histories[j]),
                        });
                    }
                }
            }
            if !requeued {
                tel.emit(
                    done,
                    EventKind::JobEnd {
                        tag: job.tag,
                        outcome: OutcomeCode::of(&rec.outcome),
                        attempts: attempts[j],
                        dead_lettered,
                    },
                );
                metrics.record(&rec);
                records.push(rec);
            }

            queue.push(done + self.politeness, Event::WorkerFree(worker));
        }

        for w in 0..started {
            tel.emit(makespan, EventKind::WorkerEnd { worker: w as u32 });
        }
        tel.emit(
            makespan,
            EventKind::CampaignEnd {
                makespan_ms: makespan.as_millis(),
            },
        );

        let health = tel.take_monitor().map(|m| m.finish());
        let drift = self.drift.as_ref().map(|_| DriftReport {
            total_sightings: drift_mons.values().map(|m| m.total_sightings).sum(),
            per_endpoint: drift_mons
                .iter()
                .map(|(e, m)| (e.to_string(), m.drift_rate()))
                .collect(),
            rebootstraps: quarantines
                .iter()
                .map(|(e, n)| (e.to_string(), *n))
                .collect(),
        });
        Ok(OrchestratorReport {
            records,
            metrics,
            makespan,
            dead_letters,
            concurrency_timeline: shed_ctrl.map(|c| c.timeline().to_vec()).unwrap_or_default(),
            telemetry: tel.summary(),
            health,
            drift,
        })
    }
}

/// Each job's endpoint as one shared allocation per distinct endpoint:
/// every event that names an endpoint clones the `Arc`, not the text.
fn intern_endpoints(jobs: &[QueryJob]) -> Vec<Arc<str>> {
    let mut interned: BTreeMap<&str, Arc<str>> = BTreeMap::new();
    jobs.iter()
        .map(|job| {
            interned
                .entry(job.endpoint.as_str())
                .or_insert_with(|| Arc::from(job.endpoint.as_str()))
                .clone()
        })
        .collect()
}

/// A job that exhausted its attempt budget without a hit.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The job's correlation tag.
    pub tag: u64,
    /// Attempts consumed (equals the policy's budget).
    pub attempts: u32,
    /// The outcome of the final attempt.
    pub last_outcome: QueryOutcome,
    /// Outcome of every attempt in order — the post-mortem trail
    /// (`history.last() == Some(&last_outcome)`).
    pub history: Vec<QueryOutcome>,
}

/// Everything an orchestrated run produced.
#[derive(Debug, Clone)]
pub struct OrchestratorReport {
    /// Per-address records, in completion order. Exactly one per job,
    /// retries or not.
    pub records: Vec<QueryRecord>,
    /// Aggregated counters.
    pub metrics: Metrics,
    /// Virtual time when the last query finished.
    pub makespan: SimTime,
    /// Jobs whose retry budget ran dry (empty when retries are off).
    pub dead_letters: Vec<DeadLetter>,
    /// `(virtual time, ceiling)` every time the load-shedding controller
    /// moved the concurrency ceiling (empty when shedding is off). The
    /// first entry is the starting ceiling.
    pub concurrency_timeline: Vec<(SimTime, u32)>,
    /// The run's aggregated event stream: counter families plus
    /// per-endpoint and per-worker histograms. The supervision views
    /// below are computed from it.
    pub telemetry: TelemetrySummary,
    /// The live monitor's final judgement — alerts, window state and the
    /// folded profile. `None` unless `Campaign::monitor` was attached.
    pub health: Option<HealthReport>,
    /// The drift watch's summary — sightings, final per-endpoint rates
    /// and quarantine counts. `None` unless `Campaign::drift_monitor`
    /// was armed.
    pub drift: Option<DriftReport>,
}

impl OrchestratorReport {
    /// Mean per-query duration in seconds (the scaling experiment's
    /// response-time metric), over hit queries.
    pub fn mean_hit_duration_s(&self) -> Option<f64> {
        let d = self.metrics.durations_s();
        if d.is_empty() {
            None
        } else {
            Some(d.iter().sum::<f64>() / d.len() as f64)
        }
    }

    /// Journal bookkeeping for resumed runs (zeros when not journaled).
    ///
    /// Deliberately outside [`Metrics`]: resumed and uninterrupted runs
    /// must produce *equal* metrics, and this split is exactly what
    /// differs between them.
    pub fn resume(&self) -> ResumeStats {
        self.telemetry.resume()
    }

    /// Times the load-shedding controller cut the concurrency ceiling.
    pub fn shed_events(&self) -> u64 {
        self.telemetry.shed_cuts
    }

    /// Workers the watchdog reclaimed from hung sessions.
    pub fn stalls_reclaimed(&self) -> u64 {
        self.telemetry.stalls_reclaimed
    }

    /// Template re-bootstraps the drift watch completed.
    pub fn rebootstraps(&self) -> u64 {
        self.telemetry.rebootstraps_completed
    }

    /// This report's slice of a metrics exposition / folded profile,
    /// labelled `label`. `None` unless the campaign was monitored.
    pub fn health_section<'a>(&'a self, label: &'a str) -> Option<CampaignSection<'a>> {
        self.health.as_ref().map(|health| CampaignSection {
            label,
            telemetry: &self.telemetry,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use crate::journal::Journal;
    use bbsim_bat::{templates, BatServer};
    use bbsim_census::city_by_name;
    use bbsim_isp::{CityWorld, Isp};
    use bbsim_net::{FaultPlan, RotationPolicy};
    use std::sync::Arc;

    fn setup() -> (Transport, Vec<QueryJob>) {
        setup_with(Transport::new(11))
    }

    fn setup_with(mut t: Transport) -> (Transport, Vec<QueryJob>) {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        t.register("centurylink/billings", server.endpoint());
        let dialect = templates::dialect_of(Isp::CenturyLink);
        let jobs: Vec<QueryJob> = world
            .addresses()
            .records()
            .iter()
            .take(150)
            .map(|r| QueryJob::listing("centurylink/billings", dialect, r))
            .collect();
        (t, jobs)
    }

    #[test]
    fn completes_every_job_exactly_once() {
        let (mut t, jobs) = setup();
        let orch = Orchestrator {
            n_workers: 16,
            ..Orchestrator::paper_default(1)
        };
        let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, 1);
        let report = Campaign::from_orchestrator(orch).run(&mut t, &jobs, &mut pool);
        assert_eq!(report.records.len(), jobs.len());
        let mut tags: Vec<u64> = report.records.iter().map(|r| r.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), jobs.len());
    }

    #[test]
    fn more_workers_shrink_makespan() {
        let (mut t1, jobs) = setup();
        let mut pool1 = IpPool::residential(256, RotationPolicy::RoundRobin, 2);
        let serial = Campaign::new(2).workers(1).run(&mut t1, &jobs, &mut pool1);

        let (mut t2, jobs2) = setup();
        let mut pool2 = IpPool::residential(256, RotationPolicy::RoundRobin, 2);
        let parallel = Campaign::new(2)
            .workers(50)
            .run(&mut t2, &jobs2, &mut pool2);

        assert!(
            parallel.makespan.as_millis() * 5 < serial.makespan.as_millis(),
            "serial {} vs parallel {}",
            serial.makespan,
            parallel.makespan
        );
    }

    #[test]
    fn response_time_is_flat_across_worker_counts() {
        // The paper's §4.1 experiment: per-query response time does not
        // change between 1 and 200 containers (with a healthy IP pool).
        let mut means = Vec::new();
        for &n in &[1usize, 50, 200] {
            let (mut t, jobs) = setup();
            let mut pool = IpPool::residential(256, RotationPolicy::RoundRobin, 3);
            let report = Campaign::new(3).workers(n).run(&mut t, &jobs, &mut pool);
            means.push(report.mean_hit_duration_s().unwrap());
        }
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min < 1.25, "response times varied: {means:?}");
    }

    #[test]
    fn single_shared_ip_trips_rate_limits_with_many_workers() {
        // The flip side: funnel 100 workers through one residential IP and
        // the BAT's per-IP limiter starts blocking.
        let (mut t, jobs) = setup();
        let mut pool = IpPool::residential(1, RotationPolicy::RoundRobin, 4);
        let report = Campaign::new(4)
            .workers(100)
            .politeness(SimDuration::from_secs(1))
            .run(&mut t, &jobs, &mut pool);
        assert!(
            report.metrics.blocked > 0,
            "expected rate-limit blocks, got {:?}",
            report.metrics
        );
    }

    #[test]
    fn hit_rate_stays_high_under_paper_defaults() {
        let (mut t, jobs) = setup();
        let mut pool = IpPool::residential(128, RotationPolicy::RoundRobin, 5);
        let report = Campaign::new(5).run(&mut t, &jobs, &mut pool);
        assert!(
            report.metrics.hit_rate() > 0.75,
            "hit rate {}",
            report.metrics.hit_rate()
        );
    }

    #[test]
    fn runs_with_more_workers_than_jobs() {
        let (mut t, jobs) = setup();
        let few: Vec<QueryJob> = jobs.into_iter().take(3).collect();
        let mut pool = IpPool::residential(8, RotationPolicy::RoundRobin, 6);
        let report = Campaign::new(6)
            .workers(64)
            .politeness(SimDuration::from_secs(1))
            .run(&mut t, &few, &mut pool);
        assert_eq!(report.records.len(), 3);
    }

    #[test]
    fn journaled_run_without_crash_matches_plain_journaled_rerun() {
        // Same campaign journaled twice from scratch: identical reports.
        let run = || {
            let (mut t, jobs) = setup_with(Transport::hermetic(11));
            let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, 1);
            let mut journal = Journal::in_memory();
            Campaign::from_orchestrator(Orchestrator {
                n_workers: 16,
                ..Orchestrator::with_retries(7)
            })
            .run_journaled(&mut journal, &mut t, &jobs, &mut pool)
            .unwrap()
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.resume().replayed_attempts, 0);
        assert!(a.resume().live_attempts >= 150);
    }

    #[test]
    fn watchdog_reclaims_stalled_workers_and_retries_win() {
        // Stall every request to the endpoint for the first 20 virtual
        // minutes; with retries, jobs recover after the window lifts.
        let mut t = Transport::hermetic(11);
        t.set_fault_plan(FaultPlan::new(5).hermetic().stalls(
            "centurylink/billings",
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(1200),
            0.9,
        ));
        let (mut t, jobs) = setup_with(t);
        let few: Vec<QueryJob> = jobs.into_iter().take(40).collect();
        let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, 2);
        let report = Campaign::from_orchestrator(Orchestrator {
            n_workers: 8,
            watchdog: SimDuration::from_secs(120),
            ..Orchestrator::with_retries(9)
        })
        .run(&mut t, &few, &mut pool);
        assert_eq!(report.records.len(), 40, "no job lost to a hang");
        assert!(
            report.stalls_reclaimed() > 0,
            "stalls were injected: {:?}",
            report.telemetry
        );
        // Every stalled attempt was charged at least the watchdog.
        for r in &report.records {
            if r.outcome == QueryOutcome::Stalled {
                assert!(r.duration >= SimDuration::from_secs(120));
            }
        }
    }

    #[test]
    fn dead_letters_carry_their_attempt_history() {
        // A permanently stalling endpoint dead-letters everything, and
        // each dead letter shows all four attempts stalling.
        let mut t = Transport::hermetic(3);
        t.set_fault_plan(FaultPlan::new(5).hermetic().stalls(
            "centurylink/billings",
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_secs(1_000_000),
            1.0,
        ));
        let (mut t, jobs) = setup_with(t);
        let few: Vec<QueryJob> = jobs.into_iter().take(10).collect();
        let mut pool = IpPool::residential(16, RotationPolicy::RoundRobin, 3);
        let report = Campaign::from_orchestrator(Orchestrator {
            n_workers: 4,
            watchdog: SimDuration::from_secs(60),
            ..Orchestrator::with_retries(10)
        })
        .run(&mut t, &few, &mut pool);
        assert_eq!(report.dead_letters.len(), 10);
        for dl in &report.dead_letters {
            assert_eq!(dl.attempts as usize, dl.history.len());
            assert_eq!(dl.history.last(), Some(&dl.last_outcome));
            assert!(dl.history.iter().all(|o| *o == QueryOutcome::Stalled));
        }
    }

    /// The legacy `Orchestrator::run`/`run_journaled`/
    /// `run_journaled_with_crash` shims are gone; `Campaign` carries their
    /// contracts: a plain run is deterministic (what the old shim-parity
    /// test really pinned down), and an early crash loses the report.
    #[test]
    fn campaign_builder_subsumes_the_legacy_run_contracts() {
        let orch = Orchestrator {
            n_workers: 16,
            ..Orchestrator::with_retries(7)
        };

        let run_plain = || {
            let (mut t, jobs) = setup_with(Transport::hermetic(11));
            let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, 1);
            Campaign::from_orchestrator(orch.clone()).run(&mut t, &jobs, &mut pool)
        };
        let a = run_plain();
        let b = run_plain();
        assert_eq!(a.records, b.records);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.makespan, b.makespan);

        let (mut t, jobs) = setup_with(Transport::hermetic(11));
        let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, 1);
        let mut journal = Journal::in_memory().crash_at(SimTime::from_millis(60_000));
        let crashed = Campaign::from_orchestrator(orch)
            .run_journaled(&mut journal, &mut t, &jobs, &mut pool)
            .unwrap();
        assert!(crashed.is_none(), "early crash loses the report");
        assert!(!journal.attempts().is_empty(), "but not the journal");
    }
}
