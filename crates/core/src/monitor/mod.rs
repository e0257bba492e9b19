//! Live campaign observability: sliding-window health, SLO alerting,
//! metrics exposition and a virtual-clock phase profiler.
//!
//! The ROADMAP's telemetry layer narrates a campaign; this module *judges*
//! it while it runs. A [`CampaignMonitor`] rides inside the
//! [`Telemetry`](crate::telemetry::Telemetry) fan-out (installed via
//! `Campaign::monitor`, or by the serve engine) and maintains:
//!
//! * a `SlidingWindow` — a ring of virtual-time buckets tracking hit
//!   rate, latency p50/p99, retry and breaker-flap rate, queue depth, shed
//!   level and worker liveness;
//! * an `SloEngine` of declarative [`SloRule`]s with
//!   hysteresis, which emits [`AlertFired`](crate::telemetry::EventKind)/
//!   `AlertResolved` events back into the stream and can optionally
//!   escalate to the load-shedder;
//! * a `PhaseProfiler` folding the span tree
//!   into flamegraph-compatible folded stacks.
//!
//! At campaign end the monitor condenses into a [`HealthReport`]
//! (`OrchestratorReport::health`), from which [`render_prometheus`] and
//! [`render_folded`] produce the `health.prom` / `profile.folded`
//! artifacts the dataset pipeline writes next to `events.jsonl`.
//!
//! ## Determinism
//!
//! The monitor consumes only the *replay-stable* event subset and orders
//! it by virtual time before folding (the raw stream is in emission
//! order, where an attempt's end is announced ahead of later-emitted but
//! earlier-stamped events; [`WatermarkHeap::observe`], the fold the trace
//! assembler runs too, restores time order exactly, and only those
//! future-stamped events ever wait in its heap). Windows,
//! alerts, the exposition and the stable profile are therefore
//! byte-identical across repeated runs *and* across crash+resume — the
//! invariant the `health` CI job enforces.

mod expo;
mod merge;
mod profile;
mod slo;
mod window;

pub use expo::{render_folded, render_prometheus, CampaignSection};
pub use merge::{advances_watermark, WatermarkHeap};
pub use slo::{Alert, SloRule, SloSignal};
pub use window::{EndpointWindow, WindowSnapshot};

use crate::telemetry::{Event, EventKind};
use crate::trace::{ExemplarSet, TraceAssembler};
use bbsim_net::{SimDuration, SimTime};
use slo::SloEngine;
use std::collections::BTreeMap;

/// Applies `f` to `key`'s entry, inserting a default one first if absent.
/// Unlike `entry(key.to_owned())`, it clones the key only on insert: the
/// window's fold runs once per event and almost always finds its entry.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(value) => f(value),
        None => {
            let mut value = V::default();
            f(&mut value);
            map.insert(key.to_owned(), value);
        }
    }
}

/// Endpoint names interned once per fold: the first sighting stores the
/// name, later ones cost one lookup, and the fold's own keys hold the id.
#[derive(Debug, Default)]
pub(crate) struct Names {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

impl Names {
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// The name `intern` returned `id` for.
    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// Configuration for a campaign's live monitor.
#[derive(Debug, Clone)]
pub struct MonitorPolicy {
    /// Width of one window bucket on the virtual clock.
    pub bucket: SimDuration,
    /// Buckets in the ring; window span = `bucket × buckets`.
    pub buckets: usize,
    /// The SLOs to watch. Rules are evaluated at every bucket boundary.
    pub rules: Vec<SloRule>,
    /// Ask the load-shedder to cut the concurrency ceiling whenever an
    /// alert fires (the orchestrator polls this between loop steps).
    pub escalate: bool,
    /// Capture a window snapshot every so often (for dashboards); the
    /// final snapshot is always captured.
    pub checkpoint_every: Option<SimDuration>,
    /// Global capacity of the slowest-trace exemplar reservoir (the
    /// slowest trace per endpoint is kept regardless). Exemplar ids ride
    /// on `AlertFired` events and `# EXEMPLAR` lines in `health.prom`.
    pub exemplars: usize,
}

impl MonitorPolicy {
    /// The paper-scale defaults: 10 one-minute buckets, hit rate ≥ 0.95
    /// over the window, p99 attempt latency ≤ 10 virtual minutes, at most
    /// 10 breaker flaps per window. No escalation.
    pub fn paper_default() -> Self {
        Self {
            bucket: SimDuration::from_secs(60),
            buckets: 10,
            rules: vec![
                SloRule::hit_rate_at_least(0.95),
                SloRule::p99_latency_at_most(600_000),
                SloRule::breaker_flaps_at_most(10),
            ],
            escalate: false,
            checkpoint_every: None,
            exemplars: 3,
        }
    }

    pub fn rules(mut self, rules: Vec<SloRule>) -> Self {
        self.rules = rules;
        self
    }

    pub fn escalate(mut self, on: bool) -> Self {
        self.escalate = on;
        self
    }

    pub fn checkpoint_every(mut self, every: SimDuration) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    pub fn exemplars(mut self, k: usize) -> Self {
        self.exemplars = k;
        self
    }
}

/// What the monitor knows once the campaign ends.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Every alert that fired, in firing order (unresolved ones keep
    /// `resolved_at: None`).
    pub alerts: Vec<Alert>,
    /// The sliding window's state at campaign end.
    pub window: WindowSnapshot,
    /// `(virtual_ms, snapshot)` at each checkpoint interval, if enabled.
    pub checkpoints: Vec<(u64, WindowSnapshot)>,
    /// Folded-stack frames: virtual ms per `;`-joined stack (no root
    /// label; [`render_folded`] prepends the campaign label).
    pub frames: BTreeMap<String, u64>,
    pub makespan_ms: u64,
    /// Workers that actually entered the pool.
    pub started_workers: u32,
    /// Shed cuts the SLO engine requested (granted or not).
    pub escalations: u64,
    /// The slowest-trace exemplars assembled from the same ordered
    /// stream the window consumed (see [`crate::trace`]).
    pub exemplars: ExemplarSet,
}

impl HealthReport {
    pub fn alerts_fired(&self) -> u64 {
        self.alerts.len() as u64
    }

    pub fn alerts_resolved(&self) -> u64 {
        self.alerts
            .iter()
            .filter(|a| a.resolved_at.is_some())
            .count() as u64
    }

    /// Alerts still open at campaign end.
    pub fn alerts_active(&self) -> u64 {
        self.alerts_fired() - self.alerts_resolved()
    }

    /// One-line pass/fail: healthy means nothing is burning *now*.
    pub fn healthy(&self) -> bool {
        self.alerts_active() == 0
    }
}

/// The live monitor: windows, SLO engine and profiler over one campaign.
pub struct CampaignMonitor {
    policy: MonitorPolicy,
    window: window::SlidingWindow,
    engine: SloEngine,
    profiler: profile::PhaseProfiler,
    assembler: TraceAssembler,
    heap: WatermarkHeap<EventKind>,
    pending: Vec<Event>,
    escalation_pending: bool,
    escalations: u64,
    checkpoints: Vec<(u64, WindowSnapshot)>,
    next_checkpoint_ms: Option<u64>,
    makespan_ms: u64,
    started_workers: u32,
}

impl CampaignMonitor {
    pub fn new(policy: MonitorPolicy) -> Self {
        let window = window::SlidingWindow::new(policy.bucket.as_millis(), policy.buckets);
        let engine = SloEngine::new(policy.rules.clone());
        let profiler = profile::PhaseProfiler::default();
        let next_checkpoint_ms = policy.checkpoint_every.map(|d| d.as_millis().max(1));
        let assembler = TraceAssembler::new(policy.exemplars);
        Self {
            policy,
            window,
            engine,
            profiler,
            assembler,
            heap: WatermarkHeap::new(),
            pending: Vec::new(),
            escalation_pending: false,
            escalations: 0,
            checkpoints: Vec::new(),
            next_checkpoint_ms,
            makespan_ms: 0,
            started_workers: 0,
        }
    }

    /// Feeds one event of the stream, in emission order.
    pub fn observe(&mut self, event: &Event) {
        if !event.kind.replay_stable() {
            // Ephemeral events never reach the window, the SLO engine or
            // the profiler.
            return;
        }
        self.profiler.observe(&event.kind);
        match &event.kind {
            EventKind::WorkerBegin { .. } => self.started_workers += 1,
            EventKind::CampaignEnd { makespan_ms } => self.makespan_ms = *makespan_ms,
            _ => {}
        }
        // The heap is taken out so its fold can borrow the monitor.
        let mut heap = std::mem::take(&mut self.heap);
        heap.observe(event, |at_ms, kind| self.process(at_ms, kind));
        self.heap = heap;
    }

    /// Handles one event in exact virtual-time order: cross any bucket
    /// boundaries (evaluating the SLO rules at each) and checkpoint
    /// instants up to its timestamp, then fold it into the open bucket.
    fn process(&mut self, at_ms: u64, kind: &EventKind) {
        loop {
            let boundary = self.window.next_boundary_ms();
            let checkpoint = self.next_checkpoint_ms.unwrap_or(u64::MAX);
            if boundary.min(checkpoint) > at_ms {
                break;
            }
            if checkpoint < boundary {
                let snap = self.window.snapshot(checkpoint);
                self.checkpoints.push((checkpoint, snap));
                self.next_checkpoint_ms = self
                    .policy
                    .checkpoint_every
                    .map(|every| checkpoint + every.as_millis());
                continue;
            }
            let snap = self.window.snapshot(boundary);
            let exemplars = self.assembler.exemplar_csv();
            let fired = self.engine.evaluate(
                SimTime::from_millis(boundary),
                &snap,
                &exemplars,
                &mut self.pending,
            );
            if fired > 0 && self.policy.escalate {
                self.escalation_pending = true;
                self.escalations += fired as u64;
            }
            if checkpoint == boundary {
                self.checkpoints.push((boundary, snap));
                self.next_checkpoint_ms = self
                    .policy
                    .checkpoint_every
                    .map(|every| boundary + every.as_millis());
            }
            self.window.rotate();
        }
        self.window.record(kind);
        self.assembler.ingest(at_ms, kind);
    }

    /// Alert events synthesized since the last call, in order.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.pending)
    }

    /// True once per pending escalation request; clears it.
    pub fn take_escalation(&mut self) -> bool {
        std::mem::take(&mut self.escalation_pending)
    }

    /// The window's current state (for live dashboards).
    pub fn snapshot(&self) -> WindowSnapshot {
        self.window.snapshot(self.heap.watermark())
    }

    /// Condenses the monitor into its final report. Call after the stream
    /// ended (`CampaignEnd` drains the heap completely).
    pub fn finish(mut self) -> HealthReport {
        let mut heap = std::mem::take(&mut self.heap);
        heap.flush(|at_ms, kind| self.process(at_ms, kind));
        let window = self.window.snapshot(self.makespan_ms);
        HealthReport {
            alerts: self.engine.into_alerts(),
            window,
            checkpoints: self.checkpoints,
            frames: self.profiler.finish(self.makespan_ms, self.started_workers),
            makespan_ms: self.makespan_ms,
            started_workers: self.started_workers,
            escalations: self.escalations,
            exemplars: self.assembler.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OutcomeCode;

    fn e(ms: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_millis(ms),
            kind,
        }
    }

    fn attempt_pair(monitor: &mut CampaignMonitor, begin_ms: u64, ms: u64, hit: bool) {
        monitor.observe(&e(
            begin_ms,
            EventKind::AttemptBegin {
                tag: begin_ms,
                attempt: 1,
                worker: 0,
                endpoint: "isp/city".into(),
            },
        ));
        monitor.observe(&e(
            begin_ms + ms,
            EventKind::AttemptEnd {
                tag: begin_ms,
                attempt: 1,
                worker: 0,
                endpoint: "isp/city".into(),
                outcome: if hit {
                    OutcomeCode::Plans
                } else {
                    OutcomeCode::Failed
                },
                duration_ms: ms,
                steps: 2,
            },
        ));
    }

    fn policy() -> MonitorPolicy {
        MonitorPolicy::paper_default().rules(vec![SloRule::hit_rate_at_least(0.9)
            .hysteresis(1, 1)
            .min_samples(1)])
    }

    #[test]
    fn failing_attempts_fire_an_alert_and_recovery_resolves_it() {
        let mut m = CampaignMonitor::new(policy());
        m.observe(&e(
            0,
            EventKind::CampaignBegin {
                seed: 1,
                n_jobs: 10,
                n_workers: 1,
            },
        ));
        m.observe(&e(0, EventKind::WorkerBegin { worker: 0 }));
        for i in 0..10 {
            attempt_pair(&mut m, i * 10_000, 5_000, false);
        }
        // Crossing the first bucket boundary evaluates the rule.
        attempt_pair(&mut m, 70_000, 5_000, true);
        let fired: Vec<Event> = m.take_events();
        assert!(
            matches!(&fired[0].kind, EventKind::AlertFired { rule, .. } if rule == "hit_rate"),
            "got {fired:?}"
        );
        // Pure hits until the failure buckets (0–120 s) rotate out of the
        // ten-minute window: the 720 s boundary is the first clean one, so
        // traffic must push the watermark past it.
        for i in 0..13 {
            attempt_pair(&mut m, 80_000 + i * 60_000, 5_000, true);
        }
        let resolved = m.take_events();
        assert!(resolved
            .iter()
            .any(|ev| matches!(&ev.kind, EventKind::AlertResolved { .. })));
        m.observe(&e(900_000, EventKind::WorkerEnd { worker: 0 }));
        m.observe(&e(
            900_000,
            EventKind::CampaignEnd {
                makespan_ms: 900_000,
            },
        ));
        let report = m.finish();
        assert_eq!(report.alerts_fired(), 1);
        assert_eq!(report.alerts_resolved(), 1);
        assert!(report.healthy());
        assert_eq!(report.makespan_ms, 900_000);
        assert_eq!(report.started_workers, 1);
    }

    #[test]
    fn out_of_order_emission_is_refolded_into_time_order() {
        // An attempt's end is emitted before a later AttemptBegin with an
        // *earlier* timestamp — the heap must hold it back so the early
        // attempt lands in the early bucket.
        let mut m = CampaignMonitor::new(policy());
        m.observe(&e(0, EventKind::WorkerBegin { worker: 0 }));
        m.observe(&e(
            0,
            EventKind::AttemptBegin {
                tag: 1,
                attempt: 1,
                worker: 0,
                endpoint: "isp/city".into(),
            },
        ));
        // Stamped at 70s, emitted now: waits in the heap.
        m.observe(&e(
            70_000,
            EventKind::AttemptEnd {
                tag: 1,
                attempt: 1,
                worker: 0,
                endpoint: "isp/city".into(),
                outcome: OutcomeCode::Failed,
                duration_ms: 70_000,
                steps: 1,
            },
        ));
        // No boundary has been crossed yet: the watermark is still at 0.
        assert!(m.take_events().is_empty());
        attempt_pair(&mut m, 10_000, 5_000, true);
        // Still none: watermark 15s < first boundary 60s.
        assert!(m.take_events().is_empty());
        // This begin pushes the watermark past 60s; the boundary sees only
        // the 15s hit (the 70s failure is still in the future), so the
        // hit-rate rule stays clean.
        m.observe(&e(
            61_000,
            EventKind::AttemptBegin {
                tag: 3,
                attempt: 1,
                worker: 0,
                endpoint: "isp/city".into(),
            },
        ));
        assert!(m.take_events().is_empty());
        m.observe(&e(
            200_000,
            EventKind::CampaignEnd {
                makespan_ms: 200_000,
            },
        ));
        let report = m.finish();
        // Both attempts were eventually folded in.
        assert_eq!(report.window.attempts, 2);
    }

    #[test]
    fn checkpoints_capture_window_evolution() {
        let mut m = CampaignMonitor::new(policy().checkpoint_every(SimDuration::from_secs(90)));
        m.observe(&e(0, EventKind::WorkerBegin { worker: 0 }));
        for i in 0..4 {
            attempt_pair(&mut m, i * 60_000, 5_000, true);
        }
        m.observe(&e(
            300_000,
            EventKind::CampaignEnd {
                makespan_ms: 300_000,
            },
        ));
        let report = m.finish();
        let at: Vec<u64> = report.checkpoints.iter().map(|(ms, _)| *ms).collect();
        assert_eq!(at, vec![90_000, 180_000, 270_000]);
        assert!(report.checkpoints[0].1.attempts >= 1);
    }

    #[test]
    fn exemplar_trace_ids_ride_alerts_and_land_on_the_report() {
        let mut m = CampaignMonitor::new(policy());
        m.observe(&e(0, EventKind::WorkerBegin { worker: 0 }));
        for i in 0..10u64 {
            let t = i * 5_000;
            m.observe(&e(
                t,
                EventKind::JobBegin {
                    tag: t,
                    endpoint: "isp/city".into(),
                },
            ));
            attempt_pair(&mut m, t, 4_000, false);
            m.observe(&e(
                t + 4_000,
                EventKind::JobEnd {
                    tag: t,
                    outcome: OutcomeCode::Failed,
                    attempts: 1,
                    dead_lettered: false,
                },
            ));
        }
        // Crossing the first bucket boundary fires the hit-rate rule; by
        // then the completed jobs above are in the reservoir.
        attempt_pair(&mut m, 70_000, 5_000, true);
        let fired = m.take_events();
        let EventKind::AlertFired { rule, exemplars } = &fired[0].kind else {
            panic!("expected AlertFired, got {fired:?}");
        };
        assert_eq!(rule, "hit_rate");
        // All ties at 4 s — the earliest-finished three win, in order.
        assert_eq!(
            exemplars,
            "isp/city:0@0,isp/city:1388@5000,isp/city:2710@10000"
        );
        m.observe(&e(
            100_000,
            EventKind::CampaignEnd {
                makespan_ms: 100_000,
            },
        ));
        let report = m.finish();
        assert_eq!(report.exemplars.global.len(), 3);
        assert_eq!(report.exemplars.csv(), *exemplars);
        assert_eq!(report.exemplars.per_endpoint["isp/city"].tag, 0);
    }

    #[test]
    fn escalation_is_requested_only_when_enabled() {
        for (escalate, expect) in [(false, false), (true, true)] {
            let mut m = CampaignMonitor::new(policy().escalate(escalate));
            m.observe(&e(0, EventKind::WorkerBegin { worker: 0 }));
            for i in 0..10 {
                attempt_pair(&mut m, i * 5_000, 2_000, false);
            }
            attempt_pair(&mut m, 70_000, 1_000, false);
            assert_eq!(m.take_escalation(), expect);
            assert!(!m.take_escalation(), "request is one-shot");
        }
    }
}
