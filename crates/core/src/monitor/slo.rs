//! The SLO rule engine: declarative thresholds over window snapshots,
//! with hysteresis.
//!
//! Rules are evaluated at every bucket boundary of the sliding window —
//! i.e. on the virtual clock, never on wall time. A rule must breach on
//! `fire_after` *consecutive* evaluations before its alert opens, and
//! measure clean on `resolve_after` consecutive evaluations before it
//! closes, so a single noisy bucket cannot flap an alert. Boundaries where
//! the signal has no data (e.g. fewer than `min_samples` attempts in the
//! window) are skipped entirely: they neither fire nor resolve.

use super::window::WindowSnapshot;
use crate::telemetry::{Event, EventKind};
use bbsim_net::SimTime;

/// What a rule measures over the current window.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSignal {
    /// Hits per finished attempt (breaches *below* threshold).
    HitRate,
    /// Windowed attempt-latency p99 in ms (breaches above).
    LatencyP99Ms,
    /// Circuit-breaker flaps (opens) in the window (breaches above).
    BreakerFlaps,
    /// Fraction of windowed attempts whose pages the template set
    /// recognized (breaches *below* threshold) — the drift signal.
    MatchConfidence,
    /// Fraction of windowed serve lookups the LRU answer cache satisfied
    /// (breaches *below* threshold).
    CacheHitRate,
}

impl SloSignal {
    /// The signal's current value, or `None` when the window cannot
    /// support a judgement yet.
    fn measure(&self, snap: &WindowSnapshot, scope: Option<&str>) -> Option<f64> {
        if let Some(endpoint) = scope {
            let e = snap.per_endpoint.get(endpoint)?;
            return match self {
                SloSignal::HitRate => e.hit_rate(),
                SloSignal::LatencyP99Ms => e.latency.quantile_ms(0.99).map(|v| v as f64),
                SloSignal::MatchConfidence => e.match_confidence(),
                // The remaining signals are campaign-wide; a scoped rule
                // over them still reads the global value.
                _ => self.measure(snap, None),
            };
        }
        match self {
            SloSignal::HitRate => snap.hit_rate(),
            SloSignal::LatencyP99Ms => snap.p99_ms().map(|v| v as f64),
            SloSignal::BreakerFlaps => Some(snap.breaker_trips as f64),
            SloSignal::MatchConfidence => snap.match_confidence(),
            SloSignal::CacheHitRate => snap.cache_hit_rate(),
        }
    }

    /// Whether the rule breaches when the signal falls *below* the
    /// threshold (true for the "health floor" signals).
    fn breaches_below(&self) -> bool {
        matches!(
            self,
            SloSignal::HitRate | SloSignal::MatchConfidence | SloSignal::CacheHitRate
        )
    }
}

/// One declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Unique label; appears in `AlertFired`/`AlertResolved` events.
    pub name: String,
    pub signal: SloSignal,
    /// Restrict the signal to one endpoint (`None` = whole campaign).
    pub endpoint: Option<String>,
    pub threshold: f64,
    /// Attempts the window must hold before the rule is evaluated at all.
    /// Scoped rules count only the scoped endpoint's attempts — a trickle
    /// of stragglers on one endpoint must not flap its alert.
    pub min_samples: u64,
    /// Consecutive breaching evaluations before the alert fires.
    pub fire_after: u32,
    /// Consecutive clean evaluations before an active alert resolves.
    pub resolve_after: u32,
}

impl SloRule {
    fn base(name: &str, signal: SloSignal, threshold: f64) -> Self {
        Self {
            name: name.to_string(),
            signal,
            endpoint: None,
            threshold,
            min_samples: 10,
            fire_after: 2,
            resolve_after: 3,
        }
    }

    /// `hit_rate >= threshold` over the window.
    pub fn hit_rate_at_least(threshold: f64) -> Self {
        Self::base("hit_rate", SloSignal::HitRate, threshold)
    }

    /// Windowed attempt-latency p99 must stay at or below `ms`.
    pub fn p99_latency_at_most(ms: u64) -> Self {
        Self::base("p99_latency", SloSignal::LatencyP99Ms, ms as f64)
    }

    /// Breaker flaps per window must stay at or below `n`.
    pub fn breaker_flaps_at_most(n: u64) -> Self {
        Self {
            min_samples: 0,
            ..Self::base("breaker_flaps", SloSignal::BreakerFlaps, n as f64)
        }
    }

    /// Template match confidence must stay at or above `threshold` —
    /// degradation means the endpoint's markup drifted away from the
    /// bootstrapped template set.
    pub fn match_confidence_at_least(threshold: f64) -> Self {
        Self::base("match_confidence", SloSignal::MatchConfidence, threshold)
    }

    /// Serve answer-cache hit rate must stay at or above `threshold` —
    /// a collapse means the request mix outran the cache (e.g. a
    /// cache-hostile scan is sweeping distinct keys).
    pub fn cache_hit_rate_at_least(threshold: f64) -> Self {
        Self::base("cache_hit_rate", SloSignal::CacheHitRate, threshold)
    }

    /// Scopes the rule to one endpoint and tags the name with it.
    pub fn scoped(mut self, endpoint: &str) -> Self {
        self.name = format!("{}:{}", self.name, endpoint);
        self.endpoint = Some(endpoint.to_string());
        self
    }

    /// Overrides the hysteresis counts.
    pub fn hysteresis(mut self, fire_after: u32, resolve_after: u32) -> Self {
        self.fire_after = fire_after.max(1);
        self.resolve_after = resolve_after.max(1);
        self
    }

    /// Overrides the evaluation floor.
    pub fn min_samples(mut self, n: u64) -> Self {
        self.min_samples = n;
        self
    }

    /// Whether the measured `value` violates the objective.
    fn breached(&self, value: f64) -> bool {
        if self.signal.breaches_below() {
            value < self.threshold
        } else {
            value > self.threshold
        }
    }
}

/// One opened (and possibly closed) alert, in firing order.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    pub rule: String,
    pub fired_at: SimTime,
    pub resolved_at: Option<SimTime>,
    /// The signal's value at the evaluation that fired the alert.
    pub value: f64,
    /// Comma-joined slowest-trace exemplar ids at fire time.
    pub exemplars: String,
}

#[derive(Debug, Clone, Default)]
struct RuleState {
    breaching: u32,
    clean: u32,
    /// Index into the engine's alert log while the alert is open.
    active: Option<usize>,
}

/// Evaluates every rule at each window boundary and owns the alert log.
#[derive(Debug)]
pub struct SloEngine {
    rules: Vec<(SloRule, RuleState)>,
    alerts: Vec<Alert>,
}

impl SloEngine {
    pub fn new(rules: Vec<SloRule>) -> Self {
        Self {
            rules: rules
                .into_iter()
                .map(|r| (r, RuleState::default()))
                .collect(),
            alerts: Vec::new(),
        }
    }

    /// Evaluates all rules against `snap` at boundary time `at`, appending
    /// any `AlertFired`/`AlertResolved` events to `out`. `exemplars` is
    /// the comma-joined slowest-trace ids current at this boundary — every
    /// alert that fires carries it, so a page names the offending traces.
    /// Returns how many alerts fired at this boundary.
    pub fn evaluate(
        &mut self,
        at: SimTime,
        snap: &WindowSnapshot,
        exemplars: &str,
        out: &mut Vec<Event>,
    ) -> u32 {
        let mut fired = 0;
        for (rule, state) in &mut self.rules {
            let samples = match rule.endpoint.as_deref() {
                Some(e) => snap.per_endpoint.get(e).map_or(0, |s| s.attempts),
                None => snap.attempts,
            };
            if samples < rule.min_samples {
                continue;
            }
            let Some(value) = rule.signal.measure(snap, rule.endpoint.as_deref()) else {
                continue;
            };
            if rule.breached(value) {
                state.breaching += 1;
                state.clean = 0;
                if state.active.is_none() && state.breaching >= rule.fire_after {
                    state.active = Some(self.alerts.len());
                    self.alerts.push(Alert {
                        rule: rule.name.clone(),
                        fired_at: at,
                        resolved_at: None,
                        value,
                        exemplars: exemplars.to_string(),
                    });
                    out.push(Event {
                        at,
                        kind: EventKind::AlertFired {
                            rule: rule.name.clone(),
                            exemplars: exemplars.to_string(),
                        },
                    });
                    fired += 1;
                }
            } else {
                state.clean += 1;
                state.breaching = 0;
                if let Some(idx) = state.active {
                    if state.clean >= rule.resolve_after {
                        self.alerts[idx].resolved_at = Some(at);
                        state.active = None;
                        out.push(Event {
                            at,
                            kind: EventKind::AlertResolved {
                                rule: rule.name.clone(),
                            },
                        });
                    }
                }
            }
        }
        fired
    }

    pub fn into_alerts(self) -> Vec<Alert> {
        self.alerts
    }

    #[cfg(test)]
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Histogram;

    fn snap(attempts: u64, hits: u64) -> WindowSnapshot {
        let mut latency = Histogram::new();
        for _ in 0..attempts {
            latency.record(50_000);
        }
        WindowSnapshot {
            attempts,
            hits,
            latency,
            ..WindowSnapshot::default()
        }
    }

    fn eval(engine: &mut SloEngine, ms: u64, s: &WindowSnapshot) -> Vec<Event> {
        let mut out = Vec::new();
        engine.evaluate(SimTime::from_millis(ms), s, "isp:2a@0", &mut out);
        out
    }

    #[test]
    fn hysteresis_gates_both_edges() {
        let rule = SloRule::hit_rate_at_least(0.95)
            .hysteresis(2, 3)
            .min_samples(5);
        let mut engine = SloEngine::new(vec![rule]);
        // One breaching boundary: not enough to fire.
        assert!(eval(&mut engine, 60_000, &snap(20, 10)).is_empty());
        // Second consecutive breach: fires.
        let events = eval(&mut engine, 120_000, &snap(20, 10));
        assert!(matches!(
            &events[0].kind,
            EventKind::AlertFired { rule, exemplars } if rule == "hit_rate" && exemplars == "isp:2a@0"
        ));
        // Two clean boundaries: still open (resolve_after = 3)...
        assert!(eval(&mut engine, 180_000, &snap(20, 20)).is_empty());
        assert!(eval(&mut engine, 240_000, &snap(20, 20)).is_empty());
        // ...third resolves it.
        let events = eval(&mut engine, 300_000, &snap(20, 20));
        assert!(matches!(&events[0].kind, EventKind::AlertResolved { rule } if rule == "hit_rate"));
        let alerts = engine.into_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].fired_at, SimTime::from_millis(120_000));
        assert_eq!(alerts[0].resolved_at, Some(SimTime::from_millis(300_000)));
        assert!((alerts[0].value - 0.5).abs() < 1e-9);
    }

    #[test]
    fn a_clean_boundary_resets_the_breach_streak() {
        let rule = SloRule::hit_rate_at_least(0.95)
            .hysteresis(2, 1)
            .min_samples(1);
        let mut engine = SloEngine::new(vec![rule]);
        assert!(eval(&mut engine, 1, &snap(10, 5)).is_empty());
        assert!(eval(&mut engine, 2, &snap(10, 10)).is_empty());
        // The earlier breach no longer counts toward the streak.
        assert!(eval(&mut engine, 3, &snap(10, 5)).is_empty());
        assert!(!eval(&mut engine, 4, &snap(10, 5)).is_empty());
    }

    #[test]
    fn min_samples_suppresses_judgement_on_thin_windows() {
        let rule = SloRule::hit_rate_at_least(0.95)
            .hysteresis(1, 1)
            .min_samples(50);
        let mut engine = SloEngine::new(vec![rule]);
        assert!(eval(&mut engine, 1, &snap(49, 0)).is_empty());
        assert!(!eval(&mut engine, 2, &snap(50, 0)).is_empty());
    }

    #[test]
    fn above_signals_breach_above_and_track_their_value() {
        let rule = SloRule::breaker_flaps_at_most(2).hysteresis(1, 1);
        let mut engine = SloEngine::new(vec![rule]);
        let mut s = snap(10, 10);
        s.breaker_trips = 2;
        assert!(eval(&mut engine, 1, &s).is_empty(), "at threshold is fine");
        s.breaker_trips = 3;
        assert!(!eval(&mut engine, 2, &s).is_empty());
        assert!((engine.alerts()[0].value - 3.0).abs() < 1e-9);
    }
}
