//! Deterministic fault injection for the simulated network.
//!
//! Real scraping campaigns do not run over a clean network: BATs brown out
//! under load, residential proxies drop connections, and anti-bot layers
//! fire rate-limit storms. A [`FaultPlan`] schedules those pathologies on
//! the virtual timeline so the retry and requeue machinery upstream can be
//! exercised — and measured — reproducibly.
//!
//! A plan is a list of [`FaultWindow`]s. Each window names an endpoint (or
//! all of them), a `[from, until)` span of virtual time, a [`FaultKind`]
//! and a hit `rate`. When [`Transport::round_trip`](crate::Transport) is
//! asked to carry a request that falls inside an active window, the plan
//! rolls its own seeded RNG stream and either lets the request through or
//! injects the scheduled failure. Keeping the fault stream separate from
//! the transport's stream means the *schedule* of injected faults for a
//! given plan seed does not depend on how much service randomness ran
//! before each request.

use crate::clock::{SimDuration, SimTime};
use crate::mix::{fnv1a, mix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an active fault window does to a matching request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The request is swallowed; the client gives up after its timeout.
    Timeout,
    /// The session hangs forever: no bytes ever come back and no client
    /// timeout fires. Only an orchestrator-level watchdog can reclaim the
    /// worker stuck on it.
    Stall,
    /// The connection is torn down partway through the exchange.
    ConnectionReset,
    /// The endpoint's anti-bot layer answers 429 without consulting the
    /// service at all.
    RateLimitStorm,
    /// The server is saturated: every matching request is slowed by
    /// `latency_factor`, and a `error_rate` fraction additionally fail
    /// with HTTP 500 after doing their (slow) work.
    Brownout {
        latency_factor: f64,
        error_rate: f64,
    },
}

/// One scheduled pathology on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWindow {
    /// Endpoint name the window applies to; `None` matches every endpoint.
    pub endpoint: Option<String>,
    /// First virtual instant the window is active.
    pub from: SimTime,
    /// First virtual instant the window is no longer active.
    pub until: SimTime,
    /// The failure mode injected while active.
    pub kind: FaultKind,
    /// Probability in `[0, 1]` that a matching request is affected.
    pub rate: f64,
}

impl FaultWindow {
    fn matches(&self, endpoint: &str, now: SimTime) -> bool {
        self.from <= now
            && now < self.until
            && self.endpoint.as_deref().is_none_or(|e| e == endpoint)
    }
}

/// The resolved effect of the plan on one request.
///
/// `Degrade` is the only variant that still reaches the service; the rest
/// preempt the exchange entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultAction {
    /// Swallow the request; the client burns `after` of virtual time.
    Timeout { after: SimDuration },
    /// Hang the session indefinitely; the worker is stuck until reclaimed.
    Stall,
    /// Tear the connection down `after` into the exchange.
    Reset { after: SimDuration },
    /// Synthesize a 429 without touching the service.
    SyntheticRateLimit,
    /// Carry the request, but stretch time by `latency_factor` and, if
    /// `fail`, replace the response with a 500.
    Degrade { latency_factor: f64, fail: bool },
}

/// A seeded schedule of fault windows, attachable to a
/// [`Transport`](crate::Transport).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    seed: u64,
    rng: StdRng,
    /// Derive each request's fault rolls from `(seed, endpoint, now)`
    /// instead of the shared sequential stream. See [`Self::hermetic`].
    hermetic: bool,
}

/// Virtual milliseconds a client waits before declaring a swallowed
/// request timed out.
const CLIENT_TIMEOUT_MS: u64 = 30_000;

impl FaultPlan {
    /// An empty plan drawing fault decisions from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            windows: Vec::new(),
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0xFA_017),
            hermetic: false,
        }
    }

    /// Switches the plan to hermetic mode: every request's fault decision
    /// becomes a pure function of `(plan seed, endpoint, virtual time)`
    /// rather than the next draw of a shared stream. Required for
    /// crash-resume determinism — a resumed campaign skips completed
    /// requests, and with a sequential stream that skip would shift every
    /// later fault roll.
    pub fn hermetic(mut self) -> Self {
        self.hermetic = true;
        self
    }

    /// Adds an arbitrary window.
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        assert!(
            (0.0..=1.0).contains(&window.rate),
            "fault rate {} outside [0, 1]",
            window.rate
        );
        assert!(window.from <= window.until, "window ends before it starts");
        self.windows.push(window);
        self
    }

    /// A flaky endpoint: `rate` of its requests reset mid-connection.
    pub fn flaky_endpoint(
        self,
        endpoint: impl Into<String>,
        from: SimTime,
        until: SimTime,
        rate: f64,
    ) -> Self {
        self.with_window(FaultWindow {
            endpoint: Some(endpoint.into()),
            from,
            until,
            kind: FaultKind::ConnectionReset,
            rate,
        })
    }

    /// Transient timeouts across all endpoints at the given rate.
    pub fn lossy_network(self, from: SimTime, until: SimTime, rate: f64) -> Self {
        self.with_window(FaultWindow {
            endpoint: None,
            from,
            until,
            kind: FaultKind::Timeout,
            rate,
        })
    }

    /// An anti-bot 429 storm on one endpoint: every request in the window
    /// is rate-limited.
    pub fn rate_limit_storm(
        self,
        endpoint: impl Into<String>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.with_window(FaultWindow {
            endpoint: Some(endpoint.into()),
            from,
            until,
            kind: FaultKind::RateLimitStorm,
            rate: 1.0,
        })
    }

    /// Hung sessions on one endpoint: `rate` of its requests never answer
    /// at all (no timeout fires — the connection just sits there). Pairs
    /// with the orchestrator's watchdog, which reclaims the stuck worker.
    pub fn stalls(
        self,
        endpoint: impl Into<String>,
        from: SimTime,
        until: SimTime,
        rate: f64,
    ) -> Self {
        self.with_window(FaultWindow {
            endpoint: Some(endpoint.into()),
            from,
            until,
            kind: FaultKind::Stall,
            rate,
        })
    }

    /// A server brownout: matching requests run `latency_factor` slower
    /// and `error_rate` of them end in HTTP 500.
    pub fn brownout(
        self,
        endpoint: impl Into<String>,
        from: SimTime,
        until: SimTime,
        latency_factor: f64,
        error_rate: f64,
    ) -> Self {
        assert!(latency_factor >= 1.0, "brownouts slow servers down");
        self.with_window(FaultWindow {
            endpoint: Some(endpoint.into()),
            from,
            until,
            kind: FaultKind::Brownout {
                latency_factor,
                error_rate,
            },
            rate: 1.0,
        })
    }

    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Rolls the plan for one request. The first matching window whose
    /// rate-roll hits decides the action; later windows are not consulted.
    ///
    /// In hermetic mode the rolls come from a fresh stream derived from
    /// `(seed, endpoint, now)`; otherwise from the shared sequential one.
    pub(crate) fn intercept(&mut self, endpoint: &str, now: SimTime) -> Option<FaultAction> {
        let mut derived;
        let rng: &mut StdRng = if self.hermetic {
            derived = StdRng::seed_from_u64(mix64(
                self.seed ^ 0xFA_017,
                &[fnv1a(endpoint.as_bytes()), now.as_millis()],
            ));
            &mut derived
        } else {
            &mut self.rng
        };
        for w in &self.windows {
            if !w.matches(endpoint, now) {
                continue;
            }
            if w.rate < 1.0 && !rng.gen_bool(w.rate) {
                continue;
            }
            return Some(match w.kind {
                FaultKind::Timeout => FaultAction::Timeout {
                    after: SimDuration::from_millis(CLIENT_TIMEOUT_MS),
                },
                FaultKind::Stall => FaultAction::Stall,
                FaultKind::ConnectionReset => FaultAction::Reset {
                    // Connections die partway through: charge a uniform
                    // fraction of the client timeout.
                    after: SimDuration::from_millis(rng.gen_range(1..=CLIENT_TIMEOUT_MS)),
                },
                FaultKind::RateLimitStorm => FaultAction::SyntheticRateLimit,
                FaultKind::Brownout {
                    latency_factor,
                    error_rate,
                } => FaultAction::Degrade {
                    latency_factor,
                    fail: error_rate > 0.0 && rng.gen_bool(error_rate.min(1.0)),
                },
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_millis(s * 1000)
    }

    #[test]
    fn windows_gate_on_time_and_endpoint() {
        let mut plan = FaultPlan::new(1).rate_limit_storm("cox/nola", t(10), t(20));
        assert!(plan.intercept("cox/nola", t(5)).is_none(), "before window");
        assert_eq!(
            plan.intercept("cox/nola", t(10)),
            Some(FaultAction::SyntheticRateLimit)
        );
        assert!(
            plan.intercept("att/nola", t(15)).is_none(),
            "other endpoint"
        );
        assert!(
            plan.intercept("cox/nola", t(20)).is_none(),
            "until exclusive"
        );
    }

    #[test]
    fn wildcard_window_hits_every_endpoint() {
        let mut plan = FaultPlan::new(2).lossy_network(t(0), t(100), 1.0);
        for ep in ["a", "b", "c"] {
            assert!(matches!(
                plan.intercept(ep, t(1)),
                Some(FaultAction::Timeout { .. })
            ));
        }
    }

    #[test]
    fn partial_rate_hits_roughly_that_fraction() {
        let mut plan = FaultPlan::new(3).flaky_endpoint("e", t(0), t(1000), 0.3);
        let hits = (0..10_000)
            .filter(|_| plan.intercept("e", t(1)).is_some())
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let roll = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::new(seed).flaky_endpoint("e", t(0), t(1000), 0.5);
            (0..200)
                .map(|_| plan.intercept("e", t(1)).is_some())
                .collect()
        };
        assert_eq!(roll(7), roll(7));
        assert_ne!(roll(7), roll(8));
    }

    #[test]
    fn brownout_degrades_and_sometimes_fails() {
        let mut plan = FaultPlan::new(4).brownout("e", t(0), t(1000), 3.0, 0.5);
        let mut failures = 0;
        for _ in 0..1000 {
            match plan.intercept("e", t(1)) {
                Some(FaultAction::Degrade {
                    latency_factor,
                    fail,
                }) => {
                    assert_eq!(latency_factor, 3.0);
                    if fail {
                        failures += 1;
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!((300..700).contains(&failures), "failures {failures}");
    }

    #[test]
    fn reset_charges_partial_time() {
        let mut plan = FaultPlan::new(5).flaky_endpoint("e", t(0), t(1000), 1.0);
        match plan.intercept("e", t(1)) {
            Some(FaultAction::Reset { after }) => {
                assert!(after > SimDuration::ZERO);
                assert!(after <= SimDuration::from_secs(30));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bogus_rate_is_rejected() {
        let _ = FaultPlan::new(0).flaky_endpoint("e", t(0), t(1), 1.5);
    }

    #[test]
    fn stall_window_hangs_matching_requests() {
        let mut plan = FaultPlan::new(6).stalls("e", t(0), t(100), 1.0);
        assert_eq!(plan.intercept("e", t(1)), Some(FaultAction::Stall));
        assert!(plan.intercept("e", t(100)).is_none(), "until exclusive");
        assert!(plan.intercept("other", t(1)).is_none());
    }

    #[test]
    fn hermetic_rolls_depend_only_on_endpoint_and_time() {
        let plan = || {
            FaultPlan::new(8)
                .hermetic()
                .flaky_endpoint("e", t(0), t(1000), 0.5)
        };
        // The same (endpoint, now) always rolls the same way, however many
        // unrelated intercepts ran before it.
        let mut a = plan();
        let direct = a.intercept("e", t(7));
        let mut b = plan();
        for i in 0..100 {
            b.intercept("e", t(500 + i));
        }
        assert_eq!(b.intercept("e", t(7)), direct);
        // Distinct instants still decorrelate: roughly half the rolls
        // inside the window hit.
        let mut c = plan();
        let hits = (0..1000)
            .filter(|i| c.intercept("e", t(*i)).is_some())
            .count();
        assert!((400..600).contains(&hits), "hermetic rate skew: {hits}");
    }

    #[test]
    fn hermetic_plans_differ_across_seeds() {
        let roll = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::new(seed)
                .hermetic()
                .flaky_endpoint("e", t(0), t(1000), 0.5);
            (0..200)
                .map(|i| plan.intercept("e", t(i)).is_some())
                .collect()
        };
        assert_eq!(roll(7), roll(7));
        assert_ne!(roll(7), roll(8));
    }
}
