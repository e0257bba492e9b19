//! Sliding-window aggregation on the virtual clock.
//!
//! A [`SlidingWindow`] is a ring of fixed-width time buckets plus one
//! instantaneous gauge, the shed ceiling. Replay-stable events are folded
//! into the bucket their timestamp falls in; the window "slides" by
//! rotating the ring each time virtual time crosses a bucket boundary,
//! which is also when the SLO engine evaluates its rules (see
//! [`super::slo`]). Everything is a pure function of the stable event
//! subset, so a resumed campaign reproduces the exact window history of an
//! uninterrupted one.

use super::upsert;
use crate::telemetry::{EventKind, Histogram};
use std::collections::{BTreeMap, VecDeque};

/// Counters one time bucket accumulates.
#[derive(Debug, Clone, Default)]
struct Bucket {
    attempts: u64,
    hits: u64,
    latency: Histogram,
    breaker_trips: u64,
    drift_suspected: u64,
    cache_lookups: u64,
    cache_hits: u64,
    per_endpoint: BTreeMap<String, EndpointWindow>,
}

impl Bucket {
    fn absorb_into(&self, snap: &mut WindowSnapshot) {
        snap.attempts += self.attempts;
        snap.hits += self.hits;
        snap.latency.merge(&self.latency);
        snap.breaker_trips += self.breaker_trips;
        snap.drift_suspected += self.drift_suspected;
        snap.cache_lookups += self.cache_lookups;
        snap.cache_hits += self.cache_hits;
        for (endpoint, e) in &self.per_endpoint {
            let t = snap.per_endpoint.entry(endpoint.clone()).or_default();
            t.attempts += e.attempts;
            t.hits += e.hits;
            t.latency.merge(&e.latency);
            t.drift_suspected += e.drift_suspected;
        }
    }
}

/// One endpoint's share of a window (or bucket).
#[derive(Debug, Clone, Default)]
pub struct EndpointWindow {
    pub attempts: u64,
    pub hits: u64,
    pub latency: Histogram,
    /// Unrecognized-page sightings charged to this endpoint.
    pub drift_suspected: u64,
}

impl EndpointWindow {
    pub fn hit_rate(&self) -> Option<f64> {
        (self.attempts > 0).then(|| self.hits as f64 / self.attempts as f64)
    }

    /// Fraction of windowed attempts whose pages the template set
    /// recognized — the per-ISP drift health signal.
    pub fn match_confidence(&self) -> Option<f64> {
        (self.attempts > 0)
            .then(|| 1.0 - self.drift_suspected.min(self.attempts) as f64 / self.attempts as f64)
    }
}

/// The merged view of a window at one instant: counters summed over the
/// ring's buckets plus the current shed ceiling.
#[derive(Debug, Clone, Default)]
pub struct WindowSnapshot {
    /// Start of the oldest bucket covered (virtual ms).
    pub from_ms: u64,
    /// The instant the snapshot was taken (virtual ms).
    pub at_ms: u64,
    pub attempts: u64,
    pub hits: u64,
    /// Attempt latency inside the window.
    pub latency: Histogram,
    /// Breaker flaps (circuit opens) inside the window.
    pub breaker_trips: u64,
    /// Unrecognized-page sightings inside the window.
    pub drift_suspected: u64,
    /// Serve lookups inside the window (cache hits + misses).
    pub cache_lookups: u64,
    /// Serve lookups the LRU answer cache satisfied inside the window.
    pub cache_hits: u64,
    pub per_endpoint: BTreeMap<String, EndpointWindow>,
    /// Current shed ceiling, if the controller has ever spoken.
    pub shed_limit: Option<u32>,
}

impl WindowSnapshot {
    pub fn hit_rate(&self) -> Option<f64> {
        (self.attempts > 0).then(|| self.hits as f64 / self.attempts as f64)
    }

    pub fn p99_ms(&self) -> Option<u64> {
        self.latency.quantile_ms(0.99)
    }

    /// Fraction of windowed attempts whose pages the template set
    /// recognized, across all endpoints.
    pub fn match_confidence(&self) -> Option<f64> {
        (self.attempts > 0)
            .then(|| 1.0 - self.drift_suspected.min(self.attempts) as f64 / self.attempts as f64)
    }

    /// Fraction of windowed serve lookups the answer cache satisfied.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        (self.cache_lookups > 0).then(|| self.cache_hits as f64 / self.cache_lookups as f64)
    }
}

/// Ring of time buckets over the virtual clock.
#[derive(Debug)]
pub struct SlidingWindow {
    bucket_ms: u64,
    max_buckets: usize,
    /// Newest bucket at the back; covers `[epoch*w, (epoch+1)*w)`.
    ring: VecDeque<Bucket>,
    epoch: u64,
    shed_limit: Option<u32>,
}

impl SlidingWindow {
    pub fn new(bucket_ms: u64, buckets: usize) -> Self {
        let mut ring = VecDeque::new();
        ring.push_back(Bucket::default());
        Self {
            bucket_ms: bucket_ms.max(1),
            max_buckets: buckets.max(1),
            ring,
            epoch: 0,
            shed_limit: None,
        }
    }

    /// Virtual time at which the current bucket closes.
    pub fn next_boundary_ms(&self) -> u64 {
        (self.epoch + 1) * self.bucket_ms
    }

    /// Closes the current bucket and opens the next, evicting the oldest
    /// once the ring is full. Call after evaluating rules at the boundary.
    pub fn rotate(&mut self) {
        self.ring.push_back(Bucket::default());
        if self.ring.len() > self.max_buckets {
            self.ring.pop_front();
        }
        self.epoch += 1;
    }

    /// Folds one replay-stable event into the current bucket or the shed
    /// ceiling; events that neither the SLO signals nor the health report
    /// read are ignored.
    /// The caller is responsible for boundary handling (rotation happens
    /// in time order, so an event is always charged to the open bucket).
    pub fn record(&mut self, kind: &EventKind) {
        // The ring is constructed non-empty and `rotate` pushes before it
        // pops, so `back_mut` always has a bucket; dropping the event
        // beats panicking mid-campaign if that ever breaks.
        let Some(bucket) = self.ring.back_mut() else {
            return;
        };
        match kind {
            EventKind::AttemptEnd {
                endpoint,
                outcome,
                duration_ms,
                ..
            } => {
                bucket.attempts += 1;
                bucket.latency.record(*duration_ms);
                let hit = outcome.is_hit();
                bucket.hits += u64::from(hit);
                upsert(&mut bucket.per_endpoint, endpoint, |e| {
                    e.attempts += 1;
                    e.latency.record(*duration_ms);
                    e.hits += u64::from(hit);
                });
            }
            EventKind::BreakerTrip { .. } => bucket.breaker_trips += 1,
            EventKind::ShedCut { limit } | EventKind::ShedRaise { limit } => {
                self.shed_limit = Some(*limit)
            }
            EventKind::DriftSuspected { endpoint, .. } => {
                bucket.drift_suspected += 1;
                upsert(&mut bucket.per_endpoint, endpoint, |e| {
                    e.drift_suspected += 1
                });
            }
            EventKind::ServeLookupEnd {
                endpoint,
                outcome,
                cache_hit,
                duration_ms,
                ..
            } => {
                bucket.attempts += 1;
                bucket.latency.record(*duration_ms);
                bucket.cache_lookups += 1;
                if *cache_hit {
                    bucket.cache_hits += 1;
                }
                let hit = outcome.is_hit();
                bucket.hits += u64::from(hit);
                upsert(&mut bucket.per_endpoint, endpoint, |e| {
                    e.attempts += 1;
                    e.latency.record(*duration_ms);
                    e.hits += u64::from(hit);
                });
            }
            _ => {}
        }
    }

    /// Merges the ring into one view at virtual time `at_ms`.
    pub fn snapshot(&self, at_ms: u64) -> WindowSnapshot {
        let mut snap = WindowSnapshot {
            from_ms: (self.epoch + 1).saturating_sub(self.ring.len() as u64) * self.bucket_ms,
            at_ms,
            shed_limit: self.shed_limit,
            ..WindowSnapshot::default()
        };
        for bucket in &self.ring {
            bucket.absorb_into(&mut snap);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OutcomeCode;

    fn attempt(endpoint: &str, outcome: OutcomeCode, ms: u64) -> EventKind {
        EventKind::AttemptEnd {
            tag: 1,
            attempt: 1,
            worker: 0,
            endpoint: endpoint.into(),
            outcome,
            duration_ms: ms,
            steps: 2,
        }
    }

    #[test]
    fn buckets_slide_and_old_counts_fall_out() {
        let mut w = SlidingWindow::new(60_000, 3);
        w.record(&attempt("a", OutcomeCode::Plans, 40_000));
        assert_eq!(w.next_boundary_ms(), 60_000);
        // Cross three boundaries: the first bucket is still in the ring...
        w.rotate();
        w.rotate();
        w.record(&attempt("a", OutcomeCode::Failed, 50_000));
        let snap = w.snapshot(130_000);
        assert_eq!(snap.attempts, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.from_ms, 0);
        // ...and one more rotation evicts it.
        w.rotate();
        let snap = w.snapshot(190_000);
        assert_eq!(snap.attempts, 1);
        assert_eq!(snap.hits, 0);
        assert_eq!(snap.from_ms, 60_000);
        assert_eq!(snap.per_endpoint["a"].attempts, 1);
    }

    #[test]
    fn shed_limit_gauge_survives_rotation() {
        let mut w = SlidingWindow::new(1_000, 2);
        w.record(&EventKind::ShedCut { limit: 4 });
        w.rotate();
        w.rotate();
        w.rotate();
        assert_eq!(w.snapshot(4_000).shed_limit, Some(4));
        w.record(&EventKind::ShedRaise { limit: 6 });
        assert_eq!(w.snapshot(4_000).shed_limit, Some(6));
    }

    #[test]
    fn rates_and_quantiles_come_from_the_window_only() {
        let mut w = SlidingWindow::new(10_000, 4);
        for _ in 0..9 {
            w.record(&attempt("a", OutcomeCode::Plans, 1_000));
        }
        w.record(&attempt("a", OutcomeCode::Failed, 64_000));
        w.record(&EventKind::Retry {
            tag: 1,
            next_attempt: 2,
            delay_ms: 5_000,
        });
        let snap = w.snapshot(9_000);
        assert_eq!(snap.hit_rate(), Some(0.9));
        assert!(snap.p99_ms().unwrap() >= 64_000);
        assert!(snap.latency.quantile_ms(0.5).unwrap() < 2_048);
    }
}
