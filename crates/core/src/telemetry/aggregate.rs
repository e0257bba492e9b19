//! The metrics-registry side of telemetry: folding the event stream into
//! counter families and histograms.
//!
//! [`MetricsAggregator`] is a [`Recorder`] that needs no post-processing:
//! at any moment its [`TelemetrySummary`] answers the operator questions
//! the flat [`Metrics`](crate::metrics::Metrics) bag could not — how
//! attempt latency distributes per endpoint, how much backoff each retry
//! wave injected, how many pages a session really takes. One aggregator
//! is always attached to a run, and its summary ships in
//! `OrchestratorReport::telemetry`; the report's `resume()`,
//! `shed_events()` and `stalls_reclaimed()` views are computed from it.

use super::{Event, EventKind, Recorder};
use std::collections::BTreeMap;

/// A log2-bucketed histogram of millisecond values.
///
/// Bucket `0` holds exact zeros; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Deterministic, mergeable, and compact enough to ship
/// inside every report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ms: u64,
    max_ms: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(ms: u64) -> usize {
        (64 - ms.leading_zeros()) as usize
    }

    /// The value range `[lo, hi]` bucket `i` covers.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    pub fn record(&mut self, ms: u64) {
        let b = Self::bucket_of(ms);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ms(&self) -> u64 {
        self.sum_ms
    }

    pub fn max_ms(&self) -> u64 {
        self.max_ms
    }

    pub fn mean_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ms as f64 / self.count as f64)
    }

    /// Approximate quantile: the upper bound of the bucket holding the
    /// `q`-th sample (`0.0 <= q <= 1.0`).
    pub fn quantile_ms(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_bounds(i).1.min(self.max_ms));
            }
        }
        Some(self.max_ms)
    }

    /// Absorbs another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }

    /// Raw per-bucket counts, ascending from bucket 0 (exact zeros).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// `(lo_ms, hi_ms, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, *n)
            })
            .collect()
    }
}

/// How much work a resumed run inherited from its journal.
///
/// Deliberately *not* part of [`Metrics`](crate::metrics::Metrics):
/// resumed and uninterrupted runs of the same campaign must produce equal
/// metrics, and these counters are exactly what differs between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Attempts answered from the journal (no scraping).
    pub replayed_attempts: u64,
    /// Attempts actually executed against the transport.
    pub live_attempts: u64,
}

/// Per-endpoint (i.e. per ISP/city BAT) attempt statistics.
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Attempts finished against this endpoint.
    pub attempts: u64,
    /// Attempts whose outcome counts toward the hit rate.
    pub hits: u64,
    /// Attempt latency (virtual ms per attempt).
    pub latency: Histogram,
    /// Pages seen per attempt (the session length).
    pub pages: Histogram,
    /// Unrecognized-page sightings charged to this endpoint.
    pub drift_suspected: u64,
}

impl EndpointStats {
    /// Fraction of attempts whose pages the template set recognized, in
    /// whole percent (100 when no attempts finished yet).
    pub fn match_confidence_pct(&self) -> u64 {
        if self.attempts == 0 {
            return 100;
        }
        100 - self.drift_suspected.min(self.attempts) * 100 / self.attempts
    }
}

/// Counter families and histograms folded from one run's event stream.
///
/// No `PartialEq` on purpose: `replayed_attempts` counts the ephemeral
/// `JournalReplay` events, so it legitimately differs between a resumed
/// run and an uninterrupted one, and whole-summary comparisons would
/// break exactly the byte-identity guarantees the stable event subset
/// provides. Compare stable fields (or the stable JSONL log) instead.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySummary {
    /// Attempts finished (live + replayed).
    pub attempts: u64,
    /// Attempts answered from the journal.
    pub replayed_attempts: u64,
    /// Requeues the retry machinery scheduled.
    pub retries: u64,
    /// Circuit-breaker opens and re-opens.
    pub breaker_trips: u64,
    /// Jobs an open circuit pushed to a later time.
    pub breaker_defers: u64,
    /// Concurrency-ceiling cuts by the shed controller.
    pub shed_cuts: u64,
    /// Concurrency-ceiling raises by the shed controller.
    pub shed_raises: u64,
    /// Workers the watchdog reclaimed from hung sessions.
    pub stalls_reclaimed: u64,
    /// Monitor alerts opened (`AlertFired` events).
    pub alerts_fired: u64,
    /// Monitor alerts closed (`AlertResolved` events).
    pub alerts_resolved: u64,
    /// Unrecognized-page sightings (`DriftSuspected` events).
    pub drift_suspected: u64,
    /// Endpoint quarantines opened (`RebootstrapStarted` events).
    pub rebootstraps_started: u64,
    /// Learned template sets swapped in (`TemplateSwapped` events).
    pub templates_swapped: u64,
    /// Endpoint quarantines closed (`RebootstrapCompleted` events).
    pub rebootstraps_completed: u64,
    /// Serve-layer lookups finished (`ServeLookupEnd` events).
    pub serve_lookups: u64,
    /// Serve lookups answered from the LRU answer cache.
    pub serve_cache_hits: u64,
    /// Serve answer-cache evictions (`CacheEvicted` events).
    pub cache_evictions: u64,
    /// Serve lookups refused at admission (`ServeShed` events).
    pub serve_sheds: u64,
    /// Attempt latency across all endpoints.
    pub attempt_latency: Histogram,
    /// Backoff delay per scheduled retry.
    pub backoff_delay: Histogram,
    /// Pages per session across all endpoints.
    pub pages_per_session: Histogram,
    /// Requester-perceived serve lookup latency (queue wait + round trip).
    pub lookup_latency: Histogram,
    /// Stats keyed by endpoint name.
    pub per_endpoint: BTreeMap<String, EndpointStats>,
}

impl TelemetrySummary {
    /// The resume view: how the run's attempts split between journal
    /// replay and live scraping.
    pub fn resume(&self) -> ResumeStats {
        ResumeStats {
            replayed_attempts: self.replayed_attempts,
            live_attempts: self.attempts - self.replayed_attempts,
        }
    }
}

/// A [`Recorder`] that maintains a [`TelemetrySummary`] incrementally.
#[derive(Debug, Clone, Default)]
pub struct MetricsAggregator {
    summary: TelemetrySummary,
}

impl MetricsAggregator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn summary(&self) -> &TelemetrySummary {
        &self.summary
    }

    pub fn into_summary(self) -> TelemetrySummary {
        self.summary
    }

    pub fn observe(&mut self, event: &Event) {
        let s = &mut self.summary;
        match &event.kind {
            EventKind::AttemptEnd {
                endpoint,
                outcome,
                duration_ms,
                steps,
                ..
            } => {
                s.attempts += 1;
                s.attempt_latency.record(*duration_ms);
                s.pages_per_session.record(*steps as u64);
                update_endpoint(&mut s.per_endpoint, endpoint, |e| {
                    e.attempts += 1;
                    if outcome.is_hit() {
                        e.hits += 1;
                    }
                    e.latency.record(*duration_ms);
                    e.pages.record(*steps as u64);
                });
            }
            EventKind::Retry { delay_ms, .. } => {
                s.retries += 1;
                s.backoff_delay.record(*delay_ms);
            }
            EventKind::BreakerTrip { .. } => s.breaker_trips += 1,
            EventKind::BreakerDefer { .. } => s.breaker_defers += 1,
            EventKind::ShedCut { .. } => s.shed_cuts += 1,
            EventKind::ShedRaise { .. } => s.shed_raises += 1,
            EventKind::StallReclaimed { .. } => s.stalls_reclaimed += 1,
            EventKind::DriftSuspected { endpoint, .. } => {
                s.drift_suspected += 1;
                update_endpoint(&mut s.per_endpoint, endpoint, |e| e.drift_suspected += 1);
            }
            EventKind::RebootstrapStarted { .. } => s.rebootstraps_started += 1,
            EventKind::TemplateSwapped { .. } => s.templates_swapped += 1,
            EventKind::RebootstrapCompleted { .. } => s.rebootstraps_completed += 1,
            EventKind::ServeLookupEnd {
                endpoint,
                outcome,
                cache_hit,
                duration_ms,
                ..
            } => {
                s.serve_lookups += 1;
                if *cache_hit {
                    s.serve_cache_hits += 1;
                }
                s.lookup_latency.record(*duration_ms);
                update_endpoint(&mut s.per_endpoint, endpoint, |e| {
                    e.attempts += 1;
                    if outcome.is_hit() {
                        e.hits += 1;
                    }
                    e.latency.record(*duration_ms);
                });
            }
            EventKind::CacheEvicted { .. } => s.cache_evictions += 1,
            EventKind::ServeShed { .. } => s.serve_sheds += 1,
            EventKind::JournalReplay { .. } => s.replayed_attempts += 1,
            EventKind::AlertFired { .. } => s.alerts_fired += 1,
            EventKind::AlertResolved { .. } => s.alerts_resolved += 1,
            // Lifecycle brackets, page fetches and fault injections carry no
            // counters of their own: attempts are charged once at
            // AttemptEnd, and nothing reads a fetch or fault count. The arms
            // stay explicit so a new variant must make this choice
            // deliberately (lint rule E1).
            EventKind::CampaignBegin { .. }
            | EventKind::CampaignEnd { .. }
            | EventKind::WorkerBegin { .. }
            | EventKind::WorkerEnd { .. }
            | EventKind::JobBegin { .. }
            | EventKind::JobEnd { .. }
            | EventKind::AttemptBegin { .. }
            | EventKind::FaultInjected { .. }
            | EventKind::PageFetchBegin { .. }
            | EventKind::PageFetchEnd { .. } => {}
        }
    }
}

/// Applies `update` to the stats of `endpoint`, cloning the name into
/// the map only on the endpoint's first event.
fn update_endpoint(
    map: &mut BTreeMap<String, EndpointStats>,
    endpoint: &str,
    update: impl FnOnce(&mut EndpointStats),
) {
    match map.get_mut(endpoint) {
        Some(stats) => update(stats),
        None => update(map.entry(endpoint.to_owned()).or_default()),
    }
}

impl Recorder for MetricsAggregator {
    fn record(&mut self, event: &Event) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::super::OutcomeCode;
    use super::*;
    use bbsim_net::SimTime;

    fn at(ms: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_millis(ms),
            kind,
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_bounds(3), (4, 7));
        let mut h = Histogram::new();
        for ms in [0, 1, 3, 3, 100] {
            h.record(ms);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ms(), 107);
        assert_eq!(h.max_ms(), 100);
        assert_eq!(
            h.nonzero_buckets(),
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (64, 127, 1)]
        );
    }

    #[test]
    fn histogram_quantiles_track_bucket_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_ms(0.5), None);
        for ms in 1..=100u64 {
            h.record(ms);
        }
        let median = h.quantile_ms(0.5).unwrap();
        assert!((32..=63).contains(&median), "median bucket bound {median}");
        assert_eq!(h.quantile_ms(1.0), Some(100), "p100 capped at max");
    }

    #[test]
    fn aggregator_builds_per_endpoint_views() {
        let mut agg = MetricsAggregator::new();
        let end = |tag: u64, worker: u32, endpoint: &str, outcome: OutcomeCode, ms: u64| {
            at(
                ms,
                EventKind::AttemptEnd {
                    tag,
                    attempt: 1,
                    worker,
                    endpoint: endpoint.into(),
                    outcome,
                    duration_ms: ms,
                    steps: 2,
                },
            )
        };
        agg.observe(&end(1, 0, "a", OutcomeCode::Plans, 40_000));
        agg.observe(&end(2, 1, "a", OutcomeCode::Failed, 90_000));
        agg.observe(&end(3, 0, "b", OutcomeCode::NoService, 50_000));
        agg.observe(&at(
            1,
            EventKind::Retry {
                tag: 2,
                next_attempt: 2,
                delay_ms: 8_000,
            },
        ));
        agg.observe(&at(1, EventKind::JournalReplay { tag: 3, attempt: 1 }));

        let s = agg.summary();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.replayed_attempts, 1);
        assert_eq!(s.resume().live_attempts, 2);
        assert_eq!(s.retries, 1);
        assert_eq!(s.backoff_delay.count(), 1);
        assert_eq!(s.per_endpoint["a"].attempts, 2);
        assert_eq!(s.per_endpoint["a"].hits, 1);
        assert_eq!(s.per_endpoint["b"].hits, 1);
        assert_eq!(s.pages_per_session.count(), 3);
    }
}
