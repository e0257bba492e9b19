//! Real-time spans around the public calls the benchmark makes, and the
//! exact self-time attribution of a traced rep.
//!
//! Spans nest: a layer's self time is its span's duration minus its child
//! spans' and the per-call totals charged under it. Hot calls (every BAT
//! `handle`, every recorded event) are far too many for one span each, so
//! timing wrappers accumulate their total and a log2 histogram in a
//! [`CallStats`] that hangs under the span they ran inside. All arithmetic
//! is in integer nanoseconds, so the self times of every node, the root's
//! own self time (`unattributed`) included, sum exactly to the root.

use crate::measure::tail_percentile;
use bbsim_bat::BatServer;
use bbsim_net::{Exchange, Request, Service, SimIp, SimTime};
use bqt::{Event, EventKind, JsonlRecorder, Recorder};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct SpanRec {
    layer: &'static str,
    label: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    thread: std::thread::ThreadId,
}

/// Per-call totals a timing wrapper charged under one span.
#[derive(Debug, Clone)]
struct AggregateRec {
    layer: &'static str,
    parent: SpanId,
    total_ns: u64,
    calls: u64,
    buckets: Vec<u64>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    aggregates: Vec<AggregateRec>,
    /// Open spans of the main thread, innermost last.
    stack: Vec<SpanId>,
}

/// Collects spans in memory; they are written out once the run ends.
pub struct Tracer {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span nested under the innermost open span of
    /// the calling (main) thread.
    pub fn span<T>(&self, layer: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut inner = self.lock();
            let parent = inner.stack.last().copied();
            let id = self.open(&mut inner, layer, label, parent);
            inner.stack.push(id);
            id
        };
        let out = f();
        let mut inner = self.lock();
        inner.stack.pop();
        inner.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Runs `f` inside a span under an explicit parent, from any thread
    /// (shard environments are built on worker threads); `f` gets the new
    /// span's id to nest further spans under.
    pub fn span_under<T>(
        &self,
        parent: Option<SpanId>,
        layer: &'static str,
        label: &str,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let mut inner = self.lock();
            self.open(&mut inner, layer, label, parent)
        };
        let out = f(id);
        self.lock().spans[id].end_ns = self.ns(Instant::now());
        out
    }

    fn open(
        &self,
        inner: &mut Inner,
        layer: &'static str,
        label: &str,
        parent: Option<SpanId>,
    ) -> SpanId {
        inner.spans.push(SpanRec {
            layer,
            label: label.to_string(),
            parent,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            thread: std::thread::current().id(),
        });
        inner.spans.len() - 1
    }

    /// The innermost open span of the main thread.
    pub fn current(&self) -> Option<SpanId> {
        self.lock().stack.last().copied()
    }

    /// Charges a wrapper's accumulated calls to `layer` under `parent`.
    pub fn charge(&self, parent: SpanId, layer: &'static str, stats: &CallStats) {
        self.lock().aggregates.push(AggregateRec {
            layer,
            parent,
            total_ns: stats.total_ns(),
            calls: stats.calls(),
            buckets: stats.buckets(),
        });
    }

    /// The last span opened under `layer`.
    pub fn last(&self, layer: &str) -> Option<SpanId> {
        self.lock().spans.iter().rposition(|s| s.layer == layer)
    }

    /// Every span opened under `layer`, in opening order.
    pub fn spans(&self, layer: &str) -> Vec<SpanId> {
        let inner = self.lock();
        (0..inner.spans.len())
            .filter(|&i| inner.spans[i].layer == layer)
            .collect()
    }

    /// Exact self-time attribution of the subtree rooted at `root`.
    pub fn attribute(&self, root: SpanId) -> Attribution {
        let inner = self.lock();
        attribute(&inner.spans, &inner.aggregates, root)
    }

    /// Chrome trace-event JSON of every span (Perfetto opens it). Wrapper
    /// totals ride on their parent span's `args`.
    pub fn chrome_json(&self) -> String {
        let inner = self.lock();
        let mut threads: Vec<std::thread::ThreadId> = Vec::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in inner.spans.iter().enumerate() {
            let tid = match threads.iter().position(|t| *t == s.thread) {
                Some(t) => t,
                None => {
                    threads.push(s.thread);
                    threads.len() - 1
                }
            };
            let mut args = String::new();
            for a in inner.aggregates.iter().filter(|a| a.parent == i) {
                let _ = write!(
                    args,
                    ",\"{}_s\":{},\"{}_calls\":{}",
                    a.layer,
                    a.total_ns as f64 / 1e9,
                    a.layer,
                    a.calls
                );
            }
            let _ = write!(
                out,
                "{}{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span\":{i}{args}}}}}",
                if i == 0 { "" } else { "," },
                crate::json::string(&s.label),
                s.layer,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Where a traced rep's wall time went.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub root_ns: u64,
    /// The root's own self time: wall time inside no span.
    pub unattributed_ns: i64,
    /// Self time, wrapper calls and call histogram per layer.
    pub layers: BTreeMap<&'static str, LayerTime>,
}

#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub self_ns: i64,
    pub calls: u64,
    pub buckets: Vec<u64>,
}

impl Attribution {
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.self_ns as f64 / 1e9)
    }

    /// Layer self times plus `unattributed`: equal to the root by
    /// construction.
    pub fn sum_ns(&self) -> i64 {
        self.unattributed_ns + self.layers.values().map(|l| l.self_ns).sum::<i64>()
    }
}

fn attribute(spans: &[SpanRec], aggregates: &[AggregateRec], root: SpanId) -> Attribution {
    let in_tree = |mut id: SpanId| loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    };
    let dur = |s: &SpanRec| s.end_ns.saturating_sub(s.start_ns) as i64;
    let mut out = Attribution {
        root_ns: dur(&spans[root]) as u64,
        ..Attribution::default()
    };
    for (id, span) in spans.iter().enumerate().filter(|(id, _)| in_tree(*id)) {
        let children: i64 = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(dur)
            .sum::<i64>()
            + aggregates
                .iter()
                .filter(|a| a.parent == id)
                .map(|a| a.total_ns as i64)
                .sum::<i64>();
        let own = dur(span) - children;
        if id == root {
            out.unattributed_ns = own;
        } else {
            out.layers.entry(span.layer).or_default().self_ns += own;
        }
    }
    for a in aggregates.iter().filter(|a| in_tree(a.parent)) {
        let layer = out.layers.entry(a.layer).or_default();
        layer.self_ns += a.total_ns as i64;
        layer.calls += a.calls;
        if layer.buckets.len() < a.buckets.len() {
            layer.buckets.resize(a.buckets.len(), 0);
        }
        for (b, n) in layer.buckets.iter_mut().zip(&a.buckets) {
            *b += n;
        }
    }
    out
}

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn span<T>(
    tracer: Option<&Tracer>,
    layer: &'static str,
    label: &str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(layer, label, f),
        None => f(),
    }
}

/// [`Tracer::span_under`] when tracing, plainly otherwise.
pub fn span_under<T>(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    layer: &'static str,
    label: &str,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(t) => t.span_under(parent, layer, label, |id| f(Some(id))),
        None => f(None),
    }
}

/// Per-call time of one wrapped layer, shared across the threads that
/// call it. Statistics only, so `Relaxed` orderings suffice.
pub struct CallStats {
    total_ns: AtomicU64,
    calls: AtomicU64,
    /// Bucket `i` counts calls of `[2^(i-1), 2^i)` ns (bucket 0: 0 ns).
    buckets: [AtomicU64; 64],
}

impl CallStats {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            total_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    pub fn add(&self, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let bucket = ((64 - ns.leading_zeros()) as usize).min(63);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The upper bound (ns) of the log2 bucket holding quantile `q`.
pub fn bucket_quantile_ns(buckets: &[u64], q: f64) -> u64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for (i, c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return if i == 0 { 0 } else { (1u64 << i) - 1 };
        }
    }
    u64::MAX
}

/// `(p50_ns, tail_ns, tail_percentile, n)` of a log2 call histogram.
pub fn latency_summary(buckets: &[u64]) -> (u64, u64, f64, u64) {
    let n: u64 = buckets.iter().sum();
    let p = tail_percentile(n).unwrap_or(50.0);
    (
        bucket_quantile_ns(buckets, 0.5),
        bucket_quantile_ns(buckets, p / 100.0),
        p,
        n,
    )
}

/// A BAT server whose every `handle` is timed into shared stats.
pub struct TimedService {
    pub inner: BatServer,
    pub stats: Arc<CallStats>,
}

impl Service for TimedService {
    fn handle(&mut self, peer: SimIp, req: &Request, now: SimTime, rng: &mut StdRng) -> Exchange {
        let started = Instant::now();
        let out = self.inner.handle(peer, req, now, rng);
        self.stats.add(started);
        out
    }
}

/// The run's event sink: stable JSONL into a hash, plus the counts the
/// checks need and the instant the first merged event arrived (the start
/// of the serial tail). When traced, every `record` is timed as well.
pub struct BenchRecorder {
    jsonl: JsonlRecorder<crate::measure::Fnv>,
    pub first_event: Option<Instant>,
    pub events: u64,
    /// Serve lookups the engine could not answer.
    pub unanswered: u64,
    pub timing: Option<Arc<CallStats>>,
}

impl BenchRecorder {
    pub fn new(timing: Option<Arc<CallStats>>) -> Self {
        Self {
            jsonl: JsonlRecorder::stable(crate::measure::Fnv::new()),
            first_event: None,
            events: 0,
            unanswered: 0,
            timing,
        }
    }

    /// The stable JSONL's digest and byte count.
    pub fn jsonl(&self) -> crate::measure::Fnv {
        *self.jsonl.get_ref()
    }
}

impl Recorder for BenchRecorder {
    fn record(&mut self, event: &Event) {
        if self.first_event.is_none() {
            self.first_event = Some(Instant::now());
        }
        let started = self.timing.as_ref().map(|_| Instant::now());
        self.events += 1;
        if let EventKind::ServeLookupEnd { outcome, .. } = &event.kind {
            if *outcome == bqt::telemetry::OutcomeCode::Failed {
                self.unanswered += 1;
            }
        }
        self.jsonl.record(event);
        if let (Some(stats), Some(started)) = (&self.timing, started) {
            stats.add(started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_aggregates_and_gaps_sum_exactly_to_the_root() {
        let tracer = Tracer::new();
        let stats = CallStats::new();
        tracer.span("root", "rep", || {
            std::thread::sleep(Duration::from_millis(2)); // a gap: unattributed
            tracer.span("outer", "a", || {
                std::thread::sleep(Duration::from_millis(1));
                tracer.span("inner", "b", || {
                    std::thread::sleep(Duration::from_millis(2))
                });
                for _ in 0..3 {
                    let t = Instant::now();
                    std::thread::sleep(Duration::from_micros(300));
                    stats.add(t);
                }
                let outer = tracer.current().expect("inside outer");
                tracer.charge(outer, "calls", &stats);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        tracer.span_under(Some(outer), "worker", "w", |_| {
                            std::thread::sleep(Duration::from_millis(1))
                        })
                    });
                });
            });
            std::thread::sleep(Duration::from_millis(1));
        });
        let root = tracer.last("root").expect("root span");
        let a = tracer.attribute(root);
        assert_eq!(a.sum_ns(), a.root_ns as i64, "{a:?}");
        assert!(
            a.unattributed_ns >= 3_000_000,
            "gaps are unattributed: {a:?}"
        );
        assert_eq!(a.layers["calls"].calls, 3);
        assert!(a.layers["calls"].self_ns >= 900_000);
        assert!(a.layers["inner"].self_ns >= 2_000_000);
        assert!(a.layers["worker"].self_ns >= 1_000_000);
        assert!(a.layers["outer"].self_ns >= 1_000_000);
        assert!(!a.layers.contains_key("root"));
        let json = tracer.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"rep\""));
        assert!(json.contains("\"calls_calls\":3"));
    }

    #[test]
    fn log2_buckets_give_upper_bound_quantiles() {
        // 90 calls in [512, 1023] ns and 10 in [65536, 131071] ns.
        let mut buckets = vec![0u64; 20];
        buckets[10] = 90;
        buckets[17] = 10;
        assert_eq!(bucket_quantile_ns(&buckets, 0.5), 1023);
        assert_eq!(bucket_quantile_ns(&buckets, 0.9), 1023);
        assert_eq!(bucket_quantile_ns(&buckets, 0.91), 131_071);
        assert_eq!(latency_summary(&buckets), (1023, 1023, 90.0, 100));
        assert_eq!(bucket_quantile_ns(&[], 0.5), 0);
    }
}
