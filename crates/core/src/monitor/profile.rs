//! The virtual-clock phase profiler: folds the campaign → worker → job →
//! attempt → page-fetch span tree into per-ISP, per-workflow-step time
//! attribution, rendered as flamegraph-compatible folded-stack lines.
//!
//! Every millisecond of every started worker's lifetime is attributed to
//! exactly one stack, so the per-worker frame totals each sum to the
//! campaign makespan (and the grand total to `workers × makespan`) — the
//! invariant the determinism suite checks. The default (stable) mode
//! charges whole attempts from [`EventKind::AttemptEnd`] spans, which are
//! replay-stable, so a resumed campaign folds to byte-identical output.
//! With `fetch_frames` enabled the profiler splits attempts further into
//! per-page `step_N` frames plus driver `overhead`, using the *ephemeral*
//! page-fetch spans — richer, but only meaningful for uninterrupted runs.

use super::upsert;
use crate::telemetry::EventKind;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;

/// Builds the folded-stack attribution incrementally from the stream.
#[derive(Debug)]
pub struct PhaseProfiler {
    fetch_frames: bool,
    /// Live page-fetch durations per `(tag, attempt)`, drained at its end.
    fetches: HashMap<(u64, u32), Vec<u64>>,
    /// Virtual ms per stack (frames `;`-joined, no root label).
    frames: BTreeMap<String, u64>,
    busy_ms: BTreeMap<u32, u64>,
    /// Scratch buffer the current event's stack is formatted into, so a
    /// frame already seen costs no allocation.
    stack: String,
}

impl PhaseProfiler {
    pub fn new(fetch_frames: bool) -> Self {
        Self {
            fetch_frames,
            fetches: HashMap::new(),
            frames: BTreeMap::new(),
            busy_ms: BTreeMap::new(),
            stack: String::new(),
        }
    }

    pub fn observe(&mut self, kind: &EventKind) {
        match kind {
            EventKind::PageFetchEnd {
                tag,
                attempt,
                duration_ms,
                ..
            } if self.fetch_frames => {
                self.fetches
                    .entry((*tag, *attempt))
                    .or_default()
                    .push(*duration_ms);
            }
            EventKind::AttemptEnd {
                tag,
                attempt,
                worker,
                endpoint,
                outcome,
                duration_ms,
                ..
            } => {
                *self.busy_ms.entry(*worker).or_default() += duration_ms;
                self.stack.clear();
                let _ = write!(
                    self.stack,
                    "worker_{worker:04};{endpoint};attempt_{attempt};{}",
                    outcome.as_str()
                );
                if self.fetch_frames {
                    // Fetch spans nest inside the attempt and never overlap,
                    // so their sum is bounded by the attempt duration; the
                    // remainder is driver work between pages.
                    let spans = self.fetches.remove(&(*tag, *attempt)).unwrap_or_default();
                    let attempt_len = self.stack.len();
                    let mut rest = *duration_ms;
                    for (i, ms) in spans.iter().enumerate() {
                        let charged = (*ms).min(rest);
                        rest -= charged;
                        if charged > 0 {
                            self.stack.truncate(attempt_len);
                            let _ = write!(self.stack, ";step_{i}");
                            self.charge(charged);
                        }
                    }
                    if rest > 0 {
                        self.stack.truncate(attempt_len);
                        self.stack.push_str(";overhead");
                        self.charge(rest);
                    }
                } else {
                    self.charge(*duration_ms);
                }
            }
            EventKind::ServeLookupEnd {
                shard,
                endpoint,
                outcome,
                cache_hit,
                duration_ms,
                ..
            } => {
                // The serve engine runs one virtual worker per shard, so
                // shard id doubles as the worker frame.
                *self.busy_ms.entry(*shard).or_default() += duration_ms;
                self.stack.clear();
                let _ = write!(
                    self.stack,
                    "worker_{shard:04};{endpoint};lookup;{};{}",
                    if *cache_hit {
                        "cache_hit"
                    } else {
                        "cache_miss"
                    },
                    outcome.as_str()
                );
                self.charge(*duration_ms);
            }
            _ => {}
        }
    }

    /// Adds `ms` to the frame in the scratch stack buffer.
    fn charge(&mut self, ms: u64) {
        upsert(&mut self.frames, &self.stack, |total| *total += ms);
    }

    /// Closes the profile at campaign end: each started worker's unspent
    /// lifetime becomes its `idle` frame.
    pub fn finish(mut self, makespan_ms: u64, started_workers: u32) -> BTreeMap<String, u64> {
        for worker in 0..started_workers {
            let busy = self.busy_ms.get(&worker).copied().unwrap_or(0);
            let idle = makespan_ms.saturating_sub(busy);
            if idle > 0 {
                self.frames.insert(format!("worker_{worker:04};idle"), idle);
            }
        }
        self.frames
    }
}

/// Renders frames to folded-stack lines rooted at `label`.
pub fn folded_lines(label: &str, frames: &BTreeMap<String, u64>, out: &mut String) {
    for (stack, ms) in frames {
        out.push_str(label);
        out.push(';');
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ms.to_string());
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::OutcomeCode;

    fn attempt_end(tag: u64, attempt: u32, worker: u32, ms: u64) -> EventKind {
        EventKind::AttemptEnd {
            tag,
            attempt,
            worker,
            endpoint: "isp/city".into(),
            outcome: OutcomeCode::Plans,
            duration_ms: ms,
            steps: 2,
        }
    }

    fn fetch_end(tag: u64, attempt: u32, fetch: u32, ms: u64) -> EventKind {
        EventKind::PageFetchEnd {
            tag,
            attempt,
            fetch,
            duration_ms: ms,
        }
    }

    #[test]
    fn stable_mode_charges_attempts_and_idle_to_the_makespan() {
        let mut p = PhaseProfiler::new(false);
        p.observe(&attempt_end(1, 1, 0, 40_000));
        p.observe(&attempt_end(2, 1, 0, 20_000));
        p.observe(&attempt_end(3, 1, 1, 55_000));
        let frames = p.finish(100_000, 2);
        assert_eq!(frames["worker_0000;isp/city;attempt_1;plans"], 60_000);
        assert_eq!(frames["worker_0000;idle"], 40_000);
        assert_eq!(frames["worker_0001;idle"], 45_000);
        // Per-worker totals each sum to the makespan.
        for w in ["worker_0000", "worker_0001"] {
            let total: u64 = frames
                .iter()
                .filter(|(k, _)| k.starts_with(w))
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(total, 100_000, "{w}");
        }
    }

    #[test]
    fn fetch_mode_splits_attempts_into_steps_and_overhead() {
        let mut p = PhaseProfiler::new(true);
        p.observe(&fetch_end(1, 1, 0, 45_000));
        p.observe(&fetch_end(1, 1, 1, 30_000));
        p.observe(&attempt_end(1, 1, 0, 80_000));
        let frames = p.finish(80_000, 1);
        let stack = "worker_0000;isp/city;attempt_1;plans";
        assert_eq!(frames[&format!("{stack};step_0")], 45_000);
        assert_eq!(frames[&format!("{stack};step_1")], 30_000);
        assert_eq!(frames[&format!("{stack};overhead")], 5_000);
        let total: u64 = frames.values().sum();
        assert_eq!(total, 80_000);
    }

    #[test]
    fn folded_lines_are_sorted_and_root_labelled() {
        let mut p = PhaseProfiler::new(false);
        p.observe(&attempt_end(1, 1, 0, 10));
        let frames = p.finish(10, 1);
        let mut out = String::new();
        folded_lines("billings", &frames, &mut out);
        assert_eq!(out, "billings;worker_0000;isp/city;attempt_1;plans 10\n");
    }
}
