//! The virtual-clock phase profiler: folds the campaign → worker → job →
//! attempt span tree into per-ISP, per-workflow-step time attribution,
//! rendered as flamegraph-compatible folded-stack lines.
//!
//! Every millisecond of every started worker's lifetime is attributed to
//! exactly one stack, so the per-worker frame totals each sum to the
//! campaign makespan (and the grand total to `workers × makespan`) — the
//! invariant the determinism suite checks. It charges whole attempts
//! from [`EventKind::AttemptEnd`] spans and serve lookups from
//! [`EventKind::ServeLookupEnd`], both replay-stable, so a resumed
//! campaign folds to byte-identical output.
//!
//! The fold keys its frames by integers — worker (or serve shard),
//! endpoint index, attempt number or cache flag, and outcome — and
//! renders the `;`-joined stack strings once, in [`PhaseProfiler::finish`],
//! so an event costs no formatting. Two keys that render alike are summed.

use super::Names;
use crate::telemetry::{EventKind, OutcomeCode};
use std::collections::BTreeMap;

/// The step a frame charges: one attempt, or a serve lookup by cache flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Attempt(u32),
    Lookup { cache_hit: bool },
}

/// A frame before rendering: `(worker, endpoint, step, outcome)`, the
/// endpoint an index into the profiler's [`Names`].
type Frame = (u32, u32, Step, OutcomeCode);

/// Builds the folded-stack attribution incrementally from the stream.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    names: Names,
    /// Virtual ms per frame.
    frames: BTreeMap<Frame, u64>,
    busy_ms: BTreeMap<u32, u64>,
}

impl PhaseProfiler {
    pub fn observe(&mut self, kind: &EventKind) {
        let (worker, endpoint, step, outcome, ms) = match kind {
            EventKind::AttemptEnd {
                attempt,
                worker,
                endpoint,
                outcome,
                duration_ms,
                ..
            } => (
                *worker,
                endpoint,
                Step::Attempt(*attempt),
                *outcome,
                *duration_ms,
            ),
            // The serve engine runs one virtual worker per shard, so
            // shard id doubles as the worker frame.
            EventKind::ServeLookupEnd {
                shard,
                endpoint,
                outcome,
                cache_hit,
                duration_ms,
                ..
            } => (
                *shard,
                endpoint,
                Step::Lookup {
                    cache_hit: *cache_hit,
                },
                *outcome,
                *duration_ms,
            ),
            _ => return,
        };
        *self.busy_ms.entry(worker).or_default() += ms;
        let frame = (worker, self.names.intern(endpoint), step, outcome);
        *self.frames.entry(frame).or_default() += ms;
    }

    /// Closes the profile at campaign end: renders every frame's stack
    /// (virtual ms per `;`-joined stack, no root label), and each started
    /// worker's unspent lifetime becomes its `idle` frame.
    pub fn finish(self, makespan_ms: u64, started_workers: u32) -> BTreeMap<String, u64> {
        let mut frames = BTreeMap::new();
        for ((worker, endpoint, step, outcome), ms) in self.frames {
            let endpoint = self.names.name(endpoint);
            let outcome = outcome.as_str();
            let stack = match step {
                Step::Attempt(n) => format!("worker_{worker:04};{endpoint};attempt_{n};{outcome}"),
                Step::Lookup { cache_hit } => {
                    let cache = if cache_hit { "cache_hit" } else { "cache_miss" };
                    format!("worker_{worker:04};{endpoint};lookup;{cache};{outcome}")
                }
            };
            *frames.entry(stack).or_default() += ms;
        }
        for worker in 0..started_workers {
            let busy = self.busy_ms.get(&worker).copied().unwrap_or(0);
            let idle = makespan_ms.saturating_sub(busy);
            if idle > 0 {
                frames.insert(format!("worker_{worker:04};idle"), idle);
            }
        }
        frames
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

    #[test]
    fn charges_attempts_and_idle_to_the_makespan() {
        let mut p = PhaseProfiler::default();
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
    fn folded_lines_are_sorted_and_root_labelled() {
        let mut p = PhaseProfiler::default();
        p.observe(&attempt_end(1, 1, 0, 10));
        let frames = p.finish(10, 1);
        let mut out = String::new();
        folded_lines("billings", &frames, &mut out);
        assert_eq!(out, "billings;worker_0000;isp/city;attempt_1;plans 10\n");
    }
}
