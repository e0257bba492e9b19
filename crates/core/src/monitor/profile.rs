//! The virtual-clock phase profiler: folds the campaign → worker → job →
//! attempt → page-fetch span tree into per-ISP, per-workflow-step time
//! attribution, rendered as flamegraph-compatible folded-stack lines.
//!
//! Every millisecond of every started worker's lifetime is attributed to
//! exactly one stack, so the per-worker frame totals each sum to the
//! campaign makespan (and the grand total to `workers × makespan`) — the
//! invariant the determinism suite checks. It charges whole attempts
//! from [`EventKind::AttemptEnd`] spans and serve lookups from
//! [`EventKind::ServeLookupEnd`], both replay-stable, so a resumed
//! campaign folds to byte-identical output.

use super::upsert;
use crate::telemetry::EventKind;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Builds the folded-stack attribution incrementally from the stream.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    /// Virtual ms per stack (frames `;`-joined, no root label).
    frames: BTreeMap<String, u64>,
    busy_ms: BTreeMap<u32, u64>,
    /// Scratch buffer the current event's stack is formatted into, so a
    /// frame already seen costs no allocation.
    stack: String,
}

impl PhaseProfiler {
    pub fn observe(&mut self, kind: &EventKind) {
        match kind {
            EventKind::AttemptEnd {
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
                self.charge(*duration_ms);
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
