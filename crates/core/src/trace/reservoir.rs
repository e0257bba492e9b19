//! Deterministic top-K slowest-trace exemplar reservoir.
//!
//! "Reservoir" here is not the randomized kind: selection is a pure
//! function of the ordered trace sequence, so it is byte-identical for
//! any thread count and across crash+resume. Ranking is by duration
//! (longest first); ties break by the *earlier* `(end_ms, seq)`, i.e.
//! the trace that finished first in merged stream order wins — the one
//! key every shard interleaving agrees on.

use super::Trace;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The ranking key, smallest first: longest duration, then earliest
/// `(end_ms, seq)`.
type Rank = (Reverse<u64>, u64, u64);

#[derive(Debug, Clone)]
struct Entry {
    trace: Trace,
    end_ms: u64,
    seq: u64,
}

impl Entry {
    fn rank(&self) -> Rank {
        (Reverse(self.trace.duration_ms()), self.end_ms, self.seq)
    }
}

/// Keeps the `k` globally slowest traces plus the single slowest trace
/// per endpoint (so every ISP's tail has an exemplar even when one ISP
/// dominates the global top-K).
#[derive(Debug)]
pub struct ExemplarReservoir {
    k: usize,
    global: Vec<Entry>,
    per_endpoint: BTreeMap<String, Entry>,
}

impl ExemplarReservoir {
    pub fn new(k: usize) -> Self {
        Self {
            k,
            global: Vec::new(),
            per_endpoint: BTreeMap::new(),
        }
    }

    /// Whether [`offer`](Self::offer)ing a trace with these coordinates
    /// would change the reservoir, decided before the trace is built: the
    /// assembler builds spans, labels and the [`Trace`] only when it is.
    pub(crate) fn admits(&self, endpoint: &str, duration_ms: u64, end_ms: u64, seq: u64) -> bool {
        let rank = (Reverse(duration_ms), end_ms, seq);
        self.endpoint_admits(endpoint, rank) || self.global_slot(rank).is_some()
    }

    /// Offers a completed trace. `end_ms` and `seq` are the completing
    /// event's merged-stream coordinates — the deterministic tie-break.
    pub fn offer(&mut self, trace: Trace, end_ms: u64, seq: u64) {
        let entry = Entry { trace, end_ms, seq };
        let rank = entry.rank();
        if self.endpoint_admits(&entry.trace.endpoint, rank) {
            self.per_endpoint
                .insert(entry.trace.endpoint.clone(), entry.clone());
        }
        if let Some(pos) = self.global_slot(rank) {
            self.global.insert(pos, entry);
            self.global.truncate(self.k);
        }
    }

    /// A trace replaces its endpoint's held one unless that one outranks it.
    fn endpoint_admits(&self, endpoint: &str, rank: Rank) -> bool {
        self.per_endpoint
            .get(endpoint)
            .is_none_or(|held| held.rank() >= rank)
    }

    /// Where a trace of this rank would enter the global top-K, if at all.
    fn global_slot(&self, rank: Rank) -> Option<usize> {
        let pos = self
            .global
            .iter()
            .position(|held| rank < held.rank())
            .unwrap_or(self.global.len());
        (pos < self.k).then_some(pos)
    }

    /// The current global exemplar ids, slowest first, comma-joined.
    pub fn csv(&self) -> String {
        let ids: Vec<String> = self.global.iter().map(|e| e.trace.id()).collect();
        ids.join(",")
    }

    /// A clone of the current state (for mid-campaign dashboards).
    pub fn snapshot(&self) -> ExemplarSet {
        ExemplarSet {
            global: self.global.iter().map(|e| e.trace.clone()).collect(),
            per_endpoint: self
                .per_endpoint
                .iter()
                .map(|(k, e)| (k.clone(), e.trace.clone()))
                .collect(),
        }
    }

    /// Condenses into the final exemplar set.
    pub fn into_set(self) -> ExemplarSet {
        ExemplarSet {
            global: self.global.into_iter().map(|e| e.trace).collect(),
            per_endpoint: self
                .per_endpoint
                .into_iter()
                .map(|(k, e)| (k, e.trace))
                .collect(),
        }
    }
}

/// The reservoir's output: the top-K slowest traces (slowest first) and
/// the slowest trace per endpoint. Lives on
/// [`HealthReport`](crate::monitor::HealthReport).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExemplarSet {
    pub global: Vec<Trace>,
    pub per_endpoint: BTreeMap<String, Trace>,
}

impl ExemplarSet {
    pub fn is_empty(&self) -> bool {
        self.global.is_empty() && self.per_endpoint.is_empty()
    }

    /// Global exemplar ids, slowest first.
    pub fn ids(&self) -> Vec<String> {
        self.global.iter().map(Trace::id).collect()
    }

    /// The ids comma-joined — the `AlertFired` wire form.
    pub fn csv(&self) -> String {
        self.ids().join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Span, SpanKind};

    fn trace(endpoint: &str, tag: u64, start: u64, end: u64) -> Trace {
        Trace {
            tag,
            endpoint: endpoint.to_string(),
            root: Span {
                kind: SpanKind::Job,
                label: String::new(),
                start_ms: start,
                end_ms: end,
                children: Vec::new(),
            },
        }
    }

    #[test]
    fn keeps_the_k_slowest_in_duration_order() {
        let mut r = ExemplarReservoir::new(2);
        r.offer(trace("a", 1, 0, 100), 100, 1);
        r.offer(trace("a", 2, 0, 500), 500, 2);
        r.offer(trace("a", 3, 0, 300), 300, 3);
        let set = r.into_set();
        let durations: Vec<u64> = set.global.iter().map(Trace::duration_ms).collect();
        assert_eq!(durations, vec![500, 300]);
    }

    #[test]
    fn duration_ties_break_by_earlier_end_then_seq() {
        let mut r = ExemplarReservoir::new(1);
        r.offer(trace("a", 1, 50, 250), 250, 7);
        r.offer(trace("a", 2, 0, 200), 200, 9);
        // Same 200ms duration; tag 2 ended earlier → it wins.
        assert_eq!(r.into_set().global[0].tag, 2);

        let mut r = ExemplarReservoir::new(1);
        r.offer(trace("a", 1, 0, 200), 200, 7);
        r.offer(trace("a", 2, 0, 200), 200, 9);
        // Same duration and end → lower seq wins.
        assert_eq!(r.into_set().global[0].tag, 1);
    }

    #[test]
    fn per_endpoint_slowest_survives_global_eviction() {
        let mut r = ExemplarReservoir::new(1);
        r.offer(trace("big", 1, 0, 900), 900, 1);
        r.offer(trace("small", 2, 0, 10), 10, 2);
        let set = r.into_set();
        assert_eq!(set.global.len(), 1);
        assert_eq!(set.global[0].endpoint, "big");
        assert_eq!(set.per_endpoint["small"].tag, 2);
    }

    #[test]
    fn k_zero_disables_the_global_reservoir_only() {
        let mut r = ExemplarReservoir::new(0);
        r.offer(trace("a", 1, 0, 100), 100, 1);
        let set = r.into_set();
        assert!(set.global.is_empty());
        assert_eq!(set.csv(), "");
        assert_eq!(set.per_endpoint.len(), 1);
    }

    #[test]
    fn admits_is_true_exactly_when_offer_changes_the_reservoir() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        for case in 0..400 {
            let mut r = ExemplarReservoir::new(case % 4);
            let mut seq = 0;
            for tag in 0..30 {
                // Four durations and end instants on a 10 ms grid make
                // duration ties and equal ends common; a repeated `seq`
                // makes whole-key ties.
                let endpoint = ["a", "b", "c"][rng.gen_range(0..3)];
                let end = rng.gen_range(3..7u64) * 10;
                let start = end - rng.gen_range(0..4u64) * 10;
                seq += rng.gen_range(0..2u64);
                let before = r.snapshot();
                let admitted = r.admits(endpoint, end - start, end, seq);
                r.offer(trace(endpoint, tag, start, end), end, seq);
                assert_eq!(admitted, r.snapshot() != before, "case {case} tag {tag}");
            }
        }
    }

    #[test]
    fn csv_joins_ids_slowest_first() {
        let mut r = ExemplarReservoir::new(3);
        r.offer(trace("a", 0x10, 0, 100), 100, 1);
        r.offer(trace("b", 0x20, 0, 400), 400, 2);
        assert_eq!(r.csv(), "b:20@0,a:10@0");
    }
}
