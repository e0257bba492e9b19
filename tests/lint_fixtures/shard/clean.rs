//! Shard-merge known-clean fixture: the deterministic shape of the real
//! `bqt::shard` merge — virtual-time stamps, shard-indexed `Vec`s (never
//! hash order), `(at, seq)` tie-breaks — plus the sanctioned escapes:
//! a justified suppression and test-only hash iteration.
use std::collections::HashMap;

pub struct SeqMerge {
    /// Per-shard streams indexed by dense shard id: iteration order IS
    /// shard order.
    streams: Vec<Vec<(u64, u64)>>,
    /// Keyed lookups only — never iterated.
    by_label: HashMap<String, usize>,
}

impl SeqMerge {
    pub fn merge(&self) -> Vec<(u64, u64)> {
        let mut merged = Vec::new();
        for (shard, stream) in self.streams.iter().enumerate() {
            for &(at_ms, counter) in stream {
                merged.push((at_ms, ((shard as u64) << 40) | counter));
            }
        }
        merged.sort();
        merged
    }

    pub fn stream_of(&self, label: &str) -> Option<&[(u64, u64)]> {
        self.by_label
            .get(label)
            .and_then(|&i| self.streams.get(i))
            .map(Vec::as_slice)
    }

    pub fn debug_len(&self) -> usize {
        // lint:allow(T1): cardinality only — order cannot reach any artifact
        self.by_label.values().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_iterate_hashes_and_read_clocks() {
        let started = std::time::Instant::now();
        let m: HashMap<u32, u32> = HashMap::new();
        assert_eq!(m.iter().count(), 0);
        assert!(started.elapsed().as_secs() < 60);
    }
}
