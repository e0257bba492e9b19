//! Shard-merge known-bad fixture: the two hazards sharding introduces
//! and divide-lint keeps out of `bqt::shard`.
//! Expected T1 scope findings: the `std::time::Instant` import and the
//! `Instant::now()` read (wall-clock stamps would differ per run and per
//! thread interleaving), then the `for .. in &self.streams` loop and the
//! `.values()` call (hash-order iteration over per-shard streams feeds
//! the merged artifact in nondeterministic order).
use std::collections::HashMap;
use std::time::Instant;

pub struct WallClockMerge {
    streams: HashMap<u32, Vec<(u64, u64)>>,
}

impl WallClockMerge {
    pub fn merge(&self) -> Vec<(u64, u64, u128)> {
        let started = Instant::now();
        let mut merged = Vec::new();
        for (shard, stream) in &self.streams {
            for &(at_ms, counter) in stream {
                merged.push((at_ms, (u64::from(*shard) << 40) | counter));
            }
        }
        merged.sort();
        merged
            .into_iter()
            .map(|(at, seq)| (at, seq, started.elapsed().as_millis()))
            .collect()
    }

    pub fn total_events(&self) -> usize {
        self.streams.values().map(Vec::len).sum()
    }
}
