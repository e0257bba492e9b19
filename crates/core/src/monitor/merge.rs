//! The watermark + `(at, seq)` ordering heap the live monitor and the
//! trace assembler use to fold an emission-order stream in time order.
//!
//! The telemetry stream arrives in *emission* order, which is not virtual
//! time order: an attempt's end is stamped in the future and emitted the
//! moment the attempt is scheduled. Consumers that need exact time order
//! (the sliding-window monitor, the standalone trace assembler) queue
//! such events in a [`WatermarkHeap`] and pop them only once the
//! watermark — the largest timestamp carried by an event that is emitted
//! *at* the loop's current time — has passed an entry's stamp. Ties on
//! the same virtual millisecond break on `seq`, a caller-assigned total
//! order (emission order within one stream), so the drained order is a
//! deterministic function of the event set alone.
//!
//! Loop-current events rarely need the heap: when nothing queued is
//! stamped at or before one ([`WatermarkHeap::next_at`]), it is the next
//! event in time order and is folded in place, so only future-stamped
//! events wait. The multi-shard merge in [`shard`](crate::shard) needs no
//! heap at all: its streams are complete, so it sorts them once.

use crate::telemetry::EventKind;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry waiting for the watermark to pass its timestamp.
#[derive(Debug)]
struct Entry<T> {
    at_ms: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms == other.at_ms && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest-first.
        (other.at_ms, other.seq).cmp(&(self.at_ms, self.seq))
    }
}

/// Whether this kind is emitted at the event loop's current time (so its
/// timestamp is a lower bound for everything still unemitted). End-of-
/// attempt kinds are stamped in the *future* and must wait in the heap.
pub fn advances_watermark(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::CampaignBegin { .. }
            | EventKind::WorkerBegin { .. }
            | EventKind::JobBegin { .. }
            | EventKind::AttemptBegin { .. }
            | EventKind::BreakerDefer { .. }
            | EventKind::WorkerEnd { .. }
            | EventKind::CampaignEnd { .. }
            // Serve-side kinds reach the monitor through the pre-sorted
            // merged shard stream, so their stamps are already monotone
            // and safe to treat as loop-current.
            | EventKind::ServeLookupEnd { .. }
            | EventKind::CacheEvicted { .. }
            | EventKind::ServeShed { .. }
    )
}

/// A min-heap over `(at_ms, seq)` gated by a monotone watermark.
///
/// `push` entries in any order; `advance` the watermark as loop-current
/// events reveal it; `pop_ready` yields entries whose stamp the watermark
/// has passed, earliest `(at_ms, seq)` first. Advancing to `u64::MAX`
/// drains everything — the end-of-stream flush.
#[derive(Debug)]
pub struct WatermarkHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    watermark: u64,
}

impl<T> Default for WatermarkHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> WatermarkHeap<T> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            watermark: 0,
        }
    }

    /// Queues one entry. `seq` must be unique per stream; entries sharing
    /// a millisecond drain in `seq` order.
    pub fn push(&mut self, at_ms: u64, seq: u64, payload: T) {
        self.heap.push(Entry {
            at_ms,
            seq,
            payload,
        });
    }

    /// Raises the watermark (never lowers it — late, lower stamps are
    /// exactly what the heap exists to reorder).
    pub fn advance(&mut self, watermark_ms: u64) {
        self.watermark = self.watermark.max(watermark_ms);
    }

    /// The current watermark.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Pops the earliest entry whose stamp the watermark has passed, or
    /// `None` when everything still queued is stamped in the future.
    pub fn pop_ready(&mut self) -> Option<(u64, u64, T)> {
        if self
            .heap
            .peek()
            .is_some_and(|entry| entry.at_ms <= self.watermark)
        {
            self.heap
                .pop()
                .map(|entry| (entry.at_ms, entry.seq, entry.payload))
        } else {
            None
        }
    }

    /// The earliest stamp still queued, ready or not. An event stamped
    /// before it drains ahead of every queued entry, which is what lets
    /// a consumer fold it in place instead of pushing it.
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|entry| entry.at_ms)
    }

    /// Entries still queued (ready or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_at_seq_order_once_watermark_passes() {
        let mut heap = WatermarkHeap::new();
        heap.push(70, 2, "late-stamped");
        heap.push(10, 3, "early");
        heap.push(10, 1, "earlier-seq");
        assert!(heap.pop_ready().is_none(), "watermark still at 0");

        heap.advance(15);
        assert_eq!(heap.pop_ready(), Some((10, 1, "earlier-seq")));
        assert_eq!(heap.pop_ready(), Some((10, 3, "early")));
        assert!(heap.pop_ready().is_none(), "70ms entry is in the future");

        assert_eq!(heap.next_at(), Some(70));
        heap.advance(u64::MAX);
        assert_eq!(heap.pop_ready(), Some((70, 2, "late-stamped")));
        assert_eq!(heap.next_at(), None);
        assert!(heap.is_empty());
    }

    #[test]
    fn watermark_never_regresses() {
        let mut heap = WatermarkHeap::new();
        heap.advance(100);
        heap.advance(40);
        assert_eq!(heap.watermark(), 100);
        heap.push(60, 1, ());
        assert_eq!(heap.pop_ready(), Some((60, 1, ())));
    }
}
