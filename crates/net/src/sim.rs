//! A minimal discrete-event scheduler.
//!
//! The data-collection orchestrator interleaves many concurrent "containers"
//! on one virtual timeline: each worker's next action is an event, and the
//! queue releases events in chronological order. Ties break by insertion
//! order, which keeps runs fully deterministic.

use crate::clock::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A time-ordered event queue. `E` is the caller's event payload.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

/// One scheduled event. The payload rides in its heap entry, which
/// orders on `(time, seq)` alone, earliest first.
#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> Reverse<(SimTime, u64)> {
        Reverse((self.time, self.seq))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.heap.push(Entry { time, seq, event });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap
            .pop()
            .map(|Entry { time, event, .. }| (time, event))
    }

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

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_chronological_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), 1);
        q.push(t(5), 2);
        q.push(t(5), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(t(100), 100);
        q.push(t(50), 50);
        assert_eq!(q.pop(), Some((t(50), 50)));
        q.push(t(75), 75);
        q.push(t(25), 25); // scheduled in the "past" relative to 50: still fine
        assert_eq!(q.pop(), Some((t(25), 25)));
        assert_eq!(q.pop(), Some((t(75), 75)));
        assert_eq!(q.pop(), Some((t(100), 100)));
    }

    #[test]
    fn large_volume_is_sorted() {
        let mut q = EventQueue::new();
        // Deterministic scramble of 0..1000.
        for i in 0..1000u64 {
            let shuffled = (i * 7919) % 1000;
            q.push(t(shuffled), shuffled);
        }
        let mut prev = 0;
        while let Some((time, v)) = q.pop() {
            assert_eq!(time.as_millis(), v);
            assert!(v >= prev);
            prev = v;
        }
    }
}
