//! The per-router LRU answer cache with deterministic eviction.
//!
//! Entries live in a slab threaded on an intrusive doubly-linked
//! recency list (head = most recent, tail = the next victim), and an
//! open-addressing index maps a key's hash to its slab slot. Keys arrive
//! off the wire, so the hash is std's keyed SipHash (`RandomState`),
//! which crafted colliding keys cannot target. The index is only ever
//! probed for one key and nothing iterates it, so neither the per-cache
//! hash keys nor the table layout can reach an output. Recency is the
//! list order alone, which moves on every `get` hit and `insert`: for a
//! given sequence of calls the eviction order — and therefore the
//! `CacheEvicted` event log — is a pure function of the call sequence,
//! byte-identical across runs and thread counts.

use crate::api::ServeAnswer;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// End of the recency list, and an empty index bucket.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Entry {
    key: String,
    hash: u64,
    answer: ServeAnswer,
    /// Neighbour toward the head (more recent).
    prev: usize,
    /// Neighbour toward the tail (less recent).
    next: usize,
}

/// A least-recently-used answer cache over string keys.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity: usize,
    /// Resident entries; a victim's slot is reused by the entry that
    /// displaced it, so the slab never holds a free slot.
    slab: Vec<Entry>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next victim.
    tail: usize,
    /// Linear-probing table of slab slots (`NIL` = empty), a power of
    /// two kept at least twice the entry count.
    index: Vec<usize>,
    hasher: RandomState,
    /// Keys evicted since the last [`LruCache::drain_evicted`], in
    /// eviction order.
    evicted: Vec<String>,
}

impl LruCache {
    /// A cache holding at most `capacity` answers (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            index: Vec::new(),
            hasher: RandomState::new(),
            evicted: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.slab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<ServeAnswer> {
        let slot = self.find(self.hasher.hash_one(key), key)?;
        self.touch(slot);
        Some(self.slab[slot].answer.clone())
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used
    /// entry if the cache is full.
    pub fn insert(&mut self, key: String, answer: ServeAnswer) {
        if self.capacity == 0 {
            return;
        }
        let hash = self.hasher.hash_one(key.as_str());
        if let Some(slot) = self.find(hash, &key) {
            self.slab[slot].answer = answer;
            self.touch(slot);
            return;
        }
        let slot = if self.slab.len() < self.capacity {
            self.slab.push(Entry {
                key,
                hash,
                answer,
                prev: NIL,
                next: NIL,
            });
            self.grow_index();
            self.slab.len() - 1
        } else {
            // Full and `key` is new: the tail is the victim. Its slot
            // takes the new entry and its key moves into the log.
            let victim = self.tail;
            self.unlink(victim);
            self.unindex(victim);
            let entry = &mut self.slab[victim];
            entry.hash = hash;
            entry.answer = answer;
            self.evicted.push(std::mem::replace(&mut entry.key, key));
            victim
        };
        self.index_slot(slot);
        self.push_front(slot);
    }

    /// Keys evicted since the last drain, in eviction order.
    pub fn drain_evicted(&mut self) -> Vec<String> {
        std::mem::take(&mut self.evicted)
    }

    /// The index bucket `hash` starts probing at.
    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.index.len() - 1)
    }

    /// The slot holding `key`, if resident.
    fn find(&self, hash: u64, key: &str) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut b = self.home(hash);
        loop {
            let slot = self.index[b];
            if slot == NIL {
                return None;
            }
            let entry = &self.slab[slot];
            if entry.hash == hash && entry.key == key {
                return Some(slot);
            }
            b = (b + 1) & mask;
        }
    }

    /// Records `slot` (already holding its entry) in the index.
    fn index_slot(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut b = self.home(self.slab[slot].hash);
        while self.index[b] != NIL {
            b = (b + 1) & mask;
        }
        self.index[b] = slot;
    }

    /// Removes `slot` from the index, shifting later members of its
    /// probe run back so every lookup still finds them.
    fn unindex(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.slab[slot].hash);
        while self.index[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let moved = self.index[b];
            if moved == NIL {
                break;
            }
            // `moved` may fill the hole only if its home bucket does not
            // lie cyclically inside (hole, b].
            let home = self.home(self.slab[moved].hash);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = moved;
                hole = b;
            }
        }
        self.index[hole] = NIL;
    }

    /// Doubles the index once the slab (about to be indexed) would fill
    /// more than half of it, re-placing every resident slot.
    fn grow_index(&mut self) {
        if 2 * self.slab.len() <= self.index.len() {
            return;
        }
        let size = (2 * self.slab.len()).next_power_of_two().max(16);
        self.index = vec![NIL; size];
        for slot in 0..self.slab.len() - 1 {
            self.index_slot(slot);
        }
    }

    /// Moves `slot` to the head of the recency list.
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: usize) {
        let Entry { prev, next, .. } = self.slab[slot];
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        let old = self.head;
        self.slab[slot].prev = NIL;
        self.slab[slot].next = old;
        match old {
            NIL => self.tail = slot,
            h => self.slab[h].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(n: u64) -> ServeAnswer {
        ServeAnswer::Percentiles {
            n,
            p25: 1.0,
            p50: 2.0,
            p75: 3.0,
            p95: 4.0,
        }
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), answer(1));
        cache.insert("b".into(), answer(2));
        assert!(cache.get("a").is_some(), "refresh a");
        cache.insert("c".into(), answer(3));
        assert_eq!(cache.drain_evicted(), vec!["b".to_string()]);
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), answer(1));
        cache.insert("b".into(), answer(2));
        cache.insert("a".into(), answer(10));
        cache.insert("c".into(), answer(3));
        assert_eq!(cache.drain_evicted(), vec!["b".to_string()]);
        assert_eq!(cache.get("a"), Some(answer(10)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert("a".into(), answer(1));
        assert!(cache.is_empty());
        assert!(cache.drain_evicted().is_empty());
    }

    #[test]
    fn eviction_log_is_a_function_of_the_call_sequence() {
        let run = || {
            let mut cache = LruCache::new(3);
            let mut log = Vec::new();
            for i in 0..32u64 {
                let key = format!("k{}", i % 7);
                if cache.get(&key).is_none() {
                    cache.insert(key, answer(i));
                }
                log.extend(cache.drain_evicted());
            }
            log
        };
        assert_eq!(run(), run());
    }
}
