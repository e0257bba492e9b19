//! The single request-facing entry point: every typed query — single or
//! batch — funnels through [`Router::handle`], which consults the LRU
//! answer cache and falls through to the store's indices.
//!
//! A batch of N queries is answered exactly as N singles issued in
//! order would be: same answers, same cache transitions, same eviction
//! log. The batch tests pin that equivalence down.

use crate::api::{ServeAnswer, ServeQuery, ServeRequest, ServeResponse};
use crate::cache::LruCache;
use crate::store::PlanStore;
use std::sync::Arc;

/// Routes typed requests to the store through a per-router answer cache.
#[derive(Debug, Clone)]
pub struct Router {
    store: Arc<PlanStore>,
    cache: LruCache,
    /// Reused cache-key buffer: a lookup writes its key here and only
    /// an insert copies it out.
    key: String,
}

impl Router {
    pub fn new(store: Arc<PlanStore>, cache_capacity: usize) -> Self {
        Self {
            store,
            cache: LruCache::new(cache_capacity),
            key: String::new(),
        }
    }

    pub fn store(&self) -> &PlanStore {
        &self.store
    }

    /// Answers one query; the flag reports whether the answer came from
    /// the cache. Uncacheable kinds bypass the cache entirely; the
    /// store's [`PlanStore::answer`] handles every query kind
    /// exhaustively (divide-lint E1).
    pub fn route(&mut self, query: &ServeQuery) -> (ServeAnswer, bool) {
        if !query.cacheable() {
            return (self.store.answer(query), false);
        }
        self.key.clear();
        query.push_cache_key(&mut self.key);
        if let Some(answer) = self.cache.get(&self.key) {
            return (answer, true);
        }
        let answer = self.store.answer(query);
        self.cache.insert(self.key.clone(), answer.clone());
        (answer, false)
    }

    /// Answers a request envelope: answers arrive in query order, and a
    /// batch is processed as its queries issued singly would be. The
    /// per-query flags report cache hits in the same order.
    pub fn handle(&mut self, request: &ServeRequest) -> (ServeResponse, Vec<bool>) {
        match request {
            ServeRequest::Single(q) => {
                let (answer, hit) = self.route(q);
                (ServeResponse::Single(answer), vec![hit])
            }
            ServeRequest::Batch(qs) => {
                let mut answers = Vec::with_capacity(qs.len());
                let mut hits = Vec::with_capacity(qs.len());
                for q in qs {
                    let (answer, hit) = self.route(q);
                    answers.push(answer);
                    hits.push(hit);
                }
                (ServeResponse::Batch(answers), hits)
            }
        }
    }

    /// Cache keys evicted since the last drain, in eviction order.
    pub fn drain_evicted(&mut self) -> Vec<String> {
        self.cache.drain_evicted()
    }
}
