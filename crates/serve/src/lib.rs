//! The plan-serving query layer: a deterministic, sharded, in-memory
//! store answering the questions the curated dataset was built to
//! answer — what plans an address can buy, how carriage value
//! distributes over a block group, how competitive a city's broadband
//! market is — fronted by a typed request API and exercised by a
//! seeded load generator on the virtual clock.
//!
//! Layering, bottom up:
//!
//! * [`store`] — per-`(city, ISP)` [`ShardIndex`]es loaded from
//!   curated [`CityArtifact`](bbsim_dataset::artifact::CityArtifact)s;
//! * [`api`] — the [`ServeQuery`]/[`ServeAnswer`] enums and the
//!   [`ServeRequest`]/[`ServeResponse`] envelopes, with a JSONL-stable
//!   wire form (divide-lint E1 pins serialization to the variant list);
//! * [`cache`] + [`router`] — the single entry point every request
//!   funnels through: LRU answer cache with deterministic eviction,
//!   batch-of-N processed exactly as N ordered singles;
//! * [`service`] — the [`bbsim_net::Service`] adapter mounting one
//!   shard's router on the simulated network;
//! * [`load`] + [`engine`] — the zipfian/burst/scan load generator and
//!   the multi-threaded campaign engine whose merged telemetry stream
//!   (and every artifact derived from it: `events.jsonl`,
//!   `health.prom`, folded profiles) is byte-identical across thread
//!   counts.

pub mod api;
pub mod cache;
pub mod engine;
pub mod load;
pub mod router;
pub mod service;
pub mod store;

pub use api::{
    answer_to_line, parse_answer_line, parse_query_line, query_to_line, ServeAnswer, ServeQuery,
    ServeRequest, ServeResponse, WireError,
};
pub use cache::LruCache;
pub use engine::{run, run_recorded, ServeOptions, ServeOutcome};
pub use load::{Arrival, LoadPhase, PhaseKind};
pub use router::Router;
pub use service::{PlanService, ServeCosts};
pub use store::{CityTiles, CvSummary, PlanStore, ShardIndex};
