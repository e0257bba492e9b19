//! The workspace scope manifest — the **single** place a module gets
//! registered with the analyzer.
//!
//! Before this file existed, D1/D2/D3 each carried their own copy of
//! the crate/file lists inside `Config::workspace`, so adding a module
//! meant editing several parallel vectors (and forgetting one meant a
//! silently unlinted path). Now every rule family reads from here:
//!
//! * [`REPLAY_CRITICAL`] — D1 scope *and* the crates whose fns count as
//!   replay-critical context for T1;
//! * [`ORDERED_OUTPUT`] — D2 scope;
//! * [`SUPERVISION`] — D3 scope;
//! * [`WORKER_PATHS`] — T3 scope: files whose worker loops may only
//!   share state through per-shard slots + the `(at, seq)` merge;
//! * [`HARNESS`] — driver code (bench, the linter itself) that calls
//!   *into* the system but never receives call-graph edges;
//! * [`REPLAY_ENTRY_POINTS`] / [`SUPERVISION_ENTRY_POINTS`] — the T1/T2
//!   sinks: the functions whose transitive closure must stay free of
//!   ambient inputs (T1) and panics (T2).

/// One interprocedural entry point: `(file prefix, impl owner, fn)`.
#[derive(Debug, Clone, Copy)]
pub struct EntryPointDef {
    pub file: &'static str,
    /// `None` matches a free fn or any owner.
    pub owner: Option<&'static str>,
    pub name: &'static str,
}

/// D1 + T1 context: anything here feeds the virtual clock, the seeded
/// draws, or the journal replay path.
pub const REPLAY_CRITICAL: &[&str] = &[
    "crates/net/src/",
    "crates/core/src/",
    "crates/dataset/src/",
    "crates/serve/src/",
];

/// D2: files that emit serialized or ordered artifacts — the WAL, the
/// JSONL event log, the Prometheus exposition, the folded profile, the
/// Chrome trace export, and the dataset CSVs.
pub const ORDERED_OUTPUT: &[&str] = &[
    "crates/core/src/journal.rs",
    "crates/core/src/telemetry/",
    "crates/core/src/monitor/",
    "crates/core/src/shard.rs",
    "crates/core/src/trace/",
    "crates/dataset/src/",
    "crates/serve/src/",
];

/// D3: supervision paths — a panic here takes down a campaign (or a
/// recorder fan-out) instead of surfacing a typed error.
pub const SUPERVISION: &[&str] = &["crates/core/src/", "crates/dataset/src/pipeline.rs"];

/// T3: worker paths that execute shards on OS threads — the executor
/// and its callers. Cross-shard state here must flow through per-shard
/// slots indexed by shard id and be merged on `(at, seq)` — never through
/// un-sharded locks or atomic synchronization order.
pub const WORKER_PATHS: &[&str] = &[
    "crates/core/src/exec.rs",
    "crates/core/src/shard.rs",
    "crates/serve/src/engine.rs",
];

/// Driver/harness code: may freely call entry points (and read the wall
/// clock — it *measures* the system), so it must never receive incoming
/// call-graph edges, or every benchmark timer would taint the campaign.
pub const HARNESS: &[&str] = &["crates/bench/src/", "crates/lint/src/"];

/// T1 sinks: the replay-critical public entry points. A wall-clock /
/// entropy / env / hash-order source transitively reachable from any of
/// these voids the byte-identity guarantee.
pub const REPLAY_ENTRY_POINTS: &[EntryPointDef] = &[
    EntryPointDef {
        file: "crates/core/src/campaign.rs",
        owner: Some("Campaign"),
        name: "run",
    },
    EntryPointDef {
        file: "crates/core/src/campaign.rs",
        owner: Some("Campaign"),
        name: "run_sharded",
    },
    EntryPointDef {
        file: "crates/core/src/campaign.rs",
        owner: Some("Campaign"),
        name: "epochs",
    },
    EntryPointDef {
        file: "crates/core/src/journal.rs",
        owner: None,
        name: "read_entries",
    },
    EntryPointDef {
        file: "crates/core/src/journal.rs",
        owner: None,
        name: "recover",
    },
    EntryPointDef {
        file: "crates/core/src/journal.rs",
        owner: Some("Journal"),
        name: "replay",
    },
    EntryPointDef {
        file: "crates/core/src/monitor/merge.rs",
        owner: Some("WatermarkHeap"),
        name: "push",
    },
    EntryPointDef {
        file: "crates/core/src/monitor/merge.rs",
        owner: Some("WatermarkHeap"),
        name: "pop_ready",
    },
    EntryPointDef {
        file: "crates/core/src/trace/assemble.rs",
        owner: Some("TraceAssembler"),
        name: "observe",
    },
    EntryPointDef {
        file: "crates/core/src/trace/assemble.rs",
        owner: Some("TraceAssembler"),
        name: "finish",
    },
    EntryPointDef {
        file: "crates/serve/src/router.rs",
        owner: Some("Router"),
        name: "route",
    },
    EntryPointDef {
        file: "crates/serve/src/router.rs",
        owner: Some("Router"),
        name: "handle",
    },
    EntryPointDef {
        file: "crates/dataset/src/pipeline.rs",
        owner: None,
        name: "curate_city",
    },
    EntryPointDef {
        file: "crates/dataset/src/pipeline.rs",
        owner: None,
        name: "curate_city_journaled",
    },
];

/// T2 sinks: supervision entry points. A panic transitively reachable
/// from these tears down a campaign mid-journal instead of surfacing a
/// typed error. The set matches [`REPLAY_ENTRY_POINTS`]: every replay
/// entry is also a supervised one.
pub const SUPERVISION_ENTRY_POINTS: &[EntryPointDef] = REPLAY_ENTRY_POINTS;

/// Helper: materialize a `&'static str` slice into the owned form
/// `Config` carries.
pub fn owned(scopes: &[&str]) -> Vec<String> {
    scopes.iter().map(|s| s.to_string()).collect()
}
