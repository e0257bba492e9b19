//! The workspace scope manifest — the **single** place a module gets
//! registered with the analyzer, so adding a module is one edit here,
//! not several parallel vectors in `Config::workspace`:
//!
//! * [`REPLAY_CRITICAL`] — T1's file scope: every source here is
//!   checked whether or not an entry point reaches it;
//! * [`SUPERVISION`] — T2's file scope, likewise;
//! * [`WORKER_PATHS`] — T3 scope: files whose worker loops may only
//!   share state through per-shard slots + the `(at, seq)` merge;
//! * [`HARNESS`] — driver code (bench, the linter itself) that calls
//!   *into* the system but never receives call-graph edges;
//! * [`ENTRY_POINTS`] — the T1/T2 sinks: the functions whose transitive
//!   closure must stay free of ambient inputs (T1) and panics (T2).

/// One interprocedural entry point: `(file prefix, impl owner, fn)`.
#[derive(Debug, Clone, Copy)]
pub struct EntryPointDef {
    pub file: &'static str,
    /// `None` matches a free fn or any owner.
    pub owner: Option<&'static str>,
    pub name: &'static str,
}

/// T1 scope: anything here feeds the virtual clock, the seeded draws,
/// the journal replay path, or a serialized artifact (the WAL, the JSONL
/// event log, the Prometheus exposition, the folded profile, the Chrome
/// trace export, the dataset CSVs).
pub const REPLAY_CRITICAL: &[&str] = &[
    "crates/net/src/",
    "crates/core/src/",
    "crates/dataset/src/",
    "crates/serve/src/",
];

/// T2 scope: supervision paths — a panic here takes down a campaign, a
/// serve run (or a recorder fan-out) instead of surfacing a typed error.
pub const SUPERVISION: &[&str] = &[
    "crates/core/src/",
    "crates/dataset/src/pipeline.rs",
    "crates/serve/src/engine.rs",
];

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

/// T1/T2 sinks: the replay-critical public entry points, each also a
/// supervised one. A wall-clock / entropy / env / hash-order source
/// transitively reachable from any of these voids the byte-identity
/// guarantee; a reachable panic tears down a campaign mid-journal
/// instead of surfacing a typed error. Each entry must name at least one
/// fn: [`crate::analyze`] fails on one that resolves to none, so a
/// renamed or deleted entry cannot quietly drop out of T1 and T2.
pub const ENTRY_POINTS: &[EntryPointDef] = &[
    EntryPointDef {
        file: "crates/core/src/campaign.rs",
        owner: Some("Campaign"),
        name: "run",
    },
    EntryPointDef {
        file: "crates/core/src/campaign.rs",
        owner: Some("Campaign"),
        name: "run_journaled",
    },
    EntryPointDef {
        file: "crates/core/src/campaign.rs",
        owner: Some("Campaign"),
        name: "run_sharded",
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

/// Helper: materialize a `&'static str` slice into the owned form
/// `Config` carries.
pub fn owned(scopes: &[&str]) -> Vec<String> {
    scopes.iter().map(|s| s.to_string()).collect()
}
