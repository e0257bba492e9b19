//! `divide-lint` — the workspace's static analyzer.
//!
//! The pipeline's headline property — byte-identical crash+resume
//! reports, event logs and health artifacts (DESIGN.md §7–§9) — rests on
//! invariants that used to be enforced only by convention. One stray
//! `Instant::now()` in the orchestrator, one `HashMap` iteration feeding
//! `events.jsonl`, or one `unwrap()` inside the recorder fan-out silently
//! breaks every resume guarantee. This crate checks those invariants
//! mechanically on every CI run:
//!
//! * **E1 schema exhaustiveness** — each hand-written consumer of a
//!   closed schema enum (`EventKind`'s `MetricsAggregator`, `SpanKind`'s
//!   attribution, the serve store's `ServeQuery` dispatch) must cover
//!   every variant, with no wildcard arms;
//! * **W1 lint posture** — every workspace member opts into the shared
//!   `[workspace.lints]` table.
//!
//! Next to them sits an *interprocedural* layer ([`parse`] → [`symbols`]
//! → [`callgraph`] → [`taint`]): a brace-tree item parser extracts every
//! `fn`, `impl` and call expression, a workspace-wide symbol table and
//! over-approximate call graph link them, and three rules ride on top:
//!
//! * **T1 determinism** — no wall-clock / entropy / env read or
//!   hash-order iteration that a replay entry point can *reach*, however
//!   many calls deep, or that sits in a replay-critical file (`net`,
//!   `core`, `dataset`, `serve`); reached findings carry the witness
//!   call chain;
//! * **T2 panic safety** — no `unwrap`/`expect`/panicking macro that an
//!   entry point can reach or that sits in supervision code (all of
//!   `core`, `dataset::pipeline`, serve's engine);
//! * **T3 lock discipline** — worker paths share state only through
//!   per-shard slots merged on `(at, seq)`, never un-sharded locks or
//!   synchronizing atomic orderings.
//!
//! Findings carry `file:line:col`, a rule id and a fix hint. A
//! deliberate exception has exactly one way through: an inline
//! `// lint:allow(rule): reason` on or above the flagged line. Any other
//! finding fails CI.
//!
//! The analyzer is deliberately lexical: a lightweight panic-free lexer
//! ([`lexer`]) and token-sequence rules, no `syn`, keeping the
//! workspace's offline vendor policy.

pub mod callgraph;
pub mod emit;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scan;
pub mod scopes;
pub mod symbols;
pub mod taint;

pub use scan::SourceFile;
pub use taint::EntrySpec;

use std::fmt;
use std::path::{Path, PathBuf};

/// Identifies one rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Telemetry exhaustiveness: event schema surfaces cover every variant.
    E1,
    /// Workspace lint posture: members opt into `[workspace.lints]`.
    W1,
    /// Determinism: no ambient input or hash-order iteration reachable
    /// from a replay entry or in replay-critical scope.
    T1,
    /// Panic safety: no panic site reachable from a supervision entry or
    /// in supervision scope.
    T2,
    /// Lock discipline: worker paths use per-shard slots, not shared locks.
    T3,
}

impl RuleId {
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::E1 => "E1",
            RuleId::W1 => "W1",
            RuleId::T1 => "T1",
            RuleId::T2 => "T2",
            RuleId::T3 => "T3",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic: where, which rule, what, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    pub rule: RuleId,
    /// What is wrong (stable across unrelated edits).
    pub message: String,
    /// How to fix it (informational).
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}:{} {}",
            self.rule, self.file, self.line, self.col, self.message
        )
    }
}

/// Scope configuration: which paths each rule family applies to.
///
/// Paths are workspace-relative prefixes with forward slashes; a file is
/// in scope when its relative path starts with any listed prefix. The
/// workspace policy lives in [`Config::workspace`]; tests build custom
/// configs aimed at fixture trees.
#[derive(Debug, Clone)]
pub struct Config {
    pub root: PathBuf,
    /// T1's file scope: replay-critical code, checked at call distance 0.
    pub replay_scopes: Vec<String>,
    /// T2's file scope: supervision code, checked at call distance 0.
    pub supervision_scopes: Vec<String>,
    /// E1: the closed event/query schemas to keep exhaustive — one
    /// entry per enum surface (empty disables the rule).
    pub e1: Vec<E1Config>,
    /// W1: member manifest globs that must opt into workspace lints
    /// (None disables the rule).
    pub w1_member_dirs: Option<Vec<String>>,
    /// T1/T2: the entry points whose transitive callees both rules
    /// check. Any entry here switches source collection to the whole
    /// tree — the call graph must span every crate to be sound.
    pub entries: Vec<EntrySpec>,
    /// T3: worker-path files held to the shard-slot discipline.
    pub t3_scopes: Vec<String>,
    /// Harness scopes (bench, the linter itself): their fns get no
    /// incoming call-graph edges.
    pub harness_scopes: Vec<String>,
}

/// A closed enum and the hand-written code that must cover every variant.
#[derive(Debug, Clone)]
pub struct E1Config {
    /// File declaring the enum, and its type name (`EventKind`).
    pub enum_file: &'static str,
    pub enum_name: &'static str,
    /// Hand-written `(file, fn, label)` surfaces: each must name every
    /// variant as `Enum::Variant`, with no wildcard arm. The label names
    /// the fn in diagnostics.
    pub surfaces: Vec<(&'static str, &'static str, &'static str)>,
}

impl Config {
    /// The committed policy for this workspace (see DESIGN.md §10). The
    /// scope lists live in one place — the [`scopes`] manifest — so
    /// registering a module means one edit, not five parallel vectors.
    pub fn workspace(root: PathBuf) -> Self {
        Self {
            root,
            replay_scopes: scopes::owned(scopes::REPLAY_CRITICAL),
            supervision_scopes: scopes::owned(scopes::SUPERVISION),
            // Only hand-written code is listed: `event_schema!`,
            // `wire_enum!` and `wire_schema!` generate the enums' names,
            // filters and codecs.
            e1: vec![
                E1Config {
                    enum_file: "crates/core/src/telemetry/mod.rs",
                    enum_name: "EventKind",
                    surfaces: vec![(
                        "crates/core/src/telemetry/aggregate.rs",
                        "observe",
                        "metrics aggregator",
                    )],
                },
                // The serving wire schema: the store answers each query
                // kind by hand.
                E1Config {
                    enum_file: "crates/serve/src/api.rs",
                    enum_name: "ServeQuery",
                    surfaces: vec![("crates/serve/src/store.rs", "answer", "answer dispatch")],
                },
                // The span-tree schema: the class each kind rolls up into
                // and how the attribution fold charges it.
                E1Config {
                    enum_file: "crates/core/src/trace/mod.rs",
                    enum_name: "SpanKind",
                    surfaces: vec![
                        (
                            "crates/core/src/trace/mod.rs",
                            "bucket",
                            "attribution class",
                        ),
                        (
                            "crates/core/src/trace/attribution.rs",
                            "charge",
                            "attribution fold",
                        ),
                    ],
                },
            ],
            w1_member_dirs: Some(vec!["crates".into(), "vendor".into()]),
            entries: EntrySpec::from_defs(scopes::ENTRY_POINTS),
            t3_scopes: scopes::owned(scopes::WORKER_PATHS),
            harness_scopes: scopes::owned(scopes::HARNESS),
        }
    }

    /// A config with every scope empty — fixture tests enable exactly the
    /// rules they exercise.
    pub fn bare(root: PathBuf) -> Self {
        Self {
            root,
            replay_scopes: Vec::new(),
            supervision_scopes: Vec::new(),
            e1: Vec::new(),
            w1_member_dirs: None,
            entries: Vec::new(),
            t3_scopes: Vec::new(),
            harness_scopes: Vec::new(),
        }
    }

    /// Whether T1 or T2 is on — both need the item parse.
    fn needs_graph(&self) -> bool {
        !self.entries.is_empty()
            || !self.replay_scopes.is_empty()
            || !self.supervision_scopes.is_empty()
    }

    fn rust_scopes(&self) -> Vec<String> {
        if !self.entries.is_empty() {
            // The empty prefix matches every path: the call graph is only
            // sound if it spans all crates.
            return vec![String::new()];
        }
        let mut scopes: Vec<String> = self
            .replay_scopes
            .iter()
            .chain(&self.supervision_scopes)
            .chain(&self.t3_scopes)
            .cloned()
            .collect();
        for e1 in &self.e1 {
            scopes.push(e1.enum_file.to_string());
            scopes.extend(e1.surfaces.iter().map(|s| s.0.to_string()));
        }
        scopes.sort();
        scopes.dedup();
        scopes
    }
}

/// Runs every configured rule and returns suppression-filtered findings,
/// sorted by `(file, line, col, rule)`. Fails on an unreadable tree or
/// manifest, and on an entry point that resolves to no fn.
pub fn analyze(config: &Config) -> Result<Vec<Finding>, String> {
    let files = collect_sources(config)?;
    let mut findings = Vec::new();
    for file in &files {
        if scan::in_scope(&file.rel, &config.t3_scopes) {
            taint::check_t3(file, &mut findings);
        }
    }
    for e1 in &config.e1 {
        rules::exhaustive::check(e1, &files, &mut findings);
    }
    if let Some(dirs) = &config.w1_member_dirs {
        rules::posture::check(&config.root, dirs, &mut findings)?;
    }
    if config.needs_graph() {
        let parsed: Vec<parse::ParsedFile> = files.iter().map(parse::parse_file).collect();
        let table = symbols::SymbolTable::build(&files, &parsed, &config.harness_scopes);
        let graph = callgraph::CallGraph::build(&table, &files);
        let reach = taint::Reach::new(&table, &graph, &config.entries)?;
        let scoped = [
            (&taint::T1, &config.replay_scopes),
            (&taint::T2, &config.supervision_scopes),
        ];
        for (rule, scopes) in scoped {
            taint::check(rule, &reach, &files, scopes, &mut findings);
        }
    }
    findings.retain(|f| !is_suppressed(f, &files));
    sort_canonical(&mut findings);
    findings.dedup();
    Ok(findings)
}

/// The one finding order every consumer sees: `(file, line, col, rule)`,
/// with message and hint as final tie-breaks. [`analyze`] applies it
/// before returning, so text and SARIF output are byte-stable run over
/// run.
pub fn sort_canonical(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message, &a.hint)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message, &b.hint))
    });
}

fn is_suppressed(finding: &Finding, files: &[SourceFile]) -> bool {
    // W1 findings sit on manifests, which carry no suppressions.
    let Some(file) = files.iter().find(|f| f.rel == finding.file) else {
        return false;
    };
    file.lexed.suppressions.iter().any(|s| {
        (s.line == finding.line || s.line + 1 == finding.line)
            && s.rules.iter().any(|r| r == finding.rule.as_str())
    })
}

/// Loads and lexes every `.rs` file any rule's scope names, in sorted
/// path order (the analyzer's own output must be deterministic).
fn collect_sources(config: &Config) -> Result<Vec<SourceFile>, String> {
    let mut rel_paths = Vec::new();
    walk_rs(&config.root, Path::new(""), &mut rel_paths)?;
    rel_paths.sort();
    let scopes = config.rust_scopes();
    let mut files = Vec::new();
    for rel in rel_paths {
        if !scan::in_scope(&rel, &scopes) {
            continue;
        }
        let abs = config.root.join(&rel);
        let bytes =
            std::fs::read(&abs).map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        files.push(SourceFile::new(rel, &bytes));
    }
    Ok(files)
}

fn walk_rs(root: &Path, rel: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let dir = root.join(rel);
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut names: Vec<(bool, String)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry.path().is_dir();
        names.push((is_dir, name));
    }
    names.sort();
    for (is_dir, name) in names {
        // Build output, VCS metadata, and the vendored shims are never in
        // any rule's scope; skipping them keeps the walk fast.
        if is_dir && matches!(name.as_str(), "target" | ".git" | "vendor" | ".claude") {
            continue;
        }
        let child = if rel.as_os_str().is_empty() {
            PathBuf::from(&name)
        } else {
            rel.join(&name)
        };
        if is_dir {
            walk_rs(root, &child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` — the analysis root.
pub fn discover_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
