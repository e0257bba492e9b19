//! **T1/T2/T3** — the taint rule family, built on the
//! [`crate::parse`] → [`crate::symbols`] → [`crate::callgraph`] stack.
//!
//! T1 and T2 seed taint at *source* tokens and report every source that
//! a manifest entry point can reach, however many calls deep, or that
//! sits in the rule's file scope (call distance 0):
//!
//! * **T1 determinism** — wall-clock / OS-entropy / `std::env` reads and
//!   hash-order iteration, reachable from a replay entry point
//!   ([`crate::scopes::ENTRY_POINTS`]) or in a replay-critical
//!   file ([`crate::scopes::REPLAY_CRITICAL`]);
//! * **T2 panic safety** — `unwrap`/`expect`/panicking macros reachable
//!   from the same entry points or in a supervision file
//!   ([`crate::scopes::SUPERVISION`]);
//! * **T3 lock discipline** — a lexical check on worker-path files
//!   ([`crate::scopes::WORKER_PATHS`]): cross-shard state must flow
//!   through per-shard slots (`slots[id].lock()`) merged on `(at, seq)`,
//!   never through un-sharded locks or non-`Relaxed` atomic orderings
//!   that would make output depend on OS scheduling.
//!
//! The two halves cover each other's blind spots. The entries catch a
//! wall-clock read in a leaf helper of a crate no scope names, the day
//! somebody wires it into `Campaign::run`; the scope catches code no
//! entry reaches yet, such as a serve worker loop, and the imports and
//! other items outside any fn. A source both cover names the nearest
//! entry and its witness call chain; one only the scope covers names
//! the scope.
//!
//! Findings land on the *source* token (the `Instant::now()`, the
//! `unwrap()`), where a `lint:allow` belongs; the witness chain lives in
//! the hint, so an edit to an intermediate caller leaves the message as
//! it was.

use crate::callgraph::CallGraph;
use crate::lexer::Token;
use crate::scan::{self, SourceFile};
use crate::scopes::EntryPointDef;
use crate::symbols::SymbolTable;
use crate::{Finding, RuleId};
use std::collections::BTreeSet;

/// Owned form of [`EntryPointDef`] carried by `Config`.
#[derive(Debug, Clone)]
pub struct EntrySpec {
    /// Workspace-relative file prefix the entry must live under.
    pub file: String,
    /// `None` matches any owner (or a free fn).
    pub owner: Option<String>,
    pub name: String,
}

impl EntrySpec {
    pub fn from_def(def: &EntryPointDef) -> Self {
        Self {
            file: def.file.to_string(),
            owner: def.owner.map(str::to_string),
            name: def.name.to_string(),
        }
    }

    pub fn from_defs(defs: &[EntryPointDef]) -> Vec<Self> {
        defs.iter().map(Self::from_def).collect()
    }
}

/// The call graph with the entry points resolved on it and their BFS
/// distance maps — computed once, shared by T1 and T2.
pub(crate) struct Reach<'a> {
    table: &'a SymbolTable,
    graph: &'a CallGraph,
    /// `(entry fn id, display name, distances)`, in manifest order.
    entries: Vec<(usize, String, Vec<Option<u32>>)>,
}

impl<'a> Reach<'a> {
    /// Resolves every spec on the table. A spec that names no fn is an
    /// error naming it: a stale entry would otherwise void T1 and T2
    /// coverage without a trace.
    pub(crate) fn new(
        table: &'a SymbolTable,
        graph: &'a CallGraph,
        specs: &[EntrySpec],
    ) -> Result<Self, String> {
        let mut seen = BTreeSet::new();
        let mut entries = Vec::new();
        let mut stale = Vec::new();
        for spec in specs {
            let ids = table.lookup_entry(&spec.file, spec.owner.as_deref(), &spec.name);
            if ids.is_empty() {
                let name = match &spec.owner {
                    Some(owner) => format!("{owner}::{}", spec.name),
                    None => spec.name.clone(),
                };
                stale.push(format!("{name} in {}", spec.file));
            }
            for id in ids {
                if seen.insert(id) {
                    entries.push((id, table.fns[id].display(), graph.distances(id)));
                }
            }
        }
        if !stale.is_empty() {
            return Err(format!(
                "entry points resolve to no fn: {}",
                stale.join(", ")
            ));
        }
        Ok(Self {
            table,
            graph,
            entries,
        })
    }

    /// The nearest entry reaching `target`: ties break toward manifest
    /// order, so the reported entry is stable under unrelated edits.
    fn nearest(&self, target: usize) -> Option<(usize, &str)> {
        let mut best: Option<(u32, usize, &str)> = None;
        for (id, display, dist) in &self.entries {
            let Some(d) = dist.get(target).copied().flatten() else {
                continue;
            };
            if best.is_none_or(|(bd, _, _)| d < bd) {
                best = Some((d, *id, display));
            }
        }
        best.map(|(_, id, display)| (id, display))
    }

    /// Renders `entry → .. → sink` as `Name (file:line) -> ..`.
    fn render_chain(&self, entry: usize, sink: usize) -> String {
        let ids = self
            .graph
            .witness(entry, sink)
            .unwrap_or_else(|| vec![sink]);
        let hops: Vec<String> = ids
            .iter()
            .map(|&id| {
                let f = &self.table.fns[id];
                format!("{} ({}:{})", f.display(), f.file, f.line)
            })
            .collect();
        format!("call chain: {}", hops.join(" -> "))
    }

    /// Maps a token index to the innermost enclosing non-test fn, if
    /// any. Nested fns shadow their parents so a source inside a helper
    /// is attributed to the helper, not to every fn whose span contains
    /// it.
    fn enclosing_fn(&self, file_idx: usize, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span width, id)
        for (id, f) in self.table.fns.iter().enumerate() {
            if f.file_idx != file_idx || f.is_test {
                continue;
            }
            let (start, end) = f.span;
            if tok < start || tok > end {
                continue;
            }
            let width = end - start;
            if best.is_none_or(|(bw, _)| width < bw) {
                best = Some((width, id));
            }
        }
        best.map(|(_, id)| id)
    }
}

/// A source site: `(token index, what it is, how to fix it)`. The
/// `what` is context-free ("wall-clock read `Instant::now()`"); the
/// rule suffixes the entry or the scope that catches it.
type Site = (usize, String, &'static str);

/// A source rule: the sites it seeds and how it names what catches one.
pub(crate) struct SourceRule {
    rule: RuleId,
    sites: fn(&[Token]) -> Vec<Site>,
    entry: &'static str,
    scope: &'static str,
}

/// **T1**: ambient inputs and hash-order iteration.
pub(crate) const T1: SourceRule = SourceRule {
    rule: RuleId::T1,
    sites: determinism_sites,
    entry: "replay entry",
    scope: "replay-critical scope",
};

/// **T2**: panic sites.
pub(crate) const T2: SourceRule = SourceRule {
    rule: RuleId::T2,
    sites: panic_sites,
    entry: "supervision entry",
    scope: "supervision scope",
};

/// Reports every `rule` source outside test code that an entry reaches
/// (naming the nearest entry and its chain) or that lies in `scopes`
/// (naming the scope).
pub(crate) fn check(
    rule: &SourceRule,
    reach: &Reach,
    files: &[SourceFile],
    scopes: &[String],
    findings: &mut Vec<Finding>,
) {
    for (file_idx, file) in files.iter().enumerate() {
        let in_scope = scan::in_scope(&file.rel, scopes);
        let tokens = file.tokens();
        for (i, what, fix) in (rule.sites)(tokens) {
            let tok = &tokens[i];
            if file.is_test_line(tok.line) {
                continue;
            }
            let fid = reach.enclosing_fn(file_idx, i);
            if fid.is_some_and(|id| reach.table.fns[id].is_harness) {
                continue;
            }
            let reached = fid.and_then(|id| reach.nearest(id).map(|entry| (id, entry)));
            let (message, hint) = match reached {
                Some((id, (entry, display))) => (
                    format!("{what} reachable from {} `{display}`", rule.entry),
                    format!("{}; {fix}", reach.render_chain(entry, id)),
                ),
                None if in_scope => (format!("{what} in {}", rule.scope), fix.to_string()),
                None => continue,
            };
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                rule: rule.rule,
                message,
                hint,
            });
        }
    }
}

const VIRTUAL_CLOCK: &str = "use the campaign's virtual clock (`SimTime`/`EventQueue`) instead";
const SEEDED_RNG: &str = "derive a seeded `StdRng` from the campaign seed (`mix64`)";

/// `(path segments, what, fix)` — a match on the qualified path.
const BANNED_PATHS: &[(&[&str], &str, &str)] = &[
    (
        &["Instant", "now"],
        "wall-clock read `Instant::now()`",
        VIRTUAL_CLOCK,
    ),
    (
        &["SystemTime", "now"],
        "wall-clock read `SystemTime::now()`",
        VIRTUAL_CLOCK,
    ),
    (
        &["std", "time", "Instant"],
        "import of `std::time::Instant`",
        VIRTUAL_CLOCK,
    ),
    (
        &["std", "time", "SystemTime"],
        "import of `std::time::SystemTime`",
        VIRTUAL_CLOCK,
    ),
    (
        &["std", "env"],
        "process-environment read via `std::env`",
        "thread configuration through `BqtConfig`/`CurationOptions` instead",
    ),
];

/// Bare identifiers that always mean OS entropy.
const BANNED_IDENTS: &[(&str, &str, &str)] = &[
    ("thread_rng", "OS-entropy RNG `thread_rng`", SEEDED_RNG),
    (
        "from_entropy",
        "OS-entropy seeding `from_entropy`",
        SEEDED_RNG,
    ),
];

/// T1 sources: ambient inputs — the wall clock, OS entropy and the
/// process environment — then hash-order iteration. A journaled resume
/// replays on the *virtual* clock with draws derived from
/// `(seed, tag, attempt)`, so any of them desynchronizes the resumed
/// run from the original (DESIGN.md §7).
fn determinism_sites(tokens: &[Token]) -> Vec<Site> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        for (segs, what, fix) in BANNED_PATHS {
            if scan::path_at(tokens, i, segs).is_some() {
                out.push((i, what.to_string(), *fix));
            }
        }
        for (name, what, fix) in BANNED_IDENTS {
            if scan::is_ident(&tokens[i], name) {
                out.push((i, what.to_string(), *fix));
            }
        }
    }
    out.extend(iteration_sites(tokens));
    out
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that reveal iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Hash-order iteration over identifiers declared with a hash-map type
/// in the same file. Hash order is arbitrary and, with a randomized
/// hasher, varies between runs of the same binary; keyed lookups
/// (`get`, `entry`, `remove`, `insert`) are fine. An unordered map that
/// crosses into another file should be converted at its declaration.
fn iteration_sites(tokens: &[Token]) -> Vec<Site> {
    const FIX: &str = "declare it as BTreeMap/BTreeSet, or collect and sort explicitly";
    let tracked = tracked_hash_idents(tokens);
    let mut out = Vec::new();
    if tracked.is_empty() {
        return out;
    }
    let site = |i: usize, name: &str, how: &str| {
        (
            i,
            format!("hash-order iteration (`{how}`) over `{name}`"),
            FIX,
        )
    };
    for i in 0..tokens.len() {
        let Some(method) = scan::ident_name(&tokens[i]) else {
            continue;
        };
        // `name.iter()` / `self.name.keys()` — the receiver ident sits
        // two tokens before the method name.
        if ITER_METHODS.contains(&method)
            && i >= 2
            && scan::is_punct(&tokens[i - 1], '.')
            && tokens.get(i + 1).is_some_and(|t| scan::is_punct(t, '('))
        {
            if let Some(name) = scan::ident_name(&tokens[i - 2]).filter(|n| tracked.contains(*n)) {
                out.push(site(i, name, method));
            }
        }
        // `for x in &name { ... }` — implicit IntoIterator.
        if method == "in" {
            if let Some((name, k)) = for_in_target(tokens, i, &tracked) {
                out.push(site(k, name, "for-in"));
            }
        }
    }
    out
}

/// After `in`, skip `&`, `mut`, `self`, `.`; if the next ident is tracked
/// and the loop body opens right after it, that's hash-order iteration.
/// Returns `(name, token index of the name)`.
fn for_in_target<'a>(
    tokens: &'a [Token],
    in_idx: usize,
    tracked: &BTreeSet<String>,
) -> Option<(&'a str, usize)> {
    let mut k = in_idx + 1;
    while k < tokens.len() {
        let t = &tokens[k];
        if scan::is_punct(t, '&')
            || scan::is_punct(t, '.')
            || scan::is_ident(t, "mut")
            || scan::is_ident(t, "self")
        {
            k += 1;
            continue;
        }
        break;
    }
    let name = scan::ident_name(tokens.get(k)?)?;
    if !tracked.contains(name) {
        return None;
    }
    // Only a direct `{` means the map itself is the iterator; a method
    // call on it is judged by the method rule instead.
    if scan::is_punct(tokens.get(k + 1)?, '{') {
        Some((name, k))
    } else {
        None
    }
}

/// Identifiers declared with a hash-map type anywhere in the file:
/// `name: HashMap<..>` (fields, params, let annotations) and
/// `name = HashMap::new()` style initializers.
fn tracked_hash_idents(tokens: &[Token]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for i in 0..tokens.len() {
        let Some(ty) = scan::ident_name(&tokens[i]) else {
            continue;
        };
        if !HASH_TYPES.contains(&ty) {
            continue;
        }
        // Walk left over a qualifying path (`std :: collections ::`).
        let mut j = i;
        while j >= 3
            && scan::is_punct(&tokens[j - 1], ':')
            && scan::is_punct(&tokens[j - 2], ':')
            && scan::ident_name(&tokens[j - 3]).is_some()
        {
            j -= 3;
        }
        if j < 2 {
            continue;
        }
        let Some(name) = scan::ident_name(&tokens[j - 2]) else {
            continue;
        };
        // `name : HashMap` — annotation (let / field / param); or
        // `name = HashMap::...` — inferred-type initializer.
        if scan::is_punct(&tokens[j - 1], ':') || scan::is_punct(&tokens[j - 1], '=') {
            tracked.insert(name.to_string());
        }
    }
    tracked
}

/// Macros that abort the thread outright. `assert!` family is exempt:
/// those are deliberate invariant checks whose failure means the code
/// is wrong, not that an input was — flagging them would train people
/// to delete their invariants.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// T2 sources: a panic here tears down a campaign mid-journal, or rips
/// through the recorder fan-out the poisoning machinery protects.
/// Indexing is not a source: checked-by-construction indexing dominates.
fn panic_sites(tokens: &[Token]) -> Vec<Site> {
    const FIX: &str = "return a typed error or restructure with let-else/map_or";
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let Some(name) = scan::ident_name(&tokens[i]) else {
            continue;
        };
        let prev_dot = i >= 1 && scan::is_punct(&tokens[i - 1], '.');
        let next = |n: usize| tokens.get(i + n);
        // `.unwrap()` exactly — `unwrap_or*` are total.
        if prev_dot
            && name == "unwrap"
            && next(1).is_some_and(|t| scan::is_punct(t, '('))
            && next(2).is_some_and(|t| scan::is_punct(t, ')'))
        {
            out.push((i, "`.unwrap()`".to_string(), FIX));
        }
        if prev_dot && name == "expect" && next(1).is_some_and(|t| scan::is_punct(t, '(')) {
            out.push((i, "`.expect()`".to_string(), FIX));
        }
        // `panic!(..)` and friends.
        let is_macro = next(1).is_some_and(|t| scan::is_punct(t, '!'));
        if is_macro && PANIC_MACROS.contains(&name) {
            out.push((i, format!("panicking macro `{name}!`"), FIX));
        }
    }
    out
}

/// Tracked lock identifiers: `name: ..Mutex<..>` / `name = Mutex::new(..)`
/// declarations, including through wrappers (`Arc<Mutex<..>>`). The
/// leftward walk stops at `:` or `=` and takes the ident before it.
fn tracked_locks(tokens: &[Token]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for i in 0..tokens.len() {
        let Some(ty) = scan::ident_name(&tokens[i]) else {
            continue;
        };
        if ty != "Mutex" && ty != "RwLock" {
            continue;
        }
        // Walk left over wrapper-type syntax to the declaring `:`/`=`.
        let mut j = i;
        let mut steps = 0;
        while j >= 1 && steps < 16 {
            let t = &tokens[j - 1];
            let wrapper = scan::ident_name(t).is_some_and(|n| {
                n.chars().next().is_some_and(char::is_uppercase) || n == "std" || n == "sync"
            });
            if wrapper
                || scan::is_punct(t, '<')
                || scan::is_punct(t, ':') && j >= 2 && scan::is_punct(&tokens[j - 2], ':')
            {
                j -= 1;
                steps += 1;
                continue;
            }
            break;
        }
        if j == 0 {
            continue;
        }
        let before = &tokens[j - 1];
        let declares = (scan::is_punct(before, ':')
            && !(j >= 2 && scan::is_punct(&tokens[j - 2], ':')))
            || scan::is_punct(before, '=');
        if declares && j >= 2 {
            if let Some(name) = scan::ident_name(&tokens[j - 2]) {
                // `type Alias = Mutex<..>` declares a type, not a value.
                if !(j >= 3 && scan::is_ident(&tokens[j - 3], "type")) {
                    tracked.insert(name.to_string());
                }
            }
        }
    }
    tracked
}

/// Atomic orderings that impose cross-shard synchronization order. The
/// sanctioned worker idiom needs none: shard claims use a `Relaxed`
/// counter (any interleaving yields the same partition) and results
/// merge on `(at, seq)` after `join`.
const SYNC_ORDERINGS: &[&str] = &["SeqCst", "Acquire", "Release", "AcqRel"];

/// Methods that take a lock.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// **T3**: lock/ordering discipline in worker-path files. Flags
/// un-sharded lock acquisition (`shared.lock()` where `shared` is a
/// tracked `Mutex`/`RwLock` — per-shard `slots[id].lock()` passes, the
/// receiver there is an index expression) and non-`Relaxed` atomic
/// orderings.
pub fn check_t3(file: &SourceFile, findings: &mut Vec<Finding>) {
    let tokens = file.tokens();
    let tracked = tracked_locks(tokens);
    for i in 0..tokens.len() {
        let tok = &tokens[i];
        if file.is_test_line(tok.line) {
            continue;
        }
        let Some(name) = scan::ident_name(tok) else {
            continue;
        };
        // `shared.lock()` — receiver is a bare tracked ident (an indexed
        // receiver puts `]` before the dot and never matches).
        if LOCK_METHODS.contains(&name)
            && i >= 2
            && scan::is_punct(&tokens[i - 1], '.')
            && tokens.get(i + 1).is_some_and(|t| scan::is_punct(t, '('))
        {
            if let Some(recv) = scan::ident_name(&tokens[i - 2]) {
                if tracked.contains(recv) {
                    findings.push(Finding {
                        file: file.rel.clone(),
                        line: tok.line,
                        col: tok.col,
                        rule: RuleId::T3,
                        message: format!(
                            "un-sharded lock acquisition `{recv}.{name}()` in a worker path"
                        ),
                        hint: "give each shard its own slot (`slots[shard_id].lock()`) and \
                               merge results on `(at, seq)` after join"
                            .into(),
                    });
                }
            }
        }
        // `Ordering::SeqCst` etc. — scheduling-dependent synchronization.
        if SYNC_ORDERINGS.contains(&name)
            && i >= 2
            && scan::is_punct(&tokens[i - 1], ':')
            && scan::is_punct(&tokens[i - 2], ':')
            && i >= 3
            && scan::is_ident(&tokens[i - 3], "Ordering")
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: tok.line,
                col: tok.col,
                rule: RuleId::T3,
                message: format!(
                    "synchronizing atomic ordering `Ordering::{name}` in a worker path"
                ),
                hint: "worker claims must be order-free: use `Ordering::Relaxed` counters and \
                       merge on `(at, seq)` instead of synchronizing on atomics"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> SourceFile {
        SourceFile::new("t.rs".to_string(), src.as_bytes())
    }

    #[test]
    fn panic_sites_find_unwrap_expect_and_macros() {
        let f = lex("fn f(x: Option<u8>) { x.unwrap(); x.expect(\"m\"); panic!(\"n\"); }");
        let sites = panic_sites(f.tokens());
        let kinds: Vec<&str> = sites.iter().map(|(_, w, _)| w.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["`.unwrap()`", "`.expect()`", "panicking macro `panic!`"]
        );
    }

    #[test]
    fn unwrap_or_named_macros_and_asserts_do_not_match() {
        let f = lex(
            "fn f(x: Option<u8>) { x.unwrap_or(0); x.unwrap_or_default(); println!(\"k\"); \
             assert!(true); assert_eq!(1, 1); }",
        );
        assert!(panic_sites(f.tokens()).is_empty());
    }

    #[test]
    fn tracked_locks_see_through_wrappers_but_not_type_aliases() {
        let f = lex("type Slot = Mutex<u8>;\n\
             struct S { shared: Arc<Mutex<Vec<u8>>>, plain: RwLock<u8> }\n\
             fn f() { let local = Mutex::new(0u8); }");
        let tracked = tracked_locks(f.tokens());
        assert!(tracked.contains("shared"));
        assert!(tracked.contains("plain"));
        assert!(tracked.contains("local"));
        assert!(!tracked.contains("Slot"));
    }

    #[test]
    fn t3_passes_the_sanctioned_shard_idiom() {
        let f = lex("fn run() {\n\
             let slots: Vec<Mutex<Option<u8>>> = Vec::new();\n\
             let got = slots[3].lock();\n\
             let claimed = next.fetch_add(1, Ordering::Relaxed);\n\
             }");
        let mut findings = Vec::new();
        check_t3(&f, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn t3_flags_unsharded_locks_and_sync_orderings() {
        let f = lex("fn run() {\n\
             let shared: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n\
             shared.lock().ok();\n\
             flag.store(true, Ordering::SeqCst);\n\
             }");
        let mut findings = Vec::new();
        check_t3(&f, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("shared.lock()"));
        assert!(findings[1].message.contains("SeqCst"));
    }
}
