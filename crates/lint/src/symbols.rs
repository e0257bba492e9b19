//! The workspace-wide symbol table: every `fn` item from every parsed
//! file, flattened into a deterministic id space with name indexes the
//! call-graph resolver queries.
//!
//! Ids are assigned in `(file, definition order)` — the file list is
//! already path-sorted by `collect_sources` — so every
//! downstream artifact (edges, BFS witnesses, findings) is independent
//! of filesystem iteration order.

use crate::parse::{CallSite, FnDef, ParsedFile};
use crate::scan::{self, SourceFile};
use std::collections::BTreeMap;

/// One function in the workspace.
#[derive(Debug)]
pub struct FnInfo {
    /// Workspace-relative file path.
    pub file: String,
    /// Index into the aligned `SourceFile`/`ParsedFile` slices.
    pub file_idx: usize,
    pub name: String,
    pub owner: Option<String>,
    pub line: u32,
    pub col: u32,
    /// Token-index span of the whole item (signature + body).
    pub span: (usize, usize),
    pub body_open: Option<usize>,
    pub calls: Vec<CallSite>,
    pub is_test: bool,
    /// Harness code (bench/lint drivers): may call into the system but
    /// never receives call-graph edges — see `scopes::HARNESS`.
    pub is_harness: bool,
}

impl FnInfo {
    /// `Owner::name` or bare `name` — used in witness chains.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The flattened table plus its name indexes.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnInfo>,
    /// Free functions (no owner) by name.
    free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods (any owner) by name.
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// `(owner, name)` exact pairs.
    by_owner_name: BTreeMap<(String, String), Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table from aligned file/parse slices. `harness` lists
    /// path prefixes whose fns get no incoming edges.
    pub fn build(files: &[SourceFile], parsed: &[ParsedFile], harness: &[String]) -> Self {
        let mut table = SymbolTable::default();
        for (file_idx, (file, pf)) in files.iter().zip(parsed).enumerate() {
            let is_harness = scan::in_scope(&file.rel, harness);
            for def in &pf.fns {
                let FnDef {
                    name,
                    owner,
                    line,
                    col,
                    span,
                    body_open,
                    calls,
                    is_test,
                } = def.clone();
                let id = table.fns.len();
                if !is_test {
                    if let Some(owner) = &owner {
                        table
                            .by_owner_name
                            .entry((owner.clone(), name.clone()))
                            .or_default()
                            .push(id);
                        table
                            .methods_by_name
                            .entry(name.clone())
                            .or_default()
                            .push(id);
                    } else {
                        table.free_by_name.entry(name.clone()).or_default().push(id);
                    }
                }
                table.fns.push(FnInfo {
                    file: file.rel.clone(),
                    file_idx,
                    name,
                    owner,
                    line,
                    col,
                    span,
                    body_open,
                    calls,
                    is_test,
                    is_harness,
                });
            }
        }
        table
    }

    pub fn free(&self, name: &str) -> &[usize] {
        self.free_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn methods(&self, name: &str) -> &[usize] {
        self.methods_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn owned(&self, owner: &str, name: &str) -> &[usize] {
        self.by_owner_name
            .get(&(owner.to_string(), name.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Non-test fns matching `(file prefix, optional owner, name)` — how
    /// the scopes manifest names entry points.
    pub fn lookup_entry(&self, file_prefix: &str, owner: Option<&str>, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && f.name == name
                    && f.file.starts_with(file_prefix)
                    && owner.is_none_or(|o| f.owner.as_deref() == Some(o))
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn build(sources: &[(&str, &str)]) -> (Vec<SourceFile>, SymbolTable) {
        let files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, src)| SourceFile::new(rel.to_string(), src.as_bytes()))
            .collect();
        let parsed: Vec<ParsedFile> = files.iter().map(parse_file).collect();
        let table = SymbolTable::build(&files, &parsed, &["harness/".to_string()]);
        (files, table)
    }

    #[test]
    fn indexes_split_free_fns_from_methods() {
        let (_, table) = build(&[
            (
                "a.rs",
                "pub fn helper() {}\nimpl W { pub fn helper(&self) {} }",
            ),
            ("b.rs", "impl V { pub fn helper(&self) {} }"),
        ]);
        assert_eq!(table.free("helper").len(), 1);
        assert_eq!(table.methods("helper").len(), 2);
        assert_eq!(table.owned("W", "helper").len(), 1);
        assert_eq!(table.owned("V", "helper").len(), 1);
    }

    #[test]
    fn test_fns_are_invisible_to_the_indexes() {
        let (_, table) = build(&[(
            "a.rs",
            "#[cfg(test)]\nmod tests { pub fn helper() {} }\npub fn live() {}",
        )]);
        assert!(table.free("helper").is_empty());
        assert_eq!(table.free("live").len(), 1);
    }

    #[test]
    fn harness_files_are_marked() {
        let (_, table) = build(&[
            ("harness/perf.rs", "pub fn measure() {}"),
            ("core/run.rs", "pub fn run() {}"),
        ]);
        let measure = &table.fns[table.free("measure")[0]];
        assert!(measure.is_harness);
        let run = &table.fns[table.free("run")[0]];
        assert!(!run.is_harness);
    }

    #[test]
    fn entry_lookup_matches_prefix_owner_and_name() {
        let (_, table) = build(&[(
            "core/campaign.rs",
            "impl Campaign { pub fn run(&self) {} }\nimpl Other { pub fn run(&self) {} }",
        )]);
        assert_eq!(
            table.lookup_entry("core/", Some("Campaign"), "run").len(),
            1
        );
        assert_eq!(table.lookup_entry("core/", None, "run").len(), 2);
        assert!(table.lookup_entry("serve/", None, "run").is_empty());
    }
}
