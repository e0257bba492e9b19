//! Machine-readable finding output for `--format sarif`.
//!
//! The emitter is hand-rolled (the workspace has no serde) and emits
//! byte-stable output: findings arrive already in canonical
//! `(file, line, col, rule)` order from [`crate::sort_canonical`], keys
//! are written in a fixed order, and nothing depends on map iteration.
//!
//! The document targets SARIF 2.1.0 with the minimal result shape CI
//! code-scanning ingestion needs: `ruleId`, a message, and one physical
//! location per finding; the hint travels as the second message line.

use crate::{Finding, RuleId};
use std::fmt::Write as _;

/// Every rule the driver declares, with its one-line description.
const RULES: &[(RuleId, &str)] = &[
    (
        RuleId::E1,
        "closed event schemas stay exhaustive across every surface",
    ),
    (RuleId::W1, "workspace members opt into [workspace.lints]"),
    (
        RuleId::T1,
        "no ambient input reachable from a replay entry point or in replay-critical scope",
    ),
    (
        RuleId::T2,
        "no panic site reachable from a supervision entry point or in supervision scope",
    ),
    (
        RuleId::T3,
        "worker paths share state only through per-shard slots",
    ),
];

/// JSON string escaping per RFC 8259.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A SARIF 2.1.0 document with one run.
pub fn sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"divide-lint\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (rule, desc)) in RULES.iter().enumerate() {
        let _ = write!(
            out,
            "            {{\"id\": \"{rule}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            escape(desc)
        );
        if i + 1 < RULES.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let text = if f.hint.is_empty() {
            f.message.clone()
        } else {
            format!("{}\n{}", f.message, f.hint)
        };
        let _ = write!(
            out,
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\
             \"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
            f.rule,
            escape(&text),
            escape(&f.file),
            f.line,
            f.col
        );
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![
            Finding {
                file: "crates/core/src/a.rs".into(),
                line: 3,
                col: 7,
                rule: RuleId::T1,
                message: "wall-clock read `Instant::now()` reachable from replay entry `run`"
                    .into(),
                hint: "call chain: run (a.rs:1) -> stamp (a.rs:3); use the virtual clock".into(),
            },
            Finding {
                file: "crates/core/src/b.rs".into(),
                line: 9,
                col: 1,
                rule: RuleId::T2,
                message: "`.unwrap()` in supervision scope".into(),
                hint: "say \"why\"\there".into(),
            },
        ]
    }

    #[test]
    fn sarif_has_schema_rules_and_locations() {
        let out = sarif(&sample());
        assert!(out.contains("sarif-2.1.0.json"));
        assert!(out.contains("\"ruleId\": \"T1\""));
        assert!(out.contains("\"startLine\": 3"));
        assert!(out.contains("say \\\"why\\\"\\there"));
        assert_eq!(out.matches("\"artifactLocation\":").count(), 2);
        // every declared rule is present in the driver metadata
        for (rule, _) in RULES {
            assert!(out.contains(&format!("\"id\": \"{rule}\"")));
        }
    }

    #[test]
    fn sarif_is_stable_across_calls() {
        let s = sample();
        assert_eq!(sarif(&s), sarif(&s));
    }
}
