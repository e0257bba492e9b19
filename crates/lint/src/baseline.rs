//! The committed findings baseline: grandfathered debt.
//!
//! Format — one entry per line, sorted, `#` comments allowed:
//!
//! ```text
//! T2 crates/dataset/src/pipeline.rs:134:10 `.expect()` in supervision scope
//! ```
//!
//! An entry matches a finding when rule, file, line, column *and message*
//! all agree, so any edit that moves or changes the grandfathered code
//! invalidates the entry. Both directions fail CI:
//!
//! * a finding with no entry is a **regression**;
//! * an entry with no finding is **stale** — the debt was paid (or the
//!   code moved) and the baseline must be regenerated, so the file can
//!   never accumulate dead weight.

use crate::{Finding, Outcome, RuleId};

/// One baseline line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Entry {
    fn matches(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && self.file == f.file
            && self.line == f.line
            && self.col == f.col
            && self.message == f.message
    }

    pub fn render(&self) -> String {
        format!(
            "{} {}:{}:{} {}",
            self.rule.as_str(),
            self.file,
            self.line,
            self.col,
            self.message
        )
    }
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    pub entries: Vec<Entry>,
}

impl Baseline {
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses the committed format; malformed lines are hard errors (a
    /// baseline that silently drops entries hides regressions).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let entry = parse_entry(line)
                .ok_or_else(|| format!("baseline line {}: malformed entry {line:?}", n + 1))?;
            entries.push(entry);
        }
        Ok(Self { entries })
    }

    /// Renders findings as a fresh baseline file.
    pub fn render(findings: &[Finding]) -> String {
        let mut out = String::from(
            "# divide-lint baseline — grandfathered findings.\n\
             # Regenerate with `divide-lint --write-baseline`; CI fails on any finding\n\
             # not listed here AND on any entry that no longer matches a finding.\n",
        );
        for f in findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out
    }

    /// Splits findings into new vs baselined, and reports stale entries.
    pub fn judge(&self, findings: Vec<Finding>) -> Outcome {
        let mut used = vec![false; self.entries.len()];
        let mut new = Vec::new();
        let mut baselined = Vec::new();
        for f in findings {
            match self.entries.iter().position(|e| e.matches(&f)) {
                Some(i) => {
                    used[i] = true;
                    baselined.push(f);
                }
                None => new.push(f),
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(e, _)| e.clone())
            .collect();
        Outcome {
            new,
            baselined,
            stale,
        }
    }
}

fn parse_entry(line: &str) -> Option<Entry> {
    let (rule, rest) = line.split_once(' ')?;
    let rule = RuleId::parse(rule)?;
    let (loc, message) = rest.split_once(' ')?;
    // file:line:col — the file part may itself contain no colons by
    // construction (workspace-relative, forward slashes).
    let mut parts = loc.rsplitn(3, ':');
    let col: u32 = parts.next()?.parse().ok()?;
    let line_no: u32 = parts.next()?.parse().ok()?;
    let file = parts.next()?.to_string();
    if file.is_empty() || message.is_empty() {
        return None;
    }
    Some(Entry {
        rule,
        file,
        line: line_no,
        col,
        message: message.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: RuleId, file: &str, line: u32, msg: &str) -> Finding {
        Finding {
            file: file.into(),
            line,
            col: 5,
            rule,
            message: msg.into(),
            hint: String::new(),
        }
    }

    #[test]
    fn baseline_round_trips_through_render_and_parse() {
        let f = finding(RuleId::T2, "crates/x/src/a.rs", 10, "`.unwrap()` somewhere");
        let text = Baseline::render(std::slice::from_ref(&f));
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.entries.len(), 1);
        assert!(parsed.entries[0].matches(&f));
    }

    #[test]
    fn judge_splits_new_baselined_and_stale() {
        let old = finding(RuleId::T2, "a.rs", 1, "old debt");
        let gone = finding(RuleId::T1, "b.rs", 2, "paid off");
        let text = Baseline::render(&[old.clone(), gone]);
        let base = Baseline::parse(&text).unwrap();

        let fresh = finding(RuleId::T3, "c.rs", 3, "regression");
        let outcome = base.judge(vec![old.clone(), fresh.clone()]);
        assert_eq!(outcome.baselined, vec![old]);
        assert_eq!(outcome.new, vec![fresh]);
        assert_eq!(outcome.stale.len(), 1);
        assert_eq!(outcome.stale[0].file, "b.rs");
        assert!(!outcome.is_clean());
    }

    #[test]
    fn malformed_lines_are_hard_errors() {
        for bad in ["Z9 a.rs:1:1 nope", "T2 missing-loc", "T2 a.rs:x:1 msg"] {
            assert!(Baseline::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
