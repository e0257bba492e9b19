//! **E1** — schema exhaustiveness: every variant of a closed enum must be
//! covered by each hand-written `match` that consumes it (for
//! `EventKind`, the `MetricsAggregator`; for `SpanKind`, the attribution
//! class and the attribution fold; for `ServeQuery`, the store's answer
//! dispatch), and none of those surfaces may hide behind a wildcard arm.
//!
//! Code that `event_schema!`, `wire_enum!` and serve's `wire_schema!`
//! generate from the variant list covers every variant by construction
//! and is not checked. What is checked is what a new variant could
//! silently skip: adding one without teaching the consumers fails CI
//! with a `file:line` diagnostic instead of silently dropping it from a
//! dashboard, an attribution table or the store's answers.

use crate::scan::{self, SourceFile};
use crate::{E1Config, Finding, RuleId};
use std::collections::BTreeSet;

pub fn check(cfg: &E1Config, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let file = |rel: &str| files.iter().find(|f| f.rel == rel);
    let Some(enum_file) = file(cfg.enum_file) else {
        findings.push(config_error(
            cfg,
            format!("enum file {} not found", cfg.enum_file),
        ));
        return;
    };
    let Some(variants) = scan::enum_variants(enum_file.tokens(), cfg.enum_name) else {
        findings.push(config_error(
            cfg,
            format!("enum {} not found in {}", cfg.enum_name, cfg.enum_file),
        ));
        return;
    };
    if variants.is_empty() {
        findings.push(config_error(
            cfg,
            format!("enum {} has no variants", cfg.enum_name),
        ));
        return;
    }

    // Variant-coverage surfaces: each must name every variant (as
    // `Enum::V`) and contain no `_ =>` wildcard arm.
    for &(rel, fn_name, label) in &cfg.surfaces {
        match file(rel) {
            Some(f) => check_surface(cfg, f, fn_name, label, &variants, findings),
            None => findings.push(config_error(cfg, format!("{label} file {rel} not found"))),
        }
    }
}

fn check_surface(
    cfg: &E1Config,
    file: &SourceFile,
    fn_name: &str,
    label: &str,
    variants: &[String],
    findings: &mut Vec<Finding>,
) {
    let tokens = file.tokens();
    let Some((fn_kw, open, close)) = scan::fn_span(tokens, fn_name) else {
        findings.push(Finding {
            file: file.rel.clone(),
            line: 1,
            col: 1,
            rule: RuleId::E1,
            message: format!("{label} `fn {fn_name}` not found"),
            hint: format!("the telemetry schema requires `{fn_name}` to exist and stay exhaustive"),
        });
        return;
    };
    let at = &tokens[fn_kw];
    let body = &tokens[open..=close];

    // Which variants does the body name as `Enum::Variant`?
    let mut covered = BTreeSet::new();
    for i in 0..body.len() {
        if scan::is_ident(&body[i], cfg.enum_name) {
            if let Some(end) = scan::path_at(body, i, &[cfg.enum_name]) {
                if body.get(end).is_some_and(|t| scan::is_punct(t, ':'))
                    && body.get(end + 1).is_some_and(|t| scan::is_punct(t, ':'))
                {
                    if let Some(v) = body.get(end + 2).and_then(scan::ident_name) {
                        covered.insert(v.to_string());
                    }
                }
            }
        }
    }
    for v in variants {
        if !covered.contains(v) {
            findings.push(Finding {
                file: file.rel.clone(),
                line: at.line,
                col: at.col,
                rule: RuleId::E1,
                message: format!(
                    "{label} `fn {fn_name}` does not cover `{}::{v}`",
                    cfg.enum_name
                ),
                hint: format!("add an explicit `{}::{v}` arm — no wildcard", cfg.enum_name),
            });
        }
    }

    // `_ =>` hides future variants from this surface.
    for i in 0..body.len() {
        if scan::is_ident(&body[i], "_")
            && body.get(i + 1).is_some_and(|t| scan::is_punct(t, '='))
            && body.get(i + 2).is_some_and(|t| scan::is_punct(t, '>'))
        {
            findings.push(Finding {
                file: file.rel.clone(),
                line: body[i].line,
                col: body[i].col,
                rule: RuleId::E1,
                message: format!("wildcard `_ =>` arm in {label} `fn {fn_name}`"),
                hint: "enumerate the remaining variants explicitly so new events cannot \
                       silently skip this surface"
                    .into(),
            });
        }
    }
}

fn config_error(cfg: &E1Config, message: String) -> Finding {
    Finding {
        file: cfg.enum_file.to_string(),
        line: 1,
        col: 1,
        rule: RuleId::E1,
        message,
        hint: "fix the E1 configuration or restore the schema surface".into(),
    }
}
