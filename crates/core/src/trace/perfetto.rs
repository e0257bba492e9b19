//! Chrome/Perfetto trace-event JSON export.
//!
//! `trace.json` is the [trace-event format] both `chrome://tracing` and
//! [ui.perfetto.dev] open directly: an object with a `traceEvents` array
//! of complete (`"ph":"X"`) events. One exported section (campaign or
//! serve run) maps to one `pid`; inside it, tid 0 carries a single
//! campaign-extent span and each global exemplar trace gets its own tid
//! (rank order, slowest first) with its spans emitted depth-first in
//! time order. Timestamps are microseconds, so the virtual-clock
//! millisecond values are multiplied by 1000 — durations read exactly in
//! the viewer. Each event's `name` is the span kind's wire name and its
//! `cat` the kind's attribution class; labels go through the same JSON
//! string escaper as `events.jsonl`.
//!
//! The exporter is byte-deterministic: it writes from [`ExemplarSet`](super::ExemplarSet)s
//! held by `HealthReport`s, which are themselves byte-identical across
//! thread counts and crash+resume, and it never consults a real clock
//! or hash-ordered container.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use super::{Span, SpanKind, Trace};
use crate::monitor::CampaignSection;
use crate::telemetry::jsonl::escape_into;
use std::fmt::Write as _;

/// Serializes one span as a complete (`"ph":"X"`) trace event. The
/// `cat` field is the kind's attribution class ([`SpanKind::bucket`]).
pub fn span_json(span: &Span, pid: usize, tid: usize, trace_id: &str, out: &mut String) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"label\":\"",
        span.kind.as_str(),
        span.kind.bucket().as_str(),
        span.start_ms.saturating_mul(1000),
        span.duration_ms().saturating_mul(1000),
        pid,
        tid,
    );
    escape_into(&span.label, out);
    out.push_str("\",\"trace\":\"");
    escape_into(trace_id, out);
    out.push_str("\"}}");
}

/// Emits `span` and its subtree depth-first (parents before children,
/// children in start order — already their `Vec` order).
fn emit_tree(span: &Span, pid: usize, tid: usize, trace_id: &str, out: &mut String) {
    push_event(out);
    span_json(span, pid, tid, trace_id, out);
    for child in &span.children {
        emit_tree(child, pid, tid, trace_id, out);
    }
}

/// Separator bookkeeping: every event but the first needs a leading
/// comma. The events array opens with `[` so "last char is `[`" detects
/// the first event without extra state.
fn push_event(out: &mut String) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str("\n  ");
}

fn emit_exemplars(
    out: &mut String,
    pid: usize,
    makespan_ms: u64,
    label: &str,
    exemplars: &[Trace],
) {
    let campaign = Span {
        kind: SpanKind::Campaign,
        label: label.to_string(),
        start_ms: 0,
        end_ms: makespan_ms,
        children: Vec::new(),
    };
    push_event(out);
    span_json(&campaign, pid, 0, label, out);
    for (rank, trace) in exemplars.iter().enumerate() {
        emit_tree(&trace.root, pid, rank + 1, &trace.id(), out);
    }
}

/// Renders the Chrome/Perfetto `trace.json` body for a set of exported
/// sections: one `pid` per section (1-based, section order), tid 0 the
/// campaign extent, tid `r+1` the rank-`r` global exemplar trace.
pub fn render_trace_json(sections: &[CampaignSection<'_>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, section) in sections.iter().enumerate() {
        emit_exemplars(
            &mut out,
            i + 1,
            section.health.makespan_ms,
            section.label,
            &section.health.exemplars.global,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: SpanKind, start: u64, end: u64, label: &str) -> Span {
        Span {
            kind,
            label: label.to_string(),
            start_ms: start,
            end_ms: end,
            children: Vec::new(),
        }
    }

    #[test]
    fn span_json_is_a_complete_event_in_microseconds() {
        let span = leaf(SpanKind::Attempt, 1_500, 4_500, "attempt_1:plans");
        let mut out = String::new();
        span_json(&span, 1, 2, "isp:2a@1500", &mut out);
        assert_eq!(
            out,
            "{\"name\":\"attempt\",\"cat\":\"work\",\"ph\":\"X\",\"ts\":1500000,\
             \"dur\":3000000,\"pid\":1,\"tid\":2,\
             \"args\":{\"label\":\"attempt_1:plans\",\"trace\":\"isp:2a@1500\"}}"
        );
    }

    #[test]
    fn labels_are_json_escaped() {
        let span = leaf(SpanKind::Job, 0, 1, "quo\"te\\back\nline");
        let mut out = String::new();
        span_json(&span, 1, 1, "t", &mut out);
        assert!(out.contains("quo\\\"te\\\\back\\nline"), "{out}");
    }

    #[test]
    fn render_emits_depth_first_with_one_pid_per_section() {
        use crate::monitor::HealthReport;
        use crate::telemetry::TelemetrySummary;
        use crate::trace::Trace;

        let mut health = HealthReport {
            makespan_ms: 10_000,
            ..HealthReport::default()
        };
        health.exemplars.global.push(Trace {
            tag: 7,
            endpoint: "isp".into(),
            root: Span {
                kind: SpanKind::Job,
                label: "isp:plans".into(),
                start_ms: 0,
                end_ms: 9_000,
                children: vec![leaf(SpanKind::Attempt, 0, 9_000, "attempt_1:plans")],
            },
        });
        let telemetry = TelemetrySummary::default();
        let sections = [CampaignSection {
            label: "billings",
            telemetry: &telemetry,
            health: &health,
        }];
        let json = render_trace_json(&sections);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("\n]}\n"));
        let names: Vec<&str> = json
            .match_indices("\"name\":\"")
            .map(|(i, _)| {
                let rest = &json[i + 8..];
                &rest[..rest.find('"').unwrap_or(0)]
            })
            .collect();
        assert_eq!(names, vec!["campaign", "job", "attempt"]);
        // Exactly one pid per section, campaign extent on tid 0.
        assert!(json.contains("\"pid\":1,\"tid\":0"));
        assert!(json.contains("\"trace\":\"isp:7@0\""));
    }
}
