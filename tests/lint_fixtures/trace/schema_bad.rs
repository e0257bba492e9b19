//! E1 known-bad canary for the span-tree schema: the bucketing hides a
//! variant behind a wildcard and the attribution fold skips one — each
//! gap is a distinct finding.

pub enum SpanKind {
    Job,
    Attempt { n: u32 },
    QueueWait,
    Rebootstrap,
}

impl SpanKind {
    pub fn wire_name(&self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Attempt { .. } => "attempt",
            SpanKind::QueueWait => "queue_wait",
            SpanKind::Rebootstrap => "rebootstrap",
        }
    }

    // BAD: the wildcard swallows Rebootstrap, so a new span kind would
    // silently inherit the wrong attribution class.
    pub fn bucket(&self) -> u8 {
        match self {
            SpanKind::Job => 0,
            SpanKind::Attempt { .. } => 1,
            SpanKind::QueueWait => 2,
            _ => 2,
        }
    }
}

pub fn span_json(kind: &SpanKind, out: &mut String) {
    let cat = match kind {
        SpanKind::Job => "structural",
        SpanKind::Attempt { .. } => "work",
        SpanKind::QueueWait => "wait",
        SpanKind::Rebootstrap => "heal",
    };
    out.push_str(kind.wire_name());
    out.push(':');
    out.push_str(cat);
}

// BAD: queue waits vanish from the attribution report.
pub fn charge(kind: &SpanKind, ms: u64, wait_ms: &mut u64) {
    match kind {
        SpanKind::Job => {}
        SpanKind::Attempt { .. } => {}
        SpanKind::Rebootstrap => *wait_ms += ms,
    }
}
