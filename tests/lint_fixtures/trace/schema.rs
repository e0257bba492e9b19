//! E1 known-clean canary for the span-tree schema: a four-variant
//! mirror of `SpanKind` whose four surfaces — wire-name map,
//! attribution-class bucketing, trace-event serializer, attribution
//! fold — each cover every variant with no wildcard arms. Adding a
//! fifth span kind here without extending every surface trips E1, the
//! same contract the real trace module is held to.

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

    pub fn bucket(&self) -> u8 {
        match self {
            SpanKind::Job => 0,
            SpanKind::Attempt { .. } => 1,
            SpanKind::QueueWait => 2,
            SpanKind::Rebootstrap => 3,
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

pub fn charge(kind: &SpanKind, ms: u64, wait_ms: &mut u64) {
    match kind {
        SpanKind::Job => {}
        SpanKind::Attempt { .. } => {}
        SpanKind::QueueWait => *wait_ms += ms,
        SpanKind::Rebootstrap => *wait_ms += ms,
    }
}
