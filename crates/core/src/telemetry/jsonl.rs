//! Canonical JSONL encoding of the event stream.
//!
//! One event per line, one flat JSON object per event, keys in a fixed
//! order (`t`, `ev`, then the kind's fields in declaration order), `u64`
//! numbers and string enums. The format is canonical on purpose:
//! [`parse_line`] followed by [`to_line`] reproduces the input byte for
//! byte, which is what the resume byte-identity test and the `repro trace`
//! schema-drift guard both lean on. Unknown event names, missing fields,
//! extra fields or non-canonical values are all hard errors — schema drift
//! fails loudly instead of rotting logs.

use super::{Event, EventKind, FaultClass, OutcomeCode, Recorder};
use bbsim_net::SimTime;
use std::fmt;
use std::io::Write;

/// Serializes one event to its canonical JSONL line (no trailing newline).
pub fn to_line(event: &Event) -> String {
    let mut w = LineWriter::new(event.at.as_millis(), event.kind.name());
    match &event.kind {
        EventKind::CampaignBegin {
            seed,
            n_jobs,
            n_workers,
        } => {
            w.num("seed", *seed);
            w.num("n_jobs", *n_jobs as u64);
            w.num("n_workers", *n_workers as u64);
        }
        EventKind::CampaignEnd { makespan_ms } => w.num("makespan_ms", *makespan_ms),
        EventKind::WorkerBegin { worker } => w.num("worker", *worker as u64),
        EventKind::WorkerEnd { worker } => w.num("worker", *worker as u64),
        EventKind::JobBegin { tag, endpoint } => {
            w.num("tag", *tag);
            w.str("endpoint", endpoint);
        }
        EventKind::JobEnd {
            tag,
            outcome,
            attempts,
            dead_lettered,
        } => {
            w.num("tag", *tag);
            w.str("outcome", outcome.as_str());
            w.num("attempts", *attempts as u64);
            w.boolean("dead_lettered", *dead_lettered);
        }
        EventKind::AttemptBegin {
            tag,
            attempt,
            worker,
            endpoint,
        } => {
            w.num("tag", *tag);
            w.num("attempt", *attempt as u64);
            w.num("worker", *worker as u64);
            w.str("endpoint", endpoint);
        }
        EventKind::AttemptEnd {
            tag,
            attempt,
            worker,
            endpoint,
            outcome,
            duration_ms,
            steps,
        } => {
            w.num("tag", *tag);
            w.num("attempt", *attempt as u64);
            w.num("worker", *worker as u64);
            w.str("endpoint", endpoint);
            w.str("outcome", outcome.as_str());
            w.num("duration_ms", *duration_ms);
            w.num("steps", *steps as u64);
        }
        EventKind::Retry {
            tag,
            next_attempt,
            delay_ms,
        } => {
            w.num("tag", *tag);
            w.num("next_attempt", *next_attempt as u64);
            w.num("delay_ms", *delay_ms);
        }
        EventKind::BreakerTrip { endpoint } => w.str("endpoint", endpoint),
        EventKind::BreakerDefer {
            tag,
            endpoint,
            until_ms,
        } => {
            w.num("tag", *tag);
            w.str("endpoint", endpoint);
            w.num("until_ms", *until_ms);
        }
        EventKind::ShedCut { limit } => w.num("limit", *limit as u64),
        EventKind::ShedRaise { limit } => w.num("limit", *limit as u64),
        EventKind::StallReclaimed { tag, worker } => {
            w.num("tag", *tag);
            w.num("worker", *worker as u64);
        }
        EventKind::DriftSuspected { tag, endpoint } => {
            w.num("tag", *tag);
            w.str("endpoint", endpoint);
        }
        EventKind::RebootstrapStarted { endpoint } => w.str("endpoint", endpoint),
        EventKind::TemplateSwapped {
            endpoint,
            generation,
        } => {
            w.str("endpoint", endpoint);
            w.num("generation", *generation as u64);
        }
        EventKind::RebootstrapCompleted {
            endpoint,
            confidence_pct,
        } => {
            w.str("endpoint", endpoint);
            w.num("confidence_pct", *confidence_pct as u64);
        }
        EventKind::ServeLookupEnd {
            tag,
            shard,
            endpoint,
            outcome,
            cache_hit,
            duration_ms,
        } => {
            w.num("tag", *tag);
            w.num("shard", *shard as u64);
            w.str("endpoint", endpoint);
            w.str("outcome", outcome.as_str());
            w.boolean("cache_hit", *cache_hit);
            w.num("duration_ms", *duration_ms);
        }
        EventKind::CacheEvicted { shard, key } => {
            w.num("shard", *shard as u64);
            w.str("key", key);
        }
        EventKind::ServeShed { shard, endpoint } => {
            w.num("shard", *shard as u64);
            w.str("endpoint", endpoint);
        }
        EventKind::JournalReplay { tag, attempt } => {
            w.num("tag", *tag);
            w.num("attempt", *attempt as u64);
        }
        EventKind::FaultInjected { endpoint, fault } => {
            w.str("endpoint", endpoint);
            w.str("fault", fault.as_str());
        }
        EventKind::AlertFired { rule, exemplars } => {
            w.str("rule", rule);
            w.str("exemplars", exemplars);
        }
        EventKind::AlertResolved { rule } => w.str("rule", rule),
        EventKind::PageFetchBegin {
            tag,
            attempt,
            fetch,
        } => {
            w.num("tag", *tag);
            w.num("attempt", *attempt as u64);
            w.num("fetch", *fetch as u64);
        }
        EventKind::PageFetchEnd {
            tag,
            attempt,
            fetch,
            duration_ms,
        } => {
            w.num("tag", *tag);
            w.num("attempt", *attempt as u64);
            w.num("fetch", *fetch as u64);
            w.num("duration_ms", *duration_ms);
        }
    }
    w.finish()
}

struct LineWriter {
    buf: String,
}

impl LineWriter {
    fn new(t: u64, ev: &str) -> Self {
        let mut w = Self {
            buf: String::with_capacity(96),
        };
        w.buf.push('{');
        w.num("t", t);
        w.str("ev", ev);
        w
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn num(&mut self, key: &str, v: u64) {
        self.key(key);
        // Decimal digits, least significant first, written straight into
        // the line: no intermediate `String` per number.
        let mut digits = [0u8; 20];
        let mut len = 0;
        let mut rest = v;
        loop {
            digits[len] = b'0' + (rest % 10) as u8;
            len += 1;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        for &d in digits[..len].iter().rev() {
            self.buf.push(char::from(d));
        }
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.buf.push('"');
        if v.bytes().any(|b| b == b'"' || b == b'\\') {
            for c in v.chars() {
                match c {
                    '"' => self.buf.push_str("\\\""),
                    '\\' => self.buf.push_str("\\\\"),
                    c => self.buf.push(c),
                }
            }
        } else {
            self.buf.push_str(v);
        }
        self.buf.push('"');
    }

    fn boolean(&mut self, key: &str, v: bool) {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Why a line failed to parse back into an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, PartialEq)]
enum Val {
    Num(u64),
    Str(String),
    Bool(bool),
}

/// Parses one canonical JSONL line back into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let fields = tokenize(line)?;
    let mut f = Fields::new(&fields);
    let t = f.num("t")?;
    let ev = f.str("ev")?;
    let kind = match ev.as_str() {
        "campaign_begin" => EventKind::CampaignBegin {
            seed: f.num("seed")?,
            n_jobs: f.num_u32("n_jobs")?,
            n_workers: f.num_u32("n_workers")?,
        },
        "campaign_end" => EventKind::CampaignEnd {
            makespan_ms: f.num("makespan_ms")?,
        },
        "worker_begin" => EventKind::WorkerBegin {
            worker: f.num_u32("worker")?,
        },
        "worker_end" => EventKind::WorkerEnd {
            worker: f.num_u32("worker")?,
        },
        "job_begin" => EventKind::JobBegin {
            tag: f.num("tag")?,
            endpoint: f.str("endpoint")?,
        },
        "job_end" => EventKind::JobEnd {
            tag: f.num("tag")?,
            outcome: f.outcome("outcome")?,
            attempts: f.num_u32("attempts")?,
            dead_lettered: f.boolean("dead_lettered")?,
        },
        "attempt_begin" => EventKind::AttemptBegin {
            tag: f.num("tag")?,
            attempt: f.num_u32("attempt")?,
            worker: f.num_u32("worker")?,
            endpoint: f.str("endpoint")?,
        },
        "attempt_end" => EventKind::AttemptEnd {
            tag: f.num("tag")?,
            attempt: f.num_u32("attempt")?,
            worker: f.num_u32("worker")?,
            endpoint: f.str("endpoint")?,
            outcome: f.outcome("outcome")?,
            duration_ms: f.num("duration_ms")?,
            steps: f.num_u32("steps")?,
        },
        "retry" => EventKind::Retry {
            tag: f.num("tag")?,
            next_attempt: f.num_u32("next_attempt")?,
            delay_ms: f.num("delay_ms")?,
        },
        "breaker_trip" => EventKind::BreakerTrip {
            endpoint: f.str("endpoint")?,
        },
        "breaker_defer" => EventKind::BreakerDefer {
            tag: f.num("tag")?,
            endpoint: f.str("endpoint")?,
            until_ms: f.num("until_ms")?,
        },
        "shed_cut" => EventKind::ShedCut {
            limit: f.num_u32("limit")?,
        },
        "shed_raise" => EventKind::ShedRaise {
            limit: f.num_u32("limit")?,
        },
        "stall_reclaimed" => EventKind::StallReclaimed {
            tag: f.num("tag")?,
            worker: f.num_u32("worker")?,
        },
        "drift_suspected" => EventKind::DriftSuspected {
            tag: f.num("tag")?,
            endpoint: f.str("endpoint")?,
        },
        "rebootstrap_started" => EventKind::RebootstrapStarted {
            endpoint: f.str("endpoint")?,
        },
        "template_swapped" => EventKind::TemplateSwapped {
            endpoint: f.str("endpoint")?,
            generation: f.num_u32("generation")?,
        },
        "rebootstrap_completed" => EventKind::RebootstrapCompleted {
            endpoint: f.str("endpoint")?,
            confidence_pct: f.num_u32("confidence_pct")?,
        },
        "serve_lookup_end" => EventKind::ServeLookupEnd {
            tag: f.num("tag")?,
            shard: f.num_u32("shard")?,
            endpoint: f.str("endpoint")?,
            outcome: f.outcome("outcome")?,
            cache_hit: f.boolean("cache_hit")?,
            duration_ms: f.num("duration_ms")?,
        },
        "cache_evicted" => EventKind::CacheEvicted {
            shard: f.num_u32("shard")?,
            key: f.str("key")?,
        },
        "serve_shed" => EventKind::ServeShed {
            shard: f.num_u32("shard")?,
            endpoint: f.str("endpoint")?,
        },
        "journal_replay" => EventKind::JournalReplay {
            tag: f.num("tag")?,
            attempt: f.num_u32("attempt")?,
        },
        "fault_injected" => EventKind::FaultInjected {
            endpoint: f.str("endpoint")?,
            fault: f.fault("fault")?,
        },
        "alert_fired" => EventKind::AlertFired {
            rule: f.str("rule")?,
            exemplars: f.str("exemplars")?,
        },
        "alert_resolved" => EventKind::AlertResolved {
            rule: f.str("rule")?,
        },
        "page_fetch_begin" => EventKind::PageFetchBegin {
            tag: f.num("tag")?,
            attempt: f.num_u32("attempt")?,
            fetch: f.num_u32("fetch")?,
        },
        "page_fetch_end" => EventKind::PageFetchEnd {
            tag: f.num("tag")?,
            attempt: f.num_u32("attempt")?,
            fetch: f.num_u32("fetch")?,
            duration_ms: f.num("duration_ms")?,
        },
        other => return Err(ParseError::new(format!("unknown event name {other:?}"))),
    };
    f.done()?;
    Ok(Event {
        at: SimTime::from_millis(t),
        kind,
    })
}

/// Strict field cursor: canonical lines name every field exactly once, in
/// schema order, with nothing extra.
struct Fields<'a> {
    fields: &'a [(String, Val)],
    i: usize,
}

impl<'a> Fields<'a> {
    fn new(fields: &'a [(String, Val)]) -> Self {
        Self { fields, i: 0 }
    }

    fn next(&mut self, key: &str) -> Result<&'a Val, ParseError> {
        let (k, v) = self
            .fields
            .get(self.i)
            .ok_or_else(|| ParseError::new(format!("missing field {key:?}")))?;
        if k != key {
            return Err(ParseError::new(format!(
                "expected field {key:?}, found {k:?}"
            )));
        }
        self.i += 1;
        Ok(v)
    }

    fn num(&mut self, key: &str) -> Result<u64, ParseError> {
        match self.next(key)? {
            Val::Num(n) => Ok(*n),
            _ => Err(ParseError::new(format!("field {key:?} is not a number"))),
        }
    }

    fn num_u32(&mut self, key: &str) -> Result<u32, ParseError> {
        u32::try_from(self.num(key)?)
            .map_err(|_| ParseError::new(format!("field {key:?} overflows u32")))
    }

    fn str(&mut self, key: &str) -> Result<String, ParseError> {
        match self.next(key)? {
            Val::Str(s) => Ok(s.clone()),
            _ => Err(ParseError::new(format!("field {key:?} is not a string"))),
        }
    }

    fn boolean(&mut self, key: &str) -> Result<bool, ParseError> {
        match self.next(key)? {
            Val::Bool(b) => Ok(*b),
            _ => Err(ParseError::new(format!("field {key:?} is not a bool"))),
        }
    }

    fn outcome(&mut self, key: &str) -> Result<OutcomeCode, ParseError> {
        let s = self.str(key)?;
        OutcomeCode::parse(&s).ok_or_else(|| ParseError::new(format!("unknown outcome {s:?}")))
    }

    fn fault(&mut self, key: &str) -> Result<FaultClass, ParseError> {
        let s = self.str(key)?;
        FaultClass::parse(&s).ok_or_else(|| ParseError::new(format!("unknown fault {s:?}")))
    }

    fn done(&self) -> Result<(), ParseError> {
        if self.i == self.fields.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "unexpected extra field {:?}",
                self.fields[self.i].0
            )))
        }
    }
}

/// Tokenizes one flat JSON object into ordered `(key, value)` pairs.
fn tokenize(line: &str) -> Result<Vec<(String, Val)>, ParseError> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    if b.first() != Some(&b'{') {
        return Err(ParseError::new("expected '{'"));
    }
    i += 1;
    if b.get(i) == Some(&b'}') {
        return Err(ParseError::new("empty object"));
    }
    loop {
        let (key, next) = parse_string(b, i)?;
        i = next;
        if b.get(i) != Some(&b':') {
            return Err(ParseError::new("expected ':' after key"));
        }
        i += 1;
        let (val, next) = parse_value(b, i)?;
        i = next;
        out.push((key, val));
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err(ParseError::new("expected ',' or '}'")),
        }
    }
    if i != b.len() {
        return Err(ParseError::new("trailing bytes after object"));
    }
    Ok(out)
}

fn parse_string(b: &[u8], mut i: usize) -> Result<(String, usize), ParseError> {
    if b.get(i) != Some(&b'"') {
        return Err(ParseError::new("expected '\"'"));
    }
    i += 1;
    let mut s = String::new();
    loop {
        match b.get(i) {
            Some(b'"') => return Ok((s, i + 1)),
            Some(b'\\') => match b.get(i + 1) {
                Some(b'"') => {
                    s.push('"');
                    i += 2;
                }
                Some(b'\\') => {
                    s.push('\\');
                    i += 2;
                }
                _ => return Err(ParseError::new("unsupported escape")),
            },
            Some(_) => {
                // Multi-byte UTF-8 is carried through verbatim.
                let rest = &b[i..];
                let first = std::str::from_utf8(rest)
                    .ok()
                    .and_then(|text| text.chars().next());
                let Some(c) = first else {
                    return Err(ParseError::new("invalid utf-8 in string"));
                };
                s.push(c);
                i += c.len_utf8();
            }
            None => return Err(ParseError::new("unterminated string")),
        }
    }
}

fn parse_value(b: &[u8], i: usize) -> Result<(Val, usize), ParseError> {
    match b.get(i) {
        Some(b'"') => parse_string(b, i).map(|(s, n)| (Val::Str(s), n)),
        Some(b't') if b[i..].starts_with(b"true") => Ok((Val::Bool(true), i + 4)),
        Some(b'f') if b[i..].starts_with(b"false") => Ok((Val::Bool(false), i + 5)),
        Some(c) if c.is_ascii_digit() => {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            let Ok(text) = std::str::from_utf8(&b[i..j]) else {
                return Err(ParseError::new("invalid utf-8 in number"));
            };
            if text.len() > 1 && text.starts_with('0') {
                return Err(ParseError::new("non-canonical number"));
            }
            let n: u64 = text
                .parse()
                .map_err(|_| ParseError::new("number out of range"))?;
            Ok((Val::Num(n), j))
        }
        _ => Err(ParseError::new("unsupported value")),
    }
}

/// A [`Recorder`] that appends one canonical JSONL line per event.
///
/// `stable` mode keeps only replay-stable events
/// ([`EventKind::replay_stable`]) so the log survives crash/resume
/// byte-identical; `new` keeps everything, page fetches and all.
pub struct JsonlRecorder<W: Write> {
    out: W,
    stable_only: bool,
    written: u64,
}

impl<W: Write> JsonlRecorder<W> {
    /// Records the complete event stream.
    pub fn new(out: W) -> Self {
        Self {
            out,
            stable_only: false,
            written: 0,
        }
    }

    /// Records only replay-stable events.
    pub fn stable(out: W) -> Self {
        Self {
            out,
            stable_only: true,
            written: 0,
        }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    pub fn get_ref(&self) -> &W {
        &self.out
    }

    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        if self.stable_only && !event.kind.replay_stable() {
            return;
        }
        let mut line = to_line(event);
        line.push('\n');
        let written = self.out.write_all(line.as_bytes());
        // A failed write panics; the fan-out poisons this recorder and the
        // campaign carries on without its log.
        // lint:allow(D3): panicking here is the poisoning contract — the telemetry fan-out catches it and detaches the recorder
        written.expect("event log write failed");
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let e = |ms: u64, kind: EventKind| Event {
            at: SimTime::from_millis(ms),
            kind,
        };
        vec![
            e(
                0,
                EventKind::CampaignBegin {
                    seed: 7,
                    n_jobs: 120,
                    n_workers: 8,
                },
            ),
            e(0, EventKind::WorkerBegin { worker: 0 }),
            e(
                97,
                EventKind::JobBegin {
                    tag: 41,
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                97,
                EventKind::AttemptBegin {
                    tag: 41,
                    attempt: 1,
                    worker: 0,
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                150,
                EventKind::PageFetchBegin {
                    tag: 41,
                    attempt: 1,
                    fetch: 0,
                },
            ),
            e(
                45_150,
                EventKind::PageFetchEnd {
                    tag: 41,
                    attempt: 1,
                    fetch: 0,
                    duration_ms: 45_000,
                },
            ),
            e(
                45_200,
                EventKind::FaultInjected {
                    endpoint: "centurylink/billings".into(),
                    fault: FaultClass::Timeout,
                },
            ),
            e(
                46_000,
                EventKind::AttemptEnd {
                    tag: 41,
                    attempt: 1,
                    worker: 0,
                    endpoint: "centurylink/billings".into(),
                    outcome: OutcomeCode::Failed,
                    duration_ms: 45_903,
                    steps: 2,
                },
            ),
            e(
                46_000,
                EventKind::Retry {
                    tag: 41,
                    next_attempt: 2,
                    delay_ms: 12_000,
                },
            ),
            e(
                46_000,
                EventKind::BreakerTrip {
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                46_500,
                EventKind::BreakerDefer {
                    tag: 42,
                    endpoint: "centurylink/billings".into(),
                    until_ms: 58_000,
                },
            ),
            e(47_000, EventKind::ShedCut { limit: 4 }),
            e(
                60_000,
                EventKind::AlertFired {
                    rule: "hit_rate".into(),
                    exemplars: "centurylink/billings:2a@45000".into(),
                },
            ),
            e(
                84_000,
                EventKind::AlertResolved {
                    rule: "hit_rate".into(),
                },
            ),
            e(90_000, EventKind::ShedRaise { limit: 5 }),
            e(
                92_000,
                EventKind::DriftSuspected {
                    tag: 41,
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                92_000,
                EventKind::RebootstrapStarted {
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                92_000,
                EventKind::TemplateSwapped {
                    endpoint: "centurylink/billings".into(),
                    generation: 2,
                },
            ),
            e(
                92_000,
                EventKind::RebootstrapCompleted {
                    endpoint: "centurylink/billings".into(),
                    confidence_pct: 95,
                },
            ),
            e(
                93_000,
                EventKind::ServeLookupEnd {
                    tag: 9_001,
                    shard: 3,
                    endpoint: "serve/billings/att".into(),
                    outcome: OutcomeCode::Plans,
                    cache_hit: true,
                    duration_ms: 4,
                },
            ),
            e(
                93_500,
                EventKind::CacheEvicted {
                    shard: 3,
                    key: "plans/billings/att/77".into(),
                },
            ),
            e(
                94_000,
                EventKind::ServeShed {
                    shard: 3,
                    endpoint: "serve/billings/att".into(),
                },
            ),
            e(95_000, EventKind::StallReclaimed { tag: 43, worker: 2 }),
            e(
                95_000,
                EventKind::JournalReplay {
                    tag: 44,
                    attempt: 1,
                },
            ),
            e(
                99_000,
                EventKind::JobEnd {
                    tag: 41,
                    outcome: OutcomeCode::Plans,
                    attempts: 2,
                    dead_lettered: false,
                },
            ),
            e(100_000, EventKind::WorkerEnd { worker: 0 }),
            e(
                100_000,
                EventKind::CampaignEnd {
                    makespan_ms: 100_000,
                },
            ),
        ]
    }

    #[test]
    fn every_event_kind_round_trips_byte_exact() {
        for event in sample_events() {
            let line = to_line(&event);
            let parsed = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed, event, "{line}");
            assert_eq!(to_line(&parsed), line, "round trip changed bytes");
        }
    }

    #[test]
    fn recorder_writes_one_line_per_event() {
        let mut rec = JsonlRecorder::new(Vec::new());
        for event in sample_events() {
            rec.record(&event);
        }
        let text = String::from_utf8(rec.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, event) in lines.iter().zip(sample_events()) {
            assert_eq!(parse_line(line).unwrap(), event);
        }
    }

    #[test]
    fn stable_recorder_drops_ephemeral_events() {
        let mut rec = JsonlRecorder::stable(Vec::new());
        for event in sample_events() {
            rec.record(&event);
        }
        let written = rec.written();
        let text = String::from_utf8(rec.into_inner()).unwrap();
        for line in text.lines() {
            assert!(
                parse_line(line).unwrap().kind.replay_stable(),
                "ephemeral event leaked: {line}"
            );
        }
        let stable = sample_events()
            .iter()
            .filter(|e| e.kind.replay_stable())
            .count() as u64;
        assert_eq!(written, stable);
        assert_eq!(text.lines().count() as u64, stable);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"t":1}"#,
            r#"{"t":1,"ev":"martian_landing"}"#,
            r#"{"t":1,"ev":"shed_cut"}"#,
            r#"{"t":1,"ev":"shed_cut","limit":4,"extra":1}"#,
            r#"{"t":1,"ev":"shed_cut","limit":"four"}"#,
            r#"{"t":01,"ev":"shed_cut","limit":4}"#,
            r#"{"t":1,"ev":"shed_cut","limit":4} "#,
            r#"{"ev":"shed_cut","t":1,"limit":4}"#,
            r#"{"t":1,"ev":"job_end","tag":1,"outcome":"plans","attempts":1,"dead_lettered":maybe}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn endpoint_escaping_round_trips() {
        let event = Event {
            at: SimTime::from_millis(5),
            kind: EventKind::BreakerTrip {
                endpoint: "weird\\isp/\"city\"".into(),
            },
        };
        let line = to_line(&event);
        assert_eq!(parse_line(&line).unwrap(), event);
        assert_eq!(to_line(&parse_line(&line).unwrap()), line);
    }
}
