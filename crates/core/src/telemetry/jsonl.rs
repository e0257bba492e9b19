//! The one-line JSON-lite codec: the canonical encoding of the event
//! stream, and the dialect serve's query and answer lines share.
//!
//! A line is one flat JSON object whose keys come in a fixed order. For
//! an event that is `t`, `ev`, then the kind's fields in declaration
//! order, with `u64` numbers and string enums. The per-kind field lists
//! are not written here: `event_schema!` in the parent module (and
//! serve's `wire_schema!`) declares each kind once and generates the
//! writer and reader that drive [`LineWriter`] and [`Fields`], through
//! the [`Wire`] encoding of each field type.
//!
//! The format is canonical on purpose: [`parse_line`] followed by
//! [`to_line`] reproduces the input byte for byte, which is what the
//! resume byte-identity test and the `repro trace` schema-drift guard both
//! lean on. Strings escape quotes, backslashes and control characters
//! (see `escape_into`), so every line stays one line and any text
//! round-trips. Unknown event names, missing fields, extra or reordered
//! fields, non-canonical values and escapes the writer never emits are
//! all hard errors — schema drift fails loudly instead of rotting logs.

use super::{Event, EventKind, FaultClass, OutcomeCode, Recorder};
use bbsim_net::SimTime;
use std::borrow::Cow;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

/// Serializes one event to its canonical JSONL line (no trailing newline).
pub fn to_line(event: &Event) -> String {
    let mut line = String::with_capacity(96);
    push_line(event, &mut line);
    line
}

/// Appends `event`'s canonical line to `buf`: a caller that clears and
/// hands back the same buffer for every event allocates only while its
/// lines grow.
fn push_line(event: &Event, buf: &mut String) {
    let mut w = LineWriter::open(buf);
    event.at.as_millis().write(&mut w, "t");
    w.str("ev", event.kind.name());
    event.kind.write_fields(&mut w);
    w.finish();
}

/// Parses one canonical JSONL line back into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let mut f = Fields::open(line)?;
    let t = u64::read(&mut f, "t")?;
    let ev = f.str("ev")?;
    let kind = EventKind::read_fields(&ev, &mut f)?;
    f.done()?;
    Ok(Event {
        at: SimTime::from_millis(t),
        kind,
    })
}

/// Whether `s` holds a byte [`escape_into`] rewrites.
fn needs_escape(s: &str) -> bool {
    s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20)
}

/// Escapes `s` into the body of a JSON string literal: quotes,
/// backslashes, `\n`, `\t` and `\u00xx` for the other control
/// characters. Shared by the JSONL and trace-event exporters.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    if !needs_escape(s) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let b = c as usize;
                out.push_str("\\u00");
                out.push(char::from(HEX[b >> 4]));
                out.push(char::from(HEX[b & 0xf]));
            }
            c => out.push(c),
        }
    }
}

/// Appends one line's `"key":value` pairs to a buffer, in the order they
/// are written: the dialect's one writer. Strings go through its methods,
/// numbers and booleans through their [`Wire`] impls.
///
/// Its methods and the [`Wire`] writers are `#[inline]` because their
/// callers, the field writers `event_schema!` and serve's `wire_schema!`
/// generate, live in other modules and crates.
pub struct LineWriter<'a> {
    buf: &'a mut String,
    /// Where the line's `{` sits in `buf`.
    start: usize,
}

impl<'a> LineWriter<'a> {
    /// Opens a line at the end of `buf`, after whatever `buf` holds.
    pub fn open(buf: &'a mut String) -> Self {
        let start = buf.len();
        buf.push('{');
        Self { buf, start }
    }

    #[inline]
    fn key(&mut self, key: &str) {
        if self.buf.len() > self.start + 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    /// Writes `v` as an escaped string literal.
    #[inline]
    pub fn str(&mut self, key: &str, v: &str) {
        self.str_with(key, |buf| buf.push_str(v));
    }

    /// Writes a string literal whose text `text` appends to the line
    /// piecewise, escaped as [`str`](Self::str) escapes it.
    #[inline]
    pub fn str_with(&mut self, key: &str, text: impl FnOnce(&mut String)) {
        self.key(key);
        self.buf.push('"');
        let from = self.buf.len();
        text(self.buf);
        if self.buf.get(from..).is_some_and(needs_escape) {
            let raw = self.buf.split_off(from);
            escape_into(&raw, self.buf);
        }
        self.buf.push('"');
    }

    /// Closes the line.
    pub fn finish(self) {
        self.buf.push('}');
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
}

impl ParseError {
    pub fn new(message: impl Into<String>) -> Self {
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

/// The dialect's one reader: a strict cursor over one line's
/// `"key":value` pairs, borrowed from the line.
///
/// A canonical line names every field exactly once, in schema order,
/// with nothing extra and nothing after the closing `}`. Each field type
/// reads its own value, either a string (borrowed unless it holds an
/// escape) or a bare token, so reading a key allocates nothing. The
/// cursor never panics, whatever the line.
pub struct Fields<'a> {
    line: &'a str,
    /// Byte offset of the first unread byte.
    at: usize,
}

impl<'a> Fields<'a> {
    /// Opens `line`, which must start with `{`.
    pub fn open(line: &'a str) -> Result<Self, ParseError> {
        if !line.starts_with('{') {
            return Err(ParseError::new("expected '{'"));
        }
        Ok(Self { line, at: 1 })
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.at).copied()
    }

    /// Reads the next key and its `:`, or `None` at the closing `}`.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        match self.peek() {
            Some(b'}') => return Ok(None),
            Some(b',') if self.at > 1 => self.at += 1,
            _ if self.at == 1 => {}
            _ => return Err(ParseError::new("expected ',' or '}'")),
        }
        let key = self.string()?;
        if self.peek() != Some(b':') {
            return Err(ParseError::new("expected ':' after key"));
        }
        self.at += 1;
        Ok(Some(key))
    }

    /// Reads the next key, which must be `key`.
    fn field(&mut self, key: &str) -> Result<(), ParseError> {
        match self.next_key()? {
            Some(k) if k == key => Ok(()),
            Some(k) => Err(ParseError::new(format!(
                "expected field {key:?}, found {k:?}"
            ))),
            None => Err(ParseError::new(format!("missing field {key:?}"))),
        }
    }

    /// Reads field `key`, which must hold a string.
    pub fn str(&mut self, key: &str) -> Result<Cow<'a, str>, ParseError> {
        self.field(key)?;
        if self.peek() != Some(b'"') {
            return Err(ParseError::new(format!("field {key:?} is not a string")));
        }
        self.string()
    }

    /// Reads field `key` as a bare token (a number, `true` or `false`):
    /// the bytes up to the next `,` or `}`, for the field's type to parse.
    pub fn bare(&mut self, key: &str) -> Result<&'a str, ParseError> {
        self.field(key)?;
        let rest = self.line.get(self.at..).unwrap_or_default();
        let (token, _) = rest.split_at(rest.find([',', '}']).unwrap_or(rest.len()));
        self.at += token.len();
        Ok(token)
    }

    /// Checks that no field is left and nothing follows the closing `}`.
    pub fn done(mut self) -> Result<(), ParseError> {
        match self.next_key()? {
            Some(k) => Err(ParseError::new(format!("unexpected extra field {k:?}"))),
            None if self.at + 1 == self.line.len() => Ok(()),
            None => Err(ParseError::new("trailing bytes after object")),
        }
    }

    /// Reads a string literal, accepting exactly the escapes
    /// [`escape_into`] writes and no raw control bytes, so only canonical
    /// text parses. Every byte the scan stops at is ASCII, so each slice
    /// taken falls on a character boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let line = self.line;
        let b = line.as_bytes();
        if b.get(self.at) != Some(&b'"') {
            return Err(ParseError::new("expected '\"'"));
        }
        let mut i = self.at + 1;
        // The text before `run` is unescaped into `owned`; none is, until
        // the first escape.
        let mut run = i;
        let mut owned: Option<String> = None;
        loop {
            match b.get(i) {
                Some(b'"') => break,
                Some(b'\\') => {
                    let (c, len) = match b.get(i + 1) {
                        Some(b'"') => (b'"', 2),
                        Some(b'\\') => (b'\\', 2),
                        Some(b'n') => (b'\n', 2),
                        Some(b't') => (b'\t', 2),
                        Some(b'u') => match b.get(i + 2..i + 6).and_then(control_escape) {
                            Some(c) => (c, 6),
                            None => return Err(ParseError::new("unsupported escape")),
                        },
                        _ => return Err(ParseError::new("unsupported escape")),
                    };
                    let text = owned.get_or_insert_with(String::new);
                    text.push_str(line.get(run..i).unwrap_or_default());
                    text.push(char::from(c));
                    i += len;
                    run = i;
                }
                Some(&c) if c < 0x20 => return Err(ParseError::new("raw control byte in string")),
                // Multi-byte UTF-8 is carried through verbatim.
                Some(_) => i += 1,
                None => return Err(ParseError::new("unterminated string")),
            }
        }
        self.at = i + 1;
        let tail = line.get(run..i).unwrap_or_default();
        Ok(match owned {
            None => Cow::Borrowed(tail),
            Some(mut text) => {
                text.push_str(tail);
                Cow::Owned(text)
            }
        })
    }
}

/// The control character a canonical `\u00xx` escape names: lowercase
/// hex below 0x20, other than `\n` and `\t`, which have short escapes.
fn control_escape(hex: &[u8]) -> Option<u8> {
    let [b'0', b'0', hi @ b'0'..=b'1', lo] = *hex else {
        return None;
    };
    let lo = match lo {
        b'0'..=b'9' => lo - b'0',
        b'a'..=b'f' => lo - b'a' + 10,
        _ => return None,
    };
    let c = (hi - b'0') * 16 + lo;
    (c != b'\n' && c != b'\t').then_some(c)
}

/// How one field type is written to and read from a line.
pub trait Wire: Sized {
    fn write(&self, w: &mut LineWriter<'_>, key: &str);
    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError>;
}

impl Wire for u64 {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.key(key);
        push_u64(w.buf, *self);
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        let text = f.bare(key)?;
        // `str::parse` also takes a leading `+` or `0`; the writer never
        // writes either, so only canonical decimal reads back.
        match text.parse() {
            Ok(n) if text == "0" || !text.starts_with(['+', '0']) => Ok(n),
            _ => Err(ParseError::new(format!("field {key:?} is not a number"))),
        }
    }
}

impl Wire for u32 {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        u64::from(*self).write(w, key);
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        u32::try_from(u64::read(f, key)?)
            .map_err(|_| ParseError::new(format!("field {key:?} overflows u32")))
    }
}

/// Written in `Display` form, the shortest that parses back to the same
/// value; read with `str::parse`, so the value survives byte-identically.
impl Wire for f64 {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.key(key);
        push_f64(w.buf, *self);
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        f.bare(key)?
            .parse()
            .map_err(|_| ParseError::new(format!("field {key:?} is not a number")))
    }
}

impl Wire for String {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.str(key, self);
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        f.str(key).map(Cow::into_owned)
    }
}

/// An interned endpoint: written as its text, so the line is the same as
/// for a `String`; each parsed line gets its own allocation.
impl Wire for Arc<str> {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.str(key, self);
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        f.str(key).map(|s| Arc::from(&*s))
    }
}

impl Wire for bool {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.key(key);
        w.buf.push_str(if *self { "true" } else { "false" });
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        match f.bare(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(ParseError::new(format!("field {key:?} is not a bool"))),
        }
    }
}

impl Wire for OutcomeCode {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.str(key, self.as_str());
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        let s = f.str(key)?;
        OutcomeCode::parse(&s).ok_or_else(|| ParseError::new(format!("unknown outcome {s:?}")))
    }
}

impl Wire for FaultClass {
    #[inline]
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.str(key, self.as_str());
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        let s = f.str(key)?;
        FaultClass::parse(&s).ok_or_else(|| ParseError::new(format!("unknown fault {s:?}")))
    }
}

/// Appends `v` in decimal: its digits, least significant first, are
/// collected on the stack and written straight into `out`, with no
/// intermediate `String`.
#[inline]
pub(crate) fn push_u64(out: &mut String, v: u64) {
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
        out.push(char::from(d));
    }
}

/// Appends `v` in its `Display` form: the shortest decimal that parses
/// back to `v`.
#[inline]
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{v}");
}

/// The number of decimal digits [`push_u64`] writes for `v`.
pub(crate) fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A [`Recorder`] that appends one canonical JSONL line per event.
///
/// `stable` mode keeps only replay-stable events
/// ([`EventKind::replay_stable`]) so the log survives crash/resume
/// byte-identical; `new` keeps everything, page fetches and all.
///
/// A failed write stops the recorder: it keeps the error, writes nothing
/// more, and [`finish`](Self::finish) returns it to the log's owner.
pub struct JsonlRecorder<W: Write> {
    out: W,
    stable_only: bool,
    written: u64,
    /// The line being written, newline included. Each event's line is
    /// built over the previous one's bytes, so the recorder allocates
    /// only when a line is longer than every line before it.
    line: String,
    /// The first failed write, after which nothing more is written.
    failed: Option<io::Error>,
}

impl<W: Write> JsonlRecorder<W> {
    /// Records the complete event stream.
    pub fn new(out: W) -> Self {
        Self {
            out,
            stable_only: false,
            written: 0,
            line: String::new(),
            failed: None,
        }
    }

    /// Records only replay-stable events.
    pub fn stable(out: W) -> Self {
        Self {
            stable_only: true,
            ..Self::new(out)
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

    /// Flushes the writer and returns it, or the first write error: a log
    /// that lost a line is an error, not a shorter log.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        if self.failed.is_some() || (self.stable_only && !event.kind.replay_stable()) {
            return;
        }
        self.line.clear();
        push_line(event, &mut self.line);
        self.line.push('\n');
        match self.out.write_all(self.line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.failed = Some(e),
        }
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

    /// `to_line` of each [`sample_events`] entry, byte for byte: key
    /// order, key names and value spelling are part of the format.
    #[test]
    fn sample_events_encode_to_pinned_lines() {
        let expected = [
            r#"{"t":0,"ev":"campaign_begin","seed":7,"n_jobs":120,"n_workers":8}"#,
            r#"{"t":0,"ev":"worker_begin","worker":0}"#,
            r#"{"t":97,"ev":"job_begin","tag":41,"endpoint":"centurylink/billings"}"#,
            r#"{"t":97,"ev":"attempt_begin","tag":41,"attempt":1,"worker":0,"endpoint":"centurylink/billings"}"#,
            r#"{"t":150,"ev":"page_fetch_begin","tag":41,"attempt":1,"fetch":0}"#,
            r#"{"t":45150,"ev":"page_fetch_end","tag":41,"attempt":1,"fetch":0,"duration_ms":45000}"#,
            r#"{"t":45200,"ev":"fault_injected","endpoint":"centurylink/billings","fault":"timeout"}"#,
            r#"{"t":46000,"ev":"attempt_end","tag":41,"attempt":1,"worker":0,"endpoint":"centurylink/billings","outcome":"failed","duration_ms":45903,"steps":2}"#,
            r#"{"t":46000,"ev":"retry","tag":41,"next_attempt":2,"delay_ms":12000}"#,
            r#"{"t":46000,"ev":"breaker_trip","endpoint":"centurylink/billings"}"#,
            r#"{"t":46500,"ev":"breaker_defer","tag":42,"endpoint":"centurylink/billings","until_ms":58000}"#,
            r#"{"t":47000,"ev":"shed_cut","limit":4}"#,
            r#"{"t":60000,"ev":"alert_fired","rule":"hit_rate","exemplars":"centurylink/billings:2a@45000"}"#,
            r#"{"t":84000,"ev":"alert_resolved","rule":"hit_rate"}"#,
            r#"{"t":90000,"ev":"shed_raise","limit":5}"#,
            r#"{"t":92000,"ev":"drift_suspected","tag":41,"endpoint":"centurylink/billings"}"#,
            r#"{"t":92000,"ev":"rebootstrap_started","endpoint":"centurylink/billings"}"#,
            r#"{"t":92000,"ev":"template_swapped","endpoint":"centurylink/billings","generation":2}"#,
            r#"{"t":92000,"ev":"rebootstrap_completed","endpoint":"centurylink/billings","confidence_pct":95}"#,
            r#"{"t":93000,"ev":"serve_lookup_end","tag":9001,"shard":3,"endpoint":"serve/billings/att","outcome":"plans","cache_hit":true,"duration_ms":4}"#,
            r#"{"t":93500,"ev":"cache_evicted","shard":3,"key":"plans/billings/att/77"}"#,
            r#"{"t":94000,"ev":"serve_shed","shard":3,"endpoint":"serve/billings/att"}"#,
            r#"{"t":95000,"ev":"stall_reclaimed","tag":43,"worker":2}"#,
            r#"{"t":95000,"ev":"journal_replay","tag":44,"attempt":1}"#,
            r#"{"t":99000,"ev":"job_end","tag":41,"outcome":"plans","attempts":2,"dead_lettered":false}"#,
            r#"{"t":100000,"ev":"worker_end","worker":0}"#,
            r#"{"t":100000,"ev":"campaign_end","makespan_ms":100000}"#,
        ];
        let events = sample_events();
        assert_eq!(events.len(), expected.len());
        for (event, line) in events.iter().zip(expected) {
            assert_eq!(to_line(event), line);
        }
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
            r#"{"t":1,"ev":"shed_cut","limit":4294967296}"#,
            r#"{"t":1,"ev":"job_end","tag":1,"outcome":"maybe","attempts":1,"dead_lettered":false}"#,
            r#"{"t":1,"ev":"fault_injected","endpoint":"e","fault":"melt"}"#,
            r#"{"t":1,"ev":"attempt_end","tag":1,"attempt":1,"worker":0,"endpoint":"e","duration_ms":5,"outcome":"plans","steps":1}"#,
            r#"{"t":1,"ev":"shed_cut","worker":4}"#,
            "{\"t\":1,\"ev\":\"breaker_trip\",\"endpoint\":\"a\nb\"}",
            r#"{"t":1,"ev":"breaker_trip","endpoint":"a\u000ab"}"#,
            r#"{"t":1,"ev":"breaker_trip","endpoint":"a\u001Fb"}"#,
            r#"{"t":1,"ev":"breaker_trip","endpoint":"a\u0041b"}"#,
            r#"{"t":1,"ev":"breaker_trip","endpoint":"a\/b"}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    /// The strict reader's messages are part of its contract.
    #[test]
    fn rejections_name_the_offending_field() {
        for (bad, message) in [
            (
                r#"{"t":1,"ev":"shed_cut","limit":4294967296}"#,
                r#"field "limit" overflows u32"#,
            ),
            (
                r#"{"t":1,"ev":"job_end","tag":1,"outcome":"maybe","attempts":1,"dead_lettered":false}"#,
                r#"unknown outcome "maybe""#,
            ),
            (
                r#"{"t":1,"ev":"fault_injected","endpoint":"e","fault":"melt"}"#,
                r#"unknown fault "melt""#,
            ),
            (
                r#"{"t":1,"ev":"shed_cut","worker":4}"#,
                r#"expected field "limit", found "worker""#,
            ),
            (r#"{"t":1,"ev":"shed_cut"}"#, r#"missing field "limit""#),
            (
                r#"{"t":1,"ev":"shed_cut","limit":4,"extra":1}"#,
                r#"unexpected extra field "extra""#,
            ),
            (
                r#"{"t":1,"ev":"martian_landing"}"#,
                r#"unknown event name "martian_landing""#,
            ),
            (
                r#"{"t":1,"ev":"shed_cut","limit":"four"}"#,
                r#"field "limit" is not a number"#,
            ),
        ] {
            assert_eq!(parse_line(bad).map_err(|e| e.message), Err(message.into()));
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

    /// The writer has room for the first line and part of the second, so
    /// the second line's write fails: the recorder keeps that error for
    /// `finish` and counts no line after it.
    #[test]
    fn a_failed_write_stops_the_recorder_and_finish_returns_it() {
        let events = sample_events();
        let mut room = vec![0u8; to_line(&events[0]).len() + 11];
        let mut rec = JsonlRecorder::new(&mut room[..]);
        for event in &events {
            rec.record(event);
        }
        assert_eq!(rec.written(), 1, "only the first line fit");
        let err = rec.finish().expect_err("finish reports the failed write");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// A control character in a caller-supplied string is escaped, so the
    /// event stays on one line and reads back unchanged.
    #[test]
    fn control_characters_stay_on_one_line() {
        let event = Event {
            at: SimTime::from_millis(5),
            kind: EventKind::JobBegin {
                tag: 1,
                endpoint: "a\nb\tc\r\u{1}d\u{7f}".into(),
            },
        };
        let mut rec = JsonlRecorder::new(Vec::new());
        rec.record(&event);
        let text = String::from_utf8(rec.into_inner()).unwrap();
        assert_eq!(
            text,
            "{\"t\":5,\"ev\":\"job_begin\",\"tag\":1,\"endpoint\":\"a\\nb\\tc\\u000d\\u0001d\u{7f}\"}\n"
        );
        let line = text.trim_end_matches('\n');
        assert_eq!(parse_line(line).unwrap(), event);
        assert_eq!(to_line(&parse_line(line).unwrap()), line);
    }
}
