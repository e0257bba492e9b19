//! Write-ahead job journal: the crash-recovery substrate for campaigns.
//!
//! A multi-day scraping campaign dies for boring reasons — OOM kills,
//! redeploys, power loss — and restarting from scratch re-queries tens of
//! thousands of addresses. The journal makes campaigns resumable: the
//! orchestrator appends one entry per *finished attempt* (write-ahead of
//! folding the result into its metrics), and on restart replays the
//! journal instead of re-scraping journaled work.
//!
//! ## On-disk format
//!
//! ```text
//! [magic "BQJ1"]  [frame]*
//! frame    = [len: u32 LE] [crc: u32 LE (CRC-32/IEEE of payload)] [payload]
//! payload  = [kind: u8] [field]* (little-endian throughout)
//! ```
//!
//! Each entry kind is declared once, in the `journal_schema!` invocation
//! below: its kind byte (1 campaign manifest, 2 attempt record, 3 template
//! re-bootstrap), its struct, and its fields in wire order. Each field
//! type's `Field` impl says how it is written: integers as themselves, a
//! flag as one byte (bit 0), a duration as u64 milliseconds, a string as
//! a u32 byte length and its UTF-8 bytes, an outcome as a code byte that
//! `Plans` follows with a u32 plan count and one (download, upload,
//! price) triple of f64 bit patterns per plan.
//!
//! The first frame must be the manifest; it pins the campaign identity
//! (seed, config fingerprint, job-list digest) so a journal can never be
//! replayed against a different campaign than the one that wrote it.
//!
//! ## Corruption semantics
//!
//! Two read paths with different trust models:
//!
//! * [`Journal::from_bytes`] / [`read_entries`] — **strict**: a torn final
//!   frame, a CRC mismatch anywhere, or a malformed payload is a typed
//!   [`JournalError`], never a panic. Used by tooling that audits journals.
//! * [`Journal::open`] / [`recover`] — **tolerant of exactly one failure
//!   mode**: a final frame whose header or payload extends past EOF is the
//!   signature of a crash mid-append, so it is dropped (and truncated away
//!   on the next append). A CRC mismatch on a *complete* frame, or any bad
//!   frame with valid data after it, is still a hard error — that is
//!   corruption, not a torn write.

use crate::client::{BqtConfig, WaitPolicy};
use crate::driver::{QueryJob, QueryOutcome, QueryRecord};
use crate::exec::ShardFailed;
use crate::scrape::ScrapedPlan;
use bbsim_net::{fnv1a, mix64, SimDuration, SimTime};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// File magic: "BQJ1" (BQT Journal, format 1).
pub const MAGIC: [u8; 4] = *b"BQJ1";

/// Typed journal failures. Corrupt input is reported, never panicked on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Underlying I/O failure (message carried; `std::io::Error` is not
    /// `Clone`/`PartialEq`).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The final frame is incomplete — a torn write. Strict readers
    /// reject it; [`recover`] drops it.
    TornTail,
    /// A frame's checksum does not match its payload.
    BadCrc { frame: usize },
    /// A frame's payload is malformed (short, or an unknown code).
    Malformed { frame: usize, what: &'static str },
    /// A frame declares an implausible length (guards allocation).
    OversizedFrame { frame: usize, len: u32 },
    /// An entry kind byte this version does not know.
    UnknownKind { frame: usize, kind: u8 },
    /// The journal has entries but no leading manifest.
    MissingManifest,
    /// A manifest appeared somewhere other than frame 0.
    DuplicateManifest,
    /// The journal's manifest does not match the campaign being run.
    ManifestMismatch {
        expected: CampaignManifest,
        found: CampaignManifest,
    },
    /// A shard of a sharded run panicked (a broken service, say). Its
    /// journal segment holds what it finished before the panic, so a
    /// re-run resumes it like a crashed shard.
    ShardFailed(ShardFailed),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
            JournalError::BadMagic => write!(f, "not a BQJ1 journal (bad magic)"),
            JournalError::TornTail => write!(f, "torn final frame (crash mid-append)"),
            JournalError::BadCrc { frame } => write!(f, "CRC mismatch in frame {frame}"),
            JournalError::Malformed { frame, what } => {
                write!(f, "malformed frame {frame}: {what}")
            }
            JournalError::OversizedFrame { frame, len } => {
                write!(f, "frame {frame} declares implausible length {len}")
            }
            JournalError::UnknownKind { frame, kind } => {
                write!(f, "frame {frame} has unknown entry kind {kind}")
            }
            JournalError::MissingManifest => write!(f, "journal has no campaign manifest"),
            JournalError::DuplicateManifest => write!(f, "manifest outside frame 0"),
            JournalError::ManifestMismatch { expected, found } => write!(
                f,
                "journal belongs to a different campaign \
                 (expected {expected:?}, found {found:?})"
            ),
            JournalError::ShardFailed(failed) => failed.fmt(f),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<ShardFailed> for JournalError {
    fn from(failed: ShardFailed) -> Self {
        JournalError::ShardFailed(failed)
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// CRC-32/IEEE (the zlib polynomial), slicing-by-8: eight bytes per step
/// through eight 256-entry tables built at compile time. Frames are small,
/// but recovery checks every frame of every shard, about 6 MB per quick
/// replay, where the tables cost about a tenth of the bitwise loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// it; `CRC_TABLES[k][b]` continues that with `k` zero bytes, so one
/// lookup per byte of an 8-byte block lands each byte at its distance
/// from the block's end.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Declares every journal entry kind once: its kind byte, its [`Entry`]
/// variant and struct, the name a malformed payload of that kind carries,
/// and its fields in wire order. From that the macro generates each
/// struct, the [`Entry`] enum, the payload encoder and the kind dispatch
/// with its decoder. A payload is the kind byte, then each field through
/// its `Field` impl; the decoder reads the fields in the same order off a
/// [`Cursor`] and rejects a payload with bytes left over.
macro_rules! journal_schema {
    (
        $(
            $(#[$meta:meta])*
            $kind:literal => $variant:ident($name:ident) $what:literal {
                $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
            }
        )*
    ) => {
        $(
            $(#[$meta])*
            pub struct $name {
                $( $(#[$fmeta])* pub $field: $ty, )*
            }
        )*

        /// One decoded journal entry.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Entry {
            $( $variant($name), )*
        }

        impl Entry {
            /// Appends the entry's payload to `out`.
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( Entry::$variant(entry) => {
                        out.push($kind);
                        $( Field::put(&entry.$field, out); )*
                    } )*
                }
            }

            /// Decodes the payload of frame `frame`.
            fn decode(frame: usize, payload: &[u8]) -> Result<Self, JournalError> {
                let Some((&kind, rest)) = payload.split_first() else {
                    return Err(JournalError::Malformed { frame, what: "empty payload" });
                };
                Ok(match kind {
                    $( $kind => {
                        let mut cur = Cursor { rest, frame, what: $what };
                        let entry = $name { $( $field: Field::take(&mut cur)?, )* };
                        cur.finish()?;
                        Entry::$variant(entry)
                    } )*
                    kind => return Err(JournalError::UnknownKind { frame, kind }),
                })
            }
        }
    };
}

journal_schema! {
    /// Identity of a campaign: what must match for a journal to be resumable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    1 => Manifest(CampaignManifest) "manifest length" {
        /// The orchestrator seed.
        pub seed: u64,
        /// Fingerprint of the driver configuration ([`config_fingerprint`]).
        pub config_hash: u64,
        /// Digest of the job list ([`CampaignManifest::digest_jobs`]).
        pub job_digest: u64,
        /// Number of jobs in the campaign.
        pub n_jobs: u32,
    }

    /// One journaled attempt: everything needed to reconstruct the
    /// [`QueryRecord`] without re-scraping.
    #[derive(Debug, Clone, PartialEq)]
    2 => Attempt(AttemptEntry) "attempt length" {
        pub tag: u64,
        /// 1-based attempt number within the job's retry budget.
        pub attempt: u32,
        pub duration: SimDuration,
        pub steps: u32,
        pub saw_unrecognized_page: bool,
        pub outcome: QueryOutcome,
    }

    /// One journaled template re-bootstrap: the swap learned for an
    /// endpoint's `occurrence`-th quarantine. A resumed run that re-derives
    /// the same quarantine applies this swap directly instead of re-probing,
    /// so crash + resume mid-drift stays byte-identical without replaying
    /// probe traffic.
    #[derive(Debug, Clone, PartialEq, Eq)]
    3 => Rebootstrap(RebootstrapEntry) "rebootstrap length" {
        /// The quarantined endpoint.
        pub endpoint: String,
        /// 1-based quarantine number for this endpoint within the campaign.
        pub occurrence: u32,
        /// Learned template generation (1-based index into
        /// [`GENERATIONS`](crate::scrape::GENERATIONS); 0 means the probe
        /// burst learned nothing and the current templates were kept).
        pub generation: u32,
        /// Fraction of the probe burst the learned templates recognized, in
        /// whole percent.
        pub confidence_pct: u32,
    }
}

impl CampaignManifest {
    /// Order-sensitive digest of the job list — same jobs in the same
    /// order, same digest.
    pub fn digest_jobs(jobs: &[QueryJob]) -> u64 {
        let mut acc = 0x4A4F_4253u64; // "JOBS"
        for job in jobs {
            acc = mix64(
                acc,
                &[
                    fnv1a(job.endpoint.as_bytes()),
                    fnv1a(job.input_line.as_bytes()),
                    job.tag,
                ],
            );
        }
        mix64(acc, &[jobs.len() as u64])
    }
}

/// Fingerprint of every [`BqtConfig`] knob that affects query outcomes or
/// timing, plus the orchestrator shape. Template sets are identified by
/// their generation pointer-independent content hash: the detection
/// behaviour lives in the driver config's other fields and the template
/// *generation* the campaign was started with, which callers fold in via
/// `extra`.
pub fn config_fingerprint(config: &BqtConfig, extra: &[u64]) -> u64 {
    let measure_code = config.measure as u64;
    let (wait_code, wait_ms) = match config.wait {
        WaitPolicy::MaxObserved { pause } => (0u64, pause.as_millis()),
        WaitPolicy::Adaptive { poll } => (1u64, poll.as_millis()),
    };
    let mut h = mix64(
        0x000C_0F16_u64,
        &[
            measure_code,
            config.match_threshold.to_bits(),
            config.max_steps as u64,
            config.transient_retries as u64,
            wait_code,
            wait_ms,
            config.rate_limit_backoff.as_millis(),
        ],
    );
    for &e in extra {
        h = mix64(h, &[e]);
    }
    h
}

impl AttemptEntry {
    /// Builds the entry for attempt `attempt` from a finished record.
    pub fn from_record(rec: &QueryRecord, attempt: u32) -> Self {
        Self {
            tag: rec.tag,
            attempt,
            outcome: rec.outcome.clone(),
            duration: rec.duration,
            steps: rec.steps,
            saw_unrecognized_page: rec.saw_unrecognized_page,
        }
    }

    /// Reconstructs the record this entry was written from.
    pub fn to_record(&self) -> QueryRecord {
        QueryRecord {
            tag: self.tag,
            outcome: self.outcome.clone(),
            duration: self.duration,
            steps: self.steps,
            saw_unrecognized_page: self.saw_unrecognized_page,
        }
    }
}

/// The unread rest of one payload. Every read takes bytes off its front
/// after checking they are there, so a corrupt journal is a
/// [`JournalError::Malformed`] frame, never a panic.
struct Cursor<'a> {
    rest: &'a [u8],
    frame: usize,
    /// What a payload of this kind that runs short or long is called.
    what: &'static str,
}

impl<'a> Cursor<'a> {
    fn malformed(&self, what: &'static str) -> JournalError {
        JournalError::Malformed {
            frame: self.frame,
            what,
        }
    }

    /// The next `len` bytes.
    fn bytes(&mut self, len: usize) -> Result<&'a [u8], JournalError> {
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or_else(|| self.malformed(self.what))?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], JournalError> {
        let (head, rest) = self
            .rest
            .split_first_chunk()
            .ok_or_else(|| self.malformed(self.what))?;
        self.rest = rest;
        Ok(*head)
    }

    /// Ends the payload: bytes left over are as malformed as bytes missing.
    fn finish(self) -> Result<(), JournalError> {
        match self.rest {
            [] => Ok(()),
            _ => Err(self.malformed(self.what)),
        }
    }
}

/// How one field type travels in a payload: `put` appends it, `take`
/// reads it back.
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError>;
}

macro_rules! le_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
                cur.array().map(<$ty>::from_le_bytes)
            }
        }
    )*};
}

le_field!(u8, u32, u64);

/// A flag byte; only bit 0 is read.
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
        u8::take(cur).map(|b| b & 1 != 0)
    }
}

/// The bit pattern, so every value round-trips exactly, NaN payloads and
/// −0.0 included.
impl Field for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
        u64::take(cur).map(f64::from_bits)
    }
}

/// Whole milliseconds.
impl Field for SimDuration {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_millis().put(out);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
        u64::take(cur).map(SimDuration::from_millis)
    }
}

/// A u32 byte length, then the UTF-8 bytes.
impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
        let len = u32::take(cur)? as usize;
        let bytes = cur.bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| cur.malformed("string utf-8"))
    }
}

/// Download, upload, price.
impl Field for ScrapedPlan {
    fn put(&self, out: &mut Vec<u8>) {
        self.download_mbps.put(out);
        self.upload_mbps.put(out);
        self.price_usd.put(out);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
        Ok(ScrapedPlan {
            download_mbps: f64::take(cur)?,
            upload_mbps: f64::take(cur)?,
            price_usd: f64::take(cur)?,
        })
    }
}

/// An outcome code byte; `Plans` (code 5) follows it with a u32 plan
/// count and the plans.
impl Field for QueryOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        let code: u8 = match self {
            QueryOutcome::NoService => 0,
            QueryOutcome::Unserviceable => 1,
            QueryOutcome::Blocked => 2,
            QueryOutcome::Failed => 3,
            QueryOutcome::Stalled => 4,
            QueryOutcome::Plans(_) => 5,
        };
        code.put(out);
        if let QueryOutcome::Plans(plans) = self {
            (plans.len() as u32).put(out);
            for plan in plans {
                plan.put(out);
            }
        }
    }

    // Inlined into the frame scan: as a call, it returned every
    // attempt's outcome through memory and made decoding 30% slower.
    #[inline]
    fn take(cur: &mut Cursor<'_>) -> Result<Self, JournalError> {
        Ok(match u8::take(cur)? {
            0 => QueryOutcome::NoService,
            1 => QueryOutcome::Unserviceable,
            2 => QueryOutcome::Blocked,
            3 => QueryOutcome::Failed,
            4 => QueryOutcome::Stalled,
            5 => {
                let n = u32::take(cur)? as usize;
                // A plan is three f64s: the count must fit in what is
                // left before anything is allocated for it.
                if n > cur.rest.len() / (3 * 8) {
                    return Err(cur.malformed(cur.what));
                }
                let mut plans = Vec::with_capacity(n);
                for _ in 0..n {
                    plans.push(ScrapedPlan::take(cur)?);
                }
                QueryOutcome::Plans(plans)
            }
            _ => return Err(cur.malformed("outcome code")),
        })
    }
}

/// Appends one frame to `buf`: the header reserved, the payload appended
/// by `write_payload`, then its length and CRC patched into the header.
fn push_frame(buf: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 8]);
    write_payload(buf);
    let (header, payload) = buf[start..].split_at_mut(8);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Upper bound on a sane frame (a Plans entry with thousands of plans is
/// still far below this); guards against allocating on garbage lengths.
const MAX_FRAME: u32 = 1 << 20;

/// Strict decode of a whole journal byte string: every frame must be
/// complete and checksum-clean. Any defect — including a torn tail — is a
/// typed error.
pub fn read_entries(bytes: &[u8]) -> Result<Vec<Entry>, JournalError> {
    let (entries, valid_len, tail) = scan(bytes)?;
    if let Some(torn) = tail {
        debug_assert!(valid_len < bytes.len());
        return Err(torn);
    }
    Ok(entries)
}

/// Tolerant decode: drops a torn final frame (returning how many leading
/// bytes are valid, so the writer can truncate), but still fails hard on
/// CRC mismatches and malformed complete frames.
pub fn recover(bytes: &[u8]) -> Result<(Vec<Entry>, usize), JournalError> {
    let (entries, valid_len, _tail) = scan(bytes)?;
    Ok((entries, valid_len))
}

/// Shared scanner: walks frames, returning decoded entries, the byte
/// length of the valid prefix, and `Some(TornTail)` if a torn final frame
/// was dropped. Hard errors (bad magic, bad CRC, malformed complete
/// frames, frames followed by more data) are returned as `Err`.
fn scan(bytes: &[u8]) -> Result<(Vec<Entry>, usize, Option<JournalError>), JournalError> {
    let Some(mut rest) = bytes.strip_prefix(&MAGIC) else {
        return Err(JournalError::BadMagic);
    };
    let mut entries = Vec::new();
    let mut frame = 0usize;
    while !rest.is_empty() {
        let at = bytes.len() - rest.len();
        // A header or payload that runs past EOF is a torn final frame:
        // by construction nothing follows it. An absurd length usually
        // *is* a torn or garbage header, so it is only oversized when it
        // does not run past EOF.
        let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], body)) = rest.split_first_chunk() else {
            return Ok((entries, at, Some(JournalError::TornTail)));
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        let Some((payload, after)) = body.split_at_checked(len as usize) else {
            return Ok((entries, at, Some(JournalError::TornTail)));
        };
        if len > MAX_FRAME {
            return Err(JournalError::OversizedFrame { frame, len });
        }
        if crc32(payload) != u32::from_le_bytes([c0, c1, c2, c3]) {
            // A complete frame with a bad sum is corruption wherever it
            // sits — a torn append can only damage the *end* of the file,
            // and a torn frame is by definition incomplete.
            return Err(JournalError::BadCrc { frame });
        }
        let entry = Entry::decode(frame, payload)?;
        match (&entry, frame) {
            (Entry::Manifest(_), 0) => {}
            (Entry::Manifest(_), _) => return Err(JournalError::DuplicateManifest),
            (Entry::Attempt(_) | Entry::Rebootstrap(_), 0) => {
                return Err(JournalError::MissingManifest)
            }
            (Entry::Attempt(_) | Entry::Rebootstrap(_), _) => {}
        }
        entries.push(entry);
        rest = after;
        frame += 1;
    }
    Ok((entries, bytes.len(), None))
}

/// Where appended frames go.
enum Sink {
    /// Frames accumulate in a buffer (tests, in-process resume).
    Memory(Vec<u8>),
    /// Frames append to a file, flushed per entry; each is built in
    /// `frame` first.
    File {
        file: std::fs::File,
        path: PathBuf,
        frame: Vec<u8>,
    },
}

/// An open journal: decoded state plus an append sink.
pub struct Journal {
    sink: Sink,
    manifest: Option<CampaignManifest>,
    /// Replay index: `(tag, attempt)` → position in `attempts`.
    index: HashMap<(u64, u32), usize>,
    attempts: Vec<AttemptEntry>,
    /// Template re-bootstraps in append order; looked up by
    /// `(endpoint, occurrence)` on resume.
    rebootstraps: Vec<RebootstrapEntry>,
    /// The simulated crash point; never persisted.
    crash_at: Option<SimTime>,
}

impl Journal {
    /// A journal appending to `sink`, holding `entries` already there.
    fn new(sink: Sink, entries: Vec<Entry>) -> Self {
        let mut j = Self {
            sink,
            manifest: None,
            index: HashMap::new(),
            attempts: Vec::new(),
            rebootstraps: Vec::new(),
            crash_at: None,
        };
        for entry in entries {
            j.apply(entry);
        }
        j
    }

    /// A fresh, empty in-memory journal.
    pub fn in_memory() -> Self {
        Self::new(Sink::Memory(MAGIC.to_vec()), Vec::new())
    }

    /// Strictly decodes `bytes` into an in-memory journal positioned to
    /// append after the last entry.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let entries = read_entries(bytes)?;
        Ok(Self::new(Sink::Memory(bytes.to_vec()), entries))
    }

    /// Opens (or creates) a file journal.
    ///
    /// An existing file is read with [`recover`]: a torn final frame is
    /// truncated away, anything worse is a typed error. A new file is
    /// created with the magic written.
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let entries = if bytes.is_empty() {
            // New, or created-then-crashed before the magic.
            file.write_all(&MAGIC)?;
            file.flush()?;
            Vec::new()
        } else {
            let (entries, valid_len) = recover(&bytes)?;
            if valid_len < bytes.len() {
                file.set_len(valid_len as u64)?;
            }
            file.seek(SeekFrom::End(0))?;
            entries
        };
        let sink = Sink::File {
            file,
            path: path.to_path_buf(),
            frame: Vec::new(),
        };
        Ok(Self::new(sink, entries))
    }

    /// Simulates the process dying once virtual time passes `at`: a
    /// campaign run over this journal returns `Ok(None)` and the journal
    /// retains exactly the work that finished by then. The crash point is
    /// not written, so the journal reopened from its bytes or its file
    /// resumes with none.
    pub fn crash_at(mut self, at: SimTime) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// The journal's campaign manifest, if one has been written.
    pub fn manifest(&self) -> Option<&CampaignManifest> {
        self.manifest.as_ref()
    }

    /// Number of journaled attempts.
    pub fn len(&self) -> usize {
        self.attempts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attempts.is_empty()
    }

    /// For a file journal, its path.
    pub fn path(&self) -> Option<&Path> {
        match &self.sink {
            Sink::File { path, .. } => Some(path),
            Sink::Memory(_) => None,
        }
    }

    /// For an in-memory journal, the raw bytes (what a file would hold).
    pub fn bytes(&self) -> Option<&[u8]> {
        match &self.sink {
            Sink::Memory(buf) => Some(buf),
            Sink::File { .. } => None,
        }
    }

    /// Writes the manifest into a fresh journal, or validates it against
    /// the manifest of a journal being resumed. A mismatch means the
    /// caller is trying to resume the wrong campaign.
    pub fn bind_manifest(&mut self, manifest: CampaignManifest) -> Result<(), JournalError> {
        match self.manifest {
            Some(found) if found == manifest => Ok(()),
            Some(found) => Err(JournalError::ManifestMismatch {
                expected: manifest,
                found,
            }),
            None => self.write(Entry::Manifest(manifest)),
        }
    }

    /// Appends one finished attempt, flushing before returning so a crash
    /// immediately after loses nothing.
    pub fn append(&mut self, entry: AttemptEntry) -> Result<(), JournalError> {
        self.write(Entry::Attempt(entry))
    }

    /// Appends one completed template re-bootstrap, flushed like an
    /// attempt: written ahead of applying the swap to the report.
    pub fn append_rebootstrap(&mut self, entry: RebootstrapEntry) -> Result<(), JournalError> {
        self.write(Entry::Rebootstrap(entry))
    }

    /// The one write path: frames `entry` onto the sink, flushed, then
    /// applies it.
    fn write(&mut self, entry: Entry) -> Result<(), JournalError> {
        assert!(
            self.manifest.is_some() || matches!(entry, Entry::Manifest(_)),
            "bind_manifest must precede appends"
        );
        let encode = |payload: &mut Vec<u8>| entry.encode(payload);
        match &mut self.sink {
            Sink::Memory(buf) => push_frame(buf, encode),
            Sink::File { file, frame, .. } => {
                frame.clear();
                push_frame(frame, encode);
                file.write_all(frame)?;
                file.flush()?;
            }
        }
        self.apply(entry);
        Ok(())
    }

    /// Folds one entry, written or read back, into the decoded state.
    fn apply(&mut self, entry: Entry) {
        match entry {
            Entry::Manifest(m) => self.manifest = Some(m),
            Entry::Attempt(a) => {
                self.index.insert((a.tag, a.attempt), self.attempts.len());
                self.attempts.push(a);
            }
            Entry::Rebootstrap(r) => self.rebootstraps.push(r),
        }
    }

    /// Looks up the journaled result of `(tag, attempt)`, if that attempt
    /// finished before the crash.
    pub fn replay(&self, tag: u64, attempt: u32) -> Option<&AttemptEntry> {
        self.index.get(&(tag, attempt)).map(|&i| &self.attempts[i])
    }

    /// Looks up the journaled swap for `endpoint`'s `occurrence`-th
    /// quarantine, if it completed before the crash.
    pub fn rebootstrap(&self, endpoint: &str, occurrence: u32) -> Option<&RebootstrapEntry> {
        self.rebootstraps
            .iter()
            .find(|r| r.endpoint == endpoint && r.occurrence == occurrence)
    }

    /// All journaled attempts in append order.
    pub fn attempts(&self) -> &[AttemptEntry] {
        &self.attempts
    }

    /// All journaled template re-bootstraps in append order.
    pub fn rebootstraps(&self) -> &[RebootstrapEntry] {
        &self.rebootstraps
    }
}

/// Where a campaign's loop writes each finished attempt and template swap
/// ahead of folding it into the report, and why the run can stop short.
/// A campaign without a journal ([`Unjournaled`]) cannot: it has nothing
/// to write and no crash point, so it always reaches its report.
pub(crate) trait WriteAhead {
    /// Why a run stopped before its report.
    type Halt;

    /// The journal whose entries the run replays, if any.
    fn replay_log(&self) -> Option<&Journal>;

    /// Stops the run once virtual time `now` passes the crash point.
    fn check_crash(&self, now: SimTime) -> Result<(), Self::Halt>;

    /// Writes `entry()` for work finished at `done`, unless the crash
    /// point came first: a real crash loses the in-flight work.
    fn write_ahead(
        &mut self,
        done: SimTime,
        entry: impl FnOnce() -> Entry,
    ) -> Result<(), Self::Halt>;
}

/// The log of a campaign run without a journal: replays nothing, writes
/// nothing, never crashes.
pub(crate) struct Unjournaled;

impl WriteAhead for Unjournaled {
    type Halt = Infallible;

    fn replay_log(&self) -> Option<&Journal> {
        None
    }

    fn check_crash(&self, _now: SimTime) -> Result<(), Infallible> {
        Ok(())
    }

    fn write_ahead(
        &mut self,
        _done: SimTime,
        _entry: impl FnOnce() -> Entry,
    ) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Why a journaled run stopped before its report.
pub(crate) enum Halt {
    /// Virtual time passed the journal's crash point.
    Crashed,
    /// The journal failed to write.
    Failed(JournalError),
}

impl WriteAhead for Journal {
    type Halt = Halt;

    fn replay_log(&self) -> Option<&Journal> {
        Some(self)
    }

    fn check_crash(&self, now: SimTime) -> Result<(), Halt> {
        match self.crash_at {
            Some(crash) if now > crash => Err(Halt::Crashed),
            _ => Ok(()),
        }
    }

    fn write_ahead(&mut self, done: SimTime, entry: impl FnOnce() -> Entry) -> Result<(), Halt> {
        if self.crash_at.is_some_and(|crash| done > crash) {
            return Ok(());
        }
        self.write(entry()).map_err(Halt::Failed)
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("manifest", &self.manifest)
            .field("attempts", &self.attempts.len())
            .field("path", &self.path())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_bat::Dialect;

    fn manifest() -> CampaignManifest {
        CampaignManifest {
            seed: 7,
            config_hash: 0xABCD,
            job_digest: 0x1234,
            n_jobs: 10,
        }
    }

    fn attempt(tag: u64, n: u32, outcome: QueryOutcome) -> AttemptEntry {
        AttemptEntry {
            tag,
            attempt: n,
            outcome,
            duration: SimDuration::from_millis(1500 + tag),
            steps: 2,
            saw_unrecognized_page: tag.is_multiple_of(2),
        }
    }

    /// Appends `entry` to `bytes` as one frame.
    fn push_entry(bytes: &mut Vec<u8>, entry: Entry) {
        push_frame(bytes, |payload| entry.encode(payload));
    }

    fn sample_outcomes() -> Vec<QueryOutcome> {
        vec![
            QueryOutcome::NoService,
            QueryOutcome::Unserviceable,
            QueryOutcome::Blocked,
            QueryOutcome::Failed,
            QueryOutcome::Stalled,
            QueryOutcome::Plans(vec![
                ScrapedPlan {
                    download_mbps: 940.0,
                    upload_mbps: 35.5,
                    price_usd: 79.99,
                },
                ScrapedPlan {
                    download_mbps: 100.0,
                    upload_mbps: 10.0,
                    price_usd: 49.99,
                },
            ]),
        ]
    }

    #[test]
    fn round_trips_every_outcome_bit_exactly() {
        let mut j = Journal::in_memory();
        j.bind_manifest(manifest()).unwrap();
        for (i, o) in sample_outcomes().into_iter().enumerate() {
            j.append(attempt(i as u64, 1, o)).unwrap();
        }
        let bytes = j.bytes().unwrap().to_vec();
        let back = Journal::from_bytes(&bytes).unwrap();
        assert_eq!(back.manifest(), Some(&manifest()));
        assert_eq!(back.attempts(), j.attempts());
        // Replay is keyed by (tag, attempt).
        assert_eq!(back.replay(3, 1).unwrap().outcome, QueryOutcome::Failed);
        assert!(back.replay(3, 2).is_none());
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let job = |tag: u64, line: &str| QueryJob {
            endpoint: "cox/nola".into(),
            dialect: Dialect::DataAttr,
            input_line: line.into(),
            tag,
        };
        let a = vec![job(1, "1 Main St"), job(2, "2 Oak Ave")];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(
            CampaignManifest::digest_jobs(&a),
            CampaignManifest::digest_jobs(&b)
        );
        let mut c = a.clone();
        c[0].input_line = "1 Main Street".into();
        assert_ne!(
            CampaignManifest::digest_jobs(&a),
            CampaignManifest::digest_jobs(&c)
        );
        assert_eq!(
            CampaignManifest::digest_jobs(&a),
            CampaignManifest::digest_jobs(&a.clone())
        );
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = BqtConfig::paper_default(SimDuration::from_secs(60));
        let h = config_fingerprint(&base, &[]);
        assert_eq!(h, config_fingerprint(&base, &[]), "pure");
        let mut tweaked = base;
        tweaked.match_threshold = 0.9;
        assert_ne!(h, config_fingerprint(&tweaked, &[]));
        let mut tweaked = base;
        tweaked.max_steps = 7;
        assert_ne!(h, config_fingerprint(&tweaked, &[]));
        let adaptive = BqtConfig::adaptive(SimDuration::from_secs(2));
        assert_ne!(h, config_fingerprint(&adaptive, &[]));
        assert_ne!(h, config_fingerprint(&base, &[1]), "extras fold in");
    }

    #[test]
    fn torn_final_entry_is_strict_error_but_recoverable() {
        let mut j = Journal::in_memory();
        j.bind_manifest(manifest()).unwrap();
        j.append(attempt(1, 1, QueryOutcome::NoService)).unwrap();
        j.append(attempt(2, 1, QueryOutcome::Failed)).unwrap();
        let full = j.bytes().unwrap().to_vec();
        // Tear the final frame at several depths: mid-payload, mid-header.
        for cut in [full.len() - 1, full.len() - 10, full.len() - 33] {
            let torn = &full[..cut];
            assert_eq!(
                read_entries(torn).unwrap_err(),
                JournalError::TornTail,
                "cut at {cut}"
            );
            let (entries, valid) = recover(torn).unwrap();
            assert_eq!(entries.len(), 2, "manifest + first attempt survive");
            assert!(valid <= cut);
            // The surviving prefix is itself a clean journal.
            assert!(read_entries(&torn[..valid]).is_ok());
        }
    }

    #[test]
    fn bad_crc_mid_file_is_rejected_by_both_readers() {
        let mut j = Journal::in_memory();
        j.bind_manifest(manifest()).unwrap();
        j.append(attempt(1, 1, QueryOutcome::NoService)).unwrap();
        j.append(attempt(2, 1, QueryOutcome::Failed)).unwrap();
        let mut bytes = j.bytes().unwrap().to_vec();
        // Flip a payload byte inside the *first attempt* frame (frame 1):
        // right after the manifest frame's end. Locate it structurally.
        let manifest_frame_len = 8 + (1 + 8 * 3 + 4);
        let victim = MAGIC.len() + manifest_frame_len + 8 + 3;
        bytes[victim] ^= 0xFF;
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::BadCrc { frame: 1 }
        );
        assert_eq!(
            recover(&bytes).unwrap_err(),
            JournalError::BadCrc { frame: 1 },
            "mid-file corruption is not a torn tail"
        );
    }

    #[test]
    fn bad_magic_and_garbage_are_typed_errors() {
        assert_eq!(read_entries(b"").unwrap_err(), JournalError::BadMagic);
        assert_eq!(read_entries(b"BQJ").unwrap_err(), JournalError::BadMagic);
        assert_eq!(
            read_entries(b"NOPE\x00\x00\x00\x00").unwrap_err(),
            JournalError::BadMagic
        );
        // Valid magic then garbage that parses as an oversized complete
        // frame header.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4]);
        // Extends past EOF → reads as a torn tail, tolerated by recover.
        assert_eq!(read_entries(&bytes).unwrap_err(), JournalError::TornTail);
        let (entries, valid) = recover(&bytes).unwrap();
        assert!(entries.is_empty());
        assert_eq!(valid, MAGIC.len());
    }

    #[test]
    fn manifest_mismatch_is_rejected() {
        let mut j = Journal::in_memory();
        j.bind_manifest(manifest()).unwrap();
        let bytes = j.bytes().unwrap().to_vec();
        let mut resumed = Journal::from_bytes(&bytes).unwrap();
        // Same campaign: fine.
        resumed.bind_manifest(manifest()).unwrap();
        // Different seed: typed mismatch.
        let mut other = manifest();
        other.seed = 8;
        match resumed.bind_manifest(other).unwrap_err() {
            JournalError::ManifestMismatch { expected, found } => {
                assert_eq!(expected.seed, 8);
                assert_eq!(found.seed, 7);
            }
            e => panic!("wrong error {e:?}"),
        }
    }

    #[test]
    fn attempts_must_follow_a_manifest() {
        // Hand-build a journal whose first frame is an attempt.
        let mut bytes = MAGIC.to_vec();
        push_entry(
            &mut bytes,
            Entry::Attempt(attempt(1, 1, QueryOutcome::NoService)),
        );
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::MissingManifest
        );
        // And a second manifest mid-stream is rejected.
        let mut bytes = MAGIC.to_vec();
        push_entry(&mut bytes, Entry::Manifest(manifest()));
        push_entry(&mut bytes, Entry::Manifest(manifest()));
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::DuplicateManifest
        );
    }

    #[test]
    fn unknown_entry_kind_is_a_typed_error() {
        let mut bytes = MAGIC.to_vec();
        push_entry(&mut bytes, Entry::Manifest(manifest()));
        push_frame(&mut bytes, |payload| {
            payload.extend_from_slice(&[9, 1, 2, 3])
        });
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::UnknownKind { frame: 1, kind: 9 }
        );
    }

    #[test]
    fn file_journal_persists_and_recovers_torn_tail() {
        let dir = std::env::temp_dir().join(format!("bqj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let _ = std::fs::remove_file(&path);

        {
            let mut j = Journal::open(&path).unwrap();
            j.bind_manifest(manifest()).unwrap();
            j.append(attempt(1, 1, QueryOutcome::NoService)).unwrap();
            j.append(attempt(2, 1, QueryOutcome::Stalled)).unwrap();
        }
        // Simulate a crash mid-append: chop the file.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.len(), 1, "torn second attempt dropped");
            assert_eq!(j.replay(1, 1).unwrap().outcome, QueryOutcome::NoService);
            assert!(j.replay(2, 1).is_none());
        }
        // The recovery truncated the torn bytes from disk.
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() < full.len() - 5 + 1);
        assert!(read_entries(&after).is_ok(), "file is clean again");

        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    fn reboot(occurrence: u32) -> RebootstrapEntry {
        RebootstrapEntry {
            endpoint: "centurylink/billings".into(),
            occurrence,
            generation: 2,
            confidence_pct: 95,
        }
    }

    #[test]
    fn rebootstraps_round_trip_and_interleave_with_attempts() {
        let mut j = Journal::in_memory();
        j.bind_manifest(manifest()).unwrap();
        j.append(attempt(1, 1, QueryOutcome::Failed)).unwrap();
        j.append_rebootstrap(reboot(1)).unwrap();
        j.append(attempt(2, 1, QueryOutcome::NoService)).unwrap();
        j.append_rebootstrap(reboot(2)).unwrap();
        let bytes = j.bytes().unwrap().to_vec();
        let back = Journal::from_bytes(&bytes).unwrap();
        assert_eq!(back.rebootstraps(), j.rebootstraps());
        assert_eq!(back.attempts().len(), 2, "attempts survive interleaving");
        assert_eq!(
            back.rebootstrap("centurylink/billings", 2),
            Some(&reboot(2))
        );
        assert!(back.rebootstrap("centurylink/billings", 3).is_none());
        assert!(back.rebootstrap("cox/billings", 1).is_none());
    }

    #[test]
    fn rebootstrap_must_follow_a_manifest() {
        let mut bytes = MAGIC.to_vec();
        push_entry(&mut bytes, Entry::Rebootstrap(reboot(1)));
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::MissingManifest
        );
    }

    #[test]
    fn malformed_rebootstrap_is_a_typed_error() {
        let mut bytes = MAGIC.to_vec();
        push_entry(&mut bytes, Entry::Manifest(manifest()));
        push_frame(&mut bytes, |payload| {
            Entry::Rebootstrap(reboot(1)).encode(payload);
            payload.pop(); // truncate the confidence field
        });
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::Malformed {
                frame: 1,
                what: "rebootstrap length"
            }
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32/IEEE loop, the oracle for the tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_matches_the_bitwise_oracle_at_every_length_and_offset() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut buf = [0u8; 8 + 300];
        for len in 0..=300 {
            rng.fill_bytes(&mut buf);
            for offset in 0..8 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len} at {offset}");
            }
        }
    }
}
