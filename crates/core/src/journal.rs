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
//! payload  = [kind: u8] kind-specific bytes (little-endian throughout)
//! kind 1   = campaign manifest: seed u64, config_hash u64,
//!            job_digest u64, n_jobs u32
//! kind 2   = attempt record: tag u64, attempt u32, duration_ms u64,
//!            steps u32, flags u8 (bit 0: saw_unrecognized_page),
//!            outcome u8, then for Plans: n u32, n × 3 f64 bit patterns
//!            (download, upload, price)
//! kind 3   = template re-bootstrap: endpoint len u32 + UTF-8 bytes,
//!            occurrence u32, generation u32, confidence_pct u32
//! ```
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
use bbsim_net::{fnv1a, mix64, SimDuration};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// File magic: "BQJ1" (BQT Journal, format 1).
pub const MAGIC: [u8; 4] = *b"BQJ1";

const KIND_MANIFEST: u8 = 1;
const KIND_ATTEMPT: u8 = 2;
const KIND_REBOOTSTRAP: u8 = 3;

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

/// CRC-32/IEEE (the zlib polynomial), bitwise. Payloads are small enough
/// that a table buys nothing.
pub fn crc32(bytes: &[u8]) -> u32 {
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

/// Identity of a campaign: what must match for a journal to be resumable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignManifest {
    /// The orchestrator seed.
    pub seed: u64,
    /// Fingerprint of the driver configuration ([`config_fingerprint`]).
    pub config_hash: u64,
    /// Digest of the job list ([`CampaignManifest::digest_jobs`]).
    pub job_digest: u64,
    /// Number of jobs in the campaign.
    pub n_jobs: u32,
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

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(1 + 8 * 3 + 4);
        buf.push(KIND_MANIFEST);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&self.config_hash.to_le_bytes());
        buf.extend_from_slice(&self.job_digest.to_le_bytes());
        buf.extend_from_slice(&self.n_jobs.to_le_bytes());
        buf
    }

    fn decode(frame: usize, payload: &[u8]) -> Result<Self, JournalError> {
        let body = &payload[1..];
        if body.len() != 8 * 3 + 4 {
            return Err(JournalError::Malformed {
                frame,
                what: "manifest length",
            });
        }
        Ok(Self {
            seed: read_u64_le(frame, body, 0, "manifest seed")?,
            config_hash: read_u64_le(frame, body, 8, "manifest config hash")?,
            job_digest: read_u64_le(frame, body, 16, "manifest job digest")?,
            n_jobs: read_u32_le(frame, body, 24, "manifest job count")?,
        })
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

/// One journaled attempt: everything needed to reconstruct the
/// [`QueryRecord`] without re-scraping.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptEntry {
    pub tag: u64,
    /// 1-based attempt number within the job's retry budget.
    pub attempt: u32,
    pub outcome: QueryOutcome,
    pub duration: SimDuration,
    pub steps: u32,
    pub saw_unrecognized_page: bool,
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

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        buf.push(KIND_ATTEMPT);
        buf.extend_from_slice(&self.tag.to_le_bytes());
        buf.extend_from_slice(&self.attempt.to_le_bytes());
        buf.extend_from_slice(&self.duration.as_millis().to_le_bytes());
        buf.extend_from_slice(&self.steps.to_le_bytes());
        buf.push(self.saw_unrecognized_page as u8);
        match &self.outcome {
            QueryOutcome::NoService => buf.push(0),
            QueryOutcome::Unserviceable => buf.push(1),
            QueryOutcome::Blocked => buf.push(2),
            QueryOutcome::Failed => buf.push(3),
            QueryOutcome::Stalled => buf.push(4),
            QueryOutcome::Plans(plans) => {
                buf.push(5);
                buf.extend_from_slice(&(plans.len() as u32).to_le_bytes());
                for p in plans {
                    buf.extend_from_slice(&p.download_mbps.to_bits().to_le_bytes());
                    buf.extend_from_slice(&p.upload_mbps.to_bits().to_le_bytes());
                    buf.extend_from_slice(&p.price_usd.to_bits().to_le_bytes());
                }
            }
        }
        buf
    }

    fn decode(frame: usize, payload: &[u8]) -> Result<Self, JournalError> {
        let malformed = |what| JournalError::Malformed { frame, what };
        let body = &payload[1..];
        if body.len() < 8 + 4 + 8 + 4 + 1 + 1 {
            return Err(malformed("attempt header length"));
        }
        let tag = read_u64_le(frame, body, 0, "attempt tag")?;
        let attempt = read_u32_le(frame, body, 8, "attempt number")?;
        let duration_ms = read_u64_le(frame, body, 12, "attempt duration")?;
        let steps = read_u32_le(frame, body, 20, "attempt steps")?;
        let flags = body[24];
        let code = body[25];
        let rest = &body[26..];
        let outcome = match code {
            0 => QueryOutcome::NoService,
            1 => QueryOutcome::Unserviceable,
            2 => QueryOutcome::Blocked,
            3 => QueryOutcome::Failed,
            4 => QueryOutcome::Stalled,
            5 => {
                let n = read_u32_le(frame, rest, 0, "plan count")? as usize;
                if rest.len() != 4 + n * 24 {
                    return Err(malformed("plan list length"));
                }
                let mut plans = Vec::with_capacity(n);
                for i in 0..n {
                    let at = 4 + i * 24;
                    let f = |o: usize| {
                        read_u64_le(frame, rest, at + o, "plan field").map(f64::from_bits)
                    };
                    plans.push(ScrapedPlan {
                        download_mbps: f(0)?,
                        upload_mbps: f(8)?,
                        price_usd: f(16)?,
                    });
                }
                QueryOutcome::Plans(plans)
            }
            _ => return Err(malformed("outcome code")),
        };
        if code != 5 && !rest.is_empty() {
            return Err(malformed("trailing bytes"));
        }
        Ok(Self {
            tag,
            attempt,
            outcome,
            duration: SimDuration::from_millis(duration_ms),
            steps,
            saw_unrecognized_page: flags & 1 != 0,
        })
    }
}

/// One journaled template re-bootstrap: the swap learned for an
/// endpoint's `occurrence`-th quarantine. A resumed run that re-derives
/// the same quarantine applies this swap directly instead of re-probing,
/// so crash + resume mid-drift stays byte-identical without replaying
/// probe traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebootstrapEntry {
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

impl RebootstrapEntry {
    fn encode(&self) -> Vec<u8> {
        let name = self.endpoint.as_bytes();
        let mut buf = Vec::with_capacity(1 + 4 + name.len() + 4 * 3);
        buf.push(KIND_REBOOTSTRAP);
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        buf.extend_from_slice(&self.occurrence.to_le_bytes());
        buf.extend_from_slice(&self.generation.to_le_bytes());
        buf.extend_from_slice(&self.confidence_pct.to_le_bytes());
        buf
    }

    fn decode(frame: usize, payload: &[u8]) -> Result<Self, JournalError> {
        let malformed = |what| JournalError::Malformed { frame, what };
        let body = &payload[1..];
        let name_len = read_u32_le(frame, body, 0, "rebootstrap endpoint length")? as usize;
        let name_end = 4 + name_len;
        if body.len() != name_end + 4 * 3 {
            return Err(malformed("rebootstrap length"));
        }
        let endpoint = std::str::from_utf8(&body[4..name_end])
            .map_err(|_| malformed("rebootstrap endpoint utf-8"))?
            .to_string();
        Ok(Self {
            endpoint,
            occurrence: read_u32_le(frame, body, name_end, "rebootstrap occurrence")?,
            generation: read_u32_le(frame, body, name_end + 4, "rebootstrap generation")?,
            confidence_pct: read_u32_le(frame, body, name_end + 8, "rebootstrap confidence")?,
        })
    }
}

/// One decoded journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    Manifest(CampaignManifest),
    Attempt(AttemptEntry),
    Rebootstrap(RebootstrapEntry),
}

/// Total little-endian read: a short slice is a [`JournalError::Malformed`]
/// frame, never a panic, so a corrupt journal can't take down a resume.
fn read_u64_le(
    frame: usize,
    body: &[u8],
    at: usize,
    what: &'static str,
) -> Result<u64, JournalError> {
    match body.get(at..at + 8).map(<[u8; 8]>::try_from) {
        Some(Ok(raw)) => Ok(u64::from_le_bytes(raw)),
        _ => Err(JournalError::Malformed { frame, what }),
    }
}

fn read_u32_le(
    frame: usize,
    body: &[u8],
    at: usize,
    what: &'static str,
) -> Result<u32, JournalError> {
    match body.get(at..at + 4).map(<[u8; 4]>::try_from) {
        Some(Ok(raw)) => Ok(u32::from_le_bytes(raw)),
        _ => Err(JournalError::Malformed { frame, what }),
    }
}

/// Frames a payload: `[len][crc][payload]`.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Upper bound on a sane frame (a Plans entry with thousands of plans is
/// still far below this); guards against allocating on garbage lengths.
const MAX_FRAME: u32 = 1 << 20;

fn decode_payload(frame: usize, payload: &[u8]) -> Result<Entry, JournalError> {
    match payload.first() {
        None => Err(JournalError::Malformed {
            frame,
            what: "empty payload",
        }),
        Some(&KIND_MANIFEST) => CampaignManifest::decode(frame, payload).map(Entry::Manifest),
        Some(&KIND_ATTEMPT) => AttemptEntry::decode(frame, payload).map(Entry::Attempt),
        Some(&KIND_REBOOTSTRAP) => RebootstrapEntry::decode(frame, payload).map(Entry::Rebootstrap),
        Some(&kind) => Err(JournalError::UnknownKind { frame, kind }),
    }
}

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
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let mut entries = Vec::new();
    let mut at = MAGIC.len();
    let mut frame = 0usize;
    while at < bytes.len() {
        let header_end = at + 8;
        if header_end > bytes.len() {
            // Torn header: must be the file's final bytes by construction.
            return Ok((entries, at, Some(JournalError::TornTail)));
        }
        let len = read_u32_le(frame, bytes, at, "frame length")?;
        if len > MAX_FRAME {
            // An absurd length usually *is* a torn/garbage header, but only
            // treat it as torn if it extends past EOF like one.
            if at + 8 + len as usize > bytes.len() {
                return Ok((entries, at, Some(JournalError::TornTail)));
            }
            return Err(JournalError::OversizedFrame { frame, len });
        }
        let crc = read_u32_le(frame, bytes, at + 4, "frame crc")?;
        let payload_end = header_end + len as usize;
        if payload_end > bytes.len() {
            // Torn payload at EOF.
            return Ok((entries, at, Some(JournalError::TornTail)));
        }
        let payload = &bytes[header_end..payload_end];
        if crc32(payload) != crc {
            // A complete frame with a bad sum is corruption wherever it
            // sits — a torn append can only damage the *end* of the file,
            // and a torn frame is by definition incomplete.
            return Err(JournalError::BadCrc { frame });
        }
        let entry = decode_payload(frame, payload)?;
        match (&entry, frame) {
            (Entry::Manifest(_), 0) => {}
            (Entry::Manifest(_), _) => return Err(JournalError::DuplicateManifest),
            (Entry::Attempt(_) | Entry::Rebootstrap(_), 0) => {
                return Err(JournalError::MissingManifest)
            }
            (Entry::Attempt(_) | Entry::Rebootstrap(_), _) => {}
        }
        entries.push(entry);
        at = payload_end;
        frame += 1;
    }
    Ok((entries, at, None))
}

/// Where appended frames go.
enum Sink {
    /// Frames accumulate in a buffer (tests, in-process resume).
    Memory(Vec<u8>),
    /// Frames append to a file, flushed per entry.
    File { file: std::fs::File, path: PathBuf },
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
}

impl Journal {
    /// A fresh, empty in-memory journal.
    pub fn in_memory() -> Self {
        Self {
            sink: Sink::Memory(MAGIC.to_vec()),
            manifest: None,
            index: HashMap::new(),
            attempts: Vec::new(),
            rebootstraps: Vec::new(),
        }
    }

    /// Strictly decodes `bytes` into an in-memory journal positioned to
    /// append after the last entry.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, JournalError> {
        let entries = read_entries(bytes)?;
        let mut j = Self::in_memory();
        if let Sink::Memory(buf) = &mut j.sink {
            *buf = bytes.to_vec();
        }
        j.ingest(entries);
        Ok(j)
    }

    /// Opens (or creates) a file journal.
    ///
    /// An existing file is read with [`recover`]: a torn final frame is
    /// truncated away, anything worse is a typed error. A new file is
    /// created with the magic written.
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        let exists = path.exists();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut j = Self {
            sink: Sink::Memory(Vec::new()), // replaced below
            manifest: None,
            index: HashMap::new(),
            attempts: Vec::new(),
            rebootstraps: Vec::new(),
        };
        if exists {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            if bytes.is_empty() {
                // Created-then-crashed before the magic: treat as new.
                file.write_all(&MAGIC)?;
                file.flush()?;
            } else {
                let (entries, valid_len) = recover(&bytes)?;
                if valid_len < bytes.len() {
                    file.set_len(valid_len as u64)?;
                }
                file.seek(SeekFrom::End(0))?;
                j.ingest(entries);
            }
        } else {
            file.write_all(&MAGIC)?;
            file.flush()?;
        }
        j.sink = Sink::File {
            file,
            path: path.to_path_buf(),
        };
        Ok(j)
    }

    fn ingest(&mut self, entries: Vec<Entry>) {
        for entry in entries {
            match entry {
                Entry::Manifest(m) => self.manifest = Some(m),
                Entry::Attempt(a) => {
                    self.index.insert((a.tag, a.attempt), self.attempts.len());
                    self.attempts.push(a);
                }
                Entry::Rebootstrap(r) => self.rebootstraps.push(r),
            }
        }
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
            None => {
                self.write_frame(&manifest.encode())?;
                self.manifest = Some(manifest);
                Ok(())
            }
        }
    }

    /// Appends one finished attempt, flushing before returning so a crash
    /// immediately after loses nothing.
    pub fn append(&mut self, entry: AttemptEntry) -> Result<(), JournalError> {
        assert!(
            self.manifest.is_some(),
            "bind_manifest must precede appends"
        );
        self.write_frame(&entry.encode())?;
        self.index
            .insert((entry.tag, entry.attempt), self.attempts.len());
        self.attempts.push(entry);
        Ok(())
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let framed = frame_bytes(payload);
        match &mut self.sink {
            Sink::Memory(buf) => buf.extend_from_slice(&framed),
            Sink::File { file, .. } => {
                file.write_all(&framed)?;
                file.flush()?;
            }
        }
        Ok(())
    }

    /// Appends one completed template re-bootstrap, flushed like an
    /// attempt: written ahead of applying the swap to the report.
    pub fn append_rebootstrap(&mut self, entry: RebootstrapEntry) -> Result<(), JournalError> {
        assert!(
            self.manifest.is_some(),
            "bind_manifest must precede appends"
        );
        self.write_frame(&entry.encode())?;
        self.rebootstraps.push(entry);
        Ok(())
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
        bytes.extend_from_slice(&frame_bytes(
            &attempt(1, 1, QueryOutcome::NoService).encode(),
        ));
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::MissingManifest
        );
        // And a second manifest mid-stream is rejected.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&frame_bytes(&manifest().encode()));
        bytes.extend_from_slice(&frame_bytes(&manifest().encode()));
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::DuplicateManifest
        );
    }

    #[test]
    fn unknown_entry_kind_is_a_typed_error() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&frame_bytes(&manifest().encode()));
        bytes.extend_from_slice(&frame_bytes(&[9u8, 1, 2, 3]));
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
        bytes.extend_from_slice(&frame_bytes(&reboot(1).encode()));
        assert_eq!(
            read_entries(&bytes).unwrap_err(),
            JournalError::MissingManifest
        );
    }

    #[test]
    fn malformed_rebootstrap_is_a_typed_error() {
        let mut good = reboot(1).encode();
        good.pop(); // truncate the confidence field
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&frame_bytes(&manifest().encode()));
        bytes.extend_from_slice(&frame_bytes(&good));
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
}
