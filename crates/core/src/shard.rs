//! `bqt::shard` — multi-core campaigns with byte-identical replay.
//!
//! A campaign is already keyed by city×ISP: the world model, the IP pool's
//! derived assignment and the BAT state machines are all functions of
//! `(seed, endpoint, address, time)`. This module exploits that to split
//! one campaign into a fixed set of **shards** — each with its own virtual
//! clock (every shard's event loop starts at `SimTime::ZERO`), its own
//! hermetic RNG stream (the shard seed), its own transport/IP-pool/journal
//! environment, and its own telemetry `seq` namespace — and execute those
//! shards on real OS threads.
//!
//! ## The merge invariant
//!
//! The shard *partition* is part of the campaign's identity and never
//! depends on the thread count: `threads` only says how many OS threads
//! pull whole shards off [`crate::exec`]'s work queue (largest shard
//! first). Because a shard shares no mutable state with its siblings,
//! its event stream is a pure function of `(spec, environment)`; and
//! because the merge orders every event by `(at, seq)` — with `seq`
//! namespaced as `shard_id << SHARD_SEQ_BITS | counter`, so no two events
//! share a key — the merged campaign output is **byte-identical for every
//! thread count**. The differential suite in `tests/shard.rs` enforces
//! exactly that for `threads ∈ {1, 2, 4, 8}`.
//!
//! There is one merge, [`StreamMerger`]. A stream hands it *sealed*
//! chunks — sorted on `(at, seq)`, each with a **frontier**: a key that
//! every event the stream has yet to send sorts at or above. The merger
//! releases its lowest queued head only while that head sorts strictly
//! below the frontier of every stream whose queue is empty, so nothing a
//! late stream sends can ever belong before an event already released.
//! A stream that has sent nothing yet holds the frontier at `(0, 0)`, and
//! nothing is released before every stream has declared its size. Serve
//! feeds the merger owned chunks while its shards run. Campaigns, whose
//! [`ShardedOutcome`] keeps every shard's full stream, merge after the
//! join and by reference: each shard sorts its stream's `(at, seq)` keys
//! into a permutation ([`ShardRun::order`]) on its own worker thread, and
//! [`merge_sorted`] seals every stream whole as borrowed events in that
//! order, so no event is copied to be merged.
//!
//! ## Crash + resume
//!
//! Every shard journals to its own segment (the caller's
//! [`ShardEnv::journal`]); a crashed campaign gives every segment the same
//! [`Journal::crash_at`] point, so each shard crashes at the same instant
//! *of its own clock*, which models one global virtual crash time.
//! Resuming — with any thread count — replays each segment independently
//! and re-merges, so the recovered output is byte-identical to an
//! uninterrupted run's.

use crate::client::BqtConfig;
use crate::driver::QueryJob;
use crate::journal::{Journal, JournalError};
use crate::monitor::{CampaignSection, MonitorPolicy};
use crate::orchestrator::{Orchestrator, OrchestratorReport, ResumeStats};
use crate::telemetry::{Event, Recorder};
use bbsim_net::{mix64, IpPool, Transport};
use std::collections::VecDeque;

/// Domain separator for derived per-shard seeds.
const SHARD_SALT: u64 = 0x5_4A2D;

/// Bits of the `seq` word reserved for the per-shard counter; the shard id
/// occupies the bits above. Namespacing (rather than a shared counter)
/// makes cross-shard `seq` interleaving structurally impossible — the
/// latent nondeterminism a shared atomic counter would reintroduce under
/// concurrency.
pub const SHARD_SEQ_BITS: u32 = 40;

/// The `seq` for `counter`-th event of shard `shard`.
pub fn shard_seq(shard: u32, counter: u64) -> u64 {
    debug_assert!(counter < 1 << SHARD_SEQ_BITS, "shard emitted 2^40 events");
    ((shard as u64) << SHARD_SEQ_BITS) | counter
}

/// The shard id a namespaced `seq` belongs to.
pub fn seq_shard(seq: u64) -> u32 {
    (seq >> SHARD_SEQ_BITS) as u32
}

/// The per-shard counter inside a namespaced `seq`.
pub fn seq_counter(seq: u64) -> u64 {
    seq & ((1 << SHARD_SEQ_BITS) - 1)
}

/// One shard of a campaign: a label, a seed, and the jobs it owns.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Dense shard index (`0..plan.len()`), the high bits of every `seq`
    /// this shard emits and the tie-break of the merge order.
    pub id: u32,
    /// Human-readable shard name (e.g. the ISP slug); labels the shard's
    /// health section and journal segment.
    pub label: String,
    /// The shard's own seed — the orchestrator template runs with this
    /// seed, so every shard draws from a disjoint hermetic RNG stream.
    pub seed: u64,
    /// Per-shard workflow configuration; `None` inherits the campaign's.
    pub config: Option<BqtConfig>,
    /// The jobs this shard executes, in order.
    pub jobs: Vec<QueryJob>,
}

/// A fixed, thread-count-independent partition of a campaign's jobs.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    pub shards: Vec<ShardSpec>,
}

impl ShardPlan {
    /// A plan from explicit shards. Ids are reassigned to the dense
    /// `0..n` order the merge relies on.
    pub fn new(mut shards: Vec<ShardSpec>) -> Self {
        for (i, s) in shards.iter_mut().enumerate() {
            s.id = i as u32;
        }
        Self { shards }
    }

    /// Partitions by endpoint (city×ISP), shards ordered by first
    /// appearance in `jobs` — the natural sharding: endpoints share no
    /// BAT state, so each shard owns a whole simulated server.
    pub fn by_endpoint(seed: u64, jobs: &[QueryJob]) -> Self {
        let mut groups: Vec<(String, Vec<QueryJob>)> = Vec::new();
        for job in jobs {
            match groups.iter_mut().find(|(ep, _)| *ep == job.endpoint) {
                Some((_, group)) => group.push(job.clone()),
                None => groups.push((job.endpoint.clone(), vec![job.clone()])),
            }
        }
        Self::new(
            groups
                .into_iter()
                .enumerate()
                .map(|(i, (endpoint, jobs))| ShardSpec {
                    id: i as u32,
                    label: endpoint,
                    seed: mix64(seed ^ SHARD_SALT, &[i as u64]),
                    config: None,
                    jobs,
                })
                .collect(),
        )
    }

    /// Stripes jobs across `n_shards` round-robin by position — for
    /// sharding a single-endpoint campaign. The stripe assignment depends
    /// only on the job index, never on execution order.
    pub fn round_robin(seed: u64, jobs: &[QueryJob], n_shards: usize) -> Self {
        let n = n_shards.clamp(1, jobs.len().max(1));
        let mut groups: Vec<Vec<QueryJob>> = vec![Vec::new(); n];
        for (i, job) in jobs.iter().enumerate() {
            groups[i % n].push(job.clone());
        }
        Self::new(
            groups
                .into_iter()
                .enumerate()
                .map(|(i, jobs)| ShardSpec {
                    id: i as u32,
                    label: format!("shard-{i:02}"),
                    seed: mix64(seed ^ SHARD_SALT, &[i as u64]),
                    config: None,
                    jobs,
                })
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

/// The private world one shard runs in. Built by the caller's environment
/// factory *on the worker thread*, so nothing is shared across shards:
/// per-shard transports are draw-for-draw equivalent to a shared hermetic
/// one (draws key on `(seed, endpoint, ip, time)`, not call order), and
/// per-shard pools assign IPs by `(seed, tag, attempt)` key.
pub struct ShardEnv {
    pub transport: Transport,
    pub pool: IpPool,
    /// The shard's journal segment, if the campaign is crash-recoverable.
    /// A crash point set on it ([`Journal::crash_at`]) crashes the shard.
    pub journal: Option<Journal>,
}

/// One event with its shard-namespaced merge sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEvent {
    pub seq: u64,
    pub event: Event,
}

/// A merge position: `(at_ms, seq)`, the canonical event order.
pub type MergeKey = (u64, u64);

/// The frontier of a stream that will send nothing more.
pub const FINISHED: MergeKey = (u64::MAX, u64::MAX);

impl SeqEvent {
    /// The event's position in the merged stream.
    pub fn key(&self) -> MergeKey {
        (self.event.at.as_millis(), self.seq)
    }
}

/// What a [`StreamMerger`] queues: an item with a merge key that becomes
/// the event a [`MergeSink`] receives once it is released.
pub trait MergeItem {
    /// What the sink receives.
    type Event;
    /// The item's position in the merged stream.
    fn key(&self) -> MergeKey;
    /// The released event.
    fn into_event(self) -> Self::Event;
}

/// An owned item: serve's sealed chunks hand the event over.
impl MergeItem for SeqEvent {
    type Event = Event;

    fn key(&self) -> MergeKey {
        SeqEvent::key(self)
    }

    fn into_event(self) -> Event {
        self.event
    }
}

/// A borrowed item: complete streams merge without copying an event.
impl<'a> MergeItem for &'a SeqEvent {
    type Event = &'a Event;

    fn key(&self) -> MergeKey {
        SeqEvent::key(self)
    }

    fn into_event(self) -> &'a Event {
        &self.event
    }
}

/// The positions of `stream`'s events in `(at, seq)` order: the
/// permutation a by-reference merge walks the stream in.
pub fn merge_order(stream: &[SeqEvent]) -> Vec<u32> {
    debug_assert!(u32::try_from(stream.len()).is_ok(), "stream of 2^32 events");
    let mut order: Vec<u32> = (0..stream.len() as u32).collect();
    order.sort_unstable_by_key(|&i| stream[i as usize].key());
    order
}

/// A recorder that collects a shard's stream, assigning each event its
/// namespaced `seq` in emission order.
pub struct ShardRecorder {
    shard: u32,
    next: u64,
    events: Vec<SeqEvent>,
}

impl ShardRecorder {
    pub fn new(shard: u32) -> Self {
        Self {
            shard,
            next: 0,
            events: Vec::new(),
        }
    }

    pub fn into_events(self) -> Vec<SeqEvent> {
        self.events
    }

    /// Stamps and keeps an owned event (what [`Recorder::record`] does
    /// with a clone).
    pub fn push(&mut self, event: Event) {
        let seq = shard_seq(self.shard, self.next);
        self.next += 1;
        self.events.push(SeqEvent { seq, event });
    }

    /// The frontier of a stream whose every later event is stamped at
    /// or after `at_ms`: the key the next event would get at `at_ms`.
    pub fn frontier(&self, at_ms: u64) -> MergeKey {
        (at_ms, shard_seq(self.shard, self.next))
    }

    /// Seals a chunk for a [`StreamMerger`]: sorts the pending events on
    /// `(at, seq)` and hands back every one below `frontier`, in a vector
    /// of exactly their length (the merger may hold it a while), keeping
    /// the rest pending. With `frontier` from [`frontier`](Self::frontier)
    /// (or [`FINISHED`] for the last chunk), the chunk and frontier
    /// keep the merger's contract.
    pub fn seal(&mut self, frontier: MergeKey) -> Vec<SeqEvent> {
        self.events.sort_unstable_by_key(SeqEvent::key);
        let cut = self.events.partition_point(|e| e.key() < frontier);
        self.events.drain(..cut).collect()
    }
}

impl Recorder for ShardRecorder {
    fn record(&mut self, event: &Event) {
        self.push(event.clone());
    }
}

/// What one shard produced.
pub struct ShardRun {
    pub id: u32,
    pub label: String,
    /// The shard's completed report; `None` when the simulated crash fired
    /// first (the shard's journal segment holds what survived).
    pub report: Option<Box<OrchestratorReport>>,
    /// The shard's full event stream with namespaced `seq`s, in emission
    /// order.
    pub events: Vec<SeqEvent>,
    /// [`merge_order`] of `events`, sorted on the shard's own worker
    /// thread.
    pub order: Vec<u32>,
    /// The shard's environment, handed back for inspection (journal bytes,
    /// transport request counts).
    pub env: ShardEnv,
}

impl ShardRun {
    pub fn crashed(&self) -> bool {
        self.report.is_none()
    }
}

/// A sharded campaign's merged result.
pub struct ShardedOutcome {
    /// Per-shard results, in shard-id order.
    pub shards: Vec<ShardRun>,
    /// The merged campaign stream: every shard's events in `(at, seq)`
    /// order — the canonical order `events.jsonl` serializes.
    pub events: Vec<Event>,
}

impl ShardedOutcome {
    /// True when any shard hit the simulated crash.
    pub fn crashed(&self) -> bool {
        self.shards.iter().any(ShardRun::crashed)
    }

    /// `(label, report)` for every completed shard, in shard order.
    pub fn reports(&self) -> impl Iterator<Item = (&str, &OrchestratorReport)> {
        self.shards
            .iter()
            .filter_map(|s| s.report.as_deref().map(|r| (s.label.as_str(), r)))
    }

    /// Journal bookkeeping summed over shards.
    pub fn resume(&self) -> ResumeStats {
        let mut sum = ResumeStats::default();
        for (_, report) in self.reports() {
            sum.replayed_attempts += report.resume().replayed_attempts;
            sum.live_attempts += report.resume().live_attempts;
        }
        sum
    }

    /// Health sections for monitored shards, in shard order — ready for
    /// [`render_prometheus`](crate::monitor::render_prometheus) /
    /// [`render_folded`](crate::monitor::render_folded).
    pub fn health_sections(&self) -> Vec<CampaignSection<'_>> {
        self.shards
            .iter()
            .filter_map(|s| {
                s.report
                    .as_deref()
                    .and_then(|r| r.health_section(s.label.as_str()))
            })
            .collect()
    }
}

/// Merges any set of `seq`-stamped streams into `(at, seq)` order. The
/// result is a function of the event *set* alone: any partition of the
/// same events into streams merges identically (the property
/// `tests/properties.rs` fuzzes).
///
/// Each stream's [`merge_order`] is sorted here, then the streams merge
/// by reference ([`merge_sorted`]) and each event is cloned once, into
/// the result.
pub fn merge_seq_streams<'a>(streams: impl IntoIterator<Item = &'a [SeqEvent]>) -> Vec<Event> {
    let streams: Vec<&[SeqEvent]> = streams.into_iter().collect();
    let orders: Vec<Vec<u32>> = streams.iter().map(|s| merge_order(s)).collect();
    let mut merged = Vec::new();
    merge_sorted(
        streams.into_iter().zip(orders.iter().map(Vec::as_slice)),
        &mut merged,
    );
    merged
}

/// Merges complete streams by reference: each `(stream, order)` pair is a
/// stream and its [`merge_order`]. Every stream is sealed whole, as
/// borrowed items in that order, with the [`FINISHED`] frontier, and the
/// [`StreamMerger`] releases everything into `sink` in one k-way pass.
pub fn merge_sorted<'a>(
    streams: impl IntoIterator<Item = (&'a [SeqEvent], &'a [u32])>,
    sink: &mut impl MergeSink<&'a Event>,
) {
    let streams: Vec<(&[SeqEvent], &[u32])> = streams.into_iter().collect();
    let mut merger = StreamMerger::new(streams.len());
    for (id, (stream, order)) in streams.into_iter().enumerate() {
        merger.declare(id, order.len() as u64);
        let chunk = order.iter().map(|&i| &stream[i as usize]).collect();
        merger.push(id, chunk, FINISHED);
    }
    merger.release(sink);
}

/// Where a [`StreamMerger`] delivers the merged stream: owned events from
/// owned chunks, `&Event` from borrowed ones.
pub trait MergeSink<E = Event> {
    /// Called once, before the first event, with the sum of every
    /// stream's declared count.
    fn begin(&mut self, total: u64);
    /// The next event in `(at, seq)` order.
    fn event(&mut self, event: E);
}

/// Keeps a clone of every borrowed event.
impl MergeSink<&Event> for Vec<Event> {
    fn begin(&mut self, total: u64) {
        self.reserve(usize::try_from(total).unwrap_or(0));
    }

    fn event(&mut self, event: &Event) {
        self.push(event.clone());
    }
}

/// A k-way merge of sealed chunks that releases events while their
/// streams are still running.
///
/// Chunks hold [`MergeItem`]s: serve's owned [`SeqEvent`]s, or
/// [`merge_sorted`]'s borrowed ones.
///
/// Each stream first [`declare`](Self::declare)s a count (serve: its
/// arrival count; [`merge_sorted`]: its length), then
/// [`push`](Self::push)es chunks sorted on `(at, seq)`, each with a
/// frontier that every event the stream sends later sorts at or above,
/// and last the [`FINISHED`] frontier. [`release`](Self::release) hands
/// the sink every queued event that can no longer be preceded:
///
/// * nothing before every stream has declared (the sink's `begin` needs
///   the total);
/// * then, repeatedly, the lowest queued head — but only while it sorts
///   strictly below the frontier of every stream whose queue is empty.
///   A stream that has pushed nothing holds the frontier at `(0, 0)`.
///
/// Chunks queue without bound: a stream that has not started holds every
/// other stream's events, so a bounded queue would deadlock a run with
/// fewer threads than streams. A stream that never pushes [`FINISHED`]
/// (its task died) keeps its frontier, so the merger never releases past
/// it — the stream cannot end early.
pub struct StreamMerger<T: MergeItem = SeqEvent> {
    /// Per stream, its unreleased chunks; no chunk in a queue is empty.
    queues: Vec<VecDeque<std::vec::IntoIter<T>>>,
    /// Per stream, the key of its queue's first item; `None` when the
    /// queue is empty. Kept beside the queues so that choosing the next
    /// stream reads one array instead of every queue's head item.
    heads: Vec<Option<MergeKey>>,
    frontiers: Vec<MergeKey>,
    declared: Vec<Option<u64>>,
    /// Whether the sink's `begin` has run.
    begun: bool,
    queued: usize,
    high_water: usize,
}

impl<T: MergeItem> StreamMerger<T> {
    /// A merger over `streams` streams, ids `0..streams`.
    pub fn new(streams: usize) -> Self {
        Self {
            queues: (0..streams).map(|_| VecDeque::new()).collect(),
            heads: vec![None; streams],
            frontiers: vec![(0, 0); streams],
            declared: vec![None; streams],
            begun: false,
            queued: 0,
            high_water: 0,
        }
    }

    /// Records stream `id`'s count. Ids outside `0..streams` are ignored.
    pub fn declare(&mut self, id: usize, count: u64) {
        if let Some(slot) = self.declared.get_mut(id) {
            *slot = Some(count);
        }
    }

    /// Queues one sealed chunk of stream `id` and moves its frontier.
    /// `chunk` must be sorted on `(at, seq)` and sort below `frontier`;
    /// ids outside `0..streams` are ignored.
    pub fn push(&mut self, id: usize, chunk: Vec<T>, frontier: MergeKey) {
        let (Some(queue), Some(head), Some(slot)) = (
            self.queues.get_mut(id),
            self.heads.get_mut(id),
            self.frontiers.get_mut(id),
        ) else {
            return;
        };
        self.queued += chunk.len();
        self.high_water = self.high_water.max(self.queued);
        if let Some(first) = chunk.first() {
            if head.is_none() {
                *head = Some(first.key());
            }
            queue.push_back(chunk.into_iter());
        }
        *slot = frontier;
    }

    /// Releases into `sink` every event the frontiers allow (see the
    /// type's docs).
    pub fn release(&mut self, sink: &mut impl MergeSink<T::Event>) {
        if !self.begun {
            let Some(total) = self.declared.iter().copied().sum::<Option<u64>>() else {
                return;
            };
            self.begun = true;
            sink.begin(total);
        }
        loop {
            // The stream with the lowest head, and the limit its events
            // must sort below: every other head, and the frontier of
            // every empty queue.
            let mut best: Option<(MergeKey, usize)> = None;
            let mut limit = FINISHED;
            for (id, (head, &frontier)) in self.heads.iter().zip(&self.frontiers).enumerate() {
                let Some(key) = *head else {
                    limit = limit.min(frontier);
                    continue;
                };
                match best {
                    Some((lowest, _)) if lowest < key => limit = limit.min(key),
                    _ => {
                        if let Some((lowest, _)) = best {
                            limit = limit.min(lowest);
                        }
                        best = Some((key, id));
                    }
                }
            }
            let Some((queue, head)) =
                best.and_then(|(_, id)| self.queues.get_mut(id).zip(self.heads.get_mut(id)))
            else {
                break;
            };
            // Drain that stream while it stays below the limit.
            let mut released = 0;
            while head.is_some_and(|key| key < limit) {
                let Some(chunk) = queue.front_mut() else {
                    break;
                };
                let next = chunk.next();
                if chunk.as_slice().is_empty() {
                    queue.pop_front();
                }
                *head = queue
                    .front()
                    .and_then(|c| c.as_slice().first())
                    .map(MergeItem::key);
                if let Some(next) = next {
                    released += 1;
                    sink.event(next.into_event());
                }
            }
            if released == 0 {
                break;
            }
            self.queued -= released;
        }
    }

    /// The most events ever queued at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// The clonable slice of a [`Campaign`](crate::Campaign) a shard runs
/// under: everything but the per-run borrows (journal, recorders).
pub(crate) struct ShardTemplate<'t> {
    pub orch: &'t Orchestrator,
    pub config: &'t BqtConfig,
    pub monitor: Option<&'t MonitorPolicy>,
}

/// Runs every shard of `plan` on up to `threads` OS threads through
/// [`crate::exec`], largest shard (by job count) first.
///
/// Results come back in shard order regardless of scheduling. The first
/// failure in shard order — a journal error, or a shard that panicked
/// ([`JournalError::ShardFailed`]) — surfaces as the run's error; every
/// other shard still runs to completion, so its journal segment is whole.
pub(crate) fn execute(
    template: &ShardTemplate<'_>,
    plan: &ShardPlan,
    threads: usize,
    make_env: &(dyn Fn(&ShardSpec) -> Result<ShardEnv, JournalError> + Sync),
) -> Result<Vec<ShardRun>, JournalError> {
    crate::exec::map(
        &plan.shards,
        threads,
        |spec| spec.jobs.len() as u64,
        |_, spec| run_one(template, spec, make_env),
    )
    .into_iter()
    .map(|slot| slot?)
    .collect()
}

/// Runs one shard to completion (or to the simulated crash) inside its
/// own environment.
fn run_one(
    template: &ShardTemplate<'_>,
    spec: &ShardSpec,
    make_env: &(dyn Fn(&ShardSpec) -> Result<ShardEnv, JournalError> + Sync),
) -> Result<ShardRun, JournalError> {
    let mut env = make_env(spec)?;
    let mut recorder = ShardRecorder::new(spec.id);
    let mut orch = template.orch.clone();
    orch.seed = spec.seed;
    let mut campaign =
        crate::Campaign::from_orchestrator(orch).config(spec.config.unwrap_or(*template.config));
    if let Some(policy) = template.monitor {
        campaign = campaign.monitor(policy.clone());
    }
    campaign = campaign.recorder(&mut recorder);

    let ShardEnv {
        transport,
        pool,
        journal,
    } = &mut env;
    let report = match journal.as_mut() {
        Some(j) => campaign
            .run_journaled(j, transport, &spec.jobs, pool)?
            .map(Box::new),
        None => Some(Box::new(campaign.run(transport, &spec.jobs, pool))),
    };
    let events = recorder.into_events();
    let order = merge_order(&events);
    Ok(ShardRun {
        id: spec.id,
        label: spec.label.clone(),
        report,
        events,
        order,
        env,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::EventKind;
    use bbsim_net::SimTime;

    fn ev(at_ms: u64, worker: u32) -> Event {
        Event {
            at: SimTime::from_millis(at_ms),
            kind: EventKind::WorkerBegin { worker },
        }
    }

    #[test]
    fn seq_namespace_roundtrips() {
        let seq = shard_seq(7, 123_456);
        assert_eq!(seq_shard(seq), 7);
        assert_eq!(seq_counter(seq), 123_456);
        assert!(shard_seq(1, 0) > shard_seq(0, u32::MAX as u64));
    }

    #[test]
    fn by_endpoint_partitions_in_first_appearance_order() {
        let job = |ep: &str, tag: u64| QueryJob {
            endpoint: ep.to_string(),
            dialect: bbsim_bat::Dialect::DataAttr,
            input_line: String::new(),
            tag,
        };
        let jobs = vec![job("b", 1), job("a", 2), job("b", 3)];
        let plan = ShardPlan::by_endpoint(9, &jobs);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.shards[0].label, "b");
        assert_eq!(plan.shards[1].label, "a");
        assert_eq!(plan.shards[0].jobs.len(), 2);
        assert_ne!(plan.shards[0].seed, plan.shards[1].seed);
    }

    #[test]
    fn round_robin_stripes_by_position_only() {
        let job = |tag: u64| QueryJob {
            endpoint: "e".to_string(),
            dialect: bbsim_bat::Dialect::DataAttr,
            input_line: String::new(),
            tag,
        };
        let jobs: Vec<QueryJob> = (0..7).map(job).collect();
        let plan = ShardPlan::round_robin(1, &jobs, 3);
        assert_eq!(plan.len(), 3);
        let tags: Vec<Vec<u64>> = plan
            .shards
            .iter()
            .map(|s| s.jobs.iter().map(|j| j.tag).collect())
            .collect();
        assert_eq!(tags, vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
    }

    #[test]
    fn merge_orders_by_at_then_namespaced_seq() {
        let s0 = vec![
            SeqEvent {
                seq: shard_seq(0, 0),
                event: ev(10, 0),
            },
            SeqEvent {
                seq: shard_seq(0, 1),
                event: ev(30, 1),
            },
        ];
        let s1 = vec![
            SeqEvent {
                seq: shard_seq(1, 0),
                event: ev(10, 2),
            },
            SeqEvent {
                seq: shard_seq(1, 1),
                event: ev(20, 3),
            },
        ];
        let merged = merge_seq_streams([s1.as_slice(), s0.as_slice()]);
        let workers: Vec<u32> = merged
            .iter()
            .map(|e| match e.kind {
                EventKind::WorkerBegin { worker } => worker,
                _ => unreachable!("only WorkerBegin events in this test"),
            })
            .collect();
        // 10ms ties break shard 0 before shard 1; stream order is
        // irrelevant to the merge.
        assert_eq!(workers, vec![0, 2, 3, 1]);
    }
}
