//! The four workloads: what each builds in set-up, what one timed rep
//! runs, and how its output is checked. Every call goes through a public
//! entry point of the repository's crates; the seed only shapes the
//! generated inputs.

use crate::measure::{Clock, Fnv, Timing};
use crate::trace::{span, span_under, BenchRecorder, CallStats, SpanId, TimedService, Tracer};
use bbsim_bat::{templates, BatServer};
use bbsim_census::{city_by_name, city_seed, CityProfile, ALL_CITIES};
use bbsim_dataset::{aggregate_block_groups, curate_city};
use bbsim_isp::{CityWorld, Isp};
use bbsim_net::{Endpoint, IpPool, RotationPolicy, Service, Transport};
use bbsim_serve::{run_recorded, PlanStore, Router, ServeOptions};
use bench::experiments;
use bench::study::{CityStudy, StudyDataset};
use bench::{run_study, Scale};
use bqt::monitor::{render_folded, render_prometheus, CampaignMonitor, CampaignSection};
use bqt::{
    merge_seq_streams, render_trace_json, Campaign, Event, Journal, JournalError,
    MetricsAggregator, MonitorPolicy, QueryJob, Recorder, SeqEvent, ShardEnv, ShardPlan, ShardSpec,
    ShardedOutcome, TraceAssembler,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["study", "campaign", "replay", "serve"];

/// The paper's four largest study cities: eight city×ISP endpoints whose
/// shards differ in size by up to 4.3×, so thread packing matters.
const CAMPAIGN_CITIES: [&str; 4] = ["Chicago", "Los Angeles", "New York City", "New Orleans"];

/// The eleven study-backed paper sections, in paper order.
type Section = fn(&StudyDataset) -> String;
const SECTIONS: [(&str, Section); 11] = [
    ("table2", experiments::table2),
    ("table3", experiments::table3),
    ("fig2a", experiments::fig2a),
    ("fig2b", experiments::fig2b),
    ("fig4", experiments::fig4),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9a", experiments::fig9a),
    ("fig9b", experiments::fig9b),
];

/// The sampling sizes of every workload: `Scale::Quick` keeps the paper's
/// cities, settings and shard shapes at sizes where one rep takes
/// seconds, so a run can repeat it.
const SCALE: Scale = Scale::Quick;

/// Served lookups a serve rep must reach.
const LOOKUP_FLOOR: u64 = 50_000;

/// Which cities each workload covers.
#[derive(Clone)]
pub struct Config {
    pub study_cities: Vec<&'static CityProfile>,
    pub campaign_cities: Vec<&'static CityProfile>,
    /// Where campaign journals live while the process runs.
    pub journal_dir: PathBuf,
}

impl Config {
    pub fn new(journal_dir: PathBuf) -> Self {
        Self {
            study_cities: ALL_CITIES.iter().collect(),
            campaign_cities: CAMPAIGN_CITIES
                .iter()
                .map(|n| city_by_name(n).expect("study city"))
                .collect(),
            journal_dir,
        }
    }
}

/// What a rep reports beyond its timing, keyed by per-layer metric name.
/// Keys starting with `probe.` are seconds spent re-driving one public
/// function over a traced rep's data (see [`Workload::probes`]).
pub type Facts = BTreeMap<&'static str, f64>;

/// One timed rep and the verdict on its output.
pub struct Rep {
    pub timing: Timing,
    /// Operations the throughput counts: queries, replayed jobs or
    /// served lookups.
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// `label=fnv64` per output component, for diagnosing a mismatch.
    pub components: String,
    /// From the parallel phase's first output reaching the serial
    /// consumer to the end of the timed phase.
    pub tail_s: f64,
    /// Broken invariants; empty when the output checks out.
    pub violations: Vec<String>,
    pub facts: Facts,
}

pub trait Workload {
    /// Builds the rep's inputs. Called several times; the last set-up is
    /// the one the reps use.
    fn setup(&mut self, threads: usize, tracer: Option<&Tracer>) -> Result<(), String>;

    /// Runs one timed rep on `threads` OS threads. With a tracer, spans
    /// cover every public call.
    fn rep(&mut self, threads: usize, tracer: Option<&Tracer>) -> Result<Rep, String>;

    /// Re-drives public functions over the last traced rep's data, outside
    /// any timed rep (so their allocations cannot favour the next one).
    fn probes(&mut self) -> Facts {
        Facts::new()
    }
}

pub fn make(name: &str, cfg: Config, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "study" => Box::new(Study {
            cfg,
            seed,
            traced: None,
        }),
        "campaign" => Box::new(Curation::new(cfg, seed, false)),
        "replay" => Box::new(Curation::new(cfg, seed, true)),
        "serve" => Box::new(Serve { seed, store: None }),
        _ => return None,
    })
}

fn time_s(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

fn tail_s(first: Option<Instant>, timing: &Timing) -> f64 {
    first.map_or(0.0, |f| {
        timing.ended.saturating_duration_since(f).as_secs_f64()
    })
}

fn imbalance(sizes: &[u64]) -> f64 {
    let mean = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
    sizes.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
}

/// Seconds each stream consumer takes over a finished run's events: the
/// monitor, the trace assembler and the metrics aggregator.
fn consumer_probes(facts: &mut Facts, events: &[Event], policy: &MonitorPolicy) {
    facts.insert(
        "probe.core.monitor.observe_s",
        time_s(|| {
            let mut monitor = CampaignMonitor::new(policy.clone());
            for e in events {
                monitor.observe(e);
                monitor.take_events();
            }
            std::hint::black_box(monitor.finish());
        }),
    );
    facts.insert(
        "probe.core.trace.assemble_s",
        time_s(|| {
            let mut asm = TraceAssembler::new(3);
            for e in events {
                asm.observe(e);
            }
            std::hint::black_box(asm.finish());
        }),
    );
    facts.insert(
        "probe.core.telemetry.aggregate_s",
        time_s(|| {
            let mut agg = MetricsAggregator::new();
            for e in events {
                agg.observe(e);
            }
            std::hint::black_box(agg.into_summary());
        }),
    );
}

/// The three renders every campaign directory gets beside its events.
fn render(tracer: Option<&Tracer>, sections: &[CampaignSection<'_>]) -> [String; 3] {
    [
        span(tracer, "core.render", "health.prom", || {
            render_prometheus(sections)
        }),
        span(tracer, "core.render", "profile.folded", || {
            render_folded(sections)
        }),
        span(tracer, "core.render", "trace.json", || {
            render_trace_json(sections)
        }),
    ]
}

/// Digest of the stable JSONL plus the three renders.
fn artifact_digest(jsonl: Fnv, renders: &[String; 3], extra: &str) -> (u64, String) {
    let components = format!(
        "events.jsonl={:016x}/{} health.prom={:016x} profile.folded={:016x} trace.json={:016x}{extra}",
        jsonl.hash,
        jsonl.len,
        Fnv::of(&renders[0]),
        Fnv::of(&renders[1]),
        Fnv::of(&renders[2]),
    );
    (Fnv::of(&components), components)
}

// ---------------------------------------------------------------- study

/// The paper end to end: curate all 30 cities, then the eleven
/// study-backed sections.
struct Study {
    cfg: Config,
    seed: u64,
    /// The last traced rep's study, for the probe.
    traced: Option<StudyDataset>,
}

impl Study {
    /// `run_study` at one thread, called once per city so each city gets
    /// a span (its curation and block-group aggregation). The cities are
    /// put together in `run_study`'s output order, by name; the digest
    /// check holds this rep to the untraced reps' output.
    fn traced_study(&self, tracer: &Tracer) -> StudyDataset {
        let mut cities: Vec<CityStudy> = self
            .cfg
            .study_cities
            .iter()
            .flat_map(|city| {
                tracer
                    .span("dataset.curate_city", city.name, || {
                        run_study(std::slice::from_ref(city), SCALE, self.seed, 1)
                    })
                    .cities
            })
            .collect();
        cities.sort_by_key(|c| c.dataset.city.name);
        StudyDataset {
            scale: SCALE,
            cities,
        }
    }
}

impl Workload for Study {
    /// A warm-up curation of the smallest study city, so the timed reps do
    /// not pay first-touch page faults and lazy initialisation.
    fn setup(&mut self, _threads: usize, tracer: Option<&Tracer>) -> Result<(), String> {
        let city = self
            .cfg
            .study_cities
            .iter()
            .min_by_key(|c| c.block_groups)
            .ok_or("study needs at least one city")?;
        let ds = span(tracer, "dataset.curate_city", city.name, || {
            curate_city(city, &SCALE.options(self.seed))
        });
        std::hint::black_box(aggregate_block_groups(&ds.records));
        Ok(())
    }

    fn rep(&mut self, threads: usize, tracer: Option<&Tracer>) -> Result<Rep, String> {
        let clock = Clock::start();
        let (study, first, sections) = span(tracer, "rep", "study", || {
            let study = match tracer {
                Some(t) => self.traced_study(t),
                None => run_study(&self.cfg.study_cities, SCALE, self.seed, threads),
            };
            let first = Instant::now();
            let sections: Vec<String> = SECTIONS
                .iter()
                .map(|(name, section)| span(tracer, "analysis.sections", name, || section(&study)))
                .collect();
            (study, first, sections)
        });
        let timing = clock.stop();

        let mut h = Fnv::new();
        let (mut queried, mut hits, mut failed) = (0u64, 0u64, 0u64);
        let mut violations = Vec::new();
        let mut per_city = Vec::new();
        for c in &study.cities {
            let ds = &c.dataset;
            let (mut city_hits, mut city_queried) = (0, 0);
            for (isp, m) in &ds.per_isp_metrics {
                let _ = writeln!(
                    h,
                    "{} {isp:?} {} {} {} {} {} {} {}",
                    ds.city.name,
                    m.queried,
                    m.plans,
                    m.no_service,
                    m.unserviceable,
                    m.blocked,
                    m.failed,
                    m.stalled
                );
                city_hits += m.plans + m.no_service;
                city_queried += m.queried;
            }
            per_city.push(city_queried);
            queried += city_queried;
            // Every hit lands exactly one dataset row.
            let rows = ds.records.len() as u64;
            if rows != city_hits {
                violations.push(format!(
                    "{}: {rows} rows for {city_hits} hits",
                    ds.city.name
                ));
                failed += rows.abs_diff(city_hits);
            }
            hits += city_hits;
            for r in &ds.records {
                let _ = writeln!(h, "{r:?}");
            }
            for row in &c.rows {
                let _ = writeln!(h, "{row:?}");
            }
        }
        let rows_hash = h.hash;
        let sections_text = sections.concat();
        let components = format!(
            "dataset.rows={rows_hash:016x} sections={:016x}",
            Fnv::of(&sections_text)
        );
        if queried == 0 {
            violations.push("the study queried nothing".to_string());
        }
        let facts = Facts::from([
            ("bat.hit_rate", hits as f64 / queried.max(1) as f64),
            ("exec.shard_imbalance", imbalance(&per_city)),
        ]);
        if tracer.is_some() {
            self.traced = Some(study);
        }
        Ok(Rep {
            tail_s: tail_s(Some(first), &timing),
            timing,
            ops: queried,
            attempted: queried,
            failed,
            digest: Fnv::of(&components),
            components,
            violations,
            facts,
        })
    }

    /// Block-group aggregation over every city of the last traced rep; the
    /// traced rep times it inside each city's `run_study`.
    fn probes(&mut self) -> Facts {
        let mut facts = Facts::new();
        if let Some(study) = self.traced.take() {
            facts.insert(
                "probe.dataset.aggregate_s",
                time_s(|| {
                    for c in &study.cities {
                        std::hint::black_box(aggregate_block_groups(&c.dataset.records));
                    }
                }),
            );
        }
        facts
    }
}

// ------------------------------------------------------ campaign/replay

/// One simulated BAT: a city×ISP endpoint over its city's world.
struct Server {
    endpoint: String,
    isp: Isp,
    world: Arc<CityWorld>,
}

/// The journaled, monitored, sharded curation campaign. `replay` re-runs
/// it over the complete journals its set-up wrote.
struct Curation {
    cfg: Config,
    seed: u64,
    replay: bool,
    servers: Vec<Server>,
    plan: ShardPlan,
    jobs: u64,
    /// Digest of the set-up's live run (replay only).
    live_digest: Option<u64>,
    /// The last traced rep's shard streams and merged stream, for the
    /// probes.
    traced: Option<(Vec<Vec<SeqEvent>>, Vec<Event>)>,
}

impl Curation {
    fn new(cfg: Config, seed: u64, replay: bool) -> Self {
        Self {
            cfg,
            seed,
            replay,
            servers: Vec::new(),
            plan: ShardPlan::new(Vec::new()),
            jobs: 0,
            live_digest: None,
            traced: None,
        }
    }

    fn wipe_journals(&self) -> Result<(), String> {
        let dir = &self.cfg.journal_dir;
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::read_dir(&self.cfg.journal_dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// One shard's private world: its BAT behind a hermetic transport, an
    /// IP pool and its journal segment.
    fn make_env(
        &self,
        spec: &ShardSpec,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
        handle: Option<&Arc<CallStats>>,
    ) -> Result<ShardEnv, JournalError> {
        span_under(tracer, parent, "core.make_env", &spec.label, |id| {
            let server = self
                .servers
                .iter()
                .find(|s| s.endpoint == spec.label)
                .ok_or_else(|| JournalError::Io(format!("no server for shard {}", spec.label)))?;
            let bat = span_under(tracer, id, "bat.new", &spec.label, |_| {
                BatServer::new(server.isp, server.world.clone())
            });
            let net = bat.profile().network_latency;
            let service: Box<dyn Service + Send> = match handle {
                Some(stats) => Box::new(TimedService {
                    inner: bat,
                    stats: stats.clone(),
                }),
                None => Box::new(bat),
            };
            let mut transport = Transport::hermetic(self.seed);
            transport.register(server.endpoint.clone(), Endpoint::new(service, net));
            let path = self
                .cfg
                .journal_dir
                .join(format!("shard-{:02}.journal", spec.id));
            let journal = span_under(tracer, id, "core.journal.open", &spec.label, |_| {
                Journal::open(&path)
            })?;
            Ok(ShardEnv {
                transport,
                pool: IpPool::residential(256, RotationPolicy::RoundRobin, self.seed),
                journal: Some(journal),
            })
        })
    }

    /// One campaign run over the current journals: live when they are
    /// empty, a replay when `replaying` and they are complete.
    fn run(
        &self,
        threads: usize,
        tracer: Option<&Tracer>,
        replaying: bool,
    ) -> Result<(Rep, ShardedOutcome), String> {
        let handle = tracer.map(|_| CallStats::new());
        let mut rec = BenchRecorder::new(tracer.map(|_| CallStats::new()));
        let label = if replaying { "replay" } else { "campaign" };
        let clock = Clock::start();
        let result = span(tracer, "rep", label, || {
            let outcome = span(tracer, "core.run_sharded", label, || {
                let parent = tracer.and_then(Tracer::current);
                let make_env =
                    |spec: &ShardSpec| self.make_env(spec, tracer, parent, handle.as_ref());
                let out = Campaign::new(self.seed)
                    .monitor(MonitorPolicy::paper_default())
                    .threads(threads)
                    .recorder(&mut rec)
                    .run_sharded(&self.plan, &make_env);
                if let (Some(t), Some(p)) = (tracer, parent) {
                    t.charge(p, "bat.handle", handle.as_deref().expect("traced"));
                    t.charge(
                        p,
                        "core.telemetry.record",
                        rec.timing.as_deref().expect("traced"),
                    );
                }
                out
            })?;
            let renders = render(tracer, &outcome.health_sections());
            Ok::<_, JournalError>((outcome, renders))
        });
        let timing = clock.stop();
        let (outcome, renders) = result.map_err(|e| format!("{label}: {e}"))?;
        let rep = self.verify(&outcome, &renders, &rec, timing, replaying);
        Ok((rep, outcome))
    }

    fn verify(
        &self,
        outcome: &ShardedOutcome,
        renders: &[String; 3],
        rec: &BenchRecorder,
        timing: Timing,
        replaying: bool,
    ) -> Rep {
        let mut violations = Vec::new();
        let (mut records, mut hits, mut failed, mut requests) = (0u64, 0u64, 0u64, 0u64);
        for (spec, shard) in self.plan.shards.iter().zip(&outcome.shards) {
            requests += shard.env.transport.requests_sent();
            let Some(report) = shard.report.as_deref() else {
                violations.push(format!("shard {} crashed", spec.label));
                failed += spec.jobs.len() as u64;
                continue;
            };
            // Every job yields exactly one record.
            let mut want: Vec<u64> = spec.jobs.iter().map(|j| j.tag).collect();
            let mut got: Vec<u64> = report.records.iter().map(|r| r.tag).collect();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                violations.push(format!(
                    "shard {}: {} records for {} jobs",
                    spec.label,
                    got.len(),
                    want.len()
                ));
                failed += want.len().abs_diff(got.len()).max(1) as u64;
            }
            for r in &report.records {
                records += 1;
                hits += u64::from(r.outcome.is_hit());
            }
        }
        let resume = outcome.resume();
        if replaying {
            // Replay answers every job from the journal.
            if resume.live_attempts != 0 {
                violations.push(format!("replay ran {} live attempts", resume.live_attempts));
            }
            failed += resume.live_attempts;
        } else if resume.replayed_attempts != 0 {
            violations.push(format!(
                "campaign replayed {} attempts",
                resume.replayed_attempts
            ));
        }
        let (digest, components) = artifact_digest(rec.jsonl(), renders, "");
        if let Some(live) = self.live_digest {
            if digest != live {
                violations.push(format!("replay digest {digest:016x} != live {live:016x}"));
            }
        }
        let shard_jobs: Vec<u64> = self
            .plan
            .shards
            .iter()
            .map(|s| s.jobs.len() as u64)
            .collect();
        let facts = Facts::from([
            ("bat.handle_calls", requests as f64),
            ("bat.hit_rate", hits as f64 / records.max(1) as f64),
            ("core.telemetry.events", rec.events as f64),
            ("core.telemetry.jsonl_bytes", rec.jsonl().len as f64),
            ("core.journal.bytes", self.journal_bytes() as f64),
            (
                "core.journal.replayed_frac",
                resume.replayed_attempts as f64 / self.jobs.max(1) as f64,
            ),
            ("mem.merged_events", outcome.events.len() as f64),
            ("exec.shard_imbalance", imbalance(&shard_jobs)),
        ]);
        Rep {
            tail_s: tail_s(rec.first_event, &timing),
            timing,
            ops: if replaying {
                resume.replayed_attempts
            } else {
                records
            },
            attempted: self.jobs,
            failed,
            digest,
            components,
            violations,
            facts,
        }
    }
}

impl Workload for Curation {
    /// Builds the campaign cities' worlds, samples each city×ISP endpoint
    /// the paper's way (per block group, rate with a floor and the scale's
    /// cap) and partitions the jobs by endpoint. Replay then runs the
    /// campaign live once to write complete journals.
    fn setup(&mut self, threads: usize, tracer: Option<&Tracer>) -> Result<(), String> {
        let opts = SCALE.options(self.seed);
        let mut servers = Vec::new();
        let mut jobs = Vec::new();
        for city in &self.cfg.campaign_cities {
            let world = span(tracer, "world.build", city.name, || {
                Arc::new(CityWorld::build_at(city, 0))
            });
            let sample_seed = city_seed(city.name) ^ self.seed.rotate_left(16);
            span(tracer, "address.sample", city.name, || {
                for isp in world.isps() {
                    let endpoint = format!("{}/{}", isp.slug(), city.name);
                    for bg in 0..world.grid().len() {
                        let mut sampled = world.addresses().sample_block_group(
                            bg,
                            opts.sample_rate,
                            opts.min_samples,
                            sample_seed,
                        );
                        if let Some(cap) = opts.max_samples_per_bg {
                            sampled.truncate(cap);
                        }
                        jobs.extend(sampled.into_iter().map(|rec| QueryJob {
                            endpoint: endpoint.clone(),
                            dialect: templates::dialect_of(isp),
                            input_line: rec.listing_line.clone(),
                            tag: u64::from(rec.id),
                        }));
                    }
                    servers.push(Server {
                        endpoint,
                        isp,
                        world: world.clone(),
                    });
                }
            });
        }
        self.servers = servers;
        self.jobs = jobs.len() as u64;
        self.plan = ShardPlan::by_endpoint(self.seed, &jobs);
        self.live_digest = None;
        self.wipe_journals()?;
        if self.replay {
            let live = span(tracer, "setup.live_run", "campaign", || {
                self.run(threads, None, false)
            })?
            .0;
            if !live.violations.is_empty() {
                return Err(format!("live run: {}", live.violations.join("; ")));
            }
            self.live_digest = Some(live.digest);
        }
        Ok(())
    }

    fn rep(&mut self, threads: usize, tracer: Option<&Tracer>) -> Result<Rep, String> {
        if !self.replay {
            self.wipe_journals()?;
        }
        let (rep, outcome) = self.run(threads, tracer, self.replay)?;
        if tracer.is_some() {
            let streams = outcome.shards.into_iter().map(|s| s.events).collect();
            self.traced = Some((streams, outcome.events));
        }
        Ok(rep)
    }

    fn probes(&mut self) -> Facts {
        let mut facts = Facts::new();
        if let Some((streams, events)) = self.traced.take() {
            facts.insert(
                "probe.core.shard.merge_s",
                time_s(|| {
                    std::hint::black_box(merge_seq_streams(streams.iter().map(Vec::as_slice)));
                }),
            );
            consumer_probes(&mut facts, &events, &MonitorPolicy::paper_default());
        }
        facts
    }
}

// ---------------------------------------------------------------- serve

struct Serve {
    seed: u64,
    store: Option<Arc<PlanStore>>,
}

/// Keeps a finished run's merged stream for the probes.
struct Capture(Vec<Event>);

impl Recorder for Capture {
    fn record(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

impl Serve {
    /// Schedule generation, router lookups and the stream consumers,
    /// re-driven over this seed's real inputs.
    fn probe(&self, store: &Arc<PlanStore>, opts: &ServeOptions) -> Facts {
        let mut facts = Facts::new();
        let mut schedules = Vec::new();
        facts.insert(
            "probe.serve.schedule_s",
            time_s(|| {
                for (id, shard) in store.shards().iter().enumerate() {
                    schedules.push(bbsim_serve::load::generate_schedule(
                        id as u32,
                        shard,
                        &opts.phases,
                        opts.seed,
                    ));
                }
            }),
        );
        let sizes: Vec<u64> = schedules.iter().map(|s| s.len() as u64).collect();
        facts.insert("exec.shard_imbalance", imbalance(&sizes));
        let route = CallStats::new();
        for schedule in &schedules {
            let mut router = Router::new(store.clone(), opts.cache_capacity);
            for arrival in schedule {
                for q in arrival.request.queries() {
                    let started = Instant::now();
                    std::hint::black_box(router.route(q));
                    route.add(started);
                }
            }
        }
        let (p50, tail, _, _) = crate::trace::latency_summary(&route.buckets());
        facts.insert("probe.serve.route_p50_ns", p50 as f64);
        facts.insert("probe.serve.route_tail_ns", tail as f64);
        let mut capture = Capture(Vec::new());
        run_recorded(store, opts, &mut capture);
        consumer_probes(&mut facts, &capture.0, &opts.policy);
        facts
    }
}

impl Workload for Serve {
    /// Curates the serve cities and loads their artifacts into the
    /// sharded plan store.
    fn setup(&mut self, _threads: usize, tracer: Option<&Tracer>) -> Result<(), String> {
        self.store = Some(span(tracer, "serve.build_store", "store", || {
            Arc::new(bench::serve_exp::build_store(self.seed))
        }));
        Ok(())
    }

    fn rep(&mut self, threads: usize, tracer: Option<&Tracer>) -> Result<Rep, String> {
        let store = self.store.clone().ok_or("serve rep before set-up")?;
        let opts = ServeOptions::quick(self.seed).threads(threads);
        let mut rec = BenchRecorder::new(tracer.map(|_| CallStats::new()));
        let clock = Clock::start();
        let (outcome, renders) = span(tracer, "rep", "serve", || {
            let outcome = span(tracer, "serve.run_recorded", "serve", || {
                let out = run_recorded(&store, &opts, &mut rec);
                if let Some(t) = tracer {
                    let id = t.current().expect("inside run_recorded span");
                    t.charge(
                        id,
                        "core.telemetry.record",
                        rec.timing.as_deref().expect("traced"),
                    );
                }
                out
            });
            let section = CampaignSection {
                label: "serve",
                telemetry: &outcome.summary,
                health: &outcome.health,
            };
            let renders = render(tracer, std::slice::from_ref(&section));
            (outcome, renders)
        });
        let timing = clock.stop();

        let s = &outcome.summary;
        let mut violations = Vec::new();
        match outcome
            .health
            .alerts
            .iter()
            .find(|a| a.rule == "p99_latency")
        {
            Some(a) if a.resolved_at.is_some() => {}
            Some(_) => violations.push("the p99 alert never resolved".to_string()),
            None => violations.push("the scan phase never fired the p99 alert".to_string()),
        }
        if outcome.lookups() < LOOKUP_FLOOR {
            violations.push(format!(
                "{} lookups, below the floor of {}",
                outcome.lookups(),
                LOOKUP_FLOOR
            ));
        }
        let counts = format!(
            " counts={}/{}/{}/{}/{}/{}",
            outcome.arrivals,
            outcome.lookups(),
            s.serve_sheds,
            s.serve_cache_hits,
            s.cache_evictions,
            outcome.makespan_ms
        );
        let (digest, components) = artifact_digest(rec.jsonl(), &renders, &counts);
        let facts = Facts::from([
            ("core.telemetry.events", rec.events as f64),
            ("core.telemetry.jsonl_bytes", rec.jsonl().len as f64),
            ("mem.merged_events", rec.events as f64),
            (
                "serve.cache_hit_frac",
                s.serve_cache_hits as f64 / outcome.lookups().max(1) as f64,
            ),
            (
                "serve.shed_frac",
                s.serve_sheds as f64 / outcome.arrivals.max(1) as f64,
            ),
            ("serve.evictions", s.cache_evictions as f64),
        ]);
        Ok(Rep {
            tail_s: tail_s(rec.first_event, &timing),
            timing,
            ops: outcome.lookups(),
            attempted: outcome.arrivals,
            failed: rec.unanswered,
            digest,
            components,
            violations,
            facts,
        })
    }

    fn probes(&mut self) -> Facts {
        match &self.store {
            Some(store) => self.probe(store, &ServeOptions::quick(self.seed)),
            None => Facts::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at Fargo size: the invariants hold, the digest is
    /// the same at one and two threads and traced, the traced rep's layers
    /// sum exactly to its wall time, and replay reproduces the live run.
    /// The study takes two cities out of name order, so the traced study,
    /// which calls `run_study` once per city, must reassemble them as
    /// `run_study` orders its output.
    #[test]
    fn fargo_sized_smoke_run_of_every_workload() {
        let fargo = city_by_name("Fargo").expect("study city");
        let billings = city_by_name("Billings").expect("study city");
        let dir = std::env::temp_dir().join(format!("divide-bench-smoke-{}", std::process::id()));
        let mut cfg = Config::new(dir.clone());
        cfg.study_cities = vec![fargo, billings];
        cfg.campaign_cities = vec![fargo];
        let mut digests = BTreeMap::new();
        for name in WORKLOADS {
            let mut w = make(name, cfg.clone(), 3).expect("known workload");
            w.setup(2, None).expect("set-up");
            let plain = w.rep(2, None).expect("rep");
            let tracer = Tracer::new();
            let traced = tracer
                .span("rep-root", name, || w.rep(1, Some(&tracer)))
                .expect("rep");
            for rep in [&plain, &traced] {
                assert!(rep.violations.is_empty(), "{name}: {:?}", rep.violations);
                assert_eq!(rep.failed, 0, "{name}");
                assert!(rep.ops > 0 && rep.attempted > 0, "{name}");
            }
            assert_eq!(
                plain.digest, traced.digest,
                "{name}: digest depends on threads/tracing"
            );
            let a = tracer.attribute(tracer.last("rep").expect("traced rep span"));
            assert_eq!(a.sum_ns(), a.root_ns as i64, "{name}: {a:?}");
            assert!(a.layers.len() >= 2, "{name}: {a:?}");
            let probes = w.probes();
            assert!(!probes.is_empty(), "{name}: no probe ran");
            digests.insert(name, plain.digest);
        }
        assert_eq!(
            digests["campaign"], digests["replay"],
            "replay must rewrite the live output"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}
