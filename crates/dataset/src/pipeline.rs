//! End-to-end curation: world up, servers on, BQT through, records out.

use crate::record::PlanRecord;
use bbsim_address::matching::Measure;
use bbsim_bat::{register_fleet, templates};
use bbsim_census::{city_seed, CityProfile};
use bbsim_isp::{CityWorld, Isp};
use bbsim_net::{FaultPlan, IpPool, RotationPolicy, SimDuration, Transport};
use bqt::{
    render_folded, render_prometheus, render_trace_json, BqtConfig, Campaign, Journal,
    JournalError, JsonlRecorder, Metrics, MonitorPolicy, Orchestrator, QueryJob, QueryOutcome,
    ResumeStats, RetryPolicy, ShardEnv, ShardPlan, ShardSpec,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

/// Knobs for a curation run.
///
/// Constructed via [`CurationOptions::paper_default`] /
/// [`CurationOptions::quick`] plus the consuming setters (mirroring the
/// `Campaign` builder style): fields stay readable everywhere, but
/// `#[non_exhaustive]` reserves the right to grow knobs without
/// breaking downstream literals.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurationOptions {
    /// Fraction of each block group's addresses to sample (paper: 0.10).
    pub sample_rate: f64,
    /// Floor of samples per block group (paper: 30).
    pub min_samples: usize,
    /// Optional cap per block group, for reduced-scale runs.
    pub max_samples_per_bg: Option<usize>,
    /// Concurrent worker containers (paper: 50–100).
    pub workers: usize,
    /// Addresses used to calibrate each ISP's settle pause.
    pub calibration_samples: usize,
    /// Run seed (composes with the city seed).
    pub seed: u64,
    /// Suggestion-matching measure (the matcher ablation's knob).
    pub measure: Measure,
    /// World epoch in months (0 = the study's first snapshot); drives the
    /// §4.3 staleness experiment.
    pub epoch: u32,
    /// Job-level retry policy handed to the orchestrator. `None` keeps the
    /// paper's one-shot semantics; chaos runs set it to recover hit rate
    /// under injected faults.
    pub retry: Option<RetryPolicy>,
    /// OS threads for journaled (sharded) curation. Purely a scheduling
    /// knob: every artifact is byte-identical for every value (see
    /// [`bqt::shard`]). Ignored by journal-less curation, which stays on
    /// one thread over a single shared transport.
    pub threads: usize,
}

impl CurationOptions {
    /// The paper's full methodology.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            sample_rate: 0.10,
            min_samples: 30,
            max_samples_per_bg: None,
            workers: 64,
            calibration_samples: 20,
            seed,
            measure: Measure::TokenSort,
            epoch: 0,
            retry: None,
            threads: 1,
        }
    }

    /// A reduced-scale configuration for tests and quick demos: the same
    /// pipeline with fewer samples per block group.
    pub fn quick(seed: u64) -> Self {
        Self {
            sample_rate: 0.10,
            min_samples: 6,
            max_samples_per_bg: Some(6),
            workers: 32,
            calibration_samples: 10,
            seed,
            measure: Measure::TokenSort,
            epoch: 0,
            retry: None,
            threads: 1,
        }
    }

    /// The same options with a retry policy attached.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Overrides the per-block-group sampling fraction.
    pub fn sample_rate(mut self, rate: f64) -> Self {
        self.sample_rate = rate;
        self
    }

    /// Overrides the per-block-group sample floor.
    pub fn min_samples(mut self, n: usize) -> Self {
        self.min_samples = n;
        self
    }

    /// Overrides the per-block-group sample cap.
    pub fn max_samples_per_bg(mut self, cap: Option<usize>) -> Self {
        self.max_samples_per_bg = cap;
        self
    }

    /// Overrides the worker-container count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Overrides the settle-pause calibration sample count.
    pub fn calibration_samples(mut self, n: usize) -> Self {
        self.calibration_samples = n;
        self
    }

    /// Overrides the suggestion-matching measure.
    pub fn measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    /// Overrides the world epoch (months since the first snapshot).
    pub fn epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// Overrides the OS-thread count for journaled (sharded) curation.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The curated dataset for one city.
pub struct CityDataset {
    pub city: &'static CityProfile,
    /// Per-address scraped rows (hits only; misses appear in metrics).
    pub records: Vec<PlanRecord>,
    /// Per-ISP outcome counters (Fig. 2 inputs).
    pub per_isp_metrics: Vec<(Isp, Metrics)>,
    /// Per-ISP calibrated settle pauses.
    pub per_isp_pause: Vec<(Isp, SimDuration)>,
}

/// Curates one city: the paper's §4.1 methodology over the simulated web.
pub fn curate_city(city: &'static CityProfile, opts: &CurationOptions) -> CityDataset {
    curate_city_with_faults(city, opts, None)
}

/// [`curate_city`] over a degraded network: the fault `plan`, if any, is
/// attached to the transport before the BAT fleet comes up, so every
/// scheduled timeout, reset, storm or brownout hits the run's virtual
/// timeline. Used by the chaos tests and the `repro chaos` experiment.
pub fn curate_city_with_faults(
    city: &'static CityProfile,
    opts: &CurationOptions,
    plan: Option<FaultPlan>,
) -> CityDataset {
    let (world, run_seed) = city_world(city, opts);
    let mut transport = Transport::new(run_seed);
    if let Some(plan) = plan {
        transport.set_fault_plan(plan);
    }

    register_fleet(&mut transport, &world);

    let mut pool = IpPool::residential(256, RotationPolicy::RoundRobin, run_seed);
    let mut records = Vec::new();
    let mut per_isp_metrics = Vec::new();
    let mut per_isp_pause = Vec::new();

    for isp in world.isps() {
        let src = pool.next();
        let (pause, config) = calibrate_isp(&world, opts, &mut transport, isp, src);
        per_isp_pause.push((isp, pause));
        let jobs = sample_jobs(&world, opts, isp, sample_seed(city, opts));

        // Scrape.
        let report = Campaign::from_orchestrator(isp_orchestrator(opts, isp, run_seed))
            .config(config)
            .run(&mut transport, &jobs, &mut pool);

        land_records(&mut records, city, &world, isp, &report.records);
        per_isp_metrics.push((isp, report.metrics));
    }

    CityDataset {
        city,
        records,
        per_isp_metrics,
        per_isp_pause,
    }
}

/// Crash-recoverable curation: like [`curate_city_with_faults`], but the
/// transport is hermetic and every ISP's campaign is journaled to
/// `<journal_dir>/<isp-slug>.journal`. Re-running after a crash replays
/// the journaled attempts and scrapes only the remainder; the returned
/// [`ResumeStats`] (summed over ISPs) say how much the journals saved.
///
/// The campaign directory also gets one `events.jsonl` telemetry log
/// covering every ISP's campaign in order, restricted to replay-stable
/// events so a resumed run rewrites the identical log.
///
/// The fault `plan`, if any, should itself be hermetic
/// ([`FaultPlan::hermetic`]) or resumed runs will see different faults
/// than the original.
pub fn curate_city_journaled(
    city: &'static CityProfile,
    opts: &CurationOptions,
    plan: Option<FaultPlan>,
    journal_dir: &Path,
) -> Result<(CityDataset, ResumeStats), JournalError> {
    std::fs::create_dir_all(journal_dir).map_err(|e| JournalError::Io(e.to_string()))?;
    let (world, run_seed) = city_world(city, opts);
    curate_city_sharded(city, opts, plan, journal_dir, &world, run_seed)
}

/// Checks `opts` and builds the city's world at their epoch, with the
/// run seed both curation modes derive their streams from.
fn city_world(city: &'static CityProfile, opts: &CurationOptions) -> (Arc<CityWorld>, u64) {
    assert!(opts.sample_rate > 0.0 && opts.sample_rate <= 1.0);
    assert!(opts.workers >= 1);
    let world = Arc::new(CityWorld::build_at(city, opts.epoch));
    let run_seed = city_seed(city.name) ^ opts.seed.rotate_left(16) ^ ((opts.epoch as u64) << 1);
    (world, run_seed)
}

/// Journaled curation, sharded per ISP: calibration runs serially upfront
/// (it consumes the shared pool's cursor), then every ISP's campaign
/// becomes one shard with its own hermetic environment, executed on up to
/// `opts.threads` OS threads and merged back into `(at, seq)` order. The
/// merged stream feeds one `events.jsonl`; `health.prom` and
/// `profile.folded` render the shard health sections in ISP order — all
/// three byte-identical for every thread count, and across crash+resume.
fn curate_city_sharded(
    city: &'static CityProfile,
    opts: &CurationOptions,
    plan: Option<FaultPlan>,
    dir: &Path,
    world: &Arc<CityWorld>,
    run_seed: u64,
) -> Result<(CityDataset, ResumeStats), JournalError> {
    // The calibration transport mirrors what each shard will rebuild: the
    // hermetic transport's draws are keyed by (seed, endpoint, ip, time),
    // so per-shard copies answer exactly like this shared one.
    let mut transport = Transport::hermetic(run_seed);
    if let Some(plan) = plan.clone() {
        transport.set_fault_plan(plan);
    }
    register_fleet(&mut transport, world);
    let mut pool = IpPool::residential(256, RotationPolicy::RoundRobin, run_seed);

    let mut per_isp_pause = Vec::new();
    let mut specs = Vec::new();
    let isps = world.isps();
    for (i, &isp) in isps.iter().enumerate() {
        let src = pool.next();
        let (pause, config) = calibrate_isp(world, opts, &mut transport, isp, src);
        per_isp_pause.push((isp, pause));
        let jobs = sample_jobs(world, opts, isp, sample_seed(city, opts));
        specs.push(ShardSpec {
            id: i as u32,
            label: isp.slug().to_string(),
            // The same per-ISP seed the sequential path always used, so a
            // shard's stream (and journal) is identical to the campaign it
            // replaces.
            seed: run_seed ^ (isp.column() as u64),
            config: Some(config),
            jobs,
        });
    }
    let shard_plan = ShardPlan::new(specs);

    // Each shard gets a private copy of the fleet: fresh hermetic
    // transport (same seed — draws are position-independent), fresh pool
    // (journaled attempts assign IPs by key, never by cursor), and its own
    // journal segment.
    let fleet = world.clone();
    let make_env = move |spec: &ShardSpec| -> Result<ShardEnv, JournalError> {
        let mut transport = Transport::hermetic(run_seed);
        if let Some(plan) = plan.clone() {
            transport.set_fault_plan(plan);
        }
        register_fleet(&mut transport, &fleet);
        let journal = Journal::open(&dir.join(format!("{}.journal", spec.label)))?;
        Ok(ShardEnv {
            transport,
            pool: IpPool::residential(256, RotationPolicy::RoundRobin, run_seed),
            journal: Some(journal),
        })
    };

    // One telemetry log for the whole campaign directory, fed the merged
    // stream. Stable events only: a resume must rewrite the same bytes.
    let file =
        File::create(dir.join("events.jsonl")).map_err(|e| JournalError::Io(e.to_string()))?;
    let mut event_log = JsonlRecorder::stable(BufWriter::new(file));

    let outcome = Campaign::from_orchestrator(isp_orchestrator(opts, isps[0], run_seed))
        .monitor(MonitorPolicy::paper_default())
        .threads(opts.threads)
        .recorder(&mut event_log)
        .run_sharded(&shard_plan, &make_env)?;
    event_log
        .finish()
        .map_err(|e| JournalError::Io(format!("events.jsonl: {e}")))?;

    // Beside `events.jsonl`, the campaign directory gets the monitor's
    // exposition and profile — both replay-stable, so a resumed run
    // rewrites identical bytes.
    let sections = outcome.health_sections();
    std::fs::write(dir.join("health.prom"), render_prometheus(&sections))
        .map_err(|e| JournalError::Io(e.to_string()))?;
    std::fs::write(dir.join("profile.folded"), render_folded(&sections))
        .map_err(|e| JournalError::Io(e.to_string()))?;
    std::fs::write(dir.join("trace.json"), render_trace_json(&sections))
        .map_err(|e| JournalError::Io(e.to_string()))?;
    drop(sections);

    let resume = outcome.resume();
    let mut records = Vec::new();
    let mut per_isp_metrics = Vec::new();
    for (run, &isp) in outcome.shards.into_iter().zip(&isps) {
        let Some(report) = run.report else {
            // lint:allow(T2): pipeline campaigns never set a crash point
            unreachable!("pipeline campaigns never set a crash point")
        };
        land_records(&mut records, city, world, isp, &report.records);
        per_isp_metrics.push((isp, report.metrics));
    }

    Ok((
        CityDataset {
            city,
            records,
            per_isp_metrics,
            per_isp_pause,
        },
        resume,
    ))
}

/// The epoch-free address-sampling seed: every wave of a longitudinal
/// study queries the same addresses (the world's plans evolve with the
/// epoch; the sample does not). At epoch 0 this equals the run seed, so
/// single-snapshot curation is unchanged.
fn sample_seed(city: &'static CityProfile, opts: &CurationOptions) -> u64 {
    city_seed(city.name) ^ opts.seed.rotate_left(16)
}

/// Calibrates one ISP's settle pause like the paper — max observed load
/// time over a bootstrap sample — and derives its workflow config.
fn calibrate_isp(
    world: &Arc<CityWorld>,
    opts: &CurationOptions,
    transport: &mut Transport,
    isp: Isp,
    src: bbsim_net::SimIp,
) -> (SimDuration, BqtConfig) {
    let calib_lines: Vec<String> = world
        .addresses()
        .records()
        .iter()
        .take(opts.calibration_samples.max(1))
        .map(|r| r.canonical_line())
        .collect();
    let pause = bqt::client::calibrate_pause(transport, isp.slug(), &calib_lines, src);
    let mut config = BqtConfig::paper_default(pause);
    config.measure = opts.measure;
    (pause, config)
}

/// Samples addresses per block group (10%, floor 30, optional cap) into
/// one ISP's job list. Each job's tag is its address id.
///
/// The sampling seed deliberately excludes the epoch (see
/// [`sample_seed`]): a longitudinal study re-curates the *same* sample at
/// every wave, so the snapshot diff compares ISP decisions, not sampling
/// noise.
fn sample_jobs(
    world: &Arc<CityWorld>,
    opts: &CurationOptions,
    isp: Isp,
    sample_seed: u64,
) -> Vec<QueryJob> {
    let db = world.addresses();
    let mut jobs = Vec::new();
    for bg in 0..world.grid().len() {
        let mut sampled =
            db.sample_block_group(bg, opts.sample_rate, opts.min_samples, sample_seed);
        if let Some(cap) = opts.max_samples_per_bg {
            sampled.truncate(cap);
        }
        for rec in sampled {
            jobs.push(QueryJob {
                endpoint: isp.slug().to_string(),
                dialect: templates::dialect_of(isp),
                input_line: rec.listing_line.clone(),
                tag: u64::from(rec.id),
            });
        }
    }
    jobs
}

/// The per-ISP orchestration parameters every curation mode shares.
fn isp_orchestrator(opts: &CurationOptions, isp: Isp, run_seed: u64) -> Orchestrator {
    Orchestrator {
        n_workers: opts.workers,
        retry: opts.retry,
        ..Orchestrator::paper_default(run_seed ^ (isp.column() as u64))
    }
}

/// Lands one campaign's hits as dataset rows. Each tag is the address id
/// [`sample_jobs`] gave the job; any other tag lands no row.
fn land_records(
    records: &mut Vec<PlanRecord>,
    city: &'static CityProfile,
    world: &Arc<CityWorld>,
    isp: Isp,
    qrecords: &[bqt::QueryRecord],
) {
    for qrec in qrecords {
        let plans = match &qrec.outcome {
            QueryOutcome::Plans(p) => p.clone(),
            QueryOutcome::NoService => Vec::new(),
            _ => continue,
        };
        let Ok(addr_id) = u32::try_from(qrec.tag) else {
            continue;
        };
        let addr = world.addresses().record(addr_id);
        records.push(PlanRecord {
            city: city.name.to_string(),
            isp,
            address_tag: qrec.tag,
            block_group: world.grid().id(addr.bg_index()),
            bg_index: addr.bg_index(),
            plans,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate_block_groups;
    use bbsim_census::city_by_name;

    fn billings() -> CityDataset {
        curate_city(
            city_by_name("Billings").unwrap(),
            &CurationOptions::quick(1),
        )
    }

    #[test]
    fn curates_both_isps_with_high_hit_rates() {
        let ds = billings();
        assert_eq!(ds.per_isp_metrics.len(), 2);
        for (isp, m) in &ds.per_isp_metrics {
            assert!(m.queried > 300, "{isp}: {m:?}");
            assert!(m.hit_rate() > 0.75, "{isp}: hit rate {}", m.hit_rate());
        }
    }

    #[test]
    fn records_cover_most_block_groups() {
        let ds = billings();
        let rows = aggregate_block_groups(&ds.records);
        let spectrum_rows = rows
            .iter()
            .filter(|r| r.isp == bbsim_isp::Isp::Spectrum)
            .count();
        // Spectrum (cable) serves ~all 98 groups; most should have data.
        assert!(spectrum_rows > 80, "only {spectrum_rows} Spectrum rows");
    }

    #[test]
    fn scraped_cvs_are_in_catalog_range() {
        let ds = billings();
        for r in &ds.records {
            if let Some(cv) = r.best_cv() {
                assert!(cv > 0.0 && cv < 60.0, "{}: cv {cv}", r.isp);
            }
        }
    }

    #[test]
    fn per_bg_sample_counts_respect_quick_cap() {
        let ds = billings();
        let mut per_bg: std::collections::HashMap<(bbsim_isp::Isp, usize), usize> =
            std::collections::HashMap::new();
        for r in &ds.records {
            *per_bg.entry((r.isp, r.bg_index)).or_default() += 1;
        }
        for (&(isp, bg), &n) in &per_bg {
            assert!(n <= 6, "{isp} bg {bg}: {n} records exceed the cap");
        }
    }

    #[test]
    fn curation_is_deterministic_in_seed() {
        let a = curate_city(
            city_by_name("Billings").unwrap(),
            &CurationOptions::quick(5),
        );
        let b = curate_city(
            city_by_name("Billings").unwrap(),
            &CurationOptions::quick(5),
        );
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x, y);
        }
        let c = curate_city(
            city_by_name("Billings").unwrap(),
            &CurationOptions::quick(6),
        );
        assert!(
            a.records.len() != c.records.len() || a.records != c.records,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn journaled_curation_resumes_without_rescraping() {
        let dir = std::env::temp_dir().join(format!("bqj-pipeline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = CurationOptions::quick(9);
        opts.max_samples_per_bg = Some(2);
        opts.min_samples = 2;
        let city = city_by_name("Billings").unwrap();

        let (first, r1) = curate_city_journaled(city, &opts, None, &dir).unwrap();
        assert_eq!(r1.replayed_attempts, 0);
        assert!(r1.live_attempts > 0);
        let log1 = std::fs::read(dir.join("events.jsonl")).unwrap();
        assert!(!log1.is_empty(), "campaign directory gets an event log");
        let prom1 = std::fs::read_to_string(dir.join("health.prom")).unwrap();
        assert!(
            prom1.contains("# TYPE bqt_attempts_total counter"),
            "exposition present"
        );
        let folded1 = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert!(!folded1.is_empty(), "folded profile present");
        let trace1 = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(
            trace1.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            "Perfetto export present"
        );
        assert!(trace1.contains("\"ph\":\"X\""), "complete events emitted");

        // Second run over the same journals: everything replays.
        let (second, r2) = curate_city_journaled(city, &opts, None, &dir).unwrap();
        assert_eq!(r2.live_attempts, 0, "complete journals need no scraping");
        assert_eq!(r2.replayed_attempts, r1.live_attempts);
        assert_eq!(first.records, second.records);
        assert_eq!(first.per_isp_metrics, second.per_isp_metrics);
        let log2 = std::fs::read(dir.join("events.jsonl")).unwrap();
        assert_eq!(log1, log2, "replayed curation rewrites the same log");
        let prom2 = std::fs::read_to_string(dir.join("health.prom")).unwrap();
        assert_eq!(prom1, prom2, "resume rewrites the identical exposition");
        let folded2 = std::fs::read_to_string(dir.join("profile.folded")).unwrap();
        assert_eq!(folded1, folded2, "resume rewrites the identical profile");
        let trace2 = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert_eq!(trace1, trace2, "resume rewrites the identical trace export");

        // A different campaign must refuse the same journals.
        let mut other = opts;
        other.seed = 10;
        match curate_city_journaled(city, &other, None, &dir) {
            Err(JournalError::ManifestMismatch { .. }) => {}
            Err(other) => panic!("expected manifest mismatch, got {other}"),
            Ok(_) => panic!("foreign journals must be refused"),
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An event log that loses a line fails the curation: here
    /// `events.jsonl` is a symlink to a device that refuses every write.
    #[cfg(target_os = "linux")]
    #[test]
    fn an_unwritable_event_log_fails_the_curation() {
        let dir = std::env::temp_dir().join(format!("bqj-full-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::os::unix::fs::symlink("/dev/full", dir.join("events.jsonl")).unwrap();
        let mut opts = CurationOptions::quick(9);
        opts.max_samples_per_bg = Some(2);
        opts.min_samples = 2;
        let result = curate_city_journaled(city_by_name("Billings").unwrap(), &opts, None, &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        match result {
            Err(JournalError::Io(msg)) => assert!(msg.starts_with("events.jsonl: "), "{msg}"),
            Err(other) => panic!("expected an events.jsonl I/O error, got {other}"),
            Ok(_) => panic!("a lost event log must not read as a success"),
        }
    }

    #[test]
    fn calibrated_pauses_track_isp_latency_ordering() {
        let ds = billings();
        // Billings has CenturyLink (slower) and Spectrum (slowest of all).
        let pause_of =
            |isp: bbsim_isp::Isp| ds.per_isp_pause.iter().find(|(i, _)| *i == isp).unwrap().1;
        assert!(
            pause_of(bbsim_isp::Isp::Spectrum) > pause_of(bbsim_isp::Isp::CenturyLink),
            "Spectrum pause should exceed CenturyLink's"
        );
    }
}
