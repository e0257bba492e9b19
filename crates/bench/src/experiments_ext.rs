//! Extended experiments: the paper's limitations, robustness checks, prior
//! baselines and policy recommendations, each turned into a runnable
//! experiment (`repro <name>`).

use crate::study::StudyDataset;
use bbsim_analysis::{
    audit_form477, evaluate_intervention, markup_view, morans_i_for_isp, report::opt_f64,
    test_competition, upload_consistency, worst_flattening, CompetitionMode, Intervention, Table,
};
use bbsim_census::city_by_name;
use bbsim_dataset::{aggregate_block_groups, curate_city, CurationOptions};
use bbsim_isp::{CityWorld, Form477Report, Isp, ALL_ISPS};
use bbsim_stats::{gearys_c, mann_whitney, median};

/// §4.3 — staleness: how much does a snapshot drift per month?
pub fn staleness(seed: u64) -> String {
    let city = city_by_name("Wichita").expect("study city");
    let mut t = Table::new(vec![
        "months since snapshot",
        "AT&T fiber groups",
        "Cox premium-cv groups",
        "groups with changed best cv",
    ]);
    let mut baseline: Option<std::collections::HashMap<(Isp, usize), f64>> = None;
    for epoch in [0u32, 1, 2, 4, 6] {
        let opts = CurationOptions::quick(seed).epoch(epoch);
        let ds = curate_city(city, &opts);
        let rows = aggregate_block_groups(&ds.records);
        let fiber = rows
            .iter()
            .filter(|r| r.isp == Isp::Att && r.fiber_share >= 0.5)
            .count();
        let premium = rows
            .iter()
            .filter(|r| r.isp == Isp::Cox && r.median_cv >= 14.0 && r.median_cv <= 29.0)
            .count();
        let current: std::collections::HashMap<(Isp, usize), f64> = rows
            .iter()
            .map(|r| ((r.isp, r.bg_index), r.median_cv))
            .collect();
        let changed = match &baseline {
            None => 0,
            Some(base) => current
                .iter()
                .filter(|(k, &cv)| base.get(k).is_some_and(|&b| (b - cv).abs() > 0.5))
                .count(),
        };
        if baseline.is_none() {
            baseline = Some(current);
        }
        t.row(vec![
            epoch.to_string(),
            fiber.to_string(),
            premium.to_string(),
            if epoch == 0 {
                "(baseline)".to_string()
            } else {
                changed.to_string()
            },
        ]);
    }
    format!(
        "§4.3 staleness: one city re-scraped over simulated months (fiber keeps deploying, promos rotate) — snapshots go stale\n\n{}",
        t.render()
    )
}

/// Recommendation 2 — audit ISP self-reported availability data.
pub fn audit(seed: u64) -> String {
    let mut t = Table::new(vec![
        "city",
        "ISP",
        "audited groups",
        "DSL median inflation",
        "claims >2x measured",
        "fiber tech overstated",
    ]);
    for city_name in ["Billings", "Wichita", "Fargo"] {
        let city = city_by_name(city_name).expect("study city");
        let world = CityWorld::build(city);
        let ds = curate_city(city, &CurationOptions::quick(seed));
        for isp in world.isps() {
            let report = Form477Report::file(&world, isp);
            let Some(a) = audit_form477(&report, &ds.records) else {
                continue;
            };
            t.row(vec![
                city_name.to_string(),
                isp.name().to_string(),
                a.audited_groups.to_string(),
                a.dsl_median_inflation
                    .map_or("-".to_string(), |v| format!("{v:.1}x")),
                format!("{:.0}%", 100.0 * a.overstated_2x),
                format!("{:.0}%", 100.0 * a.tech_overstatement),
            ]);
        }
    }
    format!(
        "Recommendation 2: third-party audit of Form-477-style self-reports vs BQT measurements (prior work: FCC data significantly overstates availability)\n\n{}",
        t.render()
    )
}

/// §3 limitation — template drift detection and re-bootstrap.
pub fn drift(seed: u64) -> String {
    use bbsim_bat::{templates, BatServer, TemplateVersion};
    use bbsim_net::{SimDuration, SimIp, SimTime, Transport};
    use bqt::{query_address, BqtConfig, DriftMonitor, QueryJob, TemplateSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let isp = Isp::CenturyLink;

    let run_phase = |version: TemplateVersion,
                     templates_used: &'static TemplateSet,
                     n: usize,
                     label: &str|
     -> (String, f64, f64, u64) {
        let mut transport = Transport::new(seed);
        let mut server = BatServer::new(isp, world.clone());
        server.set_template_version(version);
        transport.register(isp.slug(), server.endpoint());
        let config =
            BqtConfig::paper_default(SimDuration::from_secs(60)).with_templates(templates_used);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut monitor = DriftMonitor::default_ops();
        let mut metrics = bqt::Metrics::new();
        let mut now = SimTime::ZERO;
        let src = SimIp(0x6440_0009);
        for r in world.addresses().records().iter().take(n) {
            let job = QueryJob {
                endpoint: isp.slug().to_string(),
                dialect: templates::dialect_of(isp),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            };
            let rec = query_address(&mut transport, &config, &job, src, now, &mut rng);
            now = now + rec.duration + SimDuration::from_secs(10);
            monitor.observe(&rec);
            metrics.record(&rec);
        }
        (
            label.to_string(),
            metrics.hit_rate(),
            monitor.drift_rate(),
            monitor.needs_rebootstrap() as u64,
        )
    };

    let phases = [
        run_phase(
            TemplateVersion::V1,
            TemplateSet::v1(),
            200,
            "V1 site, V1 templates",
        ),
        run_phase(
            TemplateVersion::V2,
            TemplateSet::v1(),
            200,
            "V2 site, V1 templates (redesign ships)",
        ),
        run_phase(
            TemplateVersion::V2,
            TemplateSet::v2(),
            200,
            "V2 site, V2 templates (re-bootstrapped)",
        ),
    ];
    let mut t = Table::new(vec![
        "phase",
        "hit rate",
        "drift rate",
        "re-bootstrap flagged",
    ]);
    for (label, hit, drift, flagged) in phases {
        t.row(vec![
            label,
            format!("{:.1}%", 100.0 * hit),
            format!("{:.1}%", 100.0 * drift),
            if flagged == 1 {
                "YES".to_string()
            } else {
                "no".to_string()
            },
        ]);
    }
    format!(
        "§3 limitation: front-end redesigns break BQT until templates are re-bootstrapped; the drift monitor catches it\n\n{}",
        t.render()
    )
}

/// §2 — tier flattening: same price, wildly different speeds.
pub fn tier_flattening_report(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "ISP",
        "worst price point",
        "min down (Mbps)",
        "max down (Mbps)",
        "flattening factor",
    ]);
    for isp in ALL_ISPS {
        let records: Vec<bbsim_dataset::PlanRecord> = study
            .cities
            .iter()
            .flat_map(|c| c.dataset.records.iter().filter(|r| r.isp == isp).cloned())
            .collect();
        let Some(worst) = worst_flattening(&records, isp) else {
            continue;
        };
        t.row(vec![
            isp.name().to_string(),
            format!("${}", worst.price_usd),
            format!("{}", worst.min_download_mbps),
            format!("{}", worst.max_download_mbps),
            format!("{:.0}x", worst.flattening_factor()),
        ]);
    }
    format!(
        "Tier flattening (§2): speed spread at a single price point (prior work: AT&T sells 1000x different speeds for $55)\n\n{}",
        t.render()
    )
}

/// §5.3 — the Markup baseline's blind spot, quantified.
pub fn markup_baseline(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "city",
        "DSL/fiber ISP",
        "bad deals (DSL/fiber-only view)",
        "bad deals (with cable)",
    ]);
    for cs in &study.cities {
        let Some(dslf) = Isp::of_city(cs.dataset.city)
            .into_iter()
            .find(|i| !i.is_cable())
        else {
            continue;
        };
        if !Isp::of_city(cs.dataset.city).iter().any(|i| i.is_cable()) {
            continue;
        }
        let cmp = markup_view(&cs.rows, dslf, 5.0);
        if cmp.dslf_groups < 20 {
            continue;
        }
        t.row(vec![
            cs.dataset.city.name.to_string(),
            dslf.name().to_string(),
            format!("{:.0}% of {}", 100.0 * cmp.dslf_bad_frac, cmp.dslf_groups),
            format!(
                "{:.0}% of {}",
                100.0 * cmp.composite_bad_frac,
                cmp.composite_groups
            ),
        ]);
    }
    format!(
        "Prior-methodology baseline (§5.3): a DSL/fiber-only study (The Markup's scope) vs the full picture — 'bad deal' = best cv < 5 Mbps/$\n\n{}",
        t.render()
    )
}

/// §5.1 — results consistent under upload-based carriage values.
pub fn upload_consistency_report(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "ISP",
        "cities",
        "median Spearman rho (download vs upload cv)",
    ]);
    for isp in ALL_ISPS {
        let mut rhos = Vec::new();
        for cs in &study.cities {
            if let Some(rho) = upload_consistency(&cs.dataset.records, isp) {
                rhos.push(rho);
            }
        }
        if rhos.is_empty() {
            continue;
        }
        t.row(vec![
            isp.name().to_string(),
            rhos.len().to_string(),
            opt_f64(median(&rhos), 2),
        ]);
    }
    format!(
        "§5.1 robustness: block-group rank agreement between download- and upload-based carriage values (paper: results consistent under both)\n\n{}",
        t.render()
    )
}

/// Robustness: §5.4 with Mann-Whitney and Table 3 with Geary's C.
pub fn robustness(study: &StudyDataset) -> String {
    // Mann-Whitney re-test of the fiber-duopoly effect.
    let mut mw_reject = 0;
    let mut mw_total = 0;
    for cs in &study.cities {
        let isps = Isp::of_city(cs.dataset.city);
        let Some(cable) = isps
            .iter()
            .copied()
            .find(|i| i.is_cable() && *i != Isp::Xfinity)
        else {
            continue;
        };
        let rival = isps.iter().copied().find(|i| !i.is_cable());
        let Some(report) = test_competition(&cs.rows, cable, rival) else {
            continue;
        };
        // Rebuild the raw mode samples via classify to run MW.
        let classified = bbsim_analysis::classify_modes(&cs.rows, cable, rival);
        let sample = |mode: CompetitionMode| -> Vec<f64> {
            classified
                .iter()
                .filter(|&&(_, m, cv)| m == mode && cv <= 29.0)
                .map(|&(_, _, cv)| cv)
                .collect()
        };
        let monopoly = sample(CompetitionMode::CableMonopoly);
        let fiber = sample(CompetitionMode::CableFiberDuopoly);
        if monopoly.len() >= 5 && fiber.len() >= 5 {
            mw_total += 1;
            if mann_whitney(&monopoly, &fiber).p_greater < 0.05 {
                mw_reject += 1;
            }
        }
        let _ = report;
    }

    // Geary's C agreement with Moran's I on cable carriage-value fields.
    let mut agree = 0;
    let mut total = 0;
    for cs in &study.cities {
        for isp in Isp::of_city(cs.dataset.city) {
            let city = cs.dataset.city;
            let grid = city.grid();
            let field = bbsim_analysis::intracity::cell_aligned_cvs(&grid, &cs.rows, isp);
            let covered: Vec<usize> = (0..grid.len()).filter(|&i| field[i].is_some()).collect();
            if covered.len() < 10 {
                continue;
            }
            let mut dense = vec![usize::MAX; grid.len()];
            for (k, &i) in covered.iter().enumerate() {
                dense[i] = k;
            }
            let values: Vec<f64> = covered
                .iter()
                .map(|&i| field[i].expect("covered"))
                .collect();
            let weights: Vec<Vec<(usize, f64)>> = covered
                .iter()
                .map(|&i| {
                    let ns: Vec<usize> = grid
                        .rook_neighbors(i)
                        .into_iter()
                        .filter(|&j| dense[j] != usize::MAX)
                        .map(|j| dense[j])
                        .collect();
                    let w = 1.0 / ns.len().max(1) as f64;
                    ns.into_iter().map(|j| (j, w)).collect()
                })
                .collect();
            let (Some(m), Some(c)) = (
                morans_i_for_isp(city, &cs.rows, isp),
                gearys_c(&values, &weights),
            ) else {
                continue;
            };
            total += 1;
            // Positive autocorrelation by both statistics?
            if (m.i > 0.0) == (c < 1.0) {
                agree += 1;
            }
        }
    }

    // Income vs best-available carriage value, block-group level (the
    // zip-level income/speed correlation of prior work, here at finer
    // geography).
    let mut rhos = Vec::new();
    for cs in &study.cities {
        let acs = bbsim_analysis::income::public_acs(cs.dataset.city);
        let mut best: std::collections::HashMap<usize, f64> = Default::default();
        for r in &cs.rows {
            if r.median_cv > 29.0 {
                continue; // exclude the ACP-subsidized tail (Fig. 8's rule)
            }
            let e = best.entry(r.bg_index).or_insert(f64::MIN);
            *e = e.max(r.median_cv);
        }
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (bg, &cv) in &best {
            if let Some(demo) = acs.rows().get(*bg) {
                xs.push(demo.median_income_k);
                ys.push(cv);
            }
        }
        if xs.len() >= 30 {
            if let Some(rho) = bbsim_stats::spearman(&xs, &ys) {
                rhos.push(rho);
            }
        }
    }
    let rho_med = median(&rhos).unwrap_or(f64::NAN);

    format!(
        "Robustness checks\n\n\
         §5.4 via Mann-Whitney U instead of KS: fiber-duopoly H0 rejected in {mw_reject}/{mw_total} city tests (KS: same conclusion)\n\
         Table 3 via Geary's C instead of Moran's I: direction agrees in {agree}/{total} (ISP, city) fields\n\
         Income vs best carriage value (block-group Spearman, prior work found positive at zip level): median rho = {rho_med:.2} over {} cities\n",
        rhos.len()
    )
}

/// Recommendations (§7) — simulated policy interventions.
pub fn policy(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "city",
        "intervention",
        "low-income premium access",
        "high-income premium access",
        "gap (pts)",
    ]);
    for cs in &study.cities {
        // Only duopoly cities with both income bands well represented.
        if Isp::of_city(cs.dataset.city).len() != 2 {
            continue;
        }
        for intervention in [
            Intervention::None,
            Intervention::RateCap {
                max_price_usd: 40.0,
            },
            Intervention::LowIncomeSubsidy { discount_usd: 30.0 },
            Intervention::FiberBuildout,
        ] {
            let Some(out) =
                evaluate_intervention(cs.dataset.city, &cs.dataset.records, intervention)
            else {
                continue;
            };
            t.row(vec![
                cs.dataset.city.name.to_string(),
                out.intervention_label.to_string(),
                format!("{:.0}%", 100.0 * out.low_income_premium_frac),
                format!("{:.0}%", 100.0 * out.high_income_premium_frac),
                format!("{:+.0}", out.gap_points()),
            ]);
        }
    }
    format!(
        "§7 recommendations, simulated: premium-deal access (best cv >= 14 Mbps/$) by income band under policy counterfactuals\n\n{}",
        t.render()
    )
}

/// §4.1 "public release": write the anonymized dataset the paper promises.
///
/// One CSV per city with hashed address tokens (the privacy-preserving
/// form), plus the block-group aggregate table, under `dir`.
pub fn release(study: &StudyDataset, dir: &str, salt: u64) -> String {
    use bbsim_dataset::csvio;
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    let mut total_rows = 0usize;
    let mut files = 0usize;
    for cs in &study.cities {
        let slug = cs.dataset.city.name.to_lowercase().replace(' ', "-");
        let records_csv = csvio::records_to_csv(&cs.dataset.records, Some(salt));
        let bg_csv = csvio::block_groups_to_csv(&cs.rows);
        std::fs::write(format!("{dir}/{slug}-plans.csv"), &records_csv).expect("write plans csv");
        std::fs::write(format!("{dir}/{slug}-block-groups.csv"), &bg_csv)
            .expect("write block-group csv");
        total_rows += cs.dataset.records.len();
        files += 2;
    }
    format!(
        "Public release: wrote {files} CSV files ({total_rows} anonymized plan rows) to {dir}/
         Address identifiers are salted one-way hashes; block-group GEOIDs are public census keys.
"
    )
}

/// Robustness under injected faults: the same curation run clean, degraded
/// with the retry subsystem on, and degraded one-shot. Half of all requests
/// are dropped at the virtual network edge for the whole campaign.
pub fn chaos(seed: u64) -> String {
    use bbsim_dataset::curate_city_with_faults;
    use bbsim_net::{FaultPlan, SimDuration, SimTime};
    use bqt::RetryPolicy;

    let city = city_by_name("Billings").expect("study city");
    let horizon = SimTime::ZERO + SimDuration::from_secs(100_000_000);
    let plan = || FaultPlan::new(seed ^ 0xC4A05).lossy_network(SimTime::ZERO, horizon, 0.5);

    let opts = CurationOptions::quick(seed);
    let runs = [
        ("clean", curate_city_with_faults(city, &opts, None)),
        (
            "faults + retries",
            curate_city_with_faults(
                city,
                &opts.with_retry(RetryPolicy::paper_default(seed)),
                Some(plan()),
            ),
        ),
        (
            "faults, one-shot",
            curate_city_with_faults(city, &opts, Some(plan())),
        ),
    ];

    let mut t = Table::new(vec![
        "run",
        "isp",
        "hit rate",
        "retries",
        "breaker trips",
        "dead-lettered",
    ]);
    for (label, ds) in &runs {
        for (isp, m) in &ds.per_isp_metrics {
            t.row(vec![
                label.to_string(),
                isp.to_string(),
                format!("{:.3}", m.hit_rate()),
                m.retries.to_string(),
                m.breaker_trips.to_string(),
                m.dead_lettered.to_string(),
            ]);
        }
    }
    format!(
        "chaos: 50% of requests dropped at the (virtual) network edge for the whole campaign —\nseeded retries with backoff + circuit breaking recover the hit rate, one-shot runs lose it\n\n{}",
        t.render()
    )
}

/// Tentpole robustness — crash-recoverable campaigns: kill a journaled
/// campaign at several virtual times, resume from the journal alone, and
/// show the resumed report is identical while the journal pays for most
/// of the re-run.
pub fn resume(seed: u64) -> String {
    use bbsim_bat::{templates, BatServer};
    use bbsim_net::{FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport};
    use bqt::{BqtConfig, Campaign, Journal, Orchestrator, QueryJob, RetryPolicy};
    use std::sync::Arc;

    let endpoint = "centurylink/billings";
    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let setup = || -> (Transport, Vec<QueryJob>) {
        // Hermetic transport + faults: per-request draws are functions of
        // (seed, endpoint, source, time), so a resumed campaign replays
        // the journal and re-derives the rest bit-for-bit.
        let mut t = Transport::hermetic(seed ^ 0x2E5);
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        t.register(endpoint, server.endpoint());
        let horizon = SimTime::ZERO + SimDuration::from_secs(100_000_000);
        t.set_fault_plan(
            FaultPlan::new(seed ^ 0xC4A05)
                .flaky_endpoint(endpoint, SimTime::ZERO, horizon, 0.3)
                .hermetic(),
        );
        let jobs = world
            .addresses()
            .records()
            .iter()
            .take(120)
            .map(|r| QueryJob {
                endpoint: endpoint.to_string(),
                dialect: templates::dialect_of(Isp::CenturyLink),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            })
            .collect();
        (t, jobs)
    };
    let orch = Orchestrator {
        n_workers: 8,
        retry: Some(RetryPolicy::paper_default(seed)),
        ..Orchestrator::paper_default(seed)
    };
    let config = BqtConfig::paper_default(SimDuration::from_secs(45));
    let pool = || IpPool::residential(64, RotationPolicy::RoundRobin, seed);

    let (mut t0, jobs) = setup();
    let mut journal = Journal::in_memory();
    let truth = Campaign::from_orchestrator(orch.clone())
        .config(config)
        .run_journaled(&mut journal, &mut t0, &jobs, &mut pool())
        .expect("fresh journal")
        .expect("no crash point");
    let full_requests = t0.requests_sent();

    let mut t = Table::new(vec![
        "crash at",
        "attempts journaled",
        "replayed on resume",
        "scraped live",
        "requests saved",
        "report identical",
    ]);
    t.row(vec![
        "(no crash)".into(),
        truth.resume().live_attempts.to_string(),
        "-".into(),
        truth.resume().live_attempts.to_string(),
        "-".into(),
        "(baseline)".into(),
    ]);
    for pct in [10u64, 30, 50, 70, 90] {
        let crash_at = SimTime::from_millis(truth.makespan.as_millis() * pct / 100);
        let (mut t1, jobs) = setup();
        let mut journal = Journal::in_memory().crash_at(crash_at);
        Campaign::from_orchestrator(orch.clone())
            .config(config)
            .run_journaled(&mut journal, &mut t1, &jobs, &mut pool())
            .expect("fresh journal");
        // Reboot: only the journal bytes survive the crash.
        let mut journal =
            Journal::from_bytes(journal.bytes().expect("memory journal")).expect("recoverable");
        let survived = journal.attempts().len();
        let (mut t2, jobs) = setup();
        let resumed = Campaign::from_orchestrator(orch.clone())
            .config(config)
            .run_journaled(&mut journal, &mut t2, &jobs, &mut pool())
            .expect("same campaign")
            .expect("no crash point");
        let identical = resumed.records == truth.records
            && resumed.metrics == truth.metrics
            && resumed.makespan == truth.makespan
            && resumed.dead_letters == truth.dead_letters;
        t.row(vec![
            format!("{pct}% of makespan"),
            survived.to_string(),
            resumed.resume().replayed_attempts.to_string(),
            resumed.resume().live_attempts.to_string(),
            format!("{}/{}", full_requests - t2.requests_sent(), full_requests),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
    }
    format!(
        "resume: a journaled campaign killed at arbitrary virtual times and resumed from the\nwrite-ahead journal alone — the resumed report matches the uninterrupted run exactly,\nand journaled attempts are never scraped twice\n\n{}",
        t.render()
    )
}

/// Tentpole telemetry — trace: capture a campaign's full event stream as
/// canonical JSONL, prove every line round-trips through the strict parser
/// byte-for-byte (the CI schema-drift guard), then rebuild the per-worker
/// timeline and per-ISP latency histograms from the parsed log alone — the
/// event log, not the report, is the source of truth here.
pub fn trace(seed: u64) -> String {
    use bbsim_bat::{register_fleet, templates};
    use bbsim_net::{IpPool, RotationPolicy, SimDuration, Transport};
    use bqt::telemetry::jsonl::{parse_line, to_line};
    use bqt::telemetry::{EventKind, Histogram};
    use bqt::{BqtConfig, Campaign, JsonlRecorder, QueryJob, RetryPolicy};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let mut transport = Transport::hermetic(seed ^ 0x72ACE);
    register_fleet(&mut transport, &world);
    let mut jobs: Vec<QueryJob> = Vec::new();
    for isp in world.isps() {
        jobs.extend(
            world
                .addresses()
                .records()
                .iter()
                .take(40)
                .map(|r| QueryJob {
                    endpoint: isp.slug().to_string(),
                    dialect: templates::dialect_of(isp),
                    input_line: r.listing_line.clone(),
                    tag: r.id as u64,
                }),
        );
    }
    let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, seed);
    let mut rec = JsonlRecorder::new(Vec::new());
    Campaign::new(seed)
        .workers(8)
        .retries(RetryPolicy::paper_default(seed))
        .config(BqtConfig::paper_default(SimDuration::from_secs(45)))
        .recorder(&mut rec)
        .run(&mut transport, &jobs, &mut pool);
    let log = String::from_utf8(rec.into_inner()).expect("JSONL is UTF-8");

    // Schema-drift guard: every emitted line must survive parse → serialize
    // unchanged. CI runs this experiment and a panic here fails the job.
    let mut events = Vec::new();
    for (i, line) in log.lines().enumerate() {
        let event = parse_line(line)
            .unwrap_or_else(|e| panic!("event log line {} no longer parses: {e}", i + 1));
        let reserialized = to_line(&event);
        if reserialized != line {
            panic!(
                "event schema drifted at line {}:\n  logged:       {line}\n  reserialized: {reserialized}",
                i + 1
            );
        }
        events.push(event);
    }

    // Everything below is derived from the parsed events.
    let makespan_ms = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::CampaignEnd { makespan_ms } => Some(makespan_ms),
            _ => None,
        })
        .expect("the stream ends with CampaignEnd");

    // Per-worker timeline: one row per worker, '#' where an attempt was in
    // flight, '.' where the worker sat idle (politeness, backoff, stagger).
    let mut spans: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for e in &events {
        if let EventKind::AttemptEnd {
            worker,
            duration_ms,
            ..
        } = e.kind
        {
            let end = e.at.as_millis();
            spans
                .entry(worker)
                .or_default()
                .push((end.saturating_sub(duration_ms), end));
        }
    }
    const WIDTH: u64 = 64;
    let cell = (makespan_ms / WIDTH).max(1);
    let mut timeline = String::new();
    for (worker, spans) in &spans {
        let mut row = String::new();
        for c in 0..WIDTH {
            let (lo, hi) = (c * cell, (c + 1) * cell);
            let busy = spans.iter().any(|&(b, e)| b < hi && e > lo);
            row.push(if busy { '#' } else { '.' });
        }
        timeline.push_str(&format!("  w{worker:<2} |{row}|\n"));
    }

    // Per-ISP attempt-latency histograms, rebuilt from AttemptEnd events.
    let mut per_isp: BTreeMap<&str, Histogram> = BTreeMap::new();
    for e in &events {
        if let EventKind::AttemptEnd {
            ref endpoint,
            duration_ms,
            ..
        } = e.kind
        {
            per_isp.entry(endpoint).or_default().record(duration_ms);
        }
    }
    let mut hists = String::new();
    for (endpoint, h) in &per_isp {
        hists.push_str(&format!(
            "  {endpoint}: {} attempts, mean {:.1}s, p95 {:.1}s\n",
            h.count(),
            h.mean_ms().unwrap_or(f64::NAN) / 1000.0,
            h.quantile_ms(0.95).unwrap_or(0) as f64 / 1000.0,
        ));
        let peak = h
            .nonzero_buckets()
            .iter()
            .map(|&(_, _, n)| n)
            .max()
            .unwrap_or(1);
        for (lo, hi, n) in h.nonzero_buckets() {
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            hists.push_str(&format!("    {:>7}-{:<7} ms {bar} {n}\n", lo, hi));
        }
    }

    let retries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
        .count();
    let faults = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count();
    format!(
        "trace: {} events, all round-tripped through the JSONL parser byte-for-byte\n\
         makespan {:.1} h, {} retries, {} injected faults\n\n\
         per-worker timeline ({} ms per cell):\n{}\n\
         attempt latency per ISP (log2 buckets):\n{}",
        events.len(),
        makespan_ms as f64 / 3_600_000.0,
        retries,
        faults,
        cell,
        timeline,
        hists
    )
}

/// Tentpole observability — health: run a campaign that degrades mid-flight,
/// watch the sliding-window monitor fire and resolve the hit-rate SLO (and
/// escalate to the load-shedder), then prove the exposition, the alert log
/// and the folded profile are byte-identical across a crash+resume. A panic
/// anywhere here fails the `health` CI job.
pub fn health(seed: u64) -> String {
    use bbsim_bat::{register_fleet, templates};
    use bbsim_net::{FaultPlan, IpPool, RotationPolicy, SimDuration, SimTime, Transport};
    use bqt::{
        render_folded, render_prometheus, BqtConfig, Campaign, Journal, MonitorPolicy,
        Orchestrator, OrchestratorReport, QueryJob, RetryPolicy, ShedPolicy, SloRule,
    };
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let degraded = Isp::CenturyLink.slug();

    let setup = |faults: Option<(SimTime, SimTime)>| -> (Transport, Vec<QueryJob>) {
        let mut t = Transport::hermetic(seed ^ 0x8EA17);
        register_fleet(&mut t, &world);
        if let Some((from, to)) = faults {
            t.set_fault_plan(
                FaultPlan::new(seed ^ 0xFA17)
                    .flaky_endpoint(degraded, from, to, 0.9)
                    .hermetic(),
            );
        }
        // Interleave the two ISPs' jobs so both see traffic for the whole
        // campaign (queued per-ISP, one ISP would finish before the outage).
        let mut jobs = Vec::new();
        for r in world.addresses().records().iter().take(60) {
            for isp in world.isps() {
                jobs.push(QueryJob {
                    endpoint: isp.slug().to_string(),
                    dialect: templates::dialect_of(isp),
                    input_line: r.listing_line.clone(),
                    // Tags must be campaign-unique: the journal and the
                    // per-attempt RNG are keyed by tag, and both ISPs'
                    // job lists come from the same address records.
                    tag: ((isp.column() as u64) << 32) | r.id as u64,
                });
            }
        }
        (t, jobs)
    };
    let orch = Orchestrator {
        n_workers: 8,
        retry: Some(RetryPolicy::paper_default(seed)),
        shed: Some(ShedPolicy::paper_default()),
        ..Orchestrator::paper_default(seed)
    };
    let config = BqtConfig::paper_default(SimDuration::from_secs(45));
    let pool = || IpPool::residential(64, RotationPolicy::RoundRobin, seed);
    let policy = || {
        MonitorPolicy::paper_default()
            .rules(vec![
                SloRule::hit_rate_at_least(0.7).scoped(degraded),
                SloRule::p99_latency_at_most(900_000),
                SloRule::breaker_flaps_at_most(10),
            ])
            .escalate(true)
            .checkpoint_every(SimDuration::from_secs(600))
    };

    // Probe run: an undegraded campaign just to size the fault window so
    // the outage covers the middle of the run at any seed. Journaled like
    // the real runs, because journaled campaigns draw per-attempt RNG
    // differently and would otherwise pace differently.
    let (mut tp, jobs) = setup(None);
    let mut probe_journal = Journal::in_memory();
    let clean_makespan = Campaign::from_orchestrator(orch.clone())
        .config(config)
        .run_journaled(&mut probe_journal, &mut tp, &jobs, &mut pool())
        .expect("fresh journal")
        .expect("no crash point")
        .makespan
        .as_millis();
    // Long enough to breach the SLO for a couple of window boundaries,
    // short enough that retries and the breaker can still save the jobs
    // (a longer outage dead-letters the endpoint and the scoped rule
    // would have no traffic left to resolve on).
    let outage = (
        SimTime::from_millis(clean_makespan / 5),
        SimTime::from_millis(clean_makespan * 7 / 20),
    );

    let run = |journal: &mut Journal| -> Option<OrchestratorReport> {
        let (mut t, jobs) = setup(Some(outage));
        Campaign::from_orchestrator(orch.clone())
            .config(config)
            .monitor(policy())
            .run_journaled(journal, &mut t, &jobs, &mut pool())
            .expect("fresh or matching journal")
    };

    let mut j0 = Journal::in_memory();
    let truth = run(&mut j0).expect("no crash scheduled");
    let health = truth.health.as_ref().expect("monitor attached");
    let section = truth.health_section("billings").expect("monitor attached");
    let prom = render_prometheus(std::slice::from_ref(&section));
    let folded = render_folded(std::slice::from_ref(&section));

    // The profiler's accounting invariant: every worker-millisecond of the
    // campaign is attributed to exactly one stack.
    let folded_total: u64 = health.frames.values().sum();
    assert_eq!(
        folded_total,
        health.makespan_ms * health.started_workers as u64,
        "folded totals must sum to makespan x started workers"
    );

    // Crash mid-outage, reboot from the journal bytes alone, resume, and
    // demand byte-identical health artifacts and an identical alert log.
    let crash_at = SimTime::from_millis(truth.makespan.as_millis() / 2);
    let mut j1 = Journal::in_memory().crash_at(crash_at);
    assert!(run(&mut j1).is_none(), "the scheduled crash must fire");
    let mut j1 = Journal::from_bytes(j1.bytes().expect("memory journal")).expect("recoverable");
    let resumed = run(&mut j1).expect("resume completes");
    let rhealth = resumed.health.as_ref().expect("monitor attached");
    let rsection = resumed
        .health_section("billings")
        .expect("monitor attached");
    assert_eq!(
        prom,
        render_prometheus(std::slice::from_ref(&rsection)),
        "crash+resume must rewrite an identical exposition"
    );
    assert_eq!(
        folded,
        render_folded(std::slice::from_ref(&rsection)),
        "crash+resume must rewrite an identical folded profile"
    );
    assert_eq!(
        health.alerts, rhealth.alerts,
        "crash+resume must refire the identical alert sequence"
    );

    // --- Render the dashboard, all from the uninterrupted run. ---
    let mins = |ms: u64| format!("{:.0}m", ms as f64 / 60_000.0);

    let mut isp_table = Table::new(vec!["endpoint", "attempts", "hit rate", "p50", "p99"]);
    for (endpoint, e) in &truth.telemetry.per_endpoint {
        isp_table.row(vec![
            endpoint.clone(),
            e.attempts.to_string(),
            format!("{:.1}%", 100.0 * e.hits as f64 / e.attempts.max(1) as f64),
            format!(
                "{:.0}s",
                e.latency.quantile_ms(0.5).unwrap_or(0) as f64 / 1000.0
            ),
            format!(
                "{:.0}s",
                e.latency.quantile_ms(0.99).unwrap_or(0) as f64 / 1000.0
            ),
        ]);
    }

    // Window hit rate over time, one glyph per checkpoint.
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let spark: String = health
        .checkpoints
        .iter()
        .map(|(_, snap)| {
            let rate = snap.hit_rate().unwrap_or(1.0);
            glyphs[((rate * (glyphs.len() - 1) as f64).round() as usize).min(glyphs.len() - 1)]
        })
        .collect();

    let mut timeline = String::new();
    for a in &health.alerts {
        timeline.push_str(&format!(
            "  [{:>5}] FIRED    {} (value {:.2})\n",
            mins(a.fired_at.as_millis()),
            a.rule,
            a.value
        ));
        match a.resolved_at {
            Some(at) => timeline.push_str(&format!(
                "  [{:>5}] RESOLVED {}\n",
                mins(at.as_millis()),
                a.rule
            )),
            None => timeline.push_str(&format!("  [  end] STILL OPEN {}\n", a.rule)),
        }
    }

    let mut hot = String::new();
    let mut frames: Vec<(&String, &u64)> = health
        .frames
        .iter()
        .filter(|(stack, _)| !stack.ends_with(";idle"))
        .collect();
    frames.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (stack, ms) in frames.into_iter().take(5) {
        hot.push_str(&format!("  billings;{stack} {ms}\n"));
    }

    let expo_head: String = prom.lines().take(12).map(|l| format!("  {l}\n")).collect();

    format!(
        "health: live monitor over a campaign degraded mid-run ({} - {} of {}) — the hit-rate\n\
         SLO fires, escalates to the load-shedder, and resolves once the outage rotates out;\n\
         exposition, alert log and folded profile verified byte-identical across crash+resume\n\n\
         per-ISP health (whole campaign):\n{}\n\
         window hit rate per 10-min checkpoint (' '=0 .. '#'=1):\n  |{}|\n\n\
         alert timeline:\n{}\
         escalations: {} requested; shed ceiling at end: {}\n\n\
         health.prom (first 12 of {} lines):\n{}\n\
         hottest folded stacks (of {} in profile.folded):\n{}\
         folded totals: {} worker-ms == makespan {} ms x {} workers (exact)\n",
        mins(outage.0.as_millis()),
        mins(outage.1.as_millis()),
        mins(truth.makespan.as_millis()),
        isp_table.render(),
        spark,
        timeline,
        health.escalations,
        health
            .window
            .shed_limit
            .map_or("(never shed)".to_string(), |l| l.to_string()),
        prom.lines().count(),
        expo_head,
        health.frames.len(),
        hot,
        folded_total,
        health.makespan_ms,
        health.started_workers,
    )
}

/// Longitudinal campaigns: a mid-campaign site redesign is detected,
/// quarantined and re-bootstrapped without losing the wave, then the same
/// sample is re-curated across epoch waves and the snapshots diffed.
pub fn longitudinal(seed: u64, threads: usize) -> String {
    use bbsim_bat::{templates, BatServer, DriftSchedule, TemplateVersion};
    use bbsim_dataset::{curate_city, diff_epochs};
    use bbsim_net::{IpPool, RotationPolicy, SimDuration, SimTime, Transport};
    use bqt::{
        BqtConfig, Campaign, DriftMonitor, EventKind, Journal, JsonlRecorder, MonitorPolicy,
        Orchestrator, QueryJob, RetryPolicy, RingRecorder, ShardEnv, ShardPlan, ShardSpec, SloRule,
    };
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let isp = Isp::CenturyLink;
    let endpoint = isp.slug();

    let setup = |drift: Option<DriftSchedule>| -> (Transport, Vec<QueryJob>) {
        let mut t = Transport::hermetic(seed ^ 0x10_9D);
        let mut server = BatServer::new(isp, world.clone());
        if let Some(schedule) = drift {
            server.set_drift_schedule(schedule);
        }
        t.register(endpoint, server.endpoint());
        let jobs = world
            .addresses()
            .records()
            .iter()
            .take(150)
            .map(|r| QueryJob {
                endpoint: endpoint.to_string(),
                dialect: templates::dialect_of(isp),
                input_line: r.listing_line.clone(),
                tag: r.id as u64,
            })
            .collect();
        (t, jobs)
    };
    let orch = Orchestrator {
        n_workers: 8,
        politeness: SimDuration::from_secs(5),
        retry: Some(RetryPolicy::paper_default(seed)),
        ..Orchestrator::paper_default(seed)
    };
    let config = BqtConfig::paper_default(SimDuration::from_secs(45));
    let pool = || IpPool::residential(64, RotationPolicy::RoundRobin, seed);
    let policy = || {
        MonitorPolicy::paper_default().rules(vec![SloRule::match_confidence_at_least(0.8)
            .hysteresis(1, 1)
            .min_samples(5)])
    };

    // Probe run: locate "mid-campaign" at the median attempt instant (the
    // makespan's tail is stretched by a few stragglers' retry backoff).
    let (mut tp, jobs) = setup(None);
    let mut ring = RingRecorder::new(1 << 16);
    let healthy = Campaign::from_orchestrator(orch.clone())
        .config(config)
        .recorder(&mut ring)
        .run(&mut tp, &jobs, &mut pool());
    let mut ends: Vec<u64> = ring
        .events()
        .filter(|e| matches!(e.kind, EventKind::AttemptEnd { .. }))
        .map(|e| e.at.as_millis())
        .collect();
    ends.sort_unstable();
    let midpoint = SimTime::from_millis(ends[ends.len() / 2]);
    let schedule = DriftSchedule::flip_at(midpoint, TemplateVersion::V2);

    // Unguarded: the redesign ships and nobody is watching.
    let (mut tu, jobs) = setup(Some(schedule.clone()));
    let unguarded = Campaign::from_orchestrator(orch.clone())
        .config(config)
        .run(&mut tu, &jobs, &mut pool());

    // Guarded: drift monitor armed, match-confidence SLO watching,
    // journaled so the crash+resume identity below has bytes to reboot
    // from.
    let guarded = |journal: &mut Journal| -> (Option<bqt::OrchestratorReport>, String) {
        let (mut t, jobs) = setup(Some(schedule.clone()));
        let mut log = JsonlRecorder::stable(Vec::new());
        let report = Campaign::from_orchestrator(orch.clone())
            .config(config)
            .drift_monitor(DriftMonitor::default_ops())
            .monitor(policy())
            .recorder(&mut log)
            .run_journaled(journal, &mut t, &jobs, &mut pool())
            .expect("fresh or matching journal");
        (report, String::from_utf8(log.into_inner()).expect("utf8"))
    };

    let mut j0 = Journal::in_memory();
    let (truth, truth_log) = guarded(&mut j0);
    let truth = truth.expect("no crash scheduled");
    let drift = truth.drift.as_ref().expect("armed runs report drift");
    assert!(truth.rebootstraps() >= 1, "the redesign must be healed");
    let health = truth.health.as_ref().expect("monitor attached");
    let alert = health
        .alerts
        .iter()
        .find(|a| a.rule == "match_confidence")
        .expect("the redesign must trip the match-confidence SLO");
    assert!(alert.resolved_at.is_some(), "the swap must resolve it");

    // Crash inside the post-flip quarantine window, reboot from journal
    // bytes alone, and demand a byte-identical retrace.
    let crash_at = SimTime::from_millis(midpoint.as_millis() * 11 / 10);
    let mut j1 = Journal::in_memory().crash_at(crash_at);
    assert!(
        guarded(&mut j1).0.is_none(),
        "the scheduled crash must fire"
    );
    let mut j1 = Journal::from_bytes(j1.bytes().expect("memory journal")).expect("recoverable");
    let (resumed, resumed_log) = guarded(&mut j1);
    let resumed = resumed.expect("resume completes");
    assert_eq!(truth.records, resumed.records, "resume retraces the run");
    assert_eq!(truth.drift, resumed.drift, "resume retraces the rescue");
    assert_eq!(
        truth_log, resumed_log,
        "drift events retrace byte-for-byte across the crash"
    );

    // Sharded: the same drifted campaign split four ways must merge to
    // one byte-identical stream at any thread count.
    let sharded = |threads: usize| -> String {
        let (_, jobs) = setup(None);
        let shard_plan = ShardPlan::round_robin(seed, &jobs, 4);
        let world = world.clone();
        let schedule = schedule.clone();
        let make_env = move |_spec: &ShardSpec| -> Result<ShardEnv, bqt::JournalError> {
            let mut t = Transport::hermetic(seed ^ 0x10_9D);
            let mut server = BatServer::new(isp, world.clone());
            server.set_drift_schedule(schedule.clone());
            t.register(endpoint, server.endpoint());
            Ok(ShardEnv {
                transport: t,
                pool: IpPool::residential(64, RotationPolicy::RoundRobin, seed),
                journal: Some(Journal::in_memory()),
            })
        };
        let mut log = JsonlRecorder::stable(Vec::new());
        let outcome = Campaign::from_orchestrator(orch.clone())
            .config(config)
            .drift_monitor(DriftMonitor::default_ops())
            .threads(threads)
            .recorder(&mut log)
            .run_sharded(&shard_plan, &make_env)
            .expect("fresh journals");
        assert!(!outcome.crashed());
        String::from_utf8(log.into_inner()).expect("utf8")
    };
    let serial_stream = sharded(1);
    assert_eq!(
        serial_stream,
        sharded(threads.max(2)),
        "merged drift stream is thread-count invariant"
    );

    // --- Epoch waves: re-curate the same sample as the world evolves. ---
    let waves: Vec<_> = (0..4)
        .map(|epoch| curate_city(city, &CurationOptions::quick(seed).epoch(epoch * 2)))
        .collect();
    let diffs = diff_epochs(&waves);

    let mut wave_table = Table::new(vec![
        "wave",
        "matched addrs",
        "added",
        "removed",
        "repriced",
        "gained svc",
        "lost svc",
        "churned groups",
    ]);
    for (i, d) in diffs.iter().enumerate() {
        wave_table.row(vec![
            format!("{} -> {} mo", i * 2, (i + 1) * 2),
            d.matched_addresses.to_string(),
            d.total.added.to_string(),
            d.total.removed.to_string(),
            d.total.repriced.to_string(),
            d.total.gained_service.to_string(),
            d.total.lost_service.to_string(),
            d.churned_block_groups().to_string(),
        ]);
    }

    let mins = |ms: u64| format!("{:.0}m", ms as f64 / 60_000.0);
    let diff_head: String = diffs
        .last()
        .map(|d| d.render())
        .unwrap_or_default()
        .lines()
        .take(8)
        .map(|l| format!("  {l}\n"))
        .collect();

    format!(
        "longitudinal: the BAT redesigns itself at {} (median attempt of a {} campaign) — the\n\
         drift monitor quarantines the endpoint, re-bootstraps templates from a probe burst, and\n\
         the campaign recovers; artifacts verified byte-identical across crash+resume and threads\n\n\
         redesign rescue (one endpoint, {} addresses):\n\
         {:>24} {:.1}%\n\
         {:>24} {:.1}%\n\
         {:>24} {:.1}%\n\
         drift sightings: {}; re-bootstraps: {}; match-confidence SLO fired {} / resolved {}\n\n\
         epoch waves (same sample, world evolving; quick scale):\n{}\n\
         last wave's snapshot diff (first 8 lines):\n{}",
        mins(midpoint.as_millis()),
        mins(healthy.makespan.as_millis()),
        jobs.len(),
        "no redesign:",
        100.0 * healthy.metrics.hit_rate(),
        "redesign, unguarded:",
        100.0 * unguarded.metrics.hit_rate(),
        "redesign, self-healing:",
        100.0 * truth.metrics.hit_rate(),
        drift.total_sightings,
        drift.total_rebootstraps(),
        mins(alert.fired_at.as_millis()),
        alert
            .resolved_at
            .map(|at| mins(at.as_millis()))
            .unwrap_or_default(),
        wave_table.render(),
        diff_head,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{resolve_cities, run_study, Scale};

    #[test]
    fn chaos_experiment_shows_recovery_ordering() {
        let report = chaos(1);
        // Pull each run's hit-rate column back out of the rendered table and
        // check clean ≈ retries > one-shot for every ISP row.
        let rates = |label: &str| -> Vec<f64> {
            report
                .lines()
                .filter(|l| l.contains(label))
                .map(|l| {
                    l.split_whitespace()
                        .find(|c| c.contains('.') && c.parse::<f64>().is_ok())
                        .and_then(|c| c.parse().ok())
                        .expect("hit-rate cell")
                })
                .collect()
        };
        let clean = rates("clean");
        let retried = rates("faults + retries");
        let oneshot = rates("faults, one-shot");
        assert_eq!(clean.len(), 2, "{report}");
        for ((c, r), o) in clean.iter().zip(&retried).zip(&oneshot) {
            assert!(r >= &(c - 0.05), "retries did not recover: {report}");
            assert!(o < &(c - 0.05), "one-shot did not degrade: {report}");
        }
    }

    #[test]
    fn drift_experiment_shows_break_and_recovery() {
        let report = drift(3);
        let lines: Vec<&str> = report.lines().collect();
        // Phase rows: V1 healthy, V2-with-V1 flagged, V2-with-V2 healthy.
        let v1 = lines
            .iter()
            .find(|l| l.starts_with("V1 site"))
            .expect("phase 1");
        assert!(v1.contains("no"), "{v1}");
        let broken = lines
            .iter()
            .find(|l| l.contains("redesign ships"))
            .expect("phase 2");
        assert!(broken.contains("YES"), "{broken}");
        let fixed = lines
            .iter()
            .find(|l| l.contains("V2 templates"))
            .expect("phase 3");
        assert!(fixed.contains("no"), "{fixed}");
    }

    #[test]
    fn health_experiment_fires_resolves_and_survives_resume() {
        // The crash+resume byte-identity checks are assertions inside the
        // experiment itself; reaching the rendered report means they held.
        let report = health(1);
        assert!(report.contains("FIRED    hit_rate"), "{report}");
        assert!(report.contains("RESOLVED hit_rate"), "{report}");
        assert!(report.contains("escalations: "), "{report}");
        assert!(!report.contains("escalations: 0 requested"), "{report}");
        assert!(
            report.contains("# TYPE bqt_attempts_total counter"),
            "{report}"
        );
        assert!(report.contains("(exact)"), "{report}");
    }

    #[test]
    fn longitudinal_experiment_heals_and_diffs_waves() {
        // The crash+resume and thread-count byte-identity checks, the SLO
        // fire/resolve, and the rebootstrap count are assertions inside
        // the experiment itself; reaching the report means they held.
        let report = longitudinal(5, 2);
        assert!(report.contains("re-bootstraps: "), "{report}");
        assert!(!report.contains("re-bootstraps: 0;"), "{report}");
        assert!(report.contains("snapshot-diff matched="), "{report}");
        assert!(report.contains(" unmatched=0 "), "{report}");
        assert!(report.contains("0 -> 2 mo"), "{report}");
    }

    #[test]
    fn staleness_and_audit_render() {
        let s = staleness(2);
        assert!(s.contains("(baseline)"));
        let a = audit(2);
        assert!(a.contains("CenturyLink"), "{a}");
    }

    #[test]
    fn study_backed_extended_reports_render() {
        let study = run_study(&resolve_cities(Some("Billings, Fargo")), Scale::Quick, 1, 2);
        assert!(tier_flattening_report(&study).contains("CenturyLink"));
        assert!(upload_consistency_report(&study).contains("Spearman"));
        assert!(robustness(&study).contains("Mann-Whitney"));
        assert!(policy(&study).contains("observed baseline"));
        assert!(markup_baseline(&study).contains("Billings"));
    }
}
