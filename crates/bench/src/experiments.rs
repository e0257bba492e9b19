//! One function per paper table/figure (and the §4.1 scaling experiment and
//! design ablations). Each returns a plain-text report whose rows/series
//! mirror what the paper plots; EXPERIMENTS.md records paper-vs-measured.

use crate::study::StudyDataset;
use bbsim_analysis::intracity::{cell_aligned_cvs, composite_best_cv};
use bbsim_analysis::{
    ascii_map, cv_histogram, fiber_by_income, l1_pairs, lisa_field, lisa_map, morans_i_for_isp,
    morans_i_for_pair, plan_vector_for, report::opt_f64, test_competition, CompetitionMode, Table,
};
use bbsim_census::{city_by_name, CityProfile, ALL_CITIES};
use bbsim_dataset::{curate_city, CurationOptions};
use bbsim_isp::{catalog, Isp, ALL_ISPS};
use bbsim_stats::{median, quantile};
use bqt::Metrics;

fn cable_and_rival(city: &CityProfile) -> (Option<Isp>, Option<Isp>) {
    let isps = Isp::of_city(city);
    (
        isps.iter().copied().find(|i| i.is_cable()),
        isps.iter().copied().find(|i| !i.is_cable()),
    )
}

/// Merged per-ISP metrics across all curated cities.
fn merged_metrics(study: &StudyDataset) -> Vec<(Isp, Metrics)> {
    let mut out: Vec<(Isp, Metrics)> = Vec::new();
    for city in &study.cities {
        for (isp, m) in &city.dataset.per_isp_metrics {
            match out.iter_mut().find(|(i, _)| i == isp) {
                Some((_, acc)) => acc.merge(m),
                None => out.push((*isp, m.clone())),
            }
        }
    }
    out.sort_by_key(|(i, _)| i.column());
    out
}

/// Fig. 2a — BQT hit rate per ISP.
pub fn fig2a(study: &StudyDataset) -> String {
    let mut t = Table::new(vec!["ISP", "queried", "hits", "hit rate"]);
    for (isp, m) in merged_metrics(study) {
        t.row(vec![
            isp.name().to_string(),
            m.queried.to_string(),
            (m.plans + m.no_service).to_string(),
            format!("{:.1}%", 100.0 * m.hit_rate()),
        ]);
    }
    format!(
        "Fig 2a: BQT hit rate per ISP (paper: all >80%; Cox 96%, Spectrum 82%)\n\n{}",
        t.render()
    )
}

/// Fig. 2b — query resolution time distribution per ISP.
pub fn fig2b(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "ISP",
        "n",
        "p25 (s)",
        "median (s)",
        "p75 (s)",
        "p95 (s)",
    ]);
    for (isp, m) in merged_metrics(study) {
        let d = m.durations_s();
        t.row(vec![
            isp.name().to_string(),
            d.len().to_string(),
            opt_f64(quantile(d, 0.25), 1),
            opt_f64(quantile(d, 0.50), 1),
            opt_f64(quantile(d, 0.75), 1),
            opt_f64(quantile(d, 0.95), 1),
        ]);
    }
    format!(
        "Fig 2b: query resolution time per ISP (paper medians: Frontier 27 s lowest, Spectrum 100 s highest)\n\n{}",
        t.render()
    )
}

/// Fig. 3 — the thirty study cities.
pub fn fig3() -> String {
    let mut t = Table::new(vec![
        "City",
        "State",
        "Lat",
        "Lon",
        "Density (k/mi2)",
        "Income ($k)",
    ]);
    for c in ALL_CITIES {
        t.row(vec![
            c.name.to_string(),
            c.state.to_string(),
            format!("{:.2}", c.lat),
            format!("{:.2}", c.lon),
            format!("{:.1}", c.density_k),
            format!("{:.0}", c.median_income_k),
        ]);
    }
    format!(
        "Fig 3: geographical location of the thirty US cities\n\n{}",
        t.render()
    )
}

/// Table 1 — overview of broadband plans per ISP.
pub fn table1() -> String {
    let mut t = Table::new(vec![
        "ISP",
        "Unique plans",
        "Download (Mbps)",
        "Upload (Mbps)",
        "Monthly price ($)",
        "cv (Mbps/$)",
    ]);
    for isp in ALL_ISPS {
        let plans = catalog(isp);
        let rng = |f: fn(&bbsim_isp::Plan) -> f64| {
            let lo = plans.iter().map(f).fold(f64::MAX, f64::min);
            let hi = plans.iter().map(f).fold(f64::MIN, f64::max);
            format!("{lo}-{hi}")
        };
        let cv_lo = plans
            .iter()
            .map(|p| p.carriage_value())
            .fold(f64::MAX, f64::min);
        let cv_hi = plans
            .iter()
            .map(|p| p.carriage_value())
            .fold(f64::MIN, f64::max);
        t.row(vec![
            isp.name().to_string(),
            plans.len().to_string(),
            rng(|p| p.download_mbps),
            rng(|p| p.upload_mbps),
            rng(|p| p.price_usd),
            // Small minima (Frontier's 0.004) need more precision than 2dp.
            if cv_lo < 0.01 {
                format!("{cv_lo:.4}-{cv_hi:.1}")
            } else {
                format!("{cv_lo:.2}-{cv_hi:.1}")
            },
        ]);
    }
    format!(
        "Table 1: broadband plans offered by the seven major ISPs\n\n{}",
        t.render()
    )
}

/// Table 2 — dataset coverage per city.
pub fn table2(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "City",
        "Block groups",
        "Addresses queried",
        "Density (k)",
        "Income (k)",
        "Major ISPs",
    ]);
    let mut total_bg = 0usize;
    let mut total_addr = 0u64;
    for cs in &study.cities {
        let city = cs.dataset.city;
        let mut bgs: Vec<usize> = cs.rows.iter().map(|r| r.bg_index).collect();
        bgs.sort_unstable();
        bgs.dedup();
        let queried: u64 = cs
            .dataset
            .per_isp_metrics
            .iter()
            .map(|(_, m)| m.queried)
            .sum();
        total_bg += bgs.len();
        total_addr += queried;
        let isps = Isp::of_city(city)
            .iter()
            .map(|i| i.name())
            .collect::<Vec<_>>()
            .join(" + ");
        t.row(vec![
            format!("{}, {}", city.name, city.state),
            bgs.len().to_string(),
            queried.to_string(),
            format!("{:.1}", city.density_k),
            format!("{:.0}", city.median_income_k),
            isps,
        ]);
    }
    format!(
        "Table 2: dataset coverage ({} cities, scale {:?}; paper: 18k block groups, 837k addresses at full scale)\n\n{}\nTotals: {} block groups, {} queried addresses\n",
        study.cities.len(),
        study.scale,
        t.render(),
        total_bg,
        total_addr
    )
}

/// Fig. 4 — coefficient of variation of carriage values within block groups.
pub fn fig4(study: &StudyDataset) -> String {
    let mut t = Table::new(vec![
        "ISP",
        "n groups",
        "median CoV",
        "p90",
        "p99",
        "frac > 0.5",
    ]);
    for isp in ALL_ISPS {
        let covs: Vec<f64> = study
            .all_rows()
            .filter(|r| r.isp == isp)
            .filter_map(|r| r.cov)
            .collect();
        if covs.is_empty() {
            continue;
        }
        let tail = covs.iter().filter(|&&c| c > 0.5).count() as f64 / covs.len() as f64;
        t.row(vec![
            isp.name().to_string(),
            covs.len().to_string(),
            opt_f64(quantile(&covs, 0.5), 3),
            opt_f64(quantile(&covs, 0.9), 3),
            opt_f64(quantile(&covs, 0.99), 3),
            format!("{:.3}", tail),
        ]);
    }
    format!(
        "Fig 4: CoV of carriage value within block groups (paper: low for most ISPs; long tail for AT&T and CenturyLink)\n\n{}",
        t.render()
    )
}

/// Fig. 5 — distribution of plans across cities for AT&T and Cox.
pub fn fig5(study: &StudyDataset) -> String {
    let mut out = String::from(
        "Fig 5: block-group carriage-value distributions (paper: AT&T bimodal DSL/fiber peaks; Cox ~6 peaks, mix varies by city)\n\n",
    );
    for isp in [Isp::Att, Isp::Cox] {
        out.push_str(&format!("--- {} ---\n", isp.name()));
        let mut shown = 0;
        for cs in &study.cities {
            if !Isp::of_city(cs.dataset.city).contains(&isp) || shown >= 5 {
                continue;
            }
            let Some(h) = cv_histogram(&cs.rows, isp, 30) else {
                continue;
            };
            shown += 1;
            let peaks = h.peaks(0.04);
            let series: Vec<String> = h
                .normalized()
                .iter()
                .filter(|&&(_, f)| f >= 0.02)
                .map(|&(c, f)| format!("cv~{:.0}:{:.0}%", c, f * 100.0))
                .collect();
            out.push_str(&format!(
                "{:<16} peaks at bins {:?}; mass: {}\n",
                cs.dataset.city.name,
                peaks,
                series.join("  ")
            ));
        }
        out.push('\n');
    }
    out
}

/// Fig. 6 — L1 distance between city plan vectors, per ISP.
pub fn fig6(study: &StudyDataset) -> String {
    let mut t = Table::new(vec!["ISP", "city pairs", "min L1", "median L1", "max L1"]);
    let mut medians: Vec<(Isp, f64)> = Vec::new();
    for isp in ALL_ISPS {
        let per_city: Vec<(String, bbsim_stats::PlanVector)> = study
            .cities
            .iter()
            .filter_map(|cs| {
                plan_vector_for(&cs.rows, isp).map(|v| (cs.dataset.city.name.to_string(), v))
            })
            .collect();
        if per_city.len() < 2 {
            continue;
        }
        let pairs = l1_pairs(&per_city);
        let dists: Vec<f64> = pairs.iter().map(|&(_, _, d)| d).collect();
        let med = median(&dists).expect("pairs non-empty");
        medians.push((isp, med));
        t.row(vec![
            isp.name().to_string(),
            dists.len().to_string(),
            opt_f64(quantile(&dists, 0.0), 2),
            format!("{med:.2}"),
            opt_f64(quantile(&dists, 1.0), 2),
        ]);
    }
    let mut ranked = medians.clone();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let ranking: Vec<String> = ranked
        .iter()
        .map(|(i, d)| format!("{} ({d:.2})", i.name()))
        .collect();
    format!(
        "Fig 6: plan-vector L1 distance across city pairs (paper: AT&T most similar across cities, Spectrum most diverse)\n\n{}\nmost-similar -> most-diverse: {}\n",
        t.render(),
        ranking.join(" < ")
    )
}

/// Fig. 7 — spatial maps of New Orleans plans (AT&T, Cox, composite).
pub fn fig7(study: &StudyDataset) -> String {
    let Some(cs) = study.city("New Orleans") else {
        return "Fig 7: requires New Orleans in the study (add --cities \"New Orleans\")\n"
            .to_string();
    };
    let city = cs.dataset.city;
    let grid = city.grid();
    let att = cell_aligned_cvs(&grid, &cs.rows, Isp::Att);
    let cox = cell_aligned_cvs(&grid, &cs.rows, Isp::Cox);
    let both = composite_best_cv(&grid, &cs.rows, &[Isp::Att, Isp::Cox]);
    let coverage = |f: &[Option<f64>]| {
        100.0 * f.iter().filter(|v| v.is_some()).count() as f64 / f.len() as f64
    };
    let mean_cv = |f: &[Option<f64>]| {
        let vals: Vec<f64> = f.iter().flatten().copied().collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let lisa_panel = match lisa_field(&grid, &both) {
        Some(lisa) => format!(
            "(d) LISA hotspots of the composite ('+' inside a cluster of similar deals, '-' spatial outlier)\n{}",
            lisa_map(&grid, &lisa)
        ),
        None => String::new(),
    };
    format!(
        "Fig 7: spatial distribution of plans in New Orleans ('1'=lowest cv band .. '5'=highest, '.'=no data)\n\n\
        (a) AT&T         coverage {:.0}%  mean best-cv {:.1}\n{}\n\
        (b) Cox          coverage {:.0}%  mean best-cv {:.1}\n{}\n\
        (c) AT&T+Cox composite  coverage {:.0}%  mean best-cv {:.1}\n{}\n\
        {}\n\
        Paper: Cox covers more and offers higher cv than AT&T; the composite tracks the dominant cable ISP.\n",
        coverage(&att),
        mean_cv(&att),
        ascii_map(&grid, &att),
        coverage(&cox),
        mean_cv(&cox),
        ascii_map(&grid, &cox),
        coverage(&both),
        mean_cv(&both),
        ascii_map(&grid, &both),
        lisa_panel,
    )
}

/// Table 3 — median Moran's I per ISP and per ISP pair.
pub fn table3(study: &StudyDataset) -> String {
    let mut t = Table::new(vec!["ISP", "cities", "median Moran I", "median z"]);
    for isp in ALL_ISPS {
        let mut is = Vec::new();
        let mut zs = Vec::new();
        for cs in &study.cities {
            if !Isp::of_city(cs.dataset.city).contains(&isp) {
                continue;
            }
            match morans_i_for_isp(cs.dataset.city, &cs.rows, isp) {
                Some(r) => {
                    is.push(r.i);
                    zs.push(r.z_score);
                }
                // Constant field (Xfinity): the paper reports 0.
                None => is.push(0.0),
            }
        }
        if is.is_empty() {
            continue;
        }
        t.row(vec![
            isp.name().to_string(),
            is.len().to_string(),
            opt_f64(median(&is), 2),
            opt_f64(median(&zs), 1),
        ]);
    }

    let mut tp = Table::new(vec!["ISP pair", "cities", "median Moran I"]);
    let mut pair_stats: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for cs in &study.cities {
        let isps = Isp::of_city(cs.dataset.city);
        if isps.len() != 2 {
            continue;
        }
        let (a, b) = (isps[0], isps[1]);
        let key = format!(
            "{}-{}",
            a.column().min(b.column()),
            a.column().max(b.column())
        );
        if let Some(r) = morans_i_for_pair(cs.dataset.city, &cs.rows, (a, b)) {
            pair_stats.entry(key).or_default().push(r.i);
        } else {
            pair_stats.entry(key).or_default().push(0.0);
        }
    }
    for (pair, is) in &pair_stats {
        tp.row(vec![
            pair.clone(),
            is.len().to_string(),
            opt_f64(median(is), 2),
        ]);
    }
    format!(
        "Table 3: spatial clustering, median Moran's I across cities (paper: 0.3-0.5 for most ISPs, 0 for Xfinity)\n\n{}\nISP pairs (columns as in Table 2: 1=AT&T .. 7=Xfinity):\n\n{}",
        t.render(),
        tp.render()
    )
}

/// Fig. 8 — competition impact on cable carriage values.
pub fn fig8(study: &StudyDataset) -> String {
    let mut out = String::from(
        "Fig 8 / §5.4: cable cv by operational mode, one-tailed 2-sample KS tests (paper: fiber duopoly +30% median cv, D=0.65; DSL duopoly ~= monopoly)\n\n",
    );
    let mut fiber_rejections = 0;
    let mut fiber_total = 0;
    let mut dsl_nonrejections = 0;
    let mut dsl_total = 0;
    for cs in &study.cities {
        let (cable, rival) = cable_and_rival(cs.dataset.city);
        let Some(cable) = cable else { continue };
        if cable == Isp::Xfinity {
            continue; // location-invariant; no competition response to test
        }
        let Some(report) = test_competition(&cs.rows, cable, rival) else {
            continue;
        };
        for cmp in &report.comparisons {
            let mode = match cmp.mode {
                CompetitionMode::CableDslDuopoly => "cable-DSL duopoly",
                CompetitionMode::CableFiberDuopoly => "cable-fiber duopoly",
                CompetitionMode::CableMonopoly => unreachable!("baseline mode"),
            };
            let h1 = cmp.h1_duopoly_greater;
            let verdict = if h1.rejects_at(0.05) {
                "REJECT H0 (duopoly cv greater)"
            } else {
                "fail to reject H0"
            };
            out.push_str(&format!(
                "{:<16} {:<8} {:<20} monopoly med {:>5.2} (n={:<3}) vs {:>5.2} (n={:<3})  D={:.2} p={:.4}  {}\n",
                cs.dataset.city.name,
                cable.name(),
                mode,
                report.monopoly_median_cv,
                report.n_monopoly,
                cmp.median_cv,
                cmp.n,
                h1.statistic,
                h1.p_value,
                verdict,
            ));
            match cmp.mode {
                CompetitionMode::CableFiberDuopoly => {
                    fiber_total += 1;
                    if h1.rejects_at(0.05) {
                        fiber_rejections += 1;
                    }
                }
                CompetitionMode::CableDslDuopoly => {
                    dsl_total += 1;
                    if !h1.rejects_at(0.05) {
                        dsl_nonrejections += 1;
                    }
                }
                CompetitionMode::CableMonopoly => {}
            }
        }
    }
    out.push_str(&format!(
        "\nSummary: fiber-duopoly H0 rejected in {fiber_rejections}/{fiber_total} tests; DSL-duopoly H0 retained in {dsl_nonrejections}/{dsl_total} tests\n"
    ));
    out
}

/// Fig. 9a — AT&T fiber availability by income in New Orleans.
pub fn fig9a(study: &StudyDataset) -> String {
    let Some(cs) = study.city("New Orleans") else {
        return "Fig 9a: requires New Orleans in the study\n".to_string();
    };
    match fiber_by_income(cs.dataset.city, &cs.rows, Isp::Att) {
        Some(b) => format!(
            "Fig 9a: AT&T fiber availability by block-group income, New Orleans (paper: 41% of low-income vs 57% of high-income groups have fiber)\n\n\
             low-income groups : {:>4}  fiber available: {:.0}%\n\
             high-income groups: {:>4}  fiber available: {:.0}%\n\
             gap (high - low)  : {:+.0} points\n",
            b.n_low, b.low_fiber_pct, b.n_high, b.high_fiber_pct, b.gap_points()
        ),
        None => "Fig 9a: insufficient AT&T coverage in this run\n".to_string(),
    }
}

/// Fig. 9b — fiber-deployment income gap across cities and ISPs.
pub fn fig9b(study: &StudyDataset) -> String {
    let mut out = String::from(
        "Fig 9b: percent-point difference in fiber deployment, high- minus low-income block groups (paper: positive for AT&T/Verizon/CenturyLink in most cities; Frontier is the outlier)\n\n",
    );
    let mut t = Table::new(vec!["ISP", "cities", "median gap (pts)", "positive cities"]);
    for isp in [Isp::Att, Isp::Verizon, Isp::CenturyLink, Isp::Frontier] {
        let mut gaps = Vec::new();
        for cs in &study.cities {
            if !Isp::of_city(cs.dataset.city).contains(&isp) {
                continue;
            }
            if let Some(b) = fiber_by_income(cs.dataset.city, &cs.rows, isp) {
                gaps.push(b.gap_points());
            }
        }
        if gaps.is_empty() {
            continue;
        }
        let positive = gaps.iter().filter(|&&g| g > 0.0).count();
        t.row(vec![
            isp.name().to_string(),
            gaps.len().to_string(),
            opt_f64(median(&gaps), 1),
            format!("{positive}/{}", gaps.len()),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// §4.1 — the container-scaling experiment.
pub fn scaling(seed: u64) -> String {
    use bbsim_bat::{templates, BatServer};
    use bbsim_isp::CityWorld;
    use bbsim_net::{IpPool, RotationPolicy, SimDuration, Transport};
    use bqt::{BqtConfig, Campaign, QueryJob};
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("Billings is a study city");
    let world = Arc::new(CityWorld::build(city));
    let isp = Isp::CenturyLink;
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(400)
        .map(|r| QueryJob::listing(isp.slug(), templates::dialect_of(isp), r))
        .collect();

    let mut t = Table::new(vec![
        "containers",
        "mean query time (s)",
        "hit rate",
        "blocked",
    ]);
    for &workers in &[1usize, 50, 100, 200] {
        let mut transport = Transport::new(seed);
        transport.register(isp.slug(), BatServer::new(isp, world.clone()).endpoint());
        let mut pool = IpPool::residential(256, RotationPolicy::RoundRobin, seed);
        let config = BqtConfig::paper_default(SimDuration::from_secs(40));
        let report = Campaign::new(seed).workers(workers).config(config).run(
            &mut transport,
            &jobs,
            &mut pool,
        );
        t.row(vec![
            workers.to_string(),
            opt_f64(report.mean_hit_duration_s(), 1),
            format!("{:.1}%", 100.0 * report.metrics.hit_rate()),
            report.metrics.blocked.to_string(),
        ]);
    }
    format!(
        "§4.1 scaling: ISP response time vs concurrent containers (paper: no statistically significant change up to 200)\n\n{}",
        t.render()
    )
}

/// Ablation — suggestion-matcher measures.
pub fn ablation_matcher(seed: u64) -> String {
    use bbsim_address::matching::Measure;
    let city = city_by_name("Billings").expect("study city");
    let mut t = Table::new(vec!["measure", "hit rate", "unserviceable"]);
    for (name, measure) in [
        ("Levenshtein", Measure::Levenshtein),
        ("Jaro-Winkler", Measure::JaroWinkler),
        ("Token-sort", Measure::TokenSort),
    ] {
        let opts = CurationOptions::quick(seed).measure(measure);
        let ds = curate_city(city, &opts);
        let mut total = Metrics::new();
        for (_, m) in &ds.per_isp_metrics {
            total.merge(m);
        }
        t.row(vec![
            name.to_string(),
            format!("{:.1}%", 100.0 * total.hit_rate()),
            total.unserviceable.to_string(),
        ]);
    }
    format!(
        "Ablation: suggestion-matching measure vs hit rate (Billings, both ISPs)\n\n{}",
        t.render()
    )
}

/// Ablation — wait policy: the paper's max-observed pause vs adaptive
/// polling.
pub fn ablation_wait(seed: u64) -> String {
    use bbsim_bat::{templates, BatServer};
    use bbsim_isp::CityWorld;
    use bbsim_net::{IpPool, RotationPolicy, SimDuration, Transport};
    use bqt::{BqtConfig, Campaign, QueryJob};
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let isp = Isp::Spectrum; // the slowest BAT: waits dominate
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(300)
        .map(|r| QueryJob::listing(isp.slug(), templates::dialect_of(isp), r))
        .collect();

    let mut t = Table::new(vec!["wait policy", "median query (s)", "hit rate"]);
    for (name, config) in [
        (
            "max-observed (paper)",
            BqtConfig::paper_default(SimDuration::from_secs(120)),
        ),
        (
            "adaptive 2s poll",
            BqtConfig::adaptive(SimDuration::from_secs(2)),
        ),
    ] {
        let mut transport = Transport::new(seed);
        transport.register(isp.slug(), BatServer::new(isp, world.clone()).endpoint());
        let mut pool = IpPool::residential(256, RotationPolicy::RoundRobin, seed);
        let report =
            Campaign::new(seed)
                .workers(32)
                .config(config)
                .run(&mut transport, &jobs, &mut pool);
        let med = report.metrics.median_duration().map(|d| d.as_secs_f64());
        t.row(vec![
            name.to_string(),
            opt_f64(med, 1),
            format!("{:.1}%", 100.0 * report.metrics.hit_rate()),
        ]);
    }
    format!(
        "Ablation: DOM-settle wait policy on the slowest BAT (Spectrum, Billings)\n\n{}",
        t.render()
    )
}

/// Ablation — sampling rate vs block-group estimate accuracy.
pub fn ablation_sampling(seed: u64) -> String {
    use std::collections::HashMap;
    // Wichita has AT&T, whose fiber block groups mix fiber and DSL
    // addresses — the case where sampling error actually shows up.
    let city = city_by_name("Wichita").expect("study city");
    // Reference: exhaustive sampling.
    let reference = curate_city(
        city,
        &CurationOptions::paper_default(seed)
            .sample_rate(1.0)
            .min_samples(1)
            .max_samples_per_bg(None)
            .calibration_samples(10),
    );
    let ref_rows = bbsim_dataset::aggregate_block_groups(&reference.records);
    let ref_map: HashMap<(Isp, usize), (f64, bool)> = ref_rows
        .iter()
        .map(|r| ((r.isp, r.bg_index), (r.median_cv, r.fiber_share >= 0.5)))
        .collect();

    let mut t = Table::new(vec![
        "sample rate",
        "queries",
        "mean |median-cv error|",
        "max error",
        "fiber misclassified",
    ]);
    for &rate in &[0.02, 0.05, 0.10, 0.20] {
        let ds = curate_city(
            city,
            &CurationOptions::paper_default(seed + 1)
                .sample_rate(rate)
                .min_samples(3)
                .max_samples_per_bg(None)
                .calibration_samples(10),
        );
        let rows = bbsim_dataset::aggregate_block_groups(&ds.records);
        let mut errs = Vec::new();
        let mut flips = 0usize;
        let mut compared = 0usize;
        for r in &rows {
            if let Some(&(truth_cv, truth_fiber)) = ref_map.get(&(r.isp, r.bg_index)) {
                errs.push((r.median_cv - truth_cv).abs());
                compared += 1;
                if (r.fiber_share >= 0.5) != truth_fiber {
                    flips += 1;
                }
            }
        }
        let queried: u64 = ds.per_isp_metrics.iter().map(|(_, m)| m.queried).sum();
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let max = errs.iter().cloned().fold(0.0, f64::max);
        t.row(vec![
            format!("{:.0}%", rate * 100.0),
            queried.to_string(),
            format!("{mean:.3}"),
            format!("{max:.3}"),
            format!("{flips}/{compared}"),
        ]);
    }
    format!(
        "Ablation: sampling rate vs block-group estimate error (Wichita, reference = exhaustive scrape)\n\n{}",
        t.render()
    )
}

/// Ablation — the §3.2 strawman client vs BQT.
pub fn strawman_vs_bqt(seed: u64) -> String {
    use bbsim_bat::{templates, BatServer};
    use bbsim_isp::CityWorld;
    use bbsim_net::{IpPool, RotationPolicy, SimDuration, SimIp, Transport};
    use bqt::strawman::run_strawman;
    use bqt::{BqtConfig, Campaign, QueryJob};
    use std::sync::Arc;

    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let isp = Isp::CenturyLink;
    let lines: Vec<String> = world
        .addresses()
        .records()
        .iter()
        .take(200)
        .map(|r| r.listing_line.clone())
        .collect();

    // Strawman run.
    let mut t1 = Transport::new(seed);
    t1.register(isp.slug(), BatServer::new(isp, world.clone()).endpoint());
    let (_, straw_metrics) = run_strawman(
        &mut t1,
        isp.slug(),
        templates::dialect_of(isp),
        &lines,
        SimIp(0x6440_0001),
    );

    // BQT run on the same addresses.
    let mut t2 = Transport::new(seed);
    t2.register(isp.slug(), BatServer::new(isp, world.clone()).endpoint());
    let jobs: Vec<QueryJob> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| QueryJob {
            endpoint: isp.slug().to_string(),
            dialect: templates::dialect_of(isp),
            input_line: l.clone(),
            tag: i as u64,
        })
        .collect();
    let mut pool = IpPool::residential(128, RotationPolicy::RoundRobin, seed);
    let report = Campaign::new(seed)
        .workers(32)
        .config(BqtConfig::paper_default(SimDuration::from_secs(60)))
        .run(&mut t2, &jobs, &mut pool);

    let mut t = Table::new(vec!["client", "hit rate", "blocked"]);
    t.row(vec![
        "strawman (direct API, shared cookie)".to_string(),
        format!("{:.1}%", 100.0 * straw_metrics.hit_rate()),
        straw_metrics.blocked.to_string(),
    ]);
    t.row(vec![
        "BQT (user mimicry)".to_string(),
        format!("{:.1}%", 100.0 * report.metrics.hit_rate()),
        report.metrics.blocked.to_string(),
    ]);
    format!(
        "§3.2 baseline: extending the old BAT client vs BQT (CenturyLink, Billings, same 200 addresses)\n\n{}",
        t.render()
    )
}

/// Runs the full battery against one study and concatenates the reports.
pub fn all_reports(study: &StudyDataset, seed: u64) -> String {
    let mut out = String::new();
    for section in [
        table1(),
        fig3(),
        fig2a(study),
        fig2b(study),
        table2(study),
        fig4(study),
        fig5(study),
        fig6(study),
        fig7(study),
        table3(study),
        fig8(study),
        fig9a(study),
        fig9b(study),
        scaling(seed),
        strawman_vs_bqt(seed),
        ablation_matcher(seed),
        ablation_wait(seed),
        ablation_sampling(seed),
        crate::experiments_ext::staleness(seed),
        crate::experiments_ext::audit(seed),
        crate::experiments_ext::drift(seed),
        crate::experiments_ext::tier_flattening_report(study),
        crate::experiments_ext::markup_baseline(study),
        crate::experiments_ext::upload_consistency_report(study),
        crate::experiments_ext::robustness(study),
        crate::experiments_ext::policy(study),
    ] {
        out.push_str(&section);
        out.push_str("\n================================================================\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{resolve_cities, run_study, Scale};

    fn small_study() -> StudyDataset {
        run_study(&resolve_cities(Some("Billings, Fargo")), Scale::Quick, 1, 2)
    }

    #[test]
    fn static_reports_render() {
        assert!(table1().contains("AT&T"));
        assert!(table1().contains("11"));
        assert!(fig3().lines().count() >= 33);
    }

    #[test]
    fn fig2_reports_cover_curated_isps() {
        let study = small_study();
        let a = fig2a(&study);
        assert!(a.contains("CenturyLink"));
        assert!(a.contains("Spectrum"));
        let b = fig2b(&study);
        assert!(b.contains("median"));
    }

    #[test]
    fn table2_totals_are_nonzero() {
        let study = small_study();
        let t = table2(&study);
        assert!(t.contains("Billings, MT"));
        assert!(t.contains("Totals:"));
    }

    #[test]
    fn fig7_degrades_gracefully_without_new_orleans() {
        let study = small_study();
        assert!(fig7(&study).contains("requires New Orleans"));
        assert!(fig9a(&study).contains("requires New Orleans"));
    }

    #[test]
    fn table3_reports_morans_i_for_both_isps() {
        let study = small_study();
        let t = table3(&study);
        assert!(t.contains("CenturyLink"), "{t}");
        assert!(t.contains("Spectrum"), "{t}");
    }
}
