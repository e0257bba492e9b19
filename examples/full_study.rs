//! Full study: the whole paper, end to end, in one run.
//!
//! Curates a representative slice of the 30 study cities (pass `--all` for
//! every city), then prints a one-page digest of the paper's four §5
//! findings recovered from the scraped data.
//!
//! Run with: `cargo run --release --example full_study [-- --all]`

use decoding_divide::analysis::{
    fiber_by_income, l1_pairs, morans_i_for_isp, plan_vector_for, test_competition, CompetitionMode,
};
use decoding_divide::census::CityProfile;
use decoding_divide::dataset::BlockGroupRow;
use decoding_divide::prelude::*;
use decoding_divide::stats::median;

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let cities: Vec<&'static CityProfile> = if all {
        ALL_CITIES.iter().collect()
    } else {
        [
            "New Orleans",
            "Wichita",
            "Oklahoma City",
            "Billings",
            "Durham",
            "Tampa",
            "Fargo",
        ]
        .iter()
        .map(|n| city_by_name(n).expect("study city"))
        .collect()
    };

    println!("curating {} cities (quick scale) ...", cities.len());
    let started = std::time::Instant::now();
    let per_city: Vec<(&'static CityProfile, Vec<BlockGroupRow>)> = cities
        .iter()
        .map(|city| {
            let ds = curate_city(city, &CurationOptions::quick(1));
            (*city, aggregate_block_groups(&ds.records))
        })
        .collect();
    println!("done in {:.1}s\n", started.elapsed().as_secs_f64());

    // Finding 1: plans vary inter-city.
    let att_vectors: Vec<(String, _)> = per_city
        .iter()
        .filter_map(|(c, rows)| plan_vector_for(rows, Isp::Att).map(|v| (c.name.to_string(), v)))
        .collect();
    if att_vectors.len() >= 2 {
        let dists: Vec<f64> = l1_pairs(&att_vectors).iter().map(|&(_, _, d)| d).collect();
        println!(
            "1. INTER-CITY: AT&T's plan mix differs between cities (median L1 {:.2} across {} pairs)",
            median(&dists).expect("non-empty"),
            dists.len()
        );
    }

    // Finding 2: plans cluster intra-city.
    let mut morans = Vec::new();
    for (city, rows) in &per_city {
        for isp in Isp::of_city(city) {
            if let Some(r) = morans_i_for_isp(city, rows, isp) {
                morans.push(r.i);
            }
        }
    }
    println!(
        "2. INTRA-CITY: plans are spatially clustered (median Moran's I {:.2} over {} ISP-city fields)",
        median(&morans).expect("non-empty"),
        morans.len()
    );

    // Finding 3: fiber competition raises cable carriage values.
    let mut boosts = Vec::new();
    let mut rejections = 0;
    let mut tests = 0;
    for (city, rows) in &per_city {
        let isps = Isp::of_city(city);
        let Some(cable) = isps
            .iter()
            .copied()
            .find(|i| i.is_cable() && *i != Isp::Xfinity)
        else {
            continue;
        };
        let rival = isps.iter().copied().find(|i| !i.is_cable());
        let Some(report) = test_competition(rows, cable, rival) else {
            continue;
        };
        if let Some(fiber) = report
            .comparisons
            .iter()
            .find(|c| c.mode == CompetitionMode::CableFiberDuopoly)
        {
            tests += 1;
            if fiber.h1_duopoly_greater.rejects_at(0.05) {
                rejections += 1;
            }
            boosts.push(100.0 * (fiber.median_cv / report.monopoly_median_cv - 1.0));
        }
    }
    println!(
        "3. COMPETITION: cable offers better deals where fiber competes (median +{:.0}% cv, KS H0 rejected {rejections}/{tests})",
        median(&boosts).expect("non-empty")
    );

    // Finding 4: fiber follows income.
    let mut gaps = Vec::new();
    for (city, rows) in &per_city {
        for isp in Isp::of_city(city)
            .into_iter()
            .filter(|i| !i.is_cable() && *i != Isp::Frontier)
        {
            if let Some(b) = fiber_by_income(city, rows, isp) {
                gaps.push(b.gap_points());
            }
        }
    }
    println!(
        "4. INCOME: fiber lands in high-income block groups first (median gap +{:.0} points over {} ISP-city pairs)",
        median(&gaps).expect("non-empty"),
        gaps.len()
    );

    println!("\nEvery number above was recovered from scraped plans only — see EXPERIMENTS.md.");
}
