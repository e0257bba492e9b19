//! Competition study: does a fiber rival change what cable charges?
//!
//! The paper's §5.4 headline, end to end: curate a cable+fiber city,
//! classify every block group as cable monopoly / cable-DSL duopoly /
//! cable-fiber duopoly (from scraped plans alone), and run the paper's two
//! one-tailed Kolmogorov–Smirnov tests.
//!
//! Run with: `cargo run --release --example competition_study [-- "City"]`

use decoding_divide::analysis::{classify_modes, test_competition, CompetitionMode};
use decoding_divide::prelude::*;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "New Orleans".to_string());
    let city = city_by_name(&name)
        .unwrap_or_else(|| panic!("{name:?} is not a study city; use a Table-2 name"));
    let isps = Isp::of_city(city);
    let cable = isps
        .iter()
        .copied()
        .find(|i| i.is_cable())
        .unwrap_or_else(|| panic!("{name} has no cable ISP; pick e.g. New Orleans"));
    let rival = isps.iter().copied().find(|i| !i.is_cable());

    println!(
        "=== {} : {} vs {} ===\n",
        city.name,
        cable.name(),
        rival.map_or("(no rival)", |r| r.name())
    );

    let dataset = curate_city(city, &CurationOptions::quick(3));
    let rows = aggregate_block_groups(&dataset.records);

    // Mode census.
    let modes = classify_modes(&rows, cable, rival);
    for (label, mode) in [
        ("cable monopoly", CompetitionMode::CableMonopoly),
        ("cable-DSL duopoly", CompetitionMode::CableDslDuopoly),
        ("cable-fiber duopoly", CompetitionMode::CableFiberDuopoly),
    ] {
        let n = modes.iter().filter(|&&(_, m, _)| m == mode).count();
        println!("{label:<20} {n:>5} block groups");
    }
    println!();

    match test_competition(&rows, cable, rival) {
        Some(report) => {
            println!(
                "monopoly baseline: median cv {:.2} Mbps/$ over {} groups\n",
                report.monopoly_median_cv, report.n_monopoly
            );
            for cmp in &report.comparisons {
                let mode = match cmp.mode {
                    CompetitionMode::CableDslDuopoly => "cable-DSL duopoly",
                    CompetitionMode::CableFiberDuopoly => "cable-fiber duopoly",
                    CompetitionMode::CableMonopoly => unreachable!("baseline"),
                };
                println!(
                    "{mode}: median cv {:.2} ({:+.0}% vs monopoly), n = {}",
                    cmp.median_cv,
                    100.0 * (cmp.median_cv / report.monopoly_median_cv - 1.0),
                    cmp.n
                );
                println!(
                    "  H1 (duopoly cv greater):  D = {:.2}, p = {:.4} -> {}",
                    cmp.h1_duopoly_greater.statistic,
                    cmp.h1_duopoly_greater.p_value,
                    if cmp.h1_duopoly_greater.rejects_at(0.05) {
                        "REJECT H0"
                    } else {
                        "fail to reject H0"
                    }
                );
                println!(
                    "  H2 (monopoly cv greater): D = {:.2}, p = {:.4} -> {}\n",
                    cmp.h2_monopoly_greater.statistic,
                    cmp.h2_monopoly_greater.p_value,
                    if cmp.h2_monopoly_greater.rejects_at(0.05) {
                        "REJECT H0"
                    } else {
                        "fail to reject H0"
                    }
                );
            }
            println!(
                "Paper's finding: cable raises carriage value ~30% where fiber competes;\n\
                 DSL competition changes nothing. Compare the two verdicts above."
            );
        }
        None => println!("not enough monopoly/duopoly variation in this city to test"),
    }
}
