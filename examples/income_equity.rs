//! Income equity: who gets the fiber (and therefore the good deals)?
//!
//! Reproduces §5.5 for any DSL/fiber city: classify block groups fiber/DSL
//! from scraped plan shapes, join the public ACS income table, split at the
//! city median, and report the deployment gap — plus the knock-on effect on
//! the *best available deal* from any ISP in each income band.
//!
//! Run with: `cargo run --release --example income_equity [-- "City"]`

use decoding_divide::analysis::fiber_by_income;
use decoding_divide::analysis::income::public_acs;
use decoding_divide::census::IncomeBand;
use decoding_divide::prelude::*;
use decoding_divide::stats::median;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "New Orleans".to_string());
    let city = city_by_name(&name)
        .unwrap_or_else(|| panic!("{name:?} is not a study city; use a Table-2 name"));
    let isps = Isp::of_city(city);
    let Some(fiber_isp) = isps.iter().copied().find(|i| !i.is_cable()) else {
        panic!("{name} has no DSL/fiber ISP; pick e.g. New Orleans");
    };

    println!(
        "=== {}: {} fiber deployment vs income ===\n",
        city.name,
        fiber_isp.name()
    );
    let dataset = curate_city(city, &CurationOptions::quick(5));
    let rows = aggregate_block_groups(&dataset.records);

    match fiber_by_income(city, &rows, fiber_isp) {
        Some(b) => {
            println!(
                "low-income block groups  (below ${:.0}k): {:>4} served, fiber in {:>4.0}%",
                city.median_income_k, b.n_low, b.low_fiber_pct
            );
            println!(
                "high-income block groups (above ${:.0}k): {:>4} served, fiber in {:>4.0}%",
                city.median_income_k, b.n_high, b.high_fiber_pct
            );
            println!("deployment gap: {:+.0} percentage points (paper: positive in 10 of 13 AT&T cities)\n", b.gap_points());
        }
        None => println!("insufficient coverage to split by income\n"),
    }

    // Knock-on: the best deal available from ANY ISP, by income band.
    let acs = public_acs(city);
    let mut best_by_band: [(Vec<f64>, &str); 2] =
        [(Vec::new(), "low-income"), (Vec::new(), "high-income")];
    let grid = city.grid();
    for bg in 0..grid.len() {
        let best = rows
            .iter()
            .filter(|r| r.bg_index == bg)
            .map(|r| r.median_cv)
            .fold(f64::NAN, f64::max);
        if best.is_nan() {
            continue;
        }
        let Some(demo) = acs.get(grid.id(bg)) else {
            continue;
        };
        let slot = match demo.income_band {
            IncomeBand::Low => &mut best_by_band[0],
            IncomeBand::High => &mut best_by_band[1],
        };
        slot.0.push(best);
    }
    for (cvs, label) in &best_by_band {
        let mean = cvs.iter().sum::<f64>() / cvs.len().max(1) as f64;
        let premium = cvs.iter().filter(|&&cv| cv >= 14.0).count() as f64 / cvs.len().max(1) as f64;
        println!(
            "{label:<12} best-available cv: median {:.2}, mean {:.2} Mbps/$; {:.0}% of groups see a >=14 Mbps/$ deal ({} groups)",
            median(cvs).unwrap_or(f64::NAN),
            mean,
            100.0 * premium,
            cvs.len()
        );
    }
    println!(
        "\nThe paper's conclusion: low-income block groups get less fiber, and because\n\
         cable only sharpens its offers where fiber competes, they lose twice."
    );
}
