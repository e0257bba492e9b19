//! Scaling: how many scraping containers can run before the ISP notices?
//!
//! Reproduces the paper's §4.1 methodology experiment: run the same address
//! list through 1, 50, 100 and 200 concurrent BQT containers and compare
//! per-query response times (the paper found no degradation up to 200).
//! Then shows the flip side the safeguards exist for: funnel the same load
//! through one residential IP and watch the rate limiter engage.
//!
//! Run with: `cargo run --release --example scaling_containers`

use decoding_divide::prelude::*;
use std::sync::Arc;

fn main() {
    let city = city_by_name("Billings").expect("study city");
    let world = Arc::new(CityWorld::build(city));
    let isp = Isp::CenturyLink;
    let jobs: Vec<QueryJob> = world
        .addresses()
        .records()
        .iter()
        .take(500)
        .map(|r| QueryJob {
            endpoint: isp.slug().to_string(),
            dialect: templates::dialect_of(isp),
            input_line: r.listing_line.clone(),
            tag: r.id as u64,
        })
        .collect();
    let config = BqtConfig::paper_default(SimDuration::from_secs(40));

    println!(
        "500 addresses against {}'s BAT, healthy IP pool:\n",
        isp.name()
    );
    println!(
        "{:>10} {:>18} {:>10} {:>14} {:>9}",
        "containers", "mean query (s)", "hit rate", "makespan (h)", "blocked"
    );
    for workers in [1usize, 50, 100, 200] {
        let mut transport = Transport::new(9);
        transport.register(isp.slug(), BatServer::new(isp, world.clone()).endpoint());
        let mut pool = IpPool::residential(256, RotationPolicy::RoundRobin, 9);
        let report =
            Campaign::new(9)
                .workers(workers)
                .config(config)
                .run(&mut transport, &jobs, &mut pool);
        println!(
            "{:>10} {:>18.1} {:>9.1}% {:>14.2} {:>9}",
            workers,
            report.mean_hit_duration_s().unwrap_or(f64::NAN),
            100.0 * report.metrics.hit_rate(),
            report.makespan.as_secs_f64() / 3600.0,
            report.metrics.blocked,
        );
    }

    println!("\nsame 200 containers, but one shared source IP:\n");
    let mut transport = Transport::new(9);
    transport.register(isp.slug(), BatServer::new(isp, world.clone()).endpoint());
    let mut pool = IpPool::residential(1, RotationPolicy::RoundRobin, 9);
    let report = Campaign::new(9)
        .workers(200)
        .politeness(SimDuration::from_secs(1))
        .config(config)
        .run(&mut transport, &jobs, &mut pool);
    println!(
        "hit rate {:.1}%, {} queries blocked by the per-IP rate limiter",
        100.0 * report.metrics.hit_rate(),
        report.metrics.blocked
    );
    println!("\nThis is why the paper sources requests from a residential IP pool.");
}
