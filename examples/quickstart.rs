//! Quickstart: query the broadband plans at one street address.
//!
//! This is the paper's core loop in miniature: stand up a city's simulated
//! ISP availability sites, point BQT at one listing line, and print the
//! plans (download/upload/price and carriage value) it scrapes — then run
//! a small monitored campaign and print its health snapshot.
//!
//! Run with: `cargo run --release --example quickstart`

use decoding_divide::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // 1. Build the hidden world for one study city and start its BATs.
    let city = city_by_name("New Orleans").expect("a Table-2 city");
    let world = Arc::new(CityWorld::build(city));
    let mut transport = Transport::new(7);
    register_fleet(&mut transport, &world);

    // 2. Pick an address as it appears in the (noisy) listing data.
    let address = &world.addresses().records()[100];
    println!("querying: {}\n", address.listing_line);

    // 3. Drive BQT against each active ISP.
    let config = BqtConfig::paper_default(SimDuration::from_secs(60));
    let mut rng = StdRng::seed_from_u64(42);
    let src = SimIp(u32::from_be_bytes([100, 64, 0, 1]));
    for isp in world.isps() {
        let job = QueryJob::listing(isp.slug(), templates::dialect_of(isp), address);
        let rec = query_address(&mut transport, &config, &job, src, SimTime::ZERO, &mut rng);
        println!(
            "{} (answered in {} virtual, {} steps):",
            isp, rec.duration, rec.steps
        );
        match rec.outcome {
            QueryOutcome::Plans(plans) => {
                for p in plans {
                    println!(
                        "  {:>7.1} down / {:>6.1} up Mbps at ${:>5.2}/mo  -> carriage value {:.2} Mbps/$",
                        p.download_mbps,
                        p.upload_mbps,
                        p.price_usd,
                        p.carriage_value()
                    );
                }
            }
            QueryOutcome::NoService => println!("  no broadband service at this address"),
            other => println!("  query did not resolve: {other:?}"),
        }
        println!();
    }

    // 4. Scale up to a small monitored campaign and read its health.
    let mut jobs = Vec::new();
    for record in world.addresses().records().iter().take(25) {
        for isp in world.isps() {
            jobs.push(QueryJob {
                tag: ((isp.column() as u64) << 32) | record.id as u64,
                ..QueryJob::listing(isp.slug(), templates::dialect_of(isp), record)
            });
        }
    }
    let mut pool = IpPool::residential(64, RotationPolicy::RoundRobin, 7);
    let report = Campaign::new(7)
        .workers(4)
        .config(config)
        .monitor(MonitorPolicy::paper_default())
        .run(&mut transport, &jobs, &mut pool);

    println!("campaign health ({} queries, 4 workers):", jobs.len());
    for (endpoint, stats) in &report.telemetry.per_endpoint {
        println!(
            "  {:<12} hit rate {:>5.1}%  p99 {:>4.0}s over {} attempts",
            endpoint,
            100.0 * stats.hits as f64 / stats.attempts.max(1) as f64,
            stats.latency.quantile_ms(0.99).unwrap_or(0) as f64 / 1000.0,
            stats.attempts,
        );
    }
    let health = report.health.expect("campaign ran with a monitor");
    println!(
        "  {} alerts fired, {} resolved, {} still open at campaign end",
        health.alerts_fired(),
        health.alerts_resolved(),
        health.alerts_active(),
    );
    for alert in &health.alerts {
        println!("    {} fired at {}", alert.rule, alert.fired_at);
    }
    println!(
        "  campaign {} over {} virtual",
        if health.healthy() {
            "healthy"
        } else {
            "degraded"
        },
        SimDuration::from_millis(health.makespan_ms),
    );
}
