//! The strawman baseline: extending the old BAT availability client (§3.2).
//!
//! Prior work [Major et al., IMC '20] queried ISP RESTful APIs directly,
//! reusing one session across thousands of addresses. The paper reports
//! that ISPs have since hardened their BATs — dynamic per-session cookies
//! and per-IP blocking — making that approach unreliable. This module
//! implements the strawman faithfully so the ablation experiment can show
//! *why* BQT's user-mimicry design is necessary: the strawman acquires one
//! cookie, then replays `/select` requests against it for every address.

use crate::driver::{QueryOutcome, QueryRecord};
use crate::metrics::Metrics;
use crate::scrape::{detect, DetectedPage};
use bbsim_bat::Dialect;
use bbsim_net::{Request, SimDuration, SimIp, SimTime, Status, Transport};

/// Runs the strawman client over a list of listing lines against one BAT
/// endpoint, from a single source IP (the original tool parallelized from
/// one host).
///
/// Returns per-address records plus aggregate metrics — compare its hit
/// rate with BQT's on the same inputs.
pub fn run_strawman(
    transport: &mut Transport,
    endpoint: &str,
    dialect: Dialect,
    lines: &[String],
    src: SimIp,
) -> (Vec<QueryRecord>, Metrics) {
    let mut records = Vec::with_capacity(lines.len());
    let mut metrics = Metrics::new();
    let mut now = SimTime::ZERO;

    // Step 1: one bootstrap request to harvest a session cookie.
    let mut cookie: Option<String> = None;
    if let Some(first) = lines.first() {
        let req = Request::post("/locate", format!("address={first}"));
        if let Ok((resp, elapsed)) = transport.round_trip(endpoint, src, &req, now) {
            now += elapsed;
            cookie = resp.set_cookie().map(str::to_string);
        }
    }

    // Step 2: replay /select with the same cookie for every address, the
    // way the reverse-engineered API client batches requests.
    for (tag, line) in lines.iter().enumerate() {
        let start = now;
        let req = match &cookie {
            Some(c) => Request::post("/select", format!("choice={line}")).with_cookie(c.clone()),
            None => Request::post("/locate", format!("address={line}")),
        };
        let outcome = match transport.round_trip(endpoint, src, &req, now) {
            Ok((resp, elapsed)) => {
                now += elapsed;
                match resp.status {
                    Status::Ok => match detect(&resp.body, dialect) {
                        DetectedPage::Plans(p) => QueryOutcome::Plans(p),
                        DetectedPage::NoService => QueryOutcome::NoService,
                        DetectedPage::AddressNotFound(_) => QueryOutcome::Unserviceable,
                        _ => QueryOutcome::Failed,
                    },
                    Status::Forbidden | Status::TooManyRequests => QueryOutcome::Blocked,
                    _ => QueryOutcome::Failed,
                }
            }
            Err(_) => QueryOutcome::Failed,
        };
        // Minimal pacing: the API client fires as fast as it can.
        now += SimDuration::from_millis(250);
        let rec = QueryRecord {
            tag: tag as u64,
            outcome,
            duration: now.since(start),
            steps: 1,
            saw_unrecognized_page: false,
        };
        metrics.record(&rec);
        records.push(rec);
    }

    (records, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_bat::{templates, BatServer};
    use bbsim_census::city_by_name;
    use bbsim_isp::{CityWorld, Isp};
    use std::sync::Arc;

    #[test]
    fn strawman_is_blocked_by_modern_safeguards() {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        let mut t = Transport::new(21);
        let server = BatServer::new(Isp::CenturyLink, world.clone());
        t.register("cl", server.endpoint());

        let lines: Vec<String> = world
            .addresses()
            .records()
            .iter()
            .take(100)
            .map(|r| r.listing_line.clone())
            .collect();
        let src = SimIp(0x6440_0101);
        let (records, metrics) = run_strawman(
            &mut t,
            "cl",
            templates::dialect_of(Isp::CenturyLink),
            &lines,
            src,
        );

        assert_eq!(records.len(), 100);
        // The shared cookie exceeds its budget almost immediately; the
        // strawman's hit rate collapses far below BQT's >80%.
        assert!(metrics.hit_rate() < 0.3, "hit rate {}", metrics.hit_rate());
        assert!(metrics.blocked > 50, "blocked {}", metrics.blocked);
    }
}
