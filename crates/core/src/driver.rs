//! The per-address query workflow: BQT's state machine.
//!
//! One call to [`query_address`] drives a full Fig.-1 interaction for one
//! street address: submit, detect the template, respond, repeat until a
//! terminal page. Timing is accounted in virtual time, including the DOM
//! settle waits, so the caller gets exactly what the paper's Fig. 2b plots:
//! the per-address query resolution time.

use crate::client::{BqtConfig, WaitPolicy};
use crate::scrape::{detect_with, DetectedPage, ScrapedPlan};
use crate::telemetry::{EventKind, EventSink, FaultClass, NullSink};
use bbsim_address::abbrev::extract_zip;
use bbsim_address::matching::best_match;
use bbsim_address::AddressRecord;
use bbsim_bat::Dialect;
use bbsim_net::{Request, SimDuration, SimIp, SimTime, Status, Transport, TransportError};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// One unit of scraping work: an (endpoint, address) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryJob {
    /// Transport endpoint of the target BAT (e.g. `"cox/new-orleans"`).
    pub endpoint: String,
    /// Markup dialect of that ISP's pages.
    pub dialect: Dialect,
    /// The listing line to query (the noisy "Zillow" form).
    pub input_line: String,
    /// Caller correlation tag (e.g. the address id).
    pub tag: u64,
}

impl QueryJob {
    /// The job for one address record: BQT's one query per (address,
    /// ISP) pair. The record's listing line goes in and its address id
    /// comes back as the tag.
    pub fn listing(endpoint: impl Into<String>, dialect: Dialect, record: &AddressRecord) -> Self {
        Self {
            endpoint: endpoint.into(),
            dialect,
            input_line: record.listing_line.clone(),
            tag: u64::from(record.id),
        }
    }
}

/// Terminal result of one address query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Plans extracted (a hit).
    Plans(Vec<ScrapedPlan>),
    /// Authoritative "no service here" (also a hit: the BAT answered).
    NoService,
    /// The address could not be resolved (no acceptable suggestion).
    Unserviceable,
    /// The BAT's safeguards blocked the session (HTTP 403).
    Blocked,
    /// Persistent errors exhausted the retry budget.
    Failed,
    /// The session hung indefinitely (a [`bbsim_net::FaultKind::Stall`]);
    /// only the orchestrator's watchdog can reclaim the worker, so the
    /// duration recorded with this outcome is a lower bound on wall time.
    Stalled,
}

impl QueryOutcome {
    /// Whether this outcome counts toward the paper's hit rate ("addresses
    /// we successfully get a response for").
    pub fn is_hit(&self) -> bool {
        matches!(self, QueryOutcome::Plans(_) | QueryOutcome::NoService)
    }
}

/// The record produced for every queried address.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    pub tag: u64,
    pub outcome: QueryOutcome,
    /// Query resolution time (Fig. 2b's metric), in virtual time.
    pub duration: SimDuration,
    /// Workflow steps taken (pages seen).
    pub steps: u32,
    /// A page failed template detection during this query — the signal the
    /// drift monitor watches for front-end redesigns.
    pub saw_unrecognized_page: bool,
}

/// What the driver plans to send next.
enum NextRequest {
    Locate(String),
    SelectChoice(String),
    SelectAction(&'static str),
}

/// Drives the full workflow for one address starting at virtual `start`.
///
/// The RNG covers BQT's own random choices (MDU unit selection); all server
/// randomness lives in the transport.
pub fn query_address(
    transport: &mut Transport,
    config: &BqtConfig,
    job: &QueryJob,
    src: SimIp,
    start: SimTime,
    rng: &mut StdRng,
) -> QueryRecord {
    let endpoint = Arc::from(job.endpoint.as_str());
    query_address_traced(
        transport,
        config,
        job,
        &endpoint,
        src,
        start,
        rng,
        1,
        &mut NullSink,
    )
}

/// [`query_address`], narrating each transport round trip to `sink` as
/// `page_fetch_begin`/`page_fetch_end` spans plus `fault_injected`
/// instants. `attempt` only labels the emitted events (the orchestrator's
/// attempt counter); it does not affect the workflow. Timing is identical
/// to the untraced path — events observe the clock, never advance it.
/// `endpoint` is `job.endpoint` interned by the caller: every
/// `fault_injected` event shares it instead of copying the name.
#[allow(clippy::too_many_arguments)]
pub fn query_address_traced(
    transport: &mut Transport,
    config: &BqtConfig,
    job: &QueryJob,
    endpoint: &Arc<str>,
    src: SimIp,
    start: SimTime,
    rng: &mut StdRng,
    attempt: u32,
    sink: &mut dyn EventSink,
) -> QueryRecord {
    let mut now = start;
    let mut steps = 0u32;
    let mut fetches = 0u32;
    let mut cookie: Option<String> = None;
    let mut next = NextRequest::Locate(job.input_line.clone());
    let mut suggestion_rounds = 0u32;
    let input_zip = extract_zip(&job.input_line);

    let mut saw_unrecognized_page = false;
    macro_rules! finish {
        ($outcome:expr, $now:expr, $steps:expr) => {
            return QueryRecord {
                tag: job.tag,
                outcome: $outcome,
                duration: $now.since(start),
                steps: $steps,
                saw_unrecognized_page,
            }
        };
    }

    while steps < config.max_steps {
        let req = match &next {
            NextRequest::Locate(line) => Request::post("/locate", format!("address={line}")),
            NextRequest::SelectChoice(choice) => {
                let r = Request::post("/select", format!("choice={choice}"));
                match &cookie {
                    Some(c) => r.with_cookie(c.clone()),
                    None => r,
                }
            }
            NextRequest::SelectAction(action) => {
                let r = Request::post("/select", format!("action={action}"));
                match &cookie {
                    Some(c) => r.with_cookie(c.clone()),
                    None => r,
                }
            }
        };

        // Send, with transient-failure and rate-limit retry handling.
        let mut attempts = 0u32;
        let response = loop {
            let fetch = fetches;
            fetches += 1;
            let fetch_start = now;
            sink.emit(
                now,
                EventKind::PageFetchBegin {
                    tag: job.tag,
                    attempt,
                    fetch,
                },
            );
            macro_rules! fetch_end {
                () => {
                    sink.emit(
                        now,
                        EventKind::PageFetchEnd {
                            tag: job.tag,
                            attempt,
                            fetch,
                            duration_ms: now.since(fetch_start).as_millis(),
                        },
                    )
                };
            }
            let (response, elapsed) = match transport.round_trip(&job.endpoint, src, &req, now) {
                Ok(ok) => ok,
                Err(e) if e.is_transient() => {
                    // Injected timeout or connection reset: the wait on the
                    // dead connection is charged, then the step is retried
                    // like any other transient error.
                    now += e.elapsed();
                    let fault = match &e {
                        TransportError::ConnectionReset { .. } => FaultClass::Reset,
                        _ => FaultClass::Timeout,
                    };
                    sink.emit(
                        now,
                        EventKind::FaultInjected {
                            endpoint: endpoint.clone(),
                            fault,
                        },
                    );
                    fetch_end!();
                    attempts += 1;
                    if attempts > config.transient_retries {
                        finish!(QueryOutcome::Failed, now, steps);
                    }
                    continue;
                }
                Err(TransportError::Stalled) => {
                    // The connection hung with no timeout: no time can be
                    // charged here — the watchdog decides when to give up.
                    sink.emit(
                        now,
                        EventKind::FaultInjected {
                            endpoint: endpoint.clone(),
                            fault: FaultClass::Stall,
                        },
                    );
                    fetch_end!();
                    finish!(QueryOutcome::Stalled, now, steps);
                }
                Err(_) => {
                    fetch_end!();
                    finish!(QueryOutcome::Failed, now, steps);
                }
            };

            // Charge the wait policy for this page load.
            now += charge_wait(config.wait, elapsed);
            fetch_end!();

            match response.status {
                Status::Ok => break response,
                Status::TooManyRequests => {
                    attempts += 1;
                    if attempts > config.transient_retries {
                        finish!(QueryOutcome::Blocked, now, steps);
                    }
                    now += config.rate_limit_backoff;
                }
                Status::Forbidden => finish!(QueryOutcome::Blocked, now, steps),
                _ => {
                    attempts += 1;
                    if attempts > config.transient_retries {
                        finish!(QueryOutcome::Failed, now, steps);
                    }
                }
            }
        };
        steps += 1;
        if let Some(c) = response.set_cookie() {
            cookie = Some(c.to_string());
        }

        match detect_with(config.templates, &response.body, job.dialect) {
            DetectedPage::Plans(plans) => finish!(QueryOutcome::Plans(plans), now, steps),
            DetectedPage::NoService => finish!(QueryOutcome::NoService, now, steps),
            DetectedPage::TechnicalDifficulty => {
                finish!(QueryOutcome::Failed, now, steps)
            }
            DetectedPage::ExistingCustomer => {
                next = NextRequest::SelectAction("new-customer");
            }
            DetectedPage::MultiDwellingUnit(units) => {
                if units.is_empty() {
                    finish!(QueryOutcome::Failed, now, steps);
                }
                // The paper selects a random unit from the refined list.
                let pick = units[rng.gen_range(0..units.len())].clone();
                next = NextRequest::SelectChoice(pick);
            }
            DetectedPage::AddressNotFound(suggestions) => {
                suggestion_rounds += 1;
                if suggestion_rounds > 2 {
                    finish!(QueryOutcome::Unserviceable, now, steps);
                }
                // Offline string matching over the suggestion list, with the
                // zip-code sanity check (§3.3).
                let candidate = best_match(
                    config.measure,
                    &job.input_line,
                    &suggestions,
                    config.match_threshold,
                )
                .map(|(i, _)| suggestions[i].clone())
                .filter(|s| extract_zip(s) == input_zip || input_zip.is_none());
                match candidate {
                    Some(choice) => next = NextRequest::SelectChoice(choice),
                    None => finish!(QueryOutcome::Unserviceable, now, steps),
                }
            }
            DetectedPage::Unrecognized => {
                saw_unrecognized_page = true;
                finish!(QueryOutcome::Failed, now, steps);
            }
        }
    }
    finish!(QueryOutcome::Failed, now, steps)
}

/// Converts a raw page-load duration into the time BQT actually spends on
/// the step under the configured wait policy.
fn charge_wait(wait: WaitPolicy, elapsed: SimDuration) -> SimDuration {
    match wait {
        WaitPolicy::MaxObserved { pause } => {
            // BQT sleeps the full calibrated pause; if the load was even
            // slower, a reload-and-wait cycle is charged on top.
            if elapsed <= pause {
                pause.max(elapsed)
            } else {
                pause + elapsed
            }
        }
        WaitPolicy::Adaptive { poll } => {
            // Poll until ready: round the load time up to the next poll tick.
            let ticks = elapsed.as_millis().div_ceil(poll.as_millis().max(1));
            SimDuration::from_millis(ticks * poll.as_millis().max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_bat::{templates, BatServer};
    use bbsim_census::city_by_name;
    use bbsim_isp::{CityWorld, Isp};
    use bbsim_net::{Endpoint, Exchange, LatencyModel, Response, Service};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn billings_transport() -> (Transport, Arc<CityWorld>) {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        let mut t = Transport::new(42);
        for isp in world.isps() {
            let server = BatServer::new(isp, world.clone());
            t.register(format!("{}/billings", isp.slug()), server.endpoint());
        }
        (t, world)
    }

    fn job_for(line: &str, isp: Isp) -> QueryJob {
        QueryJob {
            endpoint: format!("{}/billings", isp.slug()),
            dialect: templates::dialect_of(isp),
            input_line: line.to_string(),
            tag: 0,
        }
    }

    fn cfg() -> BqtConfig {
        BqtConfig::paper_default(SimDuration::from_secs(60))
    }

    fn src() -> SimIp {
        SimIp(u32::from_be_bytes([100, 64, 9, 9]))
    }

    #[test]
    fn end_to_end_queries_mostly_hit() {
        let (mut t, world) = billings_transport();
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0;
        let mut total = 0;
        let mut now = SimTime::ZERO;
        for r in world.addresses().records().iter().take(120) {
            let job = job_for(&r.listing_line, Isp::CenturyLink);
            let rec = query_address(&mut t, &cfg(), &job, src(), now, &mut rng);
            now = now + rec.duration + SimDuration::from_secs(10);
            total += 1;
            if rec.outcome.is_hit() {
                hits += 1;
            }
            assert!(rec.duration > SimDuration::ZERO);
            assert!(rec.steps >= 1);
        }
        let rate = hits as f64 / total as f64;
        assert!(rate > 0.7, "hit rate {rate}");
    }

    #[test]
    fn scraped_plans_match_ground_truth_when_hit() {
        let (mut t, world) = billings_transport();
        let mut rng = StdRng::seed_from_u64(2);
        let mut now = SimTime::ZERO;
        let mut verified = 0;
        for r in world.addresses().records().iter().take(80) {
            let job = job_for(&r.listing_line, Isp::CenturyLink);
            let rec = query_address(&mut t, &cfg(), &job, src(), now, &mut rng);
            now = now + rec.duration + SimDuration::from_secs(10);
            if let QueryOutcome::Plans(scraped) = rec.outcome {
                let truth = world.plans_at(Isp::CenturyLink, r);
                assert_eq!(scraped.len(), truth.plans.len(), "addr {}", r.id);
                for (s, p) in scraped.iter().zip(&truth.plans) {
                    assert_eq!(s.download_mbps, p.download_mbps);
                    assert_eq!(s.price_usd, p.price_usd);
                }
                verified += 1;
            }
        }
        assert!(verified > 30, "only {verified} verified");
    }

    #[test]
    fn mdu_listing_without_unit_still_resolves() {
        let (mut t, world) = billings_transport();
        let mut rng = StdRng::seed_from_u64(3);
        let mut now = SimTime::ZERO;
        let mdus: Vec<_> = world
            .addresses()
            .records()
            .iter()
            .filter(|r| r.is_mdu())
            .take(30)
            .collect();
        assert!(!mdus.is_empty());
        let mut hits = 0;
        for r in &mdus {
            // Query the canonical building line (no unit) to force the MDU flow.
            let job = job_for(&r.canonical_line(), Isp::CenturyLink);
            let rec = query_address(&mut t, &cfg(), &job, src(), now, &mut rng);
            now = now + rec.duration + SimDuration::from_secs(10);
            if rec.outcome.is_hit() {
                hits += 1;
            }
        }
        assert!(
            hits as f64 / mdus.len() as f64 > 0.6,
            "{hits}/{}",
            mdus.len()
        );
    }

    #[test]
    fn unknown_endpoint_fails_cleanly() {
        let (mut t, _) = billings_transport();
        let mut rng = StdRng::seed_from_u64(4);
        let job = QueryJob {
            endpoint: "nonexistent".to_string(),
            dialect: Dialect::DataAttr,
            input_line: "1 Main St".to_string(),
            tag: 9,
        };
        let rec = query_address(&mut t, &cfg(), &job, src(), SimTime::ZERO, &mut rng);
        assert_eq!(rec.outcome, QueryOutcome::Failed);
        assert_eq!(rec.tag, 9);
    }

    #[test]
    fn garbage_address_is_unserviceable() {
        let (mut t, _) = billings_transport();
        let mut rng = StdRng::seed_from_u64(5);
        let job = job_for("Fhqwhgads, Nowhere, ZZ 00000", Isp::CenturyLink);
        let rec = query_address(&mut t, &cfg(), &job, src(), SimTime::ZERO, &mut rng);
        assert!(
            matches!(
                rec.outcome,
                QueryOutcome::Unserviceable | QueryOutcome::Failed
            ),
            "{:?}",
            rec.outcome
        );
        assert!(!rec.outcome.is_hit());
    }

    #[test]
    fn max_observed_wait_dominates_query_time() {
        // With a calibrated pause P and mostly 1-2 step flows, the median
        // query should take between P and ~3P.
        let (mut t, world) = billings_transport();
        let mut rng = StdRng::seed_from_u64(6);
        let pause = SimDuration::from_secs(40);
        let config = BqtConfig::paper_default(pause);
        let mut durations = Vec::new();
        let mut now = SimTime::ZERO;
        for r in world.addresses().records().iter().take(60) {
            let job = job_for(&r.listing_line, Isp::CenturyLink);
            let rec = query_address(&mut t, &config, &job, src(), now, &mut rng);
            now = now + rec.duration + SimDuration::from_secs(10);
            if rec.outcome.is_hit() {
                durations.push(rec.duration.as_secs_f64());
            }
        }
        durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = durations[durations.len() / 2];
        assert!((40.0..140.0).contains(&median), "median {median}");
    }

    #[test]
    fn adaptive_wait_is_faster_than_max_observed() {
        let run = |config: BqtConfig| {
            let (mut t, world) = billings_transport();
            let mut rng = StdRng::seed_from_u64(7);
            let mut now = SimTime::ZERO;
            let mut total = 0.0;
            let mut n = 0;
            for r in world.addresses().records().iter().take(40) {
                let job = job_for(&r.listing_line, Isp::CenturyLink);
                let rec = query_address(&mut t, &config, &job, src(), now, &mut rng);
                now = now + rec.duration + SimDuration::from_secs(10);
                if rec.outcome.is_hit() {
                    total += rec.duration.as_secs_f64();
                    n += 1;
                }
            }
            total / n as f64
        };
        let slow = run(BqtConfig::paper_default(SimDuration::from_secs(70)));
        let fast = run(BqtConfig::adaptive(SimDuration::from_secs(2)));
        assert!(fast < slow * 0.8, "adaptive {fast} vs max-observed {slow}");
    }

    /// A service that always rate-limits, to exercise the 429 path.
    struct Always429;
    impl Service for Always429 {
        fn handle(&mut self, _: SimIp, _: &Request, _: SimTime, _: &mut StdRng) -> Exchange {
            Exchange {
                response: Response::new(Status::TooManyRequests),
                processing: SimDuration::from_millis(100),
            }
        }
    }

    #[test]
    fn persistent_429_ends_blocked_with_backoff_charged() {
        let mut t = Transport::new(1);
        t.register(
            "throttled",
            Endpoint::new(
                Box::new(Always429),
                LatencyModel::constant(SimDuration::ZERO),
            ),
        );
        let mut rng = StdRng::seed_from_u64(8);
        let config = cfg();
        let job = QueryJob {
            endpoint: "throttled".to_string(),
            dialect: Dialect::DataAttr,
            input_line: "1 Main St".to_string(),
            tag: 0,
        };
        let rec = query_address(&mut t, &config, &job, src(), SimTime::ZERO, &mut rng);
        assert_eq!(rec.outcome, QueryOutcome::Blocked);
        // Two backoffs were charged before giving up.
        assert!(
            rec.duration >= SimDuration::from_secs(60),
            "{}",
            rec.duration
        );
    }

    #[test]
    fn charge_wait_max_observed_covers_slow_loads() {
        let pause = SimDuration::from_secs(30);
        let fast = charge_wait(
            WaitPolicy::MaxObserved { pause },
            SimDuration::from_secs(10),
        );
        assert_eq!(fast, pause);
        let slow = charge_wait(
            WaitPolicy::MaxObserved { pause },
            SimDuration::from_secs(45),
        );
        assert_eq!(slow, SimDuration::from_secs(75), "reload cycle charged");
    }

    #[test]
    fn charge_wait_adaptive_rounds_to_poll_tick() {
        let poll = SimDuration::from_secs(2);
        assert_eq!(
            charge_wait(
                WaitPolicy::Adaptive { poll },
                SimDuration::from_millis(4500)
            ),
            SimDuration::from_secs(6)
        );
        assert_eq!(
            charge_wait(WaitPolicy::Adaptive { poll }, SimDuration::from_secs(2)),
            SimDuration::from_secs(2)
        );
    }
}
