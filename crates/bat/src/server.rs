//! The BAT server state machine.
//!
//! One [`BatServer`] instance serves one (ISP, city) deployment over the
//! simulated transport. The workflow mirrors the paper's Fig. 1:
//!
//! ```text
//! POST /locate {address}            -> plans | not-found+suggestions | MDU
//!                                      | existing-customer | no-service
//!                                      | technical difficulty
//! POST /select {choice|action}      -> next step for the chosen address
//! ```
//!
//! Safeguards (§3.2): every `/locate` issues a fresh dynamic session cookie;
//! a cookie presented more than its budget is blocked with HTTP 403, and a
//! source IP exceeding the sliding-window rate limit receives HTTP 429.

use crate::drift::DriftSchedule;
use crate::profile::ServerProfile;
use crate::templates;
use crate::templates::TemplateVersion;
use bbsim_address::abbrev::normalize_into;
use bbsim_address::AddressId;
use bbsim_isp::{CityWorld, Isp};
use bbsim_net::{Exchange, Request, Response, Service, SimDuration, SimIp, SimTime, Status};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Per-session server-side state.
#[derive(Debug, Clone, Default)]
struct Session {
    /// Requests presented with this cookie so far.
    requests: u32,
    /// Address resolved in an earlier step (for `action=new-customer`).
    resolved: Option<AddressId>,
    /// The existing-customer interstitial was already acknowledged.
    interstitial_done: bool,
}

/// The simulated broadband-availability tool of one ISP in one city.
pub struct BatServer {
    isp: Isp,
    world: Arc<CityWorld>,
    profile: ServerProfile,
    sessions: HashMap<String, Session>,
    ip_hits: HashMap<SimIp, VecDeque<SimTime>>,
    next_session: u64,
    /// Count of requests rejected by safeguards (for experiments).
    pub blocked_requests: u64,
    /// Front-end markup generation (a redesign breaks unprepared clients).
    template_version: TemplateVersion,
    /// When set, redesigns deploy themselves on the virtual clock.
    drift: Option<DriftSchedule>,
    /// Scratch for the normalized lookup key, reused across requests.
    key: String,
}

/// Stable salted hash for per-address behaviour draws.
fn addr_draw(isp: Isp, id: AddressId, salt: u64) -> f64 {
    let mut h: u64 = 0x51_7CC1_B727_220A ^ salt ^ ((isp.column() as u64) << 56);
    h ^= id as u64;
    h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    (h % 1_000_000) as f64 / 1_000_000.0
}

impl BatServer {
    /// Builds the BAT for `isp` over a shared city world. Address lookups
    /// go through the world's own index, so construction builds nothing.
    ///
    /// # Panics
    /// Panics if `isp` is not active in the city — a real ISP does not run
    /// an availability site for a city it never entered.
    pub fn new(isp: Isp, world: Arc<CityWorld>) -> Self {
        assert!(
            world.isps().contains(&isp),
            "{isp} is not active in {}",
            world.city().name
        );
        Self {
            isp,
            world,
            profile: ServerProfile::for_isp(isp),
            sessions: HashMap::new(),
            ip_hits: HashMap::new(),
            next_session: 0,
            blocked_requests: 0,
            template_version: TemplateVersion::V1,
            drift: None,
            key: String::new(),
        }
    }

    /// Deploys a front-end redesign: all pages render in the new markup
    /// generation from now on (the §3-limitation scenario).
    pub fn set_template_version(&mut self, version: TemplateVersion) {
        self.template_version = version;
    }

    /// The currently deployed markup generation.
    pub fn template_version(&self) -> TemplateVersion {
        self.template_version
    }

    /// Attaches a drift schedule: each request re-resolves the deployed
    /// generation from the virtual clock, so redesigns land mid-campaign
    /// without anyone calling [`Self::set_template_version`].
    pub fn set_drift_schedule(&mut self, schedule: DriftSchedule) {
        self.drift = Some(schedule);
    }

    pub fn isp(&self) -> Isp {
        self.isp
    }

    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    fn rate_limited(&mut self, peer: SimIp, now: SimTime) -> bool {
        let hits = self.ip_hits.entry(peer).or_default();
        let window_start = SimTime::from_millis(
            now.as_millis()
                .saturating_sub(self.profile.rate_window.as_millis()),
        );
        while hits.front().is_some_and(|&t| t < window_start) {
            hits.pop_front();
        }
        if hits.len() as u32 >= self.profile.rate_limit {
            return true;
        }
        hits.push_back(now);
        false
    }

    fn new_cookie(&mut self) -> String {
        self.next_session += 1;
        // Dynamic, unguessable-looking session id.
        let token = self
            .next_session
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        // `format!("sid={token:016x}")`, without the formatter.
        let mut cookie = String::with_capacity(20);
        cookie.push_str("sid=");
        for shift in (0..16).rev() {
            cookie.push(char::from(
                b"0123456789abcdef"[(token >> (shift * 4)) as usize & 0xf],
            ));
        }
        cookie
    }

    fn body_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
        body.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
    }

    /// Advances the workflow for a resolved address: interstitial, MDU, or
    /// the final plans / no-service page. `input_has_unit` says whether
    /// the normalized input carried a unit designator.
    fn page_for(&self, id: AddressId, input_has_unit: bool, session: &mut Session) -> String {
        let record = self.world.addresses().record(id);

        // Existing-customer interstitial (once per session).
        let existing = addr_draw(self.isp, id, 0xE71) < self.profile.existing_customer_rate;
        if existing && !session.interstitial_done {
            session.resolved = Some(id);
            return templates::render_existing_customer_v(self.isp, self.template_version);
        }

        // Multi-dwelling unit: the building needs a unit choice when the
        // input did not carry one.
        // Its unit lines are written straight into the page.
        if record.is_mdu() && !input_has_unit {
            session.resolved = Some(id);
            let units = record.unit_count();
            return templates::render_mdu_with_v(
                self.isp,
                units as usize,
                units as usize * record.line_len_hint(),
                |i, out| record.push_unit_line(i as u32 + 1, out),
                self.template_version,
            );
        }

        session.resolved = Some(id);
        let offered = self.world.plans_at(self.isp, record);
        if offered.plans.is_empty() {
            templates::render_no_service_v(self.isp, self.template_version)
        } else {
            templates::render_plans_v(self.isp, &offered.plans, self.template_version)
        }
    }

    /// Resolves an input line to a page, covering the hard-failure, unknown
    /// address and not-found branches.
    ///
    /// The line is normalized once, into the server's reused key buffer;
    /// the index lookup and the MDU check both read that one result.
    fn resolve_line(&mut self, line: &str, session: &mut Session) -> String {
        normalize_into(line, &mut self.key);
        let input_has_unit = self.key.contains(" apt ");
        let found = self
            .world
            .addresses()
            .index()
            .lookup_normalized_allowing_unit(&mut self.key);
        match found {
            Some(id) => {
                if addr_draw(self.isp, id, 0xBAD) < self.profile.hard_failure_rate {
                    return templates::render_technical_difficulty_v(
                        self.isp,
                        self.template_version,
                    );
                }
                if addr_draw(self.isp, id, 0x0FF) < self.profile.unknown_address_rate {
                    // The ISP's own database is missing this address: show
                    // not-found with whatever neighbours it does know.
                    let suggestions = self.suggestions_for(line, Some(id));
                    return templates::render_not_found_v(
                        self.isp,
                        &suggestions,
                        self.template_version,
                    );
                }
                self.page_for(id, input_has_unit, session)
            }
            None => {
                let suggestions = self.suggestions_for(line, None);
                templates::render_not_found_v(self.isp, &suggestions, self.template_version)
            }
        }
    }

    /// Builds the suggestion list for a failed lookup, excluding `omit`
    /// (the unknown-address case hides the true record).
    fn suggestions_for(&self, line: &str, omit: Option<AddressId>) -> Vec<String> {
        let addresses = self.world.addresses();
        addresses
            .index()
            .suggestion_candidates(line)
            .iter()
            .copied()
            .filter(|&id| Some(id) != omit)
            .take(5)
            .map(|id| addresses.record(id).canonical_line())
            .collect()
    }
}

impl Service for BatServer {
    fn handle(&mut self, peer: SimIp, req: &Request, now: SimTime, rng: &mut StdRng) -> Exchange {
        // A scheduled redesign deploys the instant the clock reaches it.
        if let Some(schedule) = &self.drift {
            self.template_version = schedule.version_at(now);
        }

        // Safeguard 1: per-IP rate limiting.
        if self.rate_limited(peer, now) {
            self.blocked_requests += 1;
            return Exchange {
                response: Response::new(Status::TooManyRequests),
                processing: SimDuration::from_millis(200),
            };
        }

        // Transient back-end failure.
        if rng.gen_bool(self.profile.transient_failure_rate) {
            return Exchange {
                response: Response::new(Status::ServerError),
                processing: self.profile.step_latency.sample(rng),
            };
        }

        let processing = self.profile.step_latency.sample(rng);

        match (req.method, req.path.as_str()) {
            (bbsim_net::Method::Post, "/locate") => {
                let Some(line) = Self::body_field(&req.body, "address") else {
                    return Exchange {
                        response: Response::new(Status::BadRequest),
                        processing: SimDuration::from_millis(200),
                    };
                };
                let cookie = self.new_cookie();
                let mut session = Session {
                    requests: 1,
                    ..Session::default()
                };
                let page = self.resolve_line(line, &mut session);
                self.sessions.insert(cookie.clone(), session);
                Exchange {
                    response: Response::ok(page).with_set_cookie(cookie),
                    processing,
                }
            }
            (bbsim_net::Method::Post, "/select") => {
                let Some(cookie) = req.cookie() else {
                    return Exchange {
                        response: Response::new(Status::Forbidden),
                        processing: SimDuration::from_millis(200),
                    };
                };
                // The removed entry's own key is re-inserted below, so the
                // cookie is not copied.
                let Some((cookie, mut session)) = self.sessions.remove_entry(cookie) else {
                    self.blocked_requests += 1;
                    return Exchange {
                        response: Response::new(Status::Forbidden),
                        processing: SimDuration::from_millis(200),
                    };
                };
                session.requests += 1;
                // Safeguard 2: cookie reuse budget.
                if session.requests > self.profile.cookie_budget {
                    self.blocked_requests += 1;
                    return Exchange {
                        response: Response::new(Status::Forbidden),
                        processing: SimDuration::from_millis(200),
                    };
                }

                let page = if Self::body_field(&req.body, "action") == Some("new-customer") {
                    match session.resolved {
                        Some(id) => {
                            session.interstitial_done = true;
                            // A record's canonical line carries no unit.
                            self.page_for(id, false, &mut session)
                        }
                        None => {
                            return Exchange {
                                response: Response::new(Status::BadRequest),
                                processing: SimDuration::from_millis(200),
                            }
                        }
                    }
                } else if let Some(choice) = Self::body_field(&req.body, "choice") {
                    self.resolve_line(choice, &mut session)
                } else {
                    return Exchange {
                        response: Response::new(Status::BadRequest),
                        processing: SimDuration::from_millis(200),
                    };
                };
                self.sessions.insert(cookie, session);
                Exchange {
                    response: Response::ok(page),
                    processing,
                }
            }
            _ => Exchange {
                response: Response::new(Status::NotFound),
                processing: SimDuration::from_millis(200),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbsim_census::city_by_name;
    use rand::SeedableRng;

    fn server() -> BatServer {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        BatServer::new(Isp::CenturyLink, world)
    }

    fn ip(n: u32) -> SimIp {
        SimIp(u32::from_be_bytes([100, 64, 0, 0]) + n)
    }

    fn locate(server: &mut BatServer, line: &str, peer: SimIp, now_s: u64) -> Response {
        let req = Request::post("/locate", format!("address={line}"));
        let mut rng = StdRng::seed_from_u64(1);
        server
            .handle(peer, &req, SimTime::from_millis(now_s * 1000), &mut rng)
            .response
    }

    #[test]
    fn cookies_spell_the_token_as_format_does() {
        let mut s = server();
        for _ in 0..1000 {
            let cookie = s.new_cookie();
            let token = s
                .next_session
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            assert_eq!(cookie, format!("sid={token:016x}"));
        }
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn rejects_isp_not_in_city() {
        let world = Arc::new(CityWorld::build(city_by_name("Billings").unwrap()));
        BatServer::new(Isp::Cox, world);
    }

    #[test]
    fn canonical_address_reaches_a_terminal_or_interstitial_page() {
        let mut s = server();
        let world = s.world.clone();
        let mut terminal = 0;
        for (i, r) in world.addresses().records().iter().take(50).enumerate() {
            let resp = locate(&mut s, &r.canonical_line(), ip(i as u32), i as u64 * 120);
            assert_eq!(resp.status, Status::Ok);
            assert!(resp.set_cookie().is_some(), "locate issues a cookie");
            let known_marker = [
                "availability-results",
                "class=\"offers\"",
                "class=\"packages\"",
                "mdu-prompt",
                "existing-customer",
                "no-service",
                "class=\"oops\"",
                "address-error",
            ]
            .iter()
            .any(|m| resp.body.contains(m));
            assert!(
                known_marker,
                "unrecognized page: {}",
                &resp.body[..200.min(resp.body.len())]
            );
            if resp.body.contains("offers") {
                terminal += 1;
            }
        }
        assert!(terminal > 0, "some addresses reach plans directly");
    }

    #[test]
    fn typoed_address_gets_suggestions_containing_truth() {
        let mut s = server();
        let world = s.world.clone();
        let r = world
            .addresses()
            .records()
            .iter()
            .find(|r| r.canonical().street_name.len() > 4)
            .unwrap();
        let name = r.canonical().street_name;
        let line = r
            .canonical_line()
            .replace(&*name, &format!("{}x", &name[1..]));
        let resp = locate(&mut s, &line, ip(0), 0);
        assert!(resp.body.contains("address-error"), "{}", &resp.body[..120]);
        assert!(
            resp.body.contains(&r.canonical_line()),
            "suggestions should contain the true address"
        );
    }

    #[test]
    fn select_with_suggestion_resolves() {
        let mut s = server();
        let world = s.world.clone();
        let r = world
            .addresses()
            .records()
            .iter()
            .find(|r| !r.is_mdu())
            .unwrap();
        // First a failed locate to get a cookie.
        let bogus = format!("9999 Zzyzx Way, Billings, MT {:05}", r.canonical().zip);
        let resp = locate(&mut s, &bogus, ip(0), 0);
        let cookie = resp.set_cookie().unwrap().to_string();
        // Now select the true canonical line.
        let req =
            Request::post("/select", format!("choice={}", r.canonical_line())).with_cookie(cookie);
        let mut rng = StdRng::seed_from_u64(2);
        let out = s
            .handle(ip(0), &req, SimTime::from_millis(5000), &mut rng)
            .response;
        assert_eq!(out.status, Status::Ok);
        assert!(!out.body.contains("address-error"));
    }

    #[test]
    fn existing_customer_interstitial_yields_to_new_customer_action() {
        let mut s = server();
        let world = s.world.clone();
        // Find an address that triggers the interstitial.
        let target = world
            .addresses()
            .records()
            .iter()
            .find(|r| {
                addr_draw(Isp::CenturyLink, r.id, 0xE71) < s.profile.existing_customer_rate
                    && addr_draw(Isp::CenturyLink, r.id, 0xBAD) >= s.profile.hard_failure_rate
                    && addr_draw(Isp::CenturyLink, r.id, 0x0FF) >= s.profile.unknown_address_rate
            })
            .expect("some existing-customer address");
        let resp = locate(&mut s, &target.canonical_line(), ip(0), 0);
        assert!(
            resp.body.contains("existing-customer"),
            "{}",
            &resp.body[..120]
        );
        let cookie = resp.set_cookie().unwrap().to_string();
        let req = Request::post("/select", "action=new-customer").with_cookie(cookie);
        let mut rng = StdRng::seed_from_u64(3);
        let out = s
            .handle(ip(0), &req, SimTime::from_millis(9000), &mut rng)
            .response;
        assert!(
            !out.body.contains("existing-customer"),
            "interstitial must not repeat"
        );
    }

    #[test]
    fn mdu_flow_lists_units_then_resolves_choice() {
        let mut s = server();
        let world = s.world.clone();
        let mdu = world
            .addresses()
            .records()
            .iter()
            .find(|r| {
                r.is_mdu()
                    && addr_draw(Isp::CenturyLink, r.id, 0xE71) >= s.profile.existing_customer_rate
                    && addr_draw(Isp::CenturyLink, r.id, 0xBAD) >= s.profile.hard_failure_rate
                    && addr_draw(Isp::CenturyLink, r.id, 0x0FF) >= s.profile.unknown_address_rate
            })
            .expect("some clean MDU");
        let resp = locate(&mut s, &mdu.canonical_line(), ip(0), 0);
        assert!(resp.body.contains("mdu-prompt"), "{}", &resp.body[..150]);
        assert!(resp.body.contains("Apt 1"));
        let cookie = resp.set_cookie().unwrap().to_string();
        let mut unit_line = mdu.canonical();
        unit_line.unit = Some("1".to_string());
        let req = Request::post("/select", format!("choice={}", unit_line.canonical_line()))
            .with_cookie(cookie);
        let mut rng = StdRng::seed_from_u64(4);
        let out = s
            .handle(ip(0), &req, SimTime::from_millis(9000), &mut rng)
            .response;
        assert!(
            !out.body.contains("mdu-prompt"),
            "unit choice resolves the MDU"
        );
    }

    #[test]
    fn per_ip_rate_limit_triggers_429() {
        let mut s = server();
        let world = s.world.clone();
        let line = world.addresses().records()[0].canonical_line();
        let mut saw_429 = false;
        for i in 0..50 {
            let req = Request::post("/locate", format!("address={line}"));
            let mut rng = StdRng::seed_from_u64(i);
            // All requests from one IP within one window.
            let resp = s
                .handle(ip(0), &req, SimTime::from_millis(i * 100), &mut rng)
                .response;
            if resp.status == Status::TooManyRequests {
                saw_429 = true;
            }
        }
        assert!(saw_429);
        assert!(s.blocked_requests > 0);
    }

    #[test]
    fn rate_limit_window_slides() {
        let mut s = server();
        let world = s.world.clone();
        let line = world.addresses().records()[0].canonical_line();
        // Spread requests at 3s apart: 20 per minute < limit of 30.
        for i in 0..60u64 {
            let req = Request::post("/locate", format!("address={line}"));
            let mut rng = StdRng::seed_from_u64(i);
            let resp = s
                .handle(ip(0), &req, SimTime::from_millis(i * 3000), &mut rng)
                .response;
            assert_ne!(resp.status, Status::TooManyRequests, "request {i}");
        }
    }

    #[test]
    fn cookie_budget_blocks_reuse() {
        let mut s = server();
        let world = s.world.clone();
        let line = world.addresses().records()[0].canonical_line();
        let resp = locate(&mut s, &line, ip(1), 0);
        let cookie = resp.set_cookie().unwrap().to_string();
        let mut blocked = false;
        for i in 0..20u64 {
            let req =
                Request::post("/select", format!("choice={line}")).with_cookie(cookie.clone());
            let mut rng = StdRng::seed_from_u64(i + 10);
            let resp = s
                .handle(
                    ip(1),
                    &req,
                    SimTime::from_millis(120_000 + i * 5000),
                    &mut rng,
                )
                .response;
            if resp.status == Status::Forbidden {
                blocked = true;
                break;
            }
        }
        assert!(blocked, "cookie reuse past the budget must be blocked");
    }

    #[test]
    fn unknown_cookie_is_forbidden() {
        let mut s = server();
        let req = Request::post("/select", "choice=x").with_cookie("sid=forged");
        let mut rng = StdRng::seed_from_u64(0);
        let resp = s.handle(ip(2), &req, SimTime::ZERO, &mut rng).response;
        assert_eq!(resp.status, Status::Forbidden);
    }

    #[test]
    fn malformed_requests_get_400_or_404() {
        let mut s = server();
        // Routing is what's under test: disable transient 500s so the
        // outcome doesn't depend on the RNG stream for this seed.
        s.profile.transient_failure_rate = 0.0;
        let mut rng = StdRng::seed_from_u64(0);
        let r1 = s
            .handle(
                ip(3),
                &Request::post("/locate", "nonsense"),
                SimTime::ZERO,
                &mut rng,
            )
            .response;
        assert_eq!(r1.status, Status::BadRequest);
        let r2 = s
            .handle(ip(4), &Request::get("/whatever"), SimTime::ZERO, &mut rng)
            .response;
        assert_eq!(r2.status, Status::NotFound);
    }

    #[test]
    fn drift_schedule_redeploys_on_the_virtual_clock() {
        let mut s = server();
        s.profile.transient_failure_rate = 0.0;
        s.set_drift_schedule(DriftSchedule::flip_at(
            SimTime::from_millis(300_000),
            TemplateVersion::V2,
        ));
        let world = s.world.clone();
        let line = world.addresses().records()[0].canonical_line();
        let before = locate(&mut s, &line, ip(0), 0);
        assert_eq!(s.template_version(), TemplateVersion::V1);
        let after = locate(&mut s, &line, ip(1), 400);
        assert_eq!(s.template_version(), TemplateVersion::V2);
        assert_ne!(before.body, after.body, "redesign changes the markup");
    }

    #[test]
    fn hard_failed_addresses_always_fail() {
        let mut s = server();
        let world = s.world.clone();
        let victim = world
            .addresses()
            .records()
            .iter()
            .find(|r| addr_draw(Isp::CenturyLink, r.id, 0xBAD) < s.profile.hard_failure_rate)
            .expect("some hard-failing address");
        for attempt in 0..3 {
            let resp = locate(
                &mut s,
                &victim.canonical_line(),
                ip(10 + attempt),
                attempt as u64 * 100,
            );
            assert!(resp.body.contains("class=\"oops\""), "attempt {attempt}");
        }
    }
}
