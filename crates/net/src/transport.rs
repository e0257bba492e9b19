//! The endpoint registry binding clients to simulated servers.
//!
//! A [`Transport`] owns named [`Endpoint`]s, each pairing a [`Service`]
//! implementation (the server's state machine) with a network latency model.
//! `round_trip` carries a request to the server and its response back,
//! charging request-leg latency, server processing time and response-leg
//! latency on the virtual clock. Every message really is serialized through
//! the framing codec and wire format — the server parses what the client
//! sent, not a shared in-memory object — so protocol bugs surface here, not
//! in production figures.

use crate::clock::{SimDuration, SimTime};
use crate::fault::{FaultAction, FaultPlan};
use crate::frame::FrameCodec;
use crate::http::{Request, Response, Status};
use crate::ip::SimIp;
use crate::latency::LatencyModel;
use crate::mix::{fnv1a, mix64};
use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;

/// What a service returns for one request: the response plus how long the
/// server spent producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    pub response: Response,
    pub processing: SimDuration,
}

/// A simulated server: a deterministic state machine fed parsed requests.
pub trait Service {
    /// Handles one request arriving from `peer` at virtual time `now`.
    ///
    /// `rng` is the transport's seeded stream; services draw processing
    /// times and template randomness from it so runs stay reproducible.
    fn handle(&mut self, peer: SimIp, req: &Request, now: SimTime, rng: &mut StdRng) -> Exchange;
}

/// A registered server endpoint.
pub struct Endpoint {
    service: Box<dyn Service + Send>,
    /// One-way network latency between any client and this endpoint.
    network: LatencyModel,
}

impl Endpoint {
    pub fn new(service: Box<dyn Service + Send>, network: LatencyModel) -> Self {
        Self { service, network }
    }
}

/// Transport-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No endpoint registered under this name.
    UnknownEndpoint(String),
    /// The peer's bytes did not parse as a wire message.
    Garbled(String),
    /// An injected fault swallowed the request; the client waited `after`
    /// of virtual time before giving up.
    Timeout { after: SimDuration },
    /// An injected fault tore the connection down `after` into the
    /// exchange.
    ConnectionReset { after: SimDuration },
    /// An injected fault hung the session forever: no response, no
    /// timeout. The caller's worker is stuck until a watchdog reclaims it,
    /// so no elapsed time can be charged here.
    Stalled,
}

impl TransportError {
    /// Whether a retry could plausibly succeed. Timeouts and resets are
    /// transient network conditions; unknown endpoints and garbled frames
    /// are logic errors that no retry will fix. A stall is not transient
    /// *within* a query — the session is gone and only the orchestrator's
    /// watchdog/requeue machinery recovers the job.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            TransportError::Timeout { .. } | TransportError::ConnectionReset { .. }
        )
    }

    /// Virtual time the client burned before this error surfaced.
    pub fn elapsed(&self) -> SimDuration {
        match self {
            TransportError::Timeout { after } | TransportError::ConnectionReset { after } => *after,
            _ => SimDuration::ZERO,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownEndpoint(n) => write!(f, "no endpoint named {n:?}"),
            TransportError::Garbled(e) => write!(f, "garbled wire message: {e}"),
            TransportError::Timeout { after } => write!(f, "request timed out after {after}"),
            TransportError::ConnectionReset { after } => {
                write!(f, "connection reset after {after}")
            }
            TransportError::Stalled => write!(f, "session stalled indefinitely"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The simulated network: endpoints plus a seeded randomness stream.
pub struct Transport {
    endpoints: HashMap<String, Endpoint>,
    seed: u64,
    rng: StdRng,
    /// Derive each round trip's randomness from `(seed, endpoint, src,
    /// now)` instead of the shared sequential stream. See [`Self::hermetic`].
    hermetic: bool,
    codec: FrameCodec,
    faults: Option<FaultPlan>,
    requests: u64,
}

impl Transport {
    pub fn new(seed: u64) -> Self {
        Self {
            endpoints: HashMap::new(),
            seed,
            rng: StdRng::seed_from_u64(seed),
            hermetic: false,
            codec: FrameCodec,
            faults: None,
            requests: 0,
        }
    }

    /// A transport whose per-request randomness (latency draws, server
    /// processing times, transient-failure rolls) is a pure function of
    /// `(seed, endpoint, source IP, virtual time)` rather than a shared
    /// sequential stream.
    ///
    /// This is the property crash-resume determinism stands on: a resumed
    /// campaign replays completed attempts from the journal without touching
    /// the transport, and hermetic derivation guarantees the remaining live
    /// attempts still observe exactly the draws they would have seen in an
    /// uninterrupted run. (Two requests with identical endpoint, source and
    /// millisecond would share draws; distinct per-attempt source IPs make
    /// that vanishingly rare and harmless — a correlated latency sample.)
    pub fn hermetic(seed: u64) -> Self {
        let mut t = Self::new(seed);
        t.hermetic = true;
        t
    }

    /// Requests carried (or preempted by faults) since construction.
    pub fn requests_sent(&self) -> u64 {
        self.requests
    }

    /// Registers (or replaces) an endpoint under `name`.
    pub fn register(&mut self, name: impl Into<String>, endpoint: Endpoint) {
        self.endpoints.insert(name.into(), endpoint);
    }

    /// Attaches (or replaces) the fault-injection schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Sends `req` from `src` to `endpoint` at virtual time `now`.
    ///
    /// Returns the parsed response and the full round-trip duration
    /// (request leg + server processing + response leg).
    pub fn round_trip(
        &mut self,
        endpoint: &str,
        src: SimIp,
        req: &Request,
        now: SimTime,
    ) -> Result<(Response, SimDuration), TransportError> {
        let ep = self
            .endpoints
            .get_mut(endpoint)
            .ok_or_else(|| TransportError::UnknownEndpoint(endpoint.to_string()))?;
        self.requests += 1;

        // In hermetic mode every draw for this exchange comes from a stream
        // derived from the request's stable coordinates.
        let mut derived;
        let rng: &mut StdRng = if self.hermetic {
            derived = StdRng::seed_from_u64(mix64(
                self.seed,
                &[fnv1a(endpoint.as_bytes()), src.0 as u64, now.as_millis()],
            ));
            &mut derived
        } else {
            &mut self.rng
        };

        // Consult the fault schedule before any work happens: preempting
        // faults never reach the service, so a timed-out request leaves no
        // server-side trace (no session, no rate-limit charge).
        let mut degrade: Option<(f64, bool)> = None;
        if let Some(plan) = &mut self.faults {
            match plan.intercept(endpoint, now) {
                Some(FaultAction::Timeout { after }) => {
                    return Err(TransportError::Timeout { after });
                }
                Some(FaultAction::Stall) => {
                    return Err(TransportError::Stalled);
                }
                Some(FaultAction::Reset { after }) => {
                    return Err(TransportError::ConnectionReset { after });
                }
                Some(FaultAction::SyntheticRateLimit) => {
                    // The anti-bot layer answers from the edge: one network
                    // round trip, no server processing.
                    let leg_out = ep.network.sample(rng);
                    let leg_back = ep.network.sample(rng);
                    return Ok((Response::new(Status::TooManyRequests), leg_out + leg_back));
                }
                Some(FaultAction::Degrade {
                    latency_factor,
                    fail,
                }) => degrade = Some((latency_factor, fail)),
                None => {}
            }
        }

        // Request leg: encode, frame, decode, parse — the server sees only
        // what survived the wire.
        let frame = through_frame(&self.codec, req.to_wire().as_bytes())?;
        let wire =
            std::str::from_utf8(&frame).map_err(|e| TransportError::Garbled(e.to_string()))?;
        let parsed_req =
            Request::from_wire(wire).map_err(|e| TransportError::Garbled(e.to_string()))?;

        let leg_out = ep.network.sample(rng);
        let arrival = now + leg_out;
        let Exchange {
            response,
            processing,
        } = ep.service.handle(src, &parsed_req, arrival, rng);

        // Response leg through the same codec path.
        let rframe = through_frame(&self.codec, response.to_wire().as_bytes())?;
        let rwire =
            std::str::from_utf8(&rframe).map_err(|e| TransportError::Garbled(e.to_string()))?;
        let parsed_resp =
            Response::from_wire(rwire).map_err(|e| TransportError::Garbled(e.to_string()))?;

        let leg_back = ep.network.sample(rng);
        let mut elapsed = leg_out + processing + leg_back;

        // Brownout: the work already happened (and mutated server state),
        // but it happened slowly, and under load some renders die as 500s.
        if let Some((latency_factor, fail)) = degrade {
            elapsed = SimDuration::from_secs_f64(elapsed.as_secs_f64() * latency_factor);
            if fail {
                return Ok((Response::new(Status::ServerError), elapsed));
            }
        }

        Ok((parsed_resp, elapsed))
    }
}

/// Carries `payload` through the framing codec: encode, then decode. A
/// decode error or an incomplete frame is a garbled message.
fn through_frame(codec: &FrameCodec, payload: &[u8]) -> Result<Bytes, TransportError> {
    let mut buf = BytesMut::new();
    codec.encode(payload, &mut buf);
    codec
        .decode(&mut buf)
        .map_err(|e| TransportError::Garbled(e.to_string()))?
        .ok_or_else(|| TransportError::Garbled("incomplete frame".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{Method, Status};

    /// Echoes the request body back, with a fixed processing time.
    struct Echo;

    impl Service for Echo {
        fn handle(
            &mut self,
            peer: SimIp,
            req: &Request,
            _now: SimTime,
            _rng: &mut StdRng,
        ) -> Exchange {
            Exchange {
                response: Response::ok(format!("{} said: {}", peer, req.body)),
                processing: SimDuration::from_millis(100),
            }
        }
    }

    /// Counts requests; used to show server state persists across calls.
    struct Counter(u32);

    impl Service for Counter {
        fn handle(&mut self, _: SimIp, _: &Request, _: SimTime, _: &mut StdRng) -> Exchange {
            self.0 += 1;
            Exchange {
                response: Response::ok(self.0.to_string()),
                processing: SimDuration::ZERO,
            }
        }
    }

    fn client_ip() -> SimIp {
        SimIp(u32::from_be_bytes([100, 64, 0, 1]))
    }

    #[test]
    fn round_trip_delivers_parsed_messages() {
        let mut t = Transport::new(1);
        t.register(
            "att",
            Endpoint::new(
                Box::new(Echo),
                LatencyModel::constant(SimDuration::from_millis(50)),
            ),
        );
        let req = Request::post("/check", "hello");
        let (resp, elapsed) = t
            .round_trip("att", client_ip(), &req, SimTime::ZERO)
            .unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.body, "100.64.0.1 said: hello");
        // 50 out + 100 processing + 50 back.
        assert_eq!(elapsed.as_millis(), 200);
    }

    #[test]
    fn unknown_endpoint_is_an_error() {
        let mut t = Transport::new(1);
        let err = t
            .round_trip("verizon", client_ip(), &Request::get("/"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, TransportError::UnknownEndpoint(_)));
    }

    #[test]
    fn server_state_persists_between_requests() {
        let mut t = Transport::new(2);
        t.register(
            "cox",
            Endpoint::new(
                Box::new(Counter(0)),
                LatencyModel::constant(SimDuration::ZERO),
            ),
        );
        for expect in 1..=3 {
            let (resp, _) = t
                .round_trip("cox", client_ip(), &Request::get("/"), SimTime::ZERO)
                .unwrap();
            assert_eq!(resp.body, expect.to_string());
        }
    }

    #[test]
    fn latency_variance_flows_from_transport_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let mut t = Transport::new(seed);
            t.register(
                "isp",
                Endpoint::new(
                    Box::new(Echo),
                    LatencyModel::new(SimDuration::from_millis(500), 0.5),
                ),
            );
            (0..10)
                .map(|_| {
                    t.round_trip("isp", client_ip(), &Request::get("/"), SimTime::ZERO)
                        .unwrap()
                        .1
                        .as_millis()
                })
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same timings");
        assert_ne!(run(7), run(8), "different seed, different timings");
    }

    #[test]
    fn fault_timeout_preempts_the_service() {
        use crate::fault::FaultPlan;
        let mut t = Transport::new(5);
        t.register(
            "cox",
            Endpoint::new(
                Box::new(Counter(0)),
                LatencyModel::constant(SimDuration::ZERO),
            ),
        );
        t.set_fault_plan(FaultPlan::new(1).lossy_network(
            SimTime::ZERO,
            SimTime::from_millis(10_000),
            1.0,
        ));
        let err = t
            .round_trip("cox", client_ip(), &Request::get("/"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }));
        assert!(err.is_transient());
        assert!(err.elapsed() > SimDuration::ZERO);

        // After the window the very same transport works, and the counter
        // proves the faulted request never reached the server.
        let (resp, _) = t
            .round_trip(
                "cox",
                client_ip(),
                &Request::get("/"),
                SimTime::from_millis(10_000),
            )
            .unwrap();
        assert_eq!(resp.body, "1");
    }

    #[test]
    fn rate_limit_storm_synthesizes_429_at_the_edge() {
        use crate::fault::FaultPlan;
        let mut t = Transport::new(6);
        t.register(
            "cox",
            Endpoint::new(
                Box::new(Counter(0)),
                LatencyModel::constant(SimDuration::from_millis(40)),
            ),
        );
        t.set_fault_plan(FaultPlan::new(2).rate_limit_storm(
            "cox",
            SimTime::ZERO,
            SimTime::from_millis(1000),
        ));
        let (resp, elapsed) = t
            .round_trip("cox", client_ip(), &Request::get("/"), SimTime::ZERO)
            .unwrap();
        assert_eq!(resp.status, Status::TooManyRequests);
        assert_eq!(elapsed.as_millis(), 80, "two legs, no processing");
    }

    #[test]
    fn brownout_stretches_latency_and_can_500() {
        use crate::fault::FaultPlan;
        let clean = {
            let mut t = Transport::new(7);
            t.register(
                "e",
                Endpoint::new(
                    Box::new(Echo),
                    LatencyModel::constant(SimDuration::from_millis(50)),
                ),
            );
            t.round_trip("e", client_ip(), &Request::get("/"), SimTime::ZERO)
                .unwrap()
                .1
        };
        let mut t = Transport::new(7);
        t.register(
            "e",
            Endpoint::new(
                Box::new(Echo),
                LatencyModel::constant(SimDuration::from_millis(50)),
            ),
        );
        t.set_fault_plan(FaultPlan::new(3).brownout(
            "e",
            SimTime::ZERO,
            SimTime::from_millis(1000),
            4.0,
            0.0,
        ));
        let (resp, elapsed) = t
            .round_trip("e", client_ip(), &Request::get("/"), SimTime::ZERO)
            .unwrap();
        assert_eq!(resp.status, Status::Ok, "error_rate 0 never 500s");
        assert_eq!(elapsed.as_millis(), clean.as_millis() * 4);

        // With error_rate 1.0 every browned-out request dies as a 500.
        t.set_fault_plan(FaultPlan::new(4).brownout(
            "e",
            SimTime::ZERO,
            SimTime::from_millis(1000),
            1.0,
            1.0,
        ));
        let (resp, _) = t
            .round_trip("e", client_ip(), &Request::get("/"), SimTime::ZERO)
            .unwrap();
        assert_eq!(resp.status, Status::ServerError);
    }

    #[test]
    fn stall_fault_hangs_without_charging_time() {
        use crate::fault::FaultPlan;
        let mut t = Transport::new(9);
        t.register(
            "e",
            Endpoint::new(
                Box::new(Counter(0)),
                LatencyModel::constant(SimDuration::ZERO),
            ),
        );
        t.set_fault_plan(FaultPlan::new(1).stalls(
            "e",
            SimTime::ZERO,
            SimTime::from_millis(1000),
            1.0,
        ));
        let err = t
            .round_trip("e", client_ip(), &Request::get("/"), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, TransportError::Stalled);
        assert!(!err.is_transient(), "stalls need the watchdog, not a retry");
        assert_eq!(err.elapsed(), SimDuration::ZERO);
        // The hung request never reached the service...
        let (resp, _) = t
            .round_trip(
                "e",
                client_ip(),
                &Request::get("/"),
                SimTime::from_millis(1000),
            )
            .unwrap();
        assert_eq!(resp.body, "1");
        // ...but both exchanges count as carried requests.
        assert_eq!(t.requests_sent(), 2);
    }

    #[test]
    fn hermetic_draws_depend_on_request_coordinates_not_history() {
        let build = || {
            let mut t = Transport::hermetic(11);
            t.register(
                "isp",
                Endpoint::new(
                    Box::new(Echo),
                    LatencyModel::new(SimDuration::from_millis(500), 0.5),
                ),
            );
            t
        };
        // Same coordinates, different amounts of prior traffic: identical.
        let mut a = build();
        let probe = |t: &mut Transport, ms: u64| {
            t.round_trip(
                "isp",
                client_ip(),
                &Request::get("/"),
                SimTime::from_millis(ms),
            )
            .unwrap()
            .1
        };
        let direct = probe(&mut a, 77);
        let mut b = build();
        for ms in 0..50 {
            probe(&mut b, ms);
        }
        assert_eq!(probe(&mut b, 77), direct, "history leaked into the draw");
        // Different instants still vary.
        let mut c = build();
        let samples: Vec<u64> = (0..20)
            .map(|i| probe(&mut c, i * 1000).as_millis())
            .collect();
        let distinct: std::collections::HashSet<_> = samples.iter().collect();
        assert!(
            distinct.len() > 10,
            "hermetic draws degenerate: {samples:?}"
        );
    }

    #[test]
    fn request_method_survives_the_wire() {
        struct AssertPost;
        impl Service for AssertPost {
            fn handle(&mut self, _: SimIp, req: &Request, _: SimTime, _: &mut StdRng) -> Exchange {
                assert_eq!(req.method, Method::Post);
                assert_eq!(req.path, "/submit");
                Exchange {
                    response: Response::new(Status::Ok),
                    processing: SimDuration::ZERO,
                }
            }
        }
        let mut t = Transport::new(3);
        t.register(
            "x",
            Endpoint::new(
                Box::new(AssertPost),
                LatencyModel::constant(SimDuration::ZERO),
            ),
        );
        t.round_trip(
            "x",
            client_ip(),
            &Request::post("/submit", "a=1"),
            SimTime::ZERO,
        )
        .unwrap();
    }
}
