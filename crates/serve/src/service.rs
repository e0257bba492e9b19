//! The transport-facing adapter: a [`PlanService`] wraps one shard's
//! [`Router`] behind [`bbsim_net::Service`], so serve traffic rides the
//! same hermetic simulated network as the scraping campaigns.
//!
//! Cache observability crosses the wire in response headers instead of
//! shared state: `x-cache` carries one `h`/`m` flag per answered query
//! (envelope order) and `x-evicted` the comma-joined cache keys evicted
//! while answering, each with `%`, `,` and ASCII control characters
//! percent-escaped so any key the cache can hold round-trips exactly. The engine parses both to emit `ServeLookupEnd` and
//! `CacheEvicted` telemetry without reaching into the service.

use crate::api::{ServeRequest, WireError};
use crate::router::Router;
use crate::store::PlanStore;
use bbsim_net::{Exchange, Request, Response, Service, SimDuration, SimIp, SimTime, Status};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write;
use std::sync::Arc;

/// Response header carrying per-query cache flags (`h,m,...`).
pub const CACHE_HEADER: &str = "x-cache";
/// Response header carrying evicted cache keys (comma-joined, escaped).
pub const EVICTED_HEADER: &str = "x-evicted";

/// Virtual processing costs of one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCosts {
    /// Per-query cost when the answer cache hits.
    pub hit_ms: u64,
    /// Per-query cost when the indices must be walked.
    pub miss_ms: u64,
    /// Upper bound of the per-miss jitter drawn from the hermetic
    /// transport RNG (0 = deterministic cost).
    pub miss_jitter_ms: u64,
}

impl ServeCosts {
    pub fn paper_default() -> Self {
        Self {
            hit_ms: 1,
            miss_ms: 6,
            miss_jitter_ms: 2,
        }
    }
}

/// One shard's serving stack: router + cost model, mounted on a
/// transport endpoint.
#[derive(Debug)]
pub struct PlanService {
    router: Router,
    costs: ServeCosts,
}

impl PlanService {
    pub fn new(store: Arc<PlanStore>, cache_capacity: usize, costs: ServeCosts) -> Self {
        Self {
            router: Router::new(store, cache_capacity),
            costs,
        }
    }

    fn answer(&mut self, req: &Request, rng: &mut StdRng) -> (Response, SimDuration) {
        let request = match ServeRequest::from_http(req) {
            Ok(r) => r,
            Err(WireError(msg)) => {
                let mut resp = Response::ok(msg);
                resp.status = Status::BadRequest;
                return (resp, SimDuration::from_millis(1));
            }
        };
        let (response, hits) = self.router.handle(&request);
        let mut processing = 0u64;
        let mut flags = String::with_capacity(2 * hits.len());
        for &hit in &hits {
            processing += if hit {
                self.costs.hit_ms
            } else {
                self.costs.miss_ms + rng.gen_range(0..=self.costs.miss_jitter_ms)
            };
            if !flags.is_empty() {
                flags.push(',');
            }
            flags.push(if hit { 'h' } else { 'm' });
        }
        let mut http = response.to_http().with_header(CACHE_HEADER, flags);
        let evicted = self.router.drain_evicted();
        if !evicted.is_empty() {
            let mut value = String::with_capacity(evicted.iter().map(|k| k.len() + 1).sum());
            for key in &evicted {
                if !value.is_empty() {
                    value.push(',');
                }
                push_escaped_key(&mut value, key);
            }
            http = http.with_header(EVICTED_HEADER, value);
        }
        (http, SimDuration::from_millis(processing))
    }
}

impl Service for PlanService {
    fn handle(&mut self, _peer: SimIp, req: &Request, _now: SimTime, rng: &mut StdRng) -> Exchange {
        let (response, processing) = self.answer(req, rng);
        Exchange {
            response,
            processing,
        }
    }
}

/// Appends `key` to an `x-evicted` value. `%`, the `,` separator and
/// ASCII control characters (which the HTTP framing would split on)
/// become `%XX`; every other character is written as is.
fn push_escaped_key(out: &mut String, key: &str) {
    for c in key.chars() {
        if c == '%' || c == ',' || c.is_ascii_control() {
            let _ = write!(out, "%{:02X}", u32::from(c));
        } else {
            out.push(c);
        }
    }
}

/// Inverse of [`push_escaped_key`]. A `%` not followed by two hex
/// digits naming an ASCII byte is kept literally.
fn unescape_key(escaped: &str) -> String {
    let mut key = String::with_capacity(escaped.len());
    let mut rest = escaped;
    while let Some(at) = rest.find('%') {
        key.push_str(&rest[..at]);
        let byte = rest
            .get(at + 1..at + 3)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u8::from_str_radix(hex, 16).ok())
            .filter(u8::is_ascii);
        match byte {
            Some(b) => {
                key.push(char::from(b));
                rest = &rest[at + 3..];
            }
            None => {
                key.push('%');
                rest = &rest[at + 1..];
            }
        }
    }
    key.push_str(rest);
    key
}

/// The `x-cache` flags read in place, in envelope order (none when the
/// header is absent, e.g. on an error response).
pub(crate) fn cache_flag_iter(resp: &Response) -> impl Iterator<Item = bool> + '_ {
    resp.header(CACHE_HEADER)
        .into_iter()
        .flat_map(|v| v.split(','))
        .map(|f| f == "h")
}

/// The `x-evicted` keys, unescaped, in eviction order.
pub(crate) fn evicted_key_iter(resp: &Response) -> impl Iterator<Item = String> + '_ {
    resp.header(EVICTED_HEADER)
        .into_iter()
        .flat_map(|v| v.split(','))
        .map(unescape_key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ServeAnswer, ServeQuery, ServeResponse};
    use bbsim_isp::Isp;
    use bbsim_net::{Endpoint, LatencyModel, Transport};

    fn cache_flags(resp: &Response) -> Vec<bool> {
        cache_flag_iter(resp).collect()
    }

    /// A capacity-1 service over an empty store behind a hermetic
    /// transport, so every response crosses the real HTTP framing.
    fn transport() -> Transport {
        let mut transport = Transport::hermetic(7);
        let service = PlanService::new(
            Arc::new(PlanStore::load(&[])),
            1,
            ServeCosts::paper_default(),
        );
        transport.register(
            "serve",
            Endpoint::new(
                Box::new(service),
                LatencyModel::constant(SimDuration::from_millis(1)),
            ),
        );
        transport
    }

    fn lookup(transport: &mut Transport, query: ServeQuery) -> Response {
        let request = ServeRequest::Single(query).to_http();
        transport
            .round_trip("serve", SimIp(1), &request, SimTime::ZERO)
            .expect("registered endpoint")
            .0
    }

    #[test]
    fn every_evicted_key_round_trips_the_header() {
        let cities = [
            "Washington, DC",
            "100% Fiber",
            "a%2Cb",
            "Line\nBreak\r\tTab",
            ",%",
            "Zürich, 中",
        ];
        let mut transport = transport();
        let mut evicted = Vec::new();
        for (tag, city) in cities.iter().enumerate() {
            let resp = lookup(
                &mut transport,
                ServeQuery::Plans {
                    city: city.to_string(),
                    isp: Isp::Att,
                    tag: tag as u64,
                },
            );
            assert_eq!(resp.status, Status::Ok, "{city:?}");
            evicted.extend(evicted_key_iter(&resp));
        }
        let expected: Vec<String> = cities[..cities.len() - 1]
            .iter()
            .enumerate()
            .map(|(tag, city)| format!("plans/{city}/att/{tag}"))
            .collect();
        assert_eq!(evicted, expected);
    }

    #[test]
    fn cache_flags_read_the_header_in_envelope_order() {
        let mut transport = transport();
        let query = ServeQuery::Tiles {
            city: "Nowhere".into(),
        };
        let plans = ServeQuery::Plans {
            city: "Nowhere".into(),
            isp: Isp::Att,
            tag: 3,
        };
        let request = ServeRequest::Batch(vec![plans.clone(), query, plans]).to_http();
        let (resp, _) = transport
            .round_trip("serve", SimIp(1), &request, SimTime::ZERO)
            .expect("registered endpoint");
        assert_eq!(cache_flags(&resp), vec![false, false, true]);
        assert_eq!(
            ServeResponse::from_http(&resp, true).expect("well-formed batch"),
            ServeResponse::Batch(vec![ServeAnswer::NotFound; 3])
        );
        assert!(cache_flags(&Response::new(Status::BadRequest)).is_empty());
    }

    /// A quote in a value is escaped on the wire, so the lookup reaches
    /// the (empty) store like any other; a line the codec rejects is a
    /// bad request.
    #[test]
    fn a_quote_inside_a_value_is_served_and_a_malformed_line_is_a_bad_request() {
        let mut transport = transport();
        let resp = lookup(
            &mut transport,
            ServeQuery::Plans {
                city: "a\"b".into(),
                isp: Isp::Att,
                tag: 1,
            },
        );
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(cache_flags(&resp), vec![false]);
        assert_eq!(
            ServeResponse::from_http(&resp, false),
            Ok(ServeResponse::Single(ServeAnswer::NotFound))
        );

        let extra = Request::post("/lookup", r#"{"q":"tiles","city":"B","extra":1}"#);
        let (resp, _) = transport
            .round_trip("serve", SimIp(1), &extra, SimTime::ZERO)
            .expect("registered endpoint");
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(resp.body, r#"unexpected extra field "extra""#);
        assert!(cache_flags(&resp).is_empty());
        assert!(ServeResponse::from_http(&resp, false).is_err());
    }
}
