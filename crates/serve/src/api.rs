//! The request-facing API surface: typed queries, answers, and the
//! batch-capable request/response envelopes, with a JSONL-stable wire
//! form that round-trips through [`bbsim_net::http`] and the frame codec.
//!
//! Every query kind is one [`ServeQuery`] variant; every reply is one
//! [`ServeAnswer`] variant. The wire form is a single line of JSON-lite
//! per query or answer, in the dialect `events.jsonl` uses, and through
//! the same codec: [`bqt::telemetry::jsonl`]'s `LineWriter` writes each
//! line, escaping strings, and its strict `Fields` cursor reads it back,
//! keys in order, so any city round-trips. Each enum is declared once, in
//! a `wire_schema!` invocation that generates its wire names, line writer
//! and parser from the variant list, so a new variant travels the wire by
//! construction. Only the store's `answer` dispatch is written by hand,
//! and divide-lint's E1 rule keeps it exhaustive.

use bbsim_isp::Isp;
use bbsim_net::{Method, Request, Response};
use bqt::telemetry::jsonl::{push_f64, Fields, LineWriter, ParseError, Wire};
use bqt::ScrapedPlan;
use std::fmt::{self, Write};

/// Declares one serve wire enum once. The header names what the enum's
/// lines carry (for errors) and the key of their kind field; each
/// variant lists its fields and its wire name. From that the macro
/// generates the enum, `wire_name`, the line writer `push_line` and the
/// parser `read_line`. A line is `{"<key>":"<wire name>"`, then
/// `,"<field>":<value>` per field in declaration order, then `}`. Each
/// value goes through its type's shared [`Wire`] impl or, for the
/// serve-only types, its [`ServeWire`] impl: the two traits name their
/// methods alike, so `.write` and `<$ty>::read` find whichever one the
/// type implements.
macro_rules! wire_schema {
    (
        $(#[$meta:meta])*
        pub enum $name:ident: $kind:ident $key:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $({ $( $field:ident: $ty:ty, )* })? = $wire:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $variant $({ $( $field: $ty, )* })?, )*
        }

        impl $name {
            /// Stable wire discriminant for the variant.
            pub fn wire_name(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $wire, )*
                }
            }

            /// Appends the single-line wire form to `out`.
            fn push_line(&self, out: &mut String) {
                let mut w = LineWriter::open(out);
                match self {
                    $( $name::$variant { $($( $field, )*)? } => {
                        w.str($key, $wire);
                        $($( $field.write(&mut w, stringify!($field)); )*)?
                    } )*
                }
                w.finish();
            }

            /// Parses one line: the kind, then each field in order.
            fn read_line(line: &str) -> Result<Self, WireError> {
                let mut f = Fields::open(line)?;
                let value = match &*f.str($key)? {
                    $( $wire => $name::$variant { $($(
                        $field: <$ty>::read(&mut f, stringify!($field))?,
                    )*)? }, )*
                    other => {
                        let kind = stringify!($kind);
                        return Err(wire_err(format!("unknown {kind} kind {other:?}")));
                    }
                };
                f.done()?;
                Ok(value)
            }
        }
    };
}

wire_schema! {
    /// One typed lookup against the plan store.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServeQuery: query "q" {
        /// Plans offered at one address tag of `city` × `isp`.
        Plans { city: String, isp: Isp, tag: u64, } = "plans",
        /// Carriage-value percentiles over one block group of `city` × `isp`.
        BlockGroup { city: String, isp: Isp, bg: u64, } = "block_group",
        /// City-wide competition/diversity tiles (cross-ISP, uncacheable).
        Tiles { city: String, } = "tiles",
    }
}

impl ServeQuery {
    /// Whether the answer may be served from (and stored in) the LRU
    /// answer cache: exactly when the query routes to one shard, whose
    /// cache it then uses. Tile queries aggregate across every shard of
    /// a city, so they bypass the per-shard cache.
    pub fn cacheable(&self) -> bool {
        self.shard_key().is_some()
    }

    /// The shard this query routes to: `(city, isp)` for sharded kinds,
    /// `None` for city-wide tile queries.
    pub fn shard_key(&self) -> Option<(&str, Isp)> {
        match self {
            ServeQuery::Plans { city, isp, .. } => Some((city, *isp)),
            ServeQuery::BlockGroup { city, isp, .. } => Some((city, *isp)),
            ServeQuery::Tiles { .. } => None,
        }
    }

    /// Appends this query's deterministic cache key (also the eviction-log
    /// key) to `out`, so the router can reuse one buffer across lookups:
    /// `plans/{city}/{isp}/{tag}`, `bg/{city}/{isp}/{bg}` or
    /// `tiles/{city}`. The city is written as is, commas included; the
    /// `x-evicted` header escapes them.
    pub(crate) fn push_cache_key(&self, out: &mut String) {
        match self {
            ServeQuery::Plans { city, isp, tag } => {
                let _ = write!(out, "plans/{city}/{}/{tag}", isp.slug());
            }
            ServeQuery::BlockGroup { city, isp, bg } => {
                let _ = write!(out, "bg/{city}/{}/{bg}", isp.slug());
            }
            ServeQuery::Tiles { city } => {
                let _ = write!(out, "tiles/{city}");
            }
        }
    }

    /// The telemetry tag attributed to this query's lookup event.
    pub fn telemetry_tag(&self) -> u64 {
        match self {
            ServeQuery::Plans { tag, .. } => *tag,
            ServeQuery::BlockGroup { bg, .. } => *bg,
            ServeQuery::Tiles { .. } => 0,
        }
    }
}

/// A wire-form defect found while parsing a query or answer line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed serve wire line: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<ParseError> for WireError {
    fn from(e: ParseError) -> Self {
        WireError(e.message)
    }
}

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// The field types whose codec the orphan rule keeps in this crate:
/// neither the shared [`Wire`] trait nor these types are local to it.
trait ServeWire: Sized {
    fn write(&self, w: &mut LineWriter<'_>, key: &str);
    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError>;
}

/// An ISP travels as its slug, matched borrowed.
impl ServeWire for Isp {
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.str(key, self.slug());
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        let slug = f.str(key)?;
        Isp::from_slug(&slug).ok_or_else(|| ParseError::new(format!("unknown isp slug {slug:?}")))
    }
}

/// Plans travel as one string in the dataset's `down/up/price;...`
/// triple format.
impl ServeWire for Vec<ScrapedPlan> {
    fn write(&self, w: &mut LineWriter<'_>, key: &str) {
        w.str_with(key, |out| {
            for (i, p) in self.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                push_f64(out, p.download_mbps);
                out.push('/');
                push_f64(out, p.upload_mbps);
                out.push('/');
                push_f64(out, p.price_usd);
            }
        });
    }

    fn read(f: &mut Fields<'_>, key: &str) -> Result<Self, ParseError> {
        let s = f.str(key)?;
        if s.is_empty() {
            return Ok(Vec::new());
        }
        let mut plans = Vec::with_capacity(1 + s.bytes().filter(|&b| b == b';').count());
        for triple in s.split(';') {
            let mut it = triple.split('/').map(str::parse);
            let (Some(Ok(download_mbps)), Some(Ok(upload_mbps)), Some(Ok(price_usd)), None) =
                (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(ParseError::new(format!("bad plan triple {triple:?}")));
            };
            plans.push(ScrapedPlan {
                download_mbps,
                upload_mbps,
                price_usd,
            });
        }
        Ok(plans)
    }
}

/// Room for one query line with a city name of ordinary length.
const QUERY_LINE_CAPACITY: usize = 96;

/// Serializes one query to its single-line wire form.
pub fn query_to_line(q: &ServeQuery) -> String {
    let mut line = String::with_capacity(QUERY_LINE_CAPACITY);
    q.push_line(&mut line);
    line
}

/// Parses one wire line back to a query; exact inverse of
/// [`query_to_line`]. The kind and ISP slug are matched borrowed; the
/// city is the only string a parse allocates.
pub fn parse_query_line(line: &str) -> Result<ServeQuery, WireError> {
    ServeQuery::read_line(line)
}

wire_schema! {
    /// One typed answer from the plan store.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServeAnswer: answer "a" {
        /// The plans offered at the queried address.
        Plans { plans: Vec<ScrapedPlan>, } = "plans",
        /// The address exists in the store but no plan serves it.
        NoService = "no_service",
        /// Carriage-value percentiles over the queried block group.
        Percentiles { n: u64, p25: f64, p50: f64, p75: f64, p95: f64, } = "percentiles",
        /// City-wide competition/diversity tile summary.
        Tiles {
            block_groups: u64,
            served: u64,
            avg_providers: f64,
            diversity: f64,
        } = "tiles",
        /// The queried key is not in the store at all.
        NotFound = "not_found",
        /// The server refused the lookup under overload.
        Shed = "shed",
    }
}

/// Room for one answer line: the envelope plus a typical triple per
/// plan, so most lines never reallocate.
fn answer_line_capacity(a: &ServeAnswer) -> usize {
    match a {
        ServeAnswer::Plans { plans } => 32 + 20 * plans.len(),
        _ => 128,
    }
}

/// Serializes one answer to its single-line wire form.
pub fn answer_to_line(a: &ServeAnswer) -> String {
    let mut line = String::with_capacity(answer_line_capacity(a));
    a.push_line(&mut line);
    line
}

/// Parses one wire line back to an answer; exact inverse of
/// [`answer_to_line`] (f64 fields use `Display`'s shortest round-trip
/// form, so values survive byte-identically).
pub fn parse_answer_line(line: &str) -> Result<ServeAnswer, WireError> {
    ServeAnswer::read_line(line)
}

/// A request envelope: one query or an ordered batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    Single(ServeQuery),
    Batch(Vec<ServeQuery>),
}

impl ServeRequest {
    /// The queries in envelope order (a single request is a batch of 1).
    pub fn queries(&self) -> &[ServeQuery] {
        match self {
            ServeRequest::Single(q) => std::slice::from_ref(q),
            ServeRequest::Batch(qs) => qs,
        }
    }

    /// Lowers the envelope onto HTTP: `POST /lookup` carries one query
    /// line, `POST /batch` one line per query.
    pub fn to_http(&self) -> Request {
        match self {
            ServeRequest::Single(q) => Request::post("/lookup", query_to_line(q)),
            ServeRequest::Batch(qs) => {
                let mut body = String::with_capacity(QUERY_LINE_CAPACITY * qs.len());
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        body.push('\n');
                    }
                    q.push_line(&mut body);
                }
                Request::post("/batch", body)
            }
        }
    }

    /// Lifts an HTTP request back to the typed envelope.
    pub fn from_http(req: &Request) -> Result<ServeRequest, WireError> {
        if req.method != Method::Post {
            return Err(wire_err("serve endpoints accept POST only"));
        }
        match req.path.as_str() {
            "/lookup" => Ok(ServeRequest::Single(parse_query_line(req.body.trim())?)),
            "/batch" => Ok(ServeRequest::Batch(
                req.body
                    .lines()
                    .map(parse_query_line)
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            other => Err(wire_err(format!("unknown serve path {other:?}"))),
        }
    }
}

/// The response envelope mirroring [`ServeRequest`]: answers arrive in
/// query order, one per query.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    Single(ServeAnswer),
    Batch(Vec<ServeAnswer>),
}

impl ServeResponse {
    /// The answers in envelope order.
    pub fn answers(&self) -> &[ServeAnswer] {
        match self {
            ServeResponse::Single(a) => std::slice::from_ref(a),
            ServeResponse::Batch(answers) => answers,
        }
    }

    /// Lowers the envelope onto an HTTP 200 with one answer line per
    /// query.
    pub fn to_http(&self) -> Response {
        match self {
            ServeResponse::Single(a) => Response::ok(answer_to_line(a)),
            ServeResponse::Batch(answers) => {
                let capacity = answers.iter().map(|a| answer_line_capacity(a) + 1);
                let mut body = String::with_capacity(capacity.sum());
                for (i, a) in answers.iter().enumerate() {
                    if i > 0 {
                        body.push('\n');
                    }
                    a.push_line(&mut body);
                }
                Response::ok(body)
            }
        }
    }

    /// Lifts an HTTP response back to the typed envelope; the request's
    /// shape decides single vs batch.
    pub fn from_http(resp: &Response, batch: bool) -> Result<ServeResponse, WireError> {
        if batch {
            Ok(ServeResponse::Batch(
                resp.body
                    .lines()
                    .map(parse_answer_line)
                    .collect::<Result<Vec<_>, _>>()?,
            ))
        } else {
            Ok(ServeResponse::Single(parse_answer_line(resp.body.trim())?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries() -> Vec<ServeQuery> {
        vec![
            ServeQuery::Plans {
                city: "Billings".into(),
                isp: Isp::CenturyLink,
                tag: 90_210,
            },
            ServeQuery::BlockGroup {
                city: "Fargo".into(),
                isp: Isp::CenturyLink,
                bg: 17,
            },
            ServeQuery::Tiles {
                city: "Billings".into(),
            },
        ]
    }

    fn answers() -> Vec<ServeAnswer> {
        vec![
            ServeAnswer::Plans {
                plans: vec![ScrapedPlan {
                    download_mbps: 940.0,
                    upload_mbps: 880.5,
                    price_usd: 65.0,
                }],
            },
            ServeAnswer::NoService,
            ServeAnswer::Percentiles {
                n: 12,
                p25: 1.25,
                p50: 2.5,
                p75: 4.125,
                p95: 9.75,
            },
            ServeAnswer::Tiles {
                block_groups: 98,
                served: 96,
                avg_providers: 1.75,
                diversity: 0.4375,
            },
            ServeAnswer::NotFound,
            ServeAnswer::Shed,
        ]
    }

    #[test]
    fn query_lines_round_trip() {
        let kinds = [("plans", true), ("block_group", true), ("tiles", false)];
        for (q, (name, cacheable)) in queries().into_iter().zip(kinds) {
            let line = query_to_line(&q);
            assert_eq!(parse_query_line(&line).unwrap(), q, "{line}");
            assert_eq!(q.wire_name(), name);
            assert_eq!(q.cacheable(), cacheable, "{name}");
            assert!(line.starts_with(&format!("{{\"q\":\"{name}\"")), "{line}");
        }
    }

    #[test]
    fn answer_lines_round_trip() {
        for a in answers() {
            let line = answer_to_line(&a);
            assert_eq!(parse_answer_line(&line).unwrap(), a, "{line}");
        }
    }

    #[test]
    fn envelopes_round_trip_through_http_wire() {
        let reqs = vec![
            ServeRequest::Single(queries().remove(0)),
            ServeRequest::Batch(queries()),
        ];
        for req in reqs {
            let http = req.to_http();
            let revived = Request::from_wire(&http.to_wire()).unwrap();
            assert_eq!(ServeRequest::from_http(&revived).unwrap(), req);
        }
        let resp = ServeResponse::Batch(answers());
        let http = resp.to_http();
        let revived = Response::from_wire(&http.to_wire()).unwrap();
        assert_eq!(ServeResponse::from_http(&revived, true).unwrap(), resp);
    }

    fn cache_key(q: &ServeQuery) -> String {
        let mut key = String::new();
        q.push_cache_key(&mut key);
        key
    }

    #[test]
    fn cache_key_writes_the_city_as_is() {
        let q = ServeQuery::Plans {
            city: "Washington, DC".into(),
            isp: Isp::Att,
            tag: 1,
        };
        assert_eq!(cache_key(&q), "plans/Washington, DC/att/1");
    }

    #[test]
    fn cache_keys_are_comma_free_and_unique() {
        let keys: Vec<String> = queries().iter().map(cache_key).collect();
        for k in &keys {
            assert!(!k.contains(','), "{k}");
        }
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_query_line("{\"q\":\"warp\"}").is_err());
        assert!(parse_query_line("{\"q\":\"plans\",\"city\":\"X\"}").is_err());
        assert!(parse_answer_line("{\"a\":\"percentiles\",\"n\":no}").is_err());
    }

    /// Queries whose city holds every character the codec escapes.
    fn escaped_queries() -> Vec<ServeQuery> {
        ["a\"b", "back\\slash", "tab\there", "ctl\u{1}x"]
            .into_iter()
            .flat_map(|city| {
                [
                    ServeQuery::Plans {
                        city: city.into(),
                        isp: Isp::Att,
                        tag: 7,
                    },
                    ServeQuery::Tiles { city: city.into() },
                ]
            })
            .collect()
    }

    #[test]
    fn cities_that_need_escapes_round_trip() {
        for q in escaped_queries() {
            let line = query_to_line(&q);
            assert!(!line.contains('\t') && !line.contains('\u{1}'), "{line}");
            assert_eq!(parse_query_line(&line), Ok(q));
        }
    }

    #[test]
    fn cities_that_need_escapes_round_trip_through_http_wire() {
        let qs = escaped_queries();
        let mut reqs: Vec<ServeRequest> = qs.iter().cloned().map(ServeRequest::Single).collect();
        reqs.push(ServeRequest::Batch(qs));
        for req in reqs {
            let revived = Request::from_wire(&req.to_http().to_wire()).unwrap();
            assert_eq!(ServeRequest::from_http(&revived), Ok(req));
        }
    }

    #[test]
    fn keys_out_of_order_are_rejected() {
        let line = query_to_line(&queries().remove(0));
        assert_eq!(
            line,
            r#"{"q":"plans","city":"Billings","isp":"centurylink","tag":90210}"#
        );
        let swapped = r#"{"q":"plans","isp":"centurylink","city":"Billings","tag":90210}"#;
        assert!(parse_query_line(swapped).is_err());
        let kind_last = r#"{"city":"Billings","q":"tiles"}"#;
        assert!(parse_query_line(kind_last).is_err());
    }

    #[test]
    fn a_quote_inside_a_quoted_value_round_trips() {
        for q in [
            ServeQuery::Plans {
                city: "a\"b".into(),
                isp: Isp::Att,
                tag: 1,
            },
            ServeQuery::Tiles { city: "\"".into() },
        ] {
            assert_eq!(parse_query_line(&query_to_line(&q)), Ok(q));
        }
        let quoted_kind = "{\"q\":\"tiles\"x\",\"city\":\"B\"}";
        assert!(parse_query_line(quoted_kind).is_err());
        assert!(parse_answer_line("{\"a\":\"shed\"x\"}").is_err());
        assert!(parse_answer_line("{\"a\":\"plans\",\"plans\":\"1/2/3\"4\"}").is_err());
        assert!(parse_answer_line("{\"a\":\"plans\",\"plans\":\"1/2/3}").is_err());
        // A value ending the line is still closed by `}`.
        assert_eq!(parse_answer_line("{\"a\":\"shed\"}"), Ok(ServeAnswer::Shed));
    }
}
