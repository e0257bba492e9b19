//! The request-facing API surface: typed queries, answers, and the
//! batch-capable request/response envelopes, with a JSONL-stable wire
//! form that round-trips through [`bbsim_net::http`] and the frame codec.
//!
//! Every query kind is one [`ServeQuery`] variant; every reply is one
//! [`ServeAnswer`] variant. The wire form is a single line of JSON-lite
//! per query or answer (the same restricted dialect `events.jsonl`
//! uses: string values never contain quotes or backslashes, so no
//! escaping pass exists on either side; a parser that meets a quote
//! inside a value rejects the line). Serialization is exhaustive
//! over the enums — adding a variant without extending the wire
//! functions is a compile error here and a lint error in divide-lint's
//! E1 rule, which pins `wire_name`/`cacheable`/`query_to_line`/
//! `parse_query_line` to the variant list.

use bbsim_isp::Isp;
use bbsim_net::{Method, Request, Response};
use bqt::ScrapedPlan;
use std::fmt::{self, Write};

/// One typed lookup against the plan store.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeQuery {
    /// Plans offered at one address tag of `city` × `isp`.
    Plans { city: String, isp: Isp, tag: u64 },
    /// Carriage-value percentiles over one block group of `city` × `isp`.
    BlockGroup { city: String, isp: Isp, bg: u64 },
    /// City-wide competition/diversity tiles (cross-ISP, uncacheable).
    Tiles { city: String },
}

impl ServeQuery {
    /// Stable wire discriminant for the query kind.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ServeQuery::Plans { .. } => "plans",
            ServeQuery::BlockGroup { .. } => "block_group",
            ServeQuery::Tiles { .. } => "tiles",
        }
    }

    /// Whether the answer may be served from (and stored in) the LRU
    /// answer cache. Tile queries aggregate across every shard of a
    /// city, so they bypass the per-shard cache.
    pub fn cacheable(&self) -> bool {
        match self {
            ServeQuery::Plans { .. } => true,
            ServeQuery::BlockGroup { .. } => true,
            ServeQuery::Tiles { .. } => false,
        }
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

    /// Deterministic cache key (also the eviction-log key):
    /// `plans/{city}/{isp}/{tag}`, `bg/{city}/{isp}/{bg}` or
    /// `tiles/{city}`. The city is written as is, commas included; the
    /// `x-evicted` header escapes them.
    pub fn cache_key(&self) -> String {
        let mut key = String::with_capacity(32);
        self.push_cache_key(&mut key);
        key
    }

    /// Appends this query's cache key to `out`, so the router can reuse
    /// one buffer across lookups.
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

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// The rest of `line` after the first `"key":`. Keys are quote-free
/// literals, so a match never overlaps an earlier partial one and the
/// search can resume past it.
fn value_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut from = 0;
    loop {
        let start = from + line.get(from..)?.find(key)?;
        let end = start + key.len();
        if line[..start].ends_with('"') && line[end..].starts_with("\":") {
            return line.get(end + 2..);
        }
        from = end;
    }
}

/// Extracts `"key":<value>` from a JSON-lite line, borrowed; values are
/// either quoted strings (no escapes) or bare tokens terminated by `,`
/// / `}`. A quoted value must end its field: a closing quote followed by
/// anything but `,` or `}` means the value itself held a quote, which
/// the dialect cannot carry, so the line is rejected rather than read
/// as a shorter value.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, WireError> {
    let rest = value_after(line, key).ok_or_else(|| wire_err(format!("missing field {key:?}")))?;
    if let Some(quoted) = rest.strip_prefix('"') {
        let end = quoted
            .find('"')
            .ok_or_else(|| wire_err(format!("unterminated field {key:?}")))?;
        match quoted.as_bytes().get(end + 1) {
            Some(b',' | b'}') => Ok(&quoted[..end]),
            _ => Err(wire_err(format!("stray quote in field {key:?}"))),
        }
    } else {
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| wire_err(format!("unterminated field {key:?}")))?;
        Ok(&rest[..end])
    }
}

fn num_field(line: &str, key: &str) -> Result<u64, WireError> {
    field(line, key)?
        .parse()
        .map_err(|_| wire_err(format!("non-numeric field {key:?}")))
}

fn f64_field(line: &str, key: &str) -> Result<f64, WireError> {
    field(line, key)?
        .parse()
        .map_err(|_| wire_err(format!("non-numeric field {key:?}")))
}

fn isp_field(line: &str) -> Result<Isp, WireError> {
    let slug = field(line, "isp")?;
    Isp::from_slug(slug).ok_or_else(|| wire_err(format!("unknown isp slug {slug:?}")))
}

/// Serializes one query to its single-line wire form.
pub fn query_to_line(q: &ServeQuery) -> String {
    match q {
        ServeQuery::Plans { city, isp, tag } => {
            let mut line = String::with_capacity(64 + city.len());
            let _ = write!(
                line,
                "{{\"q\":\"plans\",\"city\":\"{city}\",\"isp\":\"{}\",\"tag\":{tag}}}",
                isp.slug()
            );
            line
        }
        ServeQuery::BlockGroup { city, isp, bg } => {
            let mut line = String::with_capacity(64 + city.len());
            let _ = write!(
                line,
                "{{\"q\":\"block_group\",\"city\":\"{city}\",\"isp\":\"{}\",\"bg\":{bg}}}",
                isp.slug()
            );
            line
        }
        ServeQuery::Tiles { city } => {
            let mut line = String::with_capacity(24 + city.len());
            let _ = write!(line, "{{\"q\":\"tiles\",\"city\":\"{city}\"}}");
            line
        }
    }
}

/// Parses one wire line back to a query; exact inverse of
/// [`query_to_line`] on every value the serializer emits whose city
/// holds no `"`. The kind and ISP slug are matched borrowed; the city
/// is the only string a parse allocates.
pub fn parse_query_line(line: &str) -> Result<ServeQuery, WireError> {
    match field(line, "q")? {
        "plans" => Ok(ServeQuery::Plans {
            city: field(line, "city")?.to_string(),
            isp: isp_field(line)?,
            tag: num_field(line, "tag")?,
        }),
        "block_group" => Ok(ServeQuery::BlockGroup {
            city: field(line, "city")?.to_string(),
            isp: isp_field(line)?,
            bg: num_field(line, "bg")?,
        }),
        "tiles" => Ok(ServeQuery::Tiles {
            city: field(line, "city")?.to_string(),
        }),
        other => Err(wire_err(format!("unknown query kind {other:?}"))),
    }
}

/// One typed answer from the plan store.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeAnswer {
    /// The plans offered at the queried address.
    Plans { plans: Vec<ScrapedPlan> },
    /// The address exists in the store but no plan serves it.
    NoService,
    /// Carriage-value percentiles over the queried block group.
    Percentiles {
        n: u64,
        p25: f64,
        p50: f64,
        p75: f64,
        p95: f64,
    },
    /// City-wide competition/diversity tile summary.
    Tiles {
        block_groups: u64,
        served: u64,
        avg_providers: f64,
        diversity: f64,
    },
    /// The queried key is not in the store at all.
    NotFound,
    /// The server refused the lookup under overload.
    Shed,
}

fn unpack_plans(s: &str) -> Result<Vec<ScrapedPlan>, WireError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut plans = Vec::with_capacity(1 + s.bytes().filter(|&b| b == b';').count());
    for triple in s.split(';') {
        let mut it = triple.split('/');
        let mut next = || {
            it.next()
                .ok_or_else(|| wire_err(format!("short plan triple {triple:?}")))?
                .parse::<f64>()
                .map_err(|_| wire_err(format!("non-numeric plan triple {triple:?}")))
        };
        plans.push(ScrapedPlan {
            download_mbps: next()?,
            upload_mbps: next()?,
            price_usd: next()?,
        });
    }
    Ok(plans)
}

/// Appends one answer's single-line wire form to `out`. Plans travel in
/// the dataset's `down/up/price;...` triple format.
fn push_answer_line(out: &mut String, a: &ServeAnswer) {
    match a {
        ServeAnswer::Plans { plans } => {
            out.push_str("{\"a\":\"plans\",\"plans\":\"");
            for (i, p) in plans.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                let _ = write!(out, "{}/{}/{}", p.download_mbps, p.upload_mbps, p.price_usd);
            }
            out.push_str("\"}");
        }
        ServeAnswer::NoService => out.push_str("{\"a\":\"no_service\"}"),
        ServeAnswer::Percentiles {
            n,
            p25,
            p50,
            p75,
            p95,
        } => {
            let _ = write!(
                out,
                "{{\"a\":\"percentiles\",\"n\":{n},\"p25\":{p25},\"p50\":{p50},\"p75\":{p75},\"p95\":{p95}}}"
            );
        }
        ServeAnswer::Tiles {
            block_groups,
            served,
            avg_providers,
            diversity,
        } => {
            let _ = write!(
                out,
                "{{\"a\":\"tiles\",\"block_groups\":{block_groups},\"served\":{served},\"avg_providers\":{avg_providers},\"diversity\":{diversity}}}"
            );
        }
        ServeAnswer::NotFound => out.push_str("{\"a\":\"not_found\"}"),
        ServeAnswer::Shed => out.push_str("{\"a\":\"shed\"}"),
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
    push_answer_line(&mut line, a);
    line
}

/// Parses one wire line back to an answer; exact inverse of
/// [`answer_to_line`] (f64 fields use `Display`'s shortest round-trip
/// form, so values survive byte-identically).
pub fn parse_answer_line(line: &str) -> Result<ServeAnswer, WireError> {
    match field(line, "a")? {
        "plans" => Ok(ServeAnswer::Plans {
            plans: unpack_plans(field(line, "plans")?)?,
        }),
        "no_service" => Ok(ServeAnswer::NoService),
        "percentiles" => Ok(ServeAnswer::Percentiles {
            n: num_field(line, "n")?,
            p25: f64_field(line, "p25")?,
            p50: f64_field(line, "p50")?,
            p75: f64_field(line, "p75")?,
            p95: f64_field(line, "p95")?,
        }),
        "tiles" => Ok(ServeAnswer::Tiles {
            block_groups: num_field(line, "block_groups")?,
            served: num_field(line, "served")?,
            avg_providers: f64_field(line, "avg_providers")?,
            diversity: f64_field(line, "diversity")?,
        }),
        "not_found" => Ok(ServeAnswer::NotFound),
        "shed" => Ok(ServeAnswer::Shed),
        other => Err(wire_err(format!("unknown answer kind {other:?}"))),
    }
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
                // Each line comes from `query_to_line`, which holds the
                // exhaustive match divide-lint's E1 pins to it.
                let mut body = String::with_capacity(80 * qs.len());
                for (i, q) in qs.iter().enumerate() {
                    if i > 0 {
                        body.push('\n');
                    }
                    body.push_str(&query_to_line(q));
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
                    push_answer_line(&mut body, a);
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
        for q in queries() {
            let line = query_to_line(&q);
            assert_eq!(parse_query_line(&line).unwrap(), q, "{line}");
            assert!(line.contains(q.wire_name()));
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

    #[test]
    fn cache_key_wraps_the_buffer_writer() {
        let mut buf = String::new();
        for q in queries() {
            buf.clear();
            q.push_cache_key(&mut buf);
            assert_eq!(buf, q.cache_key());
        }
        assert_eq!(
            ServeQuery::Plans {
                city: "Washington, DC".into(),
                isp: Isp::Att,
                tag: 1,
            }
            .cache_key(),
            "plans/Washington, DC/att/1"
        );
    }

    #[test]
    fn cache_keys_are_comma_free_and_unique() {
        let keys: Vec<String> = queries().iter().map(ServeQuery::cache_key).collect();
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

    #[test]
    fn a_quote_inside_a_quoted_value_is_rejected() {
        for q in [
            ServeQuery::Plans {
                city: "a\"b".into(),
                isp: Isp::Att,
                tag: 1,
            },
            ServeQuery::Tiles { city: "\"".into() },
        ] {
            assert!(parse_query_line(&query_to_line(&q)).is_err(), "{q:?}");
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
