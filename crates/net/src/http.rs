//! HTTP-lite: the request/response message layer spoken between BQT and the
//! simulated BAT servers.
//!
//! A deliberately small subset of HTTP/1.1 — methods, a path, headers
//! (including `Cookie`/`Set-Cookie`), a status line and a body — with a text
//! wire format that round-trips through the framing codec. The BAT servers
//! use cookies exactly the way the paper describes real ISPs doing: dynamic
//! per-session tokens whose reuse across too many requests is a block
//! signal.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Request methods used by the BAT workflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// Response status codes the simulated servers emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    BadRequest,
    Forbidden,
    NotFound,
    TooManyRequests,
    ServerError,
}

impl Status {
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::Forbidden => 403,
            Status::NotFound => 404,
            Status::TooManyRequests => 429,
            Status::ServerError => 500,
        }
    }

    pub fn from_code(code: u16) -> Option<Status> {
        Some(match code {
            200 => Status::Ok,
            400 => Status::BadRequest,
            403 => Status::Forbidden,
            404 => Status::NotFound,
            429 => Status::TooManyRequests,
            500 => Status::ServerError,
            _ => return None,
        })
    }

    pub fn is_success(self) -> bool {
        self == Status::Ok
    }
}

/// Parse failures for the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    MissingStartLine,
    BadStartLine(String),
    BadHeader(String),
    UnknownMethod(String),
    UnknownStatus(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::MissingStartLine => write!(f, "message has no start line"),
            WireError::BadStartLine(l) => write!(f, "malformed start line: {l:?}"),
            WireError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            WireError::UnknownMethod(m) => write!(f, "unknown method: {m:?}"),
            WireError::UnknownStatus(s) => write!(f, "unknown status: {s:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Splits off the first line of `text`: the line itself and, if `text`
/// has more than one line, everything after its `\n`.
fn split_line(text: &str) -> (&str, Option<&str>) {
    match text.split_once('\n') {
        Some((line, rest)) => (line, Some(rest)),
        None => (text, None),
    }
}

/// Parses the header lines after the start line up to the first empty
/// line; the body is everything after that line, verbatim (leading
/// newlines included). A message with no empty line has no body.
fn parse_headers(mut rest: Option<&str>) -> Result<(BTreeMap<String, String>, String), WireError> {
    let mut headers = BTreeMap::new();
    while let Some(text) = rest {
        let (line, next) = split_line(text);
        if line.is_empty() {
            return Ok((headers, next.unwrap_or_default().to_string()));
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| WireError::BadHeader(line.to_string()))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        rest = next;
    }
    Ok((headers, String::new()))
}

/// Serializes a start line (at most `start_len` bytes), the headers and
/// the body into one `String` sized for all of it.
fn write_wire(
    start: fmt::Arguments<'_>,
    start_len: usize,
    headers: &BTreeMap<String, String>,
    body: &str,
) -> String {
    let header_len: usize = headers.iter().map(|(k, v)| k.len() + v.len() + 3).sum();
    let mut s = String::with_capacity(start_len + header_len + 2 + body.len());
    let _ = s.write_fmt(start);
    s.push('\n');
    for (k, v) in headers {
        s.push_str(k);
        s.push_str(": ");
        s.push_str(v);
        s.push('\n');
    }
    s.push('\n');
    s.push_str(body);
    s
}

/// An HTTP-lite request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub method: Method,
    pub path: String,
    headers: BTreeMap<String, String>,
    pub body: String,
}

impl Request {
    pub fn new(method: Method, path: impl Into<String>) -> Self {
        Self {
            method,
            path: path.into(),
            headers: BTreeMap::new(),
            body: String::new(),
        }
    }

    pub fn get(path: impl Into<String>) -> Self {
        Self::new(Method::Get, path)
    }

    pub fn post(path: impl Into<String>, body: impl Into<String>) -> Self {
        let mut r = Self::new(Method::Post, path);
        r.body = body.into();
        r
    }

    /// Sets a header (case-insensitive key), replacing any previous value.
    pub fn with_header(mut self, key: &str, value: impl Into<String>) -> Self {
        self.headers.insert(key.to_ascii_lowercase(), value.into());
        self
    }

    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The session cookie, if any.
    pub fn cookie(&self) -> Option<&str> {
        self.header("cookie")
    }

    pub fn with_cookie(self, value: impl Into<String>) -> Self {
        self.with_header("cookie", value)
    }

    /// Serializes to the text wire format.
    pub fn to_wire(&self) -> String {
        write_wire(
            format_args!("{} {} BQT/1", self.method, self.path),
            self.path.len() + 11,
            &self.headers,
            &self.body,
        )
    }

    /// Parses the text wire format.
    pub fn from_wire(wire: &str) -> Result<Self, WireError> {
        let (start, rest) = split_line(wire);
        let mut parts = start.split_whitespace();
        let method = match parts.next() {
            Some("GET") => Method::Get,
            Some("POST") => Method::Post,
            Some(other) => return Err(WireError::UnknownMethod(other.to_string())),
            None => return Err(WireError::BadStartLine(start.to_string())),
        };
        let path = parts
            .next()
            .ok_or_else(|| WireError::BadStartLine(start.to_string()))?
            .to_string();
        let (headers, body) = parse_headers(rest)?;
        Ok(Request {
            method,
            path,
            headers,
            body,
        })
    }
}

/// An HTTP-lite response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: Status,
    headers: BTreeMap<String, String>,
    pub body: String,
}

impl Response {
    pub fn new(status: Status) -> Self {
        Self {
            status,
            headers: BTreeMap::new(),
            body: String::new(),
        }
    }

    pub fn ok(body: impl Into<String>) -> Self {
        let mut r = Self::new(Status::Ok);
        r.body = body.into();
        r
    }

    pub fn with_header(mut self, key: &str, value: impl Into<String>) -> Self {
        self.headers.insert(key.to_ascii_lowercase(), value.into());
        self
    }

    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .get(&key.to_ascii_lowercase())
            .map(String::as_str)
    }

    /// The `Set-Cookie` value, if the server issued one.
    pub fn set_cookie(&self) -> Option<&str> {
        self.header("set-cookie")
    }

    pub fn with_set_cookie(self, value: impl Into<String>) -> Self {
        self.with_header("set-cookie", value)
    }

    pub fn to_wire(&self) -> String {
        write_wire(
            format_args!("BQT/1 {}", self.status.code()),
            9,
            &self.headers,
            &self.body,
        )
    }

    pub fn from_wire(wire: &str) -> Result<Self, WireError> {
        let (start, rest) = split_line(wire);
        let mut parts = start.split_whitespace();
        match parts.next() {
            Some("BQT/1") => {}
            _ => return Err(WireError::BadStartLine(start.to_string())),
        }
        let code_str = parts
            .next()
            .ok_or_else(|| WireError::BadStartLine(start.to_string()))?;
        let code: u16 = code_str
            .parse()
            .map_err(|_| WireError::UnknownStatus(code_str.to_string()))?;
        let status = Status::from_code(code)
            .ok_or_else(|| WireError::UnknownStatus(code_str.to_string()))?;
        let (headers, body) = parse_headers(rest)?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::post(
            "/check-availability",
            "address=742 Evergreen Ter\nzip=70118",
        )
        .with_header("X-Session", "abc123")
        .with_cookie("sid=deadbeef");
        let parsed = Request::from_wire(&req.to_wire()).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(parsed.cookie(), Some("sid=deadbeef"));
        assert_eq!(parsed.header("x-session"), Some("abc123"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("<html>plans</html>")
            .with_set_cookie("sid=1; HttpOnly")
            .with_header("X-Template", "plans");
        let parsed = Response::from_wire(&resp.to_wire()).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.set_cookie(), Some("sid=1; HttpOnly"));
    }

    #[test]
    fn headers_are_case_insensitive() {
        let req = Request::get("/").with_header("Content-Type", "text/html");
        assert_eq!(req.header("content-type"), Some("text/html"));
        assert_eq!(req.header("CONTENT-TYPE"), Some("text/html"));
    }

    #[test]
    fn multiline_body_survives_roundtrip() {
        let body = "line one\nline two\n\nline four";
        let req = Request::post("/x", body);
        assert_eq!(Request::from_wire(&req.to_wire()).unwrap().body, body);
    }

    #[test]
    fn body_starting_with_newlines_survives_roundtrip() {
        // The body is everything after the first blank line, so leading
        // newlines are part of it.
        let req = Request::post("/p", "\nx");
        assert_eq!(Request::from_wire(&req.to_wire()).unwrap().body, "\nx");
        let resp = Response::ok("\n\nplans");
        assert_eq!(
            Response::from_wire(&resp.to_wire()).unwrap().body,
            "\n\nplans"
        );
        assert_eq!(Response::from_wire("BQT/1 200\n\n\n").unwrap().body, "\n");
    }

    #[test]
    fn empty_body_roundtrip() {
        let req = Request::get("/home");
        let parsed = Request::from_wire(&req.to_wire()).unwrap();
        assert_eq!(parsed.body, "");
    }

    #[test]
    fn unknown_method_rejected() {
        assert_eq!(
            Request::from_wire("BREW /teapot BQT/1\n\n"),
            Err(WireError::UnknownMethod("BREW".to_string()))
        );
    }

    #[test]
    fn bad_status_rejected() {
        assert!(matches!(
            Response::from_wire("BQT/1 999\n\n"),
            Err(WireError::UnknownStatus(_))
        ));
        assert!(matches!(
            Response::from_wire("HTTP/1.1 200\n\n"),
            Err(WireError::BadStartLine(_))
        ));
    }

    #[test]
    fn malformed_header_rejected() {
        assert!(matches!(
            Request::from_wire("GET / BQT/1\nnot-a-header\n\n"),
            Err(WireError::BadHeader(_))
        ));
    }

    #[test]
    fn status_code_mapping_is_bijective() {
        for s in [
            Status::Ok,
            Status::BadRequest,
            Status::Forbidden,
            Status::NotFound,
            Status::TooManyRequests,
            Status::ServerError,
        ] {
            assert_eq!(Status::from_code(s.code()), Some(s));
        }
        assert_eq!(Status::from_code(302), None);
    }

    #[test]
    fn roundtrips_through_frame_codec() {
        use crate::frame::FrameCodec;
        use bytes::BytesMut;
        let resp = Response::ok("body").with_set_cookie("sid=2");
        let mut buf = BytesMut::new();
        FrameCodec.encode(resp.to_wire().as_bytes(), &mut buf);
        let frame = FrameCodec.decode(&mut buf).unwrap().unwrap();
        let parsed = Response::from_wire(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(parsed, resp);
    }
}
