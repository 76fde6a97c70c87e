//! A minimal incremental HTTP/1.1 request parser and response writer.
//!
//! The build image has no async runtime and no registry access, so this is
//! the whole HTTP stack: enough of RFC 9112 to serve the JSON API over
//! keep-alive connections, with hard bounds on header and body sizes so a
//! misbehaving client cannot grow server memory.
//!
//! The parser is *incremental*: bytes are appended as they arrive from the
//! socket and [`RequestParser::try_parse`] either yields a complete
//! [`Request`], asks for more bytes, or rejects the stream with the HTTP
//! status the connection should answer before closing (400 for malformed
//! input, 413 for oversized input, 505 for unsupported versions).

use std::fmt::Write as _;

/// Upper bound on the request line + headers section.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// Decoded `key=value` query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of a (lower-case) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a byte stream was rejected: the status (and human-readable detail)
/// the connection should answer before closing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// HTTP status code to answer with (400, 413, or 505).
    pub status: u16,
    /// Short description for the error body.
    pub message: String,
}

impl ParseError {
    fn bad(message: impl Into<String>) -> ParseError {
        ParseError {
            status: 400,
            message: message.into(),
        }
    }

    fn too_large(message: impl Into<String>) -> ParseError {
        ParseError {
            status: 413,
            message: message.into(),
        }
    }
}

/// One step of incremental parsing.
#[derive(Debug)]
pub enum Parsed {
    /// A full request was parsed; the parser consumed its bytes and is
    /// ready for the next pipelined request.
    Complete(Request),
    /// The buffered bytes form only a prefix of a request.
    NeedMore,
}

/// Incremental request parser holding the connection's receive buffer.
///
/// Feed raw socket bytes with [`push`](Self::push), then call
/// [`try_parse`](Self::try_parse) until it returns
/// [`Parsed::NeedMore`]. Parsed requests are drained from the front of
/// the buffer, so pipelined requests on one connection work naturally.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends raw bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-parsed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to parse one complete request from the front of the
    /// buffer.
    pub fn try_parse(&mut self) -> Result<Parsed, ParseError> {
        // Locate the end of the head section (CRLF CRLF).
        let Some(head_end) = find_subslice(&self.buf, b"\r\n\r\n") else {
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ParseError::too_large("request head exceeds 8 KiB"));
            }
            return Ok(Parsed::NeedMore);
        };
        if head_end + 4 > MAX_HEAD_BYTES {
            return Err(ParseError::too_large("request head exceeds 8 KiB"));
        }
        let head = self
            .buf
            .get(..head_end)
            .ok_or_else(|| ParseError::bad("malformed request head"))?;
        if !head.is_ascii() {
            return Err(ParseError::bad("non-ASCII bytes in request head"));
        }
        let head = std::str::from_utf8(head)
            .map_err(|_| ParseError::bad("non-ASCII bytes in request head"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(ParseError::bad("malformed request line"));
        };
        if parts.next().is_some() || method.is_empty() || target.is_empty() {
            return Err(ParseError::bad("malformed request line"));
        }
        if !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(ParseError::bad("malformed method token"));
        }
        let http11 = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => {
                return Err(ParseError {
                    status: 505,
                    message: format!("unsupported version {version}"),
                })
            }
        };

        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ParseError::bad(format!("malformed header line {line:?}")));
            };
            if name.is_empty() || name.contains(' ') {
                return Err(ParseError::bad(format!("malformed header name {name:?}")));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        let content_length = match header_value(&headers, "content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| ParseError::bad("malformed content-length"))?,
            None => 0,
        };
        if header_value(&headers, "transfer-encoding").is_some() {
            // Chunked bodies are out of scope for this API; reject rather
            // than desynchronise the connection.
            return Err(ParseError::bad("transfer-encoding is not supported"));
        }
        if content_length > MAX_BODY_BYTES {
            return Err(ParseError::too_large("request body exceeds 256 KiB"));
        }
        let body_start = head_end + 4;
        if self.buf.len() < body_start + content_length {
            return Ok(Parsed::NeedMore);
        }
        let body = self
            .buf
            .get(body_start..body_start + content_length)
            .ok_or_else(|| ParseError::bad("truncated request body"))?
            .to_vec();

        let connection = header_value(&headers, "connection").map(str::to_ascii_lowercase);
        let keep_alive = match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11, // HTTP/1.1 defaults to keep-alive, 1.0 to close
        };

        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        if !raw_path.starts_with('/') {
            return Err(ParseError::bad("request target must be absolute"));
        }
        let path =
            percent_decode(raw_path, false).ok_or_else(|| ParseError::bad("malformed path"))?;
        let mut query = Vec::new();
        if let Some(raw_query) = raw_query {
            for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                let k =
                    percent_decode(k, true).ok_or_else(|| ParseError::bad("malformed query"))?;
                let v =
                    percent_decode(v, true).ok_or_else(|| ParseError::bad("malformed query"))?;
                query.push((k, v));
            }
        }

        let request = Request {
            method: method.to_string(),
            path,
            query,
            headers,
            body,
            keep_alive,
        };
        self.buf.drain(..body_start + content_length);
        Ok(Parsed::Complete(request))
    }
}

/// First value of a header in a parsed header list.
fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Finds the first occurrence of `needle` in `haystack` (shared with the
/// response reader in [`crate::client`]).
pub(crate) fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Percent-decodes a path or query component; `plus_is_space` applies the
/// `application/x-www-form-urlencoded` rule. Returns `None` on truncated
/// or non-hex escapes and on invalid UTF-8.
pub fn percent_decode(s: &str, plus_is_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        // lint:allow(panic-in-serve): `i < bytes.len()` is the loop guard, so the index is in bounds
        match bytes[i] {
            b'%' => {
                let hi = hex_digit(*bytes.get(i + 1)?)?;
                let lo = hex_digit(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes a path segment so entity IRIs survive a URL round
/// trip (everything outside RFC 3986 `unreserved` plus `:` is escaped).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b':' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Serialises a complete JSON response: status line, standard headers,
/// any extra headers, `Content-Length`, and the body.
pub fn write_response(
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    write_response_typed(status, "application/json", extra_headers, body, keep_alive)
}

/// [`write_response`] with an explicit `Content-Type` — the `/v1/metrics`
/// endpoint answers Prometheus text exposition, not JSON.
pub fn write_response_typed(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = String::with_capacity(128 + body.len());
    let _ = write!(head, "HTTP/1.1 {status} {}\r\n", reason_phrase(status));
    let _ = write!(head, "Content-Type: {content_type}\r\n");
    let _ = write!(head, "Content-Length: {}\r\n", body.len());
    let _ = write!(
        head,
        "Connection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (name, value) in extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(bytes: &[u8]) -> Result<Request, ParseError> {
        let mut p = RequestParser::new();
        p.push(bytes);
        match p.try_parse()? {
            Parsed::Complete(r) => Ok(r),
            Parsed::NeedMore => panic!("expected a complete request"),
        }
    }

    #[test]
    fn parses_a_simple_get() {
        let r = parse_one(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.query.is_empty());
        assert!(r.keep_alive);
        assert_eq!(r.header("host"), Some("x"));
    }

    #[test]
    fn parses_query_and_percent_escapes() {
        let r = parse_one(b"GET /describe/e%3APerson_0?k=3&method=remi&x=a+b HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(r.path, "/describe/e:Person_0");
        assert_eq!(r.query_param("k"), Some("3"));
        assert_eq!(r.query_param("method"), Some("remi"));
        assert_eq!(r.query_param("x"), Some("a b"));
    }

    #[test]
    fn parses_post_with_body_and_fragmentation() {
        let raw = b"POST /describe HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        // Feed one byte at a time: every prefix must be NeedMore.
        let mut p = RequestParser::new();
        for (i, &b) in raw.iter().enumerate() {
            p.push(&[b]);
            match p.try_parse().unwrap() {
                Parsed::Complete(r) => {
                    assert_eq!(i, raw.len() - 1, "completed early at byte {i}");
                    assert_eq!(r.body, b"hello world");
                    assert_eq!(p.buffered(), 0);
                    return;
                }
                Parsed::NeedMore => assert!(i < raw.len() - 1, "never completed"),
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let Parsed::Complete(a) = p.try_parse().unwrap() else {
            panic!("first request incomplete")
        };
        let Parsed::Complete(b) = p.try_parse().unwrap() else {
            panic!("second request incomplete")
        };
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
    }

    #[test]
    fn connection_semantics() {
        assert!(parse_one(b"GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            !parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn malformed_requests_are_400() {
        for raw in [
            b"GET\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
            b"GET /%zz HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let err = parse_one(raw).unwrap_err();
            assert_eq!(
                err.status,
                400,
                "{:?} → {err:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn unsupported_version_is_505() {
        assert_eq!(
            parse_one(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status,
            505
        );
    }

    #[test]
    fn oversized_head_and_body_are_413() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.resize(raw.len() + MAX_HEAD_BYTES, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_one(&raw).unwrap_err().status, 413);

        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_one(raw.as_bytes()).unwrap_err().status, 413);
    }

    #[test]
    fn percent_codec_roundtrip() {
        for s in ["e:Person_0", "e:Städte/α?β&γ", "plain", "a b+c"] {
            let enc = percent_encode(s);
            assert_eq!(percent_decode(&enc, false).as_deref(), Some(s), "{enc}");
        }
        assert_eq!(percent_decode("%e2%82%ac", false).as_deref(), Some("€"));
        assert!(percent_decode("%", false).is_none());
        assert!(percent_decode("%f", false).is_none());
        assert!(percent_decode("%gg", false).is_none());
        assert!(percent_decode("%ff%ff", false).is_none(), "invalid UTF-8");
    }

    #[test]
    fn response_writer_emits_valid_http() {
        let bytes = write_response(200, &[("X-Remi-Cache", "hit")], "{\"a\":1}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Remi-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }
}
