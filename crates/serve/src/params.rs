//! The typed request-parameter extractor shared by every endpoint.
//!
//! Before this module each handler re-parsed and re-clamped its own `k`,
//! `method` (and now `limit`). [`QueryParams`] is
//! the one validation path: endpoint defaults come from
//! [`QueryParams::defaults`] (adjusted with [`QueryParams::with_k`]),
//! URL query strings overlay through [`QueryParams::merge_query`], JSON
//! bodies through [`QueryParams::merge_json`], and every failure is an
//! [`ApiError`] tagged with the offending parameter name — rendered as
//! the consistent `{"error": …, "param": …}` envelope. A parameter this
//! module does not name is ignored: `backend` (a server has one store
//! layout) and `threads` (a server mines with sequential REMI), say.

use crate::http::Request;
use crate::json::Value;
use crate::ApiError;

/// Hard cap on `k` for describe/summarize.
pub(crate) const MAX_K: usize = 64;

/// Default `/query` row limit when the body names none.
pub(crate) const DEFAULT_QUERY_LIMIT: usize = 100;

/// Hard cap on the `/query` row limit.
pub(crate) const MAX_QUERY_LIMIT: usize = 1000;

/// The tunable parameters an endpoint may accept, after clamping.
#[derive(Debug, Clone)]
pub(crate) struct QueryParams {
    /// Result count for describe/summarize (`1..=MAX_K`).
    pub k: usize,
    /// Summarisation method (validated downstream, where the method
    /// dispatch lives).
    pub method: String,
    /// Row limit for `/query` (`1..=MAX_QUERY_LIMIT`).
    pub limit: usize,
}

impl QueryParams {
    /// The server-side defaults every request starts from.
    pub fn defaults() -> QueryParams {
        QueryParams {
            k: 1,
            method: "remi".to_string(),
            limit: DEFAULT_QUERY_LIMIT,
        }
    }

    /// Overrides the default `k` (summarize defaults to 5, describe to 1).
    pub fn with_k(mut self, k: usize) -> QueryParams {
        self.k = k;
        self
    }

    /// Overlays the URL query-string parameters.
    pub fn merge_query(mut self, req: &Request) -> Result<QueryParams, ApiError> {
        if let Some(raw) = req.query_param("k") {
            self.k = clamp_int("k", raw.parse().ok(), MAX_K)?;
        }
        if let Some(raw) = req.query_param("limit") {
            self.limit = clamp_int("limit", raw.parse().ok(), MAX_QUERY_LIMIT)?;
        }
        if let Some(raw) = req.query_param("method") {
            self.method = raw.to_string();
        }
        Ok(self)
    }

    /// Overlays the top-level fields of a JSON request body.
    pub fn merge_json(mut self, doc: &Value) -> Result<QueryParams, ApiError> {
        if let Some(v) = doc.get("k") {
            self.k = clamp_int("k", v.as_usize(), MAX_K)?;
        }
        if let Some(v) = doc.get("limit") {
            self.limit = clamp_int("limit", v.as_usize(), MAX_QUERY_LIMIT)?;
        }
        Ok(self)
    }
}

/// The one integer clamp: present-but-unparsable and out-of-range values
/// fail identically, naming the parameter.
fn clamp_int(name: &'static str, value: Option<usize>, max: usize) -> Result<usize, ApiError> {
    match value {
        Some(v) if (1..=max).contains(&v) => Ok(v),
        _ => Err(ApiError::bad_param(
            name,
            format!("{name} must be an integer in 1..={max}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::RequestParser;
    use crate::json;

    fn request(target: &str) -> Request {
        let mut p = RequestParser::new();
        p.push(format!("GET {target} HTTP/1.1\r\n\r\n").as_bytes());
        match p.try_parse().unwrap() {
            crate::http::Parsed::Complete(req) => req,
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn query_string_overlays_and_clamps() {
        let p = QueryParams::defaults()
            .merge_query(&request("/describe/e:X?k=3&limit=5"))
            .unwrap();
        assert_eq!((p.k, p.limit), (3, 5));

        // Parameters the extractor does not name are ignored, whatever
        // their value.
        let defaults = QueryParams::defaults()
            .merge_query(&request("/x?backend=flat&threads=999&x=1"))
            .unwrap();
        assert_eq!((defaults.k, defaults.limit), (1, 100));
        assert_eq!(defaults.method, "remi");
    }

    #[test]
    fn errors_name_the_offending_parameter() {
        for (target, param, message) in [
            ("/x?k=0", "k", "k must be an integer in 1..=64"),
            ("/x?k=nope", "k", "k must be an integer in 1..=64"),
            (
                "/x?limit=1001",
                "limit",
                "limit must be an integer in 1..=1000",
            ),
        ] {
            let err = QueryParams::defaults()
                .merge_query(&request(target))
                .unwrap_err();
            assert_eq!(err.status, 400, "{target}");
            assert_eq!(err.param, Some(param), "{target}");
            assert_eq!(err.message, message, "{target}");
        }
    }

    #[test]
    fn json_body_overlays_with_the_same_clamp() {
        let doc = json::parse(br#"{"k": 2, "threads": 0, "limit": 10}"#).unwrap();
        let p = QueryParams::defaults().merge_json(&doc).unwrap();
        assert_eq!((p.k, p.limit), (2, 10));

        let bad = json::parse(br#"{"limit": "ten"}"#).unwrap();
        let err = QueryParams::defaults().merge_json(&bad).unwrap_err();
        assert_eq!(err.param, Some("limit"));
        assert_eq!(err.message, "limit must be an integer in 1..=1000");
    }
}
