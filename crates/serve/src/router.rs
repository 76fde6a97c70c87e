//! The declarative route table.
//!
//! Every endpoint is exactly one row of [`TABLE`]: `(method, path spec,
//! admission flag) → handler`. Dispatch walks the table once per
//! request, so the API surface, the admission-control policy, and the
//! `405 Allow` header all derive from the same declaration — there is no
//! hand-rolled if-chain to drift out of sync.
//!
//! Paths are versioned, and each route has exactly one spelling: the
//! `/v1/…` path its row declares. An unprefixed or other-version path
//! matches no row and answers `404`.

use remi_kb::delta::Snapshot;

use crate::http::Request;
use crate::{with_admission, AppState, Response, Trace};

/// How a route matches a request path.
pub(crate) enum PathSpec {
    /// The whole path, exactly.
    Exact(&'static str),
    /// A leading prefix; the remainder (possibly empty) is the capture
    /// handed to the handler — e.g. the entity IRI of `/v1/describe/{iri}`.
    Prefix(&'static str),
}

impl PathSpec {
    /// The capture when `path` matches this spec (`""` for exact routes).
    fn capture<'p>(&self, path: &'p str) -> Option<&'p str> {
        match *self {
            PathSpec::Exact(spec) => (path == spec).then_some(""),
            PathSpec::Prefix(spec) => path.strip_prefix(spec),
        }
    }
}

/// A request handler: the pinned snapshot, the parsed request, the path
/// capture (empty for exact routes), and the request's trace for phase
/// boundaries.
pub(crate) type Handler = fn(&AppState, &Snapshot, &Request, &str, &mut Trace<'_>) -> Response;

/// One row of the route table.
pub(crate) struct Route {
    /// HTTP method this row answers.
    pub method: &'static str,
    /// Path shape this row matches.
    pub path: PathSpec,
    /// Metric label for this row: the `route` value of
    /// `remi_http_request_duration_ns{route=…,status=…}`.
    pub name: &'static str,
    /// Whether the handler runs behind the admission watermark (mining,
    /// query, and ingest work is shed with 503 beyond it; `/v1/healthz` and
    /// `/v1/stats` stay answerable under full load).
    pub admission: bool,
    /// The handler function.
    pub handler: Handler,
}

/// The whole API surface, one declaration per endpoint.
pub(crate) const TABLE: &[Route] = &[
    Route {
        method: "GET",
        path: PathSpec::Exact("/v1/healthz"),
        name: "healthz",
        admission: false,
        handler: crate::handle_healthz,
    },
    Route {
        method: "GET",
        path: PathSpec::Exact("/v1/stats"),
        name: "stats",
        admission: false,
        handler: crate::handle_stats,
    },
    Route {
        method: "GET",
        path: PathSpec::Exact("/v1/metrics"),
        name: "metrics",
        admission: false,
        handler: crate::handle_metrics,
    },
    Route {
        method: "GET",
        path: PathSpec::Exact("/v1/debug/events"),
        name: "debug_events",
        admission: false,
        handler: crate::events::handle_debug_events,
    },
    Route {
        method: "GET",
        path: PathSpec::Prefix("/v1/describe/"),
        name: "describe",
        admission: true,
        handler: crate::describe::handle_describe_one,
    },
    Route {
        method: "POST",
        path: PathSpec::Exact("/v1/describe"),
        name: "describe_batch",
        admission: true,
        handler: crate::describe::handle_describe_batch,
    },
    Route {
        method: "GET",
        path: PathSpec::Prefix("/v1/summarize/"),
        name: "summarize",
        admission: true,
        handler: crate::handle_summarize,
    },
    Route {
        method: "POST",
        path: PathSpec::Exact("/v1/ingest"),
        name: "ingest",
        admission: true,
        handler: crate::handle_ingest,
    },
    Route {
        method: "POST",
        path: PathSpec::Exact("/v1/query"),
        name: "query",
        admission: true,
        handler: crate::query::handle_query,
    },
];

/// Routes one parsed request against a pinned snapshot (one epoch per
/// request — mid-request ingests never tear a response). A path that
/// matches rows only under other methods answers `405` with an `Allow`
/// header listing exactly the methods the table declares for it.
pub(crate) fn dispatch(state: &AppState, req: &Request, trace: &mut Trace<'_>) -> Response {
    let snap = state.live.snapshot();
    let mut allow: Vec<&'static str> = Vec::new();
    for route in TABLE {
        let Some(tail) = route.path.capture(&req.path) else {
            continue;
        };
        if route.method == req.method {
            trace.route = route.name;
            return if route.admission {
                with_admission(state, req, trace, |state, req, trace| {
                    (route.handler)(state, &snap, req, tail, trace)
                })
            } else {
                (route.handler)(state, &snap, req, tail, trace)
            };
        }
        if !allow.contains(&route.method) {
            allow.push(route.method);
        }
    }
    if allow.is_empty() {
        Response::error(404, &format!("no such route: {}", req.path))
    } else {
        Response::method_not_allowed(&allow.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_follow_the_spec() {
        assert_eq!(PathSpec::Exact("/stats").capture("/stats"), Some(""));
        assert_eq!(PathSpec::Exact("/stats").capture("/stats2"), None);
        assert_eq!(
            PathSpec::Prefix("/describe/").capture("/describe/e:X"),
            Some("e:X")
        );
        assert_eq!(PathSpec::Prefix("/describe/").capture("/describe"), None);
        assert_eq!(
            PathSpec::Prefix("/describe/").capture("/describe/"),
            Some("")
        );
    }

    #[test]
    fn table_declares_each_route_once_per_method() {
        for (i, a) in TABLE.iter().enumerate() {
            for b in TABLE.iter().skip(i + 1) {
                let same = match (&a.path, &b.path) {
                    (PathSpec::Exact(x), PathSpec::Exact(y)) => x == y,
                    (PathSpec::Prefix(x), PathSpec::Prefix(y)) => x == y,
                    _ => false,
                };
                assert!(
                    !(same && a.method == b.method),
                    "duplicate route {} {:?}",
                    a.method,
                    match a.path {
                        PathSpec::Exact(p) | PathSpec::Prefix(p) => p,
                    }
                );
            }
        }
    }
}
