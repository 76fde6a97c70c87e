//! `GET /v1/debug/events` — the flight-recorder endpoint — plus the serve
//! layer's own event vocabulary (500s, slow requests) and the stderr
//! tail dump shared by the slow-request log and the 500 path.
//!
//! The recorder is process-wide state: the planner, the live KB, and
//! the pool all emit into the one ring `serve()` created, and this
//! endpoint reads it back without copying more than the ring holds —
//! the response is bounded by the ring capacity no matter how long the
//! server has run.

use remi_kb::delta::Snapshot;
use remi_obs::{
    Channel, EventId, EventRecord, EventSpec, FieldKind, FieldSpec, Recorder, Severity,
};

use crate::http::Request;
use crate::json::{self, JsonObject};
use crate::{AppState, Response, Trace};

/// How many trailing events the slow-request / 500 stderr dumps print.
const DUMP_TAIL: usize = 8;

/// The route vocabulary events carry as an enum field: every
/// `router::TABLE` name plus the pre-dispatch `"unmatched"` sentinel at
/// index 0 (also the decode fallback for an unknown index).
const ROUTE_NAMES: &[&str] = &[
    "unmatched",
    "healthz",
    "stats",
    "metrics",
    "describe",
    "describe_batch",
    "summarize",
    "ingest",
    "query",
    "debug_events",
];

/// The enum-field index of `route` (0, `"unmatched"`, when the route is
/// not in the vocabulary — cannot happen for table-dispatched requests).
fn route_index(route: &str) -> u64 {
    ROUTE_NAMES.iter().position(|r| *r == route).unwrap_or(0) as u64
}

/// Pre-defined serve-layer event ids, interned once at boot.
#[derive(Debug, Clone)]
pub(crate) struct HttpEvents {
    error: EventId,
    slow: EventId,
}

impl HttpEvents {
    /// Interns the HTTP event specs on `recorder`.
    pub(crate) fn new(recorder: &Recorder) -> HttpEvents {
        HttpEvents {
            error: recorder.define(EventSpec {
                name: "http_500",
                channel: Channel::Http,
                severity: Severity::Error,
                fields: &[
                    FieldSpec {
                        key: "route",
                        kind: FieldKind::Enum(ROUTE_NAMES),
                    },
                    FieldSpec {
                        key: "status",
                        kind: FieldKind::U64,
                    },
                ],
            }),
            slow: recorder.define(EventSpec {
                name: "http_slow",
                channel: Channel::Http,
                severity: Severity::Warn,
                fields: &[
                    FieldSpec {
                        key: "route",
                        kind: FieldKind::Enum(ROUTE_NAMES),
                    },
                    FieldSpec {
                        key: "total_us",
                        kind: FieldKind::U64,
                    },
                ],
            }),
        }
    }

    /// Records a server-error response (5xx other than load-shed 503s).
    pub(crate) fn record_error(&self, recorder: &Recorder, ts_ns: u64, route: &str, status: u16) {
        recorder.emit(self.error, ts_ns, &[route_index(route), u64::from(status)]);
    }

    /// Records a request past the `--slow-request-ms` threshold.
    pub(crate) fn record_slow(&self, recorder: &Recorder, ts_ns: u64, route: &str, total_ns: u64) {
        recorder.emit(self.slow, ts_ns, &[route_index(route), total_ns / 1_000]);
    }
}

/// Prints the recorder's most recent events to stderr, one line each,
/// prefixed with `why` so the slow-request and 500 dumps group in logs.
pub(crate) fn dump_tail(state: &AppState, why: &str) {
    for event in state.events.tail(DUMP_TAIL) {
        // lint:allow(print-in-library): the recorder tail is the operator-facing context line the slow/500 log exists to emit
        eprintln!("{why} {event}");
    }
}

/// Renders one decoded event as a JSON object.
fn event_json(e: &EventRecord) -> String {
    let mut fields = String::from("{");
    for (i, (key, value)) in e.fields.iter().enumerate() {
        if i > 0 {
            fields.push(',');
        }
        // `json::escape` renders the quoted JSON string form.
        fields.push_str(&json::escape(key));
        fields.push(':');
        match value {
            remi_obs::FieldValue::U64(v) => fields.push_str(&v.to_string()),
            remi_obs::FieldValue::Bool(v) => fields.push_str(if *v { "true" } else { "false" }),
            remi_obs::FieldValue::Str(s) => fields.push_str(&json::escape(s)),
        }
    }
    fields.push('}');
    JsonObject::new()
        .field_u64("seq", e.seq)
        .field_u64("ts_ns", e.ts_ns)
        .field_str("channel", e.channel.name())
        .field_str("severity", e.severity.name())
        .field_str("event", e.name)
        .field_raw("fields", &fields)
        .finish()
}

/// The `GET /v1/debug/events` handler (a row of the route table): the
/// recorder's surviving events, oldest first, optionally filtered by
/// `?channel=`, `?severity=` (minimum), `?since=` (sequence number,
/// exclusive of nothing — events with `seq >= since`), and `?limit=`
/// (newest N of the filtered set). The response is bounded by the ring
/// capacity regardless of parameters.
pub(crate) fn handle_debug_events(
    state: &AppState,
    _snap: &Snapshot,
    req: &Request,
    _tail: &str,
    _trace: &mut Trace<'_>,
) -> Response {
    let channel = match req.query_param("channel") {
        None => None,
        Some(s) => match Channel::parse(s) {
            Some(c) => Some(c),
            None => {
                return Response::api(&crate::ApiError::bad_param(
                    "channel",
                    format!("unknown channel {s:?} (expected query, kb, pool, or http)"),
                ))
            }
        },
    };
    let min_severity = match req.query_param("severity") {
        None => None,
        Some(s) => match Severity::parse(s) {
            Some(sev) => Some(sev),
            None => {
                return Response::api(&crate::ApiError::bad_param(
                    "severity",
                    format!("unknown severity {s:?} (expected debug, info, warn, or error)"),
                ))
            }
        },
    };
    let since = match req.query_param("since") {
        None => 0,
        Some(s) => match s.parse::<u64>() {
            Ok(v) => v,
            Err(_) => {
                return Response::api(&crate::ApiError::bad_param(
                    "since",
                    format!("since must be a sequence number, got {s:?}"),
                ))
            }
        },
    };
    let capacity = state.events.capacity();
    let limit = match req.query_param("limit") {
        None => capacity,
        Some(s) => match s.parse::<usize>() {
            Ok(v) if (1..=capacity).contains(&v) => v,
            _ => {
                return Response::api(&crate::ApiError::bad_param(
                    "limit",
                    format!("limit must be an integer in 1..={capacity}"),
                ))
            }
        },
    };
    let mut events = state.events.events_since(since);
    events.retain(|e| {
        channel.is_none_or(|c| e.channel == c) && min_severity.is_none_or(|s| e.severity >= s)
    });
    if events.len() > limit {
        events.drain(..events.len() - limit);
    }
    let rendered: Vec<String> = events.iter().map(event_json).collect();
    Response::ok(
        JsonObject::new()
            .field_u64("head", state.events.head())
            .field_u64("capacity", capacity as u64)
            .field_u64("count", rendered.len() as u64)
            .field_raw("events", &json::array_raw(rendered))
            .finish(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_vocabulary_covers_the_table() {
        for route in crate::router::TABLE {
            assert!(
                ROUTE_NAMES.contains(&route.name),
                "route {:?} missing from ROUTE_NAMES",
                route.name
            );
        }
        assert_eq!(route_index("unmatched"), 0);
        assert_eq!(route_index("not-a-route"), 0);
        assert_ne!(route_index("query"), 0);
    }

    #[test]
    fn event_json_renders_every_field_kind() {
        let e = EventRecord {
            seq: 7,
            ts_ns: 1500,
            name: "query_plan",
            channel: Channel::Query,
            severity: Severity::Info,
            fields: vec![
                ("patterns", remi_obs::FieldValue::U64(2)),
                ("truncated", remi_obs::FieldValue::Bool(false)),
                ("path", remi_obs::FieldValue::Str("merge")),
            ],
        };
        assert_eq!(
            event_json(&e),
            "{\"seq\":7,\"ts_ns\":1500,\"channel\":\"query\",\"severity\":\"info\",\
             \"event\":\"query_plan\",\"fields\":{\"patterns\":2,\"truncated\":false,\
             \"path\":\"merge\"}}"
        );
    }
}
