//! `POST /v1/query` — the triple-pattern / BGP endpoint.
//!
//! The body names up to [`MAX_PATTERNS`] patterns (`{"s": …, "p": …,
//! "o": …}`, slots starting with `?` are variables) plus an optional
//! `limit`; the response is a variable header and the
//! joined rows, rendered as canonical JSON and cached under the epoch
//! fingerprint exactly like describe — a cache hit is byte-identical to
//! the miss that seeded it. Evaluation runs behind admission control and
//! carries the server's shutdown token, so long scans abort with `503`
//! instead of pinning workers through a drain.

use remi_kb::delta::Snapshot;
use remi_kb::query::{parse_patterns, solve_bgp_traced, PlanTrace, QueryError, MAX_PATTERNS};
use remi_kb::{KnowledgeBase, NodeId, PredId};
use remi_obs::Clock as _;
use remi_pool::CancelToken;

use crate::http::Request;
use crate::json::{self, JsonObject};
use crate::params::QueryParams;
use crate::{cached, ApiError, AppState, Response, Trace};

/// Extracts the `patterns` field: a non-empty array of objects whose
/// `s`/`p`/`o` fields are strings.
fn pattern_strings(doc: &json::Value) -> Result<Vec<[String; 3]>, ApiError> {
    let Some(items) = doc.get("patterns").and_then(|v| v.as_array()) else {
        return Err(ApiError::bad_param(
            "patterns",
            "body must be {\"patterns\": [{\"s\": …, \"p\": …, \"o\": …}, …], …}",
        ));
    };
    if items.is_empty() || items.len() > MAX_PATTERNS {
        return Err(ApiError::bad_param(
            "patterns",
            format!("patterns must hold 1..={MAX_PATTERNS} triple patterns"),
        ));
    }
    let mut patterns = Vec::with_capacity(items.len());
    for item in items {
        let slot = |name: &str| -> Result<String, ApiError> {
            item.get(name)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| {
                    ApiError::bad_param(
                        "patterns",
                        format!("each pattern must be an object with string fields \"s\", \"p\", \"o\" (bad {name:?})"),
                    )
                })
        };
        patterns.push([slot("s")?, slot("p")?, slot("o")?]);
    }
    Ok(patterns)
}

/// The canonical cache key of a query: limit + the patterns as given.
fn request_key(patterns: &[[String; 3]], limit: usize) -> String {
    let spec: Vec<String> = patterns
        .iter()
        .map(|[s, p, o]| format!("{s} {p} {o}"))
        .collect();
    format!("query?limit={limit}&patterns={}", spec.join(";"))
}

/// Renders the `/query` response body — exactly what `POST /v1/query`
/// answers on a cache miss: the variable header (first-appearance
/// order), the row count, the truncation flag, and one row of bound
/// IRIs per solution.
pub fn query_body(
    kb: &KnowledgeBase,
    patterns: &[[String; 3]],
    limit: usize,
    cancel: Option<&CancelToken>,
) -> Result<String, ApiError> {
    query_body_traced(kb, patterns, limit, cancel).map(|(body, _, _)| body)
}

/// Like [`query_body`], but also returns the planner's [`PlanTrace`]
/// (execution order, est-vs-actual cardinalities, join path) and the row
/// count. The body is byte-identical to [`query_body`]'s — the trace
/// rides alongside, never inside, so cached bodies stay explain-free.
pub fn query_body_traced(
    kb: &KnowledgeBase,
    patterns: &[[String; 3]],
    limit: usize,
    cancel: Option<&CancelToken>,
) -> Result<(String, PlanTrace, usize), ApiError> {
    let q =
        parse_patterns(kb, patterns).map_err(|e| ApiError::bad_param("patterns", e.to_string()))?;
    let (out, plan) =
        solve_bgp_traced(kb.store(), &q.patterns, limit, cancel).map_err(|e| match e {
            QueryError::Cancelled => ApiError {
                status: 503,
                message: "query cancelled".to_string(),
                param: None,
            },
            other => ApiError::bad_param("patterns", other.to_string()),
        })?;
    let names: Vec<&str> = out
        .vars
        .iter()
        .filter_map(|&v| q.var_names.get(v as usize).map(String::as_str))
        .collect();
    let rows: Vec<String> = out
        .rows
        .iter()
        .map(|row| {
            let terms = out.vars.iter().zip(row).map(|(&v, &val)| {
                if q.pred_var.get(v as usize) == Some(&true) {
                    kb.pred_iri(PredId(val))
                } else {
                    kb.node_key(NodeId(val))
                }
            });
            json::array_str(terms)
        })
        .collect();
    let count = rows.len();
    let body = JsonObject::new()
        .field_raw("vars", &json::array_str(names))
        .field_u64("count", count as u64)
        .field_bool("truncated", out.truncated)
        .field_raw("rows", &json::array_raw(rows))
        .finish();
    Ok((body, plan, count))
}

/// Splices an `"explain"` object — the join path, the truncation flag,
/// and one entry per executed pattern (execution order, estimated vs
/// actual cardinality) — into a rendered query body. Mirrors the
/// `?trace=1` echo: applied per request, after the cache would have
/// answered, so the spliced body is never cached.
fn with_explain(mut body: String, plan: &PlanTrace) -> String {
    let steps: Vec<String> = plan
        .steps
        .iter()
        .map(|s| {
            JsonObject::new()
                .field_u64("pattern", s.pattern as u64)
                .field_u64("estimated", s.estimated as u64)
                .field_u64("matches", s.matches)
                .finish()
        })
        .collect();
    let obj = JsonObject::new()
        .field_str(
            "path",
            if plan.merge_fast_path {
                "merge"
            } else {
                "nested"
            },
        )
        .field_bool("truncated", plan.truncated)
        .field_raw("patterns", &json::array_raw(steps))
        .finish();
    body.pop();
    if !body.ends_with('{') {
        body.push(',');
    }
    body.push_str("\"explain\":");
    body.push_str(&obj);
    body.push('}');
    body
}

/// The `POST /v1/query` handler (a row of the route table).
pub(crate) fn handle_query(
    state: &AppState,
    snap: &Snapshot,
    req: &Request,
    _tail: &str,
    trace: &mut Trace<'_>,
) -> Response {
    let doc = match json::parse(&req.body) {
        Ok(doc) => doc,
        Err(e) => return Response::error(400, &format!("malformed JSON body: {e}")),
    };
    let patterns = match pattern_strings(&doc) {
        Ok(p) => p,
        Err(e) => return Response::api(&e),
    };
    let params = match QueryParams::defaults().merge_json(&doc) {
        Ok(p) => p,
        Err(e) => return Response::api(&e),
    };
    if trace.explain {
        // `?explain=1` bypasses the cache in both directions: the probe is
        // skipped (a hit could not carry this request's plan) and the
        // rendered body is never inserted (cached bodies stay
        // explain-free, mirroring `?trace=1`). The cache *key* never
        // mentions explain either — `request_key` is unchanged.
        trace.span.phase("cache");
        let result = query_body_traced(&snap.kb, &patterns, params.limit, Some(&state.shutdown));
        trace.span.phase("mine");
        return match result {
            Ok((body, plan, rows)) => {
                state.query_events.record(state.clock.now_ns(), &plan, rows);
                Response::ok(with_explain(body, &plan)).cache("bypass")
            }
            Err(e) => {
                if e.status == 503 {
                    state
                        .query_events
                        .record_cancelled(state.clock.now_ns(), patterns.len());
                }
                Response::api(&e)
            }
        };
    }
    cached(
        state,
        snap,
        trace,
        request_key(&patterns, params.limit),
        || {
            match query_body_traced(&snap.kb, &patterns, params.limit, Some(&state.shutdown)) {
                Ok((body, plan, rows)) => {
                    // Planner events fire on the miss path only — a cache
                    // hit never ran the planner.
                    state.query_events.record(state.clock.now_ns(), &plan, rows);
                    Ok(body)
                }
                Err(e) => {
                    if e.status == 503 {
                        state
                            .query_events
                            .record_cancelled(state.clock.now_ns(), patterns.len());
                    }
                    Err(e)
                }
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        let mut b = remi_kb::KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:cityIn", "e:France");
        b.add_iri("e:Lyon", "p:cityIn", "e:France");
        b.build().unwrap()
    }

    fn pat(s: &str, p: &str, o: &str) -> [String; 3] {
        [s.to_string(), p.to_string(), o.to_string()]
    }

    #[test]
    fn body_lists_vars_and_rows() {
        let kb = kb();
        let body = query_body(&kb, &[pat("?city", "p:cityIn", "e:France")], 100, None).unwrap();
        assert_eq!(
            body,
            "{\"vars\":[\"city\"],\"count\":2,\"truncated\":false,\
             \"rows\":[[\"e:Paris\"],[\"e:Lyon\"]]}"
        );
    }

    #[test]
    fn bodies_are_byte_identical_across_backends() {
        let kb = kb();
        // The same facts on the layered store: the last one sits in a
        // delta over a CSR base of the first two (same ids).
        let mut b = remi_kb::KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:cityIn", "e:France");
        let live = remi_kb::LiveKb::new(b.build().unwrap());
        live.append([(
            remi_kb::Term::iri("e:Lyon"),
            "p:cityIn".to_string(),
            remi_kb::Term::iri("e:France"),
        )]);
        let layered = live.snapshot().kb;
        for patterns in [
            vec![pat("?s", "?p", "?o")],
            vec![
                pat("?city", "p:cityIn", "e:France"),
                pat("?city", "p:capitalOf", "?country"),
            ],
        ] {
            assert_eq!(
                query_body(&kb, &patterns, 50, None).unwrap(),
                query_body(&layered, &patterns, 50, None).unwrap(),
                "{patterns:?}"
            );
        }
    }

    #[test]
    fn unknown_iris_answer_zero_rows_not_errors() {
        let body = query_body(&kb(), &[pat("?x", "p:nope", "e:Missing")], 10, None).unwrap();
        assert!(body.contains("\"count\":0"), "{body}");
        assert!(body.contains("\"rows\":[]"), "{body}");
    }

    #[test]
    fn parse_failures_are_param_tagged() {
        let err = query_body(&kb(), &[pat("?", "p:cityIn", "e:France")], 10, None).unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(err.param, Some("patterns"));

        let doc = json::parse(br#"{"patterns": [{"s": "?x", "p": 3, "o": "?y"}]}"#).unwrap();
        let err = pattern_strings(&doc).unwrap_err();
        assert_eq!(err.param, Some("patterns"));
    }

    #[test]
    fn cancelled_queries_surface_as_503() {
        let token = CancelToken::default();
        token.cancel();
        let err = query_body(&kb(), &[pat("?s", "?p", "?o")], 10, Some(&token)).unwrap_err();
        assert_eq!(err.status, 503);
    }

    #[test]
    fn request_keys_are_canonical() {
        assert_eq!(
            request_key(&[pat("?s", "p:cityIn", "e:France")], 7),
            "query?limit=7&patterns=?s p:cityIn e:France"
        );
        assert_eq!(
            request_key(&[pat("?a", "?b", "?c"), pat("?c", "p:x", "e:Y")], 100),
            "query?limit=100&patterns=?a ?b ?c;?c p:x e:Y"
        );
    }
}
