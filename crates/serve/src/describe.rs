//! `GET /v1/describe/{entity}` and `POST /v1/describe` — one mining path.
//!
//! Both routes answer through [`describe_many`]: a GET is a batch of one.
//! It probes the response cache for every entity, resolves the misses,
//! builds one miner (prominence ranking + enumeration context) only when a
//! resolved miss needs it, mines the misses as pool tasks, and seeds the
//! cache through [`AppState::seed`]. The handlers keep only what is theirs:
//! the GET maps one answer to a status and an `X-Remi-Cache` header, the
//! POST parses, de-duplicates, and wraps the answers in its envelope.

use remi_core::topk::describe_top_k;
use remi_core::{Remi, RemiConfig};
use remi_kb::delta::Snapshot;
use remi_kb::{KnowledgeBase, NodeId};

use crate::cache::CacheKey;
use crate::http::Request;
use crate::json::{self, JsonObject};
use crate::params::QueryParams;
use crate::{error_body, resolve, ApiError, AppState, Response, Trace};

/// Hard cap on one batched describe.
const MAX_BATCH: usize = 64;

/// The canonical cache key of one describe.
fn request_key(iri: &str, k: usize, threads: usize) -> String {
    format!("describe?entity={iri}&k={k}&threads={threads}")
}

fn mining_config(threads: usize) -> RemiConfig {
    RemiConfig::default().with_threads(threads)
}

/// Mines and renders the answer for one resolved entity.
fn render(remi: &Remi<'_>, iri: &str, target: NodeId, k: usize) -> String {
    let kb = remi.kb();
    let (found, status) = if k == 1 {
        let outcome = remi.describe(&[target]);
        (outcome.best.into_iter().collect(), outcome.status)
    } else {
        let top = describe_top_k(remi, &[target], k);
        (top.found, top.status)
    };
    let results = found.iter().map(|(expr, cost)| {
        JsonObject::new()
            .field_str("expression", &expr.display(kb).to_string())
            .field_str("verbalised", &remi_core::verbalize::verbalize(kb, expr))
            .field_str("complexity", &cost.to_string())
            .finish()
    });
    JsonObject::new()
        .field_str("entity", iri)
        .field_u64("k", k as u64)
        .field_str("status", status.as_str())
        .field_raw("results", &json::array_raw(results))
        .finish()
}

/// Renders the `describe` response for one entity: the most intuitive
/// referring expression(s) mined by `remi_core`, as canonical JSON. This
/// is exactly what `GET /v1/describe/{entity}` answers on a cache miss.
pub fn describe_body(
    kb: &KnowledgeBase,
    iri: &str,
    k: usize,
    threads: usize,
) -> Result<String, ApiError> {
    let target = resolve(kb, iri)?;
    Ok(render(
        &Remi::new(kb, mining_config(threads)),
        iri,
        target,
        k,
    ))
}

/// One entity's answer: its body or error, and whether the cache held it.
type Answer = (Result<String, ApiError>, bool);

/// Answers a list of distinct entities against one pinned snapshot, in
/// order. Closes the `cache` trace phase after the probes and, when
/// anything missed, the `mine` phase after mining.
fn describe_many(
    state: &AppState,
    snap: &Snapshot,
    trace: &mut Trace<'_>,
    iris: &[&str],
    params: &QueryParams,
) -> Vec<Answer> {
    let (k, threads) = (params.k, params.threads);
    let keys: Vec<CacheKey> = iris
        .iter()
        .map(|iri| CacheKey {
            request: request_key(iri, k, threads),
            kb: snap.fingerprint,
        })
        .collect();
    let mut slots: Vec<(Option<Result<String, ApiError>>, bool)> = keys
        .iter()
        .map(|key| match state.cache.get(key) {
            Some(body) => (Some(Ok(body.to_string())), true),
            None => (None, false),
        })
        .collect();
    trace.span.phase("cache");
    if slots.iter().any(|(slot, _)| slot.is_none()) {
        let kb = &snap.kb;
        // Resolve before building the miner, so a batch of unknown
        // entities never pays for one.
        let mut jobs = Vec::new();
        for ((slot, _), &iri) in slots.iter_mut().zip(iris) {
            if slot.is_none() {
                match resolve(kb, iri) {
                    Ok(target) => jobs.push((slot, iri, target)),
                    Err(e) => *slot = Some(Err(e)),
                }
            }
        }
        if !jobs.is_empty() {
            // One miner shared by every miss; each mines as its own pool
            // task, the first on this worker (a GET adds no pool hop).
            let remi = Remi::new(kb, mining_config(threads));
            let remi = &remi;
            remi_pool::global().scope(|scope| {
                let mut jobs = jobs.into_iter();
                let first = jobs.next();
                for (slot, iri, target) in jobs {
                    scope.spawn(move || *slot = Some(Ok(render(remi, iri, target, k))));
                }
                if let Some((slot, iri, target)) = first {
                    *slot = Some(Ok(render(remi, iri, target, k)));
                }
            });
        }
        trace.span.phase("mine");
        for ((slot, hit), key) in slots.iter().zip(keys) {
            if let (Some(Ok(body)), false) = (slot, hit) {
                state.seed(key, body);
            }
        }
    }
    slots
        .into_iter()
        .map(|(slot, hit)| {
            // The scope join guarantees every task wrote its slot; an
            // empty one would mean a dropped task, which degrades to an
            // error for that entity rather than killing the worker.
            let body = slot.unwrap_or_else(|| {
                Err(ApiError {
                    status: 500,
                    message: "internal: miner task produced no result".to_string(),
                    param: None,
                })
            });
            (body, hit)
        })
        .collect()
}

/// `GET /v1/describe/{entity}`: a batch of one.
pub(crate) fn handle_describe_one(
    state: &AppState,
    snap: &Snapshot,
    req: &Request,
    iri: &str,
    trace: &mut Trace<'_>,
) -> Response {
    let params = match QueryParams::defaults(state.default_threads).merge_query(req) {
        Ok(p) => p,
        Err(e) => return Response::api(&e),
    };
    match describe_many(state, snap, trace, &[iri], &params).pop() {
        Some((Ok(body), hit)) => Response::ok(body).cache(if hit { "hit" } else { "miss" }),
        Some((Err(e), _)) => Response::api(&e),
        None => Response::error(500, "internal: describe produced no answer"),
    }
}

/// `POST /v1/describe`: `{"entities": [...], "k"?, "threads"?}` answers
/// `{"count", "results"}` with one body per requested slot, in order.
/// Duplicate entities mine once, and an entity that fails embeds its
/// error body instead of failing the batch.
pub(crate) fn handle_describe_batch(
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
    let Some(entities) = doc.get("entities").and_then(|v| v.as_array()) else {
        return Response::error(400, "body must be {\"entities\": [...], ...}");
    };
    if entities.is_empty() || entities.len() > MAX_BATCH {
        return Response::error(400, &format!("entities must hold 1..={MAX_BATCH} IRIs"));
    }
    // `distinct` holds each IRI once; `slots` maps every requested slot
    // to its position there.
    let mut distinct: Vec<&str> = Vec::new();
    let mut slots = Vec::with_capacity(entities.len());
    for e in entities {
        let Some(iri) = e.as_str() else {
            return Response::error(400, "entities must be strings");
        };
        slots.push(match distinct.iter().position(|&d| d == iri) {
            Some(i) => i,
            None => {
                distinct.push(iri);
                distinct.len() - 1
            }
        });
    }
    let params = match QueryParams::defaults(state.default_threads).merge_json(&doc) {
        Ok(p) => p,
        Err(e) => return Response::api(&e),
    };
    let answers = describe_many(state, snap, trace, &distinct, &params);
    let results: Vec<String> = slots
        .iter()
        .map(|&i| match answers.get(i) {
            Some((Ok(body), _)) => body.clone(),
            Some((Err(e), _)) => error_body(&e.message),
            None => error_body("internal: batch slot unanswered"),
        })
        .collect();
    Response::ok(
        JsonObject::new()
            .field_u64("count", results.len() as u64)
            .field_raw("results", &json::array_raw(results))
            .finish(),
    )
}
