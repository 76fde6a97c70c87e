//! `remi-serve` — an embedded HTTP/1.1 service layer that turns the REMI
//! miner into a queryable online system.
//!
//! The batch tools re-load the KB on every invocation; this crate keeps a
//! [`KnowledgeBase`] resident, answers describe/summarize queries concurrently, and caches rendered
//! responses so repeated queries skip mining entirely. Everything is
//! hand-rolled on `std::net` — the build image has no async runtime and
//! no registry — and all concurrency runs as scoped tasks on the
//! process-wide [`remi_pool::global`] executor:
//!
//! * [`http`] — incremental request parser + response writer, with hard
//!   bounds on head/body sizes (400/404/405/413/500/503 mapping).
//! * [`json`] — escaping, a canonical writer, and a minimal body parser.
//! * [`cache`] — the sharded LRU response cache keyed by
//!   `(request, KB fingerprint)`, counting hits/misses/evictions/purges
//!   into the metrics registry.
//! * [`client`] — the tiny blocking client used by tests, the example,
//!   and the load generator.
//! * [`serve`] / [`ServerHandle`] — the server itself: keep-alive
//!   connections, admission control (bounded in-flight work with 503
//!   load-shedding), and graceful drain on shutdown.
//!
//! # The API
//!
//! Routing is table-driven (`router.rs`): every endpoint is exactly one
//! `(method, path, admission) → handler` row at its versioned path
//! `/v1/…` (the only spelling), and `405` responses derive their `Allow`
//! header from the table. Parameter parsing and clamping go through one
//! typed extractor (`params.rs`), so every endpoint shares the same
//! limits and the same `{"error": …, "param": …}` failure envelope. Both
//! describe routes mine through one function (`describe.rs`): a GET is a
//! batch of one.
//!
//! | route                        | answer                                   |
//! |------------------------------|------------------------------------------|
//! | `GET /v1/healthz`            | liveness (exempt from request shedding)  |
//! | `GET /v1/stats`              | KB, epoch and config facts               |
//! | `GET /v1/metrics`            | Prometheus text exposition (`remi-obs`)  |
//! | `GET /v1/describe/{entity}`  | best RE(s); `?k=`                        |
//! | `POST /v1/describe`          | batched entity list, one shared miner    |
//! | `GET /v1/debug/events`       | flight-recorder tail (`?channel=&…`)     |
//! | `GET /v1/summarize/{entity}` | top-k facts; `?k=&method=`               |
//! | `POST /v1/ingest`            | append N-Triples (atomic epoch publish)  |
//! | `POST /v1/query`             | triple patterns + limit → variable rows  |
//!
//! Mining and query responses are deterministic byte-for-byte: the same
//! request on the same KB renders the same body whether it was computed or
//! cached (the `X-Remi-Cache` header says which). A `backend` request
//! parameter is unknown and ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod json;

mod describe;
mod events;
mod params;
mod query;
mod router;

pub use describe::describe_body;
pub use query::query_body;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use remi_obs::{
    series, Clock as _, Counter, Gauge, Histogram, MonoClock, Recorder, Registry, Span,
};

use remi_core::{MinerContext, Remi, RemiConfig};
use remi_kb::delta::Snapshot;
use remi_kb::pagerank::{pagerank, PageRank, PageRankConfig};
use remi_kb::{CompactionPolicy, KnowledgeBase, LiveKb, NodeId};
use remi_pool::CancelToken;

use cache::{CacheKey, ResponseCache};
use http::{Parsed, Request, RequestParser};
use json::JsonObject;

/// How long an idle keep-alive connection is held before the server closes
/// it (also the shutdown-drain latency bound for idle connections).
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket read timeout: the granularity at which blocked connection tasks
/// re-check the shutdown flag and the idle deadline.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Socket write timeout: bounds how long a non-reading client can pin a
/// worker mid-response before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Response-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Admission-control watermark: in-flight mining requests beyond this
    /// answer `503` instead of queueing unboundedly. Total open
    /// connections (idle parked ones included) are capped at 4× this
    /// (min 8), bounding file descriptors without shedding cheap idle
    /// keep-alive clients.
    pub max_inflight: usize,
    /// Background-compaction trigger: once `POST /v1/ingest` has grown the
    /// delta overlay past this many triples, a compaction task is
    /// scheduled on the shared pool to fold it into a fresh base.
    pub compact_min_delta: usize,
    /// Requests slower than this many milliseconds bump
    /// `remi_http_slow_requests_total` and log a structured one-line
    /// phase breakdown — plus the flight recorder's tail — on stderr.
    /// `None` disables the log; `Some(0)` logs every request (the test
    /// hook).
    pub slow_request_ms: Option<u64>,
    /// Flight-recorder ring capacity in events (rounded up to a power of
    /// two, minimum 8). Bounds `GET /v1/debug/events` responses and the
    /// recorder's memory no matter how long the server runs.
    pub event_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_entries: 4096,
            max_inflight: 64,
            compact_min_delta: CompactionPolicy::default().min_delta,
            slow_request_ms: None,
            event_capacity: 1024,
        }
    }
}

// ---------------------------------------------------------------------------
// Response rendering (pure functions over the KB — the integration tests
// call these directly to assert HTTP responses are byte-identical to
// library output)

/// A rendering failure: the HTTP status and error message to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status (400, 404, or 503 for cancelled work).
    pub status: u16,
    /// Human-readable message (becomes the `error` field).
    pub message: String,
    /// The offending request parameter, when the failure is attributable
    /// to one (becomes the `param` field of the error envelope).
    pub param: Option<&'static str>,
}

impl ApiError {
    fn not_found(what: impl std::fmt::Display) -> ApiError {
        ApiError {
            status: 404,
            message: format!("entity not found in KB: {what}"),
            param: None,
        }
    }

    fn bad(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
            param: None,
        }
    }

    /// A `400` attributable to one named request parameter.
    pub(crate) fn bad_param(param: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
            param: Some(param),
        }
    }
}

/// The body of an error response.
pub fn error_body(message: &str) -> String {
    JsonObject::new().field_str("error", message).finish()
}

pub(crate) fn resolve(kb: &KnowledgeBase, iri: &str) -> Result<NodeId, ApiError> {
    kb.node_id_by_iri(iri)
        .ok_or_else(|| ApiError::not_found(iri))
}

/// Renders the `summarize` response for one entity, computing what its
/// method needs from scratch — exactly what
/// `GET /v1/summarize/{entity}` answers on a cache miss.
pub fn summarize_body(
    kb: &KnowledgeBase,
    iri: &str,
    k: usize,
    method: &str,
) -> Result<String, ApiError> {
    render_summary(kb, &Derived::new(Arc::default()), iri, k, method)
}

/// Renders a `summarize` response, reading the miner context (`remi`)
/// and PageRank (`linksum`) from `derived`, which must belong to `kb`'s
/// generation.
fn render_summary(
    kb: &KnowledgeBase,
    derived: &Derived,
    iri: &str,
    k: usize,
    method: &str,
) -> Result<String, ApiError> {
    let entity = resolve(kb, iri)?;
    let summary = match method {
        "remi" => {
            let remi = Remi::with_context(kb, derived.miner(kb));
            remi_essum::remi_summary(kb, remi.model(), entity, k)
        }
        "faces" => remi_essum::faces_summary(kb, entity, k),
        "linksum" => remi_essum::linksum_summary(kb, derived.ranks(kb), entity, k),
        other => {
            return Err(ApiError::bad(format!(
                "unknown method {other:?} (expected remi, faces, or linksum)"
            )))
        }
    };
    let facts: Vec<String> = summary
        .iter()
        .map(|&(p, o)| {
            JsonObject::new()
                .field_str("predicate", kb.pred_iri(p))
                .field_str("object", kb.node_key(o))
                .finish()
        })
        .collect();
    Ok(JsonObject::new()
        .field_str("entity", iri)
        .field_str("method", method)
        .field_u64("k", k as u64)
        .field_raw("facts", &json::array_raw(facts))
        .finish())
}

// ---------------------------------------------------------------------------
// Server state

/// The fixed request-phase vocabulary: each name is one histogram series
/// (`remi_http_phase_duration_ns{phase=…}`) and one segment a [`Trace`]
/// can close.
const PHASES: &[&str] = &["parse", "admission", "cache", "mine", "ingest", "write"];

/// The serve layer's instruments, every one an `Arc` created through the
/// registry at boot so `/v1/metrics` exposes it from the first scrape.
/// Counters are monotonic; `connections_open` and `inflight` saturate at
/// zero on decrement (the historical `connections_open` underflow on the
/// parked-connection revive path cannot recur). The per-route 200-status
/// latency histograms are resolved once (aligned with `router::TABLE`),
/// so the hot path records without touching the registry lock; non-200
/// series go through get-or-create, which only rare responses pay for.
struct Metrics {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    client_errors: Arc<Counter>,
    server_errors: Arc<Counter>,
    shed: Arc<Counter>,
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    inflight: Arc<Gauge>,
    /// `(route name, histogram)` for `status="200"`, one per table row.
    route_ok: Vec<(&'static str, Arc<Histogram>)>,
    /// `(phase name, histogram)`, one per [`PHASES`] entry.
    phases: Vec<(&'static str, Arc<Histogram>)>,
    /// Requests past the `--slow-request-ms` threshold.
    slow: Arc<Counter>,
    /// Miner contexts built (at most one per KB generation, plus one per
    /// request pinned on a generation that rotated away).
    miner_builds: Arc<Counter>,
}

/// Status values whose per-route latency families are pre-registered at
/// boot, so a `/v1/metrics` scrape before any traffic already exposes
/// every route's histogram series (`scripts/metrics_check.py` asserts
/// this). Only the `"200"` cells are kept pre-resolved on the hot path;
/// the rest sit in the registry until a response of that status needs
/// them via get-or-create.
const PREREGISTERED_STATUSES: &[&str] = &["200", "400", "500", "503"];

impl Metrics {
    fn register(registry: &Registry) -> Metrics {
        for r in router::TABLE {
            for status in PREREGISTERED_STATUSES {
                registry.histogram(&series(
                    "remi_http_request_duration_ns",
                    &[("route", r.name), ("status", status)],
                ));
            }
        }
        let class =
            |c: &str| registry.counter(&series("remi_http_responses_total", &[("class", c)]));
        Metrics {
            requests: registry.counter("remi_http_requests_total"),
            ok: class("ok"),
            client_errors: class("client_error"),
            server_errors: class("server_error"),
            shed: registry.counter("remi_http_shed_total"),
            connections_total: registry.counter("remi_connections_total"),
            connections_open: registry.gauge("remi_connections_open"),
            inflight: registry.gauge("remi_http_inflight"),
            route_ok: router::TABLE
                .iter()
                .map(|r| {
                    let name = series(
                        "remi_http_request_duration_ns",
                        &[("route", r.name), ("status", "200")],
                    );
                    (r.name, registry.histogram(&name))
                })
                .collect(),
            phases: PHASES
                .iter()
                .map(|&p| {
                    let name = series("remi_http_phase_duration_ns", &[("phase", p)]);
                    (p, registry.histogram(&name))
                })
                .collect(),
            slow: registry.counter("remi_http_slow_requests_total"),
            miner_builds: registry.counter("remi_miner_builds_total"),
        }
    }
}

/// Per-request trace state threaded through dispatch: the timing span
/// (started before the request parsed), the matched route's table name,
/// and whether `?trace=1` asked for the phase breakdown to be echoed in
/// the response body.
pub(crate) struct Trace<'c> {
    pub(crate) span: Span<'c>,
    pub(crate) route: &'static str,
    pub(crate) echo: bool,
    /// `?explain=1`: `POST /v1/query` bypasses the cache and carries its own
    /// plan trace in the response body (see `query.rs`).
    pub(crate) explain: bool,
}

/// What requests derive from one KB generation's content and share: the
/// miner context (describe, and summarize's `remi` method) and PageRank
/// (`linksum`). Each is built at most once, by the first request that
/// needs it; concurrent first requests wait on that one build. It owns
/// no KB, so it never pins a folded base in memory.
pub(crate) struct Derived {
    /// `remi_miner_builds_total`.
    builds: Arc<Counter>,
    miner: OnceLock<Arc<MinerContext>>,
    ranks: OnceLock<PageRank>,
}

impl Derived {
    fn new(builds: Arc<Counter>) -> Derived {
        Derived {
            builds,
            miner: OnceLock::new(),
            ranks: OnceLock::new(),
        }
    }

    /// The miner context (sequential REMI, the default configuration) of
    /// `kb`, which must hold this generation's content.
    pub(crate) fn miner(&self, kb: &KnowledgeBase) -> Arc<MinerContext> {
        let context = self.miner.get_or_init(|| {
            self.builds.inc();
            Arc::new(MinerContext::new(kb, RemiConfig::default()))
        });
        Arc::clone(context)
    }

    /// PageRank over `kb`, which must hold this generation's content.
    fn ranks(&self, kb: &KnowledgeBase) -> &PageRank {
        self.ranks
            .get_or_init(|| pagerank(kb, PageRankConfig::default()))
    }
}

pub(crate) struct AppState {
    /// The resident KB, now appendable: `POST /v1/ingest` publishes new
    /// epochs, every request pins one [`Snapshot`].
    pub(crate) live: LiveKb,
    cache: ResponseCache,
    metrics: Metrics,
    /// The one store of every count `/v1/metrics` renders: the HTTP cells
    /// above, the cache's counters, the shared pool's scheduling
    /// counters, and the live KB's ingest/publish/compaction instruments.
    pub(crate) registry: Registry,
    /// The one monotonic time source for request spans, idle deadlines,
    /// and uptime (`remi-lint` rejects raw `Instant::now` in instrumented
    /// files — all serve timing flows through this clock).
    pub(crate) clock: MonoClock,
    slow_request_ms: Option<u64>,
    max_inflight: u64,
    /// Hard cap on simultaneously open connections (4 × `max_inflight`,
    /// min 8): idle parked connections are cheap, so this only bounds
    /// file descriptors and parser buffers.
    max_conns: u64,
    /// The state derived from the current generation's content, keyed by
    /// `(epoch, fingerprint)`: validity is by *fingerprint* (equal
    /// fingerprint ⟹ equal content and numbering, so it survives
    /// compactions, which bump the epoch but not the fingerprint), while
    /// the epoch orders generations so an old-epoch straggler never
    /// evicts the current one. The lock is held only to swap an `Arc`.
    generation: Mutex<(u64, u64, Arc<Derived>)>,
    /// The process-wide flight recorder: the planner, the live KB, the
    /// pool, and the HTTP layer all emit into this one bounded ring;
    /// `GET /v1/debug/events` and the slow/500 stderr tails read it back.
    pub(crate) events: Arc<Recorder>,
    /// Planner event ids, interned at boot, emitted per `/query` miss.
    pub(crate) query_events: remi_kb::QueryEvents,
    /// Serve-layer event ids (500s, slow requests).
    http_events: events::HttpEvents,
    /// Quiet keep-alive connections waiting for bytes (see the
    /// connection-handling section): their tasks have returned and the
    /// accept thread's poll loop revives them.
    parked: Mutex<Vec<Conn>>,
    /// Ingestion asked for a compaction; the accept thread's poll loop
    /// spawns it as a pool task (it owns the scope connections run on).
    compaction_wanted: AtomicBool,
    /// A compaction task is currently folding the delta.
    compaction_running: AtomicBool,
    pub(crate) shutdown: CancelToken,
}

impl AppState {
    /// The derived state of the pinned snapshot's generation. A request
    /// pinned on an *older* epoch gets a private one and leaves the slot
    /// alone: stragglers must not evict the state the current epoch's
    /// requests share.
    pub(crate) fn derived_for(&self, snap: &Snapshot) -> Arc<Derived> {
        let mut slot = self.generation.lock();
        let (epoch, fingerprint, derived) = &*slot;
        if *fingerprint == snap.fingerprint {
            return Arc::clone(derived);
        }
        let fresh = Arc::new(Derived::new(Arc::clone(&self.metrics.miner_builds)));
        if *epoch < snap.epoch {
            *slot = (snap.epoch, snap.fingerprint, Arc::clone(&fresh));
        }
        fresh
    }

    /// Caches a body rendered under `key.kb` — unless that generation
    /// rotated away while it was being rendered: the eager purge already
    /// dropped its entries, and re-seeding would resurrect one. (The check
    /// races rotation by design — an entry that slips through is
    /// unreachable but bounded: the next rotation's purge drops every
    /// non-live generation.)
    pub(crate) fn seed(&self, key: CacheKey, body: &str) {
        if self.live.snapshot().fingerprint == key.kb {
            self.cache.put(key, Arc::from(body));
        }
    }
}

/// Decrements a gauge on drop (saturating — see [`remi_obs::Gauge::dec`]).
struct GaugeGuard<'a>(&'a Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.dec();
    }
}

// ---------------------------------------------------------------------------
// Request handling

pub(crate) struct Response {
    status: u16,
    headers: Vec<(&'static str, String)>,
    body: String,
    /// The `Content-Type` answered — JSON everywhere except `/v1/metrics`.
    content_type: &'static str,
}

impl Response {
    pub(crate) fn ok(body: String) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// A `200` carrying a non-JSON body (`/v1/metrics`' text exposition).
    pub(crate) fn text(body: String) -> Response {
        Response {
            status: 200,
            headers: Vec::new(),
            body,
            content_type: "text/plain; version=0.0.4",
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: error_body(message),
            content_type: "application/json",
        }
    }

    /// Renders an [`ApiError`] as the shared error envelope
    /// (`{"error": …}` plus `"param"` when the failure names one).
    pub(crate) fn api(e: &ApiError) -> Response {
        let mut obj = JsonObject::new().field_str("error", &e.message);
        if let Some(param) = e.param {
            obj = obj.field_str("param", param);
        }
        Response {
            status: e.status,
            headers: Vec::new(),
            body: obj.finish(),
            content_type: "application/json",
        }
    }

    pub(crate) fn method_not_allowed(allow: &str) -> Response {
        let mut r = Response::error(405, "method not allowed");
        r.headers.push(("Allow", allow.to_string()));
        r
    }

    /// Adds the `X-Remi-Cache` header: `hit`, `miss`, or `bypass`.
    pub(crate) fn cache(mut self, verdict: &'static str) -> Response {
        self.headers.push(("X-Remi-Cache", verdict.to_string()));
        self
    }
}

/// Consults the cache for `request_key` under the pinned snapshot's
/// fingerprint, rendering and inserting on a miss. The `X-Remi-Cache`
/// header reports which path answered; the body bytes are identical
/// either way. Closes the `cache` trace phase at the probe and the
/// `mine` phase around the render.
pub(crate) fn cached(
    state: &AppState,
    snap: &Snapshot,
    trace: &mut Trace<'_>,
    request_key: String,
    render: impl FnOnce() -> Result<String, ApiError>,
) -> Response {
    let key = CacheKey {
        request: request_key,
        kb: snap.fingerprint,
    };
    if let Some(body) = state.cache.get(&key) {
        trace.span.phase("cache");
        return Response::ok(body.to_string()).cache("hit");
    }
    trace.span.phase("cache");
    let rendered = render();
    trace.span.phase("mine");
    match rendered {
        Ok(body) => {
            state.seed(key, &body);
            Response::ok(body).cache("miss")
        }
        Err(e) => Response::api(&e),
    }
}

pub(crate) fn handle_healthz(
    _state: &AppState,
    _snap: &Snapshot,
    _req: &Request,
    _tail: &str,
    _trace: &mut Trace<'_>,
) -> Response {
    Response::ok(JsonObject::new().field_str("status", "ok").finish())
}

/// `GET /v1/metrics`: every registered instrument (HTTP latency and phase
/// histograms, request/connection/cache counters, pool scheduling, KB
/// ingest/publish/compaction) in Prometheus text exposition format. The
/// level gauges (epoch, triples, delta, cache entries, uptime) are set
/// from the pinned snapshot first, so the registry renders everything.
pub(crate) fn handle_metrics(
    state: &AppState,
    snap: &Snapshot,
    _req: &Request,
    _tail: &str,
    _trace: &mut Trace<'_>,
) -> Response {
    let r = &state.registry;
    r.gauge("remi_kb_epoch").set(snap.epoch);
    r.gauge("remi_kb_triples").set(snap.kb.num_triples() as u64);
    r.gauge("remi_kb_delta_triples")
        .set(snap.delta_triples() as u64);
    r.gauge("remi_cache_entries")
        .set(state.cache.entries() as u64);
    r.gauge("remi_uptime_seconds")
        .set(state.clock.now_ns() / 1_000_000_000);
    Response::text(r.render_prometheus())
}

/// `GET /v1/stats`: facts about the pinned snapshot and the configuration.
/// Counts and latencies live in `/v1/metrics` only.
pub(crate) fn handle_stats(
    state: &AppState,
    snap: &Snapshot,
    _req: &Request,
    _tail: &str,
    _trace: &mut Trace<'_>,
) -> Response {
    let kb = &snap.kb;
    let body = JsonObject::new()
        .field_raw(
            "kb",
            &JsonObject::new()
                .field_u64("triples", kb.num_triples() as u64)
                .field_u64(
                    "triples_with_inverses",
                    kb.num_triples_with_inverses() as u64,
                )
                .field_u64("nodes", kb.num_nodes() as u64)
                .field_u64("predicates", kb.num_preds() as u64)
                .field_str("fingerprint", &format!("{:016x}", snap.fingerprint))
                .field_u64("store_bytes", kb.store_memory().total() as u64)
                .finish(),
        )
        .field_raw(
            "live",
            &JsonObject::new()
                .field_u64("epoch", snap.epoch)
                .field_u64("delta_triples", snap.delta_triples() as u64)
                .field_u64("base_facts", snap.base_facts() as u64)
                .field_bool(
                    "compaction_running",
                    state.compaction_running.load(Ordering::Acquire),
                )
                .finish(),
        )
        .field_raw(
            "cache",
            &JsonObject::new()
                .field_u64("capacity", state.cache.capacity() as u64)
                .finish(),
        )
        .field_raw(
            "server",
            &JsonObject::new()
                .field_u64("max_inflight", state.max_inflight)
                .field_u64("max_connections", state.max_conns)
                .finish(),
        )
        .finish();
    Response::ok(body)
}

/// `POST /v1/ingest`: appends an N-Triples body to the live KB. One batch is
/// one atomic publish — a parse error applies nothing. A successful
/// append rotates the fingerprint, purges stale response-cache
/// generations, and (past the compaction threshold) schedules a
/// background fold on the shared pool.
pub(crate) fn handle_ingest(
    state: &AppState,
    _snap: &Snapshot,
    req: &Request,
    _tail: &str,
    trace: &mut Trace<'_>,
) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body must be UTF-8 N-Triples");
    };
    if body.trim().is_empty() {
        return Response::error(400, "empty body (expected N-Triples)");
    }
    let appended = state.live.append_ntriples(body);
    trace.span.phase("ingest");
    let outcome = match appended {
        Ok(outcome) => outcome,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    // Purge against the fingerprint that is current *now*, not this
    // batch's: if another ingest already rotated past us, purging with
    // our own (dead) fingerprint would evict the live generation and
    // keep the dead one.
    let purged = if outcome.appended > 0 {
        state.cache.purge_stale(state.live.snapshot().fingerprint)
    } else {
        0
    };
    // Always record the wish, even while a fold is running: batches that
    // land mid-fold stay out of that fold's pinned generation, so the
    // poll loop must schedule another pass once the current one ends.
    let compaction = if state.live.needs_compaction() {
        state.compaction_wanted.store(true, Ordering::Release);
        if state.compaction_running.load(Ordering::Acquire) {
            "running"
        } else {
            "scheduled"
        }
    } else if state.compaction_running.load(Ordering::Acquire) {
        "running"
    } else {
        "none"
    };
    Response::ok(
        JsonObject::new()
            .field_u64("appended", outcome.appended as u64)
            .field_u64("duplicates", outcome.duplicates as u64)
            .field_u64("new_nodes", outcome.new_nodes as u64)
            .field_u64("new_predicates", outcome.new_preds as u64)
            .field_u64("epoch", outcome.epoch)
            .field_str("fingerprint", &format!("{:016x}", outcome.fingerprint))
            .field_u64("delta_triples", outcome.delta_triples as u64)
            .field_u64("cache_purged", purged)
            .field_str("compaction", compaction)
            .finish(),
    )
}

pub(crate) fn handle_summarize(
    state: &AppState,
    snap: &Snapshot,
    req: &Request,
    iri: &str,
    trace: &mut Trace<'_>,
) -> Response {
    let params = match params::QueryParams::defaults().with_k(5).merge_query(req) {
        Ok(p) => p,
        Err(e) => return Response::api(&e),
    };
    let (k, method) = (params.k, params.method);
    cached(
        state,
        snap,
        trace,
        format!("summarize?entity={iri}&k={k}&method={method}"),
        || render_summary(&snap.kb, &state.derived_for(snap), iri, k, &method),
    )
}

/// Request-level admission control: mining work beyond the watermark is
/// shed with `503` + `Retry-After` instead of queueing unboundedly.
/// Closes the `admission` trace phase once the request is let through.
pub(crate) fn with_admission(
    state: &AppState,
    req: &Request,
    trace: &mut Trace<'_>,
    handler: impl FnOnce(&AppState, &Request, &mut Trace<'_>) -> Response,
) -> Response {
    let inflight = state.metrics.inflight.inc();
    let _guard = GaugeGuard(&state.metrics.inflight);
    if inflight > state.max_inflight {
        state.metrics.shed.inc();
        let mut r = Response::error(503, "server overloaded, retry later");
        r.headers.push(("Retry-After", "1".to_string()));
        return r;
    }
    trace.span.phase("admission");
    handler(state, req, trace)
}

/// Routes a request, turning panics into `500` and updating counters.
fn respond(state: &AppState, req: &Request, trace: &mut Trace<'_>) -> Response {
    state.metrics.requests.inc();
    let response =
        std::panic::catch_unwind(AssertUnwindSafe(|| router::dispatch(state, req, trace)))
            .unwrap_or_else(|_| Response::error(500, "internal server error"));
    let class = match response.status {
        200..=299 => &state.metrics.ok,
        503 => &state.metrics.shed, // already counted at the shed site
        400..=499 => &state.metrics.client_errors,
        _ => &state.metrics.server_errors,
    };
    if response.status != 503 {
        class.inc();
    }
    if response.status >= 500 && response.status != 503 {
        // A server error is exactly what the flight recorder exists for:
        // record it, then dump the tail (which now includes this event)
        // so the operator sees what led up to the failure.
        state.http_events.record_error(
            &state.events,
            state.clock.now_ns(),
            trace.route,
            response.status,
        );
        events::dump_tail(state, "http-500");
    }
    if trace.echo {
        return with_trace_echo(response, trace);
    }
    response
}

/// Splices a `"trace"` object — the route, the total so far, and every
/// phase closed before the write — into a 200 JSON object body when the
/// request asked with `?trace=1`. The echo happens after the cache, per
/// request, so cached bodies (and the cache key) stay trace-free.
fn with_trace_echo(mut response: Response, trace: &Trace<'_>) -> Response {
    if response.status != 200
        || response.content_type != "application/json"
        || !response.body.ends_with('}')
    {
        return response;
    }
    let phases: Vec<String> = trace
        .span
        .phases()
        .iter()
        .map(|(name, ns)| {
            JsonObject::new()
                .field_str("phase", name)
                .field_u64("ns", *ns)
                .finish()
        })
        .collect();
    let obj = JsonObject::new()
        .field_str("route", trace.route)
        .field_u64("total_ns", trace.span.elapsed_ns())
        .field_raw("phases", &json::array_raw(phases))
        .finish();
    response.body.pop();
    if !response.body.ends_with('{') {
        response.body.push(',');
    }
    response.body.push_str("\"trace\":");
    response.body.push_str(&obj);
    response.body.push('}');
    response
}

/// Folds a finished request into the HTTP instruments: the per-route ×
/// per-status latency histogram, one histogram per closed phase, and —
/// past the `--slow-request-ms` threshold — the slow counter plus a
/// structured one-line breakdown on stderr.
fn finish_request(state: &AppState, trace: Trace<'_>, status: u16) {
    let route = trace.route;
    let report = trace.span.finish();
    if status == 200 {
        // The hot path: pre-resolved at boot, no registry lock.
        if let Some((_, h)) = state.metrics.route_ok.iter().find(|(n, _)| *n == route) {
            h.record(report.total_ns);
        }
    } else {
        state
            .registry
            .histogram(&series(
                "remi_http_request_duration_ns",
                &[("route", route), ("status", &status.to_string())],
            ))
            .record(report.total_ns);
    }
    for (phase, ns) in &report.phases {
        if let Some((_, h)) = state.metrics.phases.iter().find(|(n, _)| n == phase) {
            h.record(*ns);
        }
    }
    let Some(threshold_ms) = state.slow_request_ms else {
        return;
    };
    if report.total_ns < threshold_ms.saturating_mul(1_000_000) {
        return;
    }
    state.metrics.slow.inc();
    state
        .http_events
        .record_slow(&state.events, state.clock.now_ns(), route, report.total_ns);
    let mut line = format!(
        "slow-request route={route} status={status} total_us={}",
        report.total_ns / 1_000
    );
    for (phase, ns) in &report.phases {
        line.push_str(&format!(" {phase}_us={}", ns / 1_000));
    }
    // lint:allow(print-in-library): the slow-request log is the operator-facing diagnostic this endpoint exists to emit
    eprintln!("{line}");
    events::dump_tail(state, "slow-request");
}

// ---------------------------------------------------------------------------
// Connection handling
//
// A connection task occupies a pool worker only while it is actively
// parsing or answering. When the socket goes quiet, the task *parks* the
// connection (stream + parser state) in `AppState::parked` and returns,
// freeing the worker; the accept thread's poll loop `peek`s parked
// sockets and re-spawns a task when bytes arrive. Without this, one idle
// keep-alive connection would pin a worker for its whole lifetime — on a
// small pool (1–2 cores) that starves every other connection.

/// One parked (or in-flight) connection's state.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Close when idle past this clock reading (refreshed per request;
    /// nanoseconds on the server's [`MonoClock`]).
    expires_ns: u64,
    /// Set when the connection was parked for fairness with complete
    /// input still buffered in the parser: the sweep revives it on the
    /// next tick instead of waiting for socket-visible bytes.
    resume: bool,
    /// Owns the `connections_open` decrement (runs wherever the
    /// connection is dropped — task, parked sweep, or state teardown).
    _gauge: OpenGauge,
}

/// Decrements `connections_open` on drop. The decrement saturates at
/// zero ([`remi_obs::Gauge::dec`]): a connection dropped twice on the
/// parked-revive path pins the gauge at 0 instead of wrapping
/// `remi_connections_open` to 2^64-1.
struct OpenGauge(Arc<AppState>);

impl Drop for OpenGauge {
    fn drop(&mut self) {
        self.0.metrics.connections_open.dec();
    }
}

/// After this many back-to-back requests, a hot connection on a contended
/// pool yields its worker (parks) so queued connections get a turn.
const FAIRNESS_BURST: usize = 256;

impl AppState {
    /// Parks a quiet connection for the poll loop to revive.
    fn park(&self, conn: Conn) {
        if conn.stream.set_nonblocking(true).is_err() {
            return; // dropping the conn closes it and fixes the gauge
        }
        self.parked.lock().push(conn);
    }

    /// More open connections than pool workers: hot connections must
    /// yield between bursts or the rest starve.
    fn contended(&self) -> bool {
        self.metrics.connections_open.get() > remi_pool::global().threads() as u64
    }

    /// The idle deadline a request refresh (or a fresh accept) grants.
    fn idle_deadline_ns(&self) -> u64 {
        self.clock.now_ns() + IDLE_TIMEOUT.as_nanos() as u64
    }
}

/// Serves one connection until it closes, errors, or goes quiet (then it
/// parks). Runs as a scoped task on the shared pool.
fn drive_connection(mut conn: Conn, state: &Arc<AppState>) {
    // The write timeout bounds how long a client that stops reading can
    // pin this worker; on expiry write_all errors and the connection
    // closes.
    if conn.stream.set_nonblocking(false).is_err()
        || conn.stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || conn.stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    conn.resume = false;
    let mut buf = [0u8; 4096];
    let mut burst = 0usize;
    loop {
        // Drain any fully-buffered (possibly pipelined) request first.
        // The span opens before the parse attempt so the `parse` phase
        // covers it; on NeedMore the span is dropped unused (one clock
        // read, no allocation).
        let mut span = Span::start(&state.clock);
        match conn.parser.try_parse() {
            Ok(Parsed::Complete(req)) => {
                span.phase("parse");
                let mut trace = Trace {
                    span,
                    route: "unmatched",
                    echo: req.query_param("trace") == Some("1"),
                    explain: req.query_param("explain") == Some("1"),
                };
                // Draining on shutdown: answer every request already
                // received (the parser may hold more complete pipelined
                // ones), then close instead of waiting for new ones.
                let draining = state.shutdown.is_cancelled();
                let keep_alive = req.keep_alive && (!draining || conn.parser.buffered() > 0);
                let response = respond(state, &req, &mut trace);
                let headers: Vec<(&str, &str)> = response
                    .headers
                    .iter()
                    .map(|(n, v)| (*n, v.as_str()))
                    .collect();
                let bytes = http::write_response_typed(
                    response.status,
                    response.content_type,
                    &headers,
                    &response.body,
                    keep_alive,
                );
                let write_ok = conn.stream.write_all(&bytes).is_ok();
                trace.span.phase("write");
                finish_request(state, trace, response.status);
                if !write_ok || !keep_alive {
                    return;
                }
                conn.expires_ns = state.idle_deadline_ns();
                burst += 1;
                if burst >= FAIRNESS_BURST && state.contended() {
                    // Yield the worker even mid-pipeline: `resume` tells
                    // the sweep to re-spawn on the next tick rather than
                    // wait for `peek` (the buffered bytes are invisible
                    // to the socket).
                    conn.resume = conn.parser.buffered() > 0;
                    return state.park(conn);
                }
                let pool = remi_pool::global();
                if pool.queued() > 0 && pool.idle_workers() == 0 {
                    // Work is waiting (another connection, a background
                    // compaction) and no idle worker will pick it up:
                    // yield between requests. Without this, one chatty
                    // keep-alive socket that never goes quiet for a full
                    // read timeout pins its worker indefinitely — on a
                    // 1-worker pool that starves every queued job. The
                    // idle-worker guard keeps already-claimed nested-
                    // scope stubs (which inflate `queued` until popped)
                    // from parking connections the pool could never
                    // benefit from freeing.
                    conn.resume = conn.parser.buffered() > 0;
                    return state.park(conn);
                }
                continue;
            }
            Ok(Parsed::NeedMore) => {}
            Err(e) => {
                // Protocol error: answer with its status and close (the
                // stream is no longer in sync).
                state.metrics.requests.inc();
                state.metrics.client_errors.inc();
                let bytes = http::write_response(e.status, &[], &error_body(&e.message), false);
                let _ = conn.stream.write_all(&bytes);
                return;
            }
        }
        if state.shutdown.is_cancelled() {
            // No complete request buffered (NeedMore above): close. A
            // partial request is dropped — only fully-received requests
            // are part of the drain guarantee.
            return;
        }
        if state.clock.now_ns() >= conn.expires_ns {
            return;
        }
        match conn.stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            // lint:allow(panic-in-serve): `read` contract guarantees n <= buf.len()
            Ok(n) => conn.parser.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Quiet for a full read-timeout tick: park instead of
                // pinning the worker (unless we are shutting down, in
                // which case closing *is* the drain).
                if state.shutdown.is_cancelled() {
                    return;
                }
                return state.park(conn);
            }
            Err(_) => return,
        }
    }
}

/// Shortest poll-loop nap: the sweep granularity while traffic flows.
const POLL_NAP_MIN: Duration = Duration::from_millis(1);

/// Longest poll-loop nap: where the idle backoff settles, so an idle
/// server burns ~50 wakeups/s instead of ~1000 while still noticing new
/// connections, revived parked sockets, and shutdown within one tick.
const POLL_NAP_MAX: Duration = Duration::from_millis(20);

/// The adaptive nap schedule: any progress snaps back to the 1 ms floor;
/// quiet ticks double the nap toward the 20 ms ceiling.
fn next_nap(current: Duration, progressed: bool) -> Duration {
    if progressed {
        POLL_NAP_MIN
    } else {
        (current * 2).min(POLL_NAP_MAX)
    }
}

/// Spawns the background compaction task when ingestion asked for one and
/// none is already running. Runs on the accept loop (it owns the scope);
/// the fold itself runs as a pool task so connections keep being served.
fn maybe_spawn_compaction(state: &Arc<AppState>, scope: &remi_pool::Scope<'_, '_>) -> bool {
    if !state.compaction_wanted.load(Ordering::Acquire)
        || state.compaction_running.swap(true, Ordering::AcqRel)
    {
        return false;
    }
    state.compaction_wanted.store(false, Ordering::Release);
    let state = Arc::clone(state);
    scope.spawn(move || {
        // Re-check under the running flag: a compaction that raced this
        // request may already have folded the delta.
        if state.live.needs_compaction() {
            // Content is unchanged by a fold, so the fingerprint — and
            // with it every cached response — stays valid.
            let _ = state.live.compact();
        }
        state.compaction_running.store(false, Ordering::Release);
    });
    true
}

/// Scans parked connections: revives those with readable bytes, closes
/// peers that disconnected or idled out. Returns true when any
/// connection changed state.
fn sweep_parked(state: &Arc<AppState>, scope: &remi_pool::Scope<'_, '_>) -> bool {
    let mut progressed = false;
    let now = state.clock.now_ns();
    let mut parked = state.parked.lock();
    let mut i = 0;
    while i < parked.len() {
        let mut probe = [0u8; 1];
        // lint:allow(panic-in-serve): `i < parked.len()` is the loop guard, so the index is in bounds
        let entry = &parked[i];
        let verdict = if entry.resume {
            Some(true) // fairness-parked with input already buffered
        } else {
            match entry.stream.peek(&mut probe) {
                Ok(0) => Some(false), // peer closed
                Ok(_) => Some(true),  // bytes waiting
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if now >= entry.expires_ns {
                        Some(false) // idled out
                    } else {
                        None // still parked
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => None,
                Err(_) => Some(false),
            }
        };
        match verdict {
            Some(true) => {
                let conn = parked.swap_remove(i);
                let state = Arc::clone(state);
                scope.spawn(move || drive_connection(conn, &state));
                progressed = true;
            }
            Some(false) => {
                drop(parked.swap_remove(i)); // closes + fixes the gauge
                progressed = true;
            }
            None => i += 1,
        }
    }
    progressed
}

fn accept_loop(listener: TcpListener, state: Arc<AppState>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    // Every connection runs as scoped tasks on the shared executor; the
    // scope only closes once all of them have drained, which is exactly
    // the graceful-shutdown barrier.
    remi_pool::global().scope(|scope| {
        let mut nap = POLL_NAP_MIN;
        loop {
            let mut progressed = false;
            // Drain the accept backlog.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        if state.shutdown.is_cancelled() {
                            break;
                        }
                        state.metrics.connections_total.inc();
                        let open = state.metrics.connections_open.inc();
                        let gauge = OpenGauge(Arc::clone(&state));
                        if open > state.max_conns {
                            // Connection-level shedding: bounds file
                            // descriptors and parser buffers; the mining
                            // watermark is enforced per request.
                            state.metrics.shed.inc();
                            let mut stream = stream;
                            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                            let bytes = http::write_response(
                                503,
                                &[("Retry-After", "1")],
                                &error_body("server overloaded, retry later"),
                                false,
                            );
                            let _ = stream.write_all(&bytes);
                            drop(gauge);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let conn = Conn {
                            stream,
                            parser: RequestParser::new(),
                            expires_ns: state.idle_deadline_ns(),
                            resume: false,
                            _gauge: gauge,
                        };
                        let state = Arc::clone(&state);
                        scope.spawn(move || drive_connection(conn, &state));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break, // transient (EMFILE, ECONNABORTED)
                }
            }
            if state.shutdown.is_cancelled() {
                // Drain parked connections: fairness-parked ones still
                // hold complete pipelined requests (`resume`) and get one
                // final task to answer them; idle ones are between
                // requests, so closing them *is* the drain. In-flight
                // tasks finish via the scope join.
                let drained: Vec<Conn> = std::mem::take(&mut *state.parked.lock());
                for conn in drained {
                    if conn.resume {
                        let state = Arc::clone(&state);
                        scope.spawn(move || drive_connection(conn, &state));
                    }
                }
                break;
            }
            progressed |= sweep_parked(&state, scope);
            progressed |= maybe_spawn_compaction(&state, scope);
            nap = next_nap(nap, progressed);
            if !progressed {
                std::thread::sleep(nap);
            }
        }
    });
    // The scope join above waited for every in-flight task, so any task
    // that raced the pre-break clear and parked afterwards has finished
    // its push by now: one final clear closes those connections instead
    // of leaving them silently open until the state itself drops.
    state.parked.lock().clear();
}

// ---------------------------------------------------------------------------
// The server façade

/// A running server. Dropping the handle shuts the server down
/// gracefully: the listener stops accepting, in-flight requests drain on
/// the pool, and the accept thread is joined.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` for this server.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Signals shutdown (SIGTERM-equivalent): sets the shared
    /// [`CancelToken`]; the poll loop stops accepting, closes parked
    /// (between-requests) connections, and the accept thread is joined
    /// once every in-flight request has drained. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.shutdown.cancel();
        // The poll loop notices the flag within one nap tick; no wakeup
        // connection is needed (the listener is non-blocking).
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Blocks until the server shuts down (the `remi serve` foreground
    /// path — some other actor must call for shutdown).
    pub fn wait(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Boots a server over `kb`: binds `config.addr`, wraps the KB for live
/// ingestion, fingerprints it, and starts the accept loop on a dedicated
/// thread (connections run on the shared pool).
pub fn serve(kb: KnowledgeBase, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // The server treats `compact_min_delta` as an absolute trigger (no
    // relative fraction): operators size it to their KB, and the fold
    // runs off the request path anyway.
    let live = LiveKb::with_policy(
        kb,
        CompactionPolicy {
            min_delta: config.compact_min_delta.max(1),
            delta_fraction: 0.0,
        },
    );
    // One registry per server and the only store of every count: the
    // HTTP and cache instruments are created through it, while the shared
    // pool's scheduling counters and the live KB's ingest/publish/
    // compaction instruments (both built standalone, registry-free) are
    // attached by `Arc` so `/v1/metrics` renders them too.
    let registry = Registry::new();
    let pm = remi_pool::global().metrics();
    registry.register_counter("remi_pool_steals_total", Arc::clone(&pm.steals));
    registry.register_counter("remi_pool_claims_total", Arc::clone(&pm.claims));
    registry.register_counter("remi_pool_parks_total", Arc::clone(&pm.parks));
    registry.register_counter("remi_pool_revives_total", Arc::clone(&pm.revives));
    registry.register_counter("remi_pool_help_drains_total", Arc::clone(&pm.help_drains));
    registry.register_gauge("remi_pool_queue_depth", Arc::clone(&pm.queue_depth));
    let ki = live.instruments();
    registry.register_histogram("remi_kb_publish_duration_ns", Arc::clone(&ki.publish_ns));
    registry.register_histogram(
        "remi_kb_ingest_batch_triples",
        Arc::clone(&ki.batch_triples),
    );
    registry.register_histogram(
        "remi_kb_publish_delta_triples",
        Arc::clone(&ki.delta_triples),
    );
    registry.register_histogram("remi_kb_compact_duration_ns", Arc::clone(&ki.compact_ns));
    registry.register_counter(
        "remi_kb_compactions_total{outcome=\"performed\"}",
        Arc::clone(&ki.compactions_performed),
    );
    registry.register_counter(
        "remi_kb_compactions_total{outcome=\"skipped\"}",
        Arc::clone(&ki.compactions_skipped),
    );
    registry.register_counter("remi_kb_ingests_total", Arc::clone(&ki.appends));
    registry.register_counter(
        "remi_kb_ingested_triples_total",
        Arc::clone(&ki.appended_triples),
    );
    registry.register_counter(
        "remi_kb_duplicate_triples_total",
        Arc::clone(&ki.duplicate_triples),
    );
    let metrics = Metrics::register(&registry);
    let cache = ResponseCache::new(config.cache_entries, &registry);
    // One flight recorder per server, one clock anchor for every emitter:
    // `MonoClock` is `Copy`, so the KB's and the pool's injected clocks
    // share the request spans' time base and event timestamps line up
    // with phase timings. The pool is process-wide — its first attachment
    // wins, so in a multi-server process pool events land in the first
    // server's ring (and only there).
    let clock = MonoClock::new();
    let events = Recorder::shared(config.event_capacity);
    live.attach_events(Arc::clone(&events), Arc::new(clock));
    remi_pool::global().attach_events(Arc::clone(&events), Arc::new(clock));
    let query_events = remi_kb::QueryEvents::new(Arc::clone(&events));
    let http_events = events::HttpEvents::new(&events);
    let boot = live.snapshot();
    let generation = (
        boot.epoch,
        boot.fingerprint,
        Arc::new(Derived::new(Arc::clone(&metrics.miner_builds))),
    );
    let state = Arc::new(AppState {
        live,
        cache,
        metrics,
        registry,
        clock,
        slow_request_ms: config.slow_request_ms,
        max_inflight: config.max_inflight.max(1) as u64,
        max_conns: (config.max_inflight.max(1) as u64).saturating_mul(4).max(8),
        events,
        query_events,
        http_events,
        generation: Mutex::new(generation),
        parked: Mutex::new(Vec::new()),
        compaction_wanted: AtomicBool::new(false),
        compaction_running: AtomicBool::new(false),
        shutdown: CancelToken::new(),
    });
    let accept_state = Arc::clone(&state);
    // lint:allow(raw-thread-primitive): the accept loop must outlive any pool scope and owns the listener — a dedicated OS thread is the design, not a parallelism shortcut
    let thread = std::thread::Builder::new()
        .name("remi-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_state))?;
    Ok(ServerHandle {
        addr,
        state,
        thread: Some(thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use remi_core::{Remi, RemiConfig};

    fn tiny_kb() -> KnowledgeBase {
        let mut b = remi_kb::KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:cityIn", "e:France");
        b.add_iri("e:Lyon", "p:cityIn", "e:France");
        b.add_iri("e:Marseille", "p:cityIn", "e:France");
        b.build().unwrap()
    }

    #[test]
    fn describe_body_renders_the_library_answer() {
        let kb = tiny_kb();
        let body = describe_body(&kb, "e:Paris", 1).unwrap();
        let remi = Remi::new(&kb, RemiConfig::default());
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let (expr, cost) = remi.describe(&[paris]).best.unwrap();
        assert!(
            body.contains(&json::escape(&expr.display(&kb).to_string())),
            "{body}"
        );
        assert!(body.contains(&cost.to_string()), "{body}");
        assert!(body.contains("\"status\":\"completed\""), "{body}");

        let err = describe_body(&kb, "e:Nowhere", 1).unwrap_err();
        assert_eq!(err.status, 404);
    }

    #[test]
    fn summarize_body_renders_each_method() {
        let kb = tiny_kb();
        for method in ["remi", "faces", "linksum"] {
            let body = summarize_body(&kb, "e:Paris", 2, method).unwrap();
            assert!(
                body.contains(&format!("\"method\":{}", json::escape(method))),
                "{body}"
            );
            assert!(body.contains("\"facts\":["), "{body}");
        }
        assert_eq!(
            summarize_body(&kb, "e:Paris", 2, "magic")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn server_boots_answers_and_shuts_down() {
        let mut server = serve(tiny_kb(), ServeConfig::default()).unwrap();
        let mut c = client::Client::connect(server.addr()).unwrap();
        let health = c.get("/v1/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.body, "{\"status\":\"ok\"}");

        // Same describe twice: second answer is a cache hit with
        // byte-identical body.
        let cold = c.get("/v1/describe/e:Paris").unwrap();
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(cold.header("x-remi-cache"), Some("miss"));
        let warm = c.get("/v1/describe/e:Paris").unwrap();
        assert_eq!(warm.header("x-remi-cache"), Some("hit"));
        assert_eq!(cold.body, warm.body);
        assert_eq!(cold.body, describe_body(&tiny_kb(), "e:Paris", 1).unwrap());

        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            client::Client::connect(server.addr()).is_err() || {
                // The OS may accept briefly after close; a request must fail.
                let mut c = client::Client::connect(server.addr()).unwrap();
                c.get("/v1/healthz").is_err()
            }
        );
    }

    #[test]
    fn nap_schedule_grows_when_idle_and_resets_on_traffic() {
        // Quiet ticks: 1 → 2 → 4 → 8 → 16 → 20 → 20 (capped).
        let mut nap = POLL_NAP_MIN;
        let mut seen = Vec::new();
        for _ in 0..7 {
            nap = next_nap(nap, false);
            seen.push(nap.as_millis() as u64);
        }
        assert_eq!(seen, [2, 4, 8, 16, 20, 20, 20]);
        // Any progress snaps straight back to the floor.
        assert_eq!(next_nap(POLL_NAP_MAX, true), POLL_NAP_MIN);
        assert_eq!(next_nap(POLL_NAP_MIN, true), POLL_NAP_MIN);
    }

    #[test]
    fn ingest_appends_and_rotates_the_fingerprint() {
        let mut server = serve(tiny_kb(), ServeConfig::default()).unwrap();
        let mut c = client::Client::connect(server.addr()).unwrap();

        let stats = c.get("/v1/stats").unwrap();
        assert!(stats.body.contains("\"epoch\":0"), "{}", stats.body);

        let resp = c
            .post("/v1/ingest", "<e:Nantes> <p:cityIn> <e:France> .\n")
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"appended\":1"), "{}", resp.body);
        assert!(resp.body.contains("\"epoch\":1"), "{}", resp.body);

        // The new entity is servable immediately.
        let desc = c.get("/v1/describe/e:Nantes").unwrap();
        assert_eq!(desc.status, 200, "{}", desc.body);

        // Parse errors reject the whole batch, atomically.
        let bad = c.post("/v1/ingest", "<e:a> <p:b> .\n").unwrap();
        assert_eq!(bad.status, 400, "{}", bad.body);
        let stats = c.get("/v1/stats").unwrap();
        assert!(stats.body.contains("\"epoch\":1"), "{}", stats.body);

        // Pure duplicates keep the epoch (idempotent ingest).
        let dup = c
            .post("/v1/ingest", "<e:Nantes> <p:cityIn> <e:France> .\n")
            .unwrap();
        assert!(dup.body.contains("\"appended\":0"), "{}", dup.body);
        assert!(dup.body.contains("\"epoch\":1"), "{}", dup.body);

        // GET /v1/ingest is not a thing.
        assert_eq!(c.get("/v1/ingest").unwrap().status, 405);
        server.shutdown();
    }

    #[test]
    fn one_miner_build_per_generation() {
        let server = serve(tiny_kb(), ServeConfig::default()).unwrap();
        let state = &server.state;
        let builds = || state.registry.counter("remi_miner_builds_total").get();
        let mut c = client::Client::connect(server.addr()).unwrap();
        let ok = |c: &mut client::Client, get: &str| {
            let resp = c.get(get).unwrap();
            assert_eq!(resp.status, 200, "{get}: {}", resp.body);
        };
        assert_eq!(builds(), 0);

        // Describes (GET and batch, k = 1 and 3) and summarizes on one
        // generation share one build; `faces` and `linksum` need none.
        for get in [
            "/v1/describe/e:Paris",
            "/v1/describe/e:Lyon?k=3",
            "/v1/summarize/e:Paris?method=remi",
            "/v1/summarize/e:Lyon?method=linksum",
            "/v1/summarize/e:Lyon?method=faces",
        ] {
            ok(&mut c, get);
        }
        let batch = c
            .post("/v1/describe", r#"{"entities":["e:Marseille","e:France"]}"#)
            .unwrap();
        assert_eq!(batch.status, 200, "{}", batch.body);
        assert_eq!(builds(), 1);
        let pinned = state.live.snapshot();

        // An ingest opens a generation: its first miss builds once more.
        let ingest = c
            .post("/v1/ingest", "<e:Nantes> <p:cityIn> <e:France> .\n")
            .unwrap();
        assert_eq!(ingest.status, 200, "{}", ingest.body);
        ok(&mut c, "/v1/describe/e:Nantes");
        ok(&mut c, "/v1/summarize/e:Nantes?method=remi");
        assert_eq!(builds(), 2);

        // A compaction keeps the content, the numbering and so the context.
        assert!(state.live.compact().performed);
        let folded = c.get("/v1/describe/e:Paris?k=2").unwrap();
        let kb = state.live.snapshot().kb;
        assert_eq!(folded.body, describe_body(&kb, "e:Paris", 2).unwrap());
        assert_eq!(builds(), 2);

        // A request pinned before the ingest builds a private context and
        // leaves the current generation's slot in place.
        let current = state.derived_for(&state.live.snapshot());
        let straggler = state.derived_for(&pinned);
        assert!(!Arc::ptr_eq(&straggler, &current));
        straggler.miner(&pinned.kb);
        assert_eq!(builds(), 3);
        assert!(Arc::ptr_eq(
            &state.derived_for(&state.live.snapshot()),
            &current
        ));
        ok(&mut c, "/v1/describe/e:Lyon?k=2");
        assert_eq!(builds(), 3);
    }

    #[test]
    fn seeding_skips_a_generation_that_rotated_away() {
        let server = serve(tiny_kb(), ServeConfig::default()).unwrap();
        let state = &server.state;
        let key = |snap: &Snapshot| CacheKey {
            request: "describe?entity=e:Paris&k=1".to_string(),
            kb: snap.fingerprint,
        };

        // The pinned generation rotates before its body is seeded: the
        // entry must not be inserted.
        let pinned = state.live.snapshot();
        let appended = state
            .live
            .append_ntriples("<e:Nantes> <p:cityIn> <e:France> .\n")
            .unwrap();
        assert_eq!(appended.appended, 1);
        assert_ne!(state.live.snapshot().fingerprint, pinned.fingerprint);
        let before = state.cache.entries();
        state.seed(key(&pinned), "{}");
        assert_eq!(state.cache.entries(), before);

        // Against the live generation, seeding inserts.
        let live = state.live.snapshot();
        state.seed(key(&live), "{}");
        assert_eq!(state.cache.entries(), before + 1);
        assert_eq!(state.cache.get(&key(&live)).as_deref(), Some("{}"));
    }
}
