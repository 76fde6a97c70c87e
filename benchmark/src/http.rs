//! What the two HTTP workloads share: booting the server, reading answers
//! and trace echoes, and turning server-side splits into layer metrics.

use std::net::SocketAddr;
use std::time::Instant;

use remi_core::eval::raw_bindings;
use remi_core::{Remi, RemiConfig};
use remi_kb::{KnowledgeBase, NodeId};
use remi_serve::client::{Client, HttpResponse};
use remi_serve::{serve, ServeConfig, ServerHandle};

use crate::prom;
use crate::report::Outcome;
use crate::setup::ms;
use crate::stats::{median, Samples};
use crate::trace::{Echo, Tracer, UNATTRIBUTED};
use crate::Args;

/// Client threads and connections: one per core, at most two, so the
/// load generator never outnumbers the server's pool.
pub fn clients() -> usize {
    crate::setup::nproc().clamp(1, 2)
}

pub fn boot(kb: KnowledgeBase, cache_entries: usize) -> Result<ServerHandle, String> {
    serve(
        kb,
        ServeConfig {
            cache_entries,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))
}

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))
}

/// Sends one request on the keep-alive connection in `client`, opening a
/// new one first if the last request broke it.
pub fn send(
    client: &mut Option<Client>,
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> Result<HttpResponse, String> {
    let mut c = match client.take() {
        Some(c) => c,
        None => connect(addr)?,
    };
    let r = c
        .request(method, target, body)
        .map_err(|e| format!("{method} {target}: {e}"))?;
    *client = Some(c);
    Ok(r)
}

/// `GET /v1/metrics`.
pub fn scrape(addr: SocketAddr) -> Result<String, String> {
    let r = connect(addr)?
        .get("/v1/metrics")
        .map_err(|e| format!("/v1/metrics: {e}"))?;
    if r.status != 200 {
        return Err(format!("/v1/metrics answered {}", r.status));
    }
    Ok(r.body)
}

/// The idle round-trip floor: the median time a `GET /v1/healthz` spends
/// outside the server's own span on an otherwise idle server (client,
/// loopback and the minimal connection work). It is charged to the
/// client; outside time beyond it stays unattributed.
pub fn idle_floor_ms(addr: SocketAddr) -> Result<f64, String> {
    let mut c = connect(addr)?;
    let mut outside = Vec::new();
    for _ in 0..64 {
        let t0 = Instant::now();
        let r = c
            .get("/v1/healthz?trace=1")
            .map_err(|e| format!("/v1/healthz: {e}"))?;
        let rt = ms(t0);
        let echo = crate::trace::parse_echo(&r.body)?;
        outside.push(rt - echo.total_ns as f64 / 1e6);
    }
    Ok(median(&outside))
}

/// The Ĉ of a describe answer (`None`: the miner found no RE).
pub fn describe_answer(body: &str) -> Result<Option<f64>, String> {
    let doc = remi_serve::json::parse(body.as_bytes())?;
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or("describe answer has no results")?;
    match (doc.get("status").and_then(|s| s.as_str()), results.first()) {
        (Some("no-solution"), None) => Ok(None),
        (Some("completed"), Some(first)) => first
            .get("complexity")
            .and_then(|c| c.as_str())
            .and_then(crate::quality::parse_bits)
            .map(Some)
            .ok_or_else(|| "describe answer has no parsable complexity".to_string()),
        (status, _) => Err(format!("describe answer has status {status:?}")),
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index of the request in the workload's stream.
    pub op: u64,
    pub class: Class,
    /// When it was due, in ns from the start of the timed loop.
    pub start_ns: u64,
    /// From due to sent (an open loop's generator falling behind).
    pub wait_ms: f64,
    /// From due to answered.
    pub latency_ms: f64,
    pub ok: bool,
    pub traced: bool,
    pub echo: Option<Echo>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Describe,
    Query,
    Ingest,
}

/// The server phases of one echo, in the order the server closed them.
fn phases(echo: &Echo) -> Vec<(&'static str, u64)> {
    ["parse", "admission", "cache", "mine", "ingest"]
        .into_iter()
        .map(|p| (p, echo.phase_ns(p)))
        .filter(|&(_, ns)| ns > 0)
        .collect()
}

impl Sent {
    /// Round trip minus the server's own span (which closes before the
    /// response is written).
    pub fn outside_ms(&self) -> Option<f64> {
        let echo = self.echo.as_ref()?;
        Some(self.latency_ms - self.wait_ms - echo.total_ns as f64 / 1e6)
    }
}

/// Records the client span of `sent` with, beneath it, the generator's
/// wait, the server phases, and the outside time beyond the idle floor
/// `floor_ms` as an [`UNATTRIBUTED`] span: the server's echo does not
/// cover it, and no measurement here splits it between the server
/// parking and reviving the connection and waiting for a pool worker.
/// Returns the span id of the `mine` phase, if any, and its interval.
pub fn record_request(
    tracer: &mut Tracer,
    sent: &Sent,
    floor_ms: f64,
) -> Option<(usize, u64, u64)> {
    let echo = sent.echo.as_ref()?;
    let ns = |ms: f64| (ms.max(0.0) * 1e6) as u64;
    let end = sent.start_ns + ns(sent.latency_ms);
    let root = tracer.record(sent.op, None, "client", "request", sent.start_ns, end);
    let wait = (sent.start_ns + ns(sent.wait_ms)).min(end);
    if wait > sent.start_ns {
        tracer.record(sent.op, Some(root), "loadgen", "wait", sent.start_ns, wait);
    }
    let mut at = wait;
    let mut mine = None;
    for (name, took) in phases(echo) {
        let stop = (at + took).min(end);
        let id = tracer.record(sent.op, Some(root), "serve", name, at, stop);
        if name == "mine" {
            mine = Some((id, at, stop));
        }
        at = stop;
    }
    let beyond_floor = ns(sent.outside_ms()? - floor_ms);
    tracer.record(
        sent.op,
        Some(root),
        UNATTRIBUTED,
        "outside",
        at,
        (at + beyond_floor).min(end),
    );
    mine
}

/// Mean duration of `phase` over the echoes that closed it (a cache hit
/// closes no `mine` phase).
fn mean_phase_us(sent: &[&Sent], phase: &str) -> f64 {
    let v: Vec<f64> = sent
        .iter()
        .filter_map(|s| s.echo.as_ref())
        .map(|e| e.phase_ns(phase) as f64 / 1e3)
        .filter(|&us| us > 0.0)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        Samples::from(v).mean()
    }
}

/// Per-layer metrics of the serve layer: phase means per request class
/// from the trace echoes, the time outside the server, the write phase
/// and cache/shed/kb counters from the exact `/v1/metrics` sums, and the
/// tracing overhead (traced minus untraced median of the primary class).
pub fn report_serve_layers(sent: &[Sent], before: &str, after: &str, out: &mut Outcome) {
    let traced = |c: Class| -> Vec<&Sent> {
        sent.iter()
            .filter(|s| s.class == c && s.ok && s.echo.is_some())
            .collect()
    };
    let describes = traced(Class::Describe);
    out.set("serve.parse_us", mean_phase_us(&describes, "parse"));
    out.set("serve.admission_us", mean_phase_us(&describes, "admission"));
    out.set("serve.cache_us", mean_phase_us(&describes, "cache"));
    out.set("serve.mine_ms", mean_phase_us(&describes, "mine") / 1e3);
    out.set(
        "serve.query_eval_us",
        mean_phase_us(&traced(Class::Query), "mine"),
    );
    out.set(
        "serve.ingest_ms",
        mean_phase_us(&traced(Class::Ingest), "ingest") / 1e3,
    );
    let outside: Vec<f64> = sent.iter().filter_map(Sent::outside_ms).collect();
    out.set("serve.outside_ms", Samples::from(outside).mean());
    let mean_us = |family: &str, labels: &str| {
        prom::mean_between(before, after, family, labels).map_or(0.0, |ns| ns / 1e3)
    };
    out.set(
        "serve.write_us",
        mean_us("remi_http_phase_duration_ns", "phase=\"write\""),
    );
    out.set(
        "kb.publish_ms",
        mean_us("remi_kb_publish_duration_ns", "") / 1e3,
    );
    out.set(
        "kb.compact_ms",
        mean_us("remi_kb_compact_duration_ns", "") / 1e3,
    );
    out.set(
        "kb.compactions",
        prom::delta(
            before,
            after,
            "remi_kb_compactions_total{outcome=\"performed\"}",
        ),
    );
    let hits = prom::delta(before, after, "remi_cache_hits_total");
    let misses = prom::delta(before, after, "remi_cache_misses_total");
    out.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.set(
        "serve.cache_purged",
        prom::delta(before, after, "remi_cache_purged_total"),
    );
    out.set(
        "serve.shed",
        prom::delta(before, after, "remi_http_shed_total"),
    );
    let latency = |traced: bool| {
        Samples::from(
            sent.iter()
                .filter(|s| s.class == Class::Describe && s.ok && s.traced == traced)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
        .p50()
    };
    out.set("obs.trace_overhead", latency(true) - latency(false));
}

/// Counts every request as attempted and every failure as failed, and
/// sets the latency-derived end-to-end metrics of the primary class.
pub fn report_describes(sent: &[Sent], elapsed_s: f64, slo_ms: f64, out: &mut Outcome) {
    out.attempted = sent.len() as u64;
    out.failed = sent.iter().filter(|s| !s.ok).count() as u64;
    let describes: Vec<&Sent> = sent.iter().filter(|s| s.class == Class::Describe).collect();
    let lat = Samples::from(describes.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    // Answered describes per second in each tenth of the run; the median
    // tenth discounts a stretch slowed by something outside the program.
    let mut windows = [0u64; 10];
    for s in describes.iter().filter(|s| s.ok) {
        let done_s = s.start_ns as f64 / 1e9 + s.latency_ms / 1e3;
        windows[((done_s / elapsed_s * 10.0) as usize).min(9)] += 1;
    }
    let rates: Vec<f64> = windows
        .iter()
        .map(|&n| n as f64 / (elapsed_s / 10.0))
        .collect();
    out.set("throughput_ops_s", median(&rates));
    out.set("p50_ms", lat.p50());
    out.set("p99_ms", lat.tail());
    let within = sent
        .iter()
        .filter(|s| s.ok && s.latency_ms <= slo_ms)
        .count();
    out.set("slo_met_share", within as f64 / sent.len().max(1) as f64);
    out.set(
        "ok_share",
        1.0 - out.failed as f64 / sent.len().max(1) as f64,
    );
    out.fact("slo_ms", slo_ms);
    out.fact("describe_samples", lat.len());
    out.fact("tail_level", crate::stats::tail_level(lat.len()));
}

/// At most this many traced describes are replayed through the library
/// to split the server's `mine` phase into miner set-up, queue and search.
const REPLAYS: usize = 240;

/// Splits the server's `mine` phase by replaying traced describes through
/// the library with the server's own miner configuration: miner set-up
/// (`Remi::new`), queue build and search become spans under the request's
/// `mine` span. Also replays `raw_bindings` over each request's queue, and
/// writes every span out.
pub fn replay_core(
    args: &Args,
    base: &KnowledgeBase,
    describes: &[(&Sent, NodeId)],
    floor_ms: f64,
    out: &mut Outcome,
) {
    let traced: Vec<&(&Sent, NodeId)> = describes
        .iter()
        .filter(|(s, _)| s.ok && s.echo.is_some())
        .collect();
    let step = traced.len().div_ceil(REPLAYS).max(1);
    let config = RemiConfig::default().with_threads(remi_pool::global().threads());
    let mut tracer = Tracer::default();
    let (mut setup_ms, mut queue_ms, mut search_ms, mut raw_us) = (vec![], vec![], vec![], vec![]);
    let (mut queue, mut nodes, mut tests, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (s, entity) in traced.into_iter().step_by(step) {
        let Some((mine, from, to)) = record_request(&mut tracer, s, floor_ms) else {
            continue;
        };
        let t0 = Instant::now();
        let remi = Remi::new(base, config.clone());
        let setup_ns = t0.elapsed().as_nanos() as u64;
        let o = remi.describe(&[*entity]);
        let (q, se) = (o.stats.queue_time, o.stats.search_time);
        tracer.record_sequence(
            s.op,
            mine,
            "core",
            &[
                ("setup", setup_ns),
                ("queue", q.as_nanos() as u64),
                ("search", se.as_nanos() as u64),
            ],
            from,
            to,
        );
        setup_ms.push(setup_ns as f64 / 1e6);
        queue_ms.push(q.as_secs_f64() * 1e3);
        search_ms.push(se.as_secs_f64() * 1e3);
        queue += o.stats.queue_size as u64;
        nodes += o.stats.nodes_visited;
        tests += o.stats.re_tests;
        hits += o.stats.cache_hits;
        misses += o.stats.cache_misses;
        let (exprs, _) = remi.ranked_common_expressions(&[*entity]);
        let t1 = Instant::now();
        for e in &exprs {
            std::hint::black_box(raw_bindings(base, &e.expr));
        }
        raw_us.push(ms(t1) * 1e3);
    }
    let n = setup_ms.len().max(1) as f64;
    let setup_mean = Samples::from(setup_ms).mean();
    out.set("core.setup_ms", setup_mean);
    out.set(
        "core.setup_share",
        setup_mean / out.metrics["serve.mine_ms"],
    );
    out.set("core.queue_ms", Samples::from(queue_ms).mean());
    out.set("core.search_ms", Samples::from(search_ms).mean());
    out.set("core.queue_size", queue as f64 / n);
    out.set("core.nodes_visited", nodes as f64 / n);
    out.set("core.re_tests", tests as f64 / n);
    out.set(
        "core.binding_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    out.set("kb.raw_bindings_us", Samples::from(raw_us).mean());
    let selfs = tracer.mean_self_ms();
    out.set("core.self_ms", selfs.get("core").copied().unwrap_or(0.0));
    out.set("serve.self_ms", selfs.get("serve").copied().unwrap_or(0.0));
    out.set(
        "trace.unattributed_ms",
        selfs.get(UNATTRIBUTED).copied().unwrap_or(0.0),
    );
    out.fact("idle_floor_ms", floor_ms);
    out.set("trace.coverage", median(&tracer.coverage()));
    out.fact("replayed_describes", n);
    if let Err(e) = tracer.write_jsonl(&crate::report::trace_path(args)) {
        out.problem(format!("writing spans: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_describe_answers() {
        let body = "{\"entity\":\"e:A\",\"k\":1,\"status\":\"completed\",\"results\":[{\"expression\":\"x\",\
                    \"verbalised\":\"y\",\"complexity\":\"12.34 bits\"}]}";
        assert_eq!(describe_answer(body), Ok(Some(12.34)));
        let none = "{\"entity\":\"e:A\",\"k\":1,\"status\":\"no-solution\",\"results\":[]}";
        assert_eq!(describe_answer(none), Ok(None));
        let timed_out = "{\"entity\":\"e:A\",\"k\":1,\"status\":\"timed-out\",\"results\":[]}";
        assert!(describe_answer(timed_out).is_err());
        assert!(describe_answer("{\"error\":\"x\"}").is_err());
    }

    #[test]
    fn requests_become_client_and_serve_spans() {
        let echo = Echo {
            total_ns: 900,
            phases: vec![
                ("parse".into(), 100),
                ("admission".into(), 50),
                ("cache".into(), 50),
                ("mine".into(), 700),
            ],
        };
        let sent = Sent {
            op: 3,
            class: Class::Describe,
            start_ns: 1000,
            wait_ms: 0.0,
            latency_ms: 0.001,
            ok: true,
            traced: true,
            echo: Some(echo),
        };
        let mut t = Tracer::default();
        // 100 ns outside the server span, 40 of them the idle floor.
        let (mine, from, to) = record_request(&mut t, &sent, 40e-6).unwrap();
        assert_eq!((from, to), (1200, 1900));
        t.record(3, Some(mine), "core", "setup", 1200, 1700);
        let (root_ns, layers) = &t.per_op()[&3];
        assert_eq!(*root_ns, 1000);
        assert_eq!(layers["client"], 40);
        assert_eq!(layers["serve"], 400);
        assert_eq!(layers["core"], 500);
        assert_eq!(layers[UNATTRIBUTED], 60);
        // Neither the floor nor the unattributed rest counts as covered.
        assert!((t.coverage()[0] - 0.90).abs() < 1e-12);
    }
}
