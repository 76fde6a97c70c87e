//! `remi-serve-load` — load generator for the embedded HTTP service.
//!
//! Boots an in-process server over a KB file, fires concurrent keep-alive
//! clients at it, and reports throughput and latency quantiles (p50/p90/
//! p99/max) plus the server's own cache counters. The `--cold` flag
//! disables the response cache, so a warm/cold pair of runs measures how
//! much of the serving path caching removes.
//!
//! `--ingest-ratio F` turns the run into a mixed read/write workload:
//! that fraction of each client's requests become `POST /ingest` batches
//! of fresh synthetic triples (every batch unique, so the delta overlay
//! genuinely grows while miners read), and the report splits latency
//! quantiles per class. `--query-ratio F` does the same with
//! `POST /query` triple-pattern joins built from the KB's own
//! predicates, adding a third latency class to the report.
//!
//! Latencies are folded into [`remi_obs::Histogram`]s — the same
//! instrument the server records into — and `--metrics-url` scrapes
//! `/v1/metrics` at the end of the run, printing server-observed and
//! client-observed latency side by side (`auto` scrapes the server this
//! run booted).
//!
//! `--dump-metrics PATH` writes the scraped exposition to a file for
//! `scripts/metrics_check.py`; `--dump-events PATH` does the same with
//! the server's `GET /v1/debug/events` flight-recorder dump for
//! `scripts/events_check.py`.
//!
//! Usage:
//!   remi-serve-load <kb.{rkb,nt}> [--requests N] [--clients C]
//!                   [--backend csr|succinct] [--entities e:A,e:B,...]
//!                   [--mode describe|summarize|healthz] [--cold]
//!                   [--ingest-ratio F] [--query-ratio F]
//!                   [--metrics-url auto|host:port]
//!                   [--dump-metrics PATH] [--dump-events PATH]

#![forbid(unsafe_code)]

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::Instant;

use remi_obs::{bucket_index, Histogram, HistogramSnapshot, BUCKETS};
use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{serve, ServeConfig};

struct Args {
    kb_path: String,
    requests: usize,
    clients: usize,
    backend: Option<remi_kb::Backend>,
    entities: Vec<String>,
    mode: String,
    cold: bool,
    ingest_ratio: f64,
    query_ratio: f64,
    metrics_url: Option<String>,
    dump_metrics: Option<String>,
    dump_events: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kb_path: String::new(),
        requests: 2000,
        clients: 4,
        backend: None,
        entities: Vec::new(),
        mode: "describe".to_string(),
        cold: false,
        ingest_ratio: 0.0,
        query_ratio: 0.0,
        metrics_url: None,
        dump_metrics: None,
        dump_events: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {a}"))
        };
        match a.as_str() {
            "--requests" => {
                args.requests = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--requests takes a positive int".to_string())?
            }
            "--clients" => {
                args.clients = value()?
                    .parse::<usize>()
                    .map_err(|_| "--clients takes an int".to_string())?
                    .max(1)
            }
            "--backend" => {
                let v = value()?;
                args.backend = Some(
                    remi_kb::Backend::parse(&v).ok_or_else(|| format!("unknown backend {v:?}"))?,
                )
            }
            "--entities" => {
                args.entities = value()?.split(',').map(str::to_string).collect();
            }
            "--mode" => {
                let v = value()?;
                if !matches!(v.as_str(), "describe" | "summarize" | "healthz") {
                    return Err(format!("unknown mode {v:?}"));
                }
                args.mode = v;
            }
            "--cold" => args.cold = true,
            "--ingest-ratio" => {
                args.ingest_ratio = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| "--ingest-ratio takes a float in 0..=1".to_string())?
            }
            "--query-ratio" => {
                args.query_ratio = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| "--query-ratio takes a float in 0..=1".to_string())?
            }
            "--metrics-url" => args.metrics_url = Some(value()?),
            "--dump-metrics" => args.dump_metrics = Some(value()?),
            "--dump-events" => args.dump_events = Some(value()?),
            p if !p.starts_with("--") && args.kb_path.is_empty() => args.kb_path = p.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.kb_path.is_empty() {
        return Err("usage: remi-serve-load <kb> [--requests N] [--clients C] \
                    [--backend csr|succinct] [--entities a,b] \
                    [--mode describe|summarize|healthz] [--cold] \
                    [--ingest-ratio F] [--query-ratio F] \
                    [--metrics-url auto|host:port] [--dump-metrics PATH] \
                    [--dump-events PATH]"
            .to_string());
    }
    // A dump without an explicit scrape target means "this run's server".
    if args.dump_metrics.is_some() && args.metrics_url.is_none() {
        args.metrics_url = Some("auto".to_string());
    }
    if args.ingest_ratio + args.query_ratio > 1.0 {
        return Err("--ingest-ratio and --query-ratio must sum to at most 1".to_string());
    }
    Ok(args)
}

/// A small unique N-Triples batch for one ingest request: grows the KB on
/// every call (deterministically — client and sequence number key it).
fn ingest_payload(client: usize, seq: usize) -> String {
    format!(
        "<e:load_c{client}_i{seq}> <p:loadIngested> <e:loadBatch_c{client}> .\n\
         <e:load_c{client}_i{seq}> <p:loadSeq> <e:seq_{seq}> .\n"
    )
}

/// Latency quantile line from a histogram snapshot (nanosecond
/// observations rendered in µs — the same `remi-obs` bucket estimation
/// that applies to the server's `/v1/metrics` histograms).
fn quantile_line(s: &HistogramSnapshot) -> String {
    if s.count() == 0 {
        return "n/a".to_string();
    }
    // A scraped snapshot carries no true max (`from_parts` with
    // `u64::MAX`) — the bucket quantiles are still valid, so just elide
    // the max column.
    let max = if s.max() == u64::MAX {
        String::new()
    } else {
        format!("max {}µs  ", s.max() / 1_000)
    };
    format!(
        "p50 {}µs  p90 {}µs  p99 {}µs  {max}(n={})",
        s.p50() / 1_000,
        s.p90() / 1_000,
        s.p99() / 1_000,
        s.count(),
    )
}

/// Rebuilds the histogram registered as `family{labels}` from a
/// `/v1/metrics` scrape: the cumulative `_bucket{…,le=…}` lines are
/// de-cumulated back into per-bucket counts via [`bucket_index`], and the
/// true max is unknown (`u64::MAX`), so quantiles report bucket upper
/// edges — exactly what the server itself would estimate.
fn parse_prom_histogram(text: &str, family: &str, labels: &str) -> Option<HistogramSnapshot> {
    let mut buckets = [0u64; BUCKETS];
    let mut count = 0u64;
    let mut sum = 0u64;
    let mut prev = 0u64;
    let mut seen = false;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(family) else {
            continue;
        };
        if let Some(rest) = rest.strip_prefix("_bucket{") {
            let Some((labelpart, value)) = rest.split_once("} ") else {
                continue;
            };
            if !labels.is_empty() && !labelpart.starts_with(labels) {
                continue;
            }
            let Some(le) = labelpart
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
            else {
                continue;
            };
            let cumulative: u64 = value.trim().parse().ok()?;
            if le != "+Inf" {
                let edge: u64 = le.parse().ok()?;
                let i = bucket_index(edge);
                buckets[i] = cumulative.saturating_sub(prev);
                prev = cumulative;
                seen = true;
            }
        } else if let Some(rest) = suffix_value(rest, "_sum", labels) {
            sum = rest;
            seen = true;
        } else if let Some(rest) = suffix_value(rest, "_count", labels) {
            count = rest;
            seen = true;
        }
    }
    seen.then(|| HistogramSnapshot::from_parts(buckets, count, sum, u64::MAX))
}

/// Parses `"<suffix>{labels} value"` / `"<suffix> value"` off a line
/// remainder, returning the value when the labels match.
fn suffix_value(rest: &str, suffix: &str, labels: &str) -> Option<u64> {
    let rest = rest.strip_prefix(suffix)?;
    let value = if labels.is_empty() {
        rest.strip_prefix(' ')?
    } else {
        rest.strip_prefix('{')?
            .strip_prefix(labels)?
            .strip_prefix("} ")?
    };
    value.trim().parse().ok()
}

/// `auto` → the in-process server; otherwise `host:port` (with an
/// optional `http://` prefix and path, both ignored after the authority).
fn resolve_metrics_addr(spec: &str, own: SocketAddr) -> Result<SocketAddr, String> {
    if spec == "auto" {
        return Ok(own);
    }
    let authority = spec
        .strip_prefix("http://")
        .unwrap_or(spec)
        .split('/')
        .next()
        .unwrap_or(spec);
    authority
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve --metrics-url {spec:?}: {e}"))?
        .next()
        .ok_or_else(|| format!("--metrics-url {spec:?} resolves to no address"))
}

fn load_kb(path: &str) -> Result<remi_kb::KnowledgeBase, String> {
    // Same dispatch (and inverse fraction) as the `remi` CLI, so the
    // load generator exercises the exact KB the CLI would serve.
    remi_kb::load_path(std::path::Path::new(path), 0.01)
        .map_err(|e| format!("cannot read {path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `POST /query` payloads built from the KB's own predicates: single
/// full-extent patterns over the fattest predicates plus one 2-pattern
/// chain join, so the mix exercises both engine paths.
fn query_payloads(kb: &remi_kb::KnowledgeBase) -> Vec<String> {
    let mut preds: Vec<remi_kb::PredId> = kb
        .pred_ids()
        .filter(|&p| !kb.is_inverse(p) && kb.index(p).num_facts() > 0)
        .collect();
    preds.sort_by_key(|&p| std::cmp::Reverse(kb.index(p).num_facts()));
    preds.truncate(4);
    let mut payloads: Vec<String> = preds
        .iter()
        .map(|&p| {
            format!(
                "{{\"patterns\":[{{\"s\":\"?s\",\"p\":{},\"o\":\"?o\"}}],\"limit\":100}}",
                remi_serve::json::escape(kb.pred_iri(p))
            )
        })
        .collect();
    if let Some(&p) = preds.first() {
        let p = remi_serve::json::escape(kb.pred_iri(p));
        payloads.push(format!(
            "{{\"patterns\":[{{\"s\":\"?a\",\"p\":{p},\"o\":\"?b\"}},\
             {{\"s\":\"?b\",\"p\":{p},\"o\":\"?c\"}}],\"limit\":100}}"
        ));
    }
    payloads
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv)?;
    let kb = load_kb(&args.kb_path)?;
    let queries = if args.query_ratio > 0.0 {
        let q = query_payloads(&kb);
        if q.is_empty() {
            return Err("KB holds no predicates to query".to_string());
        }
        q
    } else {
        Vec::new()
    };

    let mut entities = args.entities.clone();
    if entities.is_empty() && args.mode != "healthz" {
        // Default workload: the first eight entities that actually appear
        // as subjects (every one of them is describable).
        entities = kb
            .entity_ids()
            .filter(|&e| !kb.preds_of_subject(e).is_empty())
            .take(8)
            .map(|e| kb.node_key(e).to_string())
            .collect();
        if entities.is_empty() {
            return Err("KB holds no describable entities".to_string());
        }
    }

    let mut server = serve(
        kb,
        ServeConfig {
            backend: args.backend,
            cache_entries: if args.cold { 0 } else { 4096 },
            max_inflight: args.clients.max(64),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();

    let targets: Vec<String> = match args.mode.as_str() {
        "healthz" => vec!["/healthz".to_string()],
        "summarize" => entities
            .iter()
            .map(|e| format!("/summarize/{}", percent_encode(e)))
            .collect(),
        _ => entities
            .iter()
            .map(|e| format!("/describe/{}", percent_encode(e)))
            .collect(),
    };

    // Warm-up pass (unless cold): prime the response cache and fault in
    // the lazily-built structures, so the measured run is steady-state.
    if !args.cold {
        let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
        for t in &targets {
            let r = c.get(t).map_err(|e| e.to_string())?;
            if r.status != 200 {
                return Err(format!("warm-up {t} answered {}: {}", r.status, r.body));
            }
        }
    }

    let per_client = args.requests.div_ceil(args.clients);
    let total = per_client * args.clients;
    let ratio = args.ingest_ratio;
    let qratio = args.query_ratio;
    // Per-class latency histograms, shared across clients — `Histogram`
    // records are relaxed atomics, so every client folds straight in.
    let reads_hist = Histogram::new();
    let ingests_hist = Histogram::new();
    let queries_hist = Histogram::new();
    let t0 = Instant::now();
    // lint:allow(raw-thread-primitive): loadgen clients block on sockets for the whole run — parking them on the shared compute pool would starve the server it is measuring
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let targets = &targets;
                let queries = &queries;
                let (reads_hist, ingests_hist, queries_hist) =
                    (&reads_hist, &ingests_hist, &queries_hist);
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    // Deterministic interleave: accumulate ratio credit
                    // per class, fire one request per whole unit.
                    let mut credit = 0.0f64;
                    let mut qcredit = 0.0f64;
                    for i in 0..per_client {
                        credit += ratio;
                        if credit >= 1.0 {
                            credit -= 1.0;
                            let body = ingest_payload(c, i);
                            let q0 = Instant::now();
                            let r = client
                                .post("/ingest", &body)
                                .map_err(|e| format!("/ingest: {e}"))?;
                            ingests_hist.record(q0.elapsed().as_nanos() as u64);
                            if r.status != 200 {
                                return Err(format!("/ingest answered {}: {}", r.status, r.body));
                            }
                            continue;
                        }
                        qcredit += qratio;
                        if qcredit >= 1.0 && !queries.is_empty() {
                            qcredit -= 1.0;
                            let body = &queries[(c + i) % queries.len()];
                            let q0 = Instant::now();
                            let r = client
                                .post("/query", body)
                                .map_err(|e| format!("/query: {e}"))?;
                            queries_hist.record(q0.elapsed().as_nanos() as u64);
                            if r.status != 200 {
                                return Err(format!("/query answered {}: {}", r.status, r.body));
                            }
                            continue;
                        }
                        let t = &targets[(c + i) % targets.len()];
                        let q0 = Instant::now();
                        let r = client.get(t).map_err(|e| format!("{t}: {e}"))?;
                        reads_hist.record(q0.elapsed().as_nanos() as u64);
                        if r.status != 200 {
                            return Err(format!("{t} answered {}: {}", r.status, r.body));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let elapsed = t0.elapsed();
    for r in results {
        r?;
    }
    let reads = reads_hist.snapshot();
    let ingests = ingests_hist.snapshot();
    let queries_snap = queries_hist.snapshot();

    let mut stats_client = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = stats_client.get("/stats").map_err(|e| e.to_string())?;
    // Scrape before shutdown: `auto` points at the server this run booted.
    let scraped: Option<String> = match &args.metrics_url {
        Some(spec) => {
            let maddr = resolve_metrics_addr(spec, addr)?;
            let mut mc = Client::connect(maddr).map_err(|e| e.to_string())?;
            let r = mc.get("/v1/metrics").map_err(|e| e.to_string())?;
            if r.status != 200 {
                return Err(format!("/v1/metrics answered {}: {}", r.status, r.body));
            }
            Some(r.body)
        }
        None => None,
    };
    // Flight-recorder dump, also before shutdown: the run's own server is
    // the only one whose ring this process can reach.
    if let Some(path) = &args.dump_events {
        let mut ec = Client::connect(addr).map_err(|e| e.to_string())?;
        let r = ec.get("/v1/debug/events").map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!(
                "/v1/debug/events answered {}: {}",
                r.status, r.body
            ));
        }
        std::fs::write(path, &r.body).map_err(|e| format!("writing {path}: {e}"))?;
    }
    server.shutdown();

    let throughput = total as f64 / elapsed.as_secs_f64();
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "serve-load: {total} requests ({} reads, {} ingests, {} queries), {} clients, mode {} ({})",
        reads.count(),
        ingests.count(),
        queries_snap.count(),
        args.clients,
        args.mode,
        if args.cold { "cold, cache off" } else { "warm" }
    );
    let _ = writeln!(out, "  throughput:  {throughput:.0} req/s");
    let _ = writeln!(out, "  read:        {}", quantile_line(&reads));
    if ingests.count() > 0 {
        let _ = writeln!(out, "  ingest:      {}", quantile_line(&ingests));
    }
    if queries_snap.count() > 0 {
        let _ = writeln!(out, "  query:       {}", quantile_line(&queries_snap));
    }
    if let Some(text) = scraped {
        if let Some(path) = &args.dump_metrics {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        }
        // Server-observed latency next to the client-observed lines above:
        // the gap between the pairs is connection + parser + queueing time
        // outside the handler.
        let _ = writeln!(out, "  server-side (scraped from /v1/metrics):");
        let read_route = match args.mode.as_str() {
            "summarize" => "summarize",
            "healthz" => "healthz",
            _ => "describe",
        };
        let mut classes = vec![("read", read_route, reads.count())];
        classes.push(("ingest", "ingest", ingests.count()));
        classes.push(("query", "query", queries_snap.count()));
        for (class, route, client_n) in classes {
            if client_n == 0 {
                continue;
            }
            let labels = format!("route=\"{route}\",status=\"200\"");
            match parse_prom_histogram(&text, "remi_http_request_duration_ns", &labels) {
                Some(s) => {
                    let _ = writeln!(out, "    {class:<10} {}", quantile_line(&s));
                }
                None => {
                    let _ = writeln!(out, "    {class:<10} no server series for {labels}");
                }
            }
        }
        let _ = writeln!(
            out,
            "  metrics:     {} exposition lines",
            text.lines().count()
        );
    }
    let _ = writeln!(out, "  server:      {}", stats.body);
    Ok(out)
}
