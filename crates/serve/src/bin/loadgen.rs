//! `remi-serve-load` — load generator for the embedded HTTP service.
//!
//! Boots an in-process server over a KB file, fires concurrent keep-alive
//! clients at it, and reports throughput and latency quantiles (p50/p90/
//! p99/max) plus the server's `/v1/stats`. Reads are
//! `GET /v1/describe/{e}` over the first eight describable entities. The
//! `--cold` flag disables the response cache, so a warm/cold pair of runs
//! measures how much of the serving path caching removes.
//!
//! `--ingest-ratio F` turns the run into a mixed read/write workload:
//! that fraction of each client's requests become `POST /v1/ingest` batches
//! of fresh synthetic triples (every batch unique, so the delta overlay
//! genuinely grows while miners read), and the report splits latency
//! quantiles per class. `--query-ratio F` does the same with
//! `POST /v1/query` triple-pattern joins built from the KB's own
//! predicates, adding a third latency class to the report. Every client
//! keeps its own per-class latency samples; they are merged after the run
//! and reported as exact nearest-rank quantiles.
//!
//! `--backend` converts the KB before the server boots: a server answers
//! from the one layout it was handed.
//!
//! `--dump-metrics PATH` writes the run's own `GET /v1/metrics`
//! exposition to a file for `scripts/metrics_check.py`; `--dump-events
//! PATH` does the same with the `GET /v1/debug/events` flight-recorder
//! dump for `scripts/events_check.py`.
//!
//! Usage:
//!   remi-serve-load <kb.{rkb,nt}> [--requests N] [--clients C]
//!                   [--backend csr|succinct] [--cold]
//!                   [--ingest-ratio F] [--query-ratio F]
//!                   [--dump-metrics PATH] [--dump-events PATH]

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Instant;

use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{serve, ServeConfig};

struct Args {
    kb_path: String,
    requests: usize,
    clients: usize,
    backend: Option<remi_kb::Backend>,
    cold: bool,
    ingest_ratio: f64,
    query_ratio: f64,
    dump_metrics: Option<String>,
    dump_events: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kb_path: String::new(),
        requests: 2000,
        clients: 4,
        backend: None,
        cold: false,
        ingest_ratio: 0.0,
        query_ratio: 0.0,
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
            "--dump-metrics" => args.dump_metrics = Some(value()?),
            "--dump-events" => args.dump_events = Some(value()?),
            p if !p.starts_with("--") && args.kb_path.is_empty() => args.kb_path = p.to_string(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.kb_path.is_empty() {
        return Err("usage: remi-serve-load <kb> [--requests N] [--clients C] \
                    [--backend csr|succinct] [--cold] \
                    [--ingest-ratio F] [--query-ratio F] \
                    [--dump-metrics PATH] [--dump-events PATH]"
            .to_string());
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

/// One client's request latencies in nanoseconds, per request class.
#[derive(Default)]
struct Latencies {
    reads: Vec<u64>,
    ingests: Vec<u64>,
    queries: Vec<u64>,
}

impl Latencies {
    fn merge(&mut self, other: Latencies) {
        self.reads.extend(other.reads);
        self.ingests.extend(other.ingests);
        self.queries.extend(other.queries);
    }
}

/// The nearest-rank `pct`-th percentile of ascending `sorted` samples:
/// the smallest sample with at least `pct`% of the samples at or below
/// it. `sorted` must be non-empty.
fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Exact latency quantile line over nanosecond samples, rendered in µs.
fn quantile_line(samples: &mut [u64]) -> String {
    samples.sort_unstable();
    let Some(&max) = samples.last() else {
        return "n/a".to_string();
    };
    format!(
        "p50 {}µs  p90 {}µs  p99 {}µs  max {}µs  (n={})",
        nearest_rank(samples, 50) / 1_000,
        nearest_rank(samples, 90) / 1_000,
        nearest_rank(samples, 99) / 1_000,
        max / 1_000,
        samples.len(),
    )
}

/// Writes the body of `GET route` on the run's own server to `path`.
fn dump(addr: SocketAddr, route: &str, path: &str) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    let r = c.get(route).map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("{route} answered {}: {}", r.status, r.body));
    }
    std::fs::write(path, &r.body).map_err(|e| format!("writing {path}: {e}"))
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

/// `POST /v1/query` payloads built from the KB's own predicates: single
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
    let kb = match args.backend {
        Some(backend) => kb.with_backend(backend),
        None => kb,
    };
    let queries = if args.query_ratio > 0.0 {
        let q = query_payloads(&kb);
        if q.is_empty() {
            return Err("KB holds no predicates to query".to_string());
        }
        q
    } else {
        Vec::new()
    };

    // The read workload: the first eight entities that actually appear as
    // subjects (every one of them is describable).
    let targets: Vec<String> = kb
        .entity_ids()
        .filter(|&e| !kb.preds_of_subject(e).is_empty())
        .take(8)
        .map(|e| format!("/v1/describe/{}", percent_encode(kb.node_key(e))))
        .collect();
    if targets.is_empty() {
        return Err("KB holds no describable entities".to_string());
    }

    let mut server = serve(
        kb,
        ServeConfig {
            cache_entries: if args.cold { 0 } else { 4096 },
            max_inflight: args.clients.max(64),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr();

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
    let t0 = Instant::now();
    // lint:allow(raw-thread-primitive): loadgen clients block on sockets for the whole run — parking them on the shared compute pool would starve the server it is measuring
    let results: Vec<Result<Latencies, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let targets = &targets;
                let queries = &queries;
                scope.spawn(move || -> Result<Latencies, String> {
                    let mut lat = Latencies::default();
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
                                .post("/v1/ingest", &body)
                                .map_err(|e| format!("/v1/ingest: {e}"))?;
                            lat.ingests.push(q0.elapsed().as_nanos() as u64);
                            if r.status != 200 {
                                return Err(format!(
                                    "/v1/ingest answered {}: {}",
                                    r.status, r.body
                                ));
                            }
                            continue;
                        }
                        qcredit += qratio;
                        if qcredit >= 1.0 && !queries.is_empty() {
                            qcredit -= 1.0;
                            let body = &queries[(c + i) % queries.len()];
                            let q0 = Instant::now();
                            let r = client
                                .post("/v1/query", body)
                                .map_err(|e| format!("/v1/query: {e}"))?;
                            lat.queries.push(q0.elapsed().as_nanos() as u64);
                            if r.status != 200 {
                                return Err(format!("/v1/query answered {}: {}", r.status, r.body));
                            }
                            continue;
                        }
                        let t = &targets[(c + i) % targets.len()];
                        let q0 = Instant::now();
                        let r = client.get(t).map_err(|e| format!("{t}: {e}"))?;
                        lat.reads.push(q0.elapsed().as_nanos() as u64);
                        if r.status != 200 {
                            return Err(format!("{t} answered {}: {}", r.status, r.body));
                        }
                    }
                    Ok(lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut lat = Latencies::default();
    for r in results {
        lat.merge(r?);
    }

    let mut stats_client = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = stats_client.get("/v1/stats").map_err(|e| e.to_string())?;
    // Dumps read the run's own server, so they run before shutdown.
    if let Some(path) = &args.dump_metrics {
        dump(addr, "/v1/metrics", path)?;
    }
    if let Some(path) = &args.dump_events {
        dump(addr, "/v1/debug/events", path)?;
    }
    server.shutdown();

    let throughput = total as f64 / elapsed.as_secs_f64();
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "serve-load: {total} requests ({} reads, {} ingests, {} queries), {} clients ({})",
        lat.reads.len(),
        lat.ingests.len(),
        lat.queries.len(),
        args.clients,
        if args.cold { "cold, cache off" } else { "warm" }
    );
    let _ = writeln!(out, "  throughput:  {throughput:.0} req/s");
    let _ = writeln!(out, "  read:        {}", quantile_line(&mut lat.reads));
    if !lat.ingests.is_empty() {
        let _ = writeln!(out, "  ingest:      {}", quantile_line(&mut lat.ingests));
    }
    if !lat.queries.is_empty() {
        let _ = writeln!(out, "  query:       {}", quantile_line(&mut lat.queries));
    }
    let _ = writeln!(out, "  server:      {}", stats.body);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&samples, 50), 50);
        assert_eq!(nearest_rank(&samples, 90), 90);
        assert_eq!(nearest_rank(&samples, 99), 99);
        assert_eq!(nearest_rank(&samples, 100), 100);
        assert_eq!(nearest_rank(&[7], 50), 7);
        assert_eq!(nearest_rank(&[7], 99), 7);
    }

    #[test]
    fn quantile_line_sorts_and_renders_microseconds() {
        let mut samples: Vec<u64> = (1..=100).rev().map(|us| us * 1_000).collect();
        assert_eq!(
            quantile_line(&mut samples),
            "p50 50µs  p90 90µs  p99 99µs  max 100µs  (n=100)"
        );
        assert_eq!(quantile_line(&mut []), "n/a");
    }
}
