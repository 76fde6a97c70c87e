//! Serving benchmarks: end-to-end HTTP round trips against a live
//! `remi-serve` instance on loopback, keep-alive, one request per
//! iteration.
//!
//! Three paths bound the serving cost model:
//!
//! * `healthz` — the floor: parse + route + respond, no KB work.
//! * `warm_describe` — a cache hit: the full production fast path.
//! * `warm_query` — a `POST /query` cache hit (2-pattern join): must
//!   stay within an order of magnitude of `warm_describe`.
//! * `cold_describe` — cache disabled: every request pays queue
//!   construction + mining.
//!
//! The one-shot smoke print compares warm and cold throughput on the same
//! workload — the ROADMAP's caching claim (warm ≥ 10× cold) made
//! measurable per commit via the `BENCH_*.json` trajectory.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{serve, ServeConfig};

fn throughput(client: &mut Client, target: &str, requests: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..requests {
        let r = client.get(target).expect("request failed");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    requests as f64 / t0.elapsed().as_secs_f64()
}

fn bench(c: &mut Criterion) {
    let synth = dbpedia();
    let entity = synth.kb.node_key(synth.members("Person")[0]).to_string();
    let target = format!("/v1/describe/{}", percent_encode(&entity));

    let mut warm_server =
        serve(synth.kb.clone(), ServeConfig::default()).expect("warm server boots");
    let mut warm_client = Client::connect(warm_server.addr()).expect("connect");
    let primed = warm_client.get(&target).expect("prime request");
    assert_eq!(primed.status, 200, "{}", primed.body);

    // A 2-pattern chain join over the fattest predicate, primed into the
    // same cache.
    let pred = synth
        .kb
        .pred_ids()
        .filter(|&p| !synth.kb.is_inverse(p))
        .max_by_key(|&p| synth.kb.index(p).num_facts())
        .map(|p| synth.kb.pred_iri(p).to_string())
        .expect("fixture has predicates");
    let query_payload = format!(
        "{{\"patterns\":[{{\"s\":\"?a\",\"p\":{p},\"o\":\"?b\"}},\
         {{\"s\":\"?b\",\"p\":{p},\"o\":\"?c\"}}]}}",
        p = remi_serve::json::escape(&pred)
    );
    let primed = warm_client
        .post("/v1/query", &query_payload)
        .expect("prime query");
    assert_eq!(primed.status, 200, "{}", primed.body);

    let mut cold_server = serve(
        synth.kb.clone(),
        ServeConfig {
            cache_entries: 0, // every request mines
            ..ServeConfig::default()
        },
    )
    .expect("cold server boots");
    let mut cold_client = Client::connect(cold_server.addr()).expect("connect");
    assert_eq!(cold_client.get(&target).expect("cold request").status, 200);

    // One-shot smoke: same workload, warm vs cold throughput, plus warm
    // query vs warm describe (both cache hits — same order of magnitude).
    let warm_rps = throughput(&mut warm_client, &target, 200);
    let cold_rps = throughput(&mut cold_client, &target, 20);
    println!(
        "\nserve smoke ({entity}): warm {warm_rps:.0} req/s, cold {cold_rps:.0} req/s \
         ({:.1}x speedup from the response cache)",
        warm_rps / cold_rps
    );
    let t0 = Instant::now();
    let query_requests = 200;
    for _ in 0..query_requests {
        let r = warm_client
            .post("/v1/query", &query_payload)
            .expect("warm query");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let query_rps = query_requests as f64 / t0.elapsed().as_secs_f64();
    println!(
        "query smoke: warm query {query_rps:.0} req/s vs warm describe {warm_rps:.0} req/s \
         ({:.2}x)",
        query_rps / warm_rps
    );

    let mut group = c.benchmark_group("serve_http");
    group.bench_function("healthz", |b| {
        b.iter(|| warm_client.get("/v1/healthz").expect("healthz").body.len())
    });
    group.bench_function("warm_describe", |b| {
        b.iter(|| warm_client.get(&target).expect("warm describe").body.len())
    });
    group.bench_function("warm_query", |b| {
        b.iter(|| {
            warm_client
                .post("/v1/query", &query_payload)
                .expect("warm query")
                .body
                .len()
        })
    });
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("cold_describe", |b| {
        b.iter(|| cold_client.get(&target).expect("cold describe").body.len())
    });
    group.finish();

    warm_server.shutdown();
    cold_server.shutdown();
}

criterion_group!(benches, bench);
criterion_main!(benches);
