//! End-to-end tests for the embedded HTTP service: a real server on an
//! ephemeral port, real TCP requests, and responses asserted
//! byte-identical to direct `remi_core`/`remi_essum` library output on
//! both storage backends — including the cache-hit path.

use remi_kb::{Backend, KnowledgeBase};
use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{describe_body, query_body, serve, summarize_body, ServeConfig, ServerHandle};

/// The shared test world: a small synthetic DBpedia-like KB.
fn world() -> std::sync::Arc<remi_synth::SynthKb> {
    remi_synth::fixtures::dbpedia(0.3, 11)
}

/// A few describable target IRIs from distinct classes.
fn target_iris(synth: &remi_synth::SynthKb) -> Vec<String> {
    ["Person", "Settlement", "Film"]
        .iter()
        .flat_map(|class| synth.members(class).iter().take(2))
        .map(|&e| synth.kb.node_key(e).to_string())
        .collect()
}

fn boot(kb: KnowledgeBase, config: ServeConfig) -> ServerHandle {
    serve(kb, config).expect("server must bind an ephemeral port")
}

/// The value of one exact series (labels included, as rendered) in a
/// `/v1/metrics` exposition.
fn metric(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
}

/// Describe and summarize over HTTP answer exactly the bytes the library
/// renders, on both backends, cold and cached.
#[test]
fn responses_are_byte_identical_to_library_output_on_both_backends() {
    let synth = world();
    let iris = target_iris(&synth);
    assert!(!iris.is_empty(), "fixture lost its classes");
    let threads = ServeConfig::default().threads;

    let mut bodies_by_backend: Vec<Vec<String>> = Vec::new();
    for backend in [Backend::Csr, Backend::Succinct] {
        let kb = synth.kb.clone().with_backend(backend);
        let mut server = boot(kb.clone(), ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();
        let mut bodies = Vec::new();

        for iri in &iris {
            // Cold: mined on demand.
            let cold = client
                .get(&format!("/v1/describe/{}", percent_encode(iri)))
                .unwrap();
            assert_eq!(cold.status, 200, "{iri}: {}", cold.body);
            assert_eq!(cold.header("x-remi-cache"), Some("miss"), "{iri}");
            // The HTTP body is exactly the library rendering.
            let direct = describe_body(&kb, iri, 1, threads).unwrap();
            assert_eq!(cold.body, direct, "describe({iri}) on {backend}");

            // Warm: served from the cache, byte-identical.
            let warm = client
                .get(&format!("/v1/describe/{}", percent_encode(iri)))
                .unwrap();
            assert_eq!(warm.header("x-remi-cache"), Some("hit"), "{iri}");
            assert_eq!(warm.body, cold.body, "cache changed bytes for {iri}");

            // Summarize: same contract.
            let summary = client
                .get(&format!("/v1/summarize/{}?k=4", percent_encode(iri)))
                .unwrap();
            assert_eq!(summary.status, 200, "{iri}: {}", summary.body);
            let direct = summarize_body(&kb, iri, 4, "remi", None).unwrap();
            assert_eq!(summary.body, direct, "summarize({iri}) on {backend}");

            bodies.push(cold.body);
            bodies.push(summary.body);
        }
        bodies_by_backend.push(bodies);
        server.shutdown();
    }

    // The two backends answered byte-identically.
    assert_eq!(
        bodies_by_backend[0], bodies_by_backend[1],
        "CSR and succinct servers disagree"
    );
}

/// A server answers from the one layout it was booted on: a `backend`
/// request parameter is unknown, so it is ignored like any other — it
/// neither changes the cache key nor converts the KB.
#[test]
fn backend_param_is_ignored_and_never_converts() {
    let synth = world();
    let iri = &target_iris(&synth)[0];
    let mut server = boot(
        synth.kb.clone().with_backend(Backend::Csr),
        ServeConfig::default(),
    );
    let mut client = Client::connect(server.addr()).unwrap();
    let path = format!("/v1/describe/{}", percent_encode(iri));

    let succinct = client.get(&format!("{path}?backend=succinct&k=2")).unwrap();
    assert_eq!(succinct.status, 200, "{}", succinct.body);
    assert_eq!(succinct.header("x-remi-cache"), Some("miss"));
    let flat = client.get(&format!("{path}?backend=flat&k=2")).unwrap();
    assert_eq!(flat.status, 200, "{}", flat.body);
    let plain = client.get(&format!("{path}?k=2")).unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body);
    // One cache entry for all three: the parameter is not part of the key.
    assert_eq!(flat.header("x-remi-cache"), Some("hit"));
    assert_eq!(plain.header("x-remi-cache"), Some("hit"));
    assert_eq!(succinct.body, plain.body);
    assert_eq!(flat.body, plain.body);

    let batch = client
        .post(
            "/v1/describe",
            &format!(
                "{{\"entities\":[{}],\"k\":2,\"backend\":\"flat\"}}",
                remi_serve::json::escape(iri)
            ),
        )
        .unwrap();
    assert_eq!(batch.status, 200, "{}", batch.body);
    assert!(batch.body.contains(&plain.body), "{}", batch.body);

    let stats = client.get("/v1/stats").unwrap();
    let doc = remi_serve::json::parse(stats.body.as_bytes()).unwrap();
    let backends = doc.get("backends").expect("stats lists backends");
    assert_eq!(
        backends.get("primary").and_then(|v| v.as_str()),
        Some("csr"),
        "{}",
        stats.body
    );
    let resident = backends
        .get("resident")
        .and_then(|v| v.as_array())
        .expect("resident is a list");
    assert_eq!(resident.len(), 1, "{}", stats.body);
    server.shutdown();
}

/// Batched describe shares one miner and embeds exactly the per-entity
/// GET bodies.
#[test]
fn batched_describe_matches_individual_gets() {
    let synth = world();
    let iris = target_iris(&synth);
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    // Duplicate IRIs in the batch must de-duplicate onto one mining task
    // (the batch now fans out across pool workers) and still answer one
    // result per requested slot, in order.
    let padded: Vec<&String> = iris.iter().chain(iris.first()).collect();
    let payload = format!(
        "{{\"entities\":[{}]}}",
        padded
            .iter()
            .map(|i| remi_serve::json::escape(i))
            .collect::<Vec<_>>()
            .join(",")
    );
    let batch = client.post("/v1/describe", &payload).unwrap();
    assert_eq!(batch.status, 200, "{}", batch.body);
    assert!(
        batch
            .body
            .starts_with(&format!("{{\"count\":{}", padded.len())),
        "{}",
        batch.body
    );

    for iri in &iris {
        let single = client
            .get(&format!("/v1/describe/{}", percent_encode(iri)))
            .unwrap();
        assert_eq!(
            single.header("x-remi-cache"),
            Some("hit"),
            "batch must prime {iri}"
        );
        assert!(
            batch.body.contains(&single.body),
            "batch body lacks the GET body for {iri}"
        );
    }

    // A batch with non-default parameters seeds the same cache keys that
    // a GET with those parameters reads.
    let payload = format!(
        "{{\"entities\":[{}],\"k\":2,\"threads\":1}}",
        iris.iter()
            .map(|i| remi_serve::json::escape(i))
            .collect::<Vec<_>>()
            .join(",")
    );
    let batch = client.post("/v1/describe", &payload).unwrap();
    assert_eq!(batch.status, 200, "{}", batch.body);
    for iri in &iris {
        let single = client
            .get(&format!(
                "/v1/describe/{}?k=2&threads=1",
                percent_encode(iri)
            ))
            .unwrap();
        assert_eq!(
            single.header("x-remi-cache"),
            Some("hit"),
            "k=2 batch must prime {iri}"
        );
        assert!(
            batch.body.contains(&single.body),
            "k=2 batch body lacks the GET body for {iri}"
        );
    }

    // Unknown entities inside a batch degrade to an embedded error, not a
    // failed batch.
    let partial = client
        .post("/v1/describe", "{\"entities\":[\"e:NoSuchEntity\"]}")
        .unwrap();
    assert_eq!(partial.status, 200);
    assert!(
        partial.body.contains("entity not found"),
        "{}",
        partial.body
    );
    server.shutdown();
}

/// `POST /v1/query` answers exactly the library rendering, cold and
/// cached, on both backends.
#[test]
fn query_endpoint_is_cached_and_byte_identical_to_library_output() {
    let synth = world();
    let kb = synth.kb.clone();
    // A predicate that actually holds facts, so the join has rows.
    let pred = kb
        .pred_ids()
        .filter(|&p| !kb.is_inverse(p))
        .max_by_key(|&p| kb.index(p).num_facts())
        .map(|p| kb.pred_iri(p).to_string())
        .expect("fixture has predicates");
    let patterns = [["?s".to_string(), pred.clone(), "?o".to_string()]];
    let payload = format!(
        "{{\"patterns\":[{{\"s\":\"?s\",\"p\":{},\"o\":\"?o\"}}],\"limit\":5}}",
        remi_serve::json::escape(&pred)
    );

    let mut bodies = Vec::new();
    for backend in [Backend::Csr, Backend::Succinct] {
        let kb = kb.clone().with_backend(backend);
        let mut server = boot(kb.clone(), ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();

        let cold = client.post("/v1/query", &payload).unwrap();
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(cold.header("x-remi-cache"), Some("miss"));
        let direct = query_body(&kb, &patterns, 5, None).unwrap();
        assert_eq!(cold.body, direct, "query on {backend}");
        assert!(cold.body.contains("\"truncated\":true"), "{}", cold.body);

        let warm = client.post("/v1/query", &payload).unwrap();
        assert_eq!(warm.header("x-remi-cache"), Some("hit"));
        assert_eq!(warm.body, cold.body, "cache changed bytes");

        bodies.push(cold.body);
        server.shutdown();
    }
    assert_eq!(bodies[0], bodies[1], "backends disagree on /query");
}

/// Every route has one spelling, `/v1/…`: the legacy unprefixed paths,
/// a bare `/v1` and another version prefix match no route, while a known
/// `/v1` path under the wrong method still answers `405`.
#[test]
fn only_v1_paths_are_routes() {
    let synth = world();
    let iri = &target_iris(&synth)[0];
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let describe = format!("/describe/{}", percent_encode(iri));
    let summarize = format!("/summarize/{}?k=3", percent_encode(iri));
    for path in [
        "/healthz",
        "/stats",
        "/metrics",
        "/debug/events",
        describe.as_str(),
        summarize.as_str(),
    ] {
        assert_eq!(client.get(&format!("/v1{path}")).unwrap().status, 200);
        let legacy = client.get(path).unwrap();
        assert_eq!(legacy.status, 404, "{path}: {}", legacy.body);
    }
    for path in ["/describe", "/ingest", "/query"] {
        assert_eq!(client.post(path, "{}").unwrap().status, 404, "{path}");
    }
    assert_eq!(client.get("/v1").unwrap().status, 404);
    assert_eq!(client.get("/v2/healthz").unwrap().status, 404);

    let wrong = client.get("/v1/ingest").unwrap();
    assert_eq!(wrong.status, 405, "{}", wrong.body);
    assert_eq!(wrong.header("allow"), Some("POST"));
    server.shutdown();
}

/// Protocol and routing errors map to the documented statuses.
#[test]
fn error_statuses_are_mapped() {
    let synth = world();
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let addr = server.addr();

    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.get("/no/such/route").unwrap().status, 404);
    assert_eq!(c.get("/v1/describe/e:NoSuchEntity").unwrap().status, 404);
    assert_eq!(c.get("/v1/describe/e:x?k=zero").unwrap().status, 400);
    assert_eq!(c.post("/v1/healthz", "{}").unwrap().status, 405);
    assert_eq!(c.get("/v1/describe").unwrap().status, 405);
    assert_eq!(c.post("/v1/describe", "not json").unwrap().status, 400);
    assert_eq!(
        c.post("/v1/describe", "{\"entities\":[]}").unwrap().status,
        400
    );

    // 405s carry an Allow header derived from the route table.
    let wrong = c.post("/v1/healthz", "{}").unwrap();
    assert_eq!(wrong.header("allow"), Some("GET"), "{}", wrong.body);
    let wrong = c.get("/v1/describe").unwrap();
    assert_eq!(wrong.header("allow"), Some("POST"), "{}", wrong.body);

    // Parameter failures use the {"error": …, "param": …} envelope.
    let bad = c.get("/v1/describe/e:x?k=zero").unwrap();
    assert!(bad.body.contains("\"param\":\"k\""), "{}", bad.body);

    // /query error mapping: malformed JSON, bad patterns, bad limit.
    assert_eq!(c.get("/v1/query").unwrap().status, 405);
    assert_eq!(c.post("/v1/query", "not json").unwrap().status, 400);
    let bad = c.post("/v1/query", "{\"patterns\":[]}").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"param\":\"patterns\""), "{}", bad.body);
    let bad = c
        .post(
            "/v1/query",
            "{\"patterns\":[{\"s\":\"?s\",\"p\":\"p:x\",\"o\":\"?o\"}],\"limit\":0}",
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"param\":\"limit\""), "{}", bad.body);

    // Malformed request line: 400 and the connection closes.
    let mut raw = Client::connect(addr).unwrap();
    raw.send_raw(b"BANANAS\r\n\r\n").unwrap();
    let resp = raw.read_response().unwrap();
    assert_eq!(resp.status, 400);

    // Oversized body: 413.
    let mut big = Client::connect(addr).unwrap();
    big.send_raw(
        format!(
            "POST /v1/describe HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            remi_serve::http::MAX_BODY_BYTES + 1
        )
        .as_bytes(),
    )
    .unwrap();
    assert_eq!(big.read_response().unwrap().status, 413);

    // Keep-alive: one connection, several requests, then explicit close.
    let mut ka = Client::connect(addr).unwrap();
    for _ in 0..3 {
        assert_eq!(ka.get("/v1/healthz").unwrap().status, 200);
    }
    server.shutdown();
}

/// Admission control: connections beyond the cap (4 × `max_inflight`,
/// min 8) get `503` while live keep-alive connections hold every slot.
#[test]
fn load_shedding_answers_503_beyond_the_watermark() {
    let synth = world();
    let mut server = boot(
        synth.kb.clone(),
        ServeConfig {
            max_inflight: 1, // connection cap floors at 8
            ..ServeConfig::default()
        },
    );
    let addr = server.addr();

    // Fill all eight connection slots with live keep-alive connections
    // (each response proves its connection was accepted, not queued —
    // idle ones park, so they coexist even on a 1-worker pool).
    let mut holders: Vec<Client> = Vec::new();
    for i in 0..8 {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.get("/v1/healthz").unwrap().status, 200, "holder {i}");
        holders.push(c);
    }

    // The ninth connection is shed at accept time.
    let mut shed = Client::connect(addr).unwrap();
    let resp = shed.get("/v1/healthz").unwrap();
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(resp.header("retry-after"), Some("1"));

    // Releasing the slots restores service (the sweep notices the closed
    // connections within a poll tick; retry on fresh connections).
    drop(shed);
    drop(holders);
    let ok = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        matches!(
            Client::connect(addr).and_then(|mut c| c.get("/v1/healthz")),
            Ok(r) if r.status == 200
        )
    });
    assert!(ok, "service did not recover after shedding");
    server.shutdown();
}

/// Graceful shutdown: in-flight keep-alive connections finish their
/// current request, new connections stop being served, and `shutdown`
/// returns once everything drained.
#[test]
fn graceful_shutdown_drains_inflight_connections() {
    let synth = world();
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let addr = server.addr();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);

    server.shutdown();

    // The listener is gone: either the connect fails or the first request
    // on the fresh connection does.
    let still_up = match Client::connect(addr) {
        Ok(mut c) => c.get("/v1/healthz").is_ok(),
        Err(_) => false,
    };
    assert!(!still_up, "server still answering after shutdown");
}

/// `GET /metrics` renders a Prometheus text exposition covering the
/// serve, pool, and kb layers — and traffic served before the scrape is
/// visible in its route histogram.
#[test]
fn metrics_endpoint_exposes_prometheus_text() {
    let synth = world();
    let iri = &target_iris(&synth)[0];
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let ok = client
        .get(&format!("/v1/describe/{}", percent_encode(iri)))
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);

    let resp = client.get("/v1/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let body = &resp.body;
    for needle in [
        "# TYPE remi_http_request_duration_ns histogram",
        "remi_http_request_duration_ns_bucket{route=\"describe\",status=\"200\",le=\"",
        "remi_http_request_duration_ns_count{route=\"describe\",status=\"200\"} 1",
        "# TYPE remi_http_requests_total counter",
        "remi_http_phase_duration_ns_count{phase=\"mine\"}",
        "remi_pool_queue_depth",
        "remi_pool_steals_total",
        "remi_kb_publish_duration_ns_count",
        "remi_kb_epoch 0",
        "remi_cache_misses_total 1",
        "remi_connections_total 1",
        "remi_uptime_seconds",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // Cumulative histogram buckets end in an +Inf edge equal to _count.
    assert!(
        body.contains(
            "remi_http_request_duration_ns_bucket{route=\"describe\",status=\"200\",le=\"+Inf\"} 1"
        ),
        "{body}"
    );
    server.shutdown();
}

/// `?trace=1` embeds the request's own phase timings in the JSON body;
/// without it the body stays clean, and the cache entry is shared (the
/// echo is applied per request, after the cache).
#[test]
fn trace_param_embeds_phase_timings() {
    let synth = world();
    let iri = &target_iris(&synth)[0];
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let path = format!("/v1/describe/{}", percent_encode(iri));

    let plain = client.get(&path).unwrap();
    assert_eq!(plain.status, 200, "{}", plain.body);
    assert!(!plain.body.contains("\"trace\""), "{}", plain.body);

    let traced = client.get(&format!("{path}?trace=1")).unwrap();
    assert_eq!(traced.status, 200, "{}", traced.body);
    assert_eq!(
        traced.header("x-remi-cache"),
        Some("hit"),
        "trace=1 must not fork the cache key"
    );
    assert!(
        traced.body.contains("\"trace\":{\"route\":\"describe\""),
        "{}",
        traced.body
    );
    assert!(
        traced.body.contains("\"phases\":[{\"phase\":\"parse\""),
        "{}",
        traced.body
    );
    // The traced body is the plain body plus the trailing trace object.
    let prefix = &plain.body[..plain.body.len() - 1];
    assert!(traced.body.starts_with(prefix), "{}", traced.body);
    server.shutdown();
}

/// With `--slow-request-ms 0` every request crosses the threshold: the
/// structured slow log fires and `remi_http_slow_requests_total` counts
/// it.
#[test]
fn slow_request_threshold_counts_and_logs() {
    let synth = world();
    let mut server = boot(
        synth.kb.clone(),
        ServeConfig {
            slow_request_ms: Some(0),
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);
    assert_eq!(client.get("/v1/healthz").unwrap().status, 200);

    let metrics = client.get("/v1/metrics").unwrap().body;
    let count =
        metric(&metrics, "remi_http_slow_requests_total").expect("slow-request counter exposed");
    assert!(count >= 2, "expected ≥2 slow requests, saw {count}");
    server.shutdown();
}

/// `?explain=1` on `POST /query` carries the request's own plan trace,
/// bypasses the cache in both directions, and renders the same explain
/// object on both backends; plain requests stay explain-free.
#[test]
fn explain_param_embeds_plan_trace_and_bypasses_cache() {
    let synth = world();
    let kb = synth.kb.clone();
    let pred = kb
        .pred_ids()
        .filter(|&p| !kb.is_inverse(p))
        .max_by_key(|&p| kb.index(p).num_facts())
        .map(|p| kb.pred_iri(p).to_string())
        .expect("fixture has predicates");
    let payload = format!(
        "{{\"patterns\":[{{\"s\":\"?s\",\"p\":{},\"o\":\"?o\"}}],\"limit\":5}}",
        remi_serve::json::escape(&pred)
    );

    let mut explains = Vec::new();
    for backend in [Backend::Csr, Backend::Succinct] {
        let mut server = boot(kb.clone().with_backend(backend), ServeConfig::default());
        let mut client = Client::connect(server.addr()).unwrap();

        let plain = client.post("/v1/query", &payload).unwrap();
        assert_eq!(plain.status, 200, "{}", plain.body);
        assert_eq!(plain.header("x-remi-cache"), Some("miss"));
        assert!(!plain.body.contains("\"explain\""), "{}", plain.body);

        // Explain skips the cache probe even though the entry exists…
        let explained = client.post("/v1/query?explain=1", &payload).unwrap();
        assert_eq!(explained.status, 200, "{}", explained.body);
        assert_eq!(explained.header("x-remi-cache"), Some("bypass"));
        // …and the body is the plain body plus the trailing explain
        // object: pattern order with estimated-vs-actual cardinalities
        // and the join-path choice.
        let prefix = &plain.body[..plain.body.len() - 1];
        assert!(explained.body.starts_with(prefix), "{}", explained.body);
        assert!(
            explained.body.contains("\"explain\":{\"path\":"),
            "{}",
            explained.body
        );
        assert!(
            explained
                .body
                .contains("\"patterns\":[{\"pattern\":0,\"estimated\":"),
            "{}",
            explained.body
        );

        // The cache entry was neither read nor replaced: the next plain
        // request hits and its body is still explain-free.
        let warm = client.post("/v1/query", &payload).unwrap();
        assert_eq!(warm.header("x-remi-cache"), Some("hit"));
        assert_eq!(warm.body, plain.body, "explain polluted the cache");

        explains.push(explained.body);
        server.shutdown();
    }
    assert_eq!(
        explains[0], explains[1],
        "explain traces must be backend-independent"
    );
}

/// `GET /v1/debug/events` exposes the flight recorder: planner events
/// from query misses, well-formed JSON with monotone sequence numbers,
/// channel/severity/since filters, and a response bounded by the
/// configured ring capacity.
#[test]
fn debug_events_endpoint_exposes_bounded_recorder() {
    let synth = world();
    let kb = synth.kb.clone();
    let pred = kb
        .pred_ids()
        .filter(|&p| !kb.is_inverse(p))
        .max_by_key(|&p| kb.index(p).num_facts())
        .map(|p| kb.pred_iri(p).to_string())
        .expect("fixture has predicates");
    let capacity = 16;
    let mut server = boot(
        kb,
        ServeConfig {
            event_capacity: capacity,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();

    // Distinct limits defeat the cache, so every request runs the
    // planner and emits events — far more than the ring holds.
    for limit in 1..=(capacity + 8) {
        let payload = format!(
            "{{\"patterns\":[{{\"s\":\"?s\",\"p\":{},\"o\":\"?o\"}}],\"limit\":{limit}}}",
            remi_serve::json::escape(&pred)
        );
        assert_eq!(client.post("/v1/query", &payload).unwrap().status, 200);
    }

    let all = client.get("/v1/debug/events").unwrap();
    assert_eq!(all.status, 200, "{}", all.body);
    assert!(all.body.contains("\"head\":"), "{}", all.body);
    assert!(
        all.body.contains(&format!("\"capacity\":{capacity}")),
        "{}",
        all.body
    );
    assert!(
        all.body.contains("\"event\":\"query_plan\""),
        "{}",
        all.body
    );

    // The ring bound holds no matter how many events were emitted.
    let count: usize = all
        .body
        .split("\"count\":")
        .nth(1)
        .and_then(|rest| {
            rest.split(|ch: char| !ch.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .expect("events response reports count");
    assert!(count <= capacity, "{count} events > capacity {capacity}");

    // Sequence numbers are strictly increasing in the rendered order.
    let seqs: Vec<u64> = all
        .body
        .split("\"seq\":")
        .skip(1)
        .filter_map(|rest| {
            rest.split(|ch: char| !ch.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .collect();
    assert_eq!(seqs.len(), count);
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");

    // Channel and severity filters narrow the view.
    let query_only = client.get("/v1/debug/events?channel=query").unwrap();
    assert!(
        !query_only.body.contains("\"channel\":\"kb\""),
        "{}",
        query_only.body
    );
    let warn_up = client
        .get("/v1/debug/events?severity=warn&channel=query")
        .unwrap();
    assert!(
        !warn_up.body.contains("\"severity\":\"info\""),
        "{}",
        warn_up.body
    );
    // `since` re-reads only the tail.
    let last = *seqs.last().unwrap();
    let since = client
        .get(&format!("/v1/debug/events?since={last}"))
        .unwrap();
    assert!(
        since.body.contains(&format!("\"seq\":{last}")),
        "{}",
        since.body
    );

    // Bad filter values are param-tagged 400s.
    let bad = client.get("/v1/debug/events?channel=nope").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"param\":\"channel\""), "{}", bad.body);
    server.shutdown();
}

/// Connection churn never underflows the open-connections gauge: after
/// clients come and go, `/v1/metrics` still reports a sane small number.
#[test]
fn connection_gauge_survives_churn() {
    let synth = world();
    let mut server = boot(synth.kb.clone(), ServeConfig::default());
    let addr = server.addr();

    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.get("/v1/healthz").unwrap().status, 200);
        // Dropping c closes the socket; the server-side sweep decrements
        // the gauge (saturating — a double decrement must not wrap).
    }
    let mut c = Client::connect(addr).unwrap();
    let metrics = c.get("/v1/metrics").unwrap();
    let open = metric(&metrics.body, "remi_connections_open")
        .expect("metrics expose remi_connections_open");
    assert!(
        open <= 5,
        "gauge wrapped or leaked: {open} ({})",
        metrics.body
    );
    server.shutdown();
}

/// `remi serve` (the CLI layer) wires flags through to a live server.
#[test]
fn cli_serve_round_trip() {
    let dir = std::env::temp_dir().join(format!(
        "remi_serve_cli_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let kb_path = dir.join("kb.rkb");
    remi_cli::cmd_gen("dbpedia", 0.2, 5, &kb_path).unwrap();

    let config = ServeConfig {
        cache_entries: 64,
        ..ServeConfig::default()
    };
    let (mut handle, banner) = remi_cli::cmd_serve(&kb_path, None, config).unwrap();
    assert!(banner.contains("serving"), "{banner}");
    // The banner names the layout actually served, not the flag.
    assert!(banner.contains("(succinct backend"), "{banner}");

    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    // A binary KB file loads into the succinct backend natively.
    assert!(
        stats.body.contains("\"primary\":\"succinct\""),
        "{}",
        stats.body
    );
    let kb = remi_cli::load_kb(&kb_path, 0.01).unwrap();
    let iri = kb
        .entity_ids()
        .find(|&e| !kb.preds_of_subject(e).is_empty())
        .map(|e| kb.node_key(e).to_string())
        .expect("a describable entity");
    let resp = client
        .get(&format!("/v1/describe/{}", percent_encode(&iri)))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A four-fact KB whose describes and ingests are cheap and predictable.
fn tiny_kb() -> KnowledgeBase {
    let mut b = remi_kb::KbBuilder::new();
    b.add_iri("e:Paris", "p:capitalOf", "e:France");
    b.add_iri("e:Paris", "p:cityIn", "e:France");
    b.add_iri("e:Lyon", "p:cityIn", "e:France");
    b.add_iri("e:Marseille", "p:cityIn", "e:France");
    b.build().unwrap()
}

/// One numeric field of a JSON response body.
fn json_u64(body: &str, field: &str) -> u64 {
    remi_serve::json::parse(body.as_bytes())
        .ok()
        .and_then(|doc| doc.get(field)?.as_usize())
        .unwrap_or_else(|| panic!("no numeric {field:?} in {body}")) as u64
}

/// The registry is the only counter store: every cache and ingest event
/// lands in exactly one `/v1/metrics` series, with the values the
/// responses themselves report, and `/stats` carries no count at all.
#[test]
fn metrics_registry_counts_every_cache_and_ingest_event() {
    let mut server = boot(
        tiny_kb(),
        ServeConfig {
            compact_min_delta: 1, // the one real ingest schedules one fold
            ..ServeConfig::default()
        },
    );
    let mut c = Client::connect(server.addr()).unwrap();

    let cold = c.get("/v1/describe/e:Paris").unwrap();
    assert_eq!(cold.header("x-remi-cache"), Some("miss"), "{}", cold.body);
    let warm = c.get("/v1/describe/e:Paris").unwrap();
    assert_eq!(warm.header("x-remi-cache"), Some("hit"), "{}", warm.body);

    let mut ingests = Vec::new();
    for batch in [
        "<e:Paris> <p:cityIn> <e:France> .\n",
        "<e:Nantes> <p:cityIn> <e:France> .\n<e:Lyon> <p:cityIn> <e:France> .\n",
    ] {
        let r = c.post("/v1/ingest", batch).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        ingests.push(r.body);
    }
    let sum = |field: &str| -> u64 { ingests.iter().map(|b| json_u64(b, field)).sum() };
    assert_eq!(json_u64(&ingests[0], "appended"), 0, "{}", ingests[0]);
    assert_eq!(sum("appended"), 1);
    assert_eq!(sum("duplicates"), 2);
    assert_eq!(
        sum("cache_purged"),
        1,
        "the real ingest purges the describe"
    );

    let performed = "remi_kb_compactions_total{outcome=\"performed\"}";
    let mut text = String::new();
    let folded = (0..200).any(|_| {
        text = c.get("/v1/metrics").unwrap().body;
        metric(&text, performed) == Some(1) || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            false
        }
    });
    assert!(folded, "the background compaction never ran:\n{text}");

    let expect = [
        ("remi_cache_hits_total", 1),
        ("remi_cache_misses_total", 1),
        ("remi_cache_purged_total", sum("cache_purged")),
        ("remi_kb_ingests_total", 1),
        ("remi_kb_ingested_triples_total", sum("appended")),
        ("remi_kb_duplicate_triples_total", sum("duplicates")),
        (performed, 1),
    ];
    for (series, want) in expect {
        assert_eq!(metric(&text, series), Some(want), "{series} in\n{text}");
    }

    let stats = c.get("/v1/stats").unwrap().body;
    for key in ["hits", "requests", "latency", "phases"] {
        assert!(
            !stats.contains(&format!("\"{key}\":")),
            "/v1/stats still carries {key:?}: {stats}"
        );
    }
    assert!(stats.contains("\"delta_triples\":0"), "{stats}");
    server.shutdown();
}

/// Exposition well-formedness: one `# TYPE` line per family and no
/// repeated sample series, both on a fresh server and after traffic that
/// touches every layer (cache, ingest, query, errors).
#[test]
fn metrics_exposition_has_unique_families_and_series() {
    fn assert_well_formed(text: &str) {
        let mut families = std::collections::HashSet::new();
        let mut samples = std::collections::HashSet::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            if let Some(ty) = line.strip_prefix("# TYPE ") {
                let family = ty.split(' ').next().unwrap_or(ty);
                assert!(families.insert(family), "family {family} typed twice");
            } else {
                let (series, value) = line.rsplit_once(' ').expect("`series value` line");
                assert!(value.parse::<u64>().is_ok(), "bad sample value: {line}");
                assert!(samples.insert(series), "series {series} repeats");
            }
        }
        assert!(!samples.is_empty(), "empty exposition");
    }

    let mut server = boot(tiny_kb(), ServeConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    assert_well_formed(&c.get("/v1/metrics").unwrap().body);

    for path in [
        "/v1/describe/e:Paris",
        "/v1/describe/e:Paris",
        "/v1/describe/e:Nowhere",
    ] {
        c.get(path).unwrap();
    }
    let r = c
        .post("/v1/ingest", "<e:Nice> <p:cityIn> <e:France> .\n")
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let q = c
        .post(
            "/v1/query",
            r#"{"patterns":[{"s":"?c","p":"p:cityIn","o":"e:France"}]}"#,
        )
        .unwrap();
    assert_eq!(q.status, 200, "{}", q.body);
    assert_eq!(c.get("/v1/stats").unwrap().status, 200);
    let after = c.get("/v1/metrics").unwrap().body;
    assert_well_formed(&after);
    assert_eq!(metric(&after, "remi_cache_hits_total"), Some(1), "{after}");
    server.shutdown();
}
