//! Serving REMI online: boot the embedded HTTP service over a synthetic
//! KB, query it over real TCP, and shut it down gracefully.
//!
//! Run with `cargo run --example serving`.

use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{serve, ServeConfig};

fn main() {
    // A small DBpedia-like world (fixed seed: the output is stable).
    let synth = remi_synth::generate(&remi_synth::dbpedia_like(), 0.2, 42);
    let entity = synth
        .members("Person")
        .first()
        .map(|&e| synth.kb.node_key(e).to_string())
        .expect("the profile always populates Person");

    // Boot on an ephemeral port; the KB stays resident for the server's
    // lifetime and mined descriptions are cached.
    let mut server = serve(
        synth.kb.clone(),
        ServeConfig {
            cache_entries: 256,
            ..ServeConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port");
    println!(
        "serving a {}-triple KB on {}",
        synth.kb.num_triples(),
        server.url()
    );

    let mut client = Client::connect(server.addr()).expect("connect");

    let health = client.get("/v1/healthz").expect("healthz");
    println!("GET /v1/healthz → {} {}", health.status, health.body);

    // First describe mines; the repeat is answered from the cache.
    let target = format!("/v1/describe/{}", percent_encode(&entity));
    let cold = client.get(&target).expect("describe");
    println!(
        "GET {target} → {} ({}) {}",
        cold.status,
        cold.header("x-remi-cache").unwrap_or("?"),
        cold.body
    );
    let warm = client.get(&target).expect("describe again");
    println!(
        "GET {target} → {} ({}) [bytes identical: {}]",
        warm.status,
        warm.header("x-remi-cache").unwrap_or("?"),
        warm.body == cold.body
    );

    let summary = client
        .get(&format!("/v1/summarize/{}?k=3", percent_encode(&entity)))
        .expect("summarize");
    println!(
        "GET /v1/summarize/... → {} {}",
        summary.status, summary.body
    );

    let stats = client.get("/v1/stats").expect("stats");
    println!("GET /v1/stats → {} {}", stats.status, stats.body);

    server.shutdown();
    println!("server drained and shut down");
}
