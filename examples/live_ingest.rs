//! Live KB ingestion: append facts to a resident KB through the delta
//! overlay — first with the library API (epochs, snapshots, compaction),
//! then over HTTP against a running `remi-serve` instance.
//!
//! Run with `cargo run --example live_ingest`.

use remi_kb::delta::CompactionPolicy;
use remi_kb::term::Term;
use remi_kb::LiveKb;
use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{serve, ServeConfig};

fn main() {
    // --- library layer: LiveKb ----------------------------------------
    let synth = remi_synth::generate(&remi_synth::dbpedia_like(), 0.2, 42);
    let live = LiveKb::with_policy(
        synth.kb.clone(),
        CompactionPolicy {
            min_delta: 2,
            delta_fraction: 0.0,
        },
    );
    let frozen = live.snapshot();
    println!(
        "epoch {} — {} triples, fingerprint {:016x}",
        frozen.epoch,
        frozen.kb.num_triples(),
        frozen.fingerprint
    );

    // Append a batch: new entities, a new predicate, one duplicate.
    let out = live.append(vec![
        (
            Term::iri("e:Explorer_1"),
            "p:discovered".to_string(),
            Term::iri("e:Island_1"),
        ),
        (
            Term::iri("e:Explorer_1"),
            "p:discovered".to_string(),
            Term::iri("e:Island_2"),
        ),
        (
            Term::iri("e:Explorer_1"),
            "p:discovered".to_string(),
            Term::iri("e:Island_1"), // duplicate inside the batch
        ),
    ]);
    let fresh = live.snapshot();
    println!(
        "append: +{} triples ({} duplicates) → epoch {}, fingerprint {:016x}",
        out.appended, out.duplicates, out.epoch, fresh.fingerprint
    );

    // The pinned snapshot is untouched; the fresh one sees the facts.
    let p = fresh.kb.pred_id("p:discovered").expect("new predicate");
    println!(
        "pinned epoch {} knows p:discovered: {} | fresh epoch {}: {} facts",
        frozen.epoch,
        frozen.kb.pred_id("p:discovered").is_some(),
        fresh.epoch,
        fresh.kb.index(p).num_facts(),
    );

    // Fold the overlay into a fresh base: content (and fingerprint)
    // unchanged, delta empty.
    assert!(live.needs_compaction());
    let fold = live.compact();
    let folded = live.snapshot();
    println!(
        "compaction folded {} triples in {:.1?} → epoch {}, fingerprint stable: {}",
        fold.folded,
        fold.duration,
        fold.epoch,
        folded.fingerprint == fresh.fingerprint,
    );

    // --- HTTP layer: POST /ingest --------------------------------------
    let mut server = serve(
        synth.kb.clone(),
        ServeConfig {
            cache_entries: 256,
            compact_min_delta: 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind an ephemeral loopback port");
    println!("\nserving on {}", server.url());
    let mut client = Client::connect(server.addr()).expect("connect");

    // Describe an entity that does not exist yet.
    let miss = client
        .get(&format!("/v1/describe/{}", percent_encode("e:Atlantis_1")))
        .expect("describe");
    println!("GET /v1/describe/e:Atlantis_1 → {}", miss.status);

    // Ingest facts about it, then describe again: servable immediately.
    let ingest = client
        .post(
            "/v1/ingest",
            "<e:Atlantis_1> <p:locatedIn> <e:Ocean_1> .\n\
             <e:Atlantis_2> <p:locatedIn> <e:Ocean_1> .\n\
             <e:Atlantis_1> <p:submerged> <e:Ocean_1> .\n",
        )
        .expect("ingest");
    println!("POST /v1/ingest → {} {}", ingest.status, ingest.body);

    let hit = client
        .get(&format!("/v1/describe/{}", percent_encode("e:Atlantis_1")))
        .expect("describe");
    println!(
        "GET /v1/describe/e:Atlantis_1 → {} {}",
        hit.status, hit.body
    );

    // The stats surface the live epoch facts (epoch, delta, base size).
    let stats = client.get("/v1/stats").expect("stats");
    println!("GET /v1/stats → {}", stats.body);

    server.shutdown();
    println!("server drained and shut down");
}
