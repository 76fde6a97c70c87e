//! Live-ingestion integration suite: the delta-overlay subsystem proved
//! against from-scratch rebuilds, concurrent miners, and the HTTP layer.
//!
//! The load-bearing property: after ANY append schedule, the layered
//! store answers every `TripleStore` primitive identically to a KB
//! rebuilt from the full triple set, before and after compaction. On top of that: epoch snapshots are torn-read
//! free under concurrent appends, and fingerprint rotation purges the
//! serve cache instead of leaking stale generations.

use proptest::prelude::*;
use remi_kb::delta::CompactionPolicy;
use remi_kb::term::Term;
use remi_kb::{KbBuilder, KnowledgeBase, LiveKb, NodeId, TripleStore};
use remi_serve::client::Client;
use remi_serve::http::percent_encode;
use remi_serve::{describe_body, json, serve, ServeConfig};

type Fact = (u8, u8, u8);

fn iri3(f: Fact) -> (Term, String, Term) {
    (
        Term::iri(format!("e:n{}", f.0)),
        format!("p:r{}", f.1),
        Term::iri(format!("e:n{}", f.2)),
    )
}

/// The value of one exact series (labels included, as rendered) in a
/// `/v1/metrics` exposition.
fn metric(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
}

fn build_kb(facts: &[Fact]) -> KnowledgeBase {
    let mut b = KbBuilder::new();
    for &(s, p, o) in facts {
        b.add_iri(&format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
    }
    b.build().expect("non-empty")
}

/// Every `TripleStore` primitive of `live` must agree with `want`.
/// Dictionaries are id-identical by construction (same intern order), so
/// ids compare directly.
fn assert_equivalent(live: &KnowledgeBase, want: &KnowledgeBase) {
    assert_eq!(live.num_nodes(), want.num_nodes());
    assert_eq!(live.num_preds(), want.num_preds());
    assert_eq!(live.num_triples(), want.num_triples());
    assert_eq!(
        live.num_triples_with_inverses(),
        want.num_triples_with_inverses()
    );
    for p in want.pred_ids() {
        let (a, b) = (live.index(p), want.index(p));
        assert_eq!(a.num_facts(), b.num_facts(), "num_facts({p:?})");
        assert_eq!(a.num_subjects(), b.num_subjects(), "num_subjects({p:?})");
        assert_eq!(a.num_objects(), b.num_objects(), "num_objects({p:?})");
        // Sequential group scans in both directions.
        let got: Vec<(NodeId, Vec<u32>)> = a
            .iter_subjects()
            .map(|(s, objs)| (s, objs.to_vec()))
            .collect();
        let expect: Vec<(NodeId, Vec<u32>)> = b
            .iter_subjects()
            .map(|(s, objs)| (s, objs.to_vec()))
            .collect();
        assert_eq!(got, expect, "iter_subjects({p:?})");
        let got: Vec<(NodeId, Vec<u32>)> = a
            .iter_objects_grouped()
            .map(|(o, subs)| (o, subs.to_vec()))
            .collect();
        let expect: Vec<(NodeId, Vec<u32>)> = b
            .iter_objects_grouped()
            .map(|(o, subs)| (o, subs.to_vec()))
            .collect();
        assert_eq!(got, expect, "iter_objects_grouped({p:?})");
        // Random-access directory primitives (the store-level API the
        // group iterators are built from).
        let (ls, ws) = (live.store(), want.store());
        for i in 0..b.num_subjects() {
            assert_eq!(ls.subject_at(p, i), ws.subject_at(p, i));
            assert_eq!(ls.objects_at(p, i).to_vec(), ws.objects_at(p, i).to_vec());
        }
        for i in 0..b.num_objects() {
            assert_eq!(ls.object_at(p, i), ws.object_at(p, i));
            assert_eq!(ls.subjects_at(p, i).to_vec(), ws.subjects_at(p, i).to_vec());
            assert_eq!(ls.object_group_len(p, i), ws.object_group_len(p, i));
        }
    }
    for n in want.node_ids() {
        assert_eq!(
            live.preds_of_subject(n).to_vec(),
            want.preds_of_subject(n).to_vec(),
            "preds_of_subject({n:?})"
        );
        assert_eq!(live.node_frequency(n), want.node_frequency(n));
        // Point lookups across every predicate for a few nodes would be
        // O(n·p); the per-pred scans above already cover bindings. Spot
        // the contains path instead.
        for p in want.pred_ids() {
            let objs = want.objects(p, n);
            assert_eq!(live.objects(p, n).to_vec(), objs.to_vec());
            if let Some(o) = objs.first() {
                assert!(live.contains(n, p, NodeId(o)));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential proof: LiveKb over any base, fed any append
    /// schedule, answers exactly like a KB rebuilt from the full triple
    /// set — and again after folding the delta.
    #[test]
    fn prop_layered_equals_rebuild(
        base in proptest::collection::vec((0u8..24, 0u8..5, 0u8..24), 1..40),
        schedule in proptest::collection::vec(
            proptest::collection::vec((0u8..32, 0u8..7, 0u8..32), 1..20),
            1..5,
        ),
    ) {
        let live = LiveKb::new(build_kb(&base));
        // The reference rebuild interns in the same order the live
        // path does, so dictionary ids line up exactly.
        let mut reference = KbBuilder::new();
        for &(s, p, o) in &base {
            reference.add_iri(
                &format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
        }
        for batch in &schedule {
            live.append(batch.iter().map(|&f| iri3(f)));
            for &(s, p, o) in batch {
                reference.add_iri(
                    &format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
            }
        }
        let want = reference.build().expect("non-empty");
        let snap = live.snapshot();
        assert_equivalent(&snap.kb, &want);

        // Compaction folds the overlay without changing a single
        // answer (or the fingerprint).
        live.compact();
        let folded = live.snapshot();
        prop_assert_eq!(folded.fingerprint, snap.fingerprint);
        assert_equivalent(&folded.kb, &want);
    }
}

/// Epoch snapshots under concurrent appends and compactions: readers pin
/// a snapshot and verify its internal invariants hold however the writer
/// races them (the torn-read test at the library layer).
#[test]
fn concurrent_appends_never_tear_a_pinned_snapshot() {
    let live = LiveKb::with_policy(
        build_kb(&[(0, 0, 1), (1, 0, 2), (2, 1, 0)]),
        CompactionPolicy {
            min_delta: 40,
            delta_fraction: 0.0,
        },
    );
    let writers = 3usize;
    let batches = 40usize;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let live = &live;
            scope.spawn(move || {
                for b in 0..batches {
                    let tag = (w * batches + b) as u8;
                    live.append(vec![
                        iri3((tag, 2, tag.wrapping_add(1))),
                        iri3((tag, 3, tag.wrapping_add(2))),
                    ]);
                    if b % 16 == 0 {
                        live.compact();
                    }
                }
            });
        }
        for _ in 0..2 {
            let live = &live;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                for _ in 0..200 {
                    let snap = live.snapshot();
                    // Epochs are monotonic from any one reader's view.
                    assert!(snap.epoch >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch;
                    let kb = &snap.kb;
                    // Internal consistency of the pinned view: per-pred
                    // fact counts, sorted bindings, and direction
                    // agreement — violated only by a torn store.
                    let total: usize = kb.pred_ids().map(|p| kb.index(p).num_facts()).sum();
                    assert_eq!(total, kb.num_triples_with_inverses());
                    for p in kb.pred_ids() {
                        let idx = kb.index(p);
                        let mut seen = 0usize;
                        for (s, objs) in idx.iter_subjects() {
                            let objs = objs.to_vec();
                            assert!(objs.windows(2).all(|w| w[0] < w[1]), "unsorted");
                            seen += objs.len();
                            for &o in &objs {
                                assert!(
                                    idx.subjects_of(NodeId(o)).contains_sorted(s.0),
                                    "missing reverse edge in pinned snapshot"
                                );
                            }
                        }
                        assert_eq!(seen, idx.num_facts(), "group scan vs count");
                    }
                }
            });
        }
    });
    // Everything every writer appended is present in the final view.
    let snap = live.snapshot();
    for w in 0..writers {
        for b in 0..batches {
            let tag = (w * batches + b) as u8;
            let s = snap.kb.node_id_by_iri(&format!("e:n{tag}")).unwrap();
            let p = snap.kb.pred_id("p:r2").unwrap();
            let o = snap
                .kb
                .node_id_by_iri(&format!("e:n{}", tag.wrapping_add(1)))
                .unwrap();
            assert!(snap.kb.contains(s, p, o), "lost write w={w} b={b}");
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP layer

fn world() -> std::sync::Arc<remi_synth::SynthKb> {
    remi_synth::fixtures::dbpedia(0.3, 11)
}

fn describable(synth: &remi_synth::SynthKb) -> String {
    let kb = &synth.kb;
    kb.entity_ids()
        .find(|&e| !kb.preds_of_subject(e).is_empty())
        .map(|e| kb.node_key(e).to_string())
        .expect("describable entity")
}

/// Served describes stay byte-identical across a no-op compaction, and
/// the stable fingerprint keeps the cache warm through it.
#[test]
fn describe_bytes_survive_a_noop_compaction() {
    let synth = world();
    let iri = describable(&synth);
    let mut server = serve(
        synth.kb.clone(),
        ServeConfig {
            compact_min_delta: 1, // any ingest schedules a fold
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    // Grow the delta, then describe on the layered view.
    let triple = "<e:live_x> <p:liveRel> <e:live_y> .\n";
    let ingest = c.post("/v1/ingest", triple).unwrap();
    assert_eq!(ingest.status, 200, "{}", ingest.body);
    let path = format!("/v1/describe/{}", percent_encode(&iri));
    let before = c.get(&path).unwrap();
    assert_eq!(before.status, 200, "{}", before.body);

    // Wait for the background compaction to fold the delta.
    let compacted = (0..200).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let metrics = c.get("/v1/metrics").unwrap().body;
        let stats = c.get("/v1/stats").unwrap().body;
        metric(&metrics, "remi_kb_compactions_total{outcome=\"performed\"}") == Some(1)
            && stats.contains("\"delta_triples\":0")
    });
    assert!(compacted, "background compaction never ran");

    // Same request: a cache hit (the fingerprint survived the fold), and
    // byte-identical.
    let warm = c.get(&path).unwrap();
    assert_eq!(warm.header("x-remi-cache"), Some("hit"));
    assert_eq!(warm.body, before.body);

    // A fresh cache key after the fold: mined on the compacted base, and
    // byte-identical to the library's answer on the layered view.
    let remined = c.get(&format!("{path}?k=2")).unwrap();
    assert_eq!(remined.header("x-remi-cache"), Some("miss"));
    let layered = LiveKb::new(synth.kb.clone());
    layered.append_ntriples(triple).unwrap();
    let layered = layered.snapshot();
    assert_eq!(before.body, describe_body(&layered.kb, &iri, 1).unwrap());
    assert_eq!(remined.body, describe_body(&layered.kb, &iri, 2).unwrap());
    server.shutdown();
}

/// The serve-level hammer: ingest batches land while miners describe on
/// pinned snapshots. Every response is clean, epochs advance, and
/// fingerprint rotation purges the stale cache generations.
#[test]
fn concurrent_ingest_vs_describe_over_http() {
    let synth = world();
    let iris: Vec<String> = {
        let kb = &synth.kb;
        kb.entity_ids()
            .filter(|&e| !kb.preds_of_subject(e).is_empty())
            .take(4)
            .map(|e| kb.node_key(e).to_string())
            .collect()
    };
    let mut server = serve(
        synth.kb.clone(),
        ServeConfig {
            compact_min_delta: 25,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let ingests = 30usize;
    std::thread::scope(|scope| {
        for w in 0..2 {
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..ingests {
                    let body = format!("<e:hammer_{w}_{i}> <p:hammered> <e:hammerBatch_{w}> .\n");
                    let r = c.post("/v1/ingest", &body).unwrap();
                    assert_eq!(r.status, 200, "{}", r.body);
                }
            });
        }
        for r in 0..2 {
            let iris = &iris;
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..40 {
                    let iri = &iris[(r + i) % iris.len()];
                    let resp = c
                        .get(&format!("/v1/describe/{}", percent_encode(iri)))
                        .unwrap();
                    assert_eq!(resp.status, 200, "{iri}: {}", resp.body);
                    // A torn snapshot would surface as a 500 or a
                    // malformed body; every body must be the canonical
                    // JSON shell.
                    assert!(
                        resp.body.starts_with("{\"entity\":"),
                        "malformed body: {}",
                        resp.body
                    );
                }
            });
        }
    });

    let mut c = Client::connect(addr).unwrap();
    let metrics = c.get("/v1/metrics").unwrap().body;
    assert_eq!(
        metric(&metrics, "remi_kb_ingests_total"),
        Some(2 * ingests as u64),
        "{metrics}"
    );
    assert_eq!(
        metric(
            &metrics,
            "remi_http_responses_total{class=\"server_error\"}"
        ),
        Some(0),
        "{metrics}"
    );

    // Rotation accounting: every ingest that followed a cached describe
    // purged that generation, so stale entries never pile up. The cache
    // can only hold current-generation entries now.
    let fp_purges = metric(&metrics, "remi_cache_purged_total").expect("purged counter");
    // Describe twice on the final generation: the second must hit,
    // proving purges never evict the live generation.
    let a = c
        .get(&format!("/v1/describe/{}", percent_encode(&iris[0])))
        .unwrap();
    let b = c
        .get(&format!("/v1/describe/{}", percent_encode(&iris[0])))
        .unwrap();
    assert_eq!(b.header("x-remi-cache"), Some("hit"));
    assert_eq!(a.body, b.body);
    // And ingesting one more batch purges exactly the entries of the
    // now-dead generation (at least the one we just cached).
    let r = c
        .post("/v1/ingest", "<e:final_probe> <p:hammered> <e:final> .\n")
        .unwrap();
    assert_eq!(r.status, 200);
    assert!(
        r.body.contains("\"cache_purged\":"),
        "ingest response reports purges: {}",
        r.body
    );
    let metrics_after = c.get("/v1/metrics").unwrap().body;
    let fp_purges_after =
        metric(&metrics_after, "remi_cache_purged_total").expect("purged counter");
    assert!(
        fp_purges_after > fp_purges,
        "rotation must purge the stale generation ({fp_purges} → {fp_purges_after})"
    );
    server.shutdown();
}

/// One describe request of the differential below: a GET of `gets[0]`
/// or a batch of every entry, at `k`.
struct Describe {
    iris: Vec<String>,
    k: usize,
    batch: bool,
}

/// GETs of every entry of `gets` and one batch of `batch`, at k ∈ {1, 3}.
fn describes(gets: &[String], batch: &[String]) -> Vec<Describe> {
    let mut out = Vec::new();
    for k in [1, 3] {
        for iri in gets {
            out.push(Describe {
                iris: vec![iri.clone()],
                k,
                batch: false,
            });
        }
        out.push(Describe {
            iris: batch.to_vec(),
            k,
            batch: true,
        });
    }
    out
}

/// The served bodies of `reqs`, in order.
fn served(c: &mut Client, reqs: &[Describe]) -> Vec<String> {
    reqs.iter()
        .map(|r| {
            let resp = if r.batch {
                let list: Vec<String> = r.iris.iter().map(|i| json::escape(i)).collect();
                let body = format!("{{\"entities\":[{}],\"k\":{}}}", list.join(","), r.k);
                c.post("/v1/describe", &body).unwrap()
            } else {
                let path = format!("/v1/describe/{}?k={}", percent_encode(&r.iris[0]), r.k);
                c.get(&path).unwrap()
            };
            assert_eq!(resp.status, 200, "{:?}: {}", r.iris, resp.body);
            resp.body
        })
        .collect()
}

/// Every served body equals the library's rendering over `kb`: a GET is
/// `describe_body`, a batch wraps one per entity in its envelope.
fn assert_library_bodies(reqs: &[Describe], bodies: &[String], kb: &KnowledgeBase) {
    for (r, body) in reqs.iter().zip(bodies) {
        let mut want: Vec<String> = r
            .iris
            .iter()
            .map(|iri| describe_body(kb, iri, r.k).unwrap())
            .collect();
        let want = if r.batch {
            json::JsonObject::new()
                .field_u64("count", want.len() as u64)
                .field_raw("results", &json::array_raw(want))
                .finish()
        } else {
            want.remove(0)
        };
        assert_eq!(body, &want, "{:?} k={}", r.iris, r.k);
    }
}

/// A server mines every describe of a generation with one shared miner
/// context, built by the generation's first miss and kept through a
/// compaction. Across ingest → describe → ingest → describe → compaction
/// → describe, every served body (GET and batch, k ∈ {1, 3}) is
/// byte-identical to the library's rendering over a from-scratch `LiveKb`
/// holding the same triples, and each generation pays for one build.
#[test]
fn shared_miner_context_answers_like_a_fresh_miner() {
    let synth = world();
    let iris: Vec<String> = {
        let kb = &synth.kb;
        kb.entity_ids()
            .filter(|&e| !kb.preds_of_subject(e).is_empty())
            .take(10)
            .map(|e| kb.node_key(e).to_string())
            .collect()
    };
    let mut server = serve(
        synth.kb.clone(),
        ServeConfig {
            // The first batch stays layered, the second schedules a fold.
            compact_min_delta: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let builds = |c: &mut Client| {
        let text = c.get("/v1/metrics").unwrap().body;
        metric(&text, "remi_miner_builds_total").expect("builds counter")
    };
    let fresh = LiveKb::new(synth.kb.clone());
    let ingest = |c: &mut Client, batch: &str| {
        fresh.append_ntriples(batch).unwrap();
        let r = c.post("/v1/ingest", batch).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        fresh.snapshot()
    };

    // The boot generation.
    let boot = describes(&iris[..1], &iris[1..2]);
    assert_library_bodies(&boot, &served(&mut c, &boot), &synth.kb);
    assert_eq!(builds(&mut c), 1);

    // A layered generation: the delta stays below the fold trigger.
    let snap = ingest(
        &mut c,
        "<e:live_x> <p:liveRel> <e:live_y> .\n<e:live_x> <p:liveRel> <e:live_z> .\n",
    );
    let layered = describes(&["e:live_x".to_string(), iris[2].clone()], &iris[3..5]);
    let bodies = served(&mut c, &layered);
    assert_library_bodies(&layered, &bodies, &snap.kb);
    assert_eq!(builds(&mut c), 2);

    // The next batch schedules a fold; describe before and after it.
    let snap = ingest(
        &mut c,
        "<e:live_y> <p:liveRel> <e:live_z> .\n<e:live_z> <p:liveRel> <e:live_x> .\n",
    );
    let racing = describes(&["e:live_y".to_string()], &iris[5..7]);
    let before = served(&mut c, &racing);
    assert_library_bodies(&racing, &before, &snap.kb);
    let compacted = (0..200).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let stats = c.get("/v1/stats").unwrap().body;
        stats.contains("\"delta_triples\":0")
    });
    assert!(compacted, "background compaction never ran");
    // Fresh cache keys mine on the folded base with the generation's
    // context; earlier keys answer from the cache, unchanged.
    let folded = describes(&iris[7..9], &iris[9..10]);
    let after = served(&mut c, &folded);
    assert_library_bodies(&folded, &after, &snap.kb);
    assert!(fresh.compact().performed);
    assert_library_bodies(&folded, &after, &fresh.snapshot().kb);
    assert_eq!(served(&mut c, &racing), before);
    assert_eq!(builds(&mut c), 3);
    server.shutdown();
}
