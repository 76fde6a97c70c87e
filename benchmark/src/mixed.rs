//! `mixed`: reads beside writes, open loop, response cache on.
//!
//! Requests arrive as a seeded Poisson process at [`RATE`] per second and
//! each is timed from when it was due, so a stall also delays the
//! requests queued behind it. The mix: Zipf-skewed `GET /v1/describe`
//! over the 10,000 members of the five evaluation classes (more than the
//! 4,096-entry response cache holds), `POST /v1/query` 1–3-pattern joins
//! over the KB's own facts, and a small share of `POST /v1/ingest`
//! batches. Each ingest rotates the KB fingerprint, which purges the
//! response cache; batches are large enough that the server's background
//! compaction (past 8,192 delta triples) runs several times per run.
//!
//! Ingests are sent one at a time and each batch's content is fixed by
//! its position in the sequence of acknowledged batches, so every
//! describe answer maps to one or two KB states (base + the first k
//! batches) that the quality check rebuilds through the library.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use remi_kb::{KnowledgeBase, LiveKb, NodeId, TermKind};
use remi_serve::http::percent_encode;
use remi_synth::zipf::Zipf;

use crate::http::{self, Class, Sent};
use crate::quality::{references, Quality};
use crate::report::{Outcome, PoolCounts};
use crate::setup::{self, CLASSES};
use crate::stats::Samples;
use crate::trace::parse_echo;
use crate::Args;

/// Offered load, requests per second: a fifth of the server's capacity
/// for this mix. A closed-loop probe (`--rate max --seconds 6`, about the
/// 1,500 requests of one 30 s run) answered 214–325 requests/s over five
/// seeds on a 2-vCPU VM, median 251 (see `NOTES.md`).
pub const RATE: f64 = 50.0;
/// Every this-many-th arrival is an ingest (1.25%), so every run of a given
/// length writes the same amount. It sits near the 1% at which, with the
/// load generator's own traffic, the response cache still hit about 60%
/// of the time; at 5% it hit almost never.
const INGEST_EVERY: usize = 80;
/// Share of the other arrivals that are queries (the rest are describes).
/// At [`RATE`] over 30 s, at least 1,010 describes give a true p99 with 10
/// samples beyond it (so at most 0.31), and at least 200 queries give
/// `query_p50_ms` and a tail of 0.95 or more (so at least 0.135).
const QUERY_SHARE: f64 = 0.15;
/// Zipf exponent of describe popularity; rank 0 is the most frequent
/// entity, ranks alternate between the classes.
const ZIPF_S: f64 = 1.0;
/// Subjects per ingest batch (two triples each).
const BATCH_ITEMS: usize = 960;
/// Distinct query payloads per run.
const QUERIES: usize = 64;
const QUERY_LIMIT: usize = 100;
/// Latency limit, from the due time, of any request for `slo_met_share`.
pub const SLO_MS: f64 = 100.0;
/// At most this many distinct (entity, KB state) pairs get a sequential
/// reference; the judged describes are the answers those pairs cover.
const REFERENCE_PAIRS: usize = 600;

/// What a request carried, for the checks after the run.
#[derive(Debug, Clone)]
enum Payload {
    /// Entity index, answer, and the range of KB states it may have seen.
    Describe(usize, Option<f64>, u64, u64),
    /// Query index and the response body.
    Query(usize, String),
    Ingest,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    due: Duration,
    class: Class,
    /// Entity index (describe) or payload index (query).
    index: usize,
}

/// Nominal arrival rate of the stream a closed-loop capacity probe
/// (`--rate max`) walks; it only sets how long the stream is.
const PROBE_STREAM_RATE: f64 = 2000.0;

fn schedule(seed: u64, seconds: f64, entities: usize, rate: f64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005e_ed0f_a441);
    let zipf = Zipf::new(entities, ZIPF_S);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        let (class, index) = if out.len() % INGEST_EVERY == INGEST_EVERY - 1 {
            (Class::Ingest, 0)
        } else if rng.gen::<f64>() < QUERY_SHARE {
            (Class::Query, rng.gen_range(0..QUERIES))
        } else {
            (Class::Describe, zipf.sample(&mut rng))
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            class,
            index,
        });
    }
}

/// The N-Triples of the `k`-th acknowledged batch: fresh subjects tied to
/// the batch and to seeded existing entities.
fn batch(seed: u64, k: u64, kb: &KnowledgeBase, entities: &[NodeId]) -> String {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k);
    let mut text = String::with_capacity(BATCH_ITEMS * 96);
    for j in 0..BATCH_ITEMS {
        let about = kb.node_key(entities[rng.gen_range(0..entities.len())]);
        text.push_str(&format!(
            "<e:bench{k}_{j}> <p:benchIngest> <e:benchBatch_{k}> .\n<e:bench{k}_{j}> <p:benchAbout> <{about}> .\n"
        ));
    }
    text
}

/// Seeded `POST /query` patterns: single patterns (all-variable or with a
/// bound object) and 2–3-pattern chains that follow real facts, so every
/// join has answers.
fn query_patterns(seed: u64, kb: &KnowledgeBase) -> Vec<Vec<[String; 3]>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0051_ab1e);
    let facts: Vec<remi_kb::Triple> = kb.iter_triples().collect();
    let entity = |n: NodeId| kb.node_kind(n) == TermKind::Iri;
    let var = |v: &str| format!("?{v}");
    let mut out = Vec::with_capacity(QUERIES);
    while out.len() < QUERIES {
        let f = facts[rng.gen_range(0..facts.len())];
        let p = kb.pred_iri(f.p).to_string();
        let next = |rng: &mut StdRng, o: NodeId| {
            let preds: Vec<u32> = kb.preds_of_subject(o).iter().collect();
            preds.choose(rng).map(|&p| remi_kb::PredId(p))
        };
        let q = match out.len() % 4 {
            0 => vec![[var("s"), p, var("o")]],
            1 if entity(f.o) => vec![[var("s"), p, kb.node_key(f.o).to_string()]],
            2 => match next(&mut rng, f.o) {
                Some(p2) => vec![
                    [var("a"), p, var("b")],
                    [var("b"), kb.pred_iri(p2).to_string(), var("c")],
                ],
                None => continue,
            },
            3 => {
                let Some(p2) = next(&mut rng, f.o) else {
                    continue;
                };
                let o2 = kb.objects(p2, f.o).iter().next().map(NodeId);
                let Some(p3) = o2.and_then(|o2| next(&mut rng, o2)) else {
                    continue;
                };
                vec![
                    [var("a"), p, var("b")],
                    [var("b"), kb.pred_iri(p2).to_string(), var("c")],
                    [var("c"), kb.pred_iri(p3).to_string(), var("d")],
                ]
            }
            _ => continue,
        };
        out.push(q);
    }
    out
}

fn query_json(patterns: &[[String; 3]], limit: usize) -> String {
    let esc = remi_serve::json::escape;
    let items: Vec<String> = patterns
        .iter()
        .map(|[s, p, o]| format!("{{\"s\":{},\"p\":{},\"o\":{}}}", esc(s), esc(p), esc(o)))
        .collect();
    format!("{{\"patterns\":[{}],\"limit\":{limit}}}", items.join(","))
}

/// KB-state bookkeeping shared by the senders: twice the number of
/// acknowledged batches, plus one while a batch is in flight.
struct Writes {
    state: AtomicU64,
    lock: Mutex<bool>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let closed = args.capacity_probe;
    let ((server, base, entities, queries, arrivals), setup_s) = setup::repeated(|| {
        let synth = setup::generate_kb();
        // Popularity follows prominence: the classes' members (each in
        // descending prominence) interleaved.
        let members: Vec<&[NodeId]> = CLASSES.iter().map(|c| synth.members(c)).collect();
        let longest = members.iter().map(|m| m.len()).max().unwrap_or(0);
        let entities: Vec<NodeId> = (0..longest)
            .flat_map(|r| members.iter().filter_map(move |m| m.get(r).copied()))
            .collect();
        let queries = query_patterns(args.seed, &synth.kb);
        let stream_rate = if closed { PROBE_STREAM_RATE } else { RATE };
        let arrivals = schedule(args.seed, args.seconds, entities.len(), stream_rate);
        let base = synth.kb.clone();
        let server = http::boot(synth.kb, 4096)?;
        Ok((server, base, entities, queries, arrivals))
    })?;
    out.set("setup_s", setup_s);
    out.fact("kb_triples", base.num_triples());
    out.fact("clients", http::clients());
    out.fact(
        "offered_rate",
        if closed {
            "max".to_string()
        } else {
            RATE.to_string()
        },
    );
    let addr = server.addr();
    let paths: Vec<String> = entities
        .iter()
        .map(|&e| format!("/v1/describe/{}", percent_encode(base.node_key(e))))
        .collect();
    let bodies: Vec<String> = queries.iter().map(|q| query_json(q, QUERY_LIMIT)).collect();

    let writes = Writes {
        state: AtomicU64::new(0),
        lock: Mutex::new(true),
    };
    let floor_ms = http::idle_floor_ms(addr)?;
    let before = http::scrape(addr)?;
    out.fact("setup_peak_rss_mb", setup::reset_peak_rss()?);
    let pool0 = PoolCounts::now();
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(Sent, Payload)>> = Mutex::new(Vec::new());
    let t_run = Instant::now();
    // lint:allow(raw-thread-primitive): senders block on sockets for the whole run; on the shared pool they would starve the server they measure
    std::thread::scope(|scope| {
        for _ in 0..http::clients() {
            scope.spawn(|| {
                let mut client = None;
                let mut mine = Vec::new();
                loop {
                    let op = next.fetch_add(1, Ordering::Relaxed);
                    let Some(a) = arrivals.get(op) else { break };
                    // A capacity probe sends back to back until time is
                    // up; an open loop waits for each arrival's due time.
                    let due = if closed {
                        if t_run.elapsed().as_secs_f64() >= args.seconds {
                            break;
                        }
                        t_run.elapsed()
                    } else {
                        a.due
                    };
                    if let Some(wait) = due.checked_sub(t_run.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let wait_ms = t_run.elapsed().saturating_sub(due).as_secs_f64() * 1e3;
                    let traced = args.trace && crate::trace::sampled(op as u64);
                    let suffix = if traced { "?trace=1" } else { "" };
                    let mut ingest_guard = None;
                    let mut lo = 0;
                    let (method, target, body) = match a.class {
                        Class::Describe => {
                            lo = writes.state.load(Ordering::SeqCst);
                            ("GET", format!("{}{suffix}", paths[a.index]), None)
                        }
                        Class::Query => (
                            "POST",
                            format!("/v1/query{suffix}"),
                            Some(bodies[a.index].clone()),
                        ),
                        Class::Ingest => {
                            let guard = writes.lock.lock();
                            let k = writes.state.fetch_add(1, Ordering::SeqCst) / 2;
                            ingest_guard = Some(guard);
                            let text = batch(args.seed, k, &base, &entities);
                            ("POST", format!("/v1/ingest{suffix}"), Some(text))
                        }
                    };
                    let reply = http::send(&mut client, addr, method, &target, body.as_deref());
                    let latency_ms = (t_run.elapsed().saturating_sub(due)).as_secs_f64() * 1e3;
                    let ok = matches!(&reply, Ok(r) if r.status == 200);
                    if a.class == Class::Ingest {
                        if ok {
                            writes.state.fetch_add(1, Ordering::SeqCst);
                        } else {
                            // The batch may or may not have landed: later
                            // answers can no longer be mapped to a state.
                            if let Some(g) = ingest_guard.as_mut() {
                                **g = false;
                            }
                            writes.state.fetch_sub(1, Ordering::SeqCst);
                        }
                        drop(ingest_guard);
                    }
                    let hi = writes.state.load(Ordering::SeqCst);
                    let body = reply.map(|r| r.body).unwrap_or_default();
                    let echo = if traced && ok {
                        parse_echo(&body).ok()
                    } else {
                        None
                    };
                    let payload = match a.class {
                        Class::Describe => {
                            let answer = http::describe_answer(&body).ok().flatten();
                            Payload::Describe(
                                a.index,
                                answer,
                                lo / 2,
                                hi.div_ceil(2).max(lo.div_ceil(2)),
                            )
                        }
                        Class::Query => Payload::Query(a.index, body),
                        Class::Ingest => Payload::Ingest,
                    };
                    let s = Sent {
                        op: op as u64,
                        class: a.class,
                        start_ns: due.as_nanos() as u64,
                        wait_ms,
                        latency_ms,
                        ok,
                        traced,
                        echo,
                    };
                    mine.push((s, payload));
                }
                records.lock().extend(mine);
            });
        }
    });
    let elapsed = t_run.elapsed().as_secs_f64().max(args.seconds);
    out.set("peak_rss_mb", setup::peak_rss_mb()?);
    out.fact("achieved_rate", records.lock().len() as f64 / elapsed);
    let after = http::scrape(addr)?;
    let mut records = records.into_inner();
    records.sort_by_key(|(s, _)| s.op);
    let requests: Vec<Sent> = records.iter().map(|(s, _)| s.clone()).collect();
    http::report_describes(&requests, elapsed, SLO_MS, &mut out);
    let class_latency = |c: Class| {
        Samples::from(
            requests
                .iter()
                .filter(|s| s.class == c)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let (q_lat, i_lat) = (class_latency(Class::Query), class_latency(Class::Ingest));
    let acked = writes.state.load(Ordering::SeqCst) / 2;
    let states_known = *writes.lock.lock();
    out.fact("ingests_acknowledged", acked);
    out.fact("queries", q_lat.len());

    // Every acknowledged batch must be readable after the run.
    let mut c = http::connect(addr)?;
    for k in 0..acked {
        let q = query_json(
            &[[
                "?s".into(),
                "p:benchIngest".into(),
                format!("e:benchBatch_{k}"),
            ]],
            BATCH_ITEMS + 1,
        );
        let r = c
            .post("/v1/query", &q)
            .map_err(|e| format!("/v1/query: {e}"))?;
        let count = remi_serve::json::parse(r.body.as_bytes())
            .ok()
            .and_then(|d| d.get("count").and_then(|n| n.as_usize()));
        if r.status != 200 || count != Some(BATCH_ITEMS) {
            out.problem(format!(
                "batch {k}: {count:?} of {BATCH_ITEMS} subjects readable after the run"
            ));
        }
    }
    drop(c);
    drop(server);

    // Query answers must equal the library's on the base KB (ingests add
    // only new predicates, so no pattern here can see them).
    let expected: Vec<Option<String>> = queries
        .iter()
        .map(|q| remi_serve::query_body(&base, q, QUERY_LIMIT, None).ok())
        .collect();
    for (s, p) in &records {
        if let (true, Payload::Query(i, body)) = (s.ok, p) {
            let want = expected[*i].as_deref().unwrap_or("");
            let same = if s.traced {
                body.starts_with(&want[..want.len().saturating_sub(1)])
            } else {
                body == want
            };
            if !same {
                out.problem(format!(
                    "query {i} answered {body:.200} instead of {want:.200}"
                ));
            }
        }
    }

    let t_check = Instant::now();
    check_describes(
        &base,
        &entities,
        args.seed,
        &records,
        states_known,
        &mut out,
    );
    out.fact("check_s", setup::secs(t_check));

    if args.trace {
        pool0.report_since(out.attempted, &mut out);
        http::report_serve_layers(&requests, &before, &after, &mut out);
        out.set("query_p50_ms", q_lat.p50());
        out.set("query_p99_ms", q_lat.tail());
        out.set("ingest_p50_ms", i_lat.p50());
        out.set("ingest_p99_ms", i_lat.tail());
        let late: Vec<f64> = requests.iter().map(|s| s.wait_ms).collect();
        out.set("loadgen.late_ms", Samples::from(late).mean());
        // kb: the query planner and executor alone, replayed over the
        // payloads sent.
        let mut us = Vec::new();
        for (s, p) in &records {
            if let (true, Payload::Query(i, _)) = (s.ok, p) {
                let t0 = Instant::now();
                let q = remi_kb::query::parse_patterns(&base, &queries[*i]);
                let rows = q.map(|q| {
                    remi_kb::query::solve_bgp(base.store(), &q.patterns, QUERY_LIMIT, None)
                });
                std::hint::black_box(rows.is_ok());
                us.push(setup::ms(t0) * 1e3);
            }
        }
        out.set("kb.query_us", Samples::from(us).mean());
        let describes: Vec<(&Sent, NodeId)> = records
            .iter()
            .filter_map(|(s, p)| match p {
                Payload::Describe(i, ..) => Some((s, entities[*i])),
                _ => None,
            })
            .collect();
        http::replay_core(args, &base, &describes, floor_ms, &mut out);
    }
    Ok(out)
}

/// Judges describe answers against sequential REMI on the KB state they
/// were computed on: the base plus the first k acknowledged batches,
/// rebuilt through the library. References cover the first
/// [`REFERENCE_PAIRS`] distinct (state, entity) pairs in arrival order; an
/// entity whose reference times out in one state is not retried in others.
fn check_describes(
    base: &KnowledgeBase,
    entities: &[NodeId],
    seed: u64,
    records: &[(Sent, Payload)],
    states_known: bool,
    out: &mut Outcome,
) {
    let mut wanted: BTreeMap<(u64, usize), Option<Option<f64>>> = BTreeMap::new();
    let mut judged = Vec::new();
    let mut quality = Quality::default();
    for (s, p) in records {
        let Payload::Describe(i, answer, lo, hi) = p else {
            continue;
        };
        if !s.ok {
            continue;
        }
        let pairs: Vec<(u64, usize)> = (*lo..=*hi).map(|k| (k, *i)).collect();
        let new = pairs.iter().filter(|k| !wanted.contains_key(k)).count();
        if !states_known || wanted.len() + new > REFERENCE_PAIRS {
            quality.skip(*answer);
            continue;
        }
        for k in &pairs {
            wanted.insert(*k, None);
        }
        judged.push((pairs, *answer, *i));
    }
    let live = LiveKb::new(base.clone());
    let mut applied = 0u64;
    let mut timed_out: BTreeSet<usize> = BTreeSet::new();
    let mut states: Vec<u64> = wanted.keys().map(|(k, _)| *k).collect();
    states.dedup();
    for k in states {
        while applied < k {
            if let Err(e) = live.append_ntriples(&batch(seed, applied, base, entities)) {
                out.problem(format!("replaying batch {applied}: {e}"));
                return;
            }
            applied += 1;
        }
        let todo: Vec<usize> = wanted
            .range((k, 0)..=(k, usize::MAX))
            .map(|((_, i), _)| *i)
            .filter(|i| !timed_out.contains(i))
            .collect();
        let targets: Vec<NodeId> = todo.iter().map(|&i| entities[i]).collect();
        for (i, r) in todo
            .into_iter()
            .zip(references(&live.snapshot().kb, &targets))
        {
            if r.is_none() {
                timed_out.insert(i);
            }
            wanted.insert((k, i), r);
        }
    }
    for (pairs, answer, i) in judged {
        let refs: Option<Vec<Option<f64>>> = pairs.iter().map(|k| wanted[k]).collect();
        match refs {
            Some(refs) => quality.add(answer, &refs, out, || {
                format!("describe {} at states {pairs:?}", entities[i].0)
            }),
            None => quality.skip(answer),
        }
    }
    quality.report(out);
}
