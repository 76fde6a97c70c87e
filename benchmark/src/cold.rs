//! `describe-cold`: `GET /v1/describe/{e}` with the response cache off.
//!
//! Closed loop: one keep-alive client per core (at most two) sends the
//! next request of a seeded stream as soon as its previous one answers.
//! The stream walks the 5% most frequent entities of each of the five
//! evaluation classes (the §4.1 target pool, 500 entities) in a fresh
//! seeded order per cycle, so every run mines the same entities about
//! equally often; after every [`HUB_EVERY`] - 1 of them it names one of
//! the [`HUBS`] most prominent `Country` entities, in rotation. Every
//! request rebuilds the miner (`Remi::new`) and, on hubs, builds a queue
//! of up to ~43k expressions. P-REMI runs at pool width, as the server
//! configures it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use remi_kb::NodeId;
use remi_serve::http::percent_encode;

use crate::http::{self, Class, Sent};
use crate::quality::{references, Quality};
use crate::report::{Outcome, PoolCounts};
use crate::setup::{self, ms, CLASSES};
use crate::trace::parse_echo;
use crate::Args;

/// Hubs: `e:Country_0 … e:Country_{HUBS-1}`, the most prominent countries.
const HUBS: usize = 4;
/// One request in this many names a hub.
const HUB_EVERY: usize = 17;
/// The share of each class's most frequent entities in the pool.
const TOP_FRACTION: f64 = 0.05;
/// Length of the seeded entity stream (the loop wraps around it).
const STREAM: usize = 20_000;
/// Latency limit of one describe for `slo_met_share`.
pub const SLO_MS: f64 = 250.0;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((server, base, stream), setup_s) = setup::repeated(|| {
        let synth = setup::generate_kb();
        let pool: Vec<NodeId> = CLASSES
            .iter()
            .flat_map(|c| {
                let members = synth.members(c);
                let top = (members.len() as f64 * TOP_FRACTION).ceil() as usize;
                members[..top].iter().copied()
            })
            .collect();
        let hubs = &synth.members("Country")[..HUBS];
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut cycle = Vec::new();
        let stream: Vec<NodeId> = (0..STREAM)
            .map(|i| {
                if i % HUB_EVERY == HUB_EVERY - 1 {
                    return hubs[(i / HUB_EVERY) % HUBS];
                }
                if cycle.is_empty() {
                    cycle = pool.clone();
                    cycle.shuffle(&mut rng);
                }
                cycle.pop().expect("refilled above")
            })
            .collect();
        let base = synth.kb.clone();
        let server = http::boot(synth.kb, 0)?;
        Ok((server, base, stream))
    })?;
    out.set("setup_s", setup_s);
    out.fact("kb_triples", base.num_triples());
    out.fact("clients", http::clients());
    out.fact("hub_share", 1.0 / HUB_EVERY as f64);
    let addr = server.addr();
    let paths: Vec<String> = stream
        .iter()
        .map(|&e| format!("/v1/describe/{}", percent_encode(base.node_key(e))))
        .collect();

    let floor_ms = http::idle_floor_ms(addr)?;
    let before = http::scrape(addr)?;
    out.fact("setup_peak_rss_mb", setup::reset_peak_rss()?);
    let pool0 = PoolCounts::now();
    let next = AtomicUsize::new(0);
    let sent: Mutex<Vec<(Sent, usize, Option<f64>)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let t_run = Instant::now();
    // lint:allow(raw-thread-primitive): clients block on sockets for the whole run; on the shared pool they would starve the server they measure
    std::thread::scope(|scope| {
        for _ in 0..http::clients() {
            scope.spawn(|| {
                let mut client = None;
                let mut mine = Vec::new();
                while t_run.elapsed().as_secs_f64() < args.seconds {
                    let op = next.fetch_add(1, Ordering::Relaxed);
                    let i = op % paths.len();
                    let traced = args.trace && crate::trace::sampled(op as u64);
                    let target = if traced {
                        format!("{}?trace=1", paths[i])
                    } else {
                        paths[i].clone()
                    };
                    let start_ns = t_run.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    let reply = http::send(&mut client, addr, "GET", &target, None);
                    let latency_ms = ms(t0);
                    let (ok, answer, echo) = match reply {
                        Ok(r) if r.status == 200 => {
                            let answer = http::describe_answer(&r.body);
                            let echo = if traced {
                                Some(parse_echo(&r.body))
                            } else {
                                None
                            };
                            match (answer, echo.transpose()) {
                                (Ok(a), Ok(e)) => (true, a, e),
                                (Err(e), _) | (_, Err(e)) => {
                                    errors.lock().push(format!("{target}: {e}"));
                                    (false, None, None)
                                }
                            }
                        }
                        Ok(_) | Err(_) => (false, None, None),
                    };
                    let s = Sent {
                        op: op as u64,
                        class: Class::Describe,
                        start_ns,
                        wait_ms: 0.0,
                        latency_ms,
                        ok,
                        traced,
                        echo,
                    };
                    mine.push((s, i, answer));
                }
                sent.lock().extend(mine);
            });
        }
    });
    let elapsed = t_run.elapsed().as_secs_f64();
    out.set("peak_rss_mb", setup::peak_rss_mb()?);
    let after = http::scrape(addr)?;
    drop(server);
    let mut sent = sent.into_inner();
    sent.sort_by_key(|(s, _, _)| s.op);
    for e in errors.into_inner() {
        out.problem(e);
    }
    let requests: Vec<Sent> = sent.iter().map(|(s, _, _)| s.clone()).collect();
    http::report_describes(&requests, elapsed, SLO_MS, &mut out);

    // Quality: sequential REMI on every entity answered, after the run.
    let t_check = Instant::now();
    let mut answered: Vec<NodeId> = sent
        .iter()
        .filter(|(s, ..)| s.ok)
        .map(|(_, i, _)| stream[*i])
        .collect();
    answered.sort_unstable();
    answered.dedup();
    let refs: HashMap<NodeId, Option<Option<f64>>> = answered
        .iter()
        .copied()
        .zip(references(&base, &answered))
        .collect();
    let mut quality = Quality::default();
    for (s, i, answer) in &sent {
        match refs.get(&stream[*i]) {
            Some(Some(r)) if s.ok => quality.add(*answer, &[*r], &mut out, || paths[*i].clone()),
            Some(None) if s.ok => quality.skip(*answer),
            _ => {}
        }
    }
    quality.report(&mut out);
    out.fact("check_s", setup::secs(t_check));

    if args.trace {
        pool0.report_since(out.attempted, &mut out);
        http::report_serve_layers(&requests, &before, &after, &mut out);
        let describes: Vec<(&Sent, NodeId)> =
            sent.iter().map(|(s, i, _)| (s, stream[*i])).collect();
        http::replay_core(args, &base, &describes, floor_ms, &mut out);
    }
    Ok(out)
}
