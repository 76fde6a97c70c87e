//! `mine`: the paper's Table 4 protocol in-process, without HTTP.
//!
//! One `Remi` (extended language, sequential, `threads = 1`) is built
//! during set-up and mines a fixed list of target sets in a closed loop
//! with one caller. The list is the Table 4 mix (sizes 1/2/3 drawn
//! 50/30/20 from the five evaluation classes) at a fixed target seed;
//! `--seed` permutes the order it is mined in. Drawing the list itself
//! from `--seed` would make throughput a property of the draw: per-set
//! cost is heavy-tailed (see `NOTES.md`), so two draws of a few thousand
//! sets differ by up to 2x in mean cost. The run mines whole passes over
//! the list until `--seconds` have passed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use remi_core::eval::{raw_bindings, Evaluator};
use remi_core::{Remi, RemiConfig, SearchStatus};
use remi_synth::{sample_target_sets, TargetSpec};

use crate::quality::Quality;
use crate::report::{Outcome, PoolCounts};
use crate::setup::{self, ms, CLASSES};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::Args;

/// The Table 4 target list: this many sets at this sampling seed (the
/// seed at which `NOTES.md` records the P-REMI finding).
const SETS: usize = 400;
const TARGET_SEED: u64 = 7;

/// Per-set timeout, far above the slowest set of the list (~70 ms); a set
/// that hits it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Latency limit of one set for `slo_met_share`.
pub const SLO_MS: f64 = 100.0;

fn config() -> RemiConfig {
    RemiConfig::default().with_threads(1).with_timeout(TIMEOUT)
}

/// The reference answer of one set: its Ĉ and RE (sequential REMI, outside
/// every timed region).
struct Reference {
    cost: Option<f64>,
    expr: Option<remi_core::Expression>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_ms = Vec::new();
    let ((synth, sets), setup_s) = setup::repeated(|| {
        let synth = setup::generate_kb();
        let sets = sample_target_sets(
            &synth,
            &CLASSES,
            &TargetSpec {
                count: SETS,
                ..Default::default()
            },
            TARGET_SEED,
        );
        let t0 = Instant::now();
        black_box(Remi::new(&synth.kb, config()));
        setup_ms.push(ms(t0));
        Ok((synth, sets))
    })?;
    let kb = &synth.kb;
    let remi = Remi::new(kb, config());
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(args.seed));
    out.set("setup_s", setup_s);
    out.fact("kb_triples", kb.num_triples());
    out.fact("target_sets", sets.len());
    out.fact("target_seed", TARGET_SEED);

    // The reference pass: sequential REMI is also the system under test
    // here, so the check is that every timed answer repeats it exactly.
    let eval = Evaluator::new(kb, 1 << 16);
    let sorted_targets = |i: usize| {
        let mut t: Vec<u32> = sets[i].entities.iter().map(|n| n.0).collect();
        t.sort_unstable();
        t
    };
    let (mut nodes, mut re_tests, mut hits, mut misses, mut queue) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut reference = Vec::with_capacity(sets.len());
    for (i, set) in sets.iter().enumerate() {
        let o = remi.describe(&set.entities);
        if o.status == SearchStatus::TimedOut {
            return Err(format!("reference for set {i} timed out"));
        }
        if let Some(e) = o.expression() {
            if !eval.is_referring_expression(&e.parts, &sorted_targets(i)) {
                out.problem(format!(
                    "set {i}: reference answer is not a referring expression"
                ));
            }
        }
        nodes += o.stats.nodes_visited;
        re_tests += o.stats.re_tests;
        hits += o.stats.cache_hits;
        misses += o.stats.cache_misses;
        queue += o.stats.queue_size as u64;
        reference.push(Reference {
            cost: o.cost().map(|c| c.value()),
            expr: o.best.map(|(e, _)| e),
        });
    }

    let mut lat = Samples::default();
    let (mut traced_lat, mut plain_lat) = (Samples::default(), Samples::default());
    let mut tracer = Tracer::default();
    let (mut queue_ms, mut search_ms) = (Vec::new(), Vec::new());
    let mut quality = Quality::default();
    let mut within_slo = 0u64;
    let mut unverified = Vec::new();
    out.fact("setup_peak_rss_mb", setup::reset_peak_rss()?);
    let pool0 = PoolCounts::now();
    let t_run = Instant::now();
    // Every pass is the same work, so the median pass rate discounts a
    // pass slowed by something outside the program.
    let mut pass_rates = Vec::new();
    while pass_rates.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let (t_pass, failed0) = (Instant::now(), out.failed);
        for &i in &order {
            let op = out.attempted;
            out.attempted += 1;
            let traced = args.trace && crate::trace::sampled(op);
            let start_ns = t_run.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let o = remi.describe(black_box(&sets[i].entities));
            let took = t0.elapsed();
            let took_ms = took.as_secs_f64() * 1e3;
            lat.push(took_ms);
            if o.status == SearchStatus::TimedOut {
                out.failed += 1;
            } else if took_ms <= SLO_MS {
                within_slo += 1;
            }
            if args.trace {
                if traced {
                    let root = tracer.record(
                        op,
                        None,
                        "core",
                        "describe",
                        start_ns,
                        start_ns + took.as_nanos() as u64,
                    );
                    tracer.record_sequence(
                        op,
                        root,
                        "core",
                        &[
                            ("queue", o.stats.queue_time.as_nanos() as u64),
                            ("search", o.stats.search_time.as_nanos() as u64),
                        ],
                        start_ns,
                        start_ns + took.as_nanos() as u64,
                    );
                    queue_ms.push(o.stats.queue_time.as_secs_f64() * 1e3);
                    search_ms.push(o.stats.search_time.as_secs_f64() * 1e3);
                    traced_lat.push(took_ms);
                } else {
                    plain_lat.push(took_ms);
                }
            }
            if o.status != SearchStatus::TimedOut {
                let r = &reference[i];
                quality.add(o.cost().map(|c| c.value()), &[r.cost], &mut out, || {
                    format!("set {i}")
                });
                let expr = o.best.map(|(e, _)| e);
                if expr != r.expr {
                    unverified.push((i, expr));
                }
            }
        }
        let done = order.len() as u64 - (out.failed - failed0);
        pass_rates.push(done as f64 / setup::secs(t_pass));
    }
    let ops = out.attempted;
    out.set("peak_rss_mb", setup::peak_rss_mb()?);

    // Answers that differ from the (already checked) reference RE are
    // checked one by one, outside the timed loop.
    for (i, expr) in &unverified {
        if let Some(e) = expr {
            if !eval.is_referring_expression(&e.parts, &sorted_targets(*i)) {
                out.problem(format!("set {i}: answer is not a referring expression"));
            }
        }
    }
    out.fact("answers_differing_from_reference", unverified.len());
    out.fact("passes", pass_rates.len());

    out.set("throughput_ops_s", median(&pass_rates));
    out.set("p50_ms", lat.p50());
    out.set("p99_ms", lat.tail());
    out.set("slo_met_share", within_slo as f64 / ops as f64);
    out.set("ok_share", 1.0 - out.failed as f64 / ops as f64);
    out.fact("slo_ms", SLO_MS);
    out.fact("latency_samples", lat.len());
    out.fact("tail_level", crate::stats::tail_level(lat.len()));
    quality.report(&mut out);

    if args.trace {
        let core_setup_ms = median(&setup_ms);
        out.set("core.setup_ms", core_setup_ms);
        out.set(
            "core.setup_share",
            core_setup_ms / (lat.mean() * ops as f64),
        );
        out.set("core.queue_ms", Samples::from(queue_ms).mean());
        out.set("core.search_ms", Samples::from(search_ms).mean());
        out.set("core.queue_size", queue as f64 / sets.len() as f64);
        out.set("core.nodes_visited", nodes as f64 / sets.len() as f64);
        out.set("core.re_tests", re_tests as f64 / sets.len() as f64);
        out.set(
            "core.binding_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        pool0.report_since(ops, &mut out);
        out.set("obs.trace_overhead", traced_lat.p50() - plain_lat.p50());
        let self_ms = tracer.mean_self_ms();
        out.set("core.self_ms", self_ms.get("core").copied().unwrap_or(0.0));
        out.set("trace.coverage", crate::stats::median(&tracer.coverage()));

        // kb: the binding primitive behind every RE test, replayed over
        // each set's queue.
        let mut raw_us = Vec::with_capacity(sets.len());
        for set in &sets {
            let (queue, _) = remi.ranked_common_expressions(&set.entities);
            let t0 = Instant::now();
            for e in &queue {
                black_box(raw_bindings(kb, &e.expr));
            }
            raw_us.push(ms(t0) * 1e3);
        }
        out.set("kb.raw_bindings_us", Samples::from(raw_us).mean());
        tracer
            .write_jsonl(&crate::report::trace_path(args))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(out)
}
