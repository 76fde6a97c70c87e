//! Figure 1 — the DFS over conjunctions: pruning-by-depth and side
//! pruning exercised on a Rennes/Nantes-style workload: queue
//! construction, sequential REMI and 8-task P-REMI. A hub entity (the
//! most prominent country, the `describe-cold` hub case) adds 2-task
//! P-REMI over a queue of ~10k expressions, where most subtrees end in a
//! bound prune.

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_core::eval::Evaluator;
use remi_core::parallel::parallel_remi_search_on;
use remi_core::search::{remi_search, Deadline};
use remi_core::{Remi, RemiConfig};

fn bench(c: &mut Criterion) {
    let synth = dbpedia();
    let kb = &synth.kb;
    let remi = Remi::new(kb, RemiConfig::default());
    // A pair of same-class prominent entities — the Figure 1 situation.
    let targets = [
        synth.members("Settlement")[0],
        synth.members("Settlement")[1],
    ];
    let (queue, _) = remi.ranked_common_expressions(&targets);
    println!(
        "\nfig1 workload: {} common subgraph expressions",
        queue.len()
    );

    let hub = [synth.members("Country")[0]];
    let (hub_queue, _) = remi.ranked_common_expressions(&hub);
    println!(
        "hub workload: {} common subgraph expressions",
        hub_queue.len()
    );

    let no_deadline = Deadline::default();
    let mut group = c.benchmark_group("fig1_search");
    group.bench_function("queue_construction", |b| {
        b.iter(|| remi.ranked_common_expressions(&targets))
    });
    group.bench_function("dfs_sequential", |b| {
        b.iter(|| {
            let eval = Evaluator::new(kb, 4096);
            remi_search(&eval, &queue, &targets, &no_deadline, 1)
        })
    });
    group.bench_function("dfs_parallel_8", |b| {
        b.iter(|| {
            let eval = Evaluator::new(kb, 4096);
            parallel_remi_search_on(
                remi_pool::global(),
                &eval,
                &queue,
                &targets,
                &no_deadline,
                8,
            )
        })
    });
    group.bench_function("dfs_parallel_hub", |b| {
        b.iter(|| {
            let eval = Evaluator::new(kb, 4096);
            parallel_remi_search_on(
                remi_pool::global(),
                &eval,
                &hub_queue,
                &hub,
                &no_deadline,
                2,
            )
        })
    });
    group.finish();

    // Show the rebuilt queue head once, mirroring the figure.
    for (i, s) in queue.iter().take(3).enumerate() {
        println!(
            "  ρ{} ({:.1} bits): {}",
            i + 1,
            s.cost.value(),
            s.expr.display(kb)
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
