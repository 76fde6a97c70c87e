//! Executor comparison — the pooled work-stealing executor vs the seed's
//! spawn-per-call `std::thread::scope` baseline.
//!
//! Two angles:
//! * `premi_*`: P-REMI on the fig1 workload (small KB, short search) —
//!   the regime where per-call OS-thread spawning dominated.
//! * `broadcast_*`: raw 8-task fan-out with a trivial body — the pure
//!   coordination overhead of each executor.

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_core::eval::Evaluator;
use remi_core::parallel::parallel_remi_search_on;
use remi_core::search::Deadline;
use remi_core::{Remi, RemiConfig};
use remi_pool::{Executor, SpawnExecutor};

fn bench(c: &mut Criterion) {
    let synth = dbpedia();
    let kb = &synth.kb;
    let remi = Remi::new(kb, RemiConfig::default());
    let targets = [
        synth.members("Settlement")[0],
        synth.members("Settlement")[1],
    ];
    let (queue, _) = remi.ranked_common_expressions(&targets);
    println!("\npool_overhead workload: {} queue entries", queue.len());

    let pool = remi_pool::global();
    let no_deadline = Deadline::default();
    let mut group = c.benchmark_group("pool_overhead");

    group.bench_function("premi_pooled_8", |b| {
        b.iter(|| {
            let eval = Evaluator::new(kb, 4096);
            parallel_remi_search_on(pool, &eval, &queue, &targets, &no_deadline, 8)
        })
    });
    group.bench_function("premi_spawn_8", |b| {
        b.iter(|| {
            let eval = Evaluator::new(kb, 4096);
            parallel_remi_search_on(&SpawnExecutor, &eval, &queue, &targets, &no_deadline, 8)
        })
    });

    group.bench_function("broadcast_pooled_8", |b| {
        b.iter(|| {
            pool.broadcast(8, &|i| {
                criterion::black_box(i);
            })
        })
    });
    group.bench_function("broadcast_spawn_8", |b| {
        b.iter(|| {
            SpawnExecutor.broadcast(8, &|i| {
                criterion::black_box(i);
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
