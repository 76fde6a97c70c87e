//! Ablations of the design choices DESIGN.md calls out (§3.5):
//! * LRU binding cache on/off;
//! * prominent-object pruning on/off;
//! * exact-rank vs power-law entity codes;
//! * P-REMI thread scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_core::complexity::EntityCodeMode;
use remi_core::{EnumerationConfig, Remi, RemiConfig};

fn config(
    cache: usize,
    prominent_cutoff: f64,
    entity_code: EntityCodeMode,
    threads: usize,
) -> RemiConfig {
    RemiConfig {
        enumeration: EnumerationConfig {
            prominent_cutoff,
            ..Default::default()
        },
        entity_code,
        cache_capacity: cache,
        threads,
        // Bounded per call: without the prominent-object pruning the
        // queue grows ~20×.
        timeout: Some(std::time::Duration::from_millis(250)),
        ..Default::default()
    }
}

fn bench(c: &mut Criterion) {
    let synth = dbpedia();
    let kb = &synth.kb;
    let targets: Vec<_> = synth.members("Person")[5..10].to_vec();

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    let variants: Vec<(&str, RemiConfig)> = vec![
        (
            "baseline",
            config(16_384, 0.05, EntityCodeMode::PowerLaw, 1),
        ),
        ("cache_off", config(1, 0.05, EntityCodeMode::PowerLaw, 1)),
        (
            "no_prominent_pruning",
            config(16_384, 0.0, EntityCodeMode::PowerLaw, 1),
        ),
        (
            "exact_rank_codes",
            config(16_384, 0.05, EntityCodeMode::ExactRank, 1),
        ),
        (
            "threads_2",
            config(16_384, 0.05, EntityCodeMode::PowerLaw, 2),
        ),
        (
            "threads_8",
            config(16_384, 0.05, EntityCodeMode::PowerLaw, 8),
        ),
    ];
    for (name, cfg) in variants {
        let remi = Remi::new(kb, cfg);
        group.bench_function(name, |b| {
            b.iter(|| {
                for &t in &targets {
                    criterion::black_box(remi.describe(&[t]));
                }
            })
        });
    }
    group.finish();

    // Report the effect of the pruning heuristics on queue sizes once.
    let pruned = Remi::new(kb, config(16_384, 0.05, EntityCodeMode::PowerLaw, 1));
    let unpruned = Remi::new(kb, config(16_384, 0.0, EntityCodeMode::PowerLaw, 1));
    let t = targets[0];
    let (qp, _) = pruned.ranked_common_expressions(&[t]);
    let (qu, _) = unpruned.ranked_common_expressions(&[t]);
    println!(
        "\nqueue size with §3.5.2 prominent pruning: {} — without: {}",
        qp.len(),
        qu.len()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
