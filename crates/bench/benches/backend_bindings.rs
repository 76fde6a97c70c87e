//! Storage-backend comparison: binding-lookup latency, membership tests,
//! group iteration, and load time for the CSR vs succinct layouts, plus a
//! one-shot memory report.
//!
//! The succinct backend trades a few extra instructions per lookup
//! (packed-word extraction, `select1` probes) for a 2–3× smaller resident
//! store and a zero-copy `RKB2` load path. This bench quantifies both
//! sides of that trade on the shared seed-42 DBpedia-like KB.

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_kb::{Backend, KnowledgeBase, NodeId};

/// A deterministic spread of (pred, subject, object) probes drawn from the
/// KB's own facts, so every lookup hits a non-empty run.
fn probes(kb: &KnowledgeBase, n: usize) -> Vec<(remi_kb::PredId, NodeId, NodeId)> {
    let mut out = Vec::with_capacity(n);
    let triples: Vec<_> = kb.iter_triples().collect();
    if triples.is_empty() {
        return out;
    }
    let stride = (triples.len() / n).max(1);
    for t in triples.iter().step_by(stride).take(n) {
        out.push((t.p, t.s, t.o));
    }
    out
}

fn bench_backend(c: &mut Criterion, name: &str, kb: &KnowledgeBase) {
    let probes = probes(kb, 512);
    let mut group = c.benchmark_group("backend_bindings");

    group.bench_function(&format!("{name}_objects_lookup"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(p, s, _) in &probes {
                total += criterion::black_box(kb.objects(p, s)).len();
            }
            total
        })
    });

    group.bench_function(&format!("{name}_subjects_lookup"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(p, _, o) in &probes {
                total += criterion::black_box(kb.subjects(p, o)).len();
            }
            total
        })
    });

    group.bench_function(&format!("{name}_contains"), |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(p, s, o) in &probes {
                hits += usize::from(kb.contains(s, p, o));
            }
            criterion::black_box(hits)
        })
    });

    group.bench_function(&format!("{name}_group_scan"), |b| {
        // Full subject-group sweep over the busiest predicate: the shape
        // of the Closed2/Closed3 evaluation loops.
        let busiest = kb
            .pred_ids()
            .max_by_key(|&p| kb.index(p).num_facts())
            .expect("non-empty KB");
        b.iter(|| {
            let mut total = 0usize;
            for (_, objs) in kb.index(busiest).iter_subjects() {
                total += objs.iter().count();
            }
            criterion::black_box(total)
        })
    });

    group.finish();
}

fn bench(c: &mut Criterion) {
    let synth = dbpedia();
    let csr = &synth.kb;
    let succinct = csr.clone().with_backend(Backend::Succinct);

    let csr_bytes = csr.store_memory().total();
    let succinct_bytes = succinct.store_memory().total();
    println!(
        "\nstore memory: csr {} bytes, succinct {} bytes ({:.1}% of csr)",
        csr_bytes,
        succinct_bytes,
        100.0 * succinct_bytes as f64 / csr_bytes as f64
    );

    bench_backend(c, "csr", csr);
    bench_backend(c, "succinct", &succinct);

    // Load times: RKB2 → zero-copy succinct, and RKB2 → CSR (the
    // conversion `--backend csr` runs after loading).
    let rkb2 = remi_kb::binfmt::write_bytes(csr);
    println!("file size: rkb2 {} bytes", rkb2.len());
    let mut group = c.benchmark_group("backend_bindings");
    group.sample_size(10);
    group.bench_function("csr_load_rkb2", |b| {
        b.iter(|| {
            remi_kb::binfmt::read_shared(&rkb2, 0.0)
                .unwrap()
                .with_backend(Backend::Csr)
                .num_triples()
        })
    });
    group.bench_function("succinct_load_rkb2", |b| {
        b.iter(|| {
            remi_kb::binfmt::read_shared(&rkb2, 0.0)
                .unwrap()
                .num_triples()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
