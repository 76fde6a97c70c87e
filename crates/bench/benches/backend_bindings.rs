//! The CSR store's binding primitives: lookup latency, membership tests
//! and group iteration on the shared seed-42 DBpedia-like KB, plus a
//! one-shot memory report. The `csr_` prefix of the bench ids keeps the
//! per-commit trend comparable with earlier runs.

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_kb::{KnowledgeBase, NodeId};

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
    let csr = &dbpedia().kb;
    println!(
        "\nstore memory: csr {} bytes, rkb2 file {} bytes",
        csr.store_memory().total(),
        remi_kb::binfmt::write_bytes(csr).len()
    );
    bench_backend(c, "csr", csr);
}

criterion_group!(benches, bench);
criterion_main!(benches);
