//! Substrate microbenchmarks: dictionary interning, CSR lookups,
//! N-Triples parsing, `RKB2` round trips, PageRank, LRU cache.

use criterion::{criterion_group, criterion_main, Criterion};
use remi_bench::dbpedia;
use remi_kb::cache::LruCache;
use remi_kb::pagerank::{pagerank, PageRankConfig};
use remi_kb::{KbBuilder, PredId, Term};

fn bench(c: &mut Criterion) {
    let synth = dbpedia();
    let kb = &synth.kb;

    let mut group = c.benchmark_group("kb_micro");

    group.bench_function("dictionary_intern_1k", |b| {
        b.iter(|| {
            let mut builder = KbBuilder::new();
            for i in 0..1000 {
                builder.node(&Term::iri(format!("http://example.org/resource/E{i}")));
            }
            builder.len()
        })
    });

    let settlement = synth.members("Settlement")[0];
    let country = kb.pred_id("p:country").expect("profile predicate");
    group.bench_function("csr_objects_lookup", |b| {
        b.iter(|| criterion::black_box(kb.objects(country, settlement)))
    });
    let country0 = kb.objects(country, settlement).first();
    if let Some(o) = country0 {
        group.bench_function("csr_subjects_lookup", |b| {
            b.iter(|| criterion::black_box(kb.subjects(country, remi_kb::NodeId(o))))
        });
    }

    let mut nt = Vec::new();
    remi_kb::ntriples::write_kb(kb, &mut nt).unwrap();
    let doc = String::from_utf8(nt).unwrap();
    group.sample_size(10);
    group.bench_function("ntriples_parse_full_kb", |b| {
        b.iter(|| remi_kb::ntriples::parse_document(&doc).unwrap().len())
    });

    let bytes = remi_kb::binfmt::write_bytes(kb);
    println!(
        "\nbinary size: {} bytes vs {} bytes N-Triples ({}x compression)",
        bytes.len(),
        doc.len(),
        doc.len() / bytes.len().max(1)
    );
    group.bench_function("rkb2_write", |b| {
        b.iter(|| remi_kb::binfmt::write_bytes(kb))
    });
    group.bench_function("rkb2_read", |b| {
        b.iter(|| remi_kb::binfmt::read_bytes(&bytes, 0.0).unwrap())
    });

    group.bench_function("pagerank_50_iters", |b| {
        b.iter(|| pagerank(kb, PageRankConfig::default()))
    });

    group.bench_function("lru_cache_churn", |b| {
        b.iter(|| {
            let mut cache: LruCache<u32, u32> = LruCache::new(256);
            for i in 0..4096u32 {
                cache.put(i % 512, i);
                criterion::black_box(cache.get(&(i % 512)));
            }
            cache.len()
        })
    });

    let _ = PredId(0);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
