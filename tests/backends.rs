//! Differential tests across storage backends: the CSR and succinct
//! layouts must be observationally identical end-to-end — same binding
//! primitives, same mined expressions, same CLI output — with the
//! succinct store well under the CSR footprint.

use proptest::prelude::*;
use remi_cli::{cmd_convert, cmd_describe, cmd_gen, DescribeOpts};
use remi_core::{Remi, RemiConfig};
use remi_kb::{Backend, KbBuilder, KnowledgeBase, NodeId, TripleStore};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "remi_backends_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Mines the best RE for the given class representatives on one backend.
fn mine(kb: &KnowledgeBase, targets: &[NodeId]) -> Option<(String, String)> {
    let remi = Remi::new(kb, RemiConfig::default());
    let outcome = remi.describe(targets);
    outcome
        .best
        .map(|(expr, cost)| (expr.display(kb).to_string(), cost.to_string()))
}

/// On the fig1/synthetic KBs the succinct backend answers `remi mine`
/// identically to CSR while holding ≤ 60% of its bytes.
#[test]
fn mining_is_identical_and_smaller_on_synth_kb() {
    let synth = remi_synth::fixtures::dbpedia(0.5, 77);
    let csr = synth.kb.clone();
    assert_eq!(csr.backend(), Backend::Csr);
    let succinct = csr.clone().with_backend(Backend::Succinct);

    let csr_bytes = csr.store_memory().total();
    let succinct_bytes = succinct.store_memory().total();
    assert!(
        succinct_bytes * 10 <= csr_bytes * 6,
        "succinct {succinct_bytes} B must be <= 60% of CSR {csr_bytes} B"
    );

    let mut mined = 0usize;
    for class in ["Person", "Settlement", "Film"] {
        for chunk in synth.members(class).chunks(2).take(6) {
            let a = mine(&csr, chunk);
            let b = mine(&succinct, chunk);
            assert_eq!(a, b, "backends disagree on {class} targets {chunk:?}");
            mined += usize::from(a.is_some());
        }
    }
    assert!(mined > 0, "no target set was solvable — fixture too sparse");
}

/// The CLI end of the same guarantee: `remi describe --backend {csr,
/// succinct}` prints identical expressions on the same KB file (timings
/// and the memory footer legitimately differ).
#[test]
fn cli_describe_output_is_backend_independent() {
    let dir = tmpdir("cli");
    let kb_path = dir.join("world.rkb");
    cmd_gen("dbpedia", 0.3, 11, &kb_path).unwrap();

    let semantic_lines = |backend: Backend| -> Vec<String> {
        let opts = DescribeOpts {
            backend: Some(backend),
            ..Default::default()
        };
        let out = cmd_describe(&kb_path, &["e:Settlement_1".to_string()], &opts).unwrap();
        out.lines()
            .filter(|l| {
                // Expression, verbalisation, and complexity must match
                // byte-for-byte; the stats line carries wall-clock times
                // and the memory line names the backend.
                l.starts_with("expression:")
                    || l.starts_with("verbalised:")
                    || l.starts_with("complexity:")
                    || l.starts_with("no referring expression")
            })
            .map(String::from)
            .collect()
    };
    let csr = semantic_lines(Backend::Csr);
    let succinct = semantic_lines(Backend::Succinct);
    assert!(!csr.is_empty(), "describe produced no semantic output");
    assert_eq!(csr, succinct);
    std::fs::remove_dir_all(&dir).ok();
}

/// `remi convert` round-trips losslessly: `.rkb → .nt → .rkb` keeps
/// every triple, every `.rkb` file loads on the succinct backend, and the
/// CSR conversion `--backend csr` runs on a loaded file answers every
/// primitive exactly like the succinct store it came from.
#[test]
fn convert_roundtrips_through_rkb2() {
    let dir = tmpdir("convert");
    let rkb = dir.join("kb.rkb");
    let nt = dir.join("kb.nt");
    let back = dir.join("kb_back.rkb");
    cmd_gen("wikidata", 0.2, 5, &rkb).unwrap();
    cmd_convert(&rkb, &nt).unwrap();
    cmd_convert(&nt, &back).unwrap();

    let kb1 = remi_kb::binfmt::load(&rkb, 0.0).unwrap();
    let kb3 = remi_kb::binfmt::load(&back, 0.0).unwrap();
    assert_eq!(kb1.backend(), Backend::Succinct);
    assert_eq!(kb3.backend(), Backend::Succinct);
    assert_eq!(kb1.num_triples(), kb3.num_triples());
    for t in kb1.iter_triples() {
        let s = kb3.node_id_by_iri(kb1.node_key(t.s)).unwrap();
        let p = kb3.pred_id(kb1.pred_iri(t.p)).unwrap();
        let o = kb3.node_id_by_iri(kb1.node_key(t.o)).unwrap();
        assert!(kb3.contains(s, p, o));
    }

    let csr = kb1.clone().with_backend(Backend::Csr);
    assert_eq!(csr.backend(), Backend::Csr);
    let (a, b) = (kb1.store(), csr.store());
    assert_eq!(a.num_preds(), b.num_preds());
    for p in kb1.pred_ids() {
        assert_eq!(a.num_facts(p), b.num_facts(p));
        assert_eq!(a.num_subjects(p), b.num_subjects(p));
        assert_eq!(a.num_objects(p), b.num_objects(p));
        for i in 0..a.num_subjects(p) {
            assert_eq!(a.subject_at(p, i), b.subject_at(p, i));
            assert_eq!(a.objects_at(p, i).to_vec(), b.objects_at(p, i).to_vec());
        }
        for i in 0..a.num_objects(p) {
            assert_eq!(a.object_at(p, i), b.object_at(p, i));
            assert_eq!(a.subjects_at(p, i).to_vec(), b.subjects_at(p, i).to_vec());
            assert_eq!(a.object_group_len(p, i), b.object_group_len(p, i));
        }
        for n in kb1.node_ids() {
            assert_eq!(a.objects(p, n).to_vec(), b.objects(p, n).to_vec());
            assert_eq!(a.subjects(p, n).to_vec(), b.subjects(p, n).to_vec());
        }
    }
    for n in kb1.node_ids() {
        assert_eq!(
            a.preds_of_subject(n).to_vec(),
            b.preds_of_subject(n).to_vec()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Front-coded dictionaries survive adversarial unicode keys through the
/// RKB2 section format (multi-byte boundaries, combining marks, keys that
/// are prefixes of each other).
#[test]
fn rkb2_front_coding_handles_adversarial_unicode() {
    let mut b = KbBuilder::new();
    let keys = [
        "e:caf",
        "e:café",
        "e:café\u{301}s",
        "e:caf\u{fe0f}",
        "e:日本",
        "e:日本語",
        "e:🦀",
        "e:🦀🦀",
    ];
    for (i, k) in keys.iter().enumerate() {
        b.add_iri(k, "p:r", keys[(i + 1) % keys.len()]);
    }
    let kb = b.build().unwrap();
    let bytes = remi_kb::binfmt::write_bytes(&kb);
    let kb2 = remi_kb::binfmt::read_bytes(&bytes, 0.0).unwrap();
    assert_eq!(kb.num_nodes(), kb2.num_nodes());
    for k in keys {
        assert!(kb2.node_id_by_iri(k).is_some(), "lost key {k:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary small KBs: both backends, and an `RKB2` reload, agree on
    /// every mined expression for every singleton target.
    #[test]
    fn prop_backends_and_formats_mine_identically(
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 3..40),
    ) {
        let mut b = KbBuilder::new();
        for &(s, p, o) in &facts {
            b.add_iri(&format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
        }
        let csr = b.build().unwrap();
        let succinct = csr.clone().with_backend(Backend::Succinct);
        // And once more through the RKB2 wire format.
        let rkb2 = remi_kb::binfmt::write_bytes(&csr);
        let reloaded = remi_kb::binfmt::read_bytes(&rkb2, 0.0).unwrap();
        prop_assert_eq!(reloaded.backend(), Backend::Succinct);

        for &(s, _, _) in facts.iter().take(6) {
            let target = csr.node_id_by_iri(&format!("e:n{s}")).unwrap();
            let a = mine(&csr, &[target]);
            prop_assert_eq!(&a, &mine(&succinct, &[target]));
            // Dictionary ids are identical across the wire, so displayed
            // expressions match byte-for-byte too.
            let t2 = reloaded.node_id_by_iri(&format!("e:n{s}")).unwrap();
            prop_assert_eq!(&a, &mine(&reloaded, &[t2]));
        }
    }

    /// Front-coding + varint roundtrip on arbitrary unicode keys through
    /// `RKB2`.
    #[test]
    fn prop_unicode_keys_roundtrip_rkb2(
        raw in proptest::collection::vec(".{1,24}", 2..14),
    ) {
        let mut keys: Vec<String> = raw.into_iter().map(|k| format!("e:{k}")).collect();
        keys.sort();
        keys.dedup();
        let mut b = KbBuilder::new();
        for (i, k) in keys.iter().enumerate() {
            b.add_iri(k, "p:r", &keys[(i + 1) % keys.len()]);
        }
        let kb = b.build().unwrap();
        let kb2 = remi_kb::binfmt::read_bytes(&remi_kb::binfmt::write_bytes(&kb), 0.0).unwrap();
        prop_assert_eq!(kb.num_nodes(), kb2.num_nodes());
        for k in &keys {
            prop_assert!(kb2.node_id_by_iri(k).is_some(), "lost key {:?}", k);
        }
    }
}
