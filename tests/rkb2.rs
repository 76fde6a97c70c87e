//! `RKB2`, the one binary KB format, end to end: its bytes are pinned,
//! a file decodes into a store that answers and mines exactly like the
//! in-memory KB it was written from, `remi convert` round-trips through
//! N-Triples, and front-coded dictionaries survive adversarial unicode.

use proptest::prelude::*;
use remi_cli::{cmd_convert, cmd_gen};
use remi_core::{Remi, RemiConfig};
use remi_kb::{KbBuilder, KnowledgeBase, NodeId};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "remi_rkb2_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Mines the best RE for the given targets.
fn mine(kb: &KnowledgeBase, targets: &[NodeId]) -> Option<(String, String)> {
    let remi = Remi::new(kb, RemiConfig::default());
    let outcome = remi.describe(targets);
    outcome
        .best
        .map(|(expr, cost)| (expr.display(kb).to_string(), cost.to_string()))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// The format pin: a fixed-seed synthetic KB writes to the bytes recorded
/// for it (length and FNV-1a), and those bytes decode to a store that
/// answers every binding primitive exactly like the in-memory KB.
#[test]
fn rkb2_bytes_are_pinned_and_decode_to_the_written_kb() {
    let synth = remi_synth::generate(&remi_synth::dbpedia_like(), 0.3, 7);
    let kb = &synth.kb;
    let bytes = remi_kb::binfmt::write_bytes(kb);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (46_260, 0x7c7a_0f52_118a_6463),
        "RKB2 output changed"
    );

    let decoded = remi_kb::binfmt::read_bytes(&bytes, 0.0).unwrap();
    assert_eq!(decoded.num_nodes(), kb.num_nodes());
    assert_eq!(decoded.num_preds(), kb.num_preds());
    assert_eq!(decoded.num_triples(), kb.num_triples());
    for p in kb.pred_ids() {
        assert_eq!(decoded.pred_iri(p), kb.pred_iri(p));
        for n in kb.node_ids() {
            assert_eq!(
                decoded.objects(p, n),
                kb.objects(p, n),
                "objects({p:?}, {n:?})"
            );
            assert_eq!(
                decoded.subjects(p, n),
                kb.subjects(p, n),
                "subjects({p:?}, {n:?})"
            );
        }
    }
    for n in kb.node_ids() {
        assert_eq!(decoded.node_key(n), kb.node_key(n));
        assert_eq!(decoded.node_frequency(n), kb.node_frequency(n));
        assert_eq!(decoded.preds_of_subject(n), kb.preds_of_subject(n), "{n:?}");
    }
    assert_eq!(
        decoded.store_memory().total(),
        kb.store_memory().total(),
        "the decoded CSR store is the built one"
    );
}

/// `remi convert` round-trips losslessly: `.rkb → .nt → .rkb` keeps
/// every triple.
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
    assert_eq!(kb1.num_triples(), kb3.num_triples());
    for t in kb1.iter_triples() {
        let s = kb3.node_id_by_iri(kb1.node_key(t.s)).unwrap();
        let p = kb3.pred_id(kb1.pred_iri(t.p)).unwrap();
        let o = kb3.node_id_by_iri(kb1.node_key(t.o)).unwrap();
        assert!(kb3.contains(s, p, o));
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

    /// Arbitrary small KBs mine identically after an `RKB2` round trip,
    /// for every singleton target.
    #[test]
    fn prop_rkb2_reload_mines_identically(
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 3..40),
    ) {
        let mut b = KbBuilder::new();
        for &(s, p, o) in &facts {
            b.add_iri(&format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
        }
        let kb = b.build().unwrap();
        let rkb2 = remi_kb::binfmt::write_bytes(&kb);
        let reloaded = remi_kb::binfmt::read_bytes(&rkb2, 0.0).unwrap();

        for &(s, _, _) in facts.iter().take(6) {
            let target = kb.node_id_by_iri(&format!("e:n{s}")).unwrap();
            // Dictionary ids are identical across the wire, so displayed
            // expressions match byte-for-byte too.
            let t2 = reloaded.node_id_by_iri(&format!("e:n{s}")).unwrap();
            prop_assert_eq!(mine(&kb, &[target]), mine(&reloaded, &[t2]));
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
