//! The HDT-like compressed binary KB format, `RKB2`.
//!
//! The paper stores its KBs as HDT files: a binary, dictionary-compressed
//! representation that supports atom-level retrieval without full
//! decompression (§3.5.1). `RKB2` is this repository's one such format, a
//! section table over HDT-style bitmap triples:
//!
//! ```text
//! magic "RKB2" | flags u8
//! section table:    count, then (tag u8, offset u64, len u64)
//! NODES section:    front-coded node dictionary (with kind bytes)
//! PREDS section:    front-coded predicate dictionary (incl. inverses)
//! META section:     base-triple count + per-node frequencies
//! TRIPLES section:  the three bitmap-triples waves (SPO, OPS, SP), each a
//!                   packed key sequence + run bitmap + packed values
//! footer:           FNV-1a checksum of everything before it
//! ```
//!
//! Keys are *front-coded*: each entry stores the length of the prefix
//! shared with its predecessor plus the differing suffix — the classic
//! dictionary compression used by HDT.
//!
//! The loader decodes each wave straight into the CSR store: a group's
//! keys, run bitmap and packed values already are CSR keys, offsets and
//! values, so the decode is one linear scan over the file bytes with no
//! sort. Inverse predicates are baked into the file; loading with a
//! non-zero inverse fraction rebuilds them only when the file holds none.
//!
//! Files are untrusted input. The loader checks every count, bound, wave
//! shape, dictionary key and id, that keys and runs are strictly
//! increasing, and that the SPO and OPS waves hold the same number of
//! facts per predicate, so a damaged or hostile file is a
//! [`KbError::Format`], never a panic or a KB that answers wrongly. The
//! retired row-oriented `RKB1` format is rejected by name.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;

use crate::backend::{StoreBackend, TripleStore};
use crate::dict::Dictionary;
use crate::error::{KbError, Result};
use crate::freq::FreqVec;
use crate::ids::{NodeId, PredId};
use crate::store::{Csr, CsrStore, KbBuilder, KnowledgeBase};
use crate::succinct::{bits_for, BitsView, PackedView, WaveBuilder};
use crate::term::TermKind;
use crate::varint;

const MAGIC: &[u8; 4] = b"RKB2";
/// Magic of the retired row-oriented format, kept only to name it in the
/// load error.
const RETIRED_MAGIC: &[u8; 4] = b"RKB1";

/// Section tags.
const SEC_NODES: u8 = 1;
const SEC_PREDS: u8 = 2;
const SEC_META: u8 = 3;
const SEC_TRIPLES: u8 = 4;

/// Flag bit: the file contains materialised inverse predicates.
const FLAG_HAS_INVERSES: u8 = 1;

fn kind_to_u8(k: TermKind) -> u8 {
    match k {
        TermKind::Iri => 0,
        TermKind::Literal => 1,
        TermKind::Blank => 2,
    }
}

fn kind_from_u8(b: u8) -> Result<TermKind> {
    match b {
        0 => Ok(TermKind::Iri),
        1 => Ok(TermKind::Literal),
        2 => Ok(TermKind::Blank),
        other => Err(KbError::Format(format!("bad term kind byte {other}"))),
    }
}

fn common_prefix_len(a: &str, b: &str) -> usize {
    let max = a.len().min(b.len());
    let (ab, bb) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < max && ab[i] == bb[i] {
        i += 1;
    }
    // Back off to a char boundary of b.
    while i > 0 && !b.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Validates a file-derived element count against the bytes actually
/// available: each element consumes at least `min_bytes` of input, so a
/// larger count is malformed. Catching it here keeps hostile counts out
/// of `with_capacity` (which aborts, rather than unwinding, on overflow).
fn checked_count(n: u64, remaining: usize, min_bytes: usize) -> Result<usize> {
    let bound = remaining / min_bytes.max(1);
    if n > bound as u64 {
        return Err(KbError::Format(format!(
            "element count {n} overruns its section ({remaining} bytes left)"
        )));
    }
    Ok(n as usize)
}

/// Appends `key` front-coded against `prev`, then makes it the new `prev`.
fn write_front_coded(out: &mut BytesMut, prev: &mut String, key: &str) {
    let shared = common_prefix_len(prev, key);
    varint::write_u64(out, shared as u64);
    varint::write_str(out, &key[shared..]);
    prev.clear();
    prev.push_str(key);
}

/// Decodes one front-coded key in place: `key` holds the previous key on
/// entry and the decoded one on return, so a dictionary load reuses one
/// buffer instead of allocating per key.
fn read_front_coded(buf: &mut &[u8], key: &mut String) -> Result<()> {
    let shared = varint::read_u64(buf)? as usize;
    if shared > key.len() || !key.is_char_boundary(shared) {
        return Err(KbError::Format("front-coding prefix overruns".into()));
    }
    key.truncate(shared);
    varint::read_str(buf, key)
}

/// The term kind a dictionary key encodes (see `Term::dict_key`). A
/// malformed literal key is an error here rather than a panic in
/// `Term::from_dict_key` on first use.
fn key_kind(key: &str) -> Result<TermKind> {
    if key.starts_with("_:") {
        Ok(TermKind::Blank)
    } else if key.starts_with('"') {
        crate::ntriples::check_literal(key)
            .map(|()| TermKind::Literal)
            .map_err(|e| KbError::Format(format!("malformed literal key {key:?}: {e}")))
    } else {
        Ok(TermKind::Iri)
    }
}

/// The three waves of `store` — SPO, OPS and SP — with ids packed at the
/// widths the dictionary sizes need.
fn waves(store: &StoreBackend, num_nodes: usize) -> [WaveBuilder; 3] {
    let node_width = bits_for(num_nodes.saturating_sub(1) as u64);
    let num_preds = store.num_preds();
    let pred_width = bits_for(num_preds.saturating_sub(1) as u64);

    let mut spo = WaveBuilder::new(node_width, node_width);
    let mut ops = WaveBuilder::new(node_width, node_width);
    for p in (0..num_preds as u32).map(PredId) {
        spo.begin_group();
        for i in 0..store.num_subjects(p) {
            spo.push_run(store.subject_at(p, i).0, store.objects_at(p, i));
        }
        ops.begin_group();
        for i in 0..store.num_objects(p) {
            ops.push_run(store.object_at(p, i).0, store.subjects_at(p, i));
        }
    }

    let mut sp = WaveBuilder::new(node_width, pred_width);
    sp.begin_group();
    for n in (0..num_nodes as u32).map(NodeId) {
        let preds = store.preds_of_subject(n);
        if !preds.is_empty() {
            sp.push_run(n.0, preds);
        }
    }
    [spo, ops, sp]
}

/// Serialises a KB. All predicates — including materialised inverses —
/// are written, so the file loads without any rebuilding.
pub fn write_bytes(kb: &KnowledgeBase) -> Bytes {
    // Section payloads.
    let mut nodes = BytesMut::new();
    varint::write_u64(&mut nodes, kb.num_nodes() as u64);
    let mut prev = String::new();
    for (_, key, kind) in kb.node_dict().iter() {
        nodes.put_u8(kind_to_u8(kind));
        write_front_coded(&mut nodes, &mut prev, key);
    }

    let mut preds = BytesMut::new();
    varint::write_u64(&mut preds, kb.num_preds() as u64);
    prev.clear();
    for (_, key, _) in kb.pred_dict().iter() {
        write_front_coded(&mut preds, &mut prev, key);
    }

    let mut meta = BytesMut::new();
    varint::write_u64(&mut meta, kb.num_triples() as u64);
    varint::write_u64(&mut meta, kb.num_nodes() as u64);
    for n in kb.node_ids() {
        varint::write_u32(&mut meta, kb.node_frequency(n));
    }

    let mut triples = BytesMut::new();
    for wave in waves(kb.store(), kb.num_nodes()) {
        wave.write(&mut triples);
    }

    // Assemble: header | section table | payloads | checksum.
    let has_inverses = kb.pred_ids().any(|p| kb.is_inverse(p));
    let sections: [(u8, &BytesMut); 4] = [
        (SEC_NODES, &nodes),
        (SEC_PREDS, &preds),
        (SEC_META, &meta),
        (SEC_TRIPLES, &triples),
    ];
    let header_len = MAGIC.len() + 1 + 1 + sections.len() * 17;
    let mut out = BytesMut::with_capacity(
        header_len + sections.iter().map(|(_, s)| s.len()).sum::<usize>() + 8,
    );
    out.put_slice(MAGIC);
    out.put_u8(if has_inverses { FLAG_HAS_INVERSES } else { 0 });
    out.put_u8(sections.len() as u8);
    let mut offset = header_len as u64;
    for (tag, payload) in &sections {
        out.put_u8(*tag);
        out.put_u64_le(offset);
        out.put_u64_le(payload.len() as u64);
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.put_slice(payload);
    }
    let checksum = fnv1a(&out);
    out.put_u64_le(checksum);
    out.freeze()
}

/// Splits the next `n` bytes off `cur`.
fn take<'a>(cur: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    head
}

fn read_packed<'a>(cur: &mut &'a [u8]) -> Result<PackedView<'a>> {
    if !cur.has_remaining() {
        return Err(KbError::Format("truncated packed sequence".into()));
    }
    let width = u32::from(cur.get_u8());
    if !(1..=32).contains(&width) {
        return Err(KbError::Format(format!("bad packed width {width}")));
    }
    let len = varint::read_u64(cur)?;
    let n_words = checked_count(varint::read_u64(cur)?, cur.remaining(), 8)?;
    if (n_words as u128) * 64 < (len as u128) * u128::from(width) {
        return Err(KbError::Format("truncated packed sequence".into()));
    }
    // Cannot overflow: n_words <= remaining / 8.
    let words = take(cur, n_words * 8);
    Ok(PackedView::new(words, width, len as usize))
}

fn read_bitvec<'a>(cur: &mut &'a [u8]) -> Result<BitsView<'a>> {
    let len_bits = varint::read_u64(cur)?;
    let n_words = checked_count(varint::read_u64(cur)?, cur.remaining(), 8)?;
    if (n_words as u128) * 64 < len_bits as u128 {
        return Err(KbError::Format("truncated bitmap".into()));
    }
    let words = take(cur, n_words * 8);
    Ok(BitsView::new(words, len_bits as usize))
}

/// What a wave must look like to be decoded: its name for errors, its
/// group count, and the dictionary sizes its keys and values index.
struct WaveShape {
    name: &'static str,
    groups: usize,
    keys_below: usize,
    vals_below: usize,
}

/// Reads one wave and decodes it into one CSR adjacency per group, in a
/// single linear pass: each group's keys, the run ends its bitmap marks,
/// and its values become the CSR's keys, offsets and values.
fn read_wave(cur: &mut &[u8], shape: &WaveShape) -> Result<Vec<Csr>> {
    let format = |msg: &str| KbError::Format(format!("{} wave {msg}", shape.name));
    // Each group contributes at least one key-bound and one val-bound
    // varint byte.
    let n_groups = checked_count(varint::read_u64(cur)?, cur.remaining(), 2)?;
    let mut key_bounds = Vec::with_capacity(n_groups + 1);
    for _ in 0..=n_groups {
        key_bounds.push(varint::read_u32(cur)? as usize);
    }
    let mut val_bounds = Vec::with_capacity(n_groups + 1);
    for _ in 0..=n_groups {
        val_bounds.push(varint::read_u32(cur)? as usize);
    }
    let keys = read_packed(cur)?;
    let last = read_bitvec(cur)?;
    let vals = read_packed(cur)?;
    let check = |bounds: &[usize], last_val: usize| -> Result<()> {
        let monotone = bounds.windows(2).all(|w| w[0] <= w[1]);
        if bounds.first() != Some(&0) || !monotone || bounds.last() != Some(&last_val) {
            return Err(KbError::Format("inconsistent wave bounds".into()));
        }
        Ok(())
    };
    check(&key_bounds, keys.len())?;
    check(&val_bounds, vals.len())?;
    if last.len() != vals.len() || last.count_ones() != keys.len() {
        return Err(KbError::Format(
            "wave bitmap disagrees with sequences".into(),
        ));
    }
    if n_groups != shape.groups {
        return Err(format(&format!(
            "has {n_groups} groups; the dictionaries need {}",
            shape.groups
        )));
    }

    // Each set bit ends one run. There are exactly as many as keys, so
    // every key has a non-empty run; a group's runs must end inside its
    // value range, the last one on its end, or a lookup in one group
    // would read values of the next.
    let mut run_ends = last.ones().map(|pos| pos + 1);
    let mut groups = Vec::with_capacity(n_groups);
    for g in 0..n_groups {
        let (k0, v0) = (key_bounds[g], val_bounds[g]);
        let n_keys = checked_count((key_bounds[g + 1] - k0) as u64, keys.len(), 1)?;
        let n_vals = checked_count((val_bounds[g + 1] - v0) as u64, vals.len(), 1)?;

        let mut group_keys = Vec::with_capacity(n_keys);
        keys.decode_run(k0, n_keys, &mut group_keys);
        if !group_keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(format("has a group whose keys are not strictly increasing"));
        }
        if group_keys
            .last()
            .is_some_and(|&k| k as usize >= shape.keys_below)
        {
            return Err(format("holds an id outside the dictionaries"));
        }

        let mut offsets = Vec::with_capacity(n_keys + 1);
        offsets.push(0u32);
        for end in run_ends.by_ref().take(n_keys) {
            if end > v0 + n_vals {
                return Err(KbError::Format("wave group bounds split a run".into()));
            }
            // Bounds are u32 on the wire, so every offset fits.
            offsets.push((end - v0) as u32);
        }
        if offsets.last().copied() != Some(n_vals as u32) {
            return Err(KbError::Format("wave group bounds split a run".into()));
        }

        let mut values = Vec::with_capacity(n_vals);
        vals.decode_run(v0, n_vals, &mut values);
        for run in offsets.windows(2) {
            let run = &values[run[0] as usize..run[1] as usize];
            if !run.windows(2).all(|w| w[0] < w[1]) {
                return Err(format("has a run whose values are not strictly increasing"));
            }
            if run.last().is_some_and(|&v| v as usize >= shape.vals_below) {
                return Err(format("holds an id outside the dictionaries"));
            }
        }
        groups.push(Csr::from_parts(group_keys, offsets, values));
    }
    Ok(groups)
}

/// Locates a section by tag.
fn section<'a>(table: &[(u8, u64, u64)], tag: u8, body: &'a [u8]) -> Result<&'a [u8]> {
    let &(_, off, len) = table
        .iter()
        .find(|&&(t, _, _)| t == tag)
        .ok_or_else(|| KbError::Format(format!("missing section {tag}")))?;
    // Checked arithmetic: a crafted table with offset near u64::MAX must
    // not wrap past the bounds test.
    let end = off
        .checked_add(len)
        .filter(|&e| e <= body.len() as u64)
        .ok_or_else(|| KbError::Format("section extends past file body".into()))?;
    Ok(&body[off as usize..end as usize])
}

/// Loads a checksum-verified body (magic included) into a CSR-backed KB.
fn read_v2(body: &[u8], inverse_fraction: f64) -> Result<KnowledgeBase> {
    let mut header = &body[MAGIC.len()..];
    if header.remaining() < 2 {
        return Err(KbError::Format("truncated RKB2 header".into()));
    }
    let flags = header.get_u8();
    let n_sections = header.get_u8() as usize;
    if header.remaining() < n_sections * 17 {
        return Err(KbError::Format("truncated section table".into()));
    }
    // lint:allow(unchecked-binfmt-alloc): `n_sections` comes from a single u8, so the allocation is at most 255 entries
    let mut table = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let tag = header.get_u8();
        let off = header.get_u64_le();
        let len = header.get_u64_le();
        table.push((tag, off, len));
    }

    // Dictionaries.
    let mut nodes_sec = section(&table, SEC_NODES, body)?;
    // Each entry holds a kind byte plus two front-coding varints.
    let n_nodes = checked_count(varint::read_u64(&mut nodes_sec)?, nodes_sec.remaining(), 3)?;
    let mut nodes = Dictionary::with_capacity(n_nodes);
    let mut key = String::new();
    for _ in 0..n_nodes {
        if !nodes_sec.has_remaining() {
            return Err(KbError::Format("truncated node dictionary".into()));
        }
        let kind = kind_from_u8(nodes_sec.get_u8())?;
        read_front_coded(&mut nodes_sec, &mut key)?;
        if key_kind(&key)? != kind {
            return Err(KbError::Format(format!(
                "kind byte disagrees with key encoding for {key:?}"
            )));
        }
        nodes.intern_key(&key, kind);
    }
    if nodes.len() != n_nodes {
        return Err(KbError::Format("duplicate node dictionary entries".into()));
    }

    let mut preds_sec = section(&table, SEC_PREDS, body)?;
    let n_preds = checked_count(varint::read_u64(&mut preds_sec)?, preds_sec.remaining(), 2)?;
    let mut preds = Dictionary::with_capacity(n_preds);
    key.clear();
    for _ in 0..n_preds {
        read_front_coded(&mut preds_sec, &mut key)?;
        preds.intern_key(&key, TermKind::Iri);
    }
    if preds.len() != n_preds {
        return Err(KbError::Format(
            "duplicate predicate dictionary entries".into(),
        ));
    }

    // Metadata.
    let mut meta_sec = section(&table, SEC_META, body)?;
    let n_base = varint::read_u64(&mut meta_sec)? as usize;
    let n_freq = varint::read_u64(&mut meta_sec)? as usize;
    if n_freq != n_nodes {
        return Err(KbError::Format("frequency table length mismatch".into()));
    }
    let mut node_freq = Vec::with_capacity(n_nodes);
    for _ in 0..n_freq {
        node_freq.push(varint::read_u32(&mut meta_sec)?);
    }

    // The triples, decoded straight into CSR.
    let mut waves_sec = section(&table, SEC_TRIPLES, body)?;
    let per_pred = |name| WaveShape {
        name,
        groups: n_preds,
        keys_below: n_nodes,
        vals_below: n_nodes,
    };
    let spo = read_wave(&mut waves_sec, &per_pred("SPO"))?;
    let ops = read_wave(&mut waves_sec, &per_pred("OPS"))?;
    let sp_shape = WaveShape {
        name: "SP",
        groups: 1,
        keys_below: n_nodes,
        vals_below: n_preds,
    };
    let sp = read_wave(&mut waves_sec, &sp_shape)?;
    if let Some(p) = (0..n_preds).find(|&p| spo[p].num_values() != ops[p].num_values()) {
        return Err(KbError::Format(format!(
            "SPO and OPS waves disagree on the fact count of predicate {p}"
        )));
    }
    let subject_preds = sp.into_iter().next().unwrap_or_default();
    let store = StoreBackend::Csr(CsrStore::from_parts(
        spo.into_iter().zip(ops).collect(),
        subject_preds,
    ));

    let kb = KnowledgeBase::from_parts(nodes, preds, store, FreqVec::from_vec(node_freq), n_base);

    // The file bakes its inverse predicates. Only when the caller asks for
    // inverses and the file has none do we fall back to a rebuilding load.
    if inverse_fraction > 0.0 && flags & FLAG_HAS_INVERSES == 0 {
        let mut b = KbBuilder::new();
        for n in kb.node_ids() {
            b.node(&kb.node_term(n));
        }
        for p in kb.pred_ids() {
            b.pred(kb.pred_iri(p));
        }
        for t in kb.iter_triples() {
            b.add_ids(t.s, t.p, t.o);
        }
        return b.build_with_inverses(inverse_fraction);
    }
    Ok(kb)
}

/// Deserialises a KB from the bytes of an `RKB2` file, rebuilding inverse
/// predicates for the top `inverse_fraction` most frequent entities only
/// when the file holds none. The triples decode straight from `bytes`
/// into the CSR store; nothing else is copied.
pub fn read_bytes(bytes: &[u8], inverse_fraction: f64) -> Result<KnowledgeBase> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(KbError::Format("file too short".into()));
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let mut stored = [0u8; 8];
    stored.copy_from_slice(footer);
    if fnv1a(body) != u64::from_le_bytes(stored) {
        return Err(KbError::Format("checksum mismatch".into()));
    }
    match &body[..4] {
        m if m == &MAGIC[..] => read_v2(body, inverse_fraction),
        m if m == &RETIRED_MAGIC[..] => Err(KbError::Format(
            "RKB1 is a retired format; regenerate the KB with `remi gen`, \
             or `remi convert` it from N-Triples"
                .into(),
        )),
        _ => Err(KbError::Format("bad magic".into())),
    }
}

/// Writes a KB to a file.
pub fn save(kb: &KnowledgeBase, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, write_bytes(kb))?;
    Ok(())
}

/// Loads a KB from a file: reads it, then decodes it with [`read_bytes`].
pub fn load(path: impl AsRef<Path>, inverse_fraction: f64) -> Result<KnowledgeBase> {
    read_bytes(&std::fs::read(path)?, inverse_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Slot, TriplePattern};
    use crate::store::{RDFS_LABEL, RDF_TYPE};
    use crate::succinct::{write_bits, write_packed};
    use crate::term::Term;
    use proptest::prelude::*;

    fn sample_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.add_iri("http://x/Paris", "http://x/capitalOf", "http://x/France");
        b.add_iri("http://x/Paris", "http://x/cityIn", "http://x/France");
        b.add_iri("http://x/Lyon", "http://x/cityIn", "http://x/France");
        b.add(
            &Term::iri("http://x/Paris"),
            "http://x/label",
            &Term::lang_literal("Paris", "fr"),
        );
        b.add(
            &Term::blank("b0"),
            "http://x/near",
            &Term::iri("http://x/Paris"),
        );
        b.build().unwrap()
    }

    /// A small KB in the shape the synthetic generators produce: typed
    /// entities with labels, escaped and typed literals, a blank node,
    /// and materialised inverses.
    fn small_synth_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for i in 0..24 {
            let e = Term::iri(format!("http://x/e/Entity{i}"));
            let class = ["City", "Country", "Person"][i % 3];
            b.add(&e, RDF_TYPE, &Term::iri(format!("http://x/o/{class}")));
            b.add(
                &e,
                RDFS_LABEL,
                &Term::lang_literal(format!("Entity \"{i}\"\n"), "en"),
            );
            b.add(
                &e,
                "http://x/p/linksTo",
                &Term::iri(format!("http://x/e/Entity{}", (i * 7 + 3) % 24)),
            );
            b.add(
                &e,
                "http://x/p/near",
                &Term::iri(format!("http://x/e/Entity{}", i / 2)),
            );
            b.add(
                &e,
                "http://x/p/population",
                &Term::typed_literal(
                    (i * 1000).to_string(),
                    "http://www.w3.org/2001/XMLSchema#integer",
                ),
            );
        }
        b.add(
            &Term::blank("b0"),
            "http://x/p/near",
            &Term::iri("http://x/e/Entity0"),
        );
        b.build_with_inverses(0.5).unwrap()
    }

    fn kb_lines(kb: &KnowledgeBase) -> std::collections::BTreeSet<String> {
        let mut v = Vec::new();
        crate::ntriples::write_kb(kb, &mut v).unwrap();
        String::from_utf8(v)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    }

    /// Re-checksums a mutated body so crafted-input tests reach the
    /// parser instead of the checksum gate.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// The section table of a well-formed file: `(tag, byte range)` per
    /// entry, in table order.
    fn section_table(bytes: &[u8]) -> Vec<(u8, std::ops::Range<usize>)> {
        let header = MAGIC.len() + 2;
        (0..usize::from(bytes[header - 1]))
            .map(|i| {
                let e = &bytes[header + i * 17..];
                let off = u64::from_le_bytes(e[1..9].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(e[9..17].try_into().unwrap()) as usize;
                (e[0], off..off + len)
            })
            .collect()
    }

    /// Rebuilds a well-formed file with one section's payload replaced,
    /// then reseals it.
    fn replace_section(bytes: &[u8], tag: u8, payload: &[u8]) -> Vec<u8> {
        let table = section_table(bytes);
        let sections: Vec<&[u8]> = table
            .iter()
            .map(|(t, range)| {
                if *t == tag {
                    payload
                } else {
                    &bytes[range.clone()]
                }
            })
            .collect();
        let header = MAGIC.len() + 2;
        let mut out = bytes[..header].to_vec();
        let mut off = header + table.len() * 17;
        for ((t, _), p) in table.iter().zip(&sections) {
            out.push(*t);
            out.extend_from_slice(&(off as u64).to_le_bytes());
            out.extend_from_slice(&(p.len() as u64).to_le_bytes());
            off += p.len();
        }
        for p in &sections {
            out.extend_from_slice(p);
        }
        out.extend_from_slice(&[0; 8]);
        reseal(out)
    }

    /// The node dictionary as `(key, kind)` pairs in id order.
    fn node_entries(kb: &KnowledgeBase) -> Vec<(String, TermKind)> {
        kb.node_dict()
            .iter()
            .map(|(_, key, kind)| (key.to_string(), kind))
            .collect()
    }

    /// A NODES section payload holding `entries` in order.
    fn nodes_payload(entries: &[(String, TermKind)]) -> BytesMut {
        let mut out = BytesMut::new();
        varint::write_u64(&mut out, entries.len() as u64);
        let mut prev = String::new();
        for (key, kind) in entries {
            out.put_u8(kind_to_u8(*kind));
            write_front_coded(&mut out, &mut prev, key);
        }
        out
    }

    /// One wave as groups of `(key, run)` pairs, in file order.
    type Groups = Vec<Vec<(u32, Vec<u32>)>>;

    /// The SPO, OPS and SP waves of `kb`, as the writer lays them out.
    fn wave_groups(kb: &KnowledgeBase) -> [Groups; 3] {
        let store = kb.store();
        let spo = kb
            .pred_ids()
            .map(|p| {
                (0..store.num_subjects(p))
                    .map(|i| (store.subject_at(p, i).0, store.objects_at(p, i).to_vec()))
                    .collect()
            })
            .collect();
        let ops = kb
            .pred_ids()
            .map(|p| {
                (0..store.num_objects(p))
                    .map(|i| (store.object_at(p, i).0, store.subjects_at(p, i).to_vec()))
                    .collect()
            })
            .collect();
        let sp = kb
            .node_ids()
            .map(|n| (n.0, store.preds_of_subject(n).to_vec()))
            .filter(|(_, preds)| !preds.is_empty())
            .collect();
        [spo, ops, vec![sp]]
    }

    /// A TRIPLES section payload holding `waves` (16-bit ids, so crafted
    /// out-of-range ids still fit the packing).
    fn waves_payload(waves: &[Groups; 3]) -> BytesMut {
        let mut out = BytesMut::new();
        for groups in waves {
            let mut wave = WaveBuilder::new(16, 16);
            for group in groups {
                wave.begin_group();
                for (key, run) in group {
                    wave.push_run(*key, run.iter().copied());
                }
            }
            wave.write(&mut out);
        }
        out
    }

    /// `kb`'s file with its waves edited by `edit`.
    fn with_edited_waves(kb: &KnowledgeBase, edit: impl FnOnce(&mut [Groups; 3])) -> Vec<u8> {
        let mut waves = wave_groups(kb);
        edit(&mut waves);
        replace_section(&write_bytes(kb), SEC_TRIPLES, &waves_payload(&waves))
    }

    fn format_error(result: Result<KnowledgeBase>) -> String {
        match result {
            Err(KbError::Format(msg)) => msg,
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(_) => panic!("expected a format error, got a KB"),
        }
    }

    #[test]
    fn roundtrip_preserves_triples() {
        let kb = sample_kb();
        let bytes = write_bytes(&kb);
        let kb2 = read_bytes(&bytes, 0.0).unwrap();
        assert_eq!(kb2.num_triples(), kb.num_triples());
        assert_eq!(kb_lines(&kb), kb_lines(&kb2));
    }

    #[test]
    fn v2_roundtrip_preserves_triples_and_statistics() {
        let kb = sample_kb();
        let bytes = write_bytes(&kb);
        let kb2 = read_bytes(&bytes, 0.0).unwrap();
        assert_eq!(kb2.num_triples(), kb.num_triples());
        assert_eq!(kb_lines(&kb), kb_lines(&kb2));
        // Statistics survive the format hop.
        for p in kb.pred_ids() {
            let p2 = kb2.pred_id(kb.pred_iri(p)).unwrap();
            assert_eq!(kb.pred_frequency(p), kb2.pred_frequency(p2));
        }
    }

    #[test]
    fn v2_bakes_inverses_and_skips_rebuild() {
        let mut b = KbBuilder::new();
        for city in ["a", "b", "c", "d"] {
            b.add_iri(&format!("e:{city}"), "p:cityIn", "e:France");
        }
        let kb = b.build_with_inverses(0.25).unwrap();
        let bytes = write_bytes(&kb);
        // Loading with any fraction keeps the baked inverses.
        let kb2 = read_bytes(&bytes, 0.9).unwrap();
        let inv_iri = format!("p:cityIn{}", crate::store::INVERSE_SUFFIX);
        assert!(kb2.pred_id(&inv_iri).is_some());
        assert_eq!(
            kb2.num_triples_with_inverses(),
            kb.num_triples_with_inverses()
        );
    }

    #[test]
    fn v2_without_inverses_rebuilds_on_request() {
        let mut b = KbBuilder::new();
        for city in ["a", "b", "c", "d"] {
            b.add_iri(&format!("e:{city}"), "p:cityIn", "e:France");
        }
        let kb = b.build().unwrap();
        let bytes = write_bytes(&kb);
        let kb2 = read_bytes(&bytes, 0.25).unwrap();
        let inv_iri = format!("p:cityIn{}", crate::store::INVERSE_SUFFIX);
        assert!(kb2.pred_id(&inv_iri).is_some());
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = write_bytes(&sample_kb()).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(format_error(read_bytes(&bytes, 0.0)).contains("checksum"));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = write_bytes(&sample_kb());
        assert!(read_bytes(&bytes[..bytes.len() - 9], 0.0).is_err());
        assert!(read_bytes(&bytes[..4], 0.0).is_err());
        assert!(read_bytes(&[], 0.0).is_err());
    }

    /// A checksum-valid file in the retired row-oriented format is refused
    /// by name, with the way to regenerate it.
    #[test]
    fn rkb1_magic_names_the_retired_format() {
        let mut bytes = RETIRED_MAGIC.to_vec();
        bytes.extend_from_slice(&[0; 9]); // flags + checksum placeholder
        let msg = format_error(read_bytes(&reseal(bytes), 0.0));
        assert!(msg.contains("RKB1") && msg.contains("retired"), "{msg}");
        assert!(
            msg.contains("remi gen") && msg.contains("remi convert"),
            "{msg}"
        );
    }

    /// Hostile element counts must error before reaching `with_capacity`
    /// (which aborts, not unwinds, on capacity overflow).
    #[test]
    fn crafted_huge_counts_error_instead_of_aborting() {
        // A node section whose count varint claims u64::MAX entries.
        let mut nodes = BytesMut::new();
        varint::write_u64(&mut nodes, u64::MAX);
        let bytes = replace_section(&write_bytes(&sample_kb()), SEC_NODES, &nodes);
        assert!(format_error(read_bytes(&bytes, 0.0)).contains("overruns"));

        // Packed sequence / bitmap with a word count far beyond the
        // remaining bytes, and one whose capacity cannot hold its length.
        let mut raw = BytesMut::new();
        raw.put_u8(8); // width
        varint::write_u64(&mut raw, 4);
        varint::write_u64(&mut raw, u64::MAX); // n_words
        assert!(read_packed(&mut &raw[..]).is_err());

        let mut raw = BytesMut::new();
        raw.put_u8(8); // width
        varint::write_u64(&mut raw, u64::MAX); // len: needs 2^64 values
        varint::write_u64(&mut raw, 1); // ...in one word
        raw.put_u64_le(0);
        assert!(read_packed(&mut &raw[..]).is_err());

        let mut raw = BytesMut::new();
        varint::write_u64(&mut raw, u64::MAX); // len_bits
        varint::write_u64(&mut raw, 1); // n_words
        raw.put_u64_le(0);
        assert!(read_bitvec(&mut &raw[..]).is_err());
    }

    /// A shared-prefix length that splits a multibyte character must be
    /// rejected, not panic on the slice.
    #[test]
    fn front_coding_respects_char_boundaries() {
        let mut raw = BytesMut::new();
        varint::write_u64(&mut raw, 1); // shared: splits the 2-byte 'é'
        varint::write_str(&mut raw, "x");
        let mut key = "é".to_string();
        assert!(matches!(
            read_front_coded(&mut &raw[..], &mut key),
            Err(KbError::Format(msg)) if msg.contains("prefix overruns")
        ));
    }

    #[test]
    fn v2_crafted_section_offsets_error_instead_of_panicking() {
        let kb = sample_kb();
        let mut bytes = write_bytes(&kb).to_vec();
        // First table entry starts right after magic+flags+count; poison
        // its offset with u64::MAX (wraps `off + len` if unchecked).
        let entry = MAGIC.len() + 2 + 1;
        bytes[entry..entry + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(format_error(read_bytes(&reseal(bytes), 0.0)).contains("section"));
    }

    #[test]
    fn v2_checksummed_but_headerless_file_errors() {
        // Exactly magic + a valid checksum: no flags or section count.
        let bytes = reseal(b"RKB2\0\0\0\0\0\0\0\0".to_vec());
        assert!(format_error(read_bytes(&bytes, 0.0)).contains("truncated"));
    }

    /// An SP (subject→predicates) wave with two groups is refused: the
    /// store holds exactly one subject→predicates adjacency.
    #[test]
    fn v2_multi_group_sp_wave_errors_instead_of_panicking() {
        let kb = sample_kb();
        // The unedited payload loads: the edits below are what fails.
        assert!(read_bytes(&with_edited_waves(&kb, |_| {}), 0.0).is_ok());
        let bytes = with_edited_waves(&kb, |[_, _, sp]| sp.push(vec![(1, vec![0])]));
        let msg = format_error(read_bytes(&bytes, 0.0));
        assert!(msg.contains("SP wave has 2 groups"), "{msg}");
    }

    /// A checksum-valid file whose keys are out of order within a group
    /// would make every binary search over them answer wrongly.
    #[test]
    fn v2_unsorted_group_keys_error() {
        let kb = sample_kb();
        let bytes = with_edited_waves(&kb, |[spo, _, _]| {
            let group = spo.iter_mut().find(|g| g.len() >= 2).unwrap();
            group.swap(0, 1);
        });
        let msg = format_error(read_bytes(&bytes, 0.0));
        assert!(
            msg.contains("SPO wave has a group whose keys are not strictly increasing"),
            "{msg}"
        );
    }

    /// A run whose values are out of order (or repeat) is refused.
    #[test]
    fn v2_unsorted_run_values_error() {
        let kb = sample_kb();
        let bytes = with_edited_waves(&kb, |[_, ops, _]| {
            let run = ops
                .iter_mut()
                .flatten()
                .map(|(_, run)| run)
                .find(|run| run.len() >= 2)
                .unwrap();
            run.reverse();
        });
        let msg = format_error(read_bytes(&bytes, 0.0));
        assert!(
            msg.contains("OPS wave has a run whose values are not strictly increasing"),
            "{msg}"
        );
    }

    /// An OPS wave holding a fact the SPO wave lacks is refused: subject
    /// and object lookups would disagree.
    #[test]
    fn v2_spo_ops_fact_count_mismatch_errors() {
        let kb = sample_kb();
        let n_nodes = kb.num_nodes() as u32;
        let bytes = with_edited_waves(&kb, |[_, ops, _]| {
            let (_, run) = ops.iter_mut().flatten().next().unwrap();
            let extra = (0..n_nodes).find(|n| !run.contains(n)).unwrap();
            run.push(extra);
            run.sort_unstable();
        });
        let msg = format_error(read_bytes(&bytes, 0.0));
        assert!(
            msg.contains("SPO and OPS waves disagree on the fact count"),
            "{msg}"
        );
    }

    /// Wave ids past the dictionaries are refused on load; a KB holding
    /// them would panic on the first `node_name`.
    #[test]
    fn v2_ids_outside_dictionaries_error_instead_of_panicking() {
        let kb = sample_kb();
        let bytes = write_bytes(&kb);

        // A node dictionary one entry shorter than the ids in the waves
        // (the last node, the blank `b0`, is a subject of `near`).
        let short = kb.num_nodes() - 1;
        let nodes = nodes_payload(&node_entries(&kb)[..short]);
        let mut meta = BytesMut::new();
        varint::write_u64(&mut meta, kb.num_triples() as u64);
        varint::write_u64(&mut meta, short as u64);
        for n in kb.node_ids().take(short) {
            varint::write_u32(&mut meta, kb.node_frequency(n));
        }
        let crafted = replace_section(&replace_section(&bytes, SEC_NODES, &nodes), SEC_META, &meta);
        let msg = format_error(read_bytes(&crafted, 0.0));
        assert!(msg.contains("outside the dictionaries"), "{msg}");

        // An SP wave naming a predicate id past the predicate dictionary.
        let n_preds = kb.num_preds() as u32;
        let crafted = with_edited_waves(&kb, |[_, _, sp]| sp[0] = vec![(0, vec![n_preds])]);
        let msg = format_error(read_bytes(&crafted, 0.0));
        assert!(msg.contains("SP wave holds an id outside"), "{msg}");
    }

    /// A literal key that does not parse is refused on load (it would
    /// panic in `Term::from_dict_key` on first use), and so is a kind
    /// byte that disagrees with its key.
    #[test]
    fn v2_malformed_node_keys_error_instead_of_panicking() {
        let kb = sample_kb();
        let bytes = write_bytes(&kb);
        let keys = node_entries(&kb);
        let literal = keys
            .iter()
            .position(|(_, kind)| *kind == TermKind::Literal)
            .unwrap();

        let mut unterminated = keys.clone();
        unterminated[literal].0 = "\"Paris@fr".into();
        let nodes = nodes_payload(&unterminated);
        let msg = format_error(read_bytes(&replace_section(&bytes, SEC_NODES, &nodes), 0.0));
        assert!(msg.contains("malformed literal key"), "{msg}");

        let mut mislabelled = keys.clone();
        mislabelled[0].1 = TermKind::Literal;
        let nodes = nodes_payload(&mislabelled);
        let msg = format_error(read_bytes(&replace_section(&bytes, SEC_NODES, &nodes), 0.0));
        assert!(msg.contains("kind byte disagrees"), "{msg}");
    }

    /// Group bounds that cut through a key's run would make a lookup in
    /// one group read values of the next, or scan past the last delimiter.
    #[test]
    fn v2_group_bounds_splitting_a_run_error() {
        let shape = |groups| WaveShape {
            name: "SPO",
            groups,
            keys_below: 16,
            vals_below: 16,
        };
        let wave =
            |groups: u64, key_bounds: &[u32], val_bounds: &[u32], bits: &[bool], vals: &[u32]| {
                let mut last = vec![0u64; bits.len().div_ceil(64)];
                for (i, _) in bits.iter().enumerate().filter(|&(_, &bit)| bit) {
                    last[i / 64] |= 1 << (i % 64);
                }
                let mut raw = BytesMut::new();
                varint::write_u64(&mut raw, groups);
                for &b in key_bounds.iter().chain(val_bounds) {
                    varint::write_u32(&mut raw, b);
                }
                write_packed(&mut raw, 4, &[1, 2]);
                write_bits(&mut raw, bits.len(), &last);
                write_packed(&mut raw, 4, vals);
                read_wave(&mut &raw[..], &shape(groups as usize))
            };
        let splits =
            |r: Result<Vec<Csr>>| matches!(r, Err(KbError::Format(m)) if m.contains("split a run"));
        // Two keys with runs [3, 4] and [5]: value bound 1 cuts run 0.
        assert!(splits(wave(
            2,
            &[0, 1, 2],
            &[0, 1, 3],
            &[false, true, true],
            &[3, 4, 5]
        )));
        // Group 0 claims every value, so group 1's key has no run left.
        assert!(splits(wave(
            2,
            &[0, 1, 2],
            &[0, 3, 3],
            &[false, true, true],
            &[3, 4, 5]
        )));
        // The same bounds over well-placed runs load.
        assert!(wave(2, &[0, 1, 2], &[0, 2, 3], &[false, true, true], &[3, 4, 5]).is_ok());

        // A delimiter stored past the bitmap's length (bit 5 of a 2-bit
        // map) keeps the one-per-key count but leaves the last run open.
        let mut raw = BytesMut::new();
        varint::write_u64(&mut raw, 1);
        for b in [0, 2, 0, 2] {
            varint::write_u32(&mut raw, b);
        }
        write_packed(&mut raw, 4, &[1, 2]);
        write_bits(&mut raw, 2, &[0b10_0010]);
        write_packed(&mut raw, 4, &[3, 4]);
        assert!(matches!(
            read_wave(&mut &raw[..], &shape(1)),
            Err(KbError::Format(m)) if m.contains("split a run")
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut bytes = write_bytes(&sample_kb()).to_vec();
        bytes[0] = b'X';
        assert!(format_error(read_bytes(&reseal(bytes), 0.0)).contains("magic"));
    }

    #[test]
    fn file_roundtrip_preserves_triples() {
        let kb = sample_kb();
        let dir = std::env::temp_dir().join("remi_kb_binfmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.rkb");
        save(&kb, &path).unwrap();
        let kb2 = load(&path, 0.0).unwrap();
        assert_eq!(kb_lines(&kb), kb_lines(&kb2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compression_beats_ntriples_on_shared_prefixes() {
        let mut b = KbBuilder::new();
        for i in 0..500 {
            b.add_iri(
                &format!("http://very.long.example.org/resource/Entity{i}"),
                "http://very.long.example.org/ontology/linksTo",
                &format!("http://very.long.example.org/resource/Entity{}", i / 2),
            );
        }
        let kb = b.build().unwrap();
        let bin = write_bytes(&kb).len();
        let mut nt = Vec::new();
        crate::ntriples::write_kb(&kb, &mut nt).unwrap();
        assert!(
            bin * 2 < nt.len(),
            "binary ({bin}) should be at most half of N-Triples ({})",
            nt.len()
        );
    }

    #[test]
    fn front_coding_handles_unicode_boundaries() {
        let mut b = KbBuilder::new();
        b.add_iri("e:caf", "p:r", "e:x");
        b.add_iri("e:café", "p:r", "e:x");
        b.add_iri("e:cafés", "p:r", "e:x");
        let kb = b.build().unwrap();
        let kb2 = read_bytes(&write_bytes(&kb), 0.0).unwrap();
        assert_eq!(kb_lines(&kb), kb_lines(&kb2));
    }

    /// Runs every `TripleStore` primitive over every predicate and node,
    /// then the KB-level readers a loaded file feeds (`iter_triples`,
    /// names, N-Triples export). Returns a checksum so nothing is
    /// optimised away.
    fn exercise(kb: &KnowledgeBase) -> usize {
        let store = kb.store();
        let mut acc = store.num_preds() + store.memory().total();
        for p in kb.pred_ids() {
            acc += store.num_facts(p);
            for i in 0..store.num_subjects(p) {
                acc += store.subject_at(p, i).idx() + store.objects_at(p, i).iter().count();
            }
            for i in 0..store.num_objects(p) {
                acc += store.object_at(p, i).idx()
                    + store.subjects_at(p, i).iter().count()
                    + store.object_group_len(p, i);
            }
            for n in kb.node_ids() {
                let objects = store.objects(p, n);
                acc += objects.iter().count() + store.subjects(p, n).iter().count();
                acc += usize::from(store.contains(n, p, n));
                if let Some(o) = objects.first() {
                    acc += usize::from(store.contains(n, p, NodeId(o)));
                }
                let pat = TriplePattern::new(Slot::Bound(n.0), Slot::Bound(p.0), Slot::Var(0));
                acc += store.solve(pat).count();
            }
            let pat = TriplePattern::new(Slot::Var(0), Slot::Bound(p.0), Slot::Var(1));
            acc += store.solve(pat).count();
            acc += kb.pred_name(p).len();
        }
        for n in kb.node_ids() {
            acc += store.preds_of_subject(n).iter().count() + kb.node_name(n).len();
            let pat = TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Bound(n.0));
            acc += store.solve(pat).count();
        }
        acc += kb.iter_triples().count();
        acc + kb_lines(kb).len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Random damage behind a valid checksum — 1–8 byte flips, or a
        /// truncation, inside the body — either fails to load with an
        /// error or loads a KB every reader can walk without panicking.
        /// Each case aims its flips at one region (the whole body, the
        /// header and section table, or one section): the dictionaries
        /// dominate the file, so uniform flips alone would rarely reach
        /// the waves with the dictionaries still intact.
        #[test]
        fn prop_mutated_files_load_or_error_without_panicking(
            truncate in 0u8..4,
            region in 0usize..6,
            flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..9),
            inverse_fraction in prop_oneof![Just(0.0), Just(0.5)],
        ) {
            let clean = write_bytes(&small_synth_kb());
            let body_len = clean.len() - 8;
            let table = section_table(&clean);
            let target = match region {
                0 => 0..body_len,
                1 => 0..table[0].1.start,
                r => table[r - 2].1.clone(),
            };
            let mut body = clean[..body_len].to_vec();
            if truncate == 0 {
                body.truncate(flips[0].0 as usize % body_len);
            } else {
                for &(pos, mask) in &flips {
                    body[target.start + pos as usize % target.len()] ^= mask;
                }
            }
            body.extend_from_slice(&[0; 8]);
            let bytes = reseal(body);
            let outcome = std::panic::catch_unwind(|| {
                read_bytes(&bytes, inverse_fraction).map(|kb| exercise(&kb))
            });
            prop_assert!(
                outcome.is_ok(),
                "panicked (truncate {}, region {}, flips {:?}, inverse fraction {})",
                truncate == 0,
                region,
                flips,
                inverse_fraction
            );
        }
    }

    #[test]
    fn untouched_synth_file_passes_the_exercise() {
        let kb = small_synth_kb();
        let loaded = read_bytes(&write_bytes(&kb), 0.0).unwrap();
        assert_eq!(kb_lines(&kb), kb_lines(&loaded));
        assert!(exercise(&loaded) > 0);
    }
}
