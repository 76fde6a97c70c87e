//! String-interning dictionary mapping terms to dense `u32` ids, stored as
//! persistent, chunked immutable segments.
//!
//! # Segmented layout
//!
//! Ids are split into fixed-size ranges of [`Dictionary::SEGMENT_LEN`]
//! entries. Every full range lives in a *sealed* `DictSegment` behind an
//! `Arc`; only the most recent partial range (the *tail*) is a plain
//! mutable `Vec`. The interning map mirrors the split: a frozen
//! `Arc<FxHashMap>` covers exactly the sealed ids, and a small side map
//! covers the tail.
//!
//! The payoff is persistence: `Dictionary::clone` is an `Arc`-bump per
//! sealed segment plus a copy of the (≤ `SEGMENT_LEN`-entry) tail, so
//! cloning is **O(len / SEGMENT_LEN + SEGMENT_LEN)** instead of O(len).
//! This is what makes `LiveKb` epoch publishes O(batch): every snapshot
//! shares all sealed segments — and the frozen map — with the writer and
//! with every other snapshot. Sealing (which folds the tail into the
//! frozen map via `Arc::make_mut`, copying it if snapshots still hold it)
//! happens once per `SEGMENT_LEN` interns, so its cost amortises to
//! O(len / SEGMENT_LEN) per key and the *median* publish never touches a
//! sealed structure at all.
//!
//! Every node and predicate string is still stored exactly once — and
//! allocated exactly once: the hash-map key and the id-indexed entry share
//! one `Arc<str>`, so string-heavy KBs pay one heap string per distinct
//! term instead of two. Lookups by id are two flat indexes (segment, then
//! offset); lookups by key probe the frozen map, then the tail map.

use std::sync::Arc;

use crate::fx::FxHashMap;
use crate::term::{Term, TermKind};

/// An interning dictionary for term strings.
///
/// Keys are canonical term encodings (see [`Term::dict_key`]). The kind of
/// each term is stored alongside so hot paths can test "is this a literal?"
/// without reparsing the string. See the module docs for the persistent
/// segmented layout that makes `clone` cheap.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Sealed segments of exactly [`Self::SEGMENT_LEN`] entries each;
    /// segment `s` holds ids `s * SEGMENT_LEN ..`.
    sealed: Vec<Arc<DictSegment>>,
    /// The mutable tail: ids `sealed.len() * SEGMENT_LEN ..`, fewer than
    /// `SEGMENT_LEN` of them.
    tail: Vec<Entry>,
    /// Frozen key → id map covering exactly the sealed ids. Shared (and
    /// only copied-on-seal via `Arc::make_mut`) across clones.
    sealed_ids: Arc<FxHashMap<Arc<str>, u32>>,
    /// Key → id for the tail entries only.
    tail_ids: FxHashMap<Arc<str>, u32>,
}

/// One immutable range of `SEGMENT_LEN` consecutive ids.
#[derive(Debug)]
struct DictSegment {
    entries: Vec<Entry>,
}

#[derive(Debug, Clone)]
struct Entry {
    key: Arc<str>,
    kind: TermKind,
}

impl Dictionary {
    /// Entries per sealed segment. Tuned so the per-clone tail copy stays
    /// a few KB while keeping the `Arc`-bump count (len / SEGMENT_LEN)
    /// negligible for multi-million-term KBs.
    pub const SEGMENT_LEN: usize = 1024;

    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Dictionary {
            sealed: Vec::with_capacity(cap / Self::SEGMENT_LEN + 1),
            tail: Vec::with_capacity(cap.min(Self::SEGMENT_LEN)),
            sealed_ids: Arc::new(FxHashMap::with_capacity_and_hasher(cap, Default::default())),
            tail_ids: FxHashMap::default(),
        }
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> u32 {
        self.intern_key(&term.dict_key(), term.kind())
    }

    /// Interns a pre-encoded dictionary key with a known kind.
    ///
    /// Used by the parser and the binary loader, which already hold the
    /// canonical encoding and should not re-materialise a [`Term`].
    pub fn intern_key(&mut self, key: &str, kind: TermKind) -> u32 {
        if let Some(&id) = self.sealed_ids.get(key) {
            return id;
        }
        if let Some(&id) = self.tail_ids.get(key) {
            return id;
        }
        let id = self.len() as u32;
        // One allocation, shared between the map key and the entry.
        let shared: Arc<str> = Arc::from(key);
        self.tail.push(Entry {
            key: Arc::clone(&shared),
            kind,
        });
        // While the frozen map is exclusively owned (bulk loads and
        // builders, before any snapshot shares it) insert directly and
        // skip the tail staging map plus its seal-time re-hash: one hash
        // insert per key, as in a flat dictionary. Once snapshots share
        // the map, new keys stage in `tail_ids` so the shared table is
        // only copied at seal (via `make_mut`), never per key.
        if let Some(frozen) = Arc::get_mut(&mut self.sealed_ids) {
            frozen.insert(shared, id);
        } else {
            self.tail_ids.insert(shared, id);
        }
        if self.tail.len() == Self::SEGMENT_LEN {
            self.seal_tail();
        }
        id
    }

    /// Seals the (full) tail into an immutable segment and folds its keys
    /// into the frozen map. `Arc::make_mut` copies the frozen map only
    /// when snapshots still share it — an `Arc`-bump per key plus a table
    /// memcpy, never a rehash — so sealing amortises to
    /// O(len / SEGMENT_LEN) per interned key.
    fn seal_tail(&mut self) {
        debug_assert_eq!(self.tail.len(), Self::SEGMENT_LEN);
        let mut entries = std::mem::take(&mut self.tail);
        entries.shrink_to_fit();
        self.sealed.push(Arc::new(DictSegment { entries }));
        // Nothing staged means every tail key was already inserted
        // directly into an exclusively-owned frozen map — don't force a
        // copy of a (now shared) table just to fold zero keys.
        if !self.tail_ids.is_empty() {
            let frozen = Arc::make_mut(&mut self.sealed_ids);
            frozen.reserve(self.tail_ids.len());
            for (k, v) in self.tail_ids.drain() {
                frozen.insert(k, v);
            }
        }
        self.tail.reserve(Self::SEGMENT_LEN);
    }

    /// Looks up the id of a term without interning.
    pub fn get(&self, term: &Term) -> Option<u32> {
        self.get_key(&term.dict_key())
    }

    /// Looks up the id of a canonical key without interning.
    pub fn get_key(&self, key: &str) -> Option<u32> {
        match self.sealed_ids.get(key) {
            Some(&id) => Some(id),
            None => self.tail_ids.get(key).copied(),
        }
    }

    #[inline]
    fn entry(&self, id: u32) -> &Entry {
        let i = id as usize;
        let seg = i / Self::SEGMENT_LEN;
        if seg < self.sealed.len() {
            &self.sealed[seg].entries[i % Self::SEGMENT_LEN]
        } else {
            &self.tail[i - self.sealed.len() * Self::SEGMENT_LEN]
        }
    }

    /// The canonical key for `id`. Panics if `id` is out of range.
    pub fn key(&self, id: u32) -> &str {
        &self.entry(id).key
    }

    /// The [`TermKind`] of `id`. Panics if `id` is out of range.
    pub fn kind(&self, id: u32) -> TermKind {
        self.entry(id).kind
    }

    /// Materialises the [`Term`] for `id`.
    pub fn term(&self, id: u32) -> Term {
        Term::from_dict_key(self.key(id))
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.sealed.len() * Self::SEGMENT_LEN + self.tail.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Iterates `(id, key, kind)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str, TermKind)> + '_ {
        self.sealed
            .iter()
            .flat_map(|seg| seg.entries.iter())
            .chain(self.tail.iter())
            .enumerate()
            .map(|(i, e)| (i as u32, &*e.key, e.kind))
    }

    /// Addresses of the sealed segments, in id order. Two dictionaries
    /// that share a sealed segment yield the same address for it — the
    /// observable form of the persistence guarantee (used by sharing
    /// diagnostics and the epoch-snapshot tests).
    pub fn sealed_segment_ptrs(&self) -> impl Iterator<Item = usize> + '_ {
        self.sealed.iter().map(|seg| Arc::as_ptr(seg) as usize)
    }

    /// Estimated heap bytes: one shared string allocation per entry (string
    /// data + `Arc` header) plus the map and segment tables.
    ///
    /// Exact under segmentation: each sealed segment this dictionary
    /// references is counted exactly once, even while other live snapshots
    /// share it — `heap_bytes` answers "how much heap does *this*
    /// dictionary keep alive", so a clone reports the same value as its
    /// original rather than zero (shared ≠ free) or double (map keys share
    /// the entry strings).
    pub fn heap_bytes(&self) -> usize {
        // Arc<str> header: strong + weak counts.
        const ARC_HEADER: usize = 16;
        let entry_bytes = |e: &Entry| e.key.len() + ARC_HEADER;
        let strings: usize = self
            .sealed
            .iter()
            .flat_map(|seg| seg.entries.iter())
            .chain(self.tail.iter())
            .map(entry_bytes)
            .sum();
        let map_slot = std::mem::size_of::<(Arc<str>, u32)>() + 1;
        let segments: usize = self
            .sealed
            .iter()
            .map(|seg| seg.entries.capacity() * std::mem::size_of::<Entry>() + ARC_HEADER)
            .sum();
        // The mutable tail structures are counted by *length*, not
        // capacity: clones do not preserve spare capacity, and heap_bytes
        // must report the same exact value for a clone as for its
        // original (both keep the same data alive). The sealed side uses
        // real capacities — those allocations are shared, hence identical.
        let tables = self.sealed_ids.capacity() * map_slot
            + self.tail_ids.len() * map_slot
            + self.sealed.len() * std::mem::size_of::<Arc<DictSegment>>()
            + self.tail.len() * std::mem::size_of::<Entry>();
        strings + segments + tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::iri("http://x/b"));
        let a2 = d.intern(&Term::iri("http://x/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut d = Dictionary::new();
        for i in 0..100u32 {
            let id = d.intern(&Term::iri(format!("http://x/{i}")));
            assert_eq!(id, i);
        }
        for i in 0..100u32 {
            assert_eq!(d.key(i), format!("http://x/{i}"));
        }
    }

    #[test]
    fn kinds_are_preserved() {
        let mut d = Dictionary::new();
        let i = d.intern(&Term::iri("http://x/a"));
        let l = d.intern(&Term::literal("a"));
        let b = d.intern(&Term::blank("a"));
        assert_eq!(d.kind(i), TermKind::Iri);
        assert_eq!(d.kind(l), TermKind::Literal);
        assert_eq!(d.kind(b), TermKind::Blank);
        // Three distinct terms even though all spell "a".
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn term_roundtrip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/Paris"),
            Term::literal("42"),
            Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
            Term::lang_literal("Paris", "fr"),
            Term::blank("b0"),
        ];
        for t in &terms {
            let id = d.intern(t);
            assert_eq!(&d.term(id), t);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut d = Dictionary::new();
        assert_eq!(d.get(&Term::iri("http://x/a")), None);
        assert_eq!(d.len(), 0);
        d.intern(&Term::iri("http://x/a"));
        assert_eq!(d.get(&Term::iri("http://x/a")), Some(0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern(&Term::iri("b"));
        d.intern(&Term::iri("a"));
        let collected: Vec<_> = d.iter().map(|(id, k, _)| (id, k.to_string())).collect();
        assert_eq!(collected, vec![(0, "b".into()), (1, "a".into())]);
    }

    #[test]
    fn map_key_and_entry_share_one_allocation() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::iri("http://x/shared"));
        let entry_key = Arc::clone(&d.tail[id as usize].key);
        // Exclusively owned → the key went straight to the frozen map.
        let (map_key, _) = d
            .sealed_ids
            .get_key_value("http://x/shared")
            .expect("interned key");
        assert!(Arc::ptr_eq(&entry_key, map_key));
        // Shared by entry, map, and our local clone.
        assert_eq!(Arc::strong_count(&entry_key), 3);
    }

    #[test]
    fn interning_after_clone_stages_keys_without_copying_the_shared_map() {
        let mut d = Dictionary::new();
        for i in 0..Dictionary::SEGMENT_LEN - 2 {
            d.intern(&Term::iri(format!("http://x/{i}")));
        }
        let snapshot = d.clone();
        // The frozen map is now shared: new keys must stage in the tail
        // map rather than mutate (or copy) the shared table.
        let id = d.intern(&Term::iri("http://x/staged"));
        assert!(Arc::ptr_eq(&d.sealed_ids, &snapshot.sealed_ids));
        assert!(d.tail_ids.contains_key("http://x/staged"));
        assert_eq!(d.get_key("http://x/staged"), Some(id));
        assert_eq!(snapshot.get_key("http://x/staged"), None);
        // Crossing the segment boundary seals and folds the staged keys;
        // the snapshot keeps reading its original (pre-copy) map.
        d.intern(&Term::iri("http://x/boundary"));
        assert_eq!(d.sealed.len(), 1);
        assert!(d.tail_ids.is_empty());
        assert!(!Arc::ptr_eq(&d.sealed_ids, &snapshot.sealed_ids));
        assert_eq!(d.get_key("http://x/staged"), Some(id));
        assert_eq!(snapshot.get_key("http://x/staged"), None);
        assert_eq!(snapshot.len(), Dictionary::SEGMENT_LEN - 2);
    }

    #[test]
    fn sealing_preserves_shared_allocation_and_lookup() {
        let mut d = Dictionary::new();
        for i in 0..Dictionary::SEGMENT_LEN + 5 {
            d.intern(&Term::iri(format!("http://x/{i}")));
        }
        assert_eq!(d.sealed.len(), 1);
        assert_eq!(d.tail.len(), 5);
        // A sealed entry: map key and segment entry still share the Arc.
        let entry_key = Arc::clone(&d.sealed[0].entries[7].key);
        let (map_key, &id) = d
            .sealed_ids
            .get_key_value("http://x/7")
            .expect("sealed key");
        assert!(Arc::ptr_eq(&entry_key, map_key));
        assert_eq!(id, 7);
        assert_eq!(d.get_key("http://x/7"), Some(7));
        // A tail entry after the seal.
        let last = (Dictionary::SEGMENT_LEN + 4) as u32;
        assert_eq!(d.get_key(&format!("http://x/{last}")), Some(last));
        assert_eq!(d.key(last), format!("http://x/{last}"));
    }

    #[test]
    fn clone_shares_sealed_segments() {
        let mut d = Dictionary::new();
        for i in 0..3 * Dictionary::SEGMENT_LEN {
            d.intern(&Term::iri(format!("http://x/{i}")));
        }
        let c = d.clone();
        let a: Vec<usize> = d.sealed_segment_ptrs().collect();
        let b: Vec<usize> = c.sealed_segment_ptrs().collect();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&d.sealed_ids, &c.sealed_ids));
    }

    #[test]
    fn heap_bytes_tracks_string_growth() {
        let mut d = Dictionary::new();
        let empty = d.heap_bytes();
        d.intern(&Term::iri("http://example.org/a-reasonably-long-iri"));
        assert!(d.heap_bytes() > empty);
    }

    #[test]
    fn heap_bytes_exact_under_segment_sharing() {
        let mut d = Dictionary::new();
        for i in 0..2 * Dictionary::SEGMENT_LEN + 3 {
            d.intern(&Term::iri(format!("http://x/{i:06}")));
        }
        let h = d.heap_bytes();
        // A clone shares every sealed segment and the frozen map, yet
        // reports the same exact footprint: shared segments are counted
        // once per dictionary, not zero (shared ≠ free) and not twice.
        let c = d.clone();
        assert_eq!(c.heap_bytes(), h);
        // Interning one key grows the clone by roughly one entry — far
        // less than a sealed segment's table — proving the sealed
        // portion is not re-counted (or re-copied) per intern.
        let mut c2 = c.clone();
        c2.intern(&Term::iri("http://x/one-more"));
        let grown = c2.heap_bytes();
        assert!(grown > h);
        assert!(grown - h < Dictionary::SEGMENT_LEN * std::mem::size_of::<Entry>());
    }
}
