//! The in-memory knowledge base: dictionary-encoded triples over one
//! frozen store.
//!
//! The paper stores KBs as HDT and retrieves bindings for atom `p(X, Y)`
//! through Jena (§3.5.1). Our substrate offers the same primitive — binding
//! retrieval for a predicate given the subject or the object — behind the
//! [`TripleStore`] abstraction. [`CsrStore`] is the one frozen store: it
//! answers lookups as slice views over compressed sparse rows, whether the
//! KB was built in memory or decoded from an `RKB2` file. Statistics
//! (frequencies, prominence rankings) live on [`KnowledgeBase`] itself.

use crate::backend::{Bindings, PredView, StoreBackend, StoreMemory, TripleStore};
use crate::dict::Dictionary;
use crate::error::{KbError, Result};
use crate::freq::FreqVec;
use crate::fx::FxHashMap;
use crate::ids::{NodeId, PredId, Triple};
use crate::term::{Term, TermKind};

/// The IRI used for `rdf:type` assertions.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// The IRI used for human-readable labels.
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
/// Suffix appended to a predicate IRI to name its materialised inverse.
pub const INVERSE_SUFFIX: &str = "⁻¹";

/// A one-directional CSR adjacency: sorted unique keys, offsets, values.
/// Crate-visible because the delta overlay reuses it for its sorted runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Csr {
    keys: Vec<u32>,
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    /// Builds from `(key, value)` pairs sorted by `(key, value)` with no
    /// duplicates.
    pub(crate) fn from_sorted_pairs(pairs: &[(u32, u32)]) -> Csr {
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        let mut values = Vec::with_capacity(pairs.len());
        let mut current: Option<u32> = None;
        for &(k, v) in pairs {
            if current != Some(k) {
                keys.push(k);
                offsets.push(values.len() as u32);
                current = Some(k);
            }
            values.push(v);
            *offsets.last_mut().expect("offsets is never empty") = values.len() as u32;
        }
        // offsets currently holds [0, end_0, end_1, ...]; already correct:
        // group i spans offsets[i]..offsets[i+1].
        Csr {
            keys,
            offsets,
            values,
        }
    }

    /// Wraps arrays that already hold the CSR shape: `keys` strictly
    /// increasing, `offsets` one longer than `keys`, starting at 0, and
    /// ending at `values.len()` (the `RKB2` decoder checks all of this).
    pub(crate) fn from_parts(keys: Vec<u32>, offsets: Vec<u32>, values: Vec<u32>) -> Csr {
        debug_assert_eq!(offsets.len(), keys.len() + 1);
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(values.len()));
        Csr {
            keys,
            offsets,
            values,
        }
    }

    #[inline]
    pub(crate) fn get(&self, key: u32) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(i) => self.group(i),
            Err(_) => &[],
        }
    }

    #[inline]
    pub(crate) fn group(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.values[lo..hi]
    }

    #[inline]
    pub(crate) fn group_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The sorted distinct keys.
    #[inline]
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Number of distinct keys.
    #[inline]
    pub(crate) fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Number of values across all groups.
    pub(crate) fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Resident bytes of the three arrays.
    pub(crate) fn size_in_bytes(&self) -> usize {
        (self.keys.len() + self.offsets.len() + self.values.len()) * 4
    }
}

/// Per-predicate index: bindings by subject and by object.
#[derive(Debug, Clone, Default)]
struct PredIndex {
    by_subject: Csr,
    by_object: Csr,
    facts: u32,
}

/// The one frozen store: per-predicate CSR adjacency in both directions
/// plus a subject→predicates CSR.
#[derive(Debug, Clone, Default)]
pub struct CsrStore {
    indexes: Vec<PredIndex>,
    /// node → sorted predicates (incl. inverses) having the node as subject.
    subject_preds: Csr,
}

impl CsrStore {
    /// Builds from per-predicate `(s, o)` pair lists, each sorted by
    /// `(s, o)` and deduplicated.
    pub(crate) fn from_pred_pairs(per_pred: Vec<Vec<(u32, u32)>>) -> CsrStore {
        let mut indexes = Vec::with_capacity(per_pred.len());
        for pairs in per_pred {
            let by_subject = Csr::from_sorted_pairs(&pairs);
            let mut flipped: Vec<(u32, u32)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
            flipped.sort_unstable();
            let by_object = Csr::from_sorted_pairs(&flipped);
            indexes.push(PredIndex {
                by_subject,
                by_object,
                facts: pairs.len() as u32,
            });
        }
        let subject_preds = Self::subject_preds_of(&indexes);
        CsrStore {
            indexes,
            subject_preds,
        }
    }

    /// Assembles a store from per-predicate `(by_subject, by_object)`
    /// adjacencies that describe the same facts, and the matching
    /// subject→predicates adjacency (the `RKB2` decoder's output).
    pub(crate) fn from_parts(per_pred: Vec<(Csr, Csr)>, subject_preds: Csr) -> CsrStore {
        let indexes = per_pred
            .into_iter()
            .map(|(by_subject, by_object)| PredIndex {
                facts: by_subject.num_values() as u32,
                by_subject,
                by_object,
            })
            .collect();
        CsrStore {
            indexes,
            subject_preds,
        }
    }

    fn subject_preds_of(indexes: &[PredIndex]) -> Csr {
        let mut sp_pairs: Vec<(u32, u32)> = Vec::new();
        for (p, idx) in indexes.iter().enumerate() {
            for &s in &idx.by_subject.keys {
                sp_pairs.push((s, p as u32));
            }
        }
        sp_pairs.sort_unstable();
        sp_pairs.dedup();
        Csr::from_sorted_pairs(&sp_pairs)
    }

    /// Rebuilds a CSR store from any store (compaction folds a layered
    /// store this way).
    pub(crate) fn from_store(src: &StoreBackend) -> CsrStore {
        let num_preds = src.num_preds();
        let mut per_pred = Vec::with_capacity(num_preds);
        for p in (0..num_preds as u32).map(PredId) {
            let mut pairs = Vec::with_capacity(src.num_facts(p));
            for i in 0..src.num_subjects(p) {
                let s = src.subject_at(p, i).0;
                for o in src.objects_at(p, i) {
                    pairs.push((s, o));
                }
            }
            per_pred.push(pairs);
        }
        CsrStore::from_pred_pairs(per_pred)
    }
}

impl TripleStore for CsrStore {
    fn num_preds(&self) -> usize {
        self.indexes.len()
    }

    #[inline]
    fn num_facts(&self, p: PredId) -> usize {
        self.indexes[p.idx()].facts as usize
    }

    #[inline]
    fn num_subjects(&self, p: PredId) -> usize {
        self.indexes[p.idx()].by_subject.keys.len()
    }

    #[inline]
    fn num_objects(&self, p: PredId) -> usize {
        self.indexes[p.idx()].by_object.keys.len()
    }

    #[inline]
    fn objects(&self, p: PredId, s: NodeId) -> Bindings<'_> {
        Bindings::Slice(self.indexes[p.idx()].by_subject.get(s.0))
    }

    #[inline]
    fn subjects(&self, p: PredId, o: NodeId) -> Bindings<'_> {
        Bindings::Slice(self.indexes[p.idx()].by_object.get(o.0))
    }

    #[inline]
    fn subject_at(&self, p: PredId, i: usize) -> NodeId {
        NodeId(self.indexes[p.idx()].by_subject.keys[i])
    }

    #[inline]
    fn objects_at(&self, p: PredId, i: usize) -> Bindings<'_> {
        Bindings::Slice(self.indexes[p.idx()].by_subject.group(i))
    }

    #[inline]
    fn object_at(&self, p: PredId, i: usize) -> NodeId {
        NodeId(self.indexes[p.idx()].by_object.keys[i])
    }

    #[inline]
    fn subjects_at(&self, p: PredId, i: usize) -> Bindings<'_> {
        Bindings::Slice(self.indexes[p.idx()].by_object.group(i))
    }

    #[inline]
    fn object_group_len(&self, p: PredId, i: usize) -> usize {
        self.indexes[p.idx()].by_object.group_len(i)
    }

    #[inline]
    fn preds_of_subject(&self, s: NodeId) -> Bindings<'_> {
        Bindings::Slice(self.subject_preds.get(s.0))
    }

    fn memory(&self) -> StoreMemory {
        let mut m = StoreMemory::default();
        let by_subject: usize = self
            .indexes
            .iter()
            .map(|i| i.by_subject.size_in_bytes())
            .sum();
        let by_object: usize = self
            .indexes
            .iter()
            .map(|i| i.by_object.size_in_bytes())
            .sum();
        m.add("csr.by_subject", by_subject);
        m.add("csr.by_object", by_object);
        m.add("csr.subject_preds", self.subject_preds.size_in_bytes());
        m
    }
}

/// A fully built, immutable knowledge base.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    nodes: Dictionary,
    preds: Dictionary,
    store: StoreBackend,
    /// Facts mentioning the node (as s or o) in *base* (non-inverse) facts.
    /// Segmented ([`FreqVec`]) so epoch snapshots share counter segments.
    node_freq: FreqVec,
    /// Facts per predicate.
    pred_freq: Vec<u32>,
    /// base predicate → its materialised inverse, if any.
    inverse_of: Vec<Option<PredId>>,
    /// inverse predicate → its base predicate.
    base_of: Vec<Option<PredId>>,
    type_pred: Option<PredId>,
    label_pred: Option<PredId>,
    n_base_triples: usize,
    n_total_triples: usize,
}

/// Derives `(inverse_of, base_of)` links from predicate IRIs: `p⁻¹` is the
/// inverse of `p` whenever both are interned.
pub(crate) fn derive_inverse_links(
    preds: &Dictionary,
) -> (Vec<Option<PredId>>, Vec<Option<PredId>>) {
    let num_preds = preds.len();
    let mut inverse_of: Vec<Option<PredId>> = vec![None; num_preds];
    let mut base_of: Vec<Option<PredId>> = vec![None; num_preds];
    for p in 0..num_preds as u32 {
        if let Some(base_iri) = preds.key(p).strip_suffix(INVERSE_SUFFIX) {
            if let Some(b) = preds.get_key(base_iri) {
                inverse_of[b as usize] = Some(PredId(p));
                base_of[p as usize] = Some(PredId(b));
            }
        }
    }
    (inverse_of, base_of)
}

impl KnowledgeBase {
    /// Assembles a KB from already-built parts (the `RKB2` loader).
    pub(crate) fn from_parts(
        nodes: Dictionary,
        preds: Dictionary,
        store: StoreBackend,
        node_freq: FreqVec,
        n_base_triples: usize,
    ) -> KnowledgeBase {
        let (inverse_of, base_of) = derive_inverse_links(&preds);
        let pred_freq: Vec<u32> = (0..preds.len() as u32)
            .map(|p| store.num_facts(PredId(p)) as u32)
            .collect();
        let n_total = pred_freq.iter().map(|&f| f as usize).sum();
        let type_pred = preds.get_key(RDF_TYPE).map(PredId);
        let label_pred = preds.get_key(RDFS_LABEL).map(PredId);
        KnowledgeBase {
            nodes,
            preds,
            store,
            node_freq,
            pred_freq,
            inverse_of,
            base_of,
            type_pred,
            label_pred,
            n_base_triples,
            n_total_triples: n_total,
        }
    }

    /// Decomposes the KB into the parts the live delta wrapper needs to
    /// take ownership of (the inverse of [`KnowledgeBase::from_parts`]).
    pub(crate) fn into_parts(self) -> (Dictionary, Dictionary, StoreBackend, FreqVec, usize) {
        (
            self.nodes,
            self.preds,
            self.store,
            self.node_freq,
            self.n_base_triples,
        )
    }

    /// Number of node terms in the dictionary.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of predicates (including materialised inverses).
    pub fn num_preds(&self) -> usize {
        self.preds.len()
    }

    /// Number of base (non-inverse) triples.
    pub fn num_triples(&self) -> usize {
        self.n_base_triples
    }

    /// Number of triples including materialised inverse facts.
    pub fn num_triples_with_inverses(&self) -> usize {
        self.n_total_triples
    }

    /// The node dictionary.
    pub fn node_dict(&self) -> &Dictionary {
        &self.nodes
    }

    /// The predicate dictionary.
    pub fn pred_dict(&self) -> &Dictionary {
        &self.preds
    }

    /// The raw store (for store-aware tooling like the binary writer).
    pub fn store(&self) -> &StoreBackend {
        &self.store
    }

    /// Per-component resident memory of the triple store (dictionaries
    /// excluded; see [`Dictionary::heap_bytes`] for those).
    pub fn store_memory(&self) -> StoreMemory {
        self.store.memory()
    }

    /// Id of a node term, if present.
    pub fn node_id(&self, t: &Term) -> Option<NodeId> {
        self.nodes.get(t).map(NodeId)
    }

    /// Id of a node given its IRI string.
    pub fn node_id_by_iri(&self, iri: &str) -> Option<NodeId> {
        self.nodes.get_key(iri).map(NodeId)
    }

    /// Id of a predicate given its IRI.
    pub fn pred_id(&self, iri: &str) -> Option<PredId> {
        self.preds.get_key(iri).map(PredId)
    }

    /// Materialises the [`Term`] for a node id.
    pub fn node_term(&self, n: NodeId) -> Term {
        self.nodes.term(n.0)
    }

    /// The canonical key of a node id.
    pub fn node_key(&self, n: NodeId) -> &str {
        self.nodes.key(n.0)
    }

    /// The [`TermKind`] of a node id.
    pub fn node_kind(&self, n: NodeId) -> TermKind {
        self.nodes.kind(n.0)
    }

    /// The IRI of a predicate id.
    pub fn pred_iri(&self, p: PredId) -> &str {
        self.preds.key(p.0)
    }

    /// A short human-readable predicate name (IRI local part, with the
    /// inverse marker preserved).
    pub fn pred_name(&self, p: PredId) -> String {
        let iri = self.pred_iri(p);
        let base = iri.strip_suffix(INVERSE_SUFFIX);
        let (core, inv) = match base {
            Some(b) => (b, true),
            None => (iri, false),
        };
        let cut = core.rfind(['/', '#', ':']).map(|i| i + 1).unwrap_or(0);
        let mut out = core[cut..].to_string();
        if inv {
            out.push_str(INVERSE_SUFFIX);
        }
        out
    }

    /// A short human-readable node name: its `rdfs:label` if present,
    /// otherwise the IRI local name / lexical form.
    pub fn node_name(&self, n: NodeId) -> String {
        if let Some(l) = self.label(n) {
            return l;
        }
        self.node_term(n).short_name().to_string()
    }

    /// The `rdfs:label` of a node, if the KB has one.
    pub fn label(&self, n: NodeId) -> Option<String> {
        let lp = self.label_pred?;
        let objs = self.index(lp).objects_of(n);
        objs.first().map(|o| match self.nodes.term(o) {
            Term::Literal { lexical, .. } => lexical,
            other => other.short_name().to_string(),
        })
    }

    /// A backend-agnostic view of predicate `p`'s index.
    // Not `std::ops::Index`: that trait cannot return a non-reference or
    // take our id type ergonomically, and `kb.index(p)` is established API.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn index(&self, p: PredId) -> PredView<'_> {
        PredView::new(&self.store, p)
    }

    /// Bindings of `y` in `p(s, y)`, sorted by id.
    #[inline]
    pub fn objects(&self, p: PredId, s: NodeId) -> Bindings<'_> {
        self.store.objects(p, s)
    }

    /// Bindings of `x` in `p(x, o)`, sorted by id.
    #[inline]
    pub fn subjects(&self, p: PredId, o: NodeId) -> Bindings<'_> {
        self.store.subjects(p, o)
    }

    /// Tests whether `p(s, o)` is a fact.
    #[inline]
    pub fn contains(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        self.store.contains(s, p, o)
    }

    /// Predicates (including inverses) with `s` as subject, sorted.
    #[inline]
    pub fn preds_of_subject(&self, s: NodeId) -> Bindings<'_> {
        self.store.preds_of_subject(s)
    }

    /// Frequency of a node (mentions in base facts) — the `fr` prominence.
    #[inline]
    pub fn node_frequency(&self, n: NodeId) -> u32 {
        self.node_freq.get(n.idx())
    }

    /// Frequency of a predicate (its number of facts).
    #[inline]
    pub fn pred_frequency(&self, p: PredId) -> u32 {
        self.pred_freq[p.idx()]
    }

    /// The materialised inverse of `p`, if any.
    pub fn inverse(&self, p: PredId) -> Option<PredId> {
        self.inverse_of[p.idx()]
    }

    /// The base predicate if `p` is a materialised inverse.
    pub fn base_pred(&self, p: PredId) -> Option<PredId> {
        self.base_of[p.idx()]
    }

    /// True if `p` is a materialised inverse predicate.
    pub fn is_inverse(&self, p: PredId) -> bool {
        self.base_of[p.idx()].is_some()
    }

    /// The `rdf:type` predicate of this KB, if present.
    pub fn type_pred(&self) -> Option<PredId> {
        self.type_pred
    }

    /// The `rdfs:label` predicate of this KB, if present.
    pub fn label_pred(&self) -> Option<PredId> {
        self.label_pred
    }

    /// All predicate ids.
    pub fn pred_ids(&self) -> impl Iterator<Item = PredId> {
        (0..self.preds.len() as u32).map(PredId)
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All entity (IRI) node ids.
    pub fn entity_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&n| self.node_kind(n) == TermKind::Iri)
    }

    /// Iterates all base (non-inverse) triples.
    pub fn iter_triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.pred_ids()
            .filter(move |&p| !self.is_inverse(p))
            .flat_map(move |p| {
                self.index(p).iter_subjects().flat_map(move |(s, objs)| {
                    objs.iter().map(move |o| Triple::new(s, p, NodeId(o)))
                })
            })
    }

    /// Entities in the top `fraction` of the `fr` ranking (used by the
    /// §3.5.2 "don't expand prominent objects" heuristic and the §4
    /// inverse-materialisation rule). Returns ids sorted by descending
    /// frequency; ties broken by id for determinism.
    pub fn top_frequent_entities(&self, fraction: f64) -> Vec<NodeId> {
        let mut ents: Vec<NodeId> = self
            .entity_ids()
            .filter(|&n| self.node_frequency(n) > 0)
            .collect();
        ents.sort_by_key(|&n| (std::cmp::Reverse(self.node_frequency(n)), n.0));
        let k = ((ents.len() as f64) * fraction).ceil() as usize;
        ents.truncate(k.min(ents.len()));
        ents
    }

    /// Instances of a class: bindings of `x` in `rdf:type(x, class)`.
    pub fn instances_of(&self, class: NodeId) -> Bindings<'_> {
        match self.type_pred {
            Some(tp) => self.subjects(tp, class),
            None => Bindings::EMPTY,
        }
    }
}

/// Incremental builder for a [`KnowledgeBase`].
#[derive(Debug, Default, Clone)]
pub struct KbBuilder {
    nodes: Dictionary,
    preds: Dictionary,
    triples: Vec<Triple>,
}

impl KbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes internal tables.
    pub fn with_capacity(nodes: usize, preds: usize, triples: usize) -> Self {
        KbBuilder {
            nodes: Dictionary::with_capacity(nodes),
            preds: Dictionary::with_capacity(preds),
            triples: Vec::with_capacity(triples),
        }
    }

    /// Interns a node term.
    pub fn node(&mut self, t: &Term) -> NodeId {
        NodeId(self.nodes.intern(t))
    }

    /// Interns an entity node by IRI.
    pub fn entity(&mut self, iri: &str) -> NodeId {
        NodeId(self.nodes.intern_key(iri, TermKind::Iri))
    }

    /// Interns a predicate by IRI.
    pub fn pred(&mut self, iri: &str) -> PredId {
        PredId(self.preds.intern_key(iri, TermKind::Iri))
    }

    /// Adds a triple from materialised terms.
    pub fn add(&mut self, s: &Term, p: &str, o: &Term) {
        let s = self.node(s);
        let p = self.pred(p);
        let o = self.node(o);
        self.add_ids(s, p, o);
    }

    /// Adds an entity-to-entity triple by IRI strings.
    pub fn add_iri(&mut self, s: &str, p: &str, o: &str) {
        let s = self.entity(s);
        let p = self.pred(p);
        let o = self.entity(o);
        self.add_ids(s, p, o);
    }

    /// Adds a triple from ids previously interned on this builder.
    #[inline]
    pub fn add_ids(&mut self, s: NodeId, p: PredId, o: NodeId) {
        self.triples.push(Triple::new(s, p, o));
    }

    /// Number of (possibly duplicate) triples staged so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if no triples are staged.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Builds the KB without inverse materialisation.
    pub fn build(self) -> Result<KnowledgeBase> {
        self.build_with_inverses(0.0)
    }

    /// Builds the KB, materialising inverse predicates `p⁻¹(o, s)` for all
    /// objects `o` among the top `fraction` most frequent entities —
    /// exactly the preprocessing of §4 (the paper uses the top 1 %).
    ///
    /// Inverse facts are only created for non-literal objects, matching the
    /// RDF-compliance footnote of §2.1.
    pub fn build_with_inverses(mut self, fraction: f64) -> Result<KnowledgeBase> {
        if self.triples.is_empty() {
            return Err(KbError::Empty);
        }
        self.triples.sort_unstable();
        self.triples.dedup();
        let n_base = self.triples.len();

        let num_nodes = self.nodes.len();
        // Base node frequencies (before inverses, which would double-count).
        let mut node_freq = vec![0u32; num_nodes];
        for t in &self.triples {
            node_freq[t.s.idx()] += 1;
            node_freq[t.o.idx()] += 1;
        }

        let n_inverse_base = self.preds.len();
        if fraction > 0.0 {
            // Rank entities by frequency to find the inverse-eligible set.
            let mut ents: Vec<u32> = (0..num_nodes as u32)
                .filter(|&n| self.nodes.kind(n) == TermKind::Iri && node_freq[n as usize] > 0)
                .collect();
            ents.sort_by_key(|&n| (std::cmp::Reverse(node_freq[n as usize]), n));
            let k = ((ents.len() as f64) * fraction).ceil() as usize;
            let top: crate::fx::FxHashSet<u32> = ents.into_iter().take(k).collect();

            let mut inverse_ids: FxHashMap<u32, u32> = FxHashMap::default();
            let mut extra: Vec<Triple> = Vec::new();
            for t in &self.triples {
                if t.p.0 >= n_inverse_base as u32 {
                    continue; // never invert an inverse
                }
                if self.nodes.kind(t.o.0) == TermKind::Literal {
                    continue;
                }
                if !top.contains(&t.o.0) {
                    continue;
                }
                let inv = match inverse_ids.get(&t.p.0) {
                    Some(&id) => id,
                    None => {
                        let iri = format!("{}{}", self.preds.key(t.p.0), INVERSE_SUFFIX);
                        let id = self.preds.intern_key(&iri, TermKind::Iri);
                        inverse_ids.insert(t.p.0, id);
                        id
                    }
                };
                extra.push(Triple::new(t.o, PredId(inv), t.s));
            }
            self.triples.extend(extra);
            self.triples.sort_unstable();
            self.triples.dedup();
        }

        let num_preds = self.preds.len();
        let (inverse_of, base_of) = derive_inverse_links(&self.preds);

        // Group triples by predicate and build the CSR store.
        let mut per_pred: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_preds];
        for t in &self.triples {
            per_pred[t.p.idx()].push((t.s.0, t.o.0));
        }
        let mut pred_freq = vec![0u32; num_preds];
        for (p, pairs) in per_pred.iter_mut().enumerate() {
            pred_freq[p] = pairs.len() as u32;
            pairs.sort_unstable();
        }
        let store = StoreBackend::Csr(CsrStore::from_pred_pairs(per_pred));

        let type_pred = self.preds.get_key(RDF_TYPE).map(PredId);
        let label_pred = self.preds.get_key(RDFS_LABEL).map(PredId);
        let n_total = self.triples.len();

        Ok(KnowledgeBase {
            nodes: self.nodes,
            preds: self.preds,
            store,
            node_freq: FreqVec::from_vec(node_freq),
            pred_freq,
            inverse_of,
            base_of,
            type_pred,
            label_pred,
            n_base_triples: n_base,
            n_total_triples: n_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:cityIn", "e:France");
        b.add_iri("e:Lyon", "p:cityIn", "e:France");
        b.add_iri("e:Berlin", "p:capitalOf", "e:Germany");
        b.add_iri("e:Berlin", "p:cityIn", "e:Germany");
        b.add(
            &Term::iri("e:Paris"),
            RDFS_LABEL,
            &Term::lang_literal("Paris", "fr"),
        );
        b.add_iri("e:Paris", RDF_TYPE, "e:City");
        b.add_iri("e:Lyon", RDF_TYPE, "e:City");
        b.add_iri("e:Berlin", RDF_TYPE, "e:City");
        b.build().unwrap()
    }

    #[test]
    fn empty_builder_is_rejected() {
        assert!(matches!(KbBuilder::new().build(), Err(KbError::Empty)));
    }

    #[test]
    fn duplicates_are_removed() {
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:r", "e:b");
        b.add_iri("e:a", "p:r", "e:b");
        let kb = b.build().unwrap();
        assert_eq!(kb.num_triples(), 1);
    }

    #[test]
    fn bindings_by_subject_and_object() {
        let kb = small_kb();
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let lyon = kb.node_id_by_iri("e:Lyon").unwrap();

        let mut subs: Vec<u32> = kb.subjects(city_in, france).to_vec();
        subs.sort_unstable();
        let mut expect = vec![paris.0, lyon.0];
        expect.sort_unstable();
        assert_eq!(subs, expect);

        assert_eq!(kb.objects(city_in, paris).to_vec(), vec![france.0]);
        assert!(kb.contains(paris, city_in, france));
        assert!(!kb.contains(france, city_in, paris));
    }

    #[test]
    fn preds_of_subject_lists_all() {
        let kb = small_kb();
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let preds: Vec<String> = kb
            .preds_of_subject(paris)
            .iter()
            .map(|p| kb.pred_iri(PredId(p)).to_string())
            .collect();
        assert!(preds.contains(&"p:capitalOf".to_string()));
        assert!(preds.contains(&"p:cityIn".to_string()));
        assert!(preds.contains(&RDF_TYPE.to_string()));
    }

    #[test]
    fn frequencies_count_base_facts() {
        let kb = small_kb();
        let france = kb.node_id_by_iri("e:France").unwrap();
        // France appears as object of capitalOf once and cityIn twice.
        assert_eq!(kb.node_frequency(france), 3);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        assert_eq!(kb.pred_frequency(city_in), 3);
    }

    #[test]
    fn type_and_label_detection() {
        let kb = small_kb();
        assert!(kb.type_pred().is_some());
        assert!(kb.label_pred().is_some());
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        assert_eq!(kb.label(paris).as_deref(), Some("Paris"));
        let city = kb.node_id_by_iri("e:City").unwrap();
        assert_eq!(kb.instances_of(city).len(), 3);
    }

    #[test]
    fn inverse_materialisation_creates_inverse_facts() {
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Lyon", "p:cityIn", "e:France");
        b.add_iri("e:Nice", "p:cityIn", "e:France");
        b.add_iri("e:x", "p:cityIn", "e:y");
        // France is clearly the most frequent entity; top-30% captures it.
        let kb = b.build_with_inverses(0.3).unwrap();
        let inv = kb.pred_id(&format!("p:cityIn{INVERSE_SUFFIX}"));
        assert!(inv.is_some());
        let inv = inv.unwrap();
        assert!(kb.is_inverse(inv));
        let base = kb.pred_id("p:cityIn").unwrap();
        assert_eq!(kb.base_pred(inv), Some(base));
        assert_eq!(kb.inverse(base), Some(inv));

        let france = kb.node_id_by_iri("e:France").unwrap();
        let lyon = kb.node_id_by_iri("e:Lyon").unwrap();
        assert!(kb.contains(france, inv, lyon));
        // Base triple count unchanged by materialisation.
        assert_eq!(kb.num_triples(), 4);
        assert!(kb.num_triples_with_inverses() > kb.num_triples());
    }

    #[test]
    fn inverses_skip_literals() {
        let mut b = KbBuilder::new();
        let lit = Term::literal("42");
        b.add(&Term::iri("e:a"), "p:age", &lit);
        b.add(&Term::iri("e:b"), "p:age", &lit);
        b.add(&Term::iri("e:c"), "p:age", &lit);
        let kb = b.build_with_inverses(1.0).unwrap();
        assert!(kb.pred_id(&format!("p:age{INVERSE_SUFFIX}")).is_none());
    }

    #[test]
    fn top_frequent_entities_ordering() {
        let kb = small_kb();
        let top = kb.top_frequent_entities(1.0);
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        let lyon = kb.node_id_by_iri("e:Lyon").unwrap();
        // Paris occurs in 4 base facts, France in 3, Lyon in 2.
        let pos = |n: NodeId| top.iter().position(|&x| x == n).unwrap();
        assert!(pos(paris) < pos(france));
        assert!(pos(france) < pos(lyon));
        // Fraction 0 yields nothing... actually ceil(0 * n) = 0.
        assert!(kb.top_frequent_entities(0.0).is_empty());
    }

    #[test]
    fn iter_triples_excludes_inverses() {
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:r", "e:hub");
        b.add_iri("e:b", "p:r", "e:hub");
        b.add_iri("e:c", "p:r", "e:hub");
        let kb = b.build_with_inverses(0.5).unwrap();
        let triples: Vec<Triple> = kb.iter_triples().collect();
        assert_eq!(triples.len(), kb.num_triples());
        for t in triples {
            assert!(!kb.is_inverse(t.p));
        }
    }

    #[test]
    fn pred_name_keeps_inverse_marker() {
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "http://x/ontology/cityIn", "e:hub");
        b.add_iri("e:b", "http://x/ontology/cityIn", "e:hub");
        let kb = b.build_with_inverses(1.0).unwrap();
        let base = kb.pred_id("http://x/ontology/cityIn").unwrap();
        assert_eq!(kb.pred_name(base), "cityIn");
        let inv = kb.inverse(base).unwrap();
        assert_eq!(kb.pred_name(inv), format!("cityIn{INVERSE_SUFFIX}"));
    }

    #[test]
    fn csr_handles_missing_keys() {
        let kb = small_kb();
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let city = kb.node_id_by_iri("e:City").unwrap();
        assert!(kb.objects(city_in, city).is_empty());
        assert!(kb.subjects(city_in, city).is_empty());
    }

    #[test]
    fn object_frequencies() {
        let kb = small_kb();
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        let idx = kb.index(city_in);
        assert_eq!(idx.object_frequency(france), 2);
        assert_eq!(idx.num_facts(), 3);
        assert_eq!(idx.num_objects(), 2);
        let total: usize = idx.iter_object_frequencies().map(|(_, c)| c).sum();
        assert_eq!(total, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random fact lists: subjects/objects in 0..n, predicates in 0..p.
    fn arb_facts() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
        proptest::collection::vec((any::<u8>(), 0u8..6, any::<u8>()), 1..120)
    }

    fn build(facts: &[(u8, u8, u8)]) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for &(s, p, o) in facts {
            b.add_iri(&format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
        }
        b.build().expect("non-empty")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `objects(p, s)` and `subjects(p, o)` are exact inverses.
        #[test]
        fn prop_csr_directions_agree(facts in arb_facts()) {
            let kb = build(&facts);
            for p in kb.pred_ids() {
                let idx = kb.index(p);
                let mut forward = 0usize;
                for (s, objs) in idx.iter_subjects() {
                    forward += objs.len();
                    for o in objs {
                        prop_assert!(
                            idx.subjects_of(NodeId(o)).contains_sorted(s.0),
                            "missing reverse edge {s:?} -{p:?}-> {o}"
                        );
                    }
                }
                // Totals agree in both directions and with the fact count.
                let backward: usize =
                    idx.iter_object_frequencies().map(|(_, c)| c).sum();
                prop_assert_eq!(forward, backward);
                prop_assert_eq!(forward, idx.num_facts());
            }
        }

        /// Node frequencies equal mentions in the (deduplicated) facts.
        #[test]
        fn prop_node_frequencies_match_mentions(facts in arb_facts()) {
            let kb = build(&facts);
            // Recount from the store's own triples (post-dedup).
            let mut counts = vec![0u32; kb.num_nodes()];
            for t in kb.iter_triples() {
                counts[t.s.idx()] += 1;
                counts[t.o.idx()] += 1;
            }
            for n in kb.node_ids() {
                prop_assert_eq!(kb.node_frequency(n), counts[n.idx()]);
            }
            // Predicate frequencies sum to the triple count.
            let total: u32 = kb
                .pred_ids()
                .map(|p| kb.pred_frequency(p))
                .sum();
            prop_assert_eq!(total as usize, kb.num_triples());
        }

        /// `contains` agrees with membership in the CSR listings.
        #[test]
        fn prop_contains_is_consistent(facts in arb_facts()) {
            let kb = build(&facts);
            for &(s, p, o) in facts.iter().take(30) {
                let s = kb.node_id_by_iri(&format!("e:n{s}")).unwrap();
                let p = kb.pred_id(&format!("p:r{p}")).unwrap();
                let o = kb.node_id_by_iri(&format!("e:n{o}")).unwrap();
                prop_assert!(kb.contains(s, p, o));
                prop_assert!(kb.objects(p, s).contains_sorted(o.0));
                prop_assert!(kb.preds_of_subject(s).contains_sorted(p.0));
            }
        }

        /// Binary round trip is the identity on the triple multiset.
        #[test]
        fn prop_binfmt_roundtrip(facts in arb_facts()) {
            let kb = build(&facts);
            let bytes = crate::binfmt::write_bytes(&kb);
            let kb2 = crate::binfmt::read_bytes(&bytes, 0.0).unwrap();
            prop_assert_eq!(kb.num_triples(), kb2.num_triples());
            for t in kb.iter_triples() {
                let s = kb2.node_id_by_iri(kb.node_key(t.s)).unwrap();
                let p = kb2.pred_id(kb.pred_iri(t.p)).unwrap();
                let o = kb2.node_id_by_iri(kb.node_key(t.o)).unwrap();
                prop_assert!(kb2.contains(s, p, o));
            }
        }

        /// The store an `RKB2` file decodes into answers every primitive
        /// identically to the built store it was written from.
        #[test]
        fn prop_rkb2_decode_agrees_on_primitives(facts in arb_facts()) {
            let kb = build(&facts);
            let bytes = crate::binfmt::write_bytes(&kb);
            let decoded = crate::binfmt::read_bytes(&bytes, 0.0).unwrap();
            for p in kb.pred_ids() {
                prop_assert_eq!(kb.index(p).num_facts(), decoded.index(p).num_facts());
                prop_assert_eq!(
                    kb.index(p).num_subjects(), decoded.index(p).num_subjects());
                prop_assert_eq!(
                    kb.index(p).num_objects(), decoded.index(p).num_objects());
                for (s, objs) in kb.index(p).iter_subjects() {
                    prop_assert_eq!(objs.to_vec(), decoded.objects(p, s).to_vec());
                }
                for (o, freq) in kb.index(p).iter_object_frequencies() {
                    prop_assert_eq!(freq, decoded.index(p).object_frequency(o));
                    prop_assert_eq!(
                        kb.subjects(p, o).to_vec(), decoded.subjects(p, o).to_vec());
                }
            }
            for n in kb.node_ids() {
                prop_assert_eq!(
                    kb.preds_of_subject(n).to_vec(),
                    decoded.preds_of_subject(n).to_vec()
                );
            }
            // Spot-check membership on the raw facts.
            for &(s, p, o) in facts.iter().take(20) {
                let s = kb.node_id_by_iri(&format!("e:n{s}")).unwrap();
                let p = kb.pred_id(&format!("p:r{p}")).unwrap();
                let o = kb.node_id_by_iri(&format!("e:n{o}")).unwrap();
                prop_assert!(decoded.contains(s, p, o));
            }
        }

        /// Inverse materialisation adds exactly the reversed facts for
        /// qualifying objects, and `p⁻¹(o, s) ⟺ p(s, o)` for them.
        #[test]
        fn prop_inverse_facts_mirror_base(facts in arb_facts()) {
            let mut b = KbBuilder::new();
            for &(s, p, o) in &facts {
                b.add_iri(
                    &format!("e:n{s}"),
                    &format!("p:r{p}"),
                    &format!("e:n{o}"),
                );
            }
            let kb = b.build_with_inverses(0.2).unwrap();
            for p in kb.pred_ids() {
                let Some(base) = kb.base_pred(p) else { continue };
                for (o, subs) in kb.index(p).iter_subjects() {
                    for s in subs {
                        prop_assert!(
                            kb.contains(NodeId(s), base, o),
                            "inverse fact without base fact"
                        );
                    }
                }
            }
        }
    }
}
