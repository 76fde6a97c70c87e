//! The storage backends behind the [`TripleStore`] trait.
//!
//! Every layer above `remi-kb` retrieves atom bindings through the same
//! small set of primitives — `objects(p, s)`, `subjects(p, o)`,
//! `contains`, and per-predicate statistics. Two stores answer them:
//!
//! * [`CsrStore`] — the one frozen store:
//!   per-predicate compressed sparse rows of plain `u32` arrays. It is
//!   built in memory or decoded from an `RKB2` file.
//! * [`LayeredStore`](crate::delta::LayeredStore) — a live delta overlay
//!   merged over a CSR base.
//!
//! [`KnowledgeBase`](crate::store::KnowledgeBase) holds a [`StoreBackend`]
//! enum rather than a trait object so dispatch is a branch-predictable
//! two-way match instead of a vtable call in every inner loop. Binding
//! lists are returned as [`Bindings`] — a slice view, or the merge of a
//! base slice and a delta slice — with O(log) random access either way.

use crate::ids::{NodeId, PredId};
use crate::store::{Csr, CsrStore};

/// The `k`-th (0-indexed) element of the sorted merge of two *disjoint*
/// sorted lists: binary search over how many elements the first `k + 1`
/// take from `b` — O(log min(|a|, |b|)), no materialisation.
fn merged_kth(a: &[u32], b: &[u32], k: usize) -> u32 {
    let (na, nb) = (a.len(), b.len());
    debug_assert!(k < na + nb, "merged index {k} out of {na}+{nb}");
    let mut lo = (k + 1).saturating_sub(na);
    let mut hi = nb.min(k + 1);
    while lo < hi {
        let j = lo + (hi - lo) / 2;
        // Range bounds guarantee j < nb and k - j < na here. Taking only
        // j elements from b is too few exactly when b[j] still precedes
        // the last element taken from a.
        if b[j] < a[k - j] {
            lo = j + 1;
        } else {
            hi = j;
        }
    }
    let j = lo;
    let from_b = if j > 0 { Some(b[j - 1]) } else { None };
    if j <= k {
        let av = a[k - j];
        from_b.map_or(av, |bv| bv.max(av))
    } else {
        from_b.expect("k+1 elements all from b")
    }
}

/// A sorted list of bound ids: a borrowed `u32` slice (CSR), or the
/// disjoint sorted merge of a base slice and a delta slice (the live
/// delta-overlay view). O(1) length and O(log) worst-case random access
/// in both representations.
#[derive(Debug, Clone, Copy)]
pub enum Bindings<'a> {
    /// A plain sorted slice.
    Slice(&'a [u32]),
    /// The sorted merge of a base-store run and a disjoint delta slice
    /// (see [`LayeredStore`](crate::delta::LayeredStore)). Neither side
    /// is empty and no id appears on both sides.
    Merged {
        /// The base-store side.
        base: &'a [u32],
        /// The delta side: a sorted slice disjoint from `base`.
        delta: &'a [u32],
    },
}

impl<'a> Bindings<'a> {
    /// The empty binding list.
    pub const EMPTY: Bindings<'static> = Bindings::Slice(&[]);

    /// Merges a base binding list with a disjoint sorted delta slice,
    /// collapsing to the plain representation when either side is empty.
    #[inline]
    pub fn merged(base: Bindings<'a>, delta: &'a [u32]) -> Bindings<'a> {
        if delta.is_empty() {
            return base;
        }
        match base {
            Bindings::Slice([]) => Bindings::Slice(delta),
            Bindings::Slice(base) => Bindings::Merged { base, delta },
            Bindings::Merged { .. } => {
                unreachable!("layered stores never stack on a layered base")
            }
        }
    }

    /// Number of bindings.
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            Bindings::Slice(s) => s.len(),
            Bindings::Merged { base, delta } => base.len() + delta.len(),
        }
    }

    /// True when no ids are bound.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th binding (ascending order).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match *self {
            Bindings::Slice(s) => s[i],
            Bindings::Merged { base, delta } => merged_kth(base, delta, i),
        }
    }

    /// The first binding, if any.
    #[inline]
    pub fn first(&self) -> Option<u32> {
        if self.is_empty() {
            None
        } else {
            Some(self.get(0))
        }
    }

    /// Binary search in the sorted list.
    #[inline]
    pub fn binary_search(&self, value: u32) -> Result<usize, usize> {
        match *self {
            Bindings::Slice(s) => s.binary_search(&value),
            Bindings::Merged { base, delta } => {
                // The merged index of a value is its rank in one side plus
                // its insertion rank in the other (the sides are disjoint).
                match delta.binary_search(&value) {
                    Ok(d) => {
                        let b = base.binary_search(&value).unwrap_err();
                        Ok(d + b)
                    }
                    Err(d) => match base.binary_search(&value) {
                        Ok(b) => Ok(d + b),
                        Err(b) => Err(d + b),
                    },
                }
            }
        }
    }

    /// Sorted membership test.
    #[inline]
    pub fn contains_sorted(&self, value: u32) -> bool {
        self.binary_search(value).is_ok()
    }

    /// Materialises the list.
    pub fn to_vec(&self) -> Vec<u32> {
        match *self {
            Bindings::Slice(s) => s.to_vec(),
            Bindings::Merged { .. } => self.iter().collect(),
        }
    }

    /// Iterates the bindings in ascending order.
    #[inline]
    pub fn iter(&self) -> BindingsIter<'a> {
        match *self {
            Bindings::Slice(s) => BindingsIter::Slice(s.iter()),
            Bindings::Merged { base, delta } => BindingsIter::Merged {
                base,
                bpos: 0,
                delta,
                dpos: 0,
            },
        }
    }
}

impl<'a> From<&'a [u32]> for Bindings<'a> {
    fn from(s: &'a [u32]) -> Self {
        Bindings::Slice(s)
    }
}

impl<'a> From<&'a Vec<u32>> for Bindings<'a> {
    fn from(s: &'a Vec<u32>) -> Self {
        Bindings::Slice(s)
    }
}

impl<'a, const N: usize> From<&'a [u32; N]> for Bindings<'a> {
    fn from(s: &'a [u32; N]) -> Self {
        Bindings::Slice(s)
    }
}

impl<'a> IntoIterator for Bindings<'a> {
    type Item = u32;
    type IntoIter = BindingsIter<'a>;

    fn into_iter(self) -> BindingsIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Bindings<'a> {
    type Item = u32;
    type IntoIter = BindingsIter<'a>;

    fn into_iter(self) -> BindingsIter<'a> {
        self.iter()
    }
}

impl PartialEq for Bindings<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// Iterator over a [`Bindings`] list, yielding `u32` ids.
#[derive(Debug, Clone)]
pub enum BindingsIter<'a> {
    /// Slice cursor.
    Slice(std::slice::Iter<'a, u32>),
    /// Two-cursor merge over a base slice and a disjoint delta slice.
    Merged {
        /// The base-store side.
        base: &'a [u32],
        /// Next base position.
        bpos: usize,
        /// The delta side.
        delta: &'a [u32],
        /// Next delta position.
        dpos: usize,
    },
}

impl Iterator for BindingsIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            BindingsIter::Slice(it) => it.next().copied(),
            BindingsIter::Merged {
                base,
                bpos,
                delta,
                dpos,
            } => {
                let b = base.get(*bpos).copied();
                let d = delta.get(*dpos).copied();
                match (b, d) {
                    (Some(bv), Some(dv)) if bv < dv => {
                        *bpos += 1;
                        Some(bv)
                    }
                    (_, Some(dv)) => {
                        *dpos += 1;
                        Some(dv)
                    }
                    (Some(bv), None) => {
                        *bpos += 1;
                        Some(bv)
                    }
                    (None, None) => None,
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            BindingsIter::Slice(it) => it.len(),
            BindingsIter::Merged {
                base,
                bpos,
                delta,
                dpos,
            } => (base.len() - bpos) + (delta.len() - dpos),
        };
        (n, Some(n))
    }

    /// O(1): both variants know their exact remaining length (the merged
    /// base and delta runs are disjoint), so counting never walks values.
    fn count(self) -> usize {
        self.len()
    }
}

impl ExactSizeIterator for BindingsIter<'_> {}

/// A per-component memory breakdown of a backend (resident bytes).
#[derive(Debug, Clone, Default)]
pub struct StoreMemory {
    /// `(component name, bytes)` pairs.
    pub components: Vec<(&'static str, usize)>,
}

impl StoreMemory {
    /// Adds one component.
    pub fn add(&mut self, name: &'static str, bytes: usize) {
        self.components.push((name, bytes));
    }

    /// Total bytes across components.
    pub fn total(&self) -> usize {
        self.components.iter().map(|&(_, b)| b).sum()
    }
}

/// The binding-retrieval primitives every storage backend provides.
///
/// All id lists are sorted ascending; `subject_at`/`object_at` index the
/// distinct keys of a predicate in ascending order, so iteration order is
/// identical across stores — algorithms above this trait produce
/// bit-identical results whether or not a delta overlay is present.
pub trait TripleStore {
    /// Number of predicates indexed.
    fn num_preds(&self) -> usize;
    /// Facts with predicate `p`.
    fn num_facts(&self, p: PredId) -> usize;
    /// Distinct subjects of `p`.
    fn num_subjects(&self, p: PredId) -> usize;
    /// Distinct objects of `p`.
    fn num_objects(&self, p: PredId) -> usize;
    /// Objects `o` with `p(s, o)`.
    fn objects(&self, p: PredId, s: NodeId) -> Bindings<'_>;
    /// Subjects `s` with `p(s, o)`.
    fn subjects(&self, p: PredId, o: NodeId) -> Bindings<'_>;
    /// The `i`-th distinct subject of `p`.
    fn subject_at(&self, p: PredId, i: usize) -> NodeId;
    /// Objects of the `i`-th distinct subject of `p`.
    fn objects_at(&self, p: PredId, i: usize) -> Bindings<'_>;
    /// The `i`-th distinct object of `p`.
    fn object_at(&self, p: PredId, i: usize) -> NodeId;
    /// Subjects of the `i`-th distinct object of `p`.
    fn subjects_at(&self, p: PredId, i: usize) -> Bindings<'_>;
    /// How many facts have the `i`-th distinct object of `p` as object.
    fn object_group_len(&self, p: PredId, i: usize) -> usize;
    /// Predicates having `s` as subject.
    fn preds_of_subject(&self, s: NodeId) -> Bindings<'_>;
    /// Membership test for `p(s, o)`.
    fn contains(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        self.objects(p, s).contains_sorted(o.0)
    }
    /// The unified pattern entry point: streams every triple matching
    /// `pat` (any of the 8 bound/unbound shapes) in the deterministic
    /// cross-backend order, with zero materialisation on the common
    /// paths. Unsized (`dyn`) callers use
    /// [`SolutionIter::new`](crate::query::SolutionIter::new) directly.
    fn solve(&self, pat: crate::query::TriplePattern) -> crate::query::SolutionIter<'_>
    where
        Self: Sized,
    {
        crate::query::SolutionIter::new(self, pat)
    }
    /// Per-component resident memory.
    fn memory(&self) -> StoreMemory;
}

/// The enum facade over the concrete stores. A two-variant match at
/// every call keeps dispatch branch-predictable on hot paths (unlike a
/// `dyn TripleStore` vtable).
#[derive(Debug, Clone)]
pub enum StoreBackend {
    /// Compressed sparse rows.
    Csr(CsrStore),
    /// A delta overlay merged over an immutable base store (the live
    /// ingestion view; see [`delta`](crate::delta)).
    Layered(crate::delta::LayeredStore),
}

macro_rules! dispatch {
    ($self:expr, $store:ident => $body:expr) => {
        match $self {
            StoreBackend::Csr($store) => $body,
            StoreBackend::Layered($store) => $body,
        }
    };
}

impl TripleStore for StoreBackend {
    #[inline]
    fn num_preds(&self) -> usize {
        dispatch!(self, s => TripleStore::num_preds(s))
    }

    #[inline]
    fn num_facts(&self, p: PredId) -> usize {
        dispatch!(self, s => TripleStore::num_facts(s, p))
    }

    #[inline]
    fn num_subjects(&self, p: PredId) -> usize {
        dispatch!(self, s => TripleStore::num_subjects(s, p))
    }

    #[inline]
    fn num_objects(&self, p: PredId) -> usize {
        dispatch!(self, s => TripleStore::num_objects(s, p))
    }

    #[inline]
    fn objects(&self, p: PredId, s: NodeId) -> Bindings<'_> {
        dispatch!(self, st => st.objects(p, s))
    }

    #[inline]
    fn subjects(&self, p: PredId, o: NodeId) -> Bindings<'_> {
        dispatch!(self, st => st.subjects(p, o))
    }

    #[inline]
    fn subject_at(&self, p: PredId, i: usize) -> NodeId {
        dispatch!(self, s => s.subject_at(p, i))
    }

    #[inline]
    fn objects_at(&self, p: PredId, i: usize) -> Bindings<'_> {
        dispatch!(self, s => s.objects_at(p, i))
    }

    #[inline]
    fn object_at(&self, p: PredId, i: usize) -> NodeId {
        dispatch!(self, s => s.object_at(p, i))
    }

    #[inline]
    fn subjects_at(&self, p: PredId, i: usize) -> Bindings<'_> {
        dispatch!(self, s => s.subjects_at(p, i))
    }

    #[inline]
    fn object_group_len(&self, p: PredId, i: usize) -> usize {
        dispatch!(self, s => s.object_group_len(p, i))
    }

    #[inline]
    fn preds_of_subject(&self, s: NodeId) -> Bindings<'_> {
        dispatch!(self, st => st.preds_of_subject(s))
    }

    #[inline]
    fn contains(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        dispatch!(self, st => st.contains(s, p, o))
    }

    fn memory(&self) -> StoreMemory {
        dispatch!(self, s => s.memory())
    }
}

/// A borrowed, backend-agnostic view of one predicate's index — the
/// replacement for the old `&PredIndex` reference. `Copy`, so it can be
/// passed around freely; every accessor dispatches through the enum.
#[derive(Clone, Copy)]
pub struct PredView<'a> {
    store: &'a StoreBackend,
    p: PredId,
}

impl<'a> PredView<'a> {
    /// Creates a view of predicate `p`.
    pub(crate) fn new(store: &'a StoreBackend, p: PredId) -> Self {
        PredView { store, p }
    }

    /// Objects `o` with `p(s, o)`, sorted ascending.
    #[inline]
    pub fn objects_of(self, s: NodeId) -> Bindings<'a> {
        self.store.objects(self.p, s)
    }

    /// Subjects `s` with `p(s, o)`, sorted ascending.
    #[inline]
    pub fn subjects_of(self, o: NodeId) -> Bindings<'a> {
        self.store.subjects(self.p, o)
    }

    /// Number of facts with this predicate.
    #[inline]
    pub fn num_facts(self) -> usize {
        self.store.num_facts(self.p)
    }

    /// Number of distinct subjects.
    #[inline]
    pub fn num_subjects(self) -> usize {
        self.store.num_subjects(self.p)
    }

    /// Number of distinct objects.
    #[inline]
    pub fn num_objects(self) -> usize {
        self.store.num_objects(self.p)
    }

    /// How many facts have `o` as object (the conditional frequency
    /// `fr(o | p)` of §3.5.3).
    #[inline]
    pub fn object_frequency(self, o: NodeId) -> usize {
        self.subjects_of(o).len()
    }

    /// How many facts have `s` as subject.
    #[inline]
    pub fn subject_frequency(self, s: NodeId) -> usize {
        self.objects_of(s).len()
    }

    /// Tests whether `p(s, o)` holds.
    #[inline]
    pub fn contains(self, s: NodeId, o: NodeId) -> bool {
        self.store.contains(s, self.p, o)
    }

    /// Iterates `(subject, objects)` groups in ascending subject order.
    pub fn iter_subjects(self) -> GroupIter<'a> {
        GroupIter::new(self.store, self.p, GroupDirection::BySubject)
    }

    /// Iterates distinct objects in ascending order.
    pub fn iter_objects(self) -> impl Iterator<Item = NodeId> + 'a {
        (0..self.num_objects()).map(move |i| self.store.object_at(self.p, i))
    }

    /// Iterates `(object, subjects)` groups in ascending object order
    /// (sequential-scan, like [`PredView::iter_subjects`]).
    pub fn iter_objects_grouped(self) -> GroupIter<'a> {
        GroupIter::new(self.store, self.p, GroupDirection::ByObject)
    }

    /// Iterates `(object, conditional-frequency)` over distinct objects.
    pub fn iter_object_frequencies(self) -> impl Iterator<Item = (NodeId, usize)> + 'a {
        self.iter_objects_grouped().map(|(o, subs)| (o, subs.len()))
    }
}

/// Which adjacency direction a [`GroupIter`] walks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GroupDirection {
    /// `(subject, objects)` groups.
    BySubject,
    /// `(object, subjects)` groups.
    ByObject,
}

/// Sequential iterator over one predicate's `(key, values)` groups.
///
/// For the CSR store each step is two slice reads. For the layered store
/// the base groups and the delta's sorted groups advance in lockstep — a
/// streaming merge, never a rebuild.
pub struct GroupIter<'a> {
    i: usize,
    n: usize,
    p: PredId,
    dir: GroupDirection,
    inner: GroupInner<'a>,
}

enum GroupInner<'a> {
    Csr(&'a CsrStore),
    Layered {
        /// The CSR base.
        base: &'a CsrStore,
        /// Next base group index.
        bi: usize,
        /// Base groups of this predicate (0 for predicates the base has
        /// never seen).
        bn: usize,
        /// The delta side: sorted per-key groups of this predicate.
        delta: &'a Csr,
        /// Next delta group index.
        di: usize,
    },
}

/// The `i`-th group of `p` in a CSR store, in direction `dir`.
#[inline]
fn csr_group(store: &CsrStore, p: PredId, dir: GroupDirection, i: usize) -> (NodeId, Bindings<'_>) {
    match dir {
        GroupDirection::BySubject => (store.subject_at(p, i), store.objects_at(p, i)),
        GroupDirection::ByObject => (store.object_at(p, i), store.subjects_at(p, i)),
    }
}

/// Distinct keys of `p` in `store`, in direction `dir`.
fn num_keys(store: &impl TripleStore, p: PredId, dir: GroupDirection) -> usize {
    match dir {
        GroupDirection::BySubject => store.num_subjects(p),
        GroupDirection::ByObject => store.num_objects(p),
    }
}

impl<'a> GroupIter<'a> {
    fn new(store: &'a StoreBackend, p: PredId, dir: GroupDirection) -> Self {
        let inner = match store {
            StoreBackend::Csr(s) => GroupInner::Csr(s),
            StoreBackend::Layered(l) => GroupInner::Layered {
                base: l.base(),
                bi: 0,
                bn: if p.idx() < l.base_pred_count() {
                    num_keys(l.base().as_ref(), p, dir)
                } else {
                    0
                },
                delta: l.delta_groups(p, dir == GroupDirection::ByObject),
                di: 0,
            },
        };
        GroupIter {
            i: 0,
            n: num_keys(store, p, dir),
            p,
            dir,
            inner,
        }
    }
}

impl<'a> Iterator for GroupIter<'a> {
    type Item = (NodeId, Bindings<'a>);

    fn next(&mut self) -> Option<(NodeId, Bindings<'a>)> {
        if self.i >= self.n {
            return None;
        }
        let i = self.i;
        self.i += 1;
        let (p, dir) = (self.p, self.dir);
        match &mut self.inner {
            GroupInner::Csr(store) => Some(csr_group(store, p, dir, i)),
            GroupInner::Layered {
                base,
                bi,
                bn,
                delta,
                di,
            } => {
                let b = (*bi < *bn).then(|| csr_group(base, p, dir, *bi));
                let d = (*di < delta.num_keys()).then(|| (delta.keys()[*di], delta.group(*di)));
                match (b, d) {
                    (Some((bk, bv)), Some((dk, _))) if bk.0 < dk => {
                        *bi += 1;
                        Some((bk, bv))
                    }
                    (Some((bk, bv)), Some((dk, dv))) if bk.0 == dk => {
                        *bi += 1;
                        *di += 1;
                        Some((bk, Bindings::merged(bv, dv)))
                    }
                    (_, Some((dk, dv))) => {
                        *di += 1;
                        Some((NodeId(dk), Bindings::Slice(dv)))
                    }
                    (Some((bk, bv)), None) => {
                        *bi += 1;
                        Some((bk, bv))
                    }
                    (None, None) => None,
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.n - self.i;
        (n, Some(n))
    }
}

impl ExactSizeIterator for GroupIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_bindings_behave_like_slices() {
        let data = vec![2u32, 5, 9, 11];
        let b = Bindings::from(&data);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.first(), Some(2));
        assert_eq!(b.get(2), 9);
        assert!(b.contains_sorted(5));
        assert!(!b.contains_sorted(6));
        assert_eq!(b.to_vec(), data);
        assert_eq!(b.iter().collect::<Vec<_>>(), data);
        let total: u32 = b.into_iter().sum();
        assert_eq!(total, 27);
    }

    #[test]
    fn empty_bindings() {
        assert!(Bindings::EMPTY.is_empty());
        assert_eq!(Bindings::EMPTY.first(), None);
        assert_eq!(Bindings::EMPTY.iter().next(), None);
    }

    #[test]
    fn merged_bindings_collapse_when_one_side_is_empty() {
        let base = [1u32, 5, 9];
        let b = Bindings::merged(Bindings::Slice(&base), &[]);
        assert!(matches!(b, Bindings::Slice(_)));
        let d = Bindings::merged(Bindings::EMPTY, &base);
        assert_eq!(d.to_vec(), base);
    }

    #[test]
    fn merged_bindings_behave_like_the_merged_vector() {
        let base = [2u32, 6, 9, 40];
        let delta = [1u32, 7, 8, 41, 50];
        let m = Bindings::merged(Bindings::Slice(&base), &delta);
        let expect = vec![1u32, 2, 6, 7, 8, 9, 40, 41, 50];
        assert_eq!(m.len(), expect.len());
        assert_eq!(m.to_vec(), expect);
        assert_eq!(m.first(), Some(1));
        for (i, &v) in expect.iter().enumerate() {
            assert_eq!(m.get(i), v, "get({i})");
            assert_eq!(m.binary_search(v), Ok(i), "binary_search({v})");
        }
        assert_eq!(m.binary_search(0), Err(0));
        assert_eq!(m.binary_search(5), Err(2));
        assert_eq!(m.binary_search(100), Err(9));
        assert!(m.contains_sorted(40));
        assert!(!m.contains_sorted(39));
        let (lo, hi) = m.iter().size_hint();
        assert_eq!((lo, hi), (9, Some(9)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Two disjoint sorted id lists (each value lands on one side only).
    fn arb_disjoint() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
        proptest::collection::vec((0u32..500, any::<bool>()), 0..60).prop_map(|mut items| {
            items.sort_unstable();
            items.dedup_by_key(|&mut (v, _)| v);
            let (mut base, mut delta) = (Vec::new(), Vec::new());
            for (v, into_base) in items {
                if into_base {
                    base.push(v);
                } else {
                    delta.push(v);
                }
            }
            (base, delta)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Merged bindings agree with the plainly merged vector on every
        /// accessor.
        #[test]
        fn prop_merged_bindings_match_naive_merge(
            sides in arb_disjoint(),
            probe in any::<u32>(),
        ) {
            let (base, delta) = sides;
            let mut expect: Vec<u32> =
                base.iter().chain(delta.iter()).copied().collect();
            expect.sort_unstable();
            let m = Bindings::merged(Bindings::Slice(&base), &delta);
            prop_assert_eq!(m.len(), expect.len());
            prop_assert_eq!(m.to_vec(), expect.clone());
            for (i, &v) in expect.iter().enumerate() {
                prop_assert_eq!(m.get(i), v);
            }
            prop_assert_eq!(m.binary_search(probe), expect.binary_search(&probe));
            prop_assert_eq!(m.first(), expect.first().copied());
        }
    }
}
