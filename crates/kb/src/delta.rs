//! Live KB ingestion: a mutable delta overlay with epoch snapshots and
//! compaction.
//!
//! The frozen CSR store is immutable by construction — its arrays cannot
//! absorb a triple in place. This module turns a frozen [`KnowledgeBase`]
//! into a versioned, appendable one with the classic LSM split:
//!
//! * [`DeltaStore`] — one immutable *generation* of appended triples:
//!   per-predicate sorted runs (reusing the CSR shape) in both
//!   directions, plus the precomputed union metadata (base ranks of
//!   delta-only keys, subject→extra-predicate lists) that makes merged
//!   primitives O(log) instead of O(n).
//! * [`LayeredStore`] — a [`TripleStore`] answering every primitive by
//!   merging base + delta [`Bindings`] (merge-view iterators, binary
//!   search across runs), so miners above the trait see the live view
//!   unchanged. It is the second [`StoreBackend`] variant.
//! * [`LiveKb`] — the writer: appends batches under a lock, publishes a
//!   fresh epoch per batch (readers pin a cheap [`Snapshot`] — an Arc'd
//!   base plus one immutable delta generation — so in-flight miners
//!   never observe a torn KB), rotates the content fingerprint per
//!   publish, and folds a grown delta back into a fresh base
//!   ([`LiveKb::compact`]) without blocking writers for the rebuild.
//!
//! Appends are idempotent (duplicates of base or delta facts are
//! dropped) and inverse-closed *per object*: `p(s, o)` is mirrored into
//! a materialised `p⁻¹` exactly when `o` already has inverse facts (so
//! every materialised adjacency stays COMPLETE — the property miners
//! rely on — and no partial one is ever created), a directly-ingested
//! inverse fact implies its base fact, and an inverse fact for a fresh
//! object backfills mirrors for the object's pre-existing base facts.
//! The §4 top-1% *eligibility* set itself stays frozen at load —
//! ordinary appends never promote new objects into it.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};
use std::time::Duration;

use remi_obs::Clock as _;

use crate::backend::{Bindings, StoreBackend, StoreMemory, TripleStore};
use crate::dict::Dictionary;
use crate::error::{KbError, Result};
use crate::freq::FreqVec;
use crate::fx::FxHashSet;
use crate::ids::{NodeId, PredId, Triple};
use crate::store::{derive_inverse_links, Csr, CsrStore, KnowledgeBase};
use crate::term::{Term, TermKind};

// ---------------------------------------------------------------------------
// Content fingerprint

/// Fingerprint of a KB's logical content: every triple id plus the
/// dictionary sizes, mixed through the workspace Fx hash. Two KBs holding
/// the same triples fingerprint identically whether or not a delta
/// overlay holds some of them, so caches keyed by it survive compaction —
/// and rotate on every ingested batch.
pub fn content_fingerprint(kb: &KnowledgeBase) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write_u64(kb.num_nodes() as u64);
    h.write_u64(kb.num_preds() as u64);
    h.write_u64(kb.num_triples() as u64);
    for t in kb.iter_triples() {
        h.write_u64(u64::from(t.s.0) << 32 | u64::from(t.o.0));
        h.write_u32(t.p.0);
    }
    h.finish()
}

/// Rotates a fingerprint with one accepted batch. Deterministic in the
/// batch contents; any non-empty batch changes the value.
fn rotate_fingerprint(fp: u64, accepted: &[Triple]) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::fx::FxHasher::default();
    h.write_u64(fp);
    h.write_u64(accepted.len() as u64);
    for t in accepted {
        h.write_u64(u64::from(t.s.0) << 32 | u64::from(t.o.0));
        h.write_u32(t.p.0);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The delta generation

/// Binary search over an indexable sorted key list (the base store's
/// distinct-key directory), returning the rank like `slice::binary_search`.
fn rank_by(n: usize, at: impl Fn(usize) -> u32, key: u32) -> std::result::Result<usize, usize> {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match at(mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// One predicate's slice of a delta generation.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaPred {
    /// Sorted `(subject, objects)` runs of the appended facts.
    by_subject: Csr,
    /// Sorted `(object, subjects)` runs.
    by_object: Csr,
    facts: u32,
    /// Delta subject keys absent from the base: `(base insertion rank,
    /// delta group index)`, both components ascending. `union index` of
    /// entry `j` is `rank + j`, which [`union_locate`] inverts in O(log).
    sub_only: Vec<(u32, u32)>,
    /// Same for delta object keys.
    obj_only: Vec<(u32, u32)>,
}

/// Locates union position `i` across a base key directory and the
/// delta-only entries: `Ok(delta group)` when the `i`-th distinct key of
/// the union is delta-only, `Err(base index)` otherwise.
fn union_locate(only: &[(u32, u32)], i: usize) -> std::result::Result<u32, usize> {
    let (mut lo, mut hi) = (0usize, only.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if only[mid].0 as usize + mid <= i {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo > 0 && only[lo - 1].0 as usize + (lo - 1) == i {
        Ok(only[lo - 1].1)
    } else {
        Err(i - lo)
    }
}

/// One immutable generation of appended triples, indexed for merging.
#[derive(Debug, Clone)]
pub struct DeltaStore {
    preds: Vec<DeltaPred>,
    /// subject → appended predicates missing from the base's
    /// `preds_of_subject` list (disjoint by construction).
    extra_subject_preds: Csr,
    /// The generation's triples, sorted and deduplicated — the unit the
    /// compactor subtracts when folding a pinned generation into a new
    /// base while later appends keep arriving.
    triples: Vec<Triple>,
}

impl DeltaStore {
    /// Indexes `triples` (sorted, deduplicated, disjoint from `base`)
    /// against `base`. `num_preds` is the total predicate count of the
    /// live dictionary (≥ the base's own).
    pub(crate) fn build(base: &CsrStore, num_preds: usize, triples: Vec<Triple>) -> DeltaStore {
        debug_assert!(triples.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        let base_preds = base.num_preds();
        let num_preds = num_preds.max(base_preds);
        let mut per_pred: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_preds];
        for t in &triples {
            per_pred[t.p.idx()].push((t.s.0, t.o.0));
        }

        let mut preds = Vec::with_capacity(num_preds);
        let mut extra: Vec<(u32, u32)> = Vec::new();
        for (p, mut pairs) in per_pred.into_iter().enumerate() {
            if pairs.is_empty() {
                preds.push(DeltaPred::default());
                continue;
            }
            let pid = PredId(p as u32);
            pairs.sort_unstable();
            let by_subject = Csr::from_sorted_pairs(&pairs);
            let mut flipped: Vec<(u32, u32)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
            flipped.sort_unstable();
            let by_object = Csr::from_sorted_pairs(&flipped);

            let in_base = p < base_preds;
            let rank_subject = |key: u32| {
                if !in_base {
                    return Err(0);
                }
                rank_by(base.num_subjects(pid), |i| base.subject_at(pid, i).0, key)
            };
            let rank_object = |key: u32| {
                if !in_base {
                    return Err(0);
                }
                rank_by(base.num_objects(pid), |i| base.object_at(pid, i).0, key)
            };
            let sub_only: Vec<(u32, u32)> = by_subject
                .keys()
                .iter()
                .enumerate()
                .filter_map(|(j, &k)| rank_subject(k).err().map(|r| (r as u32, j as u32)))
                .collect();
            let obj_only: Vec<(u32, u32)> = by_object
                .keys()
                .iter()
                .enumerate()
                .filter_map(|(j, &k)| rank_object(k).err().map(|r| (r as u32, j as u32)))
                .collect();

            for &s in by_subject.keys() {
                if !base.preds_of_subject(NodeId(s)).contains_sorted(pid.0) {
                    extra.push((s, pid.0));
                }
            }

            preds.push(DeltaPred {
                by_subject,
                by_object,
                facts: pairs.len() as u32,
                sub_only,
                obj_only,
            });
        }
        extra.sort_unstable();
        extra.dedup();
        DeltaStore {
            preds,
            extra_subject_preds: Csr::from_sorted_pairs(&extra),
            triples,
        }
    }

    /// Number of triples in this generation.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when the generation holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// The generation's sorted triples.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    fn size_in_bytes(&self) -> (usize, usize, usize) {
        let runs: usize = self
            .preds
            .iter()
            .map(|d| d.by_subject.size_in_bytes() + d.by_object.size_in_bytes())
            .sum();
        let meta: usize = self
            .preds
            .iter()
            .map(|d| (d.sub_only.len() + d.obj_only.len()) * 8)
            .sum::<usize>()
            + self.extra_subject_preds.size_in_bytes()
            + self.triples.len() * std::mem::size_of::<Triple>();
        (
            runs,
            meta,
            self.preds.len() * std::mem::size_of::<DeltaPred>(),
        )
    }
}

// ---------------------------------------------------------------------------
// The layered store

/// The live view: a [`DeltaStore`] generation merged over an immutable
/// CSR base. Every [`TripleStore`] primitive answers the union; cloning
/// is two `Arc` bumps, which is what makes epoch snapshots cheap.
#[derive(Debug, Clone)]
pub struct LayeredStore {
    base: Arc<CsrStore>,
    delta: Arc<DeltaStore>,
    base_preds: usize,
}

impl LayeredStore {
    /// Layers `delta` over `base`. The base is a frozen store by type, so
    /// generations never nest.
    pub fn new(base: Arc<CsrStore>, delta: Arc<DeltaStore>) -> LayeredStore {
        LayeredStore {
            base_preds: base.num_preds(),
            base,
            delta,
        }
    }

    /// The shared base store.
    pub fn base(&self) -> &Arc<CsrStore> {
        &self.base
    }

    /// The delta generation.
    pub fn delta(&self) -> &Arc<DeltaStore> {
        &self.delta
    }

    /// Number of appended triples layered over the base.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    pub(crate) fn base_pred_count(&self) -> usize {
        self.base_preds
    }

    pub(crate) fn delta_groups(&self, p: PredId, by_object: bool) -> &Csr {
        let d = &self.delta.preds[p.idx()];
        if by_object {
            &d.by_object
        } else {
            &d.by_subject
        }
    }

    #[inline]
    fn dp(&self, p: PredId) -> &DeltaPred {
        &self.delta.preds[p.idx()]
    }

    #[inline]
    fn in_base(&self, p: PredId) -> bool {
        p.idx() < self.base_preds
    }
}

impl TripleStore for LayeredStore {
    fn num_preds(&self) -> usize {
        self.delta.preds.len()
    }

    #[inline]
    fn num_facts(&self, p: PredId) -> usize {
        let base = if self.in_base(p) {
            self.base.num_facts(p)
        } else {
            0
        };
        base + self.dp(p).facts as usize
    }

    #[inline]
    fn num_subjects(&self, p: PredId) -> usize {
        let base = if self.in_base(p) {
            self.base.num_subjects(p)
        } else {
            0
        };
        base + self.dp(p).sub_only.len()
    }

    #[inline]
    fn num_objects(&self, p: PredId) -> usize {
        let base = if self.in_base(p) {
            self.base.num_objects(p)
        } else {
            0
        };
        base + self.dp(p).obj_only.len()
    }

    #[inline]
    fn objects(&self, p: PredId, s: NodeId) -> Bindings<'_> {
        let delta = self.dp(p).by_subject.get(s.0);
        let base = if self.in_base(p) {
            self.base.objects(p, s)
        } else {
            Bindings::EMPTY
        };
        Bindings::merged(base, delta)
    }

    #[inline]
    fn subjects(&self, p: PredId, o: NodeId) -> Bindings<'_> {
        let delta = self.dp(p).by_object.get(o.0);
        let base = if self.in_base(p) {
            self.base.subjects(p, o)
        } else {
            Bindings::EMPTY
        };
        Bindings::merged(base, delta)
    }

    #[inline]
    fn subject_at(&self, p: PredId, i: usize) -> NodeId {
        let d = self.dp(p);
        match union_locate(&d.sub_only, i) {
            Ok(g) => NodeId(d.by_subject.keys()[g as usize]),
            Err(b) => self.base.subject_at(p, b),
        }
    }

    #[inline]
    fn objects_at(&self, p: PredId, i: usize) -> Bindings<'_> {
        let d = self.dp(p);
        match union_locate(&d.sub_only, i) {
            Ok(g) => Bindings::Slice(d.by_subject.group(g as usize)),
            Err(b) => {
                let key = self.base.subject_at(p, b);
                Bindings::merged(self.base.objects_at(p, b), d.by_subject.get(key.0))
            }
        }
    }

    #[inline]
    fn object_at(&self, p: PredId, i: usize) -> NodeId {
        let d = self.dp(p);
        match union_locate(&d.obj_only, i) {
            Ok(g) => NodeId(d.by_object.keys()[g as usize]),
            Err(b) => self.base.object_at(p, b),
        }
    }

    #[inline]
    fn subjects_at(&self, p: PredId, i: usize) -> Bindings<'_> {
        let d = self.dp(p);
        match union_locate(&d.obj_only, i) {
            Ok(g) => Bindings::Slice(d.by_object.group(g as usize)),
            Err(b) => {
                let key = self.base.object_at(p, b);
                Bindings::merged(self.base.subjects_at(p, b), d.by_object.get(key.0))
            }
        }
    }

    #[inline]
    fn object_group_len(&self, p: PredId, i: usize) -> usize {
        let d = self.dp(p);
        match union_locate(&d.obj_only, i) {
            Ok(g) => d.by_object.group_len(g as usize),
            Err(b) => {
                let key = self.base.object_at(p, b);
                self.base.object_group_len(p, b) + d.by_object.get(key.0).len()
            }
        }
    }

    #[inline]
    fn preds_of_subject(&self, s: NodeId) -> Bindings<'_> {
        Bindings::merged(
            self.base.preds_of_subject(s),
            self.delta.extra_subject_preds.get(s.0),
        )
    }

    #[inline]
    fn contains(&self, s: NodeId, p: PredId, o: NodeId) -> bool {
        (self.in_base(p) && self.base.contains(s, p, o))
            || self.dp(p).by_subject.get(s.0).binary_search(&o.0).is_ok()
    }

    fn memory(&self) -> StoreMemory {
        let mut m = self.base.memory();
        let (runs, meta, table) = self.delta.size_in_bytes();
        m.add("delta.runs", runs);
        m.add("delta.meta", meta);
        m.add("delta.table", table);
        m
    }
}

// ---------------------------------------------------------------------------
// The live KB

/// When the background compactor should fold the delta into a new base.
#[derive(Debug, Clone, Copy)]
pub struct CompactionPolicy {
    /// Absolute floor: never compact below this many delta triples.
    pub min_delta: usize,
    /// Relative trigger: compact once the delta exceeds this fraction of
    /// the base's fact count (whichever bound is *larger* wins).
    pub delta_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            min_delta: 8192,
            delta_fraction: 0.25,
        }
    }
}

/// A pinned epoch: the published KB plus its identity. Cloning is cheap
/// (one `Arc` bump); holders never observe later appends.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The published knowledge base (layered store inside).
    pub kb: Arc<KnowledgeBase>,
    /// Monotonic publish counter (bumped by appends *and* compactions).
    pub epoch: u64,
    /// Content fingerprint (rotated by appends, stable across
    /// compactions — same content, same fingerprint).
    pub fingerprint: u64,
}

impl Snapshot {
    /// Triples in this epoch's delta overlay.
    pub fn delta_triples(&self) -> usize {
        match self.kb.store() {
            StoreBackend::Layered(l) => l.delta_len(),
            _ => 0,
        }
    }

    /// Facts (inverses included) in this epoch's compacted base.
    pub fn base_facts(&self) -> usize {
        let base: &CsrStore = match self.kb.store() {
            StoreBackend::Layered(l) => l.base(),
            StoreBackend::Csr(csr) => csr,
        };
        (0..base.num_preds())
            .map(|p| base.num_facts(PredId(p as u32)))
            .sum()
    }
}

/// What one append batch did.
#[derive(Debug, Clone, Default)]
pub struct AppendOutcome {
    /// Triples accepted into the delta (inverse mirrors included).
    pub appended: usize,
    /// Staged triples dropped because base or delta already held them.
    pub duplicates: usize,
    /// Node terms interned by this batch.
    pub new_nodes: usize,
    /// Predicates interned by this batch.
    pub new_preds: usize,
    /// Epoch after the batch (unchanged when everything was a duplicate).
    pub epoch: u64,
    /// Fingerprint after the batch.
    pub fingerprint: u64,
    /// Delta size after the batch.
    pub delta_triples: usize,
}

/// What one compaction did.
#[derive(Debug, Clone, Default)]
pub struct CompactOutcome {
    /// Whether a fold actually ran (`false`: the delta was empty).
    pub performed: bool,
    /// Triples folded into the new base.
    pub folded: usize,
    /// Epoch after the compaction.
    pub epoch: u64,
    /// Wall time of the fold.
    pub duration: Duration,
}

/// Ingestion observability: the live KB's only event counters, plus
/// histograms over the costs the compaction policy exists to bound.
/// Instruments are `Arc`s so an embedding layer (the HTTP server) can
/// register the very same cells in a `remi_obs::Registry`;
/// [`LiveKb::fork`] shares its parent's instruments, so what-if forks
/// report into the same series.
#[derive(Debug, Clone, Default)]
pub struct KbInstruments {
    /// Append batches that accepted at least one triple (one publish each).
    pub appends: Arc<remi_obs::Counter>,
    /// Triples accepted across all batches (inverse mirrors included).
    pub appended_triples: Arc<remi_obs::Counter>,
    /// Staged triples dropped because base, delta, or the batch held them.
    pub duplicate_triples: Arc<remi_obs::Counter>,
    /// Wall time of each epoch publish (delta rebuild + snapshot swap).
    pub publish_ns: Arc<remi_obs::Histogram>,
    /// Accepted triples per publishing append batch.
    pub batch_triples: Arc<remi_obs::Histogram>,
    /// Live delta size observed at each publish.
    pub delta_triples: Arc<remi_obs::Histogram>,
    /// Wall time of each performed compaction.
    pub compact_ns: Arc<remi_obs::Histogram>,
    /// Compactions that folded the delta into a new base.
    pub compactions_performed: Arc<remi_obs::Counter>,
    /// Compaction calls that found an empty delta and did nothing.
    pub compactions_skipped: Arc<remi_obs::Counter>,
    /// The clock every duration above is measured against.
    pub clock: remi_obs::MonoClock,
    /// Flight-recorder attachment for publish/compaction lifecycle
    /// events — `None` until [`LiveKb::attach_events`] wires a recorder
    /// in. Shared across forks like every other instrument, and behind a
    /// lock because attachment happens once at boot while publishes are
    /// already possible.
    pub events: Arc<Mutex<Option<KbEvents>>>,
}

/// The compaction-outcome vocabulary of the `kb_compact` event.
const COMPACT_OUTCOME: &[&str] = &["skipped", "folded"];

/// The KB lifecycle's flight-recorder vocabulary: one `kb_publish` event
/// per published epoch and one `kb_compact` event per compaction call
/// (folded or skipped). Timestamps come from the injected clock, not the
/// instruments' own [`remi_obs::MonoClock`], so a server's events share
/// one time base and `FakeClock` tests reach these paths.
#[derive(Clone)]
pub struct KbEvents {
    recorder: Arc<remi_obs::Recorder>,
    clock: Arc<dyn remi_obs::Clock>,
    publish: remi_obs::EventId,
    compact: remi_obs::EventId,
}

impl std::fmt::Debug for KbEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KbEvents").finish_non_exhaustive()
    }
}

impl KbEvents {
    /// Interns the lifecycle event specs on `recorder`.
    pub fn new(recorder: Arc<remi_obs::Recorder>, clock: Arc<dyn remi_obs::Clock>) -> KbEvents {
        use remi_obs::{Channel, EventSpec, FieldKind, FieldSpec, Severity};
        let publish = recorder.define(EventSpec {
            name: "kb_publish",
            channel: Channel::Kb,
            severity: Severity::Info,
            fields: &[
                FieldSpec {
                    key: "epoch",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "batch",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "delta",
                    kind: FieldKind::U64,
                },
            ],
        });
        let compact = recorder.define(EventSpec {
            name: "kb_compact",
            channel: Channel::Kb,
            severity: Severity::Info,
            fields: &[
                FieldSpec {
                    key: "outcome",
                    kind: FieldKind::Enum(COMPACT_OUTCOME),
                },
                FieldSpec {
                    key: "folded",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "duration_us",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "epoch",
                    kind: FieldKind::U64,
                },
            ],
        });
        KbEvents {
            recorder,
            clock,
            publish,
            compact,
        }
    }

    fn record_publish(&self, epoch: u64, batch: usize, delta: usize) {
        self.recorder.emit(
            self.publish,
            self.clock.now_ns(),
            &[epoch, batch as u64, delta as u64],
        );
    }

    fn record_compact(&self, folded: Option<usize>, duration_us: u64, epoch: u64) {
        self.recorder.emit(
            self.compact,
            self.clock.now_ns(),
            &[
                folded.is_some() as u64,
                folded.unwrap_or(0) as u64,
                duration_us,
                epoch,
            ],
        );
    }
}

struct Writer {
    base: Arc<CsrStore>,
    nodes: Dictionary,
    preds: Dictionary,
    node_freq: FreqVec,
    n_base_triples: usize,
    /// All live delta triples, sorted and deduplicated.
    delta: Vec<Triple>,
}

/// A [`KnowledgeBase`] that accepts appends. Writers serialise on an
/// internal lock; readers pin [`Snapshot`]s and are never blocked, not
/// even mid-compaction.
pub struct LiveKb {
    writer: Mutex<Writer>,
    current: RwLock<Snapshot>,
    /// Serialises whole compactions (pin → rebuild → swap). Without it,
    /// a fold pinned at an older epoch could acquire the writer lock
    /// *after* a newer fold and overwrite its base — losing every triple
    /// the newer fold had absorbed (they were already pruned from the
    /// writer's delta). Appends never take this lock.
    compact_gate: Mutex<()>,
    policy: CompactionPolicy,
    instruments: KbInstruments,
}

/// Debug-build mirror of the `delta-lock-order` lint rule: the compaction
/// gate must never be acquired by a thread that already holds the writer
/// lock (gate → writer is the blessed order; the inversion would let two
/// folds interleave and silently drop triples).
mod lock_order {
    use std::cell::Cell;

    thread_local! {
        static WRITER_HELD: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn note_writer_acquired() {
        WRITER_HELD.with(|held| held.set(true));
    }

    pub(super) fn note_writer_released() {
        WRITER_HELD.with(|held| held.set(false));
    }

    pub(super) fn assert_gate_allowed() {
        WRITER_HELD.with(|held| {
            debug_assert!(
                !held.get(),
                "lock-order inversion: compact_gate acquired while this thread holds the \
                 writer lock (lint rule delta-lock-order)"
            );
        });
    }
}

/// The writer-lock guard, wrapped so debug builds can track which threads
/// hold it (see [`lock_order`]).
struct WriterGuard<'a>(MutexGuard<'a, Writer>);

impl std::ops::Deref for WriterGuard<'_> {
    type Target = Writer;
    fn deref(&self) -> &Writer {
        &self.0
    }
}

impl std::ops::DerefMut for WriterGuard<'_> {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.0
    }
}

impl Drop for WriterGuard<'_> {
    fn drop(&mut self) {
        lock_order::note_writer_released();
    }
}

impl LiveKb {
    /// Acquires the writer lock, noting the holder for debug-build
    /// lock-order checks.
    fn lock_writer(&self) -> WriterGuard<'_> {
        let guard = self.writer.lock();
        lock_order::note_writer_acquired();
        WriterGuard(guard)
    }

    /// Acquires the compaction gate, asserting in debug builds that this
    /// thread does not already hold the writer lock.
    fn lock_gate(&self) -> MutexGuard<'_, ()> {
        lock_order::assert_gate_allowed();
        self.compact_gate.lock()
    }

    /// Wraps a KB for live ingestion with the default compaction policy.
    pub fn new(kb: KnowledgeBase) -> LiveKb {
        LiveKb::with_policy(kb, CompactionPolicy::default())
    }

    /// Wraps a KB with an explicit compaction policy.
    pub fn with_policy(kb: KnowledgeBase, policy: CompactionPolicy) -> LiveKb {
        let fingerprint = content_fingerprint(&kb);
        let num_preds = kb.num_preds();
        let (nodes, preds, store, node_freq, n_base_triples) = kb.into_parts();
        // A layered KB (e.g. a snapshot of another LiveKb) is folded
        // first so generations never nest.
        let base = Arc::new(match store {
            StoreBackend::Csr(csr) => csr,
            layered => CsrStore::from_store(&layered),
        });
        let delta = DeltaStore::build(&base, num_preds, Vec::new());
        let layered = StoreBackend::Layered(LayeredStore::new(Arc::clone(&base), Arc::new(delta)));
        let kb = KnowledgeBase::from_parts(
            nodes.clone(),
            preds.clone(),
            layered,
            node_freq.clone(),
            n_base_triples,
        );
        LiveKb {
            writer: Mutex::new(Writer {
                base,
                nodes,
                preds,
                node_freq,
                n_base_triples,
                delta: Vec::new(),
            }),
            current: RwLock::new(Snapshot {
                kb: Arc::new(kb),
                epoch: 0,
                fingerprint,
            }),
            compact_gate: Mutex::new(()),
            policy,
            instruments: KbInstruments::default(),
        }
    }

    /// Pins the current epoch. O(1); the snapshot stays valid (and
    /// byte-stable) however many appends or compactions follow.
    pub fn snapshot(&self) -> Snapshot {
        self.current.read().clone()
    }

    /// Forks an independent `LiveKb` starting from this one's current
    /// state: same epoch, fingerprint, policy, and content; appends to
    /// either side are invisible to the other.
    ///
    /// O(segments + delta), not O(KB): the base store is shared by `Arc`,
    /// the dictionaries share their sealed segments, and the frequency
    /// table shares its counter segments — only the dictionary tails and
    /// the (usually small) live delta are copied, and the stored
    /// fingerprint is reused instead of being recomputed from scratch the
    /// way [`LiveKb::with_policy`] must. This is what makes speculative
    /// what-if ingestion (and fixed-size ingest benchmarking) cheap.
    ///
    /// Forks share [`KbInstruments`] — event counters as well as
    /// histograms and the flight-recorder attachment — so a fork's
    /// appends and compactions count in the parent's series. State is
    /// not shared: the compaction policy reads each side's own delta and
    /// base, so a fork's appends never make the parent need compaction.
    pub fn fork(&self) -> LiveKb {
        let w = self.lock_writer();
        // Writer lock held ⇒ no publish can race; `current` is consistent
        // with the writer state (publishes happen under the writer lock).
        let snap = self.snapshot();
        LiveKb {
            writer: Mutex::new(Writer {
                base: Arc::clone(&w.base),
                nodes: w.nodes.clone(),
                preds: w.preds.clone(),
                node_freq: w.node_freq.clone(),
                n_base_triples: w.n_base_triples,
                delta: w.delta.clone(),
            }),
            current: RwLock::new(snap),
            compact_gate: Mutex::new(()),
            policy: self.policy,
            instruments: self.instruments.clone(),
        }
    }

    /// This KB's ingestion instruments (see [`KbInstruments`]).
    pub fn instruments(&self) -> &KbInstruments {
        &self.instruments
    }

    /// Attaches a flight recorder: every subsequent publish and
    /// compaction emits a lifecycle event timestamped on `clock`. Forks
    /// share the attachment (instruments are fork-shared); re-attaching
    /// replaces it.
    pub fn attach_events(
        &self,
        recorder: Arc<remi_obs::Recorder>,
        clock: Arc<dyn remi_obs::Clock>,
    ) {
        *self.instruments.events.lock() = Some(KbEvents::new(recorder, clock));
    }

    /// Appends a batch of triples, publishing one new epoch when at least
    /// one triple was accepted. Duplicates (against base, delta, or
    /// within the batch) are dropped; facts of predicates with a
    /// materialised inverse are mirrored both ways.
    pub fn append<I>(&self, staged: I) -> AppendOutcome
    where
        I: IntoIterator<Item = (Term, String, Term)>,
    {
        let mut w = self.lock_writer();
        let nodes_before = w.nodes.len();
        let preds_before = w.preds.len();

        // Pass 1: intern everything so inverse links cover predicates
        // introduced by this very batch.
        let staged: Vec<Triple> = staged
            .into_iter()
            .map(|(s, p, o)| {
                let s = NodeId(w.nodes.intern(&s));
                let p = PredId(w.preds.intern_key(&p, TermKind::Iri));
                let o = NodeId(w.nodes.intern(&o));
                Triple::new(s, p, o)
            })
            .collect();
        let (inverse_of, base_of) = derive_inverse_links(&w.preds);

        // Pass 2: dedup and keep the inverse closure *per object*. The
        // base build materialises `p⁻¹(o, ·)` only for top-fraction
        // objects, and for those objects the adjacency is COMPLETE —
        // that completeness is what lets miners treat `p⁻¹` like any
        // other predicate. So appends mirror `p(s, o)` into `p⁻¹(o, s)`
        // exactly when `o` already has inverse facts (anything else
        // would create a partial adjacency that contradicts `p`), and a
        // directly-ingested inverse fact for a fresh object backfills
        // the mirrors of every existing `p(·, o)` fact so the new
        // adjacency starts complete.
        let mut accepted: Vec<Triple> = Vec::with_capacity(staged.len());
        let mut seen: FxHashSet<Triple> = FxHashSet::default();
        // `(inverse pred, object)` adjacencies that gained facts in this
        // batch (needed because `w.delta` only absorbs the batch at the
        // end).
        let mut batch_inv: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut duplicates = 0usize;
        let base_preds = w.base.num_preds();

        /// Accepts `t` unless base, delta, or this batch already holds it.
        fn push(
            w: &mut Writer,
            accepted: &mut Vec<Triple>,
            seen: &mut FxHashSet<Triple>,
            base_of: &[Option<PredId>],
            base_preds: usize,
            t: Triple,
        ) -> bool {
            let in_base = t.p.idx() < base_preds && w.base.contains(t.s, t.p, t.o);
            if in_base || w.delta.binary_search(&t).is_ok() || !seen.insert(t) {
                return false;
            }
            accepted.push(t);
            if base_of[t.p.idx()].is_none() {
                w.node_freq.grow_to(w.nodes.len());
                w.node_freq.add(t.s.idx(), 1);
                w.node_freq.add(t.o.idx(), 1);
                w.n_base_triples += 1;
            }
            true
        }
        /// Does the live view (base + delta) hold any `p(s, ·)` fact?
        fn has_facts(w: &Writer, base_preds: usize, p: PredId, s: NodeId) -> bool {
            if p.idx() < base_preds && !w.base.objects(p, s).is_empty() {
                return true;
            }
            let at = w.delta.partition_point(|d| (d.s, d.p) < (s, p));
            w.delta.get(at).is_some_and(|d| d.s == s && d.p == p)
        }

        for t in staged {
            if !push(&mut w, &mut accepted, &mut seen, &base_of, base_preds, t) {
                duplicates += 1;
                continue;
            }
            if let Some(inv) = inverse_of[t.p.idx()] {
                // Forward mirror, only into already-materialised
                // adjacencies.
                let materialised =
                    batch_inv.contains(&(inv.0, t.o.0)) || has_facts(&w, base_preds, inv, t.o);
                if materialised && w.nodes.kind(t.o.0) != TermKind::Literal {
                    batch_inv.insert((inv.0, t.o.0));
                    push(
                        &mut w,
                        &mut accepted,
                        &mut seen,
                        &base_of,
                        base_preds,
                        Triple::new(t.o, inv, t.s),
                    );
                }
            } else if let Some(bp) = base_of[t.p.idx()] {
                // `t` is an inverse fact `p⁻¹(o, s)` with `o = t.s`. The
                // base fact must exist (the ⟹ invariant)...
                let newly =
                    !batch_inv.contains(&(t.p.0, t.s.0)) && !has_facts(&w, base_preds, t.p, t.s);
                batch_inv.insert((t.p.0, t.s.0));
                push(
                    &mut w,
                    &mut accepted,
                    &mut seen,
                    &base_of,
                    base_preds,
                    Triple::new(t.o, bp, t.s),
                );
                if newly {
                    // ...and a freshly-materialised object backfills the
                    // mirrors of every pre-existing `p(·, o)` fact so the
                    // new adjacency is complete from its first epoch.
                    let mut subs: Vec<u32> = if bp.idx() < base_preds {
                        w.base.subjects(bp, t.s).to_vec()
                    } else {
                        Vec::new()
                    };
                    subs.extend(
                        w.delta
                            .iter()
                            .chain(accepted.iter())
                            .filter(|d| d.p == bp && d.o == t.s)
                            .map(|d| d.s.0),
                    );
                    subs.sort_unstable();
                    subs.dedup();
                    for s2 in subs {
                        push(
                            &mut w,
                            &mut accepted,
                            &mut seen,
                            &base_of,
                            base_preds,
                            Triple::new(t.s, t.p, NodeId(s2)),
                        );
                    }
                }
            }
        }

        self.instruments.duplicate_triples.add(duplicates as u64);
        let mut out = AppendOutcome {
            appended: accepted.len(),
            duplicates,
            new_nodes: w.nodes.len() - nodes_before,
            new_preds: w.preds.len() - preds_before,
            ..AppendOutcome::default()
        };
        if accepted.is_empty() {
            let snap = self.snapshot();
            out.epoch = snap.epoch;
            out.fingerprint = snap.fingerprint;
            out.delta_triples = w.delta.len();
            return out;
        }
        self.instruments.appends.inc();
        self.instruments.appended_triples.add(accepted.len() as u64);

        w.delta.extend_from_slice(&accepted);
        w.delta.sort_unstable();
        debug_assert!(w.delta.windows(2).all(|x| x[0] < x[1]));
        self.instruments.batch_triples.record(accepted.len() as u64);
        let (epoch, fingerprint) = self.publish(&w, Some(&accepted));
        out.epoch = epoch;
        out.fingerprint = fingerprint;
        out.delta_triples = w.delta.len();
        out
    }

    /// Parses an N-Triples document and appends it as one atomic batch —
    /// a parse error rejects the whole document, nothing is applied.
    pub fn append_ntriples(&self, text: &str) -> Result<AppendOutcome> {
        let mut staged = Vec::new();
        for (i, line) in text.lines().enumerate() {
            match crate::ntriples::parse_line(line) {
                Ok(Some((s, p, o))) => staged.push((s, p, o)),
                Ok(None) => {}
                Err(message) => {
                    return Err(KbError::Parse {
                        line: i + 1,
                        message,
                    })
                }
            }
        }
        Ok(self.append(staged))
    }

    /// Builds and swaps in a new published epoch from the writer state.
    /// `rotated` carries the accepted batch (appends) or `None`
    /// (compaction: content unchanged, fingerprint kept).
    fn publish(&self, w: &Writer, rotated: Option<&[Triple]>) -> (u64, u64) {
        let t0 = self.instruments.clock.now_ns();
        let delta = DeltaStore::build(&w.base, w.preds.len(), w.delta.clone());
        let store = StoreBackend::Layered(LayeredStore::new(Arc::clone(&w.base), Arc::new(delta)));
        let kb = KnowledgeBase::from_parts(
            w.nodes.clone(),
            w.preds.clone(),
            store,
            w.node_freq.clone(),
            w.n_base_triples,
        );
        let mut current = self.current.write();
        current.kb = Arc::new(kb);
        current.epoch += 1;
        if let Some(batch) = rotated {
            current.fingerprint = rotate_fingerprint(current.fingerprint, batch);
        }
        let published = (current.epoch, current.fingerprint);
        drop(current);
        self.instruments
            .publish_ns
            .record(self.instruments.clock.now_ns().saturating_sub(t0));
        self.instruments.delta_triples.record(w.delta.len() as u64);
        if let Some(ev) = self.instruments.events.lock().as_ref() {
            ev.record_publish(
                published.0,
                rotated.map_or(0, <[Triple]>::len),
                w.delta.len(),
            );
        }
        published
    }

    /// True when the configured policy says the delta has outgrown the
    /// overlay and should be folded into a fresh base.
    pub fn needs_compaction(&self) -> bool {
        let snap = self.snapshot();
        let delta = snap.delta_triples();
        // The relative bound is O(predicates); skip it when it is off.
        let relative = if self.policy.delta_fraction > 0.0 {
            (snap.base_facts() as f64 * self.policy.delta_fraction) as usize
        } else {
            0
        };
        delta > 0 && delta >= self.policy.min_delta.max(relative)
    }

    /// Folds the current delta into a fresh CSR base and publishes the
    /// result. The expensive rebuild runs
    /// against a pinned snapshot *outside* the writer lock, so appends
    /// arriving mid-compaction only wait for the final swap; readers are
    /// never blocked at all. Content — and therefore the fingerprint — is
    /// unchanged.
    pub fn compact(&self) -> CompactOutcome {
        let t0 = self.instruments.clock.now_ns();
        // One fold at a time, end to end: the snapshot must still be the
        // newest generation when the swap happens (see `compact_gate`).
        let _gate = self.lock_gate();
        let snap = self.snapshot();
        let (folded_triples, new_base) = match snap.kb.store() {
            StoreBackend::Layered(l) if !l.delta().is_empty() => {
                let new_base = CsrStore::from_store(snap.kb.store());
                (Arc::clone(l.delta()), new_base)
            }
            _ => {
                self.instruments.compactions_skipped.inc();
                if let Some(ev) = self.instruments.events.lock().as_ref() {
                    ev.record_compact(None, 0, snap.epoch);
                }
                return CompactOutcome {
                    epoch: snap.epoch,
                    ..CompactOutcome::default()
                };
            }
        };

        let mut w = self.lock_writer();
        // Appends that raced the rebuild stay in the delta; everything the
        // pinned generation held is now part of the new base.
        let folded: &[Triple] = folded_triples.triples();
        w.delta.retain(|t| folded.binary_search(t).is_err());
        w.base = Arc::new(new_base);
        let (epoch, _) = self.publish(&w, None);
        drop(w);

        let elapsed_ns = self.instruments.clock.now_ns().saturating_sub(t0);
        self.instruments.compact_ns.record(elapsed_ns);
        self.instruments.compactions_performed.inc();
        let duration = Duration::from_nanos(elapsed_ns);
        if let Some(ev) = self.instruments.events.lock().as_ref() {
            ev.record_compact(Some(folded.len()), duration.as_micros() as u64, epoch);
        }
        CompactOutcome {
            performed: true,
            folded: folded.len(),
            epoch,
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KbBuilder, INVERSE_SUFFIX};

    fn base_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:cityIn", "e:France");
        b.add_iri("e:Lyon", "p:cityIn", "e:France");
        b.build().unwrap()
    }

    fn iri3(s: &str, p: &str, o: &str) -> (Term, String, Term) {
        (Term::iri(s), p.to_string(), Term::iri(o))
    }

    #[test]
    fn attached_recorder_sees_publish_and_compact_lifecycle() {
        use remi_obs::{FakeClock, FieldValue, Recorder};
        let live = LiveKb::new(base_kb());
        let recorder = Recorder::shared(32);
        let clock = Arc::new(FakeClock::new(100));
        live.attach_events(Arc::clone(&recorder), Arc::clone(&clock) as _);

        live.append([iri3("e:Nice", "p:cityIn", "e:France")]);
        clock.advance(50);
        assert!(live.compact().performed);
        live.compact(); // empty delta: skipped

        let events = recorder.events_since(0);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        // Append publishes once; the fold publishes again, then reports.
        assert_eq!(
            names,
            ["kb_publish", "kb_publish", "kb_compact", "kb_compact"]
        );
        assert_eq!(events[0].ts_ns, 100);
        assert!(events[0].fields.contains(&("epoch", FieldValue::U64(1))));
        assert!(events[0].fields.contains(&("batch", FieldValue::U64(1))));
        assert_eq!(events[2].ts_ns, 150);
        assert!(events[2]
            .fields
            .contains(&("outcome", FieldValue::Str("folded"))));
        assert!(events[2].fields.contains(&("folded", FieldValue::U64(1))));
        assert!(events[3]
            .fields
            .contains(&("outcome", FieldValue::Str("skipped"))));

        // Forks share the attachment: a fork's publish lands in the same
        // ring.
        let fork = live.fork();
        fork.append([iri3("e:Metz", "p:cityIn", "e:France")]);
        assert_eq!(recorder.events_since(0).last().unwrap().name, "kb_publish");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "lock-order inversion")]
    fn debug_assert_catches_gate_taken_while_holding_writer() {
        let live = LiveKb::new(base_kb());
        let _w = live.lock_writer();
        // lint:allow(delta-lock-order): this test exists to prove the runtime assert catches the inversion
        let _g = live.lock_gate();
    }

    #[test]
    fn gate_then_writer_is_the_blessed_order() {
        let live = LiveKb::new(base_kb());
        {
            let _g = live.lock_gate();
            let _w = live.lock_writer();
        }
        // The tracking resets on release: a fresh writer acquisition on
        // this thread is fine.
        drop(live.lock_writer());
        // lint:allow(delta-lock-order): the guards above are dropped, not held — the rule's per-function scan cannot see drops
        drop(live.lock_gate());
    }

    #[test]
    fn appended_triples_become_visible_in_the_next_snapshot() {
        let live = LiveKb::new(base_kb());
        let before = live.snapshot();
        let out = live.append(vec![iri3("e:Nice", "p:cityIn", "e:France")]);
        assert_eq!(out.appended, 1);
        assert_eq!(out.epoch, 1);
        let after = live.snapshot();

        // The pinned snapshot is untouched; the new one sees the fact.
        let p = after.kb.pred_id("p:cityIn").unwrap();
        let france = after.kb.node_id_by_iri("e:France").unwrap();
        let nice = after.kb.node_id_by_iri("e:Nice").unwrap();
        assert!(after.kb.contains(nice, p, france));
        assert_eq!(after.kb.subjects(p, france).len(), 3);
        assert!(before.kb.node_id_by_iri("e:Nice").is_none());
        assert_eq!(before.kb.subjects(p, france).len(), 2);
        assert_ne!(before.fingerprint, after.fingerprint);
    }

    #[test]
    fn duplicates_are_dropped_without_an_epoch() {
        let live = LiveKb::new(base_kb());
        let out = live.append(vec![iri3("e:Paris", "p:cityIn", "e:France")]);
        assert_eq!(out.appended, 0);
        assert_eq!(out.duplicates, 1);
        assert_eq!(out.epoch, 0);
        // Same triple staged twice: one accept, one duplicate.
        let out = live.append(vec![
            iri3("e:Nice", "p:cityIn", "e:France"),
            iri3("e:Nice", "p:cityIn", "e:France"),
        ]);
        assert_eq!(out.appended, 1);
        assert_eq!(out.duplicates, 1);
        // Re-appending a delta triple is also a duplicate.
        let out = live.append(vec![iri3("e:Nice", "p:cityIn", "e:France")]);
        assert_eq!(out.appended, 0);
        assert_eq!(out.duplicates, 1);
    }

    #[test]
    fn new_predicates_and_nodes_extend_the_dictionaries() {
        let live = LiveKb::new(base_kb());
        let out = live.append(vec![iri3("e:Seine", "p:flowsThrough", "e:Paris")]);
        assert_eq!(out.new_nodes, 1);
        assert_eq!(out.new_preds, 1);
        let snap = live.snapshot();
        let p = snap.kb.pred_id("p:flowsThrough").unwrap();
        let seine = snap.kb.node_id_by_iri("e:Seine").unwrap();
        let paris = snap.kb.node_id_by_iri("e:Paris").unwrap();
        assert!(snap.kb.contains(seine, p, paris));
        assert_eq!(snap.kb.index(p).num_facts(), 1);
        assert!(snap.kb.preds_of_subject(seine).contains_sorted(p.0));
        // The old subject gained nothing.
        assert_eq!(snap.kb.node_frequency(seine), 1);
    }

    #[test]
    fn appends_mirror_into_materialised_inverses() {
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:r", "e:hub");
        b.add_iri("e:b", "p:r", "e:hub");
        b.add_iri("e:c", "p:r", "e:hub");
        let kb = b.build_with_inverses(0.4).unwrap();
        let live = LiveKb::new(kb);
        let out = live.append(vec![iri3("e:d", "p:r", "e:hub")]);
        assert_eq!(out.appended, 2, "base fact + inverse mirror");
        let snap = live.snapshot();
        let base = snap.kb.pred_id("p:r").unwrap();
        let inv = snap.kb.inverse(base).unwrap();
        let hub = snap.kb.node_id_by_iri("e:hub").unwrap();
        let d = snap.kb.node_id_by_iri("e:d").unwrap();
        assert!(snap.kb.contains(d, base, hub));
        assert!(snap.kb.contains(hub, inv, d));
        // Base-triple count excludes the mirror.
        assert_eq!(snap.kb.num_triples(), 4);
        assert_eq!(snap.kb.num_triples_with_inverses(), 8);
    }

    #[test]
    fn mirrors_never_create_partial_inverse_adjacencies() {
        // hub is materialised (top-40%); cold is not, despite having a
        // base p:r fact.
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:r", "e:hub");
        b.add_iri("e:b", "p:r", "e:hub");
        b.add_iri("e:c", "p:r", "e:hub");
        b.add_iri("e:a", "p:r", "e:cold");
        let kb = b.build_with_inverses(0.2).unwrap();
        let live = LiveKb::new(kb);
        let snap0 = live.snapshot();
        let inv = snap0.kb.inverse(snap0.kb.pred_id("p:r").unwrap()).unwrap();
        let cold = snap0.kb.node_id_by_iri("e:cold").unwrap();
        assert!(
            snap0.kb.objects(inv, cold).is_empty(),
            "cold not in top set"
        );

        // Appending p:r(d, cold) must NOT mirror: a partial p:r⁻¹(cold,·)
        // adjacency would contradict p:r (a's edge has no mirror).
        let out = live.append(vec![iri3("e:d", "p:r", "e:cold")]);
        assert_eq!(out.appended, 1, "no mirror for a non-materialised object");
        let snap = live.snapshot();
        assert!(snap.kb.objects(inv, cold).is_empty());

        // Appending to the materialised hub still mirrors.
        let out = live.append(vec![iri3("e:e", "p:r", "e:hub")]);
        assert_eq!(out.appended, 2, "base fact + mirror for the hub");

        // Every materialised adjacency is complete: p⁻¹(o,·) == p(·,o).
        let snap = live.snapshot();
        let base_p = snap.kb.pred_id("p:r").unwrap();
        for (o, subs) in snap.kb.index(inv).iter_subjects() {
            assert_eq!(
                subs.to_vec(),
                snap.kb.subjects(base_p, o).to_vec(),
                "partial inverse adjacency for {o:?}"
            );
        }
    }

    #[test]
    fn direct_inverse_ingestion_backfills_the_new_adjacency() {
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:r", "e:hub");
        b.add_iri("e:b", "p:r", "e:hub");
        b.add_iri("e:c", "p:r", "e:hub");
        b.add_iri("e:a", "p:r", "e:cold");
        b.add_iri("e:b", "p:r", "e:cold");
        let kb = b.build_with_inverses(0.2).unwrap();
        let live = LiveKb::new(kb);
        // Directly ingest an inverse fact for the unmaterialised cold:
        // the base fact p:r(d, cold) is implied, and the pre-existing
        // p:r(a, cold), p:r(b, cold) mirrors are backfilled so the new
        // adjacency starts complete.
        let inv_iri = format!("p:r{INVERSE_SUFFIX}");
        let out = live.append(vec![(
            Term::iri("e:cold"),
            inv_iri.clone(),
            Term::iri("e:d"),
        )]);
        // inverse fact + implied base fact + 2 backfilled mirrors.
        assert_eq!(out.appended, 4, "{out:?}");
        let snap = live.snapshot();
        let inv = snap.kb.pred_id(&inv_iri).unwrap();
        let base_p = snap.kb.pred_id("p:r").unwrap();
        let cold = snap.kb.node_id_by_iri("e:cold").unwrap();
        assert_eq!(
            snap.kb.objects(inv, cold).to_vec(),
            snap.kb.subjects(base_p, cold).to_vec(),
            "backfilled adjacency must be complete"
        );
        assert_eq!(snap.kb.objects(inv, cold).len(), 3);
    }

    #[test]
    fn content_fingerprint_distinguishes_content_not_backend() {
        let kb = base_kb();
        let fp = content_fingerprint(&kb);
        // The same content behind a delta overlay: the first fact moves
        // into the delta, every id stays put.
        let mut b = KbBuilder::new();
        for n in kb.node_ids() {
            b.node(&kb.node_term(n));
        }
        for p in kb.pred_ids() {
            b.pred(kb.pred_iri(p));
        }
        let mut triples = kb.iter_triples();
        let moved = triples.next().unwrap();
        for t in triples {
            b.add_ids(t.s, t.p, t.o);
        }
        let live = LiveKb::new(b.build().unwrap());
        live.append([(
            kb.node_term(moved.s),
            kb.pred_iri(moved.p).to_string(),
            kb.node_term(moved.o),
        )]);
        let layered = live.snapshot();
        assert!(matches!(layered.kb.store(), StoreBackend::Layered(l) if l.delta_len() == 1));
        assert_eq!(fp, content_fingerprint(&layered.kb));
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:Germany");
        assert_ne!(fp, content_fingerprint(&b.build().unwrap()));
    }

    #[test]
    fn compaction_preserves_content_and_fingerprint() {
        let live = LiveKb::new(base_kb());
        live.append(vec![
            iri3("e:Nice", "p:cityIn", "e:France"),
            iri3("e:Berlin", "p:cityIn", "e:Germany"),
        ]);
        let before = live.snapshot();
        let out = live.compact();
        assert!(out.performed);
        assert_eq!(out.folded, 2);
        let after = live.snapshot();
        assert_eq!(after.epoch, before.epoch + 1);
        assert_eq!(after.fingerprint, before.fingerprint);
        // Folded: the overlay is empty again, content identical.
        match after.kb.store() {
            StoreBackend::Layered(l) => assert_eq!(l.delta_len(), 0),
            StoreBackend::Csr(_) => panic!("expected layered store, got CSR"),
        }
        let a: Vec<Triple> = before.kb.iter_triples().collect();
        let b: Vec<Triple> = after.kb.iter_triples().collect();
        assert_eq!(a, b);
        // Compacting an empty delta is a no-op.
        let noop = live.compact();
        assert!(!noop.performed);
        assert_eq!(live.snapshot().epoch, after.epoch);
    }

    #[test]
    fn needs_compaction_follows_the_policy() {
        let live = LiveKb::with_policy(
            base_kb(),
            CompactionPolicy {
                min_delta: 2,
                delta_fraction: 0.0,
            },
        );
        assert!(!live.needs_compaction());
        live.append(vec![iri3("e:Nice", "p:cityIn", "e:France")]);
        assert!(!live.needs_compaction());
        live.append(vec![iri3("e:Brest", "p:cityIn", "e:France")]);
        assert!(live.needs_compaction());
        live.compact();
        assert!(!live.needs_compaction());
    }

    #[test]
    fn stats_count_appends_duplicates_and_compactions() {
        let live = LiveKb::new(base_kb());
        live.append(vec![
            iri3("e:Nice", "p:cityIn", "e:France"),
            iri3("e:Paris", "p:cityIn", "e:France"),
        ]);
        live.compact();
        let ki = live.instruments();
        assert_eq!(ki.appends.get(), 1);
        assert_eq!(ki.appended_triples.get(), 1);
        assert_eq!(ki.duplicate_triples.get(), 1);
        assert_eq!(ki.compactions_performed.get(), 1);
        let snap = live.snapshot();
        assert_eq!(snap.delta_triples(), 0);
        assert_eq!(snap.base_facts(), 4);
        assert_eq!(snap.epoch, 2);
    }

    #[test]
    fn fork_appends_leave_the_parent_compaction_state_alone() {
        let live = LiveKb::with_policy(
            base_kb(),
            CompactionPolicy {
                min_delta: 1,
                delta_fraction: 0.0,
            },
        );
        let fork = live.fork();
        fork.append(vec![iri3("e:Nice", "p:cityIn", "e:France")]);
        assert!(fork.needs_compaction());
        assert!(!live.needs_compaction());
        assert_eq!(live.snapshot().delta_triples(), 0);
        // Event counters are fork-shared: the fork's batch counts in the
        // parent's series.
        assert_eq!(live.instruments().appends.get(), 1);
    }

    #[test]
    fn union_locate_inverts_union_positions() {
        // Base keys 10,20,30; delta-only keys 5 (rank 0, group 0) and
        // 25 (rank 2, group 1) → union 5,10,20,25,30.
        let only = vec![(0u32, 0u32), (2, 1)];
        assert_eq!(union_locate(&only, 0), Ok(0));
        assert_eq!(union_locate(&only, 1), Err(0));
        assert_eq!(union_locate(&only, 2), Err(1));
        assert_eq!(union_locate(&only, 3), Ok(1));
        assert_eq!(union_locate(&only, 4), Err(2));
        assert_eq!(union_locate(&[], 7), Err(7));
    }
}
