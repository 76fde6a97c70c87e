//! Triple-pattern queries and a small BGP (basic graph pattern) executor.
//!
//! The storage layer already holds every index a pattern engine needs —
//! SPO/OPS adjacency, the subject→predicates index, the merged delta
//! views — but until now exposed them only through per-primitive calls
//! (`objects`, `subjects`, `contains`). This module adds the missing
//! query surface:
//!
//! * [`TriplePattern`] — an `(s, p, o)` pattern where each slot is either
//!   a bound id or a variable, covering all 8 bound/unbound combinations.
//! * [`TripleStore::solve`] — the one unified entry point: every store
//!   (CSR, layered delta-overlay) resolves any pattern through
//!   the same [`SolutionIter`] state machine, streaming matches over
//!   [`Bindings`] runs with zero materialisation on the common paths.
//! * [`solve_bgp`] — joins 2–3 patterns on shared variables: patterns are
//!   reordered by estimated cardinality, bound variables are substituted
//!   (index nested-loop), and when every remaining pattern constrains the
//!   same single variable through a directly-indexed binding list the
//!   lists are intersected by sorted merge instead of re-enumerating. A
//!   row limit and cooperative [`CancelToken`] checks make it safe to run
//!   behind the server's admission control.
//! * [`parse_patterns`] — the IRI-level front end shared by `remi-serve`
//!   (`POST /query`) and the `remi query` CLI: `?name` slots are
//!   variables, everything else resolves through the dictionaries
//!   (unknown IRIs become provably-empty bound slots, not errors).
//!
//! Because the [`TripleStore`] contract fixes iteration order (all id
//! lists sorted ascending, groups in ascending key order), solutions —
//! and therefore BGP rows — are bit-identical across stores.

use std::sync::Arc;

use crate::backend::{Bindings, BindingsIter, TripleStore};
use crate::ids::{NodeId, PredId, Triple};
use crate::store::KnowledgeBase;
use remi_obs::{Channel, EventId, EventSpec, FieldKind, FieldSpec, Recorder, Severity};
use remi_pool::CancelToken;

/// Upper bound on patterns per BGP query.
pub const MAX_PATTERNS: usize = 3;

/// Upper bound on distinct variables per BGP query (3 patterns × 3 slots).
pub const MAX_VARS: usize = 9;

/// How many enumeration steps pass between cooperative cancel checks.
const CANCEL_STRIDE: u64 = 1024;

/// One slot of a [`TriplePattern`]: a bound id or a variable.
///
/// Bound values live in the [`NodeId`] space for subject/object slots and
/// the [`PredId`] space for the predicate slot. A bound id that does not
/// exist in the store (e.g. the `u32::MAX` sentinel
/// [`parse_patterns`] uses for unknown IRIs) simply matches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A bound id (node or predicate space, depending on the slot).
    Bound(u32),
    /// A variable, identified by a small dense id (`< MAX_VARS` for BGP
    /// use). The same id in several slots constrains them to be equal.
    Var(u8),
}

/// An `(s, p, o)` triple pattern — each slot bound or variable, covering
/// all 8 combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// Subject slot (node space).
    pub s: Slot,
    /// Predicate slot (predicate space).
    pub p: Slot,
    /// Object slot (node space).
    pub o: Slot,
}

impl TriplePattern {
    /// Creates a pattern.
    pub fn new(s: Slot, p: Slot, o: Slot) -> TriplePattern {
        TriplePattern { s, p, o }
    }

    /// The variable ids appearing in this pattern (with repeats).
    fn vars(self) -> impl Iterator<Item = u8> {
        [self.s, self.p, self.o]
            .into_iter()
            .filter_map(|slot| match slot {
                Slot::Var(v) => Some(v),
                Slot::Bound(_) => None,
            })
    }
}

/// Per-predicate stream state inside a [`SolutionIter`].
enum Inner<'a> {
    /// Nothing in flight for the current predicate.
    Idle,
    /// `(S, p, ?)`: streaming `objects(p, s)`.
    Objects {
        p: PredId,
        s: NodeId,
        it: BindingsIter<'a>,
    },
    /// `(?, p, O)`: streaming `subjects(p, o)`.
    Subjects {
        p: PredId,
        o: NodeId,
        it: BindingsIter<'a>,
    },
    /// `(?, p, ?)`: walking the predicate's subject groups in order.
    Groups {
        p: PredId,
        i: usize,
        n: usize,
        cur: Option<(NodeId, BindingsIter<'a>)>,
    },
}

/// Streaming iterator over all triples matching one [`TriplePattern`] —
/// the return type of [`TripleStore::solve`]. Yields [`Triple`]s in a
/// deterministic order (ascending predicate, then the store's sorted
/// group/binding order), identical across backends.
pub struct SolutionIter<'a> {
    store: &'a dyn TripleStore,
    /// Bound subject/object, if any.
    s: Option<NodeId>,
    o: Option<NodeId>,
    /// Predicate scan range (`p_next >= p_end` once exhausted). For a
    /// bound predicate this is a one-element range; a bound predicate
    /// outside the store's dense id space yields the empty range.
    p_next: u32,
    p_end: u32,
    /// When the subject is bound but the predicate is not, candidate
    /// predicates come from `preds_of_subject` instead of a full scan.
    preds: Option<BindingsIter<'a>>,
    inner: Inner<'a>,
    /// Repeated-variable equality filters (same variable in two slots).
    eq_sp: bool,
    eq_so: bool,
    eq_po: bool,
}

impl<'a> SolutionIter<'a> {
    /// Starts resolving `pat` against `store`. Out-of-range bound ids are
    /// legal and match nothing.
    pub fn new(store: &'a dyn TripleStore, pat: TriplePattern) -> SolutionIter<'a> {
        let np = store.num_preds() as u32;
        let (p_next, p_end, preds) = match (pat.p, pat.s) {
            (Slot::Bound(p), _) if p < np => (p, p + 1, None),
            (Slot::Bound(_), _) => (0, 0, None), // unknown predicate
            (Slot::Var(_), Slot::Bound(s)) => {
                (0, 0, Some(store.preds_of_subject(NodeId(s)).iter()))
            }
            (Slot::Var(_), Slot::Var(_)) => (0, np, None),
        };
        let eq = |a: Slot, b: Slot| matches!((a, b), (Slot::Var(x), Slot::Var(y)) if x == y);
        SolutionIter {
            store,
            s: match pat.s {
                Slot::Bound(v) => Some(NodeId(v)),
                Slot::Var(_) => None,
            },
            o: match pat.o {
                Slot::Bound(v) => Some(NodeId(v)),
                Slot::Var(_) => None,
            },
            p_next,
            p_end,
            preds,
            inner: Inner::Idle,
            eq_sp: eq(pat.s, pat.p),
            eq_so: eq(pat.s, pat.o),
            eq_po: eq(pat.p, pat.o),
        }
    }

    /// Repeated-variable filter: a candidate survives only if slots
    /// sharing a variable carry equal ids.
    #[inline]
    fn keep(&self, t: Triple) -> bool {
        (!self.eq_sp || t.s.0 == t.p.0)
            && (!self.eq_so || t.s.0 == t.o.0)
            && (!self.eq_po || t.p.0 == t.o.0)
    }

    /// Next candidate from the current per-predicate stream.
    fn step_inner(&mut self) -> Option<Triple> {
        let store = self.store;
        match &mut self.inner {
            Inner::Idle => None,
            Inner::Objects { p, s, it } => it.next().map(|o| Triple::new(*s, *p, NodeId(o))),
            Inner::Subjects { p, o, it } => it.next().map(|s| Triple::new(NodeId(s), *p, *o)),
            Inner::Groups { p, i, n, cur } => loop {
                if let Some((s, it)) = cur {
                    if let Some(o) = it.next() {
                        return Some(Triple::new(*s, *p, NodeId(o)));
                    }
                }
                if *i >= *n {
                    return None;
                }
                let s = store.subject_at(*p, *i);
                let it = store.objects_at(*p, *i).iter();
                *i += 1;
                *cur = Some((s, it));
            },
        }
    }
}

impl Iterator for SolutionIter<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        loop {
            if let Some(t) = self.step_inner() {
                if self.keep(t) {
                    return Some(t);
                }
                continue;
            }
            // Current predicate exhausted: advance to the next candidate.
            let p = match &mut self.preds {
                Some(it) => PredId(it.next()?),
                None => {
                    if self.p_next >= self.p_end {
                        return None;
                    }
                    let p = PredId(self.p_next);
                    self.p_next += 1;
                    p
                }
            };
            self.inner = match (self.s, self.o) {
                (Some(s), Some(o)) => {
                    if self.store.contains(s, p, o) {
                        let t = Triple::new(s, p, o);
                        if self.keep(t) {
                            return Some(t);
                        }
                    }
                    continue;
                }
                (Some(s), None) => Inner::Objects {
                    p,
                    s,
                    it: self.store.objects(p, s).iter(),
                },
                (None, Some(o)) => Inner::Subjects {
                    p,
                    o,
                    it: self.store.subjects(p, o).iter(),
                },
                (None, None) => Inner::Groups {
                    p,
                    i: 0,
                    n: self.store.num_subjects(p),
                    cur: None,
                },
            };
        }
    }
}

/// Estimated number of solutions of `pat` — the join-ordering statistic.
/// Exact for most shapes; an upper bound for `(S, ?p, O)` (which counts
/// the subject's predicates, not the matches among them) and for repeated
/// variables. Computed from index statistics only (`num_facts`, group lens),
/// never by enumeration. Identical across backends for the same logical
/// content, so query plans — and with them row order under truncation —
/// are backend-independent.
pub fn estimated_cardinality(store: &dyn TripleStore, pat: TriplePattern) -> usize {
    let np = store.num_preds() as u32;
    match (pat.s, pat.p, pat.o) {
        (_, Slot::Bound(p), _) if p >= np => 0,
        (Slot::Bound(s), Slot::Bound(p), Slot::Bound(o)) => {
            usize::from(store.contains(NodeId(s), PredId(p), NodeId(o)))
        }
        (Slot::Bound(s), Slot::Bound(p), Slot::Var(_)) => store.objects(PredId(p), NodeId(s)).len(),
        (Slot::Var(_), Slot::Bound(p), Slot::Bound(o)) => {
            store.subjects(PredId(p), NodeId(o)).len()
        }
        (Slot::Var(_), Slot::Bound(p), Slot::Var(_)) => store.num_facts(PredId(p)),
        (Slot::Bound(s), Slot::Var(_), Slot::Bound(_)) => store.preds_of_subject(NodeId(s)).len(),
        (Slot::Bound(s), Slot::Var(_), Slot::Var(_)) => store
            .preds_of_subject(NodeId(s))
            .iter()
            .map(|p| store.objects(PredId(p), NodeId(s)).len())
            .sum(),
        (Slot::Var(_), Slot::Var(_), Slot::Bound(o)) => (0..np)
            .map(|p| store.subjects(PredId(p), NodeId(o)).len())
            .sum(),
        (Slot::Var(_), Slot::Var(_), Slot::Var(_)) => {
            (0..np).map(|p| store.num_facts(PredId(p))).sum()
        }
    }
}

/// Why a BGP query was rejected or aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query held no patterns.
    NoPatterns,
    /// More than [`MAX_PATTERNS`] patterns.
    TooManyPatterns,
    /// A variable id at or above [`MAX_VARS`].
    VarOutOfRange(u8),
    /// The [`CancelToken`] fired mid-evaluation.
    Cancelled,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NoPatterns => write!(f, "query must hold at least one pattern"),
            QueryError::TooManyPatterns => {
                write!(f, "query must hold at most {MAX_PATTERNS} patterns")
            }
            QueryError::VarOutOfRange(v) => {
                write!(
                    f,
                    "variable id {v} out of range (max {} variables)",
                    MAX_VARS
                )
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The result of a BGP evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BgpOutcome {
    /// The distinct variable ids, ascending — the header of `rows`.
    pub vars: Vec<u8>,
    /// One row per solution: the bound value of each variable of `vars`,
    /// in the same order.
    pub rows: Vec<Vec<u32>>,
    /// True when enumeration stopped at the row limit (more solutions may
    /// exist).
    pub truncated: bool,
}

/// One executed pattern of a [`PlanTrace`], in plan (execution) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The pattern's index in the *request* order (the planner reorders).
    pub pattern: usize,
    /// The planner's [`estimated_cardinality`] for the pattern, unbound.
    pub estimated: usize,
    /// Matches this pattern actually produced during evaluation: triples
    /// enumerated at its nested-loop position, or rows it admitted
    /// through the merge intersection. The est-vs-actual pair is the
    /// feedback signal the join-aware-statistics roadmap item needs.
    pub matches: u64,
}

/// How one BGP evaluation ran: the chosen join order with
/// estimated-vs-actual cardinalities, whether the sorted-merge fast path
/// finished the join, and whether the row limit truncated enumeration.
///
/// Like [`BgpOutcome`], a trace is a function of the KB's *logical*
/// content only — both storage backends plan the same order, estimate
/// the same cardinalities, and enumerate the same matches, a property
/// the differential suite pins down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanTrace {
    /// One entry per pattern, in execution order.
    pub steps: Vec<PlanStep>,
    /// True when the sorted-merge intersection answered the tail of the
    /// join instead of further nested-loop recursion.
    pub merge_fast_path: bool,
    /// Mirror of [`BgpOutcome::truncated`].
    pub truncated: bool,
}

/// Joins up to [`MAX_PATTERNS`] patterns on their shared variables.
///
/// Patterns are reordered greedily by [`estimated_cardinality`]
/// (connected-to-bound-variables first), evaluated by index nested-loop
/// with bound-variable substitution, and — whenever every remaining
/// pattern constrains the same single free variable through a directly
/// indexed binding list — finished by a sorted-merge intersection of
/// those [`Bindings`] instead of re-enumeration. Enumeration stops after
/// `limit` rows (`truncated` reports whether it did) and checks `cancel`
/// cooperatively every `CANCEL_STRIDE` steps, so long scans abort
/// promptly under server shutdown or admission pressure.
pub fn solve_bgp(
    store: &dyn TripleStore,
    patterns: &[TriplePattern],
    limit: usize,
    cancel: Option<&CancelToken>,
) -> Result<BgpOutcome, QueryError> {
    solve_bgp_traced(store, patterns, limit, cancel).map(|(out, _)| out)
}

/// [`solve_bgp`], additionally returning the [`PlanTrace`] of how the
/// join ran — the `?explain=1` and flight-recorder entry point. The
/// outcome is bit-identical to `solve_bgp`'s: tracing only counts work
/// the evaluation does anyway.
pub fn solve_bgp_traced(
    store: &dyn TripleStore,
    patterns: &[TriplePattern],
    limit: usize,
    cancel: Option<&CancelToken>,
) -> Result<(BgpOutcome, PlanTrace), QueryError> {
    if patterns.is_empty() {
        return Err(QueryError::NoPatterns);
    }
    if patterns.len() > MAX_PATTERNS {
        return Err(QueryError::TooManyPatterns);
    }
    let mut seen = [false; MAX_VARS];
    for pat in patterns {
        for v in pat.vars() {
            if (v as usize) >= MAX_VARS {
                return Err(QueryError::VarOutOfRange(v));
            }
            seen[v as usize] = true;
        }
    }
    if let Some(c) = cancel {
        if c.is_cancelled() {
            return Err(QueryError::Cancelled);
        }
    }
    let vars: Vec<u8> = (0..MAX_VARS as u8).filter(|&v| seen[v as usize]).collect();
    let est: Vec<usize> = patterns
        .iter()
        .map(|&p| estimated_cardinality(store, p))
        .collect();
    let order = plan(patterns, &est);
    let mut cx = EvalCx {
        store,
        patterns,
        order: &order,
        vars: &vars,
        limit: limit.max(1),
        cancel,
        env: [None; MAX_VARS],
        rows: Vec::new(),
        steps: 0,
        matches: [0; MAX_PATTERNS],
        merge_used: false,
    };
    let truncated = cx.eval(0)?;
    let trace = PlanTrace {
        steps: order
            .iter()
            .map(|&i| PlanStep {
                pattern: i,
                estimated: est.get(i).copied().unwrap_or(0),
                matches: cx.matches.get(i).copied().unwrap_or(0),
            })
            .collect(),
        merge_fast_path: cx.merge_used,
        truncated,
    };
    let rows = cx.rows;
    Ok((
        BgpOutcome {
            vars,
            rows,
            truncated,
        },
        trace,
    ))
}

/// Greedy join ordering: start from the smallest estimated pattern, then
/// repeatedly take the smallest pattern connected to an already-bound
/// variable (falling back to the smallest disconnected one — a cross
/// product — only when nothing connects). Ties break on the original
/// pattern index, so plans are fully deterministic.
fn plan(patterns: &[TriplePattern], est: &[usize]) -> Vec<usize> {
    let mut order = Vec::with_capacity(patterns.len());
    let mut used = vec![false; patterns.len()];
    let mut bound = [false; MAX_VARS];
    for _ in 0..patterns.len() {
        let mut best: Option<(bool, usize, usize)> = None;
        for (i, &pat) in patterns.iter().enumerate() {
            if used[i] {
                continue;
            }
            let connected =
                order.is_empty() || pat.vars().any(|v| bound.get(v as usize) == Some(&true));
            let key = (!connected, est.get(i).copied().unwrap_or(usize::MAX), i);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((_, _, i)) = best else { break };
        used[i] = true;
        order.push(i);
        for v in patterns[i].vars() {
            if let Some(slot) = bound.get_mut(v as usize) {
                *slot = true;
            }
        }
    }
    order
}

/// Substitutes already-bound variables into a pattern.
fn substitute(pat: TriplePattern, env: &[Option<u32>; MAX_VARS]) -> TriplePattern {
    let sub = |slot: Slot| match slot {
        Slot::Var(v) => match env.get(v as usize).copied().flatten() {
            Some(val) => Slot::Bound(val),
            None => Slot::Var(v),
        },
        bound => bound,
    };
    TriplePattern::new(sub(pat.s), sub(pat.p), sub(pat.o))
}

/// A substituted pattern whose single free variable is answered by one
/// directly-indexed binding list — the unit of the sorted-merge fast
/// path.
enum DirectList {
    /// `(S, P, ?v)` → `objects(p, s)`.
    Objects(PredId, NodeId),
    /// `(?v, P, O)` → `subjects(p, o)`.
    Subjects(PredId, NodeId),
}

/// Classifies a substituted pattern for the merge fast path.
fn direct(pat: TriplePattern) -> Option<(u8, DirectList)> {
    match (pat.s, pat.p, pat.o) {
        (Slot::Bound(s), Slot::Bound(p), Slot::Var(v)) => {
            Some((v, DirectList::Objects(PredId(p), NodeId(s))))
        }
        (Slot::Var(v), Slot::Bound(p), Slot::Bound(o)) => {
            Some((v, DirectList::Subjects(PredId(p), NodeId(o))))
        }
        _ => None,
    }
}

/// Shared state of one BGP evaluation.
struct EvalCx<'a, 'b> {
    store: &'a dyn TripleStore,
    patterns: &'b [TriplePattern],
    order: &'b [usize],
    vars: &'b [u8],
    limit: usize,
    cancel: Option<&'b CancelToken>,
    env: [Option<u32>; MAX_VARS],
    rows: Vec<Vec<u32>>,
    steps: u64,
    /// Matches produced per pattern, indexed by *request* pattern index.
    matches: [u64; MAX_PATTERNS],
    /// Whether the sorted-merge fast path answered any join tail.
    merge_used: bool,
}

impl EvalCx<'_, '_> {
    /// One enumeration step; errs when the token cancelled.
    #[inline]
    fn tick(&mut self) -> Result<(), QueryError> {
        self.steps += 1;
        if self.steps.is_multiple_of(CANCEL_STRIDE) {
            if let Some(c) = self.cancel {
                if c.is_cancelled() {
                    return Err(QueryError::Cancelled);
                }
            }
        }
        Ok(())
    }

    /// Emits the current environment as a row. Returns true when the row
    /// limit is reached (callers unwind).
    fn emit(&mut self) -> bool {
        self.rows.push(
            self.vars
                .iter()
                .map(|&v| self.env.get(v as usize).copied().flatten().unwrap_or(0))
                .collect(),
        );
        self.rows.len() >= self.limit
    }

    /// Recursive index-nested-loop over `order[depth..]`. Returns true
    /// when enumeration stopped at the row limit.
    fn eval(&mut self, depth: usize) -> Result<bool, QueryError> {
        if depth == self.order.len() {
            return Ok(self.emit());
        }
        // Sorted-merge fast path: every remaining pattern reduces to a
        // directly-indexed binding list over one shared free variable —
        // intersect the sorted lists instead of nesting further.
        if let Some((v, lists)) = self.merge_candidate(depth) {
            self.merge_used = true;
            return self.merge_join(depth, v, lists);
        }
        let idx = self.order[depth];
        let pat = substitute(self.patterns[idx], &self.env);
        for t in SolutionIter::new(self.store, pat) {
            self.tick()?;
            if let Some(n) = self.matches.get_mut(idx) {
                *n += 1;
            }
            self.bind(pat, t);
            let done = self.eval(depth + 1)?;
            self.unbind(pat);
            if done {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Binds the free variables of `pat` from the matched triple.
    fn bind(&mut self, pat: TriplePattern, t: Triple) {
        for (slot, val) in [(pat.s, t.s.0), (pat.p, t.p.0), (pat.o, t.o.0)] {
            if let Slot::Var(v) = slot {
                if let Some(cell) = self.env.get_mut(v as usize) {
                    *cell = Some(val);
                }
            }
        }
    }

    /// Clears the variables `bind` set for `pat`.
    fn unbind(&mut self, pat: TriplePattern) {
        for v in pat.vars() {
            if let Some(cell) = self.env.get_mut(v as usize) {
                *cell = None;
            }
        }
    }

    /// When all of `order[depth..]` substitute to direct lists over one
    /// shared variable, returns that variable and the lists.
    fn merge_candidate(&self, depth: usize) -> Option<(u8, Vec<DirectList>)> {
        let mut var = None;
        let mut lists = Vec::with_capacity(self.order.len() - depth);
        for &idx in &self.order[depth..] {
            let (v, list) = direct(substitute(self.patterns[idx], &self.env))?;
            if *var.get_or_insert(v) != v {
                return None;
            }
            lists.push(list);
        }
        var.map(|v| (v, lists))
    }

    /// Sorted-merge intersection of the direct lists: the smallest list
    /// drives, membership in the others is checked in sorted order.
    /// Emits rows in ascending order of `v` — exactly the order the
    /// nested-loop continuation would produce. Each emitted value counts
    /// as one match for every pattern the intersection covers
    /// (`order[depth..]`), mirroring what the nested loops would have
    /// attributed.
    fn merge_join(
        &mut self,
        depth: usize,
        v: u8,
        lists: Vec<DirectList>,
    ) -> Result<bool, QueryError> {
        let np = self.store.num_preds() as u32;
        let lists: Vec<Bindings<'_>> = lists
            .iter()
            .map(|l| match *l {
                DirectList::Objects(p, s) if p.0 < np => self.store.objects(p, s),
                DirectList::Subjects(p, o) if p.0 < np => self.store.subjects(p, o),
                _ => Bindings::EMPTY,
            })
            .collect();
        let Some(driver) = (0..lists.len()).min_by_key(|&i| (lists[i].len(), i)) else {
            return Ok(false);
        };
        for val in lists[driver].iter() {
            self.tick()?;
            let hit = lists
                .iter()
                .enumerate()
                .all(|(i, b)| i == driver || b.contains_sorted(val));
            if hit {
                for &idx in self.order.get(depth..).unwrap_or(&[]) {
                    if let Some(n) = self.matches.get_mut(idx) {
                        *n += 1;
                    }
                }
                if let Some(cell) = self.env.get_mut(v as usize) {
                    *cell = Some(val);
                }
                let done = self.emit();
                if let Some(cell) = self.env.get_mut(v as usize) {
                    *cell = None;
                }
                if done {
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

// ---------------------------------------------------------------------------
// Flight-recorder vocabulary

/// The join-path vocabulary of the `query_plan` event's `path` field.
const JOIN_PATH: &[&str] = &["nested", "merge"];

/// The planner's flight-recorder vocabulary: pre-defined [`EventId`]s over
/// a shared [`Recorder`], so emitting a whole plan is a handful of
/// allocation-free `emit` calls. The kb crate owns the event shapes;
/// callers (the server) own the recorder, the clock, and when to record.
#[derive(Debug, Clone)]
pub struct QueryEvents {
    recorder: Arc<Recorder>,
    plan: EventId,
    pattern: EventId,
    cancelled: EventId,
}

impl QueryEvents {
    /// Interns the planner event specs on `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> QueryEvents {
        let plan = recorder.define(EventSpec {
            name: "query_plan",
            channel: Channel::Query,
            severity: Severity::Info,
            fields: &[
                FieldSpec {
                    key: "patterns",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "rows",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "truncated",
                    kind: FieldKind::Bool,
                },
                FieldSpec {
                    key: "path",
                    kind: FieldKind::Enum(JOIN_PATH),
                },
            ],
        });
        let pattern = recorder.define(EventSpec {
            name: "query_pattern",
            channel: Channel::Query,
            severity: Severity::Debug,
            fields: &[
                FieldSpec {
                    key: "step",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "pattern",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "estimated",
                    kind: FieldKind::U64,
                },
                FieldSpec {
                    key: "matches",
                    kind: FieldKind::U64,
                },
            ],
        });
        let cancelled = recorder.define(EventSpec {
            name: "query_cancelled",
            channel: Channel::Query,
            severity: Severity::Warn,
            fields: &[FieldSpec {
                key: "patterns",
                kind: FieldKind::U64,
            }],
        });
        QueryEvents {
            recorder,
            plan,
            pattern,
            cancelled,
        }
    }

    /// Records one evaluated plan: a `query_pattern` event per step (in
    /// execution order, est-vs-actual cardinalities) and one summarising
    /// `query_plan` event.
    pub fn record(&self, ts_ns: u64, trace: &PlanTrace, rows: usize) {
        for (step, s) in trace.steps.iter().enumerate() {
            self.recorder.emit(
                self.pattern,
                ts_ns,
                &[step as u64, s.pattern as u64, s.estimated as u64, s.matches],
            );
        }
        self.recorder.emit(
            self.plan,
            ts_ns,
            &[
                trace.steps.len() as u64,
                rows as u64,
                trace.truncated as u64,
                trace.merge_fast_path as u64,
            ],
        );
    }

    /// Records a query aborted by its [`CancelToken`].
    pub fn record_cancelled(&self, ts_ns: u64, patterns: usize) {
        self.recorder
            .emit(self.cancelled, ts_ns, &[patterns as u64]);
    }
}

// ---------------------------------------------------------------------------
// IRI-level front end (shared by `remi-serve` and the CLI)

/// A BGP parsed from IRI-level pattern strings: dense-id patterns plus
/// the variable table needed to decode rows back to IRIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedQuery {
    /// The dense-id patterns, ready for [`solve_bgp`].
    pub patterns: Vec<TriplePattern>,
    /// Variable names by variable id (first-appearance order).
    pub var_names: Vec<String>,
    /// Whether the variable binds predicate ids (`true`) or node ids.
    pub pred_var: Vec<bool>,
}

/// Why IRI-level patterns failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// A bare `?` with no variable name.
    EmptyVariableName,
    /// The same variable used in both a predicate slot and a node slot
    /// (the id spaces are distinct, so the join is meaningless).
    MixedVariablePosition(String),
    /// More than [`MAX_VARS`] distinct variables.
    TooManyVariables,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::EmptyVariableName => {
                write!(f, "variable name after '?' must not be empty")
            }
            PatternError::MixedVariablePosition(name) => write!(
                f,
                "variable ?{name} used in both predicate and subject/object positions"
            ),
            PatternError::TooManyVariables => {
                write!(f, "query must use at most {MAX_VARS} distinct variables")
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// Parses IRI-level patterns: a slot starting with `?` is a variable
/// (named by the rest), anything else is an IRI resolved through the
/// dictionaries. Unknown IRIs resolve to an out-of-range bound id, so
/// they match nothing rather than erroring — a query about an absent
/// entity has zero rows, the same contract as `solve` itself.
pub fn parse_patterns(
    kb: &KnowledgeBase,
    raw: &[[String; 3]],
) -> Result<ResolvedQuery, PatternError> {
    let mut var_names: Vec<String> = Vec::new();
    let mut pred_var: Vec<bool> = Vec::new();
    let mut patterns = Vec::with_capacity(raw.len());
    for t in raw {
        let mut slot = |text: &str, is_pred: bool| -> Result<Slot, PatternError> {
            if let Some(name) = text.strip_prefix('?') {
                if name.is_empty() {
                    return Err(PatternError::EmptyVariableName);
                }
                let id = match var_names.iter().position(|n| n == name) {
                    Some(i) => {
                        if pred_var.get(i).copied() != Some(is_pred) {
                            return Err(PatternError::MixedVariablePosition(name.to_string()));
                        }
                        i
                    }
                    None => {
                        if var_names.len() >= MAX_VARS {
                            return Err(PatternError::TooManyVariables);
                        }
                        var_names.push(name.to_string());
                        pred_var.push(is_pred);
                        var_names.len() - 1
                    }
                };
                Ok(Slot::Var(id as u8))
            } else if is_pred {
                Ok(Slot::Bound(kb.pred_id(text).map_or(u32::MAX, |p| p.0)))
            } else {
                Ok(Slot::Bound(
                    kb.node_id_by_iri(text).map_or(u32::MAX, |n| n.0),
                ))
            }
        };
        let (s, p, o) = (slot(&t[0], false)?, slot(&t[1], true)?, slot(&t[2], false)?);
        patterns.push(TriplePattern::new(s, p, o));
    }
    Ok(ResolvedQuery {
        patterns,
        var_names,
        pred_var,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KbBuilder;
    use crate::term::Term;

    /// a —r0→ b, a —r0→ c, b —r0→ c, a —r1→ a, c —r1→ b.
    const FACTS: [(&str, &str, &str); 5] = [
        ("e:a", "p:r0", "e:b"),
        ("e:a", "p:r0", "e:c"),
        ("e:b", "p:r0", "e:c"),
        ("e:a", "p:r1", "e:a"),
        ("e:c", "p:r1", "e:b"),
    ];

    fn build(facts: &[(&str, &str, &str)]) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for &(s, p, o) in facts {
            b.add_iri(s, p, o);
        }
        b.build().unwrap()
    }

    fn kb() -> KnowledgeBase {
        build(&FACTS)
    }

    /// The same KB on the layered store: the `r1` facts sit in a delta
    /// over a CSR base of the `r0` ones. Ids match [`kb`]'s (same intern
    /// order).
    fn layered() -> KnowledgeBase {
        let live = crate::LiveKb::new(build(&FACTS[..3]));
        live.append(
            FACTS[3..]
                .iter()
                .map(|&(s, p, o)| (Term::iri(s), p.to_string(), Term::iri(o))),
        );
        let kb = (*live.snapshot().kb).clone();
        assert!(
            matches!(kb.store(), crate::backend::StoreBackend::Layered(l) if l.delta_len() == 2)
        );
        kb
    }

    fn node(kb: &KnowledgeBase, iri: &str) -> u32 {
        kb.node_id_by_iri(iri).unwrap().0
    }

    fn pred(kb: &KnowledgeBase, iri: &str) -> u32 {
        kb.pred_id(iri).unwrap().0
    }

    /// Filter-scan reference for a single pattern (repeated vars included).
    fn naive(kb: &KnowledgeBase, pat: TriplePattern) -> Vec<Triple> {
        let hit = |slot: Slot, val: u32| match slot {
            Slot::Bound(b) => b == val,
            Slot::Var(_) => true,
        };
        let eq = |a: Slot, b: Slot, x: u32, y: u32| {
            !matches!((a, b), (Slot::Var(u), Slot::Var(v)) if u == v) || x == y
        };
        let mut out: Vec<Triple> = kb
            .iter_triples()
            .filter(|t| hit(pat.s, t.s.0) && hit(pat.p, t.p.0) && hit(pat.o, t.o.0))
            .filter(|t| {
                eq(pat.s, pat.p, t.s.0, t.p.0)
                    && eq(pat.s, pat.o, t.s.0, t.o.0)
                    && eq(pat.p, pat.o, t.p.0, t.o.0)
            })
            .collect();
        out.sort();
        out
    }

    fn solve_sorted(store: &dyn TripleStore, pat: TriplePattern) -> Vec<Triple> {
        let mut out: Vec<Triple> = SolutionIter::new(store, pat).collect();
        out.sort();
        out
    }

    #[test]
    fn all_eight_shapes_match_naive_on_both_backends() {
        let kb = kb();
        let (a, c) = (node(&kb, "e:a"), node(&kb, "e:c"));
        let r0 = pred(&kb, "p:r0");
        let layered = layered();
        for s in [Slot::Bound(a), Slot::Var(0)] {
            for p in [Slot::Bound(r0), Slot::Var(1)] {
                for o in [Slot::Bound(c), Slot::Var(2)] {
                    let pat = TriplePattern::new(s, p, o);
                    let want = naive(&kb, pat);
                    assert_eq!(solve_sorted(kb.store(), pat), want, "csr {pat:?}");
                    assert_eq!(solve_sorted(layered.store(), pat), want, "layered {pat:?}");
                    let est = estimated_cardinality(kb.store(), pat);
                    assert!(
                        est >= want.len(),
                        "estimate {pat:?}: {est} < {}",
                        want.len()
                    );
                    // Exact everywhere except (S, ?p, O), which counts
                    // the subject's predicates.
                    if !matches!((s, p, o), (Slot::Bound(_), Slot::Var(_), Slot::Bound(_))) {
                        assert_eq!(est, want.len(), "estimate {pat:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_variable_filters_to_self_loops() {
        let kb = kb();
        let pat = TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(0));
        let got = solve_sorted(kb.store(), pat);
        assert_eq!(got, naive(&kb, pat));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].s, got[0].o);
    }

    #[test]
    fn out_of_range_bound_ids_match_nothing() {
        let kb = kb();
        for pat in [
            TriplePattern::new(Slot::Bound(u32::MAX), Slot::Var(0), Slot::Var(1)),
            TriplePattern::new(Slot::Var(0), Slot::Bound(u32::MAX), Slot::Var(1)),
            TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Bound(u32::MAX)),
            TriplePattern::new(Slot::Bound(u32::MAX), Slot::Bound(u32::MAX), Slot::Bound(0)),
        ] {
            assert!(solve_sorted(kb.store(), pat).is_empty(), "{pat:?}");
            assert_eq!(estimated_cardinality(kb.store(), pat), 0, "{pat:?}");
        }
    }

    #[test]
    fn trait_entry_point_solves_on_concrete_stores() {
        let kb = kb();
        let pat = TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        assert_eq!(kb.store().solve(pat).count(), 5);
    }

    #[test]
    fn traced_solve_mirrors_solve_and_is_backend_independent() {
        let kb = kb();
        let layered = layered();
        let a = Slot::Bound(node(&kb, "e:a"));
        let b = Slot::Bound(node(&kb, "e:b"));
        let r0 = Slot::Bound(pred(&kb, "p:r0"));
        let r1 = Slot::Bound(pred(&kb, "p:r1"));
        let scan = vec![TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(2))];
        let merge = vec![
            TriplePattern::new(a, r0, Slot::Var(0)),
            TriplePattern::new(Slot::Var(0), r1, b),
        ];
        for patterns in [&scan, &merge] {
            let (out, trace) = solve_bgp_traced(kb.store(), patterns, 100, None).unwrap();
            assert_eq!(out, solve_bgp(kb.store(), patterns, 100, None).unwrap());
            let (sout, strace) = solve_bgp_traced(layered.store(), patterns, 100, None).unwrap();
            assert_eq!(out, sout);
            assert_eq!(trace, strace);
            assert_eq!(trace.steps.len(), patterns.len());
        }
        // The merge case in detail: `a —r0→ {b,c}` intersected with
        // `subjects(r1, b) = {c}` admits one row; each pattern counts it.
        let (out, trace) = solve_bgp_traced(kb.store(), &merge, 100, None).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert!(trace.merge_fast_path);
        assert!(!trace.truncated);
        // The planner starts from the smaller estimate: pattern 1.
        assert_eq!(trace.steps[0].pattern, 1);
        for step in &trace.steps {
            assert_eq!(step.matches, 1);
            assert!(step.estimated >= 1, "{step:?}");
        }
        // The scan case: pure nested loop over all five triples.
        let (_, trace) = solve_bgp_traced(kb.store(), &scan, 100, None).unwrap();
        assert!(!trace.merge_fast_path);
        assert_eq!(trace.steps[0].matches, 5);
        assert_eq!(trace.steps[0].estimated, 5);
    }

    #[test]
    fn query_events_record_plan_pattern_and_cancellation() {
        use remi_obs::{Clock as _, FakeClock, FieldValue, Recorder};
        let kb = kb();
        let clock = FakeClock::new(10);
        let recorder = Recorder::shared(32);
        let events = QueryEvents::new(Arc::clone(&recorder));
        let r0 = Slot::Bound(pred(&kb, "p:r0"));
        let (out, trace) = solve_bgp_traced(
            kb.store(),
            &[TriplePattern::new(Slot::Var(0), r0, Slot::Var(1))],
            2,
            None,
        )
        .unwrap();
        events.record(clock.now_ns(), &trace, out.rows.len());
        clock.advance(5);
        events.record_cancelled(clock.now_ns(), 1);
        let recs = recorder.events_since(0);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].name, "query_pattern");
        assert_eq!(recs[1].name, "query_plan");
        assert_eq!(recs[1].ts_ns, 10);
        assert!(recs[1]
            .fields
            .contains(&("truncated", FieldValue::Bool(true))));
        assert!(recs[1]
            .fields
            .contains(&("path", FieldValue::Str("nested"))));
        assert!(recs[1].fields.contains(&("rows", FieldValue::U64(2))));
        assert_eq!(recs[2].name, "query_cancelled");
        assert_eq!(recs[2].ts_ns, 15);
    }

    #[test]
    fn two_pattern_join_chains_r0() {
        let kb = kb();
        let r0 = Slot::Bound(pred(&kb, "p:r0"));
        // ?0 —r0→ ?1 —r0→ ?2: only a→b→c survives the join.
        let out = solve_bgp(
            kb.store(),
            &[
                TriplePattern::new(Slot::Var(0), r0, Slot::Var(1)),
                TriplePattern::new(Slot::Var(1), r0, Slot::Var(2)),
            ],
            100,
            None,
        )
        .unwrap();
        assert_eq!(out.vars, vec![0, 1, 2]);
        assert!(!out.truncated);
        assert_eq!(
            out.rows,
            vec![vec![node(&kb, "e:a"), node(&kb, "e:b"), node(&kb, "e:c")]]
        );
    }

    #[test]
    fn merge_fast_path_intersects_shared_var() {
        let kb = kb();
        let (a, b) = (node(&kb, "e:a"), node(&kb, "e:b"));
        let r0 = Slot::Bound(pred(&kb, "p:r0"));
        // Objects reachable over r0 from BOTH a and b: exactly c.
        let out = solve_bgp(
            kb.store(),
            &[
                TriplePattern::new(Slot::Bound(a), r0, Slot::Var(0)),
                TriplePattern::new(Slot::Bound(b), r0, Slot::Var(0)),
            ],
            100,
            None,
        )
        .unwrap();
        assert_eq!(out.vars, vec![0]);
        assert_eq!(out.rows, vec![vec![node(&kb, "e:c")]]);
    }

    #[test]
    fn limit_truncates_and_reports_it() {
        let kb = kb();
        let pat = TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        let out = solve_bgp(kb.store(), &[pat], 2, None).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert!(out.truncated);
        let full = solve_bgp(kb.store(), &[pat], 100, None).unwrap();
        assert_eq!(full.rows.len(), 5);
        assert!(!full.truncated);
        // Truncation is a prefix of the full enumeration (stable order).
        assert_eq!(out.rows[..], full.rows[..2]);
    }

    #[test]
    fn cancelled_token_aborts() {
        let kb = kb();
        let token = CancelToken::default();
        token.cancel();
        let pat = TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        assert_eq!(
            solve_bgp(kb.store(), &[pat], 100, Some(&token)),
            Err(QueryError::Cancelled)
        );
    }

    #[test]
    fn bgp_input_validation() {
        let kb = kb();
        let pat = TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(2));
        assert_eq!(
            solve_bgp(kb.store(), &[], 10, None),
            Err(QueryError::NoPatterns)
        );
        assert_eq!(
            solve_bgp(kb.store(), &[pat; 4], 10, None),
            Err(QueryError::TooManyPatterns)
        );
        let bad = TriplePattern::new(Slot::Var(42), Slot::Var(1), Slot::Var(2));
        assert_eq!(
            solve_bgp(kb.store(), &[bad], 10, None),
            Err(QueryError::VarOutOfRange(42))
        );
    }

    #[test]
    fn parse_patterns_resolves_and_validates() {
        let kb = kb();
        let q = parse_patterns(
            &kb,
            &[
                ["?x".into(), "p:r0".into(), "?y".into()],
                ["?y".into(), "?rel".into(), "e:missing".into()],
            ],
        )
        .unwrap();
        assert_eq!(q.var_names, vec!["x", "y", "rel"]);
        assert_eq!(q.pred_var, vec![false, false, true]);
        assert_eq!(q.patterns[0].p, Slot::Bound(pred(&kb, "p:r0")));
        // Unknown IRIs become provably-empty bound slots, not errors.
        assert_eq!(q.patterns[1].o, Slot::Bound(u32::MAX));
        assert_eq!(
            parse_patterns(&kb, &[["?".into(), "p:r0".into(), "e:a".into()]]),
            Err(PatternError::EmptyVariableName)
        );
        assert_eq!(
            parse_patterns(&kb, &[["?x".into(), "?x".into(), "e:a".into()]]),
            Err(PatternError::MixedVariablePosition("x".into()))
        );
    }
}
