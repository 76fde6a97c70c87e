//! REMI search — Algorithms 1 (REMI) and 2 (DFS-REMI), and the subtree DFS
//! that P-REMI (Algorithm 3, [`crate::parallel`]) shares.
//!
//! Algorithm 1 sorts the common subgraph expressions by `Ĉ` into a priority
//! queue, then explores conjunctions depth-first. When a conjunction is an
//! RE, all of its extensions are REs too but strictly more complex, so the
//! search *prunes by depth* (abandons descendants) and *prunes sideways*
//! (abandons more-complex siblings) — the two rules of §3.3.
//!
//! `dfs_subtree` is the only DFS. Sequential REMI ([`remi_search`]) runs it
//! with no pruning bound and a subtree-local best; P-REMI runs it against the
//! shared incumbent.
//!
//! The DFS keeps, beside its stack, the bindings of every stack prefix
//! (§3.5.2 caches binding sets because the search keeps meeting the same
//! conjuncts). A tested push costs one intersection — the parent prefix's
//! bindings with the pushed conjunct's cached list — and an exact
//! comparison with the targets; a push the bound prunes costs none. Under a
//! bound that never rises, a prune that pops only the pushed node ends the
//! subtree: every later index at that prefix would be pruned too.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use remi_kb::NodeId;

use crate::bits::Bits;
use crate::complexity::CostModel;
use crate::eval::{intersect_sorted_into, Evaluator};
use crate::expr::{Expression, SubgraphExpr};

/// A subgraph expression with its precomputed cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredExpr {
    /// The expression.
    pub expr: SubgraphExpr,
    /// Its `Ĉ` in bits.
    pub cost: Bits,
}

/// Why the search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStatus {
    /// The space was exhausted (the returned solution, if any, is optimal
    /// under `Ĉ` within the language bias).
    Completed,
    /// The deadline cut the search short; the result is the best found so
    /// far.
    TimedOut,
    /// The target set admits no RE in this language.
    NoSolution,
}

impl SearchStatus {
    /// The status as every surface renders it: `completed`, `timed-out` or
    /// `no-solution`.
    pub fn as_str(self) -> &'static str {
        match self {
            SearchStatus::Completed => "completed",
            SearchStatus::TimedOut => "timed-out",
            SearchStatus::NoSolution => "no-solution",
        }
    }
}

/// The wall-clock bound of one mining call, built once from
/// [`RemiConfig::timeout`](crate::RemiConfig::timeout). `Default` is no
/// bound.
#[derive(Debug, Default)]
pub struct Deadline(Bound);

#[derive(Debug, Default)]
enum Bound {
    #[default]
    Never,
    At(Instant),
    /// Test double: passes once this many checks have said it has not.
    #[cfg(test)]
    AfterChecks(std::sync::atomic::AtomicU64),
}

impl Deadline {
    /// A deadline `timeout` from now; `None` never passes.
    pub fn after(timeout: Option<Duration>) -> Deadline {
        // lint:allow(wallclock-in-mining): deadline enforcement for the opt-in timeout config — never affects scoring
        Deadline(timeout.map_or(Bound::Never, |t| Bound::At(Instant::now() + t)))
    }

    /// A deadline that passes on check `n + 1` and every check after it —
    /// a deterministic stand-in for the clock.
    #[cfg(test)]
    pub(crate) fn after_checks(n: u64) -> Deadline {
        Deadline(Bound::AfterChecks(n.into()))
    }

    /// True once the deadline has passed.
    pub fn passed(&self) -> bool {
        match &self.0 {
            Bound::Never => false,
            // lint:allow(wallclock-in-mining): deadline enforcement for the opt-in timeout config — never affects scoring
            Bound::At(at) => Instant::now() >= *at,
            #[cfg(test)]
            Bound::AfterChecks(left) => {
                use std::sync::atomic::Ordering::Relaxed;
                left.fetch_update(Relaxed, Relaxed, |n| n.checked_sub(1))
                    .is_err()
            }
        }
    }
}

/// Counters for one search run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchCounters {
    /// Search-tree nodes visited (conjunctions pushed).
    pub nodes_visited: u64,
    /// `e′(K) = T` tests run: one per push that the bound did not prune.
    pub re_tests: u64,
    /// Subtree roots explored.
    pub roots_explored: u64,
}

/// Result of the DFS phase.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The REs found with their costs, cheapest first (ties in discovery
    /// order): at most the `k` asked of [`remi_search`], at most one from
    /// P-REMI.
    pub found: Vec<(Expression, Bits)>,
    /// Termination status.
    pub status: SearchStatus,
    /// Counters.
    pub counters: SearchCounters,
}

/// Target ids sorted and deduplicated — the form the RE test takes.
pub(crate) fn sorted_targets(targets: &[NodeId]) -> Vec<u32> {
    let mut sorted: Vec<u32> = targets.iter().map(|t| t.0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// Builds the priority queue of Algorithm 1, line 2: the input expressions
/// scored by `Ĉ` and sorted ascending (ties broken structurally so runs
/// are deterministic).
///
/// With `threads > 1` and at least 256 expressions, scoring runs on
/// `threads` tasks of the shared [`remi_pool::global`] pool. §3.5.2: *"we
/// parallelized the construction and sorting of the queue"* — scoring
/// dominates queue construction because each `Ĉ` evaluation may
/// materialise join rankings.
pub fn build_queue(
    model: &CostModel<'_>,
    exprs: &[SubgraphExpr],
    threads: usize,
) -> Vec<ScoredExpr> {
    let score = |exprs: &[SubgraphExpr]| -> Vec<ScoredExpr> {
        exprs
            .iter()
            .map(|&expr| ScoredExpr {
                expr,
                cost: model.subgraph_cost(&expr),
            })
            .collect()
    };
    let mut queue = if threads > 1 && exprs.len() >= 256 {
        let scored = Mutex::new(Vec::with_capacity(exprs.len()));
        remi_pool::broadcast_chunks(remi_pool::global(), exprs.len(), threads, &|range| {
            let part = score(&exprs[range]);
            scored.lock().extend(part);
        });
        scored.into_inner()
    } else {
        score(exprs)
    };
    // Chunk arrival order is scheduler-dependent, but the comparator is a
    // total order (cost, then structure), so the sort restores determinism.
    queue.sort_by(|a, b| a.cost.cmp(&b.cost).then(a.expr.cmp(&b.expr)));
    queue
}

/// Outcome of one subtree exploration.
pub(crate) struct SubtreeOutcome {
    /// The subtree yielded at least one RE.
    pub(crate) found: bool,
    /// The exploration ran to genuine exhaustion: neither `stop` nor the
    /// pruning bound cut it short. Only a complete, solution-free subtree
    /// proves that no RE starts at this root or any later one (Alg. 1
    /// line 8, §3.4 rule 2) — a bound-pruned subtree may have skipped
    /// conjunctions whose constituents are still cheap enough to seed
    /// later roots.
    pub(crate) complete: bool,
}

/// The subtree DFS of Algorithms 2 and 3, rooted at `queue[root]` and
/// combining it with the remaining (more complex) expressions.
///
/// * `bound` is the cost at or above which the stack backtracks before its
///   RE test (Alg. 3 line 6); `None` never prunes (Alg. 2).
/// * `stop` is checked before every node; when it fires the exploration
///   ends incomplete.
/// * `found` receives every RE, with its cost, in discovery order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dfs_subtree(
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    root: usize,
    sorted_targets: &[u32],
    counters: &mut SearchCounters,
    bound: impl Fn() -> Option<Bits>,
    stop: impl Fn() -> bool,
    mut found: impl FnMut(Expression, Bits),
) -> SubtreeOutcome {
    // S := {⊤}: indices into queue. G' = {ρ} ∪ G — the root followed by
    // everything after it.
    let mut stack: Vec<usize> = Vec::new();
    let mut stack_cost = Bits::ZERO;
    // prefix[d] holds the bindings of stack[..=d]. Only the first
    // stack.len() entries are live: popping the stack truncates them, and
    // the entries past it are buffers the next pushes reuse.
    let mut prefix: Vec<Vec<u32>> = Vec::new();
    let mut outcome = SubtreeOutcome {
        found: false,
        complete: true,
    };
    for i in root..queue.len() {
        if stop() {
            outcome.complete = false;
            return outcome;
        }
        // Push ρ′.
        stack.push(i);
        stack_cost = stack_cost + queue[i].cost;
        counters.nodes_visited += 1;

        // Alg. 3 line 6: backtrack while the stack is at least as complex
        // as the bound. (The paper's S contains ⊤ as an element, so its
        // `|S| > 1` is our "stack non-empty".) Line 8: ρ′ itself was popped,
        // so there is nothing to test.
        if let Some(bound) = bound() {
            if stack_cost >= bound {
                outcome.complete = false;
                let parent_len = stack.len() - 1;
                while !stack.is_empty() && stack_cost >= bound {
                    stack.pop();
                    stack_cost = stack.iter().map(|&k| queue[k].cost).sum();
                }
                // Backtracked to ⊤: no cheaper RE under this subtree.
                if stack.is_empty() {
                    return outcome;
                }
                // Only ρ′ was popped. Every later index costs at least as
                // much as ρ′ (the queue is sorted) and the bound never
                // rises, so every later push onto this prefix is pruned
                // too: the subtree is done. (When a concurrent incumbent
                // drop also popped the parent, the walk goes on.)
                if stack.len() == parent_len {
                    return outcome;
                }
                continue;
            }
        }

        // e′ := ∧ S; test e′(K) = T with one intersection: the parent
        // prefix's bindings with ρ′'s cached list.
        let depth = stack.len() - 1;
        if prefix.len() == depth {
            prefix.push(Vec::new());
        }
        let (parents, rest) = prefix.split_at_mut(depth);
        let bindings = &mut rest[0];
        let conjunct = eval.bindings(&queue[i].expr);
        match parents.last() {
            Some(parent) => intersect_sorted_into(parent, &conjunct, bindings),
            None => {
                bindings.clear();
                bindings.extend_from_slice(&conjunct);
            }
        }
        counters.re_tests += 1;
        if bindings[..] == *sorted_targets {
            outcome.found = true;
            let parts = stack.iter().map(|&k| queue[k].expr).collect();
            found(Expression { parts }, stack_cost);
            // Pruning by depth, then side pruning.
            stack.pop();
            stack.pop();
            stack_cost = stack.iter().map(|&k| queue[k].cost).sum();
            // Backtracked past the root: every remaining combination is
            // prefixed by a strictly more complex root of this subtree.
            if stack.is_empty() {
                return outcome;
            }
        }
    }
    outcome
}

/// Algorithm 1 — REMI, harvesting up to `k` distinct REs: the best RE of
/// each DFS subtree, cheapest first. `queue` must be sorted ascending by
/// cost (see [`build_queue`]).
///
/// The root loop stops once `k` REs are known and the next root alone
/// costs at least the cheapest of them: conjunction costs only grow and
/// the queue is sorted, so no later root can beat it. With `k = 1` that
/// RE is optimal.
///
/// # Panics
///
/// Panics when `k` is zero.
pub fn remi_search(
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    targets: &[NodeId],
    deadline: &Deadline,
    k: usize,
) -> SearchResult {
    assert!(k >= 1, "k must be at least 1");
    let sorted_targets = sorted_targets(targets);
    let mut counters = SearchCounters::default();
    let mut found: Vec<(Expression, Bits)> = Vec::new();
    let mut timed_out = false;

    for root in 0..queue.len() {
        if deadline.passed() {
            timed_out = true;
            break;
        }
        if found.len() >= k && queue[root].cost >= found[0].1 {
            break;
        }
        let mut best: Option<(Expression, Bits)> = None;
        let outcome = dfs_subtree(
            eval,
            queue,
            root,
            &sorted_targets,
            &mut counters,
            || None,
            || deadline.passed(),
            |expr, cost| {
                if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                    best = Some((expr, cost));
                }
            },
        );
        counters.roots_explored += 1;
        if let Some((expr, cost)) = best {
            // Insert after every RE at most as costly (the first-found tie
            // rule); an RE that falls past `k` can never climb back.
            if !found.iter().any(|(e, _)| *e == expr) {
                let at = found.partition_point(|(_, c)| *c <= cost);
                found.insert(at, (expr, cost));
                found.truncate(k);
            }
        }
        if !outcome.complete {
            timed_out = true;
            break;
        }
        // Line 8 of Alg. 1: the first root is combined with every other
        // expression; if even that completes without an RE, no RE exists
        // for T in this language.
        if root == 0 && !outcome.found {
            break;
        }
    }

    let status = if timed_out {
        SearchStatus::TimedOut
    } else if found.is_empty() {
        SearchStatus::NoSolution
    } else {
        SearchStatus::Completed
    };
    SearchResult {
        found,
        status,
        counters,
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexity::{CostModel, EntityCodeMode, Prominence};
    use crate::config::EnumerationConfig;
    use crate::enumerate::{common_subgraph_expressions, EnumContext};
    use remi_kb::{KbBuilder, KnowledgeBase};

    fn rennes_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for city in ["Rennes", "Nantes"] {
            b.add_iri(&format!("e:{city}"), "p:in", "e:Brittany");
            b.add_iri(&format!("e:{city}"), "p:mayor", &format!("e:mayor{city}"));
            b.add_iri(&format!("e:mayor{city}"), "p:party", "e:Socialist");
        }
        // Distractors sharing parts of the description.
        b.add_iri("e:Vannes", "p:in", "e:Brittany");
        b.add_iri("e:Vannes", "p:mayor", "e:mayorVannes");
        b.add_iri("e:mayorVannes", "p:party", "e:Green");
        b.add_iri("e:Lille", "p:mayor", "e:mayorLille");
        b.add_iri("e:mayorLille", "p:party", "e:Socialist");
        b.build().unwrap()
    }

    /// The queue and target ids of `targets` over `kb`.
    fn setup(kb: &KnowledgeBase, targets: &[&str]) -> (Vec<ScoredExpr>, Vec<NodeId>) {
        let cfg = EnumerationConfig {
            prominent_cutoff: 0.0,
            ..Default::default()
        };
        let ctx = EnumContext::new(kb, &cfg);
        let ids: Vec<NodeId> = targets
            .iter()
            .map(|t| kb.node_id_by_iri(t).unwrap())
            .collect();
        let (common, _) = common_subgraph_expressions(kb, &ids, &cfg, &ctx);
        let model = CostModel::new(kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        (build_queue(&model, &common, 1), ids)
    }

    fn mine<'a>(kb: &'a KnowledgeBase, targets: &[&str]) -> (SearchResult, CostModel<'a>) {
        let (queue, ids) = setup(kb, targets);
        let eval = Evaluator::new(kb, 1024);
        let result = remi_search(&eval, &queue, &ids, &Deadline::default(), 1);
        let model = CostModel::new(kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        (result, model)
    }

    #[test]
    fn finds_the_rennes_nantes_re() {
        let kb = rennes_kb();
        let (result, _) = mine(&kb, &["e:Rennes", "e:Nantes"]);
        assert_eq!(result.status, SearchStatus::Completed);
        let (expr, cost) = result.found.into_iter().next().expect("an RE exists");
        assert!(!cost.is_infinite());
        // Verify it really is an RE: bindings == {Rennes, Nantes}.
        let eval = Evaluator::new(&kb, 16);
        let mut targets = vec![
            kb.node_id_by_iri("e:Rennes").unwrap().0,
            kb.node_id_by_iri("e:Nantes").unwrap().0,
        ];
        targets.sort_unstable();
        assert!(eval.is_referring_expression(&expr.parts, &targets));
        // The canonical answer needs both conjuncts: in(x, Brittany) alone
        // also matches Vannes, the Socialist-mayor path alone also matches
        // Lille.
        assert!(expr.parts.len() >= 2, "{expr:?}");
    }

    #[test]
    fn single_entity_with_unique_atom() {
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:in", "e:France");
        b.add_iri("e:Lyon", "p:in", "e:France");
        let kb = b.build().unwrap();
        let (result, model) = mine(&kb, &["e:Paris"]);
        let (expr, cost) = result
            .found
            .into_iter()
            .next()
            .expect("capitalOf(x, France) is an RE");
        let capital = kb.pred_id("p:capitalOf").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        // capitalOf(x, France) is an RE; the search may report it alone or
        // in a cost-tied conjunction (ties are allowed by the algorithm),
        // but the returned cost can never exceed the single atom's.
        let atom = SubgraphExpr::Atom {
            p: capital,
            o: france,
        };
        assert!(expr.parts.contains(&atom), "{expr:?}");
        assert!(cost <= model.subgraph_cost(&atom));
    }

    #[test]
    fn no_solution_when_targets_are_indistinguishable() {
        let mut b = KbBuilder::new();
        // twin1 and twin2 have identical descriptions; asking for just one
        // of them cannot succeed.
        b.add_iri("e:twin1", "p:in", "e:Town");
        b.add_iri("e:twin2", "p:in", "e:Town");
        let kb = b.build().unwrap();
        let (result, _) = mine(&kb, &["e:twin1"]);
        assert_eq!(result.status, SearchStatus::NoSolution);
        assert!(result.found.is_empty());
    }

    #[test]
    fn pair_of_indistinguishable_twins_is_describable_together() {
        let mut b = KbBuilder::new();
        b.add_iri("e:twin1", "p:in", "e:Town");
        b.add_iri("e:twin2", "p:in", "e:Town");
        b.add_iri("e:other", "p:in", "e:City");
        let kb = b.build().unwrap();
        let (result, _) = mine(&kb, &["e:twin1", "e:twin2"]);
        let (expr, _) = result
            .found
            .into_iter()
            .next()
            .expect("in(x, Town) describes both twins");
        let in_p = kb.pred_id("p:in").unwrap();
        let town = kb.node_id_by_iri("e:Town").unwrap();
        assert_eq!(expr.parts, vec![SubgraphExpr::Atom { p: in_p, o: town }]);
    }

    #[test]
    fn returned_solution_is_cost_minimal() {
        // Exhaustively verify optimality on a small instance: enumerate all
        // subsets of common expressions and find the true minimum-cost RE.
        let kb = rennes_kb();
        let (result, model) = mine(&kb, &["e:Rennes", "e:Nantes"]);
        let (_, reported_cost) = result.found.into_iter().next().expect("solution exists");

        let cfg = EnumerationConfig {
            prominent_cutoff: 0.0,
            ..Default::default()
        };
        let ctx = EnumContext::new(&kb, &cfg);
        let targets = [
            kb.node_id_by_iri("e:Rennes").unwrap(),
            kb.node_id_by_iri("e:Nantes").unwrap(),
        ];
        let (common, _) = common_subgraph_expressions(&kb, &targets, &cfg, &ctx);
        let eval = Evaluator::new(&kb, 1024);
        let mut sorted_targets: Vec<u32> = targets.iter().map(|t| t.0).collect();
        sorted_targets.sort_unstable();

        let n = common.len();
        assert!(n <= 16, "exhaustive check needs a small space, got {n}");
        let mut true_min = Bits::INFINITY;
        for mask in 1u32..(1 << n) {
            let parts: Vec<SubgraphExpr> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| common[i])
                .collect();
            if eval.is_referring_expression(&parts, &sorted_targets) {
                let cost = model.parts_cost(&parts);
                if cost < true_min {
                    true_min = cost;
                }
            }
        }
        assert_eq!(reported_cost, true_min);
    }

    #[test]
    fn timeout_reports_timed_out() {
        let kb = rennes_kb();
        let (queue, ids) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let eval = Evaluator::new(&kb, 16);
        let past = Deadline::after(Some(Duration::ZERO));
        let result = remi_search(&eval, &queue, &ids, &past, 1);
        assert_eq!(result.status, SearchStatus::TimedOut);
    }

    #[test]
    fn queue_is_sorted_ascending() {
        let kb = rennes_kb();
        let cfg = EnumerationConfig {
            prominent_cutoff: 0.0,
            ..Default::default()
        };
        let ctx = EnumContext::new(&kb, &cfg);
        let rennes = kb.node_id_by_iri("e:Rennes").unwrap();
        let (exprs, _) = common_subgraph_expressions(&kb, &[rennes], &cfg, &ctx);
        let model = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let queue = build_queue(&model, &exprs, 1);
        for w in queue.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn empty_queue_means_no_solution() {
        let kb = rennes_kb();
        let eval = Evaluator::new(&kb, 16);
        let rennes = kb.node_id_by_iri("e:Rennes").unwrap();
        let result = remi_search(&eval, &[], &[rennes], &Deadline::default(), 1);
        assert_eq!(result.status, SearchStatus::NoSolution);
    }

    /// A deadline inside root 0's subtree, before any RE is found, is a
    /// timeout: only a complete, solution-free root 0 proves no RE exists.
    #[test]
    fn deadline_inside_root_zero_is_not_no_solution() {
        let kb = rennes_kb();
        let (queue, ids) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let eval = Evaluator::new(&kb, 64);
        // Check 1 is the root loop's, check 2 lets root 0 push its first
        // node (not an RE on its own), check 3 fires.
        let result = remi_search(&eval, &queue, &ids, &Deadline::after_checks(2), 1);
        assert_eq!(result.counters.nodes_visited, 1);
        assert!(result.found.is_empty());
        assert_eq!(result.status, SearchStatus::TimedOut);
    }

    /// A deadline inside the last root cuts the search short, so neither
    /// sequential REMI nor P-REMI may call the answer completed.
    #[test]
    fn deadline_inside_the_last_root_is_not_completed() {
        // Only in(x, Town) ∧ near(x, River) singles out t, and no root is
        // cut by the incumbent: the search ends by exhausting the queue.
        let mut b = KbBuilder::new();
        b.add_iri("e:t", "p:in", "e:Town");
        b.add_iri("e:t", "p:near", "e:River");
        b.add_iri("e:d1", "p:in", "e:Town");
        b.add_iri("e:d2", "p:near", "e:River");
        // The most prominent concepts cost 0 bits; keep them out of the
        // queue so no root is free.
        for f in ["e:f1", "e:f2", "e:f3"] {
            b.add_iri(f, "p:is", "e:Thing");
        }
        let kb = b.build().unwrap();
        let (queue, ids) = setup(&kb, &["e:t"]);
        let eval = Evaluator::new(&kb, 64);
        let full = remi_search(&eval, &queue, &ids, &Deadline::default(), 1);
        assert_eq!(full.status, SearchStatus::Completed);
        assert_eq!(full.counters.roots_explored, queue.len() as u64);
        // One check per root and one per node: let all but the last pass.
        let checks = full.counters.roots_explored + full.counters.nodes_visited;
        let cut = || Deadline::after_checks(checks - 1);
        let seq = remi_search(&eval, &queue, &ids, &cut(), 1);
        assert_eq!(seq.status, SearchStatus::TimedOut);
        assert_eq!(seq.found, full.found);
        // One P-REMI worker checks the deadline at the same points.
        let par = crate::parallel::parallel_remi_search_on(
            remi_pool::global(),
            &eval,
            &queue,
            &ids,
            &cut(),
            1,
        );
        assert_eq!(par.status, SearchStatus::TimedOut);
        assert_eq!(par.found, full.found);
    }
}
