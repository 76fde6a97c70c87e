//! The prefix-stack DFS against an oracle that re-tests every push from
//! scratch with [`Evaluator::is_referring_expression`] — the DFS the prefix
//! stack replaced, kept here apart from counting its RE tests in
//! [`SearchCounters`] and taking the subtree cutoff.
//!
//! Sequential REMI must repeat the oracle exactly: finds, status, nodes and
//! RE tests. The oracle run without the subtree cutoff (Alg. 2 as the paper
//! writes it) must give the same finds and status in at least as many nodes
//! and RE tests. One-worker P-REMI must give the oracle's answer and status
//! and may visit fewer nodes, because a bound prune now ends its subtree.

use proptest::prelude::*;
use remi_kb::{KbBuilder, KnowledgeBase, NodeId};

use super::*;
use crate::config::RemiConfig;
use crate::miner::Remi;
use crate::parallel::parallel_remi_search_on;

/// The subtree DFS that tests each push with `is_referring_expression`.
/// With no `prune` it neither bounds nor cuts the walk.
fn oracle_dfs_subtree(
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    root: usize,
    sorted_targets: &[u32],
    counters: &mut SearchCounters,
    prune: Option<Prune<'_>>,
    mut found: impl FnMut(Expression, Bits),
) -> SubtreeOutcome {
    let mut stack: Vec<usize> = Vec::new();
    let mut stack_cost = Bits::ZERO;
    let mut outcome = SubtreeOutcome {
        found: false,
        complete: true,
    };
    let mut cutoff = match prune {
        Some(Prune::Cutoff(limit)) => limit,
        _ => None,
    };
    for i in root..queue.len() {
        if i > root && cutoff.is_some_and(|t| queue[root].cost + queue[i].cost >= t) {
            return outcome;
        }
        stack.push(i);
        stack_cost = stack_cost + queue[i].cost;
        counters.nodes_visited += 1;

        if let Some(Prune::Incumbent(bound)) = prune {
            let bound = bound();
            if stack_cost >= bound {
                outcome.complete = false;
                while !stack.is_empty() && stack_cost >= bound {
                    stack.pop();
                    stack_cost = stack.iter().map(|&k| queue[k].cost).sum();
                }
                if stack.is_empty() {
                    return outcome;
                }
                continue;
            }
        }

        let parts: Vec<SubgraphExpr> = stack.iter().map(|&k| queue[k].expr).collect();
        counters.re_tests += 1;
        if eval.is_referring_expression(&parts, sorted_targets) {
            outcome.found = true;
            if let Some(Prune::Cutoff(_)) = prune {
                cutoff = Some(cutoff.map_or(stack_cost, |t| t.min(stack_cost)));
            }
            found(Expression { parts }, stack_cost);
            stack.pop();
            stack.pop();
            stack_cost = stack.iter().map(|&k| queue[k].cost).sum();
            if stack.is_empty() {
                return outcome;
            }
        }
    }
    outcome
}

/// [`remi_search`]'s root loop over the oracle DFS, with no deadline, with
/// or without the subtree cutoff.
fn oracle_remi_search(
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    targets: &[NodeId],
    k: usize,
    cut: bool,
) -> SearchResult {
    let sorted_targets = sorted_targets(targets);
    let mut counters = SearchCounters::default();
    let mut found: Vec<(Expression, Bits)> = Vec::new();
    for root in 0..queue.len() {
        if found.len() >= k && queue[root].cost >= found[0].1 {
            break;
        }
        let mut best: Option<(Expression, Bits)> = None;
        let outcome = oracle_dfs_subtree(
            eval,
            queue,
            root,
            &sorted_targets,
            &mut counters,
            cut.then(|| Prune::Cutoff(found.get(k - 1).map(|(_, c)| *c))),
            |expr, cost| {
                if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                    best = Some((expr, cost));
                }
            },
        );
        if let Some((expr, cost)) = best {
            if !found.iter().any(|(e, _)| *e == expr) {
                let at = found.partition_point(|(_, c)| *c <= cost);
                found.insert(at, (expr, cost));
                found.truncate(k);
            }
        }
        if root == 0 && !outcome.found {
            break;
        }
    }
    let status = if found.is_empty() {
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

/// P-REMI's root loop as one worker runs it, over the oracle DFS: roots in
/// order, the incumbent as the bound, the no-solution floor after a
/// complete, solution-free subtree.
fn oracle_premi_one_worker(
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    targets: &[NodeId],
) -> SearchResult {
    let sorted_targets = sorted_targets(targets);
    let mut counters = SearchCounters::default();
    let best: std::cell::RefCell<Option<(Expression, Bits)>> = Default::default();
    let best_cost = || best.borrow().as_ref().map_or(Bits::INFINITY, |(_, c)| *c);
    for root in 0..queue.len() {
        if queue[root].cost >= best_cost() {
            break;
        }
        let outcome = oracle_dfs_subtree(
            eval,
            queue,
            root,
            &sorted_targets,
            &mut counters,
            Some(Prune::Incumbent(&best_cost)),
            |expr, cost| {
                if cost < best_cost() {
                    *best.borrow_mut() = Some((expr, cost));
                }
            },
        );
        if !outcome.found && outcome.complete {
            break;
        }
    }
    let found: Vec<(Expression, Bits)> = best.into_inner().into_iter().collect();
    let status = if found.is_empty() {
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

fn one_worker_premi(
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    targets: &[NodeId],
) -> SearchResult {
    parallel_remi_search_on(
        remi_pool::global(),
        eval,
        queue,
        targets,
        &Deadline::default(),
        1,
    )
}

const CLASSES: [&str; 5] = ["Person", "Settlement", "Album", "Film", "Organization"];

proptest! {
    /// At k ∈ {1, 3, 5} sequential REMI repeats the oracle exactly and the
    /// uncut oracle's answer in at most as many nodes and RE tests;
    /// one-worker P-REMI gives the oracle's answer in at most as many nodes.
    #[test]
    fn prefix_stack_dfs_matches_the_per_push_oracle(
        seed in 0u64..3,
        class in 0usize..5,
        picks in proptest::collection::vec(0usize..60, 1..4),
    ) {
        let synth = remi_synth::fixtures::dbpedia(0.05, seed);
        let kb = &synth.kb;
        let members = synth.members(CLASSES[class]);
        let mut targets: Vec<NodeId> = picks.iter().map(|&p| members[p % members.len()]).collect();
        targets.sort_unstable();
        targets.dedup();
        let remi = Remi::new(kb, RemiConfig::default());
        let (queue, _) = remi.ranked_common_expressions(&targets);

        for k in [1, 3, 5] {
            let got = remi_search(&Evaluator::new(kb, 1024), &queue, &targets, &Deadline::default(), k);
            let want = oracle_remi_search(&Evaluator::new(kb, 1024), &queue, &targets, k, true);
            prop_assert_eq!(&got.found, &want.found);
            prop_assert_eq!(got.status, want.status);
            prop_assert_eq!(got.counters.nodes_visited, want.counters.nodes_visited);
            prop_assert_eq!(got.counters.re_tests, want.counters.re_tests);
            let uncut = oracle_remi_search(&Evaluator::new(kb, 1024), &queue, &targets, k, false);
            prop_assert_eq!(&got.found, &uncut.found);
            prop_assert_eq!(got.status, uncut.status);
            prop_assert!(got.counters.nodes_visited <= uncut.counters.nodes_visited);
            prop_assert!(got.counters.re_tests <= uncut.counters.re_tests);
        }

        let got = one_worker_premi(&Evaluator::new(kb, 1024), &queue, &targets);
        let want = oracle_premi_one_worker(&Evaluator::new(kb, 1024), &queue, &targets);
        prop_assert_eq!(&got.found, &want.found);
        prop_assert_eq!(got.status, want.status);
        prop_assert!(got.counters.nodes_visited <= want.counters.nodes_visited);
    }
}

/// `t` is the only entity with both `a` and `b`; `d1` shares `a`, `d2`
/// shares `b`, and both share `c`..`f` with `t`.
fn pruned_sibling_kb() -> KnowledgeBase {
    let mut b = KbBuilder::new();
    for p in ["a", "b", "c", "d", "e", "f"] {
        b.add_iri("e:t", &format!("p:{p}"), "e:X");
    }
    for (d, ps) in [
        ("e:d1", ["a", "c", "d", "e", "f"]),
        ("e:d2", ["b", "c", "d", "e", "f"]),
    ] {
        for p in ps {
            b.add_iri(d, &format!("p:{p}"), "e:X");
        }
    }
    b.build().unwrap()
}

/// A hand-built queue where root 0 finds `a ∧ b` at 3 bits; under that
/// bound, root 1's first push (`b ∧ c`, 5 bits) is pruned with only itself
/// popped, so the subtree ends there instead of pushing `d`, `e` and `f`.
#[test]
fn a_bound_prune_of_the_pushed_node_ends_the_subtree() {
    let kb = pruned_sibling_kb();
    let x = kb.node_id_by_iri("e:X").unwrap();
    let queue: Vec<ScoredExpr> = ["a", "b", "c", "d", "e", "f"]
        .iter()
        .zip(1..)
        .map(|(p, cost)| ScoredExpr {
            expr: SubgraphExpr::Atom {
                p: kb.pred_id(&format!("p:{p}")).unwrap(),
                o: x,
            },
            cost: Bits::new(f64::from(cost)),
        })
        .collect();
    let targets = [kb.node_id_by_iri("e:t").unwrap()];
    let sorted = sorted_targets(&targets);

    let mut counters = SearchCounters::default();
    let outcome = dfs_subtree(
        &Evaluator::new(&kb, 16),
        &queue,
        1,
        &sorted,
        &mut counters,
        Prune::Incumbent(&|| Bits::new(3.0)),
        || false,
        |_, _| panic!("nothing under root 1 is cheaper than the bound"),
    );
    assert!(!outcome.found && !outcome.complete);
    assert_eq!((counters.nodes_visited, counters.re_tests), (2, 1));

    let got = one_worker_premi(&Evaluator::new(&kb, 16), &queue, &targets);
    let want = oracle_premi_one_worker(&Evaluator::new(&kb, 16), &queue, &targets);
    assert_eq!(got.status, SearchStatus::Completed);
    assert_eq!(got.found, want.found);
    assert_eq!(got.found[0].1, Bits::new(3.0));
    assert_eq!(got.found[0].0.parts, vec![queue[0].expr, queue[1].expr]);
    assert_eq!(got.counters.nodes_visited, 4);
    assert_eq!(want.counters.nodes_visited, 7);
    assert_eq!(got.counters.re_tests, want.counters.re_tests);
}

/// A KB where every entity `e:{name}` has `p:{c}` to `e:X` for each letter
/// `c` of its string, and a hand-built queue of those atoms at the given
/// costs. Small integer costs keep every sum exact.
fn letter_world(
    entities: &[(&str, &str)],
    costs: &[(char, f64)],
) -> (KnowledgeBase, Vec<ScoredExpr>) {
    let mut b = KbBuilder::new();
    for (name, letters) in entities {
        for c in letters.chars() {
            b.add_iri(&format!("e:{name}"), &format!("p:{c}"), "e:X");
        }
    }
    let kb = b.build().unwrap();
    let x = kb.node_id_by_iri("e:X").unwrap();
    let queue = costs
        .iter()
        .map(|&(c, cost)| ScoredExpr {
            expr: SubgraphExpr::Atom {
                p: kb.pred_id(&format!("p:{c}")).unwrap(),
                o: x,
            },
            cost: Bits::new(cost),
        })
        .collect();
    (kb, queue)
}

/// The conjunction of the queue entries at `at`.
fn conj(queue: &[ScoredExpr], at: &[usize]) -> Expression {
    Expression {
        parts: at.iter().map(|&i| queue[i].expr).collect(),
    }
}

/// Root 0 finds `a ∧ b ∧ c` at 6 bits, and `Ĉ(a) + Ĉ(d)` = 1 + 5 is 6
/// exactly, so the subtree ends, complete, before pushing `d`. The uncut
/// walk goes on to the tied RE `a ∧ d`, which must not replace the
/// first-found answer.
#[test]
fn the_subtree_cutoff_stops_at_equality_and_keeps_the_first_found_tie() {
    let (kb, queue) = letter_world(
        &[("t", "abcd"), ("x1", "ab"), ("x2", "bc"), ("x3", "d")],
        &[('a', 1.0), ('b', 2.0), ('c', 3.0), ('d', 5.0)],
    );
    let targets = [kb.node_id_by_iri("e:t").unwrap()];
    let sorted = sorted_targets(&targets);
    let abc = (conj(&queue, &[0, 1, 2]), Bits::new(6.0));
    let ad = (conj(&queue, &[0, 3]), Bits::new(6.0));

    let mut finds = Vec::new();
    let mut counters = SearchCounters::default();
    let outcome = dfs_subtree(
        &Evaluator::new(&kb, 16),
        &queue,
        0,
        &sorted,
        &mut counters,
        Prune::Cutoff(None),
        || false,
        |expr, cost| finds.push((expr, cost)),
    );
    assert!(outcome.found && outcome.complete);
    assert_eq!(counters.nodes_visited, 3);
    assert_eq!(finds, vec![abc.clone()]);

    let mut uncut_finds = Vec::new();
    oracle_dfs_subtree(
        &Evaluator::new(&kb, 16),
        &queue,
        0,
        &sorted,
        &mut SearchCounters::default(),
        None,
        |expr, cost| uncut_finds.push((expr, cost)),
    );
    assert_eq!(uncut_finds, vec![abc.clone(), ad]);

    let got = remi_search(
        &Evaluator::new(&kb, 16),
        &queue,
        &targets,
        &Deadline::default(),
        1,
    );
    let uncut = oracle_remi_search(&Evaluator::new(&kb, 16), &queue, &targets, 1, false);
    assert_eq!(got.status, SearchStatus::Completed);
    assert_eq!(got.found, vec![abc]);
    assert_eq!(got.found, uncut.found);
    assert_eq!(
        (got.counters.nodes_visited, uncut.counters.nodes_visited),
        (7, 10)
    );
}

/// At k = 3, roots 0–2 find `a ∧ b`, `b ∧ c ∧ d` and `c ∧ d ∧ e` at 2, 3
/// and 4 bits. Root 3 (`d`, 1 bit) is still cheaper than the cheapest of
/// them, so it is explored, but with no RE of its own: its `t` is the 3rd
/// found RE's 4 bits, reached exactly by `Ĉ(d) + Ĉ(f)` = 1 + 3. The uncut
/// walk goes on to `d ∧ e ∧ f` at 6 bits, which falls past `k`.
#[test]
fn the_subtree_cutoff_at_k_3_uses_the_third_found_re() {
    let (kb, queue) = letter_world(
        &[
            ("t", "abcdef"),
            ("x1", "a"),
            ("x2", "bc"),
            ("x3", "cd"),
            ("x4", "de"),
        ],
        &[
            ('a', 1.0),
            ('b', 1.0),
            ('c', 1.0),
            ('d', 1.0),
            ('e', 2.0),
            ('f', 3.0),
        ],
    );
    let targets = [kb.node_id_by_iri("e:t").unwrap()];

    let mut counters = SearchCounters::default();
    let outcome = dfs_subtree(
        &Evaluator::new(&kb, 16),
        &queue,
        3,
        &sorted_targets(&targets),
        &mut counters,
        Prune::Cutoff(Some(Bits::new(4.0))),
        || false,
        |_, _| panic!("nothing under root 3 is cheaper than the 3rd RE"),
    );
    assert!(!outcome.found && outcome.complete);
    assert_eq!(counters.nodes_visited, 2);

    let got = remi_search(
        &Evaluator::new(&kb, 16),
        &queue,
        &targets,
        &Deadline::default(),
        3,
    );
    let uncut = oracle_remi_search(&Evaluator::new(&kb, 16), &queue, &targets, 3, false);
    assert_eq!(got.status, SearchStatus::Completed);
    assert_eq!(
        got.found,
        vec![
            (conj(&queue, &[0, 1]), Bits::new(2.0)),
            (conj(&queue, &[1, 2, 3]), Bits::new(3.0)),
            (conj(&queue, &[2, 3, 4]), Bits::new(4.0)),
        ]
    );
    assert_eq!(got.found, uncut.found);
    assert_eq!(
        (got.counters.nodes_visited, uncut.counters.nodes_visited),
        (10, 13)
    );
}
