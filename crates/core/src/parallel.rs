//! P-REMI — the parallel variant (§3.4, Algorithm 3).
//!
//! Worker tasks dequeue root subgraph expressions concurrently and
//! explore the subtrees rooted at them. Three coordination rules
//! distinguish P-REMI from the sequential algorithm:
//!
//! 1. the incumbent solution `e` is shared (read and written) by all
//!    workers;
//! 2. a worker whose exploration rooted at `ρᵢ` finds *no* solution
//!    signals all workers on roots `ρⱼ (j > i)` to stop — those subtrees
//!    only cover less specific expression sets;
//! 3. before testing an expression, a worker backtracks while the stack's
//!    cost is at least the incumbent's (Alg. 3 line 6).
//!
//! Each subtree runs `search::dfs_subtree`, the DFS sequential REMI runs too:
//! rule 3 is its pruning bound, rule 2 is part of its stop test, and its
//! finds go to the shared incumbent (rule 1). This module holds only the
//! root scheduling and the shared state.
//!
//! Execution goes through the shared [`remi_pool`] executor: one
//! process-wide thread pool instead of a `std::thread::scope` spawn per
//! call, and workers claim *shards* of contiguous roots (instead of one
//! root at a time) so the incumbent-lock and cursor traffic amortises
//! over a batch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use remi_kb::NodeId;
use remi_pool::{CancelToken, Executor, FloorToken};

use crate::bits::Bits;
use crate::eval::Evaluator;
use crate::expr::Expression;
use crate::search::{
    dfs_subtree, sorted_targets, Deadline, Prune, ScoredExpr, SearchCounters, SearchResult,
    SearchStatus,
};

struct Shared {
    /// Incumbent expressions, striped per worker task: each worker
    /// installs improvements into its own stripe, so offers from
    /// different workers never contend on one mutex. The true incumbent
    /// is the stripe minimum, merged once at join by [`Shared::take_best`];
    /// pruning during the search uses the global
    /// [`Shared::best_cost_bits`] mirror, which remains a single
    /// `fetch_min` shared across all stripes.
    best: Vec<Mutex<Option<(Expression, Bits)>>>,
    /// The incumbent's cost as `f64` bit pattern — the lock-free fast
    /// path for the read-heavy Alg. 3 line 6 check. Non-negative floats
    /// order like their bit patterns, so `fetch_min` keeps it monotone;
    /// a reader may observe a cost whose expression is still being
    /// installed under the mutex, which is safe: that cost belongs to a
    /// real solution, so pruning against it never discards the optimum.
    best_cost_bits: AtomicU64,
    /// Lowest root index whose subtree exploration found no solution.
    /// Roots at or beyond this index are superfluous (§3.4, rule 2).
    no_solution_floor: FloorToken,
    /// Work-stealing cursor over root indices; claims advance by a shard
    /// of contiguous roots at a time.
    next_root: AtomicUsize,
    /// Deadline fired.
    timed_out: CancelToken,
}

impl Shared {
    fn new(stripes: usize) -> Shared {
        Shared {
            best: (0..stripes.max(1)).map(|_| Mutex::new(None)).collect(),
            best_cost_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            no_solution_floor: FloorToken::new(),
            next_root: AtomicUsize::new(0),
            timed_out: CancelToken::new(),
        }
    }

    /// The incumbent cost — one atomic load, no mutex (ROADMAP item:
    /// P-REMI workers check the incumbent without the lock).
    #[inline]
    fn best_cost(&self) -> Bits {
        Bits::new(f64::from_bits(self.best_cost_bits.load(Ordering::Acquire)))
    }

    fn offer(&self, stripe: usize, expr: Expression, cost: Bits) {
        // Advertise the cost first so concurrent readers prune as early
        // as possible; fetch_min makes concurrent offers commute.
        self.best_cost_bits
            .fetch_min(cost.value().to_bits(), Ordering::AcqRel);
        // Install into this worker's own stripe: uncontended in the
        // steady state (each worker task owns one stripe), so the
        // install cost is a cache-local lock with no cross-worker wait.
        let mut guard = self.best[stripe % self.best.len()].lock();
        let better = match guard.as_ref() {
            Some((_, incumbent)) => cost < *incumbent,
            None => true,
        };
        if better {
            *guard = Some((expr, cost));
        }
    }

    /// Merge the per-worker stripes into the global incumbent — called
    /// once after all workers join, so plain sequential locking is fine.
    fn take_best(&self) -> Option<(Expression, Bits)> {
        let mut best: Option<(Expression, Bits)> = None;
        for stripe in &self.best {
            if let Some((expr, cost)) = stripe.lock().take() {
                let better = match best.as_ref() {
                    Some((_, incumbent)) => cost < *incumbent,
                    None => true,
                };
                if better {
                    best = Some((expr, cost));
                }
            }
        }
        best
    }
}

/// How many contiguous roots one claim hands a worker. Large enough to
/// amortise the claim + incumbent-read per root, small enough to keep the
/// tail balanced across `tasks` workers.
fn root_shard_size(queue_len: usize, tasks: usize) -> usize {
    (queue_len / (tasks.max(1) * 4)).clamp(1, 64)
}

/// P-REMI (§3.4): Algorithm 1 with the root loop executed by `threads`
/// worker tasks over a shared queue, incumbent, and stop signal, on an
/// explicit [`Executor`]. Exposed so benchmarks and differential tests can
/// pit the pooled executor against the spawn-per-call baseline
/// ([`remi_pool::SpawnExecutor`]).
pub fn parallel_remi_search_on(
    executor: &dyn Executor,
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    targets: &[NodeId],
    deadline: &Deadline,
    threads: usize,
) -> SearchResult {
    let sorted_targets = sorted_targets(targets);

    let tasks = threads.max(1).min(queue.len().max(1));
    let shared = Shared::new(tasks);
    let counters_total = Mutex::new(SearchCounters::default());

    let shard = root_shard_size(queue.len(), tasks);
    executor.broadcast(tasks, &|worker| {
        let mut counters = SearchCounters::default();
        'claims: loop {
            // Claim a shard of contiguous roots; batching amortises the
            // cursor and incumbent-lock traffic over `shard` roots.
            let start = shared.next_root.fetch_add(shard, Ordering::Relaxed);
            if start >= queue.len() {
                break;
            }
            let end = (start + shard).min(queue.len());
            for root in start..end {
                // Rule 2: roots at or beyond the floor are superfluous,
                // and later claims are higher still.
                if shared.no_solution_floor.is_cancelled(root) {
                    break 'claims;
                }
                if deadline.passed() {
                    shared.timed_out.cancel();
                    break 'claims;
                }
                // Root-level incumbent cutoff (the parallel counterpart
                // of Alg. 3 line 6 applied at depth one); the queue is
                // cost-sorted, so every later root is at least as costly.
                if queue[root].cost >= shared.best_cost() {
                    break 'claims;
                }
                // Alg. 3: the subtree DFS pruned by the shared incumbent,
                // stopped by the deadline or by §3.4 rule 2 (a lower root
                // found no solution, so this subtree is superfluous).
                let outcome = dfs_subtree(
                    eval,
                    queue,
                    root,
                    &sorted_targets,
                    &mut counters,
                    Prune::Incumbent(&|| shared.best_cost()),
                    || {
                        if deadline.passed() {
                            shared.timed_out.cancel();
                            return true;
                        }
                        shared.no_solution_floor.is_cancelled(root)
                    },
                    |expr, cost| shared.offer(worker, expr, cost),
                );
                if !outcome.found && outcome.complete {
                    // Rule 2: a *complete* solution-free exploration
                    // rooted at ρᵢ proves even the most specific
                    // suffix conjunction fails, so all subtrees rooted
                    // at ρⱼ (j > i) — which cover less specific
                    // expression sets — are superfluous.
                    shared.no_solution_floor.lower(root);
                }
            }
        }
        let mut total = counters_total.lock();
        total.nodes_visited += counters.nodes_visited;
        total.re_tests += counters.re_tests;
    });

    let found: Vec<(Expression, Bits)> = shared.take_best().into_iter().collect();
    let status = if shared.timed_out.is_cancelled() {
        SearchStatus::TimedOut
    } else if found.is_empty() {
        SearchStatus::NoSolution
    } else {
        SearchStatus::Completed
    };
    let counters = *counters_total.lock();
    SearchResult {
        found,
        status,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexity::{CostModel, EntityCodeMode, Prominence};
    use crate::config::EnumerationConfig;
    use crate::enumerate::{common_subgraph_expressions, EnumContext};
    use crate::search::{build_queue, remi_search};
    use proptest::prelude::*;
    use remi_kb::{KbBuilder, KnowledgeBase};
    use remi_pool::SpawnExecutor;
    use std::time::Duration;

    fn rennes_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for city in ["Rennes", "Nantes"] {
            b.add_iri(&format!("e:{city}"), "p:in", "e:Brittany");
            b.add_iri(&format!("e:{city}"), "p:mayor", &format!("e:mayor{city}"));
            b.add_iri(&format!("e:mayor{city}"), "p:party", "e:Socialist");
        }
        b.add_iri("e:Vannes", "p:in", "e:Brittany");
        b.add_iri("e:Vannes", "p:mayor", "e:mayorVannes");
        b.add_iri("e:mayorVannes", "p:party", "e:Green");
        b.add_iri("e:Lille", "p:mayor", "e:mayorLille");
        b.add_iri("e:mayorLille", "p:party", "e:Socialist");
        b.build().unwrap()
    }

    fn setup<'a>(
        kb: &'a KnowledgeBase,
        targets: &[&str],
    ) -> (Vec<ScoredExpr>, Vec<remi_kb::NodeId>, CostModel<'a>) {
        let cfg = EnumerationConfig {
            prominent_cutoff: 0.0,
            ..Default::default()
        };
        let ctx = EnumContext::new(kb, &cfg);
        let ids: Vec<remi_kb::NodeId> = targets
            .iter()
            .map(|t| kb.node_id_by_iri(t).unwrap())
            .collect();
        let (common, _) = common_subgraph_expressions(kb, &ids, &cfg, &ctx);
        let model = CostModel::new(kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let queue = build_queue(&model, &common, 1);
        (queue, ids, model)
    }

    /// P-REMI on the shared pool, with no deadline.
    fn premi(
        eval: &Evaluator<'_>,
        queue: &[ScoredExpr],
        ids: &[remi_kb::NodeId],
        threads: usize,
    ) -> SearchResult {
        parallel_remi_search_on(
            remi_pool::global(),
            eval,
            queue,
            ids,
            &Deadline::default(),
            threads,
        )
    }

    #[test]
    fn parallel_matches_sequential_cost() {
        let kb = rennes_kb();
        let (queue, ids, _model) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let eval = Evaluator::new(&kb, 1024);
        let seq = remi_search(&eval, &queue, &ids, &Deadline::default(), 1);
        for threads in [1, 2, 4, 8] {
            let eval_p = Evaluator::new(&kb, 1024);
            let par = premi(&eval_p, &queue, &ids, threads);
            assert_eq!(par.status, SearchStatus::Completed, "threads={threads}");
            assert_eq!(
                par.found.first().map(|(_, c)| *c),
                seq.found.first().map(|(_, c)| *c),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_result_is_a_valid_re() {
        let kb = rennes_kb();
        let (queue, ids, _) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let eval = Evaluator::new(&kb, 1024);
        let par = premi(&eval, &queue, &ids, 4);
        let (expr, _) = par.found.into_iter().next().expect("solution exists");
        let mut t: Vec<u32> = ids.iter().map(|n| n.0).collect();
        t.sort_unstable();
        let check = Evaluator::new(&kb, 16);
        assert!(check.is_referring_expression(&expr.parts, &t));
    }

    #[test]
    fn parallel_no_solution() {
        let mut b = KbBuilder::new();
        b.add_iri("e:twin1", "p:in", "e:Town");
        b.add_iri("e:twin2", "p:in", "e:Town");
        let kb = b.build().unwrap();
        let (queue, ids, _) = setup(&kb, &["e:twin1"]);
        let eval = Evaluator::new(&kb, 64);
        let par = premi(&eval, &queue, &ids, 4);
        assert_eq!(par.status, SearchStatus::NoSolution);
        assert!(par.found.is_empty());
    }

    /// §3.4 rule 2 under sharded root batches: with one worker task the
    /// schedule is deterministic — the first root's complete, solution-free
    /// exploration lowers the floor to 0 and every remaining root of the
    /// claimed shard (and all later shards) is skipped.
    #[test]
    fn no_solution_floor_propagates_across_root_shards() {
        let mut b = KbBuilder::new();
        b.add_iri("e:twin1", "p:in", "e:Town");
        b.add_iri("e:twin2", "p:in", "e:Town");
        b.add_iri("e:twin1", "p:near", "e:River");
        b.add_iri("e:twin2", "p:near", "e:River");
        b.add_iri("e:twin1", "p:has", "e:Hall");
        b.add_iri("e:twin2", "p:has", "e:Hall");
        let kb = b.build().unwrap();
        let (queue, ids, _) = setup(&kb, &["e:twin1"]);
        assert!(queue.len() > 1, "need multiple roots, got {}", queue.len());
        let eval = Evaluator::new(&kb, 64);
        let par = premi(&eval, &queue, &ids, 1);
        assert_eq!(par.status, SearchStatus::NoSolution);
        // Root 0's solution-free subtree pushes every index once; any
        // later root would push at least one more.
        assert_eq!(
            par.counters.nodes_visited,
            queue.len() as u64,
            "floor must cancel the rest of the shard"
        );
    }

    #[test]
    fn parallel_empty_queue() {
        let kb = rennes_kb();
        let eval = Evaluator::new(&kb, 16);
        let rennes = kb.node_id_by_iri("e:Rennes").unwrap();
        let par = premi(&eval, &[], &[rennes], 4);
        assert_eq!(par.status, SearchStatus::NoSolution);
    }

    #[test]
    fn parallel_timeout() {
        let kb = rennes_kb();
        let (queue, ids, _) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let eval = Evaluator::new(&kb, 16);
        let past = Deadline::after(Some(Duration::ZERO));
        let par = parallel_remi_search_on(remi_pool::global(), &eval, &queue, &ids, &past, 2);
        assert_eq!(par.status, SearchStatus::TimedOut);
    }

    #[test]
    fn many_threads_on_tiny_queue_is_safe() {
        let kb = rennes_kb();
        let (queue, ids, _) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let eval = Evaluator::new(&kb, 64);
        let par = premi(&eval, &queue, &ids, 64);
        assert!(!par.found.is_empty());
    }

    /// Determinism of *cost*: thread interleaving may change which of
    /// several equal-cost REs is reported, but never the optimal cost.
    #[test]
    fn repeated_parallel_runs_agree_on_cost() {
        let kb = rennes_kb();
        let (queue, ids, _) = setup(&kb, &["e:Rennes", "e:Nantes"]);
        let mut costs = Vec::new();
        for _ in 0..10 {
            let eval = Evaluator::new(&kb, 256);
            let par = premi(&eval, &queue, &ids, 4);
            costs.push(par.found.first().map(|(_, c)| *c));
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
    }

    /// The lock-free cost mirror agrees with the striped incumbents and
    /// is monotone under out-of-order offers from different workers; the
    /// join-time merge picks the stripe minimum.
    #[test]
    fn atomic_best_cost_tracks_offers_monotonically() {
        let kb = rennes_kb();
        let (queue, _, model) = setup(&kb, &["e:Rennes"]);
        let exprs: Vec<Expression> = queue
            .iter()
            .take(3)
            .map(|se| Expression {
                parts: vec![se.expr],
            })
            .collect();
        assert!(exprs.len() >= 2, "need expressions to offer");
        let shared = Shared::new(3);
        assert!(shared.best_cost().is_infinite());
        // Offer in a worsening-then-improving order, from distinct
        // worker stripes: the cost mirror is global across stripes.
        shared.offer(0, exprs[0].clone(), Bits::new(5.0));
        assert_eq!(shared.best_cost(), Bits::new(5.0));
        shared.offer(1, exprs[1].clone(), Bits::new(9.0)); // worse globally
        assert_eq!(shared.best_cost(), Bits::new(5.0));
        shared.offer(2, exprs[1].clone(), Bits::new(2.0));
        assert_eq!(shared.best_cost(), Bits::new(2.0));
        // Stripe 1 holds its local 9.0 incumbent, but the merge must
        // return the global minimum across stripes.
        let (_, cost) = shared.take_best().expect("incumbent installed");
        assert_eq!(cost, Bits::new(2.0));
        // take_best drains the stripes.
        assert!(shared.take_best().is_none());
        let _ = model;
    }

    /// A stripe index beyond the stripe count wraps instead of panicking
    /// (executors may report worker indices ≥ the broadcast task count).
    #[test]
    fn offer_wraps_out_of_range_stripe() {
        let kb = rennes_kb();
        let (queue, _, _) = setup(&kb, &["e:Rennes"]);
        let expr = Expression {
            parts: vec![queue[0].expr],
        };
        let shared = Shared::new(2);
        shared.offer(7, expr, Bits::new(3.0));
        assert_eq!(shared.best_cost(), Bits::new(3.0));
        assert_eq!(shared.take_best().map(|(_, c)| c), Some(Bits::new(3.0)));
    }

    #[test]
    fn shard_size_is_bounded_and_positive() {
        assert_eq!(root_shard_size(0, 4), 1);
        assert_eq!(root_shard_size(3, 4), 1);
        assert_eq!(root_shard_size(320, 4), 20);
        assert_eq!(root_shard_size(1 << 20, 2), 64); // capped
        assert_eq!(root_shard_size(100, 0), 25); // tasks floored at 1
    }

    proptest! {
        /// The pooled executor and the spawn-per-call baseline agree on
        /// the incumbent cost for arbitrary target pairs and thread
        /// counts (the §3.4 rules are executor-independent).
        #[test]
        fn pool_and_spawn_scope_agree_on_incumbent(
            a in 0usize..6,
            b in 0usize..6,
            threads in 1usize..6,
        ) {
            let kb = rennes_kb();
            let cities = ["e:Rennes", "e:Nantes", "e:Vannes", "e:Lille",
                          "e:mayorRennes", "e:mayorVannes"];
            let targets = if a == b { vec![cities[a]] } else { vec![cities[a], cities[b]] };
            let (queue, ids, _) = setup(&kb, &targets);
            let eval_pool = Evaluator::new(&kb, 256);
            let pooled = parallel_remi_search_on(
                remi_pool::global(), &eval_pool, &queue, &ids, &Deadline::default(), threads);
            let eval_spawn = Evaluator::new(&kb, 256);
            let spawned = parallel_remi_search_on(
                &SpawnExecutor, &eval_spawn, &queue, &ids, &Deadline::default(), threads);
            prop_assert_eq!(pooled.status, spawned.status);
            prop_assert_eq!(
                pooled.found.first().map(|(_, c)| *c),
                spawned.found.first().map(|(_, c)| *c)
            );
        }
    }
}
