//! The top-level REMI miner: ties enumeration, complexity, and search into
//! the API a downstream user calls.

use std::sync::Arc;
use std::time::{Duration, Instant};

use remi_kb::{KnowledgeBase, NodeId};

use crate::bits::Bits;
use crate::complexity::{CostModel, CostTables};
use crate::config::RemiConfig;
use crate::enumerate::{common_subgraph_expressions, EnumContext};
use crate::eval::{EvalStats, Evaluator};
use crate::expr::Expression;
use crate::parallel::parallel_remi_search_on;
use crate::search::{build_queue, remi_search, Deadline, ScoredExpr, SearchStatus};

/// Phase timings and counters of one mining call — the quantities §3.5.2
/// and §4.2.2 report (queue-construction share, cache behaviour, timeouts).
#[derive(Debug, Clone, Default)]
pub struct MiningStats {
    /// Number of common subgraph expressions (the queue size).
    pub queue_size: usize,
    /// Enumeration was truncated by a cap.
    pub truncated: bool,
    /// Time enumerating + scoring + sorting the queue (Alg. 1 lines 1–2).
    pub queue_time: Duration,
    /// Time in the DFS exploration (Alg. 1 lines 4–8).
    pub search_time: Duration,
    /// Search-tree nodes visited.
    pub nodes_visited: u64,
    /// RE tests executed.
    pub re_tests: u64,
    /// Binding-cache hits. The search looks up one list per tested push
    /// (the pushed conjunct's), so this counts tested pushes whose list
    /// was already cached.
    pub cache_hits: u64,
    /// Binding-cache misses.
    pub cache_misses: u64,
}

/// The outcome of a mining call.
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// The least-complex RE found, with its `Ĉ` in bits.
    pub best: Option<(Expression, Bits)>,
    /// How the search ended.
    pub status: SearchStatus,
    /// Statistics.
    pub stats: MiningStats,
}

impl MiningOutcome {
    /// Convenience accessor for the expression.
    pub fn expression(&self) -> Option<&Expression> {
        self.best.as_ref().map(|(e, _)| e)
    }

    /// Convenience accessor for the cost.
    pub fn cost(&self) -> Option<Bits> {
        self.best.as_ref().map(|(_, c)| *c)
    }
}

/// Everything a [`Remi`] derives from its KB before mining: the `Ĉ`
/// rankings ([`CostTables`]) and the §3.5.2 enumeration context, with
/// the configuration they were built for.
///
/// It owns no KB, and it is `Send + Sync`: build it once per KB content
/// and share it by `Arc` between every miner over that content (a KB
/// with the same triples and the same node and predicate numbering,
/// whatever its storage layout). [`Remi::new`] builds a private one.
pub struct MinerContext {
    config: RemiConfig,
    cost: Arc<CostTables>,
    enumeration: EnumContext,
}

impl MinerContext {
    /// Builds the context of `kb` under `config`: O(KB log KB).
    pub fn new(kb: &KnowledgeBase, config: RemiConfig) -> Self {
        MinerContext {
            cost: Arc::new(CostTables::new(kb, config.prominence, config.entity_code)),
            enumeration: EnumContext::new(kb, &config.enumeration),
            config,
        }
    }
}

/// The REMI miner: a KB plus the [`MinerContext`] built from it.
/// `describe` calls mine REs for arbitrary target sets.
pub struct Remi<'kb> {
    model: CostModel<'kb>,
    context: Arc<MinerContext>,
}

impl<'kb> Remi<'kb> {
    /// Builds a miner over `kb` with the given configuration: builds a
    /// private [`MinerContext`] and calls [`Remi::with_context`].
    pub fn new(kb: &'kb KnowledgeBase, config: RemiConfig) -> Self {
        Self::with_context(kb, Arc::new(MinerContext::new(kb, config)))
    }

    /// A miner over `kb` that shares `context`, which must have been built
    /// from a KB with `kb`'s content. Costs two `Arc` clones.
    ///
    /// # Panics
    ///
    /// Panics when `kb`'s node or predicate count differs from the one
    /// the context was built over.
    pub fn with_context(kb: &'kb KnowledgeBase, context: Arc<MinerContext>) -> Self {
        Remi {
            model: CostModel::over(kb, Arc::clone(&context.cost)),
            context,
        }
    }

    /// The underlying KB.
    pub fn kb(&self) -> &'kb KnowledgeBase {
        self.model.kb()
    }

    /// The cost model (exposed for experiments that inspect `Ĉ`).
    pub fn model(&self) -> &CostModel<'kb> {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &RemiConfig {
        &self.context.config
    }

    /// Line 1–2 of Algorithm 1: the priority queue of common subgraph
    /// expressions for `targets`, sorted by ascending `Ĉ`. Exposed because
    /// the Table 2 experiment ranks these directly.
    pub fn ranked_common_expressions(&self, targets: &[NodeId]) -> (Vec<ScoredExpr>, bool) {
        let config = self.config();
        let (common, stats) = common_subgraph_expressions(
            self.kb(),
            targets,
            &config.enumeration,
            &self.context.enumeration,
        );
        let queue = build_queue(&self.model, &common, config.threads);
        (queue, stats.truncated)
    }

    /// Mines the most intuitive RE for `targets` (Algorithm 1; P-REMI when
    /// `config.threads > 1`).
    pub fn describe(&self, targets: &[NodeId]) -> MiningOutcome {
        assert!(!targets.is_empty(), "need at least one target entity");
        let config = self.config();
        let deadline = Deadline::after(config.timeout);

        // lint:allow(wallclock-in-mining): phase-duration instrumentation reported in MiningOutcome, not used in scoring
        let t0 = Instant::now();
        let (queue, truncated) = self.ranked_common_expressions(targets);
        let queue_time = t0.elapsed();

        let eval = Evaluator::new(self.kb(), config.cache_capacity);
        // lint:allow(wallclock-in-mining): phase-duration instrumentation reported in MiningOutcome, not used in scoring
        let t1 = Instant::now();
        let result = if config.threads > 1 {
            parallel_remi_search_on(
                remi_pool::global(),
                &eval,
                &queue,
                targets,
                &deadline,
                config.threads,
            )
        } else {
            remi_search(&eval, &queue, targets, &deadline, 1)
        };
        let search_time = t1.elapsed();
        let EvalStats {
            cache_hits,
            cache_misses,
        } = eval.stats();

        MiningOutcome {
            best: result.found.into_iter().next(),
            status: result.status,
            stats: MiningStats {
                queue_size: queue.len(),
                truncated,
                queue_time,
                search_time,
                nodes_visited: result.counters.nodes_visited,
                re_tests: result.counters.re_tests,
                cache_hits,
                cache_misses,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EnumerationConfig, LanguageBias};
    use remi_kb::KbBuilder;

    fn kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for (c, lang) in [
            ("Guyana", "English"),
            ("Suriname", "Dutch"),
            ("Brazil", "Portuguese"),
            ("Peru", "Spanish"),
            ("Argentina", "Spanish"),
        ] {
            b.add_iri(&format!("e:{c}"), "p:in", "e:SouthAmerica");
            b.add_iri(
                &format!("e:{c}"),
                "p:officialLanguage",
                &format!("e:{lang}"),
            );
        }
        for l in ["English", "Dutch"] {
            b.add_iri(&format!("e:{l}"), "p:langFamily", "e:Germanic");
        }
        for l in ["Portuguese", "Spanish"] {
            b.add_iri(&format!("e:{l}"), "p:langFamily", "e:Romance");
        }
        b.build().unwrap()
    }

    fn small_config() -> RemiConfig {
        RemiConfig {
            enumeration: EnumerationConfig {
                prominent_cutoff: 0.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn mines_the_guyana_suriname_example() {
        let kb = kb();
        let remi = Remi::new(&kb, small_config());
        let targets = [
            kb.node_id_by_iri("e:Guyana").unwrap(),
            kb.node_id_by_iri("e:Suriname").unwrap(),
        ];
        let outcome = remi.describe(&targets);
        assert_eq!(outcome.status, SearchStatus::Completed);
        let expr = outcome.expression().expect("the paper's §2.2.2 example");
        // Must be a genuine RE.
        let eval = Evaluator::new(&kb, 16);
        let mut t: Vec<u32> = targets.iter().map(|n| n.0).collect();
        t.sort_unstable();
        assert!(eval.is_referring_expression(&expr.parts, &t));
        assert!(outcome.stats.queue_size > 0);
        assert!(outcome.stats.re_tests > 0);
    }

    #[test]
    fn standard_language_may_fail_where_extended_succeeds() {
        // Guyana+Suriname share no single bound atom set that separates
        // them from the rest (their languages differ), but the Germanic
        // path describes them jointly — the motivating case for the
        // extended language bias.
        let kb = kb();
        let mut cfg = small_config();
        cfg.enumeration.language = LanguageBias::Standard;
        let remi_std = Remi::new(&kb, cfg);
        let targets = [
            kb.node_id_by_iri("e:Guyana").unwrap(),
            kb.node_id_by_iri("e:Suriname").unwrap(),
        ];
        let std_outcome = remi_std.describe(&targets);
        assert_eq!(std_outcome.status, SearchStatus::NoSolution);

        let remi_ext = Remi::new(&kb, small_config());
        let ext_outcome = remi_ext.describe(&targets);
        assert_eq!(ext_outcome.status, SearchStatus::Completed);
    }

    #[test]
    fn parallel_config_agrees_with_sequential() {
        let kb = kb();
        let targets = [
            kb.node_id_by_iri("e:Guyana").unwrap(),
            kb.node_id_by_iri("e:Suriname").unwrap(),
        ];
        let seq = Remi::new(&kb, small_config()).describe(&targets);
        let par = Remi::new(&kb, small_config().with_threads(4)).describe(&targets);
        assert_eq!(seq.cost(), par.cost());
    }

    #[test]
    fn ranked_expressions_are_sorted() {
        let kb = kb();
        let remi = Remi::new(&kb, small_config());
        let guyana = kb.node_id_by_iri("e:Guyana").unwrap();
        let (queue, truncated) = remi.ranked_common_expressions(&[guyana]);
        assert!(!truncated);
        assert!(!queue.is_empty());
        for w in queue.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn a_shared_context_mines_what_a_private_one_does() {
        fn shareable<T: Send + Sync>() {}
        shareable::<MinerContext>();
        shareable::<Remi<'_>>();

        let kb = kb();
        let context = Arc::new(MinerContext::new(&kb, small_config()));
        // Same content through an `RKB2` round trip: same numbering, so
        // the context built over the in-memory KB serves the decoded one.
        let decoded = remi_kb::binfmt::read_bytes(&remi_kb::binfmt::write_bytes(&kb), 0.0).unwrap();
        for n in 0..kb.num_nodes() as u32 {
            let targets = [NodeId(n)];
            let private = Remi::new(&kb, small_config()).describe(&targets);
            for over in [&kb, &decoded] {
                let shared = Remi::with_context(over, Arc::clone(&context)).describe(&targets);
                assert_eq!(shared.best, private.best, "node {n}");
                assert_eq!(shared.status, private.status, "node {n}");
                assert_eq!(shared.stats.queue_size, private.stats.queue_size);
            }
        }
    }

    #[test]
    #[should_panic(expected = "different KB")]
    fn a_context_refuses_a_kb_of_another_shape() {
        let kb = kb();
        let context = Arc::new(MinerContext::new(&kb, small_config()));
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:b", "e:c");
        let other = b.build().unwrap();
        Remi::with_context(&other, context);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_panic() {
        let kb = kb();
        let remi = Remi::new(&kb, small_config());
        remi.describe(&[]);
    }
}
