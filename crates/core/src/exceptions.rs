//! REs with exceptions — the paper's §6 future-work extension.
//!
//! *"We also envision to relax the unambiguity constraint to mine REs
//! with exceptions."* An RE-with-exceptions for `T` is an expression
//! whose bindings are `T ∪ E` for a small exception set `E`; the
//! description reads "…, except \<the members of E\>". Coding the
//! exceptions costs bits too: each exception entity is coded by its rank
//! in the global prominence ranking, so a nearly-unambiguous expression
//! built from prominent concepts can beat a convoluted exact one.

use remi_kb::{KnowledgeBase, NodeId};

use crate::bits::Bits;
use crate::complexity::CostModel;
use crate::eval::Evaluator;
use crate::expr::Expression;
use crate::search::{sorted_targets, ScoredExpr};

/// An expression plus the entities it wrongly includes.
#[derive(Debug, Clone)]
pub struct ExceptionRe {
    /// The expression (matches `targets ∪ exceptions`).
    pub expr: Expression,
    /// The extra entities, sorted by id.
    pub exceptions: Vec<NodeId>,
    /// Total cost: `Ĉ(expr)` plus the exception coding cost.
    pub cost: Bits,
}

/// Coding cost of one exception: `log2` of the entity's 1-based rank in
/// the global prominence ranking, approximated via its frequency — the
/// same code the `Ĉ` scheme would assign to naming the entity outright.
fn exception_bits(model: &CostModel<'_>, kb: &KnowledgeBase, e: NodeId) -> Bits {
    // Rank ≈ (#entities with higher prominence) + 1; rather than a full
    // ranking we use the power-law relation between frequency and rank
    // that already underpins Eq. 1: rare entities cost ~log2(N).
    let prom = model.node_prominence(e).max(1.0);
    let n = kb.num_nodes().max(2) as f64;
    Bits::new((n / prom).log2())
}

/// Mines an RE allowing up to `max_exceptions` extra entities. Considers
/// prefixes of the scored queue (single subgraph expressions and greedy
/// conjunctions), keeping the cheapest `(expr, exceptions)` combination.
///
/// Returns `None` when nothing within the exception budget exists.
pub fn describe_with_exceptions(
    kb: &KnowledgeBase,
    model: &CostModel<'_>,
    eval: &Evaluator<'_>,
    queue: &[ScoredExpr],
    targets: &[NodeId],
    max_exceptions: usize,
) -> Option<ExceptionRe> {
    let sorted_targets = sorted_targets(targets);

    let mut best: Option<ExceptionRe> = None;

    let consider = |parts: &[crate::expr::SubgraphExpr], best: &mut Option<ExceptionRe>| {
        let bindings = eval.conjunction_bindings(parts);
        // Bindings must cover all targets (guaranteed for queue elements)
        // and exceed them by at most the budget.
        if bindings.len() < sorted_targets.len()
            || bindings.len() > sorted_targets.len() + max_exceptions
        {
            return;
        }
        let mut exceptions: Vec<NodeId> = Vec::new();
        let mut ti = 0usize;
        for &b in &bindings {
            if ti < sorted_targets.len() && sorted_targets[ti] == b {
                ti += 1;
            } else {
                exceptions.push(NodeId(b));
            }
        }
        if ti < sorted_targets.len() {
            return; // a target is missing — not a covering expression
        }
        let mut cost = model.parts_cost(parts);
        for &e in &exceptions {
            cost = cost + exception_bits(model, kb, e);
        }
        let better = match best {
            Some(b) => cost < b.cost,
            None => true,
        };
        if better {
            *best = Some(ExceptionRe {
                expr: Expression {
                    parts: parts.to_vec(),
                },
                exceptions,
                cost,
            });
        }
    };

    // Single expressions, in cost order.
    for scored in queue {
        if let Some(b) = &best {
            if scored.cost >= b.cost {
                break; // everything later is at least as costly before exceptions
            }
        }
        consider(&[scored.expr], &mut best);
    }
    // Greedy pairs: the cheapest expression with each successor.
    if let Some(first) = queue.first() {
        for second in queue.iter().skip(1).take(64) {
            if let Some(b) = &best {
                if first.cost + second.cost >= b.cost {
                    break;
                }
            }
            consider(&[first.expr, second.expr], &mut best);
        }
    }

    best
}

/// Verbalises an exception RE: "…, except A and B".
pub fn verbalize_with_exceptions(kb: &KnowledgeBase, re: &ExceptionRe) -> String {
    let base = crate::verbalize::verbalize(kb, &re.expr);
    if re.exceptions.is_empty() {
        return base;
    }
    let names: Vec<String> = re.exceptions.iter().map(|&e| kb.node_name(e)).collect();
    format!("{base}, except {}", names.join(" and "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complexity::{EntityCodeMode, Prominence};
    use crate::config::EnumerationConfig;
    use crate::enumerate::{common_subgraph_expressions, EnumContext};
    use crate::search::build_queue;
    use remi_kb::KbBuilder;

    fn setup<'a>(kb: &'a KnowledgeBase, targets: &[NodeId]) -> (CostModel<'a>, Vec<ScoredExpr>) {
        let cfg = EnumerationConfig {
            prominent_cutoff: 0.0,
            ..Default::default()
        };
        let ctx = EnumContext::new(kb, &cfg);
        let (common, _) = common_subgraph_expressions(kb, targets, &cfg, &ctx);
        let model = CostModel::new(kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let queue = build_queue(&model, &common, 1);
        (model, queue)
    }

    #[test]
    fn exact_re_needs_no_exceptions() {
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:in", "e:France");
        b.add_iri("e:Lyon", "p:in", "e:France");
        let kb = b.build().unwrap();
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let (model, queue) = setup(&kb, &[paris]);
        let eval = Evaluator::new(&kb, 64);
        let re = describe_with_exceptions(&kb, &model, &eval, &queue, &[paris], 2)
            .expect("exact RE exists");
        assert!(re.exceptions.is_empty());
    }

    #[test]
    fn tolerates_one_exception_where_no_exact_re_exists() {
        let mut b = KbBuilder::new();
        // twin1, twin2 both "in Town"; twin1 alone has no exact RE, but
        // "in Town, except twin2" works.
        b.add_iri("e:twin1", "p:in", "e:Town");
        b.add_iri("e:twin2", "p:in", "e:Town");
        b.add_iri("e:other", "p:in", "e:City");
        let kb = b.build().unwrap();
        let twin1 = kb.node_id_by_iri("e:twin1").unwrap();
        let twin2 = kb.node_id_by_iri("e:twin2").unwrap();
        let (model, queue) = setup(&kb, &[twin1]);
        let eval = Evaluator::new(&kb, 64);

        assert!(
            describe_with_exceptions(&kb, &model, &eval, &queue, &[twin1], 0).is_none(),
            "no exact RE for one twin"
        );
        let re = describe_with_exceptions(&kb, &model, &eval, &queue, &[twin1], 1)
            .expect("one exception suffices");
        assert_eq!(re.exceptions, vec![twin2]);
        let text = verbalize_with_exceptions(&kb, &re);
        assert!(text.contains("except"), "{text}");
        assert!(text.contains("twin2"), "{text}");
    }

    #[test]
    fn exception_budget_is_respected() {
        let mut b = KbBuilder::new();
        for i in 0..5 {
            b.add_iri(&format!("e:m{i}"), "p:in", "e:Town");
        }
        let kb = b.build().unwrap();
        let m0 = kb.node_id_by_iri("e:m0").unwrap();
        let (model, queue) = setup(&kb, &[m0]);
        let eval = Evaluator::new(&kb, 64);
        // Four exceptions needed; budgets below that fail.
        for budget in 0..4 {
            assert!(
                describe_with_exceptions(&kb, &model, &eval, &queue, &[m0], budget).is_none(),
                "budget {budget} should not suffice"
            );
        }
        let re = describe_with_exceptions(&kb, &model, &eval, &queue, &[m0], 4).unwrap();
        assert_eq!(re.exceptions.len(), 4);
    }

    #[test]
    fn exceptions_cost_bits() {
        let mut b = KbBuilder::new();
        b.add_iri("e:twin1", "p:in", "e:Town");
        b.add_iri("e:twin2", "p:in", "e:Town");
        let kb = b.build().unwrap();
        let twin1 = kb.node_id_by_iri("e:twin1").unwrap();
        let (model, queue) = setup(&kb, &[twin1]);
        let eval = Evaluator::new(&kb, 64);
        let re = describe_with_exceptions(&kb, &model, &eval, &queue, &[twin1], 1).unwrap();
        // Total cost exceeds the bare expression cost: exceptions are paid.
        assert!(re.cost > model.expression_cost(&re.expr) || re.exceptions.is_empty());
    }
}
