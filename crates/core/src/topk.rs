//! Top-k mining: the k least-complex *distinct* referring expressions.
//!
//! Algorithm 1 returns one RE; applications like the §4.1.2 study (and any
//! UI offering alternatives) want several. [`remi_search`] harvests the
//! best RE of each DFS subtree and cuts the root loop exactly when no
//! later root can contribute, so the cheapest returned RE matches
//! [`Remi::describe`](crate::Remi::describe) in cost.

use remi_kb::NodeId;

use crate::eval::Evaluator;
use crate::miner::Remi;
use crate::search::{remi_search, Deadline, SearchResult};

/// Mines up to `k` distinct REs for `targets`, cheapest first, with
/// sequential REMI under `remi`'s configuration (its timeout included).
///
/// The first RE (when any exists) has the same cost as the single answer
/// of [`Remi::describe`]. Later ones are the best REs of other DFS
/// subtrees — the "other REs encountered during search space traversal"
/// of the paper's §4.1.2 protocol.
///
/// # Panics
///
/// Panics when `k` is zero.
pub fn describe_top_k(remi: &Remi<'_>, targets: &[NodeId], k: usize) -> SearchResult {
    let (queue, _) = remi.ranked_common_expressions(targets);
    let eval = Evaluator::new(remi.kb(), remi.config().cache_capacity);
    let deadline = Deadline::after(remi.config().timeout);
    remi_search(&eval, &queue, targets, &deadline, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EnumerationConfig, RemiConfig};
    use remi_kb::{KbBuilder, KnowledgeBase};

    fn kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        // Rennes/Nantes with three independent distinguishing signals.
        for city in ["Rennes", "Nantes"] {
            b.add_iri(&format!("e:{city}"), "p:belongedTo", "e:Brittany");
            b.add_iri(&format!("e:{city}"), "p:placeOf", "e:Epitech");
            b.add_iri(&format!("e:{city}"), "p:mayor", &format!("e:mayor{city}"));
            b.add_iri(&format!("e:mayor{city}"), "p:party", "e:Socialist");
        }
        b.add_iri("e:Vannes", "p:belongedTo", "e:Brittany");
        b.add_iri("e:Paris", "p:placeOf", "e:Epitech");
        b.add_iri("e:Lille", "p:mayor", "e:mayorLille");
        b.add_iri("e:mayorLille", "p:party", "e:Socialist");
        b.build().unwrap()
    }

    fn remi(kb: &KnowledgeBase) -> Remi<'_> {
        Remi::new(
            kb,
            RemiConfig {
                enumeration: EnumerationConfig {
                    prominent_cutoff: 0.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn first_result_matches_describe() {
        let kb = kb();
        let remi = remi(&kb);
        let targets = [
            kb.node_id_by_iri("e:Rennes").unwrap(),
            kb.node_id_by_iri("e:Nantes").unwrap(),
        ];
        let single = remi.describe(&targets);
        let top = describe_top_k(&remi, &targets, 3).found;
        assert!(!top.is_empty());
        assert_eq!(Some(top[0].1), single.cost());
    }

    #[test]
    fn results_are_distinct_valid_and_sorted() {
        let kb = kb();
        let remi = remi(&kb);
        let targets = [
            kb.node_id_by_iri("e:Rennes").unwrap(),
            kb.node_id_by_iri("e:Nantes").unwrap(),
        ];
        let top = describe_top_k(&remi, &targets, 5).found;
        assert!(top.len() >= 2, "multiple distinct REs exist");
        let eval = Evaluator::new(&kb, 64);
        let mut t: Vec<u32> = targets.iter().map(|n| n.0).collect();
        t.sort_unstable();
        for w in top.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert_ne!(w[0].0, w[1].0);
        }
        for (expr, _) in &top {
            assert!(eval.is_referring_expression(&expr.parts, &t));
        }
    }

    #[test]
    fn k_caps_the_result() {
        let kb = kb();
        let remi = remi(&kb);
        let targets = [
            kb.node_id_by_iri("e:Rennes").unwrap(),
            kb.node_id_by_iri("e:Nantes").unwrap(),
        ];
        let top = describe_top_k(&remi, &targets, 1).found;
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn no_solution_yields_empty() {
        let mut b = KbBuilder::new();
        b.add_iri("e:t1", "p:in", "e:Town");
        b.add_iri("e:t2", "p:in", "e:Town");
        let kb = b.build().unwrap();
        let remi = remi(&kb);
        let t1 = kb.node_id_by_iri("e:t1").unwrap();
        assert!(describe_top_k(&remi, &[t1], 3).found.is_empty());
    }
}
