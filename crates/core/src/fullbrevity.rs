//! Dale's *full brevity* algorithm — the classic RE baseline (§5, \[3\]).
//!
//! Full brevity performs a breadth-first search over conjunctions of the
//! target's attributes by increasing length and returns the first
//! (shortest) referring expression. It embodies the *state-of-the-art
//! language bias* (bound atoms only) and the atom-count notion of
//! conciseness the paper argues against: all REs of the same length are
//! equally good, regardless of how obscure their concepts are.
//!
//! Included because the paper's related-work comparison is against this
//! family of algorithms, and because it is the natural opponent on scene
//! KBs (`remi-synth::scenes`).

use remi_kb::term::TermKind;
use remi_kb::{KnowledgeBase, NodeId, PredId};

use crate::eval::Evaluator;
use crate::expr::{Expression, SubgraphExpr};

/// Upper bound on the candidate attributes considered (guards against
/// degenerate hub entities; the classic algorithm assumes scene-sized
/// attribute sets).
const MAX_ATTRIBUTES: usize = 24;

/// Result of a full-brevity search.
#[derive(Debug, Clone)]
pub struct FullBrevityOutcome {
    /// The shortest RE found (ties broken by attribute order), if any.
    pub best: Option<Expression>,
    /// Number of conjunctions tested.
    pub tested: u64,
    /// The search was cut off by the conjunction-size bound.
    pub exhausted: bool,
}

/// Finds a shortest conjunction of bound atoms describing exactly
/// `targets`, testing conjunctions in increasing length up to `max_len`.
pub fn full_brevity(kb: &KnowledgeBase, targets: &[NodeId], max_len: usize) -> FullBrevityOutcome {
    assert!(!targets.is_empty(), "need at least one target");
    let mut sorted_targets: Vec<u32> = targets.iter().map(|t| t.0).collect();
    sorted_targets.sort_unstable();
    sorted_targets.dedup();

    // Candidate attributes: bound atoms shared by all targets.
    let first = targets[0];
    let mut attributes: Vec<SubgraphExpr> = Vec::new();
    for p in kb.preds_of_subject(first) {
        let p = PredId(p);
        for o in kb.objects(p, first) {
            let o = NodeId(o);
            if kb.node_kind(o) == TermKind::Blank {
                continue;
            }
            if targets.iter().all(|&t| kb.contains(t, p, o)) {
                attributes.push(SubgraphExpr::Atom { p, o });
            }
        }
    }
    attributes.sort_unstable();
    attributes.truncate(MAX_ATTRIBUTES);

    let eval = Evaluator::new(kb, 1024);
    let mut tested = 0u64;

    // Breadth-first over conjunction sizes.
    for len in 1..=max_len.min(attributes.len()) {
        let mut indices: Vec<usize> = (0..len).collect();
        loop {
            let parts: Vec<SubgraphExpr> = indices.iter().map(|&i| attributes[i]).collect();
            tested += 1;
            if eval.is_referring_expression(&parts, &sorted_targets) {
                return FullBrevityOutcome {
                    best: Some(Expression { parts }),
                    tested,
                    exhausted: false,
                };
            }
            // Next combination of `len` indices out of attributes.len().
            let n = attributes.len();
            let mut i = len;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if indices[i] != i + n - len {
                    indices[i] += 1;
                    for j in (i + 1)..len {
                        indices[j] = indices[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    // All combinations of this length exhausted.
                    indices.clear();
                    break;
                }
            }
            if indices.is_empty() {
                break;
            }
            if indices[0] > n - len {
                break;
            }
        }
    }

    FullBrevityOutcome {
        best: None,
        tested,
        exhausted: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remi_kb::KbBuilder;
    use remi_synth::scenes::generate_scene;

    #[test]
    fn finds_single_attribute_re() {
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:capitalOf", "e:France");
        b.add_iri("e:Paris", "p:in", "e:France");
        b.add_iri("e:Lyon", "p:in", "e:France");
        let kb = b.build().unwrap();
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let out = full_brevity(&kb, &[paris], 3);
        let e = out.best.expect("capitalOf identifies Paris");
        assert_eq!(e.parts.len(), 1);
        let capital = kb.pred_id("p:capitalOf").unwrap();
        assert!(e.parts[0].predicates().contains(&capital));
    }

    #[test]
    fn prefers_shorter_over_cheaper() {
        // Full brevity's defining (mis)behaviour: a one-atom obscure RE
        // beats a two-atom intuitive one.
        let mut b = KbBuilder::new();
        b.add_iri("e:Paris", "p:restingPlaceOf", "e:VictorHugo");
        b.add_iri("e:Paris", "p:in", "e:France");
        b.add_iri("e:Paris", "p:type", "e:City");
        b.add_iri("e:Lyon", "p:in", "e:France");
        b.add_iri("e:Lyon", "p:type", "e:City");
        let kb = b.build().unwrap();
        let paris = kb.node_id_by_iri("e:Paris").unwrap();
        let out = full_brevity(&kb, &[paris], 3);
        assert_eq!(out.best.expect("RE exists").parts.len(), 1);
    }

    #[test]
    fn finds_multi_attribute_re_on_scene() {
        let scene = generate_scene(30, 5);
        let kb = &scene.kb;
        // Find some object that needs more than zero attributes.
        let mut found_multi = false;
        for &obj in &scene.objects {
            let out = full_brevity(kb, &[obj], 4);
            if let Some(e) = out.best {
                // Verify the RE property.
                let eval = Evaluator::new(kb, 64);
                assert!(eval.is_referring_expression(&e.parts, &[obj.0]));
                if e.parts.len() >= 2 {
                    found_multi = true;
                }
            }
        }
        assert!(found_multi, "some scene object needs ≥2 attributes");
    }

    #[test]
    fn indistinguishable_twins_have_no_re() {
        let mut b = KbBuilder::new();
        b.add_iri("e:t1", "p:color", "e:Red");
        b.add_iri("e:t2", "p:color", "e:Red");
        let kb = b.build().unwrap();
        let t1 = kb.node_id_by_iri("e:t1").unwrap();
        let out = full_brevity(&kb, &[t1], 3);
        assert!(out.best.is_none());
        assert!(out.exhausted);
    }

    #[test]
    fn describes_pairs() {
        let mut b = KbBuilder::new();
        for t in ["a", "b"] {
            b.add_iri(&format!("e:{t}"), "p:color", "e:Red");
            b.add_iri(&format!("e:{t}"), "p:shape", "e:Cube");
        }
        b.add_iri("e:c", "p:color", "e:Red");
        b.add_iri("e:c", "p:shape", "e:Ball");
        let kb = b.build().unwrap();
        let targets = [
            kb.node_id_by_iri("e:a").unwrap(),
            kb.node_id_by_iri("e:b").unwrap(),
        ];
        let out = full_brevity(&kb, &targets, 3);
        let e = out.best.expect("red cubes are describable");
        let eval = Evaluator::new(&kb, 64);
        let mut sorted: Vec<u32> = targets.iter().map(|t| t.0).collect();
        sorted.sort_unstable();
        assert!(eval.is_referring_expression(&e.parts, &sorted));
    }

    #[test]
    fn tested_counter_grows_with_difficulty() {
        let scene = generate_scene(40, 11);
        let kb = &scene.kb;
        let mut max_tested = 0;
        for &obj in scene.objects.iter().take(10) {
            let out = full_brevity(kb, &[obj], 4);
            max_tested = max_tested.max(out.tested);
        }
        assert!(max_tested >= 1);
    }
}
