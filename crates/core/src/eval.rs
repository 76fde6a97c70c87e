//! Evaluation of subgraph expressions and referring expressions against
//! the KB: computing the set of entities the root variable `x` can bind to.
//!
//! The RE test of Algorithms 1–3 — `e′(K) = T` — reduces to computing the
//! sorted binding set of each conjunct and intersecting. Binding sets of
//! individual subgraph expressions are memoised in the §3.5.2 LRU cache,
//! because the DFS meets the same conjuncts along many branches.
//!
//! The search does not re-intersect a whole conjunction per test: it keeps
//! the bindings of every stack prefix and intersects only the pushed
//! conjunct ([`intersect_sorted_into`]; see [`crate::search`]).
//! [`Evaluator::is_referring_expression`] is the full check from scratch
//! for callers outside the search.

use std::sync::Arc;

use parking_lot::Mutex;

use remi_kb::cache::LruCache;
use remi_kb::{Bindings, KnowledgeBase, NodeId};

use crate::expr::SubgraphExpr;

/// Intersects two sorted id slices into `out`, replacing its contents and
/// keeping its allocation — the kernel the search's prefix stack reuses.
pub fn intersect_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Intersects two sorted id lists (slices or backend [`Bindings`]).
pub fn intersect_sorted<'a>(a: impl Into<Bindings<'a>>, b: impl Into<Bindings<'a>>) -> Vec<u32> {
    let (a, b) = (a.into(), b.into());
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    if let (Bindings::Slice(a), Bindings::Slice(b)) = (a, b) {
        // Fast path for the CSR backend: direct slice indexing.
        intersect_sorted_into(a, b, &mut out);
        return out;
    }
    let (mut ai, mut bi) = (a.iter(), b.iter());
    let (mut x, mut y) = (ai.next(), bi.next());
    while let (Some(xa), Some(yb)) = (x, y) {
        match xa.cmp(&yb) {
            std::cmp::Ordering::Less => x = ai.next(),
            std::cmp::Ordering::Greater => y = bi.next(),
            std::cmp::Ordering::Equal => {
                out.push(xa);
                x = ai.next();
                y = bi.next();
            }
        }
    }
    out
}

/// True when two sorted id lists share at least one element.
pub fn sorted_intersects<'a>(a: impl Into<Bindings<'a>>, b: impl Into<Bindings<'a>>) -> bool {
    let (a, b) = (a.into(), b.into());
    let (mut ai, mut bi) = (a.iter(), b.iter());
    let (mut x, mut y) = (ai.next(), bi.next());
    while let (Some(xa), Some(yb)) = (x, y) {
        match xa.cmp(&yb) {
            std::cmp::Ordering::Less => x = ai.next(),
            std::cmp::Ordering::Greater => y = bi.next(),
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Computes the sorted root-variable bindings of a subgraph expression,
/// uncached. Exposed for testing; normal callers go through [`Evaluator`].
pub fn raw_bindings(kb: &KnowledgeBase, e: &SubgraphExpr) -> Vec<u32> {
    match *e {
        SubgraphExpr::Atom { p, o } => kb.subjects(p, o).to_vec(),
        SubgraphExpr::Path { p0, p1, o } => {
            // x : ∃y p0(x,y) ∧ p1(y,o)
            let mut xs: Vec<u32> = Vec::new();
            for y in kb.subjects(p1, o) {
                xs.extend(kb.subjects(p0, NodeId(y)));
            }
            xs.sort_unstable();
            xs.dedup();
            xs
        }
        SubgraphExpr::PathStar { p0, p1, o1, p2, o2 } => {
            // y must satisfy both star atoms.
            let ys = intersect_sorted(kb.subjects(p1, o1), kb.subjects(p2, o2));
            let mut xs: Vec<u32> = Vec::new();
            for &y in &ys {
                xs.extend(kb.subjects(p0, NodeId(y)));
            }
            xs.sort_unstable();
            xs.dedup();
            xs
        }
        SubgraphExpr::Closed2 { p0, p1 } => {
            // x : ∃y p0(x,y) ∧ p1(x,y) — iterate the smaller predicate.
            let (small, large) = if kb.index(p0).num_subjects() <= kb.index(p1).num_subjects() {
                (p0, p1)
            } else {
                (p1, p0)
            };
            let mut xs: Vec<u32> = Vec::new();
            for (s, objs) in kb.index(small).iter_subjects() {
                if sorted_intersects(objs, kb.objects(large, s)) {
                    xs.push(s.0);
                }
            }
            xs.sort_unstable();
            xs
        }
        SubgraphExpr::Closed3 { p0, p1, p2 } => {
            let mut preds = [p0, p1, p2];
            preds.sort_by_key(|&p| kb.index(p).num_subjects());
            let mut xs: Vec<u32> = Vec::new();
            for (s, objs) in kb.index(preds[0]).iter_subjects() {
                let both = intersect_sorted(objs, kb.objects(preds[1], s));
                if !both.is_empty() && sorted_intersects(&both, kb.objects(preds[2], s)) {
                    xs.push(s.0);
                }
            }
            xs.sort_unstable();
            xs
        }
    }
}

/// Statistics of an evaluator's life so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Cache hits on subgraph binding sets.
    pub cache_hits: u64,
    /// Cache misses (i.e. fresh evaluations).
    pub cache_misses: u64,
}

/// A caching evaluator shared by the (possibly parallel) search.
pub struct Evaluator<'kb> {
    kb: &'kb KnowledgeBase,
    cache: Mutex<LruCache<SubgraphExpr, Arc<Vec<u32>>>>,
}

impl<'kb> Evaluator<'kb> {
    /// Creates an evaluator with the given LRU capacity.
    pub fn new(kb: &'kb KnowledgeBase, cache_capacity: usize) -> Self {
        Evaluator {
            kb,
            cache: Mutex::new(LruCache::new(cache_capacity)),
        }
    }

    /// The underlying KB.
    pub fn kb(&self) -> &'kb KnowledgeBase {
        self.kb
    }

    /// Sorted bindings of one subgraph expression (cached).
    pub fn bindings(&self, e: &SubgraphExpr) -> Arc<Vec<u32>> {
        let mut cache = self.cache.lock();
        if let Some(hit) = cache.get(e) {
            return Arc::clone(hit);
        }
        drop(cache); // do not hold the lock during evaluation
        let fresh = Arc::new(raw_bindings(self.kb, e));
        self.cache.lock().put(*e, Arc::clone(&fresh));
        fresh
    }

    /// Sorted bindings of a conjunction (intersection of conjunct
    /// bindings), with cheap early exit on empty intermediate results.
    pub fn conjunction_bindings(&self, parts: &[SubgraphExpr]) -> Vec<u32> {
        match parts {
            [] => Vec::new(),
            [only] => self.bindings(only).as_ref().clone(),
            [first, rest @ ..] => {
                let mut acc = self.bindings(first).as_ref().clone();
                for part in rest {
                    if acc.is_empty() {
                        break;
                    }
                    let b = self.bindings(part);
                    acc = intersect_sorted(&acc, b.as_ref());
                }
                acc
            }
        }
    }

    /// The RE test `e′(K) = T`: do the bindings of the conjunction equal
    /// exactly the (sorted) target set?
    ///
    /// This intersects every conjunct from scratch, so it is correct for
    /// arbitrary expressions: answer checks, the full-brevity baseline,
    /// the examples and tests. The search does not call it; it
    /// tests each push against its cached prefix bindings instead.
    pub fn is_referring_expression(&self, parts: &[SubgraphExpr], sorted_targets: &[u32]) -> bool {
        if parts.is_empty() {
            return false; // ⊤ matches everything, never an RE
        }
        let bindings = self.conjunction_bindings(parts);
        bindings == sorted_targets
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> EvalStats {
        let cache = self.cache.lock();
        EvalStats {
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remi_kb::KbBuilder;

    /// The paper's running example: Guyana and Suriname are the only South
    /// American countries with a Germanic official language.
    fn americas_kb() -> KnowledgeBase {
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
        b.add_iri("e:Germany", "p:in", "e:Europe");
        b.add_iri("e:Germany", "p:officialLanguage", "e:German");
        for l in ["English", "Dutch", "German"] {
            b.add_iri(&format!("e:{l}"), "p:langFamily", "e:Germanic");
        }
        for l in ["Portuguese", "Spanish"] {
            b.add_iri(&format!("e:{l}"), "p:langFamily", "e:Romance");
        }
        b.build().unwrap()
    }

    fn node(kb: &KnowledgeBase, iri: &str) -> NodeId {
        kb.node_id_by_iri(iri).unwrap()
    }

    #[test]
    fn atom_bindings() {
        let kb = americas_kb();
        let in_p = kb.pred_id("p:in").unwrap();
        let sa = node(&kb, "e:SouthAmerica");
        let e = SubgraphExpr::Atom { p: in_p, o: sa };
        let xs = raw_bindings(&kb, &e);
        assert_eq!(xs.len(), 5);
        assert!(xs.contains(&node(&kb, "e:Guyana").0));
        assert!(!xs.contains(&node(&kb, "e:Germany").0));
    }

    #[test]
    fn path_bindings_follow_existential() {
        let kb = americas_kb();
        let lang = kb.pred_id("p:officialLanguage").unwrap();
        let fam = kb.pred_id("p:langFamily").unwrap();
        let germanic = node(&kb, "e:Germanic");
        let e = SubgraphExpr::Path {
            p0: lang,
            p1: fam,
            o: germanic,
        };
        let xs = raw_bindings(&kb, &e);
        let expect: Vec<u32> = {
            let mut v = vec![
                node(&kb, "e:Guyana").0,
                node(&kb, "e:Suriname").0,
                node(&kb, "e:Germany").0,
            ];
            v.sort_unstable();
            v
        };
        assert_eq!(xs, expect);
    }

    #[test]
    fn paper_example_is_an_re() {
        let kb = americas_kb();
        let in_p = kb.pred_id("p:in").unwrap();
        let lang = kb.pred_id("p:officialLanguage").unwrap();
        let fam = kb.pred_id("p:langFamily").unwrap();
        let sa = node(&kb, "e:SouthAmerica");
        let germanic = node(&kb, "e:Germanic");

        let parts = [
            SubgraphExpr::Atom { p: in_p, o: sa },
            SubgraphExpr::Path {
                p0: lang,
                p1: fam,
                o: germanic,
            },
        ];
        let ev = Evaluator::new(&kb, 64);
        let mut targets = vec![node(&kb, "e:Guyana").0, node(&kb, "e:Suriname").0];
        targets.sort_unstable();
        assert!(ev.is_referring_expression(&parts, &targets));

        // Not an RE for Guyana alone (Suriname also matches).
        let solo = vec![node(&kb, "e:Guyana").0];
        assert!(!ev.is_referring_expression(&parts, &solo));
    }

    #[test]
    fn path_star_constrains_intermediate() {
        let mut b = KbBuilder::new();
        // x0 → a; a is red and round. x1 → b; b is red only.
        b.add_iri("e:x0", "p:has", "e:a");
        b.add_iri("e:x1", "p:has", "e:b");
        b.add_iri("e:a", "p:color", "e:Red");
        b.add_iri("e:a", "p:shape", "e:Round");
        b.add_iri("e:b", "p:color", "e:Red");
        let kb = b.build().unwrap();
        let has = kb.pred_id("p:has").unwrap();
        let color = kb.pred_id("p:color").unwrap();
        let shape = kb.pred_id("p:shape").unwrap();
        let red = node(&kb, "e:Red");
        let round = node(&kb, "e:Round");
        let e = SubgraphExpr::path_star(has, (color, red), (shape, round));
        let xs = raw_bindings(&kb, &e);
        assert_eq!(xs, vec![node(&kb, "e:x0").0]);
    }

    #[test]
    fn closed2_requires_shared_object() {
        let mut b = KbBuilder::new();
        b.add_iri("e:p1", "p:bornIn", "e:Paris");
        b.add_iri("e:p1", "p:diedIn", "e:Paris");
        b.add_iri("e:p2", "p:bornIn", "e:Paris");
        b.add_iri("e:p2", "p:diedIn", "e:Lyon");
        let kb = b.build().unwrap();
        let born = kb.pred_id("p:bornIn").unwrap();
        let died = kb.pred_id("p:diedIn").unwrap();
        let e = SubgraphExpr::closed2(born, died);
        let xs = raw_bindings(&kb, &e);
        assert_eq!(xs, vec![node(&kb, "e:p1").0]);
    }

    #[test]
    fn closed3_requires_triple_shared_object() {
        let mut b = KbBuilder::new();
        b.add_iri("e:p1", "p:bornIn", "e:Paris");
        b.add_iri("e:p1", "p:livedIn", "e:Paris");
        b.add_iri("e:p1", "p:diedIn", "e:Paris");
        b.add_iri("e:p2", "p:bornIn", "e:Lyon");
        b.add_iri("e:p2", "p:livedIn", "e:Lyon");
        b.add_iri("e:p2", "p:diedIn", "e:Paris");
        let kb = b.build().unwrap();
        let e = SubgraphExpr::closed3(
            kb.pred_id("p:bornIn").unwrap(),
            kb.pred_id("p:livedIn").unwrap(),
            kb.pred_id("p:diedIn").unwrap(),
        );
        let xs = raw_bindings(&kb, &e);
        assert_eq!(xs, vec![node(&kb, "e:p1").0]);
    }

    #[test]
    fn conjunction_intersects() {
        let kb = americas_kb();
        let ev = Evaluator::new(&kb, 64);
        let in_p = kb.pred_id("p:in").unwrap();
        let lang = kb.pred_id("p:officialLanguage").unwrap();
        let sa = node(&kb, "e:SouthAmerica");
        let english = node(&kb, "e:English");
        let xs = ev.conjunction_bindings(&[
            SubgraphExpr::Atom { p: in_p, o: sa },
            SubgraphExpr::Atom {
                p: lang,
                o: english,
            },
        ]);
        assert_eq!(xs, vec![node(&kb, "e:Guyana").0]);
    }

    #[test]
    fn cache_hits_accumulate() {
        let kb = americas_kb();
        let ev = Evaluator::new(&kb, 64);
        let in_p = kb.pred_id("p:in").unwrap();
        let sa = node(&kb, "e:SouthAmerica");
        let e = SubgraphExpr::Atom { p: in_p, o: sa };
        ev.bindings(&e);
        ev.bindings(&e);
        ev.bindings(&e);
        let stats = ev.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn top_is_never_an_re() {
        let kb = americas_kb();
        let ev = Evaluator::new(&kb, 4);
        assert!(!ev.is_referring_expression(&[], &[0]));
    }

    #[test]
    fn intersect_helpers() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<u32>::new());
        assert!(sorted_intersects(&[1, 9], &[9]));
        assert!(!sorted_intersects(&[1, 9], &[2, 8, 10]));
    }
}
