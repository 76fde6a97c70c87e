//! Differential tests for the triple-pattern query engine: `solve()`
//! must answer every pattern shape identically on the CSR and layered
//! (delta-overlay) stores — before and after compaction — and
//! `solve_bgp` must agree with a naive nested-loop reference join.
//!
//! Dictionaries are id-identical across all the stores by construction
//! (same intern order), so ids and whole solution rows compare directly.

use proptest::prelude::*;
use remi_kb::term::Term;
use remi_kb::{
    solve_bgp, solve_bgp_traced, KbBuilder, KnowledgeBase, LiveKb, Slot, SolutionIter,
    TriplePattern,
};

type Fact = (u8, u8, u8);

fn iri3(f: Fact) -> (Term, String, Term) {
    (
        Term::iri(format!("e:n{}", f.0)),
        format!("p:r{}", f.1),
        Term::iri(format!("e:n{}", f.2)),
    )
}

fn build_kb(facts: &[Fact]) -> KnowledgeBase {
    let mut b = KbBuilder::new();
    for &(s, p, o) in facts {
        b.add_iri(&format!("e:n{s}"), &format!("p:r{p}"), &format!("e:n{o}"));
    }
    b.build().expect("non-empty")
}

/// The three stores every query must agree on: CSR, and the layered
/// store both before and after compaction (base = `facts[..cut]`, delta =
/// the rest).
fn stores(facts: &[Fact], cut: usize) -> (KnowledgeBase, Vec<(&'static str, KnowledgeBase)>) {
    let csr = build_kb(facts);
    let live = LiveKb::new(build_kb(&facts[..cut]));
    if cut < facts.len() {
        live.append(facts[cut..].iter().map(|&f| iri3(f)));
    }
    let layered = live.snapshot();
    live.compact();
    let compacted = live.snapshot();
    (
        csr,
        vec![
            ("layered", (*layered.kb).clone()),
            ("compacted", (*compacted.kb).clone()),
        ],
    )
}

fn solutions(kb: &KnowledgeBase, pat: TriplePattern) -> Vec<(u32, u32, u32)> {
    SolutionIter::new(kb.store(), pat)
        .map(|t| (t.s.0, t.p.0, t.o.0))
        .collect()
}

/// All 8 bound/unbound shapes anchored on `facts[0]`, plus out-of-range
/// bound ids and repeated-variable patterns.
fn pattern_suite(kb: &KnowledgeBase, facts: &[Fact]) -> Vec<TriplePattern> {
    let (s, p, o) = facts[0];
    let s = kb.node_id_by_iri(&format!("e:n{s}")).unwrap().0;
    let p = kb.pred_id(&format!("p:r{p}")).unwrap().0;
    let o = kb.node_id_by_iri(&format!("e:n{o}")).unwrap().0;
    let slot = |bound: u32, var: u8, is_bound: bool| {
        if is_bound {
            Slot::Bound(bound)
        } else {
            Slot::Var(var)
        }
    };
    let mut pats: Vec<TriplePattern> = (0u8..8)
        .map(|mask| {
            TriplePattern::new(
                slot(s, 0, mask & 4 != 0),
                slot(p, 1, mask & 2 != 0),
                slot(o, 2, mask & 1 != 0),
            )
        })
        .collect();
    pats.push(TriplePattern::new(
        Slot::Bound(9999),
        Slot::Var(0),
        Slot::Var(1),
    ));
    pats.push(TriplePattern::new(
        Slot::Var(0),
        Slot::Bound(9999),
        Slot::Var(1),
    ));
    pats.push(TriplePattern::new(Slot::Var(0), Slot::Var(1), Slot::Var(0)));
    pats.push(TriplePattern::new(Slot::Var(0), Slot::Var(0), Slot::Var(0)));
    pats
}

/// Reference BGP evaluation: nested loops over the raw triple list in
/// the given pattern order, no planning, no merge paths.
fn naive_bgp(
    triples: &[(u32, u32, u32)],
    patterns: &[TriplePattern],
    vars: &[u8],
) -> Vec<Vec<u32>> {
    fn bind(slot: Slot, val: u32, env: &mut Vec<(u8, u32)>) -> bool {
        match slot {
            Slot::Bound(b) => b == val,
            Slot::Var(v) => match env.iter().find(|&&(id, _)| id == v) {
                Some(&(_, bound)) => bound == val,
                None => {
                    env.push((v, val));
                    true
                }
            },
        }
    }
    fn go(
        triples: &[(u32, u32, u32)],
        patterns: &[TriplePattern],
        env: Vec<(u8, u32)>,
        out: &mut Vec<Vec<(u8, u32)>>,
    ) {
        let Some(&pat) = patterns.first() else {
            out.push(env);
            return;
        };
        for &(s, p, o) in triples {
            let mut e = env.clone();
            if bind(pat.s, s, &mut e) && bind(pat.p, p, &mut e) && bind(pat.o, o, &mut e) {
                go(triples, &patterns[1..], e, out);
            }
        }
    }
    let mut envs = Vec::new();
    go(triples, patterns, Vec::new(), &mut envs);
    envs.iter()
        .map(|env| {
            vars.iter()
                .map(|&v| env.iter().find(|&&(id, _)| id == v).unwrap().1)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every single-pattern shape answers identically — same rows, same
    /// order — on CSR, layered, and compacted-layered stores.
    #[test]
    fn prop_solve_is_backend_independent(
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 3..40),
        split in 0usize..40,
    ) {
        let cut = 1 + split % facts.len();
        let (csr, others) = stores(&facts, cut.min(facts.len()));
        for pat in pattern_suite(&csr, &facts) {
            let want = solutions(&csr, pat);
            for (name, kb) in &others {
                let got = solutions(kb, pat);
                prop_assert!(
                    want == got,
                    "{} disagrees with csr on {:?}: {:?} vs {:?}",
                    name,
                    pat,
                    got,
                    want
                );
            }
        }
    }

    /// Chain joins through `solve_bgp` match the naive reference (as row
    /// sets) and are bit-identical across all stores (as row sequences),
    /// including under truncation.
    #[test]
    fn prop_bgp_matches_naive_reference(
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 3..40),
        picks in proptest::collection::vec(0usize..40, 2..4),
        split in 0usize..40,
    ) {
        let cut = 1 + split % facts.len();
        let (csr, others) = stores(&facts, cut.min(facts.len()));
        // Chain patterns ?v0 —p0→ ?v1 —p1→ ?v2 … joined on the shared
        // variables, predicates drawn from the fact list.
        let patterns: Vec<TriplePattern> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let (_, p, _) = facts[pick % facts.len()];
                let p = csr.pred_id(&format!("p:r{p}")).unwrap().0;
                TriplePattern::new(Slot::Var(i as u8), Slot::Bound(p), Slot::Var(i as u8 + 1))
            })
            .collect();

        let outcome = solve_bgp(csr.store(), &patterns, 100_000, None).unwrap();
        prop_assert!(!outcome.truncated, "reference run must not truncate");

        let triples: Vec<(u32, u32, u32)> = csr
            .iter_triples()
            .map(|t| (t.s.0, t.p.0, t.o.0))
            .collect();
        let mut want = naive_bgp(&triples, &patterns, &outcome.vars);
        let mut got = outcome.rows.clone();
        want.sort();
        got.sort();
        prop_assert_eq!(got, want);

        for (name, kb) in &others {
            let theirs = solve_bgp(kb.store(), &patterns, 100_000, None).unwrap();
            prop_assert!(outcome == theirs, "{} disagrees with csr", name);
        }

        // Truncation keeps the deterministic prefix, on every store.
        if outcome.rows.len() > 1 {
            let limit = outcome.rows.len() - 1;
            for kb in std::iter::once(&csr).chain(others.iter().map(|(_, kb)| kb)) {
                let cut_run = solve_bgp(kb.store(), &patterns, limit, None).unwrap();
                prop_assert!(cut_run.truncated);
                prop_assert_eq!(&cut_run.rows[..], &outcome.rows[..limit]);
            }
        }
    }

    /// The `?explain=1` plan trace — chosen pattern order, per-pattern
    /// estimated-vs-actual cardinalities, merge-vs-nested join path,
    /// truncation — is identical on CSR, layered, and
    /// compacted-layered stores: cardinality estimates come from index
    /// sizes that all backends agree on, so the planner's choices (and
    /// therefore the explain body the server renders) are
    /// backend-independent by construction.
    #[test]
    fn prop_plan_traces_are_backend_independent(
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..12), 3..40),
        picks in proptest::collection::vec(0usize..40, 2..4),
        split in 0usize..40,
    ) {
        let cut = 1 + split % facts.len();
        let (csr, others) = stores(&facts, cut.min(facts.len()));
        let patterns: Vec<TriplePattern> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let (_, p, _) = facts[pick % facts.len()];
                let p = csr.pred_id(&format!("p:r{p}")).unwrap().0;
                TriplePattern::new(Slot::Var(i as u8), Slot::Bound(p), Slot::Var(i as u8 + 1))
            })
            .collect();

        for limit in [100_000usize, 1] {
            let (outcome, trace) =
                solve_bgp_traced(csr.store(), &patterns, limit, None).unwrap();
            prop_assert_eq!(trace.steps.len(), patterns.len());
            for (name, kb) in &others {
                let (theirs, their_trace) =
                    solve_bgp_traced(kb.store(), &patterns, limit, None).unwrap();
                prop_assert!(outcome == theirs, "{} rows diverged at limit {}", name, limit);
                prop_assert!(
                    trace == their_trace,
                    "{} plan trace diverged at limit {}: {:?} vs {:?}",
                    name,
                    limit,
                    their_trace,
                    trace
                );
            }
        }
    }
}
