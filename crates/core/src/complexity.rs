//! The estimated Kolmogorov complexity `Ĉ` of expressions (§3.1, §3.5.3).
//!
//! Concepts are coded by their position in a prominence ranking: a concept
//! of rank `k` costs `log2(k)` bits. The chain rule narrows the ranking as
//! context accumulates:
//!
//! * a predicate is ranked among all predicates;
//! * a bound object is ranked among the objects of its predicate
//!   (`k(I | p)`);
//! * a joined predicate is ranked among the predicates that allow a
//!   first-to-second-argument join with its predecessor
//!   (`k(p₁ | p₀)` for paths, and analogously the parallel-join ranking
//!   for closed shapes);
//!
//! Conditional entity rankings are either kept exactly (one rank table per
//! predicate) or compressed per Eq. 1 into per-predicate power-law
//! coefficients — the paper's choice (§3.5.3).
//!
//! The KB-wide rankings live in [`CostTables`], which owns no KB: it is
//! built once from a KB and shared by `Arc` between every [`CostModel`]
//! view over a KB with the same content (a server keeps one per KB
//! generation, see [`MinerContext`](crate::miner::MinerContext)).

use std::sync::{Arc, OnceLock};

use remi_kb::fx::FxHashMap;
use remi_kb::pagerank::{pagerank, PageRank, PageRankConfig};
use remi_kb::{KnowledgeBase, NodeId, PredId};

use crate::bits::Bits;
use crate::eval::sorted_intersects;
use crate::expr::{Expression, SubgraphExpr};
use crate::powerlaw::{fit_power_law, ranking_points, PowerLawFit};

/// The prominence metric behind the ranking (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prominence {
    /// `fr`: number of facts a concept occurs in.
    Frequency,
    /// `pr`: PageRank over the KB's entity link graph (the endogenous
    /// stand-in for the Wikipedia page rank — DESIGN.md §2).
    PageRank,
}

/// How conditional entity codes `l(I_b | p)` are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityCodeMode {
    /// Exact rank tables per predicate.
    ExactRank,
    /// Per-predicate power-law fit (Eq. 1) — the paper's compression.
    PowerLaw,
}

/// Maximum subjects examined when building a parallel-join ranking; keeps
/// lazily computed closed-shape rankings bounded on huge predicates.
const CLOSED_RANK_SUBJECT_CAP: usize = 4096;

type RankMap = FxHashMap<u32, u32>;

/// The complexity model `Ĉ` for one KB and prominence metric: a view of
/// shared [`CostTables`] over the KB they were built from.
pub struct CostModel<'kb> {
    kb: &'kb KnowledgeBase,
    tables: Arc<CostTables>,
}

/// The KB-wide rankings behind a [`CostModel`]: predicate ranks, node
/// prominences, the Eq. 1 fits, and the join rankings, built lazily once
/// per predicate. They own no KB, so one `Arc<CostTables>` serves every
/// view over a KB with the same content (same triples, same numbering).
pub struct CostTables {
    metric: Prominence,
    mode: EntityCodeMode,
    /// 1-based rank per predicate, by descending fact count (`fr` is used
    /// for predicates even under `pr`, which is undefined for them).
    pred_rank: Vec<u32>,
    /// Per-node prominence: frequency (as f64) or PageRank score.
    node_prom: Vec<f64>,
    /// Eq. 1 coefficients per predicate.
    fits: Vec<PowerLawFit>,
    /// Exact conditional rank tables (only in `ExactRank` mode).
    exact: Vec<RankMap>,
    /// Lazily built first-to-second-argument join rankings per predicate.
    join_rank: Vec<OnceLock<RankMap>>,
    /// Lazily built parallel-join rankings per predicate.
    closed_rank: Vec<OnceLock<RankMap>>,
}

impl<'kb> CostModel<'kb> {
    /// Builds a cost model. For [`Prominence::PageRank`] this computes
    /// PageRank internally; use [`CostModel::with_pagerank`] to reuse a
    /// precomputed one.
    pub fn new(kb: &'kb KnowledgeBase, metric: Prominence, mode: EntityCodeMode) -> Self {
        Self::over(kb, Arc::new(CostTables::new(kb, metric, mode)))
    }

    /// Builds a cost model with a precomputed PageRank.
    pub fn with_pagerank(kb: &'kb KnowledgeBase, mode: EntityCodeMode, pr: &PageRank) -> Self {
        let tables = CostTables::build(kb, Prominence::PageRank, mode, Some(pr));
        Self::over(kb, Arc::new(tables))
    }

    /// A view of shared `tables` over `kb`, which must hold the content
    /// the tables were built from.
    ///
    /// # Panics
    ///
    /// Panics when `kb`'s node or predicate count differs from the one
    /// the tables were built over.
    pub fn over(kb: &'kb KnowledgeBase, tables: Arc<CostTables>) -> Self {
        assert!(
            tables.node_prom.len() == kb.num_nodes() && tables.pred_rank.len() == kb.num_preds(),
            "cost tables were built over a different KB"
        );
        CostModel { kb, tables }
    }

    /// The underlying KB.
    pub fn kb(&self) -> &'kb KnowledgeBase {
        self.kb
    }

    /// The prominence metric in use.
    pub fn metric(&self) -> Prominence {
        self.tables.metric
    }

    /// The entity-code mode in use.
    pub fn mode(&self) -> EntityCodeMode {
        self.tables.mode
    }

    /// The Eq. 1 fits, indexed by predicate (for the R² experiment).
    pub fn fits(&self) -> &[PowerLawFit] {
        &self.tables.fits
    }

    /// Mean R² over predicates whose conditional ranking has at least
    /// `min_points` distinct objects (degenerate fits excluded).
    pub fn average_r2(&self, min_points: usize) -> f64 {
        let eligible: Vec<f64> = self
            .tables
            .fits
            .iter()
            .filter(|f| f.n >= min_points)
            .map(|f| f.r2)
            .collect();
        if eligible.is_empty() {
            return f64::NAN;
        }
        eligible.iter().sum::<f64>() / eligible.len() as f64
    }

    /// `l(p_b) = log2(k(p))` — the code length of a predicate.
    pub fn pred_bits(&self, p: PredId) -> Bits {
        Bits::from_rank(u64::from(self.tables.pred_rank[p.idx()]))
    }

    /// The prominence value of a node under the current metric.
    pub fn node_prominence(&self, n: NodeId) -> f64 {
        self.tables.node_prom[n.idx()]
    }

    /// `l(I_b | p) = log2(k(I | p))` — conditional code length of an
    /// object given its predicate.
    pub fn entity_bits(&self, o: NodeId, given: PredId) -> Bits {
        match self.tables.mode {
            EntityCodeMode::ExactRank => {
                let rank = self.tables.exact[given.idx()]
                    .get(&o.0)
                    .copied()
                    .unwrap_or_else(|| (self.kb.index(given).num_objects() + 1) as u32);
                Bits::from_rank(u64::from(rank))
            }
            EntityCodeMode::PowerLaw => {
                let prom = match self.tables.metric {
                    Prominence::Frequency => self.kb.index(given).object_frequency(o) as f64,
                    Prominence::PageRank => self.tables.node_prom[o.idx()],
                };
                if prom <= 0.0 {
                    // Unseen in this context: costs one past the last rank.
                    return Bits::from_rank((self.kb.index(given).num_objects() + 1) as u64);
                }
                Bits::new(self.tables.fits[given.idx()].bits_for(prom))
            }
        }
    }

    /// `l(p₁ | p₀)` — rank of `p₁` among the predicates that allow a
    /// first-to-second-argument join with `p₀` (the path chain rule).
    pub fn join_bits(&self, p1: PredId, given_p0: PredId) -> Bits {
        let map = self.join_ranking(given_p0);
        let rank = map.get(&p1.0).copied().unwrap_or((map.len() + 2) as u32);
        Bits::from_rank(u64::from(rank))
    }

    /// The parallel-join analogue for closed shapes: rank of `q` among the
    /// predicates `q` with `∃x,y: p₀(x,y) ∧ q(x,y)`.
    pub fn closed_bits(&self, q: PredId, given_p0: PredId) -> Bits {
        let map = self.closed_ranking(given_p0);
        let rank = map.get(&q.0).copied().unwrap_or((map.len() + 2) as u32);
        Bits::from_rank(u64::from(rank))
    }

    fn join_ranking(&self, p0: PredId) -> &RankMap {
        self.tables.join_rank[p0.idx()].get_or_init(|| {
            // Count, for each predicate q, the distinct objects y of p0
            // that are subjects of q — the strength of the p0 ⋈ q join.
            let mut weight: FxHashMap<u32, u32> = FxHashMap::default();
            for y in self.kb.index(p0).iter_objects() {
                for q in self.kb.preds_of_subject(y) {
                    *weight.entry(q).or_insert(0) += 1;
                }
            }
            weights_to_ranks(weight)
        })
    }

    fn closed_ranking(&self, p0: PredId) -> &RankMap {
        self.tables.closed_rank[p0.idx()].get_or_init(|| self.closed_weights(p0))
    }

    fn closed_weights(&self, p0: PredId) -> RankMap {
        let mut weight: FxHashMap<u32, u32> = FxHashMap::default();
        for (s, objs) in self
            .kb
            .index(p0)
            .iter_subjects()
            .take(CLOSED_RANK_SUBJECT_CAP)
        {
            for q in self.kb.preds_of_subject(s) {
                if q == p0.0 {
                    continue;
                }
                if sorted_intersects(objs, self.kb.objects(PredId(q), s)) {
                    *weight.entry(q).or_insert(0) += 1;
                }
            }
        }
        weights_to_ranks(weight)
    }

    /// `Ĉ` of a subgraph expression (the chain-rule sums of §3.1).
    pub fn subgraph_cost(&self, e: &SubgraphExpr) -> Bits {
        match *e {
            SubgraphExpr::Atom { p, o } => self.pred_bits(p) + self.entity_bits(o, p),
            SubgraphExpr::Path { p0, p1, o } => {
                self.pred_bits(p0) + self.join_bits(p1, p0) + self.entity_bits(o, p1)
            }
            SubgraphExpr::PathStar { p0, p1, o1, p2, o2 } => {
                self.pred_bits(p0)
                    + self.join_bits(p1, p0)
                    + self.entity_bits(o1, p1)
                    + self.join_bits(p2, p0)
                    + self.entity_bits(o2, p2)
            }
            SubgraphExpr::Closed2 { p0, p1 } => self.pred_bits(p0) + self.closed_bits(p1, p0),
            SubgraphExpr::Closed3 { p0, p1, p2 } => {
                self.pred_bits(p0) + self.closed_bits(p1, p0) + self.closed_bits(p2, p0)
            }
        }
    }

    /// `Ĉ(e) = Σ Ĉ(ρᵢ)` over the conjuncts; `Ĉ(⊤) = ∞` (footnote 6).
    pub fn expression_cost(&self, e: &Expression) -> Bits {
        if e.is_top() {
            return Bits::INFINITY;
        }
        e.parts.iter().map(|p| self.subgraph_cost(p)).sum()
    }

    /// Cost of a conjunction given as a slice (used by the search stacks).
    pub fn parts_cost(&self, parts: &[SubgraphExpr]) -> Bits {
        if parts.is_empty() {
            return Bits::INFINITY;
        }
        parts.iter().map(|p| self.subgraph_cost(p)).sum()
    }
}

impl CostTables {
    /// Builds the tables for `kb` under `metric` and `mode`. For
    /// [`Prominence::PageRank`] this computes PageRank internally.
    pub fn new(kb: &KnowledgeBase, metric: Prominence, mode: EntityCodeMode) -> Self {
        let pr = match metric {
            Prominence::PageRank => Some(pagerank(kb, PageRankConfig::default())),
            Prominence::Frequency => None,
        };
        Self::build(kb, metric, mode, pr.as_ref())
    }

    fn build(
        kb: &KnowledgeBase,
        metric: Prominence,
        mode: EntityCodeMode,
        pr: Option<&PageRank>,
    ) -> Self {
        // Predicate ranking by fact count, descending; competition ranks.
        let mut preds: Vec<u32> = (0..kb.num_preds() as u32).collect();
        preds.sort_by_key(|&p| (std::cmp::Reverse(kb.pred_frequency(PredId(p))), p));
        let mut pred_rank = vec![0u32; kb.num_preds()];
        let mut rank = 1u32;
        for (i, &p) in preds.iter().enumerate() {
            if i > 0 && kb.pred_frequency(PredId(preds[i - 1])) > kb.pred_frequency(PredId(p)) {
                rank = (i + 1) as u32;
            }
            pred_rank[p as usize] = rank;
        }

        // Node prominence.
        let node_prom: Vec<f64> = match metric {
            Prominence::Frequency => (0..kb.num_nodes() as u32)
                .map(|n| f64::from(kb.node_frequency(NodeId(n))))
                .collect(),
            Prominence::PageRank => {
                let pr = pr.expect("PageRank metric requires scores");
                (0..kb.num_nodes() as u32)
                    .map(|n| pr.score(NodeId(n)))
                    .collect()
            }
        };

        // Per-predicate conditional structures.
        let mut fits = Vec::with_capacity(kb.num_preds());
        let mut exact: Vec<RankMap> = Vec::with_capacity(kb.num_preds());
        for p in kb.pred_ids() {
            let idx = kb.index(p);
            // Objects of p with their conditional prominence. Under `fr`
            // the paper conditions on the predicate (fr(I | p)); under `pr`
            // the object's global score is used, ranked within p's objects.
            let mut objs: Vec<(u32, f64)> = idx
                .iter_object_frequencies()
                .map(|(o, cond_freq)| {
                    let prom = match metric {
                        Prominence::Frequency => cond_freq as f64,
                        Prominence::PageRank => node_prom[o.idx()],
                    };
                    (o.0, prom)
                })
                .collect();
            objs.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("prominence is finite")
                    .then(a.0.cmp(&b.0))
            });
            let proms: Vec<f64> = objs.iter().map(|&(_, v)| v).collect();
            let points = ranking_points(&proms);
            fits.push(fit_power_law(&points));
            if mode == EntityCodeMode::ExactRank {
                let mut map = RankMap::default();
                map.reserve(objs.len());
                for (i, &(o, _)) in objs.iter().enumerate() {
                    map.insert(o, points[i].1 as u32);
                }
                exact.push(map);
            } else {
                exact.push(RankMap::default());
            }
        }

        CostTables {
            metric,
            mode,
            pred_rank,
            node_prom,
            fits,
            exact,
            join_rank: (0..kb.num_preds()).map(|_| OnceLock::new()).collect(),
            closed_rank: (0..kb.num_preds()).map(|_| OnceLock::new()).collect(),
        }
    }
}

fn weights_to_ranks(weight: FxHashMap<u32, u32>) -> RankMap {
    let mut items: Vec<(u32, u32)> = weight.into_iter().collect();
    items.sort_by_key(|&(q, w)| (std::cmp::Reverse(w), q));
    let mut out = RankMap::default();
    out.reserve(items.len());
    let mut rank = 1u32;
    for (i, &(q, w)) in items.iter().enumerate() {
        if i > 0 && items[i - 1].1 > w {
            rank = (i + 1) as u32;
        }
        out.insert(q, rank);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use remi_kb::KbBuilder;

    /// A KB where `capitalOf` is rarer than `cityIn`, France is the most
    /// frequent country, and a path through `mayor` exists.
    fn kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        for i in 0..8 {
            b.add_iri(&format!("e:city{i}"), "p:cityIn", "e:France");
        }
        for i in 8..10 {
            b.add_iri(&format!("e:city{i}"), "p:cityIn", "e:Belgium");
        }
        b.add_iri("e:city0", "p:capitalOf", "e:France");
        b.add_iri("e:city0", "p:mayor", "e:alice");
        b.add_iri("e:city1", "p:mayor", "e:bob");
        b.add_iri("e:alice", "p:party", "e:Socialist");
        b.add_iri("e:bob", "p:party", "e:Green");
        b.build().unwrap()
    }

    #[test]
    fn frequent_predicates_cost_less() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let capital = kb.pred_id("p:capitalOf").unwrap();
        assert!(m.pred_bits(city_in) < m.pred_bits(capital));
        // Top predicate codes to 0 bits.
        assert_eq!(m.pred_bits(city_in), Bits::ZERO);
    }

    #[test]
    fn frequent_objects_cost_less_conditionally() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        let belgium = kb.node_id_by_iri("e:Belgium").unwrap();
        assert!(m.entity_bits(france, city_in) < m.entity_bits(belgium, city_in));
        assert_eq!(m.entity_bits(france, city_in), Bits::ZERO); // rank 1
    }

    #[test]
    fn chain_rule_narrows_context() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let capital = kb.pred_id("p:capitalOf").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        // France is the only capitalOf object: conditional rank 1 → 0 bits,
        // even though globally France is one of many entities.
        assert_eq!(m.entity_bits(france, capital), Bits::ZERO);
    }

    #[test]
    fn atom_cost_is_pred_plus_entity() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let belgium = kb.node_id_by_iri("e:Belgium").unwrap();
        let e = SubgraphExpr::Atom {
            p: city_in,
            o: belgium,
        };
        assert_eq!(
            m.subgraph_cost(&e),
            m.pred_bits(city_in) + m.entity_bits(belgium, city_in)
        );
    }

    #[test]
    fn path_cost_uses_join_ranking() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let mayor = kb.pred_id("p:mayor").unwrap();
        let party = kb.pred_id("p:party").unwrap();
        let socialist = kb.node_id_by_iri("e:Socialist").unwrap();
        let e = SubgraphExpr::Path {
            p0: mayor,
            p1: party,
            o: socialist,
        };
        let expected =
            m.pred_bits(mayor) + m.join_bits(party, mayor) + m.entity_bits(socialist, party);
        assert_eq!(m.subgraph_cost(&e), expected);
        // party is the only predicate joinable after mayor → rank 1.
        assert_eq!(m.join_bits(party, mayor), Bits::ZERO);
        // cityIn never follows mayor → beyond the last rank.
        let city_in = kb.pred_id("p:cityIn").unwrap();
        assert!(m.join_bits(city_in, mayor) > Bits::ZERO);
    }

    #[test]
    fn closed_ranking_finds_parallel_predicates() {
        let mut b = KbBuilder::new();
        b.add_iri("e:a", "p:cityIn", "e:France");
        b.add_iri("e:a", "p:largestCityOf", "e:France");
        b.add_iri("e:b", "p:cityIn", "e:France");
        let kb = b.build().unwrap();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let largest = kb.pred_id("p:largestCityOf").unwrap();
        assert_eq!(m.closed_bits(largest, city_in), Bits::ZERO);
        let e = SubgraphExpr::closed2(city_in, largest);
        assert!(!m.subgraph_cost(&e).is_infinite());
    }

    #[test]
    fn expression_cost_sums_and_top_is_infinite() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        let belgium = kb.node_id_by_iri("e:Belgium").unwrap();
        let a = SubgraphExpr::Atom {
            p: city_in,
            o: france,
        };
        let b = SubgraphExpr::Atom {
            p: city_in,
            o: belgium,
        };
        let e = Expression { parts: vec![a, b] };
        assert_eq!(
            m.expression_cost(&e),
            m.subgraph_cost(&a) + m.subgraph_cost(&b)
        );
        assert!(m.expression_cost(&Expression::top()).is_infinite());
        assert!(m.parts_cost(&[]).is_infinite());
    }

    #[test]
    fn powerlaw_mode_orders_like_exact_mode() {
        let kb = kb();
        let exact = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let fitted = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::PowerLaw);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        let france = kb.node_id_by_iri("e:France").unwrap();
        let belgium = kb.node_id_by_iri("e:Belgium").unwrap();
        // Both modes must agree that France < Belgium given cityIn.
        assert!(exact.entity_bits(france, city_in) < exact.entity_bits(belgium, city_in));
        assert!(fitted.entity_bits(france, city_in) <= fitted.entity_bits(belgium, city_in));
    }

    #[test]
    fn pagerank_metric_builds() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::PageRank, EntityCodeMode::PowerLaw);
        let france = kb.node_id_by_iri("e:France").unwrap();
        assert!(m.node_prominence(france) > 0.0);
        let city_in = kb.pred_id("p:cityIn").unwrap();
        // Still produces finite, non-negative costs.
        let bits = m.entity_bits(france, city_in);
        assert!(!bits.is_infinite());
    }

    #[test]
    fn average_r2_is_computable() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::PowerLaw);
        let r2 = m.average_r2(2);
        assert!(r2.is_nan() || (0.0..=1.0).contains(&r2) || r2 < 0.0);
    }

    #[test]
    fn shared_tables_rank_joins_like_private_ones() {
        // Views over one `Arc<CostTables>` fill the lazy join rankings
        // concurrently; every code must equal a private model's.
        let kb = kb();
        let tables = Arc::new(CostTables::new(
            &kb,
            Prominence::Frequency,
            EntityCodeMode::PowerLaw,
        ));
        let codes = |m: &CostModel<'_>| -> Vec<(Bits, Bits)> {
            let preds: Vec<PredId> = kb.pred_ids().collect();
            let mut out = Vec::new();
            for &p0 in &preds {
                for &q in &preds {
                    out.push((m.join_bits(q, p0), m.closed_bits(q, p0)));
                }
            }
            out
        };
        let private = codes(&CostModel::new(
            &kb,
            Prominence::Frequency,
            EntityCodeMode::PowerLaw,
        ));
        let mut shared: Vec<Vec<(Bits, Bits)>> = vec![Vec::new(); 4];
        remi_pool::global().scope(|scope| {
            for slot in shared.iter_mut() {
                let view = CostModel::over(&kb, Arc::clone(&tables));
                scope.spawn(move || *slot = codes(&view));
            }
        });
        for codes in shared {
            assert_eq!(codes, private);
        }
    }

    #[test]
    fn unknown_object_costs_beyond_last_rank() {
        let kb = kb();
        let m = CostModel::new(&kb, Prominence::Frequency, EntityCodeMode::ExactRank);
        let capital = kb.pred_id("p:capitalOf").unwrap();
        let alice = kb.node_id_by_iri("e:alice").unwrap();
        // alice is never a capitalOf object.
        let bits = m.entity_bits(alice, capital);
        assert!(bits > Bits::ZERO);
    }
}
