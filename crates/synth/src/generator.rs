//! Materialises a [`crate::schema::Profile`] into a concrete KB.
//!
//! Determinism: the same `(profile, scale, seed)` triple always produces an
//! identical KB, fact for fact. All randomness flows from one seeded
//! `StdRng`; iteration orders are the declared schema orders.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use remi_kb::fx::FxHashMap;
use remi_kb::store::{KbBuilder, RDFS_LABEL, RDF_TYPE};
use remi_kb::term::Term;
use remi_kb::{KnowledgeBase, NodeId};

use crate::schema::{LiteralKind, ObjectSpec, Profile};
use crate::zipf::Zipf;

/// A generated KB plus the bookkeeping experiments need: which entities
/// belong to which class, in prominence order (index 0 = most prominent).
#[derive(Debug, Clone)]
pub struct SynthKb {
    /// The built knowledge base (with inverse predicates materialised per
    /// the profile's `inverse_fraction`).
    pub kb: KnowledgeBase,
    /// Class name → member entity ids, ordered by generation index, which
    /// coincides with descending within-class target prominence.
    pub class_members: FxHashMap<String, Vec<NodeId>>,
    /// Name of the profile that produced this KB.
    pub profile: String,
    /// The scale factor used.
    pub scale: f64,
    /// The seed used.
    pub seed: u64,
}

impl SynthKb {
    /// Members of a class (empty slice if the class does not exist).
    pub fn members(&self, class: &str) -> &[NodeId] {
        self.class_members
            .get(class)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Generates a KB from a profile.
///
/// `scale` multiplies the population of non-fixed classes; `seed` drives all
/// randomness.
pub fn generate(profile: &Profile, scale: f64, seed: u64) -> SynthKb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = KbBuilder::new();

    // Pass 1: create every entity with type + label, so cross-class
    // references in pass 2 can point anywhere.
    let mut members: FxHashMap<String, Vec<NodeId>> = FxHashMap::default();
    for class in &profile.classes {
        let n = class.scaled_count(scale);
        let class_node = b.entity(&format!("c:{}", class.name));
        let mut ids = Vec::with_capacity(n);
        let type_p = b.pred(RDF_TYPE);
        let label_p = b.pred(RDFS_LABEL);
        for i in 0..n {
            let e = b.entity(&format!("e:{}_{i}", class.name));
            b.add_ids(e, type_p, class_node);
            let label = b.node(&Term::literal(format!("{} {i}", class.name)));
            b.add_ids(e, label_p, label);
            ids.push(e);
        }
        members.insert(class.name.to_string(), ids);
    }

    // Literal pools, shared across predicates of the same kind so literal
    // objects also exhibit reuse (years repeat, time zones repeat).
    let year_pool: Vec<NodeId> = (1800..2021)
        .map(|y| b.node(&Term::literal(y.to_string())))
        .collect();
    let code_pool: Vec<NodeId> = (0..12)
        .map(|i| b.node(&Term::literal(format!("Zone{i:+}"))))
        .collect();
    let year_zipf = Zipf::new(year_pool.len(), 0.3);
    let code_zipf = Zipf::new(code_pool.len(), 0.8);

    // Pass 2: facts. The most prominent entities of each scaling class
    // (the "head") are richly described — full predicate coverage and
    // maximal cardinality — mirroring how head entities in DBpedia carry
    // far more facts than tail entities.
    for class in &profile.classes {
        let subjects: Vec<NodeId> = members[class.name].clone();
        let head = if class.fixed {
            0
        } else {
            (subjects.len() / 10).max(3).min(subjects.len())
        };
        for pred in &class.predicates {
            let p = b.pred(&format!("p:{}", pred.name));
            match &pred.object {
                ObjectSpec::Class(target) => {
                    let pool = members
                        .get(*target)
                        .unwrap_or_else(|| panic!("unknown object class {target}"))
                        .clone();
                    if pool.is_empty() {
                        continue;
                    }
                    let zipf = Zipf::new(pool.len(), pred.zipf);
                    for (si, &s) in subjects.iter().enumerate() {
                        let boosted = si < head;
                        if !boosted && rng.gen::<f64>() >= pred.coverage {
                            continue;
                        }
                        // Head entities carry roughly 3× the objects on
                        // multi-valued predicates (functional predicates
                        // stay functional).
                        let card = if boosted && pred.max_card > 1 {
                            pred.max_card * 3
                        } else if boosted {
                            1
                        } else {
                            rng.gen_range(1..=pred.max_card)
                        };
                        let mut chosen: Vec<NodeId> = Vec::with_capacity(card as usize);
                        for _ in 0..card {
                            let o = pool[zipf.sample(&mut rng)];
                            if o != s && !chosen.contains(&o) {
                                chosen.push(o);
                            }
                        }
                        // Ambiguity noise: functional predicates sometimes
                        // carry a stale second value.
                        if pred.max_card == 1 && rng.gen::<f64>() < profile.ambiguity_noise {
                            let o = pool[zipf.sample(&mut rng)];
                            if o != s && !chosen.contains(&o) {
                                chosen.push(o);
                            }
                        }
                        for o in chosen {
                            b.add_ids(s, p, o);
                        }
                    }
                }
                ObjectSpec::Literal(kind) => {
                    for (si, &s) in subjects.iter().enumerate() {
                        if si >= head && rng.gen::<f64>() >= pred.coverage {
                            continue;
                        }
                        let o = match kind {
                            LiteralKind::Year => year_pool[year_zipf.sample(&mut rng)],
                            LiteralKind::Code => code_pool[code_zipf.sample(&mut rng)],
                            LiteralKind::Population => {
                                // Log-uniform population, rounded — rarely reused.
                                let exp = rng.gen_range(2.0..7.0);
                                let v = 10f64.powf(exp).round() as u64;
                                b.node(&Term::literal(v.to_string()))
                            }
                        };
                        b.add_ids(s, p, o);
                    }
                }
            }
        }
    }

    // Pass 3: long-tail predicates connecting random entity pairs, giving
    // the KB its large sparse predicate vocabulary.
    let all_entities: Vec<NodeId> = profile
        .classes
        .iter()
        .flat_map(|c| members[c.name].iter().copied())
        .collect();
    if profile.tail_predicates > 0 && all_entities.len() >= 2 {
        let per_pred = ((all_entities.len() as f64 / 1000.0) * profile.tail_rate).ceil() as usize;
        for t in 0..profile.tail_predicates {
            let p = b.pred(&format!("p:tail{t}"));
            for _ in 0..per_pred.max(1) {
                let s = all_entities[rng.gen_range(0..all_entities.len())];
                let o = all_entities[rng.gen_range(0..all_entities.len())];
                if s != o {
                    b.add_ids(s, p, o);
                }
            }
        }
    }

    let kb = b
        .build_with_inverses(profile.inverse_fraction)
        .expect("generated KB is never empty");

    SynthKb {
        kb,
        class_members: members,
        profile: profile.name.to_string(),
        scale,
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{dbpedia_like, wikidata_like};

    fn tiny() -> SynthKb {
        generate(&dbpedia_like(), 0.1, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&dbpedia_like(), 0.1, 7);
        let b = generate(&dbpedia_like(), 0.1, 7);
        assert_eq!(a.kb.num_triples(), b.kb.num_triples());
        assert_eq!(a.kb.num_nodes(), b.kb.num_nodes());
        let mut la = Vec::new();
        remi_kb::ntriples::write_kb(&a.kb, &mut la).unwrap();
        let mut lb = Vec::new();
        remi_kb::ntriples::write_kb(&b.kb, &mut lb).unwrap();
        assert_eq!(la, lb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&dbpedia_like(), 0.1, 7);
        let b = generate(&dbpedia_like(), 0.1, 8);
        let mut la = Vec::new();
        remi_kb::ntriples::write_kb(&a.kb, &mut la).unwrap();
        let mut lb = Vec::new();
        remi_kb::ntriples::write_kb(&b.kb, &mut lb).unwrap();
        assert_ne!(la, lb);
    }

    #[test]
    fn every_entity_has_type_and_label() {
        let s = tiny();
        let tp = s.kb.type_pred().expect("rdf:type present");
        let lp = s.kb.label_pred().expect("rdfs:label present");
        for (_class, ids) in s.class_members.iter() {
            for &e in ids {
                assert!(!s.kb.objects(tp, e).is_empty());
                assert!(!s.kb.objects(lp, e).is_empty());
            }
        }
    }

    #[test]
    fn scale_grows_population() {
        let small = generate(&dbpedia_like(), 0.1, 1);
        let large = generate(&dbpedia_like(), 0.3, 1);
        assert!(large.kb.num_triples() > small.kb.num_triples());
        assert!(large.members("Person").len() > small.members("Person").len());
        // Fixed pools keep their size.
        assert_eq!(
            small.members("Country").len(),
            large.members("Country").len()
        );
    }

    #[test]
    fn inverse_predicates_are_materialised() {
        let s = generate(&dbpedia_like(), 0.2, 3);
        let n_inverse = s.kb.pred_ids().filter(|&p| s.kb.is_inverse(p)).count();
        assert!(n_inverse > 0, "profile requests 1% inverse materialisation");
    }

    #[test]
    fn wikidata_profile_generates() {
        let s = generate(&wikidata_like(), 0.1, 5);
        assert!(s.kb.num_triples() > 500);
        assert!(!s.members("Human").is_empty());
        assert!(!s.members("City").is_empty());
    }

    #[test]
    fn prominence_is_skewed_within_class() {
        let s = generate(&dbpedia_like(), 0.5, 11);
        // Country_0 should be far more frequent than the median country:
        // object choices are Zipf-skewed toward low indices.
        let countries = s.members("Country");
        let f0 = s.kb.node_frequency(countries[0]);
        let fmid = s.kb.node_frequency(countries[countries.len() / 2]);
        assert!(
            f0 > fmid * 2,
            "expected strong skew, got f0={f0}, fmid={fmid}"
        );
    }

    #[test]
    fn tail_predicates_expand_vocabulary() {
        let s = tiny();
        // Inverse-materialised predicates keep the base IRI as a prefix, so
        // they must be excluded or the count depends on which entities the
        // RNG happened to make prominent.
        let tails =
            s.kb.pred_ids()
                .filter(|&p| !s.kb.is_inverse(p) && s.kb.pred_iri(p).starts_with("p:tail"))
                .count();
        assert_eq!(tails, dbpedia_like().tail_predicates);
    }

    #[test]
    fn facts_per_entity_in_realistic_band() {
        let s = generate(&dbpedia_like(), 0.5, 13);
        let per_entity = s.kb.num_triples() as f64 / s.kb.num_nodes() as f64;
        assert!(
            per_entity > 1.0 && per_entity < 30.0,
            "facts/node = {per_entity}"
        );
    }
}
