//! The two KB profiles used throughout the evaluation, mirroring the
//! paper's datasets (§4): DBpedia 2016-10 and the Wikidata dump of \[6\].
//!
//! Absolute sizes are scaled to laptop experiments; the *relative* shape is
//! what matters: DBpedia-like has a richer predicate vocabulary and more
//! classes, Wikidata-like has fewer predicates and denser per-entity facts.

use crate::schema::{ClassSpec, LiteralKind, PredSpec, Profile};

/// DBpedia-like profile. At scale 1.0: ~1 500 scaling entities + ~350 pool
/// entities, ~15–20 facts per scaling entity including labels and types.
pub fn dbpedia_like() -> Profile {
    Profile {
        name: "dbpedia",
        classes: vec![
            // ---- fixed pools (prominent head entities) ----
            ClassSpec {
                name: "Country",
                count: 25,
                fixed: true,
                predicates: vec![
                    PredSpec::entity("capital", "Settlement", 1.0, 1, 1.3),
                    PredSpec::entity("officialLanguage", "Language", 0.95, 2, 1.0),
                    PredSpec::entity("currency", "Currency", 0.9, 1, 1.0),
                ],
            },
            ClassSpec {
                name: "HistoricalCountry",
                count: 8,
                fixed: true,
                // Historical capitals overlap with live ones — the source of
                // the "Paris is also the capital of the Kingdom of France"
                // ambiguity the paper reports.
                predicates: vec![PredSpec::entity("capital", "Settlement", 1.0, 1, 1.2)],
            },
            ClassSpec {
                name: "Region",
                count: 40,
                fixed: true,
                predicates: vec![PredSpec::entity("partOf", "Country", 1.0, 1, 1.0)],
            },
            ClassSpec {
                name: "Party",
                count: 18,
                fixed: true,
                predicates: vec![PredSpec::entity("activeIn", "Country", 0.9, 1, 1.0)],
            },
            ClassSpec {
                name: "Language",
                count: 20,
                fixed: true,
                predicates: vec![PredSpec::entity("langFamily", "LangFamily", 1.0, 1, 0.8)],
            },
            ClassSpec {
                name: "LangFamily",
                count: 8,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Currency",
                count: 15,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Genre",
                count: 24,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Award",
                count: 25,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "University",
                count: 35,
                fixed: true,
                predicates: vec![PredSpec::entity("locatedIn", "Settlement", 0.95, 1, 1.1)],
            },
            ClassSpec {
                name: "Occupation",
                count: 28,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Industry",
                count: 20,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Religion",
                count: 12,
                fixed: true,
                predicates: vec![],
            },
            // ---- scaling classes (the four classes of §4.1) ----
            ClassSpec {
                name: "Person",
                count: 400,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("birthPlace", "Settlement", 0.9, 1, 1.1),
                    PredSpec::entity("deathPlace", "Settlement", 0.45, 1, 1.1),
                    PredSpec::entity("citizenship", "Country", 0.85, 1, 1.2),
                    PredSpec::entity("party", "Party", 0.25, 1, 1.0),
                    PredSpec::entity("almaMater", "University", 0.4, 2, 1.0),
                    PredSpec::entity("award", "Award", 0.2, 2, 1.1),
                    PredSpec::entity("occupation", "Occupation", 0.8, 2, 1.0),
                    PredSpec::entity("religion", "Religion", 0.15, 1, 1.0),
                    PredSpec::entity("supervisor", "Person", 0.12, 1, 1.3),
                    PredSpec::entity("spouse", "Person", 0.2, 1, 0.6),
                    PredSpec::literal("birthYear", LiteralKind::Year, 0.9),
                    PredSpec::literal("deathYear", LiteralKind::Year, 0.4),
                ],
            },
            ClassSpec {
                name: "Settlement",
                count: 250,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("country", "Country", 1.0, 1, 1.2),
                    PredSpec::entity("belongsTo", "Region", 0.85, 1, 1.0),
                    PredSpec::entity("mayor", "Person", 0.45, 1, 0.8),
                    PredSpec::entity("twinCity", "Settlement", 0.3, 3, 1.0),
                    PredSpec::literal("population", LiteralKind::Population, 0.95),
                    PredSpec::literal("timeZone", LiteralKind::Code, 0.9),
                ],
            },
            ClassSpec {
                name: "Album",
                count: 100,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("artist", "Person", 1.0, 1, 1.2),
                    PredSpec::entity("genre", "Genre", 0.9, 2, 1.1),
                    PredSpec::entity("recordLabel", "Organization", 0.6, 1, 1.2),
                    PredSpec::literal("releaseYear", LiteralKind::Year, 0.95),
                ],
            },
            ClassSpec {
                name: "Film",
                count: 100,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("director", "Person", 0.95, 1, 1.1),
                    PredSpec::entity("starring", "Person", 0.9, 3, 1.2),
                    PredSpec::entity("country", "Country", 0.9, 1, 1.3),
                    PredSpec::entity("genre", "Genre", 0.9, 2, 1.1),
                    PredSpec::literal("releaseYear", LiteralKind::Year, 0.95),
                ],
            },
            ClassSpec {
                name: "Organization",
                count: 150,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("headquarters", "Settlement", 0.9, 1, 1.1),
                    PredSpec::entity("industry", "Industry", 0.8, 1, 1.0),
                    PredSpec::entity("foundedBy", "Person", 0.35, 2, 1.0),
                    PredSpec::entity("ceo", "Person", 0.5, 1, 0.8),
                    PredSpec::entity("country", "Country", 0.9, 1, 1.2),
                    PredSpec::literal("foundingYear", LiteralKind::Year, 0.8),
                ],
            },
        ],
        tail_predicates: 60,
        tail_rate: 2.0,
        ambiguity_noise: 0.04,
        inverse_fraction: 0.01,
    }
}

/// Wikidata-like profile: fewer predicates, flatter class structure, denser
/// facts per entity, matching the relative shape of the Wikidata dump used
/// in the paper (15.9 M facts, 752 predicates vs DBpedia's 1 951).
pub fn wikidata_like() -> Profile {
    Profile {
        name: "wikidata",
        classes: vec![
            ClassSpec {
                name: "Country",
                count: 30,
                fixed: true,
                predicates: vec![
                    PredSpec::entity("capital", "City", 1.0, 1, 1.3),
                    PredSpec::entity("officialLanguage", "Language", 0.95, 2, 1.0),
                ],
            },
            ClassSpec {
                name: "Language",
                count: 22,
                fixed: true,
                predicates: vec![PredSpec::entity("langFamily", "LangFamily", 1.0, 1, 0.8)],
            },
            ClassSpec {
                name: "LangFamily",
                count: 8,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Genre",
                count: 20,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Industry",
                count: 18,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Religion",
                count: 10,
                fixed: true,
                predicates: vec![],
            },
            ClassSpec {
                name: "Human",
                count: 500,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("placeOfBirth", "City", 0.95, 1, 1.1),
                    PredSpec::entity("placeOfDeath", "City", 0.5, 1, 1.1),
                    PredSpec::entity("countryOfCitizenship", "Country", 0.95, 1, 1.2),
                    PredSpec::entity("religion", "Religion", 0.2, 1, 1.0),
                    PredSpec::entity("doctoralAdvisor", "Human", 0.1, 1, 1.3),
                    PredSpec::entity("spouse", "Human", 0.25, 1, 0.6),
                    PredSpec::literal("dateOfBirth", LiteralKind::Year, 0.95),
                    PredSpec::literal("dateOfDeath", LiteralKind::Year, 0.45),
                ],
            },
            ClassSpec {
                name: "City",
                count: 200,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("country", "Country", 1.0, 1, 1.2),
                    PredSpec::entity("headOfGovernment", "Human", 0.5, 1, 0.8),
                    PredSpec::literal("population", LiteralKind::Population, 0.95),
                ],
            },
            ClassSpec {
                name: "Company",
                count: 120,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("headquartersLocation", "City", 0.95, 1, 1.1),
                    PredSpec::entity("industry", "Industry", 0.85, 1, 1.0),
                    PredSpec::entity("chiefExecutiveOfficer", "Human", 0.55, 1, 0.8),
                    PredSpec::entity("country", "Country", 0.95, 1, 1.2),
                    PredSpec::literal("inception", LiteralKind::Year, 0.85),
                ],
            },
            ClassSpec {
                name: "Film",
                count: 120,
                fixed: false,
                predicates: vec![
                    PredSpec::entity("director", "Human", 0.95, 1, 1.1),
                    PredSpec::entity("castMember", "Human", 0.95, 4, 1.2),
                    PredSpec::entity("countryOfOrigin", "Country", 0.95, 1, 1.3),
                    PredSpec::entity("genre", "Genre", 0.95, 2, 1.1),
                    PredSpec::literal("publicationDate", LiteralKind::Year, 0.95),
                ],
            },
        ],
        tail_predicates: 20,
        tail_rate: 1.5,
        ambiguity_noise: 0.03,
        inverse_fraction: 0.01,
    }
}

/// The four DBpedia evaluation classes of §4.1 (Album ∪ Film are listed
/// separately here; experiment drivers merge them when needed).
pub const DBPEDIA_EVAL_CLASSES: [&str; 5] =
    ["Person", "Settlement", "Album", "Film", "Organization"];

/// The five Wikidata evaluation classes of §4.1.3.
pub const WIKIDATA_EVAL_CLASSES: [&str; 4] = ["Company", "City", "Film", "Human"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_reference_only_declared_classes() {
        for profile in [dbpedia_like(), wikidata_like()] {
            for class in &profile.classes {
                for pred in &class.predicates {
                    if let crate::schema::ObjectSpec::Class(target) = &pred.object {
                        assert!(
                            profile.class(target).is_some(),
                            "{}: predicate {} references unknown class {}",
                            profile.name,
                            pred.name,
                            target
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dbpedia_has_more_predicates_than_wikidata() {
        let count = |p: &Profile| -> usize {
            p.classes.iter().map(|c| c.predicates.len()).sum::<usize>() + p.tail_predicates
        };
        assert!(count(&dbpedia_like()) > count(&wikidata_like()));
    }

    #[test]
    fn eval_classes_exist() {
        let db = dbpedia_like();
        for c in DBPEDIA_EVAL_CLASSES {
            assert!(db.class(c).is_some(), "missing {c}");
        }
        let wd = wikidata_like();
        for c in WIKIDATA_EVAL_CLASSES {
            assert!(wd.class(c).is_some(), "missing {c}");
        }
    }

    #[test]
    fn coverage_and_cardinality_are_sane() {
        for profile in [dbpedia_like(), wikidata_like()] {
            for class in &profile.classes {
                for pred in &class.predicates {
                    assert!((0.0..=1.0).contains(&pred.coverage));
                    assert!(pred.max_card >= 1);
                    assert!(pred.zipf >= 0.0);
                }
            }
        }
    }
}
