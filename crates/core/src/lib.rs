//! `remi-core` — a Rust reproduction of **REMI: Mining Intuitive Referring
//! Expressions on Knowledge Bases** (Galárraga, Delaunay, Dessalles,
//! EDBT 2020).
//!
//! Given an RDF knowledge base and a set of target entities, REMI returns
//! the *most intuitive* referring expression: a conjunction of subgraph
//! expressions whose matches bind the root variable to exactly the target
//! set, minimal under an estimated Kolmogorov complexity `Ĉ` derived from
//! concept prominence.
//!
//! # Module map
//!
//! * [`bits`] — total-ordered costs in bits, `Ĉ(⊤) = ∞`.
//! * [`powerlaw`] — the Eq. 1 rank/frequency compression.
//! * [`complexity`] — the `Ĉ` cost model (chain rule, prominence rankings).
//! * [`expr`] — the Table 1 language of subgraph expressions.
//! * [`enumerate`] — `subgraphs-expressions(t)` with the §3.5 pruning.
//! * [`eval`] — binding-set evaluation with the §3.5.2 LRU cache.
//! * [`search`] — the one subtree DFS (Algorithm 2, and Algorithm 3's when
//!   given P-REMI's bound) and the sequential root loop (Algorithm 1).
//! * [`parallel`] — P-REMI (§3.4): root scheduling over the shared pool
//!   and the shared incumbent.
//! * [`topk`] — the k cheapest distinct REs, a wrapper over the sequential
//!   root loop.
//! * [`miner`] — the [`Remi`] facade.
//! * [`verbalize`] — template-based natural-language rendering.
//! * [`fullbrevity`] — Dale's full-brevity baseline (§5, \[3\]).
//! * [`exceptions`] — REs with exceptions (the §6 future-work extension).
//!
//! # Example
//!
//! ```
//! use remi_core::{Remi, RemiConfig};
//! use remi_kb::KbBuilder;
//!
//! let mut b = KbBuilder::new();
//! b.add_iri("e:Paris", "p:capitalOf", "e:France");
//! b.add_iri("e:Paris", "p:cityIn", "e:France");
//! b.add_iri("e:Lyon", "p:cityIn", "e:France");
//! let kb = b.build().unwrap();
//!
//! let remi = Remi::new(&kb, RemiConfig::default());
//! let paris = kb.node_id_by_iri("e:Paris").unwrap();
//! let outcome = remi.describe(&[paris]);
//! let (expr, cost) = outcome.best.expect("Paris is identifiable");
//! println!("{} ({})", expr.display(&kb), cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod complexity;
pub mod config;
pub mod enumerate;
pub mod eval;
pub mod exceptions;
pub mod expr;
pub mod fullbrevity;
pub mod miner;
pub mod parallel;
pub mod powerlaw;
pub mod search;
pub mod topk;
pub mod verbalize;

pub use bits::Bits;
pub use complexity::{CostModel, EntityCodeMode, Prominence};
pub use config::{EnumerationConfig, LanguageBias, RemiConfig};
pub use expr::{Expression, SubgraphExpr};
pub use miner::{MiningOutcome, MiningStats, Remi};
pub use search::{ScoredExpr, SearchStatus};
pub use topk::describe_top_k;
