//! `remi-kb` — the RDF knowledge-base substrate for the REMI reproduction.
//!
//! The REMI paper (Galárraga et al., EDBT 2020) mines referring expressions
//! over large RDF KBs stored in HDT and queried through Jena. This crate is
//! the pure-Rust equivalent of that storage/access layer:
//!
//! * [`term`] / [`dict`] / [`ids`] — RDF terms and dictionary encoding.
//! * [`store`] — the immutable in-memory KB: dictionaries, statistics,
//!   inverse-predicate materialisation, and `CsrStore`, the one frozen
//!   store.
//! * [`backend`] — the [`TripleStore`] abstraction: the CSR store and the
//!   live layered store behind a branch-predictable enum facade, with
//!   [`Bindings`] as the universal sorted-id-list view.
//! * [`delta`] — live ingestion: a mutable delta overlay (`LiveKb`) with
//!   epoch snapshots and compaction, layered over a CSR base.
//! * [`ntriples`] — N-Triples parsing and serialisation.
//! * [`binfmt`] — `RKB2`, the one binary file format: a section table over
//!   HDT-style bitmap triples, decoded straight into CSR on load.
//! * [`pagerank`] — endogenous PageRank, the `pr` prominence metric.
//! * [`query`] — triple-pattern resolution ([`TripleStore::solve`]) and
//!   the small BGP executor behind `POST /query` / `remi query`.
//! * [`cache`] — the LRU query cache of §3.5.2.
//! * [`fx`] — a fast non-cryptographic hasher used throughout.
//!
//! # Quick example
//!
//! ```
//! use remi_kb::store::KbBuilder;
//!
//! let mut b = KbBuilder::new();
//! b.add_iri("e:Paris", "p:capitalOf", "e:France");
//! b.add_iri("e:Lyon", "p:cityIn", "e:France");
//! let kb = b.build().unwrap();
//!
//! let capital_of = kb.pred_id("p:capitalOf").unwrap();
//! let france = kb.node_id_by_iri("e:France").unwrap();
//! assert_eq!(kb.subjects(capital_of, france).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod binfmt;
pub mod cache;
pub mod delta;
pub mod dict;
pub mod error;
pub mod freq;
pub mod fx;
pub mod ids;
pub mod ntriples;
pub mod pagerank;
pub mod query;
pub mod store;
mod succinct;
pub mod term;
pub mod varint;

pub use backend::{Bindings, PredView, StoreMemory, TripleStore};
pub use delta::{content_fingerprint, CompactionPolicy, KbEvents, KbInstruments, LiveKb, Snapshot};
pub use error::{KbError, Result};
pub use ids::{NodeId, PredId, Triple};
pub use query::{
    estimated_cardinality, parse_patterns, solve_bgp, solve_bgp_traced, BgpOutcome, PatternError,
    PlanStep, PlanTrace, QueryError, QueryEvents, ResolvedQuery, Slot, SolutionIter, TriplePattern,
};
pub use store::{KbBuilder, KnowledgeBase};
pub use term::{Term, TermKind};

// Re-exported so downstream crates (and the umbrella test suite) can pass
// cancellation tokens to `solve_bgp` without depending on `remi-pool`.
pub use remi_pool::CancelToken;

/// Loads a KB from a path, dispatching on the extension: `.nt` /
/// `.ntriples` → N-Triples, anything else → `RKB2`. Either way the KB
/// lands in the CSR store. Inverse predicates are built for the top
/// `inverse_fraction` of entities unless an `RKB2` file already holds
/// them.
///
/// This is the one shared loading dispatch — the `remi` CLI and the
/// serve load generator both route through it.
pub fn load_path(path: &std::path::Path, inverse_fraction: f64) -> Result<KnowledgeBase> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    if ext == "nt" || ext == "ntriples" {
        let text = std::fs::read_to_string(path).map_err(KbError::Io)?;
        ntriples::parse_document(&text)?.build_with_inverses(inverse_fraction)
    } else {
        binfmt::load(path, inverse_fraction)
    }
}
