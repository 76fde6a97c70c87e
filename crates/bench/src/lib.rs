//! `remi-bench` — shared fixtures for the Criterion benchmark harness.
//!
//! Each bench target regenerates one artifact of the paper:
//!
//! | bench target          | paper artifact                         |
//! |-----------------------|----------------------------------------|
//! | `tab2_user_agreement` | Table 2 (p@k of Ĉ vs users)            |
//! | `tab3_summarization`  | Table 3 (summary quality)              |
//! | `tab4_runtime`        | Table 4 (AMIE+ vs REMI vs P-REMI)      |
//! | `eq1_powerlaw_fit`    | Eq. 1 R² fits                          |
//! | `space_growth`        | §3.2 language-bias growth              |
//! | `fig1_search_tree`    | Figure 1 DFS behaviour                 |
//! | `ablations`           | §3.5 design-choice ablations           |
//! | `kb_micro`            | substrate microbenchmarks              |
//! | `pool_overhead`       | pooled executor vs spawn-per-call      |
//! | `backend_bindings`    | CSR store binding primitives           |
//!
//! Every bench prints the regenerated table once before timing, so
//! `cargo bench` output doubles as the experimental record.

#![forbid(unsafe_code)]

use std::sync::OnceLock;

use remi_synth::SynthKb;

/// The shared DBpedia-like benchmark KB (built once per process).
pub fn dbpedia() -> &'static SynthKb {
    static KB: OnceLock<SynthKb> = OnceLock::new();
    KB.get_or_init(|| remi_synth::generate(&remi_synth::dbpedia_like(), 2.0, 42))
}

/// The shared Wikidata-like benchmark KB.
pub fn wikidata() -> &'static SynthKb {
    static KB: OnceLock<SynthKb> = OnceLock::new();
    KB.get_or_init(|| remi_synth::generate(&remi_synth::wikidata_like(), 2.0, 42))
}

/// The DBpedia evaluation classes of §4.1.
pub const DBPEDIA_CLASSES: [&str; 5] = ["Person", "Settlement", "Album", "Film", "Organization"];

/// The Wikidata evaluation classes of §4.1.3.
pub const WIKIDATA_CLASSES: [&str; 4] = ["Company", "City", "Film", "Human"];
