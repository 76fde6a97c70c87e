//! Configuration for the REMI miner.

use std::time::Duration;

use crate::complexity::{EntityCodeMode, Prominence};

/// Which language of subgraph expressions to mine in (§3.2, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LanguageBias {
    /// The state-of-the-art language: conjunctions of bound atoms
    /// `p(x, I)` only.
    Standard,
    /// REMI's extended language: Table 1 (single atom, path, path+star,
    /// 2-closed, 3-closed) — at most one extra variable, at most 3 atoms.
    Remi,
}

/// Knobs for the enumeration of subgraph expressions; the defaults encode
/// the paper's pruning heuristics (§3.5.2).
#[derive(Debug, Clone)]
pub struct EnumerationConfig {
    /// Language bias.
    pub language: LanguageBias,
    /// Skip multi-atom derivation from atoms whose object is among this
    /// top fraction of most frequent entities (paper: 0.05).
    pub prominent_cutoff: f64,
    /// Maximum (p, o) fact pairs considered per intermediate entity when
    /// deriving path+star shapes; bounds the quadratic blow-up.
    pub max_star_pairs: usize,
    /// Hard cap on the number of subgraph expressions enumerated per
    /// entity (a safety valve; the paper saw up to 25.2 k).
    pub max_exprs_per_entity: usize,
    /// Exclude `rdfs:label` (and similar identifier predicates) from
    /// expressions — labels trivially identify entities and produce
    /// degenerate REs.
    pub exclude_label: bool,
    /// Exclude `rdf:type` atoms (used by the Table 3 protocol, which
    /// removes `type` to match the gold-standard language).
    pub exclude_type: bool,
    /// Exclude materialised inverse predicates (also a Table 3 knob).
    pub exclude_inverse: bool,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig {
            language: LanguageBias::Remi,
            prominent_cutoff: 0.05,
            max_star_pairs: 64,
            max_exprs_per_entity: 50_000,
            exclude_label: true,
            exclude_type: false,
            exclude_inverse: false,
        }
    }
}

/// Full miner configuration.
#[derive(Debug, Clone)]
pub struct RemiConfig {
    /// Enumeration knobs.
    pub enumeration: EnumerationConfig,
    /// Prominence metric for `Ĉ` (§3.1).
    pub prominence: Prominence,
    /// Conditional entity-code computation (§3.5.3).
    pub entity_code: EntityCodeMode,
    /// LRU capacity for the binding-set cache (§3.5.2).
    pub cache_capacity: usize,
    /// Wall-clock timeout for one mining call (the paper uses 2 h per
    /// set; experiments here use seconds). A call it cuts short returns
    /// the best RE found so far with
    /// [`SearchStatus::TimedOut`](crate::SearchStatus::TimedOut).
    pub timeout: Option<Duration>,
    /// Worker tasks for P-REMI (§3.4). `1` means sequential REMI. Values
    /// above 1 run [`Remi::describe`](crate::Remi::describe) as P-REMI on
    /// the process-wide [`remi_pool::global`] executor, so effective
    /// parallelism is additionally capped by the pool size (`REMI_THREADS`,
    /// or the machine's available parallelism); queue scoring also uses
    /// them. Top-k mining is always sequential.
    pub threads: usize,
}

impl Default for RemiConfig {
    fn default() -> Self {
        RemiConfig {
            enumeration: EnumerationConfig::default(),
            prominence: Prominence::Frequency,
            entity_code: EntityCodeMode::PowerLaw,
            cache_capacity: 16_384,
            timeout: None,
            threads: 1,
        }
    }
}

impl RemiConfig {
    /// A configuration using the state-of-the-art language bias.
    pub fn standard_language() -> Self {
        RemiConfig {
            enumeration: EnumerationConfig {
                language: LanguageBias::Standard,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Sets the number of P-REMI worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets `threads` to the shared executor's configured parallelism:
    /// `REMI_THREADS` if set, otherwise the machine's available
    /// parallelism. This is the one knob every parallel path (P-REMI,
    /// queue scoring, PageRank) shares.
    pub fn with_auto_threads(self) -> Self {
        self.with_threads(remi_pool::configured_threads())
    }

    /// Sets the timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the prominence metric.
    pub fn with_prominence(mut self, metric: Prominence) -> Self {
        self.prominence = metric;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = RemiConfig::default();
        assert_eq!(c.enumeration.language, LanguageBias::Remi);
        assert!((c.enumeration.prominent_cutoff - 0.05).abs() < 1e-12);
        assert_eq!(c.prominence, Prominence::Frequency);
        assert_eq!(c.entity_code, EntityCodeMode::PowerLaw);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn builders_compose() {
        let c = RemiConfig::standard_language()
            .with_threads(8)
            .with_timeout(Duration::from_secs(5))
            .with_prominence(Prominence::PageRank);
        assert_eq!(c.enumeration.language, LanguageBias::Standard);
        assert_eq!(c.threads, 8);
        assert_eq!(c.timeout, Some(Duration::from_secs(5)));
        assert_eq!(c.prominence, Prominence::PageRank);
    }

    #[test]
    fn thread_floor_is_one() {
        let c = RemiConfig::default().with_threads(0);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn auto_threads_matches_the_shared_executor_config() {
        let c = RemiConfig::default().with_auto_threads();
        assert_eq!(c.threads, remi_pool::configured_threads());
        assert!(c.threads >= 1);
    }
}
