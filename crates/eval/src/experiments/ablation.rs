//! A1 — ablations of the §3.5 design choices, as an experiment driver
//! (the Criterion variants live in `remi-bench`; this driver prints a
//! compact table through `remi-tables --table ablation`).
//!
//! Knobs ablated:
//! * the §3.5.2 prominent-object pruning (on/off) — queue size and time;
//! * the LRU binding cache (on/off) — RE-test cache hit rate and time;
//! * P-REMI threads (1/2/8) — wall time.

use std::fmt;
use std::time::{Duration, Instant};

use remi_core::{EnumerationConfig, Remi, RemiConfig};
use remi_synth::{sample_target_sets, SynthKb, TargetSpec};

/// One ablation variant's aggregate measurements.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub name: String,
    /// Total mining wall time over all sets.
    pub total_time: Duration,
    /// Mean queue size.
    pub mean_queue: f64,
    /// Sets solved.
    pub solutions: usize,
    /// Total cache hits across sets.
    pub cache_hits: u64,
    /// Total RE tests across sets.
    pub re_tests: u64,
}

/// Full ablation result.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// One row per variant.
    pub rows: Vec<AblationRow>,
    /// Number of target sets.
    pub sets: usize,
}

fn variant(name: &str, cfg: RemiConfig) -> (String, RemiConfig) {
    (name.to_string(), cfg)
}

/// Runs the ablation grid over `n_sets` target sets.
pub fn run(synth: &SynthKb, classes: &[&str], n_sets: usize, seed: u64) -> AblationResult {
    let kb = &synth.kb;
    let sets = sample_target_sets(
        synth,
        classes,
        &TargetSpec {
            count: n_sets,
            ..Default::default()
        },
        seed,
    );

    // Every variant gets a per-set timeout: without the prominent-object
    // pruning the queue grows ~20×, and unbounded a set can take minutes.
    let base = || RemiConfig::default().with_timeout(Duration::from_millis(500));
    let variants: Vec<(String, RemiConfig)> = vec![
        variant("baseline", base()),
        variant(
            "no_prominent_pruning",
            RemiConfig {
                enumeration: EnumerationConfig {
                    prominent_cutoff: 0.0,
                    ..Default::default()
                },
                ..base()
            },
        ),
        variant(
            "cache_off",
            RemiConfig {
                cache_capacity: 1,
                ..base()
            },
        ),
        variant("threads_2", base().with_threads(2)),
        variant("threads_8", base().with_threads(8)),
    ];

    let mut rows = Vec::new();
    for (name, cfg) in variants {
        let remi = Remi::new(kb, cfg);
        let mut total_time = Duration::ZERO;
        let mut queue_sum = 0usize;
        let mut solutions = 0usize;
        let mut cache_hits = 0u64;
        let mut re_tests = 0u64;
        for set in &sets {
            let t = Instant::now();
            let outcome = remi.describe(&set.entities);
            total_time += t.elapsed();
            queue_sum += outcome.stats.queue_size;
            cache_hits += outcome.stats.cache_hits;
            re_tests += outcome.stats.re_tests;
            if outcome.best.is_some() {
                solutions += 1;
            }
        }
        rows.push(AblationRow {
            name,
            total_time,
            mean_queue: queue_sum as f64 / sets.len().max(1) as f64,
            solutions,
            cache_hits,
            re_tests,
        });
    }

    AblationResult {
        rows,
        sets: sets.len(),
    }
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A1 — §3.5 design ablations over {} sets", self.sets)?;
        writeln!(
            f,
            "{:<22} {:>12} {:>11} {:>6} {:>12} {:>10}",
            "variant", "total time", "mean queue", "#sol", "cache hits", "RE tests"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<22} {:>12} {:>11.1} {:>6} {:>12} {:>10}",
                r.name,
                format!("{:.2?}", r.total_time),
                r.mean_queue,
                r.solutions,
                r.cache_hits,
                r.re_tests
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_worlds;

    #[test]
    fn ablations_report_plausible_solution_counts() {
        let synth = test_worlds::dbpedia();
        let result = run(&synth, &["Person", "Settlement"], 15, 3);
        assert_eq!(result.rows.len(), 5);
        // Variants change speed, and under the per-set timeout a slower
        // variant may fail to finish some sets (that is the point of the
        // ablation — e.g. disabling the prominent-object pruning blows up
        // the queue ~20×). Solution counts must stay in a sane band and
        // never *exceed* what the search space admits by much.
        let baseline = result.rows[0].solutions as i64;
        for row in &result.rows {
            let d = row.solutions as i64 - baseline;
            assert!(
                (-baseline..=3).contains(&d),
                "variant {} solved {} vs baseline {}",
                row.name,
                row.solutions,
                baseline
            );
        }
        // The cheap variants (threads only change scheduling) agree with
        // the baseline exactly when nothing times out.
        let t8 = result.rows.iter().find(|r| r.name == "threads_8").unwrap();
        assert!((t8.solutions as i64 - baseline).abs() <= 2, "{t8:?}");
    }

    #[test]
    fn pruning_shrinks_the_queue() {
        let synth = test_worlds::dbpedia();
        let result = run(&synth, &["Person", "Settlement"], 15, 5);
        let get = |name: &str| {
            result
                .rows
                .iter()
                .find(|r| r.name == name)
                .expect("row exists")
                .mean_queue
        };
        assert!(
            get("baseline") <= get("no_prominent_pruning"),
            "pruning must not grow the queue"
        );
    }
}
