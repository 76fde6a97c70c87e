//! Answer quality against the sequential-REMI reference.
//!
//! Sequential REMI (`threads = 1`) returns the least-complex RE under Ĉ;
//! every answer is compared with it, computed outside the timed region.
//! An answer that is more complex than the reference is *suboptimal*
//! (counted, reported as `optimal_share`); one that is less complex, or
//! that disagrees about whether any RE exists, is wrong and fails the run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use remi_core::{Remi, RemiConfig, SearchStatus};
use remi_kb::{KnowledgeBase, NodeId};

use crate::report::Outcome;

const TOLERANCE: f64 = 1e-9;

/// A reference that takes longer than this is abandoned and its answers
/// stay unjudged (a handful of single entities need up to ~10 s of
/// sequential search; see `NOTES.md`).
pub const REFERENCE_TIMEOUT: Duration = Duration::from_secs(2);

/// Sequential-REMI reference Ĉ of each single-entity target on `kb`,
/// rendered as the server renders it; `None` where the reference timed
/// out. Targets are mined one per task on the shared pool.
pub fn references(kb: &KnowledgeBase, targets: &[NodeId]) -> Vec<Option<Option<f64>>> {
    let remi = Remi::new(kb, RemiConfig::default().with_timeout(REFERENCE_TIMEOUT));
    let next = AtomicUsize::new(0);
    let found = Mutex::new(vec![None; targets.len()]);
    let pool = remi_pool::global();
    pool.scope(|s| {
        for _ in 0..pool.threads() {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&t) = targets.get(i) else { break };
                let o = remi.describe(&[t]);
                if o.status != SearchStatus::TimedOut {
                    found.lock()[i] = Some(o.cost().and_then(rendered));
                }
            });
        }
    });
    found.into_inner()
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Optimal,
    Suboptimal,
    Invalid(String),
}

/// Judges an answer's Ĉ (`None`: no RE found) against the reference
/// values of every KB state the answer may have been computed on.
pub fn judge(answer: Option<f64>, references: &[Option<f64>]) -> Verdict {
    let same = |r: &Option<f64>| match (answer, *r) {
        (None, None) => true,
        (Some(a), Some(r)) => (a - r).abs() <= TOLERANCE,
        _ => false,
    };
    if references.iter().any(same) {
        return Verdict::Optimal;
    }
    if let Some(a) = answer {
        if references.iter().flatten().any(|&r| a > r) {
            return Verdict::Suboptimal;
        }
    }
    Verdict::Invalid(format!("answer {answer:?} vs reference {references:?}"))
}

/// Ĉ as the server renders it (`"5.61 bits"`), parsed back.
pub fn parse_bits(rendered: &str) -> Option<f64> {
    rendered.strip_suffix(" bits")?.parse().ok()
}

/// A reference cost rounded the way the server renders costs, so the two
/// compare exactly.
pub fn rendered(bits: remi_core::Bits) -> Option<f64> {
    parse_bits(&bits.to_string())
}

/// Running tallies over the answers returned: `re_bits_mean` covers every
/// answer, `optimal_share` only those judged against a reference.
#[derive(Debug, Default)]
pub struct Quality {
    unjudged: u64,
    judged: u64,
    optimal: u64,
    bits_sum: f64,
    bits_n: u64,
}

impl Quality {
    pub fn add(
        &mut self,
        answer: Option<f64>,
        references: &[Option<f64>],
        out: &mut Outcome,
        what: impl FnOnce() -> String,
    ) {
        self.judged += 1;
        self.returned(answer);
        match judge(answer, references) {
            Verdict::Optimal => self.optimal += 1,
            Verdict::Suboptimal => {}
            Verdict::Invalid(why) => out.problem(format!("{}: {why}", what())),
        }
    }

    /// An answer without a reference to judge it by: it still counts
    /// towards `re_bits_mean`, which needs no reference.
    pub fn skip(&mut self, answer: Option<f64>) {
        self.unjudged += 1;
        self.returned(answer);
    }

    fn returned(&mut self, answer: Option<f64>) {
        if let Some(a) = answer {
            self.bits_sum += a;
            self.bits_n += 1;
        }
    }

    /// Sets `optimal_share` and `re_bits_mean`.
    pub fn report(&self, out: &mut Outcome) {
        if self.judged == 0 {
            out.problem("no answer was judged against the reference".to_string());
        }
        out.set(
            "optimal_share",
            self.optimal as f64 / self.judged.max(1) as f64,
        );
        out.set("re_bits_mean", self.bits_sum / self.bits_n.max(1) as f64);
        out.fact("answers_judged", self.judged);
        out.fact("answers_suboptimal", self.judged - self.optimal);
        out.fact("answers_unjudged", self.unjudged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        assert_eq!(judge(Some(5.0), &[Some(5.0)]), Verdict::Optimal);
        assert_eq!(judge(None, &[None]), Verdict::Optimal);
        assert_eq!(judge(Some(6.0), &[Some(5.0)]), Verdict::Suboptimal);
        assert!(matches!(
            judge(Some(4.0), &[Some(5.0)]),
            Verdict::Invalid(_)
        ));
        assert!(matches!(judge(None, &[Some(5.0)]), Verdict::Invalid(_)));
        assert!(matches!(judge(Some(5.0), &[None]), Verdict::Invalid(_)));
        // Either of two candidate KB states may have produced the answer.
        assert_eq!(judge(Some(4.0), &[Some(5.0), Some(4.0)]), Verdict::Optimal);
        assert_eq!(
            judge(Some(4.5), &[Some(5.0), Some(4.0)]),
            Verdict::Suboptimal
        );
    }

    #[test]
    fn rendered_costs_round_trip() {
        assert_eq!(parse_bits("5.61 bits"), Some(5.61));
        assert_eq!(parse_bits("∞"), None);
        assert_eq!(
            rendered(remi_core::Bits::new(5.614709844115208)),
            Some(5.61)
        );
    }

    #[test]
    fn tallies_feed_the_quality_metrics() {
        let mut out = Outcome::default();
        let mut q = Quality::default();
        q.add(Some(4.0), &[Some(4.0)], &mut out, || "a".into());
        q.add(Some(6.0), &[Some(5.0)], &mut out, || "b".into());
        q.add(None, &[None], &mut out, || "c".into());
        q.add(Some(1.0), &[Some(2.0)], &mut out, || "d".into());
        q.report(&mut out);
        assert_eq!(out.problems.len(), 1);
        assert!(out.problems[0].starts_with("d:"));
        assert_eq!(out.metrics["optimal_share"], 0.5);
        assert!((out.metrics["re_bits_mean"] - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unjudged_answers_count_towards_the_mean_complexity() {
        let mut out = Outcome::default();
        let mut q = Quality::default();
        q.add(Some(4.0), &[Some(4.0)], &mut out, || "a".into());
        q.skip(Some(10.0));
        q.skip(None);
        q.report(&mut out);
        assert!(out.problems.is_empty());
        assert_eq!(out.metrics["optimal_share"], 1.0);
        assert_eq!(out.metrics["re_bits_mean"], 7.0);
        assert!(out.stamp.contains(&("answers_unjudged", "2".to_string())));
    }
}
