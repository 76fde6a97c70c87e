//! The metric vocabulary and the result line.
//!
//! Every workload reports every metric below, so every result carries
//! the same set. A per-layer metric of a layer the workload does not exercise
//! (the HTTP layer on `mine`, ingest on `describe-cold`) reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Args;

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_ops_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("slo_met_share", "share"),
    ("ok_share", "share"),
    ("optimal_share", "share"),
    ("re_bits_mean", "bits"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.setup_ms", "ms"),
    ("core.setup_share", "share"),
    ("core.queue_ms", "ms"),
    ("core.queue_size", "count"),
    ("core.search_ms", "ms"),
    ("core.nodes_visited", "1/op"),
    ("core.re_tests", "1/op"),
    ("core.binding_cache_hit_ratio", "share"),
    ("core.self_ms", "ms"),
    ("kb.raw_bindings_us", "us"),
    ("kb.query_us", "us"),
    ("kb.publish_ms", "ms"),
    ("kb.compact_ms", "ms"),
    ("kb.compactions", "count"),
    ("serve.parse_us", "us"),
    ("serve.admission_us", "us"),
    ("serve.cache_us", "us"),
    ("serve.mine_ms", "ms"),
    ("serve.query_eval_us", "us"),
    ("serve.ingest_ms", "ms"),
    ("serve.write_us", "us"),
    ("serve.outside_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.cache_purged", "count"),
    ("serve.shed", "count"),
    ("pool.steals", "1/op"),
    ("pool.claims", "1/op"),
    ("pool.parks", "1/op"),
    ("pool.revives", "1/op"),
    ("pool.help_drains", "1/op"),
    ("obs.trace_overhead", "ms"),
    ("trace.coverage", "share"),
    ("trace.unattributed_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("loadgen.late_ms", "ms"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; any one makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts about the run, printed as a `# stamp` line before the result.
    pub stamp: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.stamp.push((key, value.to_string()));
    }

    /// Renders the stamp and the result line; returns the lines and
    /// whether every check passed.
    pub fn finish(mut self, args: &Args) -> (String, bool) {
        let declared = if args.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems.push(format!("metric {name} is {v}"));
                    0.0
                }
                None if args.trace => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                value,
                json_str(unit)
            ));
        }
        if self.attempted == 0 {
            self.problems.push("no operation was attempted".to_string());
        }
        let correct = self.problems.is_empty();
        let mut out = String::from("# stamp {");
        let facts: Vec<String> = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
        ]
        .into_iter()
        .chain(self.stamp)
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(&v)))
        .collect();
        out.push_str(&facts.join(","));
        out.push_str("}\n");
        if !correct {
            let _ = writeln!(out, "# {} correctness check(s) failed", self.problems.len());
        }
        let _ = write!(
            out,
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        (out, correct)
    }
}

/// The shared pool's scheduling counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct PoolCounts([u64; 5]);

impl PoolCounts {
    pub fn now() -> PoolCounts {
        let m = remi_pool::global().metrics();
        PoolCounts([
            m.steals.get(),
            m.claims.get(),
            m.parks.get(),
            m.revives.get(),
            m.help_drains.get(),
        ])
    }

    /// Sets the `pool.*` metrics: counts since `self`, per operation.
    pub fn report_since(self, ops: u64, out: &mut Outcome) {
        let now = PoolCounts::now();
        let names = [
            "pool.steals",
            "pool.claims",
            "pool.parks",
            "pool.revives",
            "pool.help_drains",
        ];
        for (i, name) in names.into_iter().enumerate() {
            out.set(name, (now.0[i] - self.0[i]) as f64 / ops.max(1) as f64);
        }
    }
}

/// Where a traced run writes its spans (inside the checkout; ignored by
/// git).
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-{}.jsonl",
        args.workload, args.seed
    ))
}

fn json_str(s: &str) -> String {
    remi_serve::json::escape(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = remi_serve::json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn vocabulary_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_declared_metric() {
        let args = Args {
            workload: "mine".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            capacity_probe: false,
        };
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Default::default()
        };
        for &(name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        o.fact("nproc", 2);
        let (text, correct) = o.finish(&args);
        assert!(correct);
        let last = text.lines().last().unwrap();
        let doc = remi_serve::json::parse(last.as_bytes()).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
            assert_eq!(m.get("value"), Some(&remi_serve::json::Value::Number(1.25)));
        }
        assert!(text.starts_with("# stamp {\"workload\":\"mine\""));
    }

    #[test]
    fn missing_or_non_finite_metrics_make_the_run_incorrect() {
        let args = Args {
            workload: "mine".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            capacity_probe: false,
        };
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        o.set("p50_ms", f64::NAN);
        let (text, correct) = o.finish(&args);
        assert!(!correct);
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\":false"));
    }
}
