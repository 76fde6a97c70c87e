//! The REMI benchmark: one command that builds its inputs from a seed,
//! runs one workload for a fixed time, checks every answer, and prints
//! the metrics named in `BENCHMARK.json` as the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload mine|describe-cold|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every layer call and prints the per-layer
//! metrics instead. The exit code is non-zero when any correctness check
//! fails. See `NOTES.md` for the workloads and findings.

#![forbid(unsafe_code)]

mod cold;
mod http;
mod mine;
mod mixed;
mod prom;
mod quality;
mod report;
mod setup;
mod stats;
mod trace;

use std::process::ExitCode;

use report::Outcome;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `mixed` only (`--rate max`): send the mix closed-loop instead of
    /// at the workload's fixed rate, to measure the server's capacity
    /// for it.
    pub capacity_probe: bool,
}

pub const WORKLOADS: [&str; 3] = ["mine", "describe-cold", "mixed"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut capacity_probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--rate" if value == "max" => capacity_probe = true,
            "--rate" => return Err("--rate takes only max".to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if capacity_probe && workload.as_deref() != Some("mixed") {
        return Err("--rate applies to the mixed workload only".to_string());
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        capacity_probe,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: remi-benchmark --workload {} --seed N --seconds S --trace 0|1 \
                 [--rate max]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let t0 = std::time::Instant::now();
    let steal0 = setup::cpu_steal();
    let outcome: Result<Outcome, String> = match args.workload.as_str() {
        "mine" => mine::run(&args),
        "describe-cold" => cold::run(&args),
        _ => mixed::run(&args),
    };
    let outcome = outcome.and_then(|mut o| {
        o.fact("peak_rss_with_checks_mb", setup::peak_rss_mb()?);
        let (alu_ns, dram_ns) = setup::host_speed();
        o.fact("host_alu_ns", alu_ns);
        o.fact("host_dram_ns", dram_ns);
        o.fact("nproc", setup::nproc());
        o.fact("pool_width", remi_pool::global().threads());
        o.fact("commit", setup::commit());
        o.fact("source_fnv", setup::source_hash());
        o.fact("wall_s", setup::secs(t0));
        let steal1 = setup::cpu_steal();
        let total = steal1.1.saturating_sub(steal0.1).max(1);
        o.fact(
            "cpu_steal_share",
            steal1.0.saturating_sub(steal0.0) as f64 / total as f64,
        );
        Ok(o)
    });
    match outcome {
        Ok(outcome) => {
            for (i, p) in outcome.problems.iter().enumerate().take(20) {
                eprintln!(
                    "check failed ({} of {}): {p}",
                    i + 1,
                    outcome.problems.len()
                );
            }
            let (line, correct) = outcome.finish(&args);
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload mixed --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mixed", 7, 20.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mine --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload mine --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mine --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload mine --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(!a.capacity_probe);
        let probe = "--workload mixed --seed 1 --seconds 1 --trace 0 --rate";
        assert!(
            parse_args(&argv(&format!("{probe} max")))
                .unwrap()
                .capacity_probe
        );
        assert!(parse_args(&argv(&format!("{probe} 55"))).is_err());
        assert!(parse_args(&argv(
            "--workload mine --seed 1 --seconds 1 --trace 0 --rate max"
        ))
        .is_err());
    }
}
