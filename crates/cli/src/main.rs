//! The `remi` command-line entry point. Argument parsing only; the
//! subcommand logic lives in the library for testability.
//!
//! Error-path contract: every failure prints one `error: ...` line to
//! stderr and exits non-zero. Usage errors (unknown subcommand/flag,
//! missing or malformed flag value) additionally print the usage text and
//! exit 2; runtime errors (unreadable KB, unknown entity, bind failure)
//! exit 1 without the usage noise.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use remi_cli::{
    cmd_convert, cmd_describe, cmd_gen, cmd_ingest, cmd_query, cmd_serve, cmd_stats, cmd_summarize,
    DescribeOpts, USAGE,
};
use remi_core::LanguageBias;

/// What a successfully parsed invocation does.
enum Action {
    /// Print this output and exit.
    Print(String),
    /// A booted server to block on (the banner prints first).
    Serve(Box<remi_serve::ServerHandle>, String),
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Print(out) => f.debug_tuple("Print").field(out).finish(),
            Action::Serve(handle, _) => write!(f, "Serve({})", handle.addr()),
        }
    }
}

/// A failed invocation, split by whether the usage text helps.
#[derive(Debug)]
enum Failure {
    /// Bad command line: print `error:` + usage, exit 2.
    Usage(String),
    /// The command itself failed: print `error:` only, exit 1.
    Runtime(remi_cli::CliError),
}

impl From<remi_cli::CliError> for Failure {
    fn from(e: remi_cli::CliError) -> Self {
        Failure::Runtime(e)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(msg) => write!(f, "{msg}"),
            Failure::Runtime(e) => write!(f, "{e}"),
        }
    }
}

fn main() -> ExitCode {
    // `std::env::args()` panics on non-UTF-8 arguments; surface those as a
    // normal usage error instead.
    let mut args = Vec::new();
    for (i, arg) in std::env::args_os().skip(1).enumerate() {
        match arg.into_string() {
            Ok(s) => args.push(s),
            Err(raw) => {
                eprintln!(
                    "error: argument {} is not valid UTF-8: {:?}\n\n{USAGE}",
                    i + 1,
                    raw
                );
                return ExitCode::from(2);
            }
        }
    }
    match run(&args) {
        Ok(Action::Print(output)) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Ok(Action::Serve(mut handle, banner)) => {
            println!("{banner}");
            // Foreground server: block until something shuts it down
            // (process signal / supervisor kill).
            handle.wait();
            ExitCode::SUCCESS
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<Action, Failure> {
    let err = |msg: &str| Failure::Usage(msg.to_string());
    // `--help` anywhere wins, so `remi gen --help` explains instead of
    // complaining about an unknown flag.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Action::Print(USAGE.to_string()));
    }
    let Some(cmd) = args.first() else {
        return Err(err("missing subcommand"));
    };
    let print = |result: remi_cli::Result<String>| -> Result<Action, Failure> {
        Ok(Action::Print(result?))
    };
    match cmd.as_str() {
        "gen" => {
            let mut profile = "dbpedia".to_string();
            let mut scale = 1.0f64;
            let mut seed = 42u64;
            let mut out: Option<PathBuf> = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = || it.next().cloned().ok_or_else(|| err("missing flag value"));
                match flag.as_str() {
                    "--profile" => {
                        profile = value()?;
                        if !matches!(profile.as_str(), "dbpedia" | "wikidata") {
                            return Err(err(&format!(
                                "unknown profile {profile:?} (expected dbpedia or wikidata)"
                            )));
                        }
                    }
                    "--scale" => {
                        scale = value()?.parse().map_err(|_| err("--scale takes a float"))?
                    }
                    "--seed" => seed = value()?.parse().map_err(|_| err("--seed takes an int"))?,
                    "-o" | "--out" => out = Some(PathBuf::from(value()?)),
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            let out = out.ok_or_else(|| err("gen requires -o <path>"))?;
            print(cmd_gen(&profile, scale, seed, &out).map(|s| s + "\n"))
        }
        "convert" => {
            let mut paths = Vec::new();
            for a in &args[1..] {
                if a.starts_with("--") {
                    return Err(err(&format!("unknown flag {a}")));
                }
                paths.push(a);
            }
            let [input, output] = &paths[..] else {
                return Err(err("convert takes exactly two paths"));
            };
            print(cmd_convert(&PathBuf::from(input), &PathBuf::from(output)).map(|s| s + "\n"))
        }
        "stats" => {
            let Some(path) = args.get(1) else {
                return Err(err("stats takes a KB path"));
            };
            let mut backend = None;
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--backend" => {
                        let v = it.next().ok_or_else(|| err("missing flag value"))?;
                        backend = Some(parse_backend_usage(v)?);
                    }
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            print(cmd_stats(&PathBuf::from(path), backend))
        }
        "describe" => {
            let Some(path) = args.get(1) else {
                return Err(err("describe takes a KB path and entity IRIs"));
            };
            let mut opts = DescribeOpts::default();
            let mut iris = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().cloned().ok_or_else(|| err("missing flag value"));
                match a.as_str() {
                    "--standard" => opts.language = LanguageBias::Standard,
                    "--pagerank" => opts.pagerank = true,
                    "--threads" => {
                        opts.threads = value()?
                            .parse()
                            .map_err(|_| err("--threads takes an int"))?
                    }
                    "--timeout-ms" => {
                        opts.timeout_ms = value()?
                            .parse()
                            .map_err(|_| err("--timeout-ms takes an int"))?
                    }
                    "--exceptions" => {
                        opts.exceptions = value()?
                            .parse()
                            .map_err(|_| err("--exceptions takes an int"))?
                    }
                    "--backend" => opts.backend = Some(parse_backend_usage(&value()?)?),
                    iri if !iri.starts_with("--") => iris.push(iri.to_string()),
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            if iris.is_empty() {
                return Err(err("describe needs at least one entity IRI"));
            }
            print(cmd_describe(&PathBuf::from(path), &iris, &opts))
        }
        "summarize" => {
            let (Some(path), Some(iri)) = (args.get(1), args.get(2)) else {
                return Err(err("summarize takes a KB path and an entity IRI"));
            };
            let mut k = 5usize;
            let mut method = "remi".to_string();
            let mut backend = None;
            let mut it = args[3..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().cloned().ok_or_else(|| err("missing flag value"));
                match a.as_str() {
                    "--k" => k = value()?.parse().map_err(|_| err("--k takes an int"))?,
                    "--method" => {
                        method = value()?;
                        if !matches!(method.as_str(), "remi" | "faces" | "linksum") {
                            return Err(err(&format!(
                                "unknown method {method:?} (expected remi, faces, or linksum)"
                            )));
                        }
                    }
                    "--backend" => backend = Some(parse_backend_usage(&value()?)?),
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            print(cmd_summarize(
                &PathBuf::from(path),
                iri,
                k,
                &method,
                backend,
            ))
        }
        "ingest" => {
            let Some(path) = args.get(1) else {
                return Err(err("ingest takes a KB path and delta .nt files"));
            };
            let mut out: Option<PathBuf> = None;
            let mut backend = None;
            let mut deltas = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().cloned().ok_or_else(|| err("missing flag value"));
                match a.as_str() {
                    "-o" | "--out" => out = Some(PathBuf::from(value()?)),
                    "--backend" => backend = Some(parse_backend_usage(&value()?)?),
                    p if !p.starts_with("--") => deltas.push(p.to_string()),
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            if deltas.is_empty() {
                return Err(err("ingest needs at least one delta .nt file"));
            }
            let out = out.ok_or_else(|| err("ingest requires -o <path>"))?;
            print(cmd_ingest(&PathBuf::from(path), &deltas, &out, backend))
        }
        "serve" => {
            let Some(path) = args.get(1) else {
                return Err(err("serve takes a KB path"));
            };
            let mut backend = None;
            let mut config = remi_serve::ServeConfig {
                addr: "127.0.0.1:8080".to_string(),
                ..remi_serve::ServeConfig::default()
            };
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().cloned().ok_or_else(|| err("missing flag value"));
                match a.as_str() {
                    "--addr" => config.addr = value()?,
                    "--backend" => backend = Some(parse_backend_usage(&value()?)?),
                    "--cache-entries" => {
                        config.cache_entries = value()?
                            .parse()
                            .map_err(|_| err("--cache-entries takes an int"))?
                    }
                    "--max-inflight" => {
                        config.max_inflight = value()?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err("--max-inflight takes a positive int"))?
                    }
                    "--threads" => {
                        config.threads = value()?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err("--threads takes a positive int"))?
                    }
                    "--compact-threshold" => {
                        config.compact_min_delta = value()?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err("--compact-threshold takes a positive int"))?
                    }
                    "--slow-request-ms" => {
                        config.slow_request_ms = Some(
                            value()?
                                .parse::<u64>()
                                .map_err(|_| err("--slow-request-ms takes a millisecond count"))?,
                        )
                    }
                    "--event-capacity" => {
                        config.event_capacity =
                            value()?
                                .parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or_else(|| err("--event-capacity takes a positive int"))?
                    }
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            let (handle, banner) = cmd_serve(&PathBuf::from(path), backend, config)?;
            Ok(Action::Serve(Box::new(handle), banner))
        }
        "query" => {
            let Some(path) = args.get(1) else {
                return Err(err("query takes a KB path and s p o pattern triples"));
            };
            let mut limit = 100usize;
            let mut backend = None;
            let mut slots = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                let mut value = || it.next().cloned().ok_or_else(|| err("missing flag value"));
                match a.as_str() {
                    "--limit" => {
                        limit = value()?
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err("--limit takes a positive int"))?
                    }
                    "--backend" => backend = Some(parse_backend_usage(&value()?)?),
                    p if !p.starts_with("--") => slots.push(p.to_string()),
                    other => return Err(err(&format!("unknown flag {other}"))),
                }
            }
            if slots.is_empty() || slots.len() % 3 != 0 {
                return Err(err("query takes patterns as s p o triples (1-3 of them)"));
            }
            let patterns: Vec<[String; 3]> = slots
                .chunks_exact(3)
                .map(|c| [c[0].clone(), c[1].clone(), c[2].clone()])
                .collect();
            print(cmd_query(&PathBuf::from(path), &patterns, limit, backend))
        }
        "help" => Ok(Action::Print(USAGE.to_string())),
        other => Err(err(&format!("unknown subcommand {other}"))),
    }
}

/// `--backend` parsing at the argument layer: a bad value is a usage
/// error.
fn parse_backend_usage(v: &str) -> Result<remi_kb::Backend, Failure> {
    remi_cli::parse_backend(v).map_err(|e| Failure::Usage(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn output(result: Result<Action, Failure>) -> String {
        match result {
            Ok(Action::Print(out)) => out,
            Ok(Action::Serve(..)) => panic!("expected printed output, got a server"),
            Err(e) => panic!("expected success, got error: {e}"),
        }
    }

    #[test]
    fn help_prints_usage_from_anywhere() {
        for line in [
            vec!["--help"],
            vec!["-h"],
            vec!["help"],
            vec!["gen", "--help"],
            vec!["describe", "kb.rkb", "-h"],
            vec!["serve", "kb.rkb", "--help"],
        ] {
            let out = output(run(&args(&line)));
            assert_eq!(out, USAGE, "{line:?}");
        }
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        let e = run(&[]).unwrap_err();
        assert!(
            matches!(&e, Failure::Usage(m) if m.contains("missing subcommand")),
            "{e}"
        );
    }

    #[test]
    fn unknown_subcommand_and_flags_are_usage_errors() {
        for (line, needle) in [
            (vec!["frobnicate"], "unknown subcommand"),
            (vec!["gen", "--bogus"], "unknown flag --bogus"),
            (
                vec!["summarize", "kb.rkb", "e:x", "--k"],
                "missing flag value",
            ),
            (vec!["serve", "kb.rkb", "--bogus"], "unknown flag --bogus"),
            (vec!["serve"], "serve takes a KB path"),
            (
                vec!["serve", "kb.rkb", "--max-inflight", "0"],
                "--max-inflight",
            ),
            (
                vec!["describe", "kb.rkb", "e:x", "--backend", "hologram"],
                "unknown backend",
            ),
            (
                vec!["gen", "--profile", "freebase", "-o", "x.rkb"],
                "unknown profile",
            ),
            (
                vec!["summarize", "kb.rkb", "e:x", "--method", "magic"],
                "unknown method",
            ),
            (vec!["query"], "query takes a KB path"),
            (vec!["query", "kb.rkb", "?s", "p:x"], "s p o triples"),
            (
                vec!["query", "kb.rkb", "?s", "p:x", "?o", "--limit", "0"],
                "--limit takes a positive int",
            ),
        ] {
            let e = run(&args(&line)).unwrap_err();
            assert!(
                matches!(&e, Failure::Usage(m) if m.contains(needle)),
                "{line:?}: {e}"
            );
        }
    }

    #[test]
    fn malformed_flag_values_error_clearly() {
        let e = run(&args(&["gen", "--scale", "fast", "-o", "kb.rkb"])).unwrap_err();
        assert!(
            matches!(&e, Failure::Usage(m) if m.contains("--scale takes a float")),
            "{e}"
        );
        let e = run(&args(&["describe", "kb.rkb", "e:x", "--threads", "many"])).unwrap_err();
        assert!(
            matches!(&e, Failure::Usage(m) if m.contains("--threads takes an int")),
            "{e}"
        );
    }

    #[test]
    fn gen_requires_an_output_path() {
        let e = run(&args(&["gen", "--profile", "dbpedia"])).unwrap_err();
        assert!(
            matches!(&e, Failure::Usage(m) if m.contains("requires -o")),
            "{e}"
        );
    }

    #[test]
    fn unreadable_kb_paths_are_runtime_errors() {
        // The same `error:` contract, but without the usage text: the
        // command line was fine, the file was not.
        for line in [
            vec!["stats", "/no/such/file.rkb"],
            vec!["describe", "/no/such/file.rkb", "e:x"],
            vec!["summarize", "/no/such/file.rkb", "e:x"],
            vec!["serve", "/no/such/file.rkb"],
        ] {
            let e = run(&args(&line)).unwrap_err();
            assert!(matches!(&e, Failure::Runtime(_)), "{line:?}: {e}");
        }
    }

    #[test]
    fn serve_boots_from_the_command_line() {
        let dir = std::env::temp_dir().join(format!("remi_main_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let kb_path = dir.join("kb.rkb");
        cmd_gen("dbpedia", 0.1, 3, &kb_path).unwrap();
        let line = args(&[
            "serve",
            kb_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--cache-entries",
            "16",
            "--backend",
            "csr",
        ]);
        let Ok(Action::Serve(mut handle, banner)) = run(&line) else {
            panic!("serve did not boot");
        };
        assert!(banner.contains("serving"), "{banner}");
        assert!(banner.contains("(csr backend"), "{banner}");
        let mut c = remi_serve::client::Client::connect(handle.addr()).unwrap();
        assert_eq!(c.get("/v1/healthz").unwrap().status, 200);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
