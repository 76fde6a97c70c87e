//! `remi-cli` — library backing for the `remi` command-line tool.
//!
//! The CLI logic lives here (rather than in `main.rs`) so it is unit
//! testable: every subcommand is a function from parsed arguments to a
//! `Result<String>` of human-readable output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::Path;

use remi_core::complexity::Prominence;
use remi_core::eval::Evaluator;
use remi_core::exceptions::{describe_with_exceptions, verbalize_with_exceptions};
use remi_core::{LanguageBias, Remi, RemiConfig, SearchStatus};
use remi_kb::{Backend, KnowledgeBase, NodeId, PredId};

/// CLI errors: message + suggestion.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<remi_kb::KbError> for CliError {
    fn from(e: remi_kb::KbError) -> Self {
        CliError(e.to_string())
    }
}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Parses a `--backend` value.
pub fn parse_backend(s: &str) -> Result<Backend> {
    Backend::parse(s)
        .ok_or_else(|| CliError(format!("unknown backend {s:?} (expected csr or succinct)")))
}

/// Loads a KB from a path, dispatching on the extension:
/// `.nt`/`.ntriples` → N-Triples, anything else → the binary `RKB2`
/// format. Inverse predicates are rebuilt for the top `inverse_fraction`
/// when the file holds none.
pub fn load_kb(path: &Path, inverse_fraction: f64) -> Result<KnowledgeBase> {
    remi_kb::load_path(path, inverse_fraction)
        .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))
}

/// Loads a KB and converts it to the requested backend (`None` keeps the
/// one it loads into: CSR for N-Triples, succinct for `RKB2`).
pub fn load_kb_as(
    path: &Path,
    inverse_fraction: f64,
    backend: Option<Backend>,
) -> Result<KnowledgeBase> {
    let kb = load_kb(path, inverse_fraction)?;
    Ok(match backend {
        Some(b) => kb.with_backend(b),
        None => kb,
    })
}

/// Saves a KB to a path, dispatching on the extension as in [`load_kb`].
pub fn save_kb(kb: &KnowledgeBase, path: &Path) -> Result<()> {
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    if ext == "nt" || ext == "ntriples" {
        let f = std::fs::File::create(path)
            .map_err(|e| CliError(format!("cannot create {}: {e}", path.display())))?;
        remi_kb::ntriples::write_kb(kb, std::io::BufWriter::new(f))?;
        return Ok(());
    }
    Ok(remi_kb::binfmt::save(kb, path)?)
}

/// Formats the per-section store memory report shared by `stats` and
/// `describe`.
fn memory_report(kb: &KnowledgeBase) -> String {
    let mem = kb.store_memory();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "store memory ({} backend): {} bytes",
        kb.backend(),
        mem.total()
    );
    for (name, bytes) in &mem.components {
        let _ = writeln!(out, "  {bytes:>12}  {name}");
    }
    let _ = writeln!(
        out,
        "  {:>12}  dictionaries (est.)",
        kb.node_dict().heap_bytes() + kb.pred_dict().heap_bytes()
    );
    out
}

/// `remi gen`: generates a synthetic KB and writes it out.
pub fn cmd_gen(profile: &str, scale: f64, seed: u64, out: &Path) -> Result<String> {
    let profile = match profile {
        "dbpedia" => remi_synth::dbpedia_like(),
        "wikidata" => remi_synth::wikidata_like(),
        other => {
            return Err(CliError(format!(
                "unknown profile {other:?} (expected dbpedia or wikidata)"
            )))
        }
    };
    let synth = remi_synth::generate(&profile, scale, seed);
    save_kb(&synth.kb, out)?;
    Ok(format!(
        "wrote {} ({} base triples, {} with inverses, {} nodes, {} predicates)",
        out.display(),
        synth.kb.num_triples(),
        synth.kb.num_triples_with_inverses(),
        synth.kb.num_nodes(),
        synth.kb.num_preds()
    ))
}

/// `remi convert`: transcodes between N-Triples and `RKB2`.
pub fn cmd_convert(input: &Path, output: &Path) -> Result<String> {
    let kb = load_kb(input, 0.0)?;
    save_kb(&kb, output)?;
    Ok(format!(
        "converted {} → {} ({} triples)",
        input.display(),
        output.display(),
        kb.num_triples()
    ))
}

/// `remi stats`: prints KB statistics — sizes, per-section store memory,
/// the most frequent predicates and entities (the head of the prominence
/// ranking `Ĉ` builds on).
pub fn cmd_stats(path: &Path, backend: Option<Backend>) -> Result<String> {
    let kb = load_kb_as(path, 0.01, backend)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} base triples ({} with inverses), {} nodes, {} predicates",
        path.display(),
        kb.num_triples(),
        kb.num_triples_with_inverses(),
        kb.num_nodes(),
        kb.num_preds()
    );
    let _ = writeln!(out);
    out.push_str(&memory_report(&kb));

    let mut preds: Vec<PredId> = kb.pred_ids().filter(|&p| !kb.is_inverse(p)).collect();
    preds.sort_by_key(|&p| std::cmp::Reverse(kb.pred_frequency(p)));
    let _ = writeln!(out, "\ntop predicates by frequency:");
    for &p in preds.iter().take(10) {
        let _ = writeln!(out, "  {:>8}  {}", kb.pred_frequency(p), kb.pred_name(p));
    }

    let top = kb.top_frequent_entities(1.0);
    let _ = writeln!(out, "\ntop entities by frequency:");
    for &e in top.iter().take(10) {
        let _ = writeln!(out, "  {:>8}  {}", kb.node_frequency(e), kb.node_name(e));
    }
    Ok(out)
}

/// Options for `remi describe`.
#[derive(Debug, Clone)]
pub struct DescribeOpts {
    /// Language bias.
    pub language: LanguageBias,
    /// Worker threads. Defaults to `REMI_THREADS` when that is set (the
    /// knob shared by every parallel path), else 1 (sequential REMI);
    /// `--threads` overrides both.
    pub threads: usize,
    /// Timeout in milliseconds (0 = none).
    pub timeout_ms: u64,
    /// Use PageRank prominence instead of frequency.
    pub pagerank: bool,
    /// Allow up to this many exceptions (§6 extension).
    pub exceptions: usize,
    /// Storage backend override (`None` keeps the format-native one).
    pub backend: Option<Backend>,
}

impl Default for DescribeOpts {
    fn default() -> Self {
        DescribeOpts {
            language: LanguageBias::Remi,
            threads: remi_pool::env_threads().unwrap_or(1),
            timeout_ms: 0,
            pagerank: false,
            exceptions: 0,
            backend: None,
        }
    }
}

/// `remi describe`: mines the most intuitive RE for the given entity IRIs.
pub fn cmd_describe(path: &Path, iris: &[String], opts: &DescribeOpts) -> Result<String> {
    let kb = load_kb_as(path, 0.01, opts.backend)?;
    let targets: Vec<NodeId> = iris
        .iter()
        .map(|iri| {
            kb.node_id_by_iri(iri)
                .ok_or_else(|| CliError(format!("entity not found in KB: {iri}")))
        })
        .collect::<Result<_>>()?;

    let mut config = RemiConfig {
        enumeration: remi_core::EnumerationConfig {
            language: opts.language,
            ..Default::default()
        },
        threads: opts.threads,
        ..Default::default()
    };
    if opts.timeout_ms > 0 {
        config.timeout = Some(std::time::Duration::from_millis(opts.timeout_ms));
    }
    if opts.pagerank {
        config.prominence = Prominence::PageRank;
    }
    let remi = Remi::new(&kb, config);
    let outcome = remi.describe(&targets);

    let mut out = String::new();
    match (&outcome.best, outcome.status) {
        (Some((expr, cost)), _) => {
            let _ = writeln!(out, "expression:  {}", expr.display(&kb));
            let _ = writeln!(
                out,
                "verbalised:  {}",
                remi_core::verbalize::verbalize(&kb, expr)
            );
            let _ = writeln!(out, "complexity:  {cost}");
            let _ = writeln!(out, "status:      {}", outcome.status.as_str());
        }
        (None, SearchStatus::NoSolution) if opts.exceptions > 0 => {
            let (queue, _) = remi.ranked_common_expressions(&targets);
            let eval = Evaluator::new(&kb, 4096);
            match describe_with_exceptions(
                &kb,
                remi.model(),
                &eval,
                &queue,
                &targets,
                opts.exceptions,
            ) {
                Some(re) => {
                    let _ = writeln!(out, "no exact RE; best with exceptions:");
                    let _ = writeln!(out, "expression:  {}", re.expr.display(&kb));
                    let _ = writeln!(out, "verbalised:  {}", verbalize_with_exceptions(&kb, &re));
                    let _ = writeln!(out, "complexity:  {}", re.cost);
                }
                None => {
                    let _ = writeln!(out, "no RE exists even with {} exceptions", opts.exceptions);
                }
            }
        }
        (None, status) => {
            let _ = writeln!(out, "no referring expression found ({})", status.as_str());
        }
    }
    let _ = writeln!(
        out,
        "stats: queue {} | {} RE tests | cache {}/{} hits | {:.1?} queue + {:.1?} search",
        outcome.stats.queue_size,
        outcome.stats.re_tests,
        outcome.stats.cache_hits,
        outcome.stats.cache_hits + outcome.stats.cache_misses,
        outcome.stats.queue_time,
        outcome.stats.search_time,
    );
    let _ = writeln!(
        out,
        "memory: {} backend, {} store bytes",
        kb.backend(),
        kb.store_memory().total()
    );
    Ok(out)
}

/// `remi summarize`: prints a top-k summary of one entity.
pub fn cmd_summarize(
    path: &Path,
    iri: &str,
    k: usize,
    method: &str,
    backend: Option<Backend>,
) -> Result<String> {
    let kb = load_kb_as(path, 0.01, backend)?;
    let entity = kb
        .node_id_by_iri(iri)
        .ok_or_else(|| CliError(format!("entity not found in KB: {iri}")))?;
    let summary = match method {
        "remi" => {
            let model = remi_core::complexity::CostModel::new(
                &kb,
                Prominence::Frequency,
                remi_core::complexity::EntityCodeMode::PowerLaw,
            );
            remi_essum::remi_summary(&kb, &model, entity, k)
        }
        "faces" => remi_essum::faces_summary(&kb, entity, k),
        "linksum" => {
            let pr = remi_kb::pagerank::pagerank(&kb, remi_kb::pagerank::PageRankConfig::default());
            remi_essum::linksum_summary(&kb, &pr, entity, k)
        }
        other => {
            return Err(CliError(format!(
                "unknown method {other:?} (expected remi, faces, or linksum)"
            )))
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "summary of {} ({method}, top {k}):",
        kb.node_name(entity)
    );
    for (p, o) in summary {
        let _ = writeln!(out, "  {} → {}", kb.pred_name(p), kb.node_name(o));
    }
    Ok(out)
}

/// `remi query`: resolves a basic graph pattern (1–3 triple patterns,
/// slots starting with `?` are variables) against the KB and prints the
/// joined rows — the offline twin of the server's `POST /query`, sharing
/// the same `kb::query` engine, pattern syntax, and row order.
pub fn cmd_query(
    path: &Path,
    patterns: &[[String; 3]],
    limit: usize,
    backend: Option<Backend>,
) -> Result<String> {
    let kb = load_kb_as(path, 0.01, backend)?;
    let q = remi_kb::parse_patterns(&kb, patterns).map_err(|e| CliError(e.to_string()))?;
    let out = remi_kb::solve_bgp(kb.store(), &q.patterns, limit.max(1), None)
        .map_err(|e| CliError(e.to_string()))?;
    let mut msg = String::new();
    let names: Vec<String> = out
        .vars
        .iter()
        .filter_map(|&v| q.var_names.get(v as usize).map(|n| format!("?{n}")))
        .collect();
    if !names.is_empty() {
        let _ = writeln!(msg, "{}", names.join("\t"));
    }
    for row in &out.rows {
        let terms: Vec<&str> = out
            .vars
            .iter()
            .zip(row)
            .map(|(&v, &val)| {
                if q.pred_var.get(v as usize) == Some(&true) {
                    kb.pred_iri(PredId(val))
                } else {
                    kb.node_key(NodeId(val))
                }
            })
            .collect();
        let _ = writeln!(msg, "{}", terms.join("\t"));
    }
    let _ = writeln!(
        msg,
        "{} row(s){}",
        out.rows.len(),
        if out.truncated {
            " (truncated at --limit)"
        } else {
            ""
        }
    );
    Ok(msg)
}

/// `remi serve`: loads the KB once (converted to `backend` if given, the
/// one layout the server answers from) and boots the embedded HTTP
/// service. Returns the running server handle plus the banner to print;
/// the caller decides whether to block on
/// [`remi_serve::ServerHandle::wait`] (the binary does) or to drive and
/// shut it down programmatically (tests do).
pub fn cmd_serve(
    path: &Path,
    backend: Option<Backend>,
    config: remi_serve::ServeConfig,
) -> Result<(remi_serve::ServerHandle, String)> {
    let kb = load_kb_as(path, 0.01, backend)?;
    let served = kb.backend();
    let handle = remi_serve::serve(kb, config.clone())
        .map_err(|e| CliError(format!("cannot serve on {}: {e}", config.addr)))?;
    let banner = format!(
        "serving {} on http://{} ({} backend, cache {} entries, max-inflight {})\n\
         routes: GET /v1/healthz | GET /v1/stats | GET /v1/metrics | \
         GET /v1/debug/events | GET /v1/describe/{{entity}} | POST /v1/describe | \
         GET /v1/summarize/{{entity}} | POST /v1/ingest | POST /v1/query",
        path.display(),
        handle.addr(),
        served.name(),
        config.cache_entries,
        config.max_inflight,
    );
    Ok((handle, banner))
}

/// `remi ingest`: appends one or more N-Triples delta files to a KB
/// offline — the batch path through the same [`remi_kb::LiveKb`] overlay
/// the server uses — then compacts and writes the folded result.
pub fn cmd_ingest(
    kb_path: &Path,
    deltas: &[String],
    out: &Path,
    backend: Option<Backend>,
) -> Result<String> {
    let kb = load_kb_as(kb_path, 0.01, backend)?;
    let live = remi_kb::LiveKb::new(kb);
    let mut out_msg = String::new();
    let mut appended = 0usize;
    let mut duplicates = 0usize;
    for delta in deltas {
        let text = std::fs::read_to_string(delta)
            .map_err(|e| CliError(format!("cannot read {delta}: {e}")))?;
        let outcome = live
            .append_ntriples(&text)
            .map_err(|e| CliError(format!("{delta}: {e}")))?;
        appended += outcome.appended;
        duplicates += outcome.duplicates;
        let _ = writeln!(
            out_msg,
            "{delta}: +{} triples ({} duplicates, {} new nodes, {} new predicates) → epoch {}",
            outcome.appended,
            outcome.duplicates,
            outcome.new_nodes,
            outcome.new_preds,
            outcome.epoch,
        );
    }
    let compacted = live.compact();
    let snapshot = live.snapshot();
    save_kb(&snapshot.kb, out)?;
    let _ = writeln!(
        out_msg,
        "compacted {} delta triples in {:.1?}; wrote {} ({} base triples, {} with inverses)",
        compacted.folded,
        compacted.duration,
        out.display(),
        snapshot.kb.num_triples(),
        snapshot.kb.num_triples_with_inverses(),
    );
    let _ = writeln!(
        out_msg,
        "total: {appended} appended, {duplicates} duplicates across {} file(s)",
        deltas.len()
    );
    Ok(out_msg)
}

/// Usage text.
pub const USAGE: &str = "\
remi — mine intuitive referring expressions on RDF knowledge bases

USAGE:
  remi gen --profile dbpedia|wikidata [--scale F] [--seed N] -o <kb.{rkb,nt}>
  remi convert <in.{rkb,nt}> <out.{rkb,nt}>
  remi stats <kb> [--backend csr|succinct]
  remi describe <kb> <iri>... [--standard] [--threads N] [--timeout-ms N]
                              [--pagerank] [--exceptions N]
                              [--backend csr|succinct]
  remi summarize <kb> <iri> [--k N] [--method remi|faces|linksum]
                            [--backend csr|succinct]
  remi ingest <kb> <delta.nt>... -o <out.{rkb,nt}>
                  [--backend csr|succinct]
  remi query <kb> <s> <p> <o> [<s> <p> <o> ...] [--limit N]
                  [--backend csr|succinct]
  remi serve <kb> [--addr HOST:PORT] [--backend csr|succinct]
                  [--cache-entries N] [--max-inflight N] [--threads N]
                  [--compact-threshold N] [--slow-request-ms N]
                  [--event-capacity N]

QUERYING:
  remi query evaluates 1-3 triple patterns joined on shared variables.
  A slot starting with '?' is a variable (e.g. remi query kb.rkb
  '?city' p:cityIn e:France '?city' p:capitalOf '?country'); everything
  else is an IRI. Rows print tab-separated under a ?var header, in a
  deterministic order that is identical across backends.

SERVING:
  remi serve keeps the KB resident and answers JSON over HTTP/1.1
  (every path lives under /v1/...): GET /v1/healthz, GET /v1/stats,
  GET /v1/metrics (Prometheus text exposition),
  GET /v1/describe/{entity}?k=&threads=,
  POST /v1/describe {\"entities\": [...]},
  GET /v1/summarize/{entity}?k=&method=,
  POST /v1/ingest (N-Triples body), POST /v1/query {\"patterns\": [{\"s\": ...,
  \"p\": ..., \"o\": ...}], \"limit\": N}. Responses are cached (LRU,
  --cache-entries; 0 disables) and work beyond --max-inflight is shed
  with 503. Ingested batches publish a new epoch atomically; once the
  delta overlay exceeds --compact-threshold triples it is folded into a
  fresh base in the background.

OBSERVABILITY:
  GET /v1/metrics exposes counters, gauges, and log2-bucketed latency
  histograms for every route, pool scheduling, and kb publish/compaction
  (every count lives there; /v1/stats reports only KB, epoch, backend and
  config facts); every route's per-status latency families are registered
  at boot, so scrapes before traffic already expose them. Appending
  ?trace=1 to any JSON endpoint embeds that request's per-phase timings
  in the response body; ?explain=1 on POST /v1/query embeds the planner's
  plan trace (pattern order, estimated vs actual cardinalities, merge
  vs nested join path) — both applied after the cache, so cached bodies
  stay clean. A bounded in-memory flight recorder (--event-capacity N
  events, default 1024) collects structured events from the planner
  (query_plan, query_pattern), KB lifecycle (kb_publish, kb_compact),
  pool anomalies (park/revive storms, help-drain stalls), and 500s;
  GET /v1/debug/events?channel=&severity=&since=&limit= reads it back as
  JSON. --slow-request-ms N logs any request slower than N ms to stderr
  with its phase breakdown plus the recorder tail (0 logs every
  request); every 500 dumps the same tail.

INGESTION:
  remi ingest appends N-Triples delta files to a KB through the same
  delta-overlay path the server uses (duplicates dropped, inverse
  predicates mirrored), compacts, and writes the folded KB to -o.
  Publishing an epoch costs O(batch), not O(KB): the dictionaries are
  segmented and snapshots share the sealed segments, so per-batch
  ingest latency stays flat as the KB grows (only the periodic
  background compaction scales with total size).

STORAGE:
  .nt/.ntriples files are N-Triples; any other path is an RKB2 file of
  succinct bitmap triples, which loads zero-copy into the succinct
  backend. --backend converts after loading, so any command runs on
  either layout.

ENVIRONMENT:
  REMI_THREADS  sizes the shared worker pool and is the default for
                --threads (all parallel paths share one pool per process)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "remi_cli_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn gen_stats_describe_roundtrip() {
        let dir = tmpdir();
        let kb_path = dir.join("test.rkb");
        let msg = cmd_gen("dbpedia", 0.2, 5, &kb_path).unwrap();
        assert!(msg.contains("base triples"));

        let stats = cmd_stats(&kb_path, None).unwrap();
        assert!(stats.contains("top predicates"));

        let out = cmd_describe(
            &kb_path,
            &["e:Settlement_0".to_string()],
            &DescribeOpts::default(),
        )
        .unwrap();
        assert!(
            out.contains("expression:") || out.contains("no referring expression"),
            "{out}"
        );
        // Without a timeout an answer is final, and says so.
        assert!(
            !out.contains("expression:") || out.contains("status:      completed"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_between_formats() {
        let dir = tmpdir();
        let bin = dir.join("kb.rkb");
        let nt = dir.join("kb.nt");
        cmd_gen("wikidata", 0.1, 3, &bin).unwrap();
        let msg = cmd_convert(&bin, &nt).unwrap();
        assert!(msg.contains("converted"));
        // And back.
        let bin2 = dir.join("kb2.rkb");
        cmd_convert(&nt, &bin2).unwrap();
        let kb1 = load_kb(&bin, 0.0).unwrap();
        let kb2 = load_kb(&bin2, 0.0).unwrap();
        assert_eq!(kb1.num_triples(), kb2.num_triples());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_entities_and_profiles_error() {
        let dir = tmpdir();
        let kb_path = dir.join("kb.rkb");
        cmd_gen("dbpedia", 0.1, 1, &kb_path).unwrap();
        assert!(cmd_gen("freebase", 1.0, 1, &kb_path).is_err());
        let err = cmd_describe(
            &kb_path,
            &["e:DoesNotExist".to_string()],
            &DescribeOpts::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not found"));
        assert!(cmd_summarize(&kb_path, "e:Person_0", 5, "magic", None).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summarize_all_methods() {
        let dir = tmpdir();
        let kb_path = dir.join("kb.rkb");
        cmd_gen("dbpedia", 0.2, 9, &kb_path).unwrap();
        for method in ["remi", "faces", "linksum"] {
            let out = cmd_summarize(&kb_path, "e:Person_0", 5, method, None).unwrap();
            assert!(out.contains("summary of"), "{method}: {out}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_appends_compacts_and_writes() {
        let dir = tmpdir();
        let kb_path = dir.join("base.nt");
        std::fs::write(
            &kb_path,
            "<e:Paris> <p:cityIn> <e:France> .\n<e:Lyon> <p:cityIn> <e:France> .\n",
        )
        .unwrap();
        let delta_path = dir.join("delta.nt");
        std::fs::write(
            &delta_path,
            "<e:Nice> <p:cityIn> <e:France> .\n<e:Paris> <p:cityIn> <e:France> .\n",
        )
        .unwrap();
        let out_path = dir.join("merged.rkb");
        let msg = cmd_ingest(
            &kb_path,
            &[delta_path.to_str().unwrap().to_string()],
            &out_path,
            None,
        )
        .unwrap();
        // +2: the appended base fact plus its mirror into the
        // materialised cityIn⁻¹ predicate (the base loads with the §4
        // top-1% inverse preprocessing).
        assert!(msg.contains("+2 triples"), "{msg}");
        assert!(msg.contains("1 duplicates"), "{msg}");
        assert!(msg.contains("compacted 2 delta"), "{msg}");

        let merged = load_kb(&out_path, 0.0).unwrap();
        assert_eq!(merged.num_triples(), 3);
        let p = merged.pred_id("p:cityIn").unwrap();
        let france = merged.node_id_by_iri("e:France").unwrap();
        assert_eq!(merged.subjects(p, france).len(), 3);

        // A malformed delta is rejected with a file-scoped error.
        let bad = dir.join("bad.nt");
        std::fs::write(&bad, "not ntriples\n").unwrap();
        let err = cmd_ingest(
            &kb_path,
            &[bad.to_str().unwrap().to_string()],
            &out_path,
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("bad.nt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_joins_patterns_and_honors_limit() {
        let dir = tmpdir();
        let kb_path = dir.join("kb.nt");
        std::fs::write(
            &kb_path,
            "<e:Paris> <p:cityIn> <e:France> .\n\
             <e:Lyon> <p:cityIn> <e:France> .\n\
             <e:Paris> <p:capitalOf> <e:France> .\n",
        )
        .unwrap();
        let pat = |s: &str, p: &str, o: &str| [s.to_string(), p.to_string(), o.to_string()];

        let out = cmd_query(&kb_path, &[pat("?city", "p:cityIn", "e:France")], 100, None).unwrap();
        assert!(out.starts_with("?city\n"), "{out}");
        assert!(out.contains("e:Paris") && out.contains("e:Lyon"), "{out}");
        assert!(out.ends_with("2 row(s)\n"), "{out}");

        // Two patterns joined on ?city: only the capital survives.
        let joined = cmd_query(
            &kb_path,
            &[
                pat("?city", "p:cityIn", "e:France"),
                pat("?city", "p:capitalOf", "?country"),
            ],
            100,
            None,
        )
        .unwrap();
        assert!(joined.contains("e:Paris\te:France"), "{joined}");
        assert!(joined.ends_with("1 row(s)\n"), "{joined}");

        let truncated =
            cmd_query(&kb_path, &[pat("?city", "p:cityIn", "e:France")], 1, None).unwrap();
        assert!(
            truncated.ends_with("1 row(s) (truncated at --limit)\n"),
            "{truncated}"
        );

        // Pattern errors surface as runtime CliErrors, not panics.
        let err = cmd_query(&kb_path, &[pat("?", "p:cityIn", "e:France")], 10, None).unwrap_err();
        assert!(err.to_string().contains("must not be empty"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn describe_with_exceptions_flag() {
        // Build a KB where the target has no exact RE.
        let dir = tmpdir();
        let nt_path = dir.join("twins.nt");
        std::fs::write(
            &nt_path,
            "<e:twin1> <p:in> <e:Town> .\n<e:twin2> <p:in> <e:Town> .\n<e:x> <p:in> <e:City> .\n",
        )
        .unwrap();
        let opts = DescribeOpts {
            exceptions: 1,
            ..Default::default()
        };
        let out = cmd_describe(&nt_path, &["e:twin1".to_string()], &opts).unwrap();
        assert!(out.contains("except"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
