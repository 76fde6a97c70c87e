//! `remi-tables` — regenerates every table and figure of the paper on the
//! synthetic evaluation KBs and prints paper-vs-measured values.
//!
//! ```text
//! remi-tables [--table all|2|3|4|fit|space|map|perceived|ablation]
//!             [--scale F] [--seed N] [--sets N] [--timeout-ms N] [--threads N]
//! ```

#![forbid(unsafe_code)]

use std::time::Duration;

use remi_core::LanguageBias;
use remi_eval::experiments::{
    self, ablation, fit, map_study, perceived, space, table2, table3, table4,
};

#[derive(Debug, Clone)]
struct Args {
    table: String,
    scale: f64,
    seed: u64,
    sets: usize,
    timeout_ms: u64,
    threads: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            table: "all".into(),
            scale: experiments::DEFAULT_DBPEDIA_SCALE,
            seed: 42,
            sets: 100,
            timeout_ms: 500,
            // REMI_THREADS (the knob shared by every parallel path) wins
            // over the paper's 8-thread default; --threads beats both.
            threads: remi_pool::env_threads().unwrap_or(8),
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut take = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--table" => args.table = take("--table"),
            "--scale" => args.scale = take("--scale").parse().expect("--scale takes a float"),
            "--seed" => args.seed = take("--seed").parse().expect("--seed takes an integer"),
            "--sets" => args.sets = take("--sets").parse().expect("--sets takes an integer"),
            "--timeout-ms" => {
                args.timeout_ms = take("--timeout-ms")
                    .parse()
                    .expect("--timeout-ms takes an integer")
            }
            "--threads" => {
                args.threads = take("--threads")
                    .parse()
                    .expect("--threads takes an integer")
            }
            "--help" | "-h" => {
                println!(
                    "remi-tables [--table all|2|3|4|fit|space|map|perceived|ablation] \
                     [--scale F] [--seed N] [--sets N] [--timeout-ms N] [--threads N]\n\
                     (REMI_THREADS sizes the shared pool and is the --threads default)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

const DBPEDIA_CLASSES: [&str; 5] = ["Person", "Settlement", "Album", "Film", "Organization"];
const WIKIDATA_CLASSES: [&str; 4] = ["Company", "City", "Film", "Human"];

fn main() {
    let args = parse_args();
    let want = |t: &str| args.table == "all" || args.table == t;

    eprintln!(
        "# generating KBs (dbpedia & wikidata profiles, scale {}, seed {})…",
        args.scale, args.seed
    );
    let db = experiments::dbpedia_kb(args.scale, args.seed);
    let wd = experiments::wikidata_kb(args.scale, args.seed);
    eprintln!(
        "# dbpedia-like:  {} facts ({} with inverses), {} predicates",
        db.kb.num_triples(),
        db.kb.num_triples_with_inverses(),
        db.kb.num_preds()
    );
    eprintln!(
        "# wikidata-like: {} facts ({} with inverses), {} predicates",
        wd.kb.num_triples(),
        wd.kb.num_triples_with_inverses(),
        wd.kb.num_preds()
    );
    println!();

    if want("2") {
        let r = table2::run(&db, &DBPEDIA_CLASSES, 24, 2, args.seed);
        println!("{r}");
    }
    if want("3") {
        let r = table3::run(
            &db,
            &["Person", "Settlement", "Film", "Organization"],
            80,
            args.seed,
        );
        println!("{r}");
    }
    if want("4") {
        let cfg = table4::Table4Config {
            n_sets: args.sets,
            timeout: Duration::from_millis(args.timeout_ms),
            threads: args.threads,
            seed: args.seed,
            include_amie: true,
        };
        for (synth, classes) in [(&db, &DBPEDIA_CLASSES[..]), (&wd, &WIKIDATA_CLASSES[..])] {
            for language in [LanguageBias::Standard, LanguageBias::Remi] {
                let r = table4::run_block(synth, classes, language, &cfg);
                println!("{r}");
            }
        }
    }
    if want("fit") {
        println!("{}", fit::run(&db, 10));
        println!("{}", fit::run(&wd, 10));
    }
    if want("space") {
        let r = space::run(
            &db,
            &["Person", "Settlement", "Organization"],
            20,
            500_000,
            args.seed,
        );
        println!("{r}");
    }
    if want("map") {
        let r = map_study::run(&db, &DBPEDIA_CLASSES, 20, 3, args.seed);
        println!("{r}");
    }
    if want("perceived") {
        let r = perceived::run(&wd, &WIKIDATA_CLASSES, 35, 3, args.seed);
        println!("{r}");
    }
    if want("ablation") {
        let r = ablation::run(&db, &DBPEDIA_CLASSES, 40, args.seed);
        println!("{r}");
    }
}
