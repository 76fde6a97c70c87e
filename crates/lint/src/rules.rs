//! The rule catalog and the per-file analysis engine.
//!
//! Each rule encodes one structural invariant of this workspace that an
//! earlier PR's review established in prose (see ROADMAP.md §Invariants).
//! Rules operate on the token stream from [`crate::lexer`], so string
//! literals and comments can never produce false positives, and carry:
//!
//! * a stable kebab-case **rule id** (`unsafe-outside-pool`, …),
//! * a **path scope** (which files the invariant governs),
//! * a **context scope** (`#[cfg(test)]` regions and `tests/`/`benches/`
//!   trees are exempt where the invariant only governs production code).
//!
//! Violations can be suppressed with a *justified* allow comment:
//!
//! ```text
//! // lint:allow(rule-id): one line explaining why this site is sound
//! ```
//!
//! The justification is mandatory — an allow without one is itself a
//! violation (`malformed-allow`), so suppressions stay auditable. An
//! allow covers its own line and the next line.
//!
//! Fixture files (see `fixtures/`) additionally use two directives the
//! engine parses but ignores outside self-test mode:
//!
//! ```text
//! // lint:fixture-path crates/serve/src/http.rs   (pretend path)
//! // lint:expect(rule-id)                         (a seeded violation)
//! ```

use crate::lexer::{lex, line_of, line_starts, Token, TokenKind};

/// One reported invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id from [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A `lint:expect(rule)` marker parsed from a fixture file.
#[derive(Debug, Clone)]
pub struct Expectation {
    /// The rule the marked line must trigger.
    pub rule: String,
    /// Line the marker sits on; the violation may be here or one below.
    pub line: u32,
}

/// Catalog entry: id plus the invariant it encodes.
pub struct RuleInfo {
    /// Stable kebab-case identifier, used in reports and allow comments.
    pub id: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
}

/// The rule catalog. ROADMAP.md §Invariants documents the motivating
/// review finding for each entry; keep the two lists in sync.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "unsafe-outside-pool",
        summary: "`unsafe` appears only in crates/pool (the one scoped-lifetime transmute)",
    },
    RuleInfo {
        id: "raw-thread-primitive",
        summary: "no std::thread::{spawn,scope,Builder} or std::sync::{Mutex,Condvar} outside \
                  crates/pool; parallel paths use remi_pool, state locks use the parking_lot shim",
    },
    RuleInfo {
        id: "panic-in-serve",
        summary: "no unwrap/expect/panic!/indexing in remi-serve request-handling modules \
                  (a panic kills a worker serving live traffic)",
    },
    RuleInfo {
        id: "unchecked-binfmt-alloc",
        summary: "file-derived element counts in kb::binfmt readers flow through checked_count \
                  before reaching with_capacity",
    },
    RuleInfo {
        id: "wallclock-in-mining",
        summary: "no Instant::now/SystemTime in core/amie mining logic (results must be \
                  deterministic) or in library files importing remi_obs (time flows through \
                  the injected Clock); justified deadline checks carry allows",
    },
    RuleInfo {
        id: "print-in-library",
        summary: "no println!/eprintln!/dbg! in library crates (bins, examples and benches \
                  own the terminal)",
    },
    RuleInfo {
        id: "delta-lock-order",
        summary: "in kb::delta the compaction gate is never acquired after the writer lock \
                  within one function (gate -> writer, never inverted)",
    },
    RuleInfo {
        id: "hardcoded-test-port",
        summary: "test code binds ephemeral ports (`:0`), never a fixed port number",
    },
    RuleInfo {
        id: "malformed-allow",
        summary: "every lint:allow names known rules and carries a non-empty justification",
    },
    RuleInfo {
        id: "dynamic-event-name",
        summary:
            "flight-recorder event names are static string literals (`EventSpec { name: \"…\" }`) \
                  — the recorder interns specs by name at boot, and a runtime-built name would \
                  allocate on the emit hot path",
    },
];

/// True when `id` names a catalog rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Everything `check_file` learned about one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations after suppression.
    pub violations: Vec<Violation>,
    /// Violations silenced by a justified allow (counted for reporting).
    pub suppressed: usize,
    /// Fixture expectations (`lint:expect`), for self-test mode.
    pub expects: Vec<Expectation>,
    /// Declared pretend path (`lint:fixture-path`), for self-test mode.
    pub fixture_path: Option<String>,
}

// ---------------------------------------------------------------------------
// Per-file context

struct Allow {
    rules: Vec<String>,
    line: u32,
    justified: bool,
}

struct FileCtx<'a> {
    path: String,
    src: &'a str,
    /// Non-comment tokens, in source order.
    code: Vec<Token>,
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[test]` / `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    allows: Vec<Allow>,
}

impl FileCtx<'_> {
    fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text(self.src))
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.code.get(i).map(|t| t.kind)
    }

    fn line(&self, i: usize) -> u32 {
        let start = self.code.get(i).map_or(0, |t| t.start);
        line_of(&self.line_starts, start)
    }

    fn in_test_code(&self, i: usize) -> bool {
        let pos = self.code.get(i).map_or(0, |t| t.start);
        self.test_ranges.iter().any(|&(a, b)| pos >= a && pos < b)
    }

    /// True when code tokens starting at `i` spell out `pat` (each element
    /// one token text; `::` must be passed as two `:` entries).
    fn matches(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, want)| self.text(i + k) == *want)
    }

    /// Index of the matching close delimiter for the open one at `i`.
    fn matching_close(&self, i: usize, open: &str, close: &str) -> Option<usize> {
        let mut depth = 0usize;
        for j in i..self.code.len() {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }
}

// Path scoping ---------------------------------------------------------------

struct PathInfo {
    norm: String,
    crate_name: Option<String>,
}

impl PathInfo {
    fn new(path: &str) -> PathInfo {
        let norm = path.replace('\\', "/");
        let norm = norm.trim_start_matches("./").to_string();
        let crate_name = norm
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        PathInfo { norm, crate_name }
    }

    fn is_crate(&self, name: &str) -> bool {
        self.crate_name.as_deref() == Some(name)
    }

    fn component(&self, name: &str) -> bool {
        self.norm.split('/').any(|c| c == name)
    }

    /// Whole-file test context: integration tests and benches.
    fn in_test_tree(&self) -> bool {
        self.component("tests") || self.component("benches")
    }

    /// Binary / example targets — they own the terminal and may spawn
    /// client-side OS threads.
    fn is_bin_or_example(&self) -> bool {
        self.component("bin") || self.component("examples") || self.norm.ends_with("main.rs")
    }
}

// ---------------------------------------------------------------------------
// Engine entry point

/// Lexes and checks one file. `path` must be workspace-relative (it
/// drives the per-rule path scoping).
pub fn check_file(path: &str, src: &str) -> FileReport {
    let info = PathInfo::new(path);
    let tokens = lex(src);
    let line_starts = line_starts(src);

    let mut report = FileReport::default();
    let mut allows: Vec<Allow> = Vec::new();
    let mut raw: Vec<Violation> = Vec::new();

    // Pass 1: comments — directives, allows, expectations.
    for t in tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
    {
        // Directives live in plain comments only; doc comments may quote
        // the grammar (as this crate's own docs do) without tripping it.
        let text = t.text(src);
        if ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| text.starts_with(p))
        {
            continue;
        }
        let line = line_of(&line_starts, t.start);
        scan_comment(t.text(src), line, &info, &mut allows, &mut report, &mut raw);
    }

    let code: Vec<Token> = tokens
        .iter()
        .copied()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut ctx = FileCtx {
        path: info.norm.clone(),
        src,
        code,
        line_starts,
        test_ranges: Vec::new(),
        allows,
    };
    ctx.test_ranges = find_test_ranges(&ctx);

    // Pass 2: the catalog.
    rule_unsafe_outside_pool(&ctx, &info, &mut raw);
    rule_raw_thread_primitive(&ctx, &info, &mut raw);
    rule_panic_in_serve(&ctx, &info, &mut raw);
    rule_unchecked_binfmt_alloc(&ctx, &info, &mut raw);
    rule_wallclock_in_mining(&ctx, &info, &mut raw);
    rule_print_in_library(&ctx, &info, &mut raw);
    rule_delta_lock_order(&ctx, &info, &mut raw);
    rule_hardcoded_test_port(&ctx, &info, &mut raw);
    rule_dynamic_event_name(&ctx, &info, &mut raw);

    // Pass 3: suppression. An allow covers its own line and the next.
    for v in raw {
        let allowed = ctx.allows.iter().any(|a| {
            a.justified
                && (a.line == v.line || a.line + 1 == v.line)
                && a.rules.iter().any(|r| r == v.rule)
        });
        if allowed {
            report.suppressed += 1;
        } else {
            report.violations.push(v);
        }
    }
    report
        .violations
        .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    report
}

// Comment directives ---------------------------------------------------------

fn scan_comment(
    text: &str,
    line: u32,
    info: &PathInfo,
    allows: &mut Vec<Allow>,
    report: &mut FileReport,
    raw: &mut Vec<Violation>,
) {
    if let Some(rest) = find_after(text, "lint:fixture-path") {
        let declared = rest.split_whitespace().next().unwrap_or("");
        if !declared.is_empty() {
            report.fixture_path = Some(declared.to_string());
        }
    }
    if let Some(rest) = find_after(text, "lint:expect") {
        if let Some((rules, _)) = parse_rule_list(rest) {
            for rule in rules {
                report.expects.push(Expectation { rule, line });
            }
        }
    }
    if let Some(rest) = find_after(text, "lint:allow") {
        match parse_rule_list(rest) {
            Some((rules, tail)) => {
                let justification = tail
                    .strip_prefix(':')
                    .map(str::trim)
                    .unwrap_or("")
                    .trim_end_matches("*/")
                    .trim();
                let unknown: Vec<&String> = rules.iter().filter(|r| !known_rule(r)).collect();
                let justified = !justification.is_empty() && unknown.is_empty();
                if justification.is_empty() {
                    raw.push(Violation {
                        rule: "malformed-allow",
                        path: info.norm.clone(),
                        line,
                        message: "lint:allow without a justification (`lint:allow(rule): why`)"
                            .to_string(),
                    });
                }
                if let Some(u) = unknown.first() {
                    raw.push(Violation {
                        rule: "malformed-allow",
                        path: info.norm.clone(),
                        line,
                        message: format!("lint:allow names unknown rule `{u}`"),
                    });
                }
                allows.push(Allow {
                    rules,
                    line,
                    justified,
                });
            }
            None => raw.push(Violation {
                rule: "malformed-allow",
                path: info.norm.clone(),
                line,
                message: "unparseable lint:allow (expected `lint:allow(rule-a, rule-b): why`)"
                    .to_string(),
            }),
        }
    }
}

fn find_after<'a>(haystack: &'a str, needle: &str) -> Option<&'a str> {
    haystack.find(needle).map(|i| &haystack[i + needle.len()..])
}

/// Parses `(rule-a, rule-b)` and returns the ids plus the remaining text.
fn parse_rule_list(rest: &str) -> Option<(Vec<String>, &str)> {
    let rest = rest.trim_start();
    let inner = rest.strip_prefix('(')?;
    let close = inner.find(')')?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if rules.is_empty()
        || rules.iter().any(|r| {
            !r.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        })
    {
        return None;
    }
    Some((rules, &inner[close + 1..]))
}

// Test-region tracking -------------------------------------------------------

/// Byte ranges of items annotated `#[test]` / `#[cfg(test)]` (including
/// `#[cfg(all(test, …))]`; `not(test)` does not count).
fn find_test_ranges(ctx: &FileCtx<'_>) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < ctx.code.len() {
        if ctx.text(i) == "#" && ctx.text(i + 1) == "[" {
            if let Some(close) = ctx.matching_close(i + 1, "[", "]") {
                let idents: Vec<&str> = (i + 2..close)
                    .filter(|&k| ctx.kind(k) == Some(TokenKind::Ident))
                    .map(|k| ctx.text(k))
                    .collect();
                let is_test_attr = idents.contains(&"test") && !idents.contains(&"not");
                if is_test_attr {
                    if let Some(range) = annotated_item_range(ctx, i, close + 1) {
                        ranges.push(range);
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Byte range from the attribute at `attr_start` through the end of the
/// item that follows (its closing `}` or terminating `;`).
fn annotated_item_range(
    ctx: &FileCtx<'_>,
    attr_start: usize,
    mut i: usize,
) -> Option<(usize, usize)> {
    // Skip further attributes on the same item.
    while ctx.text(i) == "#" && ctx.text(i + 1) == "[" {
        i = ctx.matching_close(i + 1, "[", "]")? + 1;
    }
    let mut paren = 0i64;
    for j in i..ctx.code.len() {
        match ctx.text(j) {
            "(" => paren += 1,
            ")" => paren -= 1,
            "{" if paren == 0 => {
                let close = ctx.matching_close(j, "{", "}")?;
                return Some((ctx.code.get(attr_start)?.start, ctx.code.get(close)?.end));
            }
            ";" if paren == 0 => {
                return Some((ctx.code.get(attr_start)?.start, ctx.code.get(j)?.end));
            }
            _ => {}
        }
    }
    None
}

// Function-body tracking (for the per-function rules) ------------------------

struct FnBody {
    name_idx: usize,
    body_start: usize,
    body_end: usize,
}

fn find_fn_bodies(ctx: &FileCtx<'_>) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < ctx.code.len() {
        if ctx.text(i) == "fn" && ctx.kind(i + 1) == Some(TokenKind::Ident) {
            let mut paren = 0i64;
            let mut j = i + 1;
            let mut body = None;
            while j < ctx.code.len() {
                match ctx.text(j) {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "{" if paren == 0 => {
                        body = ctx.matching_close(j, "{", "}").map(|end| (j, end));
                        break;
                    }
                    // A signature-only `fn` (trait method): no body.
                    ";" if paren == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some((start, end)) = body {
                out.push(FnBody {
                    name_idx: i + 1,
                    body_start: start,
                    body_end: end,
                });
                i += 2; // allow nested fns to be found too
                continue;
            }
        }
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------------
// Rules

fn push(ctx: &FileCtx<'_>, raw: &mut Vec<Violation>, rule: &'static str, i: usize, msg: String) {
    raw.push(Violation {
        rule,
        path: ctx.path.clone(),
        line: ctx.line(i),
        message: msg,
    });
}

/// Rule 1: the only `unsafe` in the workspace lives in crates/pool.
fn rule_unsafe_outside_pool(ctx: &FileCtx<'_>, info: &PathInfo, raw: &mut Vec<Violation>) {
    if info.is_crate("pool") {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.kind(i) == Some(TokenKind::Ident) && ctx.text(i) == "unsafe" {
            push(
                ctx,
                raw,
                "unsafe-outside-pool",
                i,
                "`unsafe` outside crates/pool — the workspace confines unsafe to the pool's \
                 scoped-lifetime transmute"
                    .to_string(),
            );
        }
    }
}

/// Rule 2: raw thread/synchronisation primitives stay inside the pool.
fn rule_raw_thread_primitive(ctx: &FileCtx<'_>, info: &PathInfo, raw: &mut Vec<Violation>) {
    if info.is_crate("pool") || info.in_test_tree() {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        for op in ["spawn", "scope", "Builder"] {
            if ctx.matches(i, &["thread", ":", ":", op]) {
                push(
                    ctx,
                    raw,
                    "raw-thread-primitive",
                    i,
                    format!(
                        "`thread::{op}` outside crates/pool — parallel paths must run on \
                         remi_pool::global()"
                    ),
                );
            }
        }
        if ctx.matches(i, &["std", ":", ":", "sync", ":", ":"]) {
            let after = i + 6;
            let mut offenders: Vec<&str> = Vec::new();
            if ctx.text(after) == "{" {
                if let Some(close) = ctx.matching_close(after, "{", "}") {
                    for k in after + 1..close {
                        let t = ctx.text(k);
                        if t == "Mutex" || t == "Condvar" {
                            offenders.push(if t == "Mutex" { "Mutex" } else { "Condvar" });
                        }
                    }
                }
            } else if ctx.text(after) == "Mutex" || ctx.text(after) == "Condvar" {
                offenders.push(if ctx.text(after) == "Mutex" {
                    "Mutex"
                } else {
                    "Condvar"
                });
            }
            for name in offenders {
                push(
                    ctx,
                    raw,
                    "raw-thread-primitive",
                    i,
                    format!(
                        "`std::sync::{name}` outside crates/pool — use the vendored \
                         parking_lot shim (poison-free) for state locks"
                    ),
                );
            }
        }
        if ctx.matches(i, &["Condvar", ":", ":", "new"]) {
            push(
                ctx,
                raw,
                "raw-thread-primitive",
                i,
                "`Condvar` construction outside crates/pool".to_string(),
            );
        }
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Rule 3: request-handling modules in remi-serve must not panic.
fn rule_panic_in_serve(ctx: &FileCtx<'_>, _info: &PathInfo, raw: &mut Vec<Violation>) {
    const REQUEST_MODULES: &[&str] = &[
        "crates/serve/src/lib.rs",
        "crates/serve/src/http.rs",
        "crates/serve/src/json.rs",
        "crates/serve/src/cache.rs",
        "crates/serve/src/router.rs",
        "crates/serve/src/params.rs",
        "crates/serve/src/query.rs",
        "crates/serve/src/describe.rs",
        "crates/serve/src/events.rs",
    ];
    if !REQUEST_MODULES.contains(&ctx.path.as_str()) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        for m in ["unwrap", "expect"] {
            if ctx.matches(i, &[".", m]) && ctx.text(i + 2) == "(" {
                push(
                    ctx,
                    raw,
                    "panic-in-serve",
                    i,
                    format!("`.{m}()` in a request-handling module — a panic kills the worker"),
                );
            }
        }
        for m in ["panic", "unreachable", "todo", "unimplemented"] {
            if ctx.matches(i, &[m, "!"]) {
                push(
                    ctx,
                    raw,
                    "panic-in-serve",
                    i,
                    format!("`{m}!` in a request-handling module — a panic kills the worker"),
                );
            }
        }
        // Indexing: `expr[...]` — an out-of-bounds index panics; use
        // `.get(..)` and map the miss to an HTTP error instead.
        if ctx.text(i) == "[" && i > 0 {
            let prev = ctx.text(i - 1);
            let prev_kind = ctx.kind(i - 1);
            let indexee = prev_kind == Some(TokenKind::Ident) && !KEYWORDS.contains(&prev)
                || prev == ")"
                || prev == "]";
            if indexee {
                push(
                    ctx,
                    raw,
                    "panic-in-serve",
                    i,
                    format!(
                        "indexing `{prev}[..]` in a request-handling module — use .get() and \
                         map the miss to an HTTP error"
                    ),
                );
            }
        }
    }
}

/// Rule 4: binfmt readers validate file-derived counts before allocating.
fn rule_unchecked_binfmt_alloc(ctx: &FileCtx<'_>, _info: &PathInfo, raw: &mut Vec<Violation>) {
    if ctx.path != "crates/kb/src/binfmt.rs" {
        return;
    }
    const BENIGN: &[&str] = &[
        "as", "usize", "u64", "u32", "u16", "u8", "self", "min", "max",
    ];
    for body in find_fn_bodies(ctx) {
        let name = ctx.text(body.name_idx);
        if !(name.starts_with("read_") || name.starts_with("load")) {
            continue;
        }
        // Bindings produced by the checked_count validator.
        let mut checked: Vec<&str> = Vec::new();
        for i in body.body_start..body.body_end {
            if ctx.text(i) == "let"
                && ctx.kind(i + 1) == Some(TokenKind::Ident)
                && ctx.text(i + 2) == "="
                && ctx.text(i + 3) == "checked_count"
            {
                checked.push(ctx.text(i + 1));
            }
        }
        for i in body.body_start..body.body_end {
            if ctx.text(i) != "with_capacity" || ctx.text(i + 1) != "(" {
                continue;
            }
            let Some(close) = ctx.matching_close(i + 1, "(", ")") else {
                continue;
            };
            let offender = (i + 2..close).find(|&k| {
                ctx.kind(k) == Some(TokenKind::Ident)
                    && ctx.text(k - 1) != "."          // field / method receiver
                    && ctx.text(k + 1) != "("          // function call
                    && !BENIGN.contains(&ctx.text(k))
                    && !checked.contains(&ctx.text(k))
            });
            if let Some(k) = offender {
                let ident = ctx.text(k).to_string();
                push(
                    ctx,
                    raw,
                    "unchecked-binfmt-alloc",
                    i,
                    format!(
                        "`with_capacity({ident}…)` in reader `{name}` — `{ident}` did not flow \
                         through checked_count, so a hostile count could force a huge allocation"
                    ),
                );
            }
        }
    }
}

/// Rule 5: mining logic is wall-clock free (deterministic results), and
/// instrumented library crates route time through the injected
/// `remi_obs::Clock` so `FakeClock` tests exercise every timing path.
fn rule_wallclock_in_mining(ctx: &FileCtx<'_>, info: &PathInfo, raw: &mut Vec<Violation>) {
    if info.in_test_tree() {
        return;
    }
    let mining = info.is_crate("core") || info.is_crate("amie");
    // A non-mining library file that imports remi-obs has opted into
    // injected time: reading the raw clock beside the injected one
    // creates timing paths FakeClock tests can never reach. The obs
    // crate itself (MonoClock wraps Instant) and bins/examples own
    // their clocks.
    let instrumented = !mining
        && !info.is_crate("obs")
        && !info.is_bin_or_example()
        && (0..ctx.code.len())
            .any(|i| ctx.kind(i) == Some(TokenKind::Ident) && ctx.text(i) == "remi_obs");
    if !mining && !instrumented {
        return;
    }
    let (context, hint) = if mining {
        ("mining logic", "results must not depend on wall-clock time")
    } else {
        (
            "an instrumented crate",
            "time must flow through the injected `remi_obs::Clock`",
        )
    };
    for i in 0..ctx.code.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        if ctx.matches(i, &["Instant", ":", ":", "now"]) {
            push(
                ctx,
                raw,
                "wallclock-in-mining",
                i,
                format!("`Instant::now` in {context} — {hint}"),
            );
        }
        if ctx.kind(i) == Some(TokenKind::Ident) && ctx.text(i) == "SystemTime" {
            push(
                ctx,
                raw,
                "wallclock-in-mining",
                i,
                format!("`SystemTime` in {context} — {hint}"),
            );
        }
    }
}

/// Rule 6: libraries never print; bins/examples/benches own the terminal.
fn rule_print_in_library(ctx: &FileCtx<'_>, info: &PathInfo, raw: &mut Vec<Violation>) {
    if info.in_test_tree() || info.is_bin_or_example() || !info.component("src") {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test_code(i) {
            continue;
        }
        for m in ["println", "eprintln", "print", "eprint", "dbg"] {
            if ctx.matches(i, &[m, "!"]) {
                push(
                    ctx,
                    raw,
                    "print-in-library",
                    i,
                    format!("`{m}!` in a library crate — return data, let binaries print"),
                );
            }
        }
    }
}

/// Rule 7: compaction-gate / writer-lock acquisition order in kb::delta.
///
/// The gate serialises whole compactions and must be taken *before* the
/// writer lock (`compact` pins, rebuilds, then briefly takes the writer).
/// Acquiring the gate while already holding the writer would let two
/// folds interleave and silently drop triples (PR 5 review finding).
fn rule_delta_lock_order(ctx: &FileCtx<'_>, _info: &PathInfo, raw: &mut Vec<Violation>) {
    if ctx.path != "crates/kb/src/delta.rs" {
        return;
    }
    for body in find_fn_bodies(ctx) {
        let mut writer_at: Option<usize> = None;
        for i in body.body_start..body.body_end {
            let writer_acq = ctx.matches(i, &["writer", ".", "lock"])
                || (ctx.text(i) == "lock_writer" && ctx.text(i.wrapping_sub(1)) != "fn");
            let gate_acq = ctx.matches(i, &["compact_gate", ".", "lock"])
                || (ctx.text(i) == "lock_gate" && ctx.text(i.wrapping_sub(1)) != "fn");
            if writer_acq && writer_at.is_none() {
                writer_at = Some(i);
            }
            if gate_acq {
                if let Some(w) = writer_at {
                    push(
                        ctx,
                        raw,
                        "delta-lock-order",
                        i,
                        format!(
                            "compaction gate acquired after the writer lock (writer taken on \
                             line {}) — the order is gate first, then writer",
                            ctx.line(w)
                        ),
                    );
                }
            }
        }
    }
}

/// Rule 10: flight-recorder event names are static string literals.
///
/// `Recorder::define` interns specs by name once at boot so `emit` can
/// stay allocation-free; a name built at runtime (`format!`, a local
/// binding, a function result) defeats the interning and smuggles an
/// allocation onto the emit hot path. Inside every `EventSpec { … }`
/// struct literal the token after `name:` must therefore be a string
/// literal. The rule applies everywhere — tests included — because the
/// recorder's name-keyed dedup is the same in every context.
fn rule_dynamic_event_name(ctx: &FileCtx<'_>, _info: &PathInfo, raw: &mut Vec<Violation>) {
    for i in 0..ctx.code.len() {
        if ctx.text(i) != "EventSpec" || ctx.text(i + 1) != "{" {
            continue;
        }
        // The struct's own definition (`pub struct EventSpec {`) and any
        // impl/trait block are declarations, not literals.
        let prev = if i == 0 { "" } else { ctx.text(i - 1) };
        if matches!(prev, "struct" | "impl" | "trait" | "enum" | "dyn") {
            continue;
        }
        let Some(close) = ctx.matching_close(i + 1, "{", "}") else {
            continue;
        };
        for k in i + 2..close {
            // A `name:` field initializer — but not a `name::…` path.
            if ctx.text(k) != "name" || ctx.text(k + 1) != ":" || ctx.text(k + 2) == ":" {
                continue;
            }
            if ctx.kind(k + 2) != Some(TokenKind::Str) {
                let value = ctx.text(k + 2).to_string();
                push(
                    ctx,
                    raw,
                    "dynamic-event-name",
                    k,
                    format!(
                        "`EventSpec` name built at runtime (starts with `{value}`) — the \
                         recorder interns names at boot, so `name:` must be a static string \
                         literal"
                    ),
                );
            }
        }
    }
}

/// Rule 8: tests bind ephemeral ports only.
fn rule_hardcoded_test_port(ctx: &FileCtx<'_>, info: &PathInfo, raw: &mut Vec<Violation>) {
    let whole_file_test = info.in_test_tree();
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokenKind::Str {
            continue;
        }
        if !(whole_file_test || ctx.in_test_code(i)) {
            continue;
        }
        let text = t.text(ctx.src);
        for host in ["127.0.0.1:", "localhost:", "0.0.0.0:", "[::1]:"] {
            let Some(at) = text.find(host) else { continue };
            let digits: String = text[at + host.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            if let Ok(port) = digits.parse::<u32>() {
                if port != 0 {
                    push(
                        ctx,
                        raw,
                        "hardcoded-test-port",
                        i,
                        format!(
                            "test binds fixed port {port} — bind `:0` and read the assigned \
                             address (parallel test runs collide on fixed ports)"
                        ),
                    );
                }
            }
        }
    }
}
