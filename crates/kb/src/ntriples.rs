//! N-Triples parsing and serialisation.
//!
//! Covers the subset of W3C N-Triples needed for KB dumps: IRIs in angle
//! brackets, blank nodes, plain/typed/language-tagged literals with the
//! standard string escapes, `#` comment lines, and blank lines.

use std::io::{BufRead, Write};

use crate::error::{KbError, Result};
use crate::store::KbBuilder;
use crate::term::Term;

/// Escapes a literal lexical form into `out` per N-Triples rules.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

/// Unescapes an N-Triples literal body (the part between the quotes).
pub fn unescape(s: &str) -> std::result::Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return Err("truncated \\u escape".into());
                }
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape: {hex}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("invalid codepoint {code}"))?);
            }
            Some('U') => {
                let hex: String = chars.by_ref().take(8).collect();
                if hex.len() != 8 {
                    return Err("truncated \\U escape".into());
                }
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\U escape: {hex}"))?;
                out.push(char::from_u32(code).ok_or_else(|| format!("invalid codepoint {code}"))?);
            }
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

/// A literal in N-Triples surface form split into borrowed parts: the
/// still-escaped lexical body and the language tag or datatype IRI.
struct LiteralParts<'a> {
    body: &'a str,
    lang: Option<&'a str>,
    datatype: Option<&'a str>,
}

fn split_literal(s: &str) -> std::result::Result<LiteralParts<'_>, String> {
    if !s.starts_with('"') {
        return Err("literal must start with '\"'".into());
    }
    // Find the closing unescaped quote.
    let bytes = s.as_bytes();
    let mut i = 1;
    let mut end = None;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    let end = end.ok_or("unterminated literal")?;
    let mut parts = LiteralParts {
        body: &s[1..end],
        lang: None,
        datatype: None,
    };
    let rest = &s[end + 1..];
    if rest.is_empty() {
        return Ok(parts);
    }
    if let Some(lang) = rest.strip_prefix('@') {
        if lang.is_empty() {
            return Err("empty language tag".into());
        }
        parts.lang = Some(lang);
        return Ok(parts);
    }
    if let Some(dt) = rest.strip_prefix("^^") {
        let dt = dt
            .strip_prefix('<')
            .and_then(|d| d.strip_suffix('>'))
            .ok_or("datatype must be an IRI in angle brackets")?;
        parts.datatype = Some(dt);
        return Ok(parts);
    }
    Err(format!("trailing garbage after literal: {rest}"))
}

/// Parses a literal in N-Triples surface form: `"lex"`, `"lex"@lang`, or
/// `"lex"^^<datatype>`.
pub fn parse_literal(s: &str) -> std::result::Result<Term, String> {
    let parts = split_literal(s)?;
    Ok(Term::Literal {
        lexical: unescape(parts.body)?,
        datatype: parts.datatype.map(String::from),
        lang: parts.lang.map(String::from),
    })
}

/// Checks that [`parse_literal`] accepts `s` without building the term;
/// allocates only when the lexical body holds escapes.
pub(crate) fn check_literal(s: &str) -> std::result::Result<(), String> {
    let body = split_literal(s)?.body;
    if body.contains('\\') {
        unescape(body)?;
    }
    Ok(())
}

/// A single parsed term plus the byte position right after it.
fn parse_term(line: &str, pos: usize) -> std::result::Result<(Term, usize), String> {
    let rest = &line[pos..];
    let trimmed = rest.trim_start();
    let skipped = rest.len() - trimmed.len();
    let start = pos + skipped;
    if let Some(after) = trimmed.strip_prefix('<') {
        let close = after.find('>').ok_or("unterminated IRI")?;
        let iri = &after[..close];
        return Ok((Term::iri(iri), start + 1 + close + 1));
    }
    if let Some(after) = trimmed.strip_prefix("_:") {
        let end = after
            .find(|c: char| c.is_whitespace())
            .unwrap_or(after.len());
        if end == 0 {
            return Err("empty blank node label".into());
        }
        return Ok((Term::blank(&after[..end]), start + 2 + end));
    }
    if trimmed.starts_with('"') {
        // Scan to the end of the literal token (closing quote + suffix).
        let bytes = trimmed.as_bytes();
        let mut i = 1;
        let mut close = None;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    close = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let close = close.ok_or("unterminated literal")?;
        let mut end = close + 1;
        let suffix = &trimmed[end..];
        if let Some(tag) = suffix.strip_prefix('@') {
            let stop = tag
                .find(|c: char| c.is_whitespace())
                .map(|i| i + 1)
                .unwrap_or(suffix.len());
            end += stop;
        } else if let Some(after_dt) = suffix.strip_prefix("^^") {
            if !after_dt.starts_with('<') {
                return Err("datatype must be an IRI".into());
            }
            let gt = after_dt.find('>').ok_or("unterminated datatype IRI")?;
            end += 2 + gt + 1;
        }
        let term = parse_literal(&trimmed[..end])?;
        return Ok((term, start + end));
    }
    Err(format!(
        "expected IRI, blank node, or literal at: {}",
        trimmed.chars().take(30).collect::<String>()
    ))
}

/// Parses one N-Triples line into `(subject, predicate, object)`.
/// Returns `Ok(None)` for blank and comment lines.
pub fn parse_line(line: &str) -> std::result::Result<Option<(Term, String, Term)>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (s, pos) = parse_term(trimmed, 0)?;
    if s.is_literal() {
        return Err("subject cannot be a literal".into());
    }
    let (p, pos) = parse_term(trimmed, pos)?;
    let p_iri = match p {
        Term::Iri(iri) => iri,
        _ => return Err("predicate must be an IRI".into()),
    };
    let (o, pos) = parse_term(trimmed, pos)?;
    let tail = trimmed[pos..].trim();
    if tail != "." {
        return Err(format!("expected final '.', found: {tail:?}"));
    }
    Ok(Some((s, p_iri, o)))
}

/// Reads N-Triples from `reader` into a [`KbBuilder`].
pub fn read_into(reader: impl BufRead, builder: &mut KbBuilder) -> Result<usize> {
    let mut count = 0usize;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        match parse_line(&line) {
            Ok(Some((s, p, o))) => {
                builder.add(&s, &p, &o);
                count += 1;
            }
            Ok(None) => {}
            Err(message) => {
                return Err(KbError::Parse {
                    line: i + 1,
                    message,
                })
            }
        }
    }
    Ok(count)
}

/// Parses a full N-Triples document from a string into a builder.
pub fn parse_document(doc: &str) -> Result<KbBuilder> {
    let mut b = KbBuilder::new();
    read_into(doc.as_bytes(), &mut b)?;
    Ok(b)
}

/// Serialises one triple as an N-Triples line (without the newline).
pub fn format_triple(s: &Term, p: &str, o: &Term) -> String {
    format!("{s} <{p}> {o} .")
}

/// Writes an entire KB as N-Triples (base triples only — materialised
/// inverses are derived data and are reconstructed on load).
pub fn write_kb(kb: &crate::store::KnowledgeBase, mut w: impl Write) -> Result<()> {
    for t in kb.iter_triples() {
        let s = kb.node_term(t.s);
        let o = kb.node_term(t.o);
        writeln!(w, "{}", format_triple(&s, kb.pred_iri(t.p), &o))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_simple_triple() {
        let (s, p, o) = parse_line("<http://x/a> <http://x/p> <http://x/b> .")
            .unwrap()
            .unwrap();
        assert_eq!(s, Term::iri("http://x/a"));
        assert_eq!(p, "http://x/p");
        assert_eq!(o, Term::iri("http://x/b"));
    }

    #[test]
    fn parses_literals() {
        let (_, _, o) = parse_line("<e:a> <p:name> \"Ada\" .").unwrap().unwrap();
        assert_eq!(o, Term::literal("Ada"));

        let (_, _, o) = parse_line("<e:a> <p:name> \"Ada\"@en .").unwrap().unwrap();
        assert_eq!(o, Term::lang_literal("Ada", "en"));

        let (_, _, o) =
            parse_line("<e:a> <p:age> \"36\"^^<http://www.w3.org/2001/XMLSchema#int> .")
                .unwrap()
                .unwrap();
        assert_eq!(
            o,
            Term::typed_literal("36", "http://www.w3.org/2001/XMLSchema#int")
        );
    }

    #[test]
    fn parses_escaped_literal() {
        let (_, _, o) = parse_line(r#"<e:a> <p:q> "he said \"hi\"\n" ."#)
            .unwrap()
            .unwrap();
        assert_eq!(o, Term::literal("he said \"hi\"\n"));
    }

    #[test]
    fn parses_blank_nodes() {
        let (s, _, o) = parse_line("_:b0 <p:q> _:b1 .").unwrap().unwrap();
        assert_eq!(s, Term::blank("b0"));
        assert_eq!(o, Term::blank("b1"));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("<e:a> <p:q> <e:b>").is_err()); // missing dot
        assert!(parse_line("\"lit\" <p:q> <e:b> .").is_err()); // literal subject
        assert!(parse_line("<e:a> _:b <e:b> .").is_err()); // blank predicate
        assert!(parse_line("<e:a> <p:q> \"unterminated .").is_err());
        assert!(parse_line("<e:a <p:q> <e:b> .").is_err()); // unterminated IRI
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(unescape(r"café").unwrap(), "café");
        assert_eq!(unescape(r"\U0001F600").unwrap(), "😀");
        assert!(unescape(r"\u00z9").is_err());
        assert!(unescape(r"\u00e").is_err());
        assert!(unescape(r"\q").is_err());
        assert!(unescape("dangling\\").is_err());
    }

    #[test]
    fn document_roundtrip() {
        let doc = "\
# cities
<e:Paris> <p:capitalOf> <e:France> .
<e:Paris> <p:label> \"Paris\"@fr .
_:b0 <p:near> <e:Paris> .
";
        let kb = parse_document(doc).unwrap().build().unwrap();
        assert_eq!(kb.num_triples(), 3);

        let mut out = Vec::new();
        write_kb(&kb, &mut out).unwrap();
        let kb2 = parse_document(std::str::from_utf8(&out).unwrap())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(kb2.num_triples(), 3);

        // Semantic equality: every triple of kb appears in kb2.
        let set1: std::collections::BTreeSet<String> = {
            let mut v = Vec::new();
            write_kb(&kb, &mut v).unwrap();
            String::from_utf8(v)
                .unwrap()
                .lines()
                .map(String::from)
                .collect()
        };
        let set2: std::collections::BTreeSet<String> = {
            let mut v = Vec::new();
            write_kb(&kb2, &mut v).unwrap();
            String::from_utf8(v)
                .unwrap()
                .lines()
                .map(String::from)
                .collect()
        };
        assert_eq!(set1, set2);
    }

    #[test]
    fn check_literal_agrees_with_parse_literal() {
        for s in [
            "\"plain\"",
            "\"Paris\"@fr",
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>",
            "\"esc \\\" \\n \\u00e9\"",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"short \\u00\"",
            "\"x\"@",
            "\"x\"^^http://no-brackets",
            "\"x\"trailing",
            "no-quote",
        ] {
            assert_eq!(
                check_literal(s).is_ok(),
                parse_literal(s).is_ok(),
                "disagree on {s:?}"
            );
        }
    }

    #[test]
    fn parse_error_reports_line_number() {
        let doc = "<e:a> <p:q> <e:b> .\nthis is not a triple\n";
        match parse_document(doc) {
            Err(KbError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn prop_escape_unescape_roundtrip(s in ".{0,100}") {
            let mut escaped = String::new();
            escape_into(&s, &mut escaped);
            prop_assert_eq!(unescape(&escaped).unwrap(), s);
        }

        #[test]
        fn prop_literal_surface_roundtrip(
            lex in "[a-zA-Z0-9 \"\\\\\n\t]{0,50}",
            lang in proptest::option::of("[a-z]{2}"),
        ) {
            let term = match lang {
                Some(l) => Term::lang_literal(lex.clone(), l),
                None => Term::literal(lex.clone()),
            };
            let surface = term.dict_key();
            prop_assert!(check_literal(&surface).is_ok());
            prop_assert_eq!(parse_literal(&surface).unwrap(), term);
        }
    }
}
