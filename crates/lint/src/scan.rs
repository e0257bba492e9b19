//! Per-file scaffolding shared by every rule: a lexed source file with
//! its test regions resolved, plus token-sequence matching helpers.

use crate::lexer::{self, Lexed, TokKind, Token};

/// One lexed source file plus the line ranges occupied by test code.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    pub lexed: Lexed,
    /// Inclusive `(start_line, end_line)` ranges of `#[test]` functions
    /// and `#[cfg(test)]` items — exempt from T1/T2/T3.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    pub fn new(rel: String, bytes: &[u8]) -> Self {
        let lexed = lexer::lex_bytes(bytes);
        let test_ranges = test_line_ranges(&lexed.tokens);
        Self {
            rel,
            lexed,
            test_ranges,
        }
    }

    /// Whether `line` falls inside test-only code. Integration-test and
    /// bench/example trees are exempt wholesale by path.
    pub fn is_test_line(&self, line: u32) -> bool {
        path_is_test(&self.rel)
            || self
                .test_ranges
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }

    pub fn tokens(&self) -> &[Token] {
        &self.lexed.tokens
    }
}

/// Paths whose entire contents are test/bench/example code.
fn path_is_test(rel: &str) -> bool {
    let prefixed = format!("/{rel}");
    ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|d| prefixed.contains(d))
}

/// Whether `rel` falls under any scope prefix.
pub fn in_scope(rel: &str, scopes: &[String]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s.as_str()))
}

pub fn is_ident(tok: &Token, name: &str) -> bool {
    matches!(&tok.kind, TokKind::Ident(s) if s == name)
}

pub fn is_punct(tok: &Token, c: char) -> bool {
    tok.kind == TokKind::Punct(c)
}

pub fn ident_name(tok: &Token) -> Option<&str> {
    match &tok.kind {
        TokKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Matches `segs[0] :: segs[1] :: ...` starting at `i`; returns the index
/// one past the match.
pub fn path_at(tokens: &[Token], i: usize, segs: &[&str]) -> Option<usize> {
    let mut at = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !(is_punct(tokens.get(at)?, ':') && is_punct(tokens.get(at + 1)?, ':')) {
                return None;
            }
            at += 2;
        }
        if !is_ident(tokens.get(at)?, seg) {
            return None;
        }
        at += 1;
    }
    Some(at)
}

/// Finds the span of `fn name`'s body: token indices `(fn_kw, open, close)`
/// where `open`/`close` delimit the body braces. Searches past earlier
/// same-named bindings; the first `fn name` wins.
pub fn fn_span(tokens: &[Token], name: &str) -> Option<(usize, usize, usize)> {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if is_ident(&tokens[i], "fn") && is_ident(&tokens[i + 1], name) {
            // The body is the first `{` after the signature; generics,
            // argument lists and return types carry no braces.
            let mut j = i + 2;
            while j < tokens.len() && !is_punct(&tokens[j], '{') {
                if is_punct(&tokens[j], ';') {
                    // Trait method signature without a body; keep looking.
                    break;
                }
                j += 1;
            }
            if j < tokens.len() && is_punct(&tokens[j], '{') {
                let close = matching_brace(tokens, j)?;
                return Some((i, j, close));
            }
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, tok) in tokens.iter().enumerate().skip(open) {
        if is_punct(tok, '{') {
            depth += 1;
        } else if is_punct(tok, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Collects the variant names of `enum name { ... }`.
pub fn enum_variants(tokens: &[Token], name: &str) -> Option<Vec<String>> {
    let mut i = 0;
    let open = loop {
        if i + 2 >= tokens.len() {
            return None;
        }
        if is_ident(&tokens[i], "enum") && is_ident(&tokens[i + 1], name) {
            let mut j = i + 2;
            while j < tokens.len() && !is_punct(&tokens[j], '{') {
                j += 1;
            }
            if j < tokens.len() {
                break j;
            }
            return None;
        }
        i += 1;
    };
    let close = matching_brace(tokens, open)?;
    let mut variants = Vec::new();
    let mut k = open + 1;
    while k < close {
        let tok = &tokens[k];
        if is_punct(tok, '#') {
            // Variant attribute: skip the bracket group.
            k += 1;
            if k < close && is_punct(&tokens[k], '[') {
                let mut depth = 0usize;
                while k < close {
                    if is_punct(&tokens[k], '[') {
                        depth += 1;
                    } else if is_punct(&tokens[k], ']') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
            continue;
        }
        if let Some(v) = ident_name(tok) {
            variants.push(v.to_string());
            k += 1;
            // Skip the payload: struct/tuple fields or a discriminant.
            if k < close && is_punct(&tokens[k], '{') {
                k = matching_brace(tokens, k).map_or(close, |c| c + 1);
            } else if k < close && is_punct(&tokens[k], '(') {
                let mut depth = 0usize;
                while k < close {
                    if is_punct(&tokens[k], '(') {
                        depth += 1;
                    } else if is_punct(&tokens[k], ')') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
            // Skip to past the separating comma (covers `= disc` too).
            while k < close && !is_punct(&tokens[k], ',') {
                k += 1;
            }
        }
        k += 1;
    }
    Some(variants)
}

/// Line ranges (inclusive) of items annotated with a test attribute:
/// `#[test]`, `#[cfg(test)]` and friends — any attribute whose token
/// stream contains the identifier `test`.
pub fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !is_punct(&tokens[i], '#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Inner attributes (`#![...]`) configure the enclosing item; a
        // file-level `#![cfg(test)]` is rare enough to ignore.
        if j < tokens.len() && is_punct(&tokens[j], '!') {
            i = j + 1;
            continue;
        }
        if j >= tokens.len() || !is_punct(&tokens[j], '[') {
            i += 1;
            continue;
        }
        // Find the matching ']' and look for `test` inside. `not(test)`
        // guards production-only code and must not count.
        let mut depth = 0usize;
        let mut has_test = false;
        let mut has_not = false;
        while j < tokens.len() {
            if is_punct(&tokens[j], '[') {
                depth += 1;
            } else if is_punct(&tokens[j], ']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if is_ident(&tokens[j], "test") {
                has_test = true;
            } else if is_ident(&tokens[j], "not") {
                has_not = true;
            }
            j += 1;
        }
        let has_test = has_test && !has_not;
        if j >= tokens.len() {
            break;
        }
        if !has_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then mark the next braced block.
        let mut k = j + 1;
        loop {
            if k + 1 < tokens.len() && is_punct(&tokens[k], '#') && is_punct(&tokens[k + 1], '[') {
                let mut depth = 0usize;
                while k < tokens.len() {
                    if is_punct(&tokens[k], '[') {
                        depth += 1;
                    } else if is_punct(&tokens[k], ']') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        // Scan to the item's opening brace; a bare `;` first means the
        // attribute decorated a braceless item (use, extern) — skip it.
        let start_line = tokens[i].line;
        while k < tokens.len() && !is_punct(&tokens[k], '{') && !is_punct(&tokens[k], ';') {
            k += 1;
        }
        if k < tokens.len() && is_punct(&tokens[k], '{') {
            if let Some(close) = matching_brace(tokens, k) {
                ranges.push((start_line, tokens[close].line));
                i = close + 1;
                continue;
            }
            // Unterminated block: treat everything after as test code.
            ranges.push((start_line, u32::MAX));
            break;
        }
        i = k + 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_module_span_is_detected() {
        let src = "fn live() { work(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        let lexed = lex(src);
        let ranges = test_line_ranges(&lexed.tokens);
        assert_eq!(ranges, vec![(2, 6)]);
    }

    #[test]
    fn test_fn_without_module_is_detected() {
        let src = "fn live() {}\n#[test]\nfn t() {\n  boom();\n}\nfn live2() {}\n";
        let ranges = test_line_ranges(&lex(src).tokens);
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn non_test_attributes_mark_nothing() {
        let src = "#[derive(Debug)]\nstruct S { x: u32 }\n#[inline]\nfn f() {}\n";
        assert!(test_line_ranges(&lex(src).tokens).is_empty());
    }

    #[test]
    fn enum_variants_skip_payloads_attributes_and_discriminants() {
        let src = "pub enum E {\n\
                   #[doc(hidden)]\n\
                   A,\n\
                   B { x: u32, y: Vec<u8> },\n\
                   C(String, u64),\n\
                   D = 7,\n\
                   }";
        let vs = enum_variants(&lex(src).tokens, "E").unwrap();
        assert_eq!(vs, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn fn_span_finds_the_body() {
        let src = "impl X { fn a(&self) -> u32 { 1 } fn b(&self) { if x { y() } } }";
        let lexed = lex(src);
        let (_, open, close) = fn_span(&lexed.tokens, "b").unwrap();
        assert!(open < close);
        let slice = &lexed.tokens[open..=close];
        assert!(slice.iter().any(|t| is_ident(t, "y")));
        assert!(!slice.iter().any(|t| is_ident(t, "a")));
    }

    #[test]
    fn path_at_matches_qualified_paths() {
        let lexed = lex("std::env::var(\"X\")");
        assert!(path_at(&lexed.tokens, 0, &["std", "env"]).is_some());
        assert!(path_at(&lexed.tokens, 0, &["std", "fs"]).is_none());
    }
}
