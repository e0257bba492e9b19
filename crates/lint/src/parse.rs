//! A brace-tree item parser on top of the lexer — still no `syn`.
//!
//! The interprocedural rules (T1/T2/T3) need to know *which function* a
//! token belongs to and *which functions it calls*, not just that a
//! banned token sequence exists somewhere in a file. This module walks
//! the token stream once, tracking a stack of brace contexts (`mod`,
//! `impl`, `trait`, `fn`, plain blocks), and extracts:
//!
//! * every `fn` item with its name, enclosing `impl`/`trait` type, the
//!   token span of its signature + body, and its `file:line:col`;
//! * every call expression inside a function body, classified as a free
//!   call (`helper(..)`), a qualified call (`Type::new(..)` — only the
//!   last two path segments are kept), a method call (`recv.step(..)`
//!   with a receiver hint), or a macro invocation (`panic!(..)`). A
//!   fn passed as an argument is a call too: `.map(Type::name)` a
//!   qualified one, a bare `.map(helper)` a free one.
//!
//! Design constraints mirror the lexer's:
//!
//! * **Total**: the parser terminates and never panics on arbitrary
//!   token streams — mismatched braces, truncated headers, generics
//!   soup. A proptest pins this down. Where real Rust syntax is
//!   ambiguous to a lexical pass (const-generic braces, comparison `<`
//!   vs generics), it degrades to a best-effort item tree rather than
//!   erroring: a linter that dies on weird input protects nothing.
//! * **Span-faithful**: every extracted item carries in-bounds token
//!   indices and the 1-based line/column of its first token.

use crate::lexer::Token;
use crate::scan::{self, SourceFile};

/// How a method call names its receiver — the resolution heuristic in
/// [`crate::callgraph`] keys off this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.step(..)` — resolve against the enclosing impl type first.
    SelfRecv,
    /// `worker.step(..)` — a named local/param; local type inference may
    /// narrow the candidate set.
    Var(String),
    /// `make().step(..)`, `slots[i].step(..)` — chained/indexed; resolve
    /// by method name alone (over-approximate).
    Opaque,
}

/// One call expression, classified lexically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `helper(..)` — a free function call.
    Free(String),
    /// `Type::new(..)` / `module::helper(..)` — the last two path
    /// segments (`qualifier`, `name`).
    Qualified(String, String),
    /// `recv.method(..)`.
    Method(Receiver, String),
    /// `name!(..)` — macros never get call-graph edges, but `panic!`
    /// and friends are T2 taint sources.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub callee: Callee,
    pub line: u32,
    pub col: u32,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// Enclosing `impl` self type or `trait` name, if any. For
    /// `impl Trait for Type` this is `Type`.
    pub owner: Option<String>,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    pub col: u32,
    /// Token-index span `[fn_kw, body_close]` (inclusive); for bodyless
    /// signatures the span ends at the terminating `;`.
    pub span: (usize, usize),
    /// Token index of the body's `{`, if the fn has a body.
    pub body_open: Option<usize>,
    pub calls: Vec<CallSite>,
    /// Whether the `fn` keyword sits in test code (test attribute range
    /// or a tests/benches/examples path) — excluded from the call graph.
    pub is_test: bool,
}

/// The item tree of one source file: a flat fn list (nesting resolved).
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
}

/// Keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "in", "as", "move", "let", "else",
    "impl", "mod", "use", "pub", "struct", "enum", "trait", "type", "where", "unsafe", "dyn",
    "ref", "mut", "box", "await", "async", "const", "static", "crate", "super", "Self", "self",
    "break", "continue", "yield",
];

/// One entry on the brace stack.
#[derive(Debug, Clone)]
enum Ctx {
    /// A `fn` body; the payload indexes `ParsedFile::fns`.
    Fn(usize),
    /// An `impl`/`trait` block with its (best-effort) self-type name.
    Owner(Option<String>),
    /// Any other `{ .. }` group.
    Block,
}

/// What the last item header promised the next `{` will open.
#[derive(Debug, Clone)]
enum Pending {
    Fn(usize),
    Owner(Option<String>),
}

pub fn parse_file(file: &SourceFile) -> ParsedFile {
    Parser {
        file,
        tokens: file.tokens(),
        out: ParsedFile::default(),
        stack: Vec::new(),
        pending: None,
    }
    .run()
}

struct Parser<'a> {
    file: &'a SourceFile,
    tokens: &'a [Token],
    out: ParsedFile,
    stack: Vec<Ctx>,
    pending: Option<Pending>,
}

impl Parser<'_> {
    fn run(mut self) -> ParsedFile {
        let mut i = 0usize;
        while i < self.tokens.len() {
            let tok = &self.tokens[i];
            if scan::is_punct(tok, '#') {
                // Attributes carry ident+paren shapes that look like
                // calls; skip the whole `#[...]` / `#![...]` group.
                i = self.skip_attribute(i);
                continue;
            }
            if scan::is_punct(tok, '{') {
                let ctx = match self.pending.take() {
                    Some(Pending::Fn(idx)) => {
                        self.out.fns[idx].body_open = Some(i);
                        Ctx::Fn(idx)
                    }
                    Some(Pending::Owner(name)) => Ctx::Owner(name),
                    None => Ctx::Block,
                };
                self.stack.push(ctx);
                i += 1;
                continue;
            }
            if scan::is_punct(tok, '}') {
                if let Some(Ctx::Fn(idx)) = self.stack.pop() {
                    // Close the fn span at this `}` only if it is the
                    // body's own brace (the matching Ctx::Fn pop).
                    self.out.fns[idx].span.1 = i;
                }
                i += 1;
                continue;
            }
            if scan::is_punct(tok, ';') {
                // A bodyless header (trait method signature, `mod x;`).
                if let Some(Pending::Fn(idx)) = self.pending.take() {
                    self.out.fns[idx].span.1 = i;
                }
                i += 1;
                continue;
            }
            let Some(name) = scan::ident_name(tok) else {
                i += 1;
                continue;
            };
            match name {
                "impl" | "trait" => {
                    let (owner, next) = self.parse_owner_header(i);
                    self.pending = Some(Pending::Owner(owner));
                    i = next;
                    continue;
                }
                "mod" => {
                    // `mod name { .. }` opens a plain owner-less scope;
                    // `mod name;` is skipped by the `;` arm.
                    self.pending = Some(Pending::Owner(self.current_owner()));
                    i += 1;
                    continue;
                }
                "fn" => {
                    if let Some(fn_name) = self.tokens.get(i + 1).and_then(scan::ident_name) {
                        let idx = self.out.fns.len();
                        self.out.fns.push(FnDef {
                            name: fn_name.to_string(),
                            owner: self.current_owner(),
                            line: tok.line,
                            col: tok.col,
                            span: (i, self.tokens.len().saturating_sub(1)),
                            body_open: None,
                            calls: Vec::new(),
                            is_test: self.file.is_test_line(tok.line),
                        });
                        self.pending = Some(Pending::Fn(idx));
                        i += 2;
                        continue;
                    }
                    i += 1;
                    continue;
                }
                _ => {}
            }
            // Call collection only inside a fn body.
            if let Some(fn_idx) = self.current_fn() {
                if let Some(site) = self.call_at(i) {
                    self.out.fns[fn_idx].calls.push(site);
                }
            }
            i += 1;
        }
        // Unterminated bodies: any fn still open keeps its default span
        // end (last token), which stays in-bounds.
        self.out
    }

    /// Innermost enclosing fn on the stack (a `fn` nested in a `fn`
    /// collects its own calls).
    fn current_fn(&self) -> Option<usize> {
        self.stack.iter().rev().find_map(|c| match c {
            Ctx::Fn(idx) => Some(*idx),
            _ => None,
        })
    }

    /// Innermost enclosing impl/trait type, looking through plain blocks
    /// and `mod` scopes but not through another fn's body.
    fn current_owner(&self) -> Option<String> {
        for ctx in self.stack.iter().rev() {
            match ctx {
                Ctx::Owner(name) => return name.clone(),
                Ctx::Fn(_) => return None,
                Ctx::Block => {}
            }
        }
        None
    }

    /// Parses an `impl`/`trait` header starting at its keyword; returns
    /// the best-effort self-type name and the index of the token that
    /// opens the block (the `{`, or wherever scanning gave up).
    ///
    /// Handles `impl<T> Type<T>`, `impl Trait for Type`, `&mut Type`,
    /// and stops at `{` or `where`. The self type is the *last* path
    /// segment of the subject (`for`-target if present).
    fn parse_owner_header(&self, kw: usize) -> (Option<String>, usize) {
        let mut j = kw + 1;
        let mut subject: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        while j < self.tokens.len() {
            let t = &self.tokens[j];
            if angle == 0 && (scan::is_punct(t, '{') || scan::is_ident(t, "where")) {
                break;
            }
            if scan::is_punct(t, '<') {
                angle += 1;
            } else if scan::is_punct(t, '>') {
                angle = (angle - 1).max(0);
            } else if angle == 0 {
                if scan::is_ident(t, "for") {
                    saw_for = true;
                    subject = None;
                } else if let Some(name) = scan::ident_name(t) {
                    if name != "dyn" && name != "mut" && name != "const" {
                        subject = Some(name.to_string());
                    }
                }
            }
            j += 1;
        }
        let _ = saw_for;
        (subject, j)
    }

    /// Skips a `#[...]`/`#![...]` attribute group starting at the `#`.
    fn skip_attribute(&self, hash: usize) -> usize {
        let mut j = hash + 1;
        if self.tokens.get(j).is_some_and(|t| scan::is_punct(t, '!')) {
            j += 1;
        }
        if !self.tokens.get(j).is_some_and(|t| scan::is_punct(t, '[')) {
            return hash + 1;
        }
        let mut depth = 0usize;
        while j < self.tokens.len() {
            if scan::is_punct(&self.tokens[j], '[') {
                depth += 1;
            } else if scan::is_punct(&self.tokens[j], ']') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.tokens.len()
    }

    /// Classifies a call expression whose name sits at `i`, if any.
    fn call_at(&self, i: usize) -> Option<CallSite> {
        let tok = &self.tokens[i];
        let name = scan::ident_name(tok)?;
        let next = self.tokens.get(i + 1)?;
        // `name!(..)` / `name![..]` / `name!{..}` — macro invocation.
        if scan::is_punct(next, '!')
            && self
                .tokens
                .get(i + 2)
                .is_some_and(|t| "([{".chars().any(|c| scan::is_punct(t, c)))
        {
            return Some(CallSite {
                callee: Callee::Macro(name.to_string()),
                line: tok.line,
                col: tok.col,
            });
        }
        // `name::<T>(..)` turbofish: treat the `::<` as transparent.
        let paren_after_turbofish = scan::is_punct(next, ':')
            && self
                .tokens
                .get(i + 2)
                .is_some_and(|t| scan::is_punct(t, ':'))
            && self
                .tokens
                .get(i + 3)
                .is_some_and(|t| scan::is_punct(t, '<'))
            && self.turbofish_close(i + 3).is_some_and(|c| {
                self.tokens
                    .get(c + 1)
                    .is_some_and(|t| scan::is_punct(t, '('))
            });
        // `f(Type::name)`, `.map(module::name)`, `.map(helper)`: the
        // callee calls a fn passed as an argument, so it is a call site. A
        // lexical pass cannot tell a bare fn name from a local binding, so
        // this over-approximates as methods do: a local with no same-named
        // free fn resolves to no edge. A bare name counts only inside a
        // call's parentheses, not in a `for (a, b)` or `let (a, b)`
        // pattern or a tuple.
        let is = |j: usize, c: char| self.tokens.get(j).is_some_and(|t| scan::is_punct(t, c));
        let argument = is(i + 1, ')') || is(i + 1, ',');
        let passed_name =
            argument && i >= 1 && (is(i - 1, '(') || is(i - 1, ',')) && self.in_call_args(i);
        let passed_path = argument
            && i >= 4
            && is(i - 1, ':')
            && is(i - 2, ':')
            && scan::ident_name(&self.tokens[i - 3]).is_some()
            && (is(i - 4, '(') || is(i - 4, ',') || is(i - 4, ':'));
        if !scan::is_punct(next, '(') && !paren_after_turbofish && !passed_path && !passed_name {
            return None;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            return None;
        }
        // Qualified: `prev :: name (` — keep the immediate qualifier.
        if i >= 3
            && scan::is_punct(&self.tokens[i - 1], ':')
            && scan::is_punct(&self.tokens[i - 2], ':')
        {
            if let Some(q) = scan::ident_name(&self.tokens[i - 3]) {
                return Some(CallSite {
                    callee: Callee::Qualified(q.to_string(), name.to_string()),
                    line: tok.line,
                    col: tok.col,
                });
            }
            // `<T as Trait>::name(..)` — qualifier is opaque; fall
            // through to an unqualified method-style match.
            return Some(CallSite {
                callee: Callee::Method(Receiver::Opaque, name.to_string()),
                line: tok.line,
                col: tok.col,
            });
        }
        // Method: `recv . name (`.
        if i >= 2 && scan::is_punct(&self.tokens[i - 1], '.') {
            let recv = match scan::ident_name(&self.tokens[i - 2]) {
                Some("self") => Receiver::SelfRecv,
                Some(v) => Receiver::Var(v.to_string()),
                None => Receiver::Opaque,
            };
            return Some(CallSite {
                callee: Callee::Method(recv, name.to_string()),
                line: tok.line,
                col: tok.col,
            });
        }
        Some(CallSite {
            callee: Callee::Free(name.to_string()),
            line: tok.line,
            col: tok.col,
        })
    }

    /// Whether the innermost bracket around token `i` is a `(` that
    /// directly follows a name other than a keyword (`f(`, `.map(`,
    /// `Type::new(`), scanning a bounded window back (an unclosed or
    /// distant bracket just means "not a call").
    fn in_call_args(&self, i: usize) -> bool {
        let mut depth = 0usize;
        for j in (i.saturating_sub(256)..i).rev() {
            let t = &self.tokens[j];
            if ")]}".chars().any(|c| scan::is_punct(t, c)) {
                depth += 1;
            } else if "([{".chars().any(|c| scan::is_punct(t, c)) {
                if depth == 0 {
                    return scan::is_punct(t, '(')
                        && j >= 1
                        && scan::ident_name(&self.tokens[j - 1])
                            .is_some_and(|name| !NON_CALL_KEYWORDS.contains(&name));
                }
                depth -= 1;
            }
        }
        false
    }

    /// Index of the `>` closing a turbofish `<` at `open`, scanning a
    /// bounded window (generics in call position are short; a missing
    /// close just means "not a turbofish").
    fn turbofish_close(&self, open: usize) -> Option<usize> {
        let mut depth = 0i32;
        for j in open..self.tokens.len().min(open + 64) {
            if scan::is_punct(&self.tokens[j], '<') {
                depth += 1;
            } else if scan::is_punct(&self.tokens[j], '>') {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            } else if scan::is_punct(&self.tokens[j], ';') {
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&SourceFile::new("x.rs".into(), src.as_bytes()))
    }

    fn fn_named<'a>(parsed: &'a ParsedFile, name: &str) -> &'a FnDef {
        parsed
            .fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn fns_carry_owner_and_span() {
        let src = "impl Campaign { pub fn run(&self) -> u32 { self.step() } }\n\
                   fn free() { helper(1); }";
        let parsed = parse(src);
        assert_eq!(parsed.fns.len(), 2);
        let run = fn_named(&parsed, "run");
        assert_eq!(run.owner.as_deref(), Some("Campaign"));
        assert!(run.body_open.is_some());
        let free = fn_named(&parsed, "free");
        assert_eq!(free.owner, None);
    }

    #[test]
    fn trait_impls_resolve_the_for_target() {
        let src = "impl fmt::Display for ShardPlan { fn fmt(&self) {} }\n\
                   impl<'a, T: Clone> Wrapper<'a, T> { fn get(&self) {} }";
        let parsed = parse(src);
        assert_eq!(fn_named(&parsed, "fmt").owner.as_deref(), Some("ShardPlan"));
        assert_eq!(fn_named(&parsed, "get").owner.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn calls_are_classified_by_shape() {
        let src = "fn f(w: Worker) {\n\
                       helper(1);\n\
                       Journal::replay(2);\n\
                       self.observe(3);\n\
                       w.step(4);\n\
                       make().chain(5);\n\
                       panic!(\"boom\");\n\
                       if x { loop {} }\n\
                   }";
        let parsed = parse(src);
        let calls = &fn_named(&parsed, "f").calls;
        assert!(calls.contains(&CallSite {
            callee: Callee::Free("helper".into()),
            line: 2,
            col: 1
        }));
        assert!(calls
            .iter()
            .any(|c| c.callee == Callee::Qualified("Journal".into(), "replay".into())));
        assert!(calls
            .iter()
            .any(|c| c.callee == Callee::Method(Receiver::SelfRecv, "observe".into())));
        assert!(calls
            .iter()
            .any(|c| c.callee == Callee::Method(Receiver::Var("w".into()), "step".into())));
        assert!(calls
            .iter()
            .any(|c| c.callee == Callee::Method(Receiver::Opaque, "chain".into())));
        assert!(calls
            .iter()
            .any(|c| c.callee == Callee::Macro("panic".into())));
        assert!(!calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::Free(n) if n == "if" || n == "loop")));
    }

    #[test]
    fn qualified_fn_paths_passed_as_arguments_are_calls() {
        let src = "fn f() { xs.map(Helper::stamp); g(a, crate::m::h); xs.map(helper); \
                   k(E::V + 1); for (pat, x) in ys {} let (tup, y) = (elem, z); }";
        let calls: Vec<Callee> = parse(src).fns[0]
            .calls
            .iter()
            .map(|c| c.callee.clone())
            .collect();
        let qualified = |q: &str, n: &str| Callee::Qualified(q.into(), n.into());
        assert!(calls.contains(&qualified("Helper", "stamp")));
        assert!(calls.contains(&qualified("m", "h")));
        assert!(calls.contains(&Callee::Free("helper".into())));
        for binding in ["pat", "tup", "elem"] {
            assert!(!calls.contains(&Callee::Free(binding.into())), "{binding}");
        }
        assert!(
            !calls.contains(&qualified("E", "V")),
            "a path inside an expression"
        );
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let parsed = parse("fn f() { parse::<u64>(x); }");
        let calls = &fn_named(&parsed, "f").calls;
        assert!(calls
            .iter()
            .any(|c| matches!(&c.callee, Callee::Free(n) if n == "parse")));
    }

    #[test]
    fn nested_fns_collect_their_own_calls() {
        let src = "fn outer() { inner_call(); fn nested() { deep_call(); } }";
        let parsed = parse(src);
        let outer = fn_named(&parsed, "outer");
        let nested = fn_named(&parsed, "nested");
        assert!(outer
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("inner_call".into())));
        assert!(!outer
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("deep_call".into())));
        assert!(nested
            .calls
            .iter()
            .any(|c| c.callee == Callee::Free("deep_call".into())));
    }

    #[test]
    fn test_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        let parsed = parse(src);
        assert!(!fn_named(&parsed, "live").is_test);
        assert!(fn_named(&parsed, "t").is_test);
    }

    #[test]
    fn attributes_do_not_register_calls() {
        let src = "#[derive(Debug, Clone)]\nstruct S;\nfn f() { #[allow(dead_code)] let x = g(); }";
        let parsed = parse(src);
        let calls = &fn_named(&parsed, "f").calls;
        assert_eq!(calls.len(), 1);
        assert!(matches!(&calls[0].callee, Callee::Free(n) if n == "g"));
    }

    #[test]
    fn trait_method_signatures_have_no_body() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { self.sig() } }";
        let parsed = parse(src);
        assert_eq!(fn_named(&parsed, "sig").body_open, None);
        assert!(fn_named(&parsed, "with_default").body_open.is_some());
        assert_eq!(fn_named(&parsed, "sig").owner.as_deref(), Some("T"));
    }

    #[test]
    fn unbalanced_braces_do_not_panic_and_spans_stay_in_bounds() {
        for src in [
            "fn f() { g(",
            "} } fn g() {",
            "impl { fn",
            "fn",
            "fn f() { { { }",
            "impl X for { }",
        ] {
            let file = SourceFile::new("x.rs".into(), src.as_bytes());
            let parsed = parse_file(&file);
            for f in &parsed.fns {
                assert!(f.span.0 <= f.span.1);
                assert!(f.span.1 < file.tokens().len().max(1));
            }
        }
    }
}
