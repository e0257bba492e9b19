//! A lightweight, panic-free Rust lexer with line/column tracking.
//!
//! The analyzer's rules are lexical: they match token *sequences*
//! (`Instant :: now`, `. unwrap ( )`) and never need types or a full
//! parse tree, so a tokenizer that strips comments and string noise is
//! enough — and keeps the workspace's offline vendor policy (no `syn`).
//!
//! Design constraints:
//!
//! * **Total**: `lex` terminates and never panics on arbitrary input
//!   (including invalid UTF-8 via [`lex_bytes`] and unterminated
//!   strings/comments); a proptest pins this down. Malformed trailing
//!   constructs degrade to best-effort tokens, never errors — a linter
//!   that dies on weird input protects nothing.
//! * **Position-faithful**: every token carries the 1-based line and
//!   column of its first character, so findings are clickable.
//! * **Suppression-aware**: `// lint:allow(rule,...): reason` comments are
//!   collected (with their line) while ordinary comments are discarded.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    /// 1-based source line of the token's first character.
    pub line: u32,
    /// 1-based column (in characters) of the token's first character.
    pub col: u32,
}

/// Token classes the rules care about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `for`, `_`, `r#raw`).
    Ident(String),
    /// String literal *content* (escapes resolved for `\"` and `\\` only;
    /// raw strings verbatim). Byte strings land here too.
    Str(String),
    /// Character literal (content irrelevant to every rule).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime(String),
    /// Numeric literal (digits and suffix folded together).
    Num(String),
    /// A single punctuation character (`:`, `=`, `>`, `.`, `{`, ...).
    /// Multi-character operators arrive as consecutive tokens.
    Punct(char),
}

/// A `// lint:allow(RULES): reason` suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Source line the comment sits on (suppresses findings on this line
    /// and the next — "above the offending line" style).
    pub line: u32,
    /// Rule ids named in the parentheses, e.g. `["T2"]`.
    pub rules: Vec<String>,
    /// The free-text reason after the colon (may be empty; the lint that
    /// *requires* a reason checks this).
    pub reason: String,
}

/// The full result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
}

/// Lexes raw bytes: invalid UTF-8 is replaced (lossy) before lexing, so
/// the lexer is total over arbitrary byte strings.
pub fn lex_bytes(bytes: &[u8]) -> Lexed {
    lex(&String::from_utf8_lossy(bytes))
}

/// Lexes a source string into tokens plus suppression comments.
pub fn lex(src: &str) -> Lexed {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    src: &'a str,
    i: usize,
    line: u32,
    col: u32,
    out: Lexed,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            chars: src.chars().collect(),
            src,
            i: 0,
            line: 1,
            col: 1,
            out: Lexed::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consumes one character, maintaining line/column.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, line: u32, col: u32) {
        self.out.tokens.push(Token { kind, line, col });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line, col),
                'r' | 'b' if self.raw_or_byte_prefix() => { /* handled inside */ }
                '\'' => self.char_or_lifetime(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct(c), line, col);
                }
            }
        }
        self.out
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, `rb...` and
    /// falls through (returning false) when the `r`/`b` starts a plain
    /// identifier. `r#ident` raw identifiers are lexed as identifiers.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let (line, col) = (self.line, self.col);
        let mut j = 0usize;
        // Optional b, optional r, then hashes+quote (raw) or quote (plain).
        let mut saw_r = false;
        match self.peek(j) {
            Some('b') => {
                j += 1;
                if self.peek(j) == Some('r') {
                    saw_r = true;
                    j += 1;
                }
            }
            Some('r') => {
                saw_r = true;
                j += 1;
            }
            _ => return false,
        }
        let mut hashes = 0usize;
        while saw_r && self.peek(j) == Some('#') {
            hashes += 1;
            j += 1;
        }
        if self.peek(j) != Some('"') {
            // `r#ident` raw identifier: consume as an identifier.
            if saw_r && hashes == 1 && self.peek(j).is_some_and(unicode_ident_start) {
                self.bump(); // r
                self.bump(); // #
                self.ident(line, col);
                return true;
            }
            return false;
        }
        if hashes > 0 || saw_r {
            // Raw string: consume prefix + hashes + opening quote.
            for _ in 0..(j + 1) {
                self.bump();
            }
            let mut content = String::new();
            loop {
                match self.bump() {
                    None => break, // unterminated: tolerate
                    Some('"') => {
                        // Need `hashes` following '#' characters to close.
                        let mut k = 0usize;
                        while k < hashes && self.peek(k) == Some('#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..hashes {
                                self.bump();
                            }
                            break;
                        }
                        content.push('"');
                    }
                    Some(c) => content.push(c),
                }
            }
            self.push(TokKind::Str(content), line, col);
            true
        } else {
            // b"..." plain byte string: consume the `b`, then the string.
            self.bump();
            self.string(line, col);
            true
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if let Some(supp) = parse_suppression(&text, line) {
            self.out.suppressions.push(supp);
        }
    }

    fn block_comment(&mut self) {
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                None => break, // unterminated: tolerate
                Some('/') if self.peek(0) == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek(0) == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {}
            }
        }
    }

    fn string(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        let mut content = String::new();
        loop {
            match self.bump() {
                None => break, // unterminated: tolerate
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('"') => content.push('"'),
                    Some('\\') => content.push('\\'),
                    Some(c) => {
                        // Other escapes kept raw; rules only compare
                        // escape-free wire names.
                        content.push('\\');
                        content.push(c);
                    }
                    None => break,
                },
                Some(c) => content.push(c),
            }
        }
        self.push(TokKind::Str(content), line, col);
    }

    /// Disambiguates `'a'` / `'\n'` (char) from `'a` / `'static` (lifetime).
    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        self.bump(); // opening quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape then closing quote.
                self.bump();
                self.bump(); // escape payload (simplified; \u{..} below)
                if self.peek(0) == Some('{') {
                    while let Some(c) = self.bump() {
                        if c == '}' {
                            break;
                        }
                    }
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Char, line, col);
            }
            Some(c) if unicode_ident_start(c) && self.peek(1) != Some('\'') => {
                // Lifetime: ident chars follow, no closing quote.
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if unicode_ident_continue(c) {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Lifetime(name), line, col);
            }
            Some(_) => {
                // 'x' char literal.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Char, line, col);
            }
            None => {
                self.push(TokKind::Char, line, col);
            }
        }
    }

    fn ident(&mut self, line: u32, col: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if unicode_ident_continue(c) {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(name), line, col);
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            // Digits, underscores, hex/float/suffix letters, exponent
            // signs. Over-eager is fine: no rule inspects numbers.
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // A `.` only belongs to the number if a digit follows
                // (so `0..n` and `1.max(2)` stay three tokens).
                if c == '.' && !self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    break;
                }
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num(text), line, col);
        let _ = self.src; // keep the borrow used
    }
}

fn unicode_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn unicode_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses `lint:allow(T1,T2): reason` out of one line comment's text.
fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    let at = comment.find("lint:allow(")?;
    let rest = &comment[at + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let tail = &rest[close + 1..];
    let reason = tail.strip_prefix(':').unwrap_or("").trim().to_string();
    Some(Suppression {
        line,
        rules,
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped_from_ident_stream() {
        let src = r#"
            // Instant::now in a comment
            /* HashMap::iter in /* a nested */ block */
            let x = "Instant::now() in a string";
            call(x);
        "#;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert_eq!(
            ids,
            vec!["let", "x", "call", "x"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn raw_strings_with_hashes_lex_as_one_token() {
        let lexed = lex(r###"let s = r#"quote " inside"#; next()"###);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["quote \" inside"]);
        assert!(idents(r###"let s = r#"quote " inside"#; next()"###).contains(&"next".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_the_following_code() {
        // Lifetimes lex as `Lifetime` tokens, never as identifiers.
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(ids, vec!["fn", "f", "x", "str", "str", "x"]);
        let lts: Vec<String> = lex("&'static STR")
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Lifetime(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(lts, vec!["static"]);
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let lexed = lex("let c = 'x'; let n = '\\n'; let u = '\\u{1F600}';");
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn positions_are_one_based_line_and_column() {
        let lexed = lex("ab\n  cd");
        assert_eq!(lexed.tokens[0].line, 1);
        assert_eq!(lexed.tokens[0].col, 1);
        assert_eq!(lexed.tokens[1].line, 2);
        assert_eq!(lexed.tokens[1].col, 3);
    }

    #[test]
    fn suppression_comments_are_collected() {
        let src = "x();\n// lint:allow(T2, E1): poisoning contract\ny();";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.line, 2);
        assert_eq!(s.rules, vec!["T2", "E1"]);
        assert_eq!(s.reason, "poisoning contract");
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        for src in [
            "\"unterminated",
            "/* unterminated",
            "r#\"unterminated",
            "'",
            "'\\",
            "b\"",
            "r###\"deep",
        ] {
            let _ = lex(src);
        }
    }

    #[test]
    fn number_dots_leave_ranges_and_method_calls_alone() {
        let ids = idents("for i in 0..n { x.max(1.5); }");
        assert!(ids.contains(&"max".to_string()));
        assert!(ids.contains(&"n".to_string()));
    }
}
