//! Tokenizer for the kernel-specification language.

use core::fmt;

/// A token with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 1-based line number.
    pub line: usize,
    /// The token kind.
    pub kind: Tok,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Num(i64),
    /// `:=`
    Assign,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Num(n) => write!(f, "{n}"),
            Tok::Assign => write!(f, ":="),
            Tok::Colon => write!(f, ":"),
            Tok::Semi => write!(f, ";"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::Eq => write!(f, "="),
            Tok::Ne => write!(f, "<>"),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
        }
    }
}

/// A lexing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// A character no token starts with.
    Unexpected {
        /// 1-based line.
        line: usize,
        /// The offending character.
        ch: char,
    },
    /// An integer literal too large for an `i64`.
    TooLarge {
        /// 1-based line.
        line: usize,
    },
}

impl LexError {
    /// The 1-based line of the error.
    pub fn line(&self) -> usize {
        match *self {
            LexError::Unexpected { line, .. } | LexError::TooLarge { line } => line,
        }
    }

    /// What went wrong, without the line.
    pub fn message(&self) -> String {
        match self {
            LexError::Unexpected { ch, .. } => format!("unexpected character {ch:?}"),
            LexError::TooLarge { .. } => "integer literal too large".to_string(),
        }
    }
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line(), self.message())
    }
}

impl std::error::Error for LexError {}

/// Tokenizes source text. Comments run from `--` to end of line.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = match raw.find("--") {
            Some(i) => &raw[..i],
            None => raw,
        };
        let mut chars = text.chars().peekable();
        while let Some(&c) = chars.peek() {
            let kind = match c {
                c if c.is_whitespace() => {
                    chars.next();
                    continue;
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    Tok::Ident(s)
                }
                c if c.is_ascii_digit() => {
                    let mut n: i64 = 0;
                    while let Some(&c) = chars.peek() {
                        if let Some(d) = c.to_digit(10) {
                            n = n
                                .checked_mul(10)
                                .and_then(|n| n.checked_add(i64::from(d)))
                                .ok_or(LexError::TooLarge { line })?;
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    Tok::Num(n)
                }
                ':' => {
                    chars.next();
                    if chars.peek() == Some(&'=') {
                        chars.next();
                        Tok::Assign
                    } else {
                        Tok::Colon
                    }
                }
                '<' => {
                    chars.next();
                    match chars.peek() {
                        Some('=') => {
                            chars.next();
                            Tok::Le
                        }
                        Some('>') => {
                            chars.next();
                            Tok::Ne
                        }
                        _ => Tok::Lt,
                    }
                }
                '>' => {
                    chars.next();
                    if chars.peek() == Some(&'=') {
                        chars.next();
                        Tok::Ge
                    } else {
                        Tok::Gt
                    }
                }
                ';' => {
                    chars.next();
                    Tok::Semi
                }
                '[' => {
                    chars.next();
                    Tok::LBracket
                }
                ']' => {
                    chars.next();
                    Tok::RBracket
                }
                '(' => {
                    chars.next();
                    Tok::LParen
                }
                ')' => {
                    chars.next();
                    Tok::RParen
                }
                '+' => {
                    chars.next();
                    Tok::Plus
                }
                '-' => {
                    chars.next();
                    Tok::Minus
                }
                '*' => {
                    chars.next();
                    Tok::Star
                }
                '/' => {
                    chars.next();
                    Tok::Slash
                }
                '%' => {
                    chars.next();
                    Tok::Percent
                }
                '=' => {
                    chars.next();
                    Tok::Eq
                }
                other => return Err(LexError::Unexpected { line, ch: other }),
            };
            out.push(Token { line, kind });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_assignment() {
        let toks = lex("x := y + 1;").unwrap();
        let kinds: Vec<&Tok> = toks.iter().map(|t| &t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                &Tok::Ident("x".into()),
                &Tok::Assign,
                &Tok::Ident("y".into()),
                &Tok::Plus,
                &Tok::Num(1),
                &Tok::Semi
            ]
        );
    }

    #[test]
    fn lexes_comparisons() {
        let toks = lex("a <= b <> c >= d < e > f = g").unwrap();
        let ops: Vec<&Tok> = toks
            .iter()
            .map(|t| &t.kind)
            .filter(|k| !matches!(k, Tok::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![&Tok::Le, &Tok::Ne, &Tok::Ge, &Tok::Lt, &Tok::Gt, &Tok::Eq]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("x -- the whole rest ; is : ignored\ny").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn bad_character_errors() {
        let e = lex("x ? y").unwrap_err();
        assert_eq!(e, LexError::Unexpected { line: 1, ch: '?' });
        assert_eq!(e.line(), 1);
    }

    #[test]
    fn integer_literals_up_to_i64_max_lex_and_larger_ones_error() {
        let toks = lex("x := 9223372036854775807;").unwrap();
        assert_eq!(toks[2].kind, Tok::Num(i64::MAX));
        for text in ["9223372036854775808", "12345678901234567890"] {
            let e = lex(&format!("x := 1;\ny := {text};")).unwrap_err();
            assert_eq!(e, LexError::TooLarge { line: 2 });
            assert_eq!(e.to_string(), "line 2: integer literal too large");
        }
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }
}
