//! Recursive-descent parser for the kernel-specification language.
//!
//! ```text
//! program := decl* stmt*
//! decl    := "var" IDENT ":" IDENT ("[" NUM "]")? ";"
//! stmt    := IDENT ":=" expr ";"
//!          | IDENT "[" expr "]" ":=" expr ";"
//!          | "if" expr "then" stmt* ("else" stmt*)? "end" ";"?
//!          | "while" expr "do" stmt* "end" ";"?
//!          | "skip" ";"
//! expr    := or-chain of comparisons over +,-,*,/,% terms
//! ```

use crate::ast::{BinOp, Expr, Program, Stmt, VarDecl};
use crate::lexer::{lex, LexError, Tok, Token};
use core::fmt;

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line (0 = end of input).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line(),
            message: e.message(),
        }
    }
}

/// Parses source text into a [`Program`].
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    p.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|t| t.line)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(self.error(format!("expected {want}, found {t}"))),
            None => Err(self.error(format!("expected {want}, found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(self.error(format!("expected identifier, found {t}"))),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut decls = Vec::new();
        while self.at_keyword("var") {
            self.pos += 1;
            let name = self.expect_ident()?;
            self.expect(&Tok::Colon)?;
            let class = self.expect_ident()?;
            let array = if self.peek() == Some(&Tok::LBracket) {
                self.pos += 1;
                let n = match self.next() {
                    Some(Tok::Num(n)) if n > 0 => n as usize,
                    _ => return Err(self.error("array size must be a positive literal")),
                };
                self.expect(&Tok::RBracket)?;
                Some(n)
            } else {
                None
            };
            self.expect(&Tok::Semi)?;
            decls.push(VarDecl { name, class, array });
        }
        let body = self.stmts(&[])?;
        if self.pos < self.tokens.len() {
            return Err(self.error("trailing input after program"));
        }
        Ok(Program { decls, body })
    }

    /// Parses statements until end of input or one of the stop keywords.
    fn stmts(&mut self, stops: &[&str]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(Tok::Ident(s)) if stops.contains(&s.as_str()) => break,
                _ => out.push(self.stmt()?),
            }
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        if self.eat_keyword("skip") {
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Skip { line });
        }
        if self.eat_keyword("if") {
            let cond = self.expr()?;
            if !self.eat_keyword("then") {
                return Err(self.error("expected 'then'"));
            }
            let then_body = self.stmts(&["else", "end"])?;
            let else_body = if self.eat_keyword("else") {
                self.stmts(&["end"])?
            } else {
                Vec::new()
            };
            if !self.eat_keyword("end") {
                return Err(self.error("expected 'end'"));
            }
            let _ = self.peek() == Some(&Tok::Semi) && {
                self.pos += 1;
                true
            };
            return Ok(Stmt::If {
                line,
                cond,
                then_body,
                else_body,
            });
        }
        if self.eat_keyword("while") {
            let cond = self.expr()?;
            if !self.eat_keyword("do") {
                return Err(self.error("expected 'do'"));
            }
            let body = self.stmts(&["end"])?;
            if !self.eat_keyword("end") {
                return Err(self.error("expected 'end'"));
            }
            let _ = self.peek() == Some(&Tok::Semi) && {
                self.pos += 1;
                true
            };
            return Ok(Stmt::While { line, cond, body });
        }
        // Assignment.
        let target = self.expect_ident()?;
        if self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            let index = self.expr()?;
            self.expect(&Tok::RBracket)?;
            self.expect(&Tok::Assign)?;
            let expr = self.expr()?;
            self.expect(&Tok::Semi)?;
            Ok(Stmt::AssignIndex {
                line,
                target,
                index,
                expr,
            })
        } else {
            self.expect(&Tok::Assign)?;
            let expr = self.expr()?;
            self.expect(&Tok::Semi)?;
            Ok(Stmt::Assign { line, target, expr })
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.at_keyword("or") {
            self.pos += 1;
            let right = self.and_expr()?;
            left = Expr::Bin(BinOp::Or, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.cmp_expr()?;
        while self.at_keyword("and") {
            self.pos += 1;
            let right = self.cmp_expr()?;
            left = Expr::Bin(BinOp::And, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            Ok(Expr::Bin(op, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary_expr()?;
            left = Expr::Bin(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.at_keyword("not") {
            self.pos += 1;
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            let e = self.unary_expr()?;
            return Ok(Expr::Bin(BinOp::Sub, Box::new(Expr::Num(0)), Box::new(e)));
        }
        match self.next() {
            Some(Tok::Num(n)) => Ok(Expr::Num(n)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.peek() == Some(&Tok::LBracket) {
                    self.pos += 1;
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    Ok(Expr::Index(name, Box::new(idx)))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Some(t) => Err(self.error(format!("unexpected token {t}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations_and_assignment() {
        let p = parse("var x : low; var a : high[4]; x := x + 1;").unwrap();
        assert_eq!(p.decls.len(), 2);
        assert_eq!(p.decls[1].array, Some(4));
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn lex_errors_name_their_line_once() {
        let e = parse("var x : low;\nx := 99999999999999999999;").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "integer literal too large")
        );
        assert_eq!(e.to_string(), "line 2: integer literal too large");
        let e = parse("var x : low; x := ?;").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (1, "unexpected character '?'")
        );
        assert_eq!(e.to_string(), "line 1: unexpected character '?'");
    }

    #[test]
    fn parses_if_else() {
        let p = parse(
            "var x : low; var y : low;
             if x = 0 then y := 1; else y := 2; end",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                assert_eq!(then_body.len(), 1);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_while_and_arrays() {
        let p = parse(
            "var a : low[8]; var i : low;
             while i < 8 do a[i] := i * 2; i := i + 1; end",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::While { body, .. } => assert_eq!(body.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("var x : low; x := 1 + 2 * 3;").unwrap();
        match &p.body[0] {
            Stmt::Assign { expr, .. } => {
                assert_eq!(
                    *expr,
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Num(1)),
                        Box::new(Expr::Bin(
                            BinOp::Mul,
                            Box::new(Expr::Num(2)),
                            Box::new(Expr::Num(3))
                        ))
                    )
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_not() {
        let p = parse("var x : low; x := -x; x := not (x = 1);").unwrap();
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn missing_semicolon_errors() {
        let e = parse("var x : low; x := 1").unwrap_err();
        assert!(e.message.contains("expected ;"));
    }

    #[test]
    fn trailing_garbage_errors() {
        let e = parse("var x : low; x := 1; end").unwrap_err();
        assert!(e.message.contains("expected"));
    }
}
