//! Recursive-descent parser for Minifor.
//!
//! Grammar (uppercase = token, `SEP` = newline/`;`):
//!
//! ```text
//! program   := item*
//! item      := global | procedure
//! global    := "global" ["real"] IDENT ["(" INT ")"] ["=" ["-"] INT] SEP
//! procedure := ("proc" | "func") IDENT "(" params? ")" SEP decls body "end" SEP
//!            | "main" SEP decls body "end" SEP
//! params    := param ("," param)*
//! param     := ["real"] IDENT ["(" ")"]
//! decls     := (("integer" | "real") item ("," item)* SEP)*   item := IDENT ["(" INT ")"]
//! body      := stmt*
//! stmt      := IDENT ["(" expr ")"] "=" expr SEP
//!            | "if" expr "then" SEP body ["else" SEP body] "end" SEP
//!            | "while" expr "do" SEP body "end" SEP
//!            | "do" IDENT "=" expr "," expr ["," expr] SEP body "end" SEP
//!            | "call" IDENT "(" args? ")" SEP
//!            | "return" [expr] SEP
//!            | "read" "(" lvalue ")" SEP
//!            | "print" "(" expr ")" SEP
//! expr      := or;  or := and ("or" and)*;  and := not ("and" not)*
//! not       := "not" not | cmp;  cmp := add (CMPOP add)?
//! add       := mul (("+"|"-") mul)*;  mul := unary (("*"|"/"|"%") unary)*
//! unary     := "-" unary | primary
//! primary   := INT | REAL | IDENT ["(" args ")"] | "(" expr ")"
//! ```
//!
//! `IDENT "(" args ")"` in an expression is ambiguous between an array
//! element and a function call; the parser emits [`ExprKind::NameArgs`] and
//! the type checker resolves it.
//!
//! Identifiers are interned as they are parsed: the tree names them by
//! [`Symbol`], and the returned [`Program`] owns the interner.

use crate::ast::*;
use crate::diag::{Diagnostic, Diagnostics, Phase};
use crate::lexer::lex;
use crate::span::Span;
use crate::symbol::Interner;
use crate::token::{Token, TokenKind};

/// Parses Minifor source into an unresolved [`Program`].
///
/// # Errors
///
/// Returns lexical errors, or the first parse error encountered.
pub fn parse(source: &str) -> Result<Program, Diagnostics> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        source,
        tokens,
        pos: 0,
        depth: 0,
        names: Interner::new(),
    };
    parser.program().map_err(Diagnostics::single)
}

/// Maximum statement/expression nesting the recursive-descent parser
/// accepts. Beyond this a pathological input (say, ten thousand nested
/// parentheses) would overflow the parser's own call stack — an abort no
/// `Result` can catch — so it is rejected with a regular diagnostic
/// instead. Each nesting level costs around ten parser frames (the
/// precedence chain), so the bound is sized for the smallest stack the
/// parser must survive on: a 2 MiB test thread in a debug build. It is
/// still far above anything a human-written program reaches, and it
/// covers the later recursive passes (type checking, lowering,
/// interpretation) with room to spare.
const MAX_NESTING_DEPTH: u32 = 64;

struct Parser<'a> {
    source: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    /// Current combined statement + expression nesting depth.
    depth: u32,
    /// The program's identifiers, interned as they are met.
    names: Interner,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser<'_> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Describes the current token for an error message.
    fn describe_peek(&self) -> String {
        self.tokens[self.pos].describe(self.source)
    }

    /// Consumes the current token. The final `Eof` stays put, so bumping
    /// at the end of input returns it again.
    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    /// Consumes the current token, which the caller peeked to be an
    /// identifier, and returns its interned name.
    fn bump_ident(&mut self) -> Symbol {
        let tok = self.bump();
        debug_assert_eq!(tok.kind, TokenKind::Ident);
        self.names.intern(tok.text(self.source))
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, ctx: &str) -> PResult<Token> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(format!(
                "expected {} {}, found {}",
                kind.describe(),
                ctx,
                self.describe_peek()
            )))
        }
    }

    fn expect_sep(&mut self, ctx: &str) -> PResult<()> {
        if self.at(&TokenKind::Newline) {
            self.bump();
            Ok(())
        } else if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected end of line {}, found {}",
                ctx,
                self.describe_peek()
            )))
        }
    }

    fn skip_seps(&mut self) {
        while self.at(&TokenKind::Newline) {
            self.bump();
        }
    }

    fn error(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Phase::Parse, self.peek_span(), msg)
    }

    fn ident(&mut self, ctx: &str) -> PResult<(Symbol, Span)> {
        if !self.at(&TokenKind::Ident) {
            return Err(self.error(format!(
                "expected identifier {}, found {}",
                ctx,
                self.describe_peek()
            )));
        }
        let span = self.peek_span();
        Ok((self.bump_ident(), span))
    }

    // ---- top level ----------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut program = Program::default();
        self.skip_seps();
        while !self.at(&TokenKind::Eof) {
            match self.peek() {
                TokenKind::KwGlobal => program.globals.push(self.global()?),
                TokenKind::KwProc => program.procs.push(self.procedure(ProcKind::Subroutine)?),
                TokenKind::KwFunc => program.procs.push(self.procedure(ProcKind::Function)?),
                TokenKind::KwMain => program.procs.push(self.main_proc()?),
                _ => {
                    return Err(self.error(format!(
                        "expected `global`, `proc`, `func` or `main`, found {}",
                        self.describe_peek()
                    )))
                }
            }
            self.skip_seps();
        }
        program.names = std::mem::take(&mut self.names);
        Ok(program)
    }

    fn global(&mut self) -> PResult<GlobalDecl> {
        let start = self.peek_span();
        self.bump(); // `global`
        let base = if self.eat(&TokenKind::KwReal) {
            Base::Real
        } else {
            Base::Int
        };
        let (name, _) = self.ident("after `global`")?;
        let mut ty = Ty {
            base,
            shape: Shape::Scalar,
        };
        if self.eat(&TokenKind::LParen) {
            let len = self.array_len()?;
            self.expect(&TokenKind::RParen, "after array length")?;
            ty.shape = Shape::Array(Some(len));
        }
        let mut init = None;
        if self.eat(&TokenKind::Assign) {
            if ty != Ty::INT {
                return Err(self.error("only integer scalar globals may have initializers"));
            }
            let neg = self.eat(&TokenKind::Minus);
            match *self.peek() {
                TokenKind::Int(v) => {
                    self.bump();
                    init = Some(if neg { v.wrapping_neg() } else { v });
                }
                TokenKind::IntMinMagnitude if neg => {
                    self.bump();
                    init = Some(i64::MIN);
                }
                _ => {
                    return Err(self.error(format!(
                        "global initializer must be an integer literal, found {}",
                        self.describe_peek()
                    )))
                }
            }
        }
        let span = start.merge(self.peek_span());
        self.expect_sep("after global declaration")?;
        Ok(GlobalDecl {
            name,
            ty,
            init,
            span,
        })
    }

    fn array_len(&mut self) -> PResult<u32> {
        match *self.peek() {
            TokenKind::Int(v) if v > 0 && v <= u32::MAX as i64 => {
                self.bump();
                Ok(v as u32)
            }
            _ => Err(self.error(format!(
                "array length must be a positive integer literal, found {}",
                self.describe_peek()
            ))),
        }
    }

    fn procedure(&mut self, kind: ProcKind) -> PResult<Proc> {
        let start = self.peek_span();
        self.bump(); // `proc` or `func`
        let (name, _) = self.ident("as procedure name")?;
        self.expect(&TokenKind::LParen, "after procedure name")?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                params.push(self.param()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "after parameter list")?;
        let span = start.merge(self.peek_span());
        self.expect_sep("after procedure header")?;
        let (decls, body) = self.proc_body()?;
        Ok(Proc {
            name,
            kind,
            params,
            decls,
            body,
            span,
        })
    }

    fn main_proc(&mut self) -> PResult<Proc> {
        let span = self.peek_span();
        self.bump(); // `main`
        self.expect_sep("after `main`")?;
        let (decls, body) = self.proc_body()?;
        Ok(Proc {
            name: self.names.intern("main"),
            kind: ProcKind::Main,
            params: vec![],
            decls,
            body,
            span,
        })
    }

    fn param(&mut self) -> PResult<Param> {
        let base = if self.eat(&TokenKind::KwReal) {
            Base::Real
        } else {
            Base::Int
        };
        let (name, span) = self.ident("as parameter name")?;
        let ty = if self.eat(&TokenKind::LParen) {
            self.expect(&TokenKind::RParen, "in assumed-size array parameter")?;
            Ty::assumed_array(base)
        } else {
            Ty {
                base,
                shape: Shape::Scalar,
            }
        };
        Ok(Param { name, ty, span })
    }

    fn proc_body(&mut self) -> PResult<(Vec<LocalDecl>, Block)> {
        self.skip_seps();
        let mut decls = Vec::new();
        while matches!(self.peek(), TokenKind::KwInteger | TokenKind::KwReal) {
            self.local_decl_line(&mut decls)?;
            self.skip_seps();
        }
        let body = self.block()?;
        self.expect(&TokenKind::KwEnd, "to close procedure")?;
        self.expect_sep("after `end`")?;
        Ok((decls, body))
    }

    fn local_decl_line(&mut self, decls: &mut Vec<LocalDecl>) -> PResult<()> {
        let base = if self.eat(&TokenKind::KwReal) {
            Base::Real
        } else {
            self.bump(); // `integer`
            Base::Int
        };
        loop {
            let (name, span) = self.ident("in declaration")?;
            let ty = if self.eat(&TokenKind::LParen) {
                let len = self.array_len()?;
                self.expect(&TokenKind::RParen, "after array length")?;
                Ty::array(base, len)
            } else {
                Ty {
                    base,
                    shape: Shape::Scalar,
                }
            };
            decls.push(LocalDecl { name, ty, span });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_sep("after declaration")
    }

    // ---- statements ---------------------------------------------------

    /// Parses statements until `end` or `else` (not consumed).
    fn block(&mut self) -> PResult<Block> {
        let mut stmts = Vec::new();
        loop {
            self.skip_seps();
            match self.peek() {
                TokenKind::KwEnd | TokenKind::KwElse | TokenKind::Eof => break,
                TokenKind::KwInteger | TokenKind::KwReal => {
                    return Err(self.error(
                        "declarations must appear before the first statement of a procedure",
                    ))
                }
                _ => stmts.push(self.stmt()?),
            }
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            self.depth -= 1;
            return Err(self.error(format!(
                "statement nesting exceeds the supported depth of {MAX_NESTING_DEPTH}"
            )));
        }
        let result = self.stmt_inner();
        self.depth -= 1;
        result
    }

    fn stmt_inner(&mut self) -> PResult<Stmt> {
        let start = self.peek_span();
        match *self.peek() {
            TokenKind::Ident => self.assign_stmt(),
            TokenKind::KwIf => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::KwThen, "after `if` condition")?;
                self.expect_sep("after `then`")?;
                let then_blk = self.block()?;
                let else_blk = if self.eat(&TokenKind::KwElse) {
                    self.expect_sep("after `else`")?;
                    self.block()?
                } else {
                    Vec::new()
                };
                let end_tok = self.expect(&TokenKind::KwEnd, "to close `if`")?;
                let span = start.merge(end_tok.span);
                self.expect_sep("after `end`")?;
                Ok(Stmt {
                    kind: StmtKind::If {
                        cond,
                        then_blk,
                        else_blk,
                    },
                    span,
                })
            }
            TokenKind::KwWhile => {
                self.bump();
                let cond = self.expr()?;
                self.expect(&TokenKind::KwDo, "after `while` condition")?;
                self.expect_sep("after `do`")?;
                let body = self.block()?;
                let end_tok = self.expect(&TokenKind::KwEnd, "to close `while`")?;
                let span = start.merge(end_tok.span);
                self.expect_sep("after `end`")?;
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            TokenKind::KwDo => {
                self.bump();
                let (var, _) = self.ident("as `do` loop variable")?;
                self.expect(&TokenKind::Assign, "after loop variable")?;
                let from = self.expr()?;
                self.expect(&TokenKind::Comma, "after `do` initial value")?;
                let to = self.expr()?;
                let step = if self.eat(&TokenKind::Comma) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_sep("after `do` header")?;
                let body = self.block()?;
                let end_tok = self.expect(&TokenKind::KwEnd, "to close `do`")?;
                let span = start.merge(end_tok.span);
                self.expect_sep("after `end`")?;
                Ok(Stmt {
                    kind: StmtKind::Do {
                        var,
                        from,
                        to,
                        step,
                        body,
                    },
                    span,
                })
            }
            TokenKind::KwCall => {
                self.bump();
                let (name, _) = self.ident("as callee name")?;
                self.expect(&TokenKind::LParen, "after callee name")?;
                let args = self.args()?;
                let rp = self.expect(&TokenKind::RParen, "after arguments")?;
                let span = start.merge(rp.span);
                self.expect_sep("after `call`")?;
                Ok(Stmt {
                    kind: StmtKind::Call { name, args },
                    span,
                })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.at(&TokenKind::Newline) || self.at(&TokenKind::Eof) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let span = start.merge(self.peek_span());
                self.expect_sep("after `return`")?;
                Ok(Stmt {
                    kind: StmtKind::Return { value },
                    span,
                })
            }
            TokenKind::KwRead => {
                self.bump();
                self.expect(&TokenKind::LParen, "after `read`")?;
                let target = self.lvalue()?;
                let rp = self.expect(&TokenKind::RParen, "after `read` target")?;
                let span = start.merge(rp.span);
                self.expect_sep("after `read`")?;
                Ok(Stmt {
                    kind: StmtKind::Read { target },
                    span,
                })
            }
            TokenKind::KwPrint => {
                self.bump();
                self.expect(&TokenKind::LParen, "after `print`")?;
                let value = self.expr()?;
                let rp = self.expect(&TokenKind::RParen, "after `print` value")?;
                let span = start.merge(rp.span);
                self.expect_sep("after `print`")?;
                Ok(Stmt {
                    kind: StmtKind::Print { value },
                    span,
                })
            }
            _ => Err(self.error(format!(
                "expected a statement, found {}",
                self.describe_peek()
            ))),
        }
    }

    fn assign_stmt(&mut self) -> PResult<Stmt> {
        let target = self.lvalue()?;
        let start = target.span;
        self.expect(&TokenKind::Assign, "in assignment")?;
        let value = self.expr()?;
        let span = start.merge(value.span);
        self.expect_sep("after assignment")?;
        Ok(Stmt {
            kind: StmtKind::Assign { target, value },
            span,
        })
    }

    fn lvalue(&mut self) -> PResult<LValue> {
        let (name, span) = self.ident("as assignment target")?;
        if self.eat(&TokenKind::LParen) {
            let idx = self.expr()?;
            let rp = self.expect(&TokenKind::RParen, "after array index")?;
            Ok(LValue {
                kind: LValueKind::Element(name, Box::new(idx)),
                span: span.merge(rp.span),
            })
        } else {
            Ok(LValue {
                kind: LValueKind::Scalar(name),
                span,
            })
        }
    }

    fn args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        if self.at(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(args)
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            self.depth -= 1;
            return Err(self.error(format!(
                "expression nesting exceeds the supported depth of {MAX_NESTING_DEPTH}"
            )));
        }
        let result = self.or_expr();
        self.depth -= 1;
        result
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::KwOr) {
            let rhs = self.and_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat(&TokenKind::KwAnd) {
            let rhs = self.not_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary(BinOp::And, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> PResult<Expr> {
        if self.at(&TokenKind::KwNot) {
            self.depth += 1;
            if self.depth > MAX_NESTING_DEPTH {
                self.depth -= 1;
                return Err(self.error(format!(
                    "expression nesting exceeds the supported depth of {MAX_NESTING_DEPTH}"
                )));
            }
            let start = self.peek_span();
            self.bump();
            let operand = self.not_expr();
            self.depth -= 1;
            let operand = operand?;
            let span = start.merge(operand.span);
            Ok(Expr {
                kind: ExprKind::Unary(UnOp::Not, Box::new(operand)),
                span,
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        let span = lhs.span.merge(rhs.span);
        Ok(Expr {
            kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
            span,
        })
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if self.at(&TokenKind::Minus) {
            let start = self.peek_span();
            self.bump();
            // `-9223372036854775808` is the one literal whose magnitude
            // does not fit in i64; the lexer hands it over as a marker
            // token and the negation lands exactly on `i64::MIN`.
            if self.at(&TokenKind::IntMinMagnitude) {
                let end = self.peek_span();
                self.bump();
                return Ok(Expr {
                    kind: ExprKind::IntLit(i64::MIN),
                    span: start.merge(end),
                });
            }
            let operand = self.unary_expr()?;
            let span = start.merge(operand.span);
            // Fold a negated literal immediately so `-5` is a literal (the
            // literal jump function depends on this).
            if let ExprKind::IntLit(v) = operand.kind {
                return Ok(Expr {
                    kind: ExprKind::IntLit(v.wrapping_neg()),
                    span,
                });
            }
            if let ExprKind::RealLit(v) = operand.kind {
                return Ok(Expr {
                    kind: ExprKind::RealLit(-v),
                    span,
                });
            }
            Ok(Expr {
                kind: ExprKind::Unary(UnOp::Neg, Box::new(operand)),
                span,
            })
        } else {
            self.primary_expr()
        }
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let span = self.peek_span();
        match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    span,
                })
            }
            TokenKind::Real(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::RealLit(v),
                    span,
                })
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                let rp = self.expect(&TokenKind::RParen, "to close parenthesized expression")?;
                Ok(Expr {
                    kind: inner.kind,
                    span: span.merge(rp.span),
                })
            }
            TokenKind::Ident => {
                let name = self.bump_ident();
                if self.eat(&TokenKind::LParen) {
                    let args = self.args()?;
                    let rp = self.expect(&TokenKind::RParen, "after arguments")?;
                    Ok(Expr {
                        kind: ExprKind::NameArgs(name, args),
                        span: span.merge(rp.span),
                    })
                } else {
                    Ok(Expr {
                        kind: ExprKind::Name(name),
                        span,
                    })
                }
            }
            _ => Err(self.error(format!(
                "expected an expression, found {}",
                self.describe_peek()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed:\n{}", e.render(src)),
        }
    }

    fn parse_err(src: &str) -> String {
        parse(src).unwrap_err().first().message.clone()
    }

    #[test]
    fn empty_program() {
        let p = parse_ok("");
        assert!(p.globals.is_empty());
        assert!(p.procs.is_empty());
    }

    #[test]
    fn minimal_main() {
        let p = parse_ok("main\nend\n");
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.procs[0].kind, ProcKind::Main);
        assert!(p.procs[0].body.is_empty());
    }

    #[test]
    fn globals() {
        let p = parse_ok("global n = 5\nglobal m\nglobal a(10)\nglobal real x\nglobal real b(4)\n");
        assert_eq!(p.globals.len(), 5);
        assert_eq!(p.globals[0].init, Some(5));
        assert_eq!(p.globals[0].ty, Ty::INT);
        assert_eq!(p.globals[1].init, None);
        assert_eq!(p.globals[2].ty, Ty::array(Base::Int, 10));
        assert_eq!(p.globals[3].ty, Ty::REAL);
        assert_eq!(p.globals[4].ty, Ty::array(Base::Real, 4));
    }

    #[test]
    fn negative_global_init() {
        let p = parse_ok("global n = -7\n");
        assert_eq!(p.globals[0].init, Some(-7));
        let p = parse_ok("global n = -9223372036854775808\n");
        assert_eq!(p.globals[0].init, Some(i64::MIN));
        // The magnitude without the minus still does not fit.
        let msg = parse_err("global n = 9223372036854775808\n");
        assert!(msg.contains("integer literal"), "{msg}");
    }

    #[test]
    fn real_global_init_rejected() {
        let msg = parse_err("global real x = 3\n");
        assert!(msg.contains("integer scalar"), "{msg}");
    }

    #[test]
    fn proc_with_params() {
        let p = parse_ok("proc f(x, real y, a(), real b())\nend\n");
        let f = &p.procs[0];
        assert_eq!(f.kind, ProcKind::Subroutine);
        assert_eq!(f.params.len(), 4);
        assert_eq!(f.params[0].ty, Ty::INT);
        assert_eq!(f.params[1].ty, Ty::REAL);
        assert_eq!(f.params[2].ty, Ty::assumed_array(Base::Int));
        assert_eq!(f.params[3].ty, Ty::assumed_array(Base::Real));
    }

    #[test]
    fn local_decls() {
        let p = parse_ok("proc f()\ninteger i, a(5)\nreal t\ni = 1\nend\n");
        let f = &p.procs[0];
        assert_eq!(f.decls.len(), 3);
        assert_eq!(f.decls[1].ty, Ty::array(Base::Int, 5));
        assert_eq!(f.decls[2].ty, Ty::REAL);
        assert_eq!(f.body.len(), 1);
    }

    #[test]
    fn decl_after_stmt_rejected() {
        let msg = parse_err("proc f()\nx = 1\ninteger y\nend\n");
        assert!(msg.contains("before the first statement"), "{msg}");
    }

    #[test]
    fn if_else() {
        let p = parse_ok("main\nif x > 0 then\ny = 1\nelse\ny = 2\nend\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len(), 1);
                assert_eq!(else_blk.len(), 1);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn nested_if() {
        let p = parse_ok("main\nif a then\nif b then\nx = 1\nend\nend\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                assert_eq!(then_blk.len(), 1);
                assert!(else_blk.is_empty());
                assert!(matches!(then_blk[0].kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn while_loop() {
        let p = parse_ok("main\nwhile i < 10 do\ni = i + 1\nend\nend\n");
        assert!(matches!(p.procs[0].body[0].kind, StmtKind::While { .. }));
    }

    #[test]
    fn do_loop_with_and_without_step() {
        let p =
            parse_ok("main\ndo i = 1, 10\ns = s + i\nend\ndo j = 10, 1, -2\ns = s - j\nend\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Do { var, step, .. } => {
                assert_eq!(&p.names[*var], "i");
                assert!(step.is_none());
            }
            other => panic!("expected do, got {other:?}"),
        }
        match &p.procs[0].body[1].kind {
            StmtKind::Do { var, step, .. } => {
                assert_eq!(&p.names[*var], "j");
                assert!(step.is_some());
            }
            other => panic!("expected do, got {other:?}"),
        }
    }

    #[test]
    fn call_and_return() {
        let p = parse_ok("proc f(x)\ncall g(x, 1)\nreturn\nend\nfunc g(a, b)\nreturn a + b\nend\n");
        assert!(matches!(p.procs[0].body[0].kind, StmtKind::Call { .. }));
        match &p.procs[0].body[1].kind {
            StmtKind::Return { value } => assert!(value.is_none()),
            other => panic!("{other:?}"),
        }
        match &p.procs[1].body[0].kind {
            StmtKind::Return { value } => assert!(value.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_print() {
        let p = parse_ok("main\nread(x)\nread(a(3))\nprint(x * 2)\nend\n");
        assert!(matches!(p.procs[0].body[0].kind, StmtKind::Read { .. }));
        match &p.procs[0].body[1].kind {
            StmtKind::Read { target } => {
                assert!(matches!(target.kind, LValueKind::Element(..)));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(p.procs[0].body[2].kind, StmtKind::Print { .. }));
    }

    #[test]
    fn precedence() {
        let p = parse_ok("main\nx = 1 + 2 * 3\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary(BinOp::Add, lhs, rhs) => {
                    assert_eq!(lhs.as_int_lit(), Some(1));
                    assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, ..)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let p = parse_ok("main\nx = (1 + 2) * 3\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Binary(BinOp::Mul, ..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn logical_precedence() {
        // `a or b and not c < d` == `a or (b and (not (c < d)))`
        let p = parse_ok("main\nx = a or b and not c < d\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary(BinOp::Or, _, rhs) => match &rhs.kind {
                    ExprKind::Binary(BinOp::And, _, rhs2) => {
                        assert!(matches!(rhs2.kind, ExprKind::Unary(UnOp::Not, _)));
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_literal_folds() {
        let p = parse_ok("main\nx = -5\ny = -(a)\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => assert_eq!(value.as_int_lit(), Some(-5)),
            other => panic!("{other:?}"),
        }
        match &p.procs[0].body[1].kind {
            StmtKind::Assign { value, .. } => {
                assert!(matches!(value.kind, ExprKind::Unary(UnOp::Neg, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn i64_min_literal_parses_only_under_unary_minus() {
        let p = parse_ok("main\nx = -9223372036854775808\ny = 1 - -9223372036854775808\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => assert_eq!(value.as_int_lit(), Some(i64::MIN)),
            other => panic!("{other:?}"),
        }
        match &p.procs[0].body[1].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary(BinOp::Sub, _, rhs) => {
                    assert_eq!(rhs.as_int_lit(), Some(i64::MIN));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // Without the minus the magnitude is rejected at parse time.
        let msg = parse_err("main\nx = 9223372036854775808\nend\n");
        assert!(msg.contains("9223372036854775808"), "{msg}");
    }

    #[test]
    fn name_args_is_ambiguous_node() {
        let p = parse_ok("main\nx = f(1) + a(i)\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { value, .. } => match &value.kind {
                ExprKind::Binary(BinOp::Add, lhs, rhs) => {
                    assert!(matches!(lhs.kind, ExprKind::NameArgs(..)));
                    assert!(matches!(rhs.kind, ExprKind::NameArgs(..)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn element_assignment() {
        let p = parse_ok("main\na(i + 1) = 3\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Assign { target, .. } => {
                assert!(matches!(target.kind, LValueKind::Element(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_end_is_error() {
        let msg = parse_err("main\nx = 1\n");
        assert!(msg.contains("`end`"), "{msg}");
    }

    #[test]
    fn chained_comparison_is_error() {
        let msg = parse_err("main\nx = 1 < 2 < 3\nend\n");
        assert!(msg.contains("end of line"), "{msg}");
    }

    #[test]
    fn garbage_toplevel_is_error() {
        let msg = parse_err("banana\n");
        assert!(msg.contains("expected `global`"), "{msg}");
    }

    #[test]
    fn empty_call_args() {
        let p = parse_ok("main\ncall init()\nend\nproc init()\nend\n");
        match &p.procs[0].body[0].kind {
            StmtKind::Call { args, .. } => assert!(args.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn semicolons_separate_statements() {
        let p = parse_ok("main; x = 1; y = 2; end");
        assert_eq!(p.procs[0].body.len(), 2);
    }

    #[test]
    fn pathological_paren_nesting_is_a_diagnostic_not_an_abort() {
        // Deep enough to overflow the parser's call stack without the
        // depth guard; must come back as an ordinary parse error.
        let deep = format!(
            "main\nx = {}1{}\nend\n",
            "(".repeat(50_000),
            ")".repeat(50_000)
        );
        let msg = parse_err(&deep);
        assert!(msg.contains("nesting exceeds"), "{msg}");
    }

    #[test]
    fn pathological_not_nesting_is_a_diagnostic_not_an_abort() {
        let deep = format!("main\nif {}1 then\nend\nend\n", "not ".repeat(50_000));
        let msg = parse_err(&deep);
        assert!(msg.contains("nesting exceeds"), "{msg}");
    }

    #[test]
    fn pathological_if_nesting_is_a_diagnostic_not_an_abort() {
        let deep = format!(
            "main\n{}x = 1\n{}end\n",
            "if 1 then\n".repeat(50_000),
            "end\n".repeat(50_000)
        );
        let msg = parse_err(&deep);
        assert!(msg.contains("nesting exceeds"), "{msg}");
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let depth = 48;
        let src = format!(
            "main\nx = {}1{}\nend\n",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        parse_ok(&src);
    }

    #[test]
    fn adversarial_inputs_never_panic() {
        // Truncations, overflows, stray bytes: every one must come back
        // as a Diagnostics value, not a panic.
        for src in [
            "",
            "main",
            "main\nx = ",
            "main\nx = 99999999999999999999999\nend\n",
            "main\nx = 1.\nend\n",
            "proc f(",
            "main\n\u{0}\u{1}\nend\n",
            "main\nπ = 1\nend\n",
            "main\nx = (((\nend\n",
            "do do do",
            "main\ncall\nend\n",
        ] {
            let _ = parse(src);
        }
    }
}
