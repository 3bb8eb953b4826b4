//! The Minifor lexer.
//!
//! Minifor is line-oriented: statements end at a newline or `;`. The lexer
//! collapses runs of separators into a single [`TokenKind::Newline`] token and
//! strips `#`-to-end-of-line comments.

use crate::diag::{Diagnostic, Diagnostics, Phase};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Tokenizes `source` into a vector ending with a single [`TokenKind::Eof`].
///
/// # Errors
///
/// Returns every lexical error found (unknown characters, malformed or
/// overflowing numeric literals).
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostics> {
    let mut lexer = Lexer {
        src: source.as_bytes(),
        pos: 0,
        tokens: Vec::with_capacity(token_estimate(source)),
        errors: Vec::new(),
    };
    lexer.run();
    if lexer.errors.is_empty() {
        Ok(lexer.tokens)
    } else {
        Err(Diagnostics::new(lexer.errors))
    }
}

/// A capacity for the token vector of `source`, so that lexing ordinary
/// programs reserves it once instead of doubling it up from empty.
/// Generated Minifor runs at about one token per 2.8 bytes, hand-written
/// at three to four; the estimate errs high, since an unused tail of
/// capacity costs address space rather than touched memory.
fn token_estimate(source: &str) -> usize {
    source.len() / 2 + 2
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    tokens: Vec<Token>,
    errors: Vec<Diagnostic>,
}

impl Lexer<'_> {
    fn run(&mut self) {
        while self.pos < self.src.len() {
            let start = self.pos;
            let c = self.src[self.pos];
            match c {
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                }
                b'#' => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                b'\n' | b';' => {
                    self.pos += 1;
                    self.push_newline(start);
                }
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b',' => self.single(TokenKind::Comma),
                b'+' => self.single(TokenKind::Plus),
                b'-' => self.single(TokenKind::Minus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.single(TokenKind::Slash),
                b'%' => self.single(TokenKind::Percent),
                b'=' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::EqEq);
                    } else {
                        self.single(TokenKind::Assign);
                    }
                }
                b'!' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::NotEq);
                    } else {
                        self.pos += 1;
                        self.error(start, "unexpected character `!` (did you mean `!=`?)");
                    }
                }
                b'<' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::Le);
                    } else {
                        self.single(TokenKind::Lt);
                    }
                }
                b'>' => {
                    if self.peek_at(1) == Some(b'=') {
                        self.double(TokenKind::Ge);
                    } else {
                        self.single(TokenKind::Gt);
                    }
                }
                b'0'..=b'9' => self.number(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.word(),
                other => {
                    self.pos += 1;
                    self.error(start, format!("unexpected character `{}`", other as char));
                }
            }
        }
        // Terminate a trailing statement that lacks a newline.
        self.push_newline(self.pos);
        let end = self.pos as u32;
        self.tokens
            .push(Token::new(TokenKind::Eof, Span::point(end)));
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn single(&mut self, kind: TokenKind) {
        let start = self.pos as u32;
        self.pos += 1;
        self.tokens
            .push(Token::new(kind, Span::new(start, self.pos as u32)));
    }

    fn double(&mut self, kind: TokenKind) {
        let start = self.pos as u32;
        self.pos += 2;
        self.tokens
            .push(Token::new(kind, Span::new(start, self.pos as u32)));
    }

    fn push_newline(&mut self, start: usize) {
        // Collapse consecutive separators: emit Newline only if the previous
        // real token is not already a Newline (and at least one token exists).
        match self.tokens.last() {
            Some(tok) if tok.kind != TokenKind::Newline => {
                self.tokens.push(Token::new(
                    TokenKind::Newline,
                    Span::new(start as u32, self.pos as u32),
                ));
            }
            _ => {}
        }
    }

    fn error(&mut self, start: usize, msg: impl Into<String>) {
        self.errors.push(Diagnostic::new(
            Phase::Lex,
            Span::new(start as u32, self.pos as u32),
            msg,
        ));
    }

    fn number(&mut self) {
        let start = self.pos;
        while matches!(self.peek_at(0), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // A real literal requires a digit after the dot; `1.` is an error and
        // `a.b` never arises (no `.` operator exists).
        let is_real = self.peek_at(0) == Some(b'.');
        if is_real {
            self.pos += 1;
            if !matches!(self.peek_at(0), Some(b'0'..=b'9')) {
                self.error(start, "real literal requires digits after `.`");
                return;
            }
            while matches!(self.peek_at(0), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        let span = Span::new(start as u32, self.pos as u32);
        if is_real {
            match text.parse::<f64>() {
                Ok(v) => self.tokens.push(Token::new(TokenKind::Real(v), span)),
                Err(_) => self.error(start, format!("malformed real literal `{text}`")),
            }
        } else {
            match text.parse::<i64>() {
                Ok(v) => self.tokens.push(Token::new(TokenKind::Int(v), span)),
                // `9223372036854775808` overflows i64 on its own, but is
                // exactly `-i64::MIN`: emit a marker the parser accepts
                // only directly under a unary minus.
                Err(_) if text.parse::<u64>() == Ok(1u64 << 63) => self
                    .tokens
                    .push(Token::new(TokenKind::IntMinMagnitude, span)),
                Err(_) => self.error(start, format!("integer literal `{text}` overflows i64")),
            }
        }
    }

    fn word(&mut self) {
        let start = self.pos;
        while matches!(
            self.peek_at(0),
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii word");
        let span = Span::new(start as u32, self.pos as u32);
        let kind = TokenKind::keyword(text).unwrap_or(TokenKind::Ident);
        self.tokens.push(Token::new(kind, span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn texts(src: &str) -> Vec<&str> {
        lex(src)
            .unwrap()
            .into_iter()
            .filter(|t| t.kind == Ident)
            .map(|t| t.text(src))
            .collect()
    }

    #[test]
    fn empty_input_is_just_eof() {
        assert_eq!(kinds(""), vec![Eof]);
    }

    #[test]
    fn whitespace_only_is_just_eof() {
        assert_eq!(kinds("   \t  "), vec![Eof]);
    }

    #[test]
    fn newlines_collapse() {
        assert_eq!(kinds("a\n\n\nb"), vec![Ident, Newline, Ident, Newline, Eof]);
    }

    #[test]
    fn leading_newlines_are_dropped() {
        assert_eq!(kinds("\n\n a"), vec![Ident, Newline, Eof]);
    }

    #[test]
    fn semicolon_is_newline() {
        assert_eq!(kinds("a; b"), vec![Ident, Newline, Ident, Newline, Eof]);
    }

    #[test]
    fn comments_stripped() {
        assert_eq!(
            kinds("x = 1 # set x\ny"),
            vec![Ident, Assign, Int(1), Newline, Ident, Newline, Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("+ - * / % == != < <= > >= = ( ) ,"),
            vec![
                Plus, Minus, Star, Slash, Percent, EqEq, NotEq, Lt, Le, Gt, Ge, Assign, LParen,
                RParen, Comma, Newline, Eof
            ]
        );
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("proc procx do done"),
            vec![KwProc, Ident, KwDo, Ident, Newline, Eof]
        );
        assert_eq!(texts("proc procx do done"), vec!["procx", "done"]);
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("0 42 12.5"),
            vec![Int(0), Int(42), Real(12.5), Newline, Eof]
        );
    }

    #[test]
    fn int_overflow_is_error() {
        let err = lex("99999999999999999999").unwrap_err();
        assert!(err.first().message.contains("overflows"));
        // One past the magnitude of i64::MIN overflows again.
        let err = lex("9223372036854775809").unwrap_err();
        assert!(err.first().message.contains("overflows"));
    }

    #[test]
    fn i64_min_magnitude_lexes_as_marker() {
        assert_eq!(
            kinds("-9223372036854775808"),
            vec![Minus, IntMinMagnitude, Newline, Eof]
        );
        // i64::MAX still lexes as an ordinary literal.
        assert_eq!(
            kinds("9223372036854775807"),
            vec![Int(i64::MAX), Newline, Eof]
        );
    }

    #[test]
    fn bad_real_is_error() {
        let err = lex("1.").unwrap_err();
        assert!(err.first().message.contains("digits after"));
    }

    #[test]
    fn unknown_char_is_error() {
        let err = lex("a @ b").unwrap_err();
        assert!(err.first().message.contains("unexpected character"));
    }

    #[test]
    fn bang_without_eq_is_error() {
        let err = lex("a ! b").unwrap_err();
        assert!(err.first().message.contains("!="));
    }

    #[test]
    fn multiple_errors_collected() {
        let err = lex("@ $\n&").unwrap_err();
        assert_eq!(err.len(), 3);
    }

    #[test]
    fn spans_are_correct() {
        let toks = lex("ab = 12").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 4));
        assert_eq!(toks[2].span, Span::new(5, 7));
    }

    #[test]
    fn trailing_statement_gets_newline() {
        assert_eq!(kinds("x = 1"), vec![Ident, Assign, Int(1), Newline, Eof]);
    }
}
