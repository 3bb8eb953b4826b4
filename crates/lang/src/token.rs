//! Tokens of the Minifor language.

use crate::span::Span;
use std::fmt;

/// The kind of a lexical token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// An identifier such as `matmul`. It carries no text: the token's
    /// span names it in the source.
    Ident,
    /// An integer literal. Stored as `i64`; the lexer rejects overflow.
    Int(i64),
    /// The integer literal `9223372036854775808` (2^63). Its magnitude
    /// overflows `i64`, but `-9223372036854775808` is `i64::MIN`, so the
    /// lexer emits this marker and the parser accepts it only directly
    /// under a unary minus (the classic negate-after-parse corner).
    IntMinMagnitude,
    /// A real (floating-point) literal such as `1.5`.
    Real(f64),

    // Keywords.
    /// `global`
    KwGlobal,
    /// `proc`
    KwProc,
    /// `func`
    KwFunc,
    /// `main`
    KwMain,
    /// `end`
    KwEnd,
    /// `integer`
    KwInteger,
    /// `real`
    KwReal,
    /// `if`
    KwIf,
    /// `then`
    KwThen,
    /// `else`
    KwElse,
    /// `while`
    KwWhile,
    /// `do`
    KwDo,
    /// `call`
    KwCall,
    /// `return`
    KwReturn,
    /// `read`
    KwRead,
    /// `print`
    KwPrint,
    /// `and`
    KwAnd,
    /// `or`
    KwOr,
    /// `not`
    KwNot,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Assign,
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
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,

    /// End of statement: a newline or `;` (consecutive separators collapse).
    Newline,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// Returns the keyword token for `word`, if it is a keyword.
    pub fn keyword(word: &str) -> Option<TokenKind> {
        use TokenKind::*;
        Some(match word {
            "global" => KwGlobal,
            "proc" => KwProc,
            "func" => KwFunc,
            "main" => KwMain,
            "end" => KwEnd,
            "integer" => KwInteger,
            "real" => KwReal,
            "if" => KwIf,
            "then" => KwThen,
            "else" => KwElse,
            "while" => KwWhile,
            "do" => KwDo,
            "call" => KwCall,
            "return" => KwReturn,
            "read" => KwRead,
            "print" => KwPrint,
            "and" => KwAnd,
            "or" => KwOr,
            "not" => KwNot,
            _ => return None,
        })
    }

    /// A short human-readable description used in parse errors. An
    /// identifier is described without its name; [`Token::describe`]
    /// adds it.
    pub fn describe(&self) -> String {
        use TokenKind::*;
        match self {
            Ident => "identifier".into(),
            Int(v) => format!("integer literal `{v}`"),
            IntMinMagnitude => "integer literal `9223372036854775808` (only valid \
                                immediately after a unary `-`)"
                .into(),
            Real(v) => format!("real literal `{v}`"),
            KwGlobal => "`global`".into(),
            KwProc => "`proc`".into(),
            KwFunc => "`func`".into(),
            KwMain => "`main`".into(),
            KwEnd => "`end`".into(),
            KwInteger => "`integer`".into(),
            KwReal => "`real`".into(),
            KwIf => "`if`".into(),
            KwThen => "`then`".into(),
            KwElse => "`else`".into(),
            KwWhile => "`while`".into(),
            KwDo => "`do`".into(),
            KwCall => "`call`".into(),
            KwReturn => "`return`".into(),
            KwRead => "`read`".into(),
            KwPrint => "`print`".into(),
            KwAnd => "`and`".into(),
            KwOr => "`or`".into(),
            KwNot => "`not`".into(),
            LParen => "`(`".into(),
            RParen => "`)`".into(),
            Comma => "`,`".into(),
            Assign => "`=`".into(),
            Plus => "`+`".into(),
            Minus => "`-`".into(),
            Star => "`*`".into(),
            Slash => "`/`".into(),
            Percent => "`%`".into(),
            EqEq => "`==`".into(),
            NotEq => "`!=`".into(),
            Lt => "`<`".into(),
            Le => "`<=`".into(),
            Gt => "`>`".into(),
            Ge => "`>=`".into(),
            Newline => "end of line".into(),
            Eof => "end of input".into(),
        }
    }
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// Where the token appears in the source.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// The token's text in `source`, the text it was lexed from.
    pub fn text(self, source: &str) -> &str {
        &source[self.span.start as usize..self.span.end as usize]
    }

    /// A short human-readable description used in parse errors, naming
    /// an identifier by its text in `source`.
    pub fn describe(self, source: &str) -> String {
        match self.kind {
            TokenKind::Ident => format!("identifier `{}`", self.text(source)),
            kind => kind.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(TokenKind::keyword("proc"), Some(TokenKind::KwProc));
        assert_eq!(TokenKind::keyword("do"), Some(TokenKind::KwDo));
        assert_eq!(TokenKind::keyword("xyz"), None);
        // Keywords are case-sensitive (lowercase only).
        assert_eq!(TokenKind::keyword("PROC"), None);
    }

    #[test]
    fn describe_is_nonempty_for_all_fixed_tokens() {
        use TokenKind::*;
        let all = [
            KwGlobal, KwProc, KwFunc, KwMain, KwEnd, KwInteger, KwReal, KwIf, KwThen, KwElse,
            KwWhile, KwDo, KwCall, KwReturn, KwRead, KwPrint, KwAnd, KwOr, KwNot, LParen, RParen,
            Comma, Assign, Plus, Minus, Star, Slash, Percent, EqEq, NotEq, Lt, Le, Gt, Ge, Newline,
            Eof,
        ];
        for t in all {
            assert!(!t.describe().is_empty(), "{t:?}");
        }
    }

    #[test]
    fn identifiers_are_described_by_their_source_text() {
        let tok = Token::new(TokenKind::Ident, Span::new(4, 7));
        assert_eq!(tok.text("x = foo + 1"), "foo");
        assert_eq!(tok.describe("x = foo + 1"), "identifier `foo`");
        let tok = Token::new(TokenKind::Int(12), Span::new(0, 2));
        assert_eq!(tok.describe("12"), "integer literal `12`");
    }
}
