//! Typed SQL errors with source spans.
//!
//! Every stage of the pipeline — lexer, parser, analyzer, planner —
//! reports failures as a [`SqlError`]: a [`SqlErrorKind`] the tests can
//! match on plus the byte [`Span`] of the offending token(s).
//! User-supplied text must never panic the pipeline; it either plans or
//! comes back as one of these.

use mqo_util::render_caret;

/// A half-open byte range `[lo, hi)` into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// First byte of the spanned text.
    pub lo: u32,
    /// One past the last byte.
    pub hi: u32,
}

impl Span {
    /// The empty span used by synthesized ASTs (the fuzz generator) and
    /// by span-insensitive AST comparison.
    pub const ZERO: Span = Span { lo: 0, hi: 0 };

    /// Builds a span from byte offsets.
    #[must_use]
    pub fn new(lo: usize, hi: usize) -> Span {
        Span {
            lo: lo as u32,
            hi: hi as u32,
        }
    }

    /// The smallest span covering `self` and `other`.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// What went wrong, stage by stage. Each variant carries the message
/// fragment specific to the failure; [`SqlError`] adds the span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlErrorKind {
    /// The lexer hit a character or literal it cannot tokenize.
    Lex(String),
    /// The parser expected one construct and found another.
    Parse(String),
    /// A `FROM` item names a table the catalog does not know.
    UnknownTable(String),
    /// A column reference resolves to nothing in scope.
    UnknownColumn(String),
    /// An unqualified column name matches columns of several FROM items.
    AmbiguousColumn(String),
    /// The same table (or subquery alias) appears twice in FROM; without
    /// column renaming the engine cannot keep the sides apart.
    DuplicateTable(String),
    /// Operand types are incompatible (e.g. a string column compared to
    /// a numeric literal, or `SUM` over a string).
    TypeMismatch(String),
    /// An aggregate was called with the wrong number of arguments.
    WrongArity(String),
    /// Recognized SQL the engine's plan algebra cannot express.
    Unsupported(String),
    /// A semantic rule was violated (non-grouped select column, ORDER BY
    /// on a column the query does not produce, plan validation).
    Invalid(String),
}

/// An error anywhere in lex → parse → analyze → plan, with its span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// The failure class and its specific message.
    pub kind: SqlErrorKind,
    /// Where in the source text it happened.
    pub span: Span,
}

impl SqlError {
    /// Builds an error.
    #[must_use]
    pub fn new(kind: SqlErrorKind, span: Span) -> SqlError {
        SqlError { kind, span }
    }

    /// Renders a caret diagnostic through [`mqo_util::render_caret`]:
    /// the message, the line and column, then the offending source line
    /// with a caret run under the span.
    #[must_use]
    pub fn render(&self, src: &str) -> String {
        let (lo, hi) = (
            self.span.lo as usize,
            (self.span.hi as usize).min(src.len()),
        );
        let lo = lo.min(src.len());
        let line_start = src[..lo].rfind('\n').map_or(0, |i| i + 1);
        let line_end = src[lo..].find('\n').map_or(src.len(), |i| lo + i);
        let line_no = src[..line_start].matches('\n').count() + 1;
        let line = &src[line_start..line_end];
        let col = lo - line_start;
        render_caret(
            "error",
            &self.to_string(),
            &format!("line {line_no}, column {}", col + 1),
            line,
            col,
            hi.min(line_end).saturating_sub(lo),
        )
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use SqlErrorKind::*;
        match &self.kind {
            Lex(m) | Parse(m) | Unsupported(m) | Invalid(m) => write!(f, "{m}"),
            UnknownTable(t) => write!(f, "unknown table `{t}`"),
            UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            AmbiguousColumn(c) => {
                write!(f, "ambiguous column `{c}` (qualify it with a table name)")
            }
            DuplicateTable(t) => write!(
                f,
                "table `{t}` appears twice in FROM (aliased self-joins are not supported)"
            ),
            TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            WrongArity(m) => write!(f, "wrong number of arguments: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_underlines_the_span() {
        let src = "SELECT nope FROM partsupp";
        let err = SqlError::new(SqlErrorKind::UnknownColumn("nope".into()), Span::new(7, 11));
        let out = err.render(src);
        assert!(out.contains("unknown column `nope`"), "{out}");
        assert!(out.contains("line 1, column 8"), "{out}");
        assert!(out.contains("       ^^^^"), "{out}");
    }

    #[test]
    fn render_survives_out_of_range_spans() {
        let err = SqlError::new(
            SqlErrorKind::Parse("unexpected end".into()),
            Span::new(90, 99),
        );
        let out = err.render("short");
        assert!(out.contains("unexpected end"), "{out}");
    }

    #[test]
    fn span_union() {
        assert_eq!(Span::new(3, 5).to(Span::new(7, 9)), Span::new(3, 9));
    }
}
