//! The three-way token taxonomy of spoken SQL.
//!
//! The paper observes (§2) that, unlike regular English, only three types of
//! tokens arise in SQL: **Keywords**, **Special Characters** ("SplChars"),
//! and **Literals**. Keywords and SplChars come from a finite set fixed by
//! the grammar; Literals (table names, attribute names, attribute values)
//! have an effectively unbounded vocabulary.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The class of a SQL token. The weighted edit distance (paper §3.4) assigns
/// a distinct weight to each class: `W_K > W_S > W_L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TokenClass {
    /// A SQL keyword from [`Keyword`] (`KeywordDict` in the paper, §3.1).
    Keyword,
    /// A special character from [`SplChar`] (`SplCharDict` in the paper, §3.1).
    SplChar,
    /// Anything else: a table name, attribute name, or attribute value.
    Literal,
}

/// The supported SQL keywords (`KeywordDict`, paper §3.1).
///
/// Multi-word constructs (`ORDER BY`, `GROUP BY`, `NATURAL JOIN`) are
/// represented as their constituent single-word tokens, exactly as in the
/// grammar of Box 1 (`ODB1 ODB2`, `GRP1 ODB2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Keyword {
    Select,
    From,
    Where,
    Order,
    Group,
    By,
    Natural,
    Join,
    And,
    Or,
    Not,
    Limit,
    Between,
    In,
    Sum,
    Count,
    Max,
    Avg,
    Min,
}

/// All keywords, in a fixed canonical order used for interning.
pub const ALL_KEYWORDS: [Keyword; 19] = [
    Keyword::Select,
    Keyword::From,
    Keyword::Where,
    Keyword::Order,
    Keyword::Group,
    Keyword::By,
    Keyword::Natural,
    Keyword::Join,
    Keyword::And,
    Keyword::Or,
    Keyword::Not,
    Keyword::Limit,
    Keyword::Between,
    Keyword::In,
    Keyword::Sum,
    Keyword::Count,
    Keyword::Max,
    Keyword::Avg,
    Keyword::Min,
];

impl Keyword {
    /// The canonical upper-case spelling, as rendered in corrected queries.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Select => "SELECT",
            Keyword::From => "FROM",
            Keyword::Where => "WHERE",
            Keyword::Order => "ORDER",
            Keyword::Group => "GROUP",
            Keyword::By => "BY",
            Keyword::Natural => "NATURAL",
            Keyword::Join => "JOIN",
            Keyword::And => "AND",
            Keyword::Or => "OR",
            Keyword::Not => "NOT",
            Keyword::Limit => "LIMIT",
            Keyword::Between => "BETWEEN",
            Keyword::In => "IN",
            Keyword::Sum => "SUM",
            Keyword::Count => "COUNT",
            Keyword::Max => "MAX",
            Keyword::Avg => "AVG",
            Keyword::Min => "MIN",
        }
    }

    /// Parse a keyword case-insensitively. Returns `None` for non-keywords.
    pub fn parse(word: &str) -> Option<Keyword> {
        // Keywords are short; avoid allocating by comparing case-insensitively.
        ALL_KEYWORDS
            .iter()
            .copied()
            .find(|k| k.as_str().eq_ignore_ascii_case(word))
    }

    /// Stable dense index in `0..19`, used for token interning: the
    /// declaration order, which is also [`ALL_KEYWORDS`]'s.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The aggregate keywords `AVG | SUM | MAX | MIN | COUNT` (`SEL_OP`).
    pub fn is_aggregate(self) -> bool {
        matches!(
            self,
            Keyword::Avg | Keyword::Sum | Keyword::Max | Keyword::Min | Keyword::Count
        )
    }

    /// Members of the *prime superset* used by Diversity-Aware Pruning
    /// (paper App. D.3): `{AVG,COUNT,SUM,MAX,MIN} ∪ {AND,OR}`.
    pub fn in_prime_superset(self) -> bool {
        self.is_aggregate() || matches!(self, Keyword::And | Keyword::Or)
    }
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The supported special characters (`SplCharDict`, paper §3.1):
/// `* = < > ( ) . ,`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SplChar {
    Star,
    Eq,
    Lt,
    Gt,
    LParen,
    RParen,
    Dot,
    Comma,
}

/// All special characters, in a fixed canonical order used for interning.
pub const ALL_SPLCHARS: [SplChar; 8] = [
    SplChar::Star,
    SplChar::Eq,
    SplChar::Lt,
    SplChar::Gt,
    SplChar::LParen,
    SplChar::RParen,
    SplChar::Dot,
    SplChar::Comma,
];

impl SplChar {
    /// The written symbol.
    pub fn as_str(self) -> &'static str {
        match self {
            SplChar::Star => "*",
            SplChar::Eq => "=",
            SplChar::Lt => "<",
            SplChar::Gt => ">",
            SplChar::LParen => "(",
            SplChar::RParen => ")",
            SplChar::Dot => ".",
            SplChar::Comma => ",",
        }
    }

    /// Parse a written symbol.
    pub fn parse(s: &str) -> Option<SplChar> {
        ALL_SPLCHARS.iter().copied().find(|c| c.as_str() == s)
    }

    /// Parse a single character (all symbols are one ASCII char).
    pub fn parse_char(ch: char) -> Option<SplChar> {
        ALL_SPLCHARS
            .iter()
            .copied()
            .find(|c| c.as_str().chars().eq(std::iter::once(ch)))
    }

    /// Stable dense index in `0..8`, used for token interning: the
    /// declaration order, which is also [`ALL_SPLCHARS`]'s.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The comparison-operator members of the *prime superset* used by
    /// Diversity-Aware Pruning (paper App. D.3): `{=, <, >}`.
    pub fn in_prime_superset(self) -> bool {
        matches!(self, SplChar::Eq | SplChar::Lt | SplChar::Gt)
    }

    /// The spoken word sequence the ASR typically produces for this symbol
    /// (paper §3.1: "`<` becomes 'less than'"). Used both by the verbalizer
    /// (speaking a query aloud) and by SplChar handling (mapping words back).
    pub fn spoken(self) -> &'static [&'static str] {
        match self {
            SplChar::Star => &["star"],
            SplChar::Eq => &["equals"],
            SplChar::Lt => &["less", "than"],
            SplChar::Gt => &["greater", "than"],
            SplChar::LParen => &["open", "parenthesis"],
            SplChar::RParen => &["close", "parenthesis"],
            SplChar::Dot => &["dot"],
            SplChar::Comma => &["comma"],
        }
    }
}

impl fmt::Display for SplChar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A concrete SQL token: the unit of both queries and transcriptions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Token {
    Keyword(Keyword),
    SplChar(SplChar),
    /// Any token outside the two dictionaries: table name, attribute name,
    /// or attribute value (possibly quoted in the original text).
    Literal(String),
}

impl Token {
    /// Classify this token per the paper's taxonomy.
    pub fn class(&self) -> TokenClass {
        match self {
            Token::Keyword(_) => TokenClass::Keyword,
            Token::SplChar(_) => TokenClass::SplChar,
            Token::Literal(_) => TokenClass::Literal,
        }
    }

    /// Classify a raw word the way masking does: dictionary lookup first.
    pub fn classify_word(word: &str) -> Token {
        if let Some(k) = Keyword::parse(word) {
            Token::Keyword(k)
        } else if let Some(c) = SplChar::parse(word) {
            Token::SplChar(c)
        } else {
            Token::Literal(word.to_string())
        }
    }

    /// The written form of the token.
    pub fn as_str(&self) -> &str {
        match self {
            Token::Keyword(k) => k.as_str(),
            Token::SplChar(c) => c.as_str(),
            Token::Literal(s) => s.as_str(),
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Render a token sequence as a space-separated SQL string, the canonical
/// display format used throughout the paper (e.g. Table 6).
pub fn render_tokens(tokens: &[Token]) -> String {
    let mut out = String::with_capacity(tokens.len() * 6);
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(t.as_str());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for k in ALL_KEYWORDS {
            assert_eq!(Keyword::parse(k.as_str()), Some(k));
            assert_eq!(Keyword::parse(&k.as_str().to_lowercase()), Some(k));
            assert_eq!(ALL_KEYWORDS[k.index()], k);
        }
    }

    #[test]
    fn splchar_roundtrip() {
        for c in ALL_SPLCHARS {
            assert_eq!(SplChar::parse(c.as_str()), Some(c));
            assert_eq!(ALL_SPLCHARS[c.index()], c);
        }
    }

    #[test]
    fn non_keyword_is_literal() {
        assert_eq!(
            Token::classify_word("Salary"),
            Token::Literal("Salary".into())
        );
        assert_eq!(
            Token::classify_word("select"),
            Token::Keyword(Keyword::Select)
        );
        assert_eq!(Token::classify_word("="), Token::SplChar(SplChar::Eq));
    }

    #[test]
    fn prime_superset_membership() {
        assert!(Keyword::Avg.in_prime_superset());
        assert!(Keyword::And.in_prime_superset());
        assert!(!Keyword::Select.in_prime_superset());
        assert!(SplChar::Lt.in_prime_superset());
        assert!(!SplChar::Comma.in_prime_superset());
    }

    #[test]
    fn render_simple() {
        let toks = vec![
            Token::Keyword(Keyword::Select),
            Token::SplChar(SplChar::Star),
            Token::Keyword(Keyword::From),
            Token::Literal("Employees".into()),
        ];
        assert_eq!(render_tokens(&toks), "SELECT * FROM Employees");
    }

    #[test]
    fn keyword_count_matches_paper_dict() {
        // KeywordDict has 17 entries but ORDER BY / GROUP BY / NATURAL JOIN
        // decompose into single-word tokens sharing BY: 19 word tokens.
        assert_eq!(ALL_KEYWORDS.len(), 19);
        assert_eq!(ALL_SPLCHARS.len(), 8);
    }
}
