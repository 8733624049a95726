//! Lexer shared by MQL, MAD-DDL and LDL.
//!
//! Tokens follow the surface syntax of the paper's examples (Fig. 2.3,
//! Table 2.1): identifiers are case-insensitive keywords when they match
//! one (`SELECT`, `FROM`, …); literals are integers, reals in scientific
//! notation (`1.9E4`), and single-quoted strings; punctuation includes the
//! molecule connector `-`, brace expressions, `:=` for qualified
//! projection, and the comparison operators of MQL.

use std::fmt;

/// A lexical token with its source position (byte offset) for error
/// reporting. `S` holds the text of identifiers and strings: owned
/// (`String`, what [`lex`] returns) or borrowed from the source (`&str`,
/// what [`Tokens`] yields).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<S = String> {
    pub kind: TokenKind<S>,
    pub offset: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<S = String> {
    /// Identifier or keyword (stored as written; keyword matching is
    /// case-insensitive via [`TokenKind::is_kw`]).
    Ident(S),
    Int(i64),
    Real(f64),
    /// A string literal. Owned, it is the value; borrowed, it is the
    /// source text between the quotes, `''` escapes still doubled
    /// ([`unescape`] turns it into the value).
    Str(S),
    LParen,
    RParen,
    Comma,
    Colon,
    Semicolon,
    Dot,
    Minus,
    Plus,
    Star,
    Assign, // :=
    Eq,     // =
    Ne,     // <>
    Lt,
    Le,
    Gt,
    Ge,
    /// `?` — positional parameter placeholder (prepared statements).
    Question,
    Eof,
}

impl<S: AsRef<str>> TokenKind<S> {
    /// Case-insensitive keyword test for identifier tokens.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.as_ref().eq_ignore_ascii_case(kw))
    }

    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Whether this is an integer, real or string literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, TokenKind::Int(_) | TokenKind::Real(_) | TokenKind::Str(_))
    }

    /// The text of every token but a literal: an identifier as written,
    /// a punctuation symbol, `<eof>`.
    pub fn symbol(&self) -> Option<&str> {
        Some(match self {
            TokenKind::Ident(s) => s.as_ref(),
            TokenKind::Int(_) | TokenKind::Real(_) | TokenKind::Str(_) => return None,
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::Comma => ",",
            TokenKind::Colon => ":",
            TokenKind::Semicolon => ";",
            TokenKind::Dot => ".",
            TokenKind::Minus => "-",
            TokenKind::Plus => "+",
            TokenKind::Star => "*",
            TokenKind::Assign => ":=",
            TokenKind::Eq => "=",
            TokenKind::Ne => "<>",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::Question => "?",
            TokenKind::Eof => "<eof>",
        })
    }
}

impl TokenKind<&str> {
    /// The owned token: identifier text copied, string escapes resolved.
    pub fn into_owned(self) -> TokenKind {
        match self {
            TokenKind::Ident(s) => TokenKind::Ident(s.to_string()),
            TokenKind::Int(i) => TokenKind::Int(i),
            TokenKind::Real(r) => TokenKind::Real(r),
            TokenKind::Str(s) => TokenKind::Str(unescape(s)),
            TokenKind::LParen => TokenKind::LParen,
            TokenKind::RParen => TokenKind::RParen,
            TokenKind::Comma => TokenKind::Comma,
            TokenKind::Colon => TokenKind::Colon,
            TokenKind::Semicolon => TokenKind::Semicolon,
            TokenKind::Dot => TokenKind::Dot,
            TokenKind::Minus => TokenKind::Minus,
            TokenKind::Plus => TokenKind::Plus,
            TokenKind::Star => TokenKind::Star,
            TokenKind::Assign => TokenKind::Assign,
            TokenKind::Eq => TokenKind::Eq,
            TokenKind::Ne => TokenKind::Ne,
            TokenKind::Lt => TokenKind::Lt,
            TokenKind::Le => TokenKind::Le,
            TokenKind::Gt => TokenKind::Gt,
            TokenKind::Ge => TokenKind::Ge,
            TokenKind::Question => TokenKind::Question,
            TokenKind::Eof => TokenKind::Eof,
        }
    }
}

/// The value of a string literal from its source text between the
/// quotes: a doubled quote (`''`) stands for one.
pub fn unescape(raw: &str) -> String {
    raw.replace("''", "'")
}

impl<S: fmt::Display + AsRef<str>> fmt::Display for TokenKind<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Real(r) => write!(f, "{r}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            other => f.write_str(other.symbol().unwrap_or_default()),
        }
    }
}

/// Lexing / parsing error with byte offset and, once located against the
/// source text, a 1-based line:column position.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
    /// 1-based line, or 0 when the error has not been located yet.
    pub line: u32,
    /// 1-based column (byte-counted within the line), or 0 when unknown.
    pub column: u32,
}

impl ParseError {
    pub fn new(message: impl Into<String>, offset: usize) -> Self {
        ParseError { message: message.into(), offset, line: 0, column: 0 }
    }

    /// Fills `line`/`column` from the source the error's offset refers to.
    /// Entry points that hold the source call this so multi-line MQL/DDL
    /// scripts report actionable positions instead of raw byte offsets.
    pub fn locate(mut self, src: &str) -> Self {
        let upto = self.offset.min(src.len());
        let mut line = 1u32;
        let mut line_start = 0usize;
        for (i, b) in src.as_bytes()[..upto].iter().enumerate() {
            if *b == b'\n' {
                line += 1;
                line_start = i + 1;
            }
        }
        self.line = line;
        self.column = (upto - line_start) as u32 + 1;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{} (at line {}, column {})", self.message, self.line, self.column)
        } else {
            write!(f, "{} (at offset {})", self.message, self.offset)
        }
    }
}

impl std::error::Error for ParseError {}

/// Tokenises `input` into owned tokens, ending with [`TokenKind::Eof`]:
/// [`Tokens`] with the text copied out.
pub fn lex(input: &str) -> Result<Vec<Token>, ParseError> {
    Tokens::new(input)
        .map(|t| t.map(|t| Token { kind: t.kind.into_owned(), offset: t.offset }))
        .collect()
}

/// The tokenizer: yields the tokens of its input, the last one
/// [`TokenKind::Eof`] (or the first error), with identifier and string
/// text borrowed from the input — it allocates nothing. Comments run from
/// `(*` to `*)` (the paper's style) or from `--` to end of line.
pub struct Tokens<'a> {
    input: &'a str,
    pos: usize,
    done: bool,
}

impl<'a> Tokens<'a> {
    pub fn new(input: &'a str) -> Tokens<'a> {
        Tokens { input, pos: 0, done: false }
    }

    fn next_token(&mut self) -> Result<Token<&'a str>, ParseError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        // Whitespace and comments.
        loop {
            match bytes.get(i) {
                Some(b) if (*b as char).is_whitespace() => i += 1,
                // (* comment *)
                Some(b'(') if bytes.get(i + 1) == Some(&b'*') => {
                    let start = i;
                    i += 2;
                    loop {
                        if i + 1 >= bytes.len() {
                            return Err(ParseError::new("unterminated comment", start));
                        }
                        if bytes[i] == b'*' && bytes[i + 1] == b')' {
                            i += 2;
                            break;
                        }
                        i += 1;
                    }
                }
                // -- line comment
                Some(b'-') if bytes.get(i + 1) == Some(&b'-') => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let start = i;
        let Some(&b) = bytes.get(i) else {
            self.pos = i;
            return Ok(Token { kind: TokenKind::Eof, offset: input.len() });
        };
        let c = b as char;
        let (kind, end) = if c.is_ascii_alphabetic() || c == '_' {
            // Identifiers / keywords.
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            (TokenKind::Ident(&input[i..j]), j)
        } else if c.is_ascii_digit() {
            // Numbers: 123, 1.5, 1.9E4, 1E-2 (leading sign handled by parser).
            let mut j = i;
            let mut is_real = false;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j < bytes.len()
                && bytes[j] == b'.'
                && j + 1 < bytes.len()
                && bytes[j + 1].is_ascii_digit()
            {
                is_real = true;
                j += 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
            }
            if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                let mut k = j + 1;
                if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                if k < bytes.len() && bytes[k].is_ascii_digit() {
                    is_real = true;
                    j = k;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
            }
            let text = &input[i..j];
            let kind = if is_real {
                TokenKind::Real(text.parse().map_err(|_| {
                    ParseError::new(format!("bad real literal '{text}'"), start)
                })?)
            } else {
                TokenKind::Int(text.parse().map_err(|_| {
                    ParseError::new(format!("bad integer literal '{text}'"), start)
                })?)
            };
            (kind, j)
        } else if c == '\'' {
            // Strings; '' escapes a quote.
            let mut j = i + 1;
            loop {
                match bytes.get(j) {
                    None => return Err(ParseError::new("unterminated string", start)),
                    Some(b'\'') if bytes.get(j + 1) == Some(&b'\'') => j += 2,
                    Some(b'\'') => break,
                    Some(_) => j += 1,
                }
            }
            (TokenKind::Str(&input[i + 1..j]), j + 1)
        } else {
            // Operators & punctuation.
            let (kind, len) = match c {
                '(' => (TokenKind::LParen, 1),
                ')' => (TokenKind::RParen, 1),
                ',' => (TokenKind::Comma, 1),
                ';' => (TokenKind::Semicolon, 1),
                '.' => (TokenKind::Dot, 1),
                '-' => (TokenKind::Minus, 1),
                '+' => (TokenKind::Plus, 1),
                '*' => (TokenKind::Star, 1),
                ':' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        (TokenKind::Assign, 2)
                    } else {
                        (TokenKind::Colon, 1)
                    }
                }
                '=' => (TokenKind::Eq, 1),
                '?' => (TokenKind::Question, 1),
                '<' => match bytes.get(i + 1) {
                    Some(&b'>') => (TokenKind::Ne, 2),
                    Some(&b'=') => (TokenKind::Le, 2),
                    _ => (TokenKind::Lt, 1),
                },
                '>' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        (TokenKind::Ge, 2)
                    } else {
                        (TokenKind::Gt, 1)
                    }
                }
                other => {
                    return Err(ParseError::new(
                        format!("unexpected character '{other}'"),
                        start,
                    ))
                }
            };
            (kind, i + len)
        };
        self.pos = end;
        Ok(Token { kind, offset: start })
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Result<Token<&'a str>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let token = self.next_token();
        // The stream ends after its Eof token or its first error.
        self.done = !matches!(&token, Ok(t) if t.kind != TokenKind::Eof);
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        let k = kinds("SELECT ALL FROM brep-face WHERE brep_no = 1713");
        assert_eq!(k[0], TokenKind::Ident("SELECT".into()));
        assert!(k[0].is_kw("select"));
        assert!(k.contains(&TokenKind::Minus));
        assert!(k.contains(&TokenKind::Eq));
        assert!(k.contains(&TokenKind::Int(1713)));
        assert_eq!(*k.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn scientific_reals() {
        assert_eq!(kinds("1.9E4")[0], TokenKind::Real(1.9e4));
        assert_eq!(kinds("1.0E2")[0], TokenKind::Real(100.0));
        assert_eq!(kinds("2E3")[0], TokenKind::Real(2000.0));
        assert_eq!(kinds("3.25")[0], TokenKind::Real(3.25));
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(kinds("'cube'")[0], TokenKind::Str("cube".into()));
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it's".into()));
        assert_eq!(kinds("''''")[0], TokenKind::Str("'".into()));
        assert_eq!(kinds("'Grüße'")[0], TokenKind::Str("Grüße".into()), "UTF-8 kept whole");
        assert!(lex("'open").is_err());
    }

    #[test]
    fn borrowed_tokens_are_the_lexed_ones() {
        let src = "SELECT x FROM s WHERE name = 'it''s' AND y = 1.5E2 (* c *) -- tail";
        let borrowed: Vec<Token<&str>> = Tokens::new(src).collect::<Result<_, _>>().unwrap();
        assert_eq!(borrowed[7].kind, TokenKind::Str("it''s"), "source text, escapes kept");
        let owned: Vec<Token> = borrowed
            .into_iter()
            .map(|t| Token { kind: t.kind.into_owned(), offset: t.offset })
            .collect();
        assert_eq!(owned, lex(src).unwrap());
        // An error ends the stream.
        let mut t = Tokens::new("a $ b");
        assert!(t.next().unwrap().is_ok());
        assert!(t.next().unwrap().is_err());
        assert!(t.next().is_none());
    }

    #[test]
    fn comments_paper_style() {
        let k = kinds("SELECT (* qualification *) ALL");
        assert_eq!(k.len(), 3); // SELECT, ALL, EOF
        let k = kinds("a -- rest of line\nb");
        assert_eq!(k.len(), 3);
    }

    #[test]
    fn assign_and_comparisons() {
        let k = kinds("face := x <> y <= z >= w < v > u");
        assert!(k.contains(&TokenKind::Assign));
        assert!(k.contains(&TokenKind::Ne));
        assert!(k.contains(&TokenKind::Le));
        assert!(k.contains(&TokenKind::Ge));
    }

    #[test]
    fn unexpected_character_reported_with_offset() {
        let err = lex("abc $").unwrap_err();
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn question_mark_parameter_token() {
        let k = kinds("WHERE brep_no = ?");
        assert!(k.contains(&TokenKind::Question));
    }

    #[test]
    fn locate_renders_line_and_column() {
        let src = "SELECT ALL\nFROM s\nWHERE x $ 1";
        let err = lex(src).unwrap_err().locate(src);
        assert_eq!((err.line, err.column), (3, 9));
        let shown = err.to_string();
        assert!(shown.contains("line 3"), "got: {shown}");
        assert!(shown.contains("column 9"), "got: {shown}");
        // Unlocated errors still fall back to the byte offset.
        let raw = ParseError::new("boom", 7);
        assert!(raw.to_string().contains("offset 7"));
    }

    #[test]
    fn dots_and_parens() {
        let k = kinds("piece_list (0).solid_no");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("piece_list".into()),
                TokenKind::LParen,
                TokenKind::Int(0),
                TokenKind::RParen,
                TokenKind::Dot,
                TokenKind::Ident("solid_no".into()),
                TokenKind::Eof,
            ]
        );
    }
}
