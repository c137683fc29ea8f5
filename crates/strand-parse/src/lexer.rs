//! Tokenizer for the motif language.
//!
//! The lexer is a stream: the parser pulls one token at a time and holds
//! one of lookahead, so reading a goal builds no token array. A token
//! borrows its identifier from the source text (a quoted atom or a string
//! literal owns its text, which escapes rewrite), and a number is parsed
//! straight from the source bytes.

use std::borrow::Cow;
use std::fmt;

/// A lexical token, borrowing from the source text `'a`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Tok<'a> {
    Var(&'a str),
    Wild,
    Int(i64),
    Float(f64),
    /// A plain atom borrows its name; a quoted one owns it.
    Atom(Cow<'a, str>),
    /// Owned: escapes rewrite the text.
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Bar,
    Dot,
    Implies, // :-
    Assign,  // :=
    Eq,      // =
    EqEq,    // ==
    Neq,     // =\=
    Lt,
    Gt,
    Le, // =< (also accepts <=)
    Ge, // >=
    Plus,
    Minus,
    Star,
    Slash,
    At,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Var(v) => write!(f, "{v}"),
            Tok::Wild => write!(f, "_"),
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Atom(a) => write!(f, "{a}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Bar => write!(f, "|"),
            Tok::Dot => write!(f, "."),
            Tok::Implies => write!(f, ":-"),
            Tok::Assign => write!(f, ":="),
            Tok::Eq => write!(f, "="),
            Tok::EqEq => write!(f, "=="),
            Tok::Neq => write!(f, "=\\="),
            Tok::Lt => write!(f, "<"),
            Tok::Gt => write!(f, ">"),
            Tok::Le => write!(f, "=<"),
            Tok::Ge => write!(f, ">="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::At => write!(f, "@"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source position (1-based line and column).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Spanned<'a> {
    pub tok: Tok<'a>,
    pub line: u32,
    pub col: u32,
}

/// Lexical error with position.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lex error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for LexError {}

/// The token stream over one source text. After [`Tok::Eof`] it keeps
/// answering `Eof`.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            text,
            src: text.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    /// The source text from byte `start` to the current position. Both
    /// ends sit on ASCII bytes or the end of the text — every token this
    /// slices is made of ASCII bytes — so they are character boundaries.
    fn since(&self, start: usize) -> &'a str {
        &self.text[start..self.pos]
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// The next token and where it starts.
    pub(crate) fn next_token(&mut self) -> Result<Spanned<'a>, LexError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let mk = |tok| Spanned { tok, line, col };
        let c = match self.peek() {
            None => return Ok(mk(Tok::Eof)),
            Some(c) => c,
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'|' => {
                self.bump();
                Tok::Bar
            }
            b'@' => {
                self.bump();
                Tok::At
            }
            b'+' => {
                self.bump();
                Tok::Plus
            }
            b'-' => {
                self.bump();
                Tok::Minus
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            b'/' => {
                self.bump();
                Tok::Slash
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Le
                } else {
                    Tok::Lt
                }
            }
            b'=' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        Tok::EqEq
                    }
                    Some(b'<') => {
                        self.bump();
                        Tok::Le
                    }
                    Some(b'\\') => {
                        self.bump();
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Tok::Neq
                        } else {
                            return Err(self.err("expected `=` after `=\\`"));
                        }
                    }
                    _ => Tok::Eq,
                }
            }
            b':' => {
                self.bump();
                match self.peek() {
                    Some(b'-') => {
                        self.bump();
                        Tok::Implies
                    }
                    Some(b'=') => {
                        self.bump();
                        Tok::Assign
                    }
                    _ => return Err(self.err("expected `:-` or `:=`")),
                }
            }
            b'.' => {
                // End-of-clause dot. (Floats are lexed starting from a digit.)
                self.bump();
                Tok::Dot
            }
            b'"' => Tok::Str(self.lex_delimited(b'"')?),
            b'\'' => Tok::Atom(Cow::Owned(self.lex_delimited(b'\'')?)),
            b'_' => {
                // `_` alone is the wildcard; `_Foo` is a named variable.
                let word = self.lex_word();
                if word == "_" {
                    Tok::Wild
                } else {
                    Tok::Var(word)
                }
            }
            c if c.is_ascii_uppercase() => Tok::Var(self.lex_word()),
            c if c.is_ascii_lowercase() => Tok::Atom(Cow::Borrowed(self.lex_word())),
            c if c.is_ascii_digit() => self.lex_number()?,
            other => {
                return Err(self.err(format!("unexpected character {:?}", other as char)));
            }
        };
        Ok(mk(tok))
    }

    /// Step over the bytes `class` accepts, none of them a newline.
    fn skip_while(&mut self, class: impl Fn(u8) -> bool) {
        let n = self.src[self.pos..]
            .iter()
            .take_while(|&&c| class(c))
            .count();
        self.pos += n;
        self.col += n as u32;
    }

    fn lex_word(&mut self) -> &'a str {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_alphanumeric() || c == b'_');
        self.since(start)
    }

    fn lex_number(&mut self) -> Result<Tok<'a>, LexError> {
        let start = self.pos;
        self.skip_while(|c| c.is_ascii_digit());
        // A float only if `.` is followed by a digit — otherwise the dot
        // terminates the clause (`f(3).`).
        let mut is_float = false;
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            self.skip_while(|c| c.is_ascii_digit());
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && (self.peek2().is_some_and(|c| c.is_ascii_digit())
                || (matches!(self.peek2(), Some(b'+') | Some(b'-'))
                    && self
                        .src
                        .get(self.pos + 2)
                        .is_some_and(|c| c.is_ascii_digit())))
        {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            self.skip_while(|c| c.is_ascii_digit());
        }
        let text = self.since(start);
        if is_float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.err(format!("bad float literal {text}: {e}")))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.err(format!("bad integer literal {text}: {e}")))
        }
    }

    fn lex_delimited(&mut self, delim: u8) -> Result<String, LexError> {
        self.bump(); // opening delimiter
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated literal")),
                Some(c) if c == delim => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(c) if c == delim => out.push(c as char),
                    Some(c) => {
                        return Err(self.err(format!("unknown escape \\{}", c as char)));
                    }
                    None => return Err(self.err("unterminated escape")),
                },
                Some(c) => out.push(c as char),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole stream, through `Eof`.
    fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            let eof = t.tok == Tok::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_rule_skeleton() {
        let t = toks("producer(N,Xs) :- N > 0 | Xs := [X|Xs1].");
        assert_eq!(
            t,
            vec![
                Tok::Atom("producer".into()),
                Tok::LParen,
                Tok::Var("N"),
                Tok::Comma,
                Tok::Var("Xs"),
                Tok::RParen,
                Tok::Implies,
                Tok::Var("N"),
                Tok::Gt,
                Tok::Int(0),
                Tok::Bar,
                Tok::Var("Xs"),
                Tok::Assign,
                Tok::LBracket,
                Tok::Var("X"),
                Tok::Bar,
                Tok::Var("Xs1"),
                Tok::RBracket,
                Tok::Dot,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("% a comment\nhalt. % trailing\n");
        assert_eq!(t, vec![Tok::Atom("halt".into()), Tok::Dot, Tok::Eof]);
    }

    #[test]
    fn numbers_and_end_dot() {
        assert_eq!(
            toks("f(3)."),
            vec![
                Tok::Atom("f".into()),
                Tok::LParen,
                Tok::Int(3),
                Tok::RParen,
                Tok::Dot,
                Tok::Eof
            ]
        );
        assert_eq!(toks("3.25")[0], Tok::Float(3.25));
        assert_eq!(toks("1e3")[0], Tok::Float(1000.0));
        assert_eq!(toks("2.5e-1")[0], Tok::Float(0.25));
        // `3.` is the integer 3 followed by the clause terminator.
        assert_eq!(toks("3."), vec![Tok::Int(3), Tok::Dot, Tok::Eof]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("=< >= == =\\= < > = := :-"),
            vec![
                Tok::Le,
                Tok::Ge,
                Tok::EqEq,
                Tok::Neq,
                Tok::Lt,
                Tok::Gt,
                Tok::Eq,
                Tok::Assign,
                Tok::Implies,
                Tok::Eof
            ]
        );
        // `<=` is accepted as =<.
        assert_eq!(toks("<=")[0], Tok::Le);
    }

    #[test]
    fn strings_and_quoted_atoms() {
        assert_eq!(toks(r#""+a\n""#)[0], Tok::Str("+a\n".into()));
        assert_eq!(toks("'weird atom'")[0], Tok::Atom("weird atom".into()));
        assert_eq!(toks("'+'")[0], Tok::Atom("+".into()));
    }

    #[test]
    fn wildcard_vs_named_underscore() {
        assert_eq!(toks("_")[0], Tok::Wild);
        assert_eq!(toks("_Tmp")[0], Tok::Var("_Tmp"));
    }

    #[test]
    fn error_positions() {
        let e = lex("f(\n  #)").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains('#'));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
    }
}
