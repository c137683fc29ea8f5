//! Recursive-descent parser for the motif language.
//!
//! Grammar (see crate docs for examples):
//!
//! ```text
//! program  := { clause }
//! clause   := head [ ":-" goals [ "|" goals ] ] "."
//! goals    := call { "," call }
//! call     := expr [ "@" primary ]
//! expr     := additive [ relop additive ]          (relop non-associative)
//! additive := multiplicative { ("+"|"-") multiplicative }
//! multiplicative := unary { ("*"|"/"|"mod") unary }
//! unary    := "-" unary | primary
//! primary  := int | float | var | "_" | string | list
//!           | atom [ "(" expr { "," expr } ")" ] | "(" expr ")"
//! ```
//!
//! Relational/assignment operators (`:= = == =\= < > =< >=`) and arithmetic
//! operators build ordinary [`Ast::Tuple`] terms, so transformations can
//! treat them uniformly as structured data (programs-as-terms, §2.2).
//!
//! The parser pulls tokens one at a time from the lexer's stream — no pass
//! over the whole text happens before parsing begins — and climbs the three
//! operator levels of `expr` by precedence in one function, entered only
//! when an operator follows: a term with none costs the same few calls
//! however many levels the grammar has.

use crate::ast::{Annotation, Ast, Call, Program, Rule};
use crate::lexer::{LexError, Lexer, Tok};
use std::fmt;

/// Parse error with source position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Deepest nesting of parentheses, argument lists, list elements and unary
/// minus the parser follows before answering a [`ParseError`]. It recurses
/// once per level, and so do the walks over its output (`ast_to_term`,
/// `resolve`, `Display`, drop), so unbounded nesting in a request line is a
/// stack overflow — an abort of the whole process — waiting for a hostile
/// client. List *length* is not nesting: `[1,2,…]` parses iteratively.
/// The deepest committed program or goal (the 8192-leaf benchmark trees)
/// nests under 64 levels.
pub const MAX_NESTING: u32 = 256;

/// A recursive-descent parser over the token stream, one token ahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The lookahead token and where it starts.
    tok: Tok<'a>,
    at: (u32, u32),
    /// Where the most recently consumed token starts.
    last: Option<(u32, u32)>,
    /// A lexical error ends the stream: the lookahead turns into `Eof`, and
    /// an error the parser then finds *at* the lookahead is reported as
    /// this one. An error about a token already consumed comes earlier in
    /// the text and wins, so whichever error is first in the text is the
    /// one reported.
    lex_error: Option<LexError>,
    /// Live `unary` frames: every nesting cycle passes through `unary`.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            tok: Tok::Eof,
            at: (1, 1),
            last: None,
            lex_error: None,
            depth: 0,
        };
        p.pull();
        p
    }

    /// The end of the text: a lexical error that stopped the stream is
    /// still an error.
    fn finish(self) -> Result<(), ParseError> {
        self.lex_error.map_or(Ok(()), |e| Err(e.into()))
    }
}

/// Parse a complete program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src);
    let mut program = Program::new();
    while p.peek() != &Tok::Eof {
        program.push_rule(p.clause()?);
    }
    p.finish()?;
    Ok(program)
}

/// Parse a single term (used by tests and the machine's goal entry point).
pub fn parse_term(src: &str) -> Result<Ast, ParseError> {
    let mut p = Parser::new(src);
    let t = p.expr()?;
    p.expect(&Tok::Eof, "end of input")?;
    p.finish()?;
    Ok(t)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        &self.tok
    }

    fn here(&self) -> (u32, u32) {
        self.at
    }

    /// Make the lexer's next token the lookahead.
    fn pull(&mut self) {
        match self.lexer.next_token() {
            Ok(next) => {
                self.tok = next.tok;
                self.at = (next.line, next.col);
            }
            Err(e) => {
                self.tok = Tok::Eof;
                self.lex_error = Some(e);
            }
        }
    }

    /// Take the lookahead token. At `Eof` the stream stays put.
    fn bump(&mut self) -> Tok<'a> {
        if matches!(self.tok, Tok::Eof) {
            return Tok::Eof;
        }
        self.last = Some(self.at);
        let tok = std::mem::replace(&mut self.tok, Tok::Eof);
        self.pull();
        tok
    }

    /// An error at the lookahead.
    fn err(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.here(), message)
    }

    fn err_at(&self, (line, col): (u32, u32), message: impl Into<String>) -> ParseError {
        match &self.lex_error {
            Some(e) => e.clone().into(),
            None => ParseError {
                message: message.into(),
                line,
                col,
            },
        }
    }

    fn expect(&mut self, tok: &Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found `{}`", self.peek())))
        }
    }

    /// Take the lookahead if it is `tok`, a token that carries no value.
    fn eat(&mut self, tok: &Tok<'_>) -> bool {
        let hit = std::mem::discriminant(self.peek()) == std::mem::discriminant(tok);
        if hit {
            self.bump();
        }
        hit
    }

    fn clause(&mut self) -> Result<Rule, ParseError> {
        let head = self.primary()?;
        if head.functor().is_none() {
            return Err(self.err("rule head must be an atom or compound term"));
        }
        let mut guards = Vec::new();
        let mut body = Vec::new();
        if self.eat(&Tok::Implies) {
            let first = self.goals()?;
            if self.eat(&Tok::Bar) {
                guards = first.into_iter().map(|c| c.goal).collect();
                body = self.goals()?;
            } else {
                body = first;
            }
        }
        self.expect(&Tok::Dot, "`.` at end of clause")?;
        Ok(Rule { head, guards, body })
    }

    fn goals(&mut self) -> Result<Vec<Call>, ParseError> {
        let mut out = vec![self.call()?];
        while self.eat(&Tok::Comma) {
            out.push(self.call()?);
        }
        Ok(out)
    }

    fn call(&mut self) -> Result<Call, ParseError> {
        let goal = self.expr()?;
        let annotation = if self.eat(&Tok::At) {
            let place = self.unary()?;
            Some(match place {
                Ast::Atom(ref a) if a == "random" => Annotation::Random,
                Ast::Atom(ref a) if a == "task" => Annotation::Task,
                other => Annotation::Node(other),
            })
        } else {
            None
        };
        Ok(Call { goal, annotation })
    }

    /// An expression: a unary term, then binary operators climbed by
    /// precedence — relations `:= = == =\= < > =< >=` (1, non-associative),
    /// `+ -` (2) and `* / mod` (3), the last two left-associative. One
    /// function for all three levels, entered only when an operator
    /// follows: a term in argument position passes through none of it.
    fn expr(&mut self) -> Result<Ast, ParseError> {
        let lhs = self.unary()?;
        if self.binop().is_none() {
            return Ok(lhs);
        }
        self.climb(lhs, 1)
    }

    /// The lookahead as a binary operator, with its precedence.
    fn binop(&self) -> Option<(&'static str, u8)> {
        Some(match self.peek() {
            Tok::Assign => (":=", 1),
            Tok::Eq => ("=", 1),
            Tok::EqEq => ("==", 1),
            Tok::Neq => ("=\\=", 1),
            Tok::Lt => ("<", 1),
            Tok::Gt => (">", 1),
            Tok::Le => ("=<", 1),
            Tok::Ge => (">=", 1),
            Tok::Plus => ("+", 2),
            Tok::Minus => ("-", 2),
            Tok::Star => ("*", 3),
            Tok::Slash => ("/", 3),
            // `mod` is an atom in operator position: `X mod 2`.
            Tok::Atom(a) if a == "mod" => ("mod", 3),
            _ => return None,
        })
    }

    /// Extend `lhs` by the operators that bind at least as tightly as `min`.
    fn climb(&mut self, mut lhs: Ast, min: u8) -> Result<Ast, ParseError> {
        while let Some((op, prec)) = self.binop() {
            if prec < min {
                break;
            }
            self.bump();
            let rhs = self.unary()?;
            let rhs = self.climb(rhs, prec + 1)?;
            lhs = Ast::Tuple(op.to_string(), vec![lhs, rhs]);
            if prec == 1 {
                break;
            }
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Ast, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("term nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let term = if self.eat(&Tok::Minus) {
            // Fold negative literals; keep `-(X)` for variables/expressions.
            self.unary().map(|t| match t {
                Ast::Int(i) => Ast::Int(-i),
                Ast::Float(x) => Ast::Float(-x),
                other => Ast::Tuple("-".into(), vec![other]),
            })
        } else {
            self.primary()
        };
        self.depth -= 1;
        term
    }

    fn primary(&mut self) -> Result<Ast, ParseError> {
        let at = self.here();
        match self.bump() {
            Tok::Int(i) => Ok(Ast::Int(i)),
            Tok::Float(x) => Ok(Ast::Float(x)),
            Tok::Var(v) => Ok(Ast::Var(v.to_owned())),
            Tok::Wild => Ok(Ast::Wild),
            Tok::Str(s) => Ok(Ast::Str(s)),
            Tok::LParen => {
                let inner = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::LBracket => self.list_tail(),
            Tok::Atom(name) => {
                let name = name.into_owned();
                if !self.eat(&Tok::LParen) {
                    return Ok(Ast::Atom(name));
                }
                let first = self.expr()?;
                let mut args = if self.eat(&Tok::Comma) {
                    // The capacity a second push would grow a vector to.
                    let mut args = Vec::with_capacity(4);
                    args.push(first);
                    args.push(self.expr()?);
                    args
                } else {
                    vec![first]
                };
                while self.eat(&Tok::Comma) {
                    args.push(self.expr()?);
                }
                self.expect(&Tok::RParen, "`)`")?;
                Ok(Ast::Tuple(name, args))
            }
            // A term missing at the end of the text is reported where the
            // last token starts.
            Tok::Eof => Err(self.err_at(self.last.unwrap_or(at), "expected a term, found `<eof>`")),
            other => Err(ParseError {
                message: format!("expected a term, found `{other}`"),
                line: at.0,
                col: at.1,
            }),
        }
    }

    /// Parse the rest of a list after `[`.
    fn list_tail(&mut self) -> Result<Ast, ParseError> {
        if self.eat(&Tok::RBracket) {
            return Ok(Ast::Nil);
        }
        let mut items = vec![self.expr()?];
        while self.eat(&Tok::Comma) {
            items.push(self.expr()?);
        }
        let tail = if self.eat(&Tok::Bar) {
            self.expr()?
        } else {
            Ast::Nil
        };
        self.expect(&Tok::RBracket, "`]`")?;
        Ok(items.into_iter().rev().fold(tail, |t, h| Ast::cons(h, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_program() {
        // The paper's Figure 1, modulo OCR noise in the original text.
        let src = r#"
            go(N) :- producer(N, Xs, sync), consumer(Xs).
            producer(N, Xs, _) :- N > 0 |
                Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).
            producer(0, Xs, _) :- Xs := [].
            consumer([X|Xs]) :- X := sync, consumer(Xs).
            consumer([]).
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.procedures().len(), 3);
        assert_eq!(p.get("producer", 3).unwrap().rules.len(), 2);
        let r = &p.get("producer", 3).unwrap().rules[0];
        assert_eq!(r.guards.len(), 1);
        assert_eq!(r.body.len(), 3);
        assert_eq!(
            r.guards[0],
            Ast::Tuple(">".into(), vec![Ast::var("N"), Ast::Int(0)])
        );
        // consumer([]) has an empty body.
        assert!(p.get("consumer", 1).unwrap().rules[1].body.is_empty());
    }

    #[test]
    fn parses_placement_annotations() {
        let src = "r(T) :- reduce(T, V)@random, eval(V)@3, log(V)@J.";
        let p = parse_program(src).unwrap();
        let r = &p.get("r", 1).unwrap().rules[0];
        assert_eq!(r.body[0].annotation, Some(Annotation::Random));
        assert_eq!(r.body[1].annotation, Some(Annotation::Node(Ast::Int(3))));
        assert_eq!(r.body[2].annotation, Some(Annotation::Node(Ast::var("J"))));
    }

    #[test]
    fn operator_precedence() {
        let t = parse_term("V := 1 + 2 * 3 - 4").unwrap();
        assert_eq!(
            t.to_string(),
            "V := 1 + 2 * 3 - 4" // printer round-trips with minimal parens
        );
        // Structure check: := ( + is left-assoc so (1 + (2*3)) - 4 ).
        if let Ast::Tuple(op, args) = &t {
            assert_eq!(op, ":=");
            if let Ast::Tuple(minus, margs) = &args[1] {
                assert_eq!(minus, "-");
                assert_eq!(margs[1], Ast::Int(4));
            } else {
                panic!("expected subtraction at top");
            }
        } else {
            panic!("expected :=");
        }
    }

    #[test]
    fn mod_is_infix() {
        let t = parse_term("X := N mod 2").unwrap();
        assert_eq!(
            t,
            Ast::Tuple(
                ":=".into(),
                vec![
                    Ast::var("X"),
                    Ast::Tuple("mod".into(), vec![Ast::var("N"), Ast::Int(2)])
                ]
            )
        );
    }

    #[test]
    fn lists_with_tails() {
        let t = parse_term("[1, 2|T]").unwrap();
        assert_eq!(
            t,
            Ast::cons(Ast::Int(1), Ast::cons(Ast::Int(2), Ast::var("T")))
        );
        assert_eq!(parse_term("[]").unwrap(), Ast::Nil);
        assert_eq!(
            parse_term("[a]").unwrap(),
            Ast::cons(Ast::atom("a"), Ast::Nil)
        );
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_term("-1").unwrap(), Ast::Int(-1));
        assert_eq!(
            parse_term("-N").unwrap(),
            Ast::Tuple("-".into(), vec![Ast::var("N")])
        );
    }

    #[test]
    fn quoted_operator_atoms_as_functors() {
        let t = parse_term("eval('+', L, R, V)").unwrap();
        assert_eq!(
            t,
            Ast::Tuple(
                "eval".into(),
                vec![Ast::atom("+"), Ast::var("L"), Ast::var("R"), Ast::var("V")]
            )
        );
    }

    #[test]
    fn missing_dot_is_an_error() {
        let e = parse_program("f(X) :- g(X)").unwrap_err();
        assert!(e.message.contains('.'), "got: {}", e.message);
    }

    /// `line:col message` of every error below, as reported when the whole
    /// text was lexed before parsing began — except the rows marked
    /// "first in the text": there a lexical error further on used to win
    /// over an earlier parse error.
    #[test]
    fn error_messages_and_positions_are_fixed() {
        let terms = [
            ("f(\n  #)", "2:3 unexpected character '#'"),
            ("\"abc", "1:5 unterminated literal"),
            ("'abc", "1:5 unterminated literal"),
            ("\"a\\q\"", "1:5 unknown escape \\q"),
            ("\"a\\", "1:4 unterminated escape"),
            ("'a\\", "1:4 unterminated escape"),
            ("\"é", "1:4 unterminated literal"),
            ("a =\\ b", "1:5 expected `=` after `=\\`"),
            ("a : b", "1:4 expected `:-` or `:=`"),
            (
                "99999999999999999999",
                "1:21 bad integer literal 99999999999999999999: \
                 number too large to fit in target type",
            ),
            ("f(a) ; g", "1:6 unexpected character ';'"),
            ("\n\n   $", "3:4 unexpected character '$'"),
            ("f(a", "1:4 expected `)`, found `<eof>`"),
            ("f(a,)", "1:5 expected a term, found `)`"),
            ("[1,2", "1:5 expected `]`, found `<eof>`"),
            (")", "1:1 expected a term, found `)`"),
            ("a b", "1:3 expected end of input, found `b`"),
            ("f(1) 2", "1:6 expected end of input, found `2`"),
            ("", "1:1 expected a term, found `<eof>`"),
            ("   ", "1:4 expected a term, found `<eof>`"),
            ("X := ", "1:3 expected a term, found `<eof>`"),
            ("- ", "1:1 expected a term, found `<eof>`"),
            ("f(\"str\" x)", "1:9 expected `)`, found `x`"),
            ("f('q' 3.5)", "1:7 expected `)`, found `3.5`"),
            ("[1|2,3]", "1:5 expected `]`, found `,`"),
            ("f(X) @", "1:6 expected end of input, found `@`"),
            ("1 + * 2", "1:5 expected a term, found `*`"),
            ("f(a))", "1:5 expected end of input, found `)`"),
            ("g(\n  a,\n  ]\n)", "3:3 expected a term, found `]`"),
            ("[a|]", "1:4 expected a term, found `]`"),
            ("X == Y == Z", "1:8 expected end of input, found `==`"),
            ("(a", "1:3 expected `)`, found `<eof>`"),
            ("f(,)", "1:3 expected a term, found `,`"),
            // First in the text: a parse error ahead of a lexical one.
            ("f(a,) #", "1:5 expected a term, found `)`"),
            ("a b #", "1:3 expected end of input, found `b`"),
        ];
        let programs = [
            (
                "f(X) :- g(X)",
                "1:13 expected `.` at end of clause, found `<eof>`",
            ),
            (
                "3 :- g(X).",
                "1:3 rule head must be an atom or compound term",
            ),
            (
                "[a] :- g(X).",
                "1:5 rule head must be an atom or compound term",
            ),
            ("f(X) :- | g.", "1:9 expected a term, found `|`"),
            ("f(X) :- g(X) | .", "1:16 expected a term, found `.`"),
            (
                "f(X) :- g(X).\n  g(Y) :- h(Y)\n",
                "3:1 expected `.` at end of clause, found `<eof>`",
            ),
            ("f(X) :- g(X)@.", "1:14 expected a term, found `.`"),
            ("f :- g. #", "1:9 unexpected character '#'"),
            ("f(X :- g.", "1:5 expected `)`, found `:-`"),
            // First in the text: a parse error ahead of a lexical one.
            (
                "f(X) :- g(X) h #.",
                "1:14 expected `.` at end of clause, found `h`",
            ),
        ];
        let shown = |e: ParseError| format!("{}:{} {}", e.line, e.col, e.message);
        for (src, want) in terms {
            assert_eq!(shown(parse_term(src).unwrap_err()), want, "term {src:?}");
        }
        for (src, want) in programs {
            assert_eq!(
                shown(parse_program(src).unwrap_err()),
                want,
                "program {src:?}"
            );
        }
    }

    #[test]
    fn head_must_be_callable() {
        assert!(parse_program("3 :- g(X).").is_err());
        assert!(parse_program("[a] :- g(X).").is_err());
    }

    #[test]
    fn otherwise_guard_parses() {
        let p = parse_program("f(X) :- otherwise | g(X).").unwrap();
        assert!(p.get("f", 1).unwrap().rules[0].is_otherwise());
    }

    #[test]
    fn empty_body_with_guard() {
        // Degenerate but legal in the paper's style: a guard-only rule.
        let p = parse_program("f(X) :- X > 0 | true.").unwrap();
        assert_eq!(p.get("f", 1).unwrap().rules[0].body.len(), 1);
    }

    /// `open × n`, a `1`, `close × n`.
    fn nested(open: &str, close: &str, n: usize) -> String {
        format!("{}1{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn nesting_beyond_the_limit_is_a_parse_error_not_a_stack_overflow() {
        // 30 000 levels is a 60 KB line: under strand-serve's request cap,
        // and far past what a 2 MiB thread stack can recurse through.
        let deep = 30_000;
        for (open, close) in [("(", ")"), ("[", "]"), ("f(", ")"), ("-", ""), ("[0|", "]")] {
            let e = parse_term(&nested(open, close, deep)).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{open}: {e}");
            let clause = format!("p(X) :- q({}).", nested(open, close, deep));
            let e = parse_program(&clause).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{open}: {e}");
            let head = format!("p({}).", nested(open, close, deep));
            assert!(parse_program(&head).is_err(), "{open}");
        }
    }

    #[test]
    fn nesting_up_to_the_limit_and_long_flat_lists_parse() {
        // The goal's own `unary` frame is level 1.
        let ok = MAX_NESTING as usize - 1;
        assert!(parse_term(&nested("f(", ")", ok)).is_ok());
        assert!(parse_term(&nested("f(", ")", ok + 1)).is_err());
        // Length is not nesting.
        let list = format!("[{}]", vec!["1"; 8 * MAX_NESTING as usize].join(","));
        let Ast::List(..) = parse_term(&list).unwrap() else {
            panic!("expected a list");
        };
        // The parser is reusable after a depth error on one clause: depth
        // is per-parse state, not global.
        assert!(parse_term("f(g(h(1)))").is_ok());
    }

    #[test]
    fn a_request_sized_flat_list_parses_and_drops_on_a_small_stack() {
        // 32 000 elements is what a 64 KiB request line holds. Neither the
        // parse (a fold) nor the drop of its `Ast` (iterative along the
        // spine) may recurse per element.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let list = format!("[{}]", vec!["1"; 32_000].join(","));
                let ast = parse_term(&list).unwrap();
                let mut len = 0;
                let mut cur = &ast;
                while let Ast::List(_, tail) = cur {
                    len += 1;
                    cur = tail;
                }
                assert_eq!(len, 32_000);
                drop(ast);
            })
            .expect("spawn")
            .join()
            .expect("a flat list must not overflow the stack");
    }
}
