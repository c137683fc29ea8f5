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

use crate::ast::{Annotation, Ast, Call, Program, Rule};
use crate::lexer::{lex, LexError, Spanned, Tok};
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

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Live `unary` frames: every nesting cycle passes through `unary`.
    depth: u32,
}

impl Parser {
    fn new(src: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
            depth: 0,
        })
    }
}

/// Parse a complete program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src)?;
    let mut program = Program::new();
    while p.peek() != &Tok::Eof {
        program.push_rule(p.clause()?);
    }
    Ok(program)
}

/// Parse a single term (used by tests and the machine's goal entry point).
pub fn parse_term(src: &str) -> Result<Ast, ParseError> {
    let mut p = Parser::new(src)?;
    let t = p.expr()?;
    p.expect(Tok::Eof, "end of input")?;
    Ok(t)
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn here(&self) -> (u32, u32) {
        let s = &self.toks[self.pos];
        (s.line, s.col)
    }

    /// Take the current token, by value: a consumed slot is never read
    /// again (`peek`/`here` look at `pos` onward, error positions only at
    /// `line`/`col`), so its identifier moves out instead of being cloned.
    fn bump(&mut self) -> Tok {
        let slot = &mut self.toks[self.pos].tok;
        if matches!(slot, Tok::Eof) {
            return Tok::Eof;
        }
        self.pos += 1;
        std::mem::replace(slot, Tok::Eof)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == &tok {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found `{}`", self.peek())))
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
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
        self.expect(Tok::Dot, "`.` at end of clause")?;
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

    fn expr(&mut self) -> Result<Ast, ParseError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Tok::Assign => ":=",
            Tok::Eq => "=",
            Tok::EqEq => "==",
            Tok::Neq => "=\\=",
            Tok::Lt => "<",
            Tok::Gt => ">",
            Tok::Le => "=<",
            Tok::Ge => ">=",
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Ast::Tuple(op.to_string(), vec![lhs, rhs]))
    }

    fn additive(&mut self) -> Result<Ast, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => "+",
                Tok::Minus => "-",
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Ast::Tuple(op.to_string(), vec![lhs, rhs]);
        }
    }

    fn multiplicative(&mut self) -> Result<Ast, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => "*",
                Tok::Slash => "/",
                // `mod` is an atom in operator position: `X mod 2`.
                Tok::Atom(a) if a == "mod" => "mod",
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Ast::Tuple(op.to_string(), vec![lhs, rhs]);
        }
    }

    fn unary(&mut self) -> Result<Ast, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("term nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let term = self.unary_unguarded();
        self.depth -= 1;
        term
    }

    fn unary_unguarded(&mut self) -> Result<Ast, ParseError> {
        if self.eat(&Tok::Minus) {
            // Fold negative literals; keep `-(X)` for variables/expressions.
            return Ok(match self.unary()? {
                Ast::Int(i) => Ast::Int(-i),
                Ast::Float(x) => Ast::Float(-x),
                other => Ast::Tuple("-".into(), vec![other]),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Ast, ParseError> {
        match self.bump() {
            Tok::Int(i) => Ok(Ast::Int(i)),
            Tok::Float(x) => Ok(Ast::Float(x)),
            Tok::Var(v) => Ok(Ast::Var(v)),
            Tok::Wild => Ok(Ast::Wild),
            Tok::Str(s) => Ok(Ast::Str(s)),
            Tok::LParen => {
                let inner = self.expr()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::LBracket => self.list_tail(),
            Tok::Atom(name) => {
                if self.peek() == &Tok::LParen {
                    self.bump();
                    let mut args = vec![self.expr()?];
                    while self.eat(&Tok::Comma) {
                        args.push(self.expr()?);
                    }
                    self.expect(Tok::RParen, "`)`")?;
                    Ok(Ast::Tuple(name, args))
                } else {
                    Ok(Ast::Atom(name))
                }
            }
            other => Err(ParseError {
                message: format!("expected a term, found `{other}`"),
                line: self.toks[self.pos.saturating_sub(1)].line,
                col: self.toks[self.pos.saturating_sub(1)].col,
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
        self.expect(Tok::RBracket, "`]`")?;
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
