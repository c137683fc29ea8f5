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
//!
//! A term (as opposed to a program) is data for the store, so the parser
//! builds each variable-free subterm of it straight as the runtime
//! [`Term`]: each name interned once per parse, each compound one block,
//! its arguments gathered on one stack the whole parse shares. Only a
//! subterm holding a variable becomes an [`Ast`] node, and its ground
//! arguments sit in it as [`Ast::Ground`].

use crate::ast::{Annotation, Ast, Call, Program, Rule};
use crate::lexer::{LexError, Lexer, Tok};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use strand_core::{sym, Atom, AtomError, Term};

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

/// Why [`parse_ground`] refused a text, in the order it checks.
#[derive(Clone, Debug, PartialEq)]
pub enum GroundError {
    /// The text is not a term.
    Parse(ParseError),
    /// The symbol table refused a name ([`Atom::try_new`]).
    Atom(AtomError),
    /// The term holds a variable.
    Variable,
}

impl From<ParseError> for GroundError {
    fn from(e: ParseError) -> Self {
        GroundError::Parse(e)
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

/// A subterm as the parser builds it.
enum Node {
    /// Variable-free, read as a term: the runtime term itself.
    Ground(Term),
    /// Anything else: a surface node.
    Ast(Ast),
}

impl Node {
    fn is_ground(&self) -> bool {
        matches!(self, Node::Ground(_))
    }

    fn into_term(self) -> Term {
        match self {
            Node::Ground(t) => t,
            Node::Ast(_) => unreachable!("only ground nodes become terms"),
        }
    }

    fn into_ast(self) -> Ast {
        match self {
            Node::Ground(t) => Ast::Ground(t),
            Node::Ast(a) => a,
        }
    }
}

/// How a term's names become atoms: each distinct one through `intern`
/// once per parse. The map keeps the default hasher: the names may come
/// from a socket.
struct Names<'a> {
    intern: fn(&str) -> Result<Atom, AtomError>,
    seen: HashMap<Cow<'a, str>, Atom>,
    /// The first name `intern` refused. The parse goes on, so that a syntax
    /// error anywhere in the text still wins.
    refused: Option<AtomError>,
}

impl<'a> Names<'a> {
    // A `Cow`, not a `&str`: a new name is kept borrowed from the text.
    #[allow(clippy::ptr_arg)]
    fn atom(&mut self, name: &Cow<'a, str>) -> Atom {
        if let Some(&atom) = self.seen.get(&**name) {
            return atom;
        }
        match (self.intern)(name) {
            Ok(atom) => {
                self.seen.insert(name.clone(), atom);
                atom
            }
            Err(e) => {
                self.refused.get_or_insert(e);
                sym::ELIDED
            }
        }
    }
}

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
    /// Reading a term: its ground subterms are built as [`Term`]s. `None`
    /// reading a program, which stays all [`Ast`].
    names: Option<Names<'a>>,
    /// The arguments of a term's compounds being read, and the elements
    /// of every list.
    stack: Vec<Node>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, names: Option<Names<'a>>) -> Parser<'a> {
        let mut p = Parser {
            lexer: Lexer::new(src),
            tok: Tok::Eof,
            at: (1, 1),
            last: None,
            lex_error: None,
            depth: 0,
            names,
            stack: Vec::new(),
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
    let mut p = Parser::new(src, None);
    let mut program = Program::new();
    while p.peek() != &Tok::Eof {
        program.push_rule(p.clause()?);
    }
    p.finish()?;
    Ok(program)
}

/// Parse a single term from trusted text (a goal): its names are interned
/// with [`Atom::new`], and its variable-free subterms come back as
/// [`Ast::Ground`].
pub fn parse_term(src: &str) -> Result<Ast, ParseError> {
    read_term(src, |name| Ok(Atom::new(name))).map(|(t, _)| t.into_ast())
}

/// Parse untrusted text (a request line) as a ground term, its names
/// interned with [`Atom::try_new`]. A syntax error is reported first, then
/// the first name the table refused, then a variable.
pub fn parse_ground(src: &str) -> Result<Term, GroundError> {
    match read_term(src, Atom::try_new)? {
        (_, Some(refused)) => Err(GroundError::Atom(refused)),
        (Node::Ground(t), None) => Ok(t),
        (Node::Ast(_), None) => Err(GroundError::Variable),
    }
}

/// One term, and the first name `intern` refused.
fn read_term(
    src: &str,
    intern: fn(&str) -> Result<Atom, AtomError>,
) -> Result<(Node, Option<AtomError>), ParseError> {
    let names = Names {
        intern,
        seen: HashMap::new(),
        refused: None,
    };
    let mut p = Parser::new(src, Some(names));
    let t = p.expr()?;
    p.expect(&Tok::Eof, "end of input")?;
    let refused = p.names.take().and_then(|n| n.refused);
    p.finish()?;
    Ok((t, refused))
}

/// The binary operator `op(lhs, rhs)`, as [`Parser::compound`] builds a
/// compound but from the operands in hand: an operator, four in most of a
/// program's clauses, passes through no argument stack.
fn binary(op: &str, atom: Atom, lhs: Node, rhs: Node) -> Node {
    if lhs.is_ground() && rhs.is_ground() {
        Node::Ground(Term::tuple_from(atom, [lhs.into_term(), rhs.into_term()]))
    } else {
        Node::Ast(Ast::Tuple(
            op.to_string(),
            vec![lhs.into_ast(), rhs.into_ast()],
        ))
    }
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
        let head = self.primary()?.into_ast();
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
        let goal = self.expr()?.into_ast();
        let annotation = if self.eat(&Tok::At) {
            let place = self.unary()?.into_ast();
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
    fn expr(&mut self) -> Result<Node, ParseError> {
        let lhs = self.unary()?;
        if self.binop().is_none() {
            return Ok(lhs);
        }
        self.climb(lhs, 1)
    }

    /// The lookahead as a binary operator, with its atom and precedence.
    fn binop(&self) -> Option<(&'static str, Atom, u8)> {
        Some(match self.peek() {
            Tok::Assign => (":=", sym::ASSIGN, 1),
            Tok::Eq => ("=", sym::UNIFY, 1),
            Tok::EqEq => ("==", sym::EQ, 1),
            Tok::Neq => ("=\\=", sym::NEQ, 1),
            Tok::Lt => ("<", sym::LT, 1),
            Tok::Gt => (">", sym::GT, 1),
            Tok::Le => ("=<", sym::LE, 1),
            Tok::Ge => (">=", sym::GE, 1),
            Tok::Plus => ("+", sym::PLUS, 2),
            Tok::Minus => ("-", sym::MINUS, 2),
            Tok::Star => ("*", sym::TIMES, 3),
            Tok::Slash => ("/", sym::DIVIDE, 3),
            // `mod` is an atom in operator position: `X mod 2`.
            Tok::Atom(a) if a == "mod" => ("mod", sym::MOD, 3),
            _ => return None,
        })
    }

    /// Extend `lhs` by the operators that bind at least as tightly as `min`.
    fn climb(&mut self, mut lhs: Node, min: u8) -> Result<Node, ParseError> {
        while let Some((op, atom, prec)) = self.binop() {
            if prec < min {
                break;
            }
            self.bump();
            let rhs = self.unary()?;
            let rhs = self.climb(rhs, prec + 1)?;
            lhs = binary(op, atom, lhs, rhs);
            if prec == 1 {
                break;
            }
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Node, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("term nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let term = if self.eat(&Tok::Minus) {
            // Fold negative literals; keep `-(X)` for variables/expressions.
            self.unary().map(|t| match t {
                Node::Ground(Term::Int(i)) => Node::Ground(Term::Int(-i)),
                Node::Ground(Term::Float(x)) => Node::Ground(Term::Float(-x)),
                Node::Ast(Ast::Int(i)) => Node::Ast(Ast::Int(-i)),
                Node::Ast(Ast::Float(x)) => Node::Ast(Ast::Float(-x)),
                other => {
                    let base = self.stack.len();
                    self.stack.push(other);
                    self.compound(Cow::Borrowed("-"), sym::MINUS, base)
                }
            })
        } else {
            self.primary()
        };
        self.depth -= 1;
        term
    }

    /// A constant: the term itself when reading a term, else its node.
    fn constant(&self, term: Term, ast: Ast) -> Node {
        if self.names.is_some() {
            Node::Ground(term)
        } else {
            Node::Ast(ast)
        }
    }

    /// A term's `name(…)` over the nodes on the stack from `base`, which
    /// it takes: one block when every argument is ground.
    fn compound(&mut self, name: Cow<'a, str>, atom: Atom, base: usize) -> Node {
        let ground = self.stack[base..].iter().all(Node::is_ground);
        let args = self.stack.drain(base..);
        if ground {
            Node::Ground(Term::tuple_from(atom, args.map(Node::into_term)))
        } else {
            Node::Ast(Ast::Tuple(
                name.into_owned(),
                args.map(Node::into_ast).collect(),
            ))
        }
    }

    fn primary(&mut self) -> Result<Node, ParseError> {
        let at = self.here();
        match self.bump() {
            Tok::Int(i) => Ok(self.constant(Term::Int(i), Ast::Int(i))),
            Tok::Float(x) => Ok(self.constant(Term::Float(x), Ast::Float(x))),
            Tok::Var(v) => Ok(Node::Ast(Ast::Var(v.to_owned()))),
            Tok::Wild => Ok(Node::Ast(Ast::Wild)),
            Tok::Str(s) if self.names.is_some() => Ok(Node::Ground(Term::str(&*s))),
            Tok::Str(s) => Ok(Node::Ast(Ast::Str(s.into_owned()))),
            Tok::LParen => {
                let inner = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Tok::LBracket => self.list_tail(),
            Tok::Atom(name) => {
                let atom = self.names.as_mut().map(|names| names.atom(&name));
                if !self.eat(&Tok::LParen) {
                    return Ok(match atom {
                        Some(atom) => Node::Ground(Term::Atom(atom)),
                        None => Node::Ast(Ast::Atom(name.into_owned())),
                    });
                }
                let Some(atom) = atom else {
                    // A program's compound: each argument straight into
                    // its node.
                    let mut args = Vec::new();
                    loop {
                        args.push(self.expr()?.into_ast());
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen, "`)`")?;
                    return Ok(Node::Ast(Ast::Tuple(name.into_owned(), args)));
                };
                let base = self.stack.len();
                loop {
                    let arg = self.expr()?;
                    self.stack.push(arg);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen, "`)`")?;
                Ok(self.compound(name, atom, base))
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

    /// Parse the rest of a list after `[`. A ground suffix is one term; the
    /// cells before it, back to the last variable, are nodes.
    fn list_tail(&mut self) -> Result<Node, ParseError> {
        if self.eat(&Tok::RBracket) {
            return Ok(self.constant(Term::Nil, Ast::Nil));
        }
        let base = self.stack.len();
        loop {
            let item = self.expr()?;
            self.stack.push(item);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let tail = if self.eat(&Tok::Bar) {
            self.expr()?
        } else {
            self.constant(Term::Nil, Ast::Nil)
        };
        self.expect(&Tok::RBracket, "`]`")?;
        Ok(self
            .stack
            .drain(base..)
            .rev()
            .fold(tail, |list, head| match (head, list) {
                (Node::Ground(h), Node::Ground(t)) => Node::Ground(Term::cons(h, t)),
                (h, t) => Node::Ast(Ast::cons(h.into_ast(), t.into_ast())),
            }))
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
        // Structure check: := ( + is left-assoc so (1 + (2*3)) - 4 ), and
        // the variable-free right side is one ground term.
        let Ast::Tuple(op, args) = &t else {
            panic!("expected :=");
        };
        assert_eq!(op, ":=");
        let Ast::Ground(Term::Tuple(minus, margs)) = &args[1] else {
            panic!("expected a ground subtraction at top");
        };
        assert_eq!(*minus, sym::MINUS);
        assert_eq!(margs[1], Term::Int(4));
        assert_eq!(margs[0].to_string(), "+(1,*(2,3))");
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
                    Ast::Tuple("mod".into(), vec![Ast::var("N"), Ast::Ground(Term::Int(2))])
                ]
            )
        );
    }

    #[test]
    fn lists_with_tails() {
        let t = parse_term("[1, 2|T]").unwrap();
        let ground = |t| Ast::Ground(t);
        assert_eq!(
            t,
            Ast::cons(
                ground(Term::Int(1)),
                Ast::cons(ground(Term::Int(2)), Ast::var("T"))
            )
        );
        assert_eq!(parse_term("[]").unwrap(), ground(Term::Nil));
        assert_eq!(
            parse_term("[a]").unwrap(),
            ground(Term::list([Term::atom("a")]))
        );
        // The cells back to the last variable are nodes; the suffix after
        // it is one term.
        assert_eq!(
            parse_term("[X, 1, [2]]").unwrap(),
            Ast::cons(
                Ast::var("X"),
                ground(Term::list([Term::Int(1), Term::list([Term::Int(2)])]))
            )
        );
        // A program keeps every node.
        let p = parse_program("f([a]).").unwrap();
        assert_eq!(
            p.get("f", 1).unwrap().rules[0].head.args()[0],
            Ast::cons(Ast::atom("a"), Ast::Nil)
        );
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_term("-1").unwrap(), Ast::Ground(Term::Int(-1)));
        assert_eq!(parse_term("- 2.5").unwrap(), Ast::Ground(Term::Float(-2.5)));
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
                vec![
                    Ast::Ground(Term::atom("+")),
                    Ast::var("L"),
                    Ast::var("R"),
                    Ast::var("V")
                ]
            )
        );
    }

    #[test]
    fn ground_compounds_are_single_terms_and_the_rest_stays_nodes() {
        let t = parse_term("go(X, g(1, \"s\", 'A b'), -(a), [a|Y], _)").unwrap();
        let Ast::Tuple(name, args) = &t else {
            panic!("expected go/5, got {t:?}");
        };
        assert_eq!(name, "go");
        assert_eq!(args[0], Ast::var("X"));
        assert_eq!(
            args[1],
            Ast::Ground(Term::tuple(
                "g",
                vec![Term::Int(1), Term::str("s"), Term::atom("A b")]
            ))
        );
        assert_eq!(
            args[2],
            Ast::Ground(Term::tuple("-", vec![Term::atom("a")]))
        );
        assert_eq!(
            args[3],
            Ast::cons(Ast::Ground(Term::atom("a")), Ast::var("Y"))
        );
        assert_eq!(args[4], Ast::Wild);
        assert_eq!(t.to_string(), "go(X, g(1, \"s\", 'A b'), -a, [a|Y], _)");
    }

    #[test]
    fn ground_requests_report_syntax_then_names_then_variables() {
        assert_eq!(
            parse_ground("f(a, [1, \"s\"], 'B c')").unwrap(),
            Term::tuple(
                "f",
                vec![
                    Term::atom("a"),
                    Term::list([Term::Int(1), Term::str("s")]),
                    Term::atom("B c")
                ]
            )
        );
        assert_eq!(parse_ground("7").unwrap(), Term::Int(7));
        // A repeated name is found again.
        let names: Vec<String> = (0..20).map(|i| format!("n{i}")).collect();
        let t = parse_ground(&format!("f({0}, {0})", names.join(", "))).unwrap();
        assert_eq!(t.goal_args()[..20], t.goal_args()[20..]);
        assert_eq!(t.goal_args()[19], Term::atom("n19"));
        let long = "x".repeat(300);
        let too_long = GroundError::Atom(AtomError::NameTooLong { len: 300 });
        assert_eq!(parse_ground(&format!("f({long})")), Err(too_long.clone()));
        // The first refused name is the one reported.
        let longer = "y".repeat(400);
        assert_eq!(parse_ground(&format!("{long}({longer}, X)")), Err(too_long));
        assert_eq!(parse_ground("f(X)"), Err(GroundError::Variable));
        assert_eq!(parse_ground("[1|_]"), Err(GroundError::Variable));
        // A syntax error anywhere wins over a refused name before it.
        assert!(matches!(
            parse_ground(&format!("f({long}, X")),
            Err(GroundError::Parse(e)) if e.message.contains("expected `)`")
        ));
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
        let Ast::Ground(Term::List(_)) = parse_term(&list).unwrap() else {
            panic!("expected a ground list");
        };
        // The parser is reusable after a depth error on one clause: depth
        // is per-parse state, not global.
        assert!(parse_term("f(g(h(1)))").is_ok());
    }

    #[test]
    fn a_request_sized_flat_list_parses_and_drops_on_a_small_stack() {
        // 32 000 elements is what a 64 KiB request line holds. Neither the
        // parse (a fold) nor the drop of what it builds (iterative along
        // the spine, a term's and a node's alike) may recurse per element.
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let items = vec!["1"; 32_000].join(",");
                let ground = parse_term(&format!("[{items}]")).unwrap();
                let Ast::Ground(list) = &ground else {
                    panic!("expected a ground list");
                };
                assert_eq!(list.as_proper_list().map(|l| l.len()), Some(32_000));
                drop(ground);
                let open = parse_term(&format!("[{items}|T]")).unwrap();
                let mut len = 0;
                let mut cur = &open;
                while let Ast::List(_, tail) = cur {
                    len += 1;
                    cur = tail;
                }
                assert_eq!(len, 32_000);
                drop(open);
            })
            .expect("spawn")
            .join()
            .expect("a flat list must not overflow the stack");
    }
}
