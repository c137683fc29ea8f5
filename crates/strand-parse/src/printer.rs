//! Pretty-printer.
//!
//! Motif libraries are meant to be read (*"archives of expertise that can be
//! consulted, modified, and extended"*, §1), and the composition experiments
//! (Figure 5) are golden-tested against printed output, so printing is
//! deterministic: one clause per rule, guards before `|`, bodies indented,
//! operators infix with minimal parentheses.

use crate::ast::{Annotation, Ast, Call, Program, Rule};
use std::fmt::{self, Write};
use strand_core::Term;

/// Binding strength used to decide parenthesization.
fn op_prec(name: &str, arity: usize) -> Option<u8> {
    match (name, arity) {
        (":=" | "=" | "==" | "=\\=" | "<" | ">" | "=<" | ">=", 2) => Some(1),
        ("+" | "-", 2) => Some(2),
        ("*" | "/" | "mod", 2) => Some(3),
        ("-", 1) => Some(4),
        _ => None,
    }
}

/// How a term is written.
#[derive(Clone, Copy)]
enum Style {
    /// For reading: operators infix with minimal parentheses, `, ` between
    /// arguments and list elements.
    Pretty,
    /// For the wire: every compound in functional form, `,` alone between
    /// arguments.
    Compact,
}

/// A subterm as the printer walks it: a surface node, or a runtime term
/// (a ground node's, or a reply's).
#[derive(Clone, Copy)]
enum Node<'t> {
    Ast(&'t Ast),
    Term(&'t Term),
}

/// A compound's arguments.
#[derive(Clone, Copy)]
enum Args<'t> {
    Ast(&'t [Ast]),
    Term(&'t [Term]),
}

impl<'t> Args<'t> {
    fn len(self) -> usize {
        match self {
            Args::Ast(a) => a.len(),
            Args::Term(t) => t.len(),
        }
    }

    fn get(self, i: usize) -> Node<'t> {
        match self {
            Args::Ast(a) => Node::of(&a[i]),
            Args::Term(t) => Node::Term(&t[i]),
        }
    }
}

impl<'t> Node<'t> {
    fn of(a: &'t Ast) -> Node<'t> {
        match a {
            Ast::Ground(t) => Node::Term(t),
            a => Node::Ast(a),
        }
    }

    fn compound(self) -> Option<(&'t str, Args<'t>)> {
        match self {
            Node::Ast(Ast::Tuple(name, args)) => Some((name, Args::Ast(args))),
            Node::Term(Term::Tuple(name, args)) => Some((name.as_str(), Args::Term(args))),
            _ => None,
        }
    }

    fn cell(self) -> Option<(Node<'t>, Node<'t>)> {
        match self {
            Node::Ast(Ast::List(h, t)) => Some((Node::of(h), Node::of(t))),
            Node::Term(Term::List(cell)) => Some((Node::Term(&cell.0), Node::Term(&cell.1))),
            _ => None,
        }
    }
}

/// Format a term at a given minimum precedence.
fn fmt_at(t: Node<'_>, min: u8, style: Style, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let sep = match style {
        Style::Pretty => ", ",
        Style::Compact => ",",
    };
    if let Some((name, args)) = t.compound() {
        let prec = match style {
            Style::Pretty => op_prec(name, args.len()),
            Style::Compact => None,
        };
        if let Some(prec) = prec {
            let need_parens = prec < min;
            if need_parens {
                f.write_char('(')?;
            }
            if args.len() == 2 {
                // Left-associative: left child may be same precedence,
                // right child must bind tighter.
                fmt_at(args.get(0), prec, style, f)?;
                write!(f, " {name} ")?;
                fmt_at(args.get(1), prec + 1, style, f)?;
            } else {
                f.write_char('-')?;
                fmt_at(args.get(0), 5, style, f)?;
            }
            if need_parens {
                f.write_char(')')?;
            }
            return Ok(());
        }
        write_atom(name, f)?;
        f.write_char('(')?;
        for i in 0..args.len() {
            if i > 0 {
                f.write_str(sep)?;
            }
            fmt_at(args.get(i), 0, style, f)?;
        }
        return f.write_char(')');
    }
    if t.cell().is_some() {
        f.write_char('[')?;
        let mut cur = t;
        let mut first = true;
        while let Some((head, tail)) = cur.cell() {
            if !first {
                f.write_str(sep)?;
            }
            first = false;
            fmt_at(head, 0, style, f)?;
            cur = tail;
        }
        if !matches!(cur, Node::Ast(Ast::Nil) | Node::Term(Term::Nil)) {
            f.write_char('|')?;
            fmt_at(cur, 0, style, f)?;
        }
        return f.write_char(']');
    }
    match t {
        Node::Ast(Ast::Var(v)) => f.write_str(v),
        Node::Ast(Ast::Wild) => f.write_str("_"),
        Node::Ast(Ast::Int(i)) | Node::Term(Term::Int(i)) => write!(f, "{i}"),
        Node::Ast(Ast::Float(x)) | Node::Term(Term::Float(x)) => write!(f, "{x:?}"),
        Node::Ast(Ast::Atom(a)) => write_atom(a, f),
        Node::Term(Term::Atom(a)) => write_atom(a.as_str(), f),
        Node::Ast(Ast::Str(s)) => write_quoted(s, '"', f),
        Node::Term(Term::Str(s)) => write_quoted(s, '"', f),
        Node::Ast(Ast::Nil) | Node::Term(Term::Nil) => f.write_str("[]"),
        Node::Term(Term::Var(v)) => write!(f, "_{}", v.0),
        Node::Term(Term::Port(p)) => write!(f, "<port {p}>"),
        Node::Ast(Ast::Tuple(..) | Ast::List(..) | Ast::Ground(_))
        | Node::Term(Term::Tuple(..) | Term::List(_)) => unreachable!("written above"),
    }
}

/// An atom, quoted unless it is a plain lowercase identifier.
fn write_atom(name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let plain = name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if plain {
        f.write_str(name)
    } else {
        write_quoted(name, '\'', f)
    }
}

/// `text` between `delim`s, with the escapes the lexer reads back: a
/// newline stays off the line it is written on.
fn write_quoted(text: &str, delim: char, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char(delim)?;
    for c in text.chars() {
        match c {
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if c == delim => {
                f.write_char('\\')?;
                f.write_char(c)?;
            }
            c => f.write_char(c)?,
        }
    }
    f.write_char(delim)
}

/// `Display` hook used by `Ast`.
pub(crate) fn fmt_ast(t: &Ast, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt_at(Node::of(t), 0, Style::Pretty, f)
}

/// A runtime term in the compact form `strand-serve` replies in: no
/// spaces, every compound in functional form (`'+'(1,2)`), atoms and
/// strings quoted where the lexer needs it. [`parse_term`] reads it back
/// as the same term.
///
/// [`parse_term`]: crate::parse_term
pub fn term_text(t: &Term) -> String {
    struct Compact<'t>(&'t Term);
    impl fmt::Display for Compact<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt_at(Node::Term(self.0), 0, Style::Compact, f)
        }
    }
    Compact(t).to_string()
}

fn call_text(c: &Call) -> String {
    let mut s = c.goal.to_string();
    match &c.annotation {
        Some(Annotation::Random) => s.push_str("@random"),
        Some(Annotation::Task) => s.push_str("@task"),
        Some(Annotation::Node(n)) => {
            s.push('@');
            s.push_str(&n.to_string());
        }
        None => {}
    }
    s
}

fn rule_text(r: &Rule) -> String {
    let mut s = r.head.to_string();
    if r.guards.is_empty() && r.body.is_empty() {
        s.push('.');
        return s;
    }
    s.push_str(" :-");
    if !r.guards.is_empty() {
        s.push(' ');
        s.push_str(
            &r.guards
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        );
        s.push_str(" |");
    }
    if r.body.is_empty() {
        s.push_str(" true.");
        return s;
    }
    s.push_str("\n    ");
    s.push_str(
        &r.body
            .iter()
            .map(call_text)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    s.push('.');
    s
}

/// Pretty-print a whole program.
///
/// Procedures are separated by blank lines, in source order.
pub fn pretty(p: &Program) -> String {
    let mut out = String::new();
    for (i, proc) in p.procedures().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        for r in &proc.rules {
            out.push_str(&rule_text(r));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_term};

    #[test]
    fn roundtrip_terms() {
        for src in [
            "f(X, [1, 2|T], \"s\")",
            "X := N - 1",
            "V := (1 + 2) * 3",
            "eval('+', L, R, V)",
            "N mod 2",
            "[a, f(B), []]",
        ] {
            let t = parse_term(src).unwrap();
            assert_eq!(t.to_string(), src, "term printing should round-trip");
        }
    }

    #[test]
    fn reparse_preserves_structure() {
        let src = r#"
            reduce(tree(V, L, R), Value) :-
                reduce(R, RV)@random,
                reduce(L, LV),
                eval(V, LV, RV, Value).
            reduce(leaf(L), Value) :- Value := L.
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = pretty(&p1);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p1, p2, "pretty output must reparse to the same program");
    }

    #[test]
    fn facts_print_compactly() {
        let p = parse_program("server([]).").unwrap();
        assert_eq!(pretty(&p).trim(), "server([]).");
    }

    #[test]
    fn guards_and_annotations_render() {
        let p = parse_program("p(N) :- N > 0 | q(N)@random, r(N)@3.").unwrap();
        let s = pretty(&p);
        assert!(s.contains("N > 0 |"));
        assert!(s.contains("q(N)@random"));
        assert!(s.contains("r(N)@3"));
    }

    #[test]
    fn weird_atoms_get_quoted() {
        let p = parse_program("f('odd atom', '+').").unwrap();
        let s = pretty(&p);
        assert!(s.contains("'odd atom'"));
        assert!(s.contains("'+'"));
        // And the quoted output reparses identically.
        assert_eq!(parse_program(&s).unwrap(), p);
    }

    #[test]
    fn non_ascii_atoms_and_strings_print_back_and_reparse_equal() {
        for (src, want) in [
            ("'é'", Ast::Ground(Term::atom("é"))),
            ("\"héllo\"", Ast::Ground(Term::str("héllo"))),
            ("'日本'", Ast::Ground(Term::atom("日本"))),
        ] {
            let t = parse_term(src).unwrap();
            assert_eq!(t, want);
            assert_eq!(t.to_string(), src);
            assert_eq!(parse_term(&t.to_string()).unwrap(), t);
        }
    }

    #[test]
    fn unary_minus_prints() {
        let t = parse_term("-N").unwrap();
        assert_eq!(t.to_string(), "-N");
        let t = parse_term("0 - -N").unwrap();
        assert_eq!(parse_term(&t.to_string()).unwrap(), t);
    }
}
