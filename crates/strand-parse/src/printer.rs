//! Pretty-printer.
//!
//! Motif libraries are meant to be read (*"archives of expertise that can be
//! consulted, modified, and extended"*, §1), and the composition experiments
//! (Figure 5) are golden-tested against printed output, so printing is
//! deterministic: one clause per rule, guards before `|`, bodies indented,
//! operators infix with minimal parentheses.

use crate::ast::{Annotation, Ast, Call, Program, Rule};
use std::fmt;

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

/// Format a term at a given minimum precedence.
fn fmt_at(t: &Ast, min: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match t {
        Ast::Tuple(name, args) => {
            if let Some(prec) = op_prec(name, args.len()) {
                let need_parens = prec < min;
                if need_parens {
                    write!(f, "(")?;
                }
                if args.len() == 2 {
                    // Left-associative: left child may be same precedence,
                    // right child must bind tighter.
                    fmt_at(&args[0], prec, f)?;
                    write!(f, " {name} ")?;
                    fmt_at(&args[1], prec + 1, f)?;
                } else {
                    write!(f, "-")?;
                    fmt_at(&args[0], 5, f)?;
                }
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            } else {
                write!(f, "{}(", atom_text(name))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    fmt_at(a, 0, f)?;
                }
                write!(f, ")")
            }
        }
        Ast::Var(v) => write!(f, "{v}"),
        Ast::Wild => write!(f, "_"),
        Ast::Int(i) => write!(f, "{i}"),
        Ast::Float(x) => write!(f, "{x:?}"),
        Ast::Atom(a) => write!(f, "{}", atom_text(a)),
        Ast::Str(s) => write!(f, "{s:?}"),
        Ast::Nil => write!(f, "[]"),
        Ast::List(_, _) => {
            write!(f, "[")?;
            let mut cur = t;
            let mut first = true;
            loop {
                match cur {
                    Ast::Nil => break,
                    Ast::List(h, tail) => {
                        if !first {
                            write!(f, ", ")?;
                        }
                        first = false;
                        fmt_at(h, 0, f)?;
                        cur = tail;
                    }
                    other => {
                        write!(f, "|")?;
                        fmt_at(other, 0, f)?;
                        break;
                    }
                }
            }
            write!(f, "]")
        }
    }
}

/// Quote an atom if it is not a plain lowercase identifier.
fn atom_text(name: &str) -> String {
    let plain = name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if plain {
        name.to_string()
    } else {
        format!("'{}'", name.replace('\\', "\\\\").replace('\'', "\\'"))
    }
}

/// `Display` hook used by `Ast`.
pub(crate) fn fmt_ast(t: &Ast, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fmt_at(t, 0, f)
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
            ("'é'", Ast::Atom("é".into())),
            ("\"héllo\"", Ast::Str("héllo".into())),
            ("'日本'", Ast::Atom("日本".into())),
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
