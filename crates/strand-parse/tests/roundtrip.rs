//! Property tests: pretty-printing round-trips through the parser for
//! arbitrarily generated programs, and the compiler accepts everything the
//! parser produces (minus unresolved pragmas).

use proptest::prelude::*;
use strand_parse::{
    compile_program, parse_program, parse_term, pretty, Annotation, Ast, Call, Program, Rule,
};

/// Strategy: plausible identifier atoms.
fn atom_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,5}"
}

fn var_name() -> impl Strategy<Value = String> {
    "[A-Z][a-z0-9]{0,4}"
}

/// Strategy: arbitrary surface terms (no operators — those are covered by
/// targeted unit tests; operator round-tripping is checked via parse).
fn ast() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        var_name().prop_map(Ast::var),
        atom_name().prop_map(Ast::atom),
        any::<i16>().prop_map(|i| Ast::Int(i as i64)),
        Just(Ast::Wild),
        Just(Ast::Nil),
        "[ -~&&[^\"\\\\']]{0,6}".prop_map(Ast::Str),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (atom_name(), proptest::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, args)| Ast::tuple(n, args)),
            proptest::collection::vec(inner, 0..3).prop_map(Ast::list),
        ]
    })
}

/// Any finite float: raw bit patterns reach the exponent extremes and the
/// subnormals, short decimals the everyday ones.
fn finite_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |x| x.is_finite()),
        (any::<i32>(), 0u32..6).prop_map(|(m, k)| m as f64 / 10f64.powi(k as i32)),
    ]
}

/// Strategy: every surface term the printer writes back as parseable text
/// — operators included — covering each token the lexer makes: plain and
/// quoted atoms, `_` and named variables, integers over all of `i64` but
/// its minimum (whose magnitude is no literal), finite floats, strings
/// with escapes. Excluded, because the printer does not invert them:
/// unary minus over a number literal (the parser folds `-3`), and a
/// relation as the left operand of a relation (relations do not nest).
fn printable_term() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        var_name().prop_map(Ast::var),
        "_[A-Za-z0-9]{1,4}".prop_map(Ast::var),
        atom_name().prop_map(Ast::atom),
        "[ -~]{0,6}".prop_map(Ast::atom),
        any::<i64>()
            .prop_filter("has a literal", |i| *i != i64::MIN)
            .prop_map(Ast::Int),
        finite_float().prop_map(Ast::Float),
        Just(Ast::Wild),
        Just(Ast::Nil),
        "[ -~\\n\\t]{0,6}".prop_map(Ast::Str),
    ];
    let term = leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (
                "[A-Z ][ -~]{0,4}",
                proptest::collection::vec(inner.clone(), 1..4)
            )
                .prop_map(|(n, args)| Ast::tuple(n, args)),
            (atom_name(), proptest::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, args)| Ast::tuple(n, args)),
            (
                proptest::collection::vec(inner.clone(), 0..4),
                inner.clone()
            )
                .prop_map(|(items, tail)| {
                    items.into_iter().rev().fold(tail, |t, h| Ast::cons(h, t))
                }),
            (0usize..5, inner.clone(), inner.clone())
                .prop_map(|(op, l, r)| { Ast::tuple(["+", "-", "*", "/", "mod"][op], vec![l, r]) }),
            inner
                .prop_filter("the parser folds a negated literal", |a| {
                    !matches!(a, Ast::Int(_) | Ast::Float(_))
                })
                .prop_map(|a| Ast::tuple("-", vec![a])),
        ]
    });
    let rel = ["=", ":=", "==", "=\\=", "<", ">", "=<", ">="];
    prop_oneof![
        term.clone(),
        (0usize..8, term.clone(), term).prop_map(move |(op, l, r)| Ast::tuple(rel[op], vec![l, r])),
    ]
}

fn call() -> impl Strategy<Value = Call> {
    (
        atom_name(),
        proptest::collection::vec(ast(), 0..3),
        prop_oneof![
            Just(None),
            Just(Some(Annotation::Random)),
            Just(Some(Annotation::Task)),
            ast()
                .prop_filter("placement must be var/int/atom", |a| matches!(
                    a,
                    Ast::Var(_) | Ast::Int(_)
                ))
                .prop_map(|a| Some(Annotation::Node(a))),
        ],
    )
        .prop_map(|(name, args, annotation)| Call {
            goal: Ast::tuple(name, args),
            annotation,
        })
}

fn rule() -> impl Strategy<Value = Rule> {
    (
        atom_name(),
        proptest::collection::vec(ast(), 0..3),
        proptest::collection::vec(call(), 0..4),
    )
        .prop_map(|(name, head_args, body)| Rule {
            head: Ast::tuple(name, head_args),
            guards: vec![],
            body,
        })
}

fn program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(rule(), 1..8).prop_map(|rules| {
        let mut p = Program::new();
        for r in rules {
            p.push_rule(r);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pretty ∘ parse = identity on generated programs.
    #[test]
    fn pretty_then_parse_roundtrips(p in program()) {
        let printed = pretty(&p);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed program failed to reparse: {e}\n{printed}"));
        prop_assert_eq!(p, reparsed);
    }

    /// The compiler accepts any pragma-free parsed program.
    #[test]
    fn compiler_accepts_pragma_free_programs(p in program()) {
        let has_pragma = p.rules().any(|r| {
            r.body.iter().any(|c| matches!(
                c.annotation,
                Some(Annotation::Random) | Some(Annotation::Task)
            ))
        });
        let result = compile_program(&p);
        if has_pragma {
            prop_assert!(result.is_err(), "pragmas must be rejected");
        } else {
            prop_assert!(result.is_ok(), "{:?}", result.err());
        }
    }

    /// print ∘ parse = identity on terms: the parser reads back every
    /// token the printer writes.
    #[test]
    fn printed_terms_parse_back(t in printable_term()) {
        let printed = t.to_string();
        let reparsed = parse_term(&printed)
            .unwrap_or_else(|e| panic!("printed term failed to reparse: {e}\n{printed}"));
        prop_assert_eq!(t, reparsed);
    }

    /// Guard expressions round-trip with operators at every precedence.
    #[test]
    fn guarded_rules_roundtrip(a in -99i64..99, b in -99i64..99, c in 1i64..9) {
        let src = format!(
            "f(N) :- N > {a} | X := N * {b} + {c}, Y := (N + {a}) * {c}, g(X, Y).\n"
        );
        let p = parse_program(&src).unwrap();
        let printed = pretty(&p);
        prop_assert_eq!(parse_program(&printed).unwrap(), p);
    }
}

#[test]
fn union_is_associative_on_disjoint_programs() {
    let a = parse_program("a(1).").unwrap();
    let b = parse_program("b(2).").unwrap();
    let c = parse_program("c(3).").unwrap();
    assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
}
