//! Property tests for the term model and single-assignment store.

use proptest::prelude::*;
use strand_core::{eval_arith, match_args, MatchOutcome, NodeId, Pat, SplitMix64, Store, Term};

/// Strategy: random ground terms.
fn ground_term() -> impl Strategy<Value = Term> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(|i| Term::int(i as i64)),
        "[a-z][a-z0-9_]{0,6}".prop_map(Term::atom),
        "[ -~]{0,8}".prop_map(Term::str),
        Just(Term::Nil),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                proptest::collection::vec(inner.clone(), 1..4),
                "[a-z][a-z0-9]{0,4}"
            )
                .prop_map(|(args, name)| Term::tuple(name, args)),
            proptest::collection::vec(inner, 0..4).prop_map(Term::list),
        ]
    })
}

/// Convert a ground term into the pattern that matches exactly it.
fn term_to_pat(t: &Term) -> Pat {
    match t {
        Term::Int(i) => Pat::Int(*i),
        Term::Float(x) => Pat::Float(*x),
        Term::Atom(a) => Pat::Atom(*a),
        Term::Str(s) => Pat::Str(s.clone()),
        Term::Nil => Pat::Nil,
        Term::Tuple(f, args) => Pat::tuple(*f, args.iter().map(term_to_pat).collect()),
        Term::List(cell) => Pat::cons(term_to_pat(&cell.0), term_to_pat(&cell.1)),
        Term::Var(_) | Term::Port(_) => unreachable!("ground terms only"),
    }
}

proptest! {
    /// A ground term always matches its own exact pattern, and a Local
    /// pattern captures it verbatim.
    #[test]
    fn ground_term_matches_itself(t in ground_term()) {
        let store = Store::new();
        let pat = term_to_pat(&t);
        let mut frame = strand_core::Frame::with_locals(1);
        prop_assert_eq!(
            match_args(
                std::slice::from_ref(&t),
                std::slice::from_ref(&pat),
                &store,
                &mut frame
            ),
            MatchOutcome::Match
        );
        let mut frame = strand_core::Frame::with_locals(1);
        prop_assert_eq!(
            match_args(std::slice::from_ref(&t), &[Pat::Local(0)], &store, &mut frame),
            MatchOutcome::Match
        );
        prop_assert_eq!(frame.get(0), Some(&t));
    }

    /// Binding through variables is transparent: a term reached through an
    /// alias chain matches exactly like the direct term.
    #[test]
    fn aliased_terms_match_like_direct(t in ground_term(), depth in 1usize..5) {
        let mut store = Store::new();
        let mut cur = t.clone();
        for _ in 0..depth {
            let v = store.new_var();
            store.bind(v, cur, 0, NodeId(0)).unwrap();
            cur = Term::Var(v);
        }
        let pat = term_to_pat(&t);
        let mut frame = strand_core::Frame::with_locals(0);
        prop_assert_eq!(
            match_args(
                std::slice::from_ref(&cur),
                std::slice::from_ref(&pat),
                &store,
                &mut frame
            ),
            MatchOutcome::Match
        );
        prop_assert_eq!(store.resolve(&cur), t);
    }

    /// The single-assignment property: any second binding errors, for any
    /// pair of values.
    #[test]
    fn double_binding_always_errors(a in ground_term(), b in ground_term()) {
        let mut store = Store::new();
        let v = store.new_var();
        store.bind(v, a, 0, NodeId(0)).unwrap();
        prop_assert!(store.bind(v, b, 1, NodeId(0)).is_err());
    }

    /// Waiters registered before a binding are all returned exactly once.
    #[test]
    fn all_waiters_returned(t in ground_term(), waiters in proptest::collection::btree_set(0u64..100, 0..10)) {
        let mut store = Store::new();
        let v = store.new_var();
        for w in &waiters {
            store.add_waiter(v, *w);
        }
        let woken = store.bind(v, t, 0, NodeId(0)).unwrap();
        let woken: std::collections::BTreeSet<u64> = woken.into_iter().collect();
        prop_assert_eq!(woken, waiters);
    }

    /// Arithmetic on ground integer expressions never suspends and matches
    /// a reference evaluation.
    #[test]
    fn arith_reference(a in -1000i64..1000, b in -1000i64..1000, op in 0u8..4) {
        let store = Store::new();
        let (name, reference): (&str, Option<i64>) = match op {
            0 => ("+", Some(a.wrapping_add(b))),
            1 => ("-", Some(a.wrapping_sub(b))),
            2 => ("*", Some(a.wrapping_mul(b))),
            _ => ("/", (b != 0).then(|| a / b)),
        };
        let e = Term::tuple(name, vec![Term::int(a), Term::int(b)]);
        match (eval_arith(&e, &store), reference) {
            (Ok(strand_core::arith::Evaled::Num(strand_core::Num::Int(x))), Some(r)) => {
                prop_assert_eq!(x, r)
            }
            (Err(_), None) => {} // division by zero errors, as specified
            (got, want) => prop_assert!(false, "got {got:?}, wanted {want:?}"),
        }
    }

    /// SplitMix64 `next_below` stays in range for any bound.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// resolve() is idempotent and preserves groundness.
    #[test]
    fn resolve_idempotent(t in ground_term()) {
        let mut store = Store::new();
        let v = store.new_var();
        store.bind(v, t.clone(), 0, NodeId(0)).unwrap();
        let r1 = store.resolve(&Term::Var(v));
        let r2 = store.resolve(&r1);
        prop_assert_eq!(&r1, &r2);
        prop_assert!(r1.is_ground());
        prop_assert_eq!(r1, t);
    }
}
