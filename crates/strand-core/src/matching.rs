//! One-way head matching and guard evaluation.
//!
//! *"Conditions expressed by non-variable terms in a rule head define
//! dataflow constraints: a rule cannot be used to reduce a process until the
//! process's arguments match its own"* (§2.1). Matching is one-way: rule
//! patterns never bind goal variables; a non-variable pattern position whose
//! goal counterpart is an unbound variable causes *suspension*, not failure.

use crate::arith::{eval_arith, Evaled};
use crate::error::StrandResult;
use crate::pat::{Frame, Pat};
use crate::store::{StoreOps, VarId};
use crate::sym;
use crate::term::Term;

/// Outcome of matching goal arguments against a rule head.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchOutcome {
    /// Head matched; the frame holds the local bindings.
    Match,
    /// Not enough data yet: these goal variables must be bound first.
    Suspend(Vec<VarId>),
    /// Definitive mismatch.
    Fail,
}

/// Outcome of evaluating one guard test.
#[derive(Clone, Debug, PartialEq)]
pub enum GuardOutcome {
    True,
    False,
    /// Guard needs these variables bound before it can be decided.
    Suspend(Vec<VarId>),
}

fn push_unique(vs: &mut Vec<VarId>, v: VarId) {
    if !vs.contains(&v) {
        vs.push(v);
    }
}

/// Match goal arguments against head patterns, filling `frame`.
///
/// On [`MatchOutcome::Suspend`] or [`MatchOutcome::Fail`] the frame contents
/// are unspecified and the caller must discard it.
pub fn match_args<S: StoreOps>(
    goal_args: &[Term],
    head: &[Pat],
    store: &S,
    frame: &mut Frame,
) -> MatchOutcome {
    debug_assert_eq!(goal_args.len(), head.len());
    let mut pending: Vec<VarId> = Vec::new();
    for (g, p) in goal_args.iter().zip(head.iter()) {
        match match_one(g, p, store, frame, &mut pending) {
            MatchStep::Ok => {}
            MatchStep::Fail => return MatchOutcome::Fail,
        }
    }
    if pending.is_empty() {
        MatchOutcome::Match
    } else {
        MatchOutcome::Suspend(pending)
    }
}

enum MatchStep {
    Ok,
    Fail,
}

fn match_one<S: StoreOps>(
    goal: &Term,
    pat: &Pat,
    store: &S,
    frame: &mut Frame,
    pending: &mut Vec<VarId>,
) -> MatchStep {
    let g = store.deref(goal);
    match pat {
        Pat::Wild => MatchStep::Ok,
        Pat::Local(i) => {
            match frame.get(*i).cloned() {
                None => {
                    frame.set(*i, g);
                    MatchStep::Ok
                }
                // Non-linear head (e.g. `p(X,X)`): both occurrences must be
                // equal; unknown equality suspends.
                Some(prev) => match term_eq(&prev, &g, store) {
                    EqOutcome::Eq => MatchStep::Ok,
                    EqOutcome::Neq => MatchStep::Fail,
                    EqOutcome::Unknown(vs) => {
                        for v in vs {
                            push_unique(pending, v);
                        }
                        MatchStep::Ok
                    }
                },
            }
        }
        _ => match &g {
            // Goal side not yet instantiated: dataflow suspension.
            Term::Var(v) => {
                push_unique(pending, *v);
                MatchStep::Ok
            }
            Term::Int(i) => match pat {
                Pat::Int(j) if i == j => MatchStep::Ok,
                Pat::Float(x) if *x == *i as f64 => MatchStep::Ok,
                _ => MatchStep::Fail,
            },
            Term::Float(x) => match pat {
                Pat::Float(y) if x == y => MatchStep::Ok,
                Pat::Int(j) if *x == *j as f64 => MatchStep::Ok,
                _ => MatchStep::Fail,
            },
            Term::Atom(a) => match pat {
                Pat::Atom(b) if a == b => MatchStep::Ok,
                _ => MatchStep::Fail,
            },
            Term::Str(s) => match pat {
                Pat::Str(t) if s == t => MatchStep::Ok,
                _ => MatchStep::Fail,
            },
            Term::Nil => match pat {
                Pat::Nil => MatchStep::Ok,
                _ => MatchStep::Fail,
            },
            Term::List(cell) => match pat {
                Pat::List(pcell) => {
                    match match_one(&cell.0, &pcell.0, store, frame, pending) {
                        MatchStep::Fail => return MatchStep::Fail,
                        MatchStep::Ok => {}
                    }
                    match_one(&cell.1, &pcell.1, store, frame, pending)
                }
                _ => MatchStep::Fail,
            },
            Term::Tuple(name, args) => match pat {
                Pat::Tuple(pname, pargs) if name == pname && args.len() == pargs.len() => {
                    for (ga, pa) in args.iter().zip(pargs.iter()) {
                        match match_one(ga, pa, store, frame, pending) {
                            MatchStep::Fail => return MatchStep::Fail,
                            MatchStep::Ok => {}
                        }
                    }
                    MatchStep::Ok
                }
                _ => MatchStep::Fail,
            },
            Term::Port(_) => MatchStep::Fail,
        },
    }
}

/// Three-valued structural equality under a store.
#[derive(Clone, Debug, PartialEq)]
pub enum EqOutcome {
    Eq,
    Neq,
    /// Equality cannot be decided until these variables are bound.
    Unknown(Vec<VarId>),
}

/// Compare two terms structurally, dereferencing through the store.
/// Variables that leave the answer open are listed in first-occurrence
/// order, left to right.
pub fn term_eq<S: StoreOps>(a: &Term, b: &Term, store: &S) -> EqOutcome {
    let mut a = store.deref(a);
    let mut b = store.deref(b);
    // Along list spines in a loop, so only nesting recurses: what the
    // heads so far left open waits in `pending` (empty, and never
    // allocated, when the terms are not lists).
    let mut pending = Vec::new();
    while let (Term::List(ca), Term::List(cb)) = (&a, &b) {
        match term_eq(&ca.0, &cb.0, store) {
            EqOutcome::Eq => {}
            EqOutcome::Neq => return EqOutcome::Neq,
            EqOutcome::Unknown(vs) => {
                for v in vs {
                    push_unique(&mut pending, v);
                }
            }
        }
        let tails = (store.deref(&ca.1), store.deref(&cb.1));
        (a, b) = tails;
    }
    let last = match (&a, &b) {
        (Term::Var(x), Term::Var(y)) => {
            if x == y {
                EqOutcome::Eq
            } else {
                EqOutcome::Unknown(vec![*x, *y])
            }
        }
        (Term::Var(x), _) | (_, Term::Var(x)) => EqOutcome::Unknown(vec![*x]),
        (Term::Int(x), Term::Int(y)) => bool_eq(x == y),
        (Term::Float(x), Term::Float(y)) => bool_eq(x == y),
        (Term::Int(x), Term::Float(y)) | (Term::Float(y), Term::Int(x)) => bool_eq(*x as f64 == *y),
        (Term::Atom(x), Term::Atom(y)) => bool_eq(x == y),
        (Term::Str(x), Term::Str(y)) => bool_eq(x == y),
        (Term::Nil, Term::Nil) => EqOutcome::Eq,
        (Term::Port(x), Term::Port(y)) => bool_eq(x == y),
        (Term::Tuple(fa, aa), Term::Tuple(fb, ab)) => {
            if fa != fb || aa.len() != ab.len() {
                return EqOutcome::Neq;
            }
            let mut open = Vec::new();
            for (x, y) in aa.iter().zip(ab.iter()) {
                match term_eq(x, y, store) {
                    EqOutcome::Eq => {}
                    EqOutcome::Neq => return EqOutcome::Neq,
                    EqOutcome::Unknown(vs) => {
                        for v in vs {
                            push_unique(&mut open, v);
                        }
                    }
                }
            }
            if open.is_empty() {
                EqOutcome::Eq
            } else {
                EqOutcome::Unknown(open)
            }
        }
        _ => EqOutcome::Neq,
    };
    match last {
        EqOutcome::Neq => EqOutcome::Neq,
        _ if pending.is_empty() => last,
        EqOutcome::Eq => EqOutcome::Unknown(pending),
        EqOutcome::Unknown(ws) => {
            for w in ws {
                push_unique(&mut pending, w);
            }
            EqOutcome::Unknown(pending)
        }
    }
}

fn bool_eq(b: bool) -> EqOutcome {
    if b {
        EqOutcome::Eq
    } else {
        EqOutcome::Neq
    }
}

/// Evaluate one guard test (already instantiated against the rule frame).
///
/// Supported guards: arithmetic comparisons `< > =< >= == =\=`, type tests
/// `integer/1 float/1 number/1 atom/1 string/1 list/1 tuple/1 data/1
/// unknown/1`, and `true/0`. The machine handles `otherwise` itself.
pub fn eval_guard<S: StoreOps>(guard: &Term, store: &S) -> StrandResult<GuardOutcome> {
    let g = store.deref(guard);
    let Some((&name, arity)) = g.functor() else {
        return Ok(GuardOutcome::False);
    };
    let args = g.goal_args();
    match (name, arity) {
        (sym::TRUE, 0) => Ok(GuardOutcome::True),
        (sym::LT, 2) | (sym::GT, 2) | (sym::LE, 2) | (sym::GE, 2) => {
            let l = eval_arith(&args[0], store)?;
            let r = eval_arith(&args[1], store)?;
            match (l, r) {
                (Evaled::Num(a), Evaled::Num(b)) => {
                    let (a, b) = (a.as_f64(), b.as_f64());
                    let res = match name {
                        sym::LT => a < b,
                        sym::GT => a > b,
                        sym::LE => a <= b,
                        _ => a >= b,
                    };
                    Ok(if res {
                        GuardOutcome::True
                    } else {
                        GuardOutcome::False
                    })
                }
                (l, r) => {
                    let mut vs = Vec::new();
                    if let Evaled::Suspend(mut s) = l {
                        vs.append(&mut s);
                    }
                    if let Evaled::Suspend(s) = r {
                        for v in s {
                            push_unique(&mut vs, v);
                        }
                    }
                    Ok(GuardOutcome::Suspend(vs))
                }
            }
        }
        (sym::EQ, 2) | (sym::NEQ, 2) => {
            let positive = name == sym::EQ;
            match term_eq(&args[0], &args[1], store) {
                EqOutcome::Eq => Ok(if positive {
                    GuardOutcome::True
                } else {
                    GuardOutcome::False
                }),
                EqOutcome::Neq => Ok(if positive {
                    GuardOutcome::False
                } else {
                    GuardOutcome::True
                }),
                EqOutcome::Unknown(vs) => Ok(GuardOutcome::Suspend(vs)),
            }
        }
        (sym::INTEGER, 1)
        | (sym::FLOAT, 1)
        | (sym::NUMBER, 1)
        | (sym::ATOM, 1)
        | (sym::STRING, 1)
        | (sym::LIST, 1)
        | (sym::TUPLE, 1)
        | (sym::DATA, 1) => {
            let t = store.deref(&args[0]);
            if let Term::Var(v) = t {
                // Type tests are dataflow: wait until the datum arrives.
                return Ok(GuardOutcome::Suspend(vec![v]));
            }
            let ok = match name {
                sym::INTEGER => matches!(t, Term::Int(_)),
                sym::FLOAT => matches!(t, Term::Float(_)),
                sym::NUMBER => t.is_number(),
                sym::ATOM => matches!(t, Term::Atom(_)),
                sym::STRING => matches!(t, Term::Str(_)),
                sym::LIST => matches!(t, Term::List(_) | Term::Nil),
                sym::TUPLE => matches!(t, Term::Tuple(_, _)),
                sym::DATA => true,
                _ => unreachable!(),
            };
            Ok(if ok {
                GuardOutcome::True
            } else {
                GuardOutcome::False
            })
        }
        // Nonmonotonic test used by some system code: true iff currently
        // unbound. Succeeds/fails immediately, never suspends.
        (sym::UNKNOWN, 1) => {
            let t = store.deref(&args[0]);
            Ok(if t.is_var() {
                GuardOutcome::True
            } else {
                GuardOutcome::False
            })
        }
        _ => Err(crate::error::StrandError::BadBuiltin {
            builtin: format!("{name}/{arity}"),
            detail: "unknown guard test".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{NodeId, Store};

    fn frame_for(head: &[Pat]) -> Frame {
        let n = head.iter().map(Pat::local_count).max().unwrap_or(0);
        Frame::with_locals(n)
    }

    #[test]
    fn match_binds_locals() {
        let store = Store::new();
        let head = vec![
            Pat::tuple("tree", vec![Pat::Local(0), Pat::Local(1), Pat::Local(2)]),
            Pat::Local(3),
        ];
        let goal = vec![
            Term::tuple("tree", vec![Term::atom("+"), Term::int(1), Term::int(2)]),
            Term::Var(VarId(0)),
        ];
        let mut frame = frame_for(&head);
        // Note: goal var exists conceptually; matching a Local against a var
        // is fine — locals accept anything.
        let mut store2 = store;
        let _v = store2.new_var();
        assert_eq!(
            match_args(&goal, &head, &store2, &mut frame),
            MatchOutcome::Match
        );
        assert_eq!(frame.get(0), Some(&Term::atom("+")));
        assert_eq!(frame.get(3), Some(&Term::Var(VarId(0))));
    }

    #[test]
    fn unbound_goal_var_against_structure_suspends() {
        let mut store = Store::new();
        let x = store.new_var();
        let head = vec![Pat::cons(Pat::Local(0), Pat::Local(1))];
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::Var(x)], &head, &store, &mut frame),
            MatchOutcome::Suspend(vec![x])
        );
        // Once bound, the same match succeeds.
        store
            .bind(x, Term::cons(Term::int(1), Term::Nil), 0, NodeId(0))
            .unwrap();
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::Var(x)], &head, &store, &mut frame),
            MatchOutcome::Match
        );
        assert_eq!(frame.get(0), Some(&Term::int(1)));
    }

    #[test]
    fn constant_mismatch_fails() {
        let store = Store::new();
        let head = vec![Pat::Int(0)];
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::int(1)], &head, &store, &mut frame),
            MatchOutcome::Fail
        );
    }

    #[test]
    fn nonlinear_head_requires_equality() {
        let mut store = Store::new();
        let head = vec![Pat::Local(0), Pat::Local(0)];
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::int(1), Term::int(1)], &head, &store, &mut frame),
            MatchOutcome::Match
        );
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::int(1), Term::int(2)], &head, &store, &mut frame),
            MatchOutcome::Fail
        );
        let x = store.new_var();
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::int(1), Term::Var(x)], &head, &store, &mut frame),
            MatchOutcome::Suspend(vec![x])
        );
    }

    #[test]
    fn deep_structure_matching() {
        let store = Store::new();
        let head = vec![Pat::list([Pat::Local(0), Pat::Int(2)])];
        let goal = vec![Term::list([Term::int(1), Term::int(2)])];
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&goal, &head, &store, &mut frame),
            MatchOutcome::Match
        );
        assert_eq!(frame.get(0), Some(&Term::int(1)));

        // Wrong length fails.
        let goal = vec![Term::list([Term::int(1)])];
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&goal, &head, &store, &mut frame),
            MatchOutcome::Fail
        );
    }

    #[test]
    fn suspension_collects_all_needed_vars() {
        let mut store = Store::new();
        let x = store.new_var();
        let y = store.new_var();
        let head = vec![Pat::Int(1), Pat::Int(2)];
        let mut frame = frame_for(&head);
        assert_eq!(
            match_args(&[Term::Var(x), Term::Var(y)], &head, &store, &mut frame),
            MatchOutcome::Suspend(vec![x, y])
        );
    }

    #[test]
    fn guards_compare_arithmetic() {
        let mut store = Store::new();
        let g = Term::tuple(">", vec![Term::int(3), Term::int(0)]);
        assert_eq!(eval_guard(&g, &store).unwrap(), GuardOutcome::True);
        let g = Term::tuple("=<", vec![Term::int(3), Term::int(0)]);
        assert_eq!(eval_guard(&g, &store).unwrap(), GuardOutcome::False);
        let x = store.new_var();
        let g = Term::tuple(">", vec![Term::Var(x), Term::int(0)]);
        assert_eq!(
            eval_guard(&g, &store).unwrap(),
            GuardOutcome::Suspend(vec![x])
        );
    }

    #[test]
    fn type_test_guards() {
        let mut store = Store::new();
        assert_eq!(
            eval_guard(&Term::tuple("integer", vec![Term::int(1)]), &store).unwrap(),
            GuardOutcome::True
        );
        assert_eq!(
            eval_guard(&Term::tuple("list", vec![Term::Nil]), &store).unwrap(),
            GuardOutcome::True
        );
        assert_eq!(
            eval_guard(&Term::tuple("tuple", vec![Term::int(1)]), &store).unwrap(),
            GuardOutcome::False
        );
        let x = store.new_var();
        assert_eq!(
            eval_guard(&Term::tuple("data", vec![Term::Var(x)]), &store).unwrap(),
            GuardOutcome::Suspend(vec![x])
        );
        assert_eq!(
            eval_guard(&Term::tuple("unknown", vec![Term::Var(x)]), &store).unwrap(),
            GuardOutcome::True
        );
    }

    #[test]
    fn structural_equality_guard() {
        let store = Store::new();
        let a = Term::tuple("f", vec![Term::int(1), Term::atom("x")]);
        let b = Term::tuple("f", vec![Term::int(1), Term::atom("x")]);
        assert_eq!(
            eval_guard(&Term::tuple("==", vec![a.clone(), b.clone()]), &store).unwrap(),
            GuardOutcome::True
        );
        assert_eq!(
            eval_guard(&Term::tuple("=\\=", vec![a, b]), &store).unwrap(),
            GuardOutcome::False
        );
    }

    /// A list is compared along its spine, not down it: two million-cell
    /// lists on a 256 KiB stack, through bindings, with the variables left
    /// open reported in first-occurrence order — the order the recursive
    /// definition gives.
    #[test]
    fn long_lists_compare_without_recursion_in_first_occurrence_order() {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut store = Store::new();
                let (x, y, z, w) = (
                    store.new_var(),
                    store.new_var(),
                    store.new_var(),
                    store.new_var(),
                );
                let n = 1_000_000;
                // `b`'s tail runs through a bound variable halfway down.
                let b_back = Term::list((n / 2..n).map(Term::int));
                store.bind(w, b_back, 0, NodeId(0)).unwrap();
                let a = (0..n).rev().fold(Term::Var(z), |tail, i| {
                    let head = match i {
                        10 => Term::Var(y),
                        700_000 => Term::Var(x),
                        _ => Term::int(i),
                    };
                    Term::cons(head, tail)
                });
                let b_front = (0..n / 2).rev().fold(Term::Var(w), |tail, i| {
                    let head = if i == 20 { Term::Var(y) } else { Term::int(i) };
                    Term::cons(head, tail)
                });
                // Heads 10 (y vs 10), 20 (20 vs y), 700 000 (x vs 700 000),
                // then the tails (z vs []).
                assert_eq!(
                    term_eq(&a, &b_front, &store),
                    EqOutcome::Unknown(vec![y, x, z])
                );
                assert_eq!(term_eq(&b_front, &b_front, &store), EqOutcome::Eq);
                // A difference anywhere decides, open variables or not.
                let c = Term::list((0..n).map(|i| Term::int(if i == n - 1 { -1 } else { i })));
                assert_eq!(term_eq(&a, &c, &store), EqOutcome::Neq);
            })
            .expect("spawn")
            .join()
            .expect("comparing long lists must not overflow the stack");
    }

    #[test]
    fn unknown_guard_name_is_error() {
        let store = Store::new();
        assert!(eval_guard(&Term::tuple("frobnicate", vec![Term::int(1)]), &store).is_err());
    }
}
