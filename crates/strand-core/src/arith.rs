//! Arithmetic evaluation for `:=` assignments and comparison guards.
//!
//! Strand evaluates arithmetic eagerly but *data-driven*: an expression
//! containing an unbound variable cannot be evaluated yet, so the process
//! suspends until the variable is bound (§2.1). [`eval_arith`] therefore
//! returns three-way: a number, a set of variables to suspend on, or a type
//! error.

use crate::atom::Atom;
use crate::error::{StrandError, StrandResult};
use crate::store::{StoreOps, VarId};
use crate::sym;
use crate::term::Term;

/// A numeric value: integers stay exact, floats propagate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    /// View as f64 (exact for small ints).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(x) => x,
        }
    }

    /// Convert back to a term.
    pub fn to_term(self) -> Term {
        match self {
            Num::Int(i) => Term::Int(i),
            Num::Float(x) => Term::Float(x),
        }
    }

    fn binop(
        self,
        other: Num,
        int_op: impl Fn(i64, i64) -> i64,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Num {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => Num::Int(int_op(a, b)),
            (a, b) => Num::Float(float_op(a.as_f64(), b.as_f64())),
        }
    }
}

/// Result of attempting to evaluate an expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Evaled {
    /// Fully evaluated.
    Num(Num),
    /// Evaluation must wait for these variables to be bound.
    Suspend(Vec<VarId>),
}

/// Evaluate an arithmetic expression term under `store`.
///
/// Supported operators: binary `+ - * / mod min max`, unary `-` and `abs`.
/// Integer `/` truncates (as in Strand); division or `mod` by integer zero
/// is a run-time error.
///
/// ```
/// use strand_core::{eval_arith, Store, Term, Num};
/// use strand_core::arith::Evaled;
/// let store = Store::new();
/// let e = Term::tuple("+", vec![Term::int(3), Term::tuple("*", vec![Term::int(2), Term::int(4)])]);
/// assert_eq!(eval_arith(&e, &store).unwrap(), Evaled::Num(Num::Int(11)));
/// ```
pub fn eval_arith<S: StoreOps>(expr: &Term, store: &S) -> StrandResult<Evaled> {
    // Fast paths that skip the `deref` clone: numbers and tuples are never
    // variable chains, so only a `Var` head needs the store.
    match expr {
        Term::Int(i) => return Ok(Evaled::Num(Num::Int(*i))),
        Term::Float(x) => return Ok(Evaled::Num(Num::Float(*x))),
        Term::Tuple(op, args) => return eval_arith_tuple(*op, args, expr, store),
        _ => {}
    }
    let t = store.deref(expr);
    match &t {
        Term::Int(i) => Ok(Evaled::Num(Num::Int(*i))),
        Term::Float(x) => Ok(Evaled::Num(Num::Float(*x))),
        Term::Var(v) => Ok(Evaled::Suspend(vec![*v])),
        Term::Tuple(op, args) => eval_arith_tuple(*op, args, expr, store),
        _ => Err(StrandError::ArithType {
            expr: store.resolve(expr),
        }),
    }
}

fn eval_arith_tuple<S: StoreOps>(
    op: Atom,
    args: &[Term],
    expr: &Term,
    store: &S,
) -> StrandResult<Evaled> {
    // Evaluate sub-expressions first, accumulating suspension sets so a
    // single suspension covers every missing input. All operators take at
    // most two operands, so an inline buffer avoids a heap allocation per
    // expression node; overlong argument lists fall through to the type
    // error below exactly as an unknown operator would.
    let mut nums = [Num::Int(0); 2];
    let mut count = 0usize;
    let mut pending: Vec<VarId> = Vec::new();
    for a in args.iter() {
        match eval_arith(a, store)? {
            Evaled::Num(n) => {
                if count < 2 {
                    nums[count] = n;
                }
                count += 1;
            }
            Evaled::Suspend(vs) => {
                for v in vs {
                    if !pending.contains(&v) {
                        pending.push(v);
                    }
                }
            }
        }
    }
    if !pending.is_empty() {
        return Ok(Evaled::Suspend(pending));
    }
    let bad = || StrandError::ArithType {
        expr: store.resolve(expr),
    };
    let operands: &[Num] = if count <= 2 { &nums[..count] } else { &[] };
    {
        match (op, operands) {
            (sym::PLUS, [a, b]) => Ok(Evaled::Num(a.binop(
                *b,
                |x, y| x.wrapping_add(y),
                |x, y| x + y,
            ))),
            (sym::MINUS, [a, b]) => Ok(Evaled::Num(a.binop(
                *b,
                |x, y| x.wrapping_sub(y),
                |x, y| x - y,
            ))),
            (sym::TIMES, [a, b]) => Ok(Evaled::Num(a.binop(
                *b,
                |x, y| x.wrapping_mul(y),
                |x, y| x * y,
            ))),
            (sym::MINUS, [a]) => Ok(Evaled::Num(match a {
                Num::Int(i) => Num::Int(-i),
                Num::Float(x) => Num::Float(-x),
            })),
            (sym::ABS, [a]) => Ok(Evaled::Num(match a {
                Num::Int(i) => Num::Int(i.abs()),
                Num::Float(x) => Num::Float(x.abs()),
            })),
            (sym::DIVIDE, [a, b]) => match (a, b) {
                (_, Num::Int(0)) => Err(StrandError::DivideByZero {
                    expr: store.resolve(expr),
                }),
                (Num::Int(x), Num::Int(y)) => Ok(Evaled::Num(Num::Int(x / y))),
                (x, y) => Ok(Evaled::Num(Num::Float(x.as_f64() / y.as_f64()))),
            },
            (sym::MOD, [a, b]) => match (a, b) {
                (Num::Int(x), Num::Int(y)) => {
                    if *y == 0 {
                        Err(StrandError::DivideByZero {
                            expr: store.resolve(expr),
                        })
                    } else {
                        Ok(Evaled::Num(Num::Int(x.rem_euclid(*y))))
                    }
                }
                _ => Err(bad()),
            },
            (sym::MIN, [a, b]) => Ok(Evaled::Num(if a.as_f64() <= b.as_f64() { *a } else { *b })),
            (sym::MAX, [a, b]) => Ok(Evaled::Num(if a.as_f64() >= b.as_f64() { *a } else { *b })),
            _ => Err(bad()),
        }
    }
}

/// Is this term (shallowly) an arithmetic expression — a number, or a tuple
/// whose functor is an arithmetic operator of matching arity?
///
/// `:=` uses this to decide between *arithmetic assignment* (`N1 := N - 1`)
/// and *data assignment* (`Xs := [X|Xs1]`), both of which appear in the
/// paper's Figure 1 with the same operator.
pub fn is_arith_expr(t: &Term) -> bool {
    match t {
        Term::Int(_) | Term::Float(_) => true,
        Term::Tuple(op, args) => matches!(
            (*op, args.len()),
            (sym::PLUS, 2)
                | (sym::MINUS, 2)
                | (sym::TIMES, 2)
                | (sym::DIVIDE, 2)
                | (sym::MOD, 2)
                | (sym::MIN, 2)
                | (sym::MAX, 2)
                | (sym::MINUS, 1)
                | (sym::ABS, 1)
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{NodeId, Store};

    fn ev(t: &Term, s: &Store) -> Evaled {
        eval_arith(t, s).unwrap()
    }

    #[test]
    fn basic_integer_arithmetic() {
        let s = Store::new();
        let e = Term::tuple(
            "-",
            vec![
                Term::tuple("*", vec![Term::int(6), Term::int(7)]),
                Term::int(2),
            ],
        );
        assert_eq!(ev(&e, &s), Evaled::Num(Num::Int(40)));
    }

    #[test]
    fn mixed_promotes_to_float() {
        let s = Store::new();
        let e = Term::tuple("+", vec![Term::int(1), Term::float(0.5)]);
        assert_eq!(ev(&e, &s), Evaled::Num(Num::Float(1.5)));
    }

    #[test]
    fn integer_division_truncates_and_guards_zero() {
        let s = Store::new();
        let e = Term::tuple("/", vec![Term::int(7), Term::int(2)]);
        assert_eq!(ev(&e, &s), Evaled::Num(Num::Int(3)));
        let z = Term::tuple("/", vec![Term::int(7), Term::int(0)]);
        assert!(matches!(
            eval_arith(&z, &s),
            Err(StrandError::DivideByZero { .. })
        ));
    }

    #[test]
    fn mod_is_euclidean() {
        let s = Store::new();
        let e = Term::tuple("mod", vec![Term::int(-3), Term::int(5)]);
        assert_eq!(ev(&e, &s), Evaled::Num(Num::Int(2)));
    }

    #[test]
    fn unbound_vars_suspend_with_all_pending() {
        let mut s = Store::new();
        let x = s.new_var();
        let y = s.new_var();
        let e = Term::tuple("+", vec![Term::Var(x), Term::Var(y)]);
        assert_eq!(ev(&e, &s), Evaled::Suspend(vec![x, y]));
        s.bind(x, Term::int(1), 0, NodeId(0)).unwrap();
        assert_eq!(ev(&e, &s), Evaled::Suspend(vec![y]));
        s.bind(y, Term::int(2), 0, NodeId(0)).unwrap();
        assert_eq!(ev(&e, &s), Evaled::Num(Num::Int(3)));
    }

    #[test]
    fn non_numeric_is_type_error() {
        let s = Store::new();
        let e = Term::tuple("+", vec![Term::atom("a"), Term::int(1)]);
        assert!(matches!(
            eval_arith(&e, &s),
            Err(StrandError::ArithType { .. })
        ));
    }

    #[test]
    fn unary_minus_and_abs() {
        let s = Store::new();
        assert_eq!(
            ev(&Term::tuple("-", vec![Term::int(5)]), &s),
            Evaled::Num(Num::Int(-5))
        );
        assert_eq!(
            ev(&Term::tuple("abs", vec![Term::int(-5)]), &s),
            Evaled::Num(Num::Int(5))
        );
    }

    #[test]
    fn min_max() {
        let s = Store::new();
        assert_eq!(
            ev(&Term::tuple("min", vec![Term::int(2), Term::int(9)]), &s),
            Evaled::Num(Num::Int(2))
        );
        assert_eq!(
            ev(&Term::tuple("max", vec![Term::int(2), Term::int(9)]), &s),
            Evaled::Num(Num::Int(9))
        );
    }

    #[test]
    fn is_arith_expr_distinguishes_data() {
        assert!(is_arith_expr(&Term::tuple(
            "-",
            vec![Term::atom("n"), Term::int(1)]
        )));
        assert!(!is_arith_expr(&Term::cons(Term::int(1), Term::Nil)));
        assert!(!is_arith_expr(&Term::tuple("tree", vec![Term::int(1)])));
        assert!(is_arith_expr(&Term::int(3)));
    }
}
