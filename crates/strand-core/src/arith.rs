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
    // One suspension list for the whole expression, allocated only when
    // some operand suspends.
    let mut pending = Vec::new();
    Ok(match eval_into(expr, store, &mut pending)? {
        Some(n) => Evaled::Num(n),
        None => Evaled::Suspend(pending),
    })
}

/// Evaluate `expr`, or return `None` having added the unbound variables it
/// waits on to `pending`, in first-occurrence order without repeats.
pub(crate) fn eval_into<S: StoreOps>(
    expr: &Term,
    store: &S,
    pending: &mut Vec<VarId>,
) -> StrandResult<Option<Num>> {
    // Fast paths that skip the `deref` clone: numbers and tuples are never
    // variable chains, so only a `Var` head needs the store.
    match expr {
        Term::Int(i) => return Ok(Some(Num::Int(*i))),
        Term::Float(x) => return Ok(Some(Num::Float(*x))),
        Term::Tuple(op, args) => return eval_tuple(*op, args, expr, store, pending),
        _ => {}
    }
    match &store.deref(expr) {
        Term::Int(i) => Ok(Some(Num::Int(*i))),
        Term::Float(x) => Ok(Some(Num::Float(*x))),
        Term::Var(v) => {
            if !pending.contains(v) {
                pending.push(*v);
            }
            Ok(None)
        }
        Term::Tuple(op, args) => eval_tuple(*op, args, expr, store, pending),
        _ => Err(StrandError::ArithType {
            expr: store.resolve(expr),
        }),
    }
}

fn eval_tuple<S: StoreOps>(
    op: Atom,
    args: &[Term],
    expr: &Term,
    store: &S,
    pending: &mut Vec<VarId>,
) -> StrandResult<Option<Num>> {
    // Evaluate every operand first, so a single suspension covers every
    // missing input. All operators take at most two operands, so an inline
    // buffer holds them; overlong argument lists fall through to the type
    // error below exactly as an unknown operator would.
    let mut nums = [Num::Int(0); 2];
    let mut count = 0usize;
    let mut suspended = false;
    for a in args.iter() {
        match eval_into(a, store, pending)? {
            Some(n) => {
                if count < 2 {
                    nums[count] = n;
                }
                count += 1;
            }
            None => suspended = true,
        }
    }
    if suspended {
        return Ok(None);
    }
    let operands: &[Num] = if count <= 2 { &nums[..count] } else { &[] };
    match apply_op(op, operands) {
        Ok(n) => Ok(Some(n)),
        Err(OpFault::DivideByZero) => Err(StrandError::DivideByZero {
            expr: store.resolve(expr),
        }),
        Err(OpFault::Type) => Err(StrandError::ArithType {
            expr: store.resolve(expr),
        }),
        Err(OpFault::NonFinite) => Err(StrandError::NonFinite {
            expr: store.resolve(expr),
        }),
    }
}

/// Why [`apply_op`] could not apply an operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpFault {
    /// Integer `/` or `mod` by zero.
    DivideByZero,
    /// Not an operator of this arity, or `mod` of a float.
    Type,
    /// A float result that is infinite or NaN (`1.0e308 * 10.0`,
    /// `1.0 / 0.0`): no literal names one — the lexer refuses `1e400` — so
    /// nothing written out could be read back as the value it was.
    NonFinite,
}

/// Apply arithmetic operator `op` to its evaluated operands: the one place
/// operator semantics live, for [`eval_arith`] and for anything else that
/// evaluates an expression from its leaves. Integer operations wrap on
/// overflow; a float result must be finite.
#[inline]
pub fn apply_op(op: Atom, operands: &[Num]) -> Result<Num, OpFault> {
    let n = match (op, operands) {
        (sym::PLUS, [a, b]) => a.binop(*b, i64::wrapping_add, |x, y| x + y),
        (sym::MINUS, [a, b]) => a.binop(*b, i64::wrapping_sub, |x, y| x - y),
        (sym::TIMES, [a, b]) => a.binop(*b, i64::wrapping_mul, |x, y| x * y),
        (sym::MINUS, [a]) => match a {
            Num::Int(i) => Num::Int(i.wrapping_neg()),
            Num::Float(x) => Num::Float(-x),
        },
        (sym::ABS, [a]) => match a {
            Num::Int(i) => Num::Int(i.wrapping_abs()),
            Num::Float(x) => Num::Float(x.abs()),
        },
        (sym::DIVIDE, [a, b]) => match (a, b) {
            (_, Num::Int(0)) => return Err(OpFault::DivideByZero),
            (Num::Int(x), Num::Int(y)) => Num::Int(x.wrapping_div(*y)),
            (x, y) => Num::Float(x.as_f64() / y.as_f64()),
        },
        (sym::MOD, [a, b]) => match (a, b) {
            (Num::Int(_), Num::Int(0)) => return Err(OpFault::DivideByZero),
            (Num::Int(x), Num::Int(y)) => Num::Int(x.wrapping_rem_euclid(*y)),
            _ => return Err(OpFault::Type),
        },
        (sym::MIN, [a, b]) => {
            if a.as_f64() <= b.as_f64() {
                *a
            } else {
                *b
            }
        }
        (sym::MAX, [a, b]) => {
            if a.as_f64() >= b.as_f64() {
                *a
            } else {
                *b
            }
        }
        _ => return Err(OpFault::Type),
    };
    match n {
        Num::Float(x) if !x.is_finite() => Err(OpFault::NonFinite),
        n => Ok(n),
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
        Term::Tuple(op, args) => is_arith_op(*op, args.len()),
        _ => false,
    }
}

/// Is `op` with `arity` operands one of the nine arithmetic operators?
pub fn is_arith_op(op: Atom, arity: usize) -> bool {
    matches!(
        (op, arity),
        (sym::PLUS, 2)
            | (sym::MINUS, 2)
            | (sym::TIMES, 2)
            | (sym::DIVIDE, 2)
            | (sym::MOD, 2)
            | (sym::MIN, 2)
            | (sym::MAX, 2)
            | (sym::MINUS, 1)
            | (sym::ABS, 1)
    )
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
    fn nested_suspensions_keep_first_occurrence_order_without_repeats() {
        let mut s = Store::new();
        let (x, y, z) = (s.new_var(), s.new_var(), s.new_var());
        let v = Term::Var;
        // (Y + X) + (X * (Z - Y)): every level's set, merged in order.
        let e = Term::tuple(
            "+",
            vec![
                Term::tuple("+", vec![v(y), v(x)]),
                Term::tuple("*", vec![v(x), Term::tuple("-", vec![v(z), v(y)])]),
            ],
        );
        assert_eq!(ev(&e, &s), Evaled::Suspend(vec![y, x, z]));
    }

    #[test]
    fn an_error_in_one_operand_beats_a_suspension_in_another() {
        let mut s = Store::new();
        let x = s.new_var();
        let e = Term::tuple(
            "+",
            vec![
                Term::tuple("+", vec![Term::Var(x), Term::int(1)]),
                Term::tuple("/", vec![Term::int(2), Term::int(0)]),
            ],
        );
        assert!(matches!(
            eval_arith(&e, &s),
            Err(StrandError::DivideByZero { .. })
        ));
        // An unknown operator over a suspended operand suspends.
        let f = Term::tuple("foo", vec![Term::Var(x)]);
        assert_eq!(ev(&f, &s), Evaled::Suspend(vec![x]));
    }

    #[test]
    fn integer_overflow_wraps() {
        let s = Store::new();
        let min = Term::int(i64::MIN);
        for (op, args, want) in [
            ("+", vec![Term::int(i64::MAX), Term::int(1)], i64::MIN),
            ("*", vec![min.clone(), Term::int(-1)], i64::MIN),
            ("-", vec![min.clone()], i64::MIN),
            ("abs", vec![min.clone()], i64::MIN),
            ("/", vec![min.clone(), Term::int(-1)], i64::MIN),
            ("mod", vec![min.clone(), Term::int(-1)], 0),
        ] {
            let e = Term::tuple(op, args);
            assert_eq!(ev(&e, &s), Evaled::Num(Num::Int(want)), "{e}");
        }
    }

    #[test]
    fn a_non_finite_float_result_faults() {
        let s = Store::new();
        let (big, zero) = (Term::float(1.0e308), Term::float(0.0));
        for (op, args) in [
            ("*", vec![big.clone(), Term::float(10.0)]),
            ("+", vec![big.clone(), big.clone()]),
            ("-", vec![Term::tuple("-", vec![big.clone()]), big.clone()]),
            ("/", vec![Term::float(1.0), zero.clone()]),
            ("/", vec![zero.clone(), zero.clone()]),
            ("/", vec![Term::int(1), Term::float(1.0e-310)]),
        ] {
            let e = Term::tuple(op, args);
            let got = eval_arith(&e, &s);
            assert!(matches!(got, Err(StrandError::NonFinite { .. })), "{e}");
        }
        // The operator is the one place that decides, for every caller.
        let inf = apply_op(sym::TIMES, &[Num::Float(1.0e308), Num::Int(10)]);
        assert_eq!(inf, Err(OpFault::NonFinite));
        // Finite floats, and an integer divisor of zero, are as they were.
        let e = Term::tuple("/", vec![big.clone(), Term::float(10.0)]);
        assert_eq!(ev(&e, &s), Evaled::Num(Num::Float(1.0e307)));
        let e = Term::tuple("/", vec![Term::float(1.0), Term::int(0)]);
        assert!(matches!(
            eval_arith(&e, &s),
            Err(StrandError::DivideByZero { .. })
        ));
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
