//! Rule-side pattern terms.
//!
//! A compiled rule does not mention store variables: its variables are
//! *rule-local slots* ([`Pat::Local`]) numbered densely from 0. Matching a
//! goal against a rule head fills a [`Frame`] mapping slots to runtime
//! terms; instantiating the rule's guard and body terms against that frame
//! (allocating fresh store variables for still-unset slots) yields the new
//! process goals — exactly the reduction step of §2.1.

use crate::atom::Atom;
use crate::store::StoreOps;
use crate::term::Term;
use std::fmt;
use std::sync::Arc;

/// A pattern term as it appears in a compiled rule.
#[derive(Clone, PartialEq)]
pub enum Pat {
    /// Rule-local variable slot.
    Local(u16),
    /// Anonymous variable `_`: matches anything, never binds.
    Wild,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Atom literal.
    Atom(Atom),
    /// String literal.
    Str(Arc<str>),
    /// Compound pattern `f(P1,…,Pn)`.
    Tuple(Atom, Arc<[Pat]>),
    /// List cell pattern `[H|T]`.
    List(Arc<(Pat, Pat)>),
    /// Empty list.
    Nil,
}

impl Pat {
    /// Compound pattern constructor (degenerates to an atom when `args` is
    /// empty, mirroring [`Term::tuple`]).
    pub fn tuple(name: impl Into<Atom>, args: Vec<Pat>) -> Pat {
        if args.is_empty() {
            Pat::Atom(name.into())
        } else {
            Pat::Tuple(name.into(), args.into())
        }
    }

    /// Cons-cell pattern.
    pub fn cons(head: Pat, tail: Pat) -> Pat {
        Pat::List(Arc::new((head, tail)))
    }

    /// Proper-list pattern.
    pub fn list(items: impl IntoIterator<Item = Pat>) -> Pat {
        let items: Vec<Pat> = items.into_iter().collect();
        items
            .into_iter()
            .rev()
            .fold(Pat::Nil, |tail, head| Pat::cons(head, tail))
    }

    /// Atom pattern constructor.
    pub fn atom(name: impl Into<Atom>) -> Pat {
        Pat::Atom(name.into())
    }

    /// Largest local slot index used, plus one (0 if none).
    pub fn local_count(&self) -> u16 {
        match self {
            Pat::Local(i) => i + 1,
            Pat::Tuple(_, args) => args.iter().map(Pat::local_count).max().unwrap_or(0),
            Pat::List(cell) => cell.0.local_count().max(cell.1.local_count()),
            _ => 0,
        }
    }

    /// Instantiate the pattern against `frame`, allocating fresh store
    /// variables for unset locals and for each wildcard occurrence.
    pub fn instantiate<S: StoreOps>(&self, frame: &mut Frame, store: &mut S) -> Term {
        match self {
            Pat::Local(i) => {
                let slot = &mut frame.slots[*i as usize];
                match slot {
                    Some(t) => t.clone(),
                    None => {
                        let v = Term::Var(store.new_var());
                        *slot = Some(v.clone());
                        v
                    }
                }
            }
            Pat::Wild => Term::Var(store.new_var()),
            Pat::Int(i) => Term::Int(*i),
            Pat::Float(x) => Term::Float(*x),
            Pat::Atom(a) => Term::Atom(*a),
            Pat::Str(s) => Term::Str(s.clone()),
            Pat::Nil => Term::Nil,
            Pat::Tuple(name, args) => {
                Term::tuple_from(*name, args.iter().map(|p| p.instantiate(frame, store)))
            }
            Pat::List(cell) => Term::cons(
                cell.0.instantiate(frame, store),
                cell.1.instantiate(frame, store),
            ),
        }
    }

    /// Instantiate without allocating: returns `None` if the pattern refers
    /// to an unset local slot or a wildcard (used for guard evaluation,
    /// where an unset variable can never receive a value).
    pub fn instantiate_ro(&self, frame: &Frame) -> Option<Term> {
        match self {
            Pat::Local(i) => frame.slots[*i as usize].clone(),
            Pat::Wild => None,
            Pat::Int(i) => Some(Term::Int(*i)),
            Pat::Float(x) => Some(Term::Float(*x)),
            Pat::Atom(a) => Some(Term::Atom(*a)),
            Pat::Str(s) => Some(Term::Str(s.clone())),
            Pat::Nil => Some(Term::Nil),
            Pat::Tuple(name, args) => {
                let args: Option<Vec<Term>> =
                    args.iter().map(|p| p.instantiate_ro(frame)).collect();
                Some(Term::tuple(*name, args?))
            }
            Pat::List(cell) => Some(Term::cons(
                cell.0.instantiate_ro(frame)?,
                cell.1.instantiate_ro(frame)?,
            )),
        }
    }
}

/// Bindings of rule-local slots accumulated during head matching.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    pub slots: Vec<Option<Term>>,
}

impl Frame {
    /// A frame with `n` unset slots.
    pub fn with_locals(n: u16) -> Frame {
        Frame {
            slots: vec![None; n as usize],
        }
    }

    /// Clear and resize to `n` unset slots, keeping the allocation. Lets a
    /// machine reuse one scratch frame across rule tries instead of
    /// allocating a fresh `Vec` per attempt.
    pub fn reset(&mut self, n: u16) {
        self.slots.clear();
        self.slots.resize(n as usize, None);
    }

    /// Read slot `i`.
    pub fn get(&self, i: u16) -> Option<&Term> {
        self.slots.get(i as usize).and_then(|s| s.as_ref())
    }

    /// Set slot `i` (panics if out of range — compiler guarantees density).
    pub fn set(&mut self, i: u16, t: Term) {
        self.slots[i as usize] = Some(t);
    }
}

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pat::Local(i) => write!(f, "V{i}"),
            Pat::Wild => write!(f, "_"),
            Pat::Int(i) => write!(f, "{i}"),
            Pat::Float(x) => write!(f, "{x:?}"),
            Pat::Atom(a) => write!(f, "{a}"),
            Pat::Str(s) => write!(f, "{s:?}"),
            Pat::Nil => write!(f, "[]"),
            Pat::Tuple(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Pat::List(cell) => write!(f, "[{}|{}]", cell.0, cell.1),
        }
    }
}

impl fmt::Debug for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{NodeId, Store};

    #[test]
    fn local_count_spans_structure() {
        let p = Pat::tuple(
            "f",
            vec![Pat::Local(0), Pat::cons(Pat::Local(3), Pat::Wild)],
        );
        assert_eq!(p.local_count(), 4);
        assert_eq!(Pat::Int(1).local_count(), 0);
    }

    #[test]
    fn instantiate_allocates_fresh_vars_once_per_local() {
        let mut store = Store::new();
        let mut frame = Frame::with_locals(1);
        let p = Pat::tuple("f", vec![Pat::Local(0), Pat::Local(0)]);
        let t = p.instantiate(&mut frame, &mut store);
        // Both occurrences of V0 become the *same* fresh variable.
        if let Term::Tuple(_, args) = &t {
            assert_eq!(args[0], args[1]);
            assert!(args[0].is_var());
        } else {
            panic!("expected tuple");
        }
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn wildcards_are_distinct_fresh_vars() {
        let mut store = Store::new();
        let mut frame = Frame::with_locals(0);
        let p = Pat::tuple("f", vec![Pat::Wild, Pat::Wild]);
        let t = p.instantiate(&mut frame, &mut store);
        if let Term::Tuple(_, args) = &t {
            assert_ne!(args[0], args[1]);
        } else {
            panic!("expected tuple");
        }
    }

    #[test]
    fn instantiate_uses_frame_bindings() {
        let mut store = Store::new();
        let mut frame = Frame::with_locals(2);
        frame.set(0, Term::int(7));
        let p = Pat::list([Pat::Local(0), Pat::Local(1)]);
        let t = p.instantiate(&mut frame, &mut store);
        let items = t.as_proper_list().unwrap();
        assert_eq!(items[0], Term::int(7));
        assert!(items[1].is_var());
        // The fresh var for local 1 was recorded in the frame.
        assert_eq!(frame.get(1), Some(&items[1]));
        let _ = NodeId(0);
    }

    #[test]
    fn instantiate_ro_fails_on_unset_local() {
        let frame = Frame::with_locals(1);
        assert!(Pat::Local(0).instantiate_ro(&frame).is_none());
        assert!(Pat::tuple("f", vec![Pat::Int(1), Pat::Local(0)])
            .instantiate_ro(&frame)
            .is_none());
        assert_eq!(
            Pat::tuple("f", vec![Pat::Int(1)]).instantiate_ro(&frame),
            Some(Term::tuple("f", vec![Term::int(1)]))
        );
    }
}
