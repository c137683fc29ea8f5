//! Runtime terms.
//!
//! A [`Term`] is the value manipulated by Strand processes: an unbound
//! variable, a number, an atom, a string, a tuple `f(T1,…,Tn)`, or a list
//! built from cons cells `[H|T]` and `[]`. Terms are immutable and clone in
//! O(1) (interior `Arc`s; a tuple is one heap block, its functor a `Copy`
//! [`Atom`]); the only mutable state in the system is the single-assignment
//! [`Store`](crate::store::Store).
//!
//! Ports ([`Term::Port`]) are the one extension over the paper's surface
//! language: a port is a handle to the *write end* of a stream, used by the
//! abstract machine to implement the server library's merged input streams
//! (Figure 3's `merge` network) and the `distribute/3` low-level primitive.

use crate::atom::Atom;
use crate::store::VarId;
use std::fmt;
use std::sync::Arc;

/// A runtime term.
#[derive(Clone)]
pub enum Term {
    /// An occurrence of a store variable (may be bound or unbound).
    Var(VarId),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Symbolic constant, e.g. `sync`, `halt`.
    Atom(Atom),
    /// String literal, e.g. `"acgu"`.
    Str(Arc<str>),
    /// Tuple / compound term `f(T1,…,Tn)` with n ≥ 1.
    Tuple(Atom, Arc<[Term]>),
    /// List cell `[H|T]`.
    List(Arc<Cons>),
    /// Empty list `[]`.
    Nil,
    /// Write end of a stream (machine-level; see module docs).
    Port(u32),
}

/// A cons cell `[head|tail]`: `.0` is the head, `.1` the tail.
///
/// Its own type only so that it can own a [`Drop`]: the derived drop of a
/// `[H|T]` chain recurses once per cell, and a long-lived stream or
/// accumulator list (tens of thousands of cells) overflows a thread's
/// stack when its last reference goes away.
#[derive(Clone, PartialEq)]
pub struct Cons(pub Term, pub Term);

impl Drop for Cons {
    /// Unlink the spine iteratively: take each uniquely-owned tail cell
    /// out of its `Arc` and detach *its* tail before it drops, so no drop
    /// ever sees more than one cell. A shared cell ends the walk (its other
    /// owner will drop the rest). Heads still drop recursively — their
    /// depth is the term's nesting, not a stream's length.
    fn drop(&mut self) {
        if !matches!(self.1, Term::List(_)) {
            return;
        }
        let mut next = std::mem::replace(&mut self.1, Term::Nil);
        while let Term::List(cell) = next {
            match Arc::into_inner(cell) {
                Some(mut cons) => next = std::mem::replace(&mut cons.1, Term::Nil),
                None => break,
            }
        }
    }
}

impl PartialEq for Term {
    /// Structural equality with no store: a variable equals only itself.
    /// Along list spines in a loop, so only nesting recurses.
    fn eq(&self, other: &Term) -> bool {
        let (mut a, mut b) = (self, other);
        while let (Term::List(x), Term::List(y)) = (a, b) {
            if x.0 != y.0 {
                return false;
            }
            (a, b) = (&x.1, &y.1);
        }
        match (a, b) {
            (Term::Var(x), Term::Var(y)) => x == y,
            (Term::Int(x), Term::Int(y)) => x == y,
            (Term::Float(x), Term::Float(y)) => x == y,
            (Term::Atom(x), Term::Atom(y)) => x == y,
            (Term::Str(x), Term::Str(y)) => x == y,
            (Term::Tuple(f, xs), Term::Tuple(g, ys)) => f == g && xs == ys,
            (Term::Nil, Term::Nil) => true,
            (Term::Port(x), Term::Port(y)) => x == y,
            _ => false,
        }
    }
}

impl Term {
    /// Construct an atom term.
    pub fn atom(name: impl Into<Atom>) -> Term {
        Term::Atom(name.into())
    }

    /// Construct an integer term.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// Construct a float term.
    pub fn float(v: f64) -> Term {
        Term::Float(v)
    }

    /// Construct a string term.
    pub fn str(s: impl Into<Arc<str>>) -> Term {
        Term::Str(s.into())
    }

    /// Construct a tuple `name(args…)`. With no arguments this degenerates
    /// to an atom, matching the surface syntax where `f()` is not writable.
    pub fn tuple(name: impl Into<Atom>, args: Vec<Term>) -> Term {
        Term::tuple_from(name.into(), args)
    }

    /// [`Term::tuple`] from an iterator of arguments. An iterator that
    /// knows its exact length (a mapped slice, a `Vec`) fills the tuple's
    /// one heap block directly, with no intermediate `Vec`.
    pub fn tuple_from(name: Atom, args: impl IntoIterator<Item = Term>) -> Term {
        let args: Arc<[Term]> = args.into_iter().collect();
        if args.is_empty() {
            Term::Atom(name)
        } else {
            Term::Tuple(name, args)
        }
    }

    /// Construct a cons cell `[head|tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::List(Arc::new(Cons(head, tail)))
    }

    /// Construct a proper list from an iterator of elements.
    pub fn list(items: impl IntoIterator<Item = Term>) -> Term {
        let items: Vec<Term> = items.into_iter().collect();
        items
            .into_iter()
            .rev()
            .fold(Term::Nil, |tail, head| Term::cons(head, tail))
    }

    /// The functor name and arity of a callable goal, if this term is one.
    ///
    /// Atoms are goals of arity 0 (`halt`); tuples are goals of their own
    /// arity. Other terms are not callable.
    pub fn functor(&self) -> Option<(&Atom, usize)> {
        match self {
            Term::Atom(a) => Some((a, 0)),
            Term::Tuple(f, args) => Some((f, args.len())),
            _ => None,
        }
    }

    /// Arguments of a goal term (empty for atoms).
    pub fn goal_args(&self) -> &[Term] {
        match self {
            Term::Tuple(_, args) => args,
            _ => &[],
        }
    }

    /// Is this term an unbound-variable *occurrence*? (The store decides
    /// whether the variable is actually still unbound.)
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Is this a number (int or float)?
    pub fn is_number(&self) -> bool {
        matches!(self, Term::Int(_) | Term::Float(_))
    }

    /// Collect every variable occurring in the term, in first-occurrence
    /// order, without duplicates.
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        let mut cur = self;
        // Walk a list's spine in a loop: only nesting recurses.
        while let Term::List(cell) = cur {
            cell.0.collect_vars(out);
            cur = &cell.1;
        }
        match cur {
            Term::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Term::Tuple(_, args) => {
                for a in args.iter() {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// True if the term contains no variables at all.
    pub fn is_ground(&self) -> bool {
        let mut cur = self;
        // Walk a list's spine in a loop: only nesting recurses.
        while let Term::List(cell) = cur {
            if !cell.0.is_ground() {
                return false;
            }
            cur = &cell.1;
        }
        match cur {
            Term::Var(_) => false,
            Term::Tuple(_, args) => args.iter().all(Term::is_ground),
            _ => true,
        }
    }

    /// Try to view the term as a proper list; `None` if it is improper or
    /// ends in a variable.
    pub fn as_proper_list(&self) -> Option<Vec<Term>> {
        let mut items = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Term::Nil => return Some(items),
                Term::List(cell) => {
                    items.push(cell.0.clone());
                    cur = cell.1.clone();
                }
                _ => return None,
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "_{}", v.0),
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => write!(f, "{x:?}"),
            Term::Atom(a) => write!(f, "{a}"),
            Term::Str(s) => write!(f, "{s:?}"),
            Term::Port(p) => write!(f, "<port {p}>"),
            Term::Tuple(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Term::List(_) | Term::Nil => {
                write!(f, "[")?;
                let mut cur = self.clone();
                let mut first = true;
                loop {
                    match cur {
                        Term::Nil => break,
                        Term::List(cell) => {
                            if !first {
                                write!(f, ",")?;
                            }
                            first = false;
                            write!(f, "{}", cell.0)?;
                            cur = cell.1.clone();
                        }
                        other => {
                            write!(f, "|{other}")?;
                            break;
                        }
                    }
                }
                write!(f, "]")
            }
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let t = Term::tuple(
            "tree",
            vec![
                Term::atom("+"),
                Term::int(2),
                Term::cons(Term::int(1), Term::Nil),
            ],
        );
        assert_eq!(t.to_string(), "tree(+,2,[1])");
        assert_eq!(
            Term::list([Term::int(1), Term::int(2)]).to_string(),
            "[1,2]"
        );
        assert_eq!(Term::Nil.to_string(), "[]");
        assert_eq!(
            Term::cons(Term::int(1), Term::Var(VarId(7))).to_string(),
            "[1|_7]"
        );
    }

    #[test]
    fn zero_arity_tuple_degenerates_to_atom() {
        assert_eq!(Term::tuple("halt", vec![]), Term::atom("halt"));
    }

    #[test]
    fn functor_extraction() {
        let t = Term::tuple("reduce", vec![Term::int(1), Term::Var(VarId(0))]);
        let (name, arity) = t.functor().unwrap();
        assert_eq!(name.as_str(), "reduce");
        assert_eq!(arity, 2);
        assert_eq!(Term::atom("halt").functor().unwrap().1, 0);
        assert!(Term::int(3).functor().is_none());
    }

    #[test]
    fn vars_first_occurrence_no_dups() {
        let t = Term::tuple(
            "f",
            vec![
                Term::Var(VarId(2)),
                Term::Var(VarId(1)),
                Term::cons(Term::Var(VarId(2)), Term::Var(VarId(5))),
            ],
        );
        assert_eq!(t.vars(), vec![VarId(2), VarId(1), VarId(5)]);
    }

    #[test]
    fn groundness() {
        assert!(Term::list([Term::int(1)]).is_ground());
        assert!(!Term::cons(Term::int(1), Term::Var(VarId(0))).is_ground());
    }

    #[test]
    fn proper_list_roundtrip() {
        let items = vec![Term::int(1), Term::atom("a"), Term::str("x")];
        let l = Term::list(items.clone());
        assert_eq!(l.as_proper_list().unwrap(), items);
        assert!(Term::cons(Term::int(1), Term::Var(VarId(0)))
            .as_proper_list()
            .is_none());
    }

    /// Run `f` on a thread whose stack is far too small for a recursive
    /// walk of a long list (a derived drop needs ~50 bytes × cells).
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("dropping a deep list must not overflow the stack");
    }

    #[test]
    fn million_cell_lists_drop_without_recursion() {
        on_small_stack(|| drop(Term::list((0..1_000_000).map(Term::int))));
        on_small_stack(|| {
            drop((0..1_000_000).fold(Term::Var(VarId(3)), |open, i| {
                Term::cons(Term::int(i), open)
            }))
        });
    }

    #[test]
    fn million_cell_lists_compare_without_recursion() {
        on_small_stack(|| {
            let a = Term::list((0..1_000_000).map(Term::int));
            let b = Term::list((0..1_000_000).map(Term::int));
            assert!(a == b);
            let last_differs = Term::list((0..1_000_000).map(|i| Term::int(i.min(999_998))));
            assert!(a != last_differs);
            let longer = Term::cons(Term::int(-1), b.clone());
            assert_ne!(longer, b);
            assert_ne!(b, longer);
        });
    }

    #[test]
    fn long_lists_are_walked_and_resolved_without_recursion() {
        on_small_stack(|| {
            let ground = Term::list((0..100_000).map(Term::int));
            assert!(ground.is_ground());
            assert!(ground.vars().is_empty());
            let open = (0..100_000).fold(Term::Var(VarId(3)), |tail, i| {
                Term::cons(Term::int(i), tail)
            });
            assert!(!open.is_ground());
            assert_eq!(open.vars(), vec![VarId(3)]);
            // `resolve` through a store: the tail variable is bound to more
            // list, so the spine crosses a binding.
            let mut store = crate::Store::new();
            let v = store.new_var();
            let front = (0..100_000).fold(Term::Var(v), |tail, i| Term::cons(Term::int(i), tail));
            store
                .bind(v, Term::list([Term::atom("end")]), 0, crate::NodeId(0))
                .unwrap();
            let resolved = store.resolve(&front);
            assert!(resolved.is_ground());
            let items = resolved.as_proper_list().expect("proper after resolve");
            assert_eq!(items.len(), 100_001);
            assert_eq!(items[100_000], Term::atom("end"));
            // An improper end is resolved too, not dropped.
            let w = store.new_var();
            store.bind(w, Term::int(7), 0, crate::NodeId(0)).unwrap();
            let improper = Term::cons(Term::int(1), Term::tuple("f", vec![Term::Var(w)]));
            assert_eq!(store.resolve(&improper).to_string(), "[1|f(7)]");
        });
    }

    #[test]
    fn dropping_one_owner_leaves_a_shared_tail_intact() {
        let tail = Term::list((0..1000).map(Term::int));
        let a = Term::cons(Term::atom("a"), tail.clone());
        let b = Term::cons(Term::atom("b"), tail.clone());
        drop(tail);
        drop(a);
        let items = b.as_proper_list().expect("still a proper list");
        assert_eq!(items.len(), 1001);
        assert_eq!(items[1000], Term::int(999));
    }
}
