//! Seeded inputs and their references. Everything a workload feeds the
//! program under test is generated here from `--seed`; the program only
//! ever sees the generated text. Each reference is computed from the
//! generator's own data structure by plain Rust, never by the engine.

use strand_core::SplitMix64;

/// A binary expression tree: what every tree workload reduces.
pub enum OpTree {
    Leaf(i64),
    Node(u32, Box<OpTree>, Box<OpTree>),
}

impl OpTree {
    /// A seeded tree with `leaves` leaves valued `1..=9` and operators
    /// drawn from `0..ops`. Each split is drawn uniformly from the middle
    /// half of the range: the shape (and with it suspension order, queue
    /// depth and cross-node traffic) differs from seed to seed, while the
    /// depth stays within a band narrow enough that two seeds' timings
    /// compare within the benchmark's bounds.
    pub fn random(leaves: u32, ops: u64, rng: &mut SplitMix64) -> OpTree {
        if leaves <= 1 {
            return OpTree::Leaf(1 + rng.next_below(9) as i64);
        }
        let lo = (leaves / 4).max(1);
        let hi = (leaves - lo).max(lo);
        let left = lo + rng.next_below(u64::from(hi - lo + 1)) as u32;
        let op = rng.next_below(ops) as u32;
        OpTree::Node(
            op,
            Box::new(OpTree::random(left, ops, rng)),
            Box::new(OpTree::random(leaves - left, ops, rng)),
        )
    }

    /// Goal-side source text, `tree(<op>, L, R)` / `leaf(N)`.
    pub fn src(&self, op: &impl Fn(u32) -> String) -> String {
        let mut out = String::new();
        self.write_src(op, &mut out);
        out
    }

    fn write_src(&self, op: &impl Fn(u32) -> String, out: &mut String) {
        match self {
            OpTree::Leaf(v) => out.push_str(&format!("leaf({v})")),
            OpTree::Node(o, l, r) => {
                out.push_str(&format!("tree({}, ", op(*o)));
                l.write_src(op, out);
                out.push_str(", ");
                r.write_src(op, out);
                out.push(')');
            }
        }
    }

    /// The reference value: a sequential Rust fold.
    pub fn fold(&self, apply: &impl Fn(u32, i64, i64) -> i64) -> i64 {
        match self {
            OpTree::Leaf(v) => *v,
            OpTree::Node(o, l, r) => apply(*o, l.fold(apply), r.fold(apply)),
        }
    }
}

/// Width of the guard-discriminated `combine/4` table of `dispatch-tree`.
pub const DISPATCH_OPS: u64 = 256;

/// The `compiled-json` tree-reduce program: per internal node one
/// `reduce` dispatch, one `combine` dispatch across a 256-clause table
/// whose clauses differ only in a guard, and one `:=`.
pub fn dispatch_program_src() -> String {
    let mut src = String::from(
        "reduce(leaf(X), V) :- V := X.\n\
         reduce(tree(Op, L, R), V) :- reduce(L, VL), reduce(R, VR), combine(Op, VL, VR, V).\n",
    );
    for k in 0..DISPATCH_OPS {
        src.push_str(&format!(
            "combine(Op, L, R, V) :- Op == {k} | V := L + R + {k}.\n"
        ));
    }
    src
}

pub fn dispatch_apply(op: u32, l: i64, r: i64) -> i64 {
    l + r + i64::from(op)
}

/// The `compiled-json` eval-chain program: a ten-clause constant-headed
/// `step/3` interleaved 1:1 with `:=`.
pub fn chain_program_src() -> String {
    let mut src = String::from(
        "chain(0, Acc, V) :- V := Acc.\n\
         chain(N, Acc, V) :- N > 0 | K := N mod 10, step(K, Acc, A1), N1 := N - 1, chain(N1, A1, V).\n",
    );
    for k in 0..10 {
        src.push_str(&format!("step({k}, A, B) :- B := A + {k}.\n"));
    }
    src
}

/// Closed form of `chain(n, start, V)`: every step adds `N mod 10`.
pub fn chain_expect(n: i64, start: i64) -> i64 {
    let (full, rem) = (n / 10, n % 10);
    start + full * 45 + rem * (rem + 1) / 2
}

/// Operators of the arithmetic tree (`motifs::ARITH_EVAL` knows `'+'`,
/// `'*'` and `'max'`; `'*'` is left out so no seed overflows).
pub fn arith_op_src(op: u32) -> String {
    if op == 0 { "'+'" } else { "'max'" }.to_string()
}

pub fn arith_apply(op: u32, l: i64, r: i64) -> i64 {
    if op == 0 {
        l + r
    } else {
        l.max(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tree_and_references_hold() {
        let a = OpTree::random(64, 2, &mut SplitMix64::new(5)).src(&arith_op_src);
        let b = OpTree::random(64, 2, &mut SplitMix64::new(5)).src(&arith_op_src);
        let c = OpTree::random(64, 2, &mut SplitMix64::new(6)).src(&arith_op_src);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.matches("leaf(").count(), 64);
        let tree = OpTree::random(64, 2, &mut SplitMix64::new(5));
        assert_eq!(tree.fold(&arith_apply), motifs::sequential_reduce(&a));
        assert_eq!(chain_expect(0, 7), 7);
        assert_eq!(chain_expect(13, 0), 45 + 1 + 2 + 3);
    }
}
