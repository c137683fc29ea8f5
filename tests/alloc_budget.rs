//! Allocation budgets of the reduction path (ROADMAP aim 1, "`Term`
//! boxing").
//!
//! A timing needs a quiet host to mean anything; an allocation count
//! repeats exactly. These two budgets pin what interned atoms and
//! single-block tuples bought — a tuple built per reduction is one heap
//! block, not an `Arc` plus a `Vec`, and nothing on the path allocates a
//! name — so a change that quietly brings a second block back fails here
//! on any machine.
//!
//! The counter is per thread (the simulator reduces on the calling
//! thread), so the two tests do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use algorithmic_motifs::strand_machine::{ast_to_term, ExecMode, Machine, MachineConfig};
use algorithmic_motifs::strand_parse::{compile_program, parse_program, parse_term};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note() {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: defers entirely to `System`; the counter is a `Cell` in a
// const-initialised thread-local with no destructor, so touching it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `goal` over `src` on the compiled tier of the simulator and return
/// (allocations made by `Machine::run`, reductions). Parsing, compiling,
/// lowering and building the goal term are outside the count, as they are
/// outside `machine.allocs_per_reduction`.
fn run_counted(src: &str, goal: &str) -> (u64, u64) {
    let program = compile_program(&parse_program(src).expect("program parses")).expect("compiles");
    let cfg = MachineConfig::default();
    assert_eq!(cfg.exec, ExecMode::Compiled);
    let mut machine = Machine::new(program, cfg);
    let goal = parse_term(goal).expect("goal parses");
    let mut vars = BTreeMap::new();
    let goal = ast_to_term(&goal, &mut machine, &mut vars);
    machine.start(goal);
    let before = ALLOCATIONS.with(Cell::get);
    let report = machine.run().expect("run completes");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let value = machine.store().resolve(&vars["V"]);
    assert!(value.is_ground(), "no answer: {value}");
    (allocations, report.metrics.total_reductions)
}

/// `perfbench`'s `eval-chain` program: a ten-clause constant-headed
/// `step/3` interleaved 1:1 with `:=`.
fn chain_program() -> String {
    let mut src = String::from(
        "chain(0, Acc, V) :- V := Acc.\n\
         chain(N, Acc, V) :- N > 0 | K := N mod 10, step(K, Acc, A1), N1 := N - 1, chain(N1, A1, V).\n",
    );
    for k in 0..10 {
        src.push_str(&format!("step({k}, A, B) :- B := A + {k}.\n"));
    }
    src
}

#[test]
fn eval_chain_allocates_at_most_1_7_blocks_per_reduction() {
    // One iteration is 5 reductions building 8 tuples (`:=`/3 with its
    // expression, `step/3`, `chain/3`): 1.6 per reduction, one block each.
    // With `Arc<Vec<Term>>` tuples it was 16 blocks, 3.2 per reduction.
    let (allocations, reductions) = run_counted(&chain_program(), "chain(2000, 0, V)");
    assert_eq!(reductions, 5 * 2000 + 2);
    let per_reduction = allocations as f64 / reductions as f64;
    assert!(
        per_reduction <= 1.7,
        "{allocations} allocations over {reductions} reductions = {per_reduction:.3} per reduction"
    );
}

/// A complete binary tree of `leaves` leaves as `tree(Op, L, R)` /
/// `leaf(X)` source text.
fn tree_src(leaves: u32, next: &mut u32) -> String {
    if leaves == 1 {
        *next += 1;
        return format!("leaf({next})");
    }
    let op = *next % 4;
    let left = tree_src(leaves / 2, next);
    let right = tree_src(leaves / 2, next);
    format!("tree({op}, {left}, {right})")
}

#[test]
fn tree_reduce_stays_25_percent_under_the_two_block_tuple_count() {
    // `perfbench`'s `dispatch-tree` shape with a four-clause table.
    let mut src = String::from(
        "reduce(leaf(X), V) :- V := X.\n\
         reduce(tree(Op, L, R), V) :- reduce(L, VL), reduce(R, VR), combine(Op, VL, VR, V).\n",
    );
    for k in 0..4 {
        src.push_str(&format!(
            "combine(Op, L, R, V) :- Op == {k} | V := L + R + {k}.\n"
        ));
    }
    let goal = format!("reduce({}, V)", tree_src(512, &mut 0));
    let (allocations, reductions) = run_counted(&src, &goal);
    // Measured at the parent of the change that introduced this test
    // (`Atom` = `Arc<str>`, `Term::Tuple` = `Arc<Vec<Term>>`).
    const TWO_BLOCK_TUPLES: u64 = 8719;
    assert_eq!(reductions, 2812);
    assert!(
        allocations * 4 <= TWO_BLOCK_TUPLES * 3,
        "{allocations} allocations over {reductions} reductions; budget {}",
        TWO_BLOCK_TUPLES * 3 / 4
    );
}
