//! Allocation budgets of the reduction path (ROADMAP aim 1, "`Term`
//! boxing"), and of the goal ingest before it.
//!
//! A timing needs a quiet host to mean anything; an allocation count
//! repeats exactly. These budgets pin what interned atoms, single-block
//! tuples and the block pool bought — a tuple built per reduction is one
//! block, not an `Arc` plus a `Vec`, usually one a reduced goal handed
//! back, and nothing on the path allocates a name — so a change that
//! quietly brings an allocation back fails here on any machine. Beside the
//! counts, the peak of live heap bytes pins what a store variable costs.
//!
//! The counters are per thread (the simulator reduces on the calling
//! thread), so the tests do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use algorithmic_motifs::strand_core::SplitMix64;
use algorithmic_motifs::strand_machine::{ast_to_term, ExecMode, Machine, MachineConfig};
use algorithmic_motifs::strand_parse::{compile_program, parse_program, parse_term, Ast};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (negative when it
    /// frees what another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

/// Count one allocation of `grown` bytes (none for a free), and `grown`
/// more bytes live.
fn note(allocation: bool, grown: i64) {
    // `try_with`: a thread's last frees run after its locals are gone.
    if allocation {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: defers entirely to `System`; the counters are `Cell`s in
// const-initialised thread-locals with no destructor, so touching them
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// What one `Machine::run` cost.
struct Counted {
    allocations: u64,
    reductions: u64,
    /// The most heap bytes live at once during the run, above what was
    /// live when it began.
    peak_bytes: i64,
    /// Store variables at the end of the run.
    variables: usize,
}

/// Run `goal` over `src` on the compiled tier of the simulator and count
/// what `Machine::run` allocates. Parsing, compiling, lowering and building
/// the goal term are outside the count, as they are outside
/// `machine.allocs_per_reduction`.
fn run_counted(src: &str, goal: &str) -> Counted {
    let program = compile_program(&parse_program(src).expect("program parses")).expect("compiles");
    let cfg = MachineConfig::default();
    assert_eq!(cfg.exec, ExecMode::Compiled);
    let mut machine = Machine::new(program, cfg);
    let goal = parse_term(goal).expect("goal parses");
    let mut vars = BTreeMap::new();
    let goal = ast_to_term(&goal, &mut machine, &mut vars);
    machine.start(goal);
    let before = ALLOCATIONS.with(Cell::get);
    let live_before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live_before));
    let report = machine.run().expect("run completes");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let peak_bytes = PEAK.with(Cell::get) - live_before;
    let value = machine.store().resolve(&vars["V"]);
    assert!(value.is_ground(), "no answer: {value}");
    Counted {
        allocations,
        reductions: report.metrics.total_reductions,
        peak_bytes,
        variables: machine.store().len(),
    }
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
fn eval_chain_allocates_at_most_0_01_blocks_per_reduction() {
    // One iteration is 5 reductions building 5 tuples (three `:=`/2,
    // `step/3`, `chain/3`), each reduced once and dropped: every `:=`'s
    // operands are bound when its body is spawned, so the compiled tier
    // queues it with its value, not an expression tuple (8 tuples before).
    // A block per tuple was 1.6 per reduction (16 022 here); with
    // `Arc<Vec<Term>>` tuples it was 3.2. Every block now comes from the
    // machine's pool, filled by the goals reduced before it, and what
    // still allocates is the store and the queues growing: 28 here.
    let Counted {
        allocations,
        reductions,
        ..
    } = run_counted(&chain_program(), "chain(2000, 0, V)");
    assert_eq!(reductions, 5 * 2000 + 2);
    let per_reduction = allocations as f64 / reductions as f64;
    assert!(
        per_reduction <= 0.01,
        "{allocations} allocations over {reductions} reductions = {per_reduction:.4} per reduction"
    );
}

#[test]
fn eval_chain_peaks_at_most_28_heap_bytes_per_variable() {
    // A batch run keeps every variable to the end (DESIGN.md §6b), so the
    // store's slot table is the one thing that grows with the run: 60 001
    // slots here, in a table that doubles to 65 536 of them. The queues
    // stay a few goals deep and the pool a few blocks wide. A slot of
    // 24 bytes (a `Term`; waiters inline) peaks at 26.2 bytes per
    // variable; the 40-byte slot before it, with a bind stamp and a
    // waiter `Vec`, at 43.7. A goal's own argument block, owned since,
    // carries no reference counts: 16 bytes less per block, but the pool
    // holds a few blocks, so the peak fell by 48 bytes in 1.57 MB.
    let Counted {
        peak_bytes,
        variables,
        ..
    } = run_counted(&chain_program(), "chain(20000, 0, V)");
    assert_eq!(variables, 3 * 20000 + 1);
    let per_variable = peak_bytes as f64 / variables as f64;
    assert!(
        per_variable <= 28.0,
        "{peak_bytes} peak live bytes over {variables} variables = {per_variable:.1} per variable"
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
fn tree_reduce_stays_within_5_percent_of_its_pooled_count() {
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
    let Counted {
        allocations,
        reductions,
        ..
    } = run_counted(&src, &goal);
    // Measured: 8719 with two blocks per tuple (`Atom` = `Arc<str>`,
    // `Term::Tuple` = `Arc<Vec<Term>>`), 5141 with one, 3884 with blocks
    // recycled through the machine's pool, 3119 with one suspension list
    // per `:=` instead of one per operand, 2609 with a variable's one
    // waiter kept inline in its store slot instead of in a `Vec` (2599 by
    // the time goals were read straight to terms), and 2604 with each goal
    // owning its argument block: a nested `+/2` of an unfolded `:=` no
    // longer takes a reduced goal's two-argument block, nor a goal a
    // nested tuple's, the pool keeping each kind apart. The tree is
    // expanded breadth-first, so most of its goals are built before any is
    // reduced and the pool only helps once it collapses.
    const POOLED: u64 = 2604;
    assert_eq!(reductions, 2812);
    assert!(
        allocations * 100 <= POOLED * 105,
        "{allocations} allocations over {reductions} reductions; budget {}",
        POOLED * 105 / 100
    );
}

/// A seeded `dispatch-tree`-shaped tree of `leaves` leaves as source text:
/// `tree(Op, L, R)` with `Op` in `0..256` and `leaf(1..=9)`, each split
/// drawn from the middle half of the range.
fn dispatch_tree_src(leaves: u64, rng: &mut SplitMix64, out: &mut String) {
    if leaves == 1 {
        out.push_str(&format!("leaf({})", 1 + rng.next_below(9)));
        return;
    }
    let lo = (leaves / 4).max(1);
    let left = lo + rng.next_below(leaves - 2 * lo + 1);
    out.push_str(&format!("tree({}, ", rng.next_below(256)));
    dispatch_tree_src(left, rng, out);
    out.push_str(", ");
    dispatch_tree_src(leaves - left, rng, out);
    out.push(')');
}

#[test]
fn goal_ingest_allocates_one_block_per_compound() {
    // The goal's ground tree is built by the parser as the runtime term:
    // one block per `tree/3` and `leaf/1`, and `ast_to_term` shares it.
    // Through a surface tree it was three per compound: the name's
    // `String`, the argument `Vec` and, rebuilt, the tuple.
    const LEAVES: u64 = 8192;
    let mut tree = String::new();
    dispatch_tree_src(LEAVES, &mut SplitMix64::new(1991), &mut tree);
    let goal = format!("reduce({tree}, Value)");
    let compounds = 2 * LEAVES - 1 + 1; // the tree's nodes, and `reduce/2`
    let program = compile_program(&parse_program("reduce(_, _).").unwrap()).unwrap();
    let mut machine = Machine::new(program, MachineConfig::default());
    let mut vars = BTreeMap::new();
    let before = ALLOCATIONS.with(Cell::get);
    let ast = parse_term(&goal).expect("goal parses");
    let term = ast_to_term(&ast, &mut machine, &mut vars);
    let ingest = ALLOCATIONS.with(Cell::get) - before;
    assert!(
        ingest <= compounds + 32,
        "{ingest} allocations for {compounds} compounds"
    );
    let Ast::Tuple(_, args) = &ast else {
        panic!("expected reduce/2, got {ast}");
    };
    let before = ALLOCATIONS.with(Cell::get);
    let shared = ast_to_term(&args[0], &mut machine, &mut vars);
    assert_eq!(
        ALLOCATIONS.with(Cell::get) - before,
        0,
        "a ground argument was rebuilt"
    );
    assert_eq!(&shared, &term.goal_args()[0]);
}
