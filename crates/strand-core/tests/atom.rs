//! The symbol table: identity semantics agree with name semantics, the
//! table is safe to intern into from many threads at once, the layout the
//! engine's speed rests on is pinned, and the engine's hot files spell no
//! atom as a string literal.
//!
//! Every test name contains `atom`, so the nightly TSan job's
//! `cargo test -p strand-core atom` runs this file with the unit tests.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};
use strand_core::{Atom, Pat, Term};

/// Names that collide often (two letters), names with quotes, spaces and
/// non-ASCII text, the empty name, and names at the 255-byte untrusted cap.
fn name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ab]{1,2}",
        "[a-z][a-zA-Z0-9_]{0,8}",
        "[ -~é-üα-ω]{0,12}",
        Just(String::new()),
        "[xy]{255}",
    ]
}

proptest! {
    /// `==`, `Ord` and hash-map membership of atoms are those of their
    /// names, whatever order the names were interned in.
    #[test]
    fn atom_identity_agrees_with_names(names in proptest::collection::vec(name(), 1..24)) {
        let atoms: Vec<Atom> = names.iter().map(Atom::new).collect();
        for (a, n) in atoms.iter().zip(&names) {
            prop_assert_eq!(a.as_str(), n.as_str());
            prop_assert!(*a == n.as_str());
            prop_assert_eq!(Atom::try_new(n), Ok(*a));
        }
        for (a, n) in atoms.iter().zip(&names) {
            for (b, m) in atoms.iter().zip(&names) {
                prop_assert_eq!(a == b, n == m, "{:?} == {:?}", n, m);
                prop_assert_eq!(a.cmp(b), n.cmp(m), "{:?} cmp {:?}", n, m);
            }
        }
        let half = names.len() / 2;
        let by_atom: HashSet<Atom> = atoms[..half].iter().copied().collect();
        let by_name: HashSet<&str> = names[..half].iter().map(String::as_str).collect();
        for (a, n) in atoms.iter().zip(&names) {
            prop_assert_eq!(by_atom.contains(a), by_name.contains(n.as_str()), "{:?}", n);
        }
        let mut sorted_atoms = atoms.clone();
        sorted_atoms.sort();
        let mut sorted_names: Vec<&str> = names.iter().map(String::as_str).collect();
        sorted_names.sort_unstable();
        let rendered: Vec<&str> = sorted_atoms.iter().map(|a| a.as_str()).collect();
        prop_assert_eq!(rendered, sorted_names);
    }
}

#[test]
fn atom_interning_from_eight_threads_gives_one_id_per_name() {
    const THREADS: usize = 8;
    const NAMES: usize = 10_000;
    let names: Arc<Vec<String>> = Arc::new((0..NAMES).map(|i| format!("conc_atom_{i}")).collect());
    // The barrier forces the interleaving under test: every thread meets
    // the same not-yet-interned names at the same moment, each walking them
    // from a different offset so inserts and lookups of one name overlap.
    let barrier = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (names, barrier) = (Arc::clone(&names), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                let mut mine = vec![None; NAMES];
                for k in 0..NAMES {
                    let i = (k + t * NAMES / THREADS) % NAMES;
                    let atom = Atom::new(&names[i]);
                    assert_eq!(atom.as_str(), names[i]);
                    mine[i] = Some(atom);
                }
                mine
            })
        })
        .collect();
    let per_thread: Vec<Vec<Option<Atom>>> = workers
        .into_iter()
        .map(|w| w.join().expect("interning thread panicked"))
        .collect();
    let mut name_of: HashMap<Atom, &str> = HashMap::new();
    for (i, name) in names.iter().enumerate() {
        let atom = per_thread[0][i].expect("every name interned");
        for other in &per_thread[1..] {
            assert_eq!(other[i], Some(atom), "{name}: two ids for one name");
        }
        assert_eq!(atom.as_str(), name);
        assert_eq!(name_of.insert(atom, name), None, "{name}: id shared");
    }
}

#[test]
fn atom_and_term_layout_is_pinned() {
    // `Copy` symbols and single-block tuples are what take refcount
    // traffic and a second allocation off every reduction; a field that
    // grows `Term` back to 32 bytes grows every store slot with it.
    assert_eq!(std::mem::size_of::<Atom>(), 4);
    assert!(std::mem::size_of::<Term>() <= 24);
    assert!(std::mem::size_of::<Pat>() <= 24);
    fn is_copy<T: Copy>() {}
    is_copy::<Atom>();
}

/// The source lines of `path` outside its `#[cfg(test)]` module (by this
/// repo's convention the last item of a file), comments dropped.
fn non_test_code(path: &str) -> Vec<(usize, String)> {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    src.lines()
        .enumerate()
        .take_while(|(_, l)| l.trim() != "#[cfg(test)]")
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(i, l)| (i + 1, l.to_string()))
        .collect()
}

#[test]
fn engine_hot_files_spell_no_atom_as_a_literal() {
    // A literal here is an intern (lock, hash, compare) per reduction. The
    // names the engine dispatches on live in `strand_core::sym`.
    let root = env!("CARGO_MANIFEST_DIR");
    let files = [
        "src/arith.rs",
        "../strand-machine/src/builtins.rs",
        "../strand-machine/src/machine.rs",
        "../strand-machine/src/sim.rs",
        "../strand-machine/src/worker.rs",
        "../strand-machine/src/tier.rs",
        "../strand-machine/src/exec.rs",
    ];
    let banned = [
        "Atom::new(\"",
        "Atom::from(\"",
        "Term::atom(\"",
        "Term::tuple(\"",
        "Pat::atom(\"",
        "Pat::tuple(\"",
    ];
    let mut offences = Vec::new();
    for file in files {
        let path = format!("{root}/{file}");
        for (line_no, line) in non_test_code(&path) {
            if banned.iter().any(|b| line.contains(b)) {
                offences.push(format!("{file}:{line_no}: {}", line.trim()));
            }
        }
    }
    assert!(
        offences.is_empty(),
        "string-literal atoms on the reduction path (use strand_core::sym):\n{}",
        offences.join("\n")
    );
}
