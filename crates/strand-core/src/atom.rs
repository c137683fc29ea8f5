//! Interned symbolic constants.
//!
//! Strand atoms (`sync`, `halt`, functor names, …) sit in every goal, tuple
//! and rule, so copying and comparing one must cost nothing. An [`Atom`] is
//! a `u32` index into one process-wide symbol table: `Copy`, compared and
//! hashed by identity, and turned back into its name by a lock-free read.
//!
//! The table is append-only and never frees a name — an id handed out once
//! stays valid for the life of the process, which is what makes `Atom`
//! `Copy` with no reference count. It is also of fixed capacity
//! ([`CAPACITY`] names): program text is trusted to stay far below it, and
//! names arriving from outside the program go through [`Atom::try_new`],
//! which refuses a *new* name once the table is within
//! [`UNTRUSTED_RESERVE`] of full or the name is longer than
//! [`MAX_UNTRUSTED_NAME`] bytes — so a hostile peer can pin at most
//! `(CAPACITY - UNTRUSTED_RESERVE) × (MAX_UNTRUSTED_NAME + per-name
//! overhead)` bytes and can never take the table away from the program
//! itself (the Erlang atom-table rule, as constants).
//!
//! The names every engine step dispatches on are interned at fixed ids at
//! compile time: see [`crate::sym`].

use crate::chunks::Chunks;
use crate::sym;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, Mutex, OnceLock};

/// Most names the table will ever hold.
pub const CAPACITY: usize = 1 << 18;

/// Slots only trusted callers ([`Atom::new`]) may fill: [`Atom::try_new`]
/// refuses a new name once fewer than this many are free.
pub const UNTRUSTED_RESERVE: usize = 1 << 14;

/// Longest name, in bytes, [`Atom::try_new`] accepts.
pub const MAX_UNTRUSTED_NAME: usize = 255;

/// Names by id, in chunks allocated on demand (1024 names, then doubling).
/// A slot is written exactly once, under the `IDS` lock, before its id is
/// handed to anyone; readers go through `OnceLock::get` and take no lock.
type Names = Chunks<OnceLock<&'static str>, 10, 9>;
static NAMES: Names = Names::new();
const _: () = assert!(Names::CAPACITY >= CAPACITY);

/// Ids by name. The default SipHash is kept on purpose: names may come from
/// a socket. Interning is off the reduction path, so its cost does not
/// matter; the lock also serialises writers of `NAMES` and `LEN`.
static IDS: LazyLock<Mutex<HashMap<&'static str, u32>>> = LazyLock::new(|| {
    Mutex::new(
        sym::NAMES
            .iter()
            .enumerate()
            .map(|(id, name)| (*name, id as u32))
            .collect(),
    )
});

/// Names interned so far, the well-known ones included. A statistic: it
/// publishes no data (slots are published by their own `OnceLock`).
static LEN: AtomicU32 = AtomicU32::new(sym::NAMES.len() as u32);

/// Why [`Atom::try_new`] refused a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomError {
    /// The name is longer than [`MAX_UNTRUSTED_NAME`] bytes.
    NameTooLong { len: usize },
    /// The name is new and the table is within [`UNTRUSTED_RESERVE`] of
    /// [`CAPACITY`].
    TableFull,
}

impl fmt::Display for AtomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomError::NameTooLong { len } => write!(
                f,
                "atom name of {len} bytes exceeds the {MAX_UNTRUSTED_NAME}-byte limit"
            ),
            AtomError::TableFull => write!(f, "atom table is full: no new names accepted"),
        }
    }
}

impl std::error::Error for AtomError {}

/// A symbolic constant (lowercase identifier in the surface syntax).
///
/// ```
/// use strand_core::Atom;
/// let a = Atom::new("reduce");
/// let b = a;
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "reduce");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom(u32);

/// Intern `name`, growing the table up to `limit` names.
fn intern(name: &str, limit: usize) -> Result<Atom, AtomError> {
    let mut ids = IDS.lock().expect("atom table lock poisoned");
    if let Some(&id) = ids.get(name) {
        return Ok(Atom(id));
    }
    let id = LEN.load(Ordering::Relaxed) as usize;
    if id >= limit {
        return Err(AtomError::TableFull);
    }
    let name: &'static str = Box::leak(Box::from(name));
    NAMES
        .get_or_grow(id)
        .set(name)
        .expect("a slot is written once, under the intern lock");
    ids.insert(name, id as u32);
    LEN.store(id as u32 + 1, Ordering::Relaxed);
    Ok(Atom(id as u32))
}

impl Atom {
    /// Intern a name from trusted text (program source, this program's own
    /// literals).
    ///
    /// # Panics
    /// If the table already holds [`CAPACITY`] names.
    pub fn new(name: impl AsRef<str>) -> Atom {
        match intern(name.as_ref(), CAPACITY) {
            Ok(atom) => atom,
            Err(e) => panic!("{e} ({CAPACITY} names)"),
        }
    }

    /// Intern a name that came from outside the program. A name longer
    /// than [`MAX_UNTRUSTED_NAME`] bytes is refused outright; a shorter one
    /// already in the table is always found, and a new one is refused once
    /// the table is within [`UNTRUSTED_RESERVE`] of full.
    pub fn try_new(name: &str) -> Result<Atom, AtomError> {
        if name.len() > MAX_UNTRUSTED_NAME {
            return Err(AtomError::NameTooLong { len: name.len() });
        }
        intern(name, CAPACITY - UNTRUSTED_RESERVE)
    }

    /// The atom with this id: a well-known symbol's fixed one (see
    /// [`crate::sym`]) or one [`Atom::id`] gave out.
    pub(crate) const fn from_id(id: u32) -> Atom {
        Atom(id)
    }

    /// The atom's index in the symbol table.
    pub(crate) fn id(self) -> u32 {
        self.0
    }

    /// The atom's textual name.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        if let Some(name) = sym::NAMES.get(id) {
            return name;
        }
        NAMES
            .get(id)
            .and_then(OnceLock::get)
            .expect("an Atom is only made by interning its name")
    }
}

/// How many names the table holds (diagnostics and tests).
pub fn table_len() -> usize {
    LEN.load(Ordering::Relaxed) as usize
}

impl PartialEq<str> for Atom {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Atom {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic by name, so sorted output does not depend on which name a
/// process happened to intern first.
impl Ord for Atom {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::new(s)
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Self {
        Atom::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_and_copy() {
        let a = Atom::new("eval");
        let b = a;
        let c = Atom::new(String::from("eval"));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, Atom::new("evaluate"));
    }

    #[test]
    fn str_comparison() {
        let a = Atom::new("halt");
        assert_eq!(a, "halt");
        assert!(a == "halt");
    }

    #[test]
    fn works_as_hash_key() {
        let mut set = HashSet::new();
        set.insert(Atom::new("send"));
        assert!(set.contains(&Atom::new("send")));
        assert!(!set.contains(&Atom::new("recv")));
    }

    #[test]
    fn ordering_is_lexicographic() {
        // Interned in an order that is neither sorted nor reverse-sorted.
        let mut v = [
            Atom::new("ord_server"),
            Atom::new("ord_eval"),
            Atom::new("ord_reduce"),
        ];
        v.sort();
        let names: Vec<_> = v.iter().map(|a| a.as_str()).collect();
        assert_eq!(names, ["ord_eval", "ord_reduce", "ord_server"]);
    }

    #[test]
    fn well_known_symbols_are_their_own_names() {
        for (id, name) in sym::NAMES.iter().enumerate() {
            let atom = Atom::new(name);
            assert_eq!(atom, Atom::from_id(id as u32), "{name}");
            assert_eq!(atom.as_str(), *name);
        }
        assert_eq!(sym::ASSIGN.as_str(), ":=");
        assert_eq!(Atom::new("$timer"), sym::TIMER);
        assert!(table_len() >= sym::NAMES.len());
    }

    #[test]
    fn untrusted_names_are_length_capped_but_known_ones_always_resolve() {
        let long = "x".repeat(MAX_UNTRUSTED_NAME + 1);
        assert_eq!(
            Atom::try_new(&long),
            Err(AtomError::NameTooLong {
                len: MAX_UNTRUSTED_NAME + 1
            })
        );
        let edge = "y".repeat(MAX_UNTRUSTED_NAME);
        let a = Atom::try_new(&edge).expect("255 bytes is within the cap");
        assert_eq!(a.as_str(), edge);
        assert_eq!(Atom::try_new("ok"), Ok(sym::OK));
        // Trusted text is not length-capped.
        assert_eq!(Atom::new(&long).as_str(), long);
    }
}
