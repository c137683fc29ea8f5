//! An append-only array whose entries can be read without a lock.
//!
//! Two tables in this crate only ever grow and are read on paths that must
//! not take a lock: the symbol table's names ([`crate::atom`]) and a store
//! stripe's published bindings ([`crate::shared`]). Both keep their entries
//! in a [`Chunks`]: chunk `k` holds `2^FIRST_BITS << k` entries behind a
//! `OnceLock`, so an entry never moves once it exists, a read is the
//! directory load plus the entry, and a table nobody has written to costs
//! its `N`-pointer directory and nothing else.
//!
//! Writers are serialised by a lock their table already has (the intern
//! lock, the stripe lock); `OnceLock` makes a racing chunk creation safe
//! regardless.

use std::sync::OnceLock;

pub(crate) struct Chunks<T, const FIRST_BITS: u32, const N: usize> {
    dir: [OnceLock<Box<[T]>>; N],
}

impl<T, const FIRST_BITS: u32, const N: usize> Chunks<T, FIRST_BITS, N> {
    /// Entries `N` chunks hold between them.
    pub const CAPACITY: usize = ((1 << N) - 1) << FIRST_BITS;

    pub const fn new() -> Self {
        Chunks {
            dir: [const { OnceLock::new() }; N],
        }
    }

    /// Chunk and offset of entry `i`: chunk `k` starts at entry
    /// `(2^k - 1) << FIRST_BITS`.
    fn locate(i: usize) -> (usize, usize) {
        let k = ((i >> FIRST_BITS) + 1).ilog2() as usize;
        (k, i - (((1 << k) - 1) << FIRST_BITS))
    }

    /// Entry `i`, or `None` if nothing has grown the table that far.
    pub fn get(&self, i: usize) -> Option<&T> {
        let (k, offset) = Self::locate(i);
        Some(&self.dir.get(k)?.get()?[offset])
    }
}

impl<T: Default, const FIRST_BITS: u32, const N: usize> Chunks<T, FIRST_BITS, N> {
    /// Entry `i`, creating its chunk (of default entries) if need be.
    ///
    /// # Panics
    /// If `i` is not below [`Self::CAPACITY`].
    pub fn get_or_grow(&self, i: usize) -> &T {
        let (k, offset) = Self::locate(i);
        let chunk = self.dir[k].get_or_init(|| {
            (0..1usize << FIRST_BITS << k)
                .map(|_| T::default())
                .collect()
        });
        &chunk[offset]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn entries_are_dense_stable_and_created_by_the_chunk() {
        let t: Chunks<AtomicUsize, 2, 5> = Chunks::new();
        assert_eq!(Chunks::<AtomicUsize, 2, 5>::CAPACITY, 4 + 8 + 16 + 32 + 64);
        assert!(t.get(0).is_none());
        // Chunk boundaries: 4, 12, 28, 60.
        for i in [0, 3, 4, 11, 12, 27, 28, 59, 60, 123] {
            t.get_or_grow(i).store(i + 1, Ordering::Relaxed);
        }
        for i in [0, 3, 4, 11, 12, 27, 28, 59, 60, 123] {
            assert_eq!(t.get(i).unwrap().load(Ordering::Relaxed), i + 1);
        }
        // A neighbour in a created chunk exists and is default; beyond the
        // directory there is nothing.
        assert_eq!(t.get(5).unwrap().load(Ordering::Relaxed), 0);
        assert!(t.get(124).is_none());
    }
}
