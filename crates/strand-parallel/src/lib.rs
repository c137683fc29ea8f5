//! Compatibility shim for `perfbench/`, which still names this crate. The
//! fleet lives in `strand-machine`; the change that next edits the
//! benchmark points it there and deletes this crate.

pub use strand_machine::ResidentHandle;

/// Does nothing: the fleet needs no registration.
pub fn install() {}
