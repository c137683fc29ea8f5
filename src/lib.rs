//! Facade crate for the algorithmic-motifs workspace. See README.md.
pub use motifs;
pub use seqalign;
pub use skeletons;
pub use strand_core;
pub use strand_machine;
pub use strand_parse;
pub use strand_serve;
pub use transform;
