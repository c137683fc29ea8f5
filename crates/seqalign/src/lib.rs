//! # seqalign
//!
//! The paper's motivating application (§3), built to completion: *"the
//! generation of alignments of multiple sequences of RNA from different but
//! related organisms"*. The authors' node evaluation function was *"still
//! being implemented"* in 1990; this crate provides a working equivalent:
//!
//! * [`rna`] — synthetic families of related RNA sequences, evolved along a
//!   random phylogeny (the substitution for the 1990 lab data);
//! * [`align`] — profiles and Needleman–Wunsch profile–profile alignment:
//!   the `align-node` operator, quadratic cost, large intermediates;
//! * [`mod@upgma`] — pairwise distances and UPGMA guide-tree construction (the
//!   "philogenetic tree" of §3);
//! * [`msa`] — progressive multiple alignment by guide-tree reduction, the
//!   sequential reference;
//! * [`foreign`] — the same reduction as a motif program: `align_node/3`
//!   as a pure foreign library ([`align_lib`]) beneath Tree-Reduce-1 or
//!   Tree-Reduce-2 ([`ALIGN_EVAL`]), on the simulator or on real threads.
//!
//! Experiment E8 (EXPERIMENTS.md) compares the two tree-reduction motifs on
//! this workload: `e8-sim` on the simulator, `e8-seqalign` on a 4-thread
//! fleet.

pub mod align;
pub mod foreign;
pub mod msa;
pub mod rna;
pub mod upgma;

pub use align::{align_profiles, pair_distance, Alignment, Profile, ScoreParams};
pub use foreign::{align_lib, guide_tree_src, profile_to_term, term_to_profile, ALIGN_EVAL};
pub use msa::align_family_seq;
pub use rna::{generate_family, random_sequence, Family, FamilyParams, Phylo};
pub use upgma::{distance_matrix, guide_tree, upgma};
