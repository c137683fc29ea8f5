//! Progressive multiple sequence alignment = guide-tree reduction.
//!
//! This is the paper's application assembled end to end: *"Reduction of
//! this tree using an 'align-node' function produces the desired
//! alignment"* (§3). [`align_family_seq`] folds the guide tree with
//! [`align_profiles`] — the sequential reference. The parallel versions are
//! the paper's own: Tree-Reduce-1 and Tree-Reduce-2 over
//! [`crate::ALIGN_EVAL`] with [`crate::align_lib`] as the native node
//! evaluation, on either engine. The guide tree fixes the reduction order,
//! so every strategy produces this same profile.

use crate::align::{align_profiles, Profile, ScoreParams};
use crate::rna::Phylo;
use crate::upgma::guide_tree;

/// Sequential progressive alignment (reference).
pub fn align_family_seq(seqs: &[Vec<u8>], p: &ScoreParams) -> Profile {
    fn fold(tree: &Phylo, seqs: &[Vec<u8>], p: &ScoreParams) -> Profile {
        match tree {
            Phylo::Leaf(i) => Profile::from_sequence(&seqs[*i]),
            Phylo::Node(l, r) => align_profiles(&fold(l, seqs, p), &fold(r, seqs, p), p).profile,
        }
    }
    fold(&guide_tree(seqs, p), seqs, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rna::{generate_family, FamilyParams};

    fn family(leaves: usize, seed: u64) -> Vec<Vec<u8>> {
        generate_family(&FamilyParams {
            leaves,
            ancestral_len: 80,
            seed,
            ..Default::default()
        })
        .sequences
    }

    #[test]
    fn sequential_alignment_covers_all_sequences() {
        let seqs = family(8, 1);
        let out = align_family_seq(&seqs, &ScoreParams::default());
        assert_eq!(out.seqs, 8);
        let max_len = seqs.iter().map(Vec::len).max().unwrap();
        assert!(out.len() >= max_len);
        assert!(out.len() < max_len * 2, "alignment blew up: {}", out.len());
    }

    #[test]
    fn related_family_aligns_with_high_identity() {
        let seqs = family(8, 2);
        let related = align_family_seq(&seqs, &ScoreParams::default());
        // Unrelated random sequences of the same lengths align poorly.
        let mut rng = strand_core::SplitMix64::new(99);
        let unrelated: Vec<Vec<u8>> = seqs
            .iter()
            .map(|s| crate::rna::random_sequence(s.len(), &mut rng))
            .collect();
        let noise = align_family_seq(&unrelated, &ScoreParams::default());
        assert!(
            related.column_identity() > noise.column_identity() + 0.15,
            "related {:.3} vs noise {:.3}",
            related.column_identity(),
            noise.column_identity()
        );
        assert!(related.column_identity() > 0.75);
    }

    #[test]
    fn two_sequence_family() {
        let seqs = family(2, 5);
        let out = align_family_seq(&seqs, &ScoreParams::default());
        assert_eq!(out.seqs, 2);
    }
}
