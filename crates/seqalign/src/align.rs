//! Profile–profile alignment: the `align-node` operator (§3).
//!
//! A [`Profile`] is a multiple alignment summarized per column as base
//! frequencies (A, C, G, U, gap). Aligning two profiles with
//! Needleman–Wunsch produces the profile of the merged alignment — exactly
//! the associative-enough "node evaluation function" the paper's tree
//! reduction applies at every node of the phylogenetic tree, with the same
//! cost profile (quadratic in the sequence lengths, producing large
//! intermediate structures).

use crate::rna::base_index;

/// One alignment column: frequencies of A, C, G, U and gap.
pub type Column = [f32; 5];

/// A profile: per-column frequencies plus the number of sequences it
/// summarizes.
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    pub cols: Vec<Column>,
    pub seqs: u32,
}

impl Profile {
    /// Profile of a single ungapped sequence.
    pub fn from_sequence(seq: &[u8]) -> Profile {
        let cols = seq
            .iter()
            .map(|b| {
                let mut c = [0.0f32; 5];
                c[base_index(*b).expect("RNA base")] = 1.0;
                c
            })
            .collect();
        Profile { cols, seqs: 1 }
    }

    /// Alignment length.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the profile has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Consensus string: the dominant symbol per column (`-` for gap).
    pub fn consensus(&self) -> String {
        const SYMS: [char; 5] = ['A', 'C', 'G', 'U', '-'];
        self.cols
            .iter()
            .map(|c| {
                let mut best = 0;
                for i in 1..5 {
                    if c[i] > c[best] {
                        best = i;
                    }
                }
                SYMS[best]
            })
            .collect()
    }

    /// Average per-column identity: the weight of the dominant base (gap
    /// included) — 1.0 means all sequences agree everywhere.
    pub fn column_identity(&self) -> f64 {
        if self.cols.is_empty() {
            return 1.0;
        }
        let total: f64 = self
            .cols
            .iter()
            .map(|c| c.iter().fold(0.0f32, |m, x| m.max(*x)) as f64)
            .sum();
        total / self.cols.len() as f64
    }
}

/// Alignment scoring parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScoreParams {
    pub matsh: f32,
    pub mismatch: f32,
    pub gap: f32,
}

impl Default for ScoreParams {
    fn default() -> Self {
        ScoreParams {
            matsh: 2.0,
            mismatch: -1.0,
            gap: -2.0,
        }
    }
}

/// Expected substitution score between two columns.
fn col_score(a: &Column, b: &Column, p: &ScoreParams) -> f32 {
    let mut s = 0.0;
    for (i, &fa) in a.iter().take(4).enumerate() {
        for (j, &fb) in b.iter().take(4).enumerate() {
            s += fa * fb * if i == j { p.matsh } else { p.mismatch };
        }
    }
    // A gap fraction in either column contributes gap penalty.
    s += (a[4] + b[4]) * p.gap * 0.5;
    s
}

fn merge_columns(a: &Column, wa: f32, b: &Column, wb: f32) -> Column {
    let mut out = [0.0f32; 5];
    let total = wa + wb;
    for i in 0..5 {
        out[i] = (a[i] * wa + b[i] * wb) / total;
    }
    out
}

const GAP_COLUMN: Column = [0.0, 0.0, 0.0, 0.0, 1.0];

/// The result of aligning two profiles.
#[derive(Clone, Debug)]
pub struct Alignment {
    pub profile: Profile,
    pub score: f32,
}

/// Needleman–Wunsch global alignment of two profiles; returns the merged
/// profile and the optimal score. `O(len(a)·len(b))` time and memory —
/// the "large intermediate data structures" of §3.5 are the DP matrix and
/// the merged profile.
pub fn align_profiles(a: &Profile, b: &Profile, p: &ScoreParams) -> Alignment {
    let (n, m) = (a.len(), b.len());
    let width = m + 1;
    // DP score matrix, row-major.
    let mut dp = vec![0.0f32; (n + 1) * width];
    // Traceback: 0 diag, 1 up (gap in b), 2 left (gap in a).
    let mut tb = vec![0u8; (n + 1) * width];
    for j in 1..=m {
        dp[j] = dp[j - 1] + p.gap;
        tb[j] = 2;
    }
    for i in 1..=n {
        dp[i * width] = dp[(i - 1) * width] + p.gap;
        tb[i * width] = 1;
        for j in 1..=m {
            let diag = dp[(i - 1) * width + j - 1] + col_score(&a.cols[i - 1], &b.cols[j - 1], p);
            let up = dp[(i - 1) * width + j] + p.gap;
            let left = dp[i * width + j - 1] + p.gap;
            let (best, dir) = if diag >= up && diag >= left {
                (diag, 0)
            } else if up >= left {
                (up, 1)
            } else {
                (left, 2)
            };
            dp[i * width + j] = best;
            tb[i * width + j] = dir;
        }
    }
    // Traceback, building merged columns back-to-front.
    let (wa, wb) = (a.seqs as f32, b.seqs as f32);
    let mut cols = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match tb[i * width + j] {
            0 => {
                cols.push(merge_columns(&a.cols[i - 1], wa, &b.cols[j - 1], wb));
                i -= 1;
                j -= 1;
            }
            1 => {
                cols.push(merge_columns(&a.cols[i - 1], wa, &GAP_COLUMN, wb));
                i -= 1;
            }
            _ => {
                cols.push(merge_columns(&GAP_COLUMN, wa, &b.cols[j - 1], wb));
                j -= 1;
            }
        }
    }
    cols.reverse();
    Alignment {
        profile: Profile {
            cols,
            seqs: a.seqs + b.seqs,
        },
        score: dp[n * width + m],
    }
}

/// Pairwise distance between two sequences: 1 − normalized alignment score
/// (clamped to [0, 1]); used to build the UPGMA guide tree.
pub fn pair_distance(a: &[u8], b: &[u8], p: &ScoreParams) -> f64 {
    let pa = Profile::from_sequence(a);
    let pb = Profile::from_sequence(b);
    let al = align_profiles(&pa, &pb, p);
    let max_possible = p.matsh * a.len().min(b.len()) as f32;
    if max_possible <= 0.0 {
        return 0.0;
    }
    (1.0 - (al.score / max_possible) as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(s: &str) -> Profile {
        Profile::from_sequence(s.as_bytes())
    }

    #[test]
    fn identical_sequences_align_without_gaps() {
        let p = ScoreParams::default();
        let a = profile("ACGUACGU");
        let out = align_profiles(&a, &a.clone(), &p);
        assert_eq!(out.profile.len(), 8);
        assert_eq!(out.profile.seqs, 2);
        assert!((out.profile.column_identity() - 1.0).abs() < 1e-6);
        assert!((out.score - 8.0 * p.matsh).abs() < 1e-4);
    }

    #[test]
    fn insertion_produces_gap_column() {
        let p = ScoreParams::default();
        let a = profile("ACGU");
        let b = profile("ACGGU"); // one extra G
        let out = align_profiles(&a, &b, &p);
        assert_eq!(out.profile.len(), 5);
        // Exactly one column carries gap mass from `a`.
        let gappy = out.profile.cols.iter().filter(|c| c[4] > 0.0).count();
        assert_eq!(gappy, 1);
    }

    #[test]
    fn alignment_length_bounds() {
        let p = ScoreParams::default();
        let a = profile("ACGUACGUAC");
        let b = profile("GUACG");
        let out = align_profiles(&a, &b, &p);
        assert!(out.profile.len() >= 10);
        assert!(out.profile.len() <= 15);
    }

    #[test]
    fn empty_profile_aligns_as_all_gaps() {
        let p = ScoreParams::default();
        let a = profile("ACGU");
        let b = Profile {
            cols: vec![],
            seqs: 1,
        };
        let out = align_profiles(&a, &b, &p);
        assert_eq!(out.profile.len(), 4);
        assert!(out.profile.cols.iter().all(|c| c[4] > 0.0));
    }

    #[test]
    fn distance_orders_by_relatedness() {
        let p = ScoreParams::default();
        let a = b"ACGUACGUACGUACGUACGU";
        let close = b"ACGUACGUACGAACGUACGU"; // 1 substitution
        let far = b"UUUUGGGGCCCCAAAAUUUU";
        let d_self = pair_distance(a, a, &p);
        let d_close = pair_distance(a, close, &p);
        let d_far = pair_distance(a, far, &p);
        assert!(d_self < 1e-9);
        assert!(d_close < d_far, "{d_close} vs {d_far}");
        assert!(d_close > 0.0);
    }

    #[test]
    fn merged_profile_frequencies_are_weighted() {
        let p = ScoreParams::default();
        // Three copies of A-profile merged with one U-profile.
        let mut a3 = profile("AAAA");
        a3.seqs = 3;
        let u1 = profile("UUUU");
        let out = align_profiles(&a3, &u1, &p);
        assert_eq!(out.profile.seqs, 4);
        for c in &out.profile.cols {
            assert!((c[0] - 0.75).abs() < 1e-5, "{c:?}");
            assert!((c[3] - 0.25).abs() < 1e-5, "{c:?}");
        }
    }

    #[test]
    fn consensus_of_single_sequence_is_the_sequence() {
        let p = profile("ACGUACGU");
        assert_eq!(p.consensus(), "ACGUACGU");
    }

    #[test]
    fn consensus_reflects_majority() {
        let pr = ScoreParams::default();
        let mut a3 = profile("AAAA");
        a3.seqs = 3;
        let u1 = profile("UUUU");
        let out = align_profiles(&a3, &u1, &pr);
        assert_eq!(out.profile.consensus(), "AAAA");
    }

    #[test]
    fn consensus_marks_gap_columns() {
        let pr = ScoreParams::default();
        let mut a = profile("AC");
        a.seqs = 1;
        let b = profile("AGGGGC");
        let out = align_profiles(&a, &b, &pr);
        // The four inserted columns are mostly gap for the short profile;
        // with one sequence each, base weight (1.0 from b) beats gap (0.5
        // average), so consensus shows b's bases — but length must be 6.
        assert_eq!(out.profile.consensus().len(), 6);
    }
}
