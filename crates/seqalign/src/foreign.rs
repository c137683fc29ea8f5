//! Running the alignment as a motif program — the paper's full
//! architecture.
//!
//! In 1990 the application was *"2000 lines of Strand and C"*: Strand
//! coordinated, C computed. This module reproduces that split exactly: the
//! motif language coordinates (Tree-Reduce-1 or Tree-Reduce-2 applied to
//! [`ALIGN_EVAL`]) while the node evaluation runs natively ([`align_lib`]
//! is the Rust `align_node` as a foreign procedure, §2.1's multilingual
//! approach). The same program and library run on the simulator and on
//! the multi-threaded fleet.
//!
//! Profiles cross the language boundary as terms:
//! `profile(Seqs, [col(A, C, G, U, Gap)|…])`; a leaf may simply be the
//! sequence string, which the foreign procedure promotes to a profile.

use crate::align::{align_profiles, Profile, ScoreParams};
use crate::rna::Phylo;
use strand_core::{StrandError, StrandResult, Term};

/// Encode a profile as a term.
pub fn profile_to_term(p: &Profile) -> Term {
    let cols = p
        .cols
        .iter()
        .map(|c| Term::tuple("col", c.iter().map(|x| Term::float(*x as f64)).collect()));
    Term::tuple("profile", vec![Term::int(p.seqs as i64), Term::list(cols)])
}

/// Decode a profile term (or promote a sequence string).
pub fn term_to_profile(t: &Term) -> StrandResult<Profile> {
    match t {
        Term::Str(s) => Ok(Profile::from_sequence(s.as_bytes())),
        Term::Tuple(name, args) if name.as_str() == "profile" && args.len() == 2 => {
            let seqs = match &args[0] {
                Term::Int(i) if *i >= 0 => *i as u32,
                other => {
                    return Err(StrandError::Other(format!(
                        "bad profile sequence count: {other}"
                    )))
                }
            };
            let col_terms = args[1]
                .as_proper_list()
                .ok_or_else(|| StrandError::Other("profile columns must be a list".into()))?;
            let mut cols = Vec::with_capacity(col_terms.len());
            for ct in col_terms {
                let parts = match &ct {
                    Term::Tuple(n, parts) if n.as_str() == "col" && parts.len() == 5 => parts,
                    other => return Err(StrandError::Other(format!("bad column term: {other}"))),
                };
                let mut col = [0.0f32; 5];
                for (i, p) in parts.iter().enumerate() {
                    col[i] = match p {
                        Term::Float(x) => *x as f32,
                        Term::Int(i) => *i as f32,
                        other => {
                            return Err(StrandError::Other(format!("bad column entry: {other}")))
                        }
                    };
                }
                cols.push(col);
            }
            Ok(Profile { cols, seqs })
        }
        other => Err(StrandError::Other(format!(
            "not a profile or sequence: {other}"
        ))),
    }
}

/// `align_node/3` as a pure foreign library: `align_node(A, B, Merged)`
/// aligns two profiles (or sequence strings) natively and charges a virtual
/// cost proportional to the DP matrix size — the quadratic cost of the real
/// Needleman–Wunsch computation. Alignment depends only on its arguments,
/// so the multi-threaded backend computes it on whichever worker reduces
/// the call, overlapped with other alignments. Install with
/// [`strand_machine::run_parsed_goal_with_lib`] on either backend.
pub fn align_lib(params: ScoreParams, cost_divisor: u64) -> strand_machine::ForeignLib {
    let mut lib = strand_machine::ForeignLib::new();
    lib.register("align_node", 3, move |args| {
        let a = term_to_profile(&args[0])?;
        let b = term_to_profile(&args[1])?;
        let cost = (a.len() as u64 * b.len() as u64) / cost_divisor.max(1) + 1;
        let merged = align_profiles(&a, &b, &params).profile;
        Ok((profile_to_term(&merged), cost))
    });
    lib
}

/// Render a guide tree over sequences as a motif-language tree term whose
/// leaves are the sequence strings: `tree(n, leaf("ACGU…"), …)`.
pub fn guide_tree_src(tree: &Phylo, seqs: &[Vec<u8>]) -> String {
    match tree {
        Phylo::Leaf(i) => format!("leaf(\"{}\")", String::from_utf8_lossy(&seqs[*i])),
        Phylo::Node(l, r) => format!(
            "tree(n, {}, {})",
            guide_tree_src(l, seqs),
            guide_tree_src(r, seqs)
        ),
    }
}

/// The node-evaluation program: wait for both operands, then call the
/// native aligner.
pub const ALIGN_EVAL: &str = r#"
eval(_, L, R, Value) :- data(L), data(R) | align_node(L, R, Value).
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rna::{generate_family, FamilyParams};
    use crate::upgma::guide_tree;
    use strand_machine::{run_parsed_goal_with_lib, MachineConfig, RunStatus};

    #[test]
    fn profile_term_roundtrip() {
        let p = Profile::from_sequence(b"ACGUAC");
        let t = profile_to_term(&p);
        let back = term_to_profile(&t).unwrap();
        assert_eq!(p, back);
        // Strings promote.
        assert_eq!(term_to_profile(&Term::str("ACGU")).unwrap().len(), 4);
    }

    #[test]
    fn bad_terms_are_rejected() {
        assert!(term_to_profile(&Term::int(3)).is_err());
        assert!(
            term_to_profile(&Term::tuple("profile", vec![Term::int(1), Term::int(2)])).is_err()
        );
    }

    /// Run TR1 (`reduce/2`) or TR2 (`tr2/2`) over the family on 4
    /// simulated servers.
    fn run_sim_msa(
        motif: motifs::Motif,
        entry: &str,
        seqs: &[Vec<u8>],
    ) -> (Profile, strand_machine::RunReport) {
        let program = motif.apply_src(ALIGN_EVAL).expect("motif applies");
        let guide = guide_tree(seqs, &ScoreParams::default());
        let goal = format!(
            "create(4, {entry}({}, Value))",
            guide_tree_src(&guide, seqs)
        );
        let lib = align_lib(ScoreParams::default(), 8);
        let r =
            run_parsed_goal_with_lib(&program, &goal, MachineConfig::with_nodes(4).seed(4), &lib)
                .expect("alignment runs");
        (term_to_profile(&r.bindings["Value"]).unwrap(), r.report)
    }

    #[test]
    fn full_msa_runs_inside_the_simulator() {
        let fam = generate_family(&FamilyParams {
            leaves: 8,
            ancestral_len: 60,
            seed: 21,
            ..Default::default()
        });
        let reference = crate::msa::align_family_seq(&fam.sequences, &ScoreParams::default());
        let (p1, r1) = run_sim_msa(motifs::tree_reduce_1(), "reduce", &fam.sequences);
        assert_eq!(p1, reference, "TR1 simulator alignment matches native");
        assert!(matches!(r1.status, RunStatus::Quiescent { .. }));
        let (p2, r2) = run_sim_msa(motifs::tree_reduce_2(), "tr2", &fam.sequences);
        assert_eq!(p2, reference, "TR2 simulator alignment matches native");
        assert_eq!(r2.status, RunStatus::Completed);
        // The native cost model shows up in the virtual clock.
        assert!(r1.metrics.makespan > 100);
    }
}
