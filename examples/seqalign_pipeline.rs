//! The paper's application end to end (§3): generate a family of related
//! RNA sequences, build the phylogenetic guide tree, and produce the
//! multiple alignment by tree reduction — sequentially, then as a motif
//! program under both of the paper's tree-reduction strategies on a
//! 4-thread fleet, with the native aligner as the node evaluation.
//!
//! ```sh
//! cargo run --example seqalign_pipeline
//! ```

use algorithmic_motifs::motifs::{tree_reduce_1, tree_reduce_2};
use algorithmic_motifs::seqalign::{
    align_family_seq, align_lib, generate_family, guide_tree, guide_tree_src, term_to_profile,
    FamilyParams, ScoreParams, ALIGN_EVAL,
};
use algorithmic_motifs::strand_machine::{run_parsed_goal_with_lib, MachineConfig};

fn main() {
    // 1. Generate 16 related RNA sequences (the 1990 lab data substitute).
    let fam = generate_family(&FamilyParams {
        leaves: 16,
        ancestral_len: 120,
        seed: 2026,
        ..Default::default()
    });
    println!(
        "family of {} sequences, lengths {:?}",
        fam.sequences.len(),
        fam.sequences.iter().map(Vec::len).collect::<Vec<_>>()
    );

    // 2. Build the guide tree ("philogenetic tree" in the paper's words).
    let params = ScoreParams::default();
    let guide = guide_tree(&fam.sequences, &params);
    println!(
        "guide tree leaves (clustered order): {:?}",
        guide.leaf_ids()
    );

    // 3. Reduce the tree with the align-node operator — sequentially …
    let reference = align_family_seq(&fam.sequences, &params);
    println!(
        "\nsequential alignment: {} columns, {:.1}% column identity",
        reference.len(),
        reference.column_identity() * 100.0
    );

    // … and as a motif program on 4 nodes and 4 worker threads, under both
    // tree-reduction strategies (§3.6: same interface, different
    // algorithms). The motif language coordinates; `align_node/3` runs
    // natively — the paper's "Strand and C".
    let tree = guide_tree_src(&guide, &fam.sequences);
    let lib = align_lib(params, 8);
    for (name, motif, entry, crossing) in [
        ("Tree-Reduce-1", tree_reduce_1(), "reduce", "reduce"),
        ("Tree-Reduce-2", tree_reduce_2(), "tr2", "value"),
    ] {
        let program = motif.apply_src(ALIGN_EVAL).expect("motif applies");
        let goal = format!("create(4, {entry}({tree}, Value))");
        let cfg = MachineConfig::with_nodes(4).seed(7).parallel(4);
        let r = run_parsed_goal_with_lib(&program, &goal, cfg, &lib).expect("alignment runs");
        let profile = term_to_profile(&r.bindings["Value"]).expect("a profile");
        assert_eq!(profile, reference, "the fleet must align as the fold does");
        let m = &r.report.metrics;
        println!(
            "{name}: identical alignment; {} `{crossing}` messages crossed nodes, \
             reductions per worker {:?}",
            m.port_msgs_for(crossing),
            m.worker_jobs
        );
    }
}
