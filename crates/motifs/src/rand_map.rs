//! The **Rand** and **Random** motifs (§3.3).
//!
//! `Rand` is a transformation-only motif supporting the `@random` pragma:
//!
//! 1. each call `P@random` becomes
//!    `nodes(N), rand_num(N, R), send(R, P)` — the process is shipped, as a
//!    message, to a randomly selected server;
//! 2. a `server/1` definition is synthesized with a dispatch rule per
//!    shipped process type (plus entry points passed to
//!    [`rand_map_with_entries`]) and a rule for the `halt` message.
//!
//! `Random = Server ∘ Rand` is the composed random process mapping motif.

use crate::motif::Motif;
use crate::server::server;
use std::collections::BTreeSet;
use strand_parse::{Annotation, Ast, Call, Program};
use transform::callgraph::Key;
use transform::rewrite::{replace_calls, synthesize_dispatch_rules};
use transform::TransformError;

/// The Rand transformation. `entries` are extra process types to
/// dispatch (the paper's *"rules for the process used to initiate
/// execution of the application"*): types that arrive as messages without
/// appearing under `@random` in the program.
fn rand_transform(entries: &[Key], program: &Program) -> Result<Program, TransformError> {
    // Collect the process types annotated @random.
    let mut types: BTreeSet<Key> = entries.iter().cloned().collect();
    for rule in program.rules() {
        for call in &rule.body {
            if call.annotation == Some(Annotation::Random) {
                if let Some((n, a)) = call.goal.functor() {
                    types.insert((n.to_string(), a));
                } else {
                    return Err(TransformError::new(
                        "Rand",
                        format!("@random on a non-callable term: {}", call.goal),
                    ));
                }
            }
        }
    }
    // An application that writes its own server/1 can still pass
    // through Rand (the stage is then the identity, which keeps
    // compositions like Supervise ∘ Server ∘ Rand applicable to both
    // styles) — but it cannot also ask Rand to synthesize one.
    if !types.is_empty() && program.get("server", 1).is_some() {
        return Err(TransformError::new(
            "Rand",
            "application already defines server/1; Rand synthesizes it",
        ));
    }
    // Step 1: replace P@random with nodes/rand_num/send.
    let mut out = replace_calls(program, &|call: &Call, fresh| {
        if call.annotation != Some(Annotation::Random) {
            return None;
        }
        let n = Ast::var(fresh.fresh("N"));
        let r = Ast::var(fresh.fresh("R"));
        Some(vec![
            Call::new(Ast::tuple("nodes", vec![n.clone()])),
            Call::new(Ast::tuple("rand_num", vec![n, r.clone()])),
            Call::new(Ast::tuple("send", vec![r, call.goal.clone()])),
        ])
    });
    // Step 2: synthesize server/1.
    let types: Vec<Key> = types.into_iter().collect();
    for rule in synthesize_dispatch_rules(&types) {
        out.push_rule(rule);
    }
    Ok(out)
}

/// The Rand motif: transformation only, empty library.
pub fn rand_map() -> Motif {
    rand_map_with_entries(&[])
}

/// Rand with extra dispatchable entry points.
pub fn rand_map_with_entries(entries: &[(&str, usize)]) -> Motif {
    let entries: Vec<Key> = entries.iter().map(|&(n, a)| (n.to_string(), a)).collect();
    Motif::transform_only("Rand", move |p| rand_transform(&entries, p))
}

/// The Random motif: `Server ∘ Rand` (§3.3).
pub fn random() -> Motif {
    server().compose(&rand_map())
}

/// Random with extra dispatchable entry points.
pub fn random_with_entries(entries: &[(&str, usize)]) -> Motif {
    server().compose(&rand_map_with_entries(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_machine::{run_parsed_goal, MachineConfig, RunStatus};
    use strand_parse::{parse_program, pretty};

    const APP: &str = r#"
        fib(N, V) :- N < 2 | V := N.
        fib(N, V) :- N >= 2 |
            N1 := N - 1, N2 := N - 2,
            fib(N1, V1)@random, fib(N2, V2),
            add(V1, V2, V).
        add(V1, V2, V) :- V := V1 + V2.
    "#;

    #[test]
    fn pragma_becomes_nodes_rand_send() {
        let out = rand_transform(&[], &parse_program(APP).unwrap()).unwrap();
        let s = pretty(&out);
        assert!(s.contains("nodes(N3)"), "{s}");
        assert!(s.contains("rand_num(N3, R)"), "{s}");
        assert!(s.contains("send(R, fib(N1, V1))"), "{s}");
        // Dispatch rules synthesized.
        assert!(s.contains("server([fib(V1, V2)|In]) :-"), "{s}");
        assert!(s.contains("server([halt|_])."), "{s}");
        // The non-annotated sibling call is untouched.
        assert!(s.contains("fib(N2, V2)"), "{s}");
    }

    #[test]
    fn output_feeds_the_server_motif() {
        // §3.3: "the code produced is in the form required by the Server
        // motif" — Random = Server ∘ Rand runs the program in parallel.
        let p = random().apply_src(APP).unwrap();
        let r = run_parsed_goal(
            &p,
            "create(4, fib(10, V))",
            MachineConfig::with_nodes(4).seed(11),
        )
        .unwrap();
        // Servers idle at the end (no termination detection in plain
        // Random; the paper notes this, §3.3 last paragraph).
        assert!(matches!(r.report.status, RunStatus::Quiescent { .. }));
        assert_eq!(r.bindings["V"].to_string(), "55");
        // Work actually spread across nodes.
        let busy_nodes = r
            .report
            .metrics
            .reductions
            .iter()
            .filter(|&&x| x > 1)
            .count();
        assert!(
            busy_nodes >= 2,
            "reductions: {:?}",
            r.report.metrics.reductions
        );
    }

    #[test]
    fn rejects_programs_that_define_server() {
        let src = "server([x|_]). f(X) :- g(X)@random. g(_).";
        let e = rand_transform(&[], &parse_program(src).unwrap()).unwrap_err();
        assert!(e.message.contains("server/1"));
    }

    #[test]
    fn extra_entries_get_dispatch_rules() {
        let src = "noop(_).";
        let entries = [("boot".to_string(), 2)];
        let out = rand_transform(&entries, &parse_program(src).unwrap()).unwrap();
        let s = pretty(&out);
        assert!(s.contains("server([boot(V1, V2)|In]) :-"), "{s}");
    }

    #[test]
    fn unannotated_programs_pass_through_with_halt_server() {
        let out = rand_transform(&[], &parse_program("f(1).").unwrap()).unwrap();
        let s = pretty(&out);
        assert!(s.contains("server([halt|_])."), "{s}");
        assert!(out.get("f", 1).is_some());
    }
}
