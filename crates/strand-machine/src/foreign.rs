//! Foreign (native Rust) procedures — the paper's multilingual approach.
//!
//! §2.1: *"we assume a multilingual approach to parallel programming, in
//! which low level, computationally-intensive components of applications
//! are implemented in low level languages. The high level language is used
//! primarily to construct parallel programs from these sequential
//! components."* In 1990 the sequential components were C; here they are
//! Rust closures registered on the machine.
//!
//! A foreign procedure `name/n` is called like any goal
//! `name(In1, …, In(n-1), Out)`: the machine waits (dataflow suspension)
//! until every input argument is ground, invokes the closure with the
//! resolved inputs, binds `Out` to the returned term, and advances the
//! executing node's clock by the returned virtual cost — so an expensive
//! native computation occupies its simulated processor for a realistic
//! time.
//!
//! Native code has one way in: a [`ForeignLib`] of pure closures, installed
//! with [`Machine::install_lib`] or passed to
//! [`crate::run_parsed_goal_with_lib`]. A pure closure holds no state, so
//! the multi-threaded backend installs the same library on every shard and
//! each worker calls it inline, overlapping native computation on one
//! worker with coordination on the others.
//!
//! A **sink** ([`ForeignLib::register_sink`]) is the variant for native
//! code that consumes a result instead of producing one — handing a reply
//! to a socket thread, say. All `n` arguments of `name(In1, …, Inn)` are
//! inputs; the closure runs once they are ground, returns only its cost,
//! and the machine binds nothing afterwards. The last store access of the
//! call is therefore the input resolve that *precedes* the closure: code
//! the closure wakes may free the call's variables without racing a late
//! output bind (`strand-serve`'s reply probe depends on exactly that).

use crate::machine::{CallOutcome, Machine};
use std::sync::Arc;
use strand_core::{Atom, FxHashMap, StrandResult, Term, Time, VarId};

/// A *pure* foreign implementation: resolved ground inputs → (result,
/// virtual cost in ticks). It has no interior state and is callable from
/// any thread.
type PureForeign = dyn Fn(&[Term]) -> StrandResult<(Term, Time)> + Send + Sync;

/// A sink implementation: resolved ground inputs → virtual cost in ticks.
type SinkForeign = dyn Fn(&[Term]) -> StrandResult<Time> + Send + Sync;

/// One registered procedure, shared by every machine its library is
/// installed on.
#[derive(Clone)]
enum Entry {
    Pure(Arc<PureForeign>),
    Sink(Arc<SinkForeign>),
}

/// A portable library of pure foreign procedures and sinks. A library is
/// `Clone` and can be installed on any machine — this is how foreign code
/// travels through [`crate::run_parsed_goal_with_lib`] to whichever engine
/// runs it.
#[derive(Clone, Default)]
pub struct ForeignLib {
    entries: Vec<(String, usize, Entry)>,
}

impl ForeignLib {
    pub fn new() -> ForeignLib {
        ForeignLib::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register `name/arity` (arity includes the output argument).
    pub fn register(
        &mut self,
        name: &str,
        arity: usize,
        f: impl Fn(&[Term]) -> StrandResult<(Term, Time)> + Send + Sync + 'static,
    ) {
        assert!(arity >= 1, "foreign procedures need an output argument");
        self.entries
            .push((name.to_string(), arity, Entry::Pure(Arc::new(f))));
    }

    /// Register the sink `name/arity`: every argument is a ground input and
    /// nothing is bound after `f` returns its cost.
    pub fn register_sink(
        &mut self,
        name: &str,
        arity: usize,
        f: impl Fn(&[Term]) -> StrandResult<Time> + Send + Sync + 'static,
    ) {
        self.entries
            .push((name.to_string(), arity, Entry::Sink(Arc::new(f))));
    }
}

/// Registry of foreign procedures: one map from name to the arities
/// registered under it (arity counts the output argument, if any), probed
/// with the goal's own functor symbol — one `u32` hash per reduction.
#[derive(Default)]
pub struct ForeignRegistry {
    procs: FxHashMap<Atom, Vec<(usize, Entry)>>,
}

impl ForeignRegistry {
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Register `name/arity`, replacing an earlier registration of it.
    fn insert(&mut self, name: &str, arity: usize, entry: Entry) {
        let arities = self.procs.entry(Atom::new(name)).or_default();
        match arities.iter_mut().find(|(a, _)| *a == arity) {
            Some(slot) => slot.1 = entry,
            None => arities.push((arity, entry)),
        }
    }
}

impl Machine {
    /// Install every procedure of a [`ForeignLib`] on this machine.
    pub fn install_lib(&mut self, lib: &ForeignLib) {
        for (name, arity, entry) in &lib.entries {
            self.foreign.insert(name, *arity, entry.clone());
        }
    }

    /// Attempt to run a foreign call. Returns `None` when `name/n` is not
    /// a foreign procedure; otherwise the outcome (done, suspended on the
    /// unbound inputs, or a collected error) or a machine-fatal error.
    pub(crate) fn try_foreign(
        &mut self,
        name: Atom,
        goal: &Term,
    ) -> Option<StrandResult<CallOutcome>> {
        let args = goal.goal_args();
        let n = args.len();
        let entry = self
            .foreign
            .procs
            .get(&name)?
            .iter()
            .find(|(arity, _)| *arity == n)
            .map(|(_, entry)| entry)?;
        // A sink reads every argument; the others keep the last for output.
        let n_in = if matches!(entry, Entry::Sink(_)) {
            n
        } else {
            n - 1
        };
        let mut inputs = Vec::with_capacity(n_in);
        let mut pending: Vec<VarId> = Vec::new();
        for a in &args[..n_in] {
            let resolved = self.store.resolve(a);
            for v in resolved.vars() {
                if !pending.contains(&v) {
                    pending.push(v);
                }
            }
            inputs.push(resolved);
        }
        if !pending.is_empty() {
            return Some(Ok(CallOutcome::Suspend(pending)));
        }
        let result = match entry {
            Entry::Pure(f) => f(&inputs),
            Entry::Sink(f) => {
                return Some(Ok(match f(&inputs) {
                    Ok(cost) => {
                        self.extra_cost += cost;
                        CallOutcome::Done
                    }
                    Err(e) => CallOutcome::Error(e),
                }))
            }
        };
        Some(self.finish_foreign_call(name, n, result, args[n - 1].clone()))
    }

    /// Turn a foreign closure's result into an outcome: charge the virtual
    /// cost and bind the output argument.
    pub(crate) fn finish_foreign_call(
        &mut self,
        name: Atom,
        arity: usize,
        result: StrandResult<(Term, Time)>,
        out_arg: Term,
    ) -> StrandResult<CallOutcome> {
        match result {
            Ok((value, cost)) => {
                self.extra_cost += cost;
                match self.store.deref(&out_arg) {
                    Term::Var(v) => match self.bind_now(v, value) {
                        Ok(()) => Ok(CallOutcome::Done),
                        Err(e) => Err(e),
                    },
                    other => Ok(CallOutcome::Error(strand_core::StrandError::BadBuiltin {
                        builtin: format!("{name}/{arity}"),
                        detail: format!("output argument already bound: {other}"),
                    })),
                }
            }
            Err(e) => Ok(CallOutcome::Error(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use strand_parse::{compile_program, parse_program};

    fn run_with(src: &str, goal: &str, lib: &ForeignLib) -> crate::GoalResult {
        let program = parse_program(src).unwrap();
        crate::run_parsed_goal_with_lib(&program, goal, MachineConfig::default(), lib).unwrap()
    }

    /// A library holding the single pure procedure `name/arity`.
    fn lib_of(
        name: &str,
        arity: usize,
        f: impl Fn(&[Term]) -> StrandResult<(Term, Time)> + Send + Sync + 'static,
    ) -> ForeignLib {
        let mut lib = ForeignLib::new();
        lib.register(name, arity, f);
        lib
    }

    #[test]
    fn foreign_function_computes_and_charges_cost() {
        let src = "go(X, Y) :- square(7, X), square(X, Y).";
        let lib = lib_of("square", 2, |args| {
            let v = match &args[0] {
                Term::Int(i) => *i,
                other => panic!("bad input {other}"),
            };
            Ok((Term::int(v * v), 500))
        });
        let r = run_with(src, "go(X, Y)", &lib);
        assert_eq!(r.bindings["X"].to_string(), "49");
        assert_eq!(r.bindings["Y"].to_string(), "2401");
        // Two calls at 500 ticks each.
        assert!(r.report.metrics.makespan >= 1000);
    }

    #[test]
    fn foreign_call_waits_for_ground_inputs() {
        let src = r#"
            go(Y) :- square(X, Y), later(X).
            later(X) :- X := 6.
        "#;
        let lib = lib_of("square", 2, |args| match &args[0] {
            Term::Int(i) => Ok((Term::int(i * i), 1)),
            other => panic!("called with non-ground input {other}"),
        });
        let r = run_with(src, "go(Y)", &lib);
        assert_eq!(r.bindings["Y"].to_string(), "36");
        assert!(r.report.metrics.suspensions >= 1);
    }

    #[test]
    fn foreign_handles_structured_terms() {
        let src = "go(N) :- sum_list([1, 2, 3, 4], N).";
        let lib = lib_of("sum_list", 2, |args| {
            let items = args[0].as_proper_list().expect("ground list");
            let mut sum = 0i64;
            for t in items {
                if let Term::Int(i) = t {
                    sum += i;
                }
            }
            Ok((Term::int(sum), items_cost(&args[0])))
        });
        let r = run_with(src, "go(N)", &lib);
        assert_eq!(r.bindings["N"].to_string(), "10");

        fn items_cost(t: &Term) -> u64 {
            t.as_proper_list().map(|v| v.len() as u64).unwrap_or(1)
        }
    }

    #[test]
    fn user_rules_shadow_nothing_foreign_wins() {
        // Foreign procedures take precedence over same-named rules, like
        // builtins do; the program's `square/2` rule is never used.
        let src = "square(_, Y) :- Y := wrong. go(Y) :- square(3, Y).";
        let lib = lib_of("square", 2, |args| match &args[0] {
            Term::Int(i) => Ok((Term::int(i * i), 1)),
            _ => unreachable!(),
        });
        let r = run_with(src, "go(Y)", &lib);
        assert_eq!(r.bindings["Y"].to_string(), "9");
    }

    /// `note/2` is a sink that records each call's inputs.
    fn note_lib(seen: &Arc<std::sync::Mutex<Vec<String>>>) -> ForeignLib {
        let seen = Arc::clone(seen);
        let mut lib = ForeignLib::new();
        lib.register_sink("note", 2, move |args| {
            if args[0] == Term::atom("poison") {
                return Err(strand_core::StrandError::Other("sink failure".into()));
            }
            seen.lock()
                .unwrap()
                .push(format!("{} {}", args[0], args[1]));
            Ok(500)
        });
        lib
    }

    #[test]
    fn sink_waits_for_every_argument_binds_nothing_and_charges_cost() {
        // `note/2` precedes both producers, so it suspends first on X (and
        // Y), then again on whichever is still unbound.
        let src = "go :- note(X, Y), one(X), other(Y). one(X) :- X := 6. other(Y) :- Y := 7.";
        let compiled = compile_program(&parse_program(src).unwrap()).unwrap();
        let mut machine = Machine::new(compiled, MachineConfig::default());
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        machine.install_lib(&note_lib(&seen));
        machine.start(Term::atom("go"));
        let report = machine.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), ["6 7"], "ran once, on ground inputs");
        assert!(report.metrics.suspensions >= 1, "{:?}", report.metrics);
        // The only binds of the run are the two producers': a regular
        // foreign procedure would have added a third for its out-arg.
        assert_eq!(machine.store().bind_count(), 2);
        assert!(report.metrics.makespan >= 500, "{:?}", report.metrics);
    }

    #[test]
    fn sink_error_is_collected_when_fail_fast_is_off() {
        let src = "go :- note(poison, 1), note(fine, 2).";
        let compiled = compile_program(&parse_program(src).unwrap()).unwrap();
        let config = MachineConfig {
            fail_fast: false,
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(compiled, config);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        machine.install_lib(&note_lib(&seen));
        machine.start(Term::atom("go"));
        let report = machine.run().unwrap();
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(report.errors[0].1.to_string().contains("sink failure"));
        assert_eq!(*seen.lock().unwrap(), ["fine 2"]);
    }

    #[test]
    fn foreign_error_reported() {
        let program = parse_program("go(Y) :- fail_op(1, Y).").unwrap();
        let lib = lib_of("fail_op", 2, |_| {
            Err(strand_core::StrandError::Other("native failure".into()))
        });
        let err =
            crate::run_parsed_goal_with_lib(&program, "go(Y)", MachineConfig::default(), &lib)
                .expect_err("the foreign error is fatal");
        assert!(err.to_string().contains("native failure"));
    }
}
