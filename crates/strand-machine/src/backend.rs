//! Execution backends: pluggable engines that run a compiled motif program.
//!
//! The paper's machine model (§2.1) is independent of how reductions are
//! scheduled; this crate ships the deterministic discrete-event simulator,
//! and crate `strand-parallel` adds a real multi-threaded engine. Callers
//! pick one through [`MachineConfig::backend`](crate::config::Backend) — the
//! program, goal, and foreign code are identical either way, which is what
//! makes the conformance harness (`tests/conformance.rs`) possible.
//!
//! To avoid a dependency cycle (`strand-parallel` depends on this crate),
//! the parallel engine registers itself at runtime via
//! [`register_parallel_backend`]; `strand_parallel::install()` does that.

use crate::config::{Backend, MachineConfig};
use crate::foreign::ForeignLib;
use crate::{ast_to_term, GoalResult, Machine};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use strand_core::{StrandError, StrandResult};
use strand_parse::{compile_program, parse_term, Program};

/// An engine that can run a goal against a parsed program.
pub trait ExecBackend: Send + Sync {
    /// Short engine name (`"deterministic"`, `"parallel"`).
    fn name(&self) -> &'static str;

    /// Compile `program`, run `goal_src` under `config` with `lib`
    /// installed, and return the report plus resolved goal bindings.
    fn run_program(
        &self,
        program: &Program,
        goal_src: &str,
        config: MachineConfig,
        lib: &ForeignLib,
    ) -> StrandResult<GoalResult>;
}

/// The discrete-event reference engine ([`Machine::run`]).
pub struct DeterministicBackend;

impl ExecBackend for DeterministicBackend {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn run_program(
        &self,
        program: &Program,
        goal_src: &str,
        config: MachineConfig,
        lib: &ForeignLib,
    ) -> StrandResult<GoalResult> {
        let goal_ast = parse_term(goal_src).map_err(|e| StrandError::Other(e.to_string()))?;
        let compiled = compile_program(program).map_err(|e| StrandError::Other(e.to_string()))?;
        let mut machine = Machine::new(compiled, config);
        machine.install_lib(lib);
        let mut vars = BTreeMap::new();
        let goal = ast_to_term(&goal_ast, &mut machine, &mut vars);
        machine.start(goal);
        let report = machine.run()?;
        let bindings = vars
            .into_iter()
            .map(|(name, term)| (name, machine.store().resolve(&term)))
            .collect();
        Ok(GoalResult { report, bindings })
    }
}

static PARALLEL_BACKEND: OnceLock<Box<dyn ExecBackend>> = OnceLock::new();

/// Register the engine used for [`Backend::Parallel`] configs. Idempotent:
/// later registrations are ignored. Called by `strand_parallel::install()`.
pub fn register_parallel_backend(backend: Box<dyn ExecBackend>) {
    let _ = PARALLEL_BACKEND.set(backend);
}

/// Resolve the engine a config asks for.
pub fn backend_for(config: &MachineConfig) -> StrandResult<&'static dyn ExecBackend> {
    match config.backend {
        Backend::Deterministic => {
            static DETERMINISTIC: DeterministicBackend = DeterministicBackend;
            Ok(&DETERMINISTIC)
        }
        Backend::Parallel { .. } => PARALLEL_BACKEND.get().map(|b| b.as_ref()).ok_or_else(|| {
            StrandError::Other(
                "parallel backend not registered: call strand_parallel::install() first"
                    .to_string(),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_backend_runs_goals() {
        let program = strand_parse::parse_program("double(X, Y) :- Y := X * 2.").unwrap();
        let r = DeterministicBackend
            .run_program(
                &program,
                "double(21, V)",
                MachineConfig::default(),
                &ForeignLib::new(),
            )
            .unwrap();
        assert_eq!(r.bindings["V"].to_string(), "42");
    }

    #[test]
    fn unregistered_parallel_backend_is_a_clear_error() {
        // The registry is process-global, so this test only asserts the
        // error shape when nothing has installed a parallel engine yet; if
        // another test registered one, resolution succeeding is also fine.
        let config = MachineConfig::default().parallel(2);
        match backend_for(&config) {
            Ok(b) => assert_eq!(b.name(), "parallel"),
            Err(e) => assert!(e.to_string().contains("install"), "{e}"),
        }
    }
}
