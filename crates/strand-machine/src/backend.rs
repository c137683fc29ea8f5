//! The hook through which a second engine runs a compiled motif program.
//!
//! The paper's machine model (§2.1) is independent of how reductions are
//! scheduled; this crate ships the deterministic discrete-event simulator,
//! and crate `strand-parallel` adds a real multi-threaded engine. Callers
//! pick one through [`MachineConfig::backend`](crate::config::Backend) — the
//! program, goal, and foreign code are identical either way, which is what
//! makes the conformance harness (`tests/conformance.rs`) possible.
//!
//! [`run_parsed_goal_with_lib`](crate::run_parsed_goal_with_lib) runs the
//! simulator itself. To avoid a dependency cycle (`strand-parallel` depends
//! on this crate), the parallel engine hands in its entry point at runtime
//! via [`register_parallel_backend`]; `strand_parallel::install()` does that.

use crate::config::MachineConfig;
use crate::foreign::ForeignLib;
use crate::GoalResult;
use std::sync::OnceLock;
use strand_core::{StrandError, StrandResult};
use strand_parse::Program;

type RunFn = fn(&Program, &str, MachineConfig, &ForeignLib) -> StrandResult<GoalResult>;

static PARALLEL: OnceLock<RunFn> = OnceLock::new();

/// Register the function that runs [`Backend::Parallel`](crate::Backend)
/// configs: compile `program`, run the goal under the config with the
/// library installed, and return the report plus resolved goal bindings.
/// Idempotent: later registrations are ignored. Called by
/// `strand_parallel::install()`.
pub fn register_parallel_backend(
    run: fn(&Program, &str, MachineConfig, &ForeignLib) -> StrandResult<GoalResult>,
) {
    let _ = PARALLEL.set(run);
}

/// Run a goal on the registered parallel engine.
pub(crate) fn run_parallel(
    program: &Program,
    goal_src: &str,
    config: MachineConfig,
    lib: &ForeignLib,
) -> StrandResult<GoalResult> {
    let run = PARALLEL.get().ok_or_else(|| {
        StrandError::Other(
            "parallel backend not registered: call strand_parallel::install() first".to_string(),
        )
    })?;
    run(program, goal_src, config, lib)
}

#[cfg(test)]
mod tests {
    use crate::{run_goal, MachineConfig};

    #[test]
    fn unregistered_parallel_backend_is_a_clear_error() {
        // This crate never links `strand-parallel`, so nothing in this test
        // binary can have registered a parallel engine.
        let config = MachineConfig::default().parallel(2);
        let err = run_goal("go.", "go", config).unwrap_err();
        assert!(
            err.to_string()
                .contains("call strand_parallel::install() first"),
            "{err}"
        );
    }
}
