//! Error types shared by the language substrate.

use crate::store::VarId;
use crate::term::Term;
use std::fmt;

/// Errors raised by the language substrate and abstract machine.
///
/// The paper's semantics make one error explicit (§2.1): *"Attempts to
/// assign to a variable that has a value are signaled as run-time errors"*
/// — that is [`StrandError::DoubleAssign`]. The remaining variants cover
/// machine-level failures (no matching rule, arithmetic on non-numbers,
/// deadlock of the process pool).
#[derive(Debug, Clone, PartialEq)]
pub enum StrandError {
    /// A single-assignment variable was assigned twice.
    DoubleAssign {
        var: VarId,
        existing: Term,
        attempted: Term,
    },
    /// A process had all its data available but no rule matched.
    NoMatchingRule { goal: Term },
    /// A call to an undefined procedure.
    UndefinedProcedure { name: String, arity: usize },
    /// Arithmetic was attempted on a non-numeric or unbound term.
    ArithType { expr: Term },
    /// Division (or mod) by zero.
    DivideByZero { expr: Term },
    /// A float result that is infinite or NaN.
    NonFinite { expr: Term },
    /// The machine stopped with suspended processes that can never wake.
    Deadlock { suspended_goals: Vec<Term> },
    /// A builtin was called with arguments of the wrong shape.
    BadBuiltin { builtin: String, detail: String },
    /// Reduction budget exhausted (runaway program guard).
    BudgetExhausted { reductions: u64 },
    /// Parse or transformation error carried through to the caller.
    Other(String),
}

/// Convenient result alias used across the workspace.
pub type StrandResult<T> = Result<T, StrandError>;

impl fmt::Display for StrandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrandError::DoubleAssign {
                var,
                existing,
                attempted,
            } => write!(
                f,
                "double assignment to _{}: already {existing}, attempted {attempted}",
                var.0
            ),
            StrandError::NoMatchingRule { goal } => {
                write!(f, "no matching rule for goal {goal}")
            }
            StrandError::UndefinedProcedure { name, arity } => {
                write!(f, "undefined procedure {name}/{arity}")
            }
            StrandError::ArithType { expr } => {
                write!(f, "arithmetic on non-numeric term {expr}")
            }
            StrandError::DivideByZero { expr } => write!(f, "division by zero in {expr}"),
            StrandError::NonFinite { expr } => write!(f, "non-finite result of {expr}"),
            StrandError::Deadlock { suspended_goals } => write!(
                f,
                "deadlock: {} process(es) suspended forever (first: {})",
                suspended_goals.len(),
                suspended_goals
                    .first()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "<none>".into())
            ),
            StrandError::BadBuiltin { builtin, detail } => {
                write!(f, "builtin {builtin}: {detail}")
            }
            StrandError::BudgetExhausted { reductions } => {
                write!(
                    f,
                    "reduction budget exhausted after {reductions} reductions"
                )
            }
            StrandError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for StrandError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StrandError::UndefinedProcedure {
            name: "reduce".into(),
            arity: 2,
        };
        assert_eq!(e.to_string(), "undefined procedure reduce/2");

        let e = StrandError::DoubleAssign {
            var: VarId(3),
            existing: Term::int(1),
            attempted: Term::int(2),
        };
        assert!(e.to_string().contains("double assignment"));
        assert!(e.to_string().contains("_3"));
    }

    #[test]
    fn deadlock_reports_first_goal() {
        let e = StrandError::Deadlock {
            suspended_goals: vec![Term::atom("halt"), Term::int(0)],
        };
        let s = e.to_string();
        assert!(s.contains("2 process(es)"));
        assert!(s.contains("halt"));
    }
}
