//! # transform
//!
//! The source-to-source transformation framework of the paper (§2.2):
//! *"Programs are represented as structured terms and transformations as
//! programs that manipulate these terms."* Here programs are
//! [`strand_parse::Program`] values, and a transformation is a function:
//! any `Fn(&Program) -> Result<Program, TransformError>`. Composing
//! transformations is function composition; `motifs::Motif::compose`
//! builds the paper's `M = M2 ∘ M1` from it.
//!
//! The crate also provides the analyses and rewrites that real motif
//! transformations are made of:
//!
//! * [`callgraph`] — who calls whom, and which procedures can reach a given
//!   primitive (needed by the Server transformation's step 1: thread the
//!   stream tuple `DT` through *"the process definitions of these
//!   processes' ancestors in the call graph"*);
//! * [`rewrite`] — argument threading, call replacement, fresh-variable
//!   generation, and rule synthesis.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod rewrite;

use std::fmt;

/// Error raised by a transformation.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformError {
    pub transformation: String,
    pub message: String,
}

impl TransformError {
    pub fn new(transformation: impl Into<String>, message: impl Into<String>) -> Self {
        TransformError {
            transformation: transformation.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transformation {}: {}",
            self.transformation, self.message
        )
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_transformation_name() {
        let e = TransformError::new("failing", "nope");
        assert_eq!(e.to_string(), "transformation failing: nope");
    }
}
