//! # transform
//!
//! The source-to-source transformation framework of the paper (§2.2):
//! *"Programs are represented as structured terms and transformations as
//! programs that manipulate these terms."* Here programs are
//! [`strand_parse::Program`] values and transformations are Rust values
//! implementing [`Transformation`]. Composing transformations is function
//! composition; `motifs::Motif::compose` builds the paper's
//! `M = M2 ∘ M1` from it.
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

pub mod callgraph;
pub mod rewrite;

use std::fmt;
use strand_parse::Program;

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

/// A source-to-source transformation over motif-language programs.
pub trait Transformation: Send + Sync {
    /// Human-readable name (used in errors and the experiment inventory).
    fn name(&self) -> &str;

    /// Apply the transformation, producing a new program.
    fn apply(&self, program: &Program) -> Result<Program, TransformError>;
}

/// The identity transformation (used by library-only motifs such as the
/// paper's `Tree1`, §3.4).
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl Transformation for Identity {
    fn name(&self) -> &str {
        "identity"
    }

    fn apply(&self, program: &Program) -> Result<Program, TransformError> {
        Ok(program.clone())
    }
}

/// The boxed function type behind [`FnTransform`].
pub type TransformFn = Box<dyn Fn(&Program) -> Result<Program, TransformError> + Send + Sync>;

/// A transformation built from a plain function.
pub struct FnTransform {
    name: String,
    f: TransformFn,
}

impl FnTransform {
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Program) -> Result<Program, TransformError> + Send + Sync + 'static,
    ) -> Self {
        FnTransform {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Transformation for FnTransform {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&self, program: &Program) -> Result<Program, TransformError> {
        (self.f)(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_parse::parse_program;

    #[test]
    fn identity_round_trips() {
        let p = parse_program("f(X) :- g(X). g(1).").unwrap();
        assert_eq!(Identity.apply(&p).unwrap(), p);
    }

    #[test]
    fn errors_carry_transformation_name() {
        let t = FnTransform::new("failing", |_| Err(TransformError::new("failing", "nope")));
        let p = Program::new();
        let e = t.apply(&p).unwrap_err();
        assert_eq!(e.to_string(), "transformation failing: nope");
    }
}
