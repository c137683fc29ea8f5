//! The `Motif` abstraction: `M = {T, L}` with `M(A) = T(A) ∪ L` (§2.2).

use std::sync::Arc;
use strand_parse::{parse_program, Program};
use transform::TransformError;

/// A motif's transformation `T`: a function from programs to programs.
type Transform = dyn Fn(&Program) -> Result<Program, TransformError> + Send + Sync;

/// An algorithmic motif: a source-to-source transformation paired with a
/// library program.
///
/// The transformation `T` is a function from programs to programs.
/// Application is the paper's two-stage process: *"First, the
/// transformation is applied, yielding a modified application program.
/// Second, the library code is linked with the modified application"* —
/// `M(A) = T(A) ∪ L`.
///
/// Motifs compose: `M2.compose(M1)` is `M2 ∘ M1` with
/// `M(A) = T2(T1(A) ∪ L1) ∪ L2`.
#[derive(Clone)]
pub struct Motif {
    name: String,
    transformation: Arc<Transform>,
    library: Program,
}

impl Motif {
    /// Build a motif from a transformation and a library program.
    pub fn new(
        name: impl Into<String>,
        transformation: impl Fn(&Program) -> Result<Program, TransformError> + Send + Sync + 'static,
        library: Program,
    ) -> Motif {
        Motif {
            name: name.into(),
            transformation: Arc::new(transformation),
            library,
        }
    }

    /// A library-only motif (identity transformation), like the paper's
    /// `Tree1` (§3.4).
    pub fn library_only(name: impl Into<String>, library_src: &str) -> Motif {
        let library = parse_program(library_src)
            .unwrap_or_else(|e| panic!("motif library source does not parse: {e}"));
        Motif::new(name, |p| Ok(p.clone()), library)
    }

    /// A transformation-only motif (empty library), like the paper's
    /// `Rand` (§3.3).
    pub fn transform_only(
        name: impl Into<String>,
        transformation: impl Fn(&Program) -> Result<Program, TransformError> + Send + Sync + 'static,
    ) -> Motif {
        Motif::new(name, transformation, Program::new())
    }

    /// The motif's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rules in the library (the paper's informal code-size
    /// measure, experiment E5).
    pub fn library_rules(&self) -> usize {
        self.library.rule_count()
    }

    /// Apply the motif to an application program: `T(A) ∪ L`.
    pub fn apply(&self, application: &Program) -> Result<Program, TransformError> {
        Ok((self.transformation)(application)?.union(&self.library))
    }

    /// Apply to application source text.
    pub fn apply_src(&self, application_src: &str) -> Result<Program, TransformError> {
        let app = parse_program(application_src)
            .map_err(|e| TransformError::new(self.name.clone(), e.to_string()))?;
        self.apply(&app)
    }

    /// Compose: `self ∘ inner`, i.e. apply `inner` first.
    ///
    /// The result is again a motif `{T, L}` with `T = A ↦ T_self(inner(A))`
    /// and `L = L_self`, so composition chains associatively exactly as in
    /// the paper's `Tree-Reduce-1 = Server ∘ Rand ∘ Tree1`.
    pub fn compose(&self, inner: &Motif) -> Motif {
        let inner = inner.clone();
        let outer = Arc::clone(&self.transformation);
        Motif::new(
            format!("{} o {}", self.name, inner.name),
            move |a| outer(&inner.apply(a)?),
            self.library.clone(),
        )
    }
}

impl std::fmt::Debug for Motif {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Motif({}, {} library rules)",
            self.name,
            self.library.rule_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strand_parse::pretty;

    #[test]
    fn library_only_motif_links_library() {
        let m = Motif::library_only("lib", "helper(X, Y) :- Y := X + 1.");
        let out = m.apply_src("go(V) :- helper(1, V).").unwrap();
        assert!(out.get("go", 1).is_some());
        assert!(out.get("helper", 2).is_some());
        assert_eq!(m.library_rules(), 1);
    }

    #[test]
    fn apply_is_t_then_union() {
        // A transformation that renames f→g, plus a library defining h.
        let t = |p: &Program| {
            let mut out = Program::new();
            for r in p.rules() {
                let mut r = r.clone();
                if let strand_parse::Ast::Tuple(n, _) = &mut r.head {
                    if n == "f" {
                        *n = "g".into();
                    }
                }
                out.push_rule(r);
            }
            Ok(out)
        };
        let lib = parse_program("h(1).").unwrap();
        let m = Motif::new("m", t, lib);
        let out = m.apply_src("f(X).").unwrap();
        assert!(out.get("g", 1).is_some());
        assert!(out.get("f", 1).is_none());
        assert!(out.get("h", 1).is_some());
    }

    #[test]
    fn composition_matches_paper_equation() {
        // M2 ∘ M1 (A) must equal T2(T1(A) ∪ L1) ∪ L2.
        let m1 = Motif::library_only("m1", "one(1).");
        let m2 = Motif::library_only("m2", "two(2).");
        let composed = m2.compose(&m1);
        let a = parse_program("app(X).").unwrap();
        let lhs = composed.apply(&a).unwrap();
        let rhs = m2.apply(&m1.apply(&a).unwrap()).unwrap();
        assert_eq!(pretty(&lhs), pretty(&rhs));
        assert_eq!(composed.name(), "m2 o m1");
    }
}
