//! # strand-parse
//!
//! Surface syntax for the motif language: lexer, parser, pretty-printer and
//! the compiler from the *surface AST* (named variables, the form that
//! source-to-source transformations manipulate) down to the `strand-core`
//! pattern form executed by the abstract machine.
//!
//! The syntax follows the paper (§2.1):
//!
//! ```text
//! % a guarded rule
//! producer(N, Xs, Sync) :- N > 0 |
//!     Xs := [X|Xs1], N1 := N - 1, producer(N1, Xs1, X).
//! producer(0, Xs, _) :- Xs := [].
//! ```
//!
//! * `Head :- Guards | Body.` — guards optional (`Head :- Body.`), body
//!   optional (`Head.`).
//! * Variables start with an uppercase letter or `_`; `_` alone is the
//!   anonymous wildcard.
//! * `X := E` is assignment: arithmetic when `E` is an arithmetic
//!   expression, data otherwise (the paper uses it for both). `X = T` is
//!   always data assignment.
//! * A body call may carry a placement annotation `Goal@Expr` (the paper's
//!   low-level placement feature) or the pragma `Goal@random`, which only
//!   becomes executable after the `Rand` motif transformation.
//! * `%` starts a comment.
//!
//! Programs are ordinary data ([`Program`]), so transformations are plain
//! Rust functions over them — the programs-as-terms architecture of §2.2.
//!
//! Reading is one pass. The parser pulls tokens from a streaming lexer,
//! one token ahead: a token borrows its identifier from the source text
//! and a number is parsed in place, so a goal of any size builds no token
//! array and allocates nothing for a token. A program's [`Ast`] keeps owned
//! names (transformations rename and rebuild them). A term read by
//! [`parse_term`] is data for the store: its variable-free subterms are
//! built as runtime terms as they are read, each distinct name interned
//! once per parse ([`Ast::Ground`]); [`parse_ground`] does the same for
//! untrusted text, and [`term_text`] writes a term back so that it reads
//! back the same. Errors
//! carry the line and column where they occur, and when the text has more
//! than one, the first in the text is reported.

#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod printer;

pub use ast::{Annotation, Ast, Call, Procedure, Program, Rule};
pub use compile::{compile_program, CompiledCall, CompiledProc, CompiledProgram, CompiledRule};
pub use lint::{lint, Lint, LintKind, MACHINE_BUILTINS, MOTIF_PRIMITIVES};
pub use parser::{parse_ground, parse_program, parse_term, GroundError, ParseError};
pub use printer::{pretty, term_text};
