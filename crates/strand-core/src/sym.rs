//! Well-known symbols: the names the engine itself dispatches on.
//!
//! Each is interned at a fixed id at compile time, so `reduce`, the builtin
//! table, arithmetic and guard evaluation compare an [`Atom`] against a
//! constant (`match name { sym::ASSIGN => … }` is an integer switch) and no
//! reduction interns a literal, hashes a name's bytes or compares strings.
//! A name belongs here when engine code outside `#[cfg(test)]` would
//! otherwise spell it as a string literal.

use crate::atom::Atom;

macro_rules! symbols {
    ($($ident:ident = $name:literal,)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u32)]
        enum Id { $($ident,)* }

        $(
            #[doc = concat!("`", $name, "`")]
            pub const $ident: Atom = Atom::from_id(Id::$ident as u32);
        )*

        /// The names above, indexed by id: the symbol table's first entries.
        pub(crate) const NAMES: &[&str] = &[$($name,)*];
    };
}

symbols! {
    // Assignment and the values builtins bind.
    ASSIGN = ":=",
    UNIFY = "=",
    TRUE = "true",
    OK = "ok",
    YES = "yes",
    NO = "no",
    TIMEOUT = "timeout",
    DT = "dt",
    ELIDED = "…",
    // Arithmetic operators.
    PLUS = "+",
    MINUS = "-",
    TIMES = "*",
    DIVIDE = "/",
    MOD = "mod",
    MIN = "min",
    MAX = "max",
    ABS = "abs",
    // Guard tests.
    LT = "<",
    GT = ">",
    LE = "=<",
    GE = ">=",
    EQ = "==",
    NEQ = "=\\=",
    INTEGER = "integer",
    FLOAT = "float",
    NUMBER = "number",
    ATOM = "atom",
    STRING = "string",
    LIST = "list",
    TUPLE = "tuple",
    DATA = "data",
    UNKNOWN = "unknown",
    // Builtins (strand-machine's table).
    SUP_RESTART = "sup_restart",
    WORK = "work",
    PRINT = "print",
    CURRENT_NODE = "current_node",
    ACK = "ack",
    UNIQUE_ID = "unique_id",
    LENGTH = "length",
    RAND_NUM = "rand_num",
    MAKE_TUPLE = "make_tuple",
    OPEN_PORT = "open_port",
    SEND_PORT = "send_port",
    MERGE = "merge",
    GAUGE = "gauge",
    DISTRIBUTE = "distribute",
    PUT_ARG = "put_arg",
    ARG = "arg",
    AFTER_UNLESS = "after_unless",
    // Internal goals (not surface syntax).
    SPAWN_AT = "$spawn_at",
    FORWARD = "$forward",
    TIMER = "$timer",
    DELIVER = "$deliver",
}
