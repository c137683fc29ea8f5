//! Error-path tests for machine builtins: every misuse is reported as a
//! diagnosable runtime error, never a panic or a silent wrong answer.

use strand_core::StrandError;
use strand_machine::{run_goal, MachineConfig};

fn expect_err(src: &str, goal: &str) -> StrandError {
    run_goal(src, goal, MachineConfig::default()).expect_err("program should fail")
}

#[test]
fn distribute_index_out_of_range() {
    let src = "go :- make_tuple(2, T), distribute(5, T, msg).";
    let e = expect_err(src, "go");
    assert!(e.to_string().contains("out of"), "{e}");
}

#[test]
fn distribute_on_non_port_slot() {
    let src = "go :- make_tuple(2, T), put_arg(1, T, 42), distribute(1, T, msg).";
    let e = expect_err(src, "go");
    assert!(e.to_string().contains("not a port"), "{e}");
}

#[test]
fn put_arg_double_fill() {
    let src = "go :- make_tuple(2, T), put_arg(1, T, a), put_arg(1, T, b).";
    let e = expect_err(src, "go");
    assert!(e.to_string().contains("already filled"), "{e}");
}

#[test]
fn arg_out_of_range() {
    let src = "go(V) :- make_tuple(2, T), arg(3, T, V).";
    let e = expect_err(src, "go(V)");
    assert!(e.to_string().contains("out of range"), "{e}");
}

#[test]
fn arg_on_non_tuple() {
    let src = "go(V) :- arg(1, [a, b], V).";
    let e = expect_err(src, "go(V)");
    assert!(e.to_string().contains("tuple"), "{e}");
}

#[test]
fn rand_num_needs_positive_bound() {
    let e = expect_err("go(R) :- rand_num(0, R).", "go(R)");
    assert!(e.to_string().contains("bad bound"), "{e}");
    let e = expect_err("go(R) :- rand_num(-3, R).", "go(R)");
    assert!(e.to_string().contains("bad bound"), "{e}");
}

#[test]
fn length_of_non_collection() {
    let e = expect_err("go(N) :- length(7, N).", "go(N)");
    assert!(e.to_string().contains("neither tuple nor list"), "{e}");
}

#[test]
fn make_tuple_rejects_nonpositive_arity() {
    let e = expect_err("go(T) :- make_tuple(0, T).", "go(T)");
    assert!(e.to_string().contains("bad arity"), "{e}");
}

#[test]
fn open_port_requires_unbound_args() {
    let e = expect_err("go :- open_port(5, S), use(S). use(_).", "go");
    assert!(e.to_string().contains("unbound"), "{e}");
}

#[test]
fn gauge_requires_atom_and_int() {
    let e = expect_err("go :- gauge(7, 3).", "go");
    assert!(e.to_string().contains("atom name"), "{e}");
}

#[test]
fn division_by_zero_reported() {
    let e = expect_err("go(V) :- V := 1 / 0.", "go(V)");
    assert!(matches!(e, StrandError::DivideByZero { .. }), "{e}");
}

#[test]
fn assignment_to_bound_reports_both_values() {
    let e = expect_err("go :- x(V), V := 2. x(V) :- V := 1.", "go");
    match e {
        StrandError::DoubleAssign { .. } => {}
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn guard_type_error_surfaces() {
    // An unknown guard test is a programmer error, reported eagerly.
    let e = expect_err("f(X) :- frobnicate(X) | g(X). g(_).", "f(1)");
    assert!(e.to_string().contains("frobnicate"), "{e}");
}

#[test]
fn errors_do_not_corrupt_collected_mode() {
    // With fail_fast off, multiple independent errors are all collected.
    let src = r#"
        go :- bad1, bad2, fine(X), use(X).
        bad1 :- make_tuple(0, _).
        bad2 :- length(7, _).
        fine(X) :- X := ok.
        use(_).
    "#;
    let cfg = MachineConfig {
        fail_fast: false,
        ..Default::default()
    };
    let r = run_goal(src, "go", cfg).unwrap();
    assert_eq!(r.report.errors.len(), 2, "{:?}", r.report.errors);
}

/// The lint's hand-kept list of builtins (`strand_parse::MACHINE_BUILTINS`)
/// is exactly what the machine dispatches: on an empty program every listed
/// `name/arity` runs, on fresh variables, as something other than an
/// undefined procedure, and every other arity 0–4 of a builtin symbol is
/// undefined. (The second half also shows each quoted name parses.)
#[test]
fn the_lints_builtin_list_is_what_the_machine_dispatches() {
    use strand_parse::MACHINE_BUILTINS;
    let undefined = |name: &str, arity: usize| {
        let vars: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
        let mut goal = format!("'{}'", name.replace('\\', "\\\\"));
        if arity > 0 {
            goal += &format!("({})", vars.join(", "));
        }
        matches!(
            run_goal("", &goal, MachineConfig::default()),
            Err(StrandError::UndefinedProcedure { .. })
        )
    };
    let mut wrong = Vec::new();
    for &(name, arity) in MACHINE_BUILTINS {
        if undefined(name, arity) {
            wrong.push(format!("{name}/{arity} is listed but undefined"));
        }
    }
    for &name in strand_core::sym::NAMES
        .iter()
        .filter(|n| !n.starts_with('$'))
    {
        for arity in 0..=4 {
            if !MACHINE_BUILTINS.contains(&(name, arity)) && !undefined(name, arity) {
                wrong.push(format!("{name}/{arity} runs but is not listed"));
            }
        }
    }
    assert!(wrong.is_empty(), "\n{}", wrong.join("\n"));
}
