//! Body builtins of the abstract machine.
//!
//! The paper's programs use a small set of low-level primitives; each is
//! implemented here with dataflow semantics (suspend until inputs are
//! available):
//!
//! | builtin | paper role |
//! |---|---|
//! | `X := E` | assignment — arithmetic when `E` is an arithmetic expression, data otherwise (§2.1, Figure 1) |
//! | `X = T` | data assignment (explicit form) |
//! | `length(T, N)` | arity of the server stream tuple `DT` / length of a list (Server transformation step 3) |
//! | `rand_num(N, R)` | random integer in `(1,N)` (§3.3) — deterministic, seeded |
//! | `distribute(I, DT, Msg)` | append `Msg` to the `I`-th server stream (Server transformation step 2) |
//! | `distribute(I, DT, Msg, Ack)` | as `distribute/3`, then bind `Ack := ok` once the message is sent — the Supervise motif's acked send |
//! | `make_tuple(N, T)`, `put_arg(I, T, V)` | construct the stream tuple (Figure 3) |
//! | `put_arg(I, T, V, Won)` | test-and-set slot fill: `Won := yes` iff the slot was empty — makes supervised bootstrap idempotent under duplicate delivery |
//! | `sup_restart` | count one supervisor restart in the run metrics (Supervise motif's timeout rule) |
//! | `open_port(P, S)`, `send_port(P, M)` | create/feed a merged stream — the machine-level realization of Figure 3's `merge` network |
//! | `merge(Streams, Out)` | merge a list of streams into one (§3.2) |
//! | `work(W)` | advance the node's clock by `W` ticks — models user computation cost in experiments |
//! | `print(T)` | append the resolved term to the run's output log |
//! | `current_node(N)` | the executing node's 1-based number |
//! | `arg(I, T, V)` | bind `V` to the `I`-th argument of tuple `T` (1-based; an unbound argument is aliased, not waited for) |
//! | `gauge(Name, V)` | record the integer `V` under the atom `Name` for the executing node; the run metrics keep the maximum |
//! | `true` | no-op |
//! | `after_unless(C, W, T)` | timer: binds `T := timeout` after `W` ticks unless `C` is bound first (then it evaporates, costing nothing) — the Supervise motif's retry/heartbeat clock; virtual ticks on the simulator, the fleet's deadline queue on the parallel backend |
//! | `ack(V)` | idempotently bind `V := ok` — safe under duplicate delivery |
//! | `unique_id(N)` | bind `N` to a fresh machine-wide integer (sequence numbers) |
//!
//! Internal (not surface syntax): `'$spawn_at'(NodeExpr, Goal)` defers a
//! placement whose node expression is not yet bound, `'$forward'(S, P)`
//! is the per-stream forwarder process of `merge/2`, `'$timer'(C, T)` is an
//! `after_unless` deadline at its instant (queued on the simulator's virtual
//! clock, or fired by the parallel backend's deadline queue), and
//! `'$deliver'(P, M)` is a delayed port message en route (fault injection).

use crate::config::Delivery;
use crate::machine::{CallOutcome, Machine};
use crate::trace::{goal_text, TraceEvent};
use crate::world::{Goal, PortState};
use strand_core::arith::{is_arith_expr, Evaled};
use strand_core::{eval_arith, sym, Atom, StrandError, StrandResult, Term, VarId};

fn bad(builtin: &str, detail: impl Into<String>) -> CallOutcome {
    CallOutcome::Error(StrandError::BadBuiltin {
        builtin: builtin.to_string(),
        detail: detail.into(),
    })
}

impl Machine {
    /// Execute the call `name(args…)` if `name` with its arity is a
    /// machine builtin; `Ok(None)` if it is not. The one `match` is both
    /// the membership test and the dispatch, once per reduction: `name` is
    /// compared against pre-interned symbols (an integer switch, no string
    /// compare), then the argument count. Returns `Err` only for
    /// machine-fatal conditions; program-level problems go through
    /// [`CallOutcome`].
    pub(crate) fn exec_builtin(
        &mut self,
        name: Atom,
        args: &[Term],
    ) -> StrandResult<Option<CallOutcome>> {
        Ok(Some(match (name, args) {
            (sym::TRUE, []) => CallOutcome::Done,

            // Marks one supervisor restart: the Supervise motif calls this
            // in its heartbeat-timeout rule, so fault runs can
            // report recovery activity through the metrics.
            (sym::SUP_RESTART, []) => {
                self.metrics.supervisor_restarts += 1;
                CallOutcome::Done
            }

            (sym::ASSIGN, [lhs, rhs]) => self.assign(lhs, rhs, true)?,
            (sym::UNIFY, [lhs, rhs]) => self.assign(lhs, rhs, false)?,

            (sym::LENGTH, [t, n]) => match self.term_length(t) {
                LengthOutcome::Len(len) => self.bind_or_err(n, Term::int(len))?,
                LengthOutcome::Suspend(vs) => CallOutcome::Suspend(vs),
                LengthOutcome::Bad => bad("length/2", "argument is neither tuple nor list"),
            },

            (sym::RAND_NUM, [n, r]) => match self.store.deref(n) {
                Term::Var(v) => CallOutcome::Suspend(vec![v]),
                Term::Int(n) if n > 0 => {
                    let val = self.rng.rand_num(n as u64) as i64;
                    self.bind_or_err(r, Term::int(val))?
                }
                other => bad("rand_num/2", format!("bad bound {other}")),
            },

            (sym::DISTRIBUTE, [i, dt, msg]) | (sym::DISTRIBUTE, [i, dt, msg, _]) => {
                let ack = args.get(3).cloned();
                let tuple = self.store.deref(dt);
                let idx = self.store.deref(i);
                match (&idx, &tuple) {
                    (Term::Var(v), _) => CallOutcome::Suspend(vec![*v]),
                    (_, Term::Var(v)) => CallOutcome::Suspend(vec![*v]),
                    (Term::Int(ix), Term::Tuple(_, slots)) => {
                        if *ix < 1 || *ix as usize > slots.len() {
                            bad(
                                "distribute/3",
                                format!("stream index {ix} out of 1..{}", slots.len()),
                            )
                        } else {
                            // A slot may hold the port directly, or a record
                            // whose first field is the port (the Supervise
                            // motif stores `m(P, Wire, Stop)` so the monitor
                            // can be placed from the bootstrap side).
                            let slot = match self.store.deref(&slots[*ix as usize - 1]) {
                                Term::Tuple(_, fields) if !fields.is_empty() => {
                                    self.store.deref(&fields[0])
                                }
                                other => other,
                            };
                            match slot {
                                Term::Port(p) => {
                                    let sent = self.port_send(p, msg)?;
                                    match (sent, ack) {
                                        (CallOutcome::Done, Some(a)) => {
                                            self.bind_or_err(&a, Term::Atom(sym::OK))?
                                        }
                                        (outcome, _) => outcome,
                                    }
                                }
                                Term::Var(v) => CallOutcome::Suspend(vec![v]),
                                other => {
                                    bad("distribute/3", format!("slot {ix} is not a port: {other}"))
                                }
                            }
                        }
                    }
                    _ => bad("distribute/3", "expects integer index and stream tuple"),
                }
            }

            (sym::MAKE_TUPLE, [n, t]) => match self.store.deref(n) {
                Term::Var(v) => CallOutcome::Suspend(vec![v]),
                Term::Int(n) if n > 0 => {
                    let slots: Vec<Term> =
                        (0..n).map(|_| Term::Var(self.store.new_var())).collect();
                    let tuple = Term::tuple(sym::DT, slots);
                    self.bind_or_err(t, tuple)?
                }
                other => bad("make_tuple/2", format!("bad arity {other}")),
            },

            (sym::PUT_ARG, [i, t, v]) => {
                let idx = self.store.deref(i);
                let tuple = self.store.deref(t);
                match (&idx, &tuple) {
                    (Term::Var(w), _) => CallOutcome::Suspend(vec![*w]),
                    (_, Term::Var(w)) => CallOutcome::Suspend(vec![*w]),
                    (Term::Int(ix), Term::Tuple(_, slots)) => {
                        if *ix < 1 || *ix as usize > slots.len() {
                            bad("put_arg/3", format!("index {ix} out of range"))
                        } else {
                            match self.store.deref(&slots[*ix as usize - 1]) {
                                Term::Var(slot) => {
                                    let value = self.store.deref(v);
                                    self.bind_now(slot, value)?;
                                    CallOutcome::Done
                                }
                                _ => bad("put_arg/3", format!("slot {ix} already filled")),
                            }
                        }
                    }
                    _ => bad("put_arg/3", "expects integer index and tuple"),
                }
            }

            // `put_arg(I, T, V, Won)`: test-and-set form of `put_arg/3`.
            // Fills slot `I` with `V` and binds `Won := yes` iff the slot
            // is still unbound; otherwise leaves the slot alone and binds
            // `Won := no`. Suspends until `V` is data, so a slot is only
            // ever filled with a value and a loser reliably sees it filled.
            // The whole test-and-set is one reduction, so racers on the
            // same node serialize: exactly one wins. The Supervise motif
            // uses this to make bootstrap idempotent under duplicated
            // `server_init` delivery.
            (sym::PUT_ARG, [i, t, v, won]) => {
                let idx = self.store.deref(i);
                let tuple = self.store.deref(t);
                match (&idx, &tuple) {
                    (Term::Var(w), _) => CallOutcome::Suspend(vec![*w]),
                    (_, Term::Var(w)) => CallOutcome::Suspend(vec![*w]),
                    (Term::Int(ix), Term::Tuple(_, slots)) => {
                        if *ix < 1 || *ix as usize > slots.len() {
                            bad("put_arg/4", format!("index {ix} out of range"))
                        } else {
                            match self.store.deref(v) {
                                Term::Var(pv) => CallOutcome::Suspend(vec![pv]),
                                value => match self.store.deref(&slots[*ix as usize - 1]) {
                                    Term::Var(slot) => {
                                        self.bind_now(slot, value)?;
                                        self.bind_or_err(won, Term::Atom(sym::YES))?
                                    }
                                    _ => self.bind_or_err(won, Term::Atom(sym::NO))?,
                                },
                            }
                        }
                    }
                    _ => bad("put_arg/4", "expects integer index and tuple"),
                }
            }

            (sym::OPEN_PORT, [p, s]) => match (self.store.deref(p), self.store.deref(s)) {
                (Term::Var(pv), Term::Var(sv)) => {
                    let owner = self.current_node;
                    let id = self.world().open_port(PortState { owner, tail: sv });
                    self.bind_now(pv, Term::Port(id))?;
                    CallOutcome::Done
                }
                _ => bad("open_port/2", "both arguments must be unbound variables"),
            },

            (sym::SEND_PORT, [p, m]) => match self.store.deref(p) {
                Term::Var(v) => CallOutcome::Suspend(vec![v]),
                Term::Port(id) => self.port_send(id, m)?,
                other => bad("send_port/2", format!("not a port: {other}")),
            },

            (sym::MERGE, [streams, out]) => match self.store.deref(streams) {
                Term::Var(v) => CallOutcome::Suspend(vec![v]),
                list => {
                    // Walk as far as the list is instantiated; suspend on an
                    // unbound tail so late-added streams still join.
                    let mut items = Vec::new();
                    let mut cur = list;
                    loop {
                        match cur {
                            Term::Nil => break,
                            Term::List(cell) => {
                                items.push(cell.0.clone());
                                cur = self.store.deref(&cell.1);
                            }
                            Term::Var(v) => return Ok(Some(CallOutcome::Suspend(vec![v]))),
                            other => {
                                return Ok(Some(bad("merge/2", format!("improper list: {other}"))))
                            }
                        }
                    }
                    match self.store.deref(out) {
                        Term::Var(ov) => {
                            let node = self.current_node;
                            let port = PortState {
                                owner: node,
                                tail: ov,
                            };
                            let id = self.world().open_port(port);
                            for s in items {
                                let forward = vec![s, Term::Port(id)];
                                self.spawn(Goal::call(sym::FORWARD, forward), node);
                            }
                            CallOutcome::Done
                        }
                        _ => bad("merge/2", "output must be an unbound variable"),
                    }
                }
            },

            (sym::FORWARD, [s, p]) => match self.store.deref(s) {
                Term::Var(v) => CallOutcome::Suspend(vec![v]),
                Term::Nil => CallOutcome::Done,
                Term::List(cell) => {
                    let port = match self.store.deref(p) {
                        Term::Port(id) => id,
                        other => {
                            return Ok(Some(bad("$forward/2", format!("not a port: {other}"))))
                        }
                    };
                    match self.port_send(port, &cell.0)? {
                        CallOutcome::Done => {
                            let node = self.current_node;
                            let rest = vec![cell.1.clone(), p.clone()];
                            self.spawn(Goal::call(sym::FORWARD, rest), node);
                            CallOutcome::Done
                        }
                        other => other,
                    }
                }
                other => bad("$forward/2", format!("not a stream: {other}")),
            },

            (sym::SPAWN_AT, [place, g]) => match eval_arith(place, &self.store)? {
                Evaled::Suspend(vs) => CallOutcome::Suspend(vs),
                Evaled::Num(n) => {
                    let target = self.map_node(n.as_f64() as i64);
                    let goal = self.store.deref(g);
                    self.spawn(Goal::Term(goal), target);
                    CallOutcome::Done
                }
            },

            (sym::WORK, [w]) => match eval_arith(w, &self.store)? {
                Evaled::Suspend(vs) => CallOutcome::Suspend(vs),
                Evaled::Num(n) => {
                    let ticks = n.as_f64().max(0.0) as u64;
                    self.extra_cost += ticks;
                    CallOutcome::Done
                }
            },

            (sym::PRINT, [t]) => {
                let s = self.store.resolve(t).to_string();
                self.output.push(s);
                CallOutcome::Done
            }

            (sym::CURRENT_NODE, [n]) => {
                let id = self.current_node.0 as i64 + 1;
                self.bind_or_err(n, Term::int(id))?
            }

            // `after_unless(Cancel, Ticks, T)`: arm a timer. If `Cancel` is
            // still unbound after `Ticks`, `T := timeout` fires (waking
            // racers); if `Cancel` was bound first the pending timer
            // evaporates without advancing any clock. Backbone of the
            // Supervise motif's retry backoff and heartbeat watchdogs. What a
            // tick is depends on where the machine runs: see
            // `Machine::arm_timer`.
            (sym::AFTER_UNLESS, [cancel, ticks, t]) => match eval_arith(ticks, &self.store)? {
                Evaled::Suspend(vs) => CallOutcome::Suspend(vs),
                Evaled::Num(n) => {
                    let wait = n.as_f64().max(0.0) as u64;
                    self.arm_timer(wait, cancel.clone(), t.clone());
                    CallOutcome::Done
                }
            },

            // A timer at its deadline: a `'$timer'` item on the simulator's
            // virtual clock (the scheduler has already filtered out the
            // cancelled case), or one the fleet's deadline queue delivered
            // back into the shard (`Machine::fire_deadline`) — there the
            // cancel flag may have been bound while the event was in flight,
            // in which case it evaporates here.
            (sym::TIMER, [cancel, t]) => {
                if matches!(self.store.deref(cancel), Term::Var(_)) {
                    self.metrics.timers_fired += 1;
                    self.bind_or_err(t, Term::Atom(sym::TIMEOUT))?
                } else {
                    self.metrics.timers_cancelled += 1;
                    CallOutcome::Done
                }
            }

            // `ack(V)`: idempotent acknowledgement. First call binds
            // `V := ok`; repeats (duplicate deliveries, replays) are no-ops
            // instead of double-assignment errors.
            (sym::ACK, [v]) => match self.store.deref(v) {
                Term::Var(w) => {
                    self.bind_now(w, Term::Atom(sym::OK))?;
                    CallOutcome::Done
                }
                Term::Atom(sym::OK) => CallOutcome::Done,
                other => bad("ack/1", format!("already bound to {other}")),
            },

            // `unique_id(N)`: run-wide fresh integer, for sequence numbers
            // (duplicate suppression in the Supervise motif), from the
            // world's one sequence, so run-global across workers.
            (sym::UNIQUE_ID, [n]) => {
                let id = self.world().next_unique_id() as i64;
                self.bind_or_err(n, Term::int(id))?
            }

            // A delayed port message arriving at last (fault injection);
            // accounting happened at send time.
            (sym::DELIVER, [p, m]) => match self.store.deref(p) {
                Term::Port(id) => {
                    self.port_append(id, m.clone())?;
                    CallOutcome::Done
                }
                other => bad("$deliver/2", format!("not a port: {other}")),
            },

            // `arg(I, T, V)`: V is the I-th argument of tuple T (1-based).
            // The selected argument may itself be unbound — it is aliased,
            // not waited for.
            (sym::ARG, [i, t, v]) => {
                let idx = self.store.deref(i);
                let tuple = self.store.deref(t);
                match (&idx, &tuple) {
                    (Term::Var(w), _) => CallOutcome::Suspend(vec![*w]),
                    (_, Term::Var(w)) => CallOutcome::Suspend(vec![*w]),
                    (Term::Int(ix), Term::Tuple(_, slots)) => {
                        if *ix < 1 || *ix as usize > slots.len() {
                            bad("arg/3", format!("index {ix} out of range"))
                        } else {
                            let value = slots[*ix as usize - 1].clone();
                            self.bind_or_err(v, value)?
                        }
                    }
                    _ => bad("arg/3", "expects integer index and tuple"),
                }
            }

            // `gauge(Name, Value)`: record a named per-node gauge; the
            // metrics keep the maximum seen (used by experiment E2 to track
            // the values waiting for a sibling in Tree-Reduce-2).
            (sym::GAUGE, [name_t, value_t]) => {
                let gname = self.store.deref(name_t);
                match (gname.functor(), self.store.deref(value_t)) {
                    (_, Term::Var(v)) => CallOutcome::Suspend(vec![v]),
                    (Some((a, 0)), Term::Int(val)) => {
                        let node = self.current_node;
                        self.metrics
                            .record_gauge(a.as_str(), node, val.max(0) as u64);
                        CallOutcome::Done
                    }
                    _ => bad("gauge/2", "expects an atom name and integer value"),
                }
            }

            _ => return Ok(None),
        }))
    }

    /// `:=` / `=`. With `arith` set, an arithmetic-expression RHS is
    /// evaluated before assignment. The RHS is read where it is: only a
    /// data value, which the binding keeps, is cloned.
    fn assign(&mut self, lhs: &Term, rhs: &Term, arith: bool) -> StrandResult<CallOutcome> {
        let target = self.store.deref(lhs);
        let Term::Var(v) = target else {
            // Assigning to a bound variable is the paper's run-time error.
            return Ok(CallOutcome::Error(StrandError::DoubleAssign {
                var: VarId(u32::MAX),
                existing: self.store.resolve(lhs),
                attempted: self.store.resolve(rhs),
            }));
        };
        let value = self.store.deref_cow(rhs);
        if arith && is_arith_expr(&value) && !value.is_number() {
            match eval_arith(&value, &self.store)? {
                Evaled::Suspend(vs) => return Ok(CallOutcome::Suspend(vs)),
                Evaled::Num(n) => {
                    self.bind_now(v, n.to_term())?;
                    return Ok(CallOutcome::Done);
                }
            }
        }
        self.bind_now(v, value.into_owned())?;
        Ok(CallOutcome::Done)
    }

    fn bind_or_err(&mut self, dest: &Term, value: Term) -> StrandResult<CallOutcome> {
        match self.store.deref(dest) {
            Term::Var(v) => {
                self.bind_now(v, value)?;
                Ok(CallOutcome::Done)
            }
            other => Ok(CallOutcome::Error(StrandError::DoubleAssign {
                var: VarId(u32::MAX),
                existing: other,
                attempted: value,
            })),
        }
    }

    /// Append `msg` to a port's stream, with message accounting and — for
    /// cross-node sends — fault injection. Note what a crash does *not*
    /// break: the stream is data in the global store, so sends to a port
    /// whose owner died still append (a restarted consumer can replay
    /// them); only injected drops lose messages. The message is cloned
    /// once, dereferenced.
    fn port_send(&mut self, port: u32, msg: &Term) -> StrandResult<CallOutcome> {
        let msg = self.store.deref(msg);
        let owner = self.world().port_owner(port);
        if self.current_node != owner {
            self.metrics.count_message(self.current_node, owner);
            match self.edge_delivery() {
                Delivery::Deliver => {}
                Delivery::Drop => {
                    self.record_drop(owner, &msg);
                    return Ok(CallOutcome::Done);
                }
                Delivery::Duplicate => {
                    self.metrics.msgs_duplicated += 1;
                    if self.config.record_trace {
                        let ev = TraceEvent::Duplicate {
                            time: self.now(),
                            from: self.current_node,
                            to: owner,
                            goal: goal_text(&msg),
                        };
                        self.trace.push(ev);
                    }
                    self.count_cross_port(&msg);
                    self.port_append(port, msg.clone())?;
                }
                Delivery::Delay(extra) => {
                    // The message goes on the wire now but lands later: an
                    // internal courier on the sending node performs the
                    // append after `extra` ticks, and the tail binding then
                    // pays the usual cross-node latency on top.
                    self.metrics.msgs_delayed += 1;
                    self.count_cross_port(&msg);
                    let node = self.current_node;
                    let at = self.now() + extra;
                    let deliver = vec![Term::Port(port), msg];
                    self.enqueue(Goal::call(sym::DELIVER, deliver), node, at);
                    return Ok(CallOutcome::Done);
                }
            }
            self.count_cross_port(&msg);
        } else {
            self.metrics.port_msgs_local += 1;
        }
        self.port_append(port, msg)?;
        Ok(CallOutcome::Done)
    }

    /// Raw stream append: allocate the next cell, atomically swap it in as
    /// the port's tail, then bind the old tail (waking consumers). The bind
    /// happens *outside* the port lock, so concurrent appends from different
    /// workers each link a distinct cons cell and the stream stays linear —
    /// only the arrival order is scheduling-dependent. No accounting, no
    /// faults.
    pub(crate) fn port_append(&mut self, port: u32, msg: Term) -> StrandResult<()> {
        let new_tail = self.store.new_var();
        let old_tail = self.world().swap_port_tail(port, new_tail);
        let cell = Term::cons(msg, Term::Var(new_tail));
        self.bind_now(old_tail, cell)?;
        Ok(())
    }

    fn count_cross_port(&mut self, msg: &Term) {
        self.metrics.port_msgs_cross += 1;
        if let Some((f, _)) = msg.functor() {
            *self.metrics.port_msgs_by_functor.entry(*f).or_insert(0) += 1;
        }
    }
}

/// Outcome of `length/2` probing.
enum LengthOutcome {
    Len(i64),
    Suspend(Vec<VarId>),
    Bad,
}

impl Machine {
    fn term_length(&self, t: &Term) -> LengthOutcome {
        match self.store.deref(t) {
            Term::Var(v) => LengthOutcome::Suspend(vec![v]),
            Term::Tuple(_, args) => LengthOutcome::Len(args.len() as i64),
            Term::Nil => LengthOutcome::Len(0),
            list @ Term::List(_) => {
                let mut n = 0i64;
                let mut cur = list;
                loop {
                    match cur {
                        Term::Nil => return LengthOutcome::Len(n),
                        Term::List(cell) => {
                            n += 1;
                            cur = self.store.deref(&cell.1);
                        }
                        Term::Var(v) => return LengthOutcome::Suspend(vec![v]),
                        _ => return LengthOutcome::Bad,
                    }
                }
            }
            _ => LengthOutcome::Bad,
        }
    }
}
