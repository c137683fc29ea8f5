//! What a rule *is* on each execution tier: the compiled tier's lowered
//! [`exec::ExecRule`] and the reference interpreter's [`CompiledRule`]. The
//! two differ in nothing else — rule dispatch in the shard core is written
//! once, generic over [`TierRule`].

use crate::exec::{self, BlockPool, IndexKey, Scratch, TryResult};
use crate::world::{Goal, StoreHandle};
use strand_core::{match_args, Frame, GuardOutcome, MatchOutcome, Pat, StrandResult, Term};
use strand_parse::{CompiledCall, CompiledRule};

/// What rule dispatch needs from an execution tier: how one rule is indexed,
/// attempted into a [`Scratch`], and how its body is instantiated. The
/// driver (`Machine::dispatch`) is generic over this and monomorphised for
/// the two implementors, so neither tier pays a dynamic call per rule.
pub(crate) trait TierRule {
    type Call;
    /// First-argument index key; `None` = the rule is never filtered.
    fn key(&self) -> Option<&IndexKey> {
        None
    }
    /// Match the head and evaluate the guards. On `Commit` the bindings are
    /// in `scratch.frame`; on `Suspend` the variables are in
    /// `scratch.rule_pending`.
    fn attempt(
        &self,
        args: &[Term],
        store: &StoreHandle,
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult>;
    fn body(&self) -> &[Self::Call];
    /// Instantiate one body call: its goal, then its placement expression.
    fn build(
        call: &Self::Call,
        frame: &mut Frame,
        store: &mut StoreHandle,
        pool: &mut BlockPool,
    ) -> (Goal, Option<Term>);
}

/// The compiled tier (`ExecMode::Compiled`, the default): direct-threaded
/// match ops, clause indexing and pre-lowered body templates (see
/// [`crate::exec`]). Must stay observably identical to the interpreter.
impl TierRule for exec::ExecRule {
    type Call = exec::ExecCall;

    #[inline]
    fn key(&self) -> Option<&IndexKey> {
        self.key.as_ref()
    }

    #[inline(always)]
    fn attempt(
        &self,
        args: &[Term],
        store: &StoreHandle,
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult> {
        // Store dispatch happens here, once per attempt, so the matcher is
        // compiled against the concrete store and never re-dispatches per
        // deref.
        match store {
            StoreHandle::Local(s) => exec::try_rule(self, args, s, scratch),
            StoreHandle::Shared(s) => exec::try_rule(self, args, s, scratch),
        }
    }

    #[inline]
    fn body(&self) -> &[exec::ExecCall] {
        &self.body
    }

    #[inline]
    fn build(
        call: &exec::ExecCall,
        frame: &mut Frame,
        store: &mut StoreHandle,
        pool: &mut BlockPool,
    ) -> (Goal, Option<Term>) {
        let goal = call.goal.build(frame, store, pool);
        let placement = call.placement.as_ref();
        (goal, placement.map(|p| p.build(frame, store, pool)))
    }
}

/// The reference interpreter (`ExecMode::Interpreted`): per-reduction `Pat`
/// walking. Kept as the executable semantics the compiled tier is diffed
/// against.
impl TierRule for CompiledRule {
    type Call = CompiledCall;

    fn attempt(
        &self,
        args: &[Term],
        store: &StoreHandle,
        scratch: &mut Scratch,
    ) -> StrandResult<TryResult> {
        scratch.rule_pending.clear();
        scratch.frame.reset(self.n_locals);
        match match_args(args, &self.head, store, &mut scratch.frame) {
            MatchOutcome::Fail => return Ok(TryResult::Fail),
            // A match-time suspension returns before any guard runs.
            MatchOutcome::Suspend(vs) => {
                scratch.rule_pending.extend(vs);
                return Ok(TryResult::Suspend);
            }
            MatchOutcome::Match => {}
        }
        for guard in &self.guards {
            // A guard mentioning a variable not bound by the head can never
            // be decided; treat as failure (and surface a programmer error).
            let Some(gterm) = guard.instantiate_ro(&scratch.frame) else {
                return Ok(TryResult::Fail);
            };
            let decided = strand_core::eval_guard(&gterm, store, &mut scratch.rule_pending)?;
            if decided == GuardOutcome::False {
                return Ok(TryResult::Fail);
            }
        }
        Ok(if scratch.rule_pending.is_empty() {
            TryResult::Commit
        } else {
            TryResult::Suspend
        })
    }

    fn body(&self) -> &[CompiledCall] {
        &self.body
    }

    /// The reference builds every nested tuple afresh; only a call's own
    /// argument block comes from `pool`.
    fn build(
        call: &CompiledCall,
        frame: &mut Frame,
        store: &mut StoreHandle,
        pool: &mut BlockPool,
    ) -> (Goal, Option<Term>) {
        let goal = match &call.goal {
            Pat::Tuple(name, args) => {
                pool.goal(*name, args.len(), |i, _| args[i].instantiate(frame, store))
            }
            Pat::Atom(name) => Goal::Call {
                name: *name,
                args: Box::new([]),
            },
            other => Goal::Term(other.instantiate(frame, store)),
        };
        let placement = call.placement.as_ref().map(|p| p.instantiate(frame, store));
        (goal, placement)
    }
}
