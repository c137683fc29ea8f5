//! Quiescence detection for the sharded backend: the single-token counter.
//!
//! Every *busy worker*, every *in-flight batch* and every *ingress lender*
//! holds one abstract token; the [`Tokens`] counter tracks how many tokens
//! exist. All workers are born busy (counter starts at `threads`), a sender
//! mints a token **before** the channel send (`add`), a busy worker that
//! absorbs a batch dissolves its token (`absorb`), a parked worker that
//! receives a batch adopts its token as the worker's own busy token (no
//! counter change), and a worker going idle surrenders its busy token
//! (`release`). A connection thread that takes a parked worker's machine
//! for an ingress batch holds the batch's token as its busy token, and
//! surrenders it only once what its burst routed is shipped. The counter
//! reaching zero therefore proves *global quiescence*: no worker is busy
//! and no batch is unreceived, so no future work can appear.
//!
//! The inc-before-send order is the whole proof. If a sender enqueued the
//! batch first and incremented after, another worker could drain to idle,
//! release the last visible token, observe zero, and announce quiescence
//! while the batch sits unreceived in a channel. The model checker below
//! explores every interleaving of the protocol for small worker counts and
//! confirms (a) the correct order never announces early and (b) the broken
//! order does — i.e. the checker has the power to catch the bug. Further
//! variants of the model cross the protocol with the deadline wheel under
//! each of its two clocks, with `collect.rs`'s collector and ingress, and
//! with the ingress lender (`check_lend`).
//! (A worker whose nodes have crashed needs no variant: it absorbs,
//! surrenders and parks like any other, which `model::check` covers.)
//!
//! # Why an in-repo checker and not loom?
//!
//! `loom` is not vendored in this offline workspace, so the permutation
//! search runs over an *abstract model* of the protocol (worker states ×
//! queue contents × counter value) rather than over real atomics. That is
//! sound here because the protocol's correctness depends only on the
//! *order* of counter updates relative to channel operations — both
//! `SeqCst`-equivalent in the model — not on weak-memory effects.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared token counter: busy workers + in-flight batches.
pub(crate) struct Tokens(AtomicU64);

impl Tokens {
    /// Every worker is born busy and holds one token.
    pub fn new(busy_workers: u64) -> Tokens {
        Tokens(AtomicU64::new(busy_workers))
    }

    /// Mint a token for a batch about to be sent. MUST be called before the
    /// channel send — see the module docs for why the order matters.
    pub fn add(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }

    /// Undo [`Tokens::add`] after a failed send (the receiver is only gone
    /// once the run is over, but the counter stays honest regardless).
    pub fn retract(&self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }

    /// A *busy* worker absorbed a batch: the batch's token dissolves into
    /// the worker's own busy token. A *parked* worker receiving a batch
    /// calls nothing — the batch's token simply becomes its busy token.
    pub fn absorb(&self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }

    /// A busy worker goes idle, surrendering its token. Returns `true` when
    /// it surrendered the last token — global quiescence. The caller hands
    /// the answer to `park`: on a batch fleet the last releaser fires the
    /// next deadline instant or, over a dry wheel, broadcasts stop
    /// (including to itself); in resident mode it parks like everyone else
    /// and leaves the machine alive for the next ingress batch.
    #[must_use]
    pub fn release(&self) -> bool {
        self.0.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Observe global quiescence: no busy workers and no in-flight batches.
    /// Only a meaningful *steady* signal in resident mode, where quiescence
    /// is revisited rather than terminal; a `false` may be stale by the time
    /// the caller acts on it, but `true` stays true until new work is minted
    /// through [`Tokens::add`].
    pub fn is_zero(&self) -> bool {
        self.0.load(Ordering::Acquire) == 0
    }
}

/// Exhaustive interleaving exploration of the token protocol on an abstract
/// state machine (see module docs). Not compiled into the library.
#[cfg(test)]
mod model {
    use std::collections::HashSet;

    #[derive(Clone, PartialEq, Eq, Hash)]
    enum W {
        /// Holds a token. `mid_send: Some(to)` means the two-step send to
        /// `to` is half done (the interleaving point under test).
        Busy {
            sends_left: u8,
            mid_send: Option<u8>,
        },
        /// Holds no token; wakes by adopting a received batch's token.
        Parked,
        /// Saw the stop broadcast.
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct State {
        tokens: u64,
        /// Unreceived batches per destination worker.
        queues: Vec<u8>,
        workers: Vec<W>,
    }

    /// Depth-first search over every interleaving. `inc_before_send` picks
    /// the protocol variant: `true` is the shipped order (counter increment
    /// then enqueue), `false` the broken order (enqueue then increment).
    /// Returns the number of distinct states on success, or a description
    /// of the first reachable state that announces quiescence while a batch
    /// is unreceived or a peer is still busy.
    fn check(threads: usize, sends_each: u8, inc_before_send: bool) -> Result<usize, String> {
        let init = State {
            tokens: threads as u64,
            queues: vec![0; threads],
            workers: vec![
                W::Busy {
                    sends_left: sends_each,
                    mid_send: None
                };
                threads
            ],
        };
        let mut seen = HashSet::new();
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            for i in 0..threads {
                match s.workers[i].clone() {
                    W::Done => {}
                    W::Busy {
                        sends_left,
                        mid_send: Some(to),
                    } => {
                        // Second half of the two-step send.
                        let mut n = s.clone();
                        if inc_before_send {
                            n.queues[to as usize] += 1;
                        } else {
                            n.tokens += 1;
                        }
                        n.workers[i] = W::Busy {
                            sends_left,
                            mid_send: None,
                        };
                        stack.push(n);
                    }
                    W::Busy {
                        sends_left,
                        mid_send: None,
                    } => {
                        // (a) Start a send to any peer.
                        if sends_left > 0 {
                            for to in (0..threads).filter(|&to| to != i) {
                                let mut n = s.clone();
                                if inc_before_send {
                                    n.tokens += 1;
                                } else {
                                    n.queues[to] += 1;
                                }
                                n.workers[i] = W::Busy {
                                    sends_left: sends_left - 1,
                                    mid_send: Some(to as u8),
                                };
                                stack.push(n);
                            }
                        }
                        // (b) Absorb a batch from the own queue while busy.
                        if s.queues[i] > 0 {
                            let mut n = s.clone();
                            n.queues[i] -= 1;
                            n.tokens -= 1;
                            stack.push(n);
                        }
                        // (c) Go idle: surrender the busy token.
                        let mut n = s.clone();
                        n.tokens -= 1;
                        if n.tokens == 0 {
                            // Announce quiescence. The invariant under
                            // test: nothing can still be in flight and no
                            // peer can still be busy.
                            let unreceived: u8 = n.queues.iter().sum();
                            let busy_peer = (0..threads)
                                .any(|j| j != i && matches!(n.workers[j], W::Busy { .. }));
                            if unreceived > 0 || busy_peer {
                                return Err(format!(
                                    "worker {i} announced quiescence with \
                                     {unreceived} unreceived batch(es), busy peer: {busy_peer}"
                                ));
                            }
                            for w in &mut n.workers {
                                *w = W::Done;
                            }
                        } else {
                            n.workers[i] = W::Parked;
                        }
                        stack.push(n);
                    }
                    W::Parked => {
                        // Wake on a received batch, adopting its token
                        // (no counter change). A resumed worker may send
                        // again — model one follow-up send.
                        if s.queues[i] > 0 {
                            let mut n = s.clone();
                            n.queues[i] -= 1;
                            n.workers[i] = W::Busy {
                                sends_left: 1,
                                mid_send: None,
                            };
                            stack.push(n);
                        }
                    }
                }
            }
        }
        Ok(seen.len())
    }

    /// Worker states for the *wall-clock timer* variant of the model: busy
    /// workers may arm deadlines into the shared wheel, and any **parked**
    /// worker may wake for a due deadline — `park` on a resident fleet's
    /// clock. Firing is a two-step critical section, mirroring `park` in
    /// `lib.rs`: mint the busy token, then pop the wheel entry into
    /// runnable work. (A resident fleet never announces; "announce" here
    /// stands for any observer reading zero — `wait_idle`, `is_idle`. The
    /// batch fleet's clock is [`check_batch_timers`].)
    #[derive(Clone, PartialEq, Eq, Hash)]
    enum T {
        Busy {
            sends_left: u8,
            arms_left: u8,
            mid_send: Option<u8>,
        },
        /// Halfway through firing a due deadline. In the shipped order the
        /// token is already minted and the wheel entry still in place; in
        /// the broken order the entry is already popped (work exists!) and
        /// the token not yet minted.
        MidFire,
        Parked,
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct TimerState {
        tokens: u64,
        /// Armed, not-yet-fired wheel entries. Wall time is abstracted
        /// away: a deadline may fall due at any moment, so a parked worker
        /// with `wheel > 0` can always attempt a fire.
        wheel: u8,
        queues: Vec<u8>,
        workers: Vec<T>,
    }

    /// Park/wake/fire exploration: like [`check`] but busy workers may arm
    /// deadlines (`arms_each` per worker) and parked workers race to fire
    /// them. Invariants:
    ///
    /// 1. *No early announce* — quiescence is never declared while a batch
    ///    is unreceived, a peer is busy, **or a peer is mid-fire** (a
    ///    popped deadline is work that will run).
    /// 2. *No stuck state* — a pending deadline never strands the run: the
    ///    fleet parks on it instead of announcing, fires it, and announces
    ///    once the wheel is dry.
    ///
    /// `mint_before_fire` picks the protocol variant: `true` is the shipped
    /// order (token minted before the wheel entry is popped); `false` seeds
    /// the bug where a parked worker takes the entry first and mints after
    /// — a peer can then release the "last" token and announce while the
    /// fired work is about to run. The negative test below proves the
    /// checker catches exactly that — the timer-wheel mirror of the
    /// enqueue-before-inc bug of [`check`].
    fn check_timers(
        threads: usize,
        sends_each: u8,
        arms_each: u8,
        mint_before_fire: bool,
    ) -> Result<usize, String> {
        let init = TimerState {
            tokens: threads as u64,
            wheel: 0,
            queues: vec![0; threads],
            workers: vec![
                T::Busy {
                    sends_left: sends_each,
                    arms_left: arms_each,
                    mid_send: None
                };
                threads
            ],
        };
        let mut seen = HashSet::new();
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            let before = stack.len();
            for i in 0..threads {
                match s.workers[i].clone() {
                    T::Done => {}
                    T::Busy {
                        sends_left,
                        arms_left,
                        mid_send: Some(to),
                    } => {
                        let mut n = s.clone();
                        n.queues[to as usize] += 1;
                        n.workers[i] = T::Busy {
                            sends_left,
                            arms_left,
                            mid_send: None,
                        };
                        stack.push(n);
                    }
                    T::Busy {
                        sends_left,
                        arms_left,
                        mid_send: None,
                    } => {
                        if sends_left > 0 {
                            for to in (0..threads).filter(|&to| to != i) {
                                let mut n = s.clone();
                                n.tokens += 1; // inc BEFORE send
                                n.workers[i] = T::Busy {
                                    sends_left: sends_left - 1,
                                    arms_left,
                                    mid_send: Some(to as u8),
                                };
                                stack.push(n);
                            }
                        }
                        // Arm a deadline: a local harvest into the shared
                        // wheel — no token, no channel traffic (the fire
                        // mints, not the arm).
                        if arms_left > 0 {
                            let mut n = s.clone();
                            n.wheel += 1;
                            n.workers[i] = T::Busy {
                                sends_left,
                                arms_left: arms_left - 1,
                                mid_send: None,
                            };
                            stack.push(n);
                        }
                        if s.queues[i] > 0 {
                            let mut n = s.clone();
                            n.queues[i] -= 1;
                            n.tokens -= 1;
                            stack.push(n);
                        }
                        // Go idle. With deadlines still armed, surrendering
                        // the last token is NOT terminal quiescence — the
                        // worker parks on the wheel instead of announcing.
                        let mut n = s.clone();
                        n.tokens -= 1;
                        if n.tokens == 0 && n.wheel == 0 {
                            let unreceived: u8 = n.queues.iter().sum();
                            let live_peer = (0..threads).any(|j| {
                                j != i && matches!(n.workers[j], T::Busy { .. } | T::MidFire)
                            });
                            if unreceived > 0 || live_peer {
                                return Err(format!(
                                    "worker {i} announced quiescence with \
                                     {unreceived} unreceived batch(es), live peer: {live_peer}"
                                ));
                            }
                            for w in &mut n.workers {
                                *w = T::Done;
                            }
                        } else {
                            n.workers[i] = T::Parked;
                        }
                        stack.push(n);
                    }
                    T::MidFire => {
                        // Second half of the fire critical section; the
                        // worker comes up busy with the fired timer as
                        // local work (which may send once).
                        let mut n = s.clone();
                        if mint_before_fire && n.wheel == 0 {
                            // Lost the pop race: peers minted for the same
                            // entry and one of them took it. Re-release the
                            // token we minted — the `fired.is_empty()` path
                            // of `park` — which may complete quiescence.
                            n.tokens -= 1;
                            if n.tokens == 0 {
                                let unreceived: u8 = n.queues.iter().sum();
                                let live_peer = (0..threads).any(|j| {
                                    j != i && matches!(n.workers[j], T::Busy { .. } | T::MidFire)
                                });
                                if unreceived > 0 || live_peer {
                                    return Err(format!(
                                        "worker {i} announced quiescence with \
                                         {unreceived} unreceived batch(es), live peer: {live_peer}"
                                    ));
                                }
                                for w in &mut n.workers {
                                    *w = T::Done;
                                }
                            } else {
                                n.workers[i] = T::Parked;
                            }
                            stack.push(n);
                        } else {
                            if mint_before_fire {
                                n.wheel -= 1;
                            } else {
                                n.tokens += 1;
                            }
                            n.workers[i] = T::Busy {
                                sends_left: 1,
                                arms_left: 0,
                                mid_send: None,
                            };
                            stack.push(n);
                        }
                    }
                    T::Parked => {
                        if s.queues[i] > 0 {
                            let mut n = s.clone();
                            n.queues[i] -= 1;
                            n.workers[i] = T::Busy {
                                sends_left: 1,
                                arms_left: 0,
                                mid_send: None,
                            };
                            stack.push(n);
                        }
                        // A deadline fell due: begin the two-step fire.
                        if s.wheel > 0 {
                            let mut n = s.clone();
                            if mint_before_fire {
                                n.tokens += 1;
                            } else {
                                n.wheel -= 1;
                            }
                            n.workers[i] = T::MidFire;
                            stack.push(n);
                        }
                    }
                }
            }
            // Terminal-state check: nothing pushed ⇒ no transitions.
            if stack.len() == before && !s.workers.iter().all(|w| matches!(w, T::Done)) {
                return Err(format!(
                    "stuck state: tokens={}, wheel={}, {} unreceived batch(es), \
                     run never terminates",
                    s.tokens,
                    s.wheel,
                    s.queues.iter().map(|&q| q as u64).sum::<u64>(),
                ));
            }
        }
        Ok(seen.len())
    }

    /// Worker states for the *batch timer* variant of the model: the wall
    /// clock of [`check_timers`] replaced by the quiescence clock.
    #[derive(Clone, PartialEq, Eq, Hash)]
    enum B {
        Busy {
            sends_left: u8,
            arms_left: u8,
            mid_send: Option<u8>,
        },
        /// In an unbounded `recv`: wakes for a batch, never for the wheel.
        Parked,
        /// Surrendered the last token over a non-empty wheel: the one worker
        /// entitled to fire. Holds no token yet.
        Elected,
        /// Minted; the wheel entry is still in place.
        MidFire,
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct BatchState {
        tokens: u64,
        wheel: u8,
        queues: Vec<u8>,
        workers: Vec<B>,
    }

    /// The batch rule: a deadline may fire only at `tokens == 0`, by the
    /// worker that surrendered the last token; everyone else parks
    /// unbounded. Invariants:
    ///
    /// 1. *No early announce, no early fire* — quiescence is never declared
    ///    and no deadline is ever fired while a batch is unreceived or a
    ///    peer is busy, elected or mid-fire.
    /// 2. *No stuck state* — a pending deadline never strands the run.
    ///
    /// `last_fires` picks the protocol variant: `true` is the shipped `park`
    /// (the last releaser over a non-empty wheel fires the next deadline
    /// instant); `false` seeds the bug where it merely parks — with its
    /// peers in an unbounded `recv`, nobody is left to fire, and the checker
    /// must report the stuck state.
    fn check_batch_timers(
        threads: usize,
        sends_each: u8,
        arms_each: u8,
        last_fires: bool,
    ) -> Result<usize, String> {
        let init = BatchState {
            tokens: threads as u64,
            wheel: 0,
            queues: vec![0; threads],
            workers: vec![
                B::Busy {
                    sends_left: sends_each,
                    arms_left: arms_each,
                    mid_send: None
                };
                threads
            ],
        };
        // "Nothing else can run": no unreceived batch, and no peer of `i`
        // that holds, or is about to mint, a token.
        let alone = |s: &BatchState, i: usize| {
            s.queues.iter().all(|&q| q == 0)
                && (0..threads).all(|j| j == i || matches!(s.workers[j], B::Parked))
        };
        let mut seen = HashSet::new();
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            let before = stack.len();
            for i in 0..threads {
                let mut n = s.clone();
                match s.workers[i].clone() {
                    B::Done => continue,
                    B::Busy {
                        sends_left,
                        arms_left,
                        mid_send: Some(to),
                    } => {
                        n.queues[to as usize] += 1;
                        n.workers[i] = B::Busy {
                            sends_left,
                            arms_left,
                            mid_send: None,
                        };
                    }
                    B::Busy {
                        sends_left,
                        arms_left,
                        mid_send: None,
                    } => {
                        if sends_left > 0 {
                            for to in (0..threads).filter(|&to| to != i) {
                                let mut n = s.clone();
                                n.tokens += 1; // inc BEFORE send
                                n.workers[i] = B::Busy {
                                    sends_left: sends_left - 1,
                                    arms_left,
                                    mid_send: Some(to as u8),
                                };
                                stack.push(n);
                            }
                        }
                        if arms_left > 0 {
                            let mut n = s.clone();
                            n.wheel += 1;
                            n.workers[i] = B::Busy {
                                sends_left,
                                arms_left: arms_left - 1,
                                mid_send: None,
                            };
                            stack.push(n);
                        }
                        if s.queues[i] > 0 {
                            let mut n = s.clone();
                            n.queues[i] -= 1;
                            n.tokens -= 1;
                            stack.push(n);
                        }
                        // Surrender the token and park.
                        n.tokens -= 1;
                        n.workers[i] = B::Parked;
                        if n.tokens == 0 && n.wheel == 0 {
                            if !alone(&n, i) {
                                return Err(format!(
                                    "worker {i} announced quiescence with work still live"
                                ));
                            }
                            for w in &mut n.workers {
                                *w = B::Done;
                            }
                        } else if n.tokens == 0 && last_fires {
                            n.workers[i] = B::Elected;
                        }
                    }
                    B::Parked => {
                        if s.queues[i] == 0 {
                            continue;
                        }
                        // Adopt the batch's token; the resumed work may send
                        // once.
                        n.queues[i] -= 1;
                        n.workers[i] = B::Busy {
                            sends_left: 1,
                            arms_left: 0,
                            mid_send: None,
                        };
                    }
                    B::Elected => {
                        if s.tokens != 0 || !alone(&s, i) {
                            return Err(format!(
                                "worker {i} fired a batch deadline at tokens={}",
                                s.tokens
                            ));
                        }
                        n.tokens += 1; // mint BEFORE pop
                        n.workers[i] = B::MidFire;
                    }
                    B::MidFire => {
                        // Pop one deadline instant. The fired goal is local
                        // work, or routes to its owner: either way at most
                        // one send.
                        n.wheel -= 1;
                        n.workers[i] = B::Busy {
                            sends_left: 1,
                            arms_left: 0,
                            mid_send: None,
                        };
                    }
                }
                stack.push(n);
            }
            // Terminal-state check: nothing pushed ⇒ no transitions.
            if stack.len() == before && !s.workers.iter().all(|w| matches!(w, B::Done)) {
                return Err(format!(
                    "stuck state: tokens={}, wheel={}, {} unreceived batch(es), \
                     run never terminates",
                    s.tokens,
                    s.wheel,
                    s.queues.iter().map(|&q| q as u64).sum::<u64>(),
                ));
            }
        }
        Ok(seen.len())
    }

    /// A worker in the *collection* variant of the model (a resident
    /// fleet, so nobody announces termination).
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum C {
        Busy { sends_left: u8 },
        Parked,
    }

    /// The ingress actor: `Building` holds the lock with a request's new
    /// variables only in its local outbox; `Pending` has let go of the
    /// lock with them still there (the bug under test).
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Ing {
        Idle,
        Building,
        Pending,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct CollectState {
        tokens: u64,
        wheel: u8,
        /// Unreceived batches per worker.
        queues: Vec<u8>,
        workers: Vec<C>,
        /// The collector holds worker `i`'s machine: it cannot run.
        taken: Vec<bool>,
        ingress: Ing,
        requests_left: u8,
        /// Holding the ingress lock, taking the workers' machines.
        collecting: bool,
        collections_left: u8,
    }

    /// The collector crossed with the token protocol, the deadline wheel
    /// and an ingress actor. The collector may start only at tokens = 0
    /// while taking the ingress lock; it takes the workers' machines one
    /// at a time — a parked worker's is free, and the worker cannot run
    /// until it is given back; a busy worker's is not, and the collector
    /// gives up — then re-checks tokens = 0 and marks. A parked worker may
    /// wake for a deadline (mint, then work) whenever its machine is free,
    /// and the ingress builds a request under the lock and ships it.
    /// Invariant: when the collector marks, no work exists that it cannot
    /// see — no batch in a channel, no request outside the lock. Also no
    /// stuck state.
    ///
    /// `mint_before_unlock` is the shipped `with_ingress` (mint and send,
    /// then unlock); `false` lets go of the lock first. `recheck` is the
    /// shipped collector; `false` marks without re-checking once it holds
    /// every machine. Each `false` must be caught.
    fn check_collect(
        threads: usize,
        sends_each: u8,
        deadlines: u8,
        requests: u8,
        collections: u8,
        mint_before_unlock: bool,
        recheck: bool,
    ) -> Result<usize, String> {
        let init = CollectState {
            tokens: threads as u64,
            wheel: deadlines,
            queues: vec![0; threads],
            workers: vec![
                C::Busy {
                    sends_left: sends_each
                };
                threads
            ],
            taken: vec![false; threads],
            ingress: Ing::Idle,
            requests_left: requests,
            collecting: false,
            collections_left: collections,
        };
        let mut seen = HashSet::new();
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            let before = stack.len();
            let mut next = |f: &dyn Fn(&mut CollectState)| {
                let mut n = s.clone();
                f(&mut n);
                stack.push(n);
            };
            for i in 0..threads {
                match s.workers[i] {
                    C::Busy { sends_left } => {
                        if sends_left > 0 {
                            for to in (0..threads).filter(|&to| to != i) {
                                next(&|n| {
                                    n.tokens += 1; // inc BEFORE send
                                    n.queues[to] += 1;
                                    n.workers[i] = C::Busy {
                                        sends_left: sends_left - 1,
                                    };
                                });
                            }
                        }
                        if s.queues[i] > 0 {
                            next(&|n| {
                                n.queues[i] -= 1;
                                n.tokens -= 1;
                            });
                        }
                        next(&|n| {
                            n.tokens -= 1;
                            n.workers[i] = C::Parked;
                        });
                    }
                    // Waking takes the machine back first.
                    C::Parked if s.taken[i] => {}
                    C::Parked => {
                        if s.queues[i] > 0 {
                            next(&|n| {
                                n.queues[i] -= 1;
                                n.workers[i] = C::Busy { sends_left: 1 };
                            });
                        }
                        if s.wheel > 0 {
                            next(&|n| {
                                n.tokens += 1; // mint BEFORE pop
                                n.wheel -= 1;
                                n.workers[i] = C::Busy { sends_left: 1 };
                            });
                        }
                    }
                }
            }
            // The ingress: build under the lock; mint, send, let go.
            let lock_free = s.ingress != Ing::Building && !s.collecting;
            match s.ingress {
                Ing::Idle if s.requests_left > 0 && lock_free => next(&|n| {
                    n.ingress = Ing::Building;
                    n.requests_left -= 1;
                }),
                Ing::Building if !mint_before_unlock => next(&|n| n.ingress = Ing::Pending),
                Ing::Building | Ing::Pending => {
                    for to in 0..threads {
                        next(&|n| {
                            n.tokens += 1;
                            n.queues[to] += 1;
                            n.ingress = Ing::Idle;
                        });
                    }
                }
                Ing::Idle => {}
            }
            // The collector.
            let give_back = |n: &mut CollectState| {
                n.collecting = false;
                n.taken = vec![false; threads];
            };
            if !s.collecting && s.collections_left > 0 && lock_free && s.tokens == 0 {
                next(&|n| {
                    n.collecting = true;
                    n.collections_left -= 1;
                });
            }
            if s.collecting {
                match s.taken.iter().position(|t| !t) {
                    Some(i) if s.workers[i] == C::Parked => next(&|n| n.taken[i] = true),
                    Some(_) => next(&give_back),
                    None => {
                        if !recheck || s.tokens == 0 {
                            let unseen =
                                s.queues.iter().any(|&q| q > 0) || s.ingress == Ing::Pending;
                            if unseen {
                                return Err(format!(
                                    "the collector marked with work it cannot see: tokens={}",
                                    s.tokens
                                ));
                            }
                        }
                        next(&give_back);
                    }
                }
            }
            let done = s.workers.iter().all(|w| *w == C::Parked)
                && s.queues.iter().all(|&q| q == 0)
                && s.ingress == Ing::Idle
                && s.requests_left == 0
                && !s.collecting;
            if stack.len() == before && !done {
                return Err(format!(
                    "stuck state: tokens={}, wheel={}, collecting={}",
                    s.tokens, s.wheel, s.collecting
                ));
            }
        }
        Ok(seen.len())
    }

    /// An ingress lender in the *lending* variant of the model: a
    /// connection thread whose request is for a parked worker, whose
    /// machine it takes and reduces on (`fleet::lend`).
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum L {
        Idle,
        /// Holds the ingress lock, the request built in its outbox.
        Building,
        /// Holds the ingress lock; the token for worker `to`'s batch is
        /// minted.
        Minted(u8),
        /// Has let go of the lock with worker `to`'s batch and its token.
        Unlocked(u8),
        /// Has let go of the lock holding worker `w`'s machine and, while
        /// `token`, the batch's token. Once `reduced`, `ship` says the
        /// burst's outbox is not shipped yet and `wake` that the burst left
        /// work (or armed a live deadline) and the owner is not woken yet.
        /// A deadline cancelled within the burst is never armed: that
        /// burst arms nothing, and `wake` stays false.
        Lent {
            w: u8,
            reduced: bool,
            ship: bool,
            wake: bool,
            token: bool,
        },
    }

    /// Who holds a parked worker's machine.
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Held {
        Free,
        Collector,
        Lender,
    }

    /// The lender the model runs: the shipped order, and two broken ones
    /// the checker must catch.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Lender {
        /// Ship, wake the owner if work is left, release, give back.
        Shipped,
        /// Release the token before shipping the burst's outbox.
        ReleasesBeforeShipping,
        /// Leave work on the machine without waking its owner.
        NeverWakesTheOwner,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct LendState {
        tokens: u64,
        wheel: u8,
        queues: Vec<u8>,
        workers: Vec<C>,
        /// A parked worker's machine: free, or taken. A busy worker holds
        /// its own.
        held: Vec<Held>,
        /// Work on a parked worker's machine that it has not run.
        work: Vec<bool>,
        lenders: Vec<L>,
        requests_left: u8,
        collecting: bool,
        collections_left: u8,
    }

    /// The lending ingress crossed with the token protocol, the deadline
    /// wheel and the collector of [`check_collect`]. Each of `lenders`
    /// connection threads builds a request under the ingress lock, mints
    /// the batch's token and lets go of the lock; it then takes the
    /// destination worker's machine if it is free — the worker parked, no
    /// collector or other lender holding it — or else sends the worker the
    /// batch. Holding the machine, it reduces one burst — which may route a
    /// batch to a peer, leave work, or arm a live deadline; a deadline
    /// cancelled within the burst is never armed, so that burst arms
    /// nothing — ships with mint-before-send, wakes the owner with a minted
    /// empty batch only if work is left or a live deadline was armed,
    /// releases the token and gives the machine back. A parked worker
    /// wakes, for a batch or a deadline, only once its machine is free.
    /// Invariants:
    ///
    /// 1. *No early idle* — whenever the counter reads zero, no batch is
    ///    unreceived, no worker busy, no lender holds work it has not
    ///    shipped or handed to the owner, and no parked worker's machine
    ///    holds work.
    /// 2. *No collection under a lender* — when the collector marks, no
    ///    lender holds a machine and no batch is in a channel.
    /// 3. *No stuck state.*
    fn check_lend(
        threads: usize,
        sends_each: u8,
        lenders: usize,
        requests: u8,
        collections: u8,
        lender: Lender,
    ) -> Result<usize, String> {
        let init = LendState {
            tokens: threads as u64,
            wheel: 0,
            queues: vec![0; threads],
            workers: vec![
                C::Busy {
                    sends_left: sends_each
                };
                threads
            ],
            held: vec![Held::Free; threads],
            work: vec![false; threads],
            lenders: vec![L::Idle; lenders],
            requests_left: requests,
            collecting: false,
            collections_left: collections,
        };
        let mut seen = HashSet::new();
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            if s.tokens == 0 {
                let unreceived: u8 = s.queues.iter().sum();
                let busy = s.workers.iter().any(|w| matches!(w, C::Busy { .. }));
                let held_back = s
                    .lenders
                    .iter()
                    .any(|l| matches!(l, L::Lent { ship, wake, .. } if *ship || *wake));
                let stranded = s.work.iter().any(|&w| w);
                if unreceived > 0 || busy || held_back || stranded {
                    return Err(format!(
                        "announced quiescence with {unreceived} unreceived batch(es), busy \
                         worker: {busy}, unshipped lender: {held_back}, stranded work: {stranded}"
                    ));
                }
            }
            let before = stack.len();
            let mut next = |f: &dyn Fn(&mut LendState)| {
                let mut n = s.clone();
                f(&mut n);
                stack.push(n);
            };
            for i in 0..threads {
                match s.workers[i] {
                    C::Busy { sends_left } => {
                        if sends_left > 0 {
                            for to in (0..threads).filter(|&to| to != i) {
                                next(&|n| {
                                    n.tokens += 1; // inc BEFORE send
                                    n.queues[to] += 1;
                                    n.workers[i] = C::Busy {
                                        sends_left: sends_left - 1,
                                    };
                                });
                            }
                        }
                        if s.queues[i] > 0 {
                            next(&|n| {
                                n.queues[i] -= 1;
                                n.tokens -= 1;
                            });
                        }
                        next(&|n| {
                            n.tokens -= 1;
                            n.workers[i] = C::Parked;
                        });
                    }
                    // Waking takes the machine back first; the woken worker
                    // runs whatever its machine holds.
                    C::Parked if s.held[i] != Held::Free => {}
                    C::Parked => {
                        if s.queues[i] > 0 {
                            next(&|n| {
                                n.queues[i] -= 1;
                                n.workers[i] = C::Busy { sends_left: 1 };
                                n.work[i] = false;
                            });
                        }
                        if s.wheel > 0 {
                            next(&|n| {
                                n.tokens += 1; // mint BEFORE pop
                                n.wheel -= 1;
                                n.workers[i] = C::Busy { sends_left: 1 };
                                n.work[i] = false;
                            });
                        }
                    }
                }
            }
            let lock_free = !s.collecting
                && !s
                    .lenders
                    .iter()
                    .any(|l| matches!(l, L::Building | L::Minted(_)));
            for j in 0..lenders {
                match s.lenders[j] {
                    L::Idle if s.requests_left > 0 && lock_free => next(&|n| {
                        n.lenders[j] = L::Building;
                        n.requests_left -= 1;
                    }),
                    L::Idle => {}
                    L::Building => {
                        for to in 0..threads {
                            next(&|n| {
                                n.tokens += 1;
                                n.lenders[j] = L::Minted(to as u8);
                            });
                        }
                    }
                    L::Minted(to) => next(&|n| n.lenders[j] = L::Unlocked(to)),
                    // Take a parked worker's free machine, or send the batch.
                    L::Unlocked(to) => next(&|n| {
                        let w = to as usize;
                        if n.workers[w] == C::Parked && n.held[w] == Held::Free {
                            n.held[w] = Held::Lender;
                            n.lenders[j] = L::Lent {
                                w: to,
                                reduced: false,
                                ship: false,
                                wake: false,
                                token: true,
                            };
                        } else {
                            n.queues[w] += 1;
                            n.lenders[j] = L::Idle;
                        }
                    }),
                    L::Lent {
                        w, reduced: false, ..
                    } => {
                        // The burst: it may route a batch to a peer, and may
                        // leave work on the machine or arm a live deadline
                        // (`left` 0 also covers a deadline cancelled within
                        // the burst, which is never armed).
                        for ship in [false, true] {
                            for left in 0..3 {
                                next(&|n| {
                                    n.lenders[j] = L::Lent {
                                        w,
                                        reduced: true,
                                        ship,
                                        wake: left > 0,
                                        token: true,
                                    };
                                    match left {
                                        1 => n.work[w as usize] = true,
                                        2 => n.wheel += 1,
                                        _ => {}
                                    }
                                });
                            }
                        }
                    }
                    L::Lent {
                        w,
                        reduced: true,
                        ship,
                        wake,
                        token,
                    } => {
                        let lent = |ship, wake, token| L::Lent {
                            w,
                            reduced: true,
                            ship,
                            wake,
                            token,
                        };
                        if ship {
                            for to in (0..threads).filter(|&to| to != w as usize) {
                                next(&|n| {
                                    n.tokens += 1; // inc BEFORE send
                                    n.queues[to] += 1;
                                    n.lenders[j] = lent(false, wake, token);
                                });
                            }
                        }
                        if wake && !ship {
                            next(&|n| {
                                if lender != Lender::NeverWakesTheOwner {
                                    n.tokens += 1; // an empty batch, minted
                                    n.queues[w as usize] += 1;
                                }
                                n.lenders[j] = lent(false, false, token);
                            });
                        }
                        let shipped = !ship || lender == Lender::ReleasesBeforeShipping;
                        if token && !wake && shipped {
                            next(&|n| {
                                n.tokens -= 1;
                                n.lenders[j] = lent(ship, false, false);
                            });
                        }
                        if !token && !ship && !wake {
                            next(&|n| {
                                n.held[w as usize] = Held::Free;
                                n.lenders[j] = L::Idle;
                            });
                        }
                    }
                }
            }
            // The collector, as in `check_collect`.
            let give_back = |n: &mut LendState| {
                n.collecting = false;
                for h in &mut n.held {
                    if *h == Held::Collector {
                        *h = Held::Free;
                    }
                }
            };
            if !s.collecting && s.collections_left > 0 && lock_free && s.tokens == 0 {
                next(&|n| {
                    n.collecting = true;
                    n.collections_left -= 1;
                });
            }
            if s.collecting {
                match s.held.iter().position(|h| *h != Held::Collector) {
                    Some(i) if s.workers[i] == C::Parked && s.held[i] == Held::Free => {
                        next(&|n| n.held[i] = Held::Collector)
                    }
                    Some(_) => next(&give_back),
                    None => {
                        if s.tokens == 0 {
                            if s.lenders.iter().any(|l| matches!(l, L::Lent { .. })) {
                                return Err("a collection ran while a lender held a machine".into());
                            }
                            if s.queues.iter().any(|&q| q > 0) {
                                return Err(format!(
                                    "the collector marked with work it cannot see: tokens={}",
                                    s.tokens
                                ));
                            }
                        }
                        next(&give_back);
                    }
                }
            }
            let done = s.workers.iter().all(|w| *w == C::Parked)
                && s.queues.iter().all(|&q| q == 0)
                && s.lenders.iter().all(|l| *l == L::Idle)
                && s.requests_left == 0
                && !s.collecting
                && !s.work.iter().any(|&w| w);
            if stack.len() == before && !done {
                return Err(format!(
                    "stuck state: tokens={}, wheel={}, collecting={}",
                    s.tokens, s.wheel, s.collecting
                ));
            }
        }
        Ok(seen.len())
    }

    #[test]
    fn lent_bursts_never_announce_early_or_meet_a_collection_2_workers() {
        let states = check_lend(2, 1, 2, 2, 1, Lender::Shipped).expect("lending invariant");
        assert!(states > 10_000, "trivial state space: {states}");
    }

    #[test]
    fn lent_bursts_never_announce_early_or_meet_a_collection_3_workers() {
        let states = check_lend(3, 0, 2, 2, 1, Lender::Shipped).expect("lending invariant");
        assert!(states > 100_000, "trivial state space: {states}");
    }

    #[test]
    fn checker_catches_a_lender_that_releases_before_shipping() {
        // The lender's token is the only one left; surrendering it with the
        // burst's batch for a peer still unshipped reads idle while work
        // exists. The checker must see it, or the passing tests above prove
        // nothing about the ship-before-release order.
        let err = check_lend(2, 1, 1, 1, 1, Lender::ReleasesBeforeShipping)
            .expect_err("release-before-ship bug");
        assert!(err.contains("announced quiescence"), "{err}");
    }

    #[test]
    fn checker_catches_a_lender_that_never_wakes_the_owner() {
        // A burst that leaves work on a parked worker's machine and does not
        // wake it strands the work: the fleet reads idle with it queued.
        let err =
            check_lend(2, 1, 1, 1, 1, Lender::NeverWakesTheOwner).expect_err("missing wake bug");
        assert!(err.contains("stranded work: true"), "{err}");
    }

    #[test]
    fn collections_see_every_request_2_workers() {
        let states = check_collect(2, 1, 1, 2, 2, true, true).expect("collection invariant");
        assert!(states > 1_000, "trivial state space: {states}");
    }

    #[test]
    fn collections_see_every_request_3_workers() {
        let states = check_collect(3, 1, 1, 1, 1, true, true).expect("collection invariant");
        assert!(states > 1_000, "trivial state space: {states}");
    }

    #[test]
    fn checker_catches_an_ingress_that_mints_after_unlocking() {
        // The request's variables sit in the ingress outbox with tokens at
        // zero and the lock free: a collector takes the lock and frees
        // them. The checker must see it, or the passing tests above prove
        // nothing about the ship-before-unlock order.
        let err = check_collect(2, 1, 0, 1, 1, false, true).expect_err("mint-after-unlock bug");
        assert!(err.contains("cannot see"), "{err}");
    }

    #[test]
    fn checker_catches_a_collector_that_skips_the_recheck() {
        // A parked worker whose machine the collector has not taken yet
        // fires a deadline, sends a batch to a peer whose machine it has,
        // and parks again: only the re-check once every machine is taken
        // sees the batch's token.
        let err = check_collect(2, 1, 1, 0, 1, true, false).expect_err("skipped re-check bug");
        assert!(err.contains("cannot see"), "{err}");
    }

    #[test]
    fn inc_before_send_never_announces_early_2_workers() {
        let states = check(2, 3, true).expect("protocol invariant");
        assert!(states > 50, "trivial state space: {states}");
    }

    #[test]
    fn inc_before_send_never_announces_early_3_workers() {
        let states = check(3, 2, true).expect("protocol invariant");
        assert!(states > 500, "trivial state space: {states}");
    }

    #[test]
    fn checker_catches_the_send_before_inc_bug() {
        // The broken order must be caught — otherwise the two passing
        // tests above prove nothing about the checker's power.
        let err = check(2, 2, false).expect_err("broken variant must announce early");
        assert!(err.contains("announced quiescence"), "{err}");
    }

    #[test]
    fn timer_wakes_preserve_quiescence_2_workers() {
        let states = check_timers(2, 2, 2, true).expect("timer protocol invariant");
        assert!(states > 100, "trivial state space: {states}");
    }

    #[test]
    fn timer_wakes_preserve_quiescence_3_workers() {
        let states = check_timers(3, 1, 1, true).expect("timer protocol invariant");
        assert!(states > 500, "trivial state space: {states}");
    }

    #[test]
    fn checker_catches_wake_after_park_without_minting() {
        // The broken order: a parked worker pops the due wheel entry FIRST
        // and mints its busy token after. In the window between, a peer can
        // surrender the "last" token over an empty wheel and announce
        // quiescence while the fired deadline's work is about to run. The
        // checker must catch it — the timer mirror of the send-before-inc
        // bug — otherwise the two passing tests above prove nothing.
        let err = check_timers(2, 1, 1, false).expect_err("pop-before-mint bug must be caught");
        assert!(err.contains("announced quiescence"), "{err}");
    }

    #[test]
    fn batch_deadlines_fire_only_at_quiescence_2_workers() {
        let states = check_batch_timers(2, 2, 2, true).expect("batch timer protocol invariant");
        assert!(states > 2000, "trivial state space: {states}");
    }

    #[test]
    fn batch_deadlines_fire_only_at_quiescence_3_workers() {
        let states = check_batch_timers(3, 1, 1, true).expect("batch timer protocol invariant");
        assert!(states > 9_000, "trivial state space: {states}");
    }

    #[test]
    fn checker_catches_the_last_releaser_parking_on_a_live_wheel() {
        // The trap the quiescence clock sets: the worker that surrenders
        // the LAST token over a non-empty wheel merely parks. Its peers are
        // in an unbounded `recv` — under this clock they never look at the
        // wheel — so the deadline never fires and the run never ends. The
        // checker must see that, or the two passing tests above prove
        // nothing about the election.
        let err = check_batch_timers(2, 1, 1, false).expect_err("parked last releaser strands");
        assert!(err.contains("stuck state"), "{err}");
    }

    #[test]
    fn busy_absorb_dissolves_exactly_one_token() {
        let t = super::Tokens::new(2);
        t.add(); // batch minted before send
        t.absorb(); // busy receiver dissolves it
        assert!(!t.release()); // first worker idles: one token left
        assert!(t.release()); // last worker idles: quiescence
    }
}
