//! Quiescence detection for the sharded backend: the single-token counter.
//!
//! Every *busy worker* and every *in-flight batch* holds one abstract
//! token; the [`Tokens`] counter tracks how many tokens exist. All workers
//! are born busy (counter starts at `threads`), a sender mints a token
//! **before** the channel send (`add`), a busy worker that absorbs a batch
//! dissolves its token (`absorb`), a parked worker that receives a batch
//! adopts its token as the worker's own busy token (no counter change), and
//! a worker going idle surrenders its busy token (`release`). The counter
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
//! each of its two clocks. (A worker whose nodes a fault plan has crashed
//! needs no variant: it absorbs, surrenders and parks like any other, which
//! [`model::check`] already covers.)
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
